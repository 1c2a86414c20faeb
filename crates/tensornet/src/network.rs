//! Building tensor networks from circuits and evaluating closed quantities.
//!
//! The one quantity QArchSearch needs is the expectation value
//! ⟨0…0|U† D U|0…0⟩ of a **diagonal** observable D — in particular the
//! product of `Z`s over a cost term's qubits, from which the energy of any
//! diagonal cost problem follows term by term.
//!
//! Diagonal gates (RZ, P, CZ, RZZ, CP, Z, S, T, …) are attached to existing
//! indices instead of creating new ones, which mirrors the diagonal-gate
//! optimization that QTensor relies on to keep contraction widths low for
//! QAOA circuits.

use crate::contraction::{contract_with_order, DEFAULT_WIDTH_LIMIT};
use crate::error::TensorNetError;
use crate::ordering::{ContractionOrder, InteractionGraph};
use crate::tensor::Tensor;
use num_complex::Complex64;
use qcircuit::{Circuit, GateMatrix};

/// A closed tensor network assembled from a circuit and an implicit
/// observable, ready to be contracted.
#[derive(Debug, Clone)]
pub struct TensorNetwork {
    tensors: Vec<Tensor>,
    num_indices: usize,
}

/// Internal helper that hands out fresh index ids.
struct IndexAllocator {
    next: usize,
}

impl IndexAllocator {
    fn new() -> Self {
        IndexAllocator { next: 0 }
    }

    fn fresh(&mut self) -> usize {
        let id = self.next;
        self.next += 1;
        id
    }
}

/// The concrete matrix of every instruction of a bound circuit, and the
/// diagonal of those that are diagonal.
struct GateData {
    matrices: Vec<GateMatrix>,
    diagonals: Vec<Option<Vec<Complex64>>>,
}

impl GateData {
    /// Resolve every instruction of `circuit`, failing on unbound parameters.
    fn resolve(circuit: &Circuit) -> Result<GateData, TensorNetError> {
        let matrices = circuit
            .instructions()
            .iter()
            .map(|inst| {
                inst.matrix(&|_| None)
                    .ok_or_else(|| TensorNetError::UnboundParameter {
                        name: inst.parameter.name().unwrap_or("<unknown>").to_string(),
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let diagonals = matrices.iter().map(GateMatrix::diagonal).collect();
        Ok(GateData {
            matrices,
            diagonals,
        })
    }

    fn is_diagonal(&self, instruction: usize) -> bool {
        self.diagonals[instruction].is_some()
    }

    /// The tensor of one instruction over the `indices` the walk gave it.
    fn tensor(&self, instruction: usize, conjugate: bool, indices: &[usize]) -> Tensor {
        let entries = match &self.diagonals[instruction] {
            Some(diagonal) => diagonal.as_slice(),
            None => self.matrices[instruction].data(),
        };
        gate_tensor(indices, entries, conjugate)
    }
}

impl TensorNetwork {
    /// The tensors of the network.
    pub fn tensors(&self) -> &[Tensor] {
        &self.tensors
    }

    /// Number of distinct indices allocated while building the network.
    pub fn num_indices(&self) -> usize {
        self.num_indices
    }

    /// Build the closed network for ⟨0…0|U† D U|0…0⟩ where `D` is a product of
    /// single-qubit diagonal observables given as `(qubit, [d0, d1])` pairs.
    pub fn for_diagonal_expectation(
        circuit: &Circuit,
        observables: &[(usize, [f64; 2])],
    ) -> Result<TensorNetwork, TensorNetError> {
        let gates = GateData::resolve(circuit)?;
        let mut tensors = Vec::new();
        let num_indices = expectation_layout(
            circuit,
            &|i| gates.is_diagonal(i),
            observables.iter().map(|&(qubit, _)| qubit),
            &mut |source, indices| {
                tensors.push(match source {
                    TensorSource::Cap => ket_zero(indices[0]),
                    TensorSource::Observable(k) => observable(indices[0], observables[k].1),
                    TensorSource::Gate {
                        instruction,
                        conjugate,
                    } => gates.tensor(instruction, conjugate, indices),
                })
            },
        );
        Ok(TensorNetwork {
            tensors,
            num_indices,
        })
    }

    /// Contract the network with the better of the min-degree / min-fill
    /// orders, returning the scalar value.
    pub fn contract(&self) -> Result<Complex64, TensorNetError> {
        let order = self.best_order();
        contract_with_order(self.tensors.clone(), &order, DEFAULT_WIDTH_LIMIT).map(|(v, _)| v)
    }

    /// The elimination order the automatic contraction would use.
    pub fn best_order(&self) -> ContractionOrder {
        InteractionGraph::from_tensor_indices(self.tensors.iter().map(|t| t.indices())).best_order()
    }

    /// `⟨Π_{q ∈ qubits} Z_q⟩` on the output state of a (fully bound)
    /// circuit — what the problem-generic light-cone evaluation contracts
    /// per cost term. An empty product is `1`.
    pub fn z_product_expectation(
        circuit: &Circuit,
        qubits: &[usize],
    ) -> Result<f64, TensorNetError> {
        if qubits.is_empty() {
            return Ok(1.0);
        }
        let observables: Vec<(usize, [f64; 2])> =
            qubits.iter().map(|&q| (q, [1.0, -1.0])).collect();
        let net = TensorNetwork::for_diagonal_expectation(circuit, &observables)?;
        Ok(net.contract()?.re)
    }
}

/// The |0⟩ cap tensor on one index.
pub(crate) fn ket_zero(index: usize) -> Tensor {
    Tensor::new(
        vec![index],
        vec![Complex64::new(1.0, 0.0), Complex64::new(0.0, 0.0)],
    )
    .expect("cap tensor is well-formed")
}

/// A single-qubit diagonal observable `diag(d0, d1)` on one index.
pub(crate) fn observable(index: usize, diag: [f64; 2]) -> Tensor {
    Tensor::new(
        vec![index],
        vec![Complex64::new(diag[0], 0.0), Complex64::new(diag[1], 0.0)],
    )
    .expect("observable tensor is well-formed")
}

/// A gate tensor over `indices`: `entries` is the diagonal of a diagonal gate
/// or the row-major matrix of any other, conjugated on the bra side.
pub(crate) fn gate_tensor(indices: &[usize], entries: &[Complex64], conjugate: bool) -> Tensor {
    let data = if conjugate {
        entries.iter().map(Complex64::conj).collect()
    } else {
        entries.to_vec()
    };
    Tensor::new(indices.to_vec(), data).expect("gate tensor is well-formed")
}

/// What fills one tensor of an expectation network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TensorSource {
    /// A |0⟩ or ⟨0| cap.
    Cap,
    /// The `k`-th observable handed to [`expectation_layout`].
    Observable(usize),
    /// The matrix of one instruction, conjugated on the bra side.
    Gate { instruction: usize, conjugate: bool },
}

/// Lay out the closed network of ⟨0…0|U† D U|0…0⟩ without any tensor data:
/// `emit(source, indices)` is called once per tensor, in network order, and
/// the number of indices allocated is returned. Which gates attach to
/// existing indices is the caller's `is_diagonal` (by instruction position):
/// [`TensorNetwork::for_diagonal_expectation`] answers from the bound
/// matrices, an [`crate::plan::ExpectationPlan`] from the gate kinds of an
/// unbound template — one walk, so the two agree index for index.
pub(crate) fn expectation_layout(
    circuit: &Circuit,
    is_diagonal: &dyn Fn(usize) -> bool,
    observable_qubits: impl IntoIterator<Item = usize>,
    emit: &mut dyn FnMut(TensorSource, &[usize]),
) -> usize {
    let mut alloc = IndexAllocator::new();

    // Ket side: |0⟩ caps, then the circuit.
    let mut current: Vec<usize> = (0..circuit.num_qubits()).map(|_| alloc.fresh()).collect();
    for &idx in &current {
        emit(TensorSource::Cap, &[idx]);
    }
    walk_circuit(
        circuit,
        is_diagonal,
        &mut alloc,
        &mut current,
        false,
        &mut |instruction, indices| {
            emit(
                TensorSource::Gate {
                    instruction,
                    conjugate: false,
                },
                indices,
            )
        },
    );

    // The diagonal observable lives on the final ket indices; because it is
    // diagonal it identifies the ket and bra output indices, so the bra walk
    // below starts from these same indices.
    for (k, qubit) in observable_qubits.into_iter().enumerate() {
        emit(TensorSource::Observable(k), &[current[qubit]]);
    }

    // Bra side: walk the circuit backwards with conjugated tensors, then the
    // ⟨0| caps at the (temporal) input of the bra chain.
    walk_circuit(
        circuit,
        is_diagonal,
        &mut alloc,
        &mut current,
        true,
        &mut |instruction, indices| {
            emit(
                TensorSource::Gate {
                    instruction,
                    conjugate: true,
                },
                indices,
            )
        },
    );
    for &idx in &current {
        emit(TensorSource::Cap, &[idx]);
    }
    alloc.next
}

/// Walk `circuit`, threading per-qubit index chains through `current`, and
/// hand `emit` each instruction's position and the indices of its tensor.
///
/// * `conjugate = false`: forward (ket) walk — `current[q]` is the *latest*
///   index of qubit `q`; gate tensors map old index → new index.
/// * `conjugate = true`: backward (bra) walk — instructions are visited in
///   reverse and the chain grows from the final indices toward the circuit
///   input.
///
/// A diagonal gate attaches to the existing indices (basis order |q_a q_b⟩,
/// matching [`GateMatrix`]). Any other gate gets `[out…, in…]`: keeping
/// [row, col] = [out, in] and connecting `out` to the *later* index, the bra
/// side's `[later, earlier]` with conjugated (not transposed) data is exactly
/// U†: (U†)[earlier, later] = conj(U[later, earlier]).
fn walk_circuit(
    circuit: &Circuit,
    is_diagonal: &dyn Fn(usize) -> bool,
    alloc: &mut IndexAllocator,
    current: &mut [usize],
    conjugate: bool,
    emit: &mut dyn FnMut(usize, &[usize]),
) {
    let count = circuit.instructions().len();
    for step in 0..count {
        let position = if conjugate { count - 1 - step } else { step };
        let diagonal = is_diagonal(position);
        match *circuit.instructions()[position].qubits {
            [q] if diagonal => emit(position, &[current[q]]),
            [qa, qb] if diagonal => emit(position, &[current[qa], current[qb]]),
            [q] => {
                let fresh = alloc.fresh();
                let (out_idx, in_idx) = if conjugate {
                    (current[q], fresh)
                } else {
                    (fresh, current[q])
                };
                emit(position, &[out_idx, in_idx]);
                current[q] = fresh;
            }
            [qa, qb] => {
                let fresh_a = alloc.fresh();
                let fresh_b = alloc.fresh();
                let (out_a, out_b, in_a, in_b) = if conjugate {
                    (current[qa], current[qb], fresh_a, fresh_b)
                } else {
                    (fresh_a, fresh_b, current[qa], current[qb])
                };
                emit(position, &[out_a, out_b, in_a, in_b]);
                current[qa] = fresh_a;
                current[qb] = fresh_b;
            }
            _ => unreachable!("gates act on one or two qubits"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// |⟨0…0|U|0…0⟩|², the squared modulus of the amplitude: the expectation
    /// of the projector onto |0…0⟩, `diag(1, 0)` on every qubit.
    fn zero_amplitude_squared(circuit: &Circuit) -> f64 {
        let projector: Vec<(usize, [f64; 2])> =
            (0..circuit.num_qubits()).map(|q| (q, [1.0, 0.0])).collect();
        let net = TensorNetwork::for_diagonal_expectation(circuit, &projector).unwrap();
        let value = net.contract().unwrap();
        assert!(value.im.abs() < 1e-12, "{value}");
        value.re
    }

    #[test]
    fn amplitude_of_empty_circuit_is_one() {
        let c = Circuit::new(3);
        assert!((zero_amplitude_squared(&c) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn amplitude_of_single_hadamard() {
        let mut c = Circuit::new(1);
        c.h(0);
        assert!((zero_amplitude_squared(&c) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn amplitude_of_x_gate_is_zero() {
        let mut c = Circuit::new(1);
        c.x(0);
        assert!(zero_amplitude_squared(&c).abs() < 1e-12);
    }

    #[test]
    fn amplitude_matches_h_h_identity() {
        // H·H = I, so ⟨0|HH|0⟩ = 1.
        let mut c = Circuit::new(1);
        c.h(0).h(0);
        assert!((zero_amplitude_squared(&c) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn amplitude_of_bell_circuit() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        assert!((zero_amplitude_squared(&c) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn diagonal_gates_do_not_allocate_new_indices() {
        let mut diag_only = Circuit::new(2);
        diag_only.rz(0, 0.3).rzz(0, 1, 0.5).cz(0, 1).p(1, 0.2);
        let net = TensorNetwork::for_diagonal_expectation(&diag_only, &[]).unwrap();
        // Only the two initial cap indices exist, on both walks.
        assert_eq!(net.num_indices(), 2);

        let mut with_h = Circuit::new(2);
        with_h.h(0).h(1);
        let net2 = TensorNetwork::for_diagonal_expectation(&with_h, &[]).unwrap();
        // Two caps + one new index per H and walk.
        assert_eq!(net2.num_indices(), 6);
    }

    #[test]
    fn z_expectation_on_zero_state() {
        let c = Circuit::new(1);
        assert!((TensorNetwork::z_product_expectation(&c, &[0]).unwrap() - 1.0).abs() < 1e-12);
        let mut cx = Circuit::new(1);
        cx.x(0);
        assert!((TensorNetwork::z_product_expectation(&cx, &[0]).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn z_expectation_after_rx() {
        // ⟨Z⟩ after RX(θ) on |0⟩ is cos(θ).
        for theta in [0.0, 0.4, 1.3, PI / 2.0, PI] {
            let mut c = Circuit::new(1);
            c.rx(0, theta);
            let z = TensorNetwork::z_product_expectation(&c, &[0]).unwrap();
            assert!((z - theta.cos()).abs() < 1e-10, "theta={theta}: {z}");
        }
    }

    #[test]
    fn zz_expectation_on_bell_state() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let zz = TensorNetwork::z_product_expectation(&c, &[0, 1]).unwrap();
        assert!((zz - 1.0).abs() < 1e-10);
    }

    #[test]
    fn zz_expectation_on_plus_states_is_zero() {
        let mut c = Circuit::new(2);
        c.h(0).h(1);
        let zz = TensorNetwork::z_product_expectation(&c, &[0, 1]).unwrap();
        assert!(zz.abs() < 1e-10);
    }

    #[test]
    fn unbound_parameter_is_rejected() {
        use qcircuit::{Gate, Parameter};
        let mut c = Circuit::new(1);
        c.push(Gate::RX, &[0], Parameter::free("beta", 1.0));
        assert!(matches!(
            TensorNetwork::z_product_expectation(&c, &[0]),
            Err(TensorNetError::UnboundParameter { .. })
        ));
    }

    #[test]
    fn qaoa_p1_single_edge_expectation_matches_closed_form() {
        // For a single edge with QAOA p=1 and the standard RX mixer,
        // ⟨Z_0 Z_1⟩ = cos(2β)... the closed form for one isolated edge is
        // ⟨C⟩ = (1 + sin(2β) sin(γ)) / 2 ... rather than rely on the formula,
        // compare against the dense simulator in the integration tests; here
        // just check the value is a sane correlation.
        let (gamma, beta) = (0.7, 0.4);
        let mut c = Circuit::new(2);
        c.h(0).h(1);
        c.rzz(0, 1, 2.0 * gamma);
        c.rx(0, 2.0 * beta).rx(1, 2.0 * beta);
        let zz = TensorNetwork::z_product_expectation(&c, &[0, 1]).unwrap();
        assert!(zz.abs() <= 1.0 + 1e-10);
    }

    #[test]
    fn expectation_network_has_two_walks_worth_of_tensors() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).rzz(0, 1, 0.5).rx(0, 0.3);
        let net = TensorNetwork::for_diagonal_expectation(&c, &[(0, [1.0, -1.0])]).unwrap();
        // 2 ket caps + 2 bra caps + 1 observable + (3 non-diag + 1 diag) * 2.
        assert_eq!(net.tensors().len(), 2 + 2 + 1 + 8);
    }
}
