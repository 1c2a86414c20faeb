//! Light-cone reduction for per-term QAOA expectation values.
//!
//! The expectation ⟨ψ|Π Z_q|ψ⟩ with |ψ⟩ = U|0…0⟩ only depends on the gates
//! inside the *reverse causal cone* of the observable's qubits: every gate
//! that touches no cone qubit cancels between U and U†. QTensor exploits
//! this to evaluate the QAOA energy edge by edge on sub-circuits that are
//! much narrower than the full register; this module implements the same
//! reduction for our backend, generalized from Max-Cut edges to the terms
//! of any diagonal cost [`Problem`] ([`problem_expectation`]).

use crate::error::TensorNetError;
use crate::network::TensorNetwork;
use graphs::Problem;
use qcircuit::Circuit;
use rayon::prelude::*;
use std::collections::BTreeSet;

/// The light-cone restriction of `circuit` with respect to `targets`:
/// the sub-circuit containing exactly the gates in the reverse causal cone,
/// relabelled onto the cone qubits, plus the mapping from old qubit id to new.
#[derive(Debug, Clone)]
pub struct LightCone {
    /// The reduced circuit over `cone_qubits.len()` qubits.
    pub circuit: Circuit,
    /// Original qubit ids of the cone, in relabelling order (new id = position).
    pub cone_qubits: Vec<usize>,
}

impl LightCone {
    /// Compute the reverse causal cone of `targets` in `circuit`.
    ///
    /// Walk the instructions backwards keeping a growing set of *active*
    /// qubits (initialized to `targets`); an instruction is kept iff it acts
    /// on at least one active qubit, and keeping it activates all of its
    /// qubits.
    pub fn of(circuit: &Circuit, targets: &[usize]) -> LightCone {
        let mut active: BTreeSet<usize> = targets.iter().copied().collect();
        let mut keep = vec![false; circuit.instructions().len()];

        for (i, inst) in circuit.instructions().iter().enumerate().rev() {
            if inst.qubits.iter().any(|q| active.contains(q)) {
                keep[i] = true;
                for &q in &inst.qubits {
                    active.insert(q);
                }
            }
        }

        let cone_qubits: Vec<usize> = active.into_iter().collect();
        let relabel = |q: usize| {
            cone_qubits
                .iter()
                .position(|&x| x == q)
                .expect("qubit in cone")
        };

        let mut reduced = Circuit::new(cone_qubits.len());
        for (i, inst) in circuit.instructions().iter().enumerate() {
            if keep[i] {
                let qubits: Vec<usize> = inst.qubits.iter().map(|&q| relabel(q)).collect();
                reduced
                    .try_push(inst.gate, &qubits, inst.parameter.clone())
                    .expect("relabelled instruction is valid");
            }
        }
        LightCone {
            circuit: reduced,
            cone_qubits,
        }
    }

    /// New (relabelled) id of an original qubit, if it is inside the cone.
    pub fn relabelled(&self, original: usize) -> Option<usize> {
        self.cone_qubits.iter().position(|&q| q == original)
    }

    /// Width of the cone.
    pub fn width(&self) -> usize {
        self.cone_qubits.len()
    }
}

/// `⟨Π_{q ∈ qubits} Z_q⟩` on the output of `circuit`, evaluated on the
/// light-cone-reduced sub-circuit of the term's qubits, as the
/// problem-generic energy evaluation needs per cost term. An empty product
/// is `1`.
pub fn z_product_expectation_lightcone(
    circuit: &Circuit,
    qubits: &[usize],
) -> Result<f64, TensorNetError> {
    if qubits.is_empty() {
        return Ok(1.0);
    }
    let cone = LightCone::of(circuit, qubits);
    let relabelled: Vec<usize> = qubits
        .iter()
        .map(|&q| cone.relabelled(q).expect("target is inside its own cone"))
        .collect();
    TensorNetwork::z_product_expectation(&cone.circuit, &relabelled)
}

/// The QAOA energy ⟨C⟩ of an arbitrary diagonal cost [`Problem`], computed
/// term by term with per-term light-cone reduction:
/// `⟨C⟩ = constant + Σ_t (offset_t + coeff_t ⟨Π Z⟩_t)`. Terms are processed
/// in parallel with Rayon — the *inner* level of the paper's two-level
/// parallelization (the outer level parallelizes over candidate circuits),
/// generalized from per-edge to per-term cones.
pub fn problem_expectation(circuit: &Circuit, problem: &Problem) -> Result<f64, TensorNetError> {
    let contributions: Result<Vec<f64>, TensorNetError> = problem
        .terms()
        .par_iter()
        .map(|t| {
            let corr = z_product_expectation_lightcone(circuit, t.qubits())?;
            Ok(t.offset() + t.coeff() * corr)
        })
        .collect();
    Ok(problem.constant() + contributions?.into_iter().sum::<f64>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::{Gate, Parameter};

    /// A p=1 QAOA circuit on a path graph 0-1-2-3 with the standard RX mixer.
    fn qaoa_path_circuit(gamma: f64, beta: f64) -> Circuit {
        let mut c = Circuit::new(4);
        c.h_layer();
        for &(u, v) in &[(0usize, 1usize), (1, 2), (2, 3)] {
            c.rzz(u, v, 2.0 * gamma);
        }
        for q in 0..4 {
            c.rx(q, 2.0 * beta);
        }
        c
    }

    #[test]
    fn cone_of_isolated_qubit_is_narrow() {
        let c = qaoa_path_circuit(0.5, 0.3);
        // Qubits 0 and 1 interact only with each other and qubit 2.
        let cone = LightCone::of(&c, &[0, 1]);
        assert!(
            cone.width() <= 3,
            "cone width {} should exclude qubit 3",
            cone.width()
        );
        assert!(cone.relabelled(0).is_some());
        assert!(cone.relabelled(1).is_some());
        assert!(cone.relabelled(3).is_none());
    }

    #[test]
    fn cone_keeps_all_gates_when_everything_interacts() {
        let mut c = Circuit::new(3);
        c.h_layer();
        c.cx(0, 1).cx(1, 2);
        let cone = LightCone::of(&c, &[0]);
        // CX(1,2) precedes nothing acting on 0, but CX(0,1) activates 1,
        // whose earlier gate H(1) must be kept; qubit 2's H is dropped only if
        // CX(1,2) is outside the cone — it is *inside* because it acts on
        // qubit 1 after activation? No: walking backwards from {0}, CX(1,2)
        // is seen before CX(0,1), at which point only 0 is active, so it is
        // dropped.
        assert_eq!(cone.width(), 2);
        assert_eq!(cone.circuit.num_qubits(), 2);
    }

    #[test]
    fn cone_of_empty_targets_is_empty() {
        let c = qaoa_path_circuit(0.1, 0.2);
        let cone = LightCone::of(&c, &[]);
        assert_eq!(cone.width(), 0);
        assert_eq!(cone.circuit.len(), 0);
    }

    #[test]
    fn lightcone_zz_matches_full_network() {
        let c = qaoa_path_circuit(0.7, 0.4);
        for &(u, v) in &[(0usize, 1usize), (1, 2), (2, 3)] {
            let full = TensorNetwork::z_product_expectation(&c, &[u, v]).unwrap();
            let cone = z_product_expectation_lightcone(&c, &[u, v]).unwrap();
            assert!(
                (full - cone).abs() < 1e-10,
                "edge ({u},{v}): full {full} vs cone {cone}"
            );
        }
    }

    #[test]
    fn maxcut_expectation_at_zero_angles_is_half_weight() {
        // With γ = β = 0 the state stays |+…+⟩ and every edge is cut with
        // probability 1/2.
        let g = graphs::Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let c = qaoa_path_circuit(0.0, 0.0);
        let e = problem_expectation(&c, &Problem::max_cut(&g)).unwrap();
        assert!((e - 1.5).abs() < 1e-10);
    }

    #[test]
    fn z_product_generalizes_zz_and_z() {
        let c = qaoa_path_circuit(0.7, 0.4);
        // Any arity matches the full-network contraction.
        let products: [&[usize]; 7] = [&[0], &[1], &[2], &[3], &[0, 2], &[0, 1, 2], &[0, 2, 3]];
        for qubits in products {
            let full = TensorNetwork::z_product_expectation(&c, qubits).unwrap();
            let cone = z_product_expectation_lightcone(&c, qubits).unwrap();
            assert!((full - cone).abs() < 1e-10, "qubits {qubits:?}");
        }
        // Empty products are 1 by convention.
        assert_eq!(z_product_expectation_lightcone(&c, &[]).unwrap(), 1.0);
    }

    #[test]
    fn problem_expectation_matches_maxcut_path_bitwise() {
        // Σ_e w_e (1 − ⟨Z_u Z_v⟩)/2, edge by edge in edge order.
        let edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)];
        let problem = Problem::max_cut_from_edges(4, &edges).unwrap();
        let c = qaoa_path_circuit(0.6, 0.3);
        let by_edge: f64 = (edges.iter())
            .map(|&(u, v, w)| {
                0.5 * w * (1.0 - z_product_expectation_lightcone(&c, &[u, v]).unwrap())
            })
            .sum();
        let generic = problem_expectation(&c, &problem).unwrap();
        assert_eq!(by_edge.to_bits(), generic.to_bits());
    }

    #[test]
    fn problem_expectation_at_zero_angles_is_the_diagonal_mean() {
        // γ = β = 0 leaves the plus state, where ⟨C⟩ is the mean of C(z)
        // over all basis states — for any diagonal problem.
        let g = graphs::Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let c = qaoa_path_circuit(0.0, 0.0);
        for problem in [
            Problem::max_independent_set(&g, 2.0),
            Problem::sherrington_kirkpatrick(&g, 9),
            Problem::random_partition(&g, 9),
        ] {
            let mean = (0..(1u64 << 4)).map(|m| problem.value_mask(m)).sum::<f64>() / 16.0;
            let e = problem_expectation(&c, &problem).unwrap();
            assert!(
                (e - mean).abs() < 1e-10,
                "{}: {e} vs {mean}",
                problem.name()
            );
        }
    }

    #[test]
    fn cone_handles_free_parameters() {
        // Light-cone reduction is purely structural, so free parameters
        // survive into the reduced circuit.
        let mut c = Circuit::new(3);
        c.h_layer();
        c.push(Gate::RZZ, &[0, 1], Parameter::free("gamma", 2.0));
        c.push(Gate::RX, &[0], Parameter::free("beta", 2.0));
        let cone = LightCone::of(&c, &[0, 1]);
        assert_eq!(
            cone.circuit.free_parameters(),
            vec!["beta".to_string(), "gamma".to_string()]
        );
    }
}
