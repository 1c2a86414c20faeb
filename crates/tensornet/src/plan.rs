//! Expectation plans: everything about a light-cone energy evaluation that
//! depends on the circuit *template* and the cost problem, computed once.
//!
//! [`lightcone::problem_expectation`] rebuilds, for every cost term of every
//! evaluation, the reverse cone, the tensor network and its elimination
//! order — none of which depend on the angles. An [`ExpectationPlan`] keeps
//! them: per distinct reduced circuit one *skeleton* (where each tensor's
//! data comes from, its index list, the elimination order `best_order` picks)
//! and per distinct (skeleton, observable) pair one *contraction*. An
//! evaluation forms each distinct gate matrix once, refills the tensors and
//! calls [`contract_with_order`] with the cached order: the same tensors in
//! the same sequence under the same order, so the energy is bit for bit what
//! the bind-per-call path returns.

use crate::contraction::{contract_with_order, DEFAULT_WIDTH_LIMIT};
use crate::error::TensorNetError;
use crate::lightcone::{self, LightCone};
use crate::network::{expectation_layout, gate_tensor, ket_zero, observable, TensorSource};
use crate::ordering::{ContractionOrder, InteractionGraph, OrderingHeuristic};
use graphs::Problem;
use num_complex::Complex64;
use qcircuit::{Circuit, Gate, GateMatrix, Instruction, Parameter};
use rayon::prelude::*;
use std::collections::HashMap;

/// Tensor source word of a |0⟩ / ⟨0| cap; a gate tensor is
/// `matrix << 1 | conjugate`.
const CAP: u16 = u16::MAX;
/// Contraction id of a term with no qubits (`⟨Π Z⟩ = 1` by convention).
const EMPTY_PRODUCT: u32 = u32::MAX;

/// The cached structure of one problem's light-cone energy on one circuit
/// template. Build with [`ExpectationPlan::build`], evaluate with
/// [`ExpectationPlan::expectation`] /
/// [`ExpectationPlan::expectation_sequential`].
#[derive(Debug, Clone)]
pub struct ExpectationPlan {
    num_qubits: usize,
    num_params: usize,
    /// The distinct `(gate, angle)` pairs of the template.
    matrices: Vec<MatrixSpec>,
    /// The template, `[matrix, qubit, second qubit]` per instruction: rebound
    /// for the evaluations whose angles change the network's shape (see
    /// [`ExpectationPlan::expectation`]).
    template: Vec<[u16; 3]>,
    /// The contraction of each cost term, or [`EMPTY_PRODUCT`].
    terms: Vec<u32>,
    contractions: Vec<Contraction>,
    skeletons: Vec<Skeleton>,
    /// The integer tables of every skeleton and contraction, back to back.
    pool: Vec<u16>,
}

/// One distinct gate matrix of the template.
#[derive(Debug, Clone, Copy)]
struct MatrixSpec {
    gate: Gate,
    angle: Angle,
    /// Whether the skeletons attach this gate to existing indices. Exact for
    /// a fixed angle; the gate kind's answer for a parameterized one.
    diagonal: bool,
}

#[derive(Debug, Clone, Copy)]
enum Angle {
    /// A bound angle (`0` for a parameterless gate).
    Fixed(f64),
    /// `multiplier × values[slot]`.
    Slot { slot: u16, multiplier: f64 },
}

/// The network of one reduced circuit, as a run of `pool`:
/// `[source; tensors] [index lists] [final ket index; width] [order]`.
#[derive(Debug, Clone, Copy)]
struct Skeleton {
    start: u32,
    /// Tensors before the observables (ket caps and ket gates).
    ket_tensors: u16,
    tensors: u16,
    index_entries: u16,
    /// Qubits of the reduced circuit.
    width: u16,
    order_len: u16,
    order_width: u16,
    heuristic: OrderingHeuristic,
}

/// One `⟨Π Z⟩` to contract per evaluation: a skeleton plus the relabelled
/// observable qubits (a run of `pool`).
#[derive(Debug, Clone, Copy)]
struct Contraction {
    skeleton: u32,
    observables: u32,
    arity: u16,
}

fn narrow(value: usize, what: &'static str) -> Result<u16, TensorNetError> {
    // `u16::MAX` itself is the cap marker.
    u16::try_from(value)
        .ok()
        .filter(|&v| v != CAP)
        .ok_or(TensorNetError::PlanTooLarge { what, count: value })
}

impl MatrixSpec {
    fn of(inst: &Instruction, params: &[impl AsRef<str>]) -> Result<MatrixSpec, TensorNetError> {
        let angle = match &inst.parameter {
            Parameter::None => Angle::Fixed(0.0),
            Parameter::Bound(theta) => Angle::Fixed(*theta),
            Parameter::Free { name, multiplier } => {
                let slot = params
                    .iter()
                    .position(|p| p.as_ref() == name)
                    .ok_or_else(|| TensorNetError::UnboundParameter { name: name.clone() })?;
                Angle::Slot {
                    slot: narrow(slot, "parameters")?,
                    multiplier: *multiplier,
                }
            }
        };
        let diagonal = match angle {
            Angle::Fixed(theta) => GateMatrix::of(inst.gate, theta).diagonal().is_some(),
            Angle::Slot { .. } => inst.gate.is_diagonal(),
        };
        Ok(MatrixSpec {
            gate: inst.gate,
            angle,
            diagonal,
        })
    }

    /// Identity of the matrix: gate, slot (or none) and the angle's bits.
    fn key(&self) -> (Gate, Option<u16>, u64) {
        match self.angle {
            Angle::Fixed(theta) => (self.gate, None, theta.to_bits()),
            Angle::Slot { slot, multiplier } => (self.gate, Some(slot), multiplier.to_bits()),
        }
    }

    /// The angle `Circuit::bind` would give this gate.
    fn theta(&self, values: &[f64]) -> f64 {
        match self.angle {
            Angle::Fixed(theta) => theta,
            Angle::Slot { slot, multiplier } => multiplier * values[usize::from(slot)],
        }
    }

    /// Indices of this gate's tensor.
    fn rank(&self) -> usize {
        self.gate.arity() * if self.diagonal { 1 } else { 2 }
    }
}

/// Interns the distinct matrices of a template while the plan is built.
struct MatrixTable {
    specs: Vec<MatrixSpec>,
    ids: HashMap<(Gate, Option<u16>, u64), u16>,
}

impl MatrixTable {
    fn intern(
        &mut self,
        inst: &Instruction,
        params: &[impl AsRef<str>],
    ) -> Result<u16, TensorNetError> {
        let spec = MatrixSpec::of(inst, params)?;
        if let Some(&id) = self.ids.get(&spec.key()) {
            return Ok(id);
        }
        // A tensor source word is `id << 1 | conjugate`, below the cap marker.
        let id = u16::try_from(self.specs.len())
            .ok()
            .filter(|&id| id < CAP >> 1)
            .ok_or(TensorNetError::PlanTooLarge {
                what: "distinct gate matrices",
                count: self.specs.len(),
            })?;
        self.ids.insert(spec.key(), id);
        self.specs.push(spec);
        Ok(id)
    }

    /// `[matrix, qubit, second qubit]` for every instruction of `circuit`.
    fn rows(
        &mut self,
        circuit: &Circuit,
        params: &[impl AsRef<str>],
    ) -> Result<Vec<[u16; 3]>, TensorNetError> {
        circuit
            .instructions()
            .iter()
            .map(|inst| {
                let second = inst.qubits.get(1).copied().unwrap_or(0);
                Ok([
                    self.intern(inst, params)?,
                    narrow(inst.qubits[0], "qubits")?,
                    narrow(second, "qubits")?,
                ])
            })
            .collect()
    }
}

impl ExpectationPlan {
    /// Plan the energy of `problem` on `template`, whose free parameters are
    /// named by `params` in the order [`ExpectationPlan::expectation`] takes
    /// their values.
    ///
    /// Fails with [`TensorNetError::WidthLimitExceeded`] when some term's
    /// contraction is wider than [`DEFAULT_WIDTH_LIMIT`] — every evaluation
    /// of that template would — with [`TensorNetError::UnboundParameter`] for
    /// a free parameter missing from `params`, and with
    /// [`TensorNetError::PlanTooLarge`] past the 16-bit tables.
    pub fn build(
        template: &Circuit,
        problem: &Problem,
        params: &[impl AsRef<str>],
    ) -> Result<ExpectationPlan, TensorNetError> {
        // Skeleton and contraction ids are below the term count.
        if problem.terms().len() >= EMPTY_PRODUCT as usize {
            return Err(TensorNetError::PlanTooLarge {
                what: "cost terms",
                count: problem.terms().len(),
            });
        }
        let mut table = MatrixTable {
            specs: Vec::new(),
            ids: HashMap::new(),
        };
        let mut plan = ExpectationPlan {
            num_qubits: template.num_qubits(),
            num_params: params.len(),
            matrices: Vec::new(),
            template: table.rows(template, params)?,
            terms: Vec::with_capacity(problem.terms().len()),
            contractions: Vec::new(),
            skeletons: Vec::new(),
            pool: Vec::new(),
        };
        let mut skeleton_ids: HashMap<(usize, Vec<[u16; 3]>), u32> = HashMap::new();
        let mut contraction_ids: HashMap<(u32, Vec<u16>), u32> = HashMap::new();

        for term in problem.terms() {
            if term.qubits().is_empty() {
                plan.terms.push(EMPTY_PRODUCT);
                continue;
            }
            let cone = LightCone::of(template, term.qubits());
            // A reduced circuit is its width and its rows.
            let key = (cone.width(), table.rows(&cone.circuit, params)?);
            let skeleton = match skeleton_ids.get(&key) {
                Some(&id) => id,
                None => {
                    let id = plan.skeletons.len() as u32;
                    let skeleton = plan.push_skeleton(&cone.circuit, &key.1, &table.specs)?;
                    plan.skeletons.push(skeleton);
                    skeleton_ids.insert(key, id);
                    id
                }
            };
            let observables = term
                .qubits()
                .iter()
                .map(|&q| {
                    let relabelled = cone.relabelled(q).expect("target is inside its own cone");
                    narrow(relabelled, "qubits")
                })
                .collect::<Result<Vec<u16>, _>>()?;
            let contraction = Contraction {
                skeleton,
                observables: plan.pool_offset()?,
                arity: narrow(observables.len(), "observables of one term")?,
            };
            let id = *contraction_ids
                .entry((skeleton, observables))
                .or_insert_with_key(|(_, observables)| {
                    plan.pool.extend_from_slice(observables);
                    plan.contractions.push(contraction);
                    plan.contractions.len() as u32 - 1
                });
            plan.terms.push(id);
        }

        plan.matrices = table.specs;
        plan.matrices.shrink_to_fit();
        plan.template.shrink_to_fit();
        plan.contractions.shrink_to_fit();
        plan.skeletons.shrink_to_fit();
        plan.pool.shrink_to_fit();
        Ok(plan)
    }

    /// Where the next run of the pool starts.
    fn pool_offset(&self) -> Result<u32, TensorNetError> {
        u32::try_from(self.pool.len()).map_err(|_| TensorNetError::PlanTooLarge {
            what: "table entries",
            count: self.pool.len(),
        })
    }

    /// Lay out the network of one reduced circuit, pick its elimination
    /// order, and append both to the pool.
    fn push_skeleton(
        &mut self,
        circuit: &Circuit,
        rows: &[[u16; 3]],
        matrices: &[MatrixSpec],
    ) -> Result<Skeleton, TensorNetError> {
        let width = circuit.num_qubits();
        let mut sources: Vec<u16> = Vec::new();
        let mut ranks: Vec<usize> = Vec::new();
        let mut indices: Vec<usize> = Vec::new();
        let mut outputs: Vec<usize> = Vec::new();
        let mut ket_tensors = 0;
        // Observing every qubit reports each one's final ket index — where a
        // contraction's observables attach — and marks the ket/bra boundary.
        let num_indices = expectation_layout(
            circuit,
            &|i| matrices[usize::from(rows[i][0])].diagonal,
            0..width,
            &mut |source, tensor_indices| {
                let word = match source {
                    TensorSource::Observable(_) => {
                        outputs.push(tensor_indices[0]);
                        ket_tensors = sources.len();
                        return;
                    }
                    TensorSource::Cap => CAP,
                    TensorSource::Gate {
                        instruction,
                        conjugate,
                    } => rows[instruction][0] << 1 | u16::from(conjugate),
                };
                sources.push(word);
                ranks.push(tensor_indices.len());
                indices.extend_from_slice(tensor_indices);
            },
        );

        // The observables are rank-1 tensors on indices the ket side already
        // carries: they add neither a vertex nor an edge, so every term on
        // this reduced circuit gets the order `TensorNetwork::best_order`
        // would give its own network.
        let mut offset = 0;
        let lists = ranks.iter().map(|&rank| {
            offset += rank;
            &indices[offset - rank..offset]
        });
        let order = InteractionGraph::from_tensor_indices(lists).best_order();
        if order.width > DEFAULT_WIDTH_LIMIT {
            return Err(TensorNetError::WidthLimitExceeded {
                width: order.width,
                limit: DEFAULT_WIDTH_LIMIT,
            });
        }

        narrow(num_indices, "indices")?;
        let skeleton = Skeleton {
            start: self.pool_offset()?,
            ket_tensors: narrow(ket_tensors, "tensors")?,
            tensors: narrow(sources.len(), "tensors")?,
            index_entries: narrow(indices.len(), "tensor indices")?,
            width: narrow(width, "qubits")?,
            order_len: narrow(order.order.len(), "indices")?,
            order_width: order.width as u16,
            heuristic: order.heuristic,
        };
        self.pool.extend(sources);
        // Checked above: every index is below `num_indices`.
        self.pool.extend(indices.iter().map(|&i| i as u16));
        self.pool.extend(outputs.iter().map(|&i| i as u16));
        self.pool.extend(order.order.iter().map(|&i| i as u16));
        Ok(skeleton)
    }

    /// Number of distinct networks contracted per evaluation (at most one per
    /// cost term).
    pub fn num_contractions(&self) -> usize {
        self.contractions.len()
    }

    /// Number of distinct network skeletons (at most one per contraction).
    pub fn num_skeletons(&self) -> usize {
        self.skeletons.len()
    }

    /// Heap bytes the plan owns.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.matrices.capacity() * size_of::<MatrixSpec>()
            + self.template.capacity() * size_of::<[u16; 3]>()
            + self.terms.capacity() * size_of::<u32>()
            + self.contractions.capacity() * size_of::<Contraction>()
            + self.skeletons.capacity() * size_of::<Skeleton>()
            + self.pool.capacity() * size_of::<u16>()
    }

    /// The energy ⟨C⟩ of the planned problem at `values`: bit for bit
    /// [`lightcone::problem_expectation`] on the template bound to `values`,
    /// distinct contractions in parallel with Rayon.
    ///
    /// `problem` must be the problem the plan was built for (it supplies the
    /// coefficients the plan does not copy). At the isolated angles where a
    /// parameterized non-diagonal gate is numerically diagonal (`RX(0)`), the
    /// bound network has a different shape than the planned one; such an
    /// evaluation binds the template and takes the per-call path instead.
    pub fn expectation(&self, problem: &Problem, values: &[f64]) -> Result<f64, TensorNetError> {
        let Some(correlators) = self.correlators(problem, values, true)? else {
            return lightcone::problem_expectation(&self.bind_template(values), problem);
        };
        let contributions = problem
            .terms()
            .iter()
            .zip(&self.terms)
            .map(|(t, &id)| t.offset() + t.coeff() * correlator(&correlators, id));
        Ok(problem.constant() + contributions.sum::<f64>())
    }

    /// Sequential variant of [`ExpectationPlan::expectation`]: bit for bit
    /// [`lightcone::problem_expectation_sequential`].
    pub fn expectation_sequential(
        &self,
        problem: &Problem,
        values: &[f64],
    ) -> Result<f64, TensorNetError> {
        let Some(correlators) = self.correlators(problem, values, false)? else {
            return lightcone::problem_expectation_sequential(&self.bind_template(values), problem);
        };
        let mut total = problem.constant();
        for (t, &id) in problem.terms().iter().zip(&self.terms) {
            total += t.offset() + t.coeff() * correlator(&correlators, id);
        }
        Ok(total)
    }

    /// `⟨Π Z⟩` of every contraction at `values`, or `None` when the angles
    /// change the shape of the network.
    fn correlators(
        &self,
        problem: &Problem,
        values: &[f64],
        parallel: bool,
    ) -> Result<Option<Vec<f64>>, TensorNetError> {
        if values.len() != self.num_params || problem.terms().len() != self.terms.len() {
            return Err(TensorNetError::PlanMismatch {
                params: self.num_params,
                terms: self.terms.len(),
                got_params: values.len(),
                got_terms: problem.terms().len(),
            });
        }
        let Some(matrices) = self.bind_matrices(values) else {
            return Ok(None);
        };
        let contract = |c: &Contraction| self.contract(c, &matrices);
        let correlators: Result<Vec<f64>, _> = if parallel {
            self.contractions.par_iter().map(contract).collect()
        } else {
            self.contractions.iter().map(contract).collect()
        };
        correlators.map(Some)
    }

    /// The data of each distinct gate matrix at `values` (the diagonal of a
    /// diagonal one); `None` when one of them is diagonal where its skeletons
    /// are not, or the reverse.
    fn bind_matrices(&self, values: &[f64]) -> Option<Vec<Vec<Complex64>>> {
        self.matrices
            .iter()
            .map(|spec| {
                let matrix = GateMatrix::of(spec.gate, spec.theta(values));
                match matrix.diagonal() {
                    Some(diagonal) if spec.diagonal => Some(diagonal),
                    None if !spec.diagonal => Some(matrix.data().to_vec()),
                    _ => None,
                }
            })
            .collect()
    }

    /// The template with every parameter bound, as `Circuit::bind` builds it.
    fn bind_template(&self, values: &[f64]) -> Circuit {
        let mut circuit = Circuit::new(self.num_qubits);
        for &[matrix, first, second] in &self.template {
            let spec = &self.matrices[usize::from(matrix)];
            let parameter = if spec.gate.is_parameterized() {
                Parameter::Bound(spec.theta(values))
            } else {
                Parameter::None
            };
            let qubits = [usize::from(first), usize::from(second)];
            circuit.push(spec.gate, &qubits[..spec.gate.arity()], parameter);
        }
        circuit
    }

    /// `⟨Π Z⟩` of one contraction: refill its skeleton's tensors, attach the
    /// observables after the ket side, contract under the cached order.
    fn contract(
        &self,
        c: &Contraction,
        matrices: &[Vec<Complex64>],
    ) -> Result<f64, TensorNetError> {
        let sk = &self.skeletons[c.skeleton as usize];
        let (sources, rest) = self.pool[sk.start as usize..].split_at(usize::from(sk.tensors));
        let (mut indices, rest) = rest.split_at(usize::from(sk.index_entries));
        let (outputs, rest) = rest.split_at(usize::from(sk.width));
        let order = &rest[..usize::from(sk.order_len)];
        let observables = &self.pool[c.observables as usize..][..usize::from(c.arity)];

        let mut tensors = Vec::with_capacity(sources.len() + observables.len());
        let mut scratch = [0usize; 4];
        for (position, &source) in sources.iter().enumerate() {
            if position == usize::from(sk.ket_tensors) {
                tensors.extend(
                    observables
                        .iter()
                        .map(|&q| observable(usize::from(outputs[usize::from(q)]), [1.0, -1.0])),
                );
            }
            let rank = match source {
                CAP => 1,
                gate => self.matrices[usize::from(gate >> 1)].rank(),
            };
            let (own, later) = indices.split_at(rank);
            indices = later;
            for (slot, &index) in scratch.iter_mut().zip(own) {
                *slot = usize::from(index);
            }
            tensors.push(match source {
                CAP => ket_zero(scratch[0]),
                gate => gate_tensor(
                    &scratch[..rank],
                    &matrices[usize::from(gate >> 1)],
                    gate & 1 == 1,
                ),
            });
        }
        let order = ContractionOrder {
            order: order.iter().map(|&i| usize::from(i)).collect(),
            width: usize::from(sk.order_width),
            heuristic: sk.heuristic,
        };
        Ok(contract_with_order(tensors, &order, DEFAULT_WIDTH_LIMIT)?
            .0
            .re)
    }
}

fn correlator(correlators: &[f64], id: u32) -> f64 {
    if id == EMPTY_PRODUCT {
        1.0
    } else {
        correlators[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::TensorNetwork;
    use graphs::Graph;

    const PARAMS: [&str; 2] = ["gamma_0", "beta_0"];

    /// A p = 1 QAOA template: H layer, `RZZ(-2γ)` per edge, `mixer(2β)` gate
    /// by gate over every qubit.
    fn template(graph: &Graph, mixer: &[Gate]) -> Circuit {
        let mut c = Circuit::new(graph.num_nodes());
        c.h_layer();
        for e in graph.edges() {
            c.push(Gate::RZZ, &[e.u, e.v], Parameter::free("gamma_0", -2.0));
        }
        for &gate in mixer {
            for q in 0..graph.num_nodes() {
                let parameter = if gate.is_parameterized() {
                    Parameter::free("beta_0", 2.0)
                } else {
                    Parameter::None
                };
                c.push(gate, &[q], parameter);
            }
        }
        c
    }

    fn bound(template: &Circuit, values: &[f64]) -> Circuit {
        template
            .bind(&[("gamma_0", values[0]), ("beta_0", values[1])])
            .unwrap()
    }

    fn assert_matches_per_call(template: &Circuit, problem: &Problem, values: &[f64]) {
        let plan = ExpectationPlan::build(template, problem, &PARAMS).unwrap();
        let circuit = bound(template, values);
        let parallel = lightcone::problem_expectation(&circuit, problem).unwrap();
        let sequential = lightcone::problem_expectation_sequential(&circuit, problem).unwrap();
        assert_eq!(
            plan.expectation(problem, values).unwrap().to_bits(),
            parallel.to_bits(),
            "parallel at {values:?}"
        );
        assert_eq!(
            plan.expectation_sequential(problem, values)
                .unwrap()
                .to_bits(),
            sequential.to_bits(),
            "sequential at {values:?}"
        );
    }

    #[test]
    fn skeletons_are_the_networks_the_per_call_path_builds() {
        let graph = Graph::random_regular(8, 3, 5).unwrap();
        let problem = Problem::max_cut(&graph);
        let template = template(&graph, &[Gate::RX, Gate::H, Gate::RZ]);
        let plan = ExpectationPlan::build(&template, &problem, &PARAMS).unwrap();
        let values = [0.4, 0.3];
        let matrices = plan.bind_matrices(&values).expect("generic angles");
        let circuit = bound(&template, &values);
        for (term, &id) in problem.terms().iter().zip(&plan.terms) {
            let cone = LightCone::of(&circuit, term.qubits());
            let observables: Vec<(usize, [f64; 2])> = term
                .qubits()
                .iter()
                .map(|&q| (cone.relabelled(q).unwrap(), [1.0, -1.0]))
                .collect();
            let net = TensorNetwork::for_diagonal_expectation(&cone.circuit, &observables).unwrap();

            let c = &plan.contractions[id as usize];
            let sk = &plan.skeletons[c.skeleton as usize];
            let order_start =
                usize::from(sk.tensors) + usize::from(sk.index_entries) + usize::from(sk.width);
            let order: Vec<usize> = plan.pool[sk.start as usize + order_start..]
                [..usize::from(sk.order_len)]
                .iter()
                .map(|&i| usize::from(i))
                .collect();
            let best = net.best_order();
            assert_eq!(order, best.order);
            assert_eq!(usize::from(sk.order_width), best.width);
            assert_eq!(sk.heuristic, best.heuristic);
            // Same tensors, same sequence: contracting the per-call network
            // and the refilled skeleton under that order gives the same bits.
            let (value, _) =
                contract_with_order(net.tensors().to_vec(), &best, DEFAULT_WIDTH_LIMIT).unwrap();
            assert_eq!(
                plan.contract(c, &matrices).unwrap().to_bits(),
                value.re.to_bits()
            );
        }
    }

    #[test]
    fn plan_matches_the_per_call_path_bit_for_bit() {
        let graph = Graph::erdos_renyi(7, 0.5, 3);
        for problem in [
            Problem::max_cut(&graph),
            Problem::max_independent_set(&graph, 2.0),
            Problem::sherrington_kirkpatrick(&graph, 9),
        ] {
            for mixer in [
                vec![Gate::RX],
                vec![Gate::RX, Gate::RY],
                vec![Gate::H, Gate::RZ],
                vec![Gate::P],
            ] {
                // MIS and SK carry single-qubit fields: RZ on `gamma_0`.
                let mut template = template(&graph, &mixer);
                for t in problem.terms().iter().filter(|t| t.locality() == 1) {
                    template.push(
                        Gate::RZ,
                        t.qubits(),
                        Parameter::free("gamma_0", -4.0 * t.coeff()),
                    );
                }
                for values in [[0.35, 0.2], [-1.1, 0.77]] {
                    assert_matches_per_call(&template, &problem, &values);
                }
            }
        }
    }

    #[test]
    fn angles_that_change_the_network_shape_are_rebound() {
        // RX(2·0) is the identity, which the per-call builder attaches to an
        // existing index: a network the skeletons do not describe.
        let graph = Graph::cycle(6);
        let problem = Problem::max_cut(&graph);
        let template = template(&graph, &[Gate::RX, Gate::RY]);
        let plan = ExpectationPlan::build(&template, &problem, &PARAMS).unwrap();
        assert!(plan.bind_matrices(&[0.3, 0.0]).is_none());
        assert!(plan.bind_matrices(&[0.0, 0.3]).is_some());
        assert_eq!(
            plan.bind_template(&[0.3, 0.0]),
            bound(&template, &[0.3, 0.0])
        );
        for values in [[0.3, 0.0], [0.0, 0.0], [0.3, std::f64::consts::PI]] {
            assert_matches_per_call(&template, &problem, &values);
        }
    }

    #[test]
    fn coinciding_cones_share_skeletons_and_contractions() {
        // Three disjoint triangles: each edge's cone is its own triangle, and
        // the triangles relabel onto each other, so the nine terms need one
        // skeleton and one contraction per edge position.
        let triangle = |a: usize| [(a, a + 1), (a, a + 2), (a + 1, a + 2)];
        let edges = [triangle(0), triangle(3), triangle(6)].concat();
        let graph = Graph::from_edges(9, &edges).unwrap();
        let problem = Problem::max_cut(&graph);
        let template = template(&graph, &[Gate::RX]);
        let plan = ExpectationPlan::build(&template, &problem, &PARAMS).unwrap();
        assert_eq!(plan.terms.len(), 9);
        assert_eq!(plan.num_skeletons(), 3);
        assert_eq!(plan.num_contractions(), 3);
        assert_matches_per_call(&template, &problem, &[0.6, 0.25]);

        // A constant term has no qubits and no contraction.
        let with_constant = Problem::from_terms(
            "shifted",
            9,
            1.5,
            problem
                .terms()
                .iter()
                .cloned()
                .chain([graphs::CostTerm::new(vec![], 0.75)])
                .collect(),
            problem.convention(),
        )
        .unwrap();
        let plan = ExpectationPlan::build(&template, &with_constant, &PARAMS).unwrap();
        assert_eq!(plan.terms.last(), Some(&EMPTY_PRODUCT));
        assert_matches_per_call(&template, &with_constant, &[0.6, 0.25]);
    }

    #[test]
    fn over_wide_terms_fail_the_build() {
        // On K_28 every cone is the whole register and the 28 input indices
        // are pairwise coupled: wider than the 26-index limit.
        let graph = Graph::complete(28);
        let problem = Problem::max_cut(&graph);
        let template = template(&graph, &[Gate::RX]);
        match ExpectationPlan::build(&template, &problem, &PARAMS) {
            Err(TensorNetError::WidthLimitExceeded { width, limit }) => {
                assert!(width > limit);
                assert_eq!(limit, DEFAULT_WIDTH_LIMIT);
            }
            other => panic!("expected a width error, got {other:?}"),
        }
    }

    #[test]
    fn build_and_evaluation_reject_mismatched_inputs() {
        let graph = Graph::cycle(4);
        let problem = Problem::max_cut(&graph);
        let template = template(&graph, &[Gate::RX]);
        assert!(matches!(
            ExpectationPlan::build(&template, &problem, &["gamma_0"]),
            Err(TensorNetError::UnboundParameter { name }) if name == "beta_0"
        ));
        let plan = ExpectationPlan::build(&template, &problem, &PARAMS).unwrap();
        assert!(matches!(
            plan.expectation(&problem, &[0.1]),
            Err(TensorNetError::PlanMismatch { .. })
        ));
        let other = Problem::max_cut(&Graph::cycle(5));
        assert!(matches!(
            plan.expectation_sequential(&other, &[0.1, 0.2]),
            Err(TensorNetError::PlanMismatch { .. })
        ));
    }
}
