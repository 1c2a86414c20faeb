//! Expectation plans: everything about a light-cone energy evaluation that
//! depends on the circuit *template* and the cost problem, computed once.
//!
//! [`lightcone::problem_expectation`] rebuilds, for every cost term of every
//! evaluation, the reverse cone, the tensor network, its elimination order
//! and — inside `contract_with_order` — every bucket's index maps and
//! buffers, none of which depend on the angles. An [`ExpectationPlan`] does
//! that work once per distinct `(reduced circuit, observable qubits)` pair:
//! it replays `contract_with_order`'s bucket elimination under the order
//! `best_order` picks on index lists alone and records it as a flat
//! *program* — per step the rank of the bucket's product, the product bit
//! the eliminated index occupies and the bucket's tensors; per tensor where
//! its data comes from and which product bits address it.
//!
//! An evaluation forms each distinct gate matrix once and runs the programs
//! in a reused arena, doing the multiplications pairwise `Tensor::multiply`
//! does and no others. A product's indices are the first operand's, then
//! each later operand's new ones, so the operands so far always carry its
//! leading bits: a step keeps the partial product over those bits only and
//! widens it in place, top position down, when an operand brings new
//! indices. The last operand multiplies straight from the partial product
//! into the position with the eliminated bit removed, walking the positions
//! in ascending order from `0 + 0i` as `Tensor::sum_over` does. Every entry
//! is the same operands multiplied left to right and every output receives
//! its two contributions in the same order, so the energy is bit for bit
//! what the bind-per-call path returns. An operand's entry follows the
//! position incrementally: one add per position, indexed by the position's
//! trailing ones.
//!
//! A bucket whose operands are all parameter-free — caps, `Z`s, matrices of
//! a fixed angle (`H`, parameterless gates, bound angles) and earlier such
//! results — gives the same tensor at every evaluation. The replay
//! contracts it on the spot with the routine evaluations use and keeps the
//! result, distinct by bit pattern, in a pool of constants the plan owns;
//! the bucket emits no step, and its consumers address the constant as
//! they address a matrix.
//!
//! Programs name gate matrices by id, never by gate, and nothing else about
//! a parameterized gate reaches them: `LightCone::of` reads qubits only,
//! the network layout a gate's arity and whether it is diagonal, folding
//! fixed-angle matrices only. So a plan is two parts. Its *structure* —
//! terms, programs, steps, operands, shifts, the constant pool, arena
//! sizes, the template's `[matrix, qubit, second qubit]` rows, qubit and
//! parameter counts — names no gate kind; its *binding* is the candidate's
//! own gate and angle per matrix id. [`ExpectationPlan::build_with`] takes
//! the structure from a [`PlanInterner`], keyed by the template's rows, the
//! parameter and qubit counts, and per matrix id its arity, its shape flag
//! and its angle: a fixed angle by gate and bits (folded constants hold its
//! entries), a parameter by slot and multiplier. Candidates whose templates
//! differ only in *which* rotation sits at a position — `rx` and `ry`, `rx,ry`
//! and `ry,rx` — then share one structure and a plan of theirs costs a hash
//! lookup; a shared plan runs exactly the programs a fresh build compiles,
//! so the energy keeps its bits. A structure lives as long as some plan
//! uses it: the interner holds it weakly. On the `search_tn` shape
//! (4-regular n = 10, p = 1, mixers of one or two `rx` / `ry`) six of a
//! depth's twelve plans share, and a shared plan takes ≈ 3 µs against
//! ≈ 0.74 ms for a fresh build (2-vCPU x86-64 box, one thread).

use crate::contraction::DEFAULT_WIDTH_LIMIT;
use crate::error::TensorNetError;
use crate::lightcone::{self, LightCone};
use crate::network::{expectation_layout, TensorSource};
use crate::ordering::InteractionGraph;
use graphs::Problem;
use num_complex::Complex64;
use qcircuit::{Circuit, Gate, GateMatrix, Instruction, Parameter};
use rayon::prelude::*;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, Weak};

/// Flag of the operand word of constant `c` of the plan's pool. A gate
/// tensor is `matrix << 1 | conjugate`, below it; an intermediate `STEP |
/// s`.
const CONSTANT: u16 = 0x4000;
/// Operand word of a |0⟩ / ⟨0| cap, the pool's first constant.
const CAP: u16 = CONSTANT;
/// Operand word of a `Z` observable, the pool's second.
const OBSERVABLE: u16 = CONSTANT | 1;
/// Flag of the operand word of what step `s` of the same program left.
const STEP: u16 = 0x8000;
/// The cap's and the observable's data.
const CAP_DATA: [Complex64; 2] = [Complex64::new(1.0, 0.0), Complex64::new(0.0, 0.0)];
const OBSERVABLE_DATA: [Complex64; 2] = [Complex64::new(1.0, 0.0), Complex64::new(-1.0, 0.0)];
/// Contraction id of a term with no qubits (`⟨Π Z⟩ = 1` by convention).
const EMPTY_PRODUCT: u32 = u32::MAX;
/// Entries of an operand's index steps: one per bit of the widest product,
/// and one for the step past its last position.
const DELTAS: usize = DEFAULT_WIDTH_LIMIT + 1;

/// The compiled light-cone energy of one problem on one circuit template.
/// Build with [`ExpectationPlan::build`] (or [`ExpectationPlan::build_with`]
/// to share structure with other candidates), evaluate with
/// [`ExpectationPlan::expectation_in`].
#[derive(Debug, Clone)]
pub struct ExpectationPlan {
    /// Everything that names no gate kind, possibly shared with the plans
    /// of other candidates (see [`PlanInterner`]).
    structure: Arc<PlanStructure>,
    /// The distinct `(gate, angle)` pairs of the template, by matrix id:
    /// this candidate's own, with the ranks and offsets the structure's
    /// programs address.
    matrices: Vec<MatrixSpec>,
}

/// The part of a plan that names matrices by id only.
#[derive(Debug, PartialEq)]
struct PlanStructure {
    num_qubits: usize,
    num_params: usize,
    /// The template, `[matrix, qubit, second qubit]` per instruction: rebound
    /// for the evaluations whose angles change the network's shape (see
    /// [`ExpectationPlan::expectation`]).
    template: Vec<[u16; 3]>,
    /// The program of each cost term, or [`EMPTY_PRODUCT`].
    terms: Vec<u32>,
    programs: Vec<Program>,
    /// The steps of every program, back to back.
    steps: Vec<Step>,
    /// Per step its operand words, then per program the words of the scalars
    /// its steps leave.
    operands: Vec<u16>,
    /// Per operand after the first of a step, the product bit of each of its
    /// indices (the first operand's indices are the product's leading bits).
    shifts: Vec<u8>,
    /// The pool: the cap, the observable and every folded bucket's result,
    /// distinct by bit pattern, back to back; where each starts.
    constants: Vec<Complex64>,
    constant_runs: Vec<Constant>,
    /// A program runs in an arena of the largest product's entries, then
    /// every step's result.
    product_len: usize,
    results_len: usize,
    max_steps: usize,
    /// Distinct reduced circuits the programs were compiled from.
    skeletons: usize,
}

/// What a [`PlanStructure`] depends on besides the problem: the template's
/// rows, the qubit and parameter counts, and per matrix id
/// [`MatrixSpec::structure_key`].
#[derive(Debug, PartialEq, Eq, Hash)]
struct StructureKey {
    num_qubits: usize,
    num_params: usize,
    template: Vec<[u16; 3]>,
    matrices: Vec<MatrixKey>,
}

/// Arity, shape flag, the gate of a fixed angle, the slot of a parameter,
/// and the bits of the angle or the multiplier.
type MatrixKey = (usize, bool, Option<Gate>, Option<u16>, u64);

/// Hands out one shared structure per distinct key to every plan built
/// through it ([`ExpectationPlan::build_with`]), as
/// `statevec::compile::PhaseLutInterner` shares phase LUTs.
///
/// The key does not name the problem, so an interner must only ever see
/// one: the per-instance energy evaluator owns one. Entries are weak — a
/// structure lives exactly as long as some plan uses it, and whoever owns
/// the interner pins none — and dead keys are swept on insert.
#[derive(Debug, Default)]
pub struct PlanInterner {
    entries: Mutex<HashMap<StructureKey, Weak<PlanStructure>>>,
}

impl PlanInterner {
    fn entries(&self) -> MutexGuard<'_, HashMap<StructureKey, Weak<PlanStructure>>> {
        // Every update leaves the map valid, so a poisoned lock (a panic in
        // another build) is safe to recover.
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The live structure for `key`, built by `build` from the key's rows
    /// when no plan holds one. The build runs outside the lock: a racing
    /// build of the same key is bit for bit this one, and the first to
    /// insert wins.
    fn get_or_build(
        &self,
        key: StructureKey,
        build: impl FnOnce(&[[u16; 3]]) -> Result<PlanStructure, TensorNetError>,
    ) -> Result<Arc<PlanStructure>, TensorNetError> {
        if let Some(structure) = self.entries().get(&key).and_then(Weak::upgrade) {
            return Ok(structure);
        }
        let built = Arc::new(build(&key.template)?);
        let mut entries = self.entries();
        if let Some(structure) = entries.get(&key).and_then(Weak::upgrade) {
            return Ok(structure);
        }
        entries.retain(|_, structure| structure.strong_count() > 0);
        entries.insert(key, Arc::downgrade(&built));
        Ok(built)
    }
}

/// One distinct gate matrix of the template.
#[derive(Debug, Clone, Copy)]
struct MatrixSpec {
    gate: Gate,
    angle: Angle,
    /// Whether the networks attach this gate to existing indices. Exact for
    /// a fixed angle; the gate kind's answer for a parameterized one.
    diagonal: bool,
    /// Where its entries sit in the bound inputs; the conjugates follow.
    offset: u32,
}

#[derive(Debug, Clone, Copy)]
enum Angle {
    /// A bound angle (`0` for a parameterless gate).
    Fixed(f64),
    /// `multiplier × values[slot]`.
    Slot { slot: u16, multiplier: f64 },
}

/// One contraction, compiled: runs of the plan's `steps`, `operands` and
/// `shifts`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Program {
    steps: u32,
    operands: u32,
    shifts: u32,
    num_steps: u16,
    /// Scalars the steps leave, multiplied in pool order.
    num_scalars: u16,
}

/// One bucket of the elimination: multiply its tensors, sum out one index.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Step {
    /// Indices of the product: the first operand's, then each later
    /// operand's new ones.
    rank: u8,
    /// Bit of a product position that holds the eliminated index.
    bit: u8,
    /// Tensors in the bucket.
    operands: u16,
}

/// Where a constant of the pool starts, and its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Constant {
    start: u32,
    rank: u8,
}

/// The buffers a plan evaluates in, reused from call to call so that a warm
/// evaluation allocates nothing: every bound matrix; one arena and one
/// step-offset table per parallel chunk of programs; the programs' values.
#[derive(Debug, Default)]
pub struct PlanScratch {
    inputs: Vec<Complex64>,
    arena: Vec<Complex64>,
    offsets: Vec<u32>,
    correlators: Vec<f64>,
}

fn narrow(value: usize, what: &'static str) -> Result<u16, TensorNetError> {
    u16::try_from(value).map_err(|_| TensorNetError::PlanTooLarge { what, count: value })
}

fn offset(value: usize) -> Result<u32, TensorNetError> {
    u32::try_from(value).map_err(|_| TensorNetError::PlanTooLarge {
        what: "table entries",
        count: value,
    })
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
            offset: 0,
        })
    }

    /// Identity of the matrix: gate, slot (or none) and the angle's bits.
    fn key(&self) -> (Gate, Option<u16>, u64) {
        match self.angle {
            Angle::Fixed(theta) => (self.gate, None, theta.to_bits()),
            Angle::Slot { slot, multiplier } => (self.gate, Some(slot), multiplier.to_bits()),
        }
    }

    /// What of the matrix reaches a plan's structure: its arity and shape,
    /// and its angle — a fixed one with its gate, since folded constants
    /// hold its entries; a parameterized one by slot and multiplier only.
    fn structure_key(&self) -> MatrixKey {
        let (gate, slot, bits) = self.key();
        let fixed = slot.is_none().then_some(gate);
        (gate.arity(), self.diagonal, fixed, slot, bits)
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

    /// Append this gate's matrix at `theta` (the diagonal of a diagonal
    /// one), then its conjugate, to `inputs`; `false` when the matrix is
    /// diagonal where the programs' networks do not attach it to existing
    /// indices, or the reverse.
    fn bind(&self, theta: f64, inputs: &mut Vec<Complex64>) -> bool {
        let matrix = GateMatrix::of(self.gate, theta);
        let (dim, data) = (matrix.dim(), matrix.data());
        // `GateMatrix::diagonal`'s test, without its allocation.
        let off_diagonal = (0..dim * dim).any(|k| k % (dim + 1) != 0 && data[k].norm() > 1e-12);
        let start = inputs.len();
        if self.diagonal {
            inputs.extend((0..dim).map(|r| data[r * (dim + 1)]));
        } else {
            inputs.extend_from_slice(data);
        }
        for k in start..inputs.len() {
            let conjugate = inputs[k].conj();
            inputs.push(conjugate);
        }
        off_diagonal != self.diagonal
    }
}

/// Interns the distinct matrices of a template while the plan is built.
#[derive(Default)]
struct MatrixTable {
    ids: HashMap<(Gate, Option<u16>, u64), u16>,
    /// Entries of the bound inputs so far.
    inputs_len: usize,
}

impl MatrixTable {
    fn intern(
        &mut self,
        specs: &mut Vec<MatrixSpec>,
        inst: &Instruction,
        params: &[impl AsRef<str>],
    ) -> Result<u16, TensorNetError> {
        let mut spec = MatrixSpec::of(inst, params)?;
        if let Some(&id) = self.ids.get(&spec.key()) {
            return Ok(id);
        }
        // A gate's operand word is `id << 1 | conjugate`, below the
        // constants'.
        let id = u16::try_from(specs.len())
            .ok()
            .filter(|&id| id < CONSTANT >> 1)
            .ok_or(TensorNetError::PlanTooLarge {
                what: "distinct gate matrices",
                count: specs.len(),
            })?;
        spec.offset = offset(self.inputs_len)?;
        self.inputs_len += 2 << spec.rank();
        self.ids.insert(spec.key(), id);
        specs.push(spec);
        Ok(id)
    }

    /// `[matrix, qubit, second qubit]` for every instruction of `circuit`,
    /// its matrices interned into `specs`.
    fn rows(
        &mut self,
        specs: &mut Vec<MatrixSpec>,
        circuit: &Circuit,
        params: &[impl AsRef<str>],
    ) -> Result<Vec<[u16; 3]>, TensorNetError> {
        circuit
            .instructions()
            .iter()
            .map(|inst| {
                let second = inst.qubits.get(1).copied().unwrap_or(0);
                Ok([
                    self.intern(specs, inst, params)?,
                    narrow(inst.qubits[0], "qubits")?,
                    narrow(second, "qubits")?,
                ])
            })
            .collect()
    }
}

/// The network of one reduced circuit while a program is compiled from it.
struct Layout {
    /// Per tensor in network order, without the observables: its operand
    /// word and rank. Their index lists are back to back in `indices`.
    tensors: Vec<(u16, u8)>,
    indices: Vec<u16>,
    /// Tensors before the observables (ket caps and ket gates).
    ket_tensors: usize,
    /// The final ket index of every qubit, where observables attach.
    outputs: Vec<u16>,
}

impl Layout {
    fn of(
        circuit: &Circuit,
        rows: &[[u16; 3]],
        matrices: &[MatrixSpec],
    ) -> Result<Layout, TensorNetError> {
        let mut tensors = Vec::new();
        let mut indices = Vec::new();
        let mut ket_tensors = 0;
        let mut outputs = Vec::new();
        // Observing every qubit reports each one's final ket index and marks
        // the ket/bra boundary.
        let num_indices = expectation_layout(
            circuit,
            &|i| matrices[usize::from(rows[i][0])].diagonal,
            0..circuit.num_qubits(),
            &mut |source, tensor_indices| {
                let word = match source {
                    TensorSource::Observable(_) => {
                        outputs.push(tensor_indices[0]);
                        ket_tensors = tensors.len();
                        return;
                    }
                    TensorSource::Cap => CAP,
                    TensorSource::Gate {
                        instruction,
                        conjugate,
                    } => rows[instruction][0] << 1 | u16::from(conjugate),
                };
                // A gate tensor has at most four indices.
                tensors.push((word, tensor_indices.len() as u8));
                indices.extend_from_slice(tensor_indices);
            },
        );
        narrow(num_indices, "indices")?;
        // Checked above: every index is below `num_indices`.
        let compact = |list: &[usize]| list.iter().map(|&i| i as u16).collect();
        Ok(Layout {
            indices: compact(&indices),
            outputs: compact(&outputs),
            tensors,
            ket_tensors,
        })
    }

    /// The elimination order `TensorNetwork::best_order` gives the network
    /// of any term on this reduced circuit: the observables are rank-1
    /// tensors on indices the ket side already carries, so they add neither
    /// a vertex nor an edge.
    fn best_order(&self) -> Vec<u16> {
        let mut start = 0;
        let lists = self.tensors.iter().map(|&(_, rank)| {
            start += usize::from(rank);
            &self.indices[start - usize::from(rank)..start]
        });
        let order = InteractionGraph::from_tensor_indices(lists).best_order();
        // The same indices, which `Layout::of` checked fit.
        order.order.iter().map(|&i| i as u16).collect()
    }
}

/// A tensor alive in the replayed pool: its operand word and index list (a
/// run of [`Replay::indices`]).
#[derive(Debug, Clone, Copy)]
struct Live {
    word: u16,
    rank: u16,
    start: u32,
}

impl Live {
    fn indices<'a>(&self, indices: &'a [u16]) -> &'a [u16] {
        &indices[self.start as usize..][..usize::from(self.rank)]
    }
}

/// Buffers of the compile-time replay, reused across the plan's programs.
#[derive(Default)]
struct Replay {
    pool: Vec<Live>,
    bucket: Vec<Live>,
    rest: Vec<Live>,
    indices: Vec<u16>,
    product: Vec<u16>,
    /// The operand words and shifts of the bucket being compiled.
    words: Vec<u16>,
    shifts: Vec<u8>,
    /// Every matrix of the template at its fixed angle (a parameterized one
    /// at `0`, which no folded bucket reads), laid out as an evaluation
    /// binds them.
    inputs: Vec<Complex64>,
    /// Product and result of a folded bucket.
    values: Vec<Complex64>,
    /// The pool's constant words by the bits of their entries.
    constants: HashMap<Vec<u64>, u16>,
    key: Vec<u64>,
}

impl Replay {
    /// Append a tensor to the pool. Ranks are at most the width limit, and
    /// a contraction's lists (four indices per tensor at most, then one
    /// product per index of the network) stay far below `2^32` entries.
    fn push(
        pool: &mut Vec<Live>,
        indices: &mut Vec<u16>,
        word: u16,
        own: impl Iterator<Item = u16>,
    ) {
        let start = indices.len() as u32;
        indices.extend(own);
        pool.push(Live {
            word,
            rank: (indices.len() - start as usize) as u16,
            start,
        });
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
    ///
    /// The plan's structure is its own; [`ExpectationPlan::build_with`]
    /// shares it.
    pub fn build(
        template: &Circuit,
        problem: &Problem,
        params: &[impl AsRef<str>],
    ) -> Result<ExpectationPlan, TensorNetError> {
        Self::build_with(template, problem, params, &PlanInterner::default())
    }

    /// [`build`](Self::build), taking the structure from (and adding it to)
    /// `interner`: plans built through one interner whose templates differ
    /// only in which parameterized gate sits at a position share it.
    /// `problem` must be the one problem every plan of `interner` is built
    /// for.
    pub fn build_with(
        template: &Circuit,
        problem: &Problem,
        params: &[impl AsRef<str>],
        interner: &PlanInterner,
    ) -> Result<ExpectationPlan, TensorNetError> {
        let mut table = MatrixTable::default();
        let mut matrices = Vec::new();
        let rows = table.rows(&mut matrices, template, params)?;
        let key = StructureKey {
            num_qubits: template.num_qubits(),
            num_params: params.len(),
            matrices: matrices.iter().map(MatrixSpec::structure_key).collect(),
            template: rows,
        };
        let structure = interner.get_or_build(key, |rows| {
            PlanStructure::build(template, problem, params, rows, &mut table, &mut matrices)
        })?;
        matrices.shrink_to_fit();
        Ok(ExpectationPlan {
            structure,
            matrices,
        })
    }

    /// Whether `self` and `other` run one shared structure.
    #[doc(hidden)]
    pub fn shares_structure_with(&self, other: &ExpectationPlan) -> bool {
        Arc::ptr_eq(&self.structure, &other.structure)
    }
}

impl PlanStructure {
    /// Compile the structure of the plan of `problem` on `template`, whose
    /// rows and matrices `table` has interned into `rows` and `matrices`.
    fn build(
        template: &Circuit,
        problem: &Problem,
        params: &[impl AsRef<str>],
        rows: &[[u16; 3]],
        table: &mut MatrixTable,
        matrices: &mut Vec<MatrixSpec>,
    ) -> Result<PlanStructure, TensorNetError> {
        // Program ids are below the term count.
        if problem.terms().len() >= EMPTY_PRODUCT as usize {
            return Err(TensorNetError::PlanTooLarge {
                what: "cost terms",
                count: problem.terms().len(),
            });
        }
        let mut plan = PlanStructure {
            num_qubits: template.num_qubits(),
            num_params: params.len(),
            template: rows.to_vec(),
            terms: Vec::with_capacity(problem.terms().len()),
            programs: Vec::new(),
            steps: Vec::new(),
            operands: Vec::new(),
            shifts: Vec::new(),
            constants: Vec::new(),
            constant_runs: Vec::new(),
            product_len: 0,
            results_len: 0,
            max_steps: 0,
            skeletons: 0,
        };
        // Per distinct reduced circuit (a skeleton), its elimination order.
        let mut orders: Vec<Vec<u16>> = Vec::new();
        let mut skeleton_ids: HashMap<(usize, Vec<[u16; 3]>), usize> = HashMap::new();
        let mut program_ids: HashMap<(usize, Vec<u16>), u32> = HashMap::new();
        let mut replay = Replay::default();
        // A cone's gates are the template's, so every matrix is interned by
        // now: bind the fixed ones for the buckets the replay folds.
        for spec in matrices.iter() {
            let theta = match spec.angle {
                Angle::Fixed(theta) => theta,
                Angle::Slot { .. } => 0.0,
            };
            spec.bind(theta, &mut replay.inputs);
        }
        for (word, data) in [(CAP, CAP_DATA), (OBSERVABLE, OBSERVABLE_DATA)] {
            let interned = plan.constant(&data, &mut replay.constants, &mut replay.key)?;
            debug_assert_eq!(interned, word);
        }

        for term in problem.terms() {
            if term.qubits().is_empty() {
                plan.terms.push(EMPTY_PRODUCT);
                continue;
            }
            let cone = LightCone::of(template, term.qubits());
            // A reduced circuit is its width and its rows.
            let key = (cone.width(), table.rows(matrices, &cone.circuit, params)?);
            let (skeleton, mut layout) = match skeleton_ids.get(&key) {
                Some(&id) => (id, None),
                None => {
                    let layout = Layout::of(&cone.circuit, &key.1, matrices)?;
                    orders.push(layout.best_order());
                    skeleton_ids.insert(key, orders.len() - 1);
                    (orders.len() - 1, Some(layout))
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
            let id = match program_ids.entry((skeleton, observables)) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    // The network of a skeleton seen before: laid out again
                    // (cheap, unlike its order) rather than kept.
                    let layout = match layout.take() {
                        Some(layout) => layout,
                        None => {
                            let rows = table.rows(matrices, &cone.circuit, params)?;
                            Layout::of(&cone.circuit, &rows, matrices)?
                        }
                    };
                    let observables = &e.key().1;
                    let program = plan.compile(
                        &layout,
                        &orders[skeleton],
                        observables,
                        matrices,
                        &mut replay,
                    )?;
                    plan.programs.push(program);
                    *e.insert(plan.programs.len() as u32 - 1)
                }
            };
            plan.terms.push(id);
        }

        plan.skeletons = orders.len();
        plan.programs.shrink_to_fit();
        plan.steps.shrink_to_fit();
        plan.operands.shrink_to_fit();
        plan.shifts.shrink_to_fit();
        plan.constants.shrink_to_fit();
        plan.constant_runs.shrink_to_fit();
        Ok(plan)
    }

    /// The word of the constant with `data`'s entries, added to the pool if
    /// no constant has their bits.
    fn constant(
        &mut self,
        data: &[Complex64],
        words: &mut HashMap<Vec<u64>, u16>,
        key: &mut Vec<u64>,
    ) -> Result<u16, TensorNetError> {
        key.clear();
        key.extend(data.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]));
        if let Some(&word) = words.get(key.as_slice()) {
            return Ok(word);
        }
        let c = self.constant_runs.len();
        let word = u16::try_from(c).ok().filter(|&c| c < CONSTANT).ok_or(
            TensorNetError::PlanTooLarge {
                what: "distinct constants",
                count: c,
            },
        )?;
        self.constant_runs.push(Constant {
            start: offset(self.constants.len())?,
            // A tensor's entries are a power of two, at most 2^26.
            rank: data.len().trailing_zeros() as u8,
        });
        self.constants.extend_from_slice(data);
        words.insert(key.clone(), CONSTANT | word);
        Ok(CONSTANT | word)
    }

    /// Compile one contraction: replay `contract_with_order` under `order`
    /// on the index lists of the network of `layout` with `observables`
    /// attached after its ket side, and append what every bucket multiplies
    /// and sums — or, for a parameter-free bucket, contract it now and pool
    /// its result.
    ///
    /// Fails with [`TensorNetError::WidthLimitExceeded`] where the
    /// contraction would: at the first product wider than
    /// [`DEFAULT_WIDTH_LIMIT`].
    fn compile(
        &mut self,
        layout: &Layout,
        order: &[u16],
        observables: &[u16],
        matrices: &[MatrixSpec],
        replay: &mut Replay,
    ) -> Result<Program, TensorNetError> {
        let Replay {
            pool,
            bucket,
            rest,
            indices,
            product,
            words,
            shifts,
            inputs,
            values,
            constants,
            key,
        } = replay;
        pool.clear();
        indices.clear();
        let mut start = 0;
        for (position, &(word, rank)) in layout.tensors.iter().enumerate() {
            if position == layout.ket_tensors {
                for &q in observables {
                    let output = layout.outputs[usize::from(q)];
                    Replay::push(pool, indices, OBSERVABLE, [output].into_iter());
                }
            }
            let own = &layout.indices[start..][..usize::from(rank)];
            Replay::push(pool, indices, word, own.iter().copied());
            start += own.len();
        }

        let program = Program {
            steps: offset(self.steps.len())?,
            operands: offset(self.operands.len())?,
            shifts: offset(self.shifts.len())?,
            num_steps: 0,
            num_scalars: 0,
        };
        let mut num_steps = 0;
        let mut results = 0;
        for &index in order {
            // Pull out every tensor carrying this index, keeping pool order.
            bucket.clear();
            rest.clear();
            for &live in pool.iter() {
                if live.indices(indices).contains(&index) {
                    bucket.push(live);
                } else {
                    rest.push(live);
                }
            }
            std::mem::swap(pool, rest);
            if bucket.is_empty() {
                continue;
            }

            // The product's indices, as pairwise `Tensor::multiply` orders
            // them.
            product.clear();
            for live in bucket.iter() {
                for &i in live.indices(indices) {
                    if !product.contains(&i) {
                        product.push(i);
                    }
                }
            }
            let rank = product.len();
            if rank > DEFAULT_WIDTH_LIMIT {
                return Err(TensorNetError::WidthLimitExceeded {
                    width: rank,
                    limit: DEFAULT_WIDTH_LIMIT,
                });
            }
            // The first index is the most significant bit.
            let bit_of = |i: u16| {
                let position = product.iter().position(|&p| p == i);
                (rank - 1 - position.expect("index is in the product")) as u8
            };
            let step = Step {
                rank: rank as u8,
                bit: bit_of(index),
                operands: narrow(bucket.len(), "tensors of one bucket")?,
            };
            words.clear();
            shifts.clear();
            for (k, live) in bucket.iter().enumerate() {
                words.push(live.word);
                if k > 0 {
                    let own = live.indices(indices);
                    shifts.extend(own.iter().map(|&i| bit_of(i)));
                }
            }

            let word = if words.iter().all(|&w| is_parameter_free(w, matrices)) {
                values.resize(3 << (rank - 1), Complex64::default());
                let (scratch, out) = values.split_at_mut(1 << rank);
                let operand = |w: u16| self.operand(w, matrices, inputs, &[], &[], &[]);
                contract_bucket(step, words, &mut &shifts[..], operand, scratch, out);
                self.constant(out, constants, key)?
            } else {
                self.steps.push(step);
                self.operands.extend_from_slice(words);
                self.shifts.extend_from_slice(shifts);
                let word = u16::try_from(num_steps).ok().filter(|&s| s < STEP).ok_or(
                    TensorNetError::PlanTooLarge {
                        what: "steps of one contraction",
                        count: num_steps,
                    },
                )?;
                self.product_len = self.product_len.max(1 << rank);
                results += 1 << (rank - 1);
                num_steps += 1;
                STEP | word
            };
            // The sum over the index goes to the back of the pool.
            let summed = product.iter().copied().filter(|&i| i != index);
            Replay::push(pool, indices, word, summed);
        }

        // Everything left must be scalar.
        for live in pool.iter() {
            if live.rank != 0 {
                return Err(TensorNetError::OpenIndicesRemain {
                    count: usize::from(live.rank),
                });
            }
            self.operands.push(live.word);
        }
        // An evaluation addresses step results by `u32` offsets.
        offset(results)?;
        self.max_steps = self.max_steps.max(num_steps);
        self.results_len = self.results_len.max(results);
        Ok(Program {
            num_steps: narrow(num_steps, "steps of one contraction")?,
            num_scalars: narrow(pool.len(), "scalars of one contraction")?,
            ..program
        })
    }

    /// Complex entries one program runs in.
    fn arena_len(&self) -> usize {
        self.product_len + self.results_len
    }

    /// Heap bytes of the structure, itself included.
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<PlanStructure>()
            + self.template.capacity() * size_of::<[u16; 3]>()
            + self.terms.capacity() * size_of::<u32>()
            + self.programs.capacity() * size_of::<Program>()
            + self.steps.capacity() * size_of::<Step>()
            + self.operands.capacity() * size_of::<u16>()
            + self.shifts.capacity()
            + self.constants.capacity() * size_of::<Complex64>()
            + self.constant_runs.capacity() * size_of::<Constant>()
    }

    /// `⟨Π Z⟩` of one program and the entries it multiplied: every step into
    /// the arena in turn, then the product of the scalars left in the pool,
    /// from `1 + 0i` in pool order.
    fn run(
        &self,
        program: &Program,
        matrices: &[MatrixSpec],
        inputs: &[Complex64],
        arena: &mut [Complex64],
        offsets: &mut [u32],
    ) -> (f64, usize) {
        let (product, results) = arena.split_at_mut(self.product_len);
        let steps = &self.steps[program.steps as usize..][..usize::from(program.num_steps)];
        let mut words = &self.operands[program.operands as usize..];
        let mut shifts = &self.shifts[program.shifts as usize..];
        let (mut end, mut multiplied) = (0, 0);
        for (s, &step) in steps.iter().enumerate() {
            let (bucket, rest) = words.split_at(usize::from(step.operands));
            words = rest;
            offsets[s] = end as u32;
            let (earlier, out) = results.split_at_mut(end);
            end += 1usize << (step.rank - 1);
            let operand = |word: u16| self.operand(word, matrices, inputs, earlier, offsets, steps);
            multiplied += contract_bucket(step, bucket, &mut shifts, operand, product, out);
        }
        let mut value = Complex64::new(1.0, 0.0);
        for &word in &words[..usize::from(program.num_scalars)] {
            value *= self
                .operand(word, matrices, inputs, results, offsets, steps)
                .0[0];
        }
        (value.re, multiplied)
    }

    /// The data and rank of one operand: a constant, a bound matrix, or
    /// what an earlier step of the same program left.
    #[inline]
    fn operand<'a>(
        &'a self,
        word: u16,
        matrices: &[MatrixSpec],
        inputs: &'a [Complex64],
        earlier: &'a [Complex64],
        offsets: &[u32],
        steps: &[Step],
    ) -> (&'a [Complex64], usize) {
        let (data, start, rank) = if word & STEP != 0 {
            let s = usize::from(word & !STEP);
            (earlier, offsets[s] as usize, usize::from(steps[s].rank) - 1)
        } else if word & CONSTANT != 0 {
            let c = self.constant_runs[usize::from(word & !CONSTANT)];
            (&self.constants[..], c.start as usize, usize::from(c.rank))
        } else {
            let spec = &matrices[usize::from(word >> 1)];
            let rank = spec.rank();
            let start = spec.offset as usize + (usize::from(word & 1) << rank);
            (inputs, start, rank)
        };
        (&data[start..][..1 << rank], rank)
    }
}

impl ExpectationPlan {
    /// Number of distinct networks contracted per evaluation (at most one per
    /// cost term).
    pub fn num_contractions(&self) -> usize {
        self.structure.programs.len()
    }

    /// Number of distinct reduced circuits the contractions were compiled
    /// from (at most one per contraction).
    pub fn num_skeletons(&self) -> usize {
        self.structure.skeletons
    }

    /// Heap bytes the plan reads: its matrix table and its structure. Plans
    /// sharing a structure each count it.
    pub fn heap_bytes(&self) -> usize {
        self.matrices.capacity() * std::mem::size_of::<MatrixSpec>() + self.structure.heap_bytes()
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
        self.expectation_in(problem, values, &mut PlanScratch::default())
    }

    /// [`ExpectationPlan::expectation`] in caller-owned buffers: once they
    /// have grown to this plan's size, a one-thread pool runs the programs
    /// inline and allocates nothing, a wider one only what Rayon's drivers
    /// do.
    pub fn expectation_in(
        &self,
        problem: &Problem,
        values: &[f64],
        scratch: &mut PlanScratch,
    ) -> Result<f64, TensorNetError> {
        if !self.correlators(problem, values, scratch)? {
            return lightcone::problem_expectation(&self.bind_template(values), problem);
        }
        let correlators = &scratch.correlators;
        let contributions = problem
            .terms()
            .iter()
            .zip(&self.structure.terms)
            .map(|(t, &id)| t.offset() + t.coeff() * correlator(correlators, id));
        Ok(problem.constant() + contributions.sum::<f64>())
    }

    /// `⟨Π Z⟩` of every program at `values`, into `scratch.correlators`;
    /// `false` when the angles change the shape of the network.
    fn correlators(
        &self,
        problem: &Problem,
        values: &[f64],
        scratch: &mut PlanScratch,
    ) -> Result<bool, TensorNetError> {
        let structure = &*self.structure;
        if values.len() != structure.num_params || problem.terms().len() != structure.terms.len() {
            return Err(TensorNetError::PlanMismatch {
                params: structure.num_params,
                terms: structure.terms.len(),
                got_params: values.len(),
                got_terms: problem.terms().len(),
            });
        }
        let PlanScratch {
            inputs,
            arena,
            offsets,
            correlators,
        } = scratch;
        if !self.bind_inputs(values, inputs) {
            return Ok(false);
        }
        let count = structure.programs.len();
        correlators.clear();
        correlators.resize(count, 0.0);
        if count == 0 {
            return Ok(true);
        }
        // One arena per chunk of consecutive programs, one chunk per worker.
        let workers = rayon::current_num_threads().clamp(1, count);
        let chunk = count.div_ceil(workers);
        let chunks = count.div_ceil(chunk);
        // Nonzero even when every program folded to a constant.
        let (arena_len, max_steps) = (structure.arena_len().max(1), structure.max_steps.max(1));
        arena.resize(chunks * arena_len, Complex64::default());
        offsets.resize(chunks * max_steps, 0);
        let inputs = &inputs[..];
        let run_chunk =
            |k: usize, out: &mut [f64], arena: &mut [Complex64], offsets: &mut [u32]| {
                for (value, program) in out.iter_mut().zip(&structure.programs[k * chunk..]) {
                    *value = structure
                        .run(program, &self.matrices, inputs, arena, offsets)
                        .0;
                }
            };
        if chunks == 1 {
            run_chunk(0, correlators, arena, offsets);
        } else {
            correlators
                .par_chunks_mut(chunk)
                .zip(arena.par_chunks_mut(arena_len))
                .zip(offsets.par_chunks_mut(max_steps))
                .enumerate()
                .for_each(|(k, ((out, arena), offsets))| run_chunk(k, out, arena, offsets));
        }
        Ok(true)
    }

    /// Write every distinct gate matrix at `values` into `inputs`; `false`
    /// when one of them is diagonal where the programs' networks do not
    /// attach it to existing indices, or the reverse.
    fn bind_inputs(&self, values: &[f64], inputs: &mut Vec<Complex64>) -> bool {
        inputs.clear();
        self.matrices
            .iter()
            .all(|spec| spec.bind(spec.theta(values), inputs))
    }

    /// The template with every parameter bound, as `Circuit::bind` builds it.
    fn bind_template(&self, values: &[f64]) -> Circuit {
        let mut circuit = Circuit::new(self.structure.num_qubits);
        for &[matrix, first, second] in &self.structure.template {
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
}

/// Contract one bucket into the front of `out`, as `contract_with_order`
/// does: its operands multiplied pairwise, each partial product over the
/// leading product bits its operands carry (in `product`, widened in place
/// when an operand brings new indices), the last operand straight into the
/// sum over the eliminated bit, positions ascending from `0 + 0i`. Takes the
/// shifts of the operands after the first off the front of `shifts`;
/// returns the entries multiplied.
fn contract_bucket<'a>(
    step: Step,
    words: &[u16],
    shifts: &mut &[u8],
    operand: impl Fn(u16) -> (&'a [Complex64], usize),
    product: &mut [Complex64],
    out: &mut [Complex64],
) -> usize {
    let rank = usize::from(step.rank);
    let out = &mut out[..1 << (rank - 1)];
    out.fill(Complex64::new(0.0, 0.0));
    // `pos` without the eliminated bit: where `sum_over` adds it.
    let low = (1usize << step.bit) - 1;
    let summed = |pos: usize| ((pos >> 1) & !low) | (pos & low);
    let mut take = |count: usize| {
        let (own, later) = (*shifts).split_at(count);
        *shifts = later;
        own
    };

    let (first, mut partial) = operand(words[0]);
    let Some((&last, middle)) = words[1..].split_last() else {
        // A bucket of one: the product is the tensor itself.
        for (pos, &value) in first.iter().enumerate() {
            out[summed(pos)] += value;
        }
        return 0;
    };
    let (mut multiplied, mut delta) = (0, [0; DELTAS]);
    let prefix = if middle.is_empty() {
        first
    } else {
        product[..first.len()].copy_from_slice(first);
        for &word in middle {
            let (data, own) = operand(word);
            let own = take(own);
            // New indices take the next bits down.
            let widened = own
                .iter()
                .map(|&s| rank - usize::from(s))
                .fold(partial, usize::max);
            deltas(&mut delta, own, rank);
            let delta = &delta[rank - widened..];
            let (grow, top) = (widened - partial, (1usize << widened) - 1);
            // Top down, so that entry `q >> grow` is read before it is
            // overwritten; at the top position every index bit is set.
            let mut entry = data.len() - 1;
            product[top] = product[top >> grow] * data[entry];
            for q in (0..top).rev() {
                entry = entry.wrapping_sub(delta[(q + 1).trailing_zeros() as usize]);
                product[q] = product[q >> grow] * data[entry];
            }
            multiplied += top + 1;
            partial = widened;
        }
        &product[..1 << partial]
    };
    let (data, own) = operand(last);
    deltas(&mut delta, take(own), rank);
    let grow = rank - partial;
    let mut entry = 0usize;
    for pos in 0..1usize << rank {
        out[summed(pos)] += prefix[pos >> grow] * data[entry];
        entry = entry.wrapping_add(delta[pos.trailing_ones() as usize]);
    }
    multiplied + (1 << rank)
}

/// Write into `delta[..=rank]` how the entry of an operand whose indices
/// sit at bits `own` of a product of `rank` bits changes when a position
/// counts up past `t` trailing ones — bit `t` set, the `t` below cleared:
/// entry `t`, in wrapping arithmetic. The first index is the entry's most
/// significant bit. No operand has an index under a partial product's
/// lowest bit, so the table from that bit up serves the partial product.
fn deltas(delta: &mut [usize; DELTAS], own: &[u8], rank: usize) {
    let delta = &mut delta[..=rank];
    delta.fill(0);
    for (j, &shift) in own.iter().enumerate() {
        delta[usize::from(shift)] = 1 << (own.len() - 1 - j);
    }
    let mut cleared = 0usize;
    for d in delta {
        let set = *d;
        *d = set.wrapping_sub(cleared);
        cleared += set;
    }
}

/// Whether `word` is the same tensor at every evaluation: a constant or a
/// matrix of a fixed angle.
fn is_parameter_free(word: u16, matrices: &[MatrixSpec]) -> bool {
    word & STEP == 0
        && (word & CONSTANT != 0
            || matches!(matrices[usize::from(word >> 1)].angle, Angle::Fixed(_)))
}

fn correlator(correlators: &[f64], id: u32) -> f64 {
    if id == EMPTY_PRODUCT {
        1.0
    } else {
        correlators[id as usize]
    }
}

#[cfg(test)]
impl ExpectationPlan {
    /// Per cost term `⟨Π Z⟩` as its program computes it at `values` and the
    /// entries the program multiplied (`None` for a term without qubits);
    /// `None` when the angles change the network shape and no program runs.
    pub(crate) fn term_correlators(&self, values: &[f64]) -> Option<Vec<Option<(f64, usize)>>> {
        let mut scratch = PlanScratch::default();
        if !self.bind_inputs(values, &mut scratch.inputs) {
            return None;
        }
        let structure = &*self.structure;
        let mut arena = vec![Complex64::default(); structure.arena_len()];
        let mut offsets = vec![0; structure.max_steps];
        let terms = structure.terms.iter().map(|&id| {
            (id != EMPTY_PRODUCT).then(|| {
                let program = &structure.programs[id as usize];
                structure.run(
                    program,
                    &self.matrices,
                    &scratch.inputs,
                    &mut arena,
                    &mut offsets,
                )
            })
        });
        Some(terms.collect())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::contraction::contract_with_order;
    use crate::network::TensorNetwork;
    use graphs::Graph;

    const PARAMS: [&str; 2] = ["gamma_0", "beta_0"];

    /// A depth-`p` QAOA template for `problem` on `graph`'s register: H
    /// layer, then per layer `RZZ(-2γ_k)` per edge, `RZ(-4cγ_k)` per
    /// locality-1 term and `mixer(2β_k)` gate by gate over every qubit.
    pub(crate) fn qaoa_template(
        graph: &Graph,
        problem: &Problem,
        mixer: &[Gate],
        p: usize,
    ) -> Circuit {
        let mixer: Vec<(Gate, Option<f64>)> = mixer.iter().map(|&g| (g, None)).collect();
        qaoa_template_with(graph, problem, &mixer, p)
    }

    /// [`qaoa_template`] whose mixer gates `(gate, Some(θ))` carry the bound
    /// angle `θ` instead of `2β_k`.
    pub(crate) fn qaoa_template_with(
        graph: &Graph,
        problem: &Problem,
        mixer: &[(Gate, Option<f64>)],
        p: usize,
    ) -> Circuit {
        let mut c = Circuit::new(graph.num_nodes());
        c.h_layer();
        for k in 0..p {
            let gamma = format!("gamma_{k}");
            for e in graph.edges() {
                c.push(Gate::RZZ, &[e.u, e.v], Parameter::free(&gamma, -2.0));
            }
            for t in problem.terms().iter().filter(|t| t.locality() == 1) {
                c.push(
                    Gate::RZ,
                    t.qubits(),
                    Parameter::free(&gamma, -4.0 * t.coeff()),
                );
            }
            for &(gate, bound) in mixer {
                for q in 0..graph.num_nodes() {
                    let parameter = match bound {
                        Some(theta) => Parameter::bound(theta),
                        None if gate.is_parameterized() => {
                            Parameter::free(format!("beta_{k}"), 2.0)
                        }
                        None => Parameter::None,
                    };
                    c.push(gate, &[q], parameter);
                }
            }
        }
        c
    }

    /// The flat `[γ…, β…]` parameter names of a depth-`p` template.
    pub(crate) fn qaoa_params(p: usize) -> Vec<String> {
        (0..p)
            .map(|k| format!("gamma_{k}"))
            .chain((0..p).map(|k| format!("beta_{k}")))
            .collect()
    }

    fn template(graph: &Graph, mixer: &[Gate]) -> Circuit {
        qaoa_template(graph, &Problem::max_cut(graph), mixer, 1)
    }

    pub(crate) fn bind(template: &Circuit, values: &[f64]) -> Circuit {
        let names = qaoa_params(values.len() / 2);
        let bindings: Vec<(&str, f64)> = names
            .iter()
            .map(String::as_str)
            .zip(values.iter().copied())
            .collect();
        template.bind(&bindings).unwrap()
    }

    /// The network the bind-per-call path contracts for `⟨Π Z⟩` over
    /// `qubits`: `for_diagonal_expectation` on their cone of the bound
    /// circuit.
    pub(crate) fn term_network(circuit: &Circuit, qubits: &[usize]) -> TensorNetwork {
        let cone = LightCone::of(circuit, qubits);
        let observables: Vec<(usize, [f64; 2])> = qubits
            .iter()
            .map(|&q| (cone.relabelled(q).unwrap(), [1.0, -1.0]))
            .collect();
        TensorNetwork::for_diagonal_expectation(&cone.circuit, &observables).unwrap()
    }

    /// `⟨Π Z⟩` of one term the bind-per-call way: [`term_network`],
    /// `contract_with_order` under `best_order`.
    pub(crate) fn per_call_correlator(
        circuit: &Circuit,
        qubits: &[usize],
    ) -> (f64, crate::contraction::ContractionStats) {
        let net = term_network(circuit, qubits);
        let (value, stats) = contract_with_order(
            net.tensors().to_vec(),
            &net.best_order(),
            DEFAULT_WIDTH_LIMIT,
        )
        .unwrap();
        (value.re, stats)
    }

    fn assert_matches_per_call(template: &Circuit, problem: &Problem, values: &[f64]) {
        let plan = ExpectationPlan::build(template, problem, &PARAMS).unwrap();
        let want = lightcone::problem_expectation(&bind(template, values), problem).unwrap();
        assert_eq!(
            plan.expectation(problem, values).unwrap().to_bits(),
            want.to_bits(),
            "at {values:?}"
        );
    }

    /// One bucket `contract_with_order` contracts.
    struct Bucket {
        operands: usize,
        rank: usize,
        /// Entries of each product pairwise `Tensor::multiply` forms.
        products: Vec<usize>,
        /// Whether every operand is parameter-free: an input tensor with the
        /// same entries at other angles, or such a bucket's result.
        parameter_free: bool,
    }

    /// The buckets of `contract_with_order` on [`term_network`] of `qubits`
    /// in `circuit` under `best_order`, told apart by `other`: the same
    /// template bound at other generic angles.
    fn per_call_buckets(circuit: &Circuit, other: &Circuit, qubits: &[usize]) -> Vec<Bucket> {
        let net = term_network(circuit, qubits);
        let moved = term_network(other, qubits);
        let mut pool: Vec<(crate::Tensor, bool)> = (net.tensors().iter())
            .zip(moved.tensors())
            .map(|(t, u)| (t.clone(), t == u))
            .collect();
        let mut buckets = Vec::new();
        for &index in &net.best_order().order {
            let (bucket, rest): (Vec<_>, Vec<_>) =
                pool.into_iter().partition(|(t, _)| t.has_index(index));
            pool = rest;
            let Some(((first, _), later)) = bucket.split_first() else {
                continue;
            };
            let mut product = first.clone();
            let mut products = Vec::new();
            for (t, _) in later {
                product = product.multiply(t);
                products.push(product.data().len());
            }
            let parameter_free = bucket.iter().all(|&(_, free)| free);
            buckets.push(Bucket {
                operands: bucket.len(),
                rank: product.rank(),
                products,
                parameter_free,
            });
            pool.push((product.sum_over(index), parameter_free));
        }
        buckets
    }

    #[test]
    fn skeletons_are_the_networks_the_per_call_path_builds() {
        let graph = Graph::random_regular(8, 3, 5).unwrap();
        let problem = Problem::max_cut(&graph);
        let template = template(&graph, &[Gate::RX, Gate::H, Gate::RZ]);
        let plan = ExpectationPlan::build(&template, &problem, &PARAMS).unwrap();
        let values = [0.4, 0.3];
        let runs = plan.term_correlators(&values).expect("generic angles");
        let circuit = bind(&template, &values);
        let other = bind(&template, &[-0.9, 0.65]);
        let mut folded_buckets = 0;
        for ((term, &id), run) in problem.terms().iter().zip(&plan.structure.terms).zip(runs) {
            let (got, multiplied) = run.unwrap();
            let (want, stats) = per_call_correlator(&circuit, term.qubits());
            let buckets = per_call_buckets(&circuit, &other, term.qubits());
            let (folded, emitted): (Vec<&Bucket>, Vec<&Bucket>) =
                buckets.iter().partition(|b| b.parameter_free);
            // Same buckets in the same order: the parameter-free ones folded,
            // one step per other eliminated index, one multiplication per
            // operand after the first, and the widest product the
            // contraction saw.
            let program = &plan.structure.programs[id as usize];
            let steps =
                &plan.structure.steps[program.steps as usize..][..usize::from(program.num_steps)];
            assert_eq!(steps.len() + folded.len(), stats.eliminated_indices);
            let multiplications: usize = (steps.iter().map(|s| usize::from(s.operands) - 1))
                .chain(folded.iter().map(|b| b.operands - 1))
                .sum();
            assert_eq!(multiplications, stats.multiplications);
            let widest = (steps.iter().map(|s| usize::from(s.rank)))
                .chain(folded.iter().map(|b| b.rank))
                .max();
            assert_eq!(widest, Some(stats.max_rank));
            assert_eq!(steps.len(), emitted.len());
            for (step, bucket) in steps.iter().zip(&emitted) {
                assert_eq!(usize::from(step.operands), bucket.operands);
                assert_eq!(usize::from(step.rank), bucket.rank);
            }
            // Same work: the kernel multiplies the entries of the products
            // pairwise `Tensor::multiply` forms, not the bucket's full rank
            // for every operand.
            let pairwise: usize = emitted.iter().flat_map(|b| &b.products).sum();
            assert_eq!(multiplied, pairwise);
            // Same products, same sums: the same bits.
            assert_eq!(got.to_bits(), want.to_bits());
            folded_buckets += folded.len();
        }
        // Every cone opens with a cap·H bucket per qubit and side.
        assert!(folded_buckets >= 2 * problem.terms().len());
    }

    #[test]
    fn a_cone_of_fixed_gates_folds_to_constants() {
        // Qubits 2 and 3 never meet a parameter: H, a bound RY, T and a
        // parameterless X. Every bucket of their terms folds at build time.
        let mut template = Circuit::new(4);
        template.h_layer();
        template.push(Gate::RZZ, &[0, 1], Parameter::free("gamma_0", -2.0));
        for q in 0..2 {
            template.push(Gate::RX, &[q], Parameter::free("beta_0", 2.0));
        }
        template.push(Gate::RY, &[2], Parameter::bound(0.7));
        template.push(Gate::T, &[2], Parameter::None);
        template.push(Gate::RY, &[3], Parameter::bound(-1.3));
        template.push(Gate::X, &[3], Parameter::None);
        let problem = |terms: &[&[usize]]| {
            let terms = (terms.iter().enumerate())
                .map(|(k, q)| graphs::CostTerm::new(q.to_vec(), 0.75 - 0.5 * k as f64))
                .collect();
            let convention = graphs::RatioConvention::default();
            Problem::from_terms("fixed qubits", 4, 0.25, terms, convention).unwrap()
        };
        let values = [0.4, -0.3];
        let circuit = bind(&template, &values);

        let mixed = problem(&[&[0, 1], &[2], &[2, 3]]);
        let plan = ExpectationPlan::build(&template, &mixed, &PARAMS).unwrap();
        let runs = plan.term_correlators(&values).unwrap();
        for (k, qubits) in [(1, &[2][..]), (2, &[2, 3][..])] {
            let program = &plan.structure.programs[plan.structure.terms[k] as usize];
            assert_eq!(program.num_steps, 0);
            // Two cones that share nothing leave one scalar each.
            assert_eq!(usize::from(program.num_scalars), qubits.len());
            let (got, multiplied) = runs[k].unwrap();
            assert_eq!(multiplied, 0);
            let (want, _) = per_call_correlator(&circuit, qubits);
            assert_eq!(got.to_bits(), want.to_bits(), "{qubits:?}");
        }
        assert_matches_per_call(&template, &mixed, &values);

        // Every program a constant: no step anywhere, on any thread count.
        let folded = problem(&[&[2], &[3], &[2, 3]]);
        let plan = ExpectationPlan::build(&template, &folded, &PARAMS).unwrap();
        assert_eq!(
            (plan.structure.arena_len(), plan.structure.max_steps),
            (0, 0)
        );
        let parallel = lightcone::problem_expectation(&circuit, &folded).unwrap();
        for threads in [1, 2, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let got = pool.install(|| plan.expectation(&folded, &values)).unwrap();
            assert_eq!(got.to_bits(), parallel.to_bits(), "{threads} threads");
        }
        assert_matches_per_call(&template, &folded, &values);
    }

    /// perfbench's `search_tn` keeps one plan per candidate and graph alive:
    /// 4-regular n = 10 graphs, p = 1, mixers of one or two `rx` / `ry`.
    #[test]
    fn plans_stay_under_9_kib_on_the_search_tn_shape() {
        let (x, y) = (Gate::RX, Gate::RY);
        let mixers: [&[Gate]; 6] = [&[x], &[y], &[x, x], &[x, y], &[y, x], &[y, y]];
        for graph in graphs::datasets::random_regular_dataset(2, 10, 4, 11) {
            let problem = Problem::max_cut(&graph);
            for mixer in mixers {
                let template = template(&graph, mixer);
                let plan = ExpectationPlan::build(&template, &problem, &PARAMS).unwrap();
                assert_eq!(plan.num_contractions(), 20);
                assert!(
                    plan.heap_bytes() < 9 * 1024,
                    "{mixer:?}: plan owns {} bytes",
                    plan.heap_bytes()
                );
                // The cap, the observable, and the |+⟩ every cap·H bucket
                // of every cone folds to, held once.
                assert_eq!(plan.structure.constant_runs.len(), 3, "{mixer:?}");
            }
        }
    }

    #[test]
    fn structures_are_shared_exactly_where_the_key_matches_and_while_a_plan_lives() {
        let graph = Graph::random_regular(8, 3, 5).unwrap();
        let problem = Problem::max_cut(&graph);
        let interner = PlanInterner::default();
        let plan = |mixer: &[(Gate, Option<f64>)], p: usize| {
            let template = qaoa_template_with(&graph, &problem, mixer, p);
            ExpectationPlan::build_with(&template, &problem, &qaoa_params(p), &interner).unwrap()
        };
        let free = |gates: &[Gate]| plan(&gates.iter().map(|&g| (g, None)).collect::<Vec<_>>(), 1);
        let (x, y) = (Gate::RX, Gate::RY);
        let rx = free(&[x]);

        // Which rotation sits at a position is the binding's business.
        let pairs: [(&[Gate], &[Gate]); 3] = [(&[x], &[y]), (&[x, x], &[y, y]), (&[x, y], &[y, x])];
        for (a, b) in pairs {
            let (a_plan, b_plan) = (free(a), free(b));
            assert!(a_plan.shares_structure_with(&b_plan), "{a:?} ≡ {b:?}");
            assert_ne!(a_plan.matrices[2].gate, b_plan.matrices[2].gate);
        }
        // More gates per qubit, a diagonal gate, another depth, another
        // fixed angle: other programs, or other folded constants.
        for other in [
            free(&[x, x]),
            free(&[Gate::RZ]),
            free(&[Gate::P]),
            plan(&[(x, None)], 2),
        ] {
            assert!(!rx.shares_structure_with(&other));
        }
        let bound = |theta: f64| plan(&[(x, Some(theta))], 1);
        let (at, again, next) = (bound(0.7), bound(0.7), bound(0.7f64.next_up()));
        assert!(at.shares_structure_with(&again));
        assert!(!at.shares_structure_with(&next));
        drop((at, again, next));

        // The interner holds structures weakly: the last plan takes its
        // structure along, the next build compiles an equal one, and the
        // keys of dead structures are swept.
        let template = qaoa_template(&graph, &problem, &[x], 1);
        let alone = ExpectationPlan::build(&template, &problem, &PARAMS).unwrap();
        assert!(!alone.shares_structure_with(&rx));
        assert_eq!(*alone.structure, *rx.structure);
        let dropped = Arc::downgrade(&rx.structure);
        drop(rx);
        assert!(dropped.upgrade().is_none());
        let rebuilt = free(&[x]);
        assert_eq!(*rebuilt.structure, *alone.structure);
        assert_eq!(interner.entries().len(), 1);
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
                let template = qaoa_template(&graph, &problem, &mixer, 1);
                for values in [[0.35, 0.2], [-1.1, 0.77]] {
                    assert_matches_per_call(&template, &problem, &values);
                }
            }
        }
    }

    #[test]
    fn angles_that_change_the_network_shape_are_rebound() {
        // RX(2·0) is the identity, which the per-call builder attaches to an
        // existing index: a network the programs do not describe.
        let graph = Graph::cycle(6);
        let problem = Problem::max_cut(&graph);
        let template = template(&graph, &[Gate::RX, Gate::RY]);
        let plan = ExpectationPlan::build(&template, &problem, &PARAMS).unwrap();
        assert!(!plan.bind_inputs(&[0.3, 0.0], &mut Vec::new()));
        assert!(plan.bind_inputs(&[0.0, 0.3], &mut Vec::new()));
        assert_eq!(
            plan.bind_template(&[0.3, 0.0]),
            bind(&template, &[0.3, 0.0])
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
        assert_eq!(plan.structure.terms.len(), 9);
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
        assert_eq!(plan.structure.terms.last(), Some(&EMPTY_PRODUCT));
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
            plan.expectation(&other, &[0.1, 0.2]),
            Err(TensorNetError::PlanMismatch { .. })
        ));
    }

    #[test]
    fn one_scratch_serves_every_plan_and_thread_count() {
        let graph = Graph::erdos_renyi(7, 0.5, 3);
        let problem = Problem::max_independent_set(&graph, 2.0);
        let mut scratch = PlanScratch::default();
        for mixer in [vec![Gate::RX, Gate::RY], vec![Gate::H], vec![Gate::P]] {
            let template = qaoa_template(&graph, &problem, &mixer, 1);
            let plan = ExpectationPlan::build(&template, &problem, &PARAMS).unwrap();
            let values = [0.35, -0.2];
            let want = lightcone::problem_expectation(&bind(&template, &values), &problem).unwrap();
            for threads in [1, 2, 3, 5] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let got = pool.install(|| plan.expectation_in(&problem, &values, &mut scratch));
                assert_eq!(got.unwrap().to_bits(), want.to_bits(), "{threads} threads");
            }
        }
    }
}
