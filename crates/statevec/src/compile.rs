//! One-time lowering of a [`Circuit`] into a flat, allocation-free op list.
//!
//! Rebinding an ansatz template and re-deriving every gate matrix on every
//! optimizer iteration dominates QAOA training time. [`CompiledProgram`]
//! does that work once:
//!
//! * free parameters become **slots** — executing the program takes a flat
//!   `&[f64]` of slot values, no `Circuit` clone, no string lookups;
//! * gates with fixed angles are lowered to their concrete matrices at
//!   compile time;
//! * maximal runs of *diagonal* gates (the entire QAOA cost layer: one
//!   `RZZ` per edge, plus any diagonal mixer gates) are fused into one
//!   [`PhaseLut`] per run: the run's distinct per-basis-state angles plus a
//!   4-byte index per amplitude. Executing the run stages `e^{i·scale·v}`
//!   for each distinct `v` (at most `|E| + 1` for Max-Cut) and makes a single
//!   lookup-and-multiply pass over the amplitudes, regardless of how many
//!   gates the run contained. LUTs are deduplicated, so the `p` cost layers
//!   of a QAOA circuit share one and only differ in the `γ_k` scale;
//! * a LUT depends on the diagonal run alone, not on the rest of the
//!   circuit, so programs compiled through one [`PhaseLutInterner`]
//!   ([`CompiledProgram::compile_with`]) share it: every candidate mixer
//!   trained on one graph reads the same cost-layer LUT, built once.
//!
//! ```
//! use qcircuit::{Circuit, Gate, Parameter};
//! use statevec::{CompiledProgram, StateVector};
//!
//! let mut c = Circuit::new(2);
//! c.h(0).h(1);
//! c.push(Gate::RZZ, &[0, 1], Parameter::free("gamma", 2.0));
//! c.push(Gate::RX, &[0], Parameter::free("beta", 2.0));
//! c.push(Gate::RX, &[1], Parameter::free("beta", 2.0));
//! let program = CompiledProgram::compile(&c).unwrap();
//! assert_eq!(program.param_names(), ["gamma", "beta"]);
//!
//! // Reuse one scratch state across evaluations — no allocation per run.
//! let mut scratch = StateVector::zero_state(2).unwrap();
//! program.execute_into(&[0.4, 0.3], &mut scratch).unwrap();
//! assert!((scratch.norm_squared() - 1.0).abs() < 1e-12);
//! ```

use crate::batch::{ExecScratch, PlaneState, StagedGate, RUN_BLOCK_AMPS};
use crate::error::SimulatorError;
use crate::state::{par_blocks, StateVector, TABLE_BLOCK};
use graphs::problem::add_term_values;
use num_complex::Complex64;
use qcircuit::{Circuit, Gate, GateMatrix, Parameter};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, Weak};

/// Hashes the one `u64` key of [`PhaseLut::from_angles`]'s dedup map, an
/// angle's bit pattern, with a 64×64→128-bit multiply folded to 64 bits:
/// the dedup hashes every one of the `2^n` entries, where SipHash costs
/// more than the fill. Both halves of the product feed the fold, so keys
/// that differ only in their top or only in their bottom bits (small
/// integers and halves have all-zero low mantissa bits) still spread.
#[derive(Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let product = u128::from(self.0 ^ key) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ (product >> 64) as u64;
    }
}

/// The per-basis-state angles of one fused diagonal run, stored as their
/// distinct values plus an index per amplitude.
///
/// A fused cost layer has `2^n` angles but typically only a handful of
/// *distinct* f64 bit patterns (a Max-Cut layer over `|E|` unit-weight edges
/// produces at most `|E| + 1` cut values). Both executors exponentiate each
/// distinct value once per pass and then stream one lookup + complex
/// multiply per amplitude, instead of a `sin`/`cos` pair per amplitude.
/// `values[index[z]]` is the angle sum of basis state `z` bit for bit, so the
/// factors are bitwise the numbers [`StateVector::apply_phase_table`]
/// computes from the dense table.
#[derive(Debug, PartialEq)]
pub struct PhaseLut {
    /// Distinct angle bit patterns, in first-appearance order.
    values: Vec<f64>,
    /// Per-basis-state index into `values` (u32: dims are ≤ 2^30).
    index: Vec<u32>,
}

impl PhaseLut {
    /// Deduplicate `angles` (one per basis state, in index order) by exact
    /// bit pattern.
    fn from_angles(angles: &[f64]) -> PhaseLut {
        let mut seen: HashMap<u64, u32, BuildHasherDefault<FoldHasher>> = HashMap::default();
        let mut values: Vec<f64> = Vec::new();
        let mut index = vec![0u32; angles.len()];
        for (slot, &theta) in index.iter_mut().zip(angles) {
            *slot = *seen.entry(theta.to_bits()).or_insert_with(|| {
                values.push(theta);
                (values.len() - 1) as u32
            });
        }
        values.shrink_to_fit();
        PhaseLut { values, index }
    }

    /// The LUT of the diagonal run `terms` on a `num_qubits`-qubit register:
    /// basis state `z`'s angle is the sum of its terms' angles, in term
    /// order, starting from `0.0`. The dense `2^n` table of sums lives only
    /// inside this call. It is filled term-outer, one [`TABLE_BLOCK`] at a
    /// time: the block
    /// starts at `0.0` and each term adds its angle to every entry in turn,
    /// so each entry sees the additions of a per-entry loop in its order.
    fn of_terms(num_qubits: usize, terms: &[DiagTerm]) -> PhaseLut {
        let mut angles = vec![0.0f64; 1usize << num_qubits];
        let fill = |out: &mut [f64], base: usize| {
            for (k, block) in out.chunks_mut(TABLE_BLOCK).enumerate() {
                block.fill(0.0);
                for t in terms {
                    t.add_angles(base + k * TABLE_BLOCK, block);
                }
            }
        };
        par_blocks(angles.as_mut_slice(), TABLE_BLOCK, fill);
        PhaseLut::from_angles(&angles)
    }

    /// `amp[z] *= e^{i·scale·θ_z}` on a scalar state: stage one factor per
    /// distinct angle into the state's buffer, then one lookup-and-multiply
    /// pass.
    fn apply_scaled(&self, scale: f64, state: &mut StateVector) {
        state.apply_phase_lut(&self.index, |factors| {
            factors.extend(phase_factors(&self.values, scale));
        });
    }
}

/// Hands out one shared [`PhaseLut`] per distinct diagonal run to every
/// program compiled through it ([`CompiledProgram::compile_with`]).
///
/// Entries are weak: a LUT lives exactly as long as some compiled program
/// uses it, so whoever owns the interner (the per-graph energy evaluator)
/// never pins `4·2^n` bytes per diagonal run it has ever seen.
#[derive(Debug, Default)]
pub struct PhaseLutInterner {
    /// Keyed by register width followed by the run's [`DiagTerm::key`]s.
    entries: Mutex<HashMap<Vec<u64>, Weak<PhaseLut>>>,
}

impl PhaseLutInterner {
    /// The live LUT for `terms`, built (under the lock, so concurrent
    /// compiles of one run build it once) when no program holds one.
    fn get_or_build(&self, num_qubits: usize, terms: &[DiagTerm]) -> Arc<PhaseLut> {
        let mut key = Vec::with_capacity(1 + terms.len() * 6);
        key.push(num_qubits as u64);
        for t in terms {
            t.key(&mut key);
        }
        // Every update below leaves the map valid, so a poisoned lock (a
        // panic in another compile) is safe to recover.
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(lut) = entries.get(&key).and_then(Weak::upgrade) {
            return lut;
        }
        // Drop the keys of LUTs whose programs are all gone.
        entries.retain(|_, lut| lut.strong_count() > 0);
        let lut = Arc::new(PhaseLut::of_terms(num_qubits, terms));
        entries.insert(key, Arc::downgrade(&lut));
        lut
    }
}

/// One factor of a fused per-qubit single-qubit chain.
#[derive(Debug, Clone)]
enum OneQFactor {
    /// A fixed 2×2 matrix.
    Fixed([Complex64; 4]),
    /// A rotation whose matrix is `gate` at angle `multiplier · params[slot]`.
    Rot {
        gate: Gate,
        slot: usize,
        multiplier: f64,
    },
}

/// `a · b` for row-major 2×2 complex matrices.
fn mul2(a: &[Complex64; 4], b: &[Complex64; 4]) -> [Complex64; 4] {
    [
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    ]
}

/// One lowered operation of a compiled program.
#[derive(Debug, Clone)]
enum CompiledOp {
    /// Initialize the uniform superposition directly (recognized leading
    /// `H`-on-every-qubit layer — the QAOA `|s⟩ = |+⟩^{⊗n}` preparation).
    InitPlus,
    /// Fixed 2×2 matrix on `target`.
    OneQ { target: usize, m: [Complex64; 4] },
    /// A fused chain of single-qubit gates on one qubit: the 2×2 factors are
    /// multiplied at execution (a handful of flops) and applied as a single
    /// pass over the amplitudes. Single-qubit gates on *different* qubits
    /// commute, so a whole mixer layer collapses to one pass per qubit
    /// regardless of how many gates the mixer applies.
    OneQChain {
        target: usize,
        factors: Vec<OneQFactor>,
    },
    /// Parameterized non-diagonal single-qubit rotation: the matrix is
    /// rebuilt from `gate` with angle `multiplier · params[slot]` at
    /// execution (one sincos per gate per run).
    OneQRot {
        gate: Gate,
        target: usize,
        slot: usize,
        multiplier: f64,
    },
    /// Fixed 4×4 matrix on `(q1, q0)`. Boxed: inline, its 256 bytes would
    /// set the size of every op, and a search keeps one program per
    /// (candidate, graph) alive for a whole depth.
    TwoQ {
        q1: usize,
        q0: usize,
        m: Box<[Complex64; 16]>,
    },
    /// Parameterized non-diagonal two-qubit rotation (`RXX` / `RYY`).
    TwoQRot {
        gate: Gate,
        q1: usize,
        q0: usize,
        slot: usize,
        multiplier: f64,
    },
    /// Fused diagonal phase pass `amp[z] *= e^{i·scale·θ_z}`, with `θ_z`
    /// read from `luts[table]` and `scale = params[slot]` — the cost layer,
    /// one pass per layer independent of the edge count — or `1.0` when
    /// `slot` is `None` (a run of fixed diagonal gates).
    Phase { table: usize, slot: Option<usize> },
}

/// The scale of a [`CompiledOp::Phase`] pass under the slot values `params`.
/// A fixed pass multiplies its angles by `1.0`, which leaves every bit
/// pattern as it is.
fn phase_scale(slot: Option<usize>, params: &[f64]) -> f64 {
    slot.map_or(1.0, |s| params[s])
}

/// The factors of one phase pass, `e^{i·scale·v}` for every `v` of
/// `values`. The one place a phase factor is computed — the same
/// `scale * θ` product and `from_polar` as
/// [`StateVector::apply_phase_table`], which is what makes the scalar and
/// two-plane LUT passes bitwise equal to it and to each other.
fn phase_factors(values: &[f64], scale: f64) -> impl Iterator<Item = Complex64> + '_ {
    values
        .iter()
        .map(move |&v| Complex64::from_polar(1.0, scale * v))
}

/// The matrix of the single-qubit rotation `gate` at angle `theta`.
fn one_q_matrix(gate: Gate, theta: f64) -> [Complex64; 4] {
    match GateMatrix::of(gate, theta) {
        GateMatrix::One(m) => m,
        GateMatrix::Two(_) => unreachable!("single-qubit rotation"),
    }
}

/// The matrix of the two-qubit rotation `gate` at angle `theta`.
fn two_q_matrix(gate: Gate, theta: f64) -> [Complex64; 16] {
    match GateMatrix::of(gate, theta) {
        GateMatrix::Two(m) => m,
        GateMatrix::One(_) => unreachable!("two-qubit rotation"),
    }
}

impl CompiledOp {
    /// The target of a single-qubit op (`OneQ`, `OneQChain`, `OneQRot`).
    fn one_q_target(&self) -> Option<usize> {
        match self {
            CompiledOp::OneQ { target, .. }
            | CompiledOp::OneQChain { target, .. }
            | CompiledOp::OneQRot { target, .. } => Some(*target),
            _ => None,
        }
    }

    /// The 2×2 matrix of a single-qubit op under the slot values `params`.
    /// A chain's factors are multiplied in gate order: applying a factor
    /// after the accumulated chain left-multiplies its matrix.
    fn one_q_matrix(&self, params: &[f64]) -> [Complex64; 4] {
        match self {
            CompiledOp::OneQ { m, .. } => *m,
            CompiledOp::OneQChain { factors, .. } => {
                let one = Complex64::new(1.0, 0.0);
                let zero = Complex64::new(0.0, 0.0);
                let mut m = [one, zero, zero, one];
                for f in factors {
                    let fm = match f {
                        OneQFactor::Fixed(fm) => *fm,
                        OneQFactor::Rot {
                            gate,
                            slot,
                            multiplier,
                        } => one_q_matrix(*gate, multiplier * params[*slot]),
                    };
                    m = mul2(&fm, &m);
                }
                m
            }
            CompiledOp::OneQRot {
                gate,
                slot,
                multiplier,
                ..
            } => one_q_matrix(*gate, multiplier * params[*slot]),
            _ => unreachable!("not a single-qubit op"),
        }
    }
}

/// The per-basis-state phase contribution of one diagonal gate, with angles
/// expressed *per unit of the driving value* (the slot value for free
/// parameters, 1.0 for fixed gates).
#[derive(Debug, Clone)]
enum DiagTerm {
    /// Single-qubit diagonal: angle `a0` when the bit is clear, `a1` set.
    One { q: usize, a0: f64, a1: f64 },
    /// Two-qubit diagonal: angles indexed by `(bit_{q1} << 1) | bit_{q0}`.
    Two { q1: usize, q0: usize, a: [f64; 4] },
}

impl DiagTerm {
    /// `out[i] += θ(start + i)`, the term's angle on each basis state from
    /// `start`: the angle table indexed by the term's bits, added a
    /// 16-entry chunk at a time ([`graphs::problem::add_term_values`]).
    fn add_angles(&self, start: usize, out: &mut [f64]) {
        let bit = |z: u64, q: usize| ((z >> q) & 1) as usize;
        match *self {
            DiagTerm::One { q, a0, a1 } => {
                add_term_values(out, start as u64, [a0, a1], |z| bit(z, q));
            }
            DiagTerm::Two { q1, q0, a } => {
                add_term_values(out, start as u64, a, |z| bit(z, q1) << 1 | bit(z, q0));
            }
        }
    }

    /// Stable hash key (exact bit patterns; compile-time only).
    fn key(&self, out: &mut Vec<u64>) {
        match self {
            DiagTerm::One { q, a0, a1 } => {
                out.push(1);
                out.push(*q as u64);
                out.push(a0.to_bits());
                out.push(a1.to_bits());
            }
            DiagTerm::Two { q1, q0, a } => {
                out.push(2);
                out.push(*q1 as u64);
                out.push(*q0 as u64);
                out.extend(a.iter().map(|x| x.to_bits()));
            }
        }
    }
}

/// A circuit lowered once into specialized kernels with parameter slots.
///
/// Compile with [`CompiledProgram::compile`], then run many times with
/// different parameter values via [`CompiledProgram::execute_into`] (scratch
/// reuse) or [`CompiledProgram::run`] (fresh allocation).
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    num_qubits: usize,
    param_names: Vec<String>,
    ops: Vec<CompiledOp>,
    /// One LUT per distinct diagonal run, possibly shared with other
    /// programs (see [`PhaseLutInterner`]).
    luts: Vec<Arc<PhaseLut>>,
    source_instructions: usize,
}

/// Compile-time accumulator for a run of consecutive diagonal gates.
#[derive(Default)]
struct PendingDiag {
    /// Terms with fixed angles (bound or parameterless diagonal gates).
    fixed: Vec<DiagTerm>,
    /// Terms linear in one parameter slot, keyed by slot (insertion order).
    scaled: Vec<(usize, Vec<DiagTerm>)>,
}

impl PendingDiag {
    fn is_empty(&self) -> bool {
        self.fixed.is_empty() && self.scaled.is_empty()
    }

    fn scaled_terms_mut(&mut self, slot: usize) -> &mut Vec<DiagTerm> {
        if let Some(pos) = self.scaled.iter().position(|(s, _)| *s == slot) {
            return &mut self.scaled[pos].1;
        }
        self.scaled.push((slot, Vec::new()));
        &mut self.scaled.last_mut().expect("just pushed").1
    }
}

impl CompiledProgram {
    /// Lower `circuit` into a compiled program. Free parameters are assigned
    /// slots in order of first appearance (see
    /// [`CompiledProgram::param_names`]). The program's phase LUTs are its
    /// own; use [`CompiledProgram::compile_with`] to share them.
    pub fn compile(circuit: &Circuit) -> Result<CompiledProgram, SimulatorError> {
        Self::compile_with(circuit, &PhaseLutInterner::default())
    }

    /// [`compile`](Self::compile), taking the phase LUTs from (and adding
    /// new ones to) `interner`: programs compiled through one interner
    /// share the LUT of every diagonal run they have in common.
    pub fn compile_with(
        circuit: &Circuit,
        interner: &PhaseLutInterner,
    ) -> Result<CompiledProgram, SimulatorError> {
        let num_qubits = circuit.num_qubits();
        if num_qubits > crate::state::MAX_DENSE_QUBITS {
            return Err(SimulatorError::TooManyQubits {
                num_qubits,
                max: crate::state::MAX_DENSE_QUBITS,
            });
        }
        let mut builder = ProgramBuilder {
            num_qubits,
            param_names: Vec::new(),
            ops: Vec::new(),
            luts: Vec::new(),
            interner,
            pending: PendingDiag::default(),
            pending_chains: Vec::new(),
        };

        for inst in circuit.instructions() {
            builder.lower(inst)?;
        }
        builder.flush_chains();
        builder.flush_pending();
        let mut ops = builder.ops;
        Self::recognize_plus_prefix(&mut ops, num_qubits);
        ops.shrink_to_fit();

        Ok(CompiledProgram {
            num_qubits: builder.num_qubits,
            param_names: builder.param_names,
            ops,
            luts: builder.luts,
            source_instructions: circuit.len(),
        })
    }

    /// Replace a leading `H`-on-every-qubit layer with a direct `|+⟩^{⊗n}`
    /// initialization (one fill instead of `n` kernel passes) — the standard
    /// opening of every QAOA circuit.
    fn recognize_plus_prefix(ops: &mut Vec<CompiledOp>, num_qubits: usize) {
        if num_qubits == 0 || ops.len() < num_qubits {
            return;
        }
        let h = match GateMatrix::of(Gate::H, 0.0) {
            GateMatrix::One(m) => m,
            GateMatrix::Two(_) => unreachable!("H is single-qubit"),
        };
        let mut seen = vec![false; num_qubits];
        for op in ops.iter().take(num_qubits) {
            match op {
                CompiledOp::OneQ { target, m } if *m == h && !seen[*target] => {
                    seen[*target] = true;
                }
                _ => return,
            }
        }
        ops.splice(0..num_qubits, [CompiledOp::InitPlus]);
    }

    /// Register width.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Parameter names in slot order.
    pub fn param_names(&self) -> &[String] {
        &self.param_names
    }

    /// Number of parameter slots.
    pub fn num_params(&self) -> usize {
        self.param_names.len()
    }

    /// Slot index of a named parameter, if present.
    pub fn param_index(&self, name: &str) -> Option<usize> {
        self.param_names.iter().position(|n| n == name)
    }

    /// Number of lowered operations (after diagonal fusion).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of instructions in the source circuit.
    pub fn source_instructions(&self) -> usize {
        self.source_instructions
    }

    /// Number of distinct fused phase LUTs.
    pub fn num_tables(&self) -> usize {
        self.luts.len()
    }

    /// The fused phase LUTs, in order of first use. `Arc::ptr_eq` tells
    /// whether two programs share one.
    pub fn luts(&self) -> &[Arc<PhaseLut>] {
        &self.luts
    }

    /// Refuse a slot vector of the wrong length or a state of the wrong
    /// width.
    fn check(&self, params: &[f64], num_qubits: usize) -> Result<(), SimulatorError> {
        if params.len() != self.param_names.len() {
            return Err(SimulatorError::WrongParameterCount {
                expected: self.param_names.len(),
                got: params.len(),
            });
        }
        if num_qubits != self.num_qubits {
            return Err(SimulatorError::WidthMismatch {
                program: self.num_qubits,
                state: num_qubits,
            });
        }
        Ok(())
    }

    /// Execute the program from `|0...0⟩` into a caller-provided scratch
    /// state (reset in place — no allocation). `params` supplies one value
    /// per slot, in [`CompiledProgram::param_names`] order.
    pub fn execute_into(
        &self,
        params: &[f64],
        state: &mut StateVector,
    ) -> Result<(), SimulatorError> {
        self.check(params, state.num_qubits())?;
        let mut ops = self.ops.as_slice();
        if matches!(ops.first(), Some(CompiledOp::InitPlus)) {
            state.reset_plus();
            ops = &ops[1..];
        } else {
            state.reset_zero();
        }
        for op in ops {
            match op {
                // Only ever spliced in at index 0, which the prologue above
                // consumed; a mid-program occurrence would be a compiler bug
                // (reset_plus here would discard all prior gates).
                CompiledOp::InitPlus => unreachable!("InitPlus past the program start"),
                CompiledOp::OneQ { target, .. }
                | CompiledOp::OneQChain { target, .. }
                | CompiledOp::OneQRot { target, .. } => {
                    state.apply_single_qubit(&op.one_q_matrix(params), *target);
                }
                CompiledOp::TwoQ { q1, q0, m } => state.apply_two_qubit(m, *q1, *q0),
                CompiledOp::TwoQRot {
                    gate,
                    q1,
                    q0,
                    slot,
                    multiplier,
                } => {
                    let m = two_q_matrix(*gate, multiplier * params[*slot]);
                    state.apply_two_qubit(&m, *q1, *q0);
                }
                CompiledOp::Phase { table, slot } => {
                    self.luts[*table].apply_scaled(phase_scale(*slot, params), state);
                }
            }
        }
        Ok(())
    }

    /// Execute into a freshly allocated state (convenience wrapper around
    /// [`CompiledProgram::execute_into`]).
    pub fn run(&self, params: &[f64]) -> Result<StateVector, SimulatorError> {
        let mut state = StateVector::zero_state(self.num_qubits)?;
        self.execute_into(params, &mut state)?;
        Ok(state)
    }

    /// Execute the program from `|0...0⟩` on the two-plane buffer `state`,
    /// `params` holding one value per slot as for
    /// [`CompiledProgram::execute_into`].
    ///
    /// Bit-identical to [`CompiledProgram::execute_into`] up to the sign of
    /// a zero amplitude (see the contract on [`crate::batch`]): gate kernels
    /// perform the same arithmetic but for products with an exactly-zero
    /// coefficient, and phase passes read the same LUTs and compute their
    /// factors `e^{i·scale·θ}` through the same helper.
    pub fn execute_planes_into(
        &self,
        params: &[f64],
        state: &mut PlaneState,
    ) -> Result<(), SimulatorError> {
        self.check(params, state.num_qubits())?;
        let mut scr = state.take_exec_scratch();
        let ops = match self.ops.as_slice() {
            // A program that opens with |+⟩ and a phase pass (every QAOA
            // ansatz) writes both in one pass instead of a fill and a
            // read-modify-write.
            [CompiledOp::InitPlus, CompiledOp::Phase { table, slot }, rest @ ..] => {
                let index = self.stage_phase(*table, *slot, params, &mut scr);
                state.reset_plus_then_phase_lut(index, &scr.factors_re, &scr.factors_im);
                rest
            }
            [CompiledOp::InitPlus, rest @ ..] => {
                state.reset_plus();
                rest
            }
            ops => {
                state.reset_zero();
                ops
            }
        };

        let mut i = 0;
        while i < ops.len() {
            // Fuse a maximal run of consecutive single-qubit ops whose pair
            // strides fit the cache block into ONE blocked sweep (a QAOA
            // mixer layer is exactly such a run). Gates keep their program
            // order per amplitude, so results are bit-identical to the
            // one-pass-per-gate path; only the memory traffic changes.
            let run = ops[i..]
                .iter()
                .take_while(|op| {
                    op.one_q_target()
                        .is_some_and(|t| (2usize << t) <= RUN_BLOCK_AMPS)
                })
                .count();
            if run >= 2 {
                scr.run.clear();
                for op in &ops[i..i + run] {
                    let target = op.one_q_target().expect("single-qubit run op");
                    scr.run
                        .push(StagedGate::new(&op.one_q_matrix(params), target));
                }
                state.apply_single_qubit_run(&scr.run, RUN_BLOCK_AMPS);
                i += run;
                continue;
            }
            let op = &ops[i];
            i += 1;
            match op {
                CompiledOp::InitPlus => unreachable!("InitPlus past the program start"),
                CompiledOp::OneQ { target, .. }
                | CompiledOp::OneQChain { target, .. }
                | CompiledOp::OneQRot { target, .. } => {
                    state.apply_single_qubit(&op.one_q_matrix(params), *target);
                }
                CompiledOp::TwoQ { q1, q0, m } => state.apply_two_qubit(m, *q1, *q0),
                CompiledOp::TwoQRot {
                    gate,
                    q1,
                    q0,
                    slot,
                    multiplier,
                } => {
                    let m = two_q_matrix(*gate, multiplier * params[*slot]);
                    state.apply_two_qubit(&m, *q1, *q0);
                }
                CompiledOp::Phase { table, slot } => {
                    let index = self.stage_phase(*table, *slot, params, &mut scr);
                    state.apply_phase_lut(index, &scr.factors_re, &scr.factors_im);
                }
            }
        }
        state.restore_exec_scratch(scr);
        Ok(())
    }

    /// Stage the factor planes of the phase pass `Phase { table, slot }`
    /// into `scr`; returns the LUT's per-amplitude index.
    fn stage_phase(
        &self,
        table: usize,
        slot: Option<usize>,
        params: &[f64],
        scr: &mut ExecScratch,
    ) -> &[u32] {
        let lut = &self.luts[table];
        scr.factors_re.clear();
        scr.factors_im.clear();
        for f in phase_factors(&lut.values, phase_scale(slot, params)) {
            scr.factors_re.push(f.re);
            scr.factors_im.push(f.im);
        }
        &lut.index
    }
}

struct ProgramBuilder<'a> {
    num_qubits: usize,
    param_names: Vec<String>,
    ops: Vec<CompiledOp>,
    luts: Vec<Arc<PhaseLut>>,
    interner: &'a PhaseLutInterner,
    pending: PendingDiag,
    /// Per-qubit chains of consecutive single-qubit gates (first-touch
    /// order). At most one of `pending` / `pending_chains` is non-empty:
    /// accumulating into one flushes the other, which preserves gate order
    /// on every qubit.
    pending_chains: Vec<(usize, Vec<OneQFactor>)>,
}

impl ProgramBuilder<'_> {
    fn slot_of(&mut self, name: &str) -> usize {
        if let Some(i) = self.param_names.iter().position(|n| n == name) {
            return i;
        }
        self.param_names.push(name.to_string());
        self.param_names.len() - 1
    }

    fn lower(&mut self, inst: &qcircuit::Instruction) -> Result<(), SimulatorError> {
        let gate = inst.gate;
        if gate.is_diagonal() {
            // Diagonal gates do not commute with pending chains on their
            // operands, so close the chains before accumulating.
            self.flush_chains();
            return self.lower_diagonal(inst);
        }
        // Non-diagonal gate: close the current diagonal run first.
        self.flush_pending();
        if gate.arity() == 1 {
            let factor = match &inst.parameter {
                Parameter::Free { name, multiplier } => {
                    let slot = self.slot_of(name);
                    OneQFactor::Rot {
                        gate,
                        slot,
                        multiplier: *multiplier,
                    }
                }
                _ => {
                    let matrix = inst
                        .matrix(&|_| None)
                        .expect("bound/parameterless instruction has a matrix");
                    match matrix {
                        GateMatrix::One(m) => OneQFactor::Fixed(m),
                        GateMatrix::Two(_) => unreachable!("single-qubit gate"),
                    }
                }
            };
            self.push_chain_factor(inst.qubits[0], factor);
            return Ok(());
        }
        // Two-qubit non-diagonal gate: a hard barrier for chains too.
        self.flush_chains();
        match &inst.parameter {
            Parameter::Free { name, multiplier } => {
                let slot = self.slot_of(name);
                self.ops.push(CompiledOp::TwoQRot {
                    gate,
                    q1: inst.qubits[0],
                    q0: inst.qubits[1],
                    slot,
                    multiplier: *multiplier,
                });
            }
            _ => {
                let matrix = inst
                    .matrix(&|_| None)
                    .expect("bound/parameterless instruction has a matrix");
                match matrix {
                    GateMatrix::Two(m) => self.ops.push(CompiledOp::TwoQ {
                        q1: inst.qubits[0],
                        q0: inst.qubits[1],
                        m: Box::new(m),
                    }),
                    GateMatrix::One(_) => unreachable!("two-qubit gate"),
                }
            }
        }
        Ok(())
    }

    fn push_chain_factor(&mut self, target: usize, factor: OneQFactor) {
        if let Some((_, factors)) = self.pending_chains.iter_mut().find(|(q, _)| *q == target) {
            factors.push(factor);
        } else {
            self.pending_chains.push((target, vec![factor]));
        }
    }

    /// Emit the accumulated per-qubit chains: a single-factor chain becomes
    /// a plain op, an all-fixed chain is premultiplied at compile time, and
    /// anything else becomes a [`CompiledOp::OneQChain`] whose 2×2 product
    /// is formed at execution.
    fn flush_chains(&mut self) {
        let chains = std::mem::take(&mut self.pending_chains);
        for (target, mut factors) in chains {
            if factors.len() == 1 {
                match factors.pop().expect("one factor") {
                    OneQFactor::Fixed(m) => self.ops.push(CompiledOp::OneQ { target, m }),
                    OneQFactor::Rot {
                        gate,
                        slot,
                        multiplier,
                    } => self.ops.push(CompiledOp::OneQRot {
                        gate,
                        target,
                        slot,
                        multiplier,
                    }),
                }
                continue;
            }
            if factors.iter().all(|f| matches!(f, OneQFactor::Fixed(_))) {
                let one = Complex64::new(1.0, 0.0);
                let zero = Complex64::new(0.0, 0.0);
                let mut m = [one, zero, zero, one];
                for f in &factors {
                    if let OneQFactor::Fixed(fm) = f {
                        m = mul2(fm, &m);
                    }
                }
                self.ops.push(CompiledOp::OneQ { target, m });
                continue;
            }
            factors.shrink_to_fit();
            self.ops.push(CompiledOp::OneQChain { target, factors });
        }
    }

    fn lower_diagonal(&mut self, inst: &qcircuit::Instruction) -> Result<(), SimulatorError> {
        let gate = inst.gate;
        if gate == Gate::I {
            return Ok(());
        }
        match &inst.parameter {
            Parameter::Free { name, multiplier } => {
                // The parameterized diagonal gates all have phases linear in
                // the angle θ = multiplier · value, so the per-unit-value
                // angles are the θ-coefficients times the multiplier.
                let m = *multiplier;
                let term = match gate {
                    Gate::RZ => DiagTerm::One {
                        q: inst.qubits[0],
                        a0: -m / 2.0,
                        a1: m / 2.0,
                    },
                    Gate::P => DiagTerm::One {
                        q: inst.qubits[0],
                        a0: 0.0,
                        a1: m,
                    },
                    Gate::RZZ => DiagTerm::Two {
                        q1: inst.qubits[0],
                        q0: inst.qubits[1],
                        a: [-m / 2.0, m / 2.0, m / 2.0, -m / 2.0],
                    },
                    Gate::CP => DiagTerm::Two {
                        q1: inst.qubits[0],
                        q0: inst.qubits[1],
                        a: [0.0, 0.0, 0.0, m],
                    },
                    other => {
                        // `Instruction::new` rejects free parameters on
                        // non-parameterized gates, so this cannot happen.
                        unreachable!("free parameter on non-parameterized diagonal gate {other}")
                    }
                };
                let name = name.clone();
                let slot = self.slot_of(&name);
                self.pending.scaled_terms_mut(slot).push(term);
            }
            _ => {
                let matrix = inst
                    .matrix(&|_| None)
                    .expect("bound/parameterless instruction has a matrix");
                let diag = matrix
                    .diagonal()
                    .expect("diagonal gate has a diagonal matrix");
                let term = match diag.len() {
                    2 => DiagTerm::One {
                        q: inst.qubits[0],
                        a0: diag[0].arg(),
                        a1: diag[1].arg(),
                    },
                    _ => DiagTerm::Two {
                        q1: inst.qubits[0],
                        q0: inst.qubits[1],
                        a: [diag[0].arg(), diag[1].arg(), diag[2].arg(), diag[3].arg()],
                    },
                };
                self.pending.fixed.push(term);
            }
        }
        Ok(())
    }

    /// Emit the accumulated diagonal run as phase ops (one per slot plus one
    /// for the fixed part).
    fn flush_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        if !pending.fixed.is_empty() {
            let table = self.intern_lut(&pending.fixed);
            self.ops.push(CompiledOp::Phase { table, slot: None });
        }
        for (slot, terms) in pending.scaled {
            let table = self.intern_lut(&terms);
            self.ops.push(CompiledOp::Phase {
                table,
                slot: Some(slot),
            });
        }
    }

    /// This program's index of the LUT for `terms`. The interner returns the
    /// same `Arc` for an identical term list while a program (this one
    /// included) holds it, so the `p` cost layers of a QAOA circuit share
    /// one entry.
    fn intern_lut(&mut self, terms: &[DiagTerm]) -> usize {
        let lut = self.interner.get_or_build(self.num_qubits, terms);
        if let Some(idx) = self.luts.iter().position(|l| Arc::ptr_eq(l, &lut)) {
            return idx;
        }
        self.luts.push(lut);
        self.luts.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `PhaseLut::from_angles` as it was: a `HashMap` dedup by bit pattern
    /// in first-appearance order.
    fn reference_dedup(angles: &[f64]) -> (Vec<f64>, Vec<u32>) {
        let mut seen: HashMap<u64, u32> = HashMap::new();
        let mut values = Vec::new();
        let index = angles
            .iter()
            .map(|&theta| {
                *seen.entry(theta.to_bits()).or_insert_with(|| {
                    values.push(theta);
                    (values.len() - 1) as u32
                })
            })
            .collect();
        (values, index)
    }

    /// The angle table of `PhaseLut::of_terms` as it was: each entry a loop
    /// over the terms from `0.0`.
    fn reference_angles(num_qubits: usize, terms: &[DiagTerm]) -> Vec<f64> {
        (0..1usize << num_qubits)
            .map(|z| {
                let mut sum = 0.0;
                for t in terms {
                    sum += match t {
                        DiagTerm::One { q, a0, a1 } => {
                            if (z >> q) & 1 == 0 {
                                *a0
                            } else {
                                *a1
                            }
                        }
                        DiagTerm::Two { q1, q0, a } => a[(((z >> q1) & 1) << 1) | ((z >> q0) & 1)],
                    };
                }
                sum
            })
            .collect()
    }

    fn assert_lut_eq(lut: &PhaseLut, (values, index): (Vec<f64>, Vec<u32>), what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&lut.values), bits(&values), "{what}: values");
        assert_eq!(lut.index, index, "{what}: index");
    }

    #[test]
    fn phase_lut_matches_a_per_entry_reference_bitwise() {
        let rzz = |g: f64| [-0.5 * g, 0.5 * g, 0.5 * g, -0.5 * g];
        let mixed = vec![
            DiagTerm::One {
                q: 0,
                a0: -0.0,
                a1: 0.3,
            },
            DiagTerm::Two {
                q1: 14,
                q0: 0,
                a: rzz(0.7),
            },
            DiagTerm::Two {
                q1: 3,
                q0: 9,
                a: [0.11, -0.0, 1e-310, 0.37],
            },
            DiagTerm::One {
                q: 13,
                a0: 0.1,
                a1: -0.2,
            },
            DiagTerm::Two {
                q1: 1,
                q0: 2,
                a: rzz(1.3),
            },
            DiagTerm::Two {
                q1: 5,
                q0: 12,
                a: [0.0, 0.0, 0.0, 0.9],
            },
            DiagTerm::One {
                q: 7,
                a0: 0.0,
                a1: f64::MIN_POSITIVE,
            },
        ];
        let cases: [(&str, usize, Vec<DiagTerm>); 4] = [
            // 2¹⁵ entries: four fill blocks, cut between threads.
            ("mixed", 15, mixed),
            // Angles of -0.0 only: a fill starting anywhere but 0.0 shows.
            (
                "signed zero",
                4,
                vec![DiagTerm::One {
                    q: 2,
                    a0: -0.0,
                    a1: -0.0,
                }],
            ),
            ("no terms", 3, Vec::new()),
            (
                "one qubit",
                1,
                vec![DiagTerm::Two {
                    q1: 0,
                    q0: 0,
                    a: [0.5, 0.6, 0.7, 0.8],
                }],
            ),
        ];
        for (what, n, terms) in cases {
            let reference = reference_angles(n, &terms);
            assert_lut_eq(
                &PhaseLut::of_terms(n, &terms),
                reference_dedup(&reference),
                what,
            );
        }
    }

    #[test]
    fn from_angles_matches_a_hash_map_dedup() {
        let tiny = f64::from_bits(1);
        let angles = [
            0.0,
            -0.0,
            1.0,
            0.5,
            1.0,
            -0.0,
            f64::NAN,
            tiny,
            2.0,
            0.5,
            f64::NAN,
            -tiny,
            0.0,
            f64::INFINITY,
            3.0,
            1.0,
            -f64::INFINITY,
            2.0,
        ];
        assert_lut_eq(
            &PhaseLut::from_angles(&angles),
            reference_dedup(&angles),
            "spread",
        );
        // Many distinct values: the dedup map grows past its first tables.
        let many: Vec<f64> = (0..5000)
            .map(|i| ((i * 7919) % 3001) as f64 * 0.25)
            .collect();
        assert_lut_eq(
            &PhaseLut::from_angles(&many),
            reference_dedup(&many),
            "many",
        );
    }

    fn assert_states_close(a: &StateVector, b: &StateVector, tol: f64) {
        assert_eq!(a.num_qubits(), b.num_qubits());
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!((x - y).norm() < tol, "amplitudes differ: {x} vs {y}");
        }
    }

    #[test]
    fn fully_bound_circuit_matches_apply_circuit() {
        let mut c = Circuit::new(4);
        c.h_layer();
        c.rzz(0, 1, 0.7).rzz(1, 2, -0.3).rzz(2, 3, 1.1);
        c.rx(0, 0.4).ry(1, 0.9).rz(2, -0.8);
        c.cx(0, 2).cz(1, 3);
        c.push(Gate::SWAP, &[0, 3], Parameter::None);
        c.push(Gate::S, &[1], Parameter::None);
        c.push(Gate::T, &[2], Parameter::None);
        let reference = StateVector::from_circuit(&c).unwrap();
        let program = CompiledProgram::compile(&c).unwrap();
        let compiled = program.run(&[]).unwrap();
        assert_states_close(&reference, &compiled, 1e-10);
    }

    #[test]
    fn parameterized_circuit_matches_bound_simulation() {
        let mut c = Circuit::new(3);
        c.h_layer();
        c.push(Gate::RZZ, &[0, 1], Parameter::free("gamma", 2.0));
        c.push(Gate::RZZ, &[1, 2], Parameter::free("gamma", 3.0));
        c.push(Gate::RX, &[0], Parameter::free("beta", 2.0));
        c.push(Gate::RX, &[1], Parameter::free("beta", 2.0));
        c.push(Gate::RX, &[2], Parameter::free("beta", 2.0));
        let program = CompiledProgram::compile(&c).unwrap();
        assert_eq!(program.param_names(), ["gamma", "beta"]);

        let bound = c.bind(&[("gamma", 0.55), ("beta", -0.2)]).unwrap();
        let reference = StateVector::from_circuit(&bound).unwrap();
        let compiled = program.run(&[0.55, -0.2]).unwrap();
        assert_states_close(&reference, &compiled, 1e-10);
    }

    #[test]
    fn cost_layers_share_one_table() {
        // Two QAOA layers over the same three edges: the γ_0 and γ_1 cost
        // layers have identical structure, so one angle table serves both.
        let mut c = Circuit::new(3);
        c.h_layer();
        for k in 0..2 {
            let gamma = format!("gamma_{k}");
            c.push(Gate::RZZ, &[0, 1], Parameter::free(&gamma, 2.0));
            c.push(Gate::RZZ, &[1, 2], Parameter::free(&gamma, 2.0));
            c.push(Gate::RZZ, &[0, 2], Parameter::free(&gamma, 2.0));
            let beta = format!("beta_{k}");
            for q in 0..3 {
                c.push(Gate::RX, &[q], Parameter::free(&beta, 2.0));
            }
        }
        let program = CompiledProgram::compile(&c).unwrap();
        assert_eq!(program.num_tables(), 1);
        // |+⟩ init + 2 × (fused cost pass + 3 mixer rotations) = 9 ops from
        // 15 instructions.
        assert_eq!(program.num_ops(), 9);
        assert_eq!(program.source_instructions(), 15);
    }

    #[test]
    fn fixed_diagonal_gates_fuse_into_phase_pass() {
        let mut c = Circuit::new(2);
        c.h(0).h(1);
        c.push(Gate::S, &[0], Parameter::None);
        c.push(Gate::Z, &[1], Parameter::None);
        c.push(Gate::CZ, &[0, 1], Parameter::None);
        c.rz(0, 0.4);
        let program = CompiledProgram::compile(&c).unwrap();
        // |+⟩ init + one fused phase pass.
        assert_eq!(program.num_ops(), 2);
        let reference = StateVector::from_circuit(&c).unwrap();
        let compiled = program.run(&[]).unwrap();
        assert_states_close(&reference, &compiled, 1e-10);
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let mut c = Circuit::new(3);
        c.h_layer();
        c.push(Gate::RZZ, &[0, 1], Parameter::free("g", 2.0));
        c.push(Gate::RY, &[2], Parameter::free("b", 2.0));
        let program = CompiledProgram::compile(&c).unwrap();
        let mut scratch = StateVector::zero_state(3).unwrap();
        for &(g, b) in &[(0.3, 0.1), (-1.2, 0.8), (2.0, -0.5)] {
            program.execute_into(&[g, b], &mut scratch).unwrap();
            let fresh = program.run(&[g, b]).unwrap();
            assert_states_close(&scratch, &fresh, 1e-12);
            assert!((scratch.norm_squared() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn wrong_parameter_count_is_rejected() {
        let mut c = Circuit::new(2);
        c.push(Gate::RX, &[0], Parameter::free("a", 1.0));
        let program = CompiledProgram::compile(&c).unwrap();
        assert!(matches!(
            program.run(&[]),
            Err(SimulatorError::WrongParameterCount {
                expected: 1,
                got: 0
            })
        ));
    }

    #[test]
    fn width_mismatch_is_rejected() {
        let c = Circuit::new(3);
        let program = CompiledProgram::compile(&c).unwrap();
        let mut wrong = StateVector::zero_state(2).unwrap();
        assert!(matches!(
            program.execute_into(&[], &mut wrong),
            Err(SimulatorError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn compiled_ops_stay_small() {
        // A 2×2 matrix and its target, the largest inline payload.
        assert!(std::mem::size_of::<CompiledOp>() <= 80);
        let program = CompiledProgram::compile(&batch_test_circuit(6)).unwrap();
        assert_eq!(program.ops.capacity(), program.ops.len());
        for op in &program.ops {
            if let CompiledOp::OneQChain { factors, .. } = op {
                assert_eq!(factors.capacity(), factors.len());
            }
        }
    }

    #[test]
    fn mixer_layers_fuse_into_one_pass_per_qubit() {
        // RX then RY on every qubit (the paper's winning mixer): each
        // qubit's two rotations share one kernel pass.
        let mut c = Circuit::new(3);
        c.h_layer();
        c.push(Gate::RZZ, &[0, 1], Parameter::free("gamma_0", 2.0));
        for q in 0..3 {
            c.push(Gate::RX, &[q], Parameter::free("beta_0", 2.0));
        }
        for q in 0..3 {
            c.push(Gate::RY, &[q], Parameter::free("beta_0", 2.0));
        }
        let program = CompiledProgram::compile(&c).unwrap();
        // |+⟩ init + fused cost pass + 3 fused chains.
        assert_eq!(program.num_ops(), 5);

        let bound = c.bind(&[("gamma_0", 0.7), ("beta_0", -0.4)]).unwrap();
        let reference = StateVector::from_circuit(&bound).unwrap();
        let compiled = program.run(&[0.7, -0.4]).unwrap();
        assert_states_close(&reference, &compiled, 1e-10);
    }

    #[test]
    fn interleaved_diagonal_gates_preserve_per_qubit_order() {
        // RX, RZ, RX on one qubit: the diagonal RZ must break the chain,
        // not commute past the rotations.
        let mut c = Circuit::new(2);
        c.rx(0, 0.5).rz(0, 0.9).rx(0, -0.3);
        c.push(Gate::H, &[1], Parameter::None);
        let program = CompiledProgram::compile(&c).unwrap();
        let reference = StateVector::from_circuit(&c).unwrap();
        let compiled = program.run(&[]).unwrap();
        assert_states_close(&reference, &compiled, 1e-10);
    }

    fn assert_states_bitwise_equal(a: &StateVector, b: &StateVector) {
        assert_eq!(a.num_qubits(), b.num_qubits());
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "{x} vs {y}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "{x} vs {y}");
        }
    }

    /// A QAOA-shaped template exercising every batched op kind: |+⟩ init,
    /// fused scaled cost pass, fixed phase pass, rotation chains, fixed and
    /// parameterized two-qubit gates.
    fn batch_test_circuit(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h_layer();
        c.push(Gate::S, &[0], Parameter::None);
        for q in 0..n - 1 {
            c.push(Gate::RZZ, &[q, q + 1], Parameter::free("gamma_0", 2.0));
        }
        for q in 0..n {
            c.push(Gate::RX, &[q], Parameter::free("beta_0", 2.0));
            c.push(Gate::RY, &[q], Parameter::free("beta_0", 2.0));
        }
        c.cx(0, n - 1);
        c.push(Gate::RXX, &[1, 2], Parameter::free("gamma_0", 0.5));
        c
    }

    /// `state`'s planes against `want`'s amplitudes, bit for bit.
    fn assert_planes_equal(state: &PlaneState, want: &StateVector) {
        let (re, im) = state.planes();
        for (z, a) in want.amplitudes().iter().enumerate() {
            assert_eq!(re[z].to_bits(), a.re.to_bits(), "re[{z}]");
            assert_eq!(im[z].to_bits(), a.im.to_bits(), "im[{z}]");
        }
    }

    #[test]
    fn batch_execution_is_bitwise_identical_to_sequential() {
        for n in [4usize, 15] {
            let program = CompiledProgram::compile(&batch_test_circuit(n)).unwrap();
            for b in 0..5 {
                let point = [0.3 + 0.17 * b as f64, -0.9 + 0.4 * b as f64];
                let mut state = PlaneState::zero_state(n).unwrap();
                program.execute_planes_into(&point, &mut state).unwrap();
                assert_planes_equal(&state, &program.run(&point).unwrap());
            }
        }
    }

    #[test]
    fn batch_scratch_reuse_matches_fresh_runs_bitwise() {
        let program = CompiledProgram::compile(&batch_test_circuit(5)).unwrap();
        let mut state = PlaneState::zero_state(5).unwrap();
        for round in 0..3 {
            for b in 0..3 {
                let point = [0.1 * (round + 1) as f64 + 0.2 * b as f64, -0.4];
                program.execute_planes_into(&point, &mut state).unwrap();
                assert_planes_equal(&state, &program.run(&point).unwrap());
            }
        }
    }

    #[test]
    fn batch_parameter_and_width_errors() {
        let program = CompiledProgram::compile(&batch_test_circuit(4)).unwrap();
        let mut state = PlaneState::zero_state(4).unwrap();
        assert!(matches!(
            program.execute_planes_into(&[0.1; 3], &mut state),
            Err(SimulatorError::WrongParameterCount {
                expected: 2,
                got: 3
            })
        ));
        let mut narrow = PlaneState::zero_state(3).unwrap();
        assert!(matches!(
            program.execute_planes_into(&[0.1; 2], &mut narrow),
            Err(SimulatorError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn phase_lut_reproduces_table_bit_patterns() {
        let table: [f64; 8] = [0.5, -0.0, 0.5, 0.0, 1.25, -0.0, 0.5, 1.25];
        let lut = PhaseLut::from_angles(&table);
        // -0.0 and 0.0 have distinct bit patterns and must stay distinct.
        assert_eq!(lut.values.len(), 4);
        for (z, &theta) in table.iter().enumerate() {
            assert_eq!(lut.values[lut.index[z] as usize].to_bits(), theta.to_bits());
        }
    }

    #[test]
    fn scalar_lut_pass_equals_the_dense_table_pass_bitwise() {
        // One block (up to 16 qubits) and two blocks (17 qubits), which
        // split on pools of two or more threads.
        for n in [5usize, 14, 15, 17] {
            let dim = 1usize << n;
            let tables: [Vec<f64>; 4] = [
                // Few distinct values, as a Max-Cut layer has.
                (0..dim).map(|z| (z % 7) as f64 * 0.3 - 0.9).collect(),
                // Signed zeros next to ordinary values.
                (0..dim).map(|z| [0.0, -0.0, 0.5][z % 3]).collect(),
                // All distinct, as a spin-glass layer has.
                (0..dim).map(|z| 0.5 + z as f64 * 1e-3).collect(),
                // One value.
                vec![1.25; dim],
            ];
            let start = StateVector::from_amplitudes(
                (0..dim)
                    .map(|z| Complex64::new((z as f64 * 0.37).sin(), (z as f64 * 0.11).cos()))
                    .collect(),
            )
            .unwrap();
            for threads in [1usize, 2, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                for table in &tables {
                    let lut = PhaseLut::from_angles(table);
                    for scale in [1.0, 0.37, -2.5, 0.0] {
                        let mut want = start.clone();
                        let mut got = start.clone();
                        pool.install(|| {
                            want.apply_phase_table(table, scale).unwrap();
                            lut.apply_scaled(scale, &mut got);
                        });
                        assert_states_bitwise_equal(&got, &want);
                    }
                }
            }
        }
    }

    #[test]
    fn diagonal_runs_reproduce_the_dense_table_amplitudes() {
        // Fixed (`S`, `T`, `Z`) and parameterized (`rzz`, `rz`, `p`) diagonal
        // runs around one `rx`: every phase-pass flavour, fixed and scaled.
        let n = 3;
        let mut c = Circuit::new(n);
        c.h_layer();
        c.push(Gate::S, &[0], Parameter::None);
        c.push(Gate::T, &[2], Parameter::None);
        for q in 0..n - 1 {
            c.push(Gate::RZZ, &[q, q + 1], Parameter::free("gamma_0", 2.0));
        }
        c.rx(1, 0.4);
        for q in 0..n {
            c.push(Gate::RZ, &[q], Parameter::free("beta_0", 2.0));
            c.push(Gate::P, &[q], Parameter::free("beta_0", 1.0));
        }
        c.push(Gate::Z, &[1], Parameter::None);
        let program = CompiledProgram::compile(&c).unwrap();
        assert_eq!((program.num_ops(), program.num_tables()), (6, 4));
        let state = program.run(&[0.7, -0.45]).unwrap();
        // The bits `apply_phase_table` over dense per-run angle tables gives
        // (what programs executed up to commit 96177ad).
        let want: [(u64, u64); 8] = [
            (0x3fd7dd474df0a1bd, 0x3fa85fb2de31e502),
            (0x3fb1fb43447a2d54, 0x3fd62d26ebdd3cc2),
            (0x3f852488cf4ff2dd, 0xbfd516f274428cca),
            (0xbfd69f5dbdf6c0a0, 0xbf7e1d37737ab070),
            (0x3fd2dc1a2f236b94, 0x3fc90134cca7edc9),
            (0xbfd22b8b44eb3420, 0x3fc573f30575a261),
            (0xbfd0544a37b9af4b, 0x3fcf53e09b1d9836),
            (0xbf58771b22290f80, 0x3fd80ed1273342e0),
        ];
        for (a, (re, im)) in state.amplitudes().iter().zip(want) {
            assert_eq!((a.re.to_bits(), a.im.to_bits()), (re, im), "{a}");
        }
    }

    #[test]
    fn non_diagonal_rotations_track_parameters() {
        let mut c = Circuit::new(2);
        c.push(Gate::RXX, &[0, 1], Parameter::free("t", 1.0));
        c.push(Gate::RYY, &[1, 0], Parameter::free("t", 0.5));
        let program = CompiledProgram::compile(&c).unwrap();
        let bound = c.bind(&[("t", 1.3)]).unwrap();
        let reference = StateVector::from_circuit(&bound).unwrap();
        let compiled = program.run(&[1.3]).unwrap();
        assert_states_close(&reference, &compiled, 1e-10);
    }

    #[test]
    fn span_shapes_follow_the_zeros_of_gates_and_chains() {
        // The span kernel's shape is read from the staged values, so a
        // chain formed at execution (`mul2`) is classified like a single
        // gate.
        use crate::batch::{stage_one_q_coeffs, Shape};
        use rand::{Rng, SeedableRng};
        fn one_q(gate: Gate, theta: f64) -> [Complex64; 4] {
            match GateMatrix::of(gate, theta) {
                GateMatrix::One(m) => m,
                GateMatrix::Two(_) => unreachable!("single-qubit gate"),
            }
        }
        let shape = |m: [Complex64; 4]| Shape::of(&stage_one_q_coeffs(&m));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(45);
        // A random unitary: RZ·RY·RZ at random angles, times a phase.
        let random_unitary = |rng: &mut rand_chacha::ChaCha8Rng| {
            let mut angle = || rng.gen_range(-3.0..3.0);
            let phase = Complex64::from_polar(1.0, angle());
            let m = mul2(
                &one_q(Gate::RZ, angle()),
                &mul2(&one_q(Gate::RY, angle()), &one_q(Gate::RZ, angle())),
            );
            m.map(|e| e * phase)
        };
        let thetas = [0.3, -1.7, 2.9];
        type Of = fn(f64, f64) -> [Complex64; 4];
        let cases: [(&str, Of, Shape); 7] = [
            ("rx", |a, _| one_q(Gate::RX, a), Shape::RxLike),
            (
                "rx·rx",
                |a, b| mul2(&one_q(Gate::RX, a), &one_q(Gate::RX, b)),
                Shape::RxLike,
            ),
            ("ry", |a, _| one_q(Gate::RY, a), Shape::Real),
            ("h", |_, _| one_q(Gate::H, 0.0), Shape::Real),
            (
                "ry·ry",
                |a, b| mul2(&one_q(Gate::RY, a), &one_q(Gate::RY, b)),
                Shape::Real,
            ),
            (
                "h·ry",
                |a, _| mul2(&one_q(Gate::H, 0.0), &one_q(Gate::RY, a)),
                Shape::Real,
            ),
            (
                "rx·ry",
                |a, b| mul2(&one_q(Gate::RX, a), &one_q(Gate::RY, b)),
                Shape::General,
            ),
        ];
        for (name, of, want) in cases {
            for t in thetas {
                assert_eq!(shape(of(t, 0.5 - t)), want, "{name}, theta {t}");
            }
        }
        for _ in 0..8 {
            assert_eq!(shape(random_unitary(&mut rng)), Shape::General);
        }
    }
}
