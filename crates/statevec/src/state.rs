//! The dense state vector and its gate-application kernels.
//!
//! The kernels are the hot loop of the whole architecture search (every
//! optimizer iteration of every candidate simulates one circuit), so they
//! avoid per-index bit tests and per-gate allocations:
//!
//! * the single-qubit kernel iterates amplitude *pairs* directly, walking
//!   blocks of `2·stride` and zipping the two halves — no bit test per index;
//! * the two-qubit kernel enumerates the `2^n / 4` base indices by
//!   bit-interleaving, so contiguous ranges of the base-index space map to
//!   disjoint amplitude quadruples and can be updated from multiple threads
//!   without collecting an index vector;
//! * a fused diagonal run of a [`crate::CompiledProgram`] is one
//!   lookup-and-multiply pass (`StateVector::apply_phase_lut`): a 4-byte
//!   index per amplitude into a few staged factors, no `sin`/`cos` per
//!   amplitude. [`StateVector::apply_phase_table`] is the dense-table
//!   reference it is pinned bitwise equal to.

use crate::error::SimulatorError;
use num_complex::Complex64;
use qcircuit::{Circuit, GateMatrix};
use std::ops::Range;

/// Raw amplitude pointer that can cross `std::thread::scope` boundaries.
///
/// Used only by the two-qubit kernels (scalar here, batched in
/// [`crate::batch`]), which partition the base-index space into disjoint
/// per-thread ranges; every base index expands to a unique amplitude
/// quadruple, so no two threads ever touch the same amplitude.
#[derive(Clone, Copy)]
pub(crate) struct AmpPtr(pub(crate) *mut Complex64);

impl AmpPtr {
    /// Accessor used inside worker closures; going through a method makes
    /// the closure capture the whole `Sync` wrapper rather than the raw
    /// pointer field (edition-2021 disjoint capture).
    pub(crate) fn get(self) -> *mut Complex64 {
        self.0
    }
}

// SAFETY: the pointer is only dereferenced at indices derived from disjoint
// base-index ranges (see `apply_two_qubit`); distinct ranges address disjoint
// amplitude quadruples, so concurrent access never aliases.
unsafe impl Send for AmpPtr {}
unsafe impl Sync for AmpPtr {}

/// The fixed work block of every kernel and reduction, in amplitudes: 2¹⁶,
/// 1 MiB of `Complex64` (× B in the batched planes).
///
/// Work is cut at block boundaries whatever the thread count, so a register
/// of up to 16 qubits is one block and runs inline on any pool, and a
/// reduction over a wider one sums block by block in the same order on one
/// thread or on many. Below this size, handing work to threads costs more
/// than it saves.
pub(crate) const BLOCK_AMPS: usize = 1 << 16;

/// The unit of the table fills (`problem_diagonal`, `maxcut_diagonal`,
/// `PhaseLut::of_terms`), 64 KiB of `f64` that stays in L2. The problem
/// diagonal and the phase angles are filled term-outer within each unit:
/// the unit starts at the entries' first value, then each term in turn adds
/// its value to every entry (`graphs::problem::add_term_values`), one pass
/// per term; `maxcut_diagonal` still loops over the edges per entry. Either
/// way splitting pays from 2¹⁴ entries, two units, and every entry sees the
/// same additions in the same order whatever the cut, so no unit changes a
/// bit.
pub(crate) const TABLE_BLOCK: usize = BLOCK_AMPS / 8;

/// Data an element-wise pass cuts into per-thread runs: an amplitude slice
/// or table, the two planes of a batch buffer, or a range of base indices.
pub(crate) trait Cut: Send + Sized {
    /// Length, in the data's own elements.
    fn len(&self) -> usize;
    /// The first `at` elements and the rest.
    fn cut(self, at: usize) -> (Self, Self);
}

impl<T: Send> Cut for &mut [T] {
    fn len(&self) -> usize {
        <[T]>::len(self)
    }
    fn cut(self, at: usize) -> (Self, Self) {
        self.split_at_mut(at)
    }
}

impl Cut for Range<usize> {
    fn len(&self) -> usize {
        ExactSizeIterator::len(self)
    }
    fn cut(self, at: usize) -> (Self, Self) {
        let mid = self.start + at;
        (self.start..mid, mid..self.end)
    }
}

impl<A: Cut, B: Cut> Cut for (A, B) {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn cut(self, at: usize) -> (Self, Self) {
        let (a0, a1) = self.0.cut(at);
        let (b0, b1) = self.1.cut(at);
        ((a0, b0), (a1, b1))
    }
}

/// Run the element-wise pass `f(run, offset)` over `data`, cut into runs of
/// whole `unit`s, one contiguous run per thread of the current pool
/// (honouring [`rayon::ThreadPool::install`]); `offset` is the run's first
/// element. A kernel's unit, in `data`'s elements, is one [`BLOCK_AMPS`]
/// block, or its pair block when that is wider, so no pair straddles two
/// runs. Each element is written by exactly one run, so the cut cannot
/// change a bit. Data of one unit, or a one-thread pool, runs inline as one
/// call.
pub(crate) fn par_blocks<D: Cut>(data: D, unit: usize, f: impl Fn(D, usize) + Sync) {
    let units = data.len().div_ceil(unit);
    // One unit never asks for the thread count, which outside a pool costs
    // a read of the host's CPU quota.
    let threads = if units > 1 {
        rayon::current_num_threads().min(units)
    } else {
        1
    };
    if threads <= 1 {
        return f(data, 0);
    }
    let run = units.div_ceil(threads) * unit;
    std::thread::scope(|scope| {
        let f = &f;
        let (mut rest, mut offset) = (data, 0);
        while rest.len() > run {
            let (head, tail) = rest.cut(run);
            scope.spawn(move || f(head, offset));
            (rest, offset) = (tail, offset + run);
        }
        f(rest, offset);
    });
}

/// `Σ_z term(z)` over `0..len` amplitudes, summed by [`BLOCK_AMPS`]
/// blocks: `partial(block)` sums one block's terms in z-order from `-0.0`
/// (the identity of f64 addition, where `Iterator::sum` starts). The block
/// partials are added in block order to `-0.0`, so a single block is
/// exactly the plain sequential sum. The blocks are spread over the pool's
/// threads, but the result depends on `len` alone, never on the thread
/// count.
pub(crate) fn par_block_sum(len: usize, partial: impl Fn(Range<usize>) -> f64 + Sync) -> f64 {
    if len <= BLOCK_AMPS {
        return partial(0..len);
    }
    let mut partials = vec![-0.0; len.div_ceil(BLOCK_AMPS)];
    par_blocks(partials.as_mut_slice(), 1, |run, offset| {
        for (i, p) in run.iter_mut().enumerate() {
            let start = (offset + i) * BLOCK_AMPS;
            *p = partial(start..(start + BLOCK_AMPS).min(len));
        }
    });
    partials.iter().fold(-0.0, |sum, p| sum + p)
}

/// Hard cap on dense-simulation width (2^30 amplitudes = 16 GiB of
/// `Complex64`; well above anything the paper's experiments need).
pub const MAX_DENSE_QUBITS: usize = 30;

/// A dense `2^n`-amplitude quantum state.
#[derive(Debug, Clone)]
pub struct StateVector {
    num_qubits: usize,
    amplitudes: Vec<Complex64>,
    /// The staged factors of the last LUT phase pass — scratch, not part of
    /// the state's value. Owned here so that re-executing a compiled program
    /// into one state allocates nothing once warm.
    phase_factors: Vec<Complex64>,
}

impl PartialEq for StateVector {
    fn eq(&self, other: &StateVector) -> bool {
        self.num_qubits == other.num_qubits && self.amplitudes == other.amplitudes
    }
}

impl StateVector {
    /// The all-zeros computational basis state `|0...0⟩`.
    pub fn zero_state(num_qubits: usize) -> Result<Self, SimulatorError> {
        if num_qubits > MAX_DENSE_QUBITS {
            return Err(SimulatorError::TooManyQubits {
                num_qubits,
                max: MAX_DENSE_QUBITS,
            });
        }
        let mut amplitudes = vec![Complex64::new(0.0, 0.0); 1usize << num_qubits];
        amplitudes[0] = Complex64::new(1.0, 0.0);
        Ok(StateVector {
            num_qubits,
            amplitudes,
            phase_factors: Vec::new(),
        })
    }

    /// The uniform superposition `|+⟩^{⊗n}` (the QAOA initial state).
    pub fn plus_state(num_qubits: usize) -> Result<Self, SimulatorError> {
        if num_qubits > MAX_DENSE_QUBITS {
            return Err(SimulatorError::TooManyQubits {
                num_qubits,
                max: MAX_DENSE_QUBITS,
            });
        }
        let dim = 1usize << num_qubits;
        let amp = Complex64::new(1.0 / (dim as f64).sqrt(), 0.0);
        Ok(StateVector {
            num_qubits,
            amplitudes: vec![amp; dim],
            phase_factors: Vec::new(),
        })
    }

    /// Build a state from raw amplitudes (length must be a power of two).
    pub fn from_amplitudes(amplitudes: Vec<Complex64>) -> Result<Self, SimulatorError> {
        if !amplitudes.len().is_power_of_two() {
            return Err(SimulatorError::InvalidAmplitudeCount {
                count: amplitudes.len(),
            });
        }
        let num_qubits = amplitudes.len().trailing_zeros() as usize;
        Ok(StateVector {
            num_qubits,
            amplitudes,
            phase_factors: Vec::new(),
        })
    }

    /// Reset to `|0...0⟩` in place, without reallocating.
    pub fn reset_zero(&mut self) {
        self.amplitudes.fill(Complex64::new(0.0, 0.0));
        self.amplitudes[0] = Complex64::new(1.0, 0.0);
    }

    /// Reset to the uniform superposition `|+⟩^{⊗n}` in place, without
    /// reallocating — one fill instead of an `H` kernel pass per qubit.
    pub fn reset_plus(&mut self) {
        let amp = Complex64::new(1.0 / (self.amplitudes.len() as f64).sqrt(), 0.0);
        self.amplitudes.fill(amp);
    }

    /// Simulate `circuit` starting from `|0...0⟩`.
    pub fn from_circuit(circuit: &Circuit) -> Result<Self, SimulatorError> {
        let mut state = StateVector::zero_state(circuit.num_qubits())?;
        state.apply_circuit(circuit)?;
        Ok(state)
    }

    /// Register width.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The raw amplitude slice (index = basis state, qubit 0 least
    /// significant).
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amplitudes
    }

    /// `⟨ψ|ψ⟩` — should remain 1 under unitary evolution.
    pub fn norm_squared(&self) -> f64 {
        self.amplitudes.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Measurement probabilities for every basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amplitudes.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Inner product `⟨self|other⟩`.
    pub fn inner_product(&self, other: &StateVector) -> Complex64 {
        assert_eq!(self.num_qubits, other.num_qubits, "state width mismatch");
        self.amplitudes
            .iter()
            .zip(&other.amplitudes)
            .map(|(a, b)| a.conj() * b)
            .sum()
    }

    /// Fidelity `|⟨self|other⟩|^2`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner_product(other).norm_sqr()
    }

    /// Apply every instruction of a (fully bound) circuit in order.
    pub fn apply_circuit(&mut self, circuit: &Circuit) -> Result<(), SimulatorError> {
        for inst in circuit.instructions() {
            let matrix = inst.matrix(&|name| {
                // No external assignments: free parameters are an error.
                let _ = name;
                None
            });
            match matrix {
                Some(m) => self.apply_matrix(&m, &inst.qubits),
                None => {
                    let name = inst.parameter.name().unwrap_or("<unknown>").to_string();
                    return Err(SimulatorError::UnboundParameter { name });
                }
            }
        }
        Ok(())
    }

    /// Apply a gate matrix to the given qubit operands.
    pub fn apply_matrix(&mut self, matrix: &GateMatrix, qubits: &[usize]) {
        match matrix {
            GateMatrix::One(m) => self.apply_single_qubit(m, qubits[0]),
            GateMatrix::Two(m) => self.apply_two_qubit(m, qubits[0], qubits[1]),
        }
    }

    /// Apply a 2×2 matrix to qubit `target`.
    ///
    /// Stride-free kernel: each block of `2·stride` amplitudes is split into
    /// its lower and upper halves and the pairs are updated by zipping the two
    /// halves — no per-index bit test. Runs handed to worker threads are
    /// multiples of the block size, so pairs never straddle a run boundary.
    pub fn apply_single_qubit(&mut self, m: &[Complex64; 4], target: usize) {
        // A hard check, not a debug_assert: an out-of-range target would make
        // `block` exceed the slice and silently skip the gate.
        assert!(
            target < self.num_qubits,
            "qubit {target} out of range for a {}-qubit state",
            self.num_qubits
        );
        let stride = 1usize << target;
        let block = 2 * stride;
        let (m00, m01, m10, m11) = (m[0], m[1], m[2], m[3]);

        let unit = BLOCK_AMPS.max(block);
        par_blocks(self.amplitudes.as_mut_slice(), unit, |run, _| {
            for pairs in run.chunks_exact_mut(block) {
                let (lo, hi) = pairs.split_at_mut(stride);
                for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                    let x = *a;
                    let y = *b;
                    *a = m00 * x + m01 * y;
                    *b = m10 * x + m11 * y;
                }
            }
        });
    }

    /// Apply a 4×4 matrix to the ordered pair `(q1, q0)`; the matrix basis is
    /// `|q1 q0⟩` with `q1` the most-significant bit (matching
    /// [`qcircuit::GateMatrix`]'s convention where the first operand is the
    /// control / first tensor factor).
    /// Bit-interleaved kernel: the `2^n / 4` base indices (both operand bits
    /// clear) are enumerated directly by expanding a dense counter `k` —
    /// inserting zero bits at the two operand positions — instead of testing
    /// every index. Contiguous ranges of `k` map to disjoint amplitude
    /// quadruples, so the range is split across worker threads with no index
    /// vector.
    pub fn apply_two_qubit(&mut self, m: &[Complex64; 16], q1: usize, q0: usize) {
        // Hard checks, not debug_asserts: the kernel below writes through raw
        // pointers, so invalid operands must panic rather than corrupt memory.
        assert!(q1 != q0, "two-qubit gate needs distinct operands, got {q1}");
        assert!(
            q1 < self.num_qubits && q0 < self.num_qubits,
            "qubits ({q1}, {q0}) out of range for a {}-qubit state",
            self.num_qubits
        );
        let bit1 = 1usize << q1;
        let bit0 = 1usize << q0;
        let (lo, hi) = (q1.min(q0), q1.max(q0));
        // k's bits [0, lo) stay put, bits [lo, hi-1) shift up one, the rest
        // shift up two — leaving zeros at positions `lo` and `hi`.
        let lo_mask = (1usize << lo) - 1;
        let mid_mask = ((1usize << (hi - 1)) - 1) & !lo_mask;
        let hi_mask = !(lo_mask | mid_mask);
        let quads = self.amplitudes.len() / 4;
        let m = *m;

        let ptr = AmpPtr(self.amplitudes.as_mut_ptr());
        par_blocks(0..quads, BLOCK_AMPS / 4, |range, _| {
            let amps = ptr.get();
            for k in range {
                let base = (k & lo_mask) | ((k & mid_mask) << 1) | ((k & hi_mask) << 2);
                let i00 = base;
                let i01 = base | bit0;
                let i10 = base | bit1;
                let i11 = base | bit1 | bit0;
                // SAFETY: `base` has both operand bits clear and the expansion
                // k -> base is injective, so the quadruples of distinct k are
                // disjoint; the per-thread ranges of k are disjoint too, hence
                // no aliasing. All four indices are < 2^n by construction.
                unsafe {
                    let a00 = *amps.add(i00);
                    let a01 = *amps.add(i01);
                    let a10 = *amps.add(i10);
                    let a11 = *amps.add(i11);
                    // Matrix basis order: |00>, |01>, |10>, |11> with q1 as MSB.
                    *amps.add(i00) = m[0] * a00 + m[1] * a01 + m[2] * a10 + m[3] * a11;
                    *amps.add(i01) = m[4] * a00 + m[5] * a01 + m[6] * a10 + m[7] * a11;
                    *amps.add(i10) = m[8] * a00 + m[9] * a01 + m[10] * a10 + m[11] * a11;
                    *amps.add(i11) = m[12] * a00 + m[13] * a01 + m[14] * a10 + m[15] * a11;
                }
            }
        });
    }

    /// Multiply every amplitude by `e^{i·scale·angles[z]}`, one `sin`/`cos`
    /// pair per amplitude: the dense-table reference of the fused
    /// diagonal-phase pass. [`crate::CompiledProgram`] executes the same pass
    /// from a distinct-value LUT (`apply_phase_lut`), pinned bitwise equal to
    /// this.
    pub fn apply_phase_table(&mut self, angles: &[f64], scale: f64) -> Result<(), SimulatorError> {
        if angles.len() != self.amplitudes.len() {
            return Err(SimulatorError::DimensionMismatch {
                observable: angles.len(),
                state: self.amplitudes.len(),
            });
        }
        par_blocks(self.amplitudes.as_mut_slice(), BLOCK_AMPS, |run, offset| {
            for (a, &theta) in run.iter_mut().zip(&angles[offset..]) {
                *a *= Complex64::from_polar(1.0, scale * theta);
            }
        });
        Ok(())
    }

    /// Multiply amplitude `z` by `factors[index[z]]` — the fused
    /// diagonal-phase pass of [`crate::CompiledProgram`]: one 4-byte index
    /// load, one factor lookup and one complex multiply per amplitude.
    /// `stage` fills the (cleared) state-owned factor buffer first; its
    /// capacity survives across calls.
    pub(crate) fn apply_phase_lut(
        &mut self,
        index: &[u32],
        stage: impl FnOnce(&mut Vec<Complex64>),
    ) {
        assert_eq!(
            index.len(),
            self.amplitudes.len(),
            "one LUT index per amplitude"
        );
        self.phase_factors.clear();
        stage(&mut self.phase_factors);
        let factors = self.phase_factors.as_slice();
        par_blocks(self.amplitudes.as_mut_slice(), BLOCK_AMPS, |run, offset| {
            for (a, &v) in run.iter_mut().zip(&index[offset..]) {
                *a *= factors[v as usize];
            }
        });
    }

    /// Expectation value `⟨ψ| D |ψ⟩` of a diagonal observable given as its
    /// diagonal entries (length `2^n`), summed block by block over fixed
    /// 2¹⁶-amplitude blocks: the bits depend on `n`, never on the thread
    /// count.
    pub fn expectation_diagonal(&self, diagonal: &[f64]) -> Result<f64, SimulatorError> {
        if diagonal.len() != self.amplitudes.len() {
            return Err(SimulatorError::DimensionMismatch {
                observable: diagonal.len(),
                state: self.amplitudes.len(),
            });
        }
        Ok(par_block_sum(self.amplitudes.len(), |range| {
            self.amplitudes[range.clone()]
                .iter()
                .zip(&diagonal[range])
                .map(|(a, d)| a.norm_sqr() * d)
                .sum::<f64>()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::{Gate, Parameter};
    use std::f64::consts::{FRAC_1_SQRT_2, PI};

    #[test]
    fn zero_state_is_normalized() {
        let s = StateVector::zero_state(3).unwrap();
        assert_eq!(s.amplitudes().len(), 8);
        assert!((s.norm_squared() - 1.0).abs() < 1e-12);
        assert!((s.amplitudes()[0].re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn plus_state_is_uniform() {
        let s = StateVector::plus_state(4).unwrap();
        for p in s.probabilities() {
            assert!((p - 1.0 / 16.0).abs() < 1e-12);
        }
    }

    #[test]
    fn too_many_qubits_is_rejected() {
        assert!(matches!(
            StateVector::zero_state(31),
            Err(SimulatorError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn hadamard_creates_superposition() {
        let mut c = Circuit::new(1);
        c.h(0);
        let s = StateVector::from_circuit(&c).unwrap();
        assert!((s.amplitudes()[0].re - FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((s.amplitudes()[1].re - FRAC_1_SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn x_flips_the_qubit() {
        let mut c = Circuit::new(2);
        c.x(1);
        let s = StateVector::from_circuit(&c).unwrap();
        assert!((s.probabilities()[0b10] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bell_state_via_h_cx() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let s = StateVector::from_circuit(&c).unwrap();
        let p = s.probabilities();
        assert!((p[0b00] - 0.5).abs() < 1e-12);
        assert!((p[0b11] - 0.5).abs() < 1e-12);
        assert!(p[0b01] < 1e-12 && p[0b10] < 1e-12);
    }

    #[test]
    fn cx_control_qubit_convention() {
        // Control = qubit 1 (first operand), target = qubit 0.
        let mut c = Circuit::new(2);
        c.x(1); // set control
        c.cx(1, 0);
        let s = StateVector::from_circuit(&c).unwrap();
        assert!((s.probabilities()[0b11] - 1.0).abs() < 1e-12);

        // Control not set: nothing happens.
        let mut c2 = Circuit::new(2);
        c2.cx(1, 0);
        let s2 = StateVector::from_circuit(&c2).unwrap();
        assert!((s2.probabilities()[0b00] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rx_pi_acts_like_x() {
        let mut c = Circuit::new(1);
        c.rx(0, PI);
        let s = StateVector::from_circuit(&c).unwrap();
        assert!((s.probabilities()[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rz_only_changes_phase() {
        let mut c = Circuit::new(1);
        c.h(0).rz(0, 1.234);
        let s = StateVector::from_circuit(&c).unwrap();
        let p = s.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rzz_introduces_correlated_phase() {
        // On |++>, RZZ followed by the inverse rotation must return to |++>.
        let mut c = Circuit::new(2);
        c.h(0).h(1).rzz(0, 1, 0.8).rzz(0, 1, -0.8);
        let s = StateVector::from_circuit(&c).unwrap();
        let plus = StateVector::plus_state(2).unwrap();
        assert!((s.fidelity(&plus) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn norm_is_preserved_by_random_circuit() {
        let mut c = Circuit::new(4);
        c.h_layer();
        c.rx(0, 0.3).ry(1, 1.1).rz(2, -0.4);
        c.cx(0, 1).cz(2, 3).rzz(1, 2, 0.9);
        c.push(Gate::SWAP, &[0, 3], Parameter::None);
        let s = StateVector::from_circuit(&c).unwrap();
        assert!((s.norm_squared() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn unbound_parameter_is_an_error() {
        let mut c = Circuit::new(1);
        c.push(Gate::RX, &[0], Parameter::free("beta", 1.0));
        assert!(matches!(
            StateVector::from_circuit(&c),
            Err(SimulatorError::UnboundParameter { .. })
        ));
    }

    #[test]
    fn expectation_of_diagonal_observable() {
        let mut c = Circuit::new(1);
        c.h(0);
        let s = StateVector::from_circuit(&c).unwrap();
        // Observable Z has diagonal (+1, -1): expectation on |+> is 0.
        let z = s.expectation_diagonal(&[1.0, -1.0]).unwrap();
        assert!(z.abs() < 1e-12);
        // On |0> it is +1.
        let s0 = StateVector::zero_state(1).unwrap();
        assert!((s0.expectation_diagonal(&[1.0, -1.0]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expectation_dimension_mismatch() {
        let s = StateVector::zero_state(2).unwrap();
        assert!(matches!(
            s.expectation_diagonal(&[1.0, 2.0]),
            Err(SimulatorError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut c = Circuit::new(2);
        c.x(0);
        c.push(Gate::SWAP, &[0, 1], Parameter::None);
        let s = StateVector::from_circuit(&c).unwrap();
        assert!((s.probabilities()[0b10] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_kernels_agree_with_naive_application() {
        // One block (15 qubits) and two blocks (17 qubits), so on a pool of
        // two or more threads the single-qubit, two-qubit and phase-table
        // passes also run split; the reference is a naive bit-test
        // implementation.
        for n in [15, 17] {
            let mut c = Circuit::new(n);
            c.h_layer();
            c.rzz(0, 7, 0.9).rzz(3, 14, -0.4).rx(5, 1.3);
            let mut state = StateVector::from_circuit(&c).unwrap();
            let mut naive = state.amplitudes().to_vec();

            // Single-qubit RY on qubit 11.
            let (m1, t1) = (GateMatrix::of(Gate::RY, 0.77), 11usize);
            // Two-qubit RXX on (n - 1, 2) — includes the top qubit, the worst
            // case for chunk-based parallel schemes.
            let (m2, q1, q0) = (GateMatrix::of(Gate::RXX, -1.1), n - 1, 2usize);
            state.apply_matrix(&m1, &[t1]);
            state.apply_matrix(&m2, &[q1, q0]);

            if let GateMatrix::One(m) = &m1 {
                let stride = 1usize << t1;
                for idx in 0..naive.len() {
                    if idx & stride == 0 {
                        let a = naive[idx];
                        let b = naive[idx | stride];
                        naive[idx] = m[0] * a + m[1] * b;
                        naive[idx | stride] = m[2] * a + m[3] * b;
                    }
                }
            }
            if let GateMatrix::Two(m) = &m2 {
                let (bit1, bit0) = (1usize << q1, 1usize << q0);
                for idx in 0..naive.len() {
                    if idx & bit1 == 0 && idx & bit0 == 0 {
                        let (i00, i01, i10, i11) = (idx, idx | bit0, idx | bit1, idx | bit1 | bit0);
                        let (a00, a01, a10, a11) = (naive[i00], naive[i01], naive[i10], naive[i11]);
                        naive[i00] = m[0] * a00 + m[1] * a01 + m[2] * a10 + m[3] * a11;
                        naive[i01] = m[4] * a00 + m[5] * a01 + m[6] * a10 + m[7] * a11;
                        naive[i10] = m[8] * a00 + m[9] * a01 + m[10] * a10 + m[11] * a11;
                        naive[i11] = m[12] * a00 + m[13] * a01 + m[14] * a10 + m[15] * a11;
                    }
                }
            }
            for (a, b) in state.amplitudes().iter().zip(&naive) {
                assert!((a - b).norm() < 1e-12);
            }

            // Phase table: a parameter-scaled diagonal pass must equal per-index
            // multiplication.
            let angles: Vec<f64> = (0..naive.len()).map(|z| (z % 7) as f64 * 0.3).collect();
            state.apply_phase_table(&angles, 0.5).unwrap();
            for (idx, b) in naive.iter_mut().enumerate() {
                *b *= Complex64::from_polar(1.0, 0.5 * angles[idx]);
            }
            for (a, b) in state.amplitudes().iter().zip(&naive) {
                assert!((a - b).norm() < 1e-12);
            }
        }
    }

    #[test]
    fn block_sum_is_the_sequential_sum_in_fixed_blocks() {
        let pool = |threads| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
        };
        let term = |z: usize| ((z * 7919) % 1013) as f64 * 1e-3 - 0.37;
        let block_sum =
            |terms: &[f64]| par_block_sum(terms.len(), |range| terms[range].iter().sum());

        // One block is the plain sequential sum, on any pool, down to the
        // sign of a zero total.
        let one: Vec<f64> = (0..BLOCK_AMPS).map(term).collect();
        let signed_zeros = [-0.0; 8];
        for threads in [1, 4] {
            pool(threads).install(|| {
                for terms in [&one[..], &signed_zeros[..]] {
                    let want: f64 = terms.iter().sum();
                    assert_eq!(block_sum(terms).to_bits(), want.to_bits());
                }
            });
        }
        assert!(block_sum(&signed_zeros).is_sign_negative());

        // Four blocks: their partials added in block order, at every
        // thread count.
        let four: Vec<f64> = (0..4 * BLOCK_AMPS).map(term).collect();
        let want = four
            .chunks(BLOCK_AMPS)
            .map(|block| block.iter().sum::<f64>())
            .fold(-0.0, |acc, p| acc + p);
        assert_ne!(want.to_bits(), four.iter().sum::<f64>().to_bits());
        for threads in [1, 2, 3, 4] {
            let got = pool(threads).install(|| block_sum(&four));
            assert_eq!(got.to_bits(), want.to_bits(), "{threads} threads");
        }
    }

    #[test]
    fn parallel_kernels_agree_across_multiple_worker_threads() {
        // Run in a 4-thread pool and check the kernels against a run in the
        // default pool. At 15 qubits (one block) they stay inline in any
        // pool; the two-block split is covered at 17 qubits above.
        let n = 15;
        let mut c = Circuit::new(n);
        c.h_layer();
        c.rzz(2, 9, 0.6).rx(0, 0.8).ry(n - 1, -0.5);
        let reference = StateVector::from_circuit(&c).unwrap();

        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let threaded = pool.install(|| {
            let mut s = StateVector::from_circuit(&c).unwrap();
            let m2 = GateMatrix::of(Gate::RXX, 1.9);
            s.apply_matrix(&m2, &[n - 1, 3]);
            s
        });
        let mut expected = reference.clone();
        expected.apply_matrix(&GateMatrix::of(Gate::RXX, 1.9), &[n - 1, 3]);
        for (a, b) in threaded.amplitudes().iter().zip(expected.amplitudes()) {
            assert!((a - b).norm() < 1e-12);
        }
        assert!((threaded.norm_squared() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn from_amplitudes_rejects_non_power_of_two() {
        let amps = vec![Complex64::new(1.0, 0.0); 3];
        assert!(matches!(
            StateVector::from_amplitudes(amps),
            Err(SimulatorError::InvalidAmplitudeCount { count: 3 })
        ));
        let ok =
            StateVector::from_amplitudes(vec![Complex64::new(1.0, 0.0), Complex64::new(0.0, 0.0)])
                .unwrap();
        assert_eq!(ok.num_qubits(), 1);
    }

    #[test]
    fn reset_zero_restores_the_zero_state() {
        let mut c = Circuit::new(3);
        c.h_layer();
        let mut s = StateVector::from_circuit(&c).unwrap();
        s.reset_zero();
        assert_eq!(s, StateVector::zero_state(3).unwrap());
    }

    #[test]
    fn inner_product_of_orthogonal_states_is_zero() {
        let s0 = StateVector::zero_state(2).unwrap();
        let mut c = Circuit::new(2);
        c.x(0);
        let s1 = StateVector::from_circuit(&c).unwrap();
        assert!(s0.inner_product(&s1).norm() < 1e-12);
        assert!((s0.inner_product(&s0).re - 1.0).abs() < 1e-12);
    }
}
