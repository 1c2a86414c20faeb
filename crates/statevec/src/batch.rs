//! Structure-of-arrays amplitude buffer for batched circuit execution.
//!
//! [`BatchStateVector`] holds `B` dense states in two f64 planes (real and
//! imaginary), each interleaved amplitude-major × batch-minor: element `b` of
//! amplitude `z` lives at `re[z * batch + b]` / `im[z * batch + b]`. That
//! layout buys two things over `B` independent `Vec<Complex64>` states:
//!
//! * every kernel streams `B` states per basis-index visit — one angle-table
//!   lookup (or one pair/quad index computation) amortizes over the whole
//!   batch;
//! * the inner `b` loop reads and writes contiguous pure-f64 runs with no
//!   real/imaginary interleaving, so the explicit arithmetic in the kernels
//!   below compiles to packed f64 multiplies and adds (interleaved
//!   `Complex64` forces shuffle-heavy codegen that pins throughput at scalar
//!   FP rates).
//!
//! **Two builds of the hot kernels.** The single-qubit span kernel and the
//! phase pass are each one `#[inline(always)]` body compiled twice: into the
//! portable entry (baseline x86-64: SSE2, two f64 lanes) and into an
//! `unsafe` wrapper compiled with the `avx2` target feature (four lanes).
//! Every call runs the AVX2 build when
//! `is_x86_feature_detected!("avx2")` holds (a cached CPU flag; nothing
//! else selects the arm). `fma` stays off and no FMA intrinsic is used, and
//! Rust never contracts `a * b + c` into one rounding on its own, so both
//! builds round every product and sum the same way: the arm never changes a
//! bit, and the portable build is the AVX2 build's oracle.
//!
//! On top of the layout, `BatchStateVector::apply_single_qubit_run_batch`
//! executes a whole *run* of single-qubit gates (e.g. one QAOA mixer layer)
//! in a single cache-blocked sweep: the buffer is walked once in L2-sized
//! blocks and every low-stride gate of the run is applied while a block is
//! hot, instead of one full-memory pass per gate.
//!
//! This is the executor of every compiled energy evaluation, `B = 1`
//! included: an optimizer that asks for one point at a time (COBYLA) runs
//! here too. At `B = 1` the planes are plain amplitude arrays: the
//! single-qubit span kernel runs its compile-time `B = 1` instance, and the
//! phase and expectation kernels take plain-slice bodies that loop across
//! amplitudes instead of across the batch. A program that opens with
//! `|+⟩^{⊗n}` and a phase pass writes both in one pass
//! (`BatchStateVector::reset_plus_then_phase_lut`). The scalar
//! [`StateVector`] interpreter stays as the reference.
//!
//! **Bit-identity contract.** Every kernel performs, per batch element, the
//! exact same sequence of f64 operations as the scalar [`StateVector`]
//! kernels in [`crate::state`] — identical expression trees (the explicit
//! real/imaginary forms below are the textual expansion of `num_complex`'s
//! `Mul`/`Add`), identical per-amplitude gate order (cache blocking reorders
//! *which block* is touched first, never the op order any single amplitude
//! sees), and the same fixed 2¹⁶-amplitude blocks (batch elements are
//! independent, so run boundaries in the amplitude dimension cannot change
//! any element's arithmetic; the diagonal-expectation reduction sums the
//! same blocks in the same order as the scalar one). A batch run therefore
//! produces bit-for-bit the same amplitudes and energies as `B` scalar runs,
//! for any batch size and any thread count.

use crate::error::SimulatorError;
use crate::state::{par_block_sum, par_blocks, StateVector, BLOCK_AMPS, MAX_DENSE_QUBITS};
use num_complex::Complex64;

/// Per-execution scratch owned by the batch buffer so repeated
/// [`crate::CompiledProgram::execute_batch_into`] calls are allocation-free
/// once warm: per-element gate matrices, the distinct-angle phase-factor
/// planes, and the staged SoA gate coefficients for fused runs. Taken out of
/// the buffer during execution (to sidestep aliasing with the amplitude
/// data) and restored afterwards.
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchExecScratch {
    /// One 2×2 matrix per batch element for single-qubit ops (for fused
    /// runs: gate-major × batch-minor, `ngates * batch` entries).
    pub(crate) mat1: Vec<[Complex64; 4]>,
    /// One 4×4 matrix per batch element for two-qubit ops.
    pub(crate) mat2: Vec<[Complex64; 16]>,
    /// Phase factors, distinct-value-major × batch-minor:
    /// `factors_re/im[v * batch + b] = e^{i·scale_b·values[v]}`.
    pub(crate) factors_re: Vec<f64>,
    pub(crate) factors_im: Vec<f64>,
    /// Targets of the single-qubit gates in the current fused run.
    pub(crate) run_targets: Vec<usize>,
    /// SoA coefficient staging for fused runs.
    pub(crate) coef: Vec<f64>,
}

/// Raw f64 plane pointer for the scoped-disjoint-index kernels (same
/// pattern as `state::AmpPtr`).
#[derive(Clone, Copy)]
struct PlanePtr(*mut f64);

impl PlanePtr {
    fn get(self) -> *mut f64 {
        self.0
    }
}

// SAFETY: dereferenced only at indices derived from disjoint base-index
// ranges (see `apply_two_qubit_batch`); distinct ranges address disjoint
// rows, so concurrent workers never alias.
unsafe impl Send for PlanePtr {}
unsafe impl Sync for PlanePtr {}

/// Cache block, in amplitudes, for fused single-qubit runs: the largest
/// power of two keeping one block of both planes within ~256 KiB, so a run
/// of low-stride gates replays against L2 instead of streaming memory once
/// per gate.
pub(crate) fn run_block_amps(batch: usize) -> usize {
    let amps = ((1usize << 18) / (16 * batch.max(1))).max(2);
    1usize << (usize::BITS - 1 - amps.leading_zeros())
}

/// Apply one staged single-qubit gate to a contiguous span of the planes.
///
/// `c` holds the 2×2 matrix entry-major × batch-minor (`c[j*batch + b]` =
/// entry `j/2`'s re (even `j`) or im (odd `j`) for element `b`). The span
/// length must be a multiple of `2 * target_stride * batch`. The expression
/// tree per element is exactly `m[0]*x + m[1]*y` / `m[2]*x + m[3]*y` over
/// `Complex64` — same multiplies, same subtraction/addition order — so the
/// result is bit-identical to the scalar kernel.
///
/// Runs [`one_q_span_avx2`] when the CPU has AVX2, [`one_q_span`] otherwise;
/// both compile the same body, so the arm never changes a bit.
#[inline]
fn apply_one_q_span(re: &mut [f64], im: &mut [f64], c: &[f64], batch: usize, target_stride: usize) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2.
        return unsafe { one_q_span_avx2(re, im, c, batch, target_stride) };
    }
    one_q_span(re, im, c, batch, target_stride)
}

/// [`one_q_span`] compiled with AVX2 enabled: four f64 lanes instead of
/// baseline x86-64's two. `fma` stays off, and Rust never contracts
/// `a * b + c` on its own, so both builds round every product and sum
/// separately and give the same bits.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn one_q_span_avx2(
    re: &mut [f64],
    im: &mut [f64],
    c: &[f64],
    batch: usize,
    target_stride: usize,
) {
    one_q_span(re, im, c, batch, target_stride)
}

/// The span kernel's body, inlined into the portable entry and into the
/// AVX2 build alike.
#[inline(always)]
fn one_q_span(re: &mut [f64], im: &mut [f64], c: &[f64], batch: usize, target_stride: usize) {
    // Monomorphize the power-of-two batch widths `preferred_batch_tile`
    // produces: a compile-time trip count lets the inner loop unroll and
    // vectorize (the arithmetic itself is unchanged, so results are
    // bit-identical whichever body runs).
    match batch {
        1 => apply_one_q_span_b::<1>(re, im, c, target_stride),
        2 => apply_one_q_span_b::<2>(re, im, c, target_stride),
        4 => apply_one_q_span_b::<4>(re, im, c, target_stride),
        8 => apply_one_q_span_b::<8>(re, im, c, target_stride),
        16 => apply_one_q_span_b::<16>(re, im, c, target_stride),
        32 => apply_one_q_span_b::<32>(re, im, c, target_stride),
        _ => apply_one_q_span_dyn(re, im, c, batch, target_stride),
    }
}

#[inline(always)]
fn apply_one_q_span_b<const B: usize>(
    re: &mut [f64],
    im: &mut [f64],
    c: &[f64],
    target_stride: usize,
) {
    let mut cc = [[0.0f64; B]; 8];
    for (j, row) in cc.iter_mut().enumerate() {
        row.copy_from_slice(&c[j * B..(j + 1) * B]);
    }
    let row_stride = target_stride * B;
    let row_block = 2 * row_stride;
    for (re_pairs, im_pairs) in re
        .chunks_exact_mut(row_block)
        .zip(im.chunks_exact_mut(row_block))
    {
        let (lo_re, hi_re) = re_pairs.split_at_mut(row_stride);
        let (lo_im, hi_im) = im_pairs.split_at_mut(row_stride);
        for (((lo_re_row, hi_re_row), lo_im_row), hi_im_row) in lo_re
            .chunks_exact_mut(B)
            .zip(hi_re.chunks_exact_mut(B))
            .zip(lo_im.chunks_exact_mut(B))
            .zip(hi_im.chunks_exact_mut(B))
        {
            let lo_re_row: &mut [f64; B] = lo_re_row.try_into().unwrap();
            let hi_re_row: &mut [f64; B] = hi_re_row.try_into().unwrap();
            let lo_im_row: &mut [f64; B] = lo_im_row.try_into().unwrap();
            let hi_im_row: &mut [f64; B] = hi_im_row.try_into().unwrap();
            for b in 0..B {
                let xre = lo_re_row[b];
                let xim = lo_im_row[b];
                let yre = hi_re_row[b];
                let yim = hi_im_row[b];
                lo_re_row[b] =
                    (cc[0][b] * xre - cc[1][b] * xim) + (cc[2][b] * yre - cc[3][b] * yim);
                lo_im_row[b] =
                    (cc[0][b] * xim + cc[1][b] * xre) + (cc[2][b] * yim + cc[3][b] * yre);
                hi_re_row[b] =
                    (cc[4][b] * xre - cc[5][b] * xim) + (cc[6][b] * yre - cc[7][b] * yim);
                hi_im_row[b] =
                    (cc[4][b] * xim + cc[5][b] * xre) + (cc[6][b] * yim + cc[7][b] * yre);
            }
        }
    }
}

#[inline(always)]
fn apply_one_q_span_dyn(
    re: &mut [f64],
    im: &mut [f64],
    c: &[f64],
    batch: usize,
    target_stride: usize,
) {
    let row_stride = target_stride * batch;
    let row_block = 2 * row_stride;
    for (re_pairs, im_pairs) in re
        .chunks_exact_mut(row_block)
        .zip(im.chunks_exact_mut(row_block))
    {
        let (lo_re, hi_re) = re_pairs.split_at_mut(row_stride);
        let (lo_im, hi_im) = im_pairs.split_at_mut(row_stride);
        for (((lo_re_row, hi_re_row), lo_im_row), hi_im_row) in lo_re
            .chunks_exact_mut(batch)
            .zip(hi_re.chunks_exact_mut(batch))
            .zip(lo_im.chunks_exact_mut(batch))
            .zip(hi_im.chunks_exact_mut(batch))
        {
            for b in 0..batch {
                let xre = lo_re_row[b];
                let xim = lo_im_row[b];
                let yre = hi_re_row[b];
                let yim = hi_im_row[b];
                lo_re_row[b] = (c[b] * xre - c[batch + b] * xim)
                    + (c[2 * batch + b] * yre - c[3 * batch + b] * yim);
                lo_im_row[b] = (c[b] * xim + c[batch + b] * xre)
                    + (c[2 * batch + b] * yim + c[3 * batch + b] * yre);
                hi_re_row[b] = (c[4 * batch + b] * xre - c[5 * batch + b] * xim)
                    + (c[6 * batch + b] * yre - c[7 * batch + b] * yim);
                hi_im_row[b] = (c[4 * batch + b] * xim + c[5 * batch + b] * xre)
                    + (c[6 * batch + b] * yim + c[7 * batch + b] * yre);
            }
        }
    }
}

/// Stage per-element 2×2 matrices entry-major × batch-minor into `out[at..]`.
fn stage_one_q_coeffs(ms: &[[Complex64; 4]], batch: usize, out: &mut [f64]) {
    for (b, m) in ms.iter().enumerate() {
        for (j, entry) in m.iter().enumerate() {
            out[2 * j * batch + b] = entry.re;
            out[(2 * j + 1) * batch + b] = entry.im;
        }
    }
}

/// Multiply element `b` of the span's amplitude `z` by the factor at
/// `index[z] * batch + b` — the expansion of `num_complex`'s `MulAssign`.
/// `FROM_PLUS` takes every input amplitude to be the plus state's
/// `(plus, +0.0)` instead of reading it. Runs [`phase_lut_span_avx2`] when
/// the CPU has AVX2, [`phase_lut_span`] otherwise; both compile the same
/// body.
#[inline]
fn apply_phase_lut_span<const FROM_PLUS: bool>(
    re: &mut [f64],
    im: &mut [f64],
    index: &[u32],
    fre: &[f64],
    fim: &[f64],
    batch: usize,
    plus: f64,
) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2.
        return unsafe { phase_lut_span_avx2::<FROM_PLUS>(re, im, index, fre, fim, batch, plus) };
    }
    phase_lut_span::<FROM_PLUS>(re, im, index, fre, fim, batch, plus)
}

/// [`phase_lut_span`] compiled with AVX2 enabled and `fma` off, for the
/// same reason as [`one_q_span_avx2`].
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn phase_lut_span_avx2<const FROM_PLUS: bool>(
    re: &mut [f64],
    im: &mut [f64],
    index: &[u32],
    fre: &[f64],
    fim: &[f64],
    batch: usize,
    plus: f64,
) {
    phase_lut_span::<FROM_PLUS>(re, im, index, fre, fim, batch, plus)
}

/// The phase pass's body, inlined into the portable entry and into the
/// AVX2 build alike. At `B = 1` the planes are plain amplitude arrays and
/// the loop runs across amplitudes.
#[inline(always)]
fn phase_lut_span<const FROM_PLUS: bool>(
    re: &mut [f64],
    im: &mut [f64],
    index: &[u32],
    fre: &[f64],
    fim: &[f64],
    batch: usize,
    plus: f64,
) {
    let amp = |re: f64, im: f64| if FROM_PLUS { (plus, 0.0) } else { (re, im) };
    if batch == 1 {
        for ((re, im), &v) in re.iter_mut().zip(im.iter_mut()).zip(index) {
            let (fre, fim) = (fre[v as usize], fim[v as usize]);
            let (are, aim) = amp(*re, *im);
            *re = are * fre - aim * fim;
            *im = are * fim + aim * fre;
        }
        return;
    }
    for ((re_row, im_row), &v) in re
        .chunks_exact_mut(batch)
        .zip(im.chunks_exact_mut(batch))
        .zip(index)
    {
        let fre = &fre[v as usize * batch..(v as usize + 1) * batch];
        let fim = &fim[v as usize * batch..(v as usize + 1) * batch];
        for b in 0..batch {
            let (are, aim) = amp(re_row[b], im_row[b]);
            re_row[b] = are * fre[b] - aim * fim[b];
            im_row[b] = are * fim[b] + aim * fre[b];
        }
    }
}

/// `B` dense `2^n`-amplitude states in one structure-of-arrays buffer.
#[derive(Debug, Clone)]
pub struct BatchStateVector {
    num_qubits: usize,
    batch: usize,
    /// Real plane, amplitude-major × batch-minor: `re[z * batch + b]`.
    re: Vec<f64>,
    /// Imaginary plane, same layout.
    im: Vec<f64>,
    scratch: BatchExecScratch,
}

impl BatchStateVector {
    /// `B` copies of the all-zeros state `|0...0⟩`.
    pub fn zero_states(num_qubits: usize, batch: usize) -> Result<Self, SimulatorError> {
        assert!(batch >= 1, "batch size must be at least 1");
        if num_qubits > MAX_DENSE_QUBITS {
            return Err(SimulatorError::TooManyQubits {
                num_qubits,
                max: MAX_DENSE_QUBITS,
            });
        }
        let dim = 1usize << num_qubits;
        let mut out = BatchStateVector {
            num_qubits,
            batch,
            re: vec![0.0; dim * batch],
            im: vec![0.0; dim * batch],
            scratch: BatchExecScratch::default(),
        };
        out.reset_zero();
        Ok(out)
    }

    /// Register width shared by every element.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of states in the batch.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Change the batch size in place, keeping the allocation when capacity
    /// suffices (amplitudes are left unspecified — callers reset before
    /// executing). Lets one buffer serve varying tile sizes without
    /// reallocating every call.
    pub fn resize_batch(&mut self, batch: usize) {
        assert!(batch >= 1, "batch size must be at least 1");
        let dim = 1usize << self.num_qubits;
        self.batch = batch;
        self.re.resize(dim * batch, 0.0);
        self.im.resize(dim * batch, 0.0);
    }

    /// Reset every element to `|0...0⟩` in place.
    pub fn reset_zero(&mut self) {
        self.re.fill(0.0);
        self.im.fill(0.0);
        self.re[..self.batch].fill(1.0);
    }

    /// Reset every element to the uniform superposition `|+⟩^{⊗n}` in place.
    /// The fill value depends only on the dimension, so it is bit-identical
    /// to [`StateVector::reset_plus`].
    pub fn reset_plus(&mut self) {
        let dim = 1usize << self.num_qubits;
        self.re.fill(1.0 / (dim as f64).sqrt());
        self.im.fill(0.0);
    }

    /// Extract element `b` as a standalone [`StateVector`] (gather copy).
    pub fn state(&self, b: usize) -> StateVector {
        assert!(b < self.batch, "batch element {b} out of range");
        let dim = 1usize << self.num_qubits;
        let amps: Vec<Complex64> = (0..dim)
            .map(|z| Complex64::new(self.re[z * self.batch + b], self.im[z * self.batch + b]))
            .collect();
        StateVector::from_amplitudes(amps).expect("2^n amplitudes")
    }

    pub(crate) fn take_exec_scratch(&mut self) -> BatchExecScratch {
        std::mem::take(&mut self.scratch)
    }

    pub(crate) fn restore_exec_scratch(&mut self, scratch: BatchExecScratch) {
        self.scratch = scratch;
    }

    /// Apply a per-element 2×2 matrix (`ms[b]` to element `b`) to qubit
    /// `target` of every state. Same pair-walking structure as
    /// [`StateVector::apply_single_qubit`], with each amplitude pair widened
    /// to a contiguous row of `batch` elements.
    pub(crate) fn apply_single_qubit_batch(&mut self, ms: &[[Complex64; 4]], target: usize) {
        assert_eq!(ms.len(), self.batch, "one matrix per batch element");
        assert!(
            target < self.num_qubits,
            "qubit {target} out of range for a {}-qubit state",
            self.num_qubits
        );
        let stride = 1usize << target;
        let block = 2 * stride;
        let batch = self.batch;

        // Stack staging covers every tile `crate::preferred_batch_tile`
        // hands out; oversized custom batches pay one scratch-free Vec.
        const SOA_MAX: usize = 32;
        let mut stack = [0.0f64; 8 * SOA_MAX];
        let mut heap;
        let c: &mut [f64] = if batch <= SOA_MAX {
            &mut stack[..8 * batch]
        } else {
            heap = vec![0.0; 8 * batch];
            &mut heap
        };
        stage_one_q_coeffs(ms, batch, c);
        let c: &[f64] = c;

        let unit = BLOCK_AMPS.max(block) * batch;
        par_blocks((&mut self.re[..], &mut self.im[..]), unit, |(re, im), _| {
            apply_one_q_span(re, im, c, batch, stride)
        });
    }

    /// Apply a *run* of single-qubit gates — gate `g` with target
    /// `targets[g]` and per-element matrices `ms[g*batch .. (g+1)*batch]` —
    /// in one cache-blocked sweep: the planes are walked once in
    /// `block_amps`-amplitude blocks and every gate of the run is applied to
    /// a block while it is cache-hot.
    ///
    /// Gates are applied in run order within each block, and every gate's
    /// pair stride must fit the block (`2 << target <= block_amps`, checked),
    /// so each amplitude sees exactly the same op sequence as `targets.len()`
    /// full-buffer passes — bit-identical, just with ~1/len the memory
    /// traffic. `coef` is caller-provided staging (reused across calls).
    pub(crate) fn apply_single_qubit_run_batch(
        &mut self,
        targets: &[usize],
        ms: &[[Complex64; 4]],
        block_amps: usize,
        coef: &mut Vec<f64>,
    ) {
        let batch = self.batch;
        let ngates = targets.len();
        assert_eq!(
            ms.len(),
            ngates * batch,
            "one matrix per gate per batch element"
        );
        assert!(
            block_amps.is_power_of_two(),
            "run block must be a power of two"
        );
        for &t in targets {
            assert!(
                t < self.num_qubits,
                "qubit {t} out of range for a {}-qubit state",
                self.num_qubits
            );
            assert!(
                (2usize << t) <= block_amps,
                "gate stride 2^{t} exceeds the {block_amps}-amplitude run block"
            );
        }

        coef.clear();
        coef.resize(ngates * 8 * batch, 0.0);
        for (g, gm) in ms.chunks_exact(batch).enumerate() {
            stage_one_q_coeffs(gm, batch, &mut coef[g * 8 * batch..(g + 1) * 8 * batch]);
        }
        let coef: &[f64] = coef;
        let block_elems = (block_amps * batch).min(self.re.len());

        let unit = BLOCK_AMPS.max(block_amps) * batch;
        par_blocks((&mut self.re[..], &mut self.im[..]), unit, |(re, im), _| {
            for (re_block, im_block) in re.chunks_mut(block_elems).zip(im.chunks_mut(block_elems)) {
                for (g, &t) in targets.iter().enumerate() {
                    let c = &coef[g * 8 * batch..(g + 1) * 8 * batch];
                    apply_one_q_span(re_block, im_block, c, batch, 1usize << t);
                }
            }
        });
    }

    /// Apply a per-element 4×4 matrix to the ordered pair `(q1, q0)` of every
    /// state — the batched twin of [`StateVector::apply_two_qubit`], same
    /// bit-interleaved base-index enumeration, same `Complex64` arithmetic.
    pub(crate) fn apply_two_qubit_batch(&mut self, ms: &[[Complex64; 16]], q1: usize, q0: usize) {
        assert_eq!(ms.len(), self.batch, "one matrix per batch element");
        assert!(q1 != q0, "two-qubit gate needs distinct operands, got {q1}");
        assert!(
            q1 < self.num_qubits && q0 < self.num_qubits,
            "qubits ({q1}, {q0}) out of range for a {}-qubit state",
            self.num_qubits
        );
        let bit1 = 1usize << q1;
        let bit0 = 1usize << q0;
        let (lo, hi) = (q1.min(q0), q1.max(q0));
        let lo_mask = (1usize << lo) - 1;
        let mid_mask = ((1usize << (hi - 1)) - 1) & !lo_mask;
        let hi_mask = !(lo_mask | mid_mask);
        let dim = 1usize << self.num_qubits;
        let quads = dim / 4;
        let batch = self.batch;

        let re_ptr = PlanePtr(self.re.as_mut_ptr());
        let im_ptr = PlanePtr(self.im.as_mut_ptr());
        par_blocks(0..quads, BLOCK_AMPS / 4, |range, _| {
            let re = re_ptr.get();
            let im = im_ptr.get();
            for k in range {
                let base = (k & lo_mask) | ((k & mid_mask) << 1) | ((k & hi_mask) << 2);
                let r00 = base * batch;
                let r01 = (base | bit0) * batch;
                let r10 = (base | bit1) * batch;
                let r11 = (base | bit1 | bit0) * batch;
                for (b, m) in ms.iter().enumerate() {
                    // SAFETY: as in the scalar kernel, the k -> base expansion
                    // is injective with both operand bits clear, so rows of
                    // distinct k are disjoint; per-thread ranges of k are
                    // disjoint too, and `b < batch` keeps every index inside
                    // the row. All indices are < 2^n · batch by construction.
                    unsafe {
                        let a00 = Complex64::new(*re.add(r00 + b), *im.add(r00 + b));
                        let a01 = Complex64::new(*re.add(r01 + b), *im.add(r01 + b));
                        let a10 = Complex64::new(*re.add(r10 + b), *im.add(r10 + b));
                        let a11 = Complex64::new(*re.add(r11 + b), *im.add(r11 + b));
                        let n00 = m[0] * a00 + m[1] * a01 + m[2] * a10 + m[3] * a11;
                        let n01 = m[4] * a00 + m[5] * a01 + m[6] * a10 + m[7] * a11;
                        let n10 = m[8] * a00 + m[9] * a01 + m[10] * a10 + m[11] * a11;
                        let n11 = m[12] * a00 + m[13] * a01 + m[14] * a10 + m[15] * a11;
                        *re.add(r00 + b) = n00.re;
                        *im.add(r00 + b) = n00.im;
                        *re.add(r01 + b) = n01.re;
                        *im.add(r01 + b) = n01.im;
                        *re.add(r10 + b) = n10.re;
                        *im.add(r10 + b) = n10.im;
                        *re.add(r11 + b) = n11.re;
                        *im.add(r11 + b) = n11.im;
                    }
                }
            }
        });
    }

    /// Multiply element `b` of amplitude `z` by the factor at
    /// `index[z] * batch + b` — the batched fused diagonal-phase pass. The
    /// compiled program supplies `index` (per-amplitude distinct-angle index)
    /// and the factor planes (`e^{i·scale_b·values[v]}`, precomputed once per
    /// distinct angle per element), so a whole cost layer costs one complex
    /// multiply per amplitude-element instead of one `sin`/`cos` pair.
    ///
    /// Bit-identical to [`StateVector::apply_phase_table`]: the factor for
    /// `(z, b)` is `from_polar(1.0, scale_b * angles[z])` with `angles[z]`
    /// reproduced exactly by `values[index[z]]` (the LUT stores the table's
    /// f64 bit patterns verbatim), and the multiply below is the expansion of
    /// `num_complex`'s `MulAssign`.
    pub(crate) fn apply_phase_lut(&mut self, index: &[u32], fre: &[f64], fim: &[f64]) {
        self.phase_lut_pass::<false>(index, fre, fim);
    }

    /// [`reset_plus`](Self::reset_plus) followed by
    /// [`apply_phase_lut`](Self::apply_phase_lut) in one write-only pass —
    /// how a QAOA program opens (`|+⟩^{⊗n}`, then the first cost layer). The
    /// multiply reads the plus-state amplitude `(1/√dim, +0.0)` as literals
    /// instead of loading it, with the same expressions, so the result is
    /// bitwise the two passes'.
    pub(crate) fn reset_plus_then_phase_lut(&mut self, index: &[u32], fre: &[f64], fim: &[f64]) {
        self.phase_lut_pass::<true>(index, fre, fim);
    }

    /// Both phase passes, cut into fixed blocks; `FROM_PLUS` takes every
    /// input amplitude to be the plus state's instead of reading it.
    fn phase_lut_pass<const FROM_PLUS: bool>(&mut self, index: &[u32], fre: &[f64], fim: &[f64]) {
        let dim = 1usize << self.num_qubits;
        assert_eq!(index.len(), dim, "one LUT index per amplitude");
        assert_eq!(fre.len(), fim.len(), "factor planes must match");
        let batch = self.batch;
        let plus = 1.0 / (dim as f64).sqrt();
        par_blocks(
            (&mut self.re[..], &mut self.im[..]),
            BLOCK_AMPS * batch,
            |(re, im), offset| {
                let index = &index[offset / batch..];
                apply_phase_lut_span::<FROM_PLUS>(re, im, index, fre, fim, batch, plus)
            },
        );
    }

    /// Per-element expectation `⟨ψ_b| D |ψ_b⟩` of a diagonal observable, one
    /// sweep for the whole batch. Appends `batch` values to `out` (cleared
    /// first), summed over the same 2¹⁶-amplitude blocks in the same order
    /// as [`StateVector::expectation_diagonal`], so each `out[b]` is
    /// bit-identical to the scalar result, at any thread count.
    pub fn expectation_diagonal_batch(
        &self,
        diagonal: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), SimulatorError> {
        let dim = 1usize << self.num_qubits;
        if diagonal.len() != dim {
            return Err(SimulatorError::DimensionMismatch {
                observable: diagonal.len(),
                state: dim,
            });
        }
        let batch = self.batch;
        out.clear();
        out.resize(batch, 0.0);
        par_block_sum(dim, out, |range, acc| {
            let re_rows = &self.re[range.start * batch..range.end * batch];
            let im_rows = &self.im[range.start * batch..range.end * batch];
            if batch == 1 {
                let mut sum = acc[0];
                for ((re, im), &d) in re_rows.iter().zip(im_rows).zip(&diagonal[range]) {
                    sum += (re * re + im * im) * d;
                }
                acc[0] = sum;
                return;
            }
            for ((re_row, im_row), &d) in re_rows
                .chunks_exact(batch)
                .zip(im_rows.chunks_exact(batch))
                .zip(&diagonal[range])
            {
                for b in 0..batch {
                    // `norm_sqr() * d` with norm_sqr = re·re + im·im.
                    acc[b] += (re_row[b] * re_row[b] + im_row[b] * im_row[b]) * d;
                }
            }
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_states_puts_every_element_at_zero() {
        let b = BatchStateVector::zero_states(3, 4).unwrap();
        for e in 0..4 {
            assert_eq!(b.state(e), StateVector::zero_state(3).unwrap());
        }
    }

    #[test]
    fn reset_plus_matches_scalar_plus_state_bitwise() {
        let mut b = BatchStateVector::zero_states(5, 3).unwrap();
        b.reset_plus();
        let scalar = StateVector::plus_state(5).unwrap();
        for e in 0..3 {
            let s = b.state(e);
            for (a, r) in s.amplitudes().iter().zip(scalar.amplitudes()) {
                assert_eq!(a.re.to_bits(), r.re.to_bits());
                assert_eq!(a.im.to_bits(), r.im.to_bits());
            }
        }
    }

    #[test]
    fn too_many_qubits_is_rejected() {
        assert!(matches!(
            BatchStateVector::zero_states(31, 2),
            Err(SimulatorError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn resize_batch_keeps_width_and_changes_count() {
        let mut b = BatchStateVector::zero_states(4, 7).unwrap();
        b.resize_batch(3);
        assert_eq!(b.batch(), 3);
        assert_eq!(b.num_qubits(), 4);
        b.reset_zero();
        for e in 0..3 {
            assert_eq!(b.state(e), StateVector::zero_state(4).unwrap());
        }
    }

    #[test]
    fn expectation_batch_dimension_mismatch() {
        let b = BatchStateVector::zero_states(2, 2).unwrap();
        let mut out = Vec::new();
        assert!(matches!(
            b.expectation_diagonal_batch(&[1.0, 2.0], &mut out),
            Err(SimulatorError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn batched_kernels_match_scalar_kernels_bitwise() {
        // Distinct per-element matrices; scalar reference applies each one to
        // its own state. Checked at a small width and at n=15, where the
        // top qubit's pair block is half of a kernel block.
        use qcircuit::{Gate, GateMatrix};
        for n in [4usize, 15] {
            let batch = 3;
            let mut bsv = BatchStateVector::zero_states(n, batch).unwrap();
            bsv.reset_plus();
            let mut scalars: Vec<StateVector> = (0..batch)
                .map(|_| StateVector::plus_state(n).unwrap())
                .collect();

            let thetas = [0.3, -1.1, 2.4];
            let ms1: Vec<[Complex64; 4]> = thetas
                .iter()
                .map(|&t| match GateMatrix::of(Gate::RY, t) {
                    GateMatrix::One(m) => m,
                    _ => unreachable!(),
                })
                .collect();
            bsv.apply_single_qubit_batch(&ms1, n - 1);
            for (s, m) in scalars.iter_mut().zip(&ms1) {
                s.apply_single_qubit(m, n - 1);
            }

            let ms2: Vec<[Complex64; 16]> = thetas
                .iter()
                .map(|&t| match GateMatrix::of(Gate::RXX, t) {
                    GateMatrix::Two(m) => m,
                    _ => unreachable!(),
                })
                .collect();
            bsv.apply_two_qubit_batch(&ms2, n - 1, 1);
            for (s, m) in scalars.iter_mut().zip(&ms2) {
                s.apply_two_qubit(m, n - 1, 1);
            }

            // Phase LUT vs scalar phase table: two distinct angles.
            let dim = 1usize << n;
            let angles: Vec<f64> = (0..dim)
                .map(|z| if z % 2 == 0 { 0.7 } else { -0.2 })
                .collect();
            let index: Vec<u32> = (0..dim).map(|z| (z % 2) as u32).collect();
            let values = [0.7, -0.2];
            let scales = [0.5, 1.0, -2.0];
            let mut fre = Vec::new();
            let mut fim = Vec::new();
            for &v in &values {
                for &scale in &scales {
                    let f = Complex64::from_polar(1.0, scale * v);
                    fre.push(f.re);
                    fim.push(f.im);
                }
            }
            bsv.apply_phase_lut(&index, &fre, &fim);
            for (s, &scale) in scalars.iter_mut().zip(&scales) {
                s.apply_phase_table(&angles, scale).unwrap();
            }

            for (e, scalar) in scalars.iter().enumerate() {
                let got = bsv.state(e);
                for (a, r) in got.amplitudes().iter().zip(scalar.amplitudes()) {
                    assert_eq!(a.re.to_bits(), r.re.to_bits(), "n={n} element {e}");
                    assert_eq!(a.im.to_bits(), r.im.to_bits(), "n={n} element {e}");
                }
            }

            // Diagonal expectation, same diagonal for all elements.
            let diag: Vec<f64> = (0..dim).map(|z| (z % 5) as f64 - 2.0).collect();
            let mut out = Vec::new();
            bsv.expectation_diagonal_batch(&diag, &mut out).unwrap();
            for (e, scalar) in scalars.iter().enumerate() {
                let want = scalar.expectation_diagonal(&diag).unwrap();
                assert_eq!(out[e].to_bits(), want.to_bits(), "n={n} element {e}");
            }
        }
    }

    #[test]
    fn fused_run_matches_per_gate_passes_bitwise() {
        // A run of per-qubit gates applied through the cache-blocked kernel
        // must equal one apply_single_qubit_batch pass per gate, bit for bit
        // — including when the block is far smaller than the state and when
        // it covers the whole state, at a small width and at n=15.
        use qcircuit::{Gate, GateMatrix};
        for n in [6usize, 15] {
            for batch in [1usize, 3, 4] {
                let targets: Vec<usize> = (0..n.min(8)).collect();
                let ms: Vec<[Complex64; 4]> = (0..targets.len() * batch)
                    .map(|i| {
                        let gate = if i % 2 == 0 { Gate::RX } else { Gate::RY };
                        match GateMatrix::of(gate, 0.1 + 0.2 * i as f64) {
                            GateMatrix::One(m) => m,
                            _ => unreachable!(),
                        }
                    })
                    .collect();

                let mut fused = BatchStateVector::zero_states(n, batch).unwrap();
                fused.reset_plus();
                let mut coef = Vec::new();
                for block_amps in [1usize << 9, 1usize << n] {
                    let mut reference = BatchStateVector::zero_states(n, batch).unwrap();
                    reference.reset_plus();
                    for (g, &t) in targets.iter().enumerate() {
                        reference.apply_single_qubit_batch(&ms[g * batch..(g + 1) * batch], t);
                    }
                    fused.reset_plus();
                    fused.apply_single_qubit_run_batch(&targets, &ms, block_amps, &mut coef);
                    for e in 0..batch {
                        let got = fused.state(e);
                        let want = reference.state(e);
                        for (a, r) in got.amplitudes().iter().zip(want.amplitudes()) {
                            assert_eq!(
                                a.re.to_bits(),
                                r.re.to_bits(),
                                "n={n} batch={batch} block={block_amps} element {e}"
                            );
                            assert_eq!(a.im.to_bits(), r.im.to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn plus_then_phase_pass_matches_the_two_passes_bitwise() {
        // The fused opening pass against `reset_plus` + `apply_phase_lut`,
        // at a small width and at n=15. Angle 0 at a negative
        // scale stages a `-0.0` imaginary factor; the product's imaginary
        // part is `+0.0` only through the plus state's `0.0 · fre` term, so
        // folding the literal zero away would flip its sign.
        for n in [5usize, 15] {
            for batch in [1usize, 3] {
                let dim = 1usize << n;
                let values = [0.0, 0.7, -2.9, 3.2];
                let index: Vec<u32> = (0..dim).map(|z| ((z * 7) % 4) as u32).collect();
                let scales = [-0.45, 1.0, 2.5];
                let (mut fre, mut fim) = (Vec::new(), Vec::new());
                for &v in &values {
                    for &scale in &scales[..batch] {
                        let f = Complex64::from_polar(1.0, scale * v);
                        fre.push(f.re);
                        fim.push(f.im);
                    }
                }
                let mut two = BatchStateVector::zero_states(n, batch).unwrap();
                two.reset_plus();
                two.apply_phase_lut(&index, &fre, &fim);
                let mut fused = BatchStateVector::zero_states(n, batch).unwrap();
                fused.reset_plus_then_phase_lut(&index, &fre, &fim);
                for (a, b) in fused
                    .re
                    .iter()
                    .zip(&two.re)
                    .chain(fused.im.iter().zip(&two.im))
                {
                    assert_eq!(a.to_bits(), b.to_bits(), "n={n} batch={batch}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn fused_run_rejects_strides_wider_than_the_block() {
        let mut b = BatchStateVector::zero_states(12, 2).unwrap();
        let m = [
            Complex64::new(1.0, 0.0),
            Complex64::new(0.0, 0.0),
            Complex64::new(0.0, 0.0),
            Complex64::new(1.0, 0.0),
        ];
        let mut coef = Vec::new();
        // Qubit 11 needs 2^12 amplitudes per pair block; offer only 2^8.
        b.apply_single_qubit_run_batch(&[11], &[m, m], 1 << 8, &mut coef);
    }

    /// Whether this CPU can run the AVX2 arms; says so when it cannot.
    #[cfg(target_arch = "x86_64")]
    fn avx2_detected() -> bool {
        let detected = std::is_x86_feature_detected!("avx2");
        if !detected {
            println!("AVX2 not detected: only the portable build runs on this CPU");
        }
        detected
    }

    /// Random f64s in [-1, 1) with `-0.0`, `+0.0`, subnormals and values
    /// whose products with their neighbours fall below the normal range.
    #[cfg(target_arch = "x86_64")]
    fn awkward_f64s(rng: &mut rand_chacha::ChaCha8Rng, len: usize) -> Vec<f64> {
        use rand::Rng;
        (0..len)
            .map(|_| match rng.gen_range(0..8u32) {
                0 => -0.0,
                1 => 0.0,
                2 => f64::from_bits(rng.gen_range(1..1u64 << 52) | (rng.gen_range(0..2u64) << 63)),
                3 => rng.gen_range(-1.0..1.0) * 1e-160,
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect()
    }

    #[cfg(target_arch = "x86_64")]
    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: element {i}: {g:e} vs {w:e}"
            );
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx2_span_kernel_matches_the_portable_build_bitwise() {
        // Both builds on the same planes and coefficients, at every batch
        // width the dispatch monomorphizes (3 takes the runtime-width body)
        // and every target stride of a 2^9-amplitude span.
        if !avx2_detected() {
            return;
        }
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(38);
        let amps = 1usize << 9;
        for batch in [1usize, 2, 3, 4, 8, 16, 32] {
            let re = awkward_f64s(&mut rng, amps * batch);
            let im = awkward_f64s(&mut rng, amps * batch);
            let c = awkward_f64s(&mut rng, 8 * batch);
            for target in 0..9 {
                let stride = 1usize << target;
                let (mut re_p, mut im_p) = (re.clone(), im.clone());
                one_q_span(&mut re_p, &mut im_p, &c, batch, stride);
                let (mut re_a, mut im_a) = (re.clone(), im.clone());
                // SAFETY: AVX2 was detected above.
                unsafe { one_q_span_avx2(&mut re_a, &mut im_a, &c, batch, stride) };
                let what = format!("batch {batch}, target {target}");
                assert_same_bits(&re_a, &re_p, &what);
                assert_same_bits(&im_a, &im_p, &what);
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx2_phase_pass_matches_the_portable_build_bitwise() {
        // Both builds of both phase passes (reading the amplitudes, and
        // taking the plus state's) on the same planes and factors.
        if !avx2_detected() {
            return;
        }
        fn check<const FROM_PLUS: bool>(
            re: &[f64],
            im: &[f64],
            index: &[u32],
            fre: &[f64],
            fim: &[f64],
            batch: usize,
        ) {
            let plus = 1.0 / (index.len() as f64).sqrt();
            let (mut re_p, mut im_p) = (re.to_vec(), im.to_vec());
            phase_lut_span::<FROM_PLUS>(&mut re_p, &mut im_p, index, fre, fim, batch, plus);
            let (mut re_a, mut im_a) = (re.to_vec(), im.to_vec());
            // SAFETY: the test detected AVX2 before calling this.
            unsafe {
                phase_lut_span_avx2::<FROM_PLUS>(&mut re_a, &mut im_a, index, fre, fim, batch, plus)
            };
            let what = format!("batch {batch}, from plus {FROM_PLUS}");
            assert_same_bits(&re_a, &re_p, &what);
            assert_same_bits(&im_a, &im_p, &what);
        }
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(38);
        let amps = 1usize << 9;
        let values = 13;
        let index: Vec<u32> = (0..amps).map(|_| rng.gen_range(0..values)).collect();
        for batch in [1usize, 4] {
            let re = awkward_f64s(&mut rng, amps * batch);
            let im = awkward_f64s(&mut rng, amps * batch);
            let fre = awkward_f64s(&mut rng, values as usize * batch);
            let fim = awkward_f64s(&mut rng, values as usize * batch);
            check::<false>(&re, &im, &index, &fre, &fim, batch);
            check::<true>(&re, &im, &index, &fre, &fim, batch);
        }
    }

    #[test]
    fn batched_kernels_match_scalar_across_multiple_worker_threads() {
        // Run in a 4-thread pool and compare against the scalar result. At
        // n=15 (one block) the kernels stay inline in any pool; two-block
        // splits are covered at n=17 in `state` and `compile`.
        use qcircuit::{Gate, GateMatrix};
        let n = 15;
        let batch = 2;
        let thetas = [0.9, -0.4];
        let ms2: Vec<[Complex64; 16]> = thetas
            .iter()
            .map(|&t| match GateMatrix::of(Gate::RXX, t) {
                GateMatrix::Two(m) => m,
                _ => unreachable!(),
            })
            .collect();
        let dim = 1usize << n;
        let diag: Vec<f64> = (0..dim).map(|z| ((z * 7) % 11) as f64 * 0.25).collect();

        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let (threaded_states, threaded_out) = pool.install(|| {
            let mut bsv = BatchStateVector::zero_states(n, batch).unwrap();
            bsv.reset_plus();
            bsv.apply_two_qubit_batch(&ms2, n - 1, 2);
            let mut out = Vec::new();
            bsv.expectation_diagonal_batch(&diag, &mut out).unwrap();
            ((0..batch).map(|e| bsv.state(e)).collect::<Vec<_>>(), out)
        });

        // The scalar reference runs in the same pool; its bits would be the
        // same in any pool, since reductions sum fixed blocks.
        for (e, m) in ms2.iter().enumerate() {
            let (scalar, want) = pool.install(|| {
                let mut scalar = StateVector::plus_state(n).unwrap();
                scalar.apply_two_qubit(m, n - 1, 2);
                let want = scalar.expectation_diagonal(&diag).unwrap();
                (scalar, want)
            });
            for (a, r) in threaded_states[e]
                .amplitudes()
                .iter()
                .zip(scalar.amplitudes())
            {
                assert_eq!(a.re.to_bits(), r.re.to_bits(), "element {e}");
                assert_eq!(a.im.to_bits(), r.im.to_bits(), "element {e}");
            }
            assert_eq!(threaded_out[e].to_bits(), want.to_bits(), "element {e}");
        }
    }
}
