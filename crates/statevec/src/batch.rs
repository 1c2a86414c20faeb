//! Structure-of-arrays amplitude buffer: the executor of every compiled
//! energy evaluation.
//!
//! [`BatchStateVector`] holds one dense state in two f64 planes, real and
//! imaginary: amplitude `z` is `(re[z], im[z])`. Kept apart, the planes are
//! pure-f64 runs with no real/imaginary interleaving, so the explicit
//! arithmetic in the kernels below compiles to packed f64 multiplies and
//! adds (interleaved `Complex64` forces shuffle-heavy codegen that pins
//! throughput at scalar FP rates). Every sweep runs one parameter vector:
//! an optimizer's point set is swept one point at a time.
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
//! On top of the layout, `BatchStateVector::apply_single_qubit_run`
//! executes a whole *run* of single-qubit gates (e.g. one QAOA mixer layer)
//! in a single cache-blocked sweep: the buffer is walked once in L2-sized
//! blocks and every low-stride gate of the run is applied while a block is
//! hot, instead of one full-memory pass per gate (which saves traffic only
//! once the buffer outgrows L2; see `RUN_BLOCK_AMPS`). At targets 0 and 1
//! a pair block is only two or four amplitudes, so the span kernel gets
//! their stride as a literal: the compiler then loads whole vectors and
//! deinterleaves the pairs in registers instead of looping one pair at a
//! time. A program that opens with `|+⟩^{⊗n}` and a phase pass writes both
//! in one pass (`BatchStateVector::reset_plus_then_phase_lut`). The scalar
//! [`StateVector`](crate::StateVector) interpreter stays as the reference.
//!
//! **Shaped span bodies.** Most single-qubit matrices a mixer stages have
//! exact zeros: `rx` (and `rx·rx`) has a real diagonal and an imaginary
//! off-diagonal, and `ry`, `h` and their chains are real. Each staged gate
//! is classified once (`Shape`), and the span kernel runs a body without
//! the products of those zero coefficients: 6 flops per amplitude instead
//! of 14.
//!
//! **Bit-identity contract.** Every kernel performs the exact same sequence
//! of f64 operations as the scalar [`StateVector`](crate::StateVector) kernels in
//! [`crate::state`] — identical expression trees (the explicit
//! real/imaginary forms below are the textual expansion of `num_complex`'s
//! `Mul`/`Add`), identical per-amplitude gate order (cache blocking reorders
//! *which block* is touched first, never the op order any single amplitude
//! sees), and the same fixed 2¹⁶-amplitude blocks (the diagonal-expectation
//! reduction sums the same blocks in the same order as the scalar one). The
//! one exception is the shaped span bodies, which leave out products with
//! an exactly-zero coefficient. On finite amplitudes such a product is a
//! zero, and adding or subtracting a zero leaves any non-zero value as it
//! is, so every non-zero amplitude keeps its bits and a zero one may differ
//! only in its sign; no later product, sum or `|a|²` turns that sign into a
//! non-zero difference. A run here therefore produces the same amplitudes
//! as the scalar interpreter up to the sign of a zero, and bit-for-bit the
//! same energy, at any thread count.

use crate::error::SimulatorError;
use crate::state::{par_block_sum, par_blocks, BLOCK_AMPS, MAX_DENSE_QUBITS};
use num_complex::Complex64;

/// Per-execution scratch owned by the buffer so repeated
/// [`crate::CompiledProgram::execute_batch_into`] calls are allocation-free
/// once warm: the staged gates of a fused run and the distinct-angle
/// phase-factor planes. Taken out of the buffer during execution (to
/// sidestep aliasing with the amplitude data) and restored afterwards.
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchExecScratch {
    /// The staged gates of the current fused single-qubit run.
    pub(crate) run: Vec<StagedGate>,
    /// Phase factors, one per distinct value:
    /// `factors_re/im[v] = e^{i·scale·values[v]}`.
    pub(crate) factors_re: Vec<f64>,
    pub(crate) factors_im: Vec<f64>,
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
// ranges (see `apply_two_qubit`); distinct ranges address disjoint rows, so
// concurrent workers never alias.
unsafe impl Send for PlanePtr {}
unsafe impl Sync for PlanePtr {}

/// Cache block, in amplitudes, for fused single-qubit runs: the largest
/// power of two keeping one block of both planes within 256 KiB, so a run
/// of low-stride gates replays each block from cache instead of streaming
/// the whole buffer once per gate. That saves traffic only when the buffer,
/// 2ⁿ · 16 bytes, is larger than L2. At n = 16 the 1 MiB buffer already
/// stays in a 2 MiB L2 between single passes, and the blocked 14-gate mixer
/// sweep measures within noise of its 14 single passes
/// (`kernel_cost_table`).
pub(crate) const RUN_BLOCK_AMPS: usize = (1 << 18) / 16;

/// The zero pattern of a staged single-qubit gate, read once per gate from
/// its staged coefficients (`== 0.0`, so either sign of zero counts). The
/// mixer alphabet's non-diagonal gates and their chains have one of two
/// patterns: `rx` (and `rx·rx`) has a real diagonal and an imaginary
/// off-diagonal; `ry`, `h` and chains such as `ry·ry` or `h·ry` are real.
/// Every other matrix is `General`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Shape {
    General,
    /// Every imaginary part is zero.
    Real,
    /// Entries 0 and 3 are real, entries 1 and 2 imaginary.
    RxLike,
}

/// `Shape`s as the span kernel's const parameter.
const GENERAL: u8 = Shape::General as u8;
const REAL: u8 = Shape::Real as u8;
const RX_LIKE: u8 = Shape::RxLike as u8;

impl Shape {
    /// The shape of one staged gate, `c` as [`stage_one_q_coeffs`] writes it.
    pub(crate) fn of(c: &[f64; 8]) -> Shape {
        let zero = |j: usize| c[j] == 0.0;
        if [1, 3, 5, 7].into_iter().all(zero) {
            Shape::Real
        } else if [1, 2, 4, 7].into_iter().all(zero) {
            Shape::RxLike
        } else {
            Shape::General
        }
    }
}

/// A 2×2 matrix as the span kernel reads it: entry `j`'s re at `2j`, its im
/// at `2j + 1`.
pub(crate) fn stage_one_q_coeffs(m: &[Complex64; 4]) -> [f64; 8] {
    std::array::from_fn(|j| if j % 2 == 0 { m[j / 2].re } else { m[j / 2].im })
}

/// One single-qubit gate of a fused run, staged once: its coefficients,
/// their [`Shape`] and the gate's target.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StagedGate {
    c: [f64; 8],
    shape: Shape,
    target: usize,
}

impl StagedGate {
    pub(crate) fn new(m: &[Complex64; 4], target: usize) -> StagedGate {
        let c = stage_one_q_coeffs(m);
        StagedGate {
            c,
            shape: Shape::of(&c),
            target,
        }
    }
}

/// One amplitude pair `(x, y)` through the 2×2 matrix `c` (re, im of
/// entries 0–3): the new `[lo re, lo im, hi re, hi im]`. The `GENERAL` arm
/// is the expansion of `m[0]*x + m[1]*y` / `m[2]*x + m[3]*y` over
/// `Complex64`, the scalar kernel's expression trees. The shaped arms are
/// the same trees without the products whose coefficient is an exact zero.
/// For a finite input such a product is a zero, and `v ± 0` is `v` for any
/// `v ≠ 0`, so every non-zero output has the `GENERAL` arm's bits and a
/// zero output may differ only in its sign (which no later product, sum or
/// `|a|²` can turn into a non-zero difference).
#[inline(always)]
fn pair<const SHAPE: u8>(c: [f64; 8], xre: f64, xim: f64, yre: f64, yim: f64) -> [f64; 4] {
    match SHAPE {
        REAL => [
            c[0] * xre + c[2] * yre,
            c[0] * xim + c[2] * yim,
            c[4] * xre + c[6] * yre,
            c[4] * xim + c[6] * yim,
        ],
        RX_LIKE => [
            c[0] * xre - c[3] * yim,
            c[0] * xim + c[3] * yre,
            c[6] * yre - c[5] * xim,
            c[5] * xre + c[6] * yim,
        ],
        _ => [
            (c[0] * xre - c[1] * xim) + (c[2] * yre - c[3] * yim),
            (c[0] * xim + c[1] * xre) + (c[2] * yim + c[3] * yre),
            (c[4] * xre - c[5] * xim) + (c[6] * yre - c[7] * yim),
            (c[4] * xim + c[5] * xre) + (c[6] * yim + c[7] * yre),
        ],
    }
}

/// Apply one staged single-qubit gate to a contiguous span of the planes.
///
/// `c` holds the 2×2 matrix as [`stage_one_q_coeffs`] writes it, and
/// `shape` is its [`Shape::of`]. The span length must be a multiple of
/// `2 * target_stride`. Each pair goes through [`pair`].
///
/// Runs [`one_q_span_avx2`] when the CPU has AVX2, [`one_q_span`] otherwise;
/// both compile the same body, so the arm never changes a bit. The shape is
/// chosen here, outside the AVX2 build, so that each shape's body is its
/// own AVX2 function: dispatched inside one function, the shaped body ran
/// at twice the general body's time.
#[inline]
fn apply_one_q_span(
    re: &mut [f64],
    im: &mut [f64],
    c: &[f64; 8],
    target_stride: usize,
    shape: Shape,
) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2.
        return unsafe {
            match shape {
                Shape::General => one_q_span_avx2::<GENERAL>(re, im, c, target_stride),
                Shape::Real => one_q_span_avx2::<REAL>(re, im, c, target_stride),
                Shape::RxLike => one_q_span_avx2::<RX_LIKE>(re, im, c, target_stride),
            }
        };
    }
    match shape {
        Shape::General => one_q_span::<GENERAL>(re, im, c, target_stride),
        Shape::Real => one_q_span::<REAL>(re, im, c, target_stride),
        Shape::RxLike => one_q_span::<RX_LIKE>(re, im, c, target_stride),
    }
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
unsafe fn one_q_span_avx2<const SHAPE: u8>(
    re: &mut [f64],
    im: &mut [f64],
    c: &[f64; 8],
    target_stride: usize,
) {
    one_q_span::<SHAPE>(re, im, c, target_stride)
}

/// The span kernel's body, inlined into the portable entry and into the
/// AVX2 build alike. Targets 0 and 1 pass their stride as a literal, so
/// their pair blocks of two and four amplitudes compile to whole-vector
/// loads and in-register deinterleaving; the arithmetic is the same
/// [`pair`] trees at every stride.
#[inline(always)]
fn one_q_span<const SHAPE: u8>(re: &mut [f64], im: &mut [f64], c: &[f64; 8], target_stride: usize) {
    match target_stride {
        1 => span_pairs::<SHAPE>(re, im, c, 1),
        2 => span_pairs::<SHAPE>(re, im, c, 2),
        stride => span_pairs::<SHAPE>(re, im, c, stride),
    }
}

#[inline(always)]
fn span_pairs<const SHAPE: u8>(re: &mut [f64], im: &mut [f64], c: &[f64; 8], stride: usize) {
    let c = *c;
    let block = 2 * stride;
    for (re_pairs, im_pairs) in re.chunks_exact_mut(block).zip(im.chunks_exact_mut(block)) {
        let (lo_re, hi_re) = re_pairs.split_at_mut(stride);
        let (lo_im, hi_im) = im_pairs.split_at_mut(stride);
        for (((xre, yre), xim), yim) in lo_re
            .iter_mut()
            .zip(hi_re.iter_mut())
            .zip(lo_im.iter_mut())
            .zip(hi_im.iter_mut())
        {
            [*xre, *xim, *yre, *yim] = pair::<SHAPE>(c, *xre, *xim, *yre, *yim);
        }
    }
}

/// Multiply the span's amplitude `z` by the factor at `index[z]` — the
/// expansion of `num_complex`'s `MulAssign`. `FROM_PLUS` takes every input
/// amplitude to be the plus state's `(plus, +0.0)` instead of reading it.
/// Runs [`phase_lut_span_avx2`] when the CPU has AVX2, [`phase_lut_span`]
/// otherwise; both compile the same body.
#[inline]
fn apply_phase_lut_span<const FROM_PLUS: bool>(
    re: &mut [f64],
    im: &mut [f64],
    index: &[u32],
    fre: &[f64],
    fim: &[f64],
    plus: f64,
) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2.
        return unsafe { phase_lut_span_avx2::<FROM_PLUS>(re, im, index, fre, fim, plus) };
    }
    phase_lut_span::<FROM_PLUS>(re, im, index, fre, fim, plus)
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
    plus: f64,
) {
    phase_lut_span::<FROM_PLUS>(re, im, index, fre, fim, plus)
}

/// The phase pass's body, inlined into the portable entry and into the
/// AVX2 build alike.
#[inline(always)]
fn phase_lut_span<const FROM_PLUS: bool>(
    re: &mut [f64],
    im: &mut [f64],
    index: &[u32],
    fre: &[f64],
    fim: &[f64],
    plus: f64,
) {
    let amp = |re: f64, im: f64| if FROM_PLUS { (plus, 0.0) } else { (re, im) };
    for ((re, im), &v) in re.iter_mut().zip(im.iter_mut()).zip(index) {
        let (fre, fim) = (fre[v as usize], fim[v as usize]);
        let (are, aim) = amp(*re, *im);
        *re = are * fre - aim * fim;
        *im = are * fim + aim * fre;
    }
}

/// One dense `2^n`-amplitude state as two f64 planes.
#[derive(Debug, Clone)]
pub struct BatchStateVector {
    num_qubits: usize,
    /// Real plane: `re[z]` is amplitude `z`'s real part.
    re: Vec<f64>,
    /// Imaginary plane, same layout.
    im: Vec<f64>,
    scratch: BatchExecScratch,
}

impl BatchStateVector {
    /// The all-zeros state `|0...0⟩`.
    pub fn zero_states(num_qubits: usize) -> Result<Self, SimulatorError> {
        if num_qubits > MAX_DENSE_QUBITS {
            return Err(SimulatorError::TooManyQubits {
                num_qubits,
                max: MAX_DENSE_QUBITS,
            });
        }
        let dim = 1usize << num_qubits;
        let mut out = BatchStateVector {
            num_qubits,
            re: vec![0.0; dim],
            im: vec![0.0; dim],
            scratch: BatchExecScratch::default(),
        };
        out.reset_zero();
        Ok(out)
    }

    /// Register width.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Reset to `|0...0⟩` in place.
    pub fn reset_zero(&mut self) {
        self.re.fill(0.0);
        self.im.fill(0.0);
        self.re[0] = 1.0;
    }

    /// Reset to the uniform superposition `|+⟩^{⊗n}` in place. The fill
    /// value depends only on the dimension, so it is bit-identical to
    /// [`StateVector::reset_plus`](crate::StateVector::reset_plus).
    pub fn reset_plus(&mut self) {
        let dim = 1usize << self.num_qubits;
        self.re.fill(1.0 / (dim as f64).sqrt());
        self.im.fill(0.0);
    }

    pub(crate) fn take_exec_scratch(&mut self) -> BatchExecScratch {
        std::mem::take(&mut self.scratch)
    }

    pub(crate) fn restore_exec_scratch(&mut self, scratch: BatchExecScratch) {
        self.scratch = scratch;
    }

    /// Apply the 2×2 matrix `m` to qubit `target`. Same pair-walking
    /// structure as [`StateVector::apply_single_qubit`](crate::StateVector::apply_single_qubit).
    pub(crate) fn apply_single_qubit(&mut self, m: &[Complex64; 4], target: usize) {
        assert!(
            target < self.num_qubits,
            "qubit {target} out of range for a {}-qubit state",
            self.num_qubits
        );
        let g = StagedGate::new(m, target);
        let unit = BLOCK_AMPS.max(2usize << target);
        par_blocks((&mut self.re[..], &mut self.im[..]), unit, |(re, im), _| {
            apply_one_q_span(re, im, &g.c, 1usize << target, g.shape)
        });
    }

    /// Apply a *run* of staged single-qubit gates in one cache-blocked
    /// sweep: the planes are walked once in `block_amps`-amplitude blocks
    /// and every gate of the run is applied to a block while it is
    /// cache-hot.
    ///
    /// Gates are applied in run order within each block, and every gate's
    /// pair stride must fit the block (`2 << target <= block_amps`, checked),
    /// so each amplitude sees exactly the same op sequence as `gates.len()`
    /// full-buffer passes — bit-identical, just with ~1/len the memory
    /// traffic.
    pub(crate) fn apply_single_qubit_run(&mut self, gates: &[StagedGate], block_amps: usize) {
        assert!(
            block_amps.is_power_of_two(),
            "run block must be a power of two"
        );
        for &StagedGate { target: t, .. } in gates {
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
        let block = block_amps.min(self.re.len());
        let unit = BLOCK_AMPS.max(block_amps);
        par_blocks((&mut self.re[..], &mut self.im[..]), unit, |(re, im), _| {
            for (re_block, im_block) in re.chunks_mut(block).zip(im.chunks_mut(block)) {
                for g in gates {
                    apply_one_q_span(re_block, im_block, &g.c, 1usize << g.target, g.shape);
                }
            }
        });
    }

    /// Apply the 4×4 matrix `m` to the ordered pair `(q1, q0)` — the
    /// two-plane twin of
    /// [`StateVector::apply_two_qubit`](crate::StateVector::apply_two_qubit),
    /// same bit-interleaved base-index enumeration, same `Complex64`
    /// arithmetic.
    pub(crate) fn apply_two_qubit(&mut self, m: &[Complex64; 16], q1: usize, q0: usize) {
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
        let quads = (1usize << self.num_qubits) / 4;

        let re_ptr = PlanePtr(self.re.as_mut_ptr());
        let im_ptr = PlanePtr(self.im.as_mut_ptr());
        par_blocks(0..quads, BLOCK_AMPS / 4, |range, _| {
            let re = re_ptr.get();
            let im = im_ptr.get();
            for k in range {
                let r00 = (k & lo_mask) | ((k & mid_mask) << 1) | ((k & hi_mask) << 2);
                let r01 = r00 | bit0;
                let r10 = r00 | bit1;
                let r11 = r00 | bit1 | bit0;
                // SAFETY: as in the scalar kernel, the k -> base expansion
                // is injective with both operand bits clear, so the quads of
                // distinct k are disjoint; per-thread ranges of k are
                // disjoint too. All indices are < 2^n by construction.
                unsafe {
                    let a00 = Complex64::new(*re.add(r00), *im.add(r00));
                    let a01 = Complex64::new(*re.add(r01), *im.add(r01));
                    let a10 = Complex64::new(*re.add(r10), *im.add(r10));
                    let a11 = Complex64::new(*re.add(r11), *im.add(r11));
                    let n00 = m[0] * a00 + m[1] * a01 + m[2] * a10 + m[3] * a11;
                    let n01 = m[4] * a00 + m[5] * a01 + m[6] * a10 + m[7] * a11;
                    let n10 = m[8] * a00 + m[9] * a01 + m[10] * a10 + m[11] * a11;
                    let n11 = m[12] * a00 + m[13] * a01 + m[14] * a10 + m[15] * a11;
                    *re.add(r00) = n00.re;
                    *im.add(r00) = n00.im;
                    *re.add(r01) = n01.re;
                    *im.add(r01) = n01.im;
                    *re.add(r10) = n10.re;
                    *im.add(r10) = n10.im;
                    *re.add(r11) = n11.re;
                    *im.add(r11) = n11.im;
                }
            }
        });
    }

    /// Multiply amplitude `z` by the factor at `index[z]` — the fused
    /// diagonal-phase pass. The compiled program supplies `index`
    /// (per-amplitude distinct-angle index) and the factor planes
    /// (`e^{i·scale·values[v]}`, precomputed once per distinct angle), so a
    /// whole cost layer costs one complex multiply per amplitude instead of
    /// one `sin`/`cos` pair.
    ///
    /// Bit-identical to
    /// [`StateVector::apply_phase_table`](crate::StateVector::apply_phase_table):
    /// the factor for `z` is `from_polar(1.0, scale * angles[z])` with
    /// `angles[z]` reproduced exactly by `values[index[z]]` (the LUT stores
    /// the table's f64 bit patterns verbatim), and the multiply below is the
    /// expansion of `num_complex`'s `MulAssign`.
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
        let plus = 1.0 / (dim as f64).sqrt();
        par_blocks(
            (&mut self.re[..], &mut self.im[..]),
            BLOCK_AMPS,
            |(re, im), offset| {
                apply_phase_lut_span::<FROM_PLUS>(re, im, &index[offset..], fre, fim, plus)
            },
        );
    }

    /// The expectation `⟨ψ| D |ψ⟩` of a diagonal observable, summed over the
    /// same 2¹⁶-amplitude blocks in the same order as
    /// [`StateVector::expectation_diagonal`](crate::StateVector::expectation_diagonal),
    /// so it is bit-identical to the scalar result, at any thread count.
    pub fn expectation_diagonal(&self, diagonal: &[f64]) -> Result<f64, SimulatorError> {
        let dim = 1usize << self.num_qubits;
        if diagonal.len() != dim {
            return Err(SimulatorError::DimensionMismatch {
                observable: diagonal.len(),
                state: dim,
            });
        }
        Ok(par_block_sum(dim, |range| {
            let mut sum = -0.0;
            for ((re, im), &d) in self.re[range.clone()]
                .iter()
                .zip(&self.im[range.clone()])
                .zip(&diagonal[range])
            {
                // `norm_sqr() * d` with norm_sqr = re·re + im·im.
                sum += (re * re + im * im) * d;
            }
            sum
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StateVector;

    impl BatchStateVector {
        /// The real and imaginary planes.
        pub(crate) fn planes(&self) -> (&[f64], &[f64]) {
            (&self.re, &self.im)
        }
    }

    /// `bsv`'s amplitudes against `want`'s, bit for bit.
    fn assert_same_state(bsv: &BatchStateVector, want: &StateVector, what: &str) {
        let (re, im) = bsv.planes();
        assert_eq!(re.len(), want.amplitudes().len(), "{what}");
        for (z, a) in want.amplitudes().iter().enumerate() {
            assert_eq!(re[z].to_bits(), a.re.to_bits(), "{what}: re[{z}]");
            assert_eq!(im[z].to_bits(), a.im.to_bits(), "{what}: im[{z}]");
        }
    }

    #[test]
    fn zero_states_puts_every_element_at_zero() {
        let b = BatchStateVector::zero_states(3).unwrap();
        assert_same_state(&b, &StateVector::zero_state(3).unwrap(), "zero state");
    }

    #[test]
    fn reset_plus_matches_scalar_plus_state_bitwise() {
        let mut b = BatchStateVector::zero_states(5).unwrap();
        b.reset_plus();
        assert_same_state(&b, &StateVector::plus_state(5).unwrap(), "plus state");
    }

    #[test]
    fn too_many_qubits_is_rejected() {
        assert!(matches!(
            BatchStateVector::zero_states(31),
            Err(SimulatorError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn expectation_batch_dimension_mismatch() {
        let b = BatchStateVector::zero_states(2).unwrap();
        assert!(matches!(
            b.expectation_diagonal(&[1.0, 2.0]),
            Err(SimulatorError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn batched_kernels_match_scalar_kernels_bitwise() {
        // Each two-plane kernel against the scalar one, at three angles and
        // phase scales. Checked at a small width and at n=15, where the top
        // qubit's pair block is half of a kernel block.
        use qcircuit::{Gate, GateMatrix};
        for n in [4usize, 15] {
            let dim = 1usize << n;
            // Phase LUT vs scalar phase table: two distinct angles.
            let angles: Vec<f64> = (0..dim)
                .map(|z| if z % 2 == 0 { 0.7 } else { -0.2 })
                .collect();
            let index: Vec<u32> = (0..dim).map(|z| (z % 2) as u32).collect();
            let values = [0.7, -0.2];
            let diag: Vec<f64> = (0..dim).map(|z| (z % 5) as f64 - 2.0).collect();
            for (theta, scale) in [(0.3, 0.5), (-1.1, 1.0), (2.4, -2.0)] {
                let what = format!("n={n} theta={theta}");
                let mut bsv = BatchStateVector::zero_states(n).unwrap();
                bsv.reset_plus();
                let mut scalar = StateVector::plus_state(n).unwrap();

                let GateMatrix::One(m1) = GateMatrix::of(Gate::RY, theta) else {
                    unreachable!()
                };
                bsv.apply_single_qubit(&m1, n - 1);
                scalar.apply_single_qubit(&m1, n - 1);

                let GateMatrix::Two(m2) = GateMatrix::of(Gate::RXX, theta) else {
                    unreachable!()
                };
                bsv.apply_two_qubit(&m2, n - 1, 1);
                scalar.apply_two_qubit(&m2, n - 1, 1);

                let (fre, fim): (Vec<f64>, Vec<f64>) = values
                    .iter()
                    .map(|&v| {
                        let f = Complex64::from_polar(1.0, scale * v);
                        (f.re, f.im)
                    })
                    .unzip();
                bsv.apply_phase_lut(&index, &fre, &fim);
                scalar.apply_phase_table(&angles, scale).unwrap();
                assert_same_state(&bsv, &scalar, &what);

                let got = bsv.expectation_diagonal(&diag).unwrap();
                let want = scalar.expectation_diagonal(&diag).unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "{what}");
            }
        }
    }

    #[test]
    fn fused_run_matches_per_gate_passes_bitwise() {
        // A run of per-qubit gates applied through the cache-blocked kernel
        // must equal one `apply_single_qubit` pass per gate, bit for bit —
        // including when the block is far smaller than the state and when
        // it covers the whole state, at a small width and at n=15.
        use qcircuit::{Gate, GateMatrix};
        for n in [6usize, 15] {
            let gates: Vec<([Complex64; 4], usize)> = (0..n.min(8))
                .map(|t| {
                    let gate = if t % 2 == 0 { Gate::RX } else { Gate::RY };
                    match GateMatrix::of(gate, 0.1 + 0.2 * t as f64) {
                        GateMatrix::One(m) => (m, t),
                        _ => unreachable!(),
                    }
                })
                .collect();
            let staged: Vec<StagedGate> =
                gates.iter().map(|(m, t)| StagedGate::new(m, *t)).collect();
            let mut reference = BatchStateVector::zero_states(n).unwrap();
            reference.reset_plus();
            for (m, t) in &gates {
                reference.apply_single_qubit(m, *t);
            }
            let (want_re, want_im) = reference.planes();
            for block_amps in [1usize << 9, 1usize << n] {
                let mut fused = BatchStateVector::zero_states(n).unwrap();
                fused.reset_plus();
                fused.apply_single_qubit_run(&staged, block_amps);
                let (re, im) = fused.planes();
                let what = format!("n={n} block={block_amps}");
                assert_same_bits(re, want_re, &what);
                assert_same_bits(im, want_im, &what);
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
            let dim = 1usize << n;
            let values = [0.0, 0.7, -2.9, 3.2];
            let index: Vec<u32> = (0..dim).map(|z| ((z * 7) % 4) as u32).collect();
            for scale in [-0.45, 1.0, 2.5] {
                let (fre, fim): (Vec<f64>, Vec<f64>) = values
                    .iter()
                    .map(|&v| {
                        let f = Complex64::from_polar(1.0, scale * v);
                        (f.re, f.im)
                    })
                    .unzip();
                let mut two = BatchStateVector::zero_states(n).unwrap();
                two.reset_plus();
                two.apply_phase_lut(&index, &fre, &fim);
                let mut fused = BatchStateVector::zero_states(n).unwrap();
                fused.reset_plus_then_phase_lut(&index, &fre, &fim);
                let what = format!("n={n} scale={scale}");
                assert_same_bits(&fused.re, &two.re, &what);
                assert_same_bits(&fused.im, &two.im, &what);
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn fused_run_rejects_strides_wider_than_the_block() {
        let mut b = BatchStateVector::zero_states(12).unwrap();
        let m = [
            Complex64::new(1.0, 0.0),
            Complex64::new(0.0, 0.0),
            Complex64::new(0.0, 0.0),
            Complex64::new(1.0, 0.0),
        ];
        // Qubit 11 needs 2^12 amplitudes per pair block; offer only 2^8.
        b.apply_single_qubit_run(&[StagedGate::new(&m, 11)], 1 << 8);
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

    /// The span kernel's body for `shape`, in the portable build.
    fn portable_span(shape: Shape) -> fn(&mut [f64], &mut [f64], &[f64; 8], usize) {
        match shape {
            Shape::General => one_q_span::<GENERAL>,
            Shape::Real => one_q_span::<REAL>,
            Shape::RxLike => one_q_span::<RX_LIKE>,
        }
    }

    /// The span kernel's body for `shape`, in the AVX2 build.
    #[cfg(target_arch = "x86_64")]
    fn avx2_span(shape: Shape) -> unsafe fn(&mut [f64], &mut [f64], &[f64; 8], usize) {
        match shape {
            Shape::General => one_q_span_avx2::<GENERAL>,
            Shape::Real => one_q_span_avx2::<REAL>,
            Shape::RxLike => one_q_span_avx2::<RX_LIKE>,
        }
    }

    /// `awkward_f64s` coefficients for a matrix of `shape`: the
    /// coefficients its body leaves out are set to `±0.0`.
    fn shaped_coeffs(rng: &mut rand_chacha::ChaCha8Rng, shape: Shape) -> [f64; 8] {
        use rand::Rng;
        let mut c: [f64; 8] = awkward_f64s(rng, 8).try_into().unwrap();
        let zeros: &[usize] = match shape {
            Shape::General => &[],
            Shape::Real => &[1, 3, 5, 7],
            Shape::RxLike => &[1, 2, 4, 7],
        };
        for &j in zeros {
            c[j] = if rng.gen() { 0.0 } else { -0.0 };
        }
        c
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx2_span_kernel_matches_the_portable_build_bitwise() {
        // Both builds on the same planes and coefficients, for every shape,
        // at every target stride of a 2^9-amplitude span (targets 0 and 1
        // take the literal-stride arms), over several random draws.
        if !avx2_detected() {
            return;
        }
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(38);
        let amps = 1usize << 9;
        for shape in [Shape::General, Shape::Real, Shape::RxLike] {
            for draw in 0..4 {
                let re = awkward_f64s(&mut rng, amps);
                let im = awkward_f64s(&mut rng, amps);
                let c = shaped_coeffs(&mut rng, shape);
                for target in 0..9 {
                    let stride = 1usize << target;
                    let (mut re_p, mut im_p) = (re.clone(), im.clone());
                    portable_span(shape)(&mut re_p, &mut im_p, &c, stride);
                    let (mut re_a, mut im_a) = (re.clone(), im.clone());
                    // SAFETY: AVX2 was detected above.
                    unsafe { avx2_span(shape)(&mut re_a, &mut im_a, &c, stride) };
                    let what = format!("{shape:?}, draw {draw}, target {target}");
                    assert_same_bits(&re_a, &re_p, &what);
                    assert_same_bits(&im_a, &im_p, &what);
                }
            }
        }
    }

    #[test]
    fn shaped_span_bodies_match_the_general_body() {
        // A shaped body is the general body without the products of its
        // shape's zero coefficients. On the same planes and coefficients,
        // in both builds, at every target of a 2^9-amplitude span: each
        // output has the general body's bits or both are zero (the sign of
        // a zero may differ), and every |a|² has its bits. A product the
        // shaped body wrongly kept reads only as a zero's sign on finite
        // inputs, so each half of the inputs that its shape pairs with zeros
        // (`Real`: the other plane; `RxLike`: lo re and hi im against lo im
        // and hi re) is also set to NaN: the other half's outputs must keep
        // their bits.
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(45);
        let amps = 1usize << 9;
        for shape in [Shape::Real, Shape::RxLike] {
            for draw in 0..4 {
                let re = awkward_f64s(&mut rng, amps);
                let im = awkward_f64s(&mut rng, amps);
                let c = shaped_coeffs(&mut rng, shape);
                for target in 0..9 {
                    let stride = 1usize << target;
                    let what = format!("{shape:?}, draw {draw}, target {target}");
                    let (mut re_g, mut im_g) = (re.clone(), im.clone());
                    one_q_span::<GENERAL>(&mut re_g, &mut im_g, &c, stride);

                    let (mut re_s, mut im_s) = (re.clone(), im.clone());
                    portable_span(shape)(&mut re_s, &mut im_s, &c, stride);
                    let mut outputs = vec![("portable", re_s.clone(), im_s.clone())];
                    #[cfg(target_arch = "x86_64")]
                    if std::is_x86_feature_detected!("avx2") {
                        let (mut re_a, mut im_a) = (re.clone(), im.clone());
                        // SAFETY: AVX2 was detected just above.
                        unsafe { avx2_span(shape)(&mut re_a, &mut im_a, &c, stride) };
                        assert_same_bits(&re_a, &re_s, &format!("AVX2 build, {what}"));
                        assert_same_bits(&im_a, &im_s, &format!("AVX2 build, {what}"));
                        outputs.push(("AVX2", re_a, im_a));
                    }
                    for (build, re_s, im_s) in &outputs {
                        for i in 0..amps {
                            for (plane, s, g) in
                                [("re", re_s[i], re_g[i]), ("im", im_s[i], im_g[i])]
                            {
                                assert!(
                                    s.to_bits() == g.to_bits() || (s == 0.0 && g == 0.0),
                                    "{build} build, {what}: {plane}[{i}] {s:e} vs general {g:e}"
                                );
                            }
                            let norm = |re: f64, im: f64| (re * re + im * im).to_bits();
                            assert_eq!(
                                norm(re_s[i], im_s[i]),
                                norm(re_g[i], im_g[i]),
                                "{build} build, {what}: |a|² at {i}"
                            );
                        }
                    }

                    // Which half a plane element is in: for `RxLike` lo re and
                    // hi im make one half, for `Real` the real plane does.
                    let half = |in_re: bool, i: usize| match shape {
                        Shape::RxLike => in_re != ((i >> target) & 1 == 1),
                        _ => in_re,
                    };
                    for poisoned in [false, true] {
                        let (mut re_n, mut im_n) = (re.clone(), im.clone());
                        for i in 0..amps {
                            if half(true, i) == poisoned {
                                re_n[i] = f64::NAN;
                            }
                            if half(false, i) == poisoned {
                                im_n[i] = f64::NAN;
                            }
                        }
                        portable_span(shape)(&mut re_n, &mut im_n, &c, stride);
                        for i in 0..amps {
                            if half(true, i) != poisoned {
                                assert_eq!(
                                    re_n[i].to_bits(),
                                    re_s[i].to_bits(),
                                    "{what}: re[{i}] read a NaN"
                                );
                            }
                            if half(false, i) != poisoned {
                                assert_eq!(
                                    im_n[i].to_bits(),
                                    im_s[i].to_bits(),
                                    "{what}: im[{i}] read a NaN"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn low_target_span_matches_the_scalar_kernel_bitwise() {
        // Targets 0 and 1 take literal-stride arms of the span body. The
        // AVX2 test compares two builds of one arm, so it cannot see an arm
        // that pairs the wrong amplitudes; here both builds meet outside
        // oracles: the scalar `StateVector` kernel and the body at a stride
        // the compiler cannot see. At targets 0, 1 and 2 (the runtime-stride
        // arm), on spans of one, two and more pair blocks.
        use rand::SeedableRng;
        use std::hint::black_box;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        for amps in [2usize, 4, 8, 16, 1 << 9] {
            let re = awkward_f64s(&mut rng, amps);
            let im = awkward_f64s(&mut rng, amps);
            let c: [f64; 8] = awkward_f64s(&mut rng, 8).try_into().unwrap();
            let m: [Complex64; 4] = std::array::from_fn(|j| Complex64::new(c[2 * j], c[2 * j + 1]));
            for target in (0..3).filter(|&t| 2usize << t <= amps) {
                let stride = 1usize << target;
                let what = format!("span {amps}, target {target}");
                let amplitudes = re.iter().zip(&im).map(|(&r, &i)| Complex64::new(r, i));
                let mut scalar = StateVector::from_amplitudes(amplitudes.collect()).unwrap();
                scalar.apply_single_qubit(&m, target);
                let want_re: Vec<f64> = scalar.amplitudes().iter().map(|a| a.re).collect();
                let want_im: Vec<f64> = scalar.amplitudes().iter().map(|a| a.im).collect();

                let (mut re_g, mut im_g) = (re.clone(), im.clone());
                span_pairs::<GENERAL>(&mut re_g, &mut im_g, &c, black_box(stride));
                assert_same_bits(&re_g, &want_re, &format!("runtime stride, {what}"));
                assert_same_bits(&im_g, &want_im, &format!("runtime stride, {what}"));

                let (mut re_p, mut im_p) = (re.clone(), im.clone());
                one_q_span::<GENERAL>(&mut re_p, &mut im_p, &c, stride);
                assert_same_bits(&re_p, &want_re, &format!("portable build, {what}"));
                assert_same_bits(&im_p, &want_im, &format!("portable build, {what}"));

                #[cfg(target_arch = "x86_64")]
                if std::is_x86_feature_detected!("avx2") {
                    let (mut re_a, mut im_a) = (re.clone(), im.clone());
                    // SAFETY: AVX2 was detected just above.
                    unsafe { one_q_span_avx2::<GENERAL>(&mut re_a, &mut im_a, &c, stride) };
                    assert_same_bits(&re_a, &want_re, &format!("AVX2 build, {what}"));
                    assert_same_bits(&im_a, &want_im, &format!("AVX2 build, {what}"));
                }
            }
        }
    }

    /// Per-pass cost of the kernels at n = 10 and 16: every single-qubit
    /// target for a matrix of each [`Shape`], the cache-blocked mixer sweep
    /// against the same gates as single passes, the phase pass, the
    /// diagonal expectation, and an in-place pass that negates both planes
    /// (the same bytes and working set as one single-qubit pass, with no
    /// arithmetic: the memory ceiling). Asserts only that each timed kernel
    /// gives the scalar reference's bits. Run with `cargo test --release -p
    /// statevec -- --ignored --nocapture kernel_cost_table`.
    #[test]
    #[ignore = "prints the kernel cost table"]
    fn kernel_cost_table() {
        use qcircuit::{Gate, GateMatrix};
        use rand::{Rng, SeedableRng};
        use std::hint::black_box;
        use std::time::Instant;

        /// Median over nine rounds of the per-call time, in µs.
        fn median_us(calls: usize, mut f: impl FnMut()) -> f64 {
            f();
            let mut rounds: Vec<f64> = (0..9)
                .map(|_| {
                    let start = Instant::now();
                    for _ in 0..calls {
                        f();
                    }
                    start.elapsed().as_secs_f64() * 1e6 / calls as f64
                })
                .collect();
            rounds.sort_by(f64::total_cmp);
            rounds[4]
        }
        /// The state `bsv` holds, as a scalar state.
        fn scalar_of(bsv: &BatchStateVector) -> StateVector {
            let (re, im) = bsv.planes();
            let amps = re.iter().zip(im).map(|(&r, &i)| Complex64::new(r, i));
            StateVector::from_amplitudes(amps.collect()).expect("2^n amplitudes")
        }

        let one = |gate: Gate, theta: f64| match GateMatrix::of(gate, theta) {
            GateMatrix::One(m) => m,
            _ => unreachable!(),
        };
        let rx = |theta: f64| one(Gate::RX, theta);
        // One matrix of each shape: `ry` is real, `rx` RX-shaped, and their
        // product general.
        let (a, b) = (rx(0.3), one(Gate::RY, 0.7));
        let general = [
            a[0] * b[0] + a[1] * b[2],
            a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2],
            a[2] * b[1] + a[3] * b[3],
        ];
        let shaped = [
            (Shape::General, general),
            (Shape::Real, b),
            (Shape::RxLike, a),
        ];
        for (shape, m) in shaped {
            assert_eq!(Shape::of(&stage_one_q_coeffs(&m)), shape);
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        for n in [10usize, 16] {
            let dim = 1usize << n;
            let calls = (1usize << 22) >> n;
            let gb = |us: f64| 32.0 * dim as f64 / (us * 1e3);
            let mut bsv = BatchStateVector::zero_states(n).unwrap();
            bsv.reset_plus();
            println!("n = {n}: µs per pass, median of 9 rounds of {calls}");
            println!("                General      Real    RxLike");

            // per_target[s][t]: shape `s` at target `t`.
            let mut per_target = vec![Vec::new(); shaped.len()];
            for target in 0..n {
                for ((shape, m), times) in shaped.iter().zip(&mut per_target) {
                    let us = median_us(calls, || bsv.apply_single_qubit(m, target));
                    let mut want = scalar_of(&bsv);
                    want.apply_single_qubit(m, target);
                    bsv.apply_single_qubit(m, target);
                    assert_same_state(&bsv, &want, &format!("n = {n}, {shape:?}, target {target}"));
                    times.push(us);
                }
                let row: Vec<String> = per_target
                    .iter()
                    .map(|t| format!("{:>8.1}", t[target]))
                    .collect();
                println!("  target {target:>2}  {} µs", row.join("  "));
            }
            let median_high = |times: &[f64]| {
                let mut high = times[3..].to_vec();
                high.sort_by(f64::total_cmp);
                high[high.len() / 2]
            };
            let general_high = median_high(&per_target[0]);
            for ((shape, _), times) in shaped.iter().zip(&per_target) {
                let high = median_high(times);
                println!(
                    "  {:<8} target 0 {:>6.1} µs, target 1 {:>6.1} µs, targets >= 3 median {high:>6.1} µs ({:.2}x General, {:.1} GB/s)",
                    format!("{shape:?}"),
                    times[0],
                    times[1],
                    high / general_high,
                    gb(high)
                );
            }

            // The mixer sweep as the compiled executor runs it: every target
            // whose pair block fits the run block, in one blocked sweep.
            let ms: Vec<([Complex64; 4], usize)> = (0..n)
                .filter(|&t| 2usize << t <= RUN_BLOCK_AMPS)
                .map(|t| (rx(0.1 + 0.2 * t as f64), t))
                .collect();
            let staged: Vec<StagedGate> = ms.iter().map(|(m, t)| StagedGate::new(m, *t)).collect();
            let fused = median_us(calls, || {
                bsv.apply_single_qubit_run(&staged, RUN_BLOCK_AMPS)
            });
            let singles = median_us(calls, || {
                for (m, t) in &ms {
                    bsv.apply_single_qubit(m, *t);
                }
            });
            let mut want = scalar_of(&bsv);
            for (m, t) in &ms {
                want.apply_single_qubit(m, *t);
            }
            bsv.apply_single_qubit_run(&staged, RUN_BLOCK_AMPS);
            assert_same_state(&bsv, &want, &format!("n = {n}, mixer sweep"));
            println!(
                "  mixer sweep  {fused:>8.1} µs  ({} gates, {RUN_BLOCK_AMPS}-amplitude blocks; as single passes {singles:.1} µs)",
                ms.len()
            );

            // A cost layer with 61 distinct angles, as a 16-qubit Max-Cut
            // layer has.
            let values: Vec<f64> = (0..61).map(|v| v as f64 * 0.37 - 11.0).collect();
            let index: Vec<u32> = (0..dim).map(|_| rng.gen_range(0..61u32)).collect();
            let angles: Vec<f64> = index.iter().map(|&v| values[v as usize]).collect();
            let scale = 0.21;
            let (fre, fim): (Vec<f64>, Vec<f64>) = values
                .iter()
                .map(|&v| {
                    let f = Complex64::from_polar(1.0, scale * v);
                    (f.re, f.im)
                })
                .unzip();
            let us = median_us(calls, || bsv.apply_phase_lut(&index, &fre, &fim));
            let mut want = scalar_of(&bsv);
            want.apply_phase_table(&angles, scale).unwrap();
            bsv.apply_phase_lut(&index, &fre, &fim);
            assert_same_state(&bsv, &want, &format!("n = {n}, phase pass"));
            println!("  phase pass   {us:>8.1} µs");

            // The layer's angle table doubles as the cost diagonal.
            let us = median_us(calls, || {
                black_box(bsv.expectation_diagonal(&angles).unwrap());
            });
            let got = bsv.expectation_diagonal(&angles).unwrap();
            let want = scalar_of(&bsv).expectation_diagonal(&angles).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "n = {n}, expectation");
            println!("  expectation  {us:>8.1} µs");

            // Read, negate and write back both planes: an even number of
            // passes gives the state back.
            let (re, im) = (bsv.re.clone(), bsv.im.clone());
            fn negate(bsv: &mut BatchStateVector) {
                for plane in [&mut bsv.re, &mut bsv.im] {
                    for v in plane.iter_mut() {
                        *v = -*v;
                    }
                }
                black_box((&bsv.re, &bsv.im));
            }
            let mut passes = 0;
            let us = median_us(calls, || {
                negate(&mut bsv);
                passes += 1;
            });
            if passes % 2 == 1 {
                negate(&mut bsv);
            }
            assert_same_bits(&bsv.re, &re, "in-place ceiling");
            assert_same_bits(&bsv.im, &im, "in-place ceiling");
            println!("  in-place ceiling {us:>5.1} µs  {:>5.1} GB/s", gb(us));
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
        ) {
            let plus = 1.0 / (index.len() as f64).sqrt();
            let (mut re_p, mut im_p) = (re.to_vec(), im.to_vec());
            phase_lut_span::<FROM_PLUS>(&mut re_p, &mut im_p, index, fre, fim, plus);
            let (mut re_a, mut im_a) = (re.to_vec(), im.to_vec());
            // SAFETY: the test detected AVX2 before calling this.
            unsafe {
                phase_lut_span_avx2::<FROM_PLUS>(&mut re_a, &mut im_a, index, fre, fim, plus)
            };
            let what = format!("from plus {FROM_PLUS}");
            assert_same_bits(&re_a, &re_p, &what);
            assert_same_bits(&im_a, &im_p, &what);
        }
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(38);
        let amps = 1usize << 9;
        let values = 13;
        let index: Vec<u32> = (0..amps).map(|_| rng.gen_range(0..values)).collect();
        for _ in 0..2 {
            let re = awkward_f64s(&mut rng, amps);
            let im = awkward_f64s(&mut rng, amps);
            let fre = awkward_f64s(&mut rng, values as usize);
            let fim = awkward_f64s(&mut rng, values as usize);
            check::<false>(&re, &im, &index, &fre, &fim);
            check::<true>(&re, &im, &index, &fre, &fim);
        }
    }

    #[test]
    fn batched_kernels_match_scalar_across_multiple_worker_threads() {
        // Run in a 4-thread pool and compare against the scalar result. At
        // n=15 (one block) the kernels stay inline in any pool; two-block
        // splits are covered at n=17 in `state` and `compile`.
        use qcircuit::{Gate, GateMatrix};
        let n = 15;
        let dim = 1usize << n;
        let diag: Vec<f64> = (0..dim).map(|z| ((z * 7) % 11) as f64 * 0.25).collect();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        for theta in [0.9, -0.4] {
            let GateMatrix::Two(m) = GateMatrix::of(Gate::RXX, theta) else {
                unreachable!()
            };
            // The scalar reference runs in the same pool; its bits would be
            // the same in any pool, since reductions sum fixed blocks.
            pool.install(|| {
                let mut bsv = BatchStateVector::zero_states(n).unwrap();
                bsv.reset_plus();
                bsv.apply_two_qubit(&m, n - 1, 2);
                let mut scalar = StateVector::plus_state(n).unwrap();
                scalar.apply_two_qubit(&m, n - 1, 2);
                assert_same_state(&bsv, &scalar, &format!("theta {theta}"));
                let got = bsv.expectation_diagonal(&diag).unwrap();
                let want = scalar.expectation_diagonal(&diag).unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "theta {theta}");
            });
        }
    }
}
