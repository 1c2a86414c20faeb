//! Pluggable diagonal cost Hamiltonians — the problem layer of the search.
//!
//! The paper demonstrates QArchSearch on a single driver application (QAOA
//! for Max-Cut), but the machinery — ansatz assembly, compiled simulation,
//! light-cone contraction, budget-aware scheduling — only ever needs a cost
//! operator that is *diagonal in the computational basis*. [`Problem`]
//! captures exactly that: a polynomial over ±1 spins,
//!
//! ```text
//! C(z) = constant + Σ_t [ offset_t + coeff_t · Π_{i ∈ S_t} z_i ],   z_i ∈ {−1, +1}
//! ```
//!
//! together with the metadata the evaluator needs (a name for reports, an
//! exact/heuristic classical reference solver, and the approximation-ratio
//! convention). Every layer of the stack — `statevec`, `tensornet`, `qaoa`,
//! `qarchsearch`, the `qas` CLI — consumes this type, so adding a workload
//! means writing one constructor here instead of touching six crates.
//!
//! The per-term `offset` exists so Max-Cut keeps its historical per-edge
//! form `w·[z_u ≠ z_v] = w/2 − (w/2)·z_u z_v` with **bit-identical** floating
//! point: a cut edge contributes `offset − coeff = w/2 + w/2 = w` exactly and
//! an uncut edge `offset + coeff = w/2 − w/2 = 0` exactly, reproducing the
//! original indicator sum term by term.
//!
//! # Defining a custom problem
//!
//! Any diagonal Hamiltonian can be expressed with [`Problem::from_terms`].
//! For example, a 3-spin ferromagnetic chain with a field on the middle spin
//! (maximize `z₀z₁ + z₁z₂ + ½·z₁`):
//!
//! ```
//! use graphs::problem::{CostTerm, Problem, RatioConvention};
//!
//! let chain = Problem::from_terms(
//!     "ferro-chain",
//!     3,
//!     0.0,
//!     vec![
//!         CostTerm::new(vec![0, 1], 1.0),
//!         CostTerm::new(vec![1, 2], 1.0),
//!         CostTerm::new(vec![1], 0.5),
//!     ],
//!     RatioConvention::RatioToOptimum,
//! )
//! .unwrap();
//!
//! // All-up (mask 0) is the ground state: 1 + 1 + 0.5.
//! assert_eq!(chain.value_mask(0), 2.5);
//! let exact = chain.brute_force().unwrap();
//! assert_eq!(exact.best_value, 2.5);
//! assert_eq!(exact.best_mask, 0);
//!
//! // The classical reference records whether it is exact or heuristic.
//! let classical = chain.classical_solution();
//! assert_eq!(chain.approx_ratio(2.5, &classical), 1.0);
//! ```
//!
//! Instances of the shipped families are built through [`ProblemKind`], which
//! maps a dataset graph to a concrete [`Problem`] (deterministically, so the
//! evaluator can memoize per problem + graph).

use crate::error::{GraphError, ParseKindError};
use crate::graph::Graph;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Entries per block of [`Problem::values_into`]'s term-outer fill.
const VALUES_BLOCK: usize = 1 << 13;

/// Width of the aligned chunks [`add_term_values`] adds one precomputed
/// pattern to.
const CHUNK: usize = 16;

/// `out[i] += table[key(start + i)]`: one term's values added to a table of
/// consecutive basis states, for a term whose value on basis state `z` is
/// `table[key(z)]`.
///
/// `key` must be linear over GF(2) — each of its bits the parity of some
/// bits of `z`, so `key(h | j) = key(h) ^ key(j)` when `h` and `j` share no
/// bit — and below `K`, a power of two. A product of spins (`key` the parity
/// of `z & mask`) and the bits of one or two qubits are such keys. Then a
/// 16-aligned chunk from `h` holds `table[key(h) ^ key(j)]` at offset `j`,
/// one of `K` patterns built once per call, and the chunk is added as a
/// whole: one key per 16 entries instead of a bit test per entry, and an
/// add loop the compiler vectorizes. Entries outside whole chunks (an
/// unaligned `start` or length) read the same patterns one at a time. Each
/// entry receives exactly `table[key(z)]`, so filling a table term by term
/// with this gives the bits of a per-entry loop over the same terms.
pub fn add_term_values<const K: usize>(
    out: &mut [f64],
    start: u64,
    table: [f64; K],
    key: impl Fn(u64) -> usize,
) {
    let width = CHUNK as u64;
    let patterns: [[f64; CHUNK]; K] =
        std::array::from_fn(|k| std::array::from_fn(|j| table[k ^ key(j as u64)]));
    let one = |z: u64| patterns[key(z & !(width - 1))][(z % width) as usize];
    let head = (start.wrapping_neg() % width).min(out.len() as u64) as usize;
    let (head_out, rest) = out.split_at_mut(head);
    for (z, v) in (start..).zip(head_out) {
        *v += one(z);
    }
    let aligned = start + head as u64;
    let mut chunks = rest.chunks_exact_mut(CHUNK);
    let mut h = aligned;
    for chunk in &mut chunks {
        for (v, p) in chunk.iter_mut().zip(&patterns[key(h)]) {
            *v += p;
        }
        h += width;
    }
    for (z, v) in (h..).zip(chunks.into_remainder()) {
        *v += one(z);
    }
}

/// One term of a diagonal cost Hamiltonian:
/// `offset + coeff · Π_{i ∈ qubits} z_i` with `z_i ∈ {−1, +1}`.
///
/// The basis-state convention matches the simulators: bit `i` **clear** means
/// `z_i = +1`, bit `i` **set** means `z_i = −1` (the eigenvalues of `Z`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostTerm {
    /// The spins the term acts on, strictly increasing.
    qubits: Vec<usize>,
    /// Coefficient of the spin product.
    coeff: f64,
    /// Constant added alongside this term (kept per-term so indicator-style
    /// costs like Max-Cut evaluate with their historical rounding).
    offset: f64,
}

impl CostTerm {
    /// A term `coeff · Π z_i` with no offset.
    pub fn new(qubits: Vec<usize>, coeff: f64) -> CostTerm {
        CostTerm::with_offset(qubits, coeff, 0.0)
    }

    /// A term `offset + coeff · Π z_i`.
    pub fn with_offset(mut qubits: Vec<usize>, coeff: f64, offset: f64) -> CostTerm {
        qubits.sort_unstable();
        CostTerm {
            qubits,
            coeff,
            offset,
        }
    }

    /// The spins the term acts on (sorted, distinct).
    pub fn qubits(&self) -> &[usize] {
        &self.qubits
    }

    /// Coefficient of the spin product.
    pub fn coeff(&self) -> f64 {
        self.coeff
    }

    /// Constant offset carried with the term.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Number of spins in the term (its locality).
    pub fn locality(&self) -> usize {
        self.qubits.len()
    }

    /// The term's spins as a bitmask, folded with XOR so that a repeated
    /// spin cancels exactly as it does in [`CostTerm::value_mask`]'s loop.
    fn spin_mask(&self) -> u64 {
        self.qubits.iter().fold(0, |m, &q| m ^ (1u64 << q))
    }

    /// The term's value on a basis state given as a bitmask (bit set ⇒
    /// `z = −1`).
    #[inline]
    pub fn value_mask(&self, mask: u64) -> f64 {
        let mut odd = false;
        for &q in &self.qubits {
            odd ^= (mask >> q) & 1 == 1;
        }
        if odd {
            self.offset - self.coeff
        } else {
            self.offset + self.coeff
        }
    }

    /// The term's value on an explicit spin assignment (`spins[i]` positive ⇒
    /// `z_i = +1`).
    pub fn value_spins(&self, spins: &[i8]) -> f64 {
        self.offset + self.coeff * self.product_sign(spins)
    }

    /// The signed spin product `Π z_i` under `spins`.
    fn product_sign(&self, spins: &[i8]) -> f64 {
        let odd = self.qubits.iter().filter(|&&q| spins[q] <= 0).count() % 2 == 1;
        if odd {
            -1.0
        } else {
            1.0
        }
    }
}

/// How the approximation ratio of Eq. 3 is formed from a trained energy and
/// the classical reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum RatioConvention {
    /// `r = E / C_best`, and `0` when `C_best ≤ 0` — the paper's Max-Cut
    /// convention, meaningful whenever the optimum is positive.
    #[default]
    RatioToOptimum,
    /// `r = (E − C_worst) / (C_best − C_worst)` — invariant under constant
    /// shifts of the Hamiltonian, for families whose optimum can have either
    /// sign (Sherrington–Kirkpatrick).
    ShiftedByWorst,
}

/// Whether a classical reference value is provably optimal or a heuristic
/// lower bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolutionQuality {
    /// Exhaustive enumeration: the reference is the true optimum.
    Exact,
    /// Greedy + randomized 1-flip local search: the reference is a bound.
    Heuristic,
}

impl std::fmt::Display for SolutionQuality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolutionQuality::Exact => write!(f, "exact"),
            SolutionQuality::Heuristic => write!(f, "heuristic"),
        }
    }
}

/// The classical reference bracket used by approximation ratios.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassicalSolution {
    /// Best (maximal) classically-known cost value `C_best`.
    pub best: f64,
    /// Worst (minimal) classically-known cost value `C_worst`.
    pub worst: f64,
    /// Whether the bracket is exact or heuristic.
    pub quality: SolutionQuality,
}

/// Result of exhaustively enumerating a problem's `2^n` basis states.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExactSolution {
    /// The maximal cost value.
    pub best_value: f64,
    /// One maximizing assignment as a bitmask (bit set ⇒ `z = −1`).
    pub best_mask: u64,
    /// The minimal cost value.
    pub worst_value: f64,
    /// One minimizing assignment.
    pub worst_mask: u64,
    /// Number of maximizing assignments (counted with multiplicity 2 for
    /// globally flip-symmetric problems, matching the historical Max-Cut
    /// accounting).
    pub num_optima: usize,
}

/// A named diagonal cost Hamiltonian over ±1 spins, plus the metadata the
/// evaluator needs (classical reference solvers, ratio convention).
///
/// See the [module documentation](self) for the algebraic form and a worked
/// custom-problem example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Problem {
    name: String,
    num_spins: usize,
    constant: f64,
    terms: Vec<CostTerm>,
    convention: RatioConvention,
}

impl Problem {
    /// Enumeration limit for [`Problem::brute_force`] in *effective* bits
    /// (n − 1 for globally flip-symmetric problems, n otherwise); 2^26 ≈ 67M
    /// assignments, matching the historical `MaxCut::brute_force` limit.
    pub const EXACT_BIT_LIMIT: usize = 26;

    /// Build a problem from raw terms.
    ///
    /// Validates that every term's qubits are within `0..num_spins` and
    /// distinct. Terms are kept in the given order — expectation values and
    /// the ansatz cost layer follow it, so the order is part of the
    /// problem's numerical identity.
    pub fn from_terms(
        name: impl Into<String>,
        num_spins: usize,
        constant: f64,
        terms: Vec<CostTerm>,
        convention: RatioConvention,
    ) -> Result<Problem, GraphError> {
        for t in &terms {
            for (i, &q) in t.qubits.iter().enumerate() {
                if q >= num_spins {
                    return Err(GraphError::NodeOutOfRange {
                        index: q,
                        num_nodes: num_spins,
                    });
                }
                // Qubits are sorted by construction, so duplicates are
                // adjacent.
                if i > 0 && t.qubits[i - 1] == q {
                    return Err(GraphError::SelfLoop { node: q });
                }
            }
        }
        Ok(Problem {
            name: name.into(),
            num_spins,
            constant,
            terms,
            convention,
        })
    }

    // --- shipped families -------------------------------------------------

    /// The (possibly weighted) Max-Cut Hamiltonian of a graph, Eq. 1 of the
    /// paper: `C(z) = ½ Σ_{(u,v)∈E} w_uv (1 − z_u z_v)`.
    ///
    /// Term order follows the graph's edge list, and each edge is stored as
    /// `offset w/2, coeff −w/2`, which evaluates bit-identically to the
    /// historical per-edge cut indicator.
    pub fn max_cut(graph: &Graph) -> Problem {
        let terms = graph
            .edges()
            .iter()
            .map(|e| CostTerm::with_offset(vec![e.u, e.v], -0.5 * e.weight, 0.5 * e.weight))
            .collect();
        Problem {
            name: "maxcut".to_string(),
            num_spins: graph.num_nodes(),
            constant: 0.0,
            terms,
            convention: RatioConvention::RatioToOptimum,
        }
    }

    /// Max-Cut from a raw `(u, v, w)` edge list over `num_spins` nodes
    /// (legacy edge-list call sites; prefer [`Problem::max_cut`]).
    pub fn max_cut_from_edges(
        num_spins: usize,
        edges: &[(usize, usize, f64)],
    ) -> Result<Problem, GraphError> {
        let terms = edges
            .iter()
            .map(|&(u, v, w)| CostTerm::with_offset(vec![u, v], -0.5 * w, 0.5 * w))
            .collect();
        Problem::from_terms(
            "maxcut",
            num_spins,
            0.0,
            terms,
            RatioConvention::RatioToOptimum,
        )
    }

    /// Weighted Max-Cut on the topology of `graph` with deterministic
    /// per-edge random weights in `[0.25, 1.75)` drawn from `seed` (in edge
    /// order). Exercises the weighted cost path on the same datasets the
    /// paper uses.
    pub fn weighted_max_cut(graph: &Graph, seed: u64) -> Problem {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let terms = graph
            .edges()
            .iter()
            .map(|e| {
                let w = e.weight * rng.gen_range(0.25..1.75);
                CostTerm::with_offset(vec![e.u, e.v], -0.5 * w, 0.5 * w)
            })
            .collect();
        Problem {
            name: "wmaxcut".to_string(),
            num_spins: graph.num_nodes(),
            constant: 0.0,
            terms,
            convention: RatioConvention::RatioToOptimum,
        }
    }

    /// Maximum Independent Set as a penalty Ising model:
    /// `C = Σ_i x_i − P Σ_{(u,v)∈E} x_u x_v` with `x_i = (1 − z_i)/2 ∈ {0,1}`
    /// (bit set ⇒ vertex in the set). Any `penalty > 1` makes the optimum a
    /// maximum independent set with `C_best = α(G)`; minimizing the
    /// complement reads the same Hamiltonian as minimum vertex cover.
    pub fn max_independent_set(graph: &Graph, penalty: f64) -> Problem {
        let n = graph.num_nodes();
        let m = graph.num_edges() as f64;
        let mut terms: Vec<CostTerm> = graph
            .edges()
            .iter()
            .map(|e| CostTerm::new(vec![e.u, e.v], -0.25 * penalty))
            .collect();
        for i in 0..n {
            let coeff = 0.25 * penalty * graph.degree(i) as f64 - 0.5;
            if coeff != 0.0 {
                terms.push(CostTerm::new(vec![i], coeff));
            }
        }
        Problem {
            name: "mis".to_string(),
            num_spins: n,
            constant: 0.5 * n as f64 - 0.25 * penalty * m,
            terms,
            convention: RatioConvention::RatioToOptimum,
        }
    }

    /// A general 2-local Ising Hamiltonian with fields:
    /// `C(z) = Σ J_uv z_u z_v + Σ h_i z_i` (maximized).
    pub fn ising(
        name: impl Into<String>,
        num_spins: usize,
        couplings: &[(usize, usize, f64)],
        fields: &[f64],
        convention: RatioConvention,
    ) -> Result<Problem, GraphError> {
        let mut terms: Vec<CostTerm> = couplings
            .iter()
            .map(|&(u, v, j)| CostTerm::new(vec![u, v], j))
            .collect();
        for (i, &h) in fields.iter().enumerate() {
            if h != 0.0 {
                terms.push(CostTerm::new(vec![i], h));
            }
        }
        Problem::from_terms(name, num_spins, 0.0, terms, convention)
    }

    /// A Sherrington–Kirkpatrick instance on the node set of `graph`:
    /// all-to-all couplings `J_ij ~ U[−1, 1]/√n` plus small random fields
    /// `h_i ~ 0.3·U[−1, 1]`, drawn deterministically from `seed`. The graph's
    /// edges are ignored — only its node count matters — so SK slots into
    /// the same dataset-driven search harness as the graph problems. Uses the
    /// shift-invariant [`RatioConvention::ShiftedByWorst`], since the optimum
    /// of a random instance need not be positive.
    pub fn sherrington_kirkpatrick(graph: &Graph, seed: u64) -> Problem {
        let n = graph.num_nodes();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let scale = 1.0 / (n.max(1) as f64).sqrt();
        let mut couplings = Vec::with_capacity(n * (n.saturating_sub(1)) / 2);
        for u in 0..n {
            for v in (u + 1)..n {
                couplings.push((u, v, scale * rng.gen_range(-1.0..=1.0)));
            }
        }
        let fields: Vec<f64> = (0..n).map(|_| 0.3 * rng.gen_range(-1.0..=1.0)).collect();
        Problem::ising(
            "sk",
            n,
            &couplings,
            &fields,
            RatioConvention::ShiftedByWorst,
        )
        .expect("generated SK instance is well-formed")
    }

    /// Number partitioning of positive `numbers`: maximize
    /// `C(z) = A² − (Σ a_i z_i)²` with `A = Σ a_i`, i.e. minimize the squared
    /// partition residue. Expanding the square gives weighted Max-Cut on the
    /// complete graph with `w_ij = 2 a_i a_j`, so `C_best = A² − r²_min ≥ 0`
    /// and a perfect partition reaches ratio 1.
    pub fn number_partitioning(numbers: &[f64]) -> Result<Problem, GraphError> {
        let n = numbers.len();
        let mut terms = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                let w = 2.0 * numbers[i] * numbers[j];
                terms.push(CostTerm::with_offset(vec![i, j], -w, w));
            }
        }
        Problem::from_terms("partition", n, 0.0, terms, RatioConvention::RatioToOptimum)
    }

    /// A random number-partitioning instance on the node count of `graph`:
    /// integers `a_i ∈ [1, 50]` drawn deterministically from `seed`.
    pub fn random_partition(graph: &Graph, seed: u64) -> Problem {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let numbers: Vec<f64> = (0..graph.num_nodes())
            .map(|_| rng.gen_range(1u64..=50) as f64)
            .collect();
        Problem::number_partitioning(&numbers).expect("generated instance is well-formed")
    }

    // --- accessors --------------------------------------------------------

    /// The problem's report name (e.g. `"maxcut"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of spins (qubits) the Hamiltonian acts on.
    pub fn num_spins(&self) -> usize {
        self.num_spins
    }

    /// The standalone constant added before the term sum.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// The cost terms, in evaluation order.
    pub fn terms(&self) -> &[CostTerm] {
        &self.terms
    }

    /// The approximation-ratio convention.
    pub fn convention(&self) -> RatioConvention {
        self.convention
    }

    /// The largest term locality (0 for a constant Hamiltonian).
    pub fn max_locality(&self) -> usize {
        self.terms.iter().map(|t| t.locality()).max().unwrap_or(0)
    }

    /// Whether the Hamiltonian is invariant under the global spin flip
    /// `z → −z` (every term has even locality). Halves exhaustive
    /// enumeration, exactly like the historical Max-Cut solver.
    pub fn is_flip_symmetric(&self) -> bool {
        self.terms.iter().all(|t| t.locality() % 2 == 0)
    }

    // --- evaluation -------------------------------------------------------

    /// `C(z)` for a basis state given as a bitmask (bit `i` set ⇒
    /// `z_i = −1`), the convention shared with the simulators. Valid for
    /// `num_spins ≤ 64`.
    pub fn value_mask(&self, mask: u64) -> f64 {
        let mut acc = self.constant;
        for t in &self.terms {
            acc += t.value_mask(mask);
        }
        acc
    }

    /// `out[i] = C(base + i)` for the consecutive basis states from `base`,
    /// bit for bit [`Problem::value_mask`]'s.
    ///
    /// The fill runs term-outer, one block of 2¹³ entries (64 KiB, which
    /// stays in L2) at a time: the block starts at the constant, then each
    /// term, in term order, adds `offset − coeff` to the entries whose
    /// masked spins have odd parity and `offset + coeff` to the others
    /// ([`add_term_values`]). Every entry sees the same additions in the
    /// same order as in `value_mask`.
    pub fn values_into(&self, base: u64, out: &mut [f64]) {
        for (k, block) in out.chunks_mut(VALUES_BLOCK).enumerate() {
            block.fill(self.constant);
            for t in &self.terms {
                let spins = t.spin_mask();
                add_term_values(
                    block,
                    base + (k * VALUES_BLOCK) as u64,
                    [t.offset + t.coeff, t.offset - t.coeff],
                    |z| ((z & spins).count_ones() & 1) as usize,
                );
            }
        }
    }

    /// `C(z)` for an explicit spin assignment (`spins[i]` positive ⇒ `+1`).
    pub fn value_spins(&self, spins: &[i8]) -> f64 {
        let mut acc = self.constant;
        for t in &self.terms {
            acc += t.value_spins(spins);
        }
        acc
    }

    // --- classical solvers ------------------------------------------------

    /// Exact optimum (and pessimum) by exhaustive enumeration.
    ///
    /// Globally flip-symmetric problems fix the top spin and enumerate half
    /// the space; either way the effective bit count must stay at or below
    /// [`Problem::EXACT_BIT_LIMIT`]. The values come a block at a time from
    /// [`Problem::values_into`]'s term-outer fill, and each block is scanned
    /// in mask order, so the bracket, both masks and the optimum count are
    /// those of a scan over [`Problem::value_mask`].
    pub fn brute_force(&self) -> Result<ExactSolution, GraphError> {
        let n = self.num_spins;
        let symmetric = self.is_flip_symmetric();
        let bits = if symmetric { n.saturating_sub(1) } else { n };
        if bits > Self::EXACT_BIT_LIMIT {
            return Err(GraphError::TooLargeForExact {
                nodes: n,
                max: Self::EXACT_BIT_LIMIT,
            });
        }
        if n == 0 {
            return Ok(ExactSolution {
                best_value: self.constant,
                best_mask: 0,
                worst_value: self.constant,
                worst_mask: 0,
                num_optima: 1,
            });
        }
        let multiplicity = if symmetric { 2 } else { 1 };
        let mut best = f64::NEG_INFINITY;
        let mut best_mask = 0u64;
        let mut num_optima = 0usize;
        let mut worst = f64::INFINITY;
        let mut worst_mask = 0u64;
        let total = 1u64 << bits;
        let mut values = vec![0.0; VALUES_BLOCK.min(total as usize)];
        for start in (0..total).step_by(values.len()) {
            self.values_into(start, &mut values);
            for (mask, &value) in (start..).zip(&values) {
                if value > best + 1e-12 {
                    best = value;
                    best_mask = mask;
                    num_optima = multiplicity;
                } else if (value - best).abs() <= 1e-12 {
                    num_optima += multiplicity;
                }
                if value < worst {
                    worst = value;
                    worst_mask = mask;
                }
            }
        }
        Ok(ExactSolution {
            best_value: best,
            best_mask,
            worst_value: worst,
            worst_mask,
            num_optima,
        })
    }

    /// Change in `C` from flipping spin `v` (`sign = 1.0` maximizes; pass
    /// `−1.0` to reuse the same machinery for minimization).
    fn flip_gain(&self, spins: &[i8], v: usize, sign: f64) -> f64 {
        let mut gain = 0.0;
        for t in &self.terms {
            if t.qubits.contains(&v) {
                gain -= 2.0 * t.coeff * t.product_sign(spins);
            }
        }
        sign * gain
    }

    /// Greedy constructive heuristic: assign spins one at a time, choosing
    /// the side that maximizes the value of all terms that become fully
    /// assigned (the generic analog of the Max-Cut place-on-the-better-side
    /// greedy).
    pub fn greedy(&self) -> (f64, Vec<i8>) {
        let n = self.num_spins;
        let mut spins: Vec<i8> = vec![0; n];
        for v in 0..n {
            let mut gain_plus = 0.0;
            let mut gain_minus = 0.0;
            for t in &self.terms {
                if !t.qubits.contains(&v) {
                    continue;
                }
                // Only terms whose other spins are already assigned count.
                if t.qubits.iter().any(|&q| q != v && spins[q] == 0) {
                    continue;
                }
                spins[v] = 1;
                gain_plus += t.value_spins(&spins);
                spins[v] = -1;
                gain_minus += t.value_spins(&spins);
                spins[v] = 0;
            }
            spins[v] = if gain_plus >= gain_minus { 1 } else { -1 };
        }
        (self.value_spins(&spins), spins)
    }

    /// 1-flip local search from `start` (or the greedy solution when `None`):
    /// repeatedly flip the spin with the largest positive gain until no
    /// improving flip exists.
    pub fn local_search(&self, start: Option<Vec<i8>>) -> (f64, Vec<i8>) {
        self.local_search_signed(start, 1.0)
    }

    fn local_search_signed(&self, start: Option<Vec<i8>>, sign: f64) -> (f64, Vec<i8>) {
        let mut spins = start.unwrap_or_else(|| self.greedy().1);
        if spins.len() != self.num_spins {
            spins = vec![1; self.num_spins];
        }
        loop {
            let mut best_gain = 0.0;
            let mut best_node = None;
            for v in 0..self.num_spins {
                let gain = self.flip_gain(&spins, v, sign);
                if gain > best_gain + 1e-12 {
                    best_gain = gain;
                    best_node = Some(v);
                }
            }
            match best_node {
                Some(v) => spins[v] = -spins[v],
                None => break,
            }
        }
        (self.value_spins(&spins), spins)
    }

    /// Multi-start randomized 1-flip local search: `restarts` random
    /// initial assignments, each improved by [`local_search`](Self::local_search);
    /// the best is kept.
    pub fn randomized_local_search(&self, restarts: usize, seed: u64) -> (f64, Vec<i8>) {
        self.randomized_extreme(restarts, seed, 1.0)
    }

    fn randomized_extreme(&self, restarts: usize, seed: u64, sign: f64) -> (f64, Vec<i8>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = self.num_spins;
        let mut best_value = f64::NEG_INFINITY;
        let mut best_spins = vec![1i8; n];
        for _ in 0..restarts.max(1) {
            let start: Vec<i8> = (0..n)
                .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
                .collect();
            let (_, spins) = self.local_search_signed(Some(start), sign);
            let value = sign * self.value_spins(&spins);
            if value > best_value {
                best_value = value;
                best_spins = spins;
            }
        }
        if best_value.is_infinite() {
            best_value = sign * self.value_spins(&best_spins);
        }
        (sign * best_value, best_spins)
    }

    /// The classical reference bracket for the approximation ratio: exact by
    /// enumeration when feasible, otherwise greedy + randomized local search
    /// (for both the best and the worst value), with the quality tagged.
    pub fn classical_solution(&self) -> ClassicalSolution {
        match self.brute_force() {
            Ok(exact) => ClassicalSolution {
                best: exact.best_value,
                worst: exact.worst_value,
                quality: SolutionQuality::Exact,
            },
            Err(_) => {
                let (greedy, _) = self.greedy();
                let (local, _) = self.randomized_local_search(20, 0xC1A55);
                // `randomized_extreme` with sign −1 minimizes and already
                // returns the (signed) minimum cost value.
                let (worst, _) = self.randomized_extreme(20, 0xC1A55, -1.0);
                ClassicalSolution {
                    best: greedy.max(local),
                    worst,
                    quality: SolutionQuality::Heuristic,
                }
            }
        }
    }

    /// The approximation ratio of `energy` against a classical bracket,
    /// following this problem's [`RatioConvention`].
    pub fn approx_ratio(&self, energy: f64, classical: &ClassicalSolution) -> f64 {
        match self.convention {
            RatioConvention::RatioToOptimum => {
                if classical.best <= 0.0 {
                    0.0
                } else {
                    energy / classical.best
                }
            }
            RatioConvention::ShiftedByWorst => {
                let span = classical.best - classical.worst;
                if span <= 0.0 {
                    0.0
                } else {
                    (energy - classical.worst) / span
                }
            }
        }
    }
}

/// The shipped problem families, mapping a dataset graph to a concrete
/// [`Problem`] instance (deterministically — the evaluator memoizes per
/// problem + graph).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum ProblemKind {
    /// Unweighted/graph-weighted Max-Cut (the paper's driver application).
    #[default]
    MaxCut,
    /// Max-Cut with deterministic random edge weights.
    WeightedMaxCut {
        /// Seed for the per-edge weight draw.
        seed: u64,
    },
    /// Maximum Independent Set via a penalty Ising model.
    MaxIndependentSet {
        /// Edge penalty `P` (> 1 guarantees the optimum is independent).
        penalty: f64,
    },
    /// Sherrington–Kirkpatrick spin glass with random fields (uses only the
    /// graph's node count).
    SherringtonKirkpatrick {
        /// Seed for couplings and fields.
        seed: u64,
    },
    /// Random number partitioning (uses only the graph's node count).
    NumberPartitioning {
        /// Seed for the number draw.
        seed: u64,
    },
}

impl ProblemKind {
    /// Every shipped family with its default parameters seeded by `seed`
    /// (CLI listing order).
    pub fn all(seed: u64) -> Vec<ProblemKind> {
        vec![
            ProblemKind::MaxCut,
            ProblemKind::WeightedMaxCut { seed },
            ProblemKind::MaxIndependentSet { penalty: 2.0 },
            ProblemKind::SherringtonKirkpatrick { seed },
            ProblemKind::NumberPartitioning { seed },
        ]
    }

    /// Parse a CLI problem name (`maxcut`, `wmaxcut`, `mis`, `sk`,
    /// `partition`; the long synonyms `weighted-maxcut`, `independent-set`
    /// and `number-partitioning` are also accepted), seeding the stochastic
    /// families with `seed`. Equivalent to the [`FromStr`](std::str::FromStr)
    /// impl followed by [`ProblemKind::reseeded`].
    pub fn parse(spec: &str, seed: u64) -> Result<ProblemKind, ParseKindError> {
        spec.parse::<ProblemKind>().map(|kind| kind.reseeded(seed))
    }

    /// The same family with its stochastic instance seed replaced
    /// (deterministic families are returned unchanged).
    pub fn reseeded(self, seed: u64) -> ProblemKind {
        match self {
            ProblemKind::WeightedMaxCut { .. } => ProblemKind::WeightedMaxCut { seed },
            ProblemKind::SherringtonKirkpatrick { .. } => {
                ProblemKind::SherringtonKirkpatrick { seed }
            }
            ProblemKind::NumberPartitioning { .. } => ProblemKind::NumberPartitioning { seed },
            deterministic => deterministic,
        }
    }

    /// The short report name.
    pub fn name(&self) -> &'static str {
        match self {
            ProblemKind::MaxCut => "maxcut",
            ProblemKind::WeightedMaxCut { .. } => "wmaxcut",
            ProblemKind::MaxIndependentSet { .. } => "mis",
            ProblemKind::SherringtonKirkpatrick { .. } => "sk",
            ProblemKind::NumberPartitioning { .. } => "partition",
        }
    }

    /// One-line description for `qas problems`.
    pub fn description(&self) -> &'static str {
        match self {
            ProblemKind::MaxCut => "Max-Cut (paper Eq. 1): maximize the cut weight of the graph",
            ProblemKind::WeightedMaxCut { .. } => {
                "Max-Cut with deterministic random edge weights in [0.25, 1.75)"
            }
            ProblemKind::MaxIndependentSet { .. } => {
                "Maximum Independent Set as a penalty Ising model (C_best = alpha(G))"
            }
            ProblemKind::SherringtonKirkpatrick { .. } => {
                "Sherrington-Kirkpatrick spin glass with random fields (2-local Ising)"
            }
            ProblemKind::NumberPartitioning { .. } => {
                "Number partitioning: minimize the squared partition residue"
            }
        }
    }

    /// Instantiate the family for one dataset graph.
    pub fn instantiate(&self, graph: &Graph) -> Problem {
        match self {
            ProblemKind::MaxCut => Problem::max_cut(graph),
            ProblemKind::WeightedMaxCut { seed } => Problem::weighted_max_cut(graph, *seed),
            ProblemKind::MaxIndependentSet { penalty } => {
                Problem::max_independent_set(graph, *penalty)
            }
            ProblemKind::SherringtonKirkpatrick { seed } => {
                Problem::sherrington_kirkpatrick(graph, *seed)
            }
            ProblemKind::NumberPartitioning { seed } => Problem::random_partition(graph, *seed),
        }
    }
}

impl std::fmt::Display for ProblemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl std::str::FromStr for ProblemKind {
    type Err = ParseKindError;

    /// Parse a problem family name. Stochastic families come back with seed
    /// 0; use [`ProblemKind::reseeded`] (or [`ProblemKind::parse`]) to pick
    /// the instance seed. Round-trips with [`Display`](std::fmt::Display):
    /// `kind.to_string().parse()` returns the same family.
    fn from_str(spec: &str) -> Result<ProblemKind, ParseKindError> {
        match spec {
            "maxcut" => Ok(ProblemKind::MaxCut),
            "wmaxcut" | "weighted-maxcut" => Ok(ProblemKind::WeightedMaxCut { seed: 0 }),
            "mis" | "independent-set" => Ok(ProblemKind::MaxIndependentSet { penalty: 2.0 }),
            "sk" => Ok(ProblemKind::SherringtonKirkpatrick { seed: 0 }),
            "partition" | "number-partitioning" => Ok(ProblemKind::NumberPartitioning { seed: 0 }),
            other => Err(ParseKindError::new(
                "problem",
                other,
                "maxcut, wmaxcut, mis, sk, partition",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxcut::MaxCut;

    #[test]
    fn maxcut_problem_matches_legacy_cut_values_bitwise() {
        for seed in 0..5 {
            let g = Graph::erdos_renyi(9, 0.5, seed);
            let p = Problem::max_cut(&g);
            assert_eq!(p.num_spins(), 9);
            assert_eq!(p.name(), "maxcut");
            for mask in 0..(1u64 << 9) {
                let legacy = MaxCut::cut_value_mask(&g, mask);
                let generic = p.value_mask(mask);
                assert_eq!(legacy.to_bits(), generic.to_bits(), "mask {mask}");
            }
        }
    }

    #[test]
    fn maxcut_brute_force_matches_legacy_exactly() {
        for seed in 0..5 {
            let g = Graph::erdos_renyi(10, 0.5, seed + 40);
            let p = Problem::max_cut(&g);
            let legacy = MaxCut::brute_force(&g).unwrap();
            let generic = p.brute_force().unwrap();
            assert_eq!(legacy.value.to_bits(), generic.best_value.to_bits());
            assert_eq!(legacy.assignment, generic.best_mask);
            assert_eq!(legacy.num_optima, generic.num_optima);
        }
    }

    #[test]
    fn value_spins_agrees_with_value_mask() {
        let g = Graph::erdos_renyi(7, 0.6, 3);
        for p in [
            Problem::max_cut(&g),
            Problem::weighted_max_cut(&g, 11),
            Problem::max_independent_set(&g, 2.0),
            Problem::sherrington_kirkpatrick(&g, 11),
            Problem::random_partition(&g, 11),
        ] {
            for mask in 0..(1u64 << 7) {
                let spins: Vec<i8> = (0..7)
                    .map(|i| if (mask >> i) & 1 == 1 { -1 } else { 1 })
                    .collect();
                let a = p.value_mask(mask);
                let b = p.value_spins(&spins);
                assert!(
                    (a - b).abs() < 1e-12,
                    "{}: mask {mask}: {a} vs {b}",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn mis_optimum_is_the_independence_number() {
        // C5: alpha = 2; star on 7 nodes: alpha = 6; complete K4: alpha = 1.
        let cases = [
            (Graph::cycle(5), 2.0),
            (Graph::star(7), 6.0),
            (Graph::complete(4), 1.0),
        ];
        for (g, alpha) in cases {
            let p = Problem::max_independent_set(&g, 2.0);
            let exact = p.brute_force().unwrap();
            assert!(
                (exact.best_value - alpha).abs() < 1e-9,
                "{}: {} vs alpha {alpha}",
                g.num_nodes(),
                exact.best_value
            );
            // The maximizing mask is an independent set (no edge inside).
            for e in g.edges() {
                assert!(
                    (exact.best_mask >> e.u) & 1 == 0 || (exact.best_mask >> e.v) & 1 == 0,
                    "edge ({}, {}) violated",
                    e.u,
                    e.v
                );
            }
        }
    }

    #[test]
    fn partition_reaches_zero_residue_when_possible() {
        // {3, 1, 1, 1} splits into {3} vs {1,1,1}: residue 0, C_best = A^2 = 36.
        let p = Problem::number_partitioning(&[3.0, 1.0, 1.0, 1.0]).unwrap();
        let exact = p.brute_force().unwrap();
        assert!((exact.best_value - 36.0).abs() < 1e-9);
        // {2, 1} cannot balance: best residue 1, C_best = 9 - 1 = 8.
        let odd = Problem::number_partitioning(&[2.0, 1.0]).unwrap();
        assert!((odd.brute_force().unwrap().best_value - 8.0).abs() < 1e-9);
    }

    #[test]
    fn partition_value_equals_a_squared_minus_residue_squared() {
        let numbers = [5.0, 3.0, 2.0, 7.0, 1.0];
        let a: f64 = numbers.iter().sum();
        let p = Problem::number_partitioning(&numbers).unwrap();
        for mask in 0..(1u64 << numbers.len()) {
            let residue: f64 = numbers
                .iter()
                .enumerate()
                .map(|(i, &x)| if (mask >> i) & 1 == 1 { -x } else { x })
                .sum();
            let expected = a * a - residue * residue;
            assert!(
                (p.value_mask(mask) - expected).abs() < 1e-9,
                "mask {mask}: {} vs {expected}",
                p.value_mask(mask)
            );
        }
    }

    #[test]
    fn sk_brute_force_agrees_with_direct_enumeration() {
        let g = Graph::erdos_renyi(8, 0.5, 5);
        let p = Problem::sherrington_kirkpatrick(&g, 5);
        assert!(!p.is_flip_symmetric(), "fields break the flip symmetry");
        let exact = p.brute_force().unwrap();
        let mut best = f64::NEG_INFINITY;
        let mut worst = f64::INFINITY;
        for mask in 0..(1u64 << 8) {
            let v = p.value_mask(mask);
            best = best.max(v);
            worst = worst.min(v);
        }
        assert_eq!(best.to_bits(), exact.best_value.to_bits());
        assert_eq!(worst.to_bits(), exact.worst_value.to_bits());
        assert!((p.value_mask(exact.best_mask) - exact.best_value).abs() < 1e-12);
        assert!((p.value_mask(exact.worst_mask) - exact.worst_value).abs() < 1e-12);
    }

    #[test]
    fn flip_symmetry_detected_for_even_problems() {
        let g = Graph::cycle(6);
        assert!(Problem::max_cut(&g).is_flip_symmetric());
        assert!(Problem::random_partition(&g, 1).is_flip_symmetric());
        assert!(!Problem::max_independent_set(&g, 2.0).is_flip_symmetric());
    }

    #[test]
    fn from_terms_validates_indices_and_duplicates() {
        assert!(matches!(
            Problem::from_terms(
                "bad",
                2,
                0.0,
                vec![CostTerm::new(vec![0, 5], 1.0)],
                RatioConvention::RatioToOptimum
            ),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            Problem::from_terms(
                "bad",
                3,
                0.0,
                vec![CostTerm::new(vec![1, 1], 1.0)],
                RatioConvention::RatioToOptimum
            ),
            Err(GraphError::SelfLoop { .. })
        ));
    }

    #[test]
    fn brute_force_rejects_oversized_problems() {
        let g = Graph::empty(40);
        let p = Problem::max_independent_set(&g, 2.0);
        // Degree-0 nodes still carry a −½·z_i field term, so this is not
        // flip-symmetric: 40 effective bits, well over the limit.
        assert!(!p.is_flip_symmetric());
        assert!(matches!(
            p.brute_force(),
            Err(GraphError::TooLargeForExact { .. })
        ));
    }

    #[test]
    fn heuristics_never_exceed_the_exact_optimum() {
        for seed in 0..6 {
            let g = Graph::erdos_renyi(9, 0.5, seed + 70);
            for p in [
                Problem::max_cut(&g),
                Problem::weighted_max_cut(&g, seed),
                Problem::max_independent_set(&g, 2.0),
                Problem::sherrington_kirkpatrick(&g, seed),
                Problem::random_partition(&g, seed),
            ] {
                let exact = p.brute_force().unwrap();
                let (greedy, _) = p.greedy();
                let (local, _) = p.randomized_local_search(10, seed);
                assert!(greedy <= exact.best_value + 1e-9, "{} greedy", p.name());
                assert!(local <= exact.best_value + 1e-9, "{} local", p.name());
                assert!(local + 1e-9 >= greedy.min(exact.best_value), "{}", p.name());
            }
        }
    }

    #[test]
    fn randomized_local_search_finds_the_optimum_on_small_instances() {
        for seed in 0..4 {
            let g = Graph::erdos_renyi(7, 0.5, seed + 20);
            let p = Problem::sherrington_kirkpatrick(&g, seed);
            let exact = p.brute_force().unwrap();
            let (found, _) = p.randomized_local_search(40, seed);
            assert!(
                (found - exact.best_value).abs() < 1e-9,
                "seed {seed}: {found} vs {}",
                exact.best_value
            );
        }
    }

    #[test]
    fn classical_solution_tags_exact_and_heuristic() {
        let small = Problem::max_cut(&Graph::cycle(6));
        let sol = small.classical_solution();
        assert_eq!(sol.quality, SolutionQuality::Exact);
        assert_eq!(sol.best, 6.0);
        assert_eq!(sol.worst, 0.0);

        let big = Problem::max_cut(&Graph::erdos_renyi(30, 0.2, 1));
        let sol = big.classical_solution();
        assert_eq!(sol.quality, SolutionQuality::Heuristic);
        assert!(sol.best > 0.0);
        assert!(sol.worst <= sol.best);
        // The heuristic bracket contains an arbitrary assignment's value.
        let probe = big.value_mask(0b1010_1010_1010);
        assert!(sol.worst <= probe + 1e-9 && probe <= sol.best + 1e-9);

        // A heuristic SK bracket must straddle zero (random couplings have a
        // strictly negative minimum) and contain arbitrary probes — this is
        // the case that catches a sign error in the minimizing search.
        let sk = Problem::sherrington_kirkpatrick(&Graph::empty(30), 4);
        let sol = sk.classical_solution();
        assert_eq!(sol.quality, SolutionQuality::Heuristic);
        assert!(
            sol.worst < 0.0,
            "SK minimum must be negative, got {}",
            sol.worst
        );
        assert!(
            sol.best > 0.0,
            "SK maximum must be positive, got {}",
            sol.best
        );
        for probe_mask in [0u64, 0x2AAA_AAAA, 0x3FFF_FFFF, 0x1234_5678] {
            let v = sk.value_mask(probe_mask);
            assert!(
                sol.worst <= v + 1e-9 && v <= sol.best + 1e-9,
                "probe {v} outside heuristic bracket [{}, {}]",
                sol.worst,
                sol.best
            );
        }
    }

    #[test]
    fn approx_ratio_follows_the_convention() {
        let g = Graph::cycle(4);
        let mc = Problem::max_cut(&g);
        let sol = mc.classical_solution();
        assert_eq!(mc.approx_ratio(2.0, &sol), 0.5);
        assert_eq!(mc.approx_ratio(4.0, &sol), 1.0);

        let sk = Problem::sherrington_kirkpatrick(&g, 3);
        let sol = sk.classical_solution();
        assert_eq!(sk.convention(), RatioConvention::ShiftedByWorst);
        assert!((sk.approx_ratio(sol.best, &sol) - 1.0).abs() < 1e-12);
        assert!(sk.approx_ratio(sol.worst, &sol).abs() < 1e-12);

        // Degenerate bracket ⇒ ratio 0, never a NaN.
        let flat = ClassicalSolution {
            best: 0.0,
            worst: 0.0,
            quality: SolutionQuality::Exact,
        };
        assert_eq!(mc.approx_ratio(1.0, &flat), 0.0);
        assert_eq!(sk.approx_ratio(1.0, &flat), 0.0);
    }

    #[test]
    fn problem_kind_round_trips_names() {
        for kind in ProblemKind::all(9) {
            let parsed = ProblemKind::parse(kind.name(), 9).unwrap();
            assert_eq!(parsed, kind);
            assert!(!kind.description().is_empty());
            assert_eq!(kind.to_string(), kind.name());
        }
        assert!(ProblemKind::parse("nope", 0).is_err());
    }

    #[test]
    fn problem_kind_from_str_round_trips_exhaustively() {
        // Display → FromStr → reseeded reproduces every shipped family.
        for kind in ProblemKind::all(23) {
            let parsed: ProblemKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed.name(), kind.name());
            assert_eq!(parsed.reseeded(23), kind);
        }
        // Long synonyms parse to the same families.
        for (long, short) in [
            ("weighted-maxcut", "wmaxcut"),
            ("independent-set", "mis"),
            ("number-partitioning", "partition"),
        ] {
            assert_eq!(long.parse::<ProblemKind>().unwrap().name(), short);
        }
        let err = "qubo".parse::<ProblemKind>().unwrap_err();
        assert_eq!(err.what, "problem");
        assert!(err.to_string().contains("maxcut"), "{err}");
    }

    #[test]
    fn reseeding_only_touches_stochastic_families() {
        assert_eq!(ProblemKind::MaxCut.reseeded(99), ProblemKind::MaxCut);
        assert_eq!(
            ProblemKind::MaxIndependentSet { penalty: 2.0 }.reseeded(99),
            ProblemKind::MaxIndependentSet { penalty: 2.0 }
        );
        assert_eq!(
            ProblemKind::SherringtonKirkpatrick { seed: 1 }.reseeded(99),
            ProblemKind::SherringtonKirkpatrick { seed: 99 }
        );
    }

    #[test]
    fn problem_kind_instantiation_is_deterministic() {
        let g = Graph::erdos_renyi(8, 0.5, 2);
        for kind in ProblemKind::all(31) {
            let a = kind.instantiate(&g);
            let b = kind.instantiate(&g);
            assert_eq!(a, b, "{}", kind.name());
            assert_eq!(a.name(), kind.name());
            assert_eq!(a.num_spins(), 8);
            assert!(a.max_locality() <= 2);
        }
    }

    #[test]
    fn weighted_maxcut_weights_depend_on_seed() {
        let g = Graph::cycle(6);
        let a = Problem::weighted_max_cut(&g, 1);
        let b = Problem::weighted_max_cut(&g, 2);
        assert_ne!(a, b);
        // Weights stay within the documented band.
        for t in a.terms() {
            let w = -2.0 * t.coeff();
            assert!((0.25..1.75).contains(&w), "weight {w}");
        }
    }

    #[test]
    fn serde_round_trip_preserves_evaluation() {
        let g = Graph::cycle(5);
        let p = Problem::max_independent_set(&g, 2.0);
        let json = serde_json::to_string(&p).unwrap();
        let back: Problem = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
        for mask in 0..(1u64 << 5) {
            assert_eq!(
                p.value_mask(mask).to_bits(),
                back.value_mask(mask).to_bits()
            );
        }
    }

    /// The problems the table pins cover: the shipped families, a nonzero
    /// constant with a 3-local term, a term with a repeated spin (which
    /// only `Deserialize` can build: it checks nothing), and ±0.0 and
    /// subnormal coefficients and offsets.
    fn table_pin_problems() -> Vec<Problem> {
        let g = Graph::erdos_renyi(7, 0.5, 41);
        let mut problems = vec![
            Problem::max_cut(&g),
            Problem::weighted_max_cut(&g, 3),
            Problem::sherrington_kirkpatrick(&g, 3),
            Problem::random_partition(&g, 3),
            Problem::max_independent_set(&g, 2.0),
        ];
        problems.push(
            Problem::from_terms(
                "three-local",
                7,
                -1.375,
                vec![
                    CostTerm::with_offset(vec![6, 0, 3], 0.3, 0.1),
                    CostTerm::new(vec![1, 2], -0.7),
                    CostTerm::with_offset(vec![4], 0.2, -0.05),
                ],
                RatioConvention::ShiftedByWorst,
            )
            .unwrap(),
        );
        let repeated: Problem = serde_json::from_str(
            r#"{"name":"repeated","num_spins":5,"constant":0.25,
                "terms":[{"qubits":[1,1,3],"coeff":0.5,"offset":0.125},
                         {"qubits":[0,2],"coeff":-0.3,"offset":0.0}],
                "convention":"RatioToOptimum"}"#,
        )
        .unwrap();
        assert_eq!(repeated.terms()[0].qubits(), [1, 1, 3]);
        problems.push(repeated);
        let tiny = f64::from_bits(1); // the smallest subnormal
        problems.push(
            Problem::from_terms(
                "signed-zeros",
                6,
                -0.0,
                vec![
                    CostTerm::with_offset(vec![0, 1], -0.0, -0.0),
                    CostTerm::with_offset(vec![2], 0.0, -0.0),
                    CostTerm::with_offset(vec![3, 5], tiny, -tiny),
                    CostTerm::with_offset(vec![4], -f64::MIN_POSITIVE / 4.0, 0.0),
                ],
                RatioConvention::RatioToOptimum,
            )
            .unwrap(),
        );
        problems
    }

    #[test]
    fn values_into_matches_value_mask_bitwise() {
        // Whole tables, and bases and lengths off the 16-entry chunks and
        // the 2¹³-entry blocks (a value depends on the mask's low
        // `num_spins` bits only, so bases past 2ⁿ are fine).
        let spans: [(u64, usize); 6] = [
            (0, 1 << 7),
            (3, 37),
            (5, 11),
            (16, 48),
            ((VALUES_BLOCK - 5) as u64, 2 * VALUES_BLOCK + 7),
            ((3 * VALUES_BLOCK + 1) as u64, 1),
        ];
        for p in table_pin_problems() {
            for &(base, len) in &spans {
                let mut out = vec![f64::NAN; len];
                p.values_into(base, &mut out);
                for (z, v) in (base..).zip(&out) {
                    assert_eq!(
                        v.to_bits(),
                        p.value_mask(z).to_bits(),
                        "{}: entry {z} of ({base}, {len})",
                        p.name()
                    );
                }
            }
        }
    }

    /// `brute_force` as it was before the block fill: one `value_mask` per
    /// mask, scanned in mask order.
    fn reference_brute_force(p: &Problem) -> ExactSolution {
        let symmetric = p.is_flip_symmetric();
        let bits = if symmetric {
            p.num_spins() - 1
        } else {
            p.num_spins()
        };
        let multiplicity = if symmetric { 2 } else { 1 };
        let (mut best, mut best_mask, mut num_optima) = (f64::NEG_INFINITY, 0, 0);
        let (mut worst, mut worst_mask) = (f64::INFINITY, 0);
        for mask in 0..(1u64 << bits) {
            let value = p.value_mask(mask);
            if value > best + 1e-12 {
                best = value;
                best_mask = mask;
                num_optima = multiplicity;
            } else if (value - best).abs() <= 1e-12 {
                num_optima += multiplicity;
            }
            if value < worst {
                worst = value;
                worst_mask = mask;
            }
        }
        ExactSolution {
            best_value: best,
            best_mask,
            worst_value: worst,
            worst_mask,
            num_optima,
        }
    }

    #[test]
    fn brute_force_matches_a_per_mask_scan() {
        let mut problems = table_pin_problems();
        // Tie-heavy unweighted graphs, and 15 nodes, whose 2¹⁴ masks span
        // two blocks of the fill.
        for g in [
            Graph::cycle(8),
            Graph::complete(6),
            Graph::erdos_renyi(15, 0.3, 7),
            Graph::erdos_renyi(14, 0.5, 8),
        ] {
            problems.push(Problem::max_cut(&g));
            problems.push(Problem::max_independent_set(&g, 2.0));
        }
        for p in problems {
            let got = p.brute_force().unwrap();
            let want = reference_brute_force(&p);
            assert_eq!(
                got.best_value.to_bits(),
                want.best_value.to_bits(),
                "{}",
                p.name()
            );
            assert_eq!(
                got.worst_value.to_bits(),
                want.worst_value.to_bits(),
                "{}",
                p.name()
            );
            assert_eq!(
                (got.best_mask, got.worst_mask, got.num_optima),
                (want.best_mask, want.worst_mask, want.num_optima),
                "{}",
                p.name()
            );
        }
    }
}
