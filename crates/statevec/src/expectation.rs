//! Expectation values of diagonal cost operators.
//!
//! The QAOA cost function (Eq. 1 of the paper) is diagonal in the
//! computational basis, so its expectation over a state is a weighted sum of
//! measurement probabilities. The helpers here evaluate it directly from the
//! state's probability distribution without materializing the full `2^n`
//! diagonal when given a problem or an edge list.
//!
//! The problem-generic entry points ([`problem_expectation`],
//! [`problem_diagonal`]) work for any [`Problem`] — an arbitrary diagonal
//! cost Hamiltonian — and evaluate Max-Cut problems bit-identically to the
//! historical edge-list helpers ([`maxcut_expectation`],
//! [`maxcut_diagonal`]), which are kept for the paper-faithful call sites.

use crate::state::{par_blocks, StateVector, TABLE_BLOCK};
use graphs::Problem;

/// The Max-Cut cost of a basis state `z` (bitmask) for the given edge list:
/// `C(z) = Σ w_uv · [z_u ≠ z_v]`.
pub fn maxcut_value_of_basis_state(edges: &[(usize, usize, f64)], z: usize) -> f64 {
    edges
        .iter()
        .map(|&(u, v, w)| {
            let bu = (z >> u) & 1;
            let bv = (z >> v) & 1;
            if bu != bv {
                w
            } else {
                0.0
            }
        })
        .sum()
}

/// `⟨ψ| C_MC |ψ⟩` for the Max-Cut Hamiltonian of the given edge list: one
/// sequential sum over basis states in z-order, recomputing each cut.
pub fn maxcut_expectation(state: &StateVector, edges: &[(usize, usize, f64)]) -> f64 {
    state
        .probabilities()
        .iter()
        .enumerate()
        .map(|(z, p)| p * maxcut_value_of_basis_state(edges, z))
        .sum()
}

/// The full `2^n` diagonal of the Max-Cut Hamiltonian for an edge list:
/// `diag[z] = C(z)`.
///
/// Building this once per graph and reusing it across optimizer iterations
/// (via [`StateVector::expectation_diagonal`]) replaces the per-evaluation
/// `O(2^n · |E|)` cut recomputation of [`maxcut_expectation`] with an
/// `O(2^n)` dot product. From 2¹⁴ entries the build is spread over the
/// pool's threads; every entry is computed alone, so the bits never depend
/// on the thread count.
pub fn maxcut_diagonal(num_qubits: usize, edges: &[(usize, usize, f64)]) -> Vec<f64> {
    let dim = 1usize << num_qubits;
    let mut diag = vec![0.0f64; dim];
    let fill = |out: &mut [f64], base: usize| {
        for (off, d) in out.iter_mut().enumerate() {
            *d = maxcut_value_of_basis_state(edges, base + off);
        }
    };
    par_blocks(diag.as_mut_slice(), TABLE_BLOCK, fill);
    diag
}

/// `⟨ψ| C |ψ⟩` for an arbitrary diagonal cost [`Problem`].
///
/// The problem-generic twin of [`maxcut_expectation`], the same sequential
/// sum in z-order. Max-Cut problems evaluate bit-identically to the
/// edge-list path.
pub fn problem_expectation(state: &StateVector, problem: &Problem) -> f64 {
    state
        .probabilities()
        .iter()
        .enumerate()
        .map(|(z, p)| p * problem.value_mask(z as u64))
        .sum()
}

/// The full `2^n` diagonal of an arbitrary diagonal cost [`Problem`]:
/// `diag[z] = C(z)`.
///
/// The problem-generic twin of [`maxcut_diagonal`]; this is what the
/// compiled QAOA objective caches per problem + graph and reuses across all
/// optimizer iterations via [`StateVector::expectation_diagonal`]. Each
/// thread's run of 2¹³-entry blocks is filled term-outer by
/// [`Problem::values_into`]: a block starts at the constant and every term
/// adds its value to every entry in turn, so each entry is
/// [`Problem::value_mask`] bit for bit, whatever the thread count.
pub fn problem_diagonal(problem: &Problem) -> Vec<f64> {
    let dim = 1usize << problem.num_spins();
    let mut diag = vec![0.0f64; dim];
    par_blocks(diag.as_mut_slice(), TABLE_BLOCK, |out, base| {
        problem.values_into(base as u64, out)
    });
    diag
}

/// Expectation of a single `Z_u Z_v` correlator.
pub fn zz_expectation(state: &StateVector, u: usize, v: usize) -> f64 {
    let bu = 1usize << u;
    let bv = 1usize << v;
    state
        .amplitudes()
        .iter()
        .enumerate()
        .map(|(z, a)| {
            let sign = if ((z & bu != 0) as u8) ^ ((z & bv != 0) as u8) == 1 {
                -1.0
            } else {
                1.0
            };
            sign * a.norm_sqr()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::Circuit;

    #[test]
    fn maxcut_value_counts_cut_edges() {
        let edges = vec![(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)];
        // z = 0b001: node 0 on one side, nodes 1,2 on the other -> edges (0,1),(0,2) cut.
        assert_eq!(maxcut_value_of_basis_state(&edges, 0b001), 2.0);
        // All same side: nothing cut.
        assert_eq!(maxcut_value_of_basis_state(&edges, 0b000), 0.0);
        assert_eq!(maxcut_value_of_basis_state(&edges, 0b111), 0.0);
    }

    #[test]
    fn expectation_on_plus_state_is_half_total_weight() {
        // Each edge is cut with probability 1/2 in the uniform superposition.
        let edges = vec![(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)];
        let state = StateVector::plus_state(4).unwrap();
        let expected = 0.5 * (1.0 + 2.0 + 1.0);
        assert!((maxcut_expectation(&state, &edges) - expected).abs() < 1e-12);
    }

    #[test]
    fn expectation_on_basis_state_is_exact_cut() {
        let edges = vec![(0, 1, 1.0), (1, 2, 1.0)];
        let mut c = Circuit::new(3);
        c.x(1); // |010>: node 1 separated from 0 and 2 -> both edges cut
        let state = StateVector::from_circuit(&c).unwrap();
        assert!((maxcut_expectation(&state, &edges) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zz_expectation_signs() {
        let s0 = StateVector::zero_state(2).unwrap();
        assert!((zz_expectation(&s0, 0, 1) - 1.0).abs() < 1e-12);
        let mut c = Circuit::new(2);
        c.x(0);
        let s = StateVector::from_circuit(&c).unwrap();
        assert!((zz_expectation(&s, 0, 1) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn problem_expectation_matches_maxcut_path_bitwise() {
        let g = graphs::Graph::erdos_renyi(6, 0.5, 17);
        let problem = Problem::max_cut(&g);
        let edges: Vec<(usize, usize, f64)> =
            g.edges().iter().map(|e| (e.u, e.v, e.weight)).collect();
        let mut c = Circuit::new(6);
        c.h_layer();
        c.rzz(0, 1, 0.7).rx(2, 0.4).ry(3, 1.2).rzz(4, 5, -0.3);
        let state = StateVector::from_circuit(&c).unwrap();
        let legacy = maxcut_expectation(&state, &edges);
        let generic = problem_expectation(&state, &problem);
        assert_eq!(legacy.to_bits(), generic.to_bits());
    }

    #[test]
    fn problem_diagonal_matches_maxcut_diagonal_bitwise() {
        let g = graphs::Graph::erdos_renyi(7, 0.5, 23);
        let problem = Problem::max_cut(&g);
        let edges: Vec<(usize, usize, f64)> =
            g.edges().iter().map(|e| (e.u, e.v, e.weight)).collect();
        let legacy = maxcut_diagonal(7, &edges);
        let generic = problem_diagonal(&problem);
        assert_eq!(legacy.len(), generic.len());
        for (a, b) in legacy.iter().zip(&generic) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn problem_expectation_on_plus_state_is_the_diagonal_mean() {
        // The uniform superposition weights every basis state equally, so
        // ⟨C⟩ is the mean of the diagonal — for any problem.
        let g = graphs::Graph::erdos_renyi(6, 0.5, 3);
        for problem in [
            Problem::max_cut(&g),
            Problem::weighted_max_cut(&g, 5),
            Problem::max_independent_set(&g, 2.0),
            Problem::sherrington_kirkpatrick(&g, 5),
            Problem::random_partition(&g, 5),
        ] {
            let state = StateVector::plus_state(6).unwrap();
            let diag = problem_diagonal(&problem);
            let mean = diag.iter().sum::<f64>() / diag.len() as f64;
            let e = problem_expectation(&state, &problem);
            assert!(
                (e - mean).abs() < 1e-10,
                "{}: {e} vs mean {mean}",
                problem.name()
            );
        }
    }

    #[test]
    fn problem_expectation_on_basis_state_is_the_problem_value() {
        let g = graphs::Graph::cycle(4);
        let problem = Problem::max_independent_set(&g, 2.0);
        let mut c = Circuit::new(4);
        c.x(0).x(2); // mask 0b0101: the independent set {0, 2} of C4.
        let state = StateVector::from_circuit(&c).unwrap();
        let e = problem_expectation(&state, &problem);
        assert!((e - problem.value_mask(0b0101)).abs() < 1e-12);
        assert!((e - 2.0).abs() < 1e-12, "alpha(C4) = 2, got {e}");
    }

    #[test]
    fn maxcut_expectation_relates_to_zz() {
        // <C> = sum_e w_e (1 - <Z_u Z_v>) / 2
        let edges = vec![(0, 1, 1.0), (1, 2, 1.5)];
        let mut c = Circuit::new(3);
        c.h_layer();
        c.rzz(0, 1, 0.7).rx(0, 0.4).ry(2, 1.2);
        let s = StateVector::from_circuit(&c).unwrap();
        let via_zz: f64 = edges
            .iter()
            .map(|&(u, v, w)| 0.5 * w * (1.0 - zz_expectation(&s, u, v)))
            .sum();
        assert!((maxcut_expectation(&s, &edges) - via_zz).abs() < 1e-10);
    }
}
