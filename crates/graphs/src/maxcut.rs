//! Max-Cut cost evaluation and classical reference solvers.
//!
//! The QAOA cost function of the paper (Eq. 1) is
//!
//! ```text
//! C_MC(z) = 1/2 Σ_{(u,v) ∈ E} w_uv (1 - z_u z_v),   z_i ∈ {-1, +1}
//! ```
//!
//! i.e. the (weighted) number of edges that cross the partition. The
//! approximation ratio of Eq. 3 divides the QAOA expectation ⟨C⟩ by the best
//! classically-known cut `C_classical`; for the 10-node instances of the paper
//! the exact optimum is computable by enumeration, which is what
//! [`MaxCut::brute_force`] does. A greedy + 1-flip local-search heuristic is
//! provided for larger instances.

use crate::error::GraphError;
use crate::graph::Graph;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Result of an exact (brute-force) Max-Cut computation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BruteForceResult {
    /// The optimal cut value.
    pub value: f64,
    /// One optimal assignment as a bitmask (bit i = 1 means node i is in
    /// partition "+1").
    pub assignment: u64,
    /// Number of optimal assignments found (each cut counted twice, once per
    /// complementary labelling).
    pub num_optima: usize,
}

/// Max-Cut utilities over a [`Graph`].
pub struct MaxCut;

impl MaxCut {
    /// Enumeration limit for exact solving (2^26 assignments ≈ 67M).
    pub const EXACT_NODE_LIMIT: usize = 26;

    /// Cut value of a ±1 assignment given as a slice of spins.
    ///
    /// `spins[i]` must be `+1` or `-1`; any positive value is treated as `+1`.
    pub fn cut_value_spins(graph: &Graph, spins: &[i8]) -> f64 {
        graph
            .edges()
            .iter()
            .map(|e| {
                let zu = if spins[e.u] > 0 { 1.0 } else { -1.0 };
                let zv = if spins[e.v] > 0 { 1.0 } else { -1.0 };
                0.5 * e.weight * (1.0 - zu * zv)
            })
            .sum()
    }

    /// Cut value of an assignment given as a bitmask.
    pub fn cut_value_mask(graph: &Graph, mask: u64) -> f64 {
        graph
            .edges()
            .iter()
            .map(|e| {
                let bu = (mask >> e.u) & 1;
                let bv = (mask >> e.v) & 1;
                if bu != bv {
                    e.weight
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// Exact Max-Cut by exhaustive enumeration. Only feasible for
    /// `n <= EXACT_NODE_LIMIT`; the paper's 10-node instances enumerate 1024
    /// assignments.
    pub fn brute_force(graph: &Graph) -> Result<BruteForceResult, GraphError> {
        let n = graph.num_nodes();
        if n > Self::EXACT_NODE_LIMIT {
            return Err(GraphError::TooLargeForExact {
                nodes: n,
                max: Self::EXACT_NODE_LIMIT,
            });
        }
        if n == 0 {
            return Ok(BruteForceResult {
                value: 0.0,
                assignment: 0,
                num_optima: 1,
            });
        }
        let mut best = f64::NEG_INFINITY;
        let mut best_mask = 0u64;
        let mut num_optima = 0usize;
        // Fixing node 0's side halves the search space without losing optima.
        for mask in 0..(1u64 << (n - 1)) {
            let value = Self::cut_value_mask(graph, mask);
            if value > best + 1e-12 {
                best = value;
                best_mask = mask;
                num_optima = 2; // the complement achieves the same cut
            } else if (value - best).abs() <= 1e-12 {
                num_optima += 2;
            }
        }
        Ok(BruteForceResult {
            value: best.max(0.0),
            assignment: best_mask,
            num_optima,
        })
    }

    /// Greedy constructive heuristic: place nodes one at a time on the side
    /// that maximizes the cut so far.
    pub fn greedy(graph: &Graph) -> (f64, Vec<i8>) {
        let n = graph.num_nodes();
        let mut spins: Vec<i8> = vec![0; n];
        for v in 0..n {
            // Gain of putting v on +1 vs -1 given already-placed neighbours.
            let mut gain_plus = 0.0;
            let mut gain_minus = 0.0;
            for &(w, weight) in graph.neighbors(v) {
                match spins[w] {
                    1 => gain_minus += weight,
                    -1 => gain_plus += weight,
                    _ => {}
                }
            }
            spins[v] = if gain_plus >= gain_minus { 1 } else { -1 };
        }
        (Self::cut_value_spins(graph, &spins), spins)
    }

    /// 1-flip local search started from `start` (or the greedy solution when
    /// `start` is `None`). Repeatedly flips the single node with the largest
    /// positive gain until no improving flip exists.
    pub fn local_search(graph: &Graph, start: Option<Vec<i8>>) -> (f64, Vec<i8>) {
        let mut spins = start.unwrap_or_else(|| Self::greedy(graph).1);
        if spins.len() != graph.num_nodes() {
            spins = vec![1; graph.num_nodes()];
        }
        loop {
            let mut best_gain = 0.0;
            let mut best_node = None;
            for v in 0..graph.num_nodes() {
                // Gain of flipping v: edges to same-side neighbours become cut,
                // edges to other-side neighbours become uncut.
                let mut gain = 0.0;
                for &(w, weight) in graph.neighbors(v) {
                    if spins[v] == spins[w] {
                        gain += weight;
                    } else {
                        gain -= weight;
                    }
                }
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
        (Self::cut_value_spins(graph, &spins), spins)
    }

    /// Multi-start randomized local search: `restarts` random initial
    /// assignments, each improved by 1-flip local search; the best is kept.
    pub fn randomized_local_search(graph: &Graph, restarts: usize, seed: u64) -> (f64, Vec<i8>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = graph.num_nodes();
        let mut best_value = f64::NEG_INFINITY;
        let mut best_spins = vec![1i8; n];
        for _ in 0..restarts.max(1) {
            let start: Vec<i8> = (0..n)
                .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
                .collect();
            let (value, spins) = Self::local_search(graph, Some(start));
            if value > best_value {
                best_value = value;
                best_spins = spins;
            }
        }
        if best_value.is_infinite() {
            best_value = 0.0;
        }
        (best_value, best_spins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_of_single_edge() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        assert_eq!(MaxCut::cut_value_spins(&g, &[1, -1]), 1.0);
        assert_eq!(MaxCut::cut_value_spins(&g, &[1, 1]), 0.0);
        assert_eq!(MaxCut::cut_value_mask(&g, 0b01), 1.0);
        assert_eq!(MaxCut::cut_value_mask(&g, 0b11), 0.0);
    }

    #[test]
    fn brute_force_even_cycle_cuts_all_edges() {
        let g = Graph::cycle(6);
        let r = MaxCut::brute_force(&g).unwrap();
        assert_eq!(r.value, 6.0);
    }

    #[test]
    fn brute_force_odd_cycle_leaves_one_edge() {
        let g = Graph::cycle(5);
        let r = MaxCut::brute_force(&g).unwrap();
        assert_eq!(r.value, 4.0);
    }

    #[test]
    fn brute_force_complete_graph() {
        // K4 max cut = 2*2 = 4 edges.
        let g = Graph::complete(4);
        let r = MaxCut::brute_force(&g).unwrap();
        assert_eq!(r.value, 4.0);
        // K5 max cut = 2*3 = 6.
        let g5 = Graph::complete(5);
        assert_eq!(MaxCut::brute_force(&g5).unwrap().value, 6.0);
    }

    #[test]
    fn brute_force_bipartite_graph_cuts_everything() {
        // A star is bipartite: all edges can be cut.
        let g = Graph::star(7);
        let r = MaxCut::brute_force(&g).unwrap();
        assert_eq!(r.value, 6.0);
    }

    #[test]
    fn brute_force_weighted() {
        let g = Graph::from_weighted_edges(3, &[(0, 1, 3.0), (1, 2, 1.0), (0, 2, 1.0)]).unwrap();
        // Best: separate node 1 from {0,2}: cut = 3 + 1 = 4.
        let r = MaxCut::brute_force(&g).unwrap();
        assert_eq!(r.value, 4.0);
    }

    #[test]
    fn brute_force_assignment_achieves_value() {
        let g = Graph::erdos_renyi(10, 0.5, 42);
        let r = MaxCut::brute_force(&g).unwrap();
        assert!((MaxCut::cut_value_mask(&g, r.assignment) - r.value).abs() < 1e-12);
    }

    #[test]
    fn brute_force_rejects_large_graphs() {
        let g = Graph::empty(40);
        assert!(matches!(
            MaxCut::brute_force(&g),
            Err(GraphError::TooLargeForExact { .. })
        ));
    }

    #[test]
    fn brute_force_empty_graph() {
        let g = Graph::empty(0);
        let r = MaxCut::brute_force(&g).unwrap();
        assert_eq!(r.value, 0.0);
    }

    #[test]
    fn greedy_never_exceeds_optimum() {
        for seed in 0..10 {
            let g = Graph::erdos_renyi(10, 0.5, seed);
            let exact = MaxCut::brute_force(&g).unwrap().value;
            let (greedy, _) = MaxCut::greedy(&g);
            assert!(greedy <= exact + 1e-12);
            // Greedy cuts at least half the edges (standard guarantee).
            assert!(greedy >= 0.5 * g.total_weight() - 1e-12);
        }
    }

    #[test]
    fn local_search_improves_or_matches_greedy() {
        for seed in 0..10 {
            let g = Graph::erdos_renyi(12, 0.4, seed + 100);
            let (greedy, spins) = MaxCut::greedy(&g);
            let (local, _) = MaxCut::local_search(&g, Some(spins));
            let exact = MaxCut::brute_force(&g).unwrap().value;
            assert!(local + 1e-12 >= greedy);
            assert!(local <= exact + 1e-12);
        }
    }

    #[test]
    fn randomized_local_search_finds_optimum_on_small_graphs() {
        for seed in 0..5 {
            let g = Graph::erdos_renyi(8, 0.5, seed + 7);
            let exact = MaxCut::brute_force(&g).unwrap().value;
            let (found, _) = MaxCut::randomized_local_search(&g, 30, seed);
            assert!(
                (found - exact).abs() < 1e-9,
                "seed {seed}: {found} vs exact {exact}"
            );
        }
    }
}
