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
//! [`MaxCut::brute_force`] does. [`MaxCut::cut_value_mask`] and
//! [`MaxCut::brute_force`] are the independent oracles that
//! [`crate::Problem::max_cut`] is pinned against; the heuristics for larger
//! instances live on [`crate::Problem`].

use crate::error::GraphError;
use crate::graph::Graph;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_of_single_edge() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        assert_eq!(MaxCut::cut_value_mask(&g, 0b01), 1.0);
        assert_eq!(MaxCut::cut_value_mask(&g, 0b10), 1.0);
        assert_eq!(MaxCut::cut_value_mask(&g, 0b00), 0.0);
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
}
