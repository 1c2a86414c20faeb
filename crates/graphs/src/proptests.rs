//! Property-based tests for graphs and Max-Cut.

use crate::graph::Graph;
use crate::maxcut::MaxCut;
use crate::problem::Problem;
use proptest::prelude::*;

fn arb_er_graph() -> impl Strategy<Value = Graph> {
    (2usize..12, 0.0f64..1.0, any::<u64>()).prop_map(|(n, p, seed)| Graph::erdos_renyi(n, p, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn er_edge_count_within_bounds(g in arb_er_graph()) {
        let n = g.num_nodes();
        prop_assert!(g.num_edges() <= n * (n - 1) / 2);
    }

    #[test]
    fn handshake_lemma(g in arb_er_graph()) {
        let degree_sum: usize = (0..g.num_nodes()).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }

    #[test]
    fn cut_value_bounded_by_total_weight(g in arb_er_graph(), mask in any::<u64>()) {
        let cut = MaxCut::cut_value_mask(&g, mask);
        prop_assert!(cut >= -1e-12);
        prop_assert!(cut <= g.total_weight() + 1e-12);
    }

    #[test]
    fn complementary_assignments_have_equal_cut(g in arb_er_graph(), mask in any::<u64>()) {
        let n = g.num_nodes();
        let full = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
        let cut = MaxCut::cut_value_mask(&g, mask & full);
        let cut_comp = MaxCut::cut_value_mask(&g, (!mask) & full);
        prop_assert!((cut - cut_comp).abs() < 1e-9);
    }

    #[test]
    fn brute_force_dominates_heuristics(g in arb_er_graph()) {
        let exact = MaxCut::brute_force(&g).unwrap().value;
        let problem = Problem::max_cut(&g);
        let (greedy, _) = problem.greedy();
        let (local, _) = problem.local_search(None);
        prop_assert!(greedy <= exact + 1e-9);
        prop_assert!(local <= exact + 1e-9);
        // Greedy achieves at least half of the total weight.
        prop_assert!(greedy + 1e-9 >= 0.5 * g.total_weight());
    }

    #[test]
    fn spins_and_mask_cut_values_agree(g in arb_er_graph(), mask in any::<u64>()) {
        let n = g.num_nodes();
        let spins: Vec<i8> = (0..n).map(|i| if (mask >> i) & 1 == 1 { 1 } else { -1 }).collect();
        let by_mask = MaxCut::cut_value_mask(&g, mask);
        let by_spins = Problem::max_cut(&g).value_spins(&spins);
        prop_assert!((by_mask - by_spins).abs() < 1e-9);
    }

    #[test]
    fn random_regular_always_regular(n_half in 3usize..7, d in 2usize..4, seed in any::<u64>()) {
        let n = n_half * 2;
        prop_assume!(d < n);
        if let Ok(g) = Graph::random_regular(n, d, seed) {
            prop_assert!(g.is_regular(d));
        }
    }
}
