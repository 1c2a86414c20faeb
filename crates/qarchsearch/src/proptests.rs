//! Property-based tests for the search package.

use crate::alphabet::GateAlphabet;
use crate::predictor::RandomPredictor;
use crate::search::{ExecutionMode, SearchConfig, SearchOutcome, SearchStrategy};
use crate::session::SearchDriver;
use proptest::prelude::*;

/// Run a configuration through the session driver in parallel mode.
fn parallel_run(
    mut config: SearchConfig,
    graphs: &[graphs::Graph],
) -> Result<SearchOutcome, crate::SearchError> {
    config.mode = ExecutionMode::Parallel;
    SearchDriver::new(config).run(graphs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn combination_counts_match_enumeration(k in 1usize..4, size in 2usize..5) {
        let mnemonics = ["rx", "ry", "rz", "h", "p"];
        let alphabet = GateAlphabet::from_mnemonics(&mnemonics[..size]).unwrap();
        let combos = alphabet.combinations(k);
        prop_assert_eq!(combos.len(), alphabet.combination_count(k));
        // Each combination has exactly k gates from the alphabet.
        for c in &combos {
            prop_assert_eq!(c.len(), k);
            for g in c {
                prop_assert!(alphabet.position(*g).is_some());
            }
        }
        // All combinations are distinct.
        let unique: std::collections::BTreeSet<String> =
            combos.iter().map(|c| format!("{c:?}")).collect();
        prop_assert_eq!(unique.len(), combos.len());
    }

    #[test]
    fn random_predictor_only_uses_alphabet_gates(seed in any::<u64>(), k in 1usize..5) {
        let alphabet = GateAlphabet::from_mnemonics(&["rx", "h", "p"]).unwrap();
        let mut p = RandomPredictor::new(alphabet.clone(), seed);
        let seq = p.propose(k);
        prop_assert_eq!(seq.len(), k);
        for g in seq {
            prop_assert!(alphabet.position(g).is_some());
        }
    }

    #[test]
    fn candidate_space_size_formula(p_max in 1usize..5, k in 1usize..4) {
        let alphabet = GateAlphabet::paper_default();
        prop_assert_eq!(alphabet.search_space_size(p_max, k), p_max * 5usize.pow(k as u32));
    }

    #[test]
    fn config_validation_accepts_sane_configs(
        depth in 1usize..5,
        k in 1usize..5,
        budget in 1usize..300,
        threads in 1usize..64,
    ) {
        let builder = || SearchConfig::builder()
            .max_depth(depth)
            .max_gates_per_mixer(k)
            .optimizer_budget(budget)
            .threads(threads)
            .strategy(SearchStrategy::Random { samples_per_depth: 5 });
        let cfg = builder().build();
        if budget >= cfg.pipeline.first_rung {
            prop_assert!(cfg.validate().is_ok());
        } else {
            // A budget below the halving schedule's first rung is rejected
            // while pruning is on, and accepted in full-budget mode.
            prop_assert!(cfg.validate().is_err());
            prop_assert!(builder().no_prune().build().validate().is_ok());
            prop_assert!(builder().halving(budget, 4).build().validate().is_ok());
        }
    }
}

proptest! {
    // Full pipeline runs are comparatively expensive; a handful of random
    // seeds exercises the determinism claim without dominating `cargo test`.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The parallel pipeline (halving + warm starts + seeded SPSA) must
    /// return bit-identical winners and energies with 1, 2 and 4 threads,
    /// whatever the seed.
    #[test]
    fn parallel_search_is_thread_count_independent(seed in any::<u64>()) {
        let graphs = vec![
            graphs::Graph::cycle(5),
            graphs::Graph::erdos_renyi(6, 0.5, seed.wrapping_add(1)),
        ];
        let base = SearchConfig::builder()
            .alphabet(GateAlphabet::from_mnemonics(&["rx", "ry"]).unwrap())
            .max_depth(2)
            .max_gates_per_mixer(2)
            .optimizer_budget(24)
            .halving(8, 2)
            .optimizer(optim::OptimizerKind::Spsa)
            .backend(qaoa::Backend::StateVector)
            .seed(seed)
            .build();
        let reference = parallel_run(SearchConfig {
            threads: Some(1),
            ..base.clone()
        }, &graphs)
        .unwrap();
        for threads in [2usize, 4] {
            let other = parallel_run(SearchConfig {
                threads: Some(threads),
                ..base.clone()
            }, &graphs)
            .unwrap();
            prop_assert_eq!(reference.best.mixer_label.clone(), other.best.mixer_label);
            prop_assert_eq!(reference.best.energy, other.best.energy);
            prop_assert_eq!(
                reference.total_optimizer_evaluations,
                other.total_optimizer_evaluations
            );
            for (dr, do_) in reference.depth_results.iter().zip(&other.depth_results) {
                prop_assert_eq!(&dr.rungs, &do_.rungs);
                for (cr, co) in dr.candidates.iter().zip(&do_.candidates) {
                    prop_assert_eq!(cr.mean_energy, co.mean_energy);
                    prop_assert_eq!(&cr.per_graph, &co.per_graph);
                }
            }
        }
    }
}

/// Every f64 the search writes to a cache key, journal or checkpoint must
/// come back from JSON with the same bits. Integral values at or above
/// 1e15 print without a decimal point and re-parse as `U64`/`I64`, so they
/// are pinned alongside seeded random bit patterns and the edges of the
/// format.
#[test]
fn f64_json_round_trips_are_bit_exact() {
    use rand::{RngCore, SeedableRng};

    let two53 = 9_007_199_254_740_992.0_f64;
    let two64 = 18_446_744_073_709_551_616.0_f64;
    let mut inputs = vec![
        0.0,
        f64::from_bits(1),
        f64::from_bits(0x000F_FFFF_FFFF_FFFF),
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::EPSILON,
        0.1,
        1.0 / 3.0,
        std::f64::consts::PI,
        two53 - 1.0,
        two53,
        two53 + 2.0,
        999_999_999_999_999.0,
        1e15,
        1e15 + 1.0,
        123_456_789_012_345_680.0,
        2f64.powi(63),
        two64 - 2048.0,
        two64,
        two64 + 4096.0,
        1e20,
        1e300,
    ];
    inputs.extend(inputs.clone().into_iter().map(|x| -x));
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x6A50_F64B);
    let specials = inputs.len();
    while inputs.len() < specials + 100_000 {
        let x = f64::from_bits(rng.next_u64());
        if x.is_finite() {
            inputs.push(x);
        }
    }

    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for &x in &inputs {
        let text = serde_json::to_string(&x).unwrap();
        let back: f64 = serde_json::from_str(&text).unwrap();
        assert_eq!(back.to_bits(), x.to_bits(), "{x:e} printed as {text}");
    }
    for chunk in inputs.chunks(64) {
        let text = serde_json::to_string(&chunk.to_vec()).unwrap();
        let back: Vec<f64> = serde_json::from_str(&text).unwrap();
        assert_eq!(bits(&back), bits(chunk), "{text}");
    }
    // Lengths 1 and 2 sit inline, 3 on the heap.
    for len in 1..=3 {
        for chunk in inputs.chunks(len) {
            let text = serde_json::to_string(&qaoa::Angles::from(chunk)).unwrap();
            let back: qaoa::Angles = serde_json::from_str(&text).unwrap();
            assert_eq!(bits(&back), bits(chunk), "{text}");
        }
    }
}
