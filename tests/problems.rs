//! Integration suite for the pluggable problem layer.
//!
//! Three claims are pinned here:
//!
//! 1. **Max-Cut is bit-identical to the pre-refactor code path.** The
//!    `maxcut_search_*_pre_refactor` tests compare full search outputs
//!    (per-candidate, per-graph energies as exact f64 bit patterns) against
//!    values captured from the repository immediately before the problem
//!    layer landed. Any deviation — in the cost evaluation, the ansatz
//!    lowering, the compiled diagonal, or the classical reference — fails
//!    these tests.
//! 2. **Every backend agrees on every shipped problem.** Property-style
//!    sweeps assert that the dense state vector, the light-cone tensor
//!    network, and the compiled program produce the same expectation to
//!    1e-10 on random instances and random angles.
//! 3. **Every shipped problem searches end-to-end** through the same
//!    pipeline the CLI drives.

use qarchsearch_suite::prelude::*;

fn er_dataset(count: usize, nodes: usize, seed: u64) -> Vec<Graph> {
    qarchsearch_suite::graphs::datasets::erdos_renyi_dataset(count, nodes, seed)
}

/// Assert two outcomes agree bit-for-bit on everything except wall-clock
/// timings (which can never reproduce).
fn assert_outcomes_bitwise_equal(a: &SearchOutcome, b: &SearchOutcome) {
    assert_eq!(a.problem, b.problem);
    assert_eq!(a.best.mixer_label, b.best.mixer_label);
    assert_eq!(a.best.depth, b.best.depth);
    assert_eq!(a.best.energy.to_bits(), b.best.energy.to_bits());
    assert_eq!(a.num_candidates_evaluated, b.num_candidates_evaluated);
    assert_eq!(a.total_optimizer_evaluations, b.total_optimizer_evaluations);
    assert_eq!(a.full_budget_evaluations, b.full_budget_evaluations);
    assert_eq!(a.depth_results.len(), b.depth_results.len());
    for (da, db) in a.depth_results.iter().zip(&b.depth_results) {
        assert_eq!(da.depth, db.depth);
        assert_eq!(da.rungs, db.rungs);
        assert_eq!(da.gated_out, db.gated_out);
        assert_eq!(da.best_energy.to_bits(), db.best_energy.to_bits());
        assert_eq!(da.candidates.len(), db.candidates.len());
        for (ca, cb) in da.candidates.iter().zip(&db.candidates) {
            assert_eq!(ca.mixer_label, cb.mixer_label);
            assert_eq!(ca.mean_energy.to_bits(), cb.mean_energy.to_bits());
            assert_eq!(
                ca.mean_approx_ratio.to_bits(),
                cb.mean_approx_ratio.to_bits()
            );
            assert_eq!(ca.total_evaluations, cb.total_evaluations);
            assert_eq!(ca.pruned_at_rung, cb.pruned_at_rung);
            assert_eq!(ca.per_graph, cb.per_graph);
        }
    }
}

/// Pre-refactor capture: statevector backend, pruning pipeline (first rung
/// 10, eta 2), 2 threads, seed 2023, 2 ER graphs on 8 nodes, alphabet
/// {rx, ry}, pmax 2, kmax 2, budget 40. Values are `f64::to_bits()` of each
/// candidate's (mean energy, per-graph energies) in proposal order.
#[test]
fn maxcut_pipeline_search_is_bit_identical_to_pre_refactor() {
    let dataset = er_dataset(2, 8, 2023);
    let cfg = SearchConfig::builder()
        .alphabet(GateAlphabet::from_mnemonics(&["rx", "ry"]).unwrap())
        .max_depth(2)
        .max_gates_per_mixer(2)
        .optimizer_budget(40)
        .backend(Backend::StateVector)
        .halving(10, 2)
        .threads(2)
        .seed(2023)
        .build();
    let outcome = SearchDriver::new(cfg.clone()).run(&dataset).unwrap();

    // Driver vs driver: a second run at a different worker count must
    // reproduce the first bit for bit (thread count never leaks into
    // results — including through the batched energy path).
    let other = SearchDriver::new(SearchConfig {
        threads: Some(1),
        ..cfg
    })
    .run(&dataset)
    .unwrap();
    assert_outcomes_bitwise_equal(&outcome, &other);

    assert_eq!(outcome.problem, "maxcut");
    assert_eq!(outcome.best.mixer_label, "('rx', 'rx')");
    assert_eq!(outcome.best.energy.to_bits(), 0x40214183065013c5);

    // (label, mean-energy bits, per-graph energy bits, evaluations)
    #[rustfmt::skip]
    let pinned: [(usize, &str, u64, [u64; 2], usize); 12] = [
        (1, "('rx')",       0x401ea4067c8431c2, [0x4014f62964e33189, 0x402428f1ca1298fd], 83),
        (1, "('ry')",       0x401996f79eea35fd, [0x400e49a7811fa15b, 0x4022048dbea24da6], 20),
        (1, "('rx', 'rx')", 0x401feffd5a123f3c, [0x4014f62920c4052b, 0x402574e8c9b03ca7], 82),
        (1, "('rx', 'ry')", 0x401c66a3ec7d6222, [0x401181c742ea8d89, 0x4023a5c04b081b5d], 41),
        (1, "('ry', 'rx')", 0x4019cdb6575a20e6, [0x400bc409be2b2d9e, 0x4022dcb3e7cf557f], 23),
        (1, "('ry', 'ry')", 0x4019fa25f43e93de, [0x400fe897b6b0ad26, 0x4022000006926895], 22),
        (2, "('rx')",       0x4020e0cac414efb8, [0x4017b5a5eff98b5a, 0x4025e6c2902d19c3], 81),
        (2, "('ry')",       0x401a02ba660e5dec, [0x400f602b6052db1a, 0x40222aaf8df9a725], 25),
        (2, "('rx', 'rx')", 0x40214183065013c5, [0x4017b760bce9ac11, 0x4026a755ae2b5181], 83),
        (2, "('rx', 'ry')", 0x401f93b2e6c3a201, [0x4014c317e1803328, 0x40253226f603886d], 40),
        (2, "('ry', 'rx')", 0x401d8ea5fc821f51, [0x4014a58826980562, 0x40233be1e9361ca0], 21),
        (2, "('ry', 'ry')", 0x401983fd55f3a132, [0x400d97eea32fc84b, 0x40221e01ad27af1f], 21),
    ];

    let candidates: Vec<_> = outcome
        .depth_results
        .iter()
        .flat_map(|d| d.candidates.iter().map(move |c| (d.depth, c)))
        .collect();
    assert_eq!(candidates.len(), pinned.len());
    for ((depth, cand), (p_depth, p_label, p_mean, p_graphs, p_evals)) in
        candidates.iter().zip(&pinned)
    {
        assert_eq!(depth, p_depth);
        assert_eq!(&cand.mixer_label, p_label);
        assert_eq!(
            cand.mean_energy.to_bits(),
            *p_mean,
            "{p_label} at depth {p_depth}: mean energy drifted"
        );
        assert_eq!(cand.per_graph.len(), 2);
        for (t, bits) in cand.per_graph.iter().zip(p_graphs) {
            assert_eq!(
                t.energy.to_bits(),
                *bits,
                "{p_label} at depth {p_depth}: per-graph energy drifted"
            );
        }
        assert_eq!(cand.total_evaluations, *p_evals, "{p_label}");
    }
}

/// Pre-refactor capture: tensor-network backend (the paper default), serial
/// full-budget scheduler, 1 ER graph on 6 nodes, alphabet {rx, ry}, pmax 1,
/// kmax 1, budget 25, seed 7.
#[test]
fn maxcut_serial_tensornet_search_is_bit_identical_to_pre_refactor() {
    let dataset = er_dataset(1, 6, 7);
    let cfg = SearchConfig::builder()
        .alphabet(GateAlphabet::from_mnemonics(&["rx", "ry"]).unwrap())
        .max_depth(1)
        .max_gates_per_mixer(1)
        .optimizer_budget(25)
        .no_prune()
        .serial()
        .seed(7)
        .build();
    let outcome = SearchDriver::new(cfg.clone()).run(&dataset).unwrap();

    // Driver vs driver: a repeated serial run reproduces the first bit for
    // bit.
    let again = SearchDriver::new(cfg).run(&dataset).unwrap();
    assert_outcomes_bitwise_equal(&outcome, &again);

    assert_eq!(outcome.best.mixer_label, "('ry')");
    assert_eq!(outcome.best.energy.to_bits(), 0x4017ff6229602e46);

    let pinned: [(&str, u64, u64, usize); 2] = [
        ("('rx')", 0x40152e807cfa99f8, 0x3fe83525211e66d2, 26),
        ("('ry')", 0x4017ff6229602e46, 0x3feb6d02786debbe, 27),
    ];
    let cands = &outcome.depth_results[0].candidates;
    assert_eq!(cands.len(), 2);
    for (cand, (label, mean, ratio, evals)) in cands.iter().zip(&pinned) {
        assert_eq!(&cand.mixer_label, label);
        assert_eq!(cand.mean_energy.to_bits(), *mean, "{label} energy drifted");
        assert_eq!(
            cand.mean_approx_ratio.to_bits(),
            *ratio,
            "{label} approximation ratio drifted"
        );
        assert_eq!(cand.total_evaluations, *evals);
    }
}

fn shipped_problems(graph: &Graph, seed: u64) -> Vec<Problem> {
    ProblemKind::all(seed)
        .into_iter()
        .map(|k| k.instantiate(graph))
        .collect()
}

/// Deterministic pseudo-random angles for the agreement sweeps.
fn angles(seed: u64, count: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..count)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Map the top bits into (−π, π).
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2.0 * std::f64::consts::PI
        })
        .collect()
}

/// Statevec, tensornet and the compiled program agree to 1e-10 for every
/// shipped problem on random graphs and angles.
#[test]
fn backends_agree_on_every_problem_on_random_instances() {
    for seed in 0..4u64 {
        let graph = Graph::erdos_renyi(6, 0.5, 100 + seed);
        for problem in shipped_problems(&graph, seed) {
            for depth in [1usize, 2] {
                let ansatz = QaoaAnsatz::for_problem(&problem, depth, Mixer::qnas()).unwrap();
                let a = angles(seed * 31 + depth as u64, 2 * depth);
                let (gammas, betas) = a.split_at(depth);
                let circuit = ansatz.bind(gammas, betas).unwrap();

                let sv = Backend::StateVector
                    .expectation(&circuit, &problem)
                    .unwrap();
                let tn = Backend::TensorNetwork
                    .expectation(&circuit, &problem)
                    .unwrap();

                let eval =
                    EnergyEvaluator::for_problem(&graph, problem.clone(), Backend::StateVector)
                        .unwrap();
                let compiled = eval.compile(&ansatz).unwrap();
                let fast = compiled.energy_flat(&a).unwrap();

                // 1e-10 relative: partition energies reach ~1e4, where an
                // absolute 1e-10 would be below f64 resolution.
                let tol = 1e-10 * (1.0 + sv.abs());
                let label = format!("{} seed {seed} depth {depth}", problem.name());
                assert!((sv - tn).abs() < tol, "{label}: sv {sv} vs tn {tn}");
                assert!(
                    (sv - fast).abs() < tol,
                    "{label}: sv {sv} vs compiled {fast}"
                );
            }
        }
    }
}

/// The trained energy never beats the exact classical optimum, and the
/// ratio convention keeps r in [0, 1], for every shipped problem.
#[test]
fn trained_energies_respect_classical_optima() {
    let graph = Graph::erdos_renyi(7, 0.5, 77);
    for problem in shipped_problems(&graph, 77) {
        let eval =
            EnergyEvaluator::for_problem(&graph, problem.clone(), Backend::StateVector).unwrap();
        let ansatz = QaoaAnsatz::for_problem(&problem, 2, Mixer::qnas()).unwrap();
        let trained = eval
            .train(&ansatz, &CobylaOptimizer::default(), 80)
            .unwrap();
        assert!(
            trained.energy <= eval.classical_optimum() + 1e-9,
            "{}: {} vs {}",
            problem.name(),
            trained.energy,
            eval.classical_optimum()
        );
        assert!(trained.approx_ratio <= 1.0 + 1e-9, "{}", problem.name());
        assert!(trained.approx_ratio >= -1e-9, "{}", problem.name());
        assert_eq!(trained.classical_quality, SolutionQuality::Exact);
    }
}

/// Weighted Max-Cut and the spin glass have close to `2^n` distinct cost
/// angles, so their phase LUT is as long as the dense table it replaced and
/// every amplitude has a factor of its own. Pinned to the bits the
/// per-amplitude `sin`/`cos` pass trained to (commit 96177ad): instance
/// seed 77, ER(7, 0.5), `('rx', 'ry')` at p = 2, COBYLA, 80 evaluations.
#[test]
fn dense_valued_problems_train_to_the_dense_table_bits() {
    let graph = Graph::erdos_renyi(7, 0.5, 77);
    #[rustfmt::skip]
    let expected: [(ProblemKind, u64, [u64; 2], [u64; 2]); 2] = [
        (ProblemKind::WeightedMaxCut { seed: 77 }, 0x4013b67ec8a6cebb,
         [0x3ff76672ee718e93, 0x3fd79facb2a1cf4f], [0x3fc139a66c4546a8, 0x3fd6fff32afc07f4]),
        (ProblemKind::SherringtonKirkpatrick { seed: 77 }, 0x3ff320ee87967b9a,
         [0x3fdc62a968e266f6, 0x3f829d401e7fd1c2], [0x3fee6ea9b699c2d9, 0x3ff0ba197c12dafa]),
    ];
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    for (kind, energy, gammas, betas) in expected {
        let problem = kind.instantiate(&graph);
        let eval =
            EnergyEvaluator::for_problem(&graph, problem.clone(), Backend::StateVector).unwrap();
        let ansatz = QaoaAnsatz::for_problem(&problem, 2, Mixer::qnas()).unwrap();
        let trained = eval
            .train(&ansatz, &CobylaOptimizer::default(), 80)
            .unwrap();
        assert_eq!(trained.energy.to_bits(), energy, "{}", kind.name());
        assert_eq!(bits(&trained.gammas), gammas, "{}", kind.name());
        assert_eq!(bits(&trained.betas), betas, "{}", kind.name());
        assert_eq!(trained.evaluations, 80, "{}", kind.name());
    }
}

/// The full budget-aware pipeline (halving + warm starts + rung workers)
/// runs end-to-end for each non-Max-Cut problem family, stays
/// thread-count-deterministic, and reports the problem name.
#[test]
fn pipeline_search_runs_end_to_end_for_every_problem_family() {
    let dataset = er_dataset(2, 6, 5);
    for kind in ProblemKind::all(5) {
        if kind == ProblemKind::MaxCut {
            continue; // covered (bitwise) by the regression pins above
        }
        let cfg = SearchConfig::builder()
            .alphabet(GateAlphabet::from_mnemonics(&["rx", "ry"]).unwrap())
            .max_depth(2)
            .max_gates_per_mixer(2)
            .optimizer_budget(30)
            .backend(Backend::StateVector)
            .halving(10, 2)
            .problem(kind.clone())
            .seed(5)
            .build();
        let one = SearchDriver::new(SearchConfig {
            threads: Some(1),
            ..cfg.clone()
        })
        .run(&dataset)
        .unwrap();
        let four = SearchDriver::new(SearchConfig {
            threads: Some(4),
            ..cfg
        })
        .run(&dataset)
        .unwrap();
        assert_eq!(one.problem, kind.name());
        assert!(one.best.energy.is_finite());
        assert!(one.best.approx_ratio <= 1.0 + 1e-9, "{}", kind.name());
        assert_eq!(
            one.best.energy.to_bits(),
            four.best.energy.to_bits(),
            "{}: thread count leaked into results",
            kind.name()
        );
        assert_eq!(one.best.mixer_label, four.best.mixer_label);
    }
}

/// The JSON search report carries the problem name end to end.
#[test]
fn search_report_names_the_problem() {
    use qarchsearch_suite::qarchsearch::report::SearchReport;
    let dataset = er_dataset(1, 5, 3);
    let cfg = SearchConfig::builder()
        .alphabet(GateAlphabet::from_mnemonics(&["rx"]).unwrap())
        .max_depth(1)
        .max_gates_per_mixer(1)
        .optimizer_budget(15)
        .backend(Backend::StateVector)
        .problem(ProblemKind::NumberPartitioning { seed: 3 })
        .no_prune()
        .seed(3)
        .build();
    let outcome = SearchDriver::new(cfg).run(&dataset).unwrap();
    let report = SearchReport::from(&outcome);
    assert_eq!(report.problem, "partition");
    let json = report.to_json();
    assert!(json.contains("\"problem\""), "{json}");
    assert!(json.contains("partition"), "{json}");
}
