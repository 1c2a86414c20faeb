//! Differential suite for the tensor-network expectation plan (ISSUE 20
//! tentpole).
//!
//! The plan caches what a light-cone evaluation rebuilds although it depends
//! on the ansatz template and the problem alone — cones, network skeletons,
//! elimination orders. It is an optimization, not a semantic change: every
//! test here pins **bitwise** `f64` equality against the bind-per-call path
//! (`EnergyEvaluator::energy_flat`), or against training results captured at
//! the commit before the plan existed.

use qarchsearch_suite::prelude::*;
use qarchsearch_suite::qaoa::energy::TrainedCircuit;
use qarchsearch_suite::qaoa::QaoaError;
use qarchsearch_suite::qarchsearch::report::SearchReport;
use qarchsearch_suite::tensornet::ExpectationPlan;

fn mixers() -> Vec<Mixer> {
    [
        vec![Gate::RX],
        vec![Gate::RX, Gate::RY],
        vec![Gate::H, Gate::RZ],
        // Diagonal: adds no indices to any network.
        vec![Gate::P],
    ]
    .into_iter()
    .map(|gates| Mixer::new(gates).unwrap())
    .collect()
}

/// Generic angles, then points where `RX(2β)` / `RY(2β)` is numerically
/// diagonal and the bound network changes shape (β = 0, β = π).
fn points(depth: usize) -> Vec<Vec<f64>> {
    let generic: Vec<f64> = (0..2 * depth).map(|j| 0.35 - 0.27 * j as f64).collect();
    let mut zero_beta = generic.clone();
    zero_beta[depth] = 0.0;
    let mut pi_beta = generic.clone();
    pi_beta[2 * depth - 1] = std::f64::consts::PI;
    vec![generic, zero_beta, pi_beta, vec![0.0; 2 * depth]]
}

#[test]
fn plan_matches_energy_flat_bitwise_for_every_problem_backend_depth_mixer_and_thread_count() {
    let graph = Graph::erdos_renyi(6, 0.5, 41);
    let pools: Vec<rayon::ThreadPool> = [1, 2, 4]
        .into_iter()
        .map(|n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap()
        })
        .collect();
    for kind in ProblemKind::all(41) {
        let problem = kind.instantiate(&graph);
        let eval =
            EnergyEvaluator::for_problem(&graph, problem.clone(), Backend::TensorNetwork).unwrap();
        for depth in [1, 2] {
            for mixer in mixers() {
                let ansatz = QaoaAnsatz::for_problem(&problem, depth, mixer.clone()).unwrap();
                let planned = eval.plan(&ansatz).unwrap();
                for point in points(depth) {
                    let want = eval.energy_flat(&ansatz, &point).unwrap();
                    for (pool, threads) in pools.iter().zip([1, 2, 4]) {
                        let got = pool.install(|| planned.energy_flat(&point)).unwrap();
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{} p={depth} {} threads={threads} at {point:?}: \
                             plan {got} vs bind-per-call {want}",
                            problem.name(),
                            mixer.label(),
                        );
                    }
                }
            }
        }
    }
}

/// The three pairs of mixers that share one compiled structure per graph:
/// they differ only in which rotation sits at a position.
fn sharing_pairs() -> [(Mixer, Mixer); 3] {
    let mixer = |gates: &[Gate]| Mixer::new(gates.to_vec()).unwrap();
    let (x, y) = (Gate::RX, Gate::RY);
    [
        (mixer(&[x]), mixer(&[y])),
        (mixer(&[x, x]), mixer(&[y, y])),
        (mixer(&[x, y]), mixer(&[y, x])),
    ]
}

/// [`points`] plus β = 2π on the first layer, where every rotation of that
/// layer is numerically the identity. At p = 2 the other layer keeps a
/// generic β, so an evaluation rebound with the wrong rotations errs.
fn shape_changing_points(depth: usize) -> Vec<Vec<f64>> {
    let mut points = points(depth);
    let mut two_pi_beta = points[0].clone();
    two_pi_beta[depth] = 2.0 * std::f64::consts::PI;
    points.push(two_pi_beta);
    points
}

#[test]
fn shared_plans_match_a_fresh_build_and_energy_flat_bitwise_in_either_order() {
    let graph = Graph::erdos_renyi(6, 0.5, 41);
    for kind in ProblemKind::all(41) {
        let problem = kind.instantiate(&graph);
        for depth in [1, 2] {
            let names: Vec<String> = (0..depth)
                .map(|k| format!("gamma_{k}"))
                .chain((0..depth).map(|k| format!("beta_{k}")))
                .collect();
            for (a, b) in sharing_pairs() {
                for (first, second) in [(&a, &b), (&b, &a)] {
                    // One evaluator per order: `second` runs the structure
                    // `first` compiled.
                    let eval = EnergyEvaluator::for_problem(
                        &graph,
                        problem.clone(),
                        Backend::TensorNetwork,
                    )
                    .unwrap();
                    let ansatz = |m: &Mixer| QaoaAnsatz::for_problem(&problem, depth, m.clone());
                    let (first, second) = (ansatz(first).unwrap(), ansatz(second).unwrap());
                    let built = eval.plan(&first).unwrap();
                    let shared = eval.plan(&second).unwrap();
                    assert!(built.plan().shares_structure_with(shared.plan()));
                    let fresh =
                        ExpectationPlan::build(second.template(), &problem, &names).unwrap();
                    for point in shape_changing_points(depth) {
                        let want = eval.energy_flat(&second, &point).unwrap();
                        let alone = fresh.expectation(&problem, &point).unwrap();
                        let got = shared.energy_flat(&point).unwrap();
                        let tag = format!(
                            "{} p={depth} {} after {} at {point:?}",
                            problem.name(),
                            second.mixer().label(),
                            first.mixer().label(),
                        );
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{tag}: shared vs energy_flat"
                        );
                        assert_eq!(
                            alone.to_bits(),
                            want.to_bits(),
                            "{tag}: fresh vs energy_flat"
                        );
                    }
                }
            }
        }
    }
}

/// Sessions of one search build their plans on several workers at once,
/// through the one interner of each graph's evaluator: whichever build of a
/// structure wins, the report is the same bytes at every thread count.
#[test]
fn tensor_network_search_reports_are_thread_count_independent_with_shared_plans() {
    let dataset = qarchsearch_suite::graphs::datasets::random_regular_dataset(2, 8, 4, 2023);
    let config = SearchConfig::builder()
        .alphabet(GateAlphabet::from_mnemonics(&["rx", "ry", "rz"]).unwrap())
        .max_depth(2)
        .max_gates_per_mixer(2)
        .optimizer_budget(20)
        .backend(Backend::TensorNetwork)
        .seed(2023)
        .build();
    let report = |threads: usize| {
        let outcome = SearchDriver::new(SearchConfig {
            threads: Some(threads),
            ..config.clone()
        })
        .run(&dataset)
        .unwrap();
        let report = SearchReport::from(&outcome).without_timings();
        SearchReport {
            threads: None,
            ..report
        }
        .to_json()
    };
    let one = report(1);
    for threads in [2, 4] {
        assert_eq!(report(threads), one, "{threads} threads");
    }
}

#[test]
fn plans_only_exist_for_the_tensor_network_backends() {
    let graph = Graph::cycle(5);
    let ansatz = QaoaAnsatz::new(&graph, 1, Mixer::baseline());
    let err = EnergyEvaluator::new(&graph, Backend::StateVector)
        .plan(&ansatz)
        .unwrap_err();
    assert!(err.to_string().contains("tensor-network"), "{err}");
    let planned = EnergyEvaluator::new(&graph, Backend::TensorNetwork)
        .plan(&ansatz)
        .unwrap();
    assert!(planned.energy_flat(&[0.1]).is_err(), "one angle for p = 1");
}

fn assert_trained(
    tag: &str,
    got: &TrainedCircuit,
    energy: u64,
    angles: &[u64],
    evaluations: usize,
) {
    let flat: Vec<u64> = got
        .gammas
        .iter()
        .chain(&got.betas)
        .map(|x| x.to_bits())
        .collect();
    assert_eq!(got.energy.to_bits(), energy, "{tag}: energy {}", got.energy);
    assert_eq!(flat, angles, "{tag}: angles");
    assert_eq!(got.evaluations, evaluations, "{tag}: evaluations");
}

/// Bit patterns captured at the parent commit (bind-per-call sessions): a
/// p = 2 session warm-started from a trained p = 1 run and advanced in two
/// rungs, and a three-start session advanced in two rungs.
#[test]
fn warm_started_and_multistart_sessions_train_to_the_pre_plan_bits() {
    let graph = Graph::random_regular(8, 3, 21).unwrap();
    let optimizer = CobylaOptimizer::default();
    let eval = EnergyEvaluator::new(&graph, Backend::TensorNetwork);

    let shallow = QaoaAnsatz::new(&graph, 1, Mixer::qnas());
    let first = eval.train(&shallow, &optimizer, 30).unwrap();
    assert_trained(
        "p = 1",
        &first,
        0x401b7d9c2be02e56,
        &[0x3ff39174107ca429, 0xbfc60e6b3f49dcea],
        32,
    );

    let deep = QaoaAnsatz::new(&graph, 2, Mixer::qnas());
    let warm = deep.warm_start_flat(&first.gammas, &first.betas);
    let mut session = eval
        .begin_training(&deep, &optimizer, Some(&warm), 40)
        .unwrap();
    session.advance(&optimizer, 15).unwrap();
    let trained = session.advance(&optimizer, 40).unwrap();
    assert_trained(
        "warm p = 2",
        &trained,
        0x401beb2c676d7545,
        &[
            0x3ff4522246ecd13e,
            0x3fe2963bea99f5f3,
            0xbfbe596c253b7551,
            0x3fb491384384e2c5,
        ],
        44,
    );

    let ansatz = QaoaAnsatz::new(&graph, 1, Mixer::baseline());
    let mut session = eval
        .begin_multistart_training(&ansatz, &optimizer, None, 45, 3)
        .unwrap();
    session.advance(&optimizer, 20).unwrap();
    let trained = session.advance(&optimizer, 45).unwrap();
    assert_trained(
        "multi-start",
        &trained,
        0x401f07c40bc9d0af,
        &[0x3fd17c7e2704bdc0, 0x3ff3adba6d722c5e],
        46,
    );
}

/// perfbench's `search_tn` keeps 12 sessions alive per depth (6 candidates ×
/// 2 graphs), each owning its plan; a per-term `Vec` layout would be ≈180 KiB
/// each and eat the workload's `peak_rss_mib` bound.
#[test]
fn plans_stay_under_16_kib_on_the_search_tn_shape() {
    let rotations = [Gate::RX, Gate::RY];
    let mut candidates: Vec<Vec<Gate>> = rotations.iter().map(|&g| vec![g]).collect();
    for a in rotations {
        for b in rotations {
            candidates.push(vec![a, b]);
        }
    }
    for graph in graphs::datasets::random_regular_dataset(2, 10, 4, 11) {
        let eval = EnergyEvaluator::new(&graph, Backend::TensorNetwork);
        for gates in &candidates {
            let ansatz = QaoaAnsatz::new(&graph, 1, Mixer::new(gates.clone()).unwrap());
            let planned = eval.plan(&ansatz).unwrap();
            let plan = planned.plan();
            assert_eq!(plan.num_contractions(), 20);
            assert!(
                plan.heap_bytes() <= 16 * 1024,
                "{gates:?}: plan owns {} bytes",
                plan.heap_bytes()
            );
        }
    }
}

/// A term wider than the contraction limit used to turn every objective call
/// into `+inf`, burn the rung's budget and surface as "optimizer failed to
/// produce a finite energy"; the plan knows the width when it is built.
#[test]
fn over_wide_terms_are_reported_when_training_begins() {
    let graph = Graph::complete(28);
    let ansatz = QaoaAnsatz::new(&graph, 1, Mixer::baseline());
    let optimizer = CobylaOptimizer::default();
    let eval = EnergyEvaluator::new(&graph, Backend::TensorNetwork);
    let err = eval
        .begin_training(&ansatz, &optimizer, None, 20)
        .expect_err("K_28 is wider than the limit");
    let message = err.to_string();
    assert!(matches!(err, QaoaError::Backend { .. }), "{message}");
    assert!(
        message.contains("contraction width 27") && message.contains("limit of 26"),
        "{message}"
    );
}
