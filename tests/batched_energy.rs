//! Differential suite for compiled state-vector energy evaluation.
//!
//! Every compiled evaluation is one sweep of one parameter vector, whether
//! it comes through `energy_batch_in`, `energy_flat`, `energy_flat_in` or a
//! training session. Every test here pins **bitwise** equality between
//! those entry points and the sequential reference —
//!
//! 1. `CompiledEnergy::energy_batch_in` ≡ one `energy_flat_in` per point,
//!    as exact `f64` bit patterns, for point counts 1, 2, 7 and 64, for
//!    every shipped problem family, and at 15 qubits under one- and
//!    two-thread pools; and ≡ one `energy_flat` per point on the internal
//!    scratch;
//! 2. a training session, which answers each point the optimizer asks for
//!    with one sweep, ≡ the optimizer driven directly by `resume_until` on
//!    the scalar `energy_flat_in`, for all five bundled optimizers, with
//!    rungs on external and internal scratch interleaved; plus absolute
//!    per-optimizer pins on both backends;
//! 3. the full search pipeline stays thread-count-deterministic — the pinned
//!    byte-exact searches in `tests/problems.rs` complete this claim against
//!    earlier captures;
//! 4. as a guard rather than a pin: every mixer a search can propose trains
//!    on the compiled path, so the pins above cover what the search runs.

use qarchsearch_suite::prelude::*;
use std::sync::Mutex;

const BATCH_SIZES: [usize; 4] = [1, 2, 7, 64];

/// Deterministic parameter points spread over the QAOA angle range.
fn points(count: usize, dim: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| {
            (0..dim)
                .map(|j| 0.11 + 0.37 * (i as f64) - 0.23 * (j as f64) + 0.013 * (i * j) as f64)
                .map(|x| (x % 3.0) - 1.5)
                .collect()
        })
        .collect()
}

#[test]
fn energy_batch_in_matches_energy_flat_in_bitwise_for_every_problem() {
    let graph = Graph::erdos_renyi(7, 0.5, 41);
    for kind in ProblemKind::all(41) {
        let problem = kind.instantiate(&graph);
        let eval =
            EnergyEvaluator::for_problem(&graph, problem.clone(), Backend::StateVector).unwrap();
        let ansatz = QaoaAnsatz::for_problem(&problem, 2, Mixer::qnas()).unwrap();
        let compiled = eval.compile(&ansatz).unwrap();
        let mut scratch = BatchScratch::new();
        let mut state = StateVector::zero_state(compiled.num_qubits()).unwrap();
        for batch in BATCH_SIZES {
            let pts = points(batch, 4);
            let batched = compiled.energy_batch_in(&pts, &mut scratch).unwrap();
            assert_eq!(batched.len(), batch, "{}", problem.name());
            for (p, &e) in pts.iter().zip(&batched) {
                let scalar = compiled.energy_flat_in(p, &mut state).unwrap();
                assert_eq!(
                    e.to_bits(),
                    scalar.to_bits(),
                    "{} B={batch}: batched {e} vs sequential {scalar} at {p:?}",
                    problem.name()
                );
            }
        }
    }

    // At 15 qubits the kernels run one block; at 17 they run two, which
    // split on the two-thread pool. At both widths the B = 1 mixer run
    // splits: its cache block holds 16 384 amplitudes, so targets from 14
    // up are applied outside it. Both paths run in the same pool, and each
    // width's bits must not depend on the pool size.
    for n in [15, 17] {
        let graph = Graph::erdos_renyi(n, 0.5, 43);
        let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
        let mut bits_by_threads = Vec::new();
        for threads in [1, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut bits = Vec::new();
            for depth in [1, 2] {
                let compiled = eval
                    .compile(&QaoaAnsatz::new(&graph, depth, Mixer::qnas()))
                    .unwrap();
                let mut scratch = BatchScratch::new();
                let mut state = StateVector::zero_state(n).unwrap();
                for batch in [1, 2] {
                    let pts = points(batch, 2 * depth);
                    pool.install(|| {
                        let batched = compiled.energy_batch_in(&pts, &mut scratch).unwrap();
                        for (p, &e) in pts.iter().zip(&batched) {
                            let scalar = compiled.energy_flat_in(p, &mut state).unwrap();
                            assert_eq!(
                                e.to_bits(),
                                scalar.to_bits(),
                                "n={n} p={depth} B={batch} threads={threads}: {e} vs {scalar}"
                            );
                            bits.push(e.to_bits());
                        }
                    });
                }
            }
            bits_by_threads.push(bits);
        }
        assert_eq!(
            bits_by_threads[0], bits_by_threads[1],
            "n={n}: two-thread bits differ from one-thread bits"
        );
    }
}

#[test]
fn energy_batch_internal_and_external_scratch_agree_bitwise() {
    let graph = Graph::erdos_renyi(6, 0.5, 17);
    let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
    let ansatz = QaoaAnsatz::new(&graph, 2, Mixer::qnas());
    let compiled = eval.compile(&ansatz).unwrap();
    let mut scratch = BatchScratch::new();
    for batch in BATCH_SIZES {
        let pts = points(batch, 4);
        let external = compiled.energy_batch_in(&pts, &mut scratch).unwrap();
        for (p, a) in pts.iter().zip(&external) {
            let internal = compiled.energy_flat(p).unwrap();
            assert_eq!(a.to_bits(), internal.to_bits(), "B={batch}");
        }
    }
}

/// One training rung per optimizer through a session (batched sweeps in
/// caller scratch) vs the optimizer driven directly on the scalar compiled
/// objective, which never touches a batch kernel or a session: identical
/// energies, angles and evaluation counts to the bit.
#[test]
fn batched_training_is_bit_identical_for_all_five_optimizers() {
    let graph = Graph::erdos_renyi(7, 0.5, 23);
    for kind in [
        ProblemKind::MaxCut,
        ProblemKind::MaxIndependentSet { penalty: 2.0 },
    ] {
        let problem = kind.instantiate(&graph);
        let eval =
            EnergyEvaluator::for_problem(&graph, problem.clone(), Backend::StateVector).unwrap();
        let ansatz = QaoaAnsatz::for_problem(&problem, 2, Mixer::qnas()).unwrap();
        let compiled = eval.compile(&ansatz).unwrap();
        let state = Mutex::new(StateVector::zero_state(compiled.num_qubits()).unwrap());
        let objective = |x: &[f64]| {
            -compiled
                .energy_flat_in(x, &mut state.lock().unwrap())
                .unwrap()
        };
        for opt_kind in OptimizerKind::all() {
            let opt = opt_kind.build_resumable();
            let mut reference = opt.start(&ansatz.default_initial_flat(), 80);
            let a = opt.resume_until(&mut reference, &objective, 80);

            let mut session = eval.begin_training(&ansatz, &*opt, None, 80).unwrap();
            let mut scratch = BatchScratch::new();
            let b = session.advance_in(&*opt, 80, Some(&mut scratch)).unwrap();

            let ctx = format!("{} with {opt_kind}", problem.name());
            let energy = -a.best_value;
            assert_eq!(energy.to_bits(), b.energy.to_bits(), "{ctx}: energy");
            assert_eq!(a.best_point, [b.gammas, b.betas].concat(), "{ctx}: angles");
            assert_eq!(a.evaluations, b.evaluations, "{ctx}: evaluations");
            assert_eq!(
                eval.approx_ratio(energy).to_bits(),
                b.approx_ratio.to_bits(),
                "{ctx}: ratio"
            );
        }
    }
}

/// Absolute pins for every optimizer on both backends: one session per
/// (problem, backend, optimizer) trained to 80 evaluations lands on the
/// energy bits and evaluation count captured before the optimizers moved to
/// one stepping protocol.
#[test]
fn session_trajectories_match_the_parent_bit_for_bit() {
    const PINNED: [(&str, u64, usize); 20] = [
        ("maxcut statevector cobyla", 0x401ffffeffaab0e4, 80),
        ("maxcut statevector nelder-mead", 0x401e4f7da1e83e90, 80),
        ("maxcut statevector spsa", 0x401f906522859d1f, 80),
        ("maxcut statevector random-search", 0x401db21d9add9e35, 80),
        ("maxcut statevector grid-search", 0x4005081ede58da24, 16),
        ("maxcut tensor-network cobyla", 0x401ffffeffaab0dc, 80),
        ("maxcut tensor-network nelder-mead", 0x401e4f7da1e83e80, 80),
        ("maxcut tensor-network spsa", 0x401f906522859d39, 80),
        (
            "maxcut tensor-network random-search",
            0x401db21d9add9e3d,
            80,
        ),
        ("maxcut tensor-network grid-search", 0x4005081ede58da32, 16),
        ("mis statevector cobyla", 0xbfe1da8932cfc33b, 80),
        ("mis statevector nelder-mead", 0x3ff29858908c59c3, 81),
        ("mis statevector spsa", 0x3fe0e781558b3ee6, 80),
        ("mis statevector random-search", 0x3fcfbb4a8706439c, 80),
        ("mis statevector grid-search", 0xc02395dd8c8e436e, 16),
        ("mis tensor-network cobyla", 0xbfe1da8932bae144, 80),
        ("mis tensor-network nelder-mead", 0x3ff29858908c59b8, 81),
        ("mis tensor-network spsa", 0x3fe0dd6152c32040, 80),
        ("mis tensor-network random-search", 0x3fcfbb4a870642e0, 80),
        ("mis tensor-network grid-search", 0xc02395dd8c8e4362, 16),
    ];
    let graph = Graph::erdos_renyi(7, 0.5, 23);
    let mut pinned = PINNED.iter();
    for kind in [
        ProblemKind::MaxCut,
        ProblemKind::MaxIndependentSet { penalty: 2.0 },
    ] {
        let problem = kind.instantiate(&graph);
        for backend in [Backend::StateVector, Backend::TensorNetwork] {
            let eval = EnergyEvaluator::for_problem(&graph, problem.clone(), backend).unwrap();
            let ansatz = QaoaAnsatz::for_problem(&problem, 2, Mixer::qnas()).unwrap();
            for opt_kind in OptimizerKind::all() {
                let opt = opt_kind.build_resumable();
                let mut session = eval.begin_training(&ansatz, &*opt, None, 80).unwrap();
                let trained = session.advance(&*opt, 80).unwrap();
                let &(ctx, bits, evaluations) = pinned.next().expect("one pin per run");
                assert_eq!(ctx, format!("{} {backend} {opt_kind}", problem.name()));
                assert_eq!(trained.energy.to_bits(), bits, "{ctx}: energy");
                assert_eq!(trained.evaluations, evaluations, "{ctx}: evaluations");
            }
        }
    }
}

/// Interrupted runs stay interchangeable: a session advanced in rungs on its
/// own scratch, on caller scratch, or any mix lands on the same bits.
#[test]
fn mixed_batched_and_scalar_rungs_are_bit_identical() {
    let graph = Graph::erdos_renyi(7, 0.5, 29);
    let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
    let ansatz = QaoaAnsatz::new(&graph, 2, Mixer::qnas());
    for opt_kind in OptimizerKind::all() {
        let opt = opt_kind.build_resumable();
        let mut reference = eval.begin_training(&ansatz, &*opt, None, 90).unwrap();
        reference.advance(&*opt, 25).unwrap();
        reference.advance(&*opt, 60).unwrap();
        let r = reference.advance(&*opt, 90).unwrap();

        let mut scratch = BatchScratch::new();
        // external → internal → external
        let mut mixed = eval.begin_training(&ansatz, &*opt, None, 90).unwrap();
        mixed.advance_in(&*opt, 25, Some(&mut scratch)).unwrap();
        mixed.advance(&*opt, 60).unwrap();
        let m = mixed.advance_in(&*opt, 90, Some(&mut scratch)).unwrap();

        // internal → external → internal
        let mut other = eval.begin_training(&ansatz, &*opt, None, 90).unwrap();
        other.advance(&*opt, 25).unwrap();
        other.advance_in(&*opt, 60, Some(&mut scratch)).unwrap();
        let o = other.advance(&*opt, 90).unwrap();

        assert_eq!(r.energy.to_bits(), m.energy.to_bits(), "{opt_kind} b-s-b");
        assert_eq!(r.evaluations, m.evaluations, "{opt_kind} b-s-b");
        assert_eq!(r.gammas, m.gammas, "{opt_kind} b-s-b");
        assert_eq!(r.energy.to_bits(), o.energy.to_bits(), "{opt_kind} s-b-s");
        assert_eq!(r.evaluations, o.evaluations, "{opt_kind} s-b-s");
        assert_eq!(r.betas, o.betas, "{opt_kind} s-b-s");
    }
}

/// The batched pipeline is thread-count-deterministic end to end, for a
/// batching-friendly optimizer (SPSA proposes ± probe pairs every step).
#[test]
fn batched_pipeline_search_is_thread_count_deterministic() {
    let dataset = qarchsearch_suite::graphs::datasets::erdos_renyi_dataset(2, 7, 301);
    let cfg = SearchConfig::builder()
        .alphabet(GateAlphabet::from_mnemonics(&["rx", "ry"]).unwrap())
        .max_depth(2)
        .max_gates_per_mixer(2)
        .optimizer_budget(40)
        .backend(Backend::StateVector)
        .optimizer(OptimizerKind::Spsa)
        .halving(10, 2)
        .seed(301)
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
    assert_eq!(one.best.energy.to_bits(), four.best.energy.to_bits());
    assert_eq!(one.best.mixer_label, four.best.mixer_label);
    assert_eq!(
        one.total_optimizer_evaluations,
        four.total_optimizer_evaluations
    );
    for (da, db) in one.depth_results.iter().zip(&four.depth_results) {
        for (ca, cb) in da.candidates.iter().zip(&db.candidates) {
            assert_eq!(ca.mixer_label, cb.mixer_label);
            assert_eq!(
                ca.mean_energy.to_bits(),
                cb.mean_energy.to_bits(),
                "{} at depth {}",
                ca.mixer_label,
                da.depth
            );
        }
    }
}

/// Every mixer a search can propose trains on the compiled state-vector
/// path: a silent fallback to binding the template per call costs about
/// 50× and would move no energy pin.
#[test]
fn every_alphabet_mixer_trains_on_the_compiled_path() {
    let gates = Gate::single_qubit_gates();
    let names: Vec<&str> = gates.iter().map(|g| g.mnemonic()).collect();
    let alphabet = GateAlphabet::from_mnemonics(&names).unwrap();
    assert_eq!(alphabet.len(), gates.len());
    for two_qubit in ["cx", "rzz", "rxx"] {
        assert!(GateAlphabet::from_mnemonics(&[two_qubit]).is_err());
    }

    let graph = Graph::connected_erdos_renyi(10, 0.5, 7, 50);
    let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
    let optimizer = OptimizerKind::Cobyla.build_resumable();
    for mixer in alphabet.all_combinations_up_to(2) {
        for depth in [1, 2] {
            let ansatz = QaoaAnsatz::new(&graph, depth, Mixer::new(mixer.clone()).unwrap());
            let session = eval.begin_training(&ansatz, &*optimizer, None, 10).unwrap();
            assert!(
                session.uses_compiled_scratch(),
                "mixer {mixer:?} at p={depth} fell back to binding per call"
            );
        }
    }
}
