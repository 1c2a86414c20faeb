//! Integration tests: full searches through the public API of the facade
//! crate, spanning every layer (graphs → qaoa → simulators → search), plus
//! the session layer (event streams, cancellation, checkpoint/resume).

use qarchsearch_suite::prelude::*;
use qarchsearch_suite::qarchsearch::search::SearchStrategy;
use qarchsearch_suite::qarchsearch::MixerClass;

fn small_config() -> SearchConfig {
    SearchConfig::builder()
        .alphabet(GateAlphabet::from_mnemonics(&["rx", "ry", "h"]).unwrap())
        .max_depth(2)
        .max_gates_per_mixer(2)
        .optimizer_budget(30)
        .backend(qarchsearch_suite::qaoa::Backend::StateVector)
        .seed(5)
        .build()
}

fn training_graphs() -> Vec<Graph> {
    vec![
        Graph::connected_erdos_renyi(8, 0.5, 1, 50),
        Graph::connected_erdos_renyi(8, 0.4, 2, 50),
    ]
}

#[test]
fn serial_search_end_to_end() {
    let outcome = SearchDriver::new(small_config().with_mode(ExecutionMode::Serial))
        .run(&training_graphs())
        .unwrap();
    // Space per depth: 3 + 9 = 12 candidates, 2 depths.
    assert_eq!(outcome.num_candidates_evaluated, 24);
    assert_eq!(outcome.depth_results.len(), 2);
    // The winner must beat the plus-state baseline of every graph (i.e. have
    // learned something) and stay below the optimum.
    assert!(outcome.best.approx_ratio > 0.5);
    assert!(outcome.best.approx_ratio <= 1.0 + 1e-9);
    assert!(outcome.best.energy.is_finite());
    // Timings are recorded for every depth.
    for d in &outcome.depth_results {
        assert!(d.elapsed_seconds > 0.0);
        assert!(d.best_energy <= outcome.best.energy + 1e-9);
    }
}

#[test]
fn parallel_search_matches_serial_winner() {
    // In paper-faithful mode (pruning/warm-start/gate off) the parallel
    // pipeline reproduces the serial full-budget search bit for bit.
    let graphs = training_graphs();
    let serial = SearchDriver::new(small_config().with_mode(ExecutionMode::Serial))
        .run(&graphs)
        .unwrap();
    let mut cfg = small_config();
    cfg.threads = Some(2);
    cfg.pipeline = qarchsearch_suite::qarchsearch::PipelineConfig::full_budget();
    let parallel = SearchDriver::new(cfg.with_mode(ExecutionMode::Parallel))
        .run(&graphs)
        .unwrap();

    assert_eq!(
        serial.num_candidates_evaluated,
        parallel.num_candidates_evaluated
    );
    assert_eq!(serial.best.mixer_label, parallel.best.mixer_label);
    assert_eq!(serial.best.energy, parallel.best.energy);
    assert_eq!(
        serial.total_optimizer_evaluations,
        parallel.total_optimizer_evaluations
    );
}

#[test]
fn serial_search_bits_do_not_depend_on_the_thread_count() {
    // The serial engine trains in the caller's pool, which sizes the
    // kernels' inner level. At 15 qubits a register is one block, at
    // 17 two; either way the kernels cut work at fixed block boundaries, so
    // every bit of the search must be the same in a 1-, 2- or 4-thread pool,
    // and equal to the full-budget pipeline's (whose workers pin the inner
    // level to one thread).
    fn bits(outcome: &SearchOutcome) -> Vec<u64> {
        let mut bits = vec![
            outcome.best.energy.to_bits(),
            outcome.best.approx_ratio.to_bits(),
        ];
        for candidate in outcome.depth_results.iter().flat_map(|d| &d.candidates) {
            bits.push(candidate.mean_energy.to_bits());
            bits.extend(candidate.per_graph.iter().map(|t| t.energy.to_bits()));
        }
        bits
    }
    for n in [15, 17] {
        let graphs = vec![Graph::erdos_renyi(n, 0.5, 7)];
        let config = SearchConfig::builder()
            .alphabet(GateAlphabet::from_mnemonics(&["rx"]).unwrap())
            .max_depth(1)
            .max_gates_per_mixer(1)
            .optimizer_budget(8)
            .backend(qarchsearch_suite::qaoa::Backend::StateVector)
            .seed(3)
            .build();
        let serial_in = |threads| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                SearchDriver::new(config.clone().with_mode(ExecutionMode::Serial))
                    .run(&graphs)
                    .unwrap()
            })
        };
        let reference = bits(&serial_in(1));
        for threads in [2, 4] {
            assert_eq!(
                bits(&serial_in(threads)),
                reference,
                "n={n}: serial search at {threads} threads"
            );
        }
        let mut pipeline = config.clone();
        pipeline.threads = Some(2);
        pipeline.pipeline = qarchsearch_suite::qarchsearch::PipelineConfig::full_budget();
        let pipeline = SearchDriver::new(pipeline.with_mode(ExecutionMode::Parallel))
            .run(&graphs)
            .unwrap();
        assert_eq!(bits(&pipeline), reference, "n={n}: pipeline at 2 workers");
    }
}

#[test]
fn budget_aware_pipeline_saves_budget_at_competitive_energy() {
    // The default parallel pipeline (successive halving + warm
    // starts) spends a fraction of the full budget and still lands within
    // optimizer noise of the exhaustive winner.
    let graphs = training_graphs();
    let mut full_cfg = small_config();
    full_cfg.threads = Some(2);
    full_cfg.pipeline = qarchsearch_suite::qarchsearch::PipelineConfig::full_budget();
    let full = SearchDriver::new(full_cfg.with_mode(ExecutionMode::Parallel))
        .run(&graphs)
        .unwrap();

    let mut pruned_cfg = small_config();
    pruned_cfg.threads = Some(2);
    pruned_cfg.pipeline.first_rung = 10;
    let pruned = SearchDriver::new(pruned_cfg.with_mode(ExecutionMode::Parallel))
        .run(&graphs)
        .unwrap();

    assert!(pruned.total_optimizer_evaluations < full.total_optimizer_evaluations);
    assert!(pruned.budget_savings_factor() > 1.0);
    assert!(
        pruned.best.energy >= full.best.energy - 0.1,
        "pruned {} vs full {}",
        pruned.best.energy,
        full.best.energy
    );
    // Rung accounting is visible end to end.
    assert!(pruned.depth_results.iter().all(|d| !d.rungs.is_empty()));
}

#[test]
fn winner_is_a_mixing_circuit() {
    // A purely diagonal mixer cannot beat a mixing one, so the winner must
    // contain at least one non-diagonal gate.
    let outcome = SearchDriver::new(small_config().with_mode(ExecutionMode::Serial))
        .run(&training_graphs())
        .unwrap();
    let mixing = outcome.best.gates.iter().any(|g| !g.is_diagonal());
    assert!(
        mixing,
        "winner {:?} contains only diagonal gates",
        outcome.best.gates
    );
}

#[test]
fn deeper_search_does_not_lose_energy() {
    // The best over depths 1..=2 is at least as good as the best at depth 1
    // (same candidate space per depth, more depths searched).
    let graphs = training_graphs();
    let mut shallow_cfg = small_config();
    shallow_cfg.max_depth = 1;
    let shallow = SearchDriver::new(shallow_cfg.with_mode(ExecutionMode::Serial))
        .run(&graphs)
        .unwrap();
    let deep = SearchDriver::new(small_config().with_mode(ExecutionMode::Serial))
        .run(&graphs)
        .unwrap();
    assert!(deep.best.energy >= shallow.best.energy - 0.1);
}

#[test]
fn random_strategy_search_runs_through_facade() {
    let mut cfg = small_config();
    cfg.strategy = SearchStrategy::Random {
        samples_per_depth: 5,
    };
    let outcome = SearchDriver::new(cfg.with_mode(ExecutionMode::Parallel))
        .run(&training_graphs())
        .unwrap();
    // Each depth trains one candidate per proposed class: trained plus
    // folded proposals make the sample budget, and no two trained
    // candidates are the same mixer.
    for depth in &outcome.depth_results {
        assert_eq!(depth.candidates.len() + depth.folded, 5);
        let classes: std::collections::HashSet<MixerClass> = depth
            .candidates
            .iter()
            .map(|c| MixerClass::of(&label_gates(&c.mixer_label)))
            .collect();
        assert_eq!(classes.len(), depth.candidates.len());
    }
    assert!(outcome.best.energy > 0.0);
}

/// The gate sequence of a mixer label such as `('rx', 'h')`.
fn label_gates(label: &str) -> Vec<Gate> {
    label
        .trim_matches(|c| c == '(' || c == ')')
        .split(", ")
        .map(|name| name.trim_matches('\'').parse().unwrap())
        .collect()
}

// ---------------------------------------------------------------------------
// Session layer: event streams, cancellation, checkpoint/resume.

/// A pipeline configuration that exercises every event type: pruning rungs,
/// the predictor gate (from depth 2), warm starts.
fn session_config(threads: usize) -> SearchConfig {
    let mut cfg = SearchConfig::builder()
        .alphabet(GateAlphabet::from_mnemonics(&["rx", "ry"]).unwrap())
        .max_depth(2)
        .max_gates_per_mixer(2)
        .optimizer_budget(30)
        .backend(qarchsearch_suite::qaoa::Backend::StateVector)
        .halving(10, 2)
        .predictor_gate(3)
        .seed(5)
        .threads(threads)
        .build();
    cfg.mode = ExecutionMode::Parallel;
    cfg
}

#[test]
fn event_stream_is_deterministic_across_worker_counts() {
    // Events carry no wall-clock state and are emitted from the driver
    // thread at deterministic points, so the full stream must be identical
    // at 1, 2 and 4 workers for a fixed seed.
    let graphs = training_graphs();
    let reference: Vec<SearchEvent> = {
        let handle = SearchDriver::new(session_config(1)).start(&graphs).unwrap();
        let events = handle.events().iter().collect();
        handle.wait().unwrap();
        events
    };
    assert!(matches!(
        reference.first(),
        Some(SearchEvent::Started { .. })
    ));
    assert!(matches!(
        reference.last(),
        Some(SearchEvent::Finished { .. })
    ));
    // The stream exercises the full taxonomy.
    for kind in [
        "depth_started",
        "session_advanced",
        "rung_completed",
        "candidate_pruned",
        "candidates_gated",
        "candidate_evaluated",
        "depth_completed",
    ] {
        assert!(
            reference.iter().any(|e| e.kind() == kind),
            "no {kind} event in the stream"
        );
    }
    for threads in [2usize, 4] {
        let handle = SearchDriver::new(session_config(threads))
            .start(&graphs)
            .unwrap();
        let events: Vec<SearchEvent> = handle.events().iter().collect();
        handle.wait().unwrap();
        assert_eq!(
            events, reference,
            "event stream diverged at {threads} workers"
        );
    }
}

/// The event stream of one search over three 8-node ER graphs with every
/// pipeline stage on (halving 20/4, gate 8, warm starts), as JSON.
fn pinned_event_stream(
    backend: qarchsearch_suite::qaoa::Backend,
    mode: ExecutionMode,
    threads: usize,
) -> (usize, String) {
    let graphs = qarchsearch_suite::graphs::datasets::erdos_renyi_dataset(3, 8, 7);
    let cfg = SearchConfig::builder()
        .alphabet(GateAlphabet::from_mnemonics(&["rx", "ry", "rz", "h", "p"]).unwrap())
        .max_depth(2)
        .max_gates_per_mixer(2)
        .optimizer_budget(120)
        .backend(backend)
        .halving(20, 4)
        .predictor_gate(8)
        .seed(7)
        .threads(threads)
        .mode(mode)
        .build();
    let handle = SearchDriver::new(cfg).start(&graphs).unwrap();
    let events: Vec<SearchEvent> = handle.events().iter().collect();
    handle.wait().unwrap();
    let json = qarchsearch_suite::serde_json::to_string(&events).unwrap();
    (events.len(), json)
}

#[test]
fn search_event_streams_match_the_parent() {
    // Hashes of the full event streams (telemetry included) captured before
    // the rung executor was reduced to one FIFO cursor: any change in which
    // sessions advance, in what order events are emitted, or in a single
    // energy bit shows here.
    use qarchsearch_suite::qaoa::Backend::{StateVector, TensorNetwork};
    use qarchsearch_suite::qarchsearch::cache::fnv1a64;
    use ExecutionMode::{Parallel, Serial};
    let runs = [
        ("statevector, 1 thread", StateVector, Parallel, 1),
        ("statevector, 2 threads", StateVector, Parallel, 2),
        ("serial preset", StateVector, Serial, 1),
        ("tensor network", TensorNetwork, Parallel, 2),
    ];
    let observed: Vec<(&str, usize, u64)> = runs
        .iter()
        .map(|&(name, backend, mode, threads)| {
            let (count, json) = pinned_event_stream(backend, mode, threads);
            (name, count, fnv1a64(json.as_bytes()))
        })
        .collect();
    const PARENT: [(&str, usize, u64); 4] = [
        ("statevector, 1 thread", 155, 11382121877557702125),
        ("statevector, 2 threads", 155, 11382121877557702125),
        ("serial preset", 134, 3438925155562463300),
        ("tensor network", 155, 12396832114325703227),
    ];
    assert_eq!(observed, PARENT);
}

#[test]
fn a_gated_checkpoint_written_by_the_parent_resumes_to_the_pinned_outcome() {
    // `fixtures/v1/checkpoint_gated_depth1.json` was written before the
    // untrained strategies were deleted: the gated search below
    // (`--graphs 2 --nodes 6 --pmax 2 --kmax 2 --gate 3` on the default
    // alphabet, 1 thread), stopped at the depth-1 boundary, so its ranker
    // holds trained values. Resuming it must still deserialize the ranker
    // snapshot, gate depth 2 the same way and end on the parent's outcome.
    use qarchsearch_suite::qarchsearch::cache::fnv1a64;
    use qarchsearch_suite::qarchsearch::report::SearchReport;
    let json = include_str!("fixtures/v1/checkpoint_gated_depth1.json");
    let checkpoint: SearchCheckpoint = qarchsearch_suite::serde_json::from_str(json).unwrap();
    assert_eq!(checkpoint.next_depth, 2);
    assert_eq!(checkpoint.config.pipeline.predictor_gate, Some(3));
    assert!(checkpoint.scheduler.as_ref().unwrap().ranker_trained);
    let outcome = SearchDriver::resume(checkpoint).unwrap().wait().unwrap();
    assert_eq!(outcome.depth_results[1].gated_out, 13);
    let report = SearchReport::from(&outcome).without_timings().to_json();
    assert_eq!(fnv1a64(report.as_bytes()), 8195176810561550404, "{report}");
}

#[test]
fn optimizer_searches_match_the_parent() {
    // One pruned state-vector search per optimizer that hands the session
    // more than one point at a time (SPSA's ± pair, Nelder–Mead's simplex,
    // the random and grid populations), hashed as a timing-free report.
    // Captured while those point sets ran as multi-point sweeps; they must
    // keep every bit when each point runs its own sweep.
    use qarchsearch_suite::optim::OptimizerKind::{GridSearch, NelderMead, RandomSearch, Spsa};
    use qarchsearch_suite::qarchsearch::cache::fnv1a64;
    use qarchsearch_suite::qarchsearch::report::SearchReport;
    let graphs = qarchsearch_suite::graphs::datasets::erdos_renyi_dataset(2, 8, 7);
    let observed: Vec<(&str, u64)> = [
        ("nelder-mead", NelderMead),
        ("spsa", Spsa),
        ("random-search", RandomSearch),
        ("grid-search", GridSearch),
    ]
    .into_iter()
    .map(|(name, optimizer)| {
        let cfg = SearchConfig::builder()
            .alphabet(GateAlphabet::from_mnemonics(&["rx", "ry"]).unwrap())
            .max_depth(2)
            .max_gates_per_mixer(2)
            .optimizer_budget(40)
            .optimizer(optimizer)
            .backend(qarchsearch_suite::qaoa::Backend::StateVector)
            .threads(1)
            .build();
        let outcome = SearchDriver::new(cfg).run(&graphs).unwrap();
        let report = SearchReport::from(&outcome).without_timings().to_json();
        (name, fnv1a64(report.as_bytes()))
    })
    .collect();
    const PARENT: [(&str, u64); 4] = [
        ("nelder-mead", 16006506074442132269),
        ("spsa", 4475596293849865496),
        ("random-search", 10115678664485188966),
        ("grid-search", 14504392671924269380),
    ];
    assert_eq!(observed, PARENT);
}

#[test]
fn cancel_checkpoint_resume_is_bit_identical_to_uninterrupted() {
    // Reference: one uninterrupted run.
    let graphs = training_graphs();
    let mut cfg = session_config(2);
    cfg.max_depth = 3;
    let reference = SearchDriver::new(cfg.clone()).run(&graphs).unwrap();

    // Interrupted run: cancel as soon as the first depth completes, then
    // checkpoint → serialize → deserialize → resume. Whatever boundary the
    // cancellation actually lands on (the engine races ahead of the event
    // consumer), the resumed outcome must reproduce the reference bit for
    // bit — that is the whole point of the checkpoint design.
    let handle = SearchDriver::new(cfg).start(&graphs).unwrap();
    for event in handle.events().iter() {
        if matches!(event, SearchEvent::DepthCompleted { depth: 1, .. }) {
            handle.cancel();
        }
    }
    let partial = handle.wait();
    let checkpoint = handle.checkpoint();
    if let Ok(partial) = &partial {
        // The drained partial outcome only contains completed depths.
        assert_eq!(partial.depth_results.len(), checkpoint.completed.len());
        assert!(partial.depth_results.len() <= 3);
    }
    let json = qarchsearch_suite::serde_json::to_string(&checkpoint).unwrap();
    let restored: SearchCheckpoint = qarchsearch_suite::serde_json::from_str(&json).unwrap();

    let resumed = SearchDriver::resume(restored).unwrap().wait().unwrap();
    assert_eq!(resumed.depth_results.len(), reference.depth_results.len());
    assert_eq!(
        resumed.best.energy.to_bits(),
        reference.best.energy.to_bits()
    );
    assert_eq!(resumed.best.mixer_label, reference.best.mixer_label);
    assert_eq!(
        resumed.total_optimizer_evaluations,
        reference.total_optimizer_evaluations
    );
    for (dr, dref) in resumed.depth_results.iter().zip(&reference.depth_results) {
        assert_eq!(dr.rungs, dref.rungs);
        assert_eq!(dr.gated_out, dref.gated_out);
        for (cr, cref) in dr.candidates.iter().zip(&dref.candidates) {
            assert_eq!(cr.mean_energy.to_bits(), cref.mean_energy.to_bits());
            assert_eq!(cr.per_graph, cref.per_graph);
            assert_eq!(cr.pruned_at_rung, cref.pruned_at_rung);
        }
    }
}

#[test]
fn serial_cancel_checkpoint_resume_matches_uninterrupted() {
    // The serial engine carries no cross-depth state, so its checkpoint is
    // just config + completed depths — resume must still be bit-identical.
    let graphs = training_graphs();
    let mut cfg = small_config();
    cfg.mode = ExecutionMode::Serial;
    let reference = SearchDriver::new(cfg.clone()).run(&graphs).unwrap();

    let handle = SearchDriver::new(cfg).start(&graphs).unwrap();
    for event in handle.events().iter() {
        if matches!(event, SearchEvent::DepthCompleted { depth: 1, .. }) {
            handle.cancel();
        }
    }
    let _ = handle.wait();
    let resumed = SearchDriver::resume(handle.checkpoint())
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        resumed.best.energy.to_bits(),
        reference.best.energy.to_bits()
    );
    assert_eq!(
        resumed.total_optimizer_evaluations,
        reference.total_optimizer_evaluations
    );
}

#[test]
fn progress_snapshots_track_depth_boundaries() {
    let graphs = training_graphs();
    let handle = SearchDriver::new(session_config(2)).start(&graphs).unwrap();
    let outcome = handle.wait().unwrap();
    let progress = handle.progress();
    assert_eq!(progress.status, SearchStatus::Finished);
    assert_eq!(progress.depths_completed, 2);
    assert_eq!(
        progress.candidates_evaluated,
        outcome.num_candidates_evaluated
    );
    assert_eq!(
        progress.optimizer_evaluations,
        outcome.total_optimizer_evaluations
    );
    assert_eq!(
        progress.best_energy.map(f64::to_bits),
        Some(outcome.best.energy.to_bits())
    );
}

#[test]
fn search_report_serializes() {
    let outcome = SearchDriver::new(small_config().with_mode(ExecutionMode::Serial))
        .run(&training_graphs())
        .unwrap();
    let report = qarchsearch_suite::qarchsearch::report::SearchReport::from(&outcome);
    let json = report.to_json();
    assert!(json.contains("best_mixer"));
    assert!(json.contains("per_depth_seconds"));
    let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(
        parsed["candidates"],
        serde_json::json!(outcome.num_candidates_evaluated)
    );
}
