//! Crash-safety integration tests for the durable `JobServer` — the
//! guarantees behind `qas serve --state-dir`:
//!
//! * kill/restart at **every** journal-record boundary resumes to a
//!   bit-identical `SearchReport` (the checkpoint/replay pin),
//! * a torn journal tail is dropped and replay still recovers, while a
//!   valid record this build cannot decode refuses the open,
//! * a panicking job is isolated (`Failed` with the panic message) while
//!   its neighbours — and the worker pool — stay healthy,
//! * per-job deadlines expire into `TimedOut`,
//! * injected transient failures retry with backoff and still converge to
//!   the fault-free result,
//! * graceful shutdown suspends in-flight work for the next launch.

use qarchsearch_suite::prelude::*;
use qarchsearch_suite::qarchsearch::fault::site;
use qarchsearch_suite::qarchsearch::report::SearchReport;
use std::path::PathBuf;

fn temp_state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qas-fault-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small but multi-depth, multi-rung job: enough journal records to make
/// the kill sweep interesting, fast enough to re-run from every prefix.
fn durable_spec(seed: u64, max_depth: usize) -> JobSpec {
    let config = SearchConfig::builder()
        .alphabet(GateAlphabet::from_mnemonics(&["rx", "ry"]).unwrap())
        .max_depth(max_depth)
        .max_gates_per_mixer(2)
        .optimizer_budget(30)
        .halving(10, 2)
        .backend(qarchsearch_suite::qaoa::Backend::StateVector)
        .threads(1)
        .seed(seed)
        .build();
    let graphs = vec![Graph::connected_erdos_renyi(6, 0.5, seed, 50)];
    JobSpec::new(config, graphs).name(format!("durable-{seed}"))
}

fn durable_server(dir: &std::path::Path, workers: usize) -> JobServer {
    JobServer::launch(
        JobServerConfig {
            workers,
            queue_capacity: 16,
            ..JobServerConfig::default()
        },
        ServerOptions {
            store: Some(StoreConfig::new(dir)),
            faults: None,
            cache: None,
            shard_id: None,
        },
    )
    .unwrap()
}

/// The timing-free report bytes for an outcome (wall-clock seconds are the
/// only nondeterministic fields in a fixed-seed search).
fn report_bytes(outcome: &SearchOutcome) -> String {
    SearchReport::from(outcome).without_timings().to_json()
}

#[test]
fn kill_and_restart_at_every_journal_boundary_is_bit_identical() {
    // Reference run: one durable job to completion; capture the journal
    // *before* shutdown compacts it, so the sweep sees every record.
    let reference_dir = temp_state_dir("sweep-reference");
    let server = durable_server(&reference_dir, 1);
    let id = server.submit(durable_spec(11, 2)).unwrap();
    let baseline = report_bytes(&server.wait(id).unwrap().unwrap());
    let journal = std::fs::read_to_string(reference_dir.join("journal.log")).unwrap();
    server.shutdown();

    let lines: Vec<&str> = journal.lines().collect();
    assert!(
        lines.len() >= 6,
        "expected a multi-record journal, got {} lines",
        lines.len()
    );

    // Simulate a hard kill after every journal record: the surviving
    // prefix must replay + resume to the exact same report. Prefix 0 would
    // be an empty store (no job at all), so start at 1 (the submission).
    for cut in 1..=lines.len() {
        let crash_dir = temp_state_dir(&format!("sweep-{cut}"));
        let mut prefix = lines[..cut].join("\n");
        prefix.push('\n');
        std::fs::write(crash_dir.join("journal.log"), &prefix).unwrap();

        let server = durable_server(&crash_dir, 1);
        let recovery = server.recovery().expect("durable launch reports recovery");
        assert_eq!(
            recovery.resumed_jobs + recovery.requeued_jobs + recovery.terminal_jobs,
            1,
            "cut at {cut}: the job must be recovered in some form: {recovery:?}"
        );
        assert!(
            !recovery.clean_shutdown,
            "cut at {cut} is a crash, not a stop"
        );
        let replayed = report_bytes(&server.wait(id).unwrap().unwrap());
        assert_eq!(
            replayed,
            baseline,
            "cut after journal record {cut}/{} diverged from the uninterrupted run",
            lines.len()
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&crash_dir);
    }

    // A torn tail (the last record half-written by the crash) must be
    // dropped and the rest replayed normally.
    let torn_dir = temp_state_dir("sweep-torn");
    let keep = lines[..lines.len() - 1].join("\n");
    let torn = format!("{keep}\n{}", &lines[lines.len() - 1][..20]);
    std::fs::write(torn_dir.join("journal.log"), torn).unwrap();
    let server = durable_server(&torn_dir, 1);
    let replayed = report_bytes(&server.wait(id).unwrap().unwrap());
    assert_eq!(replayed, baseline, "torn-tail replay diverged");
    server.shutdown();

    let _ = std::fs::remove_dir_all(&reference_dir);
    let _ = std::fs::remove_dir_all(&torn_dir);
}

#[test]
fn torn_journal_tail_is_reported_and_compacted() {
    let dir = temp_state_dir("torn-report");
    let server = durable_server(&dir, 1);
    let id = server.submit(durable_spec(5, 1)).unwrap();
    server.wait(id).unwrap().unwrap();
    let journal = std::fs::read_to_string(dir.join("journal.log")).unwrap();
    server.shutdown();

    // Rewrite the journal with a half-record tail, as a crash mid-append
    // would leave it.
    let torn = format!("{}deadbeef {{\"Trunc", journal);
    std::fs::write(dir.join("journal.log"), torn).unwrap();

    let server = durable_server(&dir, 1);
    let recovery = server.recovery().unwrap().clone();
    assert_eq!(recovery.dropped_records, 1, "{recovery:?}");
    assert_eq!(recovery.terminal_jobs, 1, "{recovery:?}");
    // The store auto-compacted the torn tail away: a fresh replay of the
    // rewritten journal is clean.
    server.shutdown();
    let replayed = qarchsearch_suite::qarchsearch::store::replay(&dir.join("journal.log")).unwrap();
    assert_eq!(replayed.dropped_records, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_journal_naming_a_deleted_strategy_refuses_the_open_and_stays_untouched() {
    // `fixtures/v1/journal_egreedy.log` was written by `qas serve
    // --state-dir` while `SearchStrategy::EpsilonGreedy` existed: an
    // exhaustive job, an `egreedy:3` job (its `Submitted` record is line 5)
    // and another exhaustive job. Its frames are all valid, so replay must
    // refuse it rather than drop job 2 and everything after it as a torn
    // tail.
    let fixture: &[u8] = include_bytes!("fixtures/v1/journal_egreedy.log");
    let dir = temp_state_dir("deleted-strategy");
    let journal = dir.join("journal.log");
    std::fs::write(&journal, fixture).unwrap();
    let untouched = || {
        assert_eq!(std::fs::read(&journal).unwrap(), fixture);
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(entries, ["journal.log"]);
    };

    let error = JobStore::open(&dir).unwrap_err().to_string();
    for named in ["line 5", "`Submitted`", "EpsilonGreedy"] {
        assert!(error.contains(named), "{named}: {error}");
    }
    untouched();

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_qas"))
        .args(["serve", "--workers", "1", "--state-dir"])
        .arg(&dir)
        .stdin(std::process::Stdio::null())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "{stderr}");
    assert!(stderr.contains("EpsilonGreedy"), "{stderr}");
    assert!(output.stdout.is_empty());
    untouched();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "fault injection is armed only in debug builds"
)]
fn panicking_job_is_isolated_and_the_worker_survives() {
    // Job 2's engine panics at its first pipeline rung; jobs 1 and 3 — and
    // a job submitted *after* the panic — must complete untouched.
    let plan = FaultPlan::panic_at(site::PIPELINE_RUNG, 1, "injected rung panic").for_job(2);
    let server = JobServer::launch(
        JobServerConfig {
            workers: 2,
            queue_capacity: 16,
            ..JobServerConfig::default()
        },
        ServerOptions {
            store: None,
            faults: Some(FaultInjector::new(plan)),
            cache: None,
            shard_id: None,
        },
    )
    .unwrap();

    let healthy_a = server.submit(durable_spec(21, 1)).unwrap();
    let victim = server.submit(durable_spec(22, 1)).unwrap();
    let healthy_b = server.submit(durable_spec(23, 1)).unwrap();

    let result = server.wait(victim).unwrap();
    match result {
        Err(SearchError::Panicked { message }) => {
            assert!(
                message.contains("injected rung panic"),
                "panic message lost: {message}"
            );
        }
        other => panic!("victim must fail with the panic, got {other:?}"),
    }
    let status = server.status(victim).unwrap();
    match &status.state {
        JobState::Failed {
            panic: Some(message),
        } => {
            assert!(message.contains("injected rung panic"))
        }
        other => panic!("victim state must carry the panic, got {other:?}"),
    }
    // The recorded event stream still ends on a terminal event.
    let (events, _) = server.events_since(victim, 0).unwrap();
    assert!(events.last().unwrap().is_terminal());

    // Neighbours and post-panic submissions complete: the worker survived.
    let late = server.submit(durable_spec(24, 1)).unwrap();
    for id in [healthy_a, healthy_b, late] {
        let outcome = server.wait(id).unwrap().unwrap_or_else(|e| {
            panic!("healthy job {id} must complete, got {e}");
        });
        assert!(outcome.best.energy.is_finite());
        assert_eq!(server.status(id).unwrap().state, JobState::Completed);
    }
    server.shutdown();
}

#[test]
fn deadline_expiry_times_the_job_out() {
    let server = JobServer::start(JobServerConfig {
        workers: 1,
        queue_capacity: 4,
        ..JobServerConfig::default()
    });
    // A deadline no host can meet: it has passed before the first event
    // is drained, so the outcome never depends on how fast the search is.
    let mut spec = durable_spec(31, 4).timeout_secs(0.0);
    spec.config.evaluator.budget = 400;
    spec.config.pipeline.first_rung = 200;
    let slow = server.submit(spec).unwrap();
    let unbounded = server.submit(durable_spec(32, 1)).unwrap();

    let result = server.wait(slow).unwrap();
    assert!(
        matches!(result, Err(SearchError::DeadlineExceeded { .. })),
        "expected a deadline error, got {result:?}"
    );
    let status = server.status(slow).unwrap();
    assert_eq!(status.state, JobState::TimedOut);
    assert_eq!(status.retries, 0, "deadlines are not retried");

    // The deadline of one job never leaks into another.
    server.wait(unbounded).unwrap().unwrap();
    assert_eq!(server.status(unbounded).unwrap().state, JobState::Completed);
    server.shutdown();
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "fault injection is armed only in debug builds"
)]
fn transient_failure_retries_and_converges_to_the_fault_free_result() {
    // Fault-free reference.
    let reference = JobServer::start(JobServerConfig {
        workers: 1,
        queue_capacity: 4,
        ..JobServerConfig::default()
    });
    let id = reference.submit(durable_spec(41, 2)).unwrap();
    let baseline = report_bytes(&reference.wait(id).unwrap().unwrap());
    reference.shutdown();

    // Same job, but depth 2's advance hits an injected transient failure
    // once; one retry resumes from the depth-1 checkpoint.
    let plan = FaultPlan::io_error_at(site::SESSION_ADVANCE, 2, "flaky backend").for_job(1);
    let server = JobServer::launch(
        JobServerConfig {
            workers: 1,
            queue_capacity: 4,
            ..JobServerConfig::default()
        },
        ServerOptions {
            store: None,
            faults: Some(FaultInjector::new(plan)),
            cache: None,
            shard_id: None,
        },
    )
    .unwrap();
    let job = server
        .submit(durable_spec(41, 2).max_retries(2).retry_backoff_ms(1))
        .unwrap();
    let outcome = server.wait(job).unwrap().unwrap_or_else(|e| {
        panic!("retried job must converge, got {e}");
    });
    assert_eq!(
        report_bytes(&outcome),
        baseline,
        "retry diverged from fault-free run"
    );
    let status = server.status(job).unwrap();
    assert_eq!(status.state, JobState::Completed);
    assert_eq!(
        status.retries, 1,
        "exactly one retry must have been consumed"
    );
    server.shutdown();

    // The same fault with no retry budget is a terminal failure.
    let plan = FaultPlan::io_error_at(site::SESSION_ADVANCE, 2, "flaky backend").for_job(1);
    let server = JobServer::launch(
        JobServerConfig {
            workers: 1,
            queue_capacity: 4,
            ..JobServerConfig::default()
        },
        ServerOptions {
            store: None,
            faults: Some(FaultInjector::new(plan)),
            cache: None,
            shard_id: None,
        },
    )
    .unwrap();
    let job = server.submit(durable_spec(41, 2)).unwrap();
    let result = server.wait(job).unwrap();
    assert!(
        matches!(result, Err(SearchError::Transient { .. })),
        "without budget the transient error surfaces, got {result:?}"
    );
    assert!(matches!(
        server.status(job).unwrap().state,
        JobState::Failed { panic: None }
    ));
    server.shutdown();
}

#[test]
fn graceful_shutdown_suspends_and_the_next_launch_resumes() {
    // Fault-free reference for the final report.
    let reference = JobServer::start(JobServerConfig {
        workers: 1,
        queue_capacity: 4,
        ..JobServerConfig::default()
    });
    let id = reference.submit(durable_spec(51, 3)).unwrap();
    let baseline = report_bytes(&reference.wait(id).unwrap().unwrap());
    reference.shutdown();

    let dir = temp_state_dir("graceful");
    let server = durable_server(&dir, 1);
    let job = server.submit(durable_spec(51, 3)).unwrap();
    // Let the job make some progress so the suspension has a checkpoint to
    // journal, then stop the server underneath it.
    loop {
        let status = server.status(job).unwrap();
        if status.state.is_terminal()
            || status
                .progress
                .as_ref()
                .is_some_and(|p| p.depths_completed > 0)
        {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    server.shutdown();

    let server = durable_server(&dir, 1);
    let recovery = server.recovery().unwrap().clone();
    assert!(recovery.clean_shutdown, "{recovery:?}");
    // The job either finished before the shutdown landed (terminal) or was
    // suspended and must now resume; both converge to the same report.
    assert_eq!(
        recovery.resumed_jobs + recovery.requeued_jobs + recovery.terminal_jobs,
        1,
        "{recovery:?}"
    );
    let resumed = report_bytes(&server.wait(job).unwrap().unwrap());
    assert_eq!(resumed, baseline, "suspended job diverged after resume");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_restart_preserves_job_ids_and_terminal_results() {
    let dir = temp_state_dir("ids");
    let server = durable_server(&dir, 1);
    let first = server.submit(durable_spec(61, 1)).unwrap();
    server.wait(first).unwrap().unwrap();
    server.shutdown();

    // Terminal results survive the restart; new submissions continue the
    // id sequence instead of reusing journaled ids.
    let server = durable_server(&dir, 1);
    let restored = server.result(first).unwrap();
    assert!(matches!(restored, Some(Ok(_))), "terminal result lost");
    assert_eq!(server.status(first).unwrap().state, JobState::Completed);
    let second = server.submit(durable_spec(62, 1)).unwrap();
    assert!(second.0 > first.0, "job ids must not be reused");
    server.wait(second).unwrap().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
