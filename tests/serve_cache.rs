//! Integration tests for the serve-path caching tier — the guarantees
//! behind `qas serve`'s result cache and request coalescing:
//!
//! * an identical resubmission is served from the result cache with a
//!   `cache_hit` event and a report bit-identical (timings aside) to the
//!   computed one,
//! * concurrent identical submissions coalesce onto exactly one
//!   execution (singleflight) and all receive bit-identical results,
//! * cancelling a follower only detaches it; cancelling a leader promotes
//!   a follower and the shared execution survives,
//! * forgetting one subscriber's record never evicts the cached result or
//!   another subscriber's terminal record,
//! * the durable cache tier (`--cache-dir`) survives restarts and torn
//!   journal tails without ever serving a partial report,
//! * `ServerOptions { cache: None }` (the `--no-cache` path) computes
//!   results bit-identical to the cached path,
//! * every deterministic way a job starts and ends (cache hit, follower
//!   cancel, leader cancel with promotion, panic and retry fanned out to a
//!   follower, shared completion) writes the journal records, events and
//!   statuses pinned by `job_lifecycle_transcripts_match_the_parent`.

use qarchsearch_suite::prelude::*;
use qarchsearch_suite::qarchsearch::cache::fnv1a64;
use qarchsearch_suite::qarchsearch::fault::site;
use qarchsearch_suite::qarchsearch::report::SearchReport;
use qarchsearch_suite::qarchsearch::store::JournalRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qas-serve-cache-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A fast single-depth job (the cached/coalesced subject).
fn subject_spec(seed: u64) -> JobSpec {
    let config = SearchConfig::builder()
        .alphabet(GateAlphabet::from_mnemonics(&["rx"]).unwrap())
        .max_depth(1)
        .max_gates_per_mixer(1)
        .optimizer_budget(15)
        .no_prune()
        .backend(qarchsearch_suite::qaoa::Backend::StateVector)
        .threads(1)
        .seed(seed)
        .build();
    JobSpec::new(config, vec![Graph::cycle(4)])
}

/// A slower job used to occupy the single worker so that identical
/// submissions queue behind it and coalesce deterministically.
fn blocker_spec(seed: u64) -> JobSpec {
    let config = SearchConfig::builder()
        .alphabet(GateAlphabet::from_mnemonics(&["rx", "ry"]).unwrap())
        .max_depth(2)
        .max_gates_per_mixer(2)
        .optimizer_budget(40)
        .no_prune()
        .backend(qarchsearch_suite::qaoa::Backend::StateVector)
        .threads(1)
        .seed(seed)
        .build();
    JobSpec::new(config, vec![Graph::connected_erdos_renyi(6, 0.5, seed, 50)])
}

fn single_worker_server() -> JobServer {
    JobServer::start(JobServerConfig {
        workers: 1,
        queue_capacity: 32,
        ..JobServerConfig::default()
    })
}

fn report_bytes(outcome: &SearchOutcome) -> String {
    SearchReport::from(outcome).without_timings().to_json()
}

#[test]
fn identical_resubmission_is_served_from_the_result_cache() {
    let server = single_worker_server();
    let first = server.submit(subject_spec(11)).unwrap();
    let computed = report_bytes(&server.wait(first).unwrap().unwrap());

    let second = server.submit(subject_spec(11)).unwrap();
    let cached = report_bytes(&server.wait(second).unwrap().unwrap());
    assert_eq!(cached, computed, "cached report must be bit-identical");

    let status = server.status(second).unwrap();
    assert_eq!(status.state, JobState::Completed);
    assert!(status.cache_hit, "second submission must be a cache hit");
    assert!(!status.coalesced);
    assert!(!server.status(first).unwrap().cache_hit);

    // The hit's synthetic stream: a cache_hit event then the terminal
    // finished event, nothing else.
    let (events, _) = server.events_since(second, 0).unwrap();
    let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
    assert_eq!(kinds, vec!["cache_hit", "finished"]);

    let stats = server.stats();
    let cache = stats.cache.expect("caching is on by default");
    assert_eq!(cache.hits, 1);
    assert_eq!(cache.misses, 1);
    assert_eq!(cache.insertions, 1);
    assert_eq!(cache.entries, 1);
    assert_eq!(stats.jobs_completed, 2);
    server.shutdown();
}

#[test]
fn concurrent_identical_submissions_run_exactly_one_execution() {
    const FAN: usize = 8;
    let server = single_worker_server();
    // Occupy the single worker so the identical fan-out stays queued and
    // attaches to one leader instead of racing the cache.
    let blocker = server.submit(blocker_spec(1)).unwrap();
    let ids: Vec<JobId> = (0..FAN)
        .map(|_| server.submit(subject_spec(42)).unwrap())
        .collect();

    let reports: Vec<String> = ids
        .iter()
        .map(|id| report_bytes(&server.wait(*id).unwrap().unwrap()))
        .collect();
    for report in &reports {
        assert_eq!(report, &reports[0], "all subscribers see the same bytes");
    }
    server.wait(blocker).unwrap().unwrap();

    let stats = server.stats();
    let cache = stats.cache.unwrap();
    // blocker + one leader executed; the other FAN-1 attached in flight.
    assert_eq!(cache.misses, 2, "exactly one execution for the fan-out");
    assert_eq!(cache.coalesced, (FAN - 1) as u64);
    assert_eq!(cache.insertions, 2);
    assert_eq!(cache.hits, 0);

    let mut coalesced = 0;
    for id in &ids {
        let status = server.status(*id).unwrap();
        assert_eq!(status.state, JobState::Completed);
        assert!(!status.cache_hit);
        assert!(
            status.events_recorded >= 2,
            "followers mirror the full event stream"
        );
        if status.coalesced {
            coalesced += 1;
        }
    }
    assert_eq!(coalesced, FAN - 1);
    server.shutdown();
}

#[test]
fn cancelling_a_follower_detaches_without_stopping_the_shared_run() {
    let server = single_worker_server();
    let blocker = server.submit(blocker_spec(2)).unwrap();
    let leader = server.submit(subject_spec(77)).unwrap();
    let follower_a = server.submit(subject_spec(77)).unwrap();
    let follower_b = server.submit(subject_spec(77)).unwrap();

    assert!(server.cancel(follower_a), "follower cancel detaches");
    let detached = server.wait(follower_a).unwrap();
    assert!(matches!(detached, Err(SearchError::Cancelled)));
    assert_eq!(
        server.status(follower_a).unwrap().state,
        JobState::Cancelled
    );

    // The shared execution is unaffected: leader and the other follower
    // still complete, bit-identically.
    let leader_report = report_bytes(&server.wait(leader).unwrap().unwrap());
    let follower_report = report_bytes(&server.wait(follower_b).unwrap().unwrap());
    assert_eq!(leader_report, follower_report);
    server.wait(blocker).unwrap().unwrap();
    server.shutdown();
}

#[test]
fn cancelling_a_queued_leader_promotes_a_follower() {
    let server = single_worker_server();
    let blocker = server.submit(blocker_spec(3)).unwrap();
    let leader = server.submit(subject_spec(99)).unwrap();
    let follower = server.submit(subject_spec(99)).unwrap();
    assert!(server.status(follower).unwrap().coalesced);

    assert!(server.cancel(leader), "leader cancel is accepted");
    let cancelled = server.wait(leader).unwrap();
    assert!(matches!(cancelled, Err(SearchError::Cancelled)));

    // The follower inherited the execution and still completes.
    let result = server.wait(follower).unwrap().unwrap();
    assert_eq!(server.status(follower).unwrap().state, JobState::Completed);
    let (events, _) = server.events_since(follower, 0).unwrap();
    assert!(
        events.iter().any(|e| e.kind() == "finished"),
        "promoted follower records the terminal event"
    );
    // And the promoted execution's result was cached for later hits.
    let probe = server.submit(subject_spec(99)).unwrap();
    let probe_report = report_bytes(&server.wait(probe).unwrap().unwrap());
    assert!(server.status(probe).unwrap().cache_hit);
    assert_eq!(probe_report, report_bytes(&result));
    server.wait(blocker).unwrap().unwrap();
    server.shutdown();
}

#[test]
fn cancelling_a_running_leader_keeps_followers_alive() {
    let server = single_worker_server();
    // The blocker itself is the shared execution here: submit it, wait for
    // it to start running, then attach a follower to the live run.
    let leader = server.submit(blocker_spec(4)).unwrap();
    for _ in 0..200 {
        if server.status(leader).unwrap().state == JobState::Running {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let follower = server.submit(blocker_spec(4)).unwrap();
    let follower_status = server.status(follower).unwrap();
    // Depending on timing the second submission either coalesced onto the
    // live run or (if the run already finished) hit the cache. Both are
    // valid; only an independent re-execution would be wrong.
    assert!(
        follower_status.coalesced || follower_status.cache_hit,
        "identical submission must attach or hit, got {follower_status:?}"
    );
    if follower_status.coalesced {
        assert!(server.cancel(leader), "running leader cancel is accepted");
        let cancelled = server.wait(leader).unwrap();
        assert!(matches!(cancelled, Err(SearchError::Cancelled)));
    }
    // Either way the follower still gets the full result.
    let result = server.wait(follower).unwrap();
    assert!(result.is_ok(), "promoted follower completes: {result:?}");
    assert_eq!(server.status(follower).unwrap().state, JobState::Completed);
    server.shutdown();
}

#[test]
fn forgetting_one_subscriber_leaves_shared_state_intact() {
    let server = single_worker_server();
    let blocker = server.submit(blocker_spec(5)).unwrap();
    let leader = server.submit(subject_spec(55)).unwrap();
    let follower_a = server.submit(subject_spec(55)).unwrap();
    let follower_b = server.submit(subject_spec(55)).unwrap();

    // Forget refuses non-terminal subscribers (cancel first).
    assert!(!server.forget(follower_a));

    server.wait(blocker).unwrap().unwrap();
    let baseline = report_bytes(&server.wait(leader).unwrap().unwrap());
    server.wait(follower_a).unwrap().unwrap();
    server.wait(follower_b).unwrap().unwrap();

    // Dropping one subscriber's record must not touch the others' records
    // or the cached result.
    assert!(server.forget(follower_a));
    assert!(matches!(
        server.status(follower_a),
        Err(SearchError::UnknownJob { .. })
    ));
    assert_eq!(
        report_bytes(&server.result(leader).unwrap().unwrap().unwrap()),
        baseline
    );
    assert_eq!(
        report_bytes(&server.result(follower_b).unwrap().unwrap().unwrap()),
        baseline
    );
    let (events, _) = server.events_since(follower_b, 0).unwrap();
    assert!(!events.is_empty(), "surviving subscriber keeps its stream");

    let probe = server.submit(subject_spec(55)).unwrap();
    assert!(
        server.status(probe).unwrap().cache_hit,
        "cached result survives forgetting a subscriber"
    );
    assert_eq!(
        report_bytes(&server.wait(probe).unwrap().unwrap()),
        baseline
    );
    server.shutdown();
}

#[test]
fn mismatched_schedule_does_not_coalesce() {
    let server = single_worker_server();
    let blocker = server.submit(blocker_spec(6)).unwrap();
    let leader = server.submit(subject_spec(31)).unwrap();
    // Same content, different deadline: must not ride an execution with a
    // different cancellation schedule.
    let strict = server
        .submit(subject_spec(31).timeout_secs(3600.0))
        .unwrap();
    assert!(!server.status(strict).unwrap().coalesced);
    assert!(server.status(strict).unwrap().state == JobState::Queued);
    server.wait(blocker).unwrap().unwrap();
    let a = report_bytes(&server.wait(leader).unwrap().unwrap());
    let b = report_bytes(&server.wait(strict).unwrap().unwrap());
    assert_eq!(a, b, "both executions still agree bit-for-bit");
    server.shutdown();
}

#[test]
fn durable_cache_survives_restart() {
    let cache_dir = temp_dir("durable-cache");
    let options = || ServerOptions {
        store: None,
        faults: None,
        cache: Some(CacheConfig::with_capacity(8).durable(&cache_dir)),
        shard_id: None,
    };
    let computed = {
        let server = JobServer::launch(JobServerConfig::default(), options()).unwrap();
        let id = server.submit(subject_spec(123)).unwrap();
        let bytes = report_bytes(&server.wait(id).unwrap().unwrap());
        server.shutdown();
        bytes
    };
    let server = JobServer::launch(JobServerConfig::default(), options()).unwrap();
    let id = server.submit(subject_spec(123)).unwrap();
    let recovered = report_bytes(&server.wait(id).unwrap().unwrap());
    assert!(
        server.status(id).unwrap().cache_hit,
        "hit must survive the restart via the cache journal"
    );
    assert_eq!(recovered, computed);
    server.shutdown();
}

#[test]
fn torn_cache_journal_never_serves_a_partial_report() {
    // Reference: one cached outcome, journal captured after shutdown.
    let cache_dir = temp_dir("torn-cache");
    let options = |dir: &std::path::Path| ServerOptions {
        store: None,
        faults: None,
        cache: Some(CacheConfig::with_capacity(8).durable(dir)),
        shard_id: None,
    };
    let computed = {
        let server = JobServer::launch(JobServerConfig::default(), options(&cache_dir)).unwrap();
        let id = server.submit(subject_spec(7)).unwrap();
        let bytes = report_bytes(&server.wait(id).unwrap().unwrap());
        server.shutdown();
        bytes
    };
    let journal = std::fs::read(cache_dir.join("journal.log")).unwrap();
    assert!(!journal.is_empty());

    // Simulate a crash after every byte prefix of the cache journal
    // (including mid-record tears). Recovery must always launch, and the
    // resubmission must always produce the reference bytes — served from
    // the cache when the record survived, recomputed when it tore, never
    // a partial or corrupted report.
    let step = (journal.len() / 24).max(1);
    for cut in (0..=journal.len()).step_by(step) {
        let crash_dir = temp_dir(&format!("torn-cache-{cut}"));
        std::fs::write(crash_dir.join("journal.log"), &journal[..cut]).unwrap();
        let server = JobServer::launch(JobServerConfig::default(), options(&crash_dir)).unwrap();
        let id = server.submit(subject_spec(7)).unwrap();
        let bytes = report_bytes(&server.wait(id).unwrap().unwrap());
        assert_eq!(bytes, computed, "cut at byte {cut}/{}", journal.len());
        server.shutdown();
        let _ = std::fs::remove_dir_all(&crash_dir);
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn disabled_cache_is_bit_identical_to_the_cached_path() {
    let cached_server = single_worker_server();
    let uncached_server = JobServer::launch(
        JobServerConfig {
            workers: 1,
            queue_capacity: 32,
            ..JobServerConfig::default()
        },
        ServerOptions {
            store: None,
            faults: None,
            cache: None,
            shard_id: None,
        },
    )
    .unwrap();

    let a = cached_server.submit(subject_spec(500)).unwrap();
    let b = uncached_server.submit(subject_spec(500)).unwrap();
    let cached = report_bytes(&cached_server.wait(a).unwrap().unwrap());
    let uncached = report_bytes(&uncached_server.wait(b).unwrap().unwrap());
    assert_eq!(cached, uncached, "--no-cache pins the pre-cache results");

    // With the cache off, an identical resubmission runs again: no hit,
    // no coalescing, no stats.
    let again = uncached_server.submit(subject_spec(500)).unwrap();
    let rerun = report_bytes(&uncached_server.wait(again).unwrap().unwrap());
    assert_eq!(rerun, uncached);
    let status = uncached_server.status(again).unwrap();
    assert!(!status.cache_hit);
    assert!(!status.coalesced);
    let stats = uncached_server.stats();
    assert!(stats.cache.is_none());
    assert!(stats.energy_cache.is_none());
    cached_server.shutdown();
    uncached_server.shutdown();
}

/// A journal record reduced to what the job lifecycle decides: its kind,
/// and for `State` the state and retry count, for `Finished` whether it
/// carries an outcome and an error.
fn lifecycle_entry(record: JournalRecord) -> (u64, String) {
    match record {
        JournalRecord::Submitted { id, .. } => (id, "Submitted".to_string()),
        JournalRecord::State { id, state, retries } => (id, format!("State {state:?} {retries}")),
        JournalRecord::Progress { id, .. } => (id, "Progress".to_string()),
        JournalRecord::Checkpoint { id, .. } => (id, "Checkpoint".to_string()),
        JournalRecord::Finished { id, outcome, error } => (
            id,
            format!("Finished {} {}", outcome.is_some(), error.is_some()),
        ),
        JournalRecord::Forgotten { id } => (id, "Forgotten".to_string()),
        other => panic!("unexpected record in a job journal: {other:?}"),
    }
}

/// Run `scenario` on its own 1-worker server with a state dir and a cache
/// dir, wait until every job it returns is terminal, and render what the
/// server recorded: per job, its journal records in file order, its event
/// kinds, and its final state, retries, `cache_hit` and `coalesced`.
fn lifecycle_transcript(
    tag: &str,
    faults: Option<FaultPlan>,
    scenario: impl FnOnce(&JobServer) -> Vec<JobId>,
) -> String {
    let state_dir = temp_dir(&format!("lifecycle-{tag}-state"));
    let cache_dir = temp_dir(&format!("lifecycle-{tag}-cache"));
    let server = JobServer::launch(
        JobServerConfig {
            workers: 1,
            queue_capacity: 32,
            ..JobServerConfig::default()
        },
        ServerOptions {
            store: Some(StoreConfig::new(&state_dir)),
            faults: faults.map(FaultInjector::new),
            cache: Some(CacheConfig::default().durable(&cache_dir)),
            shard_id: None,
        },
    )
    .unwrap();
    let ids = scenario(&server);
    for id in &ids {
        let _ = server.wait(*id).unwrap();
    }
    // Shutdown compacts the journal, so read it while every record is there.
    // The blocker's records interleave with the others': group by job id.
    let journal = std::fs::read_to_string(state_dir.join("journal.log")).unwrap();
    let mut records: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for line in journal.lines() {
        let (_, json) = line.split_once(' ').expect("crc-framed journal line");
        let (id, entry) = lifecycle_entry(serde_json::from_str(json).unwrap());
        records.entry(id).or_default().push(entry);
    }
    let mut transcript = String::new();
    for id in &ids {
        let status = server.status(*id).unwrap();
        let (events, _) = server.events_since(*id, 0).unwrap();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        writeln!(
            transcript,
            "job {id}: journal {:?} events {kinds:?} state {:?} retries {} cache_hit {} coalesced {}",
            records.get(&id.0).cloned().unwrap_or_default(),
            status.state,
            status.retries,
            status.cache_hit,
            status.coalesced,
        )
        .unwrap();
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&state_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
    transcript
}

/// Submit a blocker, then a leader and one identical follower queued
/// behind it. The blocker's budget keeps the worker busy well past the
/// point where the caller acts on them, even on a loaded machine.
fn blocked_leader_and_follower(server: &JobServer, subject: JobSpec) -> [JobId; 3] {
    let mut blocker = blocker_spec(300);
    blocker.config.evaluator.budget = 200;
    let blocker = server.submit(blocker).unwrap();
    let leader = server.submit(subject.clone()).unwrap();
    let follower = server.submit(subject).unwrap();
    assert_eq!(server.status(leader).unwrap().state, JobState::Queued);
    assert!(server.status(follower).unwrap().coalesced);
    [blocker, leader, follower]
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "fault injection is armed only in debug builds"
)]
fn job_lifecycle_transcripts_match_the_parent() {
    // Every job below is acted on while it is still queued behind the
    // blocker, so each transcript is deterministic. The leader is job 2 in
    // the fault scenarios (the blocker is job 1 on a fresh state dir).
    let transcripts = [
        // (a) A resubmission hits the result cache.
        lifecycle_transcript("cache-hit", None, |server| {
            let first = server.submit(subject_spec(301)).unwrap();
            server.wait(first).unwrap().unwrap();
            // The settling worker inserts into the cache after waking waiters.
            while server.stats().cache.unwrap().insertions == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let hit = server.submit(subject_spec(301)).unwrap();
            vec![first, hit]
        }),
        // (b) A follower is cancelled while its leader is queued.
        lifecycle_transcript("follower-cancel", None, |server| {
            let ids = blocked_leader_and_follower(server, subject_spec(302));
            assert!(server.cancel(ids[2]));
            ids.to_vec()
        }),
        // (c) A queued leader is cancelled; its follower is promoted.
        lifecycle_transcript("leader-cancel", None, |server| {
            let ids = blocked_leader_and_follower(server, subject_spec(303));
            assert!(server.cancel(ids[1]));
            ids.to_vec()
        }),
        // (d) The leader's worker panics; the verdict fans out.
        lifecycle_transcript(
            "panic",
            Some(FaultPlan::panic_at(site::WORKER_JOB, 1, "lifecycle pin").for_job(2)),
            |server| {
                let ids = blocked_leader_and_follower(server, subject_spec(304));
                assert_eq!(ids[1], JobId(2));
                ids.to_vec()
            },
        ),
        // (e) The leader hits a transient error, retries, then completes.
        lifecycle_transcript(
            "retry",
            Some(FaultPlan::io_error_at(site::WORKER_JOB, 1, "lifecycle pin").for_job(2)),
            |server| {
                let subject = subject_spec(305).max_retries(1).retry_backoff_ms(1);
                let ids = blocked_leader_and_follower(server, subject);
                assert_eq!(ids[1], JobId(2));
                ids.to_vec()
            },
        ),
        // (f) A leader and its follower complete normally.
        lifecycle_transcript("complete", None, |server| {
            blocked_leader_and_follower(server, subject_spec(306)).to_vec()
        }),
    ];
    let hashes: Vec<u64> = transcripts.iter().map(|t| fnv1a64(t.as_bytes())).collect();
    const PARENT: [u64; 6] = [
        427707415241961756,
        15001625355341182961,
        2676171729438285649,
        2471001781282984415,
        9143185693772045582,
        9666517053371099861,
    ];
    assert_eq!(
        hashes,
        PARENT,
        "job lifecycle transcripts diverged:\n{}",
        transcripts.join("\n")
    );
}
