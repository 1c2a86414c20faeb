//! Distributed-serve-tier integration tests — the guarantees behind
//! `qas coordinator` (see `qarchsearch::cluster`):
//!
//! * killing a shard (SIGKILL, no warning) migrates its incomplete jobs
//!   to a survivor and the final `SearchReport` is **bit-identical** to
//!   an undisturbed single-node run — both when a depth checkpoint was
//!   journaled (resumed migration) and when none was (from-scratch),
//! * per-tenant quotas reject at the edge with a retry-after hint and
//!   re-open when the tenant's jobs finish,
//! * a full cluster queue backpressures inside the bounded wait and
//!   rejects with a retry-after hint past it — never a bare `QueueFull`,
//! * the token-bucket rate limit rejects with a computed retry hint,
//! * `qas serve --port` serves multiple TCP connections concurrently, and
//!   answers a request line that never ends with one error, then closes
//!   only that connection.
//!
//! Shards are real `qas serve --port` subprocesses (debug build, so
//! `--fault-plan` drain delays are armed); the coordinator runs
//! in-process so the tests can reach its introspection API.

use qarchsearch_suite::prelude::*;
use qarchsearch_suite::qarchsearch::cache::{fnv1a64, rendezvous_route};
use qarchsearch_suite::qarchsearch::fault::site;
use qarchsearch_suite::qarchsearch::report::SearchReport;
use qarchsearch_suite::qarchsearch::{ClusterConfig, Coordinator, ShardEndpoint};
use qarchsearch_suite::serde_json::{self, json, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn qas_bin() -> &'static str {
    env!("CARGO_BIN_EXE_qas")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qas-cluster-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// An armed drain delay: every `worker.rung` hit sleeps, which slows the
/// shard's event drain (and therefore checkpoint/result journaling)
/// without perturbing the deterministic search itself — exactly the
/// window a kill test needs.
fn delay_plan(millis: u64) -> String {
    format!(
        r#"{{"faults":[{{"site":"worker.rung","job":null,"hit":0,"action":{{"Delay":{{"millis":{millis}}}}}}}]}}"#
    )
}

/// One `qas serve --port` shard subprocess with a durable state dir.
struct ShardProc {
    child: Child,
    addr: String,
    state_dir: PathBuf,
}

/// Start `qas serve` on `addr` over `state_dir` and wait until it listens.
fn serve_child(addr: &str, state_dir: &Path, tag: &str, extra_args: &[&str]) -> Child {
    let port = addr.rsplit(':').next().unwrap();
    let child = Command::new(qas_bin())
        .args([
            "serve",
            "--port",
            port,
            "--bind",
            "127.0.0.1",
            "--state-dir",
            state_dir.to_str().unwrap(),
            "--shard-id",
            tag,
        ])
        .args(extra_args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    while TcpStream::connect(addr).is_err() {
        assert!(
            Instant::now() < deadline,
            "shard {tag} never started listening on {addr}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    child
}

impl ShardProc {
    fn spawn(tag: &str, extra_args: &[&str]) -> ShardProc {
        let port = {
            let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            listener.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let state_dir = temp_dir(tag);
        let child = serve_child(&addr, &state_dir, tag, extra_args);
        ShardProc {
            child,
            addr,
            state_dir,
        }
    }

    /// SIGKILL the shard (if it still runs) and start it again on the same
    /// port and state dir: it replays its journal and resumes its jobs
    /// under the same ids.
    fn restart(&mut self, tag: &str, extra_args: &[&str]) {
        self.kill();
        self.child = serve_child(&self.addr, &self.state_dir, tag, extra_args);
    }

    fn endpoint(&self) -> ShardEndpoint {
        ShardEndpoint::new(self.addr.clone()).with_state_dir(self.state_dir.clone())
    }

    /// SIGKILL — no shutdown handshake, no journal flushes beyond what
    /// already hit the filesystem.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Wait for the process to exit on its own (after a protocol
    /// `shutdown`), failing the test if it lingers.
    fn await_exit(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            if self.child.try_wait().unwrap().is_some() {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "shard did not exit after shutdown"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

impl Drop for ShardProc {
    fn drop(&mut self) {
        self.kill();
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

/// Test-speed cluster config: fast heartbeats, quick death verdicts.
fn cluster_config(shards: Vec<ShardEndpoint>) -> ClusterConfig {
    let mut config = ClusterConfig::new(shards);
    config.heartbeat_ms = 100;
    config.heartbeat_misses = 2;
    config.connect_timeout_ms = 500;
    config.request_timeout_ms = 5_000;
    config
}

/// A multi-depth, multi-rung job: enough journal records for the kill
/// windows, fast enough to re-run from scratch.
fn cluster_spec(seed: u64, max_depth: usize) -> JobSpec {
    let config = SearchConfig::builder()
        .alphabet(GateAlphabet::from_mnemonics(&["rx", "ry"]).unwrap())
        .max_depth(max_depth)
        .max_gates_per_mixer(1)
        .optimizer_budget(30)
        .halving(10, 2)
        .backend(qarchsearch_suite::qaoa::Backend::StateVector)
        .threads(1)
        .seed(seed)
        .build();
    let graphs = vec![Graph::connected_erdos_renyi(6, 0.5, seed, 50)];
    JobSpec::new(config, graphs).name(format!("cluster-{seed}"))
}

/// The undisturbed single-node baseline: same spec through an in-process
/// `JobServer`, reduced to timing-free report bytes.
fn reference_report(spec: JobSpec) -> String {
    let server = JobServer::start(JobServerConfig {
        workers: 1,
        queue_capacity: 4,
        ..JobServerConfig::default()
    });
    let id = server.submit(spec).unwrap();
    let report = SearchReport::from(&server.wait(id).unwrap().unwrap())
        .without_timings()
        .to_json();
    server.shutdown();
    report
}

/// Externally-tagged event kinds ("Started", "DepthCompleted",
/// "Migrated", …); unit variants serialize as bare strings.
fn event_kinds(events: &[Value]) -> Vec<String> {
    events
        .iter()
        .filter_map(|e| {
            e.as_str().map(str::to_string).or_else(|| {
                e.as_object()
                    .and_then(|entries| entries.first())
                    .map(|(k, _)| k.clone())
            })
        })
        .collect()
}

fn find_migrated_event(events: &[Value]) -> Option<Value> {
    events.iter().find_map(|e| {
        e.as_object()
            .and_then(|entries| entries.iter().find(|(k, _)| k == "Migrated"))
            .map(|(_, v)| v.clone())
    })
}

/// Shared body of the two kill tests: submit, wait for `ready` on the
/// event stream, kill the owner, and assert the migrated result is
/// byte-identical to the single-node baseline.
fn kill_and_assert_bit_identical(
    seed: u64,
    drain_delay_ms: u64,
    post_detect_sleep_ms: u64,
    ready: impl Fn(&[String]) -> bool,
) -> (Value, Vec<Value>) {
    let spec = cluster_spec(seed, 2);
    let baseline = reference_report(spec.clone());

    let plan = delay_plan(drain_delay_ms);
    let mut s1 = ShardProc::spawn(
        &format!("kill-{seed}-a"),
        &["--workers", "1", "--fault-plan", &plan],
    );
    let mut s2 = ShardProc::spawn(
        &format!("kill-{seed}-b"),
        &["--workers", "1", "--fault-plan", &plan],
    );
    let coordinator =
        Coordinator::start(cluster_config(vec![s1.endpoint(), s2.endpoint()])).unwrap();

    let submission = coordinator.submit(spec, None).unwrap();
    let id = submission.id;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (events, _) = coordinator.events(id, 0).unwrap();
        let kinds = event_kinds(&events);
        assert!(
            !kinds.iter().any(|k| k == "Finished"),
            "job drained to completion before the kill; raise the drain delay"
        );
        if ready(&kinds) {
            break;
        }
        assert!(Instant::now() < deadline, "kill window never opened");
        std::thread::sleep(Duration::from_millis(10));
    }
    if post_detect_sleep_ms > 0 {
        std::thread::sleep(Duration::from_millis(post_detect_sleep_ms));
    }
    let owner = coordinator.shard_of(id).expect("job is placed on a shard");
    if owner == s1.addr {
        s1.kill();
    } else {
        s2.kill();
    }

    let envelope = coordinator.wait(id).unwrap();
    assert_eq!(
        envelope.get("done").and_then(Value::as_bool),
        Some(true),
        "wait must return a terminal envelope: {envelope:?}"
    );
    assert!(
        envelope.get("error").is_none(),
        "migrated job failed: {envelope:?}"
    );
    assert!(
        coordinator.migrations() >= 1,
        "the kill must have migrated at least one job"
    );

    let (events, _) = coordinator.events(id, 0).unwrap();
    assert!(
        event_kinds(&events).iter().any(|k| k == "Migrated"),
        "event stream must narrate the migration: {events:?}"
    );

    let report_value = envelope.get("report").cloned().expect("report present");
    let report: SearchReport = serde_json::from_value(&report_value).unwrap();
    assert!(
        report.migrated,
        "the moved job's report must carry the migrated flag"
    );
    assert_eq!(
        report.without_timings().to_json(),
        baseline,
        "migrated run diverged from the undisturbed single-node run"
    );
    coordinator.shutdown(true);
    (envelope, events)
}

#[test]
fn sigkill_after_a_checkpoint_resumes_on_a_survivor_bit_identically() {
    // Kill once depth 1's checkpoint is journaled (the DepthCompleted
    // event and its checkpoint record are written back-to-back; the
    // short sleep covers the gap). The drain delay then holds the
    // terminal result back for ≥2 more rung delays, so the journal the
    // coordinator replays has the checkpoint but no result: a resumed
    // migration.
    let (_, events) = kill_and_assert_bit_identical(11, 900, 150, |kinds| {
        kinds.iter().any(|k| k == "DepthCompleted")
    });
    let migrated = find_migrated_event(&events).expect("Migrated event recorded");
    assert_eq!(
        migrated.get("resumed").and_then(Value::as_bool),
        Some(true),
        "a journaled checkpoint must make the migration a resume: {migrated:?}"
    );
}

#[test]
fn sigkill_before_any_checkpoint_restarts_from_scratch_bit_identically() {
    // Kill as soon as the first rung lands, well inside the ≥900 ms the
    // drain delay leaves before depth 1's checkpoint can be journaled:
    // the replayed journal holds only the submission, so the job
    // restarts from scratch on the survivor.
    let (_, events) = kill_and_assert_bit_identical(13, 900, 0, |kinds| {
        kinds.iter().any(|k| k == "RungCompleted") && !kinds.iter().any(|k| k == "DepthCompleted")
    });
    let migrated = find_migrated_event(&events).expect("Migrated event recorded");
    assert_eq!(
        migrated.get("resumed").and_then(Value::as_bool),
        Some(false),
        "without a checkpoint the migration must restart from scratch: {migrated:?}"
    );
}

#[test]
fn tenant_quota_rejects_at_the_edge_and_releases_on_completion() {
    let plan = delay_plan(700);
    let shard = ShardProc::spawn("quota", &["--workers", "2", "--fault-plan", &plan]);
    let mut config = cluster_config(vec![shard.endpoint()]);
    config.admission.tenant_quota = 2;
    let coordinator = Coordinator::start(config).unwrap();

    // Two acme jobs in flight fill the quota (distinct seeds: identical
    // specs would dedupe on the shard and be born terminal).
    let a = coordinator
        .submit(cluster_spec(71, 1), Some("acme".to_string()))
        .unwrap();
    let b = coordinator
        .submit(cluster_spec(72, 1), Some("acme".to_string()))
        .unwrap();
    let denied = coordinator
        .submit(cluster_spec(73, 1), Some("acme".to_string()))
        .unwrap_err();
    match denied {
        SearchError::AdmissionDenied {
            reason,
            retry_after_ms,
        } => {
            assert!(reason.contains("quota"), "unexpected reason: {reason}");
            assert!(retry_after_ms >= 1, "hint must suggest a wait");
        }
        other => panic!("expected AdmissionDenied, got {other:?}"),
    }

    // Other tenants and anonymous submissions are unaffected.
    let c = coordinator
        .submit(cluster_spec(74, 1), Some("globex".to_string()))
        .unwrap();
    for id in [a.id, b.id, c.id] {
        let envelope = coordinator.wait(id).unwrap();
        assert!(envelope.get("error").is_none(), "{envelope:?}");
    }

    // Observed terminal states hand the quota slots back.
    let again = coordinator
        .submit(cluster_spec(75, 1), Some("acme".to_string()))
        .unwrap();
    coordinator.wait(again.id).unwrap();

    let stats = coordinator.stats();
    assert_eq!(stats.admission.rejected_quota, 1, "{:?}", stats.admission);
    assert_eq!(stats.admission.admitted, 4, "{:?}", stats.admission);
    coordinator.shutdown(true);
}

#[test]
fn full_cluster_queue_backpressures_then_rejects_with_a_retry_hint() {
    // One slow shard with a one-slot queue: one job running, one queued,
    // everything else is backpressure.
    let plan = delay_plan(600);
    let shard = ShardProc::spawn(
        "backpressure",
        &["--workers", "1", "--queue", "1", "--fault-plan", &plan],
    );

    let mut patient_config = cluster_config(vec![shard.endpoint()]);
    patient_config.admission.max_wait_ms = 20_000;
    patient_config.admission.retry_poll_ms = 25;
    let patient = Coordinator::start(patient_config).unwrap();

    let j1 = patient.submit(cluster_spec(81, 1), None).unwrap();
    let j2 = patient.submit(cluster_spec(82, 1), None).unwrap();
    // The queue is now full: this submission must ride the bounded wait
    // until a slot frees, then place — the edge never surfaces QueueFull.
    let j3 = patient.submit(cluster_spec(83, 1), None).unwrap();

    // A zero-wait edge pointed at the same (still clogged) shard fails
    // fast — but with a retry-after hint, not a bare QueueFull.
    let mut impatient_config = cluster_config(vec![shard.endpoint()]);
    impatient_config.admission.max_wait_ms = 0;
    impatient_config.admission.retry_poll_ms = 25;
    let impatient = Coordinator::start(impatient_config).unwrap();
    match impatient.submit(cluster_spec(84, 1), None).unwrap_err() {
        SearchError::AdmissionDenied {
            reason,
            retry_after_ms,
        } => {
            assert!(reason.contains("queue"), "unexpected reason: {reason}");
            assert!(retry_after_ms >= 1, "hint must suggest a wait");
        }
        other => panic!("expected AdmissionDenied, got {other:?}"),
    }
    assert_eq!(impatient.stats().admission.rejected_backpressure, 1);
    impatient.shutdown(false);

    for id in [j1.id, j2.id, j3.id] {
        let envelope = patient.wait(id).unwrap();
        assert!(envelope.get("error").is_none(), "{envelope:?}");
    }
    patient.shutdown(true);
}

#[test]
fn rate_limit_rejects_with_a_computed_retry_hint() {
    let shard = ShardProc::spawn("rate", &["--workers", "1"]);
    let mut config = cluster_config(vec![shard.endpoint()]);
    config.admission.rate_per_sec = 0.2;
    config.admission.burst = 2;
    let coordinator = Coordinator::start(config).unwrap();

    let a = coordinator.submit(cluster_spec(91, 1), None).unwrap();
    let b = coordinator.submit(cluster_spec(92, 1), None).unwrap();
    match coordinator.submit(cluster_spec(93, 1), None).unwrap_err() {
        SearchError::AdmissionDenied {
            reason,
            retry_after_ms,
        } => {
            assert!(reason.contains("rate limit"), "unexpected reason: {reason}");
            // The bucket drains 2 tokens instantly; at 0.2/s the next
            // token is ~5 s out (minus the microseconds already elapsed).
            assert!(
                retry_after_ms > 1_000,
                "hint must reflect the refill rate, got {retry_after_ms}"
            );
        }
        other => panic!("expected AdmissionDenied, got {other:?}"),
    }
    assert_eq!(coordinator.stats().admission.rejected_rate_limit, 1);
    for id in [a.id, b.id] {
        coordinator.wait(id).unwrap();
    }
    coordinator.shutdown(true);
}

#[test]
fn tcp_serve_handles_concurrent_connections() {
    let mut shard = ShardProc::spawn("tcp-concurrent", &["--workers", "1"]);

    let connect = |tag: &str| -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(&shard.addr)
            .unwrap_or_else(|e| panic!("client {tag} cannot connect: {e}"));
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (reader, stream)
    };
    let request = |reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, body: Value| {
        writeln!(writer, "{}", serde_json::to_string(&body).unwrap()).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        serde_json::from_str::<Value>(line.trim()).unwrap()
    };

    // Client A connects first and stays idle; under the old sequential
    // accept loop, client B would block behind it forever.
    let (mut reader_a, mut writer_a) = connect("a");
    let (mut reader_b, mut writer_b) = connect("b");
    let stats_b = request(&mut reader_b, &mut writer_b, json!({ "cmd": "stats" }));
    assert_eq!(stats_b.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(
        stats_b
            .get("stats")
            .and_then(|s| s.get("shard_id"))
            .and_then(Value::as_str),
        Some("tcp-concurrent"),
        "stats must report the --shard-id: {stats_b:?}"
    );
    // A is still live and interleaves freely with B.
    let stats_a = request(&mut reader_a, &mut writer_a, json!({ "cmd": "stats" }));
    assert_eq!(stats_a.get("ok").and_then(Value::as_bool), Some(true));
    assert!(
        stats_a
            .get("stats")
            .and_then(|s| s.get("uptime_secs"))
            .and_then(Value::as_f64)
            .is_some_and(|u| u >= 0.0),
        "stats must report uptime: {stats_a:?}"
    );

    // A `shutdown` on one connection stops the whole server, including
    // the accept loop and B's idle connection thread.
    let bye = request(&mut reader_b, &mut writer_b, json!({ "cmd": "shutdown" }));
    assert_eq!(bye.get("shutdown").and_then(Value::as_bool), Some(true));
    shard.await_exit();
}

/// `MAX_LINE_BYTES` of `src/bin/qas.rs`: the longest request line the TCP
/// front door buffers.
const MAX_LINE_BYTES: usize = 64 << 20;

#[test]
fn tcp_serve_closes_a_connection_whose_line_outgrows_the_limit() {
    let mut shard = ShardProc::spawn("tcp-overlong", &["--workers", "1"]);
    let connect = || {
        let stream = TcpStream::connect(&shard.addr).unwrap();
        let timeout = Some(Duration::from_secs(30));
        stream.set_read_timeout(timeout).unwrap();
        stream.set_write_timeout(timeout).unwrap();
        (BufReader::new(stream.try_clone().unwrap()), stream)
    };

    // One byte past the limit, and no newline.
    let (mut reader, mut writer) = connect();
    let chunk = vec![b'x'; 1 << 20];
    for _ in 0..MAX_LINE_BYTES / chunk.len() {
        writer.write_all(&chunk).unwrap();
    }
    writer.write_all(b"x").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let reply: Value = serde_json::from_str(line.trim()).unwrap();
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));
    assert!(
        reply.get("error").and_then(Value::as_str).is_some(),
        "the refusal must carry an error: {reply:?}"
    );
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).unwrap(),
        0,
        "the connection must close after the refusal, got {line:?}"
    );

    // The server itself keeps serving.
    let (mut reader, mut writer) = connect();
    writer.write_all(b"{\"cmd\":\"stats\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let stats: Value = serde_json::from_str(line.trim()).unwrap();
    assert_eq!(stats.get("ok").and_then(Value::as_bool), Some(true));
    writer.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    shard.await_exit();
}

/// The shard a two-shard coordinator with both shards alive places `spec`
/// on (the coordinator's own content-keyed routing).
fn routed_shard(spec: &JobSpec) -> usize {
    let key = spec_cache_key(spec).unwrap().hash;
    rendezvous_route(key, &[0, 1]).unwrap() as usize
}

/// The first seed at or after `from` whose `cluster_spec(seed, 1)` is
/// placed on `shard`.
fn seed_placed_on(shard: usize, from: u64) -> u64 {
    (from..)
        .find(|&seed| routed_shard(&cluster_spec(seed, 1)) == shard)
        .unwrap()
}

/// An envelope reduced to the bytes that hold across runs: the report's
/// clocks are reset and the shard's address becomes its fleet index.
fn envelope_bytes(envelope: &Value, shards: &[&str]) -> String {
    let mut envelope = envelope.clone();
    if let Value::Object(entries) = &mut envelope {
        for (key, value) in entries.iter_mut() {
            match (key.as_str(), value) {
                ("shard", value) => {
                    if let Some(idx) = shards.iter().position(|s| value.as_str() == Some(*s)) {
                        *value = json!(idx);
                    }
                }
                ("report", Value::Object(report)) => {
                    for (field, clock) in report.iter_mut() {
                        match (field.as_str(), clock) {
                            ("total_seconds", clock) => *clock = json!(0.0),
                            ("per_depth_seconds", Value::Array(depths)) => {
                                for depth in depths {
                                    if let Value::Array(pair) = depth {
                                        pair[1] = json!(0.0);
                                    }
                                }
                            }
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
        }
    }
    serde_json::to_string(&envelope).unwrap()
}

#[test]
fn coordinator_envelopes_match_the_parent() {
    // One shard (`busy`) holds a slow blocker as its job 1, with a leader,
    // its coalesced follower, a job cancelled while queued and a job whose
    // worker panics (its job 5) queued behind it. The other shard serves a
    // cold job and its cache-hit resubmission. Every job is acted on while
    // it is still queued, so every envelope is deterministic.
    let blocker = cluster_spec(600, 2);
    let busy = routed_shard(&blocker);
    let idle = 1 - busy;
    let cold = cluster_spec(seed_placed_on(idle, 610), 1);
    let subject_seed = seed_placed_on(busy, 620);
    let subject = cluster_spec(subject_seed, 1);
    let cancelled_seed = seed_placed_on(busy, subject_seed + 1);
    let cancelled = cluster_spec(cancelled_seed, 1);
    let panicking = cluster_spec(seed_placed_on(busy, cancelled_seed + 1), 1);
    let plan = FaultPlan {
        faults: vec![
            FaultSpec {
                site: site::WORKER_RUNG.to_string(),
                job: Some(1),
                hit: 0,
                action: FaultAction::Delay { millis: 500 },
            },
            FaultSpec {
                site: site::WORKER_JOB.to_string(),
                job: Some(5),
                hit: 1,
                action: FaultAction::Panic {
                    message: "envelope pin".to_string(),
                },
            },
        ],
    };
    let plan = serde_json::to_string(&plan).unwrap();
    let shards: Vec<ShardProc> = (0..2)
        .map(|idx| {
            let tag = format!("envelopes-{idx}");
            if idx == busy {
                ShardProc::spawn(&tag, &["--workers", "1", "--fault-plan", &plan])
            } else {
                ShardProc::spawn(&tag, &["--workers", "1"])
            }
        })
        .collect();
    let addrs: Vec<&str> = shards.iter().map(|s| s.addr.as_str()).collect();
    let coordinator = Coordinator::start(cluster_config(
        shards.iter().map(ShardProc::endpoint).collect(),
    ))
    .unwrap();

    let first = coordinator.submit(cold.clone(), None).unwrap();
    coordinator.wait(first.id).unwrap();
    // The settling worker inserts into the cache after waking waiters.
    let deadline = Instant::now() + Duration::from_secs(20);
    while coordinator.stats().shards[idle]
        .stats
        .as_ref()
        .and_then(|s| s.get("cache"))
        .and_then(|c| c.get("insertions"))
        .and_then(Value::as_u64)
        != Some(1)
    {
        assert!(
            Instant::now() < deadline,
            "the cold result never reached the cache"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let hit = coordinator.submit(cold, None).unwrap();
    assert!(hit.cache_hit);

    let blocker = coordinator.submit(blocker, None).unwrap();
    let leader = coordinator.submit(subject.clone(), None).unwrap();
    let follower = coordinator.submit(subject, None).unwrap();
    assert!(follower.coalesced);
    let dropped = coordinator.submit(cancelled, None).unwrap();
    assert!(coordinator.cancel(dropped.id).unwrap());
    let panicked = coordinator.submit(panicking, None).unwrap();

    let jobs = [first, hit, blocker, leader, follower, dropped, panicked];
    let mut transcripts = Vec::new();
    for job in &jobs {
        let waited = envelope_bytes(&coordinator.wait(job.id).unwrap(), &addrs);
        let fetched = envelope_bytes(&coordinator.result(job.id).unwrap(), &addrs);
        assert_eq!(
            waited, fetched,
            "wait and result disagree on job {}",
            job.id.0
        );
        transcripts.push(format!("{waited}\n{fetched}"));
    }
    coordinator.shutdown(true);
    let hashes: Vec<u64> = transcripts.iter().map(|t| fnv1a64(t.as_bytes())).collect();
    const PARENT: [u64; 7] = [
        13800677076514780855,
        3598656558459668893,
        10792730105955465229,
        15845702282117458395,
        7086577725230216937,
        12719966316831777689,
        12171885636385466539,
    ];
    assert_eq!(
        hashes,
        PARENT,
        "coordinator envelopes diverged:\n{}",
        transcripts.join("\n")
    );
}

/// A delay armed at `site`, for one shard-local job or (`None`) for all.
fn delay_at(site: &str, job: Option<u64>, millis: u64) -> String {
    serde_json::to_string(&FaultPlan::single(FaultSpec {
        site: site.to_string(),
        job,
        hit: 0,
        action: FaultAction::Delay { millis },
    }))
    .unwrap()
}

/// One request on a fresh connection to a `qas serve` or coordinator
/// front door.
fn line_request(addr: &str, body: &Value) -> Value {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writeln!(writer, "{}", serde_json::to_string(body).unwrap()).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    serde_json::from_str(line.trim()).unwrap()
}

/// Poll the coordinator's event stream for `id` until `kind` appears.
fn await_event(coordinator: &Coordinator, id: JobId, kind: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (events, _) = coordinator.events(id, 0).unwrap();
        let kinds = event_kinds(&events);
        assert!(
            !kinds.iter().any(|k| k == "Finished"),
            "job finished before {kind}; raise the drain delay"
        );
        if kinds.iter().any(|k| k == kind) {
            return;
        }
        assert!(Instant::now() < deadline, "{kind} never arrived");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn a_shard_restarted_before_its_death_verdict_finishes_the_watched_job() {
    let spec = cluster_spec(17, 2);
    let baseline = reference_report(spec.clone());
    let args = ["--workers", "1", "--fault-plan", &delay_plan(400)];
    let mut shard = ShardProc::spawn("restart", &args);
    let mut config = cluster_config(vec![shard.endpoint()]);
    // Never declared dead: the job stays placed on the restarted shard.
    config.heartbeat_misses = 1_000;
    let coordinator = Coordinator::start(config).unwrap();

    let id = coordinator.submit(spec, None).unwrap().id;
    await_event(&coordinator, id, "RungCompleted");
    // The watcher's connection dies with the shard; it reconnects to the
    // restarted shard, which resumes the job from its journal.
    shard.restart("restart", &args);
    let envelope = coordinator.wait(id).unwrap();
    assert!(envelope.get("error").is_none(), "{envelope:?}");
    assert_eq!(envelope.get("migrations").and_then(Value::as_u64), Some(0));
    let report: SearchReport =
        serde_json::from_value(envelope.get("report").expect("report present")).unwrap();
    assert_eq!(
        report.without_timings().to_json(),
        baseline,
        "the resumed run diverged from the undisturbed single-node run"
    );
    assert_eq!(coordinator.result(id).unwrap(), envelope);
    assert_eq!(coordinator.migrations(), 0);
    coordinator.shutdown(true);
}

#[test]
fn held_results_outlive_their_shard_while_cancelled_and_forgotten_ones_do_not() {
    // Shard-local job 3 is a slow blocker, so job 4 can be cancelled while
    // it is still queued.
    let mut shard = ShardProc::spawn(
        "held",
        &[
            "--workers",
            "1",
            "--fault-plan",
            &delay_at(site::WORKER_RUNG, Some(3), 500),
        ],
    );
    let mut config = cluster_config(vec![shard.endpoint()]);
    config.heartbeat_misses = 1_000;
    let coordinator = Coordinator::start(config).unwrap();

    let done = coordinator.submit(cluster_spec(31, 1), None).unwrap().id;
    let finished = coordinator.wait(done).unwrap();
    assert_eq!(coordinator.result(done).unwrap(), finished);

    let forgotten = coordinator.submit(cluster_spec(32, 1), None).unwrap().id;
    coordinator.wait(forgotten).unwrap();
    assert!(coordinator.forget(forgotten).unwrap());
    assert!(matches!(
        coordinator.result(forgotten),
        Err(SearchError::UnknownJob { .. })
    ));
    assert!(matches!(
        coordinator.wait(forgotten),
        Err(SearchError::UnknownJob { .. })
    ));

    coordinator.submit(cluster_spec(33, 2), None).unwrap();
    let queued = coordinator.submit(cluster_spec(34, 1), None).unwrap().id;
    assert!(coordinator.cancel(queued).unwrap());
    let cancelled = coordinator.wait(queued).unwrap();
    assert_eq!(cancelled.get("state"), Some(&json!("Cancelled")));
    assert_eq!(coordinator.result(queued).unwrap(), cancelled);

    // With the shard gone (and no death verdict), the completed job's
    // result is answered from the coordinator's held copy, while the
    // cancelled job's result still goes to the shard, and fails.
    shard.kill();
    assert_eq!(coordinator.result(done).unwrap(), finished);
    assert!(matches!(
        coordinator.result(queued),
        Err(SearchError::Cluster { .. })
    ));
    coordinator.shutdown(false);
}

#[test]
fn a_blocked_wait_does_not_hold_up_serve_shutdown() {
    // Each of the job's rungs starts 1.5 s late: a shutdown that waited
    // for the job would take well over 5 s. (The delay sits in the engine,
    // ahead of a cancellation poll, so a cancelled job stops within one.)
    let spec = cluster_spec(41, 2);
    let baseline = reference_report(spec.clone());
    let mut shard = ShardProc::spawn(
        "blocked-wait",
        &[
            "--workers",
            "1",
            "--fault-plan",
            &delay_at(site::PIPELINE_RUNG, None, 1_500),
        ],
    );
    let submitted = line_request(
        &shard.addr,
        &json!({ "cmd": "submit_spec", "spec": (serde_json::to_value(&spec).unwrap()) }),
    );
    let job = submitted.get("job").and_then(Value::as_u64).unwrap();
    let addr = shard.addr.clone();
    let waiter =
        std::thread::spawn(move || line_request(&addr, &json!({ "cmd": "wait", "job": (job) })));
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let status = line_request(&shard.addr, &json!({ "cmd": "status", "job": (job) }));
        let state = status.get("status").and_then(|s| s.get("state"));
        if state == Some(&json!("Running")) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the job never started: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(100));

    let asked = Instant::now();
    let bye = line_request(&shard.addr, &json!({ "cmd": "shutdown" }));
    assert_eq!(bye.get("shutdown").and_then(Value::as_bool), Some(true));
    shard.await_exit();
    assert!(
        asked.elapsed() < Duration::from_secs(5),
        "shutdown took {:?} behind a blocked wait",
        asked.elapsed()
    );
    // The blocked client hears the suspension as a cancellation.
    let suspended = waiter.join().unwrap();
    assert_eq!(
        suspended.get("state"),
        Some(&json!("Cancelled")),
        "{suspended:?}"
    );

    // The suspended job resumes on restart and matches an undisturbed run.
    shard.restart("blocked-wait", &["--workers", "1"]);
    let resumed = line_request(&shard.addr, &json!({ "cmd": "wait", "job": (job) }));
    assert!(resumed.get("error").is_none(), "{resumed:?}");
    let report: SearchReport =
        serde_json::from_value(resumed.get("report").expect("report present")).unwrap();
    assert_eq!(report.without_timings().to_json(), baseline);
}

/// Stop `shard` with a protocol `shutdown`, as an operator would, and wait
/// for the process to exit.
fn stop_gracefully(shard: &mut ShardProc) {
    let bye = line_request(&shard.addr, &json!({ "cmd": "shutdown" }));
    assert_eq!(bye.get("shutdown").and_then(Value::as_bool), Some(true));
    shard.await_exit();
}

#[test]
fn a_gracefully_stopped_shard_resumes_the_watched_job_on_restart() {
    // A shard shutting down answers the watcher's `wait` with `Cancelled`
    // for the job it suspends. The coordinator's blocked `wait` must not
    // return that: the job resumes when the shard restarts in place.
    let spec = cluster_spec(19, 2);
    let baseline = reference_report(spec.clone());
    let mut shard = ShardProc::spawn(
        "graceful-restart",
        &[
            "--workers",
            "1",
            "--fault-plan",
            &delay_at(site::PIPELINE_RUNG, None, 500),
        ],
    );
    let mut config = cluster_config(vec![shard.endpoint()]);
    config.heartbeat_misses = 1_000;
    let coordinator = Coordinator::start(config).unwrap();

    let id = coordinator.submit(spec, None).unwrap().id;
    await_event(&coordinator, id, "RungCompleted");
    let envelope = std::thread::scope(|scope| {
        let waiter = scope.spawn(|| coordinator.wait(id));
        std::thread::sleep(Duration::from_millis(200));
        stop_gracefully(&mut shard);
        std::thread::sleep(Duration::from_millis(300));
        assert!(
            !waiter.is_finished(),
            "wait returned for a job its shard only suspended: {:?}",
            waiter.join()
        );
        assert_eq!(coordinator.stats().jobs_inflight, 1);
        shard.restart("graceful-restart", &["--workers", "1"]);
        waiter.join().unwrap().unwrap()
    });
    assert!(envelope.get("error").is_none(), "{envelope:?}");
    assert_eq!(envelope.get("state"), Some(&json!("Completed")));
    assert_eq!(envelope.get("migrations").and_then(Value::as_u64), Some(0));
    let report: SearchReport =
        serde_json::from_value(envelope.get("report").expect("report present")).unwrap();
    assert_eq!(
        report.without_timings().to_json(),
        baseline,
        "the resumed run diverged from the undisturbed single-node run"
    );
    assert_eq!(coordinator.result(id).unwrap(), envelope);
    assert_eq!(coordinator.migrations(), 0);
    assert_eq!(coordinator.stats().jobs_inflight, 0);
    coordinator.shutdown(true);
}

#[test]
fn a_gracefully_stopped_shard_without_a_journal_reruns_the_job_on_a_survivor() {
    // The coordinator cannot read the stopped shard's journal, so its death
    // verdict re-runs the suspended job from scratch on the survivor (the
    // "no checkpoint yet" migration); the blocked `wait` returns that run.
    let spec = cluster_spec(23, 2);
    let baseline = reference_report(spec.clone());
    let owner = routed_shard(&spec);
    let plan = delay_at(site::PIPELINE_RUNG, None, 500);
    let mut shards: Vec<ShardProc> = (0..2)
        .map(|idx| {
            let tag = format!("graceful-rerun-{idx}");
            if idx == owner {
                ShardProc::spawn(&tag, &["--workers", "1", "--fault-plan", &plan])
            } else {
                ShardProc::spawn(&tag, &["--workers", "1"])
            }
        })
        .collect();
    let endpoints = shards
        .iter()
        .enumerate()
        .map(|(idx, shard)| {
            if idx == owner {
                ShardEndpoint::new(shard.addr.clone())
            } else {
                shard.endpoint()
            }
        })
        .collect();
    let coordinator = Coordinator::start(cluster_config(endpoints)).unwrap();

    let id = coordinator.submit(spec, None).unwrap().id;
    assert_eq!(coordinator.shard_of(id), Some(shards[owner].addr.clone()));
    await_event(&coordinator, id, "RungCompleted");
    let envelope = std::thread::scope(|scope| {
        let waiter = scope.spawn(|| coordinator.wait(id));
        std::thread::sleep(Duration::from_millis(200));
        stop_gracefully(&mut shards[owner]);
        waiter.join().unwrap().unwrap()
    });
    assert!(envelope.get("error").is_none(), "{envelope:?}");
    assert_eq!(envelope.get("state"), Some(&json!("Completed")));
    assert_eq!(envelope.get("migrations").and_then(Value::as_u64), Some(1));
    let report: SearchReport =
        serde_json::from_value(envelope.get("report").expect("report present")).unwrap();
    assert!(report.migrated);
    assert_eq!(
        report.without_timings().to_json(),
        baseline,
        "the re-run diverged from the undisturbed single-node run"
    );
    let (events, _) = coordinator.events(id, 0).unwrap();
    let migrated = find_migrated_event(&events).expect("Migrated event recorded");
    assert_eq!(
        migrated.get("resumed").and_then(Value::as_bool),
        Some(false)
    );
    assert_eq!(coordinator.stats().jobs_inflight, 0);
    coordinator.shutdown(true);
}
