//! The serving tiers: spawned `qas serve` / `qas coordinator` processes
//! driven over the JSON-lines wire protocol by closed-loop clients.

use crate::trace::{Span, Tracer};
use crate::workload::{Domain, OpKind, OpStream, ServeOp, Tier, Workload};
use crate::Res;
use qarchsearch::report::SearchReport;
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop clients per serving run: one per core of the reference box.
pub const CLIENTS: usize = 2;
/// A client pauses after each op for up to this share of the op's latency,
/// the exact share drawn from the seed. Without the pause the two clients
/// lock into a phase — always colliding on the coordinator's one connection
/// per shard, or never — that lasts a run and differs between runs:
/// `serve_cluster` latency then spread by 15–17 % over ten runs, against
/// 8 % (5–14 %) with it. A pause that scales with the latency does the same whether an
/// op takes 250 ms or, once the wire floor is gone, 3 ms.
const THINK_SHARE: f64 = 0.3;
/// Ops each client runs before the timed region: the first cold job pays
/// for lazy set-up (thread start, journal creation) the rest do not.
const WARMUP_OPS: usize = 3;

/// A directory of this run's own, removed when the guard drops.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    pub fn create(base: &Path) -> Res<RunDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = base.join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(RunDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A spawned `qas` process listening on an ephemeral port. Dropping it
/// kills and reaps the child, so a failed or panicking run leaves no
/// stray process behind.
pub struct Proc {
    name: String,
    child: Child,
    addr: String,
    /// Drains the child's stderr (a full pipe would block it) and keeps
    /// the tail for error messages.
    log: Option<JoinHandle<String>>,
}

impl Proc {
    /// Spawn `qas <args> --port 0` and read the bound address back from
    /// the "listening on" line it prints.
    fn spawn(qas: &Path, name: &str, args: &[&str]) -> Res<Proc> {
        let mut child = Command::new(qas)
            .args(args)
            .args(["--port", "0", "--bind", "127.0.0.1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {} {name}: {e}", qas.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let (tx, rx) = mpsc::channel();
        let log = std::thread::spawn(move || {
            let mut tail = String::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or_default();
                    let _ = tx.send(addr.to_string());
                }
                if tail.len() < 4096 {
                    tail.push_str(&line);
                    tail.push('\n');
                }
            }
            tail
        });
        let mut proc = Proc {
            name: name.to_string(),
            child,
            addr: String::new(),
            log: Some(log),
        };
        match rx.recv_timeout(Duration::from_secs(20)) {
            Ok(addr) => {
                proc.addr = addr;
                Ok(proc)
            }
            Err(_) => {
                let tail = proc.stop();
                Err(format!(
                    "{name} never reported its listening address: {tail}"
                ))
            }
        }
    }

    /// Peak resident set of the child so far, from `/proc/<pid>/status`.
    fn peak_rss_kib(&self) -> Option<u64> {
        peak_rss_kib_of(&self.child.id().to_string())
    }

    /// Wait up to `grace` for the child to exit on its own.
    fn wait_exit(&mut self, grace: Duration) -> bool {
        let deadline = Instant::now() + grace;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return true,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => return false,
            }
        }
    }

    /// Kill (if still running), reap, and return the stderr tail.
    fn stop(&mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.log
            .take()
            .and_then(|log| log.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `VmHWM` of a process (`"self"` or a pid), in KiB.
pub fn peak_rss_kib_of(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The processes of one serving tier, each with its own state and cache
/// directory under one run directory. Field order is drop order: the
/// processes die before their directories go.
pub struct Fleet {
    tier: Tier,
    front: Proc,
    shards: Vec<Proc>,
    /// The `--state-dir` of every `qas serve` process.
    state_dirs: Vec<PathBuf>,
    _dir: RunDir,
}

impl Fleet {
    pub fn launch(qas: &Path, base: &Path, tier: Tier) -> Res<Fleet> {
        let dir = RunDir::create(base)?;
        let path_arg = |name: String| -> Res<(PathBuf, String)> {
            let path = dir.path().join(name);
            let arg = path
                .to_str()
                .ok_or("run directory is not UTF-8")?
                .to_string();
            Ok((path, arg))
        };
        let serve = |tag: &str| -> Res<(Proc, PathBuf)> {
            let (state_dir, state) = path_arg(format!("{tag}-state"))?;
            let (_, cache) = path_arg(format!("{tag}-cache"))?;
            let proc = Proc::spawn(
                qas,
                tag,
                &[
                    "serve",
                    "--workers",
                    "1",
                    "--state-dir",
                    &state,
                    "--cache-dir",
                    &cache,
                    "--shard-id",
                    tag,
                ],
            )?;
            Ok((proc, state_dir))
        };
        match tier {
            Tier::Direct => {
                let (front, state_dir) = serve("serve")?;
                Ok(Fleet {
                    tier,
                    front,
                    shards: Vec::new(),
                    state_dirs: vec![state_dir],
                    _dir: dir,
                })
            }
            Tier::Cluster => {
                let (shards, state_dirs): (Vec<Proc>, Vec<PathBuf>) =
                    [serve("shard-a")?, serve("shard-b")?].into_iter().unzip();
                let addrs: Vec<&str> = shards.iter().map(|s| s.addr.as_str()).collect();
                let dirs: Vec<&str> = state_dirs
                    .iter()
                    .map(|d| d.to_str().expect("checked above"))
                    .collect();
                let front = Proc::spawn(
                    qas,
                    "coordinator",
                    &[
                        "coordinator",
                        "--shards",
                        &addrs.join(","),
                        "--shard-state-dirs",
                        &dirs.join(","),
                    ],
                )?;
                Ok(Fleet {
                    tier,
                    front,
                    shards,
                    state_dirs,
                    _dir: dir,
                })
            }
        }
    }

    /// The front door's address.
    pub fn addr(&self) -> &str {
        &self.front.addr
    }

    pub fn shard_addrs(&self) -> Vec<String> {
        self.shards.iter().map(|s| s.addr.clone()).collect()
    }

    pub fn journal_paths(&self) -> Vec<PathBuf> {
        self.state_dirs
            .iter()
            .map(|d| qarchsearch::store::journal_path_in(d))
            .collect()
    }

    /// The peak resident sets of the fleet's processes, summed, in KiB.
    pub fn peak_rss_kib(&self) -> u64 {
        std::iter::once(&self.front)
            .chain(&self.shards)
            .filter_map(Proc::peak_rss_kib)
            .sum()
    }

    /// Ask the front door to shut the tier down and wait for every
    /// process to exit; whatever is still running afterwards is killed.
    pub fn shutdown(mut self) -> Res<()> {
        let line = match self.tier {
            Tier::Direct => r#"{"cmd":"shutdown"}"#,
            Tier::Cluster => r#"{"cmd":"shutdown","shards":true}"#,
        };
        Client::connect(self.addr())?.request(line)?;
        let mut stragglers = Vec::new();
        for proc in std::iter::once(&mut self.front).chain(&mut self.shards) {
            if !proc.wait_exit(Duration::from_secs(5)) {
                stragglers.push(proc.name.clone());
            }
        }
        if stragglers.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "did not exit on shutdown: {}",
                stragglers.join(", ")
            ))
        }
    }
}

/// One JSON-lines connection. `TCP_NODELAY` and one `write_all` per
/// request keep the harness's own packets from waiting on each other, so
/// a round trip measures `qas`.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Client {
    pub fn connect(addr: &str) -> Res<Client> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let timeout = Some(Duration::from_secs(60));
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(timeout))
            .and_then(|()| stream.set_write_timeout(timeout))
            .map_err(|e| format!("configure socket: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            reader,
            writer: stream,
            buf: String::new(),
        })
    }

    /// One request, one response line. A response with `"ok":false` is an
    /// error: no operation of these workloads is meant to be refused.
    pub fn request(&mut self, line: &str) -> Res<Value> {
        self.buf.clear();
        self.buf.push_str(line);
        self.buf.push('\n');
        self.writer
            .write_all(self.buf.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.buf.clear();
        let read = self
            .reader
            .read_line(&mut self.buf)
            .map_err(|e| format!("receive: {e}"))?;
        if read == 0 {
            return Err("connection closed".to_string());
        }
        let response: Value =
            serde_json::from_str(self.buf.trim()).map_err(|e| format!("decode response: {e}"))?;
        if response.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!("refused: {}", self.buf.trim()));
        }
        Ok(response)
    }
}

/// One completed `submit → wait → result`.
pub struct OpRecord {
    pub op: ServeOp,
    /// Submit sent → result line received.
    pub latency_ms: f64,
    /// The served report with clocks and provenance reset.
    pub report: String,
    pub cache_hit: bool,
    pub coalesced: bool,
    pub optimizer_evaluations: usize,
    pub approx_ratio: f64,
    /// The shard the coordinator placed the job on (cluster tier).
    pub shard: Option<String>,
}

#[derive(Default)]
pub struct ServeRun {
    pub ops: Vec<OpRecord>,
    pub failures: Vec<String>,
    /// From the first submit to the last result line.
    pub elapsed_s: f64,
}

impl ServeRun {
    pub fn attempted(&self) -> usize {
        self.ops.len() + self.failures.len()
    }

    pub fn latencies_ms(&self, kind: OpKind) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|r| r.op.kind == kind)
            .map(|r| r.latency_ms)
            .collect()
    }
}

struct Lane {
    client: Client,
    stream: OpStream,
    /// Ops this lane has started, for span ids.
    started: u64,
    /// A job this lane completed, for the status round-trip probe.
    known_job: u64,
}

impl Lane {
    fn run_op(&mut self, lane: u64, op: ServeOp, tracer: &mut Tracer) -> Res<OpRecord> {
        let op_id = (lane << 32) | self.started;
        self.started += 1;
        let submit = Workload::ServeDirect.job(op.job_seed).submit_line();
        let t0 = Instant::now();
        let accepted = self.client.request(&submit)?;
        let job = accepted
            .get("job")
            .and_then(Value::as_u64)
            .ok_or("submit reply carries no job id")?;
        let t1 = Instant::now();
        self.client
            .request(&format!("{{\"cmd\":\"wait\",\"job\":{job}}}"))?;
        let t2 = Instant::now();
        let reply = self
            .client
            .request(&format!("{{\"cmd\":\"result\",\"job\":{job}}}"))?;
        let t3 = Instant::now();
        if tracer.enabled() {
            let parent = tracer.reserve();
            tracer.record(op_id, Some(parent), "submit", t0, t1);
            tracer.record(op_id, Some(parent), "wait", t1, t2);
            tracer.record(op_id, Some(parent), "result", t2, t3);
            tracer.close(parent, op_id, None, "op", t0, t3);
        }
        self.known_job = job;
        if let Some(error) = reply.get("error") {
            return Err(format!("job {job} failed: {error:?}"));
        }
        let report: SearchReport = reply
            .get("report")
            .ok_or_else(|| format!("job {job}: result without a report"))
            .and_then(|v| serde_json::from_value(v).map_err(|e| format!("decode report: {e}")))?;
        let flag = |name: &str| reply.get(name).and_then(Value::as_bool).unwrap_or(false);
        Ok(OpRecord {
            op,
            latency_ms: (t3 - t0).as_secs_f64() * 1e3,
            report: report.without_timings().to_json(),
            cache_hit: flag("cache_hit"),
            coalesced: flag("coalesced"),
            optimizer_evaluations: report.optimizer_evaluations,
            approx_ratio: report.best_approx_ratio,
            shard: accepted
                .get("shard")
                .and_then(Value::as_str)
                .map(str::to_string),
        })
    }
}

/// A running tier with its connected clients, warmed up and ready for a
/// timed region.
pub struct Session {
    lanes: Vec<Lane>,
    pub fleet: Fleet,
}

impl Session {
    /// Set-up as a user of the system pays it: launch the tier, connect
    /// the clients, and run a few ops so that the first timed op is not
    /// the first op the processes ever served.
    pub fn open(qas: &Path, base: &Path, tier: Tier, run_seed: u64) -> Res<Session> {
        let fleet = Fleet::launch(qas, base, tier)?;
        let mut lanes = Vec::new();
        let mut off = Tracer::new(Instant::now(), false, 0);
        for lane in 0..CLIENTS as u64 {
            let mut l = Lane {
                client: Client::connect(fleet.addr())?,
                stream: OpStream::new(run_seed, Domain::Setup, lane),
                started: 0,
                known_job: 0,
            };
            for _ in 0..WARMUP_OPS {
                let op = l.stream.next().expect("op streams are endless");
                l.run_op(lane, op, &mut off)
                    .map_err(|e| format!("warm-up op: {e}"))?;
            }
            l.stream = OpStream::new(run_seed, Domain::Timed, lane);
            l.started = 0;
            lanes.push(l);
        }
        Ok(Session { lanes, fleet })
    }

    /// Each client runs its op stream for `seconds`; an op in flight at
    /// the deadline is finished and counted. Spans are recorded when
    /// `traced`, against `origin`.
    pub fn run(&mut self, seconds: f64, traced: bool, origin: Instant) -> (ServeRun, Vec<Span>) {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let per_lane: Vec<(ServeRun, Vec<Span>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .lanes
                .iter_mut()
                .enumerate()
                .map(|(i, lane)| {
                    scope.spawn(move || {
                        let mut tracer = Tracer::new(origin, traced, i as u32 + 1);
                        let mut run = ServeRun::default();
                        while Instant::now() < deadline {
                            let op = lane.stream.next().expect("op streams are endless");
                            match lane.run_op(i as u64, op, &mut tracer) {
                                Ok(record) => {
                                    let think = THINK_SHARE * op.think * record.latency_ms / 1e3;
                                    run.ops.push(record);
                                    std::thread::sleep(Duration::from_secs_f64(think));
                                }
                                Err(e) => {
                                    run.failures.push(format!("client {i}: {e}"));
                                    // A broken connection fails fast; do not
                                    // spin on it for the whole run.
                                    if run.failures.len() > 100 {
                                        break;
                                    }
                                }
                            }
                        }
                        (run, tracer.into_spans())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads do not panic"))
                .collect()
        });
        let mut total = ServeRun {
            elapsed_s: start.elapsed().as_secs_f64(),
            ..ServeRun::default()
        };
        let mut spans = Vec::new();
        for (run, lane_spans) in per_lane {
            total.ops.extend(run.ops);
            total.failures.extend(run.failures);
            spans.extend(lane_spans);
        }
        (total, spans)
    }

    /// Round-trip times, in microseconds, of `count` `status` requests on
    /// an idle connection: the floor under every request of an op.
    pub fn status_rtts_us(&mut self, count: usize) -> Res<Vec<f64>> {
        let lane = &mut self.lanes[0];
        let line = format!("{{\"cmd\":\"status\",\"job\":{}}}", lane.known_job);
        (0..count)
            .map(|_| {
                let t = Instant::now();
                lane.client.request(&line)?;
                Ok(t.elapsed().as_secs_f64() * 1e6)
            })
            .collect()
    }

    /// The front door's `stats` payload.
    pub fn stats(&mut self) -> Res<Value> {
        let reply = self.lanes[0].client.request(r#"{"cmd":"stats"}"#)?;
        reply
            .get("stats")
            .cloned()
            .ok_or_else(|| "stats reply without stats".to_string())
    }

    /// Close the clients and shut the tier down.
    pub fn close(self) -> Res<()> {
        drop(self.lanes);
        self.fleet.shutdown()
    }
}
