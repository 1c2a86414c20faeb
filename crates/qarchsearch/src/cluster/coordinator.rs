//! The fleet executor — content-keyed placement, completion watching,
//! heartbeat health checks and checkpoint migration off dead shards — and
//! the [`Coordinator`] handle over the [`JobServer`] it runs in (see the
//! [cluster overview](crate::cluster)).
//!
//! The executor places a job on the shard its content key routes to and
//! keeps the placement (shard, shard-local id, migration count) in the
//! job's record; the job holds no thread here. It learns completions
//! instead of polling for them: each shard has one **completion watcher**,
//! a thread that blocks in the shard's `wait_any` on its placed jobs that
//! have not ended here (and until its completion count moves, so a job
//! placed meanwhile is listed next round). Each `done` entry
//! ([`Reply::Ended`]) carries the shard's status and the outcome as its
//! journal serializes it, and the watcher ends the job through the same
//! `finish` a local job ends in. A shard's Cancelled ends a job only when
//! the coordinator passed its `cancel` on: otherwise the shard is shutting
//! down and suspended the job, which stays in flight so that a restart in
//! place (the shard replays its journal; the placement stays valid) or a
//! migration after its death verdict finishes it.
//!
//! Lock discipline: the registry mutex is never held across network I/O.
//! Each shard has three connections, so no request waits behind another's
//! round trip: one for placement and the verbs that ask a shard (`cancel`,
//! `status`, `events`, `stats`), one for the heartbeat, and the watcher's;
//! threads and connections grow with the shards, not the jobs. Shard
//! liveness metadata lives in its own short-hold mutex so placement never
//! blocks behind a timing-out connect. Order: a shard's request connection
//! or watcher socket, then the registry, then liveness metadata.

use crate::cache::{rendezvous_route, spec_cache_key};
use crate::cluster::admission::AdmissionStats;
use crate::cluster::shard::{ShardClient, ShardEndpoint};
use crate::error::SearchError;
use crate::events::SearchEvent;
use crate::fault::{site, FaultContext, FaultInjector};
use crate::search::SearchOutcome;
use crate::server::{self, Ended, JobRecord, JobServerConfig, ServerInner, ServerOptions};
use crate::server::{JobId, JobServer, JobSpec, JobState, JobStatus, Reply};
use crate::session::SearchCheckpoint;
use crate::store::{self, ReplayedState};
use crate::sync::lock_recover;
use serde::Serialize;
use serde_json::{json, Value};
use std::collections::HashMap;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use crate::cluster::admission::AdmissionConfig;

/// Tuning of a [`Coordinator`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The shard fleet (at least one; at least one must be reachable at
    /// start).
    pub shards: Vec<ShardEndpoint>,
    /// Admission gates at the cluster edge.
    pub admission: AdmissionConfig,
    /// TCP connect timeout per shard attempt.
    pub connect_timeout_ms: u64,
    /// Read/write timeout of one shard request (a completion watcher's
    /// blocking `wait_any` has no read timeout).
    pub request_timeout_ms: u64,
    /// Heartbeat period: every shard is pinged (`stats`) this often. A
    /// completion watcher whose connection failed reconnects once per
    /// period while its shard is alive.
    pub heartbeat_ms: u64,
    /// Consecutive failed contacts before a shard is declared dead and
    /// its jobs are migrated.
    pub heartbeat_misses: u32,
    /// Armed chaos plan for the coordinator's own sites
    /// (`coordinator.submit`, `coordinator.migrate`; inert in release
    /// builds like every [`crate::fault`] plan).
    pub faults: Option<Arc<FaultInjector>>,
}

impl ClusterConfig {
    /// A config with defaults tuned for same-host shard fleets.
    pub fn new(shards: Vec<ShardEndpoint>) -> ClusterConfig {
        ClusterConfig {
            shards,
            admission: AdmissionConfig::default(),
            connect_timeout_ms: 1_000,
            request_timeout_ms: 5_000,
            heartbeat_ms: 250,
            heartbeat_misses: 3,
            faults: None,
        }
    }
}

/// What [`Coordinator::submit`] accepted: the coordinator-scoped id plus
/// the placement facts a client sees in the response envelope.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Coordinator-scoped job id (shard-local ids never leak to clients).
    pub id: JobId,
    /// Address of the shard the job was placed on.
    pub shard: String,
    /// Post-submit state (a shard-side cache hit is born `Completed`).
    pub state: JobState,
    /// Served from the owning shard's result cache.
    pub cache_hit: bool,
    /// Coalesced onto an identical in-flight execution on that shard.
    pub coalesced: bool,
}

/// One shard's health as the coordinator sees it.
#[derive(Debug, Clone, Serialize)]
pub struct ShardSnapshot {
    /// The shard's address.
    pub addr: String,
    /// Whether the shard is currently considered live.
    pub alive: bool,
    /// The shard's self-reported `--shard-id`, once heard.
    pub shard_id: Option<String>,
    /// Restarts detected via `uptime_secs` going backwards.
    pub restarts: u64,
    /// Consecutive failed contacts (resets on success).
    pub consecutive_misses: u32,
    /// The shard's last reported `stats` payload.
    pub stats: Option<Value>,
}

/// Cluster-wide aggregate statistics (`{"cmd":"stats"}` at the
/// coordinator's front door).
#[derive(Debug, Clone, Serialize)]
pub struct ClusterStats {
    /// Seconds since the coordinator started.
    pub uptime_secs: f64,
    /// The coordinator crate's version.
    pub version: String,
    /// Configured shard count.
    pub shards_total: usize,
    /// Shards currently considered live.
    pub shards_alive: usize,
    /// Job records the coordinator keeps (at most the retention cap of
    /// ended ones, plus every job in flight).
    pub jobs_tracked: usize,
    /// Tracked jobs that have not ended.
    pub jobs_inflight: usize,
    /// Jobs re-submitted to a surviving shard after a shard death.
    pub migrations: u64,
    /// Terminal results adopted out of dead shards' journals.
    pub results_recovered: u64,
    /// Admission-gate decision counters.
    pub admission: AdmissionStats,
    /// Per-shard health and last stats.
    pub shards: Vec<ShardSnapshot>,
}

/// Short-hold liveness metadata, deliberately outside the client mutex:
/// placement reads this without ever waiting behind a timing-out connect.
struct ShardMeta {
    alive: bool,
    misses: u32,
    shard_id: Option<String>,
    last_uptime_secs: Option<f64>,
    restarts: u64,
    last_stats: Option<Value>,
}

/// One shard's connections and liveness.
struct ShardSlot {
    /// Placement and the requests verbs make on clients' behalf.
    proxy: Mutex<ShardClient>,
    /// The heartbeat's `stats` and `jobs` requests.
    probe: Mutex<ShardClient>,
    /// A second handle to the completion watcher's connection, so a death
    /// verdict or shutdown can unblock its `wait_any`.
    watcher: Mutex<Option<TcpStream>>,
    meta: Mutex<ShardMeta>,
}

/// Where the fleet placed a job; kept in the job's record.
pub(crate) struct Placement {
    /// Index of the shard that holds (or last held) the job.
    pub(crate) shard: usize,
    /// The job's id on that shard; `None` once no shard holds it for the
    /// coordinator (its result was adopted from a dead shard's journal, or
    /// its shard died after it ended).
    pub(crate) shard_job: Option<u64>,
    /// Times the job moved. Also the placement epoch: a completion watcher
    /// ends the job only while this still equals the count it listed the
    /// job under.
    pub(crate) migrations: u32,
    /// The coordinator passed a `cancel` on to the current placement: only
    /// then is the shard's Cancelled the job's own end.
    pub(crate) cancel_requested: bool,
    /// Events the shard has recorded for the job, as it last reported.
    pub(crate) shard_events: usize,
    /// The routing hash of the job's content key.
    key_hash: u64,
}

impl Placement {
    fn new(placed: &Placed<'_>, key_hash: u64, migrations: u32) -> Placement {
        Placement {
            shard: placed.shard,
            shard_job: Some(placed.shard_job),
            migrations,
            cancel_requested: false,
            shard_events: 0,
            key_hash,
        }
    }

    /// The shard holding the job and the job's id there, while one does.
    fn holder(&self) -> Option<(usize, u64)> {
        Some((self.shard, self.shard_job?))
    }
}

/// The fleet executor: shard connections and liveness, and the migration
/// counters. It lives in its [`JobServer`], whose shared state its threads
/// and methods are handed.
pub(crate) struct Fleet {
    config: ClusterConfig,
    shards: Vec<ShardSlot>,
    started: Instant,
    migrations: AtomicU64,
    results_recovered: AtomicU64,
    faults: Option<FaultContext>,
}

/// The cluster front door: a [`JobServer`] whose executor is the shard
/// fleet; see the [module docs](self).
#[derive(Debug)]
pub struct Coordinator {
    server: JobServer,
}

/// A submission a shard accepted. Its proxy connection stays locked until
/// the job is registered, and a completion watcher takes that lock before
/// it lists: it never misses a job that ended before it was registered.
struct Placed<'a> {
    shard: usize,
    shard_job: u64,
    state: JobState,
    cache_hit: bool,
    coalesced: bool,
    _proxy: MutexGuard<'a, ShardClient>,
}

/// What one placement attempt concluded.
enum PlaceError {
    /// The target shard's queue is full — retry within the bounded wait.
    QueueFull,
    /// No shard was reachable (or none is alive) — retry within the
    /// bounded wait; shards may be restarting.
    Unreachable(SearchError),
    /// The shard rejected the spec itself — retrying cannot help.
    Fatal(SearchError),
}

/// A placed job to move off a dead (or amnesiac) shard.
struct Ticket {
    id: u64,
    shard_job: u64,
    spec: Option<JobSpec>,
    key_hash: u64,
    last_state: JobState,
}

impl Coordinator {
    /// Connect to the shard fleet and start the heartbeat and the
    /// completion watchers. Fails when no shard is reachable (a cluster
    /// with zero live shards cannot serve).
    pub fn start(config: ClusterConfig) -> Result<Coordinator, SearchError> {
        if config.shards.is_empty() {
            return Err(SearchError::InvalidConfig {
                message: "cluster config needs at least one shard".to_string(),
            });
        }
        let admission = config.admission.clone();
        let fleet = Fleet::new(config);
        for idx in 0..fleet.shards.len() {
            fleet.probe(idx);
        }
        if fleet.alive_shards().is_empty() {
            let addrs: Vec<&str> = fleet
                .config
                .shards
                .iter()
                .map(|s| s.addr.as_str())
                .collect();
            return Err(SearchError::Cluster {
                message: format!("no shard reachable at start (tried {})", addrs.join(", ")),
            });
        }
        // The shards' caches already dedupe: with none here, `cache_hit`
        // and `coalesced` stay the shards' own answers.
        let options = ServerOptions {
            cache: None,
            ..ServerOptions::default()
        };
        let config = JobServerConfig::default();
        let server = JobServer::launch_with(config, options, admission, Some(fleet))?;
        Ok(Coordinator { server })
    }

    /// The job server the fleet runs in: `qas coordinator` serves the
    /// protocol from it, exactly as `qas serve` does from its own. Its
    /// [`JobServer::begin_shutdown`] makes every blocked wait err at once
    /// and closes the completion watchers' connections, so a front door
    /// that calls it first is not held up by a connection blocked in
    /// `wait`.
    pub fn server(&self) -> &JobServer {
        &self.server
    }

    fn fleet(&self) -> &Fleet {
        fleet(&self.server.inner)
    }

    /// Submit a job for `tenant` (`None` = anonymous, quota-exempt).
    ///
    /// Order of gates: spec validation, admission, then content-keyed
    /// placement with a bounded wait — while every live shard's queue is
    /// full the submission retries for up to `admission.max_wait_ms`
    /// before rejecting with [`SearchError::AdmissionDenied`].
    pub fn submit(&self, spec: JobSpec, tenant: Option<String>) -> Result<Submission, SearchError> {
        let id = self.server.submit_as(spec, None, tenant)?;
        let reply = self.server.reply(Reply::Submitted(id))?;
        let flag = |key: &str| reply.get(key).and_then(Value::as_bool) == Some(true);
        Ok(Submission {
            id,
            shard: reply
                .get("shard")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            state: reply
                .get("state")
                .and_then(|v| serde_json::from_value(v).ok())
                .unwrap_or(JobState::Queued),
            cache_hit: flag("cache_hit"),
            coalesced: flag("coalesced"),
        })
    }

    /// The job's event stream: the coordinator's own events
    /// ([`SearchEvent::Migrated`]) followed by the owning shard's. A
    /// migration resets the shard-side stream exactly like a single-node
    /// restart does (a fresh `Started` at the resume depth), so cursors
    /// obtained before a migration remain monotonic but may skip
    /// re-narrated prefixes.
    pub fn events(&self, id: JobId, since: usize) -> Result<(Vec<Value>, usize), SearchError> {
        let (events, next) = self.server.events_since(id, since)?;
        Ok((events.iter().map(|event| json!(event)).collect(), next))
    }

    /// The result envelope ([`Reply::Result`]), answered from the job's
    /// record here.
    pub fn result(&self, id: JobId) -> Result<Value, SearchError> {
        self.server.reply(Reply::Result(id))
    }

    /// Block until the job has ended and return the envelope
    /// [`Coordinator::result`] then returns. The wait follows the job
    /// across migrations; it errs once shutdown has begun.
    pub fn wait(&self, id: JobId) -> Result<Value, SearchError> {
        let _ = self.server.wait(id)?;
        self.result(id)
    }

    /// Cooperative cancel, passed on to the job's shard (`false` for
    /// unknown or ended jobs).
    pub fn cancel(&self, id: JobId) -> Result<bool, SearchError> {
        Ok(self.server.cancel(id))
    }

    /// Drop an ended job's record.
    pub fn forget(&self, id: JobId) -> Result<bool, SearchError> {
        Ok(self.server.forget(id))
    }

    /// Cluster-wide aggregate stats; refreshes live shards' stats first.
    pub fn stats(&self) -> ClusterStats {
        self.fleet().stats(&self.server.inner)
    }

    /// Total jobs re-submitted after shard deaths so far.
    pub fn migrations(&self) -> u64 {
        self.fleet().migrations.load(Ordering::Relaxed)
    }

    /// Address of the shard currently holding `id` (`None` when unknown or
    /// when no shard holds it any more).
    pub fn shard_of(&self, id: JobId) -> Option<String> {
        let registry = lock_recover(&self.server.inner.registry);
        let placed = registry.jobs.get(&id.0)?.placement.as_ref()?;
        placed.shard_job?;
        Some(self.fleet().addr_of(placed.shard).to_string())
    }

    /// Stop the heartbeat and the completion watchers, and disconnect.
    /// With `shutdown_shards` the coordinator also sends each shard a
    /// best-effort `shutdown`.
    pub fn shutdown(self, shutdown_shards: bool) {
        let inner = Arc::clone(&self.server.inner);
        self.server.shutdown();
        if shutdown_shards {
            let fleet = fleet(&inner);
            for idx in 0..fleet.shards.len() {
                let _ = fleet.shard_request(idx, &json!({ "cmd": "shutdown" }));
            }
        }
    }
}

/// The fleet a fleet server runs.
fn fleet(inner: &ServerInner) -> &Fleet {
    inner.fleet.as_ref().expect("a fleet server runs a fleet")
}

/// Whether the server has begun shutting down.
fn stopping(inner: &ServerInner) -> bool {
    lock_recover(&inner.registry).shutdown
}

/// Sleep one heartbeat period, or less if the server stops.
fn pause(inner: &ServerInner) {
    let period = Duration::from_millis(fleet(inner).config.heartbeat_ms.max(10));
    let registry = lock_recover(&inner.registry);
    let _ = inner
        .done_cv
        .wait_timeout_while(registry, period, |r| !r.shutdown);
}

/// Fold what a shard reports of a placed job into its record: its state
/// (never back from a terminal one), retries, progress and counters.
/// Nothing changes once the job has ended here. A Cancelled the
/// coordinator did not ask for is the shard suspending the job while it
/// shuts down, not an end: it changes nothing either, and is the one case
/// that returns `false`.
fn absorb(record: &mut JobRecord, status: &JobStatus) -> bool {
    let Some(placed) = record.placement.as_mut() else {
        return true;
    };
    if status.state == JobState::Cancelled && !placed.cancel_requested {
        return false;
    }
    if record.result.is_none() {
        placed.shard_events = status.events_recorded;
        if !record.state.is_terminal() {
            record.state = status.state.clone();
        }
        record.retries = status.retries;
        record.progress = status.progress.clone();
        record.cache_hit = status.cache_hit;
        record.coalesced = status.coalesced;
    }
    true
}

fn heartbeat_loop(inner: Arc<ServerInner>) {
    let fleet = fleet(&inner);
    while !stopping(&inner) {
        for idx in 0..fleet.shards.len() {
            if stopping(&inner) {
                return;
            }
            if fleet.probe(idx) {
                fleet.close_watcher(idx);
                fleet.migrate_dead_shard(&inner, idx);
            }
        }
        fleet.refresh_tracked_jobs(&inner);
        pause(&inner);
    }
}

/// Shard `idx`'s completion watcher: list the shard's placed jobs that
/// have not ended here, block in its `wait_any` on them, and end what it
/// reports. A job the shard reports suspended is left out until the
/// connection is re-established; a failed connection is re-established
/// once per heartbeat period while the shard is alive.
fn watch_shard(inner: Arc<ServerInner>, idx: usize) {
    let fleet = fleet(&inner);
    let mut client = ShardClient::new(
        fleet.addr_of(idx),
        Duration::from_millis(fleet.config.connect_timeout_ms.max(1)),
        Duration::from_millis(fleet.config.request_timeout_ms.max(1)),
    )
    .without_read_timeout();
    let mut since = 0;
    let mut suspended: Vec<(u64, u32)> = Vec::new();
    while !stopping(&inner) {
        if !client.is_connected() {
            (since, suspended) = (0, Vec::new());
            let socket = fleet.is_alive(idx).then(|| client.socket().ok()).flatten();
            // Published under the lock `close_watcher` takes after a
            // verdict: a connection is either closed by it or opened
            // after it.
            let mut watcher = lock_recover(&fleet.shards[idx].watcher);
            if socket.is_none() || stopping(&inner) || !fleet.is_alive(idx) {
                drop(watcher);
                client.disconnect();
                pause(&inner);
                continue;
            }
            *watcher = socket;
        }
        // A placement in progress here registers its job first (`Placed`).
        drop(lock_recover(&fleet.shards[idx].proxy));
        // (id, shard job, epoch) of each job the shard still owes an end.
        let listed: Vec<(u64, u64, u32)> = lock_recover(&inner.registry)
            .jobs
            .iter()
            .filter(|(_, record)| record.result.is_none())
            .filter_map(|(&id, record)| {
                let placed = record.placement.as_ref().filter(|p| p.shard == idx)?;
                let (epoch, (_, shard_job)) = (placed.migrations, placed.holder()?);
                (!suspended.contains(&(id, epoch))).then_some((id, shard_job, epoch))
            })
            .collect();
        let jobs: Vec<u64> = listed.iter().map(|&(_, shard_job, _)| shard_job).collect();
        let request = json!({ "cmd": "wait_any", "jobs": jobs, "since": since });
        let Ok(response) = client.request(&request) else {
            pause(&inner);
            continue;
        };
        let next = response.get("since").and_then(Value::as_u64);
        let done = response.get("done").and_then(Value::as_array);
        for entry in done.into_iter().flatten() {
            let Ok(ended) = serde_json::from_value::<Ended>(entry) else {
                continue;
            };
            let Some(&(id, _, epoch)) = listed.iter().find(|p| p.1 == ended.status.id) else {
                continue;
            };
            if !fleet.deliver(&inner, id, idx, epoch, ended) {
                suspended.push((id, epoch));
            }
        }
        if done.is_none_or(Vec::is_empty) && next.is_none_or(|next| next == since) {
            // Nothing moved: the shard is shutting down (or refused).
            pause(&inner);
        }
        since = next.unwrap_or(since);
    }
}

impl Fleet {
    fn new(config: ClusterConfig) -> Fleet {
        let connect = Duration::from_millis(config.connect_timeout_ms.max(1));
        let io = Duration::from_millis(config.request_timeout_ms.max(1));
        let client = |addr: &str| Mutex::new(ShardClient::new(addr, connect, io));
        let shards = config
            .shards
            .iter()
            .map(|endpoint| ShardSlot {
                proxy: client(&endpoint.addr),
                probe: client(&endpoint.addr),
                watcher: Mutex::new(None),
                meta: Mutex::new(ShardMeta {
                    alive: false,
                    misses: 0,
                    shard_id: None,
                    last_uptime_secs: None,
                    restarts: 0,
                    last_stats: None,
                }),
            })
            .collect();
        Fleet {
            faults: config
                .faults
                .clone()
                .map(|plan| FaultContext::new(plan, None)),
            config,
            shards,
            started: Instant::now(),
            migrations: AtomicU64::new(0),
            results_recovered: AtomicU64::new(0),
        }
    }

    /// Start the heartbeat and one completion watcher per shard.
    pub(crate) fn spawn(inner: &Arc<ServerInner>) -> Vec<JoinHandle<()>> {
        let spawn = |name: &str, body: Box<dyn FnOnce() + Send>| {
            std::thread::Builder::new()
                .name(name.to_string())
                .spawn(body)
                .expect("spawn coordinator thread")
        };
        let heartbeat = Arc::clone(inner);
        let mut threads = vec![spawn(
            "qas-coordinator-heartbeat",
            Box::new(move || heartbeat_loop(heartbeat)),
        )];
        for idx in 0..fleet(inner).shards.len() {
            let inner = Arc::clone(inner);
            threads.push(spawn(
                "qas-coordinator-watch",
                Box::new(move || watch_shard(inner, idx)),
            ));
        }
        threads
    }

    pub(crate) fn addr_of(&self, idx: usize) -> &str {
        &self.config.shards[idx].addr
    }

    fn alive_shards(&self) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&i| self.is_alive(i))
            .collect()
    }

    fn is_alive(&self, idx: usize) -> bool {
        lock_recover(&self.shards[idx].meta).alive
    }

    /// One request to shard `idx` on its request connection.
    fn shard_request(&self, idx: usize, request: &Value) -> Result<Value, SearchError> {
        self.contact(idx, &mut lock_recover(&self.shards[idx].proxy), request)
    }

    /// [`Fleet::shard_request`], with a shard's `ok:false` as an error.
    fn request_ok(&self, idx: usize, request: &Value) -> Result<Value, SearchError> {
        self.accepted(idx, self.shard_request(idx, request)?)
    }

    /// Shard `idx`'s `response`, or its `ok:false` as an error.
    fn accepted(&self, idx: usize, response: Value) -> Result<Value, SearchError> {
        if response.get("ok").and_then(Value::as_bool) == Some(true) {
            return Ok(response);
        }
        let message = response.get("error").and_then(Value::as_str);
        let message = message.unwrap_or("malformed shard response");
        Err(SearchError::Cluster {
            message: format!("shard {}: {message}", self.addr_of(idx)),
        })
    }

    /// One request on `client`; bumps/clears shard `idx`'s miss counter.
    /// Death is only ever declared by the heartbeat, so a burst of failing
    /// client requests accelerates detection without racing migration.
    fn contact(
        &self,
        idx: usize,
        client: &mut ShardClient,
        request: &Value,
    ) -> Result<Value, SearchError> {
        let outcome = client.request(request);
        let mut meta = lock_recover(&self.shards[idx].meta);
        match &outcome {
            Ok(_) => meta.misses = 0,
            Err(_) => meta.misses = meta.misses.saturating_add(1),
        }
        outcome
    }

    // -- the verbs that ask a shard ------------------------------------------

    /// Place `spec` (resuming from `checkpoint`) on the shard its content
    /// key routes to, and admit its record. The executor's `submit`.
    pub(crate) fn submit(
        &self,
        inner: &ServerInner,
        spec: JobSpec,
        checkpoint: Option<SearchCheckpoint>,
        tenant: Option<String>,
    ) -> Result<JobId, SearchError> {
        if let Some(faults) = &self.faults {
            faults.trip(site::COORDINATOR_SUBMIT)?;
        }
        let key_hash = spec_cache_key(&spec)?.hash;
        let poll_ms = self.config.admission.retry_poll_ms.max(1);
        let max_wait = Duration::from_millis(self.config.admission.max_wait_ms);
        let placed = match self.place_within(key_hash, &spec, checkpoint.as_ref(), max_wait) {
            Ok(placed) => placed,
            Err(PlaceError::QueueFull) => {
                inner.admission.note_backpressure_rejection();
                return Err(SearchError::AdmissionDenied {
                    reason: "cluster queue is full".to_string(),
                    retry_after_ms: poll_ms * 4,
                });
            }
            Err(PlaceError::Unreachable(e) | PlaceError::Fatal(e)) => return Err(e),
        };
        let mut record = JobRecord::queued(&spec, tenant);
        record.state = placed.state.clone();
        record.cache_hit = placed.cache_hit;
        record.coalesced = placed.coalesced;
        record.placement = Some(Placement::new(&placed, key_hash, 0));
        // Registered before `placed` unlocks the shard's connection.
        let mut registry = lock_recover(&inner.registry);
        let id = server::admit(inner, &mut registry, &spec, record);
        if let Some(record) = registry.jobs.get_mut(&id) {
            record.spec = Some(spec);
        }
        Ok(JobId(id))
    }

    /// Pass a `cancel` on to the shard holding a job; its verdict.
    pub(crate) fn cancel(&self, (shard, shard_job): (usize, Option<u64>)) -> bool {
        let Some(job) = shard_job else {
            return false;
        };
        let response = self.request_ok(shard, &json!({ "cmd": "cancel", "job": job }));
        response.is_ok_and(|r| r.get("cancelled").and_then(Value::as_bool) == Some(true))
    }

    /// The shard holding job `id` while the job is in flight there.
    fn live_placement(
        &self,
        inner: &ServerInner,
        id: u64,
    ) -> Result<Option<(usize, u64)>, SearchError> {
        let registry = lock_recover(&inner.registry);
        let record = registry
            .jobs
            .get(&id)
            .ok_or(SearchError::UnknownJob { id })?;
        let placed = record
            .placement
            .as_ref()
            .filter(|_| record.result.is_none());
        Ok(placed.and_then(Placement::holder))
    }

    /// Ask the shard of job `id`, if the job is in flight there, for its
    /// state and progress, and fold them into the job's record.
    pub(crate) fn refresh_status(&self, inner: &ServerInner, id: u64) -> Result<(), SearchError> {
        let Some((shard, shard_job)) = self.live_placement(inner, id)? else {
            return Ok(());
        };
        let response = self.request_ok(shard, &json!({ "cmd": "status", "job": shard_job }))?;
        let status: JobStatus = response
            .get("status")
            .and_then(|status| serde_json::from_value(status).ok())
            .ok_or_else(|| SearchError::Cluster {
                message: format!("shard {}: malformed status", self.addr_of(shard)),
            })?;
        let mut registry = lock_recover(&inner.registry);
        if let Some(record) = registry.jobs.get_mut(&id) {
            let holder = record.placement.as_ref().and_then(Placement::holder);
            if holder == Some((shard, shard_job)) {
                absorb(record, &status);
            }
        }
        Ok(())
    }

    /// The coordinator's own events of job `id` from `since`, followed by
    /// the stream of the shard holding it.
    pub(crate) fn events(
        &self,
        inner: &ServerInner,
        id: u64,
        since: usize,
    ) -> Result<(Vec<SearchEvent>, usize), SearchError> {
        let (own, holder) = {
            let registry = lock_recover(&inner.registry);
            let record = registry
                .jobs
                .get(&id)
                .ok_or(SearchError::UnknownJob { id })?;
            let holder = record.placement.as_ref().and_then(Placement::holder);
            (record.events.clone(), holder)
        };
        let mut shown = own.get(since..).unwrap_or(&[]).to_vec();
        let Some((shard, shard_job)) = holder else {
            return Ok((shown, own.len()));
        };
        let shard_since = since.saturating_sub(own.len());
        let request = json!({ "cmd": "events", "job": shard_job, "since": shard_since });
        let response = self.request_ok(shard, &request)?;
        let events: Vec<SearchEvent> = response
            .get("events")
            .map_or(Ok(Vec::new()), serde_json::from_value)
            .map_err(|e| SearchError::Cluster {
                message: format!("shard {}: events: {e}", self.addr_of(shard)),
            })?;
        let next = response.get("next").and_then(Value::as_u64).unwrap_or(0) as usize;
        shown.extend(events);
        Ok((shown, own.len() + next))
    }

    /// The cluster-wide aggregate; refreshes live shards' stats first.
    pub(crate) fn stats(&self, inner: &ServerInner) -> ClusterStats {
        for idx in self.alive_shards() {
            if let Ok(response) = self.shard_request(idx, &json!({ "cmd": "stats" })) {
                self.absorb_shard_stats(idx, response.get("stats").cloned());
            }
        }
        let shards: Vec<ShardSnapshot> = (0..self.shards.len())
            .map(|idx| {
                let meta = lock_recover(&self.shards[idx].meta);
                ShardSnapshot {
                    addr: self.addr_of(idx).to_string(),
                    alive: meta.alive,
                    shard_id: meta.shard_id.clone(),
                    restarts: meta.restarts,
                    consecutive_misses: meta.misses,
                    stats: meta.last_stats.clone(),
                }
            })
            .collect();
        let (jobs_tracked, jobs_inflight) = {
            let registry = lock_recover(&inner.registry);
            let inflight = registry
                .jobs
                .values()
                .filter(|r| r.result.is_none())
                .count();
            (registry.jobs.len(), inflight)
        };
        ClusterStats {
            uptime_secs: self.started.elapsed().as_secs_f64(),
            version: env!("CARGO_PKG_VERSION").to_string(),
            shards_total: self.shards.len(),
            shards_alive: shards.iter().filter(|s| s.alive).count(),
            jobs_tracked,
            jobs_inflight,
            migrations: self.migrations.load(Ordering::Relaxed),
            results_recovered: self.results_recovered.load(Ordering::Relaxed),
            admission: inner.admission.stats(),
            shards,
        }
    }

    fn absorb_shard_stats(&self, idx: usize, stats: Option<Value>) {
        let mut meta = lock_recover(&self.shards[idx].meta);
        let stats = stats.unwrap_or(Value::Null);
        if let Some(uptime) = stats.get("uptime_secs").and_then(Value::as_f64) {
            if meta
                .last_uptime_secs
                .is_some_and(|previous| uptime < previous)
            {
                meta.restarts += 1;
            }
            meta.last_uptime_secs = Some(uptime);
        }
        if let Some(shard_id) = stats.get("shard_id").and_then(Value::as_str) {
            meta.shard_id = Some(shard_id.to_string());
        }
        meta.last_stats = Some(stats);
    }

    // -- placement -----------------------------------------------------------

    /// Submit `spec` to the shard `key` routes to, retrying a full queue
    /// or an unreachable fleet every `retry_poll_ms` until `max_wait` has
    /// passed. A failure returns the last attempt's error.
    fn place_within(
        &self,
        key: u64,
        spec: &JobSpec,
        checkpoint: Option<&SearchCheckpoint>,
        max_wait: Duration,
    ) -> Result<Placed<'_>, PlaceError> {
        let request = json!({ "cmd": "submit_spec", "spec": spec, "checkpoint": checkpoint });
        let poll = Duration::from_millis(self.config.admission.retry_poll_ms.max(1));
        let started = Instant::now();
        loop {
            match self.try_place_once(key, &request) {
                Err(PlaceError::QueueFull | PlaceError::Unreachable(_))
                    if started.elapsed() < max_wait =>
                {
                    std::thread::sleep(poll)
                }
                outcome => return outcome,
            }
        }
    }

    /// One submission to the shard `key` routes to.
    fn try_place_once(&self, key: u64, request: &Value) -> Result<Placed<'_>, PlaceError> {
        let alive: Vec<u64> = self.alive_shards().into_iter().map(|i| i as u64).collect();
        let Some(target) = rendezvous_route(key, &alive).map(|t| t as usize) else {
            return Err(PlaceError::Unreachable(SearchError::Cluster {
                message: "no live shards".to_string(),
            }));
        };
        let mut proxy = lock_recover(&self.shards[target].proxy);
        let response = match self.contact(target, &mut proxy, request) {
            Ok(response) if response.get("queue_full").and_then(Value::as_bool) == Some(true) => {
                return Err(PlaceError::QueueFull)
            }
            Ok(response) => response,
            Err(e) => return Err(PlaceError::Unreachable(e)),
        };
        let response = self.accepted(target, response).map_err(PlaceError::Fatal)?;
        let Some(shard_job) = response.get("job").and_then(Value::as_u64) else {
            return Err(PlaceError::Fatal(SearchError::Cluster {
                message: format!(
                    "shard {} accepted a job without an id",
                    self.addr_of(target)
                ),
            }));
        };
        let flag = |key: &str| response.get(key).and_then(Value::as_bool) == Some(true);
        Ok(Placed {
            shard: target,
            shard_job,
            state: response
                .get("state")
                .and_then(|v| serde_json::from_value(v).ok())
                .unwrap_or(JobState::Queued),
            cache_hit: flag("cache_hit"),
            coalesced: flag("coalesced"),
            _proxy: proxy,
        })
    }

    // -- completion, health and migration ------------------------------------

    /// End job `id` with its shard's report of the end, if the report is
    /// for placement `epoch` on `shard` and the job is still in flight
    /// here. Returns `false`, and the watcher stops listing the job, for a
    /// suspension ([`absorb`]).
    fn deliver(
        &self,
        inner: &ServerInner,
        id: u64,
        shard: usize,
        epoch: u32,
        ended: Ended,
    ) -> bool {
        let mut registry = lock_recover(&inner.registry);
        let Some(record) = registry.jobs.get_mut(&id) else {
            return true;
        };
        let current = record
            .placement
            .as_ref()
            .is_some_and(|p| p.shard == shard && p.migrations == epoch);
        if !current || record.result.is_some() {
            return true;
        }
        if !absorb(record, &ended.status) {
            return false;
        }
        let result = match (ended.outcome, ended.error) {
            (Some(outcome), _) => Ok(outcome),
            (None, Some(error)) => Err(error),
            (None, None) => Err(SearchError::Cluster {
                message: format!(
                    "shard {} reported an end without a result",
                    self.addr_of(shard)
                ),
            }),
        };
        server::finish(
            inner,
            &mut registry,
            &[id],
            ended.status.state,
            &result,
            None,
        );
        server::notify_done(inner, registry);
        true
    }

    /// Ping shard `idx`, and flip its liveness. Returns whether this ping
    /// declared it dead (the miss threshold was crossed).
    fn probe(&self, idx: usize) -> bool {
        let request = json!({ "cmd": "stats" });
        match self.contact(idx, &mut lock_recover(&self.shards[idx].probe), &request) {
            Ok(response) => {
                self.absorb_shard_stats(idx, response.get("stats").cloned());
                let mut meta = lock_recover(&self.shards[idx].meta);
                meta.misses = 0;
                meta.alive = true;
                false
            }
            Err(_) => {
                // `contact` already bumped the miss counter.
                let mut meta = lock_recover(&self.shards[idx].meta);
                let dead = meta.alive && meta.misses >= self.config.heartbeat_misses.max(1);
                meta.alive &= !dead;
                dead
            }
        }
    }

    /// Shut down shard `idx`'s watcher connection: its blocked `wait_any`
    /// returns at once.
    fn close_watcher(&self, idx: usize) {
        if let Some(socket) = lock_recover(&self.shards[idx].watcher).take() {
            let _ = socket.shutdown(Shutdown::Both);
        }
    }

    pub(crate) fn close_watchers(&self) {
        (0..self.shards.len()).for_each(|idx| self.close_watcher(idx));
    }

    /// The jobs placed on shard `idx` that have not ended here and `keep`
    /// selects.
    fn tickets(
        &self,
        inner: &ServerInner,
        idx: usize,
        keep: fn(&JobRecord) -> bool,
    ) -> Vec<Ticket> {
        let registry = lock_recover(&inner.registry);
        let mut tickets: Vec<Ticket> = registry
            .jobs
            .iter()
            .filter(|(_, record)| record.result.is_none() && keep(record))
            .filter_map(|(&id, record)| {
                let placed = record.placement.as_ref().filter(|p| p.shard == idx)?;
                Some(Ticket {
                    id,
                    shard_job: placed.shard_job?,
                    spec: record.spec.clone(),
                    key_hash: placed.key_hash,
                    last_state: record.state.clone(),
                })
            })
            .collect();
        tickets.sort_unstable_by_key(|ticket| ticket.id);
        tickets
    }

    /// Compare each live shard's own job listing against the records:
    /// fold in states and progress, and re-submit placed jobs the shard no
    /// longer knows — a shard that restarted without a state dir comes
    /// back amnesiac.
    fn refresh_tracked_jobs(&self, inner: &ServerInner) {
        for idx in self.alive_shards() {
            let tracked = self.tickets(inner, idx, |record| !record.state.is_terminal());
            if tracked.is_empty() {
                continue;
            }
            let request = json!({ "cmd": "jobs" });
            let Ok(response) =
                self.contact(idx, &mut lock_recover(&self.shards[idx].probe), &request)
            else {
                continue;
            };
            let Some(listing) = response.get("jobs").and_then(Value::as_array) else {
                continue;
            };
            let listed: HashMap<u64, JobStatus> = listing
                .iter()
                .filter_map(|status| serde_json::from_value::<JobStatus>(status).ok())
                .map(|status| (status.id, status))
                .collect();
            let mut missing = Vec::new();
            let mut registry = lock_recover(&inner.registry);
            for ticket in tracked {
                let Some(record) = registry.jobs.get_mut(&ticket.id) else {
                    continue;
                };
                let holder = record.placement.as_ref().and_then(Placement::holder);
                if record.result.is_some() || holder != Some((idx, ticket.shard_job)) {
                    continue; // Ended or migrated concurrently.
                }
                match listed.get(&ticket.shard_job) {
                    Some(status) => {
                        absorb(record, status);
                    }
                    None => missing.push(ticket),
                }
            }
            drop(registry);
            if !missing.is_empty() {
                self.migrate_tickets(inner, idx, missing, None);
            }
        }
    }

    fn migrate_dead_shard(&self, inner: &ServerInner, dead: usize) {
        // Ended jobs keep their results here; no shard holds them now.
        for record in lock_recover(&inner.registry).jobs.values_mut() {
            if let Some(placed) = record.placement.as_mut().filter(|p| p.shard == dead) {
                if record.result.is_some() {
                    placed.shard_job = None;
                }
            }
        }
        let tickets = self.tickets(inner, dead, |_| true);
        if tickets.is_empty() {
            return;
        }
        // Post-mortem: replay the dead shard's journal read-only. The
        // journal is the shard's durable truth — terminal results are
        // adopted outright, and the latest checkpoints seed resumed
        // re-submissions.
        let replayed: Option<ReplayedState> = self.config.shards[dead]
            .state_dir
            .as_ref()
            .and_then(|dir| store::replay(&store::journal_path_in(dir)).ok());
        self.migrate_tickets(inner, dead, tickets, replayed.as_ref());
    }

    fn migrate_tickets(
        &self,
        inner: &ServerInner,
        from: usize,
        tickets: Vec<Ticket>,
        replayed: Option<&ReplayedState>,
    ) {
        for ticket in tickets {
            if let Some(faults) = &self.faults {
                if let Err(e) = faults.trip(site::COORDINATOR_MIGRATE) {
                    self.settle_here(inner, ticket.id, None, Err(e));
                    continue;
                }
            }
            let recovered = replayed.and_then(|state| state.jobs.get(&ticket.shard_job));
            if let Some(job) = recovered {
                if let Some(result) = &job.result {
                    // The journal holds the job's terminal result: adopt
                    // it — nothing re-runs, nothing is lost.
                    self.settle_here(inner, ticket.id, Some(job.state.clone()), result.clone());
                    continue;
                }
            }
            if ticket.last_state.is_terminal() && recovered.is_none() {
                // The shard reported this job finished, but the result died
                // with a journal-less shard. Re-running a cancelled or
                // failed job would change its meaning, so fail honestly.
                // (A job the journal holds without a result was suspended
                // by its shard's shutdown, not finished: it resumes below.)
                let message = format!(
                    "shard {} died holding the terminal result of a journal-less job",
                    self.addr_of(from)
                );
                self.settle_here(
                    inner,
                    ticket.id,
                    None,
                    Err(SearchError::Cluster { message }),
                );
                continue;
            }
            let checkpoint = recovered.and_then(|job| job.checkpoint.clone());
            self.resubmit(inner, from, ticket, checkpoint);
        }
    }

    /// Re-submit one job to a surviving shard, resuming from `checkpoint`
    /// when one was journaled.
    fn resubmit(
        &self,
        inner: &ServerInner,
        from: usize,
        ticket: Ticket,
        checkpoint: Option<SearchCheckpoint>,
    ) {
        let Some(spec) = &ticket.spec else {
            let message = format!("shard {} died holding a finished job", self.addr_of(from));
            return self.settle_here(
                inner,
                ticket.id,
                None,
                Err(SearchError::Cluster { message }),
            );
        };
        let max_wait = Duration::from_millis(self.config.admission.max_wait_ms.max(1));
        let placed = match self.place_within(ticket.key_hash, spec, checkpoint.as_ref(), max_wait) {
            Ok(placed) => placed,
            Err(PlaceError::QueueFull) => {
                let message = "every surviving shard's queue stayed full during migration";
                let error = SearchError::Cluster {
                    message: message.to_string(),
                };
                return self.settle_here(inner, ticket.id, None, Err(error));
            }
            Err(PlaceError::Unreachable(e) | PlaceError::Fatal(e)) => {
                return self.settle_here(inner, ticket.id, None, Err(e));
            }
        };
        let mut registry = lock_recover(&inner.registry);
        if let Some(record) = registry.jobs.get_mut(&ticket.id) {
            record.state = placed.state.clone();
            record.events.push(SearchEvent::Migrated {
                from: self.addr_of(from).to_string(),
                to: self.addr_of(placed.shard).to_string(),
                resumed: checkpoint.is_some(),
            });
            let migrations = record.placement.as_ref().map_or(0, |p| p.migrations) + 1;
            record.placement = Some(Placement::new(&placed, ticket.key_hash, migrations));
        }
        self.migrations.fetch_add(1, Ordering::Relaxed);
    }

    /// End a job here rather than on a shard: with the terminal state and
    /// result `adopted` from a dead shard's journal (counted in
    /// `results_recovered`), or, with `None`, as Failed because migration
    /// is impossible.
    fn settle_here(
        &self,
        inner: &ServerInner,
        id: u64,
        adopted: Option<JobState>,
        result: Result<SearchOutcome, SearchError>,
    ) {
        let recovered = adopted.is_some();
        let state = adopted.unwrap_or(JobState::Failed { panic: None });
        let mut registry = lock_recover(&inner.registry);
        let Some(record) = registry.jobs.get_mut(&id).filter(|r| r.result.is_none()) else {
            return;
        };
        if let Some(placed) = record.placement.as_mut() {
            placed.shard_job = None;
        }
        server::finish(inner, &mut registry, &[id], state, &result, None);
        server::notify_done(inner, registry);
        if recovered {
            self.results_recovered.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinator_refuses_empty_and_unreachable_fleets() {
        let err = Coordinator::start(ClusterConfig::new(Vec::new())).unwrap_err();
        assert!(matches!(err, SearchError::InvalidConfig { .. }));

        let port = {
            let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
            listener.local_addr().unwrap().port()
        };
        let mut config = ClusterConfig::new(vec![ShardEndpoint::new(format!("127.0.0.1:{port}"))]);
        config.connect_timeout_ms = 100;
        config.request_timeout_ms = 100;
        let err = Coordinator::start(config).unwrap_err();
        assert!(matches!(err, SearchError::Cluster { .. }), "{err:?}");
    }
}
