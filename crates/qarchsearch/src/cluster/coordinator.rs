//! The shard coordinator: content-keyed routing, heartbeat health
//! checks, checkpoint migration off dead shards, and request proxying.
//!
//! One [`Coordinator`] fronts N `qas serve --port` shards. Its client
//! surface mirrors the single-node protocol verbatim — the coordinator
//! is deliberately a *thin* layer whose only private state is the
//! coordinator-id → (shard, shard-job-id) mapping, per-job migration
//! overlays, and results adopted out of dead shards' journals. All
//! durable truth stays in the shards' own journals, which is what makes
//! two recovery paths compose without coordination:
//!
//! * a shard that **restarts before being declared dead** replays its
//!   own journal and resumes its jobs under the same shard-local ids —
//!   the coordinator's mapping is still valid and nothing moves;
//! * a shard **declared dead** (consecutive heartbeat misses) has its
//!   journal replayed read-only by the coordinator: journaled terminal
//!   results are adopted locally, incomplete jobs are re-submitted to a
//!   surviving shard from their last checkpoint (or from scratch when
//!   none was reached). Determinism makes both bit-identical to an
//!   undisturbed run.
//!
//! The coordinator learns completions instead of polling for them: each
//! shard has one **completion watcher**, a thread that blocks in the
//! shard's `wait_any` on its jobs still owed an envelope (and until its
//! completion count moves, so a job placed meanwhile is listed next round)
//! and delivers each stamped envelope into the registry, waking
//! [`Coordinator::wait`] through a condvar. A Completed, Failed or
//! TimedOut envelope is held (rendered) so `result` answers without a
//! shard round trip. A shard's Cancelled ends a job only when the
//! coordinator proxied its `cancel`: otherwise the shard is shutting down
//! and suspended the job, which stays in flight so that a restart in place
//! or a migration finishes it.
//!
//! Lock discipline: the job registry mutex is never held across network
//! I/O. Each shard has three connections, so no request waits behind
//! another's round trip: one for proxied client requests, one for the
//! heartbeat, and the watcher's; threads and connections grow with the
//! shards, not the jobs. Shard liveness metadata lives in its own
//! short-hold mutex so routing never blocks behind a timing-out connect.
//! Order: a shard's proxy connection or watcher socket, then the
//! registry, then liveness metadata.

use crate::cache::{rendezvous_route, spec_cache_key};
use crate::cluster::admission::{AdmissionControl, AdmissionStats};
use crate::cluster::shard::{ShardClient, ShardEndpoint};
use crate::error::SearchError;
use crate::events::SearchEvent;
use crate::fault::{site, FaultContext, FaultInjector};
use crate::report::SearchReport;
use crate::search::SearchOutcome;
use crate::server::{JobId, JobSpec, JobState};
use crate::session::SearchCheckpoint;
use crate::store::{self, ReplayedState};
use crate::sync::{lock_recover, wait_recover, wait_timeout_recover};
use serde::Serialize;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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
    /// Jobs the coordinator tracks (all states).
    pub jobs_tracked: usize,
    /// Tracked jobs not yet terminal.
    pub jobs_inflight: usize,
    /// Jobs re-submitted to a surviving shard after a shard death.
    pub migrations: u64,
    /// Terminal results adopted out of dead shards' journals.
    pub results_recovered: u64,
    /// Summed queue depth over the shards' last reported stats.
    pub queue_depth: u64,
    /// Summed result-cache hits over the shards' last reported stats.
    pub cache_hits: u64,
    /// Summed result-cache misses over the shards' last reported stats.
    pub cache_misses: u64,
    /// Summed coalesced submissions over the shards' last reported stats.
    pub cache_coalesced: u64,
    /// Admission-gate decision counters.
    pub admission: AdmissionStats,
    /// Per-shard health and last stats.
    pub shards: Vec<ShardSnapshot>,
}

/// Short-hold liveness metadata, deliberately outside the client mutex:
/// routing reads this without ever waiting behind a timing-out connect.
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
    /// Proxied client requests.
    proxy: Mutex<ShardClient>,
    /// The heartbeat's `stats` and `jobs` requests.
    probe: Mutex<ShardClient>,
    /// A second handle to the completion watcher's connection, so a death
    /// verdict or shutdown can unblock its `wait_any`.
    watcher: Mutex<Option<TcpStream>>,
    meta: Mutex<ShardMeta>,
}

struct ClusterJob {
    tenant: Option<String>,
    name: Option<String>,
    priority: i32,
    /// What a migration re-submits. Dropped once the job's envelope is
    /// held: nothing re-runs the job then, and the registry keeps every
    /// job until `forget`.
    spec: Option<JobSpec>,
    key_hash: u64,
    shard: usize,
    shard_job: u64,
    state: JobState,
    /// The tenant quota slot was returned (exactly once, on the first
    /// observed terminal transition).
    released: bool,
    /// Also the placement epoch: a completion watcher delivers only while
    /// this still equals the count it listed the job under.
    migrations: u32,
    /// Coordinator-side events ([`SearchEvent::Migrated`]) prepended to
    /// the owning shard's stream.
    overlay: Vec<SearchEvent>,
    /// A result held by the coordinator itself: adopted from a dead
    /// shard's journal, or a terminal migration failure.
    local: Option<Result<SearchOutcome, SearchError>>,
    /// The final envelope (its state [`holds`]) a completion watcher
    /// delivered, stamped and rendered: `wait` and `result` answer from it.
    held: Option<String>,
    /// The coordinator proxied a `cancel` to the current placement: only
    /// then is the shard's Cancelled the job's own end.
    cancel_requested: bool,
}

impl ClusterJob {
    /// Whether its shard's completion watcher still owes the job an
    /// envelope: it is not settled here, none is held yet, and it has not
    /// ended without one to hold (a Cancelled job's `result` is proxied).
    fn awaits_envelope(&self) -> bool {
        self.local.is_none()
            && self.held.is_none()
            && (holds(&self.state) || !self.state.is_terminal())
    }

    /// Whether the shard's `state` is a suspension rather than an end: a
    /// shard shutting down reports the jobs it suspends as Cancelled, and
    /// they resume on its restart or migrate after its death verdict.
    fn suspended(&self, state: &JobState) -> bool {
        *state == JobState::Cancelled && !self.cancel_requested
    }

    /// Fold an observed state in. A suspension is ignored, and so is any
    /// state after a terminal one: a listing or status the shard answered
    /// before the job ended must not reopen it. Returns the tenant whose
    /// quota slot the caller returns: `Some` only on the first terminal
    /// observation of a tenant's job.
    fn observe(&mut self, state: JobState) -> Option<String> {
        if self.state.is_terminal() || self.suspended(&state) {
            return None;
        }
        if state.is_terminal() {
            self.spec = None;
        }
        self.state = state;
        if self.state.is_terminal() && !self.released {
            self.released = true;
            self.tenant.clone()
        } else {
            None
        }
    }

    /// Settle the job here with `result` (it never runs again). Returns
    /// the tenant whose quota slot the caller returns, if not yet returned.
    fn settle(
        &mut self,
        state: JobState,
        result: Result<SearchOutcome, SearchError>,
    ) -> Option<String> {
        self.state = state;
        self.local = Some(result);
        self.spec = None;
        if self.released {
            None
        } else {
            self.released = true;
            self.tenant.clone()
        }
    }
}

/// Whether the coordinator holds a terminal envelope in `state`, so
/// `result` answers it without the shard: everything terminal but
/// Cancelled, whose `result` is still proxied.
fn holds(state: &JobState) -> bool {
    state.is_terminal() && *state != JobState::Cancelled
}

struct ClusterRegistry {
    jobs: BTreeMap<u64, ClusterJob>,
    next_id: u64,
}

struct CoordinatorInner {
    config: ClusterConfig,
    shards: Vec<ShardSlot>,
    registry: Mutex<ClusterRegistry>,
    /// Paired with `registry`: notified whenever a waiter's job may have
    /// settled — a watcher delivered, a state was observed, a result
    /// settled here, a job was forgotten, a shard was declared dead, or the
    /// coordinator stopped.
    settled: Condvar,
    admission: AdmissionControl,
    shutdown: AtomicBool,
    started: Instant,
    migrations: AtomicU64,
    results_recovered: AtomicU64,
    faults: Option<FaultContext>,
}

/// The cluster front door; see the [module docs](crate::cluster).
pub struct Coordinator {
    inner: Arc<CoordinatorInner>,
    /// The heartbeat and one completion watcher per shard.
    threads: Vec<JoinHandle<()>>,
}

/// A submission a shard accepted. Its proxy connection stays locked until
/// the job is registered, and a completion watcher takes that lock before
/// it lists: it never misses a job that ended before it was registered.
struct Placed<'a> {
    shard: usize,
    shard_job: u64,
    state: JobState,
    response: Value,
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
        let connect = Duration::from_millis(config.connect_timeout_ms.max(1));
        let io = Duration::from_millis(config.request_timeout_ms.max(1));
        let shards: Vec<ShardSlot> = config
            .shards
            .iter()
            .map(|endpoint| ShardSlot {
                proxy: Mutex::new(ShardClient::new(endpoint.addr.clone(), connect, io)),
                probe: Mutex::new(ShardClient::new(endpoint.addr.clone(), connect, io)),
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
        let faults = config
            .faults
            .clone()
            .map(|injector| FaultContext::new(injector, None));
        let inner = Arc::new(CoordinatorInner {
            admission: AdmissionControl::new(config.admission.clone()),
            config,
            shards,
            registry: Mutex::new(ClusterRegistry {
                jobs: BTreeMap::new(),
                next_id: 1,
            }),
            settled: Condvar::new(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            migrations: AtomicU64::new(0),
            results_recovered: AtomicU64::new(0),
            faults,
        });
        for idx in 0..inner.shards.len() {
            inner.heartbeat_shard(idx);
        }
        if inner.alive_shards().is_empty() {
            let addrs: Vec<&str> = inner
                .config
                .shards
                .iter()
                .map(|s| s.addr.as_str())
                .collect();
            return Err(SearchError::Cluster {
                message: format!("no shard reachable at start (tried {})", addrs.join(", ")),
            });
        }
        let heartbeat = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("qas-coordinator-heartbeat".to_string())
                .spawn(move || heartbeat_loop(inner))
                .expect("spawn coordinator heartbeat")
        };
        let mut threads = vec![heartbeat];
        for idx in 0..inner.shards.len() {
            let inner = Arc::clone(&inner);
            let watcher = std::thread::Builder::new()
                .name("qas-coordinator-watch".to_string())
                .spawn(move || inner.watch_shard(idx))
                .expect("spawn completion watcher");
            threads.push(watcher);
        }
        Ok(Coordinator { inner, threads })
    }

    /// Submit a job for `tenant` (`None` = anonymous, quota-exempt).
    ///
    /// Order of gates: spec validation (a malformed spec never burns a
    /// rate token), admission, then content-keyed placement with a
    /// bounded wait — while every live shard's queue is full the
    /// submission retries for up to `admission.max_wait_ms` before
    /// rejecting with [`SearchError::AdmissionDenied`].
    pub fn submit(&self, spec: JobSpec, tenant: Option<String>) -> Result<Submission, SearchError> {
        if let Some(faults) = &self.inner.faults {
            faults.trip(site::COORDINATOR_SUBMIT)?;
        }
        if spec.graphs.is_empty() {
            return Err(SearchError::NoGraphs);
        }
        spec.config.validate()?;
        self.inner.admission.admit(tenant.as_deref())?;
        match self.inner.place(&spec) {
            Ok(placed) => Ok(self.inner.register(tenant, spec, placed)),
            Err(error) => {
                // The job never entered the cluster: hand the tenant's
                // quota slot back before surfacing the error.
                self.inner.admission.release(tenant.as_deref());
                Err(error)
            }
        }
    }

    /// Proxied job status (single-node `status` shape, plus `shard` and
    /// `migrations` fields; `events_recorded` counts the overlay too).
    pub fn status(&self, id: JobId) -> Result<Value, SearchError> {
        self.inner.status(id.0)
    }

    /// Proxied event stream: the coordinator's migration overlay
    /// prepended to the owning shard's events. A migration resets the
    /// shard-side stream exactly like a single-node restart does (a
    /// fresh `Started` at the resume depth), so cursors obtained before
    /// a migration remain monotonic but may skip re-narrated prefixes.
    pub fn events(&self, id: JobId, since: usize) -> Result<(Vec<Value>, usize), SearchError> {
        self.inner.events(id.0, since)
    }

    /// Result envelope (single-node shape plus `shard`, `migrations`, and
    /// `report.migrated` when the job moved). A Completed, Failed or
    /// TimedOut job is answered from the envelope its completion watcher
    /// delivered; anything else is proxied to the owning shard. A job the
    /// shard suspends while shutting down errs as if the shard were gone.
    pub fn result(&self, id: JobId) -> Result<Value, SearchError> {
        self.inner.result(id.0)
    }

    /// Block until the job reaches a terminal state and return the same
    /// envelope [`Coordinator::result`] would. Its shard's completion
    /// watcher wakes the wait, which follows the job across migrations;
    /// it errs when no shard is left alive and the coordinator has not
    /// settled the job itself, or once shutdown has begun.
    pub fn wait(&self, id: JobId) -> Result<Value, SearchError> {
        self.inner.wait(id.0)
    }

    /// Proxied cooperative cancel (`false` for unknown/terminal jobs).
    pub fn cancel(&self, id: JobId) -> Result<bool, SearchError> {
        self.inner.cancel(id.0)
    }

    /// Drop a terminal job's record here and on its shard.
    pub fn forget(&self, id: JobId) -> Result<bool, SearchError> {
        self.inner.forget(id.0)
    }

    /// Coordinator-level job listing (no network: the registry's view).
    pub fn jobs(&self) -> Vec<Value> {
        self.inner.jobs()
    }

    /// Cluster-wide aggregate stats; refreshes live shards' stats first.
    pub fn stats(&self) -> ClusterStats {
        self.inner.stats(true)
    }

    /// Indices of shards currently considered live.
    pub fn alive_shards(&self) -> Vec<usize> {
        self.inner.alive_shards()
    }

    /// Total jobs re-submitted after shard deaths so far.
    pub fn migrations(&self) -> u64 {
        self.inner.migrations.load(Ordering::Relaxed)
    }

    /// Address of the shard currently owning `id` (`None` when unknown
    /// or held locally by the coordinator).
    pub fn shard_of(&self, id: JobId) -> Option<String> {
        let registry = lock_recover(&self.inner.registry);
        let job = registry.jobs.get(&id.0)?;
        if job.local.is_some() {
            return None;
        }
        Some(self.inner.config.shards[job.shard].addr.clone())
    }

    /// Begin [`Coordinator::shutdown`] without joining anything: every
    /// blocked [`Coordinator::wait`] errs at once and the completion
    /// watchers' connections close, so a front door that calls this first
    /// is not held up by a connection blocked in `wait`.
    pub fn begin_shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        for idx in 0..self.inner.shards.len() {
            self.inner.close_watcher(idx);
        }
        self.inner.wake_waiters();
    }

    /// Stop the heartbeat and the completion watchers, and disconnect.
    /// With `shutdown_shards` the coordinator also sends each live shard a
    /// best-effort `shutdown`.
    pub fn shutdown(mut self, shutdown_shards: bool) {
        self.stop();
        if shutdown_shards {
            for idx in 0..self.inner.shards.len() {
                let _ = self.inner.shard_request(idx, &json!({ "cmd": "shutdown" }));
            }
        }
    }

    fn stop(&mut self) {
        self.begin_shutdown();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("shards", &self.inner.shards.len())
            .field("alive", &self.inner.alive_shards().len())
            .finish()
    }
}

/// A job to move off a dead (or amnesiac) shard.
struct MigrationTicket {
    id: u64,
    shard_job: u64,
    spec: Option<JobSpec>,
    key_hash: u64,
    last_state: JobState,
}

impl CoordinatorInner {
    fn addr_of(&self, idx: usize) -> &str {
        &self.config.shards[idx].addr
    }

    fn alive_shards(&self) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&i| lock_recover(&self.shards[i].meta).alive)
            .collect()
    }

    fn is_alive(&self, idx: usize) -> bool {
        lock_recover(&self.shards[idx].meta).alive
    }

    fn is_local(&self, id: u64) -> bool {
        lock_recover(&self.registry)
            .jobs
            .get(&id)
            .is_some_and(|job| job.local.is_some())
    }

    /// One proxied request to shard `idx`.
    fn shard_request(&self, idx: usize, request: &Value) -> Result<Value, SearchError> {
        self.contact(idx, &mut lock_recover(&self.shards[idx].proxy), request)
    }

    /// One heartbeat request to shard `idx`, on the heartbeat's own
    /// connection.
    fn probe_request(&self, idx: usize, request: &Value) -> Result<Value, SearchError> {
        self.contact(idx, &mut lock_recover(&self.shards[idx].probe), request)
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

    // -- placement ---------------------------------------------------------

    fn place(&self, spec: &JobSpec) -> Result<Placed<'_>, SearchError> {
        let key = spec_cache_key(spec)?;
        let spec_value = serde_json::to_value(spec).map_err(|e| SearchError::Cluster {
            message: format!("serialize spec: {e}"),
        })?;
        let request = json!({ "cmd": "submit_spec", "spec": spec_value });
        let max_wait = Duration::from_millis(self.admission.config().max_wait_ms);
        match self.place_within(key.hash, &request, max_wait) {
            Ok(placed) => Ok(placed),
            Err(PlaceError::QueueFull) => {
                self.admission.note_backpressure_rejection();
                Err(SearchError::AdmissionDenied {
                    reason: "cluster queue is full".to_string(),
                    retry_after_ms: self.admission.config().retry_poll_ms.max(1) * 4,
                })
            }
            Err(PlaceError::Unreachable(e) | PlaceError::Fatal(e)) => Err(e),
        }
    }

    /// Submit `request` to the shard `key` routes to, retrying a full
    /// queue or an unreachable fleet every `retry_poll_ms` until `max_wait`
    /// has passed. A failure returns the last attempt's error.
    fn place_within(
        &self,
        key: u64,
        request: &Value,
        max_wait: Duration,
    ) -> Result<Placed<'_>, PlaceError> {
        let poll = Duration::from_millis(self.admission.config().retry_poll_ms.max(1));
        let started = Instant::now();
        loop {
            match self.try_place_once(key, request) {
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
        let alive = self.alive_shards();
        if alive.is_empty() {
            return Err(PlaceError::Unreachable(SearchError::Cluster {
                message: "no live shards".to_string(),
            }));
        }
        let candidates: Vec<u64> = alive.iter().map(|&i| i as u64).collect();
        let target = rendezvous_route(key, &candidates).expect("candidates non-empty") as usize;
        let mut proxy = lock_recover(&self.shards[target].proxy);
        match self.contact(target, &mut proxy, request) {
            Ok(response) if response.get("queue_full").and_then(Value::as_bool) == Some(true) => {
                Err(PlaceError::QueueFull)
            }
            Ok(response) => {
                let response = self.proxy_ok(target, response).map_err(PlaceError::Fatal)?;
                let shard_job = response.get("job").and_then(Value::as_u64).ok_or_else(|| {
                    PlaceError::Fatal(SearchError::Cluster {
                        message: format!(
                            "shard {} accepted a submission without a job id",
                            self.addr_of(target)
                        ),
                    })
                })?;
                let state = response
                    .get("state")
                    .and_then(|v| serde_json::from_value(v).ok())
                    .unwrap_or(JobState::Queued);
                Ok(Placed {
                    shard: target,
                    shard_job,
                    state,
                    response,
                    _proxy: proxy,
                })
            }
            Err(e) => Err(PlaceError::Unreachable(e)),
        }
    }

    /// Register an accepted submission; its proxy connection unlocks on
    /// return.
    fn register(&self, tenant: Option<String>, spec: JobSpec, placed: Placed<'_>) -> Submission {
        let response = &placed.response;
        let cache_hit = response
            .get("cache_hit")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        let coalesced = response
            .get("coalesced")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        let key_hash = spec_cache_key(&spec).map(|k| k.hash).unwrap_or_default();
        let terminal = placed.state.is_terminal();
        let id = {
            let mut registry = lock_recover(&self.registry);
            let id = registry.next_id;
            registry.next_id += 1;
            registry.jobs.insert(
                id,
                ClusterJob {
                    tenant: tenant.clone(),
                    name: spec.name.clone(),
                    priority: spec.priority,
                    spec: (!holds(&placed.state)).then_some(spec),
                    key_hash,
                    shard: placed.shard,
                    shard_job: placed.shard_job,
                    state: placed.state.clone(),
                    released: terminal,
                    migrations: 0,
                    overlay: Vec::new(),
                    local: None,
                    held: None,
                    cancel_requested: false,
                },
            );
            id
        };
        if terminal {
            // Born terminal (shard-side cache hit): the quota slot is
            // returned immediately.
            self.admission.release(tenant.as_deref());
        }
        Submission {
            id: JobId(id),
            shard: self.addr_of(placed.shard).to_string(),
            state: placed.state,
            cache_hit,
            coalesced,
        }
    }

    // -- proxying ----------------------------------------------------------

    /// The routing facts of one tracked job, snapshotted briefly.
    fn route_of(&self, id: u64) -> Result<(usize, u64, usize, u32, bool), SearchError> {
        let registry = lock_recover(&self.registry);
        let job = registry
            .jobs
            .get(&id)
            .ok_or(SearchError::UnknownJob { id })?;
        Ok((
            job.shard,
            job.shard_job,
            job.overlay.len(),
            job.migrations,
            job.local.is_some(),
        ))
    }

    fn overlay_values(&self, id: u64) -> Vec<Value> {
        lock_recover(&self.registry)
            .jobs
            .get(&id)
            .map(|job| {
                job.overlay
                    .iter()
                    .map(|e| serde_json::to_value(e).unwrap_or(Value::Null))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Fold an observed state into the registry and wake the waiters;
    /// releases the tenant quota slot on the first terminal observation.
    /// Returns whether the state was a suspension
    /// ([`ClusterJob::suspended`]).
    fn note_state(&self, id: u64, state: JobState) -> bool {
        let (suspended, release) = {
            let mut registry = lock_recover(&self.registry);
            let Some(job) = registry.jobs.get_mut(&id) else {
                return false;
            };
            self.settled.notify_all();
            (job.suspended(&state), job.observe(state))
        };
        self.admission.release(release.as_deref());
        suspended
    }

    fn proxy_ok(&self, shard: usize, response: Value) -> Result<Value, SearchError> {
        if response.get("ok").and_then(Value::as_bool) == Some(true) {
            Ok(response)
        } else {
            let message = response
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("malformed shard response");
            Err(SearchError::Cluster {
                message: format!("shard {}: {message}", self.addr_of(shard)),
            })
        }
    }

    fn status(&self, id: u64) -> Result<Value, SearchError> {
        let (shard, shard_job, overlay_len, migrations, local) = self.route_of(id)?;
        if local {
            return Ok(self.local_status(id));
        }
        let response =
            self.shard_request(shard, &json!({ "cmd": "status", "job": (shard_job) }))?;
        let response = self.proxy_ok(shard, response)?;
        let mut status = response.get("status").cloned().unwrap_or(Value::Null);
        if let Some(state) = status
            .get("state")
            .and_then(|v| serde_json::from_value::<JobState>(v).ok())
        {
            self.note_state(id, state);
        }
        set_field(&mut status, "id", json!(id));
        set_field(&mut status, "shard", json!(self.addr_of(shard)));
        set_field(&mut status, "migrations", json!(migrations));
        if overlay_len > 0 {
            let recorded = status
                .get("events_recorded")
                .and_then(Value::as_u64)
                .unwrap_or(0);
            set_field(
                &mut status,
                "events_recorded",
                json!(recorded + overlay_len as u64),
            );
        }
        Ok(status)
    }

    fn local_status(&self, id: u64) -> Value {
        let registry = lock_recover(&self.registry);
        let Some(job) = registry.jobs.get(&id) else {
            return Value::Null;
        };
        json!({
            "id": (id),
            "name": (job.name.clone()),
            "priority": (job.priority),
            "state": (job.state.clone()),
            "retries": 0,
            "events_recorded": (job.overlay.len()),
            "progress": null,
            "cache_hit": false,
            "coalesced": false,
            "shard": "coordinator",
            "recovered": true,
            "migrations": (job.migrations),
        })
    }

    fn events(&self, id: u64, since: usize) -> Result<(Vec<Value>, usize), SearchError> {
        let (shard, shard_job, _, _, local) = self.route_of(id)?;
        let overlay = self.overlay_values(id);
        let mut shown: Vec<Value> = overlay.get(since..).unwrap_or(&[]).to_vec();
        if local {
            let next = overlay.len();
            return Ok((shown, next));
        }
        let shard_since = since.saturating_sub(overlay.len());
        let response = self.shard_request(
            shard,
            &json!({ "cmd": "events", "job": (shard_job), "since": (shard_since) }),
        )?;
        let response = self.proxy_ok(shard, response)?;
        let shard_events = response
            .get("events")
            .and_then(Value::as_array)
            .cloned()
            .unwrap_or_default();
        let shard_next = response.get("next").and_then(Value::as_u64).unwrap_or(0) as usize;
        shown.extend(shard_events);
        Ok((shown, overlay.len() + shard_next))
    }

    fn result(&self, id: u64) -> Result<Value, SearchError> {
        if let Some(line) = self.held_envelope(id) {
            return parse_envelope(&line);
        }
        let (shard, shard_job, _, _, local) = self.route_of(id)?;
        if local {
            return Ok(self.local_result_envelope(id));
        }
        let response =
            self.shard_request(shard, &json!({ "cmd": "result", "job": (shard_job) }))?;
        let mut envelope = self.proxy_ok(shard, response)?;
        if let Some(state) = envelope
            .get("state")
            .and_then(|v| serde_json::from_value::<JobState>(v).ok())
        {
            if self.note_state(id, state) {
                // The shard is going away; answer as if it were already
                // unreachable.
                return Err(SearchError::Cluster {
                    message: format!(
                        "shard {}: job {shard_job} suspended by shutdown",
                        self.addr_of(shard)
                    ),
                });
            }
        }
        let (_, _, _, migrations, _) = self.route_of(id)?;
        self.stamp(&mut envelope, id, shard, migrations);
        Ok(envelope)
    }

    /// The held envelope of a job not settled here, if any.
    fn held_envelope(&self, id: u64) -> Option<String> {
        let registry = lock_recover(&self.registry);
        let job = registry.jobs.get(&id)?;
        job.local.is_none().then(|| job.held.clone()).flatten()
    }

    /// Stamp a shard's result envelope with the coordinator's view: its
    /// job id, the owning shard, the migration count, and
    /// `report.migrated` once the job has moved.
    fn stamp(&self, envelope: &mut Value, id: u64, shard: usize, migrations: u32) {
        set_field(envelope, "job", json!(id));
        set_field(envelope, "shard", json!(self.addr_of(shard)));
        set_field(envelope, "migrations", json!(migrations));
        if migrations > 0 {
            if let Some(report) = get_field_mut(envelope, "report") {
                set_field(report, "migrated", Value::Bool(true));
            }
        }
    }

    fn wait(&self, id: u64) -> Result<Value, SearchError> {
        let mut registry = lock_recover(&self.registry);
        loop {
            let job = registry
                .jobs
                .get(&id)
                .ok_or(SearchError::UnknownJob { id })?;
            if job.local.is_some() {
                drop(registry);
                return Ok(self.local_result_envelope(id));
            }
            if let Some(line) = &job.held {
                return parse_envelope(line);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return Err(SearchError::Cluster {
                    message: "coordinator is shutting down".to_string(),
                });
            }
            // A live shard's watcher delivers the job's envelope, and a dead
            // shard's jobs are moved or settled here while any shard lives.
            let any_alive = !self.alive_shards().is_empty();
            if job.awaits_envelope() && any_alive {
                registry = wait_recover(&self.settled, registry);
                continue;
            }
            // The job ended without an envelope to hold, or no shard is
            // left alive: ask the shard, as `result` does.
            drop(registry);
            match self.result(id) {
                Ok(envelope) if envelope.get("done").and_then(Value::as_bool) == Some(true) => {
                    return Ok(envelope);
                }
                Err(e @ SearchError::UnknownJob { .. }) => return Err(e),
                Err(e) if !any_alive && !self.is_local(id) => return Err(e),
                // Unreachable but not yet dead, or running again: look
                // again after one heartbeat period.
                _ => {}
            }
            registry = lock_recover(&self.registry);
            let period = Duration::from_millis(self.config.heartbeat_ms.max(10));
            registry = wait_timeout_recover(&self.settled, registry, period).0;
        }
    }

    fn wake_waiters(&self) {
        let _registry = lock_recover(&self.registry);
        self.settled.notify_all();
    }

    /// Sleep one heartbeat period, or less if the coordinator stops.
    fn pause(&self) {
        let registry = lock_recover(&self.registry);
        let running = |_: &mut ClusterRegistry| !self.shutdown.load(Ordering::SeqCst);
        let period = Duration::from_millis(self.config.heartbeat_ms.max(10));
        let _ = self.settled.wait_timeout_while(registry, period, running);
    }

    // -- completion watchers -----------------------------------------------

    /// Shard `idx`'s completion watcher: list the shard's jobs still owed
    /// an envelope, block in its `wait_any` on them, and deliver what it
    /// reports. A job the shard reports suspended is left out until the
    /// connection is re-established; a failed connection is re-established
    /// once per heartbeat period while the shard is alive.
    fn watch_shard(&self, idx: usize) {
        let mut client = ShardClient::new(
            self.addr_of(idx),
            Duration::from_millis(self.config.connect_timeout_ms.max(1)),
            Duration::from_millis(self.config.request_timeout_ms.max(1)),
        )
        .without_read_timeout();
        let mut since = 0;
        let mut suspended: Vec<(u64, u32)> = Vec::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            if !client.is_connected() {
                (since, suspended) = (0, Vec::new());
                let socket = self.is_alive(idx).then(|| client.socket().ok()).flatten();
                // Published under the lock `close_watcher` takes after a
                // verdict: a connection is either closed by it or opened
                // after it.
                let mut watcher = lock_recover(&self.shards[idx].watcher);
                if socket.is_none() || self.shutdown.load(Ordering::SeqCst) || !self.is_alive(idx) {
                    drop(watcher);
                    client.disconnect();
                    self.pause();
                    continue;
                }
                *watcher = socket;
            }
            // A placement in progress here registers its job first (`Placed`).
            drop(lock_recover(&self.shards[idx].proxy));
            // (id, shard job, epoch) of each job the shard owes an envelope.
            let listed: Vec<(u64, u64, u32)> = lock_recover(&self.registry)
                .jobs
                .iter()
                .filter(|(&id, job)| {
                    job.shard == idx
                        && job.awaits_envelope()
                        && !suspended.contains(&(id, job.migrations))
                })
                .map(|(&id, job)| (id, job.shard_job, job.migrations))
                .collect();
            let jobs: Vec<u64> = listed.iter().map(|&(_, shard_job, _)| shard_job).collect();
            let request = json!({ "cmd": "wait_any", "jobs": jobs, "since": (since) });
            let Ok(response) = client.request(&request) else {
                self.pause();
                continue;
            };
            let next = response.get("since").and_then(Value::as_u64);
            let done = response.get("done").and_then(Value::as_array);
            for envelope in done.into_iter().flatten() {
                let shard_job = envelope.get("job").and_then(Value::as_u64);
                let Some(&(id, _, epoch)) = listed.iter().find(|p| Some(p.1) == shard_job) else {
                    continue;
                };
                if !self.deliver(id, idx, epoch, envelope.clone()) {
                    suspended.push((id, epoch));
                }
            }
            if done.is_none_or(Vec::is_empty) && next.is_none_or(|next| next == since) {
                // Nothing moved: the shard is shutting down (or refused).
                self.pause();
            }
            since = next.unwrap_or(since);
        }
    }

    /// Take in a watcher's terminal envelope for placement `epoch` of job
    /// `id` on `shard`, and wake the waiters. One the coordinator [`holds`]
    /// is stored, stamped as `result` stamps it; any other just ends the
    /// job here, and `wait` falls back to proxying `result`. Nothing
    /// changes if the job was forgotten, migrated or settled here in the
    /// meantime. Returns `false`, and the watcher stops listing the job,
    /// for a suspension ([`ClusterJob::suspended`]) or a stateless reply.
    fn deliver(&self, id: u64, shard: usize, epoch: u32, mut envelope: Value) -> bool {
        let Some(state) = envelope
            .get("state")
            .and_then(|v| serde_json::from_value::<JobState>(v).ok())
        else {
            return false;
        };
        let line = holds(&state)
            .then(|| {
                self.stamp(&mut envelope, id, shard, epoch);
                serde_json::to_string(&envelope).ok()
            })
            .flatten();
        let mut registry = lock_recover(&self.registry);
        let Some(job) = registry.jobs.get_mut(&id) else {
            return true;
        };
        if job.local.is_some() || job.migrations != epoch {
            return true;
        }
        if job.suspended(&state) {
            return false;
        }
        job.held = line;
        // Returned before any waiter can see the envelope.
        self.admission.release(job.observe(state).as_deref());
        self.settled.notify_all();
        true
    }

    /// Shut down shard `idx`'s watcher connection: its blocked `wait_any`
    /// returns at once.
    fn close_watcher(&self, idx: usize) {
        if let Some(socket) = lock_recover(&self.shards[idx].watcher).take() {
            let _ = socket.shutdown(Shutdown::Both);
        }
    }

    fn local_result_envelope(&self, id: u64) -> Value {
        let registry = lock_recover(&self.registry);
        let Some(job) = registry.jobs.get(&id) else {
            return Value::Null;
        };
        let state = serde_json::to_value(&job.state).unwrap_or(Value::Null);
        match &job.local {
            Some(Ok(outcome)) => {
                let mut report = SearchReport::from(outcome);
                report.migrated = job.migrations > 0;
                let report = serde_json::to_value(&report).unwrap_or(Value::Null);
                json!({
                    "ok": true,
                    "job": (id),
                    "state": state,
                    "done": true,
                    "cache_hit": false,
                    "coalesced": false,
                    "recovered": true,
                    "shard": "coordinator",
                    "migrations": (job.migrations),
                    "report": report,
                })
            }
            Some(Err(e)) => json!({
                "ok": true,
                "job": (id),
                "state": state,
                "done": true,
                "recovered": true,
                "shard": "coordinator",
                "migrations": (job.migrations),
                "error": (e.to_string()),
            }),
            None => Value::Null,
        }
    }

    fn cancel(&self, id: u64) -> Result<bool, SearchError> {
        let (shard, shard_job, _, _, local) = self.route_of(id)?;
        if local {
            return Ok(false); // Locally-held results are already terminal.
        }
        // Marked before the shard can answer a watcher with the cancellation.
        if let Some(job) = lock_recover(&self.registry).jobs.get_mut(&id) {
            job.cancel_requested = true;
        }
        let response =
            self.shard_request(shard, &json!({ "cmd": "cancel", "job": (shard_job) }))?;
        let response = self.proxy_ok(shard, response)?;
        Ok(response
            .get("cancelled")
            .and_then(Value::as_bool)
            .unwrap_or(false))
    }

    fn forget(&self, id: u64) -> Result<bool, SearchError> {
        let (shard, shard_job, _, _, local) = self.route_of(id)?;
        if local {
            let removed = lock_recover(&self.registry).jobs.remove(&id).is_some();
            self.wake_waiters();
            return Ok(removed);
        }
        let response =
            self.shard_request(shard, &json!({ "cmd": "forget", "job": (shard_job) }))?;
        let response = self.proxy_ok(shard, response)?;
        let forgotten = response
            .get("forgotten")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        if forgotten {
            let release = {
                let mut registry = lock_recover(&self.registry);
                registry.jobs.remove(&id).and_then(
                    |job| {
                        if job.released {
                            None
                        } else {
                            job.tenant
                        }
                    },
                )
            };
            self.admission.release(release.as_deref());
            self.wake_waiters();
        }
        Ok(forgotten)
    }

    fn jobs(&self) -> Vec<Value> {
        let registry = lock_recover(&self.registry);
        registry
            .jobs
            .iter()
            .map(|(&id, job)| {
                let shard = if job.local.is_some() {
                    "coordinator".to_string()
                } else {
                    self.addr_of(job.shard).to_string()
                };
                json!({
                    "id": (id),
                    "name": (job.name.clone()),
                    "state": (job.state.clone()),
                    "shard": shard,
                    "shard_job": (job.shard_job),
                    "migrations": (job.migrations),
                    "tenant": (job.tenant.clone()),
                })
            })
            .collect()
    }

    fn stats(&self, refresh: bool) -> ClusterStats {
        if refresh {
            for idx in self.alive_shards() {
                if let Ok(response) = self.shard_request(idx, &json!({ "cmd": "stats" })) {
                    let stats = response.get("stats").cloned().unwrap_or(Value::Null);
                    self.absorb_shard_stats(idx, stats);
                }
            }
        }
        let mut snapshots = Vec::with_capacity(self.shards.len());
        let (mut queue_depth, mut hits, mut misses, mut coalesced) = (0u64, 0u64, 0u64, 0u64);
        for (idx, slot) in self.shards.iter().enumerate() {
            let meta = lock_recover(&slot.meta);
            if let Some(stats) = &meta.last_stats {
                queue_depth += stats
                    .get("queue_depth")
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
                if let Some(cache) = stats.get("cache") {
                    hits += cache.get("hits").and_then(Value::as_u64).unwrap_or(0);
                    misses += cache.get("misses").and_then(Value::as_u64).unwrap_or(0);
                    coalesced += cache.get("coalesced").and_then(Value::as_u64).unwrap_or(0);
                }
            }
            snapshots.push(ShardSnapshot {
                addr: self.addr_of(idx).to_string(),
                alive: meta.alive,
                shard_id: meta.shard_id.clone(),
                restarts: meta.restarts,
                consecutive_misses: meta.misses,
                stats: meta.last_stats.clone(),
            });
        }
        let (jobs_tracked, jobs_inflight) = {
            let registry = lock_recover(&self.registry);
            let inflight = registry
                .jobs
                .values()
                .filter(|job| !job.state.is_terminal())
                .count();
            (registry.jobs.len(), inflight)
        };
        ClusterStats {
            uptime_secs: self.started.elapsed().as_secs_f64(),
            version: env!("CARGO_PKG_VERSION").to_string(),
            shards_total: self.shards.len(),
            shards_alive: snapshots.iter().filter(|s| s.alive).count(),
            jobs_tracked,
            jobs_inflight,
            migrations: self.migrations.load(Ordering::Relaxed),
            results_recovered: self.results_recovered.load(Ordering::Relaxed),
            queue_depth,
            cache_hits: hits,
            cache_misses: misses,
            cache_coalesced: coalesced,
            admission: self.admission.stats(),
            shards: snapshots,
        }
    }

    fn absorb_shard_stats(&self, idx: usize, stats: Value) {
        let mut meta = lock_recover(&self.shards[idx].meta);
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

    // -- health + migration ------------------------------------------------

    /// Ping shard `idx`; flips liveness and triggers migration when the
    /// miss threshold is crossed. Called from the heartbeat thread (and
    /// once per shard at start, before the thread exists).
    fn heartbeat_shard(&self, idx: usize) {
        match self.probe_request(idx, &json!({ "cmd": "stats" })) {
            Ok(response) => {
                let stats = response.get("stats").cloned().unwrap_or(Value::Null);
                self.absorb_shard_stats(idx, stats);
                let mut meta = lock_recover(&self.shards[idx].meta);
                meta.misses = 0;
                meta.alive = true;
            }
            Err(_) => {
                let declare_dead = {
                    let mut meta = lock_recover(&self.shards[idx].meta);
                    // `shard_request` already bumped the miss counter.
                    if meta.alive && meta.misses >= self.config.heartbeat_misses.max(1) {
                        meta.alive = false;
                        true
                    } else {
                        false
                    }
                };
                if declare_dead {
                    self.close_watcher(idx);
                    self.wake_waiters();
                    self.migrate_dead_shard(idx);
                }
            }
        }
    }

    /// Compare the shard's own job listing against the registry: update
    /// states (terminal transitions release quotas even if no client
    /// ever polls), and re-submit tracked jobs the shard no longer knows
    /// — a shard that restarted without a state dir comes back amnesiac.
    fn refresh_tracked_jobs(&self) {
        for idx in self.alive_shards() {
            let tracked: Vec<(u64, u64)> = {
                let registry = lock_recover(&self.registry);
                registry
                    .jobs
                    .iter()
                    .filter(|(_, job)| {
                        job.shard == idx && job.local.is_none() && !job.state.is_terminal()
                    })
                    .map(|(&id, job)| (id, job.shard_job))
                    .collect()
            };
            if tracked.is_empty() {
                continue;
            }
            let Ok(response) = self.probe_request(idx, &json!({ "cmd": "jobs" })) else {
                continue;
            };
            let Some(listing) = response.get("jobs").and_then(Value::as_array) else {
                continue;
            };
            let mut listed: BTreeMap<u64, JobState> = BTreeMap::new();
            for status in listing {
                let Some(job_id) = status.get("id").and_then(Value::as_u64) else {
                    continue;
                };
                if let Some(state) = status
                    .get("state")
                    .and_then(|v| serde_json::from_value::<JobState>(v).ok())
                {
                    listed.insert(job_id, state);
                }
            }
            let mut tickets = Vec::new();
            {
                let mut registry = lock_recover(&self.registry);
                let mut releases = Vec::new();
                for (id, shard_job) in tracked {
                    let Some(job) = registry.jobs.get_mut(&id) else {
                        continue;
                    };
                    if job.shard != idx || job.local.is_some() {
                        continue; // Migrated concurrently.
                    }
                    match listed.get(&shard_job) {
                        Some(state) => releases.push(job.observe(state.clone())),
                        None => tickets.push(MigrationTicket {
                            id,
                            shard_job,
                            spec: job.spec.clone(),
                            key_hash: job.key_hash,
                            last_state: job.state.clone(),
                        }),
                    }
                }
                self.settled.notify_all();
                drop(registry);
                for tenant in releases {
                    self.admission.release(tenant.as_deref());
                }
            }
            if !tickets.is_empty() {
                self.migrate_tickets(idx, tickets, None);
            }
        }
    }

    fn migrate_dead_shard(&self, dead: usize) {
        let tickets: Vec<MigrationTicket> = {
            let registry = lock_recover(&self.registry);
            registry
                .jobs
                .iter()
                .filter(|(_, job)| job.shard == dead && job.local.is_none())
                .map(|(&id, job)| MigrationTicket {
                    id,
                    shard_job: job.shard_job,
                    spec: job.spec.clone(),
                    key_hash: job.key_hash,
                    last_state: job.state.clone(),
                })
                .collect()
        };
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
        self.migrate_tickets(dead, tickets, replayed.as_ref());
    }

    fn migrate_tickets(
        &self,
        from: usize,
        tickets: Vec<MigrationTicket>,
        replayed: Option<&ReplayedState>,
    ) {
        let from_addr = self.addr_of(from).to_string();
        for ticket in tickets {
            if let Some(faults) = &self.faults {
                if let Err(e) = faults.trip(site::COORDINATOR_MIGRATE) {
                    self.settle_locally(ticket.id, None, Err(e));
                    continue;
                }
            }
            let recovered = replayed.and_then(|state| state.jobs.get(&ticket.shard_job));
            if let Some(job) = recovered {
                if let Some(result) = &job.result {
                    // The journal holds the job's terminal result: adopt
                    // it — nothing re-runs, nothing is lost.
                    self.settle_locally(ticket.id, Some(job.state.clone()), result.clone());
                    continue;
                }
            }
            if ticket.last_state.is_terminal() && recovered.is_none() {
                // The coordinator saw this job finish but the result died
                // with a journal-less shard. Re-running a cancelled or
                // failed job would change its meaning, so fail honestly.
                // (A job the journal holds without a result was suspended
                // by its shard's shutdown, not finished: it resumes below.)
                self.settle_locally(
                    ticket.id,
                    None,
                    Err(SearchError::Cluster {
                        message: format!(
                            "shard {from_addr} died holding the terminal result of a \
                             journal-less job"
                        ),
                    }),
                );
                continue;
            }
            let checkpoint = recovered.and_then(|job| job.checkpoint.clone());
            self.resubmit(&from_addr, ticket, checkpoint);
        }
    }

    /// Re-submit one job to a surviving shard, resuming from
    /// `checkpoint` when one was journaled.
    fn resubmit(
        &self,
        from_addr: &str,
        ticket: MigrationTicket,
        checkpoint: Option<SearchCheckpoint>,
    ) {
        let spec_value = match ticket.spec.as_ref().map(serde_json::to_value) {
            Some(Ok(v)) => v,
            Some(Err(e)) => {
                self.settle_locally(
                    ticket.id,
                    None,
                    Err(SearchError::Cluster {
                        message: format!("serialize spec for migration: {e}"),
                    }),
                );
                return;
            }
            None => {
                self.settle_locally(
                    ticket.id,
                    None,
                    Err(SearchError::Cluster {
                        message: format!("shard {from_addr} died holding a finished job"),
                    }),
                );
                return;
            }
        };
        let mut request = json!({ "cmd": "submit_spec", "spec": spec_value });
        let resumed = checkpoint.is_some();
        if let Some(checkpoint) = &checkpoint {
            let rendered = serde_json::to_value(checkpoint).unwrap_or(Value::Null);
            set_field(&mut request, "checkpoint", rendered);
        }
        let max_wait = Duration::from_millis(self.admission.config().max_wait_ms.max(1));
        let placed = match self.place_within(ticket.key_hash, &request, max_wait) {
            Ok(placed) => placed,
            Err(PlaceError::QueueFull) => {
                let message = "every surviving shard's queue stayed full during migration";
                let error = SearchError::Cluster {
                    message: message.to_string(),
                };
                return self.settle_locally(ticket.id, None, Err(error));
            }
            Err(PlaceError::Unreachable(e) | PlaceError::Fatal(e)) => {
                return self.settle_locally(ticket.id, None, Err(e));
            }
        };
        let to_addr = self.addr_of(placed.shard).to_string();
        {
            let mut registry = lock_recover(&self.registry);
            if let Some(job) = registry.jobs.get_mut(&ticket.id) {
                job.shard = placed.shard;
                job.shard_job = placed.shard_job;
                job.state = placed.state;
                job.migrations += 1;
                job.overlay.push(SearchEvent::Migrated {
                    from: from_addr.to_string(),
                    to: to_addr,
                    resumed,
                });
                job.held = None;
                job.cancel_requested = false;
            }
        }
        self.migrations.fetch_add(1, Ordering::Relaxed);
    }

    /// Settle a job here rather than on a shard: with the terminal state
    /// and result `adopted` from a dead shard's journal (counted in
    /// `results_recovered`), or, with `None`, as Failed because migration
    /// is impossible.
    fn settle_locally(
        &self,
        id: u64,
        adopted: Option<JobState>,
        result: Result<SearchOutcome, SearchError>,
    ) {
        let recovered = adopted.is_some();
        let state = adopted.unwrap_or(JobState::Failed { panic: None });
        let release = {
            let mut registry = lock_recover(&self.registry);
            let Some(job) = registry.jobs.get_mut(&id) else {
                return;
            };
            job.settle(state, result)
        };
        self.admission.release(release.as_deref());
        if recovered {
            self.results_recovered.fetch_add(1, Ordering::Relaxed);
        }
        self.wake_waiters();
    }
}

fn heartbeat_loop(inner: Arc<CoordinatorInner>) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        for idx in 0..inner.shards.len() {
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            inner.heartbeat_shard(idx);
        }
        inner.refresh_tracked_jobs();
        inner.pause();
    }
}

/// Set (or append) `key` in a JSON object value; no-op on non-objects.
fn set_field(value: &mut Value, key: &str, new: Value) {
    if let Value::Object(entries) = value {
        for (k, v) in entries.iter_mut() {
            if k == key {
                *v = new;
                return;
            }
        }
        entries.push((key.to_string(), new));
    }
}

/// Parse a held envelope back into the value `result` returns.
fn parse_envelope(line: &str) -> Result<Value, SearchError> {
    serde_json::from_str(line).map_err(|e| SearchError::Cluster {
        message: format!("held envelope: {e}"),
    })
}

/// Mutable lookup of `key` in a JSON object value.
fn get_field_mut<'a>(value: &'a mut Value, key: &str) -> Option<&'a mut Value> {
    if let Value::Object(entries) = value {
        entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_field_overwrites_and_appends() {
        let mut value = json!({ "a": 1 });
        set_field(&mut value, "a", json!(2u64));
        set_field(&mut value, "b", json!("x"));
        assert_eq!(value.get("a").and_then(Value::as_u64), Some(2));
        assert_eq!(value.get("b").and_then(Value::as_str), Some("x"));
        // Non-objects are left alone.
        let mut scalar = json!(7u64);
        set_field(&mut scalar, "a", json!(1u64));
        assert_eq!(scalar.as_u64(), Some(7));
    }

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
