//! The multi-tenant job server: many concurrent search sessions over one
//! bounded, priority-ordered queue — crash-safe when given a state dir.
//!
//! [`JobServer`] is the programmatic face of `qas serve`: callers submit
//! [`JobSpec`]s (a [`SearchConfig`] plus training graphs and a priority),
//! a fixed pool of worker threads drains the queue highest-priority-first,
//! and every job runs as a [`SearchDriver`] session whose
//! [`SearchEvent`] stream is recorded for later retrieval
//! ([`JobServer::events_since`]). Queued jobs cancel instantly; running
//! jobs cancel cooperatively through the session's [`Canceller`], draining
//! to a valid partial outcome exactly like a directly-held handle.
//!
//! Inside each job the work-stealing executor still parallelizes candidate
//! evaluation (`SearchConfig::threads`), so the server multiplexes at two
//! levels: jobs across workers, candidates across each job's evaluation
//! threads. The queue is **bounded** ([`JobServerConfig::queue_capacity`]):
//! submissions beyond it fail fast with [`SearchError::QueueFull`] instead
//! of accumulating unbounded memory — the behaviour a front door serving
//! heavy traffic needs.
//!
//! ## Fault tolerance
//!
//! Launched via [`JobServer::launch`] with a [`StoreConfig`], the server
//! write-ahead journals every submission, state transition, periodic
//! [`SearchCheckpoint`], and terminal result to a crc-checked JSON-lines
//! journal ([`crate::store`]). On restart it replays the journal,
//! re-enqueues incomplete jobs, and resumes each from its last checkpoint
//! — bit-identical to an uninterrupted run. Independently of the store:
//!
//! * **Panic isolation** — workers wrap job execution in `catch_unwind`;
//!   a panicking candidate evaluation becomes
//!   [`JobState::Failed`]` { panic: Some(message) }` plus a terminal
//!   [`SearchEvent::Failed`], and the worker (and every lock, via the
//!   poison-recovering helpers in the crate-private `sync` module)
//!   survives.
//! * **Deadlines** — [`JobSpec::timeout_secs`] arms a per-job deadline;
//!   on expiry the job is cooperatively cancelled and recorded as
//!   [`JobState::TimedOut`].
//! * **Retries** — transient failures ([`SearchError::is_transient`])
//!   consume [`JobSpec::max_retries`] attempts under deterministic
//!   exponential backoff, resuming from the last checkpoint.
//!
//! ## Caching and coalescing
//!
//! Search results are pure functions of the submitted spec (config +
//! graphs + seed — see [`crate::cache`]), so the server never computes
//! the same search twice. Three tiers, all enabled by
//! [`ServerOptions::cache`] (on by default, `None` to disable):
//!
//! 1. **Result cache** — [`submit`](JobServer::submit) consults a
//!    content-addressed [`ResultCache`] first; a hit completes the job
//!    instantly with the stored outcome, a synthetic
//!    [`SearchEvent::CacheHit`] + `Finished` event pair, and
//!    [`JobStatus::cache_hit`] set. With [`CacheConfig::dir`] the cache
//!    survives restarts through the same crc-framed journal as the job
//!    store.
//! 2. **Request coalescing** — a submission identical to one already
//!    queued or running attaches as a *follower* of that execution: it
//!    gets its own [`JobId`], event cursor, result, and cancel (which
//!    only detaches it), but no engine runs for it. When the leader
//!    settles, the terminal state and result fan out to every follower.
//!    Cancelling a leader promotes its first follower; the engine keeps
//!    running.
//! 3. **Evaluator sharing** — jobs share one server-scoped bounded
//!    [`EnergyCache`], so identical `(problem, backend, graph)` triples
//!    across *different* jobs reuse one trained-energy evaluator.
//!
//! [`JobServer::stats`] reports queue depth, per-state job counts, and
//! the hit/miss/coalesced counters of both caches.
//!
//! ## Job lifecycle
//!
//! Every job starts in one function and ends in one. `submit` runs the
//! admission gates ([`AdmissionControl`]; the default config admits
//! everything). `admit` allocates the id, journals `Submitted` and
//! inserts the record — for cache hits, followers, fresh executions,
//! checkpointed migrations and fleet placements alike. `finish` ends a
//! list of jobs: per job it records the terminal event (if the caller
//! supplies one) and the result, returns the tenant's quota slot, and
//! journals `Finished` then `State`; then it releases the execution's
//! coalescing key and aliases and evicts over retention. So each job's
//! journal reads `Submitted … Finished, State`, with only `State`,
//! `Progress` and `Checkpoint` records between.
//!
//! Between the two, one of two executors runs the job:
//!
//! * **local** (every server [`JobServer::launch`] starts): the bounded
//!   pending queue drained by the worker pool (`worker_loop`/`run_job`).
//!   Every fan-out — events, `Running`, progress, `Retrying`, suspension
//!   and the final verdict — visits the execution's owner first, then its
//!   followers (`Registry::subscribers`). The one other transition,
//!   `promote_follower`, hands a cancelled owner's execution to its first
//!   follower.
//! * **fleet** (the server inside a [`crate::cluster::Coordinator`]): the
//!   job is placed on a `qas serve` shard and holds no thread here; the
//!   shard's completion watcher calls the same `finish` with the shard's
//!   outcome. See [`crate::cluster::coordinator`].
//!
//! [`JobServer::reply`] renders every protocol reply about a job from its
//! record, whichever executor ran it.

use crate::cache::{spec_cache_key, CacheConfig, CacheStats, ResultCache, SpecKey};
use crate::cluster::admission::{AdmissionConfig, AdmissionControl};
use crate::cluster::coordinator::{Fleet, Placement};
use crate::error::SearchError;
use crate::evaluator::{EnergyCache, EnergyCacheStats};
use crate::events::SearchEvent;
use crate::fault::{self, site, FaultContext, FaultInjector};
use crate::report::SearchReport;
use crate::search::{SearchConfig, SearchOutcome};
use crate::session::{Canceller, SearchCheckpoint, SearchDriver, SearchProgress, SearchStatus};
use crate::store::{JobStore, JournalRecord, ReplayedState, StoreConfig};
use crate::sync::{lock_recover, wait_recover, wait_timeout_recover};
use graphs::Graph;
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identifier of a submitted job (monotonically increasing per server,
/// preserved across restarts by the durable store).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A search job: configuration, training graphs, and scheduling metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSpec {
    /// Optional caller-supplied label (shown in status listings).
    pub name: Option<String>,
    /// Higher runs first; ties serve in submission order.
    pub priority: i32,
    /// Per-job deadline in seconds: on expiry the session is cooperatively
    /// cancelled and the job recorded as [`JobState::TimedOut`]. `None`
    /// runs unbounded.
    pub timeout_secs: Option<f64>,
    /// Automatic retries granted for **transient** failures
    /// ([`SearchError::is_transient`]); each retry resumes from the last
    /// checkpoint. `0` (the default) fails on first transient error.
    pub max_retries: u32,
    /// Base backoff before retry attempt `n`, growing as
    /// `retry_backoff_ms * 2^(n-1)` — deterministic, not jittered, so
    /// chaos tests replay exactly.
    pub retry_backoff_ms: u64,
    /// The search configuration (execution mode included).
    pub config: SearchConfig,
    /// The training graphs.
    pub graphs: Vec<Graph>,
}

impl JobSpec {
    /// A job with default priority 0, no name, no deadline, no retries.
    pub fn new(config: SearchConfig, graphs: Vec<Graph>) -> JobSpec {
        JobSpec {
            name: None,
            priority: 0,
            timeout_secs: None,
            max_retries: 0,
            retry_backoff_ms: 100,
            config,
            graphs,
        }
    }

    /// Set the priority.
    pub fn priority(mut self, priority: i32) -> JobSpec {
        self.priority = priority;
        self
    }

    /// Set the label.
    pub fn name(mut self, name: impl Into<String>) -> JobSpec {
        self.name = Some(name.into());
        self
    }

    /// Set the per-job deadline.
    pub fn timeout_secs(mut self, secs: f64) -> JobSpec {
        self.timeout_secs = Some(secs);
        self
    }

    /// Set the transient-failure retry budget.
    pub fn max_retries(mut self, retries: u32) -> JobSpec {
        self.max_retries = retries;
        self
    }

    /// Set the base retry backoff in milliseconds.
    pub fn retry_backoff_ms(mut self, millis: u64) -> JobSpec {
        self.retry_backoff_ms = millis;
        self
    }
}

/// Queue/lifecycle state of a job.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Waiting in the bounded queue.
    Queued,
    /// A worker is driving its search session.
    Running,
    /// A transient failure consumed retry attempt `attempt`; the job is
    /// back in the queue behind a deterministic exponential backoff and
    /// will resume from its last checkpoint.
    Retrying {
        /// 1-based retry attempt underway.
        attempt: u32,
    },
    /// Finished every depth; the outcome is ready.
    Completed,
    /// Cancelled (instantly if queued; cooperatively if running — a partial
    /// outcome may still be available).
    Cancelled,
    /// The per-job deadline ([`JobSpec::timeout_secs`]) expired; the
    /// session was cooperatively cancelled.
    TimedOut,
    /// The session failed. `panic` carries the panic message when the
    /// failure was a caught panic rather than a typed error.
    Failed {
        /// The panic payload, if the job died panicking.
        panic: Option<String>,
    },
}

impl JobState {
    /// Whether the job can no longer change state.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Completed
                | JobState::Cancelled
                | JobState::TimedOut
                | JobState::Failed { .. }
        )
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobState::Queued => write!(f, "queued"),
            JobState::Running => write!(f, "running"),
            JobState::Retrying { attempt } => write!(f, "retrying (attempt {attempt})"),
            JobState::Completed => write!(f, "completed"),
            JobState::Cancelled => write!(f, "cancelled"),
            JobState::TimedOut => write!(f, "timed-out"),
            JobState::Failed { .. } => write!(f, "failed"),
        }
    }
}

/// A point-in-time public view of one job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobStatus {
    /// The job id.
    pub id: u64,
    /// Caller-supplied label, if any.
    pub name: Option<String>,
    /// Scheduling priority.
    pub priority: i32,
    /// Queue/lifecycle state.
    pub state: JobState,
    /// Retry attempts consumed so far.
    pub retries: u32,
    /// Events recorded so far (the `since` cursor for
    /// [`JobServer::events_since`]).
    pub events_recorded: usize,
    /// Search progress, once the session has started.
    pub progress: Option<SearchProgress>,
    /// Whether the result was served from the content-addressed result
    /// cache (no engine ran for this job).
    pub cache_hit: bool,
    /// Whether this job was coalesced onto another identical in-flight
    /// execution instead of running its own engine.
    pub coalesced: bool,
}

/// Server tuning knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobServerConfig {
    /// Concurrent worker threads (each drives one job at a time).
    pub workers: usize,
    /// Maximum jobs waiting in the queue (running jobs do not count).
    pub queue_capacity: usize,
    /// Maximum **terminal** job records retained (event logs + outcomes).
    /// When a job reaches a terminal state beyond this bound, the oldest
    /// terminal records are evicted — a long-lived server stays bounded on
    /// both ends (queued work by `queue_capacity`, history by this).
    /// Clients can also drop records eagerly with [`JobServer::forget`].
    pub max_retained_jobs: usize,
}

impl Default for JobServerConfig {
    fn default() -> Self {
        JobServerConfig {
            workers: 2,
            queue_capacity: 64,
            max_retained_jobs: 256,
        }
    }
}

/// Extra launch-time wiring: the durable store, the fault-injection
/// harness, and the result/evaluator caching tier.
#[derive(Debug)]
pub struct ServerOptions {
    /// Journal jobs under this state dir and recover them on launch.
    pub store: Option<StoreConfig>,
    /// Armed fault plan, threaded into every job (chaos tests; inert in
    /// release builds — see [`crate::fault`]).
    pub faults: Option<Arc<FaultInjector>>,
    /// Result cache + request coalescing + shared evaluator cache.
    /// `Some(CacheConfig::default())` (in-memory, bounded) by default;
    /// `None` disables all three tiers — the `--no-cache` path, pinned
    /// bit-identical to the pre-cache server.
    pub cache: Option<CacheConfig>,
    /// Operator-assigned identity reported in [`ServerStats::shard_id`]
    /// (`--shard-id`; `None` for a standalone server). Purely
    /// informational — a cluster coordinator uses it to tell shard
    /// restarts apart from slow shards.
    pub shard_id: Option<String>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            store: None,
            faults: None,
            cache: Some(CacheConfig::default()),
            shard_id: None,
        }
    }
}

/// A point-in-time summary of the whole server: queue depth, job counts
/// by state, and (when caching is enabled) both cache tiers' counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Seconds since this server was launched. A cluster coordinator
    /// watches this across heartbeats: a decrease means the shard
    /// restarted (losing non-durable state), not merely stalled.
    pub uptime_secs: f64,
    /// The serving crate's version (`CARGO_PKG_VERSION`).
    pub version: String,
    /// Operator-assigned shard identity ([`ServerOptions::shard_id`]).
    pub shard_id: Option<String>,
    /// Entries waiting in the bounded queue (running jobs not counted).
    pub queue_depth: usize,
    /// Jobs currently [`JobState::Queued`].
    pub jobs_queued: usize,
    /// Jobs currently [`JobState::Running`].
    pub jobs_running: usize,
    /// Jobs currently [`JobState::Retrying`].
    pub jobs_retrying: usize,
    /// Retained jobs that finished [`JobState::Completed`].
    pub jobs_completed: usize,
    /// Retained jobs that finished [`JobState::Cancelled`].
    pub jobs_cancelled: usize,
    /// Retained jobs that finished [`JobState::TimedOut`].
    pub jobs_timed_out: usize,
    /// Retained jobs that finished [`JobState::Failed`].
    pub jobs_failed: usize,
    /// Result-cache counters (`None` when caching is disabled). The
    /// `coalesced` counter counts follower attachments (tier 2).
    pub cache: Option<CacheStats>,
    /// Shared evaluator-cache counters (`None` when caching is disabled).
    pub energy_cache: Option<EnergyCacheStats>,
}

/// What [`JobServer::launch`] recovered from a durable store's journal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Valid journal records replayed.
    pub journal_records: usize,
    /// Trailing records dropped as torn/corrupt.
    pub dropped_records: usize,
    /// Incomplete jobs re-enqueued with a checkpoint to resume from.
    pub resumed_jobs: usize,
    /// Incomplete jobs re-enqueued from scratch (no checkpoint yet).
    pub requeued_jobs: usize,
    /// Terminal jobs whose results were restored.
    pub terminal_jobs: usize,
    /// Whether the previous server stopped cleanly.
    pub clean_shutdown: bool,
}

pub(crate) struct JobRecord {
    name: Option<String>,
    priority: i32,
    pub(crate) state: JobState,
    pub(crate) spec: Option<JobSpec>,
    /// The job's events; for a placed job, only those the coordinator
    /// itself recorded ([`SearchEvent::Migrated`]).
    pub(crate) events: Vec<SearchEvent>,
    canceller: Option<Canceller>,
    pub(crate) progress: Option<SearchProgress>,
    pub(crate) result: Option<Result<SearchOutcome, SearchError>>,
    pub(crate) retries: u32,
    /// Last checkpoint taken at a depth boundary (what retries and — via
    /// the journal — restarts resume from).
    checkpoint: Option<SearchCheckpoint>,
    /// Set by an explicit [`JobServer::cancel`] on a running job, so
    /// shutdown-suspension never resurrects a job the user killed.
    user_cancelled: bool,
    /// Follower job ids coalesced onto this execution (leaders only).
    followers: Vec<u64>,
    /// The execution this job is coalesced onto (followers only);
    /// cleared when the follower detaches or the execution settles.
    leader: Option<u64>,
    /// The content-address of this execution's spec, kept so its result
    /// can be inserted into the cache at settle time (leaders only).
    cache_key: Option<SpecKey>,
    /// Served instantly from the result cache — no engine ran.
    pub(crate) cache_hit: bool,
    /// Attached to another in-flight execution instead of running.
    pub(crate) coalesced: bool,
    /// The tenant whose quota slot the job holds until `finish`.
    tenant: Option<String>,
    /// Where the fleet executor placed the job (fleet servers only).
    pub(crate) placement: Option<Placement>,
}

impl JobRecord {
    /// A fresh queued record for `spec` (no events, no result yet).
    pub(crate) fn queued(spec: JobSpec, tenant: Option<String>) -> JobRecord {
        JobRecord {
            name: spec.name.clone(),
            priority: spec.priority,
            state: JobState::Queued,
            spec: Some(spec),
            events: Vec::new(),
            canceller: None,
            progress: None,
            result: None,
            retries: 0,
            checkpoint: None,
            user_cancelled: false,
            followers: Vec::new(),
            leader: None,
            cache_key: None,
            cache_hit: false,
            coalesced: false,
            tenant,
            placement: None,
        }
    }
}

/// One queue entry; `ready_at` defers retry attempts (backoff).
struct PendingEntry {
    id: u64,
    ready_at: Option<Instant>,
}

pub(crate) struct Registry {
    pub(crate) jobs: HashMap<u64, JobRecord>,
    /// Entries waiting to run (ordering resolved at pop time).
    pending: Vec<PendingEntry>,
    next_id: u64,
    pub(crate) shutdown: bool,
    /// Cache-key hash → job id of the one in-flight execution for that
    /// spec; identical submissions attach here as followers.
    inflight: HashMap<u64, u64>,
    /// Old execution id → promoted follower id. When a leader is
    /// cancelled mid-run its engine keeps going, but the worker thread
    /// still holds the old id — every worker-side registry access
    /// resolves through this map ([`resolve_exec`]).
    exec_alias: HashMap<u64, u64>,
    /// Bumped with every `done_cv` notification (`notify_done`): the
    /// cursor [`JobServer::wait_any`] waits past.
    completions: u64,
}

/// Follow promotion aliases to the job record currently owning the
/// execution that started under `id`.
fn resolve_exec(registry: &Registry, id: u64) -> u64 {
    let mut current = id;
    while let Some(&next) = registry.exec_alias.get(&current) {
        current = next;
    }
    current
}

impl Registry {
    /// The execution's owner `exec`, then its coalesced followers: the
    /// order every update of a shared execution fans out in. The ids are
    /// cloned out so the registry can be re-borrowed per subscriber.
    fn subscribers(&self, exec: u64) -> Vec<u64> {
        let mut ids = vec![exec];
        if let Some(record) = self.jobs.get(&exec) {
            ids.extend_from_slice(&record.followers);
        }
        ids
    }

    /// Take `exec`'s cache key and drop it from the coalescing index if
    /// `exec` still owns that entry, so identical submissions stop
    /// attaching to it.
    fn unregister(&mut self, exec: u64) -> Option<SpecKey> {
        let key = self.jobs.get_mut(&exec)?.cache_key.take()?;
        if self.inflight.get(&key.hash) == Some(&exec) {
            self.inflight.remove(&key.hash);
        }
        Some(key)
    }
}

/// Record `event` (and fresh progress) on every subscriber of `exec` —
/// each owns its copy of the stream, so cursors and `forget` stay
/// independent.
fn push_shared_event(
    registry: &mut Registry,
    exec: u64,
    event: &SearchEvent,
    progress: SearchProgress,
) {
    for id in registry.subscribers(exec) {
        if let Some(record) = registry.jobs.get_mut(&id) {
            record.events.push(event.clone());
            record.progress = Some(progress.clone());
        }
    }
}

/// Hand the execution owned by `old` to its first follower: the promoted
/// record inherits the canceller, checkpoint, retry count, and cache key;
/// remaining followers re-point to it; any pending queue entry is
/// re-addressed; and an `exec_alias` entry redirects the worker thread
/// (which may still be driving under `old`'s id). Returns the new owner,
/// or `None` when `old` has no followers.
fn promote_follower(registry: &mut Registry, old: u64) -> Option<u64> {
    let (followers, canceller, checkpoint, cache_key, retries, state) = {
        let record = registry.jobs.get_mut(&old)?;
        if record.followers.is_empty() {
            return None;
        }
        (
            std::mem::take(&mut record.followers),
            record.canceller.take(),
            record.checkpoint.take(),
            record.cache_key.take(),
            record.retries,
            record.state.clone(),
        )
    };
    let new = followers[0];
    let rest = &followers[1..];
    if let Some(promoted) = registry.jobs.get_mut(&new) {
        promoted.leader = None;
        promoted.followers = rest.to_vec();
        promoted.canceller = canceller;
        promoted.checkpoint = checkpoint;
        promoted.cache_key = cache_key.clone();
        promoted.retries = retries;
        promoted.state = state;
    }
    for follower in rest {
        if let Some(record) = registry.jobs.get_mut(follower) {
            record.leader = Some(new);
        }
    }
    if let Some(key) = &cache_key {
        if let Some(owner) = registry.inflight.get_mut(&key.hash) {
            if *owner == old {
                *owner = new;
            }
        }
    }
    for target in registry.exec_alias.values_mut() {
        if *target == old {
            *target = new;
        }
    }
    registry.exec_alias.insert(old, new);
    for entry in &mut registry.pending {
        if entry.id == old {
            entry.id = new;
        }
    }
    Some(new)
}

pub(crate) struct ServerInner {
    config: JobServerConfig,
    pub(crate) registry: Mutex<Registry>,
    /// Signalled when work arrives or shutdown begins.
    work_cv: Condvar,
    /// Signalled whenever a job reaches a terminal state.
    pub(crate) done_cv: Condvar,
    /// The durable journal, when launched with a state dir. Lock order:
    /// `registry` before `store`, everywhere.
    store: Option<Mutex<JobStore>>,
    /// Journal a checkpoint every N completed depths.
    checkpoint_every: usize,
    /// Armed fault plan shared by every job context.
    faults: Option<Arc<FaultInjector>>,
    /// Content-addressed result cache. Never locked while holding
    /// `registry` (lookups happen before, inserts after).
    cache: Option<Mutex<ResultCache>>,
    /// Server-scoped evaluator cache shared across jobs.
    energy_cache: Option<EnergyCache>,
    /// Launch instant, reported as [`ServerStats::uptime_secs`].
    started: Instant,
    /// Operator-assigned identity ([`ServerOptions::shard_id`]).
    shard_id: Option<String>,
    /// The gates every submission passes first.
    pub(crate) admission: AdmissionControl,
    /// The shard fleet that runs the jobs instead of the worker pool.
    pub(crate) fleet: Option<Fleet>,
}

/// A running job server; dropping it (or calling [`JobServer::shutdown`])
/// cancels outstanding work and joins the workers.
pub struct JobServer {
    pub(crate) inner: Arc<ServerInner>,
    /// The executor's threads: the worker pool, or the fleet's heartbeat
    /// and completion watchers.
    workers: Vec<JoinHandle<()>>,
    recovery: Option<RecoveryReport>,
}

/// A protocol reply [`JobServer::reply`] renders from the server's records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// `submit`: the job id, its post-submit state, and whether it was a
    /// cache hit or coalesced.
    Submitted(JobId),
    /// `status`: `{"status": <JobStatus>}`.
    Status(JobId),
    /// `result` and `wait`: the outcome's report or error once the job has
    /// ended (`done`), its state until then.
    Result(JobId),
    /// One entry of `wait_any`'s `done`: the job's status with its outcome
    /// or error, as the journal serializes them — what a fleet needs to
    /// end its own record of the job.
    Ended(JobId),
    /// `jobs`: every job's status, in submission order.
    Jobs,
    /// `stats`: [`ServerStats`], or for a fleet the
    /// [`crate::cluster::ClusterStats`] aggregate.
    Stats,
}

/// A [`Reply::Ended`] entry, read back by the fleet executor.
#[derive(Debug, Deserialize)]
pub(crate) struct Ended {
    pub(crate) status: JobStatus,
    pub(crate) outcome: Option<SearchOutcome>,
    pub(crate) error: Option<SearchError>,
}

/// The reply to a refused request: `ok:false` with the error, plus
/// `queue_full` for a full queue (a fleet retries it) and
/// `admission_rejected` with `retry_after_ms` for an admission gate.
pub fn error_reply(error: &SearchError) -> Value {
    let mut reply = json!({ "ok": false, "error": (error.to_string()) });
    let extra = match error {
        SearchError::QueueFull { .. } => json!({ "queue_full": true }),
        SearchError::AdmissionDenied { retry_after_ms, .. } => {
            json!({ "admission_rejected": true, "retry_after_ms": (*retry_after_ms) })
        }
        _ => return reply,
    };
    append(&mut reply, extra);
    reply
}

/// Append `extra`'s entries to the object `value`.
fn append(value: &mut Value, extra: Value) {
    if let (Value::Object(entries), Value::Object(extra)) = (value, extra) {
        entries.extend(extra);
    }
}

impl JobServer {
    /// Start an in-memory server with the given worker pool and queue
    /// bound (no durability; see [`JobServer::launch`]).
    pub fn start(config: JobServerConfig) -> JobServer {
        Self::launch(config, ServerOptions::default())
            .expect("launching without a store cannot fail")
    }

    /// Start a server with explicit options. With a [`StoreConfig`] the
    /// journal under its state dir is replayed first: terminal jobs get
    /// their results back, incomplete jobs are re-enqueued (resuming from
    /// their last checkpoint), and every later transition is journaled
    /// write-ahead. See [`JobServer::recovery`] for what was recovered.
    pub fn launch(
        config: JobServerConfig,
        options: ServerOptions,
    ) -> Result<JobServer, SearchError> {
        Self::launch_with(config, options, AdmissionConfig::default(), None)
    }

    /// [`JobServer::launch`] with admission gates, and with `fleet` as the
    /// executor in place of the worker pool.
    pub(crate) fn launch_with(
        config: JobServerConfig,
        options: ServerOptions,
        admission: AdmissionConfig,
        fleet: Option<Fleet>,
    ) -> Result<JobServer, SearchError> {
        let config = JobServerConfig {
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity.max(1),
            max_retained_jobs: config.max_retained_jobs.max(1),
        };
        let faults = options.faults;
        if let (Some(store_config), Some(cache_config)) = (&options.store, &options.cache) {
            if cache_config.dir.as_deref() == Some(store_config.dir.as_path()) {
                return Err(SearchError::InvalidConfig {
                    message: "cache dir must differ from the job-store state dir \
                              (both own a journal.log)"
                        .to_string(),
                });
            }
        }
        // The cache journal runs without fault injection: chaos plans
        // target the job store's append site, and a cache that degrades
        // mid-test would mask the behaviour under test.
        let (cache, energy_cache) = match &options.cache {
            Some(cache_config) => {
                let (cache, _recovered) = ResultCache::open(cache_config)?;
                (
                    Some(Mutex::new(cache)),
                    Some(EnergyCache::bounded(cache_config.evaluator_capacity)),
                )
            }
            None => (None, None),
        };
        let mut registry = Registry {
            jobs: HashMap::new(),
            pending: Vec::new(),
            next_id: 1,
            shutdown: false,
            inflight: HashMap::new(),
            exec_alias: HashMap::new(),
            completions: 0,
        };
        let mut checkpoint_every = 1;
        let mut recovery = None;
        let store = match options.store {
            Some(store_config) => {
                checkpoint_every = store_config.checkpoint_every.max(1);
                let store_faults = faults
                    .as_ref()
                    .map(|injector| FaultContext::new(Arc::clone(injector), None));
                let (store, replayed) =
                    JobStore::open_with_faults(&store_config.dir, store_faults)?;
                recovery = Some(rebuild_registry(
                    &mut registry,
                    &replayed,
                    &config,
                    cache.is_some(),
                ));
                Some(Mutex::new(store))
            }
            None => None,
        };
        let inner = Arc::new(ServerInner {
            config,
            registry: Mutex::new(registry),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            store,
            checkpoint_every,
            faults,
            cache,
            energy_cache,
            started: Instant::now(),
            shard_id: options.shard_id,
            admission: AdmissionControl::new(admission),
            fleet,
        });
        let workers = match &inner.fleet {
            Some(_) => Fleet::spawn(&inner),
            None => (0..inner.config.workers)
                .map(|i| {
                    let inner = Arc::clone(&inner);
                    std::thread::Builder::new()
                        .name(format!("qas-job-worker-{i}"))
                        .spawn(move || worker_loop(inner))
                        .expect("spawn job worker")
                })
                .collect(),
        };
        Ok(JobServer {
            inner,
            workers,
            recovery,
        })
    }

    /// What launch recovered from the durable store's journal (`None` for
    /// in-memory servers).
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Submit a job. Fails fast with [`SearchError::QueueFull`] when the
    /// bounded queue is at capacity, and validates the configuration before
    /// accepting (a job that could never start is rejected here, not
    /// buried in a failed record).
    ///
    /// With caching enabled the submission is content-addressed first: a
    /// result-cache hit completes instantly (no queue slot consumed), and
    /// a spec identical to an in-flight execution attaches as a follower
    /// of that execution instead of queueing its own.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SearchError> {
        self.submit_as(spec, None, None)
    }

    /// [`JobServer::submit`] on behalf of `tenant` (`None` = anonymous,
    /// quota-exempt), optionally resuming from an externally recovered
    /// `checkpoint` — a coordinator's migration path (the checkpoint comes
    /// out of a dead shard's journal). The spec is validated first (a
    /// malformed spec never burns a rate token), then the admission gates
    /// run; an admitted job holds one of its tenant's in-flight slots until
    /// `finish` ends it. A fleet places the job on a shard instead of
    /// queueing it here.
    ///
    /// A checkpointed submission deliberately bypasses the result-cache
    /// and coalescing tiers: a migrated execution must actually run to
    /// terminal (its follower set lives on the coordinator, not here),
    /// and it must not become a coalescing leader whose mid-flight state
    /// contradicts a fresh identical submission. Both the spec and the
    /// checkpoint are journaled, so a shard that dies *after* adopting a
    /// migrated job can itself be migrated from the same resume point.
    pub fn submit_as(
        &self,
        spec: JobSpec,
        checkpoint: Option<SearchCheckpoint>,
        tenant: Option<String>,
    ) -> Result<JobId, SearchError> {
        if spec.graphs.is_empty() {
            return Err(SearchError::NoGraphs);
        }
        spec.config.validate()?;
        self.inner.admission.admit(tenant.as_deref())?;
        let submitted = match &self.inner.fleet {
            Some(fleet) => fleet.submit(&self.inner, spec, checkpoint, tenant.clone()),
            None => self.enqueue(spec, checkpoint, tenant.clone()),
        };
        if submitted.is_err() {
            // The job never entered the server: hand the slot back.
            self.inner.admission.release(tenant.as_deref());
        }
        submitted
    }

    /// The local executor's submission: result cache, coalescing, queue.
    fn enqueue(
        &self,
        spec: JobSpec,
        checkpoint: Option<SearchCheckpoint>,
        tenant: Option<String>,
    ) -> Result<JobId, SearchError> {
        let key = match (&self.inner.cache, &checkpoint) {
            (Some(_), None) => Some(spec_cache_key(&spec)?),
            _ => None,
        };
        // Tier 1: result cache. Looked up before the registry lock (the
        // cache mutex is never nested inside it); a concurrent insert
        // between this miss and the registry lock only costs a recompute.
        let cached = match (&self.inner.cache, &key) {
            (Some(cache), Some(key)) => lock_recover(cache).lookup(key),
            _ => None,
        };
        let mut registry = self.lock_registry();
        if registry.shutdown {
            return Err(SearchError::Evaluation {
                message: "job server is shutting down".to_string(),
            });
        }
        if let (Some(outcome), Some(key)) = (cached, &key) {
            // A hit is born terminal, with a synthetic `CacheHit` +
            // `Finished` event pair and the cached outcome.
            let progress = SearchProgress {
                status: SearchStatus::Finished,
                depths_completed: outcome.depth_results.len(),
                max_depth: spec.config.max_depth,
                candidates_evaluated: outcome.num_candidates_evaluated,
                optimizer_evaluations: outcome.total_optimizer_evaluations,
                best_energy: Some(outcome.best.energy),
                elapsed_seconds: 0.0,
            };
            let finished = SearchEvent::Finished {
                best_mixer: outcome.best.mixer_label.clone(),
                best_depth: outcome.best.depth,
                best_energy: outcome.best.energy,
                candidates_evaluated: outcome.num_candidates_evaluated,
            };
            let record = JobRecord {
                events: vec![SearchEvent::CacheHit { key: key.hex() }],
                progress: Some(progress),
                cache_hit: true,
                ..JobRecord::queued(spec, tenant)
            };
            let id = admit(&self.inner, &mut registry, record);
            let result = Ok((*outcome).clone());
            finish(
                &self.inner,
                &mut registry,
                &[id],
                JobState::Completed,
                &result,
                Some(finished),
            );
            notify_done(&self.inner, registry);
            return Ok(JobId(id));
        }
        // Tier 2: request coalescing. An identical spec already queued or
        // running gets a follower record mirroring that execution instead
        // of a queue slot. Deadline/retry budgets must match — a follower
        // inherits the leader's schedule verbatim.
        let leader = key.as_ref().and_then(|key| {
            let exec = resolve_exec(&registry, *registry.inflight.get(&key.hash)?);
            let leader = registry.jobs.get(&exec)?;
            let attachable = !leader.state.is_terminal()
                && leader
                    .cache_key
                    .as_ref()
                    .is_some_and(|k| k.canonical == key.canonical)
                && leader.spec.as_ref().is_some_and(|leader_spec| {
                    leader_spec.timeout_secs == spec.timeout_secs
                        && leader_spec.max_retries == spec.max_retries
                });
            attachable.then_some(exec)
        });
        if let Some(exec) = leader {
            let leader = &registry.jobs[&exec];
            // The follower keeps its own spec so it can take over the
            // execution if the leader is cancelled (promotion).
            let record = JobRecord {
                state: leader.state.clone(),
                events: leader.events.clone(),
                progress: leader.progress.clone(),
                retries: leader.retries,
                leader: Some(exec),
                coalesced: true,
                ..JobRecord::queued(spec, tenant)
            };
            let id = admit(&self.inner, &mut registry, record);
            let leader = registry
                .jobs
                .get_mut(&exec)
                .expect("attachable leader exists");
            leader.followers.push(id);
            drop(registry);
            if let Some(cache) = &self.inner.cache {
                lock_recover(cache).note_coalesced();
            }
            return Ok(JobId(id));
        }
        // Tier 3: a genuinely new execution, resuming from `checkpoint`
        // when one was handed over.
        if registry.pending.len() >= self.inner.config.queue_capacity {
            return Err(SearchError::QueueFull {
                capacity: self.inner.config.queue_capacity,
            });
        }
        let hash = key.as_ref().map(|key| key.hash);
        let record = JobRecord {
            checkpoint: checkpoint.clone(),
            cache_key: key,
            ..JobRecord::queued(spec, tenant)
        };
        let id = admit(&self.inner, &mut registry, record);
        if let Some(checkpoint) = checkpoint {
            journal(&self.inner, &JournalRecord::Checkpoint { id, checkpoint });
        }
        if let Some(hash) = hash {
            registry.inflight.insert(hash, id);
        }
        registry.pending.push(PendingEntry { id, ready_at: None });
        drop(registry);
        if let (Some(cache), Some(_)) = (&self.inner.cache, hash) {
            lock_recover(cache).note_miss();
        }
        self.inner.work_cv.notify_one();
        Ok(JobId(id))
    }

    /// Cancel a job: queued (and backoff-waiting) jobs are cut instantly,
    /// running jobs cooperatively (their partial outcome, if any, stays
    /// retrievable). Returns `false` for unknown or already-terminal jobs.
    ///
    /// Coalesced jobs have detachment semantics: cancelling a *follower*
    /// only detaches it (the shared execution runs on), and cancelling a
    /// *leader* with followers promotes its first follower to own the
    /// execution — the engine is never stopped while a live subscriber
    /// still wants the result.
    ///
    /// A fleet passes the cancel on to the job's shard and answers with the
    /// shard's verdict (`false` if the shard cannot be reached); the job
    /// ends when the shard's completion watcher reports it.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut registry = self.lock_registry();
        let Some(record) = registry.jobs.get_mut(&id.0) else {
            return false;
        };
        if record.state.is_terminal() {
            return false;
        }
        if let (Some(fleet), Some(placed)) = (&self.inner.fleet, &mut record.placement) {
            // Marked before the shard can report the cancellation.
            placed.cancel_requested = true;
            let target = (placed.shard, placed.shard_job);
            drop(registry);
            return fleet.cancel(target);
        }
        let completed_depths = record.progress.as_ref().map_or(0, |p| p.depths_completed);
        let cancelled = SearchEvent::Cancelled { completed_depths };
        let event = if let Some(exec) = record.leader {
            // Follower: detach from the shared execution; nothing else stops.
            if let Some(leader) = registry.jobs.get_mut(&exec) {
                leader.followers.retain(|f| *f != id.0);
            }
            Some(cancelled)
        } else if record.state == JobState::Running && record.followers.is_empty() {
            // The only subscriber of a running execution: stop the engine
            // cooperatively and let the worker settle the job.
            record.user_cancelled = true;
            if let Some(canceller) = &record.canceller {
                canceller.cancel();
            }
            // Unregister from the coalescing index immediately: a
            // submission racing this cancel must start fresh, not attach
            // to an execution that is winding down.
            registry.unregister(id.0);
            return true;
        } else {
            // An owner hands its execution — the pending entry, or the
            // running engine the worker reaches through `exec_alias` — to
            // its first follower, if it has one; then only this subscriber
            // is cut.
            let ended = record.events.last().is_some_and(|e| e.is_terminal());
            promote_follower(&mut registry, id.0);
            registry.pending.retain(|entry| entry.id != id.0);
            (!ended).then_some(cancelled)
        };
        let result = Err(SearchError::Cancelled);
        finish(
            &self.inner,
            &mut registry,
            &[id.0],
            JobState::Cancelled,
            &result,
            event,
        );
        notify_done(&self.inner, registry);
        true
    }

    /// Status of one job. A fleet first asks the shard of a job still in
    /// flight for its state and progress.
    pub fn status(&self, id: JobId) -> Result<JobStatus, SearchError> {
        if let Some(fleet) = &self.inner.fleet {
            fleet.refresh_status(&self.inner, id.0)?;
        }
        let registry = self.lock_registry();
        registry
            .jobs
            .get(&id.0)
            .map(|r| status_of(id.0, r))
            .ok_or(SearchError::UnknownJob { id: id.0 })
    }

    /// Status of every job, in submission order.
    pub fn jobs(&self) -> Vec<JobStatus> {
        let registry = self.lock_registry();
        sorted_ids(&registry)
            .into_iter()
            .map(|id| status_of(id, &registry.jobs[&id]))
            .collect()
    }

    /// The job's recorded events from cursor `since` on, plus the next
    /// cursor value. Events are recorded in the session's deterministic
    /// emission order; retried jobs concatenate the streams of their
    /// attempts. (Jobs recovered terminal from a journal replay carry no
    /// event log — only their result.) A fleet follows the coordinator's
    /// own events with the stream of the shard that holds the job.
    pub fn events_since(
        &self,
        id: JobId,
        since: usize,
    ) -> Result<(Vec<SearchEvent>, usize), SearchError> {
        if let Some(fleet) = &self.inner.fleet {
            return fleet.events(&self.inner, id.0, since);
        }
        let registry = self.lock_registry();
        let record = registry
            .jobs
            .get(&id.0)
            .ok_or(SearchError::UnknownJob { id: id.0 })?;
        let start = since.min(record.events.len());
        Ok((record.events[start..].to_vec(), record.events.len()))
    }

    /// The job's outcome, if it has reached a terminal state (`None` while
    /// queued or running). Cancelled jobs report their partial outcome when
    /// at least one depth completed.
    pub fn result(
        &self,
        id: JobId,
    ) -> Result<Option<Result<SearchOutcome, SearchError>>, SearchError> {
        let registry = self.lock_registry();
        let record = registry
            .jobs
            .get(&id.0)
            .ok_or(SearchError::UnknownJob { id: id.0 })?;
        Ok(record.result.clone())
    }

    /// Block until the job reaches a terminal state and return its outcome.
    /// A fleet's shards keep running its jobs after it stops, so there a
    /// wait errs once shutdown has begun.
    pub fn wait(&self, id: JobId) -> Result<Result<SearchOutcome, SearchError>, SearchError> {
        let mut registry = self.lock_registry();
        loop {
            let Some(record) = registry.jobs.get(&id.0) else {
                return Err(SearchError::UnknownJob { id: id.0 });
            };
            if let Some(result) = record.result.clone() {
                return Ok(result);
            }
            if registry.shutdown && self.inner.fleet.is_some() {
                return Err(SearchError::Cluster {
                    message: "coordinator is shutting down".to_string(),
                });
            }
            registry = wait_recover(&self.inner.done_cv, registry);
        }
    }

    /// Block until one of `ids` has ended, the completion count has passed
    /// `since`, or shutdown has begun. Returns the count and every listed
    /// job that has ended (its [`JobServer::result`] is set), in `ids`
    /// order; unknown ids are ignored. A caller that lists its jobs and
    /// passes the count it was last given also hears of the jobs it could
    /// not list yet: their ending moves the count.
    pub fn wait_any(&self, ids: &[JobId], since: u64) -> (u64, Vec<JobId>) {
        let mut registry = self.lock_registry();
        loop {
            let done: Vec<JobId> = ids
                .iter()
                .copied()
                .filter(|id| registry.jobs.get(&id.0).is_some_and(|r| r.result.is_some()))
                .collect();
            if !done.is_empty() || registry.completions > since || registry.shutdown {
                return (registry.completions, done);
            }
            registry = wait_recover(&self.inner.done_cv, registry);
        }
    }

    /// Drop a **terminal** job's record (event log, outcome). Returns
    /// `false` for unknown jobs and refuses queued/running ones (cancel
    /// first). Lets protocol clients reclaim history eagerly instead of
    /// waiting for the `max_retained_jobs` eviction. Durable servers
    /// journal the drop, so forgotten jobs stay forgotten across restarts.
    pub fn forget(&self, id: JobId) -> bool {
        let mut registry = self.lock_registry();
        match registry.jobs.get(&id.0) {
            Some(record) if record.result.is_some() => {
                registry.jobs.remove(&id.0);
                journal(&self.inner, &JournalRecord::Forgotten { id: id.0 });
                true
            }
            _ => false,
        }
    }

    /// Stop accepting work, stop queued and running jobs, and join the
    /// workers. A durable server **suspends** instead of cancels: queued
    /// jobs stay journaled as queued, running jobs journal a final
    /// checkpoint, and a clean-shutdown marker is appended — the next
    /// launch resumes all of them instead of re-running from scratch.
    pub fn shutdown(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.begin_shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.settle_stragglers();
        self.finalize_store();
    }

    /// After the workers have joined, no record can make further progress
    /// — force any survivor (e.g. a follower of a queued leader that never
    /// ran) terminal so waiting clients unblock. In-memory only: durable
    /// replay re-enqueues such jobs fresh on the next launch.
    fn settle_stragglers(&self) {
        let mut registry = self.lock_registry();
        for record in registry.jobs.values_mut() {
            if !record.state.is_terminal() {
                record.state = JobState::Cancelled;
                record.spec = None;
                record.leader = None;
                record.result.get_or_insert(Err(SearchError::Cancelled));
            }
        }
        notify_done(&self.inner, registry);
    }

    /// Begin [`JobServer::shutdown`] without joining anything: stop
    /// accepting work and cancel (or, durably, suspend) queued and running
    /// jobs, so every [`JobServer::wait`] returns once its job's worker
    /// stops. A front door calls this the moment a client asks for
    /// shutdown, so a connection blocked in `wait` does not hold the
    /// process up until its job would have finished.
    pub fn begin_shutdown(&self) {
        let mut registry = self.lock_registry();
        registry.shutdown = true;
        // Pending jobs are cancelled in memory only. Nothing is journaled,
        // so a durable server's replay re-enqueues them on the next launch.
        let pending = std::mem::take(&mut registry.pending);
        for entry in pending {
            if let Some(record) = registry.jobs.get_mut(&entry.id) {
                record.state = JobState::Cancelled;
                record.spec = None;
                record.result = Some(Err(SearchError::Cancelled));
            }
        }
        for record in registry.jobs.values_mut() {
            if let Some(canceller) = &record.canceller {
                canceller.cancel();
            }
        }
        notify_done(&self.inner, registry);
        self.inner.work_cv.notify_all();
        if let Some(fleet) = &self.inner.fleet {
            fleet.close_watchers();
        }
    }

    /// Append the clean-shutdown marker and compact the journal down to
    /// the minimal record set (workers must already be joined).
    fn finalize_store(&self) {
        let Some(store) = &self.inner.store else {
            return;
        };
        let mut store = lock_recover(store);
        if let Err(e) = store.append(&JournalRecord::CleanShutdown) {
            eprintln!("[qas-serve] could not journal clean shutdown: {e}");
        }
        match store.replay_current() {
            Ok(state) => {
                let clean = state.clean_shutdown;
                if let Err(e) = store.compact(&state, clean) {
                    eprintln!("[qas-serve] journal compaction failed: {e}");
                }
            }
            Err(e) => eprintln!("[qas-serve] journal replay for compaction failed: {e}"),
        }
    }

    /// A point-in-time summary: queue depth, job counts by state, and the
    /// counters of both cache tiers (when caching is enabled).
    pub fn stats(&self) -> ServerStats {
        let mut stats = ServerStats {
            workers: self.inner.config.workers,
            uptime_secs: self.inner.started.elapsed().as_secs_f64(),
            version: env!("CARGO_PKG_VERSION").to_string(),
            shard_id: self.inner.shard_id.clone(),
            queue_depth: 0,
            jobs_queued: 0,
            jobs_running: 0,
            jobs_retrying: 0,
            jobs_completed: 0,
            jobs_cancelled: 0,
            jobs_timed_out: 0,
            jobs_failed: 0,
            cache: None,
            energy_cache: None,
        };
        {
            let registry = self.lock_registry();
            stats.queue_depth = registry.pending.len();
            for record in registry.jobs.values() {
                match record.state {
                    JobState::Queued => stats.jobs_queued += 1,
                    JobState::Running => stats.jobs_running += 1,
                    JobState::Retrying { .. } => stats.jobs_retrying += 1,
                    JobState::Completed => stats.jobs_completed += 1,
                    JobState::Cancelled => stats.jobs_cancelled += 1,
                    JobState::TimedOut => stats.jobs_timed_out += 1,
                    JobState::Failed { .. } => stats.jobs_failed += 1,
                }
            }
        }
        stats.cache = self.inner.cache.as_ref().map(|c| lock_recover(c).stats());
        stats.energy_cache = self.inner.energy_cache.as_ref().map(|c| c.stats());
        stats
    }

    /// Render one protocol reply from the server's records: the one
    /// renderer of every envelope `qas serve` and `qas coordinator` send.
    /// A job the fleet placed also carries `shard` (its shard's address)
    /// and `migrations`, and its report `migrated` once it has moved.
    /// Only `Status` and `Stats` may ask a fleet's shards first.
    pub fn reply(&self, reply: Reply) -> Result<Value, SearchError> {
        match reply {
            Reply::Status(id) => {
                self.status(id)?;
            }
            Reply::Stats => {
                let stats = match &self.inner.fleet {
                    Some(fleet) => json!(fleet.stats(&self.inner)),
                    None => json!(self.stats()),
                };
                return Ok(json!({ "ok": true, "stats": stats }));
            }
            _ => {}
        }
        let registry = self.lock_registry();
        let id = match reply {
            Reply::Submitted(id) | Reply::Status(id) | Reply::Result(id) | Reply::Ended(id) => id.0,
            _ => {
                let jobs = sorted_ids(&registry)
                    .into_iter()
                    .map(|id| self.status_value(id, &registry.jobs[&id]))
                    .collect();
                return Ok(json!({ "ok": true, "jobs": (Value::Array(jobs)) }));
            }
        };
        let record = registry
            .jobs
            .get(&id)
            .ok_or(SearchError::UnknownJob { id })?;
        let (state, cache_hit, coalesced) =
            (json!(record.state), record.cache_hit, record.coalesced);
        let migrations = record
            .placement
            .as_ref()
            .map_or(0, |placed| placed.migrations);
        let mut value = match (reply, &record.result) {
            (Reply::Status(_), _) => {
                return Ok(json!({ "ok": true, "status": (self.status_value(id, record)) }))
            }
            (Reply::Ended(_), result) => {
                let outcome = result.as_ref().and_then(|r| r.as_ref().ok());
                let error = result.as_ref().and_then(|r| r.as_ref().err());
                let status = json!(status_of(id, record));
                return Ok(json!({ "status": status, "outcome": outcome, "error": error }));
            }
            (Reply::Submitted(_), _) => json!({
                "ok": true, "job": id, "state": state,
                "cache_hit": cache_hit, "coalesced": coalesced,
            }),
            (_, None) => json!({ "ok": true, "job": id, "state": state, "done": false }),
            (_, Some(Ok(outcome))) => {
                let mut report = SearchReport::from(outcome);
                report.served_from_cache = cache_hit;
                report.migrated = migrations > 0;
                json!({
                    "ok": true, "job": id, "state": state, "done": true,
                    "cache_hit": cache_hit, "coalesced": coalesced, "report": report,
                })
            }
            (_, Some(Err(e))) => json!({
                "ok": true, "job": id, "state": state, "done": true, "error": (e.to_string()),
            }),
        };
        self.stamp(&mut value, record);
        Ok(value)
    }

    /// A job's status as the protocol renders it.
    fn status_value(&self, id: u64, record: &JobRecord) -> Value {
        let mut value = json!(status_of(id, record));
        self.stamp(&mut value, record);
        value
    }

    /// Append a placed job's `shard` and `migrations`.
    fn stamp(&self, value: &mut Value, record: &JobRecord) {
        if let (Some(fleet), Some(placed)) = (&self.inner.fleet, &record.placement) {
            let shard = fleet.addr_of(placed.shard);
            append(
                value,
                json!({ "shard": shard, "migrations": (placed.migrations) }),
            );
        }
    }

    fn lock_registry(&self) -> MutexGuard<'_, Registry> {
        lock_recover(&self.inner.registry)
    }
}

/// The ids of every job, in submission order.
fn sorted_ids(registry: &Registry) -> Vec<u64> {
    let mut ids: Vec<u64> = registry.jobs.keys().copied().collect();
    ids.sort_unstable();
    ids
}

fn status_of(id: u64, record: &JobRecord) -> JobStatus {
    let shard_events = record.placement.as_ref().map_or(0, |p| p.shard_events);
    JobStatus {
        id,
        name: record.name.clone(),
        priority: record.priority,
        state: record.state.clone(),
        retries: record.retries,
        events_recorded: record.events.len() + shard_events,
        progress: record.progress.clone(),
        cache_hit: record.cache_hit,
        coalesced: record.coalesced,
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        self.teardown();
    }
}

impl std::fmt::Debug for JobServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobServer")
            .field("config", &self.inner.config)
            .field("durable", &self.inner.store.is_some())
            .field("jobs", &self.jobs().len())
            .finish()
    }
}

/// Fold a replayed journal into a fresh registry; returns the recovery
/// summary. Incomplete jobs (anything without a journaled result) are
/// re-enqueued — with their last checkpoint when one was journaled.
fn rebuild_registry(
    registry: &mut Registry,
    replayed: &ReplayedState,
    config: &JobServerConfig,
    cache_enabled: bool,
) -> RecoveryReport {
    let mut report = RecoveryReport {
        journal_records: replayed.records,
        dropped_records: replayed.dropped_records,
        resumed_jobs: 0,
        requeued_jobs: 0,
        terminal_jobs: 0,
        clean_shutdown: replayed.clean_shutdown,
    };
    registry.next_id = replayed.next_id;
    for job in replayed.jobs.values() {
        let terminal = job.is_terminal();
        let state = if terminal {
            report.terminal_jobs += 1;
            job.state.clone()
        } else {
            if job.checkpoint.is_some() {
                report.resumed_jobs += 1;
            } else {
                report.requeued_jobs += 1;
            }
            registry.pending.push(PendingEntry {
                id: job.id,
                ready_at: None,
            });
            JobState::Queued
        };
        // Replayed incomplete jobs run independently (no coalescing across
        // a restart), but each keeps its cache key so the result it does
        // compute still lands in the result cache.
        let cache_key = (cache_enabled && !terminal)
            .then(|| spec_cache_key(&job.spec).ok())
            .flatten();
        let mut record = JobRecord {
            state,
            result: job.result.clone(),
            retries: job.retries,
            checkpoint: job.checkpoint.clone(),
            cache_key,
            ..JobRecord::queued(job.spec.clone(), None)
        };
        if terminal {
            record.spec = None;
        }
        registry.jobs.insert(job.id, record);
    }
    let _ = evict_over_retention(registry, config.max_retained_jobs);
    report
}

/// Append `record` to the journal, if the server is durable. Append
/// failures degrade to an in-memory server with a warning instead of
/// taking the serving path down.
fn journal(inner: &ServerInner, record: &JournalRecord) {
    if let Some(store) = &inner.store {
        let mut store = lock_recover(store);
        if let Err(e) = store.append(record) {
            eprintln!("[qas-serve] journal append failed (job state kept in memory only): {e}");
        }
    }
}

/// Admit `record`, which carries the submitted spec, under a fresh id:
/// journal `Submitted`, then insert it. Every job starts here.
pub(crate) fn admit(inner: &ServerInner, registry: &mut Registry, record: JobRecord) -> u64 {
    let id = registry.next_id;
    registry.next_id += 1;
    let spec = record
        .spec
        .clone()
        .expect("an admitted job carries its spec");
    journal(inner, &JournalRecord::Submitted { id, spec });
    registry.jobs.insert(id, record);
    id
}

/// End the jobs `ids`, whose first entry owns the execution: every job
/// ends here. Each job in order records `event` (when the caller has one)
/// and `result`, drops its spec, leader and followers, returns its
/// tenant's quota slot, and journals `Finished` then `State`. Then the
/// execution's coalescing key and
/// promotion aliases are released and terminal records over the retention
/// cap are evicted (and journaled as forgotten). Returns the released key,
/// so a completed result can be cached once the registry lock is dropped.
pub(crate) fn finish(
    inner: &ServerInner,
    registry: &mut Registry,
    ids: &[u64],
    state: JobState,
    result: &Result<SearchOutcome, SearchError>,
    event: Option<SearchEvent>,
) -> Option<SpecKey> {
    for &id in ids {
        let Some(record) = registry.jobs.get_mut(&id) else {
            continue;
        };
        record.events.extend(event.clone());
        record.state = state.clone();
        record.spec = None;
        record.leader = None;
        record.followers = Vec::new();
        record.result = Some(result.clone());
        inner.admission.release(record.tenant.take().as_deref());
        let retries = record.retries;
        journal(
            inner,
            &JournalRecord::Finished {
                id,
                outcome: result.as_ref().ok().cloned(),
                error: result.as_ref().err().cloned(),
            },
        );
        journal(
            inner,
            &JournalRecord::State {
                id,
                state: state.clone(),
                retries,
            },
        );
    }
    let exec = ids[0];
    let key = registry.unregister(exec);
    registry.exec_alias.retain(|_, target| *target != exec);
    for id in evict_over_retention(registry, inner.config.max_retained_jobs) {
        journal(inner, &JournalRecord::Forgotten { id });
    }
    key
}

/// Evict the oldest terminal job records beyond the retention cap (queued
/// and running jobs are never touched). Returns the evicted ids so durable
/// servers can journal the drops.
fn evict_over_retention(registry: &mut Registry, cap: usize) -> Vec<u64> {
    let mut terminal: Vec<u64> = registry
        .jobs
        .iter()
        .filter(|(_, record)| record.result.is_some())
        .map(|(id, _)| *id)
        .collect();
    if terminal.len() <= cap {
        return Vec::new();
    }
    terminal.sort_unstable();
    let evicted: Vec<u64> = terminal.drain(..terminal.len() - cap).collect();
    for id in &evicted {
        registry.jobs.remove(id);
    }
    evicted
}

fn worker_loop(inner: Arc<ServerInner>) {
    loop {
        // Pop the highest-priority *ready* pending job (ties: lowest id
        // first); entries in retry backoff only become ready at `ready_at`.
        let (id, spec, resume_from) = {
            let mut registry = lock_recover(&inner.registry);
            loop {
                if registry.shutdown {
                    return;
                }
                let now = Instant::now();
                let best = registry
                    .pending
                    .iter()
                    .filter(|entry| entry.ready_at.is_none_or(|at| at <= now))
                    .filter(|entry| registry.jobs.contains_key(&entry.id))
                    .map(|entry| entry.id)
                    .max_by_key(|id| {
                        let priority = registry.jobs[id].priority;
                        (priority, std::cmp::Reverse(*id))
                    });
                if let Some(id) = best {
                    registry.pending.retain(|entry| entry.id != id);
                    let record = &registry.jobs[&id];
                    let spec = record.spec.clone().expect("pending job keeps its spec");
                    let resume_from = record.checkpoint.clone();
                    let retries = record.retries;
                    for subscriber in registry.subscribers(id) {
                        if let Some(record) = registry.jobs.get_mut(&subscriber) {
                            record.state = JobState::Running;
                        }
                    }
                    journal(
                        &inner,
                        &JournalRecord::State {
                            id,
                            state: JobState::Running,
                            retries,
                        },
                    );
                    break (id, spec, resume_from);
                }
                // Nothing ready: sleep until new work arrives or the
                // earliest backoff deadline passes.
                let earliest = registry
                    .pending
                    .iter()
                    .filter_map(|entry| entry.ready_at)
                    .min();
                registry = match earliest {
                    Some(at) => {
                        let timeout = at
                            .saturating_duration_since(now)
                            .max(Duration::from_millis(1));
                        wait_timeout_recover(&inner.work_cv, registry, timeout).0
                    }
                    None => wait_recover(&inner.work_cv, registry),
                };
            }
        };

        // Panic isolation: a job blowing up (its own evaluation code, or an
        // injected chaos fault in the drain loop) must never kill the
        // worker. The engine's own panics are already converted to
        // `Err(Panicked)` by `SearchHandle::wait`; this guard catches
        // everything else.
        let ran =
            std::panic::catch_unwind(AssertUnwindSafe(|| run_job(&inner, id, spec, resume_from)));
        if let Err(payload) = ran {
            let message = fault::panic_message(payload.as_ref());
            fail_job_after_panic(&inner, id, message);
        }
        notify_done(&inner, lock_recover(&inner.registry));
    }
}

/// Count a possible job ending under the registry lock, then wake every
/// `done_cv` waiter.
pub(crate) fn notify_done(inner: &ServerInner, mut registry: MutexGuard<'_, Registry>) {
    registry.completions += 1;
    drop(registry);
    inner.done_cv.notify_all();
}

/// Record a job whose worker-side execution panicked (the session handle
/// was dropped during the unwind, which cancels any surviving engine).
fn fail_job_after_panic(inner: &ServerInner, id: u64, message: String) {
    let mut registry = lock_recover(&inner.registry);
    let exec = resolve_exec(&registry, id);
    if let Some(canceller) = registry
        .jobs
        .get_mut(&exec)
        .and_then(|r| r.canceller.take())
    {
        canceller.cancel();
    }
    // The panic verdict fans out to every coalesced follower, exactly like
    // a settled result.
    let ids = registry.subscribers(exec);
    let event = SearchEvent::Failed {
        message: format!("search panicked: {message}"),
    };
    let state = JobState::Failed {
        panic: Some(message.clone()),
    };
    let result = Err(SearchError::Panicked { message });
    finish(inner, &mut registry, &ids, state, &result, Some(event));
}

fn run_job(inner: &ServerInner, id: u64, spec: JobSpec, resume_from: Option<SearchCheckpoint>) {
    let faults_ctx = inner
        .faults
        .as_ref()
        .map(|injector| FaultContext::new(Arc::clone(injector), Some(id)));
    let (timed_out, status, result) = drive_job(inner, id, &spec, resume_from, faults_ctx);
    settle_job(inner, id, &spec, timed_out, status, result);
}

/// Start (or resume) the session, drain its event stream while enforcing
/// the deadline, and return `(timed_out, final status, result)`.
fn drive_job(
    inner: &ServerInner,
    id: u64,
    spec: &JobSpec,
    resume_from: Option<SearchCheckpoint>,
    faults_ctx: Option<FaultContext>,
) -> (
    bool,
    Option<SearchStatus>,
    Result<SearchOutcome, SearchError>,
) {
    if let Some(ctx) = &faults_ctx {
        if let Err(e) = ctx.trip(site::WORKER_JOB) {
            return (false, None, Err(e));
        }
    }
    let started = match resume_from {
        Some(checkpoint) => {
            SearchDriver::resume_session(checkpoint, faults_ctx.clone(), inner.energy_cache.clone())
        }
        None => {
            let mut driver = SearchDriver::new(spec.config.clone());
            if let Some(ctx) = faults_ctx.clone() {
                driver = driver.with_fault_context(ctx);
            }
            if let Some(cache) = inner.energy_cache.clone() {
                driver = driver.with_energy_cache(cache);
            }
            driver.start(&spec.graphs)
        }
    };
    let handle = match started {
        Ok(handle) => handle,
        Err(e) => return (false, None, Err(e)),
    };
    {
        let mut registry = lock_recover(&inner.registry);
        let owner = resolve_exec(&registry, id);
        if let Some(record) = registry.jobs.get_mut(&owner) {
            record.canceller = Some(handle.canceller());
        }
    }

    // Drain the event stream live so status/events requests see mid-run
    // telemetry; the channel closes when the engine reaches a terminal
    // event. `deadline` arms the per-job timeout: on expiry the session is
    // cancelled cooperatively and the remaining events drained normally.
    let mut deadline = spec
        .timeout_secs
        .map(|secs| Instant::now() + Duration::from_secs_f64(secs.max(0.0)));
    let mut timed_out = false;
    let mut injected: Option<SearchError> = None;
    let mut depths_completed = 0usize;
    loop {
        let event = match deadline {
            None => handle.next_event(),
            Some(at) => {
                let remaining = at.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    timed_out = true;
                    deadline = None;
                    handle.cancel();
                    continue;
                }
                match handle.events().recv_timeout(remaining) {
                    Ok(event) => Some(event),
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => None,
                }
            }
        };
        let Some(event) = event else {
            break;
        };
        let owner = {
            let mut registry = lock_recover(&inner.registry);
            let owner = resolve_exec(&registry, id);
            push_shared_event(&mut registry, owner, &event, handle.progress());
            owner
        };
        match &event {
            SearchEvent::RungCompleted { depth, rung, .. } => {
                journal(
                    inner,
                    &JournalRecord::Progress {
                        id: owner,
                        depth: *depth,
                        rung: *rung,
                    },
                );
                if injected.is_none() {
                    if let Some(ctx) = &faults_ctx {
                        if let Err(e) = ctx.trip(site::WORKER_RUNG) {
                            // Injected worker-side transient: stop the
                            // session and let the retry logic take over.
                            injected = Some(e);
                            handle.cancel();
                        }
                    }
                }
            }
            SearchEvent::DepthCompleted { .. } => {
                // The engine publishes its shared state before emitting, so
                // this checkpoint always covers the announced depth.
                depths_completed += 1;
                let checkpoint = handle.checkpoint();
                {
                    let mut registry = lock_recover(&inner.registry);
                    let owner = resolve_exec(&registry, id);
                    if let Some(record) = registry.jobs.get_mut(&owner) {
                        record.checkpoint = Some(checkpoint.clone());
                    }
                }
                if depths_completed.is_multiple_of(inner.checkpoint_every) {
                    journal(
                        inner,
                        &JournalRecord::Checkpoint {
                            id: owner,
                            checkpoint,
                        },
                    );
                }
            }
            _ => {}
        }
    }

    let mut result = handle.wait();
    let status = handle.progress().status;
    {
        let mut registry = lock_recover(&inner.registry);
        let owner = resolve_exec(&registry, id);
        let progress = handle.progress();
        for subscriber in registry.subscribers(owner) {
            if let Some(record) = registry.jobs.get_mut(&subscriber) {
                record.progress = Some(progress.clone());
            }
        }
    }
    if let Some(e) = injected {
        result = Err(e);
    }
    (timed_out, Some(status), result)
}

/// Classify a finished drive into the job's terminal (or retrying) state,
/// journal it, and update the registry.
fn settle_job(
    inner: &ServerInner,
    id: u64,
    spec: &JobSpec,
    timed_out: bool,
    status: Option<SearchStatus>,
    result: Result<SearchOutcome, SearchError>,
) {
    let mut registry = lock_recover(&inner.registry);
    let shutting_down = registry.shutdown;
    // The job that started this execution may have been cancelled and its
    // ownership promoted to a follower; everything below settles the
    // *current* owner and fans out to its followers.
    let exec = resolve_exec(&registry, id);
    let Some(record) = registry.jobs.get_mut(&exec) else {
        return;
    };
    record.canceller = None;
    let retries = record.retries;
    let user_cancelled = record.user_cancelled;
    let ended = record.events.last().is_some_and(|e| e.is_terminal());
    let subscribers = registry.subscribers(exec);

    // Transient failures retry (resuming from the last checkpoint) while
    // budget remains — deterministic exponential backoff, no jitter.
    // Followers mirror the retrying state: they ride the next attempt.
    if let Err(e) = &result {
        if e.is_transient() && !timed_out && !shutting_down && retries < spec.max_retries {
            let attempt = retries + 1;
            let retry_event = SearchEvent::Failed {
                message: format!("{e} (retry {attempt}/{} scheduled)", spec.max_retries),
            };
            for subscriber in subscribers {
                if let Some(record) = registry.jobs.get_mut(&subscriber) {
                    record.state = JobState::Retrying { attempt };
                    record.retries = attempt;
                    record.events.push(retry_event.clone());
                }
            }
            journal(
                inner,
                &JournalRecord::State {
                    id: exec,
                    state: JobState::Retrying { attempt },
                    retries: attempt,
                },
            );
            let backoff = spec
                .retry_backoff_ms
                .saturating_mul(1u64 << (attempt.min(16) - 1));
            registry.pending.push(PendingEntry {
                id: exec,
                ready_at: Some(Instant::now() + Duration::from_millis(backoff)),
            });
            drop(registry);
            // notify_all: sleeping workers must recompute their wait deadline
            // against the new backoff entry.
            inner.work_cv.notify_all();
            return;
        }
    }

    let (state, final_result) = if timed_out {
        (
            JobState::TimedOut,
            Err(SearchError::DeadlineExceeded {
                timeout_secs: spec.timeout_secs.unwrap_or(0.0),
            }),
        )
    } else {
        match (&result, status) {
            (Err(SearchError::Panicked { message }), _) => (
                JobState::Failed {
                    panic: Some(message.clone()),
                },
                result,
            ),
            (Err(SearchError::Cancelled), _) | (_, Some(SearchStatus::Cancelled)) => {
                // A durable server shutting down *suspends* the job: the
                // journal keeps it queued behind its final checkpoint, so
                // the next launch resumes instead of re-running. A job the
                // user explicitly cancelled stays cancelled. Followers are
                // cancelled in memory only — their journaled submissions
                // replay as independent fresh jobs on the next launch.
                if shutting_down && inner.store.is_some() && !user_cancelled {
                    if let Some(checkpoint) = registry.jobs[&exec].checkpoint.clone() {
                        journal(
                            inner,
                            &JournalRecord::Checkpoint {
                                id: exec,
                                checkpoint,
                            },
                        );
                    }
                    journal(
                        inner,
                        &JournalRecord::State {
                            id: exec,
                            state: JobState::Queued,
                            retries,
                        },
                    );
                    for subscriber in subscribers {
                        if let Some(record) = registry.jobs.get_mut(&subscriber) {
                            record.state = JobState::Cancelled;
                            record.result = Some(Err(SearchError::Cancelled));
                            record.leader = None;
                        }
                    }
                    return;
                }
                (JobState::Cancelled, result)
            }
            (Ok(_), _) => (JobState::Completed, result),
            (Err(_), _) => (JobState::Failed { panic: None }, result),
        }
    };

    // Every terminal event log should end on a terminal event; the engine
    // guarantees it except when the verdict was decided server-side
    // (deadline expiry surfaces as the engine's `Cancelled`, a panic may
    // have cut the stream short).
    let pad_event = match (&state, &final_result) {
        (JobState::Failed { .. }, Err(e)) if !ended => Some(SearchEvent::Failed {
            message: e.to_string(),
        }),
        _ => None,
    };
    let completed = state == JobState::Completed;
    let key = finish(
        inner,
        &mut registry,
        &subscribers,
        state,
        &final_result,
        pad_event,
    );
    drop(registry);
    // Later identical submissions hit the result cache from here on.
    if let (true, Some(key), Ok(outcome), Some(cache)) =
        (completed, key, final_result, &inner.cache)
    {
        lock_recover(cache).insert(&key, Arc::new(outcome));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::GateAlphabet;
    use qaoa::Backend;

    fn tiny_spec(seed: u64) -> JobSpec {
        let config = SearchConfig::builder()
            .alphabet(GateAlphabet::from_mnemonics(&["rx"]).unwrap())
            .max_depth(1)
            .max_gates_per_mixer(1)
            .optimizer_budget(15)
            .no_prune()
            .backend(Backend::StateVector)
            .threads(1)
            .seed(seed)
            .build();
        JobSpec::new(config, vec![Graph::cycle(4)])
    }

    #[test]
    fn submit_validates_before_queueing() {
        let server = JobServer::start(JobServerConfig::default());
        let mut bad = tiny_spec(1);
        bad.config.max_depth = 0;
        assert!(matches!(
            server.submit(bad),
            Err(SearchError::InvalidConfig { .. })
        ));
        let mut empty = tiny_spec(1);
        empty.graphs.clear();
        assert!(matches!(server.submit(empty), Err(SearchError::NoGraphs)));
        server.shutdown();
    }

    #[test]
    fn queue_capacity_is_enforced() {
        // Zero workers is clamped to one, so use a held lock... simplest:
        // a capacity-1 server with a single slow-ish job plus fast probes.
        let server = JobServer::start(JobServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..JobServerConfig::default()
        });
        // Fill the worker and the queue.
        let first = server.submit(tiny_spec(1)).unwrap();
        let mut queued_or_full = 0;
        for seed in 2..20 {
            match server.submit(tiny_spec(seed)) {
                Ok(_) => queued_or_full += 1,
                Err(e) => {
                    // The only acceptable rejection on this path is the
                    // bounded queue pushing back.
                    assert!(
                        matches!(e, SearchError::QueueFull { capacity: 1 }),
                        "submit must fail with QueueFull {{ capacity: 1 }}, got: {e}"
                    );
                    queued_or_full = 100;
                    break;
                }
            }
        }
        // Either the jobs were fast enough to drain (all accepted) or the
        // bound kicked in; on any realistic machine the latter.
        assert!(queued_or_full >= 1);
        server.wait(first).unwrap().unwrap();
        server.shutdown();
    }

    #[test]
    fn unknown_job_queries_error() {
        let server = JobServer::start(JobServerConfig::default());
        assert!(matches!(
            server.status(JobId(99)),
            Err(SearchError::UnknownJob { id: 99 })
        ));
        assert!(matches!(
            server.events_since(JobId(99), 0),
            Err(SearchError::UnknownJob { .. })
        ));
        assert!(!server.cancel(JobId(99)));
        server.shutdown();
    }

    #[test]
    fn terminal_records_are_bounded_and_forgettable() {
        let server = JobServer::start(JobServerConfig {
            workers: 1,
            queue_capacity: 16,
            max_retained_jobs: 2,
        });
        let ids: Vec<JobId> = (0..5)
            .map(|i| server.submit(tiny_spec(i)).unwrap())
            .collect();
        for id in &ids {
            // A record may already have been evicted by later completions.
            if let Ok(result) = server.wait(*id) {
                let _ = result;
            }
        }
        // At most `max_retained_jobs` terminal records survive, the newest
        // ones first (the oldest were evicted).
        let remaining = server.jobs();
        assert!(remaining.len() <= 2, "retained {remaining:?}");
        if let Some(last) = remaining.last() {
            assert_eq!(last.id, ids.last().unwrap().0);
            // Explicit forget drops a terminal record immediately.
            assert!(server.forget(JobId(last.id)));
            assert!(matches!(
                server.status(JobId(last.id)),
                Err(SearchError::UnknownJob { .. })
            ));
            assert!(!server.forget(JobId(last.id)));
        }
        server.shutdown();
    }

    #[test]
    fn priorities_order_the_queue() {
        // One worker, jobs submitted while the worker is busy: the higher
        // priority job must run before the lower one.
        let server = JobServer::start(JobServerConfig {
            workers: 1,
            queue_capacity: 8,
            ..JobServerConfig::default()
        });
        let blocker = server.submit(tiny_spec(1)).unwrap();
        let low = server.submit(tiny_spec(2).priority(-5)).unwrap();
        let high = server.submit(tiny_spec(3).priority(5)).unwrap();
        server.wait(blocker).unwrap().unwrap();
        server.wait(low).unwrap().unwrap();
        server.wait(high).unwrap().unwrap();
        // All completed; ordering is asserted structurally (high popped
        // before low) via the recorded event counts being complete.
        for id in [blocker, low, high] {
            let status = server.status(id).unwrap();
            assert_eq!(status.state, JobState::Completed, "job {id}");
            assert_eq!(status.retries, 0);
            assert!(status.events_recorded > 0);
        }
        server.shutdown();
    }

    #[test]
    fn job_state_taxonomy_is_terminal_consistent() {
        for state in [
            JobState::Completed,
            JobState::Cancelled,
            JobState::TimedOut,
            JobState::Failed { panic: None },
            JobState::Failed {
                panic: Some("boom".to_string()),
            },
        ] {
            assert!(state.is_terminal(), "{state}");
        }
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Retrying { attempt: 1 },
        ] {
            assert!(!state.is_terminal(), "{state}");
        }
    }

    #[test]
    fn wait_any_returns_a_listed_job_that_has_ended_at_once() {
        let server = JobServer::start(JobServerConfig::default());
        let id = server.submit(tiny_spec(1)).unwrap();
        let waited = server.wait(id).unwrap().unwrap();
        // Far past the count: only the listed job can end the call.
        let (_, done) = server.wait_any(&[JobId(99), id], u64::MAX);
        assert_eq!(done, vec![id]);
        let outcome = server.result(id).unwrap().unwrap().unwrap();
        let rendered = |outcome: &SearchOutcome| serde_json::to_string(outcome).unwrap();
        assert_eq!(rendered(&outcome), rendered(&waited));
        server.shutdown();
    }

    #[test]
    fn wait_any_returns_when_an_unlisted_job_moves_the_count() {
        let server = JobServer::start(JobServerConfig::default());
        let since = 0;
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| server.wait_any(&[], since));
            let id = server.submit(tiny_spec(2)).unwrap();
            server.wait(id).unwrap().unwrap();
            let (count, done) = waiter.join().unwrap();
            assert!(count > since);
            assert!(done.is_empty());
        });
        server.shutdown();
    }

    #[test]
    fn wait_any_is_released_by_begin_shutdown() {
        let server = JobServer::start(JobServerConfig::default());
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| server.wait_any(&[], 0));
            std::thread::sleep(Duration::from_millis(50));
            assert!(!waiter.is_finished());
            server.begin_shutdown();
            let (_, done) = waiter.join().unwrap();
            assert!(done.is_empty());
        });
        server.shutdown();
    }

    #[test]
    fn wait_any_ignores_unknown_ids_without_returning_early() {
        let server = JobServer::start(JobServerConfig::default());
        let since = 0;
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| server.wait_any(&[JobId(98), JobId(99)], since));
            std::thread::sleep(Duration::from_millis(100));
            assert!(!waiter.is_finished(), "returned for unknown ids alone");
            let id = server.submit(tiny_spec(3)).unwrap();
            server.wait(id).unwrap().unwrap();
            let (count, done) = waiter.join().unwrap();
            assert!(count > since);
            assert!(done.is_empty());
        });
        server.shutdown();
    }

    #[test]
    fn immediate_timeout_reports_timed_out() {
        let server = JobServer::start(JobServerConfig {
            workers: 1,
            queue_capacity: 4,
            ..JobServerConfig::default()
        });
        let id = server.submit(tiny_spec(1).timeout_secs(0.0)).unwrap();
        let result = server.wait(id).unwrap();
        assert!(matches!(result, Err(SearchError::DeadlineExceeded { .. })));
        assert_eq!(server.status(id).unwrap().state, JobState::TimedOut);
        server.shutdown();
    }
}
