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
//! Inside each job the rung workers still parallelize candidate
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
//! 2. **Request coalescing** — one engine run (an *execution*) serves
//!    every job that subscribes to it. A submission identical to one
//!    already queued or running subscribes to that execution instead of
//!    starting its own: it gets its own [`JobId`], event cursor, result,
//!    and cancel, but no engine runs for it. When the execution settles,
//!    the terminal state and result fan out to every subscriber.
//!    Cancelling a job only unsubscribes it; the engine stops only when
//!    its last subscriber is cancelled.
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
//! inserts the record — for cache hits, subscribers, fresh executions,
//! checkpointed migrations and fleet placements alike. `finish` ends a
//! list of jobs: per job it records the terminal event (if the caller
//! supplies one) and the result, returns the tenant's quota slot,
//! journals `Finished` then `State`, and unsubscribes the job from its
//! execution; an execution left without subscribers is dropped with its
//! queue entry and coalescing key. Then records over retention are
//! evicted. So each job's journal reads `Submitted … Finished, State`,
//! with only `State`, `Progress` and `Checkpoint` records between.
//!
//! Between the two, one of two executors runs the job:
//!
//! * **local** (every server [`JobServer::launch`] starts): the bounded
//!   pending queue of executions, drained by the worker pool
//!   (`worker_loop`/`run_job`). An `Execution` owns what one engine run
//!   needs — spec, canceller, checkpoint, cache key — and lists its
//!   subscribers; the first one is its *owner*, whose priority orders
//!   the queue and whose id the journal's `State`, `Progress` and
//!   `Checkpoint` records carry. Every fan-out — events, `Running`,
//!   progress, `Retrying`, suspension and the final verdict — visits the
//!   subscribers in order. Cancelling a job removes it from the list, so
//!   the next subscriber becomes the owner; the worker holds the
//!   execution's id, which never changes.
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
    /// runs unbounded; submit refuses a negative, non-finite or
    /// unrepresentably large value.
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
    /// `coalesced` counter counts subscriptions to an in-flight
    /// execution (tier 2).
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
    /// The submitted spec, kept only by a job the fleet placed (a shard
    /// that dies hands it to another); a local job's lives in its
    /// execution.
    pub(crate) spec: Option<JobSpec>,
    /// The job's events; for a placed job, only those the coordinator
    /// itself recorded ([`SearchEvent::Migrated`]).
    pub(crate) events: Vec<SearchEvent>,
    pub(crate) progress: Option<SearchProgress>,
    pub(crate) result: Option<Result<SearchOutcome, SearchError>>,
    pub(crate) retries: u32,
    /// The execution this job subscribes to, until the job ends (local
    /// jobs only).
    exec: Option<u64>,
    /// Served instantly from the result cache — no engine ran.
    pub(crate) cache_hit: bool,
    /// Subscribed to another job's in-flight execution instead of
    /// starting one.
    pub(crate) coalesced: bool,
    /// The tenant whose quota slot the job holds until `finish`.
    tenant: Option<String>,
    /// Where the fleet executor placed the job (fleet servers only).
    pub(crate) placement: Option<Placement>,
}

impl JobRecord {
    /// A fresh queued record for `spec` (no events, no result yet).
    pub(crate) fn queued(spec: &JobSpec, tenant: Option<String>) -> JobRecord {
        JobRecord {
            name: spec.name.clone(),
            priority: spec.priority,
            state: JobState::Queued,
            spec: None,
            events: Vec::new(),
            progress: None,
            result: None,
            retries: 0,
            exec: None,
            cache_hit: false,
            coalesced: false,
            tenant,
            placement: None,
        }
    }
}

/// One engine run of the local executor and the jobs subscribed to it.
/// Its id is the id of the job that started it; it lives in memory only.
struct Execution {
    /// The spec it runs.
    spec: JobSpec,
    /// Stops the engine while a worker drives it.
    canceller: Option<Canceller>,
    /// Last checkpoint taken at a depth boundary (what retries and — via
    /// the journal — restarts resume from).
    checkpoint: Option<SearchCheckpoint>,
    /// The content-address of the spec, kept so the result can be cached
    /// at settle time.
    cache_key: Option<SpecKey>,
    /// Set when its last subscriber is cancelled while it runs, so
    /// shutdown-suspension never resurrects a run the user killed.
    user_cancelled: bool,
    /// The jobs receiving its events and outcome, in subscription order;
    /// never empty. The first is the owner.
    subscribers: Vec<u64>,
}

/// One queue entry; `ready_at` defers retry attempts (backoff).
struct PendingEntry {
    exec: u64,
    ready_at: Option<Instant>,
}

pub(crate) struct Registry {
    pub(crate) jobs: HashMap<u64, JobRecord>,
    /// The local executor's live executions, by id.
    executions: HashMap<u64, Execution>,
    /// Executions waiting to run (ordering resolved at pop time).
    pending: Vec<PendingEntry>,
    next_id: u64,
    pub(crate) shutdown: bool,
    /// Cache-key hash → the one in-flight execution for that spec, which
    /// identical submissions subscribe to.
    inflight: HashMap<u64, u64>,
    /// Bumped with every `done_cv` notification (`notify_done`): the
    /// cursor [`JobServer::wait_any`] waits past.
    completions: u64,
}

impl Registry {
    /// Start an execution of `spec` for the admitted job `id`, queued to
    /// run (resuming from `checkpoint`); it takes the job's id as its own.
    fn add_execution(
        &mut self,
        id: u64,
        spec: JobSpec,
        checkpoint: Option<SearchCheckpoint>,
        cache_key: Option<SpecKey>,
    ) {
        if let Some(record) = self.jobs.get_mut(&id) {
            record.exec = Some(id);
        }
        let execution = Execution {
            spec,
            canceller: None,
            checkpoint,
            cache_key,
            user_cancelled: false,
            subscribers: vec![id],
        };
        self.executions.insert(id, execution);
        self.pending.push(PendingEntry {
            exec: id,
            ready_at: None,
        });
    }

    /// Apply `update` to every subscriber of `exec`, owner first. Returns
    /// the owner, or `None` for an execution that is gone.
    fn fan_out(&mut self, exec: u64, mut update: impl FnMut(&mut JobRecord)) -> Option<u64> {
        let execution = self.executions.get(&exec)?;
        for id in &execution.subscribers {
            if let Some(record) = self.jobs.get_mut(id) {
                update(record);
            }
        }
        execution.subscribers.first().copied()
    }

    /// Take `exec`'s cache key and drop it from the coalescing index if
    /// `exec` still owns that entry, so identical submissions stop
    /// subscribing to it.
    fn unregister(&mut self, exec: u64) -> Option<SpecKey> {
        let key = self.executions.get_mut(&exec)?.cache_key.take()?;
        if self.inflight.get(&key.hash) == Some(&exec) {
            self.inflight.remove(&key.hash);
        }
        Some(key)
    }

    /// Remove job `id` from `exec`'s subscribers. An execution left
    /// without any is dropped with its queue entry and coalescing key;
    /// the key is returned then.
    fn unsubscribe(&mut self, id: u64, exec: u64) -> Option<SpecKey> {
        let execution = self.executions.get_mut(&exec)?;
        execution.subscribers.retain(|&subscriber| subscriber != id);
        if !execution.subscribers.is_empty() {
            return None;
        }
        self.drop_execution(exec)
    }

    /// Drop `exec` with its queue entry and coalescing key; returns the
    /// key.
    fn drop_execution(&mut self, exec: u64) -> Option<SpecKey> {
        let key = self.unregister(exec);
        self.executions.remove(&exec);
        self.pending.retain(|entry| entry.exec != exec);
        key
    }
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
            executions: HashMap::new(),
            pending: Vec::new(),
            next_id: 1,
            shutdown: false,
            inflight: HashMap::new(),
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
    /// a spec identical to an in-flight execution subscribes to that
    /// execution instead of queueing its own.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SearchError> {
        self.submit_as(spec, None, None)
    }

    /// [`JobServer::submit`] on behalf of `tenant` (`None` = anonymous,
    /// quota-exempt), optionally resuming from an externally recovered
    /// `checkpoint` — a coordinator's migration path (the checkpoint comes
    /// out of a dead shard's journal). The spec is validated first (a
    /// malformed spec, or a `timeout_secs` no deadline can hold, never
    /// burns a rate token), then the admission gates
    /// run; an admitted job holds one of its tenant's in-flight slots until
    /// `finish` ends it. A fleet places the job on a shard instead of
    /// queueing it here.
    ///
    /// A checkpointed submission deliberately bypasses the result-cache
    /// and coalescing tiers: a migrated execution must actually run to
    /// terminal (its subscribers live on the coordinator, not here),
    /// and it must not become a coalescing target whose mid-flight state
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
        if let Some(secs) = spec.timeout_secs {
            let deadline = Duration::try_from_secs_f64(secs)
                .ok()
                .and_then(|timeout| Instant::now().checked_add(timeout));
            if deadline.is_none() {
                return Err(SearchError::InvalidConfig {
                    message: format!(
                        "timeout_secs must be a finite number of seconds >= 0 \
                         that a deadline can hold, got {secs:?}"
                    ),
                });
            }
        }
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
                ..JobRecord::queued(&spec, tenant)
            };
            let id = admit(&self.inner, &mut registry, &spec, record);
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
        // running gets a record subscribed to that execution instead of a
        // queue slot. Deadline/retry budgets must match — a subscriber
        // rides the execution's schedule verbatim.
        let shared = key.as_ref().and_then(|key| {
            let exec = *registry.inflight.get(&key.hash)?;
            let execution = registry.executions.get(&exec)?;
            let attachable = execution
                .cache_key
                .as_ref()
                .is_some_and(|k| k.canonical == key.canonical)
                && execution.spec.timeout_secs == spec.timeout_secs
                && execution.spec.max_retries == spec.max_retries;
            attachable.then_some((exec, execution.subscribers[0]))
        });
        if let Some((exec, owner)) = shared {
            let owner = &registry.jobs[&owner];
            let record = JobRecord {
                state: owner.state.clone(),
                events: owner.events.clone(),
                progress: owner.progress.clone(),
                retries: owner.retries,
                exec: Some(exec),
                coalesced: true,
                ..JobRecord::queued(&spec, tenant)
            };
            let id = admit(&self.inner, &mut registry, &spec, record);
            if let Some(execution) = registry.executions.get_mut(&exec) {
                execution.subscribers.push(id);
            }
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
        let record = JobRecord::queued(&spec, tenant);
        let id = admit(&self.inner, &mut registry, &spec, record);
        if let Some(checkpoint) = checkpoint.clone() {
            journal(&self.inner, &JournalRecord::Checkpoint { id, checkpoint });
        }
        registry.add_execution(id, spec, checkpoint, key);
        if let Some(hash) = hash {
            registry.inflight.insert(hash, id);
        }
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
    /// Cancelling a job unsubscribes it from its execution: while other
    /// subscribers remain it ends at once and the execution runs on for
    /// them. The last subscriber of a queued execution drops it; the last
    /// subscriber of a running one stops the engine, and the worker
    /// settles the job.
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
        let ended = record.events.last().is_some_and(|e| e.is_terminal());
        let running = record.state == JobState::Running;
        if let Some(exec) = record.exec {
            if let Some(execution) = registry.executions.get_mut(&exec) {
                if running && execution.subscribers == [id.0] {
                    execution.user_cancelled = true;
                    if let Some(canceller) = &execution.canceller {
                        canceller.cancel();
                    }
                    // Unregister from the coalescing index immediately: a
                    // submission racing this cancel must start fresh, not
                    // subscribe to an execution that is winding down.
                    registry.unregister(exec);
                    return true;
                }
            }
        }
        let event = (!ended).then_some(SearchEvent::Cancelled { completed_depths });
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
    /// — force any survivor (e.g. a job a fleet's shard still holds)
    /// terminal so waiting clients unblock. In-memory only: durable replay
    /// re-enqueues such jobs fresh on the next launch.
    fn settle_stragglers(&self) {
        let mut registry = self.lock_registry();
        for record in registry.jobs.values_mut() {
            if !record.state.is_terminal() {
                record.state = JobState::Cancelled;
                record.spec = None;
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
        for entry in std::mem::take(&mut registry.pending) {
            registry.fan_out(entry.exec, |record| {
                record.state = JobState::Cancelled;
                record.exec = None;
                record.result = Some(Err(SearchError::Cancelled));
            });
            registry.drop_execution(entry.exec);
        }
        for execution in registry.executions.values() {
            if let Some(canceller) = &execution.canceller {
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
        let record = JobRecord {
            state: if terminal {
                job.state.clone()
            } else {
                JobState::Queued
            },
            result: job.result.clone(),
            retries: job.retries,
            ..JobRecord::queued(&job.spec, None)
        };
        registry.jobs.insert(job.id, record);
        if terminal {
            report.terminal_jobs += 1;
            continue;
        }
        if job.checkpoint.is_some() {
            report.resumed_jobs += 1;
        } else {
            report.requeued_jobs += 1;
        }
        // Replayed incomplete jobs run independently (no coalescing across
        // a restart), but each keeps its cache key so the result it does
        // compute still lands in the result cache.
        let cache_key = cache_enabled
            .then(|| spec_cache_key(&job.spec).ok())
            .flatten();
        let (spec, checkpoint) = (job.spec.clone(), job.checkpoint.clone());
        registry.add_execution(job.id, spec, checkpoint, cache_key);
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

/// Admit `record`, submitted as `spec`, under a fresh id: journal
/// `Submitted`, then insert it. Every job starts here.
pub(crate) fn admit(
    inner: &ServerInner,
    registry: &mut Registry,
    spec: &JobSpec,
    record: JobRecord,
) -> u64 {
    let id = registry.next_id;
    registry.next_id += 1;
    let spec = spec.clone();
    journal(inner, &JournalRecord::Submitted { id, spec });
    registry.jobs.insert(id, record);
    id
}

/// End the jobs `ids`: every job ends here. Each job in order records
/// `event` (when the caller has one) and `result`, drops its spec, returns
/// its tenant's quota slot, journals `Finished` then `State`, and
/// unsubscribes from its execution. Then terminal records over the
/// retention cap are evicted (and journaled as forgotten). Returns the
/// cache key of an execution this left without subscribers, so a
/// completed result can be cached once the registry lock is dropped.
pub(crate) fn finish(
    inner: &ServerInner,
    registry: &mut Registry,
    ids: &[u64],
    state: JobState,
    result: &Result<SearchOutcome, SearchError>,
    event: Option<SearchEvent>,
) -> Option<SpecKey> {
    let mut key = None;
    for &id in ids {
        let Some(record) = registry.jobs.get_mut(&id) else {
            continue;
        };
        record.events.extend(event.clone());
        record.state = state.clone();
        record.spec = None;
        record.result = Some(result.clone());
        inner.admission.release(record.tenant.take().as_deref());
        let retries = record.retries;
        let exec = record.exec.take();
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
        if let Some(exec) = exec {
            key = key.or(registry.unsubscribe(id, exec));
        }
    }
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
        // Pop the ready pending execution whose owner ranks first by
        // priority (ties: lowest owner id); entries in retry backoff only
        // become ready at `ready_at`.
        let (exec, owner, spec, resume_from) = {
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
                    .filter_map(|entry| {
                        let owner = *registry.executions.get(&entry.exec)?.subscribers.first()?;
                        let priority = registry.jobs.get(&owner)?.priority;
                        Some((priority, std::cmp::Reverse(owner), entry.exec))
                    })
                    .max();
                if let Some((_, std::cmp::Reverse(owner), exec)) = best {
                    registry.pending.retain(|entry| entry.exec != exec);
                    let execution = &registry.executions[&exec];
                    let spec = execution.spec.clone();
                    let resume_from = execution.checkpoint.clone();
                    let retries = registry.jobs[&owner].retries;
                    registry.fan_out(exec, |record| record.state = JobState::Running);
                    journal(
                        &inner,
                        &JournalRecord::State {
                            id: owner,
                            state: JobState::Running,
                            retries,
                        },
                    );
                    break (exec, owner, spec, resume_from);
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
        let ran = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_job(&inner, exec, owner, spec, resume_from)
        }));
        if let Err(payload) = ran {
            let message = fault::panic_message(payload.as_ref());
            fail_job_after_panic(&inner, exec, message);
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

/// Record an execution whose worker-side run panicked (the session handle
/// was dropped during the unwind, which cancels any surviving engine).
fn fail_job_after_panic(inner: &ServerInner, exec: u64, message: String) {
    let mut registry = lock_recover(&inner.registry);
    let Some(execution) = registry.executions.get_mut(&exec) else {
        return;
    };
    if let Some(canceller) = execution.canceller.take() {
        canceller.cancel();
    }
    // The panic verdict fans out to every subscriber, exactly like a
    // settled result.
    let ids = execution.subscribers.clone();
    let event = SearchEvent::Failed {
        message: format!("search panicked: {message}"),
    };
    let state = JobState::Failed {
        panic: Some(message.clone()),
    };
    let result = Err(SearchError::Panicked { message });
    finish(inner, &mut registry, &ids, state, &result, Some(event));
}

/// Drive execution `exec`, popped with `owner` first among its
/// subscribers: `owner` is the job a fault plan's `worker.job` filter sees.
fn run_job(
    inner: &ServerInner,
    exec: u64,
    owner: u64,
    spec: JobSpec,
    resume_from: Option<SearchCheckpoint>,
) {
    let faults_ctx = inner
        .faults
        .as_ref()
        .map(|injector| FaultContext::new(Arc::clone(injector), Some(owner)));
    let (timed_out, status, result) = drive_job(inner, exec, &spec, resume_from, faults_ctx);
    settle_job(inner, exec, &spec, timed_out, status, result);
}

/// Start (or resume) the session, drain its event stream while enforcing
/// the deadline, and return `(timed_out, final status, result)`.
fn drive_job(
    inner: &ServerInner,
    exec: u64,
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
    if let Some(execution) = lock_recover(&inner.registry).executions.get_mut(&exec) {
        execution.canceller = Some(handle.canceller());
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
        // Each subscriber owns its copy of the stream, so cursors and
        // `forget` stay independent.
        let progress = handle.progress();
        let owner = lock_recover(&inner.registry).fan_out(exec, |record| {
            record.events.push(event.clone());
            record.progress = Some(progress.clone());
        });
        let owner = owner.unwrap_or(exec);
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
                if let Some(execution) = lock_recover(&inner.registry).executions.get_mut(&exec) {
                    execution.checkpoint = Some(checkpoint.clone());
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
    let progress = handle.progress();
    let status = progress.status;
    lock_recover(&inner.registry).fan_out(exec, |record| record.progress = Some(progress.clone()));
    if let Some(e) = injected {
        result = Err(e);
    }
    (timed_out, Some(status), result)
}

/// Classify a finished drive into the terminal (or retrying) state of
/// every subscriber, journal it under the owner's id, and update the
/// registry.
fn settle_job(
    inner: &ServerInner,
    exec: u64,
    spec: &JobSpec,
    timed_out: bool,
    status: Option<SearchStatus>,
    result: Result<SearchOutcome, SearchError>,
) {
    let mut registry = lock_recover(&inner.registry);
    let shutting_down = registry.shutdown;
    let Some(execution) = registry.executions.get_mut(&exec) else {
        return;
    };
    execution.canceller = None;
    let user_cancelled = execution.user_cancelled;
    let subscribers = execution.subscribers.clone();
    let owner = subscribers[0];
    let record = &registry.jobs[&owner];
    let retries = record.retries;
    let ended = record.events.last().is_some_and(|e| e.is_terminal());

    // Transient failures retry (resuming from the last checkpoint) while
    // budget remains — deterministic exponential backoff, no jitter.
    // Every subscriber mirrors the retrying state and rides the next
    // attempt.
    if let Err(e) = &result {
        if e.is_transient() && !timed_out && !shutting_down && retries < spec.max_retries {
            let attempt = retries + 1;
            let retry_event = SearchEvent::Failed {
                message: format!("{e} (retry {attempt}/{} scheduled)", spec.max_retries),
            };
            registry.fan_out(exec, |record| {
                record.state = JobState::Retrying { attempt };
                record.retries = attempt;
                record.events.push(retry_event.clone());
            });
            journal(
                inner,
                &JournalRecord::State {
                    id: owner,
                    state: JobState::Retrying { attempt },
                    retries: attempt,
                },
            );
            let backoff = spec
                .retry_backoff_ms
                .saturating_mul(1u64 << (attempt.min(16) - 1));
            registry.pending.push(PendingEntry {
                exec,
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
                // journal keeps the owner queued behind its final
                // checkpoint, so the next launch resumes instead of
                // re-running. A job the user explicitly cancelled stays
                // cancelled. The other subscribers are cancelled in memory
                // only — their journaled submissions replay as independent
                // fresh jobs on the next launch.
                if shutting_down && inner.store.is_some() && !user_cancelled {
                    if let Some(checkpoint) = registry.executions[&exec].checkpoint.clone() {
                        journal(
                            inner,
                            &JournalRecord::Checkpoint {
                                id: owner,
                                checkpoint,
                            },
                        );
                    }
                    journal(
                        inner,
                        &JournalRecord::State {
                            id: owner,
                            state: JobState::Queued,
                            retries,
                        },
                    );
                    registry.fan_out(exec, |record| {
                        record.state = JobState::Cancelled;
                        record.result = Some(Err(SearchError::Cancelled));
                        record.exec = None;
                    });
                    registry.drop_execution(exec);
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

    #[test]
    fn submit_rejects_a_timeout_no_deadline_can_hold() {
        let server = JobServer::start(JobServerConfig::default());
        for secs in [-5.0, -0.5, f64::NAN, f64::INFINITY, 1e300, 1e19] {
            let submitted = server.submit(tiny_spec(1).timeout_secs(secs));
            assert!(
                matches!(submitted, Err(SearchError::InvalidConfig { .. })),
                "timeout_secs {secs} was accepted"
            );
        }
        assert!(server.jobs().is_empty());
        server.shutdown();
    }

    /// A search slow enough to hold the only worker until it is cancelled.
    fn blocker_spec() -> JobSpec {
        let config = SearchConfig::builder()
            .alphabet(GateAlphabet::from_mnemonics(&["rx", "ry"]).unwrap())
            .max_depth(2)
            .max_gates_per_mixer(2)
            .optimizer_budget(5000)
            .no_prune()
            .backend(Backend::StateVector)
            .threads(1)
            .seed(99)
            .build();
        JobSpec::new(config, vec![Graph::connected_erdos_renyi(6, 0.5, 99, 50)])
    }

    /// The registry's structural invariants, checked under its lock.
    fn assert_registry_invariants(server: &JobServer) {
        let registry = server.lock_registry();
        for entry in &registry.pending {
            assert!(
                registry.executions.contains_key(&entry.exec),
                "pending entry names the dead execution {}",
                entry.exec
            );
        }
        let mut subscribed = std::collections::HashSet::new();
        for (exec, execution) in &registry.executions {
            assert!(
                !execution.subscribers.is_empty(),
                "execution {exec} has no subscriber"
            );
            for id in &execution.subscribers {
                let record = &registry.jobs[id];
                assert!(!record.state.is_terminal(), "job {id} ended but subscribes");
                assert_eq!(record.exec, Some(*exec), "job {id} points elsewhere");
                subscribed.insert(*id);
            }
        }
        for (hash, exec) in &registry.inflight {
            let execution = registry.executions.get(exec);
            let key = execution.and_then(|execution| execution.cache_key.as_ref());
            assert_eq!(
                key.map(|key| key.hash),
                Some(*hash),
                "inflight names {exec}"
            );
        }
        for (id, record) in &registry.jobs {
            if record.state.is_terminal() {
                assert!(
                    record.exec.is_none() && !subscribed.contains(id),
                    "job {id}"
                );
            }
        }
    }

    #[test]
    fn registry_invariants_hold_under_random_operations() {
        use rand::{Rng, SeedableRng};
        let server = JobServer::start(JobServerConfig {
            workers: 1,
            queue_capacity: 64,
            max_retained_jobs: 1024,
        });
        // Specs 0 and 2 share a cache key but not a retry budget: each
        // coalesces only with submissions of itself, and both take turns
        // owning the key's coalescing entry.
        let specs = [tiny_spec(11), tiny_spec(12), tiny_spec(11).max_retries(1)];
        let blocker = server.submit(blocker_spec()).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(43);
        let mut submitted: Vec<(JobId, usize)> = Vec::new();
        let mut forgotten = std::collections::HashSet::new();
        for step in 0..200 {
            if step == 100 {
                server.cancel(blocker);
            }
            match rng.gen_range(0..100) {
                0..=49 => {
                    let which = rng.gen_range(0..specs.len());
                    let id = server.submit(specs[which].clone()).unwrap();
                    submitted.push((id, which));
                }
                50..=74 if !submitted.is_empty() => {
                    let (id, _) = submitted[rng.gen_range(0..submitted.len())];
                    server.cancel(id);
                }
                75..=89 if !submitted.is_empty() => {
                    let (id, _) = submitted[rng.gen_range(0..submitted.len())];
                    if server.forget(id) {
                        forgotten.insert(id);
                    }
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
            assert_registry_invariants(&server);
        }
        let mut reports: [Vec<String>; 3] = Default::default();
        for (id, which) in submitted {
            let waited = server.wait(id);
            if forgotten.contains(&id) {
                assert!(matches!(waited, Err(SearchError::UnknownJob { .. })));
                continue;
            }
            let result = waited.unwrap();
            if server.status(id).unwrap().state == JobState::Completed {
                let outcome = result.unwrap();
                reports[which].push(SearchReport::from(&outcome).without_timings().to_json());
            }
        }
        assert_registry_invariants(&server);
        for reports in &reports {
            assert!(reports.windows(2).all(|pair| pair[0] == pair[1]));
        }
        server.shutdown();
    }
}
