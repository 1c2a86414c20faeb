//! Session-oriented search execution: the [`SearchDriver`].
//!
//! The original front door was a pair of blocking scheduler calls that
//! disappeared for minutes and returned a single [`SearchOutcome`]. This
//! module replaces them with **sessions**: [`SearchDriver::start`] launches the search on a
//! background thread and hands back a [`SearchHandle`] with
//!
//! * a typed [`SearchEvent`] stream ([`SearchHandle::events`]) emitted at
//!   deterministic points of the depth/rung loop — identical for a fixed
//!   seed at any worker thread count,
//! * **cooperative cancellation** ([`SearchHandle::cancel`]): the engine
//!   stops before the next training session of the rung in flight and
//!   drains the completed depths into a valid partial [`SearchOutcome`],
//! * live [`SearchProgress`] snapshots ([`SearchHandle::progress`]), and
//! * serde **checkpointing** ([`SearchHandle::checkpoint`] →
//!   [`SearchCheckpoint`], [`SearchDriver::resume`]): everything a later
//!   depth depends on — completed depth results, the predictor-gate
//!   ranker's learned state, the warm-start source — is captured, so
//!   resume-after-kill reproduces the uninterrupted run **bit for bit**
//!   (proposal is a pure function of the config; per-depth training builds
//!   on PR 3's `Resumable`/`TrainingSession` state machines, which never
//!   leak thread-count or wall-clock state into results).
//!
//! Execution mode is folded into [`SearchConfig`], and one driver with one
//! per-depth engine (the budget-aware successive-halving pipeline) serves
//! both: [`ExecutionMode::Parallel`](crate::search::ExecutionMode::Parallel)
//! maps each rung's sessions over the workers,
//! [`ExecutionMode::Serial`](crate::search::ExecutionMode::Serial) — the
//! paper's Algorithm 1 — is its full-budget preset with the rung's sessions
//! trained inline on the engine thread. The two event streams differ only in
//! `Started.mode`.
//!
//! ```
//! use graphs::Graph;
//! use qarchsearch::search::SearchConfig;
//! use qarchsearch::session::SearchDriver;
//!
//! let graph = Graph::erdos_renyi(6, 0.5, 1);
//! let config = SearchConfig::builder()
//!     .max_depth(1)
//!     .max_gates_per_mixer(1)
//!     .optimizer_budget(30)
//!     .build();
//! let handle = SearchDriver::new(config).start(&[graph]).unwrap();
//! // ... consume handle.events() while the search runs ...
//! let outcome = handle.wait().unwrap();
//! assert!(outcome.best.energy > 0.0);
//! ```

use crate::error::SearchError;
use crate::evaluator::{CandidateResult, EnergyCache};
use crate::events::SearchEvent;
use crate::fault::{self, site, FaultContext};
use crate::pipeline::{BudgetedScheduler, DepthEvaluation};
use crate::predictor::BanditState;
use crate::search::{DepthResult, SearchConfig, SearchOutcome};
use crate::sync::{lock_recover, wait_recover};
use graphs::Graph;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Lifecycle state of a search session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchStatus {
    /// The engine thread is evaluating.
    Running,
    /// Every depth finished; the outcome is ready.
    Finished,
    /// Cancelled; completed depths drained into a partial outcome (or
    /// [`SearchError::Cancelled`] if nothing had completed).
    Cancelled,
    /// The engine hit an error.
    Failed,
}

impl std::fmt::Display for SearchStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SearchStatus::Running => "running",
            SearchStatus::Finished => "finished",
            SearchStatus::Cancelled => "cancelled",
            SearchStatus::Failed => "failed",
        };
        write!(f, "{s}")
    }
}

/// A live snapshot of a session's progress (depth-granular: counters update
/// as each depth completes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchProgress {
    /// Current lifecycle state.
    pub status: SearchStatus,
    /// Depths fully evaluated so far.
    pub depths_completed: usize,
    /// Deepest depth the session will search.
    pub max_depth: usize,
    /// Candidates evaluated across completed depths.
    pub candidates_evaluated: usize,
    /// Objective evaluations spent across completed depths.
    pub optimizer_evaluations: usize,
    /// Best mean energy seen so far, if any depth has completed.
    pub best_energy: Option<f64>,
    /// Wall-clock seconds attributed to the search so far (across resumes).
    pub elapsed_seconds: f64,
}

/// The cross-depth scheduler state captured in a [`SearchCheckpoint`]:
/// the predictor-gate ranker's learned values and the warm-start source.
/// Together with the (pure) candidate proposal in [`SearchConfig`], this is
/// everything a later depth's evaluation depends on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerCheckpoint {
    /// Learned state of the [`crate::predictor::GateRanker`] behind the
    /// predictor gate.
    pub ranker: BanditState,
    /// Whether the ranker has received any feedback yet (the gate only
    /// engages once it has).
    pub ranker_trained: bool,
    /// Best fully-trained candidate of the last completed depth (the
    /// warm-start source for the next depth).
    pub warm_source: Option<CandidateResult>,
}

/// A serializable snapshot of a search session at a depth boundary.
///
/// Produced by [`SearchHandle::checkpoint`]; consumed by
/// [`SearchDriver::resume`]. The format is a plain serde struct (JSON via
/// `serde_json`): stable under field addition on the emitting side only.
/// Journals carry it across restarts and upgrades, so a checkpoint an
/// older build wrote must keep resuming; `tests/fixtures/v1/` pins one.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchCheckpoint {
    /// The full search configuration (including the execution mode).
    pub config: SearchConfig,
    /// The training graphs.
    pub graphs: Vec<Graph>,
    /// Depth results completed so far (depths `1..=completed.len()`).
    pub completed: Vec<DepthResult>,
    /// The first depth a resumed run will evaluate.
    pub next_depth: usize,
    /// Wall-clock seconds already spent (carried into the resumed outcome).
    pub elapsed_seconds: f64,
    /// Cross-depth scheduler state (`None` before the first depth boundary,
    /// and in serial checkpoints written before serial mode became a preset
    /// of the one engine — a serial run never reads it, so those resume
    /// unchanged).
    pub scheduler: Option<SchedulerCheckpoint>,
}

/// What the engine publishes for checkpoints/progress, updated at every
/// depth boundary.
struct SharedState {
    status: SearchStatus,
    completed: Vec<DepthResult>,
    scheduler: Option<SchedulerCheckpoint>,
    elapsed_seconds: f64,
}

struct Shared {
    cancel: AtomicBool,
    state: Mutex<SharedState>,
}

/// A cloneable cancellation token for a running session (what the
/// [`crate::server::JobServer`] stores per job so `cancel` requests reach
/// the right engine).
#[derive(Clone)]
pub struct Canceller {
    shared: Arc<Shared>,
}

impl Canceller {
    /// Request cooperative cancellation.
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for Canceller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Canceller(..)")
    }
}

// ---------------------------------------------------------------------------

/// The session-oriented search entry point: one driver for both execution
/// modes, returning a [`SearchHandle`] instead of blocking.
#[derive(Debug, Clone)]
pub struct SearchDriver {
    config: SearchConfig,
    faults: Option<FaultContext>,
    energy_cache: Option<EnergyCache>,
}

impl SearchDriver {
    /// A driver for the given configuration (execution mode included —
    /// see [`SearchConfig::mode`]).
    pub fn new(config: SearchConfig) -> SearchDriver {
        SearchDriver {
            config,
            faults: None,
            energy_cache: None,
        }
    }

    /// Arm a deterministic fault-injection context for this session's
    /// engine (`session.advance` per depth, `pipeline.rung` per rung).
    /// Inert in release builds; see [`crate::fault`].
    pub fn with_fault_context(mut self, faults: FaultContext) -> SearchDriver {
        self.faults = Some(faults);
        self
    }

    /// Share an [`EnergyCache`] with this session's evaluator, so the
    /// expensive per-graph classical reference state is reused across
    /// sessions (the job server injects its server-scoped cache here).
    /// Purely a memoization hint: results are bit-identical with or
    /// without it.
    pub fn with_energy_cache(mut self, cache: EnergyCache) -> SearchDriver {
        self.energy_cache = Some(cache);
        self
    }

    /// The configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Validate and launch the search on a background engine thread.
    pub fn start(&self, graphs: &[Graph]) -> Result<SearchHandle, SearchError> {
        self.config.validate()?;
        if graphs.is_empty() {
            return Err(SearchError::NoGraphs);
        }
        Self::spawn(EngineSeed {
            config: self.config.clone(),
            graphs: graphs.to_vec(),
            completed: Vec::new(),
            scheduler: None,
            prior_elapsed: 0.0,
            faults: self.faults.clone(),
            energy_cache: self.energy_cache.clone(),
        })
    }

    /// Relaunch a session from a [`SearchCheckpoint`]: completed depths are
    /// carried over verbatim and evaluation continues at
    /// `checkpoint.next_depth`. For a fixed seed the final outcome is
    /// bit-identical to the uninterrupted run (timings aside).
    pub fn resume(checkpoint: SearchCheckpoint) -> Result<SearchHandle, SearchError> {
        Self::resume_with(checkpoint, None)
    }

    /// [`SearchDriver::resume`] with a fault-injection context (what the
    /// job server uses so resumed jobs stay chaos-testable).
    pub fn resume_with(
        checkpoint: SearchCheckpoint,
        faults: Option<FaultContext>,
    ) -> Result<SearchHandle, SearchError> {
        Self::resume_session(checkpoint, faults, None)
    }

    /// [`SearchDriver::resume_with`] plus an optionally shared
    /// [`EnergyCache`] (the full server-side resume path).
    pub fn resume_session(
        checkpoint: SearchCheckpoint,
        faults: Option<FaultContext>,
        energy_cache: Option<EnergyCache>,
    ) -> Result<SearchHandle, SearchError> {
        let SearchCheckpoint {
            config,
            graphs,
            completed,
            next_depth,
            elapsed_seconds,
            scheduler,
        } = checkpoint;
        config.validate()?;
        if graphs.is_empty() {
            return Err(SearchError::NoGraphs);
        }
        if next_depth != completed.len() + 1 || next_depth > config.max_depth + 1 {
            return Err(SearchError::InvalidConfig {
                message: format!(
                    "inconsistent checkpoint: next_depth {} with {} completed depths (max_depth {})",
                    next_depth,
                    completed.len(),
                    config.max_depth
                ),
            });
        }
        Self::spawn(EngineSeed {
            config,
            graphs,
            completed,
            scheduler,
            prior_elapsed: elapsed_seconds,
            faults,
            energy_cache,
        })
    }

    /// Blocking convenience: `start(graphs)` + [`SearchHandle::wait`].
    pub fn run(&self, graphs: &[Graph]) -> Result<SearchOutcome, SearchError> {
        self.start(graphs)?.wait()
    }

    fn spawn(seed: EngineSeed) -> Result<SearchHandle, SearchError> {
        let shared = Arc::new(Shared {
            cancel: AtomicBool::new(false),
            state: Mutex::new(SharedState {
                status: SearchStatus::Running,
                completed: seed.completed.clone(),
                scheduler: seed.scheduler.clone(),
                elapsed_seconds: seed.prior_elapsed,
            }),
        });
        let (tx, rx) = mpsc::channel();
        let config = seed.config.clone();
        let graphs = seed.graphs.clone();
        let engine_shared = Arc::clone(&shared);
        // The engine thread runs in the caller's pool, so a `ThreadPool::install`
        // around `start` sizes the serial preset's inner level.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(rayon::current_num_threads())
            .build()
            .expect("a pool of at least one thread");
        let join = std::thread::Builder::new()
            .name("qas-search-engine".into())
            .spawn(move || pool.install(|| run_engine(seed, engine_shared, tx)))
            .map_err(|e| SearchError::Evaluation {
                message: format!("failed to spawn the search engine thread: {e}"),
            })?;
        Ok(SearchHandle {
            shared,
            events: rx,
            join: Mutex::new(Some(join)),
            result: Mutex::new(None),
            result_cv: std::sync::Condvar::new(),
            config,
            graphs,
        })
    }
}

// ---------------------------------------------------------------------------

/// A running (or finished) search session.
///
/// Dropping the handle requests cancellation (the detached engine stops at
/// its next boundary); call [`wait`](Self::wait) to block for the outcome.
pub struct SearchHandle {
    shared: Arc<Shared>,
    events: Receiver<SearchEvent>,
    join: Mutex<Option<JoinHandle<Result<SearchOutcome, SearchError>>>>,
    result: Mutex<Option<Result<SearchOutcome, SearchError>>>,
    /// Signalled once `result` is populated (concurrent `wait` callers
    /// block here instead of spinning).
    result_cv: std::sync::Condvar,
    config: SearchConfig,
    graphs: Vec<Graph>,
}

impl SearchHandle {
    /// The typed event stream. Events arrive in deterministic order for a
    /// fixed seed; the stream closes after a terminal
    /// ([`SearchEvent::is_terminal`]) event.
    pub fn events(&self) -> &Receiver<SearchEvent> {
        &self.events
    }

    /// Blocking receive of the next event; `None` once the stream closed.
    pub fn next_event(&self) -> Option<SearchEvent> {
        self.events.recv().ok()
    }

    /// Request cooperative cancellation: the engine skips every training
    /// session of the current rung it has not started yet, drains completed
    /// depths into a valid partial outcome, and closes the event stream.
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Ordering::SeqCst);
    }

    /// A cloneable cancellation token (for registries like the job server
    /// that must cancel without holding the handle).
    pub fn canceller(&self) -> Canceller {
        Canceller {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Whether the engine has reached a terminal state.
    pub fn is_finished(&self) -> bool {
        self.progress().status != SearchStatus::Running
    }

    /// Live progress snapshot (updates at every depth boundary).
    pub fn progress(&self) -> SearchProgress {
        let state = lock_recover(&self.shared.state);
        let candidates_evaluated = state
            .completed
            .iter()
            .map(|d| d.candidates.len())
            .sum::<usize>();
        let optimizer_evaluations = state
            .completed
            .iter()
            .flat_map(|d| &d.candidates)
            .map(|c| c.total_evaluations)
            .sum::<usize>();
        let best_energy = state
            .completed
            .iter()
            .map(|d| d.best_energy)
            .fold(None::<f64>, |acc, e| Some(acc.map_or(e, |a| a.max(e))));
        SearchProgress {
            status: state.status,
            depths_completed: state.completed.len(),
            max_depth: self.config.max_depth,
            candidates_evaluated,
            optimizer_evaluations,
            best_energy,
            elapsed_seconds: state.elapsed_seconds,
        }
    }

    /// Snapshot a [`SearchCheckpoint`] of the session as of the last
    /// completed depth. Valid at any time — while running, after
    /// cancellation, or after completion (a checkpoint of a finished run
    /// resumes into an immediate [`SearchEvent::Finished`]).
    pub fn checkpoint(&self) -> SearchCheckpoint {
        let state = lock_recover(&self.shared.state);
        SearchCheckpoint {
            config: self.config.clone(),
            graphs: self.graphs.clone(),
            completed: state.completed.clone(),
            next_depth: state.completed.len() + 1,
            elapsed_seconds: state.elapsed_seconds,
            scheduler: state.scheduler.clone(),
        }
    }

    /// Block until the engine finishes and return the outcome (idempotent:
    /// later calls return the cached result). A cancelled session returns
    /// the partial outcome of its completed depths, or
    /// [`SearchError::Cancelled`] if nothing had completed.
    pub fn wait(&self) -> Result<SearchOutcome, SearchError> {
        {
            let cached = lock_recover(&self.result);
            if let Some(result) = cached.as_ref() {
                return result.clone();
            }
        }
        let join = {
            let mut slot = lock_recover(&self.join);
            slot.take()
        };
        match join {
            Some(handle) => {
                // A panicking engine (a candidate evaluation blowing up, an
                // injected chaos fault) is captured as a typed error with
                // its payload message, not swallowed into a generic one.
                let result = handle.join().unwrap_or_else(|payload| {
                    Err(SearchError::Panicked {
                        message: fault::panic_message(payload.as_ref()),
                    })
                });
                let mut cached = lock_recover(&self.result);
                let result = cached.get_or_insert(result).clone();
                self.result_cv.notify_all();
                result
            }
            // Another thread is joining; block until it caches the result.
            None => {
                let mut cached = lock_recover(&self.result);
                loop {
                    if let Some(result) = cached.as_ref() {
                        return result.clone();
                    }
                    cached = wait_recover(&self.result_cv, cached);
                }
            }
        }
    }
}

impl std::fmt::Debug for SearchHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchHandle")
            .field("progress", &self.progress())
            .finish()
    }
}

impl Drop for SearchHandle {
    fn drop(&mut self) {
        // A detached engine would otherwise keep burning CPU with nobody
        // able to observe it; stop it at the next boundary.
        self.cancel();
    }
}

// ---------------------------------------------------------------------------

struct EngineSeed {
    config: SearchConfig,
    graphs: Vec<Graph>,
    completed: Vec<DepthResult>,
    scheduler: Option<SchedulerCheckpoint>,
    prior_elapsed: f64,
    faults: Option<FaultContext>,
    /// Optionally shared evaluator memo (server-scoped when present).
    energy_cache: Option<EnergyCache>,
}

fn run_engine(
    seed: EngineSeed,
    shared: Arc<Shared>,
    tx: Sender<SearchEvent>,
) -> Result<SearchOutcome, SearchError> {
    let EngineSeed {
        config,
        graphs,
        mut completed,
        scheduler,
        prior_elapsed,
        faults,
        energy_cache,
    } = seed;
    let run_start = Instant::now();
    let start_depth = completed.len() + 1;
    let emit = |event: SearchEvent| {
        // A dropped receiver only means nobody is listening; the search
        // result is still wanted through `wait()`.
        let _ = tx.send(event);
    };
    emit(SearchEvent::Started {
        problem: config.evaluator.problem.name().to_string(),
        mode: config.mode,
        max_depth: config.max_depth,
        start_depth,
        num_graphs: graphs.len(),
    });

    let mut scheduler = match scheduler {
        Some(state) => BudgetedScheduler::restore(&config, state, energy_cache),
        None => BudgetedScheduler::with_energy_cache(&config, energy_cache),
    };
    let parallel_threads = scheduler.workers();

    let publish = |completed: &[DepthResult],
                   scheduler: Option<SchedulerCheckpoint>,
                   status: SearchStatus| {
        let mut state = lock_recover(&shared.state);
        state.completed = completed.to_vec();
        state.scheduler = scheduler;
        state.elapsed_seconds = prior_elapsed + run_start.elapsed().as_secs_f64();
        state.status = status;
    };
    let outcome_of = |completed: Vec<DepthResult>| {
        SearchOutcome::from_depth_results(
            config.evaluator.problem.name().to_string(),
            completed,
            prior_elapsed + run_start.elapsed().as_secs_f64(),
            parallel_threads,
            config.evaluator.budget,
            graphs.len(),
        )
    };
    let cancel = &shared.cancel;
    let cancelled_now = || cancel.load(Ordering::SeqCst);

    for depth in start_depth..=config.max_depth {
        let depth_start = Instant::now();
        let (candidates, folded) = config.propose_candidates(depth);
        emit(SearchEvent::DepthStarted {
            depth,
            proposed: candidates.len(),
        });

        let evaluated = if cancelled_now() {
            Err(SearchError::Cancelled)
        } else if let Err(e) = fault::trip(faults.as_ref(), site::SESSION_ADVANCE) {
            // An injected transient at the depth boundary aborts the depth
            // exactly like a real evaluation failure (retryable upstream).
            Err(e)
        } else {
            let mut sink = |event: SearchEvent| emit(event);
            scheduler.evaluate_depth(
                depth,
                candidates,
                &graphs,
                cancel,
                &mut sink,
                faults.as_ref(),
            )
        };

        match evaluated {
            Ok(DepthEvaluation {
                results,
                rungs,
                gated_out,
            }) => {
                // The results only exist once every rung has run.
                for (index, cand) in results.iter().enumerate() {
                    emit(SearchEvent::CandidateEvaluated {
                        depth,
                        candidate: index,
                        mixer_label: cand.mixer_label.clone(),
                        mean_energy: cand.mean_energy,
                        total_evaluations: cand.total_evaluations,
                        pruned_at_rung: cand.pruned_at_rung,
                    });
                }
                let best_energy = results
                    .iter()
                    .map(|r| r.mean_energy)
                    .fold(f64::NEG_INFINITY, f64::max);
                let pruned = results
                    .iter()
                    .filter(|c| c.pruned_at_rung.is_some())
                    .count();
                let evaluated = results.len();
                completed.push(DepthResult {
                    depth,
                    candidates: results,
                    elapsed_seconds: depth_start.elapsed().as_secs_f64(),
                    best_energy,
                    rungs,
                    gated_out,
                    folded,
                });
                // Publish **before** emitting: an observer that checkpoints
                // on `DepthCompleted` must see the depth it was told about.
                publish(
                    &completed,
                    Some(scheduler.checkpoint()),
                    SearchStatus::Running,
                );
                emit(SearchEvent::DepthCompleted {
                    depth,
                    best_energy,
                    evaluated,
                    pruned,
                });
            }
            Err(SearchError::Cancelled) => {
                publish(
                    &completed,
                    Some(scheduler.checkpoint()),
                    SearchStatus::Cancelled,
                );
                emit(SearchEvent::Cancelled {
                    completed_depths: completed.len(),
                });
                if completed.is_empty() {
                    return Err(SearchError::Cancelled);
                }
                return outcome_of(completed);
            }
            Err(other) => {
                publish(
                    &completed,
                    Some(scheduler.checkpoint()),
                    SearchStatus::Failed,
                );
                emit(SearchEvent::Failed {
                    message: other.to_string(),
                });
                return Err(other);
            }
        }
    }

    let outcome = outcome_of(completed.clone());
    match &outcome {
        Ok(o) => {
            publish(
                &completed,
                Some(scheduler.checkpoint()),
                SearchStatus::Finished,
            );
            emit(SearchEvent::Finished {
                best_mixer: o.best.mixer_label.clone(),
                best_depth: o.best.depth,
                best_energy: o.best.energy,
                candidates_evaluated: o.num_candidates_evaluated,
            });
        }
        Err(e) => {
            publish(
                &completed,
                Some(scheduler.checkpoint()),
                SearchStatus::Failed,
            );
            emit(SearchEvent::Failed {
                message: e.to_string(),
            });
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::GateAlphabet;
    use crate::search::{ExecutionMode, PipelineConfig};
    use qaoa::Backend;

    fn tiny_config() -> SearchConfig {
        SearchConfig::builder()
            .alphabet(GateAlphabet::from_mnemonics(&["rx", "ry"]).unwrap())
            .max_depth(1)
            .max_gates_per_mixer(2)
            .optimizer_budget(25)
            .backend(Backend::StateVector)
            .seed(3)
            .build()
    }

    fn tiny_graphs() -> Vec<Graph> {
        vec![Graph::cycle(4), Graph::erdos_renyi(5, 0.6, 8)]
    }

    #[test]
    fn driver_runs_both_modes() {
        for mode in [ExecutionMode::Serial, ExecutionMode::Parallel] {
            let mut cfg = tiny_config();
            cfg.mode = mode;
            let outcome = SearchDriver::new(cfg).run(&tiny_graphs()).unwrap();
            assert_eq!(outcome.num_candidates_evaluated, 6, "{mode}");
            assert_eq!(
                outcome.parallel_threads.is_none(),
                mode == ExecutionMode::Serial
            );
        }
    }

    #[test]
    fn event_stream_has_lifecycle_shape() {
        let handle = SearchDriver::new(tiny_config())
            .start(&tiny_graphs())
            .unwrap();
        let events: Vec<SearchEvent> = handle.events().iter().collect();
        assert!(matches!(events.first(), Some(SearchEvent::Started { .. })));
        assert!(events.last().unwrap().is_terminal());
        let evaluated = events
            .iter()
            .filter(|e| matches!(e, SearchEvent::CandidateEvaluated { .. }))
            .count();
        assert_eq!(evaluated, 6);
        let outcome = handle.wait().unwrap();
        assert_eq!(outcome.num_candidates_evaluated, 6);
        assert!(handle.is_finished());
        assert_eq!(handle.progress().status, SearchStatus::Finished);
    }

    #[test]
    fn serial_event_stream_equals_full_budget_single_thread_stream() {
        let mut cfg = tiny_config();
        cfg.max_depth = 2;
        let stream = |cfg: SearchConfig| -> Vec<SearchEvent> {
            let handle = SearchDriver::new(cfg).start(&tiny_graphs()).unwrap();
            handle.events().iter().collect()
        };
        // Serial ignores `cfg.pipeline` (pruning + warm starts here).
        let serial = stream(cfg.clone().with_mode(ExecutionMode::Serial));
        let mut parallel = stream(SearchConfig {
            threads: Some(1),
            pipeline: PipelineConfig::full_budget(),
            ..cfg
        });
        assert!(serial
            .iter()
            .any(|e| matches!(e, SearchEvent::SessionAdvanced { .. })));
        match (&serial[0], &mut parallel[0]) {
            (SearchEvent::Started { mode: serial, .. }, SearchEvent::Started { mode, .. }) => {
                assert_eq!(
                    (*serial, *mode),
                    (ExecutionMode::Serial, ExecutionMode::Parallel)
                );
                *mode = ExecutionMode::Serial;
            }
            other => panic!("streams must open with Started: {other:?}"),
        }
        let bytes = |events: &[SearchEvent]| serde_json::to_string(events).unwrap();
        assert_eq!(bytes(&serial), bytes(&parallel));
    }

    #[test]
    fn serial_checkpoint_without_scheduler_state_resumes() {
        let mut cfg = tiny_config().with_mode(ExecutionMode::Serial);
        cfg.max_depth = 2;
        let graphs = tiny_graphs();
        let full = SearchDriver::new(cfg.clone()).run(&graphs).unwrap();

        // A depth-1 checkpoint as serial mode used to write it: no scheduler.
        cfg.max_depth = 1;
        let handle = SearchDriver::new(cfg).start(&graphs).unwrap();
        handle.wait().unwrap();
        let mut ckpt = handle.checkpoint();
        assert!(ckpt.scheduler.take().is_some());
        ckpt.config.max_depth = 2;

        let resumed = SearchDriver::resume(ckpt).unwrap().wait().unwrap();
        assert_eq!(resumed.parallel_threads, None);
        let per_depth = |o: &SearchOutcome| -> Vec<Vec<CandidateResult>> {
            o.depth_results
                .iter()
                .map(|d| d.candidates.clone())
                .collect()
        };
        assert_eq!(per_depth(&full), per_depth(&resumed));
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "fault injection is armed only in debug builds"
    )]
    fn cancel_inside_a_single_rung_depth_skips_the_remaining_sessions() {
        use crate::fault::{FaultAction, FaultInjector, FaultPlan, FaultSpec};
        // 6 candidates × 2 graphs = 12 sessions in the depth's only rung.
        let graphs = vec![
            Graph::erdos_renyi(10, 0.5, 8),
            Graph::erdos_renyi(10, 0.5, 9),
        ];
        for mode in [ExecutionMode::Serial, ExecutionMode::Parallel] {
            let cfg = SearchConfig {
                mode,
                threads: Some(1),
                pipeline: PipelineConfig::full_budget(),
                ..tiny_config()
            };
            // `pipeline.rung` is hit after the rung-top cancel poll, so a
            // cancel issued once the hit is visible can only be honoured by
            // the per-session poll; the delay keeps the engine inside the
            // rung while this thread reacts.
            let injector = FaultInjector::new(FaultPlan::single(FaultSpec {
                site: site::PIPELINE_RUNG.to_string(),
                job: None,
                hit: 1,
                action: FaultAction::Delay { millis: 50 },
            }));
            let handle = SearchDriver::new(cfg)
                .with_fault_context(FaultContext::new(Arc::clone(&injector), None))
                .start(&graphs)
                .unwrap();
            while injector.hits(site::PIPELINE_RUNG) == 0 {
                std::thread::yield_now();
            }
            handle.cancel();
            assert_eq!(handle.wait().unwrap_err(), SearchError::Cancelled, "{mode}");
            let events: Vec<SearchEvent> = handle.events().iter().collect();
            assert_eq!(
                events.last(),
                Some(&SearchEvent::Cancelled {
                    completed_depths: 0
                }),
                "{mode}"
            );
        }
    }

    #[test]
    fn wait_is_idempotent() {
        let handle = SearchDriver::new(tiny_config())
            .start(&tiny_graphs())
            .unwrap();
        let a = handle.wait().unwrap();
        let b = handle.wait().unwrap();
        assert_eq!(a.best.energy.to_bits(), b.best.energy.to_bits());
    }

    #[test]
    fn cancel_before_any_depth_reports_cancelled() {
        let mut cfg = tiny_config();
        cfg.max_depth = 2;
        let driver = SearchDriver::new(cfg);
        let handle = driver.start(&tiny_graphs()).unwrap();
        handle.cancel();
        match handle.wait() {
            // Depending on timing the first depth may already have finished.
            Ok(outcome) => assert!(outcome.depth_results.len() <= 2),
            Err(e) => assert_eq!(e, SearchError::Cancelled),
        }
        let status = handle.progress().status;
        assert!(
            status == SearchStatus::Cancelled || status == SearchStatus::Finished,
            "{status}"
        );
    }

    #[test]
    fn runtime_failure_emits_terminal_failed_event() {
        use crate::constraints::{Constraint, ConstraintSet};
        // Validation passes, but the {rx, ry} alphabet can never satisfy a
        // require-H constraint, so every depth evaluates zero candidates
        // and the run fails when building the outcome.
        let mut cfg = tiny_config();
        cfg.constraints =
            ConstraintSet::new(vec![Constraint::RequireAnyOf(vec![qcircuit::Gate::H])]);
        let handle = SearchDriver::new(cfg).start(&tiny_graphs()).unwrap();
        let events: Vec<SearchEvent> = handle.events().iter().collect();
        assert!(
            matches!(events.last(), Some(SearchEvent::Failed { .. })),
            "stream must end on a terminal event, got {:?}",
            events.last()
        );
        assert!(handle.wait().is_err());
        assert_eq!(handle.progress().status, SearchStatus::Failed);
    }

    #[test]
    fn empty_graphs_rejected_before_spawn() {
        assert!(matches!(
            SearchDriver::new(tiny_config()).start(&[]),
            Err(SearchError::NoGraphs)
        ));
    }

    #[test]
    fn invalid_resume_checkpoint_is_rejected() {
        let handle = SearchDriver::new(tiny_config())
            .start(&tiny_graphs())
            .unwrap();
        handle.wait().unwrap();
        let mut ckpt = handle.checkpoint();
        ckpt.next_depth = 5;
        assert!(matches!(
            SearchDriver::resume(ckpt),
            Err(SearchError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn checkpoint_of_finished_run_resumes_to_same_outcome() {
        let driver = SearchDriver::new(tiny_config());
        let handle = driver.start(&tiny_graphs()).unwrap();
        let outcome = handle.wait().unwrap();
        let ckpt = handle.checkpoint();
        assert_eq!(ckpt.next_depth, 2);
        let resumed = SearchDriver::resume(ckpt).unwrap().wait().unwrap();
        assert_eq!(outcome.best.energy.to_bits(), resumed.best.energy.to_bits());
        assert_eq!(outcome.best.mixer_label, resumed.best.mixer_label);
    }
}
