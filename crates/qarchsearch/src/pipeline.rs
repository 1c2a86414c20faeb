//! The budget-aware evaluation pipeline: successive halving, warm starts,
//! and a predictor gate over an ordered map of each rung's sessions.
//!
//! The paper's released search spends the full optimizer budget (200 COBYLA
//! steps per graph) on **every** candidate, including obvious losers.
//! Surrogate-assisted QAS benchmarks show most candidates can be rejected
//! after a fraction of that budget, which is the lever this module pulls.
//! One depth is evaluated as follows:
//!
//! 1. **Predictor gate** (optional): candidates are ranked by
//!    [`GateRanker::score`], trained on earlier depths' rewards, and only
//!    the top `predictor_gate` sequences are admitted.
//! 2. **Warm start** (optional): every admitted candidate's per-graph
//!    [`TrainingSession`] starts from the best fully-trained angles of
//!    depth `p − 1` ([`qaoa::ansatz::QaoaAnsatz::warm_start_flat`]) instead
//!    of the small-angle default.
//! 3. **Successive halving**: all sessions are advanced to the first rung's
//!    cumulative budget, candidates are ranked by mean energy, the top
//!    `1/eta` fraction is promoted, and promoted sessions *continue* (via
//!    the [`optim::Resumable`] checkpoint API — no restart) at the next
//!    rung's budget, until the final rung equals the configured full budget.
//! 4. Each rung's session advances are one ordered map over the workers:
//!    they take sessions from one shared FIFO cursor, each worker sweeps in
//!    its own [`BatchScratch`], and results come back in session order, so
//!    outcomes are deterministic for a fixed seed regardless of thread
//!    count.
//!
//! Pruned candidates keep their partial results (and record the rung they
//! were pruned at) so reports can show exactly where the budget went.
//!
//! This is the only per-depth engine. [`ExecutionMode::Serial`] — the
//! paper's Algorithm 1 — is a preset of it
//! ([`SearchConfig::effective_pipeline`]: one full-budget rung, no warm
//! start, no gate) whose rung tasks run inline on the engine thread, and
//! multi-start training (`restarts > 1`) is a property of the sessions, so
//! it is pruned, warm-started and reported like any other search.

use crate::error::SearchError;
use crate::evaluator::{CandidateResult, EnergyCache, Evaluator};
use crate::events::SearchEvent;
use crate::fault::{self, site, FaultContext};
use crate::predictor::GateRanker;
use crate::qbuilder::QBuilder;
use crate::search::{ExecutionMode, PipelineConfig, RungStat, SearchConfig};
use crate::session::SchedulerCheckpoint;
use crate::sync::lock_recover;
use graphs::Graph;
use qaoa::energy::{BatchScratch, TrainedCircuit, TrainingSession};
use qaoa::mixer::Mixer;
use qcircuit::Gate;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The cumulative budget targets of the halving schedule: starting at
/// `first`, multiplying by `eta`, capped at (and always finishing with)
/// `full`.
pub(crate) fn rung_targets(first: usize, eta: usize, full: usize) -> Vec<usize> {
    let mut targets = Vec::new();
    let mut b = first.max(1).min(full);
    loop {
        targets.push(b);
        if b >= full {
            break;
        }
        b = b.saturating_mul(eta.max(2)).min(full);
    }
    targets
}

/// Run one rung's tasks and return their results in task order.
///
/// `workers` is `None` under the serial preset: the tasks run inline on the
/// calling thread, in its ambient rayon pool (the paper's inner parallel
/// level). `Some(threads)` has that many workers (clamped to the task count;
/// one runs inline) take tasks from one shared FIFO cursor, each task with
/// the inner level pinned to one thread: the outer level owns the cores (the
/// paper's two-level scheme), and the inner level changes no bit. Every
/// worker owns one [`BatchScratch`]. A result depends only on its task, so
/// the output is the same at any worker count. Worker panics propagate.
fn run_rung<T: Send, R: Send>(
    tasks: Vec<T>,
    workers: Option<usize>,
    f: impl Fn(&mut BatchScratch, T) -> R + Sync,
) -> Vec<R> {
    let Some(threads) = workers else {
        let mut scratch = BatchScratch::new();
        return tasks.into_iter().map(|t| f(&mut scratch, t)).collect();
    };
    let threads = threads.clamp(1, tasks.len().max(1));
    let inner = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("single-thread pool");
    let cursor = Mutex::new(tasks.into_iter().enumerate());
    let work = || {
        let mut scratch = BatchScratch::new();
        let mut done = Vec::new();
        loop {
            let next = lock_recover(&cursor).next();
            let Some((i, task)) = next else {
                return done;
            };
            done.push((i, inner.install(|| f(&mut scratch, task))));
        }
    };
    let mut done: Vec<(usize, R)> = if threads == 1 {
        work()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("rung worker panicked"))
                .collect()
        })
    };
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// One depth's evaluated cohort plus the equal-budget ranker rewards.
struct EvaluatedCohort {
    results: Vec<CandidateResult>,
    rungs: Vec<RungStat>,
    /// Per-candidate mean energy at the first (equal-budget) rung.
    rewards: Vec<f64>,
}

/// Everything `evaluate_depth` reports back to the scheduler.
pub(crate) struct DepthEvaluation {
    /// One result per admitted candidate, in proposal order.
    pub results: Vec<CandidateResult>,
    /// Per-rung accounting (empty when pruning was disabled).
    pub rungs: Vec<RungStat>,
    /// Candidates rejected by the predictor gate before any evaluation.
    pub gated_out: usize,
}

/// The stateful scheduler driving one search run's depth loop.
///
/// Holds the memoized [`Evaluator`], the ranker that powers the predictor
/// gate, and the warm-start source (best fully-trained candidate of the
/// previous depth).
pub(crate) struct BudgetedScheduler {
    config: SearchConfig,
    /// The pipeline settings in force ([`SearchConfig::effective_pipeline`]).
    pipeline: PipelineConfig,
    /// Rung worker count; `None` is the serial preset, whose rung tasks run
    /// inline on the engine thread with the ambient (unpinned) inner rayon
    /// pool — the paper's inner parallel level.
    workers: Option<usize>,
    evaluator: Evaluator,
    builder: QBuilder,
    ranker: GateRanker,
    ranker_trained: bool,
    warm_source: Option<CandidateResult>,
}

impl BudgetedScheduler {
    /// Build a scheduler with an optionally shared energy-evaluator memo
    /// (the job server injects its server-scoped cache here; `None` keeps
    /// the search's own private, unbounded memo).
    pub(crate) fn with_energy_cache(
        config: &SearchConfig,
        energy_cache: Option<EnergyCache>,
    ) -> BudgetedScheduler {
        let evaluator = match energy_cache {
            Some(cache) => Evaluator::with_energy_cache(config.evaluator.clone(), cache),
            None => Evaluator::new(config.evaluator.clone()),
        };
        BudgetedScheduler {
            pipeline: config.effective_pipeline(),
            workers: match config.mode {
                ExecutionMode::Serial => None,
                ExecutionMode::Parallel => Some(
                    config
                        .threads
                        .unwrap_or_else(rayon::current_num_threads)
                        .max(1),
                ),
            },
            evaluator,
            builder: QBuilder::new(config.alphabet.clone()),
            ranker: GateRanker::new(config.alphabet.clone()),
            ranker_trained: false,
            warm_source: None,
            config: config.clone(),
        }
    }

    /// The rung worker count (`None` under the serial preset).
    pub(crate) fn workers(&self) -> Option<usize> {
        self.workers
    }

    /// Snapshot the cross-depth state (ranker + warm-start source) for the
    /// session layer's [`crate::session::SearchCheckpoint`]. Everything a
    /// later depth's evaluation depends on beyond the immutable
    /// configuration lives here, which is what makes resume-from-checkpoint
    /// bit-identical to an uninterrupted run.
    pub(crate) fn checkpoint(&self) -> SchedulerCheckpoint {
        SchedulerCheckpoint {
            ranker: self.ranker.state().clone(),
            ranker_trained: self.ranker_trained,
            warm_source: self.warm_source.clone(),
        }
    }

    /// Rebuild a scheduler mid-search from a checkpoint (the inverse of
    /// [`BudgetedScheduler::checkpoint`]).
    pub(crate) fn restore(
        config: &SearchConfig,
        state: SchedulerCheckpoint,
        energy_cache: Option<EnergyCache>,
    ) -> BudgetedScheduler {
        let mut scheduler = BudgetedScheduler::with_energy_cache(config, energy_cache);
        scheduler.ranker.restore_state(state.ranker);
        scheduler.ranker_trained = state.ranker_trained;
        scheduler.warm_source = state.warm_source;
        scheduler
    }

    /// Rank-and-truncate candidates through the predictor gate. Returns the
    /// admitted candidates (in original proposal order) and the number
    /// rejected. The gate only engages once the ranker has seen feedback
    /// (i.e. from depth 2 on), so depth 1 always evaluates everything.
    fn apply_gate(&self, candidates: Vec<Vec<Gate>>) -> (Vec<Vec<Gate>>, usize) {
        let Some(cap) = self.pipeline.predictor_gate else {
            return (candidates, 0);
        };
        if !self.ranker_trained || candidates.len() <= cap {
            return (candidates, 0);
        }
        let scores: Vec<f64> = candidates.iter().map(|c| self.ranker.score(c)).collect();
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        // Deterministic: higher score first, proposal order breaks ties.
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        order.truncate(cap);
        order.sort_unstable();
        let gated_out = candidates.len() - order.len();
        let mut keep = vec![false; candidates.len()];
        for &i in &order {
            keep[i] = true;
        }
        let admitted = candidates
            .into_iter()
            .zip(keep)
            .filter_map(|(c, k)| k.then_some(c))
            .collect();
        (admitted, gated_out)
    }

    /// Evaluate one depth's candidates and update the scheduler state
    /// (ranker feedback, warm-start source). `events` receives the depth's
    /// telemetry ([`SearchEvent::CandidatesGated`], `SessionAdvanced`,
    /// `RungCompleted`, `CandidatePruned`) in deterministic order — always
    /// from the calling thread, never from a worker. `cancel` is polled at
    /// the top of every rung and of every rung task: once set, the sessions
    /// not yet started are skipped, the depth aborts with
    /// [`SearchError::Cancelled`] and its partial sessions are dropped
    /// (cancellation is depth-atomic for results). `faults` is the
    /// optional chaos-test context: [`crate::fault::site::PIPELINE_RUNG`]
    /// fires at the top of every successive-halving rung.
    pub(crate) fn evaluate_depth(
        &mut self,
        depth: usize,
        candidates: Vec<Vec<Gate>>,
        graphs: &[Graph],
        cancel: &AtomicBool,
        events: &mut dyn FnMut(SearchEvent),
        faults: Option<&FaultContext>,
    ) -> Result<DepthEvaluation, SearchError> {
        let (candidates, gated_out) = self.apply_gate(candidates);
        if gated_out > 0 {
            events(SearchEvent::CandidatesGated {
                depth,
                admitted: candidates.len(),
                gated_out,
            });
        }
        if candidates.is_empty() {
            return Ok(DepthEvaluation {
                results: Vec::new(),
                rungs: Vec::new(),
                gated_out,
            });
        }
        let mixers: Vec<Mixer> = candidates
            .iter()
            .map(|gates| self.builder.build_mixer(gates))
            .collect::<Result<_, _>>()?;

        let EvaluatedCohort {
            results,
            rungs,
            rewards,
        } = self.evaluate_halving(depth, &mixers, graphs, cancel, events, faults)?;

        // The gate ranker must compare like with like: under halving,
        // survivors end up far better trained than pruned losers, so the
        // reward is each candidate's mean energy at the *first* rung, where
        // every candidate received the same budget.
        for (gates, reward) in candidates.iter().zip(rewards.iter()) {
            self.ranker.feedback(gates, *reward);
        }
        self.ranker_trained = true;

        // Warm-start source for depth + 1: the best candidate that received
        // the full budget (partial results would transfer half-trained
        // angles). First maximum wins, so ties are deterministic.
        self.warm_source = results
            .iter()
            .filter(|r| r.pruned_at_rung.is_none())
            .fold(None::<&CandidateResult>, |best, r| match best {
                Some(b) if b.mean_energy >= r.mean_energy => Some(b),
                _ => Some(r),
            })
            .cloned();

        Ok(DepthEvaluation {
            results,
            rungs,
            gated_out,
        })
    }

    /// The successive-halving session pipeline. The third return value is
    /// the per-candidate mean energy after the first rung — the
    /// equal-budget reward the gate ranker trains on.
    fn evaluate_halving(
        &self,
        depth: usize,
        mixers: &[Mixer],
        graphs: &[Graph],
        cancel: &AtomicBool,
        events: &mut dyn FnMut(SearchEvent),
        faults: Option<&FaultContext>,
    ) -> Result<EvaluatedCohort, SearchError> {
        let pc = &self.pipeline;
        let full_budget = self.config.evaluator.budget;
        let num_graphs = graphs.len();
        let num_candidates = mixers.len();
        let targets = if pc.prune {
            rung_targets(pc.first_rung, pc.eta, full_budget)
        } else {
            vec![full_budget]
        };

        let warm = if pc.warm_start {
            self.warm_source.as_ref()
        } else {
            None
        };

        // One optimizer instance drives every session's start *and* every
        // resume: checkpoints are only meaningful under the configuration
        // that created them.
        let optimizer = self.config.evaluator.build_resumable();
        let optimizer = optimizer.as_ref();

        // One session per (candidate, graph), laid out candidate-major.
        let mut sessions: Vec<Option<TrainingSession>> =
            Vec::with_capacity(num_candidates * num_graphs);
        for mixer in mixers {
            for (gi, graph) in graphs.iter().enumerate() {
                let warm_from = warm.map(|w| {
                    let prev = &w.per_graph[gi];
                    (prev.gammas.as_slice(), prev.betas.as_slice())
                });
                sessions.push(Some(self.evaluator.begin_session(
                    graph,
                    mixer,
                    depth,
                    warm_from,
                    full_budget,
                    optimizer,
                )?));
            }
        }
        let mut snapshots: Vec<Option<TrainedCircuit>> = vec![None; num_candidates * num_graphs];
        let mut spent: Vec<usize> = vec![0; num_candidates * num_graphs];
        let mut pruned_at: Vec<Option<usize>> = vec![None; num_candidates];
        let mut active: Vec<usize> = (0..num_candidates).collect();
        let mut rung_stats = Vec::with_capacity(targets.len());
        let mut first_rung_means: Vec<f64> = Vec::new();

        for (ri, &target) in targets.iter().enumerate() {
            if cancel.load(Ordering::SeqCst) {
                return Err(SearchError::Cancelled);
            }
            fault::trip(faults, site::PIPELINE_RUNG)?;
            let entrants = active.len();
            let mut tasks: Vec<(usize, TrainingSession)> =
                Vec::with_capacity(entrants * num_graphs);
            for &ci in &active {
                for gi in 0..num_graphs {
                    let slot = ci * num_graphs + gi;
                    tasks.push((slot, sessions[slot].take().expect("active session present")));
                }
            }

            let advance =
                |scratch: &mut BatchScratch, (slot, mut session): (usize, TrainingSession)| {
                    // A cancelled rung skips every session it has not started.
                    if cancel.load(Ordering::SeqCst) {
                        return Err(SearchError::Cancelled);
                    }
                    // Compiled sessions sweep each point the optimizer asks
                    // for in the worker's scratch state; the other
                    // objectives ignore it.
                    let trained = session.advance_in(optimizer, target, Some(scratch))?;
                    Ok((slot, session, trained))
                };
            let outcomes = run_rung(tasks, self.workers, advance)
                .into_iter()
                .collect::<Result<Vec<_>, SearchError>>()?;

            // Only a rung whose every session advanced reports them, in slot
            // order (the task order).
            let mut rung_evaluations = 0usize;
            for (slot, session, trained) in outcomes {
                rung_evaluations += trained.evaluations - spent[slot];
                spent[slot] = trained.evaluations;
                events(SearchEvent::SessionAdvanced {
                    depth,
                    candidate: slot / num_graphs,
                    graph: slot % num_graphs,
                    evaluations: trained.evaluations,
                    energy: trained.energy,
                });
                snapshots[slot] = Some(trained);
                sessions[slot] = Some(session);
            }

            let mean_energy = |ci: usize| -> f64 {
                (0..num_graphs)
                    .map(|gi| {
                        snapshots[ci * num_graphs + gi]
                            .as_ref()
                            .expect("advanced this rung")
                            .energy
                    })
                    .sum::<f64>()
                    / num_graphs as f64
            };
            if ri == 0 {
                // Every candidate is active at rung 0 with the same budget:
                // the one point where rewards are comparable across the
                // whole cohort.
                first_rung_means = (0..num_candidates).map(mean_energy).collect();
            }

            // Promote the top 1/eta (by mean energy over the graphs); the
            // last rung keeps everyone it received.
            if ri + 1 < targets.len() {
                let keep = entrants.div_ceil(pc.eta).max(1);
                let mut order = active.clone();
                order.sort_by(|&a, &b| mean_energy(b).total_cmp(&mean_energy(a)).then(a.cmp(&b)));
                let mut cut: Vec<usize> = order[keep.min(order.len())..].to_vec();
                cut.sort_unstable();
                for &ci in &cut {
                    pruned_at[ci] = Some(ri);
                    // A pruned candidate's results live on in `snapshots`;
                    // its compiled programs and optimizer states are dead
                    // weight from here on.
                    sessions[ci * num_graphs..(ci + 1) * num_graphs].fill_with(|| None);
                }
                order.truncate(keep);
                order.sort_unstable();
                active = order;
                for ci in cut {
                    events(SearchEvent::CandidatePruned {
                        depth,
                        candidate: ci,
                        mixer_label: mixers[ci].label(),
                        rung: ri,
                    });
                }
            }

            rung_stats.push(RungStat {
                target_budget: target,
                entrants,
                survivors: active.len(),
                evaluations: rung_evaluations,
            });
            if pc.prune {
                events(SearchEvent::RungCompleted {
                    depth,
                    rung: ri,
                    target_budget: target,
                    entrants,
                    survivors: active.len(),
                    evaluations: rung_evaluations,
                });
            }
        }

        let mut results = Vec::with_capacity(num_candidates);
        for (ci, mixer) in mixers.iter().enumerate() {
            let per_graph: Vec<TrainedCircuit> = (0..num_graphs)
                .map(|gi| {
                    snapshots[ci * num_graphs + gi]
                        .clone()
                        .expect("every candidate ran rung 0")
                })
                .collect();
            results.push(CandidateResult::from_per_graph(
                mixer.label(),
                depth,
                per_graph,
                pruned_at[ci],
            )?);
        }
        Ok(EvaluatedCohort {
            results,
            rungs: if pc.prune { rung_stats } else { Vec::new() },
            rewards: first_rung_means,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_task_order() {
        let tasks: Vec<usize> = (0..100).collect();
        for workers in [None, Some(1), Some(2), Some(4), Some(7)] {
            let out = run_rung(tasks.clone(), workers, |_, t| t * 3);
            assert_eq!(out, (0..100).map(|t| t * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = run_rung((0..250).collect::<Vec<_>>(), Some(4), |_, t: i32| {
            counter.fetch_add(1, Ordering::SeqCst);
            t
        });
        assert_eq!(counter.load(Ordering::SeqCst), 250);
        assert_eq!(out.len(), 250);
    }

    #[test]
    fn uneven_task_costs_are_balanced() {
        // One pathological task (index 0) next to many cheap ones: the other
        // workers keep taking cheap tasks from the cursor while it runs.
        let tasks: Vec<u64> = (0..64).map(|i| if i == 0 { 20 } else { 1 }).collect();
        let out = run_rung(tasks, Some(4), |_, millis| {
            std::thread::sleep(std::time::Duration::from_millis(millis));
            millis
        });
        assert_eq!(out.iter().sum::<u64>(), 20 + 63);
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let out = run_rung(vec![1, 2], Some(16), |_, t| t + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn empty_task_list_returns_empty() {
        let out: Vec<i32> = run_rung(Vec::<i32>::new(), Some(4), |_, t| t);
        assert!(out.is_empty());
    }

    #[test]
    fn rung_targets_escalate_to_the_full_budget() {
        assert_eq!(rung_targets(20, 4, 200), vec![20, 80, 200]);
        assert_eq!(rung_targets(25, 2, 200), vec![25, 50, 100, 200]);
        assert_eq!(rung_targets(50, 4, 200), vec![50, 200]);
    }

    #[test]
    fn rung_targets_handle_degenerate_inputs() {
        // First rung at or above the budget: a single full-budget rung.
        assert_eq!(rung_targets(200, 4, 200), vec![200]);
        assert_eq!(rung_targets(500, 4, 200), vec![200]);
        // Zero first rung is clamped to 1; eta below 2 is clamped to 2.
        assert_eq!(rung_targets(0, 1, 4), vec![1, 2, 4]);
    }

    #[test]
    fn rung_targets_are_strictly_increasing() {
        for first in [1usize, 7, 20, 100] {
            for eta in [2usize, 3, 4, 10] {
                let t = rung_targets(first, eta, 200);
                assert!(t.windows(2).all(|w| w[0] < w[1]), "{t:?}");
                assert_eq!(*t.last().unwrap(), 200);
            }
        }
    }
}
