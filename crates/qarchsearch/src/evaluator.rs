//! The Evaluator module: train a candidate circuit and report its reward.
//!
//! "This module is responsible for training the generated quantum circuit on
//! the QAOA cost function in Equation 1. The trained circuit is then
//! evaluated and the reward is propagated back to the predictor module."
//! (§2.1). The reward of a candidate mixer is its trained Max-Cut energy
//! averaged over the training graphs; the per-graph approximation ratio is
//! kept as well for the quality figures (Figs. 7–9).

use crate::cache::Lru;
use crate::error::SearchError;
use crate::sync::lock_recover;
use graphs::{Graph, ProblemKind};
use optim::{OptimizerKind, Resumable};
use qaoa::ansatz::QaoaAnsatz;
use qaoa::energy::{EnergyEvaluator, TrainedCircuit, TrainingSession};
use qaoa::mixer::Mixer;
use qaoa::Backend;
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// The reward of one candidate mixer on one or more graphs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateResult {
    /// The mixer that was evaluated.
    pub mixer_label: String,
    /// QAOA depth used.
    pub depth: usize,
    /// Mean trained energy over the graphs.
    pub mean_energy: f64,
    /// Mean approximation ratio over the graphs.
    pub mean_approx_ratio: f64,
    /// Per-graph trained results.
    pub per_graph: Vec<TrainedCircuit>,
    /// Total optimizer evaluations spent — under successive halving this is
    /// the budget *actually* consumed, which for pruned candidates is far
    /// below the configured full budget.
    pub total_evaluations: usize,
    /// The successive-halving rung (0-based) after which this candidate was
    /// pruned; `None` for candidates that survived to the full budget (or
    /// when pruning was disabled).
    pub pruned_at_rung: Option<usize>,
}

impl CandidateResult {
    /// Aggregate per-graph trained results into a candidate reward (mean
    /// energy / approximation ratio over the graphs, summed evaluations).
    /// Used by the successive-halving pipeline, which trains the per-graph
    /// sessions itself.
    pub fn from_per_graph(
        mixer_label: String,
        depth: usize,
        per_graph: Vec<TrainedCircuit>,
        pruned_at_rung: Option<usize>,
    ) -> Result<CandidateResult, SearchError> {
        if per_graph.is_empty() {
            return Err(SearchError::NoGraphs);
        }
        let count = per_graph.len() as f64;
        let mean_energy = per_graph.iter().map(|t| t.energy).sum::<f64>() / count;
        let mean_approx_ratio = per_graph.iter().map(|t| t.approx_ratio).sum::<f64>() / count;
        let total_evaluations = per_graph.iter().map(|t| t.evaluations).sum();
        Ok(CandidateResult {
            mixer_label,
            depth,
            mean_energy,
            mean_approx_ratio,
            per_graph,
            total_evaluations,
            pruned_at_rung,
        })
    }
}

/// Evaluator configuration: which backend, optimizer, and training budget
/// (the paper: QTensor backend, COBYLA, 200 steps).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvaluatorConfig {
    /// Simulator backend.
    pub backend: Backend,
    /// Classical optimizer.
    pub optimizer: OptimizerKind,
    /// Objective-evaluation budget per candidate per graph.
    pub budget: usize,
    /// Number of optimizer restarts per candidate per graph (the budget —
    /// and every successive-halving rung target — is split across
    /// restarts). `1` reproduces the paper's single COBYLA run; larger
    /// values trade evaluations for robustness at deeper `p`.
    pub restarts: usize,
    /// The cost problem family candidates are trained on (each dataset
    /// graph is mapped to a concrete instance via
    /// [`ProblemKind::instantiate`]). Defaults to the paper's Max-Cut.
    pub problem: ProblemKind,
}

impl Default for EvaluatorConfig {
    fn default() -> Self {
        EvaluatorConfig {
            backend: Backend::TensorNetwork,
            optimizer: OptimizerKind::Cobyla,
            budget: 200,
            restarts: 1,
            problem: ProblemKind::MaxCut,
        }
    }
}

impl EvaluatorConfig {
    /// The configured optimizer, behind the checkpoint/resume interface
    /// every training session is driven through.
    pub fn build_resumable(&self) -> Box<dyn Resumable> {
        self.optimizer.build_resumable()
    }
}

/// Structural fingerprint of a (problem, backend, graph) triple (problem
/// family and parameters, simulator backend, nodes, exact weighted edge
/// list), used as the evaluator-cache key. Collisions are guarded by a
/// full triple-equality check on lookup: within one [`Evaluator`] the
/// problem and backend are fixed, but the cache can be shared server-wide
/// across jobs with differing configurations ([`EnergyCache`]).
fn instance_fingerprint(problem: &ProblemKind, backend: Backend, graph: &Graph) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    // ProblemKind carries f64 parameters, so hash its debug rendering.
    format!("{problem:?}|{backend:?}").hash(&mut h);
    graph.num_nodes().hash(&mut h);
    for e in graph.edges() {
        e.u.hash(&mut h);
        e.v.hash(&mut h);
        e.weight.to_bits().hash(&mut h);
    }
    h.finish()
}

/// One memoized entry: the built [`EnergyEvaluator`] plus the exact triple
/// it was built for (the collision guard).
#[derive(Debug)]
struct EnergyEntry {
    problem: ProblemKind,
    backend: Backend,
    evaluator: Arc<EnergyEvaluator>,
}

#[derive(Debug)]
struct EnergyCacheInner {
    hits: u64,
    builds: u64,
    evictions: u64,
    /// Unbounded for the per-search default (a search only ever sees its
    /// own handful of graphs); bounded when shared server-wide.
    entries: Lru<EnergyEntry>,
}

/// Point-in-time counters of an [`EnergyCache`] (surfaced by the server's
/// `stats` request).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnergyCacheStats {
    /// Entries currently held.
    pub entries: usize,
    /// Bound on entries (`None` = unbounded).
    pub capacity: Option<usize>,
    /// Lookups served from the memo.
    pub hits: u64,
    /// Evaluators built (misses).
    pub builds: u64,
    /// Entries dropped by LRU eviction.
    pub evictions: u64,
}

/// A shareable memo of per-problem-instance [`EnergyEvaluator`]s (the
/// classical reference solution and cached edge list behind every
/// training session).
///
/// Each [`Evaluator`] owns an unbounded one by default, scoped to its own
/// search. The [`crate::server::JobServer`] lifts the memo to a single
/// **bounded** server-scoped instance shared by every job, so
/// distinct-but-overlapping searches (same graphs and problem, different
/// budgets or seeds) reuse the expensive classical reference instead of
/// recomputing it per job. Entries are keyed by the full
/// (problem, backend, graph) triple with equality guards, so sharing
/// across heterogeneous jobs can never cross-contaminate results.
#[derive(Debug, Clone)]
pub struct EnergyCache {
    inner: Arc<Mutex<EnergyCacheInner>>,
}

impl EnergyCache {
    /// An unbounded memo (per-search usage: one search touches only its
    /// own training graphs).
    pub fn unbounded() -> EnergyCache {
        EnergyCache::with_bound(None)
    }

    /// A memo bounded to `capacity` entries, evicting least-recently-used
    /// beyond it (server-scoped usage).
    pub fn bounded(capacity: usize) -> EnergyCache {
        EnergyCache::with_bound(Some(capacity.max(1)))
    }

    fn with_bound(capacity: Option<usize>) -> EnergyCache {
        EnergyCache {
            inner: Arc::new(Mutex::new(EnergyCacheInner {
                hits: 0,
                builds: 0,
                evictions: 0,
                entries: Lru::new(capacity),
            })),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> EnergyCacheStats {
        let inner = lock_recover(&self.inner);
        EnergyCacheStats {
            entries: inner.entries.len(),
            capacity: inner.entries.capacity(),
            hits: inner.hits,
            builds: inner.builds,
            evictions: inner.evictions,
        }
    }

    /// The memoized energy evaluator for the triple, building it on miss.
    fn get_or_build(
        &self,
        problem: &ProblemKind,
        backend: Backend,
        graph: &Graph,
    ) -> Arc<EnergyEvaluator> {
        let key = instance_fingerprint(problem, backend, graph);
        let matches = |entry: &EnergyEntry| entry.matches(problem, backend, graph);
        {
            let mut inner = lock_recover(&self.inner);
            let hit = inner
                .entries
                .get(key, matches)
                .map(|e| Arc::clone(&e.evaluator));
            if let Some(evaluator) = hit {
                inner.hits += 1;
                return evaluator;
            }
        }
        // Built outside the lock: the classical reference is expensive and
        // must not serialize the parallel scheduler's workers. Two workers
        // may race to build the same entry; the loser's work is discarded.
        let instance = problem.instantiate(graph);
        let built = Arc::new(
            EnergyEvaluator::for_problem(graph, instance, backend)
                .expect("instantiated problem matches its graph"),
        );
        let mut inner = lock_recover(&self.inner);
        inner.builds += 1;
        if let Some(entry) = inner.entries.get(key, matches) {
            // Another worker built the same entry first — reuse it.
            return Arc::clone(&entry.evaluator);
        }
        // On a fingerprint collision this replaces the other triple's
        // entry, so a graph never trains against the wrong edge list.
        let entry = EnergyEntry {
            problem: problem.clone(),
            backend,
            evaluator: Arc::clone(&built),
        };
        let evicted = inner.entries.insert(key, entry);
        inner.evictions += evicted.len() as u64;
        built
    }
}

impl EnergyEntry {
    fn matches(&self, problem: &ProblemKind, backend: Backend, graph: &Graph) -> bool {
        self.problem == *problem && self.backend == backend && self.evaluator.graph() == graph
    }
}

/// Trains candidate mixers on a set of graphs (SIMULATE_QAOA of Algorithm 1).
///
/// Per-graph [`EnergyEvaluator`]s (classical reference cut, cached edge
/// list) are memoized across candidates through an [`EnergyCache`]: a
/// search trains hundreds of mixers on the same handful of graphs, and the
/// classical Max-Cut reference is far too expensive to recompute per
/// candidate. The cache is shared between clones, so the parallel
/// scheduler's workers all reuse one entry per graph — and the
/// [`crate::server::JobServer`] injects a server-scoped cache so entries
/// are reused *across* jobs too.
#[derive(Debug, Clone)]
pub struct Evaluator {
    config: EvaluatorConfig,
    cache: EnergyCache,
}

impl Evaluator {
    /// An evaluator with the paper's defaults (tensor network, COBYLA, 200
    /// steps).
    pub fn paper_default() -> Evaluator {
        Evaluator::new(EvaluatorConfig::default())
    }

    /// An evaluator with an explicit configuration and its own private
    /// (unbounded) memo.
    pub fn new(config: EvaluatorConfig) -> Evaluator {
        Evaluator::with_energy_cache(config, EnergyCache::unbounded())
    }

    /// An evaluator backed by a shared (possibly server-scoped) memo.
    pub fn with_energy_cache(config: EvaluatorConfig, cache: EnergyCache) -> Evaluator {
        Evaluator { config, cache }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EvaluatorConfig {
        &self.config
    }

    /// The memoized per-problem-instance energy evaluator.
    fn energy_evaluator_for(&self, graph: &Graph) -> Arc<EnergyEvaluator> {
        self.cache
            .get_or_build(&self.config.problem, self.config.backend, graph)
    }

    /// Train `mixer` at `depth` on a single graph (against the configured
    /// problem family's instance for that graph): one session, advanced to
    /// the full budget with the call the pipeline's workers make per rung.
    pub fn evaluate_on_graph(
        &self,
        graph: &Graph,
        mixer: &Mixer,
        depth: usize,
    ) -> Result<TrainedCircuit, SearchError> {
        let optimizer = self.config.build_resumable();
        let budget = self.config.budget;
        self.begin_session(graph, mixer, depth, None, budget, optimizer.as_ref())?
            .advance(optimizer.as_ref(), budget)
            .map_err(SearchError::from)
    }

    /// Begin a resumable training session for `mixer` at `depth` on one
    /// graph. `warm_from` optionally supplies trained `(γ, β)` angles from a
    /// shallower depth; the session then starts from
    /// [`QaoaAnsatz::warm_start_flat`] instead of the small-angle default.
    /// The session is advanced rung by rung by the successive-halving
    /// pipeline; `budget_hint` is the full budget it will receive if never
    /// pruned.
    ///
    /// `optimizer` must be the same instance (or an identically configured
    /// one) later passed to every
    /// [`TrainingSession::advance_in`](qaoa::energy::TrainingSession::advance_in)
    /// call — checkpoint layout and resume behaviour belong to one
    /// optimizer configuration. The pipeline builds it once via
    /// [`EvaluatorConfig::build_resumable`] and shares it across all
    /// sessions and rungs.
    pub fn begin_session(
        &self,
        graph: &Graph,
        mixer: &Mixer,
        depth: usize,
        warm_from: Option<(&[f64], &[f64])>,
        budget_hint: usize,
        optimizer: &dyn Resumable,
    ) -> Result<TrainingSession, SearchError> {
        let energy_eval = self.energy_evaluator_for(graph);
        let ansatz = QaoaAnsatz::for_problem(energy_eval.problem(), depth, mixer.clone())?;
        let initial = warm_from.map(|(gammas, betas)| ansatz.warm_start_flat(gammas, betas));
        energy_eval
            .begin_multistart_training(
                &ansatz,
                optimizer,
                initial.as_deref(),
                budget_hint,
                self.config.restarts,
            )
            .map_err(SearchError::from)
    }

    /// Train `mixer` at `depth` on every graph and aggregate the reward.
    pub fn evaluate(
        &self,
        graphs: &[Graph],
        mixer: &Mixer,
        depth: usize,
    ) -> Result<CandidateResult, SearchError> {
        let per_graph = graphs
            .iter()
            .map(|graph| self.evaluate_on_graph(graph, mixer, depth))
            .collect::<Result<Vec<_>, _>>()?;
        CandidateResult::from_per_graph(mixer.label(), depth, per_graph, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::Gate;

    fn small_config() -> EvaluatorConfig {
        EvaluatorConfig {
            backend: Backend::StateVector,
            optimizer: OptimizerKind::Cobyla,
            budget: 40,
            restarts: 1,
            problem: ProblemKind::MaxCut,
        }
    }

    #[test]
    fn default_config_matches_paper() {
        let c = EvaluatorConfig::default();
        assert_eq!(c.budget, 200);
        assert_eq!(c.optimizer, OptimizerKind::Cobyla);
        assert_eq!(c.backend, Backend::TensorNetwork);
        assert_eq!(c.restarts, 1);
    }

    #[test]
    fn multistart_evaluator_does_not_regress() {
        let graph = Graph::cycle(6);
        let single = Evaluator::new(small_config());
        let multi = Evaluator::new(EvaluatorConfig {
            restarts: 3,
            budget: 120,
            ..small_config()
        });
        let e1 = single
            .evaluate_on_graph(&graph, &Mixer::baseline(), 2)
            .unwrap();
        let e3 = multi
            .evaluate_on_graph(&graph, &Mixer::baseline(), 2)
            .unwrap();
        assert!(
            e3.energy >= e1.energy - 0.1,
            "multi {} vs single {}",
            e3.energy,
            e1.energy
        );
        // Byte pin captured at the commit before multi-start moved into
        // `TrainingSession` (then a separate one-shot trainer).
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(e3.energy.to_bits(), 0x4013db170a7a21e4);
        assert_eq!(bits(&e3.gammas), [0x3fe120054448712e, 0x3ff50f1fc1c6c907]);
        assert_eq!(bits(&e3.betas), [0x3fd7f99cefd76610, 0x3fea383dd66e2885]);
        assert_eq!(e3.evaluations, 126);
        assert_eq!(e3.approx_ratio.to_bits(), 0x3fea79740df82d30);
    }

    #[test]
    fn evaluate_on_graph_produces_sane_reward() {
        let evaluator = Evaluator::new(small_config());
        let graph = Graph::cycle(6);
        let trained = evaluator
            .evaluate_on_graph(&graph, &Mixer::baseline(), 1)
            .unwrap();
        assert!(trained.energy >= 3.0 - 1e-9); // at least the plus-state value
        assert!(trained.energy <= 6.0 + 1e-9); // at most the optimum
        assert!(trained.approx_ratio <= 1.0 + 1e-9);
    }

    #[test]
    fn evaluate_aggregates_over_graphs() {
        let evaluator = Evaluator::new(small_config());
        let graphs = vec![Graph::cycle(4), Graph::cycle(6)];
        let result = evaluator.evaluate(&graphs, &Mixer::qnas(), 1).unwrap();
        assert_eq!(result.per_graph.len(), 2);
        assert_eq!(result.depth, 1);
        assert_eq!(result.mixer_label, "('rx', 'ry')");
        let manual_mean = result.per_graph.iter().map(|t| t.energy).sum::<f64>() / 2.0;
        assert!((result.mean_energy - manual_mean).abs() < 1e-12);
        assert!(result.total_evaluations > 0);
    }

    #[test]
    fn energy_evaluators_are_memoized_per_graph() {
        let evaluator = Evaluator::new(small_config());
        let g1 = Graph::cycle(5);
        let g1_again = Graph::cycle(5);
        let g2 = Graph::cycle(6);
        let a = evaluator.energy_evaluator_for(&g1);
        let b = evaluator.energy_evaluator_for(&g1_again);
        let c = evaluator.energy_evaluator_for(&g2);
        assert!(Arc::ptr_eq(&a, &b), "equal graphs must share one entry");
        assert!(!Arc::ptr_eq(&a, &c), "different graphs must not collide");
        // Clones share the cache.
        let clone = evaluator.clone();
        let d = clone.energy_evaluator_for(&g1);
        assert!(Arc::ptr_eq(&a, &d));
    }

    #[test]
    fn shared_energy_cache_crosses_evaluator_instances() {
        // Two evaluators with different budgets (distinct jobs on a
        // server) share one bounded cache: the second reuses the first's
        // classical reference.
        let shared = EnergyCache::bounded(8);
        let a = Evaluator::with_energy_cache(small_config(), shared.clone());
        let b = Evaluator::with_energy_cache(
            EvaluatorConfig {
                budget: 80,
                ..small_config()
            },
            shared.clone(),
        );
        let graph = Graph::cycle(5);
        let ea = a.energy_evaluator_for(&graph);
        let eb = b.energy_evaluator_for(&graph);
        assert!(Arc::ptr_eq(&ea, &eb), "shared cache must serve both jobs");
        let stats = shared.stats();
        assert_eq!(stats.builds, 1);
        assert_eq!(stats.hits, 1);
        // A different backend is a different entry, never a false hit.
        let c = Evaluator::with_energy_cache(
            EvaluatorConfig {
                backend: Backend::TensorNetwork,
                ..small_config()
            },
            shared.clone(),
        );
        let ec = c.energy_evaluator_for(&graph);
        assert!(!Arc::ptr_eq(&ea, &ec));
        assert_eq!(shared.stats().builds, 2);
    }

    #[test]
    fn bounded_energy_cache_evicts_lru() {
        let shared = EnergyCache::bounded(2);
        let evaluator = Evaluator::with_energy_cache(small_config(), shared.clone());
        let g1 = Graph::cycle(4);
        let g2 = Graph::cycle(5);
        let g3 = Graph::cycle(6);
        let first = evaluator.energy_evaluator_for(&g1);
        let _ = evaluator.energy_evaluator_for(&g2);
        let _ = evaluator.energy_evaluator_for(&g1); // refresh g1
        let _ = evaluator.energy_evaluator_for(&g3); // evicts g2
        let stats = shared.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        // g1 survived the eviction (g2 was least recently used).
        let again = evaluator.energy_evaluator_for(&g1);
        assert!(Arc::ptr_eq(&first, &again));
    }

    #[test]
    fn default_config_problem_is_maxcut() {
        assert_eq!(EvaluatorConfig::default().problem, ProblemKind::MaxCut);
    }

    #[test]
    fn evaluator_trains_every_shipped_problem_family() {
        let graph = Graph::erdos_renyi(6, 0.5, 12);
        for kind in ProblemKind::all(12) {
            let evaluator = Evaluator::new(EvaluatorConfig {
                problem: kind.clone(),
                ..small_config()
            });
            let trained = evaluator
                .evaluate_on_graph(&graph, &Mixer::baseline(), 1)
                .unwrap();
            assert!(trained.energy.is_finite(), "{}", kind.name());
            assert!(
                trained.approx_ratio <= 1.0 + 1e-9,
                "{}: ratio {}",
                kind.name(),
                trained.approx_ratio
            );
        }
    }

    #[test]
    fn evaluator_cache_distinguishes_problem_families() {
        let graph = Graph::cycle(6);
        let g_key_mc = instance_fingerprint(&ProblemKind::MaxCut, Backend::StateVector, &graph);
        let g_key_sk = instance_fingerprint(
            &ProblemKind::SherringtonKirkpatrick { seed: 0 },
            Backend::StateVector,
            &graph,
        );
        assert_ne!(g_key_mc, g_key_sk);
        let mc = Evaluator::new(small_config());
        let sk = Evaluator::new(EvaluatorConfig {
            problem: ProblemKind::SherringtonKirkpatrick { seed: 0 },
            ..small_config()
        });
        assert_eq!(mc.energy_evaluator_for(&graph).problem().name(), "maxcut");
        assert_eq!(sk.energy_evaluator_for(&graph).problem().name(), "sk");
    }

    #[test]
    fn no_graphs_is_an_error() {
        let evaluator = Evaluator::new(small_config());
        assert!(matches!(
            evaluator.evaluate(&[], &Mixer::baseline(), 1),
            Err(SearchError::NoGraphs)
        ));
    }

    #[test]
    fn non_mixing_candidate_scores_half_weight() {
        // A purely diagonal mixer leaves the plus state: reward = |E|/2.
        let evaluator = Evaluator::new(small_config());
        let graph = Graph::cycle(6);
        let mixer = Mixer::new(vec![Gate::RZ]).unwrap();
        let trained = evaluator.evaluate_on_graph(&graph, &mixer, 1).unwrap();
        assert!((trained.energy - 3.0).abs() < 1e-9);
    }

    #[test]
    fn mixing_candidate_beats_non_mixing() {
        let evaluator = Evaluator::new(small_config());
        let graph = Graph::cycle(6);
        let diag = evaluator
            .evaluate_on_graph(&graph, &Mixer::new(vec![Gate::RZ]).unwrap(), 1)
            .unwrap();
        let rx = evaluator
            .evaluate_on_graph(&graph, &Mixer::baseline(), 1)
            .unwrap();
        assert!(
            rx.energy > diag.energy + 0.1,
            "rx {} vs diag {}",
            rx.energy,
            diag.energy
        );
    }
}
