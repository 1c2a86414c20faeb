//! Search configuration and outcome types.
//!
//! The front door of the crate is now the session-oriented
//! [`crate::session::SearchDriver`]: one driver and one per-depth engine
//! cover both execution modes ([`ExecutionMode::Parallel`] — the
//! budget-aware successive-halving pipeline, each rung's sessions mapped
//! over the workers — and [`ExecutionMode::Serial`] — its paper-faithful
//! full-budget preset, run inline), streams [`crate::SearchEvent`]s while
//! it runs, and supports cooperative cancellation and serde checkpointing. This module keeps everything the driver is configured
//! with ([`SearchConfig`], [`SearchStrategy`], [`PipelineConfig`]) and
//! returns ([`SearchOutcome`], [`DepthResult`], [`BestCandidate`]).

use crate::alphabet::MixerClass;
use crate::constraints::ConstraintSet;
use crate::error::SearchError;
use crate::evaluator::{CandidateResult, EvaluatorConfig};
use crate::predictor::RandomPredictor;
use crate::GateAlphabet;
use qcircuit::Gate;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// How a search session executes its candidate evaluations.
///
/// Folded into [`SearchConfig`]; the session layer's
/// [`crate::session::SearchDriver`] reads it instead of the caller picking
/// between two scheduler structs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ExecutionMode {
    /// The paper's Algorithm 1 as a preset of the one engine: the
    /// [`PipelineConfig::full_budget`] pipeline (one rung, no warm start, no
    /// gate), one training session at a time on the engine thread, full
    /// inner (per-edge / kernel) parallelism.
    Serial,
    /// The budget-aware pipeline, each rung's sessions mapped over the
    /// workers: successive halving, warm starts, optional predictor gate.
    /// Bit-identical results for a fixed seed at any worker count.
    #[default]
    Parallel,
}

impl std::fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutionMode::Serial => write!(f, "serial"),
            ExecutionMode::Parallel => write!(f, "parallel"),
        }
    }
}

/// How candidate gate combinations are proposed.
///
/// Every strategy's proposals are folded into [`MixerClass`]es before
/// training: a depth trains the first proposal of each class and counts the
/// rest in [`DepthResult::folded`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum SearchStrategy {
    /// Enumerate every ordered sequence of length `1..=k_max` (what the
    /// paper's profiling experiments time) and train the shortest member
    /// of each class: 199 of the 780 sequences over the paper's alphabet
    /// at `k_max = 4`.
    #[default]
    Exhaustive,
    /// Random search (the paper's released algorithm): sample
    /// `samples_per_depth` sequences per depth, each of a random length in
    /// `1..=k_max`. Proposals repeating a class are folded, so a depth
    /// trains at most `samples_per_depth` candidates.
    Random {
        /// Number of candidates sampled per depth.
        samples_per_depth: usize,
    },
}

/// Configuration of the budget-aware evaluation pipeline (successive
/// halving, warm starts, predictor gate). Parallel-mode searches use it as
/// given; serial mode always runs [`PipelineConfig::full_budget`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Enable successive-halving pruning. When `false`, every candidate
    /// trains at the full budget in a single rung.
    pub prune: bool,
    /// Halving rate: each rung keeps the top `⌈entrants / eta⌉` candidates
    /// and multiplies the budget target by `eta` (must be ≥ 2).
    pub eta: usize,
    /// Cumulative optimizer-evaluation target of the first (cheapest) rung.
    pub first_rung: usize,
    /// Seed each depth-`p` candidate's initial angles from the best
    /// fully-trained depth-`p − 1` result (per-layer parameter reuse).
    pub warm_start: bool,
    /// Optional predictor gate: admit at most this many candidates into the
    /// first rung, ranked by a [`crate::predictor::GateRanker`] trained on
    /// earlier depths' rewards.
    /// `None` disables the gate; it never engages at depth 1 (no feedback
    /// yet).
    pub predictor_gate: Option<usize>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            prune: true,
            eta: 4,
            first_rung: 20,
            warm_start: true,
            predictor_gate: None,
        }
    }
}

impl PipelineConfig {
    /// The paper-faithful configuration: no pruning, no warm starts, no
    /// gate — every candidate trains at the full budget from the default
    /// initial point, exactly like the paper's serial Algorithm 1.
    pub fn full_budget() -> PipelineConfig {
        PipelineConfig {
            prune: false,
            warm_start: false,
            predictor_gate: None,
            ..PipelineConfig::default()
        }
    }
}

/// Accounting for one successive-halving rung of one depth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RungStat {
    /// Cumulative per-session optimizer-evaluation target of this rung.
    pub target_budget: usize,
    /// Candidates that entered the rung.
    pub entrants: usize,
    /// Candidates promoted out of the rung.
    pub survivors: usize,
    /// Objective evaluations actually spent in this rung (all sessions).
    pub evaluations: usize,
}

/// Full configuration of a search run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchConfig {
    /// Serial or parallel candidate evaluation (read by the session layer's
    /// [`crate::session::SearchDriver`]).
    pub mode: ExecutionMode,
    /// The gate alphabet `A_R`.
    pub alphabet: GateAlphabet,
    /// Maximum QAOA depth `p_max` (depths `1..=p_max` are searched).
    pub max_depth: usize,
    /// Maximum number of gates per mixer (`K_max`).
    pub max_gates_per_mixer: usize,
    /// Candidate proposal strategy.
    pub strategy: SearchStrategy,
    /// Evaluator configuration (backend, optimizer, training budget).
    pub evaluator: EvaluatorConfig,
    /// Seed for every stochastic component.
    pub seed: u64,
    /// Size of the outer-level thread pool in parallel mode
    /// (`None` = Rayon's default, typically the number of logical cores).
    pub threads: Option<usize>,
    /// Admissibility constraints applied to every proposed candidate ("our
    /// software can also incorporate arbitrary constraints in the search
    /// procedure", §6 of the paper).
    pub constraints: ConstraintSet,
    /// Budget-aware pipeline settings (pruning, warm starts, predictor
    /// gate) for parallel mode. Serial mode ignores this and always runs
    /// the paper-faithful [`PipelineConfig::full_budget`] preset.
    pub pipeline: PipelineConfig,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            mode: ExecutionMode::Parallel,
            alphabet: GateAlphabet::paper_default(),
            max_depth: 4,
            max_gates_per_mixer: 4,
            strategy: SearchStrategy::Exhaustive,
            evaluator: EvaluatorConfig::default(),
            seed: 0,
            threads: None,
            constraints: ConstraintSet::none(),
            pipeline: PipelineConfig::default(),
        }
    }
}

impl SearchConfig {
    /// Start building a configuration from the defaults.
    pub fn builder() -> SearchConfigBuilder {
        SearchConfigBuilder {
            config: SearchConfig::default(),
        }
    }

    /// The same configuration with a different [`ExecutionMode`] —
    /// convenient when one config drives both a serial and a parallel run.
    pub fn with_mode(mut self, mode: ExecutionMode) -> SearchConfig {
        self.mode = mode;
        self
    }

    /// The pipeline settings a run actually executes under: serial mode is
    /// the paper-faithful [`PipelineConfig::full_budget`] preset whatever
    /// [`pipeline`](Self::pipeline) says; parallel mode uses it as given.
    pub(crate) fn effective_pipeline(&self) -> PipelineConfig {
        match self.mode {
            ExecutionMode::Serial => PipelineConfig::full_budget(),
            ExecutionMode::Parallel => self.pipeline.clone(),
        }
    }

    /// Validate the configuration as it will run: the search space, budget
    /// and thread count, plus the halving schedule and predictor gate of the
    /// pipeline in force — [`PipelineConfig::full_budget`] for a serial run,
    /// which therefore accepts a budget below the schedule's first rung.
    pub fn validate(&self) -> Result<(), SearchError> {
        if self.max_depth == 0 {
            return Err(SearchError::InvalidConfig {
                message: "max_depth must be ≥ 1".into(),
            });
        }
        if self.max_gates_per_mixer == 0 {
            return Err(SearchError::InvalidConfig {
                message: "max_gates_per_mixer must be ≥ 1".into(),
            });
        }
        if self.evaluator.budget == 0 {
            return Err(SearchError::InvalidConfig {
                message: "optimizer budget must be ≥ 1 (use --budget to raise it)".into(),
            });
        }
        if let Some(0) = self.threads {
            return Err(SearchError::InvalidConfig {
                message: "threads must be ≥ 1".into(),
            });
        }
        let pipeline = self.effective_pipeline();
        if pipeline.prune {
            if pipeline.eta < 2 {
                return Err(SearchError::InvalidConfig {
                    message: format!(
                        "halving rate eta must be ≥ 2 (got {}); eta = 1 would never prune",
                        pipeline.eta
                    ),
                });
            }
            if pipeline.first_rung == 0 {
                return Err(SearchError::InvalidConfig {
                    message: "the halving schedule's first rung must be ≥ 1".into(),
                });
            }
            if self.evaluator.budget < pipeline.first_rung {
                return Err(SearchError::InvalidConfig {
                    message: format!(
                        "optimizer budget ({}) is smaller than the halving schedule's first \
                         rung ({}); raise the budget, lower first_rung, or disable pruning \
                         with no_prune / --no-prune",
                        self.evaluator.budget, pipeline.first_rung
                    ),
                });
            }
        }
        if let Some(0) = pipeline.predictor_gate {
            return Err(SearchError::InvalidConfig {
                message: "predictor gate must admit at least one candidate".into(),
            });
        }
        Ok(())
    }

    /// Candidate sequences for one depth, and how many proposals were folded.
    /// Candidates that violate the configured [`ConstraintSet`] are filtered
    /// out; of the rest, only the first proposal of each [`MixerClass`] is
    /// kept, since the others would train the same energy function.
    /// Proposal is a pure function of `(self, depth)`, which is what makes
    /// checkpoint/resume bit-identical: a resumed run re-proposes exactly
    /// the cohorts the interrupted run would have seen.
    pub(crate) fn propose_candidates(&self, depth: usize) -> (Vec<Vec<Gate>>, usize) {
        let k_max = self.max_gates_per_mixer;
        let mut candidates = match &self.strategy {
            SearchStrategy::Exhaustive => self.alphabet.all_combinations_up_to(k_max),
            SearchStrategy::Random { samples_per_depth } => {
                let mut predictor = RandomPredictor::new(
                    self.alphabet.clone(),
                    self.seed.wrapping_add(depth as u64),
                );
                let mut rng_len = RandomPredictor::new(
                    self.alphabet.clone(),
                    self.seed.wrapping_add(1000 + depth as u64),
                );
                (0..*samples_per_depth)
                    .map(|i| {
                        // Vary the sequence length deterministically from the
                        // auxiliary predictor's proposal length behaviour.
                        let len = 1 + (rng_len.propose(1)[0] as usize + i) % k_max;
                        predictor.propose(len)
                    })
                    .collect()
            }
        };
        self.constraints.filter(&mut candidates);
        let proposed = candidates.len();
        let mut classes = HashSet::new();
        candidates.retain(|gates| classes.insert(MixerClass::of(gates)));
        let folded = proposed - candidates.len();
        (candidates, folded)
    }
}

/// Builder for [`SearchConfig`].
#[derive(Debug, Clone)]
pub struct SearchConfigBuilder {
    config: SearchConfig,
}

impl SearchConfigBuilder {
    /// Set the execution mode (the budget-aware pipeline over the rung
    /// workers, or its serial full-budget preset; default parallel).
    pub fn mode(mut self, mode: ExecutionMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Shorthand for [`mode(ExecutionMode::Serial)`](Self::mode).
    pub fn serial(self) -> Self {
        self.mode(ExecutionMode::Serial)
    }

    /// Set the gate alphabet.
    pub fn alphabet(mut self, alphabet: GateAlphabet) -> Self {
        self.config.alphabet = alphabet;
        self
    }

    /// Set `p_max`.
    pub fn max_depth(mut self, p_max: usize) -> Self {
        self.config.max_depth = p_max;
        self
    }

    /// Set `K_max`.
    pub fn max_gates_per_mixer(mut self, k_max: usize) -> Self {
        self.config.max_gates_per_mixer = k_max;
        self
    }

    /// Set the proposal strategy.
    pub fn strategy(mut self, strategy: SearchStrategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Set the evaluator's optimizer budget (paper default: 200).
    pub fn optimizer_budget(mut self, budget: usize) -> Self {
        self.config.evaluator.budget = budget;
        self
    }

    /// Set the evaluator backend.
    pub fn backend(mut self, backend: qaoa::Backend) -> Self {
        self.config.evaluator.backend = backend;
        self
    }

    /// Set the evaluator optimizer.
    pub fn optimizer(mut self, optimizer: optim::OptimizerKind) -> Self {
        self.config.evaluator.optimizer = optimizer;
        self
    }

    /// Set the cost problem family candidates are trained on (default:
    /// the paper's Max-Cut).
    pub fn problem(mut self, problem: graphs::ProblemKind) -> Self {
        self.config.evaluator.problem = problem;
        self
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Set the outer-level thread count for the parallel scheduler.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = Some(threads);
        self
    }

    /// Set the candidate admissibility constraints.
    pub fn constraints(mut self, constraints: ConstraintSet) -> Self {
        self.config.constraints = constraints;
        self
    }

    /// Enable or disable successive-halving pruning.
    pub fn prune(mut self, prune: bool) -> Self {
        self.config.pipeline.prune = prune;
        self
    }

    /// The paper-faithful escape hatch: disable pruning, warm starts and the
    /// predictor gate so every candidate trains at the full budget from the
    /// default initial point — one flag away from the exhaustive search the
    /// paper released, and bit-identical to serial-mode results at every
    /// register width: kernels split their work and reductions by fixed
    /// blocks, so the bits never depend on the thread count.
    pub fn no_prune(mut self) -> Self {
        self.config.pipeline = PipelineConfig::full_budget();
        self
    }

    /// Set the halving schedule: the first rung's budget and the rate `eta`
    /// (budget × eta per rung, top `1/eta` promoted).
    pub fn halving(mut self, first_rung: usize, eta: usize) -> Self {
        self.config.pipeline.first_rung = first_rung;
        self.config.pipeline.eta = eta;
        self
    }

    /// Enable or disable warm-starting depth `p` from the best depth-`p − 1`
    /// angles.
    pub fn warm_start(mut self, warm_start: bool) -> Self {
        self.config.pipeline.warm_start = warm_start;
        self
    }

    /// Admit at most `cap` candidates into the first rung, ranked by the
    /// [`crate::predictor::GateRanker`] (engages from depth 2 on).
    pub fn predictor_gate(mut self, cap: usize) -> Self {
        self.config.pipeline.predictor_gate = Some(cap);
        self
    }

    /// Finish building.
    pub fn build(self) -> SearchConfig {
        self.config
    }
}

/// The best mixer found by a search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BestCandidate {
    /// The gate sequence of the winning mixer.
    pub gates: Vec<Gate>,
    /// The paper-style label, e.g. `('rx', 'ry')`.
    pub mixer_label: String,
    /// Depth at which the winner was found.
    pub depth: usize,
    /// Mean trained energy over the training graphs.
    pub energy: f64,
    /// Mean approximation ratio over the training graphs.
    pub approx_ratio: f64,
}

/// Per-depth record of a search run (one point of Fig. 4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DepthResult {
    /// The QAOA depth `p`.
    pub depth: usize,
    /// Every candidate evaluated at this depth.
    pub candidates: Vec<CandidateResult>,
    /// Wall-clock seconds spent on this depth.
    pub elapsed_seconds: f64,
    /// Best mean energy seen at this depth.
    pub best_energy: f64,
    /// Successive-halving rung accounting (empty when pruning was off,
    /// which includes every serial run).
    pub rungs: Vec<RungStat>,
    /// Candidates rejected by the predictor gate before any evaluation.
    pub gated_out: usize,
    /// Proposals not trained because an earlier proposal at this depth has
    /// the same [`MixerClass`].
    #[serde(default, skip_serializing_if = "is_zero")]
    pub folded: usize,
}

/// `skip_serializing_if` helper: counters that are zero are left out, so
/// the serialized form of a search without folding keeps its bytes.
pub(crate) fn is_zero(n: &usize) -> bool {
    *n == 0
}

/// The outcome of a full search run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// The cost problem family the candidates were trained on.
    pub problem: String,
    /// The overall best mixer (`U_B^best` of Algorithm 1).
    pub best: BestCandidate,
    /// Per-depth details and timings.
    pub depth_results: Vec<DepthResult>,
    /// Total wall-clock seconds.
    pub total_elapsed_seconds: f64,
    /// Total number of candidate evaluations.
    pub num_candidates_evaluated: usize,
    /// Objective evaluations actually spent across every candidate, graph
    /// and rung.
    pub total_optimizer_evaluations: usize,
    /// What a full-budget (no pruning, no gate) evaluation of the same
    /// proposals would *nominally* have spent:
    /// `(evaluated + gated) × budget × graphs`, summed over depths. The
    /// ratio against
    /// [`total_optimizer_evaluations`](Self::total_optimizer_evaluations)
    /// is the pipeline's budget saving. Nominal because optimizers may
    /// converge below the budget or overshoot it by one atomic step, so
    /// the ratio can drift slightly around 1.0 even with pruning off.
    pub full_budget_evaluations: usize,
    /// Whether the parallel scheduler was used, and with how many threads.
    pub parallel_threads: Option<usize>,
}

impl SearchOutcome {
    pub(crate) fn from_depth_results(
        problem: String,
        depth_results: Vec<DepthResult>,
        total_elapsed_seconds: f64,
        parallel_threads: Option<usize>,
        budget: usize,
        num_graphs: usize,
    ) -> Result<SearchOutcome, SearchError> {
        let mut best: Option<BestCandidate> = None;
        let mut num_candidates_evaluated = 0;
        let mut total_optimizer_evaluations = 0;
        let mut full_budget_evaluations = 0;
        for dr in &depth_results {
            full_budget_evaluations += (dr.candidates.len() + dr.gated_out) * budget * num_graphs;
            for cand in &dr.candidates {
                num_candidates_evaluated += 1;
                total_optimizer_evaluations += cand.total_evaluations;
                let is_better = best
                    .as_ref()
                    .map(|b| cand.mean_energy > b.energy)
                    .unwrap_or(true);
                if is_better {
                    best = Some(BestCandidate {
                        gates: parse_label_gates(&cand.mixer_label),
                        mixer_label: cand.mixer_label.clone(),
                        depth: cand.depth,
                        energy: cand.mean_energy,
                        approx_ratio: cand.mean_approx_ratio,
                    });
                }
            }
        }
        let best = best.ok_or(SearchError::Evaluation {
            message: "search evaluated no candidates".to_string(),
        })?;
        Ok(SearchOutcome {
            problem,
            best,
            depth_results,
            total_elapsed_seconds,
            num_candidates_evaluated,
            total_optimizer_evaluations,
            full_budget_evaluations,
            parallel_threads,
        })
    }

    /// The factor by which the pipeline undercut the nominal full-budget
    /// evaluation cost (≈ 1.0 when nothing was pruned or gated; early
    /// optimizer convergence or atomic-step overshoot moves it slightly
    /// either side).
    pub fn budget_savings_factor(&self) -> f64 {
        if self.total_optimizer_evaluations == 0 {
            1.0
        } else {
            self.full_budget_evaluations as f64 / self.total_optimizer_evaluations as f64
        }
    }

    /// Wall-clock seconds spent at a given depth, if that depth was searched.
    pub fn elapsed_at_depth(&self, depth: usize) -> Option<f64> {
        self.depth_results
            .iter()
            .find(|d| d.depth == depth)
            .map(|d| d.elapsed_seconds)
    }
}

/// Recover the gate sequence from a mixer label like `('rx', 'ry')`.
fn parse_label_gates(label: &str) -> Vec<Gate> {
    label
        .trim_matches(|c| c == '(' || c == ')')
        .split(',')
        .filter_map(|part| {
            let name = part.trim().trim_matches('\'');
            if name.is_empty() {
                None
            } else {
                name.parse::<Gate>().ok()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SearchDriver;
    use graphs::Graph;
    use qaoa::Backend;

    fn tiny_config(strategy: SearchStrategy) -> SearchConfig {
        SearchConfig::builder()
            .alphabet(GateAlphabet::from_mnemonics(&["rx", "ry"]).unwrap())
            .max_depth(1)
            .max_gates_per_mixer(2)
            .optimizer_budget(25)
            .backend(Backend::StateVector)
            .strategy(strategy)
            .seed(3)
            .build()
    }

    fn tiny_graphs() -> Vec<Graph> {
        vec![Graph::cycle(4), Graph::erdos_renyi(5, 0.6, 8)]
    }

    /// Run through the session driver in serial mode.
    fn serial_run(
        mut config: SearchConfig,
        graphs: &[Graph],
    ) -> Result<SearchOutcome, SearchError> {
        config.mode = ExecutionMode::Serial;
        SearchDriver::new(config).run(graphs)
    }

    /// Run through the session driver in parallel mode.
    fn parallel_run(
        mut config: SearchConfig,
        graphs: &[Graph],
    ) -> Result<SearchOutcome, SearchError> {
        config.mode = ExecutionMode::Parallel;
        SearchDriver::new(config).run(graphs)
    }

    #[test]
    fn builder_sets_every_field() {
        let cfg = SearchConfig::builder()
            .max_depth(3)
            .max_gates_per_mixer(2)
            .optimizer_budget(50)
            .seed(9)
            .threads(4)
            .optimizer(optim::OptimizerKind::NelderMead)
            .backend(Backend::StateVector)
            .strategy(SearchStrategy::Random {
                samples_per_depth: 7,
            })
            .build();
        assert_eq!(cfg.max_depth, 3);
        assert_eq!(cfg.max_gates_per_mixer, 2);
        assert_eq!(cfg.evaluator.budget, 50);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.threads, Some(4));
        assert_eq!(cfg.evaluator.optimizer, optim::OptimizerKind::NelderMead);
        assert_eq!(cfg.evaluator.backend, Backend::StateVector);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn validation_catches_degenerate_configs() {
        let mut cfg = SearchConfig::default();
        cfg.max_depth = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SearchConfig::default();
        cfg.max_gates_per_mixer = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SearchConfig::default();
        cfg.evaluator.budget = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SearchConfig::default();
        cfg.threads = Some(0);
        assert!(cfg.validate().is_err());
        assert!(SearchConfig::default().validate().is_ok());
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn validation_rejects_degenerate_pipeline_configs() {
        // Budget smaller than the first rung (with pruning on).
        let mut cfg = SearchConfig::default();
        cfg.evaluator.budget = 10;
        cfg.pipeline.first_rung = 20;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("first"), "{err}");
        // ...but fine once pruning is off.
        cfg.pipeline.prune = false;
        assert!(cfg.validate().is_ok());

        let mut cfg = SearchConfig::default();
        cfg.pipeline.eta = 1;
        assert!(cfg.validate().is_err());

        let mut cfg = SearchConfig::default();
        cfg.pipeline.first_rung = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SearchConfig::default();
        cfg.pipeline.predictor_gate = Some(0);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn serial_search_ignores_pipeline_only_validation() {
        // Serial mode never prunes, so a budget below the halving
        // schedule's first rung must not block a cheap serial run.
        let mut cfg = tiny_config(SearchStrategy::Exhaustive);
        cfg.evaluator.budget = 10;
        assert!(cfg.evaluator.budget < cfg.pipeline.first_rung);
        assert!(cfg.validate().is_err(), "pipeline validation still rejects");
        let outcome = serial_run(cfg.clone(), &tiny_graphs()).unwrap();
        assert_eq!(outcome.num_candidates_evaluated, 6);
        // The parallel pipeline keeps rejecting it with a clear message.
        assert!(parallel_run(cfg, &tiny_graphs()).is_err());
    }

    #[test]
    fn builder_pipeline_methods_set_every_field() {
        let cfg = SearchConfig::builder()
            .prune(true)
            .halving(12, 3)
            .warm_start(false)
            .predictor_gate(9)
            .build();
        assert!(cfg.pipeline.prune);
        assert_eq!(cfg.pipeline.first_rung, 12);
        assert_eq!(cfg.pipeline.eta, 3);
        assert!(!cfg.pipeline.warm_start);
        assert_eq!(cfg.pipeline.predictor_gate, Some(9));

        let faithful = SearchConfig::builder().no_prune().build();
        assert_eq!(faithful.pipeline, PipelineConfig::full_budget());
        assert!(!faithful.pipeline.prune);
        assert!(!faithful.pipeline.warm_start);
        assert_eq!(faithful.pipeline.predictor_gate, None);
    }

    #[test]
    fn serial_exhaustive_search_finds_a_mixing_winner() {
        let outcome = serial_run(tiny_config(SearchStrategy::Exhaustive), &tiny_graphs()).unwrap();
        // Space: 2 + 4 = 6 candidates at depth 1.
        assert_eq!(outcome.num_candidates_evaluated, 6);
        assert_eq!(outcome.depth_results.len(), 1);
        assert!(outcome.best.energy > 0.0);
        assert!(outcome.best.approx_ratio <= 1.0 + 1e-9);
        assert!(!outcome.best.gates.is_empty());
        assert!(outcome.total_elapsed_seconds > 0.0);
    }

    #[test]
    fn no_prune_parallel_matches_serial_bitwise() {
        // The paper-faithful escape hatch: with pruning, warm starts and the
        // gate disabled, the pipeline must reproduce the serial full-budget
        // search exactly — same winner, bit-identical energies, same budget.
        let graphs = tiny_graphs();
        let serial = serial_run(tiny_config(SearchStrategy::Exhaustive), &graphs).unwrap();
        let parallel = parallel_run(
            SearchConfig {
                threads: Some(2),
                pipeline: PipelineConfig::full_budget(),
                ..tiny_config(SearchStrategy::Exhaustive)
            },
            &graphs,
        )
        .unwrap();
        assert_eq!(
            serial.num_candidates_evaluated,
            parallel.num_candidates_evaluated
        );
        assert_eq!(serial.best.energy, parallel.best.energy);
        assert_eq!(serial.best.mixer_label, parallel.best.mixer_label);
        assert_eq!(
            serial.total_optimizer_evaluations,
            parallel.total_optimizer_evaluations
        );
        for (ds, dp) in serial.depth_results.iter().zip(&parallel.depth_results) {
            for (cs, cp) in ds.candidates.iter().zip(&dp.candidates) {
                assert_eq!(cs.mean_energy, cp.mean_energy, "{}", cs.mixer_label);
                assert_eq!(cs.per_graph, cp.per_graph, "{}", cs.mixer_label);
            }
        }
        assert_eq!(parallel.parallel_threads, Some(2));
    }

    #[test]
    fn pruning_spends_less_budget_without_losing_the_winner() {
        let graphs = tiny_graphs();
        let mut cfg = tiny_config(SearchStrategy::Exhaustive);
        cfg.evaluator.budget = 60;
        cfg.pipeline = PipelineConfig {
            prune: true,
            eta: 2,
            first_rung: 15,
            warm_start: false,
            predictor_gate: None,
        };
        let full = parallel_run(
            SearchConfig {
                pipeline: PipelineConfig::full_budget(),
                ..cfg.clone()
            },
            &graphs,
        )
        .unwrap();
        let pruned = parallel_run(cfg, &graphs).unwrap();

        assert!(
            pruned.total_optimizer_evaluations < full.total_optimizer_evaluations,
            "pruned {} vs full {}",
            pruned.total_optimizer_evaluations,
            full.total_optimizer_evaluations
        );
        assert!(pruned.budget_savings_factor() > 1.0);
        // The winner must stay competitive with the exhaustive result.
        assert!(
            pruned.best.energy >= full.best.energy - 0.05,
            "pruned best {} vs full best {}",
            pruned.best.energy,
            full.best.energy
        );
        // Some candidate was actually pruned, and its recorded rung exists.
        let pruned_candidates: Vec<_> = pruned
            .depth_results
            .iter()
            .flat_map(|d| &d.candidates)
            .filter(|c| c.pruned_at_rung.is_some())
            .collect();
        assert!(!pruned_candidates.is_empty());
        // Rung accounting is present and consistent.
        for d in &pruned.depth_results {
            assert!(!d.rungs.is_empty());
            assert!(d
                .rungs
                .windows(2)
                .all(|w| w[0].target_budget < w[1].target_budget));
            assert_eq!(d.rungs[0].entrants, d.candidates.len());
            let rung_total: usize = d.rungs.iter().map(|r| r.evaluations).sum();
            let cand_total: usize = d.candidates.iter().map(|c| c.total_evaluations).sum();
            assert_eq!(rung_total, cand_total);
        }
    }

    #[test]
    fn parallel_results_are_thread_count_independent() {
        // Rung workers and their scratch buffers must not leak into results:
        // 1, 2 and 4 workers return bit-identical outcomes for a fixed seed.
        let graphs = tiny_graphs();
        let mut cfg = tiny_config(SearchStrategy::Exhaustive);
        cfg.max_depth = 2;
        cfg.pipeline = PipelineConfig {
            prune: true,
            eta: 2,
            first_rung: 10,
            warm_start: true,
            predictor_gate: Some(4),
        };
        let reference = parallel_run(
            SearchConfig {
                threads: Some(1),
                ..cfg.clone()
            },
            &graphs,
        )
        .unwrap();
        for threads in [2usize, 4] {
            let other = parallel_run(
                SearchConfig {
                    threads: Some(threads),
                    ..cfg.clone()
                },
                &graphs,
            )
            .unwrap();
            assert_eq!(
                reference.best.energy, other.best.energy,
                "{threads} threads"
            );
            assert_eq!(reference.best.mixer_label, other.best.mixer_label);
            assert_eq!(
                reference.total_optimizer_evaluations,
                other.total_optimizer_evaluations
            );
            for (dr, do_) in reference.depth_results.iter().zip(&other.depth_results) {
                assert_eq!(dr.gated_out, do_.gated_out);
                assert_eq!(dr.rungs, do_.rungs);
                for (cr, co) in dr.candidates.iter().zip(&do_.candidates) {
                    assert_eq!(cr.mean_energy, co.mean_energy, "{}", cr.mixer_label);
                    assert_eq!(cr.per_graph, co.per_graph);
                    assert_eq!(cr.pruned_at_rung, co.pruned_at_rung);
                }
            }
        }
    }

    #[test]
    fn warm_start_does_not_hurt_deeper_depths() {
        let graphs = tiny_graphs();
        let mut cfg = tiny_config(SearchStrategy::Exhaustive);
        cfg.max_depth = 2;
        cfg.evaluator.budget = 40;
        cfg.pipeline = PipelineConfig {
            prune: false,
            warm_start: true,
            ..PipelineConfig::default()
        };
        let warm = parallel_run(cfg.clone(), &graphs).unwrap();
        cfg.pipeline.warm_start = false;
        let cold = parallel_run(cfg, &graphs).unwrap();
        assert!(
            warm.best.energy >= cold.best.energy - 0.1,
            "warm {} vs cold {}",
            warm.best.energy,
            cold.best.energy
        );
    }

    #[test]
    fn predictor_gate_limits_entrants_from_depth_two() {
        let graphs = tiny_graphs();
        let mut cfg = tiny_config(SearchStrategy::Exhaustive);
        cfg.max_depth = 2;
        cfg.evaluator.budget = 30;
        cfg.pipeline = PipelineConfig {
            prune: false,
            warm_start: false,
            predictor_gate: Some(3),
            ..PipelineConfig::default()
        };
        let outcome = parallel_run(cfg, &graphs).unwrap();
        // Depth 1: no feedback yet, the gate stays open (6 candidates).
        assert_eq!(outcome.depth_results[0].candidates.len(), 6);
        assert_eq!(outcome.depth_results[0].gated_out, 0);
        // Depth 2: only the top 3 by learned score are admitted.
        assert_eq!(outcome.depth_results[1].candidates.len(), 3);
        assert_eq!(outcome.depth_results[1].gated_out, 3);
    }

    #[test]
    fn multistart_runs_through_the_pipeline() {
        let graphs = tiny_graphs();
        let mut cfg = tiny_config(SearchStrategy::Exhaustive);
        cfg.evaluator.restarts = 3;
        cfg.evaluator.budget = 45;

        // Default pruning: multi-start sessions are halved like any other.
        let pruned = parallel_run(cfg.clone(), &graphs).unwrap();
        assert_eq!(pruned.num_candidates_evaluated, 6);
        assert!(pruned.depth_results.iter().all(|d| !d.rungs.is_empty()));
        assert!(pruned.total_optimizer_evaluations < 6 * 2 * 45);

        // One full-budget rung reproduces the retired candidate-granularity
        // multi-start path bit for bit (byte pin captured at that commit:
        // mean energy bits and evaluation count per candidate).
        cfg.pipeline = PipelineConfig::full_budget();
        let outcome = parallel_run(cfg, &graphs).unwrap();
        let got: Vec<(&str, u64, usize)> = outcome.depth_results[0]
            .candidates
            .iter()
            .map(|c| {
                (
                    c.mixer_label.as_str(),
                    c.mean_energy.to_bits(),
                    c.total_evaluations,
                )
            })
            .collect();
        let pinned = [
            ("('rx')", 0x400bb3b69ceb2488, 93),
            ("('ry')", 0x4003fffdeb0080e2, 95),
            ("('rx', 'rx')", 0x400bb4244f47effc, 93),
            ("('rx', 'ry')", 0x4007d9a87232e6e5, 92),
            ("('ry', 'rx')", 0x40087b9debce2019, 94),
            ("('ry', 'ry')", 0x4003fe5aea46afc0, 95),
        ];
        assert_eq!(got, pinned);
    }

    #[test]
    fn search_runs_on_every_shipped_problem_family() {
        let graphs = vec![Graph::erdos_renyi(6, 0.5, 8)];
        for kind in graphs::ProblemKind::all(8) {
            let mut cfg = tiny_config(SearchStrategy::Exhaustive);
            cfg.evaluator.problem = kind.clone();
            let outcome = parallel_run(cfg, &graphs).unwrap();
            assert_eq!(outcome.problem, kind.name());
            assert!(outcome.best.energy.is_finite(), "{}", kind.name());
            assert!(
                outcome.best.approx_ratio <= 1.0 + 1e-9,
                "{}: ratio {}",
                kind.name(),
                outcome.best.approx_ratio
            );
            assert_eq!(outcome.num_candidates_evaluated, 6);
        }
    }

    #[test]
    fn outcome_reports_the_problem_name() {
        let outcome = serial_run(tiny_config(SearchStrategy::Exhaustive), &tiny_graphs()).unwrap();
        assert_eq!(outcome.problem, "maxcut");
        let report = crate::report::SearchReport::from(&outcome);
        assert_eq!(report.problem, "maxcut");
    }

    #[test]
    fn exhaustive_proposals_fold_to_the_first_member_of_each_class() {
        let paper = SearchConfig::builder().max_gates_per_mixer(2).build();
        let (candidates, folded) = paper.propose_candidates(1);
        assert_eq!((candidates.len(), folded), (16, 14));
        assert!(candidates.contains(&vec![Gate::RX, Gate::RY]));
        assert!(candidates.contains(&vec![Gate::RZ])); // the diagonal class
        assert!(!candidates.contains(&vec![Gate::P])); // folded into rz
        assert!(!candidates.contains(&vec![Gate::H, Gate::RX])); // rz,h came first
                                                                 // One-member classes only: nothing folds.
        let (candidates, folded) = tiny_config(SearchStrategy::Exhaustive).propose_candidates(1);
        assert_eq!((candidates.len(), folded), (6, 0));
    }

    /// A sampling strategy's depth trains each proposed class once: the
    /// trained and folded proposals add up to the sample budget, and no two
    /// trained candidates share a class.
    fn assert_samples_fold_into_classes(outcome: &SearchOutcome, samples_per_depth: usize) {
        for depth in &outcome.depth_results {
            assert_eq!(depth.candidates.len() + depth.folded, samples_per_depth);
            let classes: HashSet<MixerClass> = depth
                .candidates
                .iter()
                .map(|c| MixerClass::of(&parse_label_gates(&c.mixer_label)))
                .collect();
            assert_eq!(classes.len(), depth.candidates.len());
        }
    }

    #[test]
    fn random_strategy_respects_sample_budget() {
        let cfg = tiny_config(SearchStrategy::Random {
            samples_per_depth: 4,
        });
        let outcome = serial_run(cfg, &tiny_graphs()).unwrap();
        assert_samples_fold_into_classes(&outcome, 4);
    }

    #[test]
    fn random_proposals_match_the_parent() {
        // The gate sequences (and fold counts) `Random` proposes over the
        // paper's alphabet, hashed per seed across depths 1..=3. Captured
        // before the untrained strategies were deleted: the proposer and
        // its length stream must not move.
        let hashes: Vec<(u64, u64)> = [3u64, 2023]
            .into_iter()
            .map(|seed| {
                let config = SearchConfig::builder()
                    .alphabet(GateAlphabet::paper_default())
                    .max_gates_per_mixer(4)
                    .strategy(SearchStrategy::Random {
                        samples_per_depth: 12,
                    })
                    .seed(seed)
                    .build();
                let proposals: Vec<_> = (1..=3)
                    .map(|depth| config.propose_candidates(depth))
                    .collect();
                let text = format!("{proposals:?}");
                (seed, crate::cache::fnv1a64(text.as_bytes()))
            })
            .collect();
        assert_eq!(
            hashes,
            [(3, 2501750201800779421), (2023, 1888712775255259990)]
        );
    }

    #[test]
    fn no_graphs_is_rejected() {
        assert!(matches!(
            serial_run(tiny_config(SearchStrategy::Exhaustive), &[]),
            Err(SearchError::NoGraphs)
        ));
        assert!(matches!(
            parallel_run(tiny_config(SearchStrategy::Exhaustive), &[]),
            Err(SearchError::NoGraphs)
        ));
    }

    #[test]
    fn repeated_driver_runs_are_bitwise_identical_across_modes() {
        // Replaces the retired `SerialSearch`/`ParallelSearch` shim check:
        // the driver itself is the only entry point, and repeated runs in
        // either mode reproduce each other's outcome bit for bit.
        let graphs = tiny_graphs();
        let serial_a = serial_run(tiny_config(SearchStrategy::Exhaustive), &graphs).unwrap();
        let serial_b = serial_run(tiny_config(SearchStrategy::Exhaustive), &graphs).unwrap();
        assert_eq!(
            serial_a.best.energy.to_bits(),
            serial_b.best.energy.to_bits()
        );
        assert_eq!(serial_a.best.mixer_label, serial_b.best.mixer_label);

        let parallel_a = parallel_run(tiny_config(SearchStrategy::Exhaustive), &graphs).unwrap();
        let parallel_b = parallel_run(tiny_config(SearchStrategy::Exhaustive), &graphs).unwrap();
        assert_eq!(
            parallel_a.best.energy.to_bits(),
            parallel_b.best.energy.to_bits()
        );
        assert_eq!(
            parallel_a.total_optimizer_evaluations,
            parallel_b.total_optimizer_evaluations
        );
    }

    #[test]
    fn best_candidate_gates_match_label() {
        let outcome = serial_run(tiny_config(SearchStrategy::Exhaustive), &tiny_graphs()).unwrap();
        let from_label = parse_label_gates(&outcome.best.mixer_label);
        assert_eq!(from_label, outcome.best.gates);
    }

    #[test]
    fn elapsed_at_depth_reports_only_searched_depths() {
        let outcome = serial_run(tiny_config(SearchStrategy::Exhaustive), &tiny_graphs()).unwrap();
        assert!(outcome.elapsed_at_depth(1).is_some());
        assert!(outcome.elapsed_at_depth(2).is_none());
    }

    #[test]
    fn parse_label_round_trip() {
        assert_eq!(parse_label_gates("('rx', 'ry')"), vec![Gate::RX, Gate::RY]);
        assert_eq!(parse_label_gates("('h')"), vec![Gate::H]);
        assert!(parse_label_gates("()").is_empty());
    }

    #[test]
    fn constraints_prune_the_candidate_space() {
        use crate::constraints::{Constraint, ConstraintSet};
        let graphs = tiny_graphs();
        let unconstrained = serial_run(tiny_config(SearchStrategy::Exhaustive), &graphs).unwrap();
        let mut constrained_cfg = tiny_config(SearchStrategy::Exhaustive);
        constrained_cfg.constraints = ConstraintSet::new(vec![Constraint::NoAdjacentDuplicates]);
        let constrained = serial_run(constrained_cfg, &graphs).unwrap();
        // {rx, ry} alphabet, k ≤ 2: 6 unconstrained candidates, the two
        // duplicated pairs (rx,rx) and (ry,ry) are pruned.
        assert_eq!(unconstrained.num_candidates_evaluated, 6);
        assert_eq!(constrained.num_candidates_evaluated, 4);
        // The winner still exists and respects the constraint.
        assert!(constrained.best.gates.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn constraints_that_reject_everything_surface_as_an_error() {
        use crate::constraints::{Constraint, ConstraintSet};
        let mut cfg = tiny_config(SearchStrategy::Exhaustive);
        // The {rx, ry} alphabet cannot satisfy a "require H" constraint.
        cfg.constraints = ConstraintSet::new(vec![Constraint::RequireAnyOf(vec![Gate::H])]);
        let result = serial_run(cfg, &tiny_graphs());
        assert!(matches!(result, Err(SearchError::Evaluation { .. })));
    }
}
