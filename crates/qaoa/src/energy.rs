//! Energy evaluation, variational training and approximation ratios.
//!
//! This is the computational heart of the QArchSearch **Evaluator** module:
//! given a cost [`Problem`] on a graph and a candidate ansatz, maximize
//! ⟨γ,β|C|γ,β⟩ with a classical optimizer (COBYLA with 200 iterations in
//! the paper) and report the resulting energy and approximation ratio
//! (Eq. 3, formed per the problem's [`graphs::RatioConvention`]).

use crate::angles::Angles;
use crate::ansatz::QaoaAnsatz;
use crate::backend::Backend;
use crate::error::QaoaError;
use graphs::{ClassicalSolution, Graph, Problem, SolutionQuality};
use optim::{OptimizationResult, OptimizerState, Resumable};
use serde::{Deserialize, Serialize};
use statevec::compile::PhaseLutInterner;
use statevec::{CompiledProgram, PlaneState, StateVector};
use std::sync::{Arc, Mutex, OnceLock};
use tensornet::{ExpectationPlan, PlanInterner, PlanScratch, TensorNetError};

/// Result of training one ansatz on one problem instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainedCircuit {
    /// Best (maximal) cost expectation found.
    pub energy: f64,
    /// Optimal γ angles, one per layer.
    pub gammas: Angles,
    /// Optimal β angles, one per layer.
    pub betas: Angles,
    /// Number of objective evaluations used.
    pub evaluations: usize,
    /// Approximation ratio per the problem's convention (for Max-Cut:
    /// r = energy / C_classical).
    pub approx_ratio: f64,
    /// Classical reference value used in the ratio.
    pub classical_optimum: f64,
    /// Whether the classical reference is exact or heuristic.
    pub classical_quality: SolutionQuality,
}

/// Evaluates and trains QAOA ansätze on one problem instance with a chosen
/// backend. Cloning is a reference-count bump: every clone (one per
/// [`TrainingSession`]) reads the same instance and shares its caches.
#[derive(Debug, Clone)]
pub struct EnergyEvaluator {
    inner: Arc<Instance>,
}

/// The per-instance payload behind every clone of an [`EnergyEvaluator`].
#[derive(Debug)]
struct Instance {
    graph: Graph,
    problem: Problem,
    backend: Backend,
    /// Classical reference bracket (best/worst/quality), computed once.
    classical: ClassicalSolution,
    /// The full `2^n` problem diagonal, built lazily on the first compiled
    /// fast-path use and shared by every candidate ansatz on this instance.
    diag: OnceLock<Arc<Vec<f64>>>,
    /// The phase LUTs of this instance's compiled programs: the cost layer
    /// depends on the problem alone, so every candidate mixer compiled here
    /// shares one LUT, for as long as one of their programs is alive.
    luts: PhaseLutInterner,
    /// The structure of this instance's expectation plans: candidates whose
    /// templates differ only in which rotation sits where (`rx` and `ry`)
    /// share one, for as long as one of their plans is alive. Only ever
    /// sees this instance's problem, as the interner requires.
    plans: PlanInterner,
}

impl EnergyEvaluator {
    /// Build a Max-Cut evaluator for `graph` (the paper's configuration);
    /// the classical reference is computed once (exactly for paper-scale
    /// instances). Shorthand for [`EnergyEvaluator::for_problem`] with
    /// [`Problem::max_cut`].
    pub fn new(graph: &Graph, backend: Backend) -> EnergyEvaluator {
        Self::for_problem(graph, Problem::max_cut(graph), backend)
            .expect("Max-Cut problem matches its graph")
    }

    /// Build an evaluator for an arbitrary diagonal cost [`Problem`] on
    /// `graph`. The classical reference bracket is computed once (exact
    /// enumeration when feasible, greedy + randomized local search beyond
    /// it — see [`Problem::classical_solution`]).
    pub fn for_problem(
        graph: &Graph,
        problem: Problem,
        backend: Backend,
    ) -> Result<EnergyEvaluator, QaoaError> {
        if problem.num_spins() != graph.num_nodes() {
            return Err(QaoaError::ProblemSizeMismatch {
                name: problem.name().to_string(),
                problem_spins: problem.num_spins(),
                graph_nodes: graph.num_nodes(),
            });
        }
        let classical = problem.classical_solution();
        Ok(EnergyEvaluator {
            inner: Arc::new(Instance {
                graph: graph.clone(),
                problem,
                backend,
                classical,
                diag: OnceLock::new(),
                luts: PhaseLutInterner::default(),
                plans: PlanInterner::default(),
            }),
        })
    }

    /// The cached problem diagonal `C(z)` for every basis state, built on
    /// first use (only the compiled state-vector fast path needs it).
    fn problem_diag(&self) -> Arc<Vec<f64>> {
        Arc::clone(
            self.inner.diag.get_or_init(|| {
                Arc::new(statevec::expectation::problem_diagonal(&self.inner.problem))
            }),
        )
    }

    /// The graph this evaluator targets.
    pub fn graph(&self) -> &Graph {
        &self.inner.graph
    }

    /// The cost problem this evaluator trains against.
    pub fn problem(&self) -> &Problem {
        &self.inner.problem
    }

    /// The classical reference value `C_classical` of Eq. 3 (the best
    /// classically-known cost).
    pub fn classical_optimum(&self) -> f64 {
        self.inner.classical.best
    }

    /// The full classical reference bracket (best, worst, exact/heuristic).
    pub fn classical_solution(&self) -> &ClassicalSolution {
        &self.inner.classical
    }

    /// The backend used for expectation values.
    pub fn backend(&self) -> Backend {
        self.inner.backend
    }

    /// ⟨C⟩ for explicit angles.
    pub fn energy(
        &self,
        ansatz: &QaoaAnsatz,
        gammas: &[f64],
        betas: &[f64],
    ) -> Result<f64, QaoaError> {
        let circuit = ansatz.bind(gammas, betas)?;
        self.inner
            .backend
            .expectation(&circuit, &self.inner.problem)
    }

    /// ⟨C⟩ for a flat parameter vector `[γ…, β…]`.
    pub fn energy_flat(&self, ansatz: &QaoaAnsatz, params: &[f64]) -> Result<f64, QaoaError> {
        let circuit = ansatz.bind_flat(params)?;
        self.inner
            .backend
            .expectation(&circuit, &self.inner.problem)
    }

    /// Compile `ansatz` into the allocation-free fast path for this
    /// evaluator's graph (state-vector backend only; the tensor-network
    /// backend has [`EnergyEvaluator::plan`]).
    ///
    /// The returned [`CompiledEnergy`] holds the lowered circuit, this
    /// evaluator's problem diagonal and phase LUTs (shared, not copied) and a
    /// reusable scratch state, so each [`CompiledEnergy::energy_flat`] call
    /// performs zero heap allocation.
    /// Every [`TrainingSession`] builds this automatically; it is public so
    /// benches and external drivers can time the fast path directly.
    pub fn compile(&self, ansatz: &QaoaAnsatz) -> Result<CompiledEnergy, QaoaError> {
        if self.inner.backend != Backend::StateVector {
            return Err(QaoaError::Backend {
                message: format!(
                    "compiled fast path requires the state-vector backend, got {}",
                    self.inner.backend
                ),
            });
        }
        CompiledEnergy::build(self, ansatz)
    }

    /// Plan the light-cone energy of `ansatz` on this evaluator's problem
    /// (tensor-network backend only): cones, networks, elimination orders
    /// and every bucket's index maps are fixed by the template and the
    /// problem, so each contraction is compiled here once instead of rebuilt
    /// per evaluation. Candidates whose templates differ only in which
    /// rotation sits at a position (`rx` and `ry`) share that compiled
    /// structure through this evaluator and its clones
    /// ([`tensornet::PlanInterner`]) while one of their plans is alive.
    ///
    /// [`PlannedEnergy::energy_flat`] returns bit for bit what
    /// [`EnergyEvaluator::energy_flat`] does. Every tensor-network
    /// [`TrainingSession`] builds this automatically. Fails when a cost
    /// term's contraction is wider than
    /// [`tensornet::contraction::DEFAULT_WIDTH_LIMIT`]: no evaluation of such
    /// an ansatz can succeed.
    pub fn plan(&self, ansatz: &QaoaAnsatz) -> Result<PlannedEnergy, QaoaError> {
        if self.inner.backend == Backend::StateVector {
            return Err(QaoaError::Backend {
                message: "expectation plans require a tensor-network backend, got statevector"
                    .to_string(),
            });
        }
        self.build_plan(ansatz).map_err(backend_err)
    }

    fn build_plan(&self, ansatz: &QaoaAnsatz) -> Result<PlannedEnergy, TensorNetError> {
        let p = ansatz.depth();
        let names: Vec<String> = (0..p)
            .map(|k| format!("gamma_{k}"))
            .chain((0..p).map(|k| format!("beta_{k}")))
            .collect();
        let Instance { problem, plans, .. } = &*self.inner;
        Ok(PlannedEnergy {
            plan: ExpectationPlan::build_with(ansatz.template(), problem, &names, plans)?,
            evaluator: self.clone(),
            scratch: Mutex::new(PlanScratch::default()),
        })
    }

    /// Approximation ratio of a given energy (Eq. 3), formed per the
    /// problem's [`graphs::RatioConvention`]. Zero when the classical
    /// bracket is degenerate.
    pub fn approx_ratio(&self, energy: f64) -> f64 {
        self.inner
            .problem
            .approx_ratio(energy, &self.inner.classical)
    }

    /// Train the ansatz: maximize ⟨C⟩ over the `2p` angles using `optimizer`
    /// with `budget` objective evaluations (the paper uses COBYLA with 200
    /// steps), starting from the paper-style small-angle initial point. One
    /// uninterrupted [`TrainingSession`]: `begin_training` + a single
    /// [`advance`](TrainingSession::advance).
    pub fn train(
        &self,
        ansatz: &QaoaAnsatz,
        optimizer: &dyn Resumable,
        budget: usize,
    ) -> Result<TrainedCircuit, QaoaError> {
        self.begin_training(ansatz, optimizer, None, budget)?
            .advance(optimizer, budget)
    }

    /// Begin a **resumable** training run: the returned [`TrainingSession`]
    /// can be advanced in budget rungs (successive halving) and always
    /// continues from its checkpointed optimizer state instead of
    /// restarting.
    ///
    /// `initial` is the flat `[γ…, β…]` starting point (`None` = the
    /// paper-style small-angle default; the search pipeline passes a
    /// [warm start](QaoaAnsatz::warm_start_flat) transferred from depth
    /// `p − 1`). `budget_hint` is the total evaluation budget the run will
    /// receive if it survives every pruning rung (forwarded to
    /// [`Resumable::start`]). No objective evaluations are consumed here.
    /// Fails when no evaluation could succeed: a state-vector template the
    /// compiler refuses (more qubits than the dense limit), or a
    /// tensor-network cone wider than the plan's width limit.
    pub fn begin_training(
        &self,
        ansatz: &QaoaAnsatz,
        optimizer: &dyn Resumable,
        initial: Option<&[f64]>,
        budget_hint: usize,
    ) -> Result<TrainingSession, QaoaError> {
        self.begin_multistart_training(ansatz, optimizer, initial, budget_hint, 1)
    }

    /// [`begin_training`](Self::begin_training) with the budget split evenly
    /// across `restarts` deterministic starting points, the session keeping
    /// the best of them — a cheap stand-in for the multi-start /
    /// interpolation heuristics commonly used to train deeper QAOA.
    ///
    /// The starts are (1) `initial` (warm, explicit or small-angle default),
    /// (2) the best p = 1 angles from the closed-form grid of
    /// [`crate::analytic::best_p1_angles_by_grid`] ramped across layers, and
    /// (3) a mid-range point. Every share of the budget is `1 / restarts`
    /// even when `restarts` exceeds the three points that exist.
    pub fn begin_multistart_training(
        &self,
        ansatz: &QaoaAnsatz,
        optimizer: &dyn Resumable,
        initial: Option<&[f64]>,
        budget_hint: usize,
        restarts: usize,
    ) -> Result<TrainingSession, QaoaError> {
        if self.inner.problem.terms().is_empty() {
            return Err(QaoaError::EmptyGraph);
        }
        let p = ansatz.depth();
        let restarts = restarts.max(1);
        let mut points = vec![match initial {
            Some(x) => {
                if x.len() != 2 * p {
                    return Err(QaoaError::WrongParameterCount {
                        kind: "flat".to_string(),
                        depth: p,
                        expected: 2 * p,
                        got: x.len(),
                    });
                }
                x.to_vec()
            }
            None => ansatz.default_initial_flat(),
        }];
        if restarts > 1 && p > 0 {
            let (g1, b1, _) = crate::analytic::best_p1_angles_by_grid(&self.inner.graph, 16);
            let mut analytic_start = vec![0.0; 2 * p];
            for k in 0..p {
                // Ramp the p = 1 optimum across layers (small early, larger late
                // for γ; the reverse for β), a standard QAOA initialization.
                let frac = (k as f64 + 1.0) / p as f64;
                analytic_start[k] = g1 * frac;
                analytic_start[p + k] = b1 * (1.0 - frac) + 0.1 * frac;
            }
            points.push(analytic_start);
            points.push(vec![0.5; 2 * p]);
            points.truncate(restarts);
        }
        // Depth 0 has nothing to optimize and holds no optimizer state.
        let starts = if p == 0 {
            Vec::new()
        } else {
            let hint = TrainingSession::share_of(budget_hint, restarts);
            points.iter().map(|x| optimizer.start(x, hint)).collect()
        };
        // Lower the template once (a compiled program for the state vector,
        // an expectation plan for the tensor network). The interpreter
        // refuses every template the compiler refuses (a register past the
        // dense limit), so a compile error fails here, before any
        // evaluation; the tensor network binds per call when its plan
        // refuses for any reason but its width limit. Depth 0 is one bound
        // evaluation of the plus state: not worth either.
        let objective = match self.inner.backend {
            _ if p == 0 => None,
            Backend::StateVector => Some(Objective::Compiled(Box::new(self.compile(ansatz)?))),
            Backend::TensorNetwork => match self.build_plan(ansatz) {
                Ok(planned) => Some(Objective::Planned(Box::new(planned))),
                // Every evaluation would hit the same limit: say so now
                // instead of training on +inf.
                Err(e @ TensorNetError::WidthLimitExceeded { .. }) => return Err(backend_err(e)),
                Err(_) => None,
            },
        };
        Ok(TrainingSession {
            evaluator: self.clone(),
            depth: p,
            objective: objective.unwrap_or_else(|| Objective::Bound(ansatz.clone())),
            starts,
            restarts,
            zero_depth: None,
        })
    }
}

/// A checkpointable training run of one ansatz on one graph — the only
/// training loop in the workspace.
///
/// Created by [`EnergyEvaluator::begin_training`]. Each
/// [`advance`](Self::advance) / [`advance_in`](Self::advance_in) call
/// continues the underlying [`Resumable`] optimizer until its cumulative
/// evaluation count reaches a target — the successive-halving pipeline
/// promotes a candidate simply by calling `advance_in` again with the next
/// rung's larger target.
///
/// A multi-start session
/// ([`EnergyEvaluator::begin_multistart_training`]) holds one optimizer
/// checkpoint per start: an advance to target `t` resumes every start to
/// `max(t / restarts, 1)`, [`evaluations`](Self::evaluations) is the sum
/// over the starts, and the snapshot is the first start with the strictly
/// best energy — so multi-start runs are resumable and prunable like any
/// other.
///
/// A session is small: a reference-counted handle on its evaluator, the
/// optimizer checkpoints, and the lowered objective — a [`CompiledEnergy`]
/// (state-vector backend) or a [`PlannedEnergy`] (tensor-network backend);
/// the ansatz template is not kept once lowered. Only depth 0 and templates
/// the tensor network's plan refuses keep the template to bind per call.
/// The search pipeline keeps one session per `(candidate, graph)` alive for
/// a whole depth, and drops a pruned candidate's sessions — programs and
/// plans with them — at the rung that prunes it.
#[derive(Debug)]
pub struct TrainingSession {
    /// A handle on the shared per-instance evaluator (no copy of the graph,
    /// the problem or the classical bracket).
    evaluator: EnergyEvaluator,
    /// Depth `p` of the trained ansatz.
    depth: usize,
    objective: Objective,
    /// One optimizer checkpoint per start; empty only for depth-0 ansätze,
    /// which have nothing to optimize.
    starts: Vec<OptimizerState>,
    /// The number of shares every budget target is split into (≥ 1).
    restarts: usize,
    /// Cached depth-0 result (a single plus-state evaluation).
    zero_depth: Option<TrainedCircuit>,
}

/// How a session evaluates ⟨C⟩ at a parameter point.
#[derive(Debug)]
enum Objective {
    /// The compiled state-vector program. Everything an evaluation needs was
    /// lowered into it, so the session keeps no copy of the ansatz template.
    Compiled(Box<CompiledEnergy>),
    /// The tensor-network expectation plan; like the compiled program it
    /// replaces the template.
    Planned(Box<PlannedEnergy>),
    /// Bind the template per call and ask the backend: depth 0, and templates
    /// the tensor network's plan refuses below its width limit.
    Bound(QaoaAnsatz),
}

impl TrainingSession {
    /// Whether this session runs on the compiled state-vector fast path and
    /// therefore profits from an external [`BatchScratch`] (`false` for the
    /// tensor-network backend, whose plan needs no `2^n` buffer, and for
    /// depth 0).
    pub fn uses_compiled_scratch(&self) -> bool {
        matches!(self.objective, Objective::Compiled(_))
    }

    /// Cumulative objective evaluations consumed so far (over every start).
    pub fn evaluations(&self) -> usize {
        if self.starts.is_empty() {
            return usize::from(self.zero_depth.is_some());
        }
        self.starts.iter().map(OptimizerState::evaluations).sum()
    }

    /// Whether the underlying optimizer runs have all converged (depth-0
    /// sessions converge after their single evaluation).
    pub fn converged(&self) -> bool {
        if self.starts.is_empty() {
            return self.zero_depth.is_some();
        }
        self.starts.iter().all(OptimizerState::converged)
    }

    /// One start's share of a cumulative evaluation target.
    fn share_of(target_evaluations: usize, restarts: usize) -> usize {
        (target_evaluations / restarts).max(1)
    }

    /// Advance training until the optimizer has consumed `target_evaluations`
    /// cumulative objective evaluations (a target at or below the current
    /// count is a snapshot no-op).
    pub fn advance(
        &mut self,
        optimizer: &dyn Resumable,
        target_evaluations: usize,
    ) -> Result<TrainedCircuit, QaoaError> {
        self.advance_in(optimizer, target_evaluations, None)
    }

    /// [`advance`](Self::advance) with an optional caller-provided
    /// [`BatchScratch`] for the compiled fast path (per-worker buffer reuse
    /// in the search pipeline; `None` uses the compiled objective's own).
    /// Ignored when the session does not use the compiled path.
    ///
    /// Every start resumes through [`Resumable::resume`], which asks for one
    /// point per call: one sweep in the scratch on the compiled path, one
    /// plan evaluation on the tensor-network path. Then the snapshot is
    /// taken.
    pub fn advance_in(
        &mut self,
        optimizer: &dyn Resumable,
        target_evaluations: usize,
        mut scratch: Option<&mut BatchScratch>,
    ) -> Result<TrainedCircuit, QaoaError> {
        let TrainingSession {
            evaluator,
            depth,
            objective: how,
            starts,
            restarts,
            zero_depth,
        } = self;

        if starts.is_empty() && zero_depth.is_none() {
            // Depth 0: a single evaluation of the plus state, cached. Nothing
            // is lowered at depth 0, so the template binds.
            let Objective::Bound(ansatz) = &*how else {
                unreachable!("depth-0 sessions bind per call");
            };
            let energy = evaluator.energy_flat(ansatz, &[])?;
            *zero_depth = Some(evaluator.trained(energy, &[], 0, 1));
        }

        // The optimizer minimizes, so negate the energy. Errors cannot
        // propagate through the evaluator; they become +inf, so the optimizer
        // avoids that region, and are re-checked afterwards.
        let negated = |energy: Result<f64, QaoaError>| energy.map_or(f64::INFINITY, |e| -e);
        let mut evaluate = |point: &[f64]| {
            negated(match &*how {
                Objective::Compiled(compiled) => match scratch.as_deref_mut() {
                    Some(scratch) => compiled.sweep(point, scratch),
                    None => compiled.energy_flat(point),
                },
                Objective::Planned(planned) => planned.energy_flat(point),
                Objective::Bound(ansatz) => evaluator.energy_flat(ansatz, point),
            })
        };

        let target = Self::share_of(target_evaluations, *restarts);
        let results: Vec<OptimizationResult> = starts
            .iter_mut()
            .map(|state| optimizer.resume(state, &mut evaluate, target))
            .collect();
        if let Objective::Planned(planned) = &*how {
            // A parked session keeps its plan, not its evaluation buffers:
            // of the sessions a depth holds, only the advancing ones need them.
            planned.release_scratch();
        }
        match &*zero_depth {
            Some(trained) => Ok(trained.clone()),
            None => evaluator.best_of(*depth, results),
        }
    }

    /// Snapshot the best result found so far without advancing the run: the
    /// first start with the strictly best energy, carrying the evaluation
    /// count of all starts.
    pub fn best(&self) -> Result<TrainedCircuit, QaoaError> {
        if self.starts.is_empty() {
            return self.zero_depth.clone().ok_or_else(|| QaoaError::Backend {
                message: "depth-0 session has not been advanced yet".to_string(),
            });
        }
        let results = self.starts.iter().map(OptimizerState::result);
        self.evaluator.best_of(self.depth, results)
    }
}

impl EnergyEvaluator {
    /// The trained circuit of the first start with the strictly best energy,
    /// carrying the evaluation count of all starts.
    fn best_of(
        &self,
        p: usize,
        results: impl IntoIterator<Item = OptimizationResult>,
    ) -> Result<TrainedCircuit, QaoaError> {
        let mut evaluations = 0;
        let mut best: Option<OptimizationResult> = None;
        for result in results {
            evaluations += result.evaluations;
            // Minimized values are negated energies; non-finite starts never win.
            let improves = best
                .as_ref()
                .is_none_or(|b| result.best_value < b.best_value);
            if result.best_value.is_finite() && improves {
                best = Some(result);
            }
        }
        let best = best.ok_or_else(|| QaoaError::Backend {
            message: "optimizer failed to produce a finite energy".to_string(),
        })?;
        Ok(self.trained(-best.best_value, &best.best_point, p, evaluations))
    }

    /// Package an energy and its flat `[γ…, β…]` angles with this
    /// instance's classical reference.
    fn trained(&self, energy: f64, flat: &[f64], p: usize, evaluations: usize) -> TrainedCircuit {
        let (gammas, betas) = flat.split_at(p);
        TrainedCircuit {
            energy,
            gammas: gammas.into(),
            betas: betas.into(),
            evaluations,
            approx_ratio: self.approx_ratio(energy),
            classical_optimum: self.inner.classical.best,
            classical_quality: self.inner.classical.quality,
        }
    }
}

/// The planned tensor-network objective: the light-cone structure of one
/// ansatz on one problem ([`tensornet::ExpectationPlan`]) with the evaluator
/// whose problem and backend it was planned for.
///
/// Build via [`EnergyEvaluator::plan`]. One
/// [`PlannedEnergy::energy_flat`] call forms each distinct gate matrix and
/// runs the plan's compiled contractions in buffers the objective keeps —
/// bit for bit the energy [`EnergyEvaluator::energy_flat`] computes by
/// binding the template and rebuilding every cone, network and order.
#[derive(Debug)]
pub struct PlannedEnergy {
    plan: ExpectationPlan,
    evaluator: EnergyEvaluator,
    /// Evaluation buffers, reused across calls like [`CompiledEnergy`]'s
    /// scratch: once warm, an evaluation on a one-thread pool allocates
    /// nothing and on a wider one only what Rayon's drivers do. A
    /// [`TrainingSession`] releases them when an advance ends.
    scratch: Mutex<PlanScratch>,
}

impl PlannedEnergy {
    /// ⟨C⟩ for a flat parameter vector `[γ…, β…]`, cost terms split across
    /// the current Rayon pool (inline on a one-thread pool).
    pub fn energy_flat(&self, params: &[f64]) -> Result<f64, QaoaError> {
        let problem = &self.evaluator.inner.problem;
        let mut scratch = self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        self.plan
            .expectation_in(problem, params, &mut scratch)
            .map_err(backend_err)
    }

    /// Drop the evaluation buffers; the next [`energy_flat`](Self::energy_flat)
    /// grows them again.
    fn release_scratch(&self) {
        *self.scratch.lock().unwrap_or_else(|e| e.into_inner()) = PlanScratch::default();
    }

    /// The plan itself: its `heap_bytes()` is what a live tensor-network
    /// session costs beyond its optimizer checkpoints, and the skeleton and
    /// contraction counts are useful for diagnostics.
    pub fn plan(&self) -> &ExpectationPlan {
        &self.plan
    }
}

/// The compiled QAOA objective: ansatz lowered once, scratch state reused
/// across evaluations, and everything `2^n` large — the problem diagonal and
/// the cost layer's phase LUT — shared with every other objective compiled
/// by the same (per-graph) [`EnergyEvaluator`], so a further candidate on a
/// graph costs its op list, not another pair of tables.
///
/// Build via [`EnergyEvaluator::compile`]. One [`CompiledEnergy::energy_flat`]
/// call is a full circuit simulation plus diagonal expectation with zero heap
/// allocation — the entire QAOA training hot loop.
#[derive(Debug)]
pub struct CompiledEnergy {
    program: CompiledProgram,
    num_qubits: usize,
    /// Program slot for each flat parameter position (`[γ…, β…]`); `None`
    /// when the ansatz never uses that angle (e.g. a parameterless mixer).
    slot_for_flat: Vec<Option<usize>>,
    /// problem diagonal `C(z)` for every basis state, shared with (and
    /// cached by) the graph's [`EnergyEvaluator`].
    diag: Arc<Vec<f64>>,
    /// Buffers for the calls that bring none ([`energy_flat`](Self::energy_flat))
    /// and the slot staging of
    /// [`energy_flat_in`](Self::energy_flat_in), built lazily: callers that
    /// always supply their own (the search pipeline's per-worker buffers)
    /// never pay for a `2^n` state here. The lock is uncontended in
    /// sequential optimizers and negligible next to the `2^n` kernel work.
    scratch: Mutex<BatchScratch>,
}

/// Reusable buffers for the compiled sweeps of
/// [`CompiledEnergy::energy_batch_in`] and [`TrainingSession::advance_in`]:
/// the one `2^n` two-plane state every compiled evaluation runs in, point
/// after point, and the slot-value staging area.
///
/// One `BatchScratch` per worker serves every candidate trained on any graph
/// size (the state is rebuilt when the width changes).
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// The `2^n` amplitude buffer.
    state: Option<PlaneState>,
    /// One point's slot values.
    values: Vec<f64>,
}

impl BatchScratch {
    /// An empty scratch; all buffers are built lazily on first use.
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }
}

/// A simulator or contraction failure as a [`QaoaError::Backend`].
fn backend_err(e: impl std::fmt::Display) -> QaoaError {
    QaoaError::Backend {
        message: e.to_string(),
    }
}

impl CompiledEnergy {
    fn build(eval: &EnergyEvaluator, ansatz: &QaoaAnsatz) -> Result<CompiledEnergy, QaoaError> {
        let program = CompiledProgram::compile_with(ansatz.template(), &eval.inner.luts)
            .map_err(backend_err)?;
        let p = ansatz.depth();
        let mut slot_for_flat = vec![None; 2 * p];
        for k in 0..p {
            slot_for_flat[k] = program.param_index(&format!("gamma_{k}"));
            slot_for_flat[p + k] = program.param_index(&format!("beta_{k}"));
        }
        let covered = slot_for_flat.iter().flatten().count();
        if covered != program.num_params() {
            return Err(QaoaError::Backend {
                message: format!(
                    "ansatz template has {} parameters but only {covered} match \
                     the gamma_k/beta_k layout",
                    program.num_params()
                ),
            });
        }
        // After the compile above succeeded, n is within the dense limit, so
        // materializing the 2^n diagonal (cached per graph) is safe.
        Ok(CompiledEnergy {
            program,
            num_qubits: ansatz.num_qubits(),
            slot_for_flat,
            diag: eval.problem_diag(),
            scratch: Mutex::default(),
        })
    }

    /// Register width of the compiled program.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The lowered program (op/table counts are useful for diagnostics).
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    fn scratch(&self) -> std::sync::MutexGuard<'_, BatchScratch> {
        self.scratch.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// ⟨C⟩ for a flat parameter vector `[γ…, β…]`, allocation-free (after
    /// the internal scratch state is built on first use): one sweep, as
    /// [`energy_batch_in`](Self::energy_batch_in) runs for each point.
    pub fn energy_flat(&self, params: &[f64]) -> Result<f64, QaoaError> {
        self.sweep(params, &mut self.scratch())
    }

    /// ⟨C⟩ for a flat parameter vector, simulated by the scalar interpreter
    /// ([`CompiledProgram::execute_into`]) into a caller-provided scratch
    /// state (must have this program's register width): the reference the
    /// two-plane sweep is pinned bitwise equal to.
    pub fn energy_flat_in(
        &self,
        params: &[f64],
        state: &mut StateVector,
    ) -> Result<f64, QaoaError> {
        self.check_params(params)?;
        let slots = &mut self.scratch().values;
        slots.clear();
        slots.resize(self.program.num_params(), 0.0);
        Self::fill_slots(&self.slot_for_flat, params, slots);
        self.program
            .execute_into(slots, state)
            .map_err(backend_err)?;
        state.expectation_diagonal(&self.diag).map_err(backend_err)
    }

    fn check_params(&self, params: &[f64]) -> Result<(), QaoaError> {
        if params.len() != self.slot_for_flat.len() {
            return Err(QaoaError::WrongParameterCount {
                kind: "flat".to_string(),
                depth: self.slot_for_flat.len() / 2,
                expected: self.slot_for_flat.len(),
                got: params.len(),
            });
        }
        Ok(())
    }

    fn fill_slots(slot_for_flat: &[Option<usize>], params: &[f64], slots: &mut [f64]) {
        for (value, slot) in params.iter().zip(slot_for_flat) {
            if let Some(s) = *slot {
                slots[s] = *value;
            }
        }
    }

    /// ⟨C⟩ for each of `points`, flat parameter vectors, bit-identical to
    /// one [`CompiledEnergy::energy_flat_in`] call per point.
    ///
    /// Each point is one sweep of [`CompiledProgram::execute_planes_into`]
    /// in the caller's [`BatchScratch`], whose one state every point reuses.
    /// Once the scratch is warm, a call on up to 16 qubits (one reduction
    /// block) allocates only the returned `Vec`.
    pub fn energy_batch_in<P: AsRef<[f64]>>(
        &self,
        points: &[P],
        scratch: &mut BatchScratch,
    ) -> Result<Vec<f64>, QaoaError> {
        let mut out = Vec::with_capacity(points.len());
        for p in points {
            out.push(self.sweep(p.as_ref(), scratch)?);
        }
        Ok(out)
    }

    /// One checked sweep at `params` in `scratch`; the state is built, or
    /// rebuilt at this program's width, when needed.
    fn sweep(&self, params: &[f64], scratch: &mut BatchScratch) -> Result<f64, QaoaError> {
        self.check_params(params)?;
        let BatchScratch { state, values } = scratch;
        values.clear();
        values.resize(self.program.num_params(), 0.0);
        Self::fill_slots(&self.slot_for_flat, params, values);
        let state = match state {
            Some(s) if s.num_qubits() == self.num_qubits => s,
            slot => slot.insert(PlaneState::zero_state(self.num_qubits).map_err(backend_err)?),
        };
        self.program
            .execute_planes_into(values, state)
            .map_err(backend_err)?;
        state.expectation_diagonal(&self.diag).map_err(backend_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixer::Mixer;
    use optim::{CobylaOptimizer, NelderMead};
    use qcircuit::Gate;

    /// A finished start: `best_value` is the minimized (negated) energy.
    fn start(best_value: f64, point: f64, evaluations: usize) -> OptimizationResult {
        OptimizationResult {
            best_point: vec![point, -point],
            best_value,
            evaluations,
            converged: false,
            trace: Default::default(),
        }
    }

    #[test]
    fn best_of_skips_non_finite_starts_and_counts_every_evaluation() {
        let eval = EnergyEvaluator::new(&Graph::cycle(4), Backend::StateVector);
        // NaN, +∞ and −∞ before, between and after finite starts: only the
        // finite ones compete, the first strictly best wins a tie, and the
        // evaluations of every start are summed.
        let trained = eval
            .best_of(
                1,
                [
                    start(f64::NAN, 0.1, 3),
                    start(f64::NEG_INFINITY, 0.2, 5),
                    start(-2.5, 0.3, 7),
                    start(f64::INFINITY, 0.4, 11),
                    start(-2.5, 0.5, 13),
                    start(f64::NAN, 0.6, 17),
                ],
            )
            .unwrap();
        assert_eq!(trained.energy, 2.5);
        assert_eq!(
            (&trained.gammas[..], &trained.betas[..]),
            (&[0.3][..], &[-0.3][..])
        );
        assert_eq!(trained.evaluations, 3 + 5 + 7 + 11 + 13 + 17);
        // A later, better finite start still replaces an earlier one.
        let trained = eval
            .best_of(
                1,
                [
                    start(-1.0, 0.1, 1),
                    start(f64::NAN, 0.2, 1),
                    start(-3.0, 0.7, 1),
                ],
            )
            .unwrap();
        assert_eq!((trained.energy, trained.gammas[0]), (3.0, 0.7));
        // Every start non-finite: a backend error, not a NaN energy.
        let err = eval
            .best_of(
                1,
                [
                    start(f64::NAN, 0.1, 1),
                    start(f64::INFINITY, 0.2, 1),
                    start(f64::NEG_INFINITY, 0.3, 1),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, QaoaError::Backend { .. }), "{err:?}");
        assert!(matches!(
            eval.best_of(1, std::iter::empty()),
            Err(QaoaError::Backend { .. })
        ));
    }

    #[test]
    fn zero_angles_give_half_total_weight() {
        let graph = Graph::cycle(6);
        let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
        let ansatz = QaoaAnsatz::new(&graph, 1, Mixer::baseline());
        let e = eval.energy(&ansatz, &[0.0], &[0.0]).unwrap();
        assert!((e - 3.0).abs() < 1e-10);
    }

    #[test]
    fn p1_training_beats_random_guessing_on_a_cycle() {
        let graph = Graph::cycle(6); // max cut = 6
        let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
        let ansatz = QaoaAnsatz::new(&graph, 1, Mixer::baseline());
        let trained = eval
            .train(&ansatz, &CobylaOptimizer::default(), 150)
            .unwrap();
        // p=1 QAOA on an even cycle reaches r >= 0.69 (well above 0.5).
        assert!(trained.energy > 3.6, "energy {}", trained.energy);
        assert!(trained.approx_ratio > 0.6);
        assert!(trained.approx_ratio <= 1.0 + 1e-9);
        assert_eq!(trained.classical_optimum, 6.0);
    }

    #[test]
    fn deeper_ansatz_does_not_do_worse() {
        let graph = Graph::erdos_renyi(6, 0.5, 5);
        let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
        let opt = CobylaOptimizer::default();
        let a1 = QaoaAnsatz::new(&graph, 1, Mixer::baseline());
        let a2 = QaoaAnsatz::new(&graph, 2, Mixer::baseline());
        let e1 = eval.train(&a1, &opt, 120).unwrap().energy;
        let e2 = eval.train(&a2, &opt, 200).unwrap().energy;
        // Depth-2 can represent depth-1 solutions; allow a small optimizer slack.
        assert!(e2 >= e1 - 0.15, "p=2 energy {e2} much worse than p=1 {e1}");
    }

    #[test]
    fn energy_never_exceeds_classical_optimum() {
        let graph = Graph::erdos_renyi(7, 0.5, 9);
        let eval = EnergyEvaluator::new(&graph, Backend::TensorNetwork);
        let ansatz = QaoaAnsatz::new(&graph, 2, Mixer::qnas());
        let trained = eval.train(&ansatz, &NelderMead::default(), 150).unwrap();
        assert!(trained.energy <= eval.classical_optimum() + 1e-9);
        assert!(trained.approx_ratio <= 1.0 + 1e-9);
        assert!(trained.approx_ratio >= 0.0);
    }

    #[test]
    fn empty_graph_is_rejected() {
        let graph = Graph::empty(4);
        let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
        let ansatz = QaoaAnsatz::new(&graph, 1, Mixer::baseline());
        assert!(matches!(
            eval.train(&ansatz, &CobylaOptimizer::default(), 50),
            Err(QaoaError::EmptyGraph)
        ));
    }

    #[test]
    fn depth_zero_training_returns_plus_state_energy() {
        let graph = Graph::cycle(4);
        let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
        let ansatz = QaoaAnsatz::new(&graph, 0, Mixer::baseline());
        let trained = eval
            .train(&ansatz, &CobylaOptimizer::default(), 10)
            .unwrap();
        assert!((trained.energy - 2.0).abs() < 1e-10);
        assert_eq!(trained.evaluations, 1);
    }

    #[test]
    fn multistart_training_is_at_least_as_good_as_single_start() {
        let graph = Graph::erdos_renyi(7, 0.5, 31);
        let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
        let ansatz = QaoaAnsatz::new(&graph, 2, Mixer::baseline());
        let opt = CobylaOptimizer::default();
        let single = eval.train(&ansatz, &opt, 60).unwrap();
        let multi = eval
            .begin_multistart_training(&ansatz, &opt, None, 180, 3)
            .unwrap()
            .advance(&opt, 180)
            .unwrap();
        assert!(
            multi.energy >= single.energy - 0.05,
            "multi-start {} fell behind single start {}",
            multi.energy,
            single.energy
        );
        assert!(multi.approx_ratio <= 1.0 + 1e-9);
        assert!(multi.evaluations > 0);
    }

    #[test]
    fn multistart_with_one_restart_equals_plain_training() {
        let graph = Graph::cycle(5);
        let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
        let ansatz = QaoaAnsatz::new(&graph, 1, Mixer::baseline());
        let opt = CobylaOptimizer::default();
        let a = eval.train(&ansatz, &opt, 50).unwrap();
        let b = eval
            .begin_multistart_training(&ansatz, &opt, None, 50, 1)
            .unwrap()
            .advance(&opt, 50)
            .unwrap();
        assert!((a.energy - b.energy).abs() < 1e-12);
    }

    #[test]
    fn multistart_session_is_resumable_and_batched() {
        let graph = Graph::erdos_renyi(7, 0.5, 11);
        let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
        let ansatz = QaoaAnsatz::new(&graph, 2, Mixer::qnas());
        let opt = optim::Spsa::default();
        let begin = || {
            eval.begin_multistart_training(&ansatz, &opt, None, 120, 3)
                .unwrap()
        };

        let one_shot = begin().advance(&opt, 120).unwrap();

        // Rungs split each start's share (10, then 23, then 40 evaluations)
        // and alternate external and internal scratch; the run must not
        // notice.
        let mut session = begin();
        let mut scratch = BatchScratch::new();
        let first = session.advance_in(&opt, 30, Some(&mut scratch)).unwrap();
        assert!(first.evaluations < one_shot.evaluations);
        session.advance(&opt, 70).unwrap();
        let resumed = session.advance_in(&opt, 120, Some(&mut scratch)).unwrap();

        assert_eq!(one_shot, resumed, "bitwise equality expected");
        assert_eq!(session.evaluations(), resumed.evaluations);
        assert_eq!(session.best().unwrap(), resumed);
    }

    #[test]
    fn session_advanced_in_rungs_equals_one_shot_training() {
        let graph = Graph::erdos_renyi(7, 0.5, 11);
        let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
        let ansatz = QaoaAnsatz::new(&graph, 2, Mixer::qnas());
        let opt = CobylaOptimizer::default();

        let one_shot = eval.train(&ansatz, &opt, 120).unwrap();

        let mut session = eval.begin_training(&ansatz, &opt, None, 120).unwrap();
        session.advance(&opt, 30).unwrap();
        session.advance(&opt, 70).unwrap();
        let resumed = session.advance(&opt, 120).unwrap();

        assert_eq!(one_shot.energy, resumed.energy, "bitwise equality expected");
        assert_eq!(one_shot.gammas, resumed.gammas);
        assert_eq!(one_shot.betas, resumed.betas);
        assert_eq!(one_shot.evaluations, resumed.evaluations);
    }

    #[test]
    fn session_external_scratch_matches_internal_scratch() {
        let graph = Graph::cycle(6);
        let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
        let ansatz = QaoaAnsatz::new(&graph, 1, Mixer::baseline());
        let opt = CobylaOptimizer::default();

        let mut internal = eval.begin_training(&ansatz, &opt, None, 60).unwrap();
        let a = internal.advance(&opt, 60).unwrap();

        let mut external = eval.begin_training(&ansatz, &opt, None, 60).unwrap();
        assert!(external.uses_compiled_scratch());
        let mut scratch = BatchScratch::new();
        let b = external.advance_in(&opt, 60, Some(&mut scratch)).unwrap();

        assert_eq!(a.energy, b.energy);
        assert_eq!(a.gammas, b.gammas);
        assert_eq!(a.betas, b.betas);
    }

    #[test]
    fn session_with_warm_start_initial_point() {
        let graph = Graph::erdos_renyi(6, 0.5, 3);
        let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
        let opt = CobylaOptimizer::default();
        let shallow = eval
            .train(&QaoaAnsatz::new(&graph, 1, Mixer::baseline()), &opt, 80)
            .unwrap();
        let deeper = QaoaAnsatz::new(&graph, 2, Mixer::baseline());
        let warm = deeper.warm_start_flat(&shallow.gammas, &shallow.betas);
        let mut session = eval.begin_training(&deeper, &opt, Some(&warm), 80).unwrap();
        let trained = session.advance(&opt, 80).unwrap();
        // Warm-started depth-2 must not fall behind the depth-1 optimum by
        // more than optimizer noise.
        assert!(
            trained.energy >= shallow.energy - 0.05,
            "warm-started {} vs shallow {}",
            trained.energy,
            shallow.energy
        );
    }

    #[test]
    fn session_wrong_initial_length_is_rejected() {
        let graph = Graph::cycle(5);
        let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
        let ansatz = QaoaAnsatz::new(&graph, 2, Mixer::baseline());
        let opt = CobylaOptimizer::default();
        assert!(matches!(
            eval.begin_training(&ansatz, &opt, Some(&[0.1]), 40),
            Err(QaoaError::WrongParameterCount { .. })
        ));
    }

    #[test]
    fn state_vector_session_past_the_dense_limit_fails_before_evaluating() {
        // 31 qubits is past the dense limit: the compiler and the
        // interpreter both refuse, so the session must not start (it used
        // to bind per call and spend its whole budget on +inf).
        let graph = Graph::erdos_renyi(31, 0.2, 7);
        let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
        let ansatz = QaoaAnsatz::new(&graph, 1, Mixer::baseline());
        let opt = CobylaOptimizer::default();
        for restarts in [1, 3] {
            let err = eval
                .begin_multistart_training(&ansatz, &opt, None, 40, restarts)
                .unwrap_err();
            let QaoaError::Backend { message } = &err else {
                panic!("expected a backend error, got {err:?}");
            };
            assert!(message.contains("31"), "{message}");
        }
        // Training is `begin_training` + `advance`: it fails at the first
        // step, with the compiler's error.
        let err = eval.train(&ansatz, &opt, 40).unwrap_err();
        assert!(matches!(err, QaoaError::Backend { .. }), "{err:?}");
        assert!(!err.to_string().contains("finite"), "{err}");
    }

    #[test]
    fn session_depth_zero_is_one_evaluation() {
        let graph = Graph::cycle(4);
        let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
        let ansatz = QaoaAnsatz::new(&graph, 0, Mixer::baseline());
        let opt = CobylaOptimizer::default();
        let mut session = eval.begin_training(&ansatz, &opt, None, 10).unwrap();
        let t = session.advance(&opt, 10).unwrap();
        assert!((t.energy - 2.0).abs() < 1e-10);
        assert_eq!(session.evaluations(), 1);
        assert!(session.converged());
        // Advancing again does not re-evaluate.
        session.advance(&opt, 50).unwrap();
        assert_eq!(session.evaluations(), 1);
    }

    #[test]
    fn session_best_snapshot_matches_last_advance() {
        let graph = Graph::cycle(6);
        let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
        let ansatz = QaoaAnsatz::new(&graph, 1, Mixer::baseline());
        let opt = CobylaOptimizer::default();
        let mut session = eval.begin_training(&ansatz, &opt, None, 50).unwrap();
        let advanced = session.advance(&opt, 50).unwrap();
        let snapshot = session.best().unwrap();
        assert_eq!(advanced.energy, snapshot.energy);
        assert_eq!(advanced.evaluations, snapshot.evaluations);
    }

    #[test]
    fn session_works_on_tensor_network_backend() {
        let graph = Graph::erdos_renyi(6, 0.4, 21);
        let eval = EnergyEvaluator::new(&graph, Backend::TensorNetwork);
        let ansatz = QaoaAnsatz::new(&graph, 1, Mixer::baseline());
        let opt = CobylaOptimizer::default();
        let mut session = eval.begin_training(&ansatz, &opt, None, 60).unwrap();
        assert!(!session.uses_compiled_scratch());
        // The plan replaces the template, as the compiled program does.
        assert!(matches!(session.objective, Objective::Planned(_)));
        let trained = session.advance(&opt, 60).unwrap();
        let one_shot = eval.train(&ansatz, &opt, 60).unwrap();
        assert_eq!(trained.energy, one_shot.energy);
        // Depth 0 is one bound evaluation: nothing worth planning.
        let plus = QaoaAnsatz::new(&graph, 0, Mixer::baseline());
        let session = eval.begin_training(&plus, &opt, None, 1).unwrap();
        assert!(matches!(session.objective, Objective::Bound(_)));
    }

    #[test]
    fn compiled_energy_flat_in_matches_energy_flat() {
        let graph = Graph::erdos_renyi(7, 0.5, 13);
        let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
        let ansatz = QaoaAnsatz::new(&graph, 2, Mixer::qnas());
        let compiled = eval.compile(&ansatz).unwrap();
        let params = [0.3, -0.2, 0.5, 0.1];
        let a = compiled.energy_flat(&params).unwrap();
        let mut buf = StateVector::zero_state(7).unwrap();
        let b = compiled.energy_flat_in(&params, &mut buf).unwrap();
        assert_eq!(
            a, b,
            "external and internal scratch paths must agree bitwise"
        );
        assert_eq!(compiled.num_qubits(), 7);
    }

    #[test]
    fn every_shipped_problem_trains_end_to_end() {
        let graph = Graph::erdos_renyi(6, 0.5, 19);
        for kind in graphs::ProblemKind::all(19) {
            for backend in [Backend::StateVector, Backend::TensorNetwork] {
                let problem = kind.instantiate(&graph);
                let eval = EnergyEvaluator::for_problem(&graph, problem.clone(), backend).unwrap();
                let ansatz = QaoaAnsatz::for_problem(&problem, 1, Mixer::baseline()).unwrap();
                let trained = eval
                    .train(&ansatz, &CobylaOptimizer::default(), 40)
                    .unwrap();
                assert!(
                    trained.energy <= eval.classical_optimum() + 1e-9,
                    "{} on {backend}: energy {} above optimum {}",
                    problem.name(),
                    trained.energy,
                    eval.classical_optimum()
                );
                assert!(
                    trained.approx_ratio <= 1.0 + 1e-9,
                    "{} on {backend}: ratio {}",
                    problem.name(),
                    trained.approx_ratio
                );
                assert!(trained.approx_ratio >= -1e-9);
                assert_eq!(
                    trained.classical_quality,
                    graphs::SolutionQuality::Exact,
                    "{}",
                    problem.name()
                );
            }
        }
    }

    #[test]
    fn compiled_fast_path_matches_bind_per_call_for_problems() {
        let graph = Graph::erdos_renyi(7, 0.5, 29);
        for kind in graphs::ProblemKind::all(29) {
            let problem = kind.instantiate(&graph);
            let eval = EnergyEvaluator::for_problem(&graph, problem.clone(), Backend::StateVector)
                .unwrap();
            let ansatz = QaoaAnsatz::for_problem(&problem, 2, Mixer::qnas()).unwrap();
            let compiled = eval.compile(&ansatz).unwrap();
            let params = [0.3, -0.2, 0.5, 0.1];
            let fast = compiled.energy_flat(&params).unwrap();
            let slow = eval.energy_flat(&ansatz, &params).unwrap();
            assert!(
                (fast - slow).abs() < 1e-10,
                "{}: compiled {fast} vs bind-per-call {slow}",
                problem.name()
            );
        }
    }

    #[test]
    fn programs_of_one_evaluator_share_the_cost_layer_lut_while_one_lives() {
        let graph = Graph::erdos_renyi(7, 0.5, 13);
        let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
        let rx = QaoaAnsatz::new(&graph, 1, Mixer::baseline());
        let cost_lut = |c: &CompiledEnergy| Arc::clone(&c.program().luts()[0]);

        // Different mixers and depths, and a clone of the evaluator: one LUT.
        let a = eval.compile(&rx).unwrap();
        let b = eval
            .clone()
            .compile(&QaoaAnsatz::new(&graph, 2, Mixer::qnas()))
            .unwrap();
        assert!(Arc::ptr_eq(&cost_lut(&a), &cost_lut(&b)));

        // Another graph's evaluator has its own, and so does a program
        // compiled without an evaluator — equal in content, not shared.
        let other_graph = Graph::erdos_renyi(7, 0.5, 14);
        let other = EnergyEvaluator::new(&other_graph, Backend::StateVector)
            .compile(&QaoaAnsatz::new(&other_graph, 1, Mixer::baseline()))
            .unwrap();
        assert!(!Arc::ptr_eq(&cost_lut(&a), &cost_lut(&other)));
        let alone = CompiledProgram::compile(rx.template()).unwrap();
        assert!(!Arc::ptr_eq(&cost_lut(&a), &alone.luts()[0]));
        assert_eq!(*cost_lut(&a), *alone.luts()[0]);

        // The evaluator does not keep the LUT alive: it dies with its last
        // program, and the next compile builds an equal one.
        let dropped = Arc::downgrade(&cost_lut(&a));
        drop((a, b));
        assert!(dropped.upgrade().is_none());
        let again = eval.compile(&rx).unwrap();
        assert_eq!(*cost_lut(&again), *alone.luts()[0]);
    }

    #[test]
    fn plans_of_one_evaluator_share_structure_across_rotation_kinds() {
        let graph = Graph::random_regular(10, 4, 11).unwrap();
        let eval = EnergyEvaluator::new(&graph, Backend::TensorNetwork);
        let plan = |eval: &EnergyEvaluator, gates: &[Gate]| {
            let mixer = Mixer::new(gates.to_vec()).unwrap();
            eval.plan(&QaoaAnsatz::new(eval.graph(), 1, mixer)).unwrap()
        };
        let (x, y) = (Gate::RX, Gate::RY);
        let rx = plan(&eval, &[x]);

        // The three pairs `search_tn` plans on each graph, also when the
        // second comes through a clone of the evaluator.
        let pairs: [(&[Gate], &[Gate]); 3] = [(&[x], &[y]), (&[x, x], &[y, y]), (&[x, y], &[y, x])];
        for (a, b) in pairs {
            let (a_plan, b_plan) = (plan(&eval, a), plan(&eval.clone(), b));
            assert!(
                a_plan.plan().shares_structure_with(b_plan.plan()),
                "{a:?} ≡ {b:?}"
            );
        }

        // Another graph's evaluator has its own. (Which templates share
        // through one interner is pinned in `tensornet::plan`.)
        let other_graph = Graph::random_regular(10, 4, 12).unwrap();
        let other = plan(
            &EnergyEvaluator::new(&other_graph, Backend::TensorNetwork),
            &[y],
        );
        assert!(!rx.plan().shares_structure_with(other.plan()));
    }

    #[test]
    fn energy_batch_in_is_bitwise_identical_to_sequential_energy_flat_in() {
        let graph = Graph::erdos_renyi(7, 0.5, 13);
        let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
        let ansatz = QaoaAnsatz::new(&graph, 2, Mixer::qnas());
        let compiled = eval.compile(&ansatz).unwrap();
        let mut scratch = BatchScratch::new();
        let mut buf = StateVector::zero_state(7).unwrap();
        for batch in [1usize, 2, 7, 64] {
            let points: Vec<Vec<f64>> = (0..batch)
                .map(|i| {
                    (0..4)
                        .map(|j| 0.1 + 0.07 * i as f64 - 0.13 * j as f64)
                        .collect()
                })
                .collect();
            let batched = compiled.energy_batch_in(&points, &mut scratch).unwrap();
            assert_eq!(batched.len(), batch);
            for (p, &e) in points.iter().zip(&batched) {
                let scalar = compiled.energy_flat_in(p, &mut buf).unwrap();
                assert_eq!(
                    e.to_bits(),
                    scalar.to_bits(),
                    "B={batch}: batched {e} vs scalar {scalar}"
                );
            }
        }
    }

    #[test]
    fn a_nan_beta_gives_a_non_finite_energy_on_both_paths() {
        // The two-plane span kernel leaves out products with zero
        // coefficients; a NaN β still reaches the energy, for mixers whose
        // matrices are RX-shaped (rx, rx·rx), real (ry, h·ry) and general
        // (rx·ry). The finite point swept after it keeps the scalar bits.
        let graph = Graph::erdos_renyi(6, 0.5, 3);
        let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
        let mut scratch = BatchScratch::new();
        let mut buf = StateVector::zero_state(6).unwrap();
        for gates in [
            vec![Gate::RX],
            vec![Gate::RX, Gate::RX],
            vec![Gate::RY],
            vec![Gate::H, Gate::RY],
            vec![Gate::RX, Gate::RY],
        ] {
            let ansatz = QaoaAnsatz::new(&graph, 1, Mixer::new(gates.clone()).unwrap());
            let compiled = eval.compile(&ansatz).unwrap();
            let (nan, finite) = (vec![0.4, f64::NAN], vec![0.4, 0.9]);
            let batched = compiled
                .energy_batch_in(&[&nan, &finite], &mut scratch)
                .unwrap();
            assert!(!batched[0].is_finite(), "{gates:?}: {}", batched[0]);
            let scalar = compiled.energy_flat_in(&nan, &mut buf).unwrap();
            assert!(!scalar.is_finite(), "{gates:?}: {scalar}");
            let scalar = compiled.energy_flat_in(&finite, &mut buf).unwrap();
            assert_eq!(batched[1].to_bits(), scalar.to_bits(), "{gates:?}");
            let alone = compiled.energy_batch_in(&[&nan], &mut scratch).unwrap();
            assert!(!alone[0].is_finite(), "{gates:?}: {}", alone[0]);
        }
    }

    #[test]
    fn energy_batch_internal_scratch_matches_external() {
        let graph = Graph::cycle(6);
        let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
        let ansatz = QaoaAnsatz::new(&graph, 1, Mixer::baseline());
        let compiled = eval.compile(&ansatz).unwrap();
        let points: Vec<Vec<f64>> = (0..5).map(|i| vec![0.2 + 0.1 * i as f64, -0.3]).collect();
        let mut scratch = BatchScratch::new();
        let external = compiled.energy_batch_in(&points, &mut scratch).unwrap();
        // The internal scratch serves `energy_flat`, one point at a time.
        for (p, &e) in points.iter().zip(&external) {
            assert_eq!(compiled.energy_flat(p).unwrap().to_bits(), e.to_bits());
        }
    }

    #[test]
    fn energy_batch_rejects_mis_sized_points() {
        let graph = Graph::cycle(5);
        let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
        let ansatz = QaoaAnsatz::new(&graph, 1, Mixer::baseline());
        let compiled = eval.compile(&ansatz).unwrap();
        let points = vec![vec![0.1, 0.2], vec![0.1, 0.2, 0.3]];
        let mut scratch = BatchScratch::new();
        assert!(matches!(
            compiled.energy_batch_in(&points, &mut scratch),
            Err(QaoaError::WrongParameterCount { .. })
        ));
        assert!(matches!(
            compiled.energy_flat(&points[1]),
            Err(QaoaError::WrongParameterCount { .. })
        ));
        // Empty batches are a no-op, not an error.
        assert!(compiled
            .energy_batch_in::<Vec<f64>>(&[], &mut scratch)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn batch_scratch_is_reusable_across_graph_sizes() {
        let mut scratch = BatchScratch::new();
        for n in [4usize, 6, 5] {
            let graph = Graph::cycle(n);
            let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
            let ansatz = QaoaAnsatz::new(&graph, 1, Mixer::baseline());
            let compiled = eval.compile(&ansatz).unwrap();
            let points: Vec<Vec<f64>> = (0..3).map(|i| vec![0.1 * i as f64, 0.4]).collect();
            let batched = compiled.energy_batch_in(&points, &mut scratch).unwrap();
            for (p, &e) in points.iter().zip(&batched) {
                assert_eq!(compiled.energy_flat(p).unwrap().to_bits(), e.to_bits());
            }
        }
    }

    /// A session's two-plane sweeps land on the bits of the optimizer driven
    /// directly on the scalar compiled objective, which touches neither a
    /// two-plane kernel nor a session; external and internal scratch rungs
    /// interleave freely.
    #[test]
    fn advance_batched_is_bitwise_identical_to_advance() {
        let graph = Graph::erdos_renyi(7, 0.5, 11);
        let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
        let ansatz = QaoaAnsatz::new(&graph, 2, Mixer::qnas());
        let compiled = eval.compile(&ansatz).unwrap();
        let mut state = StateVector::zero_state(7).unwrap();
        let buf = Mutex::new(&mut state);
        let objective = |x: &[f64]| {
            -compiled
                .energy_flat_in(x, &mut buf.lock().unwrap())
                .unwrap()
        };
        for kind in optim::OptimizerKind::all() {
            let opt = kind.build_resumable();
            let mut reference = opt.start(&ansatz.default_initial_flat(), 90);
            opt.resume_until(&mut reference, &objective, 30);
            let a = opt.resume_until(&mut reference, &objective, 90);

            let mut session = eval.begin_training(&ansatz, &*opt, None, 90).unwrap();
            let mut scratch = BatchScratch::new();
            session.advance_in(&*opt, 30, Some(&mut scratch)).unwrap();
            let b = session.advance_in(&*opt, 90, Some(&mut scratch)).unwrap();
            assert_eq!((-a.best_value).to_bits(), b.energy.to_bits(), "{kind}");
            assert_eq!(a.best_point, [b.gammas, b.betas].concat(), "{kind}");
            assert_eq!(a.evaluations, b.evaluations, "{kind}");

            // Internal scratch, then external.
            let mut mixed = eval.begin_training(&ansatz, &*opt, None, 90).unwrap();
            mixed.advance(&*opt, 30).unwrap();
            let c = mixed.advance_in(&*opt, 90, Some(&mut scratch)).unwrap();
            assert_eq!(b.energy.to_bits(), c.energy.to_bits(), "{kind} mixed");
            assert_eq!(b.evaluations, c.evaluations, "{kind} mixed");
        }
    }

    #[test]
    fn advance_batched_works_on_tensor_network_backend() {
        let graph = Graph::erdos_renyi(6, 0.4, 21);
        let eval = EnergyEvaluator::new(&graph, Backend::TensorNetwork);
        let ansatz = QaoaAnsatz::new(&graph, 1, Mixer::baseline());
        let opt = optim::Spsa::default();
        let mut session = eval.begin_training(&ansatz, &opt, None, 40).unwrap();
        assert!(!session.uses_compiled_scratch());
        // The scratch is ignored: the plan keeps its own buffers.
        let mut scratch = BatchScratch::new();
        let b = session.advance_in(&opt, 40, Some(&mut scratch)).unwrap();
        let planned = eval.plan(&ansatz).unwrap();
        let a = opt.minimize(
            &|x: &[f64]| -planned.energy_flat(x).unwrap(),
            &ansatz.default_initial_flat(),
            40,
        );
        assert_eq!((-a.best_value).to_bits(), b.energy.to_bits());
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn advance_batched_depth_zero_is_one_evaluation() {
        let graph = Graph::cycle(4);
        let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
        let ansatz = QaoaAnsatz::new(&graph, 0, Mixer::baseline());
        let opt = CobylaOptimizer::default();
        let mut session = eval.begin_training(&ansatz, &opt, None, 10).unwrap();
        let mut scratch = BatchScratch::new();
        let t = session.advance_in(&opt, 10, Some(&mut scratch)).unwrap();
        assert!((t.energy - 2.0).abs() < 1e-10);
        assert_eq!(session.evaluations(), 1);
        session.advance_in(&opt, 50, Some(&mut scratch)).unwrap();
        assert_eq!(session.evaluations(), 1);
    }

    #[test]
    fn for_problem_rejects_size_mismatch() {
        let graph = Graph::cycle(5);
        let other = Problem::max_cut(&Graph::cycle(6));
        assert!(matches!(
            EnergyEvaluator::for_problem(&graph, other, Backend::StateVector),
            Err(QaoaError::ProblemSizeMismatch { .. })
        ));
    }

    #[test]
    fn sk_ratio_uses_the_shifted_convention() {
        let graph = Graph::erdos_renyi(6, 0.5, 8);
        let problem = Problem::sherrington_kirkpatrick(&graph, 8);
        let eval =
            EnergyEvaluator::for_problem(&graph, problem.clone(), Backend::StateVector).unwrap();
        let sol = eval.classical_solution();
        // The ratio of the optimum itself is 1, of the pessimum 0 — well
        // defined even though the raw optimum may be negative.
        assert!((eval.approx_ratio(sol.best) - 1.0).abs() < 1e-12);
        assert!(eval.approx_ratio(sol.worst).abs() < 1e-12);
        let mid = 0.5 * (sol.best + sol.worst);
        let r = eval.approx_ratio(mid);
        assert!((r - 0.5).abs() < 1e-9);
    }

    #[test]
    fn tensor_network_backend_trains_too() {
        let graph = Graph::erdos_renyi(6, 0.4, 21);
        let eval = EnergyEvaluator::new(&graph, Backend::TensorNetwork);
        let ansatz = QaoaAnsatz::new(&graph, 1, Mixer::baseline());
        let trained = eval
            .train(&ansatz, &CobylaOptimizer::default(), 100)
            .unwrap();
        let half = 0.5 * graph.total_weight();
        assert!(
            trained.energy >= half - 1e-9,
            "training should beat the plus state"
        );
    }
}
