//! Checkpointable optimization: pause a run, resume it later with more budget.
//!
//! The QArchSearch evaluation pipeline prunes candidates with **successive
//! halving**: every candidate is trained with a small evaluation budget, the
//! top fraction is promoted, and promoted candidates *continue* training with
//! a larger budget. Continuing requires the optimizer to pick up exactly
//! where it stopped — same simplex, same trust region, same RNG stream —
//! instead of restarting from scratch. The [`Resumable`] trait provides that:
//!
//! * [`Resumable::start`] builds an [`OptimizerState`] checkpoint without
//!   consuming any objective evaluations, and
//! * [`Resumable::resume`] advances the state until its *cumulative*
//!   evaluation count reaches a target (or the optimizer converges).
//!
//! `resume` is the one stepping protocol. The optimizer calls its evaluator
//! once per point, in the order the arithmetic reads the values — SPSA's
//! `x₊` then `x₋`, Nelder–Mead's vertices in order, the grid cursor or the
//! random draws in sequence — and the evaluator answers with that point's
//! value. `TrainingSession::advance_in` in the `qaoa` crate answers each
//! call with one state-vector sweep or one plan evaluation;
//! [`Resumable::resume_until`] passes a plain objective through.
//!
//! Every bundled optimizer implements the trait, and the one-shot
//! [`Resumable::minimize`] is a provided method written *in terms of*
//! `start` and `resume_until`, which makes the central guarantee structural
//! rather than aspirational:
//!
//! > resuming after `k` evaluations and finishing later is **bit-identical**
//! > to one uninterrupted run with the full budget.
//!
//! Optimizers advance in *atomic steps* (a whole simplex initialization, a
//! whole Nelder–Mead iteration, an SPSA perturbation pair). A step either
//! runs to completion or is not started, so the evaluation sequence depends
//! only on the state — never on where a budget boundary happens to fall.
//! Steps may overshoot the target by the cost of finishing the current step,
//! exactly the slack [`Resumable::minimize`] documents.
//!
//! # Worked example
//!
//! ```
//! use optim::{CobylaOptimizer, Resumable};
//!
//! let f = |x: &[f64]| (x[0] - 1.0).powi(2) + (x[1] + 2.0).powi(2);
//! let opt = CobylaOptimizer::default();
//!
//! // One uninterrupted run with 120 evaluations...
//! let full = opt.minimize(&f, &[0.0, 0.0], 120);
//!
//! // ...equals a run paused at 40 evaluations and resumed twice.
//! let mut state = opt.start(&[0.0, 0.0], 120);
//! opt.resume_until(&mut state, &f, 40);   // rung 0
//! opt.resume_until(&mut state, &f, 80);   // promoted: keep going
//! let resumed = opt.resume_until(&mut state, &f, 120);
//!
//! assert_eq!(full.best_point, resumed.best_point);
//! assert_eq!(full.best_value, resumed.best_value);
//! assert_eq!(full.evaluations, resumed.evaluations);
//! ```

use crate::cobyla::CobylaState;
use crate::grid::GridState;
use crate::nelder_mead::NelderMeadState;
use crate::random_search::RandomSearchState;
use crate::result::{OptimizationResult, OptimizationTrace};
use crate::spsa::SpsaState;
use std::cmp::Ordering;

/// A checkpoint of an in-flight optimization run.
///
/// Produced by [`Resumable::start`], advanced in place by
/// [`Resumable::resume`]. The variant must match the optimizer that
/// created it; handing a state to a different optimizer kind is a logic
/// error and panics.
#[derive(Debug, Clone)]
pub enum OptimizerState {
    /// COBYLA trust-region state (simplex, radius, trace).
    Cobyla(CobylaState),
    /// Nelder–Mead simplex state.
    NelderMead(NelderMeadState),
    /// SPSA iterate, gain counter and RNG stream.
    Spsa(SpsaState),
    /// Random-search RNG stream and incumbent.
    RandomSearch(RandomSearchState),
    /// Grid-search cursor and incumbent.
    GridSearch(GridState),
}

impl OptimizerState {
    /// Cumulative objective evaluations consumed so far.
    pub fn evaluations(&self) -> usize {
        match self {
            OptimizerState::Cobyla(s) => s.trace.len(),
            OptimizerState::NelderMead(s) => s.trace.len(),
            OptimizerState::Spsa(s) => s.trace.len(),
            OptimizerState::RandomSearch(s) => s.trace.len(),
            OptimizerState::GridSearch(s) => s.trace.len(),
        }
    }

    /// Whether the run has converged (no further evaluations will be spent
    /// even if the target grows).
    pub fn converged(&self) -> bool {
        match self {
            OptimizerState::Cobyla(s) => s.converged,
            OptimizerState::NelderMead(s) => s.converged,
            OptimizerState::Spsa(s) => s.converged,
            OptimizerState::RandomSearch(s) => s.converged,
            OptimizerState::GridSearch(s) => s.converged,
        }
    }

    /// Snapshot the best result found so far without advancing the run.
    pub fn result(&self) -> OptimizationResult {
        match self {
            OptimizerState::Cobyla(s) => s.snapshot(),
            OptimizerState::NelderMead(s) => s.snapshot(),
            OptimizerState::Spsa(s) => s.snapshot(),
            OptimizerState::RandomSearch(s) => s.snapshot(),
            OptimizerState::GridSearch(s) => s.snapshot(),
        }
    }

    /// Human-readable variant name, used in mismatch panics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            OptimizerState::Cobyla(_) => "cobyla",
            OptimizerState::NelderMead(_) => "nelder-mead",
            OptimizerState::Spsa(_) => "spsa",
            OptimizerState::RandomSearch(_) => "random-search",
            OptimizerState::GridSearch(_) => "grid-search",
        }
    }
}

/// A derivative-free minimizer of `f: R^n -> R` whose runs can be
/// checkpointed and continued.
///
/// See the [module documentation](self) for the contract and a worked
/// example. Implementations guarantee that for any increasing sequence of
/// targets `t_1 < t_2 < … < t_m = B`, chaining
/// `resume(t_1), …, resume(t_m)` performs exactly the same objective
/// evaluations as a single `minimize(…, B)` call.
pub trait Resumable: Send + Sync {
    /// Human-readable name used in reports and benches.
    fn name(&self) -> &'static str;

    /// Minimize `objective` starting from `initial`, with a budget of
    /// `max_evaluations` objective calls, in one uninterrupted run.
    /// Implementations may use fewer evaluations but must not exceed the
    /// budget by more than the cost of finishing their current step.
    fn minimize(
        &self,
        objective: &(dyn Fn(&[f64]) -> f64 + Sync),
        initial: &[f64],
        max_evaluations: usize,
    ) -> OptimizationResult {
        let mut state = self.start(initial, max_evaluations);
        self.resume_until(&mut state, objective, max_evaluations.max(1))
    }

    /// Create a fresh checkpoint at `initial`. No objective evaluations are
    /// consumed. `budget_hint` is the total evaluation budget the run is
    /// expected to receive across all `resume` calls; grid search uses it to
    /// lay out its grid, the other optimizers ignore it.
    fn start(&self, initial: &[f64], budget_hint: usize) -> OptimizerState;

    /// Advance `state` until its cumulative evaluation count reaches
    /// `target_evaluations` (give or take one atomic step) or the run
    /// converges, then return a snapshot of the best result so far.
    ///
    /// Every evaluation is one call of `evaluate` with one point. A target
    /// at or below the current count is a no-op snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `state` was produced by a different optimizer kind.
    fn resume(
        &self,
        state: &mut OptimizerState,
        evaluate: &mut dyn FnMut(&[f64]) -> f64,
        target_evaluations: usize,
    ) -> OptimizationResult;

    /// [`resume`](Self::resume) on a shared objective.
    fn resume_until(
        &self,
        state: &mut OptimizerState,
        objective: &(dyn Fn(&[f64]) -> f64 + Sync),
        target_evaluations: usize,
    ) -> OptimizationResult {
        self.resume(state, &mut |x: &[f64]| objective(x), target_evaluations)
    }
}

/// Evaluate `point` and record its value in `trace`.
pub(crate) fn probe(
    evaluate: &mut dyn FnMut(&[f64]) -> f64,
    point: &[f64],
    trace: &mut OptimizationTrace,
) -> f64 {
    let value = evaluate(point);
    trace.record(value);
    value
}

/// `a.partial_cmp(b)` with NaN ordered after every number (and equal to
/// NaN): a NaN value loses every comparison a minimizer makes against a
/// number, and runs without one order as under `partial_cmp`.
pub(crate) fn nan_last(a: &f64, b: &f64) -> Ordering {
    a.partial_cmp(b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CobylaOptimizer, GridSearch, NelderMead, RandomSearch, Spsa};

    fn resumables() -> Vec<Box<dyn Resumable>> {
        vec![
            Box::new(CobylaOptimizer::default()),
            Box::new(NelderMead::default()),
            Box::new(Spsa::default()),
            Box::new(RandomSearch::default()),
            Box::new(GridSearch::default()),
        ]
    }

    #[test]
    fn every_optimizer_survives_a_nan_and_an_infinity_mid_run() {
        // A 2-D quadratic that answers NaN at its 3rd (or its 1st, the start
        // point's) evaluation and +inf at its 5th: each optimizer finishes
        // within its budget of 40 (COBYLA completes the atomic step it
        // began, at most one evaluation per dimension past it, as it does on
        // any objective; so does Nelder–Mead after a NaN start, whose last
        // iteration begins at evaluation 39 and costs two), never asks for a
        // point with a non-finite coordinate, and reports the least finite
        // value it saw, at the point that gave it.
        for nan_at in [3, 1] {
            for opt in resumables() {
                let mut seen: Vec<(Vec<f64>, f64)> = Vec::new();
                let mut evaluate = |x: &[f64]| {
                    let value = match seen.len() + 1 {
                        k if k == nan_at => f64::NAN,
                        5 => f64::INFINITY,
                        _ => (x[0] - 0.3).powi(2) + 2.0 * (x[1] + 0.6).powi(2),
                    };
                    seen.push((x.to_vec(), value));
                    value
                };
                let mut state = opt.start(&[0.1, 0.2], 40);
                let result = opt.resume(&mut state, &mut evaluate, 40);
                let name = format!("{} (NaN at {nan_at})", opt.name());
                let budget = match (opt.name(), nan_at) {
                    ("cobyla", _) => 40 + 2,
                    ("nelder-mead", 1) => 40 + 1,
                    _ => 40,
                };
                assert!(seen.len() <= budget, "{name}: {} evaluations", seen.len());
                assert_eq!(result.evaluations, seen.len(), "{name}");
                for (x, _) in &seen {
                    assert!(x.iter().all(|v| v.is_finite()), "{name} evaluated {x:?}");
                }
                let (least_point, least) = seen
                    .iter()
                    .filter(|(_, v)| v.is_finite())
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("finite values were evaluated");
                assert_eq!(result.best_value.to_bits(), least.to_bits(), "{name}");
                assert_eq!(&result.best_point, least_point, "{name}");
            }
        }
    }

    /// The tentpole guarantee: resume-after-k equals one uninterrupted run,
    /// bit for bit, for every bundled optimizer.
    #[test]
    fn resume_after_k_steps_equals_uninterrupted_run() {
        let f = |x: &[f64]| (x[0] - 0.8).powi(2) + (x[1] + 0.4).powi(2) + (x[0] * x[1]).sin();
        let initial = [0.3, -0.2];
        let budget = 90;
        for opt in resumables() {
            let full = opt.minimize(&f, &initial, budget);

            for k in [1usize, 7, 25, 60] {
                let mut state = opt.start(&initial, budget);
                opt.resume_until(&mut state, &f, k);
                let resumed = opt.resume_until(&mut state, &f, budget);
                assert_eq!(
                    full.best_point,
                    resumed.best_point,
                    "{}: best point diverged after pause at {k}",
                    opt.name()
                );
                assert_eq!(
                    full.best_value,
                    resumed.best_value,
                    "{}: best value diverged after pause at {k}",
                    opt.name()
                );
                assert_eq!(
                    full.evaluations,
                    resumed.evaluations,
                    "{}: evaluation count diverged after pause at {k}",
                    opt.name()
                );
                assert_eq!(
                    full.trace.points(),
                    resumed.trace.points(),
                    "{}: trace diverged after pause at {k}",
                    opt.name()
                );
            }
        }
    }

    /// FNV-1a 64 over the bit patterns of every trace value and best-point
    /// coordinate of a run.
    fn trajectory_hash(r: &OptimizationResult) -> u64 {
        let values = r.trace.points().iter().map(|p| p.value);
        values
            .chain(r.best_point.iter().copied())
            .flat_map(|x| x.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
                (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// Absolute pins: each optimizer's trajectory on a fixed objective, in
    /// one call and in rungs, hashes to the value captured before the
    /// optimizers moved to one stepping protocol.
    #[test]
    fn trajectories_match_the_parent_bit_for_bit() {
        let f = |x: &[f64]| (x[0] - 0.8).powi(2) + (x[1] + 0.4).powi(2) + (x[0] * x[1]).sin();
        let initial = [0.3, -0.2];
        let budget = 90;
        let pinned: [(&str, u64); 5] = [
            ("cobyla", 0x7f1f_1393_2b60_8b69),
            ("nelder-mead", 0xef89_b9ea_7093_870c),
            ("spsa", 0xbfe6_6445_a824_e0ae),
            ("random-search", 0x2fea_8e90_7f5e_0836),
            ("grid-search", 0x9298_0ad0_9998_7235),
        ];
        for (opt, (name, hash)) in resumables().into_iter().zip(pinned) {
            assert_eq!(opt.name(), name);
            let full = opt.minimize(&f, &initial, budget);
            let mut state = opt.start(&initial, budget);
            let mut rungs = None;
            for target in [1, 7, 25, 60, 90] {
                rungs = Some(opt.resume_until(&mut state, &f, target));
            }
            let rungs = rungs.expect("five rungs ran");
            assert_eq!(trajectory_hash(&full), hash, "{name}: one call");
            assert_eq!(trajectory_hash(&rungs), hash, "{name}: rungs");
        }
    }

    #[test]
    fn many_tiny_rungs_equal_one_run() {
        let f = |x: &[f64]| x[0].cos() + 0.2 * x[0] * x[0];
        for opt in resumables() {
            let full = opt.minimize(&f, &[1.1], 64);
            let mut state = opt.start(&[1.1], 64);
            for target in (1..=64).step_by(3) {
                opt.resume_until(&mut state, &f, target);
            }
            let last = opt.resume_until(&mut state, &f, 64);
            assert_eq!(full.trace.points(), last.trace.points(), "{}", opt.name());
            assert_eq!(full.best_value, last.best_value, "{}", opt.name());
        }
    }

    #[test]
    fn start_consumes_no_evaluations() {
        for opt in resumables() {
            let state = opt.start(&[0.5, 0.5], 50);
            assert_eq!(state.evaluations(), 0, "{}", opt.name());
            assert!(!state.converged(), "{}", opt.name());
        }
    }

    #[test]
    fn snapshot_before_any_resume_is_safe() {
        for opt in resumables() {
            let state = opt.start(&[0.5], 50);
            let r = state.result();
            assert_eq!(r.evaluations, 0, "{}", opt.name());
            assert_eq!(r.best_point, vec![0.5], "{}", opt.name());
        }
    }

    #[test]
    fn target_at_or_below_current_count_is_a_noop() {
        let f = |x: &[f64]| x[0] * x[0];
        for opt in resumables() {
            let mut state = opt.start(&[0.7], 40);
            let a = opt.resume_until(&mut state, &f, 20);
            let evals = state.evaluations();
            let b = opt.resume_until(&mut state, &f, evals);
            let c = opt.resume_until(&mut state, &f, 3);
            assert_eq!(a.trace.points(), b.trace.points(), "{}", opt.name());
            assert_eq!(b.trace.points(), c.trace.points(), "{}", opt.name());
        }
    }

    #[test]
    fn converged_state_stays_converged() {
        // A flat objective converges quickly for the simplex methods; the
        // state must then refuse further work even with a larger target.
        let f = |_: &[f64]| 1.0;
        let opt = NelderMead::default();
        let mut state = opt.start(&[0.1, 0.2], 500);
        opt.resume_until(&mut state, &f, 500);
        assert!(state.converged());
        let evals = state.evaluations();
        opt.resume_until(&mut state, &f, 5000);
        assert_eq!(state.evaluations(), evals);
    }

    #[test]
    #[should_panic(expected = "state")]
    fn mismatched_state_kind_panics() {
        let f = |x: &[f64]| x[0] * x[0];
        let mut state = NelderMead::default().start(&[0.1], 10);
        CobylaOptimizer::default().resume_until(&mut state, &f, 10);
    }

    #[test]
    fn zero_dimensional_runs_converge_immediately() {
        let f = |_: &[f64]| 4.2;
        for opt in resumables() {
            let mut state = opt.start(&[], 10);
            let r = opt.resume_until(&mut state, &f, 10);
            assert_eq!(r.best_value, 4.2, "{}", opt.name());
            assert!(state.converged(), "{}", opt.name());
            assert_eq!(state.evaluations(), 1, "{}", opt.name());
        }
    }
}
