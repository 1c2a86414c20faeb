//! Uniform grid search within a box around the start point.
//!
//! The grid is laid out once from the run's total budget (the `budget_hint`
//! of [`Resumable::start`]) and walked cursor-by-cursor, so a paused run
//! [resumes](crate::Resumable) at the exact next grid point.

use crate::result::{OptimizationResult, OptimizationTrace};
use crate::resumable::{probe, OptimizerState, Resumable};

/// Evaluate the objective on a uniform grid in `initial ± half_width` and
/// return the best grid point. The number of points per dimension is chosen
/// to (approximately) fill the evaluation budget.
#[derive(Debug, Clone)]
pub struct GridSearch {
    /// Half-width of the search box along every coordinate.
    pub half_width: f64,
}

impl Default for GridSearch {
    fn default() -> Self {
        GridSearch {
            half_width: std::f64::consts::PI,
        }
    }
}

/// Checkpointed state of a grid-search run (see [`Resumable`]).
#[derive(Debug, Clone)]
pub struct GridState {
    pub(crate) initial: Vec<f64>,
    pub(crate) points_per_dim: usize,
    /// Total grid points this run will visit.
    pub(crate) total: usize,
    pub(crate) cursor: usize,
    pub(crate) best_point: Vec<f64>,
    pub(crate) best_value: f64,
    pub(crate) converged: bool,
    pub(crate) trace: OptimizationTrace,
}

impl GridState {
    pub(crate) fn snapshot(&self) -> OptimizationResult {
        OptimizationResult::from_trace(
            self.best_point.clone(),
            self.best_value,
            self.converged,
            self.trace.clone(),
        )
    }
}

impl Resumable for GridSearch {
    fn name(&self) -> &'static str {
        "grid-search"
    }

    fn start(&self, initial: &[f64], budget_hint: usize) -> OptimizerState {
        let n = initial.len();
        let budget = budget_hint.max(1);
        let (points_per_dim, total) = if n == 0 {
            (0, 1)
        } else {
            // points_per_dim^n <= budget, at least 2 per dimension.
            let mut points_per_dim = (budget as f64).powf(1.0 / n as f64).floor() as usize;
            points_per_dim = points_per_dim.max(2);
            while points_per_dim > 2 && points_per_dim.pow(n as u32) > budget {
                points_per_dim -= 1;
            }
            (points_per_dim, points_per_dim.pow(n as u32).min(budget))
        };
        OptimizerState::GridSearch(GridState {
            initial: initial.to_vec(),
            points_per_dim,
            total,
            cursor: 0,
            best_point: initial.to_vec(),
            best_value: f64::INFINITY,
            converged: false,
            trace: OptimizationTrace::new(),
        })
    }

    fn resume(
        &self,
        state: &mut OptimizerState,
        evaluate: &mut dyn FnMut(&[f64]) -> f64,
        target_evaluations: usize,
    ) -> OptimizationResult {
        let OptimizerState::GridSearch(s) = state else {
            panic!("GridSearch::resume given a {} state", state.kind_name());
        };
        while s.cursor < s.total && s.trace.len() < target_evaluations {
            // Decode the cursor into per-dimension grid coordinates (no
            // coordinates at all for a zero-dimensional run's single point).
            let mut rest = s.cursor;
            let point: Vec<f64> = s
                .initial
                .iter()
                .map(|&x0| {
                    let idx = rest % s.points_per_dim;
                    rest /= s.points_per_dim;
                    let frac = idx as f64 / (s.points_per_dim - 1) as f64; // in [0, 1]
                    x0 - self.half_width + 2.0 * self.half_width * frac
                })
                .collect();
            let value = probe(evaluate, &point, &mut s.trace);
            if value < s.best_value {
                s.best_value = value;
                s.best_point = point;
            }
            s.cursor += 1;
        }
        s.converged = s.cursor >= s.total;
        s.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_the_box_in_1d() {
        let gs = GridSearch { half_width: 1.0 };
        let r = gs.minimize(&|x| (x[0] - 1.0).powi(2), &[0.0], 21);
        // The grid includes the right edge x = 1.0 exactly.
        assert!(r.best_value < 1e-12);
    }

    #[test]
    fn respects_budget_in_2d() {
        let gs = GridSearch::default();
        let r = gs.minimize(&|x| x[0] + x[1], &[0.0, 0.0], 50);
        assert!(r.evaluations <= 50);
        assert!(r.evaluations >= 4); // at least 2 per dimension
    }

    #[test]
    fn zero_dimensional_input() {
        let gs = GridSearch::default();
        let r = gs.minimize(&|_| 1.0, &[], 5);
        assert_eq!(r.best_value, 1.0);
    }

    #[test]
    fn finds_center_minimum() {
        let gs = GridSearch { half_width: 2.0 };
        let r = gs.minimize(&|x| x[0] * x[0] + x[1] * x[1], &[0.0, 0.0], 81);
        assert!(r.best_value < 1e-12);
    }
}
