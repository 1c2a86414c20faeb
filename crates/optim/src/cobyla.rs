//! A COBYLA-style linear-approximation trust-region minimizer.
//!
//! Powell's COBYLA (Constrained Optimization BY Linear Approximations)
//! maintains a simplex of `n + 1` points, fits a linear model of the
//! objective over that simplex, and minimizes the model inside a trust
//! region whose radius shrinks as the optimization progresses. QArchSearch
//! uses SciPy's COBYLA with a 200-iteration budget to train each candidate
//! circuit; the reproduction only needs the unconstrained variant (QAOA
//! angles are periodic, so box constraints are unnecessary), which is what
//! this implementation provides.
//!
//! The implementation follows the classical structure:
//!
//! 1. build an initial simplex around the start point with edge length
//!    `rho_begin`,
//! 2. fit the linear interpolant through the simplex vertices (solved here by
//!    Gaussian elimination on the simplex edge matrix),
//! 3. step from the best vertex along the negated model gradient, clipped to
//!    the trust-region radius,
//! 4. replace the worst vertex when the step improves the objective,
//!    otherwise shrink the trust region, and
//! 5. stop when the radius reaches `rho_end` or the evaluation budget is
//!    exhausted.
//!
//! The run is organized as a sequence of **atomic steps** (simplex
//! initialization, one trust-region iteration, one degenerate-simplex
//! rebuild) over an explicit [`CobylaState`], which is what makes the
//! optimizer [`Resumable`]: a paused run continues exactly where it stopped.

use crate::result::{OptimizationResult, OptimizationTrace};
use crate::resumable::{nan_last, probe, OptimizerState, Resumable};

/// COBYLA-style linear trust-region optimizer.
#[derive(Debug, Clone)]
pub struct CobylaOptimizer {
    /// Initial trust-region radius (also the initial simplex edge length).
    pub rho_begin: f64,
    /// Final trust-region radius; reaching it counts as convergence.
    pub rho_end: f64,
    /// Trust-region shrink factor applied when a step fails to improve.
    pub shrink: f64,
}

impl Default for CobylaOptimizer {
    fn default() -> Self {
        CobylaOptimizer {
            rho_begin: 0.5,
            rho_end: 1e-6,
            shrink: 0.5,
        }
    }
}

impl CobylaOptimizer {
    /// Optimizer with explicit initial/final trust-region radii.
    pub fn new(rho_begin: f64, rho_end: f64) -> Self {
        CobylaOptimizer {
            rho_begin,
            rho_end,
            shrink: 0.5,
        }
    }
}

/// Checkpointed state of a COBYLA run (see [`Resumable`]).
#[derive(Debug, Clone)]
pub struct CobylaState {
    pub(crate) initial: Vec<f64>,
    pub(crate) vertices: Vec<Vec<f64>>,
    pub(crate) values: Vec<f64>,
    pub(crate) rho: f64,
    pub(crate) converged: bool,
    pub(crate) trace: OptimizationTrace,
}

impl CobylaState {
    /// The first vertex of least value; a NaN vertex is never best while
    /// another has a number.
    fn best_index(&self) -> usize {
        self.values
            .iter()
            .enumerate()
            .min_by(|a, b| nan_last(a.1, b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    pub(crate) fn snapshot(&self) -> OptimizationResult {
        if self.values.is_empty() {
            return OptimizationResult::from_trace(
                self.initial.clone(),
                f64::INFINITY,
                self.converged,
                self.trace.clone(),
            );
        }
        let bi = self.best_index();
        OptimizationResult::from_trace(
            self.vertices[bi].clone(),
            self.values[bi],
            self.converged,
            self.trace.clone(),
        )
    }
}

/// Solve the linear system `A x = b` with partial pivoting. Returns `None`
/// for (numerically) singular systems.
fn solve_linear(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Pivot selection.
        let mut pivot = col;
        for row in (col + 1)..n {
            if a[row][col].abs() > a[pivot][col].abs() {
                pivot = row;
            }
        }
        if a[pivot][col].abs() < 1e-14 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Elimination.
        for row in (col + 1)..n {
            let factor = a[row][col] / a[col][col];
            let (upper, lower) = a.split_at_mut(row);
            let (pivot_row, this_row) = (&upper[col], &mut lower[0]);
            for (x, p) in this_row[col..n].iter_mut().zip(&pivot_row[col..n]) {
                *x -= factor * p;
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut sum = b[row];
        for k in (row + 1)..n {
            sum -= a[row][k] * x[k];
        }
        x[row] = sum / a[row][row];
    }
    Some(x)
}

impl CobylaOptimizer {
    /// One atomic step: simplex init, a degenerate rebuild, or a full
    /// trust-region iteration. Runs to completion regardless of the budget
    /// (the caller only decides whether to *begin* a step).
    fn step(&self, s: &mut CobylaState, evaluate: &mut dyn FnMut(&[f64]) -> f64) {
        let n = s.initial.len();

        if n == 0 {
            let v = probe(evaluate, &s.initial, &mut s.trace);
            s.vertices.push(s.initial.clone());
            s.values.push(v);
            s.converged = true;
            return;
        }

        // Initialization: the whole simplex is one atomic step.
        if s.vertices.len() < n + 1 {
            if s.vertices.is_empty() {
                let v = probe(evaluate, &s.initial, &mut s.trace);
                s.vertices.push(s.initial.clone());
                s.values.push(v);
            }
            for i in s.vertices.len() - 1..n {
                let mut x = s.initial.clone();
                x[i] += self.rho_begin;
                let v = probe(evaluate, &x, &mut s.trace);
                s.vertices.push(x);
                s.values.push(v);
            }
            return;
        }

        if s.rho <= self.rho_end {
            s.converged = true;
            return;
        }

        let bi = s.best_index();
        let best_point = s.vertices[bi].clone();
        let best_value = s.values[bi];

        // Linear model: f(x) ≈ f(x_best) + g·(x - x_best), where g solves
        // the interpolation conditions on the other n vertices.
        let mut a: Vec<Vec<f64>> = Vec::with_capacity(n);
        let mut b: Vec<f64> = Vec::with_capacity(n);
        for (j, (vertex, &value)) in s.vertices.iter().zip(s.values.iter()).enumerate() {
            if j == bi {
                continue;
            }
            let row: Vec<f64> = vertex.iter().zip(&best_point).map(|(x, y)| x - y).collect();
            a.push(row);
            b.push(value - best_value);
        }

        // A NaN or infinite vertex value gives a non-finite gradient, whose
        // step would land on a NaN point: rebuild the simplex instead, as
        // for a degenerate one.
        let gradient = solve_linear(&mut a, &mut b).filter(|g| g.iter().all(|v| v.is_finite()));
        let gradient = match gradient {
            Some(g) => g,
            None => {
                // Degenerate simplex: rebuild it around the best point with
                // the current radius (one atomic step).
                for i in 0..n {
                    let mut x = best_point.clone();
                    x[i] += s.rho;
                    let v = probe(evaluate, &x, &mut s.trace);
                    let target = if i < bi { i } else { i + 1 };
                    s.vertices[target] = x;
                    s.values[target] = v;
                }
                return;
            }
        };

        let grad_norm = gradient.iter().map(|g| g * g).sum::<f64>().sqrt();
        if grad_norm < 1e-14 {
            // Flat model: shrink and retry (costs no evaluations; the rho
            // decay reaches rho_end after finitely many steps).
            s.rho *= self.shrink;
            return;
        }

        // Candidate step: steepest descent on the model, trust-region length.
        let candidate: Vec<f64> = best_point
            .iter()
            .zip(&gradient)
            .map(|(x, g)| x - s.rho * g / grad_norm)
            .collect();
        let candidate_value = probe(evaluate, &candidate, &mut s.trace);

        if candidate_value < best_value - 1e-14 {
            // Accept: replace the worst vertex.
            let wi = s
                .values
                .iter()
                .enumerate()
                .max_by(|a, b| nan_last(a.1, b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            s.vertices[wi] = candidate;
            s.values[wi] = candidate_value;
        } else {
            // Reject: shrink the trust region and refresh the simplex
            // around the best point at the new scale.
            s.rho *= self.shrink;
            for i in 0..n {
                let target = if i < bi { i } else { i + 1 };
                let mut x = best_point.clone();
                x[i] += s.rho;
                let v = probe(evaluate, &x, &mut s.trace);
                s.vertices[target] = x;
                s.values[target] = v;
            }
        }
    }
}

impl Resumable for CobylaOptimizer {
    fn name(&self) -> &'static str {
        "cobyla"
    }

    fn start(&self, initial: &[f64], _budget_hint: usize) -> OptimizerState {
        OptimizerState::Cobyla(CobylaState {
            initial: initial.to_vec(),
            vertices: Vec::new(),
            values: Vec::new(),
            rho: self.rho_begin,
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
        let OptimizerState::Cobyla(s) = state else {
            panic!(
                "CobylaOptimizer::resume given a {} state",
                state.kind_name()
            );
        };
        while !s.converged && s.trace.len() < target_evaluations {
            self.step(s, evaluate);
        }
        s.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_linear_simple_system() {
        let mut a = vec![vec![2.0, 0.0], vec![0.0, 4.0]];
        let mut b = vec![2.0, 8.0];
        let x = solve_linear(&mut a, &mut b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_linear_detects_singular() {
        let mut a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        let mut b = vec![1.0, 2.0];
        assert!(solve_linear(&mut a, &mut b).is_none());
    }

    #[test]
    fn minimizes_quadratic() {
        let c = CobylaOptimizer::default();
        let r = c.minimize(
            &|x| (x[0] - 1.5).powi(2) + (x[1] + 0.5).powi(2),
            &[0.0, 0.0],
            300,
        );
        assert!(r.best_value < 1e-3, "best value {}", r.best_value);
        assert!((r.best_point[0] - 1.5).abs() < 0.05);
        assert!((r.best_point[1] + 0.5).abs() < 0.05);
    }

    #[test]
    fn minimizes_periodic_qaoa_like_landscape() {
        let c = CobylaOptimizer::default();
        // Global minimum of this landscape is -0.75 (at sin(x0) = 1/2, x1 = 0).
        let f = |x: &[f64]| -(x[0].sin() * x[1].cos() + 0.5 * (2.0 * x[0]).cos());
        let r = c.minimize(&f, &[0.3, 0.2], 200);
        assert!(r.best_value < -0.74, "best value {}", r.best_value);
    }

    #[test]
    fn respects_budget() {
        let c = CobylaOptimizer::default();
        let r = c.minimize(&|x| x.iter().map(|v| v * v).sum(), &[1.0, 1.0, 1.0], 25);
        assert!(r.evaluations <= 25 + 3, "used {}", r.evaluations);
    }

    #[test]
    fn improves_over_initial_point() {
        let c = CobylaOptimizer::default();
        let f = |x: &[f64]| (x[0] + 2.0).powi(2);
        let initial_value = f(&[1.0]);
        let r = c.minimize(&f, &[1.0], 100);
        assert!(r.best_value < initial_value);
    }

    #[test]
    fn zero_dimensional_input() {
        let c = CobylaOptimizer::default();
        let r = c.minimize(&|_| 3.5, &[], 10);
        assert_eq!(r.best_value, 3.5);
        assert!(r.converged);
    }

    #[test]
    fn converges_before_budget_on_easy_problem() {
        let c = CobylaOptimizer {
            rho_begin: 0.5,
            rho_end: 1e-3,
            shrink: 0.5,
        };
        let r = c.minimize(&|x| x[0] * x[0], &[0.2], 5000);
        assert!(r.converged);
        assert!(r.evaluations < 5000);
    }
}
