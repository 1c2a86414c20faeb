//! Nelder–Mead downhill simplex minimizer.
//!
//! Organized as atomic iterations over an explicit [`NelderMeadState`] so a
//! paused run can be [resumed](crate::Resumable) exactly where it stopped.

use crate::result::{OptimizationResult, OptimizationTrace};
use crate::resumable::{nan_last, probe, OptimizerState, Resumable};

/// The Nelder–Mead simplex method with standard reflection / expansion /
/// contraction / shrink coefficients.
#[derive(Debug, Clone)]
pub struct NelderMead {
    /// Reflection coefficient (α > 0).
    pub alpha: f64,
    /// Expansion coefficient (γ > 1).
    pub gamma: f64,
    /// Contraction coefficient (0 < ρ ≤ 0.5).
    pub rho: f64,
    /// Shrink coefficient (0 < σ < 1).
    pub sigma: f64,
    /// Initial simplex step along each coordinate.
    pub initial_step: f64,
    /// Convergence tolerance on the simplex value spread.
    pub tolerance: f64,
}

impl Default for NelderMead {
    fn default() -> Self {
        NelderMead {
            alpha: 1.0,
            gamma: 2.0,
            rho: 0.5,
            sigma: 0.5,
            initial_step: 0.25,
            tolerance: 1e-8,
        }
    }
}

/// Checkpointed state of a Nelder–Mead run (see [`Resumable`]).
#[derive(Debug, Clone)]
pub struct NelderMeadState {
    pub(crate) initial: Vec<f64>,
    /// Simplex vertices with their values, kept sorted best-first at
    /// iteration boundaries.
    pub(crate) simplex: Vec<(Vec<f64>, f64)>,
    pub(crate) converged: bool,
    pub(crate) trace: OptimizationTrace,
}

impl NelderMeadState {
    pub(crate) fn snapshot(&self) -> OptimizationResult {
        let best = self.simplex.iter().min_by(|a, b| nan_last(&a.1, &b.1));
        match best {
            Some((bp, bv)) => {
                OptimizationResult::from_trace(bp.clone(), *bv, self.converged, self.trace.clone())
            }
            None => OptimizationResult::from_trace(
                self.initial.clone(),
                f64::INFINITY,
                self.converged,
                self.trace.clone(),
            ),
        }
    }
}

impl NelderMead {
    /// One atomic step: full simplex initialization, vertex by vertex, or
    /// one complete reflect/expand/contract/shrink iteration.
    fn step(&self, s: &mut NelderMeadState, evaluate: &mut dyn FnMut(&[f64]) -> f64) {
        let n = s.initial.len();

        // Initial simplex: the start point plus a step along each axis, as
        // one atomic block. With no axes it is the start point alone, and
        // the run is done.
        if s.simplex.len() < n + 1 {
            let v = probe(evaluate, &s.initial, &mut s.trace);
            s.simplex.push((s.initial.clone(), v));
            for i in 0..n {
                let mut x = s.initial.clone();
                x[i] += if x[i].abs() > 1e-12 {
                    self.initial_step * x[i].abs()
                } else {
                    self.initial_step
                };
                let v = probe(evaluate, &x, &mut s.trace);
                s.simplex.push((x, v));
            }
            s.converged = n == 0;
            return;
        }

        // NaN vertices sort last, so the worst is replaced first.
        s.simplex.sort_by(|a, b| nan_last(&a.1, &b.1));
        let best = s.simplex[0].1;
        let worst = s.simplex[n].1;
        if (worst - best).abs() < self.tolerance {
            s.converged = true;
            return;
        }

        // Centroid of all but the worst vertex.
        let mut centroid = vec![0.0; n];
        for (x, _) in s.simplex.iter().take(n) {
            for (c, xi) in centroid.iter_mut().zip(x) {
                *c += xi / n as f64;
            }
        }

        let worst_point = s.simplex[n].0.clone();
        let reflect: Vec<f64> = centroid
            .iter()
            .zip(&worst_point)
            .map(|(c, w)| c + self.alpha * (c - w))
            .collect();
        let f_reflect = probe(evaluate, &reflect, &mut s.trace);

        if f_reflect < s.simplex[0].1 {
            // Try to expand.
            let expand: Vec<f64> = centroid
                .iter()
                .zip(&reflect)
                .map(|(c, r)| c + self.gamma * (r - c))
                .collect();
            let f_expand = probe(evaluate, &expand, &mut s.trace);
            s.simplex[n] = if f_expand < f_reflect {
                (expand, f_expand)
            } else {
                (reflect, f_reflect)
            };
        } else if f_reflect < s.simplex[n - 1].1 {
            s.simplex[n] = (reflect, f_reflect);
        } else {
            // Contraction.
            let contract: Vec<f64> = centroid
                .iter()
                .zip(&worst_point)
                .map(|(c, w)| c + self.rho * (w - c))
                .collect();
            let f_contract = probe(evaluate, &contract, &mut s.trace);
            if f_contract < s.simplex[n].1 {
                s.simplex[n] = (contract, f_contract);
            } else {
                // Shrink toward the best vertex.
                let best_point = s.simplex[0].0.clone();
                for vertex in s.simplex.iter_mut().skip(1) {
                    let new_x: Vec<f64> = best_point
                        .iter()
                        .zip(&vertex.0)
                        .map(|(b, x)| b + self.sigma * (x - b))
                        .collect();
                    let new_v = probe(evaluate, &new_x, &mut s.trace);
                    *vertex = (new_x, new_v);
                }
            }
        }
    }
}

impl Resumable for NelderMead {
    fn name(&self) -> &'static str {
        "nelder-mead"
    }

    fn start(&self, initial: &[f64], _budget_hint: usize) -> OptimizerState {
        OptimizerState::NelderMead(NelderMeadState {
            initial: initial.to_vec(),
            simplex: Vec::new(),
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
        let OptimizerState::NelderMead(s) = state else {
            panic!("NelderMead::resume given a {} state", state.kind_name());
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
    fn minimizes_quadratic() {
        let nm = NelderMead::default();
        let r = nm.minimize(
            &|x| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2),
            &[0.0, 0.0],
            400,
        );
        assert!((r.best_point[0] - 3.0).abs() < 1e-3, "{:?}", r.best_point);
        assert!((r.best_point[1] + 1.0).abs() < 1e-3, "{:?}", r.best_point);
        assert!(r.best_value < 1e-5);
    }

    #[test]
    fn minimizes_rosenbrock_2d() {
        let nm = NelderMead::default();
        let rosen = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let r = nm.minimize(&rosen, &[-1.2, 1.0], 2000);
        assert!(r.best_value < 1e-4, "rosenbrock value {}", r.best_value);
    }

    #[test]
    fn respects_evaluation_budget() {
        let nm = NelderMead::default();
        let r = nm.minimize(&|x| x[0] * x[0], &[5.0], 10);
        assert!(r.evaluations <= 12, "used {} evaluations", r.evaluations);
    }

    #[test]
    fn handles_zero_dimensional_input() {
        let nm = NelderMead::default();
        let r = nm.minimize(&|_| 7.0, &[], 10);
        assert_eq!(r.best_value, 7.0);
        assert!(r.converged);
    }

    #[test]
    fn converges_flag_set_on_flat_function() {
        let nm = NelderMead::default();
        let r = nm.minimize(&|_| 1.0, &[0.5, 0.5], 500);
        assert!(r.converged);
        assert!(r.evaluations < 500);
    }

    #[test]
    fn minimizes_periodic_objective() {
        // QAOA-like periodic landscape: global minimum of -cos(x)cos(y) at (0, 0).
        let nm = NelderMead::default();
        let r = nm.minimize(&|x| -(x[0].cos() * x[1].cos()), &[0.4, -0.3], 500);
        assert!(r.best_value < -0.999, "value {}", r.best_value);
    }
}
