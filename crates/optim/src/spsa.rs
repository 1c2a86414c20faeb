//! Simultaneous Perturbation Stochastic Approximation (SPSA).
//!
//! SPSA estimates the gradient with two objective evaluations per iteration
//! regardless of dimension, which makes it a common choice for noisy
//! variational-quantum objectives. It is included here as an alternative
//! evaluator optimizer.
//!
//! The run is a sequence of atomic perturbation-pair iterations over an
//! explicit [`SpsaState`] (iterate, gain counter, RNG stream), so a paused
//! run [resumes](crate::Resumable) on the exact same stochastic trajectory.
//! Each iteration's evaluation cost is known up front (2, plus 1 every tenth
//! iteration for the iterate check), and an iteration only begins when it
//! fits the remaining budget — SPSA never overshoots. (The pre-resumable
//! implementation spent one extra evaluation on the final iterate when the
//! budget allowed; that check depended on knowing which call was the last
//! one, which a resumable run cannot, so seeded results differ slightly
//! from releases before the checkpoint API.)

use crate::result::{OptimizationResult, OptimizationTrace};
use crate::resumable::{probe, OptimizerState, Resumable};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// SPSA with the standard gain sequences `a_k = a / (k + 1 + A)^alpha` and
/// `c_k = c / (k + 1)^gamma`.
#[derive(Debug, Clone)]
pub struct Spsa {
    /// Step-size numerator `a`.
    pub a: f64,
    /// Perturbation-size numerator `c`.
    pub c: f64,
    /// Stability constant `A`.
    pub stability: f64,
    /// Step-size decay exponent `alpha`.
    pub alpha: f64,
    /// Perturbation decay exponent `gamma`.
    pub gamma: f64,
    /// RNG seed (SPSA is stochastic; fixing the seed keeps runs reproducible).
    pub seed: u64,
}

impl Default for Spsa {
    fn default() -> Self {
        Spsa {
            a: 0.2,
            c: 0.15,
            stability: 10.0,
            alpha: 0.602,
            gamma: 0.101,
            seed: 0x5B5A,
        }
    }
}

impl Spsa {
    /// SPSA with an explicit seed and otherwise default hyper-parameters.
    pub fn with_seed(seed: u64) -> Self {
        Spsa {
            seed,
            ..Spsa::default()
        }
    }
}

/// Checkpointed state of an SPSA run (see [`Resumable`]).
#[derive(Debug, Clone)]
pub struct SpsaState {
    pub(crate) x: Vec<f64>,
    pub(crate) best_point: Vec<f64>,
    pub(crate) best_value: f64,
    pub(crate) k: usize,
    pub(crate) started: bool,
    pub(crate) converged: bool,
    pub(crate) rng: ChaCha8Rng,
    pub(crate) trace: OptimizationTrace,
}

impl SpsaState {
    pub(crate) fn snapshot(&self) -> OptimizationResult {
        OptimizationResult::from_trace(
            self.best_point.clone(),
            self.best_value,
            self.converged,
            self.trace.clone(),
        )
    }
}

impl Spsa {
    /// Evaluation cost of iteration `k` (a perturbation pair, plus the
    /// periodic iterate check every tenth iteration).
    fn iteration_cost(k: usize) -> usize {
        if k % 10 == 9 {
            3
        } else {
            2
        }
    }

    /// One atomic SPSA iteration: `evaluate` gets `x₊`, then `x₋`, then on
    /// every tenth iteration the updated iterate.
    fn step(&self, s: &mut SpsaState, evaluate: &mut dyn FnMut(&[f64]) -> f64) {
        let n = s.x.len();
        let ak = self.a / ((s.k as f64) + 1.0 + self.stability).powf(self.alpha);
        let ck = self.c / ((s.k as f64) + 1.0).powf(self.gamma);

        // Rademacher perturbation.
        let delta: Vec<f64> = (0..n)
            .map(|_| if s.rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect();

        let x_plus: Vec<f64> = s.x.iter().zip(&delta).map(|(xi, d)| xi + ck * d).collect();
        let x_minus: Vec<f64> = s.x.iter().zip(&delta).map(|(xi, d)| xi - ck * d).collect();
        let f_plus = probe(evaluate, &x_plus, &mut s.trace);
        let f_minus = probe(evaluate, &x_minus, &mut s.trace);

        // Gradient estimate and update. A pair with a NaN or an infinity
        // carries no gradient: the iterate stays put rather than turn NaN.
        let rise = f_plus - f_minus;
        if rise.is_finite() {
            for (xi, d) in s.x.iter_mut().zip(&delta) {
                let g = rise / (2.0 * ck * d);
                *xi -= ak * g;
            }
        }

        // Track the best of the probe points and (periodically) the iterate.
        if f_plus < s.best_value {
            s.best_value = f_plus;
            s.best_point = x_plus;
        }
        if f_minus < s.best_value {
            s.best_value = f_minus;
            s.best_point = x_minus;
        }
        if s.k % 10 == 9 {
            let f_x = probe(evaluate, &s.x, &mut s.trace);
            if f_x < s.best_value {
                s.best_value = f_x;
                s.best_point = s.x.clone();
            }
        }
        s.k += 1;
    }
}

impl Resumable for Spsa {
    fn name(&self) -> &'static str {
        "spsa"
    }

    fn start(&self, initial: &[f64], _budget_hint: usize) -> OptimizerState {
        OptimizerState::Spsa(SpsaState {
            x: initial.to_vec(),
            best_point: initial.to_vec(),
            best_value: f64::INFINITY,
            k: 0,
            started: false,
            converged: false,
            rng: ChaCha8Rng::seed_from_u64(self.seed),
            trace: OptimizationTrace::new(),
        })
    }

    fn resume(
        &self,
        state: &mut OptimizerState,
        evaluate: &mut dyn FnMut(&[f64]) -> f64,
        target_evaluations: usize,
    ) -> OptimizationResult {
        let OptimizerState::Spsa(s) = state else {
            panic!("Spsa::resume given a {} state", state.kind_name());
        };
        if !s.started && target_evaluations > 0 {
            // `start` put the best at `x` with +inf: a NaN here never
            // becomes the best.
            let v = probe(evaluate, &s.x, &mut s.trace);
            if v < s.best_value {
                s.best_value = v;
            }
            s.started = true;
            if s.x.is_empty() {
                s.converged = true;
            }
        }
        while !s.converged && s.trace.len() + Spsa::iteration_cost(s.k) <= target_evaluations {
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
        let spsa = Spsa::default();
        let r = spsa.minimize(
            &|x| (x[0] - 1.0).powi(2) + (x[1] - 2.0).powi(2),
            &[0.0, 0.0],
            2000,
        );
        assert!(r.best_value < 0.05, "best value {}", r.best_value);
    }

    #[test]
    fn is_deterministic_for_fixed_seed() {
        let f = |x: &[f64]| x[0].sin() + x[0] * x[0];
        let a = Spsa::with_seed(7).minimize(&f, &[1.0], 200);
        let b = Spsa::with_seed(7).minimize(&f, &[1.0], 200);
        assert_eq!(a.best_value, b.best_value);
        assert_eq!(a.best_point, b.best_point);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let f = |x: &[f64]| x[0].sin() * x[1].cos() + 0.1 * (x[0] * x[0] + x[1] * x[1]);
        let a = Spsa::with_seed(1).minimize(&f, &[0.5, 0.5], 300);
        let b = Spsa::with_seed(2).minimize(&f, &[0.5, 0.5], 300);
        assert_ne!(a.trace.points(), b.trace.points());
    }

    #[test]
    fn respects_budget() {
        let spsa = Spsa::default();
        let r = spsa.minimize(&|x| x[0] * x[0], &[2.0], 50);
        assert!(r.evaluations <= 50);
    }

    #[test]
    fn improves_over_initial_value_on_smooth_problem() {
        let spsa = Spsa::default();
        let f = |x: &[f64]| (x[0] - 0.7).powi(2);
        let initial = f(&[0.0]);
        let r = spsa.minimize(&f, &[0.0], 500);
        assert!(r.best_value < initial);
    }

    #[test]
    fn zero_dimensional_input() {
        let spsa = Spsa::default();
        let r = spsa.minimize(&|_| -2.0, &[], 10);
        assert_eq!(r.best_value, -2.0);
    }
}
