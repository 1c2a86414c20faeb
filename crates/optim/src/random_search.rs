//! Uniform random search within a box around the start point.
//!
//! Random search is both a baseline optimizer and a nod to the paper's
//! observation that random search is "a strong baseline in neural
//! architecture search" (Li & Talwalkar, 2020).
//!
//! The run draws one candidate per evaluation from an explicit
//! [`RandomSearchState`] (RNG stream plus incumbent), so it is trivially
//! [resumable](crate::Resumable). Each candidate is drawn and then
//! evaluated; an evaluation consumes no draw, so the candidates do not
//! depend on where a resume falls.

use crate::result::{OptimizationResult, OptimizationTrace};
use crate::resumable::{probe, OptimizerState, Resumable};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Uniform random sampling of points inside `initial ± half_width`.
#[derive(Debug, Clone)]
pub struct RandomSearch {
    /// Half-width of the sampling box along every coordinate.
    pub half_width: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomSearch {
    fn default() -> Self {
        RandomSearch {
            half_width: std::f64::consts::PI,
            seed: 0xAB5,
        }
    }
}

/// Checkpointed state of a random-search run (see [`Resumable`]).
#[derive(Debug, Clone)]
pub struct RandomSearchState {
    /// Center of the sampling box.
    pub(crate) center: Vec<f64>,
    pub(crate) best_point: Vec<f64>,
    pub(crate) best_value: f64,
    pub(crate) started: bool,
    pub(crate) converged: bool,
    pub(crate) rng: ChaCha8Rng,
    pub(crate) trace: OptimizationTrace,
}

impl RandomSearchState {
    pub(crate) fn snapshot(&self) -> OptimizationResult {
        OptimizationResult::from_trace(
            self.best_point.clone(),
            self.best_value,
            self.converged,
            self.trace.clone(),
        )
    }
}

impl Resumable for RandomSearch {
    fn name(&self) -> &'static str {
        "random-search"
    }

    fn start(&self, initial: &[f64], _budget_hint: usize) -> OptimizerState {
        OptimizerState::RandomSearch(RandomSearchState {
            center: initial.to_vec(),
            best_point: initial.to_vec(),
            best_value: f64::INFINITY,
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
        let OptimizerState::RandomSearch(s) = state else {
            panic!("RandomSearch::resume given a {} state", state.kind_name());
        };
        // The center's evaluation leads the run; with no coordinates to
        // draw, it is the whole run. Against the +inf of `start`, a NaN there
        // never becomes the best.
        if !s.started && target_evaluations > 0 {
            let v = probe(evaluate, &s.center, &mut s.trace);
            if v < s.best_value {
                s.best_value = v;
            }
            s.started = true;
            s.converged = s.center.is_empty();
        }
        while !s.converged && s.trace.len() < target_evaluations {
            let candidate: Vec<f64> = s
                .center
                .iter()
                .map(|&x| x + s.rng.gen_range(-self.half_width..=self.half_width))
                .collect();
            let value = probe(evaluate, &candidate, &mut s.trace);
            if value < s.best_value {
                s.best_value = value;
                s.best_point = candidate;
            }
        }
        s.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_reasonable_minimum_of_1d_quadratic() {
        let rs = RandomSearch {
            half_width: 2.0,
            seed: 3,
        };
        let r = rs.minimize(&|x| x[0] * x[0], &[0.0], 500);
        assert!(r.best_value < 0.01);
    }

    #[test]
    fn uses_exactly_the_budget() {
        let rs = RandomSearch::default();
        let r = rs.minimize(&|x| x[0], &[0.0], 37);
        assert_eq!(r.evaluations, 37);
    }

    #[test]
    fn never_returns_worse_than_initial() {
        let rs = RandomSearch::default();
        let f = |x: &[f64]| (x[0] - 10.0).powi(2);
        let initial_value = f(&[0.0]);
        let r = rs.minimize(&f, &[0.0], 20);
        assert!(r.best_value <= initial_value);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let f = |x: &[f64]| x[0].cos() + x[1].sin();
        let a = RandomSearch {
            half_width: 1.0,
            seed: 9,
        }
        .minimize(&f, &[0.0, 0.0], 50);
        let b = RandomSearch {
            half_width: 1.0,
            seed: 9,
        }
        .minimize(&f, &[0.0, 0.0], 50);
        assert_eq!(a.best_point, b.best_point);
    }
}
