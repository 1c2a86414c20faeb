//! Shared analytic test functions for optimizer tests.

/// Sphere function: global minimum 0 at the origin.
pub fn sphere(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum()
}

/// 2-D Rosenbrock function: global minimum 0 at (1, 1).
pub fn rosenbrock(x: &[f64]) -> f64 {
    (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
}

/// A QAOA-like periodic landscape with global minimum -1.5 at the origin.
pub fn periodic(x: &[f64]) -> f64 {
    -(x[0].cos() + 0.5 * x.iter().skip(1).map(|v| v.cos()).product::<f64>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CobylaOptimizer, NelderMead, OptimizerKind, RandomSearch, Resumable, Spsa};

    #[test]
    fn analytic_minima() {
        assert_eq!(sphere(&[0.0, 0.0]), 0.0);
        assert_eq!(rosenbrock(&[1.0, 1.0]), 0.0);
        assert!((periodic(&[0.0, 0.0]) + 1.5).abs() < 1e-12);
    }

    #[test]
    fn every_optimizer_beats_random_start_on_sphere() {
        let start = [1.5, -1.5];
        let start_value = sphere(&start);
        let optimizers: Vec<Box<dyn Resumable>> = vec![
            Box::new(CobylaOptimizer::default()),
            Box::new(NelderMead::default()),
            Box::new(Spsa::default()),
            Box::new(RandomSearch::default()),
        ];
        for opt in optimizers {
            let r = opt.minimize(&sphere, &start, 400);
            assert!(
                r.best_value < start_value,
                "{} failed to improve: {} vs start {}",
                opt.name(),
                r.best_value,
                start_value
            );
        }
    }

    #[test]
    fn kind_builds_every_optimizer() {
        for kind in OptimizerKind::all() {
            let opt = kind.build_resumable();
            let r = opt.minimize(&sphere, &[0.5], 30);
            assert!(r.best_value.is_finite());
            assert!(!opt.name().is_empty());
        }
    }

    #[test]
    fn kind_display_names_are_unique() {
        let names: Vec<String> = OptimizerKind::all().iter().map(|k| k.to_string()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
