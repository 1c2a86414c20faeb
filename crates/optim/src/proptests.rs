//! Property-based tests shared by all optimizers.

use crate::{CobylaOptimizer, GridSearch, NelderMead, RandomSearch, Resumable, Spsa};
use proptest::prelude::*;

fn resumables() -> Vec<Box<dyn Resumable>> {
    vec![
        Box::new(CobylaOptimizer::default()),
        Box::new(NelderMead::default()),
        Box::new(Spsa::default()),
        Box::new(RandomSearch::default()),
        Box::new(GridSearch::default()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn optimizers_never_return_worse_than_best_trace_value(
        x0 in -2.0f64..2.0,
        x1 in -2.0f64..2.0,
        shift in -1.0f64..1.0,
    ) {
        let f = move |x: &[f64]| (x[0] - shift).powi(2) + (x[1] + shift).powi(2);
        for opt in resumables() {
            let r = opt.minimize(&f, &[x0, x1], 80);
            // The reported best value matches the minimum of the trace.
            let trace_best = r.trace.best().unwrap();
            prop_assert!((r.best_value - trace_best).abs() < 1e-9,
                "{}: best_value {} != trace best {}", opt.name(), r.best_value, trace_best);
            // The reported point actually evaluates to the reported value.
            prop_assert!((f(&r.best_point) - r.best_value).abs() < 1e-9,
                "{}: point/value mismatch", opt.name());
        }
    }

    #[test]
    fn optimizers_respect_budget(x0 in -1.0f64..1.0, budget in 5usize..60) {
        let f = |x: &[f64]| x[0].powi(2);
        for opt in resumables() {
            let r = opt.minimize(&f, &[x0], budget);
            // Allow a small overshoot for optimizers that finish their
            // current iteration (documented in the trait).
            prop_assert!(r.evaluations <= budget + 4,
                "{} used {} evaluations with budget {}", opt.name(), r.evaluations, budget);
        }
    }

    #[test]
    fn best_curve_is_monotone_nonincreasing(x0 in -2.0f64..2.0) {
        let f = |x: &[f64]| x[0].sin() + 0.3 * x[0] * x[0];
        for opt in resumables() {
            let r = opt.minimize(&f, &[x0], 60);
            let curve = r.trace.best_curve();
            for w in curve.windows(2) {
                prop_assert!(w[1] <= w[0] + 1e-12, "{}: best curve increased", opt.name());
            }
        }
    }
}
