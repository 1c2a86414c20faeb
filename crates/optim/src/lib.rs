//! # optim — classical optimizers for variational quantum circuits
//!
//! The QArchSearch **Evaluator** trains each candidate QAOA circuit "for 200
//! steps with the COBYLA optimizer" (§2.1). This crate provides that
//! optimizer along with several alternatives behind one [`Resumable`] trait:
//!
//! * [`CobylaOptimizer`] — a linear-approximation trust-region method in the
//!   spirit of Powell's COBYLA, restricted to the unconstrained case the
//!   paper needs (QAOA angles are periodic, so no bounds are imposed).
//! * [`NelderMead`] — the classic derivative-free simplex method.
//! * [`Spsa`] — simultaneous-perturbation stochastic approximation, a common
//!   choice for noisy quantum objective functions.
//! * [`RandomSearch`] and [`GridSearch`] — trivial baselines that are useful
//!   in ablations and tests.
//!
//! All optimizers **minimize**; QAOA energy maximization is expressed by
//! minimizing the negated expectation.
//!
//! A run can be checkpointed as an [`OptimizerState`] and continued later
//! with a larger budget, which is what the search package's
//! successive-halving pruner builds on; the one-shot
//! [`Resumable::minimize`] is `start` + `resume_until`. See [`resumable`]
//! for the contract and a worked example.
//!
//! ```
//! use optim::{NelderMead, Resumable};
//!
//! // Minimize a shifted quadratic.
//! let nm = NelderMead::default();
//! let result = nm.minimize(&|x: &[f64]| (x[0] - 1.0).powi(2) + (x[1] + 2.0).powi(2),
//!                          &[0.0, 0.0], 200);
//! assert!((result.best_point[0] - 1.0).abs() < 1e-3);
//! assert!((result.best_point[1] + 2.0).abs() < 1e-3);
//! ```

pub mod cobyla;
pub mod grid;
pub mod nelder_mead;
pub mod random_search;
pub mod result;
pub mod resumable;
pub mod spsa;

pub use cobyla::CobylaOptimizer;
pub use grid::GridSearch;
pub use nelder_mead::NelderMead;
pub use random_search::RandomSearch;
pub use result::{OptimizationResult, OptimizationTrace};
pub use resumable::{OptimizerState, Resumable};
pub use spsa::Spsa;

use serde::{Deserialize, Serialize};

/// Enumeration of the bundled optimizers, convenient for configuration files
/// and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// COBYLA-style linear trust-region method (the paper's default).
    Cobyla,
    /// Nelder–Mead simplex.
    NelderMead,
    /// SPSA.
    Spsa,
    /// Uniform random search within a box.
    RandomSearch,
    /// Uniform grid search within a box.
    GridSearch,
}

impl OptimizerKind {
    /// Instantiate the optimizer with default hyper-parameters.
    pub fn build_resumable(self) -> Box<dyn Resumable> {
        match self {
            OptimizerKind::Cobyla => Box::new(CobylaOptimizer::default()),
            OptimizerKind::NelderMead => Box::new(NelderMead::default()),
            OptimizerKind::Spsa => Box::new(Spsa::default()),
            OptimizerKind::RandomSearch => Box::new(RandomSearch::default()),
            OptimizerKind::GridSearch => Box::new(GridSearch::default()),
        }
    }

    /// All bundled optimizer kinds.
    pub fn all() -> &'static [OptimizerKind] {
        &[
            OptimizerKind::Cobyla,
            OptimizerKind::NelderMead,
            OptimizerKind::Spsa,
            OptimizerKind::RandomSearch,
            OptimizerKind::GridSearch,
        ]
    }
}

impl std::fmt::Display for OptimizerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OptimizerKind::Cobyla => "cobyla",
            OptimizerKind::NelderMead => "nelder-mead",
            OptimizerKind::Spsa => "spsa",
            OptimizerKind::RandomSearch => "random-search",
            OptimizerKind::GridSearch => "grid-search",
        };
        write!(f, "{s}")
    }
}

impl std::str::FromStr for OptimizerKind {
    type Err = graphs::ParseKindError;

    /// Parse an optimizer name. Round-trips with
    /// [`Display`](std::fmt::Display); the short aliases `nm`, `random` and
    /// `grid` are also accepted.
    fn from_str(spec: &str) -> Result<OptimizerKind, Self::Err> {
        match spec {
            "cobyla" => Ok(OptimizerKind::Cobyla),
            "nelder-mead" | "nm" => Ok(OptimizerKind::NelderMead),
            "spsa" => Ok(OptimizerKind::Spsa),
            "random-search" | "random" => Ok(OptimizerKind::RandomSearch),
            "grid-search" | "grid" => Ok(OptimizerKind::GridSearch),
            other => Err(graphs::ParseKindError::new(
                "optimizer",
                other,
                "cobyla, nelder-mead, spsa, random-search, grid-search",
            )),
        }
    }
}

#[cfg(test)]
mod kind_tests {
    use super::OptimizerKind;

    #[test]
    fn optimizer_kind_display_from_str_round_trips_exhaustively() {
        for &kind in OptimizerKind::all() {
            let parsed: OptimizerKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        let err = "adam".parse::<OptimizerKind>().unwrap_err();
        assert_eq!(err.what, "optimizer");
        assert!(err.to_string().contains("cobyla"), "{err}");
    }
}

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod test_functions;
