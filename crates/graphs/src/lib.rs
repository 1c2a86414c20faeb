//! # graphs — graph generation and Max-Cut machinery
//!
//! The QArchSearch paper drives its architecture search with the Max-Cut QAOA
//! application. Its experiments use two families of instances:
//!
//! * 20 Erdős–Rényi graphs on 10 nodes with varying connectivity (the search /
//!   profiling dataset of §3.1 and Fig. 4–5), and
//! * 20 random 4-regular graphs on 10 nodes (the generalization dataset of
//!   §3.2 and Fig. 7–9).
//!
//! This crate provides:
//!
//! * [`Graph`] — a simple undirected weighted graph with an edge list
//!   representation (what both the QAOA cost layer and the tensor-network
//!   light cone construction need),
//! * [`generators`] — Erdős–Rényi `G(n, p)`, random `d`-regular
//!   (configuration-model with rejection), cycle/complete/star helpers,
//! * [`maxcut`] — cut values, exact Max-Cut by enumeration (suitable for the
//!   n = 10 instances of the paper), and greedy + local-search heuristics:
//!   the Max-Cut oracle that [`problem`]'s generic solvers are checked
//!   against bitwise,
//! * [`problem`] — the pluggable diagonal-cost-Hamiltonian layer: [`Problem`]
//!   generalizes Max-Cut to arbitrary diagonal objectives (weighted Max-Cut,
//!   Max Independent Set, Sherrington–Kirkpatrick, number partitioning, …)
//!   with generic exact/heuristic classical reference solvers,
//! * [`datasets`] — the exact instance collections used by the experiment
//!   harness (seeded, hence reproducible).

pub mod datasets;
pub mod error;
pub mod generators;
pub mod graph;
pub mod maxcut;
pub mod problem;

pub use error::{GraphError, ParseKindError};
pub use graph::{Edge, Graph, GraphKind};
pub use maxcut::{BruteForceResult, MaxCut};
pub use problem::{
    ClassicalSolution, CostTerm, ExactSolution, Problem, ProblemKind, RatioConvention,
    SolutionQuality,
};

#[cfg(test)]
mod proptests;
