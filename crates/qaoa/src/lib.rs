//! # qaoa — QAOA ansatz assembly and energy evaluation
//!
//! The driver application of QArchSearch is the Quantum Approximate
//! Optimization Algorithm for Max-Cut. This crate provides:
//!
//! * [`mixer::Mixer`] — a description of a mixer layer as a sequence of
//!   single-qubit gates applied to every node (the object the architecture
//!   search optimizes). The paper's baseline is the standard `RX(2β)` mixer;
//!   the searched winner is `RX(2β)·RY(2β)` (Fig. 6). All parameterized gates
//!   in a mixer share the same `β`, "and hence do not incur additional
//!   computational cost" (Fig. 7 caption).
//! * [`ansatz::QaoaAnsatz`] — assembly of the depth-`p` alternating ansatz
//!   `Π_k e^{-iβ_k B} e^{-iγ_k C}` applied to `|+⟩^⊗n` for a given graph and
//!   mixer.
//! * [`Backend`] — selection between the dense state-vector backend and the
//!   tensor-network (QTensor-analog) backend for energy evaluation.
//! * [`energy::EnergyEvaluator`] — the expectation ⟨γ,β|C|γ,β⟩, its
//!   maximization with a classical optimizer, and approximation-ratio
//!   computation (Eq. 3 of the paper). Training can run in one shot
//!   ([`energy::EnergyEvaluator::train`]) or as a checkpointable
//!   [`energy::TrainingSession`] that the search pipeline advances in
//!   successive-halving rungs, optionally warm-started from a shallower
//!   depth via [`ansatz::QaoaAnsatz::warm_start_flat`].
//!
//! ```
//! use graphs::Graph;
//! use qaoa::{ansatz::QaoaAnsatz, mixer::Mixer, Backend, energy::EnergyEvaluator};
//!
//! let graph = Graph::cycle(4);
//! let ansatz = QaoaAnsatz::new(&graph, 1, Mixer::baseline());
//! let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
//! // γ = β = 0 leaves the uniform superposition: every edge cut with prob. 1/2.
//! let e = eval.energy(&ansatz, &[0.0], &[0.0]).unwrap();
//! assert!((e - 2.0).abs() < 1e-10);
//! ```

pub mod analytic;
pub mod angles;
pub mod ansatz;
pub mod backend;
pub mod energy;
pub mod error;
pub mod mixer;

pub use angles::Angles;
pub use backend::Backend;
pub use energy::{BatchScratch, EnergyEvaluator, TrainingSession};
pub use error::QaoaError;

#[cfg(test)]
mod proptests;
