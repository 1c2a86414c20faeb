//! # tensornet — tensor-network quantum circuit simulator (QTensor analog)
//!
//! The QArchSearch evaluator uses the Argonne **QTensor** tensor-network
//! simulator as its backend. This crate is a from-scratch Rust analog of the
//! pieces QArchSearch needs:
//!
//! * [`Tensor`] — a dense tensor over binary (dimension-2) indices with
//!   elementwise products and index summation (the einsum primitives that
//!   bucket elimination needs),
//! * [`TensorNetwork`] — conversion of a [`qcircuit::Circuit`] plus an
//!   observable into a closed tensor network for ⟨0|U† D U|0⟩, exploiting
//!   **diagonal gates** (RZ, P, CZ, RZZ, …) by attaching them to existing
//!   indices instead of creating new ones — the optimization highlighted in
//!   Lykov & Alexeev (ISVLSI 2021),
//! * [`ordering`] — contraction-order heuristics (greedy min-degree and
//!   min-fill) over the index interaction graph, plus contraction-width
//!   estimation,
//! * [`contraction`] — bucket (variable) elimination following an ordering,
//! * [`lightcone`] — per-term light-cone reduction for QAOA expectation
//!   values: for ⟨Π Z_q⟩ only the gates in the causal cone of the term's
//!   qubits survive the U†…U cancellation, which is what lets QTensor
//!   simulate very large QAOA circuits term by term,
//! * [`plan`] — an [`ExpectationPlan`] does once what that evaluation
//!   redoes although it depends on the circuit template and the problem
//!   alone (cones, networks, elimination orders, every bucket's index maps),
//!   compiling each contraction into a flat gather-multiply-sum program, so
//!   a training loop only forms gate matrices and runs the programs; plans
//!   built through one [`PlanInterner`] share that structure across
//!   templates that differ only in which rotation sits where.
//!
//! The crate is validated against the dense `statevec` backend in the
//! integration tests and in property-based tests.
//!
//! ```
//! use qcircuit::Circuit;
//! use tensornet::TensorNetwork;
//!
//! // ⟨Z⟩ = −1 after X.
//! let mut c = Circuit::new(1);
//! c.x(0);
//! let z = TensorNetwork::z_product_expectation(&c, &[0]).unwrap();
//! assert!((z + 1.0).abs() < 1e-10);
//! ```

pub mod contraction;
pub mod error;
pub mod lightcone;
pub mod network;
pub mod ordering;
pub mod plan;
pub mod tensor;

pub use error::TensorNetError;
pub use network::TensorNetwork;
pub use ordering::{ContractionOrder, OrderingHeuristic};
pub use plan::{ExpectationPlan, PlanInterner, PlanScratch};
pub use tensor::Tensor;

#[cfg(test)]
mod proptests;
