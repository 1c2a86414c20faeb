//! # qcircuit — quantum circuit IR and gate library
//!
//! This crate is the "Qiskit substitute" of the QArchSearch reproduction: a
//! small, dependency-light intermediate representation for parameterized
//! quantum circuits. The QArchSearch **QBuilder** module turns encoded circuit
//! descriptions into [`Circuit`] values, which are then executed by either the
//! dense state-vector backend (`statevec`) or the tensor-network backend
//! (`tensornet`).
//!
//! ## Design
//!
//! * [`Gate`] enumerates the gate set used by the paper: single-qubit Clifford
//!   and rotation gates (`H`, `X`, `Y`, `Z`, `S`, `T`, `RX`, `RY`, `RZ`, phase
//!   `P`) plus the two-qubit entanglers required by the QAOA cost layer
//!   (`CX`, `CZ`, `RZZ`, `SWAP`).
//! * Rotation angles are [`Parameter`] values: either a bound constant or a
//!   named free parameter with an optional multiplier (so the searched mixers
//!   can share one `beta` across all qubits exactly as in Fig. 6 of the
//!   paper, `RX(2β)`/`RY(2β)`).
//! * [`Circuit`] is an ordered list of [`Instruction`]s with convenience
//!   constructors, composition, parameter binding, unitary/matrix helpers for
//!   small gate counts, and an ASCII drawer used to reproduce Fig. 6.
//!
//! ## Example
//!
//! ```
//! use qcircuit::{Circuit, Gate, Parameter};
//!
//! let mut c = Circuit::new(3);
//! c.h(0).h(1).h(2);
//! c.push(Gate::RZZ, &[0, 1], Parameter::free("gamma", 1.0));
//! c.push(Gate::RX, &[0], Parameter::free("beta", 2.0));
//! assert_eq!(c.num_qubits(), 3);
//! assert_eq!(c.free_parameters(), vec!["beta".to_string(), "gamma".to_string()]);
//! let bound = c.bind(&[("gamma", 0.3), ("beta", 0.7)]).unwrap();
//! assert!(bound.free_parameters().is_empty());
//! ```

pub mod circuit;
pub mod draw;
pub mod error;
pub mod gate;
pub mod matrix;
pub mod parameter;

pub use circuit::{Circuit, Instruction};
pub use draw::draw_ascii;
pub use error::CircuitError;
pub use gate::Gate;
pub use matrix::{c64, GateMatrix};
pub use parameter::Parameter;

#[cfg(test)]
mod proptests;
