//! # statevec — dense state-vector simulator
//!
//! A straightforward, exact quantum-circuit simulator that stores all `2^n`
//! complex amplitudes. It plays the role of Qiskit's statevector simulator in
//! the original QArchSearch stack and doubles as the ground-truth oracle that
//! the tensor-network backend (`tensornet`) is validated against.
//!
//! * Qubit `0` is the least-significant bit of the basis-state index.
//! * Single-qubit and two-qubit gate kernels are cache-friendly, bit-test-free
//!   loops. Every kernel and reduction splits its work by fixed blocks of
//!   2¹⁶ amplitudes, spread over the pool's threads (this is the *inner*
//!   level of the paper's two-level parallelization scheme — the outer level
//!   parallelizes over candidate circuits). The blocks do not depend on the
//!   thread count, so neither do the results: a register of up to 16 qubits
//!   is one block and runs inline, and a wider one sums its blocks in the
//!   same order on any pool and any host. Table builds split from 2¹⁴
//!   entries; each entry is computed alone.
//! * The compiled executor's single-qubit span kernel and phase pass are
//!   built twice, portable and with AVX2, from one body; a CPU that has AVX2
//!   runs the AVX2 build. Neither build enables `fma`, so both round alike
//!   and give the same bits (see the [`batch`] module). Each sweep runs one
//!   parameter vector. At targets 0 and 1, where a gate's amplitude pairs
//!   are adjacent or two apart, the span kernel is compiled for that
//!   literal stride.
//! * [`CompiledProgram`] lowers a circuit once into specialized kernels with
//!   parameter slots — fused diagonal cost layers, per-qubit gate chains, a
//!   recognized `|+⟩^{⊗n}` preparation — for allocation-free re-evaluation
//!   inside variational training loops.
//! * Expectation values of diagonal cost operators (the Max-Cut Hamiltonian)
//!   are computed directly from the probability distribution, or from a
//!   cached diagonal via [`expectation::maxcut_diagonal`].
//!
//! ```
//! use qcircuit::Circuit;
//! use statevec::StateVector;
//!
//! let mut c = Circuit::new(2);
//! c.h(0).cx(0, 1);
//! let state = StateVector::from_circuit(&c).unwrap();
//! let probs = state.probabilities();
//! assert!((probs[0b00] - 0.5).abs() < 1e-12);
//! assert!((probs[0b11] - 0.5).abs() < 1e-12);
//! ```

pub mod batch;
pub mod compile;
pub mod error;
pub mod expectation;
pub mod state;

pub use batch::PlaneState;
pub use compile::CompiledProgram;
pub use error::SimulatorError;
pub use state::StateVector;

#[cfg(test)]
mod proptests;
