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
//! * The batch executor's single-qubit span kernel and phase pass are built
//!   twice, portable and with AVX2, from one body; a CPU that has AVX2 runs
//!   the AVX2 build. Neither build enables `fma`, so both round alike and
//!   give the same bits (see the [`batch`] module).
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

pub use batch::BatchStateVector;
pub use compile::CompiledProgram;
pub use error::SimulatorError;
pub use state::StateVector;

/// Preferred number of batch elements to simulate per sweep for an `n`-qubit
/// register, capped at `batch`.
///
/// The structure-of-arrays buffer of [`BatchStateVector`] holds
/// `2^n · tile` amplitudes; keeping that under a few MiB preserves the
/// cache residency the scalar kernels enjoy across a program's ~dozens of
/// passes, while still amortizing each angle-table lookup over several
/// states. The ~4 MiB budget gives tile 4 at n = 16 and larger tiles for
/// smaller registers; the floor of 2 keeps the lookup amortization even when
/// one state already fills the budget. Tiling never affects results — batch
/// elements are arithmetically independent — so this is purely a performance
/// choice.
pub fn preferred_batch_tile(num_qubits: usize, batch: usize) -> usize {
    if batch <= 1 {
        return batch.max(1);
    }
    let state_bytes = (1usize << num_qubits) * std::mem::size_of::<num_complex::Complex64>();
    let budget = 4usize << 20;
    (budget / state_bytes.max(1)).clamp(2, 32).min(batch)
}

#[cfg(test)]
mod proptests;
