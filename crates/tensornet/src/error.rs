//! Error types for the tensor-network backend.

use thiserror::Error;

/// Errors raised while building or contracting tensor networks.
#[derive(Debug, Error, Clone, PartialEq)]
pub enum TensorNetError {
    /// The circuit contains unbound parameters.
    #[error("cannot build a tensor network from a circuit with unbound parameter '{name}'")]
    UnboundParameter {
        /// Name of the unbound parameter.
        name: String,
    },

    /// Tensor construction was given inconsistent data.
    #[error(
        "tensor with {indices} binary indices requires {expected} entries but {got} were given"
    )]
    InvalidTensorData {
        /// Number of indices.
        indices: usize,
        /// Expected entry count (2^indices).
        expected: usize,
        /// Supplied entry count.
        got: usize,
    },

    /// An index appears more than once in a single tensor.
    #[error("index {index} appears more than once in one tensor")]
    DuplicateIndex {
        /// The repeated index id.
        index: usize,
    },

    /// The requested contraction would exceed the width limit.
    #[error("contraction width {width} exceeds the limit of {limit} indices")]
    WidthLimitExceeded {
        /// Width of the offending intermediate tensor.
        width: usize,
        /// Configured limit.
        limit: usize,
    },

    /// A circuit template is too large for the 16-bit tables of an
    /// expectation plan.
    #[error("an expectation plan cannot index {count} {what}")]
    PlanTooLarge {
        /// What overflowed.
        what: &'static str,
        /// How many there are.
        count: usize,
    },

    /// An expectation plan was evaluated with the wrong number of parameter
    /// values, or against a problem it was not built for.
    #[error(
        "expectation plan takes {params} parameters over {terms} cost terms, \
         got {got_params} over {got_terms}"
    )]
    PlanMismatch {
        /// Parameter values the plan takes.
        params: usize,
        /// Cost terms the plan was built for.
        terms: usize,
        /// Parameter values given.
        got_params: usize,
        /// Cost terms of the problem given.
        got_terms: usize,
    },

    /// The network still has open indices where a scalar was expected.
    #[error("expected a closed network but {count} open indices remain")]
    OpenIndicesRemain {
        /// Number of dangling indices.
        count: usize,
    },
}
