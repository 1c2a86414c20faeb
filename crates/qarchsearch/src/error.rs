//! Error types for the architecture search.

use serde::{Deserialize, Serialize};
use thiserror::Error;

/// Errors raised by the search package.
///
/// Serializable so terminal errors can be journaled by the durable job
/// store ([`crate::store`]) and survive a server restart.
#[derive(Debug, Error, Clone, PartialEq, Serialize, Deserialize)]
pub enum SearchError {
    /// The gate alphabet is empty.
    #[error("gate alphabet must contain at least one gate")]
    EmptyAlphabet,

    /// No graphs were supplied to the search.
    #[error("the search requires at least one training graph")]
    NoGraphs,

    /// The search configuration is inconsistent.
    #[error("invalid search configuration: {message}")]
    InvalidConfig {
        /// What is wrong.
        message: String,
    },

    /// A candidate evaluation failed.
    #[error("candidate evaluation failed: {message}")]
    Evaluation {
        /// Underlying error description.
        message: String,
    },

    /// A gate (or gate mnemonic) cannot be an alphabet entry. The variant
    /// keeps its old name so journaled failures still deserialize.
    #[error("invalid gate alphabet entry: {message}")]
    InvalidEncoding {
        /// What is wrong.
        message: String,
    },

    /// A session was cancelled before any depth completed (a cancellation
    /// after at least one completed depth drains into a partial
    /// [`crate::search::SearchOutcome`] instead).
    #[error("search cancelled before any depth completed")]
    Cancelled,

    /// The job server's bounded queue is full.
    #[error("job queue is full ({capacity} pending jobs); retry later or raise the capacity")]
    QueueFull {
        /// Configured queue capacity.
        capacity: usize,
    },

    /// A job id is unknown to the job server.
    #[error("unknown job {id}")]
    UnknownJob {
        /// The offending job id.
        id: u64,
    },

    /// The search engine (or a candidate evaluation inside it) panicked.
    /// The worker thread survives; the job is recorded as
    /// [`crate::server::JobState::Failed`] with this message.
    #[error("search panicked: {message}")]
    Panicked {
        /// The panic payload, best-effort stringified.
        message: String,
    },

    /// A job exceeded its [`crate::server::JobSpec::timeout_secs`] deadline
    /// and was cooperatively cancelled.
    #[error("job deadline exceeded after {timeout_secs} seconds")]
    DeadlineExceeded {
        /// The configured per-job timeout.
        timeout_secs: f64,
    },

    /// A transient fault (an injected I/O error, a flaky resource) that a
    /// job with retry budget left will automatically retry with
    /// exponential backoff.
    #[error("transient failure: {message}")]
    Transient {
        /// Underlying error description.
        message: String,
    },

    /// The durable job store could not read or write its journal.
    #[error("job store error: {message}")]
    Store {
        /// Underlying I/O or format error description.
        message: String,
    },

    /// A cluster-level failure: a shard could not be reached, a routed
    /// request failed, or no live shard remains to place a job on.
    #[error("cluster error: {message}")]
    Cluster {
        /// Underlying network or protocol error description.
        message: String,
    },

    /// The cluster coordinator's admission controller rejected a
    /// submission (rate limit, tenant quota, or bounded-wait
    /// backpressure). Unlike [`SearchError::QueueFull`] this carries a
    /// retry-after hint, so well-behaved clients back off instead of
    /// hammering the edge.
    #[error("admission denied ({reason}); retry after {retry_after_ms} ms")]
    AdmissionDenied {
        /// Which admission gate rejected the submission.
        reason: String,
        /// Suggested client back-off before resubmitting.
        retry_after_ms: u64,
    },
}

impl SearchError {
    /// Whether the error is transient — eligible for automatic retry under
    /// the job server's bounded exponential backoff.
    pub fn is_transient(&self) -> bool {
        matches!(self, SearchError::Transient { .. })
    }
}

impl From<qaoa::QaoaError> for SearchError {
    fn from(e: qaoa::QaoaError) -> Self {
        SearchError::Evaluation {
            message: e.to_string(),
        }
    }
}
