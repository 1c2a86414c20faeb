//! # qarchsearch — scalable quantum architecture search for QAOA mixers
//!
//! This crate is the Rust reproduction of the paper's primary contribution:
//! an automated, parallel search over candidate **mixer circuits** for the
//! Max-Cut QAOA, mirroring the three-component architecture of Fig. 1:
//!
//! * [`predictor`] — proposes candidate mixer gate sequences by random
//!   search, the released QArchSearch's proposer (a strong NAS baseline);
//!   [`search::SearchStrategy::Exhaustive`] enumerates them instead. The
//!   module also holds the predictor gate's [`predictor::GateRanker`].
//! * [`qbuilder`] — turns a gate sequence into a concrete parameterized circuit
//!   (the paper's QBuilder emits Qiskit circuits; ours emits
//!   [`qcircuit::Circuit`] values via the [`qaoa`] crate).
//! * [`evaluator`] — trains the candidate ansatz on the Max-Cut objective
//!   (COBYLA, 200 steps by default) and reports the energy. The energy is
//!   not fed back to the proposer. The one learner is the pipeline's
//!   optional predictor gate, whose ranker orders a depth's proposals by the
//!   first-rung energies of earlier depths.
//!
//! [`session::SearchDriver`] wires the three together behind a
//! **session-oriented API** over one per-depth engine, a **budget-aware
//! pipeline** of resumable training sessions.
//! [`search::ExecutionMode::Parallel`] is the two-level scheme of
//! Figs. 2–3 extended with successive-halving pruning, warm starts
//! transferred from the previous depth, an optional learned predictor gate,
//! and each rung's sessions mapped in order over the workers, who take
//! them from one shared FIFO cursor; [`search::ExecutionMode::Serial`] — the paper's Algorithm 1 — is
//! the same engine's full-budget preset, training one session at a time on
//! the engine thread. Started
//! sessions stream typed [`events::SearchEvent`]s, cancel cooperatively,
//! and checkpoint/resume bit-identically; results are deterministic for a
//! fixed seed regardless of the thread count, and
//! `SearchConfig::builder().no_prune()` restores the paper-faithful
//! full-budget behaviour. [`server::JobServer`] multiplexes many concurrent
//! sessions over a bounded priority queue — the engine behind `qas serve`.
//!
//! ```
//! use graphs::Graph;
//! use qarchsearch::search::SearchConfig;
//! use qarchsearch::session::SearchDriver;
//!
//! let graph = Graph::erdos_renyi(6, 0.5, 1);
//! let config = SearchConfig::builder()
//!     .max_depth(1)
//!     .max_gates_per_mixer(1)
//!     .optimizer_budget(30)
//!     .build();
//! let outcome = SearchDriver::new(config).run(&[graph]).unwrap();
//! assert!(outcome.best.energy > 0.0);
//! ```

pub mod alphabet;
pub mod cache;
pub mod cluster;
pub mod constraints;
pub mod error;
pub mod evaluator;
pub mod events;
pub mod fault;
mod pipeline;
pub mod predictor;
pub mod qbuilder;
pub mod report;
pub mod search;
pub mod server;
pub mod session;
pub mod store;
mod sync;

pub use alphabet::{GateAlphabet, MixerClass, RotationGate};
pub use cache::{spec_cache_key, CacheConfig, CacheStats, ResultCache, SpecKey};
pub use cluster::{
    AdmissionConfig, AdmissionControl, AdmissionStats, ClusterConfig, ClusterStats, Coordinator,
    ShardClient, ShardEndpoint, ShardSnapshot, Submission,
};
pub use constraints::{Constraint, ConstraintSet};
pub use error::SearchError;
pub use evaluator::{EnergyCache, Evaluator};
pub use events::SearchEvent;
pub use fault::{FaultAction, FaultContext, FaultInjector, FaultPlan, FaultSpec};
pub use predictor::{BanditState, RandomPredictor};
pub use qbuilder::QBuilder;
pub use search::{ExecutionMode, PipelineConfig, RungStat, SearchConfig, SearchOutcome};
pub use server::{
    JobId, JobServer, JobServerConfig, JobSpec, JobState, JobStatus, RecoveryReport, ServerOptions,
    ServerStats,
};
pub use session::{
    SchedulerCheckpoint, SearchCheckpoint, SearchDriver, SearchHandle, SearchProgress, SearchStatus,
};
pub use store::{JobStore, JournalRecord, ReplayedJob, ReplayedState, StoreConfig};

#[cfg(test)]
mod proptests;
