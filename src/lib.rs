//! # QArchSearch suite (facade crate)
//!
//! This crate re-exports the public APIs of every crate in the QArchSearch
//! reproduction workspace so that examples and downstream users can depend on
//! a single crate.
//!
//! The individual crates are:
//!
//! * [`qcircuit`] — quantum circuit IR, gate library, parameter binding and
//!   ASCII circuit drawing (the "QBuilder" substrate).
//! * [`statevec`] — dense state-vector simulator backend.
//! * [`tensornet`] — tensor-network simulator backend (QTensor analog).
//! * [`graphs`] — graph generation (Erdős–Rényi, random regular), Max-Cut,
//!   and the pluggable [`graphs::Problem`] cost-Hamiltonian layer (weighted
//!   Max-Cut, Max Independent Set, Sherrington–Kirkpatrick, number
//!   partitioning, custom diagonal objectives).
//! * [`optim`] — classical optimizers (COBYLA-style, Nelder–Mead, SPSA, …).
//! * [`qaoa`] — QAOA ansatz assembly and energy evaluation.
//! * [`qarchsearch`] — the architecture-search package itself (predictor,
//!   builder, evaluator, the session-oriented `SearchDriver`, and the
//!   multi-job `JobServer` behind `qas serve`).
//!
//! ## Quickstart
//!
//! ```
//! use qarchsearch_suite::prelude::*;
//!
//! // A small Erdős–Rényi instance.
//! let graph = Graph::erdos_renyi(8, 0.5, 42);
//! // Search mixers of up to 2 gates at QAOA depth 1.
//! let config = SearchConfig::builder()
//!     .max_depth(1)
//!     .max_gates_per_mixer(2)
//!     .optimizer_budget(40)
//!     .seed(7)
//!     .build();
//! // `start()` returns a handle with a live event stream, cancellation and
//! // checkpointing; `run()` is the blocking shorthand.
//! let outcome = SearchDriver::new(config).run(&[graph]).unwrap();
//! assert!(outcome.best.energy.is_finite());
//! ```

pub use graphs;
pub use optim;
pub use qaoa;
pub use qarchsearch;
pub use qcircuit;
pub use serde_json;
pub use statevec;
pub use tensornet;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use graphs::{
        ClassicalSolution, CostTerm, Graph, GraphKind, MaxCut, Problem, ProblemKind,
        RatioConvention, SolutionQuality,
    };
    pub use optim::{CobylaOptimizer, NelderMead, OptimizerKind, Resumable, Spsa};
    pub use qaoa::{
        ansatz::QaoaAnsatz,
        energy::{BatchScratch, CompiledEnergy, EnergyEvaluator, PlannedEnergy, TrainingSession},
        mixer::Mixer,
        Backend,
    };
    pub use qarchsearch::{
        alphabet::{GateAlphabet, RotationGate},
        cache::{spec_cache_key, CacheConfig, CacheStats, ResultCache, SpecKey},
        cluster::{
            AdmissionConfig, AdmissionStats, ClusterConfig, ClusterStats, Coordinator,
            ShardEndpoint, Submission,
        },
        error::SearchError,
        evaluator::{EnergyCache, Evaluator},
        events::SearchEvent,
        fault::{FaultAction, FaultInjector, FaultPlan, FaultSpec},
        predictor::RandomPredictor,
        qbuilder::QBuilder,
        search::{ExecutionMode, PipelineConfig, SearchConfig, SearchOutcome},
        server::{
            JobId, JobServer, JobServerConfig, JobSpec, JobState, JobStatus, RecoveryReport,
            ServerOptions, ServerStats,
        },
        session::{SearchCheckpoint, SearchDriver, SearchHandle, SearchProgress, SearchStatus},
        store::{JobStore, StoreConfig},
    };
    pub use qcircuit::{Circuit, Gate, Parameter};
    pub use statevec::StateVector;
    pub use tensornet::TensorNetwork;
}
