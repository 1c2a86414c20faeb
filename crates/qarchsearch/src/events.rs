//! The typed event stream emitted by a running search session.
//!
//! Every [`crate::session::SearchDriver`] run narrates its progress as a
//! sequence of [`SearchEvent`]s delivered over an mpsc channel (see
//! [`crate::session::SearchHandle::events`]). The stream is **deterministic
//! for a fixed seed**: events are emitted from the driver thread at
//! deterministic points of the depth/rung loop (never from inside the
//! rung workers), and carry no wall-clock timestamps — two runs of
//! the same configuration produce byte-identical streams regardless of the
//! worker thread count. Timings live on [`crate::search::SearchOutcome`]
//! and the progress snapshots instead.
//!
//! The same stream is what the [`crate::server::JobServer`] records per job
//! and what `qas serve` replays to protocol clients, so mid-run telemetry
//! (the raw material for surrogate predictors and kill-doomed-runs
//! schedulers) is available without waiting for the final outcome.
//!
//! **Durability semantics.** The in-memory event log is *not* journaled by
//! the durable store ([`crate::store`]): after a crash and restart, a
//! recovered job's log restarts from its resume point (a fresh `Started`
//! with `start_depth` past the checkpointed depths), and a job recovered
//! already-terminal carries its journaled result but an empty log. The
//! server may also append events the engine never emitted: a synthetic
//! [`SearchEvent::Failed`] closes the log when a job panics or exhausts
//! its transient-failure retries, and a retried job concatenates the
//! streams of its attempts (each attempt ends in a terminal event).

use crate::search::ExecutionMode;
use serde::{Deserialize, Serialize};

/// One step of a search session's lifecycle.
///
/// Serialized (externally tagged, like every enum in the suite) into the
/// `qas serve` events stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SearchEvent {
    /// The session started executing.
    Started {
        /// Problem family being trained.
        problem: String,
        /// Serial or parallel execution.
        mode: ExecutionMode,
        /// Deepest QAOA depth that will be searched.
        max_depth: usize,
        /// First depth this run evaluates (> 1 when resumed from a
        /// checkpoint).
        start_depth: usize,
        /// Number of training graphs.
        num_graphs: usize,
    },
    /// A depth's candidate cohort was proposed and evaluation is beginning.
    DepthStarted {
        /// The QAOA depth `p`.
        depth: usize,
        /// Candidates proposed (before the predictor gate).
        proposed: usize,
    },
    /// The predictor gate rejected part of the cohort before evaluation.
    CandidatesGated {
        /// The QAOA depth `p`.
        depth: usize,
        /// Candidates admitted into the first rung.
        admitted: usize,
        /// Candidates rejected without any evaluation.
        gated_out: usize,
    },
    /// One per-graph training session finished a rung advance (built from
    /// the snapshot its [`qaoa::TrainingSession`] advance returned, reported
    /// in session order once every session of the rung has advanced).
    SessionAdvanced {
        /// The QAOA depth `p`.
        depth: usize,
        /// Candidate index within the admitted cohort (proposal order).
        candidate: usize,
        /// Graph index within the training set.
        graph: usize,
        /// Cumulative objective evaluations this session has consumed.
        evaluations: usize,
        /// Best energy the session has found so far.
        energy: f64,
    },
    /// A successive-halving rung completed.
    RungCompleted {
        /// The QAOA depth `p`.
        depth: usize,
        /// Rung index (0-based).
        rung: usize,
        /// Cumulative per-session budget target of this rung.
        target_budget: usize,
        /// Candidates that entered the rung.
        entrants: usize,
        /// Candidates promoted out of the rung.
        survivors: usize,
        /// Objective evaluations spent in this rung across all sessions.
        evaluations: usize,
    },
    /// A candidate was pruned by successive halving.
    CandidatePruned {
        /// The QAOA depth `p`.
        depth: usize,
        /// Candidate index within the admitted cohort (proposal order).
        candidate: usize,
        /// The candidate's mixer label.
        mixer_label: String,
        /// Rung (0-based) after which it was cut.
        rung: usize,
    },
    /// A candidate finished evaluation (at full budget, or with its partial
    /// result if pruned).
    CandidateEvaluated {
        /// The QAOA depth `p`.
        depth: usize,
        /// Candidate index within the admitted cohort (proposal order).
        candidate: usize,
        /// The candidate's mixer label.
        mixer_label: String,
        /// Mean trained energy over the graphs.
        mean_energy: f64,
        /// Objective evaluations actually spent on this candidate.
        total_evaluations: usize,
        /// Rung the candidate was pruned at, if any.
        pruned_at_rung: Option<usize>,
    },
    /// A depth finished; its results are now checkpointable.
    DepthCompleted {
        /// The QAOA depth `p`.
        depth: usize,
        /// Best mean energy seen at this depth.
        best_energy: f64,
        /// Candidates evaluated at this depth.
        evaluated: usize,
        /// Candidates pruned before the full budget.
        pruned: usize,
    },
    /// The job was served from the server's content-addressed result cache:
    /// no engine ran. Emitted only by the [`crate::server::JobServer`]
    /// (never by a session engine), immediately followed by a synthetic
    /// [`SearchEvent::Finished`] built from the cached outcome.
    CacheHit {
        /// Hex rendering of the cache key (the canonical-spec hash).
        key: String,
    },
    /// The cluster coordinator moved this job to another shard after its
    /// original shard died. Emitted only by
    /// [`crate::cluster::Coordinator`] (never by a session engine or a
    /// single-node server), prepended to the proxied stream ahead of the
    /// new shard's own events.
    Migrated {
        /// Address of the shard the job was running on when it died.
        from: String,
        /// Address of the surviving shard the job was re-submitted to.
        to: String,
        /// Whether the new shard resumed from a checkpoint recovered out
        /// of the dead shard's journal (`false` = re-ran from scratch;
        /// both paths are bit-identical to an uninterrupted run).
        resumed: bool,
    },
    /// The run stopped at a cancellation point; completed depths drain into
    /// a valid partial outcome.
    Cancelled {
        /// Depths fully evaluated before the cancellation took effect.
        completed_depths: usize,
    },
    /// The run finished every depth.
    Finished {
        /// Winning mixer label.
        best_mixer: String,
        /// Depth the winner was found at.
        best_depth: usize,
        /// Winning mean energy.
        best_energy: f64,
        /// Total candidates evaluated.
        candidates_evaluated: usize,
    },
    /// The run hit an error and stopped.
    Failed {
        /// The error description ([`crate::SearchError`] rendering).
        message: String,
    },
}

impl SearchEvent {
    /// Short lifecycle tag, convenient for logs and protocol filtering.
    pub fn kind(&self) -> &'static str {
        match self {
            SearchEvent::Started { .. } => "started",
            SearchEvent::DepthStarted { .. } => "depth_started",
            SearchEvent::CandidatesGated { .. } => "candidates_gated",
            SearchEvent::SessionAdvanced { .. } => "session_advanced",
            SearchEvent::RungCompleted { .. } => "rung_completed",
            SearchEvent::CandidatePruned { .. } => "candidate_pruned",
            SearchEvent::CandidateEvaluated { .. } => "candidate_evaluated",
            SearchEvent::DepthCompleted { .. } => "depth_completed",
            SearchEvent::CacheHit { .. } => "cache_hit",
            SearchEvent::Migrated { .. } => "migrated",
            SearchEvent::Cancelled { .. } => "cancelled",
            SearchEvent::Finished { .. } => "finished",
            SearchEvent::Failed { .. } => "failed",
        }
    }

    /// Whether this event terminates the stream.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            SearchEvent::Cancelled { .. }
                | SearchEvent::Finished { .. }
                | SearchEvent::Failed { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_round_trip() {
        let events = vec![
            SearchEvent::Started {
                problem: "maxcut".into(),
                mode: ExecutionMode::Parallel,
                max_depth: 2,
                start_depth: 1,
                num_graphs: 2,
            },
            SearchEvent::RungCompleted {
                depth: 1,
                rung: 0,
                target_budget: 10,
                entrants: 6,
                survivors: 3,
                evaluations: 66,
            },
            SearchEvent::CandidateEvaluated {
                depth: 1,
                candidate: 0,
                mixer_label: "('rx')".into(),
                mean_energy: 4.25,
                total_evaluations: 40,
                pruned_at_rung: None,
            },
            SearchEvent::Finished {
                best_mixer: "('rx')".into(),
                best_depth: 1,
                best_energy: 4.25,
                candidates_evaluated: 6,
            },
        ];
        for event in events {
            let json = serde_json::to_string(&event).unwrap();
            let back: SearchEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, event);
            assert!(!event.kind().is_empty());
        }
    }

    #[test]
    fn terminal_events_are_flagged() {
        assert!(SearchEvent::Cancelled {
            completed_depths: 0
        }
        .is_terminal());
        assert!(SearchEvent::Finished {
            best_mixer: String::new(),
            best_depth: 1,
            best_energy: 0.0,
            candidates_evaluated: 0,
        }
        .is_terminal());
        assert!(!SearchEvent::DepthStarted {
            depth: 1,
            proposed: 4
        }
        .is_terminal());
    }
}
