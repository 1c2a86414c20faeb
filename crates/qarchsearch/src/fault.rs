//! Deterministic fault injection for chaos-testing the serve tier.
//!
//! Fault tolerance that is only exercised by real crashes is fault
//! tolerance that is never exercised. This module provides a small,
//! reproducible harness: a [`FaultPlan`] names **sites** (fixed string
//! labels compiled into the server, store, session, and pipeline layers)
//! and arms each with an action — panic, synthetic I/O error, or delay —
//! on a specific hit count. Because sites fire at deterministic points of
//! the (seeded, thread-count-independent) search loop, a plan like *"panic
//! at `pipeline.rung` on hit 3 of job 2"* reproduces the same crash every
//! run, which is what lets `tests/fault_recovery.rs` sweep kill points
//! exhaustively and assert bit-identical recovery.
//!
//! Injection is **armed only in debug builds** (`cfg(debug_assertions)`,
//! i.e. `cargo test`): in release builds [`FaultInjector::fire`] still
//! counts hits (so observability stays identical) but never returns an
//! action, making the harness a guaranteed no-op in production binaries.
//!
//! The injector is never global: it is an [`Arc`] explicitly threaded
//! through [`crate::server::ServerOptions`] into each job's
//! [`FaultContext`], so concurrent tests cannot contaminate each other.

use crate::error::SearchError;
use crate::sync::lock_recover;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// The named injection sites compiled into the serve tier.
///
/// Each constant marks one deterministic point in the job lifecycle; plans
/// refer to sites by these strings.
pub mod site {
    /// Entry of a worker's job execution, before the session starts.
    pub const WORKER_JOB: &str = "worker.job";
    /// The server's event-drain loop, once per observed
    /// [`crate::events::SearchEvent::RungCompleted`].
    pub const WORKER_RUNG: &str = "worker.rung";
    /// The search engine thread, at the start of each depth.
    pub const SESSION_ADVANCE: &str = "session.advance";
    /// The budgeted scheduler, at the top of each successive-halving rung.
    pub const PIPELINE_RUNG: &str = "pipeline.rung";
    /// The durable job store, before appending a journal record.
    pub const STORE_APPEND: &str = "store.append";
    /// The cluster coordinator's submit path, before routing to a shard.
    pub const COORDINATOR_SUBMIT: &str = "coordinator.submit";
    /// The cluster coordinator's migration loop, once per job being moved
    /// off a dead shard.
    pub const COORDINATOR_MIGRATE: &str = "coordinator.migrate";
}

/// What an armed site does when it fires.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Panic with the given message (exercises `catch_unwind` isolation).
    Panic {
        /// The panic payload.
        message: String,
    },
    /// Surface a synthetic transient I/O error
    /// ([`SearchError::Transient`]) — the retry/backoff trigger.
    IoError {
        /// The error description.
        message: String,
    },
    /// Sleep for the given duration (widens race windows for timeout and
    /// cancellation tests).
    Delay {
        /// Sleep duration in milliseconds.
        millis: u64,
    },
}

/// One armed site: where, for whom, on which hit, and what happens.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// The site label (one of the [`site`] constants).
    pub site: String,
    /// Restrict to one job id (`None` fires for any job — and for sites
    /// that run outside a job context).
    pub job: Option<u64>,
    /// Fire on the k-th matching hit (1-based); `0` fires on every hit.
    pub hit: u64,
    /// The action taken when the spec fires.
    pub action: FaultAction,
}

/// A serializable set of armed faults — the chaos-test input format.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The armed faults; each keeps an independent hit counter.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no sites armed).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan with a single armed fault.
    pub fn single(spec: FaultSpec) -> FaultPlan {
        FaultPlan { faults: vec![spec] }
    }

    /// Arm `site` to panic on its `hit`-th hit (any job).
    pub fn panic_at(site: &str, hit: u64, message: &str) -> FaultPlan {
        FaultPlan::single(FaultSpec {
            site: site.to_string(),
            job: None,
            hit,
            action: FaultAction::Panic {
                message: message.to_string(),
            },
        })
    }

    /// Arm `site` to raise a transient I/O error on its `hit`-th hit.
    pub fn io_error_at(site: &str, hit: u64, message: &str) -> FaultPlan {
        FaultPlan::single(FaultSpec {
            site: site.to_string(),
            job: None,
            hit,
            action: FaultAction::IoError {
                message: message.to_string(),
            },
        })
    }

    /// Arm another fault on top of an existing plan.
    pub fn and(mut self, spec: FaultSpec) -> FaultPlan {
        self.faults.push(spec);
        self
    }

    /// Restrict every armed fault in the plan to one job id.
    pub fn for_job(mut self, job: u64) -> FaultPlan {
        for f in &mut self.faults {
            f.job = Some(job);
        }
        self
    }
}

/// The runtime state of a [`FaultPlan`]: per-spec hit counters behind a
/// mutex, shared via [`Arc`] between the server, store, and every job's
/// engine thread.
pub struct FaultInjector {
    plan: FaultPlan,
    /// Hit counters, one per `plan.faults` entry (counting matching hits).
    counters: Mutex<Vec<u64>>,
}

impl FaultInjector {
    /// Arm a plan. The returned injector is shared by reference.
    pub fn new(plan: FaultPlan) -> Arc<FaultInjector> {
        let counters = Mutex::new(vec![0; plan.faults.len()]);
        Arc::new(FaultInjector { plan, counters })
    }

    /// Record a hit at `site` (scoped to `job` when given) and return the
    /// action of the first spec that fires, if any.
    ///
    /// Counting always happens; in release builds
    /// (`cfg(not(debug_assertions))`) the returned action is forced to
    /// `None`, so armed plans are inert outside tests.
    pub fn fire(&self, site: &str, job: Option<u64>) -> Option<FaultAction> {
        let mut counters = lock_recover(&self.counters);
        let mut fired = None;
        for (spec, count) in self.plan.faults.iter().zip(counters.iter_mut()) {
            if spec.site != site {
                continue;
            }
            if let (Some(want), Some(have)) = (spec.job, job) {
                if want != have {
                    continue;
                }
            } else if spec.job.is_some() {
                // Job-scoped spec, but this hit has no job context.
                continue;
            }
            *count += 1;
            if fired.is_none() && (spec.hit == 0 || spec.hit == *count) {
                fired = Some(spec.action.clone());
            }
        }
        if cfg!(debug_assertions) {
            fired
        } else {
            None
        }
    }

    /// Total matching hits recorded at `site` across all specs watching it
    /// (test observability: did the sweep actually cover the site?).
    pub fn hits(&self, site: &str) -> u64 {
        let counters = lock_recover(&self.counters);
        self.plan
            .faults
            .iter()
            .zip(counters.iter())
            .filter(|(spec, _)| spec.site == site)
            .map(|(_, count)| *count)
            .sum()
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("faults", &self.plan.faults.len())
            .finish()
    }
}

/// A job-scoped view of an injector: what the server threads through the
/// session and pipeline layers so sites can fire without knowing job ids.
#[derive(Clone, Debug)]
pub struct FaultContext {
    injector: Arc<FaultInjector>,
    job: Option<u64>,
}

impl FaultContext {
    /// A context firing on behalf of `job` (or site-global when `None`).
    pub fn new(injector: Arc<FaultInjector>, job: Option<u64>) -> FaultContext {
        FaultContext { injector, job }
    }

    /// Fire `site` under this context's job scope.
    pub fn fire(&self, site: &str) -> Option<FaultAction> {
        self.injector.fire(site, self.job)
    }

    /// Fire `site` and **apply** the action in place: panics panic, delays
    /// sleep, and I/O errors come back as `Err(SearchError::Transient)`.
    pub fn trip(&self, site: &str) -> Result<(), SearchError> {
        match self.fire(site) {
            None => Ok(()),
            Some(FaultAction::Panic { message }) => {
                panic!("injected fault at {site}: {message}")
            }
            Some(FaultAction::Delay { millis }) => {
                std::thread::sleep(std::time::Duration::from_millis(millis));
                Ok(())
            }
            Some(FaultAction::IoError { message }) => Err(SearchError::Transient {
                message: format!("injected fault at {site}: {message}"),
            }),
        }
    }
}

/// [`FaultContext::trip`] lifted over the optional contexts the engine and
/// scheduler carry (`None` — the common case — is free).
pub(crate) fn trip(faults: Option<&FaultContext>, site: &str) -> Result<(), SearchError> {
    match faults {
        Some(ctx) => ctx.trip(site),
        None => Ok(()),
    }
}

/// Best-effort extraction of a panic payload into a message (panics carry
/// `&str` or `String` payloads in practice).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_round_trips_through_serde() {
        let plan = FaultPlan::panic_at(site::PIPELINE_RUNG, 3, "boom").and(FaultSpec {
            site: site::STORE_APPEND.to_string(),
            job: Some(7),
            hit: 0,
            action: FaultAction::IoError {
                message: "disk full".to_string(),
            },
        });
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "fault injection is armed only in debug builds"
    )]
    fn fires_on_the_exact_hit_only() {
        let injector = FaultInjector::new(FaultPlan::io_error_at("s", 2, "x"));
        assert!(injector.fire("s", None).is_none());
        assert!(matches!(
            injector.fire("s", None),
            Some(FaultAction::IoError { .. })
        ));
        assert!(injector.fire("s", None).is_none());
        assert_eq!(injector.hits("s"), 3);
        assert_eq!(injector.hits("other"), 0);
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "fault injection is armed only in debug builds"
    )]
    fn hit_zero_fires_every_time() {
        let injector = FaultInjector::new(FaultPlan::io_error_at("s", 0, "x"));
        for _ in 0..3 {
            assert!(injector.fire("s", None).is_some());
        }
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "fault injection is armed only in debug builds"
    )]
    fn job_scoping_filters_hits() {
        let plan = FaultPlan::io_error_at("s", 1, "x").for_job(2);
        let injector = FaultInjector::new(plan);
        // Wrong job and no-job hits neither count nor fire.
        assert!(injector.fire("s", Some(1)).is_none());
        assert!(injector.fire("s", None).is_none());
        assert_eq!(injector.hits("s"), 0);
        assert!(injector.fire("s", Some(2)).is_some());
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "fault injection is armed only in debug builds"
    )]
    fn trip_maps_io_error_to_transient() {
        let injector = FaultInjector::new(FaultPlan::io_error_at("s", 1, "flaky"));
        let ctx = FaultContext::new(injector, None);
        let err = ctx.trip("s").unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert!(ctx.trip("s").is_ok());
    }

    #[test]
    #[should_panic(expected = "injected fault at s: boom")]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "fault injection is armed only in debug builds"
    )]
    fn trip_applies_panics() {
        let injector = FaultInjector::new(FaultPlan::panic_at("s", 1, "boom"));
        FaultContext::new(injector, None).trip("s").unwrap();
    }
}
