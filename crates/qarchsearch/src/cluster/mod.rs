//! The distributed serve tier: a shard coordinator with checkpoint
//! migration and admission control — the `qas coordinator` engine.
//!
//! A cluster is N independent `qas serve --port` processes (**shards**)
//! fronted by one [`Coordinator`]. The coordinator speaks the same
//! JSON-lines protocol on both sides: clients submit to it exactly as
//! they would to a single shard, and it proxies
//! `submit/status/events/cancel/forget/stats` down to the shard that owns
//! each job, mapping coordinator-scoped job ids to shard-local ids. It
//! learns each job's completion from its shard's one completion watcher,
//! blocked in that shard's `wait_any` on every job still in flight there,
//! which answers `wait` and, for finished jobs, `result`.
//! Three properties make the tier more than a proxy:
//!
//! * **Content-keyed routing** ([`shard`], via
//!   [`crate::cache::rendezvous_route`]): submissions are placed by
//!   rendezvous-hashing their [`crate::cache::spec_cache_key`], so
//!   identical searches always land on the same shard and cluster-wide
//!   dedupe/coalescing falls out of each shard's single-node result
//!   cache. When a shard dies only its keys move; the rest of the
//!   cluster's cache affinity is undisturbed.
//! * **Checkpoint migration** ([`coordinator`]): shards are
//!   health-checked by heartbeat. When one is declared dead, the
//!   coordinator replays its journal read-only
//!   ([`crate::store::replay`]), adopts any journaled terminal results,
//!   and re-submits incomplete jobs to a surviving shard from their last
//!   durable checkpoint (`{"cmd":"submit_spec"}` →
//!   [`crate::server::JobServer::submit_with_checkpoint`]). Because
//!   searches are deterministic and checkpoints resume bit-identically,
//!   a migrated job's report equals an undisturbed single-node run under
//!   [`crate::report::SearchReport::without_timings`] — pinned by the
//!   kill-a-shard chaos tests in `tests/cluster.rs`.
//! * **Admission control** ([`admission`]): a token-bucket rate limit,
//!   per-tenant in-flight quotas (keyed by the optional `tenant` field
//!   on submit), and bounded-wait backpressure that retries a full
//!   cluster queue for up to `max_wait_ms` before rejecting with a
//!   retry-after hint ([`crate::SearchError::AdmissionDenied`]) — the
//!   cluster edge never surfaces a bare fail-fast
//!   [`crate::SearchError::QueueFull`].
//!
//! The coordinator holds no durable state of its own: every job's
//! durable truth lives in its shard's journal, which is also why a shard
//! that restarts *before* being declared dead simply resumes its own
//! jobs under the same shard-local ids and the coordinator's mapping
//! stays valid.

pub mod admission;
pub mod coordinator;
pub mod shard;

pub use admission::{AdmissionConfig, AdmissionControl, AdmissionStats};
pub use coordinator::{ClusterConfig, ClusterStats, Coordinator, ShardSnapshot, Submission};
pub use shard::{ShardClient, ShardEndpoint};
