//! The distributed serve tier: a shard coordinator with checkpoint
//! migration and admission control — the `qas coordinator` engine.
//!
//! A cluster is N independent `qas serve --port` processes (**shards**)
//! fronted by one [`Coordinator`]: a [`crate::server::JobServer`] whose
//! executor is the shard fleet instead of a worker pool. So the cluster
//! speaks the single-node protocol with the single-node state machine —
//! the same admission, registry, `finish`, `wait`, `cancel`, `forget`,
//! retention and envelopes ([`crate::server::JobServer::reply`]), with
//! coordinator-scoped job ids. Only `status` (a job's progress), `events`
//! (its stream) and `stats` (the fleet aggregate) ask the shards; each
//! job's end arrives from its shard's one completion watcher, blocked in
//! that shard's `wait_any` on every job still in flight there. Three
//! properties make the tier more than a proxy:
//!
//! * **Content-keyed routing** ([`shard`], via
//!   [`crate::cache::rendezvous_route`]): submissions are placed by
//!   rendezvous-hashing their [`crate::cache::spec_cache_key`], so
//!   identical searches always land on the same shard and cluster-wide
//!   dedupe/coalescing falls out of each shard's single-node result
//!   cache. When a shard dies only its keys move.
//! * **Checkpoint migration** ([`coordinator`]): shards are
//!   health-checked by heartbeat. When one is declared dead, the
//!   coordinator replays its journal read-only
//!   ([`crate::store::replay`]), adopts any journaled terminal results,
//!   and re-submits incomplete jobs to a surviving shard from their last
//!   durable checkpoint (`{"cmd":"submit_spec"}` →
//!   [`crate::server::JobServer::submit_as`]). Because
//!   searches are deterministic and checkpoints resume bit-identically,
//!   a migrated job's report equals an undisturbed single-node run under
//!   [`crate::report::SearchReport::without_timings`] — pinned by the
//!   kill-a-shard chaos tests in `tests/cluster.rs`.
//! * **Admission control** ([`admission`]): a token-bucket rate limit,
//!   per-tenant in-flight quotas (keyed by the optional `tenant` field
//!   on submit), and bounded-wait backpressure that retries a full
//!   cluster queue for up to `max_wait_ms` before rejecting with a
//!   retry-after hint ([`crate::SearchError::AdmissionDenied`]).
//!
//! The coordinator journals nothing: every job's durable truth lives in
//! its shard's journal, which is also why a shard that restarts *before*
//! being declared dead simply resumes its own jobs under the same
//! shard-local ids and the coordinator's placements stay valid.

pub mod admission;
pub mod coordinator;
pub mod shard;

pub use admission::{AdmissionConfig, AdmissionControl, AdmissionStats};
pub use coordinator::{ClusterConfig, ClusterStats, Coordinator, ShardSnapshot, Submission};
pub use shard::{ShardClient, ShardEndpoint};
