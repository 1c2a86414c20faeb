//! The content-addressed result cache behind `qas serve --cache-dir`:
//! never compute the same search twice.
//!
//! Searches are deterministic — bit-identical across thread counts,
//! resume, and crash recovery — so a finished [`SearchOutcome`] is a pure
//! function of the job's `(SearchConfig, graphs)`: seed, problem family,
//! backend, and budget all live inside the config. The serve path
//! therefore keys completed outcomes by a canonical JSON rendering of
//! exactly those two fields ([`spec_cache_key`]); scheduling metadata
//! (name, priority, deadline, retry budget) never changes the result and
//! is excluded from the key.
//!
//! Keys are FNV-1a 64 hashes of the canonical rendering. Every lookup
//! re-compares the stored canonical string, so a hash collision degrades
//! to a miss — never a wrong result (the same guard discipline as the
//! evaluator memo in [`crate::evaluator`]).
//!
//! With a directory configured ([`CacheConfig::dir`]) the cache doubles as
//! a durable tier: inserts and evictions are journaled through the same
//! crc32-framed WAL as the job store ([`crate::store`]), so hits survive
//! restarts. A crash mid-`CachePut` tears at most the record being
//! written; replay drops the torn tail whole, so a recovered cache never
//! serves a partial outcome. Journal append failures degrade the cache to
//! memory-only with a warning — caching is an optimization and must never
//! take the serving path down.

use crate::error::SearchError;
use crate::search::SearchOutcome;
use crate::server::JobSpec;
use crate::store::{JobStore, JournalRecord};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// The content-addressed identity of a job's search: a stable hash plus
/// the canonical rendering it was computed from (kept as the
/// full-equality guard on lookup).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecKey {
    /// FNV-1a 64 hash of [`SpecKey::canonical`].
    pub hash: u64,
    /// Canonical `{"config":…,"graphs":…}` JSON of the spec's
    /// result-determining fields.
    pub canonical: String,
}

impl SpecKey {
    /// The key as 16 lowercase hex digits (protocol/event rendering).
    pub fn hex(&self) -> String {
        format!("{:016x}", self.hash)
    }
}

/// Compute the content-addressed cache key of a job spec.
///
/// Two specs map to the same key iff their `config` and `graphs`
/// serialize identically — the exact precondition for their outcomes
/// being bit-identical. Serialization is the crate's own vendored
/// `serde_json` (deterministic field order), the same rendering the
/// journal trusts for replay.
pub fn spec_cache_key(spec: &JobSpec) -> Result<SpecKey, SearchError> {
    let config = serde_json::to_string(&spec.config).map_err(|e| SearchError::Store {
        message: format!("serialize spec config for cache key: {e}"),
    })?;
    let graphs = serde_json::to_string(&spec.graphs).map_err(|e| SearchError::Store {
        message: format!("serialize spec graphs for cache key: {e}"),
    })?;
    let canonical = format!("{{\"config\":{config},\"graphs\":{graphs}}}");
    let hash = fnv1a64(canonical.as_bytes());
    Ok(SpecKey { hash, canonical })
}

/// FNV-1a 64 over `bytes` — tiny, stable across platforms and Rust
/// versions (unlike `DefaultHasher`), which the durable tier requires:
/// journaled keys must still match after a toolchain upgrade.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Rendezvous (highest-random-weight) routing of a content key over a
/// candidate shard set: `argmax_s fnv1a64(key ‖ s)`, ties broken toward
/// the smaller shard id.
///
/// This is how [`crate::cluster::Coordinator`] places submissions:
/// identical specs (same [`SpecKey::hash`]) always land on the same
/// shard, so cluster-wide dedupe and coalescing fall out of each shard's
/// single-node [`ResultCache`]. Rendezvous hashing is stable under
/// membership change — when a shard dies, only the keys it owned move
/// (each to its second-highest choice); every other key keeps its shard,
/// so a failure never scatters the cluster's cache affinity.
pub fn rendezvous_route(key: u64, shards: &[u64]) -> Option<u64> {
    shards.iter().copied().max_by_key(|&shard| {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&key.to_le_bytes());
        bytes[8..].copy_from_slice(&shard.to_le_bytes());
        (fnv1a64(&bytes), std::cmp::Reverse(shard))
    })
}

/// Configuration of the serve-path caching tier
/// ([`crate::server::ServerOptions::cache`]).
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Maximum completed outcomes retained (LRU beyond this).
    pub capacity: usize,
    /// Journal the cache under this directory so hits survive restarts
    /// (`None` = in-memory only). Must not be the job store's state dir —
    /// each journal has exactly one writer.
    pub dir: Option<PathBuf>,
    /// Bound on the server-scoped shared energy-evaluator memo
    /// ([`crate::evaluator::EnergyCache`]) that distinct-but-overlapping
    /// jobs reuse classical reference state through.
    pub evaluator_capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 256,
            dir: None,
            evaluator_capacity: 64,
        }
    }
}

impl CacheConfig {
    /// An in-memory cache with the given result capacity.
    pub fn with_capacity(capacity: usize) -> CacheConfig {
        CacheConfig {
            capacity,
            ..CacheConfig::default()
        }
    }

    /// Make the cache durable under `dir`.
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> CacheConfig {
        self.dir = Some(dir.into());
        self
    }
}

/// Point-in-time counters of the caching tier (surfaced by the `stats`
/// protocol request and [`crate::server::JobServer::stats`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Result-cache entries currently held.
    pub entries: usize,
    /// Result-cache capacity.
    pub capacity: usize,
    /// Submissions answered instantly from the result cache.
    pub hits: u64,
    /// Submissions that had to execute (no cached or in-flight twin).
    pub misses: u64,
    /// Submissions subscribed to an in-flight execution.
    pub coalesced: u64,
    /// Outcomes inserted into the result cache.
    pub insertions: u64,
    /// Entries dropped by LRU eviction.
    pub evictions: u64,
    /// Whether the cache journals to disk.
    pub durable: bool,
}

/// A recency map keyed by a 64-bit hash: every touch stamps its entry
/// with a tick, and inserting beyond the optional capacity evicts the
/// least recently touched entries. The result cache and the evaluator memo
/// ([`crate::evaluator::EnergyCache`]) both keep their entries in one.
#[derive(Debug)]
pub(crate) struct Lru<V> {
    /// `None` = unbounded.
    capacity: Option<usize>,
    /// Monotonic clock, bumped per touch.
    tick: u64,
    /// Key → (tick of the last touch, value).
    entries: HashMap<u64, (u64, V)>,
}

impl<V> Lru<V> {
    pub(crate) fn new(capacity: Option<usize>) -> Lru<V> {
        Lru {
            capacity,
            tick: 0,
            entries: HashMap::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// The value under `key`, touched, if `accept` (the caller's collision
    /// guard) takes it. One hash probe, no allocation.
    pub(crate) fn get(&mut self, key: u64, accept: impl FnOnce(&V) -> bool) -> Option<&V> {
        let (touched, value) = self.entries.get_mut(&key)?;
        if !accept(value) {
            return None;
        }
        self.tick += 1;
        *touched = self.tick;
        Some(value)
    }

    /// Store `value` under `key` (replacing any entry there) as the most
    /// recently touched, then evict beyond capacity. Returns the evicted
    /// keys, least recently touched first.
    pub(crate) fn insert(&mut self, key: u64, value: V) -> Vec<u64> {
        self.tick += 1;
        self.entries.insert(key, (self.tick, value));
        let mut evicted = Vec::new();
        while self.entries.len() > self.capacity.unwrap_or(usize::MAX) {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (touched, _))| *touched)
                .map(|(key, _)| *key)
                .expect("an over-capacity map is not empty");
            self.entries.remove(&oldest);
            evicted.push(oldest);
        }
        evicted
    }
}

struct CacheEntry {
    canonical: String,
    outcome: Arc<SearchOutcome>,
}

/// The in-memory LRU over completed outcomes, optionally backed by a
/// durable journal. Not internally synchronized — the server wraps it in
/// its own mutex.
pub struct ResultCache {
    entries: Lru<CacheEntry>,
    hits: u64,
    misses: u64,
    coalesced: u64,
    insertions: u64,
    evictions: u64,
    store: Option<JobStore>,
}

impl ResultCache {
    /// Open the cache: replay the journal when a directory is configured
    /// (most-recently-written entries win when over capacity). Returns the
    /// cache and the number of entries recovered from disk.
    pub fn open(config: &CacheConfig) -> Result<(ResultCache, usize), SearchError> {
        let mut cache = ResultCache {
            entries: Lru::new(Some(config.capacity.max(1))),
            hits: 0,
            misses: 0,
            coalesced: 0,
            insertions: 0,
            evictions: 0,
            store: None,
        };
        if let Some(dir) = &config.dir {
            let (store, replayed) = JobStore::open(dir)?;
            cache.store = store.into();
            // Replay order is least-recently-written first; folding in
            // order drops the oldest entries when the capacity shrank
            // across restarts.
            for entry in replayed.cache {
                let outcome = Arc::new(entry.outcome);
                cache.put(entry.key, entry.canonical, outcome);
            }
        }
        let recovered = cache.entries.len();
        Ok((cache, recovered))
    }

    /// Look up a completed outcome. Counts a hit and refreshes recency on
    /// success; a hash collision with a different canonical spec is a miss
    /// (the caller decides whether that miss coalesces or executes, so it
    /// is not counted here — see [`ResultCache::note_miss`]).
    pub fn lookup(&mut self, key: &SpecKey) -> Option<Arc<SearchOutcome>> {
        let outcome = self
            .entries
            .get(key.hash, |entry| entry.canonical == key.canonical)
            .map(|entry| Arc::clone(&entry.outcome))?;
        self.hits += 1;
        Some(outcome)
    }

    /// Count a submission that proceeds to execute.
    pub fn note_miss(&mut self) {
        self.misses += 1;
    }

    /// Count a submission that attached to an in-flight execution.
    pub fn note_coalesced(&mut self) {
        self.coalesced += 1;
    }

    /// Store a completed outcome, journaling it when durable and evicting
    /// LRU entries beyond capacity.
    pub fn insert(&mut self, key: &SpecKey, outcome: Arc<SearchOutcome>) {
        self.journal(&JournalRecord::CachePut {
            key: key.hash,
            canonical: key.canonical.clone(),
            outcome: (*outcome).clone(),
        });
        self.insertions += 1;
        self.put(key.hash, key.canonical.clone(), outcome);
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.entries.len(),
            capacity: self
                .entries
                .capacity()
                .expect("the result cache is bounded"),
            hits: self.hits,
            misses: self.misses,
            coalesced: self.coalesced,
            insertions: self.insertions,
            evictions: self.evictions,
            durable: self.store.is_some(),
        }
    }

    /// Hold `outcome` in memory, counting and journaling what it evicts.
    fn put(&mut self, key: u64, canonical: String, outcome: Arc<SearchOutcome>) {
        for evicted in self.entries.insert(key, CacheEntry { canonical, outcome }) {
            self.evictions += 1;
            self.journal(&JournalRecord::CacheEvict { key: evicted });
        }
    }

    fn journal(&mut self, record: &JournalRecord) {
        if let Some(store) = &mut self.store {
            if let Err(e) = store.append(record) {
                eprintln!("[qas-serve] cache journal append failed (entry kept in memory): {e}");
            }
        }
    }
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("entries", &self.entries.len())
            .field("capacity", &self.entries.capacity())
            .field("durable", &self.store.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::GateAlphabet;
    use crate::search::{BestCandidate, SearchConfig};
    use graphs::Graph;
    use qaoa::Backend;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qas-cache-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(seed: u64) -> JobSpec {
        let config = SearchConfig::builder()
            .alphabet(GateAlphabet::from_mnemonics(&["rx"]).unwrap())
            .max_depth(1)
            .max_gates_per_mixer(1)
            .optimizer_budget(10)
            .no_prune()
            .backend(Backend::StateVector)
            .threads(1)
            .seed(seed)
            .build();
        JobSpec::new(config, vec![Graph::cycle(4)])
    }

    fn outcome(label: &str) -> Arc<SearchOutcome> {
        Arc::new(SearchOutcome {
            problem: "maxcut".to_string(),
            best: BestCandidate {
                gates: Vec::new(),
                mixer_label: label.to_string(),
                depth: 1,
                energy: 0.0,
                approx_ratio: 0.0,
            },
            depth_results: Vec::new(),
            total_elapsed_seconds: 0.0,
            num_candidates_evaluated: 0,
            total_optimizer_evaluations: 0,
            full_budget_evaluations: 0,
            parallel_threads: None,
        })
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Offset basis for the empty input, then the published vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn rendezvous_is_deterministic_and_total() {
        assert_eq!(rendezvous_route(42, &[]), None);
        assert_eq!(rendezvous_route(42, &[7]), Some(7));
        let shards = [0u64, 1, 2, 3];
        let mut owners = [0usize; 4];
        for key in 0..512u64 {
            let owner = rendezvous_route(key, &shards).unwrap();
            assert_eq!(rendezvous_route(key, &shards), Some(owner));
            owners[owner as usize] += 1;
        }
        // Every shard owns a share of the key space.
        assert!(owners.iter().all(|&n| n > 0), "owners: {owners:?}");
    }

    #[test]
    fn rendezvous_only_moves_the_dead_shards_keys() {
        let full = [0u64, 1, 2];
        let survivors = [0u64, 2];
        for key in 0..512u64 {
            let before = rendezvous_route(key, &full).unwrap();
            let after = rendezvous_route(key, &survivors).unwrap();
            if before != 1 {
                // Keys owned by a surviving shard never move on failure.
                assert_eq!(before, after, "key {key} moved off a live shard");
            } else {
                assert!(survivors.contains(&after));
            }
        }
    }

    #[test]
    fn key_ignores_scheduling_metadata_but_not_the_seed() {
        let base = spec_cache_key(&spec(1)).unwrap();
        let renamed = spec_cache_key(
            &spec(1)
                .name("other")
                .priority(9)
                .timeout_secs(5.0)
                .max_retries(3),
        )
        .unwrap();
        assert_eq!(base, renamed, "scheduling metadata must not change the key");
        let reseeded = spec_cache_key(&spec(2)).unwrap();
        assert_ne!(base.hash, reseeded.hash, "the seed is part of the content");
        let regraphed = spec_cache_key(&JobSpec {
            graphs: vec![Graph::cycle(5)],
            ..spec(1)
        })
        .unwrap();
        assert_ne!(base.hash, regraphed.hash, "graphs are part of the content");
    }

    #[test]
    fn lookup_guards_against_hash_collisions() {
        let (mut cache, _) = ResultCache::open(&CacheConfig::with_capacity(4)).unwrap();
        let key = spec_cache_key(&spec(1)).unwrap();
        cache.insert(&key, outcome("a"));
        assert!(cache.lookup(&key).is_some());
        // A forged key with the same hash but different canonical bytes
        // (what a collision would look like) must miss.
        let forged = SpecKey {
            hash: key.hash,
            canonical: "not-the-same-spec".to_string(),
        };
        assert!(cache.lookup(&forged).is_none());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let (mut cache, _) = ResultCache::open(&CacheConfig::with_capacity(2)).unwrap();
        let k1 = spec_cache_key(&spec(1)).unwrap();
        let k2 = spec_cache_key(&spec(2)).unwrap();
        let k3 = spec_cache_key(&spec(3)).unwrap();
        cache.insert(&k1, outcome("1"));
        cache.insert(&k2, outcome("2"));
        // Touch k1 so k2 is the LRU entry when k3 arrives.
        assert!(cache.lookup(&k1).is_some());
        cache.insert(&k3, outcome("3"));
        assert!(cache.lookup(&k1).is_some());
        assert!(cache.lookup(&k2).is_none(), "LRU entry must be evicted");
        assert!(cache.lookup(&k3).is_some());
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn lru_touches_only_accepted_entries_and_returns_evictions_oldest_first() {
        let mut lru = Lru::new(Some(2));
        assert!(lru.insert(1, "a").is_empty());
        assert!(lru.insert(2, "b").is_empty());
        // A rejected lookup (a hash collision) leaves key 1 the oldest.
        assert!(lru.get(1, |_| false).is_none());
        assert_eq!(lru.insert(3, "c"), vec![1]);
        assert_eq!(lru.get(2, |_| true), Some(&"b"));
        assert_eq!(lru.insert(4, "d"), vec![3]);
        let mut unbounded = Lru::new(None);
        for key in 0..100 {
            assert!(unbounded.insert(key, ()).is_empty());
        }
        assert_eq!(unbounded.len(), 100);
    }

    #[test]
    fn durable_cache_survives_reopen() {
        let dir = tmp_dir("durable");
        let config = CacheConfig::with_capacity(4).durable(&dir);
        let key = spec_cache_key(&spec(7)).unwrap();
        {
            let (mut cache, recovered) = ResultCache::open(&config).unwrap();
            assert_eq!(recovered, 0);
            cache.insert(&key, outcome("persisted"));
        }
        let (mut cache, recovered) = ResultCache::open(&config).unwrap();
        assert_eq!(recovered, 1);
        let hit = cache.lookup(&key).expect("entry recovered from journal");
        assert_eq!(hit.best.mixer_label, "persisted");
        assert!(cache.stats().durable);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
