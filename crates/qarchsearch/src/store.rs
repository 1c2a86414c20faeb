//! The durable job store behind `qas serve --state-dir`: a write-ahead,
//! crc-checked JSON-lines journal that makes the serve tier crash-safe.
//!
//! ## Journal format
//!
//! The store owns one append-only file, `journal.log`, inside the state
//! directory. Each line is one [`JournalRecord`]:
//!
//! ```text
//! crc32hex SP json NL
//! ```
//!
//! — eight lowercase hex digits of the CRC-32 (IEEE) of the JSON bytes, a
//! single space, the record as compact JSON, a newline. The checksum is
//! computed over the exact bytes written, so replay never has to
//! re-serialize (JSON key order or float formatting can never invalidate a
//! record).
//!
//! ## Crash semantics
//!
//! * **Torn tail**: a crash mid-append leaves a final line without its
//!   newline, or with a truncated/corrupt body. Replay detects the
//!   mismatch, drops the tail, and reports it in
//!   [`ReplayedState::dropped_records`] — a torn tail is data loss of at
//!   most the record being written, never a refusal to start.
//! * **Mid-file corruption** is indistinguishable from a torn tail to the
//!   checksum; replay conservatively stops at the first bad line (records
//!   after it are dropped and counted).
//! * **Version skew**: a line whose checksum holds but whose JSON is not a
//!   record this build decodes (another version wrote it, e.g. naming a
//!   variant since deleted) is not a torn tail. Replay, and so
//!   [`JobStore::open`], fails with an error naming the line, the record's
//!   tag and the decode error, and leaves the file untouched for an
//!   operator or the build that wrote it.
//! * **Recovery**: [`JobStore::open`] replays the journal into a
//!   [`ReplayedState`]; the [`crate::server::JobServer`] re-enqueues
//!   incomplete jobs, resuming each from its last
//!   [`SearchCheckpoint`] — bit-identical to an uninterrupted run, because
//!   checkpoints capture everything later depths depend on.
//! * **Compaction**: the journal grows by one line per state transition
//!   and one (large) line per checkpoint. [`JobStore::compact`] rewrites
//!   it to the minimal record set for the live jobs via a temp-file +
//!   atomic rename, and runs automatically on open when the journal has
//!   accumulated garbage and on clean shutdown.
//!
//! One server per state directory: the store takes no lock file, and two
//! writers would interleave their appends.

use crate::error::SearchError;
use crate::fault::{site, FaultContext};
use crate::search::SearchOutcome;
use crate::server::{JobSpec, JobState};
use crate::session::SearchCheckpoint;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Journal file name inside the state directory.
const JOURNAL_FILE: &str = "journal.log";
/// Compaction scratch file (atomically renamed over the journal).
const JOURNAL_TMP: &str = "journal.tmp";

/// Configuration of the durable store (the `--state-dir` side of
/// [`crate::server::ServerOptions`]).
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the journal (created if missing).
    pub dir: PathBuf,
    /// Journal a [`SearchCheckpoint`] every N completed depths (1 = every
    /// depth — the finest-grained, safest cadence; larger values trade
    /// recovery granularity for journal volume).
    pub checkpoint_every: usize,
}

impl StoreConfig {
    /// A store in `dir`, checkpointing at every depth boundary.
    pub fn new(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            checkpoint_every: 1,
        }
    }

    /// Set the checkpoint cadence (clamped to ≥ 1).
    pub fn checkpoint_every(mut self, every: usize) -> StoreConfig {
        self.checkpoint_every = every.max(1);
        self
    }
}

/// One durable record. Appended write-ahead: the journal reflects every
/// externally visible job transition before (or atomically with) the
/// in-memory registry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum JournalRecord {
    /// A job was accepted into the queue.
    Submitted {
        /// The job id.
        id: u64,
        /// The full job spec (config, graphs, scheduling metadata).
        spec: JobSpec,
    },
    /// A job changed lifecycle state.
    State {
        /// The job id.
        id: u64,
        /// The new state.
        state: JobState,
        /// Retry attempts consumed so far.
        retries: u32,
    },
    /// Rung-granular progress (observability + kill-point coverage; cheap).
    Progress {
        /// The job id.
        id: u64,
        /// Depth of the completed rung.
        depth: usize,
        /// Rung index within the depth.
        rung: usize,
    },
    /// A resumable snapshot at a depth boundary.
    Checkpoint {
        /// The job id.
        id: u64,
        /// The snapshot (self-contained: config + graphs + state).
        checkpoint: SearchCheckpoint,
    },
    /// A terminal result. Exactly one of `outcome`/`error` is set (the
    /// vendored serde has no `Result` impl, so the two arms are spelled
    /// out); cancelled jobs may carry a partial outcome in `outcome`.
    Finished {
        /// The job id.
        id: u64,
        /// The successful (possibly partial) outcome.
        outcome: Option<SearchOutcome>,
        /// The terminal error.
        error: Option<SearchError>,
    },
    /// A terminal job's record was dropped (`forget` or retention).
    Forgotten {
        /// The job id.
        id: u64,
    },
    /// An entry of the content-addressed result cache was stored: the
    /// canonical spec rendering (the full-equality guard for hash
    /// collisions) plus the finished outcome it maps to. Re-putting a key
    /// replaces the previous entry.
    CachePut {
        /// FNV-1a 64 hash of the canonical spec rendering.
        key: u64,
        /// The canonical `(config, graphs)` JSON the key was hashed from.
        canonical: String,
        /// The completed outcome served on future hits.
        outcome: SearchOutcome,
    },
    /// A result-cache entry was dropped (LRU eviction).
    CacheEvict {
        /// The evicted entry's key hash.
        key: u64,
    },
    /// The server stopped cleanly: queued + suspended jobs were
    /// checkpointed and will resume on restart.
    CleanShutdown,
}

/// One job folded out of the journal by replay.
#[derive(Debug, Clone)]
pub struct ReplayedJob {
    /// The job id.
    pub id: u64,
    /// The job spec as submitted.
    pub spec: JobSpec,
    /// Last journaled state (terminal states are authoritative; a job left
    /// `Running` by a crash is re-enqueued by the server).
    pub state: JobState,
    /// Retry attempts consumed before the crash.
    pub retries: u32,
    /// The most recent checkpoint, if any was journaled.
    pub checkpoint: Option<SearchCheckpoint>,
    /// The terminal result, if the job finished.
    pub result: Option<Result<SearchOutcome, SearchError>>,
}

impl ReplayedJob {
    /// Whether the job finished (result journaled) before the restart.
    pub fn is_terminal(&self) -> bool {
        self.result.is_some()
    }
}

/// One result-cache entry folded out of the journal by replay.
#[derive(Debug, Clone)]
pub struct ReplayedCacheEntry {
    /// FNV-1a 64 hash of the canonical spec rendering.
    pub key: u64,
    /// The canonical `(config, graphs)` JSON (collision guard).
    pub canonical: String,
    /// The cached outcome.
    pub outcome: SearchOutcome,
}

/// Everything replay recovered from the journal.
#[derive(Debug, Default)]
pub struct ReplayedState {
    /// Jobs by id (ascending — BTreeMap keeps submission order).
    pub jobs: BTreeMap<u64, ReplayedJob>,
    /// Live result-cache entries in least-recently-written-first order
    /// (a re-put moves its entry to the back).
    pub cache: Vec<ReplayedCacheEntry>,
    /// The next job id to hand out (max seen + 1).
    pub next_id: u64,
    /// Whether the journal ends in a [`JournalRecord::CleanShutdown`].
    pub clean_shutdown: bool,
    /// Valid records replayed.
    pub records: usize,
    /// Trailing records dropped for checksum/format errors (torn tail).
    pub dropped_records: usize,
}

/// The open journal: an append handle plus bookkeeping for compaction.
pub struct JobStore {
    dir: PathBuf,
    file: File,
    /// Records appended since the journal was last compacted (replayed
    /// records count on open).
    records: usize,
    faults: Option<FaultContext>,
}

impl JobStore {
    /// Open (or create) the journal under `dir` and replay it.
    pub fn open(dir: impl Into<PathBuf>) -> Result<(JobStore, ReplayedState), SearchError> {
        Self::open_with_faults(dir, None)
    }

    /// [`JobStore::open`] with an armed fault context (tests).
    pub fn open_with_faults(
        dir: impl Into<PathBuf>,
        faults: Option<FaultContext>,
    ) -> Result<(JobStore, ReplayedState), SearchError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| store_err("create state dir", &dir, &e))?;
        let path = dir.join(JOURNAL_FILE);
        let replayed = replay(&path)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| store_err("open journal", &path, &e))?;
        let mut store = JobStore {
            dir,
            file,
            records: replayed.records + replayed.dropped_records,
            faults,
        };
        // A torn tail means the file holds bytes replay will not trust;
        // compact immediately so the journal is wholly valid again.
        if replayed.dropped_records > 0 || store.is_garbage_heavy(&replayed) {
            store.compact(&replayed, replayed.clean_shutdown)?;
        }
        Ok((store, replayed))
    }

    /// The journal path (diagnostics, tests).
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }

    /// Append one record: checksum + JSON + newline in a single write, then
    /// flush. Durability-critical records (submissions, results, shutdown)
    /// are additionally fsynced. Checkpoints are deliberately *not*: losing
    /// one to a crash only means replay resumes from an earlier checkpoint
    /// — still bit-identical — and skipping the fsync keeps the journaling
    /// overhead of a running search negligible.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), SearchError> {
        if let Some(ctx) = &self.faults {
            ctx.trip(site::STORE_APPEND)?;
        }
        self.file
            .write_all(encode_line(record)?.as_bytes())
            .map_err(|e| store_err("append journal", &self.journal_path(), &e))?;
        self.records += 1;
        let durable = matches!(
            record,
            JournalRecord::Submitted { .. }
                | JournalRecord::Finished { .. }
                | JournalRecord::CleanShutdown
        );
        if durable {
            self.file
                .sync_data()
                .map_err(|e| store_err("sync journal", &self.journal_path(), &e))?;
        }
        Ok(())
    }

    /// Re-read the journal from disk (the authoritative picture, including
    /// records appended by this handle).
    pub fn replay_current(&mut self) -> Result<ReplayedState, SearchError> {
        self.file
            .sync_data()
            .map_err(|e| store_err("sync journal", &self.journal_path(), &e))?;
        replay(&self.journal_path())
    }

    /// Rewrite the journal to the minimal records reproducing `state`:
    /// per job (ascending id) a `Submitted`, a `State`, the last
    /// `Checkpoint` (if any), and the `Finished` (if terminal) — plus a
    /// trailing `CleanShutdown` when `clean` is set. Atomic via temp file +
    /// rename.
    pub fn compact(&mut self, state: &ReplayedState, clean: bool) -> Result<(), SearchError> {
        let tmp_path = self.dir.join(JOURNAL_TMP);
        let mut records = Vec::new();
        for job in state.jobs.values() {
            records.push(JournalRecord::Submitted {
                id: job.id,
                spec: job.spec.clone(),
            });
            records.push(JournalRecord::State {
                id: job.id,
                state: job.state.clone(),
                retries: job.retries,
            });
            if let Some(checkpoint) = &job.checkpoint {
                records.push(JournalRecord::Checkpoint {
                    id: job.id,
                    checkpoint: checkpoint.clone(),
                });
            }
            if let Some(result) = &job.result {
                let (outcome, error) = match result {
                    Ok(outcome) => (Some(outcome.clone()), None),
                    Err(error) => (None, Some(error.clone())),
                };
                records.push(JournalRecord::Finished {
                    id: job.id,
                    outcome,
                    error,
                });
            }
        }
        for entry in &state.cache {
            records.push(JournalRecord::CachePut {
                key: entry.key,
                canonical: entry.canonical.clone(),
                outcome: entry.outcome.clone(),
            });
        }
        if clean {
            records.push(JournalRecord::CleanShutdown);
        }

        let mut tmp = File::create(&tmp_path).map_err(|e| store_err("create", &tmp_path, &e))?;
        for record in &records {
            tmp.write_all(encode_line(record)?.as_bytes())
                .map_err(|e| store_err("write", &tmp_path, &e))?;
        }
        tmp.sync_data()
            .map_err(|e| store_err("sync", &tmp_path, &e))?;
        drop(tmp);
        let path = self.journal_path();
        std::fs::rename(&tmp_path, &path).map_err(|e| store_err("rename over", &path, &e))?;
        // The append handle pointed at the replaced inode; reopen.
        self.file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| store_err("reopen journal", &path, &e))?;
        self.records = records.len();
        Ok(())
    }

    /// Heuristic: the journal carries substantially more records than a
    /// compact rewrite would.
    fn is_garbage_heavy(&self, state: &ReplayedState) -> bool {
        // Compact form: ≤ 4 records per live job, one per live cache entry
        // (+1 shutdown marker).
        let compact = state.jobs.len() * 4 + state.cache.len() + 1;
        self.records > compact * 2 + 64
    }
}

impl std::fmt::Debug for JobStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobStore")
            .field("dir", &self.dir)
            .field("records", &self.records)
            .finish()
    }
}

/// The journal path inside a state directory — what the cluster
/// coordinator hands to [`replay`] to read a dead shard's journal
/// post-mortem (read-only; the dead shard's files are never mutated, so
/// a restarted shard recovers its own state untouched).
pub fn journal_path_in(dir: &Path) -> PathBuf {
    dir.join(JOURNAL_FILE)
}

/// Replay the journal at `path` (missing file = empty state). A line
/// whose checksum holds but whose record does not decode is an error, not
/// a torn tail (see the module's crash semantics).
pub fn replay(path: &Path) -> Result<ReplayedState, SearchError> {
    let mut state = ReplayedState {
        next_id: 1,
        ..ReplayedState::default()
    };
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)
                .map_err(|e| store_err("read journal", path, &e))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(state),
        Err(e) => return Err(store_err("open journal", path, &e)),
    }

    let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    // A well-formed journal ends in a newline, leaving one empty trailing
    // split; anything else is a torn final line.
    let torn_unterminated = match lines.last() {
        Some([]) => {
            lines.pop();
            false
        }
        Some(_) => {
            lines.pop();
            true
        }
        None => false,
    };
    let total_lines = lines.len() + usize::from(torn_unterminated);

    for (index, line) in lines.into_iter().enumerate() {
        match decode_line(line) {
            Frame::Record(record) => {
                state.records += 1;
                apply(&mut state, *record);
            }
            // Checksum or format failure: conservatively stop trusting the
            // journal from here on (torn tail / corruption).
            Frame::Bad => break,
            Frame::Foreign { tag, error } => {
                return Err(SearchError::Store {
                    message: format!(
                        "journal {} line {}: this build cannot decode its `{tag}` record \
                         ({error}); the file is left as it is",
                        path.display(),
                        index + 1
                    ),
                });
            }
        }
    }
    state.dropped_records = total_lines - state.records;
    finalize(&mut state);
    Ok(state)
}

/// Frame one record as a journal line: `crc32hex SP json NL`.
fn encode_line(record: &JournalRecord) -> Result<String, SearchError> {
    let json = serde_json::to_string(record).map_err(|e| SearchError::Store {
        message: format!("serialize journal record: {e}"),
    })?;
    Ok(format!("{:08x} {}\n", crc32(json.as_bytes()), json))
}

/// One journal line, decoded.
enum Frame {
    /// A record this build reads (boxed: records dwarf the other variants).
    Record(Box<JournalRecord>),
    /// A checksum or framing failure: a torn tail, or corruption.
    Bad,
    /// A frame whose checksum holds but whose JSON is not a record this
    /// build reads, i.e. one another version wrote. Carries the record's
    /// tag (its first key) and the decode error.
    Foreign { tag: String, error: String },
}

/// Decode one journal line.
fn decode_line(line: &[u8]) -> Frame {
    // "crc32hex SP json" — 8 hex digits, space, at least "{}".
    if line.len() < 10 || line[8] != b' ' {
        return Frame::Bad;
    }
    let json = &line[9..];
    let crc_ok = std::str::from_utf8(&line[..8])
        .ok()
        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
        .is_some_and(|want| crc32(json) == want);
    if !crc_ok {
        return Frame::Bad;
    }
    let Ok(text) = std::str::from_utf8(json) else {
        return Frame::Bad;
    };
    match serde_json::from_str::<JournalRecord>(text) {
        Ok(record) => Frame::Record(Box::new(record)),
        Err(error) => Frame::Foreign {
            tag: record_tag(text),
            error: error.to_string(),
        },
    }
}

/// The tag of a journal record's JSON: its first key (`{"Submitted":…}`),
/// the string of a unit record (`"CleanShutdown"`), or `?`.
fn record_tag(json: &str) -> String {
    match serde_json::from_str::<serde_json::Value>(json) {
        Ok(serde_json::Value::String(unit)) => unit,
        Ok(value) => value
            .as_object()
            .and_then(|entries| entries.iter().next())
            .map_or_else(|| "?".into(), |(key, _)| key.clone()),
        Err(_) => "?".into(),
    }
}

/// Fold one record into the replay state.
fn apply(state: &mut ReplayedState, record: JournalRecord) {
    // Any record after a clean-shutdown marker means the server came back:
    // the journal is live again.
    state.clean_shutdown = false;
    match record {
        JournalRecord::Submitted { id, spec } => {
            state.next_id = state.next_id.max(id + 1);
            state.jobs.insert(
                id,
                ReplayedJob {
                    id,
                    spec,
                    state: JobState::Queued,
                    retries: 0,
                    checkpoint: None,
                    result: None,
                },
            );
        }
        JournalRecord::State {
            id,
            state: job_state,
            retries,
        } => {
            if let Some(job) = state.jobs.get_mut(&id) {
                job.state = job_state;
                job.retries = retries;
            }
        }
        JournalRecord::Progress { .. } => {}
        JournalRecord::Checkpoint { id, checkpoint } => {
            if let Some(job) = state.jobs.get_mut(&id) {
                job.checkpoint = Some(checkpoint);
            }
        }
        JournalRecord::Finished { id, outcome, error } => {
            if let Some(job) = state.jobs.get_mut(&id) {
                job.result = Some(match (outcome, error) {
                    (Some(outcome), _) => Ok(outcome),
                    (None, Some(error)) => Err(error),
                    (None, None) => Err(SearchError::Store {
                        message: "journal Finished record carried neither outcome nor error"
                            .to_string(),
                    }),
                });
            }
        }
        JournalRecord::Forgotten { id } => {
            state.jobs.remove(&id);
        }
        JournalRecord::CachePut {
            key,
            canonical,
            outcome,
        } => {
            state.cache.retain(|entry| entry.key != key);
            state.cache.push(ReplayedCacheEntry {
                key,
                canonical,
                outcome,
            });
        }
        JournalRecord::CacheEvict { key } => {
            state.cache.retain(|entry| entry.key != key);
        }
        JournalRecord::CleanShutdown => {
            state.clean_shutdown = true;
        }
    }
}

/// Reconcile state/result mismatches a crash can leave behind (e.g. the
/// `Finished` record landed but the terminal `State` did not).
fn finalize(state: &mut ReplayedState) {
    for job in state.jobs.values_mut() {
        match &job.result {
            Some(result) if !job.state.is_terminal() => {
                job.state = match result {
                    Ok(_) => JobState::Completed,
                    Err(SearchError::Cancelled) => JobState::Cancelled,
                    Err(SearchError::DeadlineExceeded { .. }) => JobState::TimedOut,
                    Err(SearchError::Panicked { message }) => JobState::Failed {
                        panic: Some(message.clone()),
                    },
                    Err(_) => JobState::Failed { panic: None },
                };
            }
            None if job.state.is_terminal() => {
                // Terminal state without its result record: the crash ate
                // the outcome; treat as incomplete and re-run.
                job.state = JobState::Queued;
            }
            _ => {}
        }
    }
}

fn store_err(what: &str, path: &Path, e: &dyn std::fmt::Display) -> SearchError {
    SearchError::Store {
        message: format!("{what} {}: {e}", path.display()),
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven — implemented here because the
// workspace vendors no checksum crate.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::GateAlphabet;
    use crate::search::SearchConfig;
    use graphs::Graph;
    use qaoa::Backend;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qas-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec() -> JobSpec {
        let config = SearchConfig::builder()
            .alphabet(GateAlphabet::from_mnemonics(&["rx"]).unwrap())
            .max_depth(1)
            .max_gates_per_mixer(1)
            .optimizer_budget(10)
            .no_prune()
            .backend(Backend::StateVector)
            .threads(1)
            .seed(1)
            .build();
        JobSpec::new(config, vec![Graph::cycle(4)])
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn journal_round_trips_submission_and_state() {
        let dir = tmp_dir("roundtrip");
        {
            let (mut store, replayed) = JobStore::open(&dir).unwrap();
            assert!(replayed.jobs.is_empty());
            assert_eq!(replayed.next_id, 1);
            store
                .append(&JournalRecord::Submitted {
                    id: 1,
                    spec: tiny_spec(),
                })
                .unwrap();
            store
                .append(&JournalRecord::State {
                    id: 1,
                    state: JobState::Running,
                    retries: 0,
                })
                .unwrap();
            store
                .append(&JournalRecord::Progress {
                    id: 1,
                    depth: 1,
                    rung: 0,
                })
                .unwrap();
        }
        let (_store, replayed) = JobStore::open(&dir).unwrap();
        assert_eq!(replayed.jobs.len(), 1);
        assert_eq!(replayed.next_id, 2);
        let job = &replayed.jobs[&1];
        // A job left Running by a crash is incomplete, not terminal.
        assert_eq!(job.state, JobState::Running);
        assert!(!job.is_terminal());
        assert_eq!(replayed.dropped_records, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_journal_naming_the_sequential_tensor_network_backend_replays_whole() {
        // Specs journaled while `Backend::TensorNetworkSequential` existed
        // carry its tag. Such a record must replay, as the tensor-network
        // backend, rather than end replay as a torn tail.
        let dir = tmp_dir("legacy-backend");
        std::fs::create_dir_all(&dir).unwrap();
        let mut spec = tiny_spec();
        spec.config.evaluator.backend = Backend::TensorNetwork;
        let current = serde_json::to_string(&JournalRecord::Submitted { id: 1, spec }).unwrap();
        let tag = "\"backend\":\"TensorNetwork\"";
        assert_eq!(current.matches(tag).count(), 1, "{current}");
        let legacy = current.replace(tag, "\"backend\":\"TensorNetworkSequential\"");
        let later = [
            JournalRecord::State {
                id: 1,
                state: JobState::Running,
                retries: 0,
            },
            JournalRecord::Submitted {
                id: 2,
                spec: tiny_spec(),
            },
            JournalRecord::Progress {
                id: 1,
                depth: 1,
                rung: 0,
            },
        ];
        let mut journal = String::new();
        for json in
            std::iter::once(legacy).chain(later.iter().map(|r| serde_json::to_string(r).unwrap()))
        {
            journal += &format!("{:08x} {json}\n", crc32(json.as_bytes()));
        }
        std::fs::write(journal_path_in(&dir), journal).unwrap();

        let (_store, replayed) = JobStore::open(&dir).unwrap();
        assert_eq!((replayed.records, replayed.dropped_records), (4, 0));
        let job = &replayed.jobs[&1];
        assert_eq!(job.spec.config.evaluator.backend, Backend::TensorNetwork);
        assert_eq!(job.state, JobState::Running);
        assert_eq!(
            replayed.jobs[&2].spec.config.evaluator.backend,
            Backend::StateVector
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let dir = tmp_dir("torn");
        let (mut store, _) = JobStore::open(&dir).unwrap();
        store
            .append(&JournalRecord::Submitted {
                id: 1,
                spec: tiny_spec(),
            })
            .unwrap();
        store
            .append(&JournalRecord::State {
                id: 1,
                state: JobState::Running,
                retries: 0,
            })
            .unwrap();
        let path = store.journal_path();
        drop(store);
        // Tear the last record: cut the file mid-line.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let (_store, replayed) = JobStore::open(&dir).unwrap();
        assert_eq!(replayed.records, 1);
        assert_eq!(replayed.dropped_records, 1);
        assert_eq!(replayed.jobs[&1].state, JobState::Queued);

        // Open compacted the torn journal: a fresh replay is fully valid.
        let (_store2, again) = JobStore::open(&dir).unwrap();
        assert_eq!(again.dropped_records, 0);
        assert_eq!(again.jobs.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_valid_frame_this_build_cannot_decode_refuses_the_open() {
        // A record another version wrote, checksummed correctly, in the
        // middle of the journal: dropping it and everything after it would
        // lose job 3, so the open must fail and leave the file as it was.
        let dir = tmp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        let current = serde_json::to_string(&JournalRecord::Submitted {
            id: 2,
            spec: tiny_spec(),
        })
        .unwrap();
        let tag = "\"strategy\":\"Exhaustive\"";
        assert_eq!(current.matches(tag).count(), 1, "{current}");
        let foreign = current.replace(tag, "\"strategy\":\"Annealing\"");
        let records = [
            serde_json::to_string(&JournalRecord::Submitted {
                id: 1,
                spec: tiny_spec(),
            })
            .unwrap(),
            foreign,
            serde_json::to_string(&JournalRecord::Submitted {
                id: 3,
                spec: tiny_spec(),
            })
            .unwrap(),
        ];
        let journal: String = records
            .iter()
            .map(|json| format!("{:08x} {json}\n", crc32(json.as_bytes())))
            .collect();
        let path = journal_path_in(&dir);
        std::fs::write(&path, &journal).unwrap();

        let error = JobStore::open(&dir).unwrap_err().to_string();
        for named in ["line 2", "`Submitted`", "Annealing"] {
            assert!(error.contains(named), "{named}: {error}");
        }
        assert!(replay(&path).is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), journal);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checksum_stops_replay_at_the_bad_line() {
        let dir = tmp_dir("corrupt");
        let (mut store, _) = JobStore::open(&dir).unwrap();
        for id in 1..=3 {
            store
                .append(&JournalRecord::Submitted {
                    id,
                    spec: tiny_spec(),
                })
                .unwrap();
        }
        let path = store.journal_path();
        drop(store);
        // Flip a byte inside the second record's JSON body.
        let mut bytes = std::fs::read(&path).unwrap();
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(
                bytes
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b == b'\n')
                    .map(|(i, _)| i + 1),
            )
            .collect();
        let target = line_starts[1] + 20;
        bytes[target] = bytes[target].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();

        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.records, 1);
        assert_eq!(replayed.dropped_records, 2);
        assert_eq!(replayed.jobs.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finished_record_without_state_is_reconciled_terminal() {
        let dir = tmp_dir("reconcile");
        let (mut store, _) = JobStore::open(&dir).unwrap();
        store
            .append(&JournalRecord::Submitted {
                id: 1,
                spec: tiny_spec(),
            })
            .unwrap();
        store
            .append(&JournalRecord::Finished {
                id: 1,
                outcome: None,
                error: Some(SearchError::Cancelled),
            })
            .unwrap();
        let replayed = store.replay_current().unwrap();
        assert_eq!(replayed.jobs[&1].state, JobState::Cancelled);
        assert!(replayed.jobs[&1].is_terminal());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_state_and_shrinks_the_journal() {
        let dir = tmp_dir("compact");
        let (mut store, _) = JobStore::open(&dir).unwrap();
        store
            .append(&JournalRecord::Submitted {
                id: 1,
                spec: tiny_spec(),
            })
            .unwrap();
        for _ in 0..50 {
            store
                .append(&JournalRecord::Progress {
                    id: 1,
                    depth: 1,
                    rung: 0,
                })
                .unwrap();
        }
        store.append(&JournalRecord::CleanShutdown).unwrap();
        let before = std::fs::metadata(store.journal_path()).unwrap().len();
        let replayed = store.replay_current().unwrap();
        assert!(replayed.clean_shutdown);
        store.compact(&replayed, true).unwrap();
        let after = std::fs::metadata(store.journal_path()).unwrap().len();
        assert!(
            after < before,
            "compaction must shrink: {before} -> {after}"
        );

        let again = store.replay_current().unwrap();
        assert!(again.clean_shutdown);
        assert_eq!(again.jobs.len(), 1);
        assert_eq!(again.jobs[&1].state, JobState::Queued);
        // The store keeps appending fine after the rename.
        store.append(&JournalRecord::Forgotten { id: 1 }).unwrap();
        let last = store.replay_current().unwrap();
        assert!(last.jobs.is_empty());
        assert!(!last.clean_shutdown, "appends after shutdown mark it live");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forgotten_jobs_do_not_resurrect() {
        let dir = tmp_dir("forget");
        let (mut store, _) = JobStore::open(&dir).unwrap();
        store
            .append(&JournalRecord::Submitted {
                id: 1,
                spec: tiny_spec(),
            })
            .unwrap();
        store
            .append(&JournalRecord::Finished {
                id: 1,
                outcome: None,
                error: Some(SearchError::Cancelled),
            })
            .unwrap();
        store.append(&JournalRecord::Forgotten { id: 1 }).unwrap();
        let replayed = store.replay_current().unwrap();
        assert!(replayed.jobs.is_empty());
        assert_eq!(replayed.next_id, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_records_replay_and_survive_compaction() {
        use crate::search::{BestCandidate, SearchOutcome};
        let dir = tmp_dir("cache-records");
        let (mut store, _) = JobStore::open(&dir).unwrap();
        let outcome = SearchOutcome {
            problem: "maxcut".to_string(),
            best: BestCandidate {
                gates: Vec::new(),
                mixer_label: "('rx')".to_string(),
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
        };
        for key in [7u64, 9] {
            store
                .append(&JournalRecord::CachePut {
                    key,
                    canonical: format!("spec-{key}"),
                    outcome: outcome.clone(),
                })
                .unwrap();
        }
        // Re-putting key 7 moves it to the back; evicting 9 drops it.
        store
            .append(&JournalRecord::CachePut {
                key: 7,
                canonical: "spec-7".to_string(),
                outcome: outcome.clone(),
            })
            .unwrap();
        store.append(&JournalRecord::CacheEvict { key: 9 }).unwrap();
        let replayed = store.replay_current().unwrap();
        assert_eq!(replayed.cache.len(), 1);
        assert_eq!(replayed.cache[0].key, 7);
        assert_eq!(replayed.cache[0].canonical, "spec-7");

        store.compact(&replayed, true).unwrap();
        let again = store.replay_current().unwrap();
        assert_eq!(again.cache.len(), 1);
        assert_eq!(again.cache[0].key, 7);
        assert!(again.clean_shutdown);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "fault injection is armed only in debug builds"
    )]
    fn injected_store_fault_surfaces_as_store_or_transient_error() {
        use crate::fault::{FaultInjector, FaultPlan};
        let dir = tmp_dir("fault");
        let injector = FaultInjector::new(FaultPlan::io_error_at(site::STORE_APPEND, 1, "boom"));
        let ctx = FaultContext::new(injector, None);
        let (mut store, _) = JobStore::open_with_faults(&dir, Some(ctx)).unwrap();
        let err = store
            .append(&JournalRecord::CleanShutdown)
            .expect_err("first append is armed to fail");
        assert!(err.is_transient());
        // The next append goes through — the fault was a one-shot.
        store.append(&JournalRecord::CleanShutdown).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
