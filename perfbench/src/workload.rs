//! The five workloads and the inputs they are made of.
//!
//! Every input — graph, search seed, the order of cold and warm
//! operations — is a pure function of `--seed`. The program under test
//! receives only these generated inputs, never the seed itself.

use graphs::Graph;
use qaoa::Backend;
use qarchsearch::search::SearchConfig;
use qarchsearch::server::JobSpec;
use qarchsearch::GateAlphabet;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SearchDeep,
    SearchWide,
    SearchTn,
    ServeDirect,
    ServeCluster,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::SearchDeep,
        Workload::SearchWide,
        Workload::SearchTn,
        Workload::ServeDirect,
        Workload::ServeCluster,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchDeep => "search_deep",
            Workload::SearchWide => "search_wide",
            Workload::SearchTn => "search_tn",
            Workload::ServeDirect => "serve_direct",
            Workload::ServeCluster => "serve_cluster",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The serving tier a `serve_*` workload drives; `None` for the
    /// in-process search workloads.
    pub fn tier(self) -> Option<Tier> {
        match self {
            Workload::ServeDirect => Some(Tier::Direct),
            Workload::ServeCluster => Some(Tier::Cluster),
            _ => None,
        }
    }

    /// How many computing ops per lane (the search loop; each serving
    /// client), counted from the start of the timed region, make up the
    /// quality sample `approx_ratio_mean` averages: half to two thirds of
    /// what the reference box completes in a run, so that every full-length
    /// run holds the whole sample and the metric repeats exactly for a seed
    /// however fast the run went. Both serving workloads share one number:
    /// the same op stream gives them the same jobs and the same mean.
    pub fn quality_ops(self) -> u64 {
        match self {
            Workload::SearchDeep => 16,
            Workload::SearchWide => 48,
            Workload::SearchTn => 6,
            Workload::ServeDirect | Workload::ServeCluster => 16,
        }
    }

    /// The search this workload runs, for one op seed. The serving
    /// workloads run the tiny job: ≈2 ms of simulation, so that protocol,
    /// queue, journal and cache carry the latency.
    pub fn job(self, seed: u64) -> JobParams {
        let tiny = JobParams {
            graphs: 1,
            nodes: 8,
            dataset: Dataset::ErdosRenyi,
            alphabet: "rx,ry",
            kmax: 2,
            pmax: 1,
            budget: 30,
            backend: Backend::StateVector,
            threads: 1,
            gate: None,
            seed,
        };
        match self {
            // A 1 MiB state and six candidates: the time is in the
            // state-vector kernels.
            Workload::SearchDeep => JobParams {
                nodes: 16,
                budget: 60,
                ..tiny
            },
            // A 16 KiB state and thirty candidates per depth on three
            // graphs: evaluator build, compile, optimizer bookkeeping,
            // halving and work stealing carry the weight.
            Workload::SearchWide => JobParams {
                graphs: 3,
                nodes: 10,
                alphabet: "rx,ry,rz,h,p",
                pmax: 2,
                budget: 200,
                threads: 2,
                gate: Some(16),
                ..tiny
            },
            // The paper's backend on the paper's instances: light-cone
            // tensor contraction on 10-node 4-regular graphs; the
            // state-vector kernels idle. One thread: with two, the
            // contraction's nested parallelism made this the workload
            // most exposed to the host's slow spells (16 % run-to-run
            // against 3–5 % for the one-thread `search_deep`).
            Workload::SearchTn => JobParams {
                graphs: 2,
                nodes: 10,
                dataset: Dataset::Regular4,
                budget: 40,
                backend: Backend::TensorNetwork,
                ..tiny
            },
            Workload::ServeDirect | Workload::ServeCluster => tiny,
        }
    }
}

/// Which front door a serving run goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// One `qas serve --port` process.
    Direct,
    /// `qas coordinator --port` over two `qas serve` shards.
    Cluster,
}

impl Tier {
    pub fn other(self) -> Tier {
        match self {
            Tier::Direct => Tier::Cluster,
            Tier::Cluster => Tier::Direct,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    ErdosRenyi,
    Regular4,
}

/// One search, spelled as the `qas search` options the serve protocol's
/// `submit` takes. [`JobParams::config`] and [`JobParams::dataset`] repeat
/// what `qas` builds from those options; the served-report check fails if
/// the two ever drift apart.
#[derive(Debug, Clone, PartialEq)]
pub struct JobParams {
    pub graphs: usize,
    pub nodes: usize,
    pub dataset: Dataset,
    pub alphabet: &'static str,
    pub kmax: usize,
    pub pmax: usize,
    pub budget: usize,
    pub backend: Backend,
    pub threads: usize,
    pub gate: Option<usize>,
    pub seed: u64,
}

impl JobParams {
    pub fn config(&self) -> SearchConfig {
        let names: Vec<&str> = self.alphabet.split(',').collect();
        let alphabet = GateAlphabet::from_mnemonics(&names).expect("workload alphabets are valid");
        let mut builder = SearchConfig::builder()
            .alphabet(alphabet)
            .max_depth(self.pmax)
            .max_gates_per_mixer(self.kmax)
            .optimizer_budget(self.budget)
            .seed(self.seed)
            .backend(self.backend)
            .threads(self.threads)
            .halving(20, 4);
        if let Some(cap) = self.gate {
            builder = builder.predictor_gate(cap);
        }
        builder.build()
    }

    pub fn dataset(&self) -> Vec<Graph> {
        match self.dataset {
            Dataset::ErdosRenyi => {
                graphs::datasets::erdos_renyi_dataset(self.graphs, self.nodes, self.seed)
            }
            Dataset::Regular4 => {
                graphs::datasets::random_regular_dataset(self.graphs, self.nodes, 4, self.seed)
            }
        }
    }

    pub fn spec(&self) -> JobSpec {
        JobSpec::new(self.config(), self.dataset())
    }

    /// The `submit` request line (without the newline).
    pub fn submit_line(&self) -> String {
        let dataset = match self.dataset {
            Dataset::ErdosRenyi => "er",
            Dataset::Regular4 => "regular",
        };
        let gate = self
            .gate
            .map_or(String::new(), |cap| format!(",\"gate\":{cap}"));
        format!(
            "{{\"cmd\":\"submit\",\"search\":{{\"graphs\":{},\"nodes\":{},\"dataset\":\"{dataset}\",\
             \"alphabet\":\"{}\",\"kmax\":{},\"pmax\":{},\"budget\":{},\"backend\":\"{}\",\
             \"threads\":{},\"seed\":{}{gate}}}}}",
            self.graphs,
            self.nodes,
            self.alphabet,
            self.kmax,
            self.pmax,
            self.budget,
            self.backend,
            self.threads,
            self.seed,
        )
    }
}

pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which part of a run an op seed is for. Set-up and probes draw from
/// their own domains, so nothing they warm is a job the timed region
/// submits as cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    Setup = 1,
    Timed = 2,
    Probe = 3,
}

/// The seed of op `k` of `lane` (a client, or 0 for the single search
/// loop): 30 bits drawn from the run seed, then the domain, the lane and
/// `16 k` in fields of their own, so no two ops of a run share a seed.
/// Seeds of one lane are 16 apart because a dataset of `g` graphs uses
/// seeds `s..s+g`: neighbouring ops must not share a graph.
pub fn op_seed(run_seed: u64, domain: Domain, lane: u64, k: u64) -> u64 {
    assert!(
        lane < 16 && k < 1 << 18,
        "op ({lane}, {k}) outside the seed layout"
    );
    let mut state = run_seed;
    let run = splitmix64(&mut state) >> 34;
    (run << 28) | ((domain as u64) << 26) | (lane << 22) | (16 * k)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A job no one has submitted before: it runs, and writes the cache
    /// and the journal.
    Cold,
    /// A resubmission of a job this client has completed: a cache hit.
    Warm,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeOp {
    pub kind: OpKind,
    pub job_seed: u64,
    /// Cold ops the stream issued before this one.
    pub cold_before: u64,
    /// Where in `[0, 1)` of its think time the client pauses after the op.
    pub think: f64,
}

/// How many of a client's completed jobs a warm op picks from — well
/// inside the server's 256-entry result cache.
const WARM_WINDOW: usize = 64;

/// One client's operation stream: cold and warm ops in turn, the job a
/// warm op resubmits drawn from the seed. (Strict alternation, not a coin
/// per op: the share of cold ops in a ten-second run would otherwise
/// vary by a tenth between seeds, and throughput with it.) Closed loop:
/// the client sends op `k+1` after op `k` completes, so every job a warm
/// op names has completed — and not just now: a warm op never names the
/// job of the op before it, because the server publishes a result a
/// moment before it inserts it into the result cache, and a resubmission
/// inside that window is (correctly) computed again.
pub struct OpStream {
    run_seed: u64,
    domain: Domain,
    lane: u64,
    rng: u64,
    last_was_cold: bool,
    issued: u64,
    recent: VecDeque<u64>,
}

impl OpStream {
    pub fn new(run_seed: u64, domain: Domain, lane: u64) -> OpStream {
        let mut rng =
            run_seed ^ ((domain as u64) << 56) ^ (lane + 1).wrapping_mul(0xA24B_AED4_963E_E407);
        splitmix64(&mut rng);
        OpStream {
            run_seed,
            domain,
            lane,
            rng,
            last_was_cold: false,
            issued: 0,
            recent: VecDeque::with_capacity(WARM_WINDOW),
        }
    }
}

impl Iterator for OpStream {
    type Item = ServeOp;

    fn next(&mut self) -> Option<ServeOp> {
        let think = (splitmix64(&mut self.rng) >> 11) as f64 / (1u64 << 53) as f64;
        // Warm after cold, once there is an older job than the last one
        // to resubmit: C C W C W C W …
        if self.last_was_cold && self.recent.len() >= 2 {
            self.last_was_cold = false;
            let pick = splitmix64(&mut self.rng) as usize % (self.recent.len() - 1);
            return Some(ServeOp {
                kind: OpKind::Warm,
                job_seed: self.recent[pick],
                cold_before: self.issued,
                think,
            });
        }
        let job_seed = op_seed(self.run_seed, self.domain, self.lane, self.issued);
        self.issued += 1;
        if self.recent.len() == WARM_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(job_seed);
        self.last_was_cold = true;
        Some(ServeOp {
            kind: OpKind::Cold,
            job_seed,
            cold_before: self.issued - 1,
            think,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn op_stream_is_a_pure_function_of_the_seed() {
        let take = |seed, lane| {
            OpStream::new(seed, Domain::Timed, lane)
                .take(500)
                .collect::<Vec<_>>()
        };
        assert_eq!(take(2023, 0), take(2023, 0));
        assert_ne!(take(2023, 0), take(2024, 0));
        assert_ne!(take(2023, 0), take(2023, 1));
    }

    #[test]
    fn warm_ops_name_recent_completed_jobs_and_cold_ops_are_new() {
        let ops: Vec<ServeOp> = OpStream::new(7, Domain::Timed, 1).take(2000).collect();
        assert_eq!(ops[0].kind, OpKind::Cold, "nothing to resubmit yet");
        let mut seen = Vec::new();
        for op in &ops {
            assert_eq!(op.cold_before, seen.len() as u64);
            assert!((0.0..1.0).contains(&op.think));
            match op.kind {
                OpKind::Cold => {
                    assert!(!seen.contains(&op.job_seed), "cold job repeated");
                    seen.push(op.job_seed);
                }
                OpKind::Warm => {
                    let window = &seen[seen.len().saturating_sub(WARM_WINDOW)..seen.len() - 1];
                    assert!(window.contains(&op.job_seed), "warm op outside the window");
                }
            }
        }
        assert_eq!(ops[1].kind, OpKind::Cold, "a warm op needs an older job");
        for pair in ops[1..].chunks_exact(2) {
            assert_eq!((pair[0].kind, pair[1].kind), (OpKind::Cold, OpKind::Warm));
        }
        let resubmitted: HashSet<u64> = ops
            .iter()
            .filter(|op| op.kind == OpKind::Warm)
            .map(|op| op.job_seed)
            .collect();
        assert!(resubmitted.len() > 500, "warm ops spread over the window");
    }

    #[test]
    fn lanes_and_domains_never_share_a_job() {
        let mut all = HashSet::new();
        for domain in [Domain::Setup, Domain::Timed, Domain::Probe] {
            for lane in [0, 1, 15] {
                for k in (0..1000).chain([(1 << 18) - 1]) {
                    let base = op_seed(2023, domain, lane, k);
                    // A three-graph dataset occupies base..base+3.
                    for g in 0..3 {
                        assert!(all.insert(base + g), "{domain:?} lane {lane} op {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn submit_line_is_json_that_names_every_option() {
        let job = Workload::SearchWide.job(42);
        let parsed: serde_json::Value = serde_json::from_str(&job.submit_line()).unwrap();
        let search = parsed.get("search").unwrap();
        assert_eq!(search.get("seed").and_then(|v| v.as_u64()), Some(42));
        assert_eq!(search.get("gate").and_then(|v| v.as_u64()), Some(16));
        assert_eq!(
            search.get("backend").and_then(|v| v.as_str()),
            Some("statevector")
        );
        assert!(Workload::ServeDirect
            .job(1)
            .submit_line()
            .find("gate")
            .is_none());
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            let job = w.job(9);
            assert_eq!(job.dataset().len(), job.graphs);
            job.config().validate().unwrap();
        }
    }
}
