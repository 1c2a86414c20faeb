//! Per-layer probes: the benchmark calls one layer's public functions
//! directly, on the workload's own inputs, and times the call. A probe
//! says what a layer costs in isolation; the spans of the traced run say
//! what it costs inside an operation.

use crate::stats::{median, time_per_call};
use crate::workload::{op_seed, Domain, JobParams, Workload};
use crate::{Metrics, Res};
use graphs::{Graph, Problem};
use optim::OptimizerKind;
use qaoa::ansatz::QaoaAnsatz;
use qaoa::mixer::Mixer;
use qaoa::{Backend, BatchScratch, EnergyEvaluator};
use qarchsearch::cache::{rendezvous_route, spec_cache_key, CacheConfig, ResultCache, SpecKey};
use qarchsearch::cluster::{AdmissionConfig, AdmissionControl, ShardClient};
use qarchsearch::evaluator::{EnergyCache, Evaluator, EvaluatorConfig};
use qarchsearch::report::SearchReport;
use qarchsearch::server::{JobServer, JobServerConfig, JobSpec, ServerOptions};
use qarchsearch::store::{JobStore, JournalRecord, StoreConfig};
use qarchsearch::{SearchDriver, SearchOutcome};
use qcircuit::{Gate, GateMatrix};
use statevec::{CompiledProgram, StateVector};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Milliseconds each timing loop may spend.
const PROBE_MS: f64 = 40.0;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The mixer the simulator probes use: the first `len` gates of the
/// workload's alphabet.
fn probe_mixer(job: &JobParams, len: usize) -> Res<Mixer> {
    let gates: Result<Vec<Gate>, String> = job
        .alphabet
        .split(',')
        .take(len)
        .map(str::parse::<Gate>)
        .collect();
    Mixer::new(gates?).map_err(err)
}

/// Small, distinct angles: every rotation is far from the identity.
fn probe_angles(depth: usize, shift: f64) -> Vec<f64> {
    (0..2 * depth)
        .map(|i| 0.3 + 0.07 * i as f64 + shift)
        .collect()
}

/// `statevec.*`: single kernel passes over one state of the workload's
/// width, and the lowering of its ansatz.
fn statevec_layer(job: &JobParams, graph: &Graph, m: &mut Metrics) -> Res<()> {
    let n = job.nodes;
    let mut state = StateVector::plus_state(n).map_err(err)?;
    let GateMatrix::One(rx) = GateMatrix::of(Gate::RX, 0.7) else {
        unreachable!("RX is a one-qubit gate")
    };
    let GateMatrix::Two(zz) = GateMatrix::of(Gate::RZZ, 0.4) else {
        unreachable!("RZZ is a two-qubit gate")
    };
    let mut target = 0;
    let one = time_per_call(PROBE_MS, || {
        state.apply_single_qubit(&rx, target);
        target = (target + 1) % n;
    });
    let two = time_per_call(PROBE_MS, || {
        state.apply_two_qubit(&zz, target, (target + 1) % n);
        target = (target + 1) % n;
    });
    let diagonal = statevec::expectation::problem_diagonal(&Problem::max_cut(graph));
    let mut phase_result = Ok(());
    let phase = time_per_call(PROBE_MS, || {
        phase_result = state.apply_phase_table(&diagonal, 0.37);
    });
    phase_result.map_err(err)?;
    let expectation = time_per_call(PROBE_MS, || {
        black_box(state.expectation_diagonal(&diagonal).ok());
    });
    let ansatz = QaoaAnsatz::new(graph, job.pmax, probe_mixer(job, job.kmax)?);
    let compile = time_per_call(PROBE_MS, || {
        black_box(CompiledProgram::compile(ansatz.template()).ok());
    });
    m.set("statevec.one_qubit_pass_us", one * 1e6);
    m.set("statevec.two_qubit_pass_us", two * 1e6);
    m.set("statevec.phase_pass_us", phase * 1e6);
    m.set("statevec.expectation_us", expectation * 1e6);
    // Computed, not measured on the memory bus: a pass reads and writes
    // each 16-byte amplitude once.
    m.set(
        "statevec.one_qubit_gbs",
        2.0 * 16.0 * (1u64 << n) as f64 / one / 1e9,
    );
    m.set("statevec.compile_us", compile * 1e6);
    Ok(())
}

/// Seconds per energy evaluation on the workload's backend — the compiled
/// program on the state-vector backend, bind-and-contract on the
/// tensor-network one — by depth and mixer length.
pub struct EvalCosts {
    /// `seconds[depth - 1][gates - 1]`.
    seconds: Vec<Vec<f64>>,
}

impl EvalCosts {
    fn probe(job: &JobParams, graph: &Graph) -> Res<EvalCosts> {
        let evaluator = EnergyEvaluator::new(graph, job.backend);
        let cost = |depth: usize, len: usize| -> Res<f64> {
            let ansatz = QaoaAnsatz::new(graph, depth, probe_mixer(job, len)?);
            let angles = probe_angles(depth, 0.0);
            if job.backend == Backend::StateVector {
                let compiled = evaluator.compile(&ansatz).map_err(err)?;
                let mut state = StateVector::zero_state(job.nodes).map_err(err)?;
                compiled.energy_flat_in(&angles, &mut state).map_err(err)?;
                Ok(time_per_call(PROBE_MS / 2.0, || {
                    black_box(compiled.energy_flat_in(&angles, &mut state).ok());
                }))
            } else {
                evaluator.energy_flat(&ansatz, &angles).map_err(err)?;
                Ok(time_per_call(PROBE_MS / 2.0, || {
                    black_box(evaluator.energy_flat(&ansatz, &angles).ok());
                }))
            }
        };
        let seconds: Res<Vec<Vec<f64>>> = (1..=job.pmax)
            .map(|depth| (1..=job.kmax).map(|len| cost(depth, len)).collect())
            .collect();
        Ok(EvalCosts { seconds: seconds? })
    }

    /// The probed cost of one evaluation of a candidate, found by its
    /// depth and the number of gates its label (`('rx', 'ry')`) names.
    pub fn of(&self, depth: usize, mixer_label: &str) -> f64 {
        let gates = mixer_label.matches('\'').count() / 2;
        let by_len = &self.seconds[depth.clamp(1, self.seconds.len()) - 1];
        by_len[gates.clamp(1, by_len.len()) - 1]
    }
}

/// `qaoa.*`, `optim.*`, `tensornet.*`, `graphs.*`: what one candidate's
/// training is made of, at the workload's deepest depth.
fn training_layers(job: &JobParams, graph: &Graph, m: &mut Metrics) -> Res<()> {
    let depth = job.pmax;
    let mixer = probe_mixer(job, job.kmax)?;
    let problem = Problem::max_cut(graph);
    let ansatz = QaoaAnsatz::for_problem(&problem, depth, mixer).map_err(err)?;
    let angles = probe_angles(depth, 0.0);

    // Classical bracket, then the 2^n diagonal the first compile builds.
    let t = Instant::now();
    let evaluator =
        EnergyEvaluator::for_problem(graph, problem.clone(), Backend::StateVector).map_err(err)?;
    let compiled = evaluator.compile(&ansatz).map_err(err)?;
    m.set("qaoa.evaluator_build_ms", t.elapsed().as_secs_f64() * 1e3);
    let compile = time_per_call(PROBE_MS, || {
        black_box(evaluator.compile(&ansatz).ok());
    });
    m.set("qaoa.compile_us", compile * 1e6);

    let mut state = StateVector::zero_state(job.nodes).map_err(err)?;
    compiled.energy_flat_in(&angles, &mut state).map_err(err)?;
    let eval = time_per_call(PROBE_MS, || {
        black_box(compiled.energy_flat_in(&angles, &mut state).ok());
    });
    m.set("qaoa.energy_eval_us", eval * 1e6);
    let points: Vec<Vec<f64>> = (0..8)
        .map(|i| probe_angles(depth, 0.01 * i as f64))
        .collect();
    let mut scratch = BatchScratch::new();
    compiled
        .energy_batch_in(&points, &mut scratch)
        .map_err(err)?;
    let batch = time_per_call(PROBE_MS, || {
        black_box(compiled.energy_batch_in(&points, &mut scratch).ok());
    });
    m.set("qaoa.energy_eval_b8_us", batch / 8.0 * 1e6);

    // One training to the full budget, through the resumable session the
    // pipeline drives.
    let optimizer = OptimizerKind::Cobyla.build_resumable();
    let mut trainings = Vec::new();
    let mut evaluations = 0;
    for _ in 0..3 {
        let t = Instant::now();
        let mut session = evaluator
            .begin_training(&ansatz, optimizer.as_ref(), None, job.budget)
            .map_err(err)?;
        let trained = session
            .advance(optimizer.as_ref(), job.budget)
            .map_err(err)?;
        trainings.push(t.elapsed().as_secs_f64());
        evaluations = trained.evaluations;
    }
    let train = median(&trainings).expect("three trainings ran");
    m.set("qaoa.train_ms", train * 1e3);
    m.set("qaoa.train_evals", evaluations as f64);
    m.set(
        "qaoa.train_overhead_share",
        1.0 - (evaluations as f64 * eval / train).min(1.0),
    );

    // The optimizer alone: COBYLA on an objective that costs nothing.
    let free = |x: &[f64]| x.iter().map(|v| (v - 0.5) * (v - 0.5)).sum::<f64>();
    let start = probe_angles(depth, 0.0);
    let mut steps = 0;
    let per_run = time_per_call(PROBE_MS, || {
        let mut state = optimizer.start(&start, job.budget);
        steps = optimizer
            .resume_until(&mut state, &free, job.budget)
            .evaluations;
    });
    m.set("optim.step_us", per_run / steps.max(1) as f64 * 1e6);

    let contracted = EnergyEvaluator::for_problem(graph, problem.clone(), Backend::TensorNetwork)
        .map_err(err)?;
    contracted.energy_flat(&ansatz, &angles).map_err(err)?;
    let contract = time_per_call(PROBE_MS, || {
        black_box(contracted.energy_flat(&ansatz, &angles).ok());
    });
    m.set("tensornet.energy_eval_us", contract * 1e6);
    let bound = ansatz.bind_flat(&angles).map_err(err)?;
    let width = graph
        .edges()
        .iter()
        .map(|e| tensornet::lightcone::LightCone::of(&bound, &[e.u, e.v]).width())
        .max()
        .unwrap_or(0);
    m.set("tensornet.lightcone_width_max", width as f64);

    let bracket = time_per_call(PROBE_MS, || {
        black_box(problem.brute_force().ok());
    });
    m.set("graphs.bracket_ms", bracket * 1e3);
    Ok(())
}

/// `evaluator.*`: one candidate over the workload's graphs, and what the
/// shared evaluator memo saves a search.
fn evaluator_layer(job: &JobParams, m: &mut Metrics) -> Res<()> {
    let graphs = job.dataset();
    let config = EvaluatorConfig {
        backend: job.backend,
        budget: job.budget,
        ..EvaluatorConfig::default()
    };
    let mixer = probe_mixer(job, job.kmax)?;
    let mut runs = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        Evaluator::new(config.clone())
            .evaluate(&graphs, &mixer, job.pmax)
            .map_err(err)?;
        runs.push(t.elapsed().as_secs_f64());
    }
    m.set(
        "evaluator.evaluate_ms",
        median(&runs).expect("three evaluations ran") * 1e3,
    );
    let cache = EnergyCache::unbounded();
    SearchDriver::new(job.config())
        .with_energy_cache(cache.clone())
        .run(&graphs)
        .map_err(err)?;
    let stats = cache.stats();
    m.set(
        "evaluator.energy_cache_hit_ratio",
        stats.hits as f64 / (stats.hits + stats.builds).max(1) as f64,
    );
    Ok(())
}

/// `report.*`, `cache.*`, `store.*`: what a served job adds around the
/// search — keying, the result cache, the journal, the report.
fn storage_layers(
    job: &JobParams,
    outcome: &SearchOutcome,
    dir: &Path,
    m: &mut Metrics,
) -> Res<()> {
    let mut bytes = 0;
    let serialize = time_per_call(PROBE_MS, || {
        bytes = black_box(SearchReport::from(outcome).to_json()).len();
    });
    m.set("report.serialize_us", serialize * 1e6);
    m.set("report.bytes", bytes as f64);

    let spec = job.spec();
    let key = spec_cache_key(&spec).map_err(err)?;
    let keying = time_per_call(PROBE_MS, || {
        black_box(spec_cache_key(&spec).ok());
    });
    m.set("cache.key_us", keying * 1e6);

    // A durable cache, as `qas serve --cache-dir` runs it: an insert
    // journals the outcome.
    let config = CacheConfig::default().durable(dir.join("probe-cache"));
    let (mut cache, _) = ResultCache::open(&config).map_err(err)?;
    let shared = Arc::new(outcome.clone());
    let mut next = 0u64;
    let insert = time_per_call(PROBE_MS, || {
        next += 1;
        let fresh = SpecKey {
            hash: key.hash.wrapping_add(next),
            canonical: key.canonical.clone(),
        };
        cache.insert(&fresh, Arc::clone(&shared));
    });
    cache.insert(&key, Arc::clone(&shared));
    let lookup = time_per_call(PROBE_MS, || {
        black_box(cache.lookup(&key));
    });
    m.set("cache.insert_us", insert * 1e6);
    m.set("cache.lookup_us", lookup * 1e6);

    // A `Submitted` record is the one every cold job appends and fsyncs
    // before it is acknowledged.
    let (mut store, _) = JobStore::open(dir.join("probe-store")).map_err(err)?;
    let record = JournalRecord::Submitted { id: 1, spec };
    let mut appended = Ok(());
    let append = time_per_call(PROBE_MS, || {
        appended = store.append(&record);
    });
    appended.map_err(err)?;
    m.set("store.append_us", append * 1e6);
    Ok(())
}

/// `server.*`: the tiny job through an in-process `JobServer` — the floor
/// under the serving workloads' latencies, with no protocol around it.
fn server_layer(run_seed: u64, dir: &Path, m: &mut Metrics) -> Res<()> {
    const JOBS: u64 = 24;
    struct Costs {
        submit_us: f64,
        cold_ms: f64,
        warm_us: f64,
    }
    let measure = |durable: bool, lane: u64| -> Res<Costs> {
        let store = durable.then(|| StoreConfig::new(dir.join("probe-server-state")));
        let cache = CacheConfig::default();
        let cache = if durable {
            cache.durable(dir.join("probe-server-cache"))
        } else {
            cache
        };
        let server = JobServer::launch(
            JobServerConfig {
                workers: 1,
                queue_capacity: 16,
                max_retained_jobs: 256,
            },
            ServerOptions {
                store,
                cache: Some(cache),
                ..ServerOptions::default()
            },
        )
        .map_err(err)?;
        let (mut submits, mut colds, mut warms) = (Vec::new(), Vec::new(), Vec::new());
        for k in 0..JOBS {
            let spec: JobSpec = Workload::ServeDirect
                .job(op_seed(run_seed, Domain::Probe, lane, k))
                .spec();
            let t0 = Instant::now();
            let id = server.submit(spec.clone()).map_err(err)?;
            let t1 = Instant::now();
            server.wait(id).map_err(err)?.map_err(err)?;
            let t2 = Instant::now();
            let again = server.submit(spec).map_err(err)?;
            server.wait(again).map_err(err)?.map_err(err)?;
            let t3 = Instant::now();
            submits.push((t1 - t0).as_secs_f64() * 1e6);
            colds.push((t2 - t0).as_secs_f64() * 1e3);
            // The server publishes a result a moment before it caches it:
            // a resubmission this prompt now and then runs again instead
            // of hitting. Such a round is not a warm sample.
            if server.status(again).map_err(err)?.cache_hit {
                warms.push((t3 - t2).as_secs_f64() * 1e6);
            }
        }
        if warms.len() < JOBS as usize / 2 {
            return Err(format!(
                "only {} of {JOBS} resubmissions to the in-process server hit the cache",
                warms.len()
            ));
        }
        server.shutdown();
        Ok(Costs {
            submit_us: median(&submits).expect("jobs ran"),
            cold_ms: median(&colds).expect("jobs ran"),
            warm_us: median(&warms).expect("jobs ran"),
        })
    };
    let durable = measure(true, 1)?;
    let volatile = measure(false, 2)?;
    m.set("server.submit_us", durable.submit_us);
    m.set("server.cold_job_ms", durable.cold_ms);
    m.set("server.warm_hit_us", durable.warm_us);
    m.set(
        "server.durable_overhead_us",
        (durable.cold_ms - volatile.cold_ms) * 1e3,
    );
    Ok(())
}

/// `cluster.route_us`, `admission.admit_us`: the coordinator's own
/// decisions, without a network.
fn placement_layer(m: &mut Metrics) {
    let shards = [0u64, 1];
    let mut key = 0u64;
    let route = time_per_call(PROBE_MS, || {
        key = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        black_box(rendezvous_route(key, &shards));
    });
    m.set("cluster.route_us", route * 1e6);
    let admission = AdmissionControl::new(AdmissionConfig::default());
    let admit = time_per_call(PROBE_MS, || {
        black_box(admission.admit(Some("bench")).ok());
        admission.release(Some("bench"));
    });
    m.set("admission.admit_us", admit * 1e6);
}

/// Median round trip, in microseconds, of the coordinator's own client
/// asking a shard for `stats` — one heartbeat.
pub fn shard_rtt_us(addr: &str) -> Res<f64> {
    let mut client = ShardClient::new(addr, Duration::from_secs(1), Duration::from_secs(5));
    let request = serde_json::json!({"cmd": "stats"});
    client.request(&request).map_err(err)?;
    let rtts: Res<Vec<f64>> = (0..12)
        .map(|_| {
            let t = Instant::now();
            client.request(&request).map_err(err)?;
            Ok(t.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    Ok(median(&rtts?).expect("twelve round trips ran"))
}

/// What the journals of one serving tier hold.
#[derive(Default)]
pub struct Journals {
    pub replay_ms: f64,
    pub jobs: usize,
    pub bytes: u64,
}

/// Replay the journals a serving run wrote, one per `qas serve` process.
/// A shard that routing gave no job has an empty journal, or none: it
/// counts as zero jobs and zero bytes. Only a tier that journaled no job
/// at all is an error — its `store.*` numbers would mean nothing.
pub fn replay_all(journals: &[PathBuf]) -> Res<Journals> {
    let mut total = Journals::default();
    for journal in journals {
        let t = Instant::now();
        // A missing journal replays as an empty one.
        let state = qarchsearch::store::replay(journal).map_err(err)?;
        total.replay_ms += t.elapsed().as_secs_f64() * 1e3;
        total.jobs += state.jobs.len();
        total.bytes += std::fs::metadata(journal).map_or(0, |meta| meta.len());
    }
    if total.jobs == 0 {
        return Err(format!("no job in any of {} journals", journals.len()));
    }
    Ok(total)
}

/// Run every in-process probe on the workload's inputs; returns what an
/// energy evaluation costs there, for the share of a search that
/// evaluations explain.
pub fn run_all(
    workload: Workload,
    run_seed: u64,
    outcome: &SearchOutcome,
    dir: &Path,
    m: &mut Metrics,
) -> Res<EvalCosts> {
    let job = workload.job(op_seed(run_seed, Domain::Probe, 0, 0));
    let graphs = job.dataset();
    let graph = &graphs[0];
    statevec_layer(&job, graph, m)?;
    training_layers(&job, graph, m)?;
    evaluator_layer(&job, m)?;
    storage_layers(&job, outcome, dir, m)?;
    server_layer(run_seed, dir, m)?;
    placement_layer(m);
    EvalCosts::probe(&job, graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::RunDir;
    use qarchsearch::store::journal_path_in;

    #[test]
    fn a_shard_without_jobs_counts_as_zero() {
        let exe = std::env::current_exe().unwrap();
        let dir = RunDir::create(&exe.parent().unwrap().join("perfbench-runs")).unwrap();
        let (busy, idle, absent) = (
            dir.path().join("busy"),
            dir.path().join("idle"),
            dir.path().join("absent"),
        );
        let (mut store, _) = JobStore::open(&busy).unwrap();
        let spec = Workload::ServeDirect.job(5).spec();
        store
            .append(&JournalRecord::Submitted { id: 1, spec })
            .unwrap();
        drop(store);
        // A shard that started and served nothing leaves an empty journal.
        drop(JobStore::open(&idle).unwrap());
        let paths = |dirs: &[&PathBuf]| -> Vec<PathBuf> {
            dirs.iter().map(|d| journal_path_in(d)).collect()
        };

        let all = replay_all(&paths(&[&busy, &idle, &absent])).unwrap();
        assert_eq!(all.jobs, 1);
        assert_eq!(
            all.bytes,
            std::fs::metadata(journal_path_in(&busy)).unwrap().len()
        );
        assert_eq!(replay_all(&paths(&[&busy])).unwrap().jobs, 1);
        // No job anywhere: the tier's `store.*` numbers would be empty.
        assert!(replay_all(&paths(&[&idle, &absent])).is_err());
    }
}
