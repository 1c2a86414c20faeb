//! The in-process search tier: a closed loop of `SearchDriver` runs, and
//! the check that each outcome is right.

use crate::trace::Tracer;
use crate::workload::{op_seed, Domain, JobParams, Workload};
use crate::Res;
use graphs::Graph;
use qaoa::ansatz::QaoaAnsatz;
use qaoa::mixer::Mixer;
use qaoa::{Backend, EnergyEvaluator};
use qarchsearch::report::SearchReport;
use qarchsearch::{SearchDriver, SearchEvent, SearchOutcome};
use std::time::{Duration, Instant};

/// One completed search.
pub struct SearchOp {
    pub job: JobParams,
    pub latency_ms: f64,
    pub outcome: SearchOutcome,
}

#[derive(Default)]
pub struct SearchRun {
    pub ops: Vec<SearchOp>,
    pub failures: Vec<String>,
    /// From the start of the first search to the end of the last one.
    pub elapsed_s: f64,
}

impl SearchRun {
    pub fn attempted(&self) -> usize {
        self.ops.len() + self.failures.len()
    }

    pub fn evaluations(&self) -> usize {
        self.ops
            .iter()
            .map(|op| op.outcome.total_optimizer_evaluations)
            .sum()
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.ops.iter().map(|op| op.latency_ms).collect()
    }
}

/// What a report says once clocks and provenance flags are reset — the
/// bytes two runs of one search must share.
pub fn canonical_report(outcome: &SearchOutcome) -> String {
    SearchReport::from(outcome).without_timings().to_json()
}

/// Run one search. Untraced, this is `SearchDriver::run`. Traced, the
/// benchmark starts the session itself and stamps the arrival of the
/// events that delimit depths and rungs: `search → depth → rung`.
pub fn run_one(
    job: &JobParams,
    graphs: &[Graph],
    op: u64,
    tracer: &mut Tracer,
) -> Res<SearchOutcome> {
    let driver = SearchDriver::new(job.config());
    if !tracer.enabled() {
        return driver.run(graphs).map_err(|e| e.to_string());
    }
    let search = tracer.reserve();
    let start = Instant::now();
    let handle = driver.start(graphs).map_err(|e| e.to_string())?;
    let mut depth: Option<(u32, Instant)> = None;
    let mut rung_start = start;
    for event in handle.events().iter() {
        let now = Instant::now();
        match event {
            SearchEvent::DepthStarted { .. } => {
                depth = Some((tracer.reserve(), now));
                rung_start = now;
            }
            SearchEvent::RungCompleted { .. } => {
                tracer.record(op, depth.map(|(id, _)| id), "rung", rung_start, now);
                rung_start = now;
            }
            SearchEvent::DepthCompleted { .. } => {
                if let Some((id, since)) = depth.take() {
                    tracer.close(id, op, Some(search), "depth", since, now);
                }
            }
            _ => {}
        }
    }
    let outcome = handle.wait().map_err(|e| e.to_string());
    tracer.close(search, op, None, "search", start, Instant::now());
    outcome
}

/// Searches with distinct seeds, one after another, until `seconds` have
/// passed; a search in flight at the deadline is finished and counted.
pub fn run_loop(
    workload: Workload,
    run_seed: u64,
    domain: Domain,
    seconds: f64,
    tracer: &mut Tracer,
) -> SearchRun {
    let mut run = SearchRun::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut k = 0;
    while Instant::now() < deadline {
        let job = workload.job(op_seed(run_seed, domain, 0, k));
        let graphs = job.dataset();
        let t0 = Instant::now();
        match run_one(&job, &graphs, k, tracer) {
            Ok(outcome) => run.ops.push(SearchOp {
                latency_ms: t0.elapsed().as_secs_f64() * 1e3,
                job,
                outcome,
            }),
            Err(e) => run.failures.push(format!("search {k}: {e}")),
        }
        k += 1;
    }
    run.elapsed_s = start.elapsed().as_secs_f64();
    run
}

/// Check one outcome against an oracle that shares no simulation code
/// path with the search: re-evaluate the winner's trained angles with the
/// bind-per-call state-vector expectation (the search trains through the
/// compiled program, or through tensor contraction) and compare energies;
/// then the bookkeeping a report is built from.
pub fn verify_outcome(job: &JobParams, outcome: &SearchOutcome) -> Res<()> {
    let best = &outcome.best;
    let winner = outcome
        .depth_results
        .iter()
        .flat_map(|d| &d.candidates)
        .find(|c| c.depth == best.depth && c.mixer_label == best.mixer_label)
        .ok_or_else(|| format!("winner {} is not among the candidates", best.mixer_label))?;
    if winner.mean_energy.to_bits() != best.energy.to_bits() {
        return Err(format!(
            "winner energy {} differs from its candidate record {}",
            best.energy, winner.mean_energy
        ));
    }
    let graphs = job.dataset();
    if winner.per_graph.len() != graphs.len() {
        return Err("winner was not trained on every graph".to_string());
    }
    let mixer = Mixer::new(best.gates.clone()).map_err(|e| e.to_string())?;
    let mut energy_sum = 0.0;
    for (graph, trained) in graphs.iter().zip(&winner.per_graph) {
        let oracle = EnergyEvaluator::new(graph, Backend::StateVector);
        let ansatz = QaoaAnsatz::new(graph, best.depth, mixer.clone());
        let angles: Vec<f64> = trained
            .gammas
            .iter()
            .chain(&trained.betas)
            .copied()
            .collect();
        let energy = oracle
            .energy_flat(&ansatz, &angles)
            .map_err(|e| e.to_string())?;
        if (energy - trained.energy).abs() > 1e-6 * energy.abs().max(1.0) {
            return Err(format!(
                "trained energy {} but the oracle evaluates the same angles to {energy}",
                trained.energy
            ));
        }
        energy_sum += trained.energy;
    }
    let mean = energy_sum / graphs.len() as f64;
    if (mean - best.energy).abs() > 1e-9 * mean.abs().max(1.0) {
        return Err(format!(
            "best energy {} is not the per-graph mean {mean}",
            best.energy
        ));
    }
    if !(best.approx_ratio > 0.0 && best.approx_ratio <= 1.0 + 1e-9) {
        return Err(format!(
            "approximation ratio {} out of range",
            best.approx_ratio
        ));
    }
    let spent: usize = outcome
        .depth_results
        .iter()
        .flat_map(|d| &d.candidates)
        .map(|c| c.total_evaluations)
        .sum();
    if spent != outcome.total_optimizer_evaluations || spent == 0 {
        return Err(format!(
            "candidates spent {spent} evaluations, the outcome reports {}",
            outcome.total_optimizer_evaluations
        ));
    }
    if outcome.depth_results.len() != job.pmax {
        return Err(format!(
            "searched {} depths of {}",
            outcome.depth_results.len(),
            job.pmax
        ));
    }
    Ok(())
}
