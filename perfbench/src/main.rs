//! `perfbench` — the one benchmark of the QArchSearch reproduction.
//!
//! Five workloads, each run for a fixed time by one process: three drive
//! `SearchDriver` in-process, two drive spawned `qas serve` /
//! `qas coordinator` processes over TCP. The untraced run (`--trace 0`)
//! prints the end-to-end metrics; the traced run (`--trace 1`) records
//! spans around the benchmark's own calls, probes every layer's public
//! functions on the workload's inputs, and prints the per-layer metrics.
//! README.md has the tables; `BENCHMARK.json` at the repository root is
//! the contract with the driver.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1   one run
//! perfbench [--quick]                every workload, untraced then traced
//! perfbench --check-repeat [--workload NAME]
//!                                    the steadiness check, twice over
//! ```

mod probes;
mod schema;
mod search;
mod serve;
mod stats;
mod trace;
mod workload;

use serde_json::{json, Value};
use serve::{Session, CLIENTS};
use stats::{
    highest_supported_percentile, interquartile_mean, mean, median, percentile, quartile_spread,
};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::{Span, Tracer};
use workload::{op_seed, Domain, OpKind, Tier, Workload};

pub type Res<T> = Result<T, String>;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Runs per set of `--check-repeat`: the acceptance rule's count.
const RUNS_PER_SET: usize = 10;
/// Run length of `--quick`, in seconds.
const QUICK_SECONDS: f64 = 2.0;

/// Measured values by metric name.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The `metrics` object of the result line: exactly the names of
    /// `table`, each measured and finite.
    fn to_json(&self, table: &[(&str, &str)]) -> Res<Value> {
        let mut entries = Vec::new();
        for (name, unit) in table {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            entries.push((name.to_string(), json!({"value": value, "unit": (*unit)})));
        }
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !table.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {extra} is not in the schema"));
        }
        Ok(Value::Object(entries))
    }
}

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<PathBuf>,
    check_repeat: bool,
    qas: PathBuf,
    /// Where spawned servers and probes keep their files: next to the
    /// executable, so every process of a run derives the same place.
    run_dir: PathBuf,
}

fn parse_options(args: &[String]) -> Res<Options> {
    let contract: Value =
        serde_json::from_str(schema::BENCHMARK_JSON).map_err(|e| e.to_string())?;
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .ok_or("cannot locate the running executable")?;
    let run_seconds = contract
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let (mut seconds, mut quick) = (None, false);
    let mut options = Options {
        workload: None,
        seed: 2023,
        seconds: run_seconds,
        traced: false,
        trace_out: None,
        check_repeat: false,
        qas: std::env::var_os("QAS_BIN").map_or_else(|| exe_dir.join("qas"), PathBuf::from),
        run_dir: exe_dir.join("perfbench-runs"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |text: &str| {
            text.parse::<f64>()
                .map_err(|_| format!("{flag}: '{text}' is not a number"))
        };
        let whole = |text: &str| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: '{text}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                options.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => options.seed = whole(value()?)?,
            "--seconds" => seconds = Some(number(value()?)?),
            "--trace" => options.traced = whole(value()?)? != 0,
            "--trace-out" => options.trace_out = Some(PathBuf::from(value()?)),
            "--check-repeat" => options.check_repeat = true,
            "--quick" => quick = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    options.seconds = match (seconds, quick) {
        (Some(_), true) => return Err("--quick sets the run length: drop --seconds".to_string()),
        (Some(seconds), false) => seconds,
        (None, true) => QUICK_SECONDS,
        (None, false) => run_seconds,
    };
    if !(options.seconds > 0.0 && options.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range", options.seconds));
    }
    if !options.qas.is_file() {
        return Err(format!(
            "no qas binary at {} (build it next to perfbench, or set QAS_BIN)",
            options.qas.display()
        ));
    }
    Ok(options)
}

/// What one run reports: the driver's result line, and a detail document
/// for people.
struct Outcome {
    attempted: usize,
    failures: Vec<String>,
    wrong: Vec<String>,
    metrics: Metrics,
    detail: Vec<(String, Value)>,
}

impl Outcome {
    fn failed(&self) -> usize {
        self.failures.len() + self.wrong.len()
    }

    fn ok(&self) -> bool {
        self.failed() == 0 && self.attempted > 0
    }
}

fn self_peak_rss_kib() -> u64 {
    serve::peak_rss_kib_of("self").unwrap_or(0)
}

/// Median, p90 and what the sample supports, for the detail document.
fn latency_detail(samples: &[f64]) -> Value {
    json!({
        "samples": (samples.len()),
        "p50_ms": (median(samples)),
        "p90_ms": (percentile(samples, 90)),
        "max_ms": (percentile(samples, 100)),
        "highest_percentile_with_10_beyond": (highest_supported_percentile(samples.len())),
    })
}

fn require(value: Option<f64>, what: &str) -> Res<f64> {
    value.ok_or_else(|| format!("no samples for {what}"))
}

// ---------------------------------------------------------------------------
// The untraced run: end-to-end metrics.

/// An op that computed — a search, or a served cold job — as the
/// end-to-end metrics see it.
struct Computing {
    latency_ms: f64,
    evaluations: usize,
    approx_ratio: f64,
    /// Among its lane's first `Workload::quality_ops` computing ops.
    in_quality_sample: bool,
}

/// How much of the quality sample a run held: short of `wanted`, the run
/// was too short (or the box too slow) for `approx_ratio_mean` to repeat.
fn quality_detail(computing: &[Computing], lanes: usize, workload: Workload) -> Value {
    let held = computing.iter().filter(|c| c.in_quality_sample).count();
    json!({ "ops": held, "wanted": (lanes * workload.quality_ops() as usize) })
}

/// The six end-to-end metrics, defined once for every workload.
fn end_to_end_metrics(
    setups_s: &[f64],
    completed: usize,
    elapsed_s: f64,
    computing: &[Computing],
    peak_rss_kib: u64,
) -> Res<Metrics> {
    let latencies: Vec<f64> = computing.iter().map(|c| c.latency_ms).collect();
    let rates: Vec<f64> = computing
        .iter()
        .map(|c| c.evaluations as f64 / (c.latency_ms / 1e3))
        .collect();
    let ratios: Vec<f64> = computing
        .iter()
        .filter(|c| c.in_quality_sample)
        .map(|c| c.approx_ratio)
        .collect();
    let mut m = Metrics::default();
    m.set("setup_s", require(median(setups_s), "set-up")?);
    m.set("ops_per_s", completed as f64 / elapsed_s);
    m.set(
        "evals_per_s",
        require(interquartile_mean(&rates), "evaluation rate")?,
    );
    m.set(
        "cold_latency_ms",
        require(interquartile_mean(&latencies), "latency")?,
    );
    m.set(
        "approx_ratio_mean",
        require(mean(&ratios), "approximation ratio")?,
    );
    m.set("peak_rss_mib", peak_rss_kib as f64 / 1024.0);
    Ok(m)
}

/// Every outcome of a search run against the oracle.
fn verify_searches(run: &search::SearchRun) -> Vec<String> {
    run.ops
        .iter()
        .filter_map(|op| {
            search::verify_outcome(&op.job, &op.outcome)
                .err()
                .map(|e| format!("search seed {}: {e}", op.job.seed))
        })
        .collect()
}

fn search_end_to_end(o: &Options, workload: Workload) -> Res<Outcome> {
    let mut off = Tracer::new(Instant::now(), false, 0);
    // Set-up as an embedding program pays it: build the inputs and run the
    // first search of a fresh process state (thread start, first-touch
    // allocation). Each cycle uses a search the timed region does not.
    let mut setups = Vec::new();
    for cycle in 0..SETUPS {
        let t = Instant::now();
        let job = workload.job(op_seed(o.seed, Domain::Setup, 0, cycle as u64));
        search::run_one(&job, &job.dataset(), cycle as u64, &mut off)?;
        setups.push(t.elapsed().as_secs_f64());
    }
    let run = search::run_loop(workload, o.seed, Domain::Timed, o.seconds, &mut off);
    let peak_rss_kib = self_peak_rss_kib();

    let mut wrong = verify_searches(&run);
    // The same inputs must give the same report, clocks aside.
    if let Some(first) = run.ops.first() {
        let again = search::run_one(&first.job, &first.job.dataset(), 0, &mut off)?;
        if search::canonical_report(&again) != search::canonical_report(&first.outcome) {
            wrong.push(format!("search seed {} does not repeat", first.job.seed));
        }
    }

    let latencies = run.latencies_ms();
    let computing: Vec<Computing> = run
        .ops
        .iter()
        .zip(0..)
        .map(|(op, k)| Computing {
            latency_ms: op.latency_ms,
            evaluations: op.outcome.total_optimizer_evaluations,
            approx_ratio: op.outcome.best.approx_ratio,
            in_quality_sample: k < workload.quality_ops(),
        })
        .collect();
    let m = end_to_end_metrics(
        &setups,
        run.ops.len(),
        run.elapsed_s,
        &computing,
        peak_rss_kib,
    )?;
    Ok(Outcome {
        attempted: run.attempted(),
        failures: run.failures,
        wrong,
        metrics: m,
        detail: vec![
            ("elapsed_s".to_string(), json!(run.elapsed_s)),
            (
                "quality_sample".to_string(),
                quality_detail(&computing, 1, workload),
            ),
            ("searches".to_string(), latency_detail(&latencies)),
            ("setups_s".to_string(), json!(setups)),
        ],
    })
}

/// Check every served report against the in-process search of the same
/// job, byte for byte with the clocks reset, and the cache flags against
/// the op's kind.
fn verify_served(run: &serve::ServeRun) -> Res<Vec<String>> {
    let mut off = Tracer::new(Instant::now(), false, 0);
    let mut reference: HashMap<u64, String> = HashMap::new();
    let mut wrong = Vec::new();
    for record in &run.ops {
        let seed = record.op.job_seed;
        let expected = match reference.entry(seed) {
            Entry::Occupied(known) => known.into_mut(),
            Entry::Vacant(slot) => {
                let job = Workload::ServeDirect.job(seed);
                let outcome = search::run_one(&job, &job.dataset(), 0, &mut off)?;
                slot.insert(search::canonical_report(&outcome))
            }
        };
        if record.report != *expected {
            wrong.push(format!(
                "job seed {seed}: served report differs from the in-process one"
            ));
        }
        let expect_hit = record.op.kind == OpKind::Warm;
        if record.cache_hit != expect_hit || record.coalesced {
            wrong.push(format!(
                "job seed {seed}: {:?} op came back cache_hit={} coalesced={}",
                record.op.kind, record.cache_hit, record.coalesced
            ));
        }
    }
    Ok(wrong)
}

fn serve_end_to_end(o: &Options, tier: Tier) -> Res<Outcome> {
    let mut setups = Vec::new();
    let mut session = None;
    for _ in 0..SETUPS {
        if let Some(previous) = session.take() {
            Session::close(previous)?;
        }
        let t = Instant::now();
        session = Some(Session::open(&o.qas, &o.run_dir, tier, o.seed)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut session = session.expect("at least one set-up ran");
    let (run, _) = session.run(o.seconds, false, Instant::now());
    let peak_rss_kib = session.fleet.peak_rss_kib() + self_peak_rss_kib();
    session.close()?;

    let wrong = verify_served(&run)?;
    let cold = run.latencies_ms(OpKind::Cold);
    let warm = run.latencies_ms(OpKind::Warm);
    let computing: Vec<Computing> = run
        .ops
        .iter()
        .filter(|r| r.op.kind == OpKind::Cold)
        .map(|r| Computing {
            latency_ms: r.latency_ms,
            evaluations: r.optimizer_evaluations,
            approx_ratio: r.approx_ratio,
            in_quality_sample: r.op.cold_before < Workload::ServeDirect.quality_ops(),
        })
        .collect();
    let m = end_to_end_metrics(
        &setups,
        run.ops.len(),
        run.elapsed_s,
        &computing,
        peak_rss_kib,
    )?;
    Ok(Outcome {
        attempted: run.attempted(),
        failures: run.failures,
        wrong,
        metrics: m,
        detail: vec![
            ("elapsed_s".to_string(), json!(run.elapsed_s)),
            ("clients".to_string(), json!(CLIENTS)),
            (
                "quality_sample".to_string(),
                quality_detail(&computing, CLIENTS, Workload::ServeDirect),
            ),
            ("cold".to_string(), latency_detail(&cold)),
            ("warm".to_string(), latency_detail(&warm)),
            ("setups_s".to_string(), json!(setups)),
        ],
    })
}

// ---------------------------------------------------------------------------
// The traced run: per-layer metrics.

/// A traced stretch of one serving tier, with what only a live tier can
/// tell: the request floor, its counters, and the journal it wrote.
struct WireSection {
    run: serve::ServeRun,
    spans: Vec<Span>,
    status_rtt_us: f64,
    stats: Value,
    replay_ms: f64,
    journal_bytes_per_job: f64,
    /// Median `stats` round trip of the coordinator's own shard client
    /// (cluster tier only).
    shard_rtt_us: Option<f64>,
}

fn measure_wire(mut session: Session, seconds: f64, origin: Instant) -> Res<WireSection> {
    let (run, spans) = session.run(seconds, true, origin);
    let status_rtt_us = require(median(&session.status_rtts_us(12)?), "status round trips")?;
    let stats = session.stats()?;
    let shard_rtt_us = match session.fleet.shard_addrs().first() {
        Some(addr) => Some(probes::shard_rtt_us(addr)?),
        None => None,
    };
    let journals = probes::replay_all(&session.fleet.journal_paths())?;
    session.close()?;
    Ok(WireSection {
        run,
        spans,
        status_rtt_us,
        stats,
        replay_ms: journals.replay_ms,
        journal_bytes_per_job: journals.bytes as f64 / journals.jobs as f64,
        shard_rtt_us,
    })
}

fn span_median(spans: &[Span], name: &str, scale: f64) -> Res<f64> {
    require(median(&trace::durations_us(spans, name)), name).map(|us| us * scale)
}

/// The metrics both tiers report under their own prefix.
fn wire_metrics(section: &WireSection, names: [&'static str; 8], m: &mut Metrics) -> Res<()> {
    let [status, submit, wait, result, cold50, cold90, warm50, warm90] = names;
    let cold = section.run.latencies_ms(OpKind::Cold);
    let warm = section.run.latencies_ms(OpKind::Warm);
    m.set(status, section.status_rtt_us);
    m.set(submit, span_median(&section.spans, "submit", 1.0)?);
    m.set(wait, span_median(&section.spans, "wait", 1e-3)?);
    m.set(result, span_median(&section.spans, "result", 1.0)?);
    m.set(cold50, require(median(&cold), "cold latency")?);
    m.set(cold90, require(percentile(&cold, 90), "cold latency")?);
    m.set(warm50, require(median(&warm), "warm latency")?);
    m.set(warm90, require(percentile(&warm, 90), "warm latency")?);
    Ok(())
}

/// The number at `path` in a reply; a missing field is an error, not a
/// zero: the protocol changed and the metric would silently lie.
fn number_at(value: &Value, path: &[&str]) -> Res<f64> {
    path.iter()
        .try_fold(value, |v, key| v.get(key))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("no number at {}", path.join(".")))
}

/// `pipeline.*`: the in-process search tier, from its spans, the first
/// search's counts (exact repeats for a seed), and the probed cost of an
/// evaluation.
fn pipeline_metrics(
    search_run: &search::SearchRun,
    search_spans: &[Span],
    eval_costs: &probes::EvalCosts,
    m: &mut Metrics,
) -> Res<()> {
    m.set(
        "pipeline.search_ms_p50",
        span_median(search_spans, "search", 1e-3)?,
    );
    m.set(
        "pipeline.depth_ms_p50",
        span_median(search_spans, "depth", 1e-3)?,
    );
    m.set(
        "pipeline.rung_ms_p50",
        span_median(search_spans, "rung", 1e-3)?,
    );
    let outcome = &search_run
        .ops
        .first()
        .ok_or("the traced search tier completed no search")?
        .outcome;
    let pruned = outcome
        .depth_results
        .iter()
        .flat_map(|d| &d.candidates)
        .filter(|c| c.pruned_at_rung.is_some())
        .count();
    m.set(
        "pipeline.candidates",
        outcome.num_candidates_evaluated as f64,
    );
    m.set("pipeline.pruned", pruned as f64);
    m.set(
        "pipeline.optimizer_evaluations",
        outcome.total_optimizer_evaluations as f64,
    );
    m.set(
        "pipeline.budget_savings_factor",
        outcome.budget_savings_factor(),
    );
    // The share of the workers' time that probed evaluation cost explains:
    // each candidate's evaluations times the probed cost of one, over the
    // search's wall time on all of its threads.
    let explained: Vec<f64> = search_run
        .ops
        .iter()
        .map(|op| {
            let evaluating: f64 = op
                .outcome
                .depth_results
                .iter()
                .flat_map(|d| &d.candidates)
                .map(|c| c.total_evaluations as f64 * eval_costs.of(c.depth, &c.mixer_label))
                .sum();
            evaluating / (op.latency_ms / 1e3 * op.job.threads as f64)
        })
        .collect();
    m.set(
        "pipeline.eval_explained_share",
        require(mean(&explained), "searches")?,
    );

    Ok(())
}

/// `qas.*`, `cluster.*`, and the counters only the tiers themselves keep.
fn tier_metrics(direct: &WireSection, cluster: &WireSection, m: &mut Metrics) -> Res<()> {
    wire_metrics(
        direct,
        [
            "qas.status_rtt_us",
            "qas.submit_rtt_us",
            "qas.wait_ms",
            "qas.result_rtt_us",
            "qas.cold_latency_p50_ms",
            "qas.cold_latency_p90_ms",
            "qas.warm_latency_p50_ms",
            "qas.warm_latency_p90_ms",
        ],
        m,
    )?;
    wire_metrics(
        cluster,
        [
            "cluster.status_rtt_us",
            "cluster.submit_rtt_us",
            "cluster.wait_ms",
            "cluster.result_rtt_us",
            "cluster.cold_latency_p50_ms",
            "cluster.cold_latency_p90_ms",
            "cluster.warm_latency_p50_ms",
            "cluster.warm_latency_p90_ms",
        ],
        m,
    )?;
    let direct_cold = m.get("qas.cold_latency_p50_ms").expect("set above");
    let cluster_cold = m.get("cluster.cold_latency_p50_ms").expect("set above");
    let in_process_cold = m
        .get("server.cold_job_ms")
        .ok_or("server probe did not run")?;
    m.set("qas.proto_overhead_ms", direct_cold - in_process_cold);
    m.set("cluster.hop_overhead_ms", cluster_cold - direct_cold);
    let hits = number_at(&direct.stats, &["cache", "hits"])?;
    let misses = number_at(&direct.stats, &["cache", "misses"])?;
    m.set("cache.hit_ratio", hits / (hits + misses).max(1.0));
    m.set(
        "cache.coalesced",
        number_at(&direct.stats, &["cache", "coalesced"])?,
    );
    m.set("store.replay_ms", direct.replay_ms);
    m.set("store.journal_bytes_per_job", direct.journal_bytes_per_job);
    m.set(
        "cluster.shard_rtt_us",
        cluster
            .shard_rtt_us
            .ok_or("the cluster tier has no shard")?,
    );
    let mut per_shard: BTreeMap<&str, usize> = BTreeMap::new();
    for record in cluster.run.ops.iter().filter(|r| r.op.kind == OpKind::Cold) {
        *per_shard
            .entry(record.shard.as_deref().unwrap_or("?"))
            .or_default() += 1;
    }
    let busiest = per_shard.values().max().copied().unwrap_or(0);
    let idlest = if per_shard.len() < 2 {
        0
    } else {
        per_shard.values().min().copied().unwrap_or(0)
    };
    m.set(
        "cluster.shard_balance",
        busiest as f64 / idlest.max(1) as f64,
    );
    let mut rejected = 0.0;
    for key in [
        "rejected_rate_limit",
        "rejected_quota",
        "rejected_backpressure",
    ] {
        rejected += number_at(&cluster.stats, &["admission", key])?;
    }
    m.set("cluster.admission_rejected", rejected);
    m.set(
        "cluster.migrations",
        number_at(&cluster.stats, &["migrations"])?,
    );

    Ok(())
}

/// How long a traced run drives a tier its workload is not about.
const OFF_PATH_SECONDS: f64 = 2.0;
/// The same for the in-process search tier, whose ops take milliseconds
/// on the serving workloads' tiny job.
const OFF_PATH_SEARCH_SECONDS: f64 = 0.5;

fn per_layer(o: &Options, workload: Workload) -> Res<Outcome> {
    let origin = Instant::now();
    // The workload's own tier gets the whole run length: half untraced,
    // half traced. The driver wants every per-layer metric from every
    // traced run, so the tiers the workload does not touch are driven too,
    // but only for the seconds it takes to collect a sample, and never
    // for longer than the workload's own tier.
    let half = o.seconds / 2.0;
    let wire_seconds = half.min(OFF_PATH_SECONDS);
    let open = |tier| Session::open(&o.qas, &o.run_dir, tier, o.seed);
    let mut off = Tracer::new(origin, false, 0);
    let mut on = Tracer::new(origin, true, 0);

    // The workload itself, untraced then traced: the two rates give the
    // cost of tracing, the traced spans give the workload's own tier. The
    // other tiers follow, shorter, on their standard inputs.
    let (untraced_attempted, mut failures, rate_off, rate_on);
    let (search_run, direct, cluster);
    match workload.tier() {
        None => {
            let job = workload.job(op_seed(o.seed, Domain::Setup, 0, 0));
            search::run_one(&job, &job.dataset(), 0, &mut off)?;
            let untraced = search::run_loop(workload, o.seed, Domain::Timed, half, &mut off);
            // The same searches again, so that the two rates compare.
            search_run = search::run_loop(workload, o.seed, Domain::Timed, half, &mut on);
            rate_off = untraced.evaluations() as f64 / untraced.elapsed_s;
            rate_on = search_run.evaluations() as f64 / search_run.elapsed_s;
            untraced_attempted = untraced.attempted();
            failures = untraced.failures;
            direct = measure_wire(open(Tier::Direct)?, wire_seconds, origin)?;
            cluster = measure_wire(open(Tier::Cluster)?, wire_seconds, origin)?;
        }
        Some(tier) => {
            let mut session = open(tier)?;
            let (untraced, _) = session.run(half, false, origin);
            let own = measure_wire(session, half, origin)?;
            rate_off = untraced.ops.len() as f64 / untraced.elapsed_s;
            rate_on = own.run.ops.len() as f64 / own.run.elapsed_s;
            untraced_attempted = untraced.attempted();
            failures = untraced.failures;
            let other = measure_wire(open(tier.other())?, wire_seconds, origin)?;
            (direct, cluster) = match tier {
                Tier::Direct => (own, other),
                Tier::Cluster => (other, own),
            };
            let seconds = half.min(OFF_PATH_SEARCH_SECONDS);
            search_run = search::run_loop(workload, o.seed, Domain::Probe, seconds, &mut on);
        }
    }
    let search_spans = on.into_spans();
    let main_spans: &[Span] = match workload.tier() {
        None => &search_spans,
        Some(Tier::Direct) => &direct.spans,
        Some(Tier::Cluster) => &cluster.spans,
    };
    let attempted = untraced_attempted
        + search_run.attempted()
        + direct.run.attempted()
        + cluster.run.attempted();
    failures.extend(search_run.failures.iter().cloned());
    failures.extend(direct.run.failures.iter().cloned());
    failures.extend(cluster.run.failures.iter().cloned());
    let mut wrong = verify_searches(&search_run);
    wrong.extend(verify_served(&direct.run)?);
    wrong.extend(verify_served(&cluster.run)?);

    let mut m = Metrics::default();
    let first = search_run
        .ops
        .first()
        .ok_or("the traced search tier completed no search")?;
    let probe_dir = serve::RunDir::create(&o.run_dir)?;
    let eval_costs = probes::run_all(workload, o.seed, &first.outcome, probe_dir.path(), &mut m)?;
    drop(probe_dir);

    pipeline_metrics(&search_run, &search_spans, &eval_costs, &mut m)?;
    tier_metrics(&direct, &cluster, &mut m)?;

    let parent = if workload.tier().is_some() {
        "op"
    } else {
        "search"
    };
    m.set(
        "op.span_coverage",
        require(trace::coverage(main_spans, parent), "operation spans")?,
    );
    m.set(
        "trace.overhead_pct",
        (rate_off - rate_on) / rate_off * 100.0,
    );

    if let Some(path) = &o.trace_out {
        let mut all = main_spans.to_vec();
        if workload.tier().is_some() {
            all.extend(search_spans.iter().cloned());
        }
        std::fs::write(path, trace::to_json_lines(&all))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let own_time: f64 = trace::self_times_us(main_spans).values().sum();
    Ok(Outcome {
        attempted,
        failures,
        wrong,
        metrics: m,
        detail: vec![
            ("spans".to_string(), json!(main_spans.len())),
            ("span_self_time_total_ms".to_string(), json!(own_time / 1e3)),
            ("untraced_rate".to_string(), json!(rate_off)),
            ("traced_rate".to_string(), json!(rate_on)),
            ("direct_ops".to_string(), json!(direct.run.ops.len())),
            ("cluster_ops".to_string(), json!(cluster.run.ops.len())),
            ("searches".to_string(), json!(search_run.ops.len())),
        ],
    })
}

// ---------------------------------------------------------------------------
// Output, and the modes that run several runs.

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where the numbers were taken.
fn machine(seed: u64) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    json!({
        "nproc": (std::thread::available_parallelism().map_or(0, usize::from)),
        "cpu": cpu,
        "rustc": (command_line("rustc", &["-V"])),
        "commit": (command_line("git", &["rev-parse", "HEAD"])),
        "seed": seed,
        "QAS_PARALLEL_THRESHOLD": (std::env::var("QAS_PARALLEL_THRESHOLD").ok()),
        "QAS_BATCH_TILE": (std::env::var("QAS_BATCH_TILE").ok()),
    })
}

/// One workload, one run: detail on stderr, the result line last on stdout.
fn single_run(o: &Options, workload: Workload) -> Res<bool> {
    let outcome = match (o.traced, workload.tier()) {
        (true, _) => per_layer(o, workload)?,
        (false, None) => search_end_to_end(o, workload)?,
        (false, Some(tier)) => serve_end_to_end(o, tier)?,
    };
    let table = if o.traced {
        schema::per_layer_units()
    } else {
        schema::END_TO_END.to_vec()
    };
    let metrics = outcome.metrics.to_json(&table)?;
    let mut detail = vec![
        ("workload".to_string(), json!(workload.name())),
        ("traced".to_string(), json!(o.traced)),
        ("seconds".to_string(), json!(o.seconds)),
        ("machine".to_string(), machine(o.seed)),
    ];
    detail.extend(outcome.detail.iter().cloned());
    let problems: Vec<&String> = outcome
        .failures
        .iter()
        .chain(&outcome.wrong)
        .take(8)
        .collect();
    detail.push(("problems".to_string(), json!(problems)));
    eprintln!(
        "{}",
        serde_json::to_string(&Value::Object(detail)).map_err(|e| e.to_string())?
    );
    let line = json!({
        "correct": (outcome.wrong.is_empty()),
        "attempted": (outcome.attempted),
        "failed": (outcome.failed()),
        "metrics": metrics,
    });
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(outcome.ok())
}

/// Run this executable again for one workload and parse its result line.
fn child_run(o: &Options, workload: Workload, seed: u64, traced: bool) -> Res<Value> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &o.seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .env("QAS_BIN", &o.qas)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{} printed no result", workload.name()))?;
    let result: Value =
        serde_json::from_str(line).map_err(|e| format!("{}: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!("{} failed: {line}", workload.name()));
    }
    Ok(result)
}

fn selected(o: &Options) -> Vec<Workload> {
    o.workload
        .map_or_else(|| Workload::ALL.to_vec(), |w| vec![w])
}

/// Every workload, untraced then traced, as one document. It claims no
/// gain: it is the baseline later changes are measured against.
fn full_report(o: &Options) -> Res<bool> {
    let mut workloads = Vec::new();
    let mut all_ok = true;
    for workload in selected(o) {
        let untraced = child_run(o, workload, o.seed, false);
        let traced = child_run(o, workload, o.seed, true);
        all_ok &= untraced.is_ok() && traced.is_ok();
        let show = |r: Res<Value>| r.unwrap_or_else(|e| json!({ "error": e }));
        workloads.push((
            workload.name().to_string(),
            json!({ "end_to_end": (show(untraced)), "per_layer": (show(traced)) }),
        ));
    }
    // What `BENCHMARK.json` may not hold: each per-layer metric's layer and
    // the end-to-end metrics it should move, on which workloads.
    let layers: Vec<Value> = schema::PER_LAYER
        .iter()
        .map(|(name, unit, moves)| {
            let (metrics, on) = schema::arrow(moves);
            json!({
                "name": (*name),
                "unit": (*unit),
                "layer": (name.split('.').next()),
                "should_move": metrics,
                "on": on,
            })
        })
        .collect();
    let report = json!({
        "benchmark": "perfbench",
        "machine": (machine(o.seed)),
        "seconds_per_run": (o.seconds),
        "workloads": (Value::Object(workloads)),
        "per_layer_schema": layers,
        "claim": null,
    });
    println!(
        "{}",
        serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
    );
    Ok(all_ok)
}

/// The acceptance rule, run here: two sets of ten untraced runs per
/// workload, each run on another seed. A metric is steady when the
/// quartile spread of each set stays within its bound (`setup_s` is
/// exempt from that part) and the second set's median is not worse than
/// the first's by more than the bound.
fn check_repeat(o: &Options) -> Res<bool> {
    let contract: Value =
        serde_json::from_str(schema::BENCHMARK_JSON).map_err(|e| e.to_string())?;
    let declared = contract
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end")?;
    let mut rows = Vec::new();
    let mut steady = true;
    for workload in selected(o) {
        let mut sets: Vec<HashMap<String, Vec<f64>>> = Vec::new();
        for _ in 0..2 {
            let mut values: HashMap<String, Vec<f64>> = HashMap::new();
            for i in 0..RUNS_PER_SET {
                let result = child_run(o, workload, o.seed + i as u64, false)?;
                for (name, _) in schema::END_TO_END {
                    values
                        .entry(name.to_string())
                        .or_default()
                        .push(number_at(&result, &["metrics", name, "value"])?);
                }
            }
            sets.push(values);
        }
        for entry in declared {
            let name = entry
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let bound = entry
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without a bound")?;
            let higher = entry.get("better").and_then(Value::as_str) == Some("higher");
            let medians: Vec<f64> = sets
                .iter()
                .map(|s| median(&s[name]).unwrap_or(f64::NAN))
                .collect();
            let spreads: Vec<f64> = sets
                .iter()
                .map(|s| quartile_spread(&s[name]).unwrap_or(f64::NAN))
                .collect();
            let worse_by = if higher {
                (medians[0] - medians[1]) / medians[0]
            } else {
                (medians[1] - medians[0]) / medians[0]
            };
            let spread_ok = name == "setup_s" || spreads.iter().all(|s| *s <= bound);
            let ok = spread_ok && worse_by <= bound;
            steady &= ok;
            rows.push(json!({
                "workload": (workload.name()),
                "metric": name,
                "medians": medians,
                "spreads": spreads,
                "second_worse_by": worse_by,
                "bound": bound,
                "ok": ok,
            }));
        }
    }
    let report = json!({ "runs_per_set": RUNS_PER_SET, "seconds_per_run": (o.seconds), "rows": rows, "steady": steady });
    println!(
        "{}",
        serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
    );
    Ok(steady)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_options(&args).and_then(|o| match (o.check_repeat, o.workload) {
        (true, _) => check_repeat(&o),
        // The driver's form: one workload, one run.
        (false, Some(workload)) => single_run(&o, workload),
        (false, None) => full_report(&o),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Res<Options> {
        parse_options(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_run_length_has_one_source() {
        let both = parse(&["--quick", "--seconds", "3"]).err().unwrap();
        assert!(both.contains("--quick"), "{both}");
        let other_order = parse(&["--seconds", "3", "--quick"]).err().unwrap();
        assert_eq!(both, other_order);
        // The run count and the run directory are not options.
        for flag in ["--runs", "--run-dir"] {
            let error = parse(&[flag, "5"]).err().unwrap();
            assert!(error.contains("unknown argument"), "{error}");
        }
    }
}
