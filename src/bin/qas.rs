//! `qas` — command-line front end for the QArchSearch reproduction.
//!
//! Subcommands:
//!
//! * `qas search`      — run a mixer search over a generated graph dataset
//! * `qas serve`       — multi-job search server speaking JSON-lines on
//!   stdin/stdout (or a TCP socket with `--port`, concurrent connections)
//! * `qas coordinator` — front N `qas serve --port` shards: content-keyed
//!   routing, heartbeat health checks, checkpoint migration off dead
//!   shards, and admission control at the edge
//! * `qas evaluate`    — train a named mixer (baseline / qnas / custom) on a dataset
//! * `qas problems`    — list the shipped cost-Hamiltonian families
//! * `qas info`        — print the search-space accounting for a configuration
//!
//! Arguments use simple `--key value` pairs (no external CLI dependency).
//! Run `qas help` for the full list.

use qarchsearch_suite::graphs::ProblemKind;
use qarchsearch_suite::prelude::*;
use qarchsearch_suite::qarchsearch::constraints::ConstraintSet;
use qarchsearch_suite::qarchsearch::evaluator::{Evaluator, EvaluatorConfig};
use qarchsearch_suite::qarchsearch::report::SearchReport;
use qarchsearch_suite::qarchsearch::search::SearchStrategy;
use qarchsearch_suite::serde_json::{self, json, Value};
use std::collections::HashMap;
use std::io::{BufRead, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const HELP: &str = "qas — QArchSearch (Rust reproduction) command line

USAGE:
    qas <search|serve|coordinator|evaluate|problems|info|help> [--key value ...]

COMMON OPTIONS:
    --graphs N        number of graphs in the dataset        (default 4)
    --nodes N         nodes per graph                        (default 10)
    --dataset KIND    er | regular                           (default er)
    --seed N          RNG seed                               (default 2023)
    --problem NAME    cost Hamiltonian: maxcut | wmaxcut | mis | sk | partition
                      (default maxcut; run `qas problems` for details)
    --backend NAME    statevector | tensor-network           (default tensor-network)
    --optimizer NAME  cobyla | nelder-mead | spsa | random-search | grid-search
                      (default cobyla)

SEARCH OPTIONS (qas search):
    --pmax N          maximum QAOA depth                     (default 2)
    --kmax N          maximum gates per mixer                (default 2)
    --budget N        optimizer evaluations per candidate    (default 60)
    --alphabet LIST   comma-separated mnemonics, e.g. rx,ry,h (default rx,ry,rz,h,p)
    --strategy S      exhaustive | random:N | egreedy:N | policy:N (default exhaustive)
    --threads N       worker count of the evaluation pipeline (default: all cores)
    --restarts N      optimizer restarts per candidate; the budget and
                      every halving rung are split N ways    (default 1)
    --hardware-aware  apply the hardware-aware constraint preset
    --json            machine-readable SearchReport JSON on stdout,
                      human summary on stderr (shares the serve serialization)

SEARCH PIPELINE OPTIONS (qas search):
    --no-prune        paper-faithful mode: full budget for every candidate,
                      no successive halving, no warm starts, no gate
    --serial          the paper's Algorithm 1: the --no-prune pipeline with
                      one training session at a time (ignores the halving
                      and gate options)
    --first-rung N    budget of the first halving rung       (default 20)
    --eta N           halving rate: keep top 1/eta per rung, budget x eta (default 4)
    --no-warm-start   do not seed depth p from the best depth p-1 angles
    --gate N          admit at most N candidates per depth, ranked by the
                      learned predictor (engages from depth 2 on)

SERVE OPTIONS (qas serve):
    --workers N       concurrent search jobs                 (default 2)
    --queue N         bounded queue capacity                 (default 16)
    --retain N        terminal job records kept (oldest evicted) (default 256)
    --port P          listen on a TCP socket instead of stdin/stdout;
                      connections are served concurrently (thread per
                      connection over the shared job server)
    --bind ADDR       TCP listen address                     (default 127.0.0.1)
    --shard-id NAME   name this server reports in `stats` (cluster observability)
    --fault-plan JSON armed fault-injection plan (chaos tests; inert in
                      release builds)
    --state-dir DIR   durable mode: journal every job to DIR and recover
                      on restart (incomplete jobs resume from their last
                      checkpoint, bit-identical to an uninterrupted run)
    --checkpoint-every N  journal a checkpoint every N completed depths
                      (default 1; durable mode only)
    --cache-capacity N  result-cache entries kept (LRU)       (default 256)
    --cache-dir DIR   persist the result cache to DIR (its own journal;
                      must differ from --state-dir)
    --no-cache        disable result caching, request coalescing, and
                      cross-job evaluator sharing (every submission runs)

    Protocol: one JSON request per line, one JSON response per line.
      {\"cmd\":\"submit\",\"priority\":0,\"name\":\"j1\",\"search\":{<search options>}}
      {\"cmd\":\"status\",\"job\":1}      {\"cmd\":\"events\",\"job\":1,\"since\":0}
      {\"cmd\":\"cancel\",\"job\":1}      {\"cmd\":\"result\",\"job\":1}
      {\"cmd\":\"wait\",\"job\":1}        {\"cmd\":\"forget\",\"job\":1}
      {\"cmd\":\"jobs\"}                 {\"cmd\":\"stats\"}
      {\"cmd\":\"shutdown\"}
    Identical submissions (same search config, graphs, and seed) are served
    from the result cache (`cache_hit` in the result envelope, a
    `cache_hit` event in the stream) or coalesced onto the in-flight
    execution (`coalesced`); `stats` reports both caches' counters.
    `search` takes the `qas search` options by name (booleans for flags),
    e.g. {\"pmax\":2,\"kmax\":1,\"budget\":30,\"serial\":true}. `submit` also
    accepts \"timeout_secs\" (deadline -> timed-out), \"max_retries\" and
    \"retry_backoff_ms\" (transient-failure retries, exponential backoff).
    {\"cmd\":\"submit_spec\",\"spec\":{...}} submits a pre-built JobSpec
    verbatim, optionally with a \"checkpoint\" to resume from — the
    coordinator's migration path. A full queue answers
    {\"ok\":false,\"queue_full\":true,...}.

COORDINATOR OPTIONS (qas coordinator):
    --shards LIST     comma-separated shard addresses, e.g.
                      127.0.0.1:7301,127.0.0.1:7302         (required)
    --shard-state-dirs LIST  the shards' --state-dir paths, aligned with
                      --shards ('-' = none). With a reachable state dir a
                      dead shard's journal is replayed: finished results
                      are adopted and incomplete jobs resume from their
                      last checkpoint on a surviving shard, bit-identical
                      to an uninterrupted run.
    --port P          listen on a TCP socket instead of stdin/stdout
    --bind ADDR       TCP listen address                     (default 127.0.0.1)
    --rate R          admitted submissions per second (token bucket;
                      0 disables rate limiting)              (default 0)
    --burst N         token-bucket capacity                  (default 8)
    --tenant-quota N  max in-flight jobs per tenant (0 = unlimited;
                      submissions carry an optional \"tenant\" field)
    --max-wait-ms N   bounded wait while every shard queue is full before
                      rejecting with a retry-after hint      (default 2000)
    --retry-poll-ms N poll interval of that bounded wait     (default 50)
    --heartbeat-ms N  shard health-check period              (default 250)
    --heartbeat-misses N  consecutive misses before a shard is declared
                      dead and its jobs migrate              (default 3)
    --connect-timeout-ms N  shard TCP connect timeout        (default 1000)
    --request-timeout-ms N  shard request I/O timeout        (default 5000)

    The coordinator speaks the serve protocol verbatim (submit/status/
    events/result/wait/cancel/forget/jobs/stats/shutdown); job ids are
    coordinator-scoped. Extras: `submit` takes \"tenant\"; rejections
    carry \"admission_rejected\":true and \"retry_after_ms\"; `stats`
    aggregates the fleet; {\"cmd\":\"shutdown\",\"shards\":true} also
    shuts the shards down. Identical submissions route to the same shard
    (rendezvous hashing on the content key), so the single-node result
    cache deduplicates cluster-wide.

EVALUATE OPTIONS (qas evaluate):
    --mixer M         baseline | qnas | comma-separated gates (default qnas)
    --depth N         QAOA depth p                           (default 1)
    --budget N        optimizer evaluations                  (default 60)

EXAMPLES:
    qas search --pmax 2 --kmax 2 --threads 8
    qas search --pmax 3 --kmax 2 --no-prune --serial    # paper-faithful
    qas search --problem sk --pmax 2 --kmax 2            # spin-glass search
    qas search --json --pmax 1 --kmax 1 > report.json
    qas serve --workers 4 < jobs.jsonl
    qas serve --state-dir runs/serve-state --workers 4   # crash-safe
    qas serve --port 7301 --state-dir runs/s1 --shard-id s1   # a shard
    qas coordinator --shards 127.0.0.1:7301,127.0.0.1:7302 \\
        --shard-state-dirs runs/s1,runs/s2 --port 7300   # the cluster edge
    qas evaluate --mixer rx,ry --dataset regular --depth 2
    qas evaluate --problem mis --mixer qnas --backend statevector
    qas problems
    qas info --pmax 4 --kmax 4
";

fn parse_args(args: &[String]) -> (HashMap<String, String>, Vec<String>) {
    let mut options = HashMap::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if let Some(key) = arg.strip_prefix("--") {
            // Flag-style options have no value; key-value options consume the
            // next argument.
            let takes_value = i + 1 < args.len() && !args[i + 1].starts_with("--");
            if takes_value {
                options.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.push(key.to_string());
                i += 1;
            }
        } else {
            flags.push(arg.clone());
            i += 1;
        }
    }
    (options, flags)
}

fn opt_usize(options: &HashMap<String, String>, key: &str, default: usize) -> usize {
    options
        .get(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn opt_u64(options: &HashMap<String, String>, key: &str, default: u64) -> u64 {
    options
        .get(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn build_dataset(options: &HashMap<String, String>) -> Vec<Graph> {
    let count = opt_usize(options, "graphs", 4);
    let nodes = opt_usize(options, "nodes", 10);
    let seed = opt_u64(options, "seed", 2023);
    match options.get("dataset").map(|s| s.as_str()).unwrap_or("er") {
        "regular" => graphs::datasets::random_regular_dataset(count, nodes, 4, seed),
        _ => graphs::datasets::erdos_renyi_dataset(count, nodes, seed),
    }
}

fn build_alphabet(options: &HashMap<String, String>) -> Result<GateAlphabet, String> {
    match options.get("alphabet") {
        None => Ok(GateAlphabet::paper_default()),
        Some(spec) => {
            let names: Vec<&str> = spec.split(',').map(|s| s.trim()).collect();
            GateAlphabet::from_mnemonics(&names).map_err(|e| e.to_string())
        }
    }
}

fn build_strategy(options: &HashMap<String, String>) -> Result<SearchStrategy, String> {
    let spec = options
        .get("strategy")
        .map(|s| s.as_str())
        .unwrap_or("exhaustive");
    let parse_count = |s: &str| -> Result<usize, String> {
        s.split(':')
            .nth(1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("strategy '{s}' needs a sample count, e.g. random:20"))
    };
    match spec {
        "exhaustive" => Ok(SearchStrategy::Exhaustive),
        s if s.starts_with("random") => Ok(SearchStrategy::Random {
            samples_per_depth: parse_count(s)?,
        }),
        s if s.starts_with("egreedy") => Ok(SearchStrategy::EpsilonGreedy {
            samples_per_depth: parse_count(s)?,
            epsilon: 0.3,
        }),
        s if s.starts_with("policy") => Ok(SearchStrategy::PolicyGradient {
            samples_per_depth: parse_count(s)?,
            learning_rate: 0.2,
        }),
        other => Err(format!("unknown strategy '{other}'")),
    }
}

/// The three kind enums parse through their `FromStr` impls, which share
/// one `graphs::ParseKindError`; the CLI only stringifies it.
fn build_problem(options: &HashMap<String, String>) -> Result<ProblemKind, String> {
    let seed = opt_u64(options, "seed", 2023);
    match options.get("problem") {
        None => Ok(ProblemKind::MaxCut),
        Some(spec) => spec
            .parse::<ProblemKind>()
            .map(|kind| kind.reseeded(seed))
            .map_err(|e| e.to_string()),
    }
}

fn build_backend(options: &HashMap<String, String>) -> Result<Option<Backend>, String> {
    options
        .get("backend")
        .map(|spec| spec.parse::<Backend>().map_err(|e| e.to_string()))
        .transpose()
}

fn parse_optimizer(options: &HashMap<String, String>) -> Result<Option<OptimizerKind>, String> {
    options
        .get("optimizer")
        .map(|spec| spec.parse::<OptimizerKind>().map_err(|e| e.to_string()))
        .transpose()
}

fn build_mixer(options: &HashMap<String, String>) -> Result<Mixer, String> {
    match options.get("mixer").map(|s| s.as_str()).unwrap_or("qnas") {
        "baseline" | "rx" => Ok(Mixer::baseline()),
        "qnas" => Ok(Mixer::qnas()),
        spec => {
            let gates: Result<Vec<qcircuit::Gate>, String> = spec
                .split(',')
                .map(|s| s.trim().parse::<qcircuit::Gate>())
                .collect();
            Mixer::new(gates?).map_err(|e| e.to_string())
        }
    }
}

/// Assemble a [`SearchConfig`] from CLI-style options + flags. Shared
/// verbatim by `qas search` and the `serve` protocol's `submit` command,
/// so both front doors accept the same knobs.
fn build_search_config(
    options: &HashMap<String, String>,
    flags: &[String],
) -> Result<SearchConfig, String> {
    let alphabet = build_alphabet(options)?;
    let strategy = build_strategy(options)?;
    let k_max = opt_usize(options, "kmax", 2);
    let has_flag = |name: &str| flags.iter().any(|f| f == name);

    let mut builder = SearchConfig::builder()
        .alphabet(alphabet)
        .max_depth(opt_usize(options, "pmax", 2))
        .max_gates_per_mixer(k_max)
        .optimizer_budget(opt_usize(options, "budget", 60))
        .strategy(strategy)
        .problem(build_problem(options)?)
        .seed(opt_u64(options, "seed", 2023));
    if let Some(backend) = build_backend(options)? {
        builder = builder.backend(backend);
    }
    if let Some(optimizer) = parse_optimizer(options)? {
        builder = builder.optimizer(optimizer);
    }
    if has_flag("hardware-aware") {
        builder = builder.constraints(ConstraintSet::hardware_aware(k_max));
    }
    let threads = options.get("threads").and_then(|v| v.parse().ok());
    if let Some(t) = threads {
        builder = builder.threads(t);
    }
    // Pipeline flags: --no-prune is the paper-faithful escape hatch;
    // --serial is the same pipeline trained one session at a time.
    if has_flag("serial") {
        builder = builder.serial().no_prune();
    } else if has_flag("no-prune") {
        builder = builder.no_prune();
    } else {
        builder = builder.halving(
            opt_usize(options, "first-rung", 20),
            opt_usize(options, "eta", 4),
        );
        if has_flag("no-warm-start") {
            builder = builder.warm_start(false);
        }
        if let Some(cap) = options.get("gate").and_then(|v| v.parse().ok()) {
            builder = builder.predictor_gate(cap);
        }
    }
    let mut config = builder.build();
    config.evaluator.restarts = opt_usize(options, "restarts", 1);
    Ok(config)
}

fn print_search_human(outcome: &SearchOutcome, out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(out, "problem          : {}", outcome.problem)?;
    writeln!(out, "best mixer       : {}", outcome.best.mixer_label)?;
    writeln!(out, "found at depth   : {}", outcome.best.depth)?;
    writeln!(out, "mean energy <C>  : {:.4}", outcome.best.energy)?;
    writeln!(out, "approximation r  : {:.4}", outcome.best.approx_ratio)?;
    writeln!(
        out,
        "candidates tried : {}",
        outcome.num_candidates_evaluated
    )?;
    writeln!(
        out,
        "optimizer evals  : {} (full-budget baseline: {}, {:.1}x saved)",
        outcome.total_optimizer_evaluations,
        outcome.full_budget_evaluations,
        outcome.budget_savings_factor()
    )?;
    writeln!(
        out,
        "wall-clock       : {:.2}s",
        outcome.total_elapsed_seconds
    )?;
    for d in &outcome.depth_results {
        let pruned = d
            .candidates
            .iter()
            .filter(|c| c.pruned_at_rung.is_some())
            .count();
        write!(
            out,
            "  depth {}: best energy {:.4} in {:.2}s ({} candidates",
            d.depth,
            d.best_energy,
            d.elapsed_seconds,
            d.candidates.len()
        )?;
        if d.gated_out > 0 {
            write!(out, ", {} gated", d.gated_out)?;
        }
        if pruned > 0 {
            write!(out, ", {pruned} pruned")?;
        }
        writeln!(out, ")")?;
        for (ri, rung) in d.rungs.iter().enumerate() {
            writeln!(
                out,
                "    rung {ri}: {} -> {} candidates at budget {} ({} evals)",
                rung.entrants, rung.survivors, rung.target_budget, rung.evaluations
            )?;
        }
    }
    Ok(())
}

fn cmd_search(options: &HashMap<String, String>, flags: &[String]) -> Result<(), String> {
    let dataset = build_dataset(options);
    let config = build_search_config(options, flags)?;
    let outcome = SearchDriver::new(config)
        .run(&dataset)
        .map_err(|e| e.to_string())?;

    let has_flag = |name: &str| flags.iter().any(|f| f == name);
    if has_flag("json") {
        // Machine-readable report on stdout, human narration on stderr —
        // the same SearchReport serialization the serve protocol returns.
        print_search_human(&outcome, &mut std::io::stderr()).map_err(|e| e.to_string())?;
        println!("{}", SearchReport::from(&outcome).to_json());
    } else {
        print_search_human(&outcome, &mut std::io::stdout()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// qas serve — the JSON-lines multi-job front door.

/// Convert a protocol `search` object into the CLI option map + flags, so
/// `submit` accepts exactly the `qas search` knobs.
fn search_object_to_options(
    search: &Value,
) -> Result<(HashMap<String, String>, Vec<String>), String> {
    let mut options = HashMap::new();
    let mut flags = Vec::new();
    let Some(entries) = search.as_object() else {
        return Err("'search' must be an object of qas search options".to_string());
    };
    for (key, value) in entries {
        match value {
            Value::Bool(true) => flags.push(key.clone()),
            Value::Bool(false) => {}
            Value::String(s) => {
                options.insert(key.clone(), s.clone());
            }
            Value::Number(_) => {
                // Integers format without a trailing fraction, matching the
                // CLI's string parsing.
                let rendered = if let Some(u) = value.as_u64() {
                    u.to_string()
                } else if let Some(i) = value.as_i64() {
                    i.to_string()
                } else {
                    value.as_f64().unwrap_or(0.0).to_string()
                };
                options.insert(key.clone(), rendered);
            }
            other => {
                return Err(format!(
                    "search option '{key}' must be a string, number or boolean (got {})",
                    other.kind()
                ));
            }
        }
    }
    Ok((options, flags))
}

fn job_id_of(request: &Value) -> Result<JobId, String> {
    request
        .get("job")
        .and_then(|v| v.as_u64())
        .map(JobId)
        .ok_or_else(|| "request needs a numeric 'job' field".to_string())
}

fn status_value(status: &JobStatus) -> Value {
    serde_json::to_value(status).unwrap_or(Value::Null)
}

fn result_response(
    server: &JobServer,
    id: JobId,
    result: Option<Result<SearchOutcome, SearchError>>,
) -> Result<Value, String> {
    let status = server.status(id).map_err(|e| e.to_string())?;
    // Serialize the state the same way `status`/`jobs` do (serde's enum
    // tag), so clients match one spelling everywhere.
    let state = serde_json::to_value(&status.state).unwrap_or(Value::Null);
    match result {
        None => Ok(json!({
            "ok": true,
            "job": (id.0),
            "state": state,
            "done": false,
        })),
        Some(Ok(outcome)) => {
            let mut search_report = SearchReport::from(&outcome);
            search_report.served_from_cache = status.cache_hit;
            let report = serde_json::to_value(&search_report).map_err(|e| e.to_string())?;
            Ok(json!({
                "ok": true,
                "job": (id.0),
                "state": state,
                "done": true,
                "cache_hit": (status.cache_hit),
                "coalesced": (status.coalesced),
                "report": report,
            }))
        }
        Some(Err(e)) => Ok(json!({
            "ok": true,
            "job": (id.0),
            "state": state,
            "done": true,
            "error": (e.to_string()),
        })),
    }
}

/// A full queue answers with an explicit `queue_full` marker so the
/// coordinator can distinguish backpressure (retryable) from rejection.
fn queue_full_or_error(e: SearchError) -> Result<Value, String> {
    match e {
        SearchError::QueueFull { .. } => Ok(json!({
            "ok": false,
            "error": (e.to_string()),
            "queue_full": true,
        })),
        other => Err(other.to_string()),
    }
}

/// The accepted-submission envelope. A submission is not necessarily
/// Queued any more: a result-cache hit is born Completed and a coalesced
/// duplicate mirrors its leader, so report the actual post-submit state.
fn submit_envelope(server: &JobServer, id: JobId) -> Result<Value, String> {
    let status = server.status(id).map_err(|e| e.to_string())?;
    let state = serde_json::to_value(&status.state).unwrap_or(Value::Null);
    Ok(json!({
        "ok": true,
        "job": (id.0),
        "state": state,
        "cache_hit": (status.cache_hit),
        "coalesced": (status.coalesced),
    }))
}

/// The job a `submit` request asks for: a spec built from its `search`
/// object, plus its optional scheduling fields.
fn spec_from_submit(request: &Value) -> Result<JobSpec, String> {
    let search = request
        .get("search")
        .ok_or_else(|| "submit needs a 'search' object".to_string())?;
    let (options, flags) = search_object_to_options(search)?;
    let config = build_search_config(&options, &flags)?;
    let graphs = build_dataset(&options);
    let mut spec = JobSpec::new(config, graphs);
    if let Some(priority) = request.get("priority").and_then(|p| p.as_i64()) {
        spec = spec.priority(priority as i32);
    }
    if let Some(name) = request.get("name").and_then(|n| n.as_str()) {
        spec = spec.name(name);
    }
    if let Some(timeout) = request.get("timeout_secs").and_then(|t| t.as_f64()) {
        spec = spec.timeout_secs(timeout);
    }
    if let Some(retries) = request.get("max_retries").and_then(|r| r.as_u64()) {
        spec = spec.max_retries(retries as u32);
    }
    if let Some(backoff) = request.get("retry_backoff_ms").and_then(|b| b.as_u64()) {
        spec = spec.retry_backoff_ms(backoff);
    }
    Ok(spec)
}

/// Handle one protocol line. Returns the JSON response and whether the
/// server should shut down afterwards.
fn handle_serve_line(server: &JobServer, line: &str) -> (Value, bool) {
    let fail = |message: String| (json!({ "ok": false, "error": message }), false);
    let request: Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => return fail(format!("invalid JSON: {e}")),
    };
    let Some(cmd) = request.get("cmd").and_then(|c| c.as_str()) else {
        return fail("request needs a string 'cmd' field".to_string());
    };
    let response = match cmd {
        "submit" => (|| -> Result<Value, String> {
            let spec = spec_from_submit(&request)?;
            let id = match server.submit(spec) {
                Ok(id) => id,
                Err(e) => return queue_full_or_error(e),
            };
            submit_envelope(server, id)
        })(),
        "submit_spec" => (|| -> Result<Value, String> {
            // A pre-built JobSpec, submitted verbatim — the coordinator's
            // placement/migration path. An optional "checkpoint" resumes
            // the search mid-flight (bit-identical to an undisturbed run).
            let spec_value = request
                .get("spec")
                .ok_or_else(|| "submit_spec needs a 'spec' object".to_string())?;
            let spec: JobSpec =
                serde_json::from_value(spec_value).map_err(|e| format!("invalid spec: {e}"))?;
            let checkpoint = match request.get("checkpoint") {
                Some(Value::Null) | None => None,
                Some(value) => Some(
                    serde_json::from_value::<SearchCheckpoint>(value)
                        .map_err(|e| format!("invalid checkpoint: {e}"))?,
                ),
            };
            let id = match server.submit_with_checkpoint(spec, checkpoint) {
                Ok(id) => id,
                Err(e) => return queue_full_or_error(e),
            };
            submit_envelope(server, id)
        })(),
        "status" => job_id_of(&request).and_then(|id| {
            let status = server.status(id).map_err(|e| e.to_string())?;
            Ok(json!({ "ok": true, "status": (status_value(&status)) }))
        }),
        "jobs" => {
            let statuses: Vec<Value> = server.jobs().iter().map(status_value).collect();
            Ok(json!({ "ok": true, "jobs": (Value::Array(statuses)) }))
        }
        "events" => job_id_of(&request).and_then(|id| {
            let since = request.get("since").and_then(|s| s.as_u64()).unwrap_or(0) as usize;
            let (events, next) = server.events_since(id, since).map_err(|e| e.to_string())?;
            let events = serde_json::to_value(&events).map_err(|e| e.to_string())?;
            Ok(json!({ "ok": true, "job": (id.0), "events": events, "next": next }))
        }),
        "cancel" => job_id_of(&request).map(|id| {
            let accepted = server.cancel(id);
            json!({ "ok": true, "job": (id.0), "cancelled": accepted })
        }),
        "forget" => job_id_of(&request).map(|id| {
            let dropped = server.forget(id);
            json!({ "ok": true, "job": (id.0), "forgotten": dropped })
        }),
        "result" => job_id_of(&request).and_then(|id| {
            let result = server.result(id).map_err(|e| e.to_string())?;
            result_response(server, id, result)
        }),
        "stats" => serde_json::to_value(&server.stats())
            .map(|stats| json!({ "ok": true, "stats": stats }))
            .map_err(|e| e.to_string()),
        "wait" => job_id_of(&request).and_then(|id| {
            let result = server.wait(id).map_err(|e| e.to_string())?;
            result_response(server, id, Some(result))
        }),
        "shutdown" => {
            // Wakes connections blocked in `wait` now, before the front
            // door joins them.
            server.begin_shutdown();
            return (json!({ "ok": true, "shutdown": true }), true);
        }
        other => Err(format!("unknown cmd '{other}'")),
    };
    match response {
        Ok(value) => (value, false),
        Err(message) => fail(message),
    }
}

// ---------------------------------------------------------------------------
// Shared JSON-lines front doors. `qas serve` and `qas coordinator` differ
// only in their line handler: (request line) -> (response, stop?).

type LineHandler<'a> = dyn Fn(&str) -> (Value, bool) + Sync + 'a;

fn serve_lines(
    handler: &LineHandler<'_>,
    input: &mut dyn BufRead,
    output: &mut dyn Write,
) -> Result<bool, String> {
    let mut line = String::new();
    loop {
        line.clear();
        let read = input.read_line(&mut line).map_err(|e| e.to_string())?;
        if read == 0 {
            return Ok(false); // EOF: client is done, keep serving others.
        }
        if line.trim().is_empty() {
            continue;
        }
        let (response, shutdown) = handler(line.trim());
        let rendered = serde_json::to_string(&response).map_err(|e| e.to_string())?;
        writeln!(output, "{rendered}").map_err(|e| e.to_string())?;
        output.flush().map_err(|e| e.to_string())?;
        if shutdown {
            return Ok(true);
        }
    }
}

/// The longest request line the TCP front door buffers, in bytes. The
/// largest legitimate line is a `submit_spec` that carries a checkpoint.
const MAX_LINE_BYTES: usize = 64 << 20;

/// Read one `\n`-terminated line off a timeout-armed socket. `read_line`
/// would discard partially-read bytes on a timeout error, so buffering is
/// hand-rolled: timeouts only re-check the shutdown flag and resume.
/// Returns `None` on EOF or shutdown, and an `InvalidData` error once more
/// than [`MAX_LINE_BYTES`] arrive without a newline.
fn read_json_line(
    stream: &mut TcpStream,
    pending: &mut Vec<u8>,
    shutdown: &AtomicBool,
) -> std::io::Result<Option<String>> {
    let mut buf = [0u8; 4096];
    // `pending[..scanned]` is known to hold no newline, so each byte is
    // searched once however many reads the line takes.
    let mut scanned = 0;
    loop {
        if let Some(pos) = pending[scanned..].iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=scanned + pos).collect();
            return Ok(Some(
                String::from_utf8_lossy(&line[..line.len() - 1]).into_owned(),
            ));
        }
        scanned = pending.len();
        if scanned > MAX_LINE_BYTES {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("request line exceeds {MAX_LINE_BYTES} bytes without a newline"),
            ));
        }
        if shutdown.load(Ordering::SeqCst) {
            return Ok(None);
        }
        match stream.read(&mut buf) {
            Ok(0) => return Ok(None),
            Ok(n) => pending.extend_from_slice(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(e) => return Err(e),
        }
    }
}

fn serve_tcp_connection(
    mut stream: TcpStream,
    handler: &LineHandler<'_>,
    shutdown: &AtomicBool,
    local: SocketAddr,
) -> Result<(), String> {
    // A short read timeout keeps every connection thread responsive to a
    // shutdown issued on a *different* connection.
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut respond = |response: &Value| -> Result<(), String> {
        let rendered = serde_json::to_string(response).map_err(|e| e.to_string())?;
        writeln!(writer, "{rendered}").map_err(|e| e.to_string())?;
        writer.flush().map_err(|e| e.to_string())
    };
    let mut pending = Vec::new();
    loop {
        let line = match read_json_line(&mut stream, &mut pending, shutdown) {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(()),
            // An over-long line gets one error answer, then the connection
            // closes: nothing after it can be framed.
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                return respond(&json!({ "ok": false, "error": (e.to_string()) }));
            }
            Err(e) => return Err(e.to_string()),
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let (response, stop) = handler(trimmed);
        respond(&response)?;
        if stop {
            shutdown.store(true, Ordering::SeqCst);
            wake_accept_loop(local);
            return Ok(());
        }
    }
}

/// Unblock a listener stuck in `accept` by connecting to it once (the
/// accept loop re-checks the shutdown flag per connection).
fn wake_accept_loop(local: SocketAddr) {
    let mut addr = local;
    if addr.ip().is_unspecified() {
        match &mut addr {
            SocketAddr::V4(v4) => v4.set_ip(std::net::Ipv4Addr::LOCALHOST),
            SocketAddr::V6(v6) => v6.set_ip(std::net::Ipv6Addr::LOCALHOST),
        }
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
}

/// The concurrent TCP front door: thread per connection over a shared
/// handler, shut down by any connection's `shutdown` command.
fn run_tcp_front_door(
    bind: &str,
    port: u16,
    label: &str,
    handler: &LineHandler<'_>,
) -> Result<(), String> {
    let listener =
        TcpListener::bind((bind, port)).map_err(|e| format!("cannot bind {bind}:{port}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    eprintln!("qas {label}: listening on {local} (JSON lines, concurrent connections)");
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("qas {label}: accept error: {e}");
                    continue;
                }
            };
            let shutdown = &shutdown;
            scope.spawn(move || {
                if let Err(message) = serve_tcp_connection(stream, handler, shutdown, local) {
                    eprintln!("qas {label}: connection error: {message}");
                }
            });
        }
    });
    Ok(())
}

fn cmd_serve(options: &HashMap<String, String>, flags: &[String]) -> Result<(), String> {
    let config = JobServerConfig {
        workers: opt_usize(options, "workers", 2),
        queue_capacity: opt_usize(options, "queue", 16),
        max_retained_jobs: opt_usize(options, "retain", 256),
    };
    let store = options.get("state-dir").map(|dir| {
        StoreConfig::new(dir).checkpoint_every(opt_usize(options, "checkpoint-every", 1))
    });
    let no_cache = flags.iter().any(|f| f == "no-cache");
    let cache = if no_cache {
        if options.contains_key("cache-dir") || options.contains_key("cache-capacity") {
            return Err("--no-cache conflicts with --cache-dir/--cache-capacity".to_string());
        }
        None
    } else {
        let dir = match options.get("cache-dir") {
            Some(dir) => {
                if options.get("state-dir") == Some(dir) {
                    return Err("--cache-dir must differ from --state-dir".to_string());
                }
                Some(dir.into())
            }
            None => None,
        };
        Some(CacheConfig {
            capacity: opt_usize(options, "cache-capacity", CacheConfig::default().capacity),
            dir,
            ..CacheConfig::default()
        })
    };
    let server = JobServer::launch(
        config,
        ServerOptions {
            store,
            faults: build_fault_plan(options)?,
            cache,
            shard_id: options.get("shard-id").cloned(),
        },
    )
    .map_err(|e| format!("cannot open state dir: {e}"))?;
    if let Some(recovery) = server.recovery() {
        eprintln!(
            "qas serve: recovered journal ({} records, {} dropped): {} resumed, {} requeued, {} terminal, previous shutdown {}",
            recovery.journal_records,
            recovery.dropped_records,
            recovery.resumed_jobs,
            recovery.requeued_jobs,
            recovery.terminal_jobs,
            if recovery.clean_shutdown { "clean" } else { "unclean" },
        );
    }
    let handler = |line: &str| handle_serve_line(&server, line);
    run_front_door(options, "serve", &handler)?;
    server.shutdown();
    Ok(())
}

/// Dispatch to the TCP front door (`--port`, `--bind`) or stdin/stdout.
fn run_front_door(
    options: &HashMap<String, String>,
    label: &str,
    handler: &LineHandler<'_>,
) -> Result<(), String> {
    match options.get("port") {
        Some(port) => {
            let port: u16 = port
                .parse()
                .map_err(|_| format!("invalid --port '{port}'"))?;
            let bind = options
                .get("bind")
                .map(|s| s.as_str())
                .unwrap_or("127.0.0.1");
            run_tcp_front_door(bind, port, label, handler)
        }
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut reader = stdin.lock();
            let mut writer = stdout.lock();
            serve_lines(handler, &mut reader, &mut writer).map(|_| ())
        }
    }
}

/// Parse `--fault-plan JSON` into an armed injector (chaos tests; inert
/// in release builds).
fn build_fault_plan(
    options: &HashMap<String, String>,
) -> Result<Option<Arc<FaultInjector>>, String> {
    options
        .get("fault-plan")
        .map(|spec| {
            serde_json::from_str::<FaultPlan>(spec)
                .map(FaultInjector::new)
                .map_err(|e| format!("invalid --fault-plan: {e}"))
        })
        .transpose()
}

// ---------------------------------------------------------------------------
// qas coordinator — the distributed serve tier's front door.

/// Handle one coordinator protocol line (same shape as the serve
/// protocol; see `qarchsearch::cluster` for the routing semantics).
fn handle_coordinator_line(
    coordinator: &Coordinator,
    shutdown_shards: &AtomicBool,
    line: &str,
) -> (Value, bool) {
    let fail = |message: String| (json!({ "ok": false, "error": message }), false);
    let request: Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => return fail(format!("invalid JSON: {e}")),
    };
    let Some(cmd) = request.get("cmd").and_then(|c| c.as_str()) else {
        return fail("request needs a string 'cmd' field".to_string());
    };
    let response = match cmd {
        "submit" => (|| -> Result<Value, String> {
            let spec = spec_from_submit(&request)?;
            let tenant = request
                .get("tenant")
                .and_then(|t| t.as_str())
                .map(str::to_string);
            match coordinator.submit(spec, tenant) {
                Ok(submission) => {
                    let state = serde_json::to_value(&submission.state).unwrap_or(Value::Null);
                    Ok(json!({
                        "ok": true,
                        "job": (submission.id.0),
                        "state": state,
                        "cache_hit": (submission.cache_hit),
                        "coalesced": (submission.coalesced),
                        "shard": (submission.shard),
                    }))
                }
                Err(e @ SearchError::AdmissionDenied { .. }) => {
                    let retry_after_ms = match &e {
                        SearchError::AdmissionDenied { retry_after_ms, .. } => *retry_after_ms,
                        _ => unreachable!(),
                    };
                    Ok(json!({
                        "ok": false,
                        "error": (e.to_string()),
                        "admission_rejected": true,
                        "retry_after_ms": (retry_after_ms),
                    }))
                }
                Err(e) => Err(e.to_string()),
            }
        })(),
        "status" => job_id_of(&request).and_then(|id| {
            let status = coordinator.status(id).map_err(|e| e.to_string())?;
            Ok(json!({ "ok": true, "status": status }))
        }),
        "jobs" => Ok(json!({ "ok": true, "jobs": (Value::Array(coordinator.jobs())) })),
        "events" => job_id_of(&request).and_then(|id| {
            let since = request.get("since").and_then(|s| s.as_u64()).unwrap_or(0) as usize;
            let (events, next) = coordinator.events(id, since).map_err(|e| e.to_string())?;
            Ok(json!({
                "ok": true,
                "job": (id.0),
                "events": (Value::Array(events)),
                "next": (next),
            }))
        }),
        "cancel" => job_id_of(&request).and_then(|id| {
            let accepted = coordinator.cancel(id).map_err(|e| e.to_string())?;
            Ok(json!({ "ok": true, "job": (id.0), "cancelled": accepted }))
        }),
        "forget" => job_id_of(&request).and_then(|id| {
            let dropped = coordinator.forget(id).map_err(|e| e.to_string())?;
            Ok(json!({ "ok": true, "job": (id.0), "forgotten": dropped }))
        }),
        "result" => {
            job_id_of(&request).and_then(|id| coordinator.result(id).map_err(|e| e.to_string()))
        }
        "wait" => {
            job_id_of(&request).and_then(|id| coordinator.wait(id).map_err(|e| e.to_string()))
        }
        "stats" => serde_json::to_value(&coordinator.stats())
            .map(|stats| json!({ "ok": true, "stats": stats }))
            .map_err(|e| e.to_string()),
        "shutdown" => {
            if request.get("shards").and_then(|v| v.as_bool()) == Some(true) {
                shutdown_shards.store(true, Ordering::SeqCst);
            }
            return (json!({ "ok": true, "shutdown": true }), true);
        }
        other => Err(format!("unknown cmd '{other}'")),
    };
    match response {
        Ok(value) => (value, false),
        Err(message) => fail(message),
    }
}

fn cmd_coordinator(options: &HashMap<String, String>) -> Result<(), String> {
    let shard_list = options
        .get("shards")
        .ok_or_else(|| "coordinator needs --shards host:port[,host:port...]".to_string())?;
    let addrs: Vec<String> = shard_list
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if addrs.is_empty() {
        return Err("--shards needs at least one address".to_string());
    }
    let state_dirs: Vec<Option<PathBuf>> = match options.get("shard-state-dirs") {
        Some(spec) => spec
            .split(',')
            .map(|s| {
                let s = s.trim();
                if s.is_empty() || s == "-" {
                    None
                } else {
                    Some(PathBuf::from(s))
                }
            })
            .collect(),
        None => vec![None; addrs.len()],
    };
    if state_dirs.len() != addrs.len() {
        return Err(format!(
            "--shard-state-dirs lists {} entries for {} shards (use '-' for none)",
            state_dirs.len(),
            addrs.len()
        ));
    }
    let shards: Vec<ShardEndpoint> = addrs
        .into_iter()
        .zip(state_dirs)
        .map(|(addr, state_dir)| ShardEndpoint { addr, state_dir })
        .collect();
    let mut config = ClusterConfig::new(shards);
    config.admission = AdmissionConfig {
        rate_per_sec: options
            .get("rate")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0),
        burst: options
            .get("burst")
            .and_then(|v| v.parse().ok())
            .unwrap_or(8),
        tenant_quota: opt_usize(options, "tenant-quota", 0),
        max_wait_ms: opt_u64(options, "max-wait-ms", 2_000),
        retry_poll_ms: opt_u64(options, "retry-poll-ms", 50),
    };
    config.heartbeat_ms = opt_u64(options, "heartbeat-ms", 250);
    config.heartbeat_misses = options
        .get("heartbeat-misses")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    config.connect_timeout_ms = opt_u64(options, "connect-timeout-ms", 1_000);
    config.request_timeout_ms = opt_u64(options, "request-timeout-ms", 5_000);
    config.faults = build_fault_plan(options)?;
    let coordinator = Coordinator::start(config).map_err(|e| e.to_string())?;
    eprintln!(
        "qas coordinator: fronting {} shard(s), {} alive",
        coordinator.stats().shards_total,
        coordinator.alive_shards().len(),
    );
    let shutdown_shards = AtomicBool::new(false);
    let handler = |line: &str| handle_coordinator_line(&coordinator, &shutdown_shards, line);
    run_front_door(options, "coordinator", &handler)?;
    coordinator.shutdown(shutdown_shards.load(Ordering::SeqCst));
    Ok(())
}

fn cmd_evaluate(options: &HashMap<String, String>) -> Result<(), String> {
    let dataset = build_dataset(options);
    let mixer = build_mixer(options)?;
    let problem = build_problem(options)?;
    let depth = opt_usize(options, "depth", 1);
    let mut evaluator_config = EvaluatorConfig {
        budget: opt_usize(options, "budget", 60),
        restarts: opt_usize(options, "restarts", 1),
        problem: problem.clone(),
        ..EvaluatorConfig::default()
    };
    if let Some(backend) = build_backend(options)? {
        evaluator_config.backend = backend;
    }
    if let Some(optimizer) = parse_optimizer(options)? {
        evaluator_config.optimizer = optimizer;
    }
    let evaluator = Evaluator::new(evaluator_config);
    let result = evaluator
        .evaluate(&dataset, &mixer, depth)
        .map_err(|e| e.to_string())?;
    println!("problem          : {}", problem.name());
    println!("mixer            : {}", result.mixer_label);
    println!("depth p          : {}", result.depth);
    println!("mean energy <C>  : {:.4}", result.mean_energy);
    println!("mean approx r    : {:.4}", result.mean_approx_ratio);
    println!("graphs evaluated : {}", result.per_graph.len());
    for (i, trained) in result.per_graph.iter().enumerate() {
        println!(
            "  graph {i}: <C> = {:.4}, r = {:.4}, C* = {:.4} ({})",
            trained.energy,
            trained.approx_ratio,
            trained.classical_optimum,
            trained.classical_quality
        );
    }
    Ok(())
}

fn cmd_problems(options: &HashMap<String, String>) -> Result<(), String> {
    let seed = opt_u64(options, "seed", 2023);
    println!("shipped cost Hamiltonians (use with --problem NAME):\n");
    for kind in ProblemKind::all(seed) {
        println!("  {:<10} {}", kind.name(), kind.description());
    }
    println!(
        "\nStochastic families (wmaxcut, sk, partition) draw their instances\n\
         deterministically from --seed (default 2023). Custom Hamiltonians can\n\
         be defined in code via graphs::Problem::from_terms."
    );
    Ok(())
}

fn cmd_info(options: &HashMap<String, String>) -> Result<(), String> {
    let alphabet = build_alphabet(options)?;
    let p_max = opt_usize(options, "pmax", 4);
    let k_max = opt_usize(options, "kmax", 4);
    println!(
        "alphabet          : {alphabet} (|A_R| = {})",
        alphabet.len()
    );
    println!("depths searched   : 1..={p_max}");
    println!("gates per mixer   : 1..={k_max}");
    for k in 1..=k_max {
        println!("  length-{k} sequences: {}", alphabet.combination_count(k));
    }
    println!(
        "per-depth candidates (all lengths): {}",
        alphabet.all_combinations_up_to(k_max).len()
    );
    println!(
        "paper-style accounting (p_max × |A_R|^k_max): {}",
        alphabet.search_space_size(p_max, k_max)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(|s| s.as_str()).unwrap_or("help");
    let (options, flags) = parse_args(&args[1.min(args.len())..]);

    let result = match command {
        "search" => cmd_search(&options, &flags),
        "serve" => cmd_serve(&options, &flags),
        "coordinator" => cmd_coordinator(&options),
        "evaluate" => cmd_evaluate(&options),
        "problems" => cmd_problems(&options),
        "info" => cmd_info(&options),
        "help" | "--help" | "-h" => {
            println!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'; run `qas help`")),
    };

    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
