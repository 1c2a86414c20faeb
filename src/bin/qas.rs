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
use qarchsearch_suite::qarchsearch::cluster::shard::read_bounded_line;
use qarchsearch_suite::qarchsearch::constraints::ConstraintSet;
use qarchsearch_suite::qarchsearch::evaluator::{Evaluator, EvaluatorConfig};
use qarchsearch_suite::qarchsearch::report::SearchReport;
use qarchsearch_suite::qarchsearch::search::SearchStrategy;
use qarchsearch_suite::qarchsearch::server::{error_reply, Reply};
use qarchsearch_suite::serde_json::{self, json, Value};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
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
    --strategy S      exhaustive | random:N                  (default exhaustive)
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
    --gate N          admit at most N candidates per depth, ranked by
                      earlier depths' energies (engages from depth 2 on)

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
      {\"cmd\":\"wait_any\",\"jobs\":[1,2],\"since\":0}
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
    `wait_any` blocks until a listed job has ended, the server's completion
    count passes \"since\", or shutdown begins, and answers
    {\"ok\":true,\"since\":<count>,\"done\":[{\"status\",\"outcome\",\"error\"}...]}
    (each ended job's status and result): a coordinator's one completion
    watcher per shard.

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

    The coordinator is a job server whose jobs run on the shards: it answers
    the serve protocol with the same verbs and envelopes; job ids are
    coordinator-scoped, and placed jobs' envelopes add \"shard\" and
    \"migrations\". Admission rejections carry \"admission_rejected\":true
    and \"retry_after_ms\"; `stats` aggregates the fleet;
    {\"cmd\":\"shutdown\",\"shards\":true} also shuts the shards down.
    Identical submissions route to the same shard (rendezvous hashing on
    the content key), so the single-node result cache deduplicates
    cluster-wide.

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

/// The options (`--key value`) and flags (`--key`) one command accepts.
struct Accepted {
    options: &'static [&'static str],
    flags: &'static [&'static str],
}

/// What each command accepts, `None` for an unknown command.
fn accepted(command: &str) -> Option<Accepted> {
    let (options, flags): (&[&str], &[&str]) = match command {
        "search" => (
            &[
                "graphs",
                "nodes",
                "dataset",
                "seed",
                "problem",
                "backend",
                "optimizer",
                "pmax",
                "kmax",
                "budget",
                "alphabet",
                "strategy",
                "threads",
                "restarts",
                "first-rung",
                "eta",
                "gate",
            ],
            &[
                "hardware-aware",
                "json",
                "no-prune",
                "serial",
                "no-warm-start",
            ],
        ),
        "serve" => (
            &[
                "workers",
                "queue",
                "retain",
                "port",
                "bind",
                "shard-id",
                "fault-plan",
                "state-dir",
                "checkpoint-every",
                "cache-capacity",
                "cache-dir",
            ],
            &["no-cache"],
        ),
        "coordinator" => (
            &[
                "shards",
                "shard-state-dirs",
                "port",
                "bind",
                "rate",
                "burst",
                "tenant-quota",
                "max-wait-ms",
                "retry-poll-ms",
                "heartbeat-ms",
                "heartbeat-misses",
                "connect-timeout-ms",
                "request-timeout-ms",
                "fault-plan",
            ],
            &[],
        ),
        "evaluate" => (
            &[
                "graphs",
                "nodes",
                "dataset",
                "seed",
                "problem",
                "backend",
                "optimizer",
                "mixer",
                "depth",
                "budget",
                "restarts",
            ],
            &[],
        ),
        "problems" => (&["seed"], &[]),
        "info" => (&["alphabet", "pmax", "kmax"], &[]),
        _ => return None,
    };
    Some(Accepted { options, flags })
}

/// Split a command's arguments into `--key value` options and `--key`
/// flags. Anything the command does not accept is an error naming it, and
/// so is an option whose value is missing (the end of the line, or another
/// `--key` in its place).
fn parse_args(
    accepted: &Accepted,
    args: &[String],
) -> Result<(HashMap<String, String>, Vec<String>), String> {
    let mut options = HashMap::new();
    let mut flags = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{arg}'"))?;
        if accepted.flags.contains(&key) {
            flags.push(key.to_string());
        } else if accepted.options.contains(&key) {
            let value = args
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("--{key} needs a value"))?;
            options.insert(key.to_string(), value.clone());
        } else {
            return Err(format!("unknown option --{key}; run `qas help`"));
        }
    }
    Ok((options, flags))
}

/// `--key`'s value, `None` when it is absent, and an error naming the
/// option and the value when it does not parse.
fn opt_parsed<T: std::str::FromStr>(
    options: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    options
        .get(key)
        .map(|v| v.parse().map_err(|_| format!("invalid --{key} '{v}'")))
        .transpose()
}

/// `--key`'s value, or `default` when it is absent.
fn opt<T: std::str::FromStr>(
    options: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    Ok(opt_parsed(options, key)?.unwrap_or(default))
}

fn build_dataset(options: &HashMap<String, String>) -> Result<Vec<Graph>, String> {
    let count = opt(options, "graphs", 4)?;
    let nodes = opt(options, "nodes", 10)?;
    let seed = opt(options, "seed", 2023)?;
    match options.get("dataset").map(|s| s.as_str()).unwrap_or("er") {
        "er" => Ok(graphs::datasets::erdos_renyi_dataset(count, nodes, seed)),
        "regular" => Ok(graphs::datasets::random_regular_dataset(
            count, nodes, 4, seed,
        )),
        other => Err(format!(
            "unknown --dataset '{other}' (expected er or regular)"
        )),
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

/// `--strategy`: exactly `exhaustive` or `random:N`.
fn build_strategy(options: &HashMap<String, String>) -> Result<SearchStrategy, String> {
    let Some(spec) = options.get("strategy") else {
        return Ok(SearchStrategy::Exhaustive);
    };
    if spec == "exhaustive" {
        return Ok(SearchStrategy::Exhaustive);
    }
    spec.strip_prefix("random:")
        .and_then(|n| n.parse().ok())
        .map(|samples_per_depth| SearchStrategy::Random { samples_per_depth })
        .ok_or_else(|| {
            format!("invalid --strategy '{spec}' (expected exhaustive or random:N, e.g. random:20)")
        })
}

/// The three kind enums parse through their `FromStr` impls, which share
/// one `graphs::ParseKindError`; the CLI only stringifies it.
fn build_problem(options: &HashMap<String, String>) -> Result<ProblemKind, String> {
    let seed = opt(options, "seed", 2023)?;
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
    let k_max = opt(options, "kmax", 2)?;
    let has_flag = |name: &str| flags.iter().any(|f| f == name);

    let mut builder = SearchConfig::builder()
        .alphabet(alphabet)
        .max_depth(opt(options, "pmax", 2)?)
        .max_gates_per_mixer(k_max)
        .optimizer_budget(opt(options, "budget", 60)?)
        .strategy(strategy)
        .problem(build_problem(options)?)
        .seed(opt(options, "seed", 2023)?);
    if let Some(backend) = build_backend(options)? {
        builder = builder.backend(backend);
    }
    if let Some(optimizer) = parse_optimizer(options)? {
        builder = builder.optimizer(optimizer);
    }
    if has_flag("hardware-aware") {
        builder = builder.constraints(ConstraintSet::hardware_aware(k_max));
    }
    if let Some(threads) = opt_parsed(options, "threads")? {
        builder = builder.threads(threads);
    }
    // Pipeline flags: --no-prune is the paper-faithful escape hatch;
    // --serial is the same pipeline trained one session at a time.
    if has_flag("serial") {
        builder = builder.serial().no_prune();
    } else if has_flag("no-prune") {
        builder = builder.no_prune();
    } else {
        builder = builder.halving(opt(options, "first-rung", 20)?, opt(options, "eta", 4)?);
        if has_flag("no-warm-start") {
            builder = builder.warm_start(false);
        }
        if let Some(cap) = opt_parsed(options, "gate")? {
            builder = builder.predictor_gate(cap);
        }
    }
    let mut config = builder.build();
    config.evaluator.restarts = opt(options, "restarts", 1)?;
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
        if d.folded > 0 {
            write!(out, ", {} folded", d.folded)?;
        }
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
    let dataset = build_dataset(options)?;
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
/// `submit` accepts exactly the `qas search` knobs: a key `qas search` does
/// not take, a value option that is not a string or number, a flag that is
/// not a boolean, or `json` (which only changes how `qas search` prints) is
/// an error naming the key.
fn search_object_to_options(
    search: &Value,
) -> Result<(HashMap<String, String>, Vec<String>), String> {
    let accepted = accepted("search").expect("search is a command");
    let mut options = HashMap::new();
    let mut flags = Vec::new();
    let Some(entries) = search.as_object() else {
        return Err("'search' must be an object of qas search options".to_string());
    };
    for (key, value) in entries {
        if accepted.flags.contains(&key.as_str()) {
            let Value::Bool(set) = value else {
                return Err(format!(
                    "search flag '{key}' must be a boolean (got {})",
                    value.kind()
                ));
            };
            if key == "json" {
                return Err("search flag 'json' only changes how `qas search` prints; \
                     a served report is always JSON"
                    .to_string());
            }
            if *set {
                flags.push(key.clone());
            }
            continue;
        }
        if !accepted.options.contains(&key.as_str()) {
            return Err(format!(
                "unknown search option '{key}'; run `qas help` for the qas search options"
            ));
        }
        let rendered = match value {
            Value::String(s) => s.clone(),
            // Integers format without a trailing fraction, matching the
            // CLI's string parsing.
            Value::Number(_) => {
                if let Some(u) = value.as_u64() {
                    u.to_string()
                } else if let Some(i) = value.as_i64() {
                    i.to_string()
                } else {
                    value.as_f64().unwrap_or(0.0).to_string()
                }
            }
            other => {
                return Err(format!(
                    "search option '{key}' must be a string or number (got {})",
                    other.kind()
                ));
            }
        };
        options.insert(key.clone(), rendered);
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

/// A top-level request field read by `read`: `None` when it is absent or
/// `null`, and an error naming the field when `read` refuses its value.
fn field<'a, T>(
    request: &'a Value,
    key: &str,
    read: impl Fn(&'a Value) -> Option<T>,
    expected: &str,
) -> Result<Option<T>, String> {
    match request.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(value) => read(value)
            .map(Some)
            .ok_or_else(|| format!("'{key}' must be {expected}")),
    }
}

/// The job a `submit` request asks for: a spec built from its `search`
/// object, plus its optional scheduling fields.
fn spec_from_submit(request: &Value) -> Result<JobSpec, String> {
    let search = request
        .get("search")
        .ok_or_else(|| "submit needs a 'search' object".to_string())?;
    let (options, flags) = search_object_to_options(search)?;
    let config = build_search_config(&options, &flags)?;
    let graphs = build_dataset(&options)?;
    let mut spec = JobSpec::new(config, graphs);
    if let Some(priority) = field(request, "priority", Value::as_i64, "an integer")? {
        let priority = i32::try_from(priority)
            .map_err(|_| format!("'priority' {priority} is out of range for a 32-bit integer"))?;
        spec = spec.priority(priority);
    }
    if let Some(name) = field(request, "name", Value::as_str, "a string")? {
        spec = spec.name(name);
    }
    if let Some(timeout) = field(request, "timeout_secs", Value::as_f64, "a number")? {
        spec = spec.timeout_secs(timeout);
    }
    let count = "a non-negative integer";
    if let Some(retries) = field(request, "max_retries", Value::as_u64, count)? {
        let retries = u32::try_from(retries).map_err(|_| {
            format!("'max_retries' {retries} is out of range for a 32-bit unsigned integer")
        })?;
        spec = spec.max_retries(retries);
    }
    if let Some(backoff) = field(request, "retry_backoff_ms", Value::as_u64, count)? {
        spec = spec.retry_backoff_ms(backoff);
    }
    Ok(spec)
}

/// Handle one protocol line for `server`: parse it, answer `shutdown`
/// after `begin_shutdown` (which wakes connections blocked in `wait`
/// before the front door joins them), hand every other `cmd` to
/// [`serve_verb`], and answer an `Err` with `ok:false`. Returns the JSON
/// response and whether the server should shut down afterwards.
fn handle_line(
    line: &str,
    server: &JobServer,
    begin_shutdown: impl FnOnce(&Value),
) -> (Value, bool) {
    let response = match serde_json::from_str::<Value>(line) {
        Err(e) => Err(format!("invalid JSON: {e}")),
        Ok(request) => match request.get("cmd").and_then(Value::as_str) {
            None => Err("request needs a string 'cmd' field".to_string()),
            Some("shutdown") => {
                begin_shutdown(&request);
                return (json!({ "ok": true, "shutdown": true }), true);
            }
            Some(cmd) => serve_verb(server, cmd, &request),
        },
    };
    let response = response.unwrap_or_else(|message| json!({ "ok": false, "error": message }));
    (response, false)
}

/// Answer one protocol verb other than `shutdown`, for `qas serve` and
/// `qas coordinator` alike: every envelope is [`JobServer::reply`]'s.
fn serve_verb(server: &JobServer, cmd: &str, request: &Value) -> Result<Value, String> {
    let reply = |reply: Reply| server.reply(reply).map_err(|e| e.to_string());
    let job = || job_id_of(request);
    match cmd {
        "submit" | "submit_spec" => (|| -> Result<Value, String> {
            // `submit_spec` carries a pre-built JobSpec, submitted verbatim
            // — a coordinator's placement and migration path — optionally
            // with a "checkpoint" to resume from (bit-identical to an
            // undisturbed run).
            let (spec, checkpoint) = if cmd == "submit" {
                (spec_from_submit(request)?, None)
            } else {
                let spec = request
                    .get("spec")
                    .ok_or_else(|| "submit_spec needs a 'spec' object".to_string())?;
                let spec =
                    serde_json::from_value(spec).map_err(|e| format!("invalid spec: {e}"))?;
                let checkpoint = match request.get("checkpoint") {
                    Some(Value::Null) | None => None,
                    Some(value) => Some(
                        serde_json::from_value::<SearchCheckpoint>(value)
                            .map_err(|e| format!("invalid checkpoint: {e}"))?,
                    ),
                };
                (spec, checkpoint)
            };
            let tenant = field(request, "tenant", Value::as_str, "a string")?.map(str::to_string);
            match server.submit_as(spec, checkpoint, tenant) {
                Ok(id) => reply(Reply::Submitted(id)),
                Err(e) => Ok(error_reply(&e)),
            }
        })(),
        "status" => job().and_then(|id| reply(Reply::Status(id))),
        "jobs" => reply(Reply::Jobs),
        "events" => job().and_then(|id| {
            let since = field(request, "since", Value::as_u64, "a non-negative integer")?;
            let since = since.unwrap_or(0) as usize;
            let (events, next) = server.events_since(id, since).map_err(|e| e.to_string())?;
            Ok(json!({ "ok": true, "job": (id.0), "events": events, "next": next }))
        }),
        "cancel" => job().map(|id| {
            let accepted = server.cancel(id);
            json!({ "ok": true, "job": (id.0), "cancelled": accepted })
        }),
        "forget" => job().map(|id| {
            let dropped = server.forget(id);
            json!({ "ok": true, "job": (id.0), "forgotten": dropped })
        }),
        "result" => job().and_then(|id| reply(Reply::Result(id))),
        "stats" => reply(Reply::Stats),
        "wait" => job().and_then(|id| {
            let _ = server.wait(id).map_err(|e| e.to_string())?;
            reply(Reply::Result(id))
        }),
        "wait_any" => (|| -> Result<Value, String> {
            let ids: Vec<JobId> = request
                .get("jobs")
                .and_then(Value::as_array)
                .ok_or_else(|| "wait_any needs a 'jobs' array".to_string())?
                .iter()
                .map(|id| id.as_u64().map(JobId))
                .collect::<Option<_>>()
                .ok_or_else(|| "'jobs' must list non-negative integer job ids".to_string())?;
            let since = field(request, "since", Value::as_u64, "a non-negative integer")?;
            let since = since.unwrap_or(0);
            let (since, done) = server.wait_any(&ids, since);
            // A job forgotten since it ended is left out, as unknown ids are.
            let done: Vec<Value> = done
                .into_iter()
                .filter_map(|id| server.reply(Reply::Ended(id)).ok())
                .collect();
            Ok(json!({ "ok": true, "since": since, "done": (Value::Array(done)) }))
        })(),
        _ => Err(format!("unknown cmd '{cmd}'")),
    }
}

// ---------------------------------------------------------------------------
// Shared JSON-lines front doors. `qas serve` and `qas coordinator` differ
// only in the job server their line handler answers from, and in what a
// `shutdown` also stops: (request line) -> (response, stop?).

type LineHandler<'a> = dyn Fn(&str) -> (Value, bool) + Sync + 'a;

/// Answer request lines until EOF, a `shutdown` (returns `true`), or a line
/// longer than the limit, which gets one `ok:false` answer and ends the
/// loop: nothing after it can be framed.
fn serve_lines(
    handler: &LineHandler<'_>,
    input: &mut dyn BufRead,
    output: &mut dyn Write,
) -> Result<bool, String> {
    let mut respond = |response: &Value| -> Result<(), String> {
        let rendered = serde_json::to_string(response).map_err(|e| e.to_string())?;
        writeln!(output, "{rendered}").map_err(|e| e.to_string())?;
        output.flush().map_err(|e| e.to_string())
    };
    loop {
        let line = match read_bounded_line(input) {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(false), // EOF: client is done, keep serving others.
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                respond(&json!({ "ok": false, "error": (e.to_string()) }))?;
                return Ok(false);
            }
            Err(e) => return Err(e.to_string()),
        };
        if line.trim().is_empty() {
            continue;
        }
        let (response, shutdown) = handler(line.trim());
        respond(&response)?;
        if shutdown {
            return Ok(true);
        }
    }
}

/// Unblock a listener stuck in `accept` by connecting to it once (the
/// accept loop re-checks for shutdown per connection).
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
/// handler, shut down by any connection's `shutdown` command. Reads block
/// without a timeout; the stopping connection shuts down the read side of
/// every other open connection, so each blocked read returns EOF.
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
    // A second handle on each open connection, by accept number; `None`
    // once the server is shutting down.
    let open: Mutex<Option<HashMap<usize, TcpStream>>> = Mutex::new(Some(HashMap::new()));
    let lock = || open.lock().unwrap_or_else(PoisonError::into_inner);
    std::thread::scope(|scope| {
        for (n, stream) in listener.incoming().enumerate() {
            let (stream, handle) = match stream.and_then(|s| s.try_clone().map(|h| (s, h))) {
                Ok(pair) => pair,
                Err(e) => {
                    eprintln!("qas {label}: accept error: {e}");
                    continue;
                }
            };
            match lock().as_mut() {
                Some(connections) => connections.insert(n, handle),
                None => break,
            };
            scope.spawn(move || {
                let outcome = serve_lines(handler, &mut BufReader::new(&stream), &mut &stream);
                let mut connections = lock();
                if let Some(open) = connections.as_mut() {
                    open.remove(&n);
                }
                match outcome {
                    Ok(true) => {
                        for (_, other) in connections.take().into_iter().flatten() {
                            let _ = other.shutdown(Shutdown::Read);
                        }
                        drop(connections);
                        wake_accept_loop(local);
                    }
                    Ok(false) => {}
                    Err(message) => eprintln!("qas {label}: connection error: {message}"),
                }
            });
        }
    });
    Ok(())
}

fn cmd_serve(options: &HashMap<String, String>, flags: &[String]) -> Result<(), String> {
    let config = JobServerConfig {
        workers: opt(options, "workers", 2)?,
        queue_capacity: opt(options, "queue", 16)?,
        max_retained_jobs: opt(options, "retain", 256)?,
    };
    let checkpoint_every = opt(options, "checkpoint-every", 1)?;
    let store = options
        .get("state-dir")
        .map(|dir| StoreConfig::new(dir).checkpoint_every(checkpoint_every));
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
            capacity: opt(options, "cache-capacity", CacheConfig::default().capacity)?,
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
    let handler = |line: &str| handle_line(line, &server, |_| server.begin_shutdown());
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
        rate_per_sec: opt(options, "rate", 0.0)?,
        burst: opt(options, "burst", 8)?,
        tenant_quota: opt(options, "tenant-quota", 0)?,
        max_wait_ms: opt(options, "max-wait-ms", 2_000)?,
        retry_poll_ms: opt(options, "retry-poll-ms", 50)?,
    };
    config.heartbeat_ms = opt(options, "heartbeat-ms", 250)?;
    config.heartbeat_misses = opt(options, "heartbeat-misses", 3)?;
    config.connect_timeout_ms = opt(options, "connect-timeout-ms", 1_000)?;
    config.request_timeout_ms = opt(options, "request-timeout-ms", 5_000)?;
    config.faults = build_fault_plan(options)?;
    let coordinator = Coordinator::start(config).map_err(|e| e.to_string())?;
    let stats = coordinator.stats();
    let (total, alive) = (stats.shards_total, stats.shards_alive);
    eprintln!("qas coordinator: fronting {total} shard(s), {alive} alive");
    let shutdown_shards = AtomicBool::new(false);
    let handler = |line: &str| {
        handle_line(line, coordinator.server(), |request| {
            if request.get("shards").and_then(Value::as_bool) == Some(true) {
                shutdown_shards.store(true, Ordering::SeqCst);
            }
            coordinator.server().begin_shutdown();
        })
    };
    run_front_door(options, "coordinator", &handler)?;
    coordinator.shutdown(shutdown_shards.load(Ordering::SeqCst));
    Ok(())
}

fn cmd_evaluate(options: &HashMap<String, String>) -> Result<(), String> {
    let dataset = build_dataset(options)?;
    let mixer = build_mixer(options)?;
    let problem = build_problem(options)?;
    let depth = opt(options, "depth", 1)?;
    let mut evaluator_config = EvaluatorConfig {
        budget: opt(options, "budget", 60)?,
        restarts: opt(options, "restarts", 1)?,
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
    let seed = opt(options, "seed", 2023)?;
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
    let p_max = opt(options, "pmax", 4)?;
    let k_max = opt(options, "kmax", 4)?;
    println!(
        "alphabet          : {alphabet} (|A_R| = {})",
        alphabet.len()
    );
    println!("depths searched   : 1..={p_max}");
    println!("gates per mixer   : 1..={k_max}");
    for k in 1..=k_max {
        println!("  length-{k} sequences: {}", alphabet.combination_count(k));
    }
    let distinct = alphabet.distinct_mixers_up_to(k_max);
    println!(
        "per-depth candidates (all lengths): {} sequences -> {distinct} distinct mixers",
        alphabet.all_combinations_up_to(k_max).len()
    );
    println!(
        "paper-style accounting (p_max × |A_R|^k_max): {}",
        alphabet.search_space_size(p_max, k_max)
    );
    println!(
        "trained per search (p_max × distinct mixers): {}",
        p_max * distinct
    );
    Ok(())
}

fn run(command: &str, args: &[String]) -> Result<(), String> {
    if matches!(command, "help" | "--help" | "-h") {
        println!("{HELP}");
        return Ok(());
    }
    let accepted =
        accepted(command).ok_or_else(|| format!("unknown command '{command}'; run `qas help`"))?;
    let (options, flags) = parse_args(&accepted, args)?;
    match command {
        "search" => cmd_search(&options, &flags),
        "serve" => cmd_serve(&options, &flags),
        "coordinator" => cmd_coordinator(&options),
        "evaluate" => cmd_evaluate(&options),
        "problems" => cmd_problems(&options),
        "info" => cmd_info(&options),
        _ => unreachable!("`accepted` knows every command"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(|s| s.as_str()).unwrap_or("help");
    match run(command, &args[1.min(args.len())..]) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
