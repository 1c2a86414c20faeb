//! The names and units of everything the benchmark prints. `BENCHMARK.json`
//! at the repository root declares the same lists to the driver; a test
//! below fails when the two disagree.

/// What a user of the system sees; printed by the untraced run, for every
/// workload. Bounds live in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("evals_per_s", "1/s"),
    ("cold_latency_ms", "ms"),
    ("approx_ratio_mean", "ratio"),
    ("peak_rss_mib", "MiB"),
];

// The arrows several rows of `PER_LAYER` share.
const KERNELS: &str = "evals_per_s,cold_latency_ms,ops_per_s @ search_deep";
const BOOKKEEPING: &str = "cold_latency_ms,ops_per_s @ search_wide";
const TRAINING: &str = "cold_latency_ms,ops_per_s @ search_deep,search_wide";
const SELF_CHECK: &str = "-";
const OVERHEAD: &str = "evals_per_s,cold_latency_ms @ search_wide";
const CONTRACTION: &str = "evals_per_s,cold_latency_ms,ops_per_s @ search_tn";
const SEARCH_TIME: &str = "cold_latency_ms,ops_per_s @ search_deep,search_wide,search_tn";
const SEARCH_QUALITY: &str = "approx_ratio_mean @ search_deep,search_wide,search_tn";
const SERVED_OP: &str = "cold_latency_ms,ops_per_s @ serve_direct,serve_cluster";
const WARM_PATH: &str = "ops_per_s @ serve_direct,serve_cluster";
const COLD_PATH: &str = "cold_latency_ms @ serve_direct,serve_cluster";
const WIRE: &str = "cold_latency_ms,ops_per_s,evals_per_s @ serve_direct,serve_cluster";
const HOP: &str = "cold_latency_ms,ops_per_s @ serve_cluster";

/// Single layers; printed by the traced run, for every workload. The
/// layer is the name up to the first dot — the module the number belongs
/// to. The third column is the arrow `BENCHMARK.json` has no key for: the
/// end-to-end metrics a change to the layer should move, `@` the workloads
/// where it should; everywhere else the prediction is *no change*. `-`
/// marks a check on the benchmark itself (a count that must not drift, the
/// tracer's own cost): a change there means the workload changed.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("statevec.one_qubit_pass_us", "us", KERNELS),
    ("statevec.two_qubit_pass_us", "us", KERNELS),
    ("statevec.phase_pass_us", "us", KERNELS),
    ("statevec.expectation_us", "us", KERNELS),
    ("statevec.one_qubit_gbs", "GB/s", KERNELS),
    ("statevec.compile_us", "us", BOOKKEEPING),
    ("qaoa.evaluator_build_ms", "ms", TRAINING),
    ("qaoa.compile_us", "us", BOOKKEEPING),
    ("qaoa.energy_eval_us", "us", KERNELS),
    ("qaoa.energy_eval_b8_us", "us", KERNELS),
    ("qaoa.train_ms", "ms", TRAINING),
    ("qaoa.train_evals", "count", SELF_CHECK),
    ("qaoa.train_overhead_share", "ratio", OVERHEAD),
    ("optim.step_us", "us", OVERHEAD),
    ("tensornet.energy_eval_us", "us", CONTRACTION),
    (
        "tensornet.lightcone_width_max",
        "count",
        "cold_latency_ms,peak_rss_mib @ search_tn",
    ),
    ("graphs.bracket_ms", "ms", BOOKKEEPING),
    (
        "evaluator.evaluate_ms",
        "ms",
        "cold_latency_ms,ops_per_s @ search_wide,serve_direct,serve_cluster",
    ),
    ("evaluator.energy_cache_hit_ratio", "ratio", BOOKKEEPING),
    ("pipeline.search_ms_p50", "ms", SEARCH_TIME),
    ("pipeline.depth_ms_p50", "ms", SEARCH_TIME),
    ("pipeline.rung_ms_p50", "ms", SEARCH_TIME),
    ("pipeline.candidates", "count", SEARCH_QUALITY),
    ("pipeline.pruned", "count", SEARCH_QUALITY),
    ("pipeline.optimizer_evaluations", "count", SEARCH_QUALITY),
    ("pipeline.budget_savings_factor", "ratio", SEARCH_QUALITY),
    (
        "pipeline.eval_explained_share",
        "ratio",
        "evals_per_s @ search_wide",
    ),
    ("report.serialize_us", "us", SERVED_OP),
    ("report.bytes", "count", SERVED_OP),
    ("cache.key_us", "us", SERVED_OP),
    ("cache.lookup_us", "us", WARM_PATH),
    ("cache.insert_us", "us", COLD_PATH),
    ("cache.hit_ratio", "ratio", SELF_CHECK),
    ("cache.coalesced", "count", SELF_CHECK),
    ("store.append_us", "us", SERVED_OP),
    (
        "store.replay_ms",
        "ms",
        "setup_s @ serve_direct,serve_cluster",
    ),
    ("store.journal_bytes_per_job", "count", COLD_PATH),
    ("server.submit_us", "us", SERVED_OP),
    (
        "server.cold_job_ms",
        "ms",
        "cold_latency_ms,evals_per_s @ serve_direct,serve_cluster",
    ),
    ("server.warm_hit_us", "us", WARM_PATH),
    ("server.durable_overhead_us", "us", COLD_PATH),
    ("qas.status_rtt_us", "us", WIRE),
    ("qas.submit_rtt_us", "us", WIRE),
    ("qas.wait_ms", "ms", WIRE),
    ("qas.result_rtt_us", "us", WIRE),
    (
        "qas.cold_latency_p50_ms",
        "ms",
        "cold_latency_ms,evals_per_s @ serve_direct",
    ),
    (
        "qas.cold_latency_p90_ms",
        "ms",
        "cold_latency_ms @ serve_direct",
    ),
    ("qas.warm_latency_p50_ms", "ms", "ops_per_s @ serve_direct"),
    ("qas.warm_latency_p90_ms", "ms", "ops_per_s @ serve_direct"),
    (
        "qas.proto_overhead_ms",
        "ms",
        "cold_latency_ms,ops_per_s @ serve_direct",
    ),
    ("cluster.route_us", "us", "cold_latency_ms @ serve_cluster"),
    (
        "admission.admit_us",
        "us",
        "cold_latency_ms @ serve_cluster",
    ),
    ("cluster.shard_rtt_us", "us", HOP),
    ("cluster.status_rtt_us", "us", HOP),
    ("cluster.submit_rtt_us", "us", HOP),
    ("cluster.wait_ms", "ms", HOP),
    ("cluster.result_rtt_us", "us", HOP),
    (
        "cluster.cold_latency_p50_ms",
        "ms",
        "cold_latency_ms,evals_per_s @ serve_cluster",
    ),
    (
        "cluster.cold_latency_p90_ms",
        "ms",
        "cold_latency_ms @ serve_cluster",
    ),
    (
        "cluster.warm_latency_p50_ms",
        "ms",
        "ops_per_s @ serve_cluster",
    ),
    (
        "cluster.warm_latency_p90_ms",
        "ms",
        "ops_per_s @ serve_cluster",
    ),
    ("cluster.hop_overhead_ms", "ms", HOP),
    (
        "cluster.shard_balance",
        "ratio",
        "ops_per_s @ serve_cluster",
    ),
    ("cluster.admission_rejected", "count", SELF_CHECK),
    ("cluster.migrations", "count", SELF_CHECK),
    ("op.span_coverage", "ratio", SELF_CHECK),
    ("trace.overhead_pct", "%", SELF_CHECK),
];

/// Names and units of [`PER_LAYER`], in the shape of [`END_TO_END`].
pub fn per_layer_units() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
}

/// An arrow of [`PER_LAYER`], split: (end-to-end metrics, workloads).
pub fn arrow(moves: &str) -> (Vec<&str>, Vec<&str>) {
    match moves.split_once(" @ ") {
        Some((metrics, workloads)) => {
            (metrics.split(',').collect(), workloads.split(',').collect())
        }
        None => (Vec::new(), Vec::new()),
    }
}

/// The contract file, compiled in: the benchmark reads its bounds and its
/// default run length from the same bytes the driver reads.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use serde_json::Value;

    /// `(name, <second>)` of every entry of a section of `BENCHMARK.json`.
    fn declared(section: &str, second: &str) -> Vec<(String, String)> {
        let contract: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        contract
            .get(section)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
            .iter()
            .map(|entry| {
                let field = |key: &str| {
                    entry
                        .get(key)
                        .and_then(Value::as_str)
                        .unwrap_or_else(|| panic!("{section} entry without {key}"))
                        .to_string()
                };
                (field("name"), field(second))
            })
            .collect()
    }

    fn printed(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_and_the_binary_name_the_same_metrics() {
        assert_eq!(declared("end_to_end", "unit"), printed(END_TO_END));
        assert_eq!(declared("per_layer", "unit"), printed(&per_layer_units()));
    }

    #[test]
    fn benchmark_json_and_the_binary_name_the_same_workloads() {
        let names: Vec<String> = declared("workloads", "why")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn names_are_unique_and_setup_is_declared_as_the_contract_requires() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&per_layer_units())
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(END_TO_END.contains(&("setup_s", "s")));
        let contract: Value = serde_json::from_str(BENCHMARK_JSON).unwrap();
        for entry in contract
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap()
        {
            let bound = entry.get("bound").and_then(Value::as_f64).unwrap();
            assert!(
                bound > 0.0 && bound <= 0.25,
                "bound {bound} outside (0, 0.25]"
            );
        }
    }

    #[test]
    fn every_arrow_names_declared_metrics_and_workloads() {
        for (name, _, moves) in PER_LAYER {
            assert!(name.contains('.'), "{name} names no layer");
            let (metrics, workloads) = arrow(moves);
            assert_eq!(metrics.is_empty(), *moves == "-", "{name}: '{moves}'");
            for metric in metrics {
                assert!(
                    END_TO_END.iter().any(|(n, _)| *n == metric),
                    "{name} should move {metric}, which is not an end-to-end metric"
                );
            }
            for workload in workloads {
                assert!(
                    Workload::parse(workload).is_some(),
                    "{name} should move {workload}, which is not a workload"
                );
            }
        }
    }

    /// Profiles come from the workspace root, and this package is its own
    /// root: its release profile must repeat the repository's, or the
    /// in-process workloads would time differently built code than `qas`.
    #[test]
    fn release_profile_matches_the_repository() {
        let profile = |manifest: &str| -> Vec<String> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect()
        };
        let ours = profile(include_str!("../Cargo.toml"));
        let theirs = profile(include_str!("../../Cargo.toml"));
        assert!(!theirs.is_empty(), "the repository sets a release profile");
        assert_eq!(ours, theirs);
    }
}
