//! Serialization and tabular reporting of search outcomes.
//!
//! The benchmark harness prints the same series the paper's figures plot;
//! this module holds the shared report structures and the plain-text table
//! renderer so the `fig*_` binaries stay small.

use crate::search::SearchOutcome;
use serde::{Deserialize, Serialize};

/// One row of a figure: a labelled series point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// The x value (depth, core count, mixer label index, …).
    pub x: f64,
    /// The measured y value.
    pub y: f64,
    /// Series label ("serial", "parallel", "baseline", "qnas", …).
    pub series: String,
}

/// A complete figure reproduction: its points plus metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FigureReport {
    /// Figure identifier, e.g. "fig4".
    pub figure: String,
    /// Axis labels for context.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The data points.
    pub points: Vec<SeriesPoint>,
}

impl FigureReport {
    /// A new empty report.
    pub fn new(figure: &str, x_label: &str, y_label: &str) -> FigureReport {
        FigureReport {
            figure: figure.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            points: Vec::new(),
        }
    }

    /// Append one point.
    pub fn push(&mut self, series: &str, x: f64, y: f64) {
        self.points.push(SeriesPoint {
            x,
            y,
            series: series.to_string(),
        });
    }

    /// All points belonging to one series, in insertion order.
    pub fn series(&self, name: &str) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .filter(|p| p.series == name)
            .map(|p| (p.x, p.y))
            .collect()
    }

    /// Distinct series names, in first-appearance order.
    pub fn series_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for p in &self.points {
            if !names.contains(&p.series) {
                names.push(p.series.clone());
            }
        }
        names
    }

    /// Render as an aligned plain-text table (one row per point).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# {} — {} vs {}\n",
            self.figure, self.y_label, self.x_label
        ));
        out.push_str(&format!(
            "{:<14} {:>12} {:>14}\n",
            "series", self.x_label, self.y_label
        ));
        for p in &self.points {
            out.push_str(&format!("{:<14} {:>12.4} {:>14.6}\n", p.series, p.x, p.y));
        }
        out
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("figure report serializes")
    }
}

/// Summary of a search run suitable for JSON export.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchReport {
    /// The cost problem family the search trained on.
    pub problem: String,
    /// Winning mixer label.
    pub best_mixer: String,
    /// Winning depth.
    pub best_depth: usize,
    /// Winning mean energy.
    pub best_energy: f64,
    /// Winning mean approximation ratio.
    pub best_approx_ratio: f64,
    /// Per-depth wall-clock seconds.
    pub per_depth_seconds: Vec<(usize, f64)>,
    /// Total seconds.
    pub total_seconds: f64,
    /// Candidates evaluated.
    pub candidates: usize,
    /// Candidates rejected by the predictor gate before evaluation.
    pub candidates_gated: usize,
    /// Proposals folded into an earlier proposal of the same
    /// [`MixerClass`](crate::alphabet::MixerClass) and not trained.
    #[serde(default, skip_serializing_if = "crate::search::is_zero")]
    pub candidates_folded: usize,
    /// Candidates pruned before reaching the full budget.
    pub candidates_pruned: usize,
    /// Objective evaluations actually spent across all candidates/graphs.
    pub optimizer_evaluations: usize,
    /// What a full-budget evaluation of the same proposals would have spent.
    pub full_budget_evaluations: usize,
    /// `full_budget_evaluations / optimizer_evaluations` — the pipeline's
    /// budget saving (1.0 when nothing was pruned or gated).
    pub budget_savings_factor: f64,
    /// Threads used by the parallel scheduler (None = serial).
    pub threads: Option<usize>,
    /// Whether the serve path answered this report from its
    /// content-addressed result cache instead of executing the search.
    /// Provenance only: a cached report is bit-identical to the computed
    /// one under [`SearchReport::without_timings`], which resets this flag
    /// along with the clocks.
    #[serde(default)]
    pub served_from_cache: bool,
    /// Whether the cluster coordinator migrated this job across shards
    /// mid-run after a shard death. Provenance only, like
    /// [`SearchReport::served_from_cache`]: a migrated run is
    /// bit-identical to an undisturbed one under
    /// [`SearchReport::without_timings`], which resets this flag too.
    #[serde(default)]
    pub migrated: bool,
}

impl From<&SearchOutcome> for SearchReport {
    fn from(o: &SearchOutcome) -> Self {
        SearchReport {
            problem: o.problem.clone(),
            best_mixer: o.best.mixer_label.clone(),
            best_depth: o.best.depth,
            best_energy: o.best.energy,
            best_approx_ratio: o.best.approx_ratio,
            per_depth_seconds: o
                .depth_results
                .iter()
                .map(|d| (d.depth, d.elapsed_seconds))
                .collect(),
            total_seconds: o.total_elapsed_seconds,
            candidates: o.num_candidates_evaluated,
            candidates_gated: o.depth_results.iter().map(|d| d.gated_out).sum(),
            candidates_folded: o.depth_results.iter().map(|d| d.folded).sum(),
            candidates_pruned: o
                .depth_results
                .iter()
                .flat_map(|d| &d.candidates)
                .filter(|c| c.pruned_at_rung.is_some())
                .count(),
            optimizer_evaluations: o.total_optimizer_evaluations,
            full_budget_evaluations: o.full_budget_evaluations,
            budget_savings_factor: o.budget_savings_factor(),
            threads: o.parallel_threads,
            served_from_cache: false,
            migrated: false,
        }
    }
}

impl SearchReport {
    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("search report serializes")
    }

    /// The same report with every wall-clock field zeroed. Search results
    /// are deterministic for a fixed seed, but elapsed seconds are not —
    /// recovery tests compare `without_timings().to_json()` bytes to pin
    /// the semantic outcome while ignoring the clock.
    pub fn without_timings(&self) -> SearchReport {
        let mut report = self.clone();
        for (_, seconds) in &mut report.per_depth_seconds {
            *seconds = 0.0;
        }
        report.total_seconds = 0.0;
        report.served_from_cache = false;
        report.migrated = false;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_report_collects_series() {
        let mut r = FigureReport::new("fig4", "p", "seconds");
        r.push("serial", 1.0, 10.0);
        r.push("parallel", 1.0, 4.0);
        r.push("serial", 2.0, 20.0);
        assert_eq!(r.series("serial"), vec![(1.0, 10.0), (2.0, 20.0)]);
        assert_eq!(r.series("parallel"), vec![(1.0, 4.0)]);
        assert_eq!(
            r.series_names(),
            vec!["serial".to_string(), "parallel".to_string()]
        );
    }

    #[test]
    fn table_contains_every_point() {
        let mut r = FigureReport::new("fig5", "cores", "seconds");
        r.push("parallel", 8.0, 90.0);
        r.push("parallel", 16.0, 50.0);
        let table = r.to_table();
        assert!(table.contains("fig5"));
        assert!(table.lines().count() >= 4);
        assert!(table.contains("16"));
    }

    #[test]
    fn json_round_trip() {
        let mut r = FigureReport::new("fig7", "mixer", "approx ratio");
        r.push("('rx', 'ry')", 3.0, 0.93);
        let json = r.to_json();
        let back: FigureReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn empty_series_queries_are_empty() {
        let r = FigureReport::new("figX", "x", "y");
        assert!(r.series("anything").is_empty());
        assert!(r.series_names().is_empty());
    }
}
