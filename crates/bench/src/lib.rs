//! Shared harness utilities for the figure-reproduction binaries.
//!
//! Every figure of the paper's evaluation has a dedicated binary
//! (`fig4_serial_vs_parallel`, `fig5_core_scaling`, `fig6_best_mixer`,
//! `fig7_mixer_comparison`, `fig8_er_baseline_vs_qnas`,
//! `fig9_regular_baseline_vs_qnas`). They all print a [`FigureReport`]
//! table and a JSON blob so the numbers can be compared against the paper
//! (see the README, "Reproducing the paper's figures").
//!
//! The paper's full workload (2500 candidate circuits × 20 graphs × 200
//! COBYLA steps on a Polaris node) is larger than what a default `cargo run`
//! should take, so each binary uses scaled-down defaults and honours
//! environment variables for full-scale runs:
//!
//! | variable          | meaning                                    | default |
//! |-------------------|--------------------------------------------|---------|
//! | `QAS_GRAPHS`      | number of graphs per dataset               | 3       |
//! | `QAS_NODES`       | nodes per graph                            | 10      |
//! | `QAS_PMAX`        | maximum QAOA depth                         | 3       |
//! | `QAS_KMAX`        | maximum gates per mixer                    | 2       |
//! | `QAS_BUDGET`      | optimizer evaluations per candidate        | 40      |
//! | `QAS_RUNS`        | repetitions to average over (Fig. 4)       | 2       |
//! | `QAS_MAX_CORES`   | largest thread count swept (Fig. 5)        | 2× CPUs |
//! | `QAS_PAPER_SCALE` | set to `1` to use the paper's full sizes   | unset   |

pub use qarchsearch::report::{FigureReport, SearchReport, SeriesPoint};

use graphs::Graph;
use qaoa::Backend;
use qarchsearch::search::{SearchConfig, SearchStrategy};

/// Scaled experiment sizes, controlled by environment variables.
#[derive(Debug, Clone)]
pub struct HarnessParams {
    /// Graphs per dataset.
    pub num_graphs: usize,
    /// Nodes per graph.
    pub num_nodes: usize,
    /// Maximum QAOA depth `p_max`.
    pub p_max: usize,
    /// Maximum gates per mixer `K_max`.
    pub k_max: usize,
    /// Optimizer budget per candidate per graph.
    pub budget: usize,
    /// Independent repetitions for timing averages.
    pub runs: usize,
    /// Largest core count swept in Fig. 5.
    pub max_cores: usize,
    /// Base RNG seed.
    pub seed: u64,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl HarnessParams {
    /// Parameters from the environment, falling back to quick defaults (or to
    /// the paper's full sizes when `QAS_PAPER_SCALE=1`).
    pub fn from_env() -> HarnessParams {
        let paper = std::env::var("QAS_PAPER_SCALE")
            .map(|v| v == "1")
            .unwrap_or(false);
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(8);
        if paper {
            HarnessParams {
                num_graphs: env_usize("QAS_GRAPHS", 20),
                num_nodes: env_usize("QAS_NODES", 10),
                p_max: env_usize("QAS_PMAX", 4),
                k_max: env_usize("QAS_KMAX", 4),
                budget: env_usize("QAS_BUDGET", 200),
                runs: env_usize("QAS_RUNS", 5),
                max_cores: env_usize("QAS_MAX_CORES", 64),
                seed: 2023,
            }
        } else {
            HarnessParams {
                num_graphs: env_usize("QAS_GRAPHS", 3),
                num_nodes: env_usize("QAS_NODES", 10),
                p_max: env_usize("QAS_PMAX", 3),
                k_max: env_usize("QAS_KMAX", 2),
                budget: env_usize("QAS_BUDGET", 40),
                runs: env_usize("QAS_RUNS", 2),
                max_cores: env_usize("QAS_MAX_CORES", 2 * cpus),
                seed: 2023,
            }
        }
    }

    /// Tiny parameters for tests.
    pub fn tiny() -> HarnessParams {
        HarnessParams {
            num_graphs: 2,
            num_nodes: 8,
            p_max: 2,
            k_max: 2,
            budget: 15,
            runs: 1,
            max_cores: 4,
            seed: 7,
        }
    }

    /// The Erdős–Rényi profiling dataset (§3.1).
    pub fn er_dataset(&self) -> Vec<Graph> {
        graphs::datasets::erdos_renyi_dataset(self.num_graphs, self.num_nodes, self.seed)
    }

    /// The random 4-regular evaluation dataset (§3.2).
    pub fn regular_dataset(&self) -> Vec<Graph> {
        graphs::datasets::random_regular_dataset(self.num_graphs, self.num_nodes, 4, self.seed + 1)
    }

    /// A search configuration with this harness's sizes.
    ///
    /// Figure reproductions compare the *paper's* serial and parallel
    /// algorithms, so the budget-aware pipeline (pruning, warm starts) is
    /// disabled: serial vs. parallel must differ only in scheduling, never
    /// in how much budget each candidate receives.
    pub fn search_config(&self, threads: Option<usize>) -> SearchConfig {
        let mut builder = SearchConfig::builder()
            .max_depth(self.p_max)
            .max_gates_per_mixer(self.k_max)
            .optimizer_budget(self.budget)
            .backend(Backend::TensorNetwork)
            .strategy(SearchStrategy::Exhaustive)
            .seed(self.seed)
            .no_prune();
        if let Some(t) = threads {
            builder = builder.threads(t);
        }
        builder.build()
    }
}

/// Print a figure report as a table and as JSON, the common tail of every
/// `fig*` binary.
pub fn emit(report: &FigureReport) {
    println!("{}", report.to_table());
    println!("--- JSON ---");
    println!("{}", report.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_are_modest() {
        let p = HarnessParams::from_env();
        assert!(p.num_graphs >= 1);
        assert!(p.p_max >= 1);
        assert!(p.budget >= 1);
    }

    #[test]
    fn tiny_params_build_datasets() {
        let p = HarnessParams::tiny();
        let er = p.er_dataset();
        let reg = p.regular_dataset();
        assert_eq!(er.len(), 2);
        assert_eq!(reg.len(), 2);
        for g in reg {
            assert!(g.is_regular(4));
        }
    }

    #[test]
    fn search_config_honours_thread_request() {
        let p = HarnessParams::tiny();
        let cfg = p.search_config(Some(3));
        assert_eq!(cfg.threads, Some(3));
        assert_eq!(cfg.max_depth, 2);
        let cfg2 = p.search_config(None);
        assert_eq!(cfg2.threads, None);
    }
}
