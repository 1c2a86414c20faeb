//! Max-Cut mixer search over an Erdős–Rényi dataset, comparing the serial and
//! parallel schedulers — a miniature of the paper's §3.1 profiling experiment
//! (Figs. 4–5).
//!
//! ```text
//! cargo run --release --example maxcut_er_search
//! ```

use qarchsearch_suite::prelude::*;
use std::time::Instant;

fn main() {
    // The profiling dataset: ER graphs with varying connectivity.
    let dataset = graphs::datasets::erdos_renyi_dataset(4, 10, 2023);
    println!("dataset: {} Erdős–Rényi graphs on 10 nodes", dataset.len());
    for (i, g) in dataset.iter().enumerate() {
        println!(
            "  graph {i}: {} edges (density {:.2})",
            g.num_edges(),
            g.density()
        );
    }

    let config = SearchConfig::builder()
        .max_depth(2)
        .max_gates_per_mixer(2)
        .optimizer_budget(40)
        .seed(1)
        // Paper-faithful full-budget mode, so serial vs. parallel differ only
        // in scheduling (drop this line to let the parallel mode's default
        // budget-aware pipeline prune losers early and warm-start depth 2).
        .no_prune()
        .build();

    // Serial search (the paper's Algorithm 1: one session at a time).
    let serial_start = Instant::now();
    let serial = SearchDriver::new(config.clone().with_mode(ExecutionMode::Serial))
        .run(&dataset)
        .expect("serial search");
    let serial_elapsed = serial_start.elapsed().as_secs_f64();

    // Parallel search (outer level over candidates).
    let parallel_start = Instant::now();
    let parallel = SearchDriver::new(config.with_mode(ExecutionMode::Parallel))
        .run(&dataset)
        .expect("parallel search");
    let parallel_elapsed = parallel_start.elapsed().as_secs_f64();

    println!();
    println!(
        "serial   : best {} with <C> = {:.4} in {:.2}s",
        serial.best.mixer_label, serial.best.energy, serial_elapsed
    );
    println!(
        "parallel : best {} with <C> = {:.4} in {:.2}s",
        parallel.best.mixer_label, parallel.best.energy, parallel_elapsed
    );
    if parallel_elapsed > 0.0 {
        println!("speedup  : {:.2}x", serial_elapsed / parallel_elapsed);
    }

    // Both schedulers explore the same space, so the winners agree.
    assert_eq!(
        serial.num_candidates_evaluated,
        parallel.num_candidates_evaluated
    );
    println!(
        "\nper-depth serial timings (the series Fig. 4 plots): {:?}",
        serial
            .depth_results
            .iter()
            .map(|d| (d.depth, format!("{:.2}s", d.elapsed_seconds)))
            .collect::<Vec<_>>()
    );
}
