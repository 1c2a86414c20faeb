//! Using a custom gate alphabet with random search and the predictor gate.
//!
//! The paper's released search is random over a fixed five-gate alphabet;
//! this example shows the two knobs a downstream user is most likely to
//! touch:
//!
//! * restricting or extending the alphabet `A_R`, and
//! * the predictor gate (`qas search --gate N`): from depth 2 on, only the
//!   `N` proposals that score best under a ranker trained on earlier
//!   depths' energies are trained.
//!
//! ```text
//! cargo run --release --example custom_alphabet
//! ```

use qarchsearch_suite::prelude::*;
use qarchsearch_suite::qarchsearch::search::SearchStrategy;

fn main() {
    // A reduced alphabet: only rotation gates, no Cliffords.
    let alphabet = GateAlphabet::from_mnemonics(&["rx", "ry", "rz"]).expect("valid alphabet");
    println!("alphabet: {alphabet} (|A_R| = {})", alphabet.len());

    let graph = Graph::connected_erdos_renyi(8, 0.5, 5, 50);

    // Random search (the paper's proposer), eight samples per depth, of
    // which the gate admits three from depth 2 on.
    let config = SearchConfig::builder()
        .alphabet(alphabet)
        .max_depth(2)
        .max_gates_per_mixer(2)
        .optimizer_budget(40)
        .strategy(SearchStrategy::Random {
            samples_per_depth: 8,
        })
        .predictor_gate(3)
        .seed(11)
        .build();
    let outcome = SearchDriver::new(config)
        .run(std::slice::from_ref(&graph))
        .expect("search");
    for depth in &outcome.depth_results {
        println!(
            "  depth {}: {} trained, {} folded, {} gated out; best <C> = {:.4}",
            depth.depth,
            depth.candidates.len(),
            depth.folded,
            depth.gated_out,
            depth.best_energy
        );
    }
    println!(
        "random search with the gate: best {} with <C> = {:.4}",
        outcome.best.mixer_label, outcome.best.energy
    );
}
