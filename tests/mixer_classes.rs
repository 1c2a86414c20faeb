//! Within-class training spread: what folding proposals into
//! [`MixerClass`]es costs.
//!
//! Members of one class have the same energy function of (γ, β), but their
//! gates round differently, and the optimizer can amplify that. These tests
//! train every member of every class of up to two gates over the paper's
//! alphabet and measure the largest energy gap inside a class.

use qarchsearch_suite::prelude::*;
use qarchsearch_suite::qarchsearch::evaluator::{Evaluator, EvaluatorConfig};
use qarchsearch_suite::qarchsearch::MixerClass;

/// One class's spread: its members' labels and trained mean energies.
struct ClassSpread {
    members: Vec<(String, f64)>,
}

impl ClassSpread {
    fn spread(&self) -> f64 {
        let energies = self.members.iter().map(|(_, e)| *e);
        let max = energies.clone().fold(f64::NEG_INFINITY, f64::max);
        let min = energies.fold(f64::INFINITY, f64::min);
        max - min
    }
}

/// Train every member of every multi-member class of `k ≤ 2` over the
/// paper's alphabet at depth `p` (COBYLA, 200 steps, two 8-node graphs).
fn class_spreads(backend: Backend, p: usize) -> Vec<ClassSpread> {
    let graphs = graphs::datasets::erdos_renyi_dataset(2, 8, 7);
    let evaluator = Evaluator::new(EvaluatorConfig {
        backend,
        budget: 200,
        ..EvaluatorConfig::default()
    });
    let mut classes: Vec<(MixerClass, Vec<Vec<Gate>>)> = Vec::new();
    for gates in GateAlphabet::paper_default().all_combinations_up_to(2) {
        let class = MixerClass::of(&gates);
        match classes.iter_mut().find(|(c, _)| *c == class) {
            Some((_, members)) => members.push(gates),
            None => classes.push((class, vec![gates])),
        }
    }
    classes
        .into_iter()
        .filter(|(_, members)| members.len() > 1)
        .map(|(_, members)| ClassSpread {
            members: members
                .into_iter()
                .map(|gates| {
                    let mixer = Mixer::new(gates).unwrap();
                    let result = evaluator.evaluate(&graphs, &mixer, p).unwrap();
                    (mixer.label(), result.mean_energy)
                })
                .collect(),
        })
        .collect()
}

fn assert_p1_spread_is_rounding(backend: Backend) {
    let spreads = class_spreads(backend, 1);
    assert_eq!(spreads.len(), 7, "multi-member classes at k <= 2");
    for class in &spreads {
        assert!(
            class.spread() <= 1e-9,
            "{backend:?}: members {:?} spread {:e}",
            class.members,
            class.spread()
        );
    }
}

#[test]
fn p1_members_of_a_class_train_alike_on_the_state_vector() {
    assert_p1_spread_is_rounding(Backend::StateVector);
}

#[test]
fn p1_members_of_a_class_train_alike_on_the_tensor_network() {
    assert_p1_spread_is_rounding(Backend::TensorNetwork);
}

/// The spread table at p = 1 and p = 2: the measured cost of training one
/// member per class. Run with `cargo test --release --test mixer_classes
/// -- --ignored --nocapture`.
#[test]
#[ignore = "prints the spread table"]
fn spread_table() {
    for (backend, p) in [
        (Backend::StateVector, 1),
        (Backend::TensorNetwork, 1),
        (Backend::StateVector, 2),
        (Backend::TensorNetwork, 2),
    ] {
        println!("{backend:?}, p = {p}");
        for class in class_spreads(backend, p) {
            let members: Vec<String> = class
                .members
                .iter()
                .map(|(label, energy)| format!("{label} {energy:.4}"))
                .collect();
            println!("  {:.2e}  {}", class.spread(), members.join(" | "));
        }
    }
}
