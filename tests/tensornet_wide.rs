//! Multi-word elimination orders through the expectation plan (ISSUE 22).
//!
//! `tensornet::ordering::InteractionGraph` keeps one bit per neighbour in
//! as many 64-bit words as a network has indices. The cones of
//! `tests/tensornet_plan.rs` and of perfbench's `search_tn` fit in one word;
//! at p = 2 on 4-regular graphs term networks pass 64 indices, and the plan
//! built on their orders must still return the bind-per-call energy
//! (`EnergyEvaluator::energy_flat`) bit for bit.

use qarchsearch_suite::prelude::*;
use qarchsearch_suite::tensornet::lightcone::LightCone;

/// The most indices any cost term's `for_diagonal_expectation` network has
/// on `ansatz` bound to `point`.
fn widest_term_network(ansatz: &QaoaAnsatz, problem: &Problem, point: &[f64]) -> usize {
    let circuit = ansatz.bind_flat(point).unwrap();
    let widths = problem.terms().iter().map(|term| {
        let cone = LightCone::of(&circuit, term.qubits());
        let observables: Vec<(usize, [f64; 2])> = term
            .qubits()
            .iter()
            .map(|&q| (cone.relabelled(q).unwrap(), [1.0, -1.0]))
            .collect();
        TensorNetwork::for_diagonal_expectation(&cone.circuit, &observables)
            .unwrap()
            .num_indices()
    });
    widths.max().unwrap_or(0)
}

#[test]
fn plan_matches_energy_flat_bitwise_where_term_networks_span_several_words() {
    let points = [[0.35, -0.2, 0.6, 0.15], [-1.1, 0.4, 0.77, -0.3]];
    let mut widest = 0;
    for graph in [
        Graph::random_regular(10, 4, 11).unwrap(),
        Graph::random_regular(12, 4, 5).unwrap(),
    ] {
        let problem = Problem::max_cut(&graph);
        for gates in [vec![Gate::RX], vec![Gate::RX, Gate::RY]] {
            let mixer = Mixer::new(gates).unwrap();
            let ansatz = QaoaAnsatz::for_problem(&problem, 2, mixer.clone()).unwrap();
            widest = widest.max(widest_term_network(&ansatz, &problem, &points[0]));
            let eval =
                EnergyEvaluator::for_problem(&graph, problem.clone(), Backend::TensorNetwork)
                    .unwrap();
            let planned = eval.plan(&ansatz).unwrap();
            for point in points {
                let want = eval.energy_flat(&ansatz, &point).unwrap();
                let got = planned.energy_flat(&point).unwrap();
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "n = {} {} at {point:?}: plan {got} vs bind-per-call {want}",
                    graph.num_nodes(),
                    mixer.label(),
                );
            }
        }
    }
    assert!(widest > 64, "the widest term network has {widest} indices");
}
