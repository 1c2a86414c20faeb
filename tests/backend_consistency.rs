//! Integration tests: the tensor-network backend (QTensor analog) must agree
//! with the dense state-vector backend on full QAOA workloads, including the
//! exact instance families used in the paper's experiments.

use qarchsearch_suite::prelude::*;
use qarchsearch_suite::qaoa::ansatz::QaoaAnsatz;
use qarchsearch_suite::qaoa::energy::EnergyEvaluator;

#[test]
fn backends_agree_on_er_dataset() {
    let dataset = graphs::datasets::erdos_renyi_dataset(4, 8, 77);
    for (i, graph) in dataset.iter().enumerate() {
        let ansatz = QaoaAnsatz::new(graph, 2, Mixer::qnas());
        let sv = EnergyEvaluator::new(graph, Backend::StateVector);
        let tn = EnergyEvaluator::new(graph, Backend::TensorNetwork);
        let angles = ([0.35, 0.6], [0.25, 0.15]);
        let e_sv = sv.energy(&ansatz, &angles.0, &angles.1).unwrap();
        let e_tn = tn.energy(&ansatz, &angles.0, &angles.1).unwrap();
        assert!(
            (e_sv - e_tn).abs() < 1e-8,
            "graph {i}: sv {e_sv} vs tn {e_tn}"
        );
    }
}

#[test]
fn backends_agree_on_regular_dataset_across_mixers() {
    let dataset = graphs::datasets::random_regular_dataset(3, 8, 4, 13);
    for graph in &dataset {
        for mixer in Mixer::fig7_candidates() {
            let ansatz = QaoaAnsatz::new(graph, 1, mixer.clone());
            let sv = EnergyEvaluator::new(graph, Backend::StateVector);
            let tn = EnergyEvaluator::new(graph, Backend::TensorNetwork);
            let e_sv = sv.energy(&ansatz, &[0.5], &[0.3]).unwrap();
            let e_tn = tn.energy(&ansatz, &[0.5], &[0.3]).unwrap();
            assert!(
                (e_sv - e_tn).abs() < 1e-8,
                "mixer {}: sv {e_sv} vs tn {e_tn}",
                mixer.label()
            );
        }
    }
}

#[test]
fn tensor_network_handles_deeper_circuits_than_tested_elsewhere() {
    // p = 3 on a 10-node graph: the light-cone networks stay tractable.
    let graph = Graph::connected_erdos_renyi(10, 0.4, 3, 50);
    let ansatz = QaoaAnsatz::new(&graph, 3, Mixer::baseline());
    let sv = EnergyEvaluator::new(&graph, Backend::StateVector);
    let tn = EnergyEvaluator::new(&graph, Backend::TensorNetwork);
    let gammas = [0.3, 0.5, 0.2];
    let betas = [0.2, 0.1, 0.35];
    let e_sv = sv.energy(&ansatz, &gammas, &betas).unwrap();
    let e_tn = tn.energy(&ansatz, &gammas, &betas).unwrap();
    assert!((e_sv - e_tn).abs() < 1e-7, "sv {e_sv} vs tn {e_tn}");
}

#[test]
fn energies_respect_maxcut_bounds_on_both_backends() {
    let graph = Graph::random_regular(10, 4, 5).unwrap();
    let exact = MaxCut::brute_force(&graph).unwrap().value;
    for backend in [Backend::StateVector, Backend::TensorNetwork] {
        let eval = EnergyEvaluator::new(&graph, backend);
        let ansatz = QaoaAnsatz::new(&graph, 2, Mixer::qnas());
        for angles in [([0.1, 0.2], [0.3, 0.4]), ([1.0, 0.5], [0.7, 0.9])] {
            let e = eval.energy(&ansatz, &angles.0, &angles.1).unwrap();
            assert!(e >= -1e-9);
            assert!(
                e <= exact + 1e-9,
                "{backend}: energy {e} above optimum {exact}"
            );
        }
    }
}
