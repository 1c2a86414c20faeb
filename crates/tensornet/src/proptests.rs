//! Property-based tests: the tensor-network backend must agree with the dense
//! state-vector backend on random circuits, an expectation plan's compiled
//! contractions with the bucket elimination they replay, bit for bit, and
//! the bit-row interaction graph's elimination orders with the map-based
//! reference's, index for index.

use crate::lightcone;
use crate::network::TensorNetwork;
use crate::ordering::reference::{ReferenceGraph, HEURISTICS};
use crate::ordering::InteractionGraph;
use crate::plan::tests::{
    bind, per_call_correlator, qaoa_params, qaoa_template, qaoa_template_with, term_network,
};
use crate::plan::ExpectationPlan;
use graphs::{Graph, Problem};
use proptest::prelude::*;
use qcircuit::{Circuit, Gate, Parameter};
use statevec::expectation::{problem_expectation as sv_problem, zz_expectation as sv_zz};
use statevec::StateVector;

fn arb_circuit(n: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    let gate = prop_oneof![
        Just(Gate::H),
        Just(Gate::X),
        Just(Gate::Y),
        Just(Gate::Z),
        Just(Gate::S),
        Just(Gate::T),
        Just(Gate::RX),
        Just(Gate::RY),
        Just(Gate::RZ),
        Just(Gate::P),
        Just(Gate::CX),
        Just(Gate::CZ),
        Just(Gate::RZZ),
        Just(Gate::CP),
    ];
    proptest::collection::vec((gate, 0..n, 0..n, -3.2f64..3.2), 1..max_len).prop_map(
        move |instrs| {
            let mut c = Circuit::new(n);
            for (g, q0, q1, theta) in instrs {
                let param = if g.is_parameterized() {
                    Parameter::bound(theta)
                } else {
                    Parameter::None
                };
                if g.arity() == 1 {
                    c.push(g, &[q0], param);
                } else if q0 != q1 {
                    c.push(g, &[q0, q1], param);
                }
            }
            c
        },
    )
}

/// A random graph on at most nine nodes: Erdős–Rényi, or 3-regular.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..10, 0.3f64..0.9, any::<u64>(), any::<bool>()).prop_map(|(n, p, seed, regular)| {
        let n_even = n - n % 2;
        match regular {
            true if n_even >= 4 => Graph::random_regular(n_even, 3, seed).unwrap(),
            _ => Graph::erdos_renyi(n, p, seed),
        }
    })
}

/// One to three mixer gates from `rx, ry, rz, h, p`.
fn arb_mixer() -> impl Strategy<Value = Vec<Gate>> {
    let gate = prop_oneof![
        Just(Gate::RX),
        Just(Gate::RY),
        Just(Gate::RZ),
        Just(Gate::H),
        Just(Gate::P),
    ];
    proptest::collection::vec(gate, 1..4)
}

/// No mixer gate or one rotation from `rx, ry, rz, p` bound to a fixed angle,
/// which the plan's networks contract at build time where they can.
fn arb_bound_rotation() -> impl Strategy<Value = Vec<(Gate, f64)>> {
    let gate = prop_oneof![
        Just(Gate::RX),
        Just(Gate::RY),
        Just(Gate::RZ),
        Just(Gate::P),
    ];
    proptest::collection::vec((gate, arb_angle()), 0..2)
}

/// An angle: uniform, or exactly `0` or `π` (where rotations turn diagonal
/// and the bound network changes shape).
fn arb_angle() -> impl Strategy<Value = f64> {
    prop_oneof![
        -3.2f64..3.2,
        -3.2f64..3.2,
        Just(0.0),
        Just(std::f64::consts::PI)
    ]
}

/// Tensor index lists over up to 200 sparse, non-contiguous ids
/// `offset + stride · k` (half the cases 190 or more, so rows of one to four
/// words all occur): each list holds 0–4 distinct ids, mostly within a
/// window of twelve of a random base (a banded graph, so the reference's
/// min-fill stays affordable) with the odd long-range one, followed by up
/// to four rank-1 lists on ids nothing else carries (isolated vertices).
fn arb_index_lists() -> impl Strategy<Value = Vec<Vec<usize>>> {
    let list = (0usize..200, proptest::collection::vec(0usize..100, 0..5));
    (
        prop_oneof![0usize..=200, 190usize..=200],
        1usize..40,
        0usize..5000,
        proptest::collection::vec(list, 0..500),
        0usize..5,
    )
        .prop_map(|(vertices, stride, offset, lists, isolated)| {
            let id = |k: usize| offset + stride * k;
            let mut out: Vec<Vec<usize>> = lists
                .into_iter()
                .map(|(base, steps)| {
                    let mut ids: Vec<usize> = Vec::new();
                    for s in steps.into_iter().filter(|_| vertices > 0) {
                        let k = if s < 92 {
                            base + s % 12
                        } else {
                            31 * base + 17 * s
                        };
                        let i = id(k % vertices);
                        if !ids.contains(&i) {
                            ids.push(i);
                        }
                    }
                    ids
                })
                .collect();
            out.extend((0..isolated).map(|j| vec![id(vertices + j)]));
            out
        })
}

/// The orders of the bit-row graph and of the reference, fed `lists`, are
/// equal for every heuristic and for `best_order`; so are those of the
/// bit-row graph fed the same lists as `u16` ids.
fn assert_orders_match_the_reference(lists: &[Vec<usize>]) -> InteractionGraph {
    let slices = || lists.iter().map(Vec::as_slice);
    let graph = InteractionGraph::from_tensor_indices(slices());
    let reference = ReferenceGraph::from_tensor_indices(slices());
    let compact: Vec<Vec<u16>> = lists
        .iter()
        .map(|l| l.iter().map(|&i| u16::try_from(i).unwrap()).collect())
        .collect();
    let compact = InteractionGraph::from_tensor_indices(compact.iter().map(Vec::as_slice));
    assert_eq!(graph.indices(), reference.indices());
    assert_eq!(graph.num_indices(), reference.indices().len());
    for h in HEURISTICS {
        let want = reference.elimination_order(h);
        assert_eq!(graph.elimination_order(h), want, "{h:?}");
        assert_eq!(compact.elimination_order(h), want, "{h:?} from u16 ids");
    }
    assert_eq!(graph.best_order(), reference.best_order());
    graph
}

#[test]
fn orders_match_the_reference_on_degenerate_inputs() {
    for lists in [
        vec![],
        vec![vec![]],
        vec![vec![], vec![], vec![]],
        vec![vec![7]],
        vec![vec![9], vec![], vec![3], vec![9]],
        vec![vec![5, 1], vec![], vec![300]],
    ] {
        assert_orders_match_the_reference(&lists);
    }
}

/// Every term network `for_diagonal_expectation` builds on the 4-regular
/// n = 10 graphs perfbench's `search_tn` trains on, at p = 1 and 2, orders
/// as the reference does. At p = 2 some networks span two words a row.
#[test]
fn orders_match_the_reference_on_every_search_tn_term_network() {
    let mut widest = 0;
    for graph in graphs::datasets::random_regular_dataset(2, 10, 4, 11) {
        let problem = Problem::max_cut(&graph);
        for p in [1, 2] {
            let values: Vec<f64> = (0..2 * p).map(|j| 0.35 - 0.27 * j as f64).collect();
            for mixer in [
                vec![Gate::RX],
                vec![Gate::RX, Gate::RY],
                vec![Gate::H, Gate::RZ],
                vec![Gate::P],
            ] {
                let circuit = bind(&qaoa_template(&graph, &problem, &mixer, p), &values);
                for term in problem.terms() {
                    let net = term_network(&circuit, term.qubits());
                    let lists: Vec<Vec<usize>> =
                        net.tensors().iter().map(|t| t.indices().to_vec()).collect();
                    let graph = assert_orders_match_the_reference(&lists);
                    assert_eq!(net.best_order(), graph.best_order());
                    widest = widest.max(graph.num_indices());
                }
            }
        }
    }
    assert!(widest > 64, "widest network has {widest} indices");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bit_rows_order_like_the_map_based_reference(lists in arb_index_lists()) {
        assert_orders_match_the_reference(&lists);
    }

    #[test]
    fn plan_programs_are_bitwise_the_per_call_contractions(
        graph in arb_graph(),
        mixer in arb_mixer(),
        bound in arb_bound_rotation(),
        p in 1usize..3,
        angles in proptest::collection::vec(arb_angle(), 4),
        mis in any::<bool>()
    ) {
        prop_assume!(graph.num_edges() > 0);
        // Max-Cut, or MIS: locality-1 terms and a nonzero constant.
        let problem = if mis {
            Problem::max_independent_set(&graph, 2.0)
        } else {
            Problem::max_cut(&graph)
        };
        // The free mixer gates on `2β_k`, then the bound rotation, if any (a
        // fixed `RX(0)` is diagonal when the plan is built).
        let layer: Vec<(Gate, Option<f64>)> = (mixer.iter().map(|&g| (g, None)))
            .chain(bound.iter().map(|&(g, theta)| (g, Some(theta))))
            .collect();
        let template = qaoa_template_with(&graph, &problem, &layer, p);
        let plan = ExpectationPlan::build(&template, &problem, &qaoa_params(p)).unwrap();
        let values = &angles[..2 * p];
        let circuit = bind(&template, values);
        match plan.term_correlators(values) {
            Some(correlators) => {
                for (term, got) in problem.terms().iter().zip(correlators) {
                    let want = (!term.qubits().is_empty())
                        .then(|| per_call_correlator(&circuit, term.qubits()).0);
                    prop_assert_eq!(
                        got.map(|(value, _)| value.to_bits()),
                        want.map(f64::to_bits),
                        "term {:?} of {} with {:?} at {:?}",
                        term.qubits(), problem.name(), mixer, values
                    );
                }
            }
            // A numerically diagonal rotation: the plan rebinds instead.
            None => prop_assert!(
                mixer.iter().any(|g| matches!(g, Gate::RX | Gate::RY)),
                "only a rotation that turns diagonal changes the shape"
            ),
        }
        let want = lightcone::problem_expectation(&circuit, &problem).unwrap();
        let got = plan.expectation(&problem, values).unwrap();
        prop_assert_eq!(got.to_bits(), want.to_bits(), "energy at {:?}", values);
    }

    #[test]
    fn amplitude_matches_statevector(c in arb_circuit(4, 14)) {
        // |⟨0…0|U|0…0⟩|²: the expectation of the projector onto |0…0⟩.
        let projector: Vec<(usize, [f64; 2])> = (0..4).map(|q| (q, [1.0, 0.0])).collect();
        let net = TensorNetwork::for_diagonal_expectation(&c, &projector).unwrap();
        let tn = net.contract().unwrap();
        let sv = StateVector::from_circuit(&c).unwrap();
        let dense = sv.amplitudes()[0].norm_sqr();
        prop_assert!((tn.re - dense).abs() < 1e-9 && tn.im.abs() < 1e-9,
            "tn {tn} vs dense {dense}");
    }

    #[test]
    fn zz_expectation_matches_statevector(c in arb_circuit(4, 12), u in 0usize..4, v in 0usize..4) {
        prop_assume!(u != v);
        let tn = TensorNetwork::z_product_expectation(&c, &[u, v]).unwrap();
        let sv = StateVector::from_circuit(&c).unwrap();
        let dense = sv_zz(&sv, u, v);
        prop_assert!((tn - dense).abs() < 1e-9, "tn {tn} vs dense {dense}");
    }

    #[test]
    fn lightcone_zz_matches_full_network(c in arb_circuit(5, 12), u in 0usize..5, v in 0usize..5) {
        prop_assume!(u != v);
        let full = TensorNetwork::z_product_expectation(&c, &[u, v]).unwrap();
        let cone = lightcone::z_product_expectation_lightcone(&c, &[u, v]).unwrap();
        prop_assert!((full - cone).abs() < 1e-9, "full {full} vs cone {cone}");
    }

    #[test]
    fn maxcut_expectation_matches_statevector(c in arb_circuit(4, 12)) {
        let edges = vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 2.0)];
        let problem = Problem::max_cut_from_edges(4, &edges).unwrap();
        let tn = lightcone::problem_expectation(&c, &problem).unwrap();
        let sv = StateVector::from_circuit(&c).unwrap();
        let dense = sv_problem(&sv, &problem);
        prop_assert!((tn - dense).abs() < 1e-8, "tn {tn} vs dense {dense}");
    }

    #[test]
    fn z_expectation_is_real_and_bounded(c in arb_circuit(3, 10), q in 0usize..3) {
        let z = TensorNetwork::z_product_expectation(&c, &[q]).unwrap();
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&z));
    }
}
