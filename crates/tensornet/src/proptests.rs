//! Property-based tests: the tensor-network backend must agree with the dense
//! state-vector backend on random circuits, and an expectation plan's
//! compiled contractions with the bucket elimination they replay, bit for
//! bit.

use crate::lightcone::{self, maxcut_expectation, zz_expectation_lightcone};
use crate::network::TensorNetwork;
use crate::plan::tests::{bind, per_call_correlator, qaoa_params, qaoa_template};
use crate::plan::ExpectationPlan;
use graphs::{Graph, Problem};
use proptest::prelude::*;
use qcircuit::{Circuit, Gate, Parameter};
use statevec::expectation::{maxcut_expectation as sv_maxcut, zz_expectation as sv_zz};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn plan_programs_are_bitwise_the_per_call_contractions(
        graph in arb_graph(),
        mixer in arb_mixer(),
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
        let template = qaoa_template(&graph, &problem, &mixer, p);
        let plan = ExpectationPlan::build(&template, &problem, &qaoa_params(p)).unwrap();
        let values = &angles[..2 * p];
        let circuit = bind(&template, values);
        match plan.term_correlators(values) {
            Some(correlators) => {
                for (term, got) in problem.terms().iter().zip(correlators) {
                    let want = (!term.qubits().is_empty())
                        .then(|| per_call_correlator(&circuit, term.qubits()).0);
                    prop_assert_eq!(
                        got.map(f64::to_bits),
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
        let want = lightcone::problem_expectation_sequential(&circuit, &problem).unwrap();
        let got = plan.expectation_sequential(&problem, values).unwrap();
        prop_assert_eq!(got.to_bits(), want.to_bits(), "energy at {:?}", values);
    }

    #[test]
    fn amplitude_matches_statevector(c in arb_circuit(4, 14)) {
        let amp_tn = TensorNetwork::amplitude(&c).unwrap();
        let sv = StateVector::from_circuit(&c).unwrap();
        let amp_sv = sv.amplitudes()[0];
        prop_assert!((amp_tn - amp_sv).norm() < 1e-9,
            "tn {amp_tn} vs sv {amp_sv}");
    }

    #[test]
    fn zz_expectation_matches_statevector(c in arb_circuit(4, 12), u in 0usize..4, v in 0usize..4) {
        prop_assume!(u != v);
        let tn = TensorNetwork::zz_expectation(&c, u, v).unwrap();
        let sv = StateVector::from_circuit(&c).unwrap();
        let dense = sv_zz(&sv, u, v);
        prop_assert!((tn - dense).abs() < 1e-9, "tn {tn} vs dense {dense}");
    }

    #[test]
    fn lightcone_zz_matches_full_network(c in arb_circuit(5, 12), u in 0usize..5, v in 0usize..5) {
        prop_assume!(u != v);
        let full = TensorNetwork::zz_expectation(&c, u, v).unwrap();
        let cone = zz_expectation_lightcone(&c, u, v).unwrap();
        prop_assert!((full - cone).abs() < 1e-9, "full {full} vs cone {cone}");
    }

    #[test]
    fn maxcut_expectation_matches_statevector(c in arb_circuit(4, 12)) {
        let edges = vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 2.0)];
        let tn = maxcut_expectation(&c, &edges).unwrap();
        let sv = StateVector::from_circuit(&c).unwrap();
        let dense = sv_maxcut(&sv, &edges);
        prop_assert!((tn - dense).abs() < 1e-8, "tn {tn} vs dense {dense}");
    }

    #[test]
    fn z_expectation_is_real_and_bounded(c in arb_circuit(3, 10), q in 0usize..3) {
        let z = TensorNetwork::z_expectation(&c, q).unwrap();
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&z));
    }
}
