//! Property-based tests for the dense simulator.

use crate::batch::PlaneState;
use crate::compile::CompiledProgram;
use crate::expectation::{maxcut_diagonal, maxcut_expectation, zz_expectation};
use crate::state::StateVector;
use proptest::prelude::*;
use qcircuit::{Circuit, Gate, Parameter};

/// A random bound circuit over `n` qubits (subset of the gate alphabet that
/// exercises every kernel: single-qubit rotations, Cliffords, two-qubit
/// diagonal and non-diagonal gates).
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
        Just(Gate::SWAP),
        Just(Gate::RZZ),
    ];
    proptest::collection::vec((gate, 0..n, 0..n, -3.2f64..3.2), 0..max_len).prop_map(
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn norm_is_preserved(c in arb_circuit(5, 25)) {
        let s = StateVector::from_circuit(&c).unwrap();
        prop_assert!((s.norm_squared() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn probabilities_sum_to_one(c in arb_circuit(4, 20)) {
        let s = StateVector::from_circuit(&c).unwrap();
        let total: f64 = s.probabilities().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn circuit_then_inverse_restores_zero_state(c in arb_circuit(4, 15)) {
        let mut s = StateVector::zero_state(4).unwrap();
        s.apply_circuit(&c).unwrap();
        s.apply_circuit(&c.inverse().unwrap()).unwrap();
        let zero = StateVector::zero_state(4).unwrap();
        prop_assert!((s.fidelity(&zero) - 1.0).abs() < 1e-8);
    }

    #[test]
    fn diagonal_circuit_preserves_computational_probabilities(
        thetas in proptest::collection::vec(-3.0f64..3.0, 4),
    ) {
        // Diagonal gates (RZ, P, CZ, RZZ) leave measurement probabilities of a
        // basis state unchanged.
        let mut c = Circuit::new(3);
        c.x(1);
        c.rz(0, thetas[0]).p(1, thetas[1]).rzz(0, 2, thetas[2]).rz(2, thetas[3]);
        c.cz(0, 1);
        let s = StateVector::from_circuit(&c).unwrap();
        let p = s.probabilities();
        prop_assert!((p[0b010] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn maxcut_expectation_is_bounded(c in arb_circuit(4, 20)) {
        let edges = vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)];
        let s = StateVector::from_circuit(&c).unwrap();
        let e = maxcut_expectation(&s, &edges);
        prop_assert!(e >= -1e-9);
        prop_assert!(e <= 4.0 + 1e-9);
    }

    #[test]
    fn zz_expectation_within_unit_interval(c in arb_circuit(3, 15)) {
        let s = StateVector::from_circuit(&c).unwrap();
        let zz = zz_expectation(&s, 0, 2);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&zz));
    }

    #[test]
    fn compiled_program_matches_apply_circuit(c in arb_circuit(5, 30)) {
        let reference = StateVector::from_circuit(&c).unwrap();
        let compiled = CompiledProgram::compile(&c).unwrap().run(&[]).unwrap();
        for (a, b) in reference.amplitudes().iter().zip(compiled.amplitudes()) {
            prop_assert!((a - b).norm() < 1e-10, "amplitude {a} vs {b}");
        }
    }

    #[test]
    fn compiled_qaoa_template_matches_bound_simulation(
        edges in proptest::collection::vec((0usize..5, 0usize..5), 1..8),
        depth in 1usize..3,
        gammas in proptest::collection::vec(-2.0f64..2.0, 2),
        betas in proptest::collection::vec(-2.0f64..2.0, 2),
    ) {
        // A QAOA-shaped template: H layer, then per layer an RZZ cost pass
        // over the edges (shared gamma_k) and an RX mixer pass (shared
        // beta_k) — the exact shape the fused diagonal kernel targets.
        let mut c = Circuit::new(5);
        c.h_layer();
        for k in 0..depth {
            let gamma = format!("gamma_{k}");
            for &(u, v) in &edges {
                if u != v {
                    c.push(Gate::RZZ, &[u, v], Parameter::free(&gamma, 2.0));
                }
            }
            let beta = format!("beta_{k}");
            for q in 0..5 {
                c.push(Gate::RX, &[q], Parameter::free(&beta, 2.0));
            }
        }
        let program = CompiledProgram::compile(&c).unwrap();
        let mut assignments: Vec<(String, f64)> = Vec::new();
        let mut values = Vec::new();
        for name in program.param_names() {
            let (kind, idx) = name.split_once('_').unwrap();
            let k: usize = idx.parse().unwrap();
            let v = if kind == "gamma" { gammas[k] } else { betas[k] };
            assignments.push((name.clone(), v));
            values.push(v);
        }
        let refs: Vec<(&str, f64)> =
            assignments.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let bound = c.bind(&refs).unwrap();
        let reference = StateVector::from_circuit(&bound).unwrap();
        let compiled = program.run(&values).unwrap();
        for (a, b) in reference.amplitudes().iter().zip(compiled.amplitudes()) {
            prop_assert!((a - b).norm() < 1e-10, "amplitude {a} vs {b}");
        }
    }

    #[test]
    fn batched_execution_matches_sequential_bitwise(
        edges in proptest::collection::vec((0usize..5, 0usize..5), 1..8),
        depth in 1usize..3,
        points in proptest::collection::vec(
            proptest::collection::vec(-2.0f64..2.0, 4), 1..7),
    ) {
        // Same QAOA-shaped template as above; every point, swept in turn
        // through one reused two-plane state, must come out bit-for-bit
        // equal to its own scalar run.
        let mut c = Circuit::new(5);
        c.h_layer();
        for k in 0..depth {
            let gamma = format!("gamma_{k}");
            for &(u, v) in &edges {
                if u != v {
                    c.push(Gate::RZZ, &[u, v], Parameter::free(&gamma, 2.0));
                }
            }
            let beta = format!("beta_{k}");
            for q in 0..5 {
                c.push(Gate::RX, &[q], Parameter::free(&beta, 2.0));
            }
        }
        let program = CompiledProgram::compile(&c).unwrap();
        let np = program.num_params();
        let points: Vec<Vec<f64>> =
            points.into_iter().map(|p| p[..np].to_vec()).collect();
        let mut state = PlaneState::zero_state(5).unwrap();
        for p in &points {
            program.execute_planes_into(p, &mut state).unwrap();
            let want = program.run(p).unwrap();
            let (re, im) = state.planes();
            for (z, b) in want.amplitudes().iter().enumerate() {
                prop_assert_eq!(re[z].to_bits(), b.re.to_bits());
                prop_assert_eq!(im[z].to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    fn maxcut_diagonal_matches_per_state_values(
        edges in proptest::collection::vec((0usize..4, 0usize..4, 0.1f64..2.0), 1..6),
    ) {
        let edges: Vec<(usize, usize, f64)> =
            edges.into_iter().filter(|(u, v, _)| u != v).collect();
        let diag = maxcut_diagonal(4, &edges);
        for (z, d) in diag.iter().enumerate() {
            let direct = crate::expectation::maxcut_value_of_basis_state(&edges, z);
            prop_assert!((d - direct).abs() < 1e-12);
        }
    }
}
