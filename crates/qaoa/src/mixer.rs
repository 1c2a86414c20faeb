//! Mixer layers: the design space of the architecture search.
//!
//! A mixer is a short sequence of single-qubit gates applied to **every**
//! node of the graph. Parameterized gates share a single variational angle
//! `β` per QAOA layer and are applied as `G(2β)` — matching the paper, where
//! the discovered winner is `RX(2β)` followed by `RY(2β)` on every qubit
//! (Fig. 6) and the baseline is the standard `RX(2β)` transverse-field mixer.

use crate::error::QaoaError;
use qcircuit::{Circuit, Gate, Parameter};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A mixer layer: an ordered sequence of single-qubit gates applied to every
/// qubit, sharing one `β` parameter per QAOA layer.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Mixer {
    gates: Vec<Gate>,
}

impl Mixer {
    /// A mixer from an ordered gate sequence. Fails on an empty sequence or
    /// on multi-qubit gates.
    pub fn new(gates: Vec<Gate>) -> Result<Mixer, QaoaError> {
        if gates.is_empty() {
            return Err(QaoaError::EmptyMixer);
        }
        for g in &gates {
            if g.arity() != 1 {
                return Err(QaoaError::Backend {
                    message: format!("mixer gates must be single-qubit, got {g}"),
                });
            }
        }
        Ok(Mixer { gates })
    }

    /// The standard QAOA transverse-field mixer `RX(2β)` — the baseline of
    /// Figs. 8 and 9.
    pub fn baseline() -> Mixer {
        Mixer {
            gates: vec![Gate::RX],
        }
    }

    /// The mixer discovered by the paper's search: `RX(2β)` followed by
    /// `RY(2β)` on every qubit (Fig. 6), labelled "qnas" in Figs. 8–9.
    pub fn qnas() -> Mixer {
        Mixer {
            gates: vec![Gate::RX, Gate::RY],
        }
    }

    /// The candidate mixers plotted in Fig. 7, in the paper's order:
    /// `('ry','p')`, `('rx','h')`, `('h','p')`, `('rx','ry')`.
    pub fn fig7_candidates() -> Vec<Mixer> {
        vec![
            Mixer {
                gates: vec![Gate::RY, Gate::P],
            },
            Mixer {
                gates: vec![Gate::RX, Gate::H],
            },
            Mixer {
                gates: vec![Gate::H, Gate::P],
            },
            Mixer {
                gates: vec![Gate::RX, Gate::RY],
            },
        ]
    }

    /// The gate sequence.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of gates applied per qubit.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the mixer is empty (never true for constructed mixers).
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Number of *parameterized* gates per qubit (the rest are fixed
    /// Cliffords like `H`).
    pub fn parameterized_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_parameterized()).count()
    }

    /// Append this mixer's gates for every qubit to `circuit`, using the free
    /// parameter `beta_name` with the paper's `2β` convention.
    pub fn append_layer(&self, circuit: &mut Circuit, beta_name: &str) {
        let n = circuit.num_qubits();
        for &gate in &self.gates {
            for q in 0..n {
                let param = if gate.is_parameterized() {
                    Parameter::free(beta_name, 2.0)
                } else {
                    Parameter::None
                };
                circuit.push(gate, &[q], param);
            }
        }
    }

    /// The label used in the paper's figures, e.g. `('rx', 'ry')`.
    pub fn label(&self) -> String {
        let names: Vec<String> = self
            .gates
            .iter()
            .map(|g| format!("'{}'", g.mnemonic()))
            .collect();
        format!("({})", names.join(", "))
    }
}

impl fmt::Display for Mixer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_rx() {
        let m = Mixer::baseline();
        assert_eq!(m.gates(), &[Gate::RX]);
        assert_eq!(m.label(), "('rx')");
    }

    #[test]
    fn qnas_is_rx_ry() {
        let m = Mixer::qnas();
        assert_eq!(m.gates(), &[Gate::RX, Gate::RY]);
        assert_eq!(m.parameterized_gate_count(), 2);
    }

    #[test]
    fn fig7_candidates_match_paper_labels() {
        let labels: Vec<String> = Mixer::fig7_candidates().iter().map(|m| m.label()).collect();
        assert_eq!(
            labels,
            vec![
                "('ry', 'p')".to_string(),
                "('rx', 'h')".to_string(),
                "('h', 'p')".to_string(),
                "('rx', 'ry')".to_string(),
            ]
        );
    }

    #[test]
    fn empty_mixer_is_rejected() {
        assert!(matches!(Mixer::new(vec![]), Err(QaoaError::EmptyMixer)));
    }

    #[test]
    fn two_qubit_gates_are_rejected() {
        assert!(Mixer::new(vec![Gate::CX]).is_err());
    }

    #[test]
    fn append_layer_shares_beta_with_multiplier_two() {
        let mut c = Circuit::new(3);
        Mixer::qnas().append_layer(&mut c, "beta_0");
        // 2 gates × 3 qubits.
        assert_eq!(c.len(), 6);
        assert_eq!(c.free_parameters(), vec!["beta_0".to_string()]);
        for inst in c.instructions() {
            match &inst.parameter {
                Parameter::Free { name, multiplier } => {
                    assert_eq!(name, "beta_0");
                    assert_eq!(*multiplier, 2.0);
                }
                other => panic!("unexpected parameter {other:?}"),
            }
        }
    }

    #[test]
    fn append_layer_with_clifford_gates_has_no_parameter() {
        let mut c = Circuit::new(2);
        Mixer::new(vec![Gate::H, Gate::RX])
            .unwrap()
            .append_layer(&mut c, "b");
        let unparameterized = c
            .instructions()
            .iter()
            .filter(|i| i.parameter.is_none())
            .count();
        assert_eq!(unparameterized, 2); // the two H gates
    }
}
