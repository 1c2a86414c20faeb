//! QBuilder: turn proposed gate sequences into concrete QAOA ansätze.
//!
//! The paper's QBuilder "accepts the encoded tensor representation from the
//! predictor module and generates the appropriate quantum circuit in an
//! available quantum computing software" (Qiskit in the original). Here the
//! predictors propose gate sequences directly; QBuilder turns one into a
//! [`qaoa::mixer::Mixer`] and assembles the full depth-`p` QAOA ansatz for a
//! given graph.

use crate::alphabet::GateAlphabet;
use crate::error::SearchError;
use graphs::Graph;
use qaoa::ansatz::QaoaAnsatz;
use qaoa::mixer::Mixer;
use qcircuit::Gate;

/// Builds QAOA ansätze from mixer descriptions.
#[derive(Debug, Clone)]
pub struct QBuilder {
    alphabet: GateAlphabet,
}

impl QBuilder {
    /// A builder over the given alphabet.
    pub fn new(alphabet: GateAlphabet) -> QBuilder {
        QBuilder { alphabet }
    }

    /// A builder over the paper's default alphabet.
    pub fn paper_default() -> QBuilder {
        QBuilder {
            alphabet: GateAlphabet::paper_default(),
        }
    }

    /// The alphabet the builder was configured with.
    pub fn alphabet(&self) -> &GateAlphabet {
        &self.alphabet
    }

    /// BUILD_MIXER_CKT of Algorithm 1: a [`Mixer`] from a raw gate sequence.
    pub fn build_mixer(&self, gates: &[Gate]) -> Result<Mixer, SearchError> {
        Mixer::new(gates.to_vec()).map_err(|e| SearchError::Evaluation {
            message: e.to_string(),
        })
    }

    /// BUILD_QAOA_CKT of Algorithm 1: the depth-`p` ansatz for `graph` with
    /// the given mixer.
    pub fn build_qaoa(&self, graph: &Graph, mixer: Mixer, depth: usize) -> QaoaAnsatz {
        QaoaAnsatz::new(graph, depth, mixer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_mixer_from_gate_sequence() {
        let b = QBuilder::paper_default();
        let mixer = b.build_mixer(&[Gate::RX, Gate::RY]).unwrap();
        assert_eq!(mixer, Mixer::qnas());
    }

    #[test]
    fn build_mixer_rejects_empty_sequence() {
        let b = QBuilder::paper_default();
        assert!(b.build_mixer(&[]).is_err());
    }
}
