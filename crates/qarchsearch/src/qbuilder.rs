//! QBuilder: turn circuit encodings into concrete QAOA ansätze.
//!
//! The paper's QBuilder "accepts the encoded tensor representation from the
//! predictor module and generates the appropriate quantum circuit in an
//! available quantum computing software" (Qiskit in the original). Here it
//! decodes a [`CircuitEncoding`] (or a raw gate sequence) into a
//! [`qaoa::mixer::Mixer`] and assembles the full depth-`p` QAOA ansatz for a
//! given graph.

use crate::alphabet::GateAlphabet;
use crate::encoding::CircuitEncoding;
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

    /// The alphabet used for decoding encodings.
    pub fn alphabet(&self) -> &GateAlphabet {
        &self.alphabet
    }

    /// BUILD_MIXER_CKT of Algorithm 1: a [`Mixer`] from a raw gate sequence.
    pub fn build_mixer(&self, gates: &[Gate]) -> Result<Mixer, SearchError> {
        Mixer::new(gates.to_vec()).map_err(|e| SearchError::Evaluation {
            message: e.to_string(),
        })
    }

    /// Decode an encoding and build its mixer.
    pub fn build_mixer_from_encoding(
        &self,
        encoding: &CircuitEncoding,
    ) -> Result<Mixer, SearchError> {
        let gates = encoding.decode(&self.alphabet)?;
        self.build_mixer(&gates)
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

    #[test]
    fn mixer_gates_follow_encoding_order() {
        let b = QBuilder::paper_default();
        let enc = CircuitEncoding::encode(b.alphabet(), &[Gate::H, Gate::P, Gate::RX]).unwrap();
        let mixer = b.build_mixer_from_encoding(&enc).unwrap();
        assert_eq!(mixer.gates(), &[Gate::H, Gate::P, Gate::RX]);
    }
}
