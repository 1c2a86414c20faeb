//! Simulator backend selection.
//!
//! QArchSearch evaluates candidate circuits with the QTensor tensor-network
//! simulator; the paper lists GPU statevector simulation as future work. This
//! crate keeps both options behind one enum so the evaluator and the search
//! schedulers can switch freely (perfbench's `tensornet.energy_eval_us` and
//! `qaoa.energy_eval_us` probes quantify the difference on one set of
//! inputs).

use crate::error::QaoaError;
use graphs::Problem;
use qcircuit::Circuit;
use serde::{Error, Serialize, Value};

/// Which simulator evaluates circuit expectation values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Default)]
pub enum Backend {
    /// Dense state-vector simulation (exact, memory ∝ 2^n).
    StateVector,
    /// Tensor-network contraction with per-term light cones (QTensor analog).
    /// Cost terms are contracted in parallel on the Rayon pool — the inner
    /// level of the paper's two-level parallelization.
    #[default]
    TensorNetwork,
}

impl Backend {
    /// All backends.
    pub fn all() -> &'static [Backend] {
        &[Backend::StateVector, Backend::TensorNetwork]
    }

    /// Energy ⟨C⟩ of a fully-bound circuit for an arbitrary diagonal cost
    /// [`Problem`] — the problem-generic entry point every layer routes
    /// through.
    ///
    /// Callers that evaluate many circuits against one objective should
    /// build the [`Problem`] once and reuse it (as
    /// [`crate::energy::EnergyEvaluator`] does): the term list plays the
    /// role a cached edge list used to, without a per-call rebuild.
    pub fn expectation(&self, circuit: &Circuit, problem: &Problem) -> Result<f64, QaoaError> {
        let backend_err = |message: String| QaoaError::Backend { message };
        match self {
            Backend::StateVector => {
                let state = statevec::StateVector::from_circuit(circuit)
                    .map_err(|e| backend_err(e.to_string()))?;
                Ok(statevec::expectation::problem_expectation(&state, problem))
            }
            Backend::TensorNetwork => tensornet::lightcone::problem_expectation(circuit, problem)
                .map_err(|e| backend_err(e.to_string())),
        }
    }
}

// Written out rather than derived to read one legacy tag. A job's spec and
// checkpoints carry their backend into the server's journal, and a CRC-valid
// record that does not decode makes replay refuse the open, naming the line,
// and leave the file untouched (only a torn tail is dropped and compacted
// away). Journals written while a sequential tensor-network backend existed
// name it as `TensorNetworkSequential`; such a job resumes on
// `TensorNetwork`, which sums the same terms with the problem's constant
// added last (the same bits when the constant is zero, as for Max-Cut).
impl serde::Deserialize for Backend {
    fn from_value(value: &Value) -> Result<Backend, Error> {
        match value {
            Value::String(tag) => match tag.as_str() {
                "StateVector" => Ok(Backend::StateVector),
                "TensorNetwork" | "TensorNetworkSequential" => Ok(Backend::TensorNetwork),
                other => Err(Error::custom(format!("unknown Backend variant '{other}'"))),
            },
            other => Err(Error::custom(format!(
                "expected string for Backend but found {}",
                other.kind()
            ))),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Backend::StateVector => "statevector",
            Backend::TensorNetwork => "tensor-network",
        };
        write!(f, "{s}")
    }
}

impl std::str::FromStr for Backend {
    type Err = graphs::ParseKindError;

    /// Parse a backend name. Round-trips with [`Display`](std::fmt::Display);
    /// the short aliases `sv` and `tn` are also accepted.
    fn from_str(spec: &str) -> Result<Backend, Self::Err> {
        match spec {
            "statevector" | "sv" => Ok(Backend::StateVector),
            "tensor-network" | "tn" => Ok(Backend::TensorNetwork),
            other => Err(graphs::ParseKindError::new(
                "backend",
                other,
                "statevector, tensor-network",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::QaoaAnsatz;
    use crate::mixer::Mixer;
    use graphs::Graph;

    #[test]
    fn backends_agree_on_qaoa_energy() {
        let graph = Graph::erdos_renyi(6, 0.5, 11);
        let problem = Problem::max_cut(&graph);
        let ansatz = QaoaAnsatz::new(&graph, 2, Mixer::qnas());
        let circuit = ansatz.bind(&[0.4, 0.7], &[0.3, 0.1]).unwrap();
        let sv = Backend::StateVector
            .expectation(&circuit, &problem)
            .unwrap();
        let tn = Backend::TensorNetwork
            .expectation(&circuit, &problem)
            .unwrap();
        assert!((sv - tn).abs() < 1e-8, "sv {sv} vs tn {tn}");
    }

    #[test]
    fn backends_agree_on_every_shipped_problem() {
        let graph = Graph::erdos_renyi(6, 0.5, 4);
        for kind in graphs::ProblemKind::all(13) {
            let problem = kind.instantiate(&graph);
            let ansatz = QaoaAnsatz::for_problem(&problem, 1, Mixer::qnas()).unwrap();
            let circuit = ansatz.bind(&[0.35], &[0.2]).unwrap();
            let sv = Backend::StateVector
                .expectation(&circuit, &problem)
                .unwrap();
            let tn = Backend::TensorNetwork
                .expectation(&circuit, &problem)
                .unwrap();
            assert!(
                (sv - tn).abs() < 1e-8,
                "{}: sv {sv} vs tn {tn}",
                problem.name()
            );
        }
    }

    #[test]
    fn edge_list_problem_matches_graph_problem_bitwise() {
        // The successor of the removed maxcut_expectation[_with_edges]
        // wrappers: a Problem built from an explicit edge list routes
        // through the same generic path as one built from the graph.
        let graph = Graph::erdos_renyi(5, 0.6, 2);
        let ansatz = QaoaAnsatz::new(&graph, 1, Mixer::baseline());
        let circuit = ansatz.bind(&[0.4], &[0.3]).unwrap();
        let edges: Vec<(usize, usize, f64)> =
            graph.edges().iter().map(|e| (e.u, e.v, e.weight)).collect();
        let from_edges = Problem::max_cut_from_edges(graph.num_nodes(), &edges).unwrap();
        for backend in Backend::all() {
            let generic = backend
                .expectation(&circuit, &Problem::max_cut(&graph))
                .unwrap();
            let with_edges = backend.expectation(&circuit, &from_edges).unwrap();
            assert_eq!(generic.to_bits(), with_edges.to_bits(), "{backend}");
        }
    }

    #[test]
    fn backend_display_from_str_round_trips_exhaustively() {
        for &backend in Backend::all() {
            let parsed: Backend = backend.to_string().parse().unwrap();
            assert_eq!(parsed, backend);
        }
        // Short aliases.
        assert_eq!("sv".parse::<Backend>().unwrap(), Backend::StateVector);
        assert_eq!("tn".parse::<Backend>().unwrap(), Backend::TensorNetwork);
        // The sequential tensor-network backend is gone, by name and alias;
        // the error lists what replaces it.
        for name in ["gpu", "tensor-network-sequential", "tns"] {
            let err = name.parse::<Backend>().unwrap_err();
            assert_eq!(err.what, "backend");
            let message = err.to_string();
            assert!(message.contains("statevector"), "{message}");
            assert!(message.contains("tensor-network"), "{message}");
        }
    }

    #[test]
    fn default_backend_is_tensor_network() {
        assert_eq!(Backend::default(), Backend::TensorNetwork);
    }

    #[test]
    fn display_names() {
        assert_eq!(Backend::StateVector.to_string(), "statevector");
        assert_eq!(Backend::TensorNetwork.to_string(), "tensor-network");
    }

    #[test]
    fn unbound_circuit_is_a_backend_error() {
        let graph = Graph::cycle(3);
        let ansatz = QaoaAnsatz::new(&graph, 1, Mixer::baseline());
        // Template still has free parameters.
        let err = Backend::StateVector.expectation(ansatz.template(), &Problem::max_cut(&graph));
        assert!(matches!(err, Err(QaoaError::Backend { .. })));
    }
}
