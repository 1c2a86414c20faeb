//! The circuit container: an ordered list of instructions over `n` qubits.

use crate::error::CircuitError;
use crate::gate::Gate;
use crate::matrix::GateMatrix;
use crate::parameter::Parameter;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// One gate application: a [`Gate`], its qubit operands and its parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instruction {
    /// The gate kind.
    pub gate: Gate,
    /// Qubit operands (length equals `gate.arity()`).
    pub qubits: Vec<usize>,
    /// The rotation angle (or `Parameter::None`).
    pub parameter: Parameter,
}

impl Instruction {
    /// Build and validate an instruction against a circuit width.
    pub fn new(
        gate: Gate,
        qubits: &[usize],
        parameter: Parameter,
        width: usize,
    ) -> Result<Self, CircuitError> {
        if qubits.len() != gate.arity() {
            return Err(CircuitError::WrongArity {
                gate: gate.to_string(),
                expected: gate.arity(),
                got: qubits.len(),
            });
        }
        for &q in qubits {
            if q >= width {
                return Err(CircuitError::QubitOutOfRange { index: q, width });
            }
        }
        if qubits.len() == 2 && qubits[0] == qubits[1] {
            return Err(CircuitError::DuplicateQubit { qubit: qubits[0] });
        }
        if gate.is_parameterized() && parameter.is_none() {
            return Err(CircuitError::MissingParameter {
                gate: gate.to_string(),
            });
        }
        if !gate.is_parameterized() && !parameter.is_none() {
            return Err(CircuitError::UnexpectedParameter {
                gate: gate.to_string(),
            });
        }
        Ok(Instruction {
            gate,
            qubits: qubits.to_vec(),
            parameter,
        })
    }

    /// The concrete matrix of this instruction, if its parameter is resolved
    /// by `lookup` (bound parameters ignore the lookup).
    pub fn matrix(&self, lookup: &dyn Fn(&str) -> Option<f64>) -> Option<GateMatrix> {
        let theta = if self.gate.is_parameterized() {
            self.parameter.resolve(lookup)?
        } else {
            0.0
        };
        Some(GateMatrix::of(self.gate, theta))
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.parameter.is_none() {
            write!(f, "{} {:?}", self.gate, self.qubits)
        } else {
            write!(f, "{}({}) {:?}", self.gate, self.parameter, self.qubits)
        }
    }
}

/// A parameterized quantum circuit over a fixed number of qubits.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Circuit {
    num_qubits: usize,
    instructions: Vec<Instruction>,
}

impl Circuit {
    /// An empty circuit over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            instructions: Vec::new(),
        }
    }

    /// Circuit width.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the circuit has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The instruction list.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Append a gate; panics on invalid operands (use [`Circuit::try_push`]
    /// for a fallible version).
    pub fn push(&mut self, gate: Gate, qubits: &[usize], parameter: Parameter) -> &mut Self {
        self.try_push(gate, qubits, parameter)
            .expect("invalid instruction");
        self
    }

    /// Append a gate, validating operands and parameters.
    pub fn try_push(
        &mut self,
        gate: Gate,
        qubits: &[usize],
        parameter: Parameter,
    ) -> Result<&mut Self, CircuitError> {
        let inst = Instruction::new(gate, qubits, parameter, self.num_qubits)?;
        self.instructions.push(inst);
        Ok(self)
    }

    // --- convenience builders -------------------------------------------------

    /// Hadamard on `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Gate::H, &[q], Parameter::None)
    }

    /// Pauli-X on `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Gate::X, &[q], Parameter::None)
    }

    /// Pauli-Y on `q`.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Y, &[q], Parameter::None)
    }

    /// Pauli-Z on `q`.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Z, &[q], Parameter::None)
    }

    /// RX rotation on `q` with a bound angle.
    pub fn rx(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::RX, &[q], Parameter::bound(theta))
    }

    /// RY rotation on `q` with a bound angle.
    pub fn ry(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::RY, &[q], Parameter::bound(theta))
    }

    /// RZ rotation on `q` with a bound angle.
    pub fn rz(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::RZ, &[q], Parameter::bound(theta))
    }

    /// Phase rotation on `q` with a bound angle.
    pub fn p(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::P, &[q], Parameter::bound(theta))
    }

    /// CNOT with `control` and `target`.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Self {
        self.push(Gate::CX, &[control, target], Parameter::None)
    }

    /// CZ on the pair `(a, b)`.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::CZ, &[a, b], Parameter::None)
    }

    /// RZZ interaction on the pair `(a, b)` with a bound angle.
    pub fn rzz(&mut self, a: usize, b: usize, theta: f64) -> &mut Self {
        self.push(Gate::RZZ, &[a, b], Parameter::bound(theta))
    }

    /// A layer of Hadamards on every qubit (the `|+>^n` initial state prep).
    pub fn h_layer(&mut self) -> &mut Self {
        for q in 0..self.num_qubits {
            self.h(q);
        }
        self
    }

    // --- analysis -------------------------------------------------------------

    /// Sorted, de-duplicated names of free parameters in the circuit.
    pub fn free_parameters(&self) -> Vec<String> {
        let mut names: BTreeSet<String> = BTreeSet::new();
        for inst in &self.instructions {
            if let Some(n) = inst.parameter.name() {
                names.insert(n.to_string());
            }
        }
        names.into_iter().collect()
    }

    /// Total gate count.
    pub fn gate_count(&self) -> usize {
        self.instructions.len()
    }

    /// Circuit depth: the length of the longest chain of instructions that
    /// touch a common qubit, computed greedily layer by layer.
    pub fn depth(&self) -> usize {
        let mut qubit_depth = vec![0usize; self.num_qubits];
        for inst in &self.instructions {
            let level = inst
                .qubits
                .iter()
                .map(|&q| qubit_depth[q])
                .max()
                .unwrap_or(0)
                + 1;
            for &q in &inst.qubits {
                qubit_depth[q] = level;
            }
        }
        qubit_depth.into_iter().max().unwrap_or(0)
    }

    /// Count of parameterized gates.
    pub fn parameterized_gate_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.gate.is_parameterized())
            .count()
    }

    // --- transformation -------------------------------------------------------

    /// Append every instruction of `other` to `self`. Fails when the widths
    /// differ.
    pub fn compose(&mut self, other: &Circuit) -> Result<&mut Self, CircuitError> {
        if other.num_qubits != self.num_qubits {
            return Err(CircuitError::WidthMismatch {
                left: self.num_qubits,
                right: other.num_qubits,
            });
        }
        self.instructions.extend(other.instructions.iter().cloned());
        Ok(self)
    }

    /// A new circuit with the named parameters bound to values.
    ///
    /// Every free parameter appearing in the circuit must be present in
    /// `assignments`, otherwise [`CircuitError::UnboundParameter`] is
    /// returned. Bound parameters are left untouched.
    pub fn bind(&self, assignments: &[(&str, f64)]) -> Result<Circuit, CircuitError> {
        let lookup = |name: &str| {
            assignments
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
        };
        let mut out = Circuit::new(self.num_qubits);
        for inst in &self.instructions {
            let parameter = match &inst.parameter {
                Parameter::Free { name, multiplier } => match lookup(name) {
                    Some(v) => Parameter::Bound(multiplier * v),
                    None => return Err(CircuitError::UnboundParameter { name: name.clone() }),
                },
                other => other.clone(),
            };
            out.instructions.push(Instruction {
                gate: inst.gate,
                qubits: inst.qubits.clone(),
                parameter,
            });
        }
        Ok(out)
    }

    /// The inverse (dagger) circuit. Parameterized gates get negated angles;
    /// all parameters must already be bound.
    pub fn inverse(&self) -> Result<Circuit, CircuitError> {
        let mut out = Circuit::new(self.num_qubits);
        for inst in self.instructions.iter().rev() {
            let (gate, parameter) = match (&inst.gate, &inst.parameter) {
                (g, Parameter::Bound(v)) if g.is_parameterized() => (*g, Parameter::Bound(-v)),
                (_, Parameter::Free { name, .. }) => {
                    return Err(CircuitError::UnboundParameter { name: name.clone() });
                }
                (Gate::S, _) => (Gate::Sdg, Parameter::None),
                (Gate::Sdg, _) => (Gate::S, Parameter::None),
                (Gate::T, _) => (Gate::Tdg, Parameter::None),
                (Gate::Tdg, _) => (Gate::T, Parameter::None),
                (g, p) => (*g, p.clone()),
            };
            out.instructions.push(Instruction {
                gate,
                qubits: inst.qubits.clone(),
                parameter,
            });
        }
        Ok(out)
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Circuit[{} qubits, {} gates]",
            self.num_qubits,
            self.len()
        )?;
        for inst in &self.instructions {
            writeln!(f, "  {inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_validates_qubit_range() {
        let mut c = Circuit::new(2);
        assert!(c.try_push(Gate::H, &[0], Parameter::None).is_ok());
        let err = c.try_push(Gate::H, &[5], Parameter::None).unwrap_err();
        assert_eq!(err, CircuitError::QubitOutOfRange { index: 5, width: 2 });
    }

    #[test]
    fn push_validates_arity() {
        let mut c = Circuit::new(2);
        let err = c.try_push(Gate::CX, &[0], Parameter::None).unwrap_err();
        assert!(matches!(err, CircuitError::WrongArity { .. }));
    }

    #[test]
    fn push_rejects_duplicate_qubits() {
        let mut c = Circuit::new(2);
        let err = c.try_push(Gate::CX, &[1, 1], Parameter::None).unwrap_err();
        assert_eq!(err, CircuitError::DuplicateQubit { qubit: 1 });
    }

    #[test]
    fn push_validates_parameter_presence() {
        let mut c = Circuit::new(1);
        let err = c.try_push(Gate::RX, &[0], Parameter::None).unwrap_err();
        assert!(matches!(err, CircuitError::MissingParameter { .. }));
        let err = c
            .try_push(Gate::H, &[0], Parameter::bound(0.1))
            .unwrap_err();
        assert!(matches!(err, CircuitError::UnexpectedParameter { .. }));
    }

    #[test]
    fn free_parameters_are_sorted_unique() {
        let mut c = Circuit::new(2);
        c.push(Gate::RX, &[0], Parameter::free("beta", 2.0));
        c.push(Gate::RX, &[1], Parameter::free("beta", 2.0));
        c.push(Gate::RZZ, &[0, 1], Parameter::free("gamma", 1.0));
        assert_eq!(
            c.free_parameters(),
            vec!["beta".to_string(), "gamma".to_string()]
        );
    }

    #[test]
    fn bind_resolves_all_parameters() {
        let mut c = Circuit::new(1);
        c.push(Gate::RX, &[0], Parameter::free("beta", 2.0));
        let bound = c.bind(&[("beta", 0.5)]).unwrap();
        assert!(bound.free_parameters().is_empty());
        assert_eq!(bound.instructions()[0].parameter, Parameter::Bound(1.0));
    }

    #[test]
    fn bind_missing_parameter_errors() {
        let mut c = Circuit::new(1);
        c.push(Gate::RX, &[0], Parameter::free("beta", 1.0));
        assert!(matches!(
            c.bind(&[("gamma", 0.5)]),
            Err(CircuitError::UnboundParameter { .. })
        ));
    }

    #[test]
    fn depth_counts_parallel_layers_once() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2); // one layer
        assert_eq!(c.depth(), 1);
        c.cx(0, 1); // second layer
        c.cx(1, 2); // third layer (shares qubit 1)
        assert_eq!(c.depth(), 3);
        c.rx(0, 0.1); // fits in layer 3 alongside cx(1,2)? qubit 0 last used layer 2 -> layer 3
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn compose_requires_same_width() {
        let mut a = Circuit::new(2);
        let b = Circuit::new(3);
        assert!(matches!(
            a.compose(&b),
            Err(CircuitError::WidthMismatch { .. })
        ));
        let mut c = Circuit::new(2);
        c.h(0);
        a.compose(&c).unwrap();
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn inverse_reverses_and_negates() {
        let mut c = Circuit::new(2);
        c.h(0).rx(1, 0.3).cx(0, 1);
        let inv = c.inverse().unwrap();
        assert_eq!(inv.len(), 3);
        assert_eq!(inv.instructions()[0].gate, Gate::CX);
        assert_eq!(inv.instructions()[1].gate, Gate::RX);
        assert_eq!(inv.instructions()[1].parameter, Parameter::Bound(-0.3));
        assert_eq!(inv.instructions()[2].gate, Gate::H);
    }

    #[test]
    fn inverse_maps_s_to_sdg() {
        let mut c = Circuit::new(1);
        c.push(Gate::S, &[0], Parameter::None);
        c.push(Gate::T, &[0], Parameter::None);
        let inv = c.inverse().unwrap();
        assert_eq!(inv.instructions()[0].gate, Gate::Tdg);
        assert_eq!(inv.instructions()[1].gate, Gate::Sdg);
    }

    #[test]
    fn inverse_requires_bound_parameters() {
        let mut c = Circuit::new(1);
        c.push(Gate::RX, &[0], Parameter::free("beta", 1.0));
        assert!(c.inverse().is_err());
    }

    #[test]
    fn gate_counts() {
        let mut c = Circuit::new(3);
        c.h_layer();
        c.rzz(0, 1, 0.5).rzz(1, 2, 0.5);
        c.rx(0, 0.2);
        assert_eq!(c.gate_count(), 6);
        assert_eq!(c.parameterized_gate_count(), 3);
    }
}
