//! Search-space constraints.
//!
//! The paper's conclusion highlights that QArchSearch "can also incorporate
//! arbitrary constraints in the search procedure and thus deliver custom
//! architectures". This module provides that mechanism: a set of
//! [`Constraint`]s that filter candidate mixer gate sequences before they are
//! built and trained, plus a combinator type ([`ConstraintSet`]) that the
//! search schedulers apply to every proposal.
//!
//! Constraints operate on the gate sequence (the per-qubit mixer pattern);
//! hardware-style resource limits are expressed through the resulting
//! per-qubit gate counts, which scale linearly with the register width.

use crate::alphabet::MixerClass;
use qcircuit::Gate;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A single admissibility rule for candidate mixer gate sequences.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Constraint {
    /// Reject sequences with more than this many gates per qubit.
    MaxGates(usize),
    /// Reject sequences with more than this many *parameterized* gates per
    /// qubit (each parameterized gate costs one rotation per qubit on
    /// hardware).
    MaxParameterizedGates(usize),
    /// Require a mixer that actually moves amplitude between computational
    /// basis states: reject exactly the sequences whose [`MixerClass`] is
    /// diagonal (such a "mixer" leaves the energy at the |+⟩^⊗n value at
    /// every angle — `rz,p`, but also `h,h,rz`).
    RequireMixing,
    /// Forbid specific gates (e.g. exclude `T`/`Tdg` to stay Clifford+rotation,
    /// or exclude `H` to keep the mixer purely rotational).
    ForbidGates(Vec<Gate>),
    /// Require the sequence to contain at least one gate from this list.
    RequireAnyOf(Vec<Gate>),
    /// Reject sequences where the same gate appears twice in a row (adjacent
    /// duplicates of self-inverse gates cancel; adjacent equal rotations
    /// merge — either way the duplicate wastes depth).
    NoAdjacentDuplicates,
}

impl Constraint {
    /// Whether `gates` satisfies this constraint.
    pub fn is_satisfied(&self, gates: &[Gate]) -> bool {
        match self {
            Constraint::MaxGates(limit) => gates.len() <= *limit,
            Constraint::MaxParameterizedGates(limit) => {
                gates.iter().filter(|g| g.is_parameterized()).count() <= *limit
            }
            Constraint::RequireMixing => !MixerClass::of(gates).is_diagonal(),
            Constraint::ForbidGates(forbidden) => !gates.iter().any(|g| forbidden.contains(g)),
            Constraint::RequireAnyOf(required) => gates.iter().any(|g| required.contains(g)),
            Constraint::NoAdjacentDuplicates => gates.windows(2).all(|w| w[0] != w[1]),
        }
    }

    /// A short description for reports.
    pub fn describe(&self) -> String {
        match self {
            Constraint::MaxGates(n) => format!("at most {n} gates per qubit"),
            Constraint::MaxParameterizedGates(n) => {
                format!("at most {n} parameterized gates per qubit")
            }
            Constraint::RequireMixing => "mixer must be non-diagonal".to_string(),
            Constraint::ForbidGates(gs) => {
                let names: Vec<&str> = gs.iter().map(|g| g.mnemonic()).collect();
                format!("forbids {{{}}}", names.join(", "))
            }
            Constraint::RequireAnyOf(gs) => {
                let names: Vec<&str> = gs.iter().map(|g| g.mnemonic()).collect();
                format!("requires one of {{{}}}", names.join(", "))
            }
            Constraint::NoAdjacentDuplicates => "no adjacent duplicate gates".to_string(),
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

/// A conjunction of constraints applied to every candidate.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConstraintSet {
    constraints: Vec<Constraint>,
}

impl ConstraintSet {
    /// The empty (always-satisfied) constraint set.
    pub fn none() -> ConstraintSet {
        ConstraintSet::default()
    }

    /// A set from explicit constraints.
    pub fn new(constraints: Vec<Constraint>) -> ConstraintSet {
        ConstraintSet { constraints }
    }

    /// A sensible default for hardware-conscious searches: candidates must
    /// mix, must not exceed `max_gates` gates per qubit, and must not waste
    /// depth on adjacent duplicates.
    pub fn hardware_aware(max_gates: usize) -> ConstraintSet {
        ConstraintSet {
            constraints: vec![
                Constraint::MaxGates(max_gates),
                Constraint::RequireMixing,
                Constraint::NoAdjacentDuplicates,
            ],
        }
    }

    /// Add a constraint (builder style).
    pub fn with(mut self, constraint: Constraint) -> ConstraintSet {
        self.constraints.push(constraint);
        self
    }

    /// The constraints in this set.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Whether `gates` satisfies every constraint.
    pub fn admits(&self, gates: &[Gate]) -> bool {
        self.constraints.iter().all(|c| c.is_satisfied(gates))
    }

    /// Filter a candidate list in place, returning how many were rejected.
    pub fn filter(&self, candidates: &mut Vec<Vec<Gate>>) -> usize {
        let before = candidates.len();
        candidates.retain(|c| self.admits(c));
        before - candidates.len()
    }
}

impl fmt::Display for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.constraints.is_empty() {
            return write!(f, "(unconstrained)");
        }
        let parts: Vec<String> = self.constraints.iter().map(|c| c.describe()).collect();
        write!(f, "{}", parts.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_gates_limits_length() {
        let c = Constraint::MaxGates(2);
        assert!(c.is_satisfied(&[Gate::RX, Gate::RY]));
        assert!(!c.is_satisfied(&[Gate::RX, Gate::RY, Gate::H]));
    }

    #[test]
    fn max_parameterized_counts_only_rotations() {
        let c = Constraint::MaxParameterizedGates(1);
        assert!(c.is_satisfied(&[Gate::RX, Gate::H, Gate::H]));
        assert!(!c.is_satisfied(&[Gate::RX, Gate::RY]));
    }

    #[test]
    fn require_mixing_rejects_diagonal_only() {
        let c = Constraint::RequireMixing;
        assert!(!c.is_satisfied(&[Gate::RZ, Gate::P]));
        assert!(c.is_satisfied(&[Gate::RZ, Gate::RX]));
    }

    #[test]
    fn require_mixing_is_exact() {
        let c = Constraint::RequireMixing;
        // `h,h` cancels: a non-diagonal gate alone does not make a mixer.
        assert!(!c.is_satisfied(&[Gate::H, Gate::H, Gate::RZ]));
        assert!(c.is_satisfied(&[Gate::H, Gate::RX]));
        assert!(c.is_satisfied(&[Gate::RX]));
    }

    #[test]
    fn forbid_and_require_gates() {
        let forbid = Constraint::ForbidGates(vec![Gate::H]);
        assert!(forbid.is_satisfied(&[Gate::RX, Gate::RY]));
        assert!(!forbid.is_satisfied(&[Gate::RX, Gate::H]));

        let require = Constraint::RequireAnyOf(vec![Gate::RY, Gate::RZ]);
        assert!(require.is_satisfied(&[Gate::RX, Gate::RY]));
        assert!(!require.is_satisfied(&[Gate::RX, Gate::H]));
    }

    #[test]
    fn no_adjacent_duplicates() {
        let c = Constraint::NoAdjacentDuplicates;
        assert!(c.is_satisfied(&[Gate::RX, Gate::RY, Gate::RX]));
        assert!(!c.is_satisfied(&[Gate::RX, Gate::RX]));
        assert!(c.is_satisfied(&[Gate::RX]));
        assert!(c.is_satisfied(&[]));
    }

    #[test]
    fn constraint_set_is_a_conjunction() {
        let set = ConstraintSet::new(vec![Constraint::MaxGates(2), Constraint::RequireMixing]);
        assert!(set.admits(&[Gate::RX, Gate::RZ]));
        assert!(!set.admits(&[Gate::RZ, Gate::P])); // no mixing
        assert!(!set.admits(&[Gate::RX, Gate::RY, Gate::H])); // too long
        assert!(ConstraintSet::none().admits(&[Gate::RZ]));
    }

    #[test]
    fn hardware_aware_preset() {
        let set = ConstraintSet::hardware_aware(2);
        assert!(set.admits(&[Gate::RX, Gate::RY]));
        assert!(!set.admits(&[Gate::RX, Gate::RX])); // adjacent duplicate
        assert!(!set.admits(&[Gate::RZ])); // not mixing
        assert_eq!(set.constraints().len(), 3);
    }

    #[test]
    fn filter_reports_rejections() {
        let set = ConstraintSet::new(vec![Constraint::RequireMixing]);
        let mut candidates = vec![
            vec![Gate::RX],
            vec![Gate::RZ],
            vec![Gate::P, Gate::RZ],
            vec![Gate::H, Gate::P],
        ];
        let rejected = set.filter(&mut candidates);
        assert_eq!(rejected, 2);
        assert_eq!(candidates.len(), 2);
    }

    #[test]
    fn descriptions_mention_gate_names() {
        let c = Constraint::ForbidGates(vec![Gate::H, Gate::T]);
        assert!(c.describe().contains('h'));
        assert!(c.describe().contains('t'));
        let set = ConstraintSet::hardware_aware(3);
        let display = set.to_string();
        assert!(display.contains("non-diagonal"));
        assert_eq!(ConstraintSet::none().to_string(), "(unconstrained)");
    }

    #[test]
    fn serde_round_trip() {
        let set = ConstraintSet::hardware_aware(4).with(Constraint::ForbidGates(vec![Gate::T]));
        let json = serde_json::to_string(&set).unwrap();
        let back: ConstraintSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, set);
    }
}
