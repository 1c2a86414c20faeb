//! The rotation-gate alphabet `A_R` and enumeration of gate combinations.
//!
//! The paper searches mixer layers built from combinations of `k = 1..K_max`
//! gates drawn from an alphabet with `|A_R| = 5`; together with depths
//! `p = 1..4` this yields the "2500 possible circuit combinations" of §3.1
//! (4 depths × 5⁴ ordered length-4 sequences = 2500). We enumerate **ordered
//! sequences with repetition**, which is the convention that reproduces that
//! count; the alphabet defaults to `{RX, RY, RZ, H, P}`, the set from which
//! all the mixers shown in the paper's figures are drawn.
//!
//! Many of those sequences are the same mixer. A mixer applies its whole
//! sequence to every qubit with one shared angle, so it is one 2×2 unitary
//! U(β), and two sequences whose U(β) agree up to a global phase have the
//! same energy at every (γ, β). [`MixerClass`] keys a sequence by an exact
//! normal form of U(β), and a search trains one member of each class per
//! depth. Over the paper's alphabet the 780 sequences of length 1..=4 make
//! 203 normal forms; merging the forms whose U(β) is diagonal leaves 199
//! distinct mixers per depth (4 / 16 / 58 / 199 for `k_max` = 1 … 4), so the
//! paper's four depths train 796 candidates instead of 3 120.

use crate::error::SearchError;
use qcircuit::Gate;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;
use std::str::FromStr;

/// A single-qubit gate eligible for a mixer layer.
///
/// This is a thin, validated wrapper over [`qcircuit::Gate`] restricted to
/// single-qubit gates, so alphabets can be (de)serialized and displayed with
/// the paper's lower-case mnemonics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RotationGate(Gate);

impl RotationGate {
    /// Wrap a gate; only single-qubit gates are accepted.
    pub fn new(gate: Gate) -> Result<RotationGate, SearchError> {
        if gate.arity() != 1 {
            return Err(SearchError::InvalidEncoding {
                message: format!("{gate} is not a single-qubit gate"),
            });
        }
        Ok(RotationGate(gate))
    }

    /// The underlying gate.
    pub fn gate(&self) -> Gate {
        self.0
    }

    /// Whether the gate carries a variational angle.
    pub fn is_parameterized(&self) -> bool {
        self.0.is_parameterized()
    }
}

impl fmt::Display for RotationGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0.mnemonic())
    }
}

impl FromStr for RotationGate {
    type Err = SearchError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let gate: Gate = s
            .parse()
            .map_err(|e: String| SearchError::InvalidEncoding { message: e })?;
        RotationGate::new(gate)
    }
}

/// The gate alphabet `A_R` from which mixer layers are assembled.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GateAlphabet {
    gates: Vec<RotationGate>,
}

impl GateAlphabet {
    /// An alphabet from an explicit gate list.
    pub fn new(gates: Vec<Gate>) -> Result<GateAlphabet, SearchError> {
        if gates.is_empty() {
            return Err(SearchError::EmptyAlphabet);
        }
        let gates = gates
            .into_iter()
            .map(RotationGate::new)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(GateAlphabet { gates })
    }

    /// The paper's alphabet: `{RX, RY, RZ, H, P}` (|A_R| = 5).
    pub fn paper_default() -> GateAlphabet {
        GateAlphabet::new(vec![Gate::RX, Gate::RY, Gate::RZ, Gate::H, Gate::P])
            .expect("default alphabet is non-empty and single-qubit")
    }

    /// Parse an alphabet from lower-case mnemonics, e.g. `["rx", "h"]`.
    pub fn from_mnemonics(names: &[&str]) -> Result<GateAlphabet, SearchError> {
        if names.is_empty() {
            return Err(SearchError::EmptyAlphabet);
        }
        let gates = names
            .iter()
            .map(|n| n.parse::<RotationGate>())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(GateAlphabet { gates })
    }

    /// Alphabet size |A_R|.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the alphabet is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gates in the alphabet.
    pub fn gates(&self) -> &[RotationGate] {
        &self.gates
    }

    /// Gate at position `i` (the random predictor samples positions).
    pub fn gate_at(&self, i: usize) -> Option<RotationGate> {
        self.gates.get(i).copied()
    }

    /// Position of a gate in the alphabet, if present.
    pub fn position(&self, gate: Gate) -> Option<usize> {
        self.gates.iter().position(|g| g.gate() == gate)
    }

    /// All ordered gate sequences of exactly length `k` (with repetition):
    /// `|A_R|^k` sequences, the paper's GET_COMBINATIONS(A_R, k).
    pub fn combinations(&self, k: usize) -> Vec<Vec<Gate>> {
        let mut out = Vec::with_capacity(self.len().pow(k as u32));
        let mut current = Vec::with_capacity(k);
        self.combinations_rec(k, &mut current, &mut out);
        out
    }

    fn combinations_rec(&self, k: usize, current: &mut Vec<Gate>, out: &mut Vec<Vec<Gate>>) {
        if current.len() == k {
            out.push(current.clone());
            return;
        }
        for g in &self.gates {
            current.push(g.gate());
            self.combinations_rec(k, current, out);
            current.pop();
        }
    }

    /// All sequences of length `1..=k_max`, concatenated in increasing
    /// length order.
    pub fn all_combinations_up_to(&self, k_max: usize) -> Vec<Vec<Gate>> {
        let mut out = Vec::new();
        for k in 1..=k_max {
            out.extend(self.combinations(k));
        }
        out
    }

    /// Number of length-`k` sequences without materializing them.
    pub fn combination_count(&self, k: usize) -> usize {
        self.len().pow(k as u32)
    }

    /// Total number of candidate circuit evaluations for a full search over
    /// depths `1..=p_max` with per-depth sequences of length exactly `k`
    /// (the paper's accounting: 4 depths × 5⁴ = 2500).
    pub fn search_space_size(&self, p_max: usize, k: usize) -> usize {
        p_max * self.combination_count(k)
    }

    /// Number of distinct mixers ([`MixerClass`]es) among the sequences of
    /// length `1..=k_max`: what an exhaustive search trains per depth (199
    /// of 780 for the paper's alphabet at `k_max = 4`).
    pub fn distinct_mixers_up_to(&self, k_max: usize) -> usize {
        let classes: HashSet<MixerClass> = self
            .all_combinations_up_to(k_max)
            .iter()
            .map(|gates| MixerClass::of(gates))
            .collect();
        classes.len()
    }
}

/// The exact unitary class of a mixer's gate sequence.
///
/// Sequences with equal classes have equal U(β) up to a global phase at
/// every β, hence the same energy function of (γ, β). The key is a normal
/// form over `{rx, ry, rz, h, p}`:
///
/// * `p` becomes `rz`, since `P(θ) = e^{iθ/2}·RZ(θ)`;
/// * every `h` moves to the end of the sequence, conjugating the rotations
///   it passes (`H·RX·H = RZ`, `H·RZ·H = RX`, `H·RY(θ)·H = RY(−θ)`), which
///   leaves a word of signed rotation axes plus the parity of `h`;
/// * every diagonal sequence — an all-`z` word with even parity, or a
///   sequence of [`Gate::is_diagonal`] gates only — is one class, because
///   each leaves the energy at its |+⟩ value at every angle.
///
/// A sequence with any other gate keys as itself. The normal form is exact
/// but not complete: a few sequences with equal U(β) keep distinct keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MixerClass(ClassKey);

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ClassKey {
    Diagonal,
    Rotations { axes: Vec<Axis>, hadamard: bool },
    Verbatim(Vec<Gate>),
}

/// A rotation axis of the normal form; `h` conjugation flips `y`'s sign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Axis {
    X,
    Y,
    NegY,
    Z,
}

impl Axis {
    /// The axis of `H·R·H` for a rotation `R` about `self`.
    fn conjugated_by_h(self) -> Axis {
        match self {
            Axis::X => Axis::Z,
            Axis::Z => Axis::X,
            Axis::Y => Axis::NegY,
            Axis::NegY => Axis::Y,
        }
    }
}

impl MixerClass {
    /// The class of a mixer's gate sequence (in circuit order).
    pub fn of(gates: &[Gate]) -> MixerClass {
        if gates.iter().all(|g| g.is_diagonal()) {
            return MixerClass(ClassKey::Diagonal);
        }
        MixerClass(match normal_form(gates) {
            ClassKey::Rotations {
                axes,
                hadamard: false,
            } if axes.iter().all(|&a| a == Axis::Z) => ClassKey::Diagonal,
            key => key,
        })
    }

    /// Whether U(β) is diagonal at every β: the mixer never moves amplitude
    /// between basis states, so the energy stays at its |+⟩ value.
    pub fn is_diagonal(&self) -> bool {
        self.0 == ClassKey::Diagonal
    }
}

/// The signed axis word and `h` parity of a sequence over
/// `{rx, ry, rz, h, p}`, or the sequence itself if it has any other gate.
fn normal_form(gates: &[Gate]) -> ClassKey {
    let mut axes = Vec::with_capacity(gates.len());
    let mut hadamard = false;
    for &gate in gates {
        let axis = match gate {
            Gate::H => {
                hadamard = !hadamard;
                continue;
            }
            Gate::RX => Axis::X,
            Gate::RY => Axis::Y,
            Gate::RZ | Gate::P => Axis::Z,
            _ => return ClassKey::Verbatim(gates.to_vec()),
        };
        axes.push(if hadamard {
            axis.conjugated_by_h()
        } else {
            axis
        });
    }
    ClassKey::Rotations { axes, hadamard }
}

impl fmt::Display for GateAlphabet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = self.gates.iter().map(|g| g.to_string()).collect();
        write!(f, "{{{}}}", names.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::GateMatrix;
    use std::collections::HashMap;

    #[test]
    fn paper_alphabet_has_five_gates() {
        let a = GateAlphabet::paper_default();
        assert_eq!(a.len(), 5);
        assert_eq!(a.to_string(), "{rx, ry, rz, h, p}");
    }

    #[test]
    fn paper_search_space_is_2500() {
        // 4 depths × 5^4 ordered sequences = 2500, matching §3.1.
        let a = GateAlphabet::paper_default();
        assert_eq!(a.search_space_size(4, 4), 2500);
    }

    #[test]
    fn combination_counts() {
        let a = GateAlphabet::paper_default();
        assert_eq!(a.combination_count(1), 5);
        assert_eq!(a.combination_count(2), 25);
        assert_eq!(a.combinations(1).len(), 5);
        assert_eq!(a.combinations(2).len(), 25);
        assert_eq!(a.all_combinations_up_to(3).len(), 5 + 25 + 125);
    }

    #[test]
    fn combinations_are_ordered_sequences_with_repetition() {
        let a = GateAlphabet::from_mnemonics(&["rx", "ry"]).unwrap();
        let combos = a.combinations(2);
        assert_eq!(combos.len(), 4);
        assert!(combos.contains(&vec![Gate::RX, Gate::RX]));
        assert!(combos.contains(&vec![Gate::RX, Gate::RY]));
        assert!(combos.contains(&vec![Gate::RY, Gate::RX]));
        assert!(combos.contains(&vec![Gate::RY, Gate::RY]));
    }

    #[test]
    fn empty_alphabet_rejected() {
        assert!(matches!(
            GateAlphabet::new(vec![]),
            Err(SearchError::EmptyAlphabet)
        ));
        assert!(matches!(
            GateAlphabet::from_mnemonics(&[]),
            Err(SearchError::EmptyAlphabet)
        ));
    }

    #[test]
    fn two_qubit_gates_rejected() {
        assert!(GateAlphabet::new(vec![Gate::CX]).is_err());
        assert!(RotationGate::new(Gate::RZZ).is_err());
    }

    #[test]
    fn mnemonic_round_trip() {
        let a = GateAlphabet::from_mnemonics(&["rx", "h", "p"]).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.position(Gate::H), Some(1));
        assert_eq!(a.position(Gate::RY), None);
        assert_eq!(a.gate_at(2).unwrap().gate(), Gate::P);
        assert!(a.gate_at(7).is_none());
    }

    #[test]
    fn rotation_gate_parse_errors() {
        assert!("rzz".parse::<RotationGate>().is_err());
        assert!("bogus".parse::<RotationGate>().is_err());
        assert_eq!("ry".parse::<RotationGate>().unwrap().gate(), Gate::RY);
    }

    #[test]
    fn alphabet_errors_name_the_bad_entry() {
        let err = GateAlphabet::from_mnemonics(&["rx", "bogus"]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid gate alphabet entry: unknown gate mnemonic 'bogus'"
        );
        let err = GateAlphabet::from_mnemonics(&["cx"]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid gate alphabet entry: cx is not a single-qubit gate"
        );
    }

    /// U(β) of a mixer: its gates in circuit order, each parameterized one
    /// at angle 2β (as `qaoa::Mixer` applies them).
    fn mixer_unitary(gates: &[Gate], beta: f64) -> GateMatrix {
        gates.iter().fold(GateMatrix::of(Gate::I, 0.0), |u, &g| {
            GateMatrix::of(g, 2.0 * beta).matmul(&u)
        })
    }

    /// Whether `a` and `b` agree up to a global phase within `tol`.
    fn equal_up_to_phase(a: &GateMatrix, b: &GateMatrix, tol: f64) -> bool {
        // tr(a†b) = 2·e^{iφ} exactly when b = e^{iφ}·a.
        let trace = a.dagger().matmul(b);
        let trace = trace.data()[0] + trace.data()[3];
        if trace.norm() < 1e-6 {
            return false;
        }
        let phase = trace / trace.norm();
        let rotated: Vec<_> = a.data().iter().map(|&x| x * phase).collect();
        rotated
            .iter()
            .zip(b.data())
            .all(|(x, y)| (x - y).norm() <= tol)
    }

    const PROBE_BETAS: [f64; 4] = [0.37, 1.1, 2.9, -0.83];

    #[test]
    fn equal_classes_are_equal_unitaries() {
        let sequences = GateAlphabet::paper_default().all_combinations_up_to(4);
        let mut representative: HashMap<MixerClass, &Vec<Gate>> = HashMap::new();
        for gates in &sequences {
            let class = MixerClass::of(gates);
            if class.is_diagonal() {
                for beta in PROBE_BETAS {
                    let u = mixer_unitary(gates, beta);
                    assert!(
                        u.diagonal().is_some(),
                        "{gates:?} keys as diagonal but U({beta}) is not"
                    );
                }
                continue;
            }
            let first = *representative.entry(class).or_insert(gates);
            for beta in PROBE_BETAS {
                assert!(
                    equal_up_to_phase(
                        &mixer_unitary(first, beta),
                        &mixer_unitary(gates, beta),
                        1e-12
                    ),
                    "{first:?} and {gates:?} share a class but differ at beta = {beta}"
                );
            }
        }
    }

    #[test]
    fn class_counts_over_the_paper_alphabet() {
        let alphabet = GateAlphabet::paper_default();
        let mut normal_forms = Vec::new();
        let mut trained = Vec::new();
        for k_max in 1..=4 {
            let sequences = alphabet.all_combinations_up_to(k_max);
            let forms: HashSet<ClassKey> = sequences.iter().map(|g| normal_form(g)).collect();
            normal_forms.push(forms.len());
            trained.push(alphabet.distinct_mixers_up_to(k_max));
        }
        assert_eq!(normal_forms, [4, 18, 61, 203]);
        assert_eq!(trained, [4, 16, 58, 199]);
        let diagonal = alphabet
            .all_combinations_up_to(4)
            .iter()
            .filter(|g| MixerClass::of(g).is_diagonal())
            .count();
        assert_eq!(diagonal, 54);
    }

    #[test]
    fn class_examples() {
        use Gate::*;
        let class = |gates: &[Gate]| MixerClass::of(gates);
        assert_eq!(class(&[P]), class(&[RZ]));
        assert_eq!(class(&[H, RX]), class(&[RZ, H]));
        assert_eq!(class(&[H, RZ]), class(&[RX, H]));
        assert_eq!(class(&[H, H, RX]), class(&[RX]));
        assert_ne!(class(&[RX, RX]), class(&[RX]));
        assert_ne!(class(&[RX, RY]), class(&[RY, RX]));
        assert!(class(&[H, H, RZ]).is_diagonal());
        assert!(class(&[T, S, Z]).is_diagonal());
        assert!(!class(&[H]).is_diagonal());
        assert!(!class(&[H, RY, H]).is_diagonal());
        // Gates outside {rx, ry, rz, h, p} key as the sequence itself.
        assert_ne!(class(&[X, RX]), class(&[RX, X]));
        assert_eq!(class(&[X, RX]), class(&[X, RX]));
    }
}
