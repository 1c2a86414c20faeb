//! Predictors: the component that proposes candidate circuits.
//!
//! The released QArchSearch uses random search, "which has shown to be a
//! strong baseline in neural architecture search" (§2.1, citing Li &
//! Talwalkar). The paper lists learned search (RL / DNN controllers à la
//! Zoph & Le) as the planned extension; this module ships both:
//!
//! * [`RandomPredictor`] — uniform random gate sequences (the paper's
//!   released algorithm),
//! * [`EpsilonGreedyPredictor`] — a per-slot bandit that exploits observed
//!   rewards,
//! * [`PolicyGradientPredictor`] — a softmax policy over gates per slot
//!   trained with REINFORCE, the lightweight stand-in for the "deep neural
//!   network based search" future-work direction.
//!
//! Predictors propose gate sequences of a requested length and receive the
//! evaluator's reward via [`Predictor::feedback`].

use crate::alphabet::GateAlphabet;
use qcircuit::Gate;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A strategy for proposing candidate mixer gate sequences.
pub trait Predictor: Send {
    /// Propose one gate sequence of exactly `k` gates.
    fn propose(&mut self, k: usize) -> Vec<Gate>;

    /// Receive the reward obtained by a previously proposed sequence.
    fn feedback(&mut self, gates: &[Gate], reward: f64);

    /// Score a candidate sequence under the predictor's current knowledge
    /// (higher = more promising). The search pipeline uses this as an
    /// optional **gate**: before the first successive-halving rung it ranks
    /// the proposed candidates by score and only admits the top fraction,
    /// so evaluation budget concentrates on sequences resembling past
    /// winners. Predictors without a learned model return 0 for every
    /// sequence (the gate then keeps proposal order).
    fn score(&self, _gates: &[Gate]) -> f64 {
        0.0
    }

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

// --------------------------------------------------------------------------

/// Uniform random search over gate sequences (the paper's algorithm).
#[derive(Debug, Clone)]
pub struct RandomPredictor {
    alphabet: GateAlphabet,
    rng: ChaCha8Rng,
}

impl RandomPredictor {
    /// A random predictor over `alphabet` with a fixed seed.
    pub fn new(alphabet: GateAlphabet, seed: u64) -> RandomPredictor {
        RandomPredictor {
            alphabet,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }
}

impl Predictor for RandomPredictor {
    fn propose(&mut self, k: usize) -> Vec<Gate> {
        (0..k.max(1))
            .map(|_| {
                let i = self.rng.gen_range(0..self.alphabet.len());
                self.alphabet.gate_at(i).expect("index in range").gate()
            })
            .collect()
    }

    fn feedback(&mut self, _gates: &[Gate], _reward: f64) {
        // Random search ignores rewards.
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

// --------------------------------------------------------------------------

/// An ε-greedy bandit with independent per-(slot, gate) value estimates.
#[derive(Debug, Clone)]
pub struct EpsilonGreedyPredictor {
    alphabet: GateAlphabet,
    epsilon: f64,
    /// values[slot][gate] = running mean reward; counts track sample sizes.
    values: Vec<Vec<f64>>,
    counts: Vec<Vec<usize>>,
    rng: ChaCha8Rng,
}

/// A serializable snapshot of an [`EpsilonGreedyPredictor`]'s learned
/// state (per-slot value estimates and sample counts).
///
/// Used by the search session layer to checkpoint the predictor-gate ranker
/// mid-search: restoring the state into a freshly seeded bandit reproduces
/// every subsequent [`Predictor::score`] bit for bit (scoring consumes no
/// randomness, so the RNG stream does not belong to the learned state).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BanditState {
    /// `values[slot][gate]` running mean rewards.
    pub values: Vec<Vec<f64>>,
    /// `counts[slot][gate]` sample counts.
    pub counts: Vec<Vec<usize>>,
}

impl EpsilonGreedyPredictor {
    /// A bandit predictor with exploration rate `epsilon` over `alphabet`.
    pub fn new(alphabet: GateAlphabet, epsilon: f64, seed: u64) -> EpsilonGreedyPredictor {
        EpsilonGreedyPredictor {
            alphabet,
            epsilon: epsilon.clamp(0.0, 1.0),
            values: Vec::new(),
            counts: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Snapshot the learned state (value estimates and counts).
    pub fn state(&self) -> BanditState {
        BanditState {
            values: self.values.clone(),
            counts: self.counts.clone(),
        }
    }

    /// Replace the learned state with a previously captured snapshot.
    pub fn restore_state(&mut self, state: BanditState) {
        self.values = state.values;
        self.counts = state.counts;
    }

    fn ensure_slots(&mut self, k: usize) {
        while self.values.len() < k {
            self.values.push(vec![0.0; self.alphabet.len()]);
            self.counts.push(vec![0; self.alphabet.len()]);
        }
    }

    /// The current greedy sequence of length `k` (highest value per slot).
    pub fn greedy_sequence(&self, k: usize) -> Vec<Gate> {
        (0..k)
            .map(|slot| {
                let best = self
                    .values
                    .get(slot)
                    .map(|vals| {
                        vals.iter()
                            .enumerate()
                            .max_by(|a, b| {
                                a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal)
                            })
                            .map(|(i, _)| i)
                            .unwrap_or(0)
                    })
                    .unwrap_or(0);
                self.alphabet.gate_at(best).expect("index in range").gate()
            })
            .collect()
    }
}

impl Predictor for EpsilonGreedyPredictor {
    fn propose(&mut self, k: usize) -> Vec<Gate> {
        let k = k.max(1);
        self.ensure_slots(k);
        (0..k)
            .map(|slot| {
                let explore = self.rng.gen::<f64>() < self.epsilon;
                let idx = if explore {
                    self.rng.gen_range(0..self.alphabet.len())
                } else {
                    self.values[slot]
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                        .map(|(i, _)| i)
                        .unwrap_or(0)
                };
                self.alphabet.gate_at(idx).expect("index in range").gate()
            })
            .collect()
    }

    fn feedback(&mut self, gates: &[Gate], reward: f64) {
        self.ensure_slots(gates.len());
        for (slot, gate) in gates.iter().enumerate() {
            if let Some(gi) = self.alphabet.position(*gate) {
                let n = self.counts[slot][gi] + 1;
                self.counts[slot][gi] = n;
                let old = self.values[slot][gi];
                self.values[slot][gi] = old + (reward - old) / n as f64;
            }
        }
    }

    /// Mean learned value of the candidate's per-slot gate choices. A
    /// (slot, gate) pair the bandit has never observed scores the *mean of
    /// that slot's seen values* — rewards are Max-Cut energies (strictly
    /// positive), so a literal 0 would rank every unexplored sequence dead
    /// last instead of neutrally.
    fn score(&self, gates: &[Gate]) -> f64 {
        if gates.is_empty() {
            return 0.0;
        }
        let total: f64 = gates
            .iter()
            .enumerate()
            .map(|(slot, gate)| {
                let (Some(gi), Some(vals), Some(counts)) = (
                    self.alphabet.position(*gate),
                    self.values.get(slot),
                    self.counts.get(slot),
                ) else {
                    return 0.0;
                };
                if counts[gi] > 0 {
                    return vals[gi];
                }
                // Unseen pair: neutral prior = mean of the slot's seen values.
                let seen: Vec<f64> = vals
                    .iter()
                    .zip(counts)
                    .filter(|(_, &c)| c > 0)
                    .map(|(&v, _)| v)
                    .collect();
                if seen.is_empty() {
                    0.0
                } else {
                    seen.iter().sum::<f64>() / seen.len() as f64
                }
            })
            .sum();
        total / gates.len() as f64
    }

    fn name(&self) -> &'static str {
        "epsilon-greedy"
    }
}

// --------------------------------------------------------------------------

/// A softmax policy over gates per slot, trained with REINFORCE and a running
/// baseline — the minimal "neural" controller in the spirit of Zoph & Le.
#[derive(Debug, Clone)]
pub struct PolicyGradientPredictor {
    alphabet: GateAlphabet,
    learning_rate: f64,
    /// logits[slot][gate].
    logits: Vec<Vec<f64>>,
    baseline: f64,
    baseline_count: usize,
    rng: ChaCha8Rng,
}

impl PolicyGradientPredictor {
    /// A policy-gradient predictor with the given learning rate and seed.
    pub fn new(alphabet: GateAlphabet, learning_rate: f64, seed: u64) -> PolicyGradientPredictor {
        PolicyGradientPredictor {
            alphabet,
            learning_rate,
            logits: Vec::new(),
            baseline: 0.0,
            baseline_count: 0,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    fn ensure_slots(&mut self, k: usize) {
        while self.logits.len() < k {
            self.logits.push(vec![0.0; self.alphabet.len()]);
        }
    }

    fn softmax(logits: &[f64]) -> Vec<f64> {
        let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = logits.iter().map(|l| (l - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }

    /// The policy's probability distribution over gates for a slot.
    pub fn slot_distribution(&self, slot: usize) -> Vec<f64> {
        match self.logits.get(slot) {
            Some(l) => Self::softmax(l),
            None => vec![1.0 / self.alphabet.len() as f64; self.alphabet.len()],
        }
    }
}

impl Predictor for PolicyGradientPredictor {
    fn propose(&mut self, k: usize) -> Vec<Gate> {
        let k = k.max(1);
        self.ensure_slots(k);
        (0..k)
            .map(|slot| {
                let probs = Self::softmax(&self.logits[slot]);
                let r: f64 = self.rng.gen();
                let mut acc = 0.0;
                let mut chosen = probs.len() - 1;
                for (i, p) in probs.iter().enumerate() {
                    acc += p;
                    if r < acc {
                        chosen = i;
                        break;
                    }
                }
                self.alphabet
                    .gate_at(chosen)
                    .expect("index in range")
                    .gate()
            })
            .collect()
    }

    fn feedback(&mut self, gates: &[Gate], reward: f64) {
        self.ensure_slots(gates.len());
        // Running-mean baseline reduces the variance of the REINFORCE update.
        self.baseline_count += 1;
        self.baseline += (reward - self.baseline) / self.baseline_count as f64;
        let advantage = reward - self.baseline;

        for (slot, gate) in gates.iter().enumerate() {
            let Some(chosen) = self.alphabet.position(*gate) else {
                continue;
            };
            let probs = Self::softmax(&self.logits[slot]);
            for (i, p) in probs.iter().enumerate() {
                // ∂ log π(chosen) / ∂ logit_i = [i == chosen] − p_i.
                let grad = if i == chosen { 1.0 - p } else { -p };
                self.logits[slot][i] += self.learning_rate * advantage * grad;
            }
        }
    }

    /// Mean log-probability of the sequence under the current policy.
    fn score(&self, gates: &[Gate]) -> f64 {
        if gates.is_empty() {
            return 0.0;
        }
        let total: f64 = gates
            .iter()
            .enumerate()
            .map(|(slot, gate)| {
                let probs = self.slot_distribution(slot);
                self.alphabet
                    .position(*gate)
                    .map(|gi| probs[gi].max(1e-12).ln())
                    .unwrap_or(f64::MIN)
            })
            .sum();
        total / gates.len() as f64
    }

    fn name(&self) -> &'static str {
        "policy-gradient"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alphabet() -> GateAlphabet {
        GateAlphabet::paper_default()
    }

    #[test]
    fn random_predictor_respects_length_and_alphabet() {
        let mut p = RandomPredictor::new(alphabet(), 3);
        for k in 1..=4 {
            let seq = p.propose(k);
            assert_eq!(seq.len(), k);
            for g in seq {
                assert!(alphabet().position(g).is_some());
            }
        }
    }

    #[test]
    fn random_predictor_is_seeded() {
        let mut a = RandomPredictor::new(alphabet(), 9);
        let mut b = RandomPredictor::new(alphabet(), 9);
        assert_eq!(a.propose(3), b.propose(3));
        assert_eq!(a.propose(2), b.propose(2));
    }

    #[test]
    fn epsilon_greedy_learns_best_gate() {
        // Reward RX highly and everything else poorly: the greedy sequence
        // must converge to RX in every slot.
        let mut p = EpsilonGreedyPredictor::new(alphabet(), 0.3, 4);
        for _ in 0..200 {
            let seq = p.propose(2);
            let reward = seq.iter().filter(|&&g| g == Gate::RX).count() as f64 / seq.len() as f64;
            p.feedback(&seq, reward);
        }
        assert_eq!(p.greedy_sequence(2), vec![Gate::RX, Gate::RX]);
    }

    #[test]
    fn unseen_gates_score_the_slot_mean_not_zero() {
        let mut p = EpsilonGreedyPredictor::new(alphabet(), 0.0, 1);
        // Rewards are energy-scale (strictly positive).
        p.feedback(&[Gate::RX], 10.0);
        p.feedback(&[Gate::RY], 6.0);
        // RZ was never proposed: it must rank at the seen mean (8.0), i.e.
        // between RX and RY, not at 0 below everything.
        let rz = p.score(&[Gate::RZ]);
        assert!((rz - 8.0).abs() < 1e-12, "rz scored {rz}");
        assert!(p.score(&[Gate::RX]) > rz);
        assert!(p.score(&[Gate::RY]) < rz);
        // A completely untrained slot stays at 0 for everyone.
        assert_eq!(p.score(&[Gate::RX, Gate::RX]), 5.0); // slot 1 unseen -> 0
    }

    #[test]
    fn epsilon_zero_is_pure_exploitation() {
        let mut p = EpsilonGreedyPredictor::new(alphabet(), 0.0, 1);
        p.feedback(&[Gate::RY], 10.0);
        // With no exploration, every proposal picks the only rewarded gate.
        for _ in 0..5 {
            assert_eq!(p.propose(1), vec![Gate::RY]);
        }
    }

    #[test]
    fn policy_gradient_concentrates_on_rewarded_gate() {
        let mut p = PolicyGradientPredictor::new(alphabet(), 0.5, 7);
        for _ in 0..300 {
            let seq = p.propose(1);
            let reward = if seq[0] == Gate::RY { 1.0 } else { 0.0 };
            p.feedback(&seq, reward);
        }
        let dist = p.slot_distribution(0);
        let ry_idx = alphabet().position(Gate::RY).unwrap();
        let max_idx = dist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(max_idx, ry_idx, "distribution {dist:?}");
        assert!(dist[ry_idx] > 0.5);
    }

    #[test]
    fn policy_distribution_is_normalized() {
        let p = PolicyGradientPredictor::new(alphabet(), 0.1, 2);
        let d = p.slot_distribution(0);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn bandit_state_round_trip_preserves_scores() {
        let mut trained = EpsilonGreedyPredictor::new(alphabet(), 0.0, 5);
        trained.feedback(&[Gate::RX, Gate::RY], 4.5);
        trained.feedback(&[Gate::RY, Gate::RX], 2.25);

        // Through serde (the search checkpoint path) into a fresh bandit.
        let json = serde_json::to_string(&trained.state()).unwrap();
        let state: BanditState = serde_json::from_str(&json).unwrap();
        let mut restored = EpsilonGreedyPredictor::new(alphabet(), 0.0, 5);
        restored.restore_state(state);

        for seq in [
            vec![Gate::RX, Gate::RY],
            vec![Gate::RY, Gate::RX],
            vec![Gate::RZ],
        ] {
            assert_eq!(
                trained.score(&seq).to_bits(),
                restored.score(&seq).to_bits(),
                "{seq:?}"
            );
        }
        // Further feedback keeps the two in lockstep.
        trained.feedback(&[Gate::H], 1.0);
        restored.feedback(&[Gate::H], 1.0);
        assert_eq!(
            trained.score(&[Gate::H]).to_bits(),
            restored.score(&[Gate::H]).to_bits()
        );
    }

    #[test]
    fn predictor_names_are_distinct() {
        let names = [
            RandomPredictor::new(alphabet(), 0).name(),
            EpsilonGreedyPredictor::new(alphabet(), 0.1, 0).name(),
            PolicyGradientPredictor::new(alphabet(), 0.1, 0).name(),
        ];
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }
}
