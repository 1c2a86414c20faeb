//! The proposer of candidate circuits, and the predictor gate's ranker.
//!
//! The released QArchSearch proposes candidates by random search, "which
//! has shown to be a strong baseline in neural architecture search" (§2.1,
//! citing Li & Talwalkar). This module holds that proposer and the one part
//! of the search that learns from rewards:
//!
//! * [`RandomPredictor`] — uniform random gate sequences (the paper's
//!   released algorithm), behind [`crate::search::SearchStrategy::Random`];
//! * [`GateRanker`] — per-(slot, gate) running-mean rewards, which the
//!   pipeline's optional predictor gate ranks a depth's candidates by. It
//!   trains on the first-rung energies of earlier depths, and its learned
//!   state is the serializable [`BanditState`].

use crate::alphabet::GateAlphabet;
use qcircuit::Gate;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

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

    /// Propose one gate sequence of `k` gates (at least one), each drawn
    /// uniformly from the alphabet.
    pub fn propose(&mut self, k: usize) -> Vec<Gate> {
        (0..k.max(1))
            .map(|_| {
                let i = self.rng.gen_range(0..self.alphabet.len());
                self.alphabet.gate_at(i).expect("index in range").gate()
            })
            .collect()
    }
}

/// The learned state of a [`GateRanker`]: per-slot running-mean rewards
/// and sample counts.
///
/// The search session layer checkpoints it mid-search: restoring it into a
/// fresh ranker reproduces every later [`GateRanker::score`] bit for bit.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BanditState {
    /// `values[slot][gate]` running mean rewards.
    pub values: Vec<Vec<f64>>,
    /// `counts[slot][gate]` sample counts.
    pub counts: Vec<Vec<usize>>,
}

/// Scores gate sequences by the rewards earlier sequences earned, slot by
/// slot: the predictor gate admits a depth's best-scoring candidates.
#[derive(Debug, Clone)]
pub struct GateRanker {
    alphabet: GateAlphabet,
    state: BanditState,
}

impl GateRanker {
    /// An untrained ranker over `alphabet` (every sequence scores 0).
    pub fn new(alphabet: GateAlphabet) -> GateRanker {
        GateRanker {
            alphabet,
            state: BanditState::default(),
        }
    }

    /// The learned state (value estimates and counts).
    pub fn state(&self) -> &BanditState {
        &self.state
    }

    /// Replace the learned state with a previously captured snapshot.
    pub fn restore_state(&mut self, state: BanditState) {
        self.state = state;
    }

    /// Fold the reward one sequence earned into each of its (slot, gate)
    /// running means.
    pub fn feedback(&mut self, gates: &[Gate], reward: f64) {
        let BanditState { values, counts } = &mut self.state;
        while values.len() < gates.len() {
            values.push(vec![0.0; self.alphabet.len()]);
            counts.push(vec![0; self.alphabet.len()]);
        }
        for (slot, gate) in gates.iter().enumerate() {
            if let Some(gi) = self.alphabet.position(*gate) {
                let n = counts[slot][gi] + 1;
                counts[slot][gi] = n;
                let old = values[slot][gi];
                values[slot][gi] = old + (reward - old) / n as f64;
            }
        }
    }

    /// Mean learned value of the candidate's per-slot gate choices (higher
    /// = more promising). A (slot, gate) pair the ranker has never observed
    /// scores the *mean of that slot's seen values* — rewards are Max-Cut
    /// energies (strictly positive), so a literal 0 would rank every
    /// unexplored sequence dead last instead of neutrally.
    pub fn score(&self, gates: &[Gate]) -> f64 {
        if gates.is_empty() {
            return 0.0;
        }
        let total: f64 = gates
            .iter()
            .enumerate()
            .map(|(slot, gate)| {
                let (Some(gi), Some(vals), Some(counts)) = (
                    self.alphabet.position(*gate),
                    self.state.values.get(slot),
                    self.state.counts.get(slot),
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
    fn ranker_scores_the_rewarded_gate_first() {
        // Reward each two-gate sequence by its share of RX: after one pass
        // over all of them, RX leads every slot and (RX, RX) scores highest.
        let mut ranker = GateRanker::new(alphabet());
        let mut sequences = alphabet().all_combinations_up_to(2);
        sequences.retain(|s| s.len() == 2);
        for seq in &sequences {
            let reward = seq.iter().filter(|&&g| g == Gate::RX).count() as f64 / 2.0;
            ranker.feedback(seq, reward);
        }
        let best = sequences
            .iter()
            .max_by(|a, b| ranker.score(a).total_cmp(&ranker.score(b)))
            .unwrap();
        assert_eq!(best, &vec![Gate::RX, Gate::RX]);
    }

    #[test]
    fn unseen_gates_score_the_slot_mean_not_zero() {
        let mut p = GateRanker::new(alphabet());
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
    fn bandit_state_round_trip_preserves_scores() {
        let mut trained = GateRanker::new(alphabet());
        trained.feedback(&[Gate::RX, Gate::RY], 4.5);
        trained.feedback(&[Gate::RY, Gate::RX], 2.25);

        // Through serde (the search checkpoint path) into a fresh ranker.
        let json = serde_json::to_string(trained.state()).unwrap();
        let state: BanditState = serde_json::from_str(&json).unwrap();
        let mut restored = GateRanker::new(alphabet());
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
}
