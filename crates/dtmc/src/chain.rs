//! The validated Markov-chain type.

use std::fmt;

use zeroconf_linalg::Matrix;

use crate::DtmcError;

/// Index of a state in a [`Dtmc`].
///
/// `StateId`s are handed out by
/// [`DtmcBuilder::add_state`](crate::DtmcBuilder::add_state) in insertion order and are plain indices;
/// the newtype exists so that state handles cannot be confused with other
/// integers in user code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub(crate) usize);

impl StateId {
    /// The underlying index.
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One outgoing transition of a state: target, probability and reward.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Transition {
    /// Target state.
    pub(crate) to: StateId,
    /// Transition probability (validated to lie in `(0, 1]`).
    pub(crate) probability: f64,
    /// Reward (cost) charged when this transition is taken.
    pub(crate) reward: f64,
}

/// A validated discrete-time Markov chain with transition rewards.
///
/// Constructed through [`DtmcBuilder`](crate::DtmcBuilder); every row is
/// guaranteed to sum to one within `1e-9` and every probability/reward is
/// finite.
#[derive(Debug, Clone, PartialEq)]
pub struct Dtmc {
    pub(crate) names: Vec<String>,
    /// Outgoing transitions per state, sorted by target index.
    pub(crate) transitions: Vec<Vec<Transition>>,
}

impl Dtmc {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.names.len()
    }

    /// All state ids in index order.
    pub(crate) fn states(&self) -> impl Iterator<Item = StateId> + '_ {
        (0..self.names.len()).map(StateId)
    }

    /// Name of a state.
    ///
    /// # Errors
    ///
    /// Returns [`DtmcError::UnknownState`] for an out-of-range id.
    pub fn name(&self, state: StateId) -> Result<&str, DtmcError> {
        self.names
            .get(state.0)
            .map(String::as_str)
            .ok_or(DtmcError::UnknownState {
                state: state.0,
                num_states: self.names.len(),
            })
    }

    /// The outgoing transitions of a state, sorted by target index.
    ///
    /// # Errors
    ///
    /// Returns [`DtmcError::UnknownState`] for an out-of-range id.
    pub(crate) fn transitions_from(&self, state: StateId) -> Result<&[Transition], DtmcError> {
        self.transitions
            .get(state.0)
            .map(Vec::as_slice)
            .ok_or(DtmcError::UnknownState {
                state: state.0,
                num_states: self.names.len(),
            })
    }

    /// Probability of moving from `from` to `to` in one step (zero when no
    /// transition exists).
    ///
    /// # Errors
    ///
    /// Returns [`DtmcError::UnknownState`] when either id is out of range.
    pub fn probability(&self, from: StateId, to: StateId) -> Result<f64, DtmcError> {
        self.check_state(to)?;
        Ok(self
            .transitions_from(from)?
            .iter()
            .find(|t| t.to == to)
            .map_or(0.0, |t| t.probability))
    }

    /// Reward on the `from -> to` transition (zero when no transition
    /// exists, matching the paper's convention `p_ij = 0 ⇒ c_ij = 0`).
    ///
    /// # Errors
    ///
    /// Returns [`DtmcError::UnknownState`] when either id is out of range.
    pub fn reward(&self, from: StateId, to: StateId) -> Result<f64, DtmcError> {
        self.check_state(to)?;
        Ok(self
            .transitions_from(from)?
            .iter()
            .find(|t| t.to == to)
            .map_or(0.0, |t| t.reward))
    }

    /// True when the state is absorbing: its only transition is a self-loop
    /// with probability one.
    ///
    /// # Errors
    ///
    /// Returns [`DtmcError::UnknownState`] for an out-of-range id.
    pub fn is_absorbing(&self, state: StateId) -> Result<bool, DtmcError> {
        let ts = self.transitions_from(state)?;
        Ok(ts.len() == 1 && ts[0].to == state && (ts[0].probability - 1.0).abs() < 1e-12)
    }

    /// The full transition-probability matrix `P`.
    pub fn transition_matrix(&self) -> Matrix {
        let n = self.num_states();
        let mut p = Matrix::zeros(n, n);
        for (from, ts) in self.transitions.iter().enumerate() {
            for t in ts {
                p[(from, t.to.0)] = t.probability;
            }
        }
        p
    }

    pub(crate) fn check_state(&self, state: StateId) -> Result<(), DtmcError> {
        if state.0 < self.names.len() {
            Ok(())
        } else {
            Err(DtmcError::UnknownState {
                state: state.0,
                num_states: self.names.len(),
            })
        }
    }
}

impl fmt::Display for Dtmc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DTMC with {} states:", self.num_states())?;
        for (from, ts) in self.transitions.iter().enumerate() {
            for t in ts {
                writeln!(
                    f,
                    "  {} --{:.6}/{:.6e}--> {}",
                    self.names[from], t.probability, t.reward, self.names[t.to.0]
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::DtmcBuilder;

    use super::*;

    /// `a → a` (p 0.5, reward 1), `a → z` (p 0.5, reward 2), `z` absorbing.
    fn two_state() -> (Dtmc, StateId, StateId) {
        let mut b = DtmcBuilder::new();
        let a = b.add_state("a");
        let z = b.add_state("z");
        b.add_transition(a, a, 0.5, 1.0).unwrap();
        b.add_transition(a, z, 0.5, 2.0).unwrap();
        b.add_transition(z, z, 1.0, 0.0).unwrap();
        (b.build().unwrap(), a, z)
    }

    #[test]
    fn names_and_lookup() {
        let (c, a, _) = two_state();
        assert_eq!(c.name(a).unwrap(), "a");
        assert!(c.name(StateId(9)).is_err());
    }

    #[test]
    fn probability_and_reward_lookup() {
        let (c, a, z) = two_state();
        assert_eq!(c.probability(a, z).unwrap(), 0.5);
        assert_eq!(c.reward(a, z).unwrap(), 2.0);
        assert_eq!(c.probability(z, a).unwrap(), 0.0);
        assert_eq!(c.reward(z, a).unwrap(), 0.0);
    }

    #[test]
    fn absorbing_detection() {
        let (c, a, z) = two_state();
        assert!(!c.is_absorbing(a).unwrap());
        assert!(c.is_absorbing(z).unwrap());
    }

    #[test]
    fn matrices_reflect_transitions() {
        let (c, _, _) = two_state();
        let p = c.transition_matrix();
        assert_eq!(p[(0, 0)], 0.5);
        assert_eq!(p[(0, 1)], 0.5);
        assert_eq!(p[(1, 1)], 1.0);
    }

    #[test]
    fn display_lists_transitions_with_names() {
        let text = format!("{}", two_state().0);
        assert!(text.contains("a --"));
        assert!(text.contains("--> z"));
    }

    #[test]
    fn state_id_display() {
        assert_eq!(StateId(3).to_string(), "s3");
    }

    #[test]
    fn states_iterates_in_order() {
        let (c, _, _) = two_state();
        let ids: Vec<usize> = c.states().map(StateId::index).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
