//! Incremental construction and validation of Markov chains.

use crate::{chain::Transition, Dtmc, DtmcError, StateId, STOCHASTIC_TOLERANCE};

/// Builder for [`Dtmc`] values.
///
/// States are added first (each returning its [`StateId`]), transitions
/// second; [`DtmcBuilder::build`] validates that every row is stochastic.
/// Probabilities of exactly zero are accepted and dropped, so that generic
/// model-construction code does not need to special-case vanishing branches
/// (the paper's convention `p_ij = 0 ⇒ c_ij = 0` is preserved by dropping
/// the attached reward too).
///
/// # Examples
///
/// ```
/// use zeroconf_dtmc::DtmcBuilder;
///
/// # fn main() -> Result<(), zeroconf_dtmc::DtmcError> {
/// let mut b = DtmcBuilder::new();
/// let s = b.add_state("start");
/// let t = b.add_state("target");
/// b.add_transition(s, t, 1.0, 3.0)?;
/// b.add_transition(t, t, 1.0, 0.0)?;
/// let chain = b.build()?;
/// assert_eq!(chain.num_states(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct DtmcBuilder {
    names: Vec<String>,
    transitions: Vec<Vec<Transition>>,
}

impl DtmcBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        DtmcBuilder::default()
    }

    /// Creates an empty builder with capacity for `n` states.
    pub fn with_capacity(n: usize) -> Self {
        DtmcBuilder {
            names: Vec::with_capacity(n),
            transitions: Vec::with_capacity(n),
        }
    }

    /// Adds a state and returns its id. Names need not be unique; they
    /// label the state in errors and in the chain's `Display`.
    pub fn add_state(&mut self, name: impl Into<String>) -> StateId {
        self.names.push(name.into());
        self.transitions.push(Vec::new());
        StateId(self.names.len() - 1)
    }

    /// Adds a transition with the given probability and reward.
    ///
    /// A probability of exactly `0.0` is accepted and silently dropped.
    ///
    /// # Errors
    ///
    /// - [`DtmcError::UnknownState`] if either endpoint was never added.
    /// - [`DtmcError::InvalidProbability`] if `probability ∉ [0, 1]` or is
    ///   not finite.
    /// - [`DtmcError::InvalidReward`] if `reward` is not finite.
    /// - [`DtmcError::DuplicateTransition`] if the `(from, to)` pair already
    ///   has a transition.
    pub fn add_transition(
        &mut self,
        from: StateId,
        to: StateId,
        probability: f64,
        reward: f64,
    ) -> Result<&mut Self, DtmcError> {
        let n = self.names.len();
        for endpoint in [from, to] {
            if endpoint.0 >= n {
                return Err(DtmcError::UnknownState {
                    state: endpoint.0,
                    num_states: n,
                });
            }
        }
        if !probability.is_finite() || !(0.0..=1.0).contains(&probability) {
            return Err(DtmcError::InvalidProbability {
                from: from.0,
                to: to.0,
                value: probability,
            });
        }
        if !reward.is_finite() {
            return Err(DtmcError::InvalidReward {
                from: from.0,
                to: to.0,
                value: reward,
            });
        }
        if self.transitions[from.0].iter().any(|t| t.to == to) {
            return Err(DtmcError::DuplicateTransition {
                from: from.0,
                to: to.0,
            });
        }
        if probability > 0.0 {
            self.transitions[from.0].push(Transition {
                to,
                probability,
                reward,
            });
        }
        Ok(self)
    }

    /// Marks a state absorbing: adds the probability-one, zero-reward
    /// self-loop the validation requires.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DtmcBuilder::add_transition`].
    pub fn make_absorbing(&mut self, state: StateId) -> Result<&mut Self, DtmcError> {
        self.add_transition(state, state, 1.0, 0.0)
    }

    /// Validates and finalizes the chain.
    ///
    /// # Errors
    ///
    /// - [`DtmcError::EmptyChain`] if no states were added.
    /// - [`DtmcError::RowNotStochastic`] if any state's outgoing
    ///   probabilities do not sum to one within `1e-9`.
    pub fn build(self) -> Result<Dtmc, DtmcError> {
        if self.names.is_empty() {
            return Err(DtmcError::EmptyChain);
        }
        for (state, ts) in self.transitions.iter().enumerate() {
            let sum: f64 = ts.iter().map(|t| t.probability).sum();
            if (sum - 1.0).abs() > STOCHASTIC_TOLERANCE {
                return Err(DtmcError::RowNotStochastic {
                    state,
                    name: self.names[state].clone(),
                    sum,
                });
            }
        }
        let mut transitions = self.transitions;
        for ts in &mut transitions {
            ts.sort_by_key(|t| t.to.0);
        }
        Ok(Dtmc {
            names: self.names,
            transitions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_rejects_empty_chain() {
        assert!(matches!(
            DtmcBuilder::new().build(),
            Err(DtmcError::EmptyChain)
        ));
    }

    #[test]
    fn build_rejects_substochastic_row() {
        let mut b = DtmcBuilder::new();
        let s = b.add_state("s");
        b.add_transition(s, s, 0.5, 0.0).unwrap();
        let err = b.build().unwrap_err();
        assert!(matches!(err, DtmcError::RowNotStochastic { state: 0, .. }));
    }

    #[test]
    fn build_rejects_superstochastic_row() {
        let mut b = DtmcBuilder::new();
        let s = b.add_state("s");
        let t = b.add_state("t");
        b.add_transition(s, s, 0.7, 0.0).unwrap();
        b.add_transition(s, t, 0.7, 0.0).unwrap();
        b.make_absorbing(t).unwrap();
        assert!(matches!(b.build(), Err(DtmcError::RowNotStochastic { .. })));
    }

    #[test]
    fn build_accepts_tiny_rounding_error() {
        let mut b = DtmcBuilder::new();
        let s = b.add_state("s");
        let t = b.add_state("t");
        b.add_transition(s, s, 0.1 + 0.2, 0.0).unwrap(); // 0.30000000000000004
        b.add_transition(s, t, 0.7, 0.0).unwrap();
        b.make_absorbing(t).unwrap();
        assert!(b.build().is_ok());
    }

    #[test]
    fn add_transition_rejects_bad_probability() {
        let mut b = DtmcBuilder::new();
        let s = b.add_state("s");
        for bad in [-0.1, 1.1, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                b.add_transition(s, s, bad, 0.0),
                Err(DtmcError::InvalidProbability { .. })
            ));
        }
    }

    #[test]
    fn add_transition_rejects_bad_reward() {
        let mut b = DtmcBuilder::new();
        let s = b.add_state("s");
        assert!(matches!(
            b.add_transition(s, s, 0.5, f64::NAN),
            Err(DtmcError::InvalidReward { .. })
        ));
    }

    #[test]
    fn add_transition_rejects_unknown_states() {
        let mut b = DtmcBuilder::new();
        let s = b.add_state("s");
        assert!(matches!(
            b.add_transition(s, StateId(7), 1.0, 0.0),
            Err(DtmcError::UnknownState { state: 7, .. })
        ));
    }

    #[test]
    fn duplicate_transitions_are_rejected() {
        let mut b = DtmcBuilder::new();
        let s = b.add_state("s");
        let t = b.add_state("t");
        b.add_transition(s, t, 0.5, 0.0).unwrap();
        assert!(matches!(
            b.add_transition(s, t, 0.5, 0.0),
            Err(DtmcError::DuplicateTransition { from: 0, to: 1 })
        ));
    }

    #[test]
    fn zero_probability_transitions_are_dropped() {
        let mut b = DtmcBuilder::new();
        let s = b.add_state("s");
        let t = b.add_state("t");
        b.add_transition(s, t, 0.0, 100.0).unwrap();
        b.add_transition(s, s, 1.0, 0.0).unwrap();
        b.make_absorbing(t).unwrap();
        let chain = b.build().unwrap();
        assert_eq!(chain.probability(s, t).unwrap(), 0.0);
        assert_eq!(chain.reward(s, t).unwrap(), 0.0);
    }

    #[test]
    fn dropped_zero_probability_edge_does_not_block_readding() {
        // A zero-probability edge is never stored, so the same (from, to)
        // pair can later be added with a real probability.
        let mut b = DtmcBuilder::new();
        let s = b.add_state("s");
        b.add_transition(s, s, 0.0, 0.0).unwrap();
        assert!(b.add_transition(s, s, 1.0, 0.0).is_ok());
    }

    #[test]
    fn transitions_are_sorted_by_target_after_build() {
        let mut b = DtmcBuilder::new();
        let a = b.add_state("a");
        let z = b.add_state("z");
        let m = b.add_state("m");
        b.add_transition(a, m, 0.5, 0.0).unwrap();
        b.add_transition(a, z, 0.25, 0.0).unwrap();
        b.add_transition(a, a, 0.25, 0.0).unwrap();
        b.make_absorbing(z).unwrap();
        b.make_absorbing(m).unwrap();
        let chain = b.build().unwrap();
        let targets: Vec<usize> = chain
            .transitions_from(a)
            .unwrap()
            .iter()
            .map(|t| t.to.index())
            .collect();
        assert_eq!(targets, vec![0, 1, 2]);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut b = DtmcBuilder::with_capacity(8);
        let x = b.add_state("x");
        b.make_absorbing(x).unwrap();
        assert_eq!(b.build().unwrap().num_states(), 1);
    }
}
