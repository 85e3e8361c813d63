//! Absorbing-chain analysis: absorption probabilities, expected steps and
//! expected/variance of the total accumulated reward.

use zeroconf_linalg::{LuDecomposition, Matrix};

use crate::{classify, Dtmc, DtmcError, StateId};

/// Precomputed analysis of an absorbing Markov chain.
///
/// Construction partitions the state space into transient states and
/// absorbing states, verifies that every transient state can actually reach
/// absorption, and LU-factors the matrix `I − P′` (with `P′` the transient
/// sub-matrix, exactly the object the paper manipulates in Sections 4.1 and
/// 5). All queries are then linear solves against that factorization.
///
/// # Examples
///
/// ```
/// use zeroconf_dtmc::{AbsorbingAnalysis, DtmcBuilder};
///
/// # fn main() -> Result<(), zeroconf_dtmc::DtmcError> {
/// let mut b = DtmcBuilder::new();
/// let s = b.add_state("start");
/// let heads = b.add_state("heads");
/// let tails = b.add_state("tails");
/// b.add_transition(s, heads, 0.3, 0.0)?;
/// b.add_transition(s, tails, 0.7, 0.0)?;
/// b.make_absorbing(heads)?;
/// b.make_absorbing(tails)?;
/// let chain = b.build()?;
/// let analysis = AbsorbingAnalysis::new(&chain)?;
/// let p = analysis.absorption_probability(s, heads)?;
/// assert!((p - 0.3).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AbsorbingAnalysis {
    chain: Dtmc,
    /// Transient states in index order.
    transient: Vec<StateId>,
    /// Absorbing states in index order.
    absorbing: Vec<StateId>,
    /// Position of each state in `transient` (usize::MAX when absorbing).
    transient_position: Vec<usize>,
    /// LU factors of `I − P′`.
    system: LuDecomposition,
}

impl AbsorbingAnalysis {
    /// Analyses a chain, cloning it into the analysis.
    ///
    /// # Errors
    ///
    /// - [`DtmcError::NoAbsorbingStates`] when the chain has none.
    /// - [`DtmcError::AbsorptionUnreachable`] when some state can avoid
    ///   absorption forever (it lies in or can only reach a non-absorbing
    ///   recurrent class).
    /// - [`DtmcError::Linalg`] if factorization fails (not expected for a
    ///   valid absorbing chain).
    pub fn new(chain: &Dtmc) -> Result<Self, DtmcError> {
        let absorbing = classify::absorbing_states(chain);
        if absorbing.is_empty() {
            return Err(DtmcError::NoAbsorbingStates);
        }
        let can_absorb = classify::states_reaching(chain, &absorbing)?;
        if can_absorb.len() != chain.num_states() {
            let mut reachable = vec![false; chain.num_states()];
            for s in &can_absorb {
                reachable[s.index()] = true;
            }
            let trapped = (0..chain.num_states())
                .find(|&i| !reachable[i])
                .map(StateId)
                .expect("some state must be unreachable");
            return Err(DtmcError::AbsorptionUnreachable {
                state: trapped.index(),
                name: chain.name(trapped)?.to_owned(),
            });
        }

        let transient: Vec<StateId> = chain.states().filter(|s| !absorbing.contains(s)).collect();
        let mut transient_position = vec![usize::MAX; chain.num_states()];
        for (pos, s) in transient.iter().enumerate() {
            transient_position[s.index()] = pos;
        }

        // Assemble I − P′ over the transient states. For an all-absorbing
        // chain a trivial 1x1 identity keeps the factorization total; all
        // queries on absorbing states early-return before touching it.
        let nt = transient.len();
        let mut system = Matrix::identity(nt.max(1));
        for (row, &s) in transient.iter().enumerate() {
            for t in chain.transitions_from(s)? {
                let pos = transient_position[t.to.index()];
                if pos != usize::MAX {
                    system[(row, pos)] -= t.probability;
                }
            }
        }
        let system = LuDecomposition::new(&system)?;

        Ok(AbsorbingAnalysis {
            chain: chain.clone(),
            transient,
            absorbing,
            transient_position,
            system,
        })
    }

    /// Transient states in index order.
    pub fn transient_states(&self) -> &[StateId] {
        &self.transient
    }

    /// Probability of being absorbed in `target`, starting from `from`.
    ///
    /// Solves `(I − P′)x = e_target` where `e_target` collects the one-step
    /// probabilities into `target` — the computation of Section 5 of the
    /// paper.
    ///
    /// # Errors
    ///
    /// - [`DtmcError::UnknownState`] for out-of-range ids.
    /// - [`DtmcError::StateNotTransient`]-free: `from` may be absorbing (the
    ///   result is then 1 or 0); but `target` must be absorbing, otherwise
    ///   [`DtmcError::StateNotTransient`] is returned with the misused
    ///   state.
    pub fn absorption_probability(&self, from: StateId, target: StateId) -> Result<f64, DtmcError> {
        self.chain.check_state(from)?;
        self.chain.check_state(target)?;
        if !self.absorbing.contains(&target) {
            return Err(DtmcError::StateNotTransient {
                state: target.index(),
            });
        }
        if self.absorbing.contains(&from) {
            return Ok(if from == target { 1.0 } else { 0.0 });
        }
        let x = self.absorption_vector(target)?;
        Ok(x[self.transient_position[from.index()]])
    }

    /// Absorption probabilities into `target` for *all* transient states,
    /// ordered like [`AbsorbingAnalysis::transient_states`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`AbsorbingAnalysis::absorption_probability`].
    fn absorption_vector(&self, target: StateId) -> Result<Vec<f64>, DtmcError> {
        self.chain.check_state(target)?;
        if !self.absorbing.contains(&target) {
            return Err(DtmcError::StateNotTransient {
                state: target.index(),
            });
        }
        if self.transient.is_empty() {
            return Ok(Vec::new());
        }
        let mut rhs = vec![0.0; self.transient.len()];
        for (row, &s) in self.transient.iter().enumerate() {
            for t in self.chain.transitions_from(s)? {
                if t.to == target {
                    rhs[row] += t.probability;
                }
            }
        }
        Ok(self.system.solve(&rhs)?)
    }

    /// Expected number of steps until absorption, starting from `from`
    /// (zero when `from` is absorbing).
    ///
    /// # Errors
    ///
    /// Returns [`DtmcError::UnknownState`] for an out-of-range id.
    pub fn expected_steps(&self, from: StateId) -> Result<f64, DtmcError> {
        self.chain.check_state(from)?;
        if self.absorbing.contains(&from) {
            return Ok(0.0);
        }
        let rhs = vec![1.0; self.transient.len()];
        let x = self.system.solve(&rhs)?;
        Ok(x[self.transient_position[from.index()]])
    }

    /// Expected total reward accumulated until absorption from `from` —
    /// the paper's central quantity (Eq. 2): `a = (I − P′)⁻¹ w` with
    /// `w_i = Σ_j p_ij c_ij`.
    ///
    /// # Errors
    ///
    /// - [`DtmcError::UnknownState`] for an out-of-range id.
    /// - [`DtmcError::AbsorbingRewardLoop`] if any absorbing state's
    ///   self-loop carries a nonzero reward (total reward would diverge).
    pub fn expected_total_reward(&self, from: StateId) -> Result<f64, DtmcError> {
        self.chain.check_state(from)?;
        if self.absorbing.contains(&from) {
            self.check_absorbing_rewards()?;
            return Ok(0.0);
        }
        let x = self.expected_total_rewards()?;
        Ok(x[self.transient_position[from.index()]])
    }

    /// Expected total rewards for all transient states, ordered like
    /// [`AbsorbingAnalysis::transient_states`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`AbsorbingAnalysis::expected_total_reward`].
    fn expected_total_rewards(&self) -> Result<Vec<f64>, DtmcError> {
        self.check_absorbing_rewards()?;
        if self.transient.is_empty() {
            return Ok(Vec::new());
        }
        let rhs: Vec<f64> = self
            .transient
            .iter()
            .map(|&s| {
                self.chain.transitions[s.index()]
                    .iter()
                    .map(|t| t.probability * t.reward)
                    .sum()
            })
            .collect();
        Ok(self.system.solve(&rhs)?)
    }

    /// Expected number of visits to each transient state before
    /// absorption, starting from `from` — one row of the *fundamental
    /// matrix* `N = (I − P′)⁻¹`, ordered like
    /// [`AbsorbingAnalysis::transient_states`]. The entry for `from`
    /// itself counts the initial visit.
    ///
    /// Computed with a single transposed solve:
    /// `Nᵀ e_from = ((I − P′)ᵀ)⁻¹ e_from`.
    ///
    /// # Errors
    ///
    /// - [`DtmcError::UnknownState`] for an out-of-range id.
    /// - [`DtmcError::StateNotTransient`] when `from` is absorbing (visit
    ///   counts to transient states are then all zero — but the query is
    ///   almost certainly a bug, so it errs).
    pub fn expected_visits(&self, from: StateId) -> Result<Vec<f64>, DtmcError> {
        self.chain.check_state(from)?;
        let pos = self.transient_position[from.index()];
        if pos == usize::MAX {
            return Err(DtmcError::StateNotTransient {
                state: from.index(),
            });
        }
        let mut rhs = vec![0.0; self.transient.len()];
        rhs[pos] = 1.0;
        Ok(self.system.solve_transposed(&rhs)?)
    }

    /// Variance of the total reward accumulated until absorption from
    /// `from`.
    ///
    /// This goes beyond the paper (which only studies the mean): with
    /// `m = E[V]` the mean-vector, the second moments satisfy
    /// `s_i = Σ_j p_ij (c_ij² + 2 c_ij m_j + s_j)`, another linear system in
    /// the same matrix `I − P′`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AbsorbingAnalysis::expected_total_reward`].
    pub fn total_reward_variance(&self, from: StateId) -> Result<f64, DtmcError> {
        self.chain.check_state(from)?;
        if self.absorbing.contains(&from) {
            self.check_absorbing_rewards()?;
            return Ok(0.0);
        }
        let means = self.expected_total_rewards()?;
        let mean_of = |state: StateId| -> f64 {
            let pos = self.transient_position[state.index()];
            if pos == usize::MAX {
                0.0
            } else {
                means[pos]
            }
        };
        let rhs: Vec<f64> = self
            .transient
            .iter()
            .map(|&s| {
                self.chain.transitions[s.index()]
                    .iter()
                    .map(|t| t.probability * (t.reward * t.reward + 2.0 * t.reward * mean_of(t.to)))
                    .sum()
            })
            .collect();
        let second_moments = self.system.solve(&rhs)?;
        let pos = self.transient_position[from.index()];
        let variance = second_moments[pos] - means[pos] * means[pos];
        // Guard against tiny negative values from cancellation.
        Ok(variance.max(0.0))
    }

    fn check_absorbing_rewards(&self) -> Result<(), DtmcError> {
        for &s in &self.absorbing {
            if self.chain.reward(s, s)? != 0.0 {
                return Err(DtmcError::AbsorbingRewardLoop { state: s.index() });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::DtmcBuilder;

    use super::*;

    /// Geometric retry chain: retry with probability p (cost 1), succeed
    /// with probability 1-p (cost 0).
    fn geometric(p: f64) -> (Dtmc, StateId, StateId) {
        let mut b = DtmcBuilder::new();
        let try_ = b.add_state("try");
        let done = b.add_state("done");
        b.add_transition(try_, try_, p, 1.0).unwrap();
        b.add_transition(try_, done, 1.0 - p, 0.0).unwrap();
        b.make_absorbing(done).unwrap();
        (b.build().unwrap(), try_, done)
    }

    #[test]
    fn geometric_expected_steps() {
        let (c, try_, _) = geometric(0.5);
        let a = AbsorbingAnalysis::new(&c).unwrap();
        // Expected steps to absorption = 1 / (1-p) = 2.
        assert!((a.expected_steps(try_).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_expected_reward() {
        let (c, try_, _) = geometric(0.5);
        let a = AbsorbingAnalysis::new(&c).unwrap();
        // Number of retries is geometric with mean p/(1-p) = 1.
        assert!((a.expected_total_reward(try_).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_reward_variance() {
        let (c, try_, _) = geometric(0.5);
        let a = AbsorbingAnalysis::new(&c).unwrap();
        // Retries ~ Geometric(1-p) on {0,1,...}: variance p/(1-p)^2 = 2.
        assert!((a.total_reward_variance(try_).unwrap() - 2.0).abs() < 1e-10);
    }

    #[test]
    fn absorbing_start_state_has_zero_everything() {
        let (c, _, done) = geometric(0.3);
        let a = AbsorbingAnalysis::new(&c).unwrap();
        assert_eq!(a.expected_steps(done).unwrap(), 0.0);
        assert_eq!(a.expected_total_reward(done).unwrap(), 0.0);
        assert_eq!(a.total_reward_variance(done).unwrap(), 0.0);
        assert_eq!(a.absorption_probability(done, done).unwrap(), 1.0);
    }

    #[test]
    fn two_target_absorption_probabilities_sum_to_one() {
        let mut b = DtmcBuilder::new();
        let s = b.add_state("s");
        let m = b.add_state("mid");
        let win = b.add_state("win");
        let lose = b.add_state("lose");
        b.add_transition(s, m, 0.5, 0.0).unwrap();
        b.add_transition(s, win, 0.5, 0.0).unwrap();
        b.add_transition(m, s, 0.2, 0.0).unwrap();
        b.add_transition(m, lose, 0.8, 0.0).unwrap();
        b.make_absorbing(win).unwrap();
        b.make_absorbing(lose).unwrap();
        let c = b.build().unwrap();
        let a = AbsorbingAnalysis::new(&c).unwrap();
        let pw = a.absorption_probability(s, win).unwrap();
        let pl = a.absorption_probability(s, lose).unwrap();
        assert!((pw + pl - 1.0).abs() < 1e-12);
        // Hand computation: P(win from s) = 0.5 + 0.5*0.2*P(win from s)
        // => P = 0.5 / 0.9.
        assert!((pw - 0.5 / 0.9).abs() < 1e-12);
    }

    #[test]
    fn rejects_chain_without_absorbing_states() {
        let mut b = DtmcBuilder::new();
        let a = b.add_state("a");
        let z = b.add_state("z");
        b.add_transition(a, z, 1.0, 0.0).unwrap();
        b.add_transition(z, a, 1.0, 0.0).unwrap();
        let c = b.build().unwrap();
        assert!(matches!(
            AbsorbingAnalysis::new(&c),
            Err(DtmcError::NoAbsorbingStates)
        ));
    }

    #[test]
    fn rejects_trapped_states() {
        let mut b = DtmcBuilder::new();
        let s = b.add_state("s");
        let la = b.add_state("loop_a");
        let lb = b.add_state("loop_b");
        let ok = b.add_state("ok");
        b.add_transition(s, la, 0.5, 0.0).unwrap();
        b.add_transition(s, ok, 0.5, 0.0).unwrap();
        b.add_transition(la, lb, 1.0, 0.0).unwrap();
        b.add_transition(lb, la, 1.0, 0.0).unwrap();
        b.make_absorbing(ok).unwrap();
        let c = b.build().unwrap();
        assert!(matches!(
            AbsorbingAnalysis::new(&c),
            Err(DtmcError::AbsorptionUnreachable { .. })
        ));
    }

    #[test]
    fn target_must_be_absorbing() {
        let (c, try_, _) = geometric(0.4);
        let a = AbsorbingAnalysis::new(&c).unwrap();
        assert!(matches!(
            a.absorption_probability(try_, try_),
            Err(DtmcError::StateNotTransient { .. })
        ));
    }

    #[test]
    fn expected_steps_of_linear_path() {
        let mut b = DtmcBuilder::new();
        let states: Vec<StateId> = (0..5).map(|i| b.add_state(format!("s{i}"))).collect();
        for w in states.windows(2) {
            b.add_transition(w[0], w[1], 1.0, 1.0).unwrap();
        }
        b.make_absorbing(states[4]).unwrap();
        let c = b.build().unwrap();
        let a = AbsorbingAnalysis::new(&c).unwrap();
        assert!((a.expected_steps(states[0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((a.expected_total_reward(states[0]).unwrap() - 4.0).abs() < 1e-12);
        // Deterministic path: zero variance.
        assert!(a.total_reward_variance(states[0]).unwrap() < 1e-10);
    }

    #[test]
    fn geometric_visit_counts_match_hand_formula() {
        // Visits to `try` before absorption ~ 1 + Geometric: mean 1/(1-p).
        let (c, try_, _) = geometric(0.25);
        let a = AbsorbingAnalysis::new(&c).unwrap();
        let visits = a.expected_visits(try_).unwrap();
        assert_eq!(visits.len(), 1);
        assert!((visits[0] - 1.0 / 0.75).abs() < 1e-12);
    }

    #[test]
    fn visit_counts_sum_to_expected_steps() {
        // Σ_j N[from, j] over transient j equals the expected number of
        // steps (each step occupies exactly one transient state).
        let mut b = DtmcBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let s2 = b.add_state("s2");
        let sink = b.add_state("sink");
        b.add_transition(s0, s1, 0.6, 0.0).unwrap();
        b.add_transition(s0, sink, 0.4, 0.0).unwrap();
        b.add_transition(s1, s2, 0.5, 0.0).unwrap();
        b.add_transition(s1, s0, 0.5, 0.0).unwrap();
        b.add_transition(s2, sink, 1.0, 0.0).unwrap();
        b.make_absorbing(sink).unwrap();
        let c = b.build().unwrap();
        let a = AbsorbingAnalysis::new(&c).unwrap();
        let visits = a.expected_visits(s0).unwrap();
        let steps = a.expected_steps(s0).unwrap();
        let total: f64 = visits.iter().sum();
        assert!((total - steps).abs() < 1e-12, "{total} vs {steps}");
    }

    #[test]
    fn visit_queries_validate_their_states() {
        let (c, _, done) = geometric(0.5);
        let a = AbsorbingAnalysis::new(&c).unwrap();
        assert!(matches!(
            a.expected_visits(done),
            Err(DtmcError::StateNotTransient { .. })
        ));
        assert!(a.expected_visits(StateId(99)).is_err());
    }

    #[test]
    fn rewarded_absorbing_loop_is_rejected() {
        let mut b = DtmcBuilder::new();
        let s = b.add_state("s");
        let sink = b.add_state("sink");
        b.add_transition(s, sink, 1.0, 1.0).unwrap();
        b.add_transition(sink, sink, 1.0, 5.0).unwrap();
        let c = b.build().unwrap();
        let a = AbsorbingAnalysis::new(&c).unwrap();
        assert!(matches!(
            a.expected_total_reward(s),
            Err(DtmcError::AbsorbingRewardLoop { .. })
        ));
    }

    #[test]
    fn analysis_exposes_partition() {
        let (c, try_, _) = geometric(0.4);
        let a = AbsorbingAnalysis::new(&c).unwrap();
        assert_eq!(a.transient_states(), &[try_]);
    }

    #[test]
    fn absorption_vector_orders_like_transient_states() {
        let mut b = DtmcBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let sink = b.add_state("sink");
        b.add_transition(s0, s1, 1.0, 0.0).unwrap();
        b.add_transition(s1, sink, 1.0, 0.0).unwrap();
        b.make_absorbing(sink).unwrap();
        let c = b.build().unwrap();
        let a = AbsorbingAnalysis::new(&c).unwrap();
        let v = a.absorption_vector(sink).unwrap();
        assert_eq!(v.len(), 2);
        assert!((v[0] - 1.0).abs() < 1e-12);
        assert!((v[1] - 1.0).abs() < 1e-12);
    }
}
