use std::error::Error;
use std::fmt;

use zeroconf_linalg::LinalgError;

/// Errors produced while building or analysing a Markov chain.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DtmcError {
    /// A transition probability was outside `[0, 1]` or not finite.
    InvalidProbability {
        /// Source state index.
        from: usize,
        /// Target state index.
        to: usize,
        /// The offending value.
        value: f64,
    },
    /// A transition reward was not finite.
    InvalidReward {
        /// Source state index.
        from: usize,
        /// Target state index.
        to: usize,
        /// The offending value.
        value: f64,
    },
    /// The outgoing probabilities of a state do not sum to one.
    RowNotStochastic {
        /// The state whose row is invalid.
        state: usize,
        /// Name of that state.
        name: String,
        /// Actual row sum.
        sum: f64,
    },
    /// A state index referenced a state that does not exist.
    UnknownState {
        /// The offending index.
        state: usize,
        /// Number of states in the chain.
        num_states: usize,
    },
    /// Two transitions were added for the same `(from, to)` pair.
    DuplicateTransition {
        /// Source state index.
        from: usize,
        /// Target state index.
        to: usize,
    },
    /// The chain has no states.
    EmptyChain,
    /// An absorbing-chain analysis was requested but the chain has no
    /// absorbing states.
    NoAbsorbingStates,
    /// A state cannot reach any absorbing state, so absorption quantities
    /// are undefined (or infinite).
    AbsorptionUnreachable {
        /// The trapped state.
        state: usize,
        /// Name of that state.
        name: String,
    },
    /// The requested analysis needs a transient state but an absorbing one
    /// was supplied.
    StateNotTransient {
        /// The offending state.
        state: usize,
    },
    /// A self-loop on an absorbing state carries a nonzero reward, which
    /// would make total rewards infinite.
    AbsorbingRewardLoop {
        /// The absorbing state with a rewarded self-loop.
        state: usize,
    },
    /// An underlying linear-algebra operation failed.
    Linalg(LinalgError),
}

impl fmt::Display for DtmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DtmcError::InvalidProbability { from, to, value } => write!(
                f,
                "invalid probability {value} on transition {from} -> {to}"
            ),
            DtmcError::InvalidReward { from, to, value } => {
                write!(f, "invalid reward {value} on transition {from} -> {to}")
            }
            DtmcError::RowNotStochastic { state, name, sum } => write!(
                f,
                "outgoing probabilities of state {state} ({name}) sum to {sum}, not 1"
            ),
            DtmcError::UnknownState { state, num_states } => {
                write!(f, "state {state} does not exist (chain has {num_states})")
            }
            DtmcError::DuplicateTransition { from, to } => {
                write!(f, "duplicate transition {from} -> {to}")
            }
            DtmcError::EmptyChain => write!(f, "chain has no states"),
            DtmcError::NoAbsorbingStates => write!(f, "chain has no absorbing states"),
            DtmcError::AbsorptionUnreachable { state, name } => {
                write!(f, "state {state} ({name}) cannot reach any absorbing state")
            }
            DtmcError::StateNotTransient { state } => {
                write!(f, "state {state} is not transient")
            }
            DtmcError::AbsorbingRewardLoop { state } => write!(
                f,
                "absorbing state {state} has a self-loop with nonzero reward"
            ),
            DtmcError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl Error for DtmcError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DtmcError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for DtmcError {
    fn from(e: LinalgError) -> Self {
        DtmcError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_row_not_stochastic_includes_name() {
        let err = DtmcError::RowNotStochastic {
            state: 2,
            name: "probe1".to_owned(),
            sum: 0.9,
        };
        let msg = err.to_string();
        assert!(msg.contains("probe1"));
        assert!(msg.contains("0.9"));
    }

    #[test]
    fn linalg_errors_convert_and_expose_source() {
        let err: DtmcError = LinalgError::Empty.into();
        assert!(matches!(err, DtmcError::Linalg(_)));
        assert!(Error::source(&err).is_some());
    }

    #[test]
    fn non_linalg_errors_have_no_source() {
        assert!(Error::source(&DtmcError::EmptyChain).is_none());
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DtmcError>();
    }
}
