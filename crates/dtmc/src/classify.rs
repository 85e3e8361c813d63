//! State-space structure the absorbing analysis checks: the absorbing
//! states, and the states that can reach them.

use crate::{Dtmc, DtmcError, StateId};

/// States that can reach at least one state in `targets`.
///
/// # Errors
///
/// Returns [`DtmcError::UnknownState`] if any target is out of range.
pub(crate) fn states_reaching(
    chain: &Dtmc,
    targets: &[StateId],
) -> Result<Vec<StateId>, DtmcError> {
    for &t in targets {
        chain.check_state(t)?;
    }
    let n = chain.num_states();
    // Build the reverse adjacency once, then BFS backwards from the targets.
    let mut reverse: Vec<Vec<usize>> = vec![Vec::new(); n];
    for s in chain.states() {
        for t in chain.transitions_from(s)? {
            reverse[t.to.index()].push(s.index());
        }
    }
    let mut seen = vec![false; n];
    let mut stack: Vec<usize> = targets.iter().map(|t| t.index()).collect();
    for &t in targets {
        seen[t.index()] = true;
    }
    while let Some(s) = stack.pop() {
        for &p in &reverse[s] {
            if !seen[p] {
                seen[p] = true;
                stack.push(p);
            }
        }
    }
    Ok((0..n).filter(|&i| seen[i]).map(StateId).collect())
}

/// All absorbing states of the chain.
pub(crate) fn absorbing_states(chain: &Dtmc) -> Vec<StateId> {
    chain
        .states()
        .filter(|&s| chain.is_absorbing(s).unwrap_or(false))
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::DtmcBuilder;

    use super::*;

    /// start -> {loop_a <-> loop_b} and start -> sink (absorbing).
    fn sample() -> (Dtmc, [StateId; 4]) {
        let mut b = DtmcBuilder::new();
        let start = b.add_state("start");
        let la = b.add_state("loop_a");
        let lb = b.add_state("loop_b");
        let sink = b.add_state("sink");
        b.add_transition(start, la, 0.5, 0.0).unwrap();
        b.add_transition(start, sink, 0.5, 0.0).unwrap();
        b.add_transition(la, lb, 1.0, 0.0).unwrap();
        b.add_transition(lb, la, 1.0, 0.0).unwrap();
        b.make_absorbing(sink).unwrap();
        (b.build().unwrap(), [start, la, lb, sink])
    }

    #[test]
    fn states_reaching_sink() {
        let (c, [start, _, _, sink]) = sample();
        let r = states_reaching(&c, &[sink]).unwrap();
        assert_eq!(r, vec![start, sink]);
    }

    #[test]
    fn absorbing_states_found() {
        let (c, [.., sink]) = sample();
        assert_eq!(absorbing_states(&c), vec![sink]);
    }

    #[test]
    fn unknown_states_are_rejected() {
        let (c, _) = sample();
        assert!(states_reaching(&c, &[StateId(99)]).is_err());
    }
}
