//! Seeded property tests of the Markov-chain substrate.
//!
//! Random absorbing chains (every transient state escapes to one sink
//! with probability at least 0.05, so absorption is certain and the
//! analysis well conditioned) are checked against the absorbing-chain
//! identities: absorption probability one, finite expected steps,
//! non-negative rewards and variances, normalized transient
//! distributions, a long finite horizon converging to the absorbing
//! reward, and a state classification that partitions the chain.
//!
//! Each property runs through `zeroconf_rng::for_each_seed` on seeds
//! `0..CASES`; a failure prints the seed that produced it, and passing
//! `seed..seed + 1` in place of `0..CASES` replays that case alone.

use zeroconf_dtmc::{classify, transient, AbsorbingAnalysis, Dtmc, DtmcBuilder, StateId};
use zeroconf_rng::rngs::StdRng;
use zeroconf_rng::{for_each_seed, Rng};

const CASES: u64 = 128;

/// A random absorbing chain with `n` transient states feeding a single
/// absorbing sink. Each transient state draws an escape probability in
/// `[0.05, 1)`, `n` raw weights in `[0, 1)` that share the remaining
/// mass, and `n + 1` transition rewards in `[0, 5)`.
fn absorbing_chain(rng: &mut StdRng, n: usize) -> (Dtmc, Vec<StateId>, StateId) {
    let mut b = DtmcBuilder::new();
    let transient: Vec<StateId> = (0..n).map(|i| b.add_state(format!("t{i}"))).collect();
    let sink = b.add_state("sink");
    for &from in &transient {
        let escape = rng.gen_range(0.05..1.0);
        let raw: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let rewards: Vec<f64> = (0..=n).map(|_| rng.gen_range(0.0..5.0)).collect();
        // Normalize the raw weights to the probability mass left after
        // the escape edge.
        let total: f64 = raw.iter().sum::<f64>();
        let stay_mass = 1.0 - escape;
        let mut cumulative = 0.0;
        if total > 0.0 {
            for (j, w) in raw.iter().enumerate() {
                let p = stay_mass * w / total;
                cumulative += p;
                if p > 0.0 {
                    b.add_transition(from, transient[j], p, rewards[j]).unwrap();
                }
            }
        }
        b.add_transition(from, sink, 1.0 - cumulative, rewards[n])
            .unwrap();
    }
    b.make_absorbing(sink).unwrap();
    (b.build().unwrap(), transient, sink)
}

#[test]
fn absorption_probability_into_single_sink_is_one() {
    for_each_seed(0..CASES, |rng| {
        let (chain, transient, sink) = absorbing_chain(rng, 5);
        let analysis = AbsorbingAnalysis::new(&chain).unwrap();
        for &s in &transient {
            let p = analysis.absorption_probability(s, sink).unwrap();
            assert!((p - 1.0).abs() < 1e-8, "p = {p}");
        }
    });
}

#[test]
fn expected_steps_are_positive_and_finite() {
    for_each_seed(0..CASES, |rng| {
        let (chain, transient, _) = absorbing_chain(rng, 5);
        let analysis = AbsorbingAnalysis::new(&chain).unwrap();
        for &s in &transient {
            let steps = analysis.expected_steps(s).unwrap();
            assert!(steps >= 1.0 - 1e-12, "steps = {steps}");
            assert!(steps.is_finite());
        }
    });
}

#[test]
fn expected_reward_is_nonnegative_for_nonnegative_rewards() {
    for_each_seed(0..CASES, |rng| {
        let (chain, transient, _) = absorbing_chain(rng, 4);
        let analysis = AbsorbingAnalysis::new(&chain).unwrap();
        for &s in &transient {
            let reward = analysis.expected_total_reward(s).unwrap();
            assert!(reward >= -1e-12, "reward = {reward}");
        }
    });
}

#[test]
fn variance_is_nonnegative() {
    for_each_seed(0..CASES, |rng| {
        let (chain, transient, _) = absorbing_chain(rng, 4);
        let analysis = AbsorbingAnalysis::new(&chain).unwrap();
        for &s in &transient {
            assert!(analysis.total_reward_variance(s).unwrap() >= 0.0);
        }
    });
}

#[test]
fn k_step_distributions_stay_normalized() {
    for_each_seed(0..CASES, |rng| {
        let (chain, transient, _) = absorbing_chain(rng, 4);
        let steps = rng.gen_range(0..50usize);
        for &s in &transient {
            let d = transient::distribution_after(&chain, s, steps).unwrap();
            let total: f64 = d.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "total = {total}");
            assert!(d.iter().all(|&p| (-1e-12..=1.0 + 1e-9).contains(&p)));
        }
    });
}

#[test]
fn finite_horizon_reward_converges_to_absorbing_reward() {
    for_each_seed(0..CASES, |rng| {
        let (chain, transient, _) = absorbing_chain(rng, 3);
        let analysis = AbsorbingAnalysis::new(&chain).unwrap();
        for &s in &transient {
            let total = analysis.expected_total_reward(s).unwrap();
            let horizon = transient::expected_reward_within(&chain, s, 3000).unwrap();
            assert!(
                (total - horizon).abs() < 1e-6 * (1.0 + total.abs()),
                "total {total}, horizon {horizon}"
            );
        }
    });
}

#[test]
fn classification_partitions_state_space() {
    for_each_seed(0..CASES, |rng| {
        let (chain, _, _) = absorbing_chain(rng, 5);
        let cls = classify::classify(&chain);
        let mut all: Vec<StateId> = cls.transient.clone();
        all.extend(cls.recurrent.iter().copied());
        all.sort();
        all.dedup();
        assert_eq!(all.len(), chain.num_states());
    });
}

#[test]
fn sccs_cover_all_states_exactly_once() {
    for_each_seed(0..CASES, |rng| {
        let (chain, _, _) = absorbing_chain(rng, 6);
        let comps = classify::strongly_connected_components(&chain);
        let mut all: Vec<StateId> = comps.into_iter().flatten().collect();
        let before = all.len();
        all.sort();
        all.dedup();
        assert_eq!(before, all.len());
        assert_eq!(all.len(), chain.num_states());
    });
}

#[test]
fn expected_steps_dominate_probability_weighted_rewards() {
    for_each_seed(0..CASES, |rng| {
        // With all rewards <= 5, total reward <= 5 * steps.
        let (chain, transient, _) = absorbing_chain(rng, 4);
        let analysis = AbsorbingAnalysis::new(&chain).unwrap();
        for &s in &transient {
            let steps = analysis.expected_steps(s).unwrap();
            let reward = analysis.expected_total_reward(s).unwrap();
            assert!(
                reward <= 5.0 * steps + 1e-9,
                "reward {reward}, steps {steps}"
            );
        }
    });
}
