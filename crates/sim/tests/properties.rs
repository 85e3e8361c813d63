//! Seeded property tests of the protocol simulator's accounting
//! invariants: whatever the parameters, every run outcome must satisfy
//! exact bookkeeping identities.
//!
//! Each property runs through `zeroconf_rng::for_each_seed` on seeds
//! `0..CASES`; a failure prints the seed that produced it, and passing
//! `seed..seed + 1` in place of `0..CASES` replays that case alone.

use std::sync::Arc;

use zeroconf_dist::DefectiveExponential;
use zeroconf_rng::rngs::StdRng;
use zeroconf_rng::{for_each_seed, Rng, SeedableRng};
use zeroconf_sim::protocol::{run_many, run_once, ProtocolConfig};

const CASES: u64 = 128;

#[derive(Debug, Clone)]
struct Params {
    n: u32,
    r: f64,
    c: f64,
    e: f64,
    q: f64,
    loss: f64,
    rate: f64,
    delay: f64,
    /// Seeds the simulation run itself.
    seed: u64,
}

fn params(rng: &mut StdRng) -> Params {
    Params {
        n: rng.gen_range(1..6u32),
        r: rng.gen_range(0.0..3.0),
        c: rng.gen_range(0.0..4.0),
        e: rng.gen_range(0.0..200.0),
        q: rng.gen_range(0.01..0.9),
        loss: rng.gen_range(0.0..1.0),
        rate: rng.gen_range(0.5..20.0),
        delay: rng.gen_range(0.0..1.0),
        seed: rng.gen_range(0..1_000_000u64),
    }
}

fn config(p: &Params) -> ProtocolConfig {
    ProtocolConfig::builder()
        .probes(p.n)
        .listen_period(p.r)
        .probe_cost(p.c)
        .error_cost(p.e)
        .occupancy(p.q)
        .reply_time(Arc::new(
            DefectiveExponential::from_loss(p.loss, p.rate, p.delay).expect("valid params"),
        ))
        .build()
        .expect("valid config")
}

#[test]
fn cost_identity_holds_exactly() {
    for_each_seed(0..CASES, |rng| {
        // The DRM reward accounting implies, for every single run:
        //   total_cost = (r + c) · probes_sent + E · [collided]
        let p = params(rng);
        let cfg = config(&p);
        let mut run_rng = StdRng::seed_from_u64(p.seed);
        let out = run_once(&cfg, &mut run_rng).unwrap();
        let reconstructed =
            (p.r + p.c) * out.probes_sent as f64 + if out.collided { p.e } else { 0.0 };
        assert!(
            (out.total_cost - reconstructed).abs() < 1e-9 * (1.0 + reconstructed),
            "cost {} vs reconstruction {} for {p:?}",
            out.total_cost,
            reconstructed
        );
    });
}

#[test]
fn elapsed_never_exceeds_paid_listening() {
    for_each_seed(0..CASES, |rng| {
        // Replies can cut a round short, so wall-clock listening is at
        // most the fully-charged r per probe round.
        let p = params(rng);
        let cfg = config(&p);
        let mut run_rng = StdRng::seed_from_u64(p.seed);
        let out = run_once(&cfg, &mut run_rng).unwrap();
        assert!(
            out.elapsed.seconds() <= p.r * out.probes_sent as f64 + 1e-9,
            "elapsed {} vs max {} for {p:?}",
            out.elapsed.seconds(),
            p.r * out.probes_sent as f64
        );
    });
}

#[test]
fn successful_runs_end_with_a_full_silent_window() {
    for_each_seed(0..CASES, |rng| {
        let p = params(rng);
        let cfg = config(&p);
        let mut run_rng = StdRng::seed_from_u64(p.seed);
        let out = run_once(&cfg, &mut run_rng).unwrap();
        // Whatever happened before, the final (accepting) attempt always
        // transmits exactly n probes; hence probes_sent >= n and
        // probes_sent ≡ counts per attempt.
        assert!(out.probes_sent >= p.n, "{p:?}");
        assert!(out.attempts >= 1, "{p:?}");
        // Each non-final attempt sends at least one probe and at most n.
        assert!(out.probes_sent <= out.attempts * p.n, "{p:?}");
    });
}

#[test]
fn aggregate_mean_matches_identity_in_expectation() {
    for_each_seed(0..CASES, |rng| {
        // Summed over many runs, mean cost must equal
        // (r + c)·E[probes] + E·P(collision) by linearity.
        let p = params(rng);
        let cfg = config(&p);
        let mut run_rng = StdRng::seed_from_u64(p.seed);
        let summary = run_many(&cfg, 400, &mut run_rng).unwrap();
        let lhs = summary.cost.mean();
        let rhs = (p.r + p.c) * summary.probes_sent.mean() + p.e * summary.collision_rate();
        assert!(
            (lhs - rhs).abs() < 1e-6 * (1.0 + rhs.abs()),
            "mean {lhs} vs identity {rhs} for {p:?}"
        );
    });
}

#[test]
fn lossless_long_listen_never_collides() {
    for_each_seed(0..CASES, |rng| {
        let n = rng.gen_range(1..5u32);
        let q = rng.gen_range(0.01..0.9);
        let seed = rng.gen_range(0..100_000u64);
        // Replies always arrive (loss 0) within delay + tail; a listening
        // period comfortably longer than the delay makes collisions
        // impossible in a static network.
        let cfg = ProtocolConfig::builder()
            .probes(n)
            .listen_period(50.0)
            .probe_cost(1.0)
            .error_cost(100.0)
            .occupancy(q)
            .reply_time(Arc::new(
                DefectiveExponential::from_loss(0.0, 10.0, 0.1).unwrap(),
            ))
            .build()
            .unwrap();
        let mut run_rng = StdRng::seed_from_u64(seed);
        let summary = run_many(&cfg, 200, &mut run_rng).unwrap();
        assert_eq!(summary.collisions, 0, "n {n}, q {q}, seed {seed}");
    });
}
