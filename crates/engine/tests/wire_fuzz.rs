//! Seeded fuzzing of the wire decoder.
//!
//! The smallest valid frame of every verb is mutated by byte flips,
//! truncations and duplicated bytes. `parse_json` and
//! `parse_request_line` must never panic on a mutated line, and every
//! non-blank line of it fed to a [`PipelinedSession`] must get exactly one
//! answer line. A failure names the seed that reproduces it. The frames
//! stay small so that a mutation which still decodes asks for little
//! work.
//!
//! Random finite `f64` bit patterns, written as the encoder writes them,
//! must also parse back to the identical bits.

use std::panic::catch_unwind;

use zeroconf_engine::testkit;
use zeroconf_engine::wire::{
    parse_json, parse_request_line, Json, PipelinedSession, VERB_CALIBRATE, VERB_FRONTIER,
    WIRE_VERSION,
};
use zeroconf_engine::{Engine, EngineConfig, PipelineConfig};
use zeroconf_rng::rngs::StdRng;
use zeroconf_rng::{Rng, RngCore, SeedableRng};

/// Mutated lines per frame: one per seed.
const SEEDS: u64 = 200;

/// One small valid frame per verb, plus the broken and skewed frames the
/// error-path suites use.
fn frames() -> Vec<String> {
    vec![
        testkit::sweep_line("s1", 2, &[0.5, 1.0]),
        testkit::heavy_sweep_line("h1", 2, 3),
        testkit::rescore_line("r1", "s1", 1e9),
        testkit::cancel_request_line("c1", "s1"),
        testkit::unknown_verb_line("u1"),
        testkit::unsupported_version_line("v1"),
        testkit::MALFORMED_FRAME.to_owned(),
        format!(
            "{{\"v\":{WIRE_VERSION},\"id\":\"k1\",\
             \"{VERB_CALIBRATE}\":{{\"of\":\"s1\",\"n\":2,\"r\":1.0}}}}"
        ),
        format!(
            "{{\"v\":{WIRE_VERSION},\"id\":\"f1\",\
             \"scenario\":{{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
             \"reply_time\":{{\"kind\":\"exponential\",\"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}}}},\
             \"grid\":{{\"n_max\":2,\"r\":[0.5,1.0]}},\
             \"{VERB_FRONTIER}\":{{\"x\":{{\"axis\":\"error_cost\",\"values\":[1e3,1e6]}},\
             \"y\":{{\"axis\":\"probe_cost\",\"values\":[1.0,2.0]}}}}}}"
        ),
    ]
}

/// One to three byte flips, truncations or duplicated bytes.
fn mutate(frame: &str, rng: &mut StdRng) -> Vec<u8> {
    let mut bytes = frame.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..4u32) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.gen_range(0..bytes.len());
        match rng.gen_range(0..3u32) {
            0 => bytes[at] ^= rng.gen_range(1..256u32) as u8,
            1 => bytes.truncate(at),
            _ => bytes.insert(at, bytes[at]),
        }
    }
    bytes
}

fn session() -> PipelinedSession {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    PipelinedSession::new(engine, PipelineConfig::with_depth(1))
}

/// Submits one line and waits for everything it caused.
fn answers(session: &mut PipelinedSession, line: &str) -> Vec<String> {
    let mut out = session.submit_line(line);
    out.extend(session.drain());
    out
}

#[test]
fn mutated_frames_never_panic_and_get_exactly_one_answer() {
    let frames = frames();
    let mut session = session();
    // A completed base, so mutated dependents are dispatched, not refused.
    assert_eq!(answers(&mut session, &frames[0]).len(), 1);
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for frame in &frames {
            // Bytes become a line the way the daemon frames them.
            let line = String::from_utf8_lossy(&mutate(frame, &mut rng)).into_owned();
            if catch_unwind(|| parse_json(&line)).is_err() {
                panic!("seed {seed}: parse_json panicked on {line:?}");
            }
            if catch_unwind(|| parse_request_line(&line)).is_err() {
                panic!("seed {seed}: parse_request_line panicked on {line:?}");
            }
            for piece in line.split('\n').filter(|p| !p.trim().is_empty()) {
                let got = answers(&mut session, piece);
                assert_eq!(
                    got.len(),
                    1,
                    "seed {seed}: {piece:?} got {} answer lines: {got:?}",
                    got.len()
                );
                assert!(
                    parse_json(&got[0]).is_ok(),
                    "seed {seed}: answer to {piece:?} does not parse: {}",
                    got[0]
                );
            }
        }
    }
}

#[test]
fn random_float_bit_patterns_parse_back_exactly() {
    let mut rng = StdRng::seed_from_u64(0x0f10a7);
    let mut checked = 0;
    while checked < 20_000 {
        let x = f64::from_bits(rng.next_u64());
        if !x.is_finite() {
            continue;
        }
        let text = format!("{x:?}");
        match parse_json(&text) {
            Ok(Json::Num(back)) => assert_eq!(back.to_bits(), x.to_bits(), "{text}"),
            other => panic!("{text} parsed as {other:?}"),
        }
        checked += 1;
    }
}
