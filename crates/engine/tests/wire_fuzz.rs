//! Seeded fuzzing of the wire decoder.
//!
//! The smallest valid frame of every verb ([`testkit::fuzz_frames`]) is
//! mutated by byte flips, truncations and duplicated bytes
//! ([`testkit::mutate`]). `parse_json` and `parse_request_line` must
//! never panic on a mutated line, and every non-blank line of it fed to
//! a [`PipelinedSession`] must get exactly one answer line. A failure
//! names the seed that reproduces it. `zeroconf serve`'s
//! `mutated_frames_over_a_live_socket_get_one_answer_each` sends the
//! same mutations to a spawned daemon.
//!
//! Random finite `f64` bit patterns, written as the encoder writes them,
//! must also parse back to the identical bits.
//!
//! Answer lines get the same mutations on the client's side of the wire:
//! `parse_response_line` must never panic, must refuse whatever
//! `parse_json` refuses, and whatever it accepts must hold the values
//! `parse_json` builds from the same line. Random landscapes must decode
//! from `to_line` bit for bit.

use std::panic::catch_unwind;

use zeroconf_engine::testkit;
use zeroconf_engine::wire::{
    parse_json, parse_request_line, parse_response_line, Json, PipelinedSession, WireResponse,
};
use zeroconf_engine::{BatchStats, Engine, EngineConfig, Landscape, PipelineConfig, SweepResponse};
use zeroconf_rng::rngs::StdRng;
use zeroconf_rng::{Rng, RngCore, SeedableRng};

/// Mutated lines per frame: one per seed.
const SEEDS: u64 = 200;

/// One to three byte flips, truncations or duplicated bytes.
fn mutate(frame: &str, rng: &mut StdRng) -> Vec<u8> {
    testkit::mutate(frame, &mut |n| rng.gen_range(0..n))
}

fn session() -> PipelinedSession {
    let engine = Engine::new(EngineConfig::default());
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
    let frames = testkit::fuzz_frames();
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

/// Answer lines copied from `GOLDEN_LINES` in `wire/encode.rs`, which pins their
/// bytes: sweeps with both metrics, cost only and error only, then the
/// calibrate, frontier, error and stats answers.
const GOLDEN_ANSWERS: [&str; 7] = [
        r#"{"v":1,"id":"s1","cells":[{"n":1,"r":0.1,"mean_cost":2.0,"error_probability":1e-5},{"n":2,"r":0.1,"mean_cost":0.30000000000000004,"error_probability":0.5},{"n":3,"r":0.1,"mean_cost":1e35,"error_probability":1.0},{"n":1,"r":1.0,"mean_cost":1.5e-300,"error_probability":4.026e-22},{"n":2,"r":1.0,"mean_cost":5e-324,"error_probability":-0.0},{"n":3,"r":1.0,"mean_cost":123456789.125,"error_probability":0.25},{"n":1,"r":12.600000000000001,"mean_cost":1e16,"error_probability":1e-15},{"n":2,"r":12.600000000000001,"mean_cost":9007199254740992.0,"error_probability":7.0},{"n":3,"r":12.600000000000001,"mean_cost":0.0001,"error_probability":2.2250738585072014e-308}],"stats":{"wall_ns":1234567,"cache_hits":3,"cache_misses":1,"cells":9,"workers":2}}"#,
        r#"{"v":1,"id":"cost-only","cells":[{"n":1,"r":0.5,"mean_cost":6.5},{"n":2,"r":0.5,"mean_cost":1e20},{"n":1,"r":3.0,"mean_cost":3.25},{"n":2,"r":3.0,"mean_cost":17.0}],"stats":{"wall_ns":0,"cache_hits":3,"cache_misses":1,"cells":9,"workers":2}}"#,
        r#"{"v":1,"id":"error-only","cells":[{"n":1,"r":1e-7,"error_probability":0.9},{"n":2,"r":1e-7,"error_probability":0.81},{"n":3,"r":1e-7,"error_probability":0.729},{"n":4,"r":1e-7,"error_probability":0.6561},{"n":5,"r":1e-7,"error_probability":0.59049},{"n":6,"r":1e-7,"error_probability":0.531441},{"n":7,"r":1e-7,"error_probability":0.4782969},{"n":8,"r":1e-7,"error_probability":0.43046721},{"n":9,"r":1e-7,"error_probability":0.387420489},{"n":10,"r":1e-7,"error_probability":0.3486784401},{"n":11,"r":1e-7,"error_probability":0.31381059609}],"stats":{"wall_ns":340282366920938463463374607431768211455,"cache_hits":3,"cache_misses":1,"cells":9,"workers":2}}"#,
        r#"{"v":1,"id":"k1","calibrate":{"error_cost":3.0517578125e-5,"n":4,"r":2.0,"mean_cost":8.000000000000002,"error_probability":1.6e-19},"stats":{"wall_ns":42,"cache_hits":3,"cache_misses":1,"cells":9,"workers":2}}"#,
        r#"{"v":1,"id":"f1","frontier":{"candidates":256,"points":[{"x":1000.0,"y":0.5,"n":2,"r":1.7484,"mean_cost":3.5,"error_probability":4.026e-22},{"x":1e20,"y":2.0,"n":12,"r":0.1,"mean_cost":25.000000000000004,"error_probability":1e-300}]},"stats":{"wall_ns":7,"cache_hits":3,"cache_misses":1,"cells":9,"workers":2}}"#,
        "{\"v\":1,\"id\":\"a\\\"b\\\\c\\u0001\",\"error\":\"bad \\\"x\\\"\\n\\ttab\\\\ \\r\\u0008\\u000c\\u001f\u{7f} é\"}",
        r#"{"v":1,"stats":{"requests":7,"cells":84,"cache_hits":10,"cache_misses":2,"cache_len":2,"cache_evictions":5,"cells_per_worker":[80,4,0],"wall_ns":123456789,"kernel_backend":"avx512","dist_backend":"scalar","pipeline":{"depth":4,"submitted":9,"completed":6,"cancelled":2,"failed":1,"queue_ns_total":1000,"queue_ns_max":600,"service_ns_total":5000000,"service_ns_max":4000000}}}"#,
];

/// A sweep whose probe cost overflows the mean cost of two or more probes,
/// so its answer carries `null` cells.
const NULL_CELLS_SWEEP: &str = "{\"id\":\"big\",\"scenario\":{\"q\":0.5,\"probe_cost\":1.7e308,\
    \"error_cost\":1e6,\"reply_time\":{\"kind\":\"exponential\",\
    \"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}},\
    \"grid\":{\"n_max\":3,\"r\":[0.5,1.0,2.0]}}";

/// The golden answers, plus a session's answers to a sweep with `null`
/// cells and to an `n_max = 1` sweep with a duplicated `r`, whose columns
/// can only be told apart by `n` returning to 1.
fn answer_frames() -> Vec<String> {
    let mut frames: Vec<String> = GOLDEN_ANSWERS.iter().map(|l| (*l).to_owned()).collect();
    let mut session = session();
    for line in [
        NULL_CELLS_SWEEP.to_owned(),
        testkit::sweep_line("d1", 1, &[0.5, 0.5, 1.0]),
    ] {
        let answer = answers(&mut session, &line);
        assert!(answer[0].contains("\"cells\""), "{answer:?}");
        frames.extend(answer);
    }
    assert!(frames[7].contains("null"), "{}", frames[7]);
    frames
}

/// Whether a tree value is what the typed decoder read: the same bits, or
/// `null` for NaN.
fn same_value(tree: &Json, decoded: f64) -> bool {
    match tree {
        Json::Num(x) => x.to_bits() == decoded.to_bits(),
        Json::Null => decoded.is_nan(),
        _ => false,
    }
}

/// Asserts that a typed decode holds what `parse_json` built from the
/// same line: the head member for member, and every cell's keys and
/// values in the writer's order.
fn assert_matches_tree(context: &str, head: &Json, landscape: Option<&Landscape>, tree: Json) {
    let Json::Obj(mut members) = tree else {
        panic!("{context}: the typed decode accepted a line that is not an object");
    };
    let cells = members
        .iter()
        .position(|(key, _)| key == "cells")
        .map(|at| members.remove(at).1);
    assert_eq!(head, &Json::Obj(members), "{context}");
    let (cells, landscape) = match (cells, landscape) {
        (None, None) => return,
        (Some(Json::Arr(cells)), Some(landscape)) => (cells, landscape),
        (cells, landscape) => panic!("{context}: tree cells {cells:?}, decoded {landscape:?}"),
    };
    assert_eq!(cells.len(), landscape.len(), "{context}");
    let n_max = landscape.n_max() as usize;
    for (index, cell) in cells.iter().enumerate() {
        let Json::Obj(cell) = cell else {
            panic!("{context}: cell {index} is {cell:?}");
        };
        let expected: Vec<(&str, f64)> = [
            ("n", Some((index % n_max + 1) as f64)),
            ("r", Some(landscape.r_values()[index / n_max])),
            ("mean_cost", landscape.costs().map(|c| c[index])),
            ("error_probability", landscape.errors().map(|e| e[index])),
        ]
        .into_iter()
        .filter_map(|(key, value)| Some((key, value?)))
        .collect();
        assert_eq!(cell.len(), expected.len(), "{context}: cell {index}");
        for ((key, value), (expected_key, decoded)) in cell.iter().zip(expected) {
            assert_eq!(key, expected_key, "{context}: cell {index}");
            assert!(
                same_value(value, decoded),
                "{context}: cell {index} `{key}` is {value:?} in the tree, {decoded:?} decoded"
            );
        }
    }
}

#[test]
fn mutated_answers_decode_as_the_tree_does() {
    let frames = answer_frames();
    for frame in &frames {
        let (head, landscape) = parse_response_line(frame).unwrap();
        assert_matches_tree(frame, &head, landscape.as_ref(), parse_json(frame).unwrap());
    }
    let mut accepted = 0;
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for frame in &frames {
            let line = String::from_utf8_lossy(&mutate(frame, &mut rng)).into_owned();
            let Ok(typed) = catch_unwind(|| parse_response_line(&line)) else {
                panic!("seed {seed}: parse_response_line panicked on {line:?}");
            };
            let Ok(tree) = catch_unwind(|| parse_json(&line)) else {
                panic!("seed {seed}: parse_json panicked on {line:?}");
            };
            match (typed, tree) {
                (Ok((head, landscape)), Ok(tree)) => {
                    let context = format!("seed {seed}: {line:?}");
                    assert_matches_tree(&context, &head, landscape.as_ref(), tree);
                    accepted += 1;
                }
                (Ok(_), Err(e)) => {
                    panic!("seed {seed}: decoded a line parse_json refuses ({e}): {line:?}")
                }
                (Err(_), _) => {}
            }
        }
    }
    // Some mutations keep the line decodable (a changed digit, say), so
    // the value comparison above is not vacuous.
    assert!(accepted > 0);
}

/// A random finite bit pattern, or one time in eight each an infinity of
/// either sign or NaN.
fn random_value(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..24u32) {
        0 => f64::INFINITY,
        1 => f64::NEG_INFINITY,
        2 => f64::NAN,
        _ => loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break x;
            }
        },
    }
}

fn random_slab(rng: &mut StdRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| random_value(rng)).collect()
}

#[test]
fn random_landscapes_round_trip_through_the_typed_decoder() {
    let mut rng = StdRng::seed_from_u64(0x1a4d5ca9e);
    for case in 0..500 {
        let n_max = rng.gen_range(1..13u32);
        let columns = rng.gen_range(1..11usize);
        let mut r_values: Vec<f64> = Vec::with_capacity(columns);
        for _ in 0..columns {
            // A quarter of the columns repeat the one before.
            let r = match r_values.last() {
                Some(&last) if rng.gen_range(0..4u32) == 0 => last,
                _ => random_value(&mut rng),
            };
            r_values.push(r);
        }
        let cells = n_max as usize * columns;
        let (costs, errors) = match rng.gen_range(0..3u32) {
            0 => (Some(random_slab(&mut rng, cells)), None),
            1 => (None, Some(random_slab(&mut rng, cells))),
            _ => (
                Some(random_slab(&mut rng, cells)),
                Some(random_slab(&mut rng, cells)),
            ),
        };
        let landscape = Landscape::new(n_max, r_values, costs, errors).unwrap();
        let line = WireResponse::Sweep {
            id: format!("rt{case}"),
            response: SweepResponse {
                landscape: landscape.clone(),
                stats: BatchStats::default(),
            },
        }
        .to_line();
        let (head, decoded) =
            parse_response_line(&line).unwrap_or_else(|e| panic!("case {case}: {e}: {line}"));
        assert_eq!(head.get("id"), Some(&Json::Str(format!("rt{case}"))));
        let decoded = decoded.unwrap_or_else(|| panic!("case {case}: no landscape in {line}"));
        assert_eq!(decoded.n_max(), n_max, "case {case}");
        let pairs = [
            (Some(decoded.r_values()), Some(landscape.r_values())),
            (decoded.costs(), landscape.costs()),
            (decoded.errors(), landscape.errors()),
        ];
        for (got, sent) in pairs {
            assert_eq!(got.map(<[f64]>::len), sent.map(<[f64]>::len), "case {case}");
            for (got, sent) in got.into_iter().flatten().zip(sent.into_iter().flatten()) {
                assert!(
                    got.to_bits() == sent.to_bits() || (!sent.is_finite() && got.is_nan()),
                    "case {case}: sent {sent:?}, decoded {got:?}: {line}"
                );
            }
        }
    }
}
