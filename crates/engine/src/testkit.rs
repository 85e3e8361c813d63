//! Wire-protocol line builders shared by test harnesses.
//!
//! The wire error-path suites (`crates/engine/tests/wire_errors.rs`), the
//! pipeline tests and the `zeroconf serve` socket harness all drive
//! sessions with the same JSON-lines requests; these builders keep the
//! fixture shapes in one place so a schema change updates every harness
//! at once. The in-process wire fuzzer and the live-daemon fuzzer share
//! their seed frames and mutations the same way. Everything here is
//! plain string assembly — no engine state, no panics — and every
//! versioned frame interpolates [`WIRE_VERSION`] rather than respelling
//! it (the `const-drift` audit rule holds for this module like any
//! other).

use crate::wire::{VERB_CALIBRATE, VERB_FRONTIER, WIRE_VERSION};

/// A syntactically broken frame: truncated mid-object. Parsers must
/// answer it with an `error` line and keep the session alive.
pub const MALFORMED_FRAME: &str = "{\"id\":\"broken\",\"scenario\":";

/// A frame carrying a protocol version this build does not speak.
#[must_use]
pub fn unsupported_version_line(id: &str) -> String {
    format!(
        "{{\"v\":{},\"id\":\"{id}\",\"cancel\":\"x\"}}",
        WIRE_VERSION + 1
    )
}

/// A well-formed frame whose verb key no dispatcher knows.
#[must_use]
pub fn unknown_verb_line(id: &str) -> String {
    format!("{{\"v\":{WIRE_VERSION},\"id\":\"{id}\",\"frobnicate\":true}}")
}

/// A small sweep over an explicit `r` list (exponential reply time,
/// `q = 0.5` — the fixture scenario the session tests standardize on).
#[must_use]
pub fn sweep_line(id: &str, n_max: u32, rs: &[f64]) -> String {
    let r_list = rs
        .iter()
        .map(|r| format!("{r:?}"))
        .collect::<Vec<String>>()
        .join(",");
    format!(
        "{{\"v\":{WIRE_VERSION},\"id\":\"{id}\",\
         \"scenario\":{{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
         \"reply_time\":{{\"kind\":\"exponential\",\"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}}}},\
         \"grid\":{{\"n_max\":{n_max},\"r\":[{r_list}]}}}}"
    )
}

/// A deliberately expensive sweep (dense linspace grid) for cancellation
/// and drain-under-load tests that need requests to still be in flight
/// when the next event lands.
#[must_use]
pub fn heavy_sweep_line(id: &str, n_max: u32, r_points: usize) -> String {
    format!(
        "{{\"v\":{WIRE_VERSION},\"id\":\"{id}\",\
         \"scenario\":{{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
         \"reply_time\":{{\"kind\":\"exponential\",\"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}}}},\
         \"grid\":{{\"n_max\":{n_max},\"r_min\":0.1,\"r_max\":30.0,\"r_points\":{r_points}}}}}"
    )
}

/// A rescore of `of` under a changed collision cost.
#[must_use]
pub fn rescore_line(id: &str, of: &str, error_cost: f64) -> String {
    format!(
        "{{\"v\":{WIRE_VERSION},\"id\":\"{id}\",\
         \"rescore\":{{\"of\":\"{of}\",\"error_cost\":{error_cost:?}}}}}"
    )
}

/// A cancellation of the in-flight request `of`.
#[must_use]
pub fn cancel_request_line(id: &str, of: &str) -> String {
    format!("{{\"v\":{WIRE_VERSION},\"id\":\"{id}\",\"cancel\":\"{of}\"}}")
}

/// A sweep over one `r` with `n_max = 1` whose reply time is a mixture of
/// `components` exponential components, so the mixture is nearly all of
/// what the request costs and what its base keeps.
#[must_use]
pub fn mixture_sweep_line(id: &str, components: usize) -> String {
    let component = "{\"weight\":1.0,\"dist\":{\"kind\":\"exponential\",\
                     \"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}}";
    let components = vec![component; components].join(",");
    format!(
        "{{\"v\":{WIRE_VERSION},\"id\":\"{id}\",\
         \"scenario\":{{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
         \"reply_time\":{{\"kind\":\"mixture\",\"components\":[{components}]}}}},\
         \"grid\":{{\"n_max\":1,\"r\":[1.0]}}}}"
    )
}

/// The wire fuzzers' seed frames: one small valid frame per verb, plus
/// the broken and skewed frames the error-path suites use. The first is
/// the sweep `s1` that the dependent frames reference. The frames stay
/// small so that a mutation which still decodes asks for little work.
#[must_use]
pub fn fuzz_frames() -> Vec<String> {
    vec![
        sweep_line("s1", 2, &[0.5, 1.0]),
        heavy_sweep_line("h1", 2, 3),
        rescore_line("r1", "s1", 1e9),
        cancel_request_line("c1", "s1"),
        unknown_verb_line("u1"),
        unsupported_version_line("v1"),
        MALFORMED_FRAME.to_owned(),
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

/// `frame` with one to three byte flips, truncations or duplicated
/// bytes. `draw(n)` picks uniformly from `0..n` for `n > 0`, so a seeded
/// generator makes the mutation reproducible.
pub fn mutate(frame: &str, draw: &mut impl FnMut(usize) -> usize) -> Vec<u8> {
    let mut bytes = frame.as_bytes().to_vec();
    for _ in 0..1 + draw(3) {
        if bytes.is_empty() {
            break;
        }
        let at = draw(bytes.len());
        match draw(3) {
            0 => bytes[at] ^= 1 + draw(255) as u8,
            1 => bytes.truncate(at),
            _ => bytes.insert(at, bytes[at]),
        }
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{parse_json, parse_request_line, WireRequest};

    #[test]
    fn builders_produce_decodable_frames() {
        let sweep = sweep_line("s1", 3, &[0.5, 1.0]);
        assert!(matches!(
            parse_request_line(&sweep),
            Ok(WireRequest::Sweep { .. })
        ));
        let heavy = heavy_sweep_line("h", 16, 200);
        let WireRequest::Sweep { request, .. } = parse_request_line(&heavy).unwrap() else {
            panic!("heavy sweep decodes as a sweep");
        };
        assert_eq!(request.grid.r_values.len(), 200);
        assert!(matches!(
            parse_request_line(&rescore_line("s2", "s1", 1e9)),
            Ok(WireRequest::Rescore { .. })
        ));
        assert!(matches!(
            parse_request_line(&cancel_request_line("c", "s1")),
            Ok(WireRequest::Cancel { .. })
        ));
    }

    #[test]
    fn broken_frames_fail_as_intended() {
        assert!(parse_json(MALFORMED_FRAME).is_err());
        let err = parse_request_line(&unknown_verb_line("u")).unwrap_err();
        assert!(err.message.contains("unknown request verb"), "{err}");
        let err = parse_request_line(&unsupported_version_line("v")).unwrap_err();
        assert!(
            err.message.contains("unsupported protocol version"),
            "{err}"
        );
    }
}
