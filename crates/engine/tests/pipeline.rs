//! Pipelined sessions: golden bit-identity with the direct engine path,
//! out-of-order completion, per-request cancellation, and lossless drain
//! on shutdown.

use std::sync::Arc;

use zeroconf_cost::Scenario;
use zeroconf_dist::DefectiveExponential;
use zeroconf_engine::wire::{self, PipelinedSession, WireRequest, WireResponse};
use zeroconf_engine::{
    Engine, EngineConfig, ExecutorTeam, GridSpec, Landscape, PipelineConfig, SweepRequest,
};

fn scenario() -> Scenario {
    Scenario::builder()
        .occupancy(0.5)
        .probe_cost(2.0)
        .error_cost(1e6)
        .reply_time(Arc::new(
            DefectiveExponential::from_loss(1e-6, 10.0, 1.0).unwrap(),
        ))
        .build()
        .unwrap()
}

fn engine() -> Arc<Engine> {
    Arc::new(Engine::new(EngineConfig {
        cache_tables: 4096,
        ..EngineConfig::default()
    }))
}

/// A deliberately expensive sweep: 64 × 16,000 = 1,024,000 cells over
/// 16,000 fresh π-tables, tens of milliseconds even in a release build.
fn big_request() -> SweepRequest {
    SweepRequest::new(scenario(), GridSpec::linspace(64, 0.01, 25.0, 16_000))
}

/// A sweep line that evaluates in microseconds: distinct `r` per salt,
/// so tiny sweeps never alias each other's tables.
fn tiny_line(id: &str, salt: usize) -> String {
    format!(
        "{{\"id\":\"{id}\",\"scenario\":{{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
         \"reply_time\":{{\"kind\":\"exponential\",\"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}}}},\
         \"grid\":{{\"n_max\":1,\"r\":[{r:?}]}}}}",
        r = 30.0 + salt as f64
    )
}

/// The one answer among `lines` for wire id `id`.
fn answer<'a>(lines: &'a [String], id: &str) -> &'a str {
    let key = format!("\"id\":\"{id}\",");
    let mut found = lines.iter().filter(|line| line.contains(&key));
    let line = found
        .next()
        .unwrap_or_else(|| panic!("no answer for {id}: {lines:?}"));
    assert!(found.next().is_none(), "two answers for {id}");
    line
}

/// Asserts two landscapes hold the same cells, bit for bit.
fn assert_same_bits(got: &Landscape, want: &Landscape) {
    assert_eq!(got.len(), want.len());
    for (cell, direct_cell) in got.iter().zip(want.iter()) {
        assert_eq!(cell.n, direct_cell.n);
        assert_eq!(cell.r.to_bits(), direct_cell.r.to_bits());
        assert_eq!(
            cell.mean_cost.unwrap().to_bits(),
            direct_cell.mean_cost.unwrap().to_bits(),
            "C(n = {}, r = {}) differs from the direct path",
            cell.n,
            cell.r
        );
        assert_eq!(
            cell.error_probability.unwrap().to_bits(),
            direct_cell.error_probability.unwrap().to_bits(),
            "E(n = {}, r = {}) differs from the direct path",
            cell.n,
            cell.r
        );
    }
}

// ---------------------------------------------------------------------------
// Golden: the pipelined path returns bit-identical payloads to the direct
// Engine::evaluate path.
// ---------------------------------------------------------------------------

#[test]
fn pipelined_wire_lines_are_bit_identical_to_direct_encoding() {
    // Six grids through a session with four requests in flight: each
    // answer decodes to the landscape a direct evaluation on another
    // engine gives, bit for bit, and its cells are the bytes that
    // evaluation encodes to (the stats object differs, so compare the
    // cells payload).
    let requests: Vec<SweepRequest> = (0..6)
        .map(|k| {
            SweepRequest::new(
                scenario(),
                GridSpec::linspace(5 + k, 0.1 + 0.3 * k as f64, 20.0, 40 + 7 * k as usize),
            )
        })
        .collect();
    let mut session = PipelinedSession::with_team(Arc::new(ExecutorTeam::new(engine(), 4)));
    for (k, request) in requests.iter().enumerate() {
        let id = format!("g{k}");
        let request = request.clone();
        assert!(session
            .submit_request(WireRequest::Sweep { id, request })
            .is_empty());
    }
    let lines = session.drain();
    assert_eq!(lines.len(), requests.len());

    let direct_engine = engine();
    let cells = |l: &str| {
        let start = l.find("\"cells\":").unwrap();
        let end = l.find(",\"stats\":").unwrap();
        l[start..end].to_owned()
    };
    for (k, request) in requests.iter().enumerate() {
        let id = format!("g{k}");
        let line = answer(&lines, &id);
        let direct = direct_engine.evaluate(request).unwrap();
        let (_, landscape) = wire::parse_response_line(line).unwrap();
        assert_same_bits(&landscape.unwrap(), &direct.landscape);
        let direct_line = WireResponse::Sweep {
            id,
            response: direct,
        }
        .to_line();
        assert_eq!(cells(line), cells(&direct_line));
    }
}

// ---------------------------------------------------------------------------
// Out-of-order completion
// ---------------------------------------------------------------------------

#[test]
fn pipelined_session_emits_responses_in_completion_order() {
    // One long request, then four trivial ones, with enough executors
    // that the tiny ones run beside the long one: all four must finish
    // first, so completion order differs from submission order. A sweep
    // runs on its executor alone, so the long request can never hold
    // every CPU of a two-CPU host while the tiny ones wait, and it runs
    // for tens of milliseconds even in a release build, many scheduler
    // time slices. It is a frontier over a 64 × 16,000 grid, so its
    // answer is one short line rather than a million cells of JSON.
    let mut session = PipelinedSession::new(
        Engine::new(EngineConfig {
            cache_tables: 4096,
            ..EngineConfig::default()
        }),
        PipelineConfig::with_depth(5),
    );
    let huge = "{\"id\":\"huge\",\"scenario\":{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
        \"reply_time\":{\"kind\":\"exponential\",\"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}},\
        \"grid\":{\"n_max\":64,\"r_min\":0.01,\"r_max\":25.0,\"r_points\":16000},\
        \"frontier\":{\"x\":{\"axis\":\"error_cost\",\"values\":[1e6]},\
        \"y\":{\"axis\":\"probe_cost\",\"values\":[2.0]}}}";
    let mut out = session.submit_line(huge);
    for k in 0..4 {
        out.extend(session.submit_line(&tiny_line(&format!("t{k}"), k)));
    }
    out.extend(session.drain());
    assert_eq!(out.len(), 5, "{out:?}");
    let id_of = |line: &str| {
        let rest = &line[line.find("\"id\":\"").unwrap() + 6..];
        rest[..rest.find('"').unwrap()].to_owned()
    };
    let order: Vec<String> = out.iter().map(|line| id_of(line)).collect();
    assert_eq!(order[4], "huge", "short sweeps overtake: {order:?}");
    assert!(out[4].contains("\"frontier\""));
    for k in 0..4 {
        assert!(answer(&out, &format!("t{k}")).contains("\"cells\""));
    }
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

#[test]
fn cancelling_a_running_sweep_aborts_it() {
    let mut session = PipelinedSession::with_team(Arc::new(ExecutorTeam::new(engine(), 2)));
    let big = WireRequest::Sweep {
        id: "big".to_owned(),
        request: big_request(),
    };
    assert!(session.submit_request(big).is_empty());
    // The sweep computes 16,000 fresh π-tables; this cancel lands long
    // before that finishes, and it wins even if it did not.
    let ack = session.submit_line("{\"id\":\"c\",\"cancel\":\"big\"}");
    assert_eq!(ack.len(), 1, "{ack:?}");
    assert!(ack[0].contains("\"cancelled\":\"big\""), "{}", ack[0]);
    let lines = session.drain();
    assert_eq!(lines.len(), 1);
    assert!(
        lines[0].contains("\"id\":\"big\",\"error\":\"request cancelled"),
        "expected a cancelled answer, got {}",
        &lines[0][..lines[0].len().min(200)]
    );
    assert_eq!(session.pipeline_stats().cancelled, 1);

    // The aborted job leaves nothing behind: the next sweep, cold and
    // several chunks wide, answers bit for bit what a fresh engine does.
    let next = SweepRequest::new(scenario(), GridSpec::linspace(64, 0.1, 30.0, 400));
    let request = WireRequest::Sweep {
        id: "next".to_owned(),
        request: next.clone(),
    };
    assert!(session.submit_request(request).is_empty());
    let lines = session.drain();
    let (_, got) = wire::parse_response_line(answer(&lines, "next")).unwrap();
    let want = engine().evaluate(&next).unwrap().landscape;
    let bits = |slab: Option<&[f64]>| {
        slab.unwrap()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>()
    };
    let got = got.unwrap();
    assert_eq!(bits(got.costs()), bits(want.costs()));
    assert_eq!(bits(got.errors()), bits(want.errors()));
}

#[test]
fn wire_cancel_withdraws_an_in_flight_request() {
    let mut session = PipelinedSession::with_team(Arc::new(ExecutorTeam::new(engine(), 1)));
    let huge = "{\"id\":\"huge\",\"scenario\":{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
        \"reply_time\":{\"kind\":\"exponential\",\"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}},\
        \"grid\":{\"n_max\":64,\"r_min\":0.01,\"r_max\":25.0,\"r_points\":1200}}";
    let queued = "{\"id\":\"q1\",\"scenario\":{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
        \"reply_time\":{\"kind\":\"exponential\",\"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}},\
        \"grid\":{\"n_max\":1,\"r\":[31.0]}}";
    let mut out = session.submit_line(huge);
    out.extend(session.submit_line(queued));
    out.extend(session.submit_line("{\"id\":\"c1\",\"cancel\":\"q1\"}"));
    assert_eq!(out.len(), 1, "cancel acks immediately: {out:?}");
    assert!(out[0].contains("\"id\":\"c1\""), "{}", out[0]);
    assert!(out[0].contains("\"cancelled\":\"q1\""), "{}", out[0]);

    out.extend(session.drain());
    assert_eq!(out.len(), 3, "{out:?}");
    assert!(answer(&out, "q1").contains("request cancelled"));
    assert!(answer(&out, "huge").contains("\"cells\""));
    // The queued cancel never reached the engine: the 1,200 lookups are
    // the long sweep's alone, and `q1`'s `r = 31` was never looked up.
    let stats = session.pipeline_stats();
    assert_eq!((stats.completed, stats.cancelled), (1, 1));
    let engine = session.stats();
    assert_eq!((engine.cache_hits, engine.cache_misses), (0, 1200));
    // Unknown and answered targets are structured errors, not session
    // deaths.
    for of in ["ghost", "q1"] {
        let unknown = session.submit_line(&format!("{{\"id\":\"c2\",\"cancel\":\"{of}\"}}"));
        assert!(
            unknown[0].contains("no in-flight request"),
            "{}",
            unknown[0]
        );
    }
}

// ---------------------------------------------------------------------------
// Drain on shutdown: no lost or duplicated response ids
// ---------------------------------------------------------------------------

#[test]
fn pipelined_session_drain_answers_every_wire_id() {
    let mut session = PipelinedSession::new(
        Engine::new(EngineConfig {
            cache_tables: 4096,
            ..EngineConfig::default()
        }),
        PipelineConfig::with_depth(4),
    );
    let mut out = Vec::new();
    // A mix: sweeps, a rescore chained on an in-flight base, an invalid
    // line and a rescore of a ghost — 8 inputs, 8 outputs.
    for k in 0..4 {
        let sweep = format!(
            "{{\"id\":\"s{k}\",\"scenario\":{{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
             \"reply_time\":{{\"kind\":\"exponential\",\"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}}}},\
             \"grid\":{{\"n_max\":2,\"r\":[{r}]}}}}",
            r = 1.0 + k as f64
        );
        out.extend(session.submit_line(&sweep));
    }
    out.extend(
        session.submit_line("{\"id\":\"re0\",\"rescore\":{\"of\":\"s0\",\"error_cost\":1e9}}"),
    );
    out.extend(session.submit_line("{\"id\":\"re1\",\"rescore\":{\"of\":\"re0\",\"q\":0.25}}"));
    out.extend(session.submit_line("not json"));
    out.extend(session.submit_line("{\"id\":\"bad\",\"rescore\":{\"of\":\"ghost\"}}"));
    out.extend(session.drain());
    assert_eq!(out.len(), 8, "{out:?}");
    for id in ["s0", "s1", "s2", "s3", "re0", "re1", "bad"] {
        assert_eq!(
            out.iter()
                .filter(|line| line.contains(&format!("\"id\":\"{id}\"")))
                .count(),
            1,
            "exactly one response for {id}: {out:?}"
        );
    }
    // The chained rescore really ran (cells, not an error)...
    let re1 = out.iter().find(|l| l.contains("\"id\":\"re1\"")).unwrap();
    assert!(re1.contains("\"cells\""), "{re1}");
    // ...and was served entirely from the π-cache warmed by its base.
    let stats = session.stats();
    assert_eq!(stats.cache_misses, 4, "one table per distinct r");
    assert_eq!(stats.cache_hits, 2, "both rescores were miss-free");

    // Polling between submissions, as a reactor does, loses and repeats
    // no answer either.
    let mut out = Vec::new();
    for k in 0..24 {
        out.extend(session.submit_line(&tiny_line(&format!("t{k}"), k)));
        out.extend(session.poll_responses().iter().map(WireResponse::to_line));
    }
    out.extend(session.drain());
    assert_eq!(session.pending(), 0);
    assert_eq!(out.len(), 24, "{out:?}");
    for k in 0..24 {
        assert!(answer(&out, &format!("t{k}")).contains("\"cells\""));
    }
}

// ---------------------------------------------------------------------------
// Blocking (depth-1) sessions and protocol version
// ---------------------------------------------------------------------------

/// One line in, one line out: a depth-1 session answers each line
/// before the next is submitted.
fn handle_line(session: &mut PipelinedSession, line: &str) -> Option<String> {
    let mut lines = session.submit_line(line);
    lines.extend(session.drain());
    assert!(
        lines.len() <= 1,
        "a depth-1 session answers one line at a time"
    );
    lines.into_iter().next()
}

fn blocking_session() -> PipelinedSession {
    PipelinedSession::new(
        Engine::new(EngineConfig {
            cache_tables: 16,
            ..EngineConfig::default()
        }),
        PipelineConfig::with_depth(1),
    )
}

#[test]
fn blocking_session_still_answers_line_for_line() {
    let mut session = blocking_session();
    let sweep = "{\"v\":1,\"id\":\"a\",\"scenario\":{\"q\":0.5,\"probe_cost\":2.0,\
        \"error_cost\":1e6,\"reply_time\":{\"kind\":\"exponential\",\"loss\":1e-6,\
        \"rate\":10.0,\"delay\":1.0}},\"grid\":{\"n_max\":2,\"r\":[1.0,2.0]}}";
    let first = handle_line(&mut session, sweep).unwrap();
    assert!(first.contains("\"id\":\"a\""), "{first}");
    assert!(first.starts_with("{\"v\":1,"), "{first}");
    let second = handle_line(
        &mut session,
        "{\"id\":\"b\",\"rescore\":{\"of\":\"a\",\"error_cost\":1e9}}",
    )
    .unwrap();
    assert!(second.contains("\"cache_misses\":0"), "{second}");
    assert!(handle_line(&mut session, "").is_none());
}

#[test]
fn unknown_protocol_version_is_a_structured_error() {
    let mut session = blocking_session();
    let line = "{\"v\":2,\"id\":\"x\",\"scenario\":{\"q\":0.5,\"probe_cost\":2.0,\
        \"error_cost\":1e6,\"reply_time\":{\"kind\":\"exponential\",\"loss\":1e-6,\
        \"rate\":10.0,\"delay\":1.0}},\"grid\":{\"n_max\":2,\"r\":[1.0]}}";
    let response = handle_line(&mut session, line).unwrap();
    assert!(
        response.contains("\"id\":\"x\""),
        "the error echoes the request id: {response}"
    );
    assert!(
        response.contains("unsupported protocol version 2"),
        "{response}"
    );
    assert!(
        wire::parse_json(&response).is_ok(),
        "error lines stay machine-readable: {response}"
    );
    // v1 (and absent v) still work.
    let ok = handle_line(&mut session, &line.replacen("\"v\":2", "\"v\":1", 1));
    assert!(ok.unwrap().contains("\"cells\""));
}
