//! Pipeline semantics: golden bit-identity with the direct engine path,
//! out-of-order completion, per-request cancellation, and lossless drain
//! on shutdown.

use std::collections::HashSet;
use std::sync::Arc;

use zeroconf_cost::Scenario;
use zeroconf_dist::DefectiveExponential;
use zeroconf_engine::wire::{self, PipelinedSession};
use zeroconf_engine::{
    Engine, EngineConfig, EngineError, ExecutorTeam, GridSpec, Pipeline, PipelineConfig,
    SweepRequest, WorkResponse,
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

/// A sweep that evaluates in microseconds.
fn tiny_request(salt: usize) -> SweepRequest {
    // Distinct r per salt so tiny sweeps never alias each other's tables.
    let r = 30.0 + salt as f64;
    SweepRequest::new(
        scenario(),
        GridSpec {
            n_max: 1,
            r_values: vec![r],
        },
    )
}

// ---------------------------------------------------------------------------
// Golden: the pipelined path returns bit-identical payloads to the direct
// Engine::evaluate path.
// ---------------------------------------------------------------------------

#[test]
fn pipelined_payloads_are_bit_identical_to_direct_evaluation() {
    let requests: Vec<SweepRequest> = (0..6)
        .map(|k| {
            SweepRequest::new(
                scenario(),
                GridSpec::linspace(5 + k, 0.1 + 0.3 * k as f64, 20.0, 40 + 7 * k as usize),
            )
        })
        .collect();

    // Direct path: one engine, strictly sequential.
    let direct_engine = engine();
    let direct: Vec<_> = requests
        .iter()
        .map(|request| direct_engine.evaluate(request).unwrap())
        .collect();

    // Pipelined path: a different engine, four requests in flight.
    let mut pipeline = Pipeline::new(engine(), PipelineConfig::with_depth(4));
    let ids: Vec<_> = requests
        .iter()
        .map(|request| pipeline.submit(request.clone()).unwrap())
        .collect();
    let mut completions = pipeline.drain();
    assert_eq!(completions.len(), requests.len());
    completions.sort_by_key(|completion| completion.id);

    for ((completion, id), direct_response) in completions.iter().zip(&ids).zip(&direct) {
        assert_eq!(completion.id, *id, "submission order is id order");
        let Ok(WorkResponse::Sweep(response)) = &completion.result else {
            panic!("sweep submissions complete as sweeps");
        };
        assert_eq!(response.landscape.len(), direct_response.landscape.len());
        for (cell, direct_cell) in response
            .landscape
            .iter()
            .zip(direct_response.landscape.iter())
        {
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
}

#[test]
fn pipelined_wire_lines_are_bit_identical_to_direct_encoding() {
    // Same check one layer up: the encoded response line of a pipelined
    // session equals the line encoded from a direct evaluation, cell for
    // cell (the stats object differs, so compare the cells payload).
    let request = SweepRequest::new(scenario(), GridSpec::linspace(4, 0.25, 8.0, 30));
    let direct = engine().evaluate(&request).unwrap();
    let direct_line = wire::WireResponse::Sweep {
        id: "g1".to_owned(),
        response: direct,
    }
    .to_line();

    let mut session = PipelinedSession::new(
        Engine::new(EngineConfig {
            cache_tables: 64,
            ..EngineConfig::default()
        }),
        PipelineConfig::with_depth(3),
    );
    let line = "{\"v\":1,\"id\":\"g1\",\"scenario\":{\"q\":0.5,\"probe_cost\":2.0,\
                \"error_cost\":1e6,\"reply_time\":{\"kind\":\"exponential\",\"loss\":1e-6,\
                \"rate\":10.0,\"delay\":1.0}},\
                \"grid\":{\"n_max\":4,\"r_min\":0.25,\"r_max\":8.0,\"r_points\":30}}";
    let mut out = session.submit_line(line);
    out.extend(session.drain());
    assert_eq!(out.len(), 1);

    let cells = |l: &str| {
        let start = l.find("\"cells\":").unwrap();
        let end = l.find(",\"stats\":").unwrap();
        l[start..end].to_owned()
    };
    assert_eq!(cells(&out[0]), cells(&direct_line));
}

// ---------------------------------------------------------------------------
// Out-of-order completion
// ---------------------------------------------------------------------------

#[test]
fn short_sweeps_overtake_a_long_one() {
    // One huge sweep, then four trivial ones, with enough executors that
    // the tiny sweeps run beside the big one. All four tiny sweeps must
    // finish first: completion order differs from submission order. The
    // engine has one worker, so the big sweep runs on its executor alone
    // and can never hold every CPU of a two-CPU host while the tiny
    // sweeps wait; and it runs for tens of milliseconds, many scheduler
    // time slices, whatever the host's speed.
    let mut pipeline = Pipeline::new(engine(), PipelineConfig::with_depth(5));
    let big = pipeline.submit(big_request()).unwrap();
    let tiny: Vec<_> = (0..4)
        .map(|salt| pipeline.submit(tiny_request(salt)).unwrap())
        .collect();

    let completions = pipeline.drain();
    assert_eq!(completions.len(), 5);
    let order: Vec<_> = completions.iter().map(|completion| completion.id).collect();
    assert_eq!(
        order.last(),
        Some(&big),
        "the 1,024,000-cell sweep must finish after four 1-cell sweeps \
         submitted behind it; got completion order {order:?}"
    );
    assert_ne!(
        order,
        {
            let mut submission = vec![big];
            submission.extend(&tiny);
            submission
        },
        "completions arrived in submission order — not pipelined"
    );
    for completion in &completions {
        assert!(completion.result.is_ok());
    }
}

#[test]
fn pipelined_session_emits_responses_in_completion_order() {
    // As in `short_sweeps_overtake_a_long_one`: a one-worker engine and a
    // long request that runs for tens of milliseconds in release. The
    // long request is a frontier over a 64 × 16,000 grid, so its answer
    // is one short line rather than a million cells of JSON.
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
        let tiny = format!(
            "{{\"id\":\"t{k}\",\"scenario\":{{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
             \"reply_time\":{{\"kind\":\"exponential\",\"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}}}},\
             \"grid\":{{\"n_max\":1,\"r\":[{r}]}}}}",
            r = 30.0 + k as f64
        );
        out.extend(session.submit_line(&tiny));
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
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

#[test]
fn cancelling_a_queued_request_never_evaluates_it() {
    // One executor, so the second submission is still queued while the
    // first evaluates — cancelling it is deterministic.
    let shared = engine();
    let mut pipeline = Pipeline::with_team(Arc::new(ExecutorTeam::new(Arc::clone(&shared), 1)));
    let running = pipeline.submit(big_request()).unwrap();
    let queued = pipeline.submit(tiny_request(0)).unwrap();
    assert!(pipeline.cancel(queued));

    let completions = pipeline.drain();
    assert_eq!(completions.len(), 2);
    for completion in completions {
        if completion.id == queued {
            assert!(matches!(completion.result, Err(EngineError::Cancelled)));
            assert_eq!(
                completion.service_nanos, 0,
                "a queued cancel never reaches the engine"
            );
        } else {
            assert_eq!(completion.id, running);
            assert!(completion.result.is_ok());
        }
    }
    let stats = pipeline.stats();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn cancelling_a_running_sweep_aborts_it() {
    let mut pipeline = Pipeline::new(engine(), PipelineConfig::with_depth(2));
    let id = pipeline.submit(big_request()).unwrap();
    // The sweep computes 16,000 fresh π-tables; this cancel lands long
    // before that finishes.
    assert!(pipeline.cancel(id));
    let completions = pipeline.drain();
    assert_eq!(completions.len(), 1);
    assert!(
        matches!(completions[0].result, Err(EngineError::Cancelled)),
        "expected a cancelled completion, got {:?}",
        completions[0].result
    );
    assert_eq!(pipeline.stats().cancelled, 1);

    // The aborted job leaves nothing behind: the next sweep, cold and
    // several chunks wide, answers bit for bit what a fresh engine does,
    // and its completion hands back the request that was submitted.
    let next = SweepRequest::new(scenario(), GridSpec::linspace(64, 0.1, 30.0, 400));
    pipeline.submit(next.clone()).unwrap();
    let completion = pipeline.next_completion().unwrap();
    match &completion.request {
        zeroconf_engine::WorkRequest::Sweep(request) => {
            assert_eq!(request.grid, next.grid);
        }
        other => panic!("a sweep completes with its sweep, got {other:?}"),
    }
    let got = completion.result.unwrap().into_sweep().unwrap().landscape;
    let want = engine().evaluate(&next).unwrap().landscape;
    let bits = |slab: Option<&[f64]>| {
        slab.unwrap()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>()
    };
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
    let q1 = out
        .iter()
        .find(|line| line.contains("\"id\":\"q1\""))
        .unwrap();
    assert!(q1.contains("request cancelled"), "{q1}");
    let huge_line = out
        .iter()
        .find(|line| line.contains("\"id\":\"huge\""))
        .unwrap();
    assert!(huge_line.contains("\"cells\""), "{huge_line}");
    // Unknown targets are structured errors, not session deaths.
    let unknown = session.submit_line("{\"id\":\"c2\",\"cancel\":\"ghost\"}");
    assert!(
        unknown[0].contains("no in-flight request"),
        "{}",
        unknown[0]
    );
}

// ---------------------------------------------------------------------------
// Drain on shutdown: no lost or duplicated response ids
// ---------------------------------------------------------------------------

#[test]
fn drain_answers_every_id_exactly_once() {
    let mut pipeline = Pipeline::new(engine(), PipelineConfig::with_depth(4));
    let mut submitted = HashSet::new();
    let mut completions = Vec::new();
    for round in 0..24 {
        submitted.insert(pipeline.submit(tiny_request(round)).unwrap());
        // Interleave polling so the queue keeps moving like a real client.
        completions.extend(pipeline.poll_completions());
    }
    completions.extend(pipeline.drain());
    assert_eq!(pipeline.in_flight(), 0);

    let mut seen = HashSet::new();
    for completion in &completions {
        assert!(
            seen.insert(completion.id),
            "duplicate completion for {}",
            completion.id
        );
    }
    assert_eq!(seen, submitted, "every submitted id answered exactly once");
}

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
