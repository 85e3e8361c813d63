//! Wire error paths under pipelining: malformed frames mid-stream,
//! unknown verbs, version skew, lines past the nesting and mixture caps
//! and the request value budget, drain under load, and whole-session withdrawal. Driven through the same [`zeroconf_engine::testkit`]
//! builders the `zeroconf serve` socket harness uses, so the daemon and
//! the in-process session exercise identical frames.

use zeroconf_engine::testkit;
use zeroconf_engine::wire::{
    parse_json, parse_request_line, parse_response_line, PipelinedSession, WireRequest, WorkTarget,
    MAX_FRONTIER_POINTS, MAX_GRID_R_POINTS, MAX_JSON_DEPTH, MAX_MIXTURE_COMPONENTS,
    MAX_REQUEST_VALUES, VERB_FRONTIER, WIRE_VERSION,
};
use zeroconf_engine::{Engine, EngineConfig, FrontierRequest, PipelineConfig};

fn session(depth: usize) -> PipelinedSession {
    let engine = Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    PipelinedSession::new(engine, PipelineConfig::with_depth(depth))
}

#[test]
fn malformed_frame_mid_stream_keeps_the_session_alive() {
    let mut s = session(4);
    // A healthy sweep, then a truncated frame, then another sweep: the
    // broken frame answers immediately with an error and the requests
    // around it still complete.
    let first = s.submit_line(&testkit::sweep_line("s1", 4, &[1.0, 2.0]));
    assert!(first.is_empty(), "sweeps answer via poll/drain: {first:?}");
    let broken = s.submit_line(testkit::MALFORMED_FRAME);
    assert_eq!(broken.len(), 1, "one immediate error line");
    assert!(broken[0].contains("\"error\""), "{}", broken[0]);
    let second = s.submit_line(&testkit::sweep_line("s2", 4, &[1.0, 2.0]));
    assert!(second.is_empty(), "{second:?}");
    let answers = s.drain();
    assert_eq!(answers.len(), 2, "{answers:?}");
    for id in ["s1", "s2"] {
        let hits = answers
            .iter()
            .filter(|l| l.contains(&format!("\"id\":\"{id}\"")))
            .count();
        assert_eq!(hits, 1, "exactly one answer for {id}: {answers:?}");
    }
    assert!(
        answers.iter().all(|l| l.contains("\"cells\"")),
        "{answers:?}"
    );
}

#[test]
fn unknown_verbs_and_version_skew_answer_with_structured_errors() {
    let mut s = session(2);
    let unknown = s.submit_line(&testkit::unknown_verb_line("u1"));
    assert_eq!(unknown.len(), 1);
    assert!(unknown[0].contains("\"id\":\"u1\""), "{}", unknown[0]);
    assert!(
        unknown[0].contains("unknown request verb"),
        "{}",
        unknown[0]
    );
    let skewed = s.submit_line(&testkit::unsupported_version_line("v1"));
    assert_eq!(skewed.len(), 1);
    assert!(skewed[0].contains("\"id\":\"v1\""), "{}", skewed[0]);
    assert!(
        skewed[0].contains("unsupported protocol version"),
        "{}",
        skewed[0]
    );
    assert_eq!(s.pending(), 0, "error frames never enter the pipeline");
}

#[test]
fn drain_under_load_answers_every_id_with_at_least_four_in_flight() {
    let mut s = session(6);
    let ids = ["d1", "d2", "d3", "d4", "d5"];
    for id in ids {
        let immediate = s.submit_line(&testkit::heavy_sweep_line(id, 16, 120));
        assert!(immediate.is_empty(), "{immediate:?}");
    }
    assert!(
        s.pending() >= 4,
        "drain must start with >=4 requests in flight, saw {}",
        s.pending()
    );
    let answers = s.drain();
    assert_eq!(answers.len(), ids.len(), "{answers:?}");
    for id in ids {
        let hits = answers
            .iter()
            .filter(|l| l.contains(&format!("\"id\":\"{id}\"")))
            .count();
        assert_eq!(hits, 1, "exactly one answer for {id}");
    }
    assert_eq!(s.pending(), 0);
}

#[test]
fn cancel_all_withdraws_in_flight_work_and_held_back_rescores() {
    let mut s = session(4);
    let immediate = s.submit_line(&testkit::heavy_sweep_line("base", 32, 2000));
    assert!(immediate.is_empty(), "{immediate:?}");
    // A rescore of an in-flight base is held back, not yet submitted.
    let held = s.submit_line(&testkit::rescore_line("follow", "base", 1e9));
    assert!(held.is_empty(), "{held:?}");
    assert_eq!(s.pending(), 2);

    let withdrawn = s.cancel_all();
    assert_eq!(withdrawn.len(), 1, "held-back rescore answers here");
    assert!(
        withdrawn[0].contains("\"id\":\"follow\""),
        "{}",
        withdrawn[0]
    );
    assert!(withdrawn[0].contains("cancel"), "{}", withdrawn[0]);

    let drained = s.drain();
    assert_eq!(drained.len(), 1, "the flagged base completes cancelled");
    assert!(drained[0].contains("\"id\":\"base\""), "{}", drained[0]);
    assert!(drained[0].contains("cancel"), "{}", drained[0]);
    assert_eq!(s.pending(), 0);
}

#[test]
fn cancel_verb_for_an_in_flight_sweep_is_acknowledged() {
    let mut s = session(4);
    let immediate = s.submit_line(&testkit::heavy_sweep_line("big", 32, 2000));
    assert!(immediate.is_empty(), "{immediate:?}");
    let ack = s.submit_line(&testkit::cancel_request_line("c1", "big"));
    assert_eq!(ack.len(), 1);
    assert!(ack[0].contains("\"cancelled\":\"big\""), "{}", ack[0]);
    let drained = s.drain();
    assert_eq!(drained.len(), 1);
    assert!(drained[0].contains("\"id\":\"big\""), "{}", drained[0]);
    assert!(drained[0].contains("cancel"), "{}", drained[0]);
}

/// `depth` nested arrays around a number, or `depth` nested objects.
fn nested(depth: usize, objects: bool) -> String {
    if objects {
        format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth))
    } else {
        format!("{}1{}", "[".repeat(depth), "]".repeat(depth))
    }
}

#[test]
fn lines_nested_past_the_depth_cap_get_one_error_line() {
    let refusal = format!(
        "JSON nesting depth {} is over the limit of {MAX_JSON_DEPTH}",
        MAX_JSON_DEPTH + 1
    );
    let mut s = session(2);
    for objects in [false, true] {
        assert!(parse_json(&nested(MAX_JSON_DEPTH, objects)).is_ok());
        let over = nested(MAX_JSON_DEPTH + 1, objects);
        assert_eq!(parse_json(&over).unwrap_err().message, refusal);
        assert_eq!(parse_request_line(&over).unwrap_err().message, refusal);
        let answer = s.submit_line(&over);
        assert_eq!(answer.len(), 1, "{answer:?}");
        assert!(answer[0].contains(&refusal), "{}", answer[0]);
        // Answers are held to the cap too, on the client's side.
        let deep_answer = format!("{{\"v\":1,\"id\":\"x\",\"stats\":{over}}}");
        assert_eq!(
            parse_response_line(&deep_answer).unwrap_err().message,
            refusal
        );
    }
    // A line far past the cap costs one error line, not the stack.
    let answer = s.submit_line(&"[".repeat(1 << 20));
    assert_eq!(answer.len(), 1, "{answer:?}");
    assert!(answer[0].contains(&refusal), "{}", answer[0]);
    assert!(s.drain().is_empty());
    assert!(s
        .submit_line(&testkit::sweep_line("ok", 2, &[1.0]))
        .is_empty());
    let answers = s.drain();
    assert!(
        answers.len() == 1 && answers[0].contains("\"cells\""),
        "{answers:?}"
    );
}

/// A mixture of `outer` components that are each a mixture of `inner`
/// exponential components.
fn nested_mixture_sweep_line(id: &str, outer: usize, inner: usize) -> String {
    let leaf = "{\"weight\":1.0,\"dist\":{\"kind\":\"exponential\",\
                \"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}}";
    let mixture = |components: Vec<&str>| {
        format!(
            "{{\"kind\":\"mixture\",\"components\":[{}]}}",
            components.join(",")
        )
    };
    let branch = format!("{{\"weight\":1.0,\"dist\":{}}}", mixture(vec![leaf; inner]));
    format!(
        "{{\"id\":\"{id}\",\"scenario\":{{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
         \"reply_time\":{}}},\"grid\":{{\"n_max\":1,\"r\":[1.0]}}}}",
        mixture(vec![branch.as_str(); outer])
    )
}

#[test]
fn mixtures_past_the_component_cap_get_one_error_line() {
    let refusal = |count: usize| {
        format!(
            "reply_time mixture component count {count} is over the limit of \
             {MAX_MIXTURE_COMPONENTS}"
        )
    };
    let half = MAX_MIXTURE_COMPONENTS / 2;
    let mut s = session(2);
    // At the cap, counting the two branches of a nested mixture too.
    for line in [
        testkit::mixture_sweep_line("flat", MAX_MIXTURE_COMPONENTS),
        nested_mixture_sweep_line("nested", 2, half - 1),
    ] {
        assert!(s.submit_line(&line).is_empty());
        let answers = s.drain();
        assert!(
            answers.len() == 1 && answers[0].contains("\"cells\""),
            "{answers:?}"
        );
    }
    for (line, count) in [
        (
            testkit::mixture_sweep_line("flat", MAX_MIXTURE_COMPONENTS + 1),
            MAX_MIXTURE_COMPONENTS + 1,
        ),
        (
            nested_mixture_sweep_line("nested", 2, half),
            MAX_MIXTURE_COMPONENTS + 2,
        ),
    ] {
        let answer = s.submit_line(&line);
        assert_eq!(answer.len(), 1, "{answer:?}");
        assert!(answer[0].contains(&refusal(count)), "{}", answer[0]);
    }
    // The count is refused before any component is built: a component of
    // an unknown kind would otherwise be the error.
    let line = testkit::mixture_sweep_line("bad", MAX_MIXTURE_COMPONENTS + 1).replacen(
        "\"exponential\"",
        "\"lognormal\"",
        1,
    );
    let answer = s.submit_line(&line);
    assert!(
        answer[0].contains(&refusal(MAX_MIXTURE_COMPONENTS + 1)),
        "{}",
        answer[0]
    );
    let under =
        testkit::mixture_sweep_line("bad", 2).replacen("\"exponential\"", "\"lognormal\"", 1);
    assert!(s.submit_line(&under)[0].contains("unknown reply_time kind"));
    assert_eq!(s.pending(), 0);
}

#[test]
fn request_lines_over_the_value_budget_get_one_error_line() {
    let refusal =
        format!("request line JSON value count is over the limit of {MAX_REQUEST_VALUES}");
    // 50,000 components, 7 values each: about 4.1 MB, under `zeroconf
    // serve`'s line cap. The parse stops at the budget, before the
    // decoder's component cap could see the mixture.
    let over = testkit::mixture_sweep_line("big", 50_000);
    assert_eq!(parse_request_line(&over).unwrap_err().message, refusal);
    let mut s = session(2);
    let answer = s.submit_line(&over);
    assert_eq!(answer.len(), 1, "{answer:?}");
    assert!(
        answer[0].starts_with("{\"v\":1,\"id\":\"\",\"error\"") && answer[0].contains(&refusal),
        "{}",
        answer[0]
    );
    assert_eq!(s.pending(), 0);
    // Answers are parsed without the budget.
    assert!(parse_json(&over).is_ok());
}

/// An inline frontier over an explicit `r` list of `r_points` values at
/// `n_max`, an `x` axis of `x_points` collision costs, a one-value `y`
/// axis and a reply time mixing `components` Weibull components.
/// `wide_frontier_line(id, 16, MAX_GRID_R_POINTS, MAX_FRONTIER_POINTS,
/// MAX_MIXTURE_COMPONENTS)` is the largest request the wire caps let
/// through. Every reply arrives
/// well within the shortest listening period, so each π-table is done
/// after one round, and `q` is tiny, so each parameter point's scan stops
/// after its first columns: answering it takes seconds, not hours.
fn wide_frontier_line(
    id: &str,
    n_max: u32,
    r_points: usize,
    x_points: usize,
    components: usize,
) -> String {
    let spaced = |points: usize| {
        (0..points)
            .map(|k| format!("{:?}", 1.0 + k as f64 / points as f64))
            .collect::<Vec<String>>()
            .join(",")
    };
    let component = "{\"weight\":1.0,\"dist\":{\"kind\":\"weibull\",\
                     \"mass\":1.0,\"shape\":1.0,\"scale\":0.001,\"delay\":0.0}}";
    let components = vec![component; components].join(",");
    format!(
        "{{\"v\":{WIRE_VERSION},\"id\":\"{id}\",\
         \"scenario\":{{\"q\":1e-9,\"probe_cost\":1.0,\"error_cost\":1.0,\
         \"reply_time\":{{\"kind\":\"mixture\",\"components\":[{components}]}}}},\
         \"grid\":{{\"n_max\":{n_max},\"r\":[{}]}},\
         \"{VERB_FRONTIER}\":{{\"x\":{{\"axis\":\"error_cost\",\"values\":[{}]}},\
         \"y\":{{\"axis\":\"probe_cost\",\"values\":[1.0]}}}}}}",
        spaced(r_points),
        spaced(x_points)
    )
}

#[test]
fn the_largest_accepted_line_fits_the_value_budget() {
    let wide = |n_max, r_points, x_points, components| {
        wide_frontier_line("wide", n_max, r_points, x_points, components)
    };
    let line = wide(
        16,
        MAX_GRID_R_POINTS,
        MAX_FRONTIER_POINTS,
        MAX_MIXTURE_COMPONENTS,
    );
    let Ok(WireRequest::Frontier {
        target: WorkTarget::Inline { scenario, grid },
        x,
        y,
        ..
    }) = parse_request_line(&line)
    else {
        panic!("the widest frontier decodes");
    };
    assert_eq!(grid.cells(), zeroconf_engine::wire::MAX_GRID_CELLS);
    assert_eq!((x.values.len(), y.values.len()), (MAX_FRONTIER_POINTS, 1));
    // It passes the checks every consumer runs before evaluating. Its
    // answer is not awaited here: 65,536 π-tables of a 1,024-component
    // mixture take seconds even in a release build.
    let request = FrontierRequest {
        scenario,
        grid,
        x,
        y,
    };
    request.validate().unwrap();
    let mut s = session(2);
    // One past any cap, with every other part of the line at its own cap,
    // still fits the budget, so that cap answers.
    for (line, refusal) in [
        (
            wide(
                16,
                MAX_GRID_R_POINTS + 1,
                MAX_FRONTIER_POINTS,
                MAX_MIXTURE_COMPONENTS,
            ),
            format!("grid `r` length 65537 is over the limit of {MAX_GRID_R_POINTS}"),
        ),
        (
            wide(
                17,
                MAX_GRID_R_POINTS,
                MAX_FRONTIER_POINTS,
                MAX_MIXTURE_COMPONENTS,
            ),
            "grid cell count 1114112 (n_max × r values) is over the limit of 1048576".to_owned(),
        ),
        (
            wide(
                16,
                MAX_GRID_R_POINTS,
                MAX_FRONTIER_POINTS + 1,
                MAX_MIXTURE_COMPONENTS,
            ),
            format!(
                "frontier parameter point count 65537 (|x| × |y|) is over the limit of \
                 {MAX_FRONTIER_POINTS}"
            ),
        ),
        (
            wide(
                16,
                MAX_GRID_R_POINTS + 1,
                MAX_FRONTIER_POINTS + 1,
                MAX_MIXTURE_COMPONENTS + 1,
            ),
            format!(
                "reply_time mixture component count 1025 is over the limit of \
                 {MAX_MIXTURE_COMPONENTS}"
            ),
        ),
    ] {
        assert_eq!(parse_request_line(&line).unwrap_err().message, refusal);
        let answer = s.submit_line(&line);
        assert_eq!(answer.len(), 1, "{answer:?}");
        assert!(answer[0].contains(&refusal), "{}", answer[0]);
    }
    assert_eq!(s.pending(), 0);
}

/// A sweep line whose scenario carries `population` (`"q":…` or
/// `"hosts":…`), whose reply time carries `arrival` and whose grid is
/// `grid`.
fn sweep_with(population: &str, arrival: &str, grid: &str) -> String {
    format!(
        "{{\"v\":{WIRE_VERSION},\"id\":\"s\",\"scenario\":{{{population},\"probe_cost\":2.0,\
         \"error_cost\":1e6,\"reply_time\":{{\"kind\":\"exponential\",{arrival},\
         \"rate\":10.0,\"delay\":1.0}}}},\"grid\":{grid}}}"
    )
}

/// Checks that `line` is refused with `refusal`, decoded alone and as one
/// error line by id in a session.
fn assert_refused(s: &mut PipelinedSession, line: &str, refusal: &str) {
    assert_eq!(
        parse_request_line(line).unwrap_err().message,
        refusal,
        "{line}"
    );
    let answer = s.submit_line(line);
    assert_eq!(answer.len(), 1, "{answer:?}");
    assert!(
        answer[0].contains("\"id\":\"s\"") && answer[0].contains(refusal),
        "{}",
        answer[0]
    );
}

#[test]
fn counts_that_are_not_whole_numbers_are_refused_as_sent() {
    let (q, loss) = ("\"q\":0.5", "\"loss\":1e-6");
    let grid = "{\"n_max\":3,\"r\":[1.0]}";
    let whole = |what: &str, value: &str| {
        format!("{what} {value} is not a whole number from 0 to 4294967295")
    };
    let mut s = session(2);
    for (line, refusal) in [
        (
            sweep_with("\"hosts\":1000.7", loss, grid),
            whole("scenario `hosts`", "1000.7"),
        ),
        (
            sweep_with("\"hosts\":-5", loss, grid),
            whole("scenario `hosts`", "-5.0"),
        ),
        (
            sweep_with("\"hosts\":1e10", loss, grid),
            whole("scenario `hosts`", "10000000000.0"),
        ),
        (
            sweep_with(q, loss, "{\"n_max\":2.9,\"r\":[1.0]}"),
            whole("grid `n_max`", "2.9"),
        ),
        (
            sweep_with(q, loss, "{\"n_max\":-1,\"r\":[1.0]}"),
            whole("grid `n_max`", "-1.0"),
        ),
        (
            sweep_with(q, loss, "{\"n_max\":-1e999,\"r\":[1.0]}"),
            whole("grid `n_max`", "-inf"),
        ),
        (
            sweep_with(
                q,
                loss,
                "{\"n_max\":3,\"r_min\":0.5,\"r_max\":2.0,\"r_points\":2.5}",
            ),
            whole("grid `r_points`", "2.5"),
        ),
        (
            sweep_with(
                q,
                loss,
                "{\"n_max\":3,\"r_min\":0.5,\"r_max\":2.0,\"r_points\":-3}",
            ),
            whole("grid `r_points`", "-3.0"),
        ),
        (
            format!(
                "{{\"id\":\"s\",\"calibrate\":{{\"n\":2.7,\"r\":1.0}},\"scenario\":{{{q},\
                 \"probe_cost\":2.0,\"error_cost\":1e6,\"reply_time\":{{\"kind\":\"exponential\",\
                 {loss},\"rate\":10.0,\"delay\":1.0}}}},\"grid\":{grid}}}"
            ),
            whole("calibrate `n`", "2.7"),
        ),
        (
            "{\"id\":\"s\",\"calibrate\":{\"of\":\"base\",\"n\":-3,\"r\":1.0}}".to_owned(),
            whole("calibrate `n`", "-3.0"),
        ),
    ] {
        assert_refused(&mut s, &line, &refusal);
    }
    // Over-cap counts keep their caps' refusals, and whole counts decode.
    assert_refused(
        &mut s,
        &sweep_with(q, loss, "{\"n_max\":4096.5,\"r\":[1.0]}"),
        "grid `n_max` 4096.5 is over the limit of 4096",
    );
    let Ok(WireRequest::Sweep { request, .. }) = parse_request_line(&sweep_with(
        "\"hosts\":1000",
        loss,
        "{\"n_max\":3.0,\"r\":[1.0]}",
    )) else {
        panic!("whole counts decode");
    };
    assert_eq!(request.grid.n_max, 3);
    assert_eq!(request.scenario.occupancy(), 1000.0 / 65024.0);
    assert_eq!(s.pending(), 0);
}

#[test]
fn optional_members_present_but_not_numbers_are_refused() {
    let grid = "{\"n_max\":3,\"r\":[1.0]}";
    let mut s = session(2);
    for (line, refusal) in [
        (
            sweep_with("\"hosts\":\"1000\",\"q\":0.5", "\"loss\":1e-6", grid),
            "numeric field `hosts` is not a number",
        ),
        (
            sweep_with("\"hosts\":null,\"q\":0.5", "\"loss\":1e-6", grid),
            "numeric field `hosts` is not a number",
        ),
        (
            sweep_with("\"q\":0.5", "\"loss\":null,\"mass\":0.9", grid),
            "numeric field `loss` is not a number",
        ),
        (
            sweep_with("\"q\":0.5", "\"loss\":\"1e-6\",\"mass\":0.9", grid),
            "numeric field `loss` is not a number",
        ),
    ] {
        assert_refused(&mut s, &line, refusal);
    }
    assert_eq!(s.pending(), 0);
}
