//! The output oracle: the daemon's answers against the in-process engine,
//! bit for bit.
//!
//! An op's request lines are decoded with the wire parser, resolved the
//! way a `PipelinedSession` resolves them (rescores and frontiers against
//! the op's own sweep), and evaluated with [`Engine::evaluate`],
//! [`Engine::rescore`] and [`Engine::frontier`]. Every number of every
//! answer must carry the same `f64::to_bits` as the engine's value, and a
//! few cells per landscape are re-derived from the paper's closed forms
//! ([`cost::mean_cost`], [`cost::error_probability`]).

use std::collections::HashMap;

use zeroconf_cost::cost;
use zeroconf_engine::wire::{
    parse_json, parse_request_line, Json, WireRequest, WorkTarget, WIRE_VERSION,
};
use zeroconf_engine::{
    Engine, EngineConfig, FrontierRequest, FrontierResponse, SweepRequest, SweepResponse,
};

/// Checks daemon answers against an in-process engine.
pub struct Oracle {
    engine: Engine,
}

impl Oracle {
    /// An oracle over a single-worker engine (results are bit-identical
    /// for every worker count, so the cheapest engine serves).
    pub fn new() -> Oracle {
        Oracle {
            engine: Engine::new(EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            }),
        }
    }

    /// Checks every answer of one op. `responses` are the raw response
    /// lines in any order. Returns the number of values compared.
    pub fn check_op(&self, lines: &[String], responses: &[String]) -> Result<usize, String> {
        let mut by_id: HashMap<String, Json> = HashMap::new();
        for line in responses {
            let json = parse_json(line).map_err(|e| format!("undecodable answer: {e}"))?;
            let Some(Json::Str(id)) = json.get("id") else {
                return Err(format!("answer without an id: {}", clip(line)));
            };
            by_id.insert(id.clone(), json);
        }
        let mut sweeps: HashMap<String, SweepRequest> = HashMap::new();
        let mut compared = 0;
        for line in lines {
            let request = parse_request_line(line).map_err(|e| format!("bad request: {e}"))?;
            match request {
                WireRequest::Sweep { id, request } => {
                    let answer = answer_for(&by_id, &id)?;
                    let expected = self.engine.evaluate(&request).map_err(|e| e.to_string())?;
                    compared += compare_landscape(&id, &request, &expected, answer)?;
                    sweeps.insert(id, request);
                }
                WireRequest::Rescore { id, of, delta } => {
                    let answer = answer_for(&by_id, &id)?;
                    let base = sweeps
                        .get(&of)
                        .ok_or_else(|| format!("rescore `{id}` of unknown sweep `{of}`"))?;
                    let (rescored, expected) = self
                        .engine
                        .rescore(base, &delta)
                        .map_err(|e| e.to_string())?;
                    compared += compare_landscape(&id, &rescored, &expected, answer)?;
                    sweeps.insert(id, rescored);
                }
                WireRequest::Frontier { id, target, x, y } => {
                    let answer = answer_for(&by_id, &id)?;
                    let (scenario, grid) = match target {
                        WorkTarget::Inline { scenario, grid } => (scenario, grid),
                        WorkTarget::Base(of) => {
                            let base = sweeps.get(&of).ok_or_else(|| {
                                format!("frontier `{id}` of unknown sweep `{of}`")
                            })?;
                            (base.scenario.clone(), base.grid.clone())
                        }
                    };
                    let request = FrontierRequest {
                        scenario,
                        grid,
                        x,
                        y,
                    };
                    let expected = self.engine.frontier(&request).map_err(|e| e.to_string())?;
                    compared += compare_frontier(&id, &expected, answer)?;
                }
                other => return Err(format!("unexpected request kind {other:?}")),
            }
        }
        Ok(compared)
    }
}

/// The answer to `id`: present, not an error, and carrying the wire
/// version.
fn answer_for<'a>(by_id: &'a HashMap<String, Json>, id: &str) -> Result<&'a Json, String> {
    let answer = by_id
        .get(id)
        .ok_or_else(|| format!("no answer for `{id}`"))?;
    if let Some(Json::Str(error)) = answer.get("error") {
        return Err(format!("`{id}` answered with an error: {error}"));
    }
    if !matches!(answer.get("v"), Some(Json::Num(v)) if *v == WIRE_VERSION as f64) {
        return Err(format!("`{id}` answered without the wire version"));
    }
    Ok(answer)
}

/// Compares a sweep answer cell by cell, then spot-checks four cells
/// against the closed forms.
fn compare_landscape(
    id: &str,
    request: &SweepRequest,
    expected: &SweepResponse,
    answer: &Json,
) -> Result<usize, String> {
    let Some(Json::Arr(cells)) = answer.get("cells") else {
        return Err(format!("`{id}` has no cells array"));
    };
    let landscape = &expected.landscape;
    if cells.len() != landscape.len() {
        return Err(format!(
            "`{id}`: {} cells, expected {}",
            cells.len(),
            landscape.len()
        ));
    }
    let mut compared = 0;
    for (index, (cell, want)) in cells.iter().zip(landscape.iter()).enumerate() {
        let at = |what: &str| format!("`{id}` cell {index} {what}");
        same(number(cell, "n", &at("n"))?, f64::from(want.n), &at("n"))?;
        same(number(cell, "r", &at("r"))?, want.r, &at("r"))?;
        let cost = number(cell, "mean_cost", &at("mean_cost"))?;
        let error = number(cell, "error_probability", &at("error_probability"))?;
        same(cost, want.mean_cost.unwrap_or(f64::NAN), &at("mean_cost"))?;
        same(
            error,
            want.error_probability.unwrap_or(f64::NAN),
            &at("error_probability"),
        )?;
        compared += 4;
    }
    let len = landscape.len();
    for index in [0, len / 3, 2 * len / 3, len - 1] {
        let cell = landscape.cell(index);
        let scenario = &request.scenario;
        let closed_cost = cost::mean_cost(scenario, cell.n, cell.r).map_err(|e| e.to_string())?;
        let closed_error =
            cost::error_probability(scenario, cell.n, cell.r).map_err(|e| e.to_string())?;
        let at = format!("`{id}` cell {index} against the closed form");
        same(cell.mean_cost.unwrap_or(f64::NAN), closed_cost, &at)?;
        same(
            cell.error_probability.unwrap_or(f64::NAN),
            closed_error,
            &at,
        )?;
        compared += 2;
    }
    Ok(compared)
}

/// Compares a frontier answer point by point.
fn compare_frontier(id: &str, expected: &FrontierResponse, answer: &Json) -> Result<usize, String> {
    let frontier = answer
        .get("frontier")
        .ok_or_else(|| format!("`{id}` has no frontier"))?;
    same(
        number(frontier, "candidates", id)?,
        expected.candidates as f64,
        &format!("`{id}` candidates"),
    )?;
    let Some(Json::Arr(points)) = frontier.get("points") else {
        return Err(format!("`{id}` has no points array"));
    };
    if points.len() != expected.points.len() || points.is_empty() {
        return Err(format!(
            "`{id}`: {} frontier points, expected {}",
            points.len(),
            expected.points.len()
        ));
    }
    for (index, (point, want)) in points.iter().zip(&expected.points).enumerate() {
        let at = |what: &str| format!("`{id}` point {index} {what}");
        for (key, value) in [
            ("x", want.x),
            ("y", want.y),
            ("n", f64::from(want.n)),
            ("r", want.r),
            ("mean_cost", want.cost),
            ("error_probability", want.error_probability),
        ] {
            same(number(point, key, &at(key))?, value, &at(key))?;
        }
    }
    Ok(1 + 6 * points.len())
}

fn number(object: &Json, key: &str, at: &str) -> Result<f64, String> {
    match object.get(key) {
        Some(Json::Num(x)) => Ok(*x),
        _ => Err(format!("{at}: missing number `{key}`")),
    }
}

fn same(got: f64, want: f64, at: &str) -> Result<(), String> {
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!("{at}: got {got:?}, expected {want:?}"))
    }
}

fn clip(line: &str) -> &str {
    &line[..line.len().min(120)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Generator, Phase, Workload};
    use zeroconf_engine::wire::{PipelinedSession, WireResponse};
    use zeroconf_engine::PipelineConfig;

    /// Answers an op through an in-process pipelined session, exactly
    /// as the daemon's sessions answer it.
    fn answers(lines: &[String]) -> Vec<String> {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let mut session = PipelinedSession::new(engine, PipelineConfig::with_depth(2));
        let mut out = Vec::new();
        for line in lines {
            out.extend(session.submit_line(line));
        }
        out.extend(session.drain());
        out
    }

    #[test]
    fn genuine_answers_pass_for_every_workload() {
        let oracle = Oracle::new();
        for workload in Workload::ALL {
            let op = Generator::new(workload, 11).op(Phase::Timed, 0, 0);
            let responses = answers(&op.lines);
            let compared = oracle.check_op(&op.lines, &responses).unwrap();
            assert!(compared > 0, "{}", workload.name());
        }
    }

    #[test]
    fn one_altered_digit_is_flagged() {
        let oracle = Oracle::new();
        let op = Generator::new(Workload::LandscapeWarm, 5).op(Phase::Timed, 0, 0);
        let responses = answers(&op.lines);
        let line = &responses[0];
        // Alter the last digit of the mantissa of one mid-landscape cost.
        let key = "\"mean_cost\":";
        let start = line.match_indices(key).nth(800).unwrap().0 + key.len();
        let end = start + line[start..].find(['e', ',', '}']).unwrap();
        let digit_at = end - 1;
        let digit = line.as_bytes()[digit_at];
        assert!(digit.is_ascii_digit());
        let replacement = if digit == b'1' { '2' } else { '1' };
        let mut altered = line.clone();
        altered.replace_range(digit_at..=digit_at, &replacement.to_string());
        let err = oracle.check_op(&op.lines, &[altered]).unwrap_err();
        assert!(err.contains("mean_cost"), "{err}");
    }

    #[test]
    fn error_answers_and_missing_ids_are_flagged() {
        let oracle = Oracle::new();
        let op = Generator::new(Workload::ParamCold, 2).op(Phase::Timed, 0, 0);
        let error = WireResponse::Error {
            id: op.ids[0].clone(),
            message: "boom".to_owned(),
        }
        .to_line();
        assert!(oracle.check_op(&op.lines, &[error]).is_err());
        assert!(oracle.check_op(&op.lines, &[]).is_err());
    }
}
