use std::sync::Arc;

use zeroconf_cost::Scenario;
use zeroconf_dist::{
    DefectiveDeterministic, DefectiveExponential, DefectiveUniform, DefectiveWeibull, Mixture,
    ReplyTimeDistribution,
};

use super::encode::error_line;
use super::json::{err, parse_request_json, Json, WireError};
use crate::request::{check_cap, Extent};
use crate::{AxisSpec, GridSpec, Metric, ParamAxis, RescoreDelta, SweepRequest};

/// The wire-protocol version this build speaks. Requests without a `"v"`
/// field are treated as this version; any other value is rejected with a
/// structured error line.
pub const WIRE_VERSION: u64 = 1;

/// The wire verb (request key) of a calibration.
pub const VERB_CALIBRATE: &str = "calibrate";

/// The wire verb (request key) of a parameter-grid frontier.
pub const VERB_FRONTIER: &str = "frontier";

// ---------------------------------------------------------------------------
// Request decoding
// ---------------------------------------------------------------------------

/// What a parametric verb evaluates against: a completed sweep referenced
/// by id (reusing its scenario, grid and warm statistic) or an inline
/// scenario/grid pair carried by the request itself.
#[derive(Debug, Clone)]
pub enum WorkTarget {
    /// `"of"`: the wire id of an earlier sweep.
    Base(String),
    /// Top-level `scenario` and `grid` fields, as in a sweep line.
    Inline {
        /// The decoded scenario.
        scenario: Scenario,
        /// The decoded grid.
        grid: GridSpec,
    },
}

/// A decoded request line.
#[derive(Debug, Clone)]
pub enum WireRequest {
    /// A full sweep.
    Sweep {
        /// Caller-chosen id echoed in the response and referencable by
        /// later rescores.
        id: String,
        /// The decoded sweep.
        request: SweepRequest,
    },
    /// A rescore of an earlier sweep's grid under changed economics.
    Rescore {
        /// Id of this request.
        id: String,
        /// Id of the base sweep.
        of: String,
        /// The economic changes.
        delta: RescoreDelta,
    },
    /// A closed-form `E` calibration for a target configuration.
    Calibrate {
        /// Id of this request.
        id: String,
        /// Scenario/grid source.
        target: WorkTarget,
        /// Target probe count.
        n: u32,
        /// Target listening period (must be an interior grid member).
        r: f64,
    },
    /// A Pareto frontier over a 2-D parameter grid.
    Frontier {
        /// Id of this request.
        id: String,
        /// Scenario/grid source.
        target: WorkTarget,
        /// The first varied parameter.
        x: AxisSpec,
        /// The second varied parameter.
        y: AxisSpec,
    },
    /// Cancellation of an in-flight request.
    Cancel {
        /// Id of this request (echoed in the acknowledgement).
        id: String,
        /// Id of the request to cancel.
        of: String,
    },
}

fn field_f64(obj: &Json, key: &str) -> Result<f64, WireError> {
    obj.get(key)
        .and_then(Json::num)
        .ok_or_else(|| err(format!("missing numeric field `{key}`")))
}

/// A member that may be left out, but is a number when it is given: a
/// `null` (what a client writes for a value that is not finite) or a
/// string is refused, not read as absent.
fn optional_f64(obj: &Json, key: &str) -> Result<Option<f64>, WireError> {
    obj.get(key)
        .map(|value| {
            value
                .num()
                .ok_or_else(|| err(format!("numeric field `{key}` is not a number")))
        })
        .transpose()
}

/// A count the line sent as a JSON number, which must be a whole number
/// from 0 to `u32::MAX`; the refusal names the count (`what`) and quotes
/// the number. A count with a cap has passed it first, so an over-cap
/// count keeps its cap's refusal.
fn count(what: &str, value: f64) -> Result<u32, WireError> {
    if value.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(&value) {
        Ok(value as u32)
    } else {
        Err(err(format!(
            "{what} {value:?} is not a whole number from 0 to {}",
            u32::MAX
        )))
    }
}

/// Decodes a scenario's reply time. A mixture over
/// [`MAX_MIXTURE_COMPONENTS`] is refused before any component is built.
fn decode_reply_time(value: &Json) -> Result<Arc<dyn ReplyTimeDistribution>, WireError> {
    check_cap(Extent::MixtureComponents(mixture_components(value))).map_err(err)?;
    build_reply_time(value)
}

/// The components of `value` when it is a mixture, counted at every
/// level of nesting; 0 for any other reply time.
fn mixture_components(value: &Json) -> usize {
    match (value.get("kind"), value.get("components")) {
        (Some(Json::Str(kind)), Some(Json::Arr(items))) if kind == "mixture" => {
            let nested: usize = items
                .iter()
                .filter_map(|item| item.get("dist"))
                .map(mixture_components)
                .sum();
            items.len() + nested
        }
        _ => 0,
    }
}

/// Builds the reply time `value` describes, a mixture's components
/// included.
fn build_reply_time(value: &Json) -> Result<Arc<dyn ReplyTimeDistribution>, WireError> {
    let kind = value
        .get("kind")
        .and_then(Json::str)
        .ok_or_else(|| err("reply_time needs a string `kind`"))?;
    let dist: Arc<dyn ReplyTimeDistribution> = match kind {
        "deterministic" => Arc::new(
            DefectiveDeterministic::new(field_f64(value, "mass")?, field_f64(value, "delay")?)
                .map_err(|e| err(e.to_string()))?,
        ),
        "exponential" => {
            let rate = field_f64(value, "rate")?;
            let delay = field_f64(value, "delay")?;
            let dist = if let Some(loss) = optional_f64(value, "loss")? {
                DefectiveExponential::from_loss(loss, rate, delay)
            } else {
                DefectiveExponential::new(field_f64(value, "mass")?, rate, delay)
            };
            Arc::new(dist.map_err(|e| err(e.to_string()))?)
        }
        "uniform" => Arc::new(
            DefectiveUniform::new(
                field_f64(value, "mass")?,
                field_f64(value, "lo")?,
                field_f64(value, "hi")?,
            )
            .map_err(|e| err(e.to_string()))?,
        ),
        "weibull" => Arc::new(
            DefectiveWeibull::new(
                field_f64(value, "mass")?,
                field_f64(value, "shape")?,
                field_f64(value, "scale")?,
                field_f64(value, "delay")?,
            )
            .map_err(|e| err(e.to_string()))?,
        ),
        "mixture" => {
            let Some(Json::Arr(items)) = value.get("components") else {
                return Err(err("mixture needs a `components` array"));
            };
            let mut components = Vec::with_capacity(items.len());
            for item in items {
                let weight = field_f64(item, "weight")?;
                let dist = item
                    .get("dist")
                    .ok_or_else(|| err("mixture component needs `dist`"))?;
                components.push((weight, build_reply_time(dist)?));
            }
            Arc::new(Mixture::new(components).map_err(|e| err(e.to_string()))?)
        }
        other => return Err(err(format!("unknown reply_time kind `{other}`"))),
    };
    Ok(dist)
}

fn decode_scenario(value: &Json) -> Result<Scenario, WireError> {
    let mut builder = Scenario::builder()
        .probe_cost(field_f64(value, "probe_cost")?)
        .error_cost(field_f64(value, "error_cost")?)
        .reply_time(decode_reply_time(
            value
                .get("reply_time")
                .ok_or_else(|| err("scenario needs `reply_time`"))?,
        )?);
    if let Some(hosts) = optional_f64(value, "hosts")? {
        builder = builder
            .hosts(count("scenario `hosts`", hosts)?)
            .map_err(|e| err(e.to_string()))?;
    } else {
        builder = builder.occupancy(field_f64(value, "q")?);
    }
    builder.build().map_err(|e| err(e.to_string()))
}

/// Decodes a grid, rejecting one over the `MAX_GRID_*` limits before
/// anything sized by it is allocated.
fn decode_grid(value: &Json) -> Result<GridSpec, WireError> {
    let n_max = field_f64(value, "n_max")?;
    check_cap(Extent::NMax(n_max)).map_err(err)?;
    let n_max = count("grid `n_max`", n_max)?;
    if let Some(Json::Arr(items)) = value.get("r") {
        check_cap(Extent::RList(items.len())).map_err(err)?;
        check_cap(Extent::Cells(n_max as usize * items.len())).map_err(err)?;
        let r_values = items
            .iter()
            .map(|v| v.num().ok_or_else(|| err("grid `r` must be numeric")))
            .collect::<Result<Vec<f64>, WireError>>()?;
        return Ok(GridSpec { n_max, r_values });
    }
    let lo = field_f64(value, "r_min")?;
    let hi = field_f64(value, "r_max")?;
    let points = field_f64(value, "r_points")?;
    check_cap(Extent::RPoints(points)).map_err(err)?;
    let points = count("grid `r_points`", points)? as usize;
    check_cap(Extent::Cells(n_max as usize * points)).map_err(err)?;
    Ok(GridSpec::linspace(n_max, lo, hi, points))
}

fn decode_metrics(value: Option<&Json>) -> Result<Vec<Metric>, WireError> {
    let Some(value) = value else {
        return Ok(vec![Metric::MeanCost, Metric::ErrorProbability]);
    };
    let Json::Arr(items) = value else {
        return Err(err("`metrics` must be an array"));
    };
    items
        .iter()
        .map(|item| match item.str() {
            Some("mean_cost") => Ok(Metric::MeanCost),
            Some("error_probability") => Ok(Metric::ErrorProbability),
            other => Err(err(format!("unknown metric {other:?}"))),
        })
        .collect()
}

/// Checks the request's protocol version field: absent means
/// [`WIRE_VERSION`]; anything else must match it exactly.
///
/// # Errors
///
/// Returns a [`WireError`] naming the unsupported version.
pub fn check_version(value: &Json) -> Result<(), WireError> {
    match value.get("v") {
        None => Ok(()),
        Some(Json::Num(v)) if *v == WIRE_VERSION as f64 => Ok(()),
        Some(Json::Num(v)) => Err(err(format!(
            "unsupported protocol version {v}; this build speaks v{WIRE_VERSION}"
        ))),
        Some(_) => Err(err("`v` must be a number")),
    }
}

/// Decodes the scenario/grid source of a parametric verb: `"of"` inside
/// the verb object, or top-level `scenario`/`grid` like a sweep.
fn decode_target(value: &Json, verb: &Json, name: &str) -> Result<WorkTarget, WireError> {
    if let Some(of) = verb.get("of") {
        let of = of
            .str()
            .ok_or_else(|| {
                err(format!(
                    "{name} `of` must be the base sweep's id as a string"
                ))
            })?
            .to_owned();
        return Ok(WorkTarget::Base(of));
    }
    let scenario = decode_scenario(
        value
            .get("scenario")
            .ok_or_else(|| err(format!("{name} needs `of` or an inline `scenario`")))?,
    )?;
    let grid = decode_grid(
        value
            .get("grid")
            .ok_or_else(|| err(format!("{name} needs `of` or an inline `grid`")))?,
    )?;
    Ok(WorkTarget::Inline { scenario, grid })
}

/// Decodes one frontier axis: `{"axis":"error_cost","values":[…]}`.
fn decode_axis(verb: &Json, role: &str) -> Result<AxisSpec, WireError> {
    let spec = verb
        .get(role)
        .ok_or_else(|| err(format!("frontier needs `{role}`")))?;
    let name = spec
        .get("axis")
        .and_then(Json::str)
        .ok_or_else(|| err(format!("frontier `{role}` needs a string `axis`")))?;
    let axis = ParamAxis::from_name(name).ok_or_else(|| {
        err(format!(
            "unknown frontier axis `{name}` (expected `q`, `probe_cost` or `error_cost`)"
        ))
    })?;
    let Some(Json::Arr(items)) = spec.get("values") else {
        return Err(err(format!("frontier `{role}` needs a `values` array")));
    };
    let values = items
        .iter()
        .map(|v| {
            v.num()
                .ok_or_else(|| err(format!("frontier `{role}` values must be numeric")))
        })
        .collect::<Result<Vec<f64>, WireError>>()?;
    Ok(AxisSpec::new(axis, values))
}

/// Decodes one parsed request object (version already checked).
///
/// # Errors
///
/// Returns a [`WireError`] for schema problems.
pub fn decode_request(value: &Json) -> Result<WireRequest, WireError> {
    let id = value
        .get("id")
        .and_then(Json::str)
        .ok_or_else(|| err("request needs a string `id`"))?
        .to_owned();
    if let Some(cancel) = value.get("cancel") {
        let of = cancel
            .str()
            .ok_or_else(|| err("cancel needs the target request's id as a string"))?
            .to_owned();
        return Ok(WireRequest::Cancel { id, of });
    }
    if let Some(rescore) = value.get("rescore") {
        let of = rescore
            .get("of")
            .and_then(Json::str)
            .ok_or_else(|| err("rescore needs the base sweep's id in `of`"))?
            .to_owned();
        let delta = RescoreDelta {
            occupancy: optional_f64(rescore, "q")?,
            probe_cost: optional_f64(rescore, "probe_cost")?,
            error_cost: optional_f64(rescore, "error_cost")?,
        };
        return Ok(WireRequest::Rescore { id, of, delta });
    }
    if let Some(calibrate) = value.get(VERB_CALIBRATE) {
        let target = decode_target(value, calibrate, VERB_CALIBRATE)?;
        let n = count("calibrate `n`", field_f64(calibrate, "n")?)?;
        let r = field_f64(calibrate, "r")?;
        return Ok(WireRequest::Calibrate { id, target, n, r });
    }
    if let Some(frontier) = value.get(VERB_FRONTIER) {
        let target = decode_target(value, frontier, VERB_FRONTIER)?;
        let x = decode_axis(frontier, "x")?;
        let y = decode_axis(frontier, "y")?;
        let points = x.values.len().saturating_mul(y.values.len());
        check_cap(Extent::FrontierPoints(points)).map_err(err)?;
        return Ok(WireRequest::Frontier { id, target, x, y });
    }
    if value.get("scenario").is_none() {
        // Not a known verb and not a sweep: name the stray key so clients
        // speaking a newer (or wrong) verb set get a pointed diagnostic
        // instead of a misleading "needs `scenario`".
        if let Json::Obj(members) = value {
            const KNOWN_KEYS: [&str; 9] = [
                "v",
                "id",
                "cancel",
                "rescore",
                VERB_CALIBRATE,
                VERB_FRONTIER,
                "scenario",
                "grid",
                "metrics",
            ];
            if let Some((key, _)) = members
                .iter()
                .find(|(key, _)| !KNOWN_KEYS.contains(&key.as_str()))
            {
                return Err(err(format!("unknown request verb `{key}`")));
            }
        }
    }
    let scenario = decode_scenario(
        value
            .get("scenario")
            .ok_or_else(|| err("request needs `scenario`"))?,
    )?;
    let grid = decode_grid(
        value
            .get("grid")
            .ok_or_else(|| err("request needs `grid`"))?,
    )?;
    let metrics = decode_metrics(value.get("metrics"))?;
    Ok(WireRequest::Sweep {
        id,
        request: SweepRequest {
            scenario,
            grid,
            metrics,
        },
    })
}

/// Decodes one request line: parse, version check, schema decode.
///
/// # Errors
///
/// Returns a [`WireError`] for syntax, version or schema problems.
pub fn parse_request_line(line: &str) -> Result<WireRequest, WireError> {
    let value = parse_request_json(line)?;
    check_version(&value)?;
    decode_request(&value)
}

/// The id a request line's answer echoes: its `id` member when that is a
/// string, else empty.
#[must_use]
pub fn line_id(value: &Json) -> &str {
    value.get("id").and_then(Json::str).unwrap_or_default()
}

/// Decodes one parsed request line (version check, then schema decode).
/// The decode every front end shares: [`PipelinedSession::submit_line`]
/// runs it, and so does `zeroconf serve` after answering its own `stats`
/// lines.
///
/// # Errors
///
/// Returns the line's error answer: without an id when the line did not
/// parse, else echoing [`line_id`].
pub fn decode_line(parsed: Result<Json, WireError>) -> Result<WireRequest, String> {
    let value = parsed.map_err(|e| error_line("", &e.into()))?;
    check_version(&value)
        .and_then(|()| decode_request(&value))
        .map_err(|e| error_line(line_id(&value), &e.into()))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::wire::{MAX_GRID_CELLS, MAX_GRID_R_POINTS};

    pub(crate) fn sweep_line(id: &str) -> String {
        format!(
            "{{\"id\":\"{id}\",\"scenario\":{{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
             \"reply_time\":{{\"kind\":\"exponential\",\"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}}}},\
             \"grid\":{{\"n_max\":3,\"r\":[0.5,1.0,2.0]}}}}"
        )
    }

    #[test]
    fn sweep_request_decodes() {
        let parsed = parse_request_line(&sweep_line("s1")).unwrap();
        let WireRequest::Sweep { id, request } = parsed else {
            panic!("expected sweep");
        };
        assert_eq!(id, "s1");
        assert_eq!(request.grid.n_max, 3);
        assert_eq!(request.grid.r_values, vec![0.5, 1.0, 2.0]);
        assert_eq!(request.metrics.len(), 2, "metrics default to both");
        assert_eq!(request.scenario.occupancy(), 0.5);
    }

    #[test]
    fn linspace_grid_and_hosts_decode() {
        let line = "{\"id\":\"x\",\"scenario\":{\"hosts\":1000,\"probe_cost\":2.0,\
                    \"error_cost\":1e35,\"reply_time\":{\"kind\":\"deterministic\",\
                    \"mass\":0.9,\"delay\":1.0}},\
                    \"grid\":{\"n_max\":4,\"r_min\":0.1,\"r_max\":30.0,\"r_points\":300},\
                    \"metrics\":[\"mean_cost\"]}";
        let WireRequest::Sweep { request, .. } = parse_request_line(line).unwrap() else {
            panic!("expected sweep");
        };
        assert_eq!(request.grid.r_values.len(), 300);
        // hosts uses the paper's q = hosts / 65024 parameterization.
        assert_eq!(request.scenario.occupancy(), 1000.0 / 65024.0);
        assert_eq!(request.metrics, vec![Metric::MeanCost]);
    }

    #[test]
    fn oversized_grids_and_frontiers_are_refused_at_decode() {
        let scenario = "\"scenario\":{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
                        \"reply_time\":{\"kind\":\"exponential\",\"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}}";
        let sweep = |grid: &str| format!("{{\"id\":\"g\",{scenario},\"grid\":{grid}}}");
        let long_r = format!(
            "{{\"n_max\":2,\"r\":[{}]}}",
            vec!["1.0"; MAX_GRID_R_POINTS + 1].join(",")
        );
        for (grid, expected) in [
            (
                "{\"n_max\":2,\"r_min\":0.1,\"r_max\":1.0,\"r_points\":1e300}".to_owned(),
                "grid `r_points` 1e300 is over the limit of 65536",
            ),
            (
                "{\"n_max\":4e9,\"r_min\":0.1,\"r_max\":1.0,\"r_points\":2}".to_owned(),
                "grid `n_max` 4000000000.0 is over the limit of 4096",
            ),
            (
                "{\"n_max\":1e999,\"r\":[1.0]}".to_owned(),
                "grid `n_max` inf is over the limit of 4096",
            ),
            (long_r, "grid `r` length 65537 is over the limit of 65536"),
            (
                "{\"n_max\":4096,\"r_min\":0.1,\"r_max\":1.0,\"r_points\":257}".to_owned(),
                "grid cell count 1052672 (n_max × r values) is over the limit of 1048576",
            ),
        ] {
            let error = parse_request_line(&sweep(&grid)).unwrap_err();
            assert_eq!(error.message, expected);
        }
        // The limits themselves are accepted.
        let at_limit = sweep("{\"n_max\":4096,\"r_min\":0.1,\"r_max\":1.0,\"r_points\":256}");
        let WireRequest::Sweep { request, .. } = parse_request_line(&at_limit).unwrap() else {
            panic!("expected sweep");
        };
        assert_eq!(request.grid.r_values.len() * 4096, MAX_GRID_CELLS);

        let axis = |n: usize| vec!["1.0"; n].join(",");
        let frontier = |x: usize, y: usize| {
            format!(
                "{{\"id\":\"f\",{scenario},\"grid\":{{\"n_max\":2,\"r\":[0.5,1.0,2.0]}},\
                 \"frontier\":{{\"x\":{{\"axis\":\"error_cost\",\"values\":[{}]}},\
                 \"y\":{{\"axis\":\"probe_cost\",\"values\":[{}]}}}}}}",
                axis(x),
                axis(y)
            )
        };
        assert_eq!(
            parse_request_line(&frontier(257, 256)).unwrap_err().message,
            "frontier parameter point count 65792 (|x| × |y|) is over the limit of 65536"
        );
        assert!(matches!(
            parse_request_line(&frontier(256, 256)),
            Ok(WireRequest::Frontier { .. })
        ));
    }

    #[test]
    fn mixture_reply_time_decodes() {
        let line = "{\"id\":\"m\",\"scenario\":{\"q\":0.1,\"probe_cost\":1.0,\"error_cost\":10.0,\
            \"reply_time\":{\"kind\":\"mixture\",\"components\":[\
              {\"weight\":0.6,\"dist\":{\"kind\":\"deterministic\",\"mass\":1.0,\"delay\":0.5}},\
              {\"weight\":0.4,\"dist\":{\"kind\":\"uniform\",\"mass\":0.9,\"lo\":0.0,\"hi\":2.0}}]}},\
            \"grid\":{\"n_max\":2,\"r\":[1.0]}}";
        let WireRequest::Sweep { request, .. } = parse_request_line(line).unwrap() else {
            panic!("expected sweep");
        };
        assert!((request.scenario.reply_time().mass() - (0.6 + 0.4 * 0.9)).abs() < 1e-12);
    }

    #[test]
    fn calibrate_and_frontier_lines_decode() {
        let calibrate =
            parse_request_line("{\"id\":\"k1\",\"calibrate\":{\"of\":\"s1\",\"n\":2,\"r\":1.0}}")
                .unwrap();
        let WireRequest::Calibrate { id, target, n, r } = calibrate else {
            panic!("expected calibrate");
        };
        assert_eq!(id, "k1");
        assert!(matches!(target, WorkTarget::Base(of) if of == "s1"));
        assert_eq!((n, r), (2, 1.0));
        let frontier = parse_request_line(
            "{\"id\":\"f1\",\"frontier\":{\"of\":\"s1\",\
             \"x\":{\"axis\":\"error_cost\",\"values\":[1e3,1e6]},\
             \"y\":{\"axis\":\"probe_cost\",\"values\":[1.0,2.0]}}}",
        )
        .unwrap();
        let WireRequest::Frontier { target, x, y, .. } = frontier else {
            panic!("expected frontier");
        };
        assert!(matches!(target, WorkTarget::Base(_)));
        assert_eq!(x.axis, ParamAxis::ErrorCost);
        assert_eq!(y.values, vec![1.0, 2.0]);
        // Unknown axis and missing target are named in the error.
        let bad = parse_request_line(
            "{\"id\":\"f2\",\"frontier\":{\"of\":\"s1\",\
             \"x\":{\"axis\":\"rate\",\"values\":[1.0]},\
             \"y\":{\"axis\":\"q\",\"values\":[0.5]}}}",
        );
        assert!(bad.unwrap_err().message.contains("unknown frontier axis"));
        let bare = parse_request_line("{\"id\":\"k2\",\"calibrate\":{\"n\":2,\"r\":1.0}}");
        assert!(bare
            .unwrap_err()
            .message
            .contains("needs `of` or an inline `scenario`"));
    }
}
