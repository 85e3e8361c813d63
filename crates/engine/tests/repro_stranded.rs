//! Review repro: a held-back rescore whose delta fails at dispatch time
//! strands its own dependents.

use std::sync::Arc;

use zeroconf_engine::wire::PipelinedSession;
use zeroconf_engine::{Engine, EngineConfig, ExecutorTeam, PipelineConfig};

#[test]
fn chained_rescore_on_invalid_held_rescore_is_answered() {
    let engine = Engine::new(EngineConfig {
        cache_tables: 4096,
        ..EngineConfig::default()
    });
    let mut session = PipelinedSession::with_team(
        Arc::new(ExecutorTeam::new(Arc::new(engine), 1)),
        PipelineConfig::with_depth(3),
    );
    // Big sweep keeps the single executor busy so the rescores are held.
    let huge = "{\"id\":\"s1\",\"scenario\":{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
        \"reply_time\":{\"kind\":\"exponential\",\"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}},\
        \"grid\":{\"n_max\":64,\"r_min\":0.01,\"r_max\":25.0,\"r_points\":1200}}";
    let mut out = session.submit_line(huge);
    // s2: held back (base in flight), with an INVALID delta (q = 5.0).
    out.extend(session.submit_line("{\"id\":\"s2\",\"rescore\":{\"of\":\"s1\",\"q\":5.0}}"));
    // s3: held back waiting on s2.
    out.extend(
        session.submit_line("{\"id\":\"s3\",\"rescore\":{\"of\":\"s2\",\"error_cost\":1e9}}"),
    );
    out.extend(session.drain());
    // Every non-empty input line must produce exactly one output line.
    assert_eq!(out.len(), 3, "{out:?}");
    for id in ["s1", "s2", "s3"] {
        assert_eq!(
            out.iter()
                .filter(|l| l.contains(&format!("\"id\":\"{id}\"")))
                .count(),
            1,
            "exactly one response for {id}: {out:?}"
        );
    }
}
