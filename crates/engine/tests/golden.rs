//! Golden equivalence: the engine must reproduce the direct closed-form
//! evaluations bit for bit — cache-cold, cache-warm, in one chunk and in
//! several — on the paper's own Figure 2 scenario.

use zeroconf_cost::{cost, paper};
use zeroconf_engine::{Engine, EngineConfig, GridSpec, RescoreDelta, SweepRequest};

fn figure2_grid() -> GridSpec {
    GridSpec::linspace(8, 0.1, 30.0, 120)
}

fn assert_bit_identical(engine: &Engine, request: &SweepRequest) {
    let response = engine.evaluate(request).unwrap();
    assert_eq!(response.landscape.len(), request.grid.cells());
    for cell in response.landscape.iter() {
        let direct_cost = cost::mean_cost(&request.scenario, cell.n, cell.r).unwrap();
        let direct_error = cost::error_probability(&request.scenario, cell.n, cell.r).unwrap();
        assert_eq!(
            cell.mean_cost.unwrap().to_bits(),
            direct_cost.to_bits(),
            "C(n = {}, r = {}) differs from the direct closed form",
            cell.n,
            cell.r
        );
        assert_eq!(
            cell.error_probability.unwrap().to_bits(),
            direct_error.to_bits(),
            "E(n = {}, r = {}) differs from the direct closed form",
            cell.n,
            cell.r
        );
    }
}

#[test]
fn cold_cache_matches_direct_evaluation_bitwise() {
    let scenario = paper::figure2_scenario().unwrap();
    let engine = Engine::new(EngineConfig {
        cache_tables: 256,
        ..EngineConfig::default()
    });
    let request = SweepRequest::new(scenario, figure2_grid());
    assert_bit_identical(&engine, &request);
    let stats = engine.stats();
    assert_eq!(stats.cache_misses, 120, "cold run computes one table per r");
    assert_eq!(stats.cache_hits, 0);
}

#[test]
fn warm_cache_matches_direct_evaluation_bitwise() {
    let scenario = paper::figure2_scenario().unwrap();
    let engine = Engine::new(EngineConfig {
        cache_tables: 256,
        ..EngineConfig::default()
    });
    let request = SweepRequest::new(scenario, figure2_grid());
    // First pass fills the cache; the second serves entirely from it.
    engine.evaluate(&request).unwrap();
    assert_bit_identical(&engine, &request);
    let stats = engine.stats();
    assert_eq!(stats.cache_misses, 120, "warm pass recomputes nothing");
    assert_eq!(stats.cache_hits, 120);
}

/// A 64 × 200 cold grid rather than [`figure2_grid`]: its 200 columns
/// span several of the engine's chunks, the last one short, so the slabs
/// are written chunk by chunk.
#[test]
fn multi_chunk_sweep_matches_direct_evaluation_bitwise() {
    let scenario = paper::figure2_scenario().unwrap();
    let engine = Engine::new(EngineConfig {
        cache_tables: 256,
        ..EngineConfig::default()
    });
    let request = SweepRequest::new(scenario, GridSpec::linspace(64, 0.1, 30.0, 200));
    assert_bit_identical(&engine, &request);
}

#[test]
fn rescore_is_bit_identical_and_recomputes_no_pi() {
    let scenario = paper::figure2_scenario().unwrap();
    let engine = Engine::new(EngineConfig {
        cache_tables: 256,
        ..EngineConfig::default()
    });
    let base = SweepRequest::new(scenario, figure2_grid());
    engine.evaluate(&base).unwrap();
    // Change every economic knob at once; reply-time is untouched.
    let delta = RescoreDelta {
        occupancy: Some(0.01),
        probe_cost: Some(3.5),
        error_cost: Some(1e20),
    };
    let (rescored_request, response) = engine.rescore(&base, &delta).unwrap();
    assert_eq!(
        response.stats.cache_misses, 0,
        "a q/E/c rescore must perform zero pi recomputations"
    );
    assert_eq!(response.stats.cache_hits, 120);
    for cell in response.landscape.iter() {
        let direct = cost::mean_cost(&rescored_request.scenario, cell.n, cell.r).unwrap();
        assert_eq!(cell.mean_cost.unwrap().to_bits(), direct.to_bits());
        let direct_e = cost::error_probability(&rescored_request.scenario, cell.n, cell.r).unwrap();
        assert_eq!(
            cell.error_probability.unwrap().to_bits(),
            direct_e.to_bits()
        );
    }
}

#[test]
fn tiny_cache_still_gives_exact_results() {
    // With room for only 4 of the 120 tables the engine thrashes, but
    // correctness and bit-identity must be unaffected.
    let scenario = paper::figure2_scenario().unwrap();
    let engine = Engine::new(EngineConfig {
        cache_tables: 4,
        ..EngineConfig::default()
    });
    let request = SweepRequest::new(scenario, figure2_grid());
    assert_bit_identical(&engine, &request);
    assert!(engine.stats().cache_len <= 4);
}
