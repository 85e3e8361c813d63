//! The `BENCH_engine.json` row schema — single source of truth.
//!
//! `BENCH_engine.json` is a machine-read artifact: CI trend tooling and
//! the DESIGN.md performance tables key on its row labels and field
//! names, so a silently renamed row or field breaks consumers without
//! failing any test. Every fixed row label and every field name is
//! therefore a named constant defined here and nowhere else; the audit's
//! `const-drift` rule pins each definition to this file and bans stray
//! literal copies, exactly as it does for the wire version. The one row
//! whose label embeds a runtime parameter (the pipeline depth) is built
//! by [`row_session_pipelined`] from its pinned stem.
//!
//! [`row_json`] is the one serializer: `cargo bench -p zeroconf-bench
//! --bench engine_throughput` formats every row through it, so the field
//! order and spelling in the artifact are witnessed by the tests in this
//! module.

use crate::harness::BenchRecord;

/// Row label: the blocked batch kernel, cold (π-tables recomputed each
/// iteration).
pub const ROW_KERNEL_BLOCK: &str = "kernel/block/columns";
/// Row label: the single-pass column program over precomputed π-tables,
/// one column at a time (a width-1 block).
pub const ROW_KERNEL_SINGLE_PASS: &str = "kernel/single-pass/columns";
/// Row label: the blocked batch kernel on the widest detected SIMD tier
/// (bit-identical to [`ROW_KERNEL_BLOCK`]'s results).
pub const ROW_KERNEL_BLOCK_SIMD: &str = "kernel/block/simd";
/// Row label: a 64×64 `(E, c)` Pareto frontier over a warm π-table
/// cache: the statistic is rebuilt from cached tables (zero π
/// recomputation).
pub const ROW_FRONTIER_WARM: &str = "engine/frontier/warm";
/// Row label: a `param-cold`-shaped frontier — a 64 × 400 grid under a
/// 16 × 16 `(E, c)` parameter grid for a fresh reply time per iteration,
/// so every π-table misses and the statistic is rebuilt.
pub const ROW_FRONTIER_COLD: &str = "engine/frontier/cold";
/// Row label: the same frontier evaluated the naive way — a full
/// π-table + grid recomputation per parameter point.
pub const ROW_FRONTIER_RECOMPUTE: &str = "engine/frontier/per-point-recompute";
/// Row label: closed-form `E*` calibration over a warm π-table cache:
/// the statistic is rebuilt from cached tables.
pub const ROW_CALIBRATE_WARM: &str = "engine/calibrate/warm";
/// Row label: the full engine over a 200 × 200 sweep, cache-cold (a fresh
/// engine per iteration, every π-table computed).
pub const ROW_ENGINE_COLD: &str = "engine/cold";
/// Row label: the same sweep on a long-lived engine whose π-table cache
/// is hot.
pub const ROW_ENGINE_WARM: &str = "engine/warm";
/// Row label: a 16-request session evaluated one request at a time.
pub const ROW_SESSION_SERIAL: &str = "engine/session/serial";
/// Stem of the pipelined session rows (`engine/session/pipelined/depth=<k>`).
pub const ROW_STEM_SESSION_PIPELINED: &str = "engine/session/pipelined";
/// Row label: one `landscape-warm`-shaped sweep answer (16 × 100 cells,
/// both metrics) written as its v1 response line.
pub const ROW_WIRE_ENCODE_SWEEP: &str = "wire/encode/sweep";
/// Row label: the same answers' lines decoded back into landscapes, as
/// `zeroconf-client` decodes them.
pub const ROW_WIRE_DECODE_SWEEP: &str = "wire/decode/sweep";

/// Field name: the row label itself.
pub const FIELD_ID: &str = "id";
/// Field name: cache regime (`cold`, `warm`).
pub const FIELD_CACHE: &str = "cache";
/// Field name: probe-count grid extent.
pub const FIELD_N_MAX: &str = "n_max";
/// Field name: listening-period grid extent.
pub const FIELD_R_POINTS: &str = "r_points";
/// Field name: median nanoseconds per iteration.
pub const FIELD_MEDIAN_NS: &str = "median_ns";
/// Field name: fastest sample's nanoseconds per iteration.
pub const FIELD_MIN_NS: &str = "min_ns";
/// Field name: mean nanoseconds per iteration.
pub const FIELD_MEAN_NS: &str = "mean_ns";
/// Field name: `(n, r)` evaluations per second at the median.
pub const FIELD_CELLS_PER_SEC: &str = "cells_per_sec";
/// Field name: timed samples collected.
pub const FIELD_SAMPLES: &str = "samples";
/// Field name: iterations per sample after calibration.
pub const FIELD_ITERS_PER_SAMPLE: &str = "iters_per_sample";
/// Field name: optional free-text caveat (single-CPU hosts etc.).
pub const FIELD_NOTE: &str = "note";

/// The pipelined-session row label for `depth` requests in flight.
#[must_use]
pub fn row_session_pipelined(depth: usize) -> String {
    format!("{ROW_STEM_SESSION_PIPELINED}/depth={depth}")
}

/// One `BENCH_engine.json` row. `cells` is the number of `(n, r)`
/// evaluations a single iteration performs, so
/// `cells_per_sec = cells / median`.
#[must_use]
pub fn row_json(
    record: &BenchRecord,
    cache: &str,
    n_max: u32,
    r_points: usize,
    cells: usize,
    note: Option<&str>,
) -> String {
    let cells_per_sec = cells as f64 * 1e9 / record.median_ns;
    let note_field = match note {
        Some(note) => format!(",\"{FIELD_NOTE}\":{note:?}"),
        None => String::new(),
    };
    format!(
        "{{\"{FIELD_ID}\":{:?},\"{FIELD_CACHE}\":{:?},\
         \"{FIELD_N_MAX}\":{},\"{FIELD_R_POINTS}\":{},\"{FIELD_MEDIAN_NS}\":{},\
         \"{FIELD_MIN_NS}\":{},\"{FIELD_MEAN_NS}\":{},\"{FIELD_CELLS_PER_SEC}\":{:.1},\
         \"{FIELD_SAMPLES}\":{},\"{FIELD_ITERS_PER_SAMPLE}\":{}{}}}",
        record.id,
        cache,
        n_max,
        r_points,
        record.median_ns,
        record.min_ns,
        record.mean_ns,
        cells_per_sec,
        record.samples,
        record.iters_per_sample,
        note_field
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> BenchRecord {
        BenchRecord {
            id: ROW_KERNEL_BLOCK.to_owned(),
            median_ns: 2e6,
            min_ns: 1.5e6,
            mean_ns: 2.1e6,
            samples: 7,
            iters_per_sample: 3,
            first_iter_ns: 3e6,
        }
    }

    #[test]
    fn row_json_spells_every_field_once() {
        let row = row_json(&record(), "cold", 200, 200, 40_000, None);
        for field in [
            FIELD_ID,
            FIELD_CACHE,
            FIELD_N_MAX,
            FIELD_R_POINTS,
            FIELD_MEDIAN_NS,
            FIELD_MIN_NS,
            FIELD_MEAN_NS,
            FIELD_CELLS_PER_SEC,
            FIELD_SAMPLES,
            FIELD_ITERS_PER_SAMPLE,
        ] {
            assert_eq!(
                row.matches(&format!("\"{field}\":")).count(),
                1,
                "field {field} in {row}"
            );
        }
        assert!(!row.contains(FIELD_NOTE), "{row}");
        // 40_000 cells at 2ms median = 20M cells/sec.
        assert!(row.contains("\"cells_per_sec\":20000000.0"), "{row}");
    }

    #[test]
    fn notes_are_escaped_json_strings() {
        let row = row_json(&record(), "warm", 32, 40, 1280, Some("quote \" here"));
        assert!(row.contains("\"note\":\"quote \\\" here\""), "{row}");
    }

    #[test]
    fn parameterized_rows_build_from_the_pinned_stems() {
        assert_eq!(row_session_pipelined(4), "engine/session/pipelined/depth=4");
        assert!(ROW_KERNEL_BLOCK_SIMD.starts_with("kernel/block/"));
        for row in [
            ROW_ENGINE_COLD,
            ROW_ENGINE_WARM,
            ROW_FRONTIER_WARM,
            ROW_FRONTIER_COLD,
            ROW_FRONTIER_RECOMPUTE,
            ROW_CALIBRATE_WARM,
            ROW_SESSION_SERIAL,
            ROW_STEM_SESSION_PIPELINED,
        ] {
            assert!(row.starts_with("engine/"), "{row}");
        }
        for row in [ROW_WIRE_ENCODE_SWEEP, ROW_WIRE_DECODE_SWEEP] {
            assert!(row.starts_with("wire/") && row.ends_with("/sweep"), "{row}");
        }
    }
}
