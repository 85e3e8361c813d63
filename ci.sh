#!/usr/bin/env bash
# Local CI gate: formatting, lints, build and the full test suite.
# Everything runs offline against the vendored toolchain; a clean exit
# means the tree is mergeable.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> no cfg-gated property suites"
# Every property suite runs on zeroconf_rng::for_each_seed in plain
# `cargo test`. A suite gated behind a cfg that names the external
# `proptest` crate could not build offline, so it would never run; no
# file may name that cfg.
if grep -rl 'zeroconf_proptest' crates src tests examples Cargo.toml; then
  echo "ci: the files above name the zeroconf_proptest cfg; port the suite to for_each_seed" >&2
  exit 1
fi

echo "==> one platform guard (no platform cfg may come back)"
# The workspace builds for 64-bit little-endian Linux only, declared by
# one compile_error! guard in crates/engine/src/lib.rs that every other
# crate inherits through its engine dependency. A platform cfg anywhere
# else would reintroduce a branch no lane can build.
PLATFORM_CFG_RE='cfg(_attr)?\([^]]*\b(unix|windows)\b|target_os|target_family'
mapfile -t PLATFORM_CFG < <(grep -rnE --include='*.rs' "$PLATFORM_CFG_RE" \
  crates src tests examples)
printf 'ci: platform cfg: %s\n' "${PLATFORM_CFG[@]}"
if (( ${#PLATFORM_CFG[@]} != 1 )) || [[ "${PLATFORM_CFG[0]}" != crates/engine/src/lib.rs:* ]]; then
  echo "ci: only the one guard in crates/engine/src/lib.rs may name a platform" >&2
  exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings denied)"
# Every intra-doc link must resolve, and public docs may not link to
# private items: a broken link fails here rather than rendering as text.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --release"
cargo build --release

echo "==> zeroconf audit --deny-warnings"
# The workspace static-analysis gate (crates/audit): unsafe-code audit,
# panic freedom, wire-format constant drift, the lockfile check, and the
# concurrency-safety rules (atomic-ordering, lock-order, reactor
# blocking-call reach, FFI surface). Runs before the test suite so
# policy violations fail fast. The bare `cargo build --release` above
# only builds the root package, so build the CLI explicitly before
# invoking it. The audit is a pre-commit-speed gate: its wall time is
# printed and must stay under 2 seconds.
cargo build --release -p zeroconf-cli
AUDIT_T0=$(date +%s%3N)
./target/release/zeroconf audit --deny-warnings
AUDIT_MS=$(( $(date +%s%3N) - AUDIT_T0 ))
echo "ci: audit completed in ${AUDIT_MS}ms"
if (( AUDIT_MS >= 2000 )); then
  echo "ci: audit took ${AUDIT_MS}ms — the gate must stay under 2000ms" >&2
  exit 1
fi

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> serve daemon suite in release"
# The debug pass above already ran it. A release build runs the engine
# far faster, so a test whose timing only holds in a debug build fails
# here instead of hiding.
cargo test --release -q -p zeroconf-serve --test serve_daemon

echo "==> engine pipeline and wire error suites in release"
# Same reason: the completion-order tests race a long sweep against
# short ones, and only a release build shows whether the long one is
# long enough; the cancel tests race a cold sweep against its cancel,
# which a release build can finish first.
cargo test --release -q -p zeroconf-engine --test pipeline
cargo test --release -q -p zeroconf-engine --test wire_errors

echo "==> engine unit tests in release"
# The float writer's byte comparison with `{:?}` runs over 10^8 seeded
# random floats only in a release build (a debug build runs a prefix of
# the same stream), reading each text back through the wire's number
# reader and `str::parse`; its wall time, build excluded, is printed.
cargo test --release -q -p zeroconf-engine --lib --no-run
ENGINE_T0=$(date +%s%3N)
cargo test --release -q -p zeroconf-engine --lib
echo "ci: engine unit tests in release ran in $(( $(date +%s%3N) - ENGINE_T0 ))ms"

echo "==> examples, built in release and run once each"
# clippy --all-targets above only compiles them. Each must exit 0, and
# batch_sweep's parametric finale, which runs on the cache its pipelined
# sweeps warmed, must report `cache_misses: 0` for both verbs.
cargo build --release -q --examples
for EXAMPLE in examples/*.rs; do
  EXAMPLE_NAME="$(basename "$EXAMPLE" .rs)"
  if ! EXAMPLE_OUT="$(./target/release/examples/"$EXAMPLE_NAME")"; then
    echo "ci: example $EXAMPLE_NAME exited non-zero" >&2
    echo "$EXAMPLE_OUT" >&2
    exit 1
  fi
  if [[ "$EXAMPLE_NAME" == batch_sweep ]] \
    && [[ "$(grep -c 'cache_misses: 0)' <<<"$EXAMPLE_OUT")" != 2 ]]; then
    echo "ci: batch_sweep's calibrate and frontier must both report cache_misses: 0" >&2
    echo "$EXAMPLE_OUT" >&2
    exit 1
  fi
  echo "ci: example $EXAMPLE_NAME ok"
done

echo "==> perfbench build and tests (its own workspace)"
# The benchmark builds against the engine, serve and client crates by
# path; building and testing it here turns an API change that breaks it
# into a CI failure rather than a failed benchmark run. `--locked` makes
# a change to a dependency edge that perfbench/Cargo.lock records fail
# here, instead of cargo rewriting the benchmark's lock at run time.
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> perfbench workloads, one short run each"
# Each workload once for one second, untraced (about 2 s for all three on
# a 2-vCPU host): the streamed answer path gets the benchmark's oracle
# (sampled answers bit for bit against an in-process engine), its drain
# summary and its byte counts on every CI run. The timings are not gated
# here; the last stdout line must say the run was correct with no failed
# op.
for WORKLOAD in landscape-warm param-cold rescore-session; do
  PERF_OUT="$(cargo run --release --quiet --offline --locked --manifest-path perfbench/Cargo.toml -- \
    --workload "$WORKLOAD" --seed 1 --seconds 1 --trace 0)"
  PERF_LAST="$(tail -n 1 <<<"$PERF_OUT")"
  if [[ "$PERF_LAST" != *'"correct": true'* ]] || [[ "$PERF_LAST" != *'"failed": 0,'* ]]; then
    echo "ci: perfbench $WORKLOAD was not correct with 0 failed ops" >&2
    echo "$PERF_OUT" >&2
    exit 1
  fi
  echo "ci: perfbench $WORKLOAD: $PERF_LAST"
done

echo "==> concurrency model tests (--cfg zeroconf_loom interleaving explorer)"
# The vendored loom replacement (crates/serve/src/model_tests.rs):
# exhaustive schedule enumeration over the FairBudget admission protocol
# and the eventfd wakeup handshake. The cfg keeps the default test pass
# fast; the lane always runs here since the explorer has no external
# dependency.
RUSTFLAGS="--cfg zeroconf_loom" cargo test -q -p zeroconf-serve --lib

if [[ "${ZEROCONF_CI_SANITIZE:-}" == "thread" ]]; then
  # -Zsanitizer is nightly-only; the pinned offline toolchain is stable,
  # so the lane is opt-in. An instrumented test binary must also link an
  # instrumented std, which -Zbuild-std rebuilds from nightly's rust-src
  # component; without it the build stops on an ABI-mismatch error. So
  # the lane runs only when both are present, and otherwise prints an
  # explicit notice naming what is missing instead of failing or
  # skipping silently.
  if ! rustup toolchain list 2>/dev/null | grep -q nightly; then
    echo "ci: ZEROCONF_CI_SANITIZE=thread requested but no nightly toolchain is installed"
    echo "ci: skipping the ThreadSanitizer lane (-Zsanitizer=thread is nightly-only)"
  else
    NIGHTLY_STD_SRC="$(rustc +nightly --print sysroot)/lib/rustlib/src/rust/library"
    if [[ -d "$NIGHTLY_STD_SRC" ]]; then
      echo "==> ThreadSanitizer lane (ZEROCONF_CI_SANITIZE=thread, nightly, -Zbuild-std)"
      RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -q -Zbuild-std \
        -p zeroconf-serve -p zeroconf-engine --lib \
        --target x86_64-unknown-linux-gnu
    else
      echo "ci: ZEROCONF_CI_SANITIZE=thread requested but the nightly toolchain lacks the rust-src component"
      echo "ci: ($NIGHTLY_STD_SRC is missing)"
      echo "ci: skipping the ThreadSanitizer lane (-Zbuild-std needs rust-src to instrument std)"
    fi
  fi
else
  echo "ci: sanitizer lane off (opt in with ZEROCONF_CI_SANITIZE=thread)"
fi

echo "==> engine session smoke test (pipelined, 3 requests)"
cargo build --release -p zeroconf-cli
SMOKE_OUT="$(printf '%s\n' \
  '{"v":1,"id":"a","scenario":{"q":0.5,"probe_cost":2.0,"error_cost":1e6,"reply_time":{"kind":"exponential","loss":1e-6,"rate":10.0,"delay":1.0}},"grid":{"n_max":4,"r":[1.0,2.0]}}' \
  '{"v":1,"id":"b","rescore":{"of":"a","error_cost":1e9}}' \
  '{"v":1,"id":"c","scenario":{"q":0.5,"probe_cost":2.0,"error_cost":1e6,"reply_time":{"kind":"exponential","loss":1e-6,"rate":10.0,"delay":1.0}},"grid":{"n_max":2,"r":[3.0]}}' \
  | ./target/release/zeroconf engine --inflight 3 --stats)"
for id in a b c; do
  if [[ "$(grep -c "\"id\":\"$id\"" <<<"$SMOKE_OUT")" != 1 ]]; then
    echo "ci: engine smoke test missed response for id '$id'" >&2
    echo "$SMOKE_OUT" >&2
    exit 1
  fi
done
grep -q '"pipeline":{"depth":3' <<<"$SMOKE_OUT" || {
  echo "ci: engine smoke test stats line lacks the pipeline block" >&2
  echo "$SMOKE_OUT" >&2
  exit 1
}

echo "==> engine session smoke test (a dependent chain deeper than --inflight 2)"
# A sweep, then three rescores, a calibrate and a frontier of it. At
# --inflight 2 the dependents wait behind their base and count toward
# the bound, and each id is answered exactly once.
CHAIN_LINES=(
  '{"v":1,"id":"s","scenario":{"q":0.5,"probe_cost":2.0,"error_cost":1e6,"reply_time":{"kind":"exponential","loss":1e-6,"rate":10.0,"delay":1.0}},"grid":{"n_max":3,"r":[0.5,1.0,2.0]}}'
  '{"v":1,"id":"r1","rescore":{"of":"s","error_cost":1e9}}'
  '{"v":1,"id":"r2","rescore":{"of":"s","error_cost":1e8}}'
  '{"v":1,"id":"r3","rescore":{"of":"s","probe_cost":3.0}}'
  '{"v":1,"id":"k","calibrate":{"of":"s","n":2,"r":1.0}}'
  '{"v":1,"id":"f","frontier":{"of":"s","x":{"axis":"error_cost","values":[1e3,1e6]},"y":{"axis":"probe_cost","values":[1.0,2.0]}}}'
)
CHAIN_IDS="s r1 r2 r3 k f"
CHAIN_OUT="$(printf '%s\n' "${CHAIN_LINES[@]}" | ./target/release/zeroconf engine --inflight 2)"
for id in $CHAIN_IDS; do
  if [[ "$(grep -c "\"id\":\"$id\"" <<<"$CHAIN_OUT")" != 1 ]]; then
    echo "ci: --inflight 2 chain: id '$id' was not answered exactly once" >&2
    echo "$CHAIN_OUT" >&2
    exit 1
  fi
done
if [[ "$(wc -l <<<"$CHAIN_OUT")" != 6 ]]; then
  echo "ci: --inflight 2 chain: expected 6 answers" >&2
  echo "$CHAIN_OUT" >&2
  exit 1
fi

echo "==> engine session smoke test (the default depth answers in input order)"
ORDER_OUT="$(printf '%s\n' "${CHAIN_LINES[@]}" | ./target/release/zeroconf engine)"
ORDER_IDS="$(grep -o '^{"v":1,"id":"[^"]*"' <<<"$ORDER_OUT" | cut -d'"' -f6 | paste -sd' ')"
if [[ "$ORDER_IDS" != "$CHAIN_IDS" ]]; then
  echo "ci: the default engine session answered '$ORDER_IDS', not '$CHAIN_IDS' in input order" >&2
  echo "$ORDER_OUT" >&2
  exit 1
fi

echo "==> engine parametric verbs smoke test (calibrate + frontier)"
# A sweep with a calibrate and a frontier riding behind it, all three
# streamed before the sweep completes. Both parametric answers must
# reuse the sweep's sufficient statistic: zero π-tables recomputed.
PARAM_OUT="$(printf '%s\n' \
  '{"v":1,"id":"s","scenario":{"q":0.5,"probe_cost":2.0,"error_cost":1e6,"reply_time":{"kind":"exponential","loss":1e-6,"rate":10.0,"delay":1.0}},"grid":{"n_max":3,"r":[0.5,1.0,2.0]}}' \
  '{"v":1,"id":"k","calibrate":{"of":"s","n":2,"r":1.0}}' \
  '{"v":1,"id":"f","frontier":{"of":"s","x":{"axis":"error_cost","values":[1e3,1e6]},"y":{"axis":"probe_cost","values":[1.0,2.0]}}}' \
  | ./target/release/zeroconf engine --inflight 3)"
grep -q '"id":"k","calibrate":{"error_cost":' <<<"$PARAM_OUT" || {
  echo "ci: calibrate smoke answer lacks the recovered error cost" >&2
  echo "$PARAM_OUT" >&2
  exit 1
}
grep -q '"id":"f","frontier":{"candidates":4,"points":\[' <<<"$PARAM_OUT" || {
  echo "ci: frontier smoke answer lacks the Pareto points" >&2
  echo "$PARAM_OUT" >&2
  exit 1
}
for id in k f; do
  if ! grep "\"id\":\"$id\"" <<<"$PARAM_OUT" | grep -q '"cache_misses":0'; then
    echo "ci: parametric verb '$id' recomputed π-tables instead of reusing the statistic" >&2
    echo "$PARAM_OUT" >&2
    exit 1
  fi
done

echo "==> engine smoke test (a warm set survives a cold inline frontier)"
# Eight sweeps on distinct reply times fill 800 of the default cache's
# 1,024 tables. An inline 64 x 400 frontier on a fresh reply time does
# not fit beside them and has nothing resident, so it builds its
# statistic without tables and evicts nothing: the same eight sweeps
# again must each read all 100 tables from the cache.
WARM_LINES=()
for K in 1 2 3 4 5 6 7 8; do
  WARM_LINES+=("{\"v\":1,\"id\":\"w$K\",\"scenario\":{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\"reply_time\":{\"kind\":\"exponential\",\"loss\":1e-6,\"rate\":1$K.0,\"delay\":1.0}},\"grid\":{\"n_max\":8,\"r_min\":0.1,\"r_max\":5.0,\"r_points\":100}}")
done
COLD_FRONTIER='{"v":1,"id":"cold","scenario":{"q":0.01,"probe_cost":2.0,"error_cost":1e12,"reply_time":{"kind":"exponential","loss":1e-9,"rate":7.5,"delay":0.2}},"grid":{"n_max":64,"r_min":0.02,"r_max":8.0,"r_points":400},"frontier":{"x":{"axis":"error_cost","values":[1e3,1e6,1e9,1e12]},"y":{"axis":"probe_cost","values":[0.5,1.0,2.0,4.0]}}}'
WARM_OUT="$(printf '%s\n' "${WARM_LINES[@]}" "$COLD_FRONTIER" "${WARM_LINES[@]/\"id\":\"w/\"id\":\"again}" \
  | ./target/release/zeroconf engine --inflight 1)"
if [[ "$(grep -c '"id":"again[1-8]".*"cache_misses":0[,}]' <<<"$WARM_OUT")" != 8 ]] \
  || ! grep -q '"id":"cold","frontier"' <<<"$WARM_OUT"; then
  echo "ci: the second pass of eight sweeps after a cold inline frontier must read every table from the cache" >&2
  printf '%.300s\n' "$WARM_OUT" >&2
  exit 1
fi

echo "==> engine smoke test (a line nested past MAX_JSON_DEPTH)"
# One 1 MiB line of `[` and then a valid sweep. The deep line must get
# one error answer, not overflow the parser's stack, and the sweep after
# it must be answered: exit 0 with exactly two lines.
DEEP_SWEEP='{"v":1,"id":"after","scenario":{"q":0.5,"probe_cost":2.0,"error_cost":1e6,"reply_time":{"kind":"exponential","loss":1e-6,"rate":10.0,"delay":1.0}},"grid":{"n_max":2,"r":[1.0]}}'
if ! DEEP_OUT="$( { head -c 1048576 /dev/zero | tr '\0' '['; printf '\n%s\n' "$DEEP_SWEEP"; } \
  | ./target/release/zeroconf engine)"; then
  echo "ci: zeroconf engine failed on a deeply nested line" >&2
  exit 1
fi
mapfile -t DEEP_LINES <<<"$DEEP_OUT"
if (( ${#DEEP_LINES[@]} != 2 )) \
  || [[ "${DEEP_LINES[0]}" != *'"error":"JSON nesting depth'* ]] \
  || [[ "${DEEP_LINES[1]}" != *'"id":"after","cells"'* ]]; then
  echo "ci: a deeply nested line must get one error line and leave the session serving" >&2
  printf '%.300s\n' "${DEEP_LINES[@]}" >&2
  exit 1
fi

echo "==> engine session smoke test (a line answered while stdin stays open)"
# The session reads stdin a line at a time and writes each answer when
# it is ready, not at EOF: one sweep written to a stdin that stays open
# must be answered within 10 s, and closing stdin then ends the session
# with exit 0.
STREAM_DIR="$(mktemp -d)"
mkfifo "$STREAM_DIR/in" "$STREAM_DIR/out"
./target/release/zeroconf engine <"$STREAM_DIR/in" >"$STREAM_DIR/out" &
STREAM_PID=$!
exec 9>"$STREAM_DIR/in" 8<"$STREAM_DIR/out"
printf '%s\n' "${DEEP_SWEEP/\"after\"/\"live\"}" >&9
if ! STREAM_LINE="$(timeout 10 head -n 1 <&8)" || [[ "$STREAM_LINE" != *'"id":"live","cells"'* ]]; then
  echo "ci: zeroconf engine did not answer a line within 10 s while its stdin stayed open" >&2
  exec 9>&- 8<&-
  kill "$STREAM_PID" 2>/dev/null || true
  rm -rf "$STREAM_DIR"
  exit 1
fi
exec 9>&-
STREAM_STATUS=0
wait "$STREAM_PID" || STREAM_STATUS=$?
exec 8<&-
rm -rf "$STREAM_DIR"
if (( STREAM_STATUS != 0 )); then
  echo "ci: zeroconf engine exited $STREAM_STATUS once its stdin closed" >&2
  exit 1
fi

echo "==> engine smoke test (a line over MAX_LINE_BYTES ends the session)"
# A sweep, a 5 MiB line and a sweep. The long line is refused as a
# daemon connection refuses it, with one id-less error after the first
# sweep's answer, and the session ends there with a non-zero exit: the
# last sweep is never answered. The input is a file, so the exit status
# read is zeroconf's own.
LONG_DIR="$(mktemp -d)"
{ printf '%s\n' "$DEEP_SWEEP"; head -c 5242880 /dev/zero | tr '\0' 'x'
  printf '\n%s\n' "${DEEP_SWEEP/\"after\"/\"late\"}"; } >"$LONG_DIR/in"
LONG_STATUS=0
./target/release/zeroconf engine <"$LONG_DIR/in" >"$LONG_DIR/out" 2>"$LONG_DIR/err" || LONG_STATUS=$?
mapfile -t LONG_LINES <"$LONG_DIR/out"
if (( LONG_STATUS == 0 )) || (( ${#LONG_LINES[@]} != 2 )) \
  || [[ "${LONG_LINES[0]}" != *'"id":"after","cells"'* ]] \
  || [[ "${LONG_LINES[1]}" != *'"id":"","error":"input line is over the limit of '* ]]; then
  echo "ci: a line over MAX_LINE_BYTES must get one error after the earlier answers and end the session non-zero (exit $LONG_STATUS)" >&2
  printf '%.300s\n' "${LONG_LINES[@]}" >&2
  cat "$LONG_DIR/err" >&2
  rm -rf "$LONG_DIR"
  exit 1
fi
rm -rf "$LONG_DIR"

echo "==> engine smoke test (a closed stdout ends the session)"
# `| head -n 1` closes the session's stdout after one answer of 400. The
# session must notice, cancel what it has in flight and exit non-zero
# within 30 s, not stall with its answers unread. pipefail would fold
# zeroconf's status into the pipeline's, so PIPESTATUS is read instead.
HEAD_DIR="$(mktemp -d)"
HEAD_SWEEP='{"v":1,"id":"h","scenario":{"q":0.5,"probe_cost":2.0,"error_cost":1e6,"reply_time":{"kind":"exponential","loss":1e-6,"rate":10.0,"delay":1.0}},"grid":{"n_max":8,"r_min":0.5,"r_max":4.0,"r_points":16}}'
for k in $(seq 400); do printf '%s\n' "${HEAD_SWEEP/\"h\"/\"h$k\"}"; done >"$HEAD_DIR/in"
set +o pipefail
timeout 30 ./target/release/zeroconf engine --inflight 2 <"$HEAD_DIR/in" 2>"$HEAD_DIR/err" \
  | head -n 1 >"$HEAD_DIR/out"
HEAD_STATUS=("${PIPESTATUS[@]}")
set -o pipefail
if (( HEAD_STATUS[0] == 0 || HEAD_STATUS[0] == 124 )) \
  || ! grep -q '"id":"h1","cells"' "$HEAD_DIR/out" \
  || ! grep -q 'writing stdout' "$HEAD_DIR/err"; then
  echo "ci: zeroconf engine must exit non-zero within 30 s once its stdout closes (exit ${HEAD_STATUS[0]}, 124 is the timeout)" >&2
  cat "$HEAD_DIR/err" >&2
  rm -rf "$HEAD_DIR"
  exit 1
fi
rm -rf "$HEAD_DIR"

echo "==> engine throughput bench smoke (--samples 2)"
# A 2-sample run keeps the gate fast. The smoke writes to its own path —
# the committed BENCH_engine.json stays untouched.
# Absolute path: cargo runs the bench with the package dir as cwd.
SMOKE_BENCH="$PWD/target/BENCH_engine.smoke.json"
cargo bench -q -p zeroconf-bench --bench engine_throughput -- \
  --samples 2 --out "$SMOKE_BENCH"
# BENCH_engine.json (the full-sample report) is generated, not committed;
# validate it too when a prior `cargo bench` left one behind.
BENCH_REPORTS=("$SMOKE_BENCH")
[[ -f BENCH_engine.json ]] && BENCH_REPORTS+=(BENCH_engine.json)
python3 - "${BENCH_REPORTS[@]}" <<'PY'
import json, sys
for path in sys.argv[1:]:
    with open(path) as f:
        rows = json.load(f)
    ids = {row["id"] for row in rows}
    for needed in (
        "engine/cold",
        "engine/warm",
        "kernel/single-pass/columns",
        "kernel/block/columns",
        "kernel/block/simd",
        "engine/frontier/warm",
        "engine/frontier/cold",
        "engine/frontier/per-point-recompute",
        "engine/calibrate/warm",
        "wire/encode/sweep",
        "wire/decode/sweep",
    ):
        if needed not in ids:
            sys.exit(f"ci: {path} is missing the '{needed}' row")
    for row in rows:
        if row.get("cells_per_sec", 0) <= 0:
            sys.exit(f"ci: {path} row {row['id']} lacks a positive cells_per_sec")
    # The parametric-layer acceptance bar: answering the frontier from
    # the cached sufficient statistic must beat a cold sweep per
    # parameter point by >= 20x in parameter-cell throughput (both rows
    # normalize cells to candidates x grid cells). Measured headroom is
    # ~10x above this gate, so smoke noise cannot trip it.
    by_id = {row["id"]: row for row in rows}
    warm_frontier = by_id["engine/frontier/warm"]
    recompute = by_id["engine/frontier/per-point-recompute"]
    ratio = warm_frontier["cells_per_sec"] / recompute["cells_per_sec"]
    if ratio < 20.0:
        sys.exit(
            f"ci: {path} warm frontier is only {ratio:.1f}x the per-point "
            "recompute baseline (acceptance floor is 20x)"
        )
print("ci: bench reports validated:", ", ".join(sys.argv[1:]))
PY

# --- serve gates: both drive the daemon with the zeroconf-client binary,
# --- the same typed client the integration tests and perfbench use.
cargo build --release -p zeroconf-client

# Spawns the daemon on $SERVE_SOCK logging to $SERVE_LOG, waits for the
# socket, and leaves the pid in $SERVE_PID.
SERVE_INFLIGHT=4
serve_spawn() {
  rm -f "$SERVE_SOCK" "$SERVE_LOG"
  ./target/release/zeroconf serve --unix "$SERVE_SOCK" --inflight "$SERVE_INFLIGHT" \
    >"$SERVE_LOG" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 1 200); do
    [[ -S "$SERVE_SOCK" ]] && return 0
    sleep 0.05
  done
  echo "ci: serve daemon never created its socket" >&2
  cat "$SERVE_LOG" >&2
  exit 1
}

# Waits for the daemon to exit 0 and checks the drain summary + socket
# cleanup. $1 names the gate for diagnostics.
serve_reap() {
  local status=0
  wait "$SERVE_PID" || status=$?
  if [[ "$status" != 0 ]]; then
    echo "ci: serve daemon exited $status instead of draining cleanly ($1)" >&2
    cat "$SERVE_LOG" >&2
    exit 1
  fi
  grep -q "drained cleanly" "$SERVE_LOG" || {
    echo "ci: serve daemon summary lacks the drain line ($1)" >&2
    cat "$SERVE_LOG" >&2
    exit 1
  }
  # Both gates disconnect clients mid-flight, so the daemon summary must
  # report the withdrawn requests.
  grep -q "withdrawn at disconnect" "$SERVE_LOG" || {
    echo "ci: serve daemon summary lacks the withdrawal count ($1)" >&2
    cat "$SERVE_LOG" >&2
    exit 1
  }
  if [[ -e "$SERVE_SOCK" ]]; then
    echo "ci: serve daemon left its socket file behind ($1)" >&2
    exit 1
  fi
  rm -f "$SERVE_LOG"
}

echo "==> zeroconf serve smoke test (unix socket, mid-flight disconnect, SIGTERM drain)"
# A victim connection pipelines expensive work and vanishes mid-flight
# (its requests must be withdrawn, nobody else's); a survivor pipelines a
# sweep, a rescore, a frontier and an inline calibration across a SIGTERM,
# and every one of them must be answered before the daemon exits 0.
SERVE_SOCK="$PWD/target/ci-serve.sock"
SERVE_LOG="$PWD/target/ci-serve.log"
serve_spawn
./target/release/zeroconf-client smoke --unix "$SERVE_SOCK" --pid "$SERVE_PID"
serve_reap "smoke"

echo "==> zeroconf serve flood gate (64 pipelined clients, mid-flight disconnects, SIGTERM drain)"
# The reactor scale gate: 64 concurrent clients pipeline 8 sweeps each on
# one event-loop thread, every eighth disconnecting with work in flight;
# a straggler must still be answered across the SIGTERM drain. Connections
# and sweeps own no threads: the daemon runs main, one reactor and up to
# --inflight executors (at most 6 here), so its peak thread count while
# the clients run must stay within --inflight + 4.
serve_spawn
FLOOD_OUT="$(./target/release/zeroconf-client flood --unix "$SERVE_SOCK" --pid "$SERVE_PID" \
  --clients 64 --requests 8)"
echo "$FLOOD_OUT"
serve_reap "flood"
FLOOD_THREADS="$(sed -n 's/.*daemon threads peaked at \([0-9][0-9]*\).*/\1/p' <<<"$FLOOD_OUT")"
FLOOD_THREAD_BOUND=$((SERVE_INFLIGHT + 4))
if [[ -z "$FLOOD_THREADS" ]] || (( FLOOD_THREADS > FLOOD_THREAD_BOUND )); then
  echo "ci: serve daemon peaked at ${FLOOD_THREADS:-?} threads under the flood," \
    "over --inflight + 4 = $FLOOD_THREAD_BOUND" >&2
  exit 1
fi

echo "ci: all gates passed"
