#!/usr/bin/env bash
# The repo's CI gate: formatting, both static-analysis passes, and the test
# suite. Everything must pass; any failure exits non-zero immediately.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

# Every intra-doc link must resolve. `--lib` because the root package's
# dance_serve, dance_plan, dance_fleet and dance_campaign binaries share
# their names with library crates, and their docs would collide.
echo "== cargo doc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --lib -q

echo "== dance-analyze --all =="
cargo run --release -q -p dance-analyze -- --all

echo "== dance-analyze --source crates/telemetry =="
cargo run --release -q -p dance-analyze -- --source crates/telemetry

echo "== dance-analyze --source crates/serve =="
cargo run --release -q -p dance-analyze -- --source crates/serve

echo "== dance-analyze --source crates/fleet =="
cargo run --release -q -p dance-analyze -- --source crates/fleet

# Source-lint fixtures are must-fail for the same reason the concurrency
# ones are: a seeded violation that stops tripping means the rule is blind.
for fixture in retry_backoff hot_alloc arena_escape; do
  echo "== dance-analyze --source fixture: ${fixture} (must fail) =="
  if cargo run --release -q -p dance-analyze -- --source \
    "crates/analyze/fixtures/source/${fixture}"; then
    echo "fixture ${fixture} no longer trips the analyzer" >&2
    exit 1
  fi
done

# Concurrency pass: the workspace must be free of lock-order cycles, guards
# held across blocking boundaries, and nondeterminism hazards…
echo "== dance-analyze --concurrency =="
cargo run --release -q -p dance-analyze -- --concurrency

# …while each seeded fixture must keep tripping its rule (a fixture that
# stops failing means the analyzer went blind, not that the code got better).
for fixture in lock_cycle lock_across_dispatch determinism; do
  echo "== dance-analyze --concurrency fixture: ${fixture} (must fail) =="
  if cargo run --release -q -p dance-analyze -- --concurrency \
    "crates/analyze/fixtures/concurrency/${fixture}"; then
    echo "fixture ${fixture} no longer trips the analyzer" >&2
    exit 1
  fi
done

# The parallel backend must be bit-identical at any thread count, so the
# suite runs twice: pinned to one worker (the scalar reference path) and to
# eight (chunked kernels + pool dispatch). The build is shared; only test
# execution repeats.
echo "== cargo test (DANCE_THREADS=1) =="
DANCE_THREADS=1 cargo test -q --workspace --release

echo "== cargo test (DANCE_THREADS=8) =="
DANCE_THREADS=8 cargo test -q --workspace --release

# `cargo test` builds no bench targets, and EXPERIMENTS.md quotes the
# criterion benches, so build them here: a bench that stops compiling fails
# the gate instead of the next `cargo bench`.
echo "== cargo bench --no-run (dance-bench) =="
cargo bench --offline --no-run -q -p dance-bench

echo "== telemetry integration test =="
cargo test -q --release --test telemetry_run

echo "== serve integration tests =="
cargo test -q --release --test serve_service
cargo test -q --release -p dance-serve --test proto_roundtrip

echo "== campaign suite =="
cargo test -q --release -p dance-campaign
cargo test -q --release --test campaign_run
cargo test -q --release --test campaign_resume

# Frozen plans: the plan-vs-tape proptests run at both thread counts as part
# of the workspace suite above; this pins the artifact-integrity sweep and
# the crate's own tests explicitly.
echo "== plan suite =="
cargo test -q --release -p dance-plan
cargo test -q --release --test torn_plan

# The recovery and child-process drills run four at a time, twice a
# 2-vCPU host's cores: the load under which a drill on wall-clock leases
# once flaked. Their stall and slow-peer drills run on a manual clock, so
# the load may slow them but must not change a count.
echo "== fleet suite =="
cargo test -q --release -p dance-fleet
cargo test -q --release --test fleet_recovery -- --test-threads 4
cargo test -q --release --test fleet_process -- --test-threads 4
cargo test -q --release --test torn_checkpoint

# Process-level chaos drill: run the same job set straight and with one
# worker SIGKILLed mid-run; the per-job arch-digest lines must be identical,
# and the straight run's must equal the pinned ones: a change to what the
# worker child runs (a spec field lost on its way through `--spec`, say)
# moves both runs alike, so only the pin sees it. Eight epochs keep the
# drill running well past its 300 ms kill, and its summary line must show
# the kill and a reclaim: a drill that finished before the kill would only
# compare two clean runs.
echo "== fleet chaos drill (kill-one-worker, digests must match) =="
cargo build --release -q --bin dance_fleet
drill_dir="$(mktemp -d)"
trap 'rm -rf "${drill_dir}"' EXIT
./target/release/dance_fleet --jobs 3 --epochs 8 --workers 2 \
  --dir "${drill_dir}/straight" | grep "arch-digest" | sort > "${drill_dir}/straight.txt"
./target/release/dance_fleet --jobs 3 --epochs 8 --workers 2 --lease-ttl-ms 2500 \
  --chaos-kill-ms 300 --dir "${drill_dir}/drill" > "${drill_dir}/drill.log"
grep "arch-digest" "${drill_dir}/drill.log" | sort > "${drill_dir}/drill.txt"
cat > "${drill_dir}/pinned.txt" <<'PINNED'
job fjob-831e85f1c6747f48 arch-digest: 09834c02788c2d5d
job fjob-837cc5f1c71d4f83 arch-digest: df86a2dab873fe70
job fjob-837ea9f1c71da2c6 arch-digest: 58ad2982c01e3f99
PINNED
if ! diff -u "${drill_dir}/pinned.txt" "${drill_dir}/straight.txt"; then
  echo "fleet chaos drill: the straight run's digests moved off the pinned ones" >&2
  exit 1
fi
if ! diff -u "${drill_dir}/straight.txt" "${drill_dir}/drill.txt"; then
  echo "fleet chaos drill diverged from the straight run" >&2
  exit 1
fi
cat "${drill_dir}/drill.txt"
if ! grep -Eq "[1-9][0-9]* reclaims, 1 kills," "${drill_dir}/drill.log"; then
  echo "fleet chaos drill did not kill a worker and reclaim its lease:" >&2
  grep "^fleet:" "${drill_dir}/drill.log" >&2 || true
  exit 1
fi
grep "^fleet:" "${drill_dir}/drill.log"

# SIGKILL resume drills: a guarded search and a campaign, each killed once
# its first checkpoint exists, must resume to the uninterrupted run's
# digest. Both digests are also pinned, since a change to what the search
# or a cell runs would move the straight and the resumed run alike; the
# guard drill's CIFAR search is the only pinned search on the CIFAR
# supernet.
cargo build --release -q --bin dance_search --bin dance_campaign

# Runs "$@" in the background and SIGKILLs it once a file matching the glob
# $1 (its first checkpoint) exists, so the kill lands mid-run on any host.
# Fails if the run ends before the kill.
kill_at_first() {
  local marker="$1"
  shift
  "$@" >/dev/null 2>&1 &
  local pid=$! status=0
  until compgen -G "${marker}" >/dev/null; do
    kill -0 "${pid}" 2>/dev/null || break
    sleep 0.01
  done
  kill -KILL "${pid}" 2>/dev/null || true
  wait "${pid}" || status=$?
  if [ "${status}" -ne 137 ]; then
    echo "run exited with ${status} before its kill: $*" >&2
    return 1
  fi
}

# Fails unless file $1 holds two digest lines, the straight run's and the
# resumed run's, and they agree.
same_digest() {
  if [ "$(wc -l <"$1")" -ne 2 ] || [ "$(sort -u "$1" | wc -l)" -ne 1 ]; then
    echo "resumed run diverged from the straight run:" >&2
    cat "$1" >&2
    return 1
  fi
  head -1 "$1"
}

echo "== guard drill: a search SIGKILLed mid-run resumes to the pinned digest =="
search=(./target/release/dance_search --epochs 4 --seed 3)
"${search[@]}" --checkpoint-dir "${drill_dir}/search-straight" | grep "^arch-digest:" \
  >"${drill_dir}/guard.txt"
kill_at_first "${drill_dir}/search-drill/epoch-*.ckpt" \
  "${search[@]}" --checkpoint-dir "${drill_dir}/search-drill"
"${search[@]}" --checkpoint-dir "${drill_dir}/search-drill" --resume |
  grep "^arch-digest:" >>"${drill_dir}/guard.txt"
same_digest "${drill_dir}/guard.txt"
if [ "$(head -1 "${drill_dir}/guard.txt")" != "arch-digest: 367671aa1b928139" ]; then
  echo "guard drill: the digest moved off the pinned 367671aa1b928139" >&2
  exit 1
fi

echo "== campaign drill: a campaign SIGKILLed mid-run resumes to the pinned digest =="
campaign=(./target/release/dance_campaign --lambda2 0.1,0.4 --seeds 0 --envelopes edge
  --epochs 3 --batch 16)
"${campaign[@]}" --dir "${drill_dir}/campaign-straight" | grep "^frontier-digest:" \
  >"${drill_dir}/campaign.txt"
kill_at_first "${drill_dir}/campaign-drill/ckpt/fjob-*/epoch-*.ckpt" \
  "${campaign[@]}" --dir "${drill_dir}/campaign-drill"
"${campaign[@]}" --dir "${drill_dir}/campaign-drill" --resume | grep "^frontier-digest:" \
  >>"${drill_dir}/campaign.txt"
same_digest "${drill_dir}/campaign.txt"
if [ "$(head -1 "${drill_dir}/campaign.txt")" != "frontier-digest: 48e6f2473f1a4d4e" ]; then
  echo "campaign drill: the digest moved off the pinned 48e6f2473f1a4d4e" >&2
  exit 1
fi

# Work gate: five single-thread smoke runs, each into a temp
# DANCE_BENCH_DIR so the committed BENCH_smoke.json is never rewritten.
# The machine-independent counters (tape nodes, arena fresh/reuse, the
# chosen ops), the set of span names and each span's count must equal the
# committed file exactly in every run, so telemetry that loses or
# double-counts a record fails here. Wall time is only reported, median
# and min-max beside the committed baseline: it depends on the host, and
# the noise-aware wall-time check is the benchmark's parent-vs-change
# comparison (BENCHMARK.json).
echo "== BENCH_smoke work gate (5 runs, counters and span counts must equal the committed file) =="
cargo build --release -q -p dance-bench --bin smoke
for i in 1 2 3 4 5; do
  mkdir -p "${drill_dir}/smoke${i}"
  DANCE_THREADS=1 DANCE_BENCH_DIR="${drill_dir}/smoke${i}" DANCE_RUN_DIR="${drill_dir}/smoke${i}" \
    ./target/release/smoke > "${drill_dir}/smoke${i}/log" 2>&1 \
    || { cat "${drill_dir}/smoke${i}/log" >&2; exit 1; }
done
python3 - BENCH_smoke.json "${drill_dir}"/smoke*/BENCH_smoke.json <<'PY'
import json, statistics, sys
committed = json.load(open(sys.argv[1]))
runs = [json.load(open(p)) for p in sys.argv[2:]]
exact = ("tape.nodes", "arena.fresh", "arena.reuse")
def gated(doc):
    return {k: v for k, v in doc["counters"].items() if k in exact or k.startswith("search.chosen.")}
def span_counts(doc):
    return {s["name"]: s["count"] for s in doc["spans"]}
def differ(want, got):
    return {k: (want.get(k), got.get(k)) for k in sorted(set(want) | set(got)) if want.get(k) != got.get(k)}
want = gated(committed)
want_spans = span_counts(committed)
missing = [k for k in exact if k not in want]
if missing or not any(k.startswith("search.chosen.") for k in want):
    sys.exit(f"BENCH_smoke.json lacks gated counters: {missing or 'search.chosen.*'}")
if not want_spans:
    sys.exit("BENCH_smoke.json lacks spans")
for i, run in enumerate(runs, 1):
    diff = differ(want, gated(run))
    if diff:
        sys.exit(f"smoke run {i}: counters differ from BENCH_smoke.json (committed, fresh): {diff}")
    diff = differ(want_spans, span_counts(run))
    if diff:
        sys.exit(f"smoke run {i}: span counts differ from BENCH_smoke.json (committed, fresh): {diff}")
walls = sorted(r["total_wall_s"] for r in runs)
print(f"smoke counters and span counts equal BENCH_smoke.json in all {len(runs)} runs")
print(f"smoke total_wall_s: median={statistics.median(walls):.3f}s "
      f"min-max={walls[0]:.3f}-{walls[-1]:.3f}s committed={committed['total_wall_s']:.3f}s (not gated)")
PY

# Optional Miri pass over the storage/arena unit tests: the arena hands out
# recycled buffers as "uninit", so an aliasing or stale-read bug would be
# exactly the kind of thing Miri catches. Needs a nightly toolchain with
# the miri component, so it is opt-in via DANCE_MIRI=1 and degrades to a
# skip message when miri (or rustup) is unavailable.
if [ "${DANCE_MIRI:-0}" = "1" ]; then
  echo "== Miri storage/arena pass (DANCE_MIRI=1) =="
  if command -v rustup >/dev/null 2>&1 \
    && rustup component list --toolchain nightly 2>/dev/null | grep -q "miri.*(installed)"; then
    cargo +nightly miri test -q -p dance-backend storage
  else
    echo "no nightly miri component installed; skipping Miri pass."
  fi
else
  echo "== Miri storage/arena pass: skipped (set DANCE_MIRI=1 to enable) =="
fi

# Optional ThreadSanitizer pass over the concurrency-heavy crates. TSan
# needs a nightly toolchain (-Zsanitizer + build-std), so the block is
# opt-in via DANCE_TSAN=1 and degrades to a skip message when no nightly
# toolchain (or rustup itself) is available.
if [ "${DANCE_TSAN:-0}" = "1" ]; then
  echo "== ThreadSanitizer (DANCE_TSAN=1) =="
  if command -v rustup >/dev/null 2>&1 \
    && rustup toolchain list 2>/dev/null | grep -q nightly; then
    host="$(rustc -vV | sed -n 's/^host: //p')"
    RUSTFLAGS="-Zsanitizer=thread" \
      cargo +nightly test -q -Zbuild-std --target "${host}" \
      -p dance-backend -p dance-serve
  else
    echo "no nightly toolchain installed; skipping TSan pass."
  fi
else
  echo "== ThreadSanitizer: skipped (set DANCE_TSAN=1 to enable) =="
fi

echo "All checks passed."
