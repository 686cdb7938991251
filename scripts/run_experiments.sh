#!/usr/bin/env bash
# Regenerates the repo's benchmark artifacts (BENCH_*.json at the workspace
# root, or in DANCE_BENCH_DIR when set) and smoke-tests the deliverable
# pipeline end to end.
#
#   scripts/run_experiments.sh [smoke|full]
#
# smoke (default): the tiny end-to-end pipeline (BENCH_smoke.json), the
#   same pipeline with telemetry off, the guard and campaign drills (a run
#   SIGKILLed after its first checkpoint must resume to the uninterrupted
#   run's digest), the frozen-plan deliverable drill (search → --emit-plan
#   → dance_plan, plan output must match the tape forward bit-for-bit), the
#   tape-vs-plan latency bench (BENCH_plan.json) and a short serve load run
#   (BENCH_serve.json) that must end in a graceful drain.
# full: everything above plus the fleet chaos bench (BENCH_fleet.json) and
#   the paper tables/figure binaries (table1–table4, fig5), each logged to
#   results/<name>.log.
#
# scripts/check.sh is the CI gate (fmt, analysis, tests, the fleet chaos
# drill); run it first to catch breakage before the long binaries.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-smoke}"
case "${mode}" in smoke | full) ;; *)
  echo "usage: scripts/run_experiments.sh [smoke|full]" >&2
  exit 2
  ;;
esac

scratch="$(mktemp -d)"
serve_pid=""
cleanup() {
  [ -n "${serve_pid}" ] && kill "${serve_pid}" 2>/dev/null || true
  rm -rf "${scratch}"
}
trap cleanup EXIT

cargo build --release -q --workspace

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

echo "== smoke pipeline (BENCH_smoke.json) =="
cargo run --release -q -p dance-bench --bin smoke

echo "== smoke pipeline with telemetry off =="
mkdir -p "${scratch}/telemetry-off"
DANCE_TELEMETRY=off DANCE_BENCH_DIR="${scratch}/telemetry-off" ./target/release/smoke

echo "== guard drill: a search SIGKILLed mid-run resumes to the straight digest =="
search=(./target/release/dance_search --epochs 4 --seed 3)
"${search[@]}" --checkpoint-dir "${scratch}/search-straight" | grep "^arch-digest:" \
  >"${scratch}/guard.txt"
kill_at_first "${scratch}/search-drill/epoch-*.ckpt" \
  "${search[@]}" --checkpoint-dir "${scratch}/search-drill"
"${search[@]}" --checkpoint-dir "${scratch}/search-drill" --resume "${scratch}/search-drill" |
  grep "^arch-digest:" >>"${scratch}/guard.txt"
same_digest "${scratch}/guard.txt"

echo "== campaign drill: a campaign SIGKILLed mid-run resumes to the straight digest =="
campaign=(./target/release/dance_campaign --lambda2 0.1,0.4 --seeds 0 --envelopes edge
  --epochs 3 --batch 16)
"${campaign[@]}" --dir "${scratch}/campaign-straight" | grep "^frontier-digest:" \
  >"${scratch}/campaign.txt"
kill_at_first "${scratch}/campaign-drill/cells/cell-*/epoch-*.ckpt" \
  "${campaign[@]}" --dir "${scratch}/campaign-drill"
"${campaign[@]}" --dir "${scratch}/campaign-drill" --resume | grep "^frontier-digest:" \
  >>"${scratch}/campaign.txt"
same_digest "${scratch}/campaign.txt"

echo "== frozen-plan drill: plan output must match the tape bit-for-bit =="
./target/release/dance_search --epochs 1 --seed 5 \
  --emit-plan "${scratch}/plan" | tail -2 | tee "${scratch}/search.txt"
tape_digest="$(awk '/^tape-digest:/{print $2}' "${scratch}/search.txt")"
in_width="$(./target/release/dance_plan --plan "${scratch}/plan/plan.dplan" --info |
  sed 's/.*input-width //')"
probe() { awk -v n="$1" 'BEGIN{for(i=0;i<n;i++)printf "0.5 ";print ""}'; }
plan_digest="$(probe "${in_width}" |
  ./target/release/dance_plan --plan "${scratch}/plan/plan.dplan" --digest |
  awk '{print $2}')"
batch1_digest="$(probe "${in_width}" |
  ./target/release/dance_plan --plan "${scratch}/plan/plan.dplan" --digest --batch 1 |
  awk '{print $2}')"
if [ -z "${tape_digest}" ] || [ "${tape_digest}" != "${plan_digest}" ] ||
  [ "${tape_digest}" != "${batch1_digest}" ]; then
  echo "frozen plan diverged from the tape forward:" >&2
  echo "  tape ${tape_digest} plan ${plan_digest} batch-1 ${batch1_digest}" >&2
  exit 1
fi
echo "plan == tape (${tape_digest}), batch-elastic"

echo "== tape-vs-plan latency (BENCH_plan.json) =="
cargo run --release -q -p dance-bench --bin plan_bench

echo "== serve load (BENCH_serve.json) and graceful drain =="
serve_addr="127.0.0.1:7431"
mkdir -p "${scratch}/serve-run"
DANCE_RUN_DIR="${scratch}/serve-run" ./target/release/dance_serve --addr "${serve_addr}" --workers 4 &
serve_pid=$!
for _ in $(seq 1 50); do
  if ./target/release/serve_load --addr "${serve_addr}" --requests 1 --clients 1 \
    >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
./target/release/serve_load --addr "${serve_addr}" --requests 3000 --clients 4 --shutdown
wait "${serve_pid}" || { echo "dance_serve exited non-zero" >&2; exit 1; }
serve_pid=""
# A torn run log (no run_end record) means the drain was not graceful.
if ! grep -q '"t":"run_end"' "${scratch}"/serve-run/serve-*.jsonl; then
  echo "dance_serve run log lacks run_end: the drain was not graceful" >&2
  exit 1
fi
echo "serve drained cleanly"

if [ "${mode}" = "full" ]; then
  echo "== fleet chaos bench (BENCH_fleet.json) =="
  ./target/release/fleet_bench
  for table in table1 table2 table3 table4 fig5; do
    echo "== ${table} =="
    args=()
    [ "${table}" = fig5 ] && args=(--no-warmup)
    ./target/release/"${table}" "${args[@]}" | tee "results/${table}.log"
  done
fi

echo "All experiments completed."
