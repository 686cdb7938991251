#!/usr/bin/env bash
# Regenerates the repo's benchmark artifacts (BENCH_*.json at the workspace
# root, or in DANCE_BENCH_DIR when set) and smoke-tests the deliverable
# pipeline end to end.
#
#   scripts/run_experiments.sh [smoke|full]
#
# smoke (default): the tiny end-to-end pipeline (BENCH_smoke.json), the
#   same pipeline with telemetry off, the frozen-plan deliverable drill
#   (search → --emit-plan → dance_plan, plan output must match the tape
#   forward bit-for-bit), the tape-vs-plan latency bench (BENCH_plan.json)
#   and a short serve load run (BENCH_serve.json) that must end in a
#   graceful drain.
# full: everything above plus the fleet chaos bench (BENCH_fleet.json) and
#   the paper tables/figure binaries (table1–table4, fig5), each logged to
#   results/<name>.log.
#
# scripts/check.sh is the CI gate (fmt, analysis, tests, the fleet chaos
# drill, and the guard and campaign SIGKILL resume drills); run it first to
# catch breakage before the long binaries.
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

echo "== smoke pipeline (BENCH_smoke.json) =="
cargo run --release -q -p dance-bench --bin smoke

echo "== smoke pipeline with telemetry off =="
mkdir -p "${scratch}/telemetry-off"
DANCE_TELEMETRY=off DANCE_BENCH_DIR="${scratch}/telemetry-off" ./target/release/smoke

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
