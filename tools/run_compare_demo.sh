#!/usr/bin/env bash
# End-to-end regression-gate demo against the real nodebench binary:
# record two results stores, diff them with `nodebench compare`, and
# prove the `gate` exit-code contract plus the determinism guarantees.
#
#   tools/run_compare_demo.sh [build-dir] [table] [runs]
#     build-dir  configured build tree containing the nodebench binary
#                (default: build)
#     table      table selector passed to `nodebench table` (default: 5,
#                which exercises both latency and bandwidth cells)
#     runs       --runs per cell (default: 8; enough samples for the
#                significance tests to resolve a 20% shift)
#
# Asserted properties:
#  - gate(base, base) exits 0: identical samples are never a regression;
#  - gate(base, degraded) exits exactly 3 (kGateRegressionExitCode): a
#    fault-plan-degraded candidate trips the gate, and `compare` names the
#    regressed cells;
#  - compare output and gate output are each byte-identical at --jobs 1
#    and --jobs 8;
#  - a store recorded at --jobs 8 is semantically identical to one
#    recorded at --jobs 1 (gate between them passes with zero flagged
#    cells), even though the append order on disk may differ.
set -euo pipefail

build_dir="${1:-build}"
table="${2:-5}"
runs="${3:-8}"

nodebench="${build_dir}/src/cli/nodebench"
if [[ ! -x "${nodebench}" ]]; then
  echo "error: '${nodebench}' not found; build the tree first" >&2
  echo "hint: cmake -B ${build_dir} && cmake --build ${build_dir} -j" >&2
  exit 2
fi

plan="$(dirname "$0")/../examples/regression_demo_plan.json"
if [[ ! -f "${plan}" ]]; then
  echo "error: demo fault plan '${plan}' not found" >&2
  exit 2
fi

workdir="$(mktemp -d "${TMPDIR:-/tmp}/nodebench_compare_demo.XXXXXX")"
trap 'rm -rf "${workdir}"' EXIT

echo "== record baseline store (table ${table}, --runs ${runs}) =="
"${nodebench}" table "${table}" --runs "${runs}" --jobs 1 \
  --store "${workdir}/base.store" > /dev/null

echo "== gate(base, base) must PASS with exit 0 =="
"${nodebench}" gate "${workdir}/base.store" "${workdir}/base.store"

echo
echo "== record degraded candidate under the demo fault plan =="
"${nodebench}" table "${table}" --runs "${runs}" --jobs 1 \
  --faults "${plan}" --store "${workdir}/degraded.store" > /dev/null

echo "== gate(base, degraded) must FAIL with exit 3 =="
# 3 is stats::kGateRegressionExitCode; 1 would be an error, not a verdict.
rc=0
"${nodebench}" gate "${workdir}/base.store" "${workdir}/degraded.store" \
  || rc=$?
if (( rc != 3 )); then
  echo "error: gate exited ${rc} on a fault-degraded candidate (want 3)" >&2
  exit 1
fi
echo "   gate exited ${rc} on the degraded candidate (as required)"

echo
echo "== compare output must be byte-identical at --jobs 1 and 8 =="
"${nodebench}" compare "${workdir}/base.store" "${workdir}/degraded.store" \
  --jobs 1 > "${workdir}/compare_j1.txt"
"${nodebench}" compare "${workdir}/base.store" "${workdir}/degraded.store" \
  --jobs 8 > "${workdir}/compare_j8.txt"
if ! cmp -s "${workdir}/compare_j1.txt" "${workdir}/compare_j8.txt"; then
  echo "error: compare output depends on --jobs" >&2
  diff "${workdir}/compare_j1.txt" "${workdir}/compare_j8.txt" | head -20 >&2
  exit 1
fi
if ! grep -q "REGRESSION" "${workdir}/compare_j1.txt"; then
  echo "error: compare table names no REGRESSION cells" >&2
  head -30 "${workdir}/compare_j1.txt" >&2
  exit 1
fi
echo "   compare tables are byte-identical and name the regressions"

echo
echo "== gate output must be byte-identical at --jobs 1 and 8 =="
for jobs in 1 8; do
  rc=0
  "${nodebench}" gate "${workdir}/base.store" "${workdir}/degraded.store" \
    --jobs "${jobs}" > "${workdir}/gate_j${jobs}.txt" || rc=$?
  if (( rc != 3 )); then
    echo "error: gate --jobs ${jobs} exited ${rc} (want 3)" >&2
    exit 1
  fi
done
if ! cmp -s "${workdir}/gate_j1.txt" "${workdir}/gate_j8.txt"; then
  echo "error: gate output depends on --jobs" >&2
  diff "${workdir}/gate_j1.txt" "${workdir}/gate_j8.txt" | head -20 >&2
  exit 1
fi
echo "   gate output is byte-identical and exits 3 at both worker counts"

echo
echo "== a store recorded at --jobs 8 must be semantically identical =="
# The on-disk record order is append-on-completion and may differ across
# worker counts; compare/gate key by (machine, cell, quantity), so the
# gate between the two recordings must pass with nothing flagged.
"${nodebench}" table "${table}" --runs "${runs}" --jobs 8 \
  --store "${workdir}/base_j8.store" > /dev/null
"${nodebench}" gate "${workdir}/base.store" "${workdir}/base_j8.store"

echo
echo "compare demo passed"
