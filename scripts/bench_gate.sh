#!/usr/bin/env bash
# Hot-path regression gate: run bench/hotpath_alloc and compare its
# BENCH_hotpath.json against the committed baseline.
#
# Two kinds of checks, with different strictness:
#   * throughput (events of the step()-driven and of the windowed kernel
#     phase, packets, socket-layer messages): each rate is the median of
#     the phase's 5 timed windows, so one preempted window does not move
#     it, and is scaled by the wall time of the bench's fixed reference
#     loop (*_per_reference = units done in one reference loop's time), so
#     a box that slows down as a whole does not move it either.
#     A run fails when it falls more than THRESHOLD_PCT below baseline
#     (default 20%; CI runners with different silicon can widen it via
#     P2PLAB_BENCH_GATE_THRESHOLD_PCT). The baseline is the median of the
#     recording box's runs, rounded down to two significant digits.
#   * allocation discipline (allocs/event, allocs/message, InlineCallback
#     heap fallbacks): machine-independent, checked against absolute
#     bounds — this is the part that catches "someone grew a closure past
#     the inline budget" regardless of how fast the runner is.
#
# usage: scripts/bench_gate.sh <path-to-hotpath_alloc> [baseline-json]
#        scripts/bench_gate.sh --scaling <bench-json>...
# env:   P2PLAB_BENCH_GATE_THRESHOLD_PCT  throughput slack  (default 20)
#        P2PLAB_BENCH_GATE_MAX_ALLOCS     max allocs/event and allocs/message
#                                         (default 0.01)
#        P2PLAB_BENCH_GATE_MAX_FALLBACKS  max heap fallbacks (default 0)
#        P2PLAB_RESULTS_DIR               where BENCH_hotpath.json lands
#                                         (default: a temp dir)
#
# --scaling mode: validate BENCH_*.json files as parallel-scaling
# datapoints. A shards>1 run with degraded_parallelism set (fewer online
# cores than shards — the workers time-sliced one core) is REFUSED with
# exit 2: its wall-clock says nothing about scaling, and plotting it as if
# it did is how wrong speedup graphs get published.
#
# When the file set contains a shards=1 run, the shards>1 runs are also
# held to a parallel-efficiency floor: events/s at K shards must reach at
# least  min_parallel_efficiency * K * (shards=1 events/s), with the
# efficiency read from bench/BASELINE_scaling.json (0.5 there means
# "shards=4 must be >= 2.0x shards=1"). The floor only applies to runs
# with cores >= shards — a single-core dev box never produces such a json
# in the first place (the degraded refusal above fires instead), so this
# check cannot trip where scaling is physically impossible.
set -euo pipefail

if [ "${1:-}" = "--scaling" ]; then
  shift
  [ "$#" -ge 1 ] || { echo "usage: bench_gate.sh --scaling <bench-json>..."; exit 2; }
  field() {
    awk -v key="\"$2\":" 'BEGIN { RS="," } $0 ~ key { gsub(/[^0-9.eE+-]/, "", $NF); print $NF }' "$1"
  }
  SCALING_BASELINE="${P2PLAB_BENCH_GATE_SCALING_BASELINE:-$(dirname "$0")/../bench/BASELINE_scaling.json}"
  MIN_EFF=""
  if [ -s "$SCALING_BASELINE" ]; then
    MIN_EFF=$(field "$SCALING_BASELINE" min_parallel_efficiency)
  fi
  base_eps=""
  scaled_jsons=()
  for json in "$@"; do
    [ -s "$json" ] || { echo "REFUSED: $json missing or empty"; exit 2; }
    # A scaling datapoint must carry the standard schema; a file without
    # these fields is some other JSON and must not pass silently.
    for key in shards cores degraded_parallelism events_per_second; do
      if [ -z "$(field "$json" "$key")" ]; then
        echo "REFUSED: $json has no \"$key\" field — not a standard" \
             "BENCH json (see core/bench_report); regenerate it"
        exit 2
      fi
    done
    shards=$(field "$json" shards)
    degraded=$(field "$json" degraded_parallelism)
    if [ "${shards%%.*}" -gt 1 ] && [ "${degraded%%.*}" -eq 1 ] 2>/dev/null; then
      echo "REFUSED: $json ran shards=$shards with degraded_parallelism=1" \
           "(cores=$(field "$json" cores)) — not a scaling datapoint;" \
           "rerun on a machine with >= $shards online cores"
      exit 2
    fi
    echo "ok:   $json (shards=$shards, cores=$(field "$json" cores)) is a valid scaling datapoint"
    if [ "${shards%%.*}" -le 1 ]; then
      base_eps=$(field "$json" events_per_second)
    else
      scaled_jsons+=("$json")
    fi
  done
  status=0
  if [ -z "$MIN_EFF" ]; then
    echo "note: no min_parallel_efficiency in $SCALING_BASELINE — skipping efficiency floor"
  elif [ -z "$base_eps" ]; then
    echo "note: no shards=1 json among the arguments — skipping efficiency floor"
  else
    for json in ${scaled_jsons[@]+"${scaled_jsons[@]}"}; do
      shards=$(field "$json" shards)
      cores=$(field "$json" cores)
      eps=$(field "$json" events_per_second)
      if [ "${cores%%.*}" -lt "${shards%%.*}" ]; then
        echo "note: $json has cores=$cores < shards=$shards — efficiency floor not applied"
        continue
      fi
      floor=$(awk -v b="$base_eps" -v k="${shards%%.*}" -v e="$MIN_EFF" \
              'BEGIN { printf "%.0f", b * k * e }')
      if awk -v n="$eps" -v f="$floor" 'BEGIN { exit !(n < f) }'; then
        echo "FAIL: $json events_per_second=$eps below floor $floor" \
             "(shards=$shards x efficiency $MIN_EFF x shards=1 baseline $base_eps)"
        status=1
      else
        echo "ok:   $json events_per_second=$eps meets floor $floor" \
             "(shards=$shards x efficiency $MIN_EFF x shards=1 baseline $base_eps)"
      fi
    done
  fi
  exit $status
fi

BENCH="${1:?usage: bench_gate.sh <path-to-hotpath_alloc> [baseline-json]}"
BASELINE="${2:-$(dirname "$0")/../bench/BASELINE_hotpath.json}"
THRESHOLD_PCT="${P2PLAB_BENCH_GATE_THRESHOLD_PCT:-20}"
MAX_ALLOCS="${P2PLAB_BENCH_GATE_MAX_ALLOCS:-0.01}"
MAX_FALLBACKS="${P2PLAB_BENCH_GATE_MAX_FALLBACKS:-0}"
RESULTS_DIR="${P2PLAB_RESULTS_DIR:-$(mktemp -d)}"

[ -f "$BASELINE" ] || { echo "FAIL: baseline '$BASELINE' not found"; exit 1; }

echo "=== bench gate: $BENCH (threshold ${THRESHOLD_PCT}%) ==="
P2PLAB_RESULTS_DIR="$RESULTS_DIR" "$BENCH"
RESULT="$RESULTS_DIR/BENCH_hotpath.json"
[ -s "$RESULT" ] || { echo "FAIL: $RESULT was not written"; exit 1; }

# The JSON is flat ("key": number pairs), so awk is all the parsing needed.
field() {
  awk -v key="\"$2\":" 'BEGIN { RS="," } $0 ~ key { gsub(/[^0-9.eE+-]/, "", $NF); print $NF }' "$1"
}

status=0
check_throughput() {  # name
  local now base floor
  now=$(field "$RESULT" "$1")
  base=$(field "$BASELINE" "$1")
  floor=$(awk -v b="$base" -v t="$THRESHOLD_PCT" 'BEGIN { printf "%.0f", b * (100 - t) / 100 }')
  if awk -v n="$now" -v f="$floor" 'BEGIN { exit !(n < f) }'; then
    echo "FAIL: $1 = $now, below floor $floor (baseline $base - ${THRESHOLD_PCT}%)"
    status=1
  else
    echo "ok:   $1 = $now (baseline $base, floor $floor)"
  fi
}
check_max() {  # name bound
  local now
  now=$(field "$RESULT" "$1")
  if awk -v n="$now" -v m="$2" 'BEGIN { exit !(n > m) }'; then
    echo "FAIL: $1 = $now, above bound $2"
    status=1
  else
    echo "ok:   $1 = $now (bound $2)"
  fi
}

check_throughput events_per_reference
check_throughput windowed_events_per_reference
check_throughput packets_per_reference
check_throughput messages_per_reference
check_max event_allocs_per_event "$MAX_ALLOCS"
check_max windowed_allocs_per_event "$MAX_ALLOCS"
check_max packet_allocs_per_event "$MAX_ALLOCS"
check_max message_allocs_per_message "$MAX_ALLOCS"
check_max callback_heap_fallbacks "$MAX_FALLBACKS"

exit $status
