#!/usr/bin/env bash
# Smoke-run every shipped scenario through p2plab_run on one and on two
# engine shards. A run fails the matrix if it exits nonzero or if any
# output it declares (per --print-outputs, which honors the same --set
# overrides; the health timeline `metrics` included) is missing or empty.
# The runner writes the timeline for every workload: gossip.scn, a
# non-swarm run, must leave one with at least one data row.
# Client counts are overridden downward so the whole matrix stays within
# a CI minute; the code paths exercised are the full ones.
#
# usage: scripts/scn_smoke.sh <path-to-p2plab_run> [scenarios-dir]
set -euo pipefail

RUN="${1:?usage: scn_smoke.sh <path-to-p2plab_run> [scenarios-dir]}"
SCN_DIR="${2:-scenarios}"

shopt -s nullglob
scn_files=("$SCN_DIR"/*.scn)
if [ "${#scn_files[@]}" -eq 0 ]; then
  echo "FAIL: no .scn files in '$SCN_DIR'"
  exit 1
fi

overrides_for() {
  case "$1" in
    fig6) echo "" ;;  # the rule sweep is already CI-sized
    accuracy) echo "" ;;  # validate workload has no clients key; CI-sized as shipped
    gossip) echo "" ;;  # membership run is already tiny; no clients key either
    fig8) echo "--set workload.clients=16" ;;
    fig10) echo "--set workload.clients=64" ;;
    fig10_5760) echo "--set workload.clients=64" ;;  # full scale is hours
    churn) echo "--set workload.clients=24" ;;
    flashcrowd) echo "--set workload.clients=32" ;;
    *) echo "--set workload.clients=16" ;;
  esac
}

# Every run writes into its own directory under one parent, removed on exit.
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

status=0
for scn in "${scn_files[@]}"; do
  base=$(basename "$scn" .scn)
  read -ra extra <<< "$(overrides_for "$base")"
  for shards in 1 2; do
    out="$work/$base-k$shards"
    mkdir "$out"
    echo "=== $base shards=$shards ==="
    if ! P2PLAB_RESULTS_DIR="$out" \
        "$RUN" "$scn" --set engine.shards="$shards" ${extra[@]+"${extra[@]}"} \
        > "$out/stdout.log" 2>&1; then
      echo "FAIL: $base shards=$shards exited nonzero"
      tail -20 "$out/stdout.log"
      status=1
      continue
    fi
    while IFS= read -r f; do
      if [ ! -s "$out/$f" ]; then
        echo "FAIL: $base shards=$shards did not write declared output $f"
        status=1
      fi
    done < <("$RUN" "$scn" --set engine.shards="$shards" \
             ${extra[@]+"${extra[@]}"} --print-outputs)
    if [ "$base" = gossip ] &&
        ! tail -n +2 "$out/gossip_metrics.csv" 2>/dev/null | grep -q .; then
      echo "FAIL: gossip shards=$shards wrote no timeline rows"
      status=1
    fi
  done
done

# One profiled pass: the profiler must run, declare and write its Perfetto
# timeline (profile.json) alongside the scenario's usual outputs. The flag
# comes from the CLI so the shipped .scn files stay untouched.
prof_scn="$SCN_DIR/fig8.scn"
if [ -f "$prof_scn" ]; then
  out="$work/fig8-profile"
  mkdir "$out"
  echo "=== fig8 shards=2 --profile ==="
  if ! P2PLAB_RESULTS_DIR="$out" \
      "$RUN" "$prof_scn" --profile --set engine.shards=2 \
      --set workload.clients=16 > "$out/stdout.log" 2>&1; then
    echo "FAIL: profiled fig8 run exited nonzero"
    tail -20 "$out/stdout.log"
    status=1
  else
    while IFS= read -r f; do
      if [ ! -s "$out/$f" ]; then
        echo "FAIL: profiled fig8 did not write declared output $f"
        status=1
      fi
    done < <("$RUN" "$prof_scn" --profile --set engine.shards=2 \
             --set workload.clients=16 --print-outputs)
    if ! "$RUN" "$prof_scn" --profile --set engine.shards=2 \
        --set workload.clients=16 --print-outputs | grep -q '^profile\.json$'; then
      echo "FAIL: --print-outputs with --profile does not list profile.json"
      status=1
    fi
  fi
fi
exit $status
