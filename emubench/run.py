#!/usr/bin/env python3
"""The P2PLab emulator benchmark.

    python3 emubench/run.py --workload swarm|swarm-k2|gossip --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the harness
(emubench/CMakeLists.txt) into $CARGO_TARGET_DIR, or .bench_build when that
is unset. Each run generates the workload's scenario from --seed, hands only
that .scn file to the harness, checks every iteration's simulated outputs,
and prints a summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (host time and memory a
user of the emulator pays); with --trace 1 they are the per-layer ones of a
traced run. Host times are in reference seconds, which cancel the shared
box's drift in speed (REFERENCE_NOMINAL_S below). README.md in this
directory names every metric.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Workload -> (scenario kind, engine shards). swarm and swarm-k2 get the
# identical scenario for one seed; only the shard count differs.
WORKLOADS = {
    "swarm": ("swarm", 1),
    "swarm-k2": ("swarm", 2),
    "gossip": ("gossip", 1),
}

SWARM_CLIENTS = 64
SWARM_FILE = "1M"
GOSSIP_MEMBERS = 128
GOSSIP_RUN_S = 7200

# Host times are reported in reference seconds: host seconds scaled by
# REFERENCE_NOMINAL_S over how long the fixed reference kernel
# (reference.hpp) took on the workers' CPUs around the run's iterations. A
# reference second is a host second on a host that runs the kernel in
# exactly REFERENCE_NOMINAL_S, so the shared box's drift in speed cancels.
REFERENCE_NOMINAL_S = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# The eight layers whose host-time share the traced run reports.
LAYERS = ["sim", "engine", "net", "ipfw", "sockets", "bt", "gossip",
          "scenario"]

PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "sim.cancel_ratio": "ratio",
    "sim.self_share": "share",
    "engine.barrier_wait_share": "share",
    "engine.merge_share": "share",
    "engine.imbalance_ratio": "ratio",
    "engine.min_utilization_pct": "%",
    "engine.sys_s": "s",
    "engine.windows": "count",
    "engine.ring_dropped": "count",
    "engine.self_share": "share",
    "net.packets": "count",
    "net.bytes_per_packet": "B",
    "net.pool_misses": "count",
    "net.self_share": "share",
    "ipfw.rules_per_packet": "rules",
    "ipfw.pipe_drops": "count",
    "ipfw.self_share": "share",
    "sockets.msgs": "count",
    "sockets.connects": "count",
    "sockets.retransmit_ratio": "ratio",
    "sockets.self_share": "share",
    "bt.piece_completions": "count",
    "bt.choke_changes": "count",
    "bt.self_share": "share",
    "gossip.pings": "count",
    "gossip.indirect_ratio": "ratio",
    "gossip.self_share": "share",
    "scenario.parse_s": "s",
    "scenario.setup_s": "s",
    "scenario.self_share": "share",
    "other.self_share": "share",
    "mem.setup_mb": "MB",
    "mem.run_growth_mb": "MB",
    "mem.bytes_per_vnode": "B",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "share",
    "host.reference_s": "s",
    "host.unscaled_run_s": "s",
}


class Refused(Exception):
    """A run whose result must not be reported."""


def derive(seed, purpose):
    """A 63-bit value of the workload seed for one purpose."""
    digest = hashlib.sha256(f"emubench:{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def swarm_scenario(seed, shards, clients=SWARM_CLIENTS, file_size=SWARM_FILE):
    """The fig10-shaped swarm: fold 32, 4 seeders, clients 0.25 s apart."""
    return "\n".join([
        f"scenario swarm_{seed}",
        "[workload]",
        "type swarm",
        f"clients {clients}",
        "seeders 4",
        f"file_size {file_size}",
        "start_interval 250ms",
        f"content_seed {derive(seed, 'content')}",
        "max_duration 30000",
        "[engine]",
        f"shards {shards}",
        "pin on",
        "fold 32",
        f"seed {derive(seed, 'engine')}",
        "stop all_complete",
        "check_invariants on",
        "",
    ]), {}


def gossip_scenario(seed, members=GOSSIP_MEMBERS, run_s=GOSSIP_RUN_S):
    """SWIM membership with crashes spread over the run, half of them
    rejoining, and 20 s Gilbert-Elliott loss windows, four per simulated
    hour. The introducer (member 0) never fails."""
    churn = random.Random(derive(seed, "churn"))
    faults = []
    changes = []  # instants a member goes down or comes back
    victims = churn.sample(range(1, members), members // 4)
    for victim in victims:
        at = churn.uniform(60, run_s - 120)
        changes.append(at)
        if churn.random() < 0.5:
            rejoin = churn.uniform(40, 60)
            changes.append(at + rejoin)
            faults.append(f"crash node={victim} at={at:.3f} "
                          f"rejoin={rejoin:.3f}")
        else:
            faults.append(f"crash node={victim} at={at:.3f}")
    # Loss windows hit members that never crash, at least a minute away
    # from every crash and rejoin: a lossy member relaying or hearing the
    # news of a membership change is the one combination that yields false
    # confirms even with mild loss.
    steady = [m for m in range(1, members) if m not in victims]
    windows = 0
    draws = 0
    while windows < 4 * run_s // 3600:
        draws += 1
        if draws > 10000:
            raise Refused(f"no room for {4 * run_s // 3600} loss windows "
                          f"among {len(changes)} membership changes")
        at = churn.uniform(60, run_s - 120)
        if any(at - 60 < t < at + 80 for t in changes):
            continue
        faults.append(f"burstloss node={churn.choice(steady)} at={at:.3f} "
                      "for=20 pgb=0.05 pbg=0.3 lossbad=0.3")
        windows += 1
    return "\n".join([
        f"scenario gossip_{seed}",
        "[workload]",
        "type gossip",
        f"nodes {members}",
        "suspect_timeout 20",
        "[faults]",
        *faults,
        "[engine]",
        "shards 1",
        f"seed {derive(seed, 'engine')}",
        "stop time",
        f"run_for {run_s}",
        "check_invariants on",
        "[outputs]",
        "detection_csv detection",
        "fp_summary fp_summary",
        "",
    ]), {"crashes": len(victims)}


def scenario_for(workload, seed):
    kind, shards = WORKLOADS[workload]
    if kind == "swarm":
        return swarm_scenario(seed, shards)
    return gossip_scenario(seed)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"), "emubench")


def build():
    """Configure once, then (re)build the harness; returns its path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise Refused(f"no P2PLab sources under {ROOT}")
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, env=env)
    return os.path.join(out, "emubench_harness")


def run_harness(harness, name, scenario, seconds, trace):
    """Write the scenario, run the harness on it, return its records."""
    work = os.path.join(build_dir(), "work")
    results = os.path.join(work, "results")
    os.makedirs(results, exist_ok=True)
    scn = os.path.join(work, f"{name}.scn")
    with open(scn, "w") as f:
        f.write(scenario)
    records_path = os.path.join(work, f"{name}.jsonl")
    env = dict(os.environ, P2PLAB_RESULTS_DIR=results)
    # Past --seconds the harness finishes its last iteration, and with
    # --trace 1 up to three ring-sizing attempts. At 45 s this allows 165 s.
    with open(os.path.join(work, f"{name}.log"), "w") as log:
        proc = subprocess.run(
            [harness, scn, "--seconds", str(seconds), "--trace", str(trace),
             "--out", records_path],
            stdout=log, env=env, timeout=2 * seconds + 75)
    if proc.returncode != 0:
        raise Refused(f"harness exited with {proc.returncode}; "
                      f"see {log.name}")
    with open(records_path) as f:
        return [json.loads(line) for line in f]


def fingerprint(record):
    """The simulated statistics every run of one scenario must repeat."""
    keys = ["events", "completion_hash", "confirms", "false_confirms",
            "detection_hash"]
    return {k: record[k] for k in keys if k in record}


def check(workload, records, expected):
    """Invariant failures of the run, as messages (empty = correct)."""
    _, shards = WORKLOADS[workload]
    runs = [r for r in records if r["kind"] in ("iteration", "traced")]
    problems = []
    if not runs:
        problems.append("no iteration ran")
    for r in runs:
        if r["exit_code"] != 0:
            problems.append("an invariant check failed (see the log)")
        if r["pending_events"] != 0:
            problems.append("event queue not drained after halt")
        if r["shards"] != shards:
            problems.append(f"ran on {r['shards']} shards, not {shards}")
        if r["workload"] == "swarm" and r["completed"] != r["clients"]:
            problems.append(f"{r['clients'] - r['completed']} clients "
                            "incomplete")
        if r["workload"] == "gossip":
            if r["crashes"] != expected["crashes"]:
                problems.append(f"{r['crashes']} detection rows for "
                                f"{expected['crashes']} scheduled crashes")
            if r["confirms"] == 0:
                problems.append("no crash was ever confirmed")
        if fingerprint(r) != fingerprint(runs[0]):
            problems.append("iterations disagree on the simulated outcome")
    return sorted(set(problems))


def ops(records):
    """(attempted, failed) over every iteration of the run. Swarm: one op
    per client download, failed if incomplete. Gossip: one op per verdict
    (each confirm, plus each crash never confirmed); false confirms and
    missed crashes fail."""
    attempted = failed = 0
    for r in records:
        if r["kind"] not in ("iteration", "traced"):
            continue
        if r["workload"] == "swarm":
            attempted += r["clients"]
            failed += r["clients"] - r["completed"]
        else:
            attempted += r["confirms"] + r["missed"]
            failed += r["false_confirms"] + r["missed"]
    return attempted, failed


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def scaled(records):
    """The records with every host time in reference seconds. One factor
    serves the whole run, from the median of its reference calls: that
    follows the host's slow and fast phases, which last minutes, without
    adding the jitter of single calls to each iteration."""
    factor = REFERENCE_NOMINAL_S / statistics.median(
        r["reference_s"] for r in records
        if r["kind"] in ("iteration", "traced"))
    keys = ("parse_s", "setup_s", "run_s", "cpu_s", "sys_s")
    return [dict(r, **{k: r[k] * factor for k in keys if k in r})
            for r in records]


def end_to_end(records):
    records = scaled(records)
    untraced = [r for r in records if r["kind"] == "iteration"]
    setups = [r["parse_s"] + r["setup_s"] for r in records
              if r["kind"] in ("iteration", "setup", "traced")]
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in untraced),
        "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
        # The first iteration's peak: one experiment in a fresh process, as
        # a user runs it. Later iterations only add allocator retention.
        "peak_rss_mb": records[0]["peak_rss_after_run_mb"],
    }


def per_layer(records):
    unscaled_run_s = statistics.median(
        r["run_s"] for r in records if r["kind"] == "iteration")
    references = [r["reference_s"] for r in records
                  if r["kind"] in ("iteration", "traced")]
    records = scaled(records)
    untraced = [r for r in records if r["kind"] == "iteration"]
    traced = [r for r in records if r["kind"] == "traced"]
    clean = [r for r in traced if r["ring_dropped"] == 0]
    if not clean:
        raise Refused("every traced run dropped profiler samples; the "
                      "engine shares would describe only the ring tail")
    samples = next(r for r in records if r["kind"] == "samples")
    census = records[0]
    c = traced[-1]["counters"]
    events = traced[-1]["events"]
    run_s = statistics.median(r["run_s"] for r in untraced)
    total = samples["total"]
    shares = {m: ratio(samples["modules"].get(m, 0), total) for m in LAYERS}
    setups = [r for r in records if r["kind"] in ("iteration", "setup",
                                                  "traced")]

    def median_of(key, rows):
        return statistics.median(r[key] for r in rows)

    metrics = {
        "sim.events": events,
        "sim.ns_per_event": ratio(run_s * 1e9, events),
        "sim.cancel_ratio": ratio(c["sim.events.cancelled"],
                                  c["sim.events.scheduled"]),
        "engine.barrier_wait_share": median_of("barrier_wait_share", clean),
        "engine.merge_share": median_of("merge_share", clean),
        "engine.imbalance_ratio": median_of("imbalance_ratio", clean),
        "engine.min_utilization_pct": median_of("min_utilization_pct", clean),
        # A mean, not a median: at K=1 most iterations spend no whole
        # accounting tick in the kernel and read 0.
        "engine.sys_s": statistics.fmean(r["sys_s"] for r in untraced),
        "engine.windows": clean[-1]["windows"],
        "engine.ring_dropped": clean[-1]["ring_dropped"],
        "net.packets": c["net.packets_sent"],
        "net.bytes_per_packet": ratio(c["net.bytes_sent"],
                                      c["net.packets_sent"]),
        "net.pool_misses": c["net.pool.misses"],
        "ipfw.rules_per_packet": ratio(c["ipfw.rules_scanned"],
                                       c["ipfw.packets_classified"]),
        "ipfw.pipe_drops": sum(c[f"ipfw.pipe.drops_{k}"] for k in
                               ("burst", "down", "loss", "overflow")),
        "sockets.msgs": c["sockets.msgs_sent"],
        "sockets.connects": c["sockets.connects_started"],
        "sockets.retransmit_ratio": ratio(c["sockets.retransmits"],
                                          c["net.packets_sent"]),
        "bt.piece_completions": c["bt.piece_completions"],
        "bt.choke_changes": c["bt.chokes_sent"] + c["bt.unchokes_sent"],
        "gossip.pings": c["gossip.pings"],
        "gossip.indirect_ratio": ratio(c["gossip.ping_reqs"],
                                       c["gossip.pings"]),
        "scenario.parse_s": median_of("parse_s", setups),
        "scenario.setup_s": median_of("setup_s", setups),
        "other.self_share": ratio(
            total - samples["unattributed"] - sum(
                samples["modules"].get(m, 0) for m in LAYERS), total),
        "mem.setup_mb": census["rss_after_setup_mb"] -
        census["rss_before_setup_mb"],
        "mem.run_growth_mb": census["peak_rss_after_run_mb"] -
        census["rss_after_setup_mb"],
        "mem.bytes_per_vnode": ratio(
            (census["peak_rss_after_run_mb"] -
             census["rss_before_setup_mb"]) * 2**20, census["vnodes"]),
        "trace.overhead_ratio": ratio(median_of("run_s", traced), run_s),
        "trace.unattributed_share": ratio(samples["unattributed"], total),
        "host.reference_s": statistics.median(references),
        "host.unscaled_run_s": unscaled_run_s,
    }
    for m in LAYERS:
        metrics[f"{m}.self_share"] = shares[m]
    return {k: metrics[k] for k in PER_LAYER_UNITS}


def describe_box(workload, records):
    r = next(r for r in records if r["kind"] == "iteration")
    cpus = ",".join(str(c) for c in r["worker_cpus"])
    print(f"# box: cores={r['cores']} shards={r['shards']} "
          f"worker_cpus={cpus} degraded_parallelism="
          f"{r['degraded_parallelism']}")
    if workload == "swarm-k2" and r["degraded_parallelism"] != 0:
        raise Refused("swarm-k2 needs a core per shard; this box has "
                      f"{r['cores']} schedulable cores")


def print_metrics(title, metrics, units):
    print(f"# {title}:")
    for name, value in metrics.items():
        print(f"#   {name:28s} {value:16.6g} {units[name]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        started = time.monotonic()
        harness = build()
        scenario, expected = scenario_for(args.workload, args.seed)
        records = run_harness(harness, f"{args.workload}-{args.seed}",
                              scenario, args.seconds, args.trace)
        describe_box(args.workload, records)
        problems = check(args.workload, records, expected)
        attempted, failed = ops(records)
        runs = [r for r in records if r["kind"] in ("iteration", "traced")]
        print(f"# fingerprint: {json.dumps(fingerprint(runs[0]))}")
        print(f"# iterations: {len(runs)}; ops {attempted} attempted, "
              f"{failed} failed; {time.monotonic() - started:.1f} s total")
        for problem in problems:
            print(f"# FAIL: {problem}")
        e2e = end_to_end(records)
        print_metrics("end-to-end", e2e, END_TO_END_UNITS)
        if args.trace:
            layers = per_layer(records)
            print_metrics("per-layer (traced)", layers, PER_LAYER_UNITS)
            metrics, units = layers, PER_LAYER_UNITS
        else:
            metrics, units = e2e, END_TO_END_UNITS
    except (Refused, subprocess.SubprocessError, OSError) as error:
        print(f"emubench: {error}", file=sys.stderr)
        return 1

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
