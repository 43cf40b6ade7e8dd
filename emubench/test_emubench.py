#!/usr/bin/env python3
"""Self-test of the emulator benchmark, on down-sized scenarios.

    python3 emubench/test_emubench.py

Builds the harness like run.py does, then checks that the seeded inputs
repeat, that a uniformly slower host leaves the reference-scaled times
unchanged, that swarm and swarm-k2 print the same simulated fingerprint,
and that a small gossip run passes every check with no failed verdict.
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


class SeededInputsTest(unittest.TestCase):
    def test_same_seed_same_scenario(self):
        for workload in run.WORKLOADS:
            self.assertEqual(run.scenario_for(workload, 3),
                             run.scenario_for(workload, 3))
            self.assertNotEqual(run.scenario_for(workload, 3),
                                run.scenario_for(workload, 4))

    def test_swarm_k2_differs_only_in_shards(self):
        one = run.scenario_for("swarm", 5)[0].splitlines()
        two = run.scenario_for("swarm-k2", 5)[0].splitlines()
        diff = [(a, b) for a, b in zip(one, two) if a != b]
        self.assertEqual(diff, [("shards 1", "shards 2")])


class ReferenceScalingTest(unittest.TestCase):
    def test_a_uniformly_slower_host_reads_the_same(self):
        fast = [
            {"kind": "iteration", "parse_s": 1e-4, "setup_s": 3e-4,
             "run_s": 2.0, "cpu_s": 2.1, "sys_s": 0.01, "reference_s": 0.05,
             "peak_rss_after_run_mb": 20.0},
            {"kind": "setup", "parse_s": 2e-4, "setup_s": 4e-4},
            {"kind": "iteration", "parse_s": 1e-4, "setup_s": 3e-4,
             "run_s": 2.2, "cpu_s": 2.3, "sys_s": 0.01, "reference_s": 0.06},
        ]
        host_times = ("parse_s", "setup_s", "run_s", "cpu_s", "sys_s",
                      "reference_s")
        slow = [dict(r, **{k: r[k] * 1.7 for k in host_times if k in r})
                for r in fast]
        want = run.end_to_end(fast)
        got = run.end_to_end(slow)
        for name in want:
            self.assertAlmostEqual(got[name], want[name], places=12)
        self.assertEqual(got["peak_rss_mb"], 20.0)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.harness = run.build()

    def run_once(self, workload, name, scenario, expected):
        records = run.run_harness(self.harness, name, scenario, 0.1, 0)
        self.assertEqual(run.check(workload, records, expected), [])
        attempted, failed = run.ops(records)
        self.assertGreater(attempted, 0)
        self.assertEqual(failed, 0)
        return records

    def test_swarm_fingerprint_is_shard_count_invariant(self):
        # 40 clients fold onto two physical nodes, so K=2 really splits.
        prints = []
        for workload, shards in (("swarm", 1), ("swarm-k2", 2)):
            scenario, expected = run.swarm_scenario(
                7, shards, clients=40, file_size="256k")
            records = self.run_once(workload, f"selftest-{workload}",
                                    scenario, expected)
            prints.append(run.fingerprint(records[0]))
        self.assertEqual(prints[0], prints[1])

    def test_gossip_verdicts(self):
        scenario, expected = run.gossip_scenario(7, members=32, run_s=900)
        records = self.run_once("gossip", "selftest-gossip", scenario,
                                expected)
        self.assertEqual(records[0]["missed"], 0)
        self.assertEqual(records[0]["false_confirms"], 0)


if __name__ == "__main__":
    unittest.main()
