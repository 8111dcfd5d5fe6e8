#!/usr/bin/env python3
"""Determinism and correctness-gate tests for the end-to-end benchmark.

Run from the repository root (builds the benchmark on first use, ~1 min):

    python3 sedbench/test_sedbench.py
"""

import json
import os
import re
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
# Seed used by no tuning run: the correctness gate must hold on it too.
HELD_OUT_SEED = 90210

COUNT_METRICS = {
    0: ["ok_op_ratio", "cves_blocked"],
    1: ["vdev.accesses_per_op", "vdev.dma_bytes_per_op",
        "checker.flagged_per_kop", "checker.blocked",
        "checker.degraded_rounds", "engine.steps_per_check",
        "pipeline.trace_bytes", "spec.blocks"],
}


def bench(workload, seed, trace=0, seconds=1):
    """Runs one benchmark invocation; returns (exit code, result, digest)."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    match = re.search(r"op_stream_digest=([0-9a-f]+)", proc.stderr)
    return proc.returncode, result, match.group(1) if match else None


class Determinism(unittest.TestCase):
    def check_repeats(self, workload, trace):
        rc1, a, digest_a = bench(workload, 5, trace)
        rc2, b, digest_b = bench(workload, 5, trace)
        self.assertEqual((rc1, rc2), (0, 0))
        self.assertEqual(digest_a, digest_b)
        self.assertEqual(a["attempted"], b["attempted"])
        self.assertEqual(a["failed"], b["failed"])
        for name in COUNT_METRICS[trace]:
            self.assertEqual(a["metrics"][name]["value"],
                             b["metrics"][name]["value"], name)

    def test_same_seed_same_counts(self):
        self.check_repeats("pio_storage", 0)

    def test_same_seed_same_layer_counts(self):
        self.check_repeats("dma_io", 1)

    def test_seed_changes_op_stream(self):
        _, _, digest_a = bench("hostile_mix", 5)
        _, _, digest_b = bench("hostile_mix", 6)
        self.assertIsNotNone(digest_a)
        self.assertNotEqual(digest_a, digest_b)


class HeldOutSeed(unittest.TestCase):
    def test_gate_passes(self):
        for workload in ("pio_storage", "dma_io", "hostile_mix"):
            rc, result, _ = bench(workload, HELD_OUT_SEED)
            self.assertEqual(rc, 0, workload)
            self.assertTrue(result["correct"], workload)
            self.assertEqual(result["failed"], 0, workload)
            self.assertEqual(result["metrics"]["cves_blocked"]["value"], 8)


if __name__ == "__main__":
    unittest.main()
