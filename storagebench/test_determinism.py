#!/usr/bin/env python3
"""Determinism self-test of the storage benchmark.

    python3 storagebench/test_determinism.py

For a fixed seed, the counts a single-threaded run produces must repeat
exactly: move_ratio, the moved and rebuilt fragment counts, checkpoint bytes
per user byte and the single-client allocation counts.  A different seed
must change the reconfiguration script.  Builds the binary through run.py
if needed (about a minute the first time); the runs take about a minute.
"""

import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build helper)

EXACT = (
    "move_ratio",
    "storage.fragments_moved",
    "storage.fragments_rebuilt",
    "storage.checkpoint_bytes_per_user_byte",
    "storage.allocs_per_write",
    "storage.allocs_per_read",
)


class Determinism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(run.build_dir())
        if cls.binary is None:
            raise RuntimeError("storagebench did not build")

    def traced(self, seed):
        out = subprocess.run(
            [self.binary, "--workload", "reconfig", "--seed", str(seed),
             "--seconds", "1", "--trace", "1"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170,
            check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"], out.stderr)
        return {k: v["value"] for k, v in result["metrics"].items()}

    def script(self, seed):
        return subprocess.run(
            [self.binary, "--print-script", "--seed", str(seed)],
            capture_output=True, text=True, timeout=60, check=True).stdout

    def test_counts_repeat_for_a_seed(self):
        first = self.traced(7)
        second = self.traced(7)
        for name in EXACT:
            self.assertIn(name, first)
            self.assertEqual(first[name], second[name], name)
        self.assertGreater(first["move_ratio"], 1.0)

    def test_seed_changes_the_script(self):
        self.assertEqual(self.script(7), self.script(7))
        self.assertNotEqual(self.script(7), self.script(8))


if __name__ == "__main__":
    unittest.main()
