#!/usr/bin/env python3
"""Tests for tools/check_bench_baseline.py on crafted baseline/output pairs.

Each case writes a small baseline and one bench output document to a
temporary directory, runs the gate as a subprocess and checks its exit code
and message. Stdlib only.

Usage: check_bench_baseline_test.py [path/to/check_bench_baseline.py]
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = (Path(__file__).resolve().parents[2] / "tools" /
          "check_bench_baseline.py")


def row(circuit, cell, **counters):
    r = {"circuit": circuit, "cell": cell, "found": 3, "guesses": 0}
    r.update(counters)
    return r


class CheckBenchBaselineTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.dir = Path(self._dir.name)

    def tearDown(self):
        self._dir.cleanup()

    def gate(self, baseline_rows, output_rows, subset=False):
        baseline = {
            "schema_version": 1,
            "benches": {"bench_x": {"counters": baseline_rows, "timings": []}},
        }
        output = {"tool": "bench_x", "quick": True, "counters": output_rows,
                  "timings": []}
        base_path = self.dir / "baseline.json"
        out_path = self.dir / "out.json"
        base_path.write_text(json.dumps(baseline), encoding="utf-8")
        out_path.write_text(json.dumps(output), encoding="utf-8")
        cmd = [sys.executable, str(SCRIPT)]
        if subset:
            cmd.append("--subset")
        cmd += [str(base_path), str(out_path)]
        return subprocess.run(cmd, capture_output=True, text=True, check=False)

    def test_clean_pass(self):
        rows = [row("c1", "nand2"), row("c1", "inv"), row("c2", "nand2")]
        proc = self.gate(rows, [dict(r) for r in rows])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("OK: 1 bench(es) match", proc.stdout)

    def test_counter_mismatch_fails(self):
        proc = self.gate([row("c1", "nand2", guesses=2)],
                         [row("c1", "nand2", guesses=5)])
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("c1/nand2 guesses: baseline 2 != output 5", proc.stdout)

    def test_duplicate_output_row_fails(self):
        # Without the duplicate check the first copy (found 1) would be
        # silently shadowed by the second and never gated.
        proc = self.gate([row("c1", "nand2")],
                         [row("c1", "nand2", found=1), row("c1", "nand2")])
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("duplicate row ('c1', 'nand2') in output", proc.stdout)

    def test_duplicate_baseline_row_fails(self):
        proc = self.gate([row("c1", "nand2"), row("c1", "nand2")],
                         [row("c1", "nand2")], subset=True)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("duplicate row ('c1', 'nand2') in baseline", proc.stdout)


if __name__ == "__main__":
    if len(sys.argv) > 1 and not sys.argv[1].startswith("-"):
        SCRIPT = Path(sys.argv.pop(1)).resolve()
    unittest.main()
