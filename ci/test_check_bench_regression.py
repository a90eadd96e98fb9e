#!/usr/bin/env python3
"""Unit tests for ci/check_bench_regression.py (stdlib only; run by the
bench-smoke CI job before the gate itself, and runnable locally with
`python3 ci/test_check_bench_regression.py`).

The gate runs unattended on every PR, so its failure modes matter as much
as its pass modes: a missing or malformed baseline must produce a one-line
diagnostic and a nonzero exit, never a stack trace that buries the cause.
"""
import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

CHECKER = pathlib.Path(__file__).resolve().parent / "check_bench_regression.py"


def bench_doc(rows):
    return {"bench": "t", "meta": {}, "rows": rows,
            "schema": "splitquant.bench.v1"}


ROW = {"model": "OPT-13B", "serve_tok_s": 100.0, "speed_speedup_x": 2.0,
       "plan_fingerprint": "abcd", "wall_s": 1.0}


class GateTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        tmp = pathlib.Path(self._tmp.name)
        self.base_dir = tmp / "baselines"
        self.run_dir = tmp / "run"
        self.base_dir.mkdir()
        self.run_dir.mkdir()

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, directory, doc, name="BENCH_t.json", raw=None):
        path = directory / name
        path.write_text(raw if raw is not None else json.dumps(doc))
        return path

    def gate(self, *extra):
        return subprocess.run(
            [sys.executable, str(CHECKER), str(self.run_dir),
             str(self.base_dir), *extra],
            capture_output=True, text=True)

    def test_identical_run_passes(self):
        self.write(self.base_dir, bench_doc([ROW]))
        self.write(self.run_dir, bench_doc([ROW]))
        r = self.gate()
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_small_drop_within_tolerance_passes(self):
        self.write(self.base_dir, bench_doc([ROW]))
        self.write(self.run_dir, bench_doc([dict(ROW, serve_tok_s=85.0)]))
        self.assertEqual(self.gate().returncode, 0)

    def test_throughput_regression_fails(self):
        self.write(self.base_dir, bench_doc([ROW]))
        self.write(self.run_dir, bench_doc([dict(ROW, serve_tok_s=50.0)]))
        r = self.gate()
        self.assertEqual(r.returncode, 1)
        self.assertIn("regressed", r.stdout)

    def test_speedup_floor_fails(self):
        self.write(self.base_dir, bench_doc([ROW]))
        self.write(self.run_dir, bench_doc([dict(ROW, speed_speedup_x=1.0)]))
        self.assertEqual(self.gate().returncode, 1)

    def test_fingerprint_change_fails(self):
        self.write(self.base_dir, bench_doc([ROW]))
        self.write(self.run_dir, bench_doc([dict(ROW, plan_fingerprint="ffff")]))
        r = self.gate()
        self.assertEqual(r.returncode, 1)
        self.assertIn("plan changed", r.stdout)

    def test_byte_count_change_fails(self):
        self.write(self.base_dir, bench_doc([dict(ROW, code_bytes=1024)]))
        self.write(self.run_dir, bench_doc([dict(ROW, code_bytes=1025)]))
        r = self.gate()
        self.assertEqual(r.returncode, 1)
        self.assertIn("storage size changed", r.stdout)
        self.write(self.run_dir, bench_doc([dict(ROW, code_bytes=1024)]))
        self.assertEqual(self.gate().returncode, 0)

    def test_untracked_fields_are_informative_only(self):
        self.write(self.base_dir, bench_doc([ROW]))
        self.write(self.run_dir, bench_doc([dict(ROW, wall_s=99.0)]))
        self.assertEqual(self.gate().returncode, 0)

    def test_row_count_change_fails(self):
        self.write(self.base_dir, bench_doc([ROW, ROW]))
        self.write(self.run_dir, bench_doc([ROW]))
        self.assertEqual(self.gate().returncode, 1)

    def test_missing_run_file_fails_with_diagnostic(self):
        self.write(self.base_dir, bench_doc([ROW]))
        r = self.gate()
        self.assertEqual(r.returncode, 1)
        self.assertIn("not produced by this run", r.stdout)
        self.assertNotIn("Traceback", r.stderr)

    def test_malformed_baseline_is_one_line_not_a_stack_trace(self):
        self.write(self.base_dir, None, raw="{not json")
        self.write(self.run_dir, bench_doc([ROW]))
        r = self.gate()
        self.assertEqual(r.returncode, 1)
        self.assertIn("malformed JSON", r.stderr)
        self.assertNotIn("Traceback", r.stderr)
        self.assertNotIn("Traceback", r.stdout)

    def test_wrong_schema_is_one_line_not_a_stack_trace(self):
        self.write(self.base_dir, {"schema": "other.v9", "rows": []})
        self.write(self.run_dir, bench_doc([ROW]))
        r = self.gate()
        self.assertEqual(r.returncode, 1)
        self.assertIn("schema", r.stderr)
        self.assertNotIn("Traceback", r.stderr)

    def test_non_object_top_level_is_one_line_not_a_stack_trace(self):
        self.write(self.base_dir, None, raw="[1, 2, 3]")
        self.write(self.run_dir, bench_doc([ROW]))
        r = self.gate()
        self.assertEqual(r.returncode, 1)
        self.assertIn("top level", r.stderr)
        self.assertNotIn("Traceback", r.stderr)

    def test_empty_baseline_dir_fails(self):
        r = self.gate()
        self.assertEqual(r.returncode, 1)
        self.assertIn("no baselines", r.stderr)

    def test_report_only_always_exits_zero(self):
        self.write(self.base_dir, bench_doc([ROW]))
        self.write(self.run_dir, bench_doc([dict(ROW, serve_tok_s=1.0)]))
        r = self.gate("--report-only")
        self.assertEqual(r.returncode, 0)
        self.assertIn("report-only", r.stdout)


if __name__ == "__main__":
    unittest.main()
