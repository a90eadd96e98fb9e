#!/usr/bin/env python3
"""Unit tests for ci/check_clock_reads.py (stdlib only; run by the lint CI
job before the check itself, and runnable locally with
`python3 ci/test_check_clock_reads.py`).

Each case builds a throwaway src/ tree in which every allow-listed file
reads a clock, then adds or removes one file, so a case fails only for the
reason it names.
"""
import importlib.util
import pathlib
import subprocess
import sys
import tempfile
import unittest

CHECKER = pathlib.Path(__file__).resolve().parent / "check_clock_reads.py"

_spec = importlib.util.spec_from_file_location("check_clock_reads", CHECKER)
check_clock_reads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_clock_reads)

READ = "const auto t0 = std::chrono::steady_clock::now();\n"


class ClockReadsTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = pathlib.Path(self._tmp.name)
        for rel in check_clock_reads.ALLOWED:
            self.write(rel, "#include <chrono>\n" + READ)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, rel, text):
        path = self.root / "src" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    def check(self):
        return subprocess.run(
            [sys.executable, str(CHECKER), str(self.root)],
            capture_output=True, text=True)

    def test_allowed_read_passes(self):
        r = self.check()
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("OK", r.stdout)

    def test_disallowed_read_fails_and_names_the_line(self):
        self.write("runtime/scheduler.cpp",
                   "int a;\nauto now = std::chrono::system_clock::now();\n")
        r = self.check()
        self.assertEqual(r.returncode, 1, r.stdout)
        self.assertIn("src/runtime/scheduler.cpp:2", r.stdout)
        self.assertIn("system_clock", r.stdout)

    def test_posix_clock_reads_fail(self):
        self.write("sim/a.cpp", "timespec ts;\nclock_gettime(CLOCK_MONOTONIC, &ts);\n")
        self.write("sim/b.h", "timeval tv;\ngettimeofday(&tv, nullptr);\n")
        r = self.check()
        self.assertEqual(r.returncode, 1, r.stdout)
        self.assertIn("src/sim/a.cpp:2", r.stdout)
        self.assertIn("src/sim/b.h:2", r.stdout)

    def test_comment_only_mention_passes(self):
        self.write("sim/pipeline.cpp",
                   "// Simulated time, never std::chrono::steady_clock.\n"
                   "/* no gettimeofday here,\n   nor clock_gettime */\n"
                   "const char* s = \"steady_clock\";  // 500'000 steps\n"
                   "int n = 500'000;\n")
        r = self.check()
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_stale_allow_list_entry_fails(self):
        self.write("tensor/gemm.cpp", "// no clock any more\n")
        r = self.check()
        self.assertEqual(r.returncode, 1, r.stdout)
        self.assertIn("src/tensor/gemm.cpp: allow-listed but reads no clock",
                      r.stdout)


if __name__ == "__main__":
    unittest.main()
