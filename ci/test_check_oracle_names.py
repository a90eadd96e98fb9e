#!/usr/bin/env python3
"""Unit tests for ci/check_oracle_names.py (stdlib only; run by the lint CI
job before the check itself, and runnable locally with
`python3 ci/test_check_oracle_names.py`).

Each case builds a throwaway src/ tree holding one clean header, then adds
the file the case is about.
"""
import pathlib
import subprocess
import sys
import tempfile
import unittest

CHECKER = pathlib.Path(__file__).resolve().parent / "check_oracle_names.py"


class OracleNamesTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = pathlib.Path(self._tmp.name)
        self.write("tensor/ops.h", "Tensor matmul(const Tensor& a, const Tensor& b);\n")

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

    def test_production_names_pass(self):
        # `reference_count` and `naivety` only contain the words.
        self.write("quant/qkernels.h",
                   "void quantize_pack(int n);\nint reference_count;\nint naivety;\n")
        r = self.check()
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("OK", r.stdout)

    def test_oracle_declarations_fail_and_name_the_line(self):
        self.write("quant/quantizer.h",
                   "#pragma once\nvoid quantize_reference(const float* v);\n")
        self.write("tensor/gemm.h", "Tensor matmul_bt_naive(const Tensor& a);\n")
        r = self.check()
        self.assertEqual(r.returncode, 1, r.stdout)
        self.assertIn("src/quant/quantizer.h:2", r.stdout)
        self.assertIn("quantize_reference", r.stdout)
        self.assertIn("src/tensor/gemm.h:1", r.stdout)
        self.assertIn("matmul_bt_naive", r.stdout)

    def test_comment_and_string_mentions_pass(self):
        self.write("tensor/gemm.h",
                   "// Bit-identical to the matmul_naive oracle (tests/oracles).\n"
                   "/* and to matmul_bt_naive */\n"
                   "const char* kName = \"dequantize_reference\";\n")
        r = self.check()
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_sources_are_not_headers(self):
        # A .cpp may keep a private helper of that name; the gate is about
        # what the library exports.
        self.write("tensor/ops.cpp", "static int matmul_naive_steps = 0;\n")
        r = self.check()
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)


if __name__ == "__main__":
    unittest.main()
