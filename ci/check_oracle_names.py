#!/usr/bin/env python3
"""Fail on a test-oracle name declared in a src/ header.

The library ships production paths only.  The frozen scalar loops that
the kernels are checked against (matmul_naive, quantize_reference, ...)
live in tests/oracles/, which tests and benches link and the library does
not.  By convention an oracle's name ends in `_reference` or `_naive`, so
this gate fails on any such identifier in the code of a header under src/
(comments and string literals are ignored: a header may say what it is
checked against).

Usage: python3 ci/check_oracle_names.py [root]
Exit status 1 lists every violation; 0 when clean.
"""
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from check_clock_reads import strip_comments_and_strings  # noqa: E402

SUFFIXES = {".h", ".hpp"}

ORACLE_NAME = re.compile(r"\b\w+_(?:reference|naive)\b")


def oracle_names(text: str) -> list:
    """(line, name) of every oracle-style identifier in the code of `text`."""
    code = strip_comments_and_strings(text)
    return [(code.count("\n", 0, m.start()) + 1, m.group(0))
            for m in ORACLE_NAME.finditer(code)]


def main() -> int:
    repo = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(".")
    src = repo / "src"
    problems = []
    headers = 0
    for path in sorted(src.rglob("*")):
        if path.suffix not in SUFFIXES or not path.is_file():
            continue
        headers += 1
        rel = path.relative_to(src).as_posix()
        text = path.read_text(encoding="utf-8", errors="replace")
        for line, name in oracle_names(text):
            problems.append(f"src/{rel}:{line}: oracle name '{name}' in a "
                            "library header; move it to tests/oracles/")
    for p in problems:
        print(p)
    print(f"{headers} header(s) in src/: "
          f"{'OK' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
