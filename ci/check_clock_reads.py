#!/usr/bin/env python3
"""Fail on a wall-clock read in src/ outside the allow-listed files.

Plans and simulated stats must not depend on how fast the host runs, so
library code may read a wall clock only to observe itself (phase timers,
metrics) -- never to decide.  This gate keeps the set of files that read a
clock explicit: a new read anywhere else fails, and so does an allow-list
entry whose file no longer reads one (the list only shrinks).

A read is any mention, outside comments and string literals, of a
std::chrono clock (`std::chrono::steady_clock`, `system_clock`,
`high_resolution_clock`, ...), `clock_gettime` or `gettimeofday`.

Usage: python3 ci/check_clock_reads.py [root]
Exit status 1 lists every violation; 0 when clean.
"""
import pathlib
import re
import sys

SUFFIXES = {".h", ".cpp", ".cc", ".hpp"}

# Paths relative to src/.  Every entry but milp.cpp only observes.
ALLOWED = {
    # The one decision site: the MILP time limit.  Leaves the list when a
    # deterministic work budget replaces the wall-clock limit.
    "solver/milp.cpp",
    "core/planner.cpp",       # planner phase timers (obs histograms)
    "core/sharding.cpp",      # plan_sharded wall seconds (stats only)
    "runtime/weight_prep.cpp",  # PrepStats::wall_seconds
    "quant/quant_cache.cpp",  # quantize/prep time histograms
    "tensor/gemm.cpp",        # GEMM time histogram
}

CLOCK_READ = re.compile(
    r"\b(?:steady|system|high_resolution|utc|tai|gps|file)_clock\b"
    r"|\bclock_gettime\b"
    r"|\bgettimeofday\b")

# Comments and string/char literals, in one left-to-right scan so that a
# "//" inside a string or a quote inside a comment is handled correctly
# (a quote after a digit is a separator, as in 500'000, not a literal).
STRIPPABLE = re.compile(
    r"//[^\n]*"
    r"|/\*.*?\*/"
    r'|"(?:\\.|[^"\\\n])*"'
    r"|(?<![0-9A-Fa-f])'(?:\\.|[^'\\\n])*'",
    re.DOTALL)


def strip_comments_and_strings(text: str) -> str:
    # Keep the newlines of a removed block so line numbers stay right.
    return STRIPPABLE.sub(lambda m: "\n" * m.group(0).count("\n"), text)


def clock_reads(text: str) -> list:
    """(line, matched text) of every clock read in `text`."""
    code = strip_comments_and_strings(text)
    return [(code.count("\n", 0, m.start()) + 1, m.group(0))
            for m in CLOCK_READ.finditer(code)]


def main() -> int:
    repo = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(".")
    src = repo / "src"
    problems = []
    readers = set()
    for path in sorted(src.rglob("*")):
        if path.suffix not in SUFFIXES or not path.is_file():
            continue
        rel = path.relative_to(src).as_posix()
        reads = clock_reads(path.read_text(encoding="utf-8", errors="replace"))
        if not reads:
            continue
        readers.add(rel)
        if rel not in ALLOWED:
            for line, what in reads:
                problems.append(f"src/{rel}:{line}: wall-clock read '{what}' "
                                "outside the allow-list")
    for rel in sorted(ALLOWED - readers):
        problems.append(f"src/{rel}: allow-listed but reads no clock; "
                        "drop it from ALLOWED")
    for p in problems:
        print(p)
    print(f"{len(readers)} file(s) in src/ read a clock: "
          f"{'OK' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
