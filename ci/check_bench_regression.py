#!/usr/bin/env python3
"""Compare BENCH_*.json files from a bench run against committed baselines.

Gate rules, keyed purely on field-name conventions (see bench/bench_util.h):

  *_tok_s        simulated throughput — fail if it drops more than
                 --tolerance (default 20%) below the baseline; increases
                 never fail (the baseline just becomes stale and should be
                 refreshed, see EXPERIMENTS.md).  This covers the
                 fault-recovery goodput columns too (*_goodput_tok_s):
                 goodput counts the full simulated wall including lost
                 work, retry backoff and replanning charges, so a drop
                 means recovery got slower or lossier, not just that a
                 kernel slowed down
  *_speedup_x    relative kernel throughput (blocked vs naive, measured in
                 the same run, so machine speed cancels) — same >20%-drop
                 rule as *_tok_s; the committed baselines hold conservative
                 floors, not the measured values, so runner-to-runner
                 variance does not flake the gate
  *_fingerprint  plan/output identity — any change fails (the planner
                 picked a different plan or a kernel changed bits, which
                 must be an intentional, reviewed change accompanied by a
                 baseline refresh)
  *_bytes        deterministic storage byte counts (e.g. the packed
                 quantized-code bytes) — any change fails, exactly like a
                 fingerprint: the bytes a format holds are not a speed

Everything else (wall-clock seconds, cache hit rates, ppl) is informative
only.  Rows are matched positionally; a row-count or schema change fails.

With --report-only every failure is still printed but the exit code is
always 0 — used by the nightly full-size sweep, where rows intentionally
differ from the smoke baselines and the diff is advisory.

Usage: python3 ci/check_bench_regression.py <run_dir> <baseline_dir>
           [--tolerance 0.2] [--report-only]
"""
import argparse
import json
import pathlib
import sys

SCHEMA = "splitquant.bench.v1"


class BenchFileError(Exception):
    """A bench JSON file that cannot be used: missing, unreadable,
    malformed JSON, or the wrong schema.  Reported as a one-line
    diagnostic and a nonzero exit, never a stack trace."""


def load(path: pathlib.Path) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise BenchFileError(f"{path}: cannot read ({e.strerror or e})")
    except json.JSONDecodeError as e:
        raise BenchFileError(f"{path}: malformed JSON ({e})")
    if not isinstance(doc, dict):
        raise BenchFileError(f"{path}: top level is {type(doc).__name__}, want object")
    if doc.get("schema") != SCHEMA:
        raise BenchFileError(f"{path}: schema {doc.get('schema')!r}, want {SCHEMA!r}")
    return doc


def row_label(row: dict, index: int) -> str:
    keys = [str(row[k])
            for k in ("workload", "cluster", "model", "scenario", "threads")
            if k in row]
    return "/".join(keys) if keys else f"row[{index}]"


def compare(name: str, run: dict, base: dict, tolerance: float) -> list:
    failures = []
    run_rows, base_rows = run.get("rows", []), base.get("rows", [])
    if len(run_rows) != len(base_rows):
        return [f"{name}: row count {len(run_rows)} != baseline {len(base_rows)}"]
    for i, (r, b) in enumerate(zip(run_rows, base_rows)):
        label = row_label(b, i)
        for key, want in b.items():
            if key not in r:
                failures.append(f"{name} {label}: field {key!r} missing from run")
                continue
            got = r[key]
            if key.endswith("_fingerprint") and got != want:
                failures.append(
                    f"{name} {label}: {key} changed {want!r} -> {got!r} "
                    f"(plan changed; refresh ci/baselines if intentional)")
            elif key.endswith("_bytes") and got != want:
                failures.append(
                    f"{name} {label}: {key} changed {want!r} -> {got!r} "
                    f"(storage size changed; refresh ci/baselines if intentional)")
            elif (key.endswith("_tok_s") or key.endswith("_speedup_x")) \
                    and isinstance(want, (int, float)):
                if want > 0 and got < want * (1.0 - tolerance):
                    failures.append(
                        f"{name} {label}: {key} regressed {want:.1f} -> {got:.1f} "
                        f"(>{tolerance:.0%} drop)")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("run_dir", type=pathlib.Path)
    ap.add_argument("baseline_dir", type=pathlib.Path)
    ap.add_argument("--tolerance", type=float, default=0.2)
    ap.add_argument("--report-only", action="store_true",
                    help="print failures but always exit 0 (nightly mode)")
    args = ap.parse_args()

    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"no baselines under {args.baseline_dir}", file=sys.stderr)
        return 1
    failures = []
    for base_path in baselines:
        run_path = args.run_dir / base_path.name
        if not run_path.exists():
            failures.append(f"{base_path.name}: not produced by this run")
            continue
        try:
            base, run = load(base_path), load(run_path)
        except BenchFileError as e:
            print(f"FAIL: {e}", file=sys.stderr)
            return 1
        file_failures = compare(base_path.name, run, base, args.tolerance)
        failures.extend(file_failures)
        print(f"{base_path.name}: {len(base.get('rows', []))} rows, "
              f"{'OK' if not file_failures else 'FAIL'}")
    for f in failures:
        print(f"FAIL: {f}")
    if failures and args.report_only:
        print(f"report-only: {len(failures)} finding(s), not failing the run")
        return 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
