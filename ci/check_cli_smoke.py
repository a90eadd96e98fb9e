#!/usr/bin/env python3
"""End-to-end smoke of the splitquant_cli binary for the bench-smoke job.

Exercises the user-facing surface the unit tests cannot: flag parsing,
exit codes and the metrics-JSON export contract, on a real binary.  Each
scenario pins the exit code; metrics-producing scenarios also validate the
exported JSON against the splitquant.metrics.v1 schema (top-level keys,
expected counters/spans), so a CLI or exporter regression fails CI even
when the underlying library tests stay green.

Scenarios are sized to finish in seconds (small model, --heuristic, few
requests): this is a smoke, not a benchmark.

Usage: python3 ci/check_cli_smoke.py <path-to-splitquant_cli>
"""
import json
import pathlib
import re
import subprocess
import sys
import tempfile

METRICS_SCHEMA = "splitquant.metrics.v1"

# Flags every scenario shares: a small model planned heuristically over
# a small sampled workload, single-threaded for speed-of-start.
BASE = ["--model", "OPT-1.3B", "--cluster", "7", "--heuristic",
        "--requests", "32", "--batch", "16", "--threads", "1"]


def run(cli, args, want_exit, label):
    proc = subprocess.run([cli, *args], capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != want_exit:
        print(f"FAIL: {label}: exit {proc.returncode}, want {want_exit}\n"
              f"  cmd: {' '.join(args)}\n"
              f"  stdout tail: {proc.stdout[-500:]!r}\n"
              f"  stderr tail: {proc.stderr[-500:]!r}", file=sys.stderr)
        return None
    print(f"ok: {label} (exit {proc.returncode})")
    return proc


def run_rejects(cli, args, label):
    """A malformed-spec scenario: exit 2 with a one-line stderr diagnostic
    (no crash, no stack trace, no silent success).  Returns error count."""
    proc = run(cli, args, 2, label)
    if proc is None:
        return 1
    lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
    if len(lines) != 1:
        print(f"FAIL: {label}: want exactly one diagnostic line on stderr, "
              f"got {len(lines)}: {proc.stderr!r}", file=sys.stderr)
        return 1
    print(f"ok: {label} diagnostic: {lines[0]}")
    return 0


def check_metrics_json(path, label, want_counters=(), want_spans=()):
    """Validate one exported metrics document; returns error count."""
    errors = 0
    try:
        doc = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL: {label}: metrics JSON unreadable: {e}", file=sys.stderr)
        return 1
    if doc.get("schema") != METRICS_SCHEMA:
        print(f"FAIL: {label}: schema {doc.get('schema')!r}, "
              f"want {METRICS_SCHEMA!r}", file=sys.stderr)
        errors += 1
    for key, typ in (("counters", dict), ("gauges", dict),
                     ("histograms", dict), ("spans", list)):
        if not isinstance(doc.get(key), typ):
            print(f"FAIL: {label}: top-level {key!r} missing or not "
                  f"{typ.__name__}", file=sys.stderr)
            errors += 1
    counters = doc.get("counters", {})
    for name in want_counters:
        if name not in counters:
            print(f"FAIL: {label}: counter {name!r} missing "
                  f"(have: {sorted(counters)[:8]}...)", file=sys.stderr)
            errors += 1
    span_names = {s.get("name") for s in doc.get("spans", [])
                  if isinstance(s, dict)}
    for name in want_spans:
        if name not in span_names:
            print(f"FAIL: {label}: no span named {name!r} "
                  f"(have: {sorted(n for n in span_names if n)[:8]})",
                  file=sys.stderr)
            errors += 1
    if not errors:
        print(f"ok: {label} metrics JSON "
              f"({len(counters)} counters, {len(doc.get('spans', []))} spans)")
    return errors


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    cli = sys.argv[1]
    errors = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)

        # 1. Plan-only: the default single-pipeline path.
        if run(cli, BASE, 0, "plan-only") is None:
            errors += 1

        # 2. Serve with metrics export: planner + serving counters and the
        # serving span stream must land in the JSON.
        mpath = tmp / "serve_metrics.json"
        if run(cli, [*BASE, "--serve", "--metrics", str(mpath)], 0,
               "serve+metrics") is None:
            errors += 1
        else:
            errors += check_metrics_json(
                mpath, "serve+metrics",
                want_counters=["planner.candidates.evaluated"])

        # 3. Fault injection with plan repair through the recovery engine.
        if run(cli, [*BASE, "--serve", "--faults", "fail:0@1.0"], 0,
               "serve+faults") is None:
            errors += 1

        # 4. Sharded fleet serving: sharded planner + multi-job scheduler,
        # with the fleet.* metrics surface.
        fpath = tmp / "fleet_metrics.json"
        if run(cli, [*BASE, "--shards", "2", "--serve", "--jobs", "a:8,b:8",
                     "--metrics", str(fpath)], 0, "shards+serve") is None:
            errors += 1
        else:
            errors += check_metrics_json(
                fpath, "shards+serve",
                want_counters=["fleet.jobs.submitted", "fleet.jobs.completed"],
                want_spans=["fleet.job"])

        # 5. Continuous-batching serving with the serve.request.* metrics
        # surface and per-request trace spans.
        cpath = tmp / "continuous_metrics.json"
        if run(cli, [*BASE, "--serve", "--continuous", "--arrivals",
                     "burst:16@0,poisson:8@2x4", "--metrics", str(cpath)],
               0, "serve+continuous") is None:
            errors += 1
        else:
            errors += check_metrics_json(
                cpath, "serve+continuous",
                want_counters=["serve.request.submitted",
                               "serve.request.completed",
                               "serve.request.iterations"],
                want_spans=["serve.request"])

        # 6. Continuous mode under faults with plan repair.
        if run(cli, [*BASE, "--serve", "--continuous", "--faults",
                     "fail:0@5.0"], 0, "continuous+faults") is None:
            errors += 1

        # 6b. Elastic serving: membership timeline + live migration over
        # the continuous scheduler, with the elastic.* metrics surface.
        epath = tmp / "elastic_metrics.json"
        if run(cli, [*BASE, "--serve", "--continuous", "--elastic",
                     "price:T4=0.30@0,join:1xV100@2,leave:node1@4",
                     "--migration", "migrate", "--metrics", str(epath)],
               0, "serve+elastic") is None:
            errors += 1
        else:
            errors += check_metrics_json(
                epath, "serve+elastic",
                want_counters=["elastic.events", "elastic.replans",
                               "serve.request.completed"])

        # 6c. Elastic serving under a permanent fault with repair disabled:
        # --no-repair must hold under --elastic too, so the requests the
        # failure strands are reported lost.
        proc = run(cli, [*BASE, "--serve", "--continuous", "--elastic",
                         "price:T4=0.30@0", "--faults", "fail:0@1.0",
                         "--no-repair"], 0, "elastic+faults+no-repair")
        if proc is None:
            errors += 1
        else:
            m = re.search(r"^requests: \d+/\d+ completed, (\d+) lost",
                          proc.stdout, re.MULTILINE)
            if m is None or int(m.group(1)) == 0:
                print("FAIL: elastic+faults+no-repair: want lost requests, "
                      f"got {m.group(0) if m else 'no requests line'!r}",
                      file=sys.stderr)
                errors += 1
            else:
                print(f"ok: elastic+faults+no-repair lost {m.group(1)}")

        # 7. Usage errors must exit 2 (not 0, not a crash).
        if run(cli, [*BASE, "--shards", "0"], 2, "bad --shards") is None:
            errors += 1
        if run(cli, [*BASE, "--shards", "2", "--load-plan", "x.plan"], 2,
               "--shards with --load-plan") is None:
            errors += 1
        if run(cli, ["--no-such-flag"], 2, "unknown flag") is None:
            errors += 1

        # 8. Malformed workload/fault specs must exit 2 with a one-line
        # diagnostic naming the offending item — never a crash and never a
        # silently-ignored flag.
        errors += run_rejects(
            cli, [*BASE, "--serve", "--faults", "bogus"], "malformed --faults")
        errors += run_rejects(
            cli, [*BASE, "--serve", "--faults", "fail:1@1 trail"],
            "trailing junk in --faults")
        errors += run_rejects(
            cli, [*BASE, "--shards", "2", "--serve", "--jobs", "a:xx"],
            "malformed --jobs")
        errors += run_rejects(
            cli, [*BASE, "--shards", "2", "--serve", "--jobs", "a:0"],
            "zero-count --jobs")
        errors += run_rejects(
            cli, [*BASE, "--serve", "--continuous", "--arrivals", "gauss:4@0"],
            "malformed --arrivals")
        errors += run_rejects(
            cli, [*BASE, "--serve", "--arrivals", "burst:4@0"],
            "--arrivals without --continuous")
        errors += run_rejects(
            cli, [*BASE, "--continuous"], "--continuous without --serve")
        errors += run_rejects(
            cli, [*BASE, "--serve", "--continuous", "--elastic",
                  "flip:2xT4@1"], "malformed --elastic")
        errors += run_rejects(
            cli, [*BASE, "--serve", "--elastic", "join:1xT4@1"],
            "--elastic without --continuous")
        errors += run_rejects(
            cli, [*BASE, "--serve", "--continuous", "--migration", "teleport"],
            "bad --migration")

    if errors:
        print(f"FAIL: {errors} CLI smoke error(s)", file=sys.stderr)
        return 1
    print("CLI smoke: all scenarios passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
