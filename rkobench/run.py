#!/usr/bin/env python3
"""Builds rkobench from this checkout and runs it.

    python3 rkobench/run.py --workload <kv_service|npb|migrate_churn> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 rkobench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR/rkobench
(default .bench_build/rkobench) and is incremental; build output goes to
stderr so that the last line of stdout stays the benchmark's JSON result.

BENCHMARK.json is the one list of metrics: the program reports every metric
it measured, and this script keeps the end-to-end (--trace 0) or per-layer
(--trace 1) ones that BENCHMARK.json names. A named metric the program did
not report, a unit that differs, or a name reported twice is a failed check.
The exit status is the benchmark's (non-zero when any output check fails)
or non-zero when the build fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type
JOBS = "3"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "rkobench")


def build(out):
    configure = ["cmake", "-S", HERE, "-B", out, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
    if subprocess.call(configure, stdout=sys.stderr) != 0:
        return False
    return subprocess.call(["cmake", "--build", out, "-j", JOBS],
                           stdout=sys.stderr) == 0


def no_duplicates(pairs):
    names = [name for name, _ in pairs]
    if len(names) != len(set(names)):
        raise ValueError("metric reported twice: " +
                         ", ".join(sorted({n for n in names if names.count(n) > 1})))
    return dict(pairs)


def select(result, wanted):
    """Keeps the metrics BENCHMARK.json names; returns the failed checks."""
    problems = []
    reported = result["metrics"]
    kept = {}
    for spec in wanted:
        m = reported.get(spec["name"])
        if m is None:
            problems.append(f"metric {spec['name']} was not reported")
        elif m["unit"] != spec["unit"]:
            problems.append(f"metric {spec['name']} has unit {m['unit']}, not {spec['unit']}")
        else:
            kept[spec["name"]] = m
    result["metrics"] = kept
    return problems


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = build_dir()
    if not build(out):
        print("rkobench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    proc = subprocess.run([os.path.join(out, "rkobench")] + argv[1:], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if "--selftest" in argv or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        return proc.returncode
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    try:
        result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
    except ValueError as e:
        print(f"CHECK FAILED: {e}")
        return 1
    traced = argv[argv.index("--trace") + 1] == "1" if "--trace" in argv else False
    problems = select(result, spec["per_layer" if traced else "end_to_end"])
    for p in problems:
        print(f"CHECK FAILED: {p}")
    if problems:
        result["correct"] = False
        result["failed"] += len(problems)
    print(json.dumps(result))
    return proc.returncode if proc.returncode != 0 else (1 if problems else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
