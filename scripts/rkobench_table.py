#!/usr/bin/env python3
"""Collect rkobench runs of two trees into one JSON file and render the
EXPERIMENTS.md tables from it.

  rkobench_table.py collect --parent DIR --change DIR -o OUT.json
      DIR holds one `rkobench/run.py` stdout capture per run, named
      <workload>.<seed>.txt (--trace 0) and <workload>.traced.txt
      (--trace 1, seed 1); the last line of each is the run's JSON.
  rkobench_table.py render OUT.json [--layer KEY ...]
      Prints, per workload, each end-to-end metric's median and
      quartiles at the parent and at the change and the number of seeds
      on which the change is better (direction from BENCHMARK.json), then
      the traced seed-1 values of the per-layer keys named by --layer
      (a key a workload reports as 0 on both sides is left out).

Exit status: 0 ok, 2 usage or parse error.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
WORKLOADS = ("kv_service", "npb", "migrate_churn")


def last_json(path):
    with open(path, encoding="utf-8") as f:
        lines = [l for l in f if l.startswith("{")]
    if not lines:
        raise ValueError(f"{path}: no JSON line")
    run = json.loads(lines[-1])
    return {k: v["value"] for k, v in run["metrics"].items()}


def collect_tree(directory):
    runs, traced = {}, {}
    for path in sorted(glob.glob(os.path.join(directory, "*.txt"))):
        workload, tag = os.path.basename(path)[:-4].split(".", 1)
        if tag == "traced":
            traced[workload] = last_json(path)
        else:
            runs.setdefault(workload, {})[tag] = last_json(path)
    return runs, traced


def collect(args):
    out = {"schema": "rkobench-pairs-v1", "runs": {}, "traced": {}}
    for side, directory in (("parent", args.parent), ("change", args.change)):
        out["runs"][side], out["traced"][side] = collect_tree(directory)
    with open(args.output, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def fmt(v):
    return f"{v:.4g}" if abs(v) < 1e4 else f"{v:.0f}"


def render(args):
    with open(args.results, encoding="utf-8") as f:
        data = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    parent, change = data["runs"]["parent"], data["runs"]["change"]
    print("| workload | metric | parent | change | change better |")
    print("|---|---|---|---|---|")
    for w in WORKLOADS:
        seeds = sorted(set(parent.get(w, {})) & set(change.get(w, {})), key=int)
        if not seeds:
            continue
        for metric, lower_is_better in lower.items():
            p = [parent[w][s][metric] for s in seeds]
            c = [change[w][s][metric] for s in seeds]
            wins = sum((y < x) if lower_is_better else (y > x) for x, y in zip(p, c))
            pm, pq1, pq3 = quartiles(p)
            cm, cq1, cq3 = quartiles(c)
            print(f"| {w} | {metric} | {fmt(pm)} [{fmt(pq1)}, {fmt(pq3)}] "
                  f"| {fmt(cm)} [{fmt(cq1)}, {fmt(cq3)}] | {wins}/{len(seeds)} |")
    if args.layer:
        print()
        print("| workload (traced, seed 1) | metric | parent | change |")
        print("|---|---|---|---|")
        for w in WORKLOADS:
            tp = data["traced"]["parent"].get(w)
            tc = data["traced"]["change"].get(w)
            if tp is None or tc is None:
                continue
            for key in args.layer:
                if tp.get(key, 0) != 0 or tc.get(key, 0) != 0:
                    print(f"| {w} | {key} | {fmt(tp[key])} | {fmt(tc[key])} |")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--parent", required=True)
    c.add_argument("--change", required=True)
    c.add_argument("-o", "--output", required=True)
    r = sub.add_parser("render")
    r.add_argument("results")
    r.add_argument("--layer", action="append", default=[])
    args = parser.parse_args(argv[1:])
    try:
        return collect(args) if args.cmd == "collect" else render(args)
    except (OSError, ValueError, KeyError) as e:
        print(f"rkobench_table: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
