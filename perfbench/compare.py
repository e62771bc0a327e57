#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare them against BENCHMARK.json.

    python3 perfbench/compare.py collect --workload corpus --seeds 1-10 --out a.jsonl
    python3 perfbench/compare.py spread a.jsonl
    python3 perfbench/compare.py diff base.jsonl new.jsonl

``collect`` runs ``perfbench/run.py`` once per seed for ``run_seconds`` and
appends one JSON line per run.  ``spread`` prints, per workload and metric,
the median and the quartile distance as a share of the median, and flags a
spread above a third of the metric's bound (the benchmark's own steadiness
target) or above the bound itself.  ``diff`` compares two sets metric by
metric: a median worse than the base by more than the bound is a
regression, and a metric whose base spread exceeds its bound is reported
unresolved unless every new run beats every base run.  Both also check
that the share of failed operations is identical in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args) -> int:
    spec = load_spec()
    status = 0
    with open(args.out, "a", encoding="utf-8") as out:
        for seed in parse_seeds(args.seeds):
            argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
                    args.workload, "--seed", str(seed), "--seconds",
                    str(spec["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            record = {"workload": args.workload, "seed": seed, "trace": args.trace,
                      "wall_s": wall, "result": result}
            out.write(json.dumps(record) + "\n")
            out.flush()
            print(f"{args.workload} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed")
    return status


def load_runs(path) -> dict:
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                runs[(record["workload"], record["trace"])].append(record)
    return runs


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def failed_shares(records) -> set:
    return {r["result"]["failed"] / r["result"]["attempted"] for r in records}


def spread(args) -> int:
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    status = 0
    for (workload, trace), records in sorted(load_runs(args.runs).items()):
        walls = [r["wall_s"] for r in records]
        print(f"{workload} trace={trace}: {len(records)} runs, wall {min(walls):.1f}-"
              f"{max(walls):.1f} s, all correct: {all(r['result']['correct'] for r in records)}, "
              f"failed shares: {sorted(failed_shares(records))}")
        names = records[0]["result"]["metrics"]
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in records]
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name) if trace == 0 else None
            flag = ""
            if bound is not None and name != "setup_s":
                if share > bound:
                    flag, status = "UNSTEADY (spread > bound)", 1
                elif share > bound / 3:
                    flag = "wide (spread > bound/3)"
            print(f"  {name:<44} median {med:<12.6g} spread {share:7.2%}"
                  f"{'' if bound is None else f'  bound {bound:.0%}'}  {flag}")
    return status


def diff(args) -> int:
    spec = load_spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    base, new = load_runs(args.base), load_runs(args.new)
    status = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        if trace != 0:
            continue
        b_runs, n_runs = base[key], new[key]
        same_failed = failed_shares(b_runs) == failed_shares(n_runs)
        status |= 0 if same_failed else 1
        print(f"{workload}: {len(b_runs)} base runs, {len(n_runs)} new runs, "
              f"failed share {'identical' if same_failed else 'DIFFERS'}")
        for name in bounds:
            bv = [r["result"]["metrics"][name]["value"] for r in b_runs]
            nv = [r["result"]["metrics"][name]["value"] for r in n_runs]
            bq1, bmed, bq3 = quartiles(bv)
            nmed = statistics.median(nv)
            sign = 1.0 if better[name] == "lower" else -1.0
            worse = sign * (nmed - bmed) / bmed
            if better[name] == "lower":
                all_better = max(nv) < min(bv)
            else:
                all_better = min(nv) > max(bv)
            if worse > bounds[name]:
                verdict, status = "REGRESSION", 1
            elif (bq3 - bq1) / bmed > bounds[name] and not all_better:
                verdict = "unresolved (base spread > bound)"
            elif -worse > (bq3 - bq1) / bmed:
                verdict = "better"
            else:
                verdict = "no change"
            print(f"  {name:<20} base {bmed:<12.6g} new {nmed:<12.6g} "
                  f"worse by {worse:+7.2%} (bound {bounds[name]:.0%})  {verdict}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run the benchmark once per seed")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="JSON-lines file, appended to")
    p = sub.add_parser("spread", help="quartile spread of each metric in one set")
    p.add_argument("runs")
    p = sub.add_parser("diff", help="compare a new set of runs with a base set")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args(argv)
    return {"collect": collect, "spread": spread, "diff": diff}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
