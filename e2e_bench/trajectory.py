#!/usr/bin/env python3
"""Measure a trajectory point of the end-to-end benchmark.

    python3 e2e_bench/trajectory.py --label TEXT [--seeds 1-10]
                                    [--workloads soc_find,...] [--append]

Runs `e2e_bench/run.py --trace 0` once per seed and workload, prints each
run, and summarises every end-to-end metric per workload as median, first
and third quartile (statistics.quantiles, n=4) and the quartile spread as a
share of the median. Then one `--trace 1` run per workload at the first seed
adds the per-layer numbers. With --append the point is added to
e2e_bench/trajectory.json. Run from the root of a checkout.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "n": len(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default="soc_find,soup_extract,soup_eco_serve")
    parser.add_argument("--append", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = str(bench["run_seconds"])

    point = {"label": args.label,
             "date": datetime.date.today().isoformat(),
             "seeds": seeds_of(args.seeds), "workloads": {}}
    ok = True

    def run(workload, seed, trace):
        nonlocal ok
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        good = proc.returncode == 0 and result.get("correct") is True
        ok = ok and good
        if not good:
            sys.stderr.write(proc.stdout + proc.stderr)
        return proc.returncode, result if good else None

    for workload in args.workloads.split(","):
        values = {}
        for seed in point["seeds"]:
            code, result = run(workload, seed, 0)
            metrics = result["metrics"] if result else {}
            print("%s seed %d: exit %d %s" % (
                workload, seed, code,
                {k: round(v["value"], 4) for k, v in metrics.items()}),
                flush=True)
            for name, metric in metrics.items():
                values.setdefault(name, []).append(metric["value"])
        summaries = {name: summary(v) for name, v in values.items()
                     if len(v) >= 2}
        for name, s in summaries.items():
            print("%s %-12s median %.6g  q1 %.6g  q3 %.6g  spread %.3f"
                  % (workload, name, s["median"], s["q1"], s["q3"],
                     s["spread"]), flush=True)
        code, result = run(workload, point["seeds"][0], 1)
        print("%s traced seed %d: exit %d" % (workload, point["seeds"][0],
                                               code), flush=True)
        point["workloads"][workload] = {
            "end_to_end": summaries,
            "per_layer": {k: v["value"]
                          for k, v in (result or {}).get("metrics", {}).items()},
        }
    if args.append and ok:
        path = os.path.join(HERE, "trajectory.json")
        with open(path) as f:
            trajectory = json.load(f)
        trajectory["points"].append(point)
        with open(path, "w") as f:
            json.dump(trajectory, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
