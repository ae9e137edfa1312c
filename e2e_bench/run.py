#!/usr/bin/env python3
"""End-to-end benchmark of SubGemini: one command, three workloads.

    python3 e2e_bench/run.py --workload soc_find|soup_extract|soup_eco_serve|all
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds `e2e_driver` from source
(e2e_bench/CMakeLists.txt compiles ../src next to it), writes the
workload's inputs for the seed (never timed), then starts cold workload
processes until the run's time is used up. Each process times set-up and
the run, checks its outputs against answers the matcher under test did not
produce, and reports deterministic work counts, which must repeat exactly.

With --trace 0 the result's metrics are the end-to-end metrics; with
--trace 1 processes alternate untraced and traced, the metrics are the
per-layer numbers of the traced ones, and the span coverage and tracing
overhead are reported too. Human-readable lines go first; the last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Build products, inputs and per-run records go under the build directory
($CARGO_TARGET_DIR, default .bench_build).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROCESS_TIMEOUT_S = 150

# Work counts that must repeat exactly across processes of one input.
EXACT_COUNTS = (
    "netlist.devices", "netlist.nets", "graph.csr_bytes",
    "phase1.candidates", "phase2.expansion_ops", "phase2.guesses",
    "session.invalidated_labels", "report.bytes",
)

def load_specs():
    """Metric names and units (BENCHMARK.json) and the workload specs
    (workloads.json)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    return bench["run_seconds"], workloads, (end_to_end, per_layer)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def work_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure and build e2e_driver; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources not found next to e2e_bench/")
    build_dir = os.path.join(work_dir(), "e2e_build")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n" not in f.read():
                shutil.rmtree(build_dir)
    if not os.path.exists(cache):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "e2e_driver",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "e2e_driver")


def inputs_for(driver, workload, seed, seed_free):
    """Generate (once per seed, or once for a seed-free workload) and return
    the workload's input directory."""
    name = workload if seed_free else "%s-%d" % (workload, seed)
    final = os.path.join(work_dir(), "inputs", name)
    if os.path.isfile(os.path.join(final, "manifest.json")):
        return final
    staging = final + ".tmp"
    shutil.rmtree(staging, ignore_errors=True)
    subprocess.run([driver, "gen", "--workload", workload, "--seed",
                    str(seed), "--dir", staging], check=True,
                   timeout=PROCESS_TIMEOUT_S)
    shutil.rmtree(final, ignore_errors=True)
    os.rename(staging, final)
    return final


def run_process(driver, workload, inputs, out, traced=False, setup_only=False,
                light=False):
    cmd = [driver, "run", "--workload", workload, "--inputs", inputs,
           "--out", out]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if light:
        cmd.append("--light-checks")
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (workload, proc.returncode,
                                                 proc.stderr.strip()))
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["wall_s"] = time.monotonic() - started
    record["traced"] = traced
    if traced:
        with open(os.path.join(out, "trace.json")) as f:
            record["spans"] = json.load(f)
    return record


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """q-th percentile (0 < q < 100) of values, inclusive method."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(driver, workload, spec, seed, seconds, trace):
    """One run: cold processes until `seconds` are used, then set-up tops."""
    inputs = inputs_for(driver, workload, seed, spec.get("seed_free", False))
    out = os.path.join(work_dir(), "out", workload)
    os.makedirs(out, exist_ok=True)
    started = time.monotonic()
    full = []
    minimum = 2 if trace else 1
    # Start another process while at least half of one still fits.
    while len(full) < minimum or (time.monotonic() - started
                                  + full[-1]["wall_s"] / 2 < seconds):
        # The first process runs every output check; later ones skip the
        # costly ones and must reproduce its output digest instead.
        traced = trace and len(full) % 2 == 1
        full.append(run_process(driver, workload, inputs, out, traced=traced,
                                light=bool(full)))
    setups = [r["setup_s"] for r in full]
    extra = []
    while len(setups) < spec["min_setups"]:
        rec = run_process(driver, workload, inputs, out, setup_only=True)
        extra.append(rec)
        setups.append(rec["setup_s"])
    elapsed = time.monotonic() - started
    return full, extra, setups, elapsed


def check_counts(workload, seed, records, driver):
    """Counts and output digests repeat within the run, and counts across
    runs of the same seed."""
    problems = []
    if any(r["output_digest"] != records[0]["output_digest"] for r in records):
        problems.append("%s: output differs from the fully checked process"
                        % workload)
    for traced in (False, True):
        group = [r["counts"] for r in records if r["traced"] == traced]
        for other in group[1:]:
            for name in EXACT_COUNTS:
                if other.get(name) != group[0].get(name):
                    problems.append("%s: work count %s differs between "
                                    "processes" % (workload, name))
    with open(driver, "rb") as f:
        build_id = hashlib.sha1(f.read()).hexdigest()[:16]
    ref_dir = os.path.join(work_dir(), "counts")
    os.makedirs(ref_dir, exist_ok=True)
    ref = os.path.join(ref_dir, "%s-%d-%s.json" % (workload, seed, build_id))
    mine = {n: records[0]["counts"].get(n) for n in EXACT_COUNTS}
    if os.path.exists(ref):
        with open(ref) as f:
            before = json.load(f)
        for name in EXACT_COUNTS:
            if before.get(name) != mine.get(name):
                problems.append("%s: work count %s differs from an earlier "
                                "run of seed %d" % (workload, name, seed))
    else:
        with open(ref, "w") as f:
            json.dump(mine, f)
    return problems


def layer_value(workload, name, traced, full, bypassed):
    """Median over traced processes of one per-layer metric."""
    latency = {"serve.find_ms_p50": ("find", 50),
               "serve.find_ms_p90": ("find", 90),
               "serve.patch_ms_p50": ("patch", 50),
               "serve.patch_ms_p90": ("patch", 90)}
    if name in latency:
        kind, q = latency[name]
        pooled = [v for r in full for v in r["latency_ms"].get(kind, [])]
        if pooled:
            return percentile(pooled, q)
    elif name == "trace.overhead_s":
        plain = [r["total_s"] for r in full if not r["traced"]]
        return median([r["total_s"] for r in traced]) - median(plain)
    else:
        values = [r["layers"].get(name, r["counts"].get(name))
                  for r in traced]
        if all(v is not None for v in values):
            return median(values)
    if name.startswith(bypassed):
        return 0.0
    raise RuntimeError("%s: per-layer metric %s was not measured"
                       % (workload, name))


def run_workload(driver, metric_specs, workload, spec, seed, seconds, trace):
    end_to_end, per_layer = metric_specs
    full, extra, setups, elapsed = measure(driver, workload, spec, seed,
                                           seconds, trace)
    records = full + extra
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    failures = [f for r in records for f in r["failures"]]
    # The run's own checks count as operations too: counts repeat, and in
    # a traced run the spans cover the timed region.
    problems = check_counts(workload, seed, full, driver)
    attempted += 1
    failed += 1 if problems else 0
    failures += problems
    plain = [r for r in full if not r["traced"]]
    traced = [r for r in full if r["traced"]]

    e2e = {
        "setup_s": median(setups),
        "run_s": median([r["run_s"] for r in plain]),
        "total_s": median([r["total_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }
    find = [v for r in plain for v in r["latency_ms"].get("find", [])]
    patch = [v for r in plain for v in r["latency_ms"].get("patch", [])]
    print("# %s seed %d: %d cold process(es) + %d set-up only, %.1f s"
          % (workload, seed, len(full), len(extra), elapsed))
    for name, unit in end_to_end.items():
        print("%s %s %.6g %s" % (workload, name, e2e[name], unit))
    print("%s error_rate %.6g ratio (%d failed of %d checked)"
          % (workload, failed / max(attempted, 1), failed, attempted))
    for kind, values in (("find", find), ("patch", patch)):
        if values:
            print("%s %s_ms_p50 %.6g ms (n=%d)"
                  % (workload, kind, percentile(values, 50), len(values)))
            print("%s %s_ms_p90 %.6g ms (n=%d)"
                  % (workload, kind, percentile(values, 90), len(values)))
    counts = plain[0]["counts"] if plain else full[0]["counts"]
    print("%s counts %s" % (workload, json.dumps(
        {n: counts.get(n, 0) for n in EXACT_COUNTS}, sort_keys=True)))
    if trace:
        bypassed = tuple(spec["bypassed_metrics"])
        metrics = {n: {"value": layer_value(workload, n, traced, full,
                                            bypassed),
                       "unit": u} for n, u in per_layer.items()}
        spans = traced[0]["spans"]
        coverage = metrics["trace.coverage"]["value"]
        print("%s trace coverage %.4f of total_s, unattributed %.6g s, "
              "tracing overhead %.6g s" % (
                  workload, coverage,
                  metrics["trace.unattributed_s"]["value"],
                  metrics["trace.overhead_s"]["value"]))
        attempted += 1
        if coverage < 0.95:
            failed += 1
            failures.append("%s: top-level spans cover %.3f of total_s, "
                            "below 0.95" % (workload, coverage))
        report = os.path.join(work_dir(), "results",
                              "%s-seed%d-trace.json" % (workload, seed))
        os.makedirs(os.path.dirname(report), exist_ok=True)
        with open(report, "w") as f:
            json.dump({"workload": workload, "seed": seed,
                       "per_layer": metrics, "spans": spans}, f, indent=1)
        print("%s trace written to %s" % (workload, report))
    else:
        metrics = {n: {"value": e2e[n], "unit": u}
                   for n, u in end_to_end.items()}
    for f in failures:
        print("%s FAILED %s" % (workload, f))
    return {"correct": not failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    try:
        run_seconds, workloads, metric_specs = load_specs()
    except (OSError, ValueError, KeyError) as e:
        log("e2e_bench: cannot read the benchmark's specs: %s" % e)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads["workloads"]) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads["default_seed"])
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        driver = build()
        specs = workloads["workloads"]
        names = list(specs) if args.workload == "all" else [args.workload]
        results = {w: run_workload(driver, metric_specs, w, specs[w],
                                   args.seed, args.seconds, args.trace == 1)
                   for w in names}
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("e2e_bench: %s" % e)
        return 2
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, n): m for w, r in results.items()
                        for n, m in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
