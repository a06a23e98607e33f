#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source, runs one workload
and prints its metrics.

    python3 perfbench/run.py --workload compile|solve|serve --seed N \\
        --seconds S --trace 0|1

Run from the repository root. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones (from a traced run, plus the tracing overhead measured against an
untraced run of the same seed). The line before it records the seed and
any failed reference check. Exits non-zero when a reference check fails
or the program cannot be built. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
MAX_THREADS = 4
RUN_TIMEOUT_S = 170

# The operation each workload times, as its cell family in the raw output.
OP_FAMILY = {"compile": "analyze", "solve": "exec", "serve": "request"}
SOLVE_KERNELS = ("fs_csc", "fs_csr", "gs_csr", "lchol_csc")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the perfbench binary; returns its path."""
    threads = str(min(MAX_THREADS, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", threads], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def run_workload(binary, args, trace):
    """One perfbench process; returns its raw measurements."""
    scratch = os.path.join(BUILD, "run-%d-%d" % (os.getpid(), trace))
    trace_out = os.path.join(BUILD, "trace-%s.json" % args.workload)
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        out = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(trace),
             "--threads", str(min(MAX_THREADS, os.cpu_count() or 1)),
             "--scratch", scratch,
             "--trace-out", trace_out],
            check=True, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return json.loads(out.stdout)


def cell_medians(raw, family, prefix=""):
    cells = raw["cells"].get(family, {})
    return {name: stats.median(v) for name, v in sorted(cells.items())
            if name.startswith(prefix) and v}


def end_to_end(raw):
    """The end-to-end metrics of one run."""
    cells = raw["cells"][OP_FAMILY[raw["workload"]]].values()
    return {
        "setup_s": stats.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_frac": 1.0 - stats.failed_frac(raw["attempted"], raw["failed"]),
        "compile_s": stats.median(raw["compile_s"]),
        "op_ms": stats.geomean([stats.median(v) for v in cells]),
        "op_p90_ms": stats.geomean([stats.tail(v, 90)[0] for v in cells]),
    }


def per_layer(raw):
    """The per-layer readings of one run. A layer the workload does not
    exercise is absent here and reported as 0."""
    m = {k: v for k, v in raw["values"].items()}
    m["failed_frac"] = stats.failed_frac(raw["attempted"], raw["failed"])

    for kernel, ms in cell_medians(raw, "analyze").items():
        m["deps.analyze_s." + kernel] = ms / 1e3

    def geo(family, prefix=""):
        meds = list(cell_medians(raw, family, prefix).values())
        return stats.geomean(meds) if meds else None

    for name, family in (("plan_ms", "plan"),
                         ("driver.inspect_ms", "inspect"),
                         ("runtime.schedule_ms", "schedule"),
                         ("runtime.parallelism", "parallelism")):
        value = geo(family)
        if value is not None:
            m[name] = value
    for kernel in SOLVE_KERNELS:
        for name, family in (("runtime.exec_ms.", "exec"),
                             ("runtime.serial_ms.", "serial")):
            value = geo(family, kernel + "/")
            if value is not None:
                m[name + kernel] = value
    execs, serials = cell_medians(raw, "exec"), cell_medians(raw, "serial")
    ratios = [serials[c] / execs[c] for c in execs if c in serials]
    if ratios:
        m["runtime.exec_vs_serial"] = stats.geomean(ratios)
        m["runtime.exec_vs_serial_min"] = min(ratios)

    samples = raw["samples"]
    latency = raw["cells"].get("request", {}).get("serve")
    if latency:
        m["serve.samples"] = len(latency)
        m["serve.latency_ms_p99"] = stats.tail(latency)[0]
        for base in ("serve.queue_ms", "serve.service_ms"):
            m[base + "_p50"] = stats.median(samples[base])
            m[base + "_p99"] = stats.tail(samples[base])[0]
        for base in ("serve.warm_service_ms", "serve.cold_service_ms"):
            if samples.get(base):
                m[base + "_p50"] = stats.median(samples[base])
    return m


def declared(bench, section):
    return [(entry["name"], entry["unit"]) for entry in bench[section]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(OP_FAMILY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        log("perfbench: build failed:", err)
        return 1

    try:
        raw = run_workload(binary, args, 0)
        metrics = end_to_end(raw)
        attempted, failed = raw["attempted"], raw["failed"]
        failures = raw["failures"]
        section = "end_to_end"
        if args.trace:
            base = metrics
            raw = run_workload(binary, args, 1)
            traced = end_to_end(raw)
            metrics = per_layer(raw)
            for name in base:
                metrics["trace_overhead." + name] = traced[name] - base[name]
            attempted += raw["attempted"]
            failed += raw["failed"]
            failures += raw["failures"]
            section = "per_layer"
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as err:
        log("perfbench: workload run failed:", err)
        return 1

    unknown = sorted(set(metrics) - {n for n, _ in declared(bench, section)})
    if unknown:
        log("perfbench: metrics missing from BENCHMARK.json:", unknown)
        return 1
    correct = failed == 0
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "threads": raw["threads"],
                      "failures": failures}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in declared(bench, section)},
    }))
    if not correct:
        log("perfbench: reference checks failed:", failures)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
