#!/usr/bin/env python3
"""Benchmark of the cuspidal package: one workload per run.

    python3 perfbench/run.py --workload classify_battery --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ./src.  One
process and one closed-loop caller issue every request.  Whole passes over
the workload's inputs run until --seconds have elapsed.

--trace 0 prints the end-to-end metrics.  Their times are corrected for the
host's speed while they ran (hostspeed.SampledClock): on a shared host the
same work drifts 10-50 % in speed from one minute to the next.  The
'# host.slowdown' line gives the quartiles of that correction.

--trace 1 first runs half the
measurement untraced, then repeats the same set-up and the same operations
with every public function of the package wrapped in spans, and prints the
per-layer metrics plus the tracing overhead (traced minus untraced time).
Spans are written to .bench_build/perfbench/ when the run ends.

Lines starting with '#' describe the environment and the workload-specific
figures; the last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
# glibc mallopt parameters: serve and keep every block below 1 GiB from the
# heap, so freed NumPy temporaries are reused instead of unmapped and
# faulted in again on the next call
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MALLOC_KEEP_BYTES = 1 << 30
SETUP_REPEATS = 15
IMPORT_REPEATS = 5
IMPORT_PROBE = "import cuspidal.cli"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def info(name, value, unit=""):
    if isinstance(value, float):
        value = f"{value:.6g}"
    print(f"# {name} {value} {unit}".rstrip())


def percentile(values, q):
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]) \
        if len(values) > 1 else float(values[0])


def measure(wl, seconds=None, n_ops=None, tracer=None):
    """Run whole passes until `seconds` elapse, or exactly `n_ops` operations.

    `tracer` wraps each operation in a span.  Returns (operations, failed,
    wall seconds, {kind: [seconds]}).
    """
    from workloads import CheckFailed
    timings = {}
    failed = 0
    k = 0
    t0 = time.perf_counter()
    while True:
        if n_ops is not None:
            if k >= n_ops:
                break
        elif k % wl.pass_len == 0 and time.perf_counter() - t0 >= seconds:
            break
        try:
            if tracer is not None:
                tracer.request = k
                with tracer.span(f"bench.{wl.name}"):
                    got = wl.op(k)
            else:
                got = wl.op(k)
            for kind, dt in got:
                timings.setdefault(kind, []).append(dt)
        except CheckFailed as exc:
            failed += 1
            sys.stderr.write(f"check failed in operation {k}: {exc}\n")
        k += 1
    return k, failed, time.perf_counter() - t0, timings


def import_seconds(src, clock):
    """Median time a fresh interpreter takes to start and import the package,
    as every command-line call pays it."""
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for _ in range(IMPORT_REPEATS):
        with clock.paused():
            mark = clock.mark()
            subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                           capture_output=True, timeout=120)
            times.append(clock.seconds(mark))
    return statistics.median(times)


def timed_setup(wl, repeats, clock):
    """Median time of the workload's own set-up."""
    times = []
    for _ in range(repeats):
        mark = clock.mark()
        wl.setup()
        times.append(clock.seconds(mark))
    return statistics.median(times)


def keep_freed_memory():
    """Stop glibc malloc from returning large blocks to the kernel.

    By default large NumPy arrays are mmap-ed and unmapped, and each call
    faults their pages in afresh: at grid 720 that is about a third
    of trace_critical_points' time, spent in the kernel, and on a virtual
    machine it varies with the host's load more than any other part of a
    run.  Returns whether the C library accepted the setting.
    """
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:          # not glibc
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all(mallopt(param, MALLOC_KEEP_BYTES) == 1
               for param in (M_MMAP_THRESHOLD, M_TRIM_THRESHOLD))


def environment(seed, malloc_kept):
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info("env.nproc", os.cpu_count())
    info("env.python", platform.python_version())
    info("env.numpy", np.__version__)
    info("env.scipy", scipy.__version__)
    info("env.blas", f"{blas.get('name')}-{blas.get('version')}")
    info("env.blas_threads", ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))
    info("env.malloc_keep_bytes", MALLOC_KEEP_BYTES if malloc_kept else "default")
    info("env.seed", seed)


def end_to_end(wl, setup_s, n, failed, timings):
    """Gated metrics plus the workload's own figures as '#' lines."""
    lat = timings.get("request", [math.nan])
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "requests_per_min": (60.0 * len(lat) / sum(lat), "1/min"),
        "request_p50_ms": (1e3 * statistics.median(lat), "ms"),
    }
    info("failed_frac", failed / max(n, 1))
    info("requests", len(lat))
    if wl.name == "classify_battery":
        info("classify_robots_per_min", metrics["requests_per_min"][0], "1/min")
        info("classify_p50_s", statistics.median(lat), "s")
        info("report_sha256", ",".join(f"{k}={v}" for k, v in sorted(wl.sha.items())))
    elif wl.name == "screen_family":
        info("screen_robots_per_min", metrics["requests_per_min"][0], "1/min")
        info("screen_p50_s", statistics.median(lat), "s")
    else:
        ik, label = timings["ik"], timings["label"]
        info("ik_per_s", len(ik) / sum(ik), "1/s")
        info("ik_p50_ms", 1e3 * statistics.median(ik), "ms")
        info("ik_p99_ms", 1e3 * percentile(ik, 99), "ms")
        info("label_per_s", len(label) / sum(label), "1/s")
        if timings.get("path"):
            info("path_p50_ms", 1e3 * statistics.median(timings["path"]), "ms")
            info("path_queries", len(timings["path"]))
    for key, value in wl.shares(n).items():
        info(key, value)
    return metrics


def per_layer(tracer, wl, n, overhead_s, untraced_s):
    import tracer as tr
    selfs = tracer.self_times()
    counts = tracer.counts
    metrics = {}
    for modname, attr in tr.SPANNED:
        name = f"{modname}.{attr}"
        calls, self_s = selfs.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for modname, attr in tr.COUNTED:
        name = f"{modname}.{attr}.calls"
        metrics[name] = (counts.get(name, 0), "count")
    for key in ("critical.curve_vertices", "critical.cusps_found", "critical.nodes_found",
                "critical.generic_refused", "critical.census_audited_pairs",
                "topology.ps_points", "topology.paths_found", "reduction.ik_counts.points"):
        metrics[key] = (counts.get(key, 0), "count")
    sols, flagged = counts.get("reduction.ik_solutions", 0), counts.get("reduction.ik_flagged_roots", 0)
    metrics["reduction.root_accept_ratio"] = (sols / (sols + flagged) if sols + flagged else 0.0,
                                              "ratio")
    labelled = tracer.calls_under("topology.label_solutions", "topology.is_cuspidal")
    examined = counts.get("topology.cross_validation_points", 0)
    metrics["topology.sample_yield"] = (examined / labelled if labelled else 0.0, "ratio")
    robots = n if wl.name != "query_mix" else len(wl.ROBOTS)
    trace_calls = selfs.get("critical.trace_critical_points", (0, 0.0))[0]
    metrics["critical.trace_critical_points.calls_per_robot"] = (trace_calls / robots, "ratio")
    metrics["cli.bytes_written"] = (getattr(wl, "bytes_written", 0), "count")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    metrics["trace.overhead_frac"] = (overhead_s / untraced_s, "ratio")
    shares = {"share.four_solution_points": 0.0, "share.near_critical_points": 0.0,
              "share.non_generic_draws": 0.0, "share.cuspidal_robots": 0.0,
              "share.paths_found": 0.0}
    shares.update(wl.shares(n))
    for key, value in shares.items():
        metrics[key] = (value, "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS       # before numpy loads OpenBLAS
    malloc_kept = keep_freed_memory()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cuspidal", "__init__.py")):
        sys.stderr.write("error: run from the root of a cuspidal checkout (no src/cuspidal)\n")
        return 2
    sys.path.insert(0, src)
    import json
    import shutil
    import tempfile

    import hostspeed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"one of {', '.join(workloads.WORKLOADS)}\n")
        return 2
    cls = workloads.WORKLOADS[args.workload]
    scratch = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    environment(args.seed, malloc_kept)
    try:
        if args.trace == 0:
            # set-up is the package import plus the workload's own set-up;
            # query_mix builds its maps once, because one build takes ~20 s
            repeats = 1 if args.workload == "query_mix" else SETUP_REPEATS
            with hostspeed.SampledClock() as clock:
                wl = cls(args.seed, workdir, root, clock)
                import_s = import_seconds(src, clock)
                setup_s = import_s + timed_setup(wl, repeats, clock)
                n, failed, _, timings = measure(wl, seconds=args.seconds)
            info("setup.import_s", import_s, "s")
            info("host.slowdown", ",".join(f"{v:.3f}" for v in clock.slowdown()), "q1,q2,q3")
            metrics = end_to_end(wl, setup_s, n, failed, timings)
        else:
            import tracer as tr
            wl = cls(args.seed, workdir, root, hostspeed.WallClock())
            t0 = time.perf_counter()
            wl.setup()
            n, failed, _, _ = measure(wl, seconds=args.seconds / 2)
            untraced = time.perf_counter() - t0
            traced_wl = cls(args.seed, workdir, root, hostspeed.WallClock())
            if hasattr(wl, "sha"):
                traced_wl.sha = dict(wl.sha)    # traced reports must match untraced ones
            tracer = tr.Tracer().install()
            try:
                t0 = time.perf_counter()
                with tracer.span("bench.setup"):
                    traced_wl.setup()
                n2, failed2, _, _ = measure(traced_wl, n_ops=n, tracer=tracer)
                traced = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            failed += failed2
            n += n2
            tracer.write(os.path.join(scratch, f"spans-{args.workload}-{args.seed}.jsonl"))
            info("trace.spans", len(tracer.spans))
            metrics = per_layer(tracer, traced_wl, n2, traced - untraced, untraced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
