"""Benchmark of the quivermoduli CLI: one workload, one run.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

A run is a single-threaded closed loop: it starts one pass of the
workload in a fresh interpreter (``worker.py``), waits for it, and
starts the next until ``--seconds`` have passed, so no cache survives
from one pass to the next. End-to-end metrics summarise the untraced
passes: ``wall_s`` (time inside ``cli.main``, summed over a pass's items)
is the 90th percentile of the passes; ``setup_s`` (the timed
``import quivermoduli.cli``) and ``peak_rss_mb`` are medians. On a shared
machine pass times are bimodal: most passes run at the contended speed
and bursts run up to 1.7x faster; a high percentile follows the common
speed and varied least between runs (see README.md).

With ``--trace 1`` untraced and traced passes alternate, and the
per-layer metrics come from the traced ones; their spans are written to
``perfbench/out/``. ``--smoke`` runs one pass (and one traced pass) of
the first item only.

The last stdout line is the result: ``correct``, ``attempted``,
``failed`` (item failures other than the known ones listed in
``workloads.KNOWN_FAILURES``) and the metrics. The line before it is a
report with every pass's wall time, the tail percentile, the failure
ratio including known failures, and the combined sha256 of the outputs.

Exits 2 without a result when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: A pass still running at this point of a run is killed, so that the run
#: ends within 180 s whatever the program does.
RUN_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "halfq.RatFunc.from_ratio.calls": "count",
    "halfq.RatFunc.from_ratio.self_s": "s",
    "halfq.RatFunc.den_degree.max": "degree",
    "halfq.HalfLaurent.mul.calls": "count",
    "halfq.HalfLaurent.mul.self_s": "s",
    "halfq.SlopeSeries.mul.calls": "count",
    "halfq.SlopeSeries.mul.self_s": "s",
    "halfq.series_log.self_s": "s",
    "halfq.pleth_log.self_s": "s",
    "invariants.hn_decompositions.count": "count",
    "invariants.hn_decompositions.self_s": "s",
    "invariants.p_poly.calls": "count",
    "invariants.p_poly.self_s": "s",
    "invariants.dt_invariants.self_s": "s",
    "deform.generic_deformation.self_s": "s",
    "deform.is_generic_deformation.calls": "count",
    "deform.is_generic_deformation.self_s": "s",
    "core.Quiver.euler_form.calls": "count",
    "core.Quiver.euler_form.self_s": "s",
    "core.is_coprime.self_s": "s",
    "core.box_scan.cells": "count",
    "strata.luna_types.count": "count",
    "strata.luna_types.self_s": "s",
    "strata.certify_smallness.self_s": "s",
    "strata.local_quiver.calls": "count",
    "strata.fiber_dim_bound.calls": "count",
    "cli.main.self_s": "s",
    "cli.main.calls": "count",
    "cli.load_problem.self_s": "s",
    "cli.self_share": "ratio",
    "catalog.self_share": "ratio",
    "core.self_share": "ratio",
    "halfq.self_share": "ratio",
    "invariants.self_share": "ratio",
    "deform.self_share": "ratio",
    "strata.self_share": "ratio",
    "trace.overhead_ratio": "ratio",
    "bench.fail_ratio": "ratio",
}


def is_time(name: str) -> bool:
    """Timings and shares vary between passes; every other layer metric is a count."""
    return name.endswith((".self_s", ".self_share"))


def run_pass(args, traced: bool, deadline: float):
    """One worker pass; returns its summary, or raises RuntimeError."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
    ]
    if traced:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.csv")
        cmd += ["--trace", "--spans", spans]
    if args.smoke:
        cmd.append("--smoke")
    # a fixed hash seed makes every pass of a run execute identically
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError("a pass was killed at the run time limit") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise RuntimeError(f"worker exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p90(samples: list[float]) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def tail_percentile(samples: list[float]):
    """The highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    return {"percentile": round(100 * (n - 10) / n, 1), "value": sorted(samples)[n - 11]}


def layer_metrics(traced: list[dict], untraced: list[dict], fail_ratio: float):
    """Per-layer metrics, plus whether every count repeated across traced passes."""
    values = {}
    repeat = True
    for name in PER_LAYER:
        samples = [p["layers"].get(name, 0) for p in traced]
        if is_time(name):
            values[name] = statistics.median(samples)
        else:
            repeat = repeat and len(set(samples)) == 1
            values[name] = samples[0]
    values["trace.overhead_ratio"] = statistics.median(
        p["wall_s"] for p in traced
    ) / statistics.median(p["wall_s"] for p in untraced)
    values["bench.fail_ratio"] = fail_ratio
    return values, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="one pass of the first item")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "quivermoduli", "cli.py")):
        sys.stderr.write("perfbench: the package source src/quivermoduli is missing\n")
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    untraced: list[dict] = []
    traced: list[dict] = []
    broken = None
    while True:
        want_trace = bool(args.trace) and len(traced) < len(untraced)
        try:
            summary = run_pass(args, want_trace, deadline)
        except RuntimeError as exc:
            broken = str(exc)
            break
        (traced if want_trace else untraced).append(summary)
        complete = bool(untraced) and (bool(traced) or not args.trace)
        if complete and (args.smoke or time.monotonic() - start >= args.seconds):
            break
    if not untraced or (args.trace and not traced):
        sys.stderr.write(f"perfbench: no pass completed: {broken}\n")
        return 1

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    unexpected = [f for f in failures if not f["known"]]
    fail_ratio = len(failures) / attempted
    digests = {p["output_sha256"] for p in passes}
    walls = [p["wall_s"] for p in untraced]

    if args.trace:
        metrics, counts_repeat = layer_metrics(traced, untraced, fail_ratio)
        units = PER_LAYER
    else:
        metrics, counts_repeat = {
            "wall_s": p90(walls),
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        }, True
        units = END_TO_END
    correct = broken is None and not unexpected and len(digests) == 1 and counts_repeat

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "wall_s": {
            "median": statistics.median(walls),
            "p90": p90(walls),
            "tail": tail_percentile(walls),
            "samples": walls,
        },
        "fail_ratio": fail_ratio,
        "failures": sorted({(f["id"], f["reason"], f["known"]) for f in failures}),
        "output_sha256": sorted(digests),
        "counts_repeat": counts_repeat,
        "broken": broken,
    }
    print(json.dumps(report))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(unexpected) + (broken is not None),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
