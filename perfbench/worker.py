"""Runs one workload's job list in a closed loop and writes its timings.

``run.py`` starts this file in a fresh interpreter with BLAS threads pinned
and ``PYTHONPATH`` pointing at the checkout's ``src``. One client runs the
jobs one after another, each only after the previous one finished, the way
a researcher runs configs. Passes over the whole job list repeat until
``--seconds`` have elapsed, and the last pass runs to its end. With
``--trace 1`` untraced and traced passes alternate, so the traced run also
measures its own overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
import spinfid

import tracing
import workloads
from run import summarize

ROOT = Path(__file__).resolve().parent.parent
TAIL_BEYOND = 10  # samples beyond the reported tail percentile


def tail(times_by_pass) -> tuple[float, float]:
    """Job time at the highest percentile with TAIL_BEYOND jobs beyond it.

    For J jobs that is percentile 100 (J - TAIL_BEYOND) / J. It is read off
    the job times of every pass pooled, so that one disturbed pass moves it
    by at most a few ranks.
    """
    jobs = len(times_by_pass[0])
    if jobs <= TAIL_BEYOND:
        raise ValueError(f"{jobs} jobs leave no percentile with {TAIL_BEYOND} jobs beyond it")
    pooled = sorted(t for times in times_by_pass for t in times)
    return pooled[(jobs - TAIL_BEYOND) * len(times_by_pass) - 1], 100.0 * (jobs - TAIL_BEYOND) / jobs


def run_pass(jobs, tracer: tracing.Tracer | None, index: int, out_root: Path) -> dict:
    times, failures, deviations = [], [], {}
    lo = len(tracer.spans) if tracer else 0
    for k, job in enumerate(jobs):
        span = contextlib.nullcontext()
        if tracer is not None:
            tracer.job, tracer.pass_index = k, index
            span = tracer.span(tracing.JOB_SPAN)
        elapsed = None
        start = time.perf_counter()
        try:
            with span:
                output = job.run(out_root / job.name)
            elapsed = time.perf_counter() - start
            deviations[job.name] = job.check(output)
            output = None
        except Exception as exc:  # a failing job is counted and the workload goes on
            if elapsed is None:
                elapsed = time.perf_counter() - start
            failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        times.append(elapsed)
    shutil.rmtree(out_root, ignore_errors=True)
    result = {"traced": tracer is not None, "wall_s": sum(times), "job_s": times,
              "failures": failures, "deviations": deviations}
    if tracer is not None:
        tracer.job = tracer.pass_index = None
        result["layers"] = tracer.layer_totals(lo, len(tracer.spans))
        result["counts"] = dict(tracer.counts)
        tracer.counts.clear()
    return result


def layer_value(name: str, traced_pass: dict, absent: list[str]):
    """One per-layer metric of one traced pass; None when its layer is absent."""
    layers, counts = traced_pass["layers"], traced_pass["counts"]
    if name in tracing.COUNTERS:
        return counts.get(name, 0)
    if name == "trace.unattributed_s":
        return layers["self_s"].get(tracing.JOB_SPAN, 0.0)
    span, _, stat = name.rpartition(".")
    if stat == "errors":
        installed = [p[0] for p in tracing.TRACE_POINTS if p[0] not in absent]
        if not any(s.startswith(span + ".") for s in installed):
            return None
        return layers["errors"].get(span, 0)
    if span in absent or stat not in ("s", "self_s", "calls"):
        return None
    return layers[stat].get(span, 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", default="full", choices=workloads.SIZES)
    parser.add_argument("--inject-failure", action="store_true")
    parser.add_argument("--per-layer", default="", help="comma-separated per-layer metric names")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args(argv)

    if not Path(spinfid.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"spinfid was imported from {spinfid.__file__}, not from {ROOT / 'src'}")
    jobs = workloads.build_jobs(args.workload, args.seed, args.size, args.workdir,
                                ROOT / "configs")
    if args.inject_failure:
        jobs.append(workloads.guard_violation_job(args.workdir))

    # first job of each kind, untimed: one-off lazy set-up stays out of the passes
    warm = {}
    for job in jobs:
        warm.setdefault(job.name.split("-")[0], job)
    out_root = args.workdir / "out"
    for job in warm.values():
        with contextlib.suppress(Exception):
            job.run(out_root / job.name)
    shutil.rmtree(out_root, ignore_errors=True)

    tracer = tracing.Tracer() if args.trace else None
    wanted = 2 if tracer is not None else 1
    passes = []
    start = time.perf_counter()
    while len(passes) < wanted or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            passes.append(run_pass(jobs, tracer if traced else None, len(passes), out_root))
        finally:
            if traced:
                tracer.uninstall()

    plain = [p for p in passes if not p["traced"]]
    job_times = [t for p in plain for t in p["job_s"]]
    tail_value, tail_pct = tail([p["job_s"] for p in plain])
    wall = summarize(p["wall_s"] for p in plain)
    metrics = {
        "wall_s": wall["median"],
        "job_p50_s": statistics.median(job_times),
        "job_tail_s": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    failures = [f for p in passes for f in p["failures"]]
    deviations = {}
    for p in passes:
        for values in p["deviations"].values():
            for key, v in values.items():
                deviations[key] = max(deviations.get(key, 0.0), v)

    result = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "jobs": [j.name for j in jobs],
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"], "job_s": p["job_s"]}
                   for p in passes],
        "metrics": metrics,
        "stats": {"wall_s": wall, "job_s": summarize(job_times),
                  "job_tail_percentile": tail_pct, "job_count": len(jobs)},
        "attempted": len(jobs) * len(passes), "failed": len(failures), "failures": failures,
        "deviations": deviations,
        "versions": {
            "spinfid": spinfid.__version__, "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        },
        "counts_consistent": True,
    }

    if tracer is not None:
        traced = [p for p in passes if p["traced"]]
        exact = [dict(p["counts"], jobs=len(jobs),
                      **{f"{k}.calls": v for k, v in p["layers"]["calls"].items()})
                 for p in traced]
        result["counts_consistent"] = all(c == exact[0] for c in exact)
        result["counts"] = exact[0]
        per_layer = {"jobs": len(jobs),
                     "trace.overhead_s": summarize(p["wall_s"] for p in traced)["median"] - wall["median"]}
        for name in args.per_layer.split(","):
            values = [layer_value(name, p, tracer.absent) for p in traced]
            if name not in per_layer and values[0] is not None:
                same = all(v == values[0] for v in values)
                per_layer[name] = values[0] if same else statistics.median(values)
        result["per_layer"] = per_layer
        result["absent"] = tracer.absent
        tracer.write(args.spans)

    args.result.parent.mkdir(parents=True, exist_ok=True)
    args.result.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
