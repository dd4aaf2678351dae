"""spinfid benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload oracle_ising --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; spinfid is imported from its
``src/``. The run measures ``setup_s`` in fresh interpreters, then starts
``worker.py``, which runs the workload's seeded job list in a closed loop
(see ``workloads.py``). With ``--trace 0`` the last stdout line carries the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics of a traced run. Lines before it give every figure with
its median, quartiles and sample count, and the machine and provenance
record is written to ``.perfbench_out/results/``.

Exit status 0 means the run completed; job failures show in ``failed`` and
``correct``. Any other status means the benchmark could not run, and no
result line is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5  # before the worker, and as many again after it
DEADLINE_S = 170.0  # the whole run, worker included
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
UNSET_VARS = ("SPINFID_NUM_THREADS", "SPINFID_BACKEND", "PYTHONPATH")

SETUP_PROBE = "import time, spinfid; print(time.monotonic_ns(), spinfid.__file__)"


class BenchmarkError(Exception):
    """The benchmark itself cannot run here (no source, crashed worker)."""


def bench_env(threads: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_VARS}
    env.update({k: str(threads) for k in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(env: dict, samples: int, warm: bool) -> list[float]:
    """Fresh interpreter start until ``import spinfid`` returns, in seconds.

    With ``warm`` one unmeasured start first writes the bytecode cache, as
    any installed copy would have it.
    """
    times = []
    for k in range(samples + 1 if warm else samples):
        began = time.monotonic_ns()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchmarkError(f"import spinfid failed:\n{proc.stderr}")
        stamp, path = proc.stdout.split(maxsplit=1)
        if not Path(path.strip()).resolve().is_relative_to(ROOT / "src"):
            raise BenchmarkError(f"spinfid imported from {path.strip()}, not {ROOT / 'src'}")
        if k or not warm:
            times.append((int(stamp) - began) / 1e9)
    return times


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def summarize(values) -> dict:
    """Median and quartiles; the quartiles of one sample are the sample."""
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="spinfid benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", default="full", choices=("full", "smoke"),
                        help="smoke: seconds-long inputs for the benchmark's own tests")
    parser.add_argument("--inject-failure", action="store_true",
                        help="append a job over the oracle's dimension guard (tests)")
    args = parser.parse_args(argv)
    began = time.monotonic()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in (spec["per_layer"] if args.trace else spec["end_to_end"])]
    threads = min(2, len(os.sched_getaffinity(0)))
    env = bench_env(threads)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    workdir = OUT / "work" / f"{tag}-{os.getpid()}"
    result_path = OUT / "results" / f"{tag}.worker.json"

    try:
        setup = measure_setup(env, SETUP_SAMPLES, warm=True)
        cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size, "--per-layer", ",".join(wanted),
               "--workdir", str(workdir), "--result", str(result_path),
               "--spans", str(OUT / "spans" / f"{tag}.json")]
        if args.inject_failure:
            cmd.append("--inject-failure")
        result_path.unlink(missing_ok=True)
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                                  timeout=DEADLINE_S - (time.monotonic() - began))
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"worker did not finish within {DEADLINE_S:g} s") from exc
        if proc.returncode != 0 or not result_path.exists():
            raise BenchmarkError(f"worker exited with status {proc.returncode}")
        worker = json.loads(result_path.read_text())
        setup += measure_setup(env, SETUP_SAMPLES, warm=False)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = dict(worker["metrics"], setup_s=statistics.median(setup))
    if args.trace:
        values = worker["per_layer"]
    missing = [n for n in wanted if n not in values]
    if missing:
        print(f"absent from this build: {', '.join(missing)}", file=sys.stderr)
    metrics = {n: {"value": values[n], "unit": units[n]} for n in wanted if n in values}
    fail_ratio = worker["failed"] / worker["attempted"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "machine": {"nproc": os.cpu_count(), "cpus_available": len(os.sched_getaffinity(0)),
                    "platform": platform.platform(), "processor": platform.machine()},
        "python": platform.python_version(), "versions": worker["versions"],
        "blas_threads": threads, "env": {k: env.get(k) for k in BLAS_THREAD_VARS + UNSET_VARS},
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "client": "closed loop, one client, one job at a time",
        "setup_s": summarize(setup), "stats": worker["stats"],
        "passes": worker["passes"], "jobs": worker["jobs"],
        "attempted": worker["attempted"], "failed": worker["failed"],
        "fail_ratio": fail_ratio, "failures": worker["failures"],
        "deviations": worker["deviations"], "counts": worker.get("counts"),
        "counts_consistent": worker["counts_consistent"], "absent": worker.get("absent", []),
        "metrics": metrics,
    }
    record_path = OUT / "results" / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1))

    stats = worker["stats"]
    print(f"spinfid benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(worker['passes'])} passes of {stats['job_count']} jobs, {threads} BLAS threads")
    for name, figures in (("setup_s", record["setup_s"]), ("wall_s", stats["wall_s"]),
                          ("job_s", stats["job_s"])):
        print(f"  {name:10s} median {figures['median']:.5f} s  q1 {figures['q1']:.5f}"
              f"  q3 {figures['q3']:.5f}  n {figures['n']}")
    print(f"  job_tail_s {worker['metrics']['job_tail_s']:.5f} s at percentile "
          f"{stats['job_tail_percentile']:.1f} of {stats['job_count']} jobs")
    print(f"  fail_ratio {fail_ratio:.4f} ({worker['failed']} of {worker['attempted']} jobs)")
    for failure in worker["failures"]:
        print(f"    {failure}")
    if worker.get("counts"):
        print(f"  work counts {json.dumps(worker['counts'], sort_keys=True)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(f"  record {record_path.relative_to(ROOT)}")
    correct = worker["failed"] == 0 and worker["counts_consistent"]
    print(json.dumps({"correct": correct, "attempted": worker["attempted"],
                      "failed": worker["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
