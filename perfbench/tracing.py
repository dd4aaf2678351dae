"""Spans around spinfid's public functions, installed from the benchmark.

Each trace point replaces one attribute at the place its caller looks it
up (``oracle.build_hamiltonian`` for ``EvolvedCluster.build``,
``_kernels.cos_sum`` for ``oracle``'s ``K.cos_sum``, ``cli.write_csv_atomic``
for the CLI's ``from .csvio import``), so nothing under ``src/`` changes.
``uninstall`` restores the originals, so untraced passes run the plain code.

Spans are kept in memory as (name, start, end, parent, job, pass, ok) and
written out once when the run ends. A span's self time is its duration
minus the durations of its direct children; calls run one at a time on the
calling thread, so children nest inside their parent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    job: int | None
    pass_index: int | None
    ok: bool


def _hilbert_dim(tracer, bound):
    spin, table = bound.arguments["spin"], bound.arguments["table"]
    tracer.counts["oracle.hilbert_dim.sum"] += spin.d ** table.n_sites


def _cos_sum_evals(tracer, bound):
    args = bound.arguments
    tracer.counts["kernels.cos_sum.evals"] += args["weights"].size * args["times"].size


def _csv_rows(tracer, bound):
    bound.arguments["rows"] = tracer.count_rows(bound.arguments["rows"])


# (span name, module under spinfid, attribute path, argument hook)
TRACE_POINTS = (
    ("oracle.build_hamiltonian", "oracle", "build_hamiltonian", None),
    ("oracle.cluster_build", "oracle", "EvolvedCluster.build", _hilbert_dim),
    ("oracle.total_sx", "oracle", "total_sx", None),
    ("oracle.fid", "oracle", "EvolvedCluster.fid", None),
    ("oracle.pair_density", "oracle", "EvolvedCluster.pair_density", None),
    ("oracle.mutual_info_numeric", "oracle", "mutual_info_numeric", None),
    ("oracle.povm", "oracle", "povm_measure_and_classical_info", None),
    ("kernels.cos_sum", "_kernels", "cos_sum", _cos_sum_evals),
    ("kernels.scs_overlaps", "_kernels", "scs_overlaps", None),
    ("kernels.entropy_norm_batch", "_kernels", "entropy_norm_batch", None),
    ("kernels.fid_product", "_kernels", "fid_product", None),
    ("kernels.lattice_fid", "_kernels", "lattice_fid", None),
    ("ising.correlation_series", "ising", "correlation_series", None),
    ("ising.fid_zz_lattice", "ising", "fid_zz_lattice", None),
    ("memory.solve_amplitudes", "memory", "solve_amplitudes", None),
    ("lattice.build_couplings", "lattice", "build_couplings", None),
    ("cli.validate_config", "cli", "validate_config", None),
    ("cli.run", "cli", "run", None),
    ("csvio.write_csv_atomic", "cli", "write_csv_atomic", _csv_rows),
)

JOB_SPAN = "job"
COUNTERS = ("oracle.hilbert_dim.sum", "kernels.cos_sum.evals", "csvio.rows")


class Tracer:
    """Installs the trace points and records spans and argument counts."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.job: int | None = None
        self.pass_index: int | None = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for name, module, path, hook in TRACE_POINTS:
            owner = importlib.import_module(f"spinfid.{module}")
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                # a function removed from spinfid is reported absent, not zero
                self.absent.append(name)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, hook))
            else:
                wrapped = self._wrap(name, raw, hook)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _wrap(self, name, fn, hook):
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                hook(self, bound)
                args, kwargs = bound.args, bound.kwargs
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- recording ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        ok = False
        start = perf_counter()
        try:
            yield
            ok = True
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.job, self.pass_index, ok)

    def count_rows(self, rows):
        for row in rows:
            self.counts["csvio.rows"] += 1
            yield row

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = Span._fields
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": [list(s) for s in self.spans]}, fh)

    # -- aggregation ------------------------------------------------------------

    def layer_totals(self, lo: int, hi: int) -> dict:
        """Inclusive time, self time, calls and errors of spans[lo:hi]."""
        child = [0.0] * (hi - lo)
        for s in self.spans[lo:hi]:
            if s.parent is not None and s.parent >= lo:
                child[s.parent - lo] += s.end - s.start
        total, self_time, calls, errors = Counter(), Counter(), Counter(), Counter()
        for k, s in enumerate(self.spans[lo:hi]):
            dur = s.end - s.start
            total[s.name] += dur
            self_time[s.name] += dur - child[k]
            calls[s.name] += 1
            if not s.ok:
                errors[s.name.split(".")[0]] += 1
        return {"s": total, "self_s": self_time, "calls": calls, "errors": errors}

