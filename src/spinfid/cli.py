"""Experiment orchestration and the ``spinfid`` command-line interface.

One JSON config file describes one run; results go to CSV (17 significant
digits, atomically written) plus a deterministic text summary on stdout.

Exit codes: 0 success, 2 config error, 3 guard violation, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ising, memory, oracle
from .core import SpinParams, TimeGrid
from .csvio import fmt, write_csv_atomic
from .errors import ConfigError, GuardError, NumericalError, SpinFidError
from .lattice import CouplingTable, coupling_rows, lattice_from_config, lattice_sum

MODES = ("ising_analytic", "ising_oracle_compare", "dipolar_memory", "povm_validate")

DEFAULTS = {
    "spin.two_s": 1,
    "spin.beta": 1e-3,
    "pair": (0, 1),
    "grid.t_max": 10.0,
    "grid.n_points": 201,
    "measurement": None,  # resolved from spin: von_neumann for S=1/2, else povm
    "quadrature.n_theta": 64,
    "quadrature.n_phi": 128,
    "hierarchy.K": 2,
    "hierarchy.closure": "gaussian_tail",
    "hierarchy.K_ext": 64,
    "spin_sweep": (1, 2, 3, 4),
    "output": None,  # resolved from mode
}

_RATIO_SWEEP = (1, 2, 3, 4)  # two_s values for the quantum-share table


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Validated, fully-defaulted description of one experiment."""

    mode: str
    spin: SpinParams
    table: CouplingTable
    pair: tuple[int, int]
    grid: TimeGrid
    measurement: str
    quadrature: tuple[int, int]
    hierarchy_k: int
    closure: str
    k_ext: int
    moments: memory.MomentSet | None
    spin_sweep: tuple[int, ...]
    output: str
    emit_couplings: bool = False
    applied_defaults: tuple[str, ...] = ()
    raw: dict = field(default_factory=dict, repr=False)


def _get(raw, errors, path, kind, default=None, required=False):
    node = raw
    walked = []
    for part in path.split("."):
        if not isinstance(node, dict):
            errors.append(f"key '{'.'.join(walked)}' must be an object")
            return default
        if part not in node:
            if required:
                errors.append(f"missing required key '{path}'")
            return default
        walked.append(part)
        node = node[part]
    if kind is float and isinstance(node, (int, float)) and not isinstance(node, bool):
        return float(node)
    if kind is int and isinstance(node, int) and not isinstance(node, bool):
        return node
    if kind is str and isinstance(node, str):
        return node
    if kind is list and isinstance(node, list):
        return node
    errors.append(f"key '{path}' must be of type {kind.__name__}, got {type(node).__name__}")
    return default


def _section(raw, name) -> dict:
    sect = raw.get(name, {})
    return sect if isinstance(sect, dict) else {}


def validate_config(raw) -> RunConfig:
    """Validate a parsed (or JSON text) config, reporting every problem."""
    if isinstance(raw, str):
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    errors: list[str] = []
    applied: list[str] = []

    mode = _get(raw, errors, "mode", str, required=True)
    if mode is not None and mode not in MODES:
        errors.append(f"key 'mode' must be one of {MODES}, got {mode!r}")

    two_s = _get(raw, errors, "spin.two_s", int, DEFAULTS["spin.two_s"])
    beta = _get(raw, errors, "spin.beta", float, DEFAULTS["spin.beta"])
    if "two_s" not in _section(raw, "spin"):
        applied.append(f"spin.two_s = {DEFAULTS['spin.two_s']}")
    if "beta" not in _section(raw, "spin"):
        applied.append(f"spin.beta = {DEFAULTS['spin.beta']}")
    spin = None
    if two_s is not None and beta is not None:
        try:
            spin = SpinParams(two_s=two_s, beta=beta)
        except SpinFidError as exc:
            errors.append(f"key 'spin': {exc}")

    table = None
    if "lattice" in raw:
        if not isinstance(raw["lattice"], dict):
            errors.append("key 'lattice' must be an object")
        else:
            try:
                table = lattice_from_config(raw["lattice"])
            except SpinFidError as exc:
                errors.append(f"key 'lattice': {exc}")
    else:
        applied.append("lattice = isolated pair, b_12 = 1")
        table = CouplingTable(b=np.array([[0.0, 1.0], [1.0, 0.0]]))

    pair = DEFAULTS["pair"]
    if "pair" in raw:
        p = _get(raw, errors, "pair", list)
        if p is not None:
            if len(p) != 2 or not all(isinstance(v, int) and not isinstance(v, bool) for v in p):
                errors.append("key 'pair' must be a list of two site indices")
            else:
                pair = (p[0], p[1])
    else:
        applied.append("pair = [0, 1]")
    if table is not None:
        n = table.n_sites
        if not (0 <= pair[0] < n and 0 <= pair[1] < n) or pair[0] == pair[1]:
            errors.append(f"key 'pair': indices {pair} invalid for {n} sites")

    t_max = _get(raw, errors, "grid.t_max", float, DEFAULTS["grid.t_max"])
    n_points = _get(raw, errors, "grid.n_points", int, DEFAULTS["grid.n_points"])
    if "t_max" not in _section(raw, "grid"):
        applied.append(f"grid.t_max = {DEFAULTS['grid.t_max']}")
    if "n_points" not in _section(raw, "grid"):
        applied.append(f"grid.n_points = {DEFAULTS['grid.n_points']}")
    grid = None
    if t_max is not None and n_points is not None:
        try:
            grid = TimeGrid.linspace(t_max, n_points)
        except SpinFidError as exc:
            errors.append(f"key 'grid': {exc}")

    measurement = _get(raw, errors, "measurement", str) if "measurement" in raw else None
    if measurement is None:
        measurement = "von_neumann" if (spin is not None and spin.two_s == 1) else "povm"
        applied.append(f"measurement = {measurement}")
    elif measurement not in ("povm", "von_neumann"):
        errors.append(f"key 'measurement' must be 'povm' or 'von_neumann', got {measurement!r}")
    if measurement == "von_neumann" and spin is not None and spin.two_s != 1:
        errors.append("key 'measurement': von_neumann split requires spin 1/2")

    n_theta = _get(raw, errors, "quadrature.n_theta", int, DEFAULTS["quadrature.n_theta"])
    n_phi = _get(raw, errors, "quadrature.n_phi", int, DEFAULTS["quadrature.n_phi"])
    if "quadrature" not in raw:
        applied.append("quadrature = 64 x 128")
    if n_theta is not None and n_phi is not None and (n_theta < 1 or n_phi < 1):
        errors.append("key 'quadrature': orders must be positive")

    hier_k = _get(raw, errors, "hierarchy.K", int, DEFAULTS["hierarchy.K"])
    closure = _get(raw, errors, "hierarchy.closure", str, DEFAULTS["hierarchy.closure"])
    k_ext = _get(raw, errors, "hierarchy.K_ext", int, DEFAULTS["hierarchy.K_ext"])
    if "hierarchy" not in raw:
        applied.append("hierarchy = K 2, gaussian_tail, K_ext 64")
    if closure not in memory.CLOSURES:
        errors.append(f"key 'hierarchy.closure' must be one of {memory.CLOSURES}")
    if hier_k is not None and hier_k not in (1, 2):
        errors.append("key 'hierarchy.K' must be 1 or 2 (moment formulas stop at v_2^2)")
    if k_ext is not None and k_ext < 2:
        errors.append("key 'hierarchy.K_ext' must be at least 2")

    moments = None
    if "moments" in raw:
        m2 = _get(raw, errors, "moments.m2", float, required=True)
        m4 = _get(raw, errors, "moments.m4", float, required=True)
        m6 = _get(raw, errors, "moments.m6", float, required=True)
        if None not in (m2, m4, m6):
            try:
                moments = memory.MomentSet(m2=m2, m4=m4, m6=m6)
            except SpinFidError as exc:
                errors.append(f"key 'moments': {exc}")
    elif mode == "dipolar_memory":
        applied.append("moments = dipolar m2 with gaussian-ratio m4, m6")

    sweep = DEFAULTS["spin_sweep"]
    if "spin_sweep" in raw:
        s = _get(raw, errors, "spin_sweep", list)
        if s is not None:
            if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in s) or not s:
                errors.append("key 'spin_sweep' must be a nonempty list of positive two_s integers")
            else:
                sweep = tuple(s)
    elif mode == "povm_validate":
        applied.append("spin_sweep = [1, 2, 3, 4]")

    output = _get(raw, errors, "output", str) if "output" in raw else None
    if output is None and mode is not None:
        output = f"{mode}.csv"
        applied.append(f"output = {output}")

    emit_couplings = raw.get("emit_couplings", False)
    if not isinstance(emit_couplings, bool):
        errors.append("key 'emit_couplings' must be a boolean")

    if errors:
        raise ConfigError("invalid config:\n" + "\n".join(f"  - {e}" for e in errors))

    return RunConfig(
        mode=mode, spin=spin, table=table, pair=pair, grid=grid,
        measurement=measurement, quadrature=(n_theta, n_phi),
        hierarchy_k=hier_k, closure=closure, k_ext=k_ext, moments=moments,
        spin_sweep=sweep, output=output, emit_couplings=emit_couplings,
        applied_defaults=tuple(applied), raw=dict(raw),
    )


def serialize_config(cfg: RunConfig) -> dict:
    """Emit a dict that validates back to an equivalent RunConfig."""
    out = {
        "mode": cfg.mode,
        "spin": {"two_s": cfg.spin.two_s, "beta": cfg.spin.beta},
        "lattice": {"b_matrix": cfg.table.b.tolist()},
        "pair": list(cfg.pair),
        "grid": {"t_max": float(cfg.grid.times[-1]), "n_points": len(cfg.grid)},
        "measurement": cfg.measurement,
        "quadrature": {"n_theta": cfg.quadrature[0], "n_phi": cfg.quadrature[1]},
        "hierarchy": {"K": cfg.hierarchy_k, "closure": cfg.closure, "K_ext": cfg.k_ext},
        "spin_sweep": list(cfg.spin_sweep),
        "output": cfg.output,
        "emit_couplings": cfg.emit_couplings,
    }
    if cfg.moments is not None:
        out["moments"] = {"m2": cfg.moments.m2, "m4": cfg.moments.m4, "m6": cfg.moments.m6}
    return out


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return validate_config(text)


# -- mode runners ---------------------------------------------------------------

def _ratio_table_lines() -> list[str]:
    lines = ["quantum share Q/I at small times (1/(S+1)):",
             "  two_s      S        Q/I"]
    for two_s in _RATIO_SWEEP:
        s = two_s / 2.0
        lines.append(f"  {two_s:5d}  {s:5.1f}  {1.0 / (s + 1.0):.9f}")
    return lines


def _run_ising_analytic(cfg: RunConfig, out_dir: Path):
    oracle._beta_guard(cfg.spin, 2, cfg.spin.beta)
    ctx = ising.PairContext.from_table(cfg.spin, cfg.table, *cfg.pair)
    series = ising.correlation_series(ctx, cfg.grid, cfg.measurement)
    path = write_csv_atomic(out_dir / cfg.output, series.header, series.rows())
    lines = [
        f"pair ({cfg.pair[0]}, {cfg.pair[1]}), b_ij = {fmt(ctx.b_ij)}",
        f"measurement: {cfg.measurement}",
        f"max |I - (C+Q)| = {np.max(np.abs(series.mutual_info - series.classical - series.quantum)):.3e}",
    ]
    return [path], lines


def _run_oracle_compare(cfg: RunConfig, out_dir: Path):
    spin, table, grid = cfg.spin, cfg.table, cfg.grid
    cluster = oracle.EvolvedCluster.build(spin, table, "ising")
    f_oracle = cluster.fid(grid)
    f_analytic = ising.fid_zz_lattice(spin, table, grid.times)

    ctx = ising.PairContext.from_table(spin, table, *cfg.pair)
    i_analytic = ising.mutual_info_ising(ctx, grid.times)
    j_analytic, _ = ising.povm_split(ctx, grid.times)
    quad = oracle.SphereQuadrature(*cfg.quadrature)

    i_oracle = np.empty(len(grid))
    j_oracle = np.empty(len(grid))
    for k, t in enumerate(grid.times):
        rho = cluster.pair_density(t, cfg.pair, spin.beta)
        i_oracle[k] = oracle.mutual_info_numeric(rho)
        j_oracle[k] = oracle.povm_measure_and_classical_info(rho, spin, quad)

    # below this floor I and J are entropy roundoff (at t = 0 the pair is a
    # product state), so their ratio means nothing and is written as nan
    floor = 1e-8 * spin.beta**2
    with np.errstate(invalid="ignore", divide="ignore"):
        q_ratio = np.where(i_analytic > floor, 1.0 - j_oracle / i_oracle, np.nan)
    target = 1.0 / (spin.s + 1.0)
    rows = zip(grid.times, f_oracle, f_analytic, i_oracle, i_analytic,
               j_oracle, j_analytic, q_ratio, np.full(len(grid), target))
    header = ["t", "F_oracle", "F_analytic", "I_oracle", "I_analytic",
              "J_oracle", "J_analytic", "Q_over_I_oracle", "Q_over_I_target"]
    path = write_csv_atomic(out_dir / cfg.output, header, rows)

    # convergence order of the high-temperature expansion, from halving
    # beta at the best-conditioned (maximum-information) grid time
    mid = int(np.argmax(i_analytic))
    t_mid = float(grid.times[mid])
    disc = []
    for b in (spin.beta, spin.beta / 2.0):
        rho = cluster.pair_density(t_mid, cfg.pair, b)
        ex = oracle.mutual_info_numeric(rho)
        an = ising.mutual_info_ising(
            ising.PairContext(spin=SpinParams(spin.two_s, b), b_ij=ctx.b_ij,
                              other_couplings_i=ctx.other_couplings_i,
                              other_couplings_j=ctx.other_couplings_j), t_mid)
        disc.append(abs(ex / an - 1.0) if an > 0 else np.nan)
    order = math.log2(disc[0] / disc[1]) if disc[1] > 0 else float("nan")

    imask = i_analytic > floor
    jmask = j_analytic > floor
    lines = [
        f"max |F_oracle - F_analytic| = {np.max(np.abs(f_oracle - f_analytic)):.3e}",
        f"max rel |I_oracle/I_analytic - 1| = {np.max(np.abs(i_oracle[imask] / i_analytic[imask] - 1.0)):.3e}",
        f"max rel |J_oracle/J_analytic - 1| = {np.max(np.abs(j_oracle[jmask] / j_analytic[jmask] - 1.0)):.3e}",
        f"high-T discrepancy order (beta -> beta/2 at t = {fmt(t_mid)}): {order:.2f}",
        f"Q/I target 1/(S+1) = {fmt(target)}",
    ]
    return [path], lines


def _run_dipolar_memory(cfg: RunConfig, out_dir: Path):
    oracle._beta_guard(cfg.spin, 2, cfg.spin.beta)
    spin, table = cfg.spin, cfg.table
    i, j = cfg.pair
    sum_b2 = lattice_sum(table, i, 2)
    moments = cfg.moments
    if moments is None:
        moments = memory.MomentSet.gaussian(memory.dipolar_m2(spin, sum_b2))
    hier = memory.vk_from_moments(spin, sum_b2, moments, closure=cfg.closure)
    if cfg.hierarchy_k < hier.K:
        hier = memory.Hierarchy(vk2=hier.vk2[: cfg.hierarchy_k + 1], closure=cfg.closure)
    sol = memory.solve_amplitudes(hier, cfg.grid, k_ext=cfg.k_ext)
    a0 = memory.fid_dipolar(sol)
    a1 = sol.a[1]
    fdot = memory.fid_derivative(sol)
    info = memory.mutual_info_dipolar(spin, table.b[i, j], moments.m2, fdot, spin.beta)
    total = memory.total_information(spin, spin.beta, a0)
    header = ["t", "A0", "A1", "I_dipolar", "T_total"]
    path = write_csv_atomic(out_dir / cfg.output, header,
                            zip(cfg.grid.times, a0, a1, info, total))
    limit = spin.beta**2 * spin.casimir / (3.0 * math.log(2.0))
    lines = [
        f"hierarchy v_k^2 = ({', '.join(fmt(v) for v in hier.vk2)}), closure {hier.closure}, K_ext {cfg.k_ext}",
        f"m2 = {fmt(moments.m2)}, m4 = {fmt(moments.m4)}, m6 = {fmt(moments.m6)}",
        f"T at t=0: {fmt(total[0])}; limiting value beta^2 S(S+1)/(3 ln 2) = {fmt(limit)}",
        f"min A0 on grid = {fmt(float(np.min(a0)))}",
    ]
    return [path], lines


def _povm_point(two_s: int, beta: float, b: float, quad) -> tuple[float, float]:
    """Richardson small-time limit of Q/I from an oracle-evolved pair."""
    spin = SpinParams(two_s=two_s, beta=beta)
    table = CouplingTable(b=np.array([[0.0, b], [b, 0.0]]))
    cluster = oracle.EvolvedCluster.build(spin, table, "ising")
    vals = []
    for t in (0.05, 0.025):
        rho = cluster.pair_density(t, (0, 1), beta)
        info = oracle.mutual_info_numeric(rho)
        j = oracle.povm_measure_and_classical_info(rho, spin, quad)
        vals.append(1.0 - j / info)
    dev_check = oracle.scs_completeness_check(spin, quad)
    return (4.0 * vals[1] - vals[0]) / 3.0, dev_check


def _run_povm_validate(cfg: RunConfig, out_dir: Path):
    quad = oracle.SphereQuadrature(*cfg.quadrature)
    b = float(cfg.table.b[cfg.pair])
    workers = _thread_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(
                lambda ts: _povm_point(ts, cfg.spin.beta, b, quad), cfg.spin_sweep))
    else:
        results = [_povm_point(ts, cfg.spin.beta, b, quad) for ts in cfg.spin_sweep]

    rows = []
    lines = [f"quadrature {cfg.quadrature[0]} x {cfg.quadrature[1]}, pair coupling b = {fmt(b)}",
             "  two_s    Q/I (oracle)    Q/I target      |err|    completeness"]
    for two_s, (ratio, dev) in zip(cfg.spin_sweep, results):
        target = 1.0 / (two_s / 2.0 + 1.0)
        rows.append((two_s, ratio, target, abs(ratio - target), dev))
        lines.append(f"  {two_s:5d}  {ratio:14.9f}  {target:12.9f}  {abs(ratio - target):9.2e}  {dev:11.2e}")
    header = ["two_s", "Q_over_I", "Q_over_I_target", "abs_err", "completeness_dev"]
    path = write_csv_atomic(out_dir / cfg.output, header, rows)
    return [path], lines


_RUNNERS = {
    "ising_analytic": _run_ising_analytic,
    "ising_oracle_compare": _run_oracle_compare,
    "dipolar_memory": _run_dipolar_memory,
    "povm_validate": _run_povm_validate,
}


def emit_summary(results: dict) -> str:
    """Deterministic text report: same inputs give byte-identical output."""
    if not results:
        return "no data\n"
    lines = [f"spinfid run: mode {results['mode']}"]
    defaults = results.get("defaults", ())
    if defaults:
        lines.append("defaults applied:")
        lines.extend(f"  {d}" for d in defaults)
    lines.extend(results.get("lines", ()))
    lines.extend(_ratio_table_lines())
    for p in results.get("files", ()):
        lines.append(f"wrote {p}")
    return "\n".join(lines) + "\n"


def run(cfg: RunConfig, out_dir=None) -> dict:
    """Execute one config; returns the summary data (files + metrics)."""
    out = Path(out_dir) if out_dir is not None else Path.cwd()
    files, lines = _RUNNERS[cfg.mode](cfg, out)
    if cfg.emit_couplings:
        files.append(write_csv_atomic(out / "couplings.csv", ["i", "j", "b_ij"],
                                      coupling_rows(cfg.table)))
    return {"mode": cfg.mode, "defaults": cfg.applied_defaults,
            "lines": lines, "files": [str(p) for p in files]}


def _thread_count() -> int:
    """Sweep workers from SPINFID_NUM_THREADS (default 1)."""
    raw = os.environ.get("SPINFID_NUM_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(f"SPINFID_NUM_THREADS must be a positive integer, got {raw!r}")
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinfid",
        description="FID curves and correlation splitting for spin lattices")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute one config file")
    runp.add_argument("config", help="path to a JSON run config")
    runp.add_argument("--out", default=None, help="output directory (default: cwd)")
    runp.add_argument("--mode", default=None, choices=MODES,
                      help="override the config's mode")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.mode is not None and args.mode != cfg.mode:
            raw = dict(cfg.raw)
            raw["mode"] = args.mode
            raw.setdefault("output", f"{args.mode}.csv")
            cfg = validate_config(raw)
        results = run(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"guard error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(emit_summary(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
