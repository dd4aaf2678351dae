"""Experiment orchestration and the ``spinfid`` command-line interface.

One JSON config file describes one run; results go to CSV (17 significant
digits, atomically written) plus a deterministic text summary on stdout.

Exit codes: 0 success, 2 config error, 3 guard violation, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import ising, memory, oracle
from .core import SpinParams, TimeGrid
from .csvio import fmt, write_csv_atomic
from .errors import ConfigError, GuardError, NumericalError, SpinFidError
from .lattice import CouplingTable, coupling_rows, lattice_from_config, lattice_sum

MODES = ("ising_analytic", "ising_oracle_compare", "dipolar_memory", "povm_validate")
_ON_GRID = ("ising_analytic", "ising_oracle_compare", "dipolar_memory")
_ON_POVM = ("ising_oracle_compare/povm", "povm_validate")
_CHAIN = ("dipolar_memory",)
_REQUIRED = object()
_ABSENT = object()
_KINDS = {float: "a number", int: "an integer", str: "a string", bool: "a boolean",
          list: "a list", dict: "an object"}


def _is(value, kind) -> bool:
    """JSON typing: an integer is also a number, a boolean is only a boolean."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _one_of(options):
    return lambda v: None if v in options else f"must be one of {options}, got {v!r}"


def _at_least(low):
    return lambda v: None if v >= low else f"must be at least {low}, got {v}"


def _int_list(ok, what):
    return lambda v: None if v and all(_is(x, int) for x in v) and ok(v) else f"must be {what}"


@dataclass(frozen=True)
class Key:
    """One config key: dotted path, JSON type, default, the modes that read it, check.

    ``default`` is a value, ``_REQUIRED``, or a function of the values
    resolved before it. A ``read_by`` entry ``mode/measurement`` reads the key
    under that measurement only. ``check`` returns what is wrong with a value
    of the right type, or None.
    """

    path: str
    kind: type
    default: object
    read_by: tuple[str, ...]
    check: Callable[[object], str | None] | None = None


KEYS = (
    Key("mode", str, _REQUIRED, MODES, _one_of(MODES)),
    Key("spin.two_s", int, 1, _ON_GRID),
    Key("spin.beta", float, 1e-3, MODES),
    Key("lattice", dict, {"b_matrix": [[0.0, 1.0], [1.0, 0.0]]}, MODES),  # checked when built
    Key("pair", list, [0, 1], MODES, _int_list(lambda v: len(v) == 2, "a list of two site indices")),
    Key("grid.t_max", float, 10.0, _ON_GRID),
    Key("grid.n_points", int, 201, _ON_GRID),
    Key("measurement", str,
        lambda v: "von_neumann" if v["mode"] == "ising_analytic" and v["spin.two_s"] == 1 else "povm",
        ("ising_analytic", "ising_oracle_compare"), _one_of(("povm", "von_neumann"))),
    # absent: oracle.SphereQuadrature.for_spin's rule, for the run's spin or,
    # in povm_validate, for each spin of the sweep; n_phi follows n_theta
    Key("quadrature.n_theta", int, None, _ON_POVM, _at_least(1)),
    Key("quadrature.n_phi", int, lambda v: v["quadrature.n_theta"] and 2 * v["quadrature.n_theta"],
        _ON_POVM, _at_least(1)),
    Key("hierarchy.K", int, 2, _CHAIN, _one_of((1, 2))),  # moment formulas stop at v_2^2
    Key("hierarchy.closure", str, "gaussian_tail", _CHAIN, _one_of(memory.CLOSURES)),
    Key("hierarchy.K_ext", int, 64, _CHAIN, _at_least(2)),
    # absent: the probe's dipolar m2 with a Gaussian line's m4 and m6
    Key("moments.m2", float, None, _CHAIN),
    Key("moments.m4", float, None, _CHAIN),
    Key("moments.m6", float, None, _CHAIN),
    Key("spin_sweep", list, [1, 2, 3, 4], ("povm_validate",),
        _int_list(lambda v: min(v) >= 1, "a nonempty list of positive two_s integers")),
    Key("output", str, lambda v: f"{v['mode']}.csv", MODES),
    Key("emit_couplings", bool, False, MODES),
)
_KEY = {key.path: key for key in KEYS}
_SECTIONS = {path.partition(".")[0] for path in _KEY if "." in path}
_MOMENTS = ("moments.m2", "moments.m4", "moments.m6")
_QUADRATURE = ("quadrature.n_theta", "quadrature.n_phi")
# how povm_validate states orders that its sweep takes from the per-spin rule
_PER_SPIN = {"quadrature.n_theta": f"{oracle.QUADRATURE_RULE} for each spin",
             "quadrature.n_phi": "2 n_theta"}


def _reads(key: Key, mode: str, measurement: str) -> bool:
    return mode in key.read_by or f"{mode}/{measurement}" in key.read_by


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Validated, fully-defaulted description of one experiment."""

    mode: str
    spin: SpinParams
    table: CouplingTable
    pair: tuple[int, int]
    grid: TimeGrid
    measurement: str
    quadrature: tuple[int | None, int | None]  # None: by the per-spin rule
    hierarchy_k: int
    closure: str
    k_ext: int
    moments: memory.MomentSet | None
    spin_sweep: tuple[int, ...]
    output: str
    emit_couplings: bool = False
    applied_defaults: tuple[str, ...] = ()
    unread_keys: tuple[str, ...] = ()
    values: dict = field(default_factory=dict, repr=False)  # every key's value, by path
    raw: dict = field(default_factory=dict, repr=False)


def _lookup(raw: dict, path: str):
    head, _, leaf = path.partition(".")
    node = raw.get(head, _ABSENT)
    if leaf:
        node = node.get(leaf, _ABSENT) if isinstance(node, dict) else _ABSENT
    return node


def _unknown_keys(raw: dict) -> list[str]:
    """Errors for keys outside KEYS, each named by its full path."""
    errors = []
    for name, node in raw.items():
        if name not in _SECTIONS:
            paths = [name]
        elif isinstance(node, dict):
            paths = [f"{name}.{sub}" for sub in node]
        else:
            errors.append(f"key '{name}' must be an object")
            continue
        errors.extend(f"unknown key '{path}'" for path in paths if path not in _KEY)
    return errors


def _build(errors: list, key: str, make, *args):
    try:
        return make(*args)
    except SpinFidError as exc:
        errors.append(f"key '{key}': {exc}")
        return None


def validate_config(raw) -> RunConfig:
    """Validate a parsed (or JSON text) config against KEYS, reporting every problem."""
    if isinstance(raw, str):
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    errors = _unknown_keys(raw)
    v: dict = {}  # resolved values; a bad value is replaced by its default
    given = set()
    for key in KEYS:
        node = _lookup(raw, key.path)
        default = key.default(v) if callable(key.default) else key.default
        if node is _ABSENT and default is _REQUIRED:
            errors.append(f"missing required key '{key.path}'")
        v[key.path] = None if default is _REQUIRED else default
        if node is _ABSENT:
            continue
        given.add(key.path)
        if not _is(node, key.kind):
            errors.append(f"key '{key.path}' must be {_KINDS[key.kind]}, got {type(node).__name__}")
        elif key.check and (problem := key.check(node)):
            errors.append(f"key '{key.path}' {problem}")
        else:
            v[key.path] = float(node) if key.kind is float else node

    spin = _build(errors, "spin", SpinParams, v["spin.two_s"], v["spin.beta"])
    table = _build(errors, "lattice", lattice_from_config, v["lattice"])
    grid = _build(errors, "grid", TimeGrid.linspace, v["grid.t_max"], v["grid.n_points"])
    pair = tuple(v["pair"])
    if table is not None and (pair[0] == pair[1] or not all(0 <= p < table.n_sites for p in pair)):
        errors.append(f"key 'pair': indices {pair} invalid for {table.n_sites} sites")
    if v["measurement"] == "von_neumann" and spin is not None and spin.two_s != 1:
        errors.append("key 'measurement': von_neumann split requires spin 1/2")
    if isinstance(raw.get("moments"), dict):
        errors.extend(f"missing required key '{p}'" for p in _MOMENTS if p not in given)
    read = [key.path for key in KEYS if _reads(key, v["mode"], v["measurement"])]
    orders = [v[p] for p in _QUADRATURE]
    named = [p for p in _QUADRATURE if p in given]
    if named and None not in orders and _QUADRATURE[0] in read:
        _build(errors, "', '".join(named), oracle.SphereQuadrature, *orders)
    if errors:
        raise ConfigError("invalid config:\n" + "\n".join(f"  - {e}" for e in errors))

    moments = None
    # built past the config errors, so that non-physical moments are a guard error
    if None not in (given_moments := [v[p] for p in _MOMENTS]):
        moments = memory.MomentSet(*given_moments)
    elif _MOMENTS[0] in read:
        moments = memory.MomentSet.gaussian(
            memory.dipolar_m2(spin, lattice_sum(table, pair[0], 2)))
        v.update(zip(_MOMENTS, (moments.m2, moments.m4, moments.m6)))
    # likewise past the config errors, as the rule raises guard errors
    if _QUADRATURE[0] in read and v["mode"] != "povm_validate":
        quad = _quadrature(orders, spin)
        v.update(zip(_QUADRATURE, (quad.n_theta, quad.n_phi)))
    # a switch left out is off, which needs no note
    applied = [f"{p} = {_PER_SPIN[p] if v[p] is None else _show(v[p])}" for p in read
               if p not in given and not isinstance(v[p], bool)]
    return RunConfig(
        mode=v["mode"], spin=spin, table=table, pair=pair, grid=grid,
        measurement=v["measurement"], quadrature=tuple(v[p] for p in _QUADRATURE),
        hierarchy_k=v["hierarchy.K"], closure=v["hierarchy.closure"], k_ext=v["hierarchy.K_ext"],
        moments=moments, spin_sweep=tuple(v["spin_sweep"]), output=v["output"],
        emit_couplings=v["emit_couplings"], applied_defaults=tuple(applied),
        unread_keys=tuple(key.path for key in KEYS if key.path in given and key.path not in read),
        values=v, raw=dict(raw),
    )


def _show(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


def _quadrature(orders, spin: SpinParams) -> oracle.SphereQuadrature:
    """The POVM quadrature for one spin: the given (n_theta, n_phi), each None
    taken from the per-spin rule."""
    n_theta, n_phi = orders
    if n_theta is None:
        rule = oracle.SphereQuadrature.for_spin(spin)
        n_theta, n_phi = rule.n_theta, n_phi or rule.n_phi
    return oracle.SphereQuadrature(n_theta, n_phi)


def serialize_config(cfg: RunConfig) -> dict:
    """The resolved keys the mode reads: validates back to an equal config, no
    default applied. Orders that povm_validate takes per spin from the rule
    stay absent, so they resolve the same way again."""
    out: dict = {}
    for key in KEYS:
        if _reads(key, cfg.mode, cfg.measurement) and cfg.values[key.path] is not None:
            head, _, leaf = key.path.partition(".")
            if leaf:
                out.setdefault(head, {})[leaf] = cfg.values[key.path]
            else:
                out[head] = cfg.values[key.path]
    return copy.deepcopy(out)


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
    for two_s in _KEY["spin_sweep"].default:
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
    if cfg.measurement == "von_neumann":
        j_analytic, _ = ising.von_neumann_split(ctx, grid.times)
        # the direction search takes one state at a time
        measure = lambda rho: np.array([  # noqa: E731
            oracle.classical_info_von_neumann(oracle.DensityMatrix(entries=m))[0]
            for m in rho.entries])
        target, target_name = 0.5, "1/2"
    else:
        j_analytic, _ = ising.povm_split(ctx, grid.times)
        quad = oracle.SphereQuadrature(*cfg.quadrature)
        measure = lambda rho: oracle.povm_measure_and_classical_info(rho, spin, quad)  # noqa: E731
        target, target_name = 1.0 / (spin.s + 1.0), "1/(S+1)"

    rho = cluster.pair_density(grid.times, cfg.pair, spin.beta)
    i_oracle = oracle.mutual_info_numeric(rho)
    j_oracle = measure(rho)

    # Q/I is nan where the analytic I is at most 1e-8 beta^2: at t = 0, where
    # it is exactly 0, and near its other zeros. There the ratio means nothing.
    # The oracle's I is not 0 at t = 0: the pair carries the O(beta^4)
    # information of the linearized state (1 + beta (S_xi + S_xj))/d^2, e.g.
    # 4.5e-14 bits for spin 1/2 and 3.2e-13 for spin 1 at beta = 1e-3.
    floor = 1e-8 * spin.beta**2
    with np.errstate(invalid="ignore", divide="ignore"):
        q_ratio = np.where(i_analytic > floor, 1.0 - j_oracle / i_oracle, np.nan)
    rows = zip(grid.times, f_oracle, f_analytic, i_oracle, i_analytic,
               j_oracle, j_analytic, q_ratio, np.full(len(grid), target))
    header = ["t", "F_oracle", "F_analytic", "I_oracle", "I_analytic",
              "J_oracle", "J_analytic", "Q_over_I_oracle", "Q_over_I_target"]
    path = write_csv_atomic(out_dir / cfg.output, header, rows)

    # convergence order of the high-temperature expansion, from halving
    # beta at the best-conditioned (maximum-information) grid time
    mid = int(np.argmax(i_analytic))
    t_mid = float(grid.times[mid])
    dev = cluster.pair_deviation(t_mid, cfg.pair)  # D does not depend on beta
    disc = []
    for b in (spin.beta, spin.beta / 2.0):
        ex = oracle.mutual_info_numeric(oracle._pair_state(dev, b))
        an = ising.mutual_info_ising(replace(ctx, spin=SpinParams(spin.two_s, b)), t_mid)
        disc.append(abs(ex / an - 1.0) if an > 0 else np.nan)
    order = math.log2(disc[0] / disc[1]) if disc[1] > 0 else float("nan")

    lines = [
        f"max |F_oracle - F_analytic| = {np.max(np.abs(f_oracle - f_analytic)):.3e}",
        f"max rel |I_oracle/I_analytic - 1| = {_max_rel(i_oracle, i_analytic, floor):.3e}",
        f"max rel |J_oracle/J_analytic - 1| = {_max_rel(j_oracle, j_analytic, floor):.3e}",
        f"high-T discrepancy order (beta -> beta/2 at t = {fmt(t_mid)}): {order:.2f}",
        f"Q/I target {target_name} = {fmt(target)}",
    ]
    if cfg.measurement == "povm":
        lines.append(f"POVM quadrature {quad.n_theta} x {quad.n_phi}")
    return [path], lines


def _max_rel(oracle_values, analytic, floor: float) -> float:
    """max |oracle/analytic - 1| where analytic exceeds floor; nan, as in the
    CSV's Q/I, where no grid time does (e.g. an uncoupled pair)."""
    above = analytic > floor
    if not above.any():
        return math.nan
    return float(np.max(np.abs(oracle_values[above] / analytic[above] - 1.0)))


def _run_dipolar_memory(cfg: RunConfig, out_dir: Path):
    oracle._beta_guard(cfg.spin, 2, cfg.spin.beta)
    spin, table, moments = cfg.spin, cfg.table, cfg.moments
    i, j = cfg.pair
    hier = memory.vk_from_moments(moments, closure=cfg.closure)
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


def _povm_point(two_s: int, beta: float, b: float, orders) -> tuple[float, float]:
    """Richardson small-time limit of Q/I from an oracle-evolved pair."""
    spin = SpinParams(two_s=two_s, beta=beta)
    quad = _quadrature(orders, spin)
    table = CouplingTable(b=np.array([[0.0, b], [b, 0.0]]))
    cluster = oracle.EvolvedCluster.build(spin, table, "ising")
    rho = cluster.pair_density(np.array([0.05, 0.025]), (0, 1), beta)
    j = oracle.povm_measure_and_classical_info(rho, spin, quad)
    vals = 1.0 - j / oracle.mutual_info_numeric(rho)
    dev_check = oracle.scs_completeness_check(spin, quad)
    return float((4.0 * vals[1] - vals[0]) / 3.0), dev_check


def _run_povm_validate(cfg: RunConfig, out_dir: Path):
    b = float(cfg.table.b[cfg.pair])
    n_theta, n_phi = cfg.quadrature
    if n_theta is None:
        quad = f"per spin: n_theta = {oracle.QUADRATURE_RULE}, n_phi = {n_phi or '2 n_theta'}"
    else:
        quad = f"{n_theta} x {n_phi}"
    rows = []
    lines = [f"quadrature {quad}, pair coupling b = {fmt(b)}",
             "  two_s    Q/I (oracle)    Q/I target      |err|    completeness"]
    for two_s in cfg.spin_sweep:
        ratio, dev = _povm_point(two_s, cfg.spin.beta, b, cfg.quadrature)
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
            cfg = validate_config(dict(cfg.raw, mode=args.mode))
        for path in cfg.unread_keys:
            print(f"note: mode {cfg.mode} does not read key '{path}'", file=sys.stderr)
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
