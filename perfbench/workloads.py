"""Seeded job lists for the three benchmark workloads, with output checks.

A job is one unit a researcher would run: a ``spinfid run`` of one config
(through ``cli.main``), or one library session on an exact cluster. Each
job has a ``run`` that does the spinfid work (the only part that is timed)
and a ``check`` that validates its output with the tolerances fixed in
``tests/test_acceptance.py``.

The seed draws coupling values, polarizations and time spans. The size
ladders (sites, spin, grid points, chain depth) are fixed per workload, so
every seed does the same amount of work and timings compare across seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from spinfid import cli, oracle
from spinfid.core import SpinParams, TimeGrid
from spinfid.lattice import CouplingTable

WORKLOADS = ("oracle_ising", "oracle_dipolar", "closed_form")
SIZES = ("full", "smoke")

# Tolerances from tests/test_acceptance.py (criteria 1, 4, 5, 9) and the
# |A_0| bound of tests/test_memory.py.
FID_TOL = 1e-10
ADDITIVITY_TOL = 1e-12
RATIO_TOL = 5e-3
COMPLETENESS_TOL = 1e-10
A0_TOL = 1e-9


class CheckFailed(Exception):
    """A job ran but its output misses a fixed tolerance."""


class JobFailed(Exception):
    """spinfid reported a failure: a non-zero exit status."""


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[Path], object]  # takes an output directory that does not exist yet
    check: Callable[[object], dict]  # raises CheckFailed; returns recorded deviations


# -- size ladders -------------------------------------------------------------
# (two_s, n_sites, clusters) for the oracle workloads. Small clusters repeat
# so that every workload has more than 10 jobs, the fewest for which a
# percentile with ten jobs beyond it exists. The copies are chosen so that
# the tail job and the median job each sit inside a group of equal-size
# clusters: there a slow outlier moves the pooled order statistic by a rank
# within the group, not onto the next cluster size.

ORACLE_ISING = {
    "full": [(1, 6, 2), (1, 7, 2), (1, 8, 3), (1, 9, 1), (1, 10, 1),
             (2, 5, 2), (2, 6, 1), (3, 4, 2), (3, 5, 1)],
    "smoke": [(1, 3, 4), (1, 4, 4), (2, 3, 3)],
}
ORACLE_ISING_POINTS = 41

ORACLE_DIPOLAR = {
    "full": [(1, 8, 5), (1, 9, 4), (1, 10, 1), (2, 6, 2)],
    "smoke": [(1, 3, 4), (1, 4, 4), (2, 3, 3)],
}
DIPOLAR_FID_POINTS = {"full": 4001, "smoke": 401}
DIPOLAR_PAIR_TIMES = 5
DIPOLAR_CHECK_TIMES = 3

# closed_form: (sites, grid points, two_s) rings for ising_analytic,
# (sites, K_ext, grid points) rings for dipolar_memory, and two_s sweeps
# for povm_validate (64 x 128 quadrature unless stated).
ANALYTIC_RINGS = {
    "full": [(20, 2000, 1), (20, 20000, 4), (50, 5000, 2), (50, 10000, 3),
             (100, 2000, 3), (100, 10000, 1), (200, 5000, 4), (200, 20000, 2),
             (30, 3000, 2), (80, 8000, 1), (150, 4000, 3), (120, 15000, 4),
             (60, 6000, 1), (180, 12000, 2)],
    "smoke": [(20, 200, 1), (30, 300, 2), (40, 400, 3)],
}
MEMORY_RINGS = {
    "full": [(12, 32, 101), (12, 256, 2001), (24, 64, 501), (24, 128, 1001),
             (40, 32, 2001), (40, 256, 101), (60, 64, 1001), (60, 128, 501),
             (16, 96, 801), (32, 192, 1501), (48, 48, 301), (64, 160, 1201),
             (20, 224, 1801), (36, 80, 701)],
    "smoke": [(8, 16, 51), (10, 32, 101), (12, 24, 81)],
}
MEMORY_SPAN = (5.0, 7.0)  # t_max * sqrt(m2): fixes the ODE's step count
POVM_SWEEPS = {
    "full": [[1, 2], [1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4, 5, 6], [5, 6],
             [2, 4, 6], [1, 3, 5], [3, 4, 5, 6], [2, 3], [4, 5, 6], [1, 6], [2, 5]],
    "smoke": [[1, 2], [1, 3]],
}


# -- inputs -------------------------------------------------------------------

def circulant_couplings(rng, n: int) -> np.ndarray:
    """b_ij that depends only on the ring distance between i and j.

    Every site then sees the same coupling multiset, and the two members of
    the pair (0, 1) have equivalent environments, which the closed-form
    pair formulas require.
    """
    per_distance = rng.uniform(0.2, 1.0, n // 2 + 1) * rng.choice([-1.0, 1.0], n // 2 + 1)
    k = np.arange(n)
    gap = np.abs(k[:, None] - k[None, :])
    b = per_distance[np.minimum(gap, n - gap)]
    np.fill_diagonal(b, 0.0)
    return b


def ring_sites(n: int, spacing: float) -> list[list[float]]:
    """n sites on a circle in the xy plane, neighbours ``spacing`` apart.

    With the field along z every site is equivalent by rotation.
    """
    radius = spacing / (2.0 * math.sin(math.pi / n))
    ang = 2.0 * math.pi * np.arange(n) / n
    return [[radius * math.cos(a), radius * math.sin(a), 0.0] for a in ang]


def ring_sum_b2(n: int, spacing: float, scale: float) -> float:
    """sum_j b_0j^2 for ``ring_sites`` with the field normal to the ring."""
    radius = spacing / (2.0 * math.sin(math.pi / n))
    chords = 2.0 * radius * np.sin(math.pi * np.arange(1, n) / n)
    return float(np.sum((scale / (2.0 * chords**3)) ** 2))


def total_sx(two_s: int, n_sites: int) -> np.ndarray:
    """Dense total S_x, built independently of spinfid's oracle."""
    d = two_s + 1
    s = two_s / 2.0
    m = s - np.arange(d)
    s_plus = np.zeros((d, d))
    s_plus[np.arange(d - 1), np.arange(1, d)] = np.sqrt(s * (s + 1.0) - m[1:] * (m[1:] + 1.0))
    sx = (s_plus + s_plus.T) / 2.0
    out = np.zeros((d**n_sites, d**n_sites))
    for i in range(n_sites):
        out += np.kron(np.kron(np.eye(d**i), sx), np.eye(d ** (n_sites - i - 1)))
    return out


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, k] for k, name in enumerate(header)}


# -- output checks --------------------------------------------------------------

def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_oracle_compare(csv: Path, config: dict) -> dict:
    """F_oracle vs F_analytic gated; I and J relative deviations recorded.

    The relative deviations use the CLI summary's mask (analytic value above
    1e-8 beta^2); they grow near zeros of I and are not gated.
    """
    col = _read_csv(csv)
    floor = 1e-8 * config["spin"].get("beta", 1e-3) ** 2
    dev = float(np.max(np.abs(col["F_oracle"] - col["F_analytic"])))
    _require(dev <= FID_TOL, f"max |F_oracle - F_analytic| = {dev:.3e} > {FID_TOL:g}")
    rel = {}
    for key in ("I", "J"):
        analytic = col[f"{key}_analytic"]
        keep = analytic > floor
        rel[f"rel_dev_{key}"] = float(np.max(np.abs(col[f"{key}_oracle"][keep] / analytic[keep] - 1.0)))
    return {"fid_dev": dev, **rel}


def check_ising_analytic(csv: Path, config: dict) -> dict:
    col = _read_csv(csv)
    split = col["C"] if "C" in col else col["J"]
    dev = float(np.max(np.abs(col["I"] - (split + col["Q"]))))
    _require(dev <= ADDITIVITY_TOL, f"max |I - (C+Q)| = {dev:.3e} > {ADDITIVITY_TOL:g}")
    return {"additivity_dev": dev}


def check_povm_validate(csv: Path, config: dict) -> dict:
    col = _read_csv(csv)
    target = 1.0 / (col["two_s"] / 2.0 + 1.0)
    err = float(np.max(np.abs(col["Q_over_I"] - target)))
    comp = float(np.max(col["completeness_dev"]))
    _require(err < RATIO_TOL, f"max |Q/I - 1/(S+1)| = {err:.3e} >= {RATIO_TOL:g}")
    _require(comp <= COMPLETENESS_TOL, f"completeness deviation {comp:.3e} > {COMPLETENESS_TOL:g}")
    return {"ratio_err": err, "completeness_dev": comp}


def check_dipolar_memory(csv: Path, config: dict) -> dict:
    col = _read_csv(csv)
    top = float(np.max(np.abs(col["A0"])))
    _require(top <= 1.0 + A0_TOL, f"max |A0| = {top!r} > 1")
    return {"max_abs_a0": top}


CSV_CHECKS = {
    "ising_oracle_compare": check_oracle_compare,
    "ising_analytic": check_ising_analytic,
    "povm_validate": check_povm_validate,
    "dipolar_memory": check_dipolar_memory,
}


# -- job builders ---------------------------------------------------------------

def cli_job(name: str, config: dict, workdir: Path) -> Job:
    """One ``spinfid run CONFIG --out DIR``, config written before timing.

    Each run gets a fresh output directory: replacing an existing file by
    rename makes ext4 flush the new data to disk first, which would time
    the disk rather than spinfid.
    """
    config = dict(config, output=config.get("output", f"{config['mode']}.csv"))
    cfg_path = workdir / f"{name}.json"
    cfg_path.write_text(json.dumps(config))
    check_csv = CSV_CHECKS[config["mode"]]

    def run(out_dir: Path):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", str(cfg_path), "--out", str(out_dir)])
        if code != 0:
            raise JobFailed(f"spinfid run exited with code {code}")
        return out_dir / config["output"]

    return Job(name, run, lambda csv: check_csv(csv, config))


def dipolar_session_job(name: str, spin: SpinParams, table: CouplingTable,
                        grid: TimeGrid, pair_times, check_idx) -> Job:
    """Build a dipolar cluster, take its FID, then pair information."""

    def run(_out_dir: Path):
        cluster = oracle.EvolvedCluster.build(spin, table, "dipolar")
        fid = cluster.fid(grid)
        info = [float(oracle.mutual_info_numeric(cluster.pair_density(t, (0, 1), spin.beta)))
                for t in pair_times]
        return cluster, fid, info

    def check(result):
        cluster, fid, info = result
        dev0 = abs(float(fid[0]) - 1.0)
        _require(dev0 <= FID_TOL, f"|F(0) - 1| = {dev0:.3e}")
        sx = total_sx(spin.two_s, table.n_sites)
        norm = float(np.sum(sx * sx))
        worst = 0.0
        for k in check_idx:
            direct = float(np.sum(sx * cluster.deviation(float(grid.times[k])).real)) / norm
            worst = max(worst, abs(direct - float(fid[k])))
        _require(worst <= FID_TOL,
                 f"spectral FID vs Tr(Sx D(t))/Tr(Sx^2): {worst:.3e} > {FID_TOL:g}")
        _require(all(math.isfinite(v) for v in info), "non-finite pair information")
        return {"fid_dev": worst}

    return Job(name, run, check)


def oracle_ising_jobs(rng, size: str, workdir: Path) -> list[Job]:
    jobs = []
    for two_s, n, copies in ORACLE_ISING[size]:
        for c in range(copies):
            config = {
                "mode": "ising_oracle_compare",
                "spin": {"two_s": two_s, "beta": float(rng.uniform(2e-4, 1e-3))},
                "lattice": {"b_matrix": circulant_couplings(rng, n).tolist()},
                "pair": [0, 1],
                "grid": {"t_max": float(rng.uniform(3.0, 8.0)), "n_points": ORACLE_ISING_POINTS},
            }
            jobs.append(cli_job(f"ising-2s{two_s}-n{n}-{c}", config, workdir))
    return jobs


def oracle_dipolar_jobs(rng, size: str, workdir: Path) -> list[Job]:
    jobs = []
    n_points = DIPOLAR_FID_POINTS[size]
    for two_s, n, copies in ORACLE_DIPOLAR[size]:
        for c in range(copies):
            spin = SpinParams(two_s=two_s, beta=float(rng.uniform(2e-4, 1e-3)))
            table = CouplingTable(b=circulant_couplings(rng, n))
            grid = TimeGrid.linspace(float(rng.uniform(10.0, 30.0)), n_points)
            pair_times = np.sort(rng.uniform(0.1, 5.0, DIPOLAR_PAIR_TIMES))
            check_idx = rng.choice(np.arange(1, n_points), DIPOLAR_CHECK_TIMES, replace=False)
            jobs.append(dipolar_session_job(f"dipolar-2s{two_s}-n{n}-{c}", spin, table,
                                            grid, pair_times, check_idx))
    return jobs


def closed_form_jobs(rng, size: str, workdir: Path, configs_dir: Path) -> list[Job]:
    jobs = []
    for path in sorted(configs_dir.glob("*.json")):
        jobs.append(cli_job(f"config-{path.stem}", json.loads(path.read_text()), workdir))
    for k, (n, points, two_s) in enumerate(ANALYTIC_RINGS[size]):
        config = {
            "mode": "ising_analytic",
            "spin": {"two_s": two_s, "beta": float(rng.uniform(2e-4, 1e-3))},
            "lattice": {"sites": ring_sites(n, float(rng.uniform(0.8, 1.2))),
                        "field_direction": [0.0, 0.0, 1.0],
                        "coupling_scale": float(rng.uniform(0.5, 2.0))},
            "grid": {"t_max": float(rng.uniform(2.0, 10.0)), "n_points": points},
        }
        jobs.append(cli_job(f"analytic-{k}", config, workdir))
    for k, (n, k_ext, points) in enumerate(MEMORY_RINGS[size]):
        two_s = 1 + k % 4
        spacing = float(rng.uniform(0.8, 1.2))
        scale = float(rng.uniform(0.5, 2.0))
        s = two_s / 2.0
        m2 = 3.0 * s * (s + 1.0) * ring_sum_b2(n, spacing, scale)
        config = {
            "mode": "dipolar_memory",
            "spin": {"two_s": two_s, "beta": float(rng.uniform(2e-4, 1e-3))},
            "lattice": {"sites": ring_sites(n, spacing), "field_direction": [0.0, 0.0, 1.0],
                        "coupling_scale": scale},
            "grid": {"t_max": float(rng.uniform(*MEMORY_SPAN)) / math.sqrt(m2), "n_points": points},
            "hierarchy": {"K": 2, "closure": "gaussian_tail", "K_ext": k_ext},
            "emit_couplings": k % 3 == 0,
        }
        jobs.append(cli_job(f"memory-{k}", config, workdir))
    for k, sweep in enumerate(POVM_SWEEPS[size]):
        b = float(rng.uniform(0.5, 1.5))
        config = {
            "mode": "povm_validate",
            "spin": {"two_s": 1, "beta": float(rng.uniform(2e-4, 1e-3))},
            "lattice": {"b_matrix": [[0.0, b], [b, 0.0]]},
            "quadrature": {"n_theta": 64, "n_phi": 128},
            "spin_sweep": sweep,
        }
        jobs.append(cli_job(f"povm-{k}", config, workdir))
    return jobs


def guard_violation_job(workdir: Path) -> Job:
    """A cluster over the oracle's dimension guard: spinfid exits with 3."""
    config = {"mode": "ising_oracle_compare", "spin": {"two_s": 1},
              "lattice": {"b_matrix": circulant_couplings(np.random.default_rng(0), 13).tolist()},
              "grid": {"t_max": 1.0, "n_points": 3}}
    return cli_job("guard-violation", config, workdir)


def build_jobs(workload: str, seed: int, size: str, workdir: Path, configs_dir: Path) -> list[Job]:
    """The workload's job list; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "oracle_ising":
        return oracle_ising_jobs(rng, size, workdir)
    if workload == "oracle_dipolar":
        return oracle_dipolar_jobs(rng, size, workdir)
    return closed_form_jobs(rng, size, workdir, configs_dir)
