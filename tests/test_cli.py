"""Config validation, run modes, CSV round trips, and exit codes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinfid import oracle
from spinfid.cli import (
    emit_summary,
    load_config,
    main,
    run,
    serialize_config,
    validate_config,
)
from spinfid.csvio import write_csv_atomic
from spinfid.errors import ConfigError


def read_csv(path):
    """Read back a numeric CSV as (header, float array of shape (rows, cols))."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.array([[float(v) for v in row] for row in reader])
    return header, data


def minimal(mode="ising_analytic", **extra):
    cfg = {"mode": mode}
    cfg.update(extra)
    return cfg


def test_minimal_config_fills_defaults():
    cfg = validate_config(minimal())
    assert cfg.spin.two_s == 1
    assert cfg.spin.beta == 1e-3
    assert cfg.quadrature == (64, 128)
    assert cfg.k_ext == 64
    assert cfg.measurement == "von_neumann"
    assert cfg.output == "ising_analytic.csv"
    assert any("beta" in d for d in cfg.applied_defaults)


def test_each_bad_key_reported_individually():
    raw = minimal()
    raw["grid"] = {"t_max": -1.0, "n_points": 1}
    raw["spin"] = {"two_s": 0, "beta": -2.0}
    raw["lattice"] = {"b_matrix": [[1.0, 0.0], [0.0, 1.0]]}
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    msg = str(err.value)
    assert "t_max" in msg
    assert "lattice" in msg
    assert "spin" in msg


def test_negative_t_max_rejected_with_key_path():
    with pytest.raises(ConfigError, match="grid"):
        validate_config(minimal(grid={"t_max": -3.0, "n_points": 10}))


def test_nonzero_diagonal_b_matrix_rejected():
    with pytest.raises(ConfigError, match="lattice"):
        validate_config(minimal(lattice={"b_matrix": [[0.5, 1.0], [1.0, 0.0]]}))


def test_unknown_mode_rejected():
    with pytest.raises(ConfigError, match="mode"):
        validate_config(minimal(mode="frobnicate"))


@pytest.mark.parametrize("key,value", [("spin", 5), ("grid", [1, 2]), ("hierarchy", "x")])
def test_ill_typed_sections_rejected(key, value):
    with pytest.raises(ConfigError, match=f"key '{key}' must be an object"):
        validate_config(minimal(**{key: value}))


@pytest.mark.parametrize("config, path", [
    (minimal(grd={"t_max": 1.0, "n_points": 5}), "grd"),
    (minimal(grid={"npoints": 5}), "grid.npoints"),
    (minimal(spin={"Beta": 0.5}), "spin.Beta"),
])
def test_main_unknown_key_exit_2(tmp_path, capsys, config, path):
    # a key no mode reads is a typo, not a request for the default
    assert main(["run", write_cfg(tmp_path, config), "--out", str(tmp_path)]) == 2
    assert f"unknown key '{path}'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_main_unread_key_noted_not_rejected(tmp_path, capsys):
    # hierarchy is read by dipolar_memory only: ising_analytic runs as without
    # it, with a note on stderr and the same stdout
    base = minimal(grid={"t_max": 1.0, "n_points": 5})
    outs = []
    for name, config in (("plain", base), ("extra", dict(base, hierarchy={"K": 1}))):
        path = write_cfg(tmp_path, config)
        assert main(["run", path, "--out", str(tmp_path / name)]) == 0
        cap = capsys.readouterr()
        outs.append(cap.out.replace(str(tmp_path / name), ""))
        notes = [line for line in cap.err.splitlines() if line]
        assert notes == ([] if name == "plain" else
                         ["note: mode ising_analytic does not read key 'hierarchy.K'"])
    assert outs[0] == outs[1]


@pytest.mark.parametrize("mode, unread", [
    ("ising_analytic", ("quadrature", "hierarchy", "moments", "spin_sweep")),
    ("ising_oracle_compare", ("hierarchy", "moments", "spin_sweep")),
    ("dipolar_memory", ("measurement", "quadrature", "spin_sweep")),
    ("povm_validate", ("spin.two_s", "grid", "measurement", "hierarchy", "moments")),
])
def test_applied_defaults_name_only_keys_the_mode_reads(mode, unread):
    applied = validate_config(minimal(mode=mode)).applied_defaults
    assert applied and all(" = " in line for line in applied)
    assert not [line for line in applied if line.startswith(unread)]


def test_oracle_compare_defaults_to_povm():
    assert validate_config(minimal(mode="ising_oracle_compare")).measurement == "povm"


def test_bad_json_text_rejected():
    with pytest.raises(ConfigError, match="JSON"):
        validate_config("{not json")


def test_config_round_trip():
    cfg = validate_config(minimal(
        spin={"two_s": 2, "beta": 5e-4},
        lattice={"b_matrix": [[0.0, 0.25], [0.25, 0.0]]},
        grid={"t_max": 2.5, "n_points": 11},
        measurement="povm",
    ))
    again = validate_config(serialize_config(cfg))
    assert serialize_config(again) == serialize_config(cfg)
    assert not again.applied_defaults


def test_run_ising_analytic_writes_cosine(tmp_path):
    cfg = validate_config(minimal(grid={"t_max": 6.0, "n_points": 31}))
    results = run(cfg, tmp_path)
    header, data = read_csv(tmp_path / "ising_analytic.csv")
    assert header == ["t", "fid", "I", "C", "Q"]
    np.testing.assert_allclose(data[:, 1], np.cos(data[:, 0]), atol=1e-14)
    assert (tmp_path / "couplings.csv").exists() is False
    assert "files" in results


def test_run_emits_couplings_on_request(tmp_path):
    cfg = validate_config(minimal(grid={"t_max": 1.0, "n_points": 5},
                                  emit_couplings=True))
    run(cfg, tmp_path)
    header, data = read_csv(tmp_path / "couplings.csv")
    assert header == ["i", "j", "b_ij"]
    assert data.shape == (2, 3)
    assert data[0, 2] == 1.0


def test_csv_round_trips_floats(tmp_path):
    cfg = validate_config(minimal(
        lattice={"b_matrix": [[0.0, 1 / 3], [1 / 3, 0.0]]},
        grid={"t_max": np.pi, "n_points": 7}))
    run(cfg, tmp_path)
    _, data = read_csv(tmp_path / "ising_analytic.csv")
    from spinfid.core import SpinParams
    from spinfid.ising import PairContext, mutual_info_ising

    ctx = PairContext(spin=SpinParams(1, 1e-3), b_ij=1 / 3)
    np.testing.assert_array_equal(data[:, 2], mutual_info_ising(ctx, data[:, 0]))


def csv_writer_reference(path, header, rows):
    """The writer as it was before rows became one %-format each."""
    def fmt(value):
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return f"{float(value):.17g}"

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def test_csv_bytes_match_csv_writer(tmp_path):
    rows = [
        (0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324),
        (1, -7, 2**70, np.int64(-3), np.uint8(200), True),
        (np.float64(1 / 3), np.float32(0.1), 1e308, -2.5e-310, 1.0, np.int32(4)),
        [3, 2.5, np.float64("nan"), np.int16(-1), 0.1, 1e22],  # types change per column
        np.array([1.0, 2.0, -0.0, 7.0, np.pi, -np.e]),
    ]
    header = ["t", 'a,b', 'q"uote', "x", "y", "z"]
    write_csv_atomic(tmp_path / "new.csv", header, rows)
    csv_writer_reference(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert (tmp_path / "new.csv").read_bytes().count(b"\r\n") == len(rows) + 1


def test_run_oracle_compare_mode(tmp_path):
    cfg = validate_config(minimal(
        mode="ising_oracle_compare",
        lattice={"b_matrix": [[0.0, 1.0, 0.5], [1.0, 0.0, 0.5], [0.5, 0.5, 0.0]]},
        grid={"t_max": 3.0, "n_points": 13}))
    results = run(cfg, tmp_path)
    header, data = read_csv(tmp_path / "ising_oracle_compare.csv")
    assert header[:3] == ["t", "F_oracle", "F_analytic"]
    assert np.max(np.abs(data[:, 1] - data[:, 2])) < 1e-10
    assert any("max |F_oracle - F_analytic|" in line for line in results["lines"])
    # Q/I is nan where I_analytic is below the 1e-8 beta^2 floor (only the
    # product state at t = 0 here) and 1 - J/I from the columns elsewhere
    col = dict(zip(header, data.T))
    above = col["I_analytic"] > 1e-8 * cfg.spin.beta**2
    np.testing.assert_array_equal(above, col["t"] > 0)
    assert np.all(np.isnan(col["Q_over_I_oracle"][~above]))
    np.testing.assert_array_equal(col["Q_over_I_oracle"][above],
                                  1.0 - col["J_oracle"][above] / col["I_oracle"][above])


def test_run_oracle_compare_von_neumann(tmp_path):
    # the spin-1/2 orthogonal split against the oracle's axis search: Q/I = 1/2
    # within acceptance criterion 3's 1e-3, where the POVM default gives 2/3
    three = {"b_matrix": [[0.0, 1.0, 0.5], [1.0, 0.0, 0.5], [0.5, 0.5, 0.0]]}
    cols, csvs = {}, {}
    for measurement in ("von_neumann", "povm", None):
        extra = {} if measurement is None else {"measurement": measurement}
        out = tmp_path / str(measurement)
        run(validate_config(minimal(mode="ising_oracle_compare", lattice=three,
                                    grid={"t_max": 3.0, "n_points": 13}, **extra)), out)
        header, data = read_csv(out / "ising_oracle_compare.csv")
        cols[measurement] = dict(zip(header, data.T))
        csvs[measurement] = (out / "ising_oracle_compare.csv").read_bytes()
    vn = cols["von_neumann"]
    assert np.all(vn["Q_over_I_target"] == 0.5)
    later = vn["t"] > 0
    assert np.max(np.abs(vn["Q_over_I_oracle"][later] - 0.5)) < 1e-3
    np.testing.assert_allclose(vn["J_analytic"], vn["I_analytic"] / 2.0, rtol=1e-15, atol=0)
    assert np.all(cols["povm"]["Q_over_I_target"] == 2.0 / 3.0)
    assert csvs[None] == csvs["povm"] != csvs["von_neumann"]


def test_run_dipolar_memory_mode(tmp_path):
    cfg = validate_config(minimal(mode="dipolar_memory",
                                  grid={"t_max": 3.0, "n_points": 16}))
    run(cfg, tmp_path)
    header, data = read_csv(tmp_path / "dipolar_memory.csv")
    assert header == ["t", "A0", "A1", "I_dipolar", "T_total"]
    assert data[0, 1] == 1.0
    assert data[0, 3] == 0.0 and data[0, 4] == 0.0


def test_run_povm_validate_mode(tmp_path):
    cfg = validate_config(minimal(mode="povm_validate", spin_sweep=[1, 2]))
    run(cfg, tmp_path)
    header, data = read_csv(tmp_path / "povm_validate.csv")
    assert header[0] == "two_s"
    np.testing.assert_allclose(data[:, 1], data[:, 2], atol=5e-3)


def test_summary_deterministic(tmp_path):
    cfg = validate_config(minimal(grid={"t_max": 2.0, "n_points": 9}))
    s1 = emit_summary(run(cfg, tmp_path / "a"))
    s2 = emit_summary(run(cfg, tmp_path / "b"))
    assert s1.replace(str(tmp_path / "a"), "") == s2.replace(str(tmp_path / "b"), "")
    assert "Q/I" in s1  # ratio table present


def test_summary_empty_stub():
    assert emit_summary({}) == "no data\n"


def test_summary_ratio_table_values():
    out = emit_summary({"mode": "x", "lines": [], "files": []})
    for val in ("0.666666667", "0.500000000", "0.400000000", "0.333333333"):
        assert val in out


# -- entry point ----------------------------------------------------------------------

def write_cfg(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_main_success(tmp_path, capsys):
    path = write_cfg(tmp_path, minimal(grid={"t_max": 1.0, "n_points": 5}))
    assert main(["run", path, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "mode ising_analytic" in out
    assert "byte" not in out


def test_main_mode_override(tmp_path, capsys):
    path = write_cfg(tmp_path, minimal(grid={"t_max": 1.0, "n_points": 5}))
    assert main(["run", path, "--out", str(tmp_path), "--mode", "dipolar_memory"]) == 0
    assert (tmp_path / "dipolar_memory.csv").exists()


def test_main_config_error_exit_2(tmp_path, capsys):
    path = write_cfg(tmp_path, minimal(mode="nope"))
    assert main(["run", path]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("lattice", [
    {"b_matrix": [[0, 1], [1, 0]], "coupling_scale": 5, "field_direction": [1, 0, 0]},
    {"sites": [[0, 0, 0], [0, 0, 1]], "spacing": 2.0},
])
def test_main_lattice_extra_keys_exit_2(tmp_path, capsys, lattice):
    path = write_cfg(tmp_path, minimal(lattice=lattice))
    assert main(["run", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "key 'lattice':" in err
    assert "not allowed with" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("config, key", [
    (minimal(grid={"t_max": float("inf"), "n_points": 11}), "key 'grid'"),
    (minimal(spin={"two_s": 1, "beta": float("inf")}), "key 'spin'"),
    (minimal(mode="ising_oracle_compare",
             lattice={"b_matrix": [[0.0, float("nan")], [float("nan"), 0.0]]}), "key 'lattice'"),
])
def test_main_non_finite_input_exit_2(tmp_path, capsys, config, key):
    # json writes and reads Infinity and NaN; no guard may let them through
    path = write_cfg(tmp_path, config)
    assert "Infinity" in Path(path).read_text() or "NaN" in Path(path).read_text()
    assert main(["run", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert key in err and "finite" in err
    assert not list(tmp_path.glob("*.csv"))


def test_main_guard_error_exit_3(tmp_path, capsys):
    b = (np.ones((7, 7)) - np.eye(7)).tolist()
    path = write_cfg(tmp_path, minimal(
        mode="ising_oracle_compare",
        spin={"two_s": 3, "beta": 1e-3},
        lattice={"b_matrix": b},
        grid={"t_max": 1.0, "n_points": 5}))
    assert main(["run", path, "--out", str(tmp_path)]) == 3
    assert "guard error" in capsys.readouterr().err


def test_main_chain_guard_exit_3(tmp_path, capsys):
    path = write_cfg(tmp_path, minimal(
        mode="dipolar_memory",
        hierarchy={"K": 2, "closure": "gaussian_tail", "K_ext": oracle.DIM_GUARD + 1},
        grid={"t_max": 1.0, "n_points": 5}))
    assert main(["run", path, "--out", str(tmp_path)]) == 3
    assert "guard error" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["ising_analytic", "dipolar_memory"])
def test_main_huge_beta_exit_3(tmp_path, capsys, mode):
    # the pair guard of the oracle modes: beta * S * 2 >= 1 breaks positivity
    path = write_cfg(tmp_path, minimal(mode=mode, spin={"two_s": 1, "beta": 1e300},
                                       grid={"t_max": 1.0, "n_points": 5}))
    assert main(["run", path, "--out", str(tmp_path)]) == 3
    assert "guard error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def ring_sites(n):
    """n unit-spaced sites on a circle normal to the field: all equivalent."""
    radius = 0.5 / np.sin(np.pi / n)
    ang = 2.0 * np.pi * np.arange(n) / n
    return np.stack([radius * np.cos(ang), radius * np.sin(ang), 0.0 * ang], axis=1).tolist()


def test_ising_analytic_rescaled_ring(tmp_path):
    # only b t is physical: the ring at coupling scale 1000 read at times
    # t/1000 gives the scale-1 correlations, and the roundoff of its larger
    # couplings does not make the two sites of the pair look inequivalent
    info = []
    for scale in (1.0, 1000.0):
        out = tmp_path / f"scale{scale:g}"
        path = write_cfg(tmp_path, minimal(
            spin={"two_s": 2, "beta": 1e-3},
            lattice={"sites": ring_sites(20), "coupling_scale": scale},
            grid={"t_max": 5.0 / scale, "n_points": 41}))
        assert main(["run", path, "--out", str(out)]) == 0
        header, data = read_csv(out / "ising_analytic.csv")
        info.append(data[:, header.index("I")])
    np.testing.assert_allclose(info[1], info[0], rtol=1e-12, atol=0)


def test_shipped_configs_load_no_scipy(tmp_path):
    # a fresh interpreter, so that modules imported by the tests do not count
    repo = Path(__file__).resolve().parents[1]
    script = f"""
import sys
from pathlib import Path
import spinfid
from spinfid.cli import main
for cfg in sorted(Path({str(repo / "configs")!r}).glob("*.json")):
    assert main(["run", str(cfg), "--out", str(Path({str(tmp_path)!r}) / cfg.stem)]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
sys.exit(f"scipy modules loaded: {{loaded}}" if loaded else 0)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("*/*.csv"))) == 4


def test_main_missing_file_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "none.json")]) == 2


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_main_bad_thread_count_exit_2(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("SPINFID_NUM_THREADS", value)
    path = write_cfg(tmp_path, minimal(mode="povm_validate", spin_sweep=[1]))
    assert main(["run", path, "--out", str(tmp_path)]) == 2
    assert "SPINFID_NUM_THREADS" in capsys.readouterr().err


def test_load_config_reads_file(tmp_path):
    path = write_cfg(tmp_path, minimal())
    cfg = load_config(path)
    assert cfg.mode == "ising_analytic"


def test_shipped_sample_configs_validate():
    config_dir = Path(__file__).resolve().parents[1] / "configs"
    samples = sorted(config_dir.glob("*.json"))
    assert len(samples) == 4
    modes = {load_config(p).mode for p in samples}
    assert modes == {"ising_analytic", "ising_oracle_compare",
                     "dipolar_memory", "povm_validate"}


@pytest.mark.parametrize("threads", ["2", "4"])
def test_povm_validate_threads_write_the_serial_csv(tmp_path, monkeypatch, threads):
    # the sweep's workers share the module-level quadrature caches; start them
    # empty and switch threads often so that the workers race to fill them
    path = write_cfg(tmp_path, minimal(mode="povm_validate", spin_sweep=[1, 2, 3, 4]))
    csvs = []
    for n in ("1", threads):
        oracle._sphere_nodes.cache_clear()
        oracle._scs_basis.cache_clear()
        monkeypatch.setenv("SPINFID_NUM_THREADS", n)
        out = tmp_path / f"threads{n}"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert main(["run", str(path), "--out", str(out)]) == 0
        finally:
            sys.setswitchinterval(interval)
        csvs.append((out / "povm_validate.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_shipped_configs_read_every_key():
    # so that the samples print no stderr note
    for path in sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json")):
        assert load_config(path).unread_keys == (), path.name


def circulant_b(n, seed):
    rng = np.random.default_rng(seed)
    per_distance = rng.uniform(0.2, 1.0, n // 2 + 1) * rng.choice([-1.0, 1.0], n // 2 + 1)
    gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    b = per_distance[np.minimum(gap, n - gap)]
    np.fill_diagonal(b, 0.0)
    return b.tolist()


def round_trip_configs():
    """The shipped samples, then one config of each shape the benchmark jobs take."""
    configs = {p.stem: json.loads(p.read_text()) for p in
               sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))}
    ring = {"sites": ring_sites(30), "field_direction": [0.0, 0.0, 1.0], "coupling_scale": 1.3}
    configs.update({
        "oracle_ising": {"mode": "ising_oracle_compare", "spin": {"two_s": 1, "beta": 7e-4},
                         "lattice": {"b_matrix": circulant_b(6, 1)}, "pair": [0, 1],
                         "grid": {"t_max": 5.5, "n_points": 41},
                         "output": "ising_oracle_compare.csv"},
        "analytic_ring": {"mode": "ising_analytic", "spin": {"two_s": 3, "beta": 4e-4},
                          "lattice": ring, "grid": {"t_max": 7.0, "n_points": 300},
                          "output": "ising_analytic.csv"},
        "memory_ring": {"mode": "dipolar_memory", "spin": {"two_s": 2, "beta": 9e-4},
                        "lattice": ring, "grid": {"t_max": 0.8, "n_points": 101},
                        "hierarchy": {"K": 2, "closure": "gaussian_tail", "K_ext": 96},
                        "emit_couplings": True, "output": "dipolar_memory.csv"},
        "povm_sweep": {"mode": "povm_validate", "spin": {"two_s": 1, "beta": 3e-4},
                       "lattice": {"b_matrix": [[0.0, 0.7], [0.7, 0.0]]},
                       "quadrature": {"n_theta": 64, "n_phi": 128}, "spin_sweep": [2, 4, 6],
                       "output": "povm_validate.csv"},
        "guard_violation": {"mode": "ising_oracle_compare", "spin": {"two_s": 1},
                            "lattice": {"b_matrix": circulant_b(13, 0)},
                            "grid": {"t_max": 1.0, "n_points": 3}},
    })
    return configs


ROUND_TRIP = round_trip_configs()


@pytest.mark.parametrize("name", list(ROUND_TRIP))
def test_serialized_config_validates_back(name):
    cfg = validate_config(ROUND_TRIP[name])
    again = validate_config(json.loads(json.dumps(serialize_config(cfg))))
    assert again.applied_defaults == () and again.unread_keys == ()
    assert serialize_config(again) == serialize_config(cfg)
    for attr in ("mode", "spin", "pair", "measurement", "quadrature", "hierarchy_k",
                 "closure", "k_ext", "moments", "spin_sweep", "output", "emit_couplings"):
        assert getattr(again, attr) == getattr(cfg, attr), attr
    np.testing.assert_array_equal(again.table.b, cfg.table.b)
    np.testing.assert_array_equal(again.table.a, cfg.table.a)
    np.testing.assert_array_equal(again.grid.times, cfg.grid.times)
