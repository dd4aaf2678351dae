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
