"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the oracle cross-check prints I_oracle / I_analytic = 1 + O(beta^2),
    # and finds the same over the grid
    assert abs(float(capsys.readouterr().out) - 1.0) < 1e-2
    assert namespace["ratios"].shape == (199,)
    assert max(abs(namespace["ratios"] - 1.0)) < 1e-2


def test_readme_key_table_lists_the_config_keys():
    from spinfid.cli import KEYS

    table = README.read_text().split("Keys, with the modes that read them:")[1].split("\n\n")[1]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    documented = [path for row in rows for path in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(documented) == sorted(key.path for key in KEYS)
    assert all(len(row.split("|")) == 6 for row in rows)  # key, meaning, default, read by
