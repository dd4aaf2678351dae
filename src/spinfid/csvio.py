"""CSV emission at full float precision, written atomically."""

from __future__ import annotations

import csv
import functools
import os
import tempfile
from pathlib import Path

import numpy as np


def _spec(kind: type) -> str:
    """Integers exactly; anything else at 17 significant digits, enough to
    round-trip any float64."""
    return "%d" if issubclass(kind, (int, np.integer)) else "%.17g"


def fmt(value) -> str:
    """One number as ``write_csv_atomic`` writes it."""
    return _spec(type(value)) % value


@functools.lru_cache(maxsize=64)
def _row_format(types: tuple[type, ...]) -> str:
    """One %-format line for a row of values of these types, with the csv
    module's default line end."""
    return ",".join(map(_spec, types)) + "\r\n"


def write_csv_atomic(path, header: list[str], rows) -> Path:
    """Write rows (iterable of tuples) to path via temp file + rename.

    The bytes are those of ``csv.writer`` on ``fmt`` of each value: numbers
    never need quoting, so each row is one %-format of its value types.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            csv.writer(fh).writerow(header)
            for row in rows:
                row = tuple(row)
                fh.write(_row_format(tuple(map(type, row))) % row)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Read back a numeric CSV as (header, float array of shape (rows, cols))."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.array([[float(v) for v in row] for row in reader])
    return header, data
