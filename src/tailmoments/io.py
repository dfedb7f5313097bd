"""CSV and JSON helpers shared by the command line and the experiment harness.

CSV files use the plain comma dialect; a single header row is detected by a
non-numeric first token and floats are written with 17 significant digits so
matrices survive a write/read round trip bit-for-bit.
"""

from __future__ import annotations

import json
import warnings

import numpy as np

FLOAT_FORMAT = "%.17g"
#: rows :func:`write_matrix_csv` formats at a time
WRITE_ROWS = 4096


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def read_matrix_csv(path) -> np.ndarray:
    """Read an (n, d) float matrix from a comma-separated file.

    An optional single header row (any first token that does not parse as a
    float) is skipped automatically.  A header without rows gives an empty
    matrix, which :class:`~tailmoments.core.DataMatrix` refuses.
    """
    with open(path, "r", newline="") as handle:
        first = handle.readline()
    if not first.strip():
        raise ValueError(f"{path}: file is empty")
    has_header = not _is_number(first.strip().split(",")[0])
    with warnings.catch_warnings():  # the empty matrix is the answer, not a warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(path, delimiter=",", skiprows=1 if has_header else 0, ndmin=2)


def write_matrix_csv(path, values, header: list[str] | None = None) -> None:
    """Write an (n, d) matrix with a header row and full float precision.

    The bytes are those of ``np.savetxt(path, values, delimiter=",", fmt=FLOAT_FORMAT,
    header=",".join(header), comments="")``; the rows are formatted :data:`WRITE_ROWS` at a
    time through one format string, not one by one.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError("values must be 2-dimensional")
    if header is None:
        header = [f"X{j + 1}" for j in range(values.shape[1])]
    header, line = ",".join(header), ",".join([FLOAT_FORMAT] * values.shape[1]) + "\n"
    with open(path, "w") as handle:
        if header:  # as savetxt, no line for an empty header
            handle.write(header + "\n")
        for start in range(0, values.shape[0], WRITE_ROWS):
            block = values[start:start + WRITE_ROWS]
            handle.write(line * block.shape[0] % tuple(block.ravel().tolist()))


def load_json(path) -> dict:
    with open(path, "r") as handle:
        return json.load(handle)


def save_json(payload: dict, path) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def format_float(value) -> str:
    """Render a float (or None) the way the CSV writers do."""
    if value is None:
        return ""
    return FLOAT_FORMAT % float(value)
