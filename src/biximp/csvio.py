"""Deterministic tabular and binary output.

CSV: comma separated, one header row, floats at 17 significant digits
so that identical runs produce byte-identical files.  JSON is strict:
non-finite floats are written as null.  Binary grids:
row-major little-endian float64.
"""

import json
import math

import numpy as np


def format_value(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _float17(v):
    return float.__format__(v, ".17g")


def _bool(v):
    return "true" if v else "false"


# format_value's strings, looked up by exact type, for the types tables hold
_FORMAT = {float: _float17, np.float64: _float17, bool: _bool, np.bool_: _bool,
           int: str, str: str}


def write_csv(path, header, rows):
    fmt = _FORMAT.get
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join([fmt(type(v), format_value)(v) for v in row]) + "\n")


def json_value(v):
    """Plain Python value for JSON; non-finite floats become null."""
    v = v.item() if isinstance(v, np.generic) else v
    return None if isinstance(v, float) and not math.isfinite(v) else v


def write_json(path, header, rows):
    payload = [dict(zip(header, map(json_value, row))) for row in rows]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, allow_nan=False)
        fh.write("\n")


def write_table(path, header, rows, fmt):
    """Rows to `path` as "csv" or "json"; the caller names the file."""
    (write_json if fmt == "json" else write_csv)(path, header, rows)


def write_grid_binary(path, array):
    np.ascontiguousarray(array, dtype="<f8").tofile(path)


def write_gnuplot_script(path, csv_name, columns, title):
    """Companion plot script referencing a CSV by relative name."""
    lines = [
        "set datafile separator ','",
        f"set title '{title}'",
        "set key autotitle columnheader",
        f"plot '{csv_name}' using {columns} with linespoints",
        "pause -1",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
