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
    if isinstance(v, complex):
        return f"{v.real:.17g}{v.imag:+.17g}j"
    return str(v)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")


def json_value(v):
    """Plain Python value for JSON; non-finite floats become null."""
    v = v.item() if isinstance(v, np.generic) else v
    return None if isinstance(v, float) and not math.isfinite(v) else v


def write_json(path, header, rows):
    payload = [dict(zip(header, map(json_value, row))) for row in rows]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, default=format_value, allow_nan=False)
        fh.write("\n")


def write_table(path, header, rows, fmt="csv"):
    path = str(path)
    if fmt == "json":
        if path.endswith(".csv"):
            path = path[:-4] + ".json"
        write_json(path, header, rows)
    else:
        write_csv(path, header, rows)


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
