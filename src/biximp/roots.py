"""Scan-and-polish root finding shared by the spectrum and pole solvers."""

import numpy as np
from scipy.optimize import brentq


def scan_roots(f, grid, exact_zeros=True):
    """Roots of the scalar function f on the grid, lazily in grid order.

    f is sampled at every grid point before the first root is yielded;
    each sign change between neighbouring samples is then polished with
    Brent's method.  A sample that is exactly zero is itself a root
    when exact_zeros is set, and is skipped otherwise.
    """
    vals = np.array([f(x) for x in grid])
    for i in range(len(grid) - 1):
        if vals[i] * vals[i + 1] < 0:
            yield brentq(f, grid[i], grid[i + 1], xtol=1e-14)
        elif exact_zeros and vals[i] == 0.0:
            yield grid[i]
