"""Scan-and-polish root finding shared by the spectrum and pole solvers."""

from scipy.optimize import brentq


def scan_roots(f, grid, exact_zeros=True):
    """Roots of f on the grid, lazily in grid order.

    f must be elementwise: it is evaluated once on the whole grid before
    the first root is yielded, and each sign change between neighbouring
    samples is then polished with Brent's method on scalar calls.  A
    sample that is exactly zero is itself a root when exact_zeros is
    set, and is skipped otherwise.
    """
    vals = f(grid)
    for i in range(len(grid) - 1):
        if vals[i] * vals[i + 1] < 0:
            yield brentq(f, grid[i], grid[i + 1], xtol=1e-14)
        elif exact_zeros and vals[i] == 0.0:
            yield grid[i]
