"""Scan-and-polish root finding shared by the spectrum and pole solvers,
and the Brent-steered bisection shared by the impurity calibrations."""

import functools

from scipy.optimize import brentq

STEER_XTOL = 1e-14        # Brent tolerance on the steering root
STEER_MARGIN = 1e-13      # midpoints this close to it are evaluated


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


def steered_bisection(f, target, lo, hi, steps, width=0.0):
    """Bisection of [lo, hi] for f(x) = target, with f rising through it.

    Each of at most `steps` midpoints moves lo up when f(mid) < target
    and hi down otherwise; the loop stops early once hi - lo < width.
    Returns the final midpoint (lo + hi) / 2.

    Most midpoints are decided without calling f: when
    f(lo) < target <= f(hi), one Brent root x* of f - target (xtol
    1e-14, so x* lies well inside the margin) is located first, and a
    midpoint further than 1e-13 from x* goes to the side of x* it lies
    on.  Only midpoints within 1e-13 of x* evaluate f.  Whenever f
    crosses the target once on [lo, hi], this gives the same midpoints
    and the same result, bit for bit, as evaluating f at every
    midpoint.  Without that bracket, or if Brent's method fails, every
    midpoint is evaluated.  f is memoized, so no point is evaluated
    twice.
    """
    f = functools.cache(f)
    root = None
    if f(lo) < target <= f(hi):
        try:
            root = brentq(lambda x: f(x) - target, lo, hi, xtol=STEER_XTOL)
        except (ValueError, RuntimeError):
            pass
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if root is None or abs(mid - root) <= STEER_MARGIN:
            below = f(mid) < target
        else:
            below = mid < root
        if below:
            lo = mid
        else:
            hi = mid
        if hi - lo < width:
            break
    return 0.5 * (lo + hi)
