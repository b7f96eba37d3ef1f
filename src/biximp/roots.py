"""Brent's root finder, the bracket-and-polish root of the exciton and
pair decay constants, the scan-and-polish root finding shared by the
spectrum and pole solvers, and the Brent-steered bisection of the
wavepacket impurity calibration.

brentq is a line-for-line port of scipy.optimize.brentq: the C routine
Zeros/brentq.c behind it, with the NaN check of its Python wrapper, an
implementation of R. P. Brent's algorithm (Algorithms for Minimization
without Derivatives, 1973).  It takes the same steps, stops by the same
rules and does the same floating-point operations, so every root is
bit-identical to scipy's; tests/test_roots.py checks this against the
installed scipy.  It is ported because importing scipy.optimize costs
about 0.5 s and 46 MiB in every fresh process, more than most CLI runs
spend computing, and nothing else in the package needs scipy.
Failures raise NumericalError, so the CLI reports them in one line.
"""

import math

from .errors import NumericalError

BRENTQ_RTOL = 4 * 2.220446049250313e-16   # 4 eps, scipy's floor on rtol
BRENTQ_MAXITER = 100       # scipy's default
STEER_XTOL = 1e-14        # Brent tolerance on the steering root
STEER_MARGIN = 1e-13      # midpoints this close to it are evaluated


def brentq(f, a, b, xtol=2e-12, rtol=BRENTQ_RTOL):
    """Root of f in [a, b], where f(a) and f(b) differ in sign.

    Stops when the bracket half-width falls below
    (xtol + rtol |x|) / 2.  Raises NumericalError when f(a) and f(b)
    have the same sign, when f returns NaN, when BRENTQ_MAXITER
    iterations do not converge, or when xtol <= 0 or rtol < 4 eps.
    """
    if xtol <= 0 or rtol < BRENTQ_RTOL:
        raise NumericalError(
            f"brentq tolerance too small (xtol {xtol:g}, rtol {rtol:g})")

    def fx(x):
        y = float(f(x))
        if math.isnan(y):
            raise NumericalError(f"f({x!r}) is NaN; Brent's method cannot continue")
        return y

    xpre, xcur = float(a), float(b)
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NumericalError(
            f"f({xpre!r}) and f({xcur!r}) have the same sign; no bracketed root")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENTQ_MAXITER):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            # C division by zero gives an infinite or NaN trial step,
            # which the acceptance test rejects: bisect then too
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis          # bisect
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise NumericalError(
        f"Brent's method did not converge in {BRENTQ_MAXITER} iterations; "
        f"value {xcur!r}, residual {fcur!r}")


def decay_root(f, hi):
    """Root of a decay condition f, negative just above 0, on (1e-14, hi'].

    hi' is the first of hi, 2 hi, 4 hi, ... with f(hi') >= 0; the root is
    then polished to xtol 1e-15 and rtol 8.9e-16.  Raises NumericalError
    once the bracket passes 1e6.
    """
    while f(hi) < 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise NumericalError(f"bound-root bracket expansion failed: "
                                 f"residual {f(hi):.2e} at {hi:.3g}")
    return brentq(f, 1e-14, hi, xtol=1e-15, rtol=8.9e-16)


def scan_roots(f, grid):
    """Roots of f on the grid, lazily in grid order.

    f must be elementwise.  It is evaluated on contiguous chunks of the
    grid of 64, 128, 256, ... points, each starting at the last point
    of the one before, so no sign change between chunks is missed and a
    caller that stops at the first root never evaluates the chunks
    after it.  Each sign change between neighbouring samples is polished
    with Brent's method on scalar calls.  A sample that is exactly zero
    is itself a root; the last grid point never is.  Signs are compared,
    not the product of two samples, which underflows below 1e-154.
    """
    lo, size = 0, 64
    while lo < len(grid) - 1:
        hi = min(lo + size, len(grid))
        vals = f(grid[lo:hi])
        for i, a, b in zip(range(lo, hi), vals, vals[1:]):
            if a < 0 < b or a > 0 > b:
                yield brentq(f, grid[i], grid[i + 1], xtol=1e-14)
            elif a == 0.0:
                yield grid[i]
        lo, size = hi - 1, 2 * size


def steered_bisection(f, target, lo, hi, steps, width):
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
    midpoint is evaluated.  f can be called twice at a point: memoize it.
    """
    root = None
    if f(lo) < target <= f(hi):
        try:
            root = brentq(lambda x: f(x) - target, lo, hi, xtol=STEER_XTOL)
        except NumericalError:
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
