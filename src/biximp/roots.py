"""Brent's root finder and bounded minimizer, the scan-and-polish root
finding shared by the spectrum and pole solvers, and the Brent-steered
bisection of the wavepacket impurity calibration.

brentq and fminbound are line-for-line ports of scipy's implementations
of R. P. Brent's algorithms (Algorithms for Minimization without
Derivatives, 1973):

- brentq is scipy.optimize.brentq: the C routine Zeros/brentq.c behind
  it, with the NaN check of its Python wrapper;
- fminbound is the bounded method of scipy.optimize.minimize_scalar
  (_minimize_scalar_bounded in scipy/optimize/_optimize.py).

They take the same steps, stop by the same rules and do the same
floating-point operations, so every root and every minimizer is
bit-identical to scipy's; tests/test_roots.py checks this against the
installed scipy.  They are ported because importing scipy.optimize
costs about 0.5 s and 46 MiB in every fresh process, more than most
CLI runs spend computing, and nothing else in the package needs scipy.
Failures raise NumericalError, so the CLI reports them in one line.
"""

import functools
import math

from .errors import NumericalError

BRENTQ_RTOL = 4 * 2.220446049250313e-16   # 4 eps, scipy's floor on rtol
FMINBOUND_MAXFUN = 500
STEER_XTOL = 1e-14        # Brent tolerance on the steering root
STEER_MARGIN = 1e-13      # midpoints this close to it are evaluated


def brentq(f, a, b, xtol=2e-12, rtol=BRENTQ_RTOL, maxiter=100):
    """Root of f in [a, b], where f(a) and f(b) differ in sign.

    Stops when the bracket half-width falls below
    (xtol + rtol |x|) / 2.  Raises NumericalError when f(a) and f(b)
    have the same sign, when f returns NaN, when maxiter iterations do
    not converge, or when xtol <= 0 or rtol < 4 eps.
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
    for _ in range(maxiter):
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
        f"Brent's method did not converge in {maxiter} iterations; value {xcur!r}",
        residual=fcur)


def fminbound(func, x1, x2, xtol=1e-5):
    """Minimizer of func on the finite interval x1 <= x <= x2.

    Brent's golden-section search with parabolic interpolation, to an
    absolute tolerance xtol and at most 500 evaluations of func.
    Returns the best point found; a NaN objective does not raise.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xtol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # check for a parabolic fit
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # check the parabola is acceptable
            if (abs(p) < abs(0.5 * q * r) and p > q * (a - xf)
                    and p < q * (b - xf)):
                golden = False
                rat = p / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0 else 1.0)

        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xtol / 3.0
        tol2 = 2.0 * tol1

        if num >= FMINBOUND_MAXFUN:
            break
    return xf


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
    midpoint is evaluated.  f is memoized, so no point is evaluated
    twice.
    """
    f = functools.cache(f)
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
