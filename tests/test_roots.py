"""The Brent root finder in biximp.roots against scipy, its reference.

scipy is a test dependency only.  The port does the same floating-point
operations as scipy.optimize.brentq, so every comparison is exact
equality.
"""

import math
import random

import numpy as np
import pytest
from scipy import optimize

from biximp import ModelParams, biexciton, exciton, roots, scattering
from biximp.errors import ExistenceError, NumericalError

PORT_BRENTQ = roots.brentq


@pytest.fixture
def brentq_pairs(monkeypatch):
    """Patch roots.brentq, through which every Brent root of the package
    is found, so that every call records (port result, scipy result);
    returns the list of records."""
    pairs = []

    def checked(f, a, b, **kw):
        got = PORT_BRENTQ(f, a, b, **kw)
        pairs.append((got, optimize.brentq(f, a, b, **kw)))
        return got

    monkeypatch.setattr(roots, "brentq", checked)
    return pairs


def assert_identical(pairs):
    assert pairs
    bad = [(got, want) for got, want in pairs if got != want]
    assert bad == [], f"{len(bad)} of {len(pairs)} differ"


@pytest.mark.parametrize("N", [8, 40, 400])
@pytest.mark.parametrize("D", [2.1, 4.1])
@pytest.mark.parametrize("parity", [0, 1])
def test_brentq_matches_scipy_on_ratio_residual(brentq_pairs, N, D, parity):
    p = ModelParams(N=N, J=1.0, D=D, E0=0.0, V0=4.0)
    for K in np.linspace(-1.55, 1.55, 63):
        try:
            biexciton.solve_relative_decay(float(K), p, parity, "exact")
        except ExistenceError:
            pass
    assert_identical(brentq_pairs)


@pytest.mark.parametrize("N", [8, 40, 400])
def test_brentq_matches_scipy_on_bound_decay(brentq_pairs, N):
    for v0 in (-8.0, -2.5, -0.3, 0.01, 0.25, 1.0, 4.0, 30.0):
        exciton._bound_decay(ModelParams(N=N, J=1.0, D=4.1, E0=0.0, V0=v0))
    assert_identical(brentq_pairs)


@pytest.mark.parametrize("N", [8, 40, 400])
def test_brentq_matches_scipy_in_exciton_scan(brentq_pairs, N):
    for v0 in (-2.5, 2.5):
        exciton.solve_exciton_spectrum(
            ModelParams(N=N, J=1.0, D=5.0, E0=1000.0, V0=v0))
    assert len(brentq_pairs) >= N // 2
    assert_identical(brentq_pairs)


@pytest.mark.parametrize("D", [3.0, 4.0, 5.0, 6.0])
def test_brentq_matches_scipy_in_pole_scan(brentq_pairs, D):
    for v0 in (0.25, -0.25, 1.0, -1.0):
        scattering.find_pole(ModelParams(N=40, J=1.0, D=D, E0=0.0, V0=v0))
    assert_identical(brentq_pairs)


FAMILIES = (
    lambda c, d: lambda x: math.tanh(c * x) * math.sinh(x) - d,
    lambda c, d: lambda x: x ** 3 - c * x - d,
    lambda c, d: lambda x: math.exp(c * x) - d - 1.0,
    lambda c, d: lambda x: math.sin(c * x) - 0.3 * d,
    lambda c, d: lambda x: c * (x - d) ** 5,
    # flat stretch: equal function values, zero secant slopes
    lambda c, d: lambda x: 0.0 if abs(x - d) < 0.3 else x - d,
    # tiny values: the extrapolation denominator underflows to zero
    lambda c, d: lambda x: 1e-120 * (x ** 3 - c * x - d),
)


def outcome(solve, f, a, b, errors, **kw):
    try:
        return solve(f, a, b, **kw)
    except errors:
        return "error"


@pytest.mark.parametrize("seed", range(4))
def test_brentq_matches_scipy_on_random_brackets(monkeypatch, seed):
    rng = random.Random(seed)
    for _ in range(300):
        f = rng.choice(FAMILIES)(rng.uniform(0.1, 5.0), rng.uniform(-2.0, 2.0))
        a, b = rng.uniform(-4.0, 0.0), rng.uniform(0.0, 4.0)
        kw = {"xtol": 10 ** rng.uniform(-15, -8),
              "rtol": max(roots.BRENTQ_RTOL, 10 ** rng.uniform(-15.06, -10))}
        maxiter = rng.choice((100, 100, 10, 5))
        monkeypatch.setattr(roots, "BRENTQ_MAXITER", maxiter)
        want = outcome(optimize.brentq, f, a, b, (ValueError, RuntimeError),
                       maxiter=maxiter, **kw)
        assert outcome(roots.brentq, f, a, b, NumericalError, **kw) == want, (
            a, b, kw, maxiter)


@pytest.mark.parametrize("f, a, b, kw, match", [
    (lambda x: x * x + 1.0, -1.0, 1.0, {}, "same sign"),
    (lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, {}, "NaN"),
    (lambda x: x ** 9 - 0.1, 0.0, 1.0, {"xtol": 1e-15, "maxiter": 3}, "converge"),
    (lambda x: x, -1.0, 1.0, {"rtol": 1e-16}, "tolerance"),
])
def test_brentq_raises_numerical_error(monkeypatch, f, a, b, kw, match):
    kw = dict(kw)
    # the iteration cap is the module constant BRENTQ_MAXITER
    monkeypatch.setattr(roots, "BRENTQ_MAXITER", kw.pop("maxiter", roots.BRENTQ_MAXITER))
    with pytest.raises(NumericalError, match=match):
        roots.brentq(f, a, b, **kw)


@pytest.mark.parametrize("scale", (1.0, 1e-200, 1e200))
def test_scan_roots_at_any_scale(scale):
    """scan_roots finds the same roots of f and of f times any scale: a
    sign change between samples, polished, and a sample that is exactly
    zero (x = 0.5 is a grid point).  The product of two samples of
    1e-200 (x - 0.3) underflows to zero, and missed its root."""
    f = lambda x: scale * (x - 0.3) * (x - 0.5)
    roots_found = list(roots.scan_roots(f, np.linspace(0.0, 1.0, 11)))
    assert len(roots_found) == 2
    assert roots_found[0] == pytest.approx(0.3, abs=1e-13) and roots_found[1] == 0.5
