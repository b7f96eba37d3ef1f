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


def eager_scan(f, grid):
    """scan_roots as it was written before its scan went lazy: f on the
    whole grid at once, then the same polish; the reference."""
    vals = f(grid)
    found = []
    for i in range(len(grid) - 1):
        if vals[i] < 0 < vals[i + 1] or vals[i] > 0 > vals[i + 1]:
            found.append(roots.brentq(f, grid[i], grid[i + 1], xtol=1e-14))
        elif vals[i] == 0.0:
            found.append(grid[i])
    return found


# the first grid index of each chunk after the first: chunks of 64, 128,
# 256 and 512 points, each starting at the last point of the one before
CHUNK_STARTS = (63, 190, 445, 956)


def product_of_roots(*xs):
    return lambda x: np.prod([x - r for r in xs], axis=0)


@pytest.mark.parametrize("n, f", [
    # roots half a step either side of every chunk boundary
    (1000, product_of_roots(*[c + d for c in CHUNK_STARTS[:3] for d in (-0.5, 0.5)])),
    # an exact zero on a chunk boundary, and one on the last point
    (446, product_of_roots(5.5, 190.0, 300.25, 445.0)),
    # exact zeros on the first and last point of the first chunk
    (64, product_of_roots(0.0, 63.0)),
    # a grid shorter than the first chunk
    (10, product_of_roots(2.5, 7.0)),
    (2, product_of_roots(0.5)),
    (1, product_of_roots(0.0)),
    (0, product_of_roots(0.5)),
    # every interval a sign change
    (700, lambda x: np.sin(np.pi * (x + 0.5))),
])
def test_scan_roots_is_the_eager_scan(n, f):
    """The chunked scan yields the eager scan's roots, bit for bit and in
    the same order, wherever the roots sit relative to the chunks."""
    grid = np.arange(float(n))
    got, want = list(roots.scan_roots(f, grid)), eager_scan(f, grid)
    assert [float(x).hex() for x in got] == [float(x).hex() for x in want]


def test_scan_roots_stops_at_the_chunk_of_its_first_root():
    """A consumer that takes only the first root makes f evaluate no grid
    point past the chunk that holds it (points 63..190), and the chunks
    it evaluates are contiguous slices of the grid."""
    grid = np.linspace(0.0, 8.0, 800)
    f = product_of_roots(grid[120] + 1e-3, grid[500] + 1e-3)
    arrays = []

    def recording(x):
        if np.ndim(x):
            arrays.append(np.array(x))
        return f(x)

    first = next(roots.scan_roots(recording, grid))
    assert first == eager_scan(f, grid)[0]
    assert [(a[0], len(a)) for a in arrays] == [(grid[0], 64), (grid[63], 128)]
    for a in arrays:
        i = int(np.flatnonzero(grid == a[0])[0])
        assert np.array_equal(a, grid[i:i + len(a)])


@pytest.mark.parametrize("N", [40, 100])
def test_find_pole_is_the_eager_scan_pole(monkeypatch, N):
    """find_pole gives the same K'', energy and residual bits with the
    eager scan, on both branches: sgn(D V0) = +1 (K' = 0) and -1
    (K' = pi/2)."""
    cases = [ModelParams(N=N, J=J, D=d * J, E0=0.0, V0=v0)
             for J in (1.0, -1.0) for d in (2.5, 3.0, 4.0, 4.1, 6.0, 10.0)
             for v0 in (0.05, -0.25, 0.25, -1.0, 1.0, -4.0, 8.0)]

    def poles():
        return [(r.K_prime, r.K_doubleprime.hex(), r.energy.hex(), float(r.residual).hex())
                for r in map(scattering.find_pole, cases)]

    lazy = poles()
    monkeypatch.setattr(scattering, "scan_roots", lambda f, grid: iter(eager_scan(f, grid)))
    assert lazy == poles()
    assert {p[0] for p in lazy} == {0.0, math.pi / 2}
