"""The Brent ports in biximp.roots against scipy, their reference.

scipy is a test dependency only.  The ports do the same floating-point
operations as scipy.optimize.brentq and the bounded method of
scipy.optimize.minimize_scalar, so every comparison is exact equality.
"""

import math
import random

import numpy as np
import pytest
import yaml
from scipy import optimize

from biximp import ModelParams, biexciton, exciton, projected, roots, scattering
from biximp.cli import main
from biximp.errors import ExistenceError, NumericalError
from test_projected import FIT_TASKS

PORT_BRENTQ = roots.brentq
PORT_FMINBOUND = roots.fminbound


def scipy_bounded(func, x1, x2, xtol):
    return optimize.minimize_scalar(func, bounds=(x1, x2), method="bounded",
                                    options={"xatol": xtol}).x


@pytest.fixture
def brentq_pairs(monkeypatch):
    """Patch brentq in biexciton, exciton and roots so that every call
    records (port result, scipy result); returns the list of records."""
    pairs = []

    def checked(f, a, b, **kw):
        got = PORT_BRENTQ(f, a, b, **kw)
        pairs.append((got, optimize.brentq(f, a, b, **kw)))
        return got

    for module in (biexciton, exciton, roots):
        monkeypatch.setattr(module, "brentq", checked)
    return pairs


@pytest.fixture
def fit_records(monkeypatch):
    """Patch fminbound into fit_ring_decay so every fit records
    (objective, port kappa, scipy kappa)."""
    records = []

    def checked(func, x1, x2, xtol):
        got = PORT_FMINBOUND(func, x1, x2, xtol=xtol)
        with np.errstate(all="ignore"):
            records.append((func, got, scipy_bounded(func, x1, x2, xtol)))
        return got

    monkeypatch.setattr(projected, "fminbound", checked)
    return records


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
            biexciton.solve_relative_decay(float(K), p, parity)
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
def test_brentq_matches_scipy_on_random_brackets(seed):
    rng = random.Random(seed)
    for _ in range(300):
        f = rng.choice(FAMILIES)(rng.uniform(0.1, 5.0), rng.uniform(-2.0, 2.0))
        a, b = rng.uniform(-4.0, 0.0), rng.uniform(0.0, 4.0)
        kw = {"xtol": 10 ** rng.uniform(-15, -8),
              "rtol": max(roots.BRENTQ_RTOL, 10 ** rng.uniform(-15.06, -10)),
              "maxiter": rng.choice((100, 100, 10, 5))}
        want = outcome(optimize.brentq, f, a, b, (ValueError, RuntimeError), **kw)
        assert outcome(roots.brentq, f, a, b, NumericalError, **kw) == want, (a, b, kw)


@pytest.mark.parametrize("f, a, b, kw, match", [
    (lambda x: x * x + 1.0, -1.0, 1.0, {}, "same sign"),
    (lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, {}, "NaN"),
    (lambda x: x ** 9 - 0.1, 0.0, 1.0, {"xtol": 1e-15, "maxiter": 3}, "converge"),
    (lambda x: x, -1.0, 1.0, {"rtol": 1e-16}, "tolerance"),
])
def test_brentq_raises_numerical_error(f, a, b, kw, match):
    with pytest.raises(NumericalError, match=match):
        roots.brentq(f, a, b, **kw)


@pytest.mark.parametrize("task", sorted(FIT_TASKS))
def test_fminbound_matches_scipy_on_fit_objectives(fit_records, tmp_path, task):
    """Every ring-decay fit the CLI runs for the task gives scipy's kappa."""
    command, cfg = FIT_TASKS[task]
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 0
    assert_identical([(got, want) for _, got, want in fit_records])


def test_fminbound_matches_scipy_where_objective_overflows(fit_records):
    """At N = 400 cosh overflows in the fit objective, which is then NaN:
    both minimizers still return the same kappa, and the fit reports no
    decay rate (0, 0)."""
    p = ModelParams(N=400, J=1.0, D=4.1, E0=1000.0, V0=4.0)
    ph = projected.build_projected_hamiltonian(p)
    spec = projected.diagonalize_projected(ph)
    _, ds, ps = next(projected.bound_candidates(spec, ph.modes, p))
    with np.errstate(all="ignore"):
        assert projected.fit_ring_decay(ds, ps, p.N) == (0.0, 0.0)
        nan_fits = [(got, want) for func, got, want in fit_records
                    if math.isnan(func(got))]
    assert nan_fits
    assert_identical([(got, want) for _, got, want in fit_records])


@pytest.mark.parametrize("seed", range(3))
def test_fminbound_matches_scipy_on_random_objectives(seed):
    rng = random.Random(seed)
    for _ in range(100):
        c, w = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 5.0)
        f = lambda x: math.cos(w * x) + 0.1 * (x - c) ** 2
        x1, x2 = sorted((rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)))
        xtol = 10 ** rng.uniform(-12, -4)
        assert roots.fminbound(f, x1, x2, xtol=xtol) == scipy_bounded(f, x1, x2, xtol)
