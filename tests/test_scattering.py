"""Averaging function, reflection amplitude, pole equations."""

import cmath
import math
import warnings

import numpy as np
import pytest

from biximp import (ModelParams, ParameterError, biexciton_reflection_amplitude,
                    diagonalize_projected, exciton_bound_wavevector_largen,
                    find_pole, s_function)
from biximp.scattering import phi_complex_k, pole_branch
from conftest import projected_hamiltonian


def P(D=4.0, V0=0.25, N=40):
    return ModelParams(N=N, J=1.0, D=D, V0=V0)


def test_s_real_positive_and_v0_free():
    p = P(V0=0.25)
    p2 = P(V0=3.0)
    for kp, kpp in ((0.0, 0.0), (0.0, 0.1), (0.0, 0.4),
                    (math.pi / 2, 0.1), (math.pi / 2, 0.5)):
        s1 = s_function(kp, kpp, p)
        s2 = s_function(kp, kpp, p2)
        assert s1 == pytest.approx(s2, rel=1e-14)     # no V0 dependence
        assert s1 > 0.0
    # at K'' = 0: plain sum of phi^2 over the window
    s0 = s_function(0.0, 0.0, p)
    direct = sum(abs(phi_complex_k(0.0, s, p)) ** 2
                 for s in range(-p.N // 2 + 1, p.N // 2 + 1))
    assert s0 == pytest.approx(direct, rel=1e-12)


def test_s_against_extended_precision_oracle():
    """Term-by-term summation at 50 digits reproduces S to 1e-12."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    p = P()
    N = p.N

    def phi_mp(Kc, s):
        if s == 0:
            return mp.mpc(0)
        a = 2 * mp.cos(Kc) / mp.mpf("4.0")
        kc = -mp.log(a)
        norm2 = (N - 1) + mp.sinh(kc * (N - 1)) / mp.sinh(kc)
        return mp.cosh(kc * (N / 2 - abs(s))) / mp.sqrt(norm2)

    kpp = mp.mpf("0.1")
    total = mp.mpc(0)
    for s in range(-N // 2 + 1, N // 2 + 1):
        total += mp.e ** (-2 * kpp * abs(s)) \
            * phi_mp(0 - 1j * kpp, s) * phi_mp(0 + 1j * kpp, s)
    ours = s_function(0.0, 0.1, p)
    assert abs(ours - float(total.real)) < 1e-12


def test_reflection_trivial_zero():
    assert biexciton_reflection_amplitude(0.3 + 0.1j, P(V0=0.0)) == 0.0


def test_reflection_single_divergence_scan():
    """|R_b| on the bound branch has exactly one sharp peak in K''."""
    p = P(V0=0.25)
    # K'' = 400 is far past where cosh 2K'' overflows: R_b must still go to zero
    ks = np.append(np.linspace(0.01, 1.2, 400), 400.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vals = np.array([abs(biexciton_reflection_amplitude(complex(0.0, k), p))
                         for k in ks])
    assert np.all(np.isfinite(vals)) and vals[-1] < 1e-12
    pole = find_pole(p)
    peaks = [i for i in range(1, len(ks) - 1)
             if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]
             and vals[i] > 10 * np.median(vals)]
    assert len(peaks) == 1
    assert abs(ks[peaks[0]] - pole.K_doubleprime) < 0.01


def test_pole_branch_rule():
    assert pole_branch(P(V0=0.25)) == 0.0
    assert pole_branch(P(V0=-0.25)) == pytest.approx(math.pi / 2)
    assert pole_branch(P(D=-4.0, V0=-0.25)) == 0.0
    with pytest.raises(ParameterError):
        pole_branch(P(V0=0.0))


def test_branch_exclusivity():
    """Exactly one of the two branches carries a pole root."""
    for v0 in (0.25, -0.25):
        p = P(V0=v0)
        pole = find_pole(p)                      # on the selected branch
        assert pole.residual < 1e-10
        # the rejected branch has the wrong sign: its residual never crosses
        wrong_kp = math.pi / 2 - pole.K_prime
        c2 = math.cos(2 * wrong_kp)
        for k in np.linspace(0.05, 2.0, 40):
            f = math.sinh(2 * k) - 2 * p.D * p.V0 * s_function(wrong_kp, k, p) \
                / (p.J ** 2 * c2)
            assert f > 0.0
        # flipping the potential sign flips the branch
        assert find_pole(p.replace(V0=-v0)).K_prime == wrong_kp


def test_pole_vs_numeric_bound_energy():
    """Pole energies track the projected bound state (approximate)."""
    for v0 in (0.25, -0.25):
        p = P(V0=v0)
        pole = find_pole(p)
        ph = projected_hamiltonian(p)
        spec = diagonalize_projected(ph)
        lo, hi = ph.modes.band_edges()
        outs = [(e, max(lo - e, e - hi)) for e in spec.energies
                if e < lo - 1e-9 or e > hi + 1e-9]
        e_num = max(outs, key=lambda t: t[1])[0]
        assert abs(pole.energy - e_num) / abs(e_num) < 0.05


def test_pole_residual_equation():
    p = P(V0=0.25)
    pole = find_pole(p)
    S = s_function(pole.K_prime, pole.K_doubleprime, p)
    lhs = math.sinh(2 * pole.K_doubleprime)
    rhs = 2 * p.D * p.V0 * S / (p.J ** 2 * math.cos(2 * pole.K_prime))
    assert abs(lhs - rhs) <= 1e-10


def test_reflection_from_first_order_ingredients():
    """The paper identity R_b = gamma / (beta - gamma), with the averaged
    potential beta = 4 V0 S / N and gamma = i N D beta^2 / (2 J^2 sin 2K)."""
    p = P(V0=0.25)
    for Kc in (0.35 + 0.1j, complex(math.pi / 2 - 0.02, 0.22)):
        beta = 4 * p.V0 * s_function(Kc.real, Kc.imag, p) / p.N
        gamma = 1j * p.N * p.D * beta ** 2 / (2 * p.J ** 2 * cmath.sin(2 * Kc))
        rb = biexciton_reflection_amplitude(Kc, p)
        assert abs(rb - gamma / (beta - gamma)) < 1e-10


def test_exciton_correspondence():
    """Branch selectors of pair and single-particle problems agree:
    matching signs put the bound state at the zone centre."""
    for sgn in (1.0, -1.0):
        pole = find_pole(P(V0=sgn * 0.25))
        kb = exciton_bound_wavevector_largen(
            ModelParams(N=40, J=1.0, D=5.0, V0=sgn * 2.5))
        centre_pair = pole.K_prime == 0.0
        centre_exc = kb.real == 0.0
        assert centre_pair == centre_exc
