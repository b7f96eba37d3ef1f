"""Exact exciton-impurity solution against closed forms and dense matrices."""

import csv
import math

import numpy as np
import pytest
import yaml

from biximp import (ModelParams, ParameterError,
                    exciton_bound_wavevector_largen,
                    exciton_dispersion, exciton_reflection_amplitude,
                    exciton_site_hamiltonian, solve_exciton_spectrum)
from biximp.cli import main
from biximp.exciton import bound_energies_from_matrix


def P(J=1.0, V0=2.5, N=40, E0=0.0):
    return ModelParams(N=N, J=J, D=5.0, E0=E0, V0=V0)


def test_dispersion_values():
    p = P(E0=0.7)
    assert exciton_dispersion(math.pi / 2, p) == pytest.approx(0.7)
    assert exciton_dispersion(math.pi, p) == pytest.approx(0.7 - 2.0)
    k = complex(0.0, math.asinh(1.25))
    assert exciton_dispersion(k, p) == pytest.approx(
        0.7 + 2.0 * math.sqrt(1 + 1.25 ** 2), rel=1e-12)


def test_bound_wavevector_sign_rule():
    kb = exciton_bound_wavevector_largen(P(J=1.0, V0=2.5))
    assert kb.real == 0.0
    assert kb.imag == pytest.approx(math.asinh(1.25), rel=1e-12)
    kb = exciton_bound_wavevector_largen(P(J=-1.0, V0=2.5))
    assert kb.real == pytest.approx(math.pi)
    assert kb.imag == pytest.approx(math.asinh(1.25), rel=1e-12)
    kb = exciton_bound_wavevector_largen(P(J=1.0, V0=-2.5))
    assert kb.real == pytest.approx(math.pi)
    # continuity: bound state merges with the band as V0 -> 0
    small = exciton_bound_wavevector_largen(P(V0=1e-8))
    assert abs(small.imag) < 1e-8


def test_spectrum_free_limit():
    p = P(V0=0.0)
    spec = solve_exciton_spectrum(p)
    np.testing.assert_allclose(spec.symmetric_k,
                               2 * np.pi * np.arange(0, 21) / 40, atol=1e-14)
    assert spec.bound is None
    assert len(spec.antisymmetric_k) == p.N // 2 - 1


def test_spectrum_completeness_and_residuals():
    p = P(V0=2.5)
    spec = solve_exciton_spectrum(p)
    assert len(spec.symmetric_k) == p.N // 2
    assert len(spec.antisymmetric_k) + len(spec.symmetric_k) + 1 == p.N
    resid = np.abs(np.tan(spec.symmetric_k * p.N / 2) * np.sin(spec.symmetric_k)
                   + p.V0 / (2 * p.J))
    assert resid.max() < 1e-8


def test_bound_root_large_n_limit():
    p = P(V0=2.5, N=400)
    spec = solve_exciton_spectrum(p)
    assert spec.bound.k.imag == pytest.approx(math.asinh(1.25), abs=1e-12)
    p = P(V0=-2.5)
    spec = solve_exciton_spectrum(p)
    assert spec.bound.k.real == pytest.approx(math.pi)


def test_bound_profile_monotone_decay():
    p = P(V0=2.5, N=60)
    spec = solve_exciton_spectrum(p)
    prof = spec.bound.amplitude_profile
    d = np.minimum(np.abs(p.sites), p.N - np.abs(p.sites))
    by_d = {}
    for di, a in zip(d, prof):
        by_d.setdefault(di, []).append(a)
    ds = sorted(by_d)
    means = [np.mean(by_d[x]) for x in ds]
    assert all(means[i] >= means[i + 1] - 1e-12 for i in range(len(means) - 1))


def test_free_ring_spectrum_is_circulant():
    p = P(V0=0.0, N=24, E0=0.3)
    ev = np.sort(np.linalg.eigvalsh(exciton_site_hamiltonian(p)))
    nu = np.arange(-p.N // 2 + 1, p.N // 2 + 1)
    np.testing.assert_allclose(ev, np.sort(0.3 + 2 * np.cos(2 * np.pi * nu / p.N)),
                               atol=1e-12)


def test_oracle_equivalence_matrix_vs_roots():
    for N in (8, 40, 200):
        for J, V0 in ((1.0, 2.5), (-1.0, 2.5), (1.0, -2.5)):
            p = P(J=J, V0=V0, N=N)
            spec = solve_exciton_spectrum(p)
            ev_matrix = np.sort(np.linalg.eigvalsh(exciton_site_hamiltonian(p)))
            np.testing.assert_allclose(spec.all_energies(), ev_matrix,
                                       atol=1e-8 * abs(J))


def test_single_bound_state_every_sign():
    for J, V0 in ((1.0, 2.5), (1.0, -2.5), (-1.0, 2.5), (-1.0, -2.5)):
        out = bound_energies_from_matrix(P(J=J, V0=V0, N=200))
        assert len(out) == 1
        assert abs(abs(out[0]) - 2 * math.cosh(math.asinh(1.25))) < 1e-3
    for V0 in (0.5, 1.0, 4.0, -0.5, -4.0):
        assert len(bound_energies_from_matrix(P(V0=V0, N=100))) == 1


@pytest.mark.parametrize("N", [12, 40, 100])
@pytest.mark.parametrize("J", [1.0, -1.0])
@pytest.mark.parametrize("E0", [0.0, 1000.0])
def test_no_bound_state_without_impurity(N, J, E0):
    """At V0 = 0 the whole spectrum is the band E0 + 2J cos k, but eigvalsh
    puts an edge up to 2.3e-13 outside E0 +- 2|J|: BOUND_SPLIT_TOL must
    exceed that rounding, so no energy counts as bound."""
    assert len(bound_energies_from_matrix(P(J=J, V0=0.0, N=N, E0=E0))) == 0


def test_sign_symmetry_spectrum_map():
    p = P(J=1.0, V0=2.5, N=24, E0=0.4)
    ev1 = np.sort(np.linalg.eigvalsh(exciton_site_hamiltonian(p)))
    p2 = p.replace(J=-1.0, V0=-2.5)
    ev2 = np.sort(np.linalg.eigvalsh(exciton_site_hamiltonian(p2)))
    np.testing.assert_allclose(ev2, np.sort(2 * p.E0 - ev1), atol=1e-10)


def test_reflection_flux_identity():
    p = P(V0=1.7)
    for k in np.linspace(0.03, math.pi - 0.03, 100):
        R = exciton_reflection_amplitude(complex(k, 0.0), p)
        assert abs(abs(R) ** 2 + abs(1 + R) ** 2 - 1.0) < 1e-10


def test_reflection_zero_potential_and_pole():
    p = P(V0=0.0)
    assert exciton_reflection_amplitude(complex(0.3, 0.1), p) == 0.0
    p = P(J=1.0, V0=2.5)
    kpp_pole = math.asinh(1.25)
    vals = [abs(exciton_reflection_amplitude(complex(0, k), p))
            for k in np.linspace(0.2, 2.0, 300)]
    # divergence localized at the bound wavevector
    peak_k = np.linspace(0.2, 2.0, 300)[int(np.argmax(vals))]
    assert abs(peak_k - kpp_pole) < 0.01
    assert math.isinf(abs(exciton_reflection_amplitude(
        complex(0.0, kpp_pole), p)))


def test_v0_zero_has_no_bound():
    with pytest.raises(ParameterError):
        exciton_bound_wavevector_largen(P(V0=0.0))


@pytest.mark.parametrize("V0", [1e4, 1e5])
def test_strong_impurity_spectrum(tmp_path, V0):
    """A strong impurity runs: the symmetric roots' residual check scales
    with V0/J, and the energies match the dense ring Hamiltonian."""
    model = {"N": 40, "J": 1.0, "D": 4.1, "E0": 0.0, "V0": V0}
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump({"model": model}))
    assert main(["exciton", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "exciton.csv") as fh:
        got = np.sort([float(row["energy"]) for row in csv.DictReader(fh)])
    want = np.linalg.eigvalsh(exciton_site_hamiltonian(P(V0=V0)))
    assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, 2.0 + V0)
