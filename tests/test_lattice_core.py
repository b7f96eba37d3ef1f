"""Mode grid, pairing condition, wavefunction identities, cross-module oracle."""

import math

import numpy as np
import pytest

from biximp import (ExistenceError, ModeBasis, ModelParams, ParameterError,
                    alpha, k_grid)
from biximp.biexciton import default_method, solve_relative_decay
from biximp.projected import impurity_overlap
from biximp.pairbasis import build_pair_hamiltonian
from conftest import direct_modes, modes_on


def test_k_grid_n4():
    p = ModelParams(N=4, J=1.0, D=4.1)
    l_K, K = k_grid(p)
    assert l_K.tolist() == [-1, 0, 1, 2]
    np.testing.assert_allclose(K, [-np.pi / 4, 0.0, np.pi / 4, np.pi / 2])


def test_k_grid_n40():
    p = ModelParams(N=40, J=1.0, D=4.0)
    l_K, K = k_grid(p)
    assert len(K) == 40
    np.testing.assert_allclose(np.diff(K), np.pi / 40)
    assert K.max() == pytest.approx(np.pi / 2)
    assert l_K[-1] == 20
    assert np.array_equal(modes_on(p, "exact").parity, np.abs(l_K) % 2)


def test_alpha_values():
    p = ModelParams(N=40, J=1.0, D=4.1)
    assert alpha(np.pi / 2, p) == pytest.approx(0.0, abs=1e-15)
    assert alpha(0.0, p) == pytest.approx(2.0 / 4.1)
    p2 = ModelParams(N=40, J=1.0, D=2.0)
    assert alpha(0.0, p2) == pytest.approx(1.0)
    with pytest.raises(ParameterError):
        alpha(0.0, ModelParams(N=40, J=1.0, D=0.0))


def test_relative_decay_large_n():
    p = ModelParams(N=40, J=1.0, D=4.1)
    k_i = solve_relative_decay(0.0, p, 0, "large_n")
    assert k_i == pytest.approx(abs(math.log(2.0 / 4.1)), rel=1e-12)
    assert math.isinf(solve_relative_decay(np.pi / 2, p, 0, "large_n"))


def test_relative_decay_exact_matches_large_n():
    p = ModelParams(N=40, J=1.0, D=4.1)
    exact = solve_relative_decay(0.0, p, 0, "exact")
    approx = solve_relative_decay(0.0, p, 0, "large_n")
    assert abs(exact - approx) < 1e-3
    # and the finite-N residual of the exact root is tiny
    from biximp.biexciton import _ratio_residual
    assert abs(_ratio_residual(exact, -math.log(alpha(0.0, p)), 40, 0)) < 1e-12


def test_existence_boundary():
    # complex solution exists iff |D| > |2 J cos K|; scan both sides
    p_ok = ModelParams(N=40, J=1.0, D=4.1)
    for K in (0.0, 0.4, 1.0):
        solve_relative_decay(K, p_ok, 0, "exact")   # no raise
    p_weak = ModelParams(N=40, J=1.0, D=1.99)
    with pytest.raises(ExistenceError):
        solve_relative_decay(0.0, p_weak, 0, "exact")   # 2J cos 0 > D
    solve_relative_decay(1.2, p_weak, 0, "exact")       # 2J cos 1.2 < D


def test_biexciton_energy_values():
    p = ModelParams(N=40, J=1.0, D=4.1, E0=0.0)
    a0 = 2.0 / 4.1
    # the basis takes the large-N form here; the exact one is the reference's
    large, exact = modes_on(p, "large_n").energies, direct_modes(p, "exact")[1]
    i0 = int(np.flatnonzero(k_grid(p)[1] == 0.0)[0])
    assert large[i0] == pytest.approx(4.1 * (1 + a0 * a0), rel=1e-12)
    assert large[-1] == pytest.approx(4.1)
    assert abs(exact[i0] - large[i0]) < 1e-3
    # the exact energy is 4 J cos K cosh k_i at the finite-N pairing root
    k_i = solve_relative_decay(0.0, p, 0, "exact")
    assert exact[i0] == pytest.approx(4.0 * math.cosh(k_i), rel=1e-12)
    # every K of the grid: bound energy outside the two-exciton band
    for energies in (large, exact):
        assert np.all(np.abs(energies - 2 * p.E0) > 4 * abs(p.J))


def test_phi_hard_core_and_norm():
    p = ModelParams(N=40, J=1.0, D=4.0)
    basis = modes_on(p, "exact")
    N = p.N
    assert np.all(basis.phi[:, N - 1] == 0.0)          # s = 0
    # sublattice norm: sum over the redundant domain with r-count N-|s|
    w = (N - np.abs(basis.s)) * basis.phi ** 2
    assert np.all(np.abs((2.0 / N) * w.sum(axis=1) - 1.0) < 1e-10)


def test_phi_symmetries_every_mode():
    p = ModelParams(N=40, J=1.0, D=4.0)
    basis = modes_on(p, "exact")
    N = p.N
    phi = basis.phi                      # column of s is s + N - 1
    sign = (-1.0) ** basis.l_K[:, None]
    s = np.arange(0, N)
    assert phi[:, s + N - 1] == pytest.approx(phi[:, -s + N - 1], abs=1e-15)
    s = np.arange(0, N // 2)
    lhs = phi[:, N // 2 + s + N - 1]
    rhs = sign * phi[:, N // 2 - s + N - 1]
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_delta_limit_mode():
    p = ModelParams(N=40, J=1.0, D=4.0)
    basis = modes_on(p, "exact")
    phi = basis.phi[-1]    # K = pi/2; column of s is s + N - 1
    assert math.isinf(basis.k_i[-1])
    assert phi[1 + p.N - 1] == pytest.approx(0.5)
    assert phi[2 + p.N - 1] == 0.0
    assert phi[2 * p.N - 2] == pytest.approx(0.5 * (-1) ** basis.l_K[-1])
    assert basis.energies[-1] == pytest.approx(2 * p.E0 + p.D)


def test_default_method_rule():
    assert default_method(ModelParams(N=40, J=1.0, D=4.5)) == "large_n"
    assert default_method(ModelParams(N=40, J=1.0, D=2.1)) == "exact"
    assert default_method(ModelParams(N=20, J=1.0, D=6.0)) == "exact"


def test_orthonormality_and_eigenvector_property(fig2_params):
    """Cross-module oracle: modes are orthonormal eigenvectors of the
    impurity-free pair Hamiltonian at the exact finite-N roots."""
    p = fig2_params.replace(D=4.0, V0=0.0)
    basis = modes_on(p, "exact")
    pb, H0 = build_pair_hamiltonian(p)
    C = basis.pair_amplitudes()
    gram = C.conj() @ C.T
    assert np.abs(gram - np.eye(len(basis))).max() < 1e-8
    for i in range(len(basis)):
        c = C[i]
        res = np.linalg.norm(H0 @ c - basis.energies[i] * c)
        assert res < 1e-8 * abs(p.J)


def test_regime_validation():
    with pytest.raises(ParameterError):
        ModeBasis(ModelParams(N=40, J=1.0, D=1.9))
    with pytest.raises(ParameterError):
        ModeBasis(ModelParams(N=40, J=-1.0, D=4.1))
    with pytest.raises(ParameterError):
        ModelParams(N=5, J=1.0, D=4.1)
    with pytest.raises(ParameterError):
        ModelParams(N=40, J=0.0, D=4.1)


def test_phi_rows_match_normalized_closed_form():
    """Each phi row is the cosh/sinh form divided by its sampled norm."""
    p = ModelParams(N=12, J=1.0, D=4.1)
    basis = modes_on(p, "exact")
    s = basis.s
    for phi, k_i, parity in zip(basis.phi, basis.k_i, basis.parity):
        if math.isinf(k_i):
            continue                     # delta limit: test_delta_limit_mode
        raw = np.where(s == 0, 0.0, np.cosh(k_i * (p.N / 2 - np.abs(s)))
                       if parity == 0
                       else np.sinh(k_i * (p.N / 2 - np.abs(s))))
        assert phi == pytest.approx(raw / np.linalg.norm(raw), rel=1e-10)


@pytest.mark.parametrize("N", (12, 40))
@pytest.mark.parametrize("J, D", ((1.0, 4.1), (-1.0, -4.5)))
@pytest.mark.parametrize("method", ("exact", "large_n"))
def test_biexciton_energy_equals_basis_energies(N, J, D, method):
    """The energies of each form are the closed forms written out here:
    2 E0 + 4 J cos K cosh k_i at each mode's decay constant (exact), or
    2 E0 + D (1 + alpha_K^2) (large N), and 2 E0 + D at the K = pi/2
    delta-limit mode for both.  They are the basis's where the parameters
    pick `method` (exact at N = 12, large N at N = 40), and the per-mode
    functions' (direct_modes) where they pick the other form."""
    p = ModelParams(N=N, J=J, D=D, E0=0.3)
    if default_method(p) == method:
        basis = ModeBasis(p)
        k_i, energies = basis.k_i, basis.energies
    else:
        k_i, energies, _ = direct_modes(p, method)
    assert math.isinf(k_i[-1])
    assert energies[-1] == 2 * p.E0 + p.D
    K = k_grid(p)[1][:-1].tolist()
    if method == "exact":
        want = [2.0 * p.E0 + 4.0 * p.J * math.cos(k) * math.cosh(ki)
                for k, ki in zip(K, k_i[:-1].tolist())]
    else:
        want = [2.0 * p.E0 + p.D * (1.0 + (2.0 * p.J * math.cos(k) / p.D) ** 2)
                for k in K]
    assert np.array_equal(energies[:-1], want)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("N", [4, 6, 12, 40, 400])
@pytest.mark.parametrize("J", [1.0, -1.0])
def test_mirror_halves_are_the_direct_formulas(N, J):
    """ModeBasis's k_i, energies, phi and cm_phase, and the overlap G of
    impurity_overlap, are bit for bit the direct formulas: every K solved,
    phi on every s, e^{iKr} on every r and B's phase e^{iKs} on every s
    (G = B* B^T).  D runs from just above 2|J| up; where the basis has no
    bound root, both raise the same ExistenceError.  The K = pi/2 row is
    the delta limit.  The basis takes the large-N form at D/J = 4.1, 10
    and 40 from N = 40, the exact one elsewhere; each N builds at least
    four bases."""
    built = 0
    for ratio in (2.01, 2.05, 2.1, 2.5, 3.0, 4.1, 10.0, 40.0):
        p = ModelParams(N=N, J=J, D=ratio * J, E0=0.3)
        try:
            want = direct_modes(p, default_method(p))
        except ExistenceError as exc:
            with pytest.raises(ExistenceError) as got:
                ModeBasis(p)
            assert str(got.value) == str(exc)
            continue
        modes = ModeBasis(p)
        built += 1
        assert all(map(same_bits, (modes.k_i, modes.energies, modes.phi), want))
        assert math.isinf(modes.k_i[-1])
        assert same_bits(modes.cm_phase, np.exp(1j * np.outer(modes.r, modes.K)))
        cols = modes.window[modes.s[modes.window] != 0]
        B = modes.phi[:, cols] * np.exp(1j * np.outer(modes.K, modes.s[cols]))
        assert same_bits(impurity_overlap(modes), B.conj() @ B.T)
    assert built >= 4


@pytest.mark.parametrize("N, ratio, message", [
    (4, 2.01, "no bound relative root at K=-0.785398 (parity 1, 1/alpha=1.421285"),
    (6, 2.05, "no bound relative root at K=-0.523599 (parity 1, 1/alpha=1.183568"),
    (12, 2.1, "no bound relative root at K=-0.261799 (parity 1, 1/alpha=1.087040"),
    (40, 2.01, "no bound relative root at K=-0.235619 (parity 1, 1/alpha=1.033557"),
    (40, 2.05, "no bound relative root at K=-0.078540 (parity 1, 1/alpha=1.028170"),
])
@pytest.mark.parametrize("J", [1.0, -1.0])
def test_near_threshold_existence_error_names_the_first_failing_k(N, ratio, message, J):
    """Near |D| = 2|J| the odd branch loses its root first at some K < 0 of
    the grid; the error names that K, as when every K was solved in grid
    order (solving l_K >= 0 first would name +K)."""
    with pytest.raises(ExistenceError) as got:
        ModeBasis(ModelParams(N=N, J=J, D=ratio * J))
    assert str(got.value) == message + " below finite-N threshold)"
