import math

import numpy as np
import pytest

from biximp import ModeBasis, ModelParams, k_grid
from biximp.biexciton import _pair_energy, closed_phi, default_method, solve_relative_decay
from biximp.pairbasis import diagonalize_full
from biximp.projected import build_projected_hamiltonian, impurity_overlap


def projected_hamiltonian(params):
    """The projected Hamiltonian of params on a basis and impurity overlap
    built for it alone."""
    modes = ModeBasis(params)
    return build_projected_hamiltonian(modes, impurity_overlap(modes), params.V0)


def modes_on(params, method):
    """ModeBasis(params), which must take its `method` form ("exact" or
    "large_n") from params: a check meant for one form fails here rather
    than run on the other."""
    assert default_method(params) == method, (params, method)
    return ModeBasis(params)


def direct_modes(p, method):
    """k_i, energies and phi of the `method` form at any params, from the
    per-mode functions as ModeBasis computed them before it used the
    K -> -K and s -> -s mirror halves: every K solved, in grid order,
    and closed_phi on the whole s range; the reference."""
    N = p.N
    l_K, K = k_grid(p)
    parity = np.abs(l_K) % 2
    k_i = np.array([solve_relative_decay(k, p, par, method)
                    for k, par in zip(K.tolist(), parity.tolist())])
    energies = np.array([_pair_energy(k, ki, p, method) for k, ki in zip(K.tolist(), k_i.tolist())])
    s = np.arange(-N + 1, N)
    delta = np.isinf(k_i)
    phi = np.zeros((N, 2 * N - 1))
    for par in (0, 1):
        rows = ~delta & (parity == par)
        phi[rows] = closed_phi(k_i[rows, None], s, N, par)
    phi[np.ix_(delta, np.abs(s) == 1)] = 0.5
    phi[np.ix_(delta, np.abs(s) == N - 1)] = 0.5 * (-1.0) ** l_K[delta, None]
    return k_i, energies, phi


@pytest.fixture(scope="session")
def fig2_params():
    """Canonical multiple-bound-state parameters."""
    return ModelParams(N=40, J=1.0, D=4.1, E0=0.0, V0=4.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)


class ExactPairRun:
    """Exact pair-basis propagation of a band-projected initial state.

    The state is lifted with ModeBasis.pair_amplitudes (unit-norm rows)
    and evolved in the eigenbasis that diagonalize_full gives at the same
    parameters; `basis` indexes the amplitudes that `state(t)` returns.
    """

    def __init__(self, params, modes, state0):
        self.basis, spec = diagonalize_full(params)
        self.t0, self.psi0 = state0.t, state0.u @ modes.pair_amplitudes()
        self.w, self.U = spec.energies, spec.states
        self.c0 = self.U.T @ self.psi0

    def energy(self):
        return float(self.w @ np.abs(self.c0) ** 2)

    def state(self, t):
        return self.U @ (np.exp(-1j * self.w * (t - self.t0)) * self.c0)


@pytest.fixture(scope="session")
def exact_pair_run():
    """ExactPairRun(params, modes, state0): the arbiter for projected runs."""
    return ExactPairRun


def dense_scatter(sectors, pairs, images):
    """Reference for a sector spectrum's columns: every eigenvector of
    the sector eigenpairs ((w, y, fixed) of the even block, then of the
    odd one) scattered into one dense basis matrix, whose columns follow
    the stably sorted energies."""
    w = np.concatenate([sec[0] for sec in sectors])
    col = np.empty(len(w), dtype=int)
    col[np.argsort(w, kind="stable")] = np.arange(len(w))
    u = np.zeros((len(w), len(w)))
    half, na, start = math.sqrt(0.5), len(pairs), 0
    for sign, (_, y, fix) in zip((1.0, -1.0), sectors):
        c = col[start:start + len(y)]
        start += len(y)
        u[pairs[:, None], c] = half * y[:na]
        u[images[:, None], c] = sign * half * y[:na]
        u[fix[:, None], c] = y[na:]
    return u


class EighSpy:
    """np.linalg.eigh that keeps every result it returns, in call order."""

    def __init__(self):
        self.eigh, self.results = np.linalg.eigh, []

    def __call__(self, a):
        self.results.append(self.eigh(a))
        return self.results[-1]
