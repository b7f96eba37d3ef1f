"""Single exciton interacting with one impurity: exact ring solution.

The N eigenstates split into N/2 - 1 antisymmetric states sin(k_a n)
with impurity-free k_a = 2 pi nu / N, and N/2 + 1 symmetric states
cos(k_s n) + alpha sin(k_s |n|) whose wavevectors obey

    tan(k_s N / 2) sin k_s = -V0 / (2 J),      alpha = tan(k_s N / 2).

All symmetric roots but one are real; the remaining complex root
k_b = k' + i k'' is the single impurity bound state:

    sgn(V0) = sgn(J):  k' = 0,   k'' =  arsinh(V0 / 2J)   (large N)
    sgn(V0) != sgn(J): k' = pi,  k'' = -arsinh(V0 / 2J)

so binding occurs for either sign of V0, upward or downward from the
band E0 + 2 J cos k depending on the effective-mass sign
m_eff = -1/(2 J cos k).
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .biexciton import BOUND_SPLIT_TOL, log_cosh
from .errors import NumericalError, ParameterError
from .roots import decay_root, scan_roots

# a polished root's |g(k)| relative to 1 + |V0/2J|: about N * 1e-14 from
# Brent's xtol, against O(1) for a point that is no root
ROOT_RESIDUAL_TOL = 1e-9


def exciton_dispersion(k, params):
    """Band energy E0 + 2 J cos k; accepts real or complex k.

    For complex k the result must be real (k' in {0, pi}); a residual
    imaginary part above tolerance raises ParameterError.
    """
    val = params.E0 + 2.0 * params.J * cmath.cos(k)
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise ParameterError(f"dispersion not real at k={k}")
    return val.real


def exciton_bound_wavevector_largen(params):
    """Large-N bound wavevector per the sign rule; V0 = 0 has no bound state."""
    if params.V0 == 0.0:
        raise ParameterError("V0 = 0: no bound state")
    x = params.V0 / (2.0 * params.J)
    if x > 0:
        return complex(0.0, math.asinh(x))
    return complex(math.pi, -math.asinh(x))


def _bound_decay(params):
    """Finite-N k'' root of tanh(k'' N/2) sinh k'' = |V0/2J|."""
    t = abs(params.V0 / (2.0 * params.J))

    def f(k):
        try:
            return math.tanh(k * params.N / 2.0) * math.sinh(k) - t
        except OverflowError:   # sinh k past the float range, so above t
            return math.inf
    return decay_root(f, math.asinh(t) + 1.0)


@dataclass(frozen=True)
class ExcitonBoundState:
    k: complex
    energy: float
    amplitude_profile: np.ndarray  # |psi(n)| over sites, unit norm


@dataclass
class ExcitonSpectrum:
    antisymmetric_k: np.ndarray
    symmetric_k: np.ndarray
    bound: "ExcitonBoundState | None"
    params: object = field(repr=False, default=None)

    def all_energies(self):
        """Every energy of rows(), ascending."""
        return np.sort(np.array([row[3] for row in self.rows()]))

    def rows(self):
        """CSV rows (branch, k_real, k_imag, energy, bound_flag)."""
        out = []
        for k in self.antisymmetric_k:
            out.append(("antisymmetric", k, 0.0,
                        exciton_dispersion(k, self.params), False))
        for k in self.symmetric_k:
            out.append(("symmetric", k, 0.0,
                        exciton_dispersion(k, self.params), False))
        if self.bound is not None:
            out.append(("bound", self.bound.k.real, self.bound.k.imag,
                        self.bound.energy, True))
        return out


def _bound_profile(kb, params):
    """|psi(n)| of the bound state: psi = cos(k_b n) + alpha_b sin(k_b |n|).

    For both k' = 0 and k' = pi the magnitude reduces to the
    cancellation-free ring form cosh(k''(N/2 - |n|)), evaluated in log
    space so deep tails stay accurate.
    """
    logs = log_cosh(abs(kb.imag) * (params.N / 2.0 - np.abs(params.sites)))
    amp = np.exp(logs - logs.max())
    return amp / np.linalg.norm(amp)


def solve_exciton_spectrum(params):
    """Full exciton spectrum with the impurity.

    Real symmetric roots are located by a sign-change scan of the
    singularity-free form sin(kN/2) sin k + (V0/2J) cos(kN/2) and
    polished with Brent's method; completeness (N/2 real roots plus one
    complex) is enforced.  V0 = 0 returns the free grid and no bound state.
    """
    N = params.N
    nu_a = np.arange(1, N // 2)
    k_a = 2.0 * math.pi * nu_a / N

    if params.V0 == 0.0:
        k_s = 2.0 * math.pi * np.arange(0, N // 2 + 1) / N
        return ExcitonSpectrum(k_a, k_s, None, params)

    t = params.V0 / (2.0 * params.J)
    g = lambda k: np.sin(k * N / 2.0) * np.sin(k) + t * np.cos(k * N / 2.0)
    ks = np.linspace(1e-12, math.pi - 1e-12, 16 * N)
    k_s = np.array(list(scan_roots(g, ks)))     # ascending, as scanned
    if len(k_s) != N // 2:
        raise NumericalError(
            f"symmetric root count {len(k_s)} != N/2 = {N // 2}: completeness failed")
    # g is bounded by 1 + |t|, so this residual does not grow with V0/J
    resid = np.max(np.abs(g(k_s))) / (1.0 + abs(t))
    if not resid <= ROOT_RESIDUAL_TOL:    # NaN fails too
        raise NumericalError(f"symmetric quantization residual {resid:.2e} "
                             "above tolerance")

    kpp = _bound_decay(params)
    kb = complex(0.0, kpp) if t > 0 else complex(math.pi, kpp)
    e_b = exciton_dispersion(kb, params)
    bound = ExcitonBoundState(kb, e_b, _bound_profile(kb, params))
    return ExcitonSpectrum(k_a, k_s, bound, params)


def exciton_reflection_amplitude(k, params):
    """Closed-form reflection amplitude for complex k = k' + i k''.

    R_e = V0 / [(2 J cos k' sinh|k''| - V0) - 2 i J sin k' cosh|k''|].
    At the bound-state pole returns complex infinity instead of raising.
    """
    if params.V0 == 0.0:
        return 0.0 + 0.0j
    kp, kpp = k.real, abs(k.imag)
    den = (2.0 * params.J * math.cos(kp) * math.sinh(kpp) - params.V0) \
        - 2.0j * params.J * math.sin(kp) * math.cosh(kpp)
    if abs(den) < 1e-12 * abs(params.V0):
        return complex(math.inf, 0.0)
    return params.V0 / den


def exciton_site_hamiltonian(params):
    """N x N ring Hamiltonian: hopping J, diagonal E0, +V0 at site 0."""
    N = params.N
    H = np.zeros((N, N))
    i = np.arange(N)
    H[i, i] = params.E0
    H[i, (i + 1) % N] = params.J
    H[(i + 1) % N, i] = params.J
    i0 = int(np.flatnonzero(params.sites == 0)[0])
    H[i0, i0] += params.V0
    return H


def bound_energies_from_matrix(params):
    """Eigenvalues of the site Hamiltonian lying outside the free band."""
    ev = np.linalg.eigvalsh(exciton_site_hamiltonian(params))
    lo = params.E0 - 2.0 * abs(params.J)
    hi = params.E0 + 2.0 * abs(params.J)
    tol = BOUND_SPLIT_TOL * abs(params.J)
    return ev[(ev < lo - tol) | (ev > hi + tol)]

