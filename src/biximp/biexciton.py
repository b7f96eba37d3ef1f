"""Impurity-free biexciton eigenbasis on the ring.

For CM wavevector K the relative wavefunction is, up to normalization,

    phi_K(s) = cosh k_i (N/2 - |s|) / Norm_e   (l_K even)
    phi_K(s) = sinh k_i (N/2 - |s|) / Norm_o   (l_K odd)

with phi_K(0) = 0 (hard core) and the twist symmetry
phi_K(N - |s|) = (-1)^{l_K} phi_K(|s|).  The decay constant k_i solves
the pairing condition obtained by matching the s = 1 hopping equation:

    cosh(k_i N/2) / cosh(k_i (N/2-1)) = 1/alpha_K   (even branch)
    sinh(k_i N/2) / sinh(k_i (N/2-1)) = 1/alpha_K   (odd branch)

where alpha_K = 2 J cos K / D.  For large N both reduce to
k_i = |ln|alpha_K||.  The pair energy is E = 2 E0 + 4 J cos K cosh k_i,
which in the large-N form becomes 2 E0 + D (1 + alpha_K^2).  At
K = pi/2 (alpha = 0) the relative wavefunction collapses onto
|s| = 1 and |s| = N-1 with weight 1/2 each and the energy is 2 E0 + D.

All hyperbolic evaluations run in log space, so no N overflows; the
same closed form (closed_phi) serves the continuation to complex K.
"""

import functools
import math

import numpy as np

from .errors import ExistenceError, NumericalError, ParameterError
from .params import k_grid
from .roots import decay_root

_LN2 = math.log(2.0)

# k_i values above this are treated as the delta-localized limit; the
# closed form is exact to ~e^{-2 k_i} there and the finite forms would
# overflow the normalization.  Only the K = pi/2 grid point (alpha at
# floating-point noise level) ever reaches it.
DELTA_LIMIT_KI = 30.0
BOUND_SPLIT_TOL = 1e-9    # band split, in units of |J|, above which a state is bound


def log_cosh(x):
    """log cosh(x), elementwise for real or complex x."""
    x = np.where(np.real(x) < 0, -x, x)
    return x - _LN2 + np.log1p(np.exp(-2.0 * x))


def log_sinh(x):
    """log sinh(x), elementwise for real or complex x with Re x > 0."""
    return x - _LN2 + np.log1p(-np.exp(-2.0 * x))


def alpha(K, params):
    """Dimensionless pairing parameter alpha_K = 2 J cos K / D."""
    if params.D == 0.0:
        raise ParameterError("alpha undefined for D = 0")
    return 2.0 * params.J * math.cos(K) / params.D


def _ratio_residual(k_i, inv_alpha_log, N, parity):
    """log f(k N/2) - log f(k (N/2 - 1)) - log(1/alpha) for f = cosh, sinh.

    Closed-form difference k + log1p(+-e^{-kN}) - log1p(+-e^{-k(N-2)}), in
    scalar math: brentq calls it about 7 times per root, 2,848 times on
    the README's 20 x 20 phase diagram at N = 40.
    """
    sign = (-1.0) ** parity
    return (k_i + math.log1p(sign * math.exp(-k_i * N))
            - math.log1p(sign * math.exp(-k_i * (N - 2))) - inv_alpha_log)


def solve_relative_decay(K, params, parity, method):
    """Decay constant k_i of the bound relative wavefunction at CM mode K.

    Returns math.inf at K = pi/2 (delta-localized limit).  Raises
    ExistenceError when the finite-N pairing condition has no bound
    root: the even branch needs 1/alpha >= 1, the odd branch
    1/alpha >= N/(N-2).
    """
    a = alpha(K, params)
    if a == 0.0:
        return math.inf
    if a < 0.0:
        raise ExistenceError(
            "alpha_K < 0: K outside the folded zone for this sign convention")
    seed = abs(math.log(a))
    if seed > DELTA_LIMIT_KI:
        return math.inf
    if method == "large_n":
        if a > 1.0:
            raise ExistenceError(
                f"no bound relative solution: |2J cos K| > |D| at K={K:.6f}")
        return seed if seed > 0 else 0.0
    if method != "exact":
        raise ParameterError(f"unknown method {method!r}")

    N = params.N
    inv_alpha_log = -math.log(a)
    threshold = 0.0 if parity == 0 else math.log(N / (N - 2.0))
    if inv_alpha_log <= threshold:
        raise ExistenceError(
            f"no bound relative root at K={K:.6f} "
            f"(parity {parity}, 1/alpha={1/a:.6f} below finite-N threshold)")

    f = lambda k: _ratio_residual(k, inv_alpha_log, N, parity)
    root = decay_root(f, max(2.0 * seed, 1.0))
    resid = f(root)
    if abs(resid) > 1e-12:
        raise NumericalError(
            f"pairing-condition residual {resid:.2e} above tolerance")
    return root


def _pair_energy(K, k_i, params, method):
    """Pair energy at CM mode K with decay constant k_i (scalar math).

    exact:   2 E0 + 4 J cos K cosh k_i with the finite-N root,
    large_n: 2 E0 + D (1 + alpha_K^2).
    Both give 2 E0 + D at the delta limit k_i = inf (K = pi/2).
    """
    if math.isinf(k_i):
        return 2.0 * params.E0 + params.D
    if method == "large_n":
        a = alpha(K, params)
        return 2.0 * params.E0 + params.D * (1.0 + a * a)
    return 2.0 * params.E0 + 4.0 * params.J * math.cos(K) * math.cosh(k_i)


def closed_phi(k, s, N, parity=0):
    """Unit-norm closed pair wavefunction f(k (N/2 - |s|)) / Norm, elementwise.

    f = cosh (parity 0) or sinh (parity 1), Norm^2 = (N-1) +- sinh(k(N-1))/sinh k
    and phi(0) = 0 (hard core); k and s broadcast.  Evaluated in log space,
    so finite at any N.  Complex k is allowed for parity 0 (phi is even in
    k; the root of Norm^2 is the principal one); parity 1 needs real k > 0.
    """
    k = np.where(np.real(k) < 0, -k, k)
    big = log_sinh(k * (N - 1)) - log_sinh(k)       # log sinh(k(N-1)) / sinh k
    log_norm2 = big + np.log1p((-1.0) ** parity * np.exp(math.log(N - 1.0) - big))
    if np.iscomplexobj(log_norm2):
        log_norm2 = log_norm2.real + 1j * np.angle(np.exp(1j * log_norm2.imag))
    x = k * (N / 2.0 - np.abs(s))
    if parity == 0:
        phi = np.exp(log_cosh(x) - 0.5 * log_norm2)
    else:
        with np.errstate(divide="ignore"):          # log sinh 0 at |s| = N/2
            phi = np.sign(x) * np.exp(log_sinh(np.abs(x)) - 0.5 * log_norm2)
    return np.where(s == 0, 0.0, phi)


def phi_samples(l_K, k_i, params):
    """phi_K(s) of every mode on s in [-N+1, N-1] (column s + N - 1), unit norm.

    Row i belongs to the mode with index l_K[i] and decay constant
    k_i[i].  Normalized so that sum_s phi^2 = 1 over the sampled range;
    the full state norm over the even r+s sublattice then equals one
    with the sqrt(2/N) CM prefactor.  At the delta limit (k_i = inf) the
    closed half-half form on |s| = 1 and |s| = N-1 is used.  phi depends
    on |s| only, so the closed form is evaluated on s in [0, N-1] and the
    s < 0 columns are copies.
    """
    N = params.N
    s = np.arange(-N + 1, N)
    parity = np.abs(l_K) % 2
    delta = np.isinf(k_i)
    phi = np.zeros((len(l_K), 2 * N - 1))
    for par in (0, 1):
        rows = ~delta & (parity == par)
        right = closed_phi(k_i[rows, None], s[N - 1:], N, par)
        phi[rows, N - 1:], phi[rows, :N - 1] = right, right[:, :0:-1]
    # |s| = 1 and |s| = N-1 coincide only for N = 2, excluded by params
    phi[np.ix_(delta, np.abs(s) == 1)] = 0.5
    phi[np.ix_(delta, np.abs(s) == N - 1)] = 0.5 * (-1.0) ** l_K[delta, None]
    return phi


def default_method(params):
    """large_n when |D/2J| > 2 and N >= 40, exact otherwise."""
    if abs(params.D / (2.0 * params.J)) > 2.0 and params.N >= 40:
        return "large_n"
    return "exact"


class ModeBasis:
    """All N impurity-free biexciton modes of one parameter set, as arrays.

    `params` is stored with V0 = 0: one basis serves every V0.  Ordered
    by increasing K: K (N,), l_K (N,), parity (N,), decay constants k_i
    (N,; inf at the delta limit), energies (N,) and phi (N, 2N-1) with
    the s axis running over [-N+1, N-1].  The lattice conventions every
    observable shares: r (2N,), the extended CM ring (-N, N]; and
    window (N,), the phi columns of one relative period s in (-N/2, N/2].

    k_i and the energies are solved for l_K <= 0, in grid order, and for
    l_K = N/2; each l_K > 0 copies -l_K, which has the same cos K and
    parity.  The solve order is kept so that an ExistenceError names the
    first failing K of the grid.  The decay constants and energies take
    the form default_method picks from the parameters: the large-N limit
    when |D/2J| > 2 and N >= 40, the exact finite-N root otherwise.
    """

    def __init__(self, params):
        params.validate_biexciton_regime()
        method = default_method(params)
        self.params = params = params.replace(V0=0.0)
        self.l_K, self.K = k_grid(params)
        self.parity = np.abs(self.l_K) % 2
        N = params.N
        half = N // 2
        solved = [*range(half), N - 1]                # l_K <= 0, then N/2
        K, par = self.K.tolist(), self.parity.tolist()
        k_i = [solve_relative_decay(K[j], params, par[j], method) for j in solved]
        energies = [_pair_energy(K[j], ki, params, method)
                    for j, ki in zip(solved, k_i)]
        mirror = np.r_[0:half, half - 2:-1:-1, half]  # position in `solved`
        self.k_i = np.array(k_i)[mirror]
        self.energies = np.array(energies)[mirror]
        self.phi = phi_samples(self.l_K, self.k_i, params)
        self.s = np.arange(-N + 1, N)
        self.r = np.arange(-N + 1, N + 1)
        # index array, not a slice: products read the contiguous copy
        self.window = np.arange(N // 2, N + N // 2)

    def __len__(self):
        return len(self.K)

    @functools.cached_property
    def cm_phase(self):
        """CM phase matrix e^{iKr}, (2N, N), on the extended ring r in (-N, N].

        Evaluated on r >= 0 only: row -r is the conjugate of row r, bit
        for bit, since cos is even and sin odd.  Adding 0.0 turns the
        conjugate's Im = -0.0 at K = 0 into the +0.0 that e^{i 0} has.
        """
        N = len(self.K)
        right = np.exp(1j * np.outer(self.r[N - 1:], self.K))
        return np.concatenate([right[N - 1:0:-1].conj() + 0.0, right])

    def band_edges(self):
        """Min/max of the discrete pair-energy band over the K grid."""
        return float(self.energies.min()), float(self.energies.max())

    def band_split(self, e):
        """How far the energies e lie outside the band, max(lo - e, e - hi);
        negative inside it."""
        lo, hi = self.band_edges()
        return np.maximum(lo - e, e - hi)

    def out_of_band(self, e):
        """Mask of the energies e that leave the band by more than
        BOUND_SPLIT_TOL |J|: the bound-state energy gate."""
        return self.band_split(e) > BOUND_SPLIT_TOL * abs(self.params.J)

    def group_velocity(self, K):
        """dE/dK of the large-N dispersion: -(4 J^2 / D) sin 2K."""
        p = self.params
        return -4.0 * p.J * p.J * math.sin(2.0 * K) / p.D

    def pair_amplitudes(self):
        """Mode coefficients over ordered site pairs (m < n), one row per mode.

        c_{K,mn} = (2/sqrt(N)) e^{iK(m+n)} phi_K(n-m); unit-norm rows.
        """
        p = self.params
        a, b = np.triu_indices(p.N, 1)
        ma, nb = p.sites[a], p.sites[b]
        return 2.0 / math.sqrt(p.N) * (np.exp(1j * np.outer(self.K, ma + nb))
                                       * self.phi[:, nb - ma + p.N - 1])
