"""Wavepacket scattering off the impurity and CM/relative entanglement.

A Gaussian packet over CM modes, u_K(0) = exp(-(K-K0)^2 / 2 dK0^2)
times a positioning phase e^{-i K r_offset}, is propagated with the
projected Hamiltonian M = diag(E_b) + V by spectral exponentiation
(exact phases, exactly unitary).  Real-space amplitudes are

    Psi(r, s; t) = N^{-1/2} sum_K u_K(t) e^{iKr} phi_K(s)

on the even r+s sublattice of the extended ring r in (-N, N].  The
reduced CM density matrix traces the relative coordinate over one
separation period,

    rho(r, r') = sum_{s in (-N/2, N/2]} Psi(r, s) Psi*(r', s),

trace-normalized; its eigenvalues give the entanglement entropy in
bits.  Interference of the reflected and transmitted halves is read off
the diagonal of rho around the ring antipode; fringe visibility is
(max - min)/(max + min) over interior fringe extrema, zero when the
window holds no interior minimum.

The eigenvalues never need rho itself.  The even-(r+s) mask splits rho
into two blocks by the parity p of r, each fed only by the s of the
same parity: rho_p = A_p A_p^H with A_p(r, s) = Psi(r, s), r and s of
parity p.  The Gram matrix A_p^H A_p has the same nonzero spectrum, and
its r-sum is a discrete orthogonality on the K grid of spacing pi/N:
r = p + 2m runs over N consecutive m, so

    sum_{r of parity p} e^{i(K'-K) r} = N delta_{KK'}

for K, K' in (-pi/2, pi/2].  Hence

    (A_p^H A_p)(s, s') = sum_K |u_K|^2 phi_K(s) phi_K(s'),

a real N/2 x N/2 matrix per parity over the window's s.  Its spectrum
is the Schmidt spectrum of the CM/relative split (schmidt_weights); it
depends on the |u_K|^2 only, so with V0 = 0 the entropy is exactly
conserved.

The split ratio needs only the fold-weighted weight of each r,

    w(r) = sum_{s in window, r+s even} fold(s) |Psi(r, s)|^2,

with fold(s) = 2 inside the window and 1 on its |s| = N/2 edge.
Expanding |Psi|^2 over K = pi m/N and K' = pi m'/N and summing w
against a region weight c(r) gives a Hermitian form on the K grid,

    sum_r c(r) w(r) = sum_{K,K'} u_K Q_c[K, K'] u*_K',
    Q_c = sum_p G_p o D_{c,p}   (o: elementwise product),
    G_p[K, K'] = sum_{s of parity p} fold(s) phi_K(s) phi_K'(s),
    D_{c,p}[K, K'] = sum_{r of parity p} c(r) e^{i pi (m - m') r / N}.

D_{c,p} depends on m - m' only: a length-(2N - 1) sum indexed into
an N x N matrix.  For c = 1 the orthogonality above makes the total
diagonal, N sum_K |u_K|^2 (G_0 + G_1)[K, K].

A weight even on the ring (c(-r) = c(r), with r = N the same site as
r = -N) has a real symmetric Q_c, so with u = a + ib its sum is
a^T Q_c a + b^T Q_c b.  The buffers |r| <= buffer around the impurity
and ||r| - N| <= buffer around the antipode are even.  The reflected
half-ring, r < 0 plus half of each cut point r = 0 and r = N, has
c = (1 - sigma)/2, where sigma(r) = sign(r) with sigma(N) = 0 is odd on
the ring.  Its form is i R with R real antisymmetric, and
sum_r sigma(r) w(r) = 2 a^T R b.  So the reflected fraction is
(1 - 2 a^T R b / total)/2, and the transmitted one takes the other
sign.  The three real forms are built once per basis and buffer: a
split costs one (3N x N)(N x 2) product, not the 2N^3 operations of
the window amplitude.
"""

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .biexciton import ModeBasis
from .errors import NumericalError, ParameterError, RegimeError, TimingError
from .projected import (ProjectedHamiltonian, build_projected_hamiltonian,
                        impurity_overlap)
from .roots import steered_bisection

ENTROPY_EIG_CLIP = 1e-12
SPLIT_BUFFER = 4          # half-width of the partition buffer zones (r sites)
IMPURITY_WEIGHT_MAX = 0.05   # strict partition gates: largest buffer weights
ANTIPODE_WEIGHT_MAX = 0.10
SUM_ROUNDING = 1e-12      # slack for summation rounding at those limits
CALIBRATION_T = 35.0      # time at which calibrate_v0 measures the split
CALIBRATION_TOL = 0.02    # calibrate_v0 warns when it misses the target by more


@dataclass(frozen=True)
class WavepacketConfig:
    """Initial Gaussian packet and sampling grid.

    r_offset positions the packet so that it reaches the impurity near
    t = 0: the default is group-velocity backtracking v_g(K0) * t_start.
    """

    K0: float
    dK0: float
    t_start: float
    t_end: float
    sample_dt: float = 1.0
    r_offset: float = None

    def __post_init__(self):
        if self.dK0 <= 0:
            raise ParameterError("dK0 must be positive")
        if self.t_start >= self.t_end:
            raise ParameterError("t_start must precede t_end")
        # localized packets must fit the folded zone; packets wider than
        # the zone itself are allowed (flat limit) and only warn at init
        if self.dK0 <= math.pi / 6 and not (
                -math.pi / 2 < self.K0 - 3 * self.dK0
                and self.K0 + 3 * self.dK0 <= math.pi / 2):
            raise ParameterError("packet K0 +- 3 dK0 must fit the folded zone")


@dataclass
class WavepacketState:
    t: float
    u: np.ndarray

    @property
    def norm(self):
        return float(np.sum(np.abs(self.u) ** 2))


def validate_dynamics_regime(params):
    """Single-band propagation needs |D| > 4|J| and |V0| not >> |D|."""
    if abs(params.D) <= 4.0 * abs(params.J):
        raise RegimeError(
            f"wavepacket run needs |D| > 4|J| (pair band clear of the "
            f"two-exciton continuum); got |D| = {abs(params.D)}")
    if abs(params.V0) > 5.0 * abs(params.D):
        raise RegimeError("wavepacket run needs |V0| not large compared to |D|")


def init_wavepacket(config, modes):
    """Normalized Gaussian packet at t = t_start with positioning phase."""
    r_off = config.r_offset
    if r_off is None:
        r_off = modes.group_velocity(config.K0) * config.t_start
    g = np.exp(-0.5 * (modes.K - config.K0) ** 2 / config.dK0 ** 2)
    clipped = (g[0] ** 2 + g[-1] ** 2) / np.sum(g ** 2)
    if clipped > 1e-6:
        warnings.warn(f"packet clipped by zone boundary: weight {clipped:.2e}")
    u = g * np.exp(-1j * modes.K * r_off)
    u /= np.linalg.norm(u)
    return WavepacketState(config.t_start, u)


def propagate(state, ph, t_target):
    """Spectral propagation u(t) = W exp(-i E (t - t0)) W^H u(t0)."""
    w, W = ph.eigensystem()
    phase = np.exp(-1j * w * (t_target - state.t))
    return WavepacketState(t_target, W @ (phase * (W.conj().T @ state.u)))


def energy_expectation(state, ph):
    return float(np.real(state.u.conj() @ ph.M @ state.u))


# ---------------------------------------------------------------------------
# real-space observables


class _Grids:
    """Cached geometric arrays and split-ratio forms for one mode basis."""

    def __init__(self, modes):
        N = modes.params.N
        self.N = N
        self.r = np.arange(-N + 1, N + 1)
        self.l_K = modes.l_K
        self.FK = modes.cm_phase
        win = (modes.s >= -N // 2 + 1) & (modes.s <= N // 2)
        self.s_win = modes.s[win]
        self.phi_win = modes.phi[:, win]
        self.phi_parity = [self.phi_win[:, self.s_win % 2 == p] for p in (0, 1)]
        self.mask_win = ((self.r[:, None] + self.s_win[None, :]) % 2 == 0)
        self.mask_full = ((self.r[:, None] + modes.s[None, :]) % 2 == 0)
        self.fold = np.where(np.abs(self.s_win) == N // 2, 1.0, 2.0)
        self.total_weight = N * (self.phi_win ** 2 @ self.fold)
        self._forms = {}

    def split_forms(self, buffer):
        """The real forms Q_imp, Q_anti and R of the module docstring,
        stacked row-wise into (3N, N).

        sum_r c(r) e^{i pi k r / N} over the 2N sites r is 2N times the
        inverse DFT of c, placed at r mod 2N, at frequency k mod 2N; it
        is real for even c and imaginary for odd c.
        """
        Q = self._forms.get(buffer)
        if Q is None:
            r, N = self.r, self.N
            c = np.array([np.abs(r) <= buffer, np.abs(np.abs(r) - N) <= buffer,
                          np.where(r == N, 0, np.sign(r))], dtype=float)
            x = np.zeros((2, 3, 2 * N))
            for p in (0, 1):
                x[p][:, r % (2 * N)] = c * (r % 2 == p)
            d = 2 * N * np.fft.ifft(x)
            d = np.concatenate([d.real[:, :2], d.imag[:, 2:]], axis=1)
            dl = (self.l_K[:, None] - self.l_K[None, :]) % (2 * N)
            Q = np.zeros((3, N, N))
            for p, phi in enumerate(self.phi_parity):
                Q += d[p][:, dl] * ((phi * self.fold[self.s_win % 2 == p]) @ phi.T)
            Q = self._forms[buffer] = Q.reshape(3 * N, N)
        return Q


def _grids(modes):
    g = getattr(modes, "_grid_cache", None)
    if g is None:
        g = _Grids(modes)
        modes._grid_cache = g
    return g


def realspace_amplitude(state, modes):
    """Psi(r, s) on the sublattice rectangle r in (-N, N], s in (-N, N).

    Each physical configuration appears at two grid slots (ring images);
    the 1/sqrt(N) prefactor makes the total grid weight exactly 1.
    """
    g = _grids(modes)
    psi = (g.FK * state.u[None, :]) @ modes.phi   # (2N, 2N-1)
    return g.r, modes.s, psi * g.mask_full / math.sqrt(g.N)


def _window_amplitude(state, modes):
    g = _grids(modes)
    return (g.FK * state.u[None, :]) @ g.phi_win * g.mask_win


@dataclass
class ReducedDensity:
    rho: np.ndarray
    eigenvalues: np.ndarray

    @property
    def trace(self):
        return float(np.real(np.trace(self.rho)))

    def diagonal(self):
        return np.real(np.diag(self.rho)).copy()


def schmidt_weights(u, modes):
    """Eigenvalues of the trace-normalized CM density matrix, ascending.

    Computed from the two parity Gram blocks sum_K |u_K|^2 phi_K phi_K^T
    (module docstring) and zero-padded to the 2N eigenvalues of rho.
    """
    g = _grids(modes)
    w = np.abs(u) ** 2
    blocks = [(phi.T * w) @ phi for phi in g.phi_parity]
    trace = sum(np.trace(b) for b in blocks)
    ev = np.concatenate([np.linalg.eigvalsh(b / trace) for b in blocks])
    if ev.min() < -1e-10:
        raise NumericalError(f"reduced density not PSD: min eig {ev.min():.2e}")
    return np.sort(np.concatenate([np.clip(ev, 0.0, None),
                                   np.zeros(2 * g.N - len(ev))]))


def reduced_density(state, modes):
    """Trace-normalized CM density matrix on the 2N ring."""
    psi = _window_amplitude(state, modes)
    rho = psi @ psi.conj().T
    rho /= np.real(np.trace(rho))
    return ReducedDensity(rho, schmidt_weights(state.u, modes))


def entropy(rho):
    """Von Neumann entropy in bits of a ReducedDensity or its eigenvalues;
    eigenvalues below the clip are dropped."""
    ev = np.asarray(getattr(rho, "eigenvalues", rho))
    ev = ev[ev > ENTROPY_EIG_CLIP]
    return float(-np.sum(ev * np.log2(ev)))


def contrast(rho, floor=1e-14):
    """C(r, r') = |rho_rr'| / (|rho_rr + rho_r'r'| / 2); NaN where undefined."""
    d = np.real(np.diag(rho.rho))
    den = 0.5 * np.abs(d[:, None] + d[None, :])
    out = np.full_like(den, np.nan)
    ok = den > floor
    out[ok] = np.abs(rho.rho)[ok] / den[ok]
    return out


def interference_profile(state, modes):
    """Diagonal of the reduced density over r (sums to 1)."""
    psi = _window_amplitude(state, modes)
    prof = np.sum(np.abs(psi) ** 2, axis=1)
    return prof / prof.sum()


def fringe_visibility(profile, N, halfwidth=None):
    """(max - min)/(max + min) over interior fringe extrema near r = +-N.

    The sublattice structure puts almost all weight on one r-parity
    (a two-site comb); fringes are read off the dominant-parity
    subsequence so the comb does not masquerade as fringe contrast.
    A window with no interior local minimum on that subsequence
    (an unsplit packet passing through) scores zero: no fringes.
    """
    if halfwidth is None:
        halfwidth = N // 4
    r = np.arange(-N + 1, N + 1)
    dist = np.minimum(np.abs(r - N), np.abs(r + N))
    win = np.where(dist <= halfwidth)[0]
    order = np.argsort((r[win] - (N - halfwidth)) % (2 * N))
    idx = win[order]
    w_even = profile[idx[r[idx] % 2 == 0]].sum()
    w_odd = profile[idx[r[idx] % 2 != 0]].sum()
    keep = idx[r[idx] % 2 == (0 if w_even >= w_odd else 1)]
    return _extrema_contrast(profile[keep])


def _extrema_contrast(vals):
    """(max - min)/(max + min) over the interior local extrema of vals;
    zero unless both an interior maximum and minimum exist."""
    mid, prev, nxt = vals[1:-1], vals[:-2], vals[2:]
    maxs = mid[(mid > prev) & (mid >= nxt)]
    mins = mid[(mid < prev) & (mid <= nxt)]
    if not len(mins) or not len(maxs):
        return 0.0
    vmax, vmin = maxs.max(), mins.min()
    return float((vmax - vmin) / (vmax + vmin))


def mode_distribution(state):
    """|u_K|^2, summing to 1."""
    w = np.abs(state.u) ** 2
    return w / w.sum()


def check_partition(imp, anti):
    """TimingError unless a two-way split of the weight is well defined.

    The limits are inclusive up to summation rounding: the impurity
    buffer may hold up to 5% and the antipode buffer up to 10% of the
    weight, each plus SUM_ROUNDING.  A weight that equals a limit in
    exact arithmetic (a state flat in r, such as the zone-edge mode at
    N = 40 with buffer 2, whose impurity weight is 2/40) therefore
    passes however its sum rounds.
    """
    if max(imp - IMPURITY_WEIGHT_MAX, anti - ANTIPODE_WEIGHT_MAX) > SUM_ROUNDING:
        raise TimingError(f"partition ill-defined: {imp:.1%} at the impurity, "
                          f"{anti:.1%} at the antipode")


def split_ratio(state, modes, buffer=SPLIT_BUFFER, strict=True):
    """(reflected, transmitted) probability on the two half-rings.

    Image slots at |s| > N/2 duplicate |s| < N/2 slots at shifted r, so
    the fold weights (2 inside, 1 on the |s| = N/2 edge) count every
    physical configuration exactly once; the cut points r = 0 and
    r = N are shared half-half, so the two probabilities sum to one.
    With strict=True a TimingError flags ill-defined partitions: more
    than 5% of the weight near the impurity (packets not separated or
    lingering) or more than 10% near the antipode (halves re-merging),
    with the limits inclusive up to summation rounding (check_partition).
    Each weight is a real form on u (module docstring).
    """
    g = _grids(modes)
    ab = np.stack([state.u.real, state.u.imag], axis=1)     # u = a + ib
    y = (g.split_forms(buffer) @ ab).reshape(3, -1, 2)
    total = g.total_weight @ np.abs(state.u) ** 2
    imp, anti = np.sum(y[:2] * ab, axis=(1, 2)) / total
    sigma = 2.0 * (ab[:, 0] @ y[2, :, 1]) / total
    refl, trans = 0.5 - 0.5 * sigma, 0.5 + 0.5 * sigma
    if strict:
        check_partition(imp, anti)
    return float(refl), float(trans)


def calibrate_v0(params_template, config, target=0.5, modes=None, overlap=None):
    """Impurity strength giving the target reflected fraction.

    Bisection on |V0| in [0, |D|] with the sign opposite to D, until
    the bracket is narrower than 1e-12; reflection is measured at
    t = CALIBRATION_T.  target = 0 returns 0.  If |V0| = |D| reflects
    less than the target, that endpoint is returned with a warning; so
    is the bisection's result when the target is at or below the
    reflection at V0 = 0, or when it misses the target by more than
    CALIBRATION_TOL.  `modes` (and its `overlap`) pass a prebuilt basis
    of the same D, as in build_projected_hamiltonian.

    The bisection is steered by one Brent root (steered_bisection): at
    and near the README packet a calibration builds 13-17 Hamiltonians,
    where evaluating every midpoint builds 45.  Its V0 is bit for bit
    that of evaluating every midpoint whenever reflected(|V0|) crosses
    the target once on [0, |D|].
    """
    if target == 0.0:
        return 0.0
    sgn = -np.sign(params_template.D)
    v0_max = abs(params_template.D)

    if modes is None:
        modes = ModeBasis(params_template)
    if overlap is None:
        overlap = impurity_overlap(modes)
    u0 = init_wavepacket(config, modes)

    @functools.cache
    def reflected(v0_abs):
        trial = params_template.replace(V0=float(sgn * v0_abs))
        ph = build_projected_hamiltonian(trial, modes=modes, overlap=overlap)
        u = propagate(u0, ph, CALIBRATION_T)
        # scan probes skip the timing gate: strong trial potentials leave
        # lingering weight near the impurity by design
        return split_ratio(u, modes, strict=False)[0]

    r_hi = reflected(v0_max)
    if r_hi < target:
        warnings.warn(f"reflection at |V0|={v0_max} is only {r_hi:.3f} < "
                      "target; returning scan endpoint")
        return sgn * v0_max
    v0 = sgn * steered_bisection(reflected, target, 0.0, v0_max, steps=60,
                                 width=1e-12)
    r0 = reflected(0.0)
    if r0 >= target:
        warnings.warn(f"split target {target} is at or below the V0 = 0 "
                      f"reflection {r0:.4f}; returning |V0| = {abs(v0):.1e}")
    elif abs((r := reflected(abs(v0))) - target) > CALIBRATION_TOL:
        warnings.warn(f"calibration reached reflected={r:.4f}, outside "
                      f"target {target} +- {CALIBRATION_TOL} (non-monotone?)")
    return float(v0)


# ---------------------------------------------------------------------------
# trajectory driver


@dataclass
class TrajectorySample:
    t: float
    entropy: float
    norm: float
    energy: float
    reflected: float      # NaN while the partition is ill-defined


@dataclass
class Trajectory:
    samples: list
    config: WavepacketConfig
    ph: ProjectedHamiltonian = field(repr=False, default=None)
    initial: WavepacketState = field(repr=False, default=None)

    def at(self, t):
        for s in self.samples:
            if abs(s.t - t) < 1e-9:
                return s
        raise TimingError(f"no sample at t={t}")


def run_trajectory(params, config, ph=None):
    """Propagate the packet and record (t, S, norm, energy, reflected).

    Every sample time comes from one product over the time grid,
    u(t) = W exp(-i E (t - t0)) W^H u(t0), as in propagate.
    """
    validate_dynamics_regime(params)
    if ph is None:
        ph = build_projected_hamiltonian(params)
    state = init_wavepacket(config, ph.modes)
    ts = np.arange(config.t_start, config.t_end + 1e-9, config.sample_dt)
    w, W = ph.eigensystem()
    c0 = W.conj().T @ state.u
    us = (np.exp(-1j * np.outer(ts - state.t, w)) * c0) @ W.T
    samples = []
    for t, u in zip(ts, us):
        st = WavepacketState(float(t), u)
        try:
            refl, _ = split_ratio(st, ph.modes)
        except TimingError:
            refl = math.nan
        samples.append(TrajectorySample(
            st.t, entropy(schmidt_weights(u, ph.modes)), st.norm,
            energy_expectation(st, ph), refl))
    return Trajectory(samples, config, ph, state)
