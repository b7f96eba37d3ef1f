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
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .biexciton import ModeBasis
from .errors import NumericalError, ParameterError, RegimeError, TimingError
from .exciton import exciton_dispersion
from .projected import (ProjectedHamiltonian, build_projected_hamiltonian,
                        impurity_overlap)

ENTROPY_EIG_CLIP = 1e-12
SPLIT_BUFFER = 4          # half-width of the partition buffer zones (r sites)


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
    """Cached geometric arrays for one mode basis."""

    def __init__(self, modes):
        N = modes.params.N
        self.N = N
        self.r = np.arange(-N + 1, N + 1)
        self.FK = np.exp(1j * np.outer(self.r, modes.K))
        win = (modes.s >= -N // 2 + 1) & (modes.s <= N // 2)
        self.s_win = modes.s[win]
        self.phi_win = modes.phi[:, win].astype(complex)
        self.phi_parity = [modes.phi[:, win][:, self.s_win % 2 == p]
                           for p in (0, 1)]
        self.mask_win = ((self.r[:, None] + self.s_win[None, :]) % 2 == 0)
        self.fold_weight = np.where(np.abs(self.s_win) == N // 2, 1.0, 2.0)
        self.mask_full = ((self.r[:, None] + modes.s[None, :]) % 2 == 0)
        self.phi_full = modes.phi.astype(complex)


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
    psi = (g.FK * state.u[None, :]) @ g.phi_full   # (2N, 2N-1)
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


def split_ratio(state, modes, buffer=SPLIT_BUFFER, strict=True):
    """(reflected, transmitted) probability on the two half-rings.

    Image slots at |s| > N/2 duplicate |s| < N/2 slots at shifted r, so
    the fold weights (2 inside, 1 on the |s| = N/2 edge) count every
    physical configuration exactly once; the cut points r = 0 and
    r = N are shared half-half, so the two probabilities sum to one.
    With strict=True a TimingError flags ill-defined partitions: more
    than 5% of the weight near the impurity (packets not separated or
    lingering) or more than 10% near the antipode (halves re-merging).
    """
    g = _grids(modes)
    w = (np.abs(_window_amplitude(state, modes)) ** 2) @ g.fold_weight
    w = w / w.sum()
    if strict:
        imp = w[np.abs(g.r) <= buffer].sum()
        anti = w[np.abs(np.abs(g.r) - g.N) <= buffer].sum()
        if imp > 0.05 or anti > 0.10:
            raise TimingError(
                f"partition ill-defined: {imp:.1%} at the impurity, "
                f"{anti:.1%} at the antipode")
    cut = 0.5 * w[(g.r == 0) | (g.r == g.N)].sum()
    refl = w[g.r < 0].sum() + cut
    trans = w[(g.r > 0) & (g.r != g.N)].sum() + cut
    return float(refl), float(trans)


def calibrate_v0(params_template, config, target=0.5, tol=0.02,
                 t_measure=None, v0_max=None, modes=None, overlap=None):
    """Impurity strength giving the target reflected fraction.

    Bisection on |V0| with the sign opposite to D; reflection is
    measured at t_measure (default 35).  target = 0 returns 0.  If the
    scan endpoint does not bracket the target the best candidate is
    returned with a warning.  `modes` (and its `overlap`) pass a
    prebuilt basis of the same D, as in build_projected_hamiltonian.
    """
    if target == 0.0:
        return 0.0
    sgn = -np.sign(params_template.D)
    if t_measure is None:
        t_measure = 35.0
    if v0_max is None:
        v0_max = abs(params_template.D)

    if modes is None:
        modes = ModeBasis(params_template)
    if overlap is None:
        overlap = impurity_overlap(modes)
    u0 = init_wavepacket(config, modes)

    def reflected(v0_abs):
        trial = params_template.replace(V0=float(sgn * v0_abs))
        ph = build_projected_hamiltonian(trial, modes=modes, overlap=overlap)
        u = propagate(u0, ph, t_measure)
        # scan probes skip the timing gate: strong trial potentials leave
        # lingering weight near the impurity by design
        return split_ratio(u, modes, strict=False)[0]

    lo, hi = 0.0, v0_max
    r_hi = reflected(hi)
    if r_hi < target:
        warnings.warn(f"reflection at |V0|={hi} is only {r_hi:.3f} < target; "
                      "returning scan endpoint")
        return sgn * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if reflected(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    v0 = sgn * 0.5 * (lo + hi)
    r = reflected(abs(v0))
    if abs(r - target) > tol:
        warnings.warn(f"calibration reached reflected={r:.4f}, "
                      f"outside target {target} +- {tol} (non-monotone?)")
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


# ---------------------------------------------------------------------------
# single-exciton comparator


class ExcitonPacketModel:
    """Exciton wavepacket on the N-site ring, same Gaussian shape.

    Basis: free plane waves k = 2 pi nu / N over the full zone; the
    impurity couples them all with constant element V0/N.  Thin driver
    used to contrast a structureless packet with the composite one.
    """

    def __init__(self, params):
        self.params = params
        N = params.N
        self.k = 2.0 * math.pi * np.arange(-N // 2 + 1, N // 2 + 1) / N
        self.energies = np.array([exciton_dispersion(k, params.replace(V0=0.0))
                                  for k in self.k])
        H = np.diag(self.energies.astype(complex)) + params.V0 / N
        self.w, self.W = np.linalg.eigh(H)
        self.x = params.sites

    def group_velocity(self, k0):
        return -2.0 * self.params.J * math.sin(k0)

    def initial(self, k0, dk0, x_offset):
        g = np.exp(-0.5 * (self.k - k0) ** 2 / dk0 ** 2)
        u = g * np.exp(-1j * self.k * x_offset)
        return u / np.linalg.norm(u)

    def evolve(self, u0, dt):
        return self.W @ (np.exp(-1j * self.w * dt) * (self.W.conj().T @ u0))

    def density_profile(self, u):
        psi = np.exp(1j * np.outer(self.x, self.k)) @ u / math.sqrt(len(self.k))
        prof = np.abs(psi) ** 2
        return prof / prof.sum()

    def reflected_fraction(self, u, buffer=2, strict=True):
        prof = self.density_profile(u)
        N = self.params.N
        dist_imp = np.minimum(np.abs(self.x), N - np.abs(self.x))
        if strict:
            imp = prof[dist_imp <= buffer].sum()
            anti = prof[dist_imp >= N // 2 - buffer].sum()
            if imp > 0.05 or anti > 0.10:
                raise TimingError(
                    f"exciton partition ill-defined: {imp:.1%} impurity, "
                    f"{anti:.1%} antipode")
        cut = 0.5 * prof[(self.x == 0) | (self.x == N // 2)].sum()
        return float(prof[(self.x < 0) & (self.x > -N // 2)].sum() + cut)

    def antipode_visibility(self, u, halfwidth=None):
        N = self.params.N
        if halfwidth is None:
            halfwidth = N // 4
        prof = self.density_profile(u)
        dist = np.abs(np.abs(self.x) - N // 2)
        win = np.where(np.minimum(dist, N - dist) <= halfwidth)[0]
        order = np.argsort((self.x[win] - (N // 2 - halfwidth)) % N)
        return _extrema_contrast(prof[win[order]])


def calibrate_exciton_v0(params_template, k0, dk0, t_flight, v0_max=None):
    """Bisection on |V0| for a 50/50 exciton split; sign opposite to J."""
    sgn = -np.sign(params_template.J)
    if v0_max is None:
        v0_max = 6.0 * abs(params_template.J)

    def reflected(v0_abs):
        model = ExcitonPacketModel(params_template.replace(V0=float(sgn * v0_abs)))
        x_off = model.group_velocity(k0) * (-t_flight)
        u = model.evolve(model.initial(k0, dk0, x_off), 2.0 * t_flight)
        return model.reflected_fraction(u, strict=False)

    lo, hi = 0.0, v0_max
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if reflected(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    return float(sgn * 0.5 * (lo + hi))
