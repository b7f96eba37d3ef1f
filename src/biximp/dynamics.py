"""Wavepacket scattering off the impurity and CM/relative entanglement.

A Gaussian packet over CM modes, u_K(0) = exp(-(K-K0)^2 / 2 dK0^2)
times a positioning phase e^{-i K r_offset}, is propagated with the
projected Hamiltonian M = diag(E_b) + V by spectral exponentiation
(exact phases, exactly unitary): the recorded run with the complex eigh
of M, each calibration trial with its real sector spectrum
(projected.diagonalize_projected).  Real-space amplitudes are

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

a real matrix per parity over the window's s.  Its spectrum is the
Schmidt spectrum of the CM/relative split (schmidt_weights); it
depends on the |u_K|^2 only, so with V0 = 0 the entropy is exactly
conserved.  In the dynamics regime every phi_K(s) decays at least as
e^{-k_i |s|} with k_i >= ln(|D|/2|J|) > 0.69, so the blocks keep only
the s with |s| <= s_max, where each mode holds all but eps^2 of its
window weight (_schmidt_support).  The blocks are PSD, so by Weyl's
inequality (H. Weyl, Math. Ann. 71, 441 (1912)) the cut moves no
eigenvalue of the trace-normalized blocks by more than about eps, the
rounding of eigvalsh; s_max does not grow with N (45 at D/J = 4.5), so
neither does an entropy sample's solve.

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
a^T Q_c a + b^T Q_c b.  The buffers |r| <= SPLIT_BUFFER around the
impurity and ||r| - N| <= SPLIT_BUFFER around the antipode are even.
The half-ring r < 0, plus half of each cut point r = 0 and r = N, has
c = (1 - sigma)/2, where sigma(r) = sign(r) with sigma(N) = 0 is odd on
the ring.  Its form is i R with R real antisymmetric, and
sum_r sigma(r) w(r) = 2 a^T R b.  So that half holds
(1 - 2 a^T R b / total)/2 and the other half takes the other sign.
The reflected half is the one the packet arrives from, r v_g(K0) < 0:
r < 0 for v_g(K0) > 0 (and, by convention, for v_g(K0) = 0), r > 0
for v_g(K0) < 0.  The three real forms are built once per basis: a
split costs one (3N x N)(N x 2) product, not the 2N^3 operations of
the window amplitude.
"""

import functools
import math
import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError, RegimeError, TimingError
from .projected import diagonalize_projected, hamiltonian_builder
from .roots import steered_bisection

ENTROPY_EIG_CLIP = 1e-12
SPLIT_BUFFER = 4          # half-width of the partition buffer zones (r sites)
IMPURITY_WEIGHT_MAX = 0.05   # strict partition gates: largest buffer weights
ANTIPODE_WEIGHT_MAX = 0.10
SUM_ROUNDING = 1e-12      # slack for summation rounding at those limits
CALIBRATION_T = 35.0      # time at which calibrate_v0 measures the split
CALIBRATION_TOL = 0.02    # calibrate_v0 warns when it misses the target by more
CONTRAST_FLOOR = 1e-14    # contrast is NaN where the mean density is below this
# largest time grid a WavepacketConfig accepts: run_trajectory holds a
# few (samples x N) complex arrays, 64 MB each at N = 400
MAX_SAMPLES = 10_000
_SPLIT_FORMS = weakref.WeakKeyDictionary()    # ModeBasis -> its _split_forms


@dataclass(frozen=True)
class WavepacketConfig:
    """Initial Gaussian packet and sampling grid.

    r_offset positions the packet so that it reaches the impurity near
    t = 0: the default is group-velocity backtracking v_g(K0) * t_start.
    The grid t_start, t_start + sample_dt, ... up to t_end holds at most
    MAX_SAMPLES times.
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
        if self.sample_dt <= 0:
            raise ParameterError("sample_dt must be positive")
        if self.t_start >= self.t_end:
            raise ParameterError("t_start must precede t_end")
        # the sample count of run_trajectory's grid is ceil(span); a NaN
        # or an overflow to inf fails too
        span = (self.t_end + 1e-9 - self.t_start) / self.sample_dt
        if not span <= MAX_SAMPLES:
            raise ParameterError(f"time grid of {span:.3g} samples exceeds "
                                 f"MAX_SAMPLES = {MAX_SAMPLES}")
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


def validate_packet_regime(params, config):
    """validate_dynamics_regime, then refuse a packet whose energies meet
    the capture band, which the band projection cannot see: one exciton
    bound to the impurity at E0 + sgn(V0) hypot(V0, 2J), the other free
    at E0 + 2J cos k.

    The packet's energies are the pair band E_b(K) = 2E0 + D + 4J^2 cos^2 K / D
    over K0 +- 3 dK0, clipped to the folded zone.  Both bands are compared
    less 2E0, with 4J^2 / D taken as 2J (2J / D), which |D| > 4|J| keeps
    below |J|: no finite parameter overflows.
    """
    validate_dynamics_regime(params)
    J, D, V0 = params.J, params.D, params.V0
    lo, hi = np.clip((config.K0 - 3 * config.dK0, config.K0 + 3 * config.dK0),
                     -math.pi / 2, math.pi / 2)
    # cos^2 K is largest at the window's K nearest 0 and smallest at its far end
    pair = sorted(D + 2 * J * (2 * J / D) * math.cos(k) ** 2
                  for k in (min(max(lo, 0.0), hi), max(abs(lo), abs(hi))))
    centre = math.copysign(math.hypot(V0, 2 * J), V0)
    capture = centre - 2 * abs(J), centre + 2 * abs(J)
    # at V0 = 0 no exciton is bound
    if V0 and capture[0] <= pair[1] and pair[0] <= capture[1]:
        e0 = 2 * params.E0
        raise RegimeError(
            f"wavepacket run at V0 = {V0:g} meets the capture band "
            f"[{e0 + capture[0]:.4g}, {e0 + capture[1]:.4g}] (one exciton bound to "
            f"the impurity, one free), which the projected run cannot see: the packet "
            f"spans [{e0 + pair[0]:.4g}, {e0 + pair[1]:.4g}]")


def init_wavepacket(config, modes):
    """Normalized Gaussian packet at t = t_start with positioning phase.

    A dK0 whose square overflows gives the flat packet.  ParameterError
    when the Gaussian underflows on every mode of the K grid or the
    phase is not finite.
    """
    r_off = config.r_offset
    if r_off is None:
        r_off = modes.group_velocity(config.K0) * config.t_start
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.exp(-0.5 * (modes.K - config.K0) ** 2 / np.square(config.dK0))
        u = g * np.exp(-1j * modes.K * r_off)
    weight = np.sum(g ** 2)
    if not (weight > 0.0 and np.isfinite(u).all()):
        raise ParameterError(f"packet has no finite weight on the K grid "
                             f"(K0 = {config.K0}, dK0 = {config.dK0}, "
                             f"r_offset = {r_off})")
    clipped = (g[0] ** 2 + g[-1] ** 2) / weight
    if clipped > 1e-6:
        warnings.warn(f"packet clipped by zone boundary: weight {clipped:.2e}")
    u /= np.linalg.norm(u)
    return WavepacketState(config.t_start, u)


def propagate(state, ph, t_target):
    """Spectral propagation u(t) = W exp(-i E (t - t0)) W^H u(t0), with
    (E, W) = ph.eigensystem() of a ProjectedHamiltonian or any SpectrumResult."""
    w, W = ph.eigensystem()
    phase = _phases(w, t_target - state.t)
    return WavepacketState(t_target, W @ (phase * (W.conj().T @ state.u)))


def _phases(w, dt):
    """exp(-i w dt), w and dt broadcast; NumericalError where w dt overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        wt = w * dt
    if not np.isfinite(wt).all():
        raise NumericalError(f"phase E (t - t0) overflows for |t - t0| up to "
                             f"{np.max(np.abs(dt)):.3g}")
    return np.exp(-1j * wt)


def energy_expectation(state, ph):
    return float(np.real(state.u.conj() @ ph.M @ state.u))


# ---------------------------------------------------------------------------
# real-space observables


def _split_forms(modes):
    """The real forms Q_imp, Q_anti and R of the module docstring for
    buffers of SPLIT_BUFFER sites, stacked row-wise into (3N, N), and
    the total weight of each mode, N sum_s fold(s) phi_K(s)^2.

    sum_r c(r) e^{i pi k r / N} over the 2N sites r is 2N times the
    inverse DFT of c, placed at r mod 2N, at frequency k mod 2N; it is
    real for even c and imaginary for odd c.  Kept in _SPLIT_FORMS, keyed
    weakly by the basis (the arrays hold no reference to it): a calibration
    and its run share them until run_trajectory drops them or the basis dies.
    """
    if modes in _SPLIT_FORMS:
        return _SPLIT_FORMS[modes]
    r, N = modes.r, modes.params.N
    s, phi = modes.s[modes.window], modes.phi[:, modes.window]
    fold = np.where(np.abs(s) == N // 2, 1.0, 2.0)
    c = np.array([np.abs(r) <= SPLIT_BUFFER,
                  np.abs(np.abs(r) - N) <= SPLIT_BUFFER,
                  np.where(r == N, 0, np.sign(r))], dtype=float)
    x = np.zeros((2, 3, 2 * N))
    for p in (0, 1):
        x[p][:, r % (2 * N)] = c * (r % 2 == p)
    d = 2 * N * np.fft.ifft(x)
    d = np.concatenate([d.real[:, :2], d.imag[:, 2:]], axis=1)
    dl = (modes.l_K[:, None] - modes.l_K[None, :]) % (2 * N)
    Q = np.zeros((3, N, N))
    for p in (0, 1):
        par = s % 2 == p
        Q += d[p][:, dl] * ((phi[:, par] * fold[par]) @ phi[:, par].T)
    return _SPLIT_FORMS.setdefault(modes, (Q.reshape(3 * N, N), N * (phi ** 2 @ fold)))


def realspace_amplitude(state, modes):
    """Psi(r, s) on the sublattice rectangle r in (-N, N], s in (-N, N).

    Each physical configuration appears at two grid slots (ring images);
    the 1/sqrt(N) prefactor makes the total grid weight exactly 1.
    """
    r, s, N = modes.r, modes.s, modes.params.N
    psi = (modes.cm_phase * state.u[None, :]) @ modes.phi   # (2N, 2N-1)
    return r, s, psi * (r[:, None] % 2 == s % 2) / math.sqrt(N)


def schmidt_weights(u, modes):
    """Eigenvalues of the trace-normalized CM density matrix, ascending.

    Computed from the two parity Gram blocks sum_K |u_K|^2 phi_K phi_K^T
    over the relative support |s| <= s_max (module docstring,
    _schmidt_support), and zero-padded to the 2N eigenvalues of rho;
    the cut moves none by more than about eps.
    """
    return _schmidt_weights(u, _parity_columns(modes))


def _parity_columns(modes):
    """phi's window columns of each parity of s over the relative support
    |s| <= s_max (_schmidt_support), column-major (the layout whose
    rounding the recorded references pin); a trajectory gathers them
    once for all its samples."""
    keep = _schmidt_support(modes)
    return [np.asfortranarray(modes.phi[:, keep[k::2]]) for k in (0, 1)]


def _schmidt_support(modes):
    """Window indices of the s with |s| <= s_max, ascending in s.

    s_max is the smallest cut, made from |s| = N/2 inward so that +-s
    drop together, whose dropped columns carry at most eps^2 of every
    mode's window weight.  The dropped diagonal of the PSD Gram blocks
    then holds at most eps^2 of their trace, so (|B_ss'|^2 <= B_ss B_s's')
    their dropped rows and columns have a Frobenius norm of at most
    sqrt(2) eps times the trace, and by Weyl's inequality no eigenvalue
    of the trace-normalized blocks moves by more.
    """
    a = np.abs(modes.s[modes.window])
    w = modes.phi[:, modes.window] ** 2
    cuts = np.arange(a.max() + 1)
    dropped = w @ (a[:, None] > cuts)               # (modes, cuts)
    fits = np.all(dropped <= np.finfo(float).eps ** 2 * w.sum(axis=1)[:, None],
                  axis=0)
    return modes.window[a <= cuts[fits][0]]


def _schmidt_weights(u, columns):
    w = np.abs(u) ** 2
    blocks = [(phi.T * w) @ phi for phi in columns]
    trace = sum(np.trace(b) for b in blocks)
    ev = np.concatenate([np.linalg.eigvalsh(b / trace) for b in blocks])
    if ev.min() < -1e-10:
        raise NumericalError(f"reduced density not PSD: min eig {ev.min():.2e}")
    return np.sort(np.concatenate([np.clip(ev, 0.0, None),
                                   np.zeros(2 * len(u) - len(ev))]))


def reduced_density(state, modes):
    """Trace-normalized CM density matrix rho on the 2N ring."""
    s = modes.s[modes.window]
    psi = ((modes.cm_phase * state.u[None, :]) @ modes.phi[:, modes.window]
           * (modes.r[:, None] % 2 == s % 2))
    rho = psi @ psi.conj().T
    rho /= np.real(np.trace(rho))
    return rho


def entropy(eigenvalues):
    """Von Neumann entropy in bits of a density matrix's eigenvalues;
    eigenvalues below the clip are dropped."""
    ev = np.asarray(eigenvalues)
    ev = ev[ev > ENTROPY_EIG_CLIP]
    return float(-np.sum(ev * np.log2(ev)))


def contrast(rho):
    """C(r, r') = |rho_rr'| / (|rho_rr + rho_r'r'| / 2); NaN where undefined."""
    d = np.real(np.diag(rho))
    den = 0.5 * np.abs(d[:, None] + d[None, :])
    out = np.full_like(den, np.nan)
    ok = den > CONTRAST_FLOOR
    out[ok] = np.abs(rho)[ok] / den[ok]
    return out


def fringe_visibility(profile, N):
    """(max - min)/(max + min) over interior fringe extrema near r = +-N.

    The sublattice structure puts almost all weight on one r-parity
    (a two-site comb); fringes are read off the dominant-parity
    subsequence so the comb does not masquerade as fringe contrast.
    A window with no interior local minimum on that subsequence
    (an unsplit packet passing through) scores zero: no fringes.
    """
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
    N = 80, whose impurity weight is 4/80) therefore passes however its
    sum rounds.
    """
    if max(imp - IMPURITY_WEIGHT_MAX, anti - ANTIPODE_WEIGHT_MAX) > SUM_ROUNDING:
        raise TimingError(f"partition ill-defined: {imp:.1%} at the impurity, "
                          f"{anti:.1%} at the antipode")


def split_ratio(state, modes, K0, strict=True):
    """(reflected, transmitted) probability on the two half-rings.

    A packet centred on K0 moves with the group velocity v_g(K0), so it
    arrives from the side r v_g(K0) < 0, and that half-ring counts as
    reflected; at v_g(K0) = 0 it is the half r < 0.

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
    forms, weights = _split_forms(modes)
    ab = np.stack([state.u.real, state.u.imag], axis=1)     # u = a + ib
    y = (forms @ ab).reshape(3, -1, 2)
    total = weights @ np.abs(state.u) ** 2
    imp, anti = np.sum(y[:2] * ab, axis=(1, 2)) / total
    sigma = 2.0 * (ab[:, 0] @ y[2, :, 1]) / total
    if modes.group_velocity(K0) < 0.0:     # arrives from r > 0
        sigma = -sigma
    refl, trans = 0.5 - 0.5 * sigma, 0.5 + 0.5 * sigma
    if strict:
        check_partition(imp, anti)
    return float(refl), float(trans)


def calibrate_v0(modes, overlap, u0, K0, target):
    """Impurity strength giving the target reflected fraction of the
    packet `u0` centred on K0, on the run's impurity-free `modes` and
    their impurity `overlap`.  G's gate maxima (hamiltonian_builder) and the
    split forms (_split_forms, which the recorded run reuses) are made once,
    and each trial V0 propagates with its real sector spectrum
    (diagonalize_projected), building no M.

    Bisection on |V0| in [0, |D|] with the sign opposite to D, until
    the bracket is narrower than 1e-12; reflection is measured at
    t = CALIBRATION_T.  target = 0 returns 0.  If |V0| = |D| reflects
    less than the target, that endpoint is returned with a warning; so
    is the bisection's result when the target is at or below the
    reflection at V0 = 0, or when it misses the target by more than
    CALIBRATION_TOL.

    The bisection is steered by one Brent root (steered_bisection): at
    and near the README packet a calibration builds 13-17 Hamiltonians,
    where evaluating every midpoint builds 45.  Its V0 is bit for bit
    that of evaluating every midpoint whenever reflected(|V0|) crosses
    the target once on [0, |D|].
    """
    if target == 0.0:
        return 0.0
    sgn = -np.sign(modes.params.D)
    v0_max = abs(modes.params.D)
    build = hamiltonian_builder(modes, overlap)

    @functools.cache
    def reflected(v0_abs):
        spectrum = diagonalize_projected(build(float(sgn * v0_abs)))
        u = propagate(u0, spectrum, CALIBRATION_T)
        # scan probes skip the timing gate: strong trial potentials leave
        # lingering weight near the impurity by design
        return split_ratio(u, modes, K0, strict=False)[0]

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


def run_trajectory(ph, state, config):
    """Propagate the packet `state` (at t_start) under `ph`; returns one
    TrajectorySample (t, S, norm, energy, reflected) per time of the
    config's grid, and drops the split forms of ph.modes (_split_forms).

    Every sample time comes from one product over the time grid,
    u(t) = W exp(-i E (t - t0)) W^H u(t0), as in propagate.
    """
    validate_dynamics_regime(ph.params)
    ts = np.arange(config.t_start, config.t_end + 1e-9, config.sample_dt)
    w, W = ph.eigensystem()
    c0 = W.conj().T @ state.u
    us = (_phases(w, (ts - state.t)[:, None]) * c0) @ W.T
    samples, columns = [], _parity_columns(ph.modes)
    for t, u in zip(ts, us):
        st = WavepacketState(float(t), u)
        try:
            refl, _ = split_ratio(st, ph.modes, config.K0)
        except TimingError:
            refl = math.nan
        samples.append(TrajectorySample(
            st.t, entropy(_schmidt_weights(u, columns)), st.norm,
            energy_expectation(st, ph), refl))
    _SPLIT_FORMS.pop(ph.modes, None)    # the snapshots after a run never read them
    return samples
