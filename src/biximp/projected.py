"""Impurity problem projected onto the biexciton band.

The impurity couples CM modes through the relative-coordinate average

    V_KK' = (4 V0 / N) sum_{s in (-N/2, N/2], s != 0}
            phi_K(s) phi_K'(s) e^{i(K'-K)s},

one period of the relative coordinate; this reproduces the exact
matrix element <Phi_K| V |Phi_K'> of the site-basis impurity (checked
against brute force, machine precision).  Diagonalizing
M = diag(E_b(K)) + V yields the scattering band plus impurity bound
states; a state counts as bound when its energy leaves the discrete
impurity-free band and its CM profile decays away from the impurity.

M is real symmetric: phi_K(s) is even in s, and the one unpaired term,
s = N/2, carries sin(pi (l' - l)/2) with K = pi l/N, which vanishes
because phi_K(N/2) = 0 for odd l and l' - l is even when both l are
even.  Spectra (bound-state counts, classification, poles) are
therefore solved in real arithmetic (diagonalize_projected), after a
check that Im M is at rounding level.  Propagation keeps the complex
solve (ProjectedHamiltonian.eigensystem): recorded N = 200 snapshot
contrasts are pinned tighter than the real solve's rounding moves them.

Bound-state profiles live on a ring of circumference 2N in the CM
coordinate r, so decay fits use the ring model
|Psi(d)|^2 ~ cosh(2 kappa (N - d)) with d the ring distance to the
impurity, fitted outward from the profile peak with a numerical-floor
cut-off.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .biexciton import ModeBasis
from .errors import ExistenceError, NumericalError, ParameterError
from .params import ModelParams
from .roots import fminbound

PROFILE_FLOOR = 1e-18    # relative |Psi|^2 floor: excludes eigensolver noise
CLASS_K_SPLIT = np.pi / 4
# localization gate: fraction of |Psi(r,1)|^2 beyond mid-ring.  A flat
# scattering profile carries ~0.5 there, bound profiles < 0.1; beating
# multi-component profiles defeat single-exponential fits but not this.
TAIL_FRACTION_MAX = 0.10


def impurity_overlap(modes):
    """V0-independent overlap G = B* B^T with B_Ks = phi_K(s) e^{iKs}.

    Depends on the basis only, so one G serves every V0 of a basis.
    """
    N = modes.params.N
    sel = (modes.s >= -N // 2 + 1) & (modes.s <= N // 2) & (modes.s != 0)
    B = modes.phi[:, sel] * np.exp(1j * np.outer(modes.K, modes.s[sel]))
    return B.conj() @ B.T


def potential_matrix(modes, params=None, overlap=None):
    """Hermitian N x N impurity coupling V = (4 V0 / N) G in the mode basis.

    Real phi and the symmetric one-period s window make V Hermitian by
    construction; V = 0 for V0 = 0.  `overlap` passes a prebuilt G.
    """
    p = modes.params if params is None else params
    G = impurity_overlap(modes) if overlap is None else overlap
    return (4.0 * p.V0 / p.N) * G


def _eigh(M):
    """np.linalg.eigh(M), with its failure raised as NumericalError."""
    try:
        return np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"projected Hamiltonian eigh: {exc}") from exc


@dataclass
class ProjectedHamiltonian:
    """M = diag(E_b) + V for `params`, with cached eigensystem."""

    modes: ModeBasis
    M: np.ndarray
    params: ModelParams
    _eig: tuple = field(default=None, repr=False)

    def eigensystem(self):
        """Complex eigh of M, cached; the propagation path.

        Spectra go through diagonalize_projected's real solve instead.
        The two stay apart because the recorded N = 200 snapshot
        contrasts are pinned at 1e-9 of their maximum and any
        rounding-level change to the solve moves them further: real
        eigh by 3.7e-9 and 5.8e-9 (t = 35, 54), a cos-sum G by 3.3e-9
        and 3.7e-9.  They merge once those references are re-recorded.
        """
        if self._eig is None:
            self._eig = _eigh(self.M)
        return self._eig


def build_projected_hamiltonian(params, modes=None, overlap=None):
    """M for `params`; a prebuilt basis (and its overlap) of the same D,
    J, E0 and N may be passed in, since neither depends on V0."""
    if modes is None:
        modes = ModeBasis(params)
    # an overflowing V0 leaves inf * 0 and inf - inf, NaN, which fails
    # the check below
    with np.errstate(invalid="ignore", over="ignore"):
        M = np.diag(modes.energies.astype(complex)) + potential_matrix(
            modes, params, overlap)
        herm = np.max(np.abs(M - M.conj().T))
    if not herm <= 1e-12 * abs(params.J):
        raise NumericalError(f"projected Hamiltonian not Hermitian: {herm:.2e}")
    return ProjectedHamiltonian(modes, M, params)


@dataclass
class SpectrumResult:
    """Eigenpairs of a Hermitian matrix."""

    energies: np.ndarray
    states: np.ndarray          # column i is eigenvector i

    def __len__(self):
        return len(self.energies)


def diagonalize_projected(ph):
    """Spectrum of M from a real symmetric eigh (see the module docstring).

    Raises NumericalError unless max |Im M| <= 1e-12 |J|, the bound of
    the Hermiticity check, or when eigh fails.
    """
    imag = np.max(np.abs(ph.M.imag))
    if not imag <= 1e-12 * abs(ph.params.J):    # a NaN fails too
        raise NumericalError(f"projected Hamiltonian not real: {imag:.2e}")
    return SpectrumResult(*_eigh(ph.M.real))


def cm_amplitude(u, modes, s_value=1):
    """Psi(r, s) = sum_K u_K e^{iKr} phi_K(s) on the extended r ring (-N, N]."""
    N = modes.params.N
    r = np.arange(-N + 1, N + 1)
    return r, modes.cm_phase @ (u * modes.phi[:, s_value + N - 1])


def ring_decay_profile(u, modes, s_value=1):
    """|Psi(r, s)|^2 binned by ring distance d = min(|r|, 2N - |r|).

    Only physical slots contribute: at odd s the CM coordinate r is odd.
    Returns (d, p) with d odd when s is odd.
    """
    N = modes.params.N
    r, psi = cm_amplitude(u, modes, s_value)
    keep = (r % 2) == (s_value % 2)
    return distance_profile(np.minimum(np.abs(r), 2 * N - np.abs(r))[keep],
                            np.abs(psi[keep]) ** 2)


def distance_profile(d, w):
    """Weights w summed per integer distance d; returns (ds, p) for the
    distances present, ds increasing."""
    ds = np.unique(d)
    return ds, np.bincount(d, weights=w)[ds]


def fit_ring_decay(ds, ps, N, d_lo=4, d_hi=None):
    """Fit ln p(d) = c + ln cosh(2 kappa (N - d)) on the decaying stretch.

    The window starts at max(d_lo, peak + 1), stops at the profile
    minimum within [.., d_hi] (default d_hi = N - 6; the tail past the
    minimum is wrap-around or admixture, not the decay law) and drops
    points below the relative numerical floor.  Node structure near the
    impurity biases the first points of antisymmetric states, so fits
    start at lo, lo + 2, ..., lo + 20; ds is sorted, so each start's
    window is a suffix of the one kept window, and a later start wins
    only with a strictly higher r^2.  Returns (kappa, r_squared);
    kappa = 0 when no usable fit exists.

    ln cosh overflows once 2 kappa (N - d) > 710.  A window whose
    objective is NaN at the minimizer's first trial point gets NaN r^2,
    which never wins, even where the window is flat (SST = 0); so every
    N = 400 bound state reports decay rate 0 (ROADMAP item 3: an
    overflow-free fit).
    """
    if d_hi is None:
        d_hi = N - 6
    pmax = ps.max()
    if pmax <= 0:
        return 0.0, 0.0
    d_peak = ds[int(np.argmax(np.where(ds <= N // 2, ps, -1.0)))]
    lo = max(d_lo, d_peak + 1)
    win = (ds >= lo) & (ds <= d_hi)
    if win.sum() < 4:
        return 0.0, 0.0
    d_min = ds[win][int(np.argmin(ps[win]))]
    keep = win & (ds <= d_min) & (ps > PROFILE_FLOOR * pmax)
    xs = ds[keep]
    nxs, ys = N - xs.astype(float), np.log(ps[keep])

    best = (0.0, 0.0)
    for start in range(lo, lo + 21, 2):
        k0 = int(np.searchsorted(xs, start))
        n = len(xs) - k0
        if n < 4:
            break
        nx, y = nxs[k0:], ys[k0:]

        def sse(kappa, nx=nx, y=y, n=n):
            z = y - np.log(np.cosh(2.0 * kappa * nx))
            z -= np.add.reduce(z) / n
            return float(np.add.reduce(z * z))

        kappa = fminbound(sse, 1e-6, 4.0, xtol=1e-10)
        err = sse(kappa)
        if math.isnan(err):     # NaN r^2, even for a flat window: never wins
            continue
        sst = sse(0.0)      # ln cosh 0 = 0 exactly: the flat model's SSE
        r2 = 1.0 - err / sst if sst > 0 else 1.0
        if r2 > best[1]:
            best = (kappa, r2)
    return best


@dataclass
class BoundStateRecord:
    label: str
    energy: float
    dominant_K: float
    re_K_class: str       # "near_zero" | "near_half_pi"
    decay_rate: float     # amplitude decay per site of |Psi(r, 1)|
    fit_r2: float
    state_index: int


def bound_candidates(spectrum, modes, params=None):
    """Yield (mu, ds, ps) for the states that pass both bound-state gates.

    A state is bound when its energy leaves the discrete impurity-free
    band and the far-tail mass of |Psi(r, 1)|^2 (beyond mid-ring) stays
    below TAIL_FRACTION_MAX; (ds, ps) is its ring decay profile.
    """
    p = modes.params if params is None else params
    lo, hi = modes.band_edges()
    tol = 1e-9 * abs(p.J)
    for mu in range(len(spectrum)):
        if lo - tol <= spectrum.energies[mu] <= hi + tol:
            continue
        ds, ps = ring_decay_profile(spectrum.states[:, mu], modes)
        if ps[ds > p.N // 2].sum() / ps.sum() > TAIL_FRACTION_MAX:
            continue
        yield mu, ds, ps


def classify_bound_states(spectrum, modes, params=None):
    """Bound-state records for the states that pass `bound_candidates`.

    The ring-model fit supplies the decay rate and its quality.  Labels
    follow the split ordering: states near K ~ 0 get a, b, c, ... by
    decreasing band split; states near |K| ~ pi/2 continue with e, f,
    ... as long as at most four near-zero states exist.
    """
    p = modes.params if params is None else params
    lo, hi = modes.band_edges()
    # |K| of the band edges: a state splits off the edge it is nearer to
    k_at_max = abs(float(modes.K[int(np.argmax(modes.energies))]))
    k_at_min = abs(float(modes.K[int(np.argmin(modes.energies))]))
    recs = []
    for mu, ds, ps in bound_candidates(spectrum, modes, p):
        e = spectrum.energies[mu]
        kappa, r2 = fit_ring_decay(ds, ps, p.N)
        w = np.abs(spectrum.states[:, mu]) ** 2
        dom = abs(float(modes.K[int(np.argmax(w))]))
        edge_k = k_at_max if e > hi else k_at_min
        cls = "near_zero" if edge_k < CLASS_K_SPLIT else "near_half_pi"
        recs.append(BoundStateRecord("", e, dom, cls, kappa, r2, mu))
    split = lambda r: max(lo - r.energy, r.energy - hi)
    near0 = sorted([r for r in recs if r.re_K_class == "near_zero"],
                   key=split, reverse=True)
    nearh = sorted([r for r in recs if r.re_K_class == "near_half_pi"],
                   key=split, reverse=True)
    for i, r in enumerate(near0):
        r.label = chr(ord("a") + i)
    for i, r in enumerate(nearh):
        r.label = chr(ord("a") + max(4, len(near0)) + i)
    return sorted(recs, key=lambda r: r.label)


def count_bound_states(params, modes=None, overlap=None):
    """Number of bound states; same gates as classify_bound_states, no fit."""
    ph = build_projected_hamiltonian(params, modes, overlap)
    spec = diagonalize_projected(ph)
    return sum(1 for _ in bound_candidates(spec, ph.modes, params))


def phase_diagram(d_values, v0_values, params_template):
    """Bound-state count per (D, V0) cell; solver failures yield -1.

    Every cell must satisfy |D| > 2|J|; V0 = 0 columns count zero.  One
    basis and impurity overlap per D row serve all its V0 cells.
    """
    for d in d_values:
        if abs(d) <= 2.0 * abs(params_template.J):
            raise ParameterError(f"phase diagram cell |D|={abs(d)} <= 2|J|")
    counts = np.full((len(d_values), len(v0_values)), -1, dtype=int)
    for i, d in enumerate(d_values):
        j_sign = abs(params_template.J) * np.sign(d)
        row = params_template.replace(D=float(d), J=float(j_sign))
        try:
            modes = ModeBasis(row)
        except (NumericalError, ExistenceError):
            # just above |D| = 2|J| the odd-branch pairing root can be
            # absent at finite N: the whole row keeps the sentinel
            continue
        G = impurity_overlap(modes)
        for j, v in enumerate(v0_values):
            try:
                counts[i, j] = count_bound_states(row.replace(V0=float(v)),
                                                  modes, G)
            except NumericalError:
                pass        # Hermiticity or reality check failed: keeps -1
    return counts


def participation_ratio(u, modes, s_value=1):
    """Inverse participation ratio of |Psi(r, s)|^2 over physical r slots."""
    N = modes.params.N
    r, psi = cm_amplitude(u, modes, s_value)
    keep = (r % 2) == (s_value % 2)
    w = np.abs(psi[keep]) ** 2
    w = w / w.sum()
    return 1.0 / float(np.sum(w ** 2))
