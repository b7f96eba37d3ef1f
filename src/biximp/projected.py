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
even.  The impurity sits on site 0, so M also commutes with the CM
reflection P: u(l) -> s_l u(-l) on the l_K grid, with s_l = -1 only on
l = N/2 (K = pi/2, its own image) and l = 0 even.  One gate (_gates)
checks, from G's maxima and the O(N) diagonal of each V0, that M would
be finite, Hermitian, real and P-symmetric to rounding, and one fold
(_sector_stack) forms the two real N/2 x N/2 sector blocks of P from
(basis, G, V0): spectra (bound-state counts, classification, poles)
are solved from those blocks, for one V0 (diagonalize_projected) or
for every V0 of a row in stacked solves (count_bound_states), and
build no N x N M, nor do calibration trials.  The recorded run
alone builds M and keeps the complex solve (ProjectedHamiltonian.
eigensystem): its N = 200 snapshot contrasts are pinned tighter than the
real solve's rounding moves them.

Bound-state profiles live on a ring of circumference 2N in the CM
coordinate r, so decay fits use the ring model
|Psi(d)|^2 ~ cosh(2 kappa (N - d)) with d the ring distance to the
impurity, fitted outward from the profile peak with a numerical-floor
cut-off.
"""

import contextlib
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .biexciton import ModeBasis
from .errors import ExistenceError, NumericalError, ParameterError

PROFILE_FLOOR = 1e-18    # relative |Psi|^2 floor: excludes eigensolver noise
CLASS_K_SPLIT = np.pi / 4
# localization gate, here and in pairbasis: fraction of a profile beyond
# mid-ring.  A flat scattering profile carries ~0.5 there, bound profiles
# < 0.1; beating multi-component profiles defeat single-exponential fits
# but not this.
TAIL_FRACTION_MAX = 0.10
KAPPA_MIN, KAPPA_MAX = 1e-6, 4.0    # range of a fitted decay rate
NEWTON_STEPS = 6        # cap on the fit's Newton steps
KAPPA_RTOL = 1e-10      # a fit row stops once its step is this small
# the bounded Brent search's first trial point on [KAPPA_MIN, KAPPA_MAX],
# kept only for the pin gate of fit_ring_decay
PIN_KAPPA = KAPPA_MIN + 0.5 * (3.0 - math.sqrt(5.0)) * (KAPPA_MAX - KAPPA_MIN)
STACK_BYTES = 1 << 22   # the arrays of one stacked sector solve


def impurity_overlap(modes):
    """V0-independent overlap G = B* B^T with B_Ks = phi_K(s) e^{iKs}.

    Depends on the basis only, so one G serves every V0 of a basis.  The
    s window is (-N/2, N/2] without s = 0.  The phase is evaluated on
    s > 0 only: column -s is the conjugate of column s, bit for bit (as
    in ModeBasis.cm_phase, adding 0.0 keeps e^{i 0} at Im = +0.0).
    """
    cols = modes.window[modes.s[modes.window] != 0]
    right = np.exp(1j * np.outer(modes.K, np.arange(1, modes.params.N // 2 + 1)))
    phase = np.concatenate([right[:, -2::-1].conj() + 0.0, right], axis=1)
    B = modes.phi[:, cols] * phase
    return B.conj() @ B.T


def potential_matrix(params, overlap):
    """Hermitian N x N impurity coupling V = (4 V0 / N) G in the mode basis.

    Real phi and the symmetric one-period s window make V Hermitian by
    construction; V = 0 for V0 = 0.  `overlap` is G (impurity_overlap).
    """
    return (4.0 * params.V0 / params.N) * overlap


def checked_eigh(M, what="projected Hamiltonian"):
    """np.linalg.eigh(M), with its failure raised as NumericalError."""
    try:
        return np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} eigh: {exc}") from exc


@dataclass
class ProjectedHamiltonian:
    """The impurity V0 on the basis `modes` and its impurity `overlap` G;
    M = diag(E_b) + V is built only for the recorded run (eigensystem)."""

    modes: ModeBasis
    overlap: np.ndarray
    V0: float

    @functools.cached_property
    def params(self):
        return self.modes.params.replace(V0=self.V0)

    @functools.cached_property
    def M(self):
        return np.diag(self.modes.energies.astype(complex)) + potential_matrix(
            self.params, self.overlap)

    @functools.cached_property
    def _eigh(self):
        return checked_eigh(self.M)

    def eigensystem(self):
        """Complex eigh of M, cached; the recorded run's propagation path.

        Spectra and calibration trials use diagonalize_projected instead.
        The two stay apart because the recorded N = 200 snapshot
        contrasts are pinned at 1e-9 of their maximum and any
        rounding-level change to the solve moves them further: real
        eigh by 3.7e-9 and 5.8e-9 (t = 35, 54), a cos-sum G by 3.3e-9
        and 3.7e-9.  They merge once those references are re-recorded.
        """
        return self._eigh


def _gates(modes, overlap):
    """The function mapping V0 values to c = 4 V0 / N for each and the
    first gate that M = diag(E) + c G fails: "not finite", "not
    Hermitian", "not real" or "not P-symmetric" ("" where all pass).

    Each gate holds M's residual (M - M^H, Im M, M - PMP) to
    1e-12 max(|J|, max |M|), the rounding of M's entries.  G's maxima are
    read here, once (a G changed later needs a new _gates): off the
    diagonal each residual and max |M_ij| are |c| times G's, to rounding,
    while the diagonal E + c G_ii is formed per V0, O(N), as in M.  No M
    is built.  An overflowing V0 leaves M not finite.
    """
    image, s = _reflection(len(overlap))[:2]
    G = overlap.real
    g_off, p_off = np.abs(overlap), np.abs(G - s[:, None] * G.take(image, 0).take(image, 1) * s)
    np.fill_diagonal(g_off, 0.0)
    np.fill_diagonal(p_off, 0.0)
    g_max, g_diag = np.max(g_off), np.diagonal(overlap).copy()
    res = np.array([np.max(np.abs(overlap - overlap.conj().T)),
                    np.max(np.abs(overlap.imag)), np.max(p_off)])

    def gate(v0_values):
        with np.errstate(over="ignore", invalid="ignore"):
            c = 4.0 * np.asarray(v0_values, dtype=float) / len(overlap)
            diag = modes.energies + c[:, None] * g_diag
            big = np.column_stack((np.abs(c) * g_max, diag))
            dev = np.abs(c)[:, None] * res
            dev[:, 2] = np.maximum(dev[:, 2], np.max(np.abs(diag.real - diag.real[:, image]), axis=1))
            tol = 1e-12 * np.maximum(abs(modes.params.J), np.max(np.abs(big), axis=1))
            fails = [~np.isfinite(big).all(axis=1), *(~(dev <= tol[:, None])).T]
        return c, np.select(fails, ["not finite", "not Hermitian", "not real", "not P-symmetric"], "")
    return gate


def build_projected_hamiltonian(modes, overlap, V0):
    """The impurity V0 on the impurity-free basis `modes` and its impurity
    `overlap` G, after its _gates; its params are modes.params with this
    V0, and one basis and its G serve every V0.  Raises NumericalError
    naming the failed gate."""
    return hamiltonian_builder(modes, overlap)(V0)


def hamiltonian_builder(modes, overlap):
    """build_projected_hamiltonian as a function of V0 alone: G's gate
    maxima are read once, here, for all the trial V0 of a calibration."""
    gate = _gates(modes, overlap)

    def build(V0):
        (failed,) = gate([V0])[1]
        if failed:
            raise NumericalError(f"projected Hamiltonian at V0 = {V0}: {failed}")
        return ProjectedHamiltonian(modes, overlap, V0)
    return build


@dataclass
class SpectrumResult:
    """Eigenpairs, the one spectrum form of every solver: columns(idx) gives
    the eigenvectors idx as columns, and `states`, all of them, once."""

    energies: np.ndarray
    columns: Callable   # a dense solve slices its matrix, sector_spectrum scatters

    def __len__(self):
        return len(self.energies)

    @functools.cached_property
    def states(self):
        return self.columns(np.arange(len(self.energies)))

    def eigensystem(self):
        return self.energies, self.states


def _scatter(u, cols, y, sign, pairs, images, fix):
    """u[:, cols] = the sector eigenvectors y (rows as in sector_spectrum);
    sign (+1 even, -1 odd) and the fixed rows `fix` broadcast with cols."""
    half, na = math.sqrt(0.5), len(pairs)
    u[pairs[:, None], cols] = half * y[:na]
    u[images[:, None], cols] = sign * half * y[:na]
    u[fix, cols] = y[na:]


def sector_spectrum(sectors, pairs, images, what):
    """All eigenpairs of a real symmetric matrix that commutes with a
    reflection P, from the eigenpairs of its two sector blocks.

    Each index a in `pairs` and its image P a in `images` (P|a> = |Pa>)
    span the even state (|a> + |Pa>)/sqrt2 and the odd state
    (|a> - |Pa>)/sqrt2; an index that P maps to +-itself spans one state
    of the even or the odd sector.  `sectors` is
    ((w, y, fixed) of the even block, (w, y, fixed) of the odd block):
    a block runs over its pair states, in the order of `pairs`, then the
    states of its indices `fixed`; (w, y) is its eigh.  The caller
    solves the blocks, so it decides how many live at once.  Energies are
    stably sorted, even first at an exact tie.  The result's column rule
    keeps the blocks' eigenvectors and scatters only the columns idx, each
    <v|P|v> = +-1, bit for bit as in any batch.  Raises NumericalError
    (prefixed with `what`) when an entry overflowed: an energy not finite.
    """
    w = np.concatenate([sec[0] for sec in sectors])
    if not np.isfinite(w).all():
        raise NumericalError(f"{what} eigh: non-finite energies")
    order = np.argsort(w, kind="stable")

    def columns(idx):
        src, n0 = order[idx], len(sectors[0][0])     # src >= n0: an odd column
        u = np.zeros((len(w), len(src)))
        for s, (sign, (_, y, fix)) in enumerate(zip((1.0, -1.0), sectors)):
            k = np.flatnonzero((src >= n0) == s)
            _scatter(u, k, y[:, src[k] - s * n0], sign, pairs, images, fix[:, None])
        return u
    return SpectrumResult(w[order], columns)


@functools.lru_cache(maxsize=None)
def _reflection(N):
    """The CM reflection P on the l_K grid, index i holding l = i - N/2 + 1.

    Returns (image, s, pairs, images, fixed): P u(l) = s_l u(-l) with
    u(-l) at index image[i]; the pairs are l = 1 .. N/2 - 1, their
    images l = -1 .. -(N/2 - 1), and fixed = (l = 0, l = N/2) adds one
    state to the even and one to the odd sector.
    """
    n = N // 2
    s = np.ones(N)
    s[-1] = -1.0            # l = N/2 is its own image
    return (np.arange(N - 2, -2, -1) % N, s, np.arange(n, N - 1),
            np.arange(n - 2, -1, -1), np.array([n - 1, N - 1]))


def _sector_stack(modes, overlap, c):
    """The even and odd N/2 x N/2 blocks of M = diag(E) + c G for each c
    of a 1-D array, a (k, 2, N/2, N/2) stack in sector_spectrum's order,
    bit for bit the blocks sliced from M.real's pair rows: so the part
    of M that breaks P is dropped.  A pair state a meets a pair state b
    with M_ab +- M_a(Pb), and a fixed state f with sqrt2 M_af; M_ab
    stays c G_ab, with E added on the diagonal as in M."""
    N = len(overlap)
    n, fixed = N // 2, _reflection(N)[4]
    G, c = overlap.real, c[:, None, None]
    pp, pm = c * G[n:N - 1, n:N - 1], c * G[n:N - 1, n - 2::-1]   # pair x pair, x image
    i = np.arange(n - 1)
    pp[:, i, i] += modes.energies[n:N - 1]
    blocks = np.empty((len(c), 2, n, n))
    np.add(pp, pm, out=blocks[:, 0, :-1, :-1])
    np.subtract(pp, pm, out=blocks[:, 1, :-1, :-1])
    fix = math.sqrt(2.0) * (c * G[n:N - 1, fixed]).swapaxes(1, 2)    # pair x fixed
    blocks[..., :-1, -1] = blocks[..., -1, :-1] = fix
    blocks[..., -1, -1] = c[:, 0] * G[fixed, fixed] + modes.energies[fixed]
    return blocks


def diagonalize_projected(ph):
    """Spectrum of the projected Hamiltonian `ph`, solved real and in the
    two sectors of the CM reflection P (see the module docstring and
    sector_spectrum), with no gate of its own: build_projected_hamiltonian
    ran them.

    Both N/2 x N/2 blocks (_sector_stack) are solved in one stacked eigh.
    Columns are sorted by energy, the even state first at an exact tie.
    Raises NumericalError when eigh fails or returns a non-finite energy.
    """
    N = len(ph.overlap)
    _, _, pairs, images, fixed = _reflection(N)
    w, y = checked_eigh(_sector_stack(ph.modes, ph.overlap, np.array([4.0 * ph.V0 / N]))[0])
    return sector_spectrum(((w[0], y[0], fixed[:1]), (w[1], y[1], fixed[1:])),
                           pairs, images, "projected Hamiltonian")


def cm_amplitude(u, modes):
    """Psi(r, 1) = sum_K u_K e^{iKr} phi_K(1) on the extended r ring (-N, N]."""
    return modes.r, modes.cm_phase @ (u * modes.phi[:, modes.params.N])


def ring_decay_profile(U, modes):
    """|Psi(r, 1)|^2 of each column of U binned by ring distance
    d = min(|r|, 2N - |r|), from one product.

    Only physical slots contribute: the CM coordinate r has the parity
    of s = 1, which is every other row of modes.cm_phase, read as a
    slice view.  Returns (ds, p): ds the odd distances, increasing, and
    column j of p the profile of column j of U.
    """
    N = modes.params.N
    rows = slice(0, None, 2)    # row i holds r = i - N + 1: r odd
    r = modes.r[rows]
    psi = modes.cm_phase[rows] @ (U * modes.phi[:, N, None])
    return distance_profile(np.minimum(np.abs(r), 2 * N - np.abs(r)),
                            np.abs(psi) ** 2)


def distance_profile(d, w):
    """Weights w summed per integer distance d, for 1-D w or for each
    column of 2-D w (row i at distance d[i]); returns (ds, p) for the
    distances present, ds increasing."""
    counts = np.bincount(d)
    p = np.zeros(counts.shape + w.shape[1:])
    np.add.at(p, d, w)
    return np.flatnonzero(counts), p[counts > 0]


def fit_ring_decay(ds, ps, N, d_lo, d_hi):
    """Fit ln p(d) = c + ln cosh(2 kappa (N - d)) on the decaying stretch,
    for a 1-D profile ps or for each column of a 2-D ps (row i at
    distance ds[i]), all columns in one solve.

    For each profile, the window starts at max(d_lo, peak + 1), stops at
    the profile minimum within [.., d_hi] (the tail past the minimum is
    wrap-around or admixture, not the decay law) and drops points below
    the profile's relative numerical floor.  Node structure near the
    impurity biases the first points of antisymmetric states, so fits
    start at lo, lo + 2, ..., lo + 20.  ds is sorted, so each start's
    window is a suffix of its profile's kept points: one row of an
    (S x P) 0/1 weight array, the rows of all profiles stacked.  A start
    with fewer than 4 points, or a flat window (total sum of squares
    SST = 0), gives no fit.  Returns (kappa, r_squared), per column for
    a 2-D ps: those of the column's first start with the best r^2, when
    that r^2 is positive; (0, 0) otherwise.  A row's arithmetic is its
    own, so a profile fits the same alone as in any stack.

    With a = 2 kappa |N - d| >= 0 (ln cosh is even) and e = exp(-2a),
    ln cosh a = a - ln 2 + ln(1 + e) never overflows, tanh a =
    (1 - e) / (1 + e) shares e, and -ln 2 drops out once c is fitted
    (the residual is centered on each window).  kappa starts at half
    the least-squares slope of ln p against N - d, then takes Newton
    steps on dSSE/dkappa, the Gauss-Newton step where the curvature is
    not positive, clipped to [KAPPA_MIN, KAPPA_MAX]: at most
    NEWTON_STEPS per row, and a row stops once its own step is below
    KAPPA_RTOL relative or the clip leaves its kappa where it is (a
    further step would repeat the same one).

    Pin gate: a start whose window overflows np.cosh(2 PIN_KAPPA (N - d))
    gives no fit.  It only holds the recorded benchmark references:
    they pin every N = 400 bound state at decay rate 0, because the
    bounded Brent search that made them tried PIN_KAPPA first, where
    cosh overflowed and its objective turned NaN.  The gate goes when
    the benchmark re-records those references (ROADMAP item 1).
    """
    cols = ps.reshape(len(ds), -1)
    d_peak = ds[np.argmax(np.where((ds <= N // 2)[:, None], cols, -1.0), axis=0)]
    lo = np.maximum(d_lo, d_peak + 1)
    win = (ds[:, None] >= lo) & (ds <= d_hi)[:, None]
    d_min = ds[np.argmin(np.where(win, cols, np.inf), axis=0)]
    keep = win & (ds[:, None] <= d_min) & (cols > PROFILE_FLOOR * cols.max(axis=0))
    # only points in [d_lo, d_hi] enter a window
    span = (ds >= d_lo) & (ds <= d_hi)
    xs, keep = ds[span], keep[span]
    x2 = 2.0 * np.abs(N - xs)       # a = kappa x2
    y = np.log(np.where(keep, cols[span], 1.0)).T
    offsets = np.arange(0, 21, 2)           # starts lo, lo + 2, ..., lo + 20
    starts = (lo[:, None] + offsets).ravel()
    prof = np.repeat(np.arange(cols.shape[1]), len(offsets))
    w = keep.T[prof] & (xs >= starts[:, None])
    with np.errstate(over="ignore"):        # the pin gate
        pinned = (w & ~np.isfinite(np.cosh(PIN_KAPPA * x2))).any(axis=1)
    rows = np.flatnonzero((w.sum(axis=1) >= 4) & ~pinned)
    w, y = w[rows], y[prof[rows]]
    n = w.sum(axis=1, keepdims=True)

    def centered(v):        # in place: v minus its window mean, 0 outside
        v *= w
        v -= v.sum(axis=1, keepdims=True) / n
        v *= w
        return v

    def clipped(kappa):
        return np.minimum(np.maximum(kappa, KAPPA_MIN), KAPPA_MAX)

    def residual(kappa):    # centered ln p - ln cosh a on the live rows, and e
        a = kappa[:, None] * x2
        e = np.exp(-2.0 * a)
        a += np.log1p(e)
        return centered(np.subtract(y, a, out=a)), e

    yc, xc = centered(w * y), centered(w * x2)
    sst = (yc * yc).sum(axis=1)
    kappa = clipped((xc * yc).sum(axis=1) / (xc * xc).sum(axis=1))
    del yc, xc              # the fit's peak memory is its S x P arrays
    sse, live = np.empty(len(rows)), np.arange(len(rows))
    z, e = residual(kappa)
    for _ in range(NEWTON_STEPS):
        # d ln cosh a / d kappa, centered: z sums to 0 on each window,
        # so it gives the gradient as well as the Gauss-Newton curvature
        dfc = centered(x2 * ((1.0 - e) / (1.0 + e)))
        gauss_newton = (dfc * dfc).sum(axis=1)
        sech2 = np.multiply(e, 4.0 / (1.0 + e) ** 2, out=e)     # e is spent
        curv = gauss_newton - (z * sech2 * x2 * x2).sum(axis=1)
        step = (z * dfc).sum(axis=1) / np.where(curv > 0, curv, gauss_newton)
        now, nxt = kappa[live], clipped(kappa[live] + step)
        done = (np.abs(step) <= KAPPA_RTOL * now) | (nxt == now)
        sse[live[done]] = (z[done] * z[done]).sum(axis=1)
        go = ~done
        live, y, w, n = live[go], y[go], w[go], n[go]
        if not live.size:
            break
        kappa[live] = nxt[go]
        z, e = residual(kappa[live])
    else:                   # rows still stepping at the cap
        sse[live] = (z * z).sum(axis=1)
    r2, kap = np.full(len(prof), -np.inf), np.zeros(len(prof))
    with np.errstate(invalid="ignore", divide="ignore"):
        r2[rows] = np.where(sst > 0, 1.0 - sse / sst, -np.inf)
    kap[rows] = kappa
    # each profile's first start with the best r^2: its rows are in start order
    best = np.argmax(r2.reshape(-1, len(offsets)), axis=1) + np.arange(0, len(prof), len(offsets))
    good = r2[best] > 0
    return tuple(np.where(good, v[best], 0.0).reshape(ps.shape[1:])[()] for v in (kap, r2))


@dataclass
class BoundStateRecord:
    label: str
    energy: float
    dominant_K: float
    re_K_class: str       # "near_zero" | "near_half_pi"
    decay_rate: float     # amplitude decay per site of |Psi(r, 1)|
    fit_r2: float
    state_index: int


def bound_candidates(spectrum, modes):
    """(mu, ds, ps) for the states that pass both bound-state gates.

    A state is bound when its energy leaves the discrete impurity-free
    band (ModeBasis.out_of_band) and the far-tail mass of |Psi(r, 1)|^2
    (beyond mid-ring) stays below TAIL_FRACTION_MAX.  mu holds their
    state indices, increasing, and column j of ps the ring decay
    profile of state mu[j] at distances ds; the profiles of all
    out-of-band states come from one ring_decay_profile product.
    """
    out = np.flatnonzero(modes.out_of_band(spectrum.energies))
    ds, ps = ring_decay_profile(spectrum.columns(out), modes)
    tail = ps[ds > modes.params.N // 2].sum(axis=0) / ps.sum(axis=0)
    bound = ~(tail > TAIL_FRACTION_MAX)
    return out[bound], ds, ps[:, bound]


def classify_bound_states(spectrum, modes):
    """Bound-state records for the states that pass `bound_candidates`.

    The ring-model fit supplies the decay rate and its quality, for all
    candidates in one fit_ring_decay call.  Labels follow the split
    ordering: states near K ~ 0 get a, b, c, ... by decreasing band
    split; states near |K| ~ pi/2 continue with e, f, ... as long as at
    most four near-zero states exist.  Equal splits keep state order.
    """
    p = modes.params
    hi = modes.band_edges()[1]
    # |K| of the band edges: a state splits off the edge it is nearer to
    k_at_max = abs(float(modes.K[int(np.argmax(modes.energies))]))
    k_at_min = abs(float(modes.K[int(np.argmin(modes.energies))]))
    mus, ds, ps = bound_candidates(spectrum, modes)
    kappa, r2 = fit_ring_decay(ds, ps, p.N, 4, p.N - 6)
    e = spectrum.energies[mus]
    dom = np.abs(modes.K[np.argmax(np.abs(spectrum.columns(mus)) ** 2, axis=0)])
    near0 = np.where(e > hi, k_at_max, k_at_min) < CLASS_K_SPLIT
    # label order: near-zero states first, each class by decreasing split
    order = np.argsort(-modes.band_split(e), kind="stable")
    order = np.concatenate((order[near0[order]], order[~near0[order]]))
    n0 = int(near0.sum())
    gap = max(4 - n0, 0)    # the first near-pi/2 label is e or later
    return [BoundStateRecord(chr(ord("a") + k + gap * (k >= n0)), e[i], float(dom[i]),
                             "near_zero" if near0[i] else "near_half_pi",
                             float(kappa[i]), float(r2[i]), int(mus[i]))
            for k, i in enumerate(order)]


def count_bound_states(modes, overlap, v0_values):
    """Bound-state count for each V0 of a row, on `modes` and their
    `overlap` G, with the gates of classify_bound_states and no fit; -1
    where a gate or eigh fails or an energy is not finite.

    Each cell keeps its own _gates result, and no M is built.  The
    passing cells' sector blocks (_sector_stack) are solved in chunks
    whose arrays take at most STACK_BYTES: per cell its two blocks, the
    fold's pair temporaries and the eigenvectors, each 16 (N/2)^2 bytes.
    Only the out-of-band eigenvectors are scattered onto the l_K grid, by
    sector_spectrum's scatter, and gated by bound_candidates, in one
    ring_decay_profile product per chunk.
    """
    N = len(overlap)
    _, _, pairs, images, fixed = _reflection(N)
    c, failed = _gates(modes, overlap)(v0_values)
    counts = np.full(len(c), -1)
    cells = np.flatnonzero(failed == "")
    step = max(1, STACK_BYTES // (3 * 16 * (N // 2) ** 2))
    for chunk in np.split(cells, range(step, len(cells), step)):
        w, y = _stack_eigh(_sector_stack(modes, overlap, c[chunk]))
        finite = np.isfinite(w).all(axis=(1, 2))
        cell, sector, j = np.nonzero(modes.out_of_band(w) & finite[:, None, None])
        y = y[cell, sector, :, j].T
        U = np.zeros((N, len(cell)))
        _scatter(U, np.arange(len(cell)), y, 1.0 - 2.0 * sector, pairs, images, fixed[sector])
        bound = bound_candidates(SpectrumResult(w[cell, sector, j], lambda k: U[:, k]), modes)[0]
        counts[chunk[finite]] = np.bincount(cell[bound], minlength=len(w))[finite]
    return counts


def _stack_eigh(blocks):
    """np.linalg.eigh of a (k, ...) stack of blocks, or cell by cell when
    the stacked solve fails; a cell whose own eigh fails gets NaN energies."""
    try:
        return np.linalg.eigh(blocks)
    except np.linalg.LinAlgError:
        w, y = np.full(blocks.shape[:-1], np.nan), np.zeros_like(blocks)
    for k in range(len(blocks)):
        with contextlib.suppress(np.linalg.LinAlgError):
            w[k:k + 1], y[k:k + 1] = np.linalg.eigh(blocks[k:k + 1])
    return w, y


def phase_diagram(d_values, v0_values, params_template):
    """Bound-state count per (D, V0) cell; solver failures yield -1.

    Every cell must satisfy |D| > 2|J|; V0 = 0 columns count zero.  One
    impurity-free basis and overlap per D row serve all its V0 cells,
    which are counted together (count_bound_states): one stacked sector
    solve per row, each cell with its own gates, so a failing cell
    keeps -1 alone.  The template's V0 is unused.
    """
    for d in d_values:
        if abs(d) <= 2.0 * abs(params_template.J):
            raise ParameterError(f"phase diagram cell |D|={abs(d)} <= 2|J|")
    counts = np.full((len(d_values), len(v0_values)), -1, dtype=int)
    for i, d in enumerate(d_values):
        j_sign = abs(params_template.J) * np.sign(d)
        try:
            modes = ModeBasis(params_template.replace(D=float(d), J=float(j_sign)))
        except (NumericalError, ExistenceError):
            # just above |D| = 2|J| the odd-branch pairing root can be
            # absent at finite N: the whole row keeps the sentinel
            continue
        counts[i] = count_bound_states(modes, impurity_overlap(modes), v0_values)
    return counts


def participation_ratio(u, modes):
    """Inverse participation ratio of |Psi(r, 1)|^2 over physical r slots."""
    r, psi = cm_amplitude(u, modes)
    keep = (r % 2) == 1
    w = np.abs(psi[keep]) ** 2
    w = w / w.sum()
    return 1.0 / float(np.sum(w ** 2))
