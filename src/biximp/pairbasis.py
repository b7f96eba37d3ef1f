"""Exact two-excitation sector: brute-force ground truth and bound-state taxonomy.

The basis is all ordered site pairs (m, n), m < n, on the ring window
[-N/2+1, N/2]; hard core holds by construction, so the dimension is
N(N-1)/2.  Hopping moves one excitation to an empty neighbour (periodic
wrap); the diagonal carries 2 E0, the nearest-neighbour attraction D and
the impurity V0 on pairs touching site 0.

Eigenstates fall into four families: pairs bound only in the relative
coordinate (free biexciton), pairs whose CM is pinned to the impurity
but internally unbound, states with a single excitation pinned, and
states bound in both coordinates.  The doubly-bound family admits the
closed-form energies

    E_{b1,b2} = 2 E0 + D V0 (D + V0 -+ sqrt(4 J^2 + (D - V0)^2))
                / (2 (D V0 - J^2)),

one of which generically sits inside the two-exciton continuum
[2 E0 - 4|J|, 2 E0 + 4|J|]: a bound state in the continuum.  The same
energies follow from an antisymmetric product ansatz sin(K_a r) phi(s)
with complex CM wavevector cos K_a = sqrt(D (E - 2 E0 - D)) / 2J, on
either the imaginary axis or the line Re K_a = pi/2; the finite-N
correction to K_a is exponentially small in N.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ExistenceError, NumericalError, ParameterError, RangeError
from .params import wrap_site
from .projected import SpectrumResult, distance_profile, fit_ring_decay

SCHMIDT_FACTORIZED = 1.1  # effective rank below this counts as factorized
LOCALIZED_TAIL = 1e-10
TAIL_BOUND_MAX = 0.10    # far-tail mass gate for binding in a coordinate
SITE_CORE_MIN = 0.30     # occupation within 2 sites of the impurity


class PairBasis:
    """Ordered site pairs (m, n), m < n, with their folded coordinates.

    Every per-pair array runs in pair order (`np.triu_indices` over the
    site window).  The folded coordinates place each pair once on the
    (r, sigma) grid: sigma = n - m and r = m + n, except that a pair
    with n - m > N/2 is re-expressed through the wrapped ordering,
    sigma = N - (n - m) and r - N for r > 0, r + N otherwise.  `cm_dist` is
    the CM ring distance min(|r|, 2N - |r|) and `mirror` the index of
    each pair's image under the reflection P: (m, n) -> (-n, -m).
    """

    def __init__(self, N):
        self.N = N
        i, j = np.triu_indices(N, 1)
        self.m, self.n = i - N // 2 + 1, j - N // 2 + 1
        r, s = self.m + self.n, self.n - self.m
        wrapped = s > N // 2
        self.r = np.where(wrapped, np.where(r > 0, r - N, r + N), r)
        self.sigma = np.where(wrapped, N - s, s)
        self.cm_dist = np.minimum(np.abs(self.r), 2 * N - np.abs(self.r))
        self.mirror = self.locate(-self.n, -self.m)

    def __len__(self):
        return len(self.m)

    def locate(self, a, b):
        """Pair index of sites a, b wrapped onto the ring; -1 where they coincide."""
        N = self.N
        i = wrap_site(np.asarray(a), N) + N // 2 - 1
        j = wrap_site(np.asarray(b), N) + N // 2 - 1
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        return np.where(lo == hi, -1, lo * N - lo * (lo + 1) // 2 + hi - lo - 1)


def pair_hamiltonian_entries(params, basis=None):
    """The pair Hamiltonian as O(N^2) entries: (basis, diag, (rows, cols)).

    `diag` holds H[i, i]; each hop (rows[k], cols[k]) has the value J.
    """
    N = params.N
    basis = basis or PairBasis(N)
    m, n = basis.m, basis.n
    ringsep = (n - m) % N
    adjacent = (ringsep == 1) | (ringsep == N - 1)
    # m < n, so at most one excitation sits on the impurity
    diag = 2.0 * params.E0 + np.where(adjacent, params.D, 0.0) \
        + params.V0 * ((m == 0) | (n == 0))
    # one excitation hops to a neighbour; a hop onto the other is blocked
    rows = np.tile(np.arange(len(basis)), 4)
    cols = basis.locate(np.concatenate((m + 1, m - 1, m, m)),
                        np.concatenate((n, n, n + 1, n - 1)))
    hop = cols >= 0
    return basis, diag, (rows[hop], cols[hop])


def build_pair_hamiltonian(params, basis=None):
    """Dense real symmetric Hamiltonian over the pair basis."""
    basis, diag, hops = pair_hamiltonian_entries(params, basis)
    H = np.zeros((len(basis), len(basis)))
    H[np.diag_indices(len(basis))] = diag
    np.add.at(H, hops, params.J)
    return basis, H


def diagonalize_full(params, basis=None):
    """All eigenpairs of the pair Hamiltonian, solved in the two sectors of P.

    The impurity sits on site 0, so the reflection P: (m, n) -> (-n, -m)
    commutes with H.  Each pair i < mirror[i] spans the even state
    (|i> + |Pi>)/sqrt2 and the odd state (|i> - |Pi>)/sqrt2; the
    P-fixed pairs (m = -n, and (0, N/2)) are even.  The even block is
    H[i, j] + H[i, Pj] (sqrt2 H[i, f] towards a fixed pair f, H[f, f']
    between fixed pairs), the odd block H[i, j] - H[i, Pj].

    No dense H is built, and no L x L matrix but the eigenvectors: the
    O(N^2) entries of `pair_hamiltonian_entries` are scattered straight
    into both blocks through a slot map.  A pair i < Pi and its mirror
    Pi share one slot, and the odd block gives the mirror the sign -1;
    the fixed pairs take the slots after them.  An entry between a free
    and a fixed pair carries sqrt2, and the row of a fixed pair takes
    only its hops to pairs i < Pi.  Each block is solved with eigh; the
    eigenvectors are scattered back onto the pair basis and all
    eigenpairs stably sorted by energy, so every column has
    <v|P|v> = +-1 and at an exact tie the even state comes first.

    Before any solve, the entries are checked in O(N^2): J is finite,
    the hop set equals its transpose (H symmetric) and its P-image, and
    the diagonal is P-invariant to 1e-12 max(1, |J|) ([H, P] = 0).  A
    NaN fails each check.  Raises NumericalError when a check fails or
    eigh fails or returns a non-finite energy.
    """
    basis, diag, (rows, cols) = pair_hamiltonian_entries(params, basis)
    L, P = len(basis), basis.mirror
    if not math.isfinite(params.J):
        raise NumericalError(f"pair Hamiltonian hop value J = {params.J}")
    hop_keys = np.sort(rows * L + cols)
    for what, (r, c) in (("asymmetry", (cols, rows)),
                         ("P commutator", (P[rows], P[cols]))):
        if not np.array_equal(np.sort(r * L + c), hop_keys):
            raise NumericalError(f"pair Hamiltonian {what}: hop set not closed")
    dev = np.max(np.abs(diag[P] - diag))
    if not dev <= 1e-12 * max(1.0, abs(params.J)):
        raise NumericalError(f"pair Hamiltonian P commutator {dev:.2e} on the diagonal")

    idx = np.arange(L)
    rep, img, fix = idx < P, idx > P, idx == P
    a, fixed = idx[rep], idx[fix]
    na = len(a)
    slot = np.empty(L, dtype=np.intp)
    slot[a] = slot[P[a]] = np.arange(na)
    slot[fixed] = na + np.arange(len(fixed))
    r = np.concatenate((rows, idx))
    c = np.concatenate((cols, idx))
    v = np.concatenate((np.full(len(rows), params.J), diag))
    # a mirror's row repeats its representative's, and a fixed pair's
    # row takes only its hops to representatives
    e = ~(img[r] | fix[r] & img[c])
    even = np.zeros((L - na, L - na))
    np.add.at(even, (slot[r[e]], slot[c[e]]),
              np.where(fix[r[e]] != fix[c[e]], math.sqrt(2.0), 1.0) * v[e])
    o = rep[r] & ~fix[c]
    odd = np.zeros((na, na))
    np.add.at(odd, (slot[r[o]], slot[c[o]]), np.where(img[c[o]], -1.0, 1.0) * v[o])
    try:
        w_even, y_even = np.linalg.eigh(even)
        w_odd, y_odd = np.linalg.eigh(odd)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"pair Hamiltonian eigh: {exc}") from exc
    del even, odd    # free both blocks before the L x L eigenvector matrix
    w = np.concatenate((w_even, w_odd))
    if not np.isfinite(w).all():    # an entry overflowed in the blocks
        raise NumericalError("pair Hamiltonian eigh: non-finite energies")
    order = np.argsort(w, kind="stable")
    col = np.empty_like(order)
    col[order] = idx
    c_even, c_odd = col[:len(w_even)], col[len(w_even):]
    u = np.zeros((L, L))
    half = math.sqrt(0.5)
    u[np.ix_(a, c_even)] = half * y_even[:na]
    u[np.ix_(P[a], c_even)] = half * y_even[:na]
    u[np.ix_(fixed, c_even)] = y_even[na:]
    u[np.ix_(a, c_odd)] = half * y_odd
    u[np.ix_(P[a], c_odd)] = -half * y_odd
    return basis, SpectrumResult(w[order], u)


def reflection_expectation(vec, basis):
    """<v| P |v> for the site reflection P: (m, n) -> (-n, -m)."""
    return float(vec @ vec[basis.mirror])


def in_continuum(energy, params):
    return abs(energy - 2.0 * params.E0) <= 4.0 * abs(params.J)


# ---------------------------------------------------------------------------
# coordinate profiles


def folded_amplitudes(vec, basis):
    """Pair amplitudes on the folded (r, sigma) grid of shape (2N, N/2 + 1).

    Row r + N - 1 holds CM coordinate r in [-N+1, N] and column sigma
    the ring separation in [0, N/2]; each pair fills its one slot and
    the rest of the grid is zero.
    """
    N = basis.N
    grid = np.zeros((2 * N, N // 2 + 1))
    grid[basis.r + N - 1, basis.sigma] = vec
    return grid


def _fit_decay(ds, ps, period_half, d_lo, d_hi):
    """Ring-aware decay fit; returns (rate, r2), and (inf, 1) without a
    fit when at most LOCALIZED_TAIL of the weight lies at d >= d_lo."""
    tot = ps.sum()
    if tot <= 0:
        return 0.0, 0.0
    tail = ps[ds >= d_lo].sum()
    if tail <= LOCALIZED_TAIL * tot:
        return math.inf, 1.0
    m = (ds >= d_lo) & (ds <= d_hi) & (ps > 1e-12 * ps.max())
    if m.sum() < 4:
        return 0.0, 0.0
    return fit_ring_decay(ds, ps, period_half, d_lo=d_lo, d_hi=d_hi)


@dataclass
class StateClassification:
    type: str                 # free_biexciton | cm_bound_pair |
    #                           one_exciton_bound | fully_bound | unclassified*
    in_continuum: bool
    schmidt_number: float
    decay_r: float
    decay_s: float
    antisymmetric: float      # <v|P|v>, -1 antisym / +1 sym
    diagnostics: dict = field(default_factory=dict)


def schmidt_number(vec, basis):
    """Effective rank exp(H(sigma^2)) of the folded amplitude matrix.

    Computed per (r, s) parity block on the fundamental separation
    window; the maximum over blocks is reported, so a genuine product
    state scores ~1 in spite of the sublattice structure.
    """
    grid = folded_amplitudes(vec, basis)
    ranks = []
    for par in (0, 1):
        # rows r + N - 1 and columns s with r, s of parity par; a
        # contiguous copy keeps the norm and the SVD bit-stable
        M = np.ascontiguousarray(grid[1 - par::2, 2 - par::2])
        fro = np.linalg.norm(M)
        if fro < 1e-8:
            continue
        sv = np.linalg.svd(M / fro, compute_uv=False)
        p = sv ** 2
        p = p[p > 1e-16]
        ranks.append(float(np.exp(-np.sum(p * np.log(p)))))
    return max(ranks) if ranks else 1.0


def classify_state(energy, vec, params, basis):
    """Assign one of the four bound-state families (or unclassified).

    Binding in a coordinate is gated on its far-tail mass (robust
    against node structure and beating); the ring fits supply the decay
    rates.  A state bound in neither collective coordinate but with the
    occupation pinned at the impurity is a single bound exciton.
    """
    N = params.N
    w = vec * vec
    tot = w.sum()
    tail_r = w[basis.cm_dist > N // 2].sum() / tot
    tail_s = w[basis.sigma > N // 4].sum() / tot

    near_s = basis.sigma <= 2
    kr, r2r = _fit_decay(*distance_profile(basis.cm_dist[near_s], w[near_s]),
                         N, d_lo=4, d_hi=N - 6)
    near_r = np.abs(basis.r) <= 3
    ks, r2s = _fit_decay(*distance_profile(basis.sigma[near_r], w[near_r]),
                         N // 2, d_lo=3, d_hi=N // 2 - 3)

    r_bound = tail_r < TAIL_BOUND_MAX
    s_bound = tail_s < TAIL_BOUND_MAX

    sym = reflection_expectation(vec, basis)
    diag = {"tail_r": tail_r, "tail_s": tail_s, "r2_r": r2r, "r2_s": r2s}

    if r_bound and s_bound:
        label = "fully_bound"
    elif s_bound and not r_bound:
        label = "free_biexciton"
    elif r_bound and not s_bound:
        # distinguish a pinned CM (mass stays near r = 0 at all
        # separations) from one pinned excitation (mass rides the
        # r = +-sigma diagonals, away from r = 0 at large sigma)
        far = basis.sigma >= 8
        far_tot = w[far].sum()
        near0 = w[far & (basis.cm_dist <= 6)].sum()
        diag["cm_fraction_at_large_s"] = near0 / far_tot if far_tot > 0 else 1.0
        if far_tot > 1e-6 and near0 / far_tot < 0.2:
            label = "one_exciton_bound"
        else:
            label = "cm_bound_pair"
    else:
        # occupation vs site ring distance from the impurity, m then n
        x = np.abs(np.stack((basis.m, basis.n), axis=1).ravel())
        ds_x, ps_x = distance_profile(np.minimum(x, N - x), np.repeat(w, 2))
        core = ps_x[ds_x <= 2].sum() / ps_x.sum()
        diag["site_core"] = core
        if core >= SITE_CORE_MIN:
            label = "one_exciton_bound"
        else:
            label = "unclassified"
    if label == "unclassified" and abs(sym - 1.0) < 1e-6:
        label = "unclassified-symmetric"
    return StateClassification(
        type=label,
        in_continuum=in_continuum(energy, params),
        schmidt_number=schmidt_number(vec, basis),
        decay_r=kr, decay_s=ks, antisymmetric=sym, diagnostics=diag)


# ---------------------------------------------------------------------------
# doubly-bound closed forms


def bic_energies(params):
    """Closed-form doubly-bound energies (E_b1, E_b2), including 2 E0."""
    p = params
    try:
        den = 2.0 * (p.D * p.V0 - p.J ** 2)
        if abs(den) <= 1e-12 * p.J ** 2:
            raise ParameterError("D V0 = J^2: doubly-bound closed form singular")
        disc = math.sqrt(4.0 * p.J ** 2 + (p.D - p.V0) ** 2)
        e1 = 2.0 * p.E0 + p.D * p.V0 * (p.D + p.V0 - disc) / den
        e2 = 2.0 * p.E0 + p.D * p.V0 * (p.D + p.V0 + disc) / den
    except OverflowError as exc:
        raise RangeError(f"doubly-bound closed form: {exc}") from exc
    if not (math.isfinite(e1) and math.isfinite(e2)):
        raise RangeError(f"doubly-bound closed form not finite: {e1}, {e2}")
    return e1, e2


def find_bic_state(params, window=0.05):
    """Most doubly-localized eigenstate near the in-band closed-form energy.

    Candidates within +-window of E_b1 (or E_b2 when that one is in
    band) are ranked by the probability mass concentrated near the
    impurity in both coordinates (separation <= 3, CM ring distance
    <= 8).  Returns (energy, vector, classification).
    """
    e1, e2 = bic_energies(params)
    target = e1 if in_continuum(e1, params) else e2
    if not in_continuum(target, params):
        raise ExistenceError("neither closed-form energy lies in the continuum")
    basis, spec = diagonalize_full(params)
    cands = np.where(np.abs(spec.energies - target) < window)[0]
    if len(cands) == 0:
        raise NumericalError(f"no eigenvalue within {window} of {target:.6f}")
    core = (basis.sigma <= 3) & (basis.cm_dist <= 8)
    best = int(cands[np.argmax((spec.states[np.ix_(core, cands)] ** 2).sum(axis=0))])
    vec = spec.states[:, best]
    cls = classify_state(spec.energies[best], vec, params, basis)
    return spec.energies[best], vec, cls
