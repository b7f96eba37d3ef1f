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
from dataclasses import dataclass

import numpy as np

from .errors import ExistenceError, NumericalError, ParameterError, RangeError
from .params import wrap_site
from .projected import (STACK_BYTES, TAIL_FRACTION_MAX, checked_eigh,
                        distance_profile, fit_ring_decay, sector_spectrum)

LOCALIZED_TAIL = 1e-10
SITE_CORE_MIN = 0.30     # occupation within 2 sites of the impurity
BIC_WINDOW = 0.05        # find_bic_state's half-width around the closed form


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


def pair_hamiltonian_entries(params):
    """The pair Hamiltonian as O(N^2) entries: (basis, diag, (rows, cols)).

    `diag` holds H[i, i]; each hop (rows[k], cols[k]) has the value J.
    """
    N = params.N
    basis = PairBasis(N)
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


def build_pair_hamiltonian(params):
    """Dense real symmetric Hamiltonian over the pair basis."""
    basis, diag, hops = pair_hamiltonian_entries(params)
    H = np.zeros((len(basis), len(basis)))
    H[np.diag_indices(len(basis))] = diag
    np.add.at(H, hops, params.J)
    return basis, H


def diagonalize_full(params):
    """All eigenpairs of the pair Hamiltonian, solved in the two sectors of P.

    The impurity sits on site 0, so the reflection P: (m, n) -> (-n, -m)
    commutes with H.  Each pair i < mirror[i] spans the even state
    (|i> + |Pi>)/sqrt2 and the odd state (|i> - |Pi>)/sqrt2; the
    P-fixed pairs (m = -n, and (0, N/2)) are even.  The even block is
    H[i, j] + H[i, Pj] (sqrt2 H[i, f] towards a fixed pair f, H[f, f']
    between fixed pairs), the odd block H[i, j] - H[i, Pj].

    No L x L matrix is built, neither H nor its eigenvectors: the O(N^2)
    entries of `pair_hamiltonian_entries` are scattered straight into
    the blocks through a slot map.  A pair i < Pi and its mirror Pi share
    one slot, and the odd block gives the mirror the sign -1; the fixed
    pairs take the slots after them.  An entry between a free and a
    fixed pair carries sqrt2, and the row of a fixed pair takes only its
    hops to pairs i < Pi.  The even block is built, solved and freed
    before the odd one.  Its SpectrumResult (projected.sector_spectrum)
    scatters only the columns a caller reads, each <v|P|v> = +-1, even
    first at an exact tie.  Traced peak: 3.8 MB (N = 40), 19.1 MB (60).

    Before any solve, the entries are checked in O(N^2): J is finite,
    the hop set equals its transpose (H symmetric) and its P-image, and
    the diagonal is P-invariant to 1e-12 max(1, |J|) ([H, P] = 0).  A
    NaN fails each check.  Raises NumericalError when a check fails or
    eigh fails or returns a non-finite energy.
    """
    basis, diag, (rows, cols) = pair_hamiltonian_entries(params)
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
    w_even, y_even = checked_eigh(even, "pair Hamiltonian")
    del even         # freed before the odd block is built
    o = rep[r] & ~fix[c]
    odd = np.zeros((na, na))
    np.add.at(odd, (slot[r[o]], slot[c[o]]), np.where(img[c[o]], -1.0, 1.0) * v[o])
    w_odd, y_odd = checked_eigh(odd, "pair Hamiltonian")
    return basis, sector_spectrum(((w_even, y_even, fixed), (w_odd, y_odd, fixed[:0])),
                                  a, P[a], "pair Hamiltonian")


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


@dataclass
class StateClassification:
    type: str                 # free_biexciton | cm_bound_pair |
    #                           one_exciton_bound | fully_bound | unclassified*
    in_continuum: bool
    schmidt_number: float
    decay_r: float
    decay_s: float
    antisymmetric: float      # <v|P|v>, -1 antisym / +1 sym


def schmidt_number(vec, basis):
    """Effective rank exp(H(sigma^2)) of the folded amplitude matrix of
    one state: _schmidt_numbers of the one column."""
    return float(_schmidt_numbers(vec[:, None], basis)[0])


def _schmidt_numbers(states, basis):
    """Schmidt number of each column of `states`.

    Computed per (r, s) parity block on the fundamental separation
    window; the maximum over blocks is reported, so a genuine product
    state scores ~1 in spite of the sublattice structure.  A block is
    a contiguous (k, N, c) stack, one SVD call for all columns; each
    matrix keeps its own norm (one dot, as np.linalg.norm) and its own
    entropy sum over the singular values above the cut, so a state
    scores the same alone as in any stack.
    """
    N, k = basis.N, states.shape[1]
    best = np.full(k, -np.inf)      # no block above the norm cut: 1
    for par in (0, 1):
        # rows r + N - 1 and columns s of the folded grid with r, s of
        # parity par, i.e. the pairs with s of parity par
        on = basis.sigma % 2 == par
        M = np.zeros((k, N, len(range(2 - par, N // 2 + 1, 2))))
        M[:, (basis.r[on] + N - 2 + par) // 2, (basis.sigma[on] - 2 + par) // 2] = states[on].T
        fro = np.sqrt(np.matmul(M.reshape(k, 1, -1), M.reshape(k, -1, 1))[:, 0, 0])
        used = fro >= 1e-8
        p = np.linalg.svd(M[used] / fro[used, None, None], compute_uv=False) ** 2
        cut = (p > 1e-16).sum(axis=1)       # p falls: the kept values lead each row
        plogp = p * np.log(np.where(p > 1e-16, p, 1.0))
        ent = np.empty(len(p))
        for m in set(cut.tolist()):
            ent[cut == m] = plogp[cut == m, :m].sum(axis=1)
        best[used] = np.maximum(best[used], np.exp(-ent))
    return np.where(best > -np.inf, best, 1.0)


def _fit_decays(ds, ps, N, d_lo, d_hi):
    """Ring-aware decay rate of each column of the profiles ps, in one
    fit_ring_decay call: 0 without a usable fit, inf without a fit when
    at most LOCALIZED_TAIL of a profile's weight lies at d >= d_lo."""
    rows = np.ascontiguousarray(ps.T)       # per-profile sums as for 1-D
    tot = rows.sum(axis=1)
    tail = np.compress(ds >= d_lo, rows, axis=1).sum(axis=1)
    kappa = fit_ring_decay(ds, ps, N, d_lo=d_lo, d_hi=d_hi)[0]
    return np.where(tot <= 0, 0.0, np.where(tail <= LOCALIZED_TAIL * tot, np.inf, kappa))


def classify_state(energy, vec, params, basis):
    """classify_states of the one state `vec` at `energy`."""
    return classify_states(np.array([energy]), vec[:, None], params, basis)[0]


def classify_states(energies, states, params, basis):
    """StateClassification of each column of `states` (eigenvector j at
    energies[j]): one of the four bound-state families, or unclassified.

    Binding in a coordinate is gated on its far-tail mass (robust
    against node structure and beating); the ring fits supply the decay
    rates.  A state bound in neither collective coordinate but with the
    occupation pinned at the impurity is a single bound exciton.

    All columns are classified in one array pass: one (k x L) weight
    array with a state per C-contiguous row (each tail mass the pairwise
    sum of a 1-D state), the CM and relative profiles of all states in
    one fit_ring_decay call each, one stacked SVD per parity block
    (_schmidt_numbers), and the site occupation only for the states
    bound in neither coordinate.  The columns go in chunks whose weights
    take at most STACK_BYTES / 2; the fits' and SVDs' arrays are of the
    same order.  Each state's arithmetic is its own, so it classifies
    the same, bit for bit, alone as in any batch.
    """
    N, L = params.N, len(basis)
    step = max(1, STACK_BYTES // (16 * L))
    near_s, near_r, far = basis.sigma <= 2, np.abs(basis.r) <= 3, basis.sigma >= 8
    site_core = np.add(np.abs(basis.m) <= 2, np.abs(basis.n) <= 2, dtype=float)
    out = []
    for c in range(0, states.shape[1], step):
        vecs = states[:, c:c + step]
        v = vecs.T.copy(order="C")     # one state a row, squared in place below
        sym = np.matmul(v[:, None, :], np.take(v, basis.mirror, axis=1)[:, :, None])[:, 0, 0]
        w = np.square(v, out=v)

        def mass(mask):     # per state: the pairwise sum of one state alone
            return np.compress(mask, w, axis=1).sum(axis=1)

        tot = w.sum(axis=1)
        r_bound = mass(basis.cm_dist > N // 2) / tot < TAIL_FRACTION_MAX
        s_bound = mass(basis.sigma > N // 4) / tot < TAIL_FRACTION_MAX
        prof_r = distance_profile(basis.cm_dist[near_s], w[:, near_s].T)
        prof_s = distance_profile(basis.sigma[near_r], w[:, near_r].T)
        # bound in r only: a pinned CM (mass stays near r = 0 at all
        # separations) or one pinned excitation (mass rides the
        # r = +-sigma diagonals, away from r = 0 at large sigma)
        far_tot, near0 = mass(far), mass(far & (basis.cm_dist <= 6))
        one = r_bound & ~s_bound & (far_tot > 1e-6)
        one[one] = near0[one] / far_tot[one] < 0.2
        # bound in neither: the share of the site occupation (m and n
        # each count once) within 2 sites of the impurity
        core = ~r_bound & ~s_bound
        core[core] = w[core] @ site_core / (2.0 * tot[core]) >= SITE_CORE_MIN
        del v, w
        label = np.select(
            [r_bound & s_bound, s_bound, one | core, r_bound, np.abs(sym - 1.0) < 1e-6],
            ["fully_bound", "free_biexciton", "one_exciton_bound", "cm_bound_pair",
             "unclassified-symmetric"], "unclassified")
        fields = (label, in_continuum(energies[c:c + step], params),
                  _schmidt_numbers(vecs, basis), _fit_decays(*prof_r, N, 4, N - 6),
                  _fit_decays(*prof_s, N // 2, 3, N // 2 - 3), sym)
        out += [StateClassification(*f) for f in zip(*(a.tolist() for a in fields))]
    return out


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


def find_bic_state(params, basis, spec):
    """Most doubly-localized eigenstate near the in-band closed-form energy.

    `spec` is a SpectrumResult of the pair Hamiltonian of `params` on
    `basis`: diagonalize_full's, or its part on increasing indices that
    holds every state within +-BIC_WINDOW of E_b1 (or E_b2 when that one
    is in band), with the same result; nothing here diagonalizes.  Those
    candidates are ranked by the probability mass near the impurity in
    both coordinates (separation <= 3, CM ring distance <= 8).  Returns
    (energy, vector); the caller classifies the state (classify_state).
    """
    e1, e2 = bic_energies(params)
    target = e1 if in_continuum(e1, params) else e2
    if not in_continuum(target, params):
        raise ExistenceError("neither closed-form energy lies in the continuum")
    cands = np.where(np.abs(spec.energies - target) < BIC_WINDOW)[0]
    if len(cands) == 0:
        raise NumericalError(f"no eigenvalue within {BIC_WINDOW} of {target:.6f}")
    U = spec.columns(cands)
    best = int(np.argmax((U[(basis.sigma <= 3) & (basis.cm_dist <= 8)] ** 2).sum(axis=0)))
    return spec.energies[cands[best]], U[:, best]
