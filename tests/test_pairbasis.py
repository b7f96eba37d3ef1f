"""Full two-excitation diagonalization: ground truth and taxonomy."""

import math

import numpy as np
import pytest

from biximp import (ModelParams, NumericalError, ParameterError, RangeError,
                    bic_energies, build_pair_hamiltonian, diagonalize_full,
                    find_bic_state, pairbasis)
from biximp.pairbasis import (LOCALIZED_TAIL, SITE_CORE_MIN, PairBasis,
                              StateClassification, classify_state,
                              classify_states, folded_amplitudes, in_continuum,
                              reflection_expectation, schmidt_number)
from biximp.params import wrap_site
from biximp.projected import (TAIL_FRACTION_MAX, SpectrumResult, distance_profile,
                              fit_ring_decay)
from conftest import EighSpy, dense_scatter, modes_on


def test_basis_size_and_uniqueness():
    for N in (4, 8, 40):
        b = PairBasis(N)
        assert len(b) == N * (N - 1) // 2
        assert len(set(zip(b.m.tolist(), b.n.tolist()))) == len(b)
        assert np.all(b.m < b.n)


def _scalar_pairs(N):
    """Reference pair list and a scalar lookup that wraps both sites."""
    sites = range(-N // 2 + 1, N // 2 + 1)
    pairs = [(m, n) for m in sites for n in sites if m < n]
    index = {pq: i for i, pq in enumerate(pairs)}

    def locate(a, b):
        a, b = wrap_site(a, N), wrap_site(b, N)
        return None if a == b else index[(min(a, b), max(a, b))]
    return pairs, locate


@pytest.mark.parametrize("N", (4, 6, 40))
def test_pair_hamiltonian_matches_scalar_reference(N):
    """The array build equals a per-pair loop exactly; N = 4 wraps the
    neighbours of every pair."""
    p = ModelParams(N=N, J=0.7, D=-2.3, E0=0.4, V0=-1.9)
    pairs, locate = _scalar_pairs(N)
    ref = np.zeros((len(pairs), len(pairs)))
    for i, (m, n) in enumerate(pairs):
        adjacent = (n - m) % N in (1, N - 1)
        ref[i, i] = 2.0 * p.E0 + (p.D if adjacent else 0.0) \
            + p.V0 * ((m == 0) + (n == 0))
        for a, b in ((m + 1, n), (m - 1, n), (m, n + 1), (m, n - 1)):
            j = locate(a, b)
            if j is not None:
                ref[i, j] += p.J
    basis, H = build_pair_hamiltonian(p)
    assert list(zip(basis.m.tolist(), basis.n.tolist())) == pairs
    assert np.array_equal(H, ref)
    assert basis.locate(3, 3 + N) == -1


@pytest.mark.parametrize("N", (4, 8, 40))
def test_every_pair_fills_one_folded_slot(N):
    basis = PairBasis(N)
    vec = np.arange(1.0, len(basis) + 1)
    grid = folded_amplitudes(vec, basis)
    assert grid.shape == (2 * N, N // 2 + 1)
    assert np.count_nonzero(grid) == N * (N - 1) // 2
    assert np.array_equal(grid[basis.r + N - 1, basis.sigma], vec)
    for i, (m, n) in enumerate(zip(basis.m.tolist(), basis.n.tolist())):
        r, s = m + n, n - m
        if s > N // 2:
            r = r - N if r > 0 else r + N
            s = N - s
        assert (basis.r[i], basis.sigma[i]) == (r, s)
        assert basis.cm_dist[i] == min(abs(r), 2 * N - abs(r))


@pytest.mark.parametrize("N", (4, 8, 40))
def test_mirror_and_reflection_expectation(N):
    basis = PairBasis(N)
    assert np.array_equal(basis.mirror[basis.mirror], np.arange(len(basis)))
    pairs, locate = _scalar_pairs(N)
    vec = np.random.default_rng(N).standard_normal(len(basis))
    vec /= np.linalg.norm(vec)
    ref = 0.0
    for i, (m, n) in enumerate(pairs):
        j = locate(-n, -m)
        assert basis.mirror[i] == j
        ref += vec[i] * vec[j]
    assert abs(reflection_expectation(vec, basis) - ref) < 1e-14


def test_hamiltonian_symmetry_and_row_sums(fig2_params):
    basis, H = build_pair_hamiltonian(fig2_params)
    assert np.abs(H - H.T).max() == 0.0
    off = np.abs(H - np.diag(np.diag(H)))
    assert off.sum(axis=1).max() <= 4 * abs(fig2_params.J) + 1e-12


SIGN_CASES = [(sj * 1.0, sd * 4.1, sv * v0) for sj in (1, -1) for sd in (1, -1)
              for sv, v0 in ((1, 2.5), (-1, 2.5), (1, 0.0))]


@pytest.mark.parametrize("N", (4, 6, 8, 12, 40))
@pytest.mark.parametrize("J, D, V0", SIGN_CASES)
def test_sector_solver_is_full_eigensystem(N, J, D, V0):
    """The two P sectors together give the dense spectrum and an
    orthonormal eigenbasis of H in which every state has definite parity."""
    p = ModelParams(N=N, J=J, D=D, E0=0.3, V0=V0)
    basis, H = build_pair_hamiltonian(p)
    _, spec = diagonalize_full(p)
    w, U = spec.energies, spec.states
    assert U.shape == (len(basis), len(basis))
    assert np.all(np.diff(w) >= 0.0)
    assert np.abs(w - np.linalg.eigvalsh(H)).max() <= 1e-12
    assert np.abs(U.T @ U - np.eye(len(basis))).max() <= 1e-12
    assert np.linalg.norm(H @ U - U * w) <= 1e-10
    parity = np.einsum("ij,ij->j", U, U[basis.mirror])
    assert np.abs(np.abs(parity) - 1.0).max() <= 1e-12


def _dense_sector_blocks(H, P):
    """Reference fold of the dense H into the even and odd P blocks."""
    idx = np.arange(len(P))
    a, fixed = idx[idx < P], idx[idx == P]
    na = len(a)
    cross = H[np.ix_(a, P[a])]
    even_rows = np.concatenate((a, fixed))
    even = H[np.ix_(even_rows, even_rows)]
    odd = even[:na, :na] - cross
    even[:na, :na] += cross
    even[:na, na:] *= math.sqrt(2.0)
    even[na:, :na] *= math.sqrt(2.0)
    return even, odd


@pytest.mark.parametrize("N", (4, 6, 8, 12, 40))
@pytest.mark.parametrize("J, D, V0", SIGN_CASES)
def test_sector_blocks_equal_dense_fold(monkeypatch, N, J, D, V0):
    """The blocks scattered from the entry list are the dense fold, bit
    for bit, and the solver never builds the dense H."""
    p = ModelParams(N=N, J=J, D=D, E0=0.3, V0=V0)
    basis, H = build_pair_hamiltonian(p)
    blocks, eigh = [], np.linalg.eigh

    def spy(M):
        blocks.append(M.copy())
        return eigh(M)

    def no_dense(*_):
        raise AssertionError("dense pair Hamiltonian built")

    monkeypatch.setattr(np.linalg, "eigh", spy)
    monkeypatch.setattr(pairbasis, "build_pair_hamiltonian", no_dense)
    diagonalize_full(p)
    even, odd = _dense_sector_blocks(H, basis.mirror)
    assert len(blocks) == 2
    assert np.array_equal(blocks[0], even) and np.array_equal(blocks[1], odd)


@pytest.mark.parametrize("N", (8, 12, 20))
@pytest.mark.parametrize("J", (1.0, -1.0))
def test_columns_are_the_dense_scatter(monkeypatch, N, J):
    """columns(idx) of the pair spectrum equals, bit for bit, the columns
    idx of states and of the dense scatter of its two sector solves, for
    indices in any order.  V0 sits on the P-fixed pair (0, N/2)."""
    p = ModelParams(N=N, J=J, D=4.1 * J, E0=0.3, V0=2.5)
    spy = EighSpy()
    monkeypatch.setattr(np.linalg, "eigh", spy)
    basis, spec = diagonalize_full(p)
    idx, P = np.arange(len(basis)), basis.mirror
    a, fixed = idx[idx < P], idx[idx == P]
    (w0, y0), (w1, y1) = spy.results
    ref = dense_scatter(((w0, y0, fixed), (w1, y1, fixed[:0])), a, P[a])
    pick = np.random.default_rng(N).permutation(len(basis))[:len(basis) // 3]
    assert spec.columns(pick).tobytes() == ref[:, pick].tobytes()
    assert spec.states.tobytes() == ref.tobytes()
    assert spec.columns(pick).tobytes() == spec.states[:, pick].tobytes()


@pytest.mark.parametrize("N", (40, 60))
def test_sector_solver_peak_allocation(N):
    """No matrix is L x L: the traced peak of one call stays below one
    of 8 L^2 bytes, at 0.79 x (N = 40) and 0.76 x (N = 60).  With every
    eigenvector scattered into one L x L matrix it is 1.8 x, with the
    dense H and its checks 3.5 x."""
    import tracemalloc

    p = ModelParams(N=N, J=1.0, D=4.1, V0=8.0)
    L = N * (N - 1) // 2
    tracemalloc.start()
    try:
        diagonalize_full(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * L * L, peak / (8 * L * L)


def _tampered_entries(monkeypatch, tamper):
    """Feed diagonalize_full the entry list of N = 8 after `tamper`."""
    entries = pairbasis.pair_hamiltonian_entries

    def patched(params):
        basis, diag, (rows, cols) = entries(params)
        return (basis, *tamper(basis, diag.copy(), rows.copy(), cols.copy()))

    monkeypatch.setattr(pairbasis, "pair_hamiltonian_entries", patched)
    return ModelParams(N=8, J=1.0, D=4.1, V0=2.0)


def _off_centre(basis):
    return int(np.flatnonzero(basis.mirror != np.arange(len(basis)))[0])


def test_sector_solver_rejects_broken_reflection(monkeypatch):
    """An off-centre diagonal entry breaks [H, P] = 0: the sector split
    no longer holds, and the solver must say so instead of solving."""
    def tamper(basis, diag, rows, cols):
        diag[_off_centre(basis)] += 1e-6
        return diag, (rows, cols)

    p = _tampered_entries(monkeypatch, tamper)
    with pytest.raises(NumericalError, match="P commutator"):
        diagonalize_full(p)


def test_sector_solver_rejects_nan_diagonal(monkeypatch):
    """A NaN deviation fails the check instead of passing `dev > tol`."""
    def tamper(basis, diag, rows, cols):
        diag[_off_centre(basis)] = math.nan
        return diag, (rows, cols)

    p = _tampered_entries(monkeypatch, tamper)
    with pytest.raises(NumericalError, match="P commutator nan"):
        diagonalize_full(p)


def test_sector_solver_rejects_dropped_hop(monkeypatch):
    """One hop without its transpose: H is no longer symmetric."""
    p = _tampered_entries(monkeypatch,
                          lambda basis, diag, rows, cols: (diag, (rows[1:], cols[1:])))
    with pytest.raises(NumericalError, match="asymmetry"):
        diagonalize_full(p)


def test_sector_solver_rejects_hop_without_mirror(monkeypatch):
    """A symmetric pair of hops between i and j whose P-image, between
    Pi and Pj, is missing: H stays symmetric but no longer commutes with P."""
    def tamper(basis, diag, rows, cols):
        i = _off_centre(basis)
        j = int(basis.locate(basis.m[i] + 2, basis.n[i] + 2))
        assert not np.any((rows == i) & (cols == j))
        return diag, (np.append(rows, (i, j)), np.append(cols, (j, i)))

    p = _tampered_entries(monkeypatch, tamper)
    with pytest.raises(NumericalError, match="P commutator"):
        diagonalize_full(p)


@pytest.mark.parametrize("J, match", ((math.inf, "hop value"), (math.nan, "hop value"),
                                      (1e308, "non-finite energies")))
def test_sector_solver_rejects_non_finite_entries(J, match):
    """A non-finite J, or a finite one whose sqrt2 J overflows in the even
    block, raises NumericalError instead of returning NaN energies."""
    with pytest.raises(NumericalError, match=match):
        diagonalize_full(ModelParams(N=8, J=J, D=4.1, V0=2.0))


def test_trace_identity():
    p = ModelParams(N=12, J=1.0, D=4.1, E0=0.3, V0=2.0)
    _, H = build_pair_hamiltonian(p)
    n_pairs = p.N * (p.N - 1) // 2
    expected = 2 * p.E0 * n_pairs + p.D * p.N + p.V0 * (p.N - 1)
    assert np.trace(H) == pytest.approx(expected, rel=1e-12)


def test_n4_free_spectrum_matches_quantization():
    """N=4, D=V0=0: pair energies follow 4 J cos K cos k with the free
    relative roots (cos 2k = 0 even branch, sin 2k = 0 odd branch)."""
    p = ModelParams(N=4, J=1.0, D=0.0, E0=0.0, V0=0.0)
    _, spec = diagonalize_full(p)
    analytic = []
    for K, parity in ((-np.pi / 4, 1), (0.0, 0), (np.pi / 4, 1), (np.pi / 2, 0)):
        roots = [np.pi / 4, 3 * np.pi / 4] if parity == 0 else [np.pi / 2]
        analytic += [4 * p.J * math.cos(K) * math.cos(k) for k in roots]
    np.testing.assert_allclose(np.sort(spec.energies), np.sort(analytic),
                               atol=1e-12)


def test_pair_band_matches_modes_exact():
    """Impurity-free spectra contain the analytic pair band to 1e-8, at
    |D| = 4|J|: the exact form's largest D from N = 40."""
    for N in (8, 12, 40):
        p = ModelParams(N=N, J=1.0, D=4.0, V0=0.0)
        modes = modes_on(p, "exact")
        _, spec = diagonalize_full(p)
        for e in modes.energies:
            assert np.min(np.abs(spec.energies - e)) < 1e-8


def test_pair_band_matches_large_n_form():
    p = ModelParams(N=40, J=1.0, D=12.0, V0=0.0)
    modes = modes_on(p, "large_n")
    _, spec = diagonalize_full(p)
    for e in modes.energies:
        assert np.min(np.abs(spec.energies - e)) < 1e-3


def test_bic_energy_values():
    p = ModelParams(N=40, J=1.0, D=4.1, V0=8.0)
    e1, e2 = bic_energies(p)
    disc = math.sqrt(4 + (4.1 - 8.0) ** 2)
    den = 2 * (4.1 * 8.0 - 1.0)
    assert e1 == pytest.approx(4.1 * 8.0 * (12.1 - disc) / den, rel=1e-14)
    assert e2 == pytest.approx(4.1 * 8.0 * (12.1 + disc) / den, rel=1e-14)
    assert e1 == pytest.approx(3.9799, abs=1e-4)
    assert e2 == pytest.approx(8.5006, abs=1e-4)
    # E0 offset enters as 2 E0
    e1s, _ = bic_energies(p.replace(E0=0.25))
    assert e1s == pytest.approx(e1 + 0.5, rel=1e-12)


def test_bic_band_membership_and_swap():
    p = ModelParams(N=40, J=1.0, D=4.1, V0=8.0)
    e1, e2 = bic_energies(p)
    assert in_continuum(e1, p) and not in_continuum(e2, p)
    pm = ModelParams(N=40, J=-1.0, D=-4.1, V0=-8.0)
    f1, f2 = bic_energies(pm)
    assert in_continuum(f2, pm) and not in_continuum(f1, pm)
    assert f1 == pytest.approx(-e2, rel=1e-12)
    assert f2 == pytest.approx(-e1, rel=1e-12)


def test_bic_singular_denominator():
    with pytest.raises(ParameterError):
        bic_energies(ModelParams(N=40, J=1.0, D=4.0, V0=0.25))
    # J^2 underflows to 0 = D V0: singular, not a division by zero
    with pytest.raises(ParameterError):
        bic_energies(ModelParams(N=40, J=1e-300, D=0.0, V0=2.0))


@pytest.mark.parametrize("J, D, V0, E0", ((1e200, 4.1, 8.0, 0.0),      # J^2 raises
                                          (1.0, 1e200, 1e200, 0.0),    # D V0 = inf
                                          (1.0, 4.1, 8.0, 1e308)))     # 2 E0 = inf
def test_bic_energies_out_of_range(J, D, V0, E0):
    with pytest.raises(RangeError):
        bic_energies(ModelParams(N=40, J=J, D=D, V0=V0, E0=E0))


def test_full_spectrum_contains_bic():
    p = ModelParams(N=40, J=1.0, D=4.1, V0=8.0)
    e1, _ = bic_energies(p)
    _, spec = diagonalize_full(p)
    assert np.min(np.abs(spec.energies - e1)) < 1e-2
    p = p.replace(V0=1.0)
    e1, _ = bic_energies(p)
    _, spec = diagonalize_full(p)
    assert np.min(np.abs(spec.energies - e1)) < 5e-2


def test_free_biexciton_classification():
    p = ModelParams(N=40, J=1.0, D=4.1, V0=0.0)
    basis, spec = diagonalize_full(p)
    mu = int(np.argmin(np.abs(spec.energies - 4.5)))   # inside pair band
    cls = classify_state(spec.energies[mu], spec.states[:, mu], p, basis)
    assert cls.type == "free_biexciton"
    assert cls.decay_s > 0.3


def classified_bic(p):
    """find_bic_state's (energy, vector) and the state's classification."""
    basis, spec = diagonalize_full(p)
    e_num, vec = find_bic_state(p, basis, spec)
    return e_num, vec, classify_state(e_num, vec, p, basis)


def test_bic_strong_impurity_classification():
    p = ModelParams(N=40, J=1.0, D=4.1, V0=8.0)
    e1, _ = bic_energies(p)
    e_num, vec, cls = classified_bic(p)
    assert abs(e_num - e1) < 1e-2
    assert cls.type == "fully_bound"
    assert cls.in_continuum
    assert cls.schmidt_number < 1.1
    assert cls.antisymmetric == pytest.approx(-1.0, abs=1e-6)


def test_bic_weak_impurity_entangled():
    p = ModelParams(N=40, J=1.0, D=4.1, V0=1.0)
    e1, _ = bic_energies(p)
    e_num, vec, cls = classified_bic(p)
    assert abs(e_num - e1) < 5e-2
    assert cls.schmidt_number > 1.1


def test_one_exciton_bound_band():
    """States with one pinned excitation live on a shifted one-particle band."""
    p = ModelParams(N=40, J=1.0, D=4.1, V0=8.0)
    basis, spec = diagonalize_full(p)
    e_pin = 2 * p.J * math.cosh(math.asinh(p.V0 / (2 * p.J)))
    lo, hi = e_pin - 2 * abs(p.J), e_pin + 2 * abs(p.J)
    found = 0
    for mu in range(len(spec)):
        e = spec.energies[mu]
        if lo + 0.1 < e < hi - 0.1 and not in_continuum(e, p):
            cls = classify_state(e, spec.states[:, mu], p, basis)
            if cls.type == "one_exciton_bound":
                found += 1
    assert found > 10


@pytest.mark.parametrize("share, pinned", [(0.27, False), (0.33, True)])
def test_site_core_share_pins_one_exciton(share, pinned):
    """A pair state bound in neither coordinate is one_exciton_bound when
    at least SITE_CORE_MIN (0.30) of its site occupation lies within 2
    sites of the impurity: at a core share of 0.33 it is, at 0.27 not.
    The state holds weight 2 share on the pair (0, 12), one site in the
    core, and the rest on (8, 20), far from the impurity in both
    coordinates, so its far-tail masses stay above TAIL_FRACTION_MAX."""
    p = ModelParams(N=40, J=1.0, D=4.1, V0=8.0)
    basis = PairBasis(p.N)
    vec = np.zeros(len(basis))
    vec[basis.locate(0, 12)], vec[basis.locate(8, 20)] = np.sqrt([2 * share, 1 - 2 * share])
    w = vec ** 2
    assert w[basis.cm_dist > p.N // 2].sum() > TAIL_FRACTION_MAX      # not bound in r
    assert w[basis.sigma > p.N // 4].sum() > TAIL_FRACTION_MAX        # not bound in s
    core = (np.abs(basis.m) <= 2).astype(float) + (np.abs(basis.n) <= 2)
    assert w @ core / 2 == pytest.approx(share)
    cls = classify_state(0.0, vec, p, basis)
    assert cls.type == ("one_exciton_bound" if pinned else "unclassified")


@pytest.mark.parametrize("share, localized", [(1e-11, True), (1e-9, False)])
def test_relative_decay_localized_below_tail_share(share, localized):
    """The relative decay rate is inf, with no fit, when at most
    LOCALIZED_TAIL (1e-10) of the relative profile lies at sigma >= 3:
    at a share of 1e-11 it is, at 1e-9 the fit's finite rate stands.
    The state holds weight 1 - share on the pair (0, 1) and share on
    (-1, 3), both within |r| <= 3 of the impurity, where the relative
    profile is taken."""
    p = ModelParams(N=40, J=1.0, D=4.1, V0=8.0)
    basis = PairBasis(p.N)
    vec = np.zeros(len(basis))
    vec[basis.locate(0, 1)], vec[basis.locate(-1, 3)] = np.sqrt([1 - share, share])
    assert basis.sigma[basis.locate(-1, 3)] == 4
    (cls,) = classify_states(np.zeros(1), vec[:, None], p, basis)
    assert math.isinf(cls.decay_s) == localized


@pytest.mark.parametrize("share, label", [(0.15, "one_exciton_bound"),
                                          (0.25, "cm_bound_pair")])
def test_one_exciton_share_near_the_impurity(share, label):
    """A state bound in r but not in s is one bound exciton when under
    0.2 of its far (sigma >= 8) weight lies within cm_dist 6 of the
    impurity, and a CM-bound pair otherwise.  All weight sits at
    sigma = 12: `share` on the pair (-6, 6) at r = 0, the rest on (-1, 11)
    at r = 10."""
    p = ModelParams(N=40, J=1.0, D=4.1, V0=8.0)
    basis = PairBasis(p.N)
    vec = np.zeros(len(basis))
    vec[basis.locate([-6, -1], [6, 11])] = np.sqrt([share, 1 - share])
    (cls,) = classify_states(np.zeros(1), vec[:, None], p, basis)
    assert cls.type == label


@pytest.mark.parametrize("far, label", [(1e-5, "one_exciton_bound"),
                                        (1e-7, "cm_bound_pair")])
def test_one_exciton_needs_far_weight(far, label):
    """The one-exciton share is read only when the far (sigma >= 8)
    weight exceeds 1e-6.  At N = 20 a state can leave the s-bound
    (sigma > 5) without it: weight at sigma = 6 on (-3, 3), and `far` on
    (0, 8), at cm_dist 8, none of it near the impurity."""
    p = ModelParams(N=20, J=1.0, D=4.1, V0=8.0)
    basis = PairBasis(p.N)
    vec = np.zeros(len(basis))
    vec[basis.locate([-3, 0], [3, 8])] = np.sqrt([1 - far, far])
    (cls,) = classify_states(np.zeros(1), vec[:, None], p, basis)
    assert cls.type == label


@pytest.mark.parametrize("delta, label", [(0.0, "unclassified-symmetric"),
                                          (1e-7, "unclassified-symmetric"),
                                          (1e-5, "unclassified")])
def test_unclassified_symmetry_cut(delta, label):
    """A state bound in neither coordinate and away from the impurity is
    "unclassified-symmetric" when <v|P|v> lies within 1e-6 of 1.  It
    holds a and b on the pair (5, 17) and its mirror (-17, -5), both at
    sigma = 12 and cm_dist 22, with a - b = sqrt(delta), so that
    <v|P|v> = 2ab = 1 - delta."""
    p = ModelParams(N=40, J=1.0, D=4.1, V0=8.0)
    basis = PairBasis(p.N)
    vec = np.zeros(len(basis))
    a, b = np.array([1.0, -1.0]) * math.sqrt(delta) / 2 + math.sqrt(2 - delta) / 2
    vec[basis.locate([5, -17], [17, -5])] = a, b
    (cls,) = classify_states(np.zeros(1), vec[:, None], p, basis)
    assert cls.antisymmetric == pytest.approx(1 - delta, abs=1e-12)
    assert cls.type == label


@pytest.mark.parametrize("tiny, want", [(1e-7, 2.0), (1e-9, 1.0)])
def test_schmidt_number_counts_each_block_above_its_norm_cut(tiny, want):
    """Each parity block above norm 1e-8 scores on its own: the even
    block holds one pair (Schmidt number 1), the odd one two pairs in
    distinct rows and columns with norm `tiny` (Schmidt number 2)."""
    basis = PairBasis(40)
    vec = np.zeros(len(basis))
    vec[basis.locate(0, 2)] = 1.0
    vec[basis.locate([0, 0], [1, 3])] = tiny / math.sqrt(2)
    assert schmidt_number(vec, basis) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("N", (40, 60))
def test_find_bic_state_on_the_candidates(N):
    """find_bic_state gives the same energy and vector bytes on bic's
    candidates (every state within 0.5 of E_b1 or E_b2, scattered once,
    as a SpectrumResult of their own) as on the full spectrum."""
    p = ModelParams(N=N, J=1.0, D=4.1, V0=8.0)
    basis, spec = diagonalize_full(p)
    e = spec.energies
    idx = np.flatnonzero(np.min([np.abs(e - eb) for eb in bic_energies(p)], axis=0) <= 0.5)
    U = spec.columns(idx)
    assert 0 < len(idx) < len(e)
    e_full, v_full = find_bic_state(p, basis, spec)
    e_sub, v_sub = find_bic_state(p, basis, SpectrumResult(e[idx], lambda k: U[:, k]))
    assert np.float64(e_sub).tobytes() == np.float64(e_full).tobytes()
    assert v_sub.tobytes() == v_full.tobytes()


def test_reflection_operator_is_symmetry(fig2_params):
    basis, spec = diagonalize_full(fig2_params)
    for mu in (0, 100, 400, 779):
        val = reflection_expectation(spec.states[:, mu], basis)
        assert abs(val) <= 1.0 + 1e-9
    # P commutes with H: a non-degenerate bound state has definite parity,
    # and the doubly-bound in-band state sits in the antisymmetric sector
    p = fig2_params.replace(V0=8.0)
    _, vec, cls = classified_bic(p)
    assert cls.antisymmetric == pytest.approx(-1.0, abs=1e-6)


def test_schmidt_product_state():
    """A synthetic product amplitude scores effective rank ~ 1."""
    N = 16
    basis = PairBasis(N)
    vec = np.zeros(len(basis))
    for i, (m, n) in enumerate(zip(basis.m.tolist(), basis.n.tolist())):
        r, s = m + n, n - m
        if s > N // 2:
            r = r - N if r > 0 else r + N
            s = N - s
        vec[i] = math.exp(-0.7 * abs(r)) * math.exp(-1.1 * s)
    vec /= np.linalg.norm(vec)
    assert schmidt_number(vec, basis) < 1.1


# ---------------------------------------------------------------------------
# batched classification against the per-state reference


def _fit_decay_reference(ds, ps, period_half, d_lo, d_hi):
    """One state's ring-aware decay rate: 0 without a usable fit, inf
    without a fit when at most LOCALIZED_TAIL of the weight lies at
    d >= d_lo."""
    tot = ps.sum()
    if tot <= 0:
        return 0.0
    tail = ps[ds >= d_lo].sum()
    if tail <= LOCALIZED_TAIL * tot:
        return math.inf
    return float(fit_ring_decay(ds, ps, period_half, d_lo=d_lo, d_hi=d_hi)[0])


def _schmidt_reference(vec, basis):
    """One state's Schmidt number from its folded grid, block by block."""
    grid = folded_amplitudes(vec, basis)
    ranks = []
    for par in (0, 1):
        M = np.ascontiguousarray(grid[1 - par::2, 2 - par::2])
        fro = np.linalg.norm(M)
        if fro < 1e-8:
            continue
        p = np.linalg.svd(M / fro, compute_uv=False) ** 2
        p = p[p > 1e-16]
        ranks.append(float(np.exp(-np.sum(p * np.log(p)))))
    return max(ranks) if ranks else 1.0


def classify_reference(energy, vec, params, basis):
    """The per-state classification that classify_states replaced: one
    state's tail masses, profiles, 1-D ring fits, site-occupation profile
    and Schmidt number, each on its own."""
    N = params.N
    w = vec * vec
    tot = w.sum()
    tail_r = w[basis.cm_dist > N // 2].sum() / tot
    tail_s = w[basis.sigma > N // 4].sum() / tot
    near_s = basis.sigma <= 2
    kr = _fit_decay_reference(*distance_profile(basis.cm_dist[near_s], w[near_s]),
                              N, d_lo=4, d_hi=N - 6)
    near_r = np.abs(basis.r) <= 3
    ks = _fit_decay_reference(*distance_profile(basis.sigma[near_r], w[near_r]),
                              N // 2, d_lo=3, d_hi=N // 2 - 3)
    r_bound = tail_r < TAIL_FRACTION_MAX
    s_bound = tail_s < TAIL_FRACTION_MAX
    sym = reflection_expectation(vec, basis)
    if r_bound and s_bound:
        label = "fully_bound"
    elif s_bound:
        label = "free_biexciton"
    elif r_bound:
        far = basis.sigma >= 8
        far_tot = w[far].sum()
        near0 = w[far & (basis.cm_dist <= 6)].sum()
        if far_tot > 1e-6 and near0 / far_tot < 0.2:
            label = "one_exciton_bound"
        else:
            label = "cm_bound_pair"
    else:
        x = np.abs(np.stack((basis.m, basis.n), axis=1).ravel())
        ds_x, ps_x = distance_profile(np.minimum(x, N - x), np.repeat(w, 2))
        if ps_x[ds_x <= 2].sum() / ps_x.sum() >= SITE_CORE_MIN:
            label = "one_exciton_bound"
        else:
            label = "unclassified"
    if label == "unclassified" and abs(sym - 1.0) < 1e-6:
        label = "unclassified-symmetric"
    return StateClassification(
        type=label, in_continuum=in_continuum(energy, params),
        schmidt_number=_schmidt_reference(vec, basis),
        decay_r=kr, decay_s=ks, antisymmetric=sym)


@pytest.fixture(scope="module")
def bic_candidates():
    """(params, basis, energies, states) per case: the states within 0.5
    of E_b1 or E_b2 at N = 40 and 60 and V0 = 1 and 8, as bic classifies
    them, and every state at N = 12.  At N = 12 every window is short
    (rate 0); the tightly bound D = 400, V0 = 1e4 states have localized
    tails (rate inf), and the unit vectors on single pairs zero-weight
    profiles (rate 0) as well."""
    cases = []
    for N, D, v0 in [(N, 4.1, v0) for N in (12, 40, 60) for v0 in (1.0, 8.0)] \
            + [(12, 400.0, 1e4)]:
        p = ModelParams(N=N, J=1.0, D=D, V0=v0)
        basis, spec = diagonalize_full(p)
        e = spec.energies
        near = np.minimum(*(np.abs(e - eb) for eb in bic_energies(p)))
        idx = np.arange(len(e)) if N == 12 else np.flatnonzero(near <= 0.5)
        cases.append((p, basis, e[idx], spec.states[:, idx]))
    L = len(basis)
    cases.append((p, basis, np.linspace(-5.0, 5.0, L), np.eye(L)))
    return cases


def _rel(a, b):
    return 0.0 if a == b else abs(a - b) / abs(b)


def test_classify_states_matches_reference(bic_candidates):
    """classify_states agrees with classify_reference on every candidate:
    labels and in_continuum identical, Schmidt numbers to 1e-12 and decay
    rates to 1e-9 relative.  The cases hold fitted rates, zero-weight and
    short-window profiles (rate 0) and localized tails (rate inf)."""
    rates, zero_weight = set(), 0
    for p, basis, energies, states in bic_candidates:
        got = classify_states(energies, states, p, basis)
        assert len(got) == len(energies)
        for j, cls in enumerate(got):
            ref = classify_reference(energies[j], states[:, j], p, basis)
            assert (cls.type, cls.in_continuum) == (ref.type, ref.in_continuum)
            assert _rel(cls.schmidt_number, ref.schmidt_number) <= 1e-12
            assert cls.antisymmetric == pytest.approx(ref.antisymmetric, abs=1e-12)
            for got_k, ref_k in ((cls.decay_r, ref.decay_r), (cls.decay_s, ref.decay_s)):
                assert got_k == ref_k or _rel(got_k, ref_k) <= 1e-9, (p, j)
                rates.add(0.0 if ref_k == 0 else math.inf if math.isinf(ref_k) else 1.0)
            w = states[:, j] ** 2
            zero_weight += not w[basis.sigma <= 2].any()
    assert rates == {0.0, 1.0, math.inf}
    assert zero_weight > 0


def test_classification_is_batch_invariant(bic_candidates):
    """Each state classified alone equals its classification in the full
    batch, bit for bit."""
    for p, basis, energies, states in bic_candidates:
        batch = classify_states(energies, states, p, basis)
        for j, cls in enumerate(batch):
            assert classify_state(energies[j], states[:, j], p, basis) == cls, (p, j)
