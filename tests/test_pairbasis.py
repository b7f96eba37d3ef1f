"""Full two-excitation diagonalization: ground truth and taxonomy."""

import math

import numpy as np
import pytest

from biximp import (ModeBasis, ModelParams, NumericalError, ParameterError,
                    RangeError, bic_energies, build_pair_hamiltonian,
                    diagonalize_full, find_bic_state, pairbasis)
from biximp.pairbasis import (PairBasis, classify_state, folded_amplitudes,
                              in_continuum, reflection_expectation,
                              schmidt_number)
from biximp.params import wrap_site


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


@pytest.mark.parametrize("N", (40, 60))
def test_sector_solver_peak_allocation(N):
    """Only the eigenvector matrix is L x L: the traced peak of one call
    stays below 2 x 8 L^2 bytes (3.5 x with the dense H and its checks,
    2.3 x if both blocks outlive their solve)."""
    import tracemalloc

    p = ModelParams(N=N, J=1.0, D=4.1, V0=8.0)
    L = N * (N - 1) // 2
    tracemalloc.start()
    try:
        diagonalize_full(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * 8 * L * L


def _tampered_entries(monkeypatch, tamper):
    """Feed diagonalize_full the entry list of N = 8 after `tamper`."""
    entries = pairbasis.pair_hamiltonian_entries

    def patched(params, basis=None):
        basis, diag, (rows, cols) = entries(params, basis)
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
    """Impurity-free spectra contain the analytic pair band to 1e-8."""
    for N in (8, 12, 40):
        p = ModelParams(N=N, J=1.0, D=4.1, V0=0.0)
        modes = ModeBasis(p, "exact")
        _, spec = diagonalize_full(p)
        for e in modes.energies:
            assert np.min(np.abs(spec.energies - e)) < 1e-8


def test_pair_band_matches_large_n_form():
    p = ModelParams(N=40, J=1.0, D=12.0, V0=0.0)
    modes = ModeBasis(p, "large_n")
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


def test_bic_strong_impurity_classification():
    p = ModelParams(N=40, J=1.0, D=4.1, V0=8.0)
    e1, _ = bic_energies(p)
    e_num, vec, cls = find_bic_state(p)
    assert abs(e_num - e1) < 1e-2
    assert cls.type == "fully_bound"
    assert cls.in_continuum
    assert cls.schmidt_number < 1.1
    assert cls.antisymmetric == pytest.approx(-1.0, abs=1e-6)


def test_bic_weak_impurity_entangled():
    p = ModelParams(N=40, J=1.0, D=4.1, V0=1.0)
    e1, _ = bic_energies(p)
    e_num, vec, cls = find_bic_state(p)
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


def test_reflection_operator_is_symmetry(fig2_params):
    basis, spec = diagonalize_full(fig2_params)
    for mu in (0, 100, 400, 779):
        val = reflection_expectation(spec.states[:, mu], basis)
        assert abs(val) <= 1.0 + 1e-9
    # P commutes with H: a non-degenerate bound state has definite parity,
    # and the doubly-bound in-band state sits in the antisymmetric sector
    p = fig2_params.replace(V0=8.0)
    _, vec, cls = find_bic_state(p)
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
