"""Projected impurity problem: V matrix oracle, bound-state counting."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from biximp import (ExistenceError, ModeBasis, ModelParams, NumericalError,
                    ParameterError, ProjectedHamiltonian, SpectrumResult,
                    build_projected_hamiltonian, classify_bound_states,
                    count_bound_states, diagonalize_projected,
                    impurity_overlap, pairbasis, phase_diagram,
                    potential_matrix, projected)
from biximp.cli import main
from biximp.pairbasis import build_pair_hamiltonian
from biximp.projected import (CLASS_K_SPLIT, PROFILE_FLOOR, BoundStateRecord,
                              bound_candidates, cm_amplitude, distance_profile,
                              fit_ring_decay, participation_ratio,
                              ring_decay_profile)
from conftest import EighSpy, dense_scatter, modes_on, projected_hamiltonian


def count_fresh(params):
    """count_bound_states of the one-V0 row params.V0, on a basis built
    for `params` alone."""
    modes = ModeBasis(params)
    (count,) = count_bound_states(modes, impurity_overlap(modes), [params.V0])
    return count


def dense_spectrum(w, U):
    """The SpectrumResult of a dense eigh (w, U): its column rule slices U."""
    return SpectrumResult(w, lambda idx: U[:, idx])


def count_reference(modes, G, V0):
    """Bound-state count of one cell, independent of the row counter and
    its gates: M built in full and gated on its own entries (M - M^H,
    Im M and M - PMP within 1e-12 max(|J|, max |M|)), a full eigh of
    M.real, then the band and tail gates (bound_candidates); -1 where a
    gate fails."""
    with np.errstate(all="ignore"):
        M = ProjectedHamiltonian(modes, G, V0).M
        A, P = M.real, reflection(modes.params.N)
        res = np.max([np.abs(M - M.conj().T).max(), np.abs(M.imag).max(),
                      np.abs(A - P @ A @ P).max()])
    if not res <= 1e-12 * max(abs(modes.params.J), np.abs(M).max()):
        return -1
    return len(bound_candidates(dense_spectrum(*np.linalg.eigh(A)), modes)[0])


def test_basis_is_impurity_free(fig2_params):
    """The basis drops the model's V0 and the Hamiltonian alone holds it:
    its params are the basis's with the V0 it was handed."""
    modes = ModeBasis(fig2_params)
    assert modes.params.V0 == 0.0
    assert modes.params == fig2_params.replace(V0=0.0)
    other = ModeBasis(fig2_params.replace(V0=-7.0))
    assert np.array_equal(modes.energies, other.energies)
    assert np.array_equal(modes.phi, other.phi)
    G = impurity_overlap(modes)
    for v in (4.0, -3.0, 0.0):
        ph = build_projected_hamiltonian(modes, G, v)
        assert ph.params == modes.params.replace(V0=v)
        assert ph.params.V0 == v


def test_v0_zero_matrix(fig2_params):
    p = fig2_params.replace(D=4.0)
    modes = modes_on(p, "exact")
    V = potential_matrix(p.replace(V0=0.0), impurity_overlap(modes))
    assert np.abs(V).max() == 0.0


def test_diagonal_sign_and_reality(fig2_params):
    p = fig2_params.replace(D=4.0)
    modes = modes_on(p, "exact")
    G = impurity_overlap(modes)
    for v0 in (4.0, -4.0):
        V = potential_matrix(p.replace(V0=v0), G)
        d = np.diag(V)
        assert np.abs(d.imag).max() < 1e-14
        assert np.all(np.sign(d.real) == np.sign(v0))


def test_brute_force_projection_oracle(fig2_params):
    """V_KK' equals the site-basis impurity projected onto the modes."""
    p = fig2_params.replace(D=4.0)
    modes = modes_on(p, "exact")
    V = potential_matrix(p, impurity_overlap(modes))
    basis, _ = build_pair_hamiltonian(p.replace(V0=0.0))
    vdiag = p.V0 * ((basis.m == 0).astype(float) + (basis.n == 0))
    C = modes.pair_amplitudes()
    V_exact = np.einsum("ip,p,jp->ij", C.conj(), vdiag, C)
    assert np.abs(V - V_exact).max() < 1e-10


def test_hermiticity_and_projection_residual(fig2_params):
    ph = projected_hamiltonian(fig2_params)
    assert np.abs(ph.M - ph.M.conj().T).max() < 1e-12
    spec = diagonalize_projected(ph)
    for mu in range(len(spec)):
        res = np.linalg.norm(ph.M @ spec.states[:, mu]
                             - spec.energies[mu] * spec.states[:, mu])
        assert res < 1e-8
    # eigenvectors orthonormal
    G = spec.states.conj().T @ spec.states
    assert np.abs(G - np.eye(len(spec))).max() < 1e-10


def test_v0_zero_spectrum_is_band(fig2_params):
    p = fig2_params.replace(V0=0.0)
    ph = projected_hamiltonian(p)
    spec = diagonalize_projected(ph)
    np.testing.assert_allclose(np.sort(spec.energies),
                               np.sort(ph.modes.energies), atol=1e-12)
    assert classify_bound_states(spec, ph.modes) == []


def test_fig2_multiplicities(fig2_params):
    """Sign-matched: four bound states near K~0; mismatched: two near pi/2."""
    for D, V0, expected, cls in ((4.1, 4.0, 4, "near_zero"),
                                 (-4.1, -4.0, 4, "near_zero"),
                                 (4.1, -4.0, 2, "near_half_pi"),
                                 (-4.1, 4.0, 2, "near_half_pi")):
        p = ModelParams(N=40, J=np.sign(D) * 1.0, D=D, E0=0.0, V0=V0)
        ph = projected_hamiltonian(p)
        spec = diagonalize_projected(ph)
        recs = classify_bound_states(spec, ph.modes)
        assert len(recs) == expected, (D, V0)
        assert all(r.re_K_class == cls for r in recs)


def test_fig2_localization_hierarchy(fig2_params):
    """a, b strongly localized; c, d loosely bound; labels by split."""
    ph = projected_hamiltonian(fig2_params)
    spec = diagonalize_projected(ph)
    recs = {r.label: r for r in classify_bound_states(spec, ph.modes)}
    assert set(recs) == {"a", "b", "c", "d"}
    assert min(recs["a"].decay_rate, recs["b"].decay_rate) \
        > 5 * max(recs["c"].decay_rate, recs["d"].decay_rate)
    assert recs["a"].fit_r2 >= 0.99 and recs["d"].fit_r2 >= 0.99


def test_bound_states_split_to_far_side(fig2_params):
    """Bound energies lie on the far side of the nearer band edge."""
    for v0 in (4.0, -4.0):
        ph = projected_hamiltonian(fig2_params.replace(V0=v0))
        spec = diagonalize_projected(ph)
        lo, hi = ph.modes.band_edges()
        for r in classify_bound_states(spec, ph.modes):
            assert r.energy > hi or r.energy < lo


def test_participation_ratio_invariant(fig2_params):
    ph = projected_hamiltonian(fig2_params)
    spec = diagonalize_projected(ph)
    recs = classify_bound_states(spec, ph.modes)
    bound_idx = {r.state_index for r in recs}
    pr_bound = [participation_ratio(spec.states[:, i], ph.modes)
                for i in bound_idx]
    pr_scatt = [participation_ratio(spec.states[:, i], ph.modes)
                for i in range(len(spec)) if i not in bound_idx]
    assert max(pr_bound) < min(pr_scatt)


def test_count_symmetry_at_large_d():
    pos = count_fresh(ModelParams(N=40, J=1.0, D=6.0, V0=5.0))
    neg = count_fresh(ModelParams(N=40, J=1.0, D=6.0, V0=-5.0))
    assert pos == neg == 2


def test_count_asymmetry_at_small_d():
    pos = count_fresh(ModelParams(N=40, J=1.0, D=2.1, V0=5.0))
    neg = count_fresh(ModelParams(N=40, J=1.0, D=2.1, V0=-5.0))
    assert pos != neg
    # frozen regression values for these cells
    assert (pos, neg) == (6, 3)


def test_phase_diagram_structure(fig2_params):
    d_vals = [4.1, 5.0]
    v_vals = [-4.0, 0.0, 4.0]
    counts = phase_diagram(d_vals, v_vals, fig2_params)
    assert counts.shape == (2, 3)
    assert np.all(counts[:, 1] == 0)          # V0 = 0 column
    assert np.all(counts >= 0)
    with pytest.raises(ParameterError):
        phase_diagram([1.5], v_vals, fig2_params)


def test_phase_diagram_refuses_d_at_two_j(fig2_params):
    """A D row with |D| = 2|J| is refused as a cell before any row is
    counted, not left to the basis of that row."""
    with pytest.raises(ParameterError, match="phase diagram cell"):
        phase_diagram([4.1, 2.0], [3.0], fig2_params)


def test_phase_diagram_sentinel_cell(fig2_params):
    """Just above |D| = 2|J| the odd pairing branch has no finite-N root;
    the cell records -1 and the scan continues."""
    counts = phase_diagram([2.02, 4.1], [3.0], fig2_params)
    assert counts[0, 0] == -1
    assert counts[1, 0] >= 0


def test_phase_diagram_plateau():
    """Counts are piecewise constant: tiny parameter shifts keep counts."""
    base = ModelParams(N=40, J=1.0, D=4.1, V0=4.0)
    c0 = count_fresh(base)
    for eps in (1e-4, -1e-4):
        assert count_fresh(base.replace(D=4.1 + eps)) == c0
        assert count_fresh(base.replace(V0=4.0 + eps)) == c0


def test_phase_diagram_matches_fresh_basis_per_cell():
    """Basis and overlap reuse per D row and the stacked row solve change
    no count: each cell equals the full-eigh reference on a basis built
    for it alone, at N = 40 and 100 and either sign of the template's J.
    The grid spans a J-sign flip, a -1 sentinel row, the V0 = 0 column
    and a second |D| (rows at +-D share one overlap, so only a new |D|
    exposes a stale one)."""
    d_vals = [-4.1, 2.02, 4.1, 6.0]
    v_vals = [-3.0, 0.0, 3.0]
    for N in (40, 100):
        for J in (1.0, -1.0):
            template = ModelParams(N=N, J=J, D=4.1)
            counts = phase_diagram(d_vals, v_vals, template)
            for i, d in enumerate(d_vals):
                try:
                    modes = ModeBasis(template.replace(D=d, J=float(np.sign(d))))
                except (NumericalError, ExistenceError):
                    assert list(counts[i]) == [-1] * len(v_vals), (N, J, d)
                    continue
                G = impurity_overlap(modes)
                want = [count_reference(modes, G, v) for v in v_vals]
                assert list(counts[i]) == want, (N, J, d)
            assert list(counts[1]) == [-1, -1, -1]
            assert list(counts[:, 1]) == [0, -1, 0, 0]


def test_row_stack_memory_is_bounded():
    """A 400-value row at N = 200 is solved in chunks of at most
    STACK_BYTES of blocks and eigenvectors: its traced peak stays under
    16 MiB (one unchunked stack would take 2 x 400 x 2 (N/2)^2 doubles,
    122 MiB), and its counts equal the per-cell reference across every
    chunk boundary."""
    N, v_vals = 200, np.linspace(-5.0, 5.0, 400)
    step = projected.STACK_BYTES // (2 * 2 * (N // 2) ** 2 * 8)
    assert 1 < step < len(v_vals)
    p = ModelParams(N=N, J=1.0, D=4.1)
    tracemalloc.start()
    try:
        counts = phase_diagram([4.1], v_vals, p)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20, peak / 2 ** 20
    modes = ModeBasis(p)
    G = impurity_overlap(modes)
    assert list(counts) == [count_reference(modes, G, v) for v in v_vals]


def test_overflowing_cell_fails_alone():
    """V0 = +-1e308 overflows 4 V0 / N: only those cells read -1, with no
    warning, and the rest of each row keeps its counts."""
    p = ModelParams(N=40, J=1.0, D=4.1)
    v_vals = [-3.0, 1e308, 3.0, -1e308, 0.5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = phase_diagram([4.1, 6.0], v_vals, p)
    finite = phase_diagram([4.1, 6.0], [-3.0, 3.0, 0.5], p)
    assert (counts[:, [1, 3]] == -1).all()
    assert np.array_equal(counts[:, [0, 2, 4]], finite)
    assert (finite >= 0).all()


def perturbed(G, gate, eps):
    """G plus a part of size eps max |G| on the pair states l = 1, 2 that
    breaks one gate of M = diag(E) + (4 V0 / N) G only: a real
    P-symmetric part that is not symmetric (Hermiticity), an imaginary
    Hermitian one (reality), or a real symmetric one that breaks P."""
    G = G.copy()
    N = len(G)
    i, j, pi, pj = N // 2, N // 2 + 1, N // 2 - 2, N // 2 - 3    # l = 1, 2, -1, -2
    e = eps * np.abs(G).max()
    if gate == "Hermitian":
        G[i, j] += e
        G[pi, pj] += e
    elif gate == "real":
        G[[i, j, pi, pj], [j, i, pj, pi]] += 1j * e * np.array([1, -1, 1, -1])
    else:
        G[i, j] += e
        G[j, i] += e
    return G


@pytest.mark.parametrize("gate", ("Hermitian", "real", "P-symmetric"))
def test_gate_failing_cell_fails_alone(monkeypatch, gate):
    """An overlap residual of 1e-9 max |G| passes a cell's gate at small
    |V0|, where |c| times it stays below 1e-12 max(|J|, max |M|), and
    fails it at |V0| = 5, even beside V0 = 1e6, whose tolerance would
    pass it: only those cells read -1, as in the per-cell reference,
    and the others keep their unperturbed counts."""
    p = ModelParams(N=40, J=1.0, D=4.1)
    v_vals = [-5.0, -1e-3, 0.0, 1e-3, 5.0, 1e6]
    clean = phase_diagram([4.1], v_vals, p)[0]
    monkeypatch.setattr(projected, "impurity_overlap",
                        lambda modes: perturbed(impurity_overlap(modes), gate, 1e-9))
    counts = phase_diagram([4.1], v_vals, p)[0]
    modes = ModeBasis(p)
    G = perturbed(impurity_overlap(modes), gate, 1e-9)
    assert list(counts) == [count_reference(modes, G, v) for v in v_vals]
    assert list(counts) == [-1] + list(clean[1:4]) + [-1, -1]
    # a Hamiltonian built at one V0 names the gate
    for v in (-5.0, 5.0):
        with pytest.raises(NumericalError, match=f"at V0 = {v}: not {gate}$"):
            build_projected_hamiltonian(modes, G, v)


def test_failing_eigh_chunk_is_solved_cell_by_cell(monkeypatch):
    """A stacked eigh that raises LinAlgError is retried cell by cell; a
    cell whose own eigh raises reads -1 alone."""
    p = ModelParams(N=40, J=1.0, D=4.1)
    v_vals = np.linspace(-5.0, 5.0, 7)
    want = phase_diagram([4.1], v_vals, p)[0]
    eigh, shapes = np.linalg.eigh, []

    def flaky(a):
        shapes.append(a.shape)
        if len(a) > 1 or len(shapes) == 3:      # the stack, then cell 1
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", flaky)
    counts = phase_diagram([4.1], v_vals, p)[0]
    assert shapes == [(7, 2, 20, 20)] + [(1, 2, 20, 20)] * 7
    assert counts[1] == -1
    assert np.array_equal(np.delete(counts, 1), np.delete(want, 1))


def classify_reference(spectrum, modes):
    """Bound-state records built one at a time: a loop over the
    candidates, then each class sorted by decreasing band split and
    labelled, as classify_bound_states did before its array pass."""
    p = modes.params
    hi = modes.band_edges()[1]
    k_at_max = abs(float(modes.K[int(np.argmax(modes.energies))]))
    k_at_min = abs(float(modes.K[int(np.argmin(modes.energies))]))
    recs = []
    mus, ds, ps = bound_candidates(spectrum, modes)
    fits = zip(*fit_ring_decay(ds, ps, p.N, 4, p.N - 6))
    for mu, (kappa, r2) in zip(mus.tolist(), fits):
        e = spectrum.energies[mu]
        w = np.abs(spectrum.states[:, mu]) ** 2
        dom = abs(float(modes.K[int(np.argmax(w))]))
        edge_k = k_at_max if e > hi else k_at_min
        cls = "near_zero" if edge_k < CLASS_K_SPLIT else "near_half_pi"
        recs.append(BoundStateRecord("", e, dom, cls, float(kappa), float(r2), mu))
    split = lambda r: modes.band_split(r.energy)
    near0 = sorted([r for r in recs if r.re_K_class == "near_zero"],
                   key=split, reverse=True)
    nearh = sorted([r for r in recs if r.re_K_class == "near_half_pi"],
                   key=split, reverse=True)
    for i, r in enumerate(near0):
        r.label = chr(ord("a") + i)
    for i, r in enumerate(nearh):
        r.label = chr(ord("a") + max(4, len(near0)) + i)
    return sorted(recs, key=lambda r: r.label)


@pytest.mark.parametrize("N", (12, 40, 100))
@pytest.mark.parametrize("J", (1.0, -1.0))
def test_records_match_per_record_reference(N, J):
    """classify_bound_states gives the reference's records, field for
    field, over |D| in {2.3, 3, 4.1, 6, 12} with the sign of J and
    V0 in +-{0.25, 1, 4, 8, 20}, and on the V0 = +-20 spectra of each D
    taken together, with ties.  At N = 40 and 100 the grid holds spectra
    with more than four near-zero states, and the merged spectrum at
    |D| = 2.3 also near-pi/2 states, labelled after them."""
    most = (0, 0)       # the most near-zero states, and then near-pi/2 ones
    for D in J * np.array([2.3, 3.0, 4.1, 6.0, 12.0]):
        try:
            modes = ModeBasis(ModelParams(N=N, J=J, D=D))
        except ExistenceError:      # no odd pairing root at N = 12, |D| = 2.3
            continue
        G = impurity_overlap(modes)
        spectra = [diagonalize_projected(build_projected_hamiltonian(modes, G, V0))
                   for V0 in np.outer((1.0, -1.0), (0.25, 1.0, 4.0, 8.0, 20.0)).ravel()]
        # +20, -20 and +20 again: the repeat ties every split of the first
        merged = [spectra[k] for k in (4, 9, 4)]
        merged = dense_spectrum(np.concatenate([sp.energies for sp in merged]),
                                np.hstack([sp.states for sp in merged]))
        for spec in spectra + [merged]:
            got = classify_bound_states(spec, modes)
            assert got == classify_reference(spec, modes), D
            near0 = sum(r.re_K_class == "near_zero" for r in got)
            most = max(most, (near0, len(got) - near0))
    assert N == 12 or most[0] > 4 and most[1] > 0, most


@pytest.mark.parametrize("params", [
    ModelParams(N=40, J=1.0, D=6.0, V0=5.0),
    ModelParams(N=40, J=1.0, D=6.0, V0=-5.0),
    ModelParams(N=40, J=1.0, D=2.1, V0=5.0),
    ModelParams(N=40, J=1.0, D=2.1, V0=-5.0),
    ModelParams(N=40, J=1.0, D=4.1, V0=4.0),
])
def test_count_equals_classified_records(params):
    """The fit-free count sees the same gates as classification."""
    ph = projected_hamiltonian(params)
    recs = classify_bound_states(diagonalize_projected(ph), ph.modes)
    assert count_fresh(params) == len(recs)


@pytest.mark.parametrize("J", [1.0, -1.0])
def test_tail_gate_drops_a_state_just_past_its_bound(J):
    """At N = 12, D = 2.7 J, V0 = -1.25 J two states leave the band.  The
    far-tail fraction of one (even sector) is 0.110, just past
    TAIL_FRACTION_MAX = 0.10, so the count is 1; a bound of 0.12 would
    count 2."""
    p = ModelParams(N=12, J=J, D=2.7 * J, V0=-1.25 * J)
    ph = projected_hamiltonian(p)
    spec = diagonalize_projected(ph)
    out = np.flatnonzero(ph.modes.out_of_band(spec.energies))
    ds, ps = ring_decay_profile(spec.columns(out), ph.modes)
    tail = ps[ds > p.N // 2].sum(axis=0) / ps.sum(axis=0)
    assert sorted(tail) == pytest.approx([2.2e-4, 0.110], abs=1e-3)
    assert count_fresh(p) == 1


def test_potential_matrix_with_reused_overlap(fig2_params):
    """One overlap G serves every V0 and still matches the brute-force oracle."""
    base = fig2_params.replace(D=4.0, V0=0.0)
    modes = modes_on(base, "exact")
    G = impurity_overlap(modes)
    C = modes.pair_amplitudes()
    basis, _ = build_pair_hamiltonian(base)
    site0 = (basis.m == 0).astype(float) + (basis.n == 0)
    for v0 in (-3.0, 4.0):
        p = base.replace(V0=v0)
        V = potential_matrix(p, G)
        V_exact = np.einsum("ip,p,jp->ij", C.conj(), v0 * site0, C)
        assert np.abs(V - V_exact).max() < 1e-10
        fresh = modes_on(p, "exact")
        assert np.array_equal(V, potential_matrix(p, impurity_overlap(fresh)))


REAL_CASES = [(1.0, 4.1, 4.0), (1.0, 4.1, -4.0), (1.0, 2.1, 5.0),
              (1.0, 2.1, -5.0), (-1.0, -4.5, 2.0)]


@pytest.mark.parametrize("N", (40, 100, 200))
@pytest.mark.parametrize("J, D, V0", REAL_CASES)
def test_projected_hamiltonian_is_real(N, J, D, V0):
    """M is real to rounding, and the real solve gives the complex spectrum."""
    ph = projected_hamiltonian(ModelParams(N=N, J=J, D=D, V0=V0))
    assert np.abs(ph.M.imag).max() <= 1e-15 * abs(J)
    spec = diagonalize_projected(ph)
    assert spec.states.dtype == float
    assert np.abs(spec.energies - np.linalg.eigvalsh(ph.M)).max() <= 1e-12 * abs(J)


@pytest.mark.parametrize("N", (40, 100))
@pytest.mark.parametrize("J, D, V0", REAL_CASES)
def test_real_spectrum_keeps_bound_states(N, J, D, V0):
    """bound_candidates picks the same states from real and complex eigenvectors."""
    p = ModelParams(N=N, J=J, D=D, V0=V0)
    ph = projected_hamiltonian(p)
    real = bound_candidates(diagonalize_projected(ph), ph.modes)[0].tolist()
    cplx = dense_spectrum(*np.linalg.eigh(ph.M))
    assert real == bound_candidates(cplx, ph.modes)[0].tolist()
    assert real


def test_gates_once_per_hamiltonian(monkeypatch, fig2_params):
    """_gates runs once per built Hamiltonian, and its spectrum runs none."""
    calls = []
    gates = projected._gates

    def counted(*args):
        calls.append(args)
        return gates(*args)

    monkeypatch.setattr(projected, "_gates", counted)
    ph = projected_hamiltonian(fig2_params)
    assert len(calls) == 1
    diagonalize_projected(ph)
    assert len(calls) == 1


def test_real_spectrum_rejects_imaginary_coupling(fig2_params):
    """A G that puts a Hermitian 1e-6 imaginary off-diagonal into M is
    refused."""
    modes = ModeBasis(fig2_params)
    G = impurity_overlap(modes)
    e = 1e-6 / (4.0 * fig2_params.V0 / fig2_params.N)      # 1e-6 in M
    G[0, 1] += 1j * e
    G[1, 0] -= 1j * e
    with pytest.raises(NumericalError, match="not real$"):
        build_projected_hamiltonian(modes, G, fig2_params.V0)


@pytest.mark.parametrize("V0", (4.0, 1e6, 1e8))
def test_gates_scale_with_the_matrix(V0):
    """The rounding of M grows with max |M|, and so do the gates: a
    strong impurity passes them, while a part of G that puts
    1e-10 max |M| into M fails the gate it breaks (perturbed): a real
    one that is not symmetric the Hermiticity gate, an imaginary
    Hermitian one the reality gate, and a real symmetric one that
    breaks P the P gate."""
    p = ModelParams(N=40, J=1.0, D=4.1, V0=V0)
    modes = ModeBasis(p)
    G = impurity_overlap(modes)
    ph = build_projected_hamiltonian(modes, G, V0)
    diagonalize_projected(ph)
    eps = 1e-10 * np.abs(ph.M).max() / (4.0 * V0 / p.N * np.abs(G).max())
    for gate in ("Hermitian", "real", "P-symmetric"):
        with pytest.raises(NumericalError, match=f"not {gate}$"):
            build_projected_hamiltonian(modes, perturbed(G, gate, eps), V0)


def reflection(N):
    """The CM reflection P: u(l) -> s_l u(-l) on the l_K grid, as a matrix."""
    image = np.arange(N - 2, -2, -1) % N
    P = np.zeros((N, N))
    P[np.arange(N), image] = 1.0
    P[-1, -1] = -1.0        # l = N/2 is its own image, with s = -1
    return P


@pytest.mark.parametrize("J", (1.0, -1.0))
@pytest.mark.parametrize("V0", (0.0, 2.5))
def test_columns_are_the_dense_scatter(monkeypatch, J, V0):
    """columns(idx) of the projected spectrum equals, bit for bit, the
    columns idx of states and of the dense scatter of its sector solve,
    for indices in any order.  V0 = 0 ties every pair state's even and
    odd energy exactly, and the even column comes first.  The dense
    form of the same eigenpairs (dense_spectrum of the scatter) reads
    the same columns and states."""
    N = 40
    ph = projected_hamiltonian(ModelParams(N=N, J=J, D=4.1 * J, E0=0.3, V0=V0))
    spy = EighSpy()
    monkeypatch.setattr(np.linalg, "eigh", spy)
    spec = diagonalize_projected(ph)
    (w, y), = spy.results
    _, _, pairs, images, fixed = projected._reflection(N)
    ref = dense_scatter(((w[0], y[0], fixed[:1]), (w[1], y[1], fixed[1:])),
                        pairs, images)
    pick = np.random.default_rng(7).permutation(N)[:N // 3]
    for form in (spec, dense_spectrum(spec.energies, ref)):
        assert form.columns(pick).tobytes() == ref[:, pick].tobytes()
        assert form.states.tobytes() == ref.tobytes()
        assert form.columns(pick).tobytes() == form.states[:, pick].tobytes()
    tie = np.flatnonzero(spec.energies[1:] == spec.energies[:-1])
    assert len(tie) == (N // 2 - 1 if V0 == 0 else 0)
    parity = np.einsum("im,ij,jm->m", ref, reflection(N), ref)
    assert np.all(parity[tie] > 0) and np.all(parity[tie + 1] < 0)


@settings(max_examples=60, deadline=None)
@example(N=40, J=1.0, ratio=4.1, V0=0.0, E0=0.0)
@given(N=st.sampled_from((4, 6, 8, 40, 100)), J=st.sampled_from((1.0, -1.0)),
       ratio=st.floats(3.0, 8.0), V0=st.just(0.0) | st.floats(-10.0, 10.0),
       E0=st.floats(-2.0, 2.0))
def test_sector_solve_is_an_eigensystem(N, J, ratio, V0, E0):
    """The sector solve gives the full spectrum of M to 1e-13 max |M|,
    orthonormal eigenvectors with a small residual, and every column is
    even or odd under P, the even one first at an exact tie (V0 = 0
    leaves E_b(K) = E_b(-K) tied)."""
    ph = projected_hamiltonian(ModelParams(N=N, J=J, D=J * ratio, E0=E0, V0=V0))
    A = ph.M.real
    scale = np.abs(A).max()
    spec = diagonalize_projected(ph)
    w, U = spec.energies, spec.states
    assert np.all(np.diff(w) >= 0)
    assert np.abs(w - np.linalg.eigvalsh(A)).max() <= 1e-13 * scale
    assert np.abs(A @ U - U * w).max() <= 1e-13 * scale
    assert np.abs(U.T @ U - np.eye(N)).max() <= 1e-13
    parity = np.einsum("im,ij,jm->m", U, reflection(N), U)
    assert np.abs(np.abs(parity) - 1.0).max() <= 1e-13
    tie = w[1:] == w[:-1]
    assert not np.any(tie & (parity[:-1] < 0) & (parity[1:] > 0))


def _dense_sector_blocks(A):
    """Reference fold of a dense real A that commutes with P into its
    even and odd N/2 x N/2 blocks (stacked), sliced from its pair rows."""
    N = len(A)
    n, fixed = N // 2, np.array([N // 2 - 1, N - 1])
    pp, pm = A[n:N - 1, n:N - 1], A[n:N - 1, n - 2::-1]   # pair x pair, pair x image
    blocks = np.empty((2, n, n))
    np.add(pp, pm, out=blocks[0, :-1, :-1])
    np.subtract(pp, pm, out=blocks[1, :-1, :-1])
    blocks[:, :-1, -1] = blocks[:, -1, :-1] = math.sqrt(2.0) * A[n:N - 1, fixed].T
    blocks[:, -1, -1] = A[fixed, fixed]
    return blocks


@settings(max_examples=40, deadline=None)
@example(N=400, J=1.0, ratio=4.1, E0=1000.0, V0=4.0)
@example(N=400, J=1.0, ratio=4.1, E0=1000.0, V0=-4.0)
@example(N=8, J=-1.0, ratio=4.1, E0=0.0, V0=1e-300)
@given(N=st.sampled_from((4, 8, 40, 400)), J=st.sampled_from((1.0, -1.0)),
       ratio=st.floats(3.0, 8.0), E0=st.floats(-1000.0, 1000.0),
       V0=st.sampled_from((0.0, 1e-300, -1e-300)) | st.floats(-10.0, 10.0))
def test_sector_stack_is_the_dense_fold(N, J, ratio, E0, V0):
    """_sector_stack gives the sector blocks of M.real bit for bit, from
    (basis, G, V0), for one V0 alone and for each V0 of a stack."""
    modes = ModeBasis(ModelParams(N=N, J=J, D=J * ratio, E0=E0))
    G = impurity_overlap(modes)
    v0s = np.array([V0, -V0, 0.0, 1e6])
    c = 4.0 * v0s / N
    stack = projected._sector_stack(modes, G, c)
    for k, v in enumerate(v0s):
        want = _dense_sector_blocks(ProjectedHamiltonian(modes, G, v).M.real)
        assert np.array_equal(projected._sector_stack(modes, G, c[k:k + 1])[0], want)
        assert np.array_equal(stack[k], want)


@pytest.mark.parametrize("N, J", [(40, 1.0), (40, -1.0), (100, 1.0), (100, -1.0)])
def test_count_matches_full_eigh(N, J):
    """count_bound_states of each one-V0 row and a phase-diagram row equal
    the full-eigh reference of each cell over a (D, V0) grid."""
    v_vals = np.linspace(-8.0, 8.0, 9 if N == 40 else 5)
    for D in J * np.linspace(2.2, 7.0, 5 if N == 40 else 3):
        p = ModelParams(N=N, J=J, D=D)
        modes = ModeBasis(p)
        G = impurity_overlap(modes)
        want = [count_reference(modes, G, V0) for V0 in v_vals]
        assert [count_bound_states(modes, G, [V0])[0] for V0 in v_vals] == want, D
        assert list(phase_diagram([D], v_vals, p)[0]) == want, D


def test_sector_eigh_failure_is_a_numerical_error(monkeypatch):
    """A failing eigh in a sector block raises NumericalError from both
    the projected and the pair solve."""
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalError, match="projected Hamiltonian eigh"):
        diagonalize_projected(projected_hamiltonian(ModelParams(N=8, J=1.0, D=4.1)))
    with pytest.raises(NumericalError, match="pair Hamiltonian eigh"):
        pairbasis.diagonalize_full(ModelParams(N=8, J=1.0, D=4.1))


def test_spectrum_peak_allocation_at_n400(tmp_path):
    """biexciton-spectrum at N = 400 peaks below 10 complex N x N
    matrices (16 N^2 bytes each): the basis, M and the spectrum, with no
    extra copy of the eigenvectors."""
    N = 400
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"model": {"N": N, "J": 1.0, "D": 4.1, "V0": 4.0}}))
    tracemalloc.start()
    try:
        with np.errstate(all="ignore"):     # the N = 400 fits overflow (ROADMAP item 3)
            code = main(["biexciton-spectrum", "--config", str(path), "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 10 * 16 * N * N, peak / (16 * N * N)


def test_cm_amplitude_uses_shared_phase(fig2_params):
    """cm_amplitude through the cached phase matrix equals the direct product."""
    modes = ModeBasis(fig2_params)
    N = fig2_params.N
    ph = build_projected_hamiltonian(modes, impurity_overlap(modes), fig2_params.V0)
    u = diagonalize_projected(ph).states[:, 0]
    r, psi = cm_amplitude(u, modes)
    assert np.array_equal(r, np.arange(-N + 1, N + 1))
    direct = np.exp(1j * np.outer(r, modes.K)) @ (u * modes.phi[:, N])
    assert np.array_equal(psi, direct)


# CLI runs whose ring-decay fits the tests replay: the three seed-0
# exact_arbiter bic configs and both N = 400 biexciton-spectrum configs
FIT_TASKS = {
    "bic_N40_V8": ("bic", {"model": {"N": 40, "J": 1.0, "D": 4.1, "E0": 0.0, "V0": 8.0},
                           "bic": {"flag_tolerance": 0.05}}),
    "bic_N40_V1": ("bic", {"model": {"N": 40, "J": 1.0, "D": 4.1, "E0": 0.0, "V0": 1.0},
                           "bic": {"flag_tolerance": 0.05}}),
    "bic_N60_V8": ("bic", {"model": {"N": 60, "J": 1.0, "D": 4.1, "E0": 0.0, "V0": 8.0},
                           "bic": {"flag_tolerance": 0.05}}),
    "spectrum_N400_V+": ("biexciton-spectrum",
                         {"model": {"N": 400, "J": 1.0, "D": 4.1, "E0": 1000.0, "V0": 4.0}}),
    "spectrum_N400_V-": ("biexciton-spectrum",
                         {"model": {"N": 400, "J": 1.0, "D": 4.1, "E0": 1000.0, "V0": -4.0}}),
}


def per_start_fit(ds, ps, N, d_lo, d_hi):
    """Reference ring-decay fit: one masked window and one bounded Brent
    fit (scipy's) per start offset, with np.mean and np.sum in the
    objective; a flat window (SST = 0) is no fit.  ln cosh overflows at
    N = 400, where the objective turns NaN at the first trial point and
    the start never wins: the result fit_ring_decay's pin gate holds."""
    pmax = ps.max()
    if pmax <= 0:
        return 0.0, 0.0
    d_peak = ds[int(np.argmax(np.where(ds <= N // 2, ps, -1.0)))]
    lo = max(d_lo, d_peak + 1)
    win = (ds >= lo) & (ds <= d_hi)
    if win.sum() < 4:
        return 0.0, 0.0
    d_min = ds[win][int(np.argmin(ps[win]))]

    def one_fit(start):
        m = win & (ds >= start) & (ds <= d_min) & (ps > PROFILE_FLOOR * pmax)
        if m.sum() < 4:
            return None
        x, y = ds[m].astype(float), np.log(ps[m])

        def sse(kappa):
            basis = np.log(np.cosh(2.0 * kappa * (N - x)))
            c = np.mean(y - basis)
            return float(np.sum((y - basis - c) ** 2))

        sst = float(np.sum((y - np.mean(y)) ** 2))
        if not sst > 0:
            return None
        kappa = minimize_scalar(sse, bounds=(1e-6, 4.0), method="bounded",
                                options={"xatol": 1e-10}).x
        err = sse(kappa)
        if math.isnan(err):
            return kappa, math.nan
        return kappa, 1.0 - err / sst

    best = (0.0, 0.0)
    for start in range(lo, lo + 21, 2):
        got = one_fit(start)
        if got is not None and got[1] > best[1]:
            best = got
    return best


def random_fit_inputs(rng, N):
    """A noisy ring-decay profile at N, with nodes near the impurity,
    points under the numerical floor and a random window."""
    ds = np.arange(rng.integers(2), N + 1, rng.integers(1, 3))
    x = 2.0 * rng.uniform(0.02, 1.5) * (N - ds)
    log_p = np.logaddexp(x, -x) + rng.normal(0.0, rng.uniform(0.0, 0.5), ds.size)
    log_p[:rng.integers(6)] -= rng.uniform(0.0, 8.0)
    ps = np.exp(log_p - log_p.max())
    ps[rng.random(ds.size) < 0.05] = rng.choice((0.0, 1e-25))
    # draw 0 or 1 gives the CM window (4, N - 6), draw 2 the relative one
    d_lo, d_hi = ((4, N - 6), (3, N // 2 - 3))[rng.integers(3) // 2]
    return ds, ps, N if d_lo == 4 else N // 2, d_lo, d_hi


def columns(ps):
    """The profiles of a fit_ring_decay input: ps itself, or its columns."""
    return [ps] if ps.ndim == 1 else list(ps.T)


@pytest.fixture
def fit_calls(monkeypatch):
    """Record the inputs and result of every fit_ring_decay call made
    through projected or pairbasis; a call fits each column of a 2-D
    profile."""
    calls = []
    fit = projected.fit_ring_decay

    def recorded(*args, **kw):
        got = fit(*args, **kw)
        calls.append((args, kw, got))
        return got

    for module in (projected, pairbasis):
        monkeypatch.setattr(module, "fit_ring_decay", recorded)
    return calls


# Tolerances of the array fit against the per-start reference, fixed
# before the array fit was written.  The reference's bounded Brent
# search stops within about 1.5e-8 relative of its minimizer, and
# further where r^2 is small and the objective flat; 1e-5 is the
# benchmark oracle's tolerance on fitted rates and is never widened.
FIT_R2_ATOL = 1e-12
FIT_KAPPA_RTOL = 1e-6           # where the reference r^2 >= 0.01
FIT_KAPPA_RTOL_POOR = 1e-5      # where it is below


def assert_fits_agree(got, want):
    """Same zero/non-zero pattern, r^2 within FIT_R2_ATOL and kappa within
    the relative tolerance its reference r^2 calls for."""
    assert [k == 0 for k, _ in got] == [k == 0 for k, _ in want]
    for (k, r2), (k_ref, r2_ref) in zip(got, want):
        assert abs(r2 - r2_ref) <= FIT_R2_ATOL, (k, r2, k_ref, r2_ref)
        rtol = FIT_KAPPA_RTOL if r2_ref >= 0.01 else FIT_KAPPA_RTOL_POOR
        assert abs(k - k_ref) <= rtol * k_ref, (k, r2, k_ref, r2_ref)


@pytest.mark.parametrize("case", sorted(FIT_TASKS) + ["random_N40", "random_N60",
                                                      "random_N400"])
def test_fit_matches_per_start_reference(fit_calls, tmp_path, case):
    """fit_ring_decay agrees with the per-start reference (assert_fits_agree)
    on every fit the CLI runs for the task and on random profiles.  At
    N = 400 the pin gate keeps every CLI fit at (0, 0), as the reference's
    overflow does."""
    with np.errstate(all="ignore"):
        if case in FIT_TASKS:
            command, cfg = FIT_TASKS[case]
            path = tmp_path / "c.yaml"
            path.write_text(yaml.safe_dump(cfg))
            assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 0
        else:
            N = int(case.removeprefix("random_N"))
            rng = np.random.default_rng(N)
            for _ in range(100):
                *args, d_lo, d_hi = random_fit_inputs(rng, N)
                projected.fit_ring_decay(*args, d_lo=d_lo, d_hi=d_hi)
            # flat up to a zero at the window's end: every start's window
            # is flat (SST = 0), so no start fits
            ds = np.arange(N + 1)
            projected.fit_ring_decay(ds, np.where(ds == N - 7, 0.0, 1.0), N, 4, N - 6)
        want = [per_start_fit(ds, col, *rest, **kw)
                for (ds, ps, *rest), kw, _ in fit_calls for col in columns(ps)]
    got = [fit for _, _, got in fit_calls for fit in zip(*(np.ravel(a) for a in got))]
    assert_fits_agree(got, want)
    if case.startswith("spectrum_N400"):
        assert got == [(0.0, 0.0)] * len(got) != []
    else:
        assert any(kappa > 0 for kappa, _ in got)


# Known gap: the six N = 400 bound states of the biexciton-spectrum
# references, (V0, state index mu) -> decay rate.  The references pin
# all six at 0 (the pin gate of fit_ring_decay, ROADMAP item 1).
N400_DECAY_RATES = {(4.0, 398): 1.366, (4.0, 399): 1.369,
                    (4.0, 396): 0.0744, (4.0, 397): 0.0772,
                    (-4.0, 0): 1.419, (-4.0, 1): 1.293}


@pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "unpinned"])
def test_n400_bound_state_decay_rates(monkeypatch, pinned):
    """Without the pin gate (PIN_KAPPA = 0) the six N = 400 bound states
    fit their decay rates to 1e-3 relative with r^2 >= 0.999; a zero rate
    fails.  With it, each reads 0, as the recorded references need."""
    if not pinned:
        monkeypatch.setattr(projected, "PIN_KAPPA", 0.0)
    got = {}
    for v0 in (4.0, -4.0):
        p = ModelParams(N=400, J=1.0, D=4.1, E0=1000.0, V0=v0)
        ph = projected_hamiltonian(p)
        for rec in classify_bound_states(diagonalize_projected(ph), ph.modes):
            got[v0, rec.state_index] = rec.decay_rate, rec.fit_r2
    assert sorted(got) == sorted(N400_DECAY_RATES)
    for key, kappa in N400_DECAY_RATES.items():
        if pinned:
            assert got[key] == (0.0, 0.0), key
        else:
            assert got[key][0] == pytest.approx(kappa, rel=1e-3), key
            assert got[key][1] >= 0.999, key


def test_flat_profile_with_overflowing_objective_is_no_fit(monkeypatch):
    """A window flat up to a zero has SST = 0.  At N = 400 every start's
    window also overflows cosh at PIN_KAPPA: no fit, not r2 = 1, with the
    pin gate and without it."""
    N = 400
    ds = np.arange(N + 1)
    ps = np.where(ds == N - 7, 0.0, 1.0)
    assert projected.fit_ring_decay(ds, ps, N, 4, N - 6) == (0.0, 0.0)
    monkeypatch.setattr(projected, "PIN_KAPPA", 0.0)
    assert projected.fit_ring_decay(ds, ps, N, 4, N - 6) == (0.0, 0.0)


def test_flat_window_is_no_fit():
    """A window flat up to a zero has SST = 0 and a finite objective at
    N = 40: no fit, not r2 = 1 with the minimizer's last kappa."""
    N = 40
    ds = np.arange(N + 1)
    got = projected.fit_ring_decay(ds, np.where(ds == N - 7, 0.0, 1.0), N, 4, N - 6)
    assert got == (0.0, 0.0)


def test_eigh_failure_is_a_numerical_error():
    """V0 = 1e308 overflows 4 V0 / N, and the gate refuses the M it would
    make as not finite.  Made past the gate, its infinite entries make
    eigh fail: both the real spectrum and the complex propagation path
    raise NumericalError, not LinAlgError."""
    p = ModelParams(N=4, J=1.0, D=4.1, V0=1e308)
    modes = ModeBasis(p)
    G = impurity_overlap(modes)
    with pytest.raises(NumericalError, match=r"at V0 = 1e\+308: not finite$"):
        build_projected_hamiltonian(modes, G, p.V0)
    ph = ProjectedHamiltonian(modes, G, p.V0)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError, match="eigh"):
            diagonalize_projected(ph)
        with pytest.raises(NumericalError, match="eigh"):
            ph.eigensystem()


def test_distance_profile_columns():
    """A 2-D distance profile is the 1-D profile of each column, over the
    same distances present (here with gaps and repeats)."""
    rng = np.random.default_rng(7)
    d = rng.choice([0, 2, 3, 7, 11], size=40)
    w = rng.random((40, 3))
    ds, p = distance_profile(d, w)
    assert p.shape == (len(ds), 3)
    for j in range(3):
        ds_j, p_j = distance_profile(d, w[:, j])
        assert np.array_equal(ds_j, ds) and np.array_equal(p_j, p[:, j])
    assert np.array_equal(ds, np.unique(d))
    assert np.allclose(p.sum(axis=0), w.sum(axis=0), rtol=1e-14, atol=0)
