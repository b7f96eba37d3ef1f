"""Projected impurity problem: V matrix oracle, bound-state counting."""

import numpy as np
import pytest

from biximp import (ExistenceError, ModeBasis, ModelParams, NumericalError,
                    ParameterError, build_projected_hamiltonian,
                    classify_bound_states, count_bound_states,
                    diagonalize_projected, impurity_overlap, phase_diagram,
                    potential_matrix)
from biximp.pairbasis import build_pair_hamiltonian
from biximp.projected import participation_ratio


def test_v0_zero_matrix(fig2_params):
    modes = ModeBasis(fig2_params.replace(V0=0.0), "exact")
    V = potential_matrix(modes)
    assert np.abs(V).max() == 0.0


def test_diagonal_sign_and_reality(fig2_params):
    for v0 in (4.0, -4.0):
        modes = ModeBasis(fig2_params.replace(V0=v0), "exact")
        V = potential_matrix(modes)
        d = np.diag(V)
        assert np.abs(d.imag).max() < 1e-14
        assert np.all(np.sign(d.real) == np.sign(v0))


def test_brute_force_projection_oracle(fig2_params):
    """V_KK' equals the site-basis impurity projected onto the modes."""
    p = fig2_params
    modes = ModeBasis(p, "exact")
    V = potential_matrix(modes)
    basis, _ = build_pair_hamiltonian(p.replace(V0=0.0))
    vdiag = np.array([p.V0 * ((m == 0) + (n == 0)) for m, n in basis.pairs],
                     dtype=float)
    C = np.array([modes.pair_amplitudes(i) for i in range(len(modes))])
    V_exact = np.einsum("ip,p,jp->ij", C.conj(), vdiag, C)
    assert np.abs(V - V_exact).max() < 1e-10


def test_hermiticity_and_projection_residual(fig2_params):
    ph = build_projected_hamiltonian(fig2_params)
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
    ph = build_projected_hamiltonian(p)
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
        ph = build_projected_hamiltonian(p)
        spec = diagonalize_projected(ph)
        recs = classify_bound_states(spec, ph.modes)
        assert len(recs) == expected, (D, V0)
        assert all(r.re_K_class == cls for r in recs)


def test_fig2_localization_hierarchy(fig2_params):
    """a, b strongly localized; c, d loosely bound; labels by split."""
    ph = build_projected_hamiltonian(fig2_params)
    spec = diagonalize_projected(ph)
    recs = {r.label: r for r in classify_bound_states(spec, ph.modes)}
    assert set(recs) == {"a", "b", "c", "d"}
    assert min(recs["a"].decay_rate, recs["b"].decay_rate) \
        > 5 * max(recs["c"].decay_rate, recs["d"].decay_rate)
    assert recs["a"].fit_r2 >= 0.99 and recs["d"].fit_r2 >= 0.99


def test_bound_states_split_to_far_side(fig2_params):
    """Bound energies lie on the far side of the nearer band edge."""
    for v0 in (4.0, -4.0):
        ph = build_projected_hamiltonian(fig2_params.replace(V0=v0))
        spec = diagonalize_projected(ph)
        lo, hi = ph.modes.band_edges()
        for r in classify_bound_states(spec, ph.modes):
            assert r.energy > hi or r.energy < lo


def test_participation_ratio_invariant(fig2_params):
    ph = build_projected_hamiltonian(fig2_params)
    spec = diagonalize_projected(ph)
    recs = classify_bound_states(spec, ph.modes)
    bound_idx = {r.state_index for r in recs}
    pr_bound = [participation_ratio(spec.states[:, i], ph.modes)
                for i in bound_idx]
    pr_scatt = [participation_ratio(spec.states[:, i], ph.modes)
                for i in range(len(spec)) if i not in bound_idx]
    assert max(pr_bound) < min(pr_scatt)


def test_count_symmetry_at_large_d():
    pos = count_bound_states(ModelParams(N=40, J=1.0, D=6.0, V0=5.0))
    neg = count_bound_states(ModelParams(N=40, J=1.0, D=6.0, V0=-5.0))
    assert pos == neg == 2


def test_count_asymmetry_at_small_d():
    pos = count_bound_states(ModelParams(N=40, J=1.0, D=2.1, V0=5.0))
    neg = count_bound_states(ModelParams(N=40, J=1.0, D=2.1, V0=-5.0))
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


def test_phase_diagram_sentinel_cell(fig2_params):
    """Just above |D| = 2|J| the odd pairing branch has no finite-N root;
    the cell records -1 and the scan continues."""
    counts = phase_diagram([2.02, 4.1], [3.0], fig2_params)
    assert counts[0, 0] == -1
    assert counts[1, 0] >= 0


def test_phase_diagram_plateau():
    """Counts are piecewise constant: tiny parameter shifts keep counts."""
    base = ModelParams(N=40, J=1.0, D=4.1, V0=4.0)
    c0 = count_bound_states(base)
    for eps in (1e-4, -1e-4):
        assert count_bound_states(base.replace(D=4.1 + eps)) == c0
        assert count_bound_states(base.replace(V0=4.0 + eps)) == c0


def test_phase_diagram_matches_fresh_basis_per_cell(fig2_params):
    """Basis and overlap reuse per D row changes no count: the grid spans
    a J-sign flip, a -1 sentinel row, the V0 = 0 column and a second |D|
    (rows at +-D share one overlap, so only a new |D| exposes a stale one)."""
    d_vals = [-4.1, 2.02, 4.1, 6.0]
    v_vals = [-3.0, 0.0, 3.0]
    counts = phase_diagram(d_vals, v_vals, fig2_params)
    for i, d in enumerate(d_vals):
        for j, v in enumerate(v_vals):
            trial = fig2_params.replace(D=d, V0=v, J=float(np.sign(d)))
            try:
                expected = count_bound_states(trial)
            except (NumericalError, ExistenceError):
                expected = -1
            assert counts[i, j] == expected, (d, v)
    assert list(counts[1]) == [-1, -1, -1]
    assert list(counts[:, 1]) == [0, -1, 0, 0]


@pytest.mark.parametrize("params", [
    ModelParams(N=40, J=1.0, D=6.0, V0=5.0),
    ModelParams(N=40, J=1.0, D=6.0, V0=-5.0),
    ModelParams(N=40, J=1.0, D=2.1, V0=5.0),
    ModelParams(N=40, J=1.0, D=2.1, V0=-5.0),
    ModelParams(N=40, J=1.0, D=4.1, V0=4.0),
])
def test_count_equals_classified_records(params):
    """The fit-free count sees the same gates as classification."""
    ph = build_projected_hamiltonian(params)
    recs = classify_bound_states(diagonalize_projected(ph), ph.modes)
    assert count_bound_states(params) == len(recs)


def test_potential_matrix_with_reused_overlap(fig2_params):
    """One overlap G serves every V0 and still matches the brute-force oracle."""
    modes = ModeBasis(fig2_params.replace(V0=0.0), "exact")
    G = impurity_overlap(modes)
    C = np.array([modes.pair_amplitudes(i) for i in range(len(modes))])
    basis, _ = build_pair_hamiltonian(fig2_params.replace(V0=0.0))
    site0 = np.array([(m == 0) + (n == 0) for m, n in basis.pairs], dtype=float)
    for v0 in (-3.0, 4.0):
        p = fig2_params.replace(V0=v0)
        V = potential_matrix(modes, p, G)
        V_exact = np.einsum("ip,p,jp->ij", C.conj(), v0 * site0, C)
        assert np.abs(V - V_exact).max() < 1e-10
        assert np.array_equal(V, potential_matrix(ModeBasis(p, "exact")))
