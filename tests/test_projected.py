"""Projected impurity problem: V matrix oracle, bound-state counting."""

import math

import numpy as np
import pytest
import yaml

from biximp import (ExistenceError, ModeBasis, ModelParams, NumericalError,
                    ParameterError, ProjectedHamiltonian, SpectrumResult,
                    build_projected_hamiltonian, classify_bound_states,
                    count_bound_states, diagonalize_projected,
                    impurity_overlap, pairbasis, phase_diagram,
                    potential_matrix, projected, roots)
from biximp.cli import main
from biximp.pairbasis import build_pair_hamiltonian
from biximp.projected import (PROFILE_FLOOR, bound_candidates, cm_amplitude,
                              participation_ratio)


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
    vdiag = p.V0 * ((basis.m == 0).astype(float) + (basis.n == 0))
    C = modes.pair_amplitudes()
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
    C = modes.pair_amplitudes()
    basis, _ = build_pair_hamiltonian(fig2_params.replace(V0=0.0))
    site0 = (basis.m == 0).astype(float) + (basis.n == 0)
    for v0 in (-3.0, 4.0):
        p = fig2_params.replace(V0=v0)
        V = potential_matrix(modes, p, G)
        V_exact = np.einsum("ip,p,jp->ij", C.conj(), v0 * site0, C)
        assert np.abs(V - V_exact).max() < 1e-10
        assert np.array_equal(V, potential_matrix(ModeBasis(p, "exact")))


REAL_CASES = [(1.0, 4.1, 4.0), (1.0, 4.1, -4.0), (1.0, 2.1, 5.0),
              (1.0, 2.1, -5.0), (-1.0, -4.5, 2.0)]


@pytest.mark.parametrize("N", (40, 100, 200))
@pytest.mark.parametrize("J, D, V0", REAL_CASES)
def test_projected_hamiltonian_is_real(N, J, D, V0):
    """M is real to rounding, and the real solve gives the complex spectrum."""
    ph = build_projected_hamiltonian(ModelParams(N=N, J=J, D=D, V0=V0))
    assert np.abs(ph.M.imag).max() <= 1e-15 * abs(J)
    spec = diagonalize_projected(ph)
    assert spec.states.dtype == float
    assert np.abs(spec.energies - np.linalg.eigvalsh(ph.M)).max() <= 1e-12 * abs(J)


@pytest.mark.parametrize("N", (40, 100))
@pytest.mark.parametrize("J, D, V0", REAL_CASES)
def test_real_spectrum_keeps_bound_states(N, J, D, V0):
    """bound_candidates picks the same states from real and complex eigenvectors."""
    p = ModelParams(N=N, J=J, D=D, V0=V0)
    ph = build_projected_hamiltonian(p)
    real = [mu for mu, _, _ in bound_candidates(diagonalize_projected(ph), ph.modes)]
    cplx = SpectrumResult(*np.linalg.eigh(ph.M))
    assert real == [mu for mu, _, _ in bound_candidates(cplx, ph.modes)]
    assert real


def test_real_spectrum_rejects_imaginary_coupling(fig2_params):
    """A Hermitian M with a 1e-6 imaginary off-diagonal is refused."""
    ph = build_projected_hamiltonian(fig2_params)
    ph.M[0, 1] += 1e-6j
    ph.M[1, 0] -= 1e-6j
    with pytest.raises(NumericalError, match="not real"):
        diagonalize_projected(ph)


def test_cm_amplitude_uses_shared_phase(fig2_params):
    """cm_amplitude through the cached phase matrix equals the direct product."""
    modes = ModeBasis(fig2_params)
    N = fig2_params.N
    u = diagonalize_projected(build_projected_hamiltonian(fig2_params, modes)).states[:, 0]
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


def per_start_fit(ds, ps, N, d_lo=4, d_hi=None):
    """Reference ring-decay fit: one masked window and one bounded fit
    per start offset, with np.mean and np.sum in the objective."""
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

    def one_fit(start):
        m = win & (ds >= start) & (ds <= d_min) & (ps > PROFILE_FLOOR * pmax)
        if m.sum() < 4:
            return None
        x, y = ds[m].astype(float), np.log(ps[m])

        def sse(kappa):
            basis = np.log(np.cosh(2.0 * kappa * (N - x)))
            c = np.mean(y - basis)
            return float(np.sum((y - basis - c) ** 2))

        kappa = roots.fminbound(sse, 1e-6, 4.0, xtol=1e-10)
        err = sse(kappa)
        if math.isnan(err):
            return kappa, math.nan
        sst = float(np.sum((y - np.mean(y)) ** 2))
        r2 = 1.0 - err / sst if sst > 0 else 1.0
        return kappa, r2

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
    d_lo, d_hi = ((4, None), (4, N - 6), (3, N // 2 - 3))[rng.integers(3)]
    return ds, ps, N if d_lo == 4 else N // 2, d_lo, d_hi


@pytest.fixture
def fit_calls(monkeypatch):
    """Record the inputs and result of every fit_ring_decay call made
    through projected or pairbasis."""
    calls = []
    fit = projected.fit_ring_decay

    def recorded(*args, **kw):
        got = fit(*args, **kw)
        calls.append((args, kw, got))
        return got

    for module in (projected, pairbasis):
        monkeypatch.setattr(module, "fit_ring_decay", recorded)
    return calls


@pytest.mark.parametrize("case", sorted(FIT_TASKS) + ["random_N40", "random_N60",
                                                      "random_N400"])
def test_fit_matches_per_start_reference(fit_calls, tmp_path, case):
    """fit_ring_decay gives the per-start reference's (kappa, r2) exactly,
    on every fit the CLI runs for the task and on random profiles.  At
    N = 400 the ln cosh model overflows and every fit stays (0, 0)."""
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
            # flat up to a zero at the window's end: every start ties at
            # r2 = 1 with its own kappa, and the first start must win; at
            # N = 400 the objective overflows and no start wins
            ds = np.arange(N + 1)
            projected.fit_ring_decay(ds, np.where(ds == N - 7, 0.0, 1.0), N)
        want = [per_start_fit(*args, **kw) for args, kw, _ in fit_calls]
    got = [got for _, _, got in fit_calls]
    assert got == want
    if case.startswith("spectrum_N400"):
        assert got == [(0.0, 0.0)] * len(got) != []
    else:
        assert any(kappa > 0 for kappa, _ in got)


def test_flat_profile_with_overflowing_objective_is_no_fit():
    """A window flat up to a zero has SST = 0.  At N = 400 the objective
    is NaN at the minimizer's first trial point: no fit, not r2 = 1."""
    N = 400
    ds = np.arange(N + 1)
    with np.errstate(all="ignore"):
        got = projected.fit_ring_decay(ds, np.where(ds == N - 7, 0.0, 1.0), N)
    assert got == (0.0, 0.0)


def test_eigh_failure_is_a_numerical_error():
    """An M with infinite entries that gets past the checks makes eigh
    fail; both the real spectrum and the complex propagation path raise
    NumericalError, not LinAlgError."""
    p = ModelParams(N=4, J=1.0, D=4.1, V0=1e308)
    modes = ModeBasis(p)
    with np.errstate(all="ignore"):
        M = np.diag(modes.energies.astype(complex)) + potential_matrix(modes, p)
    with pytest.raises(NumericalError, match="not real"):
        diagonalize_projected(ProjectedHamiltonian(modes, M, p))
    with pytest.raises(NumericalError, match="eigh"):
        diagonalize_projected(ProjectedHamiltonian(modes, M.real.copy(), p))
    with pytest.raises(NumericalError, match="eigh"):
        ProjectedHamiltonian(modes, M, p).eigensystem()
