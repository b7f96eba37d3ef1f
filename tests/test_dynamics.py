"""Wavepacket propagation, reduced density, entropy, splitting."""

import functools
import math
import re
import warnings
import weakref

import numpy as np
import pytest
import yaml

from biximp import (ModelParams, RegimeError, TimingError,
                    WavepacketConfig, build_projected_hamiltonian,
                    calibrate_v0, contrast, entropy, fringe_visibility,
                    init_wavepacket, mode_distribution, propagate,
                    realspace_amplitude, reduced_density, schmidt_weights,
                    split_ratio)
from biximp import dynamics, projected
from biximp.biexciton import ModeBasis
from biximp.cli import main
from biximp.dynamics import (SPLIT_BUFFER, WavepacketState, _extrema_contrast,
                             energy_expectation, run_trajectory,
                             validate_dynamics_regime)
from biximp.projected import impurity_overlap
from conftest import projected_hamiltonian

K0, DK0 = 3 * np.pi / 8, np.pi / 24


def canonical_params(V0=0.5):
    # packet run convention: D/J = 4.5 > 0 with V0 of the opposite sign
    return ModelParams(N=40, J=-1.0, D=-4.5, E0=0.0, V0=V0)


def canonical_config(t_end=60.0):
    return WavepacketConfig(K0=K0, dK0=DK0, t_start=-30.0, t_end=t_end)


def calibration_args(p, cfg):
    """The (modes, overlap, packet, K0) calibrate_v0 takes, built for p
    and the packet of cfg."""
    modes = ModeBasis(p)
    return modes, impurity_overlap(modes), init_wavepacket(cfg, modes), cfg.K0


@pytest.fixture(scope="module")
def ph():
    return projected_hamiltonian(canonical_params())


@pytest.fixture(scope="module")
def u0(ph):
    return init_wavepacket(canonical_config(), ph.modes)


def test_config_validation():
    with pytest.raises(Exception):
        WavepacketConfig(K0=K0, dK0=-0.1, t_start=0, t_end=1)
    with pytest.raises(Exception):
        WavepacketConfig(K0=K0, dK0=DK0, t_start=5, t_end=1)
    with pytest.raises(Exception):
        WavepacketConfig(K0=1.5, dK0=0.2, t_start=0, t_end=1)  # clips zone


def test_regime_gate():
    with pytest.raises(RegimeError):
        validate_dynamics_regime(ModelParams(N=40, J=1.0, D=3.9, V0=1.0))
    with pytest.raises(RegimeError):
        validate_dynamics_regime(ModelParams(N=40, J=1.0, D=4.5, V0=40.0))
    validate_dynamics_regime(ModelParams(N=40, J=1.0, D=4.5, V0=2.0))


def test_regime_gate_takes_v0_up_to_five_d():
    """|V0| = 5|D| is the strongest impurity a run takes; the next float
    above it is refused."""
    p = canonical_params(V0=22.5)
    validate_dynamics_regime(p)
    with pytest.raises(RegimeError, match="not large compared to"):
        validate_dynamics_regime(p.replace(V0=math.nextafter(22.5, math.inf)))


def test_initial_packet(ph, u0):
    assert u0.norm == pytest.approx(1.0, abs=1e-12)
    w = np.abs(u0.u)
    k_peak = ph.modes.K[int(np.argmax(w))]
    grid_nearest = ph.modes.K[int(np.argmin(np.abs(ph.modes.K - K0)))]
    assert k_peak == pytest.approx(grid_nearest)


def test_flat_packet_limit(ph):
    cfg = WavepacketConfig(K0=0.0, dK0=1e6, t_start=0.0, t_end=1.0,
                           r_offset=0.0)
    with pytest.warns(UserWarning):
        st = init_wavepacket(cfg, ph.modes)
    w = np.abs(st.u)
    assert w.std() / w.mean() < 1e-6


def test_propagation_unitary_and_reversible(ph, u0):
    st = propagate(u0, ph, 35.0)
    assert st.norm == pytest.approx(1.0, abs=1e-10)
    back = propagate(st, ph, -30.0)
    assert np.abs(back.u - u0.u).max() < 1e-10


def test_free_propagation_preserves_moduli(ph):
    p0 = canonical_params(V0=0.0).replace(V0=0.0)
    ph0 = projected_hamiltonian(p0)
    st0 = init_wavepacket(canonical_config(), ph0.modes)
    st = propagate(st0, ph0, 20.0)
    np.testing.assert_allclose(np.abs(st.u), np.abs(st0.u), atol=1e-12)


def test_energy_conservation(ph, u0):
    e0 = energy_expectation(u0, ph)
    for t in (-10.0, 0.0, 17.0, 54.0):
        e = energy_expectation(propagate(u0, ph, t), ph)
        assert abs(e - e0) < 1e-8 * abs(e0)


def test_realspace_parseval(ph, u0):
    r, s, psi = realspace_amplitude(propagate(u0, ph, 12.0), ph.modes)
    assert np.sum(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-10)
    assert r.shape == (80,) and s.shape == (79,)


def test_single_mode_flat_in_r(ph):
    u = np.zeros(len(ph.modes), dtype=complex)
    u[10] = 1.0
    st = WavepacketState(0.0, u)
    r, s, psi = realspace_amplitude(st, ph.modes)
    w = np.abs(psi[:, 30])
    w = w[w > 1e-14]
    assert w.std() / w.mean() < 1e-10


def test_reduced_density_properties(ph, u0):
    st = propagate(u0, ph, 10.0)
    rho = reduced_density(st, ph.modes)
    assert np.real(np.trace(rho)) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    ev = schmidt_weights(st.u, ph.modes)
    assert ev.min() >= 0.0
    s = entropy(ev)
    assert 0.0 <= s <= math.log2(len(ev))


def test_product_state_is_pure(ph):
    # the zone-edge mode factorizes exactly (all separation weight on one
    # parity): rank-1 density, zero entropy
    u = np.zeros(len(ph.modes), dtype=complex)
    u[-1] = 1.0     # K = pi/2, delta-localized relative profile
    ev = schmidt_weights(u, ph.modes)
    assert entropy(ev) == pytest.approx(0.0, abs=1e-9)
    assert ev[-1] == pytest.approx(1.0, abs=1e-9)
    # a generic single mode splits only across the two r-parity blocks
    u2 = np.zeros(len(ph.modes), dtype=complex)
    u2[7] = 1.0
    ev2 = schmidt_weights(u2, ph.modes)
    assert np.sum(ev2 > 1e-10) == 2
    assert entropy(ev2) <= 1.0


def _k_space_states(N, J=-1.0, D=-4.5):
    """(label, state) pairs: random complex, canonical packet, single modes,
    on the canonical model at N or on its mirror or a slower decay
    (J, D given, V0 opposite in sign to D)."""
    ph = projected_hamiltonian(canonical_params(V0=-0.5 * np.sign(D))
                               .replace(N=N, J=J, D=D))
    rng = np.random.default_rng(N)
    states = []
    for seed in range(3):
        u = rng.normal(size=N) + 1j * rng.normal(size=N)
        states.append((f"random{seed}", WavepacketState(0.0, u / np.linalg.norm(u))))
    u0 = init_wavepacket(canonical_config(), ph.modes)
    states += [(f"packet t={t}", propagate(u0, ph, t)) for t in (-30.0, -2.0, 35.0)]
    for i in (N - 1, 7):      # the single modes of test_product_state_is_pure
        u = np.zeros(N, dtype=complex)
        u[i] = 1.0
        states.append((f"mode {i}", WavepacketState(0.0, u)))
    return ph, states


@pytest.mark.filterwarnings("ignore:packet clipped")
@pytest.mark.parametrize("N, J, D", [
    (12, -1.0, -4.5), (40, -1.0, -4.5), (200, -1.0, -4.5), (400, -1.0, -4.5),
    (400, 1.0, 4.5), (400, -1.0, -4.05), (400, 1.0, 4.05)],
    ids=["12", "40", "200", "400", "400-mirror", "400-D4.05", "400-mirror-D4.05"])
def test_schmidt_weights_match_explicit_density(N, J, D):
    """The K-space Schmidt spectrum, from the Gram blocks cut to the
    relative support, equals eigvalsh of the explicit 2N x 2N rho, up to
    N = 400 and at |D| = 4.05 |J|, near the slowest decay the dynamics
    regime allows."""
    ph, states = _k_space_states(N, J, D)
    for label, st in states:
        rho = reduced_density(st, ph.modes)
        want = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
        got = schmidt_weights(st.u, ph.modes)
        assert got.shape == (2 * N,), label
        assert np.all(np.diff(got) >= 0.0), label
        assert np.abs(got - want).max() < 1e-12, label
        assert abs(entropy(got) - entropy(want)) < 1e-12, label


@functools.cache
def _basis(N, J, D):
    return ModeBasis(ModelParams(N=N, J=J, D=D))


@pytest.mark.parametrize("J, D", [(-1.0, -4.5), (1.0, 4.5), (-1.0, -4.05),
                                  (1.0, 4.05)])
def test_parity_columns_cut_to_the_relative_support(J, D):
    """_parity_columns keeps phi's window columns with |s| <= s_max, the
    smallest cut (from |s| = N/2 inward) whose dropped columns hold at
    most eps^2 of every mode's window weight.  Every column stays at
    N = 40, and the same columns at N = 200 and 400: phi has decayed
    there, so an entropy sample costs the same at any larger N."""
    eps2 = np.finfo(float).eps ** 2
    counts = {}
    for N in (40, 200, 400):
        modes = _basis(N, J, D)
        s, phi = modes.s[modes.window], modes.phi[:, modes.window]
        kept = modes.s[dynamics._schmidt_support(modes)]
        s_max = np.abs(kept).max()
        np.testing.assert_array_equal(kept, s[np.abs(s) <= s_max])
        # symmetric in s -> -s, bar the window's one-sided edge s = N/2
        assert np.isin(-kept[kept != N // 2], kept).all()
        total = np.sum(phi ** 2, axis=1)

        def dropped(cut):
            return np.sum(phi[:, np.abs(s) > cut] ** 2, axis=1)
        assert np.all(dropped(s_max) <= eps2 * total)
        assert np.any(dropped(s_max - 1) > eps2 * total)     # the smallest cut
        columns = dynamics._parity_columns(modes)
        for k, c in enumerate(columns):
            assert c.flags.f_contiguous
            np.testing.assert_array_equal(c, modes.phi[:, kept[k::2] + N - 1])
        counts[N] = [c.shape[1] for c in columns]
    assert counts[40] == [20, 20]
    assert counts[200] == counts[400]


def test_trajectory_entropy_matches_reduced_density():
    """run_trajectory's batched propagation and K-space entropy reproduce
    the single-time path sample by sample, through the collision."""
    p = canonical_params(V0=0.5474)
    ph = projected_hamiltonian(p)
    st0 = init_wavepacket(canonical_config(), ph.modes)
    samples = run_trajectory(ph, st0, canonical_config())
    assert len(samples) == 91
    for smp in samples:
        st = propagate(st0, ph, smp.t)
        assert abs(smp.entropy - entropy(schmidt_weights(st.u, ph.modes))) < 1e-12
        assert abs(smp.energy - energy_expectation(st, ph)) < 1e-12
        assert abs(smp.norm - st.norm) < 1e-12


def _extrema_contrast_loop(vals):
    """Reference: the per-element scan the visibility routines used."""
    mins = [vals[i] for i in range(1, len(vals) - 1)
            if vals[i] < vals[i - 1] and vals[i] <= vals[i + 1]]
    maxs = [vals[i] for i in range(1, len(vals) - 1)
            if vals[i] > vals[i - 1] and vals[i] >= vals[i + 1]]
    if not mins or not maxs:
        return 0.0
    vmax, vmin = max(maxs), min(mins)
    return float((vmax - vmin) / (vmax + vmin))


def test_extrema_contrast():
    # interior maxima 3, 2 and minima 1, 0.5; the end points never count
    vals = np.array([1.0, 3.0, 1.0, 2.0, 0.5, 4.0])
    assert _extrema_contrast(vals) == pytest.approx(2.5 / 3.5)
    assert _extrema_contrast(np.arange(5.0)) == 0.0
    assert _extrema_contrast(np.array([1.0, 2.0, 2.0, 1.0])) == 0.0  # no minimum
    # same comparisons and arithmetic as the loop: equal, not close;
    # rounding makes plateaus
    rng = np.random.default_rng(3)
    for n in (0, 1, 2, 3, 10, 41):
        for _ in range(20):
            vals = np.round(rng.random(n), 1)
            assert _extrema_contrast(vals) == _extrema_contrast_loop(vals)


def test_entropy_corner_cases():
    assert entropy(np.array([0.5, 0.5])) == pytest.approx(1.0)
    assert entropy(np.array([0.0, 1.0])) == pytest.approx(0.0)


def test_entropy_clip_counts_1e_11_and_drops_1e_13():
    """The eigenvalue clip (ENTROPY_EIG_CLIP) sits between 1e-13 and
    1e-11: a weight of 1e-11 adds its -p log2 p, 3.7e-10 bits, and one
    of 1e-13 adds nothing, alone or beside a full spectrum."""
    for p, counted in ((1e-11, True), (1e-13, False)):
        term = -p * math.log2(p) if counted else 0.0
        assert entropy(np.array([p])) == pytest.approx(term, rel=1e-12, abs=0.0)
        rest = np.array([0.5, 0.5 - p])
        assert entropy(np.append(rest, p)) == pytest.approx(entropy(rest) + term,
                                                            rel=0.0, abs=1e-15)


def test_contrast_matrix(ph, u0):
    rho = reduced_density(propagate(u0, ph, 35.0), ph.modes)
    C = contrast(rho)
    d = np.diag(C)
    ok = ~np.isnan(d)
    np.testing.assert_allclose(d[ok], 1.0, atol=1e-12)
    # undefined entries are flagged as NaN, not propagated as garbage
    assert np.isnan(C).any() or np.nanmax(C) < 10


@pytest.mark.parametrize("density, defined", [(1e-13, True), (1e-15, False)])
def test_contrast_floor(density, defined):
    """Contrast is defined where the mean density exceeds CONTRAST_FLOOR
    (1e-14): a uniform rho of 1e-13 has contrast 1, one of 1e-15 NaN."""
    C = contrast(np.full((3, 3), density, dtype=complex))
    if defined:
        np.testing.assert_allclose(C, 1.0, rtol=1e-12)
    else:
        assert np.isnan(C).all()


def test_visibility_no_fringes_for_single_packet(ph):
    # position the packet inside the antipode window without splitting
    cfg = WavepacketConfig(K0=K0, dK0=DK0, t_start=-30.0, t_end=60.0,
                           r_offset=40.0)
    st = init_wavepacket(cfg, ph.modes)
    prof = np.real(np.diag(reduced_density(st, ph.modes)))
    assert fringe_visibility(prof, 40) == 0.0


def test_split_ratio_limits(ph, u0):
    # V0 = 0: all transmitted
    p0 = canonical_params().replace(V0=0.0)
    ph0 = projected_hamiltonian(p0)
    st = propagate(init_wavepacket(canonical_config(), ph0.modes), ph0, 35.0)
    refl, trans = split_ratio(st, ph0.modes, K0)
    assert refl < 0.05 and trans > 0.95
    assert refl + trans == pytest.approx(1.0, abs=1e-8)
    # strong barrier: almost everything reflected (measured after the
    # bounce but before the reflected front reaches the antipode)
    pb = canonical_params().replace(V0=8.0)
    phb = projected_hamiltonian(pb)
    stb = propagate(init_wavepacket(canonical_config(), phb.modes), phb, 28.0)
    reflb, transb = split_ratio(stb, phb.modes, K0)
    assert reflb > 0.9


def test_split_timing_error(ph, u0):
    # at t = 0 the packet straddles the impurity: partition undefined
    with pytest.raises(TimingError):
        split_ratio(propagate(u0, ph, 0.0), ph.modes, K0)


def test_calibration(ph):
    p = canonical_params()
    cfg = canonical_config()
    assert calibrate_v0(*calibration_args(p, cfg), target=0.0) == 0.0
    v0 = calibrate_v0(*calibration_args(p, cfg), 0.5)
    assert v0 > 0  # opposite sign to D < 0
    v0_again = calibrate_v0(*calibration_args(p, cfg), 0.5)
    assert v0 == v0_again     # deterministic
    phc = projected_hamiltonian(p.replace(V0=v0))
    st = propagate(init_wavepacket(cfg, phc.modes), phc, 35.0)
    refl, trans = split_ratio(st, phc.modes, K0)
    assert abs(refl - 0.5) < 0.02


def test_mirrored_packet_calibration():
    """The mirror (J, D, V0) -> (-J, -D, -V0) sends the packet in from
    r > 0: it calibrates to minus the canonical V0 and splits the same."""
    tol = 1e-10
    p, cfg = canonical_params(V0=0.0), canonical_config()
    mirrored = p.replace(J=-p.J, D=-p.D)
    v0 = calibrate_v0(*calibration_args(p, cfg), 0.5)
    v0_m = calibrate_v0(*calibration_args(mirrored, cfg), 0.5)
    assert abs(v0_m + v0) <= tol * abs(v0)
    splits = []
    for q in (p.replace(V0=v0), mirrored.replace(V0=v0_m)):
        ph = projected_hamiltonian(q)
        st = propagate(init_wavepacket(cfg, ph.modes), ph, 35.0)
        splits.append(split_ratio(st, ph.modes, cfg.K0))
    assert np.abs(np.subtract(*splits)).max() <= tol, splits


def _window_split(st, modes, buffer):
    """Reference: (reflected, transmitted, impurity weight, antipode
    weight) from the explicit fold-weighted sum of |Psi(r, s)|^2 over the
    |s| <= N/2 window."""
    N = modes.params.N
    r, s, psi = realspace_amplitude(st, modes)
    win = (s > -N // 2) & (s <= N // 2)
    w = np.abs(psi[:, win]) ** 2 @ np.where(np.abs(s[win]) == N // 2, 1.0, 2.0)
    w /= w.sum()
    cut = 0.5 * w[(r == 0) | (r == N)].sum()
    return (w[r < 0].sum() + cut, w[(r > 0) & (r != N)].sum() + cut,
            w[np.abs(r) <= buffer].sum(), w[np.abs(np.abs(r) - N) <= buffer].sum())


def _ill_defined(imp, anti):
    """The shared strict gate applied to explicitly summed weights."""
    try:
        dynamics.check_partition(imp, anti)
    except TimingError:
        return True
    return False


@pytest.mark.filterwarnings("ignore:packet clipped")
@pytest.mark.parametrize("N", [12, 40, 200])
def test_split_ratio_matches_window_sum(N):
    """The K-space region forms give the explicit window sum's split and
    raise TimingError for the same states, ties included; the opposite
    arrival side swaps the two halves."""
    ph, states = _k_space_states(N)
    for label, st in states:
        want_r, want_t, imp, anti = _window_split(st, ph.modes, SPLIT_BUFFER)
        refl, trans = split_ratio(st, ph.modes, K0, strict=False)
        assert abs(refl - want_r) < 1e-12, label
        assert abs(trans - want_t) < 1e-12, label
        assert abs(refl + trans - 1.0) < 1e-14, label
        # a packet arriving from r > 0 swaps the halves exactly
        assert split_ratio(st, ph.modes, -K0, strict=False) == (trans, refl)
        if _ill_defined(imp, anti):
            with pytest.raises(TimingError):
                split_ratio(st, ph.modes, K0)
        else:
            assert split_ratio(st, ph.modes, K0) == (refl, trans)


@pytest.mark.filterwarnings("ignore:packet clipped")
def test_partition_gate_passes_weight_at_limit():
    """The zone-edge mode is flat in r and lives on odd r only: at
    N = 80 the SPLIT_BUFFER = 4 sites around the impurity hold the four
    odd r = +-1, +-3 of 80, 4/80, exactly the 5% limit.  Both the
    K-space forms and the explicit window sum let it through, however
    each sum rounds; a weight above the limit by more than rounding
    still fails."""
    assert SPLIT_BUFFER == 4
    ph, states = _k_space_states(80)
    st = dict(states)["mode 79"]
    refl, trans, imp, anti = _window_split(st, ph.modes, SPLIT_BUFFER)
    assert abs(imp - 0.05) < 1e-15 and anti < 0.10
    assert not _ill_defined(imp, anti)
    got = split_ratio(st, ph.modes, K0)
    assert abs(got[0] - refl) < 1e-12 and abs(got[1] - trans) < 1e-12
    assert _ill_defined(0.05 + 1e-9, 0.0) and _ill_defined(0.0, 0.10 + 1e-9)


def test_split_gate_same_samples_as_window_sum():
    """Along the canonical trajectory the reflected fraction is NaN at
    exactly the samples where the explicit window sum is ill-defined."""
    p = canonical_params(V0=0.5474)
    ph = projected_hamiltonian(p)
    st0 = init_wavepacket(canonical_config(), ph.modes)
    samples = run_trajectory(ph, st0, canonical_config())
    gated = 0
    for smp in samples:
        refl, _, imp, anti = _window_split(propagate(st0, ph, smp.t),
                                           ph.modes, SPLIT_BUFFER)
        ill = _ill_defined(imp, anti)
        assert math.isnan(smp.reflected) == ill, smp.t
        if ill:
            gated += 1
        else:
            assert abs(smp.reflected - refl) < 1e-12, smp.t
    assert 0 < gated < len(samples)


def _calibrate_v0_loop(p, cfg, target=0.5):
    """Reference: plain bisection on |V0| in [0, |D|], every midpoint
    evaluated, stopping once the bracket is narrower than 1e-12."""
    modes = ModeBasis(p)
    G = impurity_overlap(modes)
    u0 = init_wavepacket(cfg, modes)
    sgn = -np.sign(p.D)

    def reflected(v0_abs):
        ph = build_projected_hamiltonian(modes, G, float(sgn * v0_abs))
        return split_ratio(propagate(u0, ph, 35.0), modes, cfg.K0,
                           strict=False)[0]

    lo, hi = 0.0, abs(p.D)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if reflected(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return float(sgn * 0.5 * (lo + hi))


def _counting_builds(monkeypatch):
    """The V0 of every Hamiltonian that calibrate_v0 builds."""
    calls = []

    def counted(*args):
        build = projected.hamiltonian_builder(*args)
        return lambda V0: calls.append(V0) or build(V0)

    monkeypatch.setattr(dynamics, "hamiltonian_builder", counted)
    return calls


@pytest.mark.filterwarnings("ignore:packet clipped")
@pytest.mark.parametrize("N", [40, 200])
@pytest.mark.parametrize("D, dK0", [(-4.5, DK0), (-4.43, DK0 - 0.0031),
                                    (-4.58, DK0 - 0.0014)])
def test_calibration_equals_plain_bisection(monkeypatch, N, D, dK0):
    """The Brent-steered bisection returns the plain loop's V0 bit for
    bit, with at most 20 Hamiltonian builds."""
    p = canonical_params(V0=0.0).replace(N=N, D=D)
    cfg = WavepacketConfig(K0=K0, dK0=dK0, t_start=-30.0, t_end=60.0)
    want = _calibrate_v0_loop(p, cfg)
    calls = _counting_builds(monkeypatch)
    assert calibrate_v0(*calibration_args(p, cfg), 0.5) == want
    assert 0 < len(calls) <= 20


@pytest.mark.filterwarnings("ignore:packet clipped")
@pytest.mark.parametrize("N, D, dK0", [(40, -4.500401, 0.129026),
                                       (200, -4.582654, 0.129114),
                                       (40, -4.520072, 0.128126)])
def test_calibration_within_bracket_of_complex_bisection(N, D, dK0):
    """Jittered benchmark packets (seeds 3, 9 and 10) on which the trials'
    real sector solve moves the calibrated V0 off the complex plain
    loop's by rounding: it stays within the bisection's 1e-12 bracket."""
    p = canonical_params(V0=0.0).replace(N=N, D=D)
    cfg = WavepacketConfig(K0=K0, dK0=dK0, t_start=-30.0, t_end=60.0)
    want = _calibrate_v0_loop(p, cfg)
    assert abs(calibrate_v0(*calibration_args(p, cfg), 0.5) - want) < 1e-12


def test_calibration_reads_gates_once(monkeypatch):
    """A calibration reads G's gate maxima once, however many V0 it tries,
    and solves no complex eigh."""
    gates, calls = projected._gates, []
    monkeypatch.setattr(projected, "_gates", lambda *args: calls.append(args) or gates(*args))

    def complex_solve(ph):
        raise AssertionError("a trial V0 solved the complex eigh")

    monkeypatch.setattr(projected.ProjectedHamiltonian, "eigensystem", complex_solve)
    builds = _counting_builds(monkeypatch)
    calibrate_v0(*calibration_args(canonical_params(V0=0.0), canonical_config()), 0.5)
    assert len(calls) == 1 and len(builds) > 1


@pytest.mark.filterwarnings("ignore:packet clipped")
def test_calibration_target_below_free_reflection(monkeypatch):
    """A target at or below the V0 = 0 reflection has no sign change for
    Brent's method: every midpoint is evaluated and no NumericalError
    escapes."""
    p, cfg = canonical_params(V0=0.0), canonical_config()
    ph0 = projected_hamiltonian(p)
    st = propagate(init_wavepacket(cfg, ph0.modes), ph0, 35.0)
    r0 = split_ratio(st, ph0.modes, K0, strict=False)[0]
    for target in (r0, 0.5 * r0):
        want = _calibrate_v0_loop(p, cfg, target)
        assert calibrate_v0(*calibration_args(p, cfg), target=target) == want


@pytest.mark.filterwarnings("ignore:packet clipped")
def test_calibration_warns_target_below_free_reflection():
    """The warning names the target and the V0 = 0 reflection, and does
    not blame non-monotonicity."""
    p, cfg = canonical_params(V0=0.0), canonical_config()
    ph0 = projected_hamiltonian(p)
    st = propagate(init_wavepacket(cfg, ph0.modes), ph0, 35.0)
    r0 = split_ratio(st, ph0.modes, K0, strict=False)[0]
    target = 0.5 * r0
    match = re.escape(f"split target {target} is at or below the V0 = 0 "
                      f"reflection {r0:.4f}")
    with pytest.warns(UserWarning, match=match) as caught:
        calibrate_v0(*calibration_args(p, cfg), target=target)
    assert not any("non-monotone" in str(w.message) for w in caught)


@pytest.mark.parametrize("low, high, warns", [(0.2, 0.4, True), (0.29, 0.31, False)])
def test_calibration_warns_beyond_its_tolerance(monkeypatch, low, high, warns):
    """A reflected fraction that steps from `low` to `high` at |V0| = 2
    leaves the calibration 0.1 or 0.01 off the target 0.3: it warns
    beyond CALIBRATION_TOL (0.02) and not within it.  The step stands in
    for each trial's solve, propagation and split."""
    monkeypatch.setattr(dynamics, "hamiltonian_builder", lambda modes, overlap: float)
    monkeypatch.setattr(dynamics, "diagonalize_projected", lambda v0: v0)
    monkeypatch.setattr(dynamics, "propagate", lambda u0, v0, t: v0)
    monkeypatch.setattr(dynamics, "split_ratio", lambda v0, modes, K0, strict:
                        (low if abs(v0) < 2.0 else high, None))
    modes = ModeBasis(canonical_params(V0=0.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        v0 = calibrate_v0(modes, None, None, K0, 0.3)
    assert abs(v0 - 2.0) < 1e-12
    assert ["non-monotone" in str(w.message) for w in caught] == [True] * warns


def test_mode_distribution(ph, u0):
    w = mode_distribution(u0)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    p0 = canonical_params().replace(V0=0.0)
    ph0 = projected_hamiltonian(p0)
    st0 = init_wavepacket(canonical_config(), ph0.modes)
    before = mode_distribution(st0)
    after = mode_distribution(propagate(st0, ph0, 40.0))
    np.testing.assert_allclose(before, after, atol=1e-12)


def test_trajectory_sampling():
    p = canonical_params(V0=0.5474)
    cfg = WavepacketConfig(K0=K0, dK0=DK0, t_start=-30.0, t_end=-20.0)
    ph = projected_hamiltonian(p.replace(V0=0.5474))
    samples = run_trajectory(ph, init_wavepacket(cfg, ph.modes), cfg)
    assert [s.t for s in samples] == [-30.0 + i for i in range(11)]
    assert all(abs(s.norm - 1.0) < 1e-10 for s in samples)
    assert samples[0].entropy == pytest.approx(0.192, abs=0.01)


def test_trajectory_frees_its_basis():
    """Once the trajectory of a calibrated run returns, no module cache
    keeps its basis alive: the split forms that the calibration and the
    run share are freed with it, before the snapshots, which never read
    them."""
    cfg = canonical_config(t_end=-25.0)
    modes, G, u0, _ = calibration_args(canonical_params(), cfg)
    ph = build_projected_hamiltonian(modes, G, calibrate_v0(modes, G, u0, K0, 0.5))
    run_trajectory(ph, u0, cfg)
    basis = weakref.ref(modes)
    del modes, G, ph
    assert basis() is None


def test_trajectory_drops_its_split_forms(ph, u0):
    """run_trajectory drops its basis's split forms before it returns,
    though the basis lives on: the snapshots after it never read them."""
    run_trajectory(ph, u0, canonical_config(t_end=-28.0))
    assert ph.modes not in dynamics._SPLIT_FORMS


def _calibrated_run(tmp_path, **packet):
    """cli.main on a calibrated N = 40 wavepacket run; returns its exit code."""
    cfg = {"model": {"N": 40, "J": -1.0, "D": -4.5, "V0": 0.0},
           "wavepacket": dict({"K0": K0, "dK0": DK0, "t_start": -30.0,
                               "calibrate_v0": True}, **packet)}
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return main(["wavepacket", "--config", str(path), "--out", str(tmp_path / "out")])


@pytest.mark.filterwarnings("ignore:packet clipped")
def test_failed_run_frees_its_basis(tmp_path, monkeypatch):
    """A calibrated wavepacket run that fails after its calibration, here
    on a snapshot time whose phase overflows (exit 1), frees its basis
    and the split forms that the calibration built, as a run that
    returns does: no module memo keeps them."""
    split_forms, refs = dynamics._split_forms, []

    def spy(modes):
        forms = split_forms(modes)
        refs.extend(map(weakref.ref, (modes, *forms)))
        return forms

    monkeypatch.setattr(dynamics, "_split_forms", spy)
    assert _calibrated_run(tmp_path, t_end=-29.0, snapshots=[1e308]) == 1
    assert refs and all(ref() is None for ref in refs)


@pytest.mark.filterwarnings("ignore:packet clipped")
def test_calibrated_run_builds_its_split_forms_once(tmp_path, monkeypatch):
    """Through cli.main, the calibration's trials and every trajectory
    sample read one set of split forms: they are built once per run."""
    split_forms, seen, reads = dynamics._split_forms, [], []

    def spy(modes):
        forms = split_forms(modes)
        if not any(forms is f for f in seen):
            seen.append(forms)
        reads.append(modes)
        return forms

    monkeypatch.setattr(dynamics, "_split_forms", spy)
    builds = _counting_builds(monkeypatch)
    assert _calibrated_run(tmp_path, t_end=-25.0) == 0
    # one read per trial V0 and one per sample of t = -30 .. -25
    assert len(reads) == len(builds) + 6 and len(builds) > 1
    assert len(seen) == 1


def _full_basis_reflected(exact_pair_run, p, cfg, t_measure):
    ph = projected_hamiltonian(p)
    st0 = init_wavepacket(cfg, ph.modes)
    refl_proj = split_ratio(propagate(st0, ph, t_measure), ph.modes, cfg.K0,
                            strict=False)[0]
    run = exact_pair_run(p, ph.modes, st0)
    psi = run.state(t_measure)
    refl_full = 0.0
    for i, (m, n) in enumerate(zip(run.basis.m.tolist(), run.basis.n.tolist())):
        wgt = abs(psi[i]) ** 2
        s, r = n - m, m + n
        if s > p.N // 2:
            r = r - p.N if r > 0 else r + p.N
        if r < 0:
            refl_full += wgt
    return refl_full, refl_proj


def test_projected_dynamics_matches_full_basis(exact_pair_run):
    """Arbiter check: the exact pair-basis propagation reproduces the
    band-projected split ratio.  On the reflection plateau the agreement
    is a few percent; right at the 50/50 point refl(V0) is steepest and
    the projection error is amplified, so the bound is looser there."""
    cfg = canonical_config()
    full, proj = _full_basis_reflected(exact_pair_run,
                                       canonical_params(V0=1.0), cfg, 35.0)
    assert proj > 0.9
    assert abs(full - proj) < 0.06
    full, proj = _full_basis_reflected(exact_pair_run,
                                       canonical_params(V0=0.5474), cfg, 35.0)
    assert abs(full - proj) < 0.10


def test_observables_write_nothing_onto_basis():
    """A calibrated run and its snapshot observables leave on the basis
    only what ModeBasis sets itself: its fields and cached properties."""
    p, cfg = canonical_params(V0=0.0), canonical_config(t_end=-25.0)
    modes, G, u, _ = calibration_args(p, cfg)
    v0 = calibrate_v0(modes, G, u, K0, 0.5)
    ph = build_projected_hamiltonian(modes, G, v0)
    run_trajectory(ph, u, cfg)
    st = propagate(u, ph, 35.0)
    realspace_amplitude(st, modes)
    contrast(reduced_density(st, modes))
    own = set(vars(ModeBasis(p))) | {
        name for name, attr in vars(ModeBasis).items()
        if isinstance(attr, functools.cached_property)}
    assert set(vars(modes)) <= own
