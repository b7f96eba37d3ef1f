"""Mirror symmetry: (J, D, V0, E0) -> (-J, -D, -V0, -E0) sends H to -H.

Every spectrum is negated, so the bound-state count is unchanged and
the pole energies are negated.  A sign error in a branch selector
(pole_branch, the K' = 0 / pi/2 rule) breaks one of these.
"""

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from biximp import (BiximpError, ModeBasis, ModelParams, count_bound_states,
                    diagonalize_full, diagonalize_projected, find_pole,
                    impurity_overlap)
from biximp.cli import main
from conftest import projected_hamiltonian

SPECTRUM_RTOL = 1.2e-14     # relative to the largest |energy|

COUPLING = st.floats(-10.0, 10.0)
HOPPING = st.floats(0.1, 10.0) | st.floats(-10.0, -0.1)
# D in the biexciton regime: sgn(D) = sgn(J) and |D| > 2|J|
D_OVER_J = st.floats(2.2, 8.0)


def mirror(p):
    return p.replace(J=-p.J, D=-p.D, V0=-p.V0, E0=-p.E0)


def assert_negated(energies, mirrored):
    """The mirrored spectrum, ascending, is minus the original reversed."""
    scale = np.max(np.abs(energies))
    assert np.max(np.abs(mirrored + energies[::-1])) <= SPECTRUM_RTOL * scale


@settings(max_examples=50, deadline=None)
@given(N=st.sampled_from((8, 12)), J=HOPPING, D=COUPLING, V0=COUPLING,
       E0=COUPLING)
def test_exact_pair_spectrum_is_negated(N, J, D, V0, E0):
    p = ModelParams(N=N, J=J, D=D, E0=E0, V0=V0)
    assert_negated(diagonalize_full(p)[1].energies,
                   diagonalize_full(mirror(p))[1].energies)


@settings(max_examples=50, deadline=None)
@given(J=HOPPING, D_over_J=D_OVER_J, V0=COUPLING, E0=COUPLING)
def test_projected_spectrum_is_negated(J, D_over_J, V0, E0):
    p = ModelParams(N=40, J=J, D=J * D_over_J, E0=E0, V0=V0)
    spectra = [diagonalize_projected(projected_hamiltonian(q)).energies
               for q in (p, mirror(p))]
    assert_negated(*spectra)


@settings(max_examples=50, deadline=None)
@given(N=st.sampled_from((40, 100)), J=HOPPING, D_over_J=D_OVER_J,
       V0=COUPLING, E0=COUPLING)
def test_bound_state_count_is_unchanged(N, J, D_over_J, V0, E0):
    p = ModelParams(N=N, J=J, D=J * D_over_J, E0=E0, V0=V0)
    counts = []
    for q in (p, mirror(p)):
        modes = ModeBasis(q)
        counts.append(count_bound_states(modes, impurity_overlap(modes), [q.V0])[0])
    assert counts[0] == counts[1]


@settings(max_examples=50, deadline=None)
@given(J=HOPPING, D_over_J=D_OVER_J, V0=COUPLING, E0=COUPLING)
def test_pole_energy_is_negated(J, D_over_J, V0, E0):
    """Exactly: the pole equation sees D V0 and J^2 only, and the energy
    2 E0 + D (1 + a^2) with a = 2 J cos K / D flips sign bit for bit."""
    p = ModelParams(N=40, J=J, D=J * D_over_J, E0=E0, V0=V0)
    try:
        want = -find_pole(p).energy
    except BiximpError as exc:
        with pytest.raises(type(exc)):
            find_pole(mirror(p))
    else:
        assert find_pole(mirror(p)).energy == want


def test_pole_scan_is_mirrored(tmp_path):
    """`poles` scans each V0 sign on the branch its pole is solved on, so
    at D < 0 the scan holds the poles too: the mirrored pole_scan.csv is
    the original's with V0 negated, bit for bit."""
    p = ModelParams(N=40, J=1.0, D=4.0, E0=0.0, V0=0.25)
    tables = []
    for q in (p, mirror(p)):
        out = tmp_path / f"D{q.D:g}"
        cfg = tmp_path / f"D{q.D:g}.yaml"
        cfg.write_text(yaml.safe_dump({
            "model": {"N": q.N, "J": q.J, "D": q.D, "E0": q.E0, "V0": q.V0},
            "poles": {"K_doubleprime_max": 1.5, "n_scan": 200}}))
        assert main(["poles", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "pole_scan.csv").read_text().splitlines()[1:]
        tables.append(np.array([line.split(",") for line in lines], dtype=float))
    orig, mirrored = tables
    mirrored[:, 2] *= -1.0
    assert sorted(map(tuple, mirrored)) == sorted(map(tuple, orig))
