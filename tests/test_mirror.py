"""Mirror symmetry: (J, D, V0, E0) -> (-J, -D, -V0, -E0) sends H to -H.

Every spectrum is negated, so the bound-state count is unchanged and
the pole energies are negated.  A sign error in a branch selector
(pole_branch, the K' = 0 / pi/2 rule) breaks one of these.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biximp import (BiximpError, ModelParams, build_projected_hamiltonian,
                    count_bound_states, diagonalize_full,
                    diagonalize_projected, find_pole)

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
    spectra = [diagonalize_projected(build_projected_hamiltonian(q)).energies
               for q in (p, mirror(p))]
    assert_negated(*spectra)


@settings(max_examples=50, deadline=None)
@given(N=st.sampled_from((40, 100)), J=HOPPING, D_over_J=D_OVER_J,
       V0=COUPLING, E0=COUPLING)
def test_bound_state_count_is_unchanged(N, J, D_over_J, V0, E0):
    p = ModelParams(N=N, J=J, D=J * D_over_J, E0=E0, V0=V0)
    assert count_bound_states(mirror(p)) == count_bound_states(p)


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
