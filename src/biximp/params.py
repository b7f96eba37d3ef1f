"""Model parameters and the centre-of-mass wavevector grid.

Units: hbar = 1, energies in units of |J|, time in units of 1/|J|.
The lattice is a ring of N sites (N even) with excitation hopping J,
nearest-neighbour exciton-exciton interaction D, single-excitation
energy E0 and a single impurity of strength V0 at site 0.  The hard-core
constraint (one excitation per site) is enforced everywhere by basis
construction, never by a finite penalty term.

The two-excitation problem separates into a centre-of-mass coordinate
r = m + n and a relative coordinate s = n - m.  On the even r+s
sublattice the CM wavevector K is folded into (-pi/2, pi/2], sampled as
K = pi * l_K / N with integer l_K; the parity of l_K selects the even or
odd branch of the relative-coordinate wavefunction.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the lattice model.

    N  -- number of lattice sites (even, >= 4)
    J  -- hopping amplitude
    D  -- exciton-exciton interaction
    E0 -- one-particle excitation energy
    V0 -- impurity strength at site 0
    """

    N: int
    J: float
    D: float
    E0: float = 0.0
    V0: float = 0.0

    def __post_init__(self):
        if self.N < 4 or self.N % 2 != 0:
            raise ParameterError(f"N must be even and >= 4, got {self.N}")
        if self.J == 0.0:
            raise ParameterError("hopping J must be nonzero")

    def validate_biexciton_regime(self):
        """Require |D| > 2|J| (one pairing solution per K) and sgn(J) = sgn(D).

        The sign convention fixes the real part of the relative wavevector
        to zero on the folded K domain; opposite signs would shift the
        domain instead and are not supported.
        """
        if abs(self.D) <= 2.0 * abs(self.J):
            raise ParameterError(
                f"biexciton requires |D| > 2|J|, got D={self.D}, J={self.J}")
        if np.sign(self.D) != np.sign(self.J):
            raise ParameterError(
                "sign convention sgn(J) = sgn(D) required for the folded-zone basis")

    def replace(self, **kwargs):
        from dataclasses import replace
        return replace(self, **kwargs)

    @property
    def sites(self):
        """Site labels n in [-N/2+1, N/2]; the impurity sits at n = 0."""
        return np.arange(-self.N // 2 + 1, self.N // 2 + 1)


def k_grid(params):
    """All N CM modes as arrays (l_K, K), K strictly increasing.

    l_K runs over (-N/2, N/2]; K = pi*l_K/N covers the folded zone
    (-pi/2, pi/2] with spacing pi/N, K = pi/2 attained exactly once at
    l_K = N/2.
    """
    l_K = np.arange(-params.N // 2 + 1, params.N // 2 + 1)
    return l_K, np.pi * l_K / params.N


def wrap_site(n, N):
    """Map an arbitrary site label into the canonical window [-N/2+1, N/2]."""
    return (n - (-N // 2 + 1)) % N + (-N // 2 + 1)
