"""Biexciton-impurity scattering on a 1D ring lattice.

Analytic pair eigenbasis, exact exciton-impurity solution, projected
impurity diagonalization, reflection-amplitude poles, full two-excitation
diagonalization with bound-state taxonomy, and wavepacket entanglement
dynamics.  See README.md for the command-line interface.
"""

from .biexciton import ModeBasis, alpha
from .dynamics import (WavepacketConfig, WavepacketState, calibrate_v0,
                       contrast, entropy, fringe_visibility, init_wavepacket,
                       mode_distribution, propagate, realspace_amplitude,
                       reduced_density, run_trajectory, schmidt_weights,
                       split_ratio)
from .errors import (BiximpError, ConfigError, ExistenceError, NumericalError,
                     ParameterError, RangeError, RegimeError, TimingError)
from .exciton import (ExcitonBoundState, ExcitonSpectrum,
                      exciton_bound_wavevector_largen, exciton_dispersion,
                      exciton_reflection_amplitude, exciton_site_hamiltonian,
                      solve_exciton_spectrum)
from .pairbasis import (PairBasis, StateClassification, bic_energies,
                        build_pair_hamiltonian, classify_state,
                        diagonalize_full, find_bic_state, schmidt_number)
from .params import ModelParams, k_grid
from .projected import (BoundStateRecord, ProjectedHamiltonian, SpectrumResult,
                        build_projected_hamiltonian, classify_bound_states,
                        count_bound_states, diagonalize_projected,
                        impurity_overlap, phase_diagram, potential_matrix)
from .scattering import (PoleResult, biexciton_reflection_amplitude,
                         find_pole, phi_complex_k, s_function)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
