"""Reflection-amplitude poles of the impurity-dressed biexciton.

The first-order continued-fraction treatment of the scattering problem
gives a closed reflection amplitude for complex CM wavevector
K = K' + i K'':

    R_b(K) = 2 D V0 S / [(J^2 cos 2K' sinh 2|K''| - 2 D V0 S)
                          - i J^2 sin 2K' cosh 2|K''|]

with the relative-coordinate averaging function

    S(K', |K''|) = sum_{s = -N/2+1}^{N/2} e^{-2|K''| |s|}
                   phi_{K'-i|K''|}(s) phi_{K'+i|K''|}(s),

where phi at complex wavevector is the analytic continuation of the
closed pair wavefunction through alpha_K = 2 J cos K / D.  Note the
|s| damping: the bare-s continuation of the diagonal matrix element
grows with |K''| and the resulting pole condition has no solution in
the parameter range of interest, so the damped form, which behaves as
a genuine averaging factor (monotone in |K''|, bounded by S(K', 0)),
is used throughout.  Poles sit at K' = 0 when sgn(D) = sgn(V0) and at
K' = pi/2 otherwise, at the K'' root of

    sinh(2|K''|) = 2 D V0 S(K', |K''|) / (J^2 cos 2K').

In the closure's first-order ingredients, beta = <V> = (4 V0/N) S and
gamma = i N D beta^2 / (2 J^2 sin 2K), the amplitude is
R_b = gamma / (beta - gamma); the tests check that identity.
"""

import math
from dataclasses import dataclass

import numpy as np

from .biexciton import closed_phi
from .errors import NumericalError, ParameterError, RangeError
from .roots import scan_roots

POLE_RESIDUAL_TOL = 1e-10
POLE_K_MAX = 4.0          # find_pole scans 1e-6 <= K'' <= POLE_K_MAX
POLE_N_SCAN = 800         # on this many points


def _j_squared(params):
    """J^2, or RangeError when it overflows the float range."""
    try:
        return params.J ** 2
    except OverflowError as exc:
        raise RangeError(f"J^2 overflows for J = {params.J}") from exc


def _two_d_v0(params):
    """2 D V0, or RangeError when it overflows the float range."""
    if not math.isfinite(x := 2.0 * params.D * params.V0):
        raise RangeError(f"2 D V0 overflows for D = {params.D}, V0 = {params.V0}")
    return x


def phi_complex_k(Kc, s, params):
    """Pair wavefunction continued to complex CM wavevector (even branch).

    alpha and the decay constant k_c = -log(alpha) go complex; the
    even/odd distinction is exponentially small in N and the even form
    is used.  phi(0) = 0 by the hard core.  Elementwise in Kc and s.
    """
    a = 2.0 * params.J * np.cos(np.asarray(Kc, dtype=complex)) / params.D
    if np.any(a == 0):
        raise RangeError("alpha = 0 at complex K: delta limit not continuable")
    return closed_phi(-np.log(a), s, params.N)


def s_function(k_prime, k_doubleprime, params):
    """Averaged-potential function S(K', |K''|), elementwise in K' and K''.

    cos of the conjugate is the conjugate of cos, so the two continued
    wavefunctions are complex conjugates and
    S = sum_s e^{-2|K''||s|} |phi_{K'-i|K''|}(s)|^2 is real by construction.
    """
    s = params.sites
    kp = np.asarray(k_prime, dtype=float)[..., None]
    kpp = np.abs(np.asarray(k_doubleprime, dtype=float))[..., None]
    phi = phi_complex_k(kp - 1j * kpp, s, params)
    return np.sum(np.exp(-2.0 * kpp * np.abs(s)) * np.abs(phi) ** 2, axis=-1)


def biexciton_reflection_amplitude(Kc, params):
    """R_b at complex K, elementwise; complex infinity at the pole.

    Numerator and denominator are divided by cosh 2|K''|, so both stay
    finite as |K''| grows and R_b goes to zero.
    """
    Kc = np.asarray(Kc, dtype=complex)
    if params.V0 == 0.0:
        return np.zeros_like(Kc)[()]
    p = params
    kp, kpp = Kc.real, np.abs(Kc.imag)
    sech = 2.0 * np.exp(-2.0 * kpp) / (1.0 + np.exp(-4.0 * kpp))
    num = _two_d_v0(p) * s_function(kp, kpp, p) * sech
    den = _j_squared(p) * (np.cos(2 * kp) * np.tanh(2 * kpp) - 1j * np.sin(2 * kp)) - num
    pole = np.abs(den) < 1e-12 * np.maximum(np.abs(num), sech)
    return np.where(pole, complex(math.inf, 0.0),
                    num / np.where(pole, 1.0, den))[()]


@dataclass(frozen=True)
class PoleResult:
    K_prime: float
    K_doubleprime: float
    energy: float
    residual: float


def pole_branch(params):
    """K' = 0 for sgn(D) = sgn(V0), K' = pi/2 for opposite signs."""
    if params.V0 == 0.0 or params.D == 0.0:
        raise ParameterError("pole branch undefined for D V0 = 0")
    return 0.0 if params.D * params.V0 > 0 else math.pi / 2


def find_pole(params):
    """Root of sinh(2 K'') = 2 D V0 S / (J^2 cos 2K') on the sign branch.

    The first root of a scan is taken, a sign change polished with Brent
    or a scan point where the equation holds exactly; S is re-evaluated
    at every K'', so the self-consistency is exact at the root.  The
    pole energy follows from the large-N dispersion at complex K.
    """
    p = params
    kp = pole_branch(p)
    c2 = math.cos(2.0 * kp)
    j2, dv2 = _j_squared(p), _two_d_v0(p)

    def f(k):
        return np.sinh(2.0 * k) - dv2 * s_function(kp, k, p) / (j2 * c2)

    k = next(scan_roots(f, np.linspace(1e-6, POLE_K_MAX, POLE_N_SCAN)), None)
    if k is None:
        raise NumericalError(
            f"no pole found on branch K'={kp:.4f} for D={p.D}, V0={p.V0} "
            f"(scanned K'' up to {POLE_K_MAX})")
    resid = abs(f(k))
    if resid > POLE_RESIDUAL_TOL:
        raise NumericalError(f"pole residual {resid:.2e} above tolerance")
    a = 2.0 * p.J * np.cos(kp + 1j * k) / p.D
    energy = 2.0 * p.E0 + (p.D * (1.0 + a * a)).real
    return PoleResult(kp, k, energy, resid)
