"""Inverse monodromy: build a potential whose lifted monodromy is prescribed.

The construction goes through an orbit whose radius-squared profile is a
closed-form exponential

    rho(theta) = exp(P1(theta) + r(theta / theta_M) + c theta^2 (theta_M - theta)^2)

where P1 is the Hermite cubic matching the endpoint data read off the
target's right Iwasawa coordinates, r is a perturbation from a fixed
finite-dimensional family satisfying r(0) = r'(0) = r(1) = r'(1) = 0 and
integral zero, and c is solved so the orbit sweeps total area 2 pi. The
angular endpoint data pins the monodromy exactly, so every choice of r
yields a different potential with the same lifted monodromy.

All pieces of the exponent are polynomials, so every rho derivative used by
the downstream transforms is an exact closed form.
"""

import math

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import chebyshev
from scipy.integrate import simpson
from scipy.optimize import brentq

from .cover import to_right_iwasawa, winding_exceeds
from .errors import DomainError, NumericalInvariantError
from .kepler import Orbit, potential_of_orbit

TAU = math.tau

DEFAULT_BASIS_SIZE = 8
MIN_SYNTH_STEPS = 16384
# Resolution rule for the synthesized potential: keep step * sqrt(max |q|)
# below this, which keeps a fixed-step RK4 pass at the same resolution
# comfortably inside the group element's congruence and determinant gates.
# Extreme targets (short angle, or long angle with opposing endpoint slope)
# produce |q| up to ~1e5, so the step count is chosen per profile.
_STEP_PHASE_BOUND = 0.004
NORMALIZE_RTOL = 1e-12
MAX_DOUBLINGS = 200
_EXP_CAP = 700.0

_BUMP = Polynomial([0.0, 0.0, 1.0, -2.0, 1.0])  # x^2 (1-x)^2


def base_polynomial(theta_m, rho0, nu0):
    """Hermite cubic P1 with P1(0) = P1'(0) = 0, P1(tm) = log rho0, P1'(tm) = nu0."""
    theta_m = float(theta_m)
    rho0 = float(rho0)
    nu0 = float(nu0)
    if not (theta_m > 0 and math.isfinite(theta_m)):
        raise DomainError("theta_m must be positive")
    if not (rho0 > 0 and math.isfinite(rho0)):
        raise DomainError("rho0 must be positive")
    if not math.isfinite(nu0):
        raise DomainError("nu0 must be finite")
    big_l = math.log(rho0)
    a = (3.0 * big_l - nu0 * theta_m) / theta_m ** 2
    b = (nu0 * theta_m - 2.0 * big_l) / theta_m ** 3
    return Polynomial([0.0, 0.0, a, b])


def perturbation_basis(size=DEFAULT_BASIS_SIZE):
    """Polynomials b_1..b_size on [0,1], each with double zeros at both ends
    and zero mean: Chebyshev-weighted bumps recentered against the plain bump."""
    size = int(size)
    if size < 0:
        raise DomainError("basis size must be nonnegative")
    affine = Polynomial([-1.0, 2.0])
    bump_mass = _poly_mass(_BUMP)
    basis = []
    for k in range(1, size + 1):
        cheb = Polynomial(chebyshev.cheb2poly(np.eye(k + 1)[k]))
        psi = _BUMP * cheb(affine)
        basis.append(psi - (_poly_mass(psi) / bump_mass) * _BUMP)
    return basis


def _poly_mass(p):
    anti = p.integ()
    return anti(1.0) - anti(0.0)


def perturbation_polynomial(coeffs):
    """Linear combination of the fixed basis; None or empty means zero."""
    if coeffs is None:
        return Polynomial([0.0])
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1:
        raise DomainError("perturbation coefficients must be a flat sequence")
    if coeffs.size and not np.all(np.isfinite(coeffs)):
        raise DomainError("perturbation coefficients must be finite")
    total = Polynomial([0.0])
    for c, b in zip(coeffs, perturbation_basis(coeffs.size)):
        total = total + c * b
    return total


def _weight_poly(theta_m):
    # theta^2 (theta_m - theta)^2
    return Polynomial([0.0, 0.0, theta_m ** 2, -2.0 * theta_m, 1.0])


def normalize_c(theta_m, p1, r, panels=4096):
    """The unique c making the profile sweep exactly 2 pi.

    The integral of exp(P1 + r + c w) with w = theta^2 (theta_m - theta)^2
    is strictly increasing in c from 0 to infinity, so an exponential
    bracket walk plus brentq pins it down; monotonicity is asserted along
    the walk since it is the uniqueness argument.
    """
    theta_m = float(theta_m)
    if not (theta_m > 0 and math.isfinite(theta_m)):
        raise DomainError("theta_m must be positive")
    panels = max(int(panels), 4096)
    grid = np.linspace(0.0, theta_m, panels + 1)
    base = p1(grid) + r(grid / theta_m)
    w = grid ** 2 * (theta_m - grid) ** 2

    def sweep(c):
        return simpson(np.exp(np.minimum(base + c * w, _EXP_CAP)), x=grid)

    s0 = sweep(0.0)
    if abs(s0 - TAU) <= NORMALIZE_RTOL * TAU:
        return 0.0
    sign = 1.0 if s0 < TAU else -1.0
    lo, s_lo = 0.0, s0
    hi = None
    step = sign
    for _ in range(MAX_DOUBLINGS):
        s = sweep(step)
        if sign * (s - s_lo) < 0:
            raise NumericalInvariantError("sweep integral is not monotone in c")
        if sign * (s - TAU) >= 0:
            hi = step
            break
        lo, s_lo = step, s
        step *= 2.0
    if hi is None:
        raise NumericalInvariantError(
            "sweep normalization failed to bracket after 200 doublings")
    a, b = (lo, hi) if sign > 0 else (hi, lo)
    c = brentq(lambda x: sweep(x) - TAU, a, b, xtol=1e-300, rtol=8.9e-16,
               maxiter=200)
    if abs(sweep(c) - TAU) > NORMALIZE_RTOL * TAU:
        raise NumericalInvariantError("sweep normalization missed 2 pi")
    return float(c)


class SynthesizedOrbit:
    """Orbit with the closed-form exponential profile.

    Holds the polynomial exponent and exposes the profile and its first
    two derivatives as callables; sample() materializes a kepler.Orbit
    carrying both the samples and the analytic callables.
    """

    __slots__ = ("theta_max", "p1", "r", "c", "exponent")

    def __init__(self, theta_max, p1, r, c):
        theta_max = float(theta_max)
        if not (theta_max > 0 and math.isfinite(theta_max)):
            raise DomainError("theta_max must be positive")
        scaled_r = Polynomial(r.coef / theta_max ** np.arange(r.coef.size))
        exponent = p1 + scaled_r + c * _weight_poly(theta_max)
        object.__setattr__(self, "theta_max", theta_max)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "c", float(c))
        object.__setattr__(self, "exponent", exponent)

    def __setattr__(self, name, value):
        raise AttributeError("SynthesizedOrbit is immutable")

    def rho(self, theta):
        return np.exp(self.exponent(np.asarray(theta, dtype=float)))

    def rho_prime(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self.exponent.deriv()(theta) * self.rho(theta)

    def rho_second(self, theta):
        theta = np.asarray(theta, dtype=float)
        e1 = self.exponent.deriv()(theta)
        e2 = self.exponent.deriv(2)(theta)
        return (e2 + e1 ** 2) * self.rho(theta)

    def sample(self, nodes=4097):
        grid = np.linspace(0.0, self.theta_max, int(nodes))
        return Orbit(self.theta_max, self.rho(grid),
                     rho_prime=self.rho_prime(grid),
                     rho_second=self.rho_second(grid),
                     value_fn=self.rho, slope_fn=self.rho_prime,
                     curvature_fn=self.rho_second)


def synthesize_orbit(theta_m, rho0, nu0, coeffs=None):
    """Profile hitting the endpoint data (theta_m, rho0, nu0) with sweep 2 pi."""
    p1 = base_polynomial(theta_m, rho0, nu0)
    r = perturbation_polynomial(coeffs)
    c = normalize_c(theta_m, p1, r)
    return SynthesizedOrbit(theta_m, p1, r, c)


def auto_steps(orb):
    """Time-grid resolution adequate for the profile's stiffest q value.

    In terms of the exponent E = log rho, the potential along the orbit is
    (2E'' - E'^2 - 4) / (4 rho^2), so its extreme value is available in
    closed form before any integration.
    """
    grid = np.linspace(0.0, orb.theta_max, 16385)
    rho = orb.rho(grid)
    e1 = orb.exponent.deriv()(grid)
    e2 = orb.exponent.deriv(2)(grid)
    qmax = np.abs((2.0 * e2 - e1 ** 2 - 4.0) / (4.0 * rho ** 2)).max()
    need = TAU * math.sqrt(qmax) / _STEP_PHASE_BOUND
    steps = MIN_SYNTH_STEPS
    while steps < need:
        steps *= 2
    return steps


def potential_with_monodromy(g, coeffs=None, steps=None):
    """Potential whose lifted monodromy is g; coeffs select among the fiber.

    g must lie in the monodromy image: the identity component with positive
    winding. steps defaults to auto_steps of the synthesized profile.
    """
    if g.component != 1:
        raise DomainError("monodromy targets lie in the identity component")
    if not winding_exceeds(g, 0.0):
        raise DomainError("monodromy targets must have positive winding")
    triple = to_right_iwasawa(g)
    orb = synthesize_orbit(triple.theta, triple.rho, triple.nu, coeffs)
    if steps is None:
        steps = auto_steps(orb)
    return potential_of_orbit(orb.sample(), steps)
