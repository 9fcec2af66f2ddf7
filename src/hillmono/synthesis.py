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
the downstream transforms is an exact closed form. The exponent E and its
derivatives are evaluated by one blocked Horner pass each (polyval), bit for
bit as numpy's Polynomial would, and rho, rho' and rho'' at a point set come
from one evaluation of E, E' and E'' (SynthesizedOrbit.jet).
"""

import functools
import math

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import chebyshev

from .cover import to_right_iwasawa, winding_exceeds
from .errors import DomainError, Immutable, NumericalInvariantError
from .integrate import MAX_STEPS
from .kepler import Orbit, potential_of_orbit

TAU = math.tau

DEFAULT_BASIS_SIZE = 8
# Largest perturbation coefficient count. The basis is kept in power form,
# whose coefficients grow about 5.8-fold per degree (7e11 at 16, 1e24 at
# 32), so evaluating it cancels. On the right Iwasawa targets (4, 1.3, 0.5),
# (2, 1, 0.5), (13, 2, -1), (0.3, 0.5, -2) and (5.3, 1.9, 0.84), with every
# coefficient set to one value from 1e-16 to 0.3, 45 was the largest count
# at which some value still changed the sampled orbit and passed its sweep
# check; none did at 44, 46, 47, 48, 50, 56 or 64. From about 400 on the
# basis itself overflows to NaN.
MAX_BASIS_SIZE = 45
MIN_SYNTH_STEPS = 16384
# Resolution rule for the synthesized potential: keep step * sqrt(max |q|)
# below this, which keeps a fixed-step RK4 pass at the same resolution
# comfortably inside the group element's congruence and determinant gates.
# Extreme targets (short angle, or long angle with opposing endpoint slope)
# produce |q| up to ~1e5, so the step count is chosen per profile.
_STEP_PHASE_BOUND = 0.004
NORMALIZE_RTOL = 1e-12
# Newton steps normalize_c takes at most; 3000 random targets took 3 to 14.
NEWTON_STEPS = 100
# Nodes of the uniform theta grid on which c is normalized and the orbit is
# sampled: Orbit checks the sweep by Simpson's rule on its own grid, so the
# two agree only on the same nodes.
THETA_NODES = 4097

_BUMP = Polynomial([0.0, 0.0, 1.0, -2.0, 1.0])  # x^2 (1-x)^2

# Points per Horner block: a block and its argument (256 kB) stay in cache
# across the passes over the coefficients.
_BLOCK = 16384


def polyval(coef, x):
    """The power series coef at x, bit for bit as Polynomial(coef)(x).

    With its default domain and window, Polynomial maps x to 0.0 + 1.0 * x,
    which is x except that -0.0 becomes 0.0, and then runs
    c0 = c[-1] + x * 0, c0 = c[i] + c0 * x down the coefficients. Here the
    same IEEE operations run in place, one block of points at a time, so
    no temporary is allocated per coefficient. The result is an array of
    x's shape, 0-d for a scalar.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    out = np.empty(flat.shape)
    arg = np.empty(min(flat.size, _BLOCK))
    top, *rest = np.asarray(coef, dtype=float)[::-1].tolist()
    for lo in range(0, flat.size, _BLOCK):
        o = out[lo:lo + _BLOCK]
        xs = np.add(flat[lo:lo + _BLOCK], 0.0, out=arg[:o.size])
        np.multiply(xs, 0.0, out=o)
        o += top
        for c in rest:
            o *= xs
            o += c
    return out.reshape(x.shape)


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


@functools.cache
def perturbation_basis(size=DEFAULT_BASIS_SIZE):
    """Polynomials b_1..b_size on [0,1], each with double zeros at both ends
    and zero mean: Chebyshev-weighted bumps recentered against the plain bump.

    Built once per size; the tuple and the coefficient arrays are read-only,
    so no caller can change the cached basis."""
    size = int(size)
    if not 0 <= size <= MAX_BASIS_SIZE:
        raise DomainError(f"perturbation coefficient count {size} is not in "
                          f"[0, {MAX_BASIS_SIZE}]")
    affine = Polynomial([-1.0, 2.0])
    bump_mass = _poly_mass(_BUMP)
    basis = []
    for k in range(1, size + 1):
        cheb = Polynomial(chebyshev.cheb2poly(np.eye(k + 1)[k]))
        psi = _BUMP * cheb(affine)
        b = psi - (_poly_mass(psi) / bump_mass) * _BUMP
        b.coef.setflags(write=False)
        basis.append(b)
    return tuple(basis)


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


def normalize_c(theta_m, p1, r):
    """The unique c making the profile sweep exactly 2 pi.

    The sweep is Simpson's rule on the THETA_NODES grid,
    S(c) = sum_i omega_i exp(x_i + c w_i), with x = P1 + r(theta / theta_m),
    positive weights omega_i and w = theta^2 (theta_m - theta)^2 >= 0,
    which is 0 only at the two end nodes. So S is strictly increasing,
    falls to the end-node sweep as c goes to -infinity and grows without
    bound as c goes to +infinity: a root exists, and is unique, exactly
    when the end nodes alone sweep less than 2 pi.

    h(c) = log S(c) - log 2 pi is a log-sum-exp of functions affine in c,
    so it is convex and increasing, and h' is the e-weighted mean of w.
    Newton's method from c = 0 therefore lands at or right of the root in
    one step and from there falls to it monotonically. It stops when h
    stops falling strictly or reaches 0, which in exact arithmetic happens
    only at the root.
    """
    theta_m = float(theta_m)
    if not (theta_m > 0 and math.isfinite(theta_m)):
        raise DomainError("theta_m must be positive")
    grid = np.linspace(0.0, theta_m, THETA_NODES)
    w = grid ** 2 * (theta_m - grid) ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        base = p1(grid) + r(grid / theta_m)
        end = grid[1] / 3.0 * np.exp(base[[0, -1]]).sum()
    if end >= TAU:
        raise NumericalInvariantError(f"sweep normalization has no root: the "
                                      f"end nodes alone sweep {end:.4g} >= 2 pi")

    def log_sweep(c):
        """(c, h(c), h'(c)), from exponents shifted by their maximum."""
        with np.errstate(all="ignore"):
            z = base + c * w
            top = z.max()
            e = np.exp(z - top)
            # Composite Simpson: step / 3 times 1, 4, 2, ..., 2, 4, 1.
            e[1:-1] *= 2.0
            e[1::2] *= 2.0
            mass = e.sum()
            h = top + np.log(mass * grid[1] / (3.0 * TAU))
            slope = (e @ w) / mass
        if not (np.isfinite(h) and 0.0 < slope < np.inf):
            raise NumericalInvariantError(
                f"sweep normalization fails: slope {slope:.4g} in c at c = {c:.17g}")
        return c, float(h), float(slope)

    c, h, slope = log_sweep(0.0)
    for k in range(NEWTON_STEPS):
        trial = log_sweep(c - h / slope)
        if k and not trial[1] < h:
            break
        c, h, slope = trial
        if h <= 0.0:
            break
    if abs(TAU * math.expm1(h)) > NORMALIZE_RTOL * TAU:
        raise NumericalInvariantError("sweep normalization missed 2 pi")
    return c


class SynthesizedOrbit(Immutable):
    """Orbit with the closed-form exponential profile.

    Holds the polynomial exponent with its first two derivatives and exposes
    the profile (rho) and its 2-jet (jet) as callables; sample()
    materializes a kepler.Orbit carrying both the samples and the analytic
    callables.
    """

    __slots__ = ("theta_max", "p1", "r", "c", "exponent", "exponent_d1",
                 "exponent_d2")

    def __init__(self, theta_max, p1, r, c):
        theta_max = float(theta_max)
        if not (theta_max > 0 and math.isfinite(theta_max)):
            raise DomainError("theta_max must be positive")
        scaled_r = Polynomial(r.coef / theta_max ** np.arange(r.coef.size))
        exponent = p1 + scaled_r + c * _weight_poly(theta_max)
        super().__init__(theta_max=theta_max, p1=p1, r=r, c=float(c),
                         exponent=exponent, exponent_d1=exponent.deriv(),
                         exponent_d2=exponent.deriv(2))

    def rho(self, theta):
        """exp(E(theta))."""
        e = polyval(self.exponent.coef, theta)
        return np.exp(e, out=e)[()]

    def jet(self, theta):
        """(rho, rho', rho'') at theta, from one evaluation each of E, E'
        and E'': rho' = E' rho and rho'' = (E'' + E'^2) rho."""
        rho = self.rho(theta)
        e1 = polyval(self.exponent_d1.coef, theta)
        e2 = polyval(self.exponent_d2.coef, theta)
        e2 += e1 ** 2
        e2 *= rho
        e1 *= rho
        return rho, e1[()], e2[()]

    def sample(self):
        """The Orbit on the THETA_NODES grid, with the analytic callables.

        normalize_c evaluates r at theta / theta_max, and this profile
        evaluates r with rescaled power-form coefficients. With many
        perturbation coefficients the two round apart, so the sampled orbit
        can fail its own checks: that is NumericalInvariantError, not bad
        input."""
        grid = np.linspace(0.0, self.theta_max, THETA_NODES)
        with np.errstate(over="ignore", invalid="ignore"):
            jet = self.jet(grid)
        if not all(np.isfinite(v).all() for v in jet):
            raise _overflow()
        rho, rho_prime, rho_second = jet
        try:
            return Orbit(self.theta_max, rho, rho_prime=rho_prime,
                         rho_second=rho_second, value_fn=self.rho,
                         jet_fn=self.jet)
        except DomainError as exc:
            # r sums c_k b_k, and b_k has degree k + 4.
            count = max(self.r.degree() - _BUMP.degree(), 0)
            raise NumericalInvariantError(
                f"the synthesized orbit with {count} perturbation "
                f"coefficients fails its own check: {exc}; the power-form "
                "perturbation loses precision, so use fewer or smaller "
                "coefficients") from None


def _overflow():
    return NumericalInvariantError(
        "the synthesized profile overflows double precision; use fewer or "
        "smaller coefficients")


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
    closed form before any integration. A profile that needs more than
    integrate.MAX_STEPS is refused, and so is one whose rho overflows or
    underflows to 0, where q is not a number of double precision.
    """
    grid = np.linspace(0.0, orb.theta_max, 16385)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rho = orb.rho(grid)
        e1 = polyval(orb.exponent_d1.coef, grid)
        e2 = polyval(orb.exponent_d2.coef, grid)
        qmax = np.abs((2.0 * e2 - e1 ** 2 - 4.0) / (4.0 * rho ** 2)).max()
    if not np.isfinite(rho).all():
        raise _overflow()
    if not rho.all():
        e = polyval(orb.exponent.coef, grid)
        low = int(np.argmin(e))
        raise NumericalInvariantError(
            f"the synthesized profile underflows double precision: its "
            f"exponent E = log rho falls to {e[low]:.4g} at theta = "
            f"{grid[low]:.4g}, so rho = exp(E) is 0 there")
    need = TAU * math.sqrt(qmax) / _STEP_PHASE_BOUND
    if not need <= MAX_STEPS:
        raise NumericalInvariantError(
            f"the synthesized profile reaches |q| = {qmax:.3e} and needs "
            f"{need:.3e} steps, above the limit {MAX_STEPS}")
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
    if not (math.isfinite(triple.rho) and math.isfinite(triple.nu)):
        raise NumericalInvariantError(
            f"the right Iwasawa coordinates (rho, nu) = ({triple.rho:.3e}, "
            f"{triple.nu:.3e}) of the target overflow double precision; its "
            f"largest matrix entry is {float(np.abs(g.mat).max()):.3e}")
    orb = synthesize_orbit(triple.theta, triple.rho, triple.nu, coeffs)
    if steps is None:
        steps = auto_steps(orb)
    return potential_of_orbit(orb.sample(), steps)
