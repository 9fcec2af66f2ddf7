"""Two-point boundary conditions for -v'' + q v = 0 on [0, 2 pi].

Every problem is decided by the lifted monodromy mu = (Phi(2 pi), omega)
that integrate.monodromy returns; nothing here integrates. Separated
conditions constrain the solution direction at each endpoint and are
parametrized by a pair of angles (theta0, theta2pi); mu fixes the winding
of the solution, which gives the index. Coupled conditions identify the
endpoint data through an invertible matrix A, as
(v, v')(2 pi) = A (v, v')(0). Solvability of the coupled problem reduces to
a trace identity for M1 = a A^{-1} Phi(2 pi) with a = sqrt(|det A|); the
lifted product beta = B~ mu, with B~ a distinguished lift of a A^{-1}, is
provided separately for stratum inspection.
"""

import math
from typing import NamedTuple

import numpy as np

from .cover import CoverElement, Stratum, arg_variation, classify, multiply
from .errors import DomainError, Immutable, NumericalInvariantError

TAU = math.tau

BOUNDARY_TOL = 1e-8
# Smallest |det A| accepted before the coupled problem counts as singular.
MIN_DET = 1e-12
# The separated index comes from rounding a winding to a multiple of pi;
# the admissible rounding residual, as a fraction of pi.
INDEX_RESIDUAL_TOL = 1e-4


class SeparatedBC(Immutable):
    """Separated condition: v(0) parallel to (cos theta0, sin theta0) and
    v(2 pi) parallel to (cos theta2pi, sin theta2pi) in the (v, v') plane.

    theta0 lies in [0, pi) and theta2pi in (0, pi], so each endpoint line
    is named exactly once.
    """

    __slots__ = ("theta0", "theta2pi")

    def __init__(self, theta0, theta2pi):
        theta0 = float(theta0)
        theta2pi = float(theta2pi)
        if not (0.0 <= theta0 < math.pi):
            raise DomainError("theta0 must lie in [0, pi)")
        if not (0.0 < theta2pi <= math.pi):
            raise DomainError("theta2pi must lie in (0, pi]")
        super().__init__(theta0=theta0, theta2pi=theta2pi)

    def __repr__(self):
        return f"SeparatedBC(theta0={self.theta0:.6g}, theta2pi={self.theta2pi:.6g})"

    @classmethod
    def dirichlet(cls):
        return cls(math.pi / 2, math.pi / 2)

    @classmethod
    def neumann(cls):
        return cls(0.0, math.pi)


def separated_residual(mu, bc):
    """Signed, scale-free defect of the condition at t = 2 pi.

    mu is the lifted monodromy. The endpoint state (u, u')(2 pi) of the
    solution with direction theta0 at t = 0 is mu.mat applied to that
    direction; its component across the target line is returned, divided
    by its norm. Zero crossings in a parameter are simple, so the sign is
    kept for use with bracketing root finders.
    """
    u = mu.mat @ np.array([math.cos(bc.theta0), math.sin(bc.theta0)])
    resid = -math.sin(bc.theta2pi) * u[0] + math.cos(bc.theta2pi) * u[1]
    return resid / math.hypot(u[0], u[1])


def separated_has_solution(mu, bc, tol=BOUNDARY_TOL):
    """Whether the separated problem has a nontrivial solution."""
    return abs(separated_residual(mu, bc)) <= tol


def separated_index(mu, bc):
    """Hyperplane index of a solvable separated problem.

    The clockwise-positive angle swept by the solution is W =
    -arg_variation(mu, (cos theta0, sin theta0)): every path to mu in the
    cover turns a direction by the same angle, so W equals
    -solution_winding(q, theta0). For a solution of the boundary problem
    W - (theta2pi - theta0) is a multiple of pi and the multiplier is the
    index. The raw count is returned; the ground state of the Neumann
    problem sits at -1 under this labeling while the Dirichlet family
    q = -k^2/4 sits at k.
    """
    w = -arg_variation(mu, (math.cos(bc.theta0), math.sin(bc.theta0)))
    x = w - (bc.theta2pi - bc.theta0)
    n = round(x / math.pi)
    if abs(x - n * math.pi) > INDEX_RESIDUAL_TOL * math.pi:
        raise NumericalInvariantError(
            f"winding {w!r} is not consistent with a boundary solution "
            f"(residual {abs(x - n * math.pi):.3e})")
    return n


class GeneralBC(Immutable):
    """Coupled condition (v, v')(2 pi) = A (v, v')(0) for invertible A."""

    __slots__ = ("mat", "a", "det_sign")

    def __init__(self, mat):
        mat = np.array(mat, dtype=float)
        if mat.shape != (2, 2) or not np.all(np.isfinite(mat)):
            raise DomainError("boundary matrix must be a finite 2x2 matrix")
        (a, b), (c, d) = mat.tolist()
        det = a * d - b * c  # Python floats overflow to inf without warning
        if not math.isfinite(det):
            raise DomainError(
                f"boundary matrix [[{a!r}, {b!r}], [{c!r}, {d!r}]] has a "
                f"determinant that overflows double precision")
        if abs(det) <= MIN_DET:
            raise DomainError("boundary matrix is singular")
        super().__init__(mat=mat, a=math.sqrt(abs(det)),
                         det_sign=1 if det > 0 else -1)

    def __repr__(self):
        m = self.mat
        return (f"GeneralBC([[{m[0, 0]:.6g}, {m[0, 1]:.6g}], "
                f"[{m[1, 0]:.6g}, {m[1, 1]:.6g}]])")

    def normalized_inverse(self):
        """a A^{-1}, the det +-1 matrix whose lift enters the beta product."""
        m = self.mat
        adj = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        return (self.a / det) * adj


def general_residual(mu, bc):
    """Signed defect of the trace criterion for the coupled problem.

    Returns tr(a A^{-1} Phi(2 pi)) - (a + sign(det A)/a), which vanishes
    exactly when the problem has a nontrivial solution.
    """
    m1 = bc.normalized_inverse() @ mu.mat
    target = bc.a + bc.det_sign / bc.a
    return float(m1[0, 0] + m1[1, 1] - target)


def general_has_solution(mu, bc, tol=BOUNDARY_TOL):
    """Whether the coupled problem has a nontrivial solution."""
    return abs(general_residual(mu, bc)) <= tol


def general_all_solutions(mu, bc, tol=BOUNDARY_TOL):
    """Whether every solution of the equation satisfies the condition.

    This happens exactly when A is unimodular and equals the endpoint
    matrix Phi(2 pi) of the lifted monodromy mu.
    """
    det = bc.det_sign * bc.a * bc.a
    if abs(det - 1.0) > tol:
        return False
    return bool(np.abs(mu.mat - bc.mat).max() <= tol)


def principal_lift(mat):
    """Lift of a determinant +-1 matrix with principal angle window.

    The left Iwasawa angle of the lift is placed in (-pi, pi]; on the
    reflected component the window applies to the angle of the reflected
    factor. The identity lifts to the identity and -I to the central
    element with winding -pi.
    """
    mat = np.asarray(mat, dtype=float)
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    raw = math.atan2(mat[1, 1], mat[0, 1]) - math.pi / 2
    if det > 0:
        omega = (raw + math.pi) % TAU - math.pi
        return CoverElement(mat, omega)
    omega = -((-raw + math.pi) % TAU - math.pi)
    return CoverElement(mat, omega, component=-1)


class BetaImage(NamedTuple):
    """Lifted product beta(mu) = B~ mu with its trace and stratum.

    stratum is the classification of the product when it lands on the
    identity component, None otherwise.
    """

    element: CoverElement
    trace: float
    stratum: Stratum | None


def beta_image(bc, mu):
    """Image of a lifted monodromy under the boundary shift beta.

    B = a A^{-1} is lifted with principal_lift and multiplied onto mu in
    the cover. For det A > 0 the product stays on the identity component
    and carries a stratum; for det A < 0 it lands on the reflected one.
    """
    lift = principal_lift(bc.normalized_inverse())
    product = multiply(lift, mu)
    stratum = classify(product) if product.component == 1 else None
    return BetaImage(product, product.trace, stratum)
