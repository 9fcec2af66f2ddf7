"""Elements of the universal cover of SL(2, R) and its two-component extension.

An element is realized as a pair (m, omega): a real 2x2 matrix m with
det m = +1 (or -1 on the reflected component) together with the total
variation omega of the standard counterclockwise argument of gamma(s) e2
along a path gamma from the base point of the component to m, where
e2 = (0, 1). The base points are the identity for det +1 and the
distinguished lift of diag(-1, 1), with winding zero, for det -1.

Rotations follow the clockwise convention throughout: the rotation block is

    R(t) = [[cos t,  sin t],
            [-sin t, cos t]]

so R(t) maps (1, 0) to (cos t, -sin t) and the lift of R(t) along
s -> R(s t) has winding -t. Because components of the cover are simply
connected, omega is path independent and the congruence

    arg(m e2) = pi/2 + omega   (mod 2 pi)

holds on both components; it is validated whenever an element is built.

Three global charts are provided for the det +1 component (left and right
Iwasawa, Cartan) plus two derived charts (cone-adapted coordinates on the
central Cartan slab, and a chart using the trace as a coordinate), and a
conjugated-triangular chart for the det -1 component. Chart conventions:

    left Iwasawa   R(theta) . diag(sqrt(rho), 1/sqrt(rho)) . [[1,0],[nu/2,1]]
    right Iwasawa  diag(sqrt(rho), 1/sqrt(rho)) . [[1,0],[nu/2,1]] . R(theta)
    Cartan         R(alpha) . S,  S symmetric positive definite, det S = 1

The winding of a left Iwasawa element is exactly -theta, and that of a
Cartan element follows from the argument of S e2. The other windings come
from the product in the cover, since lifts of paths multiply pointwise: the
right Iwasawa and Schur charts are products of a triangular factor and
rotations. For a fixed matrix m with o = sign det m and a unit vector u at
angle psi, psi -> arg(m u) - o psi is pi-periodic with variation below pi.
So m u winds by o dpsi plus the principal remainder of its argument change
less o dpsi, exactly and without tracking the argument.
"""

import math
import sys

import numpy as np

from .errors import DomainError, NumericalInvariantError

TAU = math.tau

# Invariant tolerances for constructed elements.
DET_TOL = 1e-9
CONGRUENCE_TOL = 1e-7

# Default tolerance for stratum classification.
CLASSIFY_TOL = 1e-8

STRATUM_KINDS = (
    "elliptic",
    "hyperbolic",
    "parabolic_vertex",
    "parabolic_leaf_plus",
    "parabolic_leaf_minus",
    "trace_zero_boundary",
)

_E2 = np.array([0.0, 1.0])
_REFLECT = np.array([[-1.0, 0.0], [0.0, 1.0]])


def rotation(t):
    """Clockwise rotation matrix R(t)."""
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, s], [-s, c]])


def _principal(x):
    """Reduce an angle difference to [-pi, pi]."""
    return math.remainder(x, TAU)


def _arg_change(start, end, near):
    """Continuous argument change from start to end that lies within pi of near."""
    darg = math.atan2(end[1], end[0]) - math.atan2(start[1], start[0])
    return near + _principal(darg - near)


class CoverElement:
    """Group element of the (two-component) universal cover.

    Parameters
    ----------
    mat : (2, 2) array_like
        Unimodular matrix, det = component.
    omega : float
        Winding of the e2 column along a path from the component's base
        point, see module docstring.
    component : int, optional
        +1 for the identity component, -1 for the reflected one.
    """

    __slots__ = ("mat", "omega", "component")

    def __init__(self, mat, omega, component=1):
        mat = np.array(mat, dtype=float)
        if mat.shape != (2, 2) or not np.all(np.isfinite(mat)):
            raise DomainError("cover element needs a finite 2x2 matrix")
        if component not in (1, -1):
            raise DomainError("component must be +1 or -1")
        if not math.isfinite(omega):
            raise DomainError("cover element needs a finite winding")
        # ad - bc cannot be evaluated better than ~ |mat|^2 eps in doubles,
        # so the gate is widened for matrices with large entries. A matrix
        # whose largest |entry| is at least 2 is divided by the power of two
        # at or below it, which rounds as mat does but cannot overflow.
        largest = float(np.abs(mat).max())
        k = max(0, math.frexp(largest)[1] - 1)
        scale = math.ldexp(1.0, k)
        (a, b), (c, d) = (mat / scale).tolist()
        m = largest / scale
        dev = abs(a * d - b * c - component / scale / scale)
        det_tol = max(DET_TOL / scale / scale, 16.0 * sys.float_info.epsilon * m * m)
        if dev > det_tol:
            # The deviation and tolerance of the scaled matrix stay finite.
            raise NumericalInvariantError(
                f"matrix determinant deviates from {component} by {dev:.3e}, "
                f"above the tolerance {det_tol:.3e}"
                + (f" (both scaled by 4**-{k})" if k else ""))
        col = mat @ _E2
        mismatch = _principal(math.atan2(col[1], col[0]) - math.pi / 2 - omega)
        if abs(mismatch) > CONGRUENCE_TOL:
            raise NumericalInvariantError(
                f"winding {float(omega)!r} violates the column-argument congruence "
                f"by {mismatch:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "omega", float(omega))
        object.__setattr__(self, "component", int(component))

    def __setattr__(self, name, value):
        raise AttributeError("CoverElement is immutable")

    @property
    def trace(self):
        return float(self.mat[0, 0] + self.mat[1, 1])

    def __repr__(self):
        sign = "+" if self.component == 1 else "-"
        m = self.mat
        return (f"CoverElement([[{m[0, 0]:.6g}, {m[0, 1]:.6g}], "
                f"[{m[1, 0]:.6g}, {m[1, 1]:.6g}]], omega={self.omega:.6g}, "
                f"component={sign!r})")


def identity():
    return CoverElement(np.eye(2), 0.0)


def center_power(n):
    """n-th power of the central element iota = (-I, winding -pi)."""
    sign = -1.0 if n % 2 else 1.0
    return CoverElement(sign * np.eye(2), -n * math.pi)


def reflection():
    """Distinguished lift of diag(-1, 1) with winding zero (det -1 base)."""
    return CoverElement(_REFLECT, 0.0, component=-1)


class IwasawaTriple(tuple):
    """Chart coordinates (theta, rho, nu) of an Iwasawa factorization."""

    __slots__ = ()

    def __new__(cls, theta, rho, nu):
        return tuple.__new__(cls, (float(theta), float(rho), float(nu)))

    theta = property(lambda self: self[0])
    rho = property(lambda self: self[1])
    nu = property(lambda self: self[2])


class CartanTriple(tuple):
    """Cartan coordinates (alpha, x, y): rotation angle plus boost vector.

    The boost vector points along the axis of the symmetric factor and its
    length is the rapidity r, so the matrix part is
    R(alpha) (cosh r I + sinh r K) with K the unit reflection along (x, y).
    """

    __slots__ = ()

    def __new__(cls, alpha, x, y):
        return tuple.__new__(cls, (float(alpha), float(x), float(y)))

    alpha = property(lambda self: self[0])
    x = property(lambda self: self[1])
    y = property(lambda self: self[2])


# ---------------------------------------------------------------------------
# Left Iwasawa chart
# ---------------------------------------------------------------------------

def from_left_iwasawa(theta, rho, nu):
    """Element with left Iwasawa coordinates (theta, rho, nu); winding -theta."""
    if rho <= 0:
        raise DomainError("rho must be positive")
    sr = math.sqrt(rho)
    lower = np.array([[sr, 0.0], [0.5 * nu / sr, 1.0 / sr]])
    return CoverElement(rotation(theta) @ lower, -theta)


def to_left_iwasawa(g):
    """Left Iwasawa coordinates of g. Works on both components.

    On the reflected component the coordinates are those of the factor h in
    g = reflection() * h, and theta equals +g.omega instead of -g.omega.
    """
    if g.component == 1:
        theta = -g.omega
        mat = g.mat
    else:
        theta = g.omega
        mat = _REFLECT @ g.mat
    L = rotation(theta).T @ mat
    if L[0, 0] <= 0 or abs(L[0, 1]) > 1e-6 * max(1.0, abs(L[0, 0]), abs(L[1, 1])):
        raise NumericalInvariantError(
            "winding is inconsistent with a left Iwasawa factorization")
    rho = L[0, 0] ** 2
    nu = 2.0 * L[0, 0] * L[1, 0]
    return IwasawaTriple(theta, rho, nu)


# ---------------------------------------------------------------------------
# Right Iwasawa chart
# ---------------------------------------------------------------------------

def from_right_iwasawa(theta, rho, nu):
    """Element with right Iwasawa coordinates (theta, rho, nu).

    The winding is that of the straight segment from (0, 1, 0) to the target
    coordinates, the product of the lifts of the triangular factor and the
    rotation.
    """
    return multiply(from_left_iwasawa(0.0, rho, nu),
                    from_left_iwasawa(theta, 1.0, 0.0))


def to_right_iwasawa(g):
    """Right Iwasawa coordinates of g (identity component only).

    The real angle theta is fixed by requiring that it lies in the same
    half-open multiple-of-pi window [k pi, (k+1) pi) as the left Iwasawa
    angle -omega; the two angles of any element never lie in different
    windows, which pins the branch uniquely.
    """
    if g.component != 1:
        raise DomainError("right Iwasawa coordinates live on the identity component")
    (a, b), (c, d) = g.mat.tolist()
    rho = a * a + b * b
    theta0 = math.atan2(b, a)
    ct, st = math.cos(theta0), math.sin(theta0)
    nu = 2.0 * math.hypot(a, b) * (c * ct + d * st)
    theta_left = -g.omega
    theta = theta0 + TAU * round((theta_left - theta0) / TAU)
    wt, wl = theta / math.pi, theta_left / math.pi
    if math.floor(wt) != math.floor(wl):
        scale = max(1.0, abs(wt), abs(wl))
        near_edge = min(abs(wt - round(wt)), abs(wl - round(wl))) <= 1e-9 * scale
        if not near_edge:
            raise NumericalInvariantError(
                "no right Iwasawa angle in the pi-window of the winding")
    return IwasawaTriple(theta, rho, nu)


# ---------------------------------------------------------------------------
# Cartan chart
# ---------------------------------------------------------------------------

def _cartan_symmetric(x, y):
    r = math.hypot(x, y)
    ch, sh = math.cosh(r), math.sinh(r)
    if r == 0.0:
        return np.eye(2)
    cx, cy = x / r, y / r
    return np.array([[ch + sh * cx, sh * cy], [sh * cy, ch - sh * cx]])


def from_cartan(alpha, x, y):
    """Element R(alpha) S with boost vector (x, y) of rapidity |(x, y)|.

    The winding is -alpha + (arg(S e2) - pi/2); the argument branch lies in
    (0, pi) because the lower right entry of S is positive.
    """
    S = _cartan_symmetric(x, y)
    omega = -alpha + math.atan2(S[1, 1], S[0, 1]) - math.pi / 2
    return CoverElement(rotation(alpha) @ S, omega)


def to_cartan(g):
    """Cartan coordinates of g (identity component only)."""
    if g.component != 1:
        raise DomainError("Cartan coordinates live on the identity component")
    # S = sqrt(m^T m) squares the entries, so above 2^500 m is divided by
    # 2^k. S is divided by 2^k too, which keeps its ratios, and the scaled sh
    # exceeds 2^497, where asinh(2^k sh) is asinh(sh) + k ln 2 to rounding.
    k = max(0, math.frexp(float(np.abs(g.mat).max()))[1] - 500)
    m = g.mat / math.ldexp(1.0, k)
    eye = math.ldexp(1.0, -2 * k)
    mtm = m.T @ m
    S = (mtm + eye * np.eye(2)) / math.sqrt(mtm[0, 0] + mtm[1, 1] + 2.0 * eye)
    alpha = -g.omega + math.atan2(S[1, 1], S[0, 1]) - math.pi / 2
    u = 0.5 * (S[0, 0] - S[1, 1])
    w = S[0, 1]
    sh = math.hypot(u, w)
    if sh == 0.0:
        return CartanTriple(alpha, 0.0, 0.0)
    r = math.asinh(sh) + k * math.log(2.0)
    return CartanTriple(alpha, r * u / sh, r * w / sh)


# ---------------------------------------------------------------------------
# Derived charts
# ---------------------------------------------------------------------------

def from_cone_coords(x, y, z):
    """Chart of the central Cartan slab straightening the trace-2 cone.

    The trace becomes 2 exp(-x^2 + y^2 + z^2), so the parabolic locus is the
    round cone x^2 = y^2 + z^2. Internally this rescales the Cartan angle to
    arccos(exp(-x^2)) * sign(x) and the boost rapidity to
    arccosh(exp(y^2 + z^2)), both written in cancellation-free form.
    """
    # arccos(exp(-x^2)) without cancellation near x = 0
    alpha = math.copysign(
        math.atan2(math.sqrt(-math.expm1(-2.0 * x * x)), math.exp(-x * x)), x)
    s2 = y * y + z * z
    r = math.asinh(math.sqrt(math.expm1(2.0 * s2)))  # arccosh(exp(s^2))
    if s2 == 0.0:
        return from_cartan(alpha, 0.0, 0.0)
    s = math.sqrt(s2)
    return from_cartan(alpha, r * y / s, r * z / s)


def from_trace_coords(theta, rho, trace):
    """Element with left Iwasawa angle theta, scale rho and given trace.

    Requires sin(theta) != 0; the shear coordinate is solved from the trace
    identity trace = (sqrt(rho) + 1/sqrt(rho)) cos(theta) + nu sin(theta) /
    (2 sqrt(rho)).
    """
    st = math.sin(theta)
    if abs(st) < 1e-12:
        raise DomainError("trace chart requires sin(theta) != 0")
    sr = math.sqrt(rho) if rho > 0 else 0.0
    if sr == 0.0:
        raise DomainError("rho must be positive")
    nu = 2.0 * sr * (trace - (sr + 1.0 / sr) * math.cos(theta)) / st
    return from_left_iwasawa(theta, rho, nu)


def from_schur(alpha, lam, nu):
    """Reflected-component element R(alpha) [[-1/lam, 0], [nu, lam]] R(-alpha).

    lam must be positive. The winding is that of the straight segment from
    the base point reflection() to (alpha, lam, nu): the product of the
    rotation lifts with the middle factor, whose e2 column stays vertical
    (winding 0). Traces equal lam - 1/lam.
    """
    if lam <= 0:
        raise DomainError("lam must be positive")
    middle = CoverElement([[-1.0 / lam, 0.0], [nu, lam]], 0.0, component=-1)
    return multiply(multiply(from_left_iwasawa(alpha, 1.0, 0.0), middle),
                    from_left_iwasawa(-alpha, 1.0, 0.0))


# ---------------------------------------------------------------------------
# Group operations
# ---------------------------------------------------------------------------

def multiply(g1, g2):
    """Product in the two-component cover.

    The winding of the product is g1.omega plus the argument variation of
    mat1 . gamma2(s) e2 along a path gamma2 from the base point of g2's
    component to g2. The column gamma2(s) e2 turns by g2.omega, so the
    variation lies within pi of sign(det mat1) g2.omega.
    """
    m1 = g1.mat
    mat = m1 @ g2.mat
    turn = _arg_change(m1[:, 1], mat[:, 1], g1.component * g2.omega)
    return CoverElement(mat, g1.omega + turn,
                        component=g1.component * g2.component)


def arg_variation(g, v):
    """Argument variation of gamma(s) v along g's canonical chart segment.

    gamma runs from the base point of g's component to g through the left
    Iwasawa straight segment; for v = e2 the result is g.omega exactly. The
    segment deforms to the rotation, along which v turns as e2 does, by
    g.omega, followed by the lower triangular factor, which keeps v in its
    half-plane. So the variation lies within pi of g.omega.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (2,) or not np.any(v):
        raise DomainError("v must be a nonzero 2-vector")
    if abs(v[0]) == 0.0 and v[1] > 0:
        return g.omega
    base = np.eye(2) if g.component == 1 else _REFLECT
    return _arg_change(base @ v, g.mat @ v, g.omega)


def winding_exceeds(g, theta):
    """True when g's left Iwasawa angle (component-appropriate) exceeds theta.

    For the identity component the angle is -g.omega; the image of the
    monodromy map is exactly the set with winding_exceeds(g, 0). On the
    reflected component the angle of reflection()^-1 g, which equals
    +g.omega, is used.
    """
    angle = -g.omega if g.component == 1 else g.omega
    return angle > theta


# ---------------------------------------------------------------------------
# Stratum classification
# ---------------------------------------------------------------------------

class Stratum:
    """Classification of an identity-component element.

    kind is one of elliptic, hyperbolic, parabolic_vertex,
    parabolic_leaf_plus, parabolic_leaf_minus, trace_zero_boundary.
    component_index is the integer n with Cartan angle in
    (n pi - pi/2, n pi + pi/2), or None on the boundary.
    """

    __slots__ = ("kind", "component_index", "trace")

    def __init__(self, kind, component_index, trace):
        if kind not in STRATUM_KINDS:
            raise DomainError(f"unknown stratum kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "component_index", component_index)
        object.__setattr__(self, "trace", float(trace))

    def __setattr__(self, name, value):
        raise AttributeError("Stratum is immutable")

    def __repr__(self):
        return (f"Stratum(kind={self.kind!r}, "
                f"component_index={self.component_index}, trace={self.trace:.6g})")

    def __eq__(self, other):
        return (isinstance(other, Stratum) and self.kind == other.kind
                and self.component_index == other.component_index)


def classify(g, tol=CLASSIFY_TOL):
    """Stratum of an identity-component element.

    Trace-zero boundaries (Cartan angle within tol of an odd multiple of
    pi/2) are reported before the trace test. Parabolic elements are split
    into the vertex (matrix within tol of +-identity) and the two leaf signs,
    read off the sign of det(N v, v) for the nilpotent part N.
    """
    if g.component != 1:
        raise DomainError("classification applies to the identity component")
    alpha = to_cartan(g).alpha
    if abs(math.remainder(alpha - math.pi / 2, math.pi)) <= tol:
        return Stratum("trace_zero_boundary", None, g.trace)
    n = round(alpha / math.pi)
    tr = g.trace
    if abs(tr) < 2.0 - tol:
        return Stratum("elliptic", n, tr)
    if abs(tr) > 2.0 + tol:
        return Stratum("hyperbolic", n, tr)
    sign = 1.0 if tr > 0 else -1.0
    N = sign * g.mat - np.eye(2)
    norm = np.abs(N).max()
    if norm <= tol:
        return Stratum("parabolic_vertex", n, tr)
    # For nilpotent N = [[x, y], [z, -x]] the form det(N v, v) is
    # semidefinite with trace y - z, so its sign off ker N is that of y - z.
    kind = "parabolic_leaf_plus" if N[0, 1] > N[1, 0] else "parabolic_leaf_minus"
    return Stratum(kind, n, tr)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def element_to_dict(g):
    m = g.mat
    return {
        "m": [float(m[0, 0]), float(m[0, 1]), float(m[1, 0]), float(m[1, 1])],
        "omega": float(g.omega),
        "component": "+" if g.component == 1 else "-",
    }


def element_from_dict(data):
    """Build a CoverElement from its JSON dict, validating all invariants."""
    try:
        raw = data["m"]
        omega = float(data["omega"])
        comp = data.get("component", "+")
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed cover element: {exc}") from None
    if comp not in ("+", "-"):
        raise DomainError(f"component must be '+' or '-', got {comp!r}")
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise DomainError("field 'm' must be a flat list [a, b, c, d]")
    try:
        mat = np.array(raw, dtype=float).reshape(2, 2)
    except (TypeError, ValueError):
        raise DomainError("the entries of field 'm' must be numbers") from None
    try:
        return CoverElement(mat, omega, component=1 if comp == "+" else -1)
    except NumericalInvariantError as exc:
        raise DomainError(f"cover element fails validation: {exc}") from None
