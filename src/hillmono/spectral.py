"""Periodic Sturm-Liouville classification along affine potential lines.

A potential q is "degenerate" (here: in C1) when -v'' + q v = 0 has a
nonzero 2 pi-periodic solution, which happens exactly when the monodromy
matrix has trace 2; it is doubly degenerate (C2) when every solution is
periodic, i.e. the lifted monodromy is an even central element. The trace-2
locus splits into a hyperplane piece (no full winding) and a family of
cones indexed by the winding count, each cone being two parabolic leaves
glued at a central vertex.

Both sets are preimages under the monodromy map, so in_c1, in_c2 and
c1_component take the lift mu = monodromy(q).element and never integrate.

oscillation_eigenvalues walks the line q0 - s * qplus: the right Iwasawa
angle of the monodromy grows strictly with s, so the line meets the
hyperplane once and then each cone in either two leaf points or one vertex,
giving the periodic eigenvalues s_0 < s_1 <= s_2 < s_3 <= ... with their
stratum labels.
"""

import math

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .cover import classify, to_cartan
from .errors import DomainError, NumericalInvariantError
from .integrate import monodromy

TAU = math.tau

DEFAULT_TOL = 1e-8
DEFAULT_SCAN_STEPS = 4096
S_RESOLUTION = 1e-9
VERTEX_TRACE_TOL = 1e-9
_MAX_SCAN_NODES = 20000
_POSITIVITY_SAMPLES = 4096


class C1Component:
    """Stratum label of a trace-2 monodromy: hyperplane, cone leaf, or vertex."""

    __slots__ = ("variant", "n", "sign")

    def __init__(self, variant, n=0, sign=0):
        if variant not in ("hyperplane", "cone_leaf", "vertex"):
            raise DomainError(f"unknown component variant {variant!r}")
        if variant == "hyperplane" and (n != 0 or sign != 0):
            raise DomainError("hyperplane carries no cone data")
        if variant == "cone_leaf" and (n < 1 or sign not in (-1, 1)):
            raise DomainError("cone leaves need n >= 1 and sign +-1")
        if variant == "vertex" and (n < 1 or sign != 0):
            raise DomainError("vertices need n >= 1 and no sign")
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "sign", int(sign))

    def __setattr__(self, name, value):
        raise AttributeError("C1Component is immutable")

    def __eq__(self, other):
        return (isinstance(other, C1Component)
                and (self.variant, self.n, self.sign)
                == (other.variant, other.n, other.sign))

    def __hash__(self):
        return hash((self.variant, self.n, self.sign))

    def __repr__(self):
        if self.variant == "hyperplane":
            return "hyperplane"
        if self.variant == "vertex":
            return f"vertex({self.n})"
        return f"cone_leaf({self.n},{'+' if self.sign > 0 else '-'})"


class EigenvalueRecord:
    """One periodic eigenvalue along the line, with its stratum label."""

    __slots__ = ("index", "s", "multiplicity", "component", "trace", "theta_r")

    def __init__(self, index, s, multiplicity, component, trace, theta_r):
        object.__setattr__(self, "index", int(index))
        object.__setattr__(self, "s", float(s))
        object.__setattr__(self, "multiplicity", int(multiplicity))
        object.__setattr__(self, "component", component)
        object.__setattr__(self, "trace", float(trace))
        object.__setattr__(self, "theta_r", float(theta_r))

    def __setattr__(self, name, value):
        raise AttributeError("EigenvalueRecord is immutable")

    def __repr__(self):
        return (f"EigenvalueRecord(index={self.index}, s={self.s:.9g}, "
                f"multiplicity={self.multiplicity}, component={self.component})")


def in_c1(mu, tol=DEFAULT_TOL):
    """True when the lifted monodromy mu of q has trace 2: q is in C1.

    This is also the critical-point test of the quadratic map
    u -> -u'' + u^2/2: u is critical exactly when -v'' + u v = 0 has a
    periodic solution, i.e. when in_c1(monodromy(u).element).
    """
    if not tol > 0:
        raise DomainError("tol must be positive")
    return abs(mu.trace - 2.0) <= tol


def in_c2(mu, tol=DEFAULT_TOL):
    """True when every solution is periodic: mu is an even central element."""
    if not tol > 0:
        raise DomainError("tol must be positive")
    k = round(-mu.omega / TAU)
    return (k >= 1 and abs(mu.omega + TAU * k) <= tol
            and np.abs(mu.mat - np.eye(2)).max() <= tol)


def c1_component(mu, tol=DEFAULT_TOL):
    """Stratum label of a trace-2 lift; DomainError off the trace-2 locus."""
    if not in_c1(mu, tol):
        raise DomainError(f"not on the trace-2 locus: trace {mu.trace!r}")
    stratum = classify(mu, tol=tol)
    kind, m = stratum.kind, stratum.component_index
    vertex = kind == "parabolic_vertex"
    if not kind.startswith("parabolic") or m % 2 or (vertex and m < 2):
        # Trace 2 needs an even Cartan index, and a vertex winds at least once.
        raise NumericalInvariantError(
            f"trace-2 lift classified as {kind} with winding index {m}")
    if vertex:
        return C1Component("vertex", m // 2)
    if m == 0:
        return C1Component("hyperplane")
    return C1Component("cone_leaf", m // 2, 1 if kind.endswith("plus") else -1)


# ---------------------------------------------------------------------------
# Eigenvalues along a line of potentials
# ---------------------------------------------------------------------------

class _LineScan:
    """Evaluation cache for the family q0 - s * qplus."""

    def __init__(self, q0, qplus, steps):
        self.q0 = q0
        self.qplus = qplus
        self.steps = steps
        self.cache = {}

    def __call__(self, s):
        rec = self.cache.get(s)
        if rec is None:
            q0, qplus = self.q0, self.qplus
            element, theta_r = monodromy(
                lambda t: q0(t) - s * qplus(t), self.steps)
            alpha = to_cartan(element).alpha
            rec = (element, theta_r, element.trace, alpha)
            self.cache[s] = rec
        return rec

    def trace(self, s):
        return self(s)[2]


def _scan_line(line, n_max):
    """Adaptive s-nodes covering the windows up to the n_max-th cone.

    Keeps the winding advance below pi/4 per accepted node so no window is
    skipped, and asserts the monotonicity that justifies the whole sweep.
    """
    tgrid = np.linspace(0.0, TAU, _POSITIVITY_SAMPLES, endpoint=False)
    qpv = np.asarray(line.qplus(tgrid), dtype=float)
    if qpv.min() <= 0:
        raise DomainError("qplus must be strictly positive")
    q0v = np.asarray(line.q0(tgrid), dtype=float)
    s_start = float(np.min((q0v - 1.0) / qpv))
    alpha_stop = (2 * n_max + 0.5) * math.pi + 0.05

    nodes = [s_start]
    ds = 0.25
    evals = 1
    while True:
        _, theta_r, _, alpha = line(nodes[-1])
        if alpha >= alpha_stop:
            break
        if evals >= _MAX_SCAN_NODES:
            raise DomainError(
                "eigenvalue scan exhausted before reaching cone "
                f"{n_max}; last winding angle {alpha!r}")
        s_next = nodes[-1] + ds
        _, theta_next, _, _ = line(s_next)
        evals += 1
        if theta_next <= theta_r:
            raise NumericalInvariantError(
                "winding angle is not increasing along the line")
        if theta_next - theta_r > math.pi / 4 and ds > 1e-6:
            ds /= 2
            continue
        nodes.append(s_next)
        if theta_next - theta_r < math.pi / 32:
            ds = min(2 * ds, 4.0)
    return nodes


def _crossings(nodes, f):
    """Bracketed sign changes of f at the nodes, refined by brentq."""
    out = []
    vals = [f(s) for s in nodes]
    for a, b, fa, fb in zip(nodes, nodes[1:], vals, vals[1:]):
        if fa == 0.0:
            out.append(a)
        elif fa * fb < 0:
            out.append(brentq(f, a, b, xtol=1e-13, rtol=8.9e-16))
    if vals[-1] == 0.0:
        out.append(nodes[-1])
    return out


def oscillation_eigenvalues(q0, qplus, n_max, steps=DEFAULT_SCAN_STEPS):
    """Periodic eigenvalues s_0..s_n_max along q0 - s * qplus with labels.

    Records come back sorted; a vertex contributes two records with equal s
    and multiplicity 2, a split pair two simple records with the minus leaf
    first.
    """
    n_max = int(n_max)
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    line = _LineScan(q0, qplus, steps)
    pair_count = (n_max + 1) // 2
    nodes = _scan_line(line, pair_count)

    # Walls between windows: the zeros of the trace, labeled by which
    # quarter-turn boundary they sit on.
    walls = {}
    for s in _crossings(nodes, line.trace):
        walls[round((line(s)[3] - math.pi / 2) / math.pi)] = s

    # Ground crossing: the one trace-2 root before the first wall.
    ground = [s for s in _crossings(nodes, lambda s: line.trace(s) - 2.0)
              if round(line(s)[3] / math.pi) == 0]
    if len(ground) != 1:
        raise NumericalInvariantError(
            f"expected one hyperplane crossing, found {len(ground)}")

    records = []
    el, theta_r, trace, _ = line(ground[0])
    comp = c1_component(el, 1e-7)
    if comp.variant != "hyperplane":
        raise NumericalInvariantError(
            f"ground crossing classified as {comp!r}")
    records.append(EigenvalueRecord(0, ground[0], 1, comp, trace, theta_r))

    for pair in range(1, pair_count + 1):
        m = 2 * pair
        try:
            lo, hi = walls[m - 1], walls[m]
        except KeyError:
            raise NumericalInvariantError(
                f"window {m} is missing a trace-zero wall") from None
        # The trace rises from 0 at both walls to its single interior
        # maximum, so bracketing outward from the maximum finds the pair.
        res = minimize_scalar(lambda s: -line.trace(s), bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-10})
        s_top = float(res.x)
        top = line.trace(s_top)
        if top < 2.0 - VERTEX_TRACE_TOL:
            raise NumericalInvariantError(
                f"window {m} trace maximum {top!r} never reaches 2")
        if top > 2.0:
            f = lambda s: line.trace(s) - 2.0
            roots = (brentq(f, lo, s_top, xtol=1e-13, rtol=8.9e-16),
                     brentq(f, s_top, hi, xtol=1e-13, rtol=8.9e-16))
        else:
            roots = (s_top, s_top)
        if roots[1] - roots[0] >= S_RESOLUTION:
            for s_leaf, want in zip(roots, (-1, 1)):
                el, theta_r, trace, _ = line(s_leaf)
                comp = c1_component(el, 1e-7)
                if comp != C1Component("cone_leaf", pair, want):
                    raise NumericalInvariantError(
                        f"window {m} crossing at s={s_leaf!r} "
                        f"classified as {comp!r}")
                records.append(EigenvalueRecord(
                    len(records), s_leaf, 1, comp, trace, theta_r))
            continue
        s_vertex = 0.5 * (roots[0] + roots[1])
        el, theta_r, trace, _ = line(s_vertex)
        comp = C1Component("vertex", pair)
        if abs(el.omega + TAU * pair) > 1e-3:
            raise NumericalInvariantError(
                f"vertex winding {el.omega!r} is off -2 pi {pair}")
        for _ in range(2):
            records.append(EigenvalueRecord(
                len(records), s_vertex, 2, comp, trace, theta_r))

    return records[:n_max + 1]
