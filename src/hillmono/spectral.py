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

The walk is one loop of rounds. Each round splits every node interval
whose angle advance is pi/4 or more, and, until the Cartan angle passes
the last window, gallops: it adds one node past the last, with steps
doubling from 0.25 up to 4. A round's new nodes are evaluated together:
they go through the batched kernel (integrate.monodromies) in batches of
at most DEFAULT_STEPS // steps members, the most that the pooled
workspace holds, and each result is bit for bit that of its own monodromy
call.

The eigenvalues come from one pass over the scan nodes: every sign change of
trace - 2 between two nodes is refined, and the root is labelled by the
window round(alpha / pi) of its Cartan angle. Window 0 holds the hyperplane
eigenvalue and window 2p the pair p. A window whose node brackets hold
exactly two crossings gives the pair directly: two roots at least
S_RESOLUTION apart are the minus and plus leaves, closer ones a vertex at
their midpoint. Any other count means a vertex, or a split narrower than the
node spacing, that the nodes do not resolve. Only such a window takes the
center path: its two trace-zero walls are refined, the point between them
where the Cartan angle alpha is the window's m pi is found, and the roots
are bracketed outward from it. In the Cartan chart
R(alpha)(cosh r I + sinh r K) the trace is 2 cos(alpha) cosh r, so at
alpha = m pi, m even, it is 2 cosh r >= 2: this center lies between the
pair's roots, or at the vertex. The trace is flat at its top, but alpha
is steep there, so one root search on alpha - m pi finds the center, and
no minimizer is needed. Where the roots fall closer than S_RESOLUTION, or
the center's trace stays at or below 2, the window holds a vertex, placed
at the midpoint of the chord VERTEX_TRACE_TOL below the center's trace:
there the trace is steep, while near its flat top rounding moves a root
by about 1e-8.

Every refinement is a brentq search of .brent, a generator that yields
each s it needs, and the searches run in lockstep: first those of all the
trace-2 crossings, then the center paths of all unresolved windows, each
of which refines its two walls, then its center, and then its two roots,
in lockstep too. Each round, every pending search's next s goes, in root
order, to one _LineScan.evaluate call, and so through the batched kernel.
A search's result depends only on the values it is sent, so every root is
bit for bit what scipy's brentq gives one call at a time, and the module
needs no scipy.
"""

import math
from typing import NamedTuple

import numpy as np

from .brent import brentq
from .cover import classify, to_cartan
from .errors import DomainError, Immutable, NumericalInvariantError
from .integrate import DEFAULT_STEPS, checked_steps, monodromies, sample_times

TAU = math.tau

DEFAULT_TOL = 1e-8
DEFAULT_SCAN_STEPS = 4096
S_RESOLUTION = 1e-9
VERTEX_TRACE_TOL = 1e-9
_MAX_SCAN_NODES = 20000
_POSITIVITY_SAMPLES = 4096


class C1Component(Immutable):
    """Stratum label of a trace-2 monodromy: hyperplane, cone leaf, or vertex.

    The repr is the label the spectrum CSV prints: hyperplane, vertex(n),
    cone_leaf(n+) or cone_leaf(n-).
    """

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
        super().__init__(variant=variant, n=int(n), sign=int(sign))

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
        return f"cone_leaf({self.n}{'+' if self.sign > 0 else '-'})"


class EigenvalueRecord(NamedTuple):
    """One periodic eigenvalue along the line, with its stratum label."""

    index: int
    s: float
    multiplicity: int
    component: C1Component
    trace: float
    theta_r: float


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
    """Evaluation cache for the family q0 - s * qplus.

    q0 and qplus are sampled once, at the times monodromy samples at these
    steps; each s then costs one array operation, q0 - s * qplus, on those
    samples, which gives the same values as evaluating the line there.
    evaluate() runs the values of s it has not seen in kernel batches of at
    most `batch` members, as many as the pooled workspace holds at these
    steps; each result is bit for bit that of its own monodromy call.
    """

    def __init__(self, q0, qplus, steps):
        self.q0 = q0
        self.qplus = qplus
        self.steps = checked_steps(steps)
        times = sample_times(self.steps)
        self.samples = (q0(times), qplus(times))
        self.batch = max(1, DEFAULT_STEPS // self.steps)
        self.cache = {}

    def evaluate(self, ss):
        """(element, theta_r, trace, alpha) at each s of ss."""
        q0v, qplusv = self.samples
        new = [s for s in dict.fromkeys(ss) if s not in self.cache]
        for i in range(0, len(new), self.batch):
            chunk = new[i:i + self.batch]
            rows = q0v - np.array(chunk)[:, None] * qplusv
            for s, (element, theta_r) in zip(chunk, monodromies(rows, self.steps)):
                self.cache[s] = (element, theta_r, element.trace,
                                 to_cartan(element).alpha)
        return [self.cache[s] for s in ss]

    def __call__(self, s):
        return self.evaluate([s])[0]


def _exhausted(n_max, alpha):
    return DomainError(
        f"eigenvalue scan exhausted {_MAX_SCAN_NODES} nodes before reaching "
        f"cone {n_max}; last winding angle {alpha!r}")


def _scan_line(line, n_max):
    """Adaptive s-nodes covering the windows up to the n_max-th cone.

    One loop of rounds. Each round evaluates its new nodes together, cuts
    the nodes at the first one whose Cartan angle reaches alpha_stop, and
    splits every node interval whose winding advance is pi/4 or more. While
    the last node is still below alpha_stop, the round also gallops: it
    adds the node ds past the last one, ds doubling from 0.25 up to 4. So
    no window is skipped, and the monotonicity that justifies the whole
    sweep is asserted on every adjacent pair. An interval no wider than
    1e-6, or whose midpoint rounds onto an end, is not split.
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
    while True:
        recs = line.evaluate(nodes)
        stop = next((i + 1 for i, r in enumerate(recs) if r[3] >= alpha_stop),
                    len(recs))
        nodes, recs = nodes[:stop], recs[:stop]
        new = []
        for a, b, (_, theta_a, _, _), (_, theta_b, _, _) in zip(
                nodes, nodes[1:], recs, recs[1:]):
            if theta_b <= theta_a:
                raise NumericalInvariantError(
                    "winding angle is not increasing along the line")
            mid = 0.5 * (a + b)
            if theta_b - theta_a >= math.pi / 4 and b - a > 1e-6 and a < mid < b:
                new.append(mid)
        if recs[-1][3] < alpha_stop:
            s_next = nodes[-1] + ds
            if s_next == nodes[-1]:
                raise DomainError(
                    f"the scan cannot move along the line: s = {nodes[-1]!r} "
                    f"plus the step ds = {ds!r} rounds back to s")
            new.append(s_next)
            ds = min(2 * ds, 4.0)
        if not new:
            return nodes
        if len(nodes) + len(new) > _MAX_SCAN_NODES:
            raise _exhausted(n_max, recs[-1][3])
        nodes = sorted(nodes + new)


def _rounds(line, search, f):
    """The brent search as a scan search: each round is the one s it asks
    for, and once the round is evaluated it is sent f of the cached record
    there."""
    s = next(search)
    while True:
        yield [s]
        try:
            s = search.send(f(line(s)))
        except StopIteration as done:
            return done.value


def _root(line, a, b, f):
    """Scan search: the root of f(record) in [a, b] by brentq, at the
    scan's tolerances."""
    return _rounds(line, brentq(a, b, xtol=1e-13, rtol=8.9e-16), f)


def _together(searches):
    """Scan searches in lockstep: each round yields every pending search's
    round, in order; returns the searches' results, in order."""
    searches = list(searches)
    results, pending = [None] * len(searches), {}

    def advance(i):
        try:
            pending[i] = next(searches[i])
        except StopIteration as done:
            results[i] = done.value
            pending.pop(i, None)

    for i in range(len(searches)):
        advance(i)
    while pending:
        yield [s for ss in pending.values() for s in ss]
        for i in list(pending):
            advance(i)
    return results


def _run(line, search):
    """A scan search's result, its rounds evaluated on the line in turn."""
    try:
        while True:
            line.evaluate(next(search))
    except StopIteration as done:
        return done.value


def _crossings(line, nodes, f):
    """Scan search: the sign changes of f(record) at the nodes, refined by
    Brent's method, all brackets in lockstep."""
    vals = [f(r) for r in line.evaluate(nodes)]
    roots = yield from _together(
        _root(line, a, b, f)
        for a, b, fa, fb in zip(nodes, nodes[1:], vals, vals[1:])
        if fa == 0.0 or fa * fb < 0)
    return roots + nodes[-1:] if vals[-1] == 0.0 else roots


def _window_label(line, s):
    """The window round(alpha / pi) that the Cartan angle at s sits in."""
    return round(line(s)[3] / math.pi)


def _roots_from_center(line, nodes, m):
    """Scan search: both trace-2 roots of window m, bracketed outward from
    the window's Cartan center, where alpha = m pi.

    Refines only the window's two trace-zero walls, each from the node
    bracket whose windows straddle it; the walls, the two roots and the two
    chord ends each run as a pair in lockstep.
    """
    labels = [_window_label(line, s) for s in nodes]
    found = yield from _together(
        _crossings(line, [a, b], lambda r: r[2])
        for a, b, wa, wb in zip(nodes, nodes[1:], labels, labels[1:])
        if wa != wb and min(wa, wb) <= m <= max(wa, wb))
    walls = {}
    for s in (s for ss in found for s in ss):
        walls[round((line(s)[3] - math.pi / 2) / math.pi)] = s
    try:
        lo, hi = walls[m - 1], walls[m]
    except KeyError:
        raise NumericalInvariantError(
            f"window {m} is missing a trace-zero wall") from None
    # The trace is 2 cos(alpha) cosh(r), so it is 0 at the walls, where
    # alpha - m pi is -pi/2 and pi/2, and at least 2 at the center, where
    # it is 0. So the center lies between the pair's roots, or at the
    # vertex, and bracketing outward from it finds the pair.
    s_mid = yield from _root(line, lo, hi, lambda r: r[3] - m * math.pi)
    top = line(s_mid)[2]
    if top < 2.0 - VERTEX_TRACE_TOL:
        raise NumericalInvariantError(
            f"window {m} trace at the Cartan center {top!r} is below 2")
    if top > 2.0:
        roots = yield from _outward(line, lo, s_mid, hi, 2.0)
        if roots[1] - roots[0] >= S_RESOLUTION:
            return roots
    # A vertex: the trace touches 2, flat to second order, so rounding moves
    # roots that close by about the square root of the rounding, some 1e-8.
    # The chord VERTEX_TRACE_TOL below the center's trace, where the trace
    # is steep, has its midpoint within about 1e-11 of the vertex.
    ends = yield from _outward(line, lo, s_mid, hi,
                               min(top, 2.0) - VERTEX_TRACE_TOL)
    s_vertex = 0.5 * (ends[0] + ends[1])
    return s_vertex, s_vertex


def _outward(line, lo, s_mid, hi, level):
    """Scan search: the roots of trace - level in [lo, s_mid] and
    [s_mid, hi], in lockstep."""
    f = lambda r: r[2] - level
    return (yield from _together(
        _root(line, a, b, f) for a, b in ((lo, s_mid), (s_mid, hi))))


def oscillation_eigenvalues(q0, qplus, n_max, steps=DEFAULT_SCAN_STEPS):
    """Periodic eigenvalues s_0..s_n_max along q0 - s * qplus with labels.

    Records come back sorted; a vertex contributes two records with equal s
    and multiplicity 2, a split pair two simple records with the minus leaf
    first.

    n_max above steps // 2 is refused before anything is sampled: no scan
    reaches it. Every step of an accepted run turns the second column by
    less than pi/2, so -omega < steps pi/2, and the Cartan angle, at most
    -omega + pi/2, stays below (steps + 1) pi/2; the scan stops only once
    that angle passes (2 p + 1/2) pi, p = (n_max + 1) // 2, which is at
    least (steps + 2) pi/2 for any larger n_max.
    """
    n_max, steps = int(n_max), checked_steps(steps)
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    if n_max > steps // 2:
        raise DomainError(
            f"n_max must be at most {steps // 2} at {steps} steps: each step "
            f"turns the winding by less than pi/2, so no scan reaches a "
            f"higher cone")
    line = _LineScan(q0, qplus, steps)
    pair_count = (n_max + 1) // 2
    nodes = _scan_line(line, pair_count)

    # The trace-2 crossings between the nodes, grouped by their window.
    hits = {}
    for s in _run(line, _crossings(line, nodes, lambda r: r[2] - 2.0)):
        hits.setdefault(_window_label(line, s), []).append(s)

    ground = hits.get(0, [])
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

    windows = range(2, 2 * pair_count + 1, 2)
    unresolved = [m for m in windows if len(hits.get(m, [])) != 2]
    hits.update(zip(unresolved, _run(line, _together(
        _roots_from_center(line, nodes, m) for m in unresolved))))
    # Every window's vertex, in one evaluation.
    line.evaluate([0.5 * (hits[m][0] + hits[m][1]) for m in windows
                   if hits[m][1] - hits[m][0] < S_RESOLUTION])
    for pair in range(1, pair_count + 1):
        m = 2 * pair
        roots = hits[m]
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
