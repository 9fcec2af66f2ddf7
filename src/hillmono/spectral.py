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

oscillation_eigenvalues reads the spectrum of the line q0 - s * qplus off
Chebyshev proxies of the entries of its monodromy M(s). The right Iwasawa
angle grows strictly with s, so the line meets the hyperplane once and then
each cone in either two leaf points or one vertex, giving the periodic
eigenvalues s_0 < s_1 <= s_2 < s_3 <= ... with their stratum labels. It
takes four steps.

Sample. [s_lo, s_hi] runs from where the potential is at least 1 to where
the Cartan angle passes the last window. M is evaluated at N + 1 Chebyshev
points of it through the batched kernel (integrate.monodromies), in batches
of at most DEFAULT_STEPS // steps members; each result is bit for bit that
of its own monodromy call. The batch size is a cache choice: on a shared
2-vCPU Xeon, 64 Mathieu-line members at 4096 steps took 37 ms in batches of
4 and 49 ms in one batch of 64.

Fit. s -> M(s) is entire, so each entry's Chebyshev coefficients decay
faster than geometrically (Trefethen, Approximation Theory and
Approximation Practice, 2013, ch. 8). N doubles, reusing the nested points,
until every entry's tail, and the fit's miss at two further points, are
below a fixed share of its largest coefficient (Aurentz and Trefethen,
ACM TOMS 43, 2017).

Solve. Window round(alpha / pi) of the Cartan angle alpha holds the
hyperplane eigenvalue at 0 and the pair p at 2p. The hyperplane eigenvalue
is the one root of trace - 2 in window 0, taken with every other root from
the colleague matrix of the trace proxy (Boyd, SIAM Review 55, 2013). Each
pair is solved from det(M - I) = 0, not from the trace, which is flat at a
double root. In a second-order model A + l B + l^2 Q of M - I the entries
are linear in l near a vertex, so a rounding d of them moves a root by
about d, not sqrt(d). The model is expanded first about the window's Cartan
center, where alpha = 2 p pi, and then again about the roots until they
stop moving. Roots at least S_RESOLUTION apart are the minus and plus
leaves, closer ones a vertex at their midpoint. As a certificate, window 0
must hold one root of trace - 2 and each cone window two or none (a pair
with complex roots); another count, or a proxy that needs more than
_MAX_DEGREE points, is refused.

Label. Every root is evaluated in one kernel batch and classified on its
lift.
"""

import math
from typing import NamedTuple

import numpy as np
from numpy.polynomial import chebyshev

from .cover import classify, to_cartan
from .errors import DomainError, Immutable, NumericalInvariantError
from .integrate import DEFAULT_STEPS, checked_steps, monodromies, sample_times

TAU = math.tau

DEFAULT_TOL = 1e-8
DEFAULT_SCAN_STEPS = 4096
S_RESOLUTION = 1e-9
_CHOP_TOL = 1e-13
_MAX_DEGREE = 1024
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
    most `batch` members, DEFAULT_STEPS member-steps, whose workspace stays
    in cache; each result is bit for bit that of its own monodromy call.
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


def _interval(line, pairs):
    """[s_lo, s_hi] covering the windows up to the pairs-th cone.

    On s_lo = min((q0 - 1) / qplus) the potential is at least 1, so the
    trace exceeds 2 and the Cartan angle lies below pi/2 <= alpha_stop.
    s_hi steps on from s_lo, the step doubling from 0.25 up to 4, until
    the Cartan angle there reaches alpha_stop. The cap keeps s_hi within 4
    of the first such s: far along the line the steps stop resolving the
    potential, and an uncapped doubling reaches there first.
    """
    tgrid = np.linspace(0.0, TAU, _POSITIVITY_SAMPLES, endpoint=False)
    qpv = np.asarray(line.qplus(tgrid), dtype=float)
    if qpv.min() <= 0:
        raise DomainError("qplus must be strictly positive")
    q0v = np.asarray(line.q0(tgrid), dtype=float)
    s_lo = float(np.min((q0v - 1.0) / qpv))
    alpha_stop = (2 * pairs + 0.5) * math.pi + 0.05
    s_hi, ds = s_lo, 0.25
    while True:
        if s_hi + ds == s_hi:
            raise DomainError(
                f"the scan cannot move along the line: s = {s_hi!r} "
                f"plus the step ds = {ds!r} rounds back to s")
        s_hi, ds = s_hi + ds, min(2 * ds, 4.0)
        if line(s_hi)[3] >= alpha_stop:
            return s_lo, s_hi


class _Proxy:
    """Chebyshev series of the entries a, b, c, d of M(s) on [lo, hi].

    The series are in x = (2 s - lo - hi) / (hi - lo) and interpolate M at
    the N + 1 extreme points sin(pi k / 2N), k = -N, -N + 2, .., N. N
    doubles from 16 until, for every entry, the last quarter of the
    coefficients and the fit's miss at x = -1/3 and 1/3 are at most
    _CHOP_TOL times its largest coefficient. The points at N recur bit for
    bit at 2N, so the line's cache evaluates each once.
    """

    def __init__(self, line, lo, hi):
        self.mid, self.half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        # Two points off every grid, as in chebfun's sample test: a tail can
        # fall below the tolerance before the entries are resolved.
        checks = np.array([-1.0, 1.0]) / 3
        n = 16
        while True:
            self.x = np.sin(np.pi * np.arange(-n, n + 1, 2) / (2 * n))
            ss = self.mid + self.half * np.concatenate([self.x, checks])
            ss[0], ss[n] = lo, hi
            recs = line.evaluate(ss.tolist())
            exact, recs = np.array([r[0].mat.ravel() for r in recs[-2:]]), recs[:-2]
            if np.any(np.diff([r[1] for r in recs]) <= 0):
                raise NumericalInvariantError(
                    "winding angle is not increasing along the line")
            # The DCT-I of the values at x = 1, .., -1, through the FFT of
            # their even extension.
            vals = np.array([r[0].mat.ravel() for r in recs])[::-1]
            coef = np.fft.rfft(np.vstack([vals, vals[-2:0:-1]]), axis=0).real / n
            coef[[0, n]] /= 2
            tail = np.maximum(
                np.abs(coef[3 * n // 4:]).max(axis=0),
                np.abs(chebyshev.chebval(checks, coef).T - exact).max(axis=0))
            if np.all(tail <= _CHOP_TOL * np.abs(coef).max(axis=0)):
                break
            if 2 * n > _MAX_DEGREE:
                raise DomainError(
                    f"the spectrum proxy is not resolved at N = {n} Chebyshev "
                    f"points, the most it takes, at --steps {line.steps}; "
                    f"ask for a lower --nmax")
            n *= 2
        self.n = n
        self.alpha = np.array([r[3] for r in recs])
        # M - I, and its first and second Taylor coefficients in x. T_j' is
        # 2 j times the sum of the T_i, i < j, j - i odd, T_0 counted once.
        coef[0] -= (1.0, 0.0, 0.0, 1.0)
        i, j = np.ogrid[:n + 1, :n + 1]
        der = np.where((j > i) & ((j - i) % 2 == 1), 2.0 * j, 0.0)
        der[0] /= 2
        self.series = np.stack([coef, der @ coef, der @ der @ coef / 2], axis=1)

    def taylor(self, x):
        """The rows of M - I and of its first and second Taylor coefficients
        at x, summed over T_k(x) from T_k+1 = 2 x T_k - T_k-1."""
        t = [1.0, x]
        for _ in range(self.n - 1):
            t.append(2.0 * x * t[-1] - t[-2])
        return np.tensordot(t, self.series, 1)

    def alpha_at(self, x):
        """The Cartan angle at x, atan2(b - c, a + d) lifted within pi of the
        nearest point's."""
        a, b, c, d = self.taylor(x)[0]
        near = self.alpha[np.argmin(np.abs(self.x - x))]
        return near + math.remainder(math.atan2(b - c, 2.0 + a + d) - near, TAU)

    def model_roots(self, x):
        """x plus the roots of det(A + l B + l^2 Q), the second-order model
        of M - I about x, nearest first."""
        a, b, c, d = self.taylor(x).T
        lam = np.roots((np.convolve(a, d) - np.convolve(b, c))[::-1])
        return x + lam[np.argsort(np.abs(lam))]

    def pair(self, m):
        """Both roots of det(M - I) in window m, in x.

        The window's Cartan center, where alpha = m pi, is the root of
        b - c = sin(alpha) tr(S) that Newton's method finds from the
        points' angles. It lies between the pair's roots, so the model
        about it gives the pair; each root is then re-expanded about itself
        until it stops moving. Where the model's roots are complex, as at a
        vertex, both are their real part.
        """
        def newton(x):
            t = self.taylor(x)
            return x - (t[0, 1] - t[0, 2]) / (t[1, 1] - t[1, 2])

        j = int(np.argmax(self.alpha >= m * math.pi))
        a0, a1 = self.alpha[j - 1:j + 1]
        x0, x1 = self.x[j - 1:j + 1]
        center = _settle(newton, x0 + (m * math.pi - a0) / (a1 - a0) * (x1 - x0))
        return _settle(lambda roots: [self.model_roots(r)[0].real for r in roots],
                       np.sort(self.model_roots(center)[:2].real))


def _settle(step, x):
    """Iterate x = step(x) until it moves by at most 1e-13, or 20 times."""
    for _ in range(20):
        moved, x = x, step(x)
        if np.abs(np.subtract(x, moved)).max() <= 1e-13:
            break
    return x


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
    proxy = _Proxy(line, *_interval(line, pair_count))

    # The roots of trace - 2, grouped by their window round(alpha / pi).
    tr2 = proxy.series[:, 0, 0] + proxy.series[:, 0, 3]
    hits = {}
    for x in chebyshev.chebroots(tr2):
        if x.imag == 0 and abs(x.real) <= 1:
            hits.setdefault(round(proxy.alpha_at(x.real) / math.pi), []).append(x.real)
    # Window 0 holds the hyperplane eigenvalue alone, and each cone window a
    # pair: two roots of trace - 2, or none where the pair is complex.
    for m in range(0, 2 * pair_count + 1, 2):
        if len(hits.get(m, [])) not in ((1,) if m == 0 else (0, 2)):
            raise NumericalInvariantError(
                f"window {m} holds {len(hits.get(m, []))} roots of trace - 2 "
                f"in the proxy at N = {proxy.n} Chebyshev points and "
                f"--steps {steps}")
    roots = []
    for pair in [(hits[0][0],) * 2] + [proxy.pair(m) for m in
                                       range(2, 2 * pair_count + 1, 2)]:
        lo, hi = (float(proxy.mid + proxy.half * x) for x in pair)
        roots.append((lo, hi) if hi - lo >= S_RESOLUTION else ((lo + hi) / 2,) * 2)
    # Every root, labelled in one evaluation.
    line.evaluate([s for pair in roots for s in pair])

    el, theta_r, trace, _ = line(roots[0][0])
    comp = c1_component(el, 1e-7)
    if comp.variant != "hyperplane":
        raise NumericalInvariantError(
            f"ground crossing classified as {comp!r}")
    records = [EigenvalueRecord(0, roots[0][0], 1, comp, trace, theta_r)]
    for pair in range(1, pair_count + 1):
        m = 2 * pair
        lo, hi = roots[pair]
        if lo != hi:
            for s_leaf, want in zip((lo, hi), (-1, 1)):
                el, theta_r, trace, _ = line(s_leaf)
                # M - I at a leaf is of the order of the split, which can
                # be below 1e-7: the leaf is classified below that size.
                tol = min(1e-7, 0.5 * np.abs(el.mat - np.eye(2)).max())
                comp = c1_component(el, tol) if in_c1(el, tol) else None
                if comp != C1Component("cone_leaf", pair, want):
                    raise NumericalInvariantError(
                        f"window {m} crossing at s={s_leaf!r} "
                        f"classified as {comp!r}")
                records.append(EigenvalueRecord(
                    len(records), s_leaf, 1, comp, trace, theta_r))
            continue
        el, theta_r, trace, _ = line(lo)
        comp = C1Component("vertex", pair)
        if abs(el.omega + TAU * pair) > 1e-3:
            raise NumericalInvariantError(
                f"vertex winding {el.omega!r} is off -2 pi {pair}")
        for _ in range(2):
            records.append(EigenvalueRecord(
                len(records), lo, 2, comp, trace, theta_r))

    return records[:n_max + 1]
