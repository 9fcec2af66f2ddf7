"""Fixed-step integration of Hill's equation with winding bookkeeping.

The fundamental matrix solves Phi' = [[0, 1], [q, 0]] Phi, Phi(0) = I, whose
rows are (v1, v2) and (v1', v2'). Two windings are read off the node
matrices as continuous arguments:

    theta   argument of the first row (v1, v2), increasing
    omega   argument of the second column (v2, v2')

omega is summed from per-step angles; omega(2 pi) is the winding that lifts
Phi(2 pi) to the universal cover. Each node (Phi_i, omega_i) is then a point
of the cover, so theta_i is its right Iwasawa angle in closed form, and
theta(2 pi) is that of the monodromy.

The integrator is the classical 4-stage Runge-Kutta scheme with a fixed
step h. Because the system is linear, step i maps Phi_i to
Phi_{i+1} = T_i Phi_i, where T_i is a closed-form polynomial in h and the
three samples qa, qb, qd of q at the step's start, midpoint and end. All
matrices are held as four flat arrays of entries
(a, b, c, d) = ([0, 0], [0, 1], [1, 0], [1, 1]).

The node path Phi_i = T_{i-1} ... T_0 is a prefix product, evaluated by a
blocked scan (reduce, then scan; Blelloch 1990): a sequential scan inside
blocks of BLOCK steps, vectorized across the blocks; the same scan over the
block totals; and one pass that carries each block's predecessor product
into it. The numpy passes compose in place through (2, 2, ...) matrix
views of the (4, ...) entry arrays: five calls a round inside the blocks,
and the carry one row at a time, so that its temporaries are half the size
of the level. A level is padded with identity steps only when BLOCK does
not divide its length. A level of fewer than BLOCK blocks, such as the 127
block totals of a 4096-step run, is scanned inside its blocks in Python
floats, where numpy's per-call cost would dominate; the composition tree
is the same, and so is every bit of the result. The scan works on
deviations from the identity, T - I and P - I, so the O(h^2) diagonal
terms of T are not rounded against 1 at every step; at 4096 steps this
cuts the round-off in the trace of the monodromy about a hundredfold.

Each step's angle is one arctan2 of the cross and dot products of a
column x with its image under T_i, written with the entries of T_i - I so
that nothing cancels: x turns by the angle of
(x ^ (T - I) x, |x|^2 + x . (T - I) x). theta_i is the argument of the
first row on the 2 pi branch nearest -omega_i, the rule of
cover.to_right_iwasawa. Every step must turn the column, and the first
row, by less than pi/2, so the principal value of each column angle is the
exact increment, and a 2 pi slip of omega shows as a step of theta.
solution_winding applies the column rule to Phi_i u0.
"""

import math
from itertools import accumulate, chain, islice, repeat
from typing import NamedTuple

import numpy as np

from .cover import CoverElement, to_right_iwasawa, winding_exceeds
from .errors import DomainError, Immutable, NumericalInvariantError

TAU = math.tau

DEFAULT_STEPS = 16384
MIN_STEPS = 16
# Largest step count accepted. monodromy peaks at about 160 MB per 2^20
# steps, so this bounds one call at about 0.65 GB.
MAX_STEPS = 2 ** 22

# Largest angle a column or the first row may turn by in one step; below it
# the principal value of a column's step angle is its continuous increment,
# and a 2 pi slip of omega shows in the row's.
STEP_ANGLE_LIMIT = math.pi / 2

# Steps per block of the prefix scan.
BLOCK = 32


class FundamentalPath(Immutable):
    """Sampled fundamental matrix path with winding components.

    Attributes
    ----------
    t : (n+1,) node times over [0, 2 pi]
    mats : (n+1, 2, 2) fundamental matrices at the nodes, a read-only view
        of the (4, n+1) entry store
    theta : (n+1,) first-row winding, theta[0] = 0: at each node the right
        Iwasawa angle of (Phi_i, omega_i), in closed form
    omega : (n+1,) second-column winding, omega[0] = 0
    """

    __slots__ = ("t", "mats", "theta", "omega")

    def __init__(self, t, nodes, theta, omega):
        for arr in (t, nodes, theta, omega):
            arr.setflags(write=False)
        mats = nodes.reshape(2, 2, -1).transpose(2, 0, 1)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "mats", mats)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "omega", omega)


class MonodromyResult(NamedTuple):
    element: CoverElement
    theta_r: float


def sample_times(steps):
    """The node and midpoint times at which q is sampled for `steps` steps."""
    return np.linspace(0.0, TAU, 2 * steps + 1)


def _sample_q(q, steps):
    tt = sample_times(steps)
    qq = np.asarray(q(tt), dtype=float)
    if qq.shape != tt.shape or not np.all(np.isfinite(qq)):
        raise DomainError("potential evaluation must give finite values")
    return qq


def _transfer(qa, qb, qd, h):
    """Entries of T - I for the Runge-Kutta transfer matrices T, (4, n)."""
    h2 = h * h
    h4 = h2 * h2 / 24.0
    t = np.empty((4, qa.size))
    t[0] = h2 / 6.0 * (qa + 2.0 * qb) + h4 * qa * qb
    t[1] = h + h * h2 / 6.0 * qb
    t[2] = h / 6.0 * (qa + 4.0 * qb + qd) + h * h2 / 12.0 * qb * (qa + qd)
    t[3] = h2 / 6.0 * (2.0 * qb + qd) + h4 * qb * qd
    return t


def _compose(y, x):
    """Entries of XY - I (Y, then X) from those of Y - I and X - I."""
    xa, xb, xc, xd = x
    ya, yb, yc, yd = y
    return (xa + ya + (xa * ya + xb * yc), xb + yb + (xa * yb + xb * yd),
            xc + yc + (xc * ya + xd * yc), xd + yd + (xc * yb + xd * yd))


def _compose_into(x, y, rows=slice(None)):
    """x <- XY - I in place, associated as in _compose, on (2, 2, ...) views
    of the entries of X - I and Y - I; only the given rows of x change."""
    x = x[rows]
    prod = x[:, :1] * y[:1]
    prod += x[:, 1:] * y[1:]
    x += y[rows]
    x += prod


def _blocked_scan(t):
    """Entries of P_i - I, P_i = T_i ... T_0, from those of T_i - I.

    Both are (4, n) arrays; t is left as it was. A single block is scanned
    step by step from the identity. Longer runs are scanned inside blocks
    of BLOCK steps, the block totals are scanned by the same function, and
    each block's predecessor total is composed into it. The blocks are a
    copy of t, padded with identity steps only when BLOCK does not divide
    n, and both numpy passes compose into that copy in place through its
    (2, 2, BLOCK, blocks) matrix view, the carry one row at a time. With
    fewer blocks than a block has steps, the scans inside the blocks run in
    Python floats: numpy would make BLOCK rounds of calls on vectors
    shorter than BLOCK, which costs more than it saves. The composition
    tree, and so every bit of the result, is the same either way.
    """
    n = t.shape[1]
    if n <= BLOCK:
        scan = accumulate(zip(*t.tolist()), _compose,
                          initial=(0.0, 0.0, 0.0, 0.0))
        return _entries(islice(scan, 1, None), n)
    m = -(-n // BLOCK)
    pad = m * BLOCK - n  # the padding steps are I
    if m < BLOCK:
        steps = list(zip(*t.tolist()))
        t = _entries(chain(chain.from_iterable(
            accumulate(steps[k:k + BLOCK], _compose)
            for k in range(0, n, BLOCK)), repeat((0.0,) * 4, pad)), n + pad)
    elif pad:
        t = np.concatenate((t, np.zeros((4, pad))), axis=1)
    # Block layout: p[:, :, j, k] is step k * BLOCK + j as a 2x2 matrix.
    p = t.reshape(2, 2, m, BLOCK).transpose(0, 1, 3, 2)
    if m >= BLOCK:
        p = np.ascontiguousarray(p)  # a copy: t is left as it was
        for j in range(1, BLOCK):
            _compose_into(p[:, :, j], p[:, :, j - 1])
    carry = _blocked_scan(p[:, :, -1, :-1].reshape(4, m - 1))
    carry = carry.reshape(2, 2, 1, m - 1)
    for i in range(2):  # a row at a time halves the full-size temporaries
        _compose_into(p[:, :, :, 1:], carry, slice(i, i + 1))
    return p.transpose(0, 1, 3, 2).reshape(4, m * BLOCK)[:, :n]


def _entries(matrices, n):
    """(4, n) entries of n matrices given as 4-tuples of Python floats.

    Each entry is one contiguous row, as numpy reads it fastest.
    """
    return np.ascontiguousarray(np.fromiter(chain.from_iterable(matrices),
                                            float, 4 * n).reshape(n, 4).T)


def _overflow(what, nodes):
    finite = np.abs(nodes[np.isfinite(nodes)])
    largest = finite.max() if finite.size else 0.0
    return NumericalInvariantError(
        f"{what}: double precision overflows; largest finite |entry| of the "
        f"fundamental matrix is {float(largest):.3e}")


def checked_steps(steps):
    """steps as an int, checked against [MIN_STEPS, MAX_STEPS] before use."""
    steps = int(steps)
    if not MIN_STEPS <= steps <= MAX_STEPS:
        raise DomainError(f"steps must lie in [{MIN_STEPS}, {MAX_STEPS}]")
    return steps


def checked_count(count, name):
    """count as an int, checked against [0, MAX_STEPS + 1] before use.

    MAX_STEPS + 1 is the node count of the longest integration; name is
    the quantity the error message names.
    """
    count = int(count)
    if not 0 <= count <= MAX_STEPS + 1:
        raise DomainError(f"{name} must lie in [0, {MAX_STEPS + 1}]")
    return count


def _propagate(q, steps):
    """Sample q; entries of T - I per step and of Phi at the nodes."""
    steps = checked_steps(steps)
    h = TAU / steps
    qq = _sample_q(q, steps)
    t = _transfer(qq[0:-1:2], qq[1::2], qq[2::2], h)
    nodes = np.zeros((4, steps + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        nodes[:, 1:] = _blocked_scan(t)
    nodes[[0, 3]] += 1.0
    if not np.all(np.isfinite(nodes)):
        raise _overflow("fundamental matrix entries are not finite", nodes)
    return t, nodes


def _checked_turns(turns):
    """The per-step angles, after the gate that makes them exact."""
    worst = float(np.abs(turns).max())
    if not worst < STEP_ANGLE_LIMIT:
        raise NumericalInvariantError(
            f"angle change {worst:.3e} in one step is not below "
            f"{STEP_ANGLE_LIMIT:.3e}; increase steps")
    return turns


def _scale(x, y):
    """Larger |entry| of each vector (x, y); a zero vector has no angle."""
    scale = np.maximum(np.abs(x), np.abs(y))
    if not scale.all():  # steps with det T << 1 can round a vector to zero
        raise NumericalInvariantError(
            f"the second column or a solution vector is zero at node "
            f"{int(np.argmin(scale))} of {scale.size}: the step determinants "
            "shrank it below rounding; increase steps")
    return scale


def _column_turns(t, x, y):
    """Per-step angles of the columns (x, y) at the left nodes.

    The columns are scaled by their larger entry, which cannot overflow.
    """
    ta, tb, tc, td = t
    scale = _scale(x, y)
    x, y = x / scale, y / scale
    cross = tc * x * x + (td - ta) * x * y - tb * y * y
    dot = x * x + y * y + x * (ta * x + tb * y) + y * (tc * x + td * y)
    return _checked_turns(np.arctan2(cross, dot))


def integrate(q, steps=DEFAULT_STEPS):
    """Fundamental path of -v'' + q v = 0 over [0, 2 pi].

    Parameters
    ----------
    q : callable
        Potential, evaluated vectorized on node and midpoint times.
    steps : int
        Number of fixed Runge-Kutta steps, at least 16.
    """
    t, nodes = _propagate(q, steps)
    a, b, c, d = nodes
    omega = np.concatenate(
        ([0.0], np.cumsum(_column_turns(t, b[:-1], d[:-1]))))
    del t  # freed before the Wronskian gate, which then adds no peak memory
    # The branch rule of cover.to_right_iwasawa at every node; the gate on
    # its steps refuses a 2 pi slip of omega wherever it falls.
    theta = np.arctan2(b, a)
    theta += TAU * np.round((-omega - theta) / TAU)
    _checked_turns(np.diff(theta))
    # ad - bc rounds at |Phi_i|^2 eps, so the allowance grows with the entry
    # size. As in CoverElement, each node is divided by the power of two at
    # or below its largest |entry|, which rounds as Phi_i does but cannot
    # overflow. The scaled entries reuse the buffer of the |entries|.
    scaled = np.abs(nodes)
    largest = scaled.max(axis=0)
    k = np.maximum(np.frexp(largest)[1] - 1, 0)
    scale = np.ldexp(1.0, -k)
    sa, sb, sc, sd = np.multiply(nodes, scale, out=scaled)
    largest *= scale
    one = np.square(scale, out=scale)  # the unit determinant, scaled
    dev = np.abs(sa * sd - sb * sc - one)
    allowed = np.maximum(1e-6 * one, 16.0 * np.finfo(float).eps * largest ** 2)
    worst = int(np.argmax(dev / allowed))
    if dev[worst] > allowed[worst]:
        drift, k = float(dev[worst]), int(k[worst])
        try:
            drift = f"{math.ldexp(drift, 2 * k):.3e}"
        except OverflowError:  # beyond the double range unscaled
            drift = f"{drift:.3e} * 4**{k}"
        raise NumericalInvariantError(f"Wronskian drift {drift}; increase steps")
    times = np.linspace(0.0, TAU, nodes.shape[1])
    return FundamentalPath(times, nodes, theta, omega)


def monodromy(q, steps=DEFAULT_STEPS):
    """Lifted monodromy of the potential together with its right angle.

    Returns a MonodromyResult (element, theta_r). The endpoint must pass
    the CoverElement checks; theta_r is the right Iwasawa angle of the
    element, whose 2 pi branch is fixed by the column winding; and the
    element must land in the monodromy image (negative winding, positive
    right angle). All are verified.
    """
    path = integrate(q, steps)
    try:
        element = CoverElement(path.mats[-1], path.omega[-1])
    except NumericalInvariantError as exc:
        raise NumericalInvariantError(f"{exc}; increase steps") from None
    theta_r = to_right_iwasawa(element).theta
    if not (winding_exceeds(element, 0.0) and theta_r > 0.0):
        raise NumericalInvariantError("monodromy left the expected image set")
    return MonodromyResult(element, theta_r)


def solution_winding(q, phi0, steps=DEFAULT_STEPS):
    """Winding of (u, u') for the solution with (u, u')(0) on angle phi0.

    The initial condition is u(0) = cos(phi0), u'(0) = sin(phi0) and the
    returned value is the total variation of the counterclockwise argument
    of (u(t), u'(t)) over [0, 2 pi], read off the node columns Phi_i u0.
    """
    t, nodes = _propagate(q, steps)
    a, b, c, d = nodes[:, :-1]
    c0, s0 = math.cos(phi0), math.sin(phi0)
    return float(np.sum(_column_turns(t, a * c0 + b * s0, c * c0 + d * s0)))
