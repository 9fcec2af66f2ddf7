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
into it. The steps are copied round-major, step j of every block of every
member side by side, so round j inside the blocks is four numpy calls on
one contiguous slab, composed in place onto round j - 1 through (2, 2, ...)
matrix views. The carry works one entry at a time into scratch, from which
the entry is copied to its place in the output. The copy in goes one entry
row of one member at a time, in tiles of COPY_BLOCKS blocks, so that each
tile's source stays in cache while it is spread over the rounds. A level is
padded with identity steps only when BLOCK does not divide its length. A
level of fewer than FLOAT_LANES blocks in all, such as the 127 block
totals of a 4096-step run, is scanned inside its blocks in Python floats,
where numpy's per-call cost would dominate; the composition tree is the
same, and so is every bit of the result. The scan works on deviations
from the identity, T - I and P - I, so the O(h^2) diagonal terms of T are
not rounded against 1 at every step; at 4096 steps this cuts the round-off
in the trace of the monodromy about a hundredfold.

Each step's angle is one arctan2 of the cross and dot products of a
column x with its image under T_i, written with the entries of T_i - I so
that nothing cancels: x turns by the angle of
(x ^ (T - I) x, |x|^2 + x . (T - I) x). theta_i is the argument of the
first row on the 2 pi branch nearest -omega_i, the rule of
cover.to_right_iwasawa. Every step must turn the column, and the first
row, by less than pi/2, so the principal value of each column angle is the
exact increment, and a 2 pi slip of omega shows as a step of theta.
solution_winding reads its value off the lift: the cover is simply
connected, so the gated endpoint (Phi(2 pi), omega(2 pi)) alone fixes the
winding of every solution Phi(t) u0, in the closed form of
cover.arg_variation.

One kernel serves integrate, monodromy, monodromies and solution_winding,
and every call of it runs a batch: k potentials sampled on one grid for
monodromies, a batch of one for the others. Every array carries the
leading member axis: samples (k, 2 n + 1), entries (k, 4, n) and
(k, 4, n + 1), windings (k, n + 1). The transfer, the scan, the column and
theta step gates and the Wronskian gate run over the whole batch in one
pass, so each numpy call's fixed cost is paid once for k members. Every
operation acts on each member's entries as it would alone, reductions
included, so each member is bit for bit its own monodromy call; a gate
raises the message of the first member to fail it.

The Wronskian gate first takes |ad - bc - 1| unscaled at every node, in
a few passes; where every node is within 1e-6 it passes at once, as every
run of the benchmark does. Only otherwise does the scaled test run, which
scales each node by a power of two so that nothing overflows and which
decides and words every refusal. The fast accept passes nothing that the
scaled test would refuse (see _check_wronskian), so no decision changes.

The kernel writes every full-length intermediate into a workspace made for
its step count n and up to k members: t, the entries of T - I (4 k n
doubles); free (about 6.1 k n), reused phase by phase for the sample times
and the transfer scratch, then the round-major scan copy, the block totals
and the carry products, then the column and theta step angles, and last,
with t, which is dead by then, the scaled nodes and the vectors of the
Wronskian gate; an int array for the gate's exponents; and the node
entries, omega and theta, 6 k (n + 1) doubles, made once the samples are
taken. Only the potential's samples are allocated per call. t and free are
two arrays, not one, so that at long step counts each stays small enough
for malloc to serve it from freed heap memory rather than from fresh
pages. The ufuncs write through out= and run the operations of the
formulas in the same order, with the operands of a product or a sum at
most swapped, which IEEE arithmetic keeps exact; so every bit of every
result is what the formulas give with temporaries.

Nothing of a monodromy, monodromies or solution_winding call escapes but
its endpoints, so those calls take their workspace from a pool and give it
back: at most one idle workspace is kept, and only for k n <=
DEFAULT_STEPS, about 2.1 MiB at that size. A workspace serves any batch up
to its k at its step count, through prefix views of its buffers. So a
caller that batches keeps to DEFAULT_STEPS // n members a call, as the
spectrum scan does, and the pooled workspace serves every call. A
workspace is out of the pool while a call uses it, so threads, and a
potential that itself calls monodromy, each run on their own buffers.
Without a pooled workspace a call needs about 16.7 doubles a step and
member besides the samples, less than the per-call temporaries it
replaces. integrate takes its scratch from the pool too, but hands the
node entries and windings to the path it returns, so they are never
shared.
"""

import contextlib
import math
import threading
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .cover import CoverElement, _arg_change, to_right_iwasawa, winding_exceeds
from .errors import DomainError, Immutable, NumericalInvariantError

TAU = math.tau

DEFAULT_STEPS = 16384
MIN_STEPS = 16
# Largest step count accepted. A call peaks at about 150 MB per 2^20 steps,
# so this bounds one call at about 0.6 GB.
MAX_STEPS = 2 ** 22

# Largest angle a column or the first row may turn by in one step; below it
# the principal value of a column's step angle is its continuous increment,
# and a 2 pi slip of omega shows in the row's.
STEP_ANGLE_LIMIT = math.pi / 2

# Steps per block of the prefix scan.
BLOCK = 32
# A level of the scan with fewer blocks than this, over all members, is
# scanned inside its blocks in Python floats. On a shared 2-vCPU Xeon,
# numpy's BLOCK - 1 rounds of four calls lose at 8 blocks (0.42 ms against
# 0.40 in floats) and win from 9 on (0.42 against 0.44; at 12, 0.43 against
# 0.54).
FLOAT_LANES = 9
# Blocks per tile of the scan's copy into its round-major layout: a tile of
# one entry's steps, 128 KiB, stays in cache while its BLOCK rounds are
# written.
COPY_BLOCKS = 512


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
        nodes.setflags(write=False)  # the store that mats views
        super().__init__(t=t, mats=nodes.reshape(2, 2, -1).transpose(2, 0, 1),
                         theta=theta, omega=omega)


class MonodromyResult(NamedTuple):
    element: CoverElement
    theta_r: float


class _Workspace:
    """Buffers of kernel runs at a fixed step count, for batches of up to
    `members` potentials, reused across runs.

    t: the entries of T - I; free: phase scratch; exps: the Wronskian
    gate's exponents; outputs: the node entries, omega and theta, made on
    first use. All are flat; a run of k members takes prefix views.
    """

    __slots__ = ("steps", "members", "t", "free", "exps", "outputs")

    def __init__(self, steps, members=1):
        n, k = steps, members
        self.steps, self.members = n, k
        # free holds the sample times and transfer scratch (2 n + 1 and
        # 2 k n), the scan, six column vectors a member, and with t the
        # Wronskian gate's 9 (n + 1) doubles a member.
        self.t = np.empty(4 * k * n)
        self.free = np.empty(k * max(_scan_size(n), 6 * (n + 1)))
        self.exps = np.empty(k * (n + 1), np.intc)
        self.outputs = None

    def output_views(self, k):
        """Views (k, 4, n + 1), (k, n + 1) and (k, n + 1) of the node
        entries, omega and theta of outputs, which are made here on first
        use or when they hold fewer than k members."""
        n1 = self.steps + 1
        if self.outputs is None or self.outputs[1].size < k * n1:
            self.outputs = (np.empty(4 * k * n1), np.empty(k * n1),
                            np.empty(k * n1))
        nodes, omega, theta = self.outputs
        return (nodes[:4 * k * n1].reshape(k, 4, n1),
                omega[:k * n1].reshape(k, n1),
                theta[:k * n1].reshape(k, n1))


# The idle workspace, if any; see the module docstring.
_idle = []
_idle_lock = threading.Lock()


@contextlib.contextmanager
def _workspace(steps, members=1):
    """A workspace for `members` potentials at `steps` steps, out of the
    pool while the block runs."""
    with _idle_lock:
        ws = _idle.pop() if _idle else None
    if ws is None or ws.steps != steps or ws.members < members:
        ws = _Workspace(steps, members)
    try:
        yield ws
    finally:
        if ws.members * steps <= DEFAULT_STEPS:
            with _idle_lock:
                _idle[:] = [ws]


def sample_times(steps):
    """The node and midpoint times at which q is sampled for `steps` steps."""
    return _fill_times(np.empty(2 * steps + 1))


def _fill_times(out):
    """out <- the out.size sample times, bit for bit those of
    np.linspace(0, 2 pi, out.size): i * step, with the last time set to
    2 pi, through small index chunks. Returns out."""
    step = TAU / (out.size - 1)
    for i in range(0, out.size, 4096):
        chunk = out[i:i + 4096]
        np.multiply(np.arange(i, i + chunk.size, dtype=float), step, out=chunk)
    out[-1] = TAU
    return out


def _all_finite(a):
    """Whether every entry of a is finite, without a temporary of a's size."""
    return bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def _one(q):
    """The kernel's sampler of one potential q: its samples at the times
    tt, of the shape checked, as a batch of one."""
    def sample(tt):
        qq = np.asarray(q(tt), dtype=float)
        if qq.shape != tt.shape:
            raise DomainError(f"potential evaluation gave shape {qq.shape}; "
                              f"expected (2 steps + 1,) = {tt.shape}")
        return qq[None]
    return sample


def _transfer(qa, qb, qd, h, out, scratch):
    """Entries of T - I for the Runge-Kutta transfer matrices T, (k, 4, n)
    for samples shaped (k, n).

    Written into out, with the two rows of scratch, and returned:
        a = h^2/6 (qa + 2 qb) + h^4/24 qa qb
        b = h + h^3/6 qb
        c = h/6 (qa + 4 qb + qd) + h^3/12 qb (qa + qd)
        d = h^2/6 (2 qb + qd) + h^4/24 qb qd
    """
    u, v = scratch
    a, b, c, d = out.swapaxes(0, 1)
    h2 = h * h
    h4 = h2 * h2 / 24.0
    np.multiply(qb, 2.0, out=a)
    a += qa
    a *= h2 / 6.0
    np.multiply(qa, h4, out=u)
    u *= qb
    a += u
    np.multiply(qb, h * h2 / 6.0, out=b)
    b += h
    np.multiply(qb, 4.0, out=c)
    c += qa
    c += qd
    c *= h / 6.0
    np.multiply(qb, h * h2 / 12.0, out=u)
    np.add(qa, qd, out=v)
    u *= v
    c += u
    np.multiply(qb, 2.0, out=d)
    d += qd
    d *= h2 / 6.0
    np.multiply(qb, h4, out=u)
    u *= qd
    d += u
    return out


def _compose(y, x):
    """Entries of XY - I (Y, then X) from those of Y - I and X - I."""
    xa, xb, xc, xd = x
    ya, yb, yc, yd = y
    return (xa + ya + (xa * ya + xb * yc), xb + yb + (xa * yb + xb * yd),
            xc + yc + (xc * ya + xd * yc), xd + yd + (xc * yb + xd * yd))


def _compose_into(x, y, ef):
    """x <- XY - I in place, associated as in _compose, on (2, 2, ...) views
    of the entries of X - I and Y - I; ef is scratch shaped (2,) + x.shape.

    One product takes both halves of the matrix product:
    ef[s, i, c] = x[i, s] y[s, c].
    """
    e, f = ef
    np.multiply(x.swapaxes(0, 1)[:, :, None], y[:, None], out=ef)
    e += f
    x += y
    x += e


def _carried(x, y, i, c, ef):
    """Entry (i, c) of XY - I, associated as in _compose, written into ef[0]
    and returned.

    x, (BLOCK, 2, 2, k, b), holds the entries of X - I, the in-block
    products of b blocks of k members; y, (2, 2, k, b), those of Y - I,
    each block's predecessor total, broadcast across its steps; ef is
    scratch holding two entries of x. x and y are left as they were.
    """
    e, f = ef
    np.multiply(x[:, i].swapaxes(0, 1), y[:, c, None], out=ef)
    e += f
    e += np.add(x[:, i, c], y[i, c], out=f)
    return e


def _scan_floats(steps, out, initial=None):
    """out <- the running products of the steps, in Python floats.

    steps and out are (lanes, count, 4) views, each lane scanned on its
    own; with initial, the first step of a lane is composed onto it, as a
    lone block is.
    """
    skip = initial is not None
    scans = (list(accumulate(lane, _compose, initial=initial))[skip:]
             for lane in steps.tolist())
    out[...] = np.fromiter(chain.from_iterable(chain.from_iterable(scans)),
                           float, out.size).reshape(out.shape)


def _block_view(a, lo, hi):
    """(BLOCK, 2, 2, k, hi - lo) view of blocks lo to hi of the (k, 4, n)
    entries a: [j, :, :, i, b] is step (lo + b) BLOCK + j of member i."""
    k = a.shape[0]
    return a[..., lo * BLOCK:hi * BLOCK].reshape(k, 2, 2, hi - lo, BLOCK
                                                ).transpose(4, 1, 2, 0, 3)


def _scan_size(n):
    """Doubles of scratch that _blocked_scan takes for n steps of one
    member: the round-major copy, the block totals, and the larger of the
    carry products and the totals' own scan. A batch takes as many times
    that as it has members."""
    if n <= BLOCK:
        return 0
    m = -(-n // BLOCK)
    return 4 * BLOCK * m + 4 * (m - 1) + max(2 * BLOCK * (m - 1), _scan_size(m - 1))


def _blocked_scan(t, out, scratch):
    """Entries of P_i - I, P_i = T_i ... T_0, from those of T_i - I.

    Both are (k, 4, n) arrays of k members, each scanned on its own; t is
    left as it was, and the result goes to out (rows contiguous), which is
    returned. A single block is scanned step by step from the identity.
    Longer runs are copied round-major into the scratch, of at least k
    _scan_size(n) doubles, as p[j, :, :, i, b] = step b BLOCK + j of member
    i, padded with identity steps only when BLOCK does not divide n. Round j
    of the scans inside the blocks then composes the contiguous slab p[j]
    onto p[j - 1], for every block of every member at once; the block totals
    p[-1] are scanned by the same function as a batch, and each block's
    predecessor total is composed into it. With fewer than FLOAT_LANES
    blocks in all, the scans inside the blocks run in Python floats instead,
    where numpy's per-call cost would exceed the work. The composition tree,
    and so every bit of each member's result, is the same either way, and
    the same as for that member alone.
    """
    k, _, n = t.shape
    if n <= BLOCK:
        _scan_floats(t.transpose(0, 2, 1), out.transpose(0, 2, 1),
                     initial=(0.0,) * 4)
        return out
    m = -(-n // BLOCK)
    full, part = divmod(n, BLOCK)
    size = 4 * BLOCK * k * m
    p = scratch[:size].reshape(BLOCK, 2, 2, k, m)
    carry = scratch[size:size + 4 * k * (m - 1)].reshape(k, 4, m - 1)
    rest = scratch[size + 4 * k * (m - 1):]
    by_entry = p.reshape(BLOCK, 4, k, m)
    for i, r in np.ndindex(k, 4):
        steps = t[i, r, :full * BLOCK].reshape(full, BLOCK)
        for lo in range(0, full, COPY_BLOCKS):
            hi = min(lo + COPY_BLOCKS, full)
            by_entry[:, r, i, lo:hi] = steps[lo:hi].T
    if part:
        tail = p[..., full].reshape(BLOCK, 4, k)
        tail[:part] = t[..., full * BLOCK:].transpose(2, 1, 0)
        tail[part:] = 0.0  # the padding steps are I
    if k * m < FLOAT_LANES:
        lanes = p.reshape(BLOCK, 4, k * m).transpose(2, 0, 1)
        _scan_floats(lanes, lanes)
    else:
        ef = rest[:8 * k * m].reshape(2, 2, 2, k, m)
        for j in range(1, BLOCK):
            _compose_into(p[j], p[j - 1], ef)
    _blocked_scan(p[-1, ..., :-1].transpose(2, 0, 1, 3).reshape(k, 4, m - 1),
                  carry, rest)
    _block_view(out, 0, 1)[...] = p[..., :1]
    totals = carry.reshape(k, 2, 2, m - 1).transpose(1, 2, 0, 3)
    ef = rest[:2 * BLOCK * k * (m - 1)].reshape(2, BLOCK, k, m - 1)
    whole = _block_view(out, 1, full)
    for i, c in np.ndindex(2, 2):
        entry = _carried(p[..., 1:], totals, i, c, ef)
        whole[:, i, c] = entry[..., :full - 1]
        if part:  # the last block, of part steps
            out[:, 2 * i + c, full * BLOCK:] = entry[:part, :, -1].T
    return out


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


def _propagate(sample, steps, ws):
    """Sample k potentials; entries of T - I per step and of Phi at the
    nodes.

    steps has passed checked_steps, and sample(tt) gives the samples at the
    sample times tt, shaped (k, 2 steps + 1), which must be finite; the
    results are arrays of the workspace ws shaped (k, 4, steps) and
    (k, 4, steps + 1).
    """
    tt = _fill_times(ws.free[:2 * steps + 1])
    qq = sample(tt)
    if not _all_finite(qq):
        raise DomainError("potential evaluation must give finite values")
    k, size = len(qq), len(qq) * steps
    with np.errstate(over="ignore", invalid="ignore"):
        t = _transfer(qq[:, 0:-1:2], qq[:, 1::2], qq[:, 2::2], TAU / steps,
                      ws.t[:4 * size].reshape(k, 4, steps),
                      ws.free[tt.size:tt.size + 2 * size].reshape(2, k, steps))
        del qq  # it may be a view of tt, which the scan overwrites
        nodes = ws.output_views(k)[0]
        nodes[..., 0] = 0.0
        _blocked_scan(t, nodes[..., 1:], ws.free)
    nodes[:, ::3] += 1.0  # the diagonal entries a and d
    if not _all_finite(nodes):
        i = next(i for i in range(k) if not _all_finite(nodes[i]))
        raise _overflow("fundamental matrix entries are not finite", nodes[i])
    return t, nodes


def _checked_turns(turns):
    """The per-step angles (k, n), after the gate that makes them exact.

    The members are gated one by one; the first to fail raises.
    """
    # max |turn| of each member, no temporary of the turns' size
    worst = np.maximum(turns.max(axis=-1), -turns.min(axis=-1))
    for w in worst.tolist():
        if not w < STEP_ANGLE_LIMIT:
            raise NumericalInvariantError(
                f"angle change {w:.3e} in one step is not below "
                f"{STEP_ANGLE_LIMIT:.3e}; increase steps")
    return turns


def _scale(x, y, out, tmp):
    """Larger |entry| of each vector (x, y); a zero vector has no angle.

    Written into out, with tmp as scratch, and returned. x and y may have
    any leading shape, the nodes running along the last axis; a zero
    vector raises for the first row that holds one, naming its node.
    """
    scale = np.maximum(np.abs(x, out=out), np.abs(y, out=tmp), out=out)
    if not scale.all():  # steps with det T << 1 can round a vector to zero
        i = next(i for i in np.ndindex(scale.shape[:-1]) if not scale[i].all())
        raise NumericalInvariantError(
            f"the second column or a solution vector is zero at node "
            f"{int(np.argmin(scale[i]))} of {scale.shape[-1]}: the step "
            "determinants shrank it below rounding; increase steps")
    return scale


def _column_turns(t, x, y, scratch):
    """Per-step angles of the columns (x, y) at the left nodes.

    t holds the entries (k, 4, n) and x, y are (k, n). The columns are
    scaled by their larger entry, which cannot overflow. scratch holds six
    vectors shaped like x, of which the first two may be x and y
    themselves; the angles come back in the third.
    """
    ta, tb, tc, td = t.swapaxes(0, 1)
    xs, ys, cross, dot, u, v = scratch
    scale = _scale(x, y, out=cross, tmp=u)
    x = np.divide(x, scale, out=xs)
    y = np.divide(y, scale, out=ys)
    # cross = tc x x + (td - ta) x y - tb y y
    np.multiply(tc, x, out=cross)
    cross *= x
    np.subtract(td, ta, out=u)
    u *= x
    u *= y
    cross += u
    np.multiply(tb, y, out=u)
    u *= y
    cross -= u
    # dot = x x + y y + x (ta x + tb y) + y (tc x + td y)
    np.multiply(x, x, out=dot)
    np.multiply(y, y, out=u)
    dot += u
    np.multiply(ta, x, out=u)
    np.multiply(tb, y, out=v)
    u += v
    u *= x
    dot += u
    np.multiply(tc, x, out=u)
    np.multiply(td, y, out=v)
    u += v
    u *= y
    dot += u
    return _checked_turns(np.arctan2(cross, dot, out=cross))


def _check_wronskian(nodes, ws):
    """The node Wronskian gate on (k, 4, n + 1) node entries, on the
    workspace's buffers.

    A fast accept comes first: |ad - bc - 1| unscaled, in the buffer of
    T - I, which is dead by now. Where it is within 1e-6 at every node of
    every member, the gate passes; otherwise, or where a product overflows,
    _scaled_wronskian decides and words any refusal.

    The fast accept passes nothing that the scaled test refuses. Scaling by
    s = 2^-k commutes with rounding while values stay normal, and then the
    scaled deviation is s^2 times the unscaled one, within the allowance's
    s^2 1e-6. Subnormal values round absolutely instead. Two doubles whose
    difference rounds within 1e-6 of 1 are below 2^54, so where
    s^2 < 2^-110 every scaled term, and so the deviation, is below the
    allowance's floor of 16 eps (s |Phi_i| >= 1 once k >= 1). Where s^2 is
    larger, a subnormal is an entry below 2^-967 or a product of two;
    either way that product is below 2^-1021 while the other is near s^2,
    so the difference rounds to the other's grid point scaled and unscaled
    alike, and the exact relation holds.
    """
    a, b, c, d = nodes.swapaxes(0, 1)
    dev, tmp = ws.t[:2 * a.size].reshape(2, *a.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(a, d, out=dev)
        dev -= np.multiply(b, c, out=tmp)
        dev -= 1.0
        if np.abs(dev, out=dev).max() <= 1e-6:
            return
    _scaled_wronskian(nodes, ws)


def _scaled_wronskian(nodes, ws):
    """The node Wronskian test, scaled, for (k, 4, n + 1) node entries.

    ad - bc rounds at |Phi_i|^2 eps, so the allowance grows with the entry
    size. As in CoverElement, each node is divided by the power of two at
    or below its largest |entry|, which rounds as Phi_i does but cannot
    overflow. In a batch, the first member to fail raises.
    """
    members, _, n1 = nodes.shape
    size = members * n1
    scaled = ws.free[:4 * size].reshape(members, 4, n1)
    largest, scale, dev = ws.t[:3 * size].reshape(3, members, n1)
    allowed, tmp = ws.free[4 * size:6 * size].reshape(2, members, n1)
    np.abs(nodes, out=scaled)
    np.max(scaled, axis=1, out=largest)
    neg_k = np.frexp(largest, out=(tmp, ws.exps[:size].reshape(members, n1)))[1]
    np.subtract(1, neg_k, out=neg_k)
    np.minimum(neg_k, 0, out=neg_k)  # -k, k = max(exponent - 1, 0)
    np.ldexp(1.0, neg_k, out=scale)
    np.multiply(nodes, scale[:, None], out=scaled)
    sa, sb, sc, sd = scaled.swapaxes(0, 1)
    largest *= scale
    one = np.square(scale, out=scale)  # the unit determinant, scaled
    np.multiply(sa, sd, out=dev)
    np.multiply(sb, sc, out=tmp)
    dev -= tmp
    dev -= one
    np.abs(dev, out=dev)
    np.multiply(one, 1e-6, out=allowed)
    np.square(largest, out=tmp)
    tmp *= 16.0 * np.finfo(float).eps
    np.maximum(allowed, tmp, out=allowed)
    worst = np.argmax(np.divide(dev, allowed, out=tmp), axis=1).tolist()
    for i, w in enumerate(worst):
        if dev[i, w] > allowed[i, w]:
            drift, k = float(dev[i, w]), -int(neg_k[i, w])
            try:
                drift = f"{math.ldexp(drift, 2 * k):.3e}"
            except OverflowError:  # beyond the double range unscaled
                drift = f"{drift:.3e} * 4**{k}"
            raise NumericalInvariantError(
                f"Wronskian drift {drift}; increase steps")


def _windings(sample, steps, ws):
    """The kernel: node entries, omega and theta in ws, past every gate,
    for the batch of k potentials that sample gives, as (k, 4, steps + 1),
    (k, steps + 1) and (k, steps + 1)."""
    t, nodes = _propagate(sample, steps, ws)
    k = len(nodes)
    _, omega, theta = ws.output_views(k)
    omega[:, 0] = 0.0
    turns = _column_turns(t, nodes[:, 1, :-1], nodes[:, 3, :-1],
                          ws.free[:6 * k * steps].reshape(6, k, steps))
    np.cumsum(turns, axis=-1, out=omega[:, 1:])
    # The branch rule of cover.to_right_iwasawa at every node; the gate on
    # its steps refuses a 2 pi slip of omega wherever it falls.
    np.arctan2(nodes[:, 1], nodes[:, 0], out=theta)
    branch = np.negative(omega, out=ws.free[:omega.size].reshape(omega.shape))
    branch -= theta
    branch /= TAU
    np.round(branch, out=branch)
    branch *= TAU
    theta += branch
    _checked_turns(np.subtract(theta[..., 1:], theta[..., :-1],
                               out=ws.free[:k * steps].reshape(k, steps)))
    _check_wronskian(nodes, ws)
    return nodes, omega, theta


def integrate(q, steps=DEFAULT_STEPS):
    """Fundamental path of -v'' + q v = 0 over [0, 2 pi].

    Parameters
    ----------
    q : callable
        Potential, evaluated vectorized on node and midpoint times.
    steps : int
        Number of fixed Runge-Kutta steps, at least 16.
    """
    steps = checked_steps(steps)
    with _workspace(steps) as ws:
        if ws.outputs is not None and ws.outputs[1].size > steps + 1:
            ws.outputs = None  # made for a batch: the path gets its own
        (nodes,), (omega,), (theta,) = _windings(_one(q), steps, ws)
        ws.outputs = None  # the path owns them from here on
    return FundamentalPath(np.linspace(0.0, TAU, steps + 1), nodes, theta, omega)


def _lifts(sample, steps, ws):
    """MonodromyResults of the potentials that sample gives, in order."""
    nodes, omega, _ = _windings(sample, steps, ws)
    out = []
    for end, w in zip(nodes[..., -1].reshape(-1, 2, 2), omega[:, -1]):
        try:  # the element copies the endpoint out of the workspace
            element = CoverElement(end, w)
        except NumericalInvariantError as exc:
            raise NumericalInvariantError(f"{exc}; increase steps") from None
        theta_r = to_right_iwasawa(element).theta
        if not (winding_exceeds(element, 0.0) and theta_r > 0.0):
            raise NumericalInvariantError("monodromy left the expected image set")
        out.append(MonodromyResult(element, theta_r))
    return out


def monodromy(q, steps=DEFAULT_STEPS):
    """Lifted monodromy of the potential together with its right angle.

    Returns a MonodromyResult (element, theta_r). The endpoint must pass
    the CoverElement checks; theta_r is the right Iwasawa angle of the
    element, whose 2 pi branch is fixed by the column winding; and the
    element must land in the monodromy image (negative winding, positive
    right angle). All are verified.
    """
    steps = checked_steps(steps)
    with _workspace(steps) as ws:
        (result,) = _lifts(_one(q), steps, ws)
    return result


def monodromies(samples, steps=DEFAULT_STEPS):
    """Lifted monodromies of k potentials sampled on one grid, in one run.

    samples is (k, 2 steps + 1): row i holds potential i at
    sample_times(steps). Returns k MonodromyResults, each bit for bit what
    monodromy gives for its row alone, through one pass of the kernel. A
    member that fails a check raises what its own call would; if several
    do, the first in order to fail the earliest check.
    """
    steps = checked_steps(steps)
    samples = np.asarray(samples, dtype=float)
    if samples.shape[1:] != (2 * steps + 1,) or not samples.size:
        raise DomainError(f"samples have shape {samples.shape}; expected "
                          f"(k, 2 steps + 1) = (k, {2 * steps + 1}), k >= 1")
    with _workspace(steps, len(samples)) as ws:
        return _lifts(lambda tt: samples, steps, ws)


def solution_winding(q, phi0, steps=DEFAULT_STEPS):
    """Winding of (u, u') for the solution with (u, u')(0) on angle phi0.

    The initial condition is u(0) = cos(phi0), u'(0) = sin(phi0) and the
    returned value is the total variation of the counterclockwise argument
    of (u(t), u'(t)) over [0, 2 pi]. It is read off the endpoint lift
    (Phi(2 pi), omega(2 pi)), past the gates integrate applies, in the
    closed form of cover.arg_variation: the turn from u0 to Phi(2 pi) u0
    that lies within pi of omega(2 pi).
    """
    steps = checked_steps(steps)
    c0, s0 = math.cos(phi0), math.sin(phi0)
    with _workspace(steps) as ws:
        nodes, omega, _ = _windings(_one(q), steps, ws)
        a, b, c, d = nodes[0, :, -1].tolist()
        near = float(omega[0, -1])
    return _arg_change((c0, s0), (a * c0 + b * s0, c * c0 + d * s0), near)
