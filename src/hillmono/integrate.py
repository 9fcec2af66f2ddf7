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

A run of more than CHUNK steps goes CHUNK steps at a time. Each chunk
starts from the last node's matrix and omega of the one before, whose node
is its node 0, so the column and theta step gates and the Wronskian gate
still see every step and every node. The gates measure each chunk and
decide once the run is over, so a refusal is the one a single pass over
the whole run raises, with the same message (see _Gates). The scan of a
chunk is the blocked scan started from that node, as P - I: every level
scans its block totals from it, and composes the chunk's first block with
it. A run of at most CHUNK steps keeps every bit of one pass. A longer
one adds one composition with the carried node a chunk, so its rounding
grows linearly in the chunks, at most 128, and stays far below the
Runge-Kutta error at those step counts.

The kernel writes every intermediate into a workspace made for the steps
n of one chunk, at most CHUNK, and up to k members: t, the entries of
T - I (4 k n doubles); free (about 6.1 k n), reused phase by phase for the
sample times and the transfer scratch, then the round-major scan copy, the
block totals and the carry products, then the column and theta step
angles, and last, with t, which is dead by then, the scaled nodes and the
vectors of the Wronskian gate; an int array for the gate's exponents; and
the node entries, omega and theta, 6 k (n + 1) doubles, made once the
samples are taken. Per call, only the potential's samples are allocated,
and for a run of more than one chunk its sample times. t and free are
two arrays, not one, so that each stays small enough for malloc to serve
it from freed heap memory rather than from fresh pages. The ufuncs write
through out= and run the operations of the formulas in the same order,
with the operands of a product or a sum at most swapped, which IEEE
arithmetic keeps exact; so every bit of every result is what the formulas
give with temporaries.

Nothing of a monodromy, monodromies or solution_winding call escapes but
its endpoints, so those calls take their workspace from a pool and give it
back if it holds at most CHUNK member-steps, as every batch of a spectrum
scan does: one idle workspace is kept, about 16.7 doubles a member-step,
at most 4.4 MB. A workspace serves any batch up to its k at its chunk
length, through prefix views of its buffers. A workspace is out of the
pool while a call uses it, so threads, and a potential that itself calls
monodromy, each run on their own buffers. A larger batch makes its own,
which is let go with the call. integrate takes its workspace from the
pool too. Its path of one chunk takes the workspace's node entries and
windings, so they are never shared; a longer path is allocated whole,
and each chunk is copied into it.
"""

import contextlib
import functools
import math
import threading
from itertools import accumulate, chain, repeat
from typing import NamedTuple

import numpy as np

from .cover import CoverElement, _arg_change, to_right_iwasawa, winding_exceeds
from .errors import DomainError, Immutable, NumericalInvariantError

TAU = math.tau

DEFAULT_STEPS = 16384
MIN_STEPS = 16
# Largest step count accepted. integrate's path takes 48 bytes a node, and
# the sample times and samples 32 bytes a step, so this bounds an integrate
# call at about 0.34 GB; the other calls hold the samples and one chunk.
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
# Steps per chunk: a longer run is integrated CHUNK steps at a time, in a
# workspace for CHUNK steps, each chunk scanned from the last node of the
# one before. Any length serves; past one chunk, the bits of a run depend
# on it. On a shared 2-vCPU Xeon, one warm monodromy call took 109 ns a
# step at 32768 steps, 119 at 16384 and 128 to 146 from 65536 steps up.
CHUNK = BLOCK ** 3


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
        self.free = np.empty(k * max(_scan_size(n, n == CHUNK), 6 * (n + 1)))
        self.exps = np.empty(k * (n + 1), np.intc)
        self.outputs = None

    def output_views(self, k, n):
        """Views (k, 4, n + 1), (k, n + 1) and (k, n + 1) of the node
        entries, omega and theta of outputs, for n <= steps; the outputs are
        made here on first use or when they hold fewer than k members."""
        n1 = n + 1
        if self.outputs is None or self.outputs[1].size < k * n1:
            size = k * (self.steps + 1)
            self.outputs = (np.empty(4 * size), np.empty(size), np.empty(size))
        nodes, omega, theta = self.outputs
        return (nodes[:4 * k * n1].reshape(k, 4, n1),
                omega[:k * n1].reshape(k, n1),
                theta[:k * n1].reshape(k, n1))


# The idle workspace, if any; see the module docstring.
_idle = []
_idle_lock = threading.Lock()


@contextlib.contextmanager
def _workspace(steps, members=1):
    """A workspace for `members` potentials at `steps` steps, in chunks of
    at most CHUNK, out of the pool while the block runs; it goes back if it
    holds at most CHUNK member-steps."""
    steps = min(steps, CHUNK)
    with _idle_lock:
        ws = _idle.pop() if _idle else None
    if ws is None or ws.steps != steps or ws.members < members:
        ws = _Workspace(steps, members)
    try:
        yield ws
    finally:
        if ws.members * ws.steps <= CHUNK:
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


def _one(q, steps, ws):
    """The samples of one potential q at sample_times(steps), of the shape
    checked, as a batch of one. The times of a run of one chunk are
    written into the scratch of the workspace ws."""
    tt = np.empty(2 * steps + 1) if steps > CHUNK else ws.free[:2 * steps + 1]
    tt = _fill_times(tt)
    qq = np.asarray(q(tt), dtype=float)
    if qq.shape != tt.shape:
        raise DomainError(f"potential evaluation gave shape {qq.shape}; "
                          f"expected (2 steps + 1,) = {tt.shape}")
    return qq[None]


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
    each block's predecessor (the totals before it, or the scan's start),
    broadcast across its steps; ef is scratch holding two entries of x. x
    and y are left as they were.
    """
    e, f = ef
    np.multiply(x[:, i].swapaxes(0, 1), y[:, c, None], out=ef)
    e += f
    e += np.add(x[:, i, c], y[i, c], out=f)
    return e


def _scan_floats(steps, out, starts=None):
    """out <- the running products of the steps, in Python floats.

    steps and out are (lanes, count, 4) views, each lane scanned on its
    own; with starts, the first step of lane i is composed onto starts[i],
    as a lone block is.
    """
    skip = starts is not None
    scans = (list(accumulate(lane, _compose, initial=start))[skip:]
             for lane, start in zip(steps.tolist(), starts or repeat(None)))
    out[...] = np.fromiter(chain.from_iterable(chain.from_iterable(scans)),
                           float, out.size).reshape(out.shape)


def _block_view(a, lo, hi):
    """(BLOCK, 2, 2, k, hi - lo) view of blocks lo to hi of the (k, 4, n)
    entries a: [j, :, :, i, b] is step (lo + b) BLOCK + j of member i."""
    k = a.shape[0]
    return a[..., lo * BLOCK:hi * BLOCK].reshape(k, 2, 2, hi - lo, BLOCK
                                                ).transpose(4, 1, 2, 0, 3)


def _scan_size(n, start=False):
    """Doubles of scratch that _blocked_scan takes for n steps of one
    member: the round-major copy, each block's predecessor, and the larger
    of the carry products and the totals' own scan; with start, as a chunk
    scanned from a start, which adds the first block's predecessor at every
    level. A batch takes as many times that as it has members."""
    if n <= BLOCK:
        return 0
    m = -(-n // BLOCK)
    width = m - 1 + start
    return (4 * BLOCK * m + 4 * width
            + max(2 * BLOCK * width, _scan_size(m - 1, start)))


def _blocked_scan(t, out, scratch, start=None):
    """Entries of P_i - I, P_i = T_i ... T_0 S, from those of T_i - I.

    Both are (k, 4, n) arrays of k members, each scanned on its own; t is
    left as it was, and the result goes to out (rows contiguous), which is
    returned. S is the identity, or with start, (k, 4), the matrix whose
    entries of S - I start holds for each member. A single block is scanned
    step by step from S. Longer runs are copied round-major into the
    scratch, of at least k _scan_size(n, start is not None) doubles, as
    p[j, :, :, i, b] = step b BLOCK + j of member i, padded with identity
    steps only when BLOCK does not divide n. Round j of the scans inside
    the blocks then composes the contiguous slab p[j] onto p[j - 1], for
    every block of every member at once; the block totals p[-1] but the
    last are scanned by the same function as a batch, from S, and each
    block is composed with its predecessor: the total before it, or S for
    the first block, which without start is left as it is. With fewer than
    FLOAT_LANES blocks in all, the scans inside the blocks run in Python
    floats instead, where numpy's per-call cost would exceed the work. The
    composition tree, and so every bit of each member's result, is the same
    either way, and the same as for that member alone.
    """
    k, _, n = t.shape
    if n <= BLOCK:
        _scan_floats(t.transpose(0, 2, 1), out.transpose(0, 2, 1),
                     [(0.0,) * 4] * k if start is None else start.tolist())
        return out
    m = -(-n // BLOCK)
    full, part = divmod(n, BLOCK)
    # Blocks first to m - 1 are composed with their predecessors, held in
    # before: S, with start, then the scanned totals.
    first = int(start is None)
    width = m - first
    size = 4 * BLOCK * k * m
    p = scratch[:size].reshape(BLOCK, 2, 2, k, m)
    before = scratch[size:size + 4 * k * width].reshape(k, 4, width)
    rest = scratch[size + 4 * k * width:]
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
    _blocked_scan(p[-1, ..., :m - 1].transpose(2, 0, 1, 3).reshape(k, 4, m - 1),
                  before[..., 1 - first:], rest, start)
    if start is None:
        _block_view(out, 0, 1)[...] = p[..., :1]
    else:
        before[..., 0] = start
    y = before.reshape(k, 2, 2, width).transpose(1, 2, 0, 3)
    ef = rest[:2 * BLOCK * k * width].reshape(2, BLOCK, k, width)
    whole = _block_view(out, first, full)
    for i, c in np.ndindex(2, 2):
        entry = _carried(p[..., first:], y, i, c, ef)
        whole[:, i, c] = entry[..., :full - first]
        if part:  # the last block, of part steps
            out[:, 2 * i + c, full * BLOCK:] = entry[:part, :, -1].T
    return out


class _Gates:
    """The gates' measurements of a run, per member, merged over its
    chunks. refuse() then raises what one pass over the whole run raises:
    the first member to fail the earliest gate, in the order overflow,
    zero vector, column step, theta step, Wronskian.

    Rows of worst: the largest column and theta steps, the largest finite
    |entry|, whether an entry is not finite, and the first node with a zero
    vector (-1: none); drift holds the Wronskian's (ratio, refusal).
    """

    __slots__ = ("steps", "worst", "drift")

    def __init__(self, k, steps):
        self.steps = steps
        self.worst = np.zeros((5, k))
        self.worst[4] = -1.0
        self.drift = [None] * k

    def nodes(self, nodes):
        flat = nodes.reshape(len(nodes), -1)
        high, low = flat.max(axis=1), flat.min(axis=1)
        finite = np.isfinite(high) & np.isfinite(low)
        largest, overflow = self.worst[2:4]
        np.maximum(largest, np.where(finite, np.maximum(high, -low), 0.0),
                   out=largest)
        for i in np.flatnonzero(~finite).tolist():
            entries = np.abs(flat[i][np.isfinite(flat[i])])
            if entries.size:
                largest[i] = max(largest[i], entries.max())
            overflow[i] = 1.0

    def zero(self, zero, lo):
        """Merge the (k, n) zero vectors at the chunk's left nodes from lo."""
        first = np.where(zero.any(axis=-1), lo + np.argmax(zero, axis=-1), -1)
        row = self.worst[4]
        row[row < 0] = first[row < 0]

    def turned(self, gate, turns):
        """Merge the (k, n) step angles of gate 0 (column) or 1 (theta)."""
        worst = np.maximum(turns.max(axis=-1), -turns.min(axis=-1))
        np.maximum(self.worst[gate], worst, out=self.worst[gate])

    def wronskian(self, measured):
        for i, (ratio, refusal) in enumerate(measured or ()):
            if self.drift[i] is None or ratio > self.drift[i][0]:
                self.drift[i] = (ratio, refusal)

    def refuse(self):
        turns, largest, overflow, zero = self.worst[:2], *self.worst[2:]
        for i in np.flatnonzero(overflow)[:1].tolist():
            raise NumericalInvariantError(
                "fundamental matrix entries are not finite: double precision "
                "overflows; largest finite |entry| of the fundamental matrix "
                f"is {float(largest[i]):.3e}")
        for node in zero[zero >= 0][:1].tolist():
            raise NumericalInvariantError(
                f"the second column or a solution vector is zero at node "
                f"{int(node)} of {self.steps}: the step determinants shrank "
                "it below rounding; increase steps")
        for w in turns.ravel().tolist():
            if not w < STEP_ANGLE_LIMIT:
                raise NumericalInvariantError(
                    f"angle change {w:.3e} in one step is not below "
                    f"{STEP_ANGLE_LIMIT:.3e}; increase steps")
        for _, refusal in filter(None, self.drift):
            if refusal:
                raise NumericalInvariantError(refusal)


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


def _steps(qq, h, ws):
    """Entries of T - I, (k, 4, n) in the workspace ws, for the samples qq
    of k potentials at a chunk's sample times, (k, 2 n + 1), and the step
    h."""
    k, n = len(qq), qq.shape[1] // 2
    size = k * n
    with np.errstate(over="ignore", invalid="ignore"):
        # The scratch lies past the sample times, which qq may view.
        return _transfer(qq[:, 0:-1:2], qq[:, 1::2], qq[:, 2::2], h,
                         ws.t[:4 * size].reshape(k, 4, n),
                         ws.free[2 * n + 1:2 * n + 1 + 2 * size].reshape(2, k, n))


def _propagate(t, ws, start=None):
    """t, the entries (k, 4, n) of T - I of a chunk; the entries of Phi at
    its nodes, (k, 4, n + 1) in the workspace ws; and the (k, 4) entries of
    Phi - I at its last node, the start of the next chunk. The first node
    is the identity, or with start the matrix whose entries of Phi - I
    start holds, the last node of the chunk before."""
    k, _, n = t.shape
    nodes = ws.output_views(k, n)[0]
    nodes[..., 0] = 0.0 if start is None else start
    with np.errstate(over="ignore", invalid="ignore"):
        _blocked_scan(t, nodes[..., 1:], ws.free, start)
    last = nodes[..., -1].copy()  # before the diagonal is rounded against 1
    nodes[:, ::3] += 1.0  # the diagonal entries a and d
    return t, nodes, last


def _scale(x, y, out, tmp):
    """Larger |entry| of each vector (x, y), written into out, with tmp as
    scratch, and returned. x and y may have any leading shape."""
    return np.maximum(np.abs(x, out=out), np.abs(y, out=tmp), out=out)


def _column_turns(t, x, y, scratch, gates, lo=0):
    """Per-step angles of the columns (x, y) at the left nodes, measured
    by the column gate of gates; lo is the chunk's first step.

    t holds the entries (k, 4, n) and x, y are (k, n). The columns are
    scaled by their larger entry, which cannot overflow. A zero vector has
    no angle: gates records its first node, and its angles are 0. scratch
    holds six vectors shaped like x, of which the first two may be x and y
    themselves; the angles come back in the third.
    """
    ta, tb, tc, td = t.swapaxes(0, 1)
    xs, ys, cross, dot, u, v = scratch
    scale = _scale(x, y, out=cross, tmp=u)
    if not scale.all():  # steps with det T << 1 can round a vector to zero
        zero = scale == 0.0
        gates.zero(zero, lo)
        scale[zero] = 1.0
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
    turns = np.arctan2(cross, dot, out=cross)
    gates.turned(0, turns)
    return turns


def _check_wronskian(nodes, ws):
    """The node Wronskian gate's measurement of (k, 4, n + 1) node entries,
    on the workspace's buffers: None where every node passes, else what
    _scaled_wronskian returns.

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
            return None
    return _scaled_wronskian(nodes, ws)


def _scaled_wronskian(nodes, ws):
    """The node Wronskian test, scaled, for (k, 4, n + 1) node entries.

    ad - bc rounds at |Phi_i|^2 eps, so the allowance grows with the entry
    size. As in CoverElement, each node is divided by the power of two at
    or below its largest |entry|, which rounds as Phi_i does but cannot
    overflow. Returns, per member, the largest ratio of the deviation to
    its allowance, at its first node, and the refusal there, or None where
    that node passes.
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
    ratio = np.divide(dev, allowed, out=tmp)
    measured = []
    for i, w in enumerate(np.argmax(ratio, axis=1).tolist()):
        refusal = None
        if dev[i, w] > allowed[i, w]:
            drift, k = float(dev[i, w]), -int(neg_k[i, w])
            try:
                drift = f"{math.ldexp(drift, 2 * k):.3e}"
            except OverflowError:  # beyond the double range unscaled
                drift = f"{drift:.3e} * 4**{k}"
            refusal = f"Wronskian drift {drift}; increase steps"
        measured.append((float(ratio[i, w]), refusal))
    return measured


def _windings(sample, steps, ws, path=None):
    """The kernel: node entries, omega and theta past every gate, for the
    k potentials whose samples sample() gives, (k, 2 steps + 1).

    The run goes CHUNK steps at a time, each chunk from the last node and
    omega of the one before; the gates measure each chunk and decide once
    the run is over. Returns the last chunk's node entries, omega and
    theta in ws, (k, 4, n + 1), (k, n + 1) and (k, n + 1); path, arrays of
    those shapes for n = steps, takes a copy of every chunk's. The samples
    are let go once the last chunk's steps are made.
    """
    qq = sample()
    if not _all_finite(qq):
        raise DomainError("potential evaluation must give finite values")
    k = len(qq)
    gates = start = None
    end = 0.0  # omega at the chunk's first node
    for lo in range(0, steps, CHUNK):
        n = min(CHUNK, steps - lo)
        t = _steps(qq[:, 2 * lo:2 * (lo + n) + 1], TAU / steps, ws)
        if lo + n == steps:
            del qq
        t, nodes, start = _propagate(t, ws, start)
        if gates is None:  # made past the first scan, where a run peaks
            gates = _Gates(k, steps)
        gates.nodes(nodes)
        if gates.worst[3].any():  # an overflow, which refuse() raises first:
            continue  # only the largest finite entry is measured on
        _, omega, theta = ws.output_views(k, n)
        omega[:, 0] = end
        turns = _column_turns(t, nodes[:, 1, :-1], nodes[:, 3, :-1],
                              ws.free[:6 * k * n].reshape(6, k, n), gates, lo)
        if lo:
            turns[:, 0] += end
        np.cumsum(turns, axis=-1, out=omega[:, 1:])
        # The branch rule of cover.to_right_iwasawa at every node; the gate
        # on its steps refuses a 2 pi slip of omega wherever it falls.
        np.arctan2(nodes[:, 1], nodes[:, 0], out=theta)
        branch = np.negative(omega,
                             out=ws.free[:omega.size].reshape(omega.shape))
        branch -= theta
        branch /= TAU
        np.round(branch, out=branch)
        branch *= TAU
        theta += branch
        gates.turned(1, np.subtract(theta[..., 1:], theta[..., :-1],
                                    out=ws.free[:k * n].reshape(k, n)))
        gates.wronskian(_check_wronskian(nodes, ws))
        end = omega[:, -1].copy()
        if path is not None:
            for whole, part in zip(path, (nodes, omega, theta)):
                whole[..., lo:lo + n + 1] = part
    gates.refuse()
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
        sample = functools.partial(_one, q, steps, ws)
        if steps <= CHUNK:  # the path takes the workspace's outputs
            ws.outputs = None
            (nodes,), (omega,), (theta,) = _windings(sample, steps, ws)
            ws.outputs = None
        else:
            path = (np.empty((1, 4, steps + 1)), np.empty((1, steps + 1)),
                    np.empty((1, steps + 1)))
            _windings(sample, steps, ws, path)
            (nodes,), (omega,), (theta,) = path
    return FundamentalPath(np.linspace(0.0, TAU, steps + 1), nodes, theta, omega)


def _lifts(sample, steps, ws):
    """MonodromyResults of the potentials whose samples sample() gives, in
    order."""
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
        (result,) = _lifts(functools.partial(_one, q, steps, ws), steps, ws)
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
        return _lifts(lambda: samples, steps, ws)


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
        nodes, omega, _ = _windings(functools.partial(_one, q, steps, ws),
                                    steps, ws)
        a, b, c, d = nodes[0, :, -1].tolist()
        near = float(omega[0, -1])
    return _arg_change((c0, s0), (a * c0 + b * s0, c * c0 + d * s0), near)
