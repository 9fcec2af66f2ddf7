"""Independent oracles used by the test suite.

Everything here is deliberately built from different machinery than the
package: finite differences and sparse eigensolvers instead of shooting,
and discrete argument tracking instead of the chart algebra. Frozen
reference values were produced by the generators in this file and are
asserted against the generators themselves in the tests that use them.
"""

import math

import numpy as np
from scipy.sparse import diags_array, eye_array
from scipy.sparse.linalg import eigsh

from hillmono import NumericalInvariantError
from hillmono.integrate import _scale
from hillmono.kepler import _time_table

TAU = math.tau

# Five lowest periodic eigenvalues of -v'' + 2 cos(t) v = s v on [0, 2 pi],
# from fd_line_eigenvalues(2 cos t, 1, 5, n=2048), rounded to 8 decimals.
FROZEN_MATHIEU_FD2048 = (-1.07013018, 0.68671834, 1.70726674,
                         4.11299535, 4.16244178)


def fd_line_eigenvalues(q0, qplus, count, n=2048, sigma=-3.0):
    """Lowest eigenvalues of (-D^2 + Q0) v = s Qplus v with periodic wrap.

    Central second differences on n points; the generalized pencil is
    solved in shift-invert mode about sigma, which must sit below the
    ground eigenvalue.
    """
    t = np.arange(n) * (TAU / n)
    h = TAU / n
    main = 2.0 / h ** 2 + q0(t)
    off = np.full(n - 1, -1.0 / h ** 2)
    a = diags_array([main, off, off], offsets=[0, 1, -1], format="lil")
    a[0, n - 1] = -1.0 / h ** 2
    a[n - 1, 0] = -1.0 / h ** 2
    b = diags_array([qplus(t)], offsets=[0], format="csc")
    vals = eigsh(a.tocsc(), k=count, M=b, sigma=sigma, which="LM",
                 return_eigenvectors=False)
    return np.sort(vals)


def tracked_arg_variation(path_fn, n=4096):
    """Total continuous argument variation of a nonvanishing plane path.

    path_fn maps s in [0, 1] to a 2-vector; increments larger than pi/2
    per step raise, so n must resolve the path.
    """
    s = np.linspace(0.0, 1.0, n + 1)
    vecs = np.array([path_fn(si) for si in s])
    angles = np.arctan2(vecs[:, 1], vecs[:, 0])
    steps = np.diff(angles)
    steps = (steps + math.pi) % TAU - math.pi
    if np.abs(steps).max() > math.pi / 2:
        raise AssertionError("tracking grid too coarse for this path")
    return float(steps.sum())


def left_chart_path(theta, rho, nu):
    """Straight-segment path from the identity to the left-chart point."""

    def at(s):
        st = s * theta
        rs = 1.0 + s * (rho - 1.0)
        sr = math.sqrt(rs)
        c, si = math.cos(st), math.sin(st)
        rot = np.array([[c, si], [-si, c]])
        lower = np.array([[sr, 0.0], [0.5 * s * nu / sr, 1.0 / sr]])
        return rot @ lower

    return at


def tracked_row_angle(theta, rho, nu, n=4096):
    """Right-angle sweep of a left-chart segment by discrete tracking.

    Follows the argument of the first row of the matrix along the straight
    chart segment from the identity to (theta, rho, nu); the total
    counterclockwise variation is the right Iwasawa angle of the endpoint.
    """
    s = np.linspace(0.0, 1.0, n + 1)
    st = s * theta
    rs = 1.0 + s * (rho - 1.0)
    sr = np.sqrt(rs)
    row_x = np.cos(st) * sr + np.sin(st) * (0.5 * s * nu / sr)
    row_y = np.sin(st) / sr
    steps = np.diff(np.arctan2(row_y, row_x))
    steps = (steps + math.pi) % TAU - math.pi
    if np.abs(steps).max() > math.pi / 2:
        raise AssertionError("tracking grid too coarse for this path")
    return float(steps.sum())


def char_poly_at_one(m):
    """1 - tr(M) + det(M): zero exactly when 1 is an eigenvalue of M."""
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return 1.0 - tr + det


def rel_l2(f_vals, g_vals, t):
    """Relative L2 distance of two sampled functions on the grid t."""
    num = math.sqrt(np.trapezoid((f_vals - g_vals) ** 2, t))
    den = math.sqrt(np.trapezoid(g_vals ** 2, t))
    return num / den


# The blocked prefix scan of hillmono.integrate with every level of more
# than one block vectorized across its blocks in numpy. The package runs
# levels of at most BLOCK * BLOCK steps in Python floats instead; both
# compose in the same order, so they must agree bit for bit.
BLOCK = 32


def _compose(x, y):
    """Entries of XY - I from those of X - I and Y - I."""
    xa, xb, xc, xd = x
    ya, yb, yc, yd = y
    return (xa + ya + (xa * ya + xb * yc), xb + yb + (xa * yb + xb * yd),
            xc + yc + (xc * ya + xd * yc), xd + yd + (xc * yb + xd * yd))


def blocked_scan(t):
    """Entries of P_i - I, P_i = T_i ... T_0, from those of T_i - I.

    Both are (4, n) arrays. A single block is scanned step by step; longer
    runs go through the blocked scan with the block totals scanned by the
    same function.
    """
    n = t.shape[1]
    if n <= BLOCK:
        out = np.empty_like(t)
        e = (0.0, 0.0, 0.0, 0.0)
        for i, step in enumerate(zip(*t.tolist())):
            e = _compose(step, e)
            out[:, i] = e
        return out
    m = -(-n // BLOCK)
    padded = np.zeros((4, m * BLOCK))  # the padding steps are I
    padded[:, :n] = t
    # Block layout: p[:, j, k] is step k * BLOCK + j.
    p = np.ascontiguousarray(padded.reshape(4, m, BLOCK).transpose(0, 2, 1))
    for j in range(1, BLOCK):
        p[:, j] = _compose(p[:, j], p[:, j - 1])
    p[:, :, 1:] = _compose(p[:, :, 1:], blocked_scan(p[:, -1, :-1])[:, None])
    return p.transpose(0, 2, 1).reshape(4, m * BLOCK)[:, :n]


# The swept-time inversion of hillmono.kepler as it was before later sweeps
# were narrowed to the points that still move and the node values were read
# off the orbit's samples: every sweep runs on every point. Both must give
# the same theta bit for bit.
def invert_times(orbit, value_fn, t_targets):
    """theta(t) for the swept-time map t(theta), by table lookup and Newton.

    The cumulative table gives the bracket; each target is refined with
    Newton steps whose residual uses a local Simpson correction from the
    bracketing node.
    """
    grid = orbit.theta_grid
    table = _time_table(orbit)
    t = np.asarray(t_targets, dtype=float)
    j = np.clip(np.searchsorted(table, t, side="right") - 1, 0, grid.size - 2)
    thj = grid[j]
    tj = table[j]
    rj = value_fn(thj)
    th = np.clip(thj + (t - tj) / rj, 0.0, orbit.theta_max)
    resid = None
    for _ in range(6):
        delta = th - thj
        mid = thj + 0.5 * delta
        rth = value_fn(th)
        resid = tj + (delta / 6.0) * (rj + 4.0 * value_fn(mid) + rth) - t
        th = np.clip(th - resid / rth, 0.0, orbit.theta_max)
        if np.abs(resid).max() < 1e-13 * TAU:
            break
    if np.abs(resid).max() > 1e-9:
        raise NumericalInvariantError("swept-time inversion did not converge")
    return th


# The first-row winding of hillmono.integrate as it was integrated step by
# step, before theta was read off the lift: the arctan2 of the row's cross
# and dot products with its image, the cross product carried by a running
# Wronskian. Verbatim but for the _scale call, which now passes the two
# scratch buffers _scale requires, and the last line, which returns the
# angles without the step-angle gate, so that a test can see the largest of
# them.
def row_turns(t, nodes):
    """Per-step angles of the first rows at the left nodes.

    Both products are divided by the square of the row's larger entry; for
    a row too long for double precision the angle underflows to zero.
    """
    ta, tb, tc, td = t
    a, b, c, d = nodes[:, :-1]
    wronskian = np.ones_like(ta)
    np.cumprod(((1.0 + ta) * (1.0 + td) - tb * tc)[:-1], out=wronskian[1:])
    scale = _scale(a, b, np.empty_like(a), np.empty_like(a))
    a, b = a / scale, b / scale
    cross = tb * (wronskian / scale) / scale
    dot = (1.0 + ta) * (a * a + b * b) + tb * (a * c + b * d) / scale
    return np.arctan2(cross, dot)


# The node walk of hillmono.spectral as it ran in two phases: a gallop of
# single evaluations until the Cartan angle passes alpha_stop, then rounds
# of bisection. Verbatim but for the package names it reads. The one-loop
# walk must give the same nodes.
def two_phase_scan_line(line, n_max):
    """Adaptive s-nodes covering the windows up to the n_max-th cone."""
    from hillmono.spectral import (_MAX_SCAN_NODES, _POSITIVITY_SAMPLES,
                                   DomainError, NumericalInvariantError,
                                   _exhausted)

    tgrid = np.linspace(0.0, TAU, _POSITIVITY_SAMPLES, endpoint=False)
    qpv = np.asarray(line.qplus(tgrid), dtype=float)
    if qpv.min() <= 0:
        raise DomainError("qplus must be strictly positive")
    q0v = np.asarray(line.q0(tgrid), dtype=float)
    s_start = float(np.min((q0v - 1.0) / qpv))
    alpha_stop = (2 * n_max + 0.5) * math.pi + 0.05

    nodes = [s_start]
    ds = 0.25
    while (alpha := line(nodes[-1])[3]) < alpha_stop:
        if len(nodes) >= _MAX_SCAN_NODES:
            raise _exhausted(n_max, alpha)
        s_next = nodes[-1] + ds
        if s_next == nodes[-1]:
            raise DomainError(
                f"the scan cannot move along the line: s = {nodes[-1]!r} "
                f"plus the step ds = {ds!r} rounds back to s")
        nodes.append(s_next)
        ds = min(2 * ds, 4.0)

    while True:
        recs = line.evaluate(nodes)
        stop = next(i for i, r in enumerate(recs) if r[3] >= alpha_stop)
        nodes, recs = nodes[:stop + 1], recs[:stop + 1]
        mids = []
        for a, b, (_, theta_a, _, _), (_, theta_b, _, _) in zip(
                nodes, nodes[1:], recs, recs[1:]):
            if theta_b <= theta_a:
                raise NumericalInvariantError(
                    "winding angle is not increasing along the line")
            mid = 0.5 * (a + b)
            if theta_b - theta_a >= math.pi / 4 and b - a > 1e-6 and a < mid < b:
                mids.append(mid)
        if not mids:
            return nodes
        if len(nodes) + len(mids) > _MAX_SCAN_NODES:
            raise _exhausted(n_max, recs[-1][3])
        line.evaluate(mids)
        nodes = sorted(nodes + mids)
