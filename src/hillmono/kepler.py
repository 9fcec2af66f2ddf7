"""Kepler-style correspondence between potentials, curves, and orbits.

A fundamental curve is the pair of rows (v, v') of the fundamental matrix of
-v'' + q v = 0: a plane curve of unit Wronskian starting at v(0) = (1, 0),
v'(0) = (0, 1). Writing v in polar form sqrt(rho) (cos theta, sin theta),
the Wronskian forces theta' = 1/|v|^2, i.e. the curve sweeps area at unit
rate, so re-parametrizing by the angle theta turns the curve into an orbit:
a positive radius-squared profile rho(theta) on [0, theta_max] with

    rho(0) = 1,   rho'(0) = 0,   integral of rho over [0, theta_max] = 2 pi.

The transforms here move between the three value types:

    potential -> curve      integrate the equation
    curve -> orbit          angle unwrapping and resampling of |v|^2
    orbit -> curve          invert the swept-time map t(theta)
    curve/orbit -> potential   q = v'' wedge v', or the curvature formula
                               q = (2 rho'' rho - 3 rho'^2 - 4 rho^2)/(4 rho^4)

Sampled orbits are interpolated shape-preservingly for values; derivative
data is taken from supplied samples or an analytic 2-jet when present and
otherwise estimated by differences or spline differentiation.

Inverting the swept-time map is the costly step at large step counts. Each
Newton sweep moves every point from that point's own data alone, so a
point that a sweep leaves unchanged is a fixed point; later sweeps run only
on the points that still move, and the result is the same to the bit as
sweeping all of them. Sweeps run over blocks of about INVERT_BLOCK
targets. Between sweeps only theta, the residuals and each block's moving
points (their offsets and bracketing table indices, a few bytes a point)
persist, so besides its targets the inversion holds two arrays of their
length; the curvature formula then overwrites theta block by block. An
analytic orbit's profile and its derivatives are evaluated once per point
set.
"""

import math
import sys

import numpy as np

from .errors import DomainError, Immutable, NumericalInvariantError
from .integrate import (DEFAULT_STEPS, checked_count, checked_steps,
                        integrate)
from .potentials import Potential
from .serialize import read_text, write_csv

TAU = math.tau

RHO_START_TOL = 1e-8
RHO_SLOPE_TOL = 1e-6
SWEEP_TOL = 1e-7
WRONSKIAN_TOL = 1e-7
ENDPOINT_TOL = 1e-10

CURVE_COLUMNS = ("t", "v1", "v2", "v1p", "v2p")

# Targets per block of the swept-time inversion and of the curvature
# formula: the blocks' temporaries stay near 1 MB at any step count.
INVERT_BLOCK = 16384
# A point's offset in its block; the last block can be up to twice as long.
_OFFSET = np.min_scalar_type(2 * INVERT_BLOCK - 1)


class FundamentalCurve(Immutable):
    """Sampled curve (t, v, v') with unit Wronskian.

    v and vp have shape (n, 2). Validation enforces the initial conditions
    and the Wronskian at every node.
    """

    __slots__ = ("t", "v", "vp")

    def __init__(self, t, v, vp):
        t = np.array(t, dtype=float)
        v = np.array(v, dtype=float)
        vp = np.array(vp, dtype=float)
        if t.ndim != 1 or v.shape != (t.size, 2) or vp.shape != (t.size, 2):
            raise DomainError("curve arrays must be t:(n,), v:(n,2), vp:(n,2)")
        if t.size < 9 or not np.all(np.diff(t) > 0):
            raise DomainError("curve needs at least 9 strictly increasing times")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(vp))):
            raise DomainError("curve values must be finite")
        if max(abs(v[0, 0] - 1.0), abs(v[0, 1]), abs(vp[0, 0]),
               abs(vp[0, 1] - 1.0)) > ENDPOINT_TOL:
            raise DomainError("curve must start at v=(1,0), v'=(0,1)")
        wr = v[:, 0] * vp[:, 1] - v[:, 1] * vp[:, 0]
        worst = np.abs(wr - 1.0).max()
        if worst > WRONSKIAN_TOL:
            raise DomainError(
                f"curve Wronskian deviates by {worst:.3e} (tolerance {WRONSKIAN_TOL})")
        if np.any(v[:, 0] ** 2 + v[:, 1] ** 2 == 0.0):
            raise DomainError("curve passes through the origin")
        super().__init__(t=t, v=v, vp=vp)

    def __repr__(self):
        return f"FundamentalCurve(<{self.t.size} nodes over [0, {self.t[-1]:.6g}]>)"


class Orbit(Immutable):
    """Radius-squared profile rho on a uniform grid over [0, theta_max].

    Optional derivative samples rho_prime, rho_second and analytic
    callables refine later transforms: value_fn maps theta to rho, and
    jet_fn maps theta to the tuple (rho, rho', rho''). Both must reproduce
    the rho samples exactly at the grid nodes. The callables are not
    serialized.
    """

    __slots__ = ("theta_max", "rho", "rho_prime", "rho_second",
                 "value_fn", "jet_fn")

    def __init__(self, theta_max, rho, rho_prime=None, rho_second=None,
                 value_fn=None, jet_fn=None):
        theta_max = float(theta_max)
        rho = np.array(rho, dtype=float)
        if not (math.isfinite(theta_max) and theta_max > 0):
            raise DomainError("theta_max must be positive")
        if rho.ndim != 1 or rho.size < 9:
            raise DomainError("orbit needs at least 9 rho samples")
        if not np.all(np.isfinite(rho)) or np.any(rho <= 0):
            raise DomainError("rho must be finite and positive")
        extras = []
        for name, arr in (("rho_prime", rho_prime), ("rho_second", rho_second)):
            if arr is not None:
                arr = np.array(arr, dtype=float)
                if arr.shape != rho.shape or not np.all(np.isfinite(arr)):
                    raise DomainError(f"{name} must match rho and be finite")
            extras.append(arr)
        rho_prime, rho_second = extras
        if abs(rho[0] - 1.0) > RHO_START_TOL:
            raise DomainError(
                f"rho(0) = {float(rho[0])!r} but must be 1 within {RHO_START_TOL}")
        grid = np.linspace(0.0, theta_max, rho.size)
        if jet_fn is not None:
            slope0 = float(jet_fn(0.0)[1])
        elif rho_prime is not None:
            slope0 = float(rho_prime[0])
        else:
            slope0 = _edge_slopes(rho, grid[1] - grid[0])[0]
        if abs(slope0) > RHO_SLOPE_TOL:
            raise DomainError(
                f"rho'(0) = {slope0!r} but must vanish within {RHO_SLOPE_TOL}")
        from scipy.integrate import simpson

        with np.errstate(over="ignore", invalid="ignore"):
            swept = simpson(rho, x=grid)
        if not abs(swept - TAU) <= SWEEP_TOL:  # a nan sweep is refused too
            raise DomainError(
                f"orbit sweeps {float(swept)!r} instead of 2 pi within {SWEEP_TOL}")
        super().__init__(theta_max=theta_max, rho=rho, rho_prime=rho_prime,
                         rho_second=rho_second, value_fn=value_fn,
                         jet_fn=jet_fn)

    @property
    def theta_grid(self):
        return np.linspace(0.0, self.theta_max, self.rho.size)

    def __repr__(self):
        return (f"Orbit(theta_max={self.theta_max:.6g}, "
                f"<{self.rho.size} rho samples>)")


# ---------------------------------------------------------------------------
# Derivative models for sampled and analytic orbits
# ---------------------------------------------------------------------------

def _value_model(orbit):
    if orbit.value_fn is not None:
        return orbit.value_fn
    from scipy.interpolate import PchipInterpolator

    return PchipInterpolator(orbit.theta_grid, orbit.rho)


def _edge_slopes(values, h):
    """Fourth-order one-sided slope estimates at both ends of a uniform grid."""
    f = values
    left = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * h)
    right = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (12 * h)
    return left, right


def _slope_model(orbit, for_curvature):
    """rho' of a sampled orbit as a callable: supplied samples or estimated.

    Estimation uses centered differences for curve reconstruction and the
    cubic spline derivative when curvature is also required, so rho'' stays
    continuous in the latter case.
    """
    from scipy.interpolate import CubicSpline, PchipInterpolator

    grid = orbit.theta_grid
    if orbit.rho_prime is not None:
        return PchipInterpolator(grid, orbit.rho_prime)
    if for_curvature:
        return CubicSpline(grid, orbit.rho).derivative()
    slopes = np.gradient(orbit.rho, grid, edge_order=2)
    # np.gradient's three-point end rule leaves an O(h) artifact on
    # interpolated data; the four-point-order ends match the validation rule.
    slopes[0], slopes[-1] = _edge_slopes(orbit.rho, grid[1] - grid[0])
    return PchipInterpolator(grid, slopes)


def _curvature_model(orbit):
    from scipy.interpolate import CubicSpline, PchipInterpolator

    grid = orbit.theta_grid
    if orbit.rho_second is not None:
        return PchipInterpolator(grid, orbit.rho_second)
    if orbit.rho_prime is not None:
        return CubicSpline(grid, orbit.rho_prime).derivative()
    return CubicSpline(grid, orbit.rho).derivative(2)


def _jet_model(orbit, value_fn, for_curvature=False):
    """theta -> (rho, rho', rho'') as a callable; without for_curvature a
    sampled orbit's rho'' is None. An analytic orbit's jet_fn is used as is,
    so its profile is evaluated once per point set."""
    if orbit.jet_fn is not None:
        return orbit.jet_fn
    slope_fn = _slope_model(orbit, for_curvature)
    curv_fn = _curvature_model(orbit) if for_curvature else None
    return lambda th: (value_fn(th), slope_fn(th),
                       None if curv_fn is None else curv_fn(th))


# ---------------------------------------------------------------------------
# Swept-time parametrization
# ---------------------------------------------------------------------------

def _time_table(orbit):
    from scipy.integrate import cumulative_simpson

    table = cumulative_simpson(orbit.rho, x=orbit.theta_grid, initial=0.0)
    if abs(table[-1] - TAU) > 10 * SWEEP_TOL:
        raise NumericalInvariantError(
            f"swept time ends at {float(table[-1])!r}, expected 2 pi")
    return table


def _newton_sweep(value_fn, th, thj, tj, rj, t, theta_max):
    """One Newton step on each point: (new theta, residual before it).

    The residual is tj + (delta/6) (rj + 4 rho(mid) + rho(th)) - t with
    delta = th - thj and mid = thj + delta/2: the swept time to th by the
    Simpson rule from the bracketing node, minus the target. The in-place
    operations round exactly as that expression does.
    """
    delta = th - thj
    mid = np.multiply(delta, 0.5)
    mid += thj
    resid = 4.0 * value_fn(mid)
    del mid
    rth = value_fn(th)
    resid += rj
    resid += rth
    delta /= 6.0
    resid *= delta
    resid += tj
    resid -= t
    new = np.divide(resid, rth, out=delta)
    np.subtract(th, new, out=new)
    return np.clip(new, 0.0, theta_max, out=new), resid


def _blocks(count):
    """Slices of INVERT_BLOCK items over count items, the last taking the
    remainder: a short tail block would cost as many calls as a full one."""
    starts = list(range(0, count - INVERT_BLOCK + 1, INVERT_BLOCK)) or [0]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [count])]


def _max_abs(a):
    """np.abs(a).max(), nan included, without a temporary of a's size."""
    return np.maximum(a.max(), -a.min())


def _invert_times(orbit, value_fn, t_targets):
    """theta(t) for the swept-time map t(theta), by table lookup and Newton.

    The cumulative table gives the bracket; each target is refined with up
    to six Newton sweeps whose residual uses a local Simpson correction from
    the bracketing node, whose value is read off orbit.rho. A sweep updates
    each point from that point's own data alone, so a point whose theta a
    sweep leaves unchanged keeps it and its residual in every later sweep:
    after the first sweep, each sweep runs only on the points that moved in
    the one before.

    Each sweep runs block by block (see _blocks), and every block finishes
    a sweep before any block starts the next one. Across sweeps only theta,
    one full-length residual array and, per block, the moving points'
    offsets in the block and their bracketing table indices persist; a
    block's node times, node values and targets are read off the table,
    orbit.rho and t_targets again in each sweep. The stop test
    and the convergence gate see every point's latest residual, the same
    maximum as a sweep over all points, and theta is the same to the bit.
    """
    grid = orbit.theta_grid
    table = _time_table(orbit)
    rho = orbit.rho
    theta_max = orbit.theta_max
    t = np.asarray(t_targets, dtype=float)
    node_type = np.min_scalar_type(grid.size - 2)
    th = np.empty_like(t)
    resid = np.empty_like(t)
    # Per block: its slice, and the offsets and table indices of the points
    # that moved in the last sweep.
    blocks = []
    for block in _blocks(t.size):
        tb = t[block]
        j = np.searchsorted(table, tb, side="right")
        j -= 1
        np.clip(j, 0, grid.size - 2, out=j)
        thj, tj, rj = grid[j], table[j], rho[j]
        guess = np.clip(thj + (tb - tj) / rj, 0.0, theta_max)
        new, resid[block] = _newton_sweep(value_fn, guess, thj, tj, rj, tb,
                                          theta_max)
        th[block] = new
        live = np.flatnonzero(new != guess)
        blocks.append((block, live.astype(_OFFSET), j[live].astype(node_type)))
    for _ in range(5):
        if (not any(live.size for _, live, _ in blocks)
                or _max_abs(resid) < 1e-13 * TAU):
            break
        for b, (block, live, j) in enumerate(blocks):
            if not live.size:
                continue
            # numpy converts a compact index array on every use; once here.
            at, node = live.astype(np.intp), j.astype(np.intp)
            thb = th[block]
            old = thb[at]
            new, resid[block][at] = _newton_sweep(
                value_fn, old, grid[node], table[node], rho[node],
                t[block][at], theta_max)
            thb[at] = new
            moved = new != old
            blocks[b] = (block, live[moved], j[moved])
    if _max_abs(resid) > 1e-9:
        raise NumericalInvariantError("swept-time inversion did not converge")
    return th


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def curve_of(q, steps=DEFAULT_STEPS):
    """Fundamental curve of a potential over one period.

    The Wronskian of entries of size |v| and |v'| rounds by up to
    16 eps |v| |v'|; a curve where that alone exceeds WRONSKIAN_TOL cannot be
    checked in double precision and is refused as a numerical failure, as
    is a curve that fails the FundamentalCurve checks.
    """
    path = integrate(q, steps)
    v, vp = path.mats[:, 0, :], path.mats[:, 1, :]
    v_max, vp_max = float(np.abs(v).max()), float(np.abs(vp).max())
    floor = 16.0 * sys.float_info.epsilon * v_max * vp_max
    if floor > WRONSKIAN_TOL:
        raise NumericalInvariantError(
            f"curve entries reach |v| = {v_max:.3e} and |v'| = {vp_max:.3e}: "
            f"rounding alone moves the Wronskian by up to {floor:.3e}, above "
            f"its tolerance {WRONSKIAN_TOL}")
    try:
        return FundamentalCurve(path.t, v, vp)
    except DomainError as exc:
        raise NumericalInvariantError(f"{exc}; increase steps") from None


def orbit_of(curve, nodes=None):
    """Orbit swept by a fundamental curve.

    The angle is the unwrapped argument of v at the curve nodes (the exact
    discrete form of theta' = 1/|v|^2) and |v|^2 is resampled onto the
    uniform angle grid by shape-preserving cubic interpolation. The slope
    d rho/d theta = rho * 2 (v . v') is exact at the nodes, so its resampled
    values ride along; later transforms then never have to differentiate the
    interpolated profile. An orbit that fails the Orbit checks is a
    numerical failure of the resampling.
    """
    from scipy.interpolate import PchipInterpolator

    n = curve.t.size if nodes is None else checked_count(nodes, "nodes")
    if n < 9:
        raise DomainError("nodes must be at least 9")
    theta_t = np.unwrap(np.arctan2(curve.v[:, 1], curve.v[:, 0]))
    theta_t -= theta_t[0]
    if not np.all(np.diff(theta_t) > 0):
        raise NumericalInvariantError("curve angle is not strictly increasing")
    rho_t = curve.v[:, 0] ** 2 + curve.v[:, 1] ** 2
    slope_t = rho_t * 2.0 * (curve.v[:, 0] * curve.vp[:, 0]
                             + curve.v[:, 1] * curve.vp[:, 1])
    grid = np.linspace(0.0, theta_t[-1], n)
    rho = PchipInterpolator(theta_t, rho_t)(grid)
    rho_prime = PchipInterpolator(theta_t, slope_t)(grid)
    try:
        return Orbit(theta_t[-1], rho, rho_prime=rho_prime)
    except DomainError as exc:
        raise NumericalInvariantError(
            f"{exc}; increase steps or nodes") from None


def curve_of_orbit(orbit, steps=DEFAULT_STEPS):
    """Curve reconstructed from an orbit on the uniform time grid.

    Uses v = sqrt(rho) (cos theta, sin theta) and
    v' = [(rho'/(2 sqrt(rho))) (cos, sin) + sqrt(rho) (-sin, cos)] / rho
    along theta(t).
    """
    t = np.linspace(0.0, TAU, checked_steps(steps) + 1)
    value_fn = _value_model(orbit)
    th = _invert_times(orbit, value_fn, t)
    rho, drho, _ = _jet_model(orbit, value_fn)(th)
    c, s = np.cos(th), np.sin(th)
    sq = np.sqrt(rho)
    v = np.stack([sq * c, sq * s], axis=-1)
    vp = np.stack([(0.5 * drho / sq * c - sq * s) / rho,
                   (0.5 * drho / sq * s + sq * c) / rho], axis=-1)
    return FundamentalCurve(t, v, vp)


def potential_of_curve(curve):
    """Potential recovered from a curve as q = v'' wedge v'.

    v'' comes from centered differences of v' (second-order one-sided at the
    ends); the curve times must be the uniform inclusive grid over [0, 2 pi].
    """
    t = curve.t
    expected = np.linspace(0.0, TAU, t.size)
    if np.abs(t - expected).max() > 1e-9:
        raise DomainError("potential recovery needs the uniform grid over [0, 2 pi]")
    vpp = np.gradient(curve.vp, t, axis=0, edge_order=2)
    q = vpp[:, 0] * curve.vp[:, 1] - vpp[:, 1] * curve.vp[:, 0]
    return Potential.sampled(q, "cubic")


def potential_of_orbit(orbit, steps=DEFAULT_STEPS):
    """Potential along the time grid from the orbit curvature formula."""
    t = np.linspace(0.0, TAU, checked_steps(steps) + 1)
    value_fn = _value_model(orbit)
    q = _invert_times(orbit, value_fn, t)
    del t
    jet = _jet_model(orbit, value_fn, for_curvature=True)
    # One block at a time, overwriting theta with q.
    for block in _blocks(q.size):
        th = q[block]
        rho, drho, d2rho = jet(th)
        th[:] = ((2.0 * d2rho * rho - 3.0 * drho ** 2 - 4.0 * rho ** 2)
                 / (4.0 * rho ** 4))
    return Potential.sampled(q, "cubic")


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def save_curve_csv(curve, path):
    write_csv(CURVE_COLUMNS, np.column_stack([curve.t, curve.v, curve.vp]),
              path)


def load_curve_csv(path):
    header, *lines = read_text(path).split("\n")
    if [h.strip() for h in header.split(",")] != list(CURVE_COLUMNS):
        raise DomainError(f"curve CSV must have columns {','.join(CURVE_COLUMNS)}")
    rows = [line.split(",") for line in lines if line.strip()]
    try:
        data = np.array([[float(x) for x in row] for row in rows])
    except ValueError as exc:
        raise DomainError(f"malformed curve CSV: {exc}") from None
    if data.ndim != 2 or data.shape[1] != 5:
        raise DomainError("curve CSV rows must have 5 columns")
    return FundamentalCurve(data[:, 0], data[:, 1:3], data[:, 3:5])


def orbit_to_dict(orbit):
    out = {"theta_max": orbit.theta_max, "rho": orbit.rho}
    if orbit.rho_prime is not None:
        out["rho_prime"] = orbit.rho_prime
    if orbit.rho_second is not None:
        out["rho_second"] = orbit.rho_second
    return out


def orbit_from_dict(data):
    if not isinstance(data, dict):
        raise DomainError("orbit JSON must be an object")
    try:
        return Orbit(float(data["theta_max"]), data["rho"],
                     rho_prime=data.get("rho_prime"),
                     rho_second=data.get("rho_second"))
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed orbit JSON: {exc}") from None
