"""Independent references for the hillmono benchmark.

Nothing in this module imports hillmono. Each reference is built from other
machinery than the program:

- fundamental matrices come from scipy's adaptive Dormand-Prince 8(5,3)
  integrator (DOP853) instead of the program's fixed-step RK4 and prefix
  scan; windings come from unwrapping the integrated path on a fine grid;
- constant potentials have closed forms;
- periodic spectra come from the Floquet-Fourier-Hill method (Deconinck and
  Kutz, J. Comput. Phys. 219, 2006) as a generalized Hermitian eigenproblem,
  and from scipy's Mathieu characteristic values.

Run as a script for the oracles' self-checks:

    python3 bench/oracles.py selfcheck
"""

import argparse
import math
import sys

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh
from scipy.special import mathieu_a, mathieu_b

TAU = math.tau

DOP_RTOL = 1e-12
DOP_ATOL = 1e-13
# Unwrapping grid: the inclusive grid over [0, 2 pi]. It is refined until no
# step moves an angle by pi/2 or more, which makes the unwrap unambiguous.
UNWRAP_GRID = 4097
MAX_UNWRAP_GRID = 1 << 20

# Fourier modes kept on each side of zero in the Hill eigenproblem.
HILL_MODES = 64
# scipy's Mathieu parameter for -v'' + 2 cos(t) v = s v: with t = 2x the
# equation is y'' + (4s - 8 cos 2x) y = 0, so q = 4 and s = a / 4.
MATHIEU_Q = 4.0


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------

def trig_coefficients(spec):
    """(constant, cos list, sin list) of a constant or trig_poly spec."""
    if spec["kind"] == "constant":
        return float(spec["c"]), [], []
    if spec["kind"] == "trig_poly":
        return (float(spec.get("constant_term", 0.0)),
                [float(v) for v in spec.get("cos_coeffs", [])],
                [float(v) for v in spec.get("sin_coeffs", [])])
    raise ValueError(f"no Fourier coefficients for kind {spec['kind']!r}")


def batch_fn(specs):
    """Vectorized q(t) -> (k,) values for k specs of one kind and grid.

    Returns (fn, breaks): breaks are the points where q is not smooth, so the
    integrator restarts there instead of stepping across a kink.
    """
    kind = specs[0]["kind"]
    if any(s["kind"] != kind for s in specs):
        raise ValueError("a batch holds one kind of potential")
    if kind in ("constant", "trig_poly"):
        coeffs = [trig_coefficients(s) for s in specs]
        m = max(max(len(c), len(s)) for _, c, s in coeffs)
        c0 = np.array([c[0] for c in coeffs])
        ca = np.zeros((len(specs), m))
        sa = np.zeros((len(specs), m))
        for i, (_, c, s) in enumerate(coeffs):
            ca[i, :len(c)] = c
            sa[i, :len(s)] = s
        freqs = np.arange(1, m + 1)

        def fn(t):
            return c0 + ca @ np.cos(freqs * t) + sa @ np.sin(freqs * t)

        return fn, np.array([0.0, TAU])
    samples = np.array([s["samples"] for s in specs], dtype=float)
    grid = np.linspace(0.0, TAU, samples.shape[1])
    interps = {s.get("interp", "cubic") for s in specs}
    if interps == {"cubic"}:
        from scipy.interpolate import CubicSpline
        spline = CubicSpline(grid, samples, axis=1)
        return (lambda t: spline(t)), np.array([0.0, TAU])
    if interps != {"linear"}:
        raise ValueError("a batch holds one interpolation")
    h = grid[1] - grid[0]
    last = grid.size - 2

    def fn(t):
        j = min(int(t / h), last)
        w = (t - grid[j]) / h
        return samples[:, j] * (1.0 - w) + samples[:, j + 1] * w

    return fn, grid


def _on_grid(breaks, size):
    """Inclusive uniform grid of at least size points containing breaks."""
    pieces = breaks.size - 1
    per = max(1, -(-(size - 1) // pieces))
    return np.linspace(0.0, TAU, pieces * per + 1), per


def fundamental_batch(specs, grid_size=UNWRAP_GRID):
    """DOP853 fundamental matrices of k potentials on a uniform grid.

    Returns (t, phi) with phi of shape (k, 2, 2, len(t)). The integration
    restarts at every break of the potential and reports the state at the
    grid points through the integrator's dense output.
    """
    fn, breaks = batch_fn(specs)
    k = len(specs)
    t, per = _on_grid(breaks, grid_size)

    def rhs(_, y):
        y = y.reshape(4, k)
        q = fn(_)
        return np.concatenate([y[2], y[3], q * y[0], q * y[1]])

    y = np.concatenate([np.ones(k), np.zeros(k), np.zeros(k), np.ones(k)])
    out = np.empty((4 * k, t.size))
    out[:, 0] = y
    for j in range(breaks.size - 1):
        idx = slice(j * per + 1, (j + 1) * per + 1)
        sol = solve_ivp(rhs, (t[j * per], t[(j + 1) * per]), y,
                        method="DOP853", rtol=DOP_RTOL, atol=DOP_ATOL,
                        t_eval=t[idx])
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        out[:, idx] = sol.y
        y = sol.y[:, -1]
    phi = out.reshape(2, 2, k, t.size).transpose(2, 0, 1, 3)
    return t, phi


def arg_sweep(x, y):
    """Unwrapped argument change along sampled plane paths (last axis).

    None when some grid step moves the argument by pi/2 or more, which would
    make the unwrap ambiguous.
    """
    d = np.diff(np.arctan2(y, x), axis=-1)
    d = (d + math.pi) % TAU - math.pi
    if np.abs(d).max() >= math.pi / 2:
        return None
    return d.sum(axis=-1)


def reference_paths(specs):
    """Fundamental paths on a grid fine enough to unwrap every winding."""
    size = UNWRAP_GRID
    while True:
        t, phi = fundamental_batch(specs, size)
        if (arg_sweep(phi[:, 0, 0], phi[:, 0, 1]) is not None
                and arg_sweep(phi[:, 0, 1], phi[:, 1, 1]) is not None):
            return t, phi
        size = 2 * size - 1
        if size > MAX_UNWRAP_GRID:
            raise RuntimeError("unwrap grid cannot resolve the winding")


def path_summary(phi):
    """Endpoint matrix, column winding omega and right angle theta_R."""
    return {
        "matrix": phi[:, :, -1].tolist(),
        "omega": float(arg_sweep(phi[0, 1], phi[1, 1])),
        "theta_R": float(arg_sweep(phi[0, 0], phi[0, 1])),
    }


def image_sweep(mat, vecs):
    """Argument change of mat applied to a sampled path of vectors (2, n)."""
    w = np.asarray(mat, dtype=float) @ vecs
    sweep = arg_sweep(w[0], w[1])
    if sweep is None:
        raise RuntimeError("unwrap grid too coarse for a boundary image")
    return float(sweep)


def principal_omega(mat):
    """Winding of the lift of a det +-1 matrix whose angle is principal."""
    raw = math.atan2(mat[1][1], mat[0][1]) - math.pi / 2
    return math.remainder(raw, TAU)


# ---------------------------------------------------------------------------
# Closed forms and group-level quantities
# ---------------------------------------------------------------------------

def constant_closed_form(c):
    """Monodromy, omega and theta_R of the constant potential q = c."""
    x = TAU
    if c < 0:
        lam = math.sqrt(-c)
        y = lam * x
        cy, sy = math.cos(y), math.sin(y)
        mat = [[cy, sy / lam], [-lam * sy, cy]]
        # arg(cos y + i sin(y)/lam) - y has a positive real part throughout.
        theta = y + math.atan2((1.0 / lam - 1.0) * sy * cy,
                               cy * cy + sy * sy / lam)
    elif c > 0:
        mu = math.sqrt(c)
        ch, sh = math.cosh(mu * x), math.sinh(mu * x)
        mat = [[ch, sh / mu], [mu * sh, ch]]
        theta = math.atan2(sh / mu, ch)
    else:
        mat = [[1.0, x], [0.0, 1.0]]
        theta = math.atan2(x, 1.0)
    # The second column is i times the conjugate of the first row, so the
    # column winding is minus the row angle.
    return {"matrix": mat, "omega": -theta, "theta_R": theta}


def cartan_angle(mat, omega):
    """Cartan angle alpha of the lift (mat, omega): M = R(alpha) S.

    S is the positive symmetric polar factor from an SVD; its lift winds by
    arg(S e2) - pi/2 and the clockwise rotation R(alpha) by -alpha.
    """
    _, s, vt = np.linalg.svd(np.asarray(mat, dtype=float))
    sym = vt.T @ np.diag(s) @ vt
    return -omega + math.atan2(sym[1, 1], sym[0, 1]) - math.pi / 2


def expected_stratum(mat, omega, clear=1e-6):
    """(kind, component_index) when the element is clear of every boundary.

    None when the trace is within clear of +-2 or the Cartan angle within
    clear of an odd multiple of pi/2, where rounding decides the answer.
    """
    tr = mat[0][0] + mat[1][1]
    alpha = cartan_angle(mat, omega)
    if abs(abs(tr) - 2.0) <= clear:
        return None
    if abs(math.remainder(alpha - math.pi / 2, math.pi)) <= clear:
        return None
    return ("elliptic" if abs(tr) < 2.0 else "hyperbolic", round(alpha / math.pi))


def right_iwasawa_element(theta, rho, nu):
    """Lift of [[sqrt rho, 0], [nu/(2 sqrt rho), 1/sqrt rho]] R(theta).

    The path first rotates to R(theta), which winds by -theta, then moves the
    lower triangular factor from I; along that second leg the image of e2
    keeps the sign of its first coordinate, so it turns by less than pi and
    the principal difference is exact.
    """
    sr = math.sqrt(rho)
    lower = np.array([[sr, 0.0], [0.5 * nu / sr, 1.0 / sr]])
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, s], [-s, c]])
    w = rot @ np.array([0.0, 1.0])
    lw = lower @ w
    omega = -theta + math.remainder(
        math.atan2(lw[1], lw[0]) - math.atan2(w[1], w[0]), TAU)
    return lower @ rot, omega


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------

def _fourier_series(spec, size):
    """Complex coefficients Q[m], m = -size..size, of a trig spec."""
    c0, cos, sin = trig_coefficients(spec)
    out = np.zeros(2 * size + 1, dtype=complex)
    out[size] = c0
    for m, a in enumerate(cos, start=1):
        out[size + m] += a / 2
        out[size - m] += a / 2
    for m, b in enumerate(sin, start=1):
        out[size + m] += b / 2j
        out[size - m] -= b / 2j
    return out


def hill_eigenvalues(q0, qplus, count, modes=HILL_MODES):
    """Lowest periodic eigenvalues s of -v'' + q0 v = s qplus v.

    Galerkin on exp(i k t), |k| <= modes: (K^2 + T(q0)) c = s T(qplus) c with
    Toeplitz blocks T(f)[k, j] = f_(k - j); both blocks are Hermitian and
    T(qplus) is positive definite for positive qplus.
    """
    ks = np.arange(-modes, modes + 1)
    diff = ks[:, None] - ks[None, :] + 2 * modes
    a = np.diag(ks.astype(float) ** 2) + _fourier_series(q0, 2 * modes)[diff]
    b = _fourier_series(qplus, 2 * modes)[diff]
    return eigh(a, b, eigvals_only=True)[:count]


def mathieu_line_eigenvalues(count):
    """Lowest periodic eigenvalues of -v'' + 2 cos(t) v = s v from scipy."""
    vals = [mathieu_a(0, MATHIEU_Q)]
    m = 2
    while len(vals) < count:
        vals += [mathieu_b(m, MATHIEU_Q), mathieu_a(m, MATHIEU_Q)]
        m += 2
    return np.sort(np.array(vals) / 4.0)[:count]


def flat_line_eigenvalues(count):
    """Periodic eigenvalues of -v'' = s v: 0, then k^2 twice."""
    return np.array([0.0] + [float(k * k) for k in range(1, count)
                             for _ in range(2)])[:count]


# ---------------------------------------------------------------------------
# Forward-map references
# ---------------------------------------------------------------------------

def forward_references(potentials):
    """Reference record for each forward-map potential.

    potentials: list of dicts with "spec", "A" (4 entries) and "angles"
    (theta0, theta2pi). Each record holds the DOP853 endpoint, omega and
    theta_R, the winding of the boundary image a A^-1 Phi(t) e2 and the
    clockwise winding of the separated-condition solution.
    """
    groups = {}
    for i, p in enumerate(potentials):
        spec = p["spec"]
        key = (spec["kind"], spec.get("interp"), len(spec.get("samples", ())))
        groups.setdefault(key, []).append(i)
    out = [None] * len(potentials)
    for idx in groups.values():
        _, phi = reference_paths([potentials[i]["spec"] for i in idx])
        for j, i in enumerate(idx):
            p = potentials[i]
            rec = path_summary(phi[j])
            a = np.array(p["A"], dtype=float).reshape(2, 2)
            det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
            b = math.sqrt(abs(det)) * np.linalg.inv(a)
            rec["beta_omega"] = (principal_omega(b.tolist())
                                 + image_sweep(b, phi[j][:, 1]))
            th0 = p["angles"][0]
            u0 = np.array([math.cos(th0), math.sin(th0)])
            rec["solution_winding"] = image_sweep(
                np.eye(2), np.einsum("ijn,j->in", phi[j], u0))
            out[i] = rec
    return out


# ---------------------------------------------------------------------------
# Self-checks
# ---------------------------------------------------------------------------

def self_check():
    """Cross-checks of the oracles; returns a list of problems found."""
    problems = []
    consts = [-6.25, -2.0, -0.25, 0.3]
    _, phi = reference_paths([{"kind": "constant", "c": c} for c in consts])
    for c, path in zip(consts, phi):
        got, want = path_summary(path), constant_closed_form(c)
        err = max(np.abs(np.array(got["matrix"]) - want["matrix"]).max()
                  / max(1.0, np.abs(want["matrix"]).max()),
                  abs(got["omega"] - want["omega"]),
                  abs(got["theta_R"] - want["theta_R"]))
        if err > 1e-9:
            problems.append(f"DOP853 misses the closed form for q={c} by {err:.2e}")
    mathieu = {"kind": "trig_poly", "cos_coeffs": [2.0], "constant_term": 0.0}
    one = {"kind": "constant", "c": 1.0}
    err = np.abs(hill_eigenvalues(mathieu, one, 9)
                 - mathieu_line_eigenvalues(9)).max()
    if err > 1e-10:
        problems.append(f"Fourier-Hill misses scipy Mathieu values by {err:.2e}")
    err = np.abs(hill_eigenvalues({"kind": "constant", "c": 0.0}, one, 13)
                 - flat_line_eigenvalues(13)).max()
    if err > 1e-10:
        problems.append(f"Fourier-Hill misses the flat spectrum by {err:.2e}")
    return problems


def main(argv):
    p = argparse.ArgumentParser(prog="oracles.py")
    p.add_argument("cmd", choices=["selfcheck"],
                   help="check the oracles against each other")
    p.parse_args(argv)
    problems = self_check()
    for line in problems:
        print(line, file=sys.stderr)
    print("oracle self-check:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
