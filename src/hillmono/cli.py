"""Command line front end.

Subcommands wrap the library modules one to one: monodromy, kepler
{to-orbit, to-potential}, synthesize, spectrum, boundary {separated,
general}, classify, plotdata, and sample-potential. Inputs are JSON or CSV
files as described in the README; outputs go to --output or stdout.

Exit codes: 0 success, 2 malformed input or domain error, 3 numerical
invariant failure. All floats are printed with 17 significant digits so
outputs are deterministic and round-trip exactly.
"""

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import boundary
from .cover import classify, element_from_dict, element_to_dict
from .errors import DomainError, NumericalInvariantError
from .integrate import (DEFAULT_STEPS, MAX_STEPS, MIN_STEPS, checked_count,
                        checked_steps, monodromies, monodromy)
from .kepler import (curve_of, orbit_from_dict, orbit_of, orbit_to_dict,
                     potential_of_orbit, save_curve_csv)
from .potentials import Potential, load_potential
# dumps_json is not called here, but stays importable as cli.dumps_json,
# which the traced benchmark (bench/spans.py) wraps.
from .serialize import dumps_json, fmt_float, read_json, write_json
from .serialize import write_text as _write_text
from .spectral import DEFAULT_SCAN_STEPS, oscillation_eigenvalues
from .synthesis import potential_with_monodromy

TAU = math.tau

RESIDUAL_TOL = 1e-7
SYNTH_VERIFY_TOL = 1e-6
PLOT_IDENTITY_TOL = 1e-12


def _steps_arg(text):
    try:
        return checked_steps(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _tol_arg(text):
    tol = float(text)
    if not tol > 0:
        raise argparse.ArgumentTypeError("tolerance must be positive")
    return tol


def _float_list(text):
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of floats: {text!r}")


def _stratum_dict(stratum):
    return {"kind": stratum.kind,
            "component_index": stratum.component_index,
            "trace": stratum.trace}


def _load_element(path):
    """Cover element from a file in element or monodromy-output format."""
    data = read_json(path)
    if isinstance(data, dict) and "m" not in data and "matrix" in data:
        try:
            (a, b), (c, d) = data["matrix"]
        except (TypeError, ValueError):
            raise DomainError("field 'matrix' must be [[a, b], [c, d]]") from None
        data = dict(data, m=[a, b, c, d])
    return element_from_dict(data)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_monodromy(args):
    q = load_potential(args.potential)
    element, theta_r = monodromy(q, args.steps)
    m = element.mat
    out = {
        "matrix": [[m[0, 0], m[0, 1]], [m[1, 0], m[1, 1]]],
        "omega": element.omega,
        "component": "+" if element.component == 1 else "-",
        "theta_R": theta_r,
        "trace": element.trace,
        "stratum": _stratum_dict(classify(element)),
    }
    write_json(out, args.output)
    return 0


def cmd_kepler_to_orbit(args):
    q = load_potential(args.potential)
    orbit = orbit_of(curve_of(q, args.steps), args.nodes)
    write_json(orbit_to_dict(orbit), args.output)
    return 0


def cmd_kepler_to_potential(args):
    orbit = orbit_from_dict(read_json(args.orbit))
    q = potential_of_orbit(orbit, args.steps)
    write_json(q.to_dict(), args.output)
    return 0


def cmd_synthesize(args):
    target = _load_element(args.target)
    q = potential_with_monodromy(target, args.coeffs, args.steps)
    # Verify at the resolution the potential was synthesized at. The n + 1
    # samples are the node and midpoint values of n / 2 steps, so for even
    # n those steps integrate the written values themselves and nothing is
    # interpolated; an odd or tiny n takes the spline's midpoints at n steps.
    n = q.samples.size - 1
    if n % 2 == 0 and n // 2 >= MIN_STEPS:
        check = monodromies(q.samples[None], n // 2)[0].element
    else:
        check = monodromy(q, n).element
    residual = max(float(np.abs(check.mat - target.mat).max()),
                   abs(check.omega - target.omega))
    if residual > args.verify_tol:
        raise NumericalInvariantError(
            f"synthesized potential misses the target by {residual:.3e}")
    print(f"synthesis residual: {fmt_float(residual)}", file=sys.stderr)
    write_json(q.to_dict(), args.output)
    return 0


def cmd_spectrum(args):
    q0 = load_potential(args.q0)
    qplus = load_potential(args.qplus)
    records = oscillation_eigenvalues(q0, qplus, args.nmax, args.steps)
    lines = ["n,s,multiplicity,component,trace,theta_R"]
    for r in records:
        lines.append(",".join([
            str(r.index), fmt_float(r.s), str(r.multiplicity),
            repr(r.component), fmt_float(r.trace),
            fmt_float(r.theta_r)]))
    _write_text("\n".join(lines) + "\n", args.output)
    return 0


def cmd_boundary_separated(args):
    q = load_potential(args.potential)
    bc = boundary.SeparatedBC(args.theta0, args.theta2pi)
    mu = monodromy(q, args.steps).element
    residual = boundary.separated_residual(mu, bc)
    has = abs(residual) <= args.tol
    out = {"has_solution": has, "residual": residual}
    if has:
        out["index"] = boundary.separated_index(mu, bc)
    write_json(out, args.output)
    return 0


def cmd_boundary_general(args):
    q = load_potential(args.potential)
    a = args.A
    if len(a) != 4:
        raise DomainError("--A needs four comma separated entries a,b,c,d")
    bc = boundary.GeneralBC([[a[0], a[1]], [a[2], a[3]]])
    mu = monodromy(q, args.steps).element
    residual = boundary.general_residual(mu, bc)
    image = boundary.beta_image(bc, mu)
    out = {
        "has_solution": abs(residual) <= args.tol,
        "residual": residual,
        "all_solutions": boundary.general_all_solutions(mu, bc, args.tol),
        "beta": element_to_dict(image.element),
        "beta_trace": image.trace,
    }
    if image.stratum is not None:
        out["beta_stratum"] = _stratum_dict(image.stratum)
    write_json(out, args.output)
    return 0


def cmd_classify(args):
    element = _load_element(args.element)
    out = _stratum_dict(classify(element, tol=args.tol))
    write_json(out, args.output)
    return 0


def cmd_plotdata(args):
    if args.curve_of is not None:
        if args.output is None or args.output == "-":
            raise DomainError("--curve-of requires --output FILE")
        q = load_potential(args.curve_of)
        save_curve_csv(curve_of(q, args.steps), args.output)
        return 0
    if not args.levels:
        raise DomainError("plotdata needs --levels or --curve-of")
    if not all(map(math.isfinite, args.levels)):
        raise DomainError("--levels must be finite")
    if not (math.isfinite(args.alpha_min) and math.isfinite(args.alpha_max)):
        raise DomainError("--alpha-min and --alpha-max must be finite")
    if not math.isfinite(args.alpha_max - args.alpha_min):
        raise DomainError("--alpha-max - --alpha-min overflows double precision")
    # The zero level is the union of the vertical lines alpha = pi/2 + k pi
    # in the (alpha, r) chart, each emitted on an r grid of 101 points.
    k_lo = math.ceil((args.alpha_min - math.pi / 2) / math.pi)
    k_hi = math.floor((args.alpha_max - math.pi / 2) / math.pi)
    zero_rows = 101 * max(k_hi - k_lo + 1, 0) if 0.0 in args.levels else 0
    if zero_rows > MAX_STEPS + 1:
        raise DomainError(
            "--levels 0 asks for 101 rows on each line alpha = pi/2 + k pi "
            f"between --alpha-min and --alpha-max, over {MAX_STEPS + 1} in all")
    if not 0.0 <= args.rmax < math.inf:
        raise DomainError("--rmax must be finite and non-negative")
    alphas = np.linspace(args.alpha_min, args.alpha_max,
                         checked_count(args.alpha_samples, "--alpha-samples"))
    try:
        cosh_rmax = math.cosh(args.rmax)
    except OverflowError:
        cosh_rmax = math.inf
    lines = ["c,alpha,r"]
    for c in args.levels:
        if c == 0.0:
            for k in range(k_lo, k_hi + 1):
                alpha = math.pi / 2 + k * math.pi
                for r in np.linspace(0.0, args.rmax, 101):
                    lines.append(",".join([fmt_float(c), fmt_float(alpha),
                                           fmt_float(r)]))
            continue
        for alpha in alphas:
            ratio = c / (2.0 * math.cos(alpha)) if math.cos(alpha) != 0 else \
                math.inf
            if not (1.0 <= ratio < cosh_rmax):
                continue
            r = math.acosh(ratio)
            err = abs(2.0 * math.cos(alpha) * math.cosh(r) - c)
            if err > max(PLOT_IDENTITY_TOL, 16.0 * np.finfo(float).eps * abs(c)):
                raise NumericalInvariantError(
                    f"trace level identity violated by {err:.3e} at "
                    f"alpha={alpha!r}")
            lines.append(",".join([fmt_float(c), fmt_float(alpha),
                                   fmt_float(r)]))
    _write_text("\n".join(lines) + "\n", args.output)
    return 0


def cmd_sample_potential(args):
    if args.constant is not None:
        if args.cos or args.sin or args.constant_term != 0.0:
            raise DomainError("--constant excludes the trig flags")
        q = Potential.constant(args.constant)
    elif args.cos or args.sin or args.constant_term != 0.0:
        q = Potential.trig_poly(args.cos or (), args.sin or (),
                                args.constant_term)
    else:
        raise DomainError("give --constant or trig coefficients")
    if args.grid is not None:
        q = Potential.sampled(q.sample(checked_count(args.grid, "--grid")))
    write_json(q.to_dict(), args.output)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p, steps_default=DEFAULT_STEPS):
    p.add_argument("--steps", type=_steps_arg, default=steps_default,
                   help=f"integration steps (default {steps_default})")
    p.add_argument("--output", "-o", default=None,
                   help="output file, '-' or omitted for stdout")


@functools.cache
def build_parser():
    """The command line parser, built once per process: every main call
    parses with it, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hillmono",
        description="Lifted monodromy of Hill's equation: integration, "
                    "orbit transforms, synthesis, spectra, and boundary "
                    "value problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("monodromy", help="lifted monodromy of a potential")
    p.add_argument("--potential", required=True, help="potential JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_monodromy)

    pk = sub.add_parser("kepler", help="orbit transforms")
    ksub = pk.add_subparsers(dest="kepler_command", required=True)
    p = ksub.add_parser("to-orbit", help="potential to polar orbit")
    p.add_argument("--potential", required=True)
    p.add_argument("--nodes", type=int, default=None,
                   help="resample the orbit on this many nodes")
    _add_common(p)
    p.set_defaults(func=cmd_kepler_to_orbit)
    p = ksub.add_parser("to-potential", help="polar orbit to potential")
    p.add_argument("--orbit", required=True, help="orbit JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_kepler_to_potential)

    p = sub.add_parser("synthesize",
                       help="potential with a prescribed lifted monodromy")
    p.add_argument("--target", required=True, help="cover element JSON file")
    p.add_argument("--coeffs", type=_float_list, default=None,
                   help="fiber coordinates, comma separated")
    p.add_argument("--verify-tol", type=_tol_arg, default=SYNTH_VERIFY_TOL)
    p.add_argument("--steps", type=_steps_arg, default=None,
                   help="integration steps (default: automatic)")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("spectrum",
                       help="periodic eigenvalues along q0 - s qplus")
    p.add_argument("--q0", required=True, help="base potential JSON file")
    p.add_argument("--qplus", required=True,
                   help="direction potential JSON file, must be positive")
    p.add_argument("--nmax", type=int, required=True,
                   help="largest eigenvalue index")
    _add_common(p, steps_default=DEFAULT_SCAN_STEPS)
    p.set_defaults(func=cmd_spectrum)

    pb = sub.add_parser("boundary", help="two point boundary conditions")
    bsub = pb.add_subparsers(dest="boundary_command", required=True)
    p = bsub.add_parser("separated", help="separated condition")
    p.add_argument("--potential", required=True)
    p.add_argument("--theta0", type=float, required=True)
    p.add_argument("--theta2pi", type=float, required=True)
    p.add_argument("--tol", type=_tol_arg, default=RESIDUAL_TOL)
    _add_common(p)
    p.set_defaults(func=cmd_boundary_separated)
    p = bsub.add_parser("general", help="coupled condition via matrix A")
    p.add_argument("--potential", required=True)
    p.add_argument("--A", type=_float_list, required=True,
                   help="matrix entries a,b,c,d")
    p.add_argument("--tol", type=_tol_arg, default=RESIDUAL_TOL)
    _add_common(p)
    p.set_defaults(func=cmd_boundary_general)

    p = sub.add_parser("classify", help="stratum of a cover element file")
    p.add_argument("--element", required=True, help="cover element JSON file")
    p.add_argument("--tol", type=_tol_arg, default=1e-8)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("plotdata",
                       help="trace level sets or sampled curves as CSV")
    p.add_argument("--levels", type=_float_list, default=None,
                   help="trace values, comma separated")
    p.add_argument("--alpha-min", type=float, default=-TAU)
    p.add_argument("--alpha-max", type=float, default=TAU)
    p.add_argument("--alpha-samples", type=int, default=1601)
    p.add_argument("--rmax", type=float, default=5.0)
    p.add_argument("--curve-of", default=None,
                   help="emit the fundamental curve of this potential file")
    _add_common(p)
    p.set_defaults(func=cmd_plotdata)

    p = sub.add_parser("sample-potential",
                       help="write a potential file for other commands")
    p.add_argument("--constant", type=float, default=None)
    p.add_argument("--cos", type=_float_list, default=None,
                   help="cosine coefficients from frequency 1")
    p.add_argument("--sin", type=_float_list, default=None,
                   help="sine coefficients from frequency 1")
    p.add_argument("--constant-term", type=float, default=0.0)
    p.add_argument("--grid", type=int, default=None,
                   help="emit as sampled values on this many grid points")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_sample_potential)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalInvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


def entry():
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream consumer (head, less) closed the pipe; exit quietly
        # with the conventional SIGPIPE status.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)


if __name__ == "__main__":
    entry()
