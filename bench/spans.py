"""Layer spans for the benchmark's traced runs.

The tracer wraps the public functions of each hillmono layer from outside:
install() rebinds every name under which a hillmono module holds one of
them (for example hillmono.spectral.monodromy or hillmono.boundary.integrate)
to a wrapper that records a span, and uninstall() puts the originals back.
The program's code is not changed. Spans are kept in memory; a layer's self
time is its spans' durations minus the parts their child spans cover.
"""

import contextlib
import json
import os
import statistics
import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, op, child_s, count]
        self._stack = []
        self._saved = []
        self.op = -1

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf_counter(), 0.0, parent, self.op, 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span):
        span[2] = perf_counter()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    @contextlib.contextmanager
    def span(self, name):
        span = self._enter(name)
        try:
            yield span
        finally:
            self._exit(span)

    def wrap(self, name, fn, count=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if count is not None:
                span[6] = count(args, kwargs, result)
            return result

        return wrapper

    def install(self, targets):
        """targets: (span name, original function, count) triples, plus the
        Potential class whose __call__ is wrapped as potentials.eval."""
        mods = [m for n, m in sys.modules.items()
                if (n == "hillmono" or n.startswith("hillmono.")) and m is not None]
        for name, original, count in targets:
            wrapper = self.wrap(name, original, count)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def install_method(self, cls, attr, name, count=None):
        original = cls.__dict__[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, count))

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved = []

    def dump(self, path):
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, op, child, count) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op,
                                     "child_s": child, "count": count}) + "\n")


def span_cost(calls=20000, batches=7):
    """Seconds one traced call adds to the call it wraps.

    Calibrated in the calling process on a function that does nothing: the
    median over batches of (wrapped - bare) time per call. Spans times this
    cost is the tracer's own share of a traced round.
    """
    def bare():
        return None

    probe = Tracer()
    wrapped = probe.wrap("calibration", bare)
    costs = []
    for _ in range(batches):
        probe.spans.clear()
        t0 = perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = perf_counter()
        for _ in range(calls):
            bare()
        t2 = perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return statistics.median(costs)


def _size_of(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def layer_targets(hm):
    """The functions wrapped in a traced run, by layer.

    hm maps module names ("integrate", "cover", ...) to hillmono modules.
    """
    integ, cover, bnd, spec, syn, kep, cli = (
        hm["integrate"], hm["cover"], hm["boundary"], hm["spectral"],
        hm["synthesis"], hm["kepler"], hm["cli"])
    steps_default = integ.DEFAULT_STEPS

    def winding_steps(args, kwargs, _):
        return int(args[2] if len(args) > 2 else kwargs.get("steps", steps_default))

    out = [
        ("integrate.integrate", integ.integrate, lambda a, k, r: r.t.size - 1),
        ("integrate.monodromy", integ.monodromy, None),
        ("integrate.solution_winding", integ.solution_winding, winding_steps),
        ("spectral.oscillation_eigenvalues", spec.oscillation_eigenvalues,
         lambda a, k, r: len(r)),
        ("synthesis.potential_with_monodromy", syn.potential_with_monodromy, None),
        ("synthesis.synthesize_orbit", syn.synthesize_orbit, None),
        ("synthesis.normalize_c", syn.normalize_c, None),
        ("synthesis.auto_steps", syn.auto_steps, lambda a, k, r: int(r)),
        ("kepler.curve_of", kep.curve_of, lambda a, k, r: r.t.size),
        ("kepler.orbit_of", kep.orbit_of, lambda a, k, r: r.rho.size),
        ("kepler.curve_of_orbit", kep.curve_of_orbit, lambda a, k, r: r.t.size),
        ("kepler.potential_of_curve", kep.potential_of_curve,
         lambda a, k, r: r.samples.size),
        ("kepler.potential_of_orbit", kep.potential_of_orbit,
         lambda a, k, r: r.samples.size),
        ("serialize.write", cli.dumps_json, None),
        ("serialize.write", cli._write_text, lambda a, k, r: len(a[0])),
        ("serialize.read", cli.read_json, lambda a, k, r: _size_of(a[0])),
        ("serialize.read", cli.load_potential, lambda a, k, r: _size_of(a[0])),
    ]
    for fn in ("separated_residual", "separated_has_solution", "separated_index",
               "general_residual", "general_has_solution", "general_all_solutions",
               "principal_lift", "beta_image"):
        out.append((f"boundary.{fn}", getattr(bnd, fn), None))
    for fn in LIFT_FUNCTIONS:
        out.append((f"cover.lift.{fn}", getattr(cover, fn), None))
    for fn in CHART_FUNCTIONS:
        out.append((f"cover.chart.{fn}", getattr(cover, fn), None))
    return out


# Lift arithmetic: the windings these return come from argument tracking.
LIFT_FUNCTIONS = ("multiply", "from_right_iwasawa", "from_schur", "arg_variation")
CHART_FUNCTIONS = ("from_left_iwasawa", "to_left_iwasawa", "to_right_iwasawa",
                   "from_cartan", "to_cartan", "from_cone_coords",
                   "from_trace_coords", "center_power", "classify")
CLI_SUBCOMMANDS = ("monodromy", "boundary_general", "boundary_separated",
                   "spectrum", "synthesize", "kepler_to_orbit",
                   "kepler_to_potential")


def layer_metrics(spans, rounds):
    """Per-round layer metrics from the spans of `rounds` traced rounds."""
    calls, total, self_s, counts = {}, {}, {}, {}
    for name, t0, t1, parent, op, child, count in spans:
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (t1 - t0)
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child)
        counts[name] = counts.get(name, 0) + count

    def by(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def under(child_names, parent_prefix):
        n = 0
        for name, _, _, parent, *_ in spans:
            if name in child_names and parent >= 0 and \
                    spans[parent][0].startswith(parent_prefix):
                n += 1
        return n

    integ_steps = counts.get("integrate.integrate", 0)
    integ_self = self_s.get("integrate.integrate", 0.0)
    eigen = counts.get("spectral.oscillation_eigenvalues", 0)
    spec_mono = under({"integrate.monodromy"}, "spectral.")
    m = {
        "potentials.eval_calls": (calls.get("potentials.eval", 0), "count"),
        "potentials.eval_points": (counts.get("potentials.eval", 0), "count"),
        "potentials.eval_s": (self_s.get("potentials.eval", 0.0), "s"),
        "integrate.calls": (calls.get("integrate.integrate", 0), "count"),
        "integrate.steps": (integ_steps, "count"),
        "integrate.self_s": (integ_self, "s"),
        "integrate.monodromy_calls": (calls.get("integrate.monodromy", 0), "count"),
        "integrate.monodromy_self_s": (self_s.get("integrate.monodromy", 0.0), "s"),
        "integrate.solution_winding_calls": (
            calls.get("integrate.solution_winding", 0), "count"),
        "integrate.solution_winding_s": (
            self_s.get("integrate.solution_winding", 0.0), "s"),
        "boundary.calls": (by("boundary.", calls), "count"),
        "boundary.integrate_calls": (under(
            {"integrate.integrate", "integrate.solution_winding",
             "integrate.monodromy"}, "boundary."), "count"),
        "boundary.self_s": (by("boundary.", self_s), "s"),
        "spectral.scans": (calls.get("spectral.oscillation_eigenvalues", 0), "count"),
        "spectral.monodromy_calls": (spec_mono, "count"),
        "spectral.self_s": (by("spectral.", self_s), "s"),
        "cover.lift_calls": (by("cover.lift.", calls), "count"),
        "cover.lift_s": (by("cover.lift.", self_s), "s"),
        "cover.chart_calls": (by("cover.chart.", calls), "count"),
        "cover.chart_s": (by("cover.chart.", self_s), "s"),
        "synthesis.calls": (calls.get("synthesis.potential_with_monodromy", 0), "count"),
        "synthesis.self_s": (by("synthesis.", self_s), "s"),
        "synthesis.normalize_s": (self_s.get("synthesis.normalize_c", 0.0), "s"),
        "synthesis.steps_chosen": (counts.get("synthesis.auto_steps", 0), "count"),
        "kepler.calls": (by("kepler.", calls), "count"),
        "kepler.points": (by("kepler.", counts), "count"),
        "kepler.self_s": (by("kepler.", self_s), "s"),
        "serialize.write_bytes": (counts.get("serialize.write", 0), "B"),
        "serialize.write_s": (self_s.get("serialize.write", 0.0), "s"),
        "serialize.read_bytes": (counts.get("serialize.read", 0), "B"),
        "serialize.read_s": (self_s.get("serialize.read", 0.0), "s"),
        "cli.self_s": (by("cli.", self_s), "s"),
    }
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}_s"] = (total.get(f"cli.{sub}", 0.0), "s")
    out = {k: (v / rounds, unit) for k, (v, unit) in m.items()}
    # Ratios are taken after the per-round division, on whole-run totals.
    out["integrate.ns_per_step"] = (
        1e9 * integ_self / integ_steps if integ_steps else 0.0, "ns")
    out["spectral.calls_per_eigenvalue"] = (
        spec_mono / eigen if eigen else 0.0, "count")
    return out
