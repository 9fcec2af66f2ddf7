"""The benchmark's workloads: seeded inputs, operations and output checks.

Inputs are made here from the seed alone, without importing hillmono, so
the program receives only generated files. Each workload runs the same list
of operations in every round; its check compares the first round's outputs
with the independent references in oracles.py, and later rounds must
reproduce the first round's bytes exactly.
"""

import json
import math
import os

import numpy as np

import oracles

TAU = math.tau

# Agreement tolerances. Each leaves a margin of ten or more over the largest
# disagreement measured on these inputs (README, "Output checks") and stays
# far below the mutation probes' 2 pi and 1e-5.
MAT_TOL = 5e-8          # matrices, relative to max(1, largest entry)
ANGLE_TOL = 1e-7        # omega and theta_R, radians
RESIDUAL_TOL = 1e-7     # the CLI's default --tol for boundary residuals
SYNTH_TOL = 1e-6        # synthesize's default --verify-tol
KEPLER_TOL = 1e-6       # monodromy drift over a Kepler round trip
TRACE_TOL = 1e-8        # |trace - 2| at a reported periodic eigenvalue
MIN_FIBRE_L2 = 1e-3     # relative L2 distance between two fibre choices

DEFAULT_STEPS = 16384
SCAN_STEPS = 4096


def _dump(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _close(what, got, want, tol):
    """Problem text when |got - want| > tol, else None."""
    err = abs(float(got) - float(want))
    if not err <= tol:
        return f"{what}: got {got!r}, want {want!r} (error {err:.3e} > {tol:.1e})"
    return None


def _mat_close(what, got, want, tol=MAT_TOL):
    got = np.asarray(got, dtype=float).reshape(2, 2)
    want = np.asarray(want, dtype=float).reshape(2, 2)
    scale = max(1.0, float(np.abs(want).max()))
    err = float(np.abs(got - want).max()) / scale
    if not err <= tol:
        return f"{what}: matrix off by {err:.3e} relative (tolerance {tol:.1e})"
    return None


def _trig_spec(rng, c_lo, c_hi, amp, max_harmonics=3):
    m = int(rng.integers(1, max_harmonics + 1))
    decay = np.arange(1, m + 1)
    return {"kind": "trig_poly",
            "cos_coeffs": (amp * rng.uniform(-1, 1, m) / decay).tolist(),
            "sin_coeffs": (amp * rng.uniform(-1, 1, m) / decay).tolist(),
            "constant_term": float(rng.uniform(c_lo, c_hi))}


def _trig_values(spec, t):
    c0, cos, sin = oracles.trig_coefficients(spec)
    out = np.full(t.shape, c0)
    for j, a in enumerate(cos, start=1):
        out += a * np.cos(j * t)
    for j, b in enumerate(sin, start=1):
        out += b * np.sin(j * t)
    return out


class Workload:
    """Base: subclasses set name and make their inputs in __init__."""

    name = None
    steps = {}

    def __init__(self, seed):
        self.seed = seed
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])

    def write_inputs(self, work):
        for fname, obj in self.files():
            _dump(obj, os.path.join(work, fname))

    def files(self):
        return []

    def outputs(self, work):
        return []


# ---------------------------------------------------------------------------
# forward_map
# ---------------------------------------------------------------------------

class ForwardMap(Workload):
    """monodromy, boundary general and boundary separated on 30 potentials.

    Eight trig polynomials, each also sampled on a 1025-point grid with cubic
    and with linear interpolation, four constants -k^2/4 whose Dirichlet
    problem has index k, and two other constants.
    """

    name = "forward_map"
    steps = {"monodromy": DEFAULT_STEPS, "boundary": DEFAULT_STEPS}
    TRIG = 8
    GRID = 1025
    DIRICHLET_K = range(1, 5)
    CONSTANTS = 2

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng
        grid = np.linspace(0.0, TAU, self.GRID)
        pots = []
        for _ in range(self.TRIG):
            spec = _trig_spec(rng, -6.0, 0.5, 1.0)
            values = _trig_values(spec, grid).tolist()
            pots.append({"spec": spec})
            pots.append({"spec": {"kind": "sampled", "samples": values,
                                  "interp": "cubic"}})
            pots.append({"spec": {"kind": "sampled", "samples": values,
                                  "interp": "linear"}})
        for k in self.DIRICHLET_K:
            pots.append({"spec": {"kind": "constant", "c": -k * k / 4.0},
                         "dirichlet_k": k})
        while sum("constant" == p["spec"]["kind"] for p in pots) < \
                len(self.DIRICHLET_K) + self.CONSTANTS:
            c = float(rng.uniform(-6.0, 0.5))
            lam2 = 2.0 * math.sqrt(max(-c, 0.0))
            # Keep the trace clear of +-2 so the stratum is decided exactly.
            if abs(c) > 0.05 and (c > 0 or abs(lam2 - round(lam2)) > 0.1):
                pots.append({"spec": {"kind": "constant", "c": c}})
        # Every other A is unimodular, so boundary general integrates a third
        # time on exactly half of the generic potentials whatever the seed.
        for j, p in enumerate(pots):
            k = p.get("dirichlet_k")
            if k is not None:
                sign = -1.0 if k % 2 else 1.0
                p["A"] = [sign, 0.0, 0.0, sign]
                p["angles"] = [math.pi / 2, math.pi / 2]
                continue
            if j % 2:
                a = float(rng.choice([-1, 1]) * rng.uniform(0.4, 1.6))
                b, c = (float(v) for v in rng.normal(0, 1, 2))
                p["A"] = [a, b, c, (1.0 + b * c) / a]
            else:
                while True:
                    m = rng.normal(0, 1, 4)
                    if abs(m[0] * m[3] - m[1] * m[2]) > 0.2:
                        break
                p["A"] = m.tolist()
            p["angles"] = [float(rng.uniform(0.0, math.pi)),
                           float(math.pi - rng.uniform(0.0, math.pi))]
        order = rng.permutation(len(pots))
        self.potentials = [pots[i] for i in order]

    def files(self):
        return [(f"q{i}.json", p["spec"]) for i, p in enumerate(self.potentials)]

    def ops(self, work):
        out = []
        for i, p in enumerate(self.potentials):
            q = os.path.join(work, f"q{i}.json")
            a = ",".join(repr(float(v)) for v in p["A"])
            th0, th1 = p["angles"]
            out += [
                ("monodromy", ["monodromy", "--potential", q,
                               "-o", os.path.join(work, f"m{i}.json")]),
                ("boundary_general", ["boundary", "general", "--potential", q,
                                      f"--A={a}",
                                      "-o", os.path.join(work, f"g{i}.json")]),
                ("boundary_separated", ["boundary", "separated", "--potential", q,
                                        f"--theta0={th0!r}", f"--theta2pi={th1!r}",
                                        "-o", os.path.join(work, f"s{i}.json")]),
            ]
        return out

    def outputs(self, work):
        return [os.path.join(work, f"{p}{i}.json")
                for i in range(len(self.potentials)) for p in "mgs"]

    def references(self):
        """Per-potential DOP853 records; constants also carry their closed
        form, which the DOP853 record must agree with."""
        refs = []
        for p, rec in zip(self.potentials, oracles.forward_references(self.potentials)):
            spec = p["spec"]
            if spec["kind"] == "constant":
                closed = oracles.constant_closed_form(spec["c"])
                rec = dict(rec, closed=closed)
            refs.append(rec)
        return refs

    def check(self, work, results):
        problems = []
        refs = self.references()
        for i, (p, ref) in enumerate(zip(self.potentials, refs)):
            if "closed" in ref:
                for what in ("omega", "theta_R"):
                    problems.append(_close(f"q{i} DOP853 {what} vs closed form",
                                           ref[what], ref["closed"][what], 1e-9))
                problems.append(_mat_close(f"q{i} DOP853 vs closed form",
                                           ref["matrix"], ref["closed"]["matrix"], 1e-9))
            with open(os.path.join(work, f"m{i}.json")) as fh:
                problems += self.check_monodromy(f"m{i}", json.load(fh), p, ref)
            with open(os.path.join(work, f"g{i}.json")) as fh:
                problems += self.check_general(f"g{i}", json.load(fh), p, ref)
            with open(os.path.join(work, f"s{i}.json")) as fh:
                problems += self.check_separated(f"s{i}", json.load(fh), p, ref)
        problems = [x for x in problems if x]
        if not problems:
            problems += self.mutation_probe(work, refs)
        return problems

    @staticmethod
    def expected_stratum(p, ref):
        k = p.get("dirichlet_k")
        if k is not None:
            return ("parabolic_vertex", k)
        src = ref.get("closed", ref)
        return oracles.expected_stratum(src["matrix"], src["omega"])

    def check_monodromy(self, tag, out, p, ref):
        want = ref.get("closed", ref)
        res = [
            _mat_close(tag, out["matrix"], want["matrix"]),
            _close(f"{tag} omega", out["omega"], want["omega"], ANGLE_TOL),
            _close(f"{tag} theta_R", out["theta_R"], want["theta_R"], ANGLE_TOL),
            None if out["component"] == "+" else f"{tag}: component {out['component']}",
        ]
        m = out["matrix"]
        res.append(_close(f"{tag} trace", out["trace"], m[0][0] + m[1][1], 1e-12 *
                          max(1.0, abs(out["trace"]))))
        strat = self.expected_stratum(p, ref)
        got = (out["stratum"]["kind"], out["stratum"]["component_index"])
        if strat is not None and got != strat:
            res.append(f"{tag}: stratum {got}, want {strat}")
        return res

    def check_general(self, tag, out, p, ref):
        a = np.array(p["A"], dtype=float).reshape(2, 2)
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        scale_a = math.sqrt(abs(det))
        b = scale_a * np.linalg.inv(a)
        mref = np.array(ref.get("closed", ref)["matrix"])
        m1 = b @ mref
        scale = max(1.0, float(np.abs(b).max() * np.abs(mref).max()))
        want_res = m1[0, 0] + m1[1, 1] - (scale_a + math.copysign(1.0, det) / scale_a)
        res = [_close(f"{tag} residual", out["residual"], want_res, MAT_TOL * scale),
               _mat_close(f"{tag} beta", out["beta"]["m"], m1),
               _close(f"{tag} beta omega", out["beta"]["omega"], ref["beta_omega"],
                      ANGLE_TOL),
               _close(f"{tag} beta_trace", out["beta_trace"], m1[0, 0] + m1[1, 1],
                      MAT_TOL * scale)]
        margin = 10 * MAT_TOL * scale
        if abs(abs(want_res) - RESIDUAL_TOL) > margin and \
                out["has_solution"] != (abs(want_res) <= RESIDUAL_TOL):
            res.append(f"{tag}: has_solution {out['has_solution']} with "
                       f"reference residual {want_res:.3e}")
        gap = float(np.abs(mref - a).max())
        if abs(det - 1.0) <= RESIDUAL_TOL and abs(gap - RESIDUAL_TOL) > margin:
            want_all = gap <= RESIDUAL_TOL
        else:
            want_all = False if abs(det - 1.0) > RESIDUAL_TOL else None
        if want_all is not None and out["all_solutions"] != want_all:
            res.append(f"{tag}: all_solutions {out['all_solutions']}, want {want_all}")
        comp = "+" if det > 0 else "-"
        if out["beta"]["component"] != comp:
            res.append(f"{tag}: beta component {out['beta']['component']}, want {comp}")
        if det > 0:
            k = p.get("dirichlet_k")
            if k is not None:
                strat = ("parabolic_vertex", k + k % 2)
            else:
                strat = oracles.expected_stratum(m1.tolist(), ref["beta_omega"])
            got = out.get("beta_stratum")
            got = got and (got["kind"], got["component_index"])
            if strat is not None and got != strat:
                res.append(f"{tag}: beta stratum {got}, want {strat}")
        elif "beta_stratum" in out:
            res.append(f"{tag}: beta stratum on the reflected component")
        return res

    def check_separated(self, tag, out, p, ref):
        th0, th1 = p["angles"]
        mref = np.array(ref.get("closed", ref)["matrix"])
        u = mref @ np.array([math.cos(th0), math.sin(th0)])
        want = (-math.sin(th1) * u[0] + math.cos(th1) * u[1]) / math.hypot(*u)
        scale = max(1.0, float(np.abs(mref).max()))
        res = [_close(f"{tag} residual", out["residual"], want, MAT_TOL * scale)]
        solvable = abs(want) <= RESIDUAL_TOL
        if abs(abs(want) - RESIDUAL_TOL) > 10 * MAT_TOL * scale and \
                out["has_solution"] != solvable:
            res.append(f"{tag}: has_solution {out['has_solution']} with "
                       f"reference residual {want:.3e}")
        k = p.get("dirichlet_k")
        if out["has_solution"]:
            x = -ref["solution_winding"] - (th1 - th0)
            n = round(x / math.pi)
            if k is not None and n != k:
                res.append(f"{tag}: reference Dirichlet index {n}, want {k}")
            if out.get("index") != n:
                res.append(f"{tag}: index {out.get('index')}, want {n}")
        elif k is not None:
            res.append(f"{tag}: Dirichlet problem for q=-{k}^2/4 reported unsolvable")
        return res

    def mutation_probe(self, work, refs):
        """The checks must reject a 2 pi shift of omega and a 1e-5 change of
        one matrix entry in every monodromy output."""
        problems = []
        for i, (p, ref) in enumerate(zip(self.potentials, refs)):
            with open(os.path.join(work, f"m{i}.json")) as fh:
                out = json.load(fh)
            shifted = dict(out, omega=out["omega"] + TAU)
            scale = max(1.0, max(abs(v) for row in out["matrix"] for v in row))
            bumped = dict(out, matrix=[[out["matrix"][0][0],
                                        out["matrix"][0][1] + 1e-5 * scale],
                                       list(out["matrix"][1])])
            for what, bad in (("omega + 2 pi", shifted), ("entry + 1e-5", bumped)):
                if not any(self.check_monodromy(f"m{i}", bad, p, ref)):
                    problems.append(f"m{i}: checks accept a mutated output ({what})")
        return problems


# ---------------------------------------------------------------------------
# spectrum_lines
# ---------------------------------------------------------------------------

ONE = {"kind": "constant", "c": 1.0}
# --nmax 2 on every line: a scan of about 1 s (some 100 monodromy calls)
# gives a run seven rounds, so that each scan's median over the rounds is
# steady; scans to --nmax 12, 4 and 10 took 2.8, 1.5 and 3.8 s, and the
# three rounds a run held left op_p50_ms spreading by 0.2 (README).
LINES = {
    "flat": ({"kind": "constant", "c": 0.0}, ONE, 2),
    "mathieu": ({"kind": "trig_poly", "cos_coeffs": [2.0], "sin_coeffs": [],
                 "constant_term": 0.0}, ONE, 2),
    "generic": ({"kind": "trig_poly", "cos_coeffs": [1.0],
                 "sin_coeffs": [0.0, 0.0, 0.5], "constant_term": 0.0},
                {"kind": "trig_poly", "cos_coeffs": [0.2], "sin_coeffs": [],
                 "constant_term": 1.0}, 2),
}
# Eigenvalue agreement: the scan's 4096-step trace locates a double
# eigenvalue (vertex) to about 5e-9 at k = 1, a simple one to about 1e-12.
LINE_TOL = {"flat": 1e-7, "mathieu": 1e-10, "generic": 1e-10}


class SpectrumLines(Workload):
    """spectrum on the flat, Mathieu and generic lines.

    The lines are fixed: the seed only orders the scans. Shifted copies of
    the same lines, which have the same spectra, make some scans fail
    (CHANGES.md), so the seed does not move them.
    """

    name = "spectrum_lines"
    steps = {"spectrum": SCAN_STEPS}

    def __init__(self, seed):
        super().__init__(seed)
        self.order = [list(LINES)[i] for i in self.rng.permutation(len(LINES))]

    def files(self):
        out = []
        for name in self.order:
            q0, qplus, _ = LINES[name]
            out += [(f"{name}_q0.json", q0), (f"{name}_qplus.json", qplus)]
        return out

    def ops(self, work):
        return [("spectrum", ["spectrum",
                              "--q0", os.path.join(work, f"{n}_q0.json"),
                              "--qplus", os.path.join(work, f"{n}_qplus.json"),
                              "--nmax", str(LINES[n][2]),
                              "-o", os.path.join(work, f"{n}.csv")])
                for n in self.order]

    def outputs(self, work):
        return [os.path.join(work, f"{n}.csv") for n in self.order]

    @staticmethod
    def oracle(name):
        q0, qplus, nmax = LINES[name]
        if name == "flat":
            return oracles.flat_line_eigenvalues(nmax + 1)
        if name == "mathieu":
            return oracles.mathieu_line_eigenvalues(nmax + 1)
        return oracles.hill_eigenvalues(q0, qplus, nmax + 1)

    def check(self, work, results):
        problems = []
        for name in self.order:
            nmax = LINES[name][2]
            with open(os.path.join(work, f"{name}.csv")) as fh:
                lines = fh.read().split()
            if lines[0] != "n,s,multiplicity,component,trace,theta_R":
                problems.append(f"{name}: header {lines[0]!r}")
                continue
            rows = [r.split(",") for r in lines[1:]]
            if [int(r[0]) for r in rows] != list(range(nmax + 1)):
                problems.append(f"{name}: indices {[r[0] for r in rows]}")
                continue
            want = self.oracle(name)
            for r, s_ref in zip(rows, want):
                problems.append(_close(f"{name} s_{r[0]}", float(r[1]), s_ref,
                                       LINE_TOL[name]))
                problems.append(_close(f"{name} trace_{r[0]}", float(r[4]), 2.0,
                                       TRACE_TOL))
            if rows[0][3] != "hyperplane" or rows[0][2] != "1":
                problems.append(f"{name}: first label {rows[0][3]}")
            for pair in range(1, nmax // 2 + 1):
                lo, hi = rows[2 * pair - 1], rows[2 * pair]
                if name == "flat":
                    ok = (lo[3] == hi[3] == f"vertex({pair})"
                          and lo[2] == hi[2] == "2" and lo[1] == hi[1])
                else:
                    ok = (lo[3] == f"cone_leaf({pair}-)"
                          and hi[3] == f"cone_leaf({pair}+)"
                          and lo[2] == hi[2] == "1" and float(lo[1]) < float(hi[1]))
                if not ok:
                    problems.append(f"{name}: pair {pair} labelled {lo[1:4]}, {hi[1:4]}")
        return [x for x in problems if x]


# ---------------------------------------------------------------------------
# inverse_map
# ---------------------------------------------------------------------------

class InverseMap(Workload):
    """synthesize on right Iwasawa targets; kepler round trips."""

    name = "inverse_map"
    steps = {"synthesize": "auto", "kepler": DEFAULT_STEPS}
    FIXED_TARGETS = [(13.0, 2.0, -1.0), (0.3, 0.5, -2.0)]
    SEEDED_TARGETS = 4
    REPEATED = 2        # seeded targets synthesized again with other coeffs
    KEPLER = 4

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng
        targets = [list(t) for t in self.FIXED_TARGETS]
        # Angles from 2 keep auto_steps at 16384 for every seed, so the
        # round's cost does not depend on the seed; the two fixed targets
        # are the stiff ones.
        for _ in range(self.SEEDED_TARGETS):
            targets.append([float(rng.uniform(2.0, 8.0)),
                            float(math.exp(rng.uniform(-1.0, 1.0))),
                            float(rng.uniform(-1.5, 1.5))])
        synth = []
        for j, t in enumerate(targets):
            synth.append({"target": j, "coeffs": rng.uniform(-0.1, 0.1, 8).tolist()})
        for j in range(len(self.FIXED_TARGETS),
                       len(self.FIXED_TARGETS) + self.REPEATED):
            synth.append({"target": j, "coeffs": rng.uniform(-0.1, 0.1, 8).tolist()})
        self.targets = targets
        self.synth = synth
        # Deeper or larger potentials lose more than KEPLER_TOL over the round
        # trip, or fail it (CHANGES.md); these keep every seed inside it.
        self.kepler = [_trig_spec(rng, -1.5, -0.5, 0.3) for _ in range(self.KEPLER)]

    def target_element(self, j):
        mat, omega = oracles.right_iwasawa_element(*self.targets[j])
        return mat, omega

    def files(self):
        out = []
        for j in range(len(self.targets)):
            mat, omega = self.target_element(j)
            out.append((f"target{j}.json", {"m": mat.ravel().tolist(),
                                            "omega": omega, "component": "+"}))
        out += [(f"k{i}.json", spec) for i, spec in enumerate(self.kepler)]
        return out

    def ops(self, work):
        out = []
        for i, s in enumerate(self.synth):
            coeffs = ",".join(repr(float(c)) for c in s["coeffs"])
            out.append(("synthesize", [
                "synthesize", "--target", os.path.join(work, f"target{s['target']}.json"),
                f"--coeffs={coeffs}", "-o", os.path.join(work, f"syn{i}.json")]))
        for i in range(len(self.kepler)):
            out.append(("kepler_to_orbit", [
                "kepler", "to-orbit", "--potential", os.path.join(work, f"k{i}.json"),
                "-o", os.path.join(work, f"orbit{i}.json")]))
            out.append(("kepler_to_potential", [
                "kepler", "to-potential", "--orbit", os.path.join(work, f"orbit{i}.json"),
                "-o", os.path.join(work, f"kback{i}.json")]))
        return out

    def outputs(self, work):
        return ([os.path.join(work, f"syn{i}.json") for i in range(len(self.synth))]
                + [os.path.join(work, f"{p}{i}.json") for i in range(len(self.kepler))
                   for p in ("orbit", "kback")])

    def check(self, work, results):
        import hillmono

        problems = []
        written = []
        for i, s in enumerate(self.synth):
            stderr = results[i]["stderr"]
            claimed = [float(line.split(":")[1]) for line in stderr.splitlines()
                       if line.startswith("synthesis residual:")]
            if len(claimed) != 1 or not claimed[0] <= SYNTH_TOL:
                problems.append(f"syn{i}: stderr {stderr!r}")
            with open(os.path.join(work, f"syn{i}.json")) as fh:
                spec = json.load(fh)
            written.append(spec)
            mat, omega = self.target_element(s["target"])
            # mu(Psi(g, c)) = g: the program's own integrator on the re-read file
            q = hillmono.Potential.from_dict(spec)
            got, _ = hillmono.monodromy(q, q.samples.size - 1)
            problems.append(_mat_close(f"syn{i} monodromy", got.mat, mat, SYNTH_TOL))
            problems.append(_close(f"syn{i} monodromy omega", got.omega, omega, SYNTH_TOL))
            # and the independent DOP853 integration of the same file
            _, phi = oracles.reference_paths([spec])
            ref = oracles.path_summary(phi[0])
            problems.append(_mat_close(f"syn{i} DOP853", ref["matrix"], mat, SYNTH_TOL))
            problems.append(_close(f"syn{i} DOP853 omega", ref["omega"], omega, SYNTH_TOL))
        for i, si in enumerate(self.synth):
            for j in range(i):
                if self.synth[j]["target"] == si["target"]:
                    d = _rel_l2(written[i]["samples"], written[j]["samples"])
                    if not d > MIN_FIBRE_L2:
                        problems.append(f"syn{i} and syn{j}: fibre potentials only "
                                        f"{d:.2e} apart in L2")
        _, phi = oracles.reference_paths(self.kepler)
        for i in range(len(self.kepler)):
            ref = oracles.path_summary(phi[i])
            with open(os.path.join(work, f"orbit{i}.json")) as fh:
                orbit = json.load(fh)
            problems.append(_close(f"orbit{i} theta_max", orbit["theta_max"],
                                   ref["theta_R"], ANGLE_TOL))
            problems.append(_close(f"orbit{i} rho(0)", orbit["rho"][0], 1.0, 1e-12))
            with open(os.path.join(work, f"kback{i}.json")) as fh:
                back = json.load(fh)
            _, bphi = oracles.reference_paths([back])
            bref = oracles.path_summary(bphi[0])
            problems.append(_mat_close(f"kback{i} DOP853", bref["matrix"],
                                       ref["matrix"], KEPLER_TOL))
            problems.append(_close(f"kback{i} DOP853 omega", bref["omega"],
                                   ref["omega"], KEPLER_TOL))
        return [x for x in problems if x]


def _rel_l2(a, b):
    """Relative L2 distance of two potentials sampled on uniform grids."""
    n = max(len(a), len(b))
    t = np.linspace(0.0, TAU, n)
    fa = np.interp(t, np.linspace(0.0, TAU, len(a)), a)
    fb = np.interp(t, np.linspace(0.0, TAU, len(b)), b)
    return float(np.sqrt(np.mean((fa - fb) ** 2) / np.mean(fb ** 2)))


WORKLOADS = {cls.name: cls for cls in (ForwardMap, SpectrumLines, InverseMap)}


def make(name, seed):
    return WORKLOADS[name](seed)
