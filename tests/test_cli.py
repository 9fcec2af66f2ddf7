"""Command line interface: outputs, formats, and exit codes."""

import hashlib
import importlib
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from hillmono import (DomainError, Potential, cli, curve_of, element_to_dict,
                      fmt_float, from_right_iwasawa, load_potential,
                      monodromies, monodromy, orbit_of,
                      potential_with_monodromy, read_json, write_json)
from hillmono.cli import SYNTH_VERIFY_TOL, main
from hillmono.synthesis import MAX_BASIS_SIZE
from oracles import rel_l2

TAU = math.tau


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, q in (("qm1", Potential.constant(-1.0)),
                    ("q0", Potential.constant(0.0)),
                    ("qq", Potential.constant(-0.25)),
                    ("qp1", Potential.constant(1.0)),
                    ("mathieu", Potential.trig_poly([2.0])),
                    ("trig", Potential.trig_poly([0.3], [0.0, 0.1]))):
        p = tmp_path / f"{name}.json"
        write_json(q.to_dict(), p)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def test_monodromy_vertex_output(files):
    out = str(files["dir"] / "mono.json")
    assert main(["monodromy", "--potential", files["qm1"], "-o", out]) == 0
    data = read_json(out)
    assert data["stratum"]["kind"] == "parabolic_vertex"
    assert data["stratum"]["component_index"] == 2
    assert abs(data["trace"] - 2.0) < 1e-8
    assert abs(data["omega"] + TAU) < 1e-6
    assert abs(data["theta_R"] - TAU) < 1e-6
    assert data["component"] == "+"


def test_monodromy_leaf_output(files):
    out = str(files["dir"] / "mono0.json")
    assert main(["monodromy", "--potential", files["q0"], "-o", out]) == 0
    data = read_json(out)
    assert data["stratum"]["kind"] == "parabolic_leaf_plus"
    assert data["stratum"]["component_index"] == 0
    assert abs(data["matrix"][0][1] - TAU) < 1e-8


def test_monodromy_malformed_input_exits_2(files):
    bad = files["dir"] / "bad.json"
    bad.write_text("{broken")
    assert main(["monodromy", "--potential", str(bad)]) == 2
    assert main(["monodromy", "--potential",
                 str(files["dir"] / "missing.json")]) == 2


def test_kepler_round_trip(files):
    orbit = str(files["dir"] / "orbit.json")
    back = str(files["dir"] / "back.json")
    assert main(["kepler", "to-orbit", "--potential", files["trig"],
                 "--steps", "4096", "-o", orbit]) == 0
    assert main(["kepler", "to-potential", "--orbit", orbit,
                 "--steps", "4096", "-o", back]) == 0
    q1 = load_potential(files["trig"])
    q2 = load_potential(back)
    t = np.linspace(0.0, TAU, 2049)
    assert rel_l2(q2(t), q1(t), t) < 1e-4


def test_kepler_constant_minus_one_round_orbit(files):
    orbit = str(files["dir"] / "round.json")
    assert main(["kepler", "to-orbit", "--potential", files["qm1"],
                 "-o", orbit]) == 0
    data = read_json(orbit)
    assert abs(data["theta_max"] - TAU) < 1e-8
    assert np.abs(np.array(data["rho"]) - 1.0).max() < 1e-8


def test_kepler_bad_orbit_exits_2(files):
    orbit = str(files["dir"] / "orbit2.json")
    main(["kepler", "to-orbit", "--potential", files["trig"], "-o", orbit])
    data = read_json(orbit)
    data["rho"] = [1.5 * v for v in data["rho"]]
    broken = files["dir"] / "broken.json"
    write_json(data, broken)
    assert main(["kepler", "to-potential", "--orbit", str(broken)]) == 2


def test_kepler_orbit_the_program_resamples_badly_exits_3(files, capsys):
    # The curve passes, but its PCHIP resample onto the angle grid misses
    # the 2 pi sweep; monodromy on the same potential succeeds.
    q = str(files["dir"] / "sweep.json")
    orbit = str(files["dir"] / "sweep_orbit.json")
    assert main(["sample-potential", "--cos=-0.23,-0.18", "--sin=-0.91,-0.9",
                 "--constant-term", "0.5", "-o", q]) == 0
    assert main(["monodromy", "--potential", q,
                 "-o", str(files["dir"] / "sweep_mono.json")]) == 0
    capsys.readouterr()
    assert main(["kepler", "to-orbit", "--potential", q, "-o", orbit]) == 3
    err = capsys.readouterr().err
    assert "orbit sweeps 6.28835" in err and "increase steps" in err


def test_curve_the_program_integrates_coarsely_exits_3(files, capsys):
    # integrate accepts the path with its 1e-6 allowance; the curve's own
    # 1e-7 Wronskian check refuses it.
    q = str(files["dir"] / "stiff.json")
    assert main(["sample-potential", "--constant", "-100", "-o", q]) == 0
    for argv in (["kepler", "to-orbit", "--potential", q],
                 ["plotdata", "--curve-of", q]):
        capsys.readouterr()
        out = str(files["dir"] / "stiff_out")
        assert main(argv + ["--steps", "1024", "-o", out]) == 3
        assert capsys.readouterr().err == (
            "invariant violation: curve Wronskian deviates by 7.587e-07 "
            "(tolerance 1e-07); increase steps\n")


def test_synthesize_from_monodromy_output(files):
    target = str(files["dir"] / "target.json")
    synth = str(files["dir"] / "synth.json")
    check = str(files["dir"] / "check.json")
    assert main(["monodromy", "--potential", files["trig"],
                 "-o", target]) == 0
    assert main(["synthesize", "--target", target, "--coeffs", "0.05,-0.02",
                 "-o", synth]) == 0
    assert main(["monodromy", "--potential", synth, "-o", check]) == 0
    a = read_json(target)
    b = read_json(check)
    dev = np.abs(np.array(a["matrix"]) - np.array(b["matrix"])).max()
    assert dev < 1e-6
    assert abs(a["omega"] - b["omega"]) < 1e-6


def test_synthesize_output_is_byte_stable(files):
    # A change in any of the 16385 samples' 17 digits changes the digest.
    # Its DOP853 residual (bench/oracles.py) is 2.2e-13.
    target = files["dir"] / "golden_target.json"
    out = files["dir"] / "golden.json"
    write_json({"m": [0.34741380685381607, -1.1744375874465782,
                      0.817699772316434, 0.11416544582455293],
                "omega": -4.809293123751127, "component": "+"}, target)
    assert main(["synthesize", "--target", str(target), "--coeffs=0.05,-0.02",
                 "--steps", "16384", "-o", str(out)]) == 0
    data = out.read_bytes()
    assert len(data) == 424266
    assert hashlib.sha256(data).hexdigest() == (
        "6227dce51f84f8da98f06f61739d58434e8c025190977feb30f1a43f92e9d573")


# Digests of the spectrum CSVs at 4096 steps; a change in any record's 17
# digits changes them. The s values are within 6.4e-14, 5.1e-13 and 3.4e-13
# (Mathieu) and 5.2e-13, 1.7e-13 and 3.0e-14 (generic) of the references in
# bench/oracles.py.
@pytest.mark.parametrize("name, q0, qplus, size, digest", [
    pytest.param(
        "mathieu", Potential.trig_poly([2.0]), Potential.constant(1.0), 263,
        "1cff7b28f9c6c39ac3036a747d7b6ab1a741dac23804b8e232a4e82256a59672",
        id="mathieu"),
    pytest.param(
        "generic", Potential.trig_poly([1.0], [0.0, 0.0, 0.5]),
        Potential.trig_poly([0.2], constant_term=1.0), 266,
        "11e169b66baa494c400d854aaad270741ae79c8721429ede7aae16b601b5fcb7",
        id="generic"),
])
def test_spectrum_output_is_byte_stable(tmp_path, name, q0, qplus, size,
                                        digest):
    write_json(q0.to_dict(), tmp_path / "q0.json")
    write_json(qplus.to_dict(), tmp_path / "qplus.json")
    out = tmp_path / f"{name}.csv"
    assert main(["spectrum", "--q0", str(tmp_path / "q0.json"),
                 "--qplus", str(tmp_path / "qplus.json"), "--nmax", "2",
                 "--steps", "4096", "-o", str(out)]) == 0
    data = out.read_bytes()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


def test_synthesize_rejects_targets_off_image(files):
    ident = files["dir"] / "ident.json"
    write_json({"m": [1.0, 0.0, 0.0, 1.0], "omega": 0.0, "component": "+"},
               ident)
    assert main(["synthesize", "--target", str(ident)]) == 2


def test_synthesize_fiber_size_failures(files, capsys):
    # Twenty equal coefficients make the power-form perturbation cancel:
    # the sampled orbit misses its sweep, which is a numerical failure. A
    # count above the limit is refused before any basis is built; a basis
    # of 450 would take seconds and overflow to NaN with a numpy warning.
    target = files["dir"] / "fiber_target.json"
    write_json(element_to_dict(from_right_iwasawa(4.0, 1.3, 0.5)), target)
    argv = ["synthesize", "--target", str(target), "--coeffs"]
    assert main(argv + [",".join(["0.01"] * 20)]) == 3
    err = capsys.readouterr().err
    assert "with 20 perturbation coefficients" in err
    assert "orbit sweeps 6.283088795379131 instead of 2 pi" in err
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + [",".join(["0.01"] * 450)]) == 2
    assert not caught
    assert capsys.readouterr().err == (
        f"error: perturbation coefficient count 450 is not in "
        f"[0, {MAX_BASIS_SIZE}]\n")


def test_synthesize_refuses_a_sweep_without_a_root(files, capsys):
    # At right Iwasawa (5, 1e300, 0) the two end nodes, where the weight of
    # c is 0, alone sweep more than 2 pi, so no c exists. At (5, 1, 1e200)
    # every interior node underflows at c = 0, so the sweep has slope 0 in
    # c; that is refused before Newton's method divides by it.
    target = files["dir"] / "rootless_target.json"
    for triple, message in (
            ((5.0, 1e300, 0.0), "sweep normalization has no root: the end "
             "nodes alone sweep 4.069e+296 >= 2 pi"),
            ((5.0, 1.0, 1e200),
             "sweep normalization fails: slope 0 in c at c = 0")):
        write_json(element_to_dict(from_right_iwasawa(*triple)), target)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["synthesize", "--target", str(target)]) == 3
        assert not caught
        assert capsys.readouterr().err == f"invariant violation: {message}\n"


def test_plotdata_refusal_names_its_allowance(capsys):
    # At c = 1e4 and r near 44 the acosh/cosh round trip misses c by more
    # than 16 eps |c|; the refusal prints alpha as a plain float.
    assert main(["plotdata", "--levels", "1e4", "--rmax", "1000"]) == 3
    err = capsys.readouterr().err
    assert err == ("invariant violation: trace level identity violated by "
                   "5.275e-11 at alpha=4.7123889803846915, above its "
                   "allowance 3.553e-11\n")
    assert "np.float64" not in err


def test_synthesize_verify_gate_exits_3(files):
    target = str(files["dir"] / "target3.json")
    main(["monodromy", "--potential", files["trig"], "-o", target])
    assert main(["synthesize", "--target", target,
                 "--verify-tol", "1e-15"]) == 3


def _miss(element, target):
    """The synthesize residual: the largest entry or winding difference."""
    return max(float(np.abs(element.mat - target.mat).max()),
               abs(element.omega - target.omega))


@pytest.mark.parametrize("triple, coeffs", [
    pytest.param((0.3, 0.5, -2.0), None, id="stiff"),
    pytest.param((4.0, 1.3, 0.5), "0.05,-0.02", id="16384-steps"),
])
def test_synthesize_verifies_on_the_sample_grid(files, capsys, triple,
                                                coeffs):
    # The n + 1 written samples are the node and midpoint values of n / 2
    # steps, so the verify integrates them with nothing interpolated. It
    # prints that residual, and decides as a spline verify at n steps does.
    target = from_right_iwasawa(*triple)
    path, out = files["dir"] / "grid_target.json", files["dir"] / "grid.json"
    write_json(element_to_dict(target), path)
    argv = ["synthesize", "--target", str(path), "-o", str(out)]
    assert main(argv + ([f"--coeffs={coeffs}"] if coeffs else [])) == 0
    q = load_potential(out)
    n = q.samples.size - 1
    knot = _miss(monodromies(q.samples[None], n // 2)[0].element, target)
    spline = _miss(monodromy(q, n).element, target)
    assert capsys.readouterr().err == f"synthesis residual: {fmt_float(knot)}\n"
    assert knot <= 1e-9 and spline <= 1e-9
    assert (knot <= SYNTH_VERIFY_TOL) == (spline <= SYNTH_VERIFY_TOL)


def test_synthesize_at_odd_steps_verifies_through_the_spline(files, capsys):
    # 16384 samples are no grid of whole steps, so the spline supplies the
    # midpoints of 16383 steps.
    target = from_right_iwasawa(4.0, 1.3, 0.5)
    path, out = files["dir"] / "odd_target.json", files["dir"] / "odd.json"
    write_json(element_to_dict(target), path)
    assert main(["synthesize", "--target", str(path), "--coeffs=0.05,-0.02",
                 "--steps", "16383", "-o", str(out)]) == 0
    q = load_potential(out)
    assert q.samples.size == 16384
    residual = _miss(monodromy(q, 16383).element, target)
    assert capsys.readouterr().err == (
        f"synthesis residual: {fmt_float(residual)}\n")


def test_synthesize_verify_refuses_scaled_samples(files, capsys, monkeypatch):
    # Every sample 1e-6 too large moves the monodromy past SYNTH_VERIFY_TOL,
    # and the verify on the sample grid refuses the file.
    def scaled(*args):
        return Potential.sampled(potential_with_monodromy(*args).samples
                                 * (1.0 + 1e-6))

    monkeypatch.setattr(cli, "potential_with_monodromy", scaled)
    path = files["dir"] / "scaled_target.json"
    write_json(element_to_dict(from_right_iwasawa(4.0, 1.3, 0.5)), path)
    assert main(["synthesize", "--target", str(path),
                 "--coeffs=0.05,-0.02"]) == 3
    assert capsys.readouterr().err == (
        "invariant violation: synthesized potential misses the target by "
        "1.637e-06\n")


def test_spectrum_flat_csv(files):
    out = str(files["dir"] / "flat.csv")
    assert main(["spectrum", "--q0", files["q0"], "--qplus", files["qp1"],
                 "--nmax", "4", "-o", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "n,s,multiplicity,component,trace,theta_R"
    assert len(lines) == 6
    rows = [line.split(",") for line in lines[1:]]
    s = np.array([float(r[1]) for r in rows])
    np.testing.assert_allclose(s, [0.0, 1.0, 1.0, 4.0, 4.0], atol=1e-6)
    assert rows[0][3] == "hyperplane"
    assert rows[1][3] == "vertex(1)" and rows[3][3] == "vertex(2)"
    assert [r[2] for r in rows] == ["1", "2", "2", "2", "2"]


def test_spectrum_mathieu_split_pairs(files):
    out = str(files["dir"] / "mathieu.csv")
    assert main(["spectrum", "--q0", files["mathieu"], "--qplus",
                 files["qp1"], "--nmax", "4", "-o", out]) == 0
    rows = [line.split(",") for line in open(out).read().splitlines()[1:]]
    assert rows[1][3] == "cone_leaf(1-)" and rows[2][3] == "cone_leaf(1+)"
    assert rows[3][3] == "cone_leaf(2-)" and rows[4][3] == "cone_leaf(2+)"


def test_spectrum_negative_direction_exits_2(files):
    neg = files["dir"] / "neg.json"
    write_json(Potential.constant(-2.0).to_dict(), neg)
    assert main(["spectrum", "--q0", files["q0"], "--qplus", str(neg),
                 "--nmax", "2"]) == 2


def test_spectrum_that_cannot_move_along_its_line_exits_2(files, capsys):
    # The scan starts at s = 1e300, where s + 0.25 rounds back to s.
    far = files["dir"] / "far.json"
    write_json(Potential.constant(1e300).to_dict(), far)
    assert main(["spectrum", "--q0", str(far), "--qplus", files["qp1"],
                 "--nmax", "1"]) == 2
    err = capsys.readouterr().err
    assert "s = 1e+300 plus the step ds = 0.25 rounds back to s" in err


def test_spectrum_past_the_reachable_cones_exits_2(files, capsys):
    # Each of the 4096 steps turns the winding by less than pi/2, so no
    # scan reaches cone 2049; a huge count is refused before any sampling.
    for nmax in (str(10 ** 400), "2049"):
        assert main(["spectrum", "--q0", files["q0"], "--qplus", files["qp1"],
                     "--nmax", nmax]) == 2
        err = capsys.readouterr().err
        assert "n_max must be at most 2048 at 4096 steps" in err
        assert "Traceback" not in err


def test_boundary_separated_output(files):
    out = str(files["dir"] / "sep.json")
    half_pi = repr(math.pi / 2)
    assert main(["boundary", "separated", "--potential", files["qq"],
                 "--theta0", half_pi, "--theta2pi", half_pi,
                 "-o", out]) == 0
    data = read_json(out)
    assert data["has_solution"] is True
    assert data["index"] == 1
    assert abs(data["residual"]) < 1e-9


def test_boundary_general_output(files):
    out = str(files["dir"] / "gen.json")
    assert main(["boundary", "general", "--potential", files["qq"],
                 "--A=-1,0,0,-1", "-o", out]) == 0
    data = read_json(out)
    assert data["has_solution"] is True
    assert data["all_solutions"] is True
    assert data["beta_stratum"]["kind"] == "parabolic_vertex"
    antiperiodic_on_zero = str(files["dir"] / "gen0.json")
    assert main(["boundary", "general", "--potential", files["q0"],
                 "--A=-1,0,0,-1", "-o", antiperiodic_on_zero]) == 0
    assert read_json(antiperiodic_on_zero)["has_solution"] is False


def test_boundary_commands_integrate_once(files, monkeypatch):
    integ = importlib.import_module("hillmono.integrate")
    original = integ._propagate
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(integ, "_propagate", counted)
    half_pi = repr(math.pi / 2)
    for argv in (["general", "--A=-1,0,0,-1"],      # unimodular A
                 ["general", "--A=-2,0,0,-1"],
                 ["separated", "--theta0", half_pi, "--theta2pi", half_pi]):
        calls.clear()
        out = str(files["dir"] / "once.json")
        assert main(["boundary", *argv, "--potential", files["qq"],
                     "-o", out]) == 0
        assert read_json(out)["has_solution"] is True
        assert len(calls) == 1


def test_huge_monodromy_commands_exit_0(files, capsys):
    # Entries near 1e154: classify must not square them.
    q = str(files["dir"] / "q3200.json")
    write_json(Potential.constant(3200.0).to_dict(), q)
    assert main(["monodromy", "--potential", q]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["stratum"]["kind"] == "hyperbolic"
    assert data["stratum"]["component_index"] == 0
    assert main(["boundary", "general", "--potential", q, "--A=1,0,0,1"]) == 0


def test_huge_monodromy_targets_exit_3(files, capsys):
    # The monodromy of constant(3200) is valid output, but its right Iwasawa
    # coordinates and its curve's Wronskian check leave double precision.
    q = str(files["dir"] / "q3200.json")
    target = str(files["dir"] / "m3200.json")
    write_json(Potential.constant(3200.0).to_dict(), q)
    assert main(["monodromy", "--potential", q, "-o", target]) == 0
    capsys.readouterr()
    assert main(["synthesize", "--target", target]) == 3
    err = capsys.readouterr().err
    assert "right Iwasawa coordinates" in err and "overflow" in err
    assert "largest matrix entry is 6.503e+155" in err
    assert main(["kepler", "to-orbit", "--potential", q]) == 3
    err = capsys.readouterr().err
    assert "curve entries reach |v| = 1.150e+154 and |v'| = 6.503e+155" in err


@pytest.mark.filterwarnings("error")
def test_overflowing_constant_potential_exits_3(files, capsys):
    # Its transfer matrices leave double precision before the scan does.
    huge = str(files["dir"] / "huge.json")
    write_json(Potential.constant(1e300).to_dict(), huge)
    for argv in (["monodromy", "--potential", huge],
                 ["spectrum", "--q0", files["q0"], "--qplus", huge,
                  "--nmax", "1"]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "overflows; largest finite |entry|" in err


@pytest.mark.filterwarnings("error")
def test_overflowing_trig_samples_exit_2(files, capsys):
    out = str(files["dir"] / "huge_trig.json")
    assert main(["sample-potential", "--cos", "1e308,1e308", "--grid", "17",
                 "-o", out]) == 2
    assert "values must be finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_overflowing_orbit_sweep_exits_2(files, capsys):
    orbit = files["dir"] / "huge_orbit.json"
    write_json({"theta_max": 1e300, "rho": [1.0] * 17}, orbit)
    assert main(["kepler", "to-potential", "--orbit", str(orbit)]) == 2
    assert "instead of 2 pi" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("steps", [[], ["--steps", "16384"]],
                         ids=["auto steps", "given steps"])
def test_overflowing_synthesized_profile_exits_3(files, capsys, steps):
    target = files["dir"] / "overflow_target.json"
    write_json(element_to_dict(from_right_iwasawa(0.3, 0.5, -2.0)), target)
    assert main(["synthesize", "--target", str(target), "--coeffs",
                 ",".join(["0.01"] * 28)] + steps) == 3
    assert capsys.readouterr().err == (
        "invariant violation: the synthesized profile overflows double "
        "precision; use fewer or smaller coefficients\n")


@pytest.mark.filterwarnings("error")
def test_underflowing_synthesized_profile_exits_3(files, capsys):
    # The monodromy of 2 cos t lies in the image, but the profile that
    # synthesize builds for it dips to rho = exp(-1065), which is 0 in
    # double precision; the refusal names that, not a step count.
    q = str(files["dir"] / "cos2.json")
    target = str(files["dir"] / "cos2_target.json")
    assert main(["sample-potential", "--cos", "2", "-o", q]) == 0
    assert main(["monodromy", "--potential", q, "-o", target]) == 0
    capsys.readouterr()
    assert main(["synthesize", "--target", target]) == 3
    assert capsys.readouterr().err == (
        "invariant violation: the synthesized profile underflows double "
        "precision: its exponent E = log rho falls to -1065 at theta = "
        "2.891, so rho = exp(E) is 0 there\n")


def test_string_coefficients_exit_2(files, capsys):
    q = files["dir"] / "string_coeffs.json"
    for field in ("cos_coeffs", "sin_coeffs"):
        q.write_text(json.dumps({"kind": "trig_poly", field: "12"}))
        assert main(["monodromy", "--potential", str(q)]) == 2
        assert "not a string" in capsys.readouterr().err
    with pytest.raises(DomainError, match="not a string"):
        Potential.trig_poly("12")
    with pytest.raises(DomainError, match="not a string"):
        Potential.trig_poly(sin_coeffs=b"12")


def test_boundary_singular_matrix_exits_2(files):
    assert main(["boundary", "general", "--potential", files["q0"],
                 "--A=1,0,0,0"]) == 2


def test_steps_above_the_limit_exit_2(files):
    with pytest.raises(SystemExit) as info:
        main(["monodromy", "--potential", files["q0"], "--steps", str(10**12)])
    assert info.value.code == 2


def test_malformed_element_files_exit_2(files):
    bad = ['{"m": [1, 0, 0], "omega": 0}',
           '{"matrix": [[1, 0], [0]], "omega": 0}',
           '{"matrix": 5, "omega": 0}',
           '{"m": [1, 0, 0, 2], "omega": 0}',
           '{"m": ["a", 0, 0, 1], "omega": 0}',
           '{"m": [1, 0, 0, 1], "omega": NaN}',
           '{"m": [1, 0, 0, 1], "omega": Infinity}',
           '[1, 0, 0, 1]']
    path = files["dir"] / "element.json"
    for text in bad:
        path.write_text(text)
        assert main(["classify", "--element", str(path)]) == 2, text
        assert main(["synthesize", "--target", str(path)]) == 2, text
    # The flat form loads, as does the output of monodromy (next test).
    path.write_text(json.dumps(element_to_dict(
        monodromy(Potential.trig_poly([0.3], [0.0, 0.1])).element)))
    assert main(["classify", "--element", str(path)]) == 0


# Files that json refuses by an exception other than a decode error: bytes
# that are not UTF-8, an integer literal past Python's 4300-digit limit for
# int conversion, and nesting past the recursion limit.
_UNREADABLE = {
    "latin1.json": b'{"kind": "constant", "c": 1.0, "note": "caf\xe9"}',
    "digits.json": b'{"kind": "constant", "c": ' + b"1" * 5000 + b"}",
    "deep.json": b"[" * 100000 + b"]" * 100000,
}


@pytest.mark.parametrize("name", sorted(_UNREADABLE))
def test_unreadable_json_files_exit_2(files, capsys, name):
    bad = files["dir"] / name
    bad.write_bytes(_UNREADABLE[name])
    bad, q = str(bad), files["q0"]
    for argv in (["monodromy", "--potential", bad],
                 ["kepler", "to-orbit", "--potential", bad],
                 ["kepler", "to-potential", "--orbit", bad],
                 ["synthesize", "--target", bad],
                 ["spectrum", "--q0", bad, "--qplus", q, "--nmax", "1"],
                 ["spectrum", "--q0", q, "--qplus", bad, "--nmax", "1"],
                 ["boundary", "separated", "--potential", bad,
                  "--theta0", "0", "--theta2pi", "0"],
                 ["boundary", "general", "--potential", bad, "--A=1,0,0,1"],
                 ["classify", "--element", bad],
                 ["plotdata", "--curve-of", bad,
                  "-o", str(files["dir"] / "curve.csv")]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and bad in err, argv
        assert "Traceback" not in err and err.count("cannot read") == 1


def test_classify_command(files):
    target = str(files["dir"] / "ct.json")
    out = str(files["dir"] / "stratum.json")
    main(["monodromy", "--potential", files["trig"], "-o", target])
    assert main(["classify", "--element", target, "-o", out]) == 0
    data = read_json(out)
    assert data["kind"] == "elliptic"


def test_plotdata_trace_levels(files):
    out = str(files["dir"] / "levels.csv")
    assert main(["plotdata", "--levels", "2,3", "--alpha-samples", "201",
                 "-o", out]) == 0
    rows = [line.split(",") for line in open(out).read().splitlines()[1:]]
    vals = np.array([[float(x) for x in r] for r in rows])
    # The c = 2 branch passes through the origin of the chart.
    on_two = vals[vals[:, 0] == 2.0]
    origin = on_two[np.abs(on_two[:, 1]).argmin()]
    assert abs(origin[1]) < 1e-12 and abs(origin[2]) < 1e-12
    # Identity holds on every emitted point.
    err = np.abs(2.0 * np.cos(vals[:, 1]) * np.cosh(vals[:, 2]) - vals[:, 0])
    assert err.max() < 1e-12


def test_plotdata_zero_level_vertical_lines(files):
    out = str(files["dir"] / "zero.csv")
    assert main(["plotdata", "--levels", "0", "--alpha-min", "0",
                 "--alpha-max", str(TAU), "-o", out]) == 0
    rows = [line.split(",") for line in open(out).read().splitlines()[1:]]
    alphas = sorted({float(r[1]) for r in rows})
    np.testing.assert_allclose(alphas, [math.pi / 2, 3 * math.pi / 2],
                               atol=1e-12)


def test_plotdata_curve_output(files):
    out = str(files["dir"] / "curve.csv")
    assert main(["plotdata", "--curve-of", files["q0"], "--steps", "64",
                 "-o", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "t,v1,v2,v1p,v2p"
    first = [float(x) for x in lines[1].split(",")]
    assert first == [0.0, 1.0, 0.0, 0.0, 1.0]


def test_plotdata_curve_output_is_byte_stable(files):
    # Digest of the CSV written while every float went through CPython's
    # "%.17g": 16385 rows of 5 floats, enough to take the numpy kernel.
    out = files["dir"] / "pinned_curve.csv"
    assert main(["plotdata", "--curve-of", files["trig"], "--steps", "16384",
                 "-o", str(out)]) == 0
    data = out.read_bytes()
    assert len(data) == 1604223
    assert hashlib.sha256(data).hexdigest() == (
        "43a376102d7c433e13b7d9e5189c258885b8d06a4e2eae1c2971d2cf2a1a2f10")


# Digests of outputs with arrays shorter than 1024 values, written while
# such arrays went through a "%.17g" template instead of the numpy kernel.
def test_short_array_outputs_are_byte_stable(files):
    sampled = files["dir"] / "short_sampled.json"
    assert main(["sample-potential", "--cos", "0.5,0.25", "--sin", "0.1",
                 "--constant-term", "-1", "--grid", "33",
                 "-o", str(sampled)]) == 0
    q = files["dir"] / "cos_minus_two.json"
    write_json(Potential.trig_poly([1.0], constant_term=-2.0).to_dict(), q)
    orbit = files["dir"] / "short_orbit.json"
    assert main(["kepler", "to-orbit", "--potential", str(q), "--steps",
                 "2048", "--nodes", "257", "-o", str(orbit)]) == 0
    for path, size, digest in (
            (sampled, 856,
             "cf8cb59e5409111dc5e592416347eba0510f109d2b5b90a6ea2c128b8c4750f8"),
            (orbit, 13094,
             "e62cb9cd1c55a61a3912dc62b84c4fd0a19fd265e3e1d23926e90530d21496ad")):
        data = path.read_bytes()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest


def test_sample_potential_variants(files):
    out = str(files["dir"] / "sp.json")
    assert main(["sample-potential", "--cos", "0.5", "--sin", "0,0.25",
                 "-o", out]) == 0
    q = load_potential(out)
    assert abs(q(0.0) - 0.5) < 1e-12
    assert main(["sample-potential", "--constant", "-1", "--grid", "33",
                 "-o", out]) == 0
    assert read_json(out)["kind"] == "sampled"
    assert main(["sample-potential", "--constant", "-1", "-o", out]) == 0
    assert load_potential(out)(1.0) == -1.0
    assert main(["sample-potential", "--constant", "-1", "--cos", "1",
                 "-o", out]) == 2
    assert main(["sample-potential", "-o", out]) == 2


def test_outputs_are_deterministic(files):
    a = str(files["dir"] / "a.json")
    b = str(files["dir"] / "b.json")
    for out in (a, b):
        assert main(["monodromy", "--potential", files["mathieu"],
                     "-o", out]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_main_builds_its_parser_once(files):
    cli.build_parser.cache_clear()
    out = str(files["dir"] / "parser.json")
    for _ in range(3):
        assert main(["sample-potential", "--constant", "-1", "-o", out]) == 0
    assert cli.build_parser.cache_info().misses == 1


def test_cli_loads_no_scipy_for_a_monodromy(files):
    # scipy is imported inside the functions that use it, so a fresh
    # interpreter that imports the CLI and integrates a constant potential
    # never loads it.
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    out = str(files["dir"] / "fresh.json")
    code = ("import sys, hillmono.cli\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            f"assert hillmono.cli.main(['monodromy', '--potential', {files['qm1']!r},"
            f" '-o', {out!r}]) == 0\n"
            "loaded += [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "print(sorted(set(loaded)))\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
    assert read_json(out)["stratum"]["kind"] == "parabolic_vertex"


def test_cli_loads_no_scipy_for_a_spectrum(files):
    # The spectrum scan fits and solves with numpy alone. The flat line to
    # --nmax 6 holds three vertices, each solved from det(M - I) = 0.
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    out = str(files["dir"] / "fresh.csv")
    flat = str(files["dir"] / "flat.csv")
    code = ("import sys, hillmono.cli\n"
            f"assert hillmono.cli.main(['spectrum', '--q0', {files['mathieu']!r},"
            f" '--qplus', {files['qp1']!r}, '--nmax', '2', '-o', {out!r}]) == 0\n"
            f"assert hillmono.cli.main(['spectrum', '--q0', {files['q0']!r},"
            f" '--qplus', {files['qp1']!r}, '--nmax', '6', '-o', {flat!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
    rows = [line.split(",") for line in open(out).read().splitlines()[1:]]
    assert [r[3] for r in rows] == ["hyperplane", "cone_leaf(1-)",
                                    "cone_leaf(1+)"]
    rows = [line.split(",") for line in open(flat).read().splitlines()[1:]]
    assert [r[3] for r in rows] == ["hyperplane"] + [
        f"vertex({k})" for k in (1, 1, 2, 2, 3, 3)]


def test_parser_survives_a_rejected_argv(files):
    out = str(files["dir"] / "after.json")
    with pytest.raises(SystemExit) as info:
        main(["monodromy", "--steps", "8", "--potential", files["q0"]])
    assert info.value.code == 2
    assert main(["monodromy", "--potential", files["q0"], "-o", out]) == 0
    assert read_json(out)["stratum"]["kind"] == "parabolic_leaf_plus"


def test_options_do_not_leak_between_calls(files, capsys):
    # q = 0 at 64 steps differs from the default in its trailing digits.
    argv = ["monodromy", "--potential", files["q0"]]
    assert main(argv) == 0
    before = capsys.readouterr().out
    assert main([*argv, "--steps", "64"]) == 0
    assert capsys.readouterr().out != before
    assert main(argv) == 0
    assert capsys.readouterr().out == before


@pytest.mark.parametrize("argv, message", [
    (["kepler", "to-orbit", "--nodes", "-3"], "nodes must lie in [0, 4194305]"),
    (["kepler", "to-orbit", "--nodes", str(10**12)], "nodes must lie in"),
    (["plotdata", "--levels=1", "--alpha-samples", "-1"],
     "--alpha-samples must lie in [0, 4194305]"),
    (["plotdata", "--levels=1", "--alpha-samples", str(10**12)],
     "--alpha-samples must lie in"),
    (["plotdata", "--levels=1,0", "--rmax", "-1"], "--rmax must be finite"),
    (["plotdata", "--levels=1,0", "--rmax", "nan"], "--rmax must be finite"),
    (["plotdata", "--levels=1,0", "--rmax", "inf"], "--rmax must be finite"),
])
def test_bad_counts_and_radii_exit_2(files, capsys, argv, message):
    if argv[0] == "kepler":
        argv = [*argv, "--potential", files["qm1"]]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_huge_counts_are_refused_before_allocation(files):
    curve = curve_of(load_potential(files["qm1"]), 1024)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=r"^nodes must lie in \[0, "):
            orbit_of(curve, 10**12)
        assert main(["plotdata", "--levels=1",
                     "--alpha-samples", str(10**12)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_plotdata_zero_radius_still_works(files, capsys):
    assert main(["plotdata", "--levels=0", "--alpha-min", "0",
                 "--alpha-max", "3", "--rmax", "0"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 101
    assert {row.split(",")[2] for row in rows} == {"0"}


def test_plotdata_radius_past_the_cosh_range_still_works(files):
    # cosh overflows above r = 710.5; no level row reaches r = 700, so the
    # rows at r = 1000 are those at r = 700.
    written = {}
    for rmax in ("700", "1000"):
        out = files["dir"] / f"levels{rmax}.csv"
        assert main(["plotdata", "--levels", "3,-5", "--rmax", rmax,
                     "-o", str(out)]) == 0
        written[rmax] = out.read_bytes()
    assert written["1000"] == written["700"]


@pytest.mark.parametrize("argv", [
    ["monodromy", "--potential", "{qm1}"],
    ["plotdata", "--curve-of", "{qm1}", "--steps", "256"],
])
def test_unwritable_output_exits_2(files, capsys, argv):
    out = str(files["dir"] / "missing-dir" / "out")
    argv = [arg.format(**files) for arg in argv]
    assert main([*argv, "-o", out]) == 2
    assert capsys.readouterr().err == \
        f"error: cannot write {out}: No such file or directory\n"


def test_boundary_general_overflowing_matrix_exits_2(files, capsys):
    assert main(["boundary", "general", "--potential", files["qm1"],
                 "--A=1e308,1e308,1e308,1e308", "--steps", "256"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: boundary matrix [[1e+308, 1e+308], ")
    assert "determinant that overflows" in err


@pytest.mark.parametrize("argv, message", [
    (["--levels", "nan"], "--levels must be finite"),
    (["--levels", "inf"], "--levels must be finite"),
    (["--levels=1,-inf"], "--levels must be finite"),
    (["--levels=1", "--alpha-min", "nan"], "--alpha-min and --alpha-max"),
    (["--levels=1", "--alpha-max=-inf"], "--alpha-min and --alpha-max"),
])
def test_plotdata_refuses_non_finite_bounds(capsys, argv, message):
    assert main(["plotdata", *argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


# Finite bounds whose difference overflows, and a zero level whose vertical
# lines would need more rows than the longest integration has nodes, exit 2
# before any row is built, with no numpy warning.
@pytest.mark.parametrize("argv, message", [
    (["--levels", "3", "--alpha-min=-1e308", "--alpha-max", "1e308"],
     "--alpha-max - --alpha-min overflows double precision"),
    (["--levels", "0", "--alpha-min=-1e308", "--alpha-max", "1e308"],
     "--alpha-max - --alpha-min overflows double precision"),
    (["--levels", "0", "--alpha-min=-1e5", "--alpha-max", "1e5"],
     "--levels 0 asks for 101 rows on each line alpha = pi/2 + k pi between "
     "--alpha-min and --alpha-max, over 4194305 in all"),
    (["--levels", "2,0", "--alpha-min=-8e307", "--alpha-max", "8e307"],
     "--levels 0 asks for 101 rows on each line"),
])
def test_plotdata_refuses_unbounded_alpha_ranges(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["plotdata", *argv, "--alpha-samples", "5"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_sample_potential_grid_is_checked_before_allocation(capsys):
    tracemalloc.start()
    try:
        assert main(["sample-potential", "--cos", "1",
                     "--grid", str(10**11)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert "--grid must lie in [0, 4194305]" in capsys.readouterr().err
    assert main(["sample-potential", "--cos", "1", "--grid", "-1"]) == 2
    assert main(["sample-potential", "--cos", "1", "--grid", "17"]) == 0
    assert len(json.loads(capsys.readouterr().out)["samples"]) == 17


# Digests of the bytes written while the swept-time inversion ran every
# Newton sweep on every point and evaluated the exponent polynomials with
# numpy's Polynomial; a change in any sample's 17 digits changes them.
def test_stiff_synthesize_output_is_byte_stable(files):
    # The right Iwasawa target (0.3, 0.5, -2), for which auto_steps picks
    # 131072 steps. Its DOP853 residual (bench/oracles.py) is 2.2e-10.
    target = files["dir"] / "stiff_target.json"
    out = files["dir"] / "stiff.json"
    write_json({"m": [0.6755249097756645, 0.20896434210788314,
                      -1.7689785037670949, 0.9331211353355625],
                "omega": -0.22030650989861766, "component": "+"}, target)
    assert main(["synthesize", "--target", str(target), "-o", str(out)]) == 0
    data = out.read_bytes()
    assert len(data) == 3396553
    assert hashlib.sha256(data).hexdigest() == (
        "2a385feeff80521916db310acb4d7afa15cb13c4bb8effa2a0edf437961ab7d3")


def test_kepler_round_trip_output_is_byte_stable(files):
    orbit = files["dir"] / "pinned_orbit.json"
    back = files["dir"] / "pinned_back.json"
    assert main(["kepler", "to-orbit", "--potential", files["trig"],
                 "--steps", "4096", "-o", str(orbit)]) == 0
    assert main(["kepler", "to-potential", "--orbit", str(orbit),
                 "--steps", "4096", "-o", str(back)]) == 0
    for path, size, digest in (
            (orbit, 197913,
             "7328b99400dd2ef92f837afae920b730b6dc815ad7a9c3a98128e26ca01f9294"),
            (back, 105460,
             "6c080623edd1224257286201ff0b95b2594ccf2b0ddf3f96ee9c8aec669e0b2f")):
        data = path.read_bytes()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest
