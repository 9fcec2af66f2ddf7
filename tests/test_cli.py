"""Command line interface: outputs, formats, and exit codes."""

import hashlib
import importlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from hillmono import (DomainError, Potential, cli, curve_of, element_to_dict,
                      load_potential, monodromy, orbit_of, read_json,
                      write_json)
from hillmono.cli import main
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
    # Digest of the bytes written before float lists were formatted in one
    # call; a change in any of the 16385 samples' 17 digits changes it.
    target = files["dir"] / "golden_target.json"
    out = files["dir"] / "golden.json"
    write_json({"m": [0.34741380685381607, -1.1744375874465782,
                      0.817699772316434, 0.11416544582455293],
                "omega": -4.809293123751127, "component": "+"}, target)
    assert main(["synthesize", "--target", str(target), "--coeffs=0.05,-0.02",
                 "--steps", "16384", "-o", str(out)]) == 0
    data = out.read_bytes()
    assert len(data) == 424251
    assert hashlib.sha256(data).hexdigest() == (
        "1fc157a009234136a9f7fdcd0907202a51ec78b8ec0b4f042ccbf086130815fe")


# Digests of the CSVs written while every monodromy call of the scan
# sampled q0 and qplus afresh; a change in any record's 17 digits changes
# them.
@pytest.mark.parametrize("name, q0, qplus, size, digest", [
    ("mathieu", Potential.trig_poly([2.0]), Potential.constant(1.0), 265,
     "2d9e32b2e3f88b8cecc33a14c9877306c19a1e23f898f9da1662122e1d729181"),
    ("generic", Potential.trig_poly([1.0], [0.0, 0.0, 0.5]),
     Potential.trig_poly([0.2], constant_term=1.0), 266,
     "3779aae5363bf9e46ae0d3927f898bf045b8b696d3129d81242589b5712a2f57"),
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


def test_synthesize_verify_gate_exits_3(files):
    target = str(files["dir"] / "target3.json")
    main(["monodromy", "--potential", files["trig"], "-o", target])
    assert main(["synthesize", "--target", target,
                 "--verify-tol", "1e-15"]) == 3


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
