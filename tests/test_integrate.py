"""Fundamental path integration and the lifted monodromy map."""

import importlib
import math
import re
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hillmono import (
    CoverElement,
    DomainError,
    NumericalInvariantError,
    Potential,
    arg_variation,
    classify,
    integrate,
    monodromy,
    read_json,
    solution_winding,
    to_right_iwasawa,
    write_json,
)
from hillmono.cli import main
from hillmono.cover import _arg_change
from hillmono.integrate import (DEFAULT_STEPS, MIN_STEPS, STEP_ANGLE_LIMIT,
                                _blocked_scan, _one, _propagate, _scan_size,
                                _transfer, _Workspace, monodromies,
                                sample_times)
from oracles import blocked_scan, row_turns

TAU = math.tau


def _transfer_of(qq, h):
    """_transfer of the samples qq, at node and midpoint times, into new
    buffers, as a batch of one; returns its (4, n) entries."""
    n = qq.size // 2
    qq = qq[None]
    return _transfer(qq[:, 0:-1:2], qq[:, 1::2], qq[:, 2::2], h,
                     np.empty((1, 4, n)), np.empty((2, 1, n)))[0]


def _scan(t):
    """_blocked_scan of the (4, n) entries t, as a batch of one, into new
    buffers."""
    return _blocked_scan(t[None], np.empty((1, *t.shape)),
                         np.empty(_scan_size(t.shape[1])))[0]


def test_constant_minus_one_is_central():
    element, theta_r = monodromy(Potential.constant(-1.0))
    assert np.abs(element.mat - np.eye(2)).max() < 1e-8
    assert abs(element.omega + TAU) < 1e-6
    assert abs(theta_r - TAU) < 1e-6
    s = classify(element)
    assert s.kind == "parabolic_vertex" and s.component_index == 2


def test_constant_zero_shear():
    element, theta_r = monodromy(Potential.constant(0.0))
    want = np.array([[1.0, TAU], [0.0, 1.0]])
    assert np.abs(element.mat - want).max() < 1e-8
    assert abs(theta_r - math.atan(TAU)) < 1e-6
    assert classify(element).kind == "parabolic_leaf_plus"
    assert classify(element).component_index == 0


def test_constant_plus_one_hyperbolic_trace():
    element, _ = monodromy(Potential.constant(1.0))
    want = 2.0 * math.cosh(TAU)
    assert abs(element.trace - want) < 1e-6 * want
    assert classify(element).kind == "hyperbolic"


def test_constant_quarter_is_iota():
    element, _ = monodromy(Potential.constant(-0.25))
    assert np.abs(element.mat + np.eye(2)).max() < 1e-8
    assert abs(element.omega + math.pi) < 1e-6


def test_larger_oscillator_winding():
    # q = -k^2/4 has solutions cos(k t / 2); the monodromy is iota^k.
    for k in (3, 4):
        element, _ = monodromy(Potential.constant(-k * k / 4.0))
        assert abs(element.omega + k * math.pi) < 1e-6


def test_path_structure():
    path = integrate(Potential.constant(-1.0), steps=2048)
    assert path.mats.shape == (2049, 2, 2)
    np.testing.assert_array_equal(path.mats[0], np.eye(2))
    # Mid-period value of the rotation solution.
    mid = path.mats[1024]
    want = np.array([[math.cos(math.pi), math.sin(math.pi)],
                     [-math.sin(math.pi), math.cos(math.pi)]])
    assert np.abs(mid - want).max() < 1e-9
    assert path.theta[0] == 0.0 and path.omega[0] == 0.0
    assert np.all(np.diff(path.theta) > 0)
    for arr in (path.t, path.mats, path.theta, path.omega):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_rk4_convergence_on_mathieu():
    q = Potential.trig_poly([2.0])
    coarse = monodromy(q, steps=2048)
    fine = monodromy(q, steps=16384)
    dev = np.abs(coarse.element.mat - fine.element.mat).max()
    assert dev < 1e-9
    assert abs(coarse.theta_r - fine.theta_r) < 1e-9


def test_integrate_accepts_plain_callables():
    path = integrate(lambda t: np.cos(t) - 0.5, steps=1024)
    q = Potential.trig_poly([1.0], constant_term=-0.5)
    ref = integrate(q, steps=1024)
    np.testing.assert_allclose(path.mats[-1], ref.mats[-1], atol=1e-12)


def test_monodromy_image_invariant():
    rng = np.random.default_rng(42)
    for _ in range(25):
        q = Potential.trig_poly(rng.normal(0.0, 0.6, size=3),
                                rng.normal(0.0, 0.6, size=3),
                                constant_term=rng.normal(0.0, 0.8))
        element, theta_r = monodromy(q)
        assert element.omega < 0.0
        assert theta_r > 0.0
        # theta_R, read off the lift, is the unwrapped first-row argument.
        mats = integrate(q).mats
        row = np.unwrap(np.arctan2(mats[:, 0, 1], mats[:, 0, 0]))
        assert abs(row[-1] - theta_r) < 1e-12


def test_wronskian_drift_is_refused():
    with pytest.raises(NumericalInvariantError,
                       match=r"^Wronskian drift 5\.240e-06; increase steps$"):
        monodromy(Potential.constant(-60.0), 512)


def test_wronskian_drift_is_refused_where_the_determinant_overflows(
        monkeypatch):
    # constant(1e4) reaches |entry| = 3.8e274 at 16384 steps, and |entry|^2
    # overflows at 7232 of its nodes; the gate scales each node as
    # CoverElement does, so a drift planted at the largest node still shows.
    integ = importlib.import_module("hillmono.integrate")
    q = Potential.constant(1e4)
    integrate(q, 16384)  # passes without the planted drift

    def planted(*args, original=integ._propagate):
        t, nodes = original(*args)
        nodes[0, 0, -1] *= 1.0 + 1e-9
        return t, nodes

    monkeypatch.setattr(integ, "_propagate", planted)
    with pytest.raises(NumericalInvariantError,
                       match=r"Wronskian drift \d\.\d{3}e-\d\d \* 4\*\*912;"):
        integrate(q, 16384)


def _spy_scaled_wronskian(monkeypatch):
    """Record the node arrays that reach the scaled Wronskian test."""
    integ = importlib.import_module("hillmono.integrate")
    seen = []

    def spied(nodes, ws, original=integ._scaled_wronskian):
        seen.append(nodes.shape)
        return original(nodes, ws)

    monkeypatch.setattr(integ, "_scaled_wronskian", spied)
    return seen


def _nodes_with(*node):
    """Node entries of a batch of one, (1, 4, 17): identity matrices, then
    the given entries."""
    nodes = np.tile(np.array([[1.0], [0.0], [0.0], [1.0]]), 17)
    nodes[:, -1] = node
    return nodes[None]


def test_unit_determinants_take_the_fast_accept(monkeypatch):
    seen = _spy_scaled_wronskian(monkeypatch)
    q = Potential.trig_poly([1.0, 0.5], [0.3], constant_term=-2.0)
    monodromy(q, 4096)
    integrate(q, 1000)
    monodromies(np.array([q(sample_times(4096)) - s for s in (0.0, 1.0)]),
                4096)
    assert seen == []


def test_rounding_of_large_entries_is_accepted_by_the_scaled_test(
        monkeypatch):
    # With entries near 2^22, ad - bc - 1 is 2^-8 here, one rounding unit
    # of ad: outside the fast accept's 1e-6, inside the allowance
    # 16 eps |Phi|^2 = 2^-4.
    integ = importlib.import_module("hillmono.integrate")
    seen = _spy_scaled_wronskian(monkeypatch)
    a, b = 2.0 ** 22, 2.0 ** 22
    c, d = 2.0 ** 22 - 2.0 ** -22, 2.0 ** 22 + 2.0 ** -30
    assert a * d - b * c - 1.0 == 2.0 ** -8
    integ._check_wronskian(_nodes_with(a, b, c, d), _Workspace(16))
    assert seen == [(1, 4, 17)]


def test_small_drift_is_refused_by_the_scaled_test(monkeypatch):
    # |entries| near 1 allow only 1e-6; 5e-6 is refused, alone or as the
    # second member of a batch.
    integ = importlib.import_module("hillmono.integrate")
    seen = _spy_scaled_wronskian(monkeypatch)
    drifted = _nodes_with(1.0, 0.0, 0.0, 1.0 + 5e-6)
    for nodes in (drifted, np.concatenate([_nodes_with(1, 0, 0, 1), drifted])):
        with pytest.raises(NumericalInvariantError,
                           match=r"^Wronskian drift 5\.000e-06; increase steps$"):
            integ._check_wronskian(nodes, _Workspace(16, 2))
    assert seen == [(1, 4, 17), (2, 4, 17)]


def test_squared_overflow_goes_to_the_scaled_test_without_warnings(
        monkeypatch):
    # Past 1.3e154 the fast accept's products overflow, silently; the
    # scaled test accepts the run and words a planted drift as before.
    integ = importlib.import_module("hillmono.integrate")
    q = Potential.constant(1e4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seen = _spy_scaled_wronskian(monkeypatch)
        assert abs(integrate(q, 16384).mats).max() > 1e270
        assert len(seen) == 1
        nodes = _nodes_with(1e200, 1e200, 1e200, 1e200 * (1.0 + 1e-9))
        with pytest.raises(NumericalInvariantError,
                           match=r"^Wronskian drift \d\.\d{3}e-\d\d \* 4\*\*664;"):
            integ._check_wronskian(nodes, _Workspace(16))


def test_solution_winding_closed_forms():
    # q = -k^2/4 from the vertical direction: u = (2/k) sin(k t / 2),
    # a clockwise arc of k pi in the phase plane.
    for k in (1, 2, 3):
        w = solution_winding(Potential.constant(-k * k / 4.0), math.pi / 2)
        assert abs(w + k * math.pi) < 1e-9
    # q = 0 from the horizontal direction: u constant 1, no winding.
    assert abs(solution_winding(Potential.constant(0.0), 0.0)) < 1e-12


def test_step_validation():
    with pytest.raises(DomainError):
        integrate(Potential.constant(0.0), steps=8)
    with pytest.raises(DomainError):
        solution_winding(Potential.constant(0.0), 0.0, steps=2)
    # Above MAX_STEPS the count is refused before anything is allocated.
    with pytest.raises(DomainError, match="4194304"):
        integrate(Potential.constant(0.0), steps=10**12)
    with pytest.raises(DomainError, match="4194304"):
        solution_winding(Potential.constant(0.0), 0.0, steps=10**12)


def _rk4_loop(q, steps):
    """Classical RK4 on Phi' = [[0, 1], [q, 0]] Phi, one step at a time in
    Python floats, on the node and midpoint samples of q."""
    h = TAU / steps
    qq = q(np.linspace(0.0, TAU, 2 * steps + 1)).tolist()

    def rate(y, qt):
        a, b, c, d = y
        return (c, d, qt * a, qt * b)

    def shifted(y, k, dt):
        return tuple(v + dt * r for v, r in zip(y, k))

    y = (1.0, 0.0, 0.0, 1.0)
    path = [y]
    for i in range(steps):
        qa, qb, qd = qq[2 * i], qq[2 * i + 1], qq[2 * i + 2]
        k1 = rate(y, qa)
        k2 = rate(shifted(y, k1, 0.5 * h), qb)
        k3 = rate(shifted(y, k2, 0.5 * h), qb)
        k4 = rate(shifted(y, k3, h), qd)
        y = tuple(v + h / 6.0 * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
                  for v, r1, r2, r3, r4 in zip(y, k1, k2, k3, k4))
        path.append(y)
    return np.array(path)


_coef = st.floats(-0.5, 0.5)


# None of the step counts is a multiple of the scan's block length.
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.lists(_coef, max_size=3), st.lists(_coef, max_size=3), _coef,
       st.sampled_from([16, 17, 33, 1000, 4097]))
def test_kernel_matches_stepwise_rk4(cos, sin, const, steps):
    # Shrink the potential at coarse steps so the Wronskian gate holds.
    scale = min(1.0, (steps / 128) ** 2)
    q = Potential.trig_poly([scale * v for v in cos], [scale * v for v in sin],
                            constant_term=scale * const)
    path = integrate(q, steps)
    ref = _rk4_loop(q, steps)
    assert np.abs(path.mats.reshape(-1, 4) - ref).max() <= 1e-12 * np.abs(ref).max()
    # The windings are the unwrapped arguments of the first row and the
    # second column of the node matrices.
    theta = np.unwrap(np.arctan2(ref[:, 1], ref[:, 0]))
    omega = np.unwrap(np.arctan2(ref[:, 3], ref[:, 1]))
    assert np.abs(path.theta - (theta - theta[0])).max() <= 1e-12
    assert np.abs(path.omega - (omega - omega[0])).max() <= 1e-12


def test_solution_winding_matches_path_omega():
    q = Potential.trig_poly([1.0, 0.5], [0.3], constant_term=-2.0)
    assert abs(solution_winding(q, math.pi / 2) - integrate(q).omega[-1]) < 1e-12


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.lists(_coef, max_size=3), st.lists(_coef, max_size=3), _coef,
       st.floats(0.0, math.pi), st.sampled_from([256, 1000, 4096]))
def test_solution_winding_is_read_off_the_lift(cos, sin, const, phi, steps):
    # The cover is simply connected, so the lift alone fixes the winding of
    # every solution: the per-step sum must equal the closed form.
    q = Potential.trig_poly(cos, sin, constant_term=const)
    mu = monodromy(q, steps).element
    u0 = (math.cos(phi), math.sin(phi))
    assert abs(arg_variation(mu, u0) - solution_winding(q, phi, steps)) <= 1e-12


# solution_winding reads its value off the endpoint that integrate returns,
# through the closed form of arg_variation; the bits agree at one block and
# on either side of it, and where BLOCK (32) divides neither 1000 nor 4097.
@pytest.mark.parametrize("steps", [16, 33, 1000, 4097])
def test_solution_winding_is_the_closed_form_of_the_path_endpoint(steps):
    q = _mild(steps)
    path = integrate(q, steps)
    (a, b), (c, d) = path.mats[-1].tolist()
    for phi in (0.0, 0.3, math.pi / 2, 2.5, -1.0):
        c0, s0 = math.cos(phi), math.sin(phi)
        want = _arg_change((c0, s0), (a * c0 + b * s0, c * c0 + d * s0),
                           float(path.omega[-1]))
        got = solution_winding(q, phi, steps)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_solution_winding_passes_the_wronskian_gate_of_integrate():
    # constant(700) at 1000 steps drifts past the Wronskian allowance;
    # solution_winding refuses it as integrate does.
    q = Potential.constant(700.0)
    for run in (integrate, lambda q, steps: solution_winding(q, 0.0, steps)):
        with pytest.raises(NumericalInvariantError,
                           match=r"^Wronskian drift 1\.265e-05; "
                                 r"increase steps$"):
            run(q, 1000)


def test_overflow_is_named_without_warnings(tmp_path):
    # For q = 1e4 the largest entry, sqrt(q) sinh(2 pi sqrt(q)), is finite
    # but its square is not. Neither winding squares an entry, so the lift
    # and its right angle keep their closed forms: the second column turns
    # clockwise from (0, 1) to (sinh / k, cosh), and the first row
    # counterclockwise from (1, 0) to (cosh, sinh / k). For q = 2e4 the
    # entries themselves overflow.
    k = 100.0
    ch, sh = math.cosh(TAU * k), math.sinh(TAU * k)
    want = np.array([[ch, sh / k], [k * sh, ch]])
    angle = math.atan(math.tanh(TAU * k) / k)
    q = Potential.constant(k * k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        element, theta_r = monodromy(q)
        assert np.abs(element.mat / want - 1.0).max() <= 1e-4
        assert abs(element.omega + angle) <= 1e-12
        assert abs(theta_r - angle) <= 1e-12
        assert classify(element).kind == "hyperbolic"
        write_json(q.to_dict(), tmp_path / "q.json")
        assert main(["monodromy", "--potential", str(tmp_path / "q.json"),
                     "-o", str(tmp_path / "mono.json")]) == 0
        assert read_json(tmp_path / "mono.json")["stratum"]["kind"] == "hyperbolic"
        # Column directions need no squared entries: (cosh, k sinh) from e1.
        winding = math.atan(k * math.tanh(TAU * k))
        assert abs(solution_winding(q, 0.0) - winding) < 1e-12
        for run in (monodromy, lambda q: solution_winding(q, 0.0)):
            with pytest.raises(NumericalInvariantError,
                               match=r"overflows; largest finite \|entry\|"):
                run(Potential.constant(2e4))


def test_error_messages_print_plain_floats():
    # 4096 steps are too few for q = -400; the cover element's determinant
    # gate rejects the result.
    with pytest.raises(NumericalInvariantError, match="determinant") as info:
        monodromy(Potential.constant(-400.0), 4096)
    assert "np.float64" not in str(info.value)


def test_endpoint_check_asks_for_more_steps():
    # The Wronskian allowance of integrate passes at 16384 steps, but the
    # cover element's determinant gate does not; twice the steps pass.
    q = Potential.constant(-2500.0)
    with pytest.raises(NumericalInvariantError,
                       match=r"determinant .*; increase steps$"):
        monodromy(q, 16384)
    monodromy(q, 32768)


def test_vanishing_vectors_are_named_without_warnings():
    # At 128 steps each Runge-Kutta step of q = -2500 has det T near 0.25,
    # so from node 65 on some columns and solution vectors round to exactly
    # zero. No angle is taken of them: no division by zero and no nan.
    q = Potential.constant(-2500.0)
    for run in (lambda: monodromy(q, 128),
                lambda: solution_winding(q, 0.0, 128),
                lambda: solution_winding(q, 1.0, 128)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalInvariantError,
                               match=r"second column or a solution vector is "
                                     r"zero at node 65 of 128: .*; increase "
                                     r"steps$") as info:
                run()
        assert not re.search(r"\bnan\b", str(info.value))


def test_windings_are_exact_at_coarse_steps():
    # The quadrature of the angle rates used to break the congruence gate
    # here; the arguments read off the matrices agree across step counts.
    coarse = monodromy(Potential.constant(-60.1875), 4096)
    fine = monodromy(Potential.constant(-60.1875), 16384)
    assert abs(coarse.element.omega - fine.element.omega) < 1e-6
    assert abs(coarse.theta_r - fine.theta_r) < 1e-6
    assert np.abs(coarse.element.mat - fine.element.mat).max() < 1e-6


def test_step_angle_gate():
    # Near u' = 0 the column (u, u') of q = -2500 turns at up to 2500 rad
    # per unit time, far beyond pi/2 per step at 160 steps; the gate names
    # the angle and the limit. It gives no step count: the first row turns
    # at W / |v|^2, which no bound on |q| limits.
    q = Potential.constant(-2500.0)
    for run in (lambda: integrate(q, 160), lambda: solution_winding(q, 0.0, 160)):
        with pytest.raises(NumericalInvariantError,
                           match=r"angle change .* not below 1\.571e\+00; "
                                 r"increase steps$"):
            run()
    # At 16384 steps u = cos(50 t) winds 50 turns clockwise, up to the
    # Runge-Kutta phase error.
    assert abs(solution_winding(q, 0.0, 16384) + 50.0 * TAU) < 1e-4


# Lengths on either side of one block (32); 8, 9 and 10 blocks (256, 257
# and 288 steps) around the switch from Python floats to numpy at
# FLOAT_LANES = 9 blocks, and 11, 12 and 13 blocks (352, 353, 384 and 416
# steps) past it; 31 | 32 blocks (992 | 993 steps); 8224 and 8225 steps,
# whose 256 and 257 block totals are scanned in floats and in numpy under a
# numpy level, and likewise 11296 and 11297 steps with 352 and 353 totals;
# and 262144 steps, where the copy into the round-major layout runs in
# several tiles.
@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 256, 257, 288, 352, 353,
                               384, 416, 992, 993, 1023, 1024, 1025, 4096,
                               8224, 8225, 11296, 11297, 16385, 31745, 32769,
                               262144])
def test_blocked_scan_matches_reference_bits(n):
    rng = np.random.default_rng(n)
    for scale in (0.01, 1.0, 100.0):
        q = scale * rng.standard_normal(2 * n + 1)
        t = _transfer_of(q, TAU / max(n, MIN_STEPS))
        want = blocked_scan(t).tobytes()
        assert _scan(t).tobytes() == want
        # Into buffers that held other values before.
        out = np.full((1, 4, n), np.nan)
        scratch = np.full(_scan_size(n), np.nan)
        assert _blocked_scan(t[None], out, scratch) is out
        assert out.tobytes() == want


# Batches of k members: each member's bits are the reference's for that
# member alone. The lengths end in a partial block (BLOCK + 1, 13 BLOCK + 5
# and 4099 steps) or make k times 2 or 3 blocks, which crosses the
# FLOAT_LANES = 9 switch as k grows.
@pytest.mark.parametrize("n", [33, 64, 96, 421, 4099])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_batched_blocked_scan_matches_reference_bits(n, k):
    rng = np.random.default_rng(10 * n + k)
    t = np.stack([_transfer_of(rng.standard_normal(2 * n + 1),
                               TAU / max(n, MIN_STEPS)) for _ in range(k)])
    out = np.full((k, 4, n), np.nan)
    assert _blocked_scan(t, out, np.full(k * _scan_size(n), np.nan)) is out
    for member, got in zip(t, out):
        assert got.tobytes() == blocked_scan(member).tobytes()


def test_blocked_scan_matches_reference_past_overflow():
    # Steps of 1e200 overflow the products to inf and then to nan. A nan
    # made from two nans takes the sign bit of whichever operand the
    # hardware picks, so nans are compared as nans, other entries by value.
    rng = np.random.default_rng(7)
    for n in (20, 700, 40000):
        t = 1e200 * rng.standard_normal((4, n))
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _scan(t), blocked_scan(t)
        assert np.array_equal(got, want, equal_nan=True)
        assert not np.isfinite(got[:, -1]).any()


def _scan_peak(scan, t):
    tracemalloc.start()
    try:
        scan(t)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_blocked_scan_peak_memory_is_no_higher_than_reference():
    rng = np.random.default_rng(17)
    n = 2 ** 17
    q = rng.standard_normal(2 * n + 1)
    t = _transfer_of(q, TAU / n)
    assert _scan_peak(_scan, t) <= _scan_peak(blocked_scan, t)


# One block; fewer than FLOAT_LANES blocks, a whole and a partial last
# block; more blocks, whole and partial, the last over a level of 992 totals.
@pytest.mark.parametrize("n", [20, 32, 500, 512, 1024, 4097, 31745])
def test_blocked_scan_leaves_its_input_unchanged(n):
    rng = np.random.default_rng(n)
    t = _transfer(*rng.standard_normal((3, 1, n)), TAU / max(n, MIN_STEPS),
                  np.empty((1, 4, n)), np.empty((2, 1, n)))[0]
    before = t.tobytes()
    _scan(t)
    assert t.tobytes() == before


def test_windings_read_the_transfer_matrices_that_were_scanned(monkeypatch):
    integ = importlib.import_module("hillmono.integrate")
    q = Potential.trig_poly([1.0, 0.5], [0.3], constant_term=-2.0)
    steps = 4096
    qq = q(integ.sample_times(steps))
    want = _transfer_of(qq, TAU / steps).tobytes()
    seen = []

    # The bytes are read during the call: the kernel reuses the buffer of
    # the transfer matrices once the column angles are taken.
    def spy(t, *args, original=integ._column_turns):
        seen.append(t.tobytes())
        return original(t, *args)

    monkeypatch.setattr(integ, "_column_turns", spy)
    integrate(q, steps)
    assert seen == [want]


# A slip of the column winding by 2 pi at one step moves theta by 2 pi at
# every later node, so the step gate on theta sees it wherever it falls. A
# pair of opposite slips leaves the endpoint winding as it was.
@pytest.mark.parametrize("slips", [{0: 1}, {0: -1}, {2048: 1}, {2048: -1},
                                   {4095: 1}, {4095: -1}, {1000: 1, 3000: -1}])
def test_a_slipped_column_winding_is_refused(monkeypatch, slips):
    integ = importlib.import_module("hillmono.integrate")

    def slipped(*args, original=integ._column_turns):
        turns = original(*args)
        turns[:, list(slips)] += TAU * np.array(list(slips.values()))
        return turns

    monkeypatch.setattr(integ, "_column_turns", slipped)
    q = Potential.trig_poly([1.0, 0.5], [0.3], constant_term=-2.0)
    for run in (integrate, monodromy,
                lambda q, steps: solution_winding(q, 0.3, steps)):
        with pytest.raises(NumericalInvariantError,
                           match=r"angle change 6\.\d+e\+00 in one step"):
            run(q, 4096)


_wide = st.floats(-30.0, 30.0)


# The steps of theta read off the lift are the first-row angles that were
# integrated step by step, and where one of those reaches the step limit
# integrate refuses. q = 10 cos t - 5 turns its first row by up to 1.48 in
# one of 1024 steps; q = 15 cos t - 5 by 3.03, which only the gate on theta
# refuses.
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(_wide, max_size=2), st.lists(_wide, max_size=2), _wide,
       st.sampled_from([1024, 4096]))
@example([10.0], [], -5.0, 1024)
@example([15.0], [], -5.0, 1024)
def test_theta_steps_match_the_integrated_row_angles(cos, sin, const, steps):
    q = Potential.trig_poly(cos, sin, constant_term=const)
    t, nodes = _propagate(_one(q), steps, _Workspace(steps))
    turns = row_turns(t[0], nodes[0])
    worst = float(np.abs(turns).max())
    if worst < STEP_ANGLE_LIMIT - 1e-9:
        theta = integrate(q, steps).theta
        assert np.abs(np.diff(theta) - turns).max() <= 1e-12
    elif worst > STEP_ANGLE_LIMIT + 1e-9:
        with pytest.raises(NumericalInvariantError):
            integrate(q, steps)


# The workspace pool. monodromy and solution_winding reuse one idle
# workspace for step counts up to DEFAULT_STEPS; a result must not depend
# on what a workspace held before, nor change when it is reused.

def _pool():
    return importlib.import_module("hillmono.integrate")._idle


def _bits(element, theta_r):
    return (element.mat.tobytes() + np.float64(element.omega).tobytes()
            + np.float64(theta_r).tobytes())


def _mild(steps):
    """A potential that passes every gate at `steps` steps, down to 16."""
    scale = min(1.0, (steps / 1024) ** 2)
    return Potential.trig_poly([0.6 * scale, 0.3 * scale], [0.45 * scale],
                               constant_term=-0.9 * scale)


# One block and either side of it; either side of the switch from Python
# floats to numpy (256 | 257 steps, 8 | 9 blocks); 352 | 353 and 992 | 993;
# the default; and above the pool's cap, where 31745 steps leave 992 block
# totals.
@pytest.mark.parametrize("steps", [16, 31, 32, 33, 256, 257, 352, 353, 992,
                                   993, 4096, 16384, 16385, 31745, 32768])
def test_pooled_monodromy_matches_a_cold_call_and_the_path(steps):
    q = _mild(steps)
    _pool().clear()
    cold = monodromy(q, steps)
    assert [ws.steps for ws in _pool()] == \
        ([steps] if steps <= DEFAULT_STEPS else [])
    # Leave other values in the pooled buffers, then reuse them.
    monodromy(Potential.constant(0.0), steps)
    warm = monodromy(q, steps)
    assert _bits(*warm) == _bits(*cold)
    path = integrate(q, steps)
    end = CoverElement(path.mats[-1], path.omega[-1])
    assert _bits(end, to_right_iwasawa(end).theta) == _bits(*cold)
    # The sample times have linspace's bits.
    assert sample_times(steps).tobytes() == \
        np.linspace(0.0, TAU, 2 * steps + 1).tobytes()


def test_results_do_not_change_when_the_workspace_is_reused():
    first = Potential.trig_poly([1.0, 0.5], [0.3], constant_term=-2.0)
    second = Potential.trig_poly([0.4], [0.2, 0.1], constant_term=-1.0)
    mono = monodromy(first)
    mono_bits = _bits(*mono)
    path = integrate(first)
    arrays = (path.t, path.mats, path.theta, path.omega)
    path_bits = [a.tobytes() for a in arrays]
    monodromy(second)
    integrate(second)
    solution_winding(second, 0.3)
    assert _bits(*mono) == mono_bits
    assert [a.tobytes() for a in arrays] == path_bits
    # The path's arrays are its own, not the pooled workspace's.
    (ws,) = _pool()
    for buf in (ws.t, ws.free, *ws.outputs):
        assert not any(np.shares_memory(buf, a) for a in arrays)


def test_threads_run_on_their_own_workspaces():
    qs = [Potential.trig_poly([a], [0.3], constant_term=a - 2.0)
          for a in (0.2, 0.5, 0.8, 1.1)]

    def run(q):
        return [(_bits(*monodromy(q, 4096)), solution_winding(q, 0.7, 4096))
                for _ in range(6)]

    want = [run(q)[0] for q in qs]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run, q) for q in qs]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert got == [[w] * 6 for w in want]


# The batched kernel: k sample rows on one grid run through one pass, and
# each member is bit for bit its own monodromy call. BLOCK (32) divides
# none of 1000 and 4097 steps, and 4096 is the spectrum scan's default.
@pytest.mark.parametrize("steps", [1000, 4096, 4097])
@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_batched_members_match_their_own_calls(steps, width):
    rng = np.random.default_rng(100 * steps + width)
    tt = sample_times(steps)
    for _ in range(2):
        q0 = Potential.trig_poly(rng.uniform(-0.5, 0.5, 3),
                                 rng.uniform(-0.5, 0.5, 2),
                                 constant_term=rng.uniform(-0.5, 0.5))(tt)
        qplus = Potential.trig_poly(rng.uniform(-0.2, 0.2, 1),
                                    constant_term=1.0)(tt)
        rows = q0 - rng.uniform(-0.5, 2.0, width)[:, None] * qplus
        batch = monodromies(rows, steps)
        assert len(batch) == width
        for row, got in zip(rows, batch):
            assert _bits(*got) == _bits(*monodromy(lambda t, r=row: r, steps))


_FAILING_AT_1000 = [
    Potential.trig_poly([15.0], constant_term=-5.0),  # theta step gate
    Potential.constant(-2500.0),  # column step gate
    Potential.constant(1e5),  # overflow
    Potential.constant(700.0),  # Wronskian drift
    Potential.constant(-60.0),  # the endpoint's determinant check
]


@pytest.mark.parametrize("failing", range(len(_FAILING_AT_1000)))
def test_a_batch_raises_its_failing_members_own_message(failing):
    tt = sample_times(1000)
    bad = _FAILING_AT_1000[failing](tt)
    with pytest.raises(NumericalInvariantError) as alone:
        monodromy(lambda t: bad, 1000)
    mild = [_mild(1000)(tt) + c for c in (0.0, 0.1)]
    for at in range(3):
        rows = np.array(mild[:at] + [bad] + mild[at:])
        with pytest.raises(NumericalInvariantError) as batched:
            monodromies(rows, 1000)
        assert str(batched.value) == str(alone.value)


def test_batch_samples_are_checked():
    rows = np.zeros((3, 2 * 1000 + 1))
    rows[1, 7] = np.nan
    shaped = r"; expected \(k, 2 steps \+ 1\) = \(k, 2001\), k >= 1$"
    for bad, message in (
            (rows, "^potential evaluation must give finite values$"),
            (rows[:, 1:], r"^samples have shape \(3, 2000\)" + shaped),
            (rows[0], r"^samples have shape \(2001,\)" + shaped),
            (rows[:0], r"^samples have shape \(0, 2001\)" + shaped)):
        with pytest.raises(DomainError, match=message):
            monodromies(bad, 1000)
    # A potential of the wrong shape is named as such, not as non-finite.
    expected = r"; expected \(2 steps \+ 1,\) = \(2001,\)$"
    for q, shape in ((lambda t: 1.0, r"\(\)"),
                     (lambda t: np.zeros((2, t.size)), r"\(2, 2001\)")):
        for run in (monodromy, integrate,
                    lambda q, steps: solution_winding(q, 0.0, steps)):
            with pytest.raises(DomainError,
                               match="^potential evaluation gave shape "
                                     + shape + expected):
                run(q, 1000)


class _Reentrant:
    """A potential whose evaluation itself runs monodromy at the same steps."""

    def __init__(self, q, steps):
        self.q, self.steps, self.inner = q, steps, []

    def __call__(self, t):
        self.inner.append(_bits(*monodromy(Potential.constant(-0.3),
                                           self.steps)))
        return self.q(t)


def test_a_potential_that_calls_monodromy_gets_its_own_workspace():
    q = Potential.trig_poly([1.0, 0.5], [0.3], constant_term=-2.0)
    want = _bits(*monodromy(q, 4096))
    inner = _bits(*monodromy(Potential.constant(-0.3), 4096))
    reentrant = _Reentrant(q, 4096)
    assert _bits(*monodromy(reentrant, 4096)) == want
    path = integrate(reentrant, 4096)
    end = CoverElement(path.mats[-1], path.omega[-1])
    assert _bits(end, to_right_iwasawa(end).theta) == want
    assert reentrant.inner == [inner, inner]


def _peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_warm_monodromy_call_allocates_little_but_its_samples():
    q = Potential.constant(-1.0)
    monodromy(q)
    samples = 8 * (2 * DEFAULT_STEPS + 1)
    assert _peak(lambda: monodromy(q)) <= samples + 64 * 1024


_trig3 = Potential.trig_poly([0.3, 0.2, 0.1], [0.1, 0.2, 0.05],
                             constant_term=-1.0)

# tracemalloc peaks in bytes of a first call on _trig3, (integrate,
# monodromy), with the kernel that allocated its temporaries in every call:
# about 19.2 doubles a step at 16384 steps and 18.1 at 524288.
_PEAKS_BEFORE_THE_WORKSPACE = {16384: (2511048, 2548168),
                               524288: (76026288, 76026320)}


@pytest.mark.parametrize("steps", sorted(_PEAKS_BEFORE_THE_WORKSPACE))
def test_cold_calls_peak_no_higher_than_before_the_workspace(steps):
    monodromy(_trig3, 1024)  # numpy's own first-use allocations
    for run, before in zip((integrate, monodromy),
                           _PEAKS_BEFORE_THE_WORKSPACE[steps]):
        _pool().clear()
        assert _peak(lambda: run(_trig3, steps)) <= before


# tracemalloc peaks in bytes of a first call on constant(1e4) at 16384
# steps, (monodromy, integrate), with the scaled Wronskian test on the
# workspace's buffers, measured before the kernel ran batches only. Its
# squared entries overflow, so the fast accept hands every run to the
# scaled test; temporaries there raised the monodromy peak to 3.69 MB.
_SCALED_PEAKS = (2316652, 2316380)


def test_cold_scaled_wronskian_calls_peak_no_higher_than_before():
    monodromy(_trig3, 1024)  # numpy's own first-use allocations
    q = Potential.constant(1e4)
    for run, before in zip((monodromy, integrate), _SCALED_PEAKS):
        _pool().clear()
        assert _peak(lambda: run(q, 16384)) <= before
