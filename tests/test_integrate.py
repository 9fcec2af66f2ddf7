"""Fundamental path integration and the lifted monodromy map."""

import importlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hillmono import (
    DomainError,
    NumericalInvariantError,
    Potential,
    arg_variation,
    classify,
    integrate,
    monodromy,
    solution_winding,
    to_right_iwasawa,
)
from hillmono.integrate import MIN_STEPS, _blocked_scan, _transfer
from oracles import blocked_scan

TAU = math.tau


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
        assert abs(to_right_iwasawa(element).theta - theta_r) < 1e-6


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


def test_overflow_is_named_without_warnings():
    # For q = 1e4 the largest entry, sqrt(q) sinh(2 pi sqrt(q)), is finite
    # but its square is not; for q = 2e4 the entries themselves overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalInvariantError,
                           match=r"overflows; largest finite \|entry\| .* 3\.\d+e\+274"):
            monodromy(Potential.constant(1e4))
        # Column directions need no squared entries: (cosh, k sinh) from e1.
        k = 100.0
        want = math.atan(k * math.tanh(TAU * k))
        assert abs(solution_winding(Potential.constant(k * k), 0.0) - want) < 1e-12
        with pytest.raises(NumericalInvariantError, match="overflows"):
            solution_winding(Potential.constant(2e4), 0.0)


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
    # so from node 65 on some first rows and solution vectors round to exactly
    # zero. No angle is taken of them: no division by zero and no nan.
    q = Potential.constant(-2500.0)
    for run in (lambda: monodromy(q, 128),
                lambda: solution_winding(q, 0.0, 128),
                lambda: solution_winding(q, 1.0, 128)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalInvariantError,
                               match=r"first row or a solution vector is zero "
                                     r"at node \d+ of 128: .*; increase "
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


# Lengths on either side of one block (32) and of the switch from Python
# floats to numpy (992 | 993 steps, 31 | 32 blocks); 31745 steps leave 992
# block totals, the longest level scanned in Python floats, under a numpy
# level.
@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 992, 993, 1023, 1024,
                               1025, 4096, 16385, 31745, 32769])
def test_blocked_scan_matches_reference_bits(n):
    rng = np.random.default_rng(n)
    for scale in (0.01, 1.0, 100.0):
        q = scale * rng.standard_normal(2 * n + 1)
        t = _transfer(q[0:-1:2], q[1::2], q[2::2], TAU / max(n, MIN_STEPS))
        assert _blocked_scan(t).tobytes() == blocked_scan(t).tobytes()


def test_blocked_scan_matches_reference_past_overflow():
    # Steps of 1e200 overflow the products to inf and then to nan. A nan
    # made from two nans takes the sign bit of whichever operand the
    # hardware picks, so nans are compared as nans, other entries by value.
    rng = np.random.default_rng(7)
    for n in (20, 700, 40000):
        t = 1e200 * rng.standard_normal((4, n))
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _blocked_scan(t), blocked_scan(t)
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
    t = _transfer(q[0:-1:2], q[1::2], q[2::2], TAU / n)
    assert _scan_peak(_blocked_scan, t) <= _scan_peak(blocked_scan, t)


# One block; fewer than BLOCK blocks, a whole and a partial last block; BLOCK
# or more blocks, whole and partial, the last over a level of 992 totals.
@pytest.mark.parametrize("n", [20, 32, 500, 512, 1024, 4097, 31745])
def test_blocked_scan_leaves_its_input_unchanged(n):
    rng = np.random.default_rng(n)
    t = _transfer(*rng.standard_normal((3, n)), TAU / max(n, MIN_STEPS))
    before = t.tobytes()
    _blocked_scan(t)
    assert t.tobytes() == before


def test_windings_read_the_transfer_matrices_that_were_scanned(monkeypatch):
    integ = importlib.import_module("hillmono.integrate")
    q = Potential.trig_poly([1.0, 0.5], [0.3], constant_term=-2.0)
    steps = 4096
    qq = q(integ.sample_times(steps))
    want = _transfer(qq[0:-1:2], qq[1::2], qq[2::2], TAU / steps).tobytes()
    seen = []
    for name in ("_row_turns", "_column_turns"):
        def spy(t, *args, original=getattr(integ, name)):
            seen.append(t)
            return original(t, *args)
        monkeypatch.setattr(integ, name, spy)
    integrate(q, steps)
    assert len(seen) == 2 and seen[0] is seen[1]
    assert seen[0].tobytes() == want
