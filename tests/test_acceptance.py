"""Acceptance suite: one test per top-level criterion.

Each test prints a single pass line after its asserts, so running with
`pytest -v -s tests/test_acceptance.py` shows one line per criterion.
Tolerances are stated inline and are not adjusted anywhere else.
"""

import math

import numpy as np
from scipy.integrate import simpson
from scipy.optimize import brentq

from hillmono import (
    C1Component,
    GeneralBC,
    NumericalInvariantError,
    Potential,
    SeparatedBC,
    classify,
    curve_of,
    curve_of_orbit,
    from_cartan,
    from_cone_coords,
    from_left_iwasawa,
    from_right_iwasawa,
    from_schur,
    from_trace_coords,
    general_residual,
    center_power,
    monodromy,
    multiply,
    orbit_of,
    oscillation_eigenvalues,
    potential_of_curve,
    potential_with_monodromy,
    separated_residual,
    to_right_iwasawa,
)
from oracles import (FROZEN_MATHIEU_FD2048, char_poly_at_one, rel_l2,
                     tracked_row_angle)

TAU = math.tau


def test_criterion_1_constant_potential_closed_forms():
    element, theta_r = monodromy(Potential.constant(-1.0), steps=16384)
    assert np.abs(element.mat - np.eye(2)).max() <= 1e-8
    assert abs(theta_r - TAU) <= 1e-6
    assert abs(element.omega + TAU) <= 1e-6
    stratum = classify(element)
    assert stratum.kind == "parabolic_vertex" and stratum.component_index == 2

    element, theta_r = monodromy(Potential.constant(0.0), steps=16384)
    shear = np.array([[1.0, TAU], [0.0, 1.0]])
    assert np.abs(element.mat - shear).max() <= 1e-8
    assert abs(theta_r - math.atan(TAU)) <= 1e-6
    assert classify(element).kind == "parabolic_leaf_plus"

    element, _ = monodromy(Potential.constant(1.0), steps=16384)
    assert abs(element.trace - 2.0 * math.cosh(TAU)) <= 1e-6 * math.cosh(TAU)

    element, _ = monodromy(Potential.constant(-0.25), steps=16384)
    assert np.abs(element.mat + np.eye(2)).max() <= 1e-8
    assert abs(element.omega + math.pi) <= 1e-6
    print("PASS criterion 1: constant-potential closed forms")


def test_criterion_2_chart_trace_identities():
    rng = np.random.default_rng(202)
    for _ in range(1000):
        alpha = rng.uniform(-3 * math.pi, 3 * math.pi)
        x, y = rng.uniform(-2.0, 2.0, size=2)
        g = from_cartan(alpha, x, y)
        want = 2.0 * math.cos(alpha) * math.cosh(math.hypot(x, y))
        assert abs(g.trace - want) <= 1e-10
    for _ in range(1000):
        x, y, z = rng.uniform(-1.2, 1.2, size=3)
        g = from_cone_coords(x, y, z)
        assert abs(g.trace - 2.0 * math.exp(-x * x + y * y + z * z)) <= 1e-10
    done = 0
    while done < 1000:
        theta = rng.uniform(-3 * math.pi, 3 * math.pi)
        if abs(math.sin(theta)) < 1e-2:
            continue
        rho = math.exp(rng.uniform(-1.0, 1.0))
        c = rng.uniform(-5.0, 5.0)
        assert abs(from_trace_coords(theta, rho, c).trace - c) <= 1e-10
        done += 1
    for _ in range(1000):
        alpha = rng.uniform(-math.pi, math.pi)
        lam = math.exp(rng.uniform(-1.2, 1.2))
        nu = rng.uniform(-2.0, 2.0)
        g = from_schur(alpha, lam, nu)
        assert abs(g.trace - (lam - 1.0 / lam)) <= 1e-10
    print("PASS criterion 2: chart trace identities (4 x 1000 samples)")


def test_criterion_3_lift_algebra():
    rng = np.random.default_rng(303)
    elements = []
    while len(elements) < 500:
        theta = rng.uniform(-3 * math.pi, 3 * math.pi)
        if abs(math.remainder(theta, math.pi)) < 0.02:
            continue
        rho = math.exp(rng.uniform(-1.5, 1.5))
        nu = rng.uniform(-3.0, 3.0)
        elements.append((from_left_iwasawa(theta, rho, nu), theta, rho, nu))

    for g, theta, rho, nu in elements:
        # Center shifts the winding by multiples of pi.
        for n in range(-2, 3):
            shifted = multiply(center_power(n), g)
            assert abs(shifted.omega - (g.omega - n * math.pi)) <= 1e-7
        # Winding stays congruent to the column argument.
        col = g.mat @ np.array([0.0, 1.0])
        mismatch = math.remainder(
            math.atan2(col[1], col[0]) - math.pi / 2 - g.omega, TAU)
        assert abs(mismatch) <= 1e-7
        # Left and right angles share their pi-window; the right angle is
        # checked against discrete path tracking.
        theta_right = tracked_row_angle(theta, rho, nu)
        assert abs(to_right_iwasawa(g).theta - theta_right) <= 1e-7
        assert math.floor(-g.omega / math.pi) == \
            math.floor(theta_right / math.pi)

    for (g, *_), (h, *_) in zip(elements[:-1], elements[1:]):
        gh = multiply(g, h)
        assert np.abs(gh.mat - g.mat @ h.mat).max() <= 1e-7
    print("PASS criterion 3: lift algebra on 500 random elements")


def test_criterion_4_kepler_round_trip():
    q = Potential.trig_poly([0.3], [0.0, 0.1])
    curve = curve_of(q, steps=4096)
    orbit = orbit_of(curve)
    grid = orbit.theta_grid
    assert abs(simpson(orbit.rho, x=grid) - TAU) <= 1e-7
    assert abs(orbit.rho[0] - 1.0) <= 1e-8
    assert abs(orbit.rho_prime[0]) <= 1e-6
    back = potential_of_curve(curve_of_orbit(orbit, steps=4096))
    t = np.linspace(0.0, TAU, 4097)
    assert rel_l2(back(t), q(t), t) <= 1e-4
    print("PASS criterion 4: Kepler round trip at 4096 nodes")


def test_criterion_5_inverse_monodromy_section():
    rng = np.random.default_rng(505)
    t = np.linspace(0.0, TAU, 2049)
    for theta_m in (0.5, 2.0, 7.0, 13.0):
        for rho0 in (0.5, 1.0, 2.0):
            for nu0 in (-1.0, 0.0, 1.0):
                target = from_right_iwasawa(theta_m, rho0, nu0)
                fiber = [None] + [rng.normal(0.0, 0.05, size=8)
                                  for _ in range(3)]
                profiles = []
                for coeffs in fiber:
                    q = potential_with_monodromy(target, coeffs)
                    element, theta_r = monodromy(q, q.samples.size - 1)
                    assert np.abs(element.mat - target.mat).max() <= 1e-6
                    assert abs(element.omega - target.omega) <= 1e-6
                    assert abs(theta_r - theta_m) <= 1e-6
                    profiles.append(q(t))
                for i in range(4):
                    for j in range(i + 1, 4):
                        gap = math.sqrt(np.trapezoid(
                            (profiles[i] - profiles[j]) ** 2, t))
                        assert gap > 1e-6
    print("PASS criterion 5: inverse section on the 36-target grid, 4 fibers")


def test_criterion_6_flat_spectrum():
    records = oscillation_eigenvalues(Potential.constant(0.0),
                                      Potential.constant(1.0), 4)
    s = np.array([r.s for r in records])
    np.testing.assert_allclose(s, [0.0, 1.0, 1.0, 4.0, 4.0], atol=1e-6)
    want = [C1Component("hyperplane"), C1Component("vertex", 1),
            C1Component("vertex", 1), C1Component("vertex", 2),
            C1Component("vertex", 2)]
    assert [r.component for r in records] == want
    assert s[0] < s[1] <= s[2] < s[3] <= s[4]
    print("PASS criterion 6: flat line spectrum [0, 1, 1, 4, 4]")


def test_criterion_7_mathieu_spectrum():
    records = oscillation_eigenvalues(Potential.trig_poly([2.0]),
                                      Potential.constant(1.0), 4)
    s = np.array([r.s for r in records])
    assert np.abs(s - np.array(FROZEN_MATHIEU_FD2048)).max() <= 1e-4
    for pair, (lo, hi) in enumerate(((records[1], records[2]),
                                     (records[3], records[4])), start=1):
        assert lo.s < hi.s
        assert lo.component == C1Component("cone_leaf", pair, -1)
        assert hi.component == C1Component("cone_leaf", pair, 1)
    print("PASS criterion 7: Mathieu spectrum vs frozen FD-2048 oracle")


def test_criterion_8_boundary_conditions():
    dirichlet = SeparatedBC.dirichlet()

    def dirichlet_defect(s):
        return separated_residual(
            monodromy(Potential.constant(-s), 2048).element, dirichlet)

    for k in (1, 2, 3, 4):
        root = brentq(dirichlet_defect, k * k / 4.0 - 0.3, k * k / 4.0 + 0.3,
                      xtol=1e-10)
        assert abs(root - k * k / 4.0) <= 1e-6

    antiperiodic = GeneralBC(-np.eye(2))
    assert abs(general_residual(monodromy(Potential.constant(-0.25)).element,
                                antiperiodic)) <= 1e-8
    assert abs(general_residual(monodromy(Potential.constant(0.0)).element,
                                antiperiodic)) > 1e-3

    rng = np.random.default_rng(808)
    checked = 0
    while checked < 200:
        q = Potential.trig_poly(rng.normal(0.0, 0.4, size=2),
                                rng.normal(0.0, 0.4, size=2),
                                constant_term=rng.normal(0.0, 0.5))
        a_mat = rng.normal(size=(2, 2))
        if abs(np.linalg.det(a_mat)) <= 1e-6:
            continue
        bc = GeneralBC(a_mat)
        mu = monodromy(q).element
        p1 = char_poly_at_one(np.linalg.inv(a_mat) @ mu.mat)
        resid = general_residual(mu, bc)
        assert abs(resid + bc.a * p1) <= 1e-8 * max(1.0, abs(resid))
        assert (abs(resid) <= 1e-8) == (abs(p1) <= 1e-8 / bc.a)
        checked += 1

    reversal = GeneralBC(np.diag([1.0, -1.0]))
    for _ in range(20):
        q = Potential.trig_poly(rng.normal(0.0, 0.5, size=3), (),
                                constant_term=rng.normal(0.0, 0.3))
        assert abs(general_residual(monodromy(q).element, reversal)) <= 1e-8
    print("PASS criterion 8: boundary conditions against direct oracles")


def test_criterion_9_monodromy_image_invariant():
    rng = np.random.default_rng(909)
    for _ in range(100):
        q = Potential.trig_poly(rng.normal(0.0, 0.6, size=3),
                                rng.normal(0.0, 0.6, size=3),
                                constant_term=rng.normal(0.0, 0.8))
        # Strongly hyperbolic draws make the right-angle ODE stiff; the
        # integrator reports that through its consistency error, and the
        # documented remedy is a finer grid.
        steps = 16384
        while True:
            try:
                element, theta_r = monodromy(q, steps)
                break
            except NumericalInvariantError:
                steps *= 2
                assert steps <= 2 ** 20
        assert element.omega < 0.0
        assert theta_r > 0.0
    print("PASS criterion 9: image invariant on 100 random potentials")
