"""Chart algebra and classification on the two-component cover."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hillmono import (
    CoverElement,
    DomainError,
    NumericalInvariantError,
    Potential,
    arg_variation,
    center_power,
    classify,
    element_from_dict,
    element_to_dict,
    from_cartan,
    from_cone_coords,
    from_left_iwasawa,
    from_right_iwasawa,
    from_schur,
    from_trace_coords,
    identity,
    monodromy,
    multiply,
    reflection,
    rotation,
    to_cartan,
    to_left_iwasawa,
    to_right_iwasawa,
    winding_exceeds,
)
from oracles import left_chart_path, tracked_arg_variation

TAU = math.tau
E2 = np.array([0.0, 1.0])


def random_element(rng, span=3.0):
    theta = rng.uniform(-span * math.pi, span * math.pi)
    rho = math.exp(rng.uniform(-1.5, 1.5))
    nu = rng.uniform(-3.0, 3.0)
    return from_left_iwasawa(theta, rho, nu)


def test_identity_and_center():
    e = identity()
    assert e.omega == 0.0
    assert np.array_equal(e.mat, np.eye(2))
    iota = center_power(1)
    assert iota.omega == -math.pi
    np.testing.assert_allclose(iota.mat, -np.eye(2))
    np.testing.assert_allclose(center_power(2).mat, np.eye(2))
    assert center_power(2).omega == -TAU
    assert center_power(0).omega == 0.0


def test_rotation_is_clockwise_with_negative_winding():
    t = 0.7
    g = from_left_iwasawa(t, 1.0, 0.0)
    np.testing.assert_allclose(g.mat, rotation(t))
    assert g.omega == -t
    # The e2 column of a clockwise rotation moves toward e1.
    assert rotation(0.3)[0, 1] > 0


def test_congruence_gate_rejects_wrong_winding():
    with pytest.raises(NumericalInvariantError):
        CoverElement(np.eye(2), -0.5)


def test_determinant_gate():
    with pytest.raises(NumericalInvariantError):
        CoverElement([[1.1, 0.0], [0.0, 1.0]], 0.0)
    # Large entries get a correspondingly wider gate.
    big = 4.0e4
    mat = np.array([[big, 0.0], [0.0, 1.0 / big]])
    mat[0, 0] *= 1.0 + 1e-12
    CoverElement(mat, 0.0)
    # Beyond 1e154 the widened tolerance 16 eps |mat|^2 is not a double;
    # the gate still rejects a determinant that is off by far more.
    x = 400.0
    mat = np.array([[math.cosh(x), math.sinh(x)], [math.sinh(x), math.cosh(x)]])
    CoverElement(mat, -math.pi / 4)
    mat[1, 1] *= 1.0 + 1e-10
    with pytest.raises(NumericalInvariantError, match="determinant") as info:
        CoverElement(mat, -math.pi / 4)
    # The message gives the scaled deviation and tolerance, both finite.
    assert "inf" not in str(info.value)
    assert "scaled by 4**-" in str(info.value)
    # The widened tolerance is 16 eps |mat|^2 = 3.55e-7 at |mat| = 1e4; an
    # error of 6e-7 lies below 16 eps times the square of the next power of
    # two and must still be rejected.
    with pytest.raises(NumericalInvariantError, match="determinant"):
        CoverElement([[1e4, 0.0], [0.0, (1.0 + 6e-7) / 1e4]], 0.0)
    # Tiny entries: the determinant is about 0, not 1.
    with pytest.raises(NumericalInvariantError, match="determinant"):
        CoverElement([[1e-200, 0.0], [0.0, 1e-200]], 0.0)
    # Entries at both ends of the double range.
    CoverElement([[1e308, 0.0], [0.0, 1e-308]], 0.0)
    CoverElement([[-1.7e308, 0.0], [0.0, -1.0 / 1.7e308]], math.pi)


def test_huge_monodromy_without_warnings():
    # Entries reach 6.5e155: the determinant gate, the right Iwasawa
    # coordinates and the Cartan angle of classify must not square them. theta_r is the argument of the
    # first row (cosh, sinh / k), read without forming ad - bc.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        element, theta_r = monodromy(Potential.constant(3200.0))
        stratum = classify(element)
    assert (stratum.kind, stratum.component_index) == ("hyperbolic", 0)
    k = math.sqrt(3200.0)
    assert abs(theta_r - math.atan(math.tanh(TAU * k) / k)) < 1e-9
    assert 1e308 < to_right_iwasawa(element).rho < math.inf


def test_left_iwasawa_roundtrip():
    rng = np.random.default_rng(101)
    for _ in range(200):
        theta = rng.uniform(-3 * math.pi, 3 * math.pi)
        rho = math.exp(rng.uniform(-1.5, 1.5))
        nu = rng.uniform(-3.0, 3.0)
        g = from_left_iwasawa(theta, rho, nu)
        got = to_left_iwasawa(g)
        np.testing.assert_allclose([got.theta, got.rho, got.nu],
                                   [theta, rho, nu], rtol=1e-9, atol=1e-9)


def test_right_iwasawa_roundtrip():
    rng = np.random.default_rng(102)
    for _ in range(200):
        theta = rng.uniform(-3 * math.pi, 3 * math.pi)
        rho = math.exp(rng.uniform(-1.5, 1.5))
        nu = rng.uniform(-3.0, 3.0)
        g = from_right_iwasawa(theta, rho, nu)
        got = to_right_iwasawa(g)
        np.testing.assert_allclose([got.theta, got.rho, got.nu],
                                   [theta, rho, nu], rtol=1e-9, atol=1e-9)


def test_cartan_roundtrip_and_trace():
    rng = np.random.default_rng(103)
    for _ in range(200):
        alpha = rng.uniform(-3 * math.pi, 3 * math.pi)
        x = rng.uniform(-2.0, 2.0)
        y = rng.uniform(-2.0, 2.0)
        g = from_cartan(alpha, x, y)
        got = to_cartan(g)
        np.testing.assert_allclose([got.alpha, got.x, got.y], [alpha, x, y],
                                   rtol=1e-9, atol=1e-9)
        r = math.hypot(x, y)
        assert abs(g.trace - 2.0 * math.cos(alpha) * math.cosh(r)) < 1e-10 * (
            1.0 + math.cosh(r))
    # Entries up to cosh(700) ~ 5e303: m^T m would overflow without scaling.
    rng = np.random.default_rng(106)
    for _ in range(200):
        alpha = rng.uniform(-3 * math.pi, 3 * math.pi)
        r = rng.uniform(2.0, 700.0)
        phi = rng.uniform(0.0, TAU)
        x, y = r * math.cos(phi), r * math.sin(phi)
        got = to_cartan(from_cartan(alpha, x, y))
        np.testing.assert_allclose([got.alpha, got.x, got.y], [alpha, x, y],
                                   rtol=1e-9, atol=1e-9)


def test_cone_chart_trace_identity():
    rng = np.random.default_rng(104)
    for _ in range(200):
        x, y, z = rng.uniform(-1.2, 1.2, size=3)
        g = from_cone_coords(x, y, z)
        want = 2.0 * math.exp(-x * x + y * y + z * z)
        assert abs(g.trace - want) < 1e-10 * (1.0 + abs(want))


def test_trace_chart_hits_requested_trace():
    rng = np.random.default_rng(105)
    for _ in range(200):
        theta = rng.uniform(0.2, math.pi - 0.2) + rng.integers(-2, 3) * math.pi
        if abs(math.sin(theta)) < 1e-3:
            continue
        rho = math.exp(rng.uniform(-1.0, 1.0))
        c = rng.uniform(-5.0, 5.0)
        g = from_trace_coords(theta, rho, c)
        assert abs(g.trace - c) < 1e-10 * (1.0 + abs(c))
        assert abs(to_left_iwasawa(g).theta - theta) < 1e-9


def test_schur_chart_reflected_component():
    rng = np.random.default_rng(106)
    for _ in range(200):
        alpha = rng.uniform(-math.pi, math.pi)
        lam = math.exp(rng.uniform(-1.2, 1.2))
        nu = rng.uniform(-2.0, 2.0)
        g = from_schur(alpha, lam, nu)
        assert g.component == -1
        want = lam - 1.0 / lam
        assert abs(g.trace - want) < 1e-10 * (1.0 + abs(want))


def test_multiply_is_a_homomorphism_on_matrices():
    rng = np.random.default_rng(107)
    for _ in range(100):
        g = random_element(rng)
        h = random_element(rng)
        gh = multiply(g, h)
        np.testing.assert_allclose(gh.mat, g.mat @ h.mat,
                                   rtol=1e-12, atol=1e-12)
        assert gh.component == 1


def test_center_shifts_winding_by_pi():
    rng = np.random.default_rng(108)
    for _ in range(50):
        g = random_element(rng)
        for n in range(-2, 3):
            shifted = multiply(center_power(n), g)
            assert abs(shifted.omega - (g.omega - n * math.pi)) < 1e-9


def test_reflected_component_multiplication():
    r = reflection()
    rr = multiply(r, r)
    assert rr.component == 1
    np.testing.assert_allclose(rr.mat, np.eye(2), atol=1e-12)
    assert abs(rr.omega) < 1e-12
    g = from_left_iwasawa(1.3, 2.0, -0.7)
    rg = multiply(r, g)
    assert rg.component == -1
    np.testing.assert_allclose(rg.mat, r.mat @ g.mat, atol=1e-12)


def test_arg_variation_of_e2_is_omega():
    rng = np.random.default_rng(109)
    for _ in range(30):
        g = random_element(rng)
        assert arg_variation(g, (0.0, 1.0)) == g.omega
        v = rng.normal(size=2)
        if np.abs(v).max() < 1e-3:
            continue
        # Any direction winds within pi of the e2 winding.
        assert abs(arg_variation(g, v) - g.omega) < math.pi


def test_winding_exceeds_on_both_components():
    assert not winding_exceeds(identity(), 0.0)
    assert winding_exceeds(from_left_iwasawa(0.5, 1.0, 0.0), 0.0)
    assert not winding_exceeds(from_left_iwasawa(-0.5, 1.0, 0.0), 0.0)
    assert not winding_exceeds(reflection(), 0.0)


def test_classify_examples():
    assert classify(identity()).kind == "parabolic_vertex"
    assert classify(identity()).component_index == 0
    assert classify(center_power(2)).component_index == 2
    g = from_left_iwasawa(0.4, 1.0, 0.0)
    s = classify(g)
    assert s.kind == "elliptic" and s.component_index == 0
    h = from_cartan(0.0, 1.2, 0.0)
    assert classify(h).kind == "hyperbolic"
    b = from_cartan(math.pi / 2, 0.8, 0.3)
    assert classify(b).kind == "trace_zero_boundary"
    assert classify(b).component_index is None


def test_classify_leaf_signs():
    # The unipotents [[1, +-1], [0, 1]] represent the two opposite leaves.
    plus = CoverElement([[1.0, 1.0], [0.0, 1.0]], -math.pi / 4)
    minus = CoverElement([[1.0, -1.0], [0.0, 1.0]], math.pi / 4)
    assert classify(plus).kind == "parabolic_leaf_plus"
    assert classify(minus).kind == "parabolic_leaf_minus"
    assert classify(plus).component_index == 0
    # The conjugate lower unipotent lands on the same leaf as its class.
    lo = CoverElement([[1.0, 0.0], [-1.0, 1.0]], 0.0)
    assert classify(lo).kind == "parabolic_leaf_plus"
    # N = M - I as met at a Mathieu spectrum crossing: the first column is
    # rounding noise of the wrong sign, the leaf is set by N[0, 1].
    noisy = CoverElement([[1.0, 5.4e-5], [1.1e-8, 1.0]], -math.atan(5.4e-5))
    assert classify(noisy).kind == "parabolic_leaf_plus"


def test_classify_sign_alternates_with_component_index():
    rng = np.random.default_rng(110)
    for _ in range(100):
        g = random_element(rng)
        s = classify(g)
        if s.kind == "trace_zero_boundary" or abs(abs(s.trace) - 2.0) < 1e-6:
            continue
        if s.trace != 0.0:
            assert math.copysign(1.0, s.trace) == (-1.0) ** s.component_index


def test_element_dict_roundtrip():
    rng = np.random.default_rng(111)
    for _ in range(20):
        g = random_element(rng)
        h = element_from_dict(element_to_dict(g))
        np.testing.assert_array_equal(h.mat, g.mat)
        assert h.omega == g.omega and h.component == g.component
    r = element_from_dict(element_to_dict(reflection()))
    assert r.component == -1


def test_element_from_dict_rejects_bad_input():
    with pytest.raises(DomainError):
        element_from_dict({"m": [1, 0, 0], "omega": 0.0})
    with pytest.raises(DomainError):
        element_from_dict({"omega": 0.0})
    with pytest.raises(DomainError):
        element_from_dict({"m": [1, 0, 0, 1], "omega": 0.0, "component": "x"})


# ---------------------------------------------------------------------------
# Properties of the lift arithmetic
# ---------------------------------------------------------------------------

_props = settings(max_examples=40, deadline=None, derandomize=True, database=None)
_theta = st.floats(-3.0 * math.pi, 3.0 * math.pi)
_log_rho = st.floats(-1.5, 1.5)
_nu = st.floats(-3.0, 3.0)
_left = st.tuples(_theta, _log_rho, _nu)
_component = st.sampled_from([1, -1])


def _element(coords, component):
    theta, log_rho, nu = coords
    g = from_left_iwasawa(theta, math.exp(log_rho), nu)
    return g if component == 1 else multiply(reflection(), g)


def _same(g, h):
    scale = max(1.0, np.abs(g.mat).max())
    assert g.component == h.component
    assert np.abs(g.mat - h.mat).max() <= 1e-12 * scale ** 2
    assert abs(g.omega - h.omega) <= 1e-9


def _chart_path(coords, component):
    """Left Iwasawa segment from the component's base point to the element."""
    theta, log_rho, nu = coords
    at = left_chart_path(theta, math.exp(log_rho), nu)
    base = np.eye(2) if component == 1 else reflection().mat
    return lambda s: base @ at(s)


@_props
@given(_left, _component, _left, _component, _left, _component)
def test_multiply_is_associative(a, ca, b, cb, c, cc):
    g1, g2, g3 = _element(a, ca), _element(b, cb), _element(c, cc)
    _same(multiply(multiply(g1, g2), g3), multiply(g1, multiply(g2, g3)))


@_props
@given(_left, _component, st.integers(-3, 3))
def test_center_power_commutes(a, component, n):
    # Reflected elements invert the centre: iota^n g = g iota^-n.
    g = _element(a, component)
    _same(multiply(center_power(n), g), multiply(g, center_power(component * n)))


@_props
@given(_left, _component, _left, _component)
def test_multiply_winding_matches_tracking(a, ca, b, cb):
    g1, g2 = _element(a, ca), _element(b, cb)
    path = _chart_path(b, cb)
    want = g1.omega + tracked_arg_variation(lambda s: g1.mat @ path(s) @ E2)
    assert abs(multiply(g1, g2).omega - want) <= 1e-9


@_props
@given(_left)
def test_right_iwasawa_winding_matches_tracking(coords):
    theta, log_rho, nu = coords
    rho = math.exp(log_rho)

    def e2_image(s):
        sr = math.sqrt(1.0 + s * (rho - 1.0))
        lower = np.array([[sr, 0.0], [0.5 * s * nu / sr, 1.0 / sr]])
        return lower @ rotation(s * theta) @ E2

    want = tracked_arg_variation(e2_image)
    assert abs(from_right_iwasawa(theta, rho, nu).omega - want) <= 1e-9


@_props
@given(_theta, _log_rho, _nu)
def test_schur_winding_matches_tracking(alpha, log_lam, nu):
    lam = math.exp(log_lam)

    def e2_image(s):
        lam_s = 1.0 + s * (lam - 1.0)
        middle = np.array([[-1.0 / lam_s, 0.0], [s * nu, lam_s]])
        return rotation(s * alpha) @ middle @ rotation(-s * alpha) @ E2

    want = tracked_arg_variation(e2_image)
    assert abs(from_schur(alpha, lam, nu).omega - want) <= 1e-9


@_props
@given(_left, _component, st.floats(0.0, TAU))
def test_arg_variation_matches_tracking(coords, component, phi):
    g = _element(coords, component)
    v = np.array([math.cos(phi), math.sin(phi)])
    path = _chart_path(coords, component)
    want = tracked_arg_variation(lambda s: path(s) @ v)
    assert abs(arg_variation(g, v) - want) <= 1e-9


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_theta, st.floats(0.0, 2.5), st.floats(0.0, TAU), st.booleans(),
       _theta, _log_rho, _nu)
def test_strata_are_invariant_under_conjugation(alpha, r, phi, rotate,
                                                theta, log_rho, nu):
    g = from_cartan(alpha, r * math.cos(phi), r * math.sin(phi))
    assume(abs(g.trace) > 0.01 and abs(abs(g.trace) - 2.0) > 0.01)
    if rotate:
        h = from_left_iwasawa(theta, 1.0, 0.0)
        h_inv = from_left_iwasawa(-theta, 1.0, 0.0)
    else:
        rho = math.exp(log_rho)
        h = from_left_iwasawa(0.0, rho, nu)
        h_inv = from_left_iwasawa(0.0, 1.0 / rho, -nu / rho)
    _same(multiply(h, h_inv), identity())
    assert classify(multiply(multiply(h, g), h_inv)) == classify(g)


# ---------------------------------------------------------------------------
# Chart round trips
# ---------------------------------------------------------------------------

# Angles up to a thousand turns: every chart reads the branch of its angle
# off the winding, so large windings must come back exactly too.
_wide_theta = st.floats(-2000.0 * math.pi, 2000.0 * math.pi)


def _close(got, want, tol=1e-9):
    """Entrywise |got - want| <= tol * max(1, |want|)."""
    for g, w in zip(got, want):
        assert abs(g - w) <= tol * max(1.0, abs(w)), (got, want)


@_props
@given(_wide_theta, st.floats(-3.0, 3.0), _nu, _component)
def test_left_iwasawa_chart_round_trip(theta, log_rho, nu, component):
    rho = math.exp(log_rho)
    g = _element((theta, log_rho, nu), component)
    assert g.component == component
    _close(to_left_iwasawa(g), (theta, rho, nu))


@_props
@given(_wide_theta, st.floats(-3.0, 3.0), _nu)
def test_right_iwasawa_chart_round_trip(theta, log_rho, nu):
    rho = math.exp(log_rho)
    g = from_right_iwasawa(theta, rho, nu)
    _close(to_right_iwasawa(g), (theta, rho, nu))
    with pytest.raises(DomainError):
        to_right_iwasawa(multiply(reflection(), g))


@_props
@given(_wide_theta, st.floats(0.0, 40.0), st.floats(0.0, TAU))
def test_cartan_chart_round_trip(alpha, r, phi):
    x, y = r * math.cos(phi), r * math.sin(phi)
    g = from_cartan(alpha, x, y)
    _close(to_cartan(g), (alpha, x, y))
    with pytest.raises(DomainError):
        to_cartan(multiply(reflection(), g))


@_props
@given(_left, _wide_theta, st.floats(0.0, 690.0), st.floats(0.0, TAU))
@example((0.5, 1.0, -2.0), 0.3, 25.0, 1.0)  # cos alpha > 0 past r = 19
@example((0.5, 1.0, -2.0), 3.0, 25.0, 1.0)  # cos alpha < 0
@example((-2.0, -1.5, 3.0), 0.1, 400.0, 4.0)  # entries past 2^500
@example((-2.0, -1.5, 3.0), -3.0, 400.0, 4.0)
def test_cartan_trace_identity(left, alpha, r, phi):
    # A left Iwasawa factor times a Cartan element of rapidity r: to_cartan
    # reads (alpha', x', y') off the product, whose trace must be
    # 2 cos(alpha') cosh |(x', y')|. The spectrum scan's pair solve rests
    # on this: it starts at the window's Cartan center alpha' = m pi, m
    # even, where the trace is at least 2, between the pair's roots.
    g = multiply(_element(left, 1),
                 from_cartan(alpha, r * math.cos(phi), r * math.sin(phi)))
    got = to_cartan(g)
    ch = math.cosh(math.hypot(got.x, got.y))
    assert abs(g.trace - 2.0 * math.cos(got.alpha) * ch) <= 1e-10 * ch


@_props
@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_cone_chart_identities(x, y, z):
    # The Cartan angle lies in [-pi/2, pi/2] with cosine exp(-x^2) and the
    # sign of x; the boost points along (y, z), and the cosh of its
    # rapidity is exp(y^2 + z^2).
    g = from_cone_coords(x, y, z)
    alpha, bx, by = to_cartan(g)
    want = 2.0 * math.exp(-x * x + y * y + z * z)
    assert abs(g.trace - want) <= 1e-10 * want
    assert abs(alpha) <= math.pi / 2
    assert abs(math.cos(alpha) - math.exp(-x * x)) <= 1e-12
    sine = math.copysign(math.sqrt(-math.expm1(-2.0 * x * x)), x)
    assert abs(math.sin(alpha) - sine) <= 1e-12
    rb, s = math.hypot(bx, by), math.hypot(y, z)
    assert abs(math.cosh(rb) - math.exp(s * s)) <= 1e-9 * math.exp(s * s)
    assert abs(bx * s - rb * y) <= 1e-9 * max(1.0, rb)
    assert abs(by * s - rb * z) <= 1e-9 * max(1.0, rb)


@_props
@given(_wide_theta, st.floats(-2.0, 2.0), st.floats(-5.0, 5.0))
def test_trace_chart_identities(theta, log_rho, trace):
    assume(abs(math.sin(theta)) >= 1e-3)
    rho = math.exp(log_rho)
    g = from_trace_coords(theta, rho, trace)
    sr = math.sqrt(rho)
    nu = 2.0 * sr * (trace - (sr + 1.0 / sr) * math.cos(theta)) / math.sin(theta)
    _close(to_left_iwasawa(g), (theta, rho, nu))
    assert abs(g.trace - trace) <= 1e-10 * (1.0 + abs(trace) + sr + 1.0 / sr)


@_props
@given(_wide_theta, st.floats(-2.0, 2.0), _nu)
def test_schur_chart_identities(alpha, log_lam, nu):
    # Conjugating back by the rotation lifts must leave the middle factor,
    # whose column e2 never turns: winding 0 at any alpha.
    lam = math.exp(log_lam)
    g = from_schur(alpha, lam, nu)
    middle = np.array([[-1.0 / lam, 0.0], [nu, lam]])
    assert g.component == -1
    scale = max(1.0, np.abs(middle).max())
    assert np.abs(g.mat - rotation(alpha) @ middle @ rotation(-alpha)).max() <= (
        1e-12 * scale)
    assert abs(g.trace - (lam - 1.0 / lam)) <= 1e-12 * scale
    back = multiply(multiply(from_left_iwasawa(-alpha, 1.0, 0.0), g),
                    from_left_iwasawa(alpha, 1.0, 0.0))
    assert np.abs(back.mat - middle).max() <= 1e-12 * scale
    assert abs(back.omega) <= 1e-9 * max(1.0, abs(alpha))
