"""Prescribed-monodromy synthesis: profiles, normalization, inversion."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from scipy.integrate import simpson
from scipy.optimize import brentq as scipy_brentq

from hillmono import (
    DomainError,
    NumericalInvariantError,
    Potential,
    base_polynomial,
    center_power,
    from_left_iwasawa,
    from_right_iwasawa,
    identity,
    monodromy,
    normalize_c,
    perturbation_basis,
    perturbation_polynomial,
    potential_with_monodromy,
    reflection,
    synthesize_orbit,
)
from hillmono import synthesis
from hillmono.synthesis import _BLOCK, auto_steps, polyval
from oracles import rel_l2

TAU = math.tau


def test_base_polynomial_hermite_data():
    p = base_polynomial(1.5, 2.0, -0.5)
    assert p(0.0) == 0.0 and p.deriv()(0.0) == 0.0
    assert abs(p(1.5) - math.log(2.0)) < 1e-12
    assert abs(p.deriv()(1.5) + 0.5) < 1e-12


def test_base_polynomial_trivial_data_is_zero():
    p = base_polynomial(TAU, 1.0, 0.0)
    assert np.abs(p.coef).max() == 0.0


def test_perturbation_basis_boundary_and_mass():
    basis = perturbation_basis(8)
    assert len(basis) == 8
    x = np.linspace(0.0, 1.0, 2001)
    for k, b in enumerate(basis):
        # Flat at both ends, so endpoint data of the profile is untouched.
        assert abs(b(0.0)) < 1e-12 and abs(b(1.0)) < 1e-12
        assert abs(b.deriv()(0.0)) < 1e-12 and abs(b.deriv()(1.0)) < 1e-12
        if k > 0:
            assert abs(simpson(b(x), x=x)) < 1e-10


def test_perturbation_polynomial_combines_basis():
    r = perturbation_polynomial([0.2, -0.1])
    basis = perturbation_basis(2)
    x = np.linspace(0.0, 1.0, 101)
    want = 0.2 * basis[0](x) - 0.1 * basis[1](x)
    np.testing.assert_allclose(r(x), want, atol=1e-13)
    assert perturbation_polynomial(None)(0.5) == 0.0


def test_normalization_constants():
    assert synthesize_orbit(TAU, 1.0, 0.0).c == 0.0
    assert abs(synthesize_orbit(math.pi, 1.0, 0.0).c
               - 0.18941796431573518) < 1e-12
    assert abs(synthesize_orbit(2 * TAU, 1.0, 0.0).c
               + 0.0010152230632042168) < 1e-12


def test_synthesized_orbit_sweeps_two_pi():
    orb = synthesize_orbit(3.0, 0.7, 0.4, [0.1, -0.05])
    grid = np.linspace(0.0, orb.theta_max, 8193)
    assert abs(simpson(orb.rho(grid), x=grid) - TAU) < 1e-10
    assert abs(orb.rho(0.0) - 1.0) < 1e-14
    assert abs(orb.rho(3.0) - 0.7) < 1e-12


def test_iota_squared_synthesizes_constant_minus_one():
    q = potential_with_monodromy(center_power(2))
    t = np.linspace(0.0, TAU, 1025)
    assert np.abs(q(t) + 1.0).max() < 1e-6


def test_round_trip_on_generic_target():
    target = from_left_iwasawa(2.6, 1.7, -0.8)
    q = potential_with_monodromy(target, coeffs=[0.08, -0.03])
    element, _ = monodromy(q)
    assert np.abs(element.mat - target.mat).max() < 1e-6
    assert abs(element.omega - target.omega) < 1e-6


def test_fiber_members_differ_but_share_monodromy():
    target = from_left_iwasawa(1.9, 0.8, 0.5)
    qa = potential_with_monodromy(target)
    qb = potential_with_monodromy(target, coeffs=[0.15])
    t = np.linspace(0.0, TAU, 2049)
    assert rel_l2(qa(t), qb(t), t) > 1e-6
    ea, _ = monodromy(qa)
    eb, _ = monodromy(qb)
    assert np.abs(ea.mat - eb.mat).max() < 1e-6
    assert abs(ea.omega - eb.omega) < 1e-6


def test_stiff_profile_gets_more_steps():
    tame = synthesize_orbit(TAU, 1.0, 0.0)
    stiff = synthesize_orbit(0.5, 1.0, 0.0)
    assert auto_steps(stiff) > auto_steps(tame)
    # Beyond integrate.MAX_STEPS the profile is refused before anything of
    # its size is allocated. Where rho underflows to 0, |q| is infinite, and
    # the refusal names the underflow instead of a step count.
    with pytest.raises(NumericalInvariantError,
                       match=r"needs .* steps, above the limit 4194304"):
        auto_steps(synthesize_orbit(20.0, 2.0, -1.0))
    with pytest.raises(NumericalInvariantError,
                       match=r"underflows double precision: its exponent "
                             r"E = log rho falls to -1\.443e\+04 at theta = "
                             r"6\.49, so rho = exp\(E\) is 0 there$"):
        auto_steps(synthesize_orbit(13.0, 100.0, -50.0))


def test_targets_outside_image_are_rejected():
    with pytest.raises(DomainError):
        potential_with_monodromy(identity())
    with pytest.raises(DomainError):
        potential_with_monodromy(from_left_iwasawa(-0.5, 1.0, 0.0))
    with pytest.raises(DomainError):
        potential_with_monodromy(reflection())


def test_normalize_c_matches_direct_sweep():
    p1 = base_polynomial(3.5, 1.4, 0.2)
    r = perturbation_polynomial([0.1])
    c = normalize_c(3.5, p1, r)
    orb = synthesize_orbit(3.5, 1.4, 0.2, [0.1])
    assert orb.c == c


def _assert_c_matches_scipy(theta_m, rho, nu, coeffs):
    # scipy's simpson and brentq are the independent reference: the sweep
    # at c is 2 pi within NORMALIZE_RTOL, and c is brentq's root of that
    # sweep within 5e-13 relative.
    p1 = base_polynomial(theta_m, rho, nu)
    r = perturbation_polynomial(coeffs)
    c = normalize_c(theta_m, p1, r)
    grid = np.linspace(0.0, theta_m, synthesis.THETA_NODES)
    base = p1(grid) + r(grid / theta_m)
    w = grid ** 2 * (theta_m - grid) ** 2

    def miss(x):
        return simpson(np.exp(base + x * w), x=grid) - TAU

    assert abs(miss(c)) <= synthesis.NORMALIZE_RTOL * TAU
    width = 1e-9 * (1.0 + abs(c))
    while miss(c - width) > 0.0 or miss(c + width) < 0.0:
        width *= 2.0
    want = scipy_brentq(miss, c - width, c + width, xtol=1e-300,
                        rtol=8.9e-16)
    assert abs(c - want) <= 5e-13 * abs(want)


def test_normalize_c_matches_scipy_brentq():
    rng = np.random.default_rng(21)
    cases = [((13.0, 2.0, -1.0), None), ((0.3, 0.5, -2.0), None),
             ((0.3, 0.5, -2.0), rng.uniform(-0.1, 0.1, 8))]
    for _ in range(12):
        cases.append(((float(rng.uniform(0.3, 13.0)),
                       math.exp(rng.uniform(-1.5, 1.5)),
                       float(rng.uniform(-2.0, 2.0))),
                      rng.uniform(-0.1, 0.1, 8)))
    for triple, coeffs in cases:
        _assert_c_matches_scipy(*triple, coeffs)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.floats(math.log(0.02), math.log(40.0)), st.floats(-6.0, 6.0),
       st.floats(-20.0, 20.0),
       st.lists(st.floats(-0.3, 0.3), max_size=19))
def test_normalize_c_matches_scipy_brentq_over_targets(log_theta, log_rho,
                                                       nu, coeffs):
    _assert_c_matches_scipy(math.exp(log_theta), math.exp(log_rho), nu,
                            coeffs)


def test_synthesis_loads_no_scipy():
    # normalize_c, the profile and auto_steps run on numpy alone.
    src = pathlib.Path(synthesis.__file__).resolve().parents[1]
    code = ("import sys\n"
            "from hillmono.synthesis import auto_steps, synthesize_orbit\n"
            "for triple in [(4.0, 1.3, 0.5), (2.0, 1.0, 0.5), (13.0, 2.0, -1.0),"
            " (0.3, 0.5, -2.0), (5.3, 1.9, 0.84)]:\n"
            "    auto_steps(synthesize_orbit(*triple, [0.05, -0.02]))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


_fiber = st.lists(st.floats(-0.1, 0.1), min_size=8, max_size=8)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.floats(2.0, 8.0), st.floats(-1.0, 1.0), st.floats(-1.5, 1.5),
       _fiber, _fiber)
def test_synthesis_round_trips_over_targets_and_fibers(theta_m, log_rho, nu,
                                                       ca, cb):
    assume(max(abs(a - b) for a, b in zip(ca, cb)) >= 0.01)
    target = from_right_iwasawa(theta_m, math.exp(log_rho), nu)
    t = np.linspace(0.0, TAU, 2049)
    profiles = []
    for coeffs in (ca, cb):
        q = potential_with_monodromy(target, coeffs)
        element, _ = monodromy(q, q.samples.size - 1)
        assert np.abs(element.mat - target.mat).max() <= 1e-6
        assert abs(element.omega - target.omega) <= 1e-6
        profiles.append(q(t))
    assert rel_l2(profiles[0], profiles[1], t) > 1e-6


def test_perturbation_basis_is_cached_and_read_only():
    basis = perturbation_basis(8)
    assert isinstance(basis, tuple)
    assert perturbation_basis(8) is basis
    assert perturbation_basis(3) == basis[:3]
    with pytest.raises(ValueError):
        basis[0].coef[0] = 1.0
    with pytest.raises(DomainError):
        perturbation_basis(-1)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=17),
       st.sampled_from([0, 1, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                        2 * _BLOCK + 5]),
       st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8),
       st.integers(0, 2 ** 32 - 1))
@example([-0.0, 1.0], 1, [-0.0], 0)  # Polynomial maps x = -0.0 to 0.0
def test_polyval_is_polynomial_call_bit_for_bit(coef, size, specials, seed):
    # Degrees 0 to 16, lengths on both sides of the block size, and drawn
    # points (signed zeros among them) spread through uniform ones.
    p = Polynomial(coef)
    x = np.random.default_rng(seed).uniform(-50.0, 50.0, size)
    x[:len(specials)] = specials[:size]
    assert _bits(polyval(p.coef, x)) == _bits(p(x))
    for scalar in (specials[0], np.float64(specials[0]),
                   np.array(specials[0])):
        got = polyval(p.coef, scalar)
        assert got.shape == ()
        assert _bits(got) == _bits(p(scalar))


def test_jet_is_the_closed_forms_bit_for_bit():
    orb = synthesize_orbit(5.3, 1.9, 0.84, [0.05, -0.02])
    theta = np.linspace(0.0, orb.theta_max, 3 * _BLOCK + 7)
    rho = np.exp(orb.exponent(theta))
    e1, e2 = orb.exponent_d1(theta), orb.exponent_d2(theta)
    got = orb.jet(theta)
    assert _bits(orb.rho(theta)) == _bits(rho)
    assert _bits(got[0]) == _bits(rho)
    assert _bits(got[1]) == _bits(e1 * rho)
    assert _bits(got[2]) == _bits((e2 + e1 ** 2) * rho)
    orbit = orb.sample()
    assert _bits(orbit.rho_prime) == _bits(orb.jet(orbit.theta_grid)[1])
    assert orb.jet(0.0)[1] == 0.0
