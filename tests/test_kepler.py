"""Orbit transforms: curves, polar profiles, and their inverses."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import simpson

from hillmono import (
    DomainError,
    NumericalInvariantError,
    FundamentalCurve,
    Orbit,
    Potential,
    curve_of,
    curve_of_orbit,
    load_curve_csv,
    monodromy,
    orbit_from_dict,
    orbit_of,
    orbit_to_dict,
    potential_of_curve,
    from_right_iwasawa,
    potential_of_orbit,
    potential_with_monodromy,
    read_json,
    save_curve_csv,
    synthesize_orbit,
    write_json,
)
from hillmono.kepler import _invert_times, _value_model
from hillmono.synthesis import auto_steps
from oracles import invert_times, rel_l2

TAU = math.tau


def trig_potential():
    return Potential.trig_poly([0.3], [0.0, 0.1])


def test_curve_of_constant_zero():
    curve = curve_of(Potential.constant(0.0), steps=512)
    np.testing.assert_allclose(curve.v[:, 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(curve.v[:, 1], curve.t, atol=1e-10)


def test_curve_wronskian_is_one():
    curve = curve_of(trig_potential(), steps=1024)
    w = curve.v[:, 0] * curve.vp[:, 1] - curve.v[:, 1] * curve.vp[:, 0]
    assert np.abs(w - 1.0).max() < 1e-10


def test_orbit_of_constant_minus_one_is_round():
    orbit = orbit_of(curve_of(Potential.constant(-1.0), steps=2048))
    assert abs(orbit.theta_max - TAU) < 1e-9
    assert np.abs(orbit.rho - 1.0).max() < 1e-9


def test_orbit_invariants():
    orbit = orbit_of(curve_of(trig_potential(), steps=4096))
    grid = orbit.theta_grid
    assert abs(orbit.rho[0] - 1.0) < 1e-8
    assert abs(orbit.rho_prime[0]) < 1e-6
    assert abs(simpson(orbit.rho, x=grid) - TAU) < 1e-7


def test_potential_curve_roundtrip():
    q = trig_potential()
    curve = curve_of(q, steps=4096)
    back = potential_of_curve(curve)
    t = np.linspace(0.0, TAU, 2049)
    assert rel_l2(back(t), q(t), t) < 1e-6


def test_full_roundtrip_through_orbit():
    q = trig_potential()
    curve = curve_of(q, steps=4096)
    orbit = orbit_of(curve)
    curve2 = curve_of_orbit(orbit, steps=4096)
    back = potential_of_curve(curve2)
    t = np.linspace(0.0, TAU, 2049)
    assert rel_l2(back(t), q(t), t) < 1e-4


def test_potential_of_orbit_shortcut():
    q = trig_potential()
    orbit = orbit_of(curve_of(q, steps=4096))
    back = potential_of_orbit(orbit, steps=4096)
    t = np.linspace(0.0, TAU, 2049)
    assert rel_l2(back(t), q(t), t) < 1e-4


def test_curve_of_orbit_reproduces_curve():
    q = trig_potential()
    curve = curve_of(q, steps=4096)
    orbit = orbit_of(curve)
    curve2 = curve_of_orbit(orbit, steps=4096)
    dev = np.abs(curve2.v - curve.v).max() / np.abs(curve.v).max()
    assert dev < 1e-6


def test_step_count_is_checked_before_allocation():
    # 10**12 steps would need terabytes; the count is refused first.
    orbit = orbit_of(curve_of(Potential.constant(-1.0), steps=256))
    for run in (lambda: curve_of_orbit(orbit, steps=10**12),
                lambda: potential_of_orbit(orbit, steps=10**12),
                lambda: potential_with_monodromy(
                    from_right_iwasawa(2.0, 1.0, 0.5), steps=10**12)):
        with pytest.raises(DomainError, match=r"\[16, 4194304\]"):
            run()


def test_analytic_orbit_sec_squared():
    # rho(theta) = sec^2(theta) scaled to sweep 2 pi is the q = 0 orbit:
    # v = (1, t) has |v|^2 = 1 + t^2 and swept angle arctan(t).
    theta_max = math.atan(TAU)
    grid = np.linspace(0.0, theta_max, 4097)
    orbit = Orbit(theta_max, 1.0 / np.cos(grid) ** 2)
    back = potential_of_orbit(orbit, steps=2048)
    t = np.linspace(0.0, TAU, 1025)
    assert np.abs(back(t)).max() < 1e-5
    curve = curve_of_orbit(orbit, steps=2048)
    assert np.abs(curve.v[:, 0] - 1.0).max() < 1e-8
    assert np.abs(curve.v[:, 1] - curve.t).max() < 1e-7


def test_orbit_validation():
    grid = np.linspace(0.0, TAU, 65)
    with pytest.raises(DomainError):
        Orbit(TAU, 2.0 - np.cos(grid))  # rho(0) != 1
    with pytest.raises(DomainError):
        Orbit(TAU, 1.5 * np.ones(65))  # sweeps 3 pi
    with pytest.raises(DomainError):
        Orbit(TAU, np.concatenate(([1.0], -np.ones(64))))


def test_curve_validation():
    t = np.linspace(0.0, TAU, 33)
    v = np.stack([np.cos(t), np.sin(t)], axis=1)
    vp = np.stack([-np.sin(t), np.cos(t)], axis=1)
    FundamentalCurve(t, v, vp)
    with pytest.raises(DomainError):
        FundamentalCurve(t, 2.0 * v, vp)  # wrong start and Wronskian


def test_curve_csv_roundtrip(tmp_path):
    curve = curve_of(trig_potential(), steps=256)
    path = tmp_path / "curve.csv"
    save_curve_csv(curve, path)
    back = load_curve_csv(path)
    np.testing.assert_array_equal(back.t, curve.t)
    np.testing.assert_array_equal(back.v, curve.v)
    np.testing.assert_array_equal(back.vp, curve.vp)


def test_orbit_json_roundtrip(tmp_path):
    orbit = orbit_of(curve_of(trig_potential(), steps=1024))
    data = orbit_to_dict(orbit)
    assert data["rho"] is orbit.rho and data["rho_prime"] is orbit.rho_prime
    write_json(data, tmp_path / "orbit.json")
    for back in (orbit_from_dict(data),
                 orbit_from_dict(read_json(tmp_path / "orbit.json"))):
        assert back.theta_max == orbit.theta_max
        np.testing.assert_array_equal(back.rho, orbit.rho)
        np.testing.assert_array_equal(back.rho_prime, orbit.rho_prime)


@pytest.mark.parametrize("target", [(2.0, 1.0, 0.5), (5.3, 1.9, 0.84),
                                    (3.5, 0.6, -0.4)])
def test_sampled_synthesized_orbit_keeps_its_monodromy_through_json(target):
    # JSON keeps rho, rho' and rho'' but not the analytic callables, so the
    # curvature formula reads the interpolated rho'' samples.
    orb = synthesize_orbit(*target)
    sampled = orb.sample()
    back = orbit_from_dict(orbit_to_dict(sampled))
    assert back.jet_fn is None
    np.testing.assert_array_equal(back.rho_second, sampled.rho_second)
    steps = auto_steps(orb)
    element, _ = monodromy(potential_of_orbit(back, steps), steps)
    want = from_right_iwasawa(*target)
    err = max(np.abs(element.mat - want.mat).max(),
              abs(element.omega - want.omega))
    assert err < 1e-8


def _counted(fn, sizes):
    def wrapped(theta):
        sizes.append(np.size(theta))
        return fn(theta)
    return wrapped


@pytest.mark.parametrize("target, coeffs, steps, sweeps", [
    ((13.0, 2.0, -1.0), None, 524288, 6),
    ((0.3, 0.5, -2.0), [-0.067, 0.0017], 131072, 3),
    ((5.3, 1.9, 0.84), None, 16384, 6),
    ((5.3, 1.9, 0.84), [0.05, -0.02], 16384, 6),
    ((2.65, 1.18, 0.26), None, 16384, 2),
])
def test_invert_times_matches_full_sweeps_on_synthesized_orbits(
        target, coeffs, steps, sweeps):
    # The reference evaluates rho with numpy's Polynomial, runs every sweep
    # on every point and evaluates the node values; the targets include
    # ones whose residual stalls above the stop test, so that all six
    # sweeps run.
    orb = synthesize_orbit(*target, coeffs)
    assert auto_steps(orb) == steps
    orbit = orb.sample()
    t = np.linspace(0.0, TAU, steps + 1)
    ref_sizes, sizes = [], []
    want = invert_times(orbit, _counted(lambda th: np.exp(orb.exponent(th)),
                                        ref_sizes), t)
    got = _invert_times(orbit, _counted(orbit.value_fn, sizes), t)
    assert got.tobytes() == want.tobytes()
    assert len(ref_sizes) == 1 + 2 * sweeps
    assert sizes[:2] == [steps + 1] * 2
    if sweeps > 2:
        # The later sweeps only see the points that still move.
        assert sizes[-1] < sizes[2] <= steps + 1
    assert len(sizes) <= 2 * sweeps


@pytest.mark.parametrize("q, steps, nodes", [
    (Potential.trig_poly([0.3], [0.0, 0.1]), 4096, None),
    (Potential.trig_poly([0.3], [0.0, 0.1]), 4096, 1000),
    (Potential.trig_poly([0.2, 0.1], [0.1], -1.2), 4096, None),
    (Potential.constant(-1.0), 1024, 4097),
])
def test_invert_times_matches_full_sweeps_on_sampled_orbits(q, steps, nodes):
    orbit = orbit_of(curve_of(q, steps), nodes)
    value_fn = _value_model(orbit)
    t = np.linspace(0.0, TAU, 2 * steps + 1)
    want = invert_times(orbit, value_fn, t)
    assert _invert_times(orbit, value_fn, t).tobytes() == want.tobytes()


def test_invert_times_fails_where_full_sweeps_fail():
    # At 2048 steps this orbit's residual stays above the 1e-9 gate.
    orbit = orbit_of(curve_of(Potential.trig_poly([0.2, 0.1], [0.1], -1.2),
                              2048))
    t = np.linspace(0.0, TAU, 4097)
    for invert in (invert_times, _invert_times):
        with pytest.raises(NumericalInvariantError, match="did not converge"):
            invert(orbit, _value_model(orbit), t)


def _peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_invert_times_peak_is_no_higher_than_full_sweeps():
    orb = synthesize_orbit(0.3, 0.5, -2.0)
    orbit = orb.sample()
    t = np.linspace(0.0, TAU, auto_steps(orb) + 1)
    full = _peak(lambda: invert_times(orbit, orbit.value_fn, t))
    assert _peak(lambda: _invert_times(orbit, orbit.value_fn, t)) <= full
