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
from hillmono import kepler
from hillmono.kepler import INVERT_BLOCK, _invert_times, _model
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


def test_orbit_takes_both_callables_or_neither():
    full = synthesize_orbit(5.3, 1.9, 0.84).sample()
    for kw in ({"value_fn": full.value_fn}, {"jet_fn": full.jet_fn}):
        with pytest.raises(DomainError, match="together"):
            Orbit(full.theta_max, full.rho, **kw)


def test_rho_only_orbit_takes_the_spline_slope():
    # An orbit that carries only rho differentiates its cubic spline in both
    # transforms. On a synthesized profile stripped to rho, rho' between the
    # nodes is then within 8.1e-10 of the analytic one, relative, and the
    # curve's v' within 1.2e-8 (differences under PCHIP gave 1.3e-6 and
    # 3.3e-7).
    orb = synthesize_orbit(5.3, 1.9, 0.84)
    full = orb.sample()
    bare = Orbit(full.theta_max, full.rho)
    grid = bare.theta_grid
    th = 0.5 * (grid[1:] + grid[:-1])
    slope, want = _model(bare)[1](th)[1], orb.jet(th)[1]
    assert np.abs(slope - want).max() <= 2e-9 * np.abs(want).max()
    got, want = curve_of_orbit(bare).vp, curve_of_orbit(full).vp
    assert np.abs(got - want).max() <= 3e-8 * np.abs(want).max()


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
    # A sweep evaluates rho at each block's points and at their midpoints,
    # one block at a time; no call sees more than one block. The blocks
    # hold INVERT_BLOCK targets, the last one the remainder too.
    count = max((steps + 1) // INVERT_BLOCK, 1)
    blocks = [INVERT_BLOCK] * (count - 1)
    blocks.append(steps + 1 - sum(blocks))
    first = 2 * len(blocks)
    assert max(sizes) <= blocks[-1]
    # The first sweep covers every target once.
    assert sizes[:first] == [n for n in blocks for _ in range(2)]
    later = sizes[first:]
    assert later[0::2] == later[1::2]
    assert len(later) <= 2 * (sweeps - 1) * len(blocks)
    if sweeps > 2:
        # The later sweeps only see the points that still move.
        assert 0 < sum(later) < 2 * (sweeps - 1) * (steps + 1)


@pytest.mark.parametrize("q, steps, nodes", [
    (Potential.trig_poly([0.3], [0.0, 0.1]), 4096, None),
    (Potential.trig_poly([0.3], [0.0, 0.1]), 4096, 1000),
    (Potential.trig_poly([0.2, 0.1], [0.1], -1.2), 4096, None),
    (Potential.constant(-1.0), 1024, 4097),
    # 40001 targets: a block and a longer last one.
    (Potential.trig_poly([0.3], [0.0, 0.1]), 20000, None),
])
def test_invert_times_matches_full_sweeps_on_sampled_orbits(q, steps, nodes):
    orbit = orbit_of(curve_of(q, steps), nodes)
    value_fn, _ = _model(orbit)
    t = np.linspace(0.0, TAU, 2 * steps + 1)
    want = invert_times(orbit, value_fn, t)
    assert _invert_times(orbit, value_fn, t).tobytes() == want.tobytes()


def _synthesized():
    return synthesize_orbit(5.3, 1.9, 0.84).sample()


@pytest.mark.parametrize("make", [
    lambda: orbit_of(curve_of(Potential.trig_poly([0.3], [0.0, 0.1]), 4096)),
    # JSON drops the analytic callables, so rho'' is read off its samples.
    lambda: orbit_from_dict(orbit_to_dict(_synthesized())),
    _synthesized,
], ids=["sampled", "synthesized-json", "synthesized"])
def test_blocked_transforms_match_full_sweeps(make, monkeypatch):
    orbit = make()
    steps = 40000   # a block and a longer last one
    curve = curve_of_orbit(orbit, steps)
    q = potential_of_orbit(orbit, steps)
    # The same transforms with the unblocked inversion, and the curvature
    # formula on all points at once.
    monkeypatch.setattr(kepler, "_invert_times", invert_times)
    want = curve_of_orbit(orbit, steps)
    for got, ref in ((curve.t, want.t), (curve.v, want.v),
                     (curve.vp, want.vp)):
        assert got.tobytes() == ref.tobytes()
    value_fn, jet = _model(orbit)
    th = invert_times(orbit, value_fn, np.linspace(0.0, TAU, steps + 1))
    rho, drho, d2rho = jet(th)
    q_ref = (2.0 * d2rho * rho - 3.0 * drho ** 2 - 4.0 * rho ** 2) / (4.0 * rho ** 4)
    assert q.samples.tobytes() == q_ref.tobytes()


def test_invert_times_fails_where_full_sweeps_fail():
    # At 2048 steps this orbit's residual stays above the 1e-9 gate.
    orbit = orbit_of(curve_of(Potential.trig_poly([0.2, 0.1], [0.1], -1.2),
                              2048))
    t = np.linspace(0.0, TAU, 4097)
    for invert in (invert_times, _invert_times):
        with pytest.raises(NumericalInvariantError, match="did not converge"):
            invert(orbit, _model(orbit)[0], t)


def _peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_potential_of_orbit_peak_stays_below_five_grid_arrays():
    # The stiff synthesis target at its 524288 steps: the inversion holds
    # theta, its residual and the targets at full length, and per block
    # only small temporaries; the curvature formula overwrites theta.
    orbit = synthesize_orbit(13.0, 2.0, -1.0).sample()
    steps = 524288
    potential_of_orbit(orbit, steps)
    assert _peak(lambda: potential_of_orbit(orbit, steps)) < 5 * 8 * (steps + 1)


def test_invert_times_peak_is_no_higher_than_full_sweeps():
    orb = synthesize_orbit(0.3, 0.5, -2.0)
    orbit = orb.sample()
    t = np.linspace(0.0, TAU, auto_steps(orb) + 1)
    full = _peak(lambda: invert_times(orbit, orbit.value_fn, t))
    assert _peak(lambda: _invert_times(orbit, orbit.value_fn, t)) <= full
