"""Periodic spectrum along affine potential lines through the trace-2 set."""

import math

import numpy as np
import pytest

from hillmono import (
    C1Component,
    DomainError,
    Potential,
    c1_component,
    in_c1,
    in_c2,
    monodromy,
    oscillation_eigenvalues,
)
from hillmono.spectral import DEFAULT_SCAN_STEPS
from oracles import FROZEN_MATHIEU_FD2048, fd_line_eigenvalues

TAU = math.tau


def lift(q):
    """Lifted monodromy of q at the resolution of the spectrum scan."""
    return monodromy(q, DEFAULT_SCAN_STEPS).element


def test_membership_examples():
    assert in_c1(lift(Potential.constant(-1.0)))
    assert in_c2(lift(Potential.constant(-1.0)))
    assert in_c1(lift(Potential.constant(0.0)))
    assert not in_c2(lift(Potential.constant(0.0)))
    assert not in_c1(lift(Potential.constant(1.0)))
    assert not in_c1(lift(Potential.constant(-0.25)))  # trace -2


def test_component_examples():
    assert c1_component(lift(Potential.constant(0.0))) == C1Component("hyperplane")
    assert c1_component(lift(Potential.constant(-1.0))) == C1Component("vertex", 1)
    assert c1_component(lift(Potential.constant(-4.0))) == C1Component("vertex", 2)
    with pytest.raises(DomainError):
        c1_component(lift(Potential.constant(1.0)))


def test_component_labels():
    assert repr(C1Component("hyperplane")) == "hyperplane"
    assert repr(C1Component("vertex", 2)) == "vertex(2)"
    assert repr(C1Component("cone_leaf", 1, -1)) == "cone_leaf(1,-)"
    with pytest.raises(DomainError):
        C1Component("cone_leaf", 0, 1)
    with pytest.raises(DomainError):
        C1Component("vertex", 1, sign=1)


def test_flat_line_spectrum():
    records = oscillation_eigenvalues(Potential.constant(0.0),
                                      Potential.constant(1.0), 4)
    s = np.array([r.s for r in records])
    np.testing.assert_allclose(s, [0.0, 1.0, 1.0, 4.0, 4.0], atol=1e-6)
    variants = [r.component for r in records]
    assert variants[0] == C1Component("hyperplane")
    assert variants[1] == variants[2] == C1Component("vertex", 1)
    assert variants[3] == variants[4] == C1Component("vertex", 2)
    assert [r.multiplicity for r in records] == [1, 2, 2, 2, 2]
    assert s[0] < s[1] <= s[2] < s[3] <= s[4]


def test_flat_line_vertices_through_sixteen():
    # Between the vertices 7 and 8 the scan meets q = -60.1875, whose
    # windings at 4096 steps must stay inside the congruence gate.
    records = oscillation_eigenvalues(Potential.constant(0.0),
                                      Potential.constant(1.0), 16)
    assert len(records) == 17
    for k in range(1, 9):
        for r in records[2 * k - 1:2 * k + 1]:
            assert r.component == C1Component("vertex", k)
            assert abs(r.s - k * k) < 1e-6


def test_half_period_shift_keeps_mathieu_records():
    # q0 = -2 cos t is 2 cos t shifted by pi: the same periodic spectrum.
    plain = oscillation_eigenvalues(Potential.trig_poly([2.0]),
                                    Potential.constant(1.0), 4)
    shifted = oscillation_eigenvalues(Potential.trig_poly([-2.0]),
                                      Potential.constant(1.0), 4)
    assert len(plain) == len(shifted) == 5
    for a, b in zip(plain, shifted):
        assert abs(a.s - b.s) < 1e-9
        assert a.component == b.component and a.multiplicity == b.multiplicity


def test_flat_line_against_fd_oracle():
    oracle = fd_line_eigenvalues(lambda t: np.zeros_like(t),
                                 lambda t: np.ones_like(t), 5, sigma=-1.0)
    records = oscillation_eigenvalues(Potential.constant(0.0),
                                      Potential.constant(1.0), 4)
    got = np.array([r.s for r in records])
    assert np.abs(got - oracle).max() < 1e-4


def test_mathieu_line_matches_frozen_oracle():
    records = oscillation_eigenvalues(Potential.trig_poly([2.0]),
                                      Potential.constant(1.0), 6)
    got = np.array([r.s for r in records[:5]])
    assert np.abs(got - np.array(FROZEN_MATHIEU_FD2048)).max() < 1e-4
    # All pairs split into simple cone leaves, minus leaf first. At the
    # window-6 crossings the first column of M - I is at the rounding level,
    # so the leaf sign must not be read from it.
    assert [r.multiplicity for r in records] == [1] * 7
    for pair in (1, 2, 3):
        assert records[2 * pair - 1].component == C1Component("cone_leaf", pair, -1)
        assert records[2 * pair].component == C1Component("cone_leaf", pair, 1)


def test_frozen_oracle_regenerates():
    vals = fd_line_eigenvalues(lambda t: 2.0 * np.cos(t),
                               lambda t: np.ones_like(t), 5)
    assert np.abs(vals - np.array(FROZEN_MATHIEU_FD2048)).max() < 5e-8


def test_generic_line_ordering_and_records():
    q0 = Potential.trig_poly([1.0, 0.0, 0.0], [0.0, 0.0, 0.5])
    qplus = Potential.trig_poly([0.2], [], constant_term=1.0)
    records = oscillation_eigenvalues(q0, qplus, 6)
    s = np.array([r.s for r in records])
    assert len(records) == 7
    assert np.all(np.diff(s) >= 0.0)
    assert records[0].component.variant == "hyperplane"
    for r in records:
        assert abs(r.trace - 2.0) < 1e-6
        assert r.theta_r > 0.0
    # theta_R at the n-th pair eigenvalue is near 2 pi n.
    for r in records[1:]:
        assert abs(r.theta_r - TAU * r.component.n) < math.pi / 2


def test_eigenvalues_match_fd_on_generic_line():
    q0 = Potential.trig_poly([1.0, 0.0, 0.0], [0.0, 0.0, 0.5])
    qplus = Potential.trig_poly([0.2], [], constant_term=1.0)
    records = oscillation_eigenvalues(q0, qplus, 4)
    got = np.array([r.s for r in records])
    oracle = fd_line_eigenvalues(q0, qplus, 5, sigma=-2.0)
    assert np.abs(got - oracle).max() < 1e-4


def test_direction_must_be_positive():
    with pytest.raises(DomainError):
        oscillation_eigenvalues(Potential.constant(0.0),
                                Potential.constant(-1.0), 2)
    with pytest.raises(DomainError):
        oscillation_eigenvalues(Potential.constant(0.0),
                                Potential.trig_poly([1.5]), 2)
