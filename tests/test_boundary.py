"""Separated and coupled two-point boundary conditions."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from hillmono import (
    DomainError,
    GeneralBC,
    Potential,
    SeparatedBC,
    beta_image,
    center_power,
    general_all_solutions,
    general_has_solution,
    general_residual,
    identity,
    monodromy,
    multiply,
    principal_lift,
    separated_has_solution,
    separated_index,
    separated_residual,
)
from hillmono.integrate import DEFAULT_STEPS
from oracles import char_poly_at_one

TAU = math.tau


def lift(q, steps=DEFAULT_STEPS):
    return monodromy(q, steps).element


def test_separated_bc_validation():
    SeparatedBC(0.0, math.pi)
    with pytest.raises(DomainError):
        SeparatedBC(-0.1, math.pi / 2)
    with pytest.raises(DomainError):
        SeparatedBC(math.pi, math.pi / 2)
    with pytest.raises(DomainError):
        SeparatedBC(0.0, 0.0)


def test_separated_worked_examples():
    dirichlet = SeparatedBC.dirichlet()
    neumann = SeparatedBC.neumann()
    assert separated_has_solution(lift(Potential.constant(-0.25)), dirichlet)
    assert not separated_has_solution(lift(Potential.constant(0.0)), dirichlet)
    assert separated_has_solution(lift(Potential.constant(0.0)), neumann)


def test_separated_index_dirichlet_family():
    dirichlet = SeparatedBC.dirichlet()
    for k in (1, 2, 3, 4):
        mu = lift(Potential.constant(-k * k / 4.0))
        assert separated_has_solution(mu, dirichlet)
        assert separated_index(mu, dirichlet) == k


def test_separated_index_neumann_raw_offset():
    assert separated_index(lift(Potential.constant(0.0)),
                           SeparatedBC.neumann()) == -1


def test_separated_index_step_invariance():
    q = Potential.constant(-1.0)
    bc = SeparatedBC.dirichlet()
    assert separated_index(lift(q, steps=16384), bc) == \
        separated_index(lift(q, steps=32768), bc)


def test_dirichlet_detection_by_bisection():
    dirichlet = SeparatedBC.dirichlet()

    def f(s):
        return separated_residual(lift(Potential.constant(-s), steps=2048),
                                  dirichlet)

    for k in (1, 2, 3, 4):
        want = k * k / 4.0
        root = brentq(f, want - 0.3, want + 0.3, xtol=1e-10)
        assert abs(root - want) < 1e-6


def test_general_bc_validation():
    GeneralBC(np.eye(2))
    with pytest.raises(DomainError):
        GeneralBC([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DomainError):
        GeneralBC([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(DomainError):
        GeneralBC(np.full((2, 2), np.nan))


@pytest.mark.parametrize("mat", [np.full((2, 2), 1e308),
                                 [[1e160, 1e160], [-1e160, 1e160]]])
def test_general_bc_refuses_an_overflowing_determinant(mat):
    # Finite entries whose determinant overflows: refused by name, with no
    # RuntimeWarning (pytest turns those into errors).
    with pytest.raises(DomainError, match=r"^boundary matrix \[\[.*\]\] has "
                       r"a determinant that overflows"):
        GeneralBC(mat)


def test_general_worked_examples():
    periodic = GeneralBC(np.eye(2))
    antiperiodic = GeneralBC(-np.eye(2))
    assert general_has_solution(lift(Potential.constant(-1.0)), periodic)
    assert general_has_solution(lift(Potential.constant(-0.25)), antiperiodic)
    assert not general_has_solution(lift(Potential.constant(0.0)), antiperiodic)
    assert abs(general_residual(lift(Potential.constant(0.0)), antiperiodic)
               + 4.0) < 1e-9


def test_general_all_solutions():
    periodic = GeneralBC(np.eye(2))
    antiperiodic = GeneralBC(-np.eye(2))
    assert general_all_solutions(lift(Potential.constant(-1.0)), periodic, 1e-6)
    assert not general_all_solutions(lift(Potential.constant(0.0)), periodic, 1e-6)
    assert general_all_solutions(lift(Potential.constant(-0.25)), antiperiodic,
                                 1e-6)


def test_general_agrees_with_char_poly_oracle():
    rng = np.random.default_rng(13)
    tol = 1e-8
    for _ in range(200):
        q = Potential.trig_poly(rng.normal(0.0, 0.4, size=2),
                                rng.normal(0.0, 0.4, size=2),
                                constant_term=rng.normal(0.0, 0.5))
        a_mat = rng.normal(size=(2, 2))
        if abs(np.linalg.det(a_mat)) <= 1e-6:
            continue
        bc = GeneralBC(a_mat)
        mu = lift(q)
        p1 = char_poly_at_one(np.linalg.inv(a_mat) @ mu.mat)
        resid = general_residual(mu, bc)
        # The two residuals differ exactly by the factor -a.
        assert abs(resid + bc.a * p1) < 1e-8 * max(1.0, abs(resid))
        assert (abs(resid) <= tol) == (abs(p1) <= tol / bc.a)


def test_symmetric_potentials_satisfy_reversal_condition():
    bc = GeneralBC(np.diag([1.0, -1.0]))
    rng = np.random.default_rng(29)
    for _ in range(20):
        # Pure cosine series are symmetric about t = pi: q(2 pi - t) = q(t).
        q = Potential.trig_poly(rng.normal(0.0, 0.5, size=3), (),
                                constant_term=rng.normal(0.0, 0.3))
        assert general_has_solution(lift(q), bc)


def test_principal_lift_windows():
    assert principal_lift(np.eye(2)).omega == 0.0
    half_turn = principal_lift(-np.eye(2))
    assert abs(half_turn.omega + math.pi) < 1e-12
    assert half_turn.component == 1
    flip = principal_lift(np.diag([1.0, -1.0]))
    assert flip.component == -1


def test_beta_image_identity_returns_monodromy():
    mu = monodromy(Potential.constant(-1.0)).element
    img = beta_image(GeneralBC(np.eye(2)), mu)
    np.testing.assert_allclose(img.element.mat, mu.mat, atol=1e-12)
    assert abs(img.element.omega - mu.omega) < 1e-9
    assert img.stratum.kind == "parabolic_vertex"


def test_beta_image_antiperiodic_shift():
    # On mu = iota^2 the antiperiodic shift lands at iota^3.
    mu = monodromy(Potential.constant(-1.0)).element
    img = beta_image(GeneralBC(-np.eye(2)), mu)
    assert abs(img.element.omega + 3.0 * math.pi) < 1e-6
    assert abs(img.trace + 2.0) < 1e-8
    assert img.stratum.kind == "parabolic_vertex"
    assert img.stratum.component_index == 3


def test_beta_image_reflected_component():
    mu = monodromy(Potential.constant(0.0)).element
    img = beta_image(GeneralBC(np.diag([1.0, -1.0])), mu)
    assert img.element.component == -1
    assert img.stratum is None
    # Trace zero matches the solvability of the symmetric condition.
    assert abs(img.trace) < 1e-9


def test_beta_image_shifts_compose_with_center():
    mu = monodromy(Potential.trig_poly([0.4], [0.2])).element
    img = beta_image(GeneralBC(-np.eye(2)), mu)
    want = multiply(center_power(1), mu)
    np.testing.assert_allclose(img.element.mat, want.mat, atol=1e-12)
    assert abs(img.element.omega - want.omega) < 1e-9
