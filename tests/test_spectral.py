"""Periodic spectrum along affine potential lines through the trace-2 set."""

import math
from types import SimpleNamespace

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
import hillmono.spectral as spectral
from hillmono.spectral import DEFAULT_SCAN_STEPS
from oracles import (FROZEN_MATHIEU_FD2048, fd_line_eigenvalues,
                     galerkin_line_eigenvalues)

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
    assert repr(C1Component("cone_leaf", 1, -1)) == "cone_leaf(1-)"
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


class _Counting:
    """A potential that counts its evaluations."""

    def __init__(self, q):
        self.q = q
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return self.q(t)


def _count_evaluations(monkeypatch):
    """Count the s-values spectral evaluates, and its kernel runs, through
    the batched entry point that every evaluation takes."""
    calls = {"values": 0, "kernel": 0}
    monodromies = spectral.monodromies

    def counted(samples, steps):
        calls["values"] += len(samples)
        calls["kernel"] += 1
        return monodromies(samples, steps)

    monkeypatch.setattr(spectral, "monodromies", counted)
    return calls


@pytest.mark.parametrize("n_max", [2, 4])
def test_scan_samples_the_line_once(monkeypatch, n_max):
    # One evaluation each for the positivity check and one for the grid the
    # monodromy calls share, however many s-values the scan evaluates.
    calls = _count_evaluations(monkeypatch)
    q0 = _Counting(Potential.trig_poly([2.0]))
    qplus = _Counting(Potential.constant(1.0))
    records = oscillation_eigenvalues(q0, qplus, n_max)
    assert len(records) == n_max + 1
    assert calls["values"] > 40
    assert calls["kernel"] < calls["values"]  # some rounds ran as batches
    assert (q0.calls, qplus.calls) == (2, 2)


def _mathieu_line_values(count):
    """s_0.. on 2 cos t - s from scipy's Mathieu values at q = 4, over 4."""
    from scipy.special import mathieu_a, mathieu_b

    vals = [mathieu_a(0, 4.0)]
    for m in range(2, count + 1, 2):
        vals += [mathieu_b(m, 4.0), mathieu_a(m, 4.0)]
    return np.array(vals[:count]) / 4.0


def test_mathieu_split_pairs_match_scipy():
    # Measured at 4096 steps: 2.1e-12 for pair 1, 7.1e-12 for pair 2 and
    # 7.2e-11 for pair 3 (gap 1.35e-4), RK4's error; at 16384 steps every
    # value is within 4.9e-13.
    want = _mathieu_line_values(7)
    for steps, tol in ((DEFAULT_SCAN_STEPS, [2e-12] * 2 + [5e-12]
                        + [2e-11] * 2 + [2e-10] * 2),
                       (16384, [2e-12] * 7)):
        records = oscillation_eigenvalues(Potential.trig_poly([2.0]),
                                          Potential.constant(1.0), 6, steps)
        got = np.array([r.s for r in records])
        assert np.all(np.abs(got - want) < tol)
        for pair in (1, 2, 3):
            assert records[2 * pair - 1].component == C1Component("cone_leaf", pair, -1)
            assert records[2 * pair].component == C1Component("cone_leaf", pair, 1)


_FLAT = (Potential.constant(0.0), Potential.constant(1.0))
_MATHIEU = (Potential.trig_poly([2.0]), Potential.constant(1.0))
_GENERIC = (Potential.trig_poly([1.0], [0.0, 0.0, 0.5]),
            Potential.trig_poly([0.2], [], constant_term=1.0))
# The benchmark's three spectrum scans, at --nmax 2.
_BENCHMARK_LINES = [(*_FLAT, 2), (*_MATHIEU, 2), (*_GENERIC, 2)]


def _mild_lines(count, seed=11):
    """Random lines q0 - s qplus that the scan resolves at 4096 steps: q0
    with one or two harmonics in +-1 and a constant in +-1, qplus one plus
    a harmonic in +-0.2, and n_max from 1 to 4."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(count):
        h = int(rng.integers(1, 3))
        q0 = Potential.trig_poly(list(rng.uniform(-1, 1, h)),
                                 list(rng.uniform(-1, 1, h)),
                                 constant_term=float(rng.uniform(-1, 1)))
        qplus = Potential.trig_poly([float(rng.uniform(-0.2, 0.2))],
                                    [float(rng.uniform(-0.2, 0.2))],
                                    constant_term=1.0)
        lines.append((q0, qplus, int(rng.integers(1, 5))))
    return lines


def _oracle_bound(p, steps, floor):
    """Per-value bound against the Galerkin oracle for a value of window 2p.

    The floor is the proxy's rounding, which grows with the span of the
    line: at most 6e-13 for p <= 1 on lines to --nmax 4, and 5e-12 on the
    --nmax 12 lines, which span [-3, 61]. The second term is RK4's
    error, which falls as steps^-4 and grows about as p^6: measured at 4096
    steps, 8.2e-12 at p = 2, 7e-11 at p = 3, 4e-10 at p = 4, 1.5e-9 at
    p = 5 and 4.5e-9 at p = 6; at 16384 steps, 2e-11 at p = 6.
    """
    return floor + 2e-11 * (DEFAULT_SCAN_STEPS / steps) ** 4 * (p / 2) ** 6


def _assert_values_match_the_galerkin_oracle(q0, qplus, n_max, steps, floor):
    records = oscillation_eigenvalues(q0, qplus, n_max, steps)
    want = galerkin_line_eigenvalues(q0, qplus, n_max + 1)
    for k, (r, s_ref) in enumerate(zip(records, want)):
        assert abs(r.s - s_ref) < _oracle_bound((k + 1) // 2, steps, floor)


@pytest.mark.parametrize("q0, qplus, n_max", _BENCHMARK_LINES + _mild_lines(20))
def test_values_match_the_galerkin_oracle(q0, qplus, n_max):
    _assert_values_match_the_galerkin_oracle(q0, qplus, n_max,
                                             DEFAULT_SCAN_STEPS, 1e-12)


@pytest.mark.parametrize("q0, qplus, n_max", _BENCHMARK_LINES + [
    (*_FLAT, 12), (*_MATHIEU, 12), (*_GENERIC, 12)] + _mild_lines(10))
def test_values_at_16384_steps_match_the_galerkin_oracle(q0, qplus, n_max):
    _assert_values_match_the_galerkin_oracle(q0, qplus, n_max, 16384, 1e-11)


def test_mathieu_pair_four_splits_at_n_max_12():
    # Pair 4 splits by 7.8e-8; the trace, flat at a double root, cannot
    # resolve that at 4096 steps, but det(M - I) on the proxies can. Pairs 5
    # and 6 split by less than S_RESOLUTION and are vertices.
    want = _mathieu_line_values(13)
    records = oscillation_eigenvalues(Potential.trig_poly([2.0]),
                                      Potential.constant(1.0), 12)
    assert [r.component for r in records[7:9]] == [
        C1Component("cone_leaf", 4, -1), C1Component("cone_leaf", 4, 1)]
    assert [r.component for r in records[9:]] == (
        [C1Component("vertex", 5)] * 2 + [C1Component("vertex", 6)] * 2)
    got = np.array([r.s for r in records])
    assert np.all(np.abs(got - want) < [_oracle_bound((k + 1) // 2, 4096, 1e-11)
                                        for k in range(13)])


def test_benchmark_scans_take_at_most_124_members(monkeypatch):
    # 33 Chebyshev points, two sample-test points, the gallop's points
    # inside the interval and the roots: 40, 42 and 42 s-values in 14, 15
    # and 15 kernel calls.
    calls = _count_evaluations(monkeypatch)
    for q0, qplus, n_max in _BENCHMARK_LINES:
        oscillation_eigenvalues(q0, qplus, n_max)
    assert calls["values"] <= 124
    assert calls["kernel"] <= 44


def test_vertex_between_the_sample_points():
    # On q = -3 s the first vertex is s = 1/3, which is none of the points
    # the proxy interpolates.
    records = oscillation_eigenvalues(Potential.constant(0.0),
                                      Potential.constant(3.0), 2)
    for r in records[1:]:
        assert r.component == C1Component("vertex", 1)
        assert r.multiplicity == 2
        assert abs(r.s - 1.0 / 3.0) < 1e-13


def test_hidden_pair_splits_at_the_scan_steps():
    # Pair 4 of this line splits by 5.9e-6. RK4's determinant drift at
    # 4096 steps lowers the top of the trace below 2, so the trace has no
    # root there, but det(M - I) splits the pair within 3.8e-10 of its
    # 16384-step leaves.
    q0 = Potential.trig_poly([0.08096300765882813, -0.35969395787060243],
                             [0.8002449285409579, -0.4342655084100602],
                             constant_term=-0.07432995645601359)
    qplus = Potential.trig_poly([0.03739187304860661], [0.10692883917671825],
                                constant_term=1.0)
    coarse = oscillation_eigenvalues(q0, qplus, 8)
    fine = oscillation_eigenvalues(q0, qplus, 8, 16384)
    leaves = [C1Component("cone_leaf", 4, -1), C1Component("cone_leaf", 4, 1)]
    assert [r.component for r in coarse[7:]] == leaves
    assert [r.component for r in fine[7:]] == leaves
    for a, b in zip(coarse, fine):
        assert a.component == b.component and abs(a.s - b.s) < 1e-9


def test_unreachable_n_max_is_refused_before_sampling():
    # Each step turns the winding by less than pi/2, so a scan at n steps
    # never gets past cone n / 2.
    q0 = _Counting(Potential.constant(0.0))
    qplus = _Counting(Potential.constant(1.0))
    for n_max, steps in ((10 ** 400, DEFAULT_SCAN_STEPS), (2049, 4096),
                         (9, 16)):
        with pytest.raises(DomainError, match=f"^n_max must be at most "
                           f"{steps // 2} at {steps} steps"):
            oscillation_eigenvalues(q0, qplus, n_max, steps)
    assert (q0.calls, qplus.calls) == (0, 0)


class _InjectedLine:
    """A stand-in for the line scan that starts at s = 0: matrix(s) gives
    M(s), theta_R and the Cartan angle alpha there."""

    def __init__(self, matrix):
        self.q0 = self.qplus = lambda t: np.ones_like(t)
        self.steps = DEFAULT_SCAN_STEPS
        self.matrix = matrix

    def evaluate(self, ss):
        out = []
        for s in ss:
            mat, theta_r, alpha = self.matrix(s)
            out.append((SimpleNamespace(mat=np.array(mat)), theta_r, None, alpha))
        return out

    def __call__(self, s):
        return self.evaluate([s])[0]


def _scan(monkeypatch, matrix, n_max):
    line = _InjectedLine(matrix)
    monkeypatch.setattr(spectral, "_LineScan", lambda q0, qplus, steps: line)
    return oscillation_eigenvalues(line.q0, line.qplus, n_max)


def _rotation(angle):
    """A rotation by angle(s), whose theta_R and alpha are both angle(s)."""
    def matrix(s):
        a = angle(s)
        return [[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]], a, a
    return matrix


def test_scan_refuses_a_winding_that_does_not_increase(monkeypatch):
    with pytest.raises(spectral.NumericalInvariantError, match="not increasing"):
        _scan(monkeypatch, _rotation(lambda s: 3.0 * s - 2.0 * (s >= 1.0)), 1)


def test_scan_refuses_a_certificate_mismatch(monkeypatch):
    # trace - 2 = (s - 1)(s - 2)(s - 3) / 8 has three roots in window 0.
    def matrix(s):
        return [[1.0 + (s - 1.0) * (s - 2.0) * (s - 3.0) / 8, 0.0],
                [0.0, 1.0]], s, 0.1 * s

    with pytest.raises(spectral.NumericalInvariantError,
                       match="window 0 holds 3 roots of trace - 2 in the "
                             "proxy at N = 16 Chebyshev points and --steps 4096"):
        _scan(monkeypatch, matrix, 0)


@pytest.mark.parametrize("cap", [32, spectral._MAX_DEGREE])
def test_scan_refuses_a_proxy_at_the_degree_cap(monkeypatch, cap):
    # A kink at s = 1 leaves every Chebyshev tail above the tolerance.
    monkeypatch.setattr(spectral, "_MAX_DEGREE", cap)
    with pytest.raises(DomainError, match=f"not resolved at N = {cap} "
                       f"Chebyshev points, the most it takes, at --steps 4096"):
        _scan(monkeypatch, _rotation(lambda s: s + 0.5 * abs(s - 1.0)), 1)

