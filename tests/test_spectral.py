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
import hillmono.spectral as spectral
from hillmono.spectral import DEFAULT_SCAN_STEPS
from oracles import (FROZEN_MATHIEU_FD2048, fd_line_eigenvalues,
                     two_phase_scan_line)

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
    # At 4096 steps pair 3 (gap 1.35e-4) misses by 4.0e-9, the trace
    # method's floor near a narrow pair; at 16384 steps every value is
    # within 7e-13.
    want = _mathieu_line_values(7)
    for steps, tol in ((DEFAULT_SCAN_STEPS, [1e-10] * 5 + [1e-8] * 2),
                       (16384, [1e-10] * 7)):
        records = oscillation_eigenvalues(Potential.trig_poly([2.0]),
                                          Potential.constant(1.0), 6, steps)
        got = np.array([r.s for r in records])
        assert np.all(np.abs(got - want) < tol)
        for pair in (1, 2, 3):
            assert records[2 * pair - 1].component == C1Component("cone_leaf", pair, -1)
            assert records[2 * pair].component == C1Component("cone_leaf", pair, 1)


def _spy_calls(monkeypatch):
    """Count spectral's evaluated s-values and its entries into the center
    path."""
    calls = _count_evaluations(monkeypatch)
    calls["center"] = 0
    roots_from_center = spectral._roots_from_center

    def counted_center(*args):
        calls["center"] += 1
        return roots_from_center(*args)

    monkeypatch.setattr(spectral, "_roots_from_center", counted_center)
    return calls


def test_split_pair_comes_from_the_node_crossings(monkeypatch):
    # Each leaf of pair 1 sits in its own node interval, so the trace-2
    # pass that finds the hyperplane eigenvalue finds both leaves too.
    calls = _spy_calls(monkeypatch)
    records = oscillation_eigenvalues(Potential.trig_poly([2.0]),
                                      Potential.constant(1.0), 2, 4096)
    assert [r.component for r in records[1:]] == [
        C1Component("cone_leaf", 1, -1), C1Component("cone_leaf", 1, 1)]
    assert calls["center"] == 0
    assert calls["values"] <= 70


def test_vertex_off_the_nodes_takes_the_maximum_path(monkeypatch):
    # On q = -3 s the first vertex is s = 1/3, while the nodes are -1/3 plus
    # dyadic steps: the trace stays below 2 at every node of window 2.
    calls = _spy_calls(monkeypatch)
    records = oscillation_eigenvalues(Potential.constant(0.0),
                                      Potential.constant(3.0), 2)
    assert calls["center"] == 1
    for r in records[1:]:
        assert r.component == C1Component("vertex", 1)
        assert r.multiplicity == 2
        assert abs(r.s - 1.0 / 3.0) < 1e-9


def test_window_with_one_node_crossing_takes_the_maximum_path(monkeypatch):
    # Drop the plus leaf from the node pass: window 2 then holds one
    # crossing and must fall back to the center path, not raise.
    direct = oscillation_eigenvalues(Potential.trig_poly([2.0]),
                                     Potential.constant(1.0), 2)
    crossings = spectral._crossings

    def one_short(line, nodes, f):
        out = yield from crossings(line, nodes, f)
        return out[:-1] if len(nodes) > 2 else out

    monkeypatch.setattr(spectral, "_crossings", one_short)
    calls = _spy_calls(monkeypatch)
    records = oscillation_eigenvalues(Potential.trig_poly([2.0]),
                                      Potential.constant(1.0), 2)
    assert calls["center"] == 1
    assert [r.component for r in records] == [r.component for r in direct]
    for a, b in zip(records, direct):
        assert abs(a.s - b.s) < 1e-12


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


def _sequential_crossings(line, nodes, f):
    """The trace crossings as the scan found them one brentq at a time."""
    from scipy.optimize import brentq

    out = []
    vals = [f(s) for s in nodes]
    for a, b, fa, fb in zip(nodes, nodes[1:], vals, vals[1:]):
        if fa == 0.0:
            out.append(a)
        elif fa * fb < 0:
            out.append(brentq(f, a, b, xtol=1e-13, rtol=8.9e-16))
    if vals[-1] == 0.0:
        out.append(nodes[-1])
    return out


def _sequential_roots_from_center(line, nodes, m):
    """The center path of window m run one scipy brentq call at a time: for
    the walls, the center alpha = m pi, the roots and the chord."""
    from scipy.optimize import brentq

    trace = lambda s: line(s)[2]
    label = lambda s: round(line(s)[3] / math.pi)
    walls = {}
    for a, b in zip(nodes, nodes[1:]):
        if label(a) != label(b) and min(label(a), label(b)) <= m <= max(
                label(a), label(b)):
            for s in _sequential_crossings(line, [a, b], trace):
                walls[round((line(s)[3] - math.pi / 2) / math.pi)] = s
    lo, hi = walls[m - 1], walls[m]
    s_mid = brentq(lambda s: line(s)[3] - m * math.pi, lo, hi, xtol=1e-13,
                   rtol=8.9e-16)
    top = trace(s_mid)

    def outward(level):
        f = lambda s: trace(s) - level
        return (brentq(f, lo, s_mid, xtol=1e-13, rtol=8.9e-16),
                brentq(f, s_mid, hi, xtol=1e-13, rtol=8.9e-16))

    if top > 2.0:
        roots = outward(2.0)
        if roots[1] - roots[0] >= spectral.S_RESOLUTION:
            return roots
    ends = outward(min(top, 2.0) - spectral.VERTEX_TRACE_TOL)
    return (0.5 * (ends[0] + ends[1]),) * 2


def _hex(values):
    return [float(x).hex() for x in values]


@pytest.mark.parametrize("q0, qplus, n_max", _BENCHMARK_LINES + _mild_lines(20))
def test_lockstep_crossings_match_sequential_scipy_brentq(q0, qplus, n_max):
    # The lockstep refinement evaluates its rounds in batches; the
    # reference evaluates every s alone, on a line scan of its own.
    line = spectral._LineScan(q0, qplus, DEFAULT_SCAN_STEPS)
    nodes = spectral._scan_line(line, (n_max + 1) // 2)
    got = spectral._run(line, spectral._crossings(line, nodes,
                                                  lambda r: r[2] - 2.0))
    alone = spectral._LineScan(q0, qplus, DEFAULT_SCAN_STEPS)
    want = _sequential_crossings(alone, nodes, lambda s: alone(s)[2] - 2.0)
    assert got and _hex(got) == _hex(want)


@pytest.mark.parametrize("q0, qplus, windows", [
    (*_FLAT, (2, 4, 6)),  # vertices, from the chord
    (Potential.constant(0.0), Potential.constant(3.0), (2,)),
    (*_MATHIEU, (2, 4)),  # split pairs, from the roots of trace 2
    (*_GENERIC, (2,)),
])
def test_maximum_path_matches_sequential_scipy(q0, qplus, windows):
    line = spectral._LineScan(q0, qplus, DEFAULT_SCAN_STEPS)
    nodes = spectral._scan_line(line, max(windows) // 2)
    got = spectral._run(line, spectral._together(
        spectral._roots_from_center(line, nodes, m) for m in windows))
    alone = spectral._LineScan(q0, qplus, DEFAULT_SCAN_STEPS)
    want = [_sequential_roots_from_center(alone, nodes, m) for m in windows]
    assert [_hex(r) for r in got] == [_hex(r) for r in want]


def test_benchmark_scans_take_at_most_58_kernel_calls(monkeypatch):
    # 119 s-values; 83 kernel calls when every refinement ran alone, 62
    # when the gallop ran before the bisection rounds.
    calls = _count_evaluations(monkeypatch)
    for q0, qplus, n_max in _BENCHMARK_LINES:
        oscillation_eigenvalues(q0, qplus, n_max)
    assert calls["values"] == 119
    assert calls["kernel"] <= 58


def test_hidden_pair_comes_back_as_a_vertex_between_its_leaves():
    # Pair 4 of this line splits by 5.9e-6, but at 4096 steps no node
    # resolves it and the trace at the window's Cartan center does not
    # reach 2: the center path gives a vertex. At 16384 steps the pair
    # splits, and the vertex lies between its two leaves.
    q0 = Potential.trig_poly([0.08096300765882813, -0.35969395787060243],
                             [0.8002449285409579, -0.4342655084100602],
                             constant_term=-0.07432995645601359)
    qplus = Potential.trig_poly([0.03739187304860661], [0.10692883917671825],
                                constant_term=1.0)
    coarse = oscillation_eigenvalues(q0, qplus, 8)
    fine = oscillation_eigenvalues(q0, qplus, 8, 16384)
    assert [r.component for r in coarse[7:]] == [C1Component("vertex", 4)] * 2
    assert [r.component for r in fine[7:]] == [
        C1Component("cone_leaf", 4, -1), C1Component("cone_leaf", 4, 1)]
    assert fine[7].s < coarse[7].s == coarse[8].s < fine[8].s
    for a, b in zip(coarse[:7], fine[:7]):
        assert a.component == b.component and abs(a.s - b.s) < 1e-8


@pytest.mark.parametrize("q0, qplus, n_max", _BENCHMARK_LINES + [
    (*_FLAT, 12), (*_MATHIEU, 12), (*_GENERIC, 12)] + _mild_lines(10))
def test_one_loop_walk_keeps_the_two_phase_nodes(q0, qplus, n_max):
    # The gallop node of a round lies above every midpoint of that round,
    # and the angle grows with s, so galloping inside the bisection rounds
    # changes when a node is evaluated, not which nodes there are.
    line = spectral._LineScan(q0, qplus, DEFAULT_SCAN_STEPS)
    pairs = (n_max + 1) // 2
    assert spectral._scan_line(line, pairs) == two_phase_scan_line(line, pairs)


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


class _AngleLine:
    """A stand-in line for the walk: theta_R and alpha are both angle(s),
    and the line starts at s0."""

    def __init__(self, s0, angle):
        self.q0 = lambda t: np.full_like(t, s0 + 1.0)
        self.qplus = lambda t: np.ones_like(t)
        self.angle = angle

    def evaluate(self, ss):
        return [(None, self.angle(s), None, self.angle(s)) for s in ss]

    def __call__(self, s):
        return self.evaluate([s])[0]


def test_walk_accepts_an_interval_at_the_width_floor():
    # A jump of pi at s = 0.3 cannot be resolved; bisection stops once the
    # interval holding it is no wider than 1e-6.
    line = _AngleLine(0.0, lambda s: s + math.pi * (s > 0.3))
    nodes = spectral._scan_line(line, 1)
    wide = [(a, b) for a, b in zip(nodes, nodes[1:])
            if line.angle(b) - line.angle(a) >= math.pi / 4]
    assert len(wide) == 1
    a, b = wide[0]
    assert a <= 0.3 < b and 5e-7 < b - a <= 1e-6


def test_walk_never_splits_an_interval_whose_midpoint_rounds_to_an_end():
    # At 2^50 the spacing of doubles is 0.25, so the first gallop interval
    # has no midpoint; its jump of pi is kept, not split into a repeat node.
    s0 = 2.0 ** 50
    line = _AngleLine(s0, lambda s: 0.01 * (s - s0) + math.pi * (s > s0))
    nodes = spectral._scan_line(line, 1)
    assert nodes[:2] == [s0, s0 + 0.25]
    assert np.all(np.diff(nodes) > 0)


def test_walk_refuses_a_winding_that_does_not_increase():
    line = _AngleLine(0.0, lambda s: 3.0 * s - 2.0 * (s >= 1.0))
    with pytest.raises(spectral.NumericalInvariantError, match="not increasing"):
        spectral._scan_line(line, 1)


@pytest.mark.parametrize("cap", [4, 12])
def test_walk_stops_at_the_node_cap(monkeypatch, cap):
    # Seven gallop nodes reach the last window, and with the midpoints the
    # rounds need more than twelve: the cap holds while galloping and after.
    monkeypatch.setattr(spectral, "_MAX_SCAN_NODES", cap)
    with pytest.raises(DomainError, match="eigenvalue scan exhausted"):
        spectral._scan_line(_AngleLine(0.0, lambda s: s), 1)
