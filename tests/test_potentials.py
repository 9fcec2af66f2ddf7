"""Potential evaluation kinds and their file format."""

import copy
import math
import os
import pathlib
import pickle
import subprocess
import sys

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import hillmono
from hillmono import DomainError, Potential, load_potential, write_json

TAU = math.tau


def test_constant_evaluation():
    q = Potential.constant(-1.5)
    assert q(0.3) == -1.5
    np.testing.assert_array_equal(q(np.zeros(4)), np.full(4, -1.5))


def test_trig_poly_evaluation():
    q = Potential.trig_poly([0.3], [0.0, 0.1], constant_term=0.2)
    t = np.linspace(0.0, TAU, 33)
    want = 0.2 + 0.3 * np.cos(t) + 0.1 * np.sin(2 * t)
    np.testing.assert_allclose(q(t), want, atol=1e-15)
    assert isinstance(q(1.0), float)


def test_sampled_cubic_matches_smooth_source():
    t = np.linspace(0.0, TAU, 257)
    q = Potential.sampled(np.cos(t))
    tt = np.linspace(0.0, TAU, 1001)
    assert np.abs(q(tt) - np.cos(tt)).max() < 1e-7


def _off_grid(samples):
    """Points between the knots of the inclusive grid of samples, and
    both ends."""
    knots = np.linspace(0.0, TAU, samples.size)
    return np.concatenate([[0.0], (knots[:-1] + knots[1:]) / 2,
                           knots[:-1] + 0.3 * np.diff(knots), [TAU]])


def test_cubic_spline_is_built_on_the_first_call():
    samples = np.cos(np.linspace(0.0, TAU, 65)) - 0.5 * np.sin(
        np.linspace(0.0, 2 * TAU, 65))
    q = Potential.sampled(samples)
    assert q._spline is None
    t = _off_grid(samples)
    eager = CubicSpline(np.linspace(0.0, TAU, samples.size), samples)
    assert q(t).tobytes() == eager(t).tobytes()
    assert q._spline is not None
    kept = q._spline
    assert q(t).tobytes() == eager(t).tobytes()
    assert q._spline is kept
    assert q(1.0) == float(eager(1.0))


def test_building_a_cubic_sampled_potential_loads_no_interpolator():
    # Writing a sampled potential, as kepler to-potential does, never
    # evaluates it, so it needs no spline and no scipy.interpolate.
    src = pathlib.Path(hillmono.__file__).resolve().parents[1]
    code = ("import sys\n"
            "import numpy as np\n"
            "from hillmono import Potential\n"
            "q = Potential.sampled(np.cos(np.linspace(0.0, 6.0, 33)))\n"
            "q.to_dict()\n"
            "print('scipy.interpolate' in sys.modules)\n"
            "q(0.5)\n"
            "print('scipy.interpolate' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["False", "True"]


@pytest.mark.parametrize("how", [copy.deepcopy,
                                 lambda q: pickle.loads(pickle.dumps(q))],
                         ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("called", [False, True], ids=["fresh", "called"])
def test_lazy_spline_survives_copies(how, called):
    samples = np.exp(np.sin(np.linspace(0.0, TAU, 129)))
    q = Potential.sampled(samples)
    t = _off_grid(samples)
    if called:
        q(t)
    twin = how(q)
    assert (twin._spline is None) is not called
    eager = CubicSpline(np.linspace(0.0, TAU, samples.size), samples)
    assert twin(t).tobytes() == eager(t).tobytes()
    assert q(t).tobytes() == eager(t).tobytes()
    with pytest.raises(AttributeError):
        twin._spline = None


def test_sampled_linear_interpolation():
    vals = np.linspace(0.0, 1.0, 33)
    q = Potential.sampled(vals, interp="linear")
    assert abs(q(TAU / 2) - 0.5) < 1e-12


def test_dict_roundtrip(tmp_path):
    path = tmp_path / "q.json"
    t = np.linspace(0.0, TAU, 65)
    for q in (Potential.constant(2.0),
              Potential.trig_poly([1.0, 0.5], [0.25]),
              Potential.sampled(np.linspace(1.0, 2.0, 33))):
        write_json(q.to_dict(), path)
        for back in (Potential.from_dict(q.to_dict()), load_potential(path)):
            np.testing.assert_array_equal(back(t), q(t))


def test_to_dict_hands_over_the_read_only_samples():
    q = Potential.sampled(np.linspace(1.0, 2.0, 33))
    samples = q.to_dict()["samples"]
    assert samples is q.samples
    assert not samples.flags.writeable


def test_load_potential_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(DomainError):
        load_potential(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DomainError):
        load_potential(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"kind": "wavelet"}')
    with pytest.raises(DomainError):
        load_potential(wrong)


def test_validation():
    with pytest.raises(DomainError):
        Potential.constant(float("nan"))
    with pytest.raises(DomainError):
        Potential.sampled([1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        Potential.sampled(np.ones(33), interp="quintic")
