"""Potential evaluation kinds and their file format."""

import math

import numpy as np
import pytest

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
