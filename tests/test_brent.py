"""The package's Brent root finder against scipy's, bit for bit."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from hillmono import DomainError
from hillmono.brent import brentq, solve


def _random_function(rng):
    """A smooth function with a few roots on [-3, 3], scaled by
    up to 10^+-200 so that products of its values can underflow."""
    c = rng.normal(size=5).tolist()
    w = float(rng.uniform(0.5, 8.0))
    scale = 10.0 ** float(rng.uniform(-200.0, 200.0))
    return lambda x: scale * (c[0] + c[1] * math.sin(w * x + c[2])
                              + c[3] * x ** 3 + c[4] * x)


def _brackets(rng, count):
    """count (f, a, b) with f changing sign on [a, b]."""
    out = []
    while len(out) < count:
        f = _random_function(rng)
        a, b = sorted(rng.uniform(-3.0, 3.0, 2).tolist())
        if (f(a) < 0) != (f(b) < 0):
            out.append((f, a, b))
    return out


def test_brentq_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(20)
    for f, a, b in _brackets(rng, 3000):
        want = scipy_brentq(f, a, b, xtol=1e-13, rtol=8.9e-16)
        got = solve(brentq(a, b, xtol=1e-13, rtol=8.9e-16), f)
        assert got.hex() == float(want).hex()
    for f, a, b in _brackets(rng, 200):  # scipy's default tolerances
        assert solve(brentq(a, b), f) == scipy_brentq(f, a, b)


def test_brentq_ends_and_refusals():
    # A zero at an end is the root, as in scipy, even where f keeps its sign.
    for f in (lambda x: x - 0.25, lambda x: (x - 0.25) ** 2):
        assert solve(brentq(0.25, 1.0), f) == scipy_brentq(f, 0.25, 1.0) == 0.25
        assert solve(brentq(-1.0, 0.25), f) == scipy_brentq(f, -1.0, 0.25) == 0.25
    for f in (lambda x: x * x + 1.0, lambda x: 1e-200):
        with pytest.raises(ValueError, match="different signs"):
            scipy_brentq(f, -1.0, 1.0)
        with pytest.raises(DomainError, match="different signs"):
            solve(brentq(-1.0, 1.0), f)
    with pytest.raises(DomainError, match="NaN"):
        solve(brentq(-1.0, 1.0), lambda x: math.nan if x > 0 else -1.0)
