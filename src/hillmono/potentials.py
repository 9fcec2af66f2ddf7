"""Potential functions q(t) on [0, 2 pi] and their file format.

Three kinds are supported: constant, trigonometric polynomial, and sampled
on a uniform inclusive grid. Sampled potentials are evaluated through
linear interpolation or a cubic spline; trigonometric polynomials are
evaluated directly from their coefficients.
"""

import json
import math

import numpy as np

from .errors import DomainError, Immutable

TAU = math.tau

MIN_SAMPLES = 17

_INTERPS = ("linear", "cubic")


class Potential(Immutable):
    """Immutable potential on [0, 2 pi]; call it on scalars or arrays."""

    __slots__ = ("kind", "c", "cos_coeffs", "sin_coeffs", "constant_term",
                 "samples", "interp", "_spline")

    def __init__(self, kind, *, c=0.0, cos_coeffs=(), sin_coeffs=(),
                 constant_term=0.0, samples=None, interp="cubic"):
        if kind == "constant":
            if not math.isfinite(c):
                raise DomainError("constant potential needs a finite value")
        elif kind == "trig_poly":
            if any(isinstance(v, (str, bytes))
                   for v in (cos_coeffs, sin_coeffs)):
                raise DomainError("trig poly coefficients must be a list of "
                                  "numbers, not a string")
            cos_coeffs = tuple(float(v) for v in cos_coeffs)
            sin_coeffs = tuple(float(v) for v in sin_coeffs)
            vals = cos_coeffs + sin_coeffs + (constant_term,)
            if not all(math.isfinite(v) for v in vals):
                raise DomainError("trig poly coefficients must be finite")
        elif kind == "sampled":
            samples = np.array(samples, dtype=float)
            if samples.ndim != 1 or samples.size < MIN_SAMPLES:
                raise DomainError(
                    f"sampled potential needs >= {MIN_SAMPLES} values on the "
                    "inclusive uniform grid over [0, 2 pi]")
            if not np.all(np.isfinite(samples)):
                raise DomainError("sampled potential values must be finite")
            if interp not in _INTERPS:
                raise DomainError(f"interp must be one of {_INTERPS}")
            samples.setflags(write=False)
        else:
            raise DomainError(f"unknown potential kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "c", float(c))
        object.__setattr__(self, "cos_coeffs", tuple(cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(sin_coeffs))
        object.__setattr__(self, "constant_term", float(constant_term))
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "interp", interp)
        spline = None
        if kind == "sampled" and interp == "cubic":
            from scipy.interpolate import CubicSpline

            grid = np.linspace(0.0, TAU, samples.size)
            spline = CubicSpline(grid, samples)
        object.__setattr__(self, "_spline", spline)

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value):
        return cls("constant", c=value)

    @classmethod
    def trig_poly(cls, cos_coeffs=(), sin_coeffs=(), constant_term=0.0):
        return cls("trig_poly", cos_coeffs=cos_coeffs, sin_coeffs=sin_coeffs,
                   constant_term=constant_term)

    @classmethod
    def sampled(cls, values, interp="cubic"):
        return cls("sampled", samples=values, interp=interp)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        if self.kind == "constant":
            out = np.full(t.shape, self.c)
        elif self.kind == "trig_poly":
            out = np.full(t.shape, self.constant_term)
            # A sum past the double range gives inf or nan, which the
            # callers refuse.
            with np.errstate(over="ignore", invalid="ignore"):
                for j, a in enumerate(self.cos_coeffs, start=1):
                    out += a * np.cos(j * t)
                for j, b in enumerate(self.sin_coeffs, start=1):
                    out += b * np.sin(j * t)
        elif self.interp == "linear":
            grid = np.linspace(0.0, TAU, self.samples.size)
            out = np.interp(t, grid, self.samples)
        else:
            out = self._spline(t)
        return float(out[0]) if scalar else out

    def sample(self, n):
        """Values on the inclusive uniform n-point grid over [0, 2 pi]."""
        if n < 2:
            raise DomainError("need at least two sample points")
        return self(np.linspace(0.0, TAU, n))

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        if self.kind == "constant":
            return {"kind": "constant", "c": self.c}
        if self.kind == "trig_poly":
            return {"kind": "trig_poly",
                    "cos_coeffs": list(self.cos_coeffs),
                    "sin_coeffs": list(self.sin_coeffs),
                    "constant_term": self.constant_term}
        return {"kind": "sampled",
                "samples": self.samples,
                "interp": self.interp}

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict) or "kind" not in data:
            raise DomainError("potential JSON must be an object with a 'kind'")
        kind = data["kind"]
        try:
            if kind == "constant":
                return cls.constant(float(data["c"]))
            if kind == "trig_poly":
                return cls.trig_poly(
                    cos_coeffs=data.get("cos_coeffs", ()),
                    sin_coeffs=data.get("sin_coeffs", ()),
                    constant_term=float(data.get("constant_term", 0.0)))
            if kind == "sampled":
                return cls.sampled(data["samples"], data.get("interp", "cubic"))
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed potential JSON: {exc}") from None
        raise DomainError(f"unknown potential kind {kind!r}")

    def __repr__(self):
        if self.kind == "constant":
            return f"Potential.constant({self.c:.6g})"
        if self.kind == "trig_poly":
            return (f"Potential.trig_poly(cos={list(self.cos_coeffs)}, "
                    f"sin={list(self.sin_coeffs)}, const={self.constant_term:.6g})")
        return f"Potential.sampled(<{self.samples.size} values>, {self.interp!r})"


def load_potential(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read potential file: {exc}") from None
    return Potential.from_dict(data)
