"""The value types are validated once and cannot change afterwards."""

import copy
import pickle

import numpy as np
import pytest

from hillmono import (
    C1Component,
    EigenvalueRecord,
    GeneralBC,
    Potential,
    SeparatedBC,
    beta_image,
    classify,
    curve_of,
    identity,
    integrate,
    monodromy,
    orbit_of,
    synthesize_orbit,
)
from hillmono.errors import Immutable

_Q = Potential.constant(-1.0)

_VALUES = {
    "FundamentalPath": lambda: integrate(_Q, 256),
    "CoverElement": identity,
    "Stratum": lambda: classify(identity()),
    "FundamentalCurve": lambda: curve_of(_Q, 256),
    "Orbit": lambda: orbit_of(curve_of(_Q, 256)),
    "Potential": lambda: _Q,
    "SynthesizedOrbit": lambda: synthesize_orbit(2.0, 1.0, 0.5),
    "C1Component": lambda: C1Component("cone_leaf", 1, -1),
    "SeparatedBC": SeparatedBC.dirichlet,
    "GeneralBC": lambda: GeneralBC(np.eye(2)),
    "MonodromyResult": lambda: monodromy(_Q, 256),
    "BetaImage": lambda: beta_image(GeneralBC(np.eye(2)), identity()),
    "EigenvalueRecord": lambda: EigenvalueRecord(
        0, 1.0, 1, C1Component("hyperplane"), 2.0, 1.0),
}


def _assert_refuses_setattr_and_delattr(value, name):
    # The validated classes share one message; the records are NamedTuples.
    if isinstance(value, Immutable):
        field, message = value.__slots__[0], f"^{name} is immutable$"
    else:
        field, message = value._fields[0], None
    kept = getattr(value, field)
    for attr in (field, "extra"):
        with pytest.raises(AttributeError, match=message):
            setattr(value, attr, 0.0)
    with pytest.raises(AttributeError, match=message):
        delattr(value, field)
    assert getattr(value, field) is kept


@pytest.mark.parametrize("name", _VALUES)
def test_value_types_refuse_setattr_and_delattr(name):
    value = _VALUES[name]()
    assert type(value).__name__ == name
    _assert_refuses_setattr_and_delattr(value, name)


def _fields(value):
    names = value.__slots__ if isinstance(value, Immutable) else value._fields
    return {name: getattr(value, name) for name in names}


_COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}

# Beyond _VALUES: a sampled potential, whose spline is built on its first
# evaluation, and an orbit that carries the bound methods of its
# SynthesizedOrbit.
_COPIED = dict(_VALUES, **{
    "sampled Potential": lambda: Potential.sampled(
        np.cos(np.linspace(0.0, 2 * np.pi, 33)) - 0.5),
    "synthesized Orbit": lambda: synthesize_orbit(2.0, 1.0, 0.5).sample(),
})


@pytest.mark.parametrize("how", _COPIES)
@pytest.mark.parametrize("name", _COPIED)
def test_value_types_copy_and_pickle(name, how):
    value = _COPIED[name]()
    twin = _COPIES[how](value)
    assert type(twin) is type(value)
    fields, twin_fields = _fields(value), _fields(twin)
    assert fields.keys() == twin_fields.keys()
    for field, kept in fields.items():
        # Equal values pickle to equal bytes: arrays, polynomials, splines
        # and bound methods included.
        assert pickle.dumps(twin_fields[field]) == pickle.dumps(kept), field
        if isinstance(kept, np.ndarray):  # the original's and the copy's
            assert not kept.flags.writeable, field
            assert not twin_fields[field].flags.writeable, field
    _assert_refuses_setattr_and_delattr(twin, type(value).__name__)


@pytest.mark.parametrize("how", _COPIES)
def test_restored_sampled_potential_evaluates_to_the_same_bytes(how):
    q = _COPIED["sampled Potential"]()
    twin = _COPIES[how](q)
    t = np.linspace(0.0, 2 * np.pi, 1001)
    assert twin(t).tobytes() == q(t).tobytes()
    assert twin.sample(4097).tobytes() == q.sample(4097).tobytes()
