"""The value types are validated once and cannot change afterwards."""

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


@pytest.mark.parametrize("name", _VALUES)
def test_value_types_refuse_setattr_and_delattr(name):
    value = _VALUES[name]()
    assert type(value).__name__ == name
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
