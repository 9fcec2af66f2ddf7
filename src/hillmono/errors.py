"""Exception types and the immutability rule shared across the package.

Two failure families are kept apart because the command line maps them to
different exit codes: bad inputs (malformed files, out-of-domain arguments)
and violations of internal numerical invariants (a computation produced a
value that fails its own consistency checks).

The value types (paths, cover elements, strata, curves, orbits, potentials,
boundary conditions) are validated once, at construction, so they derive
from Immutable: their constructors store their fields through
Immutable.__init__, which makes every array field read-only, and afterwards
every assignment or deletion of an attribute is refused. Copying and
pickling go through Immutable.__reduce__, which rebuilds the value from its
fields through Immutable.__init__ without running the subclass constructor.
"""

import numpy as np


class DomainError(ValueError):
    """Raised for invalid user input or out-of-domain arguments."""


class NumericalInvariantError(RuntimeError):
    """Raised when a computed quantity fails an internal consistency check.

    Usually this means the requested accuracy cannot be met, e.g. an
    integration step count too small for the potential at hand.
    """


def _restore(cls, fields):
    """The value of type cls with the given fields, as Immutable.__reduce__
    took it apart. Arrays copied by copy.deepcopy or pickle come back
    writeable; Immutable.__init__ freezes them again."""
    value = cls.__new__(cls)
    Immutable.__init__(value, **fields)
    return value


class Immutable:
    """Base of the value types: attributes are set once, in __init__."""

    __slots__ = ()

    def __init__(self, **fields):
        """Store each field; an array field is made read-only first."""
        for name, field in fields.items():
            if isinstance(field, np.ndarray):
                field.setflags(write=False)
            object.__setattr__(self, name, field)

    def __reduce__(self):
        cls = type(self)
        return _restore, (cls, {name: getattr(self, name) for name in cls.__slots__})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")
