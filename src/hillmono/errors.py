"""Exception types and the immutability rule shared across the package.

Two failure families are kept apart because the command line maps them to
different exit codes: bad inputs (malformed files, out-of-domain arguments)
and violations of internal numerical invariants (a computation produced a
value that fails its own consistency checks).

The value types (paths, cover elements, strata, curves, orbits, potentials,
boundary conditions) are validated once, at construction, so they derive
from Immutable: their constructors store fields with object.__setattr__,
and afterwards every assignment or deletion of an attribute is refused.
"""


class DomainError(ValueError):
    """Raised for invalid user input or out-of-domain arguments."""


class NumericalInvariantError(RuntimeError):
    """Raised when a computed quantity fails an internal consistency check.

    Usually this means the requested accuracy cannot be met, e.g. an
    integration step count too small for the potential at hand.
    """


class Immutable:
    """Base of the value types: attributes are set once, in __init__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")
