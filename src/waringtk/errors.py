"""Shared exception types.

PreconditionError: the caller asked for something outside a documented
contract (bad modulus, hypotheses of a lemma unmet, ...).  Maps to exit
code 2 in the CLI.

ResourceError: the request is well-formed but exceeds a computation
budget (memory, O(q^2) cost caps, enumeration limits).  Maps to exit
code 3 in the CLI.
"""

import operator


class PreconditionError(ValueError):
    pass


class ResourceError(RuntimeError):
    pass


def require_integers(least: int | None = None, **values) -> None:
    """Raise PreconditionError unless operator.index accepts every value
    (ints and numpy integers pass, floats, integral ones too, do not) and,
    when least is given, every value is at least least."""
    for name, value in values.items():
        try:
            operator.index(value)
        except TypeError:
            raise PreconditionError(f"need an integer {name}, got {value!r}") from None
        if least is not None and value < least:
            raise PreconditionError(f"need {name} >= {least}, got {name}={value}")
