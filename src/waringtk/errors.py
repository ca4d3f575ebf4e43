"""Shared exception types and the two argument checks that raise them.

PreconditionError: the caller asked for something outside a documented
contract (bad modulus, hypotheses of a lemma unmet, ...).  Maps to exit
code 2 in the CLI.

ResourceError: the request is well-formed but exceeds a computation
budget (memory, O(q^2) cost caps, enumeration limits).  Maps to exit
code 3 in the CLI.  require_within is the one place that raises it.
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
            raise PreconditionError(f"need {name} >= {least}, got {name}={shown(value)}")


def shown(value) -> str:
    """value in decimal, or by its bit length past 64 bits: a huge int's
    decimal form is slow to make and, past 4300 digits, refused."""
    bits = value.bit_length() if isinstance(value, int) else 0
    return f"<{bits}-bit integer>" if bits > 64 else str(value)


def require_within(most: int, **values) -> None:
    """Raise ResourceError unless every value is at most most. A value is a
    number or a (base, exponent[, factor]) tuple for factor * base**exponent,
    factor >= 1 (default 1), whose power is formed only when base < 2 or
    exponent < most.bit_length(); past that, base**exponent >= 2**most.bit_length() > most."""
    for name, value in values.items():
        if isinstance(value, tuple):
            base, exponent, factor = value if len(value) == 3 else (*value, 1)
            if base >= 2 and exponent >= most.bit_length():
                power = f"{shown(base)}^{shown(exponent)}"
                power = power if factor == 1 else f"{shown(factor)}*{power}"
                raise ResourceError(f"{name} = {power} exceeds the budget {most}")
            value = factor * base**exponent
        if value > most:
            raise ResourceError(f"{name} = {shown(value)} exceeds the budget {most}")
