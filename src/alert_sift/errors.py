"""Exception types shared across the pipeline, and the one integer and number rules.

Every integer the package takes (an alert field, a forest, sampling, scaling
or synth parameter, a model node, a count or a fold number) is checked by
``check_int``, so each is refused with the same two texts. Every real number
(a signal strength, a decision or split threshold, minutes per alert) is
checked by ``check_number`` before its range.
"""

from numbers import Real


class AlertSiftError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AlertSiftError):
    """A record could not be decoded from its wire format."""


class ValidationError(AlertSiftError):
    """A decoded value violates a contract (range, schema, precondition)."""


def check_int(name: str, value, lo: int | None = None, hi: int | None = None) -> None:
    """Refuse value unless it is an int, not a bool, within lo..hi (a subclass passes).

    A None bound is open; hi is only given with lo. With no bounds only the
    type is checked.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValidationError(f"{name} out of range: {value} (expected {bound})")


def check_number(name: str, value) -> None:
    """Refuse value unless it is a real number, not a bool; the caller checks its range."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
