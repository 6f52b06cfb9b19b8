"""Exception types shared across the package, and the checks of a number
or a config field that raise them.

Every error the package raises is an ``InputError``: something the user can
fix. The CLI prints it and exits 2; exit code 1 is left to an output that
could not be written (``OSError``). It comes in two kinds:

- ``ParseError``: a file cannot be read or parsed. Its message carries a
  line or record locator.
- ``ValidationError``: a parsed value breaks an invariant, such as an
  invalid span, spans that CoNLL cannot hold, an unusable model, or a bad
  configuration field or flag.
"""

from __future__ import annotations

import math


class InputError(Exception):
    """Invalid user-supplied input: data files, spans, models, or configuration."""


class ParseError(InputError):
    """A file could not be parsed; the message carries a line/record locator."""


class ValidationError(InputError):
    """Parseable input that violates a domain invariant."""


def check_field(name: str, ok: bool, problem: str) -> None:
    if not ok:
        raise ValidationError(f"config field '{name}': {problem}")


def check_type(name: str, value, kind: type) -> None:
    """Refuse ``value`` unless its type is exactly ``kind`` (so a bool is not an int)."""
    check_field(name, type(value) is kind, f"expected {kind.__name__}, got {value!r}")


def as_number(value) -> float:
    """``value`` as a float if it is an int or float (not a bool) that fits one, else NaN."""
    try:
        return float(value) if type(value) in (int, float) else math.nan
    except OverflowError:
        return math.nan


def finite_number(value, what: str) -> float:
    """A JSON number as a finite float; anything else raises ``ValidationError``."""
    number = as_number(value)
    if not math.isfinite(number):
        raise ValidationError(f"{what} must be a finite number, got {value!r}")
    return number
