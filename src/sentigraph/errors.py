"""Exception types shared across the package, the checks that raise them, and
``naming``, the one way a reader names its file in a ``ValidationError``.

Every error the package raises is an ``InputError``: something the user can
fix. The CLI prints it and exits 2; exit code 1 is left to an output that
could not be written (``OSError``). It comes in two kinds:

- ``ParseError``: a file cannot be read or parsed. Its message carries a
  line or record locator.
- ``ValidationError``: a value breaks an invariant, such as a field of the
  wrong type, an invalid span, spans that CoNLL cannot hold, an unusable
  model, or a bad configuration field or flag.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterator


class InputError(Exception):
    """Invalid user-supplied input: data files, spans, models, or configuration."""


class ParseError(InputError):
    """A file could not be parsed; the message carries a line/record locator."""


class ValidationError(InputError):
    """Parseable input that violates a domain invariant."""


@contextmanager
def naming(where: str) -> Iterator[None]:
    """Put ``where: `` in front of the message of a ``ValidationError`` raised in the block."""
    try:
        yield
    except ValidationError as err:
        raise ValidationError(f"{where}: {err}") from err


def check_field(name: str, ok: bool, problem: str) -> None:
    if not ok:
        raise ValidationError(f"config field '{name}': {problem}")


def check_type(name: str, value, kind: type) -> None:
    """Refuse ``value`` unless its type is exactly ``kind`` (so a bool is not an int)."""
    check_field(name, type(value) is kind, f"expected {kind.__name__}, got {value!r}")


def hold_items(obj, name: str, kind: type, owner: str, items: str) -> None:
    """Set field ``name`` of frozen ``obj`` to ``kind(value)``, or raise ``ValidationError``
    naming ``owner.format(obj)``."""
    try:
        object.__setattr__(obj, name, kind(getattr(obj, name)))
    except TypeError:
        raise ValidationError(f"{owner.format(obj)}: {name} must be a collection of {items}, "
                              f"got {getattr(obj, name)!r}") from None


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
