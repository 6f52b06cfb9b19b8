"""Exception types shared across the package.

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


class InputError(Exception):
    """Invalid user-supplied input: data files, spans, models, or configuration."""


class ParseError(InputError):
    """A file could not be parsed; the message carries a line/record locator."""


class ValidationError(InputError):
    """Parseable input that violates a domain invariant."""


def check_field(name: str, ok: bool, problem: str) -> None:
    if not ok:
        raise ValidationError(f"config field '{name}': {problem}")
