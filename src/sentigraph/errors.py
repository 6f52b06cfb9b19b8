"""Exception types shared across the package.

Every error the package raises is an ``InputError``: something the user can
fix (malformed files, invalid spans, spans that CoNLL cannot hold, unusable
models, bad configuration). The CLI prints it and exits 2; exit code 1 is
left to an output that could not be written (``OSError``).
"""

from __future__ import annotations


class SentigraphError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SentigraphError):
    """Invalid user-supplied input: data files, spans, models, or configuration."""


class ParseError(InputError):
    """A file could not be parsed; the message carries a line/record locator."""


class ValidationError(InputError):
    """Parseable input that violates a domain invariant."""


class ConfigError(InputError):
    """Pipeline configuration problem; the message names the offending field."""


class CodecError(InputError):
    """Spans cannot be represented as a BIO tag sequence."""


class ModelError(InputError):
    """A model is of the wrong kind or in an unusable state."""
