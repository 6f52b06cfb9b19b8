"""Exception types shared across the package.

Two families matter to callers: ``InputError`` covers everything the user
can fix (malformed files, invalid spans, bad configuration), ``StageError``
covers runtime failures inside a pipeline stage. The CLI maps them to exit
codes 2 and 1 respectively.
"""

from __future__ import annotations


class SentigraphError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SentigraphError):
    """Invalid user-supplied input: data files, spans, or configuration."""


class ParseError(InputError):
    """A file could not be parsed; the message carries a line/record locator."""


class ValidationError(InputError):
    """Parseable input that violates a domain invariant."""


class ConfigError(InputError):
    """Pipeline configuration problem; the message names the offending field."""


class StageError(SentigraphError):
    """Runtime failure inside a pipeline stage."""


class CodecError(StageError):
    """Spans cannot be represented as a BIO tag sequence."""


class ModelError(StageError):
    """A model is of the wrong kind or in an unusable state."""
