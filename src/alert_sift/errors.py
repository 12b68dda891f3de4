"""Exception types shared across the pipeline."""


class AlertSiftError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AlertSiftError):
    """A record could not be decoded from its wire format."""


class ValidationError(AlertSiftError):
    """A decoded value violates a contract (range, schema, precondition)."""
