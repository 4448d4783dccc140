"""Exception hierarchy shared across the package.

Privacy-relevant failures (``LeakageError``, ``ConstraintViolationError``)
get their own branch so callers and the CLI can distinguish them from
ordinary validation problems.
"""


class PrismError(Exception):
    """Base class for all package errors."""


class ValidationError(PrismError):
    """Malformed or out-of-contract input."""


class ConfigurationError(ValidationError):
    """Missing or invalid startup configuration (keys, rule files, scenarios)."""


class StateError(ValidationError):
    """Operation not permitted in the object's current state."""


class InternalError(PrismError):
    """Invariant broken inside the implementation; not a caller mistake."""


class DecryptionError(PrismError):
    """Authenticated decryption failed; never silently recovered."""


class LeakageError(PrismError):
    """An identifier survived (or was about to cross) a de-identification boundary."""


class ConstraintViolationError(PrismError):
    """A capacity, load, or dwell constraint was violated; always a bug, never tolerable."""
