"""Privacy-boundary coaching pipeline and constrained bandit group assignment.

The package separates one user reality into bounded views: raw identity
lives only in the :mod:`~prism.vault`, free text crosses into the
learning side only through :mod:`~prism.redaction`, decision contexts
are built by :mod:`~prism.features`, group placement is chosen by the
constrained bandit in :mod:`~prism.assignment`, coach drafts flow
through the reviewed :mod:`~prism.assistant`, and everything is
exercised end to end by :mod:`~prism.simulator`.
"""

from ._version import __version__
from .errors import (
    ConfigurationError,
    ConstraintViolationError,
    DecryptionError,
    InternalError,
    LeakageError,
    PrismError,
    StateError,
    ValidationError,
)

__all__ = [
    "__version__",
    "ConfigurationError",
    "ConstraintViolationError",
    "DecryptionError",
    "InternalError",
    "LeakageError",
    "PrismError",
    "StateError",
    "ValidationError",
]
