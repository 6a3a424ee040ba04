"""Exception hierarchy shared across the pipeline."""

from __future__ import annotations


class PerfMineError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PerfMineError):
    """Invalid configuration or CLI arguments."""


class AuthError(PerfMineError):
    """Missing or rejected hosting-API credentials."""


class RateLimitError(PerfMineError):
    """Hosting API rate limit exhausted.

    ``retry_after`` carries the suggested wait in seconds when the API
    reported one, else None.
    """

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class TransportError(PerfMineError):
    """Network or protocol failure talking to an external service."""


class GitError(PerfMineError):
    """A git invocation failed or produced unreadable output."""


class ShallowCloneError(GitError):
    """The clone is shallow and does not cover the requested history window."""


class BackendError(PerfMineError):
    """Model backend transport failure or missing stub fixture."""


class UnparseableResponseError(BackendError):
    """Backend produced no parseable answer token, even after a reprompt."""


class ContractViolation(PerfMineError):
    """An operation was invoked outside its stated precondition."""


class RuntimeUnavailableError(PerfMineError):
    """The container runtime cannot be reached."""


class StoreError(PerfMineError):
    """Benchmark store I/O failure."""


class SchemaError(StoreError):
    """A manifest violates the benchmark entry schema."""


class ReviewError(StoreError):
    """Invalid manual-review transition (double review, unknown entry)."""


class EvaluationError(PerfMineError):
    """Evaluation could not run (missing entry, unavailable image)."""
