"""Exception hierarchy shared by all eastudy modules."""

from __future__ import annotations


def reason(exc: Exception) -> str:
    """Why an event is skipped or excluded, as ``Type: message``."""
    return f"{type(exc).__name__}: {exc}"


class EastudyError(Exception):
    """Base class for every error raised by this package."""


class MissingFile(EastudyError):
    pass


class _Diagnosed(EastudyError):
    """Carries ``diagnostics`` (list of Diagnostic) when raised by a loader."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])


class SchemaMismatch(_Diagnosed):
    """A CSV header or cell does not match the declared schema."""


class InvariantViolation(_Diagnosed):
    """A parsed value violates a dataset invariant (row-level or cross-file)."""


class OutOfCalendarRange(EastudyError):
    pass


class NonTradingAnnouncement(EastudyError):
    """An announcement cannot be classified as BeforeOpen or AfterClose."""


class TooFewEvents(EastudyError):
    pass


class GapInSeries(EastudyError):
    """Consecutive bars skip one or more trading dates."""


class MissingBar(EastudyError):
    pass


class ZeroEstimate(EastudyError):
    pass


class InsufficientHistory(EastudyError):
    pass


class DegenerateRegressor(EastudyError):
    pass


class EmptyClass(EastudyError):
    pass


class TooFewPoints(EastudyError):
    pass


class InvalidSpec(EastudyError):
    pass
