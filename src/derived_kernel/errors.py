"""Failure classes shared across the kernel.

The CLI maps these onto its exit-code contract: input/grammar problems
exit 2, violated preconditions 3, exhausted ceilings or windows 4, and
failed internal assertions or checks 5.
"""


class InputError(ValueError):
    """Invalid user-supplied data (grammar, homogeneity, bounds)."""


class HomogeneityError(InputError):
    def __init__(self, message, monomial=None):
        super().__init__(message)
        self.monomial = monomial


class PreconditionError(ValueError):
    """An operation was called outside its contract."""


class SearchExhausted(RuntimeError):
    """A ceiling or degree window ran out before the search concluded.

    Carries a suggestion for the user (larger ceiling / wider window /
    deeper truncation)."""

    def __init__(self, message, suggestion=None):
        super().__init__(message)
        self.suggestion = suggestion


class InternalCheckFailed(RuntimeError):
    """A computed result failed an internal consistency check."""


def require(cond, message):
    """Raise InternalCheckFailed unless `cond`.  Unlike `assert`, the
    check still runs under `python -O`."""
    if not cond:
        raise InternalCheckFailed(message)
