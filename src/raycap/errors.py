"""Shared exception types with CLI exit codes attached."""
from __future__ import annotations


class RaycapError(Exception):
    """Base class; `exit_code` is what the CLI returns when it escapes."""

    exit_code = 1


class InputError(RaycapError):
    """Invalid user input: non-fundamental discriminant, bad modulus, etc."""

    exit_code = 2


class BudgetError(RaycapError):
    """A configured search or enumeration budget was exhausted."""

    exit_code = 6


class InvariantError(RaycapError):
    """An exact re-check of a computed answer failed; raised, not asserted,
    so that `python -O` keeps it."""

    exit_code = 8


def require(ok: bool, what: str) -> None:
    """Raise InvariantError naming `what` unless the re-check `ok` holds."""
    if not ok:
        raise InvariantError(f"invariant failed: {what}")
