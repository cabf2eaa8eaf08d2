"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, a physically infeasible model (QoS unreachable at any offset)
exits with 3, any other package error exits with 4, and validation
failures exit with 1.

A check is written once for one value (Python floats) and for a batch
of trials (numpy arrays, one entry per trial), and raises through
raise_at_first: the error of the lowest failing entry has the one-value
error's type, message and attributes, and on a batch carries that
entry's position as batch_index.  A check that passes on Python floats
gives the flag False, and returns on that identity test with no call.
"""

from __future__ import annotations

import numpy as np


class UavIsacError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(UavIsacError):
    """Malformed or inconsistent configuration input."""


class SingularMatrixError(UavIsacError):
    """A matrix inversion or solve hit a numerically singular operand."""


class NotPositiveDefiniteError(UavIsacError):
    """A matrix required to be symmetric positive definite is not."""


class InfeasibleQosError(UavIsacError):
    """The rate constraint cannot be met at any horizontal offset."""


class InfeasibleIntervalError(UavIsacError):
    """The per-slot feasible interval (rate set intersected with the
    reachable set) is empty or degenerate."""


class VelocityBoundError(UavIsacError):
    """A requested platform displacement exceeds the speed limit."""


class BracketError(UavIsacError):
    """Root bracketing failed: the derivative has the same sign at both
    endpoints.  Carries both endpoint derivatives for diagnosis."""

    def __init__(self, message: str, dg_lo: float, dg_hi: float):
        super().__init__(message)
        self.dg_lo = dg_lo
        self.dg_hi = dg_hi


def entry(value, i: int) -> float:
    """Entry i of a checked value as a float, for a refusal message:
    value.flat[i] of an array (i as raise_at_first gives it), value
    itself of a scalar, which every entry of a batch shares."""
    return float(value.flat[i] if isinstance(value, np.ndarray) else value)


def raise_at_first(bad, check, *args) -> None:
    """Raise check's error where bad is set, a bool for one value or a
    boolean array (x ^ True negates both); np.count_nonzero takes a
    quarter of bad.any()'s time.  A float check calls this only where its
    bad is not the bool False, so a passing float check makes no call.
    check(i, *args) raises the one-value error of the lowest set entry i
    (0 for a bool); where bad has a dimension, a package error is tagged
    with batch_index = i.  A check that returns is a bug, reported as
    RuntimeError."""
    if not np.count_nonzero(bad):
        return
    i = int(np.argmax(bad))
    try:
        check(i, *args)
    except UavIsacError as exc:
        if np.ndim(bad):
            exc.batch_index = i
        raise
    raise RuntimeError(f"batch entry {i} fails the check, but check raises no error")
