"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, a physically infeasible model (QoS unreachable at any offset)
exits with 3, any other package error exits with 4, and validation
failures exit with 1.

A check over a batch of trials (numpy arrays, one entry per trial)
raises through raise_at_first: the scalar form of the same check runs
on the lowest failing entry, so the error has the scalar path's type,
message and attributes, and carries that entry's position as
batch_index.
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


def raise_at_first(bad, check) -> None:
    """If any entry of the boolean array bad is set (np.count_nonzero: a
    quarter of bad.any()'s time), call check(i) for the lowest such entry
    i.  check, the scalar form of the batched test, raises the package
    error for entry i, tagged with batch_index = i.  A scalar check that
    passes where the batched one failed is a bug, reported as RuntimeError."""
    if not np.count_nonzero(bad):
        return
    i = int(bad.argmax())
    try:
        check(i)
    except UavIsacError as exc:
        exc.batch_index = i
        raise
    raise RuntimeError(f"batch entry {i} fails the batched check but passes the scalar one")
