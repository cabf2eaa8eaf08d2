"""Minimal fixed-size linear algebra.

Everything the filter and the bounds need fits in 2x2 symmetric
matrices: the measurement noise is diagonal, three channel weights
(sensing.noise_weights), and the measurement Jacobian is four values
(sensing.jacobian).  A symmetric 2x2 matrix [[m11, m12], [m12, m22]] is
its entry triple (m11, m12, m22), a plain tuple built with no class of
its own, on every path: floats for one matrix, or numpy arrays (one
entry per trial) for a batch.  inverse and require_positive_definite
check a batch at once, raising for its lowest failing matrix, and
describe a refused matrix with one formatter, _describe.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefiniteError, SingularMatrixError, raise_at_first


def inverse(m11, m12, m22, det=None):
    """Exact inverse of [[m11, m12], [m12, m22]] by the adjugate formula,
    as its entry triple, floats or arrays; a caller that holds the
    determinant passes it.  Raises SingularMatrixError when the
    determinant magnitude underflows below 1e-300."""
    det = m11 * m22 - m12 * m12 if det is None else det
    raise_at_first(abs(det) <= 1e-300, _singular, m11, m12, m22)
    s = 1.0 / det
    return m22 * s, -m12 * s, m11 * s


def require_positive_definite(m, name: str = "matrix"):
    """Raises NotPositiveDefiniteError unless the matrix of entry triple m
    is positive definite, on a batch for the lowest matrix that is not.
    Returns its determinant."""
    m11, m12, m22 = m
    det = m11 * m22 - m12 * m12
    raise_at_first(((m11 > 0) & (det > 0)) ^ True, _not_positive_definite, m, name)
    return det


def _describe(i: int, m11, m12, m22) -> str:
    """The matrix of a refusal message as the matrix class that the entry
    triples replaced printed it, 'Sym' and the order, then the entries by
    name, so that refusals read as they did; of a batch, matrix i, each
    array entry read at i as a float (a float entry is shared)."""
    m11, m12, m22 = (float(e[i]) if isinstance(e, np.ndarray) else e for e in (m11, m12, m22))
    return "Sym%d(m11=%r, m12=%r, m22=%r)" % (2, m11, m12, m22)


def _singular(i: int, m11, m12, m22):
    raise SingularMatrixError(f"matrix is numerically singular: {_describe(i, m11, m12, m22)}")


def _not_positive_definite(i: int, m, name: str):
    raise NotPositiveDefiniteError(f"{name} is not positive definite: {_describe(i, *m)}")


def process_noise_cov(dt: float, q_tilde: float) -> tuple[float, float, float]:
    """Integrated white-acceleration noise covariance
    q_tilde * [[dt^3/3, dt^2/2], [dt^2/2, dt]], as its entry triple."""
    if not (dt > 0):
        raise ValueError(f"dt must be positive, got {dt!r}")
    if q_tilde < 0:
        raise ValueError(f"q_tilde must be >= 0, got {q_tilde!r}")
    return q_tilde * dt ** 3 / 3.0, q_tilde * dt ** 2 / 2.0, q_tilde * dt
