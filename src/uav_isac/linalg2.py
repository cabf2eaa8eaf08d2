"""Minimal fixed-size linear algebra.

Everything the filter and the bounds need fits in 2x2 symmetric
matrices: the measurement noise is diagonal, three channel weights
(sensing.noise_weights), and the measurement Jacobian is four values
(sensing.jacobian).  Sym2 is a plain dataclass with explicit entry
arithmetic, built every slot; it is slotted, not frozen; no code
assigns to its fields (tests/test_value_types.py checks this), so a
shared instance such as params.process_noise keeps its value.
The same dataclass holds a batch of matrices when its fields are
numpy arrays (one entry per trial); inverse and
require_positive_definite check such a batch at once, raising for its
lowest failing matrix.  The one adjugate inverse, inverse, takes a
matrix's entries, so a caller that holds a sum of matrices as entries
(the filter's information) builds no Sym2 for the sum.  Otherwise numpy
arrays appear only in the as_array conversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError, SingularMatrixError, raise_at_first


@dataclass(slots=True)
class Sym2:
    """Symmetric 2x2 real matrix [[m11, m12], [m12, m22]].

    Used for the process noise, estimation MSE and information matrices
    over the (position, velocity) state; symmetry holds by construction.
    Slotted, not frozen: the scalar tracking loop builds three per slot
    (and the proposed rule's one-row slot solve five of arrays), and
    __init__ takes 0.20 us slotted against 0.22 us plain and 0.63 us
    frozen (CPython 3.11); an instance carries no __dict__.
    """

    m11: float
    m12: float
    m22: float

    @classmethod
    def from_array(cls, a) -> "Sym2":
        """From a symmetric 2x2 array; the upper triangle is read."""
        return cls(float(a[0][0]), float(a[0][1]), float(a[1][1]))

    @classmethod
    def diag(cls, d1: float, d2: float) -> "Sym2":
        return cls(d1, 0.0, d2)

    def as_array(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m12, self.m22]])

    def at(self, i: int) -> "Sym2":
        """Matrix i of a batch (array fields) with float fields, else self."""
        if not isinstance(self.m11, np.ndarray):
            return self
        return Sym2(float(self.m11[i]), float(self.m12[i]), float(self.m22[i]))

    @property
    def trace(self) -> float:
        return self.m11 + self.m22

    @property
    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m12


def inverse(m11, m12, m22, det=None) -> Sym2:
    """Exact inverse of [[m11, m12], [m12, m22]] by the adjugate formula,
    floats or arrays; a caller that holds the determinant passes it.
    Raises SingularMatrixError when the determinant magnitude underflows
    below 1e-300."""
    det = m11 * m22 - m12 * m12 if det is None else det
    raise_at_first(abs(det) <= 1e-300, _singular, m11, m12, m22)
    s = 1.0 / det
    return Sym2(m22 * s, -m12 * s, m11 * s)


def require_positive_definite(m: Sym2, name: str = "matrix"):
    """Raises NotPositiveDefiniteError unless m is positive definite, on
    a batch for the lowest matrix that is not.  Returns m.det."""
    det = m.det
    raise_at_first(((m.m11 > 0) & (det > 0)) ^ True, _not_positive_definite, m, name)
    return det


def _singular(i: int, m11, m12, m22):
    raise SingularMatrixError(f"matrix is numerically singular: {Sym2(m11, m12, m22).at(i)}")


def _not_positive_definite(i: int, m: Sym2, name: str):
    raise NotPositiveDefiniteError(f"{name} is not positive definite: {m.at(i)}")


def process_noise_cov(dt: float, q_tilde: float) -> Sym2:
    """Integrated white-acceleration noise covariance
    q_tilde * [[dt^3/3, dt^2/2], [dt^2/2, dt]]."""
    if not (dt > 0):
        raise ValueError(f"dt must be positive, got {dt!r}")
    if q_tilde < 0:
        raise ValueError(f"q_tilde must be >= 0, got {q_tilde!r}")
    return Sym2(q_tilde * dt ** 3 / 3.0, q_tilde * dt ** 2 / 2.0, q_tilde * dt)
