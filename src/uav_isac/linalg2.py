"""Minimal fixed-size linear algebra.

Everything the filter and the bounds need fits in 2x2 symmetric
matrices, 3-entry diagonal covariances and one 3x2 Jacobian layout, so
these are plain frozen dataclasses with explicit entry arithmetic.
numpy arrays are used only at the boundaries (sampling, the 3x3 solve
inside the filter update).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError, SingularMatrixError

# Relative tolerance of the symmetry check.
SYM_RTOL = 1e-12


@dataclass(frozen=True)
class Mat2:
    """2x2 real matrix, row-major entries.

    Used for the process noise, estimation MSE and their inverses over
    the (position, velocity) state.
    """

    m11: float
    m12: float
    m21: float
    m22: float

    @classmethod
    def from_array(cls, a) -> "Mat2":
        return cls(float(a[0][0]), float(a[0][1]), float(a[1][0]), float(a[1][1]))

    @classmethod
    def diag(cls, d1: float, d2: float) -> "Mat2":
        return cls(d1, 0.0, 0.0, d2)

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1.0, 0.0, 0.0, 1.0)

    def as_array(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m21, self.m22]])

    @property
    def trace(self) -> float:
        return self.m11 + self.m22

    @property
    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21


def _scale(m: Mat2) -> float:
    return max(abs(m.m11), abs(m.m12), abs(m.m21), abs(m.m22), 1e-300)


def is_symmetric(m: Mat2, rtol: float = SYM_RTOL) -> bool:
    return abs(m.m12 - m.m21) <= rtol * _scale(m)


def min_eigenvalue_symmetric(m: Mat2) -> float:
    """Smallest eigenvalue, treating m as symmetric (off-diagonals averaged)."""
    off = 0.5 * (m.m12 + m.m21)
    half_gap = math.hypot(0.5 * (m.m11 - m.m22), off)
    return 0.5 * (m.m11 + m.m22) - half_gap


def require_positive_definite(m: Mat2, name: str = "matrix") -> None:
    if not is_symmetric(m):
        raise NotPositiveDefiniteError(f"{name} is not symmetric: {m}")
    if not (m.m11 > 0 and m.det > 0):
        raise NotPositiveDefiniteError(f"{name} is not positive definite: {m}")


def mat2_inverse(m: Mat2) -> Mat2:
    """Exact 2x2 inverse by the adjugate formula.

    Raises SingularMatrixError when the determinant magnitude underflows
    below 1e-300.
    """
    det = m.det
    if abs(det) <= 1e-300:
        raise SingularMatrixError(f"matrix is numerically singular: {m}")
    s = 1.0 / det
    return Mat2(m.m22 * s, -m.m12 * s, -m.m21 * s, m.m11 * s)


@dataclass(frozen=True)
class DiagMat3:
    """Diagonal 3x3 covariance diag(s1, s2, s3) of the three measured
    channels (angle, delay, Doppler).  Entries are variances, >= 0."""

    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        for name in ("s1", "s2", "s3"):
            v = getattr(self, name)
            if math.isnan(v) or v < 0:
                raise ValueError(f"variance {name} must be >= 0, got {v!r}")

    def as_array(self) -> np.ndarray:
        return np.diag([self.s1, self.s2, self.s3])

    def diagonal(self) -> tuple[float, float, float]:
        return (self.s1, self.s2, self.s3)


@dataclass(frozen=True)
class Jacobian32:
    """3x2 measurement Jacobian.

    Rows follow the measured channels (angle, delay, Doppler), columns
    the state (position, velocity).  Only the Doppler row depends on
    velocity, so entries (1,2) and (2,2) are structurally zero; the four
    free entries are stored.
    """

    iota: float   # d(angle)/dx
    kappa: float  # d(delay)/dx
    zeta: float   # d(Doppler)/dx
    nu: float     # d(Doppler)/dv

    def as_array(self) -> np.ndarray:
        return np.array([
            [self.iota, 0.0],
            [self.kappa, 0.0],
            [self.zeta, self.nu],
        ])


def process_noise_cov(dt: float, q_tilde: float) -> Mat2:
    """Integrated white-acceleration noise covariance
    q_tilde * [[dt^3/3, dt^2/2], [dt^2/2, dt]]."""
    if not (dt > 0):
        raise ValueError(f"dt must be positive, got {dt!r}")
    if q_tilde < 0:
        raise ValueError(f"q_tilde must be >= 0, got {q_tilde!r}")
    return Mat2(q_tilde * dt ** 3 / 3.0, q_tilde * dt ** 2 / 2.0,
                q_tilde * dt ** 2 / 2.0, q_tilde * dt)
