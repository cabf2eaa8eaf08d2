"""Geometry-dependent channel models.

The platform flies at fixed altitude H; the tracked object moves on the
ground line below, so the geometry is fully described by the horizontal
relative position x and relative velocity v.  This module maps (x, v)
to the three measured channels (elevation angle, round-trip delay,
Doppler shift), their noise model, the echo and downlink channel gains,
and the achievable downlink rate.

The noise model is one formula, noise_weights: the per-channel
reciprocal variances 1/s_i at offset x.  The sampled measurement noise
(noise_cov_actual), the filter update and both estimation bounds all
read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .linalg2 import DiagMat3, Jacobian32
from .params import SystemParams


@dataclass(frozen=True)
class RelativeState:
    """Horizontal relative position x (m) and relative velocity v (m/s).

    Signed quantities; x < 0 simply means the object is behind the
    platform.
    """

    x: float
    v: float


@dataclass(frozen=True)
class Measurement:
    """One slot's measured angle (rad), delay (s) and Doppler (Hz),
    together with the diagonal noise covariance used to generate it.

    For the noiseless measurement map the angle lies in (0, pi) and the
    delay is at least 2H/c; noisy samples may exceed those ranges by a
    few standard deviations, so they are not enforced per-sample (the
    validation suite checks them at the mean level instead).
    """

    phi: float
    tau: float
    mu: float
    noise_cov: DiagMat3


def radar_gain(x: float, params: SystemParams) -> float:
    """Two-way echo channel gain beta_r / d^4 with d^2 = x^2 + H^2."""
    d2 = x * x + params.h_alt * params.h_alt
    return params.beta_r / (d2 * d2)


def comm_gain(x: float, params: SystemParams) -> float:
    """One-way downlink channel gain wavelength^2 / (16 pi^2 d^2)."""
    d2 = x * x + params.h_alt * params.h_alt
    return params.wavelength ** 2 / (16.0 * math.pi ** 2 * d2)


def achievable_rate(x: float, params: SystemParams) -> float:
    """Downlink spectral efficiency log2(1 + P_A*N_t*G_c/sigma_C^2) in bps/Hz."""
    snr = params.p_a_w * params.n_t * comm_gain(x, params) / params.sigma_c2_w
    return math.log2(1.0 + snr)


def measure_mean(s: RelativeState, params: SystemParams) -> tuple[float, float, float]:
    """Noiseless measurement map (phi, tau, mu) at relative state s.

    phi is the elevation angle measured from the positive x axis, kept
    on the (0, pi) branch so it stays continuous through overhead
    passes (x = 0 gives exactly pi/2).  tau is the two-way propagation
    delay and mu the Doppler shift of the echo.
    """
    h = params.h_alt
    d = math.hypot(s.x, h)
    phi = math.atan2(h, s.x)
    tau = 2.0 * d / params.c
    mu = -2.0 * params.f_c * s.v * s.x / (params.c * d)
    return phi, tau, mu


def noise_weights(x, params: SystemParams):
    """Channel weights (1/s1, 1/s2, 1/s3) of the measurement noise at
    horizontal offset x: the one noise model, generic over floats,
    numpy arrays and dual numbers.

    s1 = a1^2 sigma^2 / (P_A N_sym N_t N_r G_r sin^2 phi) for the angle
    with G_r = beta_r/d^4 and sin phi = H/d; the delay and Doppler
    variances drop the sin^2 phi factor and use a2, a3 instead.  With
    sens_gain folding in the constants, 1/s1 = (sens_gain/a1^2) H^2/d^6
    and 1/s_i = (sens_gain/a_i^2)/d^4 for i = 2, 3.
    """
    g1, g2, g3 = params.channel_weights
    h2 = params.h_alt * params.h_alt
    u = 1.0 / (x * x + h2)
    u2 = u * u
    return g1 * h2 * u2 * u, g2 * u2, g3 * u2


def noise_cov_actual(s: RelativeState, params: SystemParams) -> DiagMat3:
    """Measurement noise variances at the state where the echo actually
    arrives from: the reciprocals of noise_weights at s.x."""
    w1, w2, w3 = noise_weights(s.x, params)
    return DiagMat3(1.0 / w1, 1.0 / w2, 1.0 / w3)


def jacobian(s: RelativeState, params: SystemParams) -> Jacobian32:
    """Measurement Jacobian at s, as the analytic derivative of
    measure_mean (verified against central finite differences).

    Entries: iota = -H/(H^2+x^2), kappa = 2x/(c d),
    zeta = -2 f_c v H^2/(c d^3), nu = -2 f_c x/(c d).
    """
    h = params.h_alt
    d2 = s.x * s.x + h * h
    d = math.sqrt(d2)
    iota = -h / d2
    kappa = 2.0 * s.x / (params.c * d)
    zeta = -2.0 * params.f_c * s.v * h * h / (params.c * d2 * d)
    nu = -2.0 * params.f_c * s.x / (params.c * d)
    return Jacobian32(iota, kappa, zeta, nu)


def sample_measurement(s_true: RelativeState, params: SystemParams, rng,
                       noise_scale: float = 1.0) -> Measurement:
    """Draw one noisy measurement at the true relative state.

    The mean comes from measure_mean and the three channels get
    independent zero-mean Gaussian noise with variances from
    noise_cov_actual, both evaluated at s_true.  The generator is owned
    by the caller; this function only advances it (three draws).

    noise_scale multiplies the noise standard deviations of the draws;
    0 reproduces the mean exactly.  The attached covariance stays the
    nominal one (what the receiver believes), so the filter numerics
    are unchanged; the knob exists for near-noiseless closed-loop
    checks, not for modeling.
    """
    if noise_scale < 0:
        raise ValueError(f"noise_scale must be >= 0, got {noise_scale!r}")
    phi, tau, mu = measure_mean(s_true, params)
    cov = noise_cov_actual(s_true, params)
    z = rng.standard_normal(3).tolist()
    k = noise_scale
    return Measurement(
        phi + k * math.sqrt(cov.s1) * z[0],
        tau + k * math.sqrt(cov.s2) * z[1],
        mu + k * math.sqrt(cov.s3) * z[2],
        cov,
    )
