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
read it; a sampled measurement carries the weights to the update.
_measured_variances is the one check that weights are usable (finite
and positive): sample_measurement, ekf.update and the slot loop call
it, so a geometry too far or not finite is refused the same way by each.

The measurement map and its Jacobian are value functions of (x, v),
measure_mean and jacobian: the filter update runs both, the sampler
the map, and the validation suite checks both.  They, achievable_rate and
_noisy_mean take the module of their transcendentals as xp: math by
default, numpy for a batch whose values are arrays (numpy >= 2.0 spells
hypot, atan2, sqrt and log2 as math does).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SingularMatrixError, raise_at_first
from .linalg2 import DiagMat3
from .params import SystemParams


@dataclass(slots=True)
class RelativeState:
    """Horizontal relative position x (m) and relative velocity v (m/s).

    Signed quantities; x < 0 simply means the object is behind the
    platform.  Slotted, not frozen, like Sym2; the slot loop carries x
    and v as plain values and builds none.
    """

    x: float
    v: float


@dataclass(frozen=True)
class Measurement:
    """One slot's measured angle (rad), delay (s) and Doppler (Hz),
    together with the diagonal noise covariance used to generate it
    and the sampler's channel weights 1/s_i (None: 1/noise_cov).

    For the noiseless measurement map the angle lies in (0, pi) and the
    delay is at least 2H/c; noisy samples may exceed those ranges by a
    few standard deviations, so they are not enforced per-sample (the
    validation suite checks them at the mean level instead).
    """

    phi: float
    tau: float
    mu: float
    noise_cov: DiagMat3
    weights: tuple[float, float, float] | None = None


def comm_gain(x: float, params: SystemParams) -> float:
    """One-way downlink channel gain wavelength^2 / (16 pi^2 d^2)."""
    d2 = x * x + params.h_alt * params.h_alt
    return params.wavelength ** 2 / (16.0 * math.pi ** 2 * d2)


def comm_snr(x, params: SystemParams):
    """Downlink SNR P_A*N_t*G_c/sigma_C^2, generic over floats and arrays."""
    return params.p_a_w * params.n_t * comm_gain(x, params) / params.sigma_c2_w


def achievable_rate(x: float, params: SystemParams, xp=math) -> float:
    """Downlink spectral efficiency log2(1 + SNR) in bps/Hz."""
    return xp.log2(1.0 + comm_snr(x, params))


def measure_mean(x, v, params: SystemParams, xp=math):
    """Noiseless measurement map (phi, tau, mu) at relative state (x, v):
    the elevation angle from the positive x axis on the (0, pi) branch, so
    it stays continuous through overhead passes (x = 0 gives exactly
    pi/2), the two-way propagation delay and the echo's Doppler shift."""
    h = params.h_alt
    d = xp.hypot(x, h)
    phi = xp.atan2(h, x)
    tau = 2.0 * d / params.c
    mu = -2.0 * params.f_c * v * x / (params.c * d)
    return phi, tau, mu


def noise_weights(x, params: SystemParams, u=None, h_alt=None):
    """Channel weights (1/s1, 1/s2, 1/s3) of the measurement noise at
    horizontal offset x and altitude h_alt (default params.h_alt): the
    one noise model, generic over floats and numpy arrays.

    s1 = a1^2 sigma^2 / (P_A N_sym N_t N_r G_r sin^2 phi) for the angle
    with G_r = beta_r/d^4 and sin phi = H/d; the delay and Doppler
    variances drop the sin^2 phi factor and use a2, a3 instead.  With
    sens_gain folding in the constants, 1/s1 = (sens_gain/a1^2) H^2/d^6
    and 1/s_i = (sens_gain/a_i^2)/d^4 for i = 2, 3.  A caller that
    already holds u = 1/d^2 = 1/(x^2 + H^2) passes it.
    """
    g1, g2, g3 = params.channel_weights
    h = params.h_alt if h_alt is None else h_alt
    h2 = h * h
    if u is None:
        u = 1.0 / (x * x + h2)
    u2 = u * u
    return g1 * h2 * u2 * u, g2 * u2, g3 * u2


def noise_cov_actual(s: RelativeState, params: SystemParams) -> DiagMat3:
    """Measurement noise variances at the state where the echo actually
    arrives from: the reciprocals of noise_weights at s.x."""
    return DiagMat3(*_variances(noise_weights(s.x, params)))


def _variances(w) -> tuple[float, float, float]:
    """The reciprocals 1/w_i of channel weights w (or weights of
    variances w), formed as numpy forms them: 0 gives inf and NaN stays
    NaN."""
    w1, w2, w3 = w
    return 1.0 / w1 if w1 else math.inf, 1.0 / w2 if w2 else math.inf, 1.0 / w3 if w3 else math.inf


def _measured_variances(w) -> tuple[float, float, float]:
    """The variances 1/w_i of channel weights w, floats or arrays with an
    entry per row.  The one check that weights are usable: raises
    SingularMatrixError, naming the variances of the lowest failing entry
    as _variances forms them, unless each weight is finite and positive."""
    w1, w2, w3 = w
    raise_at_first(((0.0 < w1) & (w1 < math.inf) & (0.0 < w2) & (w2 < math.inf)
                    & (0.0 < w3) & (w3 < math.inf)) ^ True, _refuse_weights, w)
    return 1.0 / w1, 1.0 / w2, 1.0 / w3


def _refuse_weights(i: int, w):
    s = _variances(wi if isinstance(wi, float) else float(wi[i]) for wi in w)
    raise SingularMatrixError(f"noise variances {s} need finite positive reciprocals")


def jacobian(x, v, params: SystemParams, xp=math):
    """Measurement Jacobian [[iota, 0], [kappa, 0], [zeta, nu]] at (x, v),
    the analytic derivative of measure_mean (rows angle, delay, Doppler;
    columns position, velocity), as its free entries (iota, kappa, zeta,
    nu): iota = -H/(H^2+x^2), kappa = 2x/(c d), zeta = -2 f_c v H^2/(c d^3)
    and nu = -2 f_c x/(c d)."""
    h = params.h_alt
    d2 = x * x + h * h
    d = xp.sqrt(d2)
    iota = -h / d2
    kappa = 2.0 * x / (params.c * d)
    zeta = -2.0 * params.f_c * v * h * h / (params.c * d2 * d)
    nu = -2.0 * params.f_c * x / (params.c * d)
    return iota, kappa, zeta, nu


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
    checks, not for modeling.  Raises SingularMatrixError, before any
    draw, when a channel weight at s_true is zero or not finite.
    """
    if noise_scale < 0:
        raise ValueError(f"noise_scale must be >= 0, got {noise_scale!r}")
    w = noise_weights(s_true.x, params)
    s = _measured_variances(w)
    z = rng.standard_normal(3).tolist()
    return Measurement(*_noisy_mean(s_true.x, s_true.v, s, z, noise_scale, params),
                       DiagMat3(*s), w)


def _noisy_mean(x, v, s, z, k: float, params: SystemParams, xp=math):
    """measure_mean at (x, v) plus k*sqrt(s_i)*z_i on channel i, for
    variances s = (s1, s2, s3) and standard-normal draws z."""
    phi, tau, mu = measure_mean(x, v, params, xp)
    return (phi + k * xp.sqrt(s[0]) * z[0], tau + k * xp.sqrt(s[1]) * z[1],
            mu + k * xp.sqrt(s[2]) * z[2])
