"""Geometry-dependent channel models.

The platform flies at fixed altitude H; the tracked object moves on the
ground line below, so the geometry is fully described by the horizontal
relative position x and relative velocity v.  This module maps (x, v)
to the three measured channels (elevation angle, round-trip delay,
Doppler shift), their noise model, the downlink SNR and the achievable
downlink rate.

The noise model is one formula, noise_weights: the per-channel
reciprocal variances 1/s_i at offset x.  The sampled measurement noise,
the filter update and both estimation bounds all read it.
measured_variances is the one check that weights are usable (finite
and positive); the slot loop calls it on floats or on rows before it
samples, so a geometry too far or not finite is refused the same way by
each.

The measurement map, its linearization and the sampler are value
functions of (x, v): measure_mean, linearize (the map and its Jacobian
at one state) and sample_measurement.  The filter update runs
linearize, and the validation suite checks it.  They and
achievable_rate take the module of their transcendentals as xp: math
by default, numpy for a batch whose values are arrays (numpy >= 2.0
spells hypot, atan2, sqrt and log2 as math does).
"""

from __future__ import annotations

import math

from .errors import SingularMatrixError, entry, raise_at_first
from .params import SystemParams


def comm_snr(x, params: SystemParams):
    """Downlink SNR P_A*N_t*G_c/sigma_C^2 with the one-way channel gain
    G_c = wavelength^2 / (16 pi^2 d^2), generic over floats and arrays."""
    d2 = x * x + params.h_alt * params.h_alt
    return (params.p_a_w * params.n_t * (params.wavelength ** 2 / (16.0 * math.pi ** 2 * d2))
            / params.sigma_c2_w)


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


def _variances(w) -> tuple[float, float, float]:
    """The reciprocals 1/w_i of channel weights w (or weights of
    variances w), formed as numpy forms them: 0 gives inf and NaN stays
    NaN."""
    w1, w2, w3 = w
    return 1.0 / w1 if w1 else math.inf, 1.0 / w2 if w2 else math.inf, 1.0 / w3 if w3 else math.inf


def measured_variances(w) -> tuple[float, float, float]:
    """The variances 1/w_i of channel weights w, floats or arrays with an
    entry per row.  The one check that weights are usable: raises
    SingularMatrixError, naming the variances of the lowest failing entry
    as _variances forms them, unless each weight is finite and positive."""
    w1, w2, w3 = w
    if (bad := ((0.0 < w1) & (w1 < math.inf) & (0.0 < w2) & (w2 < math.inf)
                & (0.0 < w3) & (w3 < math.inf)) ^ True) is not False:
        raise_at_first(bad, _refuse_weights, w)
    return 1.0 / w1, 1.0 / w2, 1.0 / w3


def _refuse_weights(i: int, w):
    s = _variances(entry(wi, i) for wi in w)
    raise SingularMatrixError(f"noise variances {s} need finite positive reciprocals")


def linearize(x, v, params: SystemParams, xp=math):
    """The filter's linearization at (x, v): measure_mean's (phi, tau, mu)
    and the Jacobian [[iota, 0], [kappa, 0], [zeta, nu]] (rows angle,
    delay, Doppler; columns position, velocity) as its free entries,
    iota = -H/(H^2+x^2), kappa = 2x/(c d), zeta = -2 f_c v H^2/(c d^3)
    and nu = -2 f_c x/(c d), in one call: (phi, tau, mu, iota, kappa,
    zeta, nu).  The mean repeats measure_mean's arithmetic, d = hypot(x, H)
    as there, and the Jacobian takes d = sqrt(x^2 + H^2)."""
    h, c, f_c = params.h_alt, params.c, params.f_c
    d = xp.hypot(x, h)
    d2 = x * x + h * h
    dj = xp.sqrt(d2)
    fv = -2.0 * f_c * v
    cd = c * dj
    return (xp.atan2(h, x), 2.0 * d / c, fv * x / (c * d),
            -h / d2, 2.0 * x / cd, fv * h * h / (c * d2 * dj), -2.0 * f_c * x / cd)


def sample_measurement(x, v, s, z, k: float, params: SystemParams, xp=math):
    """One noisy measurement (phi, tau, mu) at the true relative state
    (x, v): measure_mean plus k*sqrt(s_i)*z_i on channel i, for the
    variances s = (s1, s2, s3) that measured_variances returns and
    standard-normal draws z = (z1, z2, z3), which the caller owns.  k
    scales the noise standard deviations (0 gives the mean exactly)."""
    phi, tau, mu = measure_mean(x, v, params, xp)
    return (phi + k * xp.sqrt(s[0]) * z[0], tau + k * xp.sqrt(s[1]) * z[1],
            mu + k * xp.sqrt(s[2]) * z[2])
