import math
import re

import numpy as np
import pytest

from uav_isac.errors import SingularMatrixError
from uav_isac.params import SystemParams
from uav_isac.sensing import (
    _variances,
    achievable_rate,
    comm_snr,
    jacobian,
    measure_mean,
    measured_variances,
    noise_weights,
    sample_measurement,
)

import oracles

P = SystemParams()


def _noise_cov(x):
    """The sampled noise variances at offset x: the reciprocals of
    noise_weights, as the slot loop forms them."""
    return _variances(noise_weights(x, P))


def test_echo_gain_frozen_point():
    # the echo gain beta_r/d^4 that the noise model folds into its weights
    d2 = 50.0 ** 2 + P.h_alt ** 2
    assert P.beta_r / (d2 * d2) == pytest.approx(oracles.FROZEN["g_r_50"], rel=1e-13)


def test_comm_gain_frozen_point():
    # the one-way downlink gain wavelength^2/(16 pi^2 d^2) that comm_snr folds in
    gain = comm_snr(50.0, P) * P.sigma_c2_w / (P.p_a_w * P.n_t)
    assert gain == pytest.approx(oracles.FROZEN["g_c_50"], rel=1e-13)


def test_rate_frozen_point_and_symmetry():
    assert achievable_rate(50.0, P) == pytest.approx(oracles.FROZEN["rate_50"], rel=1e-13)
    assert achievable_rate(-50.0, P) == achievable_rate(50.0, P)
    # strictly decreasing in |x|
    xs = np.linspace(0.0, 120.0, 25)
    rates = [achievable_rate(float(x), P) for x in xs]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_measure_mean_frozen_point():
    phi, tau, mu = measure_mean(50.0, 10.0, P)
    assert phi == pytest.approx(oracles.FROZEN["phi_50"], rel=1e-15)
    assert tau == pytest.approx(oracles.FROZEN["tau_50"], rel=1e-13)
    assert mu == pytest.approx(oracles.FROZEN["mu_50_10"], rel=1e-13)


def test_measure_mean_domains():
    rng = np.random.default_rng(11)
    for _ in range(200):
        x, v = float(rng.uniform(-200, 200)), float(rng.uniform(-40, 40))
        phi, tau, mu = measure_mean(x, v, P)
        assert 0.0 < phi < math.pi
        assert tau >= 2.0 * P.h_alt / P.c * (1.0 - 1e-12)
        if x * v != 0.0:
            assert math.copysign(1.0, mu) == -math.copysign(1.0, x * v)


def test_directly_overhead_geometry():
    phi, tau, mu = measure_mean(0.0, 12.0, P)
    assert phi == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert tau == pytest.approx(2.0 * P.h_alt / P.c, rel=1e-15)
    assert mu == 0.0


def test_noise_cov_frozen_point():
    s1, s2, s3 = _noise_cov(50.0)
    assert s1 == pytest.approx(oracles.FROZEN["sigma1sq_50"], rel=1e-13)
    assert s2 == pytest.approx(oracles.FROZEN["sigma2sq_50"], rel=1e-13)
    assert s3 == pytest.approx(oracles.FROZEN["sigma3sq_50"], rel=1e-13)


def test_noise_cov_longhand_oracle():
    d = oracles.params_dict(P)
    for x in (5.0, 20.0, 50.0, 110.0):
        want = oracles.noise_variances(x, 0.0, d)
        for got, s in zip(_noise_cov(x), want):
            assert got == pytest.approx(float(s), rel=1e-12)


def test_noise_cov_far_out_is_infinite_as_in_numpy():
    # x^2 overflows, so every weight underflows to 0 and 1/0 gives inf
    assert _noise_cov(1e200) == (math.inf,) * 3
    assert _noise_cov(-1e160) == (math.inf,) * 3


def test_jacobian_frozen_point():
    iota, kappa, zeta, nu = jacobian(50.0, 10.0, P)
    assert iota == pytest.approx(oracles.FROZEN["iota_50"], rel=1e-13)
    assert kappa == pytest.approx(oracles.FROZEN["kappa_50"], rel=1e-13)
    assert zeta == pytest.approx(oracles.FROZEN["zeta_50_10"], rel=1e-13)
    assert nu == pytest.approx(oracles.FROZEN["nu_50"], rel=1e-13)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(25):
        x = float(rng.uniform(-150, 150))
        v = float(rng.uniform(-30, 30))
        iota, kappa, zeta, nu = jacobian(x, v, P)
        hx = 1e-5 * max(1.0, abs(x))
        hv = 1e-5 * max(1.0, abs(v))
        for idx, (entry, fd) in enumerate([
            (iota, oracles.central_fd1(lambda t: measure_mean(t, v, P)[0], x, hx)),
            (kappa, oracles.central_fd1(lambda t: measure_mean(t, v, P)[1], x, hx)),
            (zeta, oracles.central_fd1(lambda t: measure_mean(t, v, P)[2], x, hx)),
            (nu, oracles.central_fd1(lambda t: measure_mean(x, t, P)[2], v, hv)),
        ]):
            assert entry == pytest.approx(fd, rel=1e-5, abs=1e-10), f"entry {idx} at x={x}, v={v}"


def test_sample_measurement_zero_scale_hits_mean_and_keeps_nominal_cov():
    z = np.random.default_rng(13).standard_normal(3).tolist()
    s = measured_variances(noise_weights(50.0, P))
    assert s == _noise_cov(50.0)
    assert sample_measurement(50.0, 10.0, s, z, 0.0, P) == measure_mean(50.0, 10.0, P)


@pytest.mark.parametrize("x, variances", [
    (1e200, "(inf, inf, inf)"),      # the weights underflow to 0
    (math.nan, "(nan, nan, nan)"),
])
def test_sample_measurement_refuses_unusable_weights_before_drawing(x, variances):
    # the weights check the slot loop runs before it samples
    with pytest.raises(SingularMatrixError, match=re.escape(
            f"noise variances {variances} need finite positive reciprocals")):
        measured_variances(noise_weights(x, P))


def test_sample_measurement_statistics():
    rng = np.random.default_rng(16)
    n = 20000
    cov = _noise_cov(50.0)
    phi0, tau0, mu0 = measure_mean(50.0, 10.0, P)
    # n measurements' draws in stream order, one batch with numpy
    draws = np.array(sample_measurement(50.0, 10.0, cov, rng.standard_normal((n, 3)).T, 1.0, P,
                                        np)).T
    sample_var = draws.var(axis=0)
    for got, want in zip(sample_var, cov):
        assert got == pytest.approx(want, rel=0.05)
    mean = draws.mean(axis=0)
    for got, want, sd in zip(mean, (phi0, tau0, mu0), np.sqrt(cov)):
        assert abs(got - want) < 5.0 * sd / math.sqrt(n)


@pytest.mark.parametrize("w, batch_index, variances", [
    ((1.0, 2.0, 0), None, "(1.0, 0.5, inf)"),  # an int weight
    ((np.array([1.0, 4.0]), 2, np.array([2.0, -1.0])), 1, "(0.25, 0.5, -1.0)"),  # a shared int
], ids=["float", "batch"])
def test_measured_variances_refuses_int_weights(w, batch_index, variances):
    # an int weight, or an int entry that every row of a batch shares, is
    # read at the failing entry like a float one
    with pytest.raises(SingularMatrixError, match=re.escape(
            f"noise variances {variances} need finite positive reciprocals")) as exc_info:
        measured_variances(w)
    assert getattr(exc_info.value, "batch_index", None) == batch_index
