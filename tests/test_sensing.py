import math
import re

import numpy as np
import pytest

from uav_isac.errors import SingularMatrixError
from uav_isac.params import SystemParams
from uav_isac.sensing import (
    Measurement,
    RelativeState,
    achievable_rate,
    comm_gain,
    jacobian,
    measure_mean,
    noise_cov_actual,
    sample_measurement,
)

import oracles

P = SystemParams()
S50 = RelativeState(50.0, 10.0)


def test_echo_gain_frozen_point():
    # the echo gain beta_r/d^4 that the noise model folds into its weights
    d2 = 50.0 ** 2 + P.h_alt ** 2
    assert P.beta_r / (d2 * d2) == pytest.approx(oracles.FROZEN["g_r_50"], rel=1e-13)


def test_comm_gain_frozen_point():
    assert comm_gain(50.0, P) == pytest.approx(oracles.FROZEN["g_c_50"], rel=1e-13)


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
    cov = noise_cov_actual(S50, P)
    assert cov.s1 == pytest.approx(oracles.FROZEN["sigma1sq_50"], rel=1e-13)
    assert cov.s2 == pytest.approx(oracles.FROZEN["sigma2sq_50"], rel=1e-13)
    assert cov.s3 == pytest.approx(oracles.FROZEN["sigma3sq_50"], rel=1e-13)


def test_noise_cov_longhand_oracle():
    d = oracles.params_dict(P)
    for x in (5.0, 20.0, 50.0, 110.0):
        s1, s2, s3 = oracles.noise_variances(x, 0.0, d)
        cov = noise_cov_actual(RelativeState(x, 0.0), P)
        assert cov.s1 == pytest.approx(float(s1), rel=1e-12)
        assert cov.s2 == pytest.approx(float(s2), rel=1e-12)
        assert cov.s3 == pytest.approx(float(s3), rel=1e-12)


def test_noise_cov_far_out_is_infinite_as_in_numpy():
    # x^2 overflows, so every weight underflows to 0 and 1/0 gives inf
    assert noise_cov_actual(RelativeState(1e200, 0.0), P).diagonal() == (math.inf,) * 3
    assert noise_cov_actual(RelativeState(-1e160, 3.0), P).diagonal() == (math.inf,) * 3


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
    rng = np.random.default_rng(13)
    m = sample_measurement(S50, P, rng, noise_scale=0.0)
    phi, tau, mu = measure_mean(50.0, 10.0, P)
    assert (m.phi, m.tau, m.mu) == (phi, tau, mu)
    assert m.noise_cov.diagonal() == noise_cov_actual(S50, P).diagonal()


def test_sample_measurement_advances_rng_three_draws():
    rng_a = np.random.default_rng(14)
    rng_b = np.random.default_rng(14)
    sample_measurement(S50, P, rng_a)
    rng_b.standard_normal(3)
    assert rng_a.standard_normal() == rng_b.standard_normal()


@pytest.mark.parametrize("x, variances", [
    (1e200, "(inf, inf, inf)"),      # the weights underflow to 0
    (math.nan, "(nan, nan, nan)"),
])
def test_sample_measurement_refuses_unusable_weights_before_drawing(x, variances):
    rng = np.random.default_rng(16)
    with pytest.raises(SingularMatrixError, match=re.escape(
            f"noise variances {variances} need finite positive reciprocals")):
        sample_measurement(RelativeState(x, 0.0), P, rng)
    assert rng.standard_normal() == np.random.default_rng(16).standard_normal()


def test_sample_measurement_rejects_negative_scale():
    rng = np.random.default_rng(15)
    with pytest.raises(ValueError):
        sample_measurement(S50, P, rng, noise_scale=-0.5)


def test_sample_measurement_statistics():
    rng = np.random.default_rng(16)
    n = 20000
    cov = noise_cov_actual(S50, P)
    phi0, tau0, mu0 = measure_mean(50.0, 10.0, P)
    draws = np.array([
        (m.phi, m.tau, m.mu)
        for m in (sample_measurement(S50, P, rng) for _ in range(n))
    ])
    sample_var = draws.var(axis=0)
    for got, want in zip(sample_var, cov.diagonal()):
        assert got == pytest.approx(want, rel=0.05)
    mean = draws.mean(axis=0)
    for got, want, sd in zip(mean, (phi0, tau0, mu0), np.sqrt(cov.diagonal())):
        assert abs(got - want) < 5.0 * sd / math.sqrt(n)
