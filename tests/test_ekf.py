import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uav_isac import ekf
from uav_isac.errors import NotPositiveDefiniteError, SingularMatrixError
from uav_isac.linalg2 import DiagMat3, Sym2, min_eigenvalue_symmetric, process_noise_cov
from uav_isac.params import SystemParams
from uav_isac.sensing import (
    Measurement,
    RelativeState,
    measure_mean,
    noise_cov_actual,
    noise_weights,
    sample_measurement,
)

import oracles

P = SystemParams()


def _rand_cov(rng, scale=1.0):
    a = rng.normal(size=(2, 2))
    return a @ a.T * scale + np.diag([0.05, 0.01])


def test_predict_matches_matrix_algebra():
    rng = np.random.default_rng(21)
    g = np.array([[1.0, P.dt], [0.0, 1.0]])
    qs = process_noise_cov(P.dt, P.q_tilde).as_array()
    for _ in range(30):
        est = RelativeState(float(rng.uniform(-80, 80)), float(rng.uniform(-20, 20)))
        m = _rand_cov(rng)
        prev = ekf.FilterState(est, Sym2.from_array(m))
        pred = ekf.predict(prev, P)
        want_state = g @ np.array([est.x, est.v])
        assert pred.pred.x == pytest.approx(want_state[0], rel=1e-14, abs=1e-12)
        assert pred.pred.v == pytest.approx(want_state[1], rel=1e-14, abs=1e-12)
        want_mse = g @ m @ g.T + qs
        assert np.allclose(pred.mse_pred.as_array(), want_mse, rtol=1e-13, atol=1e-15)


def test_predict_zero_prior_gives_process_noise():
    prev = ekf.FilterState(RelativeState(0.0, 0.0), Sym2(0.0, 0.0, 0.0))
    pred = ekf.predict(prev, P)
    assert pred.mse_pred == process_noise_cov(P.dt, P.q_tilde)


def test_update_against_numpy_reference():
    """Full textbook Kalman update in numpy as the oracle."""
    rng = np.random.default_rng(22)
    d = oracles.params_dict(P)
    for _ in range(40):
        x = float(rng.uniform(5, 120)) * float(rng.choice([-1.0, 1.0]))
        v = float(rng.uniform(-25, 25))
        m = _rand_cov(rng, scale=0.5)
        pred = ekf.Prediction(RelativeState(x, v), Sym2.from_array(m))
        y = sample_measurement(RelativeState(x + 0.3, v - 0.2), P, rng)

        iota, kappa, zeta, nu = oracles.jacobian_entries(x, v, d)
        j = np.array([[iota, 0.0], [kappa, 0.0], [zeta, nu]])
        r = np.diag(y.noise_cov.diagonal())
        s = r + j @ m @ j.T
        k = m @ j.T @ np.linalg.inv(s)
        phi, tau, mu = measure_mean(RelativeState(x, v), P)
        innov = np.array([y.phi - phi, y.tau - tau, y.mu - mu])
        want_state = np.array([x, v]) + k @ innov
        want_mse = (np.eye(2) - k @ j) @ m
        want_mse = 0.5 * (want_mse + want_mse.T)

        post = ekf.update(pred, y, P)
        assert post.est.x == pytest.approx(want_state[0], rel=1e-9, abs=1e-9)
        assert post.est.v == pytest.approx(want_state[1], rel=1e-9, abs=1e-9)
        assert np.allclose(post.mse.as_array(), want_mse, rtol=1e-7, atol=1e-12)
        assert min_eigenvalue_symmetric(post.mse) > 0.0


def test_update_ignores_uninformative_channels():
    pred = ekf.predict(
        ekf.FilterState(RelativeState(30.0, 5.0), Sym2.diag(1.0, 0.25)), P)
    phi, tau, mu = measure_mean(pred.pred, P)
    y = Measurement(phi + 0.2, tau * 1.1, mu - 40.0, DiagMat3(1e30, 1e30, 1e30))
    post = ekf.update(pred, y, P)
    assert post.est.x == pytest.approx(pred.pred.x, abs=1e-9)
    assert post.est.v == pytest.approx(pred.pred.v, abs=1e-9)
    assert post.mse.m11 == pytest.approx(pred.mse_pred.m11, rel=1e-9)
    assert post.mse.m22 == pytest.approx(pred.mse_pred.m22, rel=1e-9)


def test_update_shrinks_uncertainty():
    rng = np.random.default_rng(23)
    pred = ekf.predict(
        ekf.FilterState(RelativeState(60.0, -8.0), Sym2.diag(4.0, 1.0)), P)
    y = sample_measurement(pred.pred, P, rng)
    post = ekf.update(pred, y, P)
    assert post.mse.m11 < pred.mse_pred.m11
    assert post.mse.m22 < pred.mse_pred.m22


@pytest.mark.parametrize("bad", [0.0, math.inf])
def test_update_rejects_degenerate_variance(bad):
    pred = ekf.predict(
        ekf.FilterState(RelativeState(30.0, 5.0), Sym2.diag(1.0, 0.25)), P)
    phi, tau, mu = measure_mean(pred.pred, P)
    for k in range(3):
        s = [1e-6, 1e-20, 0.2]
        s[k] = bad
        with pytest.raises(SingularMatrixError):
            ekf.update(pred, Measurement(phi, tau, mu, DiagMat3(*s)), P)


def test_update_rejects_singular_prior():
    pred = ekf.Prediction(RelativeState(30.0, 5.0), Sym2(0.0, 0.0, 0.0))
    y = sample_measurement(pred.pred, P, np.random.default_rng(0))
    with pytest.raises(NotPositiveDefiniteError, match="mse_pred"):
        ekf.update(pred, y, P)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(x=st.floats(1.0, 120.0), sign=st.sampled_from([-1.0, 1.0]),
       v=st.floats(-30.0, 30.0),
       log_m11=st.floats(math.log(0.02), math.log(20.0)),
       log_m22=st.floats(math.log(0.01), math.log(10.0)),
       rho=st.floats(-0.9, 0.9), seed=st.integers(0, 2**16))
def test_information_core_property(x, sign, v, log_m11, log_m22, rho, seed):
    x *= sign
    m11, m22 = math.exp(log_m11), math.exp(log_m22)
    m_p = Sym2(m11, rho * math.sqrt(m11 * m22), m22)
    pred = ekf.Prediction(RelativeState(x, v), m_p)
    y = sample_measurement(RelativeState(x + 0.3, v - 0.2), P, np.random.default_rng(seed))
    post = ekf.update(pred, y, P).mse
    # the posterior is positive definite and no larger than the prior
    assert post.m11 > 0.0 and post.det > 0.0
    gap = Sym2(m_p.m11 - post.m11, m_p.m12 - post.m12, m_p.m22 - post.m22)
    assert min_eigenvalue_symmetric(gap) >= -1e-12 * m_p.trace
    # the measurement-only bound is the zero-prior limit of the anticipated one
    faint = Sym2(m_p.m11 * 1e12, m_p.m12 * 1e12, m_p.m22 * 1e12)
    pair = ekf.predicted_pcrb(x, v, faint, P)
    crb_x, crb_v = ekf.crb_measurement(x, v, P)
    assert pair.pcrb_x == pytest.approx(crb_x, rel=1e-9)
    assert pair.pcrb_v == pytest.approx(crb_v, rel=1e-9)


def test_information_terms_match_fisher_oracle():
    rng = np.random.default_rng(24)
    d = oracles.params_dict(P)
    for _ in range(200):
        x = float(rng.uniform(-130, 130))
        v = float(rng.uniform(-30, 30))
        if abs(x) < 1e-6:
            continue
        f11, f12, f22 = oracles.fisher_2x2(x, v, d)
        i_pos, zz, zv, vv = ekf._fisher_terms(x, v, *noise_weights(x, P), P)
        assert i_pos + zz == pytest.approx(float(f11), rel=1e-11)
        assert zv == pytest.approx(float(f12), rel=1e-11, abs=1e-18)
        assert vv == pytest.approx(float(f22), rel=1e-11)


def test_predicted_pcrb_matches_generic_inversion():
    rng = np.random.default_rng(25)
    d = oracles.params_dict(P)
    for _ in range(100):
        x = float(rng.uniform(-100, 100))
        v = float(rng.uniform(-25, 25))
        m = _rand_cov(rng)
        pair = ekf.predicted_pcrb(x, v, Sym2.from_array(m), P)
        want_x, want_v = oracles.pcrb_pair(x, v, m, d)
        assert pair.pcrb_x == pytest.approx(want_x, rel=1e-10)
        assert pair.pcrb_v == pytest.approx(want_v, rel=1e-10)
        assert pair.weighted == pytest.approx(
            P.alpha * want_x + (1 - P.alpha) * want_v, rel=1e-10)
        assert pair.pcrb_x > 0 and pair.pcrb_v > 0


def test_predicted_pcrb_rejects_bad_prior():
    with pytest.raises(NotPositiveDefiniteError):
        ekf.predicted_pcrb(50.0, 0.0, Sym2(1.0, 2.0, 1.0), P)


def test_crb_measurement_frozen_points():
    cx, cv = ekf.crb_measurement(50.0, 10.0, P)
    assert cx == pytest.approx(oracles.FROZEN["crb_x_50_10"], rel=1e-12)
    assert cv == pytest.approx(oracles.FROZEN["crb_v_50_10"], rel=1e-12)
    _, cv0 = ekf.crb_measurement(50.0, 0.0, P)
    assert cv0 == pytest.approx(oracles.FROZEN["crb_v_50_0"], rel=1e-12)


def test_crb_measurement_matches_inversion_oracle():
    rng = np.random.default_rng(26)
    d = oracles.params_dict(P)
    for _ in range(200):
        x = float(rng.uniform(1e-3, 140)) * float(rng.choice([-1.0, 1.0]))
        v = float(rng.uniform(-30, 30))
        cx, cv = ekf.crb_measurement(x, v, P)
        want_x, want_v = oracles.crb_xy(x, v, d)
        assert cx == pytest.approx(float(want_x), rel=1e-10)
        assert cv == pytest.approx(float(want_v), rel=1e-10)


def test_crb_overhead_velocity_barrier():
    cx, cv = ekf.crb_measurement(0.0, 7.0, P)
    assert math.isfinite(cx) and cx > 0
    assert cv == math.inf


def test_crb_x_independent_of_speed():
    cx1, _ = ekf.crb_measurement(42.0, 0.0, P)
    cx2, _ = ekf.crb_measurement(42.0, 25.0, P)
    assert cx1 == pytest.approx(cx2, rel=1e-14)


def test_weighted_g_edges():
    from dataclasses import replace
    cx, cv = ekf.crb_measurement(33.0, 4.0, P)
    assert ekf.weighted_g(33.0, 4.0, replace(P, alpha=1.0)) == cx
    assert ekf.weighted_g(33.0, 4.0, replace(P, alpha=0.0)) == cv
    assert ekf.weighted_g(33.0, 4.0, P) == pytest.approx(0.5 * cx + 0.5 * cv, rel=1e-14)
    # alpha=1 overhead: the infinite speed bound must not poison the mix
    assert math.isfinite(ekf.weighted_g(0.0, 4.0, replace(P, alpha=1.0)))
