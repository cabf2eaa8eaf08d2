import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uav_isac import ekf, optimize, sensing
from uav_isac.errors import NotPositiveDefiniteError, SingularMatrixError
from uav_isac.params import SystemParams, process_noise_cov
from uav_isac.sensing import (
    achievable_rate,
    jacobian,
    measure_mean,
    measured_variances,
    noise_weights,
    sample_measurement,
)

import oracles

P = SystemParams()


def _rand_cov(rng, scale=1.0):
    a = rng.normal(size=(2, 2))
    return a @ a.T * scale + np.diag([0.05, 0.01])


def _measure(x, v, rng):
    """The weights at the true state (x, v) and one noisy measurement
    there, drawn from rng as the slot loop draws it."""
    w = noise_weights(x, P)
    return w, sample_measurement(x, v, measured_variances(w), rng.standard_normal(3).tolist(),
                                 1.0, P)


def _update_step(x, v, mse_pred, w, y):
    """The slot loop's update step: the weights check, then the prior
    information of the prediction MSE, then ekf.update."""
    measured_variances(w)
    return ekf.update(x, v, ekf.prior_information(mse_pred), w, y, P)


def test_predict_matches_matrix_algebra():
    rng = np.random.default_rng(21)
    g = np.array([[1.0, P.dt], [0.0, 1.0]])
    qs = oracles.sym_matrix(process_noise_cov(P.dt, P.q_tilde))
    for _ in range(30):
        m = _rand_cov(rng)
        want_mse = g @ m @ g.T + qs
        assert np.allclose(oracles.sym_matrix(ekf.predict(oracles.sym_entries(m), P)), want_mse,
                           rtol=1e-13, atol=1e-15)


def test_predict_zero_prior_gives_process_noise():
    assert ekf.predict((0.0, 0.0, 0.0), P) == process_noise_cov(P.dt, P.q_tilde)


def test_process_noise_is_built_once_per_params(monkeypatch):
    from uav_isac import params as params_module
    from uav_isac.simulate import ScenarioConfig, run_scenario

    built = []
    monkeypatch.setattr(params_module, "process_noise_cov",
                        lambda dt, q: built.append(dt) or process_noise_cov(dt, q))
    p = SystemParams()
    m = (1.0, 0.1, 0.5)
    assert ekf.predict(m, p) == ekf.predict(m, P)
    run_scenario(ScenarioConfig(n_slots=10, scheme="right_above"), p)
    assert len(built) == 1 and p.process_noise == process_noise_cov(p.dt, p.q_tilde)


def test_update_against_numpy_reference():
    """Full textbook Kalman update in numpy as the oracle."""
    rng = np.random.default_rng(22)
    d = oracles.params_dict(P)
    for _ in range(40):
        x = float(rng.uniform(5, 120)) * float(rng.choice([-1.0, 1.0]))
        v = float(rng.uniform(-25, 25))
        m = _rand_cov(rng, scale=0.5)
        w, y = _measure(x + 0.3, v - 0.2, rng)

        iota, kappa, zeta, nu = oracles.jacobian_entries(x, v, d)
        j = np.array([[iota, 0.0], [kappa, 0.0], [zeta, nu]])
        r = np.diag(measured_variances(w))
        s = r + j @ m @ j.T
        k = m @ j.T @ np.linalg.inv(s)
        innov = np.array(y) - np.array(measure_mean(x, v, P))
        want_state = np.array([x, v]) + k @ innov
        want_mse = (np.eye(2) - k @ j) @ m
        want_mse = 0.5 * (want_mse + want_mse.T)

        x_hat, v_hat, mse = _update_step(x, v, oracles.sym_entries(m), w, y)
        assert x_hat == pytest.approx(want_state[0], rel=1e-9, abs=1e-9)
        assert v_hat == pytest.approx(want_state[1], rel=1e-9, abs=1e-9)
        assert np.allclose(oracles.sym_matrix(mse), want_mse, rtol=1e-7, atol=1e-12)
        assert np.linalg.eigvalsh(oracles.sym_matrix(mse))[0] > 0.0


def test_update_ignores_uninformative_channels():
    x, v = 30.0 + 5.0 * P.dt, 5.0
    mse_pred = ekf.predict((1.0, 0.0, 0.25), P)
    phi, tau, mu = measure_mean(x, v, P)
    x_hat, v_hat, mse = _update_step(x, v, mse_pred, (1e-30,) * 3,
                                     (phi + 0.2, tau * 1.1, mu - 40.0))
    assert x_hat == pytest.approx(x, abs=1e-9)
    assert v_hat == pytest.approx(v, abs=1e-9)
    assert mse[0] == pytest.approx(mse_pred[0], rel=1e-9)
    assert mse[2] == pytest.approx(mse_pred[2], rel=1e-9)


def test_update_shrinks_uncertainty():
    rng = np.random.default_rng(23)
    x, v = 60.0 - 8.0 * P.dt, -8.0
    mse_pred = ekf.predict((4.0, 0.0, 1.0), P)
    w, y = _measure(x, v, rng)
    mse = _update_step(x, v, mse_pred, w, y)[2]
    assert mse[0] < mse_pred[0]
    assert mse[2] < mse_pred[2]


@pytest.mark.parametrize("bad", [0.0, math.inf])
def test_update_rejects_degenerate_variance(bad):
    mse_pred = ekf.predict((1.0, 0.0, 0.25), P)
    y = measure_mean(31.0, 5.0, P)
    for k in range(3):
        s = [1e-6, 1e-20, 0.2]
        s[k] = bad
        with pytest.raises(SingularMatrixError):
            _update_step(31.0, 5.0, mse_pred, sensing._variances(s), y)


@pytest.mark.parametrize("bad", [0.0, math.inf])
def test_update_rejects_degenerate_carried_weight(bad):
    # the message lists the variances as _variances forms them from the weights
    mse_pred = ekf.predict((1.0, 0.0, 0.25), P)
    y = measure_mean(31.0, 5.0, P)
    for k in range(3):
        w = [1e6, 1e20, 5.0]
        w[k] = bad
        s = sensing._variances(w)
        with pytest.raises(SingularMatrixError, match=re.escape(f"noise variances {s} need")):
            _update_step(31.0, 5.0, mse_pred, tuple(w), y)


def test_update_rejects_singular_prior():
    w, y = _measure(30.0, 5.0, np.random.default_rng(0))
    with pytest.raises(NotPositiveDefiniteError, match="mse_pred"):
        _update_step(30.0, 5.0, (0.0, 0.0, 0.0), w, y)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(x=st.floats(1.0, 120.0), sign=st.sampled_from([-1.0, 1.0]),
       v=st.floats(-30.0, 30.0),
       log_m11=st.floats(math.log(0.02), math.log(20.0)),
       log_m22=st.floats(math.log(0.01), math.log(10.0)),
       rho=st.floats(-0.9, 0.9), seed=st.integers(0, 2**16))
def test_information_core_property(x, sign, v, log_m11, log_m22, rho, seed):
    x *= sign
    m11, m22 = math.exp(log_m11), math.exp(log_m22)
    m_p = (m11, rho * math.sqrt(m11 * m22), m22)
    post = _update_step(x, v, m_p, *_measure(x + 0.3, v - 0.2, np.random.default_rng(seed)))[2]
    # the posterior is positive definite and no larger than the prior
    assert post[0] > 0.0 and post[0] * post[2] - post[1] * post[1] > 0.0
    gap = oracles.sym_matrix(m_p) - oracles.sym_matrix(post)
    assert np.linalg.eigvalsh(gap)[0] >= -1e-12 * (m_p[0] + m_p[2])
    # the measurement-only bound is the zero-prior limit of the anticipated one
    faint = tuple(mij * 1e12 for mij in m_p)
    pcrb_x, pcrb_v, _ = ekf.predicted_pcrb(x, v, ekf.prior_information(faint), P)
    crb_x, crb_v = ekf.crb_measurement(x, v, P)
    assert pcrb_x == pytest.approx(crb_x, rel=1e-9)
    assert pcrb_v == pytest.approx(crb_v, rel=1e-9)


def test_information_terms_match_fisher_oracle():
    rng = np.random.default_rng(24)
    d = oracles.params_dict(P)
    for _ in range(200):
        x = float(rng.uniform(-130, 130))
        v = float(rng.uniform(-30, 30))
        if abs(x) < 1e-6:
            continue
        f11, f12, f22 = oracles.fisher_2x2(x, v, d)
        i_pos, zz, zv, vv = ekf._fisher_terms(x, v, P, noise_weights(x, P))
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
        pcrb_x, pcrb_v, weighted = ekf.predicted_pcrb(
            x, v, ekf.prior_information(oracles.sym_entries(m)), P)
        want_x, want_v = oracles.pcrb_pair(x, v, m, d)
        assert pcrb_x == pytest.approx(want_x, rel=1e-10)
        assert pcrb_v == pytest.approx(want_v, rel=1e-10)
        assert weighted == pytest.approx(P.alpha * want_x + (1 - P.alpha) * want_v, rel=1e-10)
        assert pcrb_x > 0 and pcrb_v > 0


def test_predicted_pcrb_rejects_bad_prior():
    with pytest.raises(NotPositiveDefiniteError):
        ekf.predicted_pcrb(50.0, 0.0, ekf.prior_information((1.0, 2.0, 1.0)), P)


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


def test_crb_v_at_zero_speed_is_finite_where_crb_x_is_infinite():
    # the position information underflows to 0, and zz = 0 at v = 0 must
    # not multiply the infinite crb_x into a NaN
    p = SystemParams(alpha=0.0, a1=1e160, a2=1e160)
    vv = ekf._fisher_terms(35.355, 0.0, p)[3]
    assert ekf.crb_measurement(35.355, 0.0, p) == (math.inf, 1.0 / vv)
    res = optimize.solve_sp1(p)
    assert ekf.weighted_g(res.x_star, 0.0, p) == res.g_star == pytest.approx(7.35e-6, rel=1e-3)


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


# -------------------------------------------- the math and numpy namespaces

def _namespace_states(n=5000, seed=8):
    """n seeded relative states (x, v) as two arrays, the first four at
    x = 0, -0.0 and both ends of the QoS disc, and the same states as
    float pairs."""
    rng = np.random.default_rng(seed)
    x_c = optimize.qos_radius(P)
    x = np.concatenate([[0.0, -0.0, x_c, -x_c], rng.uniform(-200.0, 200.0, n - 4)])
    v = rng.uniform(-20.0, 20.0, n)
    return (x, v), list(zip(x.tolist(), v.tolist()))


def _assert_rows_match(batch, rows, rel=1e-15):
    """Each array of batch equals its column of the float rows within rel,
    and the float form returns plain floats."""
    for got, col in zip(batch, zip(*rows), strict=True):
        assert all(type(c) is float for c in col)
        want = np.array(col)
        assert np.all(np.abs(got - want) <= rel * np.abs(want))


def test_sensing_numpy_namespace_matches_float_form_row_by_row():
    (x, v), states = _namespace_states()
    z = np.random.default_rng(9).standard_normal((3, len(states)))
    s = tuple(1.0 / wi for wi in noise_weights(x, P))
    _assert_rows_match(measure_mean(x, v, P, np), [measure_mean(a, b, P) for a, b in states])
    _assert_rows_match(jacobian(x, v, P, np), [jacobian(a, b, P) for a, b in states])
    _assert_rows_match([achievable_rate(x, P, np)], [(achievable_rate(a, P),) for a, _ in states])
    _assert_rows_match(
        sample_measurement(x, v, s, z, 1.0, P, np),
        [sample_measurement(a, b, sensing._variances(noise_weights(a, P)), z[:, i].tolist(), 1.0, P)
         for i, (a, b) in enumerate(states)])


def test_posterior_numpy_namespace_matches_float_form_row_by_row():
    (x, v), states = _namespace_states()
    n = len(states)
    rng = np.random.default_rng(10)
    x_true, v_true = x + rng.normal(0.0, 0.5, n), v + rng.normal(0.0, 0.5, n)
    w = noise_weights(x_true, P)
    y = sample_measurement(x_true, v_true, tuple(1.0 / wi for wi in w),
                           rng.standard_normal((3, n)), 1.0, P, np)
    m11, m22 = np.exp(rng.uniform(-3.0, 3.0, (2, n)))
    prior = (m11, rng.uniform(-0.9, 0.9, n) * np.sqrt(m11 * m22), m22)
    *est, m = ekf.update(x, v, prior, w, y, P, np)
    rows = [ekf.update(a, b, *(tuple(float(c[i]) for c in col) for col in (prior, w, y)), P)
            for i, (a, b) in enumerate(states)]
    # the MSE is the same arithmetic on both forms
    _assert_rows_match(m, [r[2] for r in rows], rel=0.0)
    # the estimate adds M J^T R^-1 (y - h(x_pred)); an ulp by which numpy's
    # transcendentals differ from math's in h is carried through that gain,
    # which the innovation's cancellation can make larger than 1e-15 of it
    iota, kappa, zeta, nu = jacobian(x, v, P, np)
    ulp = [wi * np.spacing(np.abs(hi)) for wi, hi in zip(w, measure_mean(x, v, P, np))]
    m11, m12, m22 = m
    slack = (
        np.abs(m11 * iota) * ulp[0] + np.abs(m11 * kappa) * ulp[1]
        + np.abs(m11 * zeta + m12 * nu) * ulp[2],
        np.abs(m12 * iota) * ulp[0] + np.abs(m12 * kappa) * ulp[1]
        + np.abs(m12 * zeta + m22 * nu) * ulp[2])
    for got_f, col, slack_f in zip(est, zip(*(r[:2] for r in rows)), slack):
        assert all(type(c) is float for c in col)
        want = np.array(col)
        assert np.all(np.abs(got_f - want) <= 1e-15 * np.abs(want) + slack_f)
