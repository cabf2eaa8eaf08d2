import math

import pytest

from uav_isac import optimize, sensing, validate
from uav_isac import params as params_module
from uav_isac.params import SystemParams


def _by_name(results):
    return {r.name: r for r in results}


def test_all_checks_pass_on_healthy_build():
    results = validate.run_all()
    failed = [r.name for r in results if not r.passed]
    assert failed == [], f"failing checks: {failed}"
    assert len(results) == len(validate.CHECKS)


def test_results_carry_details():
    for r in validate.run_all():
        assert r.name and isinstance(r.passed, bool)
        assert isinstance(r.detail, str) and r.detail


def test_deterministic_given_seed():
    a = [(r.name, r.passed, r.detail) for r in validate.run_all()]
    b = [(r.name, r.passed, r.detail) for r in validate.run_all()]
    assert a == b


def test_flipped_doppler_slope_is_caught(monkeypatch):
    """Mutation: break the speed column of the measurement Jacobian."""
    real = sensing.linearize

    def flipped(x, v, params, xp=math):
        *entries, nu = real(x, v, params, xp)
        return *entries, -nu

    monkeypatch.setattr(sensing, "linearize", flipped)
    res = _by_name(validate.run_all())
    assert not res["jacobian_vs_finite_difference"].passed


def test_scaled_angle_weight_is_caught(monkeypatch):
    """Mutation: scale the angle channel's weight 1/s1 in the one noise
    model by 1.01."""
    real = sensing.noise_weights

    def scaled(x, params, u=None, h_alt=None):
        w1, w2, w3 = real(x, params, u, h_alt)
        return 1.01 * w1, w2, w3

    monkeypatch.setattr(sensing, "noise_weights", scaled)
    res = _by_name(validate.run_all())
    assert not res["noise_model_longhand"].passed


def test_asymmetric_process_noise_is_caught(monkeypatch):
    """Mutation: scale the off-diagonal of the process-noise matrix by
    1.01, the entry an asymmetric matrix would get wrong."""
    real = params_module.process_noise_cov

    def skewed(dt, q_tilde):
        q11, q12, q22 = real(dt, q_tilde)
        return q11, q12 * 1.01, q22

    monkeypatch.setattr(params_module, "process_noise_cov", skewed)
    res = _by_name(validate.run_all())
    assert not res["process_noise_psd"].passed


def test_crashing_check_reports_failure_not_crash(monkeypatch):
    def boom(x, params, u=None, h_alt=None):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr(sensing, "noise_weights", boom)
    results = validate.run_all()
    assert any(not r.passed for r in results)
    assert all(isinstance(r.detail, str) for r in results)


def test_custom_params_accepted():
    results = validate.run_all(params=SystemParams(h_alt=60.0))
    assert all(r.passed for r in results), [
        (r.name, r.detail) for r in results if not r.passed]


# the five checks that need the rate disc, |x| <= qos_radius
NEEDS_RATE_DISC = {"qos_radius_inverse", "sca_descent_and_stationarity", "tracking_sanity",
                   "rate_qos_slots", "geometry_conservation"}


# the defaults are test_all_checks_pass_on_healthy_build's
@pytest.mark.parametrize("fields", [
    # sp1_alpha_continuity perturbs the weight one-sided at the weight edges
    pytest.param({"alpha": 0.0}, id="0.0"),
    pytest.param({"alpha": 1.0}, id="1.0"),
    pytest.param({"q_tilde": 0.05}, id="q_tilde=0.05"),
    pytest.param({"dt": 1.0}, id="dt=1"),
    pytest.param({"a1": 1.5}, id="a1=1.5"),
    # xi < 0: the bracket reaches down to x = 0
    pytest.param({"a1": 0.15}, id="a1=0.15"),
    pytest.param({"h_alt": 10.0}, id="h_alt=10"),
    # the rate overhead at H = 50 m is 12.98 b/s/Hz: no target 1 b/s/Hz higher is reachable
    pytest.param({"gamma_c": 12.0}, id="gamma_c=12"),
    # every slot window has zero length
    pytest.param({"v_a_max": 0.0}, id="v_a_max=0"),
])
def test_checks_pass_at_the_weight_edges(fields):
    results = validate.run_all(params=SystemParams(**fields))
    assert [(r.name, r.detail) for r in results if not r.passed] == []
    assert len(results) == len(validate.CHECKS)


@pytest.mark.parametrize("fields", [{"h_alt": 1000.0}, {"h_alt": 200.0}, {"p_a_dbm": 20.0}],
                         ids=["h_alt=1000", "h_alt=200", "p_a_dbm=20"])
def test_only_the_rate_disc_checks_fail_where_the_rate_target_is_unreachable(fields):
    results = validate.run_all(params=SystemParams(**fields))
    failed = {r.name: r.detail for r in results if not r.passed}
    assert set(failed) <= NEEDS_RATE_DISC
    assert all(d.startswith("raised InfeasibleQosError") for d in failed.values()), failed


def test_no_check_raises_overhead_at_h_alt_10_and_alpha_1():
    # xi <= 0 puts the alpha = 1 optimum at x* = 0, where the velocity
    # information is 0 but carries no weight
    res = _by_name(validate.run_all(params=SystemParams(h_alt=10.0, alpha=1.0)))
    assert [(r.name, r.detail) for r in res.values() if r.detail.startswith("raised")] == []
    assert res["sp1_stationarity"].passed, res["sp1_stationarity"].detail


def test_halved_convexity_lower_bound_is_caught(monkeypatch):
    """Mutation: a bracket end x_l of half its value reaches chi = (H/x_l)^2
    four times chi_bar, where crb_x is no longer convex in chi."""
    real = optimize.convexity_lower_bound

    def halved(params, h_alt=None, xi=None):
        return 0.5 * real(params, h_alt, xi)

    monkeypatch.setattr(optimize, "convexity_lower_bound", halved)
    res = _by_name(validate.run_all())
    assert not res["curvature_certificate"].passed
