import math

import pytest

from uav_isac import linalg2, sensing, validate
from uav_isac.linalg2 import Sym2
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
    a = [(r.name, r.passed, r.detail) for r in validate.run_all(rng_seed=7)]
    b = [(r.name, r.passed, r.detail) for r in validate.run_all(rng_seed=7)]
    assert a == b


def test_flipped_doppler_slope_is_caught(monkeypatch):
    """Mutation: break the speed column of the measurement Jacobian."""
    real = sensing.jacobian

    def flipped(x, v, params, xp=math):
        iota, kappa, zeta, nu = real(x, v, params, xp)
        return iota, kappa, zeta, -nu

    monkeypatch.setattr(sensing, "jacobian", flipped)
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
    real = linalg2.process_noise_cov

    def skewed(dt, q_tilde):
        q = real(dt, q_tilde)
        return Sym2(q.m11, q.m12 * 1.01, q.m22)

    monkeypatch.setattr(linalg2, "process_noise_cov", skewed)
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


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_checks_pass_at_the_weight_edges(alpha):
    # sp1_alpha_continuity perturbs the weight one-sided there
    results = validate.run_all(params=SystemParams(alpha=alpha))
    assert [(r.name, r.detail) for r in results if not r.passed] == []
