import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from uav_isac.errors import InfeasibleQosError
from uav_isac.optimize import qos_radius
from uav_isac.params import PARAM_FIELD_NAMES, SPEED_OF_LIGHT, SystemParams, dbm_to_watts

import oracles


def test_defaults_match_documented_setup():
    p = SystemParams()
    assert p.p_a_dbm == 40.0
    assert p.n_sym == 1e4
    assert p.dt == 0.2
    assert p.wavelength == 0.01
    assert p.f_c == 3e10
    assert p.sigma2_dbm == -80.0
    assert p.sigma_c2_dbm == -80.0
    assert p.gamma_c == 11.0
    assert p.q_tilde == 5.0
    assert p.epsilon == 100.0
    assert p.n_t == 32 and p.n_r == 32
    assert p.a1 == 1.0 and p.a2 == 1.2e-7 and p.a3 == 600.0
    assert p.h_alt == 50.0
    assert p.v_a_max == 30.0
    assert p.alpha == 0.5
    assert p.c == SPEED_OF_LIGHT == 2.9979e8


def test_dbm_conversion():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(40.0) == pytest.approx(10.0, rel=1e-12)
    assert dbm_to_watts(-80.0) == pytest.approx(1e-11, rel=1e-12)
    with pytest.raises(ValueError):
        dbm_to_watts(math.inf)


def test_linear_power_properties():
    p = SystemParams()
    assert p.p_a_w == pytest.approx(10.0, rel=1e-12)
    assert p.sigma2_w == pytest.approx(1e-11, rel=1e-12)
    assert p.sigma_c2_w == pytest.approx(1e-11, rel=1e-12)
    assert p.beta_r == pytest.approx(oracles.FROZEN["beta_r"], rel=1e-14)
    assert p.sens_gain == pytest.approx(oracles.FROZEN["sens_gain"], rel=1e-14)


@pytest.mark.parametrize("field,value", [
    ("n_sym", 0.0), ("n_sym", -1.0),
    ("dt", 0.0), ("wavelength", -0.01), ("f_c", 0.0),
    ("gamma_c", 0.0), ("epsilon", 0.0),
    ("a1", 0.0), ("a2", -1e-7), ("a3", 0.0),
    ("h_alt", 0.0), ("h_alt", -50.0), ("c", 0.0),
    ("q_tilde", -1.0),
    ("alpha", -0.1), ("alpha", 1.1),
    ("v_a_max", -1.0),
    ("p_a_dbm", math.nan), ("sigma2_dbm", math.inf), ("p_a_dbm", 4000.0),
    # qos_radius's 2**gamma_c - 1 overflows from 1024 (a bare OverflowError)
    # and rounds to 0 below about 1.6e-16 (a bare ZeroDivisionError)
    ("gamma_c", 1024.0), ("gamma_c", 2000.0), ("gamma_c", 1.6e-16), ("gamma_c", 1e-20),
])
def test_rejects_bad_values(field, value):
    with pytest.raises(ValueError):
        SystemParams(**{field: value})


def test_rate_targets_next_to_the_refused_ones_reach_a_package_result():
    with pytest.raises(InfeasibleQosError):
        qos_radius(SystemParams(gamma_c=math.nextafter(1024.0, 0.0)))
    assert math.isfinite(qos_radius(SystemParams(gamma_c=2e-16)))


@pytest.mark.parametrize("field,value", [("a1", 1e-170), ("a2", 1e-170), ("a3", 1e-160),
                                         ("a2", 1e200)])
def test_rejects_channel_weight_out_of_range(field, value):
    # sens_gain/a^2 overflows to inf (small a) or underflows to 0 (large a)
    with pytest.raises(ValueError, match=f"^{field} = "):
        SystemParams(**{field: value})


@pytest.mark.parametrize("field,value", [("n_t", 0), ("n_r", -4), ("n_t", 3.5), ("n_t", True)])
def test_rejects_bad_antenna_counts(field, value):
    with pytest.raises(ValueError):
        SystemParams(**{field: value})


def test_numpy_integer_antenna_counts_are_stored_as_int():
    p = SystemParams(n_t=np.int64(32), n_r=np.int32(32))
    assert p == SystemParams()
    assert type(p.n_t) is int and type(p.n_r) is int
    assert type(p.sens_gain) is float


def test_zero_process_noise_allowed():
    p = SystemParams(q_tilde=0.0)
    assert p.q_tilde == 0.0


def test_alpha_endpoints_allowed():
    assert SystemParams(alpha=0.0).alpha == 0.0
    assert SystemParams(alpha=1.0).alpha == 1.0


def test_carrier_mismatch_warns():
    with pytest.warns(UserWarning):
        SystemParams(wavelength=0.02)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SystemParams()  # defaults are consistent, no warning


def test_frozen_and_replaceable():
    p = SystemParams()
    with pytest.raises(Exception):
        p.h_alt = 60.0
    q = replace(p, h_alt=60.0)
    assert q.h_alt == 60.0 and p.h_alt == 50.0


def test_field_names_cover_all_fields():
    assert set(PARAM_FIELD_NAMES) == {
        "p_a_dbm", "n_sym", "dt", "wavelength", "f_c", "sigma2_dbm",
        "sigma_c2_dbm", "gamma_c", "q_tilde", "epsilon", "n_t", "n_r",
        "a1", "a2", "a3", "h_alt", "v_a_max", "alpha", "c",
    }
