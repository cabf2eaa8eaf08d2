import math

import numpy as np
import pytest

from uav_isac.errors import NotPositiveDefiniteError, SingularMatrixError, raise_at_first
from uav_isac.linalg2 import (
    Sym2,
    process_noise_cov,
    require_positive_definite,
)


def test_sym2_roundtrip_and_properties():
    m = Sym2(2.0, 0.5, 1.0)
    a = m.as_array()
    assert a.shape == (2, 2) and a[0, 1] == a[1, 0] == 0.5
    assert Sym2.from_array(a) == m
    assert m.trace == 3.0
    assert m.det == pytest.approx(2.0 - 0.25)
    assert Sym2.diag(3.0, 4.0) == Sym2(3.0, 0.0, 4.0)


def test_process_noise_matches_closed_form():
    q = process_noise_cov(0.2, 5.0)
    assert q.m11 == pytest.approx(5.0 * 0.2 ** 3 / 3.0, rel=1e-15)
    assert q.m12 == pytest.approx(5.0 * 0.2 ** 2 / 2.0, rel=1e-15)
    assert q.m22 == pytest.approx(1.0, rel=1e-15)
    # documented numeric point
    assert q.m11 == pytest.approx(0.0133333333333333, rel=1e-12)


def test_process_noise_zero_intensity_is_zero_matrix():
    q = process_noise_cov(0.2, 0.0)
    assert q == Sym2(0.0, 0.0, 0.0)


@pytest.mark.parametrize("dt", [1e-3, 0.1, 0.2, 1.0, 7.5])
@pytest.mark.parametrize("qt", [0.0, 1e-6, 1.0, 5.0, 400.0])
def test_process_noise_symmetric_psd(dt, qt):
    q = process_noise_cov(dt, qt)
    assert np.linalg.eigvalsh(q.as_array())[0] >= -1e-18 * max(1.0, q.trace)
    want = (qt * dt ** 3 / 3.0, qt * dt * dt / 2.0, qt * dt)
    assert (q.m11, q.m12, q.m22) == pytest.approx(want, rel=1e-14)


def test_sym2_inverse_matches_numpy_and_detects_singular():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = rng.normal(size=(2, 2))
        a = a @ a.T + 0.1 * np.eye(2)
        inv = Sym2.from_array(a).inverse()
        assert np.allclose(inv.as_array(), np.linalg.inv(a), rtol=1e-12, atol=1e-14)
    with pytest.raises(SingularMatrixError):
        Sym2(1.0, 2.0, 4.0).inverse()


def test_require_positive_definite_rejects_singular():
    require_positive_definite(Sym2.diag(1.0, 2.0), "m")
    # PSD with a zero eigenvalue is not PD
    with pytest.raises(NotPositiveDefiniteError):
        require_positive_definite(Sym2(1.0, 1.0, 1.0), "m")
    # negative definite: det > 0 but m11 < 0
    with pytest.raises(NotPositiveDefiniteError):
        require_positive_definite(Sym2(-1.0, 0.0, -2.0), "m")


def test_batch_checks_raise_for_lowest_failing_entry():
    m = Sym2(np.array([1.0, -1.0, 0.0]), np.zeros(3), np.ones(3))
    with pytest.raises(NotPositiveDefiniteError,
                       match=r"^m is not positive definite: Sym2\(m11=-1.0, m12=0.0") as exc_info:
        require_positive_definite(m, "m")
    assert exc_info.value.batch_index == 1
    singular = Sym2(np.array([2.0, 1.0, 1.0]), np.array([0.0, 1.0, 1.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(SingularMatrixError) as exc_info:
        singular.inverse()
    assert exc_info.value.batch_index == 1
    # a scalar check that passes where the batched one failed is a bug
    with pytest.raises(RuntimeError, match="batch entry 1"):
        raise_at_first(np.array([False, True]), lambda i: None)


def test_float_checks_raise_the_batch_error_without_batch_index():
    """The same calls on float fields: the type and message of the batch
    entry's error, and no batch_index."""
    with pytest.raises(NotPositiveDefiniteError,
                       match=r"^m is not positive definite: Sym2\(m11=-1.0, m12=0.0, m22=1.0\)$"
                       ) as exc_info:
        require_positive_definite(Sym2(-1.0, 0.0, 1.0), "m")
    assert not hasattr(exc_info.value, "batch_index")
    with pytest.raises(SingularMatrixError,
                       match=r"^matrix is numerically singular: Sym2\(m11=1.0, m12=1.0, m22=1.0\)$"
                       ) as exc_info:
        Sym2(1.0, 1.0, 1.0).inverse()
    assert not hasattr(exc_info.value, "batch_index")
    with pytest.raises(RuntimeError):
        raise_at_first(True, lambda i: None)
    # a passing float check makes no call at all
    raise_at_first(False, None)


def test_batch_inverse_equals_scalar_inverse():
    m = Sym2(np.array([2.0, 4.0, 0.3]), np.array([1.0, 0.0, -0.1]), np.array([3.0, 0.5, 0.2]))
    inv = m.inverse()
    det = require_positive_definite(m)
    again = m.inverse(det)
    assert all(np.array_equal(a, b) for a, b in zip((inv.m11, inv.m12, inv.m22),
                                                    (again.m11, again.m12, again.m22)))
    for i in range(3):
        assert inv.at(i) == m.at(i).inverse()
        assert m.at(i).inverse(det[i]) == m.at(i).inverse()
        assert require_positive_definite(m.at(i)) == det[i]
    # float fields: at is the matrix itself
    f = m.at(0)
    assert f.at(2) is f
