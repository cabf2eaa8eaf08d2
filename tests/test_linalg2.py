"""The symmetric 2x2 core's inverse and positive-definite check
(ekf.inverse, ekf.prior_information) and the process noise Q_s
(params.process_noise_cov), on entry triples of floats and of arrays."""

import numpy as np
import pytest

from uav_isac.errors import NotPositiveDefiniteError, SingularMatrixError
from uav_isac.ekf import inverse, prior_information
from uav_isac.params import process_noise_cov

import oracles


def _at(m, i):
    """Matrix i of the batch m, a triple of arrays, as a triple of floats."""
    return tuple(float(mij[i]) for mij in m)


def test_process_noise_matches_closed_form():
    q11, q12, q22 = process_noise_cov(0.2, 5.0)
    assert q11 == pytest.approx(5.0 * 0.2 ** 3 / 3.0, rel=1e-15)
    assert q12 == pytest.approx(5.0 * 0.2 ** 2 / 2.0, rel=1e-15)
    assert q22 == pytest.approx(1.0, rel=1e-15)
    # documented numeric point
    assert q11 == pytest.approx(0.0133333333333333, rel=1e-12)


def test_process_noise_zero_intensity_is_zero_matrix():
    assert process_noise_cov(0.2, 0.0) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("dt", [1e-3, 0.1, 0.2, 1.0, 7.5])
@pytest.mark.parametrize("qt", [0.0, 1e-6, 1.0, 5.0, 400.0])
def test_process_noise_symmetric_psd(dt, qt):
    q = process_noise_cov(dt, qt)
    assert np.linalg.eigvalsh(oracles.sym_matrix(q))[0] >= -1e-18 * max(1.0, q[0] + q[2])
    want = (qt * dt ** 3 / 3.0, qt * dt * dt / 2.0, qt * dt)
    assert q == pytest.approx(want, rel=1e-14)


def test_sym2_inverse_matches_numpy_and_detects_singular():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = rng.normal(size=(2, 2))
        a = a @ a.T + 0.1 * np.eye(2)
        inv = inverse(*oracles.sym_entries(a))
        assert np.allclose(oracles.sym_matrix(inv), np.linalg.inv(a), rtol=1e-12, atol=1e-14)
    with pytest.raises(SingularMatrixError):
        inverse(1.0, 2.0, 4.0)


def test_prior_information_rejects_singular():
    prior_information((1.0, 0.0, 2.0))
    # PSD with a zero eigenvalue is not PD
    with pytest.raises(NotPositiveDefiniteError):
        prior_information((1.0, 1.0, 1.0))
    # negative definite: det > 0 but m11 < 0
    with pytest.raises(NotPositiveDefiniteError):
        prior_information((-1.0, 0.0, -2.0))


def test_batch_inverse_equals_scalar_inverse():
    m = (np.array([2.0, 4.0, 0.3]), np.array([1.0, 0.0, -0.1]), np.array([3.0, 0.5, 0.2]))
    inv = inverse(*m)
    det = m[0] * m[2] - m[1] * m[1]
    for again in (inverse(*m, det), prior_information(m)):
        assert all(np.array_equal(a, b) for a, b in zip(inv, again))
    for i in range(3):
        f = _at(m, i)
        assert _at(inv, i) == inverse(*f)
        assert inverse(*f, det[i]) == inverse(*f) == prior_information(f)


def _fields(m):
    return tuple(np.asarray(v).tolist() for v in m)


def test_entries_inverse_is_the_matrix_inverse_bit_for_bit():
    """inverse of a matrix's entries, which the filter calls on its
    information sums, is the adjugate over the determinant, on floats
    and on a batch."""
    m = (np.array([2.0, 4.0, 0.3]), np.array([1.0, 0.0, -0.1]), np.array([3.0, 0.5, 0.2]))
    for a11, a12, a22 in (m, _at(m, 0), _at(m, 2)):
        det = a11 * a22 - a12 * a12
        s = 1.0 / det
        want = (np.asarray(a22 * s).tolist(), np.asarray(-a12 * s).tolist(),
                np.asarray(a11 * s).tolist())
        assert _fields(inverse(a11, a12, a22)) == want
        assert _fields(inverse(a11, a12, a22, det)) == want
    inv = inverse(2.0, 1.0, 3.0)
    assert type(inv) is tuple and all(type(e) is float for e in inv)


@pytest.mark.parametrize("m", [
    (1.0, 1.0, 1.0),
    (np.array([2.0, 1.0, 1.0]), np.array([0.0, 1.0, 1.0]), np.array([1.0, 1.0, 1.0])),
], ids=["float", "batch"])
def test_entries_inverse_refuses_as_the_matrix_inverse(m):
    with pytest.raises(SingularMatrixError) as by_entries:
        inverse(*m)
    assert str(by_entries.value) == (
        "matrix is numerically singular: Sym2(m11=1.0, m12=1.0, m22=1.0)")
    assert getattr(by_entries.value, "batch_index", None) == (
        None if type(m[0]) is float else 1)
