"""The checks on floats and on batches: each raises through
errors.raise_at_first, on a batch for its lowest failing entry with
that entry's position as batch_index, and on floats with the same type
and message and no batch_index."""

import numpy as np
import pytest

from uav_isac.ekf import inverse, prior_information
from uav_isac.errors import (
    NotPositiveDefiniteError,
    SingularMatrixError,
    VelocityBoundError,
    raise_at_first,
)
from uav_isac.optimize import design_trajectory
from uav_isac.params import SystemParams
from uav_isac.sensing import measured_variances


def test_batch_checks_raise_for_lowest_failing_entry():
    m = (np.array([1.0, -1.0, 0.0]), np.zeros(3), np.ones(3))
    with pytest.raises(NotPositiveDefiniteError,
                       match=r"^mse_pred is not positive definite: Sym2\(m11=-1.0, m12=0.0"
                       ) as exc_info:
        prior_information(m)
    assert exc_info.value.batch_index == 1
    # a float entry is shared by the batch, as in a diagonal batch
    with pytest.raises(NotPositiveDefiniteError,
                       match=r"^mse_pred is not positive definite: "
                             r"Sym2\(m11=-1.0, m12=0.0, m22=1.0\)$"):
        prior_information((np.array([1.0, -1.0]), 0.0, np.ones(2)))
    singular = (np.array([2.0, 1.0, 1.0]), np.array([0.0, 1.0, 1.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(SingularMatrixError) as exc_info:
        inverse(*singular)
    assert exc_info.value.batch_index == 1
    # a scalar check that passes where the batched one failed is a bug
    with pytest.raises(RuntimeError, match="batch entry 1"):
        raise_at_first(np.array([False, True]), lambda i: None)


def test_float_checks_raise_the_batch_error_without_batch_index():
    """The same calls on float fields: the type and message of the batch
    entry's error, and no batch_index."""
    with pytest.raises(NotPositiveDefiniteError,
                       match=r"^mse_pred is not positive definite: "
                             r"Sym2\(m11=-1.0, m12=0.0, m22=1.0\)$") as exc_info:
        prior_information((-1.0, 0.0, 1.0))
    assert not hasattr(exc_info.value, "batch_index")
    with pytest.raises(SingularMatrixError,
                       match=r"^matrix is numerically singular: Sym2\(m11=1.0, m12=1.0, m22=1.0\)$"
                       ) as exc_info:
        inverse(1.0, 1.0, 1.0)
    assert not hasattr(exc_info.value, "batch_index")
    with pytest.raises(SingularMatrixError,
                       match=r"^noise variances \(inf, 1.0, 1.0\) need finite positive "
                             r"reciprocals$") as exc_info:
        measured_variances((0.0, 1.0, 1.0))
    assert not hasattr(exc_info.value, "batch_index")
    with pytest.raises(VelocityBoundError,
                       match=r"^\|x_breve - eta\| = 10 m exceeds the per-slot reach "
                             r"v_a_max\*dt = 6 m$") as exc_info:
        design_trajectory(20.0, 30.0, (100.0, 12.0), SystemParams())
    assert not hasattr(exc_info.value, "batch_index")
    with pytest.raises(RuntimeError):
        raise_at_first(True, lambda i: None)
    # False sets no entry, so check is not called; a float check whose flag
    # is False does not call raise_at_first at all
    # (test_simulate::test_passing_float_checks_make_no_call counts the calls)
    raise_at_first(False, None)


def test_float_checks_on_numpy_scalars_carry_no_batch_index():
    """A numpy scalar in a float check gives a numpy bool flag, which is one
    value and not a batch: the float refusal, without batch_index."""
    with pytest.raises(NotPositiveDefiniteError,
                       match=r"^mse_pred is not positive definite: "
                             r"Sym2\(m11=-1.0, m12=0.0, m22=1.0\)$") as exc_info:
        prior_information((np.float64(-1.0), 0.0, 1.0))
    assert not hasattr(exc_info.value, "batch_index")
    with pytest.raises(SingularMatrixError,
                       match=r"^noise variances \(0.0, 1.0, 1.0\) need finite positive "
                             r"reciprocals$") as exc_info:
        measured_variances((np.float64(np.inf), 1.0, 1.0))
    assert not hasattr(exc_info.value, "batch_index")
