"""Filter recursion and estimation-error lower bounds.

The filter is an extended Kalman recursion over the 2-state relative
motion model, written in information form.  The filter update, the
anticipated bound used as the per-slot design objective and the
measurement-only bound share one core: the measurement Fisher
information at (x, v) for per-channel weights 1/s_i, added to the
prior information and inverted in symmetric 2x2 closed form.  The
update reads the weights off the measurement, the anticipated bound
models them at the predicted position, and the measurement-only bound
is the zero-prior case.

The bound expressions are written over generic scalars so that the
exact same code path serves plain floats, numpy arrays and
second-order dual numbers; each bound is a rational function of
position and velocity, which is what makes derivative propagation
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SingularMatrixError
from .linalg2 import Sym2, process_noise_cov, require_positive_definite
from .params import SystemParams
from .sensing import Measurement, RelativeState, jacobian, measure_mean, noise_weights


@dataclass(frozen=True)
class FilterState:
    """Posterior estimate and its MSE matrix after a slot's update."""

    est: RelativeState
    mse: Sym2


@dataclass(frozen=True)
class Prediction:
    """One-slot-ahead predicted state and prediction MSE matrix."""

    pred: RelativeState
    mse_pred: Sym2


@dataclass(frozen=True)
class PcrbPair:
    """Position bound (m^2), velocity bound (m^2/s^2) and their
    alpha-weighted combination."""

    pcrb_x: float
    pcrb_v: float
    weighted: float


def predict(prev: FilterState, params: SystemParams) -> Prediction:
    """Propagate the posterior one slot ahead under constant relative
    velocity: x_pred = x + v*dt, v_pred = v, and the MSE as
    G M G^T + Q_s.

    The platform's own motion for the slot is not applied here: the
    tracking loop centers the reachable window on x_pred, plans the
    predicted relative state itself and keeps this MSE (see simulate).
    """
    dt = params.dt
    est = prev.est
    m = prev.mse
    # G M G^T written out for G = [[1, dt], [0, 1]]
    g11 = m.m11 + 2.0 * dt * m.m12 + dt * dt * m.m22
    g12 = m.m12 + dt * m.m22
    q = process_noise_cov(dt, params.q_tilde)
    mse_pred = Sym2(g11 + q.m11, g12 + q.m12, m.m22 + q.m22)
    return Prediction(RelativeState(est.x + est.v * dt, est.v), mse_pred)


def update(pred: Prediction, y: Measurement, params: SystemParams) -> FilterState:
    """Measurement update in information form.

    With the Jacobian J taken at the predicted state and the diagonal
    noise covariance R read off the measurement,
    M+ = (M_p^{-1} + J^T R^{-1} J)^{-1} and
    x+ = x_pred + M+ J^T R^{-1} (y - h(x_pred)), all in 2x2 closed form.
    Raises NotPositiveDefiniteError when M_p is not positive definite
    and SingularMatrixError when a channel variance is zero, not finite
    or too small for its reciprocal to be finite.
    """
    s = y.noise_cov.diagonal()
    w1, w2, w3 = (1.0 / si if si > 0.0 else math.inf for si in s)
    if not (0.0 < w1 < math.inf and 0.0 < w2 < math.inf and 0.0 < w3 < math.inf):
        raise SingularMatrixError(f"noise variances {s} need finite positive reciprocals")
    require_positive_definite(pred.mse_pred, "mse_pred")
    x, v = pred.pred.x, pred.pred.v
    mse = _add_information(pred.mse_pred.inverse(),
                           *_fisher_terms(x, v, w1, w2, w3, params)).inverse()
    jac = jacobian(pred.pred, params)
    phi, tau, mu = measure_mean(pred.pred, params)
    r1 = w1 * (y.phi - phi)
    r2 = w2 * (y.tau - tau)
    r3 = w3 * (y.mu - mu)
    # score J^T R^{-1} innov; the angle and delay rows carry no velocity
    gx = jac.iota * r1 + jac.kappa * r2 + jac.zeta * r3
    gv = jac.nu * r3
    est = RelativeState(x + mse.m11 * gx + mse.m12 * gv, v + mse.m12 * gx + mse.m22 * gv)
    return FilterState(est, mse)


# -- the information-form core, generic over float / ndarray / Dual2 --

def _fisher_terms(x, v, w1, w2, w3, params: SystemParams):
    """Measurement Fisher information J^T diag(w1, w2, w3) J at (x, v)
    for per-channel weights w_i = 1/s_i.

    Returns (i_pos, zz, zv, vv).  i_pos = w1*iota^2 + w2*kappa^2 is the
    angle+delay position information; the Doppler channel adds the
    rank-one block w3*[[zeta^2, zeta*nu], [zeta*nu, nu^2]] =
    [[zz, zv], [zv, vv]].  Written without square roots, using
    zeta = nu*y/x with y = v*H^2/(x^2+H^2).
    """
    h2 = params.h_alt * params.h_alt
    k = 4.0 / (params.c * params.c)
    x2 = x * x
    u = 1.0 / (x2 + h2)
    i_pos = (w1 * h2 * u + w2 * k * x2) * u
    t = w3 * (k * params.f_c * params.f_c) * u  # w3*nu^2/x^2
    y = v * h2 * u
    ty = t * y
    return i_pos, ty * y, ty * x, t * x2


def _add_information(prior_info: Sym2, i_pos, zz, zv, vv) -> Sym2:
    """Prior information plus measurement information."""
    return Sym2(prior_info.m11 + i_pos + zz, prior_info.m12 + zv, prior_info.m22 + vv)


def _weighted(bound_x, bound_v, alpha: float):
    """alpha*bound_x + (1-alpha)*bound_v.  The alpha = 1 and alpha = 0
    edges select a single term, so that an infinite velocity bound
    (overhead geometry) never multiplies a zero weight."""
    if alpha == 1.0:
        return bound_x
    if alpha == 0.0:
        return bound_v
    return alpha * bound_x + (1.0 - alpha) * bound_v


def _anticipated_bounds(x, v, prior_info: Sym2, params: SystemParams):
    """(bound_x, bound_v, weighted): the diagonal of
    (prior_info + measurement information at (x, v) with the weights
    modelled at x)^{-1} and its alpha-weighted combination."""
    a = _add_information(prior_info, *_fisher_terms(x, v, *noise_weights(x, params), params))
    inv_det = 1.0 / a.det
    bound_x = a.m22 * inv_det
    bound_v = a.m11 * inv_det
    return bound_x, bound_v, _weighted(bound_x, bound_v, params.alpha)


def predicted_pcrb(x_breve: float, v_breve: float, mse_pred: Sym2,
                   params: SystemParams) -> PcrbPair:
    """Anticipated estimation bounds at a candidate predicted state.

    The information matrix is the prediction-MSE inverse plus the
    measurement information at (x_breve, v_breve) with noise variances
    anticipated at x_breve; the bounds are the diagonal of its inverse.
    mse_pred must be positive definite.
    """
    require_positive_definite(mse_pred, "mse_pred")
    return PcrbPair(*_anticipated_bounds(x_breve, v_breve, mse_pred.inverse(), params))


def crb_measurement(x: float, v: float, params: SystemParams) -> tuple[float, float]:
    """Measurement-only bounds (crb_x, crb_v) at relative state (x, v).

    The zero-prior case of the anticipated bound: with the Doppler
    block rank one, crb_x = 1/i_pos and crb_v = (1 + zz/i_pos)/fi_vv,
    a form without cancellation at v != 0.  crb_x stays finite
    everywhere.  Directly overhead (x = 0, where fi_vv = 0) the Doppler
    carries no velocity information, so crb_v is reported as +inf;
    solvers treat it as a barrier.
    """
    i_pos, zz, _, vv = _fisher_terms(x, v, *noise_weights(x, params), params)
    crb_x = 1.0 / i_pos
    if vv == 0.0:
        return crb_x, math.inf
    return crb_x, (1.0 + zz * crb_x) / vv


def weighted_g(x: float, v: float, params: SystemParams) -> float:
    """Weighted measurement-only objective
    g(x, v) = alpha*crb_x + (1-alpha)*crb_v."""
    return _weighted(*crb_measurement(x, v, params), params.alpha)
