"""Filter recursion and estimation-error lower bounds.

The filter is an extended Kalman recursion over the 2-state relative
motion model, written in information form.  The filter update, the
anticipated bound used as the per-slot design objective (predicted_pcrb)
and the measurement-only bound (crb_measurement) share one core: the
measurement Fisher information at (x, v) for per-channel weights 1/s_i,
added to the prior information and inverted in symmetric 2x2 closed
form.  The update takes the weights the measurement was sampled with,
the anticipated bound models them at the predicted position, and the
measurement-only bound is the zero-prior case.

The bound expressions are written over generic scalars, so one code
path serves plain floats and numpy arrays.  Each bound is a rational
function of position and velocity, so the value, d/dx and d^2/dx^2
that the solvers read (v tied linearly to x) are written out in closed
form next to the expressions: _fisher_jets and _weighted_jet.  The
filter's steps are value functions, the ones the slot loop calls, and
every 2x2 matrix [[m11, m12], [m12, m22]] they take or return is its
entry triple (m11, m12, m22) of floats, or of arrays for a batch:
predict maps the posterior MSE to the prediction MSE, prior_information
checks and inverts the prediction MSE, and update maps the planned
(x, v), the prior information, the weights and the measurement to
(x_hat, v_hat, mse).  update reads the measurement map and its
Jacobian at (x, v) from one sensing.linearize call, so it takes
sensing's namespace xp: math, or numpy for the Monte-Carlo batch;
its inversions are the same calls for both.  The one inverse and the
check in prior_information raise on a batch for its lowest failing
matrix, described by one formatter, _describe.
"""

from __future__ import annotations

import math

from .errors import NotPositiveDefiniteError, SingularMatrixError, entry, raise_at_first
from .params import SystemParams
from .sensing import linearize, noise_weights


def predict(m, params: SystemParams):
    """The prediction MSE G M G^T + Q_s of the posterior MSE m, one slot
    ahead under constant relative velocity, G = [[1, dt], [0, 1]]; entry
    triples of floats or arrays.

    The predicted state is not formed here: the tracking loop centers
    the reachable window on x_hat + v_hat*dt and plans the predicted
    relative state itself (see simulate).
    """
    dt = params.dt
    m11, m12, m22 = m
    q11, q12, q22 = params.process_noise
    # G M G^T written out
    return m11 + 2.0 * dt * m12 + dt * dt * m22 + q11, m12 + dt * m22 + q12, m22 + q22


def prior_information(m):
    """M_p^{-1} of the prediction MSE m, on one determinant: the check
    that a prediction MSE is usable, entry triple to entry triple.
    Raises NotPositiveDefiniteError unless m is positive definite, on a
    batch for the lowest matrix that is not."""
    m11, m12, m22 = m
    det = m11 * m22 - m12 * m12
    if (bad := ((m11 > 0) & (det > 0)) ^ True) is not False:
        raise_at_first(bad, _not_positive_definite, m11, m12, m22)
    return inverse(m11, m12, m22, det)


def update(x, v, prior_info, w, y, params: SystemParams, xp=math):
    """Measurement update in information form: the posterior (x_hat,
    v_hat, mse) at the predicted state (x, v) for the prediction's
    information prior_info = M_p^{-1} (an entry triple), channel weights
    w = (1/s1, 1/s2, 1/s3) and the measurement y = (phi, tau, mu).

    With the Jacobian J at (x, v) and R^{-1} = diag(w), the information is
    M_p^{-1} + J^T R^{-1} J, its inverse the posterior MSE M+ (an entry
    triple), and the estimate x+ = (x, v) + M+ J^T R^{-1} (y - h(x, v)),
    all in 2x2 closed form.  update checks nothing: a caller runs the two
    checks first, sensing.measured_variances(w) on the weights and
    prior_information(mse_pred), which forms prior_info and refuses a
    prediction MSE that is not positive definite; update then raises
    only SingularMatrixError, when the information is numerically
    singular.  With xp numpy, of a batch whose values are arrays.
    """
    phi, tau, mu, iota, kappa, zeta, nu = linearize(x, v, params, xp)
    w1, w2, w3 = w
    r3 = w3 * (y[2] - mu)
    # the angle and delay rows carry no velocity
    gx, gv = iota * (w1 * (y[0] - phi)) + kappa * (w2 * (y[1] - tau)) + zeta * r3, nu * r3
    m11, m12, m22 = mse = inverse(*_add_information(prior_info, *_fisher_terms(x, v, params, w)))
    return x + m11 * gx + m12 * gv, v + m12 * gx + m22 * gv, mse


# -- the information-form core, generic over float / ndarray --

def _fisher_terms(x, v, params: SystemParams, w=None, h_alt=None):
    """Measurement Fisher information J^T diag(w1, w2, w3) J at (x, v)
    for per-channel weights w = (w1, w2, w3), w_i = 1/s_i; by default
    the weights modelled at x by noise_weights, which shares
    u = 1/(x^2 + H^2) with the terms; H is h_alt if given, else params.h_alt.

    Returns (i_pos, zz, zv, vv).  i_pos = w1*iota^2 + w2*kappa^2 is the
    angle+delay position information; the Doppler channel adds the
    rank-one block w3*[[zeta^2, zeta*nu], [zeta*nu, nu^2]] =
    [[zz, zv], [zv, vv]].  Written without square roots, using
    zeta = nu*y/x with y = v*H^2/(x^2+H^2).  v None stands for v = 0,
    where zeta = 0: zz and zv are then 0.0 and their products are not
    formed.
    """
    h = params.h_alt if h_alt is None else h_alt
    h2 = h * h
    k, kd = params.jacobian_scales
    x2 = x * x
    u = 1.0 / (x2 + h2)
    w1, w2, w3 = noise_weights(x, params, u, h) if w is None else w
    i_pos = (w1 * h2 * u + w2 * k * x2) * u
    t = w3 * kd * u  # w3*nu^2/x^2
    if v is None:
        return i_pos, 0.0, 0.0, t * x2
    y = v * h2 * u
    ty = t * y
    return i_pos, ty * y, ty * x, t * x2


def _fisher_jets(x, v, params: SystemParams, dv=0.0, h_alt=None):
    """Jets (value, d/dx, d^2/dx^2) of _fisher_terms' (i_pos, zz, zv, vv),
    weights modelled at x, as v moves with x at rate dv (v None: v = 0,
    zz and zv zero jets).  Each term is c x^m u^n v^j, u = 1/(x^2 + H^2),
    and (x^m u^n)' = x^(m-1) u^n (m - 2n q), q = x^2 u."""
    h = params.h_alt if h_alt is None else h_alt
    h2 = h * h
    k, kd = params.jacobian_scales
    x2 = x * x
    u = 1.0 / (x2 + h2)
    w1, w2, w3 = noise_weights(x, params, u, h)
    t = w3 * kd * u              # c*u^3, vv = t*x^2
    q = x2 * u
    w1h2u, w2k = w1 * h2 * u, w2 * k
    ang = w1h2u * u              # c*u^5, the angle part of i_pos
    dly = w2k * u                # c*u^3, the delay part is dly*x^2
    b = 10.0 * x * u             # -(u^5)'/u^5
    c5 = 10.0 * u * (12.0 * q - 1.0)  # (u^5)''/u^5
    r3, p3 = 2.0 * x * (1.0 - 3.0 * q), 2.0 + q * (48.0 * q - 30.0)  # (x^2 u^3)', '' over u^3
    i_pos = ((w1h2u + w2k * x2) * u, dly * r3 - b * ang, c5 * ang + dly * p3)
    vv = (t * x2, t * r3, t * p3)
    if v is None:
        return i_pos, (0.0,) * 3, (0.0,) * 3, vv
    y = v * h2 * u
    s = t * h2 * u               # c*u^4, zv = s*x*v
    m = s * h2 * u               # c*u^5, zz = m*v^2
    g1, g2 = s * (1.0 - 8.0 * q), 8.0 * s * x * u * (10.0 * q - 3.0)  # (s*x)', ''
    ty = t * y
    zz = (ty * y, m * v * (2.0 * dv - b * v), m * (2.0 * dv * (dv - 2.0 * b * v) + c5 * v * v))
    zv = (ty * x, dv * s * x + v * g1, 2.0 * dv * g1 + v * g2)
    return i_pos, zz, zv, vv


def _add_information(prior_info, i_pos, zz, zv, vv):
    """Prior information plus measurement information, as its entries
    (a11, a12, a22): the sum is inverted or bounded, never kept."""
    p11, p12, p22 = prior_info
    return p11 + i_pos + zz, p12 + zv, p22 + vv


def inverse(m11, m12, m22, det=None):
    """Exact inverse of [[m11, m12], [m12, m22]] by the adjugate formula,
    as its entry triple, floats or arrays; a caller that holds the
    determinant passes it.  Raises SingularMatrixError when the
    determinant magnitude underflows below 1e-300."""
    det = m11 * m22 - m12 * m12 if det is None else det
    if (bad := abs(det) <= 1e-300) is not False:
        raise_at_first(bad, _singular, m11, m12, m22)
    s = 1.0 / det
    return m22 * s, -m12 * s, m11 * s


def _describe(i: int, m11, m12, m22) -> str:
    """The matrix of a refusal message as the matrix class that the entry
    triples replaced printed it, 'Sym2' then the entries by name; of a
    batch, matrix i (errors.entry)."""
    return "Sym2(m11=%r, m12=%r, m22=%r)" % tuple(entry(e, i) for e in (m11, m12, m22))


def _singular(i: int, m11, m12, m22):
    raise SingularMatrixError(f"matrix is numerically singular: {_describe(i, m11, m12, m22)}")


def _not_positive_definite(i: int, m11, m12, m22):
    raise NotPositiveDefiniteError(f"mse_pred is not positive definite: "
                                   f"{_describe(i, m11, m12, m22)}")


def _weighted(bound_x, bound_v, alpha: float):
    """alpha*bound_x + (1-alpha)*bound_v.  The alpha = 1 and alpha = 0
    edges select a single term, so that an infinite velocity bound
    (overhead geometry) never multiplies a zero weight."""
    if alpha == 1.0:
        return bound_x
    if alpha == 0.0:
        return bound_v
    return alpha * bound_x + (1.0 - alpha) * bound_v


def _bounds(a11, a12, a22, alpha: float):
    """(bound_x, bound_v, weighted): the diagonal of a^{-1} for the
    information a = [[a11, a12], [a12, a22]], the entries of
    _add_information(prior, *terms), and its alpha-weighted combination."""
    inv_det = 1.0 / (a11 * a22 - a12 * a12)
    bound_x = a22 * inv_det
    bound_v = a11 * inv_det
    return bound_x, bound_v, _weighted(bound_x, bound_v, alpha)


def _reciprocal_jet(p):
    """Jet of 1/p from p's jet (p, p', p'')."""
    w = 1.0 / p[0]
    w2 = w * w
    return w, -p[1] * w2, (2.0 * p[1] * p[1] * w - p[2]) * w2


def _weighted_jet(prior_info, jets, alpha: float):
    """Jet of _bounds(prior_info + terms, alpha)[2] from the terms' jets:
    N/D with N = alpha*a22 + (1-alpha)*a11 and D = det(a), so
    f' = (N' - f D')/D and f'' = (N'' - 2 f' D' - f D'')/D, alpha edges
    as in _weighted.  prior_info None: alpha/i_pos + (1-alpha)/vv."""
    i_pos, zz, zv, vv = jets
    if prior_info is None:  # the reciprocals' jets, weighted
        if alpha in (0.0, 1.0):  # only the selected one: overhead 1/vv divides by 0
            return _reciprocal_jet(i_pos if alpha == 1.0 else vv)
        return tuple(_weighted(bx, bv, alpha)
                     for bx, bv in zip(_reciprocal_jet(i_pos), _reciprocal_jet(vv)))
    p11, p12, p22 = prior_info
    a11, d11, e11 = p11 + i_pos[0] + zz[0], i_pos[1] + zz[1], i_pos[2] + zz[2]
    a12, d12, e12 = p12 + zv[0], zv[1], zv[2]
    a22, d22, e22 = p22 + vv[0], vv[1], vv[2]
    inv = 1.0 / (a11 * a22 - a12 * a12)
    f = _weighted(a22 * inv, a11 * inv, alpha)
    dd = d11 * a22 + a11 * d22 - 2.0 * a12 * d12
    ed = e11 * a22 + 2.0 * d11 * d22 + a11 * e22 - 2.0 * (d12 * d12 + a12 * e12)
    f1 = (_weighted(d22, d11, alpha) - f * dd) * inv
    return f, f1, (_weighted(e22, e11, alpha) - 2.0 * f1 * dd - f * ed) * inv


def predicted_pcrb(x, v, prior_info, params: SystemParams):
    """Anticipated bounds (pcrb_x, pcrb_v, weighted) at a candidate
    predicted state (x, v), floats or arrays: the diagonal of the inverse
    of prior_info (prior_information of the prediction MSE) plus the
    measurement information at (x, v) for the weights modelled at x, in
    m^2 and m^2/s^2, and their alpha-weighted combination (_bounds)."""
    return _bounds(*_add_information(prior_info, *_fisher_terms(x, v, params)), params.alpha)


def crb_measurement(x: float, v: float, params: SystemParams) -> tuple[float, float]:
    """Measurement-only bounds (crb_x, crb_v) at relative state (x, v).

    The zero-prior case of the anticipated bound: with the Doppler
    block rank one, crb_x = 1/i_pos and crb_v = (1 + zz/i_pos)/fi_vv,
    a form without cancellation at v != 0.  crb_x stays finite
    everywhere.  Directly overhead (x = 0, where fi_vv = 0) the Doppler
    carries no velocity information, so crb_v is reported as +inf;
    solvers treat it as a barrier.
    """
    i_pos, zz, _, vv = _fisher_terms(x, v, params)
    crb_x = 1.0 / i_pos
    if vv == 0.0:
        return crb_x, math.inf
    # zz = 0 (v = 0): 1/vv, where 0*crb_x would be NaN for an infinite crb_x
    return crb_x, (1.0 + zz * crb_x) / vv if zz else 1.0 / vv


def weighted_g(x: float, v: float, params: SystemParams) -> float:
    """Weighted measurement-only objective
    g(x, v) = alpha*crb_x + (1-alpha)*crb_v."""
    return _weighted(*crb_measurement(x, v, params), params.alpha)
