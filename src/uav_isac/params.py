"""System constants and run configuration.

All physical quantities live in one frozen dataclass.  Powers enter in
dBm exactly as they are usually quoted and are converted to watts once,
immediately after construction; every formula downstream works in
linear SI units.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, fields
from functools import cached_property

SPEED_OF_LIGHT = 2.9979e8  # m/s


def _is_integer(v) -> bool:
    """v is an integer, numpy's included, and not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def dbm_to_watts(p: float) -> float:
    """Convert a power level in dBm to watts: 10^((p - 30) / 10)."""
    if not math.isfinite(p):
        raise ValueError(f"power in dBm must be finite, got {p!r}")
    try:
        return 10.0 ** ((p - 30.0) / 10.0)
    except OverflowError:
        raise ValueError(f"power {p!r} dBm overflows in watts") from None


def _check_alpha(alpha):
    """SystemParams' check of the position/velocity weight; returns it."""
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    return alpha


def process_noise_cov(dt: float, q_tilde: float) -> tuple[float, float, float]:
    """Integrated white-acceleration noise covariance
    q_tilde * [[dt^3/3, dt^2/2], [dt^2/2, dt]], as its entry triple."""
    if not (dt > 0):
        raise ValueError(f"dt must be positive, got {dt!r}")
    if q_tilde < 0:
        raise ValueError(f"q_tilde must be >= 0, got {q_tilde!r}")
    return q_tilde * dt ** 3 / 3.0, q_tilde * dt ** 2 / 2.0, q_tilde * dt


@dataclass(frozen=True)
class SystemParams:
    """Physical and system constants for the tracking platform.

    Defaults correspond to a 30 GHz system with 32x32 antennas flying at
    50 m altitude, 0.2 s slots and a 11 bps/Hz rate floor.
    """

    p_a_dbm: float = 40.0        # transmit power (dBm)
    n_sym: float = 1e4           # symbols accumulated per slot
    dt: float = 0.2              # slot duration (s)
    wavelength: float = 0.01     # carrier wavelength (m)
    f_c: float = 3e10            # carrier frequency (Hz)
    sigma2_dbm: float = -80.0    # echo-receiver noise power (dBm)
    sigma_c2_dbm: float = -80.0  # device receiver noise power (dBm)
    gamma_c: float = 11.0        # required rate (bps/Hz)
    q_tilde: float = 5.0         # process-noise intensity
    epsilon: float = 100.0       # radar cross section (m^2)
    n_t: int = 32                # transmit antennas
    n_r: int = 32                # receive antennas
    a1: float = 1.0              # angle-accuracy constant
    a2: float = 1.2e-7           # delay-accuracy constant
    a3: float = 600.0            # Doppler-accuracy constant
    h_alt: float = 50.0          # platform altitude H (m)
    v_a_max: float = 30.0        # platform speed limit (m/s)
    alpha: float = 0.5           # position/velocity weight, in [0, 1]
    c: float = SPEED_OF_LIGHT    # propagation speed (m/s)

    def __post_init__(self):
        for name in ("p_a_dbm", "sigma2_dbm", "sigma_c2_dbm"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            try:  # the cached watts: p_a_w, sigma2_w, sigma_c2_w
                w = getattr(self, name[:-3] + "w")
            except ValueError:  # overflow
                w = math.inf
            if not 0.0 < w < math.inf:
                raise ValueError(f"{name} = {v!r} dBm is not a finite positive power in watts")
        for name in ("n_sym", "dt", "wavelength", "f_c", "gamma_c",
                     "epsilon", "a1", "a2", "a3", "h_alt", "c"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be strictly positive, got {v!r}")
        # zero intensity is the noiseless constant-velocity model
        if not (math.isfinite(self.q_tilde) and self.q_tilde >= 0):
            raise ValueError(f"q_tilde must be >= 0, got {self.q_tilde!r}")
        for name in INT_FIELD_NAMES:
            v = getattr(self, name)
            if not (_is_integer(v) and v > 0):
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        try:
            weights = self.channel_weights
        except OverflowError:  # beta_r's wavelength ** 2
            raise ValueError(f"wavelength = {self.wavelength!r} m overflows its square") from None
        for name, w in zip(("a1", "a2", "a3"), weights):
            if not (math.isfinite(w) and w > 0):
                raise ValueError(f"{name} = {getattr(self, name)!r} gives a channel weight "
                                 f"sens_gain/{name}^2 of {w!r}, not finite and positive")
        try:
            scales = self.jacobian_scales
        except ZeroDivisionError:  # c * c rounds to 0
            scales = (math.inf, math.inf)
        if not all(0.0 < k < math.inf for k in scales):
            raise ValueError(f"c = {self.c!r} gives Jacobian scales {scales!r} beyond float range")
        if self.gamma_c >= 1024.0 or 2.0 ** self.gamma_c == 1.0:  # qos_radius divides by it
            raise ValueError(f"gamma_c must make 2**gamma_c - 1 finite and nonzero, got "
                             f"{self.gamma_c!r}")
        _check_alpha(self.alpha)
        if not (math.isfinite(self.v_a_max) and self.v_a_max >= 0):
            raise ValueError(f"v_a_max must be >= 0, got {self.v_a_max!r}")
        # wavelength and carrier frequency should describe the same carrier
        drift = abs(self.wavelength * self.f_c - self.c) / self.c
        if drift > 0.01:
            warnings.warn(
                f"wavelength*f_c = {self.wavelength * self.f_c:.6g} m/s differs "
                f"from c = {self.c:.6g} m/s by {drift:.1%}; proceeding anyway",
                stacklevel=2,
            )

    # -- derived linear-unit quantities (computed once, cached) --

    @cached_property
    def p_a_w(self) -> float:
        """Transmit power (W)."""
        return dbm_to_watts(self.p_a_dbm)

    @cached_property
    def sigma2_w(self) -> float:
        """Echo-receiver noise power (W)."""
        return dbm_to_watts(self.sigma2_dbm)

    @cached_property
    def sigma_c2_w(self) -> float:
        """Device receiver noise power (W)."""
        return dbm_to_watts(self.sigma_c2_dbm)

    @cached_property
    def beta_r(self) -> float:
        """Reference two-way channel gain at 1 m: wavelength^2 * epsilon / (64 pi^3)."""
        return self.wavelength ** 2 * self.epsilon / (64.0 * math.pi ** 3)

    @cached_property
    def sens_gain(self) -> float:
        """Aggregate sensing gain P_A*N_sym*N_t*N_r*beta_r / sigma^2.

        Every measurement-information term is proportional to this scalar.
        """
        return (self.p_a_w * self.n_sym * self.n_t * self.n_r * self.beta_r
                / self.sigma2_w)

    @cached_property
    def channel_weights(self) -> tuple[float, float, float]:
        """Per-channel information scales sens_gain/a_i^2 of the angle,
        delay and Doppler channels; each channel's noise variance is
        the geometry factor over this weight."""
        g = self.sens_gain
        return (g / self.a1 / self.a1, g / self.a2 / self.a2, g / self.a3 / self.a3)

    @cached_property
    def reach(self) -> float:
        """Per-slot platform reach v_a_max*dt (m)."""
        return self.v_a_max * self.dt

    @cached_property
    def jacobian_scales(self) -> tuple[float, float]:
        """(4/c^2, 4/c^2 * f_c * f_c): the squared delay and Doppler
        Jacobian rows over their geometry factors, kappa^2 = (4/c^2) x^2 u
        and nu^2 = (4 f_c^2/c^2) x^2 u with u = 1/(x^2 + H^2)."""
        k = 4.0 / (self.c * self.c)
        return k, k * self.f_c * self.f_c

    @cached_property
    def process_noise(self) -> tuple[float, float, float]:
        """Process-noise covariance Q_s = process_noise_cov(dt, q_tilde),
        as its entry triple."""
        return process_noise_cov(self.dt, self.q_tilde)


PARAM_FIELD_NAMES = tuple(f.name for f in fields(SystemParams))
INT_FIELD_NAMES = ("n_t", "n_r")  # the fields that hold a count, read from text as int
