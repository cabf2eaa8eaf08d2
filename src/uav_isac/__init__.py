"""Tracking-platform simulation toolkit.

An aerial platform flies at fixed altitude above a line, keeps a
Kalman track on a moving object from angle/delay/Doppler returns,
and replans its own position every slot to trade estimation accuracy
against the communication rate it must sustain.
"""

from .errors import (
    BracketError,
    ConfigError,
    InfeasibleIntervalError,
    InfeasibleQosError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    UavIsacError,
    VelocityBoundError,
)
from .params import SystemParams
from .sensing import achievable_rate, measured_variances, sample_measurement
from .ekf import crb_measurement, predict, predicted_pcrb, prior_information, update
from .optimize import (
    P1Instance,
    ScaResult,
    Sp1Result,
    design_trajectory,
    qos_radius,
    solve_p1_sca,
    solve_sp1,
    sweep_angle,
    tradeoff_frontier,
)
from .simulate import (MonteCarloStats, ScenarioConfig, SlotRecord, process_noise_factor,
                       run_monte_carlo, run_scenario, step_ground_truth)
from .validate import CheckResult, run_all

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "CheckResult",
    "ConfigError",
    "InfeasibleIntervalError",
    "InfeasibleQosError",
    "MonteCarloStats",
    "NotPositiveDefiniteError",
    "P1Instance",
    "ScaResult",
    "ScenarioConfig",
    "SingularMatrixError",
    "SlotRecord",
    "Sp1Result",
    "SystemParams",
    "UavIsacError",
    "VelocityBoundError",
    "achievable_rate",
    "crb_measurement",
    "design_trajectory",
    "measured_variances",
    "predict",
    "predicted_pcrb",
    "prior_information",
    "process_noise_factor",
    "qos_radius",
    "run_all",
    "run_monte_carlo",
    "run_scenario",
    "sample_measurement",
    "solve_p1_sca",
    "solve_sp1",
    "step_ground_truth",
    "sweep_angle",
    "tradeoff_frontier",
    "update",
    "__version__",
]
