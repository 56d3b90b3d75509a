"""Simulation and analysis of Hegselmann-Krause consensus dynamics with
transmission-type and reaction-type delay."""

from .errors import (
    HKDelayError,
    InvalidConfig,
    InvalidDatum,
    InvalidProblem,
    OutOfRange,
    SpecError,
)
from .model import (
    DatumKind,
    DelayKind,
    InfluenceFunction,
    InfluenceKind,
    InitialDatum,
    SystemConfig,
    WeightScheme,
    check_icass,
    diameter,
    has_symmetric_weights,
    pair_sq,
    psi_floor,
    radius,
    weights_from_states,
)
from .dynamics import (
    IntegratorSpec,
    Trajectory,
    default_spec,
    integrate,
    trajectory_to_csv,
    velocity_from_states,
)
from .metrics import (
    MetricSeries,
    compute_metrics,
    consensus_time,
    count_sign_changes,
    fit_decay_rate,
    fitted_decay_rate,
)
from .rates import (
    CharRoot,
    HalanayProblem,
    Measure,
    PreconditionReport,
    RateResult,
    ToyRegime,
    check_preconditions,
    classify_regime,
    linear_coefficients,
    rate_reaction_nonsymmetric,
    rate_transmission_normalized,
    rightmost_root,
    solve_halanay,
    theorem_rates,
    two_agent_config,
)

__version__ = "0.1.0"
