"""One linear delay equation behind every regime, and the two-agent toy.

Linearized at consensus, the differences x_i - x_j obey y' = -a y(t) -
b y(t - tau).  With c = psi(0), or 1 for normalized weights, reaction delay
gives a = 0, b = c N/(N - 1) and transmission a = c, b = c/(N - 1); for
constant psi it is exact.  a >= b is stable for every tau; for a = 0 the
rightmost root of xi + b e^{-xi tau} + a leaves the real axis at
b tau = 1/e and the left half plane at b tau = pi/2 (N. D. Hayes, J. London
Math. Soc. 25 (1950)).  That root is W0(-b tau e^{a tau})/tau - a, on the
principal branch of Lambert's W (H. Shinozaki and T. Mori, Automatica 42
(2006) 1791-1799).  The toy is the two-agent normalized system on a
line: its gap x_1 - x_2 has (a, b) = (1, 1) for transmission, (0, 2) for
reaction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import IntegratorSpec, integrate
from .errors import InvalidConfig
from .metrics import count_sign_changes, fitted_decay_rate
from .model import DelayKind, InfluenceFunction, InitialDatum, SystemConfig, WeightScheme
from .rates import bisect

OSCILLATION_THRESHOLD = math.exp(-1.0)  # on b*tau
STABILITY_THRESHOLD = math.pi / 2.0  # on b*tau
BOUNDARY_TOL = 1e-9


class ToyRegime(str, Enum):
    ALWAYS_STABLE = "AlwaysStable"
    NON_OSCILLATORY_STABLE = "NonOscillatoryStable"
    OSCILLATORY_STABLE = "OscillatoryStable"
    UNSTABLE = "Unstable"
    BOUNDARY = "Boundary"


def _require_delay(tau: float) -> None:
    if not (tau > 0.0 and math.isfinite(tau)):
        raise InvalidConfig(f"tau: must be a positive real, got {tau}")


def linear_coefficients(config: SystemConfig) -> tuple[float, float]:
    """(a, b) of the linearization at consensus, y' = -a y(t) - b y(t - tau)."""
    c = 1.0 if config.weight_scheme is WeightScheme.NORMALIZED else config.influence(0.0)
    n = config.n_agents
    if config.delay_kind is DelayKind.REACTION:
        return 0.0, c * n / (n - 1)
    return c, c / (n - 1)


def two_agent_config(delay_kind: DelayKind, tau: float) -> SystemConfig:
    """The toy: two agents on a line with normalized weights."""
    _require_delay(tau)
    return SystemConfig(2, 1, tau, delay_kind, WeightScheme.NORMALIZED, InfluenceFunction.constant(1.0))


def classify_regime(a: float, b: float, tau: float) -> ToyRegime:
    """Regime of y' = -a y(t) - b y(t - tau): a >= b is stable for every
    tau; otherwise the thresholds on b tau are those of a = 0, the only
    a < b that linear_coefficients gives.  BOUNDARY within 1e-9 of one."""
    _require_delay(tau)
    if a >= b:
        return ToyRegime.ALWAYS_STABLE
    x = b * tau
    if min(abs(x - OSCILLATION_THRESHOLD), abs(x - STABILITY_THRESHOLD)) <= BOUNDARY_TOL:
        return ToyRegime.BOUNDARY
    if x < OSCILLATION_THRESHOLD:
        return ToyRegime.NON_OSCILLATORY_STABLE
    if x < STABILITY_THRESHOLD:
        return ToyRegime.OSCILLATORY_STABLE
    return ToyRegime.UNSTABLE


@dataclass(frozen=True)
class CharRoot:
    re: float
    im: float
    residual: float

    def to_dict(self) -> dict:
        return {"re": self.re, "im": self.im}


def rightmost_root(a: float, b: float, tau: float) -> CharRoot:
    """Root of xi + a + b e^{-xi tau} with maximal real part, for a >= 0,
    b > 0, in closed form.

    With w = (xi + a) tau the equation is w e^w = -r, r = b tau e^{a tau},
    whose rightmost root is the principal branch of Lambert's W: xi* =
    W0(-r)/tau - a.  ln r is formed as a sum, so no product under- or
    overflows, and W0 is bisected.  For r <= 1/e it is real in [-1, 0) and
    solves ln(-w) + w = ln r, and the equation gives xi* = -b e^{a tau - w}
    - a, which keeps the digits that w loses to the rounding of ln r, or
    to the subnormal grid at a subnormal tau.  Otherwise W0 = -y cot y +
    i y, y in (0, pi), solves ln(y / sin y) - y cot y = ln r; it is
    bisected on v = cot y, so
    that a y near pi keeps its digits in 1/sin y = hypot(1, v), and the
    equation gives xi* = (ln(b tau sin y / y) + i y)/tau, which does not
    subtract a from w/tau.
    """
    _require_delay(tau)
    log_r = math.log(b) + math.log(tau) + a * tau
    if log_r <= -1.0:
        w = bisect(lambda w: math.log(-w) + w - log_r, -1.0, 0.0)[0]
        x = a * tau - w  # e^x overflows past x = 709.78, where w/tau serves
        root = complex((-b * math.exp(x) if x < 709.0 else w / tau) - a, 0.0)
    else:
        def excess(v):  # ln(y / sin y) - y cot y - ln r at y = arccot v
            y = math.atan2(1.0, v)
            return math.log(y) + math.log(math.hypot(1.0, v)) - y * v - log_r

        # excess decreases in v, from positive at -max(ln r, 1) to negative
        # at (ln r + 1)^(-1/2)
        v = bisect(excess, -max(log_r, 1.0), 1.0 / math.sqrt(log_r + 1.0))[0]
        y = math.atan2(1.0, v)
        root = complex(-math.log(y / b * (math.hypot(1.0, v) / tau)) / tau, y / tau)
    with np.errstate(all="ignore"):
        residual = float(abs(root + a + b * np.exp(-root * tau)))
    return CharRoot(re=root.real, im=root.imag, residual=residual)


def toy_record(delay_kind: DelayKind, tau: float, horizon: float | None = None,
               dt: float | None = None, t_lo: float | None = None) -> dict:
    """The two-agent toy at one delay, as `hkdelay toy` prints it: its
    regime and rightmost root, and the forward sign changes and fitted
    decay rate of its gap w = x_1 - x_2, integrated from the constant
    history w = 1 over [0, horizon].  horizon defaults to 40 tau, dt to
    dynamics.default_spec's step and t_lo as in metrics.fitted_decay_rate.
    A run that blows up is read up to the node before its blow-up.  The
    gap reads no dissipation, so none is formed."""
    config = two_agent_config(delay_kind, tau)
    a, b = linear_coefficients(config)
    traj = integrate(config, InitialDatum.constant([[0.5], [-0.5]]), 40.0 * tau if horizon is None else horizon,
                     None if dt is None else IntegratorSpec(dt), False)
    w = traj.states[:, 0, 0] - traj.states[:, 1, 0]
    return {
        "tau": tau,
        "regime": classify_regime(a, b, tau).value,
        "rightmost_root": rightmost_root(a, b, tau).to_dict(),
        "sign_changes": count_sign_changes(w[traj.grid > 0.0]),
        "fitted_rate": fitted_decay_rate(traj.grid, w, t_lo),
    }
