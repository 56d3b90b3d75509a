"""One linear delay equation behind every regime, and the two-agent toy.

Linearized at consensus, the differences x_i - x_j obey y' = -a y(t) -
b y(t - tau).  With c = psi(0), or 1 for normalized weights, reaction delay
gives a = 0, b = c N/(N - 1) and transmission a = c, b = c/(N - 1); for
constant psi it is exact.  a >= b is stable for every tau; for a = 0 the
rightmost root of xi + b e^{-xi tau} + a leaves the real axis at
b tau = 1/e and the left half plane at b tau = pi/2 (N. D. Hayes, J. London
Math. Soc. 25 (1950)).  The toy is the two-agent normalized system on a
line: its gap x_1 - x_2 has (a, b) = (1, 1) for transmission, (0, 2) for
reaction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import IntegratorSpec, integrate
from .errors import InvalidConfig, NoRootFound
from .metrics import fit_decay_rate
from .model import DelayKind, InfluenceFunction, InitialDatum, SystemConfig, WeightScheme

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


def _char(a: float, b: float, tau: float, z: np.ndarray):
    return z + b * np.exp(-z * tau) + a, 1.0 - b * tau * np.exp(-z * tau)


def rightmost_root(a: float, b: float, tau: float) -> CharRoot:
    """Characteristic root with maximal real part, by multistart Newton.

    Starts cover Re in [-10, 5] (step 0.25) and Im in [0, 4 pi/tau]
    (step pi/(2 tau)); conjugate symmetry makes the upper half plane
    sufficient.  Raises NoRootFound if no start converges.
    """
    _require_delay(tau)
    res = np.arange(-10.0, 5.0 + 1e-12, 0.25)
    ims = np.arange(9) * (0.5 * math.pi / tau)
    z = (res[:, None] + 1j * ims[None, :]).ravel()
    with np.errstate(all="ignore"):
        for _ in range(60):
            fz, dfz = _char(a, b, tau, z)
            step = fz / dfz
            z = z - np.where(np.isfinite(step), step, 0.0)
        fz, _ = _char(a, b, tau, z)
        ok = np.isfinite(z) & (np.abs(fz) <= 1e-11)
    if not np.any(ok):
        raise NoRootFound(
            f"no characteristic root found for a={a:g}, b={b:g}, tau={tau:g} "
            f"in Re [-10, 5] x Im [0, {4.0 * math.pi / tau:g}]"
        )
    cand = z[ok]
    root = complex(cand[np.argmax(cand.real)])
    for _ in range(8):  # polish the winner
        fz, dfz = _char(a, b, tau, np.asarray(root))
        if abs(complex(fz)) <= 1e-14:
            break
        root = root - complex(fz) / complex(dfz)
    residual = abs(complex(_char(a, b, tau, np.asarray(root))[0]))
    return CharRoot(re=float(root.real), im=abs(float(root.imag)), residual=residual)


@dataclass(frozen=True, eq=False)
class ToySeries:
    times: np.ndarray
    w: np.ndarray
    blow_up_time: float | None = None


def simulate_toy(config: SystemConfig, w0: float, horizon: float | None = None,
                 dt: float | None = None) -> ToySeries:
    """Simulate the gap w = x_1 - x_2 of a two-agent config on a line from
    constant history w = w0, and return the full series on [-tau, T].

    Blow-up is tolerated: the series is truncated and the time recorded.
    The horizon defaults to 40 tau and dt to the default step.  The gap
    reads no dissipation, so none is formed.
    """
    horizon = 40.0 * config.tau if horizon is None else horizon
    datum = InitialDatum.constant([[0.5 * w0], [-0.5 * w0]])
    traj = integrate(config, datum, horizon, None if dt is None else IntegratorSpec(dt), False)
    w = traj.states[:, 0, 0] - traj.states[:, 1, 0]
    return ToySeries(times=traj.grid, w=w, blow_up_time=traj.blow_up_time)


def fitted_decay_rate(series: ToySeries, t_lo: float | None = None):
    """Empirical decay rate of |w|; positive means decay, None if unfittable.

    Oscillatory signals are fitted on the log of their peak amplitudes,
    monotone ones on log |w| directly.
    """
    t = series.times
    a = np.abs(series.w)
    if t_lo is None:
        t_lo = 0.2 * float(t[-1])
    idx = np.flatnonzero((t >= t_lo) & (a > 1e-13))
    if idx.size < 8:
        return None
    interior = idx[(idx > 0) & (idx < t.size - 1)]
    peaks = interior[(a[interior] > a[interior - 1]) & (a[interior] >= a[interior + 1])]
    fit = peaks if peaks.size >= 4 else idx
    return fit_decay_rate(t[fit], a[fit], (t[fit[0]], t[fit[-1]]))
