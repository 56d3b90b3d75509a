"""Two-agent normalized systems: regime classification and characteristic roots.

With two agents and normalized weights the opinion gap w = x_1 - x_2 obeys
a scalar linear delay equation: w' = -w(t - tau) - w(t) for transmission
delay (stable for every tau) and w' = -2 w(t - tau) for reaction delay,
whose behavior switches at 2 tau = 1/e (oscillation onset) and
2 tau = pi/2 (instability).  Roots are computed for the unscaled-time
characteristic functions xi + e^{-xi tau} + 1 and xi + 2 e^{-xi tau}.
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

OSCILLATION_THRESHOLD = math.exp(-1.0)  # on 2*tau
STABILITY_THRESHOLD = math.pi / 2.0  # on 2*tau
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


def classify_regime(delay_kind: DelayKind, tau: float) -> ToyRegime:
    """Regime by delay length; BOUNDARY within 1e-9 of a threshold."""
    _require_delay(tau)
    if DelayKind(delay_kind) is DelayKind.TRANSMISSION:
        return ToyRegime.ALWAYS_STABLE
    x = 2.0 * tau
    if abs(x - OSCILLATION_THRESHOLD) <= BOUNDARY_TOL:
        return ToyRegime.BOUNDARY
    if abs(x - STABILITY_THRESHOLD) <= BOUNDARY_TOL:
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


def _char(delay_kind: DelayKind, tau: float, z: np.ndarray):
    if delay_kind is DelayKind.TRANSMISSION:
        return z + np.exp(-z * tau) + 1.0, 1.0 - tau * np.exp(-z * tau)
    return z + 2.0 * np.exp(-z * tau), 1.0 - 2.0 * tau * np.exp(-z * tau)


def rightmost_root(delay_kind: DelayKind, tau: float) -> CharRoot:
    """Characteristic root with maximal real part, by multistart Newton.

    Starts cover Re in [-10, 5] (step 0.25) and Im in [0, 4 pi/tau]
    (step pi/(2 tau)); conjugate symmetry makes the upper half plane
    sufficient.  Raises NoRootFound if no start converges.
    """
    delay_kind = DelayKind(delay_kind)
    _require_delay(tau)
    res = np.arange(-10.0, 5.0 + 1e-12, 0.25)
    ims = np.arange(9) * (math.pi / (2.0 * tau))
    z = (res[:, None] + 1j * ims[None, :]).ravel()
    with np.errstate(all="ignore"):
        for _ in range(60):
            fz, dfz = _char(delay_kind, tau, z)
            step = fz / dfz
            step = np.where(np.isfinite(step), step, 0.0)
            z = z - step
        fz, _ = _char(delay_kind, tau, z)
        ok = np.isfinite(z) & (np.abs(fz) <= 1e-11)
    if not np.any(ok):
        raise NoRootFound(
            f"no characteristic root found for {delay_kind.value}, tau={tau:g} "
            f"in Re [-10, 5] x Im [0, {4.0 * math.pi / tau:g}]"
        )
    cand = z[ok]
    root = complex(cand[np.argmax(cand.real)])
    for _ in range(8):  # polish the winner
        fz, dfz = _char(delay_kind, tau, np.asarray(root))
        if abs(complex(fz)) <= 1e-14:
            break
        root = root - complex(fz) / complex(dfz)
    residual = abs(complex(_char(delay_kind, tau, np.asarray(root))[0]))
    return CharRoot(re=float(root.real), im=abs(float(root.imag)), residual=residual)


@dataclass(frozen=True, eq=False)
class ToySeries:
    times: np.ndarray
    w: np.ndarray
    blow_up_time: float | None = None


def simulate_toy(
    delay_kind: DelayKind,
    tau: float,
    w0: float,
    horizon: float | None = None,
    dt: float | None = None,
) -> ToySeries:
    """Simulate the two-agent gap w(t) from constant history w = w0.

    Runs the actual N = 2 normalized system (gap x_1 - x_2 reproduces the
    scalar equations exactly) and returns the full series on [-tau, T].
    Blow-up is tolerated: the series is truncated and the time recorded.
    The horizon defaults to 40 tau and dt to the default step.
    """
    delay_kind = DelayKind(delay_kind)
    horizon = 40.0 * tau if horizon is None else horizon
    config = SystemConfig(
        n_agents=2,
        dim=1,
        tau=tau,
        delay_kind=delay_kind,
        weight_scheme=WeightScheme.NORMALIZED,
        influence=InfluenceFunction.constant(1.0),
    )
    datum = InitialDatum.constant([[0.5 * w0], [-0.5 * w0]])
    traj = integrate(config, datum, horizon, None if dt is None else IntegratorSpec(dt))
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
    sel = (t >= t_lo) & (a > 1e-13)
    idx = np.where(sel)[0]
    if idx.size < 8:
        return None
    interior = idx[(idx > 0) & (idx < t.size - 1)]
    peaks = interior[(a[interior] > a[interior - 1]) & (a[interior] >= a[interior + 1])]
    fit = peaks if peaks.size >= 4 else idx
    return fit_decay_rate(t[fit], a[fit], (t[fit[0]], t[fit[-1]]))
