"""Decay-rate equations and theorem preconditions.

Solves the Gronwall-Halanay rate equation beta - C = alpha * K(C) for the
two delay kernels in use (Dirac mass at zero and the uniform density on
[0, tau]), derives the theorem-specific rates from it, and checks which
consensus theorems apply to a configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidProblem, PreconditionViolated
from .model import (
    DelayKind,
    IcassReport,
    InitialDatum,
    SystemConfig,
    WeightScheme,
    has_symmetric_weights,
    startup_points,
    weights_from_states,
)
from .metrics import radius


class Measure(str, Enum):
    DIRAC_AT_ZERO = "dirac"
    UNIFORM_ON_DELAY = "uniform"


@dataclass(frozen=True)
class HalanayProblem:
    """Rate equation data: u' <= alpha * (delayed average of u) - beta * u."""

    alpha: float
    beta: float
    tau: float
    measure: Measure = Measure.DIRAC_AT_ZERO

    def __post_init__(self):
        object.__setattr__(self, "measure", Measure(self.measure))
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise InvalidProblem(f"alpha > 0 violated (alpha={self.alpha})")
        if not (self.alpha < self.beta):
            raise InvalidProblem(f"alpha < beta violated (alpha={self.alpha}, beta={self.beta})")
        if not math.isfinite(self.beta):
            raise InvalidProblem(f"beta must be finite (beta={self.beta})")
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise InvalidProblem(f"tau > 0 violated (tau={self.tau})")

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "tau": self.tau,
            "measure": self.measure.value,
        }


@dataclass(frozen=True)
class RateResult:
    C: float
    residual: float
    iterations: int

    def to_dict(self) -> dict:
        return {"C": self.C, "residual": self.residual, "iterations": self.iterations}


def _kernel(measure: Measure, c: float, tau: float) -> float:
    """K(C) = integral of exp(C(s + tau)) against the delay kernel; inf
    where it overflows."""
    x = c * tau
    try:
        if measure is Measure.DIRAC_AT_ZERO:
            return math.exp(x)
        return math.exp(x) * math.expm1(x) / x if x else 1.0
    except OverflowError:
        return math.inf


def solve_halanay(problem: HalanayProblem) -> RateResult:
    """Unique C in (0, beta - alpha) with beta - C = alpha * K(C).

    The left side decreases and the right side increases, so bisection
    keeps the root in [lo, hi] until the two are adjacent floats.  It
    returns lo, where beta - C > alpha * K(C): the rate never exceeds the
    root, so d_x0 e^{-Ct} stays an upper bound.  hi is returned only if lo
    is still 0.  iterations counts the halvings.
    """
    a, b, tau, meas = problem.alpha, problem.beta, problem.tau, problem.measure

    def f(c: float) -> float:
        return b - c - a * _kernel(meas, c, tau)

    lo, hi = 0.0, b - a
    iterations = 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        iterations += 1
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    c = lo if lo > 0.0 else hi
    return RateResult(C=c, residual=f(c), iterations=iterations)


def rate_transmission_normalized(n_agents: int, psi_lower: float, tau: float) -> RateResult:
    """Rate for transmission delay with row-normalized weights.

    Solves 1 - C = (1 - psi_lower (N-2)/(N-1)) e^{C tau}; psi_lower is a
    certified lower bound for the influence values over reachable
    distances.  N = 2 degenerates to alpha = beta and is rejected by the
    solver.
    """
    if not (0.0 < psi_lower <= 1.0):
        raise InvalidProblem(f"psi_lower must be in (0, 1], got {psi_lower}")
    if int(n_agents) != n_agents or n_agents < 2:
        raise InvalidProblem(f"n_agents must be an integer >= 2, got {n_agents}")
    alpha = 1.0 - psi_lower * (n_agents - 2) / (n_agents - 1)
    return solve_halanay(HalanayProblem(alpha, 1.0, tau, Measure.DIRAC_AT_ZERO))


def rate_reaction_nonsymmetric(psi0_lower: float, tau: float) -> RateResult:
    """Rate for reaction delay under the smallness condition 4 tau < psi0.

    Solves psi0 - C = 4 e^{C tau} (e^{C tau} - 1)/C, which is the uniform-
    kernel rate equation with alpha = 4 tau and beta = psi0.
    """
    if not (0.0 < psi0_lower <= 1.0):
        raise InvalidProblem(f"psi0_lower must be in (0, 1], got {psi0_lower}")
    if not (tau > 0.0 and math.isfinite(tau)):
        raise InvalidProblem(f"tau > 0 violated (tau={tau})")
    if 4.0 * tau >= psi0_lower:
        raise PreconditionViolated(
            f"4*tau < psi0_lower violated (4*tau={4.0 * tau:g}, psi0_lower={psi0_lower:g})"
        )
    return solve_halanay(HalanayProblem(4.0 * tau, psi0_lower, tau, Measure.UNIFORM_ON_DELAY))


# ---------------------------------------------------------------------------
# Theorem preconditions

@dataclass(frozen=True)
class TheoremCheck:
    name: str
    applies: bool
    reasons: tuple

    def to_dict(self) -> dict:
        return {"applies": self.applies, "reasons": list(self.reasons)}


@dataclass(frozen=True)
class PreconditionReport:
    transmission_classical: TheoremCheck
    transmission_normalized: TheoremCheck
    reaction_symmetric: TheoremCheck
    reaction_small_delay: TheoremCheck
    psi0_lower: float
    icass: IcassReport
    d_x0: float
    r_x0: float

    def checks(self) -> tuple:
        return (
            self.transmission_classical,
            self.transmission_normalized,
            self.reaction_symmetric,
            self.reaction_small_delay,
        )

    def applicable(self) -> tuple:
        return tuple(c.name for c in self.checks() if c.applies)

    def to_dict(self) -> dict:
        return {
            "theorems": {c.name: c.to_dict() for c in self.checks()},
            "psi0_lower": self.psi0_lower,
            "icass": self.icass.to_dict(),
            "d_x0": self.d_x0,
            "r_x0": self.r_x0,
        }


def psi0_lower_bound(config: SystemConfig, datum: InitialDatum) -> float:
    """(N-1) times the smallest off-diagonal weight at t = 0."""
    x0 = datum.at(0.0)
    x_del = datum.at(-config.tau)
    w = weights_from_states(config, x0, x_del)
    off = w[~np.eye(config.n_agents, dtype=bool)]
    return float((config.n_agents - 1) * off.min())


def check_preconditions(config: SystemConfig, datum: InitialDatum) -> PreconditionReport:
    """Which consensus theorems cover this configuration, with reasons."""
    states, slopes = startup_points(datum, config)
    icass = IcassReport.from_points(states, slopes)
    psi0 = psi0_lower_bound(config, datum)
    r_x0 = max(radius(s) for s in states)
    transmission = config.delay_kind is DelayKind.TRANSMISSION
    reaction = not transmission
    normalized = config.weight_scheme is WeightScheme.NORMALIZED
    symmetric = has_symmetric_weights(config)

    r1: list = [] if transmission else ["delay kind is not transmission"]
    tc = TheoremCheck("transmission_classical", not r1, tuple(r1))

    r2 = list(r1)
    if not normalized:
        r2.append("weights are not row-normalized")
    tn = TheoremCheck("transmission_normalized", not r2, tuple(r2))

    r3: list = [] if reaction else ["delay kind is not reaction"]
    if reaction and not symmetric:
        r3.append("weights are not symmetric")
    if config.tau > 0.5:
        r3.append(f"tau <= 1/2 violated (tau={config.tau:g})")
    rs = TheoremCheck("reaction_symmetric", not r3, tuple(r3))

    r4: list = [] if reaction else ["delay kind is not reaction"]
    if not icass.satisfied:
        r4.append("startup slope bound violated")
    if 4.0 * config.tau >= psi0:
        r4.append(f"4*tau < psi0_lower violated (4*tau={4.0 * config.tau:g}, psi0_lower={psi0:g})")
    rd = TheoremCheck("reaction_small_delay", not r4, tuple(r4))

    return PreconditionReport(tc, tn, rs, rd, psi0, icass, icass.d_x0, r_x0)
