"""Decay-rate equations and proof-side quantities.

Solves the Gronwall-Halanay rate equation beta - C = alpha * K(C) for the
two delay kernels in use (Dirac mass at zero and the uniform density on
[0, tau]), derives the theorem-specific rates from it, evaluates the
interval shrink factor with its window iteration, checks which consensus
theorems apply to a configuration, and verifies the convex-combination
diameter bound on explicit instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    InvalidInterval,
    InvalidProblem,
    InvalidWeights,
    OutOfRange,
    PreconditionViolated,
)
from .dynamics import STEPS_PER_DELAY, rk4_method_of_steps
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
from .metrics import diameter, radius


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
# Interval shrink factor and window iteration

@dataclass(frozen=True)
class WindowRecord:
    k: int
    t_lo: float
    t_hi: float
    m: float
    M: float
    D: float
    sigma: float
    gamma: float


@dataclass(frozen=True)
class ShrinkEstimate:
    psi_lower: float
    sigma: float
    gamma: float
    m: float
    M: float
    records: tuple = ()


def shrink_factor(psi_lower: float, tau: float, n_agents: int, m: float, M: float) -> ShrinkEstimate:
    """Explicit per-window contraction factor for a positive 1D group.

    Gamma = (1 - e^{-psi_lower tau/(N-1)})^2 (1 - e^{-sigma}) e^{-6 tau}
            * psi_lower/(N-1),  sigma = min{tau, (M-m)/(2M)}.
    """
    if not (m > 0.0 and m <= M):
        raise InvalidInterval(f"need 0 < m <= M, got m={m}, M={M}")
    if not (0.0 < psi_lower <= 1.0):
        raise InvalidProblem(f"psi_lower must be in (0, 1], got {psi_lower}")
    if not (tau > 0.0 and n_agents >= 2):
        raise InvalidProblem("need tau > 0 and n_agents >= 2")
    sigma = min(tau, (M - m) / (2.0 * M))
    unit = psi_lower / (n_agents - 1)
    gamma = (
        (1.0 - math.exp(-unit * tau)) ** 2
        * (1.0 - math.exp(-sigma))
        * math.exp(-6.0 * tau)
        * unit
    )
    return ShrinkEstimate(psi_lower, sigma, gamma, m, M)


def shrink_iteration(
    trajectory, psi_lower: float, n_windows: int, coordinate: int = 0
) -> ShrinkEstimate:
    """Window bookkeeping for the iterated contraction argument.

    Window k is [(6k - 1) tau, 6k tau]; extrema are read from stored grid
    samples of the chosen coordinate (multi-D handled per coordinate).
    Requires the trajectory to stay strictly positive in that coordinate.
    """
    config = trajectory.config
    tau = config.tau
    g = trajectory.grid
    if g[-1] + 1e-9 < 6.0 * n_windows * tau:
        raise OutOfRange(
            f"trajectory ends at {g[-1]:g}, "
            f"{n_windows} windows need {6.0 * n_windows * tau:g}"
        )
    coord = trajectory.states[:, :, coordinate]
    records = []
    for k in range(n_windows + 1):
        t_lo, t_hi = (6.0 * k - 1.0) * tau, 6.0 * k * tau
        mask = (g >= t_lo - 1e-12 * (1 + abs(t_lo))) & (g <= t_hi + 1e-12 * (1 + abs(t_hi)))
        window = coord[mask]
        m_k = float(window.min())
        M_k = float(window.max())
        est = shrink_factor(psi_lower, tau, config.n_agents, m_k, M_k)
        records.append(WindowRecord(k, t_lo, t_hi, m_k, M_k, M_k - m_k, est.sigma, est.gamma))
    first = records[0]
    return ShrinkEstimate(
        psi_lower, first.sigma, first.gamma, first.m, first.M, tuple(records)
    )


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
    states, slopes = startup_points(datum, config.tau)
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


# ---------------------------------------------------------------------------
# Convex-combination diameter bound

@dataclass(frozen=True)
class ConvexityCheck:
    lhs: float
    rhs: float
    holds: bool


def convexity_bound_check(vectors, eta_i, eta_k, mu: float, i=None, k=None) -> ConvexityCheck:
    """Check |sum_j eta^i_j x_j - sum_j eta^k_j x_j| <= (1 - (N-2) mu) d_x.

    eta_i and eta_k are full length-N weight vectors with a zero self entry
    (at positions i and k, inferred from the zero entries when omitted);
    each must be nonnegative and sum to one, and mu must not exceed any
    weight outside its own self entry.
    """
    x = np.atleast_2d(np.asarray(vectors, dtype=float))
    n = x.shape[0]
    eta_i = np.asarray(eta_i, dtype=float)
    eta_k = np.asarray(eta_k, dtype=float)
    if n < 3:
        raise InvalidWeights(f"need at least 3 vectors, got {n}")
    if eta_i.shape != (n,) or eta_k.shape != (n,):
        raise InvalidWeights("weight vectors must have one entry per vector")
    if np.any(eta_i < -1e-15) or np.any(eta_k < -1e-15):
        raise InvalidWeights("weights must be nonnegative")
    if abs(eta_i.sum() - 1.0) > 1e-9 or abs(eta_k.sum() - 1.0) > 1e-9:
        raise InvalidWeights("weights must sum to one")
    i = int(np.argmin(eta_i)) if i is None else int(i)
    k = int(np.argmin(eta_k)) if k is None else int(k)
    if i == k:
        raise InvalidWeights("the two excluded indices must differ")
    if eta_i[i] > 1e-15 or eta_k[k] > 1e-15:
        raise InvalidWeights("self entries must be zero")
    if mu < 0.0:
        raise InvalidWeights(f"mu must be nonnegative, got {mu}")
    floor = min(
        float(np.delete(eta_i, i).min()),
        float(np.delete(eta_k, k).min()),
    )
    if mu > floor + 1e-12:
        raise InvalidWeights(f"mu={mu:g} exceeds the smallest relevant weight {floor:g}")
    lhs = float(np.linalg.norm(eta_i @ x - eta_k @ x))
    rhs = (1.0 - (n - 2) * mu) * diameter(x)
    return ConvexityCheck(lhs, rhs, lhs <= rhs + 1e-12)


# ---------------------------------------------------------------------------
# Sharpness check: simulate the equality-case scalar delay equation

def simulate_equality_case(alpha, beta, tau: float, horizon_delays: int = 10):
    """Integrate u' = alpha u(t - tau) - beta u from constant history u = 1.

    alpha and beta broadcast, so a whole parameter grid advances in one
    sweep.  Returns (times, u) with times on [0, horizon] and u of shape
    (n_times,) + broadcast(alpha, beta), cut before the first node where
    any entry blows up.  Uses the integrator's RK4 stepper at its default
    resolution, independent of the transcendental rate solve it checks.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    q = STEPS_PER_DELAY
    h = tau / q
    # the whole grid is one stepper member, on axis 1
    u = np.ones((q + horizon_delays * q + 1, 1) + np.broadcast(alpha, beta).shape)
    # the history is constant, so its startup midpoints equal its nodes
    (n_valid,) = rk4_method_of_steps(
        lambda u_now, u_del: alpha * u_del - beta * u_now,
        u, np.zeros_like(u), u[:q], q, np.full((1,) * (u.ndim - 1), h),
    )
    return np.arange(n_valid - q) * h, u[q:n_valid, 0]
