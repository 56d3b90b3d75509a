"""Decay rates: the paper's rate equations and four consensus theorems,
and the one linear delay equation behind every regime.

Solves the Gronwall-Halanay rate equation beta - C = alpha * K(C) for the
two delay kernels in use (Dirac mass at zero and the uniform density on
[0, tau]) with bisect, the package's one scalar root finder, which the
characteristic root below shares.  This is the one module that names the
paper's four consensus theorems, listed in THEOREMS: check_preconditions
decides which of them cover a configuration and why the others do not,
and theorem_rates gives the rates of those that carry one, or why a rate
was skipped.

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

from .errors import InvalidConfig, InvalidProblem
from .model import (
    DelayKind,
    IcassReport,
    InfluenceFunction,
    InitialDatum,
    SystemConfig,
    WeightScheme,
    has_symmetric_weights,
    psi_floor,
    weights_from_states,
)

# the paper's theorems: transmission delay with classical and with
# normalized weights, reaction delay with symmetric and with non-symmetric
# weights (the last under a small-delay condition)
THEOREMS = ("transmission_classical", "transmission_normalized",
            "reaction_symmetric", "reaction_small_delay")


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
        for name in ("alpha", "beta", "tau"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidProblem(f"{name} must be finite ({name}={value})")
        if not (self.alpha > 0.0):
            raise InvalidProblem(f"alpha > 0 violated (alpha={self.alpha})")
        if not (self.alpha < self.beta):
            raise InvalidProblem(f"alpha < beta violated (alpha={self.alpha}, beta={self.beta})")
        if not (self.tau > 0.0):
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
        if not x:
            return 1.0
        k = math.exp(x) * math.expm1(x)  # overflows from x = 354.9, the kernel only from 357.7
        return k / x if k < math.inf else math.exp(x) * (math.expm1(x) / x)
    except OverflowError:
        return math.inf


def _scaled_kernel(alpha: float, measure: Measure, c: float, tau: float) -> float:
    """alpha * K(C).  Where K overflows, it is exp(ln alpha + ln K), finite
    while the product is: ln K = x for the Dirac kernel and 2x - ln x +
    ln(1 - e^-x) for the uniform one, x = C tau."""
    k = _kernel(measure, c, tau)
    if k < math.inf:
        return alpha * k
    log_k = x = c * tau
    if measure is Measure.UNIFORM_ON_DELAY and x < math.inf:
        log_k = 2.0 * x - math.log(x) + math.log(-math.expm1(-x))
    try:
        return math.exp(math.log(alpha) + log_k)
    except OverflowError:
        return math.inf


def bisect(f, lo: float, hi: float) -> tuple[float, float, int]:
    """Halve [lo, hi] until its ends are adjacent floats, for an f that is
    positive left of its one sign change and not right of it: a midpoint
    where f > 0 becomes lo, any other hi.  Returns lo, hi and the number of
    halvings."""
    iterations = 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        iterations += 1
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi, iterations


def solve_halanay(problem: HalanayProblem) -> RateResult:
    """Unique C in (0, beta - alpha) with beta - C = alpha * K(C).

    The left side decreases and the right side increases, so bisect keeps
    the root in [lo, hi] until the two are adjacent floats.  It returns lo,
    where beta - C > alpha * K(C): the rate never exceeds the root, so
    d_x0 e^{-Ct} stays an upper bound.  hi is returned only if lo is still
    0.  iterations counts the halvings.
    """
    a, b, tau, meas = problem.alpha, problem.beta, problem.tau, problem.measure

    def f(c: float) -> float:
        return b - c - _scaled_kernel(a, meas, c, tau)

    lo, hi, iterations = bisect(f, 0.0, b - a)
    c = lo if lo > 0.0 else hi
    return RateResult(C=c, residual=f(c), iterations=iterations)


# ---------------------------------------------------------------------------
# Theorem preconditions

@dataclass(frozen=True)
class PreconditionReport:
    """The conditions each theorem in THEOREMS violates (none where it
    applies), psi0_lower and the startup bounds of the datum."""

    violated: dict
    psi0_lower: float
    icass: IcassReport

    def applicable(self) -> tuple:
        return tuple(name for name in THEOREMS if not self.violated[name])

    def to_dict(self) -> dict:
        return {
            "theorems": {
                name: {"applies": not reasons, "reasons": list(reasons)}
                for name, reasons in self.violated.items()
            },
            "psi0_lower": self.psi0_lower,
            "icass": self.icass.to_dict(),
            "d_x0": self.icass.d_x0,
            "r_x0": self.icass.r_x0,
        }


def psi0_lower_bound(config: SystemConfig, datum: InitialDatum) -> float:
    """(N-1) times the smallest off-diagonal weight at t = 0, capped at 1 against rounding."""
    x0 = datum.at(0.0)
    x_del = datum.at(-config.tau)
    w = weights_from_states(config, x0, x_del).matrix()
    off = w[~np.eye(config.n_agents, dtype=bool)]
    return min(1.0, float((config.n_agents - 1) * off.min()))


def check_preconditions(config: SystemConfig, datum: InitialDatum, icass: IcassReport) -> PreconditionReport:
    """Which consensus theorems cover this configuration, with reasons.

    icass must be check_icass(datum, config), as compute_metrics formed it
    for the run; the datum is still checked against config here, so one
    that does not fit raises InvalidDatum as the startup check would."""
    datum.require_fits(config)
    psi0 = psi0_lower_bound(config, datum)
    tau = config.tau
    reaction = config.delay_kind is DelayKind.REACTION
    # each hypothesis once: the theorems it serves, whether it fails, and why
    hypotheses = (
        (("reaction_symmetric", "reaction_small_delay"), not reaction, "delay kind is not reaction"),
        (("transmission_classical", "transmission_normalized"), reaction, "delay kind is not transmission"),
        (("reaction_symmetric",), reaction and not has_symmetric_weights(config), "weights are not symmetric"),
        (("transmission_normalized",), config.weight_scheme is not WeightScheme.NORMALIZED,
         "weights are not row-normalized"),
        (("reaction_symmetric",), tau > 0.5, f"tau <= 1/2 violated (tau={tau:g})"),
        (("reaction_small_delay",), not icass.satisfied, "startup slope bound violated"),
        (("reaction_small_delay",), 4.0 * tau >= psi0,
         f"4*tau < psi0_lower violated (4*tau={4.0 * tau:g}, psi0_lower={psi0:g})"),
    )
    violated = {name: [reason for names, fails, reason in hypotheses if fails and name in names] for name in THEOREMS}
    return PreconditionReport(violated, psi0, icass)


def theorem_rates(config: SystemConfig, report: PreconditionReport) -> tuple[dict, dict]:
    """Rates of the applicable theorems that carry one, and the reasons for
    those that were skipped.

    transmission_normalized solves 1 - C = alpha e^{C tau} on the Dirac
    kernel, alpha = 1 - psi_lower (N-2)/(N-1), where psi_lower is the
    certified floor of psi over [0, 2 r_x0].  reaction_small_delay solves
    psi0 - C = 4 e^{C tau} (e^{C tau} - 1)/C, the uniform kernel with
    alpha = 4 tau and beta = psi0_lower, which 4 tau < psi0_lower keeps
    apart.  The transmission rate is skipped where its equation has no
    positive solution to certify: with two agents (alpha = beta), when the
    floor underflows to 0, or when it is so small that alpha rounds to
    beta = 1.
    """
    out, skipped = {}, {}
    applicable = report.applicable()
    n, tau = config.n_agents, config.tau
    if "transmission_normalized" in applicable:
        r_x0 = report.icass.r_x0
        if n == 2:
            skipped["transmission_normalized"] = "n_agents = 2 gives alpha = beta = 1, so no rate C > 0"
        elif (alpha := 1.0 - (psi_low := psi_floor(config.influence, 2.0 * r_x0)) * (n - 2) / (n - 1)) < 1.0:
            res = solve_halanay(HalanayProblem(alpha, 1.0, tau, Measure.DIRAC_AT_ZERO))
            out["transmission_normalized"] = {"psi_lower": psi_low, **res.to_dict()}
        elif psi_low == 0.0:
            skipped["transmission_normalized"] = f"psi floor over [0, 2*r_x0={2.0 * r_x0:g}] underflows to 0"
        else:
            skipped["transmission_normalized"] = (
                f"psi floor {psi_low:g} over [0, 2*r_x0={2.0 * r_x0:g}] rounds alpha to beta = 1, so no rate C > 0"
            )
    if "reaction_small_delay" in applicable:
        psi0 = report.psi0_lower
        res = solve_halanay(HalanayProblem(4.0 * tau, psi0, tau, Measure.UNIFORM_ON_DELAY))
        out["reaction_small_delay"] = {"psi0_lower": psi0, **res.to_dict()}
    return out, skipped


# ---------------------------------------------------------------------------
# The linearization at consensus

OSCILLATION_THRESHOLD = math.exp(-1.0)  # on b*tau
STABILITY_THRESHOLD = math.pi / 2.0  # on b*tau
BOUNDARY_TOL = 1e-9


class Regime(str, Enum):
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


def classify_regime(a: float, b: float, tau: float) -> Regime:
    """Regime of y' = -a y(t) - b y(t - tau): a >= b is stable for every
    tau; otherwise the thresholds on b tau are those of a = 0, the only
    a < b that linear_coefficients gives.  BOUNDARY within 1e-9 of one."""
    _require_delay(tau)
    if a >= b:
        return Regime.ALWAYS_STABLE
    x = b * tau
    if min(abs(x - OSCILLATION_THRESHOLD), abs(x - STABILITY_THRESHOLD)) <= BOUNDARY_TOL:
        return Regime.BOUNDARY
    if x < OSCILLATION_THRESHOLD:
        return Regime.NON_OSCILLATORY_STABLE
    if x < STABILITY_THRESHOLD:
        return Regime.OSCILLATORY_STABLE
    return Regime.UNSTABLE


def rightmost_root(a: float, b: float, tau: float) -> complex:
    """Root of xi + a + b e^{-xi tau} with maximal real part, for a >= 0,
    b > 0, in closed form, as a complex.

    With w = (xi + a) tau the equation is w e^w = -r, r = b tau e^{a tau},
    whose rightmost root is the principal branch of Lambert's W: xi* =
    W0(-r)/tau - a.  ln r is formed as a sum, so no product under- or
    overflows, and W0 is bisected.  For r <= 1/e it is real in [-1, 0) and
    solves ln(-w) + w = ln r, and the equation gives xi* = -b e^{a tau - w}
    - a, which keeps the digits that w loses to the rounding of ln r, or
    to the subnormal grid at a subnormal tau.  Otherwise W0 = -y cot y +
    i y, y in (0, pi), solves ln(y / sin y) - y cot y = ln r; it is
    bisected on v = cot y, so that a y near pi keeps its digits in
    1/sin y = hypot(1, v), and the equation gives xi* = (ln(b tau sin y /
    y) + i y)/tau, which does not subtract a from w/tau.
    """
    _require_delay(tau)
    log_r = math.log(b) + math.log(tau) + a * tau
    if log_r <= -1.0:
        w = bisect(lambda w: math.log(-w) + w - log_r, -1.0, 0.0)[0]
        x = a * tau - w  # e^x overflows past x = 709.78, where w/tau serves
        return complex((-b * math.exp(x) if x < 709.0 else w / tau) - a, 0.0)

    def excess(v):  # ln(y / sin y) - y cot y - ln r at y = arccot v
        y = math.atan2(1.0, v)
        return math.log(y) + math.log(math.hypot(1.0, v)) - y * v - log_r

    # excess decreases in v, from positive at -max(ln r, 1) to negative at
    # (ln r + 1)^(-1/2)
    v = bisect(excess, -max(log_r, 1.0), 1.0 / math.sqrt(log_r + 1.0))[0]
    y = math.atan2(1.0, v)
    return complex(-math.log(y / b * (math.hypot(1.0, v) / tau)) / tau, y / tau)
