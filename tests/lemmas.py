"""Proof-side quantities of the consensus lemmas, for the tests.

The package solves the rate equations and checks which theorems apply; the
tests also evaluate the estimates the proofs are built from: the interval
shrink factor with its window iteration, the convex-combination diameter
bound on explicit instances, and the equality-case scalar delay equation
whose solution the rate equations bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from hkdelay.errors import InvalidProblem, OutOfRange
from hkdelay.model import squared_diameter
from hkdelay.dynamics import MAX_DEFAULT_DT, STEPS_PER_DELAY, rk4_method_of_steps


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
        raise ValueError(f"need 0 < m <= M, got m={m}, M={M}")
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
        raise ValueError(f"need at least 3 vectors, got {n}")
    if eta_i.shape != (n,) or eta_k.shape != (n,):
        raise ValueError("weight vectors must have one entry per vector")
    if np.any(eta_i < -1e-15) or np.any(eta_k < -1e-15):
        raise ValueError("weights must be nonnegative")
    if abs(eta_i.sum() - 1.0) > 1e-9 or abs(eta_k.sum() - 1.0) > 1e-9:
        raise ValueError("weights must sum to one")
    i = int(np.argmin(eta_i)) if i is None else int(i)
    k = int(np.argmin(eta_k)) if k is None else int(k)
    if i == k:
        raise ValueError("the two excluded indices must differ")
    if eta_i[i] > 1e-15 or eta_k[k] > 1e-15:
        raise ValueError("self entries must be zero")
    if mu < 0.0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    floor = min(
        float(np.delete(eta_i, i).min()),
        float(np.delete(eta_k, k).min()),
    )
    if mu > floor + 1e-12:
        raise ValueError(f"mu={mu:g} exceeds the smallest relevant weight {floor:g}")
    lhs = float(np.linalg.norm(eta_i @ x - eta_k @ x))
    rhs = (1.0 - (n - 2) * mu) * np.sqrt(squared_diameter(x))
    return ConvexityCheck(lhs, rhs, lhs <= rhs + 1e-12)


# ---------------------------------------------------------------------------
# Sharpness check: simulate the equality-case scalar delay equation

def simulate_equality_case(alpha, beta, tau: float, horizon_delays: int = 10):
    """Integrate u' = alpha u(t - tau) - beta u from constant history u = 1.

    alpha and beta broadcast, so a whole parameter grid advances in one
    sweep.  Returns (times, u) with times on [0, horizon] and u of shape
    (n_times,) + broadcast(alpha, beta), cut before the first node where
    any entry blows up.  Uses the integrator's RK4 stepper at its default
    step rule with the self-term rate max(beta): dt = tau / q with the
    smallest q >= STEPS_PER_DELAY that keeps max(beta) dt at or below
    MAX_DEFAULT_DT.  It is independent of the transcendental rate solve it
    checks.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    q = max(STEPS_PER_DELAY, math.ceil(float(beta.max()) * tau / MAX_DEFAULT_DT))
    h = tau / q
    # the whole grid is one stepper member, on axis 1
    u = np.ones((q + horizon_delays * q + 1, 1) + np.broadcast(alpha, beta).shape)
    # the history is constant, so its startup midpoints equal its nodes
    (n_valid,) = rk4_method_of_steps(
        lambda u_now, u_del, rows: alpha * u_del - beta * u_now,
        u, np.zeros_like(u), u[:q], np.full((1,) * (u.ndim - 1), h),
    )
    return np.arange(n_valid - q) * h, u[q:n_valid, 0]
