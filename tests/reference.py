"""Pointwise reference views of a trajectory, for the tests.

The package evaluates its diagnostics as series on the grid
(compute_metrics) and reads delayed states inside the RK4 stepper.  These
views recompute the same quantities at any single time t from the stored
nodes: the datum on the startup interval, the stored nodes exactly, and
cubic Hermite dense output from the stored states and derivatives between
them.  Tests check the package paths against them.

Transmission reads x(t - tau) and x(t); reaction reads only x(t - tau).
A lookup outside the stored grid raises OutOfRange instead of
extrapolating.

integrate_oracle is an independent integrator to check the RK4 stepper
against: explicit Euler, a scalar double loop over agents for the velocity
and its own linear history lookup.  It shares only the package's grid,
startup and blow-up scaffolding, so its trajectories end as integrate's do.

blocked_dissipation is the D series from a second weight evaluation over
blocks of stored nodes, summed in the order that velocity_from_states
documents, spelled out in spelled_out_dissipation.  Trajectory.D must
equal it bit for bit, and Trajectory.sq_diameter, on every node, must
equal blocked_sq_diameter, which the trajectories built here carry too.

pure_delay_factor is the closed form of y' = -b y(t - tau) from a constant
history, in exact rationals: with reaction delay, normalized weights and
constant psi, every agent's deviation from the conserved mean obeys it,
so the stepper's true global error can be measured against it.
"""

import math
from fractions import Fraction

import numpy as np

from hkdelay import dynamics
from hkdelay.errors import OutOfRange
from hkdelay.model import DelayKind, WeightScheme, weights_from_states, block_length, pair_sq
from hkdelay.dynamics import Trajectory, velocity_from_states


def hermite(y0, y1, f0, f1, h, theta):
    """Cubic Hermite interpolant at fraction theta of a step of length h."""
    t2 = theta * theta
    t3 = t2 * theta
    return (
        (2.0 * t3 - 3.0 * t2 + 1.0) * y0
        + h * (t3 - 2.0 * t2 + theta) * f0
        + (-2.0 * t3 + 3.0 * t2) * y1
        + h * (t3 - t2) * f1
    )


def sample(traj, t):
    """State (N, d) of the trajectory at time t."""
    g = traj.grid
    pad = 1e-9 * (1.0 + abs(t))
    if t < g[0] - pad or t > g[-1] + pad:
        raise OutOfRange(f"sample at t={t:.6g} outside [{g[0]:.6g}, {g[-1]:.6g}]")
    t = min(max(t, g[0]), g[-1])
    if t <= 0.0:
        return traj.datum.at(t)
    i = min(int(np.searchsorted(g, t, side="right")) - 1, g.size - 2)
    h = g[i + 1] - g[i]
    theta = (t - g[i]) / h
    if theta == 0.0:
        return traj.states[i].copy()
    S, F = traj.states, traj.derivs
    return hermite(S[i], S[i + 1], F[i], F[i + 1], h, theta)


def delayed_states(config, traj, t):
    """(x_now, x_delayed) at time t; x_now is None for reaction delay."""
    x_delayed = sample(traj, t - config.tau)
    if config.delay_kind is DelayKind.TRANSMISSION:
        return sample(traj, t), x_delayed
    return None, x_delayed


def rhs(config, traj, t):
    """Velocity (N, d) at time t."""
    return velocity_from_states(config, *delayed_states(config, traj, t))


def eval_weights(config, traj, t):
    """Weight matrix (N, N) at time t."""
    return weights_from_states(config, *delayed_states(config, traj, t)).matrix()


def _oracle_velocity(config, x_now, x_delayed):
    # Plain double loop over agents with scalar psi evaluations; kept
    # intentionally separate from the vectorized path it cross-checks.
    n = config.n_agents
    classical = config.weight_scheme is WeightScheme.CLASSICAL_SCALED
    out = np.zeros_like(x_delayed)
    for i in range(n):
        base = x_now[i] if config.delay_kind is DelayKind.TRANSMISSION else x_delayed[i]
        vals = []
        for j in range(n):
            if j == i:
                vals.append(0.0)
                continue
            s = math.sqrt(float(((x_delayed[j] - base) ** 2).sum()))
            vals.append(float(config.influence(s)))
        denom = (n - 1) if classical else sum(vals)
        acc = np.zeros(config.dim)
        for j in range(n):
            if j != i:
                acc += (vals[j] / denom) * (x_delayed[j] - base)
        out[i] = acc
    return out


def integrate_oracle(config, datum, horizon, spec=None):
    """Explicit Euler with linear history interpolation, stepped by
    spec.dt (default: the package's default step).

    Blow-up is tested as in integrate, and a run that blows up returns its
    nodes before the blown-up one, with that node's time as blow_up_time.
    """
    if spec is None:
        spec = dynamics.default_spec(config)
    q, n_fwd = dynamics._grid_shape(config, horizon, spec)
    datum.require_fits(config)
    grid, states, derivs = (a[0] for a in dynamics._allocate(config, q, n_fwd, [spec.dt]))
    dynamics._fill_startup(grid, q, datum, states, derivs, config.tau)
    center, limit = dynamics._blow_up_bounds(states[q])
    lowest = np.min(limit)
    kept = grid.size
    dt = spec.dt
    tau = config.tau

    def lookup(n_valid, t):
        """State at t from the datum on the startup interval and linear
        interpolation between the first n_valid nodes after it."""
        t = min(max(t, grid[0]), grid[n_valid - 1])
        if t <= 0.0:
            return datum.at(t)
        i = min(int(np.searchsorted(grid[:n_valid], t, side="right")) - 1, n_valid - 2)
        theta = (t - grid[i]) / (grid[i + 1] - grid[i])
        if theta == 0.0:
            return states[i].copy()
        return (1.0 - theta) * states[i] + theta * states[i + 1]

    with np.errstate(all="ignore"):
        for m in range(q, q + n_fwd):
            x_del = lookup(m + 1, grid[m] - tau)
            v = _oracle_velocity(config, states[m], x_del)
            derivs[m] = v
            y1 = states[m] + dt * v
            if dynamics._blown(y1[None, None], center, limit, lowest) is not None:
                kept = m + 1
                break
            states[m + 1] = y1
        else:
            derivs[q + n_fwd] = _oracle_velocity(
                config, states[q + n_fwd], lookup(q + n_fwd + 1, grid[q + n_fwd] - tau)
            )
    blow_up = float(grid[kept]) if kept < grid.size else None
    D = blocked_dissipation(config, states[:kept], q)
    sq_diameter = blocked_sq_diameter(states[:kept])
    return Trajectory(grid[:kept], states[:kept], derivs[:kept], D, sq_diameter, config, datum, blow_up)


def spelled_out_dissipation(config, weights, sq):
    """D of every state stacked in model.Weights weights, from sq, the pair
    array of its delayed states, summed as velocity_from_states documents:
    r_i = (((t_0i + t_1i) + t_2i) + ...) over j in index order, with
    t_ji = u_ji sq_ji, then numpy's sum of the vector (r_i / n_i)_i of each
    state on its own, over 2(N - 1)."""
    t = weights.u * sq  # (N_j, N_i, ...)
    r = t[0].copy()
    for row in t[1:]:
        r += row
    r /= weights.n
    rows = r.reshape(len(r), -1)  # (N_i, states)
    total = [np.sum(np.array(rows[:, m])) for m in range(rows.shape[1])]
    return np.array(total) / (2.0 * (config.n_agents - 1))


def blocked_dissipation(config, states, q):
    """D on the nodes of (n, N, d) states whose node q is t = 0, NaN before
    it: in blocks of nodes m, the weights at (x(t_m), x(t_m - tau)) and the
    pair squares of x(t_m - tau), summed by spelled_out_dissipation."""
    n = len(states)
    D = np.full(n, np.nan)
    transmission = config.delay_kind is DelayKind.TRANSMISSION
    step = block_length(config.n_agents * config.n_agents)
    for a in range(0, n - q, step):
        c = min(a + step, n - q)
        x_del = states[a:c]
        w = weights_from_states(config, states[a + q : c + q] if transmission else None, x_del)
        D[a + q : c + q] = spelled_out_dissipation(config, w, pair_sq(x_del, x_del))
    return D


def blocked_sq_diameter(states):
    """The squared diameter of each of (n, N, d) states: the maxima of
    pair_sq over blocks of block_length(N^2) states."""
    n, n_agents = states.shape[:2]
    out = np.empty(n)
    step = block_length(n_agents * n_agents)
    for a in range(0, n, step):
        out[a : a + step] = pair_sq(states[a : a + step], states[a : a + step]).max(axis=(0, 1))
    return out


def gap(traj):
    """x_1 - x_2 on traj.grid, for two agents on a line: the toy's gap."""
    return traj.states[:, 0, 0] - traj.states[:, 1, 0]


def pure_delay_factor(b, tau, t) -> float:
    """y(t)/y(0) for y' = -b y(t - tau) with y = y(0) on [-tau, 0].

    By the method of steps, on ((m - 1) tau, m tau] it is the sum over
    k = 0..m of (-b)^k (t - (k - 1) tau)^k / k!.  The terms grow like
    (b t)^k / k! while the sum stays below 1, so the sum is formed in
    exact rationals from the exact values of b, tau and t, and rounded once.
    """
    b, tau, t = Fraction(b), Fraction(tau), Fraction(t)
    m = max(math.ceil(t / tau), 0)
    return float(sum((-b) ** k * (t - (k - 1) * tau) ** k / math.factorial(k) for k in range(m + 1)))


def char_residual(xi, a, b, tau):
    """|xi + a + b e^{-xi tau}| at the complex xi, with overflow to inf and
    nan left quiet."""
    with np.errstate(all="ignore"):
        return float(abs(xi + a + b * np.exp(-xi * tau)))


def mean(state):
    """Arithmetic mean over agents, a d-vector."""
    return np.atleast_2d(np.asarray(state, dtype=float)).mean(axis=0)


def fluctuation(state, mean_ref):
    """Quadratic fluctuation around mean_ref: sum |x_i - mean|^2 / (2(N-1))."""
    state = np.atleast_2d(np.asarray(state, dtype=float))
    dev = state - np.asarray(mean_ref, dtype=float)[None, :]
    return float((dev * dev).sum() / (2.0 * (state.shape[0] - 1)))


def dissipation(config, traj, t):
    """D(t) = sum_ij w_ij |x_j(t - tau) - x_i(t - tau)|^2 / (2(N-1))."""
    x_now, x_delayed = delayed_states(config, traj, t)
    w = weights_from_states(config, x_now, x_delayed).matrix()
    diff = x_delayed[None, :, :] - x_delayed[:, None, :]
    return float((w * (diff * diff).sum(axis=-1)).sum() / (2.0 * (config.n_agents - 1)))


def lyapunov(config, traj, t, lam=1.0):
    """Fluctuation around the mean at t = 0 plus lam times the double
    time-integral of dissipation.

    The double integral over {t - tau <= theta <= s <= t} collapses to
    int_{t-tau}^{t} (s - t + tau) D(s) ds, evaluated by composite trapezoid
    on the stored grid (fractional end segments included).
    """
    x_t = fluctuation(sample(traj, t), mean(sample(traj, 0.0)))
    g = traj.grid
    lo, hi = t - config.tau, t
    inner = np.where((g > lo + 1e-12) & (g < hi - 1e-12))[0]
    nodes = np.concatenate(([lo], g[inner], [hi]))
    vals = np.array([dissipation(config, traj, s) * (s - lo) for s in nodes])
    integral = float(np.sum((nodes[1:] - nodes[:-1]) * (vals[1:] + vals[:-1])) / 2.0)
    return x_t + lam * integral


def read_trajectory_csv(path):
    """(times, states) read back from a trajectory.csv."""
    times = []
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        assert header == "t,agent,component,value", header
        for line in fh:
            t_s, i_s, k_s, v_s = line.rstrip("\n").split(",")
            rows.append((float(t_s), int(i_s), int(k_s), float(v_s)))
            if not times or times[-1] != float(t_s):
                times.append(float(t_s))
    times = np.asarray(times)
    n_agents = max(r[1] for r in rows) + 1
    dim = max(r[2] for r in rows) + 1
    states = np.empty((times.size, n_agents, dim))
    t_index = {t: m for m, t in enumerate(times)}
    for t, i, k, v in rows:
        states[t_index[t], i, k] = v
    return times, states
