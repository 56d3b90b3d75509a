"""Velocity field and method-of-steps integration for the delayed systems.

The main integrator advances classical RK4 on segments aligned with the
delay (dt divides tau), so every delayed lookup lands on already-computed
history.  Transmission-type velocities read the current state and step one
node at a time.  Reaction-type velocities read only states one delay old,
so a whole delay segment depends only on the segment before it: its
half-step and its full-step delayed states are evaluated in stacked calls,
the full-step ones as node calls that write the segment's derivatives in
place, and its nodes are summed in place, in order, from the increments,
bit for bit as a step-by-step loop would give.  A half step reads the
prescribed datum on the startup interval and the closed-form cubic Hermite
midpoint of a computed segment after it.  The arrays of a group of B
members are node-major, (n, B, ...), in the order the stepper walks them,
so a lone run's are contiguous.  A trajectory stores states, derivatives,
the squared diameter of every node and, when asked for, the dissipation D
(from each node call's weights) on the grid nodes only.  This module is
the one writer of the squared diameters: a node call writes them for the
delayed states it reads, from their pair array, and integrate fills the
last q nodes of every member, which include every node that no node call
read, in one call of model.squared_diameter, the one reduction of stacked
states to diameters.  A run that blows up ends before its first blown-up
node and records that node's time.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .model import (
    DelayKind,
    InitialDatum,
    SystemConfig,
    block_length,
    blocks,
    pair_max,
    pair_sq,
    squared_diameter,
    weights_from_states,
)

METHOD = "rk4_steps"  # the integrator, as a spec names it
BLOW_UP_THRESHOLD = 1e12
STEPS_PER_DELAY = 64  # default resolution: dt = tau / STEPS_PER_DELAY, for tau <= 16
MAX_DEFAULT_DT = 0.25  # RK4 on a self-term of rate 1 is unstable above dt ~ 2.785


@dataclass(frozen=True)
class IntegratorSpec:
    """RK4 method-of-steps step size; dt must divide tau exactly."""

    dt: float

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise InvalidConfig(f"integrator.dt: must be positive, got {self.dt}")

    def steps_per_delay(self, tau: float) -> int:
        ratio = tau / self.dt  # inf for a dt far below tau
        q = round(ratio) if math.isfinite(ratio) else 0
        if q < 1 or abs(q * self.dt - tau) > 1e-12 * tau:
            raise InvalidConfig(
                f"integrator.dt: dt={self.dt:g} must divide tau={tau:g} into an integer step count"
            )
        return int(q)

    def to_dict(self) -> dict:
        return {"method": METHOD, "dt": self.dt}


def default_spec(config: SystemConfig) -> IntegratorSpec:
    """dt = tau / q with the smallest q >= STEPS_PER_DELAY that keeps dt at
    or below MAX_DEFAULT_DT.  A tau that this step cannot serve is refused
    here, naming the default: one whose startup segment of q + 1 nodes
    cannot be addressed, and a subnormal one that tau / q, rounded to the
    subnormal grid, does not divide into q steps."""
    tau = config.tau
    q = max(STEPS_PER_DELAY, tau / MAX_DEFAULT_DT)  # a float: tau / 0.25 may be inf
    node_bytes = 8 * config.n_agents * config.dim
    if (q + 1) * node_bytes > sys.maxsize:
        problem = (f"the default step keeps dt <= {MAX_DEFAULT_DT:g}, so tau={tau:g} needs {q + 1:.4g} "
                   f"startup nodes of {node_bytes} bytes, which cannot be addressed")
    else:
        q = math.ceil(q)
        try:
            spec = IntegratorSpec(tau / q)
            spec.steps_per_delay(tau)
            return spec
        except InvalidConfig:
            problem = f"the default step tau/{q} = {tau / q:g} does not divide tau={tau:g} into {q} steps"
    raise InvalidConfig(
        f"integrator.dt: {problem}; set --dt in a tau sweep, which drops integrator.dt, "
        "and elsewhere set integrator.dt or --dt"
    )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Solution history on [-tau, T]: states, derivatives, D (NaN before
    t = 0, or None for a run integrated without it) and the squared
    diameter of every node on a uniform grid with grid[0] = -tau, and the
    startup datum.  The node call at node m, which writes D[m], reads node
    m - q as its delayed state and writes sq_diameter[m - q]; integrate
    writes the last q nodes, which include every node that no node call
    read, by model.squared_diameter, with the same bits.  A run that blew
    up ends before its first blown-up node, whose time is blow_up_time
    (None for a run that reached the horizon)."""

    grid: np.ndarray  # (n,)
    states: np.ndarray  # (n, N, d)
    derivs: np.ndarray  # (n, N, d)
    D: np.ndarray | None  # (n,)
    sq_diameter: np.ndarray  # (n,)
    config: SystemConfig
    datum: InitialDatum
    blow_up_time: float | None = None

    @property
    def origin(self) -> int:
        """Index of the node at t = 0, which the grid (-q..n) * dt holds exactly."""
        return int(np.searchsorted(self.grid, 0.0))


def velocity_from_states(
    config: SystemConfig, x_now: np.ndarray | None, x_delayed: np.ndarray, D=None, sq_diameter=None
) -> np.ndarray:
    """Velocity field from explicit (..., N, d) states; leading axes stack runs.

    Transmission: dx_i/dt = sum_j psi_ij (x_delayed_j - x_now_i).
    Reaction:     dx_i/dt = sum_j psi_ij (x_delayed_j - x_delayed_i).

    With psi_ij = u_ij / n_i, n the row denominator model.Weights.n, the
    velocity is normalized after the product, relative to agent 0 of x_delayed:
        v_i = (sum_j u_ij (x_j - x_0) - s_i (anchor_i - x_0)) / n_i,
    anchor = x_now for transmission and x_delayed for reaction, so the
    velocity at exact consensus is exactly 0 and a datum far from the
    origin keeps its digits.  Each input is laid out once, as the
    contiguous transposed (d, N, ...) array that matches u's stack-last
    layout; the weights and the pair array take its .T view, which pair_sq
    lays out with no copy.  The product is one einsum that sums over j in
    index order with no copy of u and no BLAS call, so a state gets the
    same bits alone as in any stack.  The result is a transposed view of
    that layout.

    sq_diameter, given, receives the squared diameter of every stacked
    x_delayed: model.pair_max of its own pair array, which reaction reads
    from the weights' pair array.  D, given with it or left None, receives
    the dissipation of the same states from that pair array and these weights,
    sum_i (sum_j u_ij |x_delayed_j - x_delayed_i|^2) / n_i / (2(N-1)): the
    sum over j runs in index order, and the sum over i is numpy's sum of
    the N terms of one state, a contiguous vector.
    """
    xt = np.ascontiguousarray(np.asarray(x_delayed, dtype=float).T)  # (d, N, ...)
    anchor = xt if config.delay_kind is DelayKind.REACTION else np.ascontiguousarray(np.asarray(x_now, dtype=float).T)
    x_delayed = xt.T
    w = weights_from_states(config, anchor.T, x_delayed)
    if sq_diameter is not None:
        sq = pair_sq(x_delayed, x_delayed) if w.sq is None else w.sq
        sq_diameter[...] = pair_max(sq)
        if D is not None:
            sq *= w.u
            r = sq.sum(axis=0)
            r /= w.n
            D[...] = np.ascontiguousarray(r.T).sum(axis=-1) / (2.0 * (config.n_agents - 1))
    y = xt - xt[:, :1]
    v = np.einsum("ji...,kj...->ki...", w.u, y)
    v -= w.s * (y if anchor is xt else anchor - xt[:, :1])
    v /= w.n
    return v.T


def _grid_shape(config: SystemConfig, horizon: float, spec: IntegratorSpec) -> tuple[int, int]:
    """(q, n_fwd): steps per delay and forward steps to the horizon.  A grid
    whose states cannot be addressed is refused, naming integrator.dt when
    the startup segment alone is too long."""
    if not (horizon / spec.dt > 1e-9 and math.isfinite(horizon)):  # n_fwd >= 1 below
        raise InvalidConfig(f"horizon: must be finite and give at least one step of {spec.dt:g}, got {horizon}")
    q = spec.steps_per_delay(config.tau)
    node_bytes = 8 * config.n_agents * config.dim
    nodes = q + horizon / spec.dt + 1
    if nodes * node_bytes > sys.maxsize:
        field = "integrator.dt" if (q + 1) * node_bytes > sys.maxsize else "horizon"
        raise InvalidConfig(f"{field}: {nodes:.4g} grid nodes of {node_bytes} bytes cannot be addressed")
    return q, int(math.ceil(horizon / spec.dt - 1e-9))


def _allocate(config: SystemConfig, q: int, n_fwd: int, dts):
    """(grid, states, derivs) of members stepped by dts: the (B, n) grids
    from -tau to the horizon and uninitialised node-major (n, B, N, d) node
    arrays, in the order the stepper walks them."""
    try:
        grid = np.arange(-q, n_fwd + 1) * np.reshape(dts, (-1, 1))
        states = np.empty(grid.shape[::-1] + (config.n_agents, config.dim))
        return grid, states, np.empty_like(states)
    except (MemoryError, ValueError) as exc:  # ValueError: too big for numpy
        raise InvalidConfig(f"horizon: {q + n_fwd + 1} grid nodes cannot be allocated") from exc


def _fill_startup(grid, q, datum, states, derivs, tau):
    """Write states and slopes on the startup nodes 0..q; return the datum
    at the q startup midpoints, which the RK4 half steps read exactly.

    The datum is read on [-tau, 0], the interval that require_fits checks:
    grid[0] = -q dt may lie up to 1e-12 tau before -tau, and reads -tau."""
    t = np.maximum(grid[: q + 1], -tau)
    states[: q + 1] = datum.at(t)
    derivs[: q + 1] = datum.slope_at(t)
    return datum.at(0.5 * (grid[:q] + grid[1 : q + 1]))


def _blow_up_bounds(x0):
    """Center and limit of the blow-up test, from (..., N, d) states at t = 0.

    A state x blows up where |x - xbar(0)| exceeds
    BLOW_UP_THRESHOLD * max(1, d_x(0)) or is not finite, with xbar(0) the
    agent mean and d_x(0) the root of model.squared_diameter at t = 0.  The
    dynamics are translation-invariant, so a datum placed far from the
    origin does not blow up by its position alone.
    """
    center = x0.mean(axis=-2, keepdims=True)
    return center, BLOW_UP_THRESHOLD * np.maximum(1.0, np.sqrt(squared_diameter(x0)))[..., None, None]


def _delayed_nodes(states, derivs, mids, j0, j1, eighth):
    """(half, full): the delayed states of the half and of the full steps
    from node j0 + q to node j1 + q, each stacked on the first axis, where
    q = len(mids) is the number of steps per delay.

    dt divides the delay, so a full step's delayed state is the stored node
    j + 1, and a half step's the startup midpoint j (for j < q) or the
    closed-form cubic Hermite midpoint of the computed segment [j, j + 1].
    The steps lie on one side of j = q: j1 <= q or j0 >= q.
    """
    full = states[j0 + 1 : j1 + 1]
    if j1 <= len(mids):
        return mids[j0:j1], full
    return 0.5 * (states[j0:j1] + full) + eighth * (derivs[j0:j1] - derivs[j0 + 1 : j1 + 1]), full


def _blown(nodes, center, limit, lowest):
    """(c, B) blow-up flags of a (c, B, ...) stack of nodes of B members, or
    None if none blew up.

    A state blows up where |state - center| exceeds limit (both broadcast
    against a state; lowest is the smallest limit) or is not finite.
    """
    dev = np.abs(nodes - center)
    if dev.max() <= lowest:  # NaN fails the comparison
        return None
    bad = ~(dev <= limit)
    bad = bad.reshape(bad.shape[:2] + (-1,)).any(axis=-1)
    return bad if bad.any() else None


def rk4_method_of_steps(
    vel, states, derivs, mids, dt, reads_now=True, center=0.0, limit=BLOW_UP_THRESHOLD, per_call=None
):
    """Advance classical RK4 by the method of steps, in place, from node q (t = 0).

    states and derivs hold the history on nodes 0..q and mids at the q
    startup midpoints, so q = len(mids) is the number of steps per delay.
    Both are node-major, (n, B, ...): a state stacks B members on its first
    axis, and dt is a (B, 1, ..., 1) array that steps member b by dt[b];
    every operation acts per member, so one member's values never reach
    another's.  A state blows up where |state - center| exceeds limit or is
    not finite (both broadcast against a state).

    vel(x_now, x_delayed, rows) is the velocity, and it takes states
    stacked on extra leading axes.  rows is None for an RK4 stage; for the
    call that gives derivs[m], the node call, it is the node index m, or
    the slice of node rows whose delayed states the call stacks, one row
    per state.  Node m's delayed state x(t_m - tau) is node m - q, so a
    velocity that writes a diagnostic of it, as integrate's writes the
    squared diameter and D, writes row m.

    reads_now=True steps one node at a time with four vel calls, and takes
    the delayed states and the blow-up test once per delay segment.
    reads_now=False declares that vel ignores x_now, as reaction-type delay
    does.  Then k3 = k2, k4 is the new node's derivative, and a step reads
    only history at least one delay old, so the stepper advances the rest of
    a delay segment, up to q steps, at once: it stacks the steps' half-step
    delayed states, and apart from them their full-step ones, and evaluates
    each stack in the calls of at most per_call states (default: q) that
    model.blocks cuts: the half-step chunks as stages, into one buffer, and
    the full-step chunks as the node calls of their nodes, straight into
    derivs, which then holds every k1 and k4; the increments go into states
    in place.  Either way the nodes are summed in order from the
    increments, so they equal the per-step loop's bit for bit.

    Returns one count per member: the number of nodes filled before its
    first blown-up one, whose state is left in states.  The loop ends with
    the delay segment in which the last member blows up.
    """
    n, q = len(states), len(mids)
    n_valid = np.full(len(dt), n)
    lowest = np.min(limit)
    half, sixth, eighth = 0.5 * dt, dt / 6.0, 0.125 * dt
    per_call = per_call or q

    with np.errstate(all="ignore"):
        derivs[q] = vel(states[q], states[0], q)
        for segment in blocks(n - 1, q, q):
            a, b = segment.start, segment.stop  # steps a..b-1 fill nodes a+1..b
            xd_half, xd_full = _delayed_nodes(states, derivs, mids, a - q, b - q, eighth)
            nodes = states[a + 1 : b + 1]
            if reads_now:  # one step at a time, on unstacked states; k1 = derivs[m]
                for m, xh, xf in zip(range(a, b), xd_half, xd_full):
                    k2 = vel(states[m] + half * derivs[m], xh, None)
                    k3 = vel(states[m] + half * k2, xh, None)
                    k4 = vel(states[m] + dt * k3, xf, None)
                    states[m + 1] = states[m] + sixth * (derivs[m] + 2.0 * k2 + 2.0 * k3 + k4)
                    derivs[m + 1] = vel(states[m + 1], xf, m + 1)
            else:
                k2 = k3 = np.empty(nodes.shape)
                for s in blocks(b - a, per_call):  # the stages
                    k2[s] = vel(None, xd_half[s], None)
                for s in blocks(b + 1, per_call, a + 1):  # the node calls; node m reads node m - q
                    derivs[s] = vel(None, states[s.start - q : s.stop - q], s)
                k1, k4 = derivs[a:b], derivs[a + 1 : b + 1]
                np.multiply(sixth, k1 + 2.0 * k2 + 2.0 * k3 + k4, out=nodes)
                # node m + 1 = node m + increment m, summed in order
                nodes[0] += states[a]
                np.cumsum(nodes, axis=0, out=nodes)
            bad = _blown(nodes, center, limit, lowest)
            if bad is not None:
                hit = bad.any(axis=0) & (n_valid == n)
                n_valid[hit] = a + 1 + bad.argmax(axis=0)[hit]
                if (n_valid < n).all():
                    return n_valid
    return n_valid


@dataclass(frozen=True, eq=False)
class GroupRun:
    """Members integrated together: member b ran on grid[b], and
    trajectories[b] is its Trajectory, cut where it blew up."""

    grid: np.ndarray  # (B, n)
    trajectories: tuple


def group_key(config: SystemConfig, horizon: float, spec: IntegratorSpec):
    """Runs with equal keys can integrate as one group: they differ only in
    tau and share q = tau/dt and the forward step count."""
    rest = json.dumps({**config.to_dict(), "tau": None}, sort_keys=True)
    return (rest, *_grid_shape(config, horizon, spec))


def integrate(config, datum, horizon, spec=None, dissipation=True):
    """Integrate the delayed system over [0, horizon] by RK4 method of steps.

    Returns the Trajectory.  A run that blows up, the expected outcome in
    the unstable reaction regime, returns its nodes before the blown-up one
    and that node's time as blow_up_time.  The trajectory holds the squared
    diameter of every node: the node calls write those of the delayed
    states they read, and each member's last q nodes, which include every
    node that none read, are reduced afterwards in one call of
    model.squared_diameter across the members, which cuts its own blocks.
    The node calls write the dissipation D only if dissipation is true,
    and the trajectory's D is None otherwise.

    A group integrates in one stepper call: config, datum, horizon and spec
    are then equal-length sequences, one entry per member (spec may be
    None), whose group_key is the same.  It returns a GroupRun.
    """
    if isinstance(config, SystemConfig):
        if spec is None:
            spec = default_spec(config)
        return _integrate_group([config], [datum], [horizon], [spec], dissipation).trajectories[0]
    if spec is None:
        spec = [None] * len(config)
    specs = [default_spec(c) if s is None else s for c, s in zip(config, spec)]
    return _integrate_group(config, datum, horizon, specs, dissipation)


def _integrate_group(configs, datums, horizons, specs, dissipation) -> GroupRun:
    """Integrate members that share one group_key in one stepper call.
    Every group array is node-major, as the stepper walks it: states and
    derivs (n, B, N, d), D (n, B) and the squared diameters (n + q, B).  A
    member's trajectory is its column [:m, b], contiguous for a lone run."""
    keys = {group_key(c, h, s) for c, h, s in zip(configs, horizons, specs)}
    if len(keys) != 1:
        raise InvalidConfig("group members must differ only in tau and share q and the step count")
    ((_, q, n_fwd),) = keys
    for c, d in zip(configs, datums):
        d.require_fits(c)
    config = configs[0]
    dt = np.array([s.dt for s in specs]).reshape(-1, 1, 1)
    grid, states, derivs = _allocate(config, q, n_fwd, dt)
    B, n = grid.shape
    mids = np.empty((q, B, config.n_agents, config.dim))
    for b in range(B):
        mids[:, b] = _fill_startup(grid[b], q, datums[b], states[:, b], derivs[:, b], configs[b].tau)

    D = np.full((n, B), np.nan) if dissipation else None
    # the stepper's row m of squared diameters is node m - q, so node k is row q + k
    sq_diameter = np.empty((n + q, B))

    def vel(x_now, x_delayed, rows):  # a node call writes its rows of the squared diameters and D
        if rows is None:
            return velocity_from_states(config, x_now, x_delayed)
        return velocity_from_states(config, x_now, x_delayed, None if D is None else D[rows], sq_diameter[rows])

    # reaction velocities read only delayed states; a reaction segment is
    # evaluated in stacks whose (states, B, N, N) pair arrays stay within
    # BLOCK_ENTRIES entries
    transmission = config.delay_kind is DelayKind.TRANSMISSION
    N = config.n_agents
    try:  # the grid fits, so what cannot be allocated is an (N, N, ...) pair array
        center, limit = _blow_up_bounds(states[q])
        n_valid = rk4_method_of_steps(
            vel, states, derivs, mids, dt, transmission, center, limit, block_length(B * N**2)
        )
        # each member's last q nodes: every node that no node call read, and
        # for a member that blew up, a few that one did, with the same bits
        nodes, members = n_valid + np.arange(-q, 0)[:, None], np.arange(B)
        sq_diameter[q + nodes, members] = squared_diameter(states[nodes, members])
    except MemoryError as exc:
        raise InvalidConfig(
            f"config.n_agents: {N} agents need ({N}, {N}) pair arrays, which cannot be allocated"
        ) from exc
    trajectories = tuple(
        Trajectory(
            grid[b, :m], states[:m, b], derivs[:m, b], None if D is None else D[:m, b],
            sq_diameter[q : q + m, b], configs[b], datums[b], float(grid[b, m]) if m < n else None,
        )
        for b, m in enumerate(n_valid.tolist())
    )
    return GroupRun(grid, trajectories)


# ---------------------------------------------------------------------------
# Export

def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write `t,agent,component,value` rows; times round-trip bit-exactly.
    Values become Python floats a block of nodes at a time, in the blocks
    of block_length(N d) nodes that model.blocks cuts."""
    n_nodes, n_agents, dim = traj.states.shape
    # one template per node: "{t}" takes the time, each %.17g one value
    node = "".join([f"{{t}},{i},{k},%.17g\n" for i in range(n_agents) for k in range(dim)])
    with open(path, "w", newline="") as fh:
        fh.write("t,agent,component,value\n")
        for s in blocks(n_nodes, block_length(n_agents * dim)):
            rows = traj.states[s].reshape(-1, n_agents * dim).tolist()
            for t, row in zip(traj.grid[s].tolist(), rows):
                fh.write(node.replace("{t}", format(t, ".17g")) % tuple(row))
