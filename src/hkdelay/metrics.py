"""Diagnostics along trajectories, empirical decay fitting and the
consensus threshold.

compute_metrics evaluates the state series on the trajectory grid at once:
the diameter d_x, and unless told not to, the radius r_x, mean drift and
quadratic fluctuation X.  It reads the squared diameters and the
dissipation D that the integrator wrote, forms no weights and no pair
array of the trajectory itself, and builds the Lyapunov functional L from
X and D.
Conventions: the diameter series is frozen at its startup maximum for
t <= 0; fluctuation and the Lyapunov functional subtract the mean at
t = 0 (it is conserved for symmetric reaction weights).

The empirical rates are fitted here alone, C_emp of a run by fit_c_emp and
the two-agent toy's rate by fitted_decay_rate; both pick their samples
through _fit_samples, each with its own window and floor, and pass them to
fit_decay_rate, which fits exactly those and gives None for no rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import IcassReport, block_length, blocks, check_icass, has_symmetric_weights, radius

SIGN_ATOL = 1e-10
CONSENSUS_REL_TOL = 1e-3
FIT_ROUNDING_ULPS = 64


@dataclass(frozen=True, eq=False)
class MetricSeries:
    """Per-grid-time diagnostic series; undefined entries are NaN, and a
    series that was not formed is None.  icass is the run's one startup
    check, whose d_x0 is d_x on the startup nodes and which the theorem
    preconditions read too."""

    times: np.ndarray
    d_x: np.ndarray
    r_x: np.ndarray | None
    mean_drift: np.ndarray | None
    X: np.ndarray | None
    D: np.ndarray | None
    L: np.ndarray | None
    icass: IcassReport

    def to_csv(self, path) -> None:
        """Write one row per grid time of a series with every column formed;
        NaN entries are left empty.  A block of rows at a time, in the
        blocks of block_length(7) rows that model.blocks cuts, becomes
        Python floats, is formatted by one %.17g row template, and has its
        "nan" cells, the only text "nan" in it, blanked."""
        table = np.column_stack([self.times, self.d_x, self.r_x, self.mean_drift, self.X, self.D, self.L])
        row = ",".join(["%.17g"] * table.shape[1]) + "\n"
        with open(path, "w", newline="") as fh:
            fh.write("t,d_x,r_x,mean_drift,X,D,L\n")
            for s in blocks(len(table), block_length(table.shape[1])):
                block = table[s]
                fh.write(((row * len(block)) % tuple(block.ravel().tolist())).replace("nan", ""))


def compute_metrics(trajectory, fluctuation=True) -> MetricSeries:
    """Evaluate the diagnostic series on the trajectory grid, in the blocks
    of nodes that model.blocks cuts, whose (nodes, N d) deviations and
    (nodes, q + 1) Lyapunov windows stay within model.BLOCK_ENTRIES
    entries.  The config, the datum and D are the trajectory's own, so no
    series is formed against a config other than the one integrated.

    The diameters come from the trajectory too: d_x is the root of the
    squared diameter that integrate wrote on every node.  check_icass runs
    here, once per run, and its report is the series' icass: on the
    startup nodes d_x is its d_x0, the largest diameter of the datum over
    [-tau, 0], read at its knots.  r_x is model.radius of each node, as
    check_icass's r_x0 is of the datum.  The Lyapunov series, with lam = 1,
    is computed for reaction systems with symmetric weights (where its
    decay is meaningful); it is NaN for other systems and before t = tau.

    d_x is always formed.  With fluctuation false, r_x, the mean drift, X
    and L are not, and are None; L is None too for a trajectory without D.
    """
    config = trajectory.config
    g = trajectory.grid
    S = trajectory.states
    D = trajectory.D
    n, n_agents, dim = S.shape
    i0 = q = trajectory.origin  # startup nodes 0..i0, with g[i0] == 0

    d_x = np.sqrt(trajectory.sq_diameter)
    icass = check_icass(trajectory.datum, config)
    d_x[: i0 + 1] = icass.d_x0
    if not fluctuation:
        return MetricSeries(g, d_x, None, None, None, D, None, icass)

    r_x, X, xbar = np.empty(n), np.empty(n), np.empty((n, dim))
    ref = S[i0, 0]  # deviations relative to one agent, so a far datum keeps its digits
    xbar0 = (S[i0 : i0 + 1] - ref).mean(axis=1)  # the mean at t = 0, as a block computes it
    # node-major rows of N d entries, with ref and xbar0 tiled to a row; the
    # agent means and the drift keep that layout, because numpy's summation
    # order depends on it (pairwise along a contiguous axis of 8 or more)
    rows = S.reshape(n, n_agents * dim)
    ref_row, xbar0_row = np.tile(ref, n_agents), np.tile(xbar0, n_agents)
    for s in blocks(n, block_length(n_agents * dim)):
        r_x[s] = radius(S[s])
        dev = rows[s] - ref_row
        xbar[s] = dev.reshape(-1, n_agents, dim).mean(axis=1)
        dev -= xbar0_row
        X[s] = np.einsum("tj,tj->t", dev, dev) / (2.0 * (n_agents - 1))
    drift = np.sqrt(((xbar - xbar0) ** 2).sum(axis=1))

    L = None if D is None else np.full(n, np.nan)
    if L is not None and has_symmetric_weights(config):
        dt = float(g[1] - g[0])
        # trapezoid of (s - t + tau) D(s) over the q segments ending at m
        wgt = np.arange(q + 1) * dt
        coef = np.ones(q + 1)
        coef[0] = coef[-1] = 0.5
        cw = coef * wgt
        windows = sliding_window_view(D, q + 1)  # windows[m - q] = D[m - q : m + 1]
        for s in blocks(n, block_length(q + 1), 2 * q):
            L[s] = X[s] + dt * (windows[s.start - q : s.stop - q] * cw).sum(axis=-1)
    return MetricSeries(g, d_x, r_x, drift, X, D, L, icass)


def fit_decay_rate(times, values):
    """Least-squares slope of -log(values) against times over exactly the
    samples given, or None when there are fewer than two or one of the
    values is not positive and finite."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if v.size < 2 or not (np.all(v > 0.0) and np.all(np.isfinite(v))):
        return None
    y = -np.log(v)
    t_c = t - t.mean()
    denom = float((t_c * t_c).sum())
    if denom == 0.0:
        return 0.0
    return float((t_c * (y - y.mean())).sum() / denom)


def _rounding_floor(r_x0: float) -> float:
    """The rounding of states of size r_x0, FIT_ROUNDING_ULPS * eps * r_x0:
    a datum far from the origin stops contracting at a few ulps of its own
    size, so no diameter below this floor is resolved."""
    return FIT_ROUNDING_ULPS * np.finfo(float).eps * r_x0


def _fit_samples(times, values, lo: float, hi: float, floor: float):
    """Indices of the samples at times in [lo, hi] whose values lie above
    floor, or None when there are fewer than 8."""
    idx = np.flatnonzero((times >= lo) & (times <= hi) & (values > floor))
    return idx if idx.size >= 8 else None


def fit_c_emp(series: MetricSeries):
    """C_emp, the decay rate of d_x, or None if it cannot be fitted.

    The samples are mid-run, in [0.1 T, 0.9 T], where d_x is resolvable:
    above 1e-12 d_x0, above the rounding floor of the states, both read
    from the series' startup report, and above 1e-280.  The fit runs over
    every node from the first of them to the last."""
    t, d_x = series.times, series.d_x
    horizon = float(t[-1])
    floor = max(series.icass.d_x0 * 1e-12, _rounding_floor(series.icass.r_x0), 1e-280)
    idx = _fit_samples(t, d_x, 0.1 * horizon, 0.9 * horizon, floor)
    if idx is None:
        return None
    span = slice(idx[0], idx[-1] + 1)
    return fit_decay_rate(t[span], d_x[span])


def fitted_decay_rate(times, w, t_lo: float | None = None):
    """Empirical decay rate of |w|; positive means decay, None if unfittable.

    The samples are those from t_lo (default: 0.2 of the last time) on with
    |w| above 1e-13.  Oscillatory signals, with at least 4 peaks among
    them, are fitted on the log of their peak amplitudes, monotone ones on
    log |w| at every sample.
    """
    a = np.abs(w)
    if t_lo is None:
        t_lo = 0.2 * float(times[-1])
    idx = _fit_samples(times, a, t_lo, np.inf, 1e-13)
    if idx is None:
        return None
    interior = idx[(idx > 0) & (idx < times.size - 1)]
    peaks = interior[(a[interior] > a[interior - 1]) & (a[interior] >= a[interior + 1])]
    fit = peaks if peaks.size >= 4 else idx
    return fit_decay_rate(times[fit], a[fit])


def count_sign_changes(series) -> int:
    """Strict sign alternations, ignoring entries with |value| < SIGN_ATOL."""
    v = np.asarray(series, dtype=float)
    v = v[np.abs(v) >= SIGN_ATOL]
    if v.size < 2:
        return 0
    s = np.sign(v)
    return int(np.sum(s[1:] * s[:-1] < 0))


def consensus_tol(series: MetricSeries) -> float:
    """The consensus threshold on d_x: CONSENSUS_REL_TOL times d_x0, and no
    less than the rounding floor of the states."""
    return max(CONSENSUS_REL_TOL * max(series.icass.d_x0, 1e-300), _rounding_floor(series.icass.r_x0))


def consensus_time(series: MetricSeries, tol: float):
    """First time from which d_x stays below tol through the horizon end.

    Returns None when the threshold is never sustained.  Times before 0 are
    clamped to 0 (the startup interval is prescribed, not evolved).
    """
    above = np.where(series.d_x >= tol)[0]
    if above.size == 0:
        return 0.0
    last_bad = int(above[-1])
    if last_bad == series.times.size - 1:
        return None
    return max(float(series.times[last_bad + 1]), 0.0)
