import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkdelay import model
from hkdelay.model import (
    DelayKind,
    InfluenceFunction,
    InitialDatum,
    WeightScheme,
    check_icass,
    squared_diameter,
    radius,
    has_symmetric_weights,
    pair_sq,
    weights_from_states,
)
from hkdelay.dynamics import IntegratorSpec, Trajectory, integrate
from hkdelay.metrics import (
    MetricSeries,
    compute_metrics,
    consensus_time,
    count_sign_changes,
    fit_decay_rate,
    fitted_decay_rate,
)

from conftest import make_config, random_datum
from reference import (
    blocked_dissipation, blocked_sq_diameter, dissipation, fluctuation, lyapunov, mean, sample,
    spelled_out_dissipation,
)


# ---------------------------------------------------------------------------
# pointwise state functionals

def test_diameter_trivial_cases():
    assert np.sqrt(squared_diameter(np.zeros((4, 3)))) == 0.0
    assert np.sqrt(squared_diameter(np.array([[0.0], [3.0]]))) == 3.0


def test_diameter_against_brute_force(rng):
    pts = rng.normal(size=(50, 3))
    best = 0.0
    for i in range(50):
        for j in range(50):
            best = max(best, math.dist(pts[i], pts[j]))
    assert np.sqrt(squared_diameter(pts)) == pytest.approx(best, rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.floats(min_value=0.1, max_value=100.0),
)
def test_diameter_invariances(seed, scale):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(6, 2))
    d = np.sqrt(squared_diameter(pts))
    assert np.sqrt(squared_diameter(pts[rng.permutation(6)])) == d
    shift = rng.normal(size=2)
    assert np.sqrt(squared_diameter(pts + shift)) == pytest.approx(d, rel=1e-12)
    assert np.sqrt(squared_diameter(scale * pts)) == pytest.approx(scale * d, rel=1e-12)


def test_radius_and_mean():
    assert radius(np.zeros((3, 2))) == 0.0
    assert np.allclose(mean(np.zeros((3, 2))), 0.0)
    pts = np.array([[-1.0], [1.0]])
    assert radius(pts) == 1.0
    assert mean(pts)[0] == 0.0


def test_radius_mean_random_fold(rng):
    pts = rng.normal(size=(20, 3))
    r = max(math.sqrt(sum(c * c for c in p)) for p in pts)
    m = [sum(p[k] for p in pts) / 20 for k in range(3)]
    assert radius(pts) == pytest.approx(r, rel=1e-14)
    assert np.allclose(mean(pts), m, atol=1e-14)


def test_fluctuation_cases(rng):
    assert fluctuation(np.full((5, 2), 1.3), np.array([1.3, 1.3])) == 0.0
    assert fluctuation(np.array([[-1.0], [1.0]]), np.zeros(1)) == pytest.approx(1.0)
    pts = rng.normal(size=(7, 2))
    ref = rng.normal(size=2)
    acc = sum(float(((p - ref) ** 2).sum()) for p in pts) / (2 * 6)
    assert fluctuation(pts, ref) == pytest.approx(acc, rel=1e-14)


# ---------------------------------------------------------------------------
# the reference dissipation and Lyapunov functional, which the series are
# checked against

def test_dissipation_consensus_zero():
    config = make_config(n_agents=3, dim=2, delay_kind=DelayKind.REACTION,
                         weight_scheme=WeightScheme.CLASSICAL_SCALED)
    datum = InitialDatum.constant(np.full((3, 2), 2.0))
    traj = integrate(config, datum, 2 * config.tau)
    assert dissipation(config, traj, config.tau) == 0.0


def test_dissipation_two_agent_hand_value():
    # classical psi = 1, N = 2: both weights are 1; delayed gap 2 gives D = 4
    config = make_config(
        n_agents=2, dim=1, tau=0.5,
        delay_kind=DelayKind.REACTION,
        weight_scheme=WeightScheme.CLASSICAL_SCALED,
        influence=InfluenceFunction.constant(1.0),
    )
    datum = InitialDatum.constant([[1.0], [-1.0]])
    traj = integrate(config, datum, config.tau)
    assert dissipation(config, traj, 0.0) == pytest.approx(4.0, abs=1e-14)


def test_dissipation_random_instance_double_loop(rng):
    config = make_config(n_agents=5, dim=2, tau=0.5, delay_kind=DelayKind.REACTION,
                         weight_scheme=WeightScheme.CLASSICAL_SCALED)
    datum = random_datum(rng, 5, 2)
    traj = integrate(config, datum, 2 * config.tau)
    t = 1.5 * config.tau
    got = dissipation(config, traj, t)
    x_del = sample(traj, t - config.tau)

    def psi(s):
        return 1.0 / (1.0 + s * s)

    acc = 0.0
    for i in range(5):
        for j in range(5):
            if j != i:
                gap2 = float(((x_del[j] - x_del[i]) ** 2).sum())
                acc += psi(math.sqrt(gap2)) / 4.0 * gap2
    assert got == pytest.approx(acc / (2 * 4), rel=1e-12)


def _frozen_trajectory(config, state, horizon):
    # constant-in-time sample path (not a solution; metrics evaluate anyway)
    q = 8
    dt = config.tau / q
    n = int(round(horizon / dt)) + q + 1
    grid = (np.arange(n) - q) * dt
    states = np.repeat(state[None], n, axis=0)
    derivs = np.zeros_like(states)
    datum = InitialDatum.constant(state)
    return Trajectory(
        grid, states, derivs, blocked_dissipation(config, states, q), blocked_sq_diameter(states), config, datum
    )


def test_lyapunov_constant_dissipation_analytic():
    # frozen non-consensus state: D(t) = c, so L = X + lam * c * tau^2 / 2
    config = make_config(
        n_agents=2, dim=1, tau=0.5,
        delay_kind=DelayKind.REACTION,
        weight_scheme=WeightScheme.CLASSICAL_SCALED,
        influence=InfluenceFunction.constant(1.0),
    )
    state = np.array([[1.0], [-1.0]])
    traj = _frozen_trajectory(config, state, 4 * config.tau)
    c = dissipation(config, traj, config.tau)
    assert c == pytest.approx(4.0)
    x_val = fluctuation(state, mean(state))
    for lam in (1.0, 0.3):
        got = lyapunov(config, traj, 2 * config.tau, lam=lam)
        assert got == pytest.approx(x_val + lam * c * config.tau**2 / 2.0, rel=1e-12)


def test_lyapunov_zero_at_consensus():
    config = make_config(n_agents=3, dim=1, delay_kind=DelayKind.REACTION,
                         weight_scheme=WeightScheme.CLASSICAL_SCALED)
    datum = InitialDatum.constant(np.full((3, 1), 0.5))
    traj = integrate(config, datum, 3 * config.tau)
    assert lyapunov(config, traj, 2 * config.tau) == 0.0


def test_lyapunov_quadrature_refines(rng):
    config = make_config(n_agents=4, dim=1, tau=0.4, delay_kind=DelayKind.REACTION,
                         weight_scheme=WeightScheme.CLASSICAL_SCALED)
    datum = random_datum(rng, 4, 1)
    coarse = integrate(config, datum, 3 * config.tau, IntegratorSpec(config.tau / 32))
    fine = integrate(config, datum, 3 * config.tau, IntegratorSpec(config.tau / 64))
    t = 2.5 * config.tau
    l1 = lyapunov(config, coarse, t)
    l2 = lyapunov(config, fine, t)
    assert abs(l1 - l2) <= 0.01 * max(abs(l2), 1e-12)


# ---------------------------------------------------------------------------
# series construction

def test_metric_series_shapes_and_startup_convention(rng):
    config = make_config(n_agents=4, dim=2, tau=0.5, delay_kind=DelayKind.REACTION,
                         weight_scheme=WeightScheme.CLASSICAL_SCALED)
    datum = random_datum(rng, 4, 2)
    traj = integrate(config, datum, 6 * config.tau)
    ms = compute_metrics(traj)
    startup = ms.times <= 0.0
    assert np.all(ms.d_x[startup] == ms.icass.d_x0)
    assert np.all(ms.d_x <= 2.0 * ms.r_x + 1e-12)
    assert np.all(ms.d_x >= 0.0) and np.all(ms.X >= 0.0)
    assert np.all(np.isnan(ms.D[ms.times < -1e-12]))
    assert np.all(~np.isnan(ms.D[ms.times >= 0.0]))
    assert np.all(np.isnan(ms.L[ms.times < config.tau - 1e-12]))
    assert np.all(~np.isnan(ms.L[ms.times >= config.tau]))
    assert ms.mean_drift[np.searchsorted(ms.times, 0.0)] == 0.0


TABLE = InfluenceFunction.table([[0.0, 1.0], [0.5, 0.7], [2.0, 0.2]])
SERIES_CASES = [
    pytest.param(kind, WeightScheme.NORMALIZED, InfluenceFunction.algebraic_decay(1.0), False,
                 id=kind.value)
    for kind in DelayKind
] + [
    pytest.param(kind, scheme, influence, False, id=f"{kind.value}-{scheme.value}-{name}")
    for kind in DelayKind
    for scheme in WeightScheme
    for name, influence in (
        ("constant", InfluenceFunction.constant(0.6)),
        ("algebraic_2.5", InfluenceFunction.algebraic_decay(2.5)),
        ("table", TABLE),
    )
] + [
    pytest.param(DelayKind.TRANSMISSION, WeightScheme.CLASSICAL_SCALED, TABLE, True,
                 id="transmission-classical_scaled-table-sampled"),
]


@pytest.mark.parametrize("kind, scheme, influence, sampled", SERIES_CASES)
def test_series_match_pointwise_diameter_and_dissipation(rng, kind, scheme, influence, sampled):
    config = make_config(n_agents=4, dim=2, tau=0.5, delay_kind=kind, weight_scheme=scheme,
                         influence=influence)
    if sampled:
        # knots on grid nodes, so the startup maximum over the nodes is the
        # maximum over the knots that compute_metrics reads
        datum = InitialDatum.sampled([-0.5, -0.25, 0.0], rng.uniform(-1.0, 1.0, (3, 4, 2)))
    else:
        datum = random_datum(rng, 4, 2)
    traj = integrate(config, datum, 4 * config.tau)
    ms = compute_metrics(traj)
    i0 = int(np.searchsorted(traj.grid, 0.0))
    startup_max = max(np.sqrt(squared_diameter(s)) for s in traj.states[: i0 + 1])
    d_scale = float(np.nanmax(ms.D))
    for m, t in enumerate(traj.grid):
        assert ms.d_x[m] == (startup_max if m <= i0 else np.sqrt(squared_diameter(traj.states[m])))
        if m >= i0:
            expect = dissipation(config, traj, float(t))
            assert ms.D[m] == pytest.approx(expect, rel=1e-12, abs=1e-14 * d_scale)


def test_tiny_delay_series_start_at_the_t0_node():
    # dt = tau/64 is below 1e-12, where a search for t > -1e-12 found a
    # node before t = 0
    config = make_config(n_agents=3, tau=1e-11, delay_kind=DelayKind.REACTION,
                         weight_scheme=WeightScheme.CLASSICAL_SCALED,
                         influence=InfluenceFunction.constant(1.0))
    datum = InitialDatum.sampled([-1e-11, 0.0], [[[0.0], [0.3], [0.6]], [[0.1], [0.1], [0.6]]])
    traj = integrate(config, datum, 5e-11)
    ms = compute_metrics(traj)
    i0 = traj.origin
    assert i0 == 64 and traj.grid[i0] == 0.0
    assert np.all(np.isnan(ms.D[:i0])) and not np.any(np.isnan(ms.D[i0:]))
    assert np.all(ms.d_x[: i0 + 1] == 0.6)
    assert ms.X[i0] == pytest.approx(fluctuation(datum.at(0.0), mean(datum.at(0.0))), rel=1e-12)
    d_scale = float(np.nanmax(ms.D))
    for m in range(i0, traj.grid.size):
        expect = dissipation(config, traj, float(traj.grid[m]))
        assert ms.D[m] == pytest.approx(expect, rel=1e-12, abs=1e-14 * d_scale)


def test_lyapunov_series_matches_pointwise_op(rng):
    for n_agents, dim in ((3, 1), (5, 2)):
        config = make_config(n_agents=n_agents, dim=dim, tau=0.5, delay_kind=DelayKind.REACTION,
                             weight_scheme=WeightScheme.CLASSICAL_SCALED)
        datum = random_datum(rng, n_agents, dim)
        traj = integrate(config, datum, 4 * config.tau)
        ms = compute_metrics(traj)
        for t in (config.tau, 2.0 * config.tau, 3.5 * config.tau):
            m = int(np.searchsorted(traj.grid, t - 1e-12))
            expect = lyapunov(config, traj, float(traj.grid[m]))
            assert ms.L[m] == pytest.approx(expect, rel=1e-10, abs=1e-13)


def test_lyapunov_nonincreasing_for_short_reaction_delay(rng):
    config = make_config(n_agents=5, dim=2, tau=0.4, delay_kind=DelayKind.REACTION,
                         weight_scheme=WeightScheme.CLASSICAL_SCALED)
    datum = random_datum(rng, 5, 2)
    traj = integrate(config, datum, 40 * config.tau)
    ms = compute_metrics(traj)
    L = ms.L[~np.isnan(ms.L)]
    assert np.all(np.diff(L) <= 1e-6)
    i0 = int(np.searchsorted(ms.times, -1e-12, side="right"))
    assert ms.X[-1] < 1e-3 * ms.X[i0]


def test_dissipation_bounded_by_fluctuation(rng):
    # psi_ij <= 1/(N-1) gives D(t) <= 4 X(t - tau) around the conserved mean
    config = make_config(n_agents=5, dim=2, tau=0.4, delay_kind=DelayKind.REACTION,
                         weight_scheme=WeightScheme.CLASSICAL_SCALED)
    datum = random_datum(rng, 5, 2)
    traj = integrate(config, datum, 10 * config.tau)
    ms = compute_metrics(traj)
    q = int(np.searchsorted(ms.times, -1e-12, side="right"))
    for m in range(q, ms.times.size):
        assert ms.D[m] <= 4.0 * ms.X[m - q] + 1e-12


def reference_metrics(config, trajectory):
    """The per-node loops that the blocked compute_metrics replaced."""
    g = trajectory.grid
    S = trajectory.states
    n = g.size
    n_agents = config.n_agents
    i0 = q = int(np.searchsorted(g, -1e-12, side="right"))
    transmission = config.delay_kind is DelayKind.TRANSMISSION
    d_x = np.empty(n)
    D = np.full(n, np.nan)
    for m in range(n):
        sq = pair_sq(S[m], S[m])
        d_x[m] = sq.max()
        if m + q < n:
            w = weights_from_states(config, S[m + q] if transmission else None, S[m])
            D[m + q] = spelled_out_dissipation(config, w, sq)[0]
    np.sqrt(d_x, out=d_x)
    d_x[: i0 + 1] = d_x[: i0 + 1].max()
    r_x = np.sqrt(np.einsum("tik,tik->ti", S, S)).max(axis=1)
    rel = S - S[i0, 0]
    xbar = rel.mean(axis=1)
    drift = np.sqrt(((xbar - xbar[i0]) ** 2).sum(axis=1))
    dev = rel - xbar[i0]
    X = np.einsum("tik,tik->t", dev, dev) / (2.0 * (n_agents - 1))
    L = np.full(n, np.nan)
    if has_symmetric_weights(config):
        dt = float(g[1] - g[0])
        wgt = np.arange(q + 1) * dt
        coef = np.ones(q + 1)
        coef[0] = coef[-1] = 0.5
        for m in range(2 * q, n):
            L[m] = X[m] + dt * float(np.sum(coef * wgt * D[m - q : m + 1]))
    return MetricSeries(g, d_x, r_x, drift, X, D, L, check_icass(trajectory.datum, config))


def assert_series_identical(got, ref):
    for name in ("times", "d_x", "r_x", "mean_drift", "X", "D", "L"):
        assert np.array_equal(getattr(got, name), getattr(ref, name), equal_nan=True), name


# block_entries 1 gives one node per block; 40 splits the pair pass, the q
# offset of D and the (q + 1)-wide Lyapunov windows at every N below
@pytest.mark.parametrize("block_entries", [1, 40, model.BLOCK_ENTRIES])
@pytest.mark.parametrize("n_agents", [2, 5, 30])
@pytest.mark.parametrize("kind, scheme", [
    (DelayKind.TRANSMISSION, WeightScheme.NORMALIZED),
    (DelayKind.REACTION, WeightScheme.NORMALIZED),
    (DelayKind.REACTION, WeightScheme.CLASSICAL_SCALED),  # symmetric: L is computed
])
def test_blocked_series_match_per_node_loop(monkeypatch, block_entries, n_agents, kind, scheme):
    config = make_config(n_agents=n_agents, dim=2, tau=0.5, delay_kind=kind, weight_scheme=scheme)
    datum = random_datum(np.random.default_rng(n_agents), n_agents, 2, low=-1.0)
    traj = integrate(config, datum, 3 * config.tau, IntegratorSpec(config.tau / 8))
    monkeypatch.setattr(model, "BLOCK_ENTRIES", block_entries)
    assert_series_identical(compute_metrics(traj), reference_metrics(config, traj))


@pytest.mark.parametrize("block_entries", [1, 40, model.BLOCK_ENTRIES])
def test_blocked_series_match_per_node_loop_on_blown_up_run(monkeypatch, block_entries):
    config = make_config(n_agents=2, tau=2.0, delay_kind=DelayKind.REACTION,
                         influence=InfluenceFunction.constant(1.0))
    traj = integrate(config, InitialDatum.constant([[0.5], [-0.5]]), 200.0,
                     IntegratorSpec(config.tau / 8))
    assert traj.blow_up_time is not None
    monkeypatch.setattr(model, "BLOCK_ENTRIES", block_entries)
    ms = compute_metrics(traj)
    assert not np.all(np.isnan(ms.L))
    assert_series_identical(ms, reference_metrics(config, traj))


@pytest.mark.parametrize("kind", list(DelayKind))
def test_compute_metrics_forms_pairs_only_for_nodes_no_node_call_read(monkeypatch, kind):
    # integrate wrote the squared diameter of every node, the last q nodes
    # too, which no node call read; compute_metrics forms the pair arrays of
    # its one startup check and of no node of the trajectory
    taus, q = (0.5, 1.0, 1.5), 8
    configs = [make_config(n_agents=4, dim=2, tau=tau, delay_kind=kind) for tau in taus]
    datum = random_datum(np.random.default_rng(7), 4, 2)
    run = integrate(configs, [datum] * len(taus), [6 * tau for tau in taus], [IntegratorSpec(tau / q) for tau in taus])
    formed = []

    def spy(a, b):
        formed.append(np.shape(a))
        return pair_sq(a, b)

    monkeypatch.setattr(model, "pair_sq", spy)
    for config, traj in zip(configs, run.trajectories):
        assert traj.blow_up_time is None
        formed.clear()
        model.check_icass(traj.datum, config)
        startup = list(formed)
        formed.clear()
        compute_metrics(traj)
        assert formed == startup == [(1, 4, 2)]


# ---------------------------------------------------------------------------
# fitting and counting

def test_fit_decay_rate_exact_exponential():
    t = np.linspace(0.0, 5.0, 400)
    t = t[(t >= 0.5) & (t <= 4.5)]
    assert fit_decay_rate(t, np.exp(-2.0 * t)) == pytest.approx(2.0, abs=1e-6)


def test_fit_decay_rate_constant_series():
    t = np.linspace(0.0, 5.0, 50)
    assert fit_decay_rate(t, np.ones_like(t)) == 0.0


def test_fit_decay_rate_rejects_nonpositive():
    t = np.linspace(0.0, 1.0, 10)
    assert fit_decay_rate(t, np.linspace(1.0, -0.1, 10)) is None


def test_fitted_decay_rate_needs_eight_samples_above_its_floor():
    # the samples from t = 0.2 on are the last 8, and one of them below
    # 1e-13 leaves 7: too few to fit
    t = np.linspace(0.0, 1.0, 10)
    w = np.exp(-2.0 * t)
    assert fitted_decay_rate(t, w) == pytest.approx(2.0, rel=1e-12)
    w[-1] = 1e-14
    assert fitted_decay_rate(t, w) is None


def test_count_sign_changes_monotone_and_sine():
    assert count_sign_changes(np.linspace(0.1, 5.0, 100)) == 0
    t = np.arange(0.0, 4.0 * np.pi + 0.01, 0.01)
    assert count_sign_changes(np.sin(t)) == 4  # zeros at pi, 2pi, 3pi, 4pi


def test_count_sign_changes_damped_oscillation():
    t = np.arange(0.0, 4.0 * np.pi + 0.01, 0.01)
    series = np.exp(-t) * np.sin(5.0 * t)
    expected = math.floor(5.0 * t[-1] / math.pi)  # zeros of sin(5t) in (0, T]
    assert count_sign_changes(series) == expected


def test_count_sign_changes_ignores_noise_floor():
    series = np.array([1.0, 1e-12, -1e-12, 1.0, -1.0])
    assert count_sign_changes(series) == 1
    # fewer than two entries above SIGN_ATOL alternate nothing
    assert count_sign_changes(np.array([1e-12, -1.0, -1e-12])) == 0
    assert count_sign_changes(np.array([])) == 0


def test_consensus_time_sustained(rng):
    config = make_config(n_agents=3, dim=1, tau=0.5)
    datum = random_datum(rng, 3, 1)
    traj = integrate(config, datum, 20 * config.tau)
    ms = compute_metrics(traj)
    tol = 1e-3 * ms.icass.d_x0
    t_c = consensus_time(ms, tol)
    assert t_c is not None
    after = ms.times >= t_c
    assert np.all(ms.d_x[after] < tol)
    before = (ms.times < t_c) & (ms.times >= 0.0)
    assert ms.d_x[before][-1] >= tol
    assert consensus_time(ms, 1e-300) is None


def test_consensus_time_from_start():
    config = make_config(n_agents=3, dim=1, tau=0.5)
    datum = InitialDatum.constant(np.full((3, 1), 1.0))
    traj = integrate(config, datum, 2 * config.tau)
    ms = compute_metrics(traj)
    assert consensus_time(ms, 1e-6) == 0.0


def test_metric_series_csv_format(tmp_path, rng):
    config = make_config(n_agents=3, dim=1, tau=0.5)  # transmission: no L column
    datum = random_datum(rng, 3, 1)
    traj = integrate(config, datum, 2 * config.tau)
    ms = compute_metrics(traj)
    path = tmp_path / "metrics.csv"
    ms.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,d_x,r_x,mean_drift,X,D,L"
    first = lines[1].split(",")
    assert float(first[0]) == traj.grid[0]
    assert first[6] == ""  # L not defined for this configuration
    assert first[5] == ""  # D undefined before t = 0
    last = lines[-1].split(",")
    assert float(last[1]) == ms.d_x[-1]
    assert last[6] == ""


def reference_metrics_csv(ms, path):
    """The cell-by-cell writer that MetricSeries.to_csv replaced."""
    cols = [ms.d_x, ms.r_x, ms.mean_drift, ms.X, ms.D, ms.L]
    with open(path, "w", newline="") as fh:
        fh.write("t,d_x,r_x,mean_drift,X,D,L\n")
        for m, t in enumerate(ms.times):
            cells = [format(float(t), ".17g")]
            for col in cols:
                v = col[m]
                cells.append("" if np.isnan(v) else format(float(v), ".17g"))
            fh.write(",".join(cells) + "\n")


def test_metric_series_csv_bytes_match_reference_writer(tmp_path, rng, monkeypatch):
    config = make_config(n_agents=4, dim=2, tau=0.5, delay_kind=DelayKind.REACTION,
                         weight_scheme=WeightScheme.CLASSICAL_SCALED)
    # 257 rows, within one block of block_length(7) = 1170 rows, and 2625
    # rows, in three such blocks
    for delays in (3, 40):
        ms = compute_metrics(integrate(config, random_datum(rng, 4, 2), delays * config.tau))
        # NaN runs in D and L, plus values at the edges of the format
        ms.X[3] = -0.0
        ms.D[-2] = 5e-324
        ms.L[-1] = -1.2345678901234567e300
        ms.r_x[4] = np.inf
        ms.mean_drift[5] = -np.inf
        ms.D[-3] = -0.0
        assert np.isnan(ms.D).any() and np.isnan(ms.L).any()
        for all_nan in (False, True):
            if all_nan:
                ms.X[:] = np.nan
            reference_metrics_csv(ms, tmp_path / "ref.csv")
            # rows are written in blocks of block_length(7) rows: blocks of
            # 1170 rows, then of 1 and of 5 rows
            for block_entries in (model.BLOCK_ENTRIES, 1, 40):
                monkeypatch.setattr(model, "BLOCK_ENTRIES", block_entries)
                ms.to_csv(tmp_path / "new.csv")
                assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes(), block_entries
            monkeypatch.undo()
