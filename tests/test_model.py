import bisect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkdelay import dynamics, model
from hkdelay.errors import InvalidConfig, InvalidDatum, OutOfRange
from hkdelay.model import (
    DelayKind,
    InfluenceFunction,
    InfluenceKind,
    InitialDatum,
    SystemConfig,
    WeightScheme,
    blocks,
    check_icass,
    squared_diameter,
    pair_sq,
    psi_floor,
    radius,
    weights_from_states,
    config_from_dict,
    datum_from_dict,
)
from hkdelay.dynamics import IntegratorSpec, integrate

from conftest import make_config


# ---------------------------------------------------------------------------
# blocks

def test_blocks_tile_start_to_stop_in_order():
    items = np.arange(12)
    for start in range(13):
        for stop in range(start, 13):
            for size in range(1, 14):
                cuts = list(blocks(stop, size, start))
                assert all(isinstance(s, slice) and s.step is None for s in cuts)
                assert [i for s in cuts for i in range(s.start, s.stop)] == list(range(start, stop))
                assert [s.stop - s.start for s in cuts[:-1]] == [size] * (len(cuts) - 1)
                assert (cuts == []) == (start == stop)
                if cuts:
                    assert 1 <= cuts[-1].stop - cuts[-1].start <= size
                    assert np.array_equal(np.concatenate([items[s] for s in cuts]), items[start:stop])
                if start == 0:
                    assert list(blocks(stop, size)) == cuts


# ---------------------------------------------------------------------------
# influence functions and psi_floor

def test_constant_influence_floor_is_c():
    psi = InfluenceFunction.constant(0.7)
    for d in (0.0, 0.5, 10.0):
        assert psi_floor(psi, d) == 0.7


def test_algebraic_decay_values_and_floor():
    psi = InfluenceFunction.algebraic_decay(1.0)
    assert psi(0.0) == 1.0
    assert psi(1.0) == pytest.approx(0.5, abs=1e-15)
    # monotone decreasing, so the floor sits at the right endpoint
    assert psi_floor(psi, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_table_floor_finds_interior_dip():
    samples = [(0.0, 1.0), (1.0, 0.3), (2.0, 0.8), (3.0, 0.9)]
    psi = InfluenceFunction.table(samples)
    # oracle: dense scan of the piecewise-linear interpolant; the scan can
    # miss a knot by up to half its spacing, slopes here are below 1
    for d in (0.5, 1.0, 1.7, 2.5, 4.0):
        grid = np.linspace(0.0, d, 20001)
        scan_min = float(np.min(psi(grid)))
        assert psi_floor(psi, d) <= scan_min + 1e-12
        assert psi_floor(psi, d) >= scan_min - d / 20000.0
    assert psi_floor(psi, 2.0) == pytest.approx(0.3, abs=1e-15)


def test_table_extends_constant_beyond_last_knot():
    psi = InfluenceFunction.table([(0.0, 1.0), (1.0, 0.5)])
    assert psi(5.0) == 0.5


@given(
    gamma=st.floats(min_value=0.0, max_value=5.0),
    d1=st.floats(min_value=0.0, max_value=20.0),
    d2=st.floats(min_value=0.0, max_value=20.0),
)
def test_psi_floor_nonincreasing_and_anchored(gamma, d1, d2):
    psi = InfluenceFunction.algebraic_decay(gamma)
    lo, hi = sorted((d1, d2))
    assert psi_floor(psi, hi) <= psi_floor(psi, lo) + 1e-15
    assert psi_floor(psi, 0.0) == psi(0.0)


@given(s=st.floats(min_value=0.0, max_value=1e6))
def test_influence_range(s):
    for psi in (
        InfluenceFunction.constant(0.4),
        InfluenceFunction.algebraic_decay(0.8),
        InfluenceFunction.table([(0.0, 0.9), (2.0, 0.2), (5.0, 1.0)]),
    ):
        v = psi(s)
        assert 0.0 < v <= 1.0


def test_influence_validation():
    with pytest.raises(InvalidConfig):
        InfluenceFunction.constant(0.0)
    with pytest.raises(InvalidConfig):
        InfluenceFunction.constant(1.5)
    with pytest.raises(InvalidConfig):
        InfluenceFunction.algebraic_decay(-1.0)
    with pytest.raises(InvalidConfig):
        InfluenceFunction.table([(0.5, 1.0), (1.0, 0.5)])  # grid must start at 0
    with pytest.raises(InvalidConfig):
        InfluenceFunction.table([(0.0, 1.0), (1.0, 0.0)])  # psi must stay positive
    with pytest.raises(InvalidConfig, match="needs >= 2"):  # knot arrays of different shapes
        InfluenceFunction(InfluenceKind.TABLE, knots_s=np.array([0.0, 1.0]), knots_psi=np.array([1.0, 0.5, 0.2]))
    with pytest.raises(InvalidConfig, match="unknown influence kind 'gaussian'"):
        InfluenceFunction("gaussian")


@pytest.mark.parametrize("d", [-1.0, -5e-324, math.inf, math.nan])
def test_psi_floor_needs_a_finite_distance_of_zero_or_more(d):
    with pytest.raises(InvalidConfig, match="psi_floor needs finite d >= 0"):
        psi_floor(InfluenceFunction.algebraic_decay(1.0), d)


# ---------------------------------------------------------------------------
# weight evaluation

def test_two_agents_normalized_weights_are_one():
    config = make_config(n_agents=2, weight_scheme=WeightScheme.NORMALIZED)
    x = np.array([[0.0], [7.3]])
    w = weights_from_states(config, x, x).matrix()
    assert w[0, 1] == 1.0
    assert w[1, 0] == 1.0
    assert np.all(w.sum(axis=1) == 1.0)


def test_three_agents_classical_constant_influence():
    config = make_config(
        n_agents=3,
        weight_scheme=WeightScheme.CLASSICAL_SCALED,
        influence=InfluenceFunction.constant(1.0),
    )
    x = np.array([[0.0], [1.0], [5.0]])
    w = weights_from_states(config, x, x).matrix()
    off = w[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.5, atol=0.0)
    assert np.all(np.diagonal(w) == 0.0)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-15)


def test_three_agents_normalized_matches_scalar_evaluation():
    # independent scalar evaluation of psi(s) = 1/(1+s^2) at fixed positions
    config = make_config(n_agents=3, dim=1, tau=0.5)
    pos = np.array([[0.0], [1.0], [3.0]])
    got = weights_from_states(config, pos, pos).matrix()

    def psi(s):
        return 1.0 / (1.0 + s * s)

    for i in range(3):
        vals = {j: psi(abs(pos[j, 0] - pos[i, 0])) for j in range(3) if j != i}
        tot = sum(vals.values())
        for j, v in vals.items():
            assert got[i, j] == pytest.approx(v / tot, abs=1e-15)
    assert np.allclose(got.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    batch=st.sampled_from([(), (4,), (2, 3)]),
    n=st.integers(min_value=2, max_value=8),
    d=st.integers(min_value=1, max_value=3),
    kind=st.sampled_from(list(DelayKind)),
    scheme=st.sampled_from(list(WeightScheme)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_row_sum_contract_random_states(batch, n, d, kind, scheme, seed):
    # the row denominator Weights.n is s itself for normalized weights and
    # N - 1 on every row for classical ones, alone and in a stack
    rng = np.random.default_rng(seed)
    config = make_config(n_agents=n, dim=d, delay_kind=kind, weight_scheme=scheme)
    x_now = rng.normal(size=batch + (n, d))
    x_del = rng.normal(size=batch + (n, d))
    weights = weights_from_states(config, x_now, x_del)
    w = weights.matrix()
    sums = w.sum(axis=-1)
    assert np.all(np.diagonal(w, axis1=-2, axis2=-1) == 0.0)
    if scheme is WeightScheme.NORMALIZED:
        assert weights.n is weights.s
        assert np.all(np.abs(sums - 1.0) <= 1e-12)
    else:
        assert weights.n.shape == (n,) + batch[::-1]
        assert np.all(weights.n == n - 1.0)
        assert np.all(sums <= 1.0 + 1e-12)


def test_normalized_weights_scale_invariant(rng):
    n, d = 5, 2
    x_now = rng.normal(size=(n, d))
    x_del = rng.normal(size=(n, d))
    for c in (0.013, 0.4, 1.0):
        base = make_config(n_agents=n, dim=d, influence=InfluenceFunction.constant(1.0))
        scaled = make_config(n_agents=n, dim=d, influence=InfluenceFunction.constant(c))
        w1 = weights_from_states(base, x_now, x_del).matrix()
        w2 = weights_from_states(scaled, x_now, x_del).matrix()
        assert np.all(np.abs(w1 - w2) <= 1e-12)


def test_classical_reaction_weights_symmetric_exactly(rng):
    config = make_config(
        n_agents=6,
        dim=3,
        delay_kind=DelayKind.REACTION,
        weight_scheme=WeightScheme.CLASSICAL_SCALED,
    )
    x_del = rng.normal(size=(6, 3))
    w = weights_from_states(config, None, x_del).matrix()
    assert np.array_equal(w, w.T)


def broadcast_weights(config, x_now, x_delayed):
    """The (N, N, d) broadcast formula the squared-distance kernel replaced."""
    base = x_now if config.delay_kind is DelayKind.TRANSMISSION else x_delayed
    diff = x_delayed[None, :, :] - base[:, None, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    vals = np.asarray(config.influence(dist), dtype=float)
    np.fill_diagonal(vals, 0.0)
    if config.weight_scheme is WeightScheme.CLASSICAL_SCALED:
        return vals / (config.n_agents - 1)
    return vals / vals.sum(axis=1, keepdims=True)


KERNEL_INFLUENCES = (
    InfluenceFunction.constant(0.6),
    InfluenceFunction.algebraic_decay(1.0),
    InfluenceFunction.algebraic_decay(2.5),
    InfluenceFunction.table([[0.0, 1.0], [0.5, 0.7], [2.0, 0.2]]),
)


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=9),
    d=st.integers(min_value=1, max_value=3),
    kind=st.sampled_from(list(DelayKind)),
    scheme=st.sampled_from(list(WeightScheme)),
    influence=st.sampled_from(KERNEL_INFLUENCES),
    scale=st.sampled_from([0.01, 1.0, 4.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kernel_matches_broadcast_reference(n, d, kind, scheme, influence, scale, seed):
    rng = np.random.default_rng(seed)
    config = make_config(n_agents=n, dim=d, delay_kind=kind, weight_scheme=scheme,
                         influence=influence)
    x_now = scale * rng.normal(size=(n, d))
    x_del = scale * rng.normal(size=(n, d))
    diff = x_del[None, :, :] - x_now[:, None, :]
    np.testing.assert_allclose(pair_sq(x_now, x_del).T, np.einsum("ijk,ijk->ij", diff, diff),
                               rtol=1e-15, atol=0.0)
    w = weights_from_states(config, x_now, x_del).matrix()
    ref = broadcast_weights(config, x_now, x_del)
    assert np.max(np.abs(w - ref)) <= 1e-12
    if kind is DelayKind.REACTION and scheme is WeightScheme.CLASSICAL_SCALED:
        assert np.array_equal(w, w.T)


@settings(max_examples=120, deadline=None)
@given(
    batch=st.sampled_from([(1,), (4,), (2, 3)]),
    n=st.integers(min_value=2, max_value=9),
    d=st.integers(min_value=1, max_value=8),
    kind=st.sampled_from(list(DelayKind)),
    scheme=st.sampled_from(list(WeightScheme)),
    influence=st.sampled_from(KERNEL_INFLUENCES),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kernel_on_stacked_states_matches_per_slice_calls(batch, n, d, kind, scheme, influence, seed):
    # the pair kernel, the weights, the squared diameter and the radius
    # give each state the same bits alone as in a stack
    rng = np.random.default_rng(seed)
    config = make_config(n_agents=n, dim=d, delay_kind=kind, weight_scheme=scheme,
                         influence=influence)
    x_now = rng.normal(size=batch + (n, d))
    x_del = rng.normal(size=batch + (n, d))
    sq = pair_sq(x_now, x_del).T
    w = weights_from_states(config, x_now, x_del).matrix()
    d_x, r_x = np.sqrt(squared_diameter(x_del)), radius(x_del)
    assert sq.shape == w.shape == batch + (n, n)
    assert d_x.shape == r_x.shape == batch
    # the series' d_x and r_x before the reductions took stacks: the
    # pair_sq maximum and the einsum of node-major states, reduced node-last
    nodes = x_del.reshape(-1, n, d)
    assert np.array_equal(d_x.ravel(), np.sqrt(pair_sq(nodes, nodes).max(axis=(0, 1))))
    assert np.array_equal(r_x.ravel(), np.sqrt(np.einsum("tik,tik->ti", nodes, nodes).T.copy().max(axis=0)))
    for idx in np.ndindex(*batch):
        assert np.array_equal(sq[idx], pair_sq(x_now[idx], x_del[idx]).T)
        assert np.array_equal(w[idx], weights_from_states(config, x_now[idx], x_del[idx]).matrix())
        assert np.sqrt(squared_diameter(x_del[idx])) == d_x[idx] == math.sqrt(pair_sq(x_del[idx], x_del[idx]).max())
        assert radius(x_del[idx]) == r_x[idx]


@pytest.mark.parametrize("stack, n", [
    *[(stack, n) for n in (5, 100) for stack in (1, 2, 8, 64)],
    (1, 400), (2, 400), (8, 400), (64, 30),
])
def test_stacked_diameters_equal_the_per_state_ones(stack, n):
    # squared_diameter reduces j and then i; short stacks of large-N states
    # are where that order is faster, and a maximum has the same bits
    # either way.  At N = 30 the 64 states span eight blocks of up to 9.
    # N = 400 stops at 8 states: a stacked pair array of 64 would take
    # about 160 MB
    x = np.random.default_rng(n + stack).normal(size=(stack, n, 2))
    d_x = np.sqrt(squared_diameter(x))
    assert d_x.shape == (stack,)
    assert np.array_equal(d_x, [np.sqrt(squared_diameter(state)) for state in x])
    assert np.array_equal(d_x, np.sqrt(pair_sq(x, x).max(axis=(0, 1))))


def test_squared_diameter_forms_no_pair_array_of_more_than_one_block(monkeypatch):
    # a stack is reduced in the blocks of block_length(N^2) states that
    # blocks cuts: at N = 30 that is 9 states, so 64 states take 8 pair_sq
    # calls, where one call of all 64 formed a 460 KB pair array
    x = np.random.default_rng(30).normal(size=(64, 30, 2))
    alone = [squared_diameter(state) for state in x]
    stacks = []

    def spy(a, b):
        stacks.append(len(a))
        return pair_sq(a, b)

    monkeypatch.setattr(model, "pair_sq", spy)
    sq_d = squared_diameter(x)
    assert stacks == [9] * 7 + [1]
    assert np.array_equal(sq_d, alone)
    # the shapes: a scalar for one state, the stack's shape otherwise
    assert np.shape(squared_diameter(x[0])) == ()
    assert squared_diameter(x[:10].reshape(2, 5, 30, 2)).shape == (2, 5)
    assert squared_diameter(x[:0]).shape == (0,)


def test_normalized_weights_do_not_underflow():
    # every psi of a row is below the smallest double, yet the row-scaled
    # form keeps the normalized weights finite, summing to one
    config = make_config(influence=InfluenceFunction.algebraic_decay(200.0))
    x = np.array([[0.0], [10.0], [20.0]])
    with np.errstate(invalid="ignore"):
        assert np.all(np.isnan(broadcast_weights(config, x, x)))
    w = weights_from_states(config, x, x).matrix()
    assert np.all(np.isfinite(w))
    assert np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-12)
    assert w[1, 0] == w[1, 2] == 0.5


# ---------------------------------------------------------------------------
# initial data

def test_icass_constant_datum_trivially_satisfied():
    config = make_config(tau=1.0)
    datum = InitialDatum.constant([[0.0], [1.0], [2.0]])
    rep = check_icass(datum, config)
    assert rep.satisfied and rep.max_slope == 0.0
    assert rep.d_x0 == pytest.approx(2.0)


def test_icass_identical_constant_agents_degenerate():
    config = make_config(n_agents=2, tau=1.0)
    times = [-1.0, -0.5, 0.0]
    vals = [[[3.0], [3.0]]] * 3
    rep = check_icass(InitialDatum.sampled(times, vals), config)
    assert rep.d_x0 == 0.0
    assert rep.satisfied  # slope is zero here


def test_icass_two_agent_linear_ramp():
    # agent 1 fixed at 0, agent 2 ramps 1 -> 2 on [-1, 0]
    config = make_config(n_agents=2, tau=1.0)
    datum = InitialDatum.sampled([-1.0, 0.0], [[[0.0], [1.0]], [[0.0], [2.0]]])
    rep = check_icass(datum, config)
    assert rep.d_x0 == pytest.approx(2.0)
    assert rep.max_slope == pytest.approx(1.0)
    assert rep.satisfied


def test_icass_violated_by_steep_ramp():
    config = make_config(n_agents=2, tau=1.0)
    datum = InitialDatum.sampled([-1.0, 0.0], [[[0.0], [0.1]], [[0.0], [0.2]]])
    rep = check_icass(datum, config)  # slope 0.1 vs diameter 0.2: fine
    assert rep.satisfied
    steep = InitialDatum.sampled([-1.0, -0.9, 0.0], [[[0.0], [0.1]], [[0.0], [0.5]], [[0.0], [0.2]]])
    rep = check_icass(steep, config)
    assert rep.max_slope == pytest.approx(4.0)
    assert not rep.satisfied


ICASS_DATUM = """
import numpy as np
from hkdelay.model import DelayKind, InfluenceFunction, InitialDatum, SystemConfig, WeightScheme
n, knots = {n}, {knots}
config = SystemConfig(n, 1, 1.0, DelayKind.TRANSMISSION, WeightScheme.NORMALIZED, InfluenceFunction.constant(1.0))
datum = InitialDatum.sampled(np.linspace(-1.0, 0.0, knots), np.random.default_rng(5).uniform(0.0, 1.0, (knots, n, 1)))
"""

CAPPED_ICASS = """
import resource
from hkdelay.model import check_icass
with open("/proc/self/statm") as fh:
    mapped = int(fh.read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (mapped + (1 << 30), resource.getrlimit(resource.RLIMIT_AS)[1]))
print(repr(check_icass(datum, config).d_x0))
"""


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="needs /proc/self/statm")
def test_icass_of_many_knots_needs_no_pair_array_of_them_all():
    # the (N, N, K) pair array of all K startup states at once, here 2.4 GiB,
    # ended in a MemoryError traceback: the states are now reduced
    # block_length(N^2) at a time, in a child whose address space is capped
    # 1 GiB above what its imports mapped
    code = ICASS_DATUM.format(n=400, knots=2000)
    namespace: dict = {}
    exec(code, namespace)
    states = namespace["datum"].at(namespace["datum"].times)
    # in one dimension |x_j - x_i| rounds exactly as sqrt of its rounded
    # square, so the largest diameter is the largest spread, bit for bit
    expected = float((states.max(axis=1) - states.min(axis=1)).max())
    src = str(Path(dynamics.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code + CAPPED_ICASS], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == expected


def test_sampled_datum_validation():
    with pytest.raises(InvalidDatum):
        InitialDatum.sampled([], [])
    with pytest.raises(InvalidDatum):
        InitialDatum.sampled([-1.0, -1.0], [[[0.0]], [[0.0]]])
    with pytest.raises(InvalidDatum):
        InitialDatum.sampled([-1.0, 0.0], [[[np.inf]], [[0.0]]])


def test_datum_interpolates_linearly():
    datum = InitialDatum.sampled([-1.0, 0.0], [[[0.0], [1.0]], [[0.0], [2.0]]])
    assert datum.at(-0.5)[1, 0] == pytest.approx(1.5, abs=1e-15)
    assert np.allclose(datum.slope_at(-0.25)[1], [1.0])


def test_datum_read_outside_its_grid_is_out_of_range():
    datum = InitialDatum.sampled([-1.0, 0.0], [[[0.0], [1.0]], [[0.0], [2.0]]])
    with pytest.raises(OutOfRange, match=r"^datum sample at t=-2 outside \[-1, 0\]$"):
        datum.at(-2.0)
    with pytest.raises(OutOfRange, match=r"^datum sample at t=0.5 outside \[-1, 0\]$"):
        datum.at([-0.5, 0.5, 1.0])  # the first time outside is named


def test_datum_coverage_required():
    config = make_config(n_agents=2, tau=2.0)
    datum = InitialDatum.sampled([-1.0, 0.0], [[[0.0], [1.0]], [[0.0], [2.0]]])
    with pytest.raises(InvalidDatum):
        check_icass(datum, config)


def test_datum_coverage_scales_with_a_tiny_delay():
    # an absolute pad of 1e-9 (1 + tau) let a datum on [-1e-12, 0] stand for
    # [-1e-11, 0]: the startup nodes before -1e-12 read the first sample
    config = make_config(n_agents=2, tau=1e-11)
    short = InitialDatum.sampled([-1e-12, 0.0], [[[1.0], [2.0]], [[0.0], [2.0]]])
    with pytest.raises(InvalidDatum, match=r"^datum\.times: "):
        short.require_fits(config)
    with pytest.raises(InvalidDatum, match=r"^datum\.times: "):
        integrate(config, short, 1e-10)
    covering = InitialDatum.sampled([-1e-11, 0.0], [[[1.0], [2.0]], [[0.0], [2.0]]])
    covering.require_fits(config)
    assert covering.at(-1e-11)[0, 0] == 1.0


def test_startup_reads_the_datum_where_require_fits_checks_it():
    # a dt that divides tau to the allowed 1e-12 puts the first grid node
    # 5e-13 before -tau; a datum that reaches -tau within the coverage slack
    # ran into "OutOfRange: datum sample at t=-1 outside [-1, 0]" there
    config = make_config(n_agents=2, tau=1.0)
    spec = IntegratorSpec((1.0 / 64) * (1.0 + 5e-13))
    values = [[[1.0], [2.0]], [[0.0], [2.0]]]
    edge = InitialDatum.sampled([-1.0 + 1e-9, 0.0], values)
    edge.require_fits(config)
    traj = integrate(config, edge, 1.0, spec)
    assert traj.grid[0] < -1.0 and np.array_equal(traj.states[0], edge.at(-1.0))
    beyond = InitialDatum.sampled([-1.0 + 3e-9, 0.0], values)
    with pytest.raises(InvalidDatum, match=r"^datum\.times: "):
        integrate(config, beyond, 1.0, spec)


def lerp_reads(datum, times):
    """The datum's states and slopes at each time, one scalar lerp at a
    time: the per-node reads that the startup fill replaced."""
    ts = datum.times.tolist()
    states, slopes = [], []
    for t in times:
        t = min(max(t, ts[0]), ts[-1])
        i = min(max(bisect.bisect_right(ts, t) - 1, 0), len(ts) - 2)
        theta = (t - ts[i]) / (ts[i + 1] - ts[i])
        states.append((1.0 - theta) * datum.samples[i] + theta * datum.samples[i + 1])
        slopes.append((datum.samples[i + 1] - datum.samples[i]) / (ts[i + 1] - ts[i]))
    return np.array(states), np.array(slopes)


@settings(max_examples=60, deadline=None)
@given(
    knots=st.integers(min_value=2, max_value=9),
    q=st.integers(min_value=1, max_value=70),
    early=st.sampled_from([0.0, 5e-13]),
    scale=st.sampled_from([1.0, 1e13]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_startup_fill_equals_per_node_reads(knots, q, early, scale, seed):
    # one searchsorted over the startup grid and the same lerp formula give
    # the bits that one datum read per node gave, the first node read at
    # -tau however far an explicit dt puts it before -tau
    rng = np.random.default_rng(seed)
    tau = float(rng.uniform(0.01, 5.0))
    times = np.concatenate([[-tau], np.sort(rng.uniform(-tau, 0.0, knots - 2)), [0.0]])
    if np.any(np.diff(times) <= 0.0):
        return
    datum = InitialDatum.sampled(times, scale * rng.normal(size=(knots, 3, 2)))
    grid = np.arange(-q, 2) * (tau / q) * (1.0 + early)
    states, derivs = np.empty((2, q + 2, 3, 2))
    mids = dynamics._fill_startup(grid, q, datum, states, derivs, tau)
    want_states, want_slopes = lerp_reads(datum, [max(t, -tau) for t in grid[: q + 1].tolist()])
    want_mids, _ = lerp_reads(datum, (0.5 * (grid[:q] + grid[1 : q + 1])).tolist())
    assert states[: q + 1].tobytes() == want_states.tobytes()
    assert derivs[: q + 1].tobytes() == want_slopes.tobytes()
    assert np.asarray(mids).tobytes() == want_mids.tobytes()


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: InitialDatum.constant([[0.0], [1e200], [-1e200]]), "datum.vectors"),
        (lambda: InitialDatum.constant([[5e153, 0.0, 0.0, 0.0, 0.0]]), "datum.vectors"),
        # the overflowing sample lies outside [-tau, 0] for any tau < 1: every sample counts
        (lambda: InitialDatum.sampled([-2.0, -1.0, 0.0], [[[1e160], [0.0]], [[0.0], [1.0]],
                                                          [[0.0], [1.0]]]), "datum.values"),
    ],
    ids=["vectors", "vectors_dim_5", "sampled_outside_startup"],
)
def test_datum_whose_squared_distances_overflow_is_refused(build, field):
    # 4 d m^2 bounds every squared distance and norm: m = 5e153 passes at
    # d = 1 and overflows at d = 5
    with pytest.raises(InvalidDatum, match=f"^{field}: "):
        build()
    InitialDatum.constant([[5e153], [-5e153]])


# ---------------------------------------------------------------------------
# config validation and JSON codecs

def test_config_validation():
    psi = InfluenceFunction.constant(1.0)
    with pytest.raises(InvalidConfig):
        SystemConfig(1, 1, 0.5, DelayKind.TRANSMISSION, WeightScheme.NORMALIZED, psi)
    with pytest.raises(InvalidConfig):
        SystemConfig(3, 0, 0.5, DelayKind.TRANSMISSION, WeightScheme.NORMALIZED, psi)
    with pytest.raises(InvalidConfig):
        SystemConfig(3, 1, 0.0, DelayKind.TRANSMISSION, WeightScheme.NORMALIZED, psi)
    # (N, N) or (N, d) arrays of this size cannot be addressed; checked, never allocated
    for n, d in ((1e300, 1), (2, 1e300)):
        with pytest.raises(InvalidConfig, match="cannot be addressed"):
            SystemConfig(n, d, 0.5, DelayKind.TRANSMISSION, WeightScheme.NORMALIZED, psi)
    with pytest.raises(InvalidConfig, match="^config: "):  # int(inf) overflows
        config_from_dict({**make_config().to_dict(), "n_agents": float("inf")})


def test_config_dict_round_trip():
    config = make_config(n_agents=4, dim=2, tau=0.25)
    again = config_from_dict(config.to_dict())
    assert again.to_dict() == config.to_dict()


def test_datum_dict_round_trip():
    datum = InitialDatum.sampled([-1.0, -0.25, 0.0], np.zeros((3, 2, 2)) + [[1.0, 2.0], [3.0, 4.0]])
    again = datum_from_dict(datum.to_dict())
    assert np.array_equal(again.times, datum.times)
    assert np.array_equal(again.samples, datum.samples)
    const = InitialDatum.constant([[1.0, 2.0]])
    assert np.array_equal(datum_from_dict(const.to_dict()).values, const.values)
