import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from hkdelay import model, dynamics
from hkdelay.errors import InvalidConfig, InvalidDatum, OutOfRange
from hkdelay.model import DelayKind, InfluenceFunction, InitialDatum, WeightScheme
from hkdelay.dynamics import IntegratorSpec, Trajectory, integrate, velocity_from_states, trajectory_to_csv
from hkdelay.metrics import count_sign_changes
from hkdelay.rates import two_agent_config

from conftest import TAU_GRID, W0, make_config, random_datum
from reference import (
    blocked_dissipation, blocked_sq_diameter, dissipation, eval_weights, gap, integrate_oracle,
    pure_delay_factor, read_trajectory_csv, rhs, sample,
)


def consensus_datum(n, d, value=0.7):
    return InitialDatum.constant(np.full((n, d), value))


# ---------------------------------------------------------------------------
# velocity field

PSI_KINDS = (
    InfluenceFunction.constant(0.6),
    InfluenceFunction.algebraic_decay(1.0),
    InfluenceFunction.table([[0.0, 0.8], [0.5, 0.7], [2.0, 0.2]]),
)


def test_rhs_zero_at_consensus():
    # the product is taken relative to agent 0, so it is exactly 0 whatever
    # psi(0): u @ x - s x rounds to about 1e-16 for psi = 0.6
    for influence, kind, scheme in itertools.product(PSI_KINDS, DelayKind, WeightScheme):
        config = make_config(n_agents=4, dim=2, delay_kind=kind, weight_scheme=scheme, influence=influence)
        traj = integrate(config, consensus_datum(4, 2), 2 * config.tau)
        m = int(np.searchsorted(traj.grid, config.tau))  # t = tau reads t = 0
        q = dynamics.STEPS_PER_DELAY
        v = velocity_from_states(config, traj.states[m], traj.states[m - q])
        assert np.max(np.abs(v)) == 0.0, (influence.kind, kind, scheme)


def test_rhs_two_agent_transmission_reduction():
    # constant history x1 = a, x2 = b gives dx1 = b - a, dx2 = a - b
    a, b = 0.3, -1.2
    config = make_config(n_agents=2, tau=1.0)
    x = np.array([[a], [b]])
    v = velocity_from_states(config, x, x)
    assert v[0, 0] == pytest.approx(b - a, abs=1e-15)
    assert v[1, 0] == pytest.approx(a - b, abs=1e-15)


def test_rhs_three_agent_reaction_matches_hand_formula():
    config = make_config(
        n_agents=3,
        delay_kind=DelayKind.REACTION,
        weight_scheme=WeightScheme.CLASSICAL_SCALED,
        tau=0.5,
    )
    pos = np.array([[0.0], [1.0], [2.5]])
    v = velocity_from_states(config, None, pos)

    def psi(s):
        return 1.0 / (1.0 + s * s)

    for i in range(3):
        expect = 0.0
        for j in range(3):
            if j != i:
                s = abs(pos[j, 0] - pos[i, 0])
                expect += psi(s) / 2.0 * (pos[j, 0] - pos[i, 0])
        assert v[i, 0] == pytest.approx(expect, abs=1e-12)


# The reference views read only stored history, so a comparison against
# them cannot pass by extrapolating past the grid.

def test_rhs_requires_history_coverage():
    config = make_config(tau=1.0)
    traj = integrate(config, consensus_datum(3, 1), 1.0)
    with pytest.raises(OutOfRange):
        rhs(config, traj, traj.grid[-1] + 1.0)


def test_reaction_rhs_works_one_delay_past_horizon():
    config = make_config(n_agents=3, tau=1.0, delay_kind=DelayKind.REACTION,
                         weight_scheme=WeightScheme.CLASSICAL_SCALED)
    datum = InitialDatum.constant([[0.0], [0.5], [1.0]])
    traj = integrate(config, datum, 1.0)
    v = rhs(config, traj, traj.grid[-1] + config.tau)  # reads only t - tau
    assert np.all(np.isfinite(v))
    with pytest.raises(OutOfRange):
        rhs(config, traj, traj.grid[-1] + config.tau + 0.1)


@pytest.mark.parametrize("kind", list(DelayKind))
@pytest.mark.parametrize("view", [rhs, eval_weights, dissipation], ids=lambda f: f.__name__)
def test_delayed_state_views_share_history_coverage(view, kind):
    # transmission reads x(t - tau) and x(t); reaction reads only x(t - tau)
    config = make_config(n_agents=3, tau=0.5, delay_kind=kind)
    traj = integrate(config, InitialDatum.constant([[0.0], [0.5], [1.0]]), 1.0)
    t_first = traj.grid[0] + config.tau
    t_last = traj.grid[-1] + (config.tau if kind is DelayKind.REACTION else 0.0)
    for t in (t_first, t_last):
        assert np.all(np.isfinite(view(config, traj, t)))
    for t in (t_first - 1e-6, t_last + 1e-6):
        with pytest.raises(OutOfRange):
            view(config, traj, t)


# ---------------------------------------------------------------------------
# integration invariants

def test_steady_state_preserved_exactly():
    for kind in DelayKind:
        config = make_config(n_agents=3, dim=2, delay_kind=kind, tau=0.5)
        traj = integrate(config, consensus_datum(3, 2), 20 * config.tau)
        drift = np.max(np.abs(traj.states - traj.states[0]))
        assert drift <= 1e-12 * 20 * config.tau


def test_translation_equivariance(rng):
    shift = np.array([3.25, -1.5])
    for kind in DelayKind:
        config = make_config(n_agents=4, dim=2, delay_kind=kind, tau=0.5)
        base = rng.uniform(0, 1, (4, 2))
        t1 = integrate(config, InitialDatum.constant(base), 10 * config.tau)
        t2 = integrate(config, InitialDatum.constant(base + shift), 10 * config.tau)
        err = np.max(np.abs(t2.states - (t1.states + shift)))
        assert err <= 1e-12 * 10 * config.tau


def test_mean_conserved_for_symmetric_reaction(rng):
    config = make_config(
        n_agents=6,
        dim=2,
        tau=0.4,
        delay_kind=DelayKind.REACTION,
        weight_scheme=WeightScheme.CLASSICAL_SCALED,
    )
    datum = random_datum(rng, 6, 2)
    traj = integrate(config, datum, 20 * config.tau)
    means = traj.states.mean(axis=1)
    drift = np.sqrt(((means - means[0]) ** 2).sum(axis=1)).max()
    assert drift <= 1e-8 * (1.0 + np.linalg.norm(means[0]))


def test_radius_bound_transmission(rng):
    for scheme in WeightScheme:
        config = make_config(n_agents=5, dim=2, tau=0.8, weight_scheme=scheme)
        datum = random_datum(rng, 5, 2, low=-2.0, high=2.0)
        traj = integrate(config, datum, 10 * config.tau)
        r = np.sqrt((traj.states**2).sum(axis=2)).max(axis=1)
        r0 = r[traj.grid <= 0].max()
        assert np.all(r <= r0 + 1e-9)


def test_box_bound_one_dimensional(rng):
    config = make_config(n_agents=5, dim=1, tau=0.5, weight_scheme=WeightScheme.CLASSICAL_SCALED)
    datum = random_datum(rng, 5, 1, low=-1.0, high=3.0)
    m, M = datum.values.min(), datum.values.max()
    traj = integrate(config, datum, 12 * config.tau)
    assert traj.states.min() >= m - 1e-9
    assert traj.states.max() <= M + 1e-9


def test_two_agent_transmission_decays():
    # w(t) = x1 - x2 from constant history w = 1 tends to zero for tau = 1
    config = make_config(n_agents=2, tau=1.0)
    datum = InitialDatum.constant([[0.5], [-0.5]])
    traj = integrate(config, datum, 40.0)
    w = traj.states[:, 0, 0] - traj.states[:, 1, 0]
    assert abs(w[-1]) < 1e-3
    a = np.abs(w)
    interior = np.arange(1, a.size - 1)
    peaks = interior[(a[interior] > a[interior - 1]) & (a[interior] >= a[interior + 1])]
    peaks = peaks[a[peaks] > 1e-10]
    assert np.all(np.diff(a[peaks]) < 0.0)  # damped envelope


# ---------------------------------------------------------------------------
# two-agent runs

def test_zero_start_stays_zero():
    traj = integrate(two_agent_config(DelayKind.REACTION, 0.3), InitialDatum.constant([[0.0], [0.0]]), 3.0,
                     None, False)
    assert np.max(np.abs(gap(traj))) == 0.0


def test_short_delay_never_oscillates():
    tau = 0.15
    traj = integrate(two_agent_config(DelayKind.REACTION, tau), W0, 20 * tau, None, False)
    w = gap(traj)
    assert count_sign_changes(w[traj.grid > 0]) == 0
    assert abs(w[-1]) < 1e-3


def test_intermediate_delay_damped_oscillations():
    tau = 0.5
    traj = integrate(two_agent_config(DelayKind.REACTION, tau), W0, 40 * tau, None, False)
    w = gap(traj)
    assert count_sign_changes(w[traj.grid > 0]) >= 3
    a = np.abs(w)
    interior = np.arange(1, a.size - 1)
    peaks = interior[(a[interior] > a[interior - 1]) & (a[interior] >= a[interior + 1])]
    peaks = peaks[a[peaks] > 1e-12]
    assert peaks.size >= 3
    assert np.all(np.diff(a[peaks][1:]) < 0.0)


def test_transmission_amplitude_decays_on_grid():
    for tau in TAU_GRID[::2]:
        traj = integrate(two_agent_config(DelayKind.TRANSMISSION, tau), W0, 40 * tau, IntegratorSpec(tau / 32), False)
        assert abs(gap(traj)[-1]) < 1.0, tau


def test_blow_up_truncates_series():
    traj = integrate(two_agent_config(DelayKind.REACTION, 2.0), W0, 200.0, None, False)
    w = gap(traj)
    assert traj.blow_up_time is not None
    assert np.all(np.isfinite(w))
    assert np.max(np.abs(w)) > 1e10


# ---------------------------------------------------------------------------
# convergence order

def _terminal_error(config, datum, horizon, dt, reference):
    traj = integrate(config, datum, horizon, IntegratorSpec(dt))
    return np.max(np.abs(traj.states[-1] - reference))


def test_rk4_self_convergence_order_at_least_three():
    config = make_config(n_agents=3, dim=1, tau=1.0)
    datum = InitialDatum.constant([[0.0], [0.4], [1.0]])
    horizon = 5.0
    ref = integrate(config, datum, horizon, IntegratorSpec(1.0 / 128)).states[-1]
    e1 = _terminal_error(config, datum, horizon, 1.0 / 8, ref)
    e2 = _terminal_error(config, datum, horizon, 1.0 / 16, ref)
    e3 = _terminal_error(config, datum, horizon, 1.0 / 32, ref)
    assert e1 / e2 >= 8.0
    assert e2 / e3 >= 8.0


def test_rk4_global_error_is_fourth_order_against_the_exact_solution():
    # reaction, normalized weights, constant psi = 1: each deviation from
    # the conserved mean obeys y' = -b y(t - tau) with b = N/(N - 1) exactly,
    # so the error of every node is the stepper's own.  Over 6 delays it
    # read 5.6e-8, 3.5e-9 and 2.2e-10 at q = 16, 32 and 64
    config = make_config(n_agents=5, dim=2, tau=1.0, delay_kind=DelayKind.REACTION,
                         influence=InfluenceFunction.constant(1.0))
    x0 = np.random.default_rng(3).uniform(-1.0, 1.0, (5, 2))
    mean = x0.mean(axis=0)
    errors = []
    for q in (8, 16, 32, 64, 128):
        traj = integrate(config, InitialDatum.constant(x0), 6.0, IntegratorSpec(1.0 / q))
        ahead = traj.grid >= 0.0
        factor = np.array([pure_delay_factor(Fraction(5, 4), 1, t) for t in traj.grid[ahead]])
        errors.append(np.max(np.abs(traj.states[ahead] - (mean + (x0 - mean) * factor[:, None, None]))))
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all((3.9 <= orders) & (orders <= 4.1)), orders
    assert errors[3] < 1e-9


def test_euler_oracle_first_order_and_agreement():
    config = make_config(n_agents=3, dim=1, tau=1.0)
    datum = InitialDatum.constant([[0.0], [0.4], [1.0]])
    horizon = 5.0
    e_coarse = integrate_oracle(config, datum, horizon, IntegratorSpec(1.0 / 32)).states[-1]
    e_mid = integrate_oracle(config, datum, horizon, IntegratorSpec(1.0 / 64)).states[-1]
    e_fine = integrate_oracle(config, datum, horizon, IntegratorSpec(1.0 / 128)).states[-1]
    d1 = np.max(np.abs(e_coarse - e_fine))
    d2 = np.max(np.abs(e_mid - e_fine))
    # order one: halving dt roughly halves the error (Richardson-style ratio)
    assert 1.4 <= d1 / d2 <= 3.0
    rk = integrate(config, datum, horizon, IntegratorSpec(1.0 / 32)).states[-1]
    euler_err_est = 2.0 * np.max(np.abs(e_coarse - e_mid))
    assert np.max(np.abs(rk - e_coarse)) <= 10.0 * euler_err_est


def test_integrator_matches_polynomial_method_of_steps():
    # w' = -2 w(t - tau) from w = 1 on [-tau, 0] is an exact piecewise
    # polynomial: integrate it symbolically segment by segment and compare
    from numpy.polynomial import Polynomial

    tau = 0.4
    # segment k holds w on [(k-1) tau, k tau] in local time; each new
    # segment integrates -2 * previous and matches the left endpoint
    segments = [Polynomial([1.0])]
    for _ in range(3):
        prev = segments[-1]
        nxt = (-2.0 * prev).integ()
        nxt = nxt - nxt(0.0) + prev(tau)
        segments.append(nxt)

    config = make_config(
        n_agents=2, tau=tau, delay_kind=DelayKind.REACTION,
        influence=InfluenceFunction.constant(1.0),
    )
    datum = InitialDatum.constant([[0.5], [-0.5]])
    traj = integrate(config, datum, 3 * tau, IntegratorSpec(tau / 16))
    w = traj.states[:, 0, 0] - traj.states[:, 1, 0]
    for m, t in enumerate(traj.grid):
        if t < 0.0:
            continue
        k = min(int(t / tau + 1e-12), 2) + 1
        local = t - (k - 1) * tau
        assert w[m] == pytest.approx(segments[k](local), abs=1e-12), t


def test_cross_integrator_sign_pattern_toy_feedback():
    config = make_config(
        n_agents=2, tau=0.15, delay_kind=DelayKind.REACTION,
        influence=InfluenceFunction.constant(1.0),
    )
    datum = InitialDatum.constant([[0.5], [-0.5]])
    t_rk = integrate(config, datum, 20 * config.tau, IntegratorSpec(config.tau / 64))
    t_eu = integrate_oracle(config, datum, 20 * config.tau, IntegratorSpec(config.tau / 64))
    w_rk = t_rk.states[:, 0, 0] - t_rk.states[:, 1, 0]
    w_eu = t_eu.states[:, 0, 0] - t_eu.states[:, 1, 0]
    mask = np.abs(w_rk) > 1e-6
    assert np.array_equal(np.sign(w_rk[mask]), np.sign(w_eu[mask]))
    assert np.max(np.abs(w_rk - w_eu)) < 0.05


def test_euler_oracle_steady_state():
    config = make_config(n_agents=3, dim=2, delay_kind=DelayKind.REACTION)
    traj = integrate_oracle(config, consensus_datum(3, 2), 5 * config.tau)
    assert np.max(np.abs(traj.states - traj.states[0])) == 0.0


# ---------------------------------------------------------------------------
# the reference's dense output, which the stepper's lookups are checked against

def test_sample_exact_at_nodes():
    config = make_config(tau=0.5)
    datum = InitialDatum.constant([[0.0], [0.5], [1.0]])
    traj = integrate(config, datum, 5 * config.tau)
    for m in (0, 13, len(traj.grid) - 1):
        assert np.array_equal(sample(traj, float(traj.grid[m])), traj.states[m])


def test_sample_reproduces_linear_trajectory():
    config = make_config(n_agents=2, dim=1, tau=1.0)
    grid = np.linspace(-1.0, 1.0, 9)
    slope = np.array([[2.0], [-1.0]])
    states = np.array([t * slope for t in grid])
    derivs = np.array([slope for _ in grid])
    datum = InitialDatum.sampled([-1.0, 0.0], [(-1.0) * slope, 0.0 * slope])
    traj = Trajectory(
        grid, states, derivs, blocked_dissipation(config, states, 4), blocked_sq_diameter(states), config, datum
    )
    for t in (-0.6, 0.125, 0.3751, 0.99):
        assert np.max(np.abs(sample(traj, t) - t * slope)) <= 1e-12


def test_sample_against_fine_grid_oracle(rng):
    config = make_config(n_agents=3, dim=1, tau=1.0)
    datum = InitialDatum.constant([[0.0], [0.4], [1.0]])
    coarse = integrate(config, datum, 4.0, IntegratorSpec(1.0 / 16))
    fine = integrate(config, datum, 4.0, IntegratorSpec(1.0 / 160))
    for t in rng.uniform(0.0, 4.0, 25):
        assert np.max(np.abs(sample(coarse, t) - sample(fine, t))) < 1e-6


def test_sample_out_of_range():
    config = make_config(tau=0.5)
    traj = integrate(config, consensus_datum(3, 1), 1.0)
    with pytest.raises(OutOfRange):
        sample(traj, traj.grid[-1] + 0.1)
    with pytest.raises(OutOfRange):
        sample(traj, traj.grid[0] - 0.1)


def test_sampled_datum_enters_trajectory():
    config = make_config(n_agents=2, tau=1.0)
    datum = InitialDatum.sampled([-1.0, 0.0], [[[0.0], [1.0]], [[0.0], [2.0]]])
    traj = integrate(config, datum, 1.0)
    assert sample(traj, -0.5)[1, 0] == pytest.approx(1.5, abs=1e-15)
    assert sample(traj, -1.0)[1, 0] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("kind", list(DelayKind))
def test_rk4_delayed_lookups_match_dense_output(monkeypatch, kind):
    # the datum is sampled 10x finer than dt, so its values at the startup
    # midpoints differ from any interpolant of the stored nodes
    config = make_config(n_agents=3, dim=1, tau=1.0, delay_kind=kind)
    times = np.linspace(-1.0, 0.0, 41)
    values = [[[np.sin(3.0 * t)], [np.cos(2.0 * t)], [t * t]] for t in times]
    datum = InitialDatum.sampled(times, values)
    velocity = dynamics.velocity_from_states
    dt, q = 0.25, 4
    # 27 entries hold three 3-agent pair arrays, so a reaction segment's q = 4
    # half-step states take calls of 3 and 1, and so do its full-step
    # states; by default each stack takes one call
    for entries, per_call in ((model.BLOCK_ENTRIES, q), (27, 3)):
        delayed, node_call = [], []

        def spy(config, x_now, x_delayed, D=None, sq_diameter=None):
            delayed.append(np.array(x_delayed))
            node_call.append(sq_diameter is not None)
            return velocity(config, x_now, x_delayed, D, sq_diameter)

        monkeypatch.setattr(dynamics, "velocity_from_states", spy)
        monkeypatch.setattr(model, "BLOCK_ENTRIES", entries)
        # 11 steps: the last delay segment ends after 3 of its 4 steps
        traj = integrate(config, datum, 2.75, IntegratorSpec(dt))
        steps = range(q, traj.grid.size - 1)
        # one call for the derivative at t = 0
        assert len(delayed[0]) == 1 and np.array_equal(delayed[0][0], datum.at(-1.0)) and node_call[0]
        calls, node_call = delayed[1:], node_call[1:]
        if kind is DelayKind.TRANSMISSION:
            # per step: k2, k3 (half step), k4 and the new node's derivative
            # (full step), each on the one step's delayed state
            assert len(calls) == 4 * len(steps)
            assert node_call == [False, False, False, True] * len(steps)
            halves, fulls = [], []
            for step in range(len(steps)):
                half, full = calls[4 * step : 4 * step + 2], calls[4 * step + 2 : 4 * step + 4]
                assert all(np.array_equal(x, half[0]) for x in half)
                assert all(np.array_equal(x, full[0]) for x in full)
                halves.append(half[0])
                fulls.append(full[0])
        else:
            # per delay segment of c steps: its c half-step states, as
            # stages, then its c full-step states, as node calls, each stack
            # in calls of at most per_call states
            halves, fulls, at = [], [], 0
            for a in range(q, traj.grid.size - 1, q):
                c = min(q, traj.grid.size - 1 - a)
                sizes = [min(per_call, c - i) for i in range(0, c, per_call)]
                for stack, is_node_call in ((halves, False), (fulls, True)):
                    chunks = calls[at : at + len(sizes)]
                    assert [len(x) for x in chunks] == sizes
                    assert node_call[at : at + len(sizes)] == [is_node_call] * len(sizes)
                    stack += list(np.concatenate(chunks))
                    at += len(sizes)
            assert at == len(calls)
        assert len(halves) == len(fulls) == len(steps)
        for m, half, full in zip(steps, halves, fulls):
            t_half = float(traj.grid[m]) + 0.5 * dt - config.tau
            t_full = float(traj.grid[m + 1]) - config.tau
            assert np.max(np.abs(half - sample(traj, t_half))) <= 1e-12
            assert np.max(np.abs(full - sample(traj, t_full))) <= 1e-12
        # and each stored derivative is the velocity read at its node
        for m in steps:
            t = float(traj.grid[m + 1])
            assert np.max(np.abs(traj.derivs[m + 1] - rhs(config, traj, t))) <= 1e-12


# ---------------------------------------------------------------------------
# spec validation and blow-up

def test_dt_must_divide_tau():
    with pytest.raises(InvalidConfig):
        IntegratorSpec(0.3).steps_per_delay(1.0)
    with pytest.raises(InvalidConfig):  # tau / dt overflows
        IntegratorSpec(1e-320).steps_per_delay(1.0)
    assert IntegratorSpec(0.25).steps_per_delay(1.0) == 4
    assert IntegratorSpec(1.0 / 3.0).steps_per_delay(1.0) == 3
    # the tolerance is relative to tau: 33 steps of 3e-13 fall 1 % short of 1e-11
    with pytest.raises(InvalidConfig, match="^integrator.dt: "):
        IntegratorSpec(3e-13).steps_per_delay(1e-11)
    assert IntegratorSpec(1e-11 / 64).steps_per_delay(1e-11) == 64


def test_integrate_refuses_a_datum_of_another_shape():
    config = make_config(n_agents=3, dim=1)
    for datum in (consensus_datum(2, 1), consensus_datum(3, 2)):
        with pytest.raises(InvalidDatum, match="^datum: shape .* does not match"):
            integrate(config, datum, 2 * config.tau)


def test_blow_up_reports_time_and_partial():
    config = make_config(
        n_agents=2, tau=2.0, delay_kind=DelayKind.REACTION,
        influence=InfluenceFunction.constant(1.0),
    )
    datum = InitialDatum.constant([[0.5], [-0.5]])
    partial = integrate(config, datum, 200.0)
    # centred at 0 with spread 1, the relative blow-up test reads |x| > 1e12,
    # the absolute rule it replaced, and stops at the same node
    assert partial.blow_up_time == 83.4375
    assert partial.grid.size == 2734
    assert np.all(np.isfinite(partial.states))
    assert partial.grid[-1] < 200.0


def test_rk4_stepper_stops_at_the_first_blown_up_node():
    # u' = 2 u(t - 1) from u = 1 on a (3,) state passes the threshold near t = 32
    q, dt = 4, np.full((1, 1), 0.25)
    states = np.ones((q + 200 + 1, 1, 3))
    derivs = np.zeros_like(states)
    (n_valid,) = dynamics.rk4_method_of_steps(
        lambda x_now, x_del, rows: 2.0 * x_del, states, derivs, states[:q], dt, reads_now=False
    )
    assert q < n_valid < len(states)
    assert np.all(np.abs(states[:n_valid]) <= dynamics.BLOW_UP_THRESHOLD)
    assert np.all(np.abs(states[n_valid]) > dynamics.BLOW_UP_THRESHOLD)


@pytest.mark.parametrize("offset", [0.0, 1e13])
@pytest.mark.parametrize("tau, blows_up", [(0.5, False), (2.0, True)])
def test_rk4_and_euler_oracle_agree_on_blow_up(offset, tau, blows_up):
    # the test is relative to the mean at t = 0, so a translated datum that
    # converges finishes under both integrators and an unstable one stops
    config = make_config(
        n_agents=2, tau=tau, delay_kind=DelayKind.REACTION,
        influence=InfluenceFunction.constant(1.0),
    )
    datum = InitialDatum.constant([[offset + 0.5], [offset - 0.5]])
    spec = IntegratorSpec(tau / 16)
    for run in (integrate, integrate_oracle):
        traj = run(config, datum, 100.0, spec)
        if blows_up:
            assert 0.0 < traj.blow_up_time < 100.0, run.__name__
            assert traj.grid[-1] + spec.dt == traj.blow_up_time
            assert np.all(np.abs(traj.states - offset) <= 1e12)
            if run is integrate_oracle:  # its next step blows up
                assert np.abs(traj.states[-1] + spec.dt * traj.derivs[-1] - offset).max() > 1e12
        else:
            assert traj.blow_up_time is None, run.__name__
            assert traj.grid[-1] == 100.0


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_members_equal_solo_runs(configs, datums, horizons, specs):
    run = integrate(configs, datums, horizons, specs)
    assert run.grid.shape[0] == len(configs)
    for b, args in enumerate(zip(configs, datums, horizons, specs)):
        traj = integrate(*args)
        member = run.trajectories[b]
        assert member.blow_up_time == traj.blow_up_time
        assert member.grid.size == traj.grid.size  # n_valid
        assert same_bits(run.grid[b, : traj.grid.size], traj.grid)
        for name in ("grid", "states", "derivs", "D"):
            assert same_bits(getattr(member, name), getattr(traj, name)), (b, name)
        # D, written with each node's velocity, is the series that a second
        # weight evaluation over the stored nodes gives
        assert same_bits(member.D, blocked_dissipation(configs[b], member.states, member.origin)), b
        # every node's squared diameter, written by its node call or by
        # integrate's tail, is the blocked pair maximum bit for bit
        full = blocked_sq_diameter(member.states)
        for t in (member, traj):
            assert same_bits(t.sq_diameter, full), b
    return run


GROUP_INFLUENCES = (
    InfluenceFunction.constant(1.0),
    InfluenceFunction.constant(0.6),
    InfluenceFunction.algebraic_decay(1.0),
    InfluenceFunction.algebraic_decay(2.5),
    InfluenceFunction.table([[0.0, 1.0], [0.5, 0.7], [2.0, 0.2]]),
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    d=st.integers(min_value=1, max_value=3),
    kind=st.sampled_from(list(DelayKind)),
    scheme=st.sampled_from(list(WeightScheme)),
    influence=st.sampled_from(GROUP_INFLUENCES),
    taus=st.lists(st.floats(min_value=0.05, max_value=16.0), min_size=1, max_size=8),
    q=st.sampled_from([1, 2, 4]),
    delays=st.integers(min_value=1, max_value=30),
    offset=st.sampled_from([0.0, 1e13]),
    sampled=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_group_members_equal_solo_runs_bit_for_bit(
    n, d, kind, scheme, influence, taus, q, delays, offset, sampled, seed
):
    rng = np.random.default_rng(seed)
    n_fwd = delays * q
    configs, datums, horizons, specs = [], [], [], []
    for tau in taus:
        configs.append(make_config(n, d, tau, kind, scheme, influence))
        if sampled:
            datums.append(InitialDatum.sampled([-tau, -tau / 3, 0.0], offset + rng.normal(size=(3, n, d))))
        else:
            datums.append(InitialDatum.constant(offset + rng.normal(size=(n, d))))
        specs.append(IntegratorSpec(tau / q))
        horizons.append(n_fwd * specs[-1].dt)
    run = assert_members_equal_solo_runs(configs, datums, horizons, specs)
    assert run.grid.shape == (len(taus), q + n_fwd + 1)
    blown = sum(t.blow_up_time is not None for t in run.trajectories)
    event(f"{'no' if blown == 0 else 'all' if blown == len(taus) else 'some'} members blow up")


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    d=st.integers(min_value=1, max_value=3),
    kind=st.sampled_from(list(DelayKind)),
    scheme=st.sampled_from(list(WeightScheme)),
    influence=st.sampled_from(GROUP_INFLUENCES),
    tau=st.floats(min_value=0.05, max_value=4.0),
    q=st.sampled_from([1, 3, 8]),
    sampled=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_trajectory_D_equals_the_blocked_series_bit_for_bit(
    n, d, kind, scheme, influence, tau, q, sampled, seed
):
    rng = np.random.default_rng(seed)
    config = make_config(n, d, tau, kind, scheme, influence)
    if sampled:
        datum = InitialDatum.sampled([-tau, -tau / 3, 0.0], rng.normal(size=(3, n, d)))
    else:
        datum = InitialDatum.constant(rng.normal(size=(n, d)))
    traj = integrate(config, datum, 5 * tau, IntegratorSpec(tau / q))
    assert np.all(np.isnan(traj.D[: traj.origin])) and traj.grid[traj.origin] == 0.0
    assert same_bits(traj.D, blocked_dissipation(config, traj.states, traj.origin))


def test_blown_up_members_keep_their_own_node_counts():
    # two agents, reaction, classical, constant psi: tau >= 8 blows up
    # within 20 tau; each member stops where its solo run does
    taus = [0.5, 2.0, 4.0, 8.0, 16.0]
    configs = [
        make_config(2, 1, tau, DelayKind.REACTION, WeightScheme.CLASSICAL_SCALED,
                    InfluenceFunction.constant(1.0))
        for tau in taus
    ]
    datum = InitialDatum.constant([[0.0], [1.0]])
    run = assert_members_equal_solo_runs(
        configs, [datum] * 5, [20.0 * tau for tau in taus], [None] * 5
    )
    assert [t.grid.size for t in run.trajectories] == [1345, 1345, 1345, 1079, 843]
    assert [t.blow_up_time for t in run.trajectories[:3]] == [None, None, None]


@pytest.mark.parametrize("kind", list(DelayKind))
def test_integrate_writes_the_squared_diameter_of_every_node(kind):
    # node calls write the squared diameters of the delayed states they
    # read, and integrate the rest: the last q nodes of a run to its
    # horizon, the nodes after t = 0 of a run shorter than tau, and the
    # nodes that a run or a group member cut short by a blow-up left
    def check(traj):
        assert not np.isnan(traj.sq_diameter).any()
        assert same_bits(traj.sq_diameter, blocked_sq_diameter(traj.states))

    config = make_config(4, 2, 0.5, kind)
    datum = random_datum(np.random.default_rng(3), 4, 2)
    for horizon in (6 * config.tau, 0.3 * config.tau):
        check(integrate(config, datum, horizon))
    # two agents with normalized weights: under reaction delay, tau = 16
    # blows up within 20 tau, and tau = 0.25 and 1 do not
    taus = (0.25, 1.0, 16.0)
    configs = [make_config(2, 1, tau, kind, WeightScheme.NORMALIZED) for tau in taus]
    datums = [InitialDatum.constant([[0.0], [1.0]])] * len(taus)
    horizons = [20 * tau for tau in taus]
    solo = integrate(configs[-1], datums[-1], horizons[-1])
    run = integrate(configs, datums, horizons)
    blown = [t.blow_up_time is not None for t in run.trajectories]
    assert blown == [False, False, kind is DelayKind.REACTION]
    assert (solo.blow_up_time is not None) == blown[-1]
    for traj in (solo, *run.trajectories):
        check(traj)


def test_group_rejects_members_that_differ_beyond_tau():
    a = make_config(tau=1.0)
    b = make_config(tau=2.0, influence=InfluenceFunction.constant(1.0))
    datum = InitialDatum.constant([[0.0], [1.0], [2.0]])
    with pytest.raises(InvalidConfig):
        integrate([a, b], [datum, datum], [20.0, 40.0])
    with pytest.raises(InvalidConfig):  # same q, different step counts
        integrate([a, make_config(tau=2.0)], [datum, datum], [20.0, 20.0])


def per_step_rk4(vel, states, derivs, mids, q, dt, reads_now, center, limit):
    """The RK4 method of steps one node at a time, with two velocity calls a
    reaction step: the reference that the stacked reaction segments of
    rk4_method_of_steps must equal bit for bit."""
    n = len(states)
    n_valid = np.full(len(dt), n)
    half, sixth, eighth = 0.5 * dt, dt / 6.0, 0.125 * dt
    with np.errstate(all="ignore"):
        derivs[q] = vel(states[q], states[0])
        for m in range(q, n - 1):
            j = m - q
            xd_half = mids[j] if j < q else (
                0.5 * (states[j] + states[j + 1]) + eighth * (derivs[j] - derivs[j + 1])
            )
            xd_full = states[m + 1 - q]
            y0, k1 = states[m], derivs[m]
            if reads_now:
                k2 = vel(y0 + half * k1, xd_half)
                k3 = vel(y0 + half * k2, xd_half)
                k4 = vel(y0 + dt * k3, xd_full)
            else:
                k2 = k3 = vel(None, xd_half)
                k4 = vel(None, xd_full)
            y1 = y0 + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            states[m + 1] = y1
            ok = np.abs(y1 - center) <= limit
            if not ok.all():
                blown = ~ok.all(axis=tuple(range(1, ok.ndim)))
                n_valid[blown & (n_valid == n)] = m + 1
                if (n_valid < n).all():
                    return n_valid
            derivs[m + 1] = vel(y1, xd_full) if reads_now else k4
    return n_valid


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5),
    d=st.integers(min_value=1, max_value=3),
    kind=st.sampled_from(list(DelayKind)),
    scheme=st.sampled_from(list(WeightScheme)),
    influence=st.sampled_from(GROUP_INFLUENCES),
    taus=st.lists(st.floats(min_value=0.05, max_value=16.0), min_size=1, max_size=5),
    q=st.integers(min_value=1, max_value=9),
    n_fwd=st.integers(min_value=1, max_value=60),
    tight=st.booleans(),
    per_call=st.sampled_from([None, 1, 2, 3, 7]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rk4_stepper_matches_per_step_loop_bit_for_bit(
    n, d, kind, scheme, influence, taus, q, n_fwd, tight, per_call, seed
):
    # random startup states and midpoints, and a blow-up limit of one spread
    # when tight, so unstable members blow up within the horizon
    rng = np.random.default_rng(seed)
    config = make_config(n, d, 1.0, kind, scheme, influence)
    taus = np.array(taus)
    dt = (taus / q).reshape(-1, 1, 1)
    shape = (q + n_fwd + 1, len(taus), n, d)
    states = np.full(shape, np.nan)
    derivs = np.full(shape, np.nan)
    states[: q + 1] = rng.normal(size=(q + 1,) + shape[1:])
    derivs[:q] = rng.normal(size=(q,) + shape[1:])
    mids = rng.normal(size=(q,) + shape[1:])
    center, limit = dynamics._blow_up_bounds(states[q])
    if tight:
        limit = limit * 1e-12
    reads_now = kind is DelayKind.TRANSMISSION

    ref_states, ref_derivs = states.copy(), derivs.copy()
    D = np.full(shape[:2], np.nan)
    sq_diameter = np.full(shape[:2], np.nan)

    def vel(x_now, x_delayed, rows):  # a node call writes its rows of D and the squared diameters
        if rows is None:
            return dynamics.velocity_from_states(config, x_now, x_delayed)
        return dynamics.velocity_from_states(config, x_now, x_delayed, D[rows], sq_diameter[rows])

    got = dynamics.rk4_method_of_steps(vel, states, derivs, mids, dt, reads_now, center, limit, per_call)
    # the reference forms the velocities alone, by vel's stage form
    want = per_step_rk4(
        lambda x_now, x_del: vel(x_now, x_del, None), ref_states, ref_derivs, mids, q, dt, reads_now, center, limit
    )
    assert np.array_equal(got, want)
    counts = want.tolist()
    for b, count in enumerate(counts):
        # the nodes before the first blown-up one, and that one's state
        cut = count + 1 if count < len(states) else count
        assert same_bits(states[:cut, b], ref_states[:cut, b]), b
        assert same_bits(derivs[:count, b], ref_derivs[:count, b]), b
        assert same_bits(D[:count, b], blocked_dissipation(config, ref_states[:count, b], q)), b
        # row m holds the squared diameter of node m - q, node m's delayed state
        assert same_bits(sq_diameter[q:count, b], blocked_sq_diameter(ref_states[: count - q, b])), b
    blown = sum(c < len(states) for c in counts)
    event(f"{'no' if blown == 0 else 'all' if blown == len(counts) else 'some'} members blow up")
    event("horizon ends mid-segment" if n_fwd % q else "horizon ends on a segment")


KERNEL_INFLUENCES = GROUP_INFLUENCES[1:]  # constant, algebraic (gamma 1 and 2.5) and table psi


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    d=st.sampled_from([1, 2, 3]),
    kind=st.sampled_from(list(DelayKind)),
    scheme=st.sampled_from(list(WeightScheme)),
    influence=st.sampled_from(KERNEL_INFLUENCES),
    lead=st.sampled_from([(2,), (5,), (9,), (2, 3), (3, 3), (4, 2)]),
    offset=st.sampled_from([0.0, 1e13]),
    bad=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kernel_gives_a_state_the_same_bits_alone_and_in_any_stack(
    n, d, kind, scheme, influence, lead, offset, bad, seed
):
    # the stack-last kernel reduces over agents in an order that does not
    # depend on the stack, and copies u into one matmul layout, so a state's
    # velocity, weights and D are those of the state alone; D and the
    # squared diameter are written for every stacked state
    rng = np.random.default_rng(seed)
    config = make_config(n, d, 0.5, kind, scheme, influence)
    x_now = offset + rng.normal(size=lead + (n, d))
    x_del = offset + rng.normal(size=lead + (n, d))
    if bad is not None:
        x_del[tuple(rng.integers(s) for s in x_del.shape)] = bad
    if kind is DelayKind.REACTION:
        x_now = None
    D = np.full(lead, -1.0)
    sq_diameter = np.full_like(D, -1.0)
    with np.errstate(all="ignore"):
        v = velocity_from_states(config, x_now, x_del, D, sq_diameter)
        w = model.weights_from_states(config, x_now, x_del).matrix()
        for idx in np.ndindex(*lead):
            now = None if x_now is None else x_now[idx]
            assert same_bits(velocity_from_states(config, now, x_del[idx]), v[idx]), idx
            assert same_bits(model.weights_from_states(config, now, x_del[idx]).matrix(), w[idx]), idx
            one, one_sq = np.empty(1), np.empty(1)
            velocity_from_states(config, None if now is None else now[None], x_del[idx][None], one, one_sq)
            assert same_bits(one[0], D[idx]), idx
            # the same value; a NaN maximum may differ in its sign bit
            for want in (sq_diameter[idx], model.pair_sq(x_del[idx], x_del[idx]).max()):
                assert np.array_equal(one_sq[0], want, equal_nan=True), idx
    event(f"non-finite state: {bad}" if bad is not None else "finite states")


@pytest.mark.parametrize("kind", list(DelayKind))
@pytest.mark.parametrize("lead", [(), (4,), (2, 3)], ids=["lone", "stack", "member_stack"])
@pytest.mark.parametrize("node_call", [False, True], ids=["stage", "node"])
def test_velocity_lays_out_each_state_once(monkeypatch, kind, lead, node_call):
    # the velocity lays out x_delayed, and x_now for transmission, once as
    # the contiguous (d, N, ...) arrays its product reads, and hands pair_sq
    # their .T views, which pair_sq lays out with no copy
    args, pair_sq = [], model.pair_sq

    def spy(a, b):
        args.extend((a, b))
        return pair_sq(a, b)

    rng = np.random.default_rng(33)
    n, d = 6, 3
    config = make_config(n, d, 0.5, kind)
    # member_stack: the stepper's view of member-major storage, (c, B, N, d)
    x_now, x_del = (rng.normal(size=lead[::-1] + (n, d)).swapaxes(0, 1) if len(lead) == 2
                    else rng.normal(size=lead + (n, d)) for _ in range(2))
    buffers = (np.empty(lead), np.empty(lead)) if node_call else ()
    want = velocity_from_states(config, x_now, x_del, *buffers)
    monkeypatch.setattr(model, "pair_sq", spy)
    monkeypatch.setattr(dynamics, "pair_sq", spy)
    assert same_bits(velocity_from_states(config, x_now, x_del, *buffers), want)
    # one pair array for the weights, and a node call's own for transmission
    assert len(args) == 2 * (1 + (node_call and kind is DelayKind.TRANSMISSION))
    for a in args:
        assert a.shape == lead + (n, d) and a.T.flags.c_contiguous


# ---------------------------------------------------------------------------
# export

def test_trajectory_csv_round_trip(tmp_path, rng):
    config = make_config(n_agents=3, dim=2, tau=0.5)
    datum = random_datum(rng, 3, 2)
    traj = integrate(config, datum, 2 * config.tau, IntegratorSpec(config.tau / 8))
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    times, states = read_trajectory_csv(path)
    assert np.array_equal(times, traj.grid)  # bit-exact decimal round trip
    assert np.array_equal(states, traj.states)
    header = path.read_text().splitlines()[0]
    assert header == "t,agent,component,value"


def reference_trajectory_csv(traj, path):
    """The element-by-element writer that trajectory_to_csv replaced."""
    with open(path, "w", newline="") as fh:
        fh.write("t,agent,component,value\n")
        for m, t in enumerate(traj.grid):
            ts = format(float(t), ".17g")
            for i in range(traj.config.n_agents):
                for k in range(traj.config.dim):
                    fh.write(f"{ts},{i},{k},{format(float(traj.states[m, i, k]), '.17g')}\n")


def test_trajectory_csv_bytes_match_reference_writer(tmp_path, rng, monkeypatch):
    config = make_config(n_agents=4, dim=3, tau=0.5)
    datum = random_datum(rng, 4, 3, low=-2.0, high=2.0)
    traj = integrate(config, datum, 2 * config.tau, IntegratorSpec(config.tau / 8))
    states = traj.states.copy()
    states[1, 0, 0] = -0.0
    states[2, 1, 1] = 5e-324
    states[3, 2, 2] = -1.2345678901234567e300
    states[4, 3, 0] = 1e300
    states[5, 0, 1] = -1e300
    traj = Trajectory(traj.grid, states, traj.derivs, traj.D, traj.sq_diameter, config, datum)
    trajectory_to_csv(traj, tmp_path / "new.csv")
    reference_trajectory_csv(traj, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    # the partial trajectory of a blown-up run, near the blow-up threshold
    config = make_config(n_agents=2, tau=2.0, delay_kind=DelayKind.REACTION,
                         influence=InfluenceFunction.constant(1.0))
    partial = integrate(config, InitialDatum.constant([[0.5], [-0.5]]), 200.0,
                        IntegratorSpec(config.tau / 8))
    assert partial.blow_up_time is not None
    reference_trajectory_csv(partial, tmp_path / "partial_ref.csv")
    # nodes are written in blocks of block_length(N d) nodes: one block, then
    # blocks of 1 and of 20 nodes
    for block_entries in (model.BLOCK_ENTRIES, 1, 40):
        monkeypatch.setattr(model, "BLOCK_ENTRIES", block_entries)
        trajectory_to_csv(partial, tmp_path / "partial.csv")
        assert (tmp_path / "partial.csv").read_bytes() == (tmp_path / "partial_ref.csv").read_bytes(), block_entries


def test_table_influence_through_integration(rng):
    table = InfluenceFunction.table([(0.0, 1.0), (0.5, 0.4), (2.0, 0.9)])
    for kind in DelayKind:
        for scheme in WeightScheme:
            config = make_config(n_agents=4, dim=1, tau=0.4, delay_kind=kind,
                                 weight_scheme=scheme, influence=table)
            datum = random_datum(rng, 4, 1)
            traj = integrate(config, datum, 20 * config.tau)
            gap = traj.states.max(axis=(1, 2)) - traj.states.min(axis=(1, 2))
            assert gap[-1] < 1e-2 * max(gap[0], 1e-12)


def test_sampled_datum_transmission_consensus():
    # ramped startup trajectories, then free evolution toward consensus
    config = make_config(n_agents=3, dim=1, tau=1.0)
    times = [-1.0, -0.5, 0.0]
    vals = [
        [[0.0], [1.0], [2.0]],
        [[0.1], [0.9], [1.8]],
        [[0.2], [0.8], [1.6]],
    ]
    datum = InitialDatum.sampled(times, vals)
    traj = integrate(config, datum, 30 * config.tau)
    assert np.array_equal(sample(traj, -0.5), np.asarray(vals[1], dtype=float))
    gap = traj.states[-1].max() - traj.states[-1].min()
    assert gap < 1e-6
