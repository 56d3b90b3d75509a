import cmath
import math

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hkdelay.model import DelayKind, InfluenceFunction, InitialDatum, SystemConfig, WeightScheme, check_icass
from hkdelay.dynamics import IntegratorSpec, integrate
from hkdelay.metrics import compute_metrics, count_sign_changes, fitted_decay_rate, fit_c_emp
from hkdelay.rates import (
    Regime,
    check_preconditions,
    classify_regime,
    linear_coefficients,
    rightmost_root,
    theorem_rates,
    two_agent_config,
)
from hkdelay.cli import toy_record

from reference import char_residual, gap

TAU_GRID = [0.05 * k for k in range(1, 41)]
# (a, b) of the two-agent toy, whose gap obeys w' = -a w(t) - b w(t - tau)
REACTION = linear_coefficients(two_agent_config(DelayKind.REACTION, 1.0))
TRANSMISSION = linear_coefficients(two_agent_config(DelayKind.TRANSMISSION, 1.0))
COEFFICIENTS = {DelayKind.REACTION: REACTION, DelayKind.TRANSMISSION: TRANSMISSION}
# the toy's constant history, w = x_1 - x_2 = 1
W0 = InitialDatum.constant([[0.5], [-0.5]])


# ---------------------------------------------------------------------------
# regime classification

def test_regimes_by_delay_length():
    assert (REACTION, TRANSMISSION) == ((0.0, 2.0), (1.0, 1.0))
    assert classify_regime(*REACTION, 0.15) is Regime.NON_OSCILLATORY_STABLE
    assert classify_regime(*REACTION, 0.5) is Regime.OSCILLATORY_STABLE
    assert classify_regime(*REACTION, 1.0) is Regime.UNSTABLE
    assert classify_regime(*TRANSMISSION, 0.5) is Regime.ALWAYS_STABLE
    assert classify_regime(*TRANSMISSION, 100.0) is Regime.ALWAYS_STABLE


def test_regime_boundary_flags():
    for threshold in (math.exp(-1.0), math.pi / 2.0):
        tau = threshold / 2.0
        assert classify_regime(*REACTION, tau) is Regime.BOUNDARY
        assert classify_regime(*REACTION, tau + 1e-10) is Regime.BOUNDARY
        assert classify_regime(*REACTION, tau + 1e-6) is not Regime.BOUNDARY
        assert classify_regime(*REACTION, tau - 1e-6) is not Regime.BOUNDARY


# ---------------------------------------------------------------------------
# characteristic roots

def test_transmission_roots_always_in_left_half_plane():
    for tau in (0.1, 1.0, 10.0):
        root = rightmost_root(*TRANSMISSION, tau)
        assert root.re < 0.0
        assert char_residual(root, *TRANSMISSION, tau) <= 1e-10


def test_reaction_root_real_negative_in_first_regime():
    root = rightmost_root(*REACTION, 0.15)
    assert root.im == pytest.approx(0.0, abs=1e-8)
    assert root.re < 0.0
    # verify against the characteristic function directly
    assert abs(root.re + 2.0 * math.exp(-root.re * 0.15)) <= 1e-9


def test_reaction_root_unstable_for_long_delay():
    root = rightmost_root(*REACTION, 1.0)
    assert root.re > 0.0
    assert char_residual(root, *REACTION, 1.0) <= 1e-10
    # growth confirmed by simulation amplitude
    traj = integrate(two_agent_config(DelayKind.REACTION, 1.0), W0, 30.0, None, False)
    a, t = np.abs(gap(traj)), traj.grid
    assert a[t > 25.0].max() > 10.0 * a[(t > 0) & (t < 5.0)].max()


@pytest.mark.parametrize("kind, tau", [
    (DelayKind.REACTION, 0.3),
    (DelayKind.TRANSMISSION, 0.3),
    (DelayKind.REACTION, 16.0),  # blows up
])
def test_toy_record_integrates_forty_delays_at_the_default_step(kind, tau):
    record = toy_record(kind, tau)
    assert record == toy_record(kind, tau, horizon=40 * tau, dt=tau / 64)
    config = two_agent_config(kind, tau)
    traj = integrate(config, W0, 40 * tau, IntegratorSpec(tau / 64))
    w = gap(traj)
    a, b = linear_coefficients(config)
    assert record == {
        "tau": tau,
        "regime": classify_regime(a, b, tau).value,
        "rightmost_root": rightmost_root(a, b, tau).to_dict(),
        "sign_changes": count_sign_changes(w[traj.grid > 0.0]),
        "fitted_rate": fitted_decay_rate(traj.grid, w),
    }
    if tau == 16.0:
        assert traj.blow_up_time is not None and record["fitted_rate"] < 0.0
    else:
        assert traj.blow_up_time is None and traj.grid[-1] == 40 * tau


def test_reaction_root_satisfies_rescaled_equation():
    # eta = xi * tau solves eta + 2 tau e^{-eta} = 0 whenever xi solves
    # xi + 2 e^{-xi tau} = 0
    for tau in (0.15, 0.5, 1.0):
        root = rightmost_root(*REACTION, tau)
        xi = complex(root.re, root.im)
        eta = xi * tau
        assert abs(eta + 2.0 * tau * cmath.exp(-eta)) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(min_value=0.0, max_value=20.0),
    b=st.floats(min_value=1e-9, max_value=1e3),
    tau=st.floats(min_value=1e-9, max_value=1e4),
)
def test_rightmost_root_is_the_principal_branch_of_lambert_w(a, b, tau):
    # xi* = W0(-r)/tau - a with r = b tau e^{a tau}; near r = 1/e, where
    # W0 and W-1 meet in a double root, no digits are to be had
    lambertw = pytest.importorskip("scipy.special").lambertw
    assume(a * tau <= 50.0)
    r = b * tau * math.exp(a * tau)
    assume(abs(r * math.e - 1.0) > 1e-6)
    root = rightmost_root(a, b, tau)
    expected = complex(lambertw(-r, 0)) / tau - a
    expected = complex(expected.real, abs(expected.imag))
    tol = 1e-12 * abs(expected)
    assert abs(complex(root.re, root.im) - expected) <= tol
    if r <= math.exp(-1.0):
        assert root.im == 0.0
    for k in (-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6):
        # beyond 1/e, W-1(-r) is the conjugate of W0(-r): equal real parts
        assert root.re >= (complex(lambertw(-r, k)) / tau - a).real - tol, k


@pytest.mark.parametrize("n, expected", [
    # the multistart search returned -0.015379 + 0.261i at N = 100 and
    # found no root at N = 1000
    (100, complex(-0.015265974371582983, 0.010436648687093254)),
    (1000, complex(-0.022945330500666748, 0.0104363719937635)),
])
def test_rightmost_root_of_long_normalized_transmission(n, expected):
    config = SystemConfig(n, 2, 300.0, DelayKind.TRANSMISSION, WeightScheme.NORMALIZED, InfluenceFunction.constant(1.0))
    root = rightmost_root(*linear_coefficients(config), 300.0)
    assert complex(root.re, root.im) == pytest.approx(expected, rel=1e-12)
    assert char_residual(root, *linear_coefficients(config), 300.0) <= 1e-14


@pytest.mark.parametrize("tau", [5e-324, 1e-300, 1e300, 1.7e308])
@pytest.mark.parametrize("kind", list(DelayKind))
def test_rightmost_root_at_extreme_delays_is_finite_and_quiet(kind, tau):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        root = rightmost_root(*COEFFICIENTS[kind], tau)
    residual = char_residual(root, *COEFFICIENTS[kind], tau)
    assert math.isfinite(root.re) and math.isfinite(root.im) and math.isfinite(residual)
    # b tau e^{a tau} is 2e-300 at tau = 1e-300: xi* is real, -a - b to
    # 300 digits; w/tau - a read -3.0 at tau = 5e-324
    if tau < 1.0:
        assert root.im == 0.0 and root.re == -sum(COEFFICIENTS[kind])


def test_rightmost_root_past_the_exponential_range():
    # a tau - w = 720: e^720 overflows, and xi* = w/tau - a, where
    # w = -b tau e^{a tau - w} is about -e^(720 - 744.4)
    root = rightmost_root(720.0, 5e-324, 1.0)
    assert root.im == 0.0 and root.re == pytest.approx(-720.0 - math.exp(720.0 + math.log(5e-324)), rel=1e-15)


def test_root_regime_consistency_on_grid():
    for tau in TAU_GRID:
        regime = classify_regime(*REACTION, tau)
        if regime is Regime.BOUNDARY:
            continue
        root = rightmost_root(*REACTION, tau)
        if regime is Regime.UNSTABLE:
            assert root.re > 0.0, tau
        else:
            assert root.re < 0.0, tau


# ---------------------------------------------------------------------------
# simulation

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


def test_oscillation_presence_matches_regime_on_grid():
    for tau in TAU_GRID:
        regime = classify_regime(*REACTION, tau)
        if regime is Regime.BOUNDARY:
            continue
        traj = integrate(two_agent_config(DelayKind.REACTION, tau), W0, 40 * tau, IntegratorSpec(tau / 32), False)
        window = (traj.grid >= 5 * tau) & (traj.grid <= 40 * tau)
        changes = count_sign_changes(gap(traj)[window])
        if regime is Regime.NON_OSCILLATORY_STABLE:
            assert changes < 2, tau
        else:
            assert changes >= 2, tau


def test_transmission_amplitude_decays_on_grid():
    for tau in TAU_GRID[::2]:
        traj = integrate(two_agent_config(DelayKind.TRANSMISSION, tau), W0, 40 * tau, IntegratorSpec(tau / 32), False)
        assert abs(gap(traj)[-1]) < 1.0, tau


def test_fitted_rate_matches_root_in_stable_regimes():
    cases = [
        (DelayKind.REACTION, 0.1),
        (DelayKind.REACTION, 0.15),
        (DelayKind.REACTION, 0.5),
        (DelayKind.REACTION, 0.7),
        (DelayKind.TRANSMISSION, 0.25),
        (DelayKind.TRANSMISSION, 1.0),
    ]
    for kind, tau in cases:
        root = rightmost_root(*COEFFICIENTS[kind], tau)
        rate = toy_record(kind, tau, horizon=40 * tau, t_lo=5 * tau)["fitted_rate"]
        assert rate is not None
        assert rate == pytest.approx(-root.re, rel=0.10), (kind, tau)


def reference_fitted_rate(traj):
    """The least-squares slope that fitted_decay_rate computed itself before
    it called metrics.fit_decay_rate."""
    t, a = traj.grid, np.abs(gap(traj))
    idx = np.where((t >= 0.2 * float(t[-1])) & (a > 1e-13))[0]
    interior = idx[(idx > 0) & (idx < t.size - 1)]
    peaks = interior[(a[interior] > a[interior - 1]) & (a[interior] >= a[interior + 1])]
    tt, yy = (t[peaks], np.log(a[peaks])) if peaks.size >= 4 else (t[idx], np.log(a[idx]))
    tc = tt - tt.mean()
    return -float((tc * (yy - yy.mean())).sum() / float((tc * tc).sum()))


@pytest.mark.parametrize("kind, tau", [
    (DelayKind.REACTION, 0.1),  # monotone: fitted on log |w|
    (DelayKind.REACTION, 0.5),  # oscillating: fitted on its peaks
    (DelayKind.REACTION, 0.9),  # growing
    (DelayKind.REACTION, 16.0),  # blows up
    (DelayKind.TRANSMISSION, 2.0),
])
def test_fitted_rate_equals_its_least_squares_slope_bit_for_bit(kind, tau):
    # hkdelay toy prints this rate with all its digits
    traj = integrate(two_agent_config(kind, tau), W0, 40 * tau, None, False)
    assert toy_record(kind, tau, horizon=40 * tau)["fitted_rate"] == reference_fitted_rate(traj)


def test_blow_up_truncates_series():
    traj = integrate(two_agent_config(DelayKind.REACTION, 2.0), W0, 200.0, None, False)
    w = gap(traj)
    assert traj.blow_up_time is not None
    assert np.all(np.isfinite(w))
    assert np.max(np.abs(w)) > 1e10


# ---------------------------------------------------------------------------
# the linearization at consensus for every N

@pytest.mark.parametrize("scheme, c", [(WeightScheme.NORMALIZED, 1.0), (WeightScheme.CLASSICAL_SCALED, 0.8)])
@pytest.mark.parametrize("n", [2, 3, 12])
def test_linear_coefficients_read_psi_at_zero_and_n(scheme, c, n):
    # c = psi(0), or 1 for normalized weights; a table starting at 0.8
    psi = InfluenceFunction.table([[0.0, 0.8], [1.0, 0.4]])
    reaction = SystemConfig(n, 2, 0.4, DelayKind.REACTION, scheme, psi)
    transmission = SystemConfig(n, 2, 0.4, DelayKind.TRANSMISSION, scheme, psi)
    assert linear_coefficients(reaction) == (0.0, c * n / (n - 1))
    assert linear_coefficients(transmission) == (c, c / (n - 1))


def test_two_agent_classical_regime_reads_psi_at_zero():
    # psi = 0.5 with classical weights halves the toy's b: b tau = 0.3 is
    # below 1/e, with a real rightmost root, and b tau = 1 below pi/2
    config = SystemConfig(2, 1, 0.3, DelayKind.REACTION, WeightScheme.CLASSICAL_SCALED,
                          InfluenceFunction.constant(0.5))
    a, b = linear_coefficients(config)
    assert (a, b) == (0.0, 1.0)
    assert classify_regime(a, b, 0.3) is Regime.NON_OSCILLATORY_STABLE
    assert classify_regime(a, b, 1.0) is Regime.OSCILLATORY_STABLE
    root = rightmost_root(a, b, 0.3)
    assert root.im == 0.0 and root.re == pytest.approx(-1.6313, abs=1e-4)
    traj = integrate(config, W0, 40 * config.tau, None, False)
    assert fitted_decay_rate(traj.grid, gap(traj)) == pytest.approx(-root.re, rel=1e-3)


LINEAR_TAUS = (0.1, 0.4, 0.7)


@pytest.mark.parametrize("n", [3, 5, 12])
@pytest.mark.parametrize("scheme", list(WeightScheme))
@pytest.mark.parametrize("kind", list(DelayKind))
def test_c_emp_is_the_linear_rate_where_the_rightmost_root_is_real(kind, scheme, n):
    # with constant psi the system is linear, so its diameter decays at
    # C_lin = -Re xi* of the rightmost root of xi + b e^{-xi tau} + a; a
    # complex root makes d_x oscillate about that line, so only real roots
    # are compared
    configs = [SystemConfig(n, 2, tau, kind, scheme, InfluenceFunction.constant(0.7)) for tau in LINEAR_TAUS]
    datum = InitialDatum.constant(np.random.default_rng(n).uniform(-1.0, 1.0, (n, 2)))
    group = integrate(configs, [datum] * len(configs), [30.0 * tau for tau in LINEAR_TAUS])
    compared = 0
    for config, traj in zip(configs, group.trajectories):
        root = rightmost_root(*linear_coefficients(config), config.tau)
        assert root.re < 0.0
        if root.im == 0.0:
            c_emp = fit_c_emp(compute_metrics(traj))
            assert c_emp == pytest.approx(-root.re, rel=0.01), config.tau
            compared += 1
    assert compared >= 1


def test_theorem_rates_do_not_exceed_the_linear_rate():
    # a theorem rate bounds the decay of every datum it admits, so it is at
    # most C_lin, the decay of data near consensus; at N = 100 and long
    # delays the rightmost root lies close to the imaginary axis
    rng = np.random.default_rng(3)
    checked = 0
    for n in (3, 5, 20, 100):
        datum = InitialDatum.constant(rng.uniform(-1.0, 1.0, (n, 2)))
        for tau in np.geomspace(0.02, 600.0, 25):
            for kind in DelayKind:
                for psi in (InfluenceFunction.constant(0.7), InfluenceFunction.algebraic_decay(1.0)):
                    config = SystemConfig(n, 2, tau, kind, WeightScheme.NORMALIZED, psi)
                    report = check_preconditions(config, datum, check_icass(datum, config))
                    theoretical, _ = theorem_rates(config, report)
                    root = rightmost_root(*linear_coefficients(config), tau)
                    for name, rate in theoretical.items():
                        assert rate["C"] <= -root.re, (name, n, tau, kind, psi.kind)
                        checked += 1
    assert checked >= 90
