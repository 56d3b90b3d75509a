import cmath
import math

import numpy as np
import pytest

from hkdelay import (
    DelayKind,
    ToyRegime,
    classify_regime,
    count_sign_changes,
    fitted_decay_rate,
    rightmost_root,
    simulate_toy,
)

TAU_GRID = [0.05 * k for k in range(1, 41)]


# ---------------------------------------------------------------------------
# regime classification

def test_regimes_by_delay_length():
    assert classify_regime(DelayKind.REACTION, 0.15) is ToyRegime.NON_OSCILLATORY_STABLE
    assert classify_regime(DelayKind.REACTION, 0.5) is ToyRegime.OSCILLATORY_STABLE
    assert classify_regime(DelayKind.REACTION, 1.0) is ToyRegime.UNSTABLE
    assert classify_regime(DelayKind.TRANSMISSION, 0.5) is ToyRegime.ALWAYS_STABLE
    assert classify_regime(DelayKind.TRANSMISSION, 100.0) is ToyRegime.ALWAYS_STABLE


def test_regime_boundary_flags():
    for threshold in (math.exp(-1.0), math.pi / 2.0):
        tau = threshold / 2.0
        assert classify_regime(DelayKind.REACTION, tau) is ToyRegime.BOUNDARY
        assert classify_regime(DelayKind.REACTION, tau + 1e-10) is ToyRegime.BOUNDARY
        assert classify_regime(DelayKind.REACTION, tau + 1e-6) is not ToyRegime.BOUNDARY
        assert classify_regime(DelayKind.REACTION, tau - 1e-6) is not ToyRegime.BOUNDARY


# ---------------------------------------------------------------------------
# characteristic roots

def test_transmission_roots_always_in_left_half_plane():
    for tau in (0.1, 1.0, 10.0):
        root = rightmost_root(DelayKind.TRANSMISSION, tau)
        assert root.re < 0.0
        assert root.residual <= 1e-10


def test_reaction_root_real_negative_in_first_regime():
    root = rightmost_root(DelayKind.REACTION, 0.15)
    assert root.im == pytest.approx(0.0, abs=1e-8)
    assert root.re < 0.0
    # verify against the characteristic function directly
    assert abs(root.re + 2.0 * math.exp(-root.re * 0.15)) <= 1e-9


def test_reaction_root_unstable_for_long_delay():
    root = rightmost_root(DelayKind.REACTION, 1.0)
    assert root.re > 0.0
    assert root.residual <= 1e-10
    # growth confirmed by simulation amplitude
    series = simulate_toy(DelayKind.REACTION, 1.0, 1.0, horizon=30.0)
    a = np.abs(series.w)
    assert a[series.times > 25.0].max() > 10.0 * a[(series.times > 0) & (series.times < 5.0)].max()


def test_simulate_toy_default_horizon_is_forty_delays():
    default = simulate_toy(DelayKind.REACTION, 0.3, 1.0)
    explicit = simulate_toy(DelayKind.REACTION, 0.3, 1.0, horizon=40 * 0.3)
    assert default.times[-1] == 40 * 0.3
    assert np.array_equal(default.w, explicit.w)


def test_reaction_root_satisfies_rescaled_equation():
    # eta = xi * tau solves eta + 2 tau e^{-eta} = 0 whenever xi solves
    # xi + 2 e^{-xi tau} = 0
    for tau in (0.15, 0.5, 1.0):
        root = rightmost_root(DelayKind.REACTION, tau)
        xi = complex(root.re, root.im)
        eta = xi * tau
        assert abs(eta + 2.0 * tau * cmath.exp(-eta)) <= 1e-9


def test_root_regime_consistency_on_grid():
    for tau in TAU_GRID:
        regime = classify_regime(DelayKind.REACTION, tau)
        if regime is ToyRegime.BOUNDARY:
            continue
        root = rightmost_root(DelayKind.REACTION, tau)
        if regime is ToyRegime.UNSTABLE:
            assert root.re > 0.0, tau
        else:
            assert root.re < 0.0, tau


# ---------------------------------------------------------------------------
# simulation

def test_zero_start_stays_zero():
    series = simulate_toy(DelayKind.REACTION, 0.3, 0.0, horizon=3.0)
    assert np.max(np.abs(series.w)) == 0.0


def test_short_delay_never_oscillates():
    tau = 0.15
    series = simulate_toy(DelayKind.REACTION, tau, 1.0, horizon=20 * tau)
    fwd = series.times > 0
    assert count_sign_changes(series.w[fwd]) == 0
    assert abs(series.w[-1]) < 1e-3


def test_intermediate_delay_damped_oscillations():
    tau = 0.5
    series = simulate_toy(DelayKind.REACTION, tau, 1.0, horizon=40 * tau)
    fwd = series.times > 0
    assert count_sign_changes(series.w[fwd]) >= 3
    a = np.abs(series.w)
    interior = np.arange(1, a.size - 1)
    peaks = interior[(a[interior] > a[interior - 1]) & (a[interior] >= a[interior + 1])]
    peaks = peaks[a[peaks] > 1e-12]
    assert peaks.size >= 3
    assert np.all(np.diff(a[peaks][1:]) < 0.0)


def test_oscillation_presence_matches_regime_on_grid():
    for tau in TAU_GRID:
        regime = classify_regime(DelayKind.REACTION, tau)
        if regime is ToyRegime.BOUNDARY:
            continue
        series = simulate_toy(DelayKind.REACTION, tau, 1.0, horizon=40 * tau, dt=tau / 32)
        window = (series.times >= 5 * tau) & (series.times <= 40 * tau)
        changes = count_sign_changes(series.w[window])
        if regime is ToyRegime.NON_OSCILLATORY_STABLE:
            assert changes < 2, tau
        else:
            assert changes >= 2, tau


def test_transmission_amplitude_decays_on_grid():
    for tau in TAU_GRID[::2]:
        series = simulate_toy(DelayKind.TRANSMISSION, tau, 1.0, horizon=40 * tau, dt=tau / 32)
        assert abs(series.w[-1]) < 1.0, tau


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
        root = rightmost_root(kind, tau)
        series = simulate_toy(kind, tau, 1.0, horizon=40 * tau)
        rate = fitted_decay_rate(series, t_lo=5 * tau)
        assert rate is not None
        assert rate == pytest.approx(-root.re, rel=0.10), (kind, tau)


def reference_fitted_rate(series):
    """The least-squares slope that fitted_decay_rate computed itself before
    it called metrics.fit_decay_rate."""
    t, a = series.times, np.abs(series.w)
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
    series = simulate_toy(kind, tau, 1.0, horizon=40 * tau)
    assert fitted_decay_rate(series) == reference_fitted_rate(series)


def test_blow_up_truncates_series():
    series = simulate_toy(DelayKind.REACTION, 2.0, 1.0, horizon=200.0)
    assert series.blow_up_time is not None
    assert np.all(np.isfinite(series.w))
    assert np.max(np.abs(series.w)) > 1e10
