import cmath
import itertools
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hkdelay.errors import InvalidDatum, InvalidProblem
from hkdelay.model import (
    DelayKind,
    InfluenceFunction,
    InfluenceKind,
    InitialDatum,
    SystemConfig,
    WeightScheme,
    check_icass,
    squared_diameter,
    psi_floor,
    radius,
)
from hkdelay.dynamics import IntegratorSpec, integrate
from hkdelay.metrics import compute_metrics, count_sign_changes, fit_c_emp, fitted_decay_rate
from hkdelay.rates import (
    HalanayProblem,
    Measure,
    Regime,
    THEOREMS,
    check_preconditions,
    classify_regime,
    linear_coefficients,
    rightmost_root,
    solve_halanay,
    theorem_rates,
    two_agent_config,
)

from conftest import COEFFICIENTS, REACTION, TAU_GRID, TRANSMISSION, W0, make_config
from lemmas import convexity_bound_check, shrink_factor, shrink_iteration, simulate_equality_case
from reference import char_residual, gap


def scan_root(alpha, beta, tau, measure, n=2_000_001):
    """Independent oracle: locate the sign change of beta - C - alpha*K(C)."""
    cs = np.linspace(0.0, beta - alpha, n)
    x = cs * tau
    if measure is Measure.DIRAC_AT_ZERO:
        rhs = alpha * np.exp(x)
    else:
        with np.errstate(invalid="ignore"):
            rhs = alpha * np.exp(x) * np.expm1(x) / x
        rhs[0] = alpha
    f = beta - cs - rhs
    idx = int(np.argmax(f <= 0.0))
    return float(cs[idx - 1]), float(cs[idx])


# ---------------------------------------------------------------------------
# rate equation solver

def test_halanay_tiny_delay_limit():
    res = solve_halanay(HalanayProblem(0.5, 1.0, 1e-12, Measure.DIRAC_AT_ZERO))
    assert res.C == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize(
    "alpha,beta,tau,measure",
    [
        (0.5, 1.0, 1.0, Measure.DIRAC_AT_ZERO),
        (0.2, 1.0, 0.1, Measure.UNIFORM_ON_DELAY),
        (0.9, 1.3, 2.5, Measure.DIRAC_AT_ZERO),
        (0.05, 0.4, 4.0, Measure.UNIFORM_ON_DELAY),
    ],
)
def test_halanay_matches_scan_oracle(alpha, beta, tau, measure):
    res = solve_halanay(HalanayProblem(alpha, beta, tau, measure))
    lo, hi = scan_root(alpha, beta, tau, measure)
    assert lo <= res.C <= hi
    assert abs(res.residual) <= 1e-12
    assert 0.0 < res.C < beta - alpha


def test_halanay_residual_and_interval_on_grid():
    for beta in np.linspace(0.2, 2.0, 6):
        for frac in np.linspace(0.05, 0.95, 6):
            for tau in (1e-3, 0.3, 2.0):
                for measure in Measure:
                    res = solve_halanay(HalanayProblem(frac * beta, beta, tau, measure))
                    assert abs(res.residual) <= 1e-12
                    assert 0.0 < res.C < beta - frac * beta


@settings(max_examples=150, deadline=None)
@given(
    log_tau=st.floats(-20.0, 8.0),
    beta=st.floats(0.05, 5.0),
    frac=st.floats(0.01, 0.99),
    measure=st.sampled_from(list(Measure)),
)
def test_halanay_certified_side_across_scales(log_tau, beta, frac, measure):
    # (beta - alpha) tau / 2 passes 709.78 from tau ~ 285 on: the first
    # midpoint's kernel overflows there, which bisection reads as "above the root"
    alpha, tau = frac * beta, 10.0 ** log_tau
    res = solve_halanay(HalanayProblem(alpha, beta, tau, measure))
    assert 0.0 < res.C < beta - alpha
    assert 0.0 <= res.residual <= 1e-12
    with np.errstate(over="ignore"):
        lo, hi = scan_root(alpha, beta, tau, measure, n=200_001)
    if lo < hi:  # the scan found the sign change
        assert lo <= res.C <= hi


def decimal_excess(problem, c):
    """ln(beta - C) - ln(alpha K(C)) in 50-digit decimals, at x = C tau as
    floats round it."""
    with localcontext() as ctx:
        ctx.prec = 50
        x = Decimal(c * problem.tau)
        log_k = x if problem.measure is Measure.DIRAC_AT_ZERO else x + (x.exp() - 1).ln() - x.ln()
        return (Decimal(problem.beta) - Decimal(c)).ln() - Decimal(problem.alpha).ln() - log_k


def test_halanay_uniform_root_past_the_overflow_of_its_product():
    # K(C) = e^x (e^x - 1)/x, x = C tau, is finite up to x = 357.7, but the
    # product e^x expm1(x) overflows from x = 354.9; this root lies between,
    # at x = 357.5
    problem = HalanayProblem(1.0, 1e308, 1e308, Measure.UNIFORM_ON_DELAY)
    res = solve_halanay(problem)
    assert abs(res.residual) <= 1e-12 * problem.beta
    # the bracket that bisect closed, [C, next float], holds the sign change
    assert decimal_excess(problem, res.C) > 0 >= decimal_excess(problem, math.nextafter(res.C, math.inf))


@pytest.mark.parametrize("measure", list(Measure))
def test_halanay_root_past_the_overflow_of_the_kernel(measure):
    # K(C) overflows from x = C tau = 709.78 (357.7 for the uniform kernel),
    # but alpha K(C) with alpha = 1e-300 stays finite up to the root near
    # x = ln(beta/alpha) = 1400
    problem = HalanayProblem(1e-300, 1e308, 1e308, measure)
    res = solve_halanay(problem)
    assert abs(res.residual) <= 1e-12 * problem.beta
    assert decimal_excess(problem, res.C) > 0 >= decimal_excess(problem, math.nextafter(res.C, math.inf))


def test_halanay_residual_on_a_grid_of_scales():
    # 72 of these 288 problems have a root past the overflow of K(C)
    for alpha, beta, tau, measure in itertools.product(
        (1e-300, 1e-100, 1e-10, 0.3, 0.5, 0.999999), (1.0, 2.0, 1e10, 1e308),
        (1e-3, 0.25, 1.0, 300.0, 1e5, 1e308), list(Measure),
    ):
        if alpha < beta:
            res = solve_halanay(HalanayProblem(alpha, beta, tau, measure))
            assert abs(res.residual) <= 1e-12 * beta, (alpha, beta, tau, measure)


def test_halanay_monotonicity():
    for measure in Measure:
        c_tau = [solve_halanay(HalanayProblem(0.4, 1.0, t, measure)).C for t in (0.1, 0.5, 2.0)]
        assert c_tau[0] > c_tau[1] > c_tau[2]
        c_alpha = [solve_halanay(HalanayProblem(a, 1.0, 0.5, measure)).C for a in (0.2, 0.4, 0.8)]
        assert c_alpha[0] > c_alpha[1] > c_alpha[2]
        c_beta = [solve_halanay(HalanayProblem(0.4, b, 0.5, measure)).C for b in (0.6, 1.0, 1.5)]
        assert c_beta[0] < c_beta[1] < c_beta[2]


def test_halanay_invalid_problems():
    with pytest.raises(InvalidProblem):
        HalanayProblem(1.0, 1.0, 0.5)
    with pytest.raises(InvalidProblem):
        HalanayProblem(-0.1, 1.0, 0.5)
    with pytest.raises(InvalidProblem):
        HalanayProblem(0.5, 1.0, 0.0)


def test_equality_case_matches_closed_form_on_first_segment():
    # for t in [0, tau]: u' = alpha - beta u, so u = a/b + (1 - a/b) e^{-bt}
    alpha, beta, tau = 0.4, 1.2, 0.8
    times, u = simulate_equality_case(alpha, beta, tau, horizon_delays=1)
    exact = alpha / beta + (1 - alpha / beta) * np.exp(-beta * times)
    assert np.max(np.abs(u - exact)) < 1e-9


def test_equality_case_respects_rate_bound():
    alpha, beta, tau = 0.5, 1.0, 1.0
    times, u = simulate_equality_case(alpha, beta, tau)
    for measure in Measure:
        c = solve_halanay(HalanayProblem(alpha, beta, tau, measure)).C
        assert np.all(u <= np.exp(-c * times) * (1.0 + 1e-6))


def reference_equality_case(alpha, beta, tau, horizon_delays, steps_per_delay=64):
    """The equality-case RK4 loop as it stood before it shared the integrator's stepper."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    shape = np.broadcast(alpha, beta).shape
    q = steps_per_delay
    h = tau / q
    n = horizon_delays * q
    u = np.empty((n + 1,) + shape)
    f = np.empty_like(u)
    u[0] = 1.0
    f[0] = alpha - beta

    def delayed(j):
        return u[j - q] if j >= q else np.ones(shape)

    def delayed_half(j):
        if j + 1 <= q:
            return np.ones(shape)
        y0, y1 = u[j - q], u[j - q + 1]
        f0, f1 = f[j - q], f[j - q + 1]
        return 0.5 * (y0 + y1) + 0.125 * h * (f0 - f1)

    for m in range(n):
        ud_half = delayed_half(m)
        ud_full = delayed(m + 1)
        k1 = f[m]
        k2 = alpha * ud_half - beta * (u[m] + 0.5 * h * k1)
        k3 = alpha * ud_half - beta * (u[m] + 0.5 * h * k2)
        k4 = alpha * ud_full - beta * (u[m] + h * k3)
        u[m + 1] = u[m] + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        f[m + 1] = alpha * ud_full - beta * u[m + 1]
    return np.arange(n + 1) * h, u


@pytest.mark.parametrize("tau", [1e-3, 0.5, 5.0])
@pytest.mark.parametrize("horizon_delays", [1, 10])
def test_equality_case_matches_reference_loop_bit_for_bit(tau, horizon_delays):
    beta = np.linspace(0.2, 2.0, 6)[None, :]
    alpha = np.linspace(0.05, 0.95, 5)[:, None] * beta  # broadcast (5, 6) grid
    times, u = simulate_equality_case(alpha, beta, tau, horizon_delays=horizon_delays)
    ref_times, ref_u = reference_equality_case(alpha, beta, tau, horizon_delays)
    assert u.shape == ref_u.shape == (64 * horizon_delays + 1, 5, 6)
    assert np.array_equal(times, ref_times)
    assert np.array_equal(u, ref_u)


def test_equality_case_long_delay_runs_to_the_horizon():
    # RK4 on -beta u is unstable above beta dt ~ 2.785, which tau/64 = 3.125
    # would pass; the step rule gives tau/800 = 1/4
    alpha, beta, tau = 0.5, 1.0, 200.0
    times, u = simulate_equality_case(alpha, beta, tau)
    assert times[1] == 0.25
    assert times[-1] == 10 * tau
    assert np.all((0.0 < u) & (u <= 1.0))
    for measure in Measure:
        c = solve_halanay(HalanayProblem(alpha, beta, tau, measure)).C
        assert np.all(u <= np.exp(-c * times) * (1.0 + 1e-6))


# ---------------------------------------------------------------------------
# theorem rates

def theorem_rate(theorem, n, c, tau):
    """What check_preconditions and theorem_rates publish for theorem on a
    run with normalized weights and constant psi = c, where the theorem
    applies: its psi_lower is c, and its psi0_lower 1."""
    kind = DelayKind.TRANSMISSION if theorem.startswith("transmission") else DelayKind.REACTION
    config = make_config(n_agents=n, tau=tau, delay_kind=kind, influence=InfluenceFunction.constant(c))
    datum = InitialDatum.constant(np.linspace(0.0, 1.0, n)[:, None])
    report = check_preconditions(config, datum, check_icass(datum, config))
    assert theorem in report.applicable()
    return theorem_rates(config, report)


def test_transmission_rate_small_delay_limit():
    res = theorem_rate("transmission_normalized", 3, 1.0, 1e-12)[0]["transmission_normalized"]
    assert res["C"] == pytest.approx(0.5, abs=1e-9)  # alpha = 1/2, beta = 1


@pytest.mark.parametrize(
    "n,psi_lower,tau",
    [(3, 1.0, 1.0), (10, 0.3, 0.5), (5, 0.77, 2.0)],
)
def test_transmission_rate_matches_scan(n, psi_lower, tau):
    alpha = 1.0 - psi_lower * (n - 2) / (n - 1)
    res = theorem_rate("transmission_normalized", n, psi_lower, tau)[0]["transmission_normalized"]
    assert res["psi_lower"] == psi_lower
    lo, hi = scan_root(alpha, 1.0, tau, Measure.DIRAC_AT_ZERO)
    assert lo <= res["C"] <= hi
    # explicit residual in the theorem's own equation
    assert abs(1.0 - res["C"] - alpha * math.exp(res["C"] * tau)) <= 1e-12


def test_transmission_rate_degenerates_for_two_agents():
    # alpha = 1 - psi_lower (N-2)/(N-1) = beta = 1: no rate to certify
    out, skipped = theorem_rate("transmission_normalized", 2, 1.0, 0.5)
    assert out == {}
    assert skipped == {"transmission_normalized": "n_agents = 2 gives alpha = beta = 1, so no rate C > 0"}
    with pytest.raises(InvalidProblem):
        HalanayProblem(1.0 - 1.0 * (2 - 2) / (2 - 1), 1.0, 0.5, Measure.DIRAC_AT_ZERO)


def test_reaction_rate_small_delay_limit():
    res = theorem_rate("reaction_small_delay", 3, 1.0, 1e-12)[0]["reaction_small_delay"]
    assert res["psi0_lower"] == 1.0
    assert res["C"] == pytest.approx(1.0, abs=1e-6)


def test_reaction_rate_matches_scan():
    res = theorem_rate("reaction_small_delay", 3, 1.0, 0.1)[0]["reaction_small_delay"]
    assert res["psi0_lower"] == 1.0
    lo, hi = scan_root(0.4, 1.0, 0.1, Measure.UNIFORM_ON_DELAY)
    assert lo <= res["C"] <= hi
    # theorem form: psi0 - C = 4 e^{C tau} (e^{C tau} - 1) / C
    c = res["C"]
    assert abs(1.0 - c - 4.0 * math.exp(0.1 * c) * math.expm1(0.1 * c) / c) <= 1e-11


def test_reaction_rate_precondition():
    # classical weights of constant psi = 1/2 give psi0_lower = 1/2, and
    # 4 tau = 0.8 >= 1/2: the theorem does not apply, and its rate equation,
    # alpha = 4 tau against beta = psi0_lower, is refused
    config = make_config(n_agents=3, tau=0.2, delay_kind=DelayKind.REACTION,
                         weight_scheme=WeightScheme.CLASSICAL_SCALED, influence=InfluenceFunction.constant(0.5))
    datum = InitialDatum.constant([[0.0], [0.5], [1.0]])
    report = check_preconditions(config, datum, check_icass(datum, config))
    assert report.psi0_lower == 0.5
    assert report.violated["reaction_small_delay"] == ["4*tau < psi0_lower violated (4*tau=0.8, psi0_lower=0.5)"]
    assert theorem_rates(config, report) == ({}, {})
    with pytest.raises(InvalidProblem, match="alpha < beta"):
        HalanayProblem(4.0 * 0.2, 0.5, 0.2, Measure.UNIFORM_ON_DELAY)


@pytest.mark.parametrize(
    "tau, message",
    [(0.0, "tau > 0 violated (tau=0.0)"), (-1.0, "tau > 0 violated (tau=-1.0)"),
     (math.inf, "tau must be finite (tau=inf)")],
    ids=["zero", "negative", "inf"],
)
def test_halanay_problem_refuses_a_delay_outside_its_domain(tau, message):
    # a rate equation, the reaction theorem's among them, needs a positive, finite delay
    with pytest.raises(InvalidProblem) as info:
        HalanayProblem(0.4, 1.0, tau, Measure.UNIFORM_ON_DELAY)
    assert str(info.value) == message


# a sampled datum whose agents all move at speed 5 across [-1, 0], while
# they lie 1 apart: the startup slope bound max |x'| <= d_x0 fails
FAST_DATUM = InitialDatum.sampled([-1.0, 0.0], [[[0.0], [0.5], [1.0]], [[5.0], [5.5], [6.0]]])


@pytest.mark.parametrize("kind", list(DelayKind), ids=lambda k: k.value)
@pytest.mark.parametrize("scheme", list(WeightScheme), ids=lambda s: s.value)
@pytest.mark.parametrize("psi", [InfluenceFunction.constant(0.8), InfluenceFunction.algebraic_decay(1.0)],
                         ids=["constant", "algebraic"])
@pytest.mark.parametrize("tau", [0.4, 0.6])
@pytest.mark.parametrize("datum, slope_bound",
                         [(InitialDatum.constant([[0.0], [0.5], [1.0]]), True), (FAST_DATUM, False)],
                         ids=["constant", "fast"])
def test_preconditions_list_every_violated_hypothesis_in_order(kind, scheme, psi, tau, datum, slope_bound):
    # the hypotheses of each theorem, in the order that the paper states
    # them: (1) transmission delay; (2) transmission delay and row-normalized
    # weights; (3) reaction delay, symmetric weights and tau <= 1/2;
    # (4) reaction delay, the startup slope bound and 4 tau < psi0_lower.
    # Reaction weights are symmetric when classical, or normalized with a
    # constant psi (each then 1/(N-1)); transmission delay already excludes
    # (3), so its weights are not judged.  4 tau >= 1.6 exceeds every
    # psi0_lower, which is at most 1
    config = make_config(n_agents=3, tau=tau, delay_kind=kind, weight_scheme=scheme, influence=psi)
    report = check_preconditions(config, datum, check_icass(datum, config))
    assert report.psi0_lower <= 1.0
    transmission = kind is DelayKind.TRANSMISSION
    symmetric = scheme is WeightScheme.CLASSICAL_SCALED or psi.kind is InfluenceKind.CONSTANT
    hypotheses = {
        "transmission_classical": [(transmission, "delay kind is not transmission")],
        "transmission_normalized": [
            (transmission, "delay kind is not transmission"),
            (scheme is WeightScheme.NORMALIZED, "weights are not row-normalized"),
        ],
        "reaction_symmetric": [
            (not transmission, "delay kind is not reaction"),
            (transmission or symmetric, "weights are not symmetric"),
            (tau <= 0.5, f"tau <= 1/2 violated (tau={tau:g})"),
        ],
        "reaction_small_delay": [
            (not transmission, "delay kind is not reaction"),
            (slope_bound, "startup slope bound violated"),
            (False, f"4*tau < psi0_lower violated (4*tau={4.0 * tau:g}, psi0_lower={report.psi0_lower:g})"),
        ],
    }
    assert report.violated == {name: [reason for holds, reason in rows if not holds]
                               for name, rows in hypotheses.items()}
    assert list(report.violated) == list(THEOREMS)


# ---------------------------------------------------------------------------
# shrink factor and iteration

def test_shrink_factor_zero_width():
    est = shrink_factor(0.5, 1.0, 3, 2.0, 2.0)
    assert est.sigma == 0.0
    assert est.gamma == 0.0


def test_shrink_factor_direct_evaluation():
    est = shrink_factor(1.0, 1.0, 2, 1.0, 3.0)
    sigma = min(1.0, (3.0 - 1.0) / 6.0)
    expect = (1 - math.exp(-1.0)) ** 2 * (1 - math.exp(-sigma)) * math.exp(-6.0) * 1.0
    assert est.sigma == pytest.approx(sigma)
    assert est.gamma == pytest.approx(expect, rel=1e-15)


@given(
    psi=st.floats(min_value=1e-6, max_value=1.0),
    tau=st.floats(min_value=1e-3, max_value=10.0),
    n=st.integers(min_value=2, max_value=50),
    m=st.floats(min_value=1e-6, max_value=100.0),
    width=st.floats(min_value=0.0, max_value=100.0),
)
def test_shrink_factor_in_unit_interval(psi, tau, n, m, width):
    est = shrink_factor(psi, tau, n, m, m + width)
    assert 0.0 <= est.gamma < 1.0


def test_shrink_factor_invalid_interval():
    with pytest.raises(ValueError, match="need 0 < m <= M"):
        shrink_factor(0.5, 1.0, 3, 0.0, 1.0)
    with pytest.raises(ValueError, match="need 0 < m <= M"):
        shrink_factor(0.5, 1.0, 3, 2.0, 1.0)


def test_shrink_iteration_contracts(rng):
    config = make_config(
        n_agents=4, dim=1, tau=0.5,
        weight_scheme=WeightScheme.CLASSICAL_SCALED,
    )
    datum = InitialDatum.constant(rng.uniform(1.0, 3.0, (4, 1)))
    traj = integrate(config, datum, 6 * 4 * config.tau)
    m0, M0 = float(datum.values.min()), float(datum.values.max())
    psi_low = psi_floor(config.influence, M0 - m0)
    est = shrink_iteration(traj, psi_low, n_windows=4)
    assert est.m == pytest.approx(m0)
    assert est.M == pytest.approx(M0)
    recs = est.records
    assert len(recs) == 5
    for k in range(4):
        assert recs[k + 1].D <= (1.0 - recs[k].gamma) * recs[k].D + 1e-9


# ---------------------------------------------------------------------------
# preconditions

def test_preconditions_reaction_symmetric_short_delay():
    config = make_config(
        n_agents=4, tau=0.4,
        delay_kind=DelayKind.REACTION,
        weight_scheme=WeightScheme.CLASSICAL_SCALED,
    )
    datum = InitialDatum.constant([[0.0], [0.5], [1.0], [1.5]])
    rep = check_preconditions(config, datum, check_icass(datum, config))
    assert "reaction_symmetric" in rep.applicable()
    assert "transmission_classical" not in rep.applicable()
    assert "transmission_normalized" not in rep.applicable()


def test_preconditions_reaction_small_delay_fails_arithmetic():
    config = make_config(
        n_agents=2, tau=0.3,
        delay_kind=DelayKind.REACTION,
        weight_scheme=WeightScheme.NORMALIZED,
        influence=InfluenceFunction.constant(1.0),
    )
    datum = InitialDatum.constant([[0.0], [1.0]])
    rep = check_preconditions(config, datum, check_icass(datum, config))
    assert rep.psi0_lower == pytest.approx(1.0)
    assert "reaction_small_delay" not in rep.applicable()  # 4 * 0.3 = 1.2 >= 1
    assert any("4*tau" in r for r in rep.violated["reaction_small_delay"])


def test_preconditions_transmission_normalized_unconditional():
    config = make_config(n_agents=5, tau=10.0, weight_scheme=WeightScheme.NORMALIZED)
    datum = InitialDatum.constant(np.linspace(0, 1, 5)[:, None])
    rep = check_preconditions(config, datum, check_icass(datum, config))
    assert "transmission_normalized" in rep.applicable()
    assert "transmission_classical" in rep.applicable()


def test_preconditions_normalized_constant_psi_counts_as_symmetric():
    config = make_config(
        n_agents=3, tau=0.4,
        delay_kind=DelayKind.REACTION,
        weight_scheme=WeightScheme.NORMALIZED,
        influence=InfluenceFunction.constant(1.0),
    )
    datum = InitialDatum.constant([[0.0], [0.5], [1.0]])
    assert "reaction_symmetric" in check_preconditions(config, datum, check_icass(datum, config)).applicable()


def test_equal_normalized_weights_give_psi0_lower_one():
    # 19 times the rounded weight 0.7/(19 * 0.7) read 1.0000000000000004,
    # which the reaction rate equation refused: the run exited 1 with
    # InvalidProblem where reaction_small_delay applies
    config = make_config(
        n_agents=20, tau=0.02,
        delay_kind=DelayKind.REACTION,
        weight_scheme=WeightScheme.NORMALIZED,
        influence=InfluenceFunction.constant(0.7),
    )
    datum = InitialDatum.constant(np.arange(20.0)[:, None] / 20.0)
    rep = check_preconditions(config, datum, check_icass(datum, config))
    assert rep.psi0_lower == 1.0
    assert "reaction_small_delay" in theorem_rates(config, rep)[0]


def test_preconditions_refuse_a_datum_that_does_not_fit_the_config():
    # check_preconditions reads its startup bounds from the report it is
    # given, yet still checks the datum, so a report formed for another
    # config does not hide a datum that the run's config cannot read
    config = make_config(n_agents=3, tau=1.0)
    datum = InitialDatum.constant([[0.0], [0.5], [1.0]])
    wide = InitialDatum.constant([[0.0], [0.5], [1.0], [1.5]])
    short = InitialDatum.sampled([-0.5, 0.0], [[[0.0], [0.5], [1.0]]] * 2)
    icass = check_icass(datum, config)
    for other in (wide, short):
        with pytest.raises(InvalidDatum, match="datum"):
            check_preconditions(config, other, icass)


def startup_bounds(datum, tau):
    """The d_x0 and r_x0 that check_preconditions reports, icass max_slope
    and icass d_x0 for the datum."""
    config = make_config(n_agents=datum.n_agents, dim=datum.dim, tau=tau)
    rep = check_preconditions(config, datum, check_icass(datum, config))
    reported = rep.to_dict()
    return reported["d_x0"], reported["r_x0"], rep.icass.max_slope, rep.icass.d_x0


def test_startup_bounds_cover_the_datum_between_knots():
    # no knot at -tau = -1: the datum there lies 2/3 of the way from -2 to -0.5
    datum = InitialDatum.sampled(
        [-2.0, -0.5, 0.0], [[[-4.0], [4.0]], [[0.0], [0.0]], [[0.1], [-0.1]]]
    )
    d_x0, r_x0, max_slope, icass_d_x0 = startup_bounds(datum, 1.0)
    assert d_x0 == icass_d_x0 == pytest.approx(8.0 / 3.0, rel=1e-14)
    assert r_x0 == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert max_slope == pytest.approx(8.0 / 3.0, rel=1e-14)  # segment [-2, -0.5]


@settings(max_examples=60, deadline=None)
@given(
    tau=st.floats(min_value=0.1, max_value=3.0),
    before=st.floats(min_value=0.0, max_value=2.0),
    after=st.floats(min_value=0.0, max_value=1.0),
    inner=st.lists(st.floats(min_value=0.01, max_value=0.99), max_size=5),
    n_agents=st.integers(min_value=2, max_value=4),
    dim=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_startup_bounds_hold_on_a_fine_grid(tau, before, after, inner, n_agents, dim, seed):
    # knots span [-tau - before, after] and need not include -tau or 0
    lo, hi = -tau - before, after
    times = np.unique(np.concatenate([[lo, hi], lo + (hi - lo) * np.asarray(inner)]))
    values = np.random.default_rng(seed).uniform(-5.0, 5.0, (times.size, n_agents, dim))
    datum = InitialDatum.sampled(times, values)
    d_x0, r_x0, max_slope, _ = startup_bounds(datum, tau)
    fine = np.linspace(-tau, 0.0, 1001)
    states = [datum.at(t) for t in fine]
    slopes = [datum.slope_at(t) for t in fine[1:-1]]
    tol = 1e-12 * (1.0 + d_x0 + r_x0 + max_slope)
    assert max(np.sqrt(squared_diameter(x)) for x in states) <= d_x0 + tol
    assert max(radius(x) for x in states) <= r_x0 + tol
    assert max(float(np.sqrt((v * v).sum(axis=1)).max()) for v in slopes) <= max_slope + tol


# ---------------------------------------------------------------------------
# convex-combination bound

def _random_instance(rng):
    n = int(rng.integers(3, 9))
    d = int(rng.integers(1, 4))
    x = rng.normal(size=(n, d))
    i, k = rng.choice(n, size=2, replace=False)
    eta_i = np.insert(rng.dirichlet(np.ones(n - 1)), i, 0.0)
    eta_k = np.insert(rng.dirichlet(np.ones(n - 1)), k, 0.0)
    mu = min(np.delete(eta_i, i).min(), np.delete(eta_k, k).min())
    return x, eta_i, eta_k, mu, int(i), int(k)


def test_convexity_bound_identical_weights():
    # same full weight vector, zero at both excluded indices
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    eta = np.array([0.0, 0.0, 0.5, 0.5])
    chk = convexity_bound_check(x, eta, eta, 0.0, i=0, k=1)
    assert chk.lhs == 0.0
    assert chk.holds


def test_convexity_bound_mu_zero_is_triangle_case(rng):
    x, eta_i, eta_k, _, i, k = _random_instance(rng)
    chk = convexity_bound_check(x, eta_i, eta_k, 0.0, i=i, k=k)
    from hkdelay.model import squared_diameter

    assert chk.rhs == pytest.approx(np.sqrt(squared_diameter(x)))
    assert chk.holds


def test_convexity_bound_randomized(rng):
    for _ in range(300):
        x, eta_i, eta_k, mu, i, k = _random_instance(rng)
        chk = convexity_bound_check(x, eta_i, eta_k, mu, i=i, k=k)
        assert chk.holds


def test_convexity_bound_validation(rng):
    x = np.zeros((4, 2))
    eta = np.array([0.0, 0.5, 0.25, 0.25])
    with pytest.raises(ValueError, match="the two excluded indices must differ"):
        convexity_bound_check(x, eta, eta, 0.0, i=0, k=0)
    with pytest.raises(ValueError, match="weights must sum to one"):
        convexity_bound_check(x, eta * 2.0, eta, 0.0, i=0, k=1)
    with pytest.raises(ValueError, match="exceeds the smallest relevant weight"):
        convexity_bound_check(x, eta, np.roll(eta, 1), 0.9, i=0, k=1)


# ---------------------------------------------------------------------------
# the linearization at consensus

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


@pytest.mark.parametrize("tau, real", [(0.15, True), (0.5, False)])
def test_rightmost_root_is_a_complex_that_solves_the_characteristic_equation(tau, real):
    # b tau = 0.3 is below 1/e, where the root is real; b tau = 1 is not
    root = rightmost_root(*REACTION, tau)
    assert type(root) is complex
    assert (root.imag == 0.0) is real
    assert char_residual(root, *REACTION, tau) <= 1e-12


def test_transmission_roots_always_in_left_half_plane():
    for tau in (0.1, 1.0, 10.0):
        root = rightmost_root(*TRANSMISSION, tau)
        assert root.real < 0.0
        assert char_residual(root, *TRANSMISSION, tau) <= 1e-10


def test_reaction_root_real_negative_in_first_regime():
    root = rightmost_root(*REACTION, 0.15)
    assert root.imag == pytest.approx(0.0, abs=1e-8)
    assert root.real < 0.0
    # verify against the characteristic function directly
    assert abs(root.real + 2.0 * math.exp(-root.real * 0.15)) <= 1e-9


def test_reaction_root_unstable_for_long_delay():
    root = rightmost_root(*REACTION, 1.0)
    assert root.real > 0.0
    assert char_residual(root, *REACTION, 1.0) <= 1e-10
    # growth confirmed by simulation amplitude
    traj = integrate(two_agent_config(DelayKind.REACTION, 1.0), W0, 30.0, None, False)
    a, t = np.abs(gap(traj)), traj.grid
    assert a[t > 25.0].max() > 10.0 * a[(t > 0) & (t < 5.0)].max()


def test_reaction_root_satisfies_rescaled_equation():
    # eta = xi * tau solves eta + 2 tau e^{-eta} = 0 whenever xi solves
    # xi + 2 e^{-xi tau} = 0
    for tau in (0.15, 0.5, 1.0):
        root = rightmost_root(*REACTION, tau)
        xi = root
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
    assert abs(root - expected) <= tol
    if r <= math.exp(-1.0):
        assert root.imag == 0.0
    for k in (-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6):
        # beyond 1/e, W-1(-r) is the conjugate of W0(-r): equal real parts
        assert root.real >= (complex(lambertw(-r, k)) / tau - a).real - tol, k


@pytest.mark.parametrize("n, expected", [
    # the multistart search returned -0.015379 + 0.261i at N = 100 and
    # found no root at N = 1000
    (100, complex(-0.015265974371582983, 0.010436648687093254)),
    (1000, complex(-0.022945330500666748, 0.0104363719937635)),
])
def test_rightmost_root_of_long_normalized_transmission(n, expected):
    config = SystemConfig(n, 2, 300.0, DelayKind.TRANSMISSION, WeightScheme.NORMALIZED, InfluenceFunction.constant(1.0))
    root = rightmost_root(*linear_coefficients(config), 300.0)
    assert root == pytest.approx(expected, rel=1e-12)
    assert char_residual(root, *linear_coefficients(config), 300.0) <= 1e-14


@pytest.mark.parametrize("tau", [5e-324, 1e-300, 1e300, 1.7e308])
@pytest.mark.parametrize("kind", list(DelayKind))
def test_rightmost_root_at_extreme_delays_is_finite_and_quiet(kind, tau):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        root = rightmost_root(*COEFFICIENTS[kind], tau)
    residual = char_residual(root, *COEFFICIENTS[kind], tau)
    assert math.isfinite(root.real) and math.isfinite(root.imag) and math.isfinite(residual)
    # b tau e^{a tau} is 2e-300 at tau = 1e-300: xi* is real, -a - b to
    # 300 digits; w/tau - a read -3.0 at tau = 5e-324
    if tau < 1.0:
        assert root.imag == 0.0 and root.real == -sum(COEFFICIENTS[kind])


def test_rightmost_root_past_the_exponential_range():
    # a tau - w = 720: e^720 overflows, and xi* = w/tau - a, where
    # w = -b tau e^{a tau - w} is about -e^(720 - 744.4)
    root = rightmost_root(720.0, 5e-324, 1.0)
    assert root.imag == 0.0 and root.real == pytest.approx(-720.0 - math.exp(720.0 + math.log(5e-324)), rel=1e-15)


def test_root_regime_consistency_on_grid():
    for tau in TAU_GRID:
        regime = classify_regime(*REACTION, tau)
        if regime is Regime.BOUNDARY:
            continue
        root = rightmost_root(*REACTION, tau)
        if regime is Regime.UNSTABLE:
            assert root.real > 0.0, tau
        else:
            assert root.real < 0.0, tau


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
    assert root.imag == 0.0 and root.real == pytest.approx(-1.6313, abs=1e-4)
    traj = integrate(config, W0, 40 * config.tau, None, False)
    assert fitted_decay_rate(traj.grid, gap(traj)) == pytest.approx(-root.real, rel=1e-3)


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
        assert root.real < 0.0
        if root.imag == 0.0:
            c_emp = fit_c_emp(compute_metrics(traj))
            assert c_emp == pytest.approx(-root.real, rel=0.01), config.tau
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
                        assert rate["C"] <= -root.real, (name, n, tau, kind, psi.kind)
                        checked += 1
    assert checked >= 90
