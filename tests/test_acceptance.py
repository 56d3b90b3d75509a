"""Acceptance suite: one test per verification target, each printing a
single pass/fail line with its headline numbers."""

import time

import numpy as np

from hkdelay.model import DelayKind, InfluenceFunction, InitialDatum, SystemConfig, WeightScheme, check_icass, psi_floor
from hkdelay.dynamics import IntegratorSpec, integrate
from hkdelay.metrics import compute_metrics, count_sign_changes, fit_decay_rate
from hkdelay.rates import (
    Measure,
    Regime,
    HalanayProblem,
    check_preconditions,
    classify_regime,
    linear_coefficients,
    rightmost_root,
    solve_halanay,
    theorem_rates,
    two_agent_config,
)

from lemmas import convexity_bound_check, shrink_iteration, simulate_equality_case
from reference import gap, integrate_oracle

ALGEBRAIC = InfluenceFunction.algebraic_decay(1.0)


def _report(name: str, ok: bool, detail: str = "") -> bool:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def _peaks(values: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    interior = np.arange(1, values.size - 1)
    idx = interior[(values[interior] > values[interior - 1]) & (values[interior] >= values[interior + 1])]
    return idx[values[idx] > floor]


def test_toy_regime_reproduction():
    checks = []
    timings = []

    w0 = InitialDatum.constant([[0.5], [-0.5]])  # the toy's gap starts at 1

    t0 = time.perf_counter()
    s = integrate(two_agent_config(DelayKind.REACTION, 0.15), w0, 40 * 0.15, None, False)
    timings.append(time.perf_counter() - t0)
    w = gap(s)
    checks.append(count_sign_changes(w[s.grid > 0]) == 0)
    checks.append(abs(w[-1]) < 1e-3 * 1.0)

    t0 = time.perf_counter()
    s = integrate(two_agent_config(DelayKind.REACTION, 0.5), w0, 40 * 0.5, None, False)
    timings.append(time.perf_counter() - t0)
    w = gap(s)
    checks.append(count_sign_changes(w[s.grid > 0]) >= 3)
    a = np.abs(w)
    peaks = _peaks(a)
    checks.append(peaks.size >= 3 and bool(np.all(np.diff(a[peaks][1:]) < 0.0)))

    t0 = time.perf_counter()
    s = integrate(two_agent_config(DelayKind.REACTION, 1.0), w0, 40.0, None, False)
    timings.append(time.perf_counter() - t0)
    a = np.abs(gap(s))
    late = a[(s.grid >= 30.0) & (s.grid <= 40.0)].max()
    early = a[(s.grid >= 0.0) & (s.grid <= 10.0)].max()
    checks.append(late > 10.0 * early)

    checks.append(max(timings) < 1.0)
    ok = all(checks)
    assert _report(
        "toy regime reproduction", ok,
        f"growth ratio {late / early:.1f}, slowest run {max(timings):.2f}s",
    )


def test_transmission_unconditional_consensus():
    ratios = []
    worst_time = 0.0
    ok = True
    for s_idx, scheme in enumerate((WeightScheme.CLASSICAL_SCALED, WeightScheme.NORMALIZED)):
        for tau in (0.5, 2.0, 10.0):
            for n in (3, 10):
                rng = np.random.default_rng(10_000 * (s_idx + 1) + round(10 * tau) * 100 + n)
                config = SystemConfig(n, 2, tau, DelayKind.TRANSMISSION, scheme, ALGEBRAIC)
                datum = InitialDatum.constant(rng.uniform(0.0, 1.0, (n, 2)))
                t0 = time.perf_counter()
                traj = integrate(config, datum, 60.0 * tau)
                elapsed = time.perf_counter() - t0
                worst_time = max(worst_time, elapsed)
                ms = compute_metrics(traj)
                ratio = float(ms.d_x[-1] / ms.icass.d_x0)
                ratios.append(ratio)
                ok = ok and ratio < 1e-3 and elapsed < 10.0
    assert _report(
        "transmission consensus for every delay", ok,
        f"worst ratio {max(ratios):.2e}, worst runtime {worst_time:.2f}s",
    )


def test_transmission_normalized_rate_bound():
    rng = np.random.default_rng(7)
    config = SystemConfig(3, 2, 1.0, DelayKind.TRANSMISSION, WeightScheme.NORMALIZED, ALGEBRAIC)
    datum = InitialDatum.constant(rng.uniform(0.0, 1.0, (3, 2)))
    traj = integrate(config, datum, 30.0 * config.tau)
    ms = compute_metrics(traj)
    pre = check_preconditions(config, datum, check_icass(datum, config))
    psi_low = psi_floor(config.influence, 2.0 * pre.icass.r_x0)
    # theorem (2): 1 - C = alpha e^{C tau}, alpha = 1 - psi_lower (N-2)/(N-1)
    rate = solve_halanay(HalanayProblem(1.0 - psi_low * (3 - 2) / (3 - 1), 1.0, config.tau, Measure.DIRAC_AT_ZERO))
    published, _ = theorem_rates(config, pre)
    assert published["transmission_normalized"]["C"] == rate.C
    bound = ms.icass.d_x0 * np.exp(-rate.C * ms.times) * (1.0 + 1e-6)
    bound_holds = bool(np.all(ms.d_x <= bound))
    window = (ms.times >= 5.0 * config.tau) & (ms.times <= 25.0 * config.tau)
    c_emp = fit_decay_rate(ms.times[window], ms.d_x[window])
    ok = bound_holds and c_emp >= rate.C
    assert _report(
        "transmission normalized rate bound", ok,
        f"C {rate.C:.4f}, fitted {c_emp:.3f}, bound holds {bound_holds}",
    )


def test_halanay_solver_correctness():
    betas = np.linspace(0.2, 2.0, 10)
    fracs = np.linspace(0.05, 0.95, 10)
    taus = (1e-3, 0.1, 0.5, 1.0, 5.0)
    ok = True
    worst_resid = 0.0
    worst_excess = 0.0
    for tau in taus:
        alpha = (fracs[:, None] * betas[None, :]).ravel()
        beta = np.broadcast_to(betas[None, :], (10, 10)).ravel()
        times, u = simulate_equality_case(alpha, beta, tau)
        for measure in Measure:
            cs = np.empty(alpha.size)
            for idx in range(alpha.size):
                res = solve_halanay(HalanayProblem(alpha[idx], beta[idx], tau, measure))
                worst_resid = max(worst_resid, abs(res.residual))
                ok = ok and abs(res.residual) <= 1e-12 and 0.0 < res.C < beta[idx] - alpha[idx]
                cs[idx] = res.C
            bound = np.exp(-np.outer(times, cs)) * (1.0 + 1e-6)
            excess = float(np.max(u / bound))
            worst_excess = max(worst_excess, excess)
            ok = ok and bool(np.all(u <= bound))
    assert _report(
        "rate equation solver on parameter grid", ok,
        f"worst residual {worst_resid:.1e}, worst sim/bound {worst_excess:.9f}",
    )


def test_reaction_symmetric_lyapunov_decay():
    ok = True
    details = []
    for n in (3, 10):
        rng = np.random.default_rng(100 + n)
        config = SystemConfig(
            n, 2, 0.4, DelayKind.REACTION, WeightScheme.CLASSICAL_SCALED, ALGEBRAIC
        )
        datum = InitialDatum.constant(rng.uniform(0.0, 1.0, (n, 2)))
        traj = integrate(config, datum, 40.0 * config.tau)
        ms = compute_metrics(traj)
        i0 = int(np.searchsorted(ms.times, -1e-12, side="right"))
        mean0 = traj.states[i0].mean(axis=0)
        drift_ok = bool(np.all(ms.mean_drift <= 1e-8 * (1.0 + np.linalg.norm(mean0))))
        L = ms.L[~np.isnan(ms.L)]
        lyap_ok = bool(np.all(np.diff(L) <= 1e-6))
        x_ratio = float(ms.X[-1] / ms.X[i0])
        ok = ok and drift_ok and lyap_ok and x_ratio < 1e-3
        details.append(f"N={n} X ratio {x_ratio:.1e}")
    assert _report("reaction symmetric consensus (short delay)", ok, "; ".join(details))


def test_reaction_nonsymmetric_rate_bound():
    config = SystemConfig(
        3, 1, 0.1, DelayKind.REACTION, WeightScheme.NORMALIZED, InfluenceFunction.constant(1.0)
    )
    datum = InitialDatum.constant([[0.0], [0.4], [1.0]])
    pre = check_preconditions(config, datum, check_icass(datum, config))
    # theorem (4): psi0 - C = 4 e^{C tau} (e^{C tau} - 1)/C, alpha = 4 tau, beta = psi0
    rate = solve_halanay(HalanayProblem(4.0 * config.tau, pre.psi0_lower, config.tau, Measure.UNIFORM_ON_DELAY))
    published, _ = theorem_rates(config, pre)
    assert published["reaction_small_delay"]["C"] == rate.C
    traj = integrate(config, datum, 40.0 * config.tau)
    ms = compute_metrics(traj)
    bound = ms.icass.d_x0 * np.exp(-rate.C * ms.times) * (1.0 + 1e-6)
    ok = "reaction_small_delay" in pre.applicable() and bool(np.all(ms.d_x <= bound))
    assert _report(
        "reaction nonsymmetric rate bound", ok,
        f"psi0 {pre.psi0_lower:.3f}, C {rate.C:.4f}",
    )


def test_lemma_bounds_suite():
    rng = np.random.default_rng(2024)
    radius_ok = True
    for case in range(20):
        n = int(rng.integers(3, 9))
        d = int(rng.integers(1, 4))
        tau = float(rng.uniform(0.3, 2.0))
        scheme = WeightScheme.CLASSICAL_SCALED if case % 2 else WeightScheme.NORMALIZED
        config = SystemConfig(n, d, tau, DelayKind.TRANSMISSION, scheme, ALGEBRAIC)
        datum = InitialDatum.constant(rng.uniform(-2.0, 2.0, (n, d)))
        traj = integrate(config, datum, 8.0 * tau, IntegratorSpec(tau / 32))
        r = np.sqrt((traj.states**2).sum(axis=2)).max(axis=1)
        radius_ok = radius_ok and bool(np.all(r <= r[traj.grid <= 0].max() + 1e-9))

    box_ok = True
    for case in range(20):
        n = int(rng.integers(3, 9))
        tau = float(rng.uniform(0.3, 2.0))
        scheme = WeightScheme.CLASSICAL_SCALED if case % 2 else WeightScheme.NORMALIZED
        config = SystemConfig(n, 1, tau, DelayKind.TRANSMISSION, scheme, ALGEBRAIC)
        vals = rng.uniform(-3.0, 3.0, (n, 1))
        traj = integrate(
            config, InitialDatum.constant(vals), 8.0 * tau, IntegratorSpec(tau / 32)
        )
        box_ok = box_ok and traj.states.min() >= vals.min() - 1e-9
        box_ok = box_ok and traj.states.max() <= vals.max() + 1e-9

    violations = 0
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        d = int(rng.integers(1, 4))
        x = rng.normal(size=(n, d))
        i, k = rng.choice(n, size=2, replace=False)
        eta_i = np.insert(rng.dirichlet(np.ones(n - 1)), i, 0.0)
        eta_k = np.insert(rng.dirichlet(np.ones(n - 1)), k, 0.0)
        mu = min(np.delete(eta_i, i).min(), np.delete(eta_k, k).min())
        if not convexity_bound_check(x, eta_i, eta_k, mu, i=int(i), k=int(k)).holds:
            violations += 1

    config = SystemConfig(4, 1, 0.5, DelayKind.TRANSMISSION, WeightScheme.CLASSICAL_SCALED, ALGEBRAIC)
    vals = rng.uniform(1.0, 3.0, (4, 1))
    traj = integrate(config, InitialDatum.constant(vals), 6 * 8 * 0.5)
    psi_low = psi_floor(ALGEBRAIC, float(vals.max() - vals.min()))
    est = shrink_iteration(traj, psi_low, n_windows=8)
    recs = est.records
    shrink_ok = all(
        recs[k + 1].D <= (1.0 - recs[k].gamma) * recs[k].D + 1e-9 for k in range(8)
    )
    ok = radius_ok and box_ok and violations == 0 and shrink_ok
    assert _report(
        "lemma bounds (radius, box, convexity, shrink)", ok,
        f"convexity violations {violations}, radius {radius_ok}, box {box_ok}, shrink {shrink_ok}",
    )


def test_integrator_trust():
    config = SystemConfig(3, 1, 1.0, DelayKind.TRANSMISSION, WeightScheme.NORMALIZED, ALGEBRAIC)
    datum = InitialDatum.constant([[0.0], [0.4], [1.0]])
    horizon = 5.0
    ref = integrate(config, datum, horizon, IntegratorSpec(1.0 / 128)).states[-1]
    errs = [
        float(np.max(np.abs(
            integrate(config, datum, horizon, IntegratorSpec(dt)).states[-1] - ref
        )))
        for dt in (1.0 / 8, 1.0 / 16, 1.0 / 32)
    ]
    order_ok = errs[0] / errs[1] >= 8.0 and errs[1] / errs[2] >= 8.0

    e_dt = integrate_oracle(config, datum, horizon, IntegratorSpec(1.0 / 32)).states[-1]
    e_half = integrate_oracle(config, datum, horizon, IntegratorSpec(1.0 / 64)).states[-1]
    rk = integrate(config, datum, horizon, IntegratorSpec(1.0 / 32)).states[-1]
    euler_err_est = 2.0 * float(np.max(np.abs(e_dt - e_half)))
    agree_ok = float(np.max(np.abs(rk - e_dt))) <= 10.0 * euler_err_est

    steady_ok = True
    trans_ok = True
    for kind in DelayKind:
        cfg = SystemConfig(4, 2, 0.5, kind, WeightScheme.CLASSICAL_SCALED, ALGEBRAIC)
        fixed = InitialDatum.constant(np.full((4, 2), 0.25))
        traj = integrate(cfg, fixed, 20 * cfg.tau)
        steady_ok = steady_ok and float(np.max(np.abs(traj.states - traj.states[0]))) <= 1e-12 * 20 * cfg.tau
        rng = np.random.default_rng(5)
        base = rng.uniform(0.0, 1.0, (4, 2))
        shift = np.array([2.0, -3.0])
        t1 = integrate(cfg, InitialDatum.constant(base), 10 * cfg.tau)
        t2 = integrate(cfg, InitialDatum.constant(base + shift), 10 * cfg.tau)
        trans_ok = trans_ok and float(np.max(np.abs(t2.states - (t1.states + shift)))) <= 1e-12 * 10 * cfg.tau

    ok = order_ok and agree_ok and steady_ok and trans_ok
    assert _report(
        "integrator self-convergence and cross-checks", ok,
        f"error ratios {errs[0] / errs[1]:.1f}, {errs[1] / errs[2]:.1f}",
    )


def test_root_regime_consistency():
    ok = True
    reaction = linear_coefficients(two_agent_config(DelayKind.REACTION, 1.0))
    transmission = linear_coefficients(two_agent_config(DelayKind.TRANSMISSION, 1.0))
    for k in range(1, 41):
        tau = 0.05 * k
        regime = classify_regime(*reaction, tau)
        if regime is Regime.BOUNDARY:
            continue
        root = rightmost_root(*reaction, tau)
        stable = regime in (Regime.NON_OSCILLATORY_STABLE, Regime.OSCILLATORY_STABLE)
        ok = ok and ((root.real < 0.0) == stable)
    trans_ok = all(rightmost_root(*transmission, tau).real < 0.0 for tau in (0.1, 1.0, 10.0))
    ok = ok and trans_ok
    assert _report("characteristic roots match regimes", ok)
