"""Command-line front end: simulate, sweep, rate, and toy subcommands.

Experiment specs are JSON documents (schema in the README).  Randomized
initial data are resolved into explicit vectors before a run, and the
resolved spec is embedded in report.json so any run can be reproduced
bit-for-bit from its own report.  Exit codes: 0 success, 1 configuration
error, 2 blow-up (partial outputs still written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import dynamics, metrics, rates
from .errors import HKDelayError, InvalidDatum, SpecError
from .model import (
    DelayKind,
    InitialDatum,
    SystemConfig,
    config_from_dict,
    datum_from_dict,
    json_number,
    require_finite_squares,
    require_known,
)

DEFAULT_OUTPUTS = ("trajectory", "metrics", "report")
KNOWN_OUTPUTS = ("trajectory", "metrics", "rates", "report")
# a run forms the diagnostics that one of its outputs reads, and d_x, the
# preconditions and the rates always: only metrics.csv reads D (its D and L
# columns), and metrics.csv and report.json (X0, X_final) the fluctuation
# series r_x, mean drift, X and L
READS_D = ("metrics",)
READS_FLUCTUATION = ("metrics", "report")
SWEEP_PARAMS = ("tau", "N", "gamma", "horizon")


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully resolved run: system, datum, integrator, horizon, outputs."""

    config: SystemConfig
    datum: InitialDatum
    integrator: dynamics.IntegratorSpec
    horizon: float
    outputs: tuple
    seed: int

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "datum": self.datum.to_dict(),
            "integrator": self.integrator.to_dict(),
            "horizon": self.horizon,
            "outputs": list(self.outputs),
            "seed": self.seed,
        }


def _resolve_datum(raw: dict, config: SystemConfig, seed: int) -> InitialDatum:
    kind = raw.get("kind")
    if kind == "random_uniform":
        require_known("datum", raw, ("kind", "low", "high"))
        low = float(json_number("datum.low", raw.get("low", 0.0)))
        high = float(json_number("datum.high", raw.get("high", 1.0)))
        require_finite_squares("datum.low/high", [low, high], config.dim)
        if low > high:
            raise InvalidDatum(f"datum.low/high: low {low:g} exceeds high {high:g}")
        rng = np.random.default_rng(seed)
        return InitialDatum.constant(rng.uniform(low, high, (config.n_agents, config.dim)))
    return datum_from_dict(raw)


def _json_object(name: str, value) -> dict:
    """value, if it is a JSON object; an error naming name otherwise."""
    if not isinstance(value, dict):
        raise SpecError(f"{name}: expected a JSON object, got {type(value).__name__}")
    return value


def _section(doc: dict, name: str, default=None) -> dict:
    """The JSON object doc[name], or default if it is absent; an absent
    section without a default is an error."""
    if name not in doc and default is None:
        raise SpecError(f"{name}: missing field")
    return _json_object(name, doc.get(name, default))


def load_spec(doc: dict, overrides: dict | None = None) -> ExperimentSpec:
    """Build a resolved ExperimentSpec from a JSON document.

    A malformed field raises a package error whose message starts with the
    name of the field or of its section, and so does an entry that no
    section knows.
    """
    overrides = overrides or {}
    _json_object("spec", doc)
    require_known("spec", doc, [f.name for f in fields(ExperimentSpec)])
    config = config_from_dict(_section(doc, "config"))
    seed = json_number("seed", overrides.get("seed", doc.get("seed", 0)), integer=True)
    datum = _resolve_datum(_section(doc, "datum"), config, seed)
    datum.require_fits(config)
    horizon = float(json_number("horizon", overrides.get("horizon", doc.get("horizon", 20.0 * config.tau))))
    integ = _section(doc, "integrator", {})
    require_known("integrator", integ, ("method", "dt"))
    given = overrides if "dt" in overrides else integ
    if "dt" in given:  # an explicit dt is judged on its own grid, not the default's
        dt = float(json_number("integrator.dt", given["dt"]))
    else:
        dt = dynamics.default_spec(config).dt
    method = integ.get("method", dynamics.METHOD)
    if method != dynamics.METHOD:
        raise SpecError(f"integrator.method: the one method is {dynamics.METHOD!r}, got {method!r}")
    outputs = doc.get("outputs", list(DEFAULT_OUTPUTS))
    if not isinstance(outputs, list):
        raise SpecError(f"outputs: expected a JSON list, got {type(outputs).__name__}")
    for name in outputs:
        if name not in KNOWN_OUTPUTS:
            raise SpecError(f"outputs: unknown entry {name!r}")
    return ExperimentSpec(
        config=config,
        datum=datum,
        integrator=dynamics.IntegratorSpec(dt),
        horizon=horizon,
        outputs=tuple(outputs),
        seed=seed,
    )


def _read_spec_doc(path) -> dict:
    """The JSON document of a spec file, with read errors as SpecError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SpecError(f"spec file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec is not valid JSON (line {exc.lineno}, column {exc.colno})")
    except ValueError as exc:  # an integer past Python's digit limit, or bytes that are not text
        raise SpecError(f"spec is not valid JSON ({exc})")


def load_spec_file(path, overrides: dict | None = None) -> ExperimentSpec:
    return load_spec(_read_spec_doc(path), overrides)


@dataclass(frozen=True)
class RunResult:
    spec: ExperimentSpec
    trajectory: dynamics.Trajectory
    series: metrics.MetricSeries
    preconditions: rates.PreconditionReport
    report: dict
    error: HKDelayError | None = None  # raised after the integration


def _reads(spec: ExperimentSpec, readers) -> bool:
    """Whether one of spec's outputs is among readers."""
    return any(name in readers for name in spec.outputs)


def run_experiment(spec: ExperimentSpec, traj=None) -> RunResult:
    """Integrate spec, unless a sweep passes the trajectory that its group
    gave, and evaluate the metrics, preconditions and report.  Only the
    diagnostics that spec's outputs read are formed (see READS_D and
    READS_FLUCTUATION); the summary's X0 and X_final are None without X.

    A package error after the integration is kept in the result with what
    was computed before it; its class name is the report's exit_reason.
    """
    if traj is None:
        traj = dynamics.integrate(spec.config, spec.datum, spec.horizon, spec.integrator, _reads(spec, READS_D))
    blow_up = traj.blow_up_time
    series = precond = summary = error = None
    theoretical, skipped = {}, {}
    try:
        series = metrics.compute_metrics(traj, _reads(spec, READS_FLUCTUATION))
        precond = rates.check_preconditions(spec.config, spec.datum, series.icass)
        theoretical, skipped = rates.theorem_rates(spec.config, precond)
        c_emp = None if blow_up is not None else metrics.fit_c_emp(series)
        tol = metrics.consensus_tol(series)
        summary = {
            "d_x0": series.icass.d_x0,
            "d_x_final": float(series.d_x[-1]),
            "r_x0": series.icass.r_x0,
            "X0": None if series.X is None else float(series.X[traj.origin]),
            "X_final": None if series.X is None else float(series.X[-1]),
            "consensus_time": None if blow_up is not None else metrics.consensus_time(series, tol),
            "consensus_tol": tol,
            "C_emp": c_emp,
        }
    except HKDelayError as exc:
        error = exc
    report = {
        "spec": spec.to_dict(),
        "preconditions": None if precond is None else precond.to_dict(),
        "rates": theoretical,
        "rates_skipped": skipped,
        "metrics_summary": summary,
        "blow_up_time": blow_up,
        "exit_reason": (
            type(error).__name__ if error is not None else "ok" if blow_up is None else "blow_up"
        ),
    }
    return RunResult(spec, traj, series, precond, report, error)


def write_outputs(result: RunResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = result.spec.outputs
    if "trajectory" in outputs:
        dynamics.trajectory_to_csv(result.trajectory, out_dir / "trajectory.csv")
    if "metrics" in outputs and result.series is not None:
        result.series.to_csv(out_dir / "metrics.csv")
    if "rates" in outputs:
        with open(out_dir / "rates.json", "w") as fh:
            json.dump(result.report["rates"], fh, indent=2, sort_keys=True)
            fh.write("\n")
    if "report" in outputs:
        with open(out_dir / "report.json", "w") as fh:
            json.dump(result.report, fh, indent=2, sort_keys=True)
            fh.write("\n")


def cmd_simulate(args) -> int:
    spec = load_spec_file(args.spec, _overrides(args))
    result = run_experiment(spec)
    write_outputs(result, Path(args.out))
    if result.error is not None:
        raise result.error  # exit 1, after the partial outputs
    blow_up = result.trajectory.blow_up_time
    if blow_up is not None:
        print(f"blow-up at t={blow_up:.6g}; partial outputs written", file=sys.stderr)
        return 2
    return 0


def _apply_sweep_value(doc, param: str, value: float) -> dict:
    """A copy of the spec document with param set to value.  The spec and
    each section that it reads pass the loader's checks first, so a
    malformed one is refused as simulate refuses it."""
    doc = json.loads(json.dumps(_json_object("spec", doc)))  # deep copy
    config = _section(doc, "config")
    if param == "tau":
        config["tau"] = value
        if _section(doc, "datum").get("kind") == "sampled":
            raise SpecError("datum.kind: sweep over tau needs a constant or random datum, got 'sampled'")
        _section(doc, "integrator", {}).pop("dt", None)
        doc.pop("horizon", None)  # keep horizon proportional to tau
    elif param == "N":
        if not (math.isfinite(value) and value == int(value)):
            raise SpecError(f"sweep value for N must be an integer, got {value}")
        config["n_agents"] = int(value)
        if (kind := _section(doc, "datum").get("kind")) != "random_uniform":
            raise SpecError(f"datum.kind: sweep over N needs a random_uniform datum, got {kind!r}")
    elif param == "gamma":
        if not isinstance(config.get("influence"), dict):
            config_from_dict(config)  # refuses the config, naming its influence or an earlier field
        if (kind := config["influence"].get("kind")) != "algebraic_decay":
            raise SpecError(f"config: influence.kind: sweep over gamma needs an algebraic_decay influence, got {kind!r}")
        config["influence"]["gamma"] = value
    else:  # horizon; cmd_sweep refuses any other param
        doc["horizon"] = value
    return doc


def _sweep_row(spec: ExperimentSpec, value: float, traj) -> str:
    """The sweep.csv line of one value."""
    result = run_experiment(spec, traj)
    if result.error is not None:
        raise result.error
    regime = ""
    if spec.config.n_agents == 2:
        a, b = rates.linear_coefficients(spec.config)
        regime = rates.classify_regime(a, b, spec.config.tau).value
    summary = result.report["metrics_summary"]
    numbers = [value, summary["consensus_time"], summary["C_emp"]]
    cells = ["" if v is None else format(float(v), ".17g") for v in numbers]
    return ",".join(cells + [regime, "|".join(result.preconditions.applicable())]) + "\n"


def cmd_sweep(args) -> int:
    if args.param not in SWEEP_PARAMS:
        raise SpecError(f"unknown sweep parameter {args.param!r} (choose from {SWEEP_PARAMS})")
    if args.param == "horizon" and args.horizon is not None:
        raise SpecError("--horizon would replace every swept horizon; drop it from a horizon sweep")
    doc = _read_spec_doc(args.spec)
    overrides = _overrides(args)
    # every value loads before any integrates, so a bad one fails first;
    # tau sweeps drop the spec's own dt and horizon; --dt and --horizon still
    # apply.  A value writes no file of its own, so its outputs, checked by
    # load_spec, are emptied and its group integrates without D: it forms
    # neither D nor the fluctuation series
    specs = [replace(load_spec(_apply_sweep_value(doc, args.param, v), overrides), outputs=())
             for v in args.values]
    groups: dict = {}
    for i, spec in enumerate(specs):
        groups.setdefault(dynamics.group_key(spec.config, spec.horizon, spec.integrator), []).append(i)
    rows = [None] * len(specs)
    for members in groups.values():
        columns = zip(*[(specs[i].config, specs[i].datum, specs[i].horizon, specs[i].integrator)
                        for i in members])
        run = dynamics.integrate(*columns, False)
        for i, traj in zip(members, run.trajectories):
            rows[i] = _sweep_row(specs[i], args.values[i], traj)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        fh.write("value,consensus_time,C_emp,regime,preconditions\n")
        fh.writelines(rows)
    return 0


def cmd_rate(args) -> int:
    problem = rates.HalanayProblem(args.alpha, args.beta, args.tau, args.measure)
    result = rates.solve_halanay(problem)
    print(json.dumps({**problem.to_dict(), **result.to_dict()}, sort_keys=True))
    return 0


def toy_record(delay_kind: DelayKind, tau: float, horizon: float | None = None,
               dt: float | None = None, t_lo: float | None = None) -> dict:
    """The two-agent toy at one delay, as `hkdelay toy` prints it: its
    regime and rightmost root, and the forward sign changes and fitted
    decay rate of its gap w = x_1 - x_2, integrated from the constant
    history w = 1 over [0, horizon].  horizon defaults to 40 tau, dt to
    dynamics.default_spec's step and t_lo as in metrics.fitted_decay_rate.
    A run that blows up is read up to the node before its blow-up.  The
    gap reads no dissipation, so none is formed."""
    config = rates.two_agent_config(delay_kind, tau)
    a, b = rates.linear_coefficients(config)
    root = rates.rightmost_root(a, b, tau)
    traj = dynamics.integrate(config, InitialDatum.constant([[0.5], [-0.5]]),
                              40.0 * tau if horizon is None else horizon,
                              None if dt is None else dynamics.IntegratorSpec(dt), False)
    w = traj.states[:, 0, 0] - traj.states[:, 1, 0]
    return {
        "tau": tau,
        "regime": rates.classify_regime(a, b, tau).value,
        "rightmost_root": {"re": root.real, "im": root.imag},
        "sign_changes": metrics.count_sign_changes(w[traj.grid > 0.0]),
        "fitted_rate": metrics.fitted_decay_rate(traj.grid, w, t_lo),
    }


def cmd_toy(args) -> int:
    print(json.dumps(toy_record(args.kind, args.tau, args.horizon, args.dt), sort_keys=True))
    return 0


def _overrides(args) -> dict:
    return {k: v for k in ("dt", "horizon", "seed") if (v := getattr(args, k)) is not None}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, the configuration-error
    code, since 2 means blow-up."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    step = argparse.ArgumentParser(add_help=False)
    step.add_argument("--dt", type=float, default=None, help="integrator step")
    step.add_argument("--horizon", type=float, default=None, help="integration horizon")
    run = argparse.ArgumentParser(add_help=False, parents=[step])
    run.add_argument("--out", default=".", help="output directory")
    run.add_argument("--seed", type=int, default=None, help="seed for randomized data")

    parser = _Parser(prog="hkdelay", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[run], help="run one experiment spec")
    p_sim.add_argument("spec", help="path to the experiment spec JSON")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", parents=[run], help="sweep one parameter")
    p_sweep.add_argument("spec")
    p_sweep.add_argument("--param", required=True, help=f"one of {SWEEP_PARAMS}")
    p_sweep.add_argument("--values", nargs="+", type=float, required=True, help="decimal values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_rate = sub.add_parser("rate", help="solve a rate equation")
    p_rate.add_argument("--alpha", type=float, required=True)
    p_rate.add_argument("--beta", type=float, required=True)
    p_rate.add_argument("--tau", type=float, default=1.0)
    p_rate.add_argument("--measure", choices=["dirac", "uniform"], default="dirac")
    p_rate.set_defaults(func=cmd_rate)

    p_toy = sub.add_parser("toy", parents=[step], help="two-agent regime analysis")
    p_toy.add_argument("--tau", type=float, required=True)
    p_toy.add_argument("--kind", choices=["transmission", "reaction"], required=True)
    p_toy.set_defaults(func=cmd_toy)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HKDelayError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
