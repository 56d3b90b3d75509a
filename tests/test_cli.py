import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hkdelay import dynamics, metrics, rates
from hkdelay.errors import InvalidConfig, InvalidDatum, InvalidProblem, OutOfRange
from hkdelay.model import DelayKind, InitialDatum, weights_from_states, config_from_dict
from hkdelay.dynamics import IntegratorSpec, integrate, default_spec
from hkdelay.metrics import count_sign_changes, fitted_decay_rate
from hkdelay.rates import (
    HalanayProblem, Measure, classify_regime, linear_coefficients, rightmost_root, solve_halanay, two_agent_config,
)
from hkdelay.cli import load_spec, main, toy_record

from conftest import COEFFICIENTS, W0, write_spec
from reference import gap, read_trajectory_csv


def usage_exit(argv) -> int:
    """The exit code of an argv that argparse rejects or answers itself."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def consensus_spec(tmp_path):
    return write_spec(
        tmp_path / "spec.json",
        {
            "config": {
                "n_agents": 3, "dim": 1, "tau": 0.5,
                "delay_kind": "transmission", "weight_scheme": "normalized",
                "influence": {"kind": "algebraic_decay", "gamma": 1.0},
            },
            "datum": {"kind": "constant_per_agent", "vectors": [[0.25], [0.25], [0.25]]},
            "horizon": 5.0,
            "seed": 0,
        },
    )


def prop_rate_spec(tmp_path):
    return write_spec(
        tmp_path / "prop.json",
        {
            "config": {
                "n_agents": 3, "dim": 2, "tau": 1.0,
                "delay_kind": "transmission", "weight_scheme": "normalized",
                "influence": {"kind": "algebraic_decay", "gamma": 1.0},
            },
            "datum": {"kind": "random_uniform", "low": 0.0, "high": 1.0},
            "horizon": 25.0,
            "seed": 11,
        },
    )


def toy_spec(tmp_path, tau=0.5, horizon=None):
    doc = {
        "config": {
            "n_agents": 2, "dim": 1, "tau": tau,
            "delay_kind": "reaction", "weight_scheme": "normalized",
            "influence": {"kind": "constant", "c": 1.0},
        },
        "datum": {"kind": "constant_per_agent", "vectors": [[0.5], [-0.5]]},
        "seed": 0,
    }
    if horizon is not None:
        doc["horizon"] = horizon
    return write_spec(tmp_path / "toy.json", doc)


# ---------------------------------------------------------------------------
# simulate

def test_simulate_consensus_datum(tmp_path):
    out = tmp_path / "out"
    code = main(["simulate", consensus_spec(tmp_path), "--out", str(out)])
    assert code == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    d_col = [float(row.split(",")[1]) for row in lines[1:]]
    assert max(d_col) <= 1e-12
    report = json.loads((out / "report.json").read_text())
    assert report["exit_reason"] == "ok"
    assert report["metrics_summary"]["consensus_time"] == 0.0


def test_simulate_rate_report(tmp_path):
    out = tmp_path / "out"
    code = main(["simulate", prop_rate_spec(tmp_path), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    rate = report["rates"]["transmission_normalized"]
    c_emp = report["metrics_summary"]["C_emp"]
    assert rate["C"] > 0.0
    assert c_emp >= rate["C"]
    assert abs(rate["residual"]) <= 1e-12
    assert report["preconditions"]["theorems"]["transmission_normalized"]["applies"]


def test_simulate_blow_up_exit_code(tmp_path):
    out = tmp_path / "out"
    code = main(["simulate", toy_spec(tmp_path, tau=2.0, horizon=150.0), "--out", str(out)])
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert report["blow_up_time"] is not None
    assert report["exit_reason"] == "blow_up"
    assert (out / "trajectory.csv").exists()
    assert (out / "metrics.csv").exists()


def test_simulate_bad_spec_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", str(bad), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "line" in err

    missing = write_spec(tmp_path / "missing.json", {"datum": {"kind": "constant_per_agent", "vectors": [[1]]}})
    assert main(["simulate", missing, "--out", str(tmp_path / "o2")]) == 1


@pytest.mark.parametrize(
    "argv", [["simulate"], ["simulate", "spec.json", "--bogus"], ["frobnicate"]],
    ids=["no_spec", "unknown_flag", "unknown_command"],
)
def test_usage_error_exits_1_not_the_blow_up_code(capsys, argv):
    assert usage_exit(argv) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
def test_help_exits_0(capsys, argv):
    assert usage_exit(argv) == 0
    assert capsys.readouterr().out.startswith("usage: hkdelay")


def test_simulate_deterministic_and_round_trippable(tmp_path):
    spec = prop_rate_spec(tmp_path)
    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    assert main(["simulate", spec, "--out", str(out_a)]) == 0
    assert main(["simulate", spec, "--out", str(out_b)]) == 0
    assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    embedded = json.loads((out_a / "report.json").read_text())["spec"]
    rerun = write_spec(tmp_path / "embedded.json", embedded)
    assert main(["simulate", rerun, "--out", str(out_c)]) == 0
    assert (out_a / "trajectory.csv").read_bytes() == (out_c / "trajectory.csv").read_bytes()


def test_simulate_underflowing_influence(tmp_path):
    # every psi value of every row underflows to 0 at gamma = 200
    doc = {
        "config": {
            "n_agents": 3, "dim": 1, "tau": 1.0,
            "delay_kind": "transmission", "weight_scheme": "normalized",
            "influence": {"kind": "algebraic_decay", "gamma": 200.0},
        },
        "datum": {"kind": "constant_per_agent", "vectors": [[0.0], [10.0], [20.0]]},
        "seed": 0,
    }
    out = tmp_path / "out"
    assert main(["simulate", write_spec(tmp_path / "g200.json", doc), "--out", str(out)]) == 0
    for name in ("trajectory.csv", "metrics.csv", "report.json"):
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert report["exit_reason"] == "ok"
    assert "transmission_normalized" not in report["rates"]
    assert "underflows" in report["rates_skipped"]["transmission_normalized"]
    config = config_from_dict(doc["config"])
    _, states = read_trajectory_csv(out / "trajectory.csv")
    for x in (states[0], states[-1]):
        w = weights_from_states(config, x, x).matrix()
        assert np.all(np.isfinite(w))
        assert np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-12)


ROUNDED_ALPHA = {
    # psi(2 r_x0) is about 1e-40 at gamma = 20 and 1e-27 near 1e13
    "gamma20": ({"kind": "random_uniform", "low": 0.0, "high": 5.0}, 20.0),
    "far": ({"kind": "constant_per_agent", "vectors": [[1e13, 0.0], [1e13 + 1, 1.0], [1e13 + 3, 0.5]]}, 1.0),
}


@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--param", "tau", "--values", "1"]],
                         ids=["simulate", "sweep"])
@pytest.mark.parametrize("case", ROUNDED_ALPHA)
def test_theorem_rate_below_float_resolution_is_skipped(tmp_path, capsys, command, case):
    # alpha = 1 - psi_lower (N - 2)/(N - 1) rounded to 1: the run integrated
    # and then exited 1 with "alpha < beta violated", with no summary
    datum, gamma = ROUNDED_ALPHA[case]
    doc = {
        "config": {
            "n_agents": 5 if case == "gamma20" else 3, "dim": 2, "tau": 1.0,
            "delay_kind": "transmission", "weight_scheme": "normalized",
            "influence": {"kind": "algebraic_decay", "gamma": gamma},
        },
        "datum": datum,
        "horizon": 20.0,
        "seed": 3,
    }
    out = tmp_path / "out"
    assert main([command[0], write_spec(tmp_path / "spec.json", doc), *command[1:], "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    if command[0] == "sweep":
        assert (out / "sweep.csv").read_text().splitlines()[1].endswith(",transmission_classical|transmission_normalized")
        return
    report = json.loads((out / "report.json").read_text())
    assert report["exit_reason"] == "ok" and report["metrics_summary"] is not None
    assert report["rates"] == {}
    r_x0 = report["metrics_summary"]["r_x0"]
    psi = (1.0 + (2.0 * r_x0) ** 2) ** -gamma
    assert 0.0 < psi < 1e-16
    assert report["rates_skipped"] == {"transmission_normalized": (
        f"psi floor {psi:g} over [0, 2*r_x0={2.0 * r_x0:g}] rounds alpha to beta = 1, so no rate C > 0"
    )}


def far_spec(tmp_path):
    """Three agents near 1e13, whose states round at about 0.002."""
    return write_spec(
        tmp_path / "far.json",
        {
            "config": {
                "n_agents": 3, "dim": 1, "tau": 1.0,
                "delay_kind": "transmission", "weight_scheme": "normalized",
                "influence": {"kind": "constant", "c": 1.0},
            },
            "datum": {"kind": "constant_per_agent", "vectors": [[1e13], [1e13 + 1], [1e13 + 3]]},
        },
    )


def constant_psi_spec(tmp_path, tau, vectors=([0.0], [1.0], [3.0])):
    return write_spec(
        tmp_path / "constant_psi.json",
        {
            "config": {
                "n_agents": len(vectors), "dim": 1, "tau": tau,
                "delay_kind": "transmission", "weight_scheme": "normalized",
                "influence": {"kind": "constant", "c": 1.0},
            },
            "datum": {"kind": "constant_per_agent", "vectors": list(vectors)},
        },
    )


def test_long_delay_runs_at_a_stable_default_step(tmp_path):
    # the old default tau/64 = 6.25 exceeds RK4's stability limit (about
    # 2.785) on the transmission self-term: this run blew up at t = 50
    out = tmp_path / "out"
    assert main(["simulate", constant_psi_spec(tmp_path, 400.0), "--horizon", "800", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["spec"]["integrator"]["dt"] == 0.25
    assert report["blow_up_time"] is None
    assert report["metrics_summary"]["d_x_final"] <= report["metrics_summary"]["d_x0"]


def test_rate_whose_kernel_overflows_is_reported(tmp_path):
    # (beta - alpha) tau / 2 = 1000 > 709.78: the solver's first midpoint
    # overflowed math.exp and the run ended in a traceback with no outputs
    out = tmp_path / "out"
    spec = constant_psi_spec(tmp_path, 4000.0)
    assert main(["simulate", spec, "--dt", "1", "--horizon", "40", "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists() and (out / "metrics.csv").exists()
    rate = json.loads((out / "report.json").read_text())["rates"]["transmission_normalized"]
    assert 0.0 < rate["C"] < 0.5 and 0.0 <= rate["residual"] <= 1e-12


def test_two_agent_transmission_rate_is_recorded_as_skipped(tmp_path):
    # N = 2 gives alpha = beta, so the theorem applies but certifies no C > 0
    out = tmp_path / "out"
    assert main(["simulate", constant_psi_spec(tmp_path, 1.0, ([0.0], [1.0])), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["preconditions"]["theorems"]["transmission_normalized"]["applies"]
    assert "transmission_normalized" not in report["rates"]
    assert "n_agents = 2" in report["rates_skipped"]["transmission_normalized"]


def test_translated_datum_runs_to_the_horizon(tmp_path):
    # the dynamics are translation-invariant; a datum near 1e13 used to be
    # reported as a blow-up at t = tau/64 by an absolute |x| > 1e12 test
    out = tmp_path / "out"
    assert main(["simulate", far_spec(tmp_path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["exit_reason"] == "ok"
    assert report["blow_up_time"] is None
    assert report["metrics_summary"]["d_x_final"] < report["metrics_summary"]["d_x0"]


def test_empirical_rate_of_a_translated_datum_respects_the_theorem_rate(tmp_path):
    # near 1e13, d_x stops at 0.03125 (about 16 ulps of the states) from
    # t ~ 4 on; a fit over that rounding floor reported C_emp 0.0384, below
    # the certified rate C = 0.315 of the same report
    out = tmp_path / "out"
    assert main(["simulate", far_spec(tmp_path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    rate = report["rates"]["transmission_normalized"]["C"]
    assert rate == pytest.approx(0.315, abs=1e-3)
    assert report["metrics_summary"]["C_emp"] >= rate


def test_fluctuation_of_a_translated_datum_keeps_its_digits(tmp_path):
    # X(0) = (16 + 1 + 25) / 9 / (2 (N - 1)) = 7/6; an agent mean taken of
    # the states near 1e13 rounds at about 0.002 and read 1.1666669845581055
    out = tmp_path / "out"
    assert main(["simulate", far_spec(tmp_path), "--out", str(out)]) == 0
    x0 = json.loads((out / "report.json").read_text())["metrics_summary"]["X0"]
    assert abs(x0 - 7.0 / 6.0) <= 2 * np.spacing(7.0 / 6.0)


def test_consensus_time_of_a_translated_datum_is_reached(tmp_path):
    # d_x stops at 0.03125, the rounding of states near 1e13, which lies
    # above 1e-3 d_x0 = 0.003; the tolerance now has the floor of the fit,
    # 64 eps r_x0, and the run reaches it
    out = tmp_path / "out"
    assert main(["simulate", far_spec(tmp_path), "--out", str(out)]) == 0
    summary = json.loads((out / "report.json").read_text())["metrics_summary"]
    assert summary["consensus_tol"] == 64 * np.finfo(float).eps * summary["r_x0"]
    t_c = summary["consensus_time"]
    assert t_c is not None and 0.0 < t_c < 20.0
    rows = [row.split(",") for row in (out / "metrics.csv").read_text().splitlines()[1:]]
    assert all(float(row[1]) < summary["consensus_tol"] for row in rows if float(row[0]) >= t_c)


def _raise(error):
    def fail(*args, **kwargs):
        raise error

    return fail


# a package error injected in a layer after the integration, and the files
# that a simulate run still writes
LATE_ERRORS = pytest.mark.parametrize(
    "module, layer, error, written",
    [
        (metrics, "compute_metrics", OutOfRange("no series"), ("trajectory.csv", "report.json")),
        (rates, "check_preconditions", InvalidDatum("no check"),
         ("trajectory.csv", "metrics.csv", "report.json")),
        (rates, "solve_halanay", InvalidProblem("no rate"),
         ("trajectory.csv", "metrics.csv", "report.json")),
    ],
    ids=["compute_metrics", "check_preconditions", "theorem_rate"],
)


@LATE_ERRORS
def test_package_error_after_integration_writes_partial_outputs(
    tmp_path, capsys, monkeypatch, module, layer, error, written
):
    spec = prop_rate_spec(tmp_path)
    assert main(["simulate", spec, "--out", str(tmp_path / "ok")]) == 0
    monkeypatch.setattr(module, layer, _raise(error))
    out = tmp_path / "out"
    assert main(["simulate", spec, "--out", str(out)]) == 1
    assert f"error: {error}" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == sorted(written)
    for name in written[:-1]:  # the trajectory and series computed before the error
        assert (out / name).read_bytes() == (tmp_path / "ok" / name).read_bytes()
    report = json.loads((out / "report.json").read_text())
    assert report["exit_reason"] == type(error).__name__
    assert report["spec"] == json.loads((tmp_path / "ok" / "report.json").read_text())["spec"]
    assert report["metrics_summary"] is None
    assert report["blow_up_time"] is None


@LATE_ERRORS
def test_package_error_in_a_sweep_value_writes_no_sweep_csv(
    tmp_path, capsys, monkeypatch, module, layer, error, written
):
    # a sweep value writes no file of its own, so its error leaves nothing
    monkeypatch.setattr(module, layer, _raise(error))
    out = tmp_path / "out"
    assert main(["sweep", prop_rate_spec(tmp_path), "--param", "tau", "--values", "0.5", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize(
    "datum, field",
    [
        ({"kind": "constant_per_agent", "vectors": [[0.0], [1e200], [-1e200]]}, "datum.vectors"),
        ({"kind": "random_uniform", "low": -1e200, "high": 1e200}, "datum.low/high"),
        ({"kind": "sampled", "times": [-1.0, 0.0], "values": [[0.0, 1.0, 2.0], [0.0, 1e160, 2.0]]},
         "datum.values"),
    ],
    ids=["vectors", "random", "sampled"],
)
def test_overflowing_datum_is_rejected_before_any_output(tmp_path, capsys, datum, field):
    # squared distances of such data overflow: the radius was inf, and the
    # rate floor then raised inside the report with no outputs written
    doc = {
        "config": {
            "n_agents": 3, "dim": 1, "tau": 1.0,
            "delay_kind": "transmission", "weight_scheme": "normalized",
            "influence": {"kind": "algebraic_decay", "gamma": 200.0},
        },
        "datum": datum,
    }
    out = tmp_path / "out"
    assert main(["simulate", write_spec(tmp_path / "huge.json", doc), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {field}:" in err and "overflow" in err
    assert not out.exists()


DELETE = object()
SPEC = object()  # in an argv: the consensus spec, and --out is appended
MISSING = object()  # in an argv: a spec file that does not exist, and --out is appended


def _set(path, value):
    """A change to the consensus spec: value at a dotted path, or the field
    deleted there for DELETE."""
    def apply(doc):
        *parents, leaf = path.split(".")
        for key in parents:
            doc = doc[key]
        if value is DELETE:
            del doc[leaf]
        else:
            doc[leaf] = value

    return apply


@pytest.mark.parametrize(
    "args, field",
    [
        (_set("horizon", "abc"), "horizon"),
        (_set("horizon", None), "horizon"),
        (_set("integrator", {"dt": "x"}), "integrator.dt"),
        (_set("integrator", {"method": "rk5"}), "integrator.method"),
        (_set("seed", "x"), "seed"),
        (_set("config", []), "config"),
        (_set("config.tau", "1"), "config.tau"),
        (_set("datum.vectors", "abc"), "datum.vectors"),
        (_set("datum.vectors", DELETE), "datum.vectors"),
        (_set("config.influence", []), "config"),
        (_set("config.influence", {"kind": "table", "samples": [0.0, 1.0]}), "config"),
        (_set("config.influence", {"kind": "table"}), "config.influence.samples"),
        (_set("horizon", 1e300), "horizon"),
        (_set("horizon", 1e13), "horizon"),  # 2^54 bytes: addressable, not allocatable
        (_set("integrator", {"dt": 1e-300}), "integrator.dt"),
        (_set("outputs", 5), "outputs"),
        (_set("integrator", {"dt": 0.3}), "integrator.dt"),
        (_set("integrator", {"dt": -1.0}), "integrator.dt"),
        (_set("horizon", -1.0), "horizon"),
        (_set("datum.vectors", [[0.25], [float("nan")], [0.25]]), "datum.vectors"),
        (_set("datum", {"kind": "sampled", "times": [0.0, -0.5], "values": [[0.0, 1.0, 2.0]] * 2}),
         "datum.times"),
        (_set("datum", {"kind": "sampled", "times": [-0.25, 0.0], "values": [[0.0, 1.0, 2.0]] * 2}),
         "datum.times"),
        (_set("datum", {"kind": "sampled", "times": [-0.5, 0.0], "values": [[0.0, 1.0, 2.0]]}),
         "datum.values"),
        # vectors of shape (N, 1, 2) passed as (N, 1) and ended in a broadcast
        # ValueError traceback when the startup nodes were filled
        (_set("datum.vectors", [[[0.0, 1.0]], [[1.0, 2.0]], [[2.0, 3.0]]]), "datum.vectors"),
        (["sweep", _set("datum.vectors", [[[0.0, 1.0]], [[1.0, 2.0]], [[2.0, 3.0]]]), "--param", "tau",
          "--values", "1"], "datum.vectors"),
        (_set("config.tau", 1e17), "integrator.dt"),  # 4e17 default steps per delay
        (["sweep", SPEC, "--param", "tau", "--values", "1e17"], "integrator.dt"),
        (["toy", "--tau", "0", "--kind", "reaction"], "tau"),
        (["toy", "--tau=-1", "--kind", "reaction"], "tau"),
        (["toy", "--tau", "nan", "--kind", "transmission"], "tau"),
        # rng.uniform raised OverflowError on these bounds
        (_set("datum", {"kind": "random_uniform", "low": float("nan")}), "datum.low/high"),
        (_set("datum", {"kind": "random_uniform", "high": 1e400}), "datum.low/high"),
        (_set("datum", {"kind": "random_uniform", "low": -1e308, "high": 1e308}), "datum.low/high"),
        # sizes checked, never allocated: numpy raised on their arrays
        (_set("config.n_agents", 1e300), "config"),
        (_set("config.dim", 1e300), "config"),
        # np.arange over [0, 4 pi/tau + 1e-12] asked for ~6e287 Newton starts
        (["toy", "--tau", "1e300", "--kind", "reaction"], "integrator.dt"),
        (["toy", "--tau", "1e300", "--kind", "transmission"], "integrator.dt"),
        # two steps of 1e-12 are not a delay of 1.5e-12
        (["toy", "--tau", "1.5e-12", "--dt", "1e-12", "--kind", "reaction"], "integrator.dt"),
        # tau/64 is not exact at a subnormal tau: the default step was refused
        # as a dt that nobody set, "dt=1.5625e-312 must divide tau=1e-310"
        # or "must be positive, got 0.0"
        (["toy", "--tau", "1e-310", "--kind", "transmission"], "integrator.dt"),
        (["toy", "--tau", "5e-324", "--kind", "reaction"], "integrator.dt"),
        (_set("config.tau", 1e-310), "integrator.dt"),
        (["sweep", SPEC, "--param", "tau", "--values", "1e-310"], "integrator.dt"),
        # NaN knots passed every comparison: the run blew up at tau/64, and an
        # infinite knot ran psi = 1 and wrote Infinity into report.json
        (_set("config.influence", {"kind": "table", "samples": [[0.0, 1.0], [1.0, float("nan")]]}),
         "config"),
        (_set("config.influence", {"kind": "table", "samples": [[0.0, 1.0], [float("nan"), 0.5]]}),
         "config"),
        (_set("config.influence", {"kind": "table", "samples": [[0.0, 1.0], [float("inf"), 0.5]]}),
         "config"),
        # a bool is not a number (it ran as 1), nor is a numeric string (it
        # was parsed), and a seed is a non-negative integer (1.5 ran as seed
        # 1 and -1 ended in a traceback)
        (_set("config.tau", True), "config.tau"),
        (_set("config.dim", True), "config.dim"),
        (_set("horizon", "5"), "horizon"),
        (_set("integrator", {"dt": "0.00625"}), "integrator.dt"),
        (_set("config.influence", {"kind": "constant", "c": "0.5"}), "config"),
        (_set("config.influence", {"kind": "algebraic_decay", "gamma": True}), "config"),
        (_set("datum", {"kind": "random_uniform", "low": "0"}), "datum.low"),
        (_set("seed", 1.5), "seed"),
        (_set("seed", True), "seed"),
        (_set("seed", "7"), "seed"),
        (_set("seed", -1), "seed"),
        (["simulate", SPEC, "--seed", "-1"], "seed"),
        # a string was read as its letters: "unknown entry 'r'"
        (_set("outputs", "report"), "outputs"),
        # array elements follow the same number rule: np.asarray parsed the
        # strings and read the bools as 0 and 1, and the run exited 0
        (_set("datum.vectors", [["0.1"], [0.2], [0.5]]), "datum.vectors"),
        (_set("datum.vectors", [[0.1], [True], [0.5]]), "datum.vectors"),
        (_set("datum", {"kind": "sampled", "times": [-0.5, "0"], "values": [[0.0, 1.0, 2.0]] * 2}),
         "datum.times"),
        (_set("datum", {"kind": "sampled", "times": [-0.5, 0.0], "values": [[0.0, False, 2.0]] * 2}),
         "datum.values"),
        (_set("config.influence", {"kind": "table", "samples": [[0.0, True], [2.0, 0.5]]}),
         "config: influence.samples"),
        (_set("config.influence", {"kind": "table", "samples": [[0.0, 1.0], ["2.0", "0.5"]]}),
         "config: influence.samples"),
        # an integer beyond any float ended in an OverflowError traceback
        (_set("datum.vectors", [[0.0], [1.0], [10**400]]), "datum.vectors"),
        (_set("horizon", 10**400), "horizon"),
        (_set("integrator", {"dt": -(10**400)}), "integrator.dt"),
        (_set("datum", {"kind": "random_uniform", "high": 10**400}), "datum.high"),
        # rng.uniform raised "high - low < 0"; a knot spacing of inf read the
        # datum at 0 as its first knot, with overflow warnings, and exited 0
        (_set("datum", {"kind": "random_uniform", "low": 0.0, "high": -1}), "datum.low/high"),
        (_set("datum", {"kind": "sampled", "times": [-1e308, 1e308],
                        "values": [[[0.0], [1.0], [2.0]], [[2.0], [3.0], [4.0]]]}), "datum.times"),
        # ceil(horizon/dt - 1e-9) took no step: the run stopped at t = 0 and exited 0
        (_set("horizon", 1e-300), "horizon"),
        # an entry that its section does not know ran with the default of the
        # field it misspelled, and exited 0
        (_set("horizn", 5.0), "spec.horizn"),
        (_set("config.infuence", {"kind": "constant", "c": 0.5}), "config.infuence"),
        (_set("config.influence", {"kind": "algebraic_decay", "gamma": 1.0, "c": 0.5}), "config: influence.c"),
        (_set("datum.vector", [[0.0], [1.0], [2.0]]), "datum.vector"),
        (_set("datum", {"kind": "random_uniform", "low": 0.0, "hi": 2.0}), "datum.hi"),
        (_set("datum", {"kind": "sampled", "times": [-0.5, 0.0], "values": [[0.0, 1.0, 2.0]] * 2, "t": 0}),
         "datum.t"),
        (_set("integrator", {"dt": 0.0625, "step": 0.125}), "integrator.step"),
        # a change may return a new document in place of the spec
        (lambda doc: [doc], "spec"),
        (["simulate", MISSING], "spec file not found"),
    ],
    ids=[
        "horizon_text", "horizon_null", "dt_text", "method_unknown", "seed_text",
        "config_list", "tau_text", "vectors_text", "vectors_missing",
        "influence_list", "table_flat", "table_samples_missing", "horizon_huge", "horizon_unallocatable", "dt_tiny",
        "outputs_number", "dt_not_dividing", "dt_negative", "horizon_negative", "vectors_nan",
        "times_decreasing", "times_short", "values_shape", "vectors_3d", "sweep_vectors_3d",
        "dt_default_unaddressable", "sweep_dt_default_unaddressable",
        "toy_tau_zero", "toy_tau_negative", "toy_tau_nan",
        "random_low_nan", "random_high_inf", "random_range_overflows",
        "n_agents_unaddressable", "dim_unaddressable",
        "toy_tau_huge_reaction", "toy_tau_huge_transmission", "toy_dt_not_dividing_tiny_tau",
        "toy_tau_subnormal_transmission", "toy_tau_smallest_subnormal", "tau_subnormal", "sweep_tau_subnormal",
        "table_psi_nan", "table_s_nan", "table_s_inf",
        "tau_bool", "dim_bool", "horizon_string", "dt_string", "c_string", "gamma_bool", "low_string",
        "seed_fraction", "seed_bool", "seed_string", "seed_negative", "seed_negative_flag",
        "outputs_string",
        "vectors_string", "vectors_bool", "times_string", "values_bool", "samples_bool", "samples_string",
        "vectors_huge_int", "horizon_huge_int", "dt_huge_int", "high_huge_int",
        "random_low_above_high", "times_spacing_overflows", "horizon_tiny",
        "unknown_top_level", "unknown_config", "unknown_influence", "unknown_constant_datum",
        "unknown_random_datum", "unknown_sampled_datum", "unknown_integrator",
        "spec_not_an_object", "spec_missing",
    ],
)
def test_malformed_input_exits_with_an_error_line(tmp_path, capsys, args, field):
    out = tmp_path / "out"
    if callable(args):
        args = ["simulate", args]
    change = next((a for a in args if callable(a)), None)
    if change is not None:  # in an argv: the changed consensus spec, and --out is appended
        with open(consensus_spec(tmp_path)) as fh:
            doc = json.load(fh)
        doc = change(doc) or doc
        default_step = field == "integrator.dt" and "dt" not in doc.get("integrator", {})
        spec = write_spec(tmp_path / "bad.json", doc)
        args = [spec if a is change else a for a in args] + ["--out", str(out)]
    else:
        default_step = field == "integrator.dt" and "--dt" not in args
        if SPEC in args or MISSING in args:
            paths = {SPEC: consensus_spec(tmp_path), MISSING: str(tmp_path / "missing.json")}
            args = [paths.get(a, a) for a in args] + ["--out", str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and "Traceback" not in err
    if default_step:  # a refused default step says so, and names the setting that each command keeps
        assert err.startswith("error: integrator.dt: the default step ")
        assert err.endswith(
            "set --dt in a tau sweep, which drops integrator.dt, and elsewhere set integrator.dt or --dt\n"
        )
    assert not out.exists()


# run in a child whose address space is capped 4 GiB above what its imports
# mapped, so that no host allocates or touches an array past the cap,
# whatever its overcommit policy
CAPPED_MAIN = """
import resource, sys
from hkdelay.cli import main
with open("/proc/self/statm") as fh:
    mapped = int(fh.read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (mapped + (4 << 30), resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="needs /proc/self/statm")
@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--param", "N", "--values", "60000"]],
                         ids=["simulate", "sweep"])
def test_pair_arrays_that_cannot_be_allocated_exit_with_an_error_line(tmp_path, command):
    # 60000 agents need a (60000, 60000, 1) pair array of 26.8 GiB: numpy's
    # MemoryError from model.pair_sq, raised in the blow-up bounds, ended in
    # a traceback
    doc = {
        "config": {
            "n_agents": 60000, "dim": 1, "tau": 1.0,
            "delay_kind": "reaction", "weight_scheme": "normalized",
            "influence": {"kind": "constant", "c": 1.0},
        },
        "datum": {"kind": "random_uniform"},
        "horizon": 1.0 / 64,
        "outputs": ["report"],
    }
    out = tmp_path / "out"
    argv = [command[0], write_spec(tmp_path / "big.json", doc), *command[1:], "--out", str(out)]
    src = str(Path(dynamics.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", CAPPED_MAIN, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: config.n_agents: 60000 agents need (60000, 60000) pair arrays, which cannot be allocated\n"
    )
    assert not out.exists()


def test_misspelled_entries_are_refused_by_the_first_one_read(tmp_path, capsys):
    # a top-level "horizn" and a "infuence" in config exited 0 with the
    # default horizon and the influence the spec also gave
    with open(consensus_spec(tmp_path)) as fh:
        doc = json.load(fh)
    doc["horizn"] = 5.0
    doc["config"]["infuence"] = {"kind": "constant", "c": 0.5}
    out = tmp_path / "out"
    assert main(["simulate", write_spec(tmp_path / "bad.json", doc), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: spec.horizn: unknown entry\n"
    assert not out.exists()


@pytest.mark.parametrize("text", ['{"seed": 1' + "0" * 5000 + "}", "{\"seed\": 1", b"\xff\xfe{"], ids=["long_int", "cut", "bytes"])
def test_spec_that_is_not_json_exits_with_an_error_line(tmp_path, capsys, text):
    # an integer past Python's 4300-digit limit raised ValueError from
    # json.load, and undecodable bytes UnicodeDecodeError: both tracebacks
    spec = tmp_path / "bad.json"
    spec.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "out"
    assert main(["simulate", str(spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: spec is not valid JSON (") and err.count("\n") == 1
    assert not out.exists()


def test_outputs_that_are_not_a_list_are_refused_as_such(tmp_path, capsys):
    # a string was read as its letters, and refused as "unknown entry 'r'"
    with open(consensus_spec(tmp_path)) as fh:
        doc = json.load(fh)
    doc["outputs"] = "report"
    out = tmp_path / "out"
    assert main(["simulate", write_spec(tmp_path / "bad.json", doc), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: outputs: expected a JSON list, got str\n"
    assert not out.exists()


def test_datum_of_another_shape_is_refused_before_any_output(tmp_path, capsys):
    with open(consensus_spec(tmp_path)) as fh:
        doc = json.load(fh)
    doc["datum"]["vectors"] = [[0.25, 0.0], [0.25, 0.0], [0.25, 0.0]]
    out = tmp_path / "out"
    assert main(["simulate", write_spec(tmp_path / "bad.json", doc), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: datum: shape (3, 2) does not match config.n_agents/dim (3, 1)\n"
    )
    assert not out.exists()


def test_tiny_delay_reads_t0_on_its_node(tmp_path):
    # dt = tau/64 < 1e-12: a search for the first node after t = -1e-12
    # found t = -9.4e-13, so D was filled and d_x unfrozen at t < 0, and
    # X0 read X there (0.04099, not 1/24)
    doc = {
        "config": {
            "n_agents": 3, "dim": 1, "tau": 1e-11,
            "delay_kind": "reaction", "weight_scheme": "classical_scaled",
            "influence": {"kind": "constant", "c": 1.0},
        },
        "datum": {"kind": "sampled", "times": [-1e-11, 0.0],
                  "values": [[[0.0], [0.3], [0.6]], [[0.1], [0.1], [0.6]]]},
        "horizon": 5e-11,
    }
    out = tmp_path / "out"
    assert main(["simulate", write_spec(tmp_path / "tiny.json", doc), "--out", str(out)]) == 0
    rows = [row.split(",") for row in (out / "metrics.csv").read_text().splitlines()[1:]]
    startup = [row for row in rows if float(row[0]) <= 0.0]
    assert len(startup) == 65
    assert [row[5] for row in rows].count("") == 64  # D is defined from t = 0 on
    assert all(row[5] == "" for row in startup[:-1]) and startup[-1][5] != ""
    assert all(row[1] == "0.59999999999999998" for row in startup)  # d_x frozen at d_x0
    report = json.loads((out / "report.json").read_text())
    assert report["metrics_summary"]["X0"] == float(startup[-1][4]) == pytest.approx(1.0 / 24.0)


def test_startup_diameter_reads_datum_knots_between_grid_nodes(tmp_path):
    # the knot at -0.505 carries the largest diameter, 2, and lies between
    # the nodes of the dt = 1/64 grid, where the diameter is at most 1.9802
    doc = {
        "config": {
            "n_agents": 2, "dim": 1, "tau": 1.0,
            "delay_kind": "transmission", "weight_scheme": "normalized",
            "influence": {"kind": "algebraic_decay", "gamma": 1.0},
        },
        "datum": {"kind": "sampled", "times": [-1.0, -0.505, 0.0],
                  "values": [[[0.0], [0.0]], [[-1.0], [1.0]], [[0.0], [0.0]]]},
        "seed": 0,
    }
    out = tmp_path / "out"
    assert main(["simulate", write_spec(tmp_path / "sampled.json", doc), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["preconditions"]["d_x0"] == 2.0
    assert report["metrics_summary"]["d_x0"] == 2.0
    assert report["metrics_summary"]["consensus_tol"] == 1e-3 * 2.0
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    startup = [row.split(",") for row in rows if float(row.split(",")[0]) <= 0.0]
    assert len(startup) == 65
    assert all(row[1] == "2" for row in startup)


def test_report_r_x0_is_the_series_r_x_at_t0(tmp_path):
    # check_icass summed |x_i|^2 in another order than the series: at d = 3
    # this datum's report read 5.727371343045463 against the CSV's ...462
    doc = {
        "config": {
            "n_agents": 7, "dim": 3, "tau": 1.0,
            "delay_kind": "reaction", "weight_scheme": "normalized",
            "influence": {"kind": "algebraic_decay", "gamma": 1.0},
        },
        "datum": {"kind": "random_uniform", "low": -3.0, "high": 5.0},
        "horizon": 2.0,
        "seed": 2,
    }
    out = tmp_path / "out"
    assert main(["simulate", write_spec(tmp_path / "d3.json", doc), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    rows = [row.split(",") for row in (out / "metrics.csv").read_text().splitlines()[1:]]
    (r_x,) = [float(row[2]) for row in rows if float(row[0]) == 0.0]
    assert report["metrics_summary"]["r_x0"] == report["preconditions"]["r_x0"] == r_x


def test_simulate_seed_changes_random_datum(tmp_path):
    spec = prop_rate_spec(tmp_path)
    out_a, out_b = tmp_path / "sa", tmp_path / "sb"
    assert main(["simulate", spec, "--out", str(out_a), "--seed", "1"]) == 0
    assert main(["simulate", spec, "--out", str(out_b), "--seed", "2"]) == 0
    assert (out_a / "trajectory.csv").read_bytes() != (out_b / "trajectory.csv").read_bytes()


# ---------------------------------------------------------------------------
# sweep

def test_sweep_tau_regimes(tmp_path):
    out = tmp_path / "out"
    code = main([
        "sweep", toy_spec(tmp_path), "--param", "tau",
        "--values", "0.15", "0.5", "1.0", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "value,consensus_time,C_emp,regime,preconditions"
    regimes = [row.split(",")[3] for row in lines[1:]]
    assert regimes == ["NonOscillatoryStable", "OscillatoryStable", "Unstable"]


def test_sweep_n_theoretical_rate_monotone(tmp_path):
    out = tmp_path / "out"
    spec = write_spec(
        tmp_path / "nsweep.json",
        {
            "config": {
                "n_agents": 3, "dim": 1, "tau": 0.5,
                "delay_kind": "transmission", "weight_scheme": "normalized",
                "influence": {"kind": "algebraic_decay", "gamma": 1.0},
            },
            "datum": {"kind": "random_uniform", "low": 0.0, "high": 1.0},
            "horizon": 10.0,
            "seed": 5,
        },
    )
    code = main(["sweep", spec, "--param", "N", "--values", "3", "5", "10", "--out", str(out)])
    assert code == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    # at fixed psi_lower < 1, alpha = 1 - psi (N-2)/(N-1) shrinks with N,
    # so the theorem rate C grows with N
    cs = [solve_halanay(HalanayProblem(1.0 - 0.5 * (n - 2) / (n - 1), 1.0, 0.5, Measure.DIRAC_AT_ZERO)).C
          for n in (3, 5, 10)]
    assert cs[0] < cs[1] < cs[2]


def test_sweep_checks_preconditions_once_per_row(tmp_path, monkeypatch):
    calls = []
    check = rates.check_preconditions

    def counting(config, datum, icass):
        calls.append(config.tau)
        return check(config, datum, icass)

    monkeypatch.setattr(rates, "check_preconditions", counting)
    out = tmp_path / "out"
    code = main([
        "sweep", toy_spec(tmp_path), "--param", "tau",
        "--values", "0.15", "0.5", "--out", str(out),
    ])
    assert code == 0
    assert sorted(calls) == [0.15, 0.5]
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[4] for row in rows] == [
        "reaction_symmetric|reaction_small_delay", "reaction_symmetric",
    ]


def test_sweep_empty_values(tmp_path, capsys):
    out = tmp_path / "out"
    assert usage_exit(["sweep", toy_spec(tmp_path), "--param", "tau", "--values", "--out", str(out)]) == 1
    assert "--values: expected at least one argument" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_unknown_param(tmp_path, capsys):
    assert main(["sweep", toy_spec(tmp_path), "--param", "zeta", "--values", "1", "--out", str(tmp_path)]) == 1
    assert "unknown sweep parameter" in capsys.readouterr().err


def test_sweep_gamma(tmp_path):
    out = tmp_path / "out"
    spec = prop_rate_spec(tmp_path)
    code = main(["sweep", spec, "--param", "gamma", "--values", "0.5", "2.0", "--out", str(out)])
    assert code == 0
    assert len((out / "sweep.csv").read_text().splitlines()) == 3


def test_sweep_horizon(tmp_path):
    out = tmp_path / "out"
    code = main(["sweep", toy_spec(tmp_path, tau=0.15), "--param", "horizon",
                 "--values", "1.5", "6.0", "--out", str(out)])
    assert code == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    # longer horizon reaches the sustained consensus threshold
    assert rows[1].split(",")[1] != ""


@pytest.mark.parametrize(
    "param, values, flags, sizes",
    [
        ("tau", ["0.15", "0.5"], [], [2]),  # q = 64 and 20 tau: one group
        ("tau", ["0.15", "0.5"], ["--horizon", "6"], [1, 1]),  # the step counts differ
        ("horizon", ["1.5", "6"], [], [1, 1]),
    ],
    ids=["tau", "tau_horizon", "horizon"],
)
def test_every_sweep_group_integrates_in_one_call(tmp_path, monkeypatch, param, values, flags, sizes):
    # a group of one integrates through the same call as a larger group
    integrate = dynamics.integrate
    calls = []

    def spy(config, *args):
        calls.append(len(config))
        return integrate(config, *args)

    monkeypatch.setattr(dynamics, "integrate", spy)
    out = tmp_path / "out"
    assert main(["sweep", toy_spec(tmp_path), "--param", param, "--values", *values,
                 *flags, "--out", str(out)]) == 0
    assert calls == sizes


def test_sweep_horizon_rejects_horizon_flag(tmp_path, capsys):
    # --horizon would replace every swept value, giving identical rows
    out = tmp_path / "out"
    code = main(["sweep", toy_spec(tmp_path, tau=0.15), "--param", "horizon",
                 "--values", "2", "8", "--horizon", "1", "--out", str(out)])
    assert code == 1
    assert "--horizon" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_sweep_fails_on_a_bad_value_before_integrating(tmp_path, capsys, monkeypatch):
    # every value loads before the first integration, so the last value's
    # error leaves no rows computed and no sweep.csv; int() of the
    # non-finite values raised ValueError or OverflowError past main
    calls = []
    monkeypatch.setattr(dynamics, "integrate", lambda *args, **kwargs: calls.append(args))
    spec = prop_rate_spec(tmp_path)
    for bad, shown in (("2.5", "2.5"), ("nan", "nan"), ("inf", "inf"), ("1e400", "inf")):
        out = tmp_path / f"out_{bad}"
        code = main(["sweep", spec, "--param", "N", "--values", "3", "4", bad, "--out", str(out)])
        assert code == 1, bad
        err = capsys.readouterr().err
        assert err == f"error: sweep value for N must be an integer, got {shown}\n", bad
        assert calls == []
        assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize(
    "param, change, message",
    [
        ("tau", _set("datum", {"kind": "sampled", "times": [-0.5, 0.0], "values": [[[0.0], [1.0], [2.0]]] * 2}),
         "datum.kind: sweep over tau needs a constant or random datum, got 'sampled'"),
        ("N", lambda doc: None,  # the consensus spec's constant datum
         "datum.kind: sweep over N needs a random_uniform datum, got 'constant_per_agent'"),
        ("gamma", _set("config.influence", {"kind": "constant", "c": 0.5}),
         "config: influence.kind: sweep over gamma needs an algebraic_decay influence, got 'constant'"),
        # a malformed section is refused with the line that simulate prints
        ("tau", _set("datum", DELETE), "datum: missing field"),
        ("N", _set("datum", [[0.25], [0.25], [0.25]]), "datum: expected a JSON object, got list"),
        ("gamma", lambda doc: [1], "spec: expected a JSON object, got list"),
        ("gamma", _set("config.influence", DELETE), "config.influence: missing field"),
        ("gamma", _set("config.influence", []), "config: influence: expected a JSON object, got list"),
        ("tau", _set("config", []), "config: expected a JSON object, got list"),
    ],
    ids=["tau", "N", "gamma", "datum_missing", "datum_list", "spec_list", "influence_missing",
         "influence_list", "config_list"],
)
def test_sweep_refuses_a_spec_it_cannot_vary(tmp_path, capsys, monkeypatch, param, change, message):
    # the refusal names the field, and comes before any integration or output
    calls = []
    monkeypatch.setattr(dynamics, "integrate", lambda *args, **kwargs: calls.append(args))
    with open(consensus_spec(tmp_path)) as fh:
        doc = json.load(fh)
    doc = change(doc) or doc
    out = tmp_path / "out"
    spec = write_spec(tmp_path / "bad.json", doc)
    assert main(["sweep", spec, "--param", param, "--values", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []
    assert not out.exists()


def test_sweep_over_an_unaddressable_n_is_refused(tmp_path, capsys):
    # the (N, d) draw of the random datum raised ValueError past main
    out = tmp_path / "out"
    code = main(["sweep", prop_rate_spec(tmp_path), "--param", "N", "--values", "1e300", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: config: n_agents and dim: ")
    assert not out.exists()


def test_sweep_refuses_a_value_that_is_not_a_number(tmp_path, capsys):
    # float("abc") raised ValueError past main
    out = tmp_path / "out"
    code = usage_exit(["sweep", consensus_spec(tmp_path), "--param", "tau",
                       "--values", "0.5", "abc", "--out", str(out)])
    assert code == 1
    assert "--values: invalid float value: 'abc'" in capsys.readouterr().err
    assert not out.exists()


def per_value_sweep_csv(tmp_path, doc, values):
    """The sweep.csv of a tau sweep of doc, from one simulate run per value."""
    lines = ["value,consensus_time,C_emp,regime,preconditions"]
    for value in values:
        one = json.loads(json.dumps(doc))
        one["config"]["tau"] = float(value)
        out = tmp_path / f"tau_{value}"
        assert main(["simulate", write_spec(tmp_path / f"tau_{value}.json", one), "--out", str(out)]) in (0, 2)
        report = json.loads((out / "report.json").read_text())
        summary = report["metrics_summary"]
        cells = [format(float(value), ".17g")]
        cells += ["" if summary[key] is None else format(summary[key], ".17g") for key in ("consensus_time", "C_emp")]
        regime = ""
        if one["config"]["n_agents"] == 2:
            regime = classify_regime(*linear_coefficients(config_from_dict(one["config"])), float(value)).value
        theorems = report["preconditions"]["theorems"]
        cells += [regime, "|".join(name for name in rates.THEOREMS if theorems[name]["applies"])]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# sweep.csv of one simulate run per value (per_value_sweep_csv): the
# benchmark's tau sweep (seed 11) and a sweep whose last two values blow up
BENCH_SWEEP_VECTORS = [
    [0.6047994518655023, -1.2330077890366409], [1.3742132093207848, -1.0881111761158422],
    [1.407433289149106, -0.9427543189085312], [0.520211497039343, -0.943805113913356],
    [1.0879374470097636, -1.107000833028376],
]
BENCH_SWEEP_CSV = """value,consensus_time,C_emp,regime,preconditions
0.25,3.49609375,2.1079209396014411,,
0.5,5.234375,1.2821712045828815,,
0.75,13.18359375,0.48617807398196317,,
1,,0.16129915580506357,,
1.25,,0.012481750519692334,,
1.5,,-0.045975799800243529,,
1.75,,-0.07924205752432277,,
2,,-0.11703058598138506,,
"""
BLOW_UP_SWEEP_CSV = """value,consensus_time,C_emp,regime,preconditions
0.5,9.703125,0.65901872819231,OscillatoryStable,reaction_symmetric
2,,-0.34048081961206411,Unstable,
4,,-0.30010706516089247,Unstable,
8,,,Unstable,
16,,,Unstable,
"""


@pytest.mark.parametrize(
    "config, vectors, values, expected",
    [
        (
            {"n_agents": 5, "dim": 2, "tau": 1.0, "delay_kind": "reaction",
             "weight_scheme": "normalized", "influence": {"kind": "algebraic_decay", "gamma": 1.0}},
            BENCH_SWEEP_VECTORS,
            ["0.25", "0.5", "0.75", "1", "1.25", "1.5", "1.75", "2"],
            BENCH_SWEEP_CSV,
        ),
        (
            {"n_agents": 2, "dim": 1, "tau": 1.0, "delay_kind": "reaction",
             "weight_scheme": "classical_scaled", "influence": {"kind": "constant", "c": 1.0}},
            [[0.0], [1.0]],
            ["0.5", "2", "4", "8", "16"],
            BLOW_UP_SWEEP_CSV,
        ),
    ],
    ids=["benchmark", "blow_up"],
)
def test_grouped_tau_sweep_matches_one_value_at_a_time(tmp_path, config, vectors, values, expected):
    doc = {"config": config, "datum": {"kind": "constant_per_agent", "vectors": vectors},
           "integrator": {"method": "rk4_steps"}, "seed": 11}
    out = tmp_path / "out"
    assert main(["sweep", write_spec(tmp_path / "s.json", doc), "--param", "tau",
                 "--values", *values, "--out", str(out)]) == 0
    assert (out / "sweep.csv").read_text() == expected
    assert per_value_sweep_csv(tmp_path, doc, values) == expected


def test_two_agent_regime_reads_the_config_coefficients(tmp_path):
    # classical weights with psi(0) = 0.5 give b = 1.  The rows read the
    # regimes of the normalized toy's b = 2 instead: OscillatoryStable at
    # tau = 0.3, where the rightmost root is real and C_emp equals -Re xi*,
    # and Unstable at tau = 1, which reaches consensus
    doc = {"config": {"n_agents": 2, "dim": 1, "tau": 1.0, "delay_kind": "reaction",
                      "weight_scheme": "classical_scaled", "influence": {"kind": "constant", "c": 0.5}},
           "datum": {"kind": "constant_per_agent", "vectors": [[0.0], [1.0]]}, "seed": 0}
    out = tmp_path / "out"
    assert main(["sweep", write_spec(tmp_path / "s.json", doc), "--param", "tau",
                 "--values", "0.3", "1.0", "--out", str(out)]) == 0
    text = (out / "sweep.csv").read_text()
    rows = [row.split(",") for row in text.splitlines()[1:]]
    assert [row[3] for row in rows] == ["NonOscillatoryStable", "OscillatoryStable"]
    assert float(rows[0][2]) == pytest.approx(1.6313, abs=1e-3)
    assert rows[1][1] != ""
    assert text == per_value_sweep_csv(tmp_path, doc, ["0.3", "1.0"])


def test_simulate_with_euler_oracle_integrator(tmp_path, capsys):
    # the Euler oracle is a test reference, so a spec cannot select it
    spec = write_spec(
        tmp_path / "euler.json",
        {
            "config": {
                "n_agents": 3, "dim": 1, "tau": 0.5,
                "delay_kind": "transmission", "weight_scheme": "normalized",
                "influence": {"kind": "algebraic_decay", "gamma": 1.0},
            },
            "datum": {"kind": "constant_per_agent", "vectors": [[0.0], [0.4], [1.0]]},
            "integrator": {"method": "euler_oracle", "dt": 0.015625},
            "horizon": 5.0,
            "seed": 0,
        },
    )
    out = tmp_path / "out"
    assert main(["simulate", spec, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: integrator.method: the one method is 'rk4_steps', got 'euler_oracle'\n"
    assert not out.exists()


def test_rates_output_file(tmp_path):
    spec = write_spec(
        tmp_path / "r.json",
        {
            "config": {
                "n_agents": 3, "dim": 1, "tau": 0.5,
                "delay_kind": "transmission", "weight_scheme": "normalized",
                "influence": {"kind": "algebraic_decay", "gamma": 1.0},
            },
            "datum": {"kind": "constant_per_agent", "vectors": [[0.0], [0.4], [1.0]]},
            "horizon": 5.0,
            "outputs": ["rates", "report"],
            "seed": 0,
        },
    )
    out = tmp_path / "out"
    assert main(["simulate", spec, "--out", str(out)]) == 0
    rates_doc = json.loads((out / "rates.json").read_text())
    assert "transmission_normalized" in rates_doc
    assert not (out / "trajectory.csv").exists()
    assert not (out / "metrics.csv").exists()


# ---------------------------------------------------------------------------
# rate

def test_rate_command_tiny_delay(capsys):
    assert main(["rate", "--alpha", "0.5", "--beta", "1", "--tau", "1e-12", "--measure", "dirac"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["C"] == pytest.approx(0.5, abs=1e-9)
    assert doc["measure"] == "dirac"


def test_rate_command_at_a_subnormal_delay(capsys):
    # C tau rounds to 0 for every C below 1/2, where the uniform kernel is 1
    assert main(["rate", "--alpha", "0.5", "--beta", "1", "--tau", "5e-324", "--measure", "uniform"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["C"] == pytest.approx(0.5, abs=1e-15) and abs(doc["residual"]) <= 2.0**-52


def test_rate_command_survives_kernel_overflow(capsys):
    # exp((beta - alpha) tau / 2) overflows at the first midpoint
    assert main(["rate", "--alpha", "0.05", "--beta", "5", "--tau", "1000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0.0 < doc["C"] < 4.95 and abs(doc["residual"]) <= 1e-12


def test_rate_command_rejects_equal_alpha_beta(capsys):
    assert main(["rate", "--alpha", "1", "--beta", "1"]) == 1
    assert "alpha < beta violated" in capsys.readouterr().err


def test_rate_command_rejects_an_infinite_beta(capsys):
    # it printed "C": Infinity, "residual": NaN, which is not JSON
    assert main(["rate", "--alpha", "0.5", "--beta", "inf"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: beta must be finite (beta=inf)\n"


@pytest.mark.parametrize(
    "alpha, beta, message",
    [("0.5", "nan", "beta must be finite (beta=nan)"), ("inf", "1", "alpha must be finite (alpha=inf)")],
)
def test_rate_command_names_a_non_finite_value(capsys, alpha, beta, message):
    # the order checks came first: "alpha < beta violated" for a NaN beta,
    # "alpha > 0 violated (alpha=inf)" for an infinite alpha
    assert main(["rate", "--alpha", alpha, "--beta", beta]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, flag",
    [("rate", "--out"), ("rate", "--dt"), ("rate", "--horizon"), ("rate", "--seed"),
     ("toy", "--out"), ("toy", "--seed")],
)
def test_commands_refuse_flags_they_ignore(tmp_path, capsys, command, flag):
    # rate reads no run flag, and toy reads only --dt and --horizon
    argv = {"rate": ["rate", "--alpha", "0.5", "--beta", "1"],
            "toy": ["toy", "--tau", "0.5", "--kind", "reaction"]}[command]
    value = str(tmp_path / "x") if flag == "--out" else "1"
    assert usage_exit(argv + [flag, value]) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_rate_command_uniform_matches_scan(capsys):
    assert main(["rate", "--alpha", "0.4", "--beta", "1", "--tau", "0.1", "--measure", "uniform"]) == 0
    doc = json.loads(capsys.readouterr().out)
    cs = np.linspace(0.0, 0.6, 1_000_001)
    x = cs * 0.1
    with np.errstate(invalid="ignore"):
        f = 1.0 - cs - 0.4 * np.exp(x) * np.expm1(x) / x
    f[0] = 1.0 - 0.4
    idx = int(np.argmax(f <= 0.0))
    assert cs[idx - 1] - 1e-10 <= doc["C"] <= cs[idx] + 1e-10


# ---------------------------------------------------------------------------
# toy

@pytest.mark.parametrize(
    "tau,kind,regime",
    [
        (0.15, "reaction", "NonOscillatoryStable"),
        (1.0, "reaction", "Unstable"),
        (0.5, "transmission", "AlwaysStable"),
    ],
)
def test_toy_command(capsys, tau, kind, regime):
    assert main(["toy", "--tau", str(tau), "--kind", kind]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] == regime
    assert set(doc["rightmost_root"]) == {"re", "im"}
    assert isinstance(doc["sign_changes"], int)
    if regime == "NonOscillatoryStable":
        assert doc["sign_changes"] == 0
        assert doc["fitted_rate"] == pytest.approx(-doc["rightmost_root"]["re"], rel=0.1)


def test_toy_long_transmission_delay_does_not_grow(capsys):
    # at tau/64 = 3.125 RK4 grew this stable gap: fitted_rate read -0.159
    assert main(["toy", "--tau", "200", "--kind", "transmission", "--horizon", "2000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] == "AlwaysStable"
    assert doc["fitted_rate"] > -1e-9


def test_default_resolution_is_tau_over_64(tmp_path, capsys):
    # tau/64 up to tau = 16; beyond, the smallest q with tau/q <= 1/4
    for tau, q in ((0.3, 64), (16.0, 64), (16.1, 65), (400.0, 1600)):
        toy_spec(tmp_path, tau=tau)
        doc = json.loads((tmp_path / "toy.json").read_text())
        assert load_spec(doc).integrator.dt == tau / q
        assert default_spec(load_spec(doc).config).dt == tau / q
    # a startup segment of 4e308 default steps cannot be addressed: the
    # default is refused, and an explicit dt is judged on its own grid
    toy_spec(tmp_path, tau=1e308)
    doc = json.loads((tmp_path / "toy.json").read_text())
    with pytest.raises(InvalidConfig, match="^integrator.dt: the default step .* set integrator.dt or --dt$"):
        load_spec(doc)
    assert load_spec(doc, {"dt": 1e306}).integrator.dt == 1e306
    doc["integrator"] = {"dt": 1e306}
    assert load_spec(doc).integrator.dt == 1e306
    # tau/64 lies on the subnormal grid, and 64 such steps are not a delay
    # of 1e-310: the default is refused, and a step of tau runs
    toy_spec(tmp_path, tau=1e-310)
    doc = json.loads((tmp_path / "toy.json").read_text())
    with pytest.raises(InvalidConfig, match="^integrator.dt: the default step tau/64 = .* set integrator.dt or --dt$"):
        load_spec(doc)
    assert load_spec(doc, {"dt": 1e-310}).integrator.dt == 1e-310
    assert main(["toy", "--tau", "5e-324", "--dt", "5e-324", "--kind", "reaction"]) == 0
    assert json.loads(capsys.readouterr().out)["rightmost_root"] == {"re": -2.0, "im": 0.0}
    tau = 0.3
    w0 = InitialDatum.constant([[0.5], [-0.5]])
    default = integrate(two_agent_config(DelayKind.REACTION, tau), w0, 2.0, None, False)
    explicit = integrate(two_agent_config(DelayKind.REACTION, tau), w0, 2.0, IntegratorSpec(tau / 64), False)
    assert np.array_equal(default.grid, explicit.grid)
    assert np.array_equal(gap(default), gap(explicit))
    assert main(["toy", "--tau", str(tau), "--kind", "reaction", "--horizon", "2"]) == 0
    without_dt = capsys.readouterr().out
    assert main(["toy", "--tau", str(tau), "--kind", "reaction", "--horizon", "2",
                 "--dt", repr(tau / 64)]) == 0
    assert capsys.readouterr().out == without_dt


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
        "rightmost_root": {"re": rightmost_root(a, b, tau).real, "im": rightmost_root(a, b, tau).imag},
        "sign_changes": count_sign_changes(w[traj.grid > 0.0]),
        "fitted_rate": fitted_decay_rate(traj.grid, w),
    }
    if tau == 16.0:
        assert traj.blow_up_time is not None and record["fitted_rate"] < 0.0
    else:
        assert traj.blow_up_time is None and traj.grid[-1] == 40 * tau


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
        assert rate == pytest.approx(-root.real, rel=0.10), (kind, tau)


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


@pytest.mark.parametrize("tau", [0.15, 0.5])
def test_toy_record_prints_the_root_by_its_real_and_imaginary_parts(tau):
    # b tau = 0.3 gives a real root, b tau = 1 a complex one
    z = rightmost_root(*COEFFICIENTS[DelayKind.REACTION], tau)
    assert (z.imag == 0.0) is (tau == 0.15)
    assert toy_record(DelayKind.REACTION, tau)["rightmost_root"] == {"re": z.real, "im": z.imag}
