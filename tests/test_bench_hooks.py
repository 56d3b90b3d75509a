"""The functions the benchmark wraps must stay reachable by name.

perfbench/child.py replaces each (module, attribute) it lists at every site
that binds it.  A rename or an inlined call would otherwise surface only as
failing benchmark units, so these tests resolve the same targets.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hkdelay import dynamics, metrics, cli
from hkdelay.model import InfluenceFunction, InitialDatum, SystemConfig
from hkdelay.dynamics import IntegratorSpec

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines names only; main() is not called
    return module


CHILD_MODULE = load_child()


@pytest.mark.parametrize(
    "module_name, attr",
    sorted({(m, a) for m, a, *_ in CHILD_MODULE.SPAN_TARGETS + CHILD_MODULE.MEMORY_TARGETS}),
)
def test_benchmark_targets_resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    target = owner
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
    assert CHILD_MODULE.find_sites(module_name, attr)


def record_calls(monkeypatch, targets):
    """Names of the calls to each (module, attribute), in order, recorded at
    every site that perfbench/child.py would patch."""
    calls = []
    for module_name, attr in targets:
        for namespace, key, _ in CHILD_MODULE.find_sites(module_name, attr):
            original = getattr(namespace, key)

            def wrapper(*args, _name=attr, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(namespace, key, wrapper)
    return calls


TIMED = (
    ("hkdelay.dynamics", "integrate"),
    ("hkdelay.dynamics", "rk4_method_of_steps"),
    ("hkdelay.metrics", "compute_metrics"),
)


def two_agent_spec(tmp_path, delay_kind, weight_scheme):
    spec = tmp_path / "spec.json"
    spec.write_text(
        '{"config": {"n_agents": 2, "dim": 1, "tau": 0.5, "delay_kind": "%s",'
        ' "weight_scheme": "%s", "influence": {"kind": "constant", "c": 1.0}},'
        ' "datum": {"kind": "constant_per_agent", "vectors": [[0.0], [1.0]]}}'
        % (delay_kind, weight_scheme)
    )
    return str(spec)


def test_sweep_rows_pass_through_named_hooks(tmp_path, monkeypatch):
    # child.py builds the sweep's per-layer metrics from spans around these
    # names: every value is loaded first, the group of tau values reaches
    # integrate once before any stepping, and then each value passes through
    # _sweep_row, run_experiment, compute_metrics and check_preconditions
    calls = record_calls(monkeypatch, [
        ("hkdelay.cli", "load_spec"), ("hkdelay.cli", "_sweep_row"),
        ("hkdelay.cli", "run_experiment"), ("hkdelay.rates", "check_preconditions"), *TIMED,
    ])
    spec = two_agent_spec(tmp_path, "reaction", "classical_scaled")
    code = cli.main(["sweep", spec, "--param", "tau", "--values", "0.25", "0.5",
                     "--out", str(tmp_path / "out")])
    assert code == 0
    assert calls == ["load_spec"] * 2 + ["integrate", "rk4_method_of_steps"] + [
        "_sweep_row", "run_experiment", "compute_metrics", "check_preconditions"
    ] * 2


@pytest.mark.parametrize("command", ["simulate", "sweep", "split_sweep"])
def test_each_run_calls_the_timed_layers_once(tmp_path, monkeypatch, command):
    # child.py stamps setup_s at the first integrate call and times the
    # layers at every site bound to these functions; a trajectory stepped
    # outside integrate, or a series computed another way, would go
    # unmeasured.  A tau sweep integrates as one group; --horizon gives its
    # values different step counts, so each integrates alone
    calls = record_calls(monkeypatch, TIMED)
    spec = two_agent_spec(tmp_path, "transmission", "normalized")
    args = ["simulate", spec, "--out", str(tmp_path / "out")]
    if command != "simulate":
        args[:1] = ["sweep"]
        args[2:2] = ["--param", "tau", "--values", "0.25", "0.5"]
    if command == "split_sweep":
        args += ["--horizon", "1.0"]
    assert cli.main(args) == 0
    run = ["integrate", "rk4_method_of_steps", "compute_metrics"]
    assert calls == {
        "simulate": run,
        "sweep": run + ["compute_metrics"],
        "split_sweep": run * 2,
    }[command]


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_each_run_reads_the_startup_bounds_once(tmp_path, monkeypatch, command):
    # compute_metrics runs the startup check, and check_preconditions and
    # the report read its IcassReport from the series: one check_icass call
    # per simulate and per sweep value, at every site that binds it
    calls = record_calls(monkeypatch, [("hkdelay.model", "check_icass")])
    spec = two_agent_spec(tmp_path, "reaction", "normalized")
    args = ["simulate", spec, "--out", str(tmp_path / "out")]
    if command == "sweep":
        args[:1] = ["sweep"]
        args[2:2] = ["--param", "tau", "--values", "0.25", "0.5", "0.75"]
    assert cli.main(args) == 0
    assert calls == ["check_icass"] * (1 if command == "simulate" else 3)


def record_integrate_extras(monkeypatch):
    """(extra, result) of each integrate call, with the extra that
    perfbench/child.py's _EXTRA["dynamics.integrate"] computes from it;
    --trace 1 reads dynamics.steps from these extras."""
    extra = CHILD_MODULE._EXTRA["dynamics.integrate"]
    calls = []
    for namespace, key, _ in CHILD_MODULE.find_sites("hkdelay.dynamics", "integrate"):
        original = getattr(namespace, key)

        def wrapper(*args, _original=original):
            out = _original(*args)
            calls.append((extra(args, out), out))
            return out

        monkeypatch.setattr(namespace, key, wrapper)
    return calls


def test_integrate_extra_counts_the_steps_of_a_run_that_blows_up(tmp_path, monkeypatch):
    # two agents, reaction, tau = 16, dt = 1/4: the node at t = 194.75 blows
    # up, so 778 forward steps completed
    calls = record_integrate_extras(monkeypatch)
    spec = tmp_path / "spec.json"
    spec.write_text(
        '{"config": {"n_agents": 2, "dim": 1, "tau": 16.0, "delay_kind": "reaction",'
        ' "weight_scheme": "classical_scaled", "influence": {"kind": "constant", "c": 1.0}},'
        ' "datum": {"kind": "constant_per_agent", "vectors": [[0.0], [1.0]]}}'
    )
    assert cli.main(["simulate", str(spec), "--out", str(tmp_path / "out")]) == 2
    ((steps, traj),) = calls
    assert traj.blow_up_time == 194.75
    assert steps == 778 == traj.grid.size - 1 - 64


def test_integrate_extra_counts_the_steps_of_every_member(tmp_path, monkeypatch):
    # for the benchmark's 8-value tau sweep, one group of 8 members with
    # 1280 forward steps each
    calls = record_integrate_extras(monkeypatch)
    spec = tmp_path / "spec.json"
    spec.write_text(
        '{"config": {"n_agents": 5, "dim": 2, "tau": 1.0, "delay_kind": "reaction",'
        ' "weight_scheme": "normalized", "influence": {"kind": "algebraic_decay", "gamma": 1.0}},'
        ' "datum": {"kind": "constant_per_agent", "vectors":'
        ' [[0.1, 0.9], [0.4, 0.2], [0.7, 0.5], [0.2, 0.3], [0.9, 0.8]]},'
        ' "integrator": {"method": "rk4_steps"}}'
    )
    taus = ["0.25", "0.5", "0.75", "1", "1.25", "1.5", "1.75", "2"]
    assert cli.main(["sweep", str(spec), "--param", "tau", "--values", *taus,
                     "--out", str(tmp_path / "out")]) == 0
    assert [steps for steps, _ in calls] == [8 * 1280]


@pytest.mark.parametrize("kind", ["transmission", "reaction"])
def test_compute_metrics_forms_no_weights(monkeypatch, kind):
    # model.weights_calls.metrics counts the calls at metrics' sites: the
    # weights are formed once per node, by the stepper, which writes D too
    config = SystemConfig(4, 2, 0.5, kind, "normalized", InfluenceFunction.algebraic_decay(1.0))
    datum = InitialDatum.constant(np.random.default_rng(3).uniform(size=(4, 2)))
    calls = record_calls(monkeypatch, [("hkdelay.model", "weights_from_states")])
    traj = dynamics.integrate(config, datum, 2.0)
    assert calls  # the recorder sees the stepper's calls
    calls.clear()
    metrics.compute_metrics(traj)
    assert calls == []


def test_reaction_segments_take_two_velocity_calls_each(monkeypatch):
    # sim_n5_reaction_long: N = 5, q = 64, 400 delay segments.  One call
    # gives the derivative at t = 0, then per segment one stacked call of
    # its half-step states and one of its full-step states, which writes D
    # and the squared diameters too, so dynamics.velocity_calls reads 801
    config = SystemConfig(5, 2, 0.4, "reaction", "classical_scaled", InfluenceFunction.algebraic_decay(1.0))
    datum = InitialDatum.constant(np.random.default_rng(5).uniform(size=(5, 2)))
    calls = record_calls(monkeypatch, [("hkdelay.dynamics", "velocity_from_states")])
    traj = dynamics.integrate(config, datum, 400 * 0.4, IntegratorSpec(0.4 / 64))
    assert traj.grid.size == 64 + 400 * 64 + 1
    assert len(calls) == 801
