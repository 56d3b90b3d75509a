"""The functions the benchmark wraps must stay reachable by name.

perfbench/child.py replaces each (module, attribute) it lists at every site
that binds it.  A rename or an inlined call would otherwise surface only as
failing benchmark units, so these tests resolve the same targets.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from hkdelay import cli, dynamics, metrics

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


def test_sweep_rows_pass_through_named_hooks(tmp_path, monkeypatch):
    # the sweep's per-layer metrics are built from _sweep_row spans, which
    # exist only while cmd_sweep and _sweep_row look these names up per call
    calls = []

    def counting(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for name in ("_sweep_row", "load_spec", "run_experiment"):
        monkeypatch.setattr(cli, name, counting(name))
    spec = tmp_path / "spec.json"
    spec.write_text(
        '{"config": {"n_agents": 2, "dim": 1, "tau": 0.5, "delay_kind": "reaction",'
        ' "weight_scheme": "classical_scaled", "influence": {"kind": "constant", "c": 1.0}},'
        ' "datum": {"kind": "constant_per_agent", "vectors": [[0.0], [1.0]]}}'
    )
    code = cli.main(["sweep", str(spec), "--param", "tau", "--values", "0.25", "0.5",
                     "--horizon", "1.0", "--out", str(tmp_path / "out")])
    assert code == 0
    assert calls == ["_sweep_row", "load_spec", "run_experiment"] * 2


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_each_run_calls_the_timed_layers_once(tmp_path, monkeypatch, command):
    # child.py stamps setup_s at the first integrate call and times the
    # layers at every site bound to these two functions; a run that computed
    # its trajectory or series another way would leave them unmeasured
    calls = []
    for owner, attr in ((dynamics, "integrate"), (metrics, "compute_metrics")):
        for namespace, key, _ in CHILD_MODULE.find_sites(owner.__name__, attr):
            original = getattr(namespace, key)

            def wrapper(*args, _name=attr, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(namespace, key, wrapper)
    spec = tmp_path / "spec.json"
    spec.write_text(
        '{"config": {"n_agents": 2, "dim": 1, "tau": 0.5, "delay_kind": "transmission",'
        ' "weight_scheme": "normalized", "influence": {"kind": "constant", "c": 1.0}},'
        ' "datum": {"kind": "constant_per_agent", "vectors": [[0.0], [1.0]]}}'
    )
    args = [command, str(spec), "--horizon", "1.0", "--out", str(tmp_path / "out")]
    if command == "sweep":
        args[2:2] = ["--param", "tau", "--values", "0.25", "0.5"]
    assert cli.main(args) == 0
    assert calls == ["integrate", "compute_metrics"] * (2 if command == "sweep" else 1)
