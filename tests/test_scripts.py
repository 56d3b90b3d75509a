"""Smoke tests for the scripts under scripts/: each runs end to end against
the current package API and writes what its docstring promises."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from hkdelay.cli import load_spec

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SCENARIOS = (
    "transmission_classical_tau2",
    "transmission_normalized_tau1",
    "reaction_symmetric_tau04",
    "reaction_normalized_tau01",
)


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines names only; main() is not called
    return module


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_document_loads_and_reloads_from_its_report_spec(name):
    # report.json embeds spec.to_dict(), from which the run is reproduced
    spec = load_spec(load_script("run_consensus_experiments").SCENARIOS[name])
    assert load_spec(spec.to_dict()).to_dict() == spec.to_dict()
    # seed 0 resolves each random_uniform cloud to this one draw
    built = (np.linspace(0.0, 1.0, 5)[:, None] if name == "reaction_normalized_tau01"
             else np.random.default_rng(0).uniform(0.0, 1.0, (5, 2)))
    assert np.array_equal(spec.datum.values, built)
    assert spec.seed == 0 and spec.outputs == ("trajectory", "metrics", "rates", "report")


@pytest.mark.parametrize(
    "name, written",
    [
        (
            "run_consensus_experiments",
            [f"{s}/{f}" for s in SCENARIOS
             for f in ("trajectory.csv", "metrics.csv", "rates.json", "report.json")],
        ),
        ("sweep_toy_regimes", ["toy_sweep.csv"]),
        (
            "output_battery",
            ["battery/sim_n100_transmission/out/trajectory.csv", "battery/sim_n30_reaction/out/metrics.csv",
             "battery/sim_n5_reaction_long/out/metrics.csv", "battery/sim_sampled_n40/out/report.json",
             "battery/sim_table_transmission/out/rates.json",
             "battery/sim_two_agent_transmission/out/report.json", "battery/sim_vectors_3d/stderr",
             "battery/sweep_tau_n5_reaction/out/sweep.csv", "battery/sweep_tau_two_agents_classical/out/sweep.csv",
             "battery/sweep_tau_n60_transmission_group/out/sweep.csv",
             "battery/sweep_tau_n60_reaction_group/out/sweep.csv",
             "battery/toy_reaction_1/stdout",
             "battery/toy_reaction_16_horizon_400/stdout",
             "battery/rate_0/stdout", "battery/rate_4/stderr", "battery/rate_5/stdout",
             "battery/run_consensus_experiments/stdout",
             "battery/sweep_toy_regimes/out/toy_sweep.csv"],
        ),
    ],
)
def test_script_runs_and_writes_its_results(tmp_path, monkeypatch, name, written):
    script = load_script(name)
    monkeypatch.setattr(script, "RESULTS", tmp_path)
    assert script.main() == 0
    for rel in written:
        assert (tmp_path / rel).stat().st_size > 0, rel
    if name == "output_battery":
        assert_battery_matches_manifest(script, tmp_path / "battery")


def assert_battery_matches_manifest(script, root):
    # every battery byte is pinned: a change that means to alter outputs
    # rewrites the manifest with --write-manifest and names what moved
    moved = battery_moves(script, root)
    assert not moved, "\n".join(moved)


def battery_moves(script, root):
    """A line for each path under root whose bytes differ from the
    manifest's, or that is on one side only."""
    pinned, fresh = json.loads(script.MANIFEST.read_text()), script.manifest(root)
    for tool in ("python", "numpy"):
        assert fresh[tool] == pinned[tool], (
            f"{script.MANIFEST.name} was written with {tool} {pinned[tool]}, this run has {tool} {fresh[tool]}"
        )
    old, new = pinned["files"], fresh["files"]
    return [
        f"{'missing' if path not in new else 'not in manifest' if path not in old else 'differs'}: {path}"
        for path in sorted(old.keys() | new.keys()) if old.get(path) != new.get(path)
    ]


FIXTURE = '''"""A module docstring
on two lines."""

import math  # a trailing comment keeps its line

# a comment line


class Point:
    """A class docstring."""

    x: float = 0.0

    def norm(self):
        """A function
        docstring."""
        text = """a string that is
not a docstring"""
        return math.hypot(self.x, len(text))
'''


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path, capsys):
    script = load_script("code_lines")
    (tmp_path / "point.py").write_text(FIXTURE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "one.py").write_text("# a comment\n\nx = 1\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert script.main([str(tmp_path / "point.py")]) == 0
    assert capsys.readouterr().out == "7\n"
    assert script.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "8\n"


@pytest.mark.parametrize("arg", ["--help", str(SCRIPTS / "no-such-folder"), str(SCRIPTS.parent / "README.md")])
def test_code_lines_refuses_a_missing_or_non_python_path(capsys, arg):
    assert load_script("code_lines").main([str(SCRIPTS), arg]) == 2
    assert capsys.readouterr() == ("", "usage: python3 scripts/code_lines.py [FOLDER | FILE.py ...]\n")


def battery_tree(root):
    (root / "case" / "out").mkdir(parents=True)
    (root / "case" / "exit").write_text("0\n")
    (root / "case" / "out" / "report.json").write_bytes(b'{"C": 0.5}\n')
    return root


def test_battery_manifest_names_each_path_that_differs_or_is_on_one_side_only(tmp_path, monkeypatch):
    script = load_script("output_battery")
    monkeypatch.setattr(script, "MANIFEST", tmp_path / "manifest.json")
    a, b = battery_tree(tmp_path / "a"), battery_tree(tmp_path / "b")

    def moves(pinned, fresh):
        script.MANIFEST.write_text(json.dumps(script.manifest(pinned)))
        return battery_moves(script, fresh)

    assert moves(a, b) == []
    (b / "case" / "out" / "report.json").write_bytes(b'{"C": 0.6}\n')
    assert moves(a, b) == ["differs: case/out/report.json"]
    (a / "case" / "stderr").write_text("")
    assert moves(a, b) == ["differs: case/out/report.json", "missing: case/stderr"]
    assert moves(b, a) == ["differs: case/out/report.json", "not in manifest: case/stderr"]
