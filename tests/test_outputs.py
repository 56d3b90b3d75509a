"""A run forms only the diagnostics that its outputs read.

d_x, the preconditions, the theorem rates, C_emp and the consensus time are
always formed.  The node calls write the dissipation D only for a run whose
outputs include metrics.csv, and compute_metrics forms r_x, the mean drift,
X and L only for metrics.csv or report.json.  A sweep value writes no file
of its own, so it forms neither.  Skipping them changes no byte: the stored
outputs below were written by a version that formed every diagnostic in
every run.
"""

import hashlib
import json

import numpy as np
import pytest

from hkdelay import dynamics, metrics
from hkdelay.model import InfluenceFunction, InitialDatum, SystemConfig
from hkdelay.cli import main

from conftest import FILES, write_spec

BASE = {
    "config": {"n_agents": 5, "dim": 2, "tau": 1.0, "delay_kind": "reaction", "weight_scheme": "normalized",
               "influence": {"kind": "algebraic_decay", "gamma": 1.0}},
    "datum": {"kind": "constant_per_agent", "vectors": [
        [0.6047994518655023, -1.2330077890366409], [1.3742132093207848, -1.0881111761158422],
        [1.407433289149106, -0.9427543189085312], [0.520211497039343, -0.943805113913356],
        [1.0879374470097636, -1.107000833028376]]},
    "seed": 11,
}
RANDOM = {
    "config": {"n_agents": 3, "dim": 2, "tau": 0.5, "delay_kind": "reaction", "weight_scheme": "classical_scaled",
               "influence": {"kind": "algebraic_decay", "gamma": 1.0}},
    "datum": {"kind": "random_uniform", "low": 0.0, "high": 1.0},
    "seed": 3,
}
# b tau = tau here (classical, psi(0) = 0.5): tau = 2 and 16 are unstable, and 16 blows up
TWO_AGENT = {
    "config": {"n_agents": 2, "dim": 1, "tau": 1.0, "delay_kind": "reaction", "weight_scheme": "classical_scaled",
               "influence": {"kind": "constant", "c": 0.5}},
    "datum": {"kind": "constant_per_agent", "vectors": [[0.0], [1.0]]},
    "seed": 0,
}

HEADER = "value,consensus_time,C_emp,regime,preconditions\n"
SWEEPS = {
    "tau_dt": (BASE, ["--param", "tau", "--dt", "0.0078125", "--values", "0.25", "0.5", "1"], """\
0.25,3.5,2.1078494042125153,,
0.5,5.234375,1.2821712045828815,,
1,,0.16117047855136893,,
"""),
    "gamma": (BASE, ["--param", "gamma", "--values", "0.5", "1", "2", "3"], """\
0.5,,0.16009527005325205,,
1,,0.16129915580506357,,
2,,0.1639257034639918,,
3,,0.16609315179078463,,
"""),
    "horizon": (BASE, ["--param", "horizon", "--values", "2.5", "5", "10"], """\
2.5,,-0.40741577287200292,,
5,,-0.010468373088436624,,
10,,0.15793533900419995,,
"""),
    "N": (RANDOM, ["--param", "N", "--values", "2", "3", "5", "8"], """\
2,9.84375,0.64406875354212267,OscillatoryStable,reaction_symmetric
3,6.21875,1.0066749086259033,,reaction_symmetric
5,5.3125,1.2517190237109368,,reaction_symmetric
8,4.75,1.4194631300892582,,reaction_symmetric
"""),
    "two_agent": (TWO_AGENT, ["--param", "tau", "--values", "0.3", "1", "2", "16"], """\
0.29999999999999999,4.3499999999999996,1.6306051088978653,NonOscillatoryStable,reaction_symmetric
1,19.40625,0.329509364096155,OscillatoryStable,
2,,-0.087572934191801566,Unstable,
16,,,Unstable,
"""),
}

SIMULATE = {
    "transmission": {
        "config": {"n_agents": 6, "dim": 2, "tau": 0.5, "delay_kind": "transmission", "weight_scheme": "normalized",
                   "influence": {"kind": "algebraic_decay", "gamma": 1.0}},
        "datum": {"kind": "random_uniform"}, "horizon": 5.0, "seed": 7,
    },
    # symmetric weights: metrics.csv carries L
    "symmetric_reaction": {
        "config": {"n_agents": 4, "dim": 1, "tau": 0.25, "delay_kind": "reaction", "weight_scheme": "classical_scaled",
                   "influence": {"kind": "algebraic_decay", "gamma": 2.0}},
        "datum": {"kind": "random_uniform"}, "horizon": 5.0, "seed": 7,
    },
}
# sha256 of each file; report.json embeds the outputs, so it is keyed by them
SHA256 = {
    "transmission": {
        "trajectory.csv": "f05fabb6c2a75a7d47f4f9c8f9a781972bbbdc4b16d8089a75d4a22f0c6e80ef",
        "metrics.csv": "69f156c5a64e07ac69d5b076105f425da4b785e1ccc6d599befb8ede2f892027",
        "rates.json": "4d5c9df5c30086c0986b9688f373200b81fae42d269736e41e85d8041bd3be7d",
        ("report",): "0a03729513ac21dfe01c6ecef5c8c327eeccbfdbe16193d6b6e9f30915f13f22",
        ("metrics", "report"): "ed02e7479ab24b436ebeb409b6773ff4b5f91ebfd135c76b02111f9c48ffa055",
        ("trajectory", "metrics", "rates", "report"):
            "8926b8f37ce706fe2f954bdea9ea1635766f9dcec826fb583ccec650c8d897a6",
    },
    "symmetric_reaction": {
        "trajectory.csv": "332a04dc79ab7898850098c417e9d08827f88c01e4898c5b08548ea694d38e12",
        "metrics.csv": "ac44e21927f6723672b1219dd14115106d92fbef6ee50a97f415f42b9af9b20f",
        "rates.json": "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356",
        ("report",): "60d48695259c02bc208952da3315db6dec23661fc1c1bceb19e3428d8c8f657d",
        ("metrics", "report"): "8ec4bbc8c14cbee10255dc72ad056f9fd07765a21d85ecf42bf42020fab16065",
        ("trajectory", "metrics", "rates", "report"):
            "3ff44ee92e443da2f1376179314dc58c5d571b727691e9f00617d72f5c8f6000",
    },
}
SUBSETS = [("trajectory",), ("metrics",), ("report",), ("rates",), ("metrics", "report"),
           ("trajectory", "metrics", "rates", "report")]


def record_diagnostics(monkeypatch):
    """What each run forms: the D argument of every node call, and the
    r_x blocks that compute_metrics asks model.radius for."""
    formed = {"D": [], "radius": 0}
    velocity, radius = dynamics.velocity_from_states, metrics.radius

    def velocity_spy(config, x_now, x_delayed, D=None, sq_diameter=None):
        if sq_diameter is not None:  # a node call
            formed["D"].append(D)
        return velocity(config, x_now, x_delayed, D, sq_diameter)

    def radius_spy(states):
        formed["radius"] += 1
        return radius(states)

    monkeypatch.setattr(dynamics, "velocity_from_states", velocity_spy)
    monkeypatch.setattr(metrics, "radius", radius_spy)
    return formed


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_csv_keeps_its_bytes(tmp_path, name):
    doc, args, rows = SWEEPS[name]
    out = tmp_path / "out"
    assert main(["sweep", write_spec(tmp_path / "spec.json", doc), *args, "--out", str(out)]) == 0
    assert (out / "sweep.csv").read_text() == HEADER + rows


@pytest.mark.parametrize("outputs", SUBSETS, ids="_".join)
@pytest.mark.parametrize("name", sorted(SIMULATE))
def test_simulate_outputs_keep_their_bytes(tmp_path, name, outputs):
    out = tmp_path / "out"
    doc = {**SIMULATE[name], "outputs": list(outputs)}
    assert main(["simulate", write_spec(tmp_path / "spec.json", doc), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(FILES[o] for o in outputs)
    for o in outputs:
        digest = hashlib.sha256((out / FILES[o]).read_bytes()).hexdigest()
        assert digest == SHA256[name][outputs if o == "report" else FILES[o]], o


@pytest.mark.parametrize("name", ["tau_dt", "N", "two_agent"])
def test_sweep_forms_neither_D_nor_the_fluctuation_series(tmp_path, monkeypatch, name):
    formed = record_diagnostics(monkeypatch)
    doc, args, _ = SWEEPS[name]
    assert main(["sweep", write_spec(tmp_path / "spec.json", doc), *args, "--out", str(tmp_path / "out")]) == 0
    assert formed["D"] and all(D is None for D in formed["D"])
    assert formed["radius"] == 0


@pytest.mark.parametrize("kind", ["transmission", "reaction"])
def test_toy_forms_no_D(monkeypatch, capsys, kind):
    # the toy reads only the gap of its two agents
    formed = record_diagnostics(monkeypatch)
    assert main(["toy", "--tau", "0.5", "--kind", kind]) == 0
    assert formed["D"] and all(D is None for D in formed["D"])
    assert formed["radius"] == 0


@pytest.mark.parametrize(
    "outputs, forms_D, forms_fluctuation",
    [(["trajectory"], False, False), (["rates"], False, False), (["report"], False, True),
     (["metrics"], True, True)],
)
def test_simulate_forms_what_its_outputs_read(tmp_path, monkeypatch, outputs, forms_D, forms_fluctuation):
    formed = record_diagnostics(monkeypatch)
    doc = {**SIMULATE["symmetric_reaction"], "outputs": outputs}
    assert main(["simulate", write_spec(tmp_path / "spec.json", doc), "--out", str(tmp_path / "out")]) == 0
    assert formed["D"] and all((D is not None) == forms_D for D in formed["D"])
    assert (formed["radius"] > 0) == forms_fluctuation


@pytest.mark.parametrize("kind", ["transmission", "reaction"])
def test_skipped_diagnostics_leave_d_x_as_it_was(kind):
    config = SystemConfig(4, 2, 0.5, kind, "classical_scaled", InfluenceFunction.algebraic_decay(1.0))
    datum = InitialDatum.constant(np.random.default_rng(2).uniform(size=(4, 2)))
    full = dynamics.integrate(config, datum, 3.0)
    lean = dynamics.integrate(config, datum, 3.0, None, False)
    assert lean.D is None
    assert np.array_equal(lean.states, full.states) and np.array_equal(lean.derivs, full.derivs)
    assert np.array_equal(lean.sq_diameter, full.sq_diameter, equal_nan=True)
    series = metrics.compute_metrics(lean, False)
    assert np.array_equal(series.d_x, metrics.compute_metrics(full).d_x)
    assert series.r_x is series.mean_drift is series.X is series.D is series.L is None
    # with the fluctuation series but without D, L alone is missing
    series = metrics.compute_metrics(lean)
    assert series.X is not None and series.L is None
