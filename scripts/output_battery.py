#!/usr/bin/env python3
"""Record every output of a fixed, seeded set of hkdelay runs, so that two
versions of the package can be compared byte for byte.

Each case runs `hkdelay simulate`, `sweep`, `toy` or `rate` in this process,
through hkdelay.cli.main, or run_consensus_experiments.py or
sweep_toy_regimes.py beside this script, with whichever hkdelay package is
first on the import path.  Its folder
under results/battery/ holds the spec it read, the files it wrote (out/),
its exit code and its stdout and stderr, with this folder's own path
written as <battery>.  The set covers both benchmark workloads (the N = 100
simulate cut to a 4 tau horizon), a middling N = 30 reaction run, whose
last squared diameters are reduced 9 states at a time, a long N = 5
reaction run and its rerun from the spec embedded in its report.json, tau,
gamma, N and horizon sweeps, a two-value tau group at N = 60 for each delay
kind (tau 1 and 1 + 2^-10, one group, whose node calls reduce stacked
large-N pair arrays), a tau sweep with --dt, two-agent tau sweeps
with normalized weights and with classical weights of psi(0) = 1/2, a
blow-up, a sampled datum with a tabulated psi, a sampled datum at N = 40
whose startup check reduces its 8 states in blocks of 5 and 3 and whose
tail fill reduces 64 nodes in 13 blocks, data far from the origin,
theorem rates below float resolution, a transmission run with a
non-monotone tabulated psi, whose lowest knot sets the rate's psi_lower,
and a two-agent one, whose rate is skipped, refused specs (among them
constant vectors of shape (N, 1, 2) in place of (N, d)), 9 toys at the
default horizon and step, 2 with --horizon and --dt, and 8 rate
equations, the last three past the overflow of the uniform kernel's
product and the last two past the overflow of either kernel itself.

    python3 scripts/output_battery.py [--write-manifest]

With --write-manifest it also writes battery_manifest.json beside this
script: the SHA-256 of every file of the battery, keyed by its path
relative to the battery folder, and the Python and numpy versions that
wrote them.  tests/test_scripts.py compares a fresh battery with it, so a
change that means to alter outputs rewrites it and names the paths that
moved.
"""

import hashlib
import importlib.util
import io
import json
import math
import platform
import shutil
import sys
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from hkdelay.cli import main as hkdelay_main

SCRIPTS = Path(__file__).resolve().parent
RESULTS = SCRIPTS.parent / "results"
MANIFEST = SCRIPTS / "battery_manifest.json"

ALGEBRAIC = {"kind": "algebraic_decay", "gamma": 1.0}
ALL_OUTPUTS = ["trajectory", "metrics", "rates", "report"]


def spec(n, kind, scheme, tau=1.0, influence=ALGEBRAIC, datum=None, dim=2, **extra):
    """A spec document; the datum defaults to random_uniform on [0, 1]^dim."""
    return {
        "config": {"n_agents": n, "dim": dim, "tau": tau, "delay_kind": kind,
                   "weight_scheme": scheme, "influence": influence},
        "datum": datum or {"kind": "random_uniform"},
        **extra,
    }


def embedded_spec(case):
    """The spec embedded in case's report.json, read when the rerun runs."""
    return lambda root: json.loads((root / case / "out" / "report.json").read_text())["spec"]


SIM = ("simulate", "SPEC", "--out", "OUT")
SAMPLED = {
    "kind": "sampled",
    "times": [-1.0, -0.6, -0.25, 0.0],
    "values": [[[0.0, 0.0], [1.0, 0.2], [0.3, 0.9]], [[0.1, 0.0], [0.9, 0.3], [0.3, 0.7]],
               [[0.0, 0.2], [1.1, 0.2], [0.4, 0.8]], [[0.05, 0.1], [1.0, 0.25], [0.35, 0.8]]],
}
# 8 knots, 6 of them inside (-1, 0): 40 agents on a circle that turns, and
# whose radius 1 - t (1 + t) is largest inside the startup interval
N40_TIMES = [-1.0 + k / 7 for k in range(8)]
SAMPLED_N40 = {
    "kind": "sampled",
    "times": N40_TIMES,
    "values": [[[(1.0 - t * (1.0 + t)) * math.cos(2.0 * math.pi * i / 40 + t),
                 (1.0 - t * (1.0 + t)) * math.sin(2.0 * math.pi * i / 40 + t)] for i in range(40)]
               for t in N40_TIMES],
}
TABLE = {"kind": "table", "samples": [[0.0, 1.0], [0.5, 0.8], [1.5, 0.3]]}
# not monotone: its 0.2 knot sets psi_lower below psi at twice the initial radius
DIP_TABLE = {"kind": "table", "samples": [[0.0, 1.0], [0.5, 0.2], [1.5, 0.6]]}

# (name, spec document or a function of the battery folder, or None; argv)
CASES = [
    ("sim_n100_transmission",
     spec(100, "transmission", "normalized", seed=100, horizon=4.0, integrator={"dt": 1 / 64},
          outputs=["trajectory", "metrics", "report"]), SIM),
    ("sim_n30_reaction",
     spec(30, "reaction", "classical_scaled", tau=0.5, seed=30, horizon=3.0, outputs=ALL_OUTPUTS), SIM),
    ("sim_n5_reaction_long",
     spec(5, "reaction", "classical_scaled", tau=0.4, seed=5, horizon=80.0,
          outputs=["metrics", "rates", "report"]), SIM),
    ("sim_n5_reaction_long_rerun", embedded_spec("sim_n5_reaction_long"), SIM),
    ("sim_sampled_table", spec(3, "reaction", "normalized", influence=TABLE, datum=SAMPLED,
                               horizon=10.0, outputs=ALL_OUTPUTS), SIM),
    ("sim_sampled_n40", spec(40, "reaction", "normalized", datum=SAMPLED_N40, horizon=3.0,
                             outputs=ALL_OUTPUTS), SIM),
    ("sim_blow_up", spec(2, "reaction", "normalized", tau=16.0, influence={"kind": "constant", "c": 1.0},
                         outputs=ALL_OUTPUTS), SIM),
    ("sim_far_datum", spec(5, "transmission", "normalized", seed=2, horizon=10.0, outputs=ALL_OUTPUTS,
                           datum={"kind": "random_uniform", "low": 1e13, "high": 1e13 + 1.0}), SIM),
    ("sim_gamma20", spec(5, "transmission", "normalized", seed=3, horizon=20.0,
                         influence={"kind": "algebraic_decay", "gamma": 20.0},
                         datum={"kind": "random_uniform", "low": 0.0, "high": 5.0}), SIM),
    ("sim_table_transmission", spec(4, "transmission", "normalized", influence=DIP_TABLE, seed=12, horizon=10.0,
                                    outputs=["rates", "report"]), SIM),
    ("sim_two_agent_transmission", spec(2, "transmission", "normalized", seed=2, horizon=10.0,
                                        outputs=["rates", "report"]), SIM),
    ("sim_misspelled", spec(3, "transmission", "normalized", horizn=5.0), SIM),
    ("sim_vectors_3d", spec(2, "transmission", "normalized", dim=1,
                            datum={"kind": "constant_per_agent", "vectors": [[[0.0, 1.0]], [[1.0, 2.0]]]}), SIM),
    ("sim_no_spec_file", None, ("simulate", "no-such-spec.json", "--out", "OUT")),
    ("sweep_tau_n5_reaction", spec(5, "reaction", "normalized", seed=55),
     ("sweep", "SPEC", "--param", "tau", "--values", "0.25", "0.5", "0.75", "1", "1.25", "1.5", "1.75", "2",
      "--out", "OUT")),
    *[(f"sweep_tau_n60_{kind}_group", spec(60, kind, "normalized", seed=60),
       ("sweep", "SPEC", "--param", "tau", "--values", "1", "1.0009765625", "--horizon", "2", "--out", "OUT"))
      for kind in ("transmission", "reaction")],
    ("sweep_tau_dt", spec(3, "reaction", "classical_scaled", seed=1),
     ("sweep", "SPEC", "--param", "tau", "--values", "0.5", "1", "2", "--dt", "0.0625", "--out", "OUT")),
    ("sweep_tau_two_agents_blow_up", spec(2, "reaction", "normalized", dim=1, seed=4),
     ("sweep", "SPEC", "--param", "tau", "--values", "0.25", "1", "16", "--out", "OUT")),
    ("sweep_tau_two_agents_classical",
     spec(2, "reaction", "classical_scaled", influence={"kind": "constant", "c": 0.5}, dim=1, seed=9),
     ("sweep", "SPEC", "--param", "tau", "--values", "0.3", "1", "--out", "OUT")),
    ("sweep_gamma", spec(5, "transmission", "normalized", seed=3, horizon=20.0,
                         datum={"kind": "random_uniform", "low": 0.0, "high": 5.0}),
     ("sweep", "SPEC", "--param", "gamma", "--values", "0.5", "20", "--horizon", "5", "--out", "OUT")),
    ("sweep_n", spec(3, "reaction", "normalized", tau=0.1, seed=6, horizon=4.0),
     ("sweep", "SPEC", "--param", "N", "--values", "2", "3", "5", "8", "--out", "OUT")),
    ("sweep_horizon", spec(4, "transmission", "classical_scaled", seed=8),
     ("sweep", "SPEC", "--param", "horizon", "--values", "2", "5", "--out", "OUT")),
    ("sweep_bad_param", spec(3, "transmission", "normalized"),
     ("sweep", "SPEC", "--param", "dim", "--values", "2", "--out", "OUT")),
    *[(f"toy_{kind}_{tau}", None, ("toy", "--kind", kind, "--tau", tau))
      for kind, taus in (("transmission", ("0.1", "16")),
                         ("reaction", ("0.1", "0.15", "0.3", "0.5", "1", "2", "16")))
      for tau in taus],
    *[(f"toy_reaction_{tau}_horizon_{horizon}", None,
       ("toy", "--kind", "reaction", "--tau", tau, "--horizon", horizon, "--dt", dt))
      for tau, horizon, dt in (("0.3", "2", "0.0046875"), ("16", "400", "0.25"))],
    *[(f"rate_{i}", None, ("rate", *args)) for i, args in enumerate([
        ("--alpha", "0.5", "--beta", "1", "--tau", "0.25"),
        ("--alpha", "0.4", "--beta", "0.9", "--tau", "0.1", "--measure", "uniform"),
        ("--alpha", "1e-300", "--beta", "1", "--tau", "1000"),
        ("--alpha", "0.999999", "--beta", "1", "--tau", "300", "--measure", "uniform"),
        ("--alpha", "1", "--beta", "1"),
        ("--alpha", "1", "--beta", "1e308", "--tau", "1e308", "--measure", "uniform"),
        ("--alpha", "1e-300", "--beta", "1e308", "--tau", "1e308"),
        ("--alpha", "1e-300", "--beta", "1e308", "--tau", "1e308", "--measure", "uniform"),
    ])],
]


def load_script(name):
    module_spec = importlib.util.spec_from_file_location(f"battery_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


def record(case_dir: Path, root: Path, run) -> None:
    """Run run() with its stdout, stderr and warnings captured, and write
    its exit code (or the last line of a traceback) and both streams."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            code = run()
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = "traceback"
            err.write("".join(traceback.format_exception_only(type(exc), exc)))
    (case_dir / "exit").write_text(f"{code}\n")
    for name, stream in (("stdout", out), ("stderr", err)):
        (case_dir / name).write_text(stream.getvalue().replace(str(root), "<battery>"))


def manifest(root: Path) -> dict:
    """The SHA-256 of every file under root, keyed by its path relative to
    root, and the Python and numpy versions that wrote them."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "files": {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(root.rglob("*")) if p.is_file()},
    }


def main(args=()) -> int:
    if list(args) not in ([], ["--write-manifest"]):
        print("usage: python3 scripts/output_battery.py [--write-manifest]", file=sys.stderr)
        return 2
    root = RESULTS / "battery"
    shutil.rmtree(root, ignore_errors=True)
    for name, doc, argv in CASES:
        case_dir = root / name
        case_dir.mkdir(parents=True)
        spec_path = case_dir / "spec.json"

        def run():
            if doc is not None:
                spec_path.write_text(json.dumps(doc(root) if callable(doc) else doc, indent=1) + "\n")
            args = [str(spec_path) if a == "SPEC" else str(case_dir / "out") if a == "OUT" else a for a in argv]
            return hkdelay_main(args)

        record(case_dir, root, run)
    for name in ("run_consensus_experiments", "sweep_toy_regimes"):
        case_dir = root / name
        script = load_script(name)
        script.RESULTS = case_dir / "out"
        case_dir.mkdir(parents=True)
        record(case_dir, root, script.main)
    print(f"wrote {len(CASES) + 2} cases to {root}")
    if args:
        MANIFEST.write_text(json.dumps(manifest(root), indent=1) + "\n")
        print(f"wrote {MANIFEST.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
