#!/usr/bin/env python3
"""Run the four flagship consensus scenarios and write their artifacts.

One run per delay-kind/weight-scheme pairing: transmission with classical
and with normalized weights (consensus for every delay, rate bound for the
normalized case), reaction with symmetric classical weights at tau = 0.4
(Lyapunov route), and reaction with normalized weights at tau = 0.1 (rate
bound under 4 tau < psi0).  Each scenario is a spec document in SCENARIOS,
keyed by its result folder, which hkdelay.cli.load_spec loads as it loads
a spec file; outputs land in results/<name>/.
"""

import json
import sys
from pathlib import Path

from hkdelay.cli import load_spec, run_experiment, write_outputs

RESULTS = Path(__file__).resolve().parent.parent / "results"

ALGEBRAIC = {"kind": "algebraic_decay", "gamma": 1.0}
# with seed 0, the draw np.random.default_rng(0).uniform(0, 1, (5, 2))
CLOUD = {"kind": "random_uniform"}


def scenario(tau, kind, scheme, horizon, dim=2, influence=ALGEBRAIC, datum=CLOUD):
    """The spec document of a five-agent scenario with seed 0 and every output."""
    return {
        "config": {"n_agents": 5, "dim": dim, "tau": tau, "delay_kind": kind,
                   "weight_scheme": scheme, "influence": influence},
        "datum": datum,
        "horizon": horizon,
        "outputs": ["trajectory", "metrics", "rates", "report"],
        "seed": 0,
    }


SCENARIOS = {
    "transmission_classical_tau2": scenario(2.0, "transmission", "classical_scaled", 120.0),
    "transmission_normalized_tau1": scenario(1.0, "transmission", "normalized", 30.0),
    "reaction_symmetric_tau04": scenario(0.4, "reaction", "classical_scaled", 16.0),
    "reaction_normalized_tau01": scenario(
        0.1, "reaction", "normalized", 8.0, dim=1, influence={"kind": "constant", "c": 1.0},
        datum={"kind": "constant_per_agent", "vectors": [[0.0], [0.25], [0.5], [0.75], [1.0]]},
    ),
}


def main() -> int:
    for name, doc in SCENARIOS.items():
        result = run_experiment(load_spec(doc))
        out = RESULTS / name
        write_outputs(result, out)
        summary = result.report["metrics_summary"]
        rates = {k: round(v["C"], 6) for k, v in result.report["rates"].items()}
        print(
            f"{name}: d_x {summary['d_x0']:.4f} -> {summary['d_x_final']:.3e}, "
            f"consensus_time {summary['consensus_time']}, rates {rates or '-'}"
        )
        print(f"  wrote {out}/")
    print(json.dumps({"results_dir": str(RESULTS)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
