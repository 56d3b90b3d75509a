#!/usr/bin/env python3
"""Run the four flagship consensus scenarios and write their artifacts.

One run per delay-kind/weight-scheme pairing: transmission with classical
and with normalized weights (consensus for every delay, rate bound for the
normalized case), reaction with symmetric classical weights at tau = 0.4
(Lyapunov route), and reaction with normalized weights at tau = 0.1 (rate
bound under 4 tau < psi0).  Outputs land in results/<name>/.
"""

import json
import sys
from pathlib import Path

import numpy as np

from hkdelay.cli import ExperimentSpec, run_experiment, write_outputs
from hkdelay.dynamics import default_spec
from hkdelay.model import (
    DelayKind,
    InfluenceFunction,
    InitialDatum,
    SystemConfig,
    WeightScheme,
)

RESULTS = Path(__file__).resolve().parent.parent / "results"


def spec_for(name, config, datum, horizon):
    return name, ExperimentSpec(
        config=config,
        datum=datum,
        integrator=default_spec(config),
        horizon=horizon,
        outputs=("trajectory", "metrics", "rates", "report"),
        seed=0,
    )


def main() -> int:
    rng = np.random.default_rng(0)
    psi = InfluenceFunction.algebraic_decay(1.0)
    cloud = rng.uniform(0.0, 1.0, (5, 2))
    runs = [
        spec_for(
            "transmission_classical_tau2",
            SystemConfig(5, 2, 2.0, DelayKind.TRANSMISSION, WeightScheme.CLASSICAL_SCALED, psi),
            InitialDatum.constant(cloud),
            60.0 * 2.0,
        ),
        spec_for(
            "transmission_normalized_tau1",
            SystemConfig(5, 2, 1.0, DelayKind.TRANSMISSION, WeightScheme.NORMALIZED, psi),
            InitialDatum.constant(cloud),
            30.0,
        ),
        spec_for(
            "reaction_symmetric_tau04",
            SystemConfig(5, 2, 0.4, DelayKind.REACTION, WeightScheme.CLASSICAL_SCALED, psi),
            InitialDatum.constant(cloud),
            16.0,
        ),
        spec_for(
            "reaction_normalized_tau01",
            SystemConfig(5, 1, 0.1, DelayKind.REACTION, WeightScheme.NORMALIZED,
                         InfluenceFunction.constant(1.0)),
            InitialDatum.constant(np.linspace(0.0, 1.0, 5)[:, None]),
            8.0,
        ),
    ]
    for name, spec in runs:
        result = run_experiment(spec)
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
