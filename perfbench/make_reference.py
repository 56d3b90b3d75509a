"""Write perfbench/reference.json from the base configurations.

    python3 perfbench/make_reference.py

Runs each workload once on its base configuration (``initial_vectors`` with
no seed) and stores what the correctness check compares every unit with:
the report's metrics_summary for simulate, the sweep.csv rows for sweep.
Regenerate it only for a change that is meant to alter these values, and
say so with the change.
"""

import json
import shutil
import sys

import run


def main() -> int:
    reference = {}
    for name, w in run.WORKLOADS.items():
        work = run.WORK / "reference" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(run.make_spec(w, run.initial_vectors(w, None), None)))
        unit = run.run_child("plain", run.cli_args(w, spec_path, work / "unit" / "out"), work / "unit")
        if unit.exit_code != 0:
            print(f"{name}: exit code {unit.exit_code}; see {unit.dir / 'child.log'}", file=sys.stderr)
            return 1
        if w.command == "simulate":
            summary = json.loads((unit.out / "report.json").read_text())["metrics_summary"]
            keys = ("d_x0", "X0", "d_x_final", "X_final", "C_emp", "consensus_time")
            reference[name] = {key: summary[key] for key in keys}
        else:
            reference[name] = {"rows": run.read_sweep(unit.out / "sweep.csv")}
    run.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
