#!/usr/bin/env python3
"""Sweep the two-agent reaction system over the delay and tabulate regimes.

For each tau: the predicted regime, the rightmost characteristic root, the
observed sign changes, and the fitted decay (or growth) rate of |w|.
Writes results/toy_sweep.csv and prints the table.
"""

import csv
import sys
from pathlib import Path

from hkdelay.model import DelayKind
from hkdelay.cli import toy_record

RESULTS = Path(__file__).resolve().parent.parent / "results"


def main() -> int:
    taus = [0.05 * k for k in range(1, 25)]
    rows = []
    for tau in taus:
        record = toy_record(DelayKind.REACTION, tau, horizon=40 * tau, dt=tau / 32, t_lo=5 * tau)
        regime, root, rate = record["regime"], record["rightmost_root"], record["fitted_rate"]
        changes = record["sign_changes"]
        rows.append(
            {
                "tau": round(tau, 4),
                "regime": regime,
                "root_re": root["re"],
                "root_im": root["im"],
                "sign_changes": changes,
                "fitted_rate": rate,
            }
        )
        rate_s = "-" if rate is None else f"{rate:+.4f}"
        print(
            f"tau={tau:5.2f}  {regime:22s}  Re(xi)={root['re']:+.4f}  "
            f"Im(xi)={root['im']:.4f}  sign_changes={changes:3d}  fitted_rate={rate_s}"
        )
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / "toy_sweep.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
