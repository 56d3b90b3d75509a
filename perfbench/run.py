"""Benchmark of the hkdelay command line: simulate and sweep, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  One unit of work is one call of
``hkdelay.cli.main``: one ``simulate`` or one whole ``sweep``.  Each unit runs
in a fresh child interpreter (perfbench/child.py), one unit at a time, and its
outputs are checked against stored references and the paper's invariants.
The seed draws the inputs.  With ``--trace 0`` the last line of standard
output carries the end-to-end metrics of untraced units.  With ``--trace 1``
it carries the per-layer metrics of span-traced and memory-traced units.
perfbench/README.md lists the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# Set before numpy loads; the children inherit it.  Single-threaded BLAS is
# the plain baseline, and threaded OpenBLAS on two cores made runs noisier.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import csv
import ctypes
import glob
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from child import steal_s

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
REFERENCE = BENCH_DIR / "reference.json"
WORK = ROOT / ".bench_work"

DIM = 2
STEPS_PER_DELAY = 64  # dt = tau / 64, the CLI's default
SWEEP_TAUS = ("0.25", "0.5", "0.75", "1", "1.25", "1.5", "1.75", "2")
SIM_OUTPUTS = ("trajectory.csv", "metrics.csv", "report.json")

MIN_UNITS = 3  # timed units per run, even when they outlast --seconds
MIN_TRACE_UNITS = 4  # alternating untraced and span-traced units
SETUP_PROBES = 5  # extra children per run that stop at the first integrate
UNIT_TIMEOUT_S = 120

# Stated tolerances of the correctness check.  Across seeds the summary
# values agree to about 1e-9 relative, and final values that sit at the
# rounding floor of the states (about 1e-15 of their size) agree to that
# floor; consensus_time is a grid time and may move by one step when d_x
# crosses its threshold within rounding.
SUMMARY_RTOL = 1e-7  # d_x_final, X_final, C_emp
D_X_ATOL = 1e-12  # times d_x0, for d_x_final
X_ATOL = 1e-24  # times X0, for X_final (a squared distance)
MEAN_DRIFT_TOL = 1e-12  # times the initial radius; mean conservation
BOX_TOL = 1e-12  # times the initial radius; convex-hull box bound
RATE_TOL = 1e-12  # C_emp >= theoretical C, relative


@dataclass(frozen=True)
class Workload:
    command: str  # "simulate" or "sweep"
    n_agents: int
    delay_kind: str
    weight_scheme: str
    tau: float  # for the sweep, each run's tau comes from SWEEP_TAUS
    horizon_delays: int  # horizon in units of tau
    base_seed: int  # draws the base configuration, see initial_vectors

    @property
    def steps_per_run(self) -> int:
        return self.horizon_delays * STEPS_PER_DELAY


# Why these three: README.md.  The sweep keeps the CLI's tau-sweep rule:
# dt = tau/64 and horizon 20 tau for every value.  BENCHMARK.json lists all
# but sim_n5_reaction_long, whose speed drifts most with the host's load;
# it runs when named.
WORKLOADS = {
    "sim_n100_transmission": Workload("simulate", 100, "transmission", "normalized", 1.0, 20, 100),
    "sim_n5_reaction_long": Workload("simulate", 5, "reaction", "classical_scaled", 0.4, 400, 5),
    "sweep_tau_n5_reaction": Workload("sweep", 5, "reaction", "normalized", 1.0, 20, 55),
}


def initial_vectors(w: Workload, seed: int | None) -> np.ndarray:
    """Agent positions: a seeded rigid motion and relabelling of a base configuration.

    The base is uniform on the unit square.  The dynamics and every checked
    summary value are invariant under rotations, reflections, translations
    and relabelling, so one stored reference serves every seed, while each
    seed hands the program different numbers.  ``seed=None`` gives the base.
    """
    base = np.random.default_rng(w.base_seed).uniform(0.0, 1.0, (w.n_agents, DIM))
    if seed is None:
        return base
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    if rng.integers(2):
        rot[:, 1] *= -1.0
    shift = rng.uniform(-1.0, 1.0, DIM)
    return (base @ rot.T + shift)[rng.permutation(w.n_agents)]


def make_spec(w: Workload, vectors: np.ndarray, seed: int | None) -> dict:
    """The experiment spec; the datum is explicit, so the seed is only recorded."""
    spec = {
        "config": {
            "n_agents": w.n_agents,
            "dim": DIM,
            "tau": w.tau,
            "delay_kind": w.delay_kind,
            "weight_scheme": w.weight_scheme,
            "influence": {"kind": "algebraic_decay", "gamma": 1.0},
        },
        "datum": {"kind": "constant_per_agent", "vectors": vectors.tolist()},
        "integrator": {"method": "rk4_steps"},
        "seed": 0 if seed is None else seed,
    }
    if w.command == "simulate":
        spec["integrator"]["dt"] = w.tau / STEPS_PER_DELAY
        spec["horizon"] = w.horizon_delays * w.tau
        spec["outputs"] = ["trajectory", "metrics", "report"]
    return spec


def cli_args(w: Workload, spec_path: Path, out_dir: Path) -> list:
    if w.command == "simulate":
        return ["simulate", str(spec_path), "--out", str(out_dir)]
    return ["sweep", str(spec_path), "--param", "tau", "--values", *SWEEP_TAUS, "--out", str(out_dir)]


# ---------------------------------------------------------------------------
# Running units


@dataclass
class Unit:
    mode: str
    dir: Path
    t_spawn: float
    steal_spawn: float
    exit_code: int | None
    record: dict
    failures: list = field(default_factory=list)
    agent_steps: int = 0
    byte_sizes: dict = field(default_factory=dict)  # output file -> bytes

    @property
    def out(self) -> Path:
        return self.dir / "out"

    @property
    def completed(self) -> bool:
        return "t_exit" in self.record

    @property
    def run_s(self) -> float:
        """Wall time in ``cli.main``, less the time the hypervisor stole from its CPU."""
        r = self.record
        return (r["t_exit"] - r["t_enter"]) - (r["steal_exit"] - r["steal_enter"])

    @property
    def setup_s(self) -> float:
        """Wall time from spawn to the first ``integrate`` call, less stolen time."""
        t, steal = min(self.record["integrate_starts"])
        return (t - self.t_spawn) - (steal - self.steal_spawn)


def run_child(mode: str, args: list, unit_dir: Path) -> Unit:
    """Run child.py once and wait for it; a timeout kills the child."""
    unit_dir.mkdir(parents=True)
    record_path = unit_dir / "record.json"
    command = [sys.executable, str(CHILD), mode, str(record_path), "--", *args]
    with open(unit_dir / "child.log", "w") as log:
        steal_spawn = steal_s(min(os.sched_getaffinity(0)))
        t_spawn = time.monotonic()
        try:
            code = subprocess.run(
                command, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, timeout=UNIT_TIMEOUT_S
            ).returncode
        except subprocess.TimeoutExpired:
            code = None
    record = json.loads(record_path.read_text()) if record_path.is_file() else {}
    return Unit(mode, unit_dir, t_spawn, steal_spawn, code, record)


# ---------------------------------------------------------------------------
# Correctness


def close(value, ref, rtol: float, atol: float) -> bool:
    if value is None or ref is None:
        return value is None and ref is None
    return abs(value - ref) <= rtol * abs(ref) + atol


def read_sweep(path: Path) -> list:
    def number(cell):
        return float(cell) if cell else None

    with open(path, newline="") as fh:
        return [
            {
                "value": float(row["value"]),
                "consensus_time": number(row["consensus_time"]),
                "C_emp": number(row["C_emp"]),
                "regime": row["regime"],
                "preconditions": row["preconditions"],
            }
            for row in csv.DictReader(fh)
        ]


def check_simulate(w: Workload, vectors: np.ndarray, ref: dict, out: Path):
    """Failures of one simulate unit and the agent-steps it completed."""
    missing = [name for name in SIM_OUTPUTS if not (out / name).is_file()]
    if missing:
        return [f"missing outputs: {', '.join(missing)}"], 0
    failures = []
    report = json.loads((out / "report.json").read_text())
    if report["exit_reason"] != "ok":
        failures.append(f"exit_reason {report['exit_reason']!r}, expected 'ok'")
    summary = report["metrics_summary"]
    dt = w.tau / STEPS_PER_DELAY
    tolerances = {
        "d_x_final": (SUMMARY_RTOL, D_X_ATOL * ref["d_x0"]),
        "X_final": (SUMMARY_RTOL, X_ATOL * ref["X0"]),
        "C_emp": (SUMMARY_RTOL, 0.0),
        "consensus_time": (0.0, dt * (1.0 + 1e-9)),
    }
    for key, (rtol, atol) in tolerances.items():
        if not close(summary[key], ref[key], rtol, atol):
            failures.append(f"{key} = {summary[key]!r}, reference {ref[key]!r}")

    t, drift = np.loadtxt(out / "metrics.csv", delimiter=",", skiprows=1, usecols=(0, 3), unpack=True)
    steps = int((t > 0.0).sum())
    if steps != w.steps_per_run:
        failures.append(f"{steps} steps completed, expected {w.steps_per_run}")
    scale = float(np.sqrt((vectors * vectors).sum(axis=1)).max())
    if w.delay_kind == "reaction" and w.weight_scheme == "classical_scaled":
        if drift.max() > MEAN_DRIFT_TOL * scale:
            failures.append(f"mean drift {drift.max():.3g} for symmetric reaction weights")
    if w.delay_kind == "transmission" and w.weight_scheme == "normalized":
        comp, value = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, usecols=(2, 3), unpack=True)
        for k in range(DIM):
            lo, hi = vectors[:, k].min(), vectors[:, k].max()
            x = value[comp == k]
            if x.min() < lo - BOX_TOL * scale or x.max() > hi + BOX_TOL * scale:
                failures.append(f"component {k} leaves the initial box [{lo}, {hi}]")
    c_emp = summary["C_emp"]
    for name, rate in report["rates"].items():
        if c_emp is not None and c_emp < rate["C"] * (1.0 - RATE_TOL):
            failures.append(f"C_emp {c_emp} below the {name} rate {rate['C']}")
    return failures, steps * w.n_agents


def check_sweep(w: Workload, ref: dict, out: Path):
    """Failures of one sweep unit and the agent-steps it completed."""
    if not (out / "sweep.csv").is_file():
        return ["missing output: sweep.csv"], 0
    rows = read_sweep(out / "sweep.csv")
    values = [row["value"] for row in rows]
    if values != [float(v) for v in SWEEP_TAUS]:
        return [f"sweep.csv rows {values}, expected {list(SWEEP_TAUS)} in order"], 0
    failures = []
    for row, expect in zip(rows, ref["rows"]):
        dt = row["value"] / STEPS_PER_DELAY
        if not close(row["C_emp"], expect["C_emp"], SUMMARY_RTOL, 0.0):
            failures.append(f"tau={row['value']}: C_emp {row['C_emp']!r}, reference {expect['C_emp']!r}")
        if not close(row["consensus_time"], expect["consensus_time"], 0.0, dt * (1.0 + 1e-9)):
            failures.append(
                f"tau={row['value']}: consensus_time {row['consensus_time']!r}, "
                f"reference {expect['consensus_time']!r}"
            )
        for key in ("regime", "preconditions"):
            if row[key] != expect[key]:
                failures.append(f"tau={row['value']}: {key} {row[key]!r}, reference {expect[key]!r}")
    # a run that blew up has no C_emp; the others ran the whole horizon
    done = sum(row["C_emp"] is not None for row in rows)
    return failures, done * w.steps_per_run * w.n_agents


class Bench:
    """One benchmark run of one workload and seed."""

    def __init__(self, name: str, seed: int, reference: dict):
        self.name = name
        self.w = WORKLOADS[name]
        self.ref = reference[name]
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.vectors = initial_vectors(self.w, seed)
        self.spec_path = self.dir / "spec.json"
        self.spec_path.write_text(json.dumps(make_spec(self.w, self.vectors, seed)))
        self.count = 0
        self.attempted = 0
        self.failed = 0

    def child(self, mode: str, spec_path: Path | None = None) -> Unit:
        unit_dir = self.dir / f"{mode}-{self.count:03d}"
        self.count += 1
        args = cli_args(self.w, spec_path or self.spec_path, unit_dir / "out")
        return run_child(mode, args, unit_dir)

    def unit(self, mode: str, spec_path: Path | None = None, keep: bool = False) -> Unit:
        """Run and check one unit; count it as attempted, and as failed if it fails."""
        unit = self.child(mode, spec_path)
        if unit.exit_code != 0:
            unit.failures.append(f"exit code {unit.exit_code}, expected 0")
        elif not unit.completed:
            unit.failures.append("child left no record")
        else:
            try:
                if self.w.command == "simulate":
                    failures, steps = check_simulate(self.w, self.vectors, self.ref, unit.out)
                else:
                    failures, steps = check_sweep(self.w, self.ref, unit.out)
            except (KeyError, TypeError, ValueError) as exc:  # ValueError covers bad JSON
                failures, steps = [f"malformed output: {exc!r}"], 0
            unit.failures += failures
            unit.agent_steps = steps
        self.attempted += 1
        if unit.failures:
            self.failed += 1
            for failure in unit.failures:
                print(f"{self.name} {unit.dir.name} FAILED: {failure}", file=sys.stderr)
        unit.byte_sizes = {
            name: (unit.out / name).stat().st_size if (unit.out / name).is_file() else 0
            for name in ("trajectory.csv", "metrics.csv")
        }
        if not keep:
            shutil.rmtree(unit.out, ignore_errors=True)
        return unit

    def timed_units(self, seconds: float, modes: tuple, minimum: int) -> list:
        """Units in turn of ``modes`` for about ``seconds``; the first output is kept.

        A unit starts only if, at the median length of the units so far, it
        would end less than half a unit after ``seconds``.
        """
        units, lengths = [], []
        start = time.monotonic()
        while len(units) < minimum or time.monotonic() - start + median(lengths) / 2 <= seconds:
            t0 = time.monotonic()
            units.append(self.unit(modes[len(units) % len(modes)], keep=not units))
            lengths.append(time.monotonic() - t0)
        return units

    def determinism_probe(self, first: Unit) -> None:
        """Re-run from the spec embedded in a unit's report.json; outputs must match bytewise."""
        report = first.out / "report.json"
        if self.w.command != "simulate" or not report.is_file():
            return
        spec_path = self.dir / "probe-spec.json"
        spec_path.write_text(json.dumps(json.loads(report.read_text())["spec"]))
        probe = self.unit("plain", spec_path, keep=True)
        differ = [
            name
            for name in SIM_OUTPUTS
            if not (probe.out / name).is_file()
            or (probe.out / name).read_bytes() != (first.out / name).read_bytes()
        ]
        if differ and not probe.failures:
            self.failed += 1
            print(f"{self.name} determinism probe FAILED: {', '.join(differ)} differ", file=sys.stderr)
        shutil.rmtree(probe.out, ignore_errors=True)
        shutil.rmtree(first.out, ignore_errors=True)


# ---------------------------------------------------------------------------
# Metrics


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(bench: Bench, seconds: float) -> dict:
    units = bench.timed_units(seconds, ("plain",), MIN_UNITS)
    setups = [bench.child("setup") for _ in range(SETUP_PROBES)]
    bench.determinism_probe(units[0])
    done = [u for u in units if u.completed]
    setup_samples = [u.setup_s for u in done + setups if u.record.get("integrate_starts")]
    if not done or not setup_samples:
        raise RuntimeError("no unit completed; see the child.log files under " + str(bench.dir))
    return {
        "run_s": (median(u.run_s for u in done), "s", len(done)),
        "agent_steps_per_s": (median(u.agent_steps / u.run_s for u in done), "1/s", len(done)),
        "peak_rss_mb": (median(u.record["maxrss_kb"] / 1024.0 for u in done), "MiB", len(done)),
        "setup_s": (median(setup_samples), "s", len(setup_samples)),
    }


@dataclass(frozen=True)
class Span:
    id: int
    parent: int
    name: str
    site: str
    thread: int
    start: float
    end: float
    extra: int

    @property
    def dur(self) -> float:
        return self.end - self.start


def peak_overlap(spans: list) -> int:
    """Largest number of the spans open at one time."""
    events = sorted([(s.start, 1) for s in spans] + [(s.end, -1) for s in spans])
    peak = open_now = 0
    for _, delta in events:
        open_now += delta
        peak = max(peak, open_now)
    return peak


def span_metrics(unit: Unit) -> dict:
    """Per-layer values of one span-traced unit, as (value, unit) pairs."""
    spans = [Span(*s) for s in unit.record["spans"]]
    by_name = defaultdict(list)
    child_s = defaultdict(float)  # span id -> time in its direct children
    for s in spans:
        by_name[s.name].append(s)
        if s.parent >= 0:
            child_s[s.parent] += s.dur

    def total(name):
        return sum(s.dur for s in by_name[name])

    def self_total(name):
        return sum(s.dur - child_s[s.id] for s in by_name[name])

    weights = by_name["model.weights_from_states"]
    (cmd,) = by_name["cli.cmd"]
    if by_name["cli.write_outputs"]:
        write_s = total("cli.write_outputs")
    else:  # sweep: writing sweep.csv after the last row
        write_s = cmd.end - max(s.end for s in by_name["cli.sweep_row"])
    load_ids = {s.id for s in by_name["cli.load_spec"]}
    runs = by_name["cli.run_experiment"]
    return {
        **{
            f"model.weights_calls.{site}": (sum(s.site == site for s in weights), "count")
            for site in ("dynamics", "metrics", "rates")
        },
        "model.weights_s": (total("model.weights_from_states"), "s"),
        "model.weights_pairs": (sum(s.extra for s in weights), "count"),
        "dynamics.integrate_s": (total("dynamics.integrate"), "s"),
        "dynamics.integrate_self_s": (self_total("dynamics.integrate"), "s"),
        "dynamics.steps": (sum(s.extra for s in by_name["dynamics.integrate"]), "count"),
        "dynamics.velocity_calls": (len(by_name["dynamics.velocity_from_states"]), "count"),
        "metrics.compute_metrics_s": (total("metrics.compute_metrics"), "s"),
        "metrics.compute_metrics_self_s": (self_total("metrics.compute_metrics"), "s"),
        "cli.load_spec_s": (sum(s.dur for s in by_name["cli.load_spec"] if s.parent not in load_ids), "s"),
        "cli.write_outputs_s": (write_s, "s"),
        "dynamics.trajectory_to_csv_share": (total("dynamics.trajectory_to_csv") / cmd.dur, "ratio"),
        "metrics.to_csv_share": (total("metrics.to_csv") / cmd.dur, "ratio"),
        "dynamics.trajectory_csv_bytes": (unit.byte_sizes["trajectory.csv"], "B"),
        "metrics.csv_bytes": (unit.byte_sizes["metrics.csv"], "B"),
        "rates.check_preconditions_s": (total("rates.check_preconditions"), "s"),
        "rates.check_preconditions_calls": (len(by_name["rates.check_preconditions"]), "count"),
        "cli.sweep_threads": (peak_overlap(runs), "count"),
        "cli.sweep_overlap": (sum(s.dur for s in runs) / cmd.dur, "ratio"),
    }


COUNT_UNITS = ("count", "B")


def per_layer(bench: Bench, seconds: float) -> dict:
    units = bench.timed_units(seconds, ("plain", "spans"), MIN_TRACE_UNITS)
    memory = bench.unit("memory")
    bench.determinism_probe(units[0])
    plain = [u for u in units if u.mode == "plain" and u.completed]
    traced = [u for u in units if u.mode == "spans" and u.completed]
    if not plain or not traced or not memory.completed:
        raise RuntimeError("a traced unit did not complete; see the child.log files under " + str(bench.dir))
    samples = [span_metrics(u) for u in traced]
    out = {}
    for key, (_, unit) in samples[0].items():
        values = [s[key][0] for s in samples]
        if unit in COUNT_UNITS and len(set(values)) > 1:
            print(f"{bench.name}: count {key} differs between traced units: {values}", file=sys.stderr)
        typical = statistics.median_low(values) if unit in COUNT_UNITS else median(values)
        out[key] = (typical, unit, len(values))
    peaks = memory.record["peak_bytes"]
    out["dynamics.integrate_peak_mb"] = (peaks["dynamics.integrate"] / 2**20, "MiB", 1)
    out["metrics.compute_metrics_peak_mb"] = (peaks["metrics.compute_metrics"] / 2**20, "MiB", 1)
    traced_s = median(u.run_s for u in traced)
    plain_s = median(u.run_s for u in plain)
    out["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio", len(traced))
    return out


# ---------------------------------------------------------------------------
# Environment


def blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, or None if it cannot be asked."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    with open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hkdelay" / "cli.py").is_file():
        print(f"error: no hkdelay source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    # One CPU for this process and every child.  Unpinned, the sweep's pool
    # threads hand the interpreter lock across CPUs, and under load from
    # other guests on a 2-vCPU virtual machine a sweep unit slowed from 3 s to
    # over 8 s.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment()
    bench = Bench(args.workload, args.seed, json.loads(REFERENCE.read_text()))
    (bench.dir / "env.json").write_text(json.dumps(env, indent=1))
    print("env " + json.dumps(env))
    bench.child("setup")  # warm-up, untimed: bytecode cache and page cache
    measure = per_layer if args.trace else end_to_end
    cpu = env["pinned_to_cpus"][0]
    steal0, t0 = steal_s(cpu), time.monotonic()
    results = measure(bench, args.seconds)
    stolen, wall = steal_s(cpu) - steal0, time.monotonic() - t0
    print(f"{args.workload} stolen by the hypervisor from cpu{cpu}: {stolen:.2f} s of {wall:.1f} s")
    for name, (value, unit, n) in results.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (median of {n})")
    print(f"{args.workload} failed_frac = {bench.failed / bench.attempted:.6g} ({bench.failed} of {bench.attempted} units)")
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in results.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
