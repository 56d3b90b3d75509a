"""Run one hkdelay command line in this fresh interpreter and record it.

    python3 perfbench/child.py MODE RECORD -- ARGS...

ARGS are passed to ``hkdelay.cli.main``.  RECORD receives a JSON object with
the monotonic-clock times of entering and leaving ``main`` and of every
``integrate`` call, the steal time of this process's CPU at each of those
moments (see ``steal_s``), and the peak resident set size.  MODE is

- ``plain``: nothing else; end-to-end numbers come from these runs;
- ``setup``: stop the process at the first ``integrate`` call, so that only
  interpreter start, imports and spec loading are paid;
- ``spans``: also record a span around every call into the layer functions
  in ``SPAN_TARGETS``;
- ``memory``: also record, with tracemalloc, the peak memory allocated
  during each call to the functions in ``MEMORY_TARGETS``.

The hooks replace the functions at every import site, because modules bind
some of them by name (``weights_from_states`` in dynamics, metrics and rates).
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import sys
import threading
import time
import tracemalloc
from pathlib import Path

# (defining module, attribute, span name); "Class.method" names a method.
SPAN_TARGETS = (
    ("hkdelay.cli", "cmd_simulate", "cli.cmd"),
    ("hkdelay.cli", "cmd_sweep", "cli.cmd"),
    ("hkdelay.cli", "load_spec_file", "cli.load_spec"),
    ("hkdelay.cli", "load_spec", "cli.load_spec"),
    ("hkdelay.cli", "_sweep_row", "cli.sweep_row"),
    ("hkdelay.cli", "run_experiment", "cli.run_experiment"),
    ("hkdelay.cli", "write_outputs", "cli.write_outputs"),
    ("hkdelay.dynamics", "integrate", "dynamics.integrate"),
    ("hkdelay.dynamics", "velocity_from_states", "dynamics.velocity_from_states"),
    ("hkdelay.dynamics", "trajectory_to_csv", "dynamics.trajectory_to_csv"),
    ("hkdelay.model", "weights_from_states", "model.weights_from_states"),
    ("hkdelay.metrics", "compute_metrics", "metrics.compute_metrics"),
    ("hkdelay.metrics", "MetricSeries.to_csv", "metrics.to_csv"),
    ("hkdelay.rates", "check_preconditions", "rates.check_preconditions"),
)
MEMORY_TARGETS = (
    ("hkdelay.dynamics", "integrate", "dynamics.integrate"),
    ("hkdelay.metrics", "compute_metrics", "metrics.compute_metrics"),
)
INTEGRATE = ("hkdelay.dynamics", "integrate")
CLOCK_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def steal_s(cpu: int) -> float:
    """Seconds the hypervisor has kept ``cpu`` from running since boot; 0.0 if unknown.

    On a virtual machine whose host is busy with other guests, this grows
    while the benchmark's CPU waits for a physical one.  Subtracted from a
    wall-clock interval on that CPU, it leaves the time the program ran.
    """
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                fields = line.split()
                if fields[0] == f"cpu{cpu}":
                    return int(fields[8]) * CLOCK_TICK_S if len(fields) > 8 else 0.0
    except OSError:
        pass
    return 0.0


def find_sites(module_name: str, attr: str) -> list:
    """Every (namespace, key, site) in the hkdelay package bound to module.attr.

    ``site`` is the short name of the module that calls through that binding.
    A method has its class as its only site.
    """
    owner = sys.modules[module_name]
    short = module_name.rpartition(".")[2]
    if "." in attr:
        cls_name, method = attr.split(".")
        return [(getattr(owner, cls_name), method, short)]
    original = getattr(owner, attr)
    return [
        (module, key, name.rpartition(".")[2])
        for name, module in list(sys.modules.items())
        if name == "hkdelay" or name.startswith("hkdelay.")
        for key, value in list(vars(module).items())
        if value is original
    ]


def patch(sites: list, make_wrapper) -> None:
    """Wrap the current binding at every site with ``make_wrapper(fn, site)``."""
    for owner, key, site in sites:
        setattr(owner, key, make_wrapper(getattr(owner, key), site))


class SpanRecorder:
    """In-memory spans: (id, parent id, name, site, thread, start, end, extra).

    Each thread keeps its own parent stack, so spans from the sweep's pool
    threads nest correctly.  ``extra`` is the pair count N*N for weight calls,
    the completed RK4 steps for ``integrate`` and 0 otherwise.
    """

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, site: str):
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.monotonic
        get_thread = threading.get_ident
        extra_of = _EXTRA.get(name)

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            extra = 0
            start = clock()
            try:
                out = fn(*args, **kwargs)
                if extra_of is not None:
                    extra = extra_of(args, out)
                return out
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, site, get_thread(), start, end, extra))

        return wrapper


_EXTRA = {
    "model.weights_from_states": lambda args, out: args[0].n_agents ** 2,
    "dynamics.integrate": lambda args, out: int((out.grid > 0.0).sum()),
}


class PeakTracker:
    """Peak bytes allocated during each call, measured with tracemalloc.

    Before every entry and exit the peak since the previous event is folded
    into all open calls and reset, so calls that overlap in the sweep's pool
    threads each see the process peak while they were open.
    """

    def __init__(self):
        self.peaks: dict = {}
        self._open: dict = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()

    def _fold(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        for entry in self._open.values():
            entry[2] = max(entry[2], peak - entry[1])
        tracemalloc.reset_peak()
        return current

    def wrap(self, name: str, fn, site: str):
        def wrapper(*args, **kwargs):
            token = next(self._ids)
            with self._lock:
                self._open[token] = [name, self._fold(), 0]
            try:
                return fn(*args, **kwargs)
            finally:
                with self._lock:
                    self._fold()
                    _, _, peak = self._open.pop(token)
                    self.peaks[name] = max(self.peaks.get(name, 0), peak)

        return wrapper


def main() -> int:
    mode, record_path = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--" or mode not in ("plain", "setup", "spans", "memory"):
        raise SystemExit("usage: child.py plain|setup|spans|memory RECORD -- ARGS...")
    args = sys.argv[4:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import hkdelay.cli as cli

    # run.py pins itself to one CPU, and this process inherits that.
    cpu = min(os.sched_getaffinity(0))
    record: dict = {"cpu": cpu, "integrate_starts": []}  # (time, steal) pairs

    def write_record() -> None:
        record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(record_path, "w") as fh:
            json.dump(record, fh)

    sites = {
        (module, attr): find_sites(module, attr)
        for module, attr, _ in SPAN_TARGETS + MEMORY_TARGETS
    }

    exit_lock = threading.Lock()  # sweep threads may reach integrate together

    def stamp_integrate(fn, site):
        def wrapper(*a, **k):
            record["integrate_starts"].append((time.monotonic(), steal_s(cpu)))
            if mode == "setup":
                with exit_lock:
                    write_record()
                    os._exit(0)
            return fn(*a, **k)

        return wrapper

    patch(sites[INTEGRATE], stamp_integrate)
    recorder = SpanRecorder() if mode == "spans" else None
    tracker = PeakTracker() if mode == "memory" else None
    if recorder is not None:
        for module, attr, name in SPAN_TARGETS:
            patch(sites[module, attr], lambda fn, site, n=name: recorder.wrap(n, fn, site))
    if tracker is not None:
        for module, attr, name in MEMORY_TARGETS:
            patch(sites[module, attr], lambda fn, site, n=name: tracker.wrap(n, fn, site))
        tracemalloc.start()

    record["steal_enter"] = steal_s(cpu)
    record["t_enter"] = time.monotonic()
    code = cli.main(args)
    record["t_exit"] = time.monotonic()
    record["steal_exit"] = steal_s(cpu)
    if tracker is not None:
        tracemalloc.stop()
        record["peak_bytes"] = tracker.peaks
    if recorder is not None:
        record["spans"] = recorder.spans
    write_record()
    return code


if __name__ == "__main__":
    sys.exit(main())
