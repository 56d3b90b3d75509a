"""Every spec that the loader accepts runs or fails honestly.

Each mutation class below is applied, one field at a time, to every field
path of four small valid specs, and each document runs through
`hkdelay simulate` in-process.  A run ends in one of three ways: exit 0
with every requested output; exit 1 with one `error: <entry>...` line that
starts with the spec's top-level entry (or `spec`) and no output
directory; or exit 2, a blow-up, with its partial outputs and
blow_up_time.  An entry that its section does not know always exits 1.
The mutants of the spec itself and of the sections that `hkdelay sweep`
reads before the loader also run through a sweep over each parameter,
which exits 0 with sweep.csv or 1 as above.  No run raises, prints a
traceback or warns, and every JSON output parses with NaN and Infinity
refused.
"""

import copy
import json
import math
import re
import warnings

import pytest

from hkdelay.cli import DEFAULT_OUTPUTS, SWEEP_PARAMS, main

from conftest import FILES

BASES = {
    "constant": {
        "config": {
            "n_agents": 3, "dim": 2, "tau": 0.5,
            "delay_kind": "transmission", "weight_scheme": "normalized",
            "influence": {"kind": "algebraic_decay", "gamma": 1.0},
        },
        "datum": {"kind": "constant_per_agent", "vectors": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]},
        "integrator": {"dt": 0.125, "method": "rk4_steps"},
        "horizon": 2.0,
        "outputs": ["trajectory", "metrics", "report"],
        "seed": 0,
    },
    "sampled_table": {
        "config": {
            "n_agents": 2, "dim": 1, "tau": 0.5,
            "delay_kind": "reaction", "weight_scheme": "classical_scaled",
            "influence": {"kind": "table", "samples": [[0.0, 1.0], [1.0, 0.5], [2.0, 0.25]]},
        },
        "datum": {"kind": "sampled", "times": [-0.5, -0.25, 0.0], "values": [[[0.0], [1.0]], [[0.5], [1.0]], [[0.0], [2.0]]]},
        "integrator": {"dt": 0.125, "method": "rk4_steps"},
        "horizon": 2.0,
        "outputs": ["trajectory", "metrics", "report"],
        "seed": 0,
    },
    "random_rates": {
        "config": {
            "n_agents": 4, "dim": 1, "tau": 0.25,
            "delay_kind": "reaction", "weight_scheme": "normalized",
            "influence": {"kind": "constant", "c": 0.5},
        },
        "datum": {"kind": "random_uniform", "low": 0.0, "high": 1.0},
        "integrator": {"dt": 0.0625, "method": "rk4_steps"},
        "horizon": 1.0,
        "outputs": ["rates", "report"],
        "seed": 5,
    },
    # b tau = 2 > pi/2: the gap grows and passes the blow-up limit at t = 164.5
    "blow_up": {
        "config": {
            "n_agents": 2, "dim": 1, "tau": 1.0,
            "delay_kind": "reaction", "weight_scheme": "normalized",
            "influence": {"kind": "constant", "c": 1.0},
        },
        "datum": {"kind": "constant_per_agent", "vectors": [[0.0], [1.0]]},
        "integrator": {"dt": 0.25, "method": "rk4_steps"},
        "horizon": 165.0,
        "outputs": ["metrics", "report"],
        "seed": 0,
    },
}

TOP_LEVEL = ("config", "datum", "integrator", "horizon", "outputs", "seed", "spec")
ERROR_LINE = re.compile(rf"error: ({'|'.join(TOP_LEVEL)})\b[^\n]*\n")
DELETE = object()


def field_paths(doc, prefix=()):
    """Every key path of a JSON object, containers and leaves alike."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from field_paths(value, prefix + (key,))


def at_first_number(*mutants):
    """Put each mutant in place of the field, or of the first element of
    an array field, so that arrays meet every scalar mutation too."""
    def mutate(value):
        out = []
        for mutant in mutants:
            if not isinstance(value, list):
                out.append(mutant)
                continue
            array = copy.deepcopy(value)
            inner = array
            while isinstance(inner[0], list):
                inner = inner[0]
            inner[0] = mutant
            out.append(array)
        return out
    return mutate


def ragged(value):
    """An array whose first row is one element longer than the others, or
    whose first element became a row."""
    if isinstance(value, list) and value and isinstance(value[0], list):
        value = copy.deepcopy(value)
        value[0] = value[0] + value[0][:1]
        return [value]
    if isinstance(value, list) and value:
        return [[[value[0], value[0]]] + value[1:]]
    return [[[0.0, 0.0], [0.0]]]


def deeper_array(value):
    """An array whose every element is wrapped in a one-element list, or
    nothing for a field that is not an array."""
    def deepen(v):
        return [deepen(x) for x in v] if isinstance(v, list) else [v]
    return [deepen(value)] if isinstance(value, list) else []


def unknown_entry(value):
    if isinstance(value, dict):
        return [{**value, "unknown_entry": 1}]
    if isinstance(value, list):
        return [value + ["unknown_entry"]]
    return ["unknown_entry"]


MUTATIONS = {
    "wrong_type": lambda v: [[] if isinstance(v, dict) else {}],
    "bool": at_first_number(True),
    "numeric_string": at_first_number("1"),
    "nan": at_first_number(math.nan),
    "inf": at_first_number(math.inf, -math.inf),
    "zero": at_first_number(0),
    "negative": at_first_number(-1),
    "huge_tiny": at_first_number(1e300, 1e-300),
    "empty_array": lambda v: [[]],
    "ragged_array": ragged,
    "deeper_array": deeper_array,
    "missing_field": lambda v: [DELETE],
    "unknown_entry": unknown_entry,
}


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutated(base, path, mutant):
    if not path:  # the spec itself
        return mutant
    doc = copy.deepcopy(base)
    parent = value_at(doc, path[:-1])
    if mutant is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = mutant
    return doc


def refuse_constant(name):
    raise ValueError(f"bare {name} in a JSON output")


def run_faults(doc, work, capsys, command, *flags) -> tuple:
    """The exit code of one run of `hkdelay <command>` on doc, and what in
    it breaks the contract that every command keeps: no raise, warning or
    traceback, and an exit 1 with one error line that names a top-level
    entry and no output directory."""
    spec, out = work / "spec.json", work / "out"
    work.mkdir()
    spec.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main([command, str(spec), *flags, "--out", str(out)])
        except BaseException as exc:  # a traceback at the command line
            return None, [f"raised {type(exc).__name__}: {exc}"]
    err = capsys.readouterr().err
    faults = [f"warned: {w.message}" for w in caught]
    if "Traceback" in err:
        faults.append("printed a traceback")
    if code == 1:
        if not ERROR_LINE.fullmatch(err):
            faults.append(f"exit 1 without one error line naming a top-level entry: {err!r}")
        if out.exists():
            faults.append("exit 1 left an output directory")
    return code, faults


def outcome_faults(doc, work, capsys) -> tuple:
    """The exit code of one simulate run of doc, and what in it breaks the
    three-outcome contract."""
    code, faults = run_faults(doc, work, capsys, "simulate")
    if code in (None, 1):
        return code, faults
    if code not in (0, 2):
        return code, faults + [f"exit {code}"]
    out = work / "out"
    missing = [name for name in doc.get("outputs", DEFAULT_OUTPUTS) if not (out / FILES[name]).exists()]
    if missing:
        faults.append(f"exit {code} without the outputs {missing}")
    for path in sorted(out.glob("*.json")):
        try:
            report = json.loads(path.read_text(), parse_constant=refuse_constant)
        except ValueError as exc:
            faults.append(f"{path.name}: {exc}")
            continue
        if path.name == "report.json" and (report["blow_up_time"] is None) != (code == 0):
            faults.append(f"exit {code} with blow_up_time {report['blow_up_time']}")
    return code, faults


@pytest.mark.parametrize("base", sorted(BASES))
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_every_mutated_spec_runs_or_fails_honestly(tmp_path, capsys, base, mutation):
    faults, codes = [], []
    for path in field_paths(BASES[base]):
        for k, mutant in enumerate(MUTATIONS[mutation](value_at(BASES[base], path))):
            doc = mutated(BASES[base], path, mutant)
            work = tmp_path / f"{'.'.join(path)}-{k}"
            code, found = outcome_faults(doc, work, capsys)
            codes.append(code)
            if mutation == "unknown_entry" and isinstance(mutant, dict) and code != 1:
                found.append(f"exit {code} for an unknown entry, expected 1")
            faults += [f"{'.'.join(path)} -> {mutant!r}: {f}" for f in found]
    assert not faults
    if base == "blow_up" and mutation == "missing_field":
        # a dropped seed leaves the run that blows up
        assert 2 in codes


# what sweep reads from the document before the loader does: the spec
# itself and its sections
SWEPT_PATHS = ((), ("config",), ("config", "influence"), ("datum",), ("integrator",))


@pytest.mark.parametrize("base", sorted(BASES))
@pytest.mark.parametrize("param", SWEEP_PARAMS)
def test_every_mutated_spec_sweeps_or_fails_honestly(tmp_path, capsys, base, param):
    # a sweep exits 0 with sweep.csv or 1 with one error line; each base is
    # swept at its own value on its own dt, and horizon but in a horizon
    # sweep, so that tau sweeps stay on its small grid
    doc = BASES[base]
    config = doc["config"]
    value = {"tau": config["tau"], "N": config["n_agents"], "horizon": doc["horizon"],
             "gamma": config["influence"].get("gamma", 1.0)}[param]
    flags = ["--param", param, "--values", str(value), "--dt", str(doc["integrator"]["dt"])]
    if param != "horizon":
        flags += ["--horizon", str(doc["horizon"])]
    faults = []
    for path in SWEPT_PATHS:
        for mutation, mutate in sorted(MUTATIONS.items()):
            for k, mutant in enumerate(mutate(value_at(doc, path))):
                if mutant is DELETE and not path:
                    continue
                work = tmp_path / f"{'.'.join(path) or 'spec'}-{mutation}-{k}"
                code, found = run_faults(mutated(doc, path, mutant), work, capsys, "sweep", *flags)
                if code == 0 and not (work / "out" / "sweep.csv").exists():
                    found.append("exit 0 without sweep.csv")
                elif code not in (None, 0, 1):
                    found.append(f"exit {code}")
                faults += [f"{'.'.join(path) or 'spec'} -> {mutant!r}: {f}" for f in found]
    assert not faults
