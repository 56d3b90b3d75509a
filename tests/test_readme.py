"""The README's "Library layout" table names only what the package holds,
and its spec example is a spec that the loader accepts."""

import importlib
import json
import re
from pathlib import Path

from hkdelay import cli

README = Path(__file__).resolve().parent.parent / "README.md"
NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def layout_rows():
    """(module, [backticked names]) per table row; spans that are not
    (dotted) identifiers, such as shapes and formulas, are left out."""
    section = README.read_text().split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 2 or not cells[0].startswith("`hkdelay"):
            continue
        names = [s for s in re.findall(r"`([^`]+)`", cells[1]) if NAME.fullmatch(s)]
        rows.append((cells[0].strip("`"), names))
    return rows


def test_layout_table_names_resolve_in_their_modules():
    rows = layout_rows()
    assert [m for m, _ in rows] == [
        "hkdelay.model", "hkdelay.dynamics", "hkdelay.metrics",
        "hkdelay.rates", "hkdelay.cli",
    ]
    missing = []
    for module_name, names in rows:
        module = importlib.import_module(module_name)
        assert names, module_name
        for name in names:
            owner = module
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{module_name}: {name}")
    assert not missing


def test_spec_example_loads():
    # the // comments are the README's, not JSON's
    block = README.read_text().split("## Experiment spec (JSON)", 1)[1].split("```json\n", 1)[1]
    doc = json.loads(re.sub(r"//.*", "", block.split("```", 1)[0]))
    spec = cli.load_spec(doc)
    assert spec.to_dict()["integrator"] == doc["integrator"]
    assert spec.horizon == doc["horizon"] and spec.outputs == tuple(doc["outputs"])
