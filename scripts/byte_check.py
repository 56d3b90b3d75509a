#!/usr/bin/env python3
"""Check that a change keeps every output byte of the output battery.

    python3 scripts/byte_check.py PARENT [CHANGE]

PARENT and CHANGE are git revisions; CHANGE defaults to the working tree.
Each side is extracted into a temporary folder, by `git archive` or, for
the working tree, by a copy of its src/ and scripts/.  CHANGE's
scripts/output_battery.py is copied into the PARENT tree, so that both run
the same cases, and the battery runs in each tree with that tree's src/
on PYTHONPATH.  Prints every path under results/battery that differs or
exists on one side only, and exits 0 when the two folders are identical
and 1 otherwise.  Nothing is written inside the repository.
"""

import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BATTERY = Path("results") / "battery"


def extract(revision: str, dest: Path) -> None:
    """The files of revision, as git archive gives them, under dest."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", revision], stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def copy_working_tree(dest: Path) -> None:
    for name in ("src", "scripts"):
        shutil.copytree(REPO / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))


def run_battery(tree: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    subprocess.run([sys.executable, str(tree / "scripts" / "output_battery.py")], cwd=tree, env=env,
                   check=True, stdout=subprocess.DEVNULL)


def compare(a: Path, b: Path) -> list:
    """Every path below a or b that differs, or exists on one side only, as
    a line naming it."""
    sides = [{p.relative_to(root): p for p in root.rglob("*")} for root in (a, b)]
    lines = []
    for rel in sorted(sides[0].keys() | sides[1].keys()):
        pa, pb = sides[0].get(rel), sides[1].get(rel)
        if pb is None:
            lines.append(f"only in parent: {rel}")
        elif pa is None:
            lines.append(f"only in change: {rel}")
        elif pa.is_dir() != pb.is_dir() or pa.is_file() and pa.read_bytes() != pb.read_bytes():
            lines.append(f"differs: {rel}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print("usage: python3 scripts/byte_check.py PARENT [CHANGE]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="byte_check_") as tmp:
        parent, change = Path(tmp) / "parent", Path(tmp) / "change"
        extract(args[0], parent)
        if len(args) == 2:
            extract(args[1], change)
        else:
            copy_working_tree(change)
        shutil.copy2(change / "scripts" / "output_battery.py", parent / "scripts" / "output_battery.py")
        for tree in (parent, change):
            run_battery(tree)
        lines = compare(parent / BATTERY, change / BATTERY)
        cases = sum(1 for p in (change / BATTERY).iterdir() if p.is_dir())
    print("\n".join(lines) if lines else f"identical: {cases} cases")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
