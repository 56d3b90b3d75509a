"""Each name of the package has one import path, the module that defines
it; the package defines only what its own code or its scripts read, and its
modules import one another in one order."""

import ast
import re
from pathlib import Path

from hkdelay.rates import THEOREMS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hkdelay"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def assigned(node) -> set:
    """The names that an assignment statement binds, or none for another node."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return set()
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def defined_names(tree) -> set:
    """The functions, classes and assigned names at the module level of tree."""
    names = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    return names.union(*(assigned(n) for n in tree.body))


def references(node, skip: str, found: set) -> None:
    """Add to found every name that node loads or reads as an attribute,
    leaving out the definition or the assignment of the name skip."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip or skip in assigned(node):
        return
    if isinstance(node, ast.Name):
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found.add(node.attr)
    for child in ast.iter_child_nodes(node):
        references(child, skip, found)


def test_package_namespace_imports_nothing():
    # import hkdelay binds only __version__: every name is imported from the
    # module that defines it, so no list of names is kept in step twice
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert not [n.lineno for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


def test_every_module_level_name_is_read_by_the_package_or_a_script():
    # a name that only tests call belongs with them, as tests/reference.py
    # and tests/lemmas.py hold
    trees = [ast.parse(p.read_text()) for p in MODULES + sorted((ROOT / "scripts").glob("*.py"))]
    unread = []
    for path, tree in zip(MODULES, trees):
        for name in sorted(defined_names(tree)):
            found: set = set()
            for other in trees:
                references(other, name, found)
            if name not in found:
                unread.append(f"{path.stem}.{name}")
    assert not unread


def hkdelay_imports(path: Path) -> list:
    """Every absolute import from hkdelay in one file, including those in the
    code strings that it runs in a child interpreter."""
    trees = [ast.parse(path.read_text())]
    trees += [
        ast.parse(n.value) for n in ast.walk(trees[0])
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
        and re.search(r"^(from|import) hkdelay\b", n.value, re.MULTILINE)
    ]
    return [
        n for tree in trees for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom) and n.level == 0 and n.module.split(".")[0] == "hkdelay"
    ]


def test_tests_and_scripts_import_each_name_from_its_module():
    defined = {p.stem: defined_names(ast.parse(p.read_text())) for p in MODULES}
    wrong = []
    for path in sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        for node in hkdelay_imports(path):
            module = node.module.removeprefix("hkdelay").lstrip(".")
            wrong += [
                f"{path.name}:{node.lineno} {node.module}.{a.name}" for a in node.names
                if a.name not in (defined.get(module, set()) if module else defined)
            ]
    assert not wrong


# each module may import only modules of earlier layers: the rate layer
# rates reads the model alone, not the metric series or the integrator
LAYERS = (("errors",), ("model",), ("dynamics", "metrics", "rates"), ("cli",))


def package_imports(path: Path) -> set:
    """The package modules that one module imports, by short name, whether
    relative (from .metrics, from . import metrics) or absolute (from hkdelay.metrics)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 1 or module.startswith("hkdelay"):
            module = module.removeprefix("hkdelay").lstrip(".")
            found.update([module] if module else [a.name for a in node.names])
    return found


def test_modules_import_only_earlier_layers():
    layer = {name: i for i, names in enumerate(LAYERS) for name in names}
    modules = [p.stem for p in MODULES]
    assert modules == sorted(layer)
    upward = [
        f"{module} imports {imported}"
        for module in modules
        for imported in sorted(package_imports(PACKAGE / f"{module}.py"))
        if layer[imported] >= layer[module]
    ]
    assert not upward


def test_metrics_forms_no_weights():
    # the stepper writes D with each node's velocity, from the weights that
    # velocity uses; metrics reads that series and has no kernel to call
    tree = ast.parse((PACKAGE / "metrics.py").read_text())
    found: set = set()
    references(tree, "", found)
    found.update(a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names)
    assert "weights_from_states" not in found


def test_model_holds_the_one_pair_and_weight_kernel():
    # pair_sq and weights_from_states are the only pairwise routines: the
    # stepper, the metrics and the theorem layer define none of their own,
    # nor an outer difference x[:, None] - x[None, :].  dynamics and rates
    # call weights_from_states by the name they import from model, the
    # binding that perfbench/child.py patches at every site
    def has_none_index(node):
        return isinstance(node, ast.Subscript) and any(
            isinstance(n, ast.Constant) and n.value is None for n in ast.walk(node.slice)
        )

    for module in ("dynamics", "metrics", "rates"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        defined = [n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        assert not [name for name in defined if any(w in name.lower() for w in ("pair", "weight", "dist"))], module
        outer = [
            n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Sub)
            and has_none_index(n.left) and has_none_index(n.right)
        ]
        assert not outer, (module, outer)
    for module in ("dynamics", "rates"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        imported = {
            a.name for n in ast.walk(tree)
            if isinstance(n, ast.ImportFrom) and n.module == "model" for a in n.names
        }
        called = {
            n.func.id for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        }
        assert "weights_from_states" in imported & called, module


def reads_attribute(node, name: str) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == name for n in ast.walk(node))


def test_velocity_and_series_read_the_stack_last_arrays_as_they_are():
    # dynamics forms the velocity's product by einsum on u as the kernel
    # lays it out, (N_j, N_i, ...): no matmul, which sums in BLAS's order,
    # and no transposing copy of Weights.u.  metrics reduces no states to a
    # diameter: integrate wrote the squared diameter of every node, so
    # metrics names neither diameter nor squared_diameter
    tree = ast.parse((PACKAGE / "dynamics.py").read_text())
    matmul = [
        n.lineno for n in ast.walk(tree)
        if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.MatMult)
        or isinstance(n, ast.Name) and n.id == "matmul" or isinstance(n, ast.Attribute) and n.attr == "matmul"
    ]
    assert not matmul
    layout = ("T", "mT", "transpose", "swapaxes", "moveaxis", "ascontiguousarray", "asfortranarray", "copy")
    transposed = [
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr in layout and reads_attribute(n.value, "u")
        or isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr in layout
        and any(reads_attribute(arg, "u") for arg in n.args)
    ]
    assert not transposed
    tree = ast.parse((PACKAGE / "metrics.py").read_text())
    reductions = {"diameter", "squared_diameter"}
    named = [
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.Name) and n.id in reductions or isinstance(n, ast.Attribute) and n.attr in reductions
        or isinstance(n, ast.ImportFrom) and reductions & {a.name for a in n.names}
    ]
    assert not named


def test_states_reduce_to_d_x_and_r_x_through_model_alone():
    # model.squared_diameter, with diameter its root, and model.radius are
    # the one reduction of states to a diameter or a radius: metrics does
    # not name pair_sq, and dynamics calls it only in velocity_from_states,
    # whose node call takes d_x^2 from the pair array it forms for D
    tree = ast.parse((PACKAGE / "metrics.py").read_text())
    named = [
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.Name) and n.id == "pair_sq" or isinstance(n, ast.Attribute) and n.attr == "pair_sq"
        or isinstance(n, ast.ImportFrom) and "pair_sq" in {a.name for a in n.names}
    ]
    assert not named
    tree = ast.parse((PACKAGE / "dynamics.py").read_text())
    (velocity,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "velocity_from_states"]
    inside = {id(n) for n in ast.walk(velocity)}
    outside = [
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute))
        and getattr(n.func, "id", getattr(n.func, "attr", None)) == "pair_sq" and id(n) not in inside
    ]
    assert not outside


def test_metrics_alone_runs_the_startup_check():
    # compute_metrics is the one caller of check_icass in a run: the series
    # carries its IcassReport, and rates and cli read that report
    for module in ("dynamics", "metrics", "rates", "cli"):
        found: set = set()
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        references(tree, "", found)
        found.update(a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names)
        assert ("check_icass" in found) == (module == "metrics"), module


def test_metrics_alone_fits_rates_and_sets_the_consensus_threshold():
    # C_emp's fit, the toy's fit and the consensus threshold live in
    # metrics, whose fits share one sample window: no other module calls
    # fit_decay_rate, and cli defines no fit, window, floor or consensus
    # threshold of its own
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "metrics":
            continue
        found: set = set()
        references(ast.parse(path.read_text()), "", found)
        assert "fit_decay_rate" not in found, path.stem
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    defined = [n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    defined += [t.id for n in ast.walk(tree) if isinstance(n, ast.Assign) for t in n.targets
                if isinstance(t, ast.Name)]
    words = ("fit", "window", "floor", "ulps", "consensus")
    assert not [name for name in defined if any(w in name.lower() for w in words)]


def test_rates_alone_names_the_root_finder():
    # bisect is the package's one scalar root finder: the rate equations
    # and the characteristic root call it inside rates, and no other module
    # names it, so every root the package reports is found in rates
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "rates":
            continue
        found: set = set()
        tree = ast.parse(path.read_text())
        references(tree, "", found)
        found.update(a.asname or a.name for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
                     for a in n.names)
        assert "bisect" not in found, path.stem


def test_dynamics_and_metrics_do_not_name_the_weight_scheme():
    # the kernel decides the scheme alone: Weights.n is the row denominator
    # of either scheme, so the velocity and D divide by it, and neither
    # dynamics nor metrics reads a scheme flag, enum or config field
    scheme = {"normalized", "norm", "WeightScheme", "weight_scheme"}
    for module in ("dynamics", "metrics"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        named = [
            n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr in scheme
            or isinstance(n, ast.Name) and n.id in scheme
            or isinstance(n, ast.keyword) and n.arg in scheme
            or isinstance(n, ast.ImportFrom) and scheme & {a.name for a in n.names}
        ]
        assert not named, (module, named)


def test_linearization_names_delay_kinds_and_schemes_only_in_its_coefficient_map():
    # one linear equation serves every regime: the delay kind and the weight
    # scheme enter the linearization in rates only through
    # linear_coefficients and the one two-agent config, and no threshold or
    # root is written on 2 tau
    names = ("_require_delay", "linear_coefficients", "two_agent_config", "classify_regime", "rightmost_root")
    tree = ast.parse((PACKAGE / "rates.py").read_text())
    linearization = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name in names]
    assert len(linearization) == len(names)
    allowed = {
        id(n) for f in linearization if f.name in ("linear_coefficients", "two_agent_config") for n in ast.walk(f)
    }
    named = [
        n.lineno for f in linearization for n in ast.walk(f)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
        and n.value.id in ("DelayKind", "WeightScheme") and id(n) not in allowed
    ]
    assert not named

    def is_tau(node):
        return isinstance(node, ast.Name) and node.id == "tau" or isinstance(node, ast.Attribute) and node.attr == "tau"

    def is_two(node):
        return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 2

    doubled = [
        n.lineno for f in linearization for n in ast.walk(f)
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
        and (is_two(n.left) and is_tau(n.right) or is_tau(n.left) and is_two(n.right))
    ]
    assert not doubled


def by_function(node, owner=None):
    """Every node below node, with the name of the innermost function that
    holds it, or None at the module level."""
    for child in ast.iter_child_nodes(node):
        yield owner, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        yield from by_function(child, inner)


def test_blocks_cuts_every_stepped_loop_and_block_length_alone_reads_the_cap():
    # model.blocks is the one rule that cuts a loop into blocks, so no loop
    # works out its own slice bounds; block_length turns BLOCK_ENTRIES into
    # every block size, so no other function reads the cap
    stepped, readers = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, n in by_function(ast.parse(path.read_text())):
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "range" and len(n.args) == 3:
                stepped.append(f"{path.stem}.{owner}")
            if (isinstance(n, ast.Name) and n.id == "BLOCK_ENTRIES" and isinstance(n.ctx, ast.Load)
                    or isinstance(n, ast.Attribute) and n.attr == "BLOCK_ENTRIES"
                    or isinstance(n, ast.ImportFrom) and "BLOCK_ENTRIES" in {a.name for a in n.names}):
                readers.append(f"{path.stem}.{owner}")
    assert stepped == ["model.blocks"]
    assert readers == ["model.block_length"]


# suites that test no one module but the package across its modules
CROSS_CUTTING = ("acceptance", "outputs", "surface", "spec_fuzz", "readme", "scripts", "bench_hooks")


def test_each_test_file_names_a_module_or_a_cross_cutting_suite():
    # tests/test_<name>.py tests the module hkdelay.<name>, so a test file
    # outlives no module that it is named after
    modules = {p.stem for p in MODULES}
    names = sorted(p.stem.removeprefix("test_") for p in (ROOT / "tests").glob("test_*.py"))
    assert [n for n in names if n not in modules and n not in CROSS_CUTTING] == []


def test_theorem_rates_alone_forms_a_rate_equation_in_rates():
    # the theorems' two rate equations are built where the rates are
    # published, so no second function in rates restates alpha or beta
    tree = ast.parse((PACKAGE / "rates.py").read_text())
    builders = {
        owner for owner, n in by_function(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "HalanayProblem"
    }
    assert builders == {"theorem_rates"}


def test_each_precondition_reason_is_written_once():
    # check_preconditions states each hypothesis once, however many
    # theorems it serves: no reason text, plain or formatted, repeats
    tree = ast.parse((PACKAGE / "rates.py").read_text())
    (check,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "check_preconditions"]
    inner = {id(check.body[0].value)}  # the docstring, and the pieces of every f-string
    inner.update(id(v) for n in ast.walk(check) if isinstance(n, ast.JoinedStr) for v in ast.walk(n) if v is not n)
    texts = [
        ast.unparse(n) for n in ast.walk(check)
        if id(n) not in inner and (isinstance(n, ast.JoinedStr) or isinstance(n, ast.Constant)
                                   and isinstance(n.value, str) and n.value not in THEOREMS)
    ]
    assert texts
    assert sorted(t for t in set(texts) if texts.count(t) > 1) == []
