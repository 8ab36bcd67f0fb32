"""Product-surface guards.

Every public module-level function and class in `src/modiso`, and every
public method of a public class, is read by the package itself: the package
is what `mip` runs. A route that only the tests call belongs in
`tests/oracles.py`, not in the package. The allow-list names the documented
library API that the package does not read; being exported in
`modiso.__all__` excuses nothing.

Every capped library function defaults to the cap `mip` uses, so a library
call and the command line agree on every cap.

Every group and every structure-constant algebra is built by a route that
proves it: a `FiniteGroup` only by the one builder that proves its table,
a `QuotientAlgebra` only as a radical section or its prime restriction. The
checks of an arbitrary table or tensor are oracles, so a new unproved
construction route fails here. `modalg` echelonizes only the Δ-chain, in
`augmentation_powers`: a section is read off it, so a second echelon pass
on a section fails here.

The algebra-side cap has one gate, `Caps.check_algebra_order`, and `mip`
has one refusal for a group that is not a p-group of the field's
characteristic: each message is written once.

A power-map kernel cell has one route, `invariants.kernel_cell`, which
holds its gates: the forced test, the 2^63 index guard and the cell's
`enum_cap` comparison, the package's only one, are each written once, and
the cell routes are called only from there, so a second route with its own
gates fails here.

No module imports `dataclasses`: the records are plain classes, so a cold
`mip` start generates no methods.

The process ends in one place, `cli.run`: it alone freezes the collector and
exits, and both `python -m modiso` and the `mip` script call it, so `main`
stays safe to call in-process.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

from modiso.caps import DEFAULT_CAPS, Caps

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "modiso"

LIBRARY_API = {
    "is_metacyclic",          # groups: the metacyclicity test behind criterion 11
    "from_presentation",      # families: a group from generators and relators
    "Presentation.to_json",   # words: perfbench/pin.py writes presentations with it
    "Subspace.contains_rows",  # gfq: block membership, the one membership test of a subspace
}

# (module, function, parameter, the Caps field its default must equal)
CAP_DEFAULTS = {
    ("families", "build", "order_cap", "group_order_cap"),
    ("families", "build", "coset_cap", "coset_cap"),
    ("words", "todd_coxeter", "coset_cap", "coset_cap"),
    ("invariants", "kernel_cell", "caps", "algebra_order_cap"),
    ("invariants", "kernel_cell", "caps", "enum_cap"),
    ("groups", "maximal_elem_abelian_classes", "cap", "elemab_cap"),
    ("groups", "max_elem_abelian_direct_factor", "cap", "direct_factor_cap"),
    ("iso", "group_isomorphic", "cap", "iso_cap"),
    ("iso", "nilpotent_algebra_iso", "cap", "iso_cap"),
}

# class -> (module, enclosing function) of every call that builds one
CONSTRUCTION_SITES = {
    "FiniteGroup": {("words.py", "_table_group")},
    "QuotientAlgebra": {("modalg.py", "radical_section"), ("modalg.py", "_prime_restriction")},
    "__new__": set(),
}

# callee -> the (module, enclosing function) of every call in modalg.py that
# starts an echelon basis: the Δ-chain is the module's one elimination, and a
# section's layers and coordinates are read off it
MODALG_ECHELON = {"EchelonBuilder": {("modalg.py", "augmentation_powers")},
                  "TaggedEchelon": set(), "builder": set()}

# callee -> the (module, enclosing function) of every call: a kernel cell is
# routed and gated in `kernel_cell` alone; the d8q8 table's reference cells
# count the sections it builds, and `_enumerate_coords` guards its own points
KERNEL_CELL_ROUTE = {
    "square_cell": {("invariants.py", "kernel_cell")},
    "kernel_size_power_map": {("invariants.py", "kernel_cell"),
                              ("tables.py", "table_example_d8q8")},
    "_check_indexable": {("invariants.py", "kernel_cell"), ("gfq.py", "_enumerate_coords")},
}

# callee -> the only (module, enclosing function) that may call it: the calls
# that end the process (sys.exit, os._exit) or change the collector's state
PROCESS_END = {"gc.freeze": {("cli.py", "run")}, "gc.disable": set(), "os._exit": set(),
               "sys.exit": {("cli.py", "run")}}

# names defined only in tests/oracles.py: the checks of arbitrary tables
ORACLE_ONLY = ("sample_ints", "ASSOC_", "_check_associative")


def _definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _methods(tree):
    """(qualified name, node) for every public method of a public class."""
    for cls in _definitions(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield f"{cls.name}.{node.name}", node


def _names(node):
    """Every name and attribute name read anywhere under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def test_every_public_definition_is_used():
    trees = _trees()
    # a definition counts as used when some other top-level statement reads it
    statements = [(node, set(_names(node))) for tree in trees.values() for node in tree.body]
    unused = []
    for name, tree in trees.items():
        for node in _definitions(tree):
            if node.name in LIBRARY_API:
                continue
            if not any(node.name in names for other, names in statements if other is not node):
                unused.append(f"{name}:{node.name}")
    assert unused == []


def test_every_public_method_is_used():
    trees = _trees()
    attributes = [sub for tree in trees.values() for sub in ast.walk(tree)
                  if isinstance(sub, ast.Attribute)]
    unused = []
    for name, tree in trees.items():
        for qualname, node in _methods(tree):
            if qualname in LIBRARY_API:
                continue
            # a method counts as used when its name is read as an attribute
            # outside its own body
            own = {id(sub) for sub in ast.walk(node)}
            if not any(a.attr == node.name and id(a) not in own for a in attributes):
                unused.append(f"{name}:{qualname}")
    assert unused == []


def test_allow_list_names_real_definitions():
    defined = set()
    for tree in _trees().values():
        defined |= {node.name for node in _definitions(tree)}
        defined |= {qualname for qualname, _ in _methods(tree)}
    assert LIBRARY_API <= defined


def test_cap_defaults_are_the_default_caps():
    drifted = []
    for module, name, param, field in sorted(CAP_DEFAULTS):
        fn = getattr(importlib.import_module(f"modiso.{module}"), name)
        default = inspect.signature(fn).parameters[param].default
        if isinstance(default, Caps):  # a whole Caps parameter: its field
            default = getattr(default, field)
        if default != getattr(DEFAULT_CAPS, field):
            drifted.append(f"{module}.{name}({param}={default!r}) != {field}")
    assert drifted == []


def _dotted(func):
    """The dotted name of a callee: "gc.freeze", "run", or ".mul" for an
    attribute of an expression that is not a plain name."""
    parts = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    parts.append(func.id if isinstance(func, ast.Name) else "")
    return ".".join(reversed(parts))


def _scoped(node, scope=""):
    """(enclosing qualified name, node) for every node under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped(child, f"{scope}.{child.name}" if scope else child.name)
            continue
        yield scope, child
        yield from _scoped(child, scope)


def _calls(node):
    """(enclosing qualified name, dotted callee name) for every call under node."""
    for scope, sub in _scoped(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, (ast.Name, ast.Attribute)):
            yield scope, _dotted(sub.func)


def _call_sites(trees, names):
    """{name: every (module, enclosing function) that calls a callee of that
    final name}."""
    sites = {name: set() for name in names}
    for module, tree in trees.items():
        for scope, callee in _calls(tree):
            name = callee.rpartition(".")[2]
            if name in sites:
                sites[name].add((module, scope))
    return sites


def test_groups_and_algebras_are_built_only_where_they_are_proved():
    assert _call_sites(_trees(), CONSTRUCTION_SITES) == CONSTRUCTION_SITES


def test_modalg_echelonizes_only_the_chain():
    assert _call_sites({"modalg.py": _trees()["modalg.py"]}, MODALG_ECHELON) == MODALG_ECHELON


def test_each_kernel_cell_gate_is_written_once():
    trees = _trees()
    assert _call_sites(trees, KERNEL_CELL_ROUTE) == KERNEL_CELL_ROUTE

    def written(test):
        return sorted((module, scope) for module, tree in trees.items()
                      for scope, node in _scoped(tree) if test(node))

    def is_pow(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)

    # the forced test i·p^k >= j; the 2^63 index guard; and the one enum_cap
    # comparison, the cell's
    assert written(lambda n: isinstance(n, ast.Compare) and isinstance(n.left, ast.BinOp)
                   and isinstance(n.left.op, ast.Mult) and is_pow(n.left.right)) == [
        ("invariants.py", "kernel_cell")]
    assert written(lambda n: isinstance(n, ast.BinOp) and isinstance(n.right, ast.Constant)
                   and n.right.value == 63) == [("gfq.py", "_check_indexable")]
    assert written(lambda n: isinstance(n, ast.Compare) and "enum_cap" in _names(n)) == [
        ("invariants.py", "kernel_cell")]


def test_the_algebra_side_gate_and_refusal_are_written_once():
    # every route that builds FG reads `algebra_order_cap` through
    # Caps.check_algebra_order, and `mip` refuses a group that is not a
    # p-group of the field's characteristic in cli._algebra_side
    compares = sorted((module, scope) for module, tree in _trees().items()
                      for scope, node in _scoped(tree)
                      if isinstance(node, ast.Compare) and "algebra_order_cap" in _names(node))
    assert compares == [("caps.py", "Caps.check_algebra_order")]
    for message, module in (("exceeds the algebra-side cap", "caps.py"),
                            ("cannot build the group algebra", "cli.py")):
        sites = [path.name for path in sorted(SRC.glob("*.py"))
                 for _ in range(path.read_text(encoding="utf-8").count(message))]
        assert sites == [module], message


def test_table_checks_live_only_in_the_oracles():
    defined = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [f"{module}:{name}" for name in names if name.startswith(ORACLE_ONLY)]
    assert defined == []


def test_no_module_imports_dataclasses():
    # the records are plain classes: `@dataclass` generates and compiles
    # methods at import, on every cold `mip` start
    sites = [f"{module}:{node.lineno}" for module, tree in _trees().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]
    assert sites == []


def test_no_assert_statement_in_the_package():
    # checks are explicit raises, so they survive `python -O`
    sites = [f"{module}:{node.lineno}" for module, tree in _trees().items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert sites == []


def test_the_process_ends_only_in_cli_run():
    trees = _trees()
    sites = {name: set() for name in PROCESS_END}
    for module, tree in trees.items():
        for scope, callee in _calls(tree):
            if callee in sites:
                sites[callee].add((module, scope))
    assert sites == PROCESS_END
    entry = trees["__main__.py"]
    assert {node.names[0].name for node in ast.walk(entry)
            if isinstance(node, ast.ImportFrom) and node.module == "cli"} == {"run"}
    assert set(_calls(entry)) == {("", "run")}
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["scripts"] == {"mip": "modiso.cli:run"}
