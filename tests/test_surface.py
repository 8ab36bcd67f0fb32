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
proves it: a `FiniteGroup` only by the three builders that prove its table,
a `QuotientAlgebra` only as a section I/J or its prime restriction. The
checks of an arbitrary table or tensor are oracles, so a new unproved
construction route fails here.

The process ends in one place, `cli.run`: it alone freezes the collector and
exits, and both `python -m modiso` and the `mip` script call it, so `main`
stays safe to call in-process.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

from modiso.caps import DEFAULT_CAPS

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "modiso"

LIBRARY_API = {
    "is_metacyclic",          # groups: the metacyclicity test behind criterion 11
    "from_presentation",      # families: a group from generators and relators
    "Presentation.to_json",   # words: perfbench/pin.py writes presentations with it
}

# (module, function, parameter) -> the Caps field its default must equal
CAP_DEFAULTS = {
    ("families", "build", "order_cap"): "group_order_cap",
    ("families", "build", "coset_cap"): "coset_cap",
    ("words", "todd_coxeter", "coset_cap"): "coset_cap",
    ("modalg", "group_algebra", "order_cap"): "algebra_order_cap",
    ("modalg", "kernel_size_power_map", "enum_cap"): "enum_cap",
    ("groups", "maximal_elem_abelian_classes", "cap"): "elemab_cap",
    ("groups", "max_elem_abelian_direct_factor", "cap"): "direct_factor_cap",
    ("iso", "group_isomorphic", "cap"): "iso_cap",
    ("iso", "nilpotent_algebra_iso", "cap"): "iso_cap",
}

# class -> (module, enclosing function) of every call that builds one
CONSTRUCTION_SITES = {
    "FiniteGroup": {("words.py", "_table_group"), ("groups.py", "Subgroup.as_group"),
                    ("groups.py", "quotient_group")},
    "QuotientAlgebra": {("modalg.py", "quotient_algebra"), ("modalg.py", "_prime_restriction")},
    "__new__": set(),
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
    for (module, name, param), field in CAP_DEFAULTS.items():
        fn = getattr(importlib.import_module(f"modiso.{module}"), name)
        default = inspect.signature(fn).parameters[param].default
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


def _calls(node, scope=""):
    """(enclosing qualified name, dotted callee name) for every call under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _calls(child, f"{scope}.{child.name}" if scope else child.name)
            continue
        if isinstance(child, ast.Call) and isinstance(child.func, (ast.Name, ast.Attribute)):
            yield scope, _dotted(child.func)
        yield from _calls(child, scope)


def test_groups_and_algebras_are_built_only_where_they_are_proved():
    sites = {name: set() for name in CONSTRUCTION_SITES}
    for module, tree in _trees().items():
        for scope, callee in _calls(tree):
            name = callee.rpartition(".")[2]
            if name in sites:
                sites[name].add((module, scope))
    assert sites == CONSTRUCTION_SITES


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
