"""Rules on the package source itself, read from its syntax trees."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mcastcap"

# bounds holds closed-form code only: it computes no flow, packing or strength
BOUNDS_IMPORTS = {"__future__", "dataclasses", "fractions", ".errors", ".multigraph"}


def test_no_asserts_and_closed_form_bounds():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        # python -O strips asserts, and every check must still run there
        assert not lines, f"{path.name} has assert statements at lines {lines}"
    imported = set()
    for n in ast.walk(ast.parse((PACKAGE / "bounds.py").read_text(encoding="utf-8"))):
        if isinstance(n, ast.Import):
            imported |= {alias.name for alias in n.names}
        elif isinstance(n, ast.ImportFrom):
            imported.add("." * n.level + (n.module or ""))
    assert imported <= BOUNDS_IMPORTS, f"bounds.py imports {sorted(imported - BOUNDS_IMPORTS)}"


def test_no_private_imports_across_modules():
    # a name with a leading underscore belongs to its own module
    for path in sorted(PACKAGE.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.ImportFrom) and n.level:
                private = [alias.name for alias in n.names if alias.name.startswith("_")]
                assert not private, f"{path.name} imports {private} from .{n.module}"


def _names(module: str) -> set[str]:
    """Every name, attribute and imported name the module's source refers to."""
    out = set()
    for n in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def test_solvers_alone_check_their_results():
    # every solver checks its own certificate, so callers do not check again;
    # analysis keeps verify_packing only for the lifted packing it builds
    assert not _names("cli") & {"verify_packing", "verify_partition"}
    assert "verify_partition" not in _names("analysis")


def test_bound_table_alone_names_the_floors():
    # analysis reads each floor, and the rate it bounds, off bounds.bound_table
    named = sorted(n for n in _names("analysis") if n.startswith(("theorem", "corollary")))
    assert not named, f"analysis names {named}"


def test_every_flow_is_checked():
    # checked_flow is the one caller of the flow kernel, so no flow goes unchecked
    users = [p.stem for p in sorted(PACKAGE.glob("*.py")) if "pair_flow" in _names(p.stem)]
    assert users == ["connectivity"], f"modules referring to pair_flow: {users}"


def test_one_solve_path():
    # analysis alone solves the tree LP, on the reduced core and stopped at
    # the partition bound, for analyze and pack alike; __init__ exports it
    # to library callers
    users = [p.stem for p in sorted(PACKAGE.glob("*.py"))
             if p.stem != "__init__" and "solve_tree_lp" in _names(p.stem)]
    assert users == ["analysis"], f"modules referring to solve_tree_lp: {users}"


def test_reduction_records_have_one_reader():
    # Reduction lifts its own certificates and expands its own packings, so
    # only multigraph reads what reduce_core removed and the core edges its
    # graph's edges stand for
    readers = [p.stem for p in sorted(PACKAGE.glob("*.py")) if {"removed", "bundles"} & _names(p.stem)]
    assert readers == ["multigraph"], f"modules referring to removed or bundles: {readers}"


def test_packing_builds_no_graph():
    # parallel edges are grouped once, by reduce_core: the solvers read the
    # reduced graph and Reduction.expand maps their packings to the core
    assert "Edge" not in _names("packing")


def test_every_exported_function_has_a_caller():
    # an exported function or public method the package never calls is a
    # second path beside the one the program runs; perfbench counts trees
    # and unit edges with the two exceptions
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.name for n in init.body if isinstance(n, ast.ImportFrom) for alias in n.names}
    functions, used = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            # a class counts as its statements, so a method calling its own
            # name is no caller of it
            units = [stmt]
            if isinstance(stmt, ast.FunctionDef) and stmt.name in exported:
                functions.add(stmt.name)
            elif isinstance(stmt, ast.ClassDef):
                units = stmt.body
                if stmt.name in exported:
                    functions |= {m.name for m in units
                                  if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")}
            for unit in units:
                own = {unit.name} if isinstance(unit, (ast.FunctionDef, ast.ClassDef)) else set()
                for n in ast.walk(unit):
                    if isinstance(n, ast.Name) and n.id not in own:
                        used.add(n.id)
                    elif isinstance(n, ast.Attribute) and n.attr not in own:
                        used.add(n.attr)
    uncalled = sorted(functions - used - {"enumerate_steiner_trees", "total_capacity"})
    assert not uncalled, f"exported functions and methods no package code calls: {uncalled}"


def test_no_function_calls_itself():
    # every exact search keeps its path on an explicit stack, so no input's
    # depth runs into the interpreter's recursion limit
    recursive = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == fn.name
                for n in ast.walk(fn)
            ):
                recursive.append(f"{path.name}:{fn.name}")
    assert not recursive, f"functions that call themselves: {recursive}"


def test_every_cli_option_is_tested():
    # an option no test passes is a path no test runs
    tests = [p.read_text(encoding="utf-8") for p in Path(__file__).resolve().parent.glob("test_*.py")]
    build = next(n for n in ast.walk(ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8")))
                 if isinstance(n, ast.FunctionDef) and n.name == "build_parser")
    options = {arg.value for n in ast.walk(build)
               if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "add_argument"
               for arg in n.args if isinstance(arg, ast.Constant) and str(arg.value).startswith("-")}
    untested = sorted(o for o in options if not any(re.search(rf"(?<![\w-]){o}(?![\w-])", t) for t in tests))
    assert not untested, f"CLI options no test passes: {untested}"


def test_main_alone_sets_the_exit_code():
    # each command prints its result or raises; main turns an error into
    # its exit code and its stderr line
    returning, writing = [], []
    for stmt in ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8")).body:
        name = getattr(stmt, "name", f"line {stmt.lineno}")
        nodes = list(ast.walk(stmt))
        if name.startswith("_cmd_") and any(isinstance(n, ast.Return) and n.value is not None for n in nodes):
            returning.append(name)
        if any(isinstance(n, ast.Attribute) and n.attr == "stderr" for n in nodes):
            writing.append(name)
    assert not returning, f"commands that return a value: {returning}"
    assert writing == ["main"], f"cli code that writes to stderr: {writing}"
