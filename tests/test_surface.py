"""No public name in `src/crlhkit` lives only for the tests.

Each public top-level function, class and constant must be loaded by some
module of the package outside its own definition, named in the README's
library example, or named in `perfbench/tracing.TARGETS`, which looks its
functions up by name. The scan reads the sources with `ast`; it imports
nothing.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crlhkit"


def parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def modules() -> dict[str, ast.Module]:
    """Each module of the package by its name; the package itself is `__init__`."""
    return {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}


def defined_names(stmt: ast.stmt) -> list[str]:
    """Public names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def module_aliases(tree: ast.Module, package: set[str]) -> dict[str, str]:
    """Names that a module binds to sibling modules with `from . import m`."""
    aliases = {}
    for sub in ast.walk(tree):
        if isinstance(sub, ast.ImportFrom) and sub.level == 1 and sub.module is None:
            for alias in sub.names:
                if alias.name in package:
                    aliases[alias.asname or alias.name] = alias.name
    return aliases


def loaded_names(node: ast.AST, module: str, aliases: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) of each package-level name that node reads.

    A bare name counts for the module it is read in, a relative
    `from .m import name` for module m, and `m.name` for module m when m
    is one of the module's aliases.
    """
    loads = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            loads.add((module, sub.id))
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            if sub.value.id in aliases:
                loads.add((aliases[sub.value.id], sub.attr))
        elif isinstance(sub, ast.ImportFrom) and sub.level == 1:
            source = sub.module or "__init__"
            loads.update((source, alias.name) for alias in sub.names)
    return loads


def readme_names() -> set[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    names = set()
    for sub in ast.walk(ast.parse(block)):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def traced_names() -> set[tuple[str, str]]:
    for stmt in parse(ROOT / "perfbench" / "tracing.py").body:
        if isinstance(stmt, ast.Assign) and [t.id for t in stmt.targets] == ["TARGETS"]:
            return {
                (module.removeprefix("crlhkit."), name)
                for module, name, _ in ast.literal_eval(stmt.value)
            }
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def unused_public_names() -> list[str]:
    """`module.name` of every public name that none of the three checks keeps."""
    trees = modules()
    statements = []  # (module, statement, what the statement loads)
    for module, tree in trees.items():
        aliases = module_aliases(tree, set(trees))
        statements += [(module, stmt, loaded_names(stmt, module, aliases)) for stmt in tree.body]
    readme = readme_names()
    traced = traced_names()
    unused = []
    for module, stmt, _ in statements:
        for name in defined_names(stmt):
            used = (module, name) in traced or name in readme or any(
                (module, name) in loads for _, other, loads in statements if other is not stmt
            )
            if not used:
                unused.append(f"{module}.{name}")
    return unused


def test_the_scan_sees_the_package():
    public = {
        f"{module}.{name}"
        for module, tree in modules().items()
        for stmt in tree.body
        for name in defined_names(stmt)
    }
    assert {"bloch.dispersion_sweep", "cli.main", "idc.IdcLumpedModel", "geometry.C0"} <= public


def test_every_public_name_has_a_user_outside_the_tests():
    assert unused_public_names() == []
