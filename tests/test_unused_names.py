"""Every module-level import and logger in the package is used, every private
helper, and every command-line flag.

No linter ships with the project, so this scan stands in for one: a name
bound at module level by an ``import`` (``__future__`` aside) or by
``logging.getLogger(...)`` must be read somewhere in its module, a
module-level ``def`` or ``class`` whose name starts with ``_`` must be read
by some package module outside its own definition, no package module imports
another's private name, and each value a command accepts must be read by the
code that runs that command.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from taxotext import cli

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "taxotext"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_get_logger(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "getLogger"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "logging"
    )


def _bound_names(tree: ast.Module) -> list[str]:
    """Names bound at module level by an import or a getLogger call."""
    names = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in stmt.names]
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            names += [a.asname or a.name for a in stmt.names]
        elif isinstance(stmt, ast.Assign) and _is_get_logger(stmt.value):
            names += [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    return names


def _loaded_names(tree: ast.Module) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_level_imports_and_loggers_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    loaded = _loaded_names(tree)
    unused = [name for name in _bound_names(tree) if name not in loaded]
    assert not unused, f"{path.stem} binds names it never reads: {', '.join(unused)}"


def _read_names(node: ast.AST) -> set[str]:
    """Names read under node: loaded names, attribute names and names imported from a module."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(a.name for a in sub.names)
    return names


def test_module_level_private_helpers_are_read():
    trees = {
        p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
        for p in sorted(PACKAGE.glob("*.py"))
    }
    # the names each top-level statement reads, so a definition reading itself does not count
    reads = [(stmt, _read_names(stmt)) for tree in trees.values() for stmt in tree.body]
    dead = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, DEFINITIONS) or not stmt.name.startswith("_"):
                continue
            if stmt.name.startswith("__") and stmt.name.endswith("__"):
                continue
            if not any(stmt.name in names for other, names in reads if other is not stmt):
                dead.append(f"{module}.{stmt.name}")
    assert not dead, f"private helpers nothing reads: {', '.join(dead)}"


def test_no_module_imports_another_modules_private_name():
    # a name that two modules share is public: one owns it, under a public name
    borrowed = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not node.level:
                continue
            borrowed += [
                f"{path.stem} <- {node.module or '.'}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.endswith("__")
            ]
    assert not borrowed, f"private names imported from another module: {', '.join(borrowed)}"


def test_the_scan_sees_every_module():
    assert len(MODULES) > 10


def _args_attrs(function: ast.FunctionDef) -> set[str]:
    """The attributes read off ``args`` in a function."""
    return {
        node.attr
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }


def _passed_args(function: ast.FunctionDef, functions: dict[str, ast.FunctionDef]) -> list:
    """The module-level functions that function calls with ``args`` as an argument."""
    return [
        functions[call.func.id]
        for call in ast.walk(function)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id in functions
        and any(isinstance(a, ast.Name) and a.id == "args" for a in call.args)
    ]


def test_every_value_a_command_accepts_is_read():
    # a command accepts the top-level options and its own; `main` reads some
    # for every command, its handler and the helpers it hands `args` to the rest
    path = PACKAGE / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    functions = {stmt.name: stmt for stmt in tree.body if isinstance(stmt, ast.FunctionDef)}
    unread = []
    for command, (handler, _, _) in cli._COMMANDS.items():
        own = functions[handler.__name__]
        read = set().union(
            *map(_args_attrs, [functions["main"], own, *_passed_args(own, functions)])
        )
        accepted = vars(cli.build_parser().parse_args([command]))
        unread += [f"{command} {dest}" for dest in accepted if dest not in read]
    assert not unread, f"accepted but never read: {', '.join(unread)}"
