"""Guard: the library reads three deployment settings from the environment, no more.

Environment variables locate things the deployment hands down (a fault
spec to inject, an event-log file, a process start method); they do not
toggle behaviour.  Every behaviour knob is an explicit argument with a
production default, so there is one serving configuration to test.  This
scan of ``src/repro`` fails the moment a new ``os.environ`` read, or any
write, appears.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SOURCE_ROOT = Path(repro.__file__).parent

DEPLOYMENT_SETTINGS = {
    "REPRO_FAULTS",
    "REPRO_EVENT_LOG",
    "REPRO_CLUSTER_START_METHOD",
}

_WRITE_METHODS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _modules() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), str(path)) for path in sorted(SOURCE_ROOT.rglob("*.py"))}


def _string_constants(modules: dict[Path, ast.Module]) -> dict[str, set[str]]:
    """Module-level ``NAME = "..."`` assignments across the package."""
    constants: dict[str, set[str]] = {}
    for tree in modules.values():
        for statement in tree.body:
            if (
                isinstance(statement, ast.Assign)
                and len(statement.targets) == 1
                and isinstance(statement.targets[0], ast.Name)
                and isinstance(statement.value, ast.Constant)
                and isinstance(statement.value.value, str)
            ):
                constants.setdefault(statement.targets[0].id, set()).add(statement.value.value)
    return constants


def _is_environ(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    ) or (isinstance(node, ast.Name) and node.id == "environ")


def _is_os_function(node: ast.AST, names: set[str]) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr in names
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _scan(modules: dict[Path, ast.Module]):
    """``(reads, writes, unclassified)``: key expressions and where they occur."""
    reads: list[tuple[str, ast.AST]] = []
    writes: list[str] = []
    unclassified: list[str] = []
    for path, tree in modules.items():

        def where(node: ast.AST) -> str:
            return f"{path.relative_to(SOURCE_ROOT)}:{node.lineno}"

        classified: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                function = node.func
                if _is_os_function(function, {"getenv"}) and node.args:
                    reads.append((where(node), node.args[0]))
                elif _is_os_function(function, {"putenv", "unsetenv"}):
                    writes.append(where(node))
                elif isinstance(function, ast.Attribute) and _is_environ(function.value):
                    classified.add(id(function.value))
                    if function.attr == "get" and node.args:
                        reads.append((where(node), node.args[0]))
                    elif function.attr in _WRITE_METHODS:
                        writes.append(where(node))
                    else:
                        unclassified.append(where(node))
            elif isinstance(node, ast.Subscript) and _is_environ(node.value):
                classified.add(id(node.value))
                if isinstance(node.ctx, ast.Load):
                    reads.append((where(node), node.slice))
                else:
                    writes.append(where(node))
            elif isinstance(node, ast.Compare) and any(_is_environ(c) for c in node.comparators):
                classified.update(id(c) for c in node.comparators if _is_environ(c))
                reads.append((where(node), node.left))
        for node in ast.walk(tree):
            if _is_environ(node) and id(node) not in classified:
                # ``dict(os.environ)``, ``env=os.environ`` ... hands the whole
                # environment to something this scan cannot follow.
                unclassified.append(where(node))
    return reads, writes, unclassified


def _resolve(key: ast.AST, constants: dict[str, set[str]]) -> set[str] | None:
    if isinstance(key, ast.Constant) and isinstance(key.value, str):
        return {key.value}
    name = key.id if isinstance(key, ast.Name) else key.attr if isinstance(key, ast.Attribute) else None
    return constants.get(name) if name else None


def test_src_reads_exactly_the_three_deployment_settings():
    modules = _modules()
    constants = _string_constants(modules)
    reads, __, unclassified = _scan(modules)
    names: set[str] = set()
    unresolved = []
    for where, key in reads:
        resolved = _resolve(key, constants)
        if resolved is None:
            unresolved.append(where)
        else:
            names |= resolved
    assert not unresolved, f"environment reads with a key this guard cannot name: {unresolved}"
    assert not unclassified, f"environment uses this guard cannot classify: {unclassified}"
    assert names == DEPLOYMENT_SETTINGS


def test_src_never_writes_the_environment():
    __, writes, __ = _scan(_modules())
    assert not writes, f"src/ must not assign to os.environ: {writes}"


def test_the_scan_sees_reads_writes_and_whole_environment_uses():
    source = (
        "import os\n"
        "FLAG = 'REPRO_NO_THING'\n"
        "a = os.environ.get(FLAG)\n"
        "b = os.getenv('REPRO_X')\n"
        "c = 'REPRO_Y' in os.environ\n"
        "os.environ['REPRO_Z'] = '1'\n"
        "os.environ.setdefault('REPRO_Z', '1')\n"
        "d = dict(os.environ)\n"
    )
    modules = {SOURCE_ROOT / "probe.py": ast.parse(source)}
    reads, writes, unclassified = _scan(modules)
    constants = _string_constants(modules)
    assert set().union(*(_resolve(key, constants) for __, key in reads)) == {
        "REPRO_NO_THING",
        "REPRO_X",
        "REPRO_Y",
    }
    assert len(writes) == 2
    assert len(unclassified) == 1
