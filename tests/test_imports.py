"""Every name the package and the tests import is used, every function,
class, method and slot the package defines is used, and importing the
package loads nothing beyond it.

An import left behind by deleted code hides what a module still depends
on.  ``__future__`` imports and names listed in ``__all__`` count as used.
A definition that only tests reach is code the solve does not need, and
so is a slot that is written on every solve but never read.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "tmatch").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used
    ]


def name_references(node: ast.AST) -> Counter:
    """How often each name is read, as a variable or as an attribute."""
    refs: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
    return refs


def class_slots(node: ast.ClassDef) -> tuple[str, ...]:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
        ):
            return tuple(ast.literal_eval(stmt.value))
    return ()


# Methods through which ``x.attr.method(...)`` writes attr, not reads it.
MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault"}


def attribute_reads(tree: ast.Module, slots: dict[str, tuple[str, ...]]) -> Counter:
    """How often each attribute is read.  Three loads do not count, as
    they only write or move the value: ``x.a.append(...)`` and the other
    mutators, ``x.a[i] = ...``, and ``x.a`` passed straight to the
    constructor of a class with slot ``a``."""
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    reads: Counter = Counter()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        up = parent.get(node)
        if isinstance(up, ast.Attribute) and up.attr in MUTATORS:
            call = parent.get(up)
            if isinstance(call, ast.Call) and call.func is up:
                continue
        if isinstance(up, ast.Subscript) and isinstance(up.ctx, ast.Store):
            continue
        if isinstance(up, ast.keyword):
            up = parent.get(up)
        if (
            isinstance(up, ast.Call)
            and isinstance(up.func, ast.Name)
            and node.attr in slots.get(up.func.id, ())
        ):
            continue
        reads[node.attr] += 1
    return reads


def test_no_dead_definitions():
    # The benchmark harness counts as a caller.
    package = sorted((ROOT / "src" / "tmatch").glob("*.py"))
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for path in package + sorted((ROOT / "perfbench").glob("*.py"))
    }
    used = sum((name_references(tree) for tree in trees.values()), Counter())
    slots = {
        node.name: class_slots(node)
        for path in package
        for node in trees[path].body
        if isinstance(node, ast.ClassDef)
    }
    read = sum((attribute_reads(tree, slots) for tree in trees.values()), Counter())
    dead = []
    for path in package:
        defs = []
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append(node)
            if isinstance(node, ast.ClassDef):
                defs += [m for m in node.body if isinstance(m, ast.FunctionDef)]
                dead += [
                    f"{path.relative_to(ROOT)} line {node.lineno}: {node.name}.{slot}"
                    for slot in class_slots(node)
                    if not read[slot]
                ]
        for node in defs:
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            # A definition's references to itself (recursion) do not count.
            if used[node.name] == name_references(node)[node.name]:
                dead.append(f"{path.relative_to(ROOT)} line {node.lineno}: {node.name}")
    assert not dead, "definitions nothing in src/tmatch or perfbench uses:\n" + "\n".join(dead)


def test_no_unused_imports():
    found = []
    for path in SOURCES:
        for entry in unused_imports(ast.parse(path.read_text(), str(path))):
            found.append(f"{path.relative_to(ROOT)} {entry}")
    assert not found, "unused imports:\n" + "\n".join(found)


def modules_loaded_by(statement: str) -> set[str]:
    """Modules a fresh interpreter adds to ``sys.modules`` while it runs
    ``statement``, beyond those it loaded at start."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    return set(run.stdout.split())


def test_import_loads_only_the_package():
    loaded = modules_loaded_by("import tmatch")
    assert "tmatch.pipeline" in loaded
    foreign = sorted(m for m in loaded if m != "__future__" and m.split(".")[0] != "tmatch")
    assert not foreign, f"import tmatch loads {foreign}"


def test_cli_import_skips_oracle_and_generators():
    loaded = modules_loaded_by("import tmatch.cli")
    assert "tmatch.cli" in loaded
    assert not {"tmatch.oracle", "tmatch.generators"} & loaded
