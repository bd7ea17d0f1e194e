"""Dead-code guards on src/ccg.

Every public module-level function or class has a caller in the package or
the benchmark, not only in tests.

A name counts as used when another src/ccg module (not __init__), its own
module outside its own definition, or a bench/*.py script refers to it by a
bare name, an attribute or an import. Strings and comments do not count.
Names are matched without their module, so a use of one module's name
covers another module's function of the same name.

Every name a module imports is used in that module; the re-exports of
__init__ are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Public with no caller outside tests, on purpose:
ALLOWED = set()


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def references(tree, skip=None):
    """Names the tree refers to, leaving out the subtree `skip`."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return out


def public_defs(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def unused_public_names(root=ROOT):
    """module.name of each public def or class under root/src/ccg that
    nothing outside tests refers to."""
    modules = {p.stem: parse(p)
               for p in sorted((root / "src" / "ccg").glob("*.py"))
               if p.stem != "__init__"}
    outside = set()
    for path in sorted((root / "bench").glob("*.py")):
        outside |= references(parse(path))
    unused = []
    for name, tree in modules.items():
        others = set(outside)
        for other, other_tree in modules.items():
            if other != name:
                others |= references(other_tree)
        for node in public_defs(tree):
            if (node.name not in others
                    and node.name not in references(tree, skip=node)):
                unused.append(f"{name}.{node.name}")
    return unused


def test_every_public_name_has_a_caller():
    unused = [n for n in unused_public_names()
              if n.split(".")[1] not in ALLOWED]
    assert unused == [], f"public names only tests use: {unused}"


def test_allowlist_names_exist_and_have_no_caller():
    assert {n.split(".")[1] for n in unused_public_names()} == ALLOWED


@pytest.mark.parametrize("source,expected", [
    ("def f():\n    return f()\n", ["m.f"]),           # recursion only
    ("def f():\n    pass\nx = 'f'  # f\n", ["m.f"]),  # string and comment
    ("def f():\n    pass\ny = f\n", []),
    ("class C:\n    pass\n\ndef _g():\n    return C\n", []),
])
def test_guard_counts_only_code_references(tmp_path, source, expected):
    pkg = tmp_path / "src" / "ccg"
    pkg.mkdir(parents=True)
    (pkg / "m.py").write_text(source)
    # a use in __init__ does not count
    (pkg / "__init__.py").write_text("from .m import f\nf\n")
    (tmp_path / "bench").mkdir()
    assert unused_public_names(tmp_path) == expected


def unused_imports(tree):
    """Names the module imports but never refers to as a bare name."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_import_is_used():
    unused = [f"{p.stem}.{name}"
              for p in sorted((ROOT / "src" / "ccg").glob("*.py"))
              if p.stem != "__init__"
              for name in unused_imports(parse(p))]
    assert unused == [], f"imported but never used: {unused}"


@pytest.mark.parametrize("source,expected", [
    ("import os\nimport numpy as np\nnp.zeros(1)\n", ["os"]),
    ("from __future__ import annotations\nfrom m import a, b as c\n"
     "x: a = 1\n", ["c"]),
    ("import os.path\nos.path.join('a')\n", []),
    ("from m import f\ny = 'f'  # f\n", ["f"]),
])
def test_import_guard_counts_only_code_references(source, expected):
    assert unused_imports(ast.parse(source)) == expected
