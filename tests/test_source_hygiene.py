"""Source checks that need no linter: every module reads what it imports
and every private (``_``-prefixed) module-level definition, and only the
kept-work module touches the stores of kept work."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
BENCHMARKS = SRC.parent.parent / "benchmarks"


def _top_level_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Module-level statements, those in ``if``/``try`` blocks too."""
    pending: List[ast.stmt] = list(tree.body)
    while pending:
        node = pending.pop()
        yield node
        if isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body)
            pending.extend(node.orelse)
            pending.extend(getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                pending.extend(handler.body)


def _top_level_imports(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """(bound name, line) of each import at module level, in ``if``/``try`` too."""
    for node in _top_level_statements(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _private_definitions(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """(name, line) of each ``_``-prefixed module-level function, class or
    assigned constant (dunders excluded)."""
    for node in _top_level_statements(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_read(tree: ast.Module) -> Set[str]:
    """Every name the module reads, string annotations and ``__all__`` included."""
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                read |= {name.id for name in ast.walk(parsed) if isinstance(name, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read |= {element.value for element in node.value.elts}
    return read


def unused_imports(source: str) -> List[Tuple[str, int]]:
    tree = ast.parse(source)
    read = _names_read(tree)
    return sorted(
        (name, line) for name, line in _top_level_imports(tree) if name not in read
    )


def unread_private_definitions(source: str) -> List[Tuple[str, int]]:
    tree = ast.parse(source)
    read = _names_read(tree)
    return sorted(
        (name, line) for name, line in _private_definitions(tree) if name not in read
    )


def test_every_module_reads_its_imports():
    unused = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for name, line in unused_imports(path.read_text())
    ]
    assert unused == [], "imported but never read:\n" + "\n".join(unused)


def test_the_check_sees_reads_in_string_annotations():
    source = (
        "from __future__ import annotations\n"
        "from typing import List, Optional\n"
        "import os\n"
        "from a import B\n"
        "def f(x: 'Optional[B]') -> List[int]: ...\n"
    )
    assert unused_imports(source) == [("os", 3)]


def test_the_check_sees_imports_inside_if_and_try():
    source = (
        "import sys\n"
        "if sys.version_info >= (3, 11):\n"
        "    import tomllib\n"
        "else:\n"
        "    import json\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    import array\n"
        "print(json)\n"
    )
    assert unused_imports(source) == [("array", 9), ("numpy", 7), ("tomllib", 3)]


def test_the_check_counts_all_and_exempts_future():
    source = (
        "from __future__ import annotations\n"
        "from a import B, C\n"
        "__all__ = ['B']\n"
    )
    assert unused_imports(source) == [("C", 2)]


def test_the_check_binds_dotted_and_aliased_imports():
    source = (
        "import os.path\n"
        "import collections.abc as cabc\n"
        "from typing import Dict as D, List as L\n"
        "x = os.path.join('a', 'b')\n"
        "y: D[str, int] = {}\n"
    )
    assert unused_imports(source) == [("L", 3), ("cabc", 2)]


def test_every_module_reads_its_private_definitions():
    unread = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name, line in unread_private_definitions(path.read_text())
    ]
    assert unread == [], "private but never read by its module:\n" + "\n".join(unread)


def test_the_private_check_sees_functions_classes_and_constants():
    source = (
        "import re\n"
        "_USED_RE = re.compile('a')\n"
        "_UNUSED_RE = re.compile('b')\n"
        "_TABLE: dict = {}\n"
        "__version__ = '1'\n"
        "def _helper(): return _USED_RE\n"
        "def _orphan(): return _Base\n"
        "class _Base: pass\n"
        "class _Lonely(_Base): pass\n"
        "def public(x: '_Hinted') -> None: _helper()\n"
        "if True:\n"
        "    _GATED = 1\n"
        "class _Hinted: pass\n"
    )
    assert unread_private_definitions(source) == [
        ("_GATED", 12),
        ("_Lonely", 9),
        ("_TABLE", 4),
        ("_UNUSED_RE", 3),
        ("_orphan", 7),
    ]


#: The accessors of the stores of kept work, and the classes that define
#: them; only these classes and ``runtime/memo.py`` may call them.
KEPT_STORES = {"kept_states": "Relation", "kept_outputs": "NetworkSimulator"}


def kept_store_calls(source: str) -> List[Tuple[str, int]]:
    """(accessor, line) of each call of a kept-work store accessor outside
    the class that defines it."""
    tree = ast.parse(source)
    calls: List[Tuple[str, int]] = []

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and KEPT_STORES.get(node.func.attr, owner) != owner
        ):
            calls.append((node.func.attr, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "")
    return calls


def test_only_the_kept_work_module_touches_the_stores():
    memo = SRC / "runtime" / "memo.py"
    paths = sorted(SRC.rglob("*.py")) + sorted(BENCHMARKS.glob("*.py"))
    calls = [
        f"{path}:{line}: {name}"
        for path in paths
        if path != memo
        for name, line in kept_store_calls(path.read_text())
    ]
    assert calls == [], "kept-work stores touched outside runtime/memo.py:\n" + "\n".join(
        calls
    )


def test_the_store_check_allows_only_the_defining_class():
    source = (
        "class Relation:\n"
        "    def kept_states(self): return {}\n"
        "    def copy(self): return self.kept_states()\n"
        "class NetworkSimulator:\n"
        "    def drop(self, chunk): chunk.kept_states().clear()\n"
        "def clear(network): network.kept_outputs('pc').clear()\n"
    )
    assert kept_store_calls(source) == [("kept_states", 5), ("kept_outputs", 6)]
