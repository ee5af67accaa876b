"""Source checks that need no linter: every module reads what it imports."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _top_level_imports(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """(bound name, line) of each import at module level, in ``if``/``try`` too."""
    pending: List[ast.stmt] = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body)
            pending.extend(node.orelse)
            pending.extend(getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                pending.extend(handler.body)


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
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
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
