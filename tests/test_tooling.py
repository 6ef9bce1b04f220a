"""Repository rules that are checked by reading the source, not running it."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gallai"


def absolute_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "kernels.py" in sources
    foreign = [
        f"{path.name}:{lineno}: {name}"
        for path in sources
        for lineno, name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert not foreign, foreign


def process_global_calls(path: Path):
    # sys.set*(...) and module-level random.*(...) other than random.Random;
    # `from sys import ...` / `from random import ...` would hide them
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            name = node.func.attr
            if isinstance(owner, ast.Name) and (
                (owner.id == "sys" and name.startswith("set"))
                or (owner.id == "random" and name != "Random")
            ):
                yield node.lineno, f"{owner.id}.{name}"
        elif isinstance(node, ast.ImportFrom) and node.module in ("sys", "random"):
            yield node.lineno, f"from {node.module} import ..."


def test_library_leaves_process_global_state_alone():
    # library calls must not change interpreter-wide settings or the
    # shared random stream; seeded randomness goes through random.Random
    found = [
        f"{path.name}:{lineno}: {call}"
        for path in sorted(PACKAGE.glob("*.py"))
        for lineno, call in process_global_calls(path)
    ]
    assert not found, found
