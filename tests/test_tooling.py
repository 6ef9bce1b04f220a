"""Repository rules that are checked by reading the source, not running it."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import gallai

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


def test_no_module_imports_dataclasses():
    # records derive from errors._Record: the dataclass decorator would
    # exec generated methods at every import and pull in inspect and ast
    found = [
        f"{path.name}:{lineno}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for lineno, name in absolute_imports(path)
        if name.split(".")[0] == "dataclasses"
    ]
    assert not found, found


def test_importing_the_cli_loads_no_code_introspection():
    # every command pays for what the import loads
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import gallai.cli\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    loaded = set(ast.literal_eval(out.stdout))
    assert "gallai.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


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


def import_time_unions(source: str):
    # Union[...] and Optional[...] evaluated at import: outside a function
    # body and, under `from __future__ import annotations`, outside an
    # annotation
    tree = ast.parse(source)
    lazy = any(
        isinstance(node, ast.ImportFrom)
        and node.module == "__future__"
        and any(alias.name == "annotations" for alias in node.names)
        for node in tree.body
    )
    todo: list = [tree]
    while todo:
        node = todo.pop()
        if node is None:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo += node.args.defaults + node.args.kw_defaults
            todo += getattr(node, "decorator_list", [])
            if not lazy:
                args = ast.walk(node.args)
                todo += [arg.annotation for arg in args if isinstance(arg, ast.arg)]
                todo.append(getattr(node, "returns", None))
            continue
        if lazy and isinstance(node, ast.AnnAssign):
            todo += [node.target, node.value]
            continue
        if isinstance(node, ast.Subscript):
            name = node.value
            name = name.attr if isinstance(name, ast.Attribute) else getattr(name, "id", "")
            if name in ("Union", "Optional"):
                yield node.lineno, ast.unparse(node)
        todo += ast.iter_child_nodes(node)


def test_no_typing_union_is_evaluated_at_import():
    # typing caches each Union[...] for the life of the process, and
    # through its members' globals the module that built it: write X | Y
    found = [
        f"{path.name}:{lineno}: {expr}"
        for path in sorted(PACKAGE.glob("*.py"))
        for lineno, expr in import_time_unions(path.read_text(encoding="utf-8"))
    ]
    assert not found, found
    body = (
        "X = typing.Union[int, str]\n"
        "class C:\n"
        "    y: Optional[int] = None\n"
        "    z = Optional[int]\n"
        "def f(a: Optional[int] = Optional[int]) -> Union[int, str]:\n"
        "    return Union[int, str]\n"
    )
    assert sorted(no for no, _ in import_time_unions(body)) == [1, 3, 4, 5, 5, 5]
    lazy = "from __future__ import annotations\n" + body
    assert sorted(no for no, _ in import_time_unions(lazy)) == [2, 5, 6]


def test_reimporting_the_package_frees_the_old_copy():
    # the benchmark re-imports the package to time set-up; nothing in
    # another module's caches may keep the previous import alive
    probe = (
        "import gc, sys, weakref\n"
        "import gallai, gallai.cli\n"
        "from gallai import coloring, structure, trace\n"
        "refs = [weakref.ref(coloring.EdgeColoring),\n"
        "        weakref.ref(structure.GallaiPartition),\n"
        "        weakref.ref(trace.BaseTrace)]\n"
        "del gallai, coloring, structure, trace\n"
        "for name in [m for m in sys.modules if m.split('.')[0] == 'gallai']:\n"
        "    del sys.modules[name]\n"
        "gc.collect()\n"
        "import gallai, gallai.cli\n"
        "print([ref() is None for ref in refs])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[True, True, True]"


def module_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield node.lineno, target.id


def used_names(tree: ast.Module):
    # a load, an attribute, a from-import or an __all__ entry
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            yield from (elt.value for elt in node.value.elts)


def test_every_module_level_name_is_used():
    # a helper left behind by a refactor fails here
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    used = {name for tree in trees.values() for name in used_names(tree)}
    dead = [
        f"{file}:{lineno}: {name}"
        for file, tree in trees.items()
        for lineno, name in module_level_names(tree)
        if name not in used and not name.startswith("__")
    ]
    assert not dead, dead


def class_slots(tree: ast.Module, cls: str) -> set[str]:
    [body] = [
        node.body
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == cls
    ]
    [slots] = [
        ast.literal_eval(stmt.value)
        for stmt in body
        if isinstance(stmt, ast.Assign) and ast.unparse(stmt.targets[0]) == "__slots__"
    ]
    return set(slots)


def referenced_names(node: ast.AST):
    # an attribute, a bare name or a from-imported name
    if isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.ImportFrom):
        yield from (alias.name for alias in node.names)


def test_only_coloring_reads_edge_coloring_private_slots():
    # the colour store's type is coloring.py's choice, and the rows and the
    # digest are filled on first use by its accessors; a direct read
    # elsewhere could see another type or an empty cache.  The helpers that
    # fill a coloring without the colour checks (and __new__, which would
    # skip them too) are coloring.py's alone, so only its operators build a
    # coloring that is not checked
    tree = ast.parse((PACKAGE / "coloring.py").read_text(encoding="utf-8"))
    slots = {s for s in class_slots(tree, "EdgeColoring") if s.startswith("_")}
    assert {"_colors", "_masks", "_digest", "_proof"} <= slots
    builders = {"_unchecked", "_fill"}
    assert builders <= {name for _, name in module_level_names(tree)}
    private = slots | builders | {"__new__"}
    found = [
        f"{path.name}:{node.lineno}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "coloring.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in referenced_names(node)
        if name in private
    ]
    assert not found, found


def test_gallai_proof_runs_in_one_helper():
    # find_rainbow_triangle and find_gallai_partition share one proof per
    # coloring, kept on it; a second call site would prove it again
    kernels = {"gallai_split", "rainbow_free"}
    found = []
    for name in ("detect.py", "structure.py"):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        helpers = [
            fn
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "_gallai_proof"
        ]
        inside = {id(node) for fn in helpers for node in ast.walk(fn)}
        if name == "detect.py":
            (helper,) = helpers
            assert kernels <= {
                ref for node in ast.walk(helper) for ref in referenced_names(node)
            }
        found += [
            f"{name}:{node.lineno}: {ref}"
            for node in ast.walk(tree)
            if id(node) not in inside and not isinstance(node, ast.ImportFrom)
            for ref in referenced_names(node)
            if ref in kernels
        ]
    assert not found, found


def test_only_the_record_base_stores_fields_past_setattr():
    # errors._Record.__init__ stores every record's fields; the one other
    # store is formats._loaded's, of a provenance json.loads built without
    # a NaN, which reads back unchanged without the constructor's check
    found, stores = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(node)
            for fn in tree.body
            if path.name == "errors.py"
            or (path.name == "formats.py" and getattr(fn, "name", "") == "_loaded")
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            ):
                stores += 1
                if id(node) not in allowed:
                    found.append(f"{path.name}:{node.lineno}")
    assert stores >= 2
    assert not found, found


def partial_coloring_writes(tree: ast.Module, state: set[str]):
    # assignments through x.colors, x.masks[c] or x.masks[c][u], method
    # calls on them, and names bound to them (which could be written later)
    def reaches(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Attribute) and node.attr in state

    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            targets = [node.func.value]
        else:
            continue
        if any(map(reaches, targets)) or (
            isinstance(node, ast.Assign) and reaches(node.value)
        ):
            yield node.lineno


def test_only_search_writes_partial_coloring_state():
    # search_witness writes its moves straight into a PartialColoring's
    # lists, unchecked, and the class has no edit API; no other module
    # writes them, so the unchecked bookkeeping stays in search.py.  The
    # rainbow rule lives in the search's domains, so the state keeps no
    # any-color adjacency
    tree = ast.parse((PACKAGE / "search.py").read_text(encoding="utf-8"))
    state = {"colors", "masks"}
    slots = class_slots(tree, "PartialColoring")
    assert state <= slots and not slots & {"assigned", "_rainbow"}
    assert list(partial_coloring_writes(tree, state))
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "search.py"
        for lineno in partial_coloring_writes(
            ast.parse(path.read_text(encoding="utf-8")), state
        )
    ]
    assert not found, found


def test_search_kernels_run_only_inside_conflict():
    # the benchmark and the tests count probes by wrapping
    # PartialColoring.conflict on the class; a kernel run from anywhere
    # else in search.py would be a probe that no counter sees.  The
    # per-color checks are built in __init__ and read only by conflict,
    # which checks patterns only: one statement over masks and _through,
    # with no rainbow kernel left for the search to call
    tree = ast.parse((PACKAGE / "search.py").read_text(encoding="utf-8"))
    [cls] = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "PartialColoring"
    ]
    methods = {fn.name: fn for fn in cls.body if isinstance(fn, ast.FunctionDef)}

    def uses(node, name):
        return {
            sub.lineno
            for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and sub.id == name
            or isinstance(sub, ast.Attribute) and sub.attr == name
        }

    for name in ("search.py", "kernels.py"):
        source = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        assert not uses(source, "rainbow_thirds"), name
    conflict = methods["conflict"]
    assert len(conflict.body) == 2 and isinstance(conflict.body[1], ast.Return)
    reads = {
        sub.attr
        for sub in ast.walk(conflict)
        if isinstance(sub, ast.Attribute)
        and isinstance(sub.value, ast.Name)
        and sub.value.id == "self"
    }
    assert reads == {"masks", "_through"}
    checks = uses(methods["conflict"], "_through")
    built = uses(methods["__init__"], "_through")
    assert checks and built and uses(tree, "_through") == checks | built
    kernels = uses(methods["__init__"], "through_check")
    assert kernels and uses(tree, "through_check") == kernels


def test_search_keeps_one_edge_order():
    # PartialColoring stores each colour at the step that assigns its edge;
    # the row-major order of EdgeColoring enters only through the witness,
    # so edge_index, its map, is neither imported nor called in search.py
    tree = ast.parse((PACKAGE / "search.py").read_text(encoding="utf-8"))
    found = [
        f"search.py:{node.lineno}"
        for node in ast.walk(tree)
        if "edge_index" in referenced_names(node)
    ]
    assert not found, found


def test_only_patterns_and_kernels_read_pattern_kind():
    # patterns.py says what a kind is, kernels.py which kernel finds it;
    # a branch on the kind anywhere else is a second, parallel choice
    found = [
        f"{path.name}:{node.lineno}: .kind"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in ("patterns.py", "kernels.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "kind"
    ]
    assert not found, found


def test_hot_kernels_walk_masks_inline():
    # the 4-cycle scan runs once per hub of every W4 scan and the checks
    # once per search probe; the bits generator would cost a frame per mask
    hot = {"cycle4_within", "path3_through", "cycle4_through", "wheel4_through"}
    tree = ast.parse((PACKAGE / "kernels.py").read_text(encoding="utf-8"))
    kernels = [
        fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name in hot
    ]
    assert {fn.name for fn in kernels} == hot
    found = [
        f"{fn.name}:{node.lineno}: bits()"
        for fn in kernels
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "bits"
    ]
    assert not found, found


def test_cli_writes_json_in_one_place():
    # every JSON text the CLI prints or writes comes from formats._json_text,
    # as do JSON documents, so the indent, key order and final newline are
    # chosen once
    def dumps_calls(tree, indented):
        return [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "dumps"
            and (not indented or any(kw.arg == "indent" for kw in node.keywords))
        ]

    cli_tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert dumps_calls(cli_tree, False) == []
    tree = ast.parse((PACKAGE / "formats.py").read_text(encoding="utf-8"))
    (writer,) = [
        fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "_json_text"
    ]
    assert len(dumps_calls(tree, True)) == 1
    assert dumps_calls(tree, True) == dumps_calls(writer, True)


def test_files_are_written_in_one_place():
    # formats._write_text opens every file the package writes, so each is
    # ASCII with "\n" line ends; Path.write_text would translate them
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id == "open"
            or isinstance(node.func, ast.Attribute)
            and node.func.attr in ("write_text", "write_bytes", "open")
        )
    ]
    tree = ast.parse((PACKAGE / "formats.py").read_text(encoding="utf-8"))
    (writer,) = [
        fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "_write_text"
    ]
    (opened,) = [
        node.lineno
        for node in ast.walk(writer)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "open"
    ]
    assert found == [f"formats.py:{opened}"], found


def library_modules():
    # the modules whose __all__ the package re-exports
    skip = {"__init__", "cli", "kernels"}
    names = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in skip)
    return [importlib.import_module(f"gallai.{name}") for name in names]


def test_benchmark_wraps_only_names_that_exist():
    # the benchmark's traced passes swap each (module, attribute) of
    # bench/tracing.py's WRAPPED for a counting wrapper; a renamed function
    # fails here by name, not inside the benchmark's smoke run
    path = PACKAGE.parents[1] / "bench" / "tracing.py"
    [wrapped] = [
        ast.literal_eval(node.value)
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["WRAPPED"]
    ]
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in wrapped
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert wrapped and not missing, missing
    assert hasattr(importlib.import_module("gallai.search").PartialColoring, "conflict")


def test_package_exports_each_module_all_once():
    # a module's __all__ is the single declaration of its public names
    modules = library_modules()
    assert len(modules) == 9
    owner = {}
    for module in modules:
        assert isinstance(module.__all__, list), module.__name__
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
            owner[name] = module
    assert len(gallai.__all__) == len(set(gallai.__all__))
    assert set(gallai.__all__) == set(owner) | {"__version__"}
    for name, module in owner.items():
        assert getattr(gallai, name) is getattr(module, name), name


def test_sources_parse_as_the_oldest_supported_python():
    # pyproject.toml's requires-python; newer syntax would only fail there
    text = (PACKAGE.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=3.10"' in text
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(
            path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10)
        )
