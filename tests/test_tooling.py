"""Source hygiene checks that need no linter: every import in the package is
used, every private function or class has a caller, every public one has
a user outside the tests, README's library sketch imports only names that
exist, one module owns the binary file format, the command line parses
its flags before numpy loads, and its training flags are the fields of
``TrainConfig``."""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "urbanet"
_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that its scope never reads.

    A scope is the module, a class or a function; an import counts as used
    when the bound name appears anywhere inside the scope that imports it,
    nested scopes included.  ``from __future__`` imports are exempt.
    """
    found = []

    def visit(scope: ast.AST) -> None:
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, _SCOPES):
                visit(node)
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        found.append((node.lineno, bound))
            stack.extend(ast.iter_child_nodes(node))

    visit(ast.parse(source))
    return sorted(found)


def test_no_unused_imports():
    sample = (
        "import os\n"
        "from typing import Mapping, Iterable\n"
        "def f(x: Iterable):\n"
        "    import json\n"
        "    from math import pi\n"
        "    return pi\n"
    )
    assert unused_imports(sample) == [(1, "os"), (2, "Mapping"), (4, "json")]
    unused = [f"{path.name}:{line}: {name}"
              for path in sorted(SRC.glob("*.py"))
              for line, name in unused_imports(path.read_text())]
    assert unused == []


def uncalled_private_defs(sources: dict[str, str]) -> list[str]:
    """``file:name`` of each module-level ``_name`` function or class that no
    other statement of any source references.

    A reference is a name read, an attribute or an imported name; the
    definition's own body (recursion) does not count.
    """
    statements = []  # (file, top-level statement, the names it references)
    for path, source in sources.items():
        for node in ast.parse(source).body:
            refs = set()
            for n in ast.walk(node):
                if isinstance(n, ast.Name):
                    refs.add(n.id)
                elif isinstance(n, ast.Attribute):
                    refs.add(n.attr)
                elif isinstance(n, ast.alias):
                    refs.add(n.name)
            statements.append((path, node, refs))
    found = []
    for path, node, _ in statements:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")):
            if not any(node.name in refs for _, other, refs in statements
                       if other is not node):
                found.append(f"{path}:{node.name}")
    return sorted(found)


def test_private_defs_have_callers():
    sample = {
        "a.py": "def _used(): pass\n"
                "def _recursive(n): return _recursive(n - 1)\n"
                "class _Dead: pass\n"
                "def public(): return _used()\n",
        "b.py": "from a import _imported\n"
                "import a\n"
                "x = a._attribute\n",
        "c.py": "def _imported(): pass\n"
                "def _attribute(): pass\n",
    }
    assert uncalled_private_defs(sample) == ["a.py:_Dead", "a.py:_recursive"]
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert uncalled_private_defs(sources) == []


def test_cli_parses_without_numpy():
    # --threads sets the BLAS thread variables, which only take effect if
    # numpy has not been imported yet when main() reads the flag
    code = (
        "import sys\n"
        "import urbanet\n"
        "import urbanet.cli\n"
        "urbanet.cli.build_parser().parse_args(['--threads', '2', 'split', '--grid', 'g'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_training_flags_are_the_config_fields():
    # the flags carry no type of their own: each value is parsed by the
    # config-file parser, from the dataclass's annotations
    from urbanet import cli
    from urbanet.trainer import TrainConfig

    assert cli._TRAIN_OPTIONS == tuple(f.name for f in dataclasses.fields(TrainConfig))
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {command: [a for a in sub.choices[command]._actions
                       if a.dest in cli._TRAIN_OPTIONS]
             for command in ("train", "multitask")}
    assert tuple(a.dest for a in flags["train"]) == cli._TRAIN_OPTIONS
    assert [a.dest for a in flags["multitask"]] == ["seed"]
    typed = [(command, a.dest) for command, actions in flags.items() for a in actions
             if a.type is not None or a.choices is not None]
    assert typed == []


def binary_format_uses(source: str) -> list[tuple[int, str]]:
    """(line, name) of each import of ``struct`` or ``zlib`` and each
    ``frombuffer`` or ``tobytes`` attribute in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name.split(".")[0] in ("struct", "zlib")]
        elif isinstance(node, ast.ImportFrom) and node.module in ("struct", "zlib"):
            found.append((node.lineno, node.module))
        elif isinstance(node, ast.Attribute) and node.attr in ("frombuffer", "tobytes"):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_one_module_owns_the_binary_format():
    # files.py holds the container that every binary file goes through
    sample = (
        "import struct, os\n"
        "from zlib import crc32\n"
        "def f(np, a):\n"
        "    return np.frombuffer(a.tobytes(), 'u1')\n"
    )
    assert binary_format_uses(sample) == [(1, "struct"), (2, "zlib"),
                                          (4, "frombuffer"), (4, "tobytes")]
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py")) if path.name != "files.py"
             for line, name in binary_format_uses(path.read_text())]
    assert found == []


# public names kept with no use yet, each with its reason
_UNUSED_ALLOWED = {
    "unet.py:UNetSpec.full_scale":
        "the production-size spec, kept for the benchmark's full-scale workloads",
}


def _refs(node: ast.AST) -> set[str]:
    """Names that ``node`` references: names read, attributes, imported
    names, and the dotted parts of string constants such as
    ``"TileDataset.batch"``, which is how the benchmark binds its spans."""
    refs = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute):
            refs.add(n.attr)
        elif isinstance(n, ast.alias):
            refs.add(n.name.split(".")[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            parts = n.value.split(".")
            if all(part.isidentifier() for part in parts):
                refs.update(parts)
    return refs


def unused_public_defs(package: dict[str, str], users: dict[str, str]) -> list[str]:
    """``file:Qualified.name`` of each public function, class, method or
    property of ``package`` that no other statement of ``package`` or
    ``users`` references.  The members of a private class are not public.

    Each module-level statement is one statement, except that a class is
    split into its header and its body statements, so a method used by
    another method of its class counts as used and a class used only by its
    own methods does not.  Names with a leading underscore, dunders
    included, are not checked.
    """
    units = []  # (statement, the names it references)
    defs = []   # (file, qualified name, definition)

    def split(path: str, node: ast.AST, prefix: str | None) -> None:
        public = prefix is not None and not getattr(node, "name", "_").startswith("_")
        if public and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append((path, prefix + node.name, node))
        if isinstance(node, ast.ClassDef):
            header = [*node.decorator_list, *node.bases, *node.keywords]
            units.append((node, set().union(*map(_refs, header))))
            for child in node.body:
                split(path, child, f"{prefix}{node.name}." if public else None)
        else:
            units.append((node, _refs(node)))

    for path, source in {**package, **users}.items():
        for node in ast.parse(source).body:
            split(path, node, "" if path in package else None)
    found = []
    for path, name, node in defs:
        inside = set(map(id, ast.walk(node)))
        if not any(node.name in refs for unit, refs in units if id(unit) not in inside):
            found.append(f"{path}:{name}")
    return sorted(found)


def library_sketch(readme: str) -> str:
    """The Python block under README's "Library sketch" heading."""
    section = readme.split("\n## Library sketch\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_public_defs_have_users():
    # a public name stays in src/ only if the package, the benchmark or
    # README's library sketch uses it; what only tests use lives in tests
    sample = {
        "a.py": "class Used:\n"
                "    def helper(self): return 1\n"
                "    def run(self): return self.helper()\n"
                "    @property\n"
                "    def dead(self): return 0\n"
                "    def __len__(self): return 0\n"
                "class Lonely:\n"
                "    def make(self): return Lonely()\n"
                "def recursive(n): return recursive(n - 1)\n"
                "def orphan(): pass\n"
                "def _private(): pass\n"
                "class _Hidden:\n"
                "    def error(self): pass\n",
        "b.py": "from a import Used\n"
                "BINDINGS = ('a', 'Used.run')\n"
                "x = Used()\n",
    }
    assert unused_public_defs({"a.py": sample["a.py"]}, {"b.py": sample["b.py"]}) == [
        "a.py:Lonely", "a.py:Lonely.make", "a.py:Used.dead", "a.py:orphan",
        "a.py:recursive"]
    package = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    users = {f"benchmarks/{path.name}": path.read_text()
             for path in sorted((ROOT / "benchmarks").glob("*.py"))}
    users["README.md"] = library_sketch((ROOT / "README.md").read_text())
    assert [name for name in unused_public_defs(package, users)
            if name not in _UNUSED_ALLOWED] == []


def missing_imports(source: str) -> list[str]:
    """``module.name`` of each ``from urbanet.X import Y`` in ``source``
    whose module or name does not exist."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("urbanet."):
            try:
                module = importlib.import_module(node.module)
            except ModuleNotFoundError:
                module = None
            found += [f"{node.module}.{a.name}" for a in node.names
                      if not hasattr(module, a.name)]
    return found


def test_library_sketch_is_valid():
    # the sketch counts as a use of what it imports, so it must stay runnable
    sample = ("import numpy as np\n"
              "from urbanet.grid import pad_grid, no_such_name\n"
              "from urbanet.no_such_module import thing\n")
    assert missing_imports(sample) == ["urbanet.grid.no_such_name",
                                       "urbanet.no_such_module.thing"]
    assert missing_imports(library_sketch((ROOT / "README.md").read_text())) == []
