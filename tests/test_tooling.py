"""Source hygiene checks that need no linter: every import in the package is
used, every private function or class has a caller, one module owns the
binary file format, the command line parses its flags before numpy
loads, and its training flags are the fields of ``TrainConfig``."""

from __future__ import annotations

import argparse
import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "urbanet"
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
