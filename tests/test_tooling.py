"""Source hygiene checks that need no linter: every import in the package is
used, and the command line parses its flags before numpy loads."""

from __future__ import annotations

import ast
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
