"""Source hygiene checks that need no linter: every import in the package is
used, every private function or class has a caller, every public one has
a user outside the tests, each of its parameters with a default is
passed by some call outside the tests and left out by another, README's
library sketch imports only names that exist, one
module owns the binary file format, the command line parses its flags
before numpy loads, its training flags are the fields of ``TrainConfig``,
``eval --split`` offers the names ``SplitAssignment.select`` takes,
README names every other flag, every command of
README's CLI walkthrough parses and reads only config files and
prediction grids that an earlier line wrote, the micro-batch tile counts
README quotes are the ones world prediction runs, nothing in the package
or its commands loads scipy, ``eval`` loads no OpenSSL, and the package
raises no built-in exception but ``KeyError`` and ``OSError``."""

from __future__ import annotations

import argparse
import ast
import builtins
import dataclasses
import importlib
import os
import re
import shlex
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


def builtin_raises(source: str) -> list[tuple[int, str]]:
    """(line, name) of each ``raise`` in ``source`` of a built-in exception
    other than ``KeyError`` and ``OSError``, raised by name or called.  A
    bare ``raise``, ``raise type(err)(...)``, a variable and any class that
    is not a built-in pass."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = getattr(builtins, exc.id, None) if isinstance(exc, ast.Name) else None
            if (isinstance(cls, type) and issubclass(cls, BaseException)
                    and cls not in (KeyError, OSError)):
                found.append((node.lineno, exc.id))
    return found


def test_package_raises_its_own_errors():
    # the command line maps UrbanetError to exit codes 1-3, and OSError to
    # exit 2; KeyError is what grid._Planes.__getitem__ owes the Mapping
    # protocol.  Any other built-in would escape as a traceback.
    sample = (
        "class ShapeError(Exception): pass\n"
        "def f(err, key):\n"
        "    if key is None: raise ValueError('no key')\n"
        "    if err: raise type(err)(f'{key}: {err}') from None\n"
        "    raise KeyError(key)\n"
        "def g():\n"
        "    try: f(None, None)\n"
        "    except ValueError: raise\n"
        "    raise ShapeError\n"
    )
    assert builtin_raises(sample) == [(3, "ValueError")]
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in builtin_raises(path.read_text())]
    assert found == []


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


def run_python(code: str) -> str:
    """stdout of ``code`` run by a new interpreter that imports the package
    from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


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
    assert run_python(code) == "[]"


def imports_of(source: str, packages: tuple[str, ...]) -> list[tuple[int, str]]:
    """(line, module) of each import of one of ``packages`` or a module
    inside one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name.split(".")[0] in packages]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in packages:
            found.append((node.lineno, node.module))
    return sorted(found)


def test_package_imports_no_scipy(tmp_path):
    # numpy is the one runtime dependency: loading scipy.ndimage alone
    # raised a process's peak RSS by about 27 MB
    sample = (
        "import os, scipy\n"
        "from scipy.ndimage import gaussian_filter\n"
        "def f():\n"
        "    import scipy.signal as sig\n"
        "    from . import scipy_like\n"
    )
    assert imports_of(sample, ("scipy",)) == [
        (1, "scipy"), (2, "scipy.ndimage"), (4, "scipy.signal")]
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in imports_of(path.read_text(), ("scipy",))]
    assert found == []
    code = (
        "import sys\n"
        "import urbanet.cli, urbanet.synth, urbanet.trainer, urbanet.evaluate\n"
        f"argv = ['synth', '--out', {str(tmp_path / 'world.wgrd')!r}, '--height', '24',"
        " '--width', '24']\n"
        "assert urbanet.cli.main(argv) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert run_python(code) == "[]"


def test_eval_loads_no_openssl(tmp_path):
    # hashlib's _hashlib loads libcrypto, about 3.6 MB of RSS, and secrets
    # imports hashlib.  The world is written here, since gen_world loads
    # numpy.random, which imports secrets
    from urbanet.grid import save_grid
    from urbanet.synth import SynthConfig, gen_world
    from urbanet.unet import UNetSpec, init_params, save_params

    save_grid(gen_world(SynthConfig(seed=0, height=20, width=20)), tmp_path / "w.wgrd")
    save_params(init_params(UNetSpec(input_channels=9, base_features=4, depth=1), seed=0),
                tmp_path / "m.unpk")
    argv = ["eval", "--grid", str(tmp_path / "w.wgrd"), "--checkpoint",
            str(tmp_path / "m.unpk"), "--window", "16", "--pad", "8", "--split", "all",
            "--test-regions", "R01", "--report", str(tmp_path / "r.csv")]
    code = (
        "import sys\n"
        "from urbanet.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(sorted(m for m in ('_hashlib', 'hashlib', 'secrets') if m in sys.modules))\n"
    )
    assert run_python(code) == "[]"
    assert (tmp_path / "r.csv").exists()


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


def eval_split_choices(parser: argparse.ArgumentParser):
    """The ``choices`` of the ``--split`` flag of ``parser``'s ``eval``."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices["eval"]._actions if a.dest == "split")


def test_eval_split_choices_are_the_select_scopes():
    # the parser is built before numpy loads, so it spells the names out
    # instead of reading them from SplitAssignment
    import numpy as np

    from urbanet import cli
    from urbanet.grid import SplitAssignment

    sample = cli._Parser(prog="urbanet")
    sub = sample.add_subparsers(parser_class=cli._Parser)
    p = sub.add_parser("eval")
    p.add_argument("--splits")
    p.add_argument("--split", choices=("test", "all"))
    assert eval_split_choices(sample) == ("test", "all")
    choices = eval_split_choices(cli.build_parser())
    assert choices == SplitAssignment.SCOPES
    split = SplitAssignment(labels=np.ones((1, 1), np.uint8))
    assert [split.select(scope).tolist() for scope in choices] == [[[True]], [[False]], [[True]]]


def undocumented_flags(parser: argparse.ArgumentParser, readme: str,
                       fields: tuple[str, ...]) -> list[str]:
    """``urbanet [command] flag`` for each optional flag of ``parser`` or of
    one of its subcommands that ``readme`` never names as that exact token
    (``--out-dir`` does not name ``--out``) and that is not the flag of a
    training option in ``fields``."""
    named = set(re.findall(r"--[A-Za-z0-9][A-Za-z0-9-]*", readme))
    named |= {"--" + field.replace("_", "-") for field in fields}
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    commands = {"urbanet": parser, **{f"urbanet {name}": p for name, p in sub.choices.items()}}
    return [f"{command} {flag}"
            for command, p in commands.items()
            for action in p._actions if not isinstance(action, argparse._HelpAction)
            for flag in action.option_strings if flag not in named]


def test_every_flag_is_documented():
    # a flag that README never names has no user who could know of it:
    # document it, or delete it
    from urbanet import cli

    sample = cli._Parser(prog="urbanet")
    sample.add_argument("--threads")
    sub = sample.add_subparsers(parser_class=cli._Parser)
    p = sub.add_parser("run")
    p.add_argument("--out")
    p.add_argument("--out-dir")
    p.add_argument("--max-epochs")
    p.add_argument("--hidden")
    readme = "Use `--threads`, and --out-dir, or --hidden-flag.\n"
    assert undocumented_flags(sample, readme, ("max_epochs",)) == [
        "urbanet run --out", "urbanet run --hidden"]
    assert undocumented_flags(cli.build_parser(), (ROOT / "README.md").read_text(),
                              cli._TRAIN_OPTIONS) == []


def walkthrough_lines(readme: str) -> list[list[str]]:
    """The words of each command line in the shell block under README's
    "CLI walkthrough" heading, with ``\\`` continuations joined and
    comments dropped."""
    section = readme.split("\n## CLI walkthrough\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("\n```", 1)[0]
    lines = (shlex.split(line, comments=True)
             for line in block.replace("\\\n", " ").splitlines())
    return [words for words in lines if words]


def walkthrough_commands(readme: str) -> list[list[str]]:
    """The arguments of each ``urbanet`` command of the walkthrough, up to
    a ``>`` redirection."""
    return [words[1:words.index(">") if ">" in words else None]
            for words in walkthrough_lines(readme) if words[0] == "urbanet"]


# each flag that reads a file, and the word before the path that writes
# it: a ``>`` redirection for a config file, ``--pred-out`` for the
# predicted planes that ``report --scatter`` reads
INPUT_FLAGS = {"--config": ">", "--phase1-config": ">", "--phase2-config": ">",
               "--pred": "--pred-out"}


def unwritten_inputs(lines: list[list[str]]) -> list[str]:
    """Each file that a line reads through an input flag and no earlier
    line writes through that flag's writer."""
    written, found = set(), []
    for words in lines:
        pairs = list(zip(words, words[1:]))
        for flag, path in pairs:
            if flag in INPUT_FLAGS and (INPUT_FLAGS[flag], path) not in written:
                found.append(f"{shlex.join(words)}: {flag} {path} is not written before")
        written.update((word, path) for word, path in pairs
                       if word in INPUT_FLAGS.values())
    return found


def unparsable_commands(commands: list[list[str]]) -> list[str]:
    """Each command that ``cli.build_parser()`` refuses, with the reason."""
    from urbanet import cli

    found = []
    for argv in commands:
        try:
            cli.build_parser().parse_args(argv)
        except cli._UsageError as err:
            found.append(f"urbanet {shlex.join(argv)}: {err}")
    return found


def test_readme_walkthrough_parses():
    # the walkthrough is the CLI's user guide: a renamed or removed flag
    # must take the README with it
    sample = ("# Title\n\n## CLI walkthrough\n\n"
              "```bash\n"
              "# 1. a comment line\n"
              "urbanet split --grid world.wgrd \\\n"
              "    --test-regions R02,R07  # a trailing comment\n"
              "urbanet train --grid world.wgrd --no-such-flag 3\n"
              "```\n")
    commands = walkthrough_commands(sample)
    assert commands == [["split", "--grid", "world.wgrd", "--test-regions", "R02,R07"],
                        ["train", "--grid", "world.wgrd", "--no-such-flag", "3"]]
    assert unparsable_commands(commands) == [
        "urbanet train --grid world.wgrd --no-such-flag 3: "
        "unrecognized arguments: --no-such-flag 3"]
    commands = walkthrough_commands((ROOT / "README.md").read_text())
    assert commands and unparsable_commands(commands) == []


def test_readme_walkthrough_writes_its_configs():
    # a command that reads a config file or a prediction grid that the
    # walkthrough never wrote stops a reader who runs it line by line
    sample = ("# Title\n\n## CLI walkthrough\n\n"
              "```bash\n"
              "urbanet train --print-config --max-epochs 2 > a.cfg\n"
              "urbanet multitask --phase1-config a.cfg --phase2-config b.cfg\n"
              "urbanet train --print-config --learning-rate 1e-4 > b.cfg\n"
              "urbanet train --config b.cfg\n"
              "urbanet report r.csv --out f.csv --scatter s.svg --pred p.wgrd\n"
              "urbanet eval --report r.csv --pred-out p.wgrd > p.cfg\n"
              "urbanet report r.csv --out f.csv --scatter s.svg --pred p.wgrd\n"
              "urbanet train --config p.wgrd\n"
              "```\n")
    lines = walkthrough_lines(sample)
    assert walkthrough_commands(sample)[0] == ["train", "--print-config", "--max-epochs", "2"]
    assert unwritten_inputs(lines) == [
        "urbanet multitask --phase1-config a.cfg --phase2-config b.cfg: "
        "--phase2-config b.cfg is not written before",
        "urbanet report r.csv --out f.csv --scatter s.svg --pred p.wgrd: "
        "--pred p.wgrd is not written before",
        "urbanet train --config p.wgrd: --config p.wgrd is not written before"]
    lines = walkthrough_lines((ROOT / "README.md").read_text())
    read = {word for words in lines for word in words if word in INPUT_FLAGS}
    assert {"--phase1-config", "--phase2-config", "--pred"} <= read
    assert unwritten_inputs(lines) == []


def quoted_tile_counts(readme: str) -> dict[tuple[str, int], int]:
    """The micro-batch tile counts README's numeric policy quotes, keyed
    (spec, window); empty when it quotes none in its usual sentence."""
    m = re.search(r"(\d+), (\d+) and (\d+) desk tiles at S = (\d+), (\d+) and (\d+), "
                  r"and (\d+), (\d+) and (\d+) full-scale ones", " ".join(readme.split()))
    if m is None:
        return {}
    n = [int(v) for v in m.groups()]
    return {(spec, window): tiles for spec, counts in (("desk", n[:3]), ("full_scale", n[6:]))
            for window, tiles in zip(n[3:6], counts)}


def test_readme_tile_counts_are_the_rule():
    # the counts move whenever the byte budget or the forward's peak does
    from urbanet.unet import UNetSpec, _predict_tiles

    sample = "That is 9, 8 and\n7 desk tiles at S = 16, 22 and 28, and 3, 2 and 1 full-scale ones."
    assert quoted_tile_counts(sample) == {
        ("desk", 16): 9, ("desk", 22): 8, ("desk", 28): 7,
        ("full_scale", 16): 3, ("full_scale", 22): 2, ("full_scale", 28): 1}
    want = {(spec, window): _predict_tiles(getattr(UNetSpec, spec)(), window, 4)
            for spec in ("desk", "full_scale") for window in (16, 22, 28)}
    assert quoted_tile_counts((ROOT / "README.md").read_text()) == want


def binary_format_uses(source: str) -> list[tuple[int, str]]:
    """(line, name) of each import of ``struct`` or ``zlib`` and each
    ``frombuffer`` or ``tobytes`` attribute in ``source``."""
    found = imports_of(source, ("struct", "zlib"))
    found += [(node.lineno, node.attr) for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Attribute) and node.attr in ("frombuffer", "tobytes")]
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
    assert [name for name in unused_public_defs(*package_and_users())
            if name not in _UNUSED_ALLOWED] == []


def parameter_uses(package: dict[str, str], users: dict[str, str]) -> dict[str, tuple[int, int]]:
    """``file:Qualified.name(parameter)`` of each parameter with a default of
    a module-level function, private ones included, or a public method of
    ``package``, mapped to the number of calls in ``package`` or ``users``
    that call its def, and the number of those that pass it.

    Calls match defs by name: ``name(...)`` and ``x.name(...)`` call every
    def called ``name``, and ``Class(...)`` calls ``Class.__init__``.  A
    call passes a parameter by keyword or by position (a method's first
    parameter is its receiver, unless it is a staticmethod); a call with
    ``*`` or ``**`` passes them all.
    """
    calls = {}  # called name -> [(positional count, keywords, splat), ...]
    for source in {**package, **users}.values():
        for call in ast.walk(ast.parse(source)):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                keywords = {k.arg for k in call.keywords}
                splat = None in keywords or any(isinstance(a, ast.Starred) for a in call.args)
                calls.setdefault(name, []).append((len(call.args), keywords, splat))

    uses = {}

    def count(path: str, qualname: str, called: str, node: ast.AST, bound: int) -> None:
        params = [*node.args.posonlyargs, *node.args.args][bound:]
        defaulted = [(i, p.arg) for i, p in enumerate(params)
                     if i >= len(params) - len(node.args.defaults)]
        defaulted += [(None, p.arg) for p, d in zip(node.args.kwonlyargs,
                                                    node.args.kw_defaults) if d is not None]
        sites = calls.get(called, [])
        for i, arg in defaulted:
            passing = sum(splat or arg in keywords or (i is not None and i < positional)
                          for positional, keywords, splat in sites)
            uses[f"{path}:{qualname}({arg})"] = (len(sites), passing)

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path, source in package.items():
        for node in ast.parse(source).body:
            if isinstance(node, functions):
                count(path, node.name, node.name, node, 0)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for method in node.body:
                    if not isinstance(method, functions) or (
                            method.name.startswith("_") and method.name != "__init__"):
                        continue
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in method.decorator_list)
                    called = node.name if method.name == "__init__" else method.name
                    count(path, f"{node.name}.{method.name}", called, method,
                          0 if static else 1)
    return uses


def unpassed_parameters(package: dict[str, str], users: dict[str, str]) -> list[str]:
    """Each parameter with a default that no call passes."""
    return sorted(name for name, (_, passing) in parameter_uses(package, users).items()
                  if passing == 0)


def overridden_defaults(package: dict[str, str], users: dict[str, str]) -> list[str]:
    """Each parameter with a default that every call of its def passes,
    when there is such a call."""
    return sorted(name for name, (sites, passing) in parameter_uses(package, users).items()
                  if 0 < sites == passing)


# (package, users) for the two parameter checks
PARAMETER_SAMPLE = ({
    "a.py": "def f(x, y=1, *, z=2, w=3): pass\n"
            "def g(a=1, b=2): pass\n"
            "def h(a=1): pass\n"
            "def _private(a=1): pass\n"
            "def _overridden(a=1): pass\n"
            "class C:\n"
            "    def __init__(self, n=0, m=0): pass\n"
            "    def run(self, k=1): pass\n"
            "    @staticmethod\n"
            "    def make(k=1): pass\n"
            "    def _helper(self, k=1): pass\n"}, {
    "b.py": "f(0, 5, z=1)\n"
            "f(1, z=3)\n"
            "g(*[])\n"
            "C(1)\n"
            "C().run()\n"
            "C.make(2)\n"
            "_overridden(2)\n"
            "def unchecked(a=1): pass\n"})


def package_and_users() -> tuple[dict[str, str], dict[str, str]]:
    """The sources of ``src/urbanet``, and those of ``benchmarks/*.py`` and
    README's library sketch, which count as uses."""
    package = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    users = {f"benchmarks/{path.name}": path.read_text()
             for path in sorted((ROOT / "benchmarks").glob("*.py"))}
    users["README.md"] = library_sketch((ROOT / "README.md").read_text())
    return package, users


def test_keyword_parameters_have_callers():
    # a default that no caller outside the tests overrides is a setting
    # nobody uses: it goes, or the tests reach their case another way
    assert unpassed_parameters(*PARAMETER_SAMPLE) == [
        "a.py:C.__init__(m)", "a.py:C.run(k)", "a.py:_private(a)", "a.py:f(w)", "a.py:h(a)"]
    assert unpassed_parameters(*package_and_users()) == []


def test_defaults_are_relied_on():
    # a default that every caller outside the tests overrides is a value
    # only the tests use, and so is any branch behind it: the parameter
    # loses its default, and the branch goes
    assert overridden_defaults(*PARAMETER_SAMPLE) == [
        "a.py:C.make(k)", "a.py:_overridden(a)", "a.py:f(z)", "a.py:g(a)", "a.py:g(b)"]
    assert overridden_defaults(*package_and_users()) == []


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
