"""Every function under ``src/sasakian`` is entered by some ``sasakian`` command.

Code that only the tests use belongs in ``tests/oracles.py``.  The commands
run in a fresh interpreter: in this one, earlier tests have filled the
``lru_cache`` tables and the cached parser, so their builders are not entered.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from sasakian.report import EXAMPLE_NAMES

SRC = Path(__file__).resolve().parent.parent / "src"
# bound or read by benchmarks/tracing.py
NOT_REACHED = {"jets.Jet.sincos", "jets.Jet.coef"}

# prints the (file, first line) of the code object of every function entered
RUNNER = r"""
import contextlib, io, json, sys
entered = set()
sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(
    (frame.f_code.co_filename, frame.f_code.co_firstlineno)))
from sasakian.cli import main
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
sys.setprofile(None)
json.dump(sorted(entered), sys.stdout)
"""

COMMANDS = [["verify", n.replace("<kappa1>", "0.5"), "--grid", "3", "--format", "json"] for n in EXAMPLE_NAMES] + [
    ["verify", "corollary-c1", "--grid", "3", "--format", "csv"],
    ["verify", "legendre-helix:0.5", "--grid", "3", "--format", "text"],
    ["verify", "legendre-helix:1e-9", "--grid", "3", "--format", "json"],
    ["classify", "--c", "1"],
    ["classify", "--c", "2.7", "--format", "json"],
    ["classify", "--c", "-1", "--format", "json"],
    ["classify", "--mode", "minus4", "--format", "csv"],
    ["classify", "--c-sweep", "0.6:1.4:0.4", "--format", "csv"],
]


def _defs(node, prefix: str):
    """(qualified name, first line of its code object) of every def under ``node``."""
    for child in ast.iter_child_nodes(node):
        name = f"{prefix}.{getattr(child, 'name', '')}"
        if isinstance(child, ast.FunctionDef):
            # a decorated function's code object starts at its first decorator
            yield name, min([child.lineno] + [d.lineno for d in child.decorator_list])
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _defs(child, name)


def test_every_function_is_entered_by_a_command():
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER],
        input=json.dumps(COMMANDS),
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    entered = {(str(Path(f).resolve()), line) for f, line in json.loads(proc.stdout)}
    missed = {
        name
        for path in sorted((SRC / "sasakian").glob("*.py"))
        for name, line in _defs(ast.parse(path.read_text()), path.stem)
        if (str(path), line) not in entered
    }
    assert sorted(missed - NOT_REACHED) == []
