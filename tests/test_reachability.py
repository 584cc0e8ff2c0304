"""Every function under ``src/sasakian`` is entered by some ``sasakian`` command,
and every defaulted parameter of those functions is set by one.

Code that only the tests use belongs in ``tests/oracles.py``; so does a
parameter that only the tests set.  The commands run in a fresh interpreter:
in this one, earlier tests have filled the ``lru_cache`` tables and the cached
parser, so their builders are not entered.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sasakian.report import EXAMPLE_NAMES

SRC = Path(__file__).resolve().parent.parent / "src"
# bound or read by benchmarks/tracing.py
NOT_REACHED = {"jets.Jet.sincos", "jets.Jet.coef"}
# defaulted parameters that no command sets, as "module.qualname(parameter)"
NOT_VARIED: set[str] = set()

# prints the (file, first line) of the code object of every function entered,
# and per defaulted parameter of a function under src/sasakian whether some
# call passed a value that is not the default object.  A function is found by
# its code object in the globals of the module whose code calls it; the
# namedtuple-generated __new__s (file "<string>") are skipped.
RUNNER = r"""
import contextlib, inspect, io, json, os, sys, types
package = os.path.join(sys.argv[1], "sasakian")
entered, params, varied = set(), {}, set()

def defaulted(code, scope):
    if not code.co_filename.startswith(package):
        return ()
    for obj in list(scope.values()):
        # a module holds no code object to match, and reading an attribute of a
        # lazily registered one would run its body here, where no call is seen
        if isinstance(obj, types.ModuleType):
            continue
        for f in [obj] + (list(vars(obj).values()) if isinstance(obj, type) else []):
            f = inspect.unwrap(f) if callable(f) else f
            if getattr(f, "__code__", None) is code:
                sig = inspect.signature(f)
                module = f.__module__.rsplit(".", 1)[-1]
                return tuple((f"{module}.{f.__qualname__}({p.name})", p.name, p.default)
                             for p in sig.parameters.values() if p.default is not p.empty)
    return ()

def hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    entered.add((code.co_filename, code.co_firstlineno))
    if code not in params:
        params[code] = defaulted(code, frame.f_globals)
    if params[code]:
        values = frame.f_locals
        varied.update(key for key, name, default in params[code] if values[name] is not default)

sys.setprofile(hook)
from sasakian.cli import main
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
sys.setprofile(None)
keys = sorted(key for ps in params.values() for key, _, _ in ps)
json.dump({"entered": sorted(entered), "defaulted": keys, "varied": sorted(varied)}, sys.stdout)
"""

COMMANDS = [["verify", n.replace("<kappa1>", "0.5"), "--grid", "3", "--format", "json"] for n in EXAMPLE_NAMES] + [
    ["verify", "corollary-c1", "--grid", "3", "--format", "csv"],
    ["verify", "corollary-c1", "--grid", "3", "--tol", "1e-6"],
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


@pytest.fixture(scope="module")
def run():
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(SRC)],
        input=json.dumps(COMMANDS),
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(proc.stdout)


def test_every_function_is_entered_by_a_command(run):
    entered = {(str(Path(f).resolve()), line) for f, line in run["entered"]}
    missed = {
        name
        for path in sorted((SRC / "sasakian").glob("*.py"))
        for name, line in _defs(ast.parse(path.read_text()), path.stem)
        if (str(path), line) not in entered
    }
    assert sorted(missed - NOT_REACHED) == []


def test_every_defaulted_parameter_is_set_by_a_command(run):
    assert run["defaulted"], "no defaulted parameter was found"
    missing = sorted(set(run["defaulted"]) - set(run["varied"]) - NOT_VARIED)
    assert not missing, "no command sets " + ", ".join(missing)
