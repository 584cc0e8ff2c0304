"""What ``import sasakian.cli``, a ``classify`` and a ``verify`` run load, checked in a fresh interpreter.

Every submodule is registered in ``sys.modules`` on import, which is what a
tool that wraps the package's functions from outside looks them up in
(``benchmarks/tracing.py``), while ``classify`` loads neither numpy, nor any
module of the verify stack, nor ``dataclasses``, nor the ``json`` package.  A
verify run in the same process then loads the rest, still without
``dataclasses``, whose class creation every process would pay, or ``json``,
whose module bodies compile regexes, and writes the same report as a run on
its own.  Nor does a verify load ``numpy.ma``, whose import ``np.median``
would add to every run; numpy is imported before the verify because numpy
1.24 loads ``numpy.ma`` with itself and numpy 2 does not.  A second verify,
of a cylinder, adds the circle decomposition and the flow-cylinder
statistics to what is checked.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
VERIFY = ["verify", "minus4-1", "--grid", "3", "--format", "json", "--out"]
CYLINDER = ["verify", "cylinder-c1", "--grid", "3", "--format", "json", "--out"]

# argv[1], argv[2] and argv[3] are the output files of the classify and the two verify runs
# json is imported only after both runs, to print what they loaded
RUNNER = r"""
import sys
before = set(sys.modules)
import sasakian.cli
registered = sorted(n for n in sys.modules if n == "sasakian" or n.startswith("sasakian."))
classify = sasakian.cli.main(["classify", "--c", "1", "--format", "json", "--out", sys.argv[1]])
loaded = sorted({"numpy", "dataclasses", "json"} & (set(sys.modules) - before))
import numpy
with_numpy = set(sys.modules)
verify = sasakian.cli.main(%r + [sys.argv[2]]) + sasakian.cli.main(%r + [sys.argv[3]])
verify_loaded = sorted(({"dataclasses", "json"} - before | {"numpy.ma"} - with_numpy) & set(sys.modules))
out = {"registered": registered, "classify": classify, "loaded": loaded, "verify": verify, "verify_loaded": verify_loaded}
import json
json.dump(out, sys.stdout)
""" % (VERIFY, CYLINDER)


def test_classify_loads_no_numpy_and_a_later_verify_matches_a_fresh_one(tmp_path):
    together, alone = tmp_path / "together.json", tmp_path / "alone.json"
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(tmp_path / "classify.json"), str(together), str(tmp_path / "cylinder.json")],
        env=ENV,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    run = json.loads(proc.stdout)
    modules = {"sasakian"} | {f"sasakian.{p.stem}" for p in (SRC / "sasakian").glob("*.py") if p.stem != "__init__"}
    assert run["registered"] == sorted(modules)
    assert run["classify"] == 0
    assert run["loaded"] == []
    assert run["verify"] == 0
    assert run["verify_loaded"] == []
    subprocess.run([sys.executable, "-m", "sasakian.cli"] + VERIFY + [str(alone)], env=ENV, check=True, timeout=120)
    assert together.read_bytes() == alone.read_bytes()
