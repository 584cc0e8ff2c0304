"""Diff the output of the ``sasakian`` command line between a base revision and this tree.

Usage: python3 tools/compare_outputs.py BASE_REV

BASE_REV is checked out with ``git worktree`` into a temporary directory,
removed again at the end.  Both trees run the same comparison set, each in
one subprocess that imports that tree's ``src``:

- ``verify`` of every registered example at grids 3 and 5, the Legendre
  helix at kappa1 = 0.5;
- ``verify cylinder-c1 --grid 9`` and ``verify corollary-c1 --grid 15``,
  the README's grids, which run the most geometry blocks of any report
  (21 of 312-313 points and 6 of 562-563), and ``verify cylinder-minus4-2
  --grid 11``, the largest grid (14,641 points) of the cylinder whose radii
  are the most sensitive to how the decomposition reduces its samples;
- the ``verify-dense`` and ``verify-coarse`` items at seed 1 (the latter
  add three seeded Legendre helices, whose components sum several waves);
- the items of both classify workloads at seeds 1 to 3;
- ``classify --c-sweep 0:3:0.01``, the largest JSON output (301 reports),
  ``classify --c-sweep 1e9:1000000000.3:0.1``, whose endpoint hangs on the
  rounding of hi - lo at large |c|, ``classify --c-sweep 1:1.2:0.5``, a
  sweep of one point, ``classify --c 2.3333333333333335``, the
  float nearest 7/3, where the factor coefficient 3b - k = (7 - 3c)/4 nearly
  cancels, ``classify --c 0.9999993484121499``, where the Case II curvature
  kappa1 = (lam^2 - b)/lam cancels, ``classify --c 0.9999999999995``, whose
  second Case II root lam^2 lies 2.5e-13 under b, ``classify --c`` at
  1.0000000000000002 and 0.99999999999, where flat roots cluster at
  omega = -1, and at 2500 and 1e100, where the residual of the expanded
  system passes 1e-10, and ``verify legendre-helix:K --grid 3`` at
  K = 1e-9, 1e-7 and 0.9999999999999, where the Frenet extraction fails
  and the infinite residuals print the token ``Infinity``;

all with ``--format json``.  The classifier's values also reach the csv and
text formats, each with its own rounding, so ``classify --c 1``, ``classify
--mode minus4``, ``classify --c-sweep 0:3:0.5`` and ``verify corollary-c1
--grid 3`` run with ``--format csv`` and ``--format text`` as well.  The
workload items come from this tree's ``benchmarks/workloads.py``.  Every
changed JSON leaf is printed as ``command | path: before -> after``
(output that is not JSON is compared line by line); a leaf that exists on
one side only reads ``<absent>`` on the other, and the summary line counts
the leaves that appear and those that vanish apart from the changed ones, so
a change of shape shows there too.  The raw text is compared as well: a
command whose stdout or stderr differs while all its leaves are equal (a
change of layout, escaping or number spelling alone) is printed as
``command | text differs, leaves equal``.  The exit status is 1 only if an exit code, a check name, a
tolerance or a pass flag differs; changed values or text alone exit 0.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HELIX_KAPPA1 = "0.5"
GRIDS = (3, 5)
LARGE_GRIDS = (("cylinder-c1", 9), ("corollary-c1", 15), ("cylinder-minus4-2", 11))
CLASSIFY_SEEDS = (1, 2, 3)
EXTRA_COMMANDS = (
    ["classify", "--c-sweep", "0:3:0.01"],
    ["classify", "--c-sweep", "1e9:1000000000.3:0.1"],
    ["classify", "--c-sweep", "1:1.2:0.5"],
    ["classify", "--c", "2.3333333333333335"],
    ["classify", "--c", "0.9999993484121499"],
    ["classify", "--c", "0.9999999999995"],
    ["classify", "--c", "1.0000000000000002"],
    ["classify", "--c", "0.99999999999"],
    ["classify", "--c", "2500"],
    ["classify", "--c", "1e100"],
) + tuple(["verify", f"legendre-helix:{k}", "--grid", "3"] for k in ("1e-9", "1e-7", "0.9999999999999"))
# also run with --format csv and --format text
FORMAT_COMMANDS = (
    ["classify", "--c", "1"],
    ["classify", "--mode", "minus4"],
    ["classify", "--c-sweep", "0:3:0.5"],
    ["verify", "corollary-c1", "--grid", "3"],
)

# the value of a leaf on the side where it does not exist
ABSENT = "<absent>"

# run in a fresh interpreter per tree: argv[1] is the tree's src directory,
# stdin the list of argument lists; prints {command: {exit, stdout, stderr}}
RUNNER = r"""
import contextlib, io, json, sys, traceback
sys.path.insert(0, sys.argv[1])
from sasakian.cli import main
results = {}
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as ex:
            code = ex.code
        except Exception:
            traceback.print_exc()
            code = "exception"
    results[" ".join(argv)] = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
json.dump(results, sys.stdout)
"""


def commands() -> list[list[str]]:
    """The comparison set, as argument lists of ``sasakian``."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from sasakian.report import EXAMPLE_NAMES

    spec = importlib.util.spec_from_file_location("workloads", ROOT / "benchmarks" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    names = [n.replace("<kappa1>", HELIX_KAPPA1) for n in EXAMPLE_NAMES]
    out = [["verify", n, "--grid", str(g)] for g in GRIDS for n in names]
    out += [["verify", n, "--grid", str(g)] for n, g in LARGE_GRIDS]
    out += workloads.items("verify-dense", 1) + workloads.items("verify-coarse", 1)
    for seed in CLASSIFY_SEEDS:
        out += workloads.items("classify-reduction", seed) + workloads.items("classify-sweep", seed)
    out = [argv + ["--format", "json"] for argv in out + list(EXTRA_COMMANDS)]
    out += [argv + ["--format", fmt] for fmt in ("csv", "text") for argv in FORMAT_COMMANDS]
    unique = {" ".join(argv): argv for argv in out}
    return list(unique.values())


def run_tree(tree: Path, argvs: list[list[str]]) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(tree / "src")],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        cwd=tree,
        check=True,
    )
    return json.loads(proc.stdout)


def _leaves(value, path=""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            # a check is named by its name, not its position
            label = item["name"] if isinstance(item, dict) and "name" in item else i
            yield from _leaves(item, f"{path}[{label}]")
    else:
        yield path, json.dumps(value)


def _parse(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _outline(payload) -> list | None:
    """Check names, tolerances and pass flags of a verify report, else None."""
    if isinstance(payload, dict) and "checks" in payload:
        return [(c["name"], c["tolerance"], c["pass"]) for c in payload["checks"]]
    return None


def _differences(before: dict, after: dict) -> tuple[list[tuple[str, str, str, str]], bool]:
    """Every differing exit code and leaf as (command, path, before, after), and whether any structural field changed."""
    diffs, structural = [], False
    for command, old in before.items():
        new = after[command]
        if old["exit"] != new["exit"]:
            diffs.append((command, "exit", old["exit"], new["exit"]))
            structural = True
        for stream in ("stdout", "stderr"):
            a, b = _parse(old[stream]), _parse(new[stream])
            if a is None or b is None:
                a, b = {stream: old[stream].splitlines()}, {stream: new[stream].splitlines()}
            la, lb = dict(_leaves(a)), dict(_leaves(b))
            for path in list(la) + [p for p in lb if p not in la]:
                va, vb = la.get(path, ABSENT), lb.get(path, ABSENT)
                if va != vb:
                    diffs.append((command, path, va, vb))
            structural |= _outline(a) != _outline(b)
    return diffs, structural


def _printed(diffs) -> list[str]:
    return [f"{command} | {path}: {va} -> {vb}" for command, path, va, vb in diffs]


def compare(before: dict, after: dict) -> tuple[list[str], bool]:
    """The changed leaves as printed lines, and whether any structural field changed."""
    diffs, structural = _differences(before, after)
    return _printed(diffs), structural


def text_only(before: dict, after: dict) -> list[str]:
    """The commands whose raw output differs while ``compare`` finds no changed leaf."""
    return [
        command
        for command, old in before.items()
        if (old["stdout"], old["stderr"]) != (after[command]["stdout"], after[command]["stderr"])
        and not compare({command: old}, {command: after[command]})[0]
    ]


def summary(before: dict, after: dict) -> tuple[list[str], str, int]:
    """The printed lines, the summary line and the exit status of one comparison."""
    diffs, structural = _differences(before, after)
    appeared = sum(va == ABSENT for _, _, va, _ in diffs)
    vanished = sum(vb == ABSENT for _, _, _, vb in diffs)
    texts = text_only(before, after)
    verdict = "an exit code, check name, tolerance or pass flag differs" if structural else "no structural change"
    line = (
        f"{len(before)} commands, {len(diffs) - appeared - vanished} changed leaves, {appeared} leaves appeared, "
        f"{vanished} leaves vanished, {len(texts)} text differences; {verdict}"
    )
    return _printed(diffs) + [f"{command} | text differs, leaves equal" for command in texts], line, int(structural)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/compare_outputs.py BASE_REV", file=sys.stderr)
        return 2
    argvs = commands()
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        subprocess.run(["git", "worktree", "add", "--quiet", "--detach", str(base), argv[0]], cwd=ROOT, check=True)
        try:
            before = run_tree(base, argvs)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base)], cwd=ROOT, check=False)
    after = run_tree(ROOT, argvs)
    lines, line, status = summary(before, after)
    print("\n".join(lines))
    print(line)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
