"""One benchmark process: runs ``sasakian`` commands in-process and times them.

Usage: ``python worker.py {setup,measure,trace}`` with a JSON spec on stdin:
``{"items": [[argv...], ...], "seconds": s, "scratch": dir, ...}``.  The
result is one JSON object on the last line of stdout.

* ``setup`` times ``import sasakian.cli`` and the reference kernel right
  after it, then runs the items once cold and once warm, timing the
  reference kernel between items.
* ``measure`` runs one cold pass, then warm passes for about ``seconds``; it
  reports every item's time in every warm pass, the reference kernel's time
  before the first item and after each item of every warm pass, and the peak
  resident memory.  Between passes it starts ``setup_repeats`` fresh
  ``setup`` processes on the ``probe`` items, spread evenly over the run.
* ``trace`` runs a cold pass, untraced warm passes for half of ``seconds`` and
  traced warm passes for the other half, and reports per-pass layer totals.

Every output is checked by ``gate``; each execution counts as attempted, and
each that raises, exits nonzero or fails the gate counts as failed.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

MIN_WARM_PASSES = 3
# each half of a traced run keeps fewer passes, so it fits the same time
MIN_TRACE_PASSES = 2
SETUP_TIMEOUT_S = 60
MAX_FAILURE_MESSAGES = 20
REFERENCE_SHARE = 0.03


class Runner:
    """Runs items through ``cli.main`` and gates their output."""

    def __init__(self, cli, gate, scratch: Path):
        self.cli, self.gate = cli, gate
        # a ``reference.Reference`` once passes should time it between items
        self.reference = None
        self.last_pass: list[float] = []
        self.refs: list[list[float]] = []
        self.out = scratch / f"out-{os.getpid()}.json"
        self.attempted = 0
        self.failures: list[str] = []
        self.headroom = float("inf")

    def run(self, argv: list[str]) -> float:
        """Run one item; return its time inside ``cli.main``."""
        self.out.unlink(missing_ok=True)
        full = argv + ["--format", "json", "--out", str(self.out)]
        error = None
        t0 = time.perf_counter()
        try:
            code = self.cli.main(full)
        except SystemExit as ex:
            code = ex.code
        except Exception as ex:  # a crash is a failed item, not a failed benchmark
            code, error = None, f"raised {type(ex).__name__}: {ex}"
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        if error is None:
            try:
                doc = json.loads(self.out.read_text(encoding="utf-8"))
            except (OSError, ValueError) as ex:
                problems = [f"exit code {code}, no JSON output ({ex})"]
            else:
                problems, headrooms = self.gate.check(argv, code, doc)
                self.headroom = min([self.headroom, *headrooms])
        else:
            problems = [error]
        if problems:
            self.failures.append(" ".join(argv) + ": " + "; ".join(problems))
        return elapsed

    def run_pass(self, items) -> list[float]:
        """Run every item once; with a reference kernel, time it between items.

        Between two items the kernel runs for ``REFERENCE_SHARE`` of the
        longer one's time in the previous pass, so that a long item, whose
        speed can change while it runs, is scaled by a steadier figure.
        """
        if self.reference is None:
            self.last_pass = [self.run(argv) for argv in items]
            return self.last_pass
        near = [0.0, *(self.last_pass or [0.0] * len(items)), 0.0]
        budgets = [REFERENCE_SHARE * max(a, b) for a, b in zip(near, near[1:])]
        times, refs = [], [self.reference.measure(budgets[0])]
        for argv, budget in zip(items, budgets[1:]):
            times.append(self.run(argv))
            refs.append(self.reference.measure(budget))
        self.refs.append(refs)
        self.last_pass = times
        return times

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:MAX_FAILURE_MESSAGES],
            "min_headroom": self.headroom if math.isfinite(self.headroom) else None,
        }


def _warm_passes(runner: Runner, items, seconds: float, min_passes: int, on_pass=None) -> list[list[float]]:
    """Warm passes while one more is predicted to end within ``seconds`` of pass time.

    ``on_pass(wall, elapsed)`` runs after each pass; its own time is not counted.
    """
    passes: list[list[float]] = []
    elapsed = 0.0
    while True:
        t = time.perf_counter()
        passes.append(runner.run_pass(items))
        wall = time.perf_counter() - t
        elapsed += wall
        if on_pass is not None:
            on_pass(wall, elapsed)
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def _setup_sample(probe: dict, scratch: Path) -> dict:
    """Run a fresh ``setup`` process on ``probe`` (items and reference kernel)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "setup"],
        input=json.dumps(dict(probe, scratch=str(scratch))),
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    mode = sys.argv[1]
    spec = json.loads(sys.stdin.read())
    items, scratch = spec["items"], Path(spec["scratch"])

    t0 = time.perf_counter()
    import sasakian.cli as cli

    import_s = time.perf_counter() - t0
    import gate
    import numpy
    from reference import Reference

    runner = Runner(cli, gate, scratch)
    result = {"numpy": numpy.__version__, "python": sys.version.split()[0]}

    if mode == "setup":
        reference = Reference(spec["reference"])
        result.update(import_s=import_s, import_reference_s=reference.measure())
        runner.reference = reference
        result.update(cold=runner.run_pass(items), warm=runner.run_pass(items), refs=runner.refs)
    elif mode == "measure":
        seconds, repeats, setups = spec["seconds"], spec["setup_repeats"], []
        probe = {"items": spec["probe"], "reference": spec["reference"]}

        def take_setups(wall, elapsed):
            while len(setups) < repeats and elapsed >= len(setups) * seconds / repeats:
                setups.append(_setup_sample(probe, scratch))

        result["cold"] = runner.run_pass(items)
        runner.reference = Reference(spec["reference"])
        result["nominal_s"] = runner.reference.nominal_s
        take_setups(0.0, 0.0)
        result["warm"] = _warm_passes(runner, items, seconds, MIN_WARM_PASSES, take_setups)
        take_setups(0.0, math.inf)
        result["refs"] = runner.refs
        result["setups"] = setups
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    elif mode == "trace":
        from tracing import Tracer

        runner.run_pass(items)
        result["untraced"] = [sum(p) for p in _warm_passes(runner, items, spec["seconds"] / 2, MIN_TRACE_PASSES)]
        tracer = Tracer()
        tracer.install()
        layers, walls = [], []
        marks = [tracer.mark()]

        def close_pass(wall, elapsed):
            layers.append(tracer.layer_totals(marks[-1]))
            walls.append(wall)
            marks.append(tracer.mark())

        try:
            traced = _warm_passes(runner, items, spec["seconds"] / 2, MIN_TRACE_PASSES, close_pass)
        finally:
            tracer.uninstall()
        tracer.write(Path(spec["spans"]))
        result.update(traced=[sum(p) for p in traced], traced_wall=walls, layers=layers)
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    runner.out.unlink(missing_ok=True)
    result.update(runner.summary())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
