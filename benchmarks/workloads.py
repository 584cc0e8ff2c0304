"""Seeded inputs of the four benchmark workloads.

Every workload is a list of items; an item is the argument list of one
``sasakian`` command.  The same (workload, seed) always gives the same items.
Draws are stratified, so a seed changes the exact inputs but not the mix of
cheap and expensive items, which keeps run-to-run spread low.

Each workload also names a set-up probe: the items a fresh process runs once
cold and once warm to measure what a command-line user pays on every
invocation (import plus lazily built tables).  A verify probe runs each of
its workload's examples at grid 3; a classify probe runs both modes without
the sweep.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("verify-coarse", "verify-dense", "classify-reduction", "classify-sweep")
# The reference kernel that times each workload (see ``reference.py``): root
# isolation is scalar code in Python loops; the others stream numpy arrays.
REFERENCE = {
    "verify-coarse": "memory",
    "verify-dense": "memory",
    "classify-reduction": "scalar",
    "classify-sweep": "memory",
}

COARSE_EXAMPLES = (
    "corollary-c1",
    "s5-surface",
    "cylinder-c1",
    "cylinder-s5",
    "legendre-circle",
    "minus4-1",
    "minus4-2",
    "minus4-3",
    "cylinder-minus4-1",
    "cylinder-minus4-2",
    "cylinder-minus4-3",
)
HELIX_COUNT = 3
HELIX_RANGE = (0.1, 0.9)

# c values the reduction workload always contains: the existence threshold
# c = -1/3, the lower end of the curve-times-sphere range, 5/9 and c = 1
SPECIAL_C = (-1.0 / 3.0, (-7.0 + 8.0 * math.sqrt(3.0)) / 13.0, 5.0 / 9.0, 1.0)
REDUCTION_RANGE = (-1.0, 3.0)
REDUCTION_DRAWS = 60
SWEEP_RANGE = (0.6, 1.4)
SWEEP_DRAWS = 1

PROBE_GRID = 3


def _verify(name: str, grid: int) -> list[str]:
    return ["verify", name, "--grid", str(grid)]


def _classify_c(c: float, sweep: bool) -> list[str]:
    return ["classify", "--c", repr(c)] + ([] if sweep else ["--no-sweep"])


def _classify_minus4(sweep: bool) -> list[str]:
    return ["classify", "--mode", "minus4"] + ([] if sweep else ["--no-sweep"])


def _stratified(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw in each of ``count`` equal cells of [lo, hi]."""
    width = (hi - lo) / count
    return [lo + (i + rng.random()) * width for i in range(count)]


def items(workload: str, seed: int) -> list[list[str]]:
    """The argument lists of one pass of ``workload``, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-coarse":
        helices = [f"legendre-helix:{k!r}" for k in _stratified(rng, *HELIX_RANGE, HELIX_COUNT)]
        out = [_verify(name, 5) for name in COARSE_EXAMPLES + tuple(helices)]
    elif workload == "verify-dense":
        index = rng.randint(1, 3)
        out = [_verify("cylinder-c1", 6), _verify("corollary-c1", 10), _verify(f"minus4-{index}", 7)]
    elif workload == "classify-reduction":
        cs = list(SPECIAL_C) + _stratified(rng, *REDUCTION_RANGE, REDUCTION_DRAWS)
        out = [_classify_c(c, sweep=False) for c in cs] + [_classify_minus4(sweep=False)]
    elif workload == "classify-sweep":
        cs = [1.0] + _stratified(rng, *SWEEP_RANGE, SWEEP_DRAWS)
        out = [_classify_c(c, sweep=True) for c in cs] + [_classify_minus4(sweep=True)]
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng.shuffle(out)
    return out


def probe(workload: str, seed: int) -> list[list[str]]:
    """The set-up probe of ``workload``: each distinct command kind once."""
    if workload.startswith("verify-"):
        return [_verify(name, PROBE_GRID) for name in sorted({argv[1] for argv in items(workload, seed)})]
    # A sweep takes about a second, and host noise on a call that long would
    # swamp the set-up time, so both classify probes skip it.  The sweep keeps
    # no state between calls; the result file records the cold pass time.
    return [_classify_c(1.0, sweep=False), _classify_minus4(sweep=False)]
