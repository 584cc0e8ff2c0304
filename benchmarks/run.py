"""Benchmark of the ``sasakian`` package: four workloads over verify and classify.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload verify-coarse --seed 1 --seconds 22 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 22

With ``--trace 0`` the run reports the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` a separate traced run reports the
per-layer metrics.  Progress and a metric table go to standard output; its
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record (environment, seed, per-item medians, failures)
is written to ``benchmarks/results/``.

All work runs in fresh worker processes with BLAS pinned to one thread, so
one workload's memory peak cannot leak into another's; this process imports
neither numpy nor the package.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
SETUP_REPEATS = 5
# every run must end within 180 s; the workers share what is left of this
RUN_DEADLINE_S = 170.0
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _environment() -> dict:
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
    }


class Session:
    """Worker processes of one run, sharing one deadline."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{v: "1" for v in BLAS_THREAD_VARS})

    def worker(self, mode: str, spec: dict) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchmarkError("out of time before the " + mode + " worker")
        spec = dict(spec, scratch=str(RESULTS))
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), mode],
                input=json.dumps(spec),
                capture_output=True,
                text=True,
                env=self.env,
                cwd=ROOT,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as ex:
            raise BenchmarkError(f"{mode} worker did not finish within {remaining:.0f} s") from ex
        if proc.returncode != 0:
            raise BenchmarkError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def _normalise(times, refs, nominal: float) -> list[float]:
    """Scale each item's time by the reference kernel timed just before and after it."""
    return [t * nominal / (0.5 * (refs[i] + refs[i + 1])) for i, t in enumerate(times)]


def _end_to_end(session: Session, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    items = workloads.items(workload, seed)
    probe = workloads.probe(workload, seed)
    spec = {
        "items": items,
        "seconds": seconds,
        "probe": probe,
        "reference": workloads.REFERENCE[workload],
        "setup_repeats": SETUP_REPEATS,
    }
    run = session.worker("measure", spec)
    setups, nominal = run["setups"], run["nominal_s"]
    # Scaling by the reference kernel takes out most of a shared host's
    # changes of speed; each item's median over the run's passes takes out
    # most of the rest, including a change of speed in the middle of an item.
    norm = [_normalise(times, refs, nominal) for times, refs in zip(run["warm"], run["refs"])]
    per_item = [statistics.median(times) for times in zip(*norm)]
    setup_raw = [s["import_s"] + sum(s["cold"]) - sum(s["warm"]) for s in setups]
    setup_samples = [
        s["import_s"] * nominal / s["import_reference_s"]
        + sum(_normalise(s["cold"], s["refs"][0], nominal))
        - sum(_normalise(s["warm"], s["refs"][1], nominal))
        for s in setups
    ]
    workers = setups + [run]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    headrooms = [w["min_headroom"] for w in workers if w["min_headroom"] is not None]
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": sum(per_item),
        "item_geomean_ms": 1000.0 * _geomean(per_item),
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
        "ok_ratio": 1.0 - failed / attempted,
        "min_headroom_dec": min(headrooms, default=0.0),
    }
    record = {
        "attempted": attempted,
        "failed": failed,
        "failures": [f for w in workers for f in w["failures"]],
        "numpy": run["numpy"],
        "python": run["python"],
        "setup_samples_s": setup_samples,
        "setup_raw_s": setup_raw,
        "import_s": [s["import_s"] for s in setups],
        "cold_pass_s": sum(run["cold"]),
        "warm_pass_s": [sum(p) for p in run["warm"]],
        "warm_pass_norm_s": [sum(p) for p in norm],
        "reference_s": run["refs"],
        "items": [
            {
                "argv": argv,
                "median_norm_ms": 1000.0 * statistics.median(norm_times),
                "median_ms": 1000.0 * statistics.median(times),
                "samples_ms": [1000.0 * t for t in times],
            }
            for argv, times, norm_times in zip(items, zip(*run["warm"]), zip(*norm))
        ],
    }
    return values, record


def _per_layer(session: Session, workload: str, seed: int, seconds: float, names) -> tuple[dict, dict]:
    items = workloads.items(workload, seed)
    spans = RESULTS / f"spans-{workload}-seed{seed}.json.gz"
    run = session.worker("trace", {"items": items, "seconds": seconds, "spans": str(spans)})
    layers = run["layers"]
    coverage = [
        sum(v for k, v in layer.items() if k.endswith(".self_s")) / wall
        for layer, wall in zip(layers, run["traced_wall"])
    ]
    medians = {k: statistics.median(layer.get(k, 0) for layer in layers) for k in set().union(*layers)}
    medians["trace.coverage"] = statistics.median(coverage)
    medians["trace.overhead_s"] = min(run["traced"]) - min(run["untraced"])
    values = {name: medians.get(name, 0) for name in names}
    record = {
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failures": run["failures"],
        "numpy": run["numpy"],
        "python": run["python"],
        "untraced_pass_s": run["untraced"],
        "traced_pass_s": run["traced"],
        "all_layers": dict(sorted(medians.items())),
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return values, record


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    session = Session()
    if trace:
        values, record = _per_layer(session, workload, seed, seconds, [m["name"] for m in metrics])
    else:
        values, record = _end_to_end(session, workload, seed, seconds)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": {**_environment(), "python": record.pop("python"), "numpy": record.pop("numpy")},
        "result": result,
        **record,
    }
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, m in result["metrics"].items():
        print(f"{workload:20s} {name:44s} {m['value']:>14.6g} {m['unit']}")
    for failure in record["failures"]:
        print(f"{workload:20s} FAILED {failure}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sasakian" / "__init__.py").is_file():
        print(f"benchmark: no package source at {ROOT / 'src' / 'sasakian'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    RESULTS.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), spec) for w in names}
    except BenchmarkError as ex:
        print(f"benchmark: {ex}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
