"""Command-line front end: reproducible verification and classification runs.

``sasakian verify <example>`` runs the registered check suite of one example
immersion and exits 0 only if every check passes; ``sasakian classify`` solves
the classification systems and emits the solution tuples, curve-times-sphere
data, curvature tables and reduction traces.  Output formats: text (default),
json, csv.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import sys

from . import report as rep


def _emit(text: str, out: str | None, parser: argparse.ArgumentParser) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as ex:
        parser.exit(2, f"{parser.prog}: error: cannot write --out {out}: {ex.strerror or ex}\n")


def _classification_csv(results: list[dict]) -> str:
    buf = io.StringIO()
    buf.write("kind,case,c,lam,alpha,gamma,delta,kappa1,kappa2,radius,source\n")
    for res in results:
        for s in res["flat_solutions"]:
            buf.write(
                "flat,{case},{c:.17g},{lam:.17g},{alpha:.17g},{gamma:.17g},{delta:.17g},,,,{source}\n".format(
                    case=s["case"],
                    c=s["c"],
                    lam=s["lam"]["value"],
                    alpha=s["alpha"]["value"],
                    gamma=s["gamma"]["value"],
                    delta=s["delta"]["value"],
                    source=s["source"],
                )
            )
        for s in res["case_ii"]:
            lam = "" if s["lam"] is None else f"{s['lam']['value']:.17g}"
            buf.write(
                "case_ii,{sub},{c:.17g},{lam},,,,{k1:.17g},{k2:.17g},{rad:.17g},closed_form\n".format(
                    sub=s["subcase"],
                    c=s["c"],
                    lam=lam,
                    k1=s["kappa1"]["value"],
                    k2=s["kappa2"]["value"],
                    rad=s["radius"]["value"],
                )
            )
    return buf.getvalue()


def _classification_text(results: list[dict]) -> str:
    lines = []
    for res in results:
        lines.append(f"classification mode={res['mode']} c={res['c']:g}")
        if not res["flat_solutions"]:
            lines.append("  flat solutions: none")
        for s in res["flat_solutions"]:
            vals = ", ".join(
                f"{k}={s[k]['decimal']}" + (f" [{s[k]['symbolic']}]" if "symbolic" in s[k] else "")
                for k in ("lam", "alpha", "gamma", "delta")
            )
            lines.append(f"  flat {s['case']} ({s['source']}): {vals}")
            for curve, ks in s["curvature_tables"].items():
                kv = ", ".join(k["decimal"] for k in ks)
                lines.append(f"    {curve}-curve curvatures: {kv}")
        if not res["case_ii"]:
            lines.append("  curve x sphere solutions: none")
        for s in res["case_ii"]:
            lam = "-" if s["lam"] is None else s["lam"]["decimal"]
            lines.append(
                f"  case {s['subcase']}: lam={lam} kappa1={s['kappa1']['decimal']} "
                f"kappa2={s['kappa2']['decimal']} sphere radius={s['radius']['decimal']}"
            )
        for t in res["reduction_traces"]:
            acc = ", ".join(f"{w:.12g}" for w in t["accepted"]) or "none"
            lines.append(f"  branch {t['omega_branch']}: accepted omega {acc}")
            for r in t["rejected"]:
                lines.append(f"    rejected omega {r['omega']:.12g}: {r['reason']}")
    return "\n".join(lines) + "\n"


# every swept c is one classification of a few milliseconds; the cap bounds the work
# and the output of one run
MAX_SWEEP_POINTS = 1000
# past about |c| = 1e102 the reduction polynomials overflow, and JSON has no
# token for the NaN and infinities that follow
MAX_ABS_C = 1e100


def _parse_sweep(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("sweep must be lo:hi:step")
    lo, hi, step = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError("sweep bounds and step must be finite")
    if max(abs(lo), abs(hi)) > MAX_ABS_C:
        raise ValueError(f"sweep bounds must satisfy |c| <= {MAX_ABS_C:g}")
    if step <= 0 or hi < lo:
        raise ValueError("sweep needs step > 0 and hi >= lo")
    # the sweep has floor(steps) + 1 points; count them before building any list.
    # The slack absorbs the rounding of hi - lo, which grows with |lo| and |hi|;
    # it is at least 1e-12 and at most a thousandth of a step
    slack = min(max(1e-12, 1e-12 * max(abs(lo), abs(hi))), step / 1000)
    steps = (hi - lo + slack) / step
    if not steps < MAX_SWEEP_POINTS:
        raise ValueError(f"sweep asks for about {steps + 1:.0f} points; at most {MAX_SWEEP_POINTS} are allowed")
    # point i is lo + i * step: accumulating the step drifts, and can drop the last point
    cs = [round(lo + i * step, 12) for i in range(math.floor(steps) + 1)]
    # below the resolution of a c (12 decimals, or a float's spacing at large |c|)
    # neighbours collapse, and rounding can carry the last point past hi
    if any(a == b for a, b in zip(cs, cs[1:])) or cs[-1] - hi > step / 1000:
        raise ValueError(f"sweep step {step!r} is below the resolution of c on [{lo!r}, {hi!r}]")
    return cs


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args returns a fresh Namespace and leaves the parser as it was, so one
    # parser serves every call of main in a process
    parser = argparse.ArgumentParser(
        prog="sasakian",
        description="verify explicit biharmonic immersions and solve the classification systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the check suite of a registered example")
    pv.add_argument("example", help="registered example name, e.g. corollary-c1 or legendre-helix:0.5")
    pv.add_argument("--grid", type=int, default=5, help="points per parameter axis (default 5)")
    pv.add_argument("--tol", type=float, default=None, help="override every check tolerance")
    pv.add_argument("--format", choices=("json", "csv", "text"), default="text")
    pv.add_argument("--out", default=None, help="write the report to this file instead of stdout")

    pc = sub.add_parser("classify", help="solve the classification systems")
    pc.add_argument("--c", type=float, default=None, help="phi-sectional curvature")
    pc.add_argument("--c-sweep", default=None, metavar="LO:HI:STEP", help="sweep over c values")
    pc.add_argument("--mode", choices=("biharmonic", "minus4"), default="biharmonic")
    pc.add_argument(
        "--no-sweep",
        action="store_true",
        help="accepted and ignored: the closed-form reduction is complete, so no Newton sweep runs",
    )
    pc.add_argument("--format", choices=("json", "csv", "text"), default="text")
    pc.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    # argparse reads a value such as -1:1:0.5, -1e-3 or -inf as an option unless it is attached
    # with "=", so attach the value of --tol, --c and --c-sweep unless it is "-h" or starts "--"
    tokens: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        if tokens and tokens[-1] in ("--tol", "--c", "--c-sweep") and not (token == "-h" or token.startswith("--")):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    args = parser.parse_args(tokens)

    if args.command == "verify":
        if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
            parser.error(f"--tol must be finite and positive, got {args.tol}")
        try:
            report = rep.build_report(args.example, per_axis=args.grid, tol=args.tol)
        except rep.UsageError as ex:
            parser.error(ex.args[0])
        if args.format == "json":
            _emit(report.to_json(), args.out, parser)
        elif args.format == "csv":
            _emit(report.to_csv(), args.out, parser)
        else:
            _emit(report.to_text(), args.out, parser)
        return 0 if report.passed else 1

    if args.command == "classify":
        if args.mode == "minus4":
            if args.c is not None or args.c_sweep is not None:
                parser.error("mode minus4 works at the canonical structure only (implicit c = 1)")
            cs = [None]
        else:
            if (args.c is None) == (args.c_sweep is None):
                parser.error("classify needs exactly one of --c or --c-sweep")
            if args.c_sweep is not None:
                try:
                    cs = _parse_sweep(args.c_sweep)
                except ValueError as ex:
                    parser.error(str(ex))
            elif not math.isfinite(args.c):
                parser.error(f"--c must be finite, got {args.c}")
            elif abs(args.c) > MAX_ABS_C:
                parser.error(f"--c must satisfy |c| <= {MAX_ABS_C:g}, got {args.c}")
            else:
                cs = [args.c]
        results = [rep.classification_report(c=c, mode=args.mode) for c in cs]
        if args.format == "json":
            payload = results[0] if len(results) == 1 else {"sweep": results}
            _emit(rep.json_text(payload), args.out, parser)
        elif args.format == "csv":
            _emit(_classification_csv(results), args.out, parser)
        else:
            _emit(_classification_text(results), args.out, parser)
        return 0

    parser.error("unknown command")


if __name__ == "__main__":
    raise SystemExit(main())
