import json
import sys
from pathlib import Path

from sasakian import immersion as imm
from sasakian import report as rep

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT / "benchmarks"))

import compare_outputs as co  # noqa: E402
import workloads  # noqa: E402


def _run(exit_code, payload):
    return {"exit": exit_code, "stdout": json.dumps(payload), "stderr": ""}


def _report(residual, tolerance=1e-8, passed=True, name="trace_b_ah"):
    return {"checks": [{"name": name, "residual": residual, "tolerance": tolerance, "pass": passed}], "computed": {}}


def test_changed_values_are_listed_by_check_name_and_exit_0():
    before = {"verify x": _run(0, _report(1e-16))}
    after = {"verify x": _run(0, _report(2e-16))}
    lines, structural = co.compare(before, after)
    assert lines == ["verify x | checks[trace_b_ah].residual: 1e-16 -> 2e-16"]
    assert not structural


def test_exit_code_name_tolerance_or_pass_flag_changes_are_structural():
    base = {"verify x": _run(0, _report(1e-16))}
    for changed in (
        _run(1, _report(1e-16)),
        _run(0, _report(1e-16, name="trace_bah")),
        _run(0, _report(1e-16, tolerance=1e-6)),
        _run(0, _report(1e-16, passed=False)),
    ):
        assert co.compare(base, {"verify x": changed})[1]


def test_output_that_is_not_json_is_compared_line_by_line():
    before = {"verify x": {"exit": 2, "stdout": "", "stderr": "usage\nerror: a\n"}}
    after = {"verify x": {"exit": 2, "stdout": "", "stderr": "usage\nerror: b\n"}}
    assert co.compare(before, after) == (['verify x | stderr[1]: "error: a" -> "error: b"'], False)


class _FirstPass(Exception):
    """Raised by a stand-in ``geometry_pass`` with its immersion, point count and whether it runs blocks."""


def _first_pass(F, pts, fields=(), checks=()):
    raise _FirstPass(F, len(pts), bool(fields or checks))


def test_comparison_set_covers_every_example_and_both_classify_workloads(monkeypatch):
    argvs = co.commands()
    assert all(argv[-2] == "--format" and argv[-1] in ("json", "csv", "text") for argv in argvs)
    verify = {(argv[1], argv[3]) for argv in argvs if argv[0] == "verify"}
    assert ("legendre-helix:0.5", "3") in verify and ("cylinder-minus4-3", "5") in verify
    assert ("cylinder-c1", "9") in verify and ("corollary-c1", "15") in verify
    assert ("cylinder-minus4-2", "11") in verify
    assert sum(argv[0] == "classify" for argv in argvs) > 60
    # the benchmark's verify items, among them seeded helices that sum several waves per component
    coarse = {" ".join(argv) for argv in workloads.items("verify-coarse", 1)}
    assert coarse <= {" ".join(argv[:-2]) for argv in argvs}
    # reports whose geometry pass spans more than one block, with 3 and with 4
    # parameters: each report stops at its first pass, before any jet is built
    monkeypatch.setattr(imm, "geometry_pass", _first_pass)
    multi_block = set()
    for argv in argvs:
        if argv[0] == "verify":
            try:
                rep.build_report(argv[1], per_axis=int(argv[3]))
            except _FirstPass as stop:
                F, n, blocked = stop.args
                if blocked and len(imm.point_blocks(n, imm.jet_coefficients(F))) > 1:
                    multi_block.add(F.m)
    assert multi_block >= {3, 4}


def test_text_that_differs_with_equal_leaves_is_listed_apart_and_exits_0():
    payload = _report(float("inf"))
    before = {"verify x": _run(0, payload), "verify y": _run(0, payload)}
    after = {
        "verify x": {"exit": 0, "stdout": json.dumps(payload, indent=2), "stderr": ""},
        "verify y": _run(0, payload),
    }
    assert co.compare(before, after) == ([], False)
    assert co.text_only(before, after) == ["verify x"]
    # a changed leaf is listed as such, not again as a text difference
    after["verify x"] = _run(0, _report(1.0))
    assert co.text_only(before, after) == []
    assert co.text_only(before, before) == []


def test_comparison_set_has_the_largest_sweep_and_the_infinity_token():
    joined = {" ".join(argv) for argv in co.commands()}
    assert "classify --c-sweep 0:3:0.01 --format json" in joined
    # the helices whose Frenet extraction fails, residual inf
    for kappa1 in ("1e-9", "1e-7", "0.9999999999999"):
        assert f"verify legendre-helix:{kappa1} --grid 3 --format json" in joined


def test_comparison_set_has_the_csv_and_text_of_classify_and_of_one_verify():
    joined = {" ".join(argv) for argv in co.commands()}
    for fmt in ("csv", "text"):
        for command in ("classify --c 1", "classify --mode minus4", "classify --c-sweep 0:3:0.5"):
            assert f"{command} --format {fmt}" in joined
        assert f"verify corollary-c1 --grid 3 --format {fmt}" in joined


def test_summary_counts_leaves_that_appear_and_vanish_apart_from_changed_ones():
    # a bare classify report that becomes {"sweep": [...]}: a change of shape, and still exit 0
    bare = {"c": 1.0, "mode": "biharmonic", "flat_solutions": [{"lam": -0.5}]}
    before = {"classify x": _run(0, bare), "verify y": _run(0, _report(1e-16))}
    after = {"classify x": _run(0, {"sweep": [dict(bare, c=1.5)]}), "verify y": _run(0, _report(2e-16))}
    lines, line, status = co.summary(before, after)
    assert "classify x | c: 1.0 -> <absent>" in lines and "classify x | sweep[0].c: <absent> -> 1.5" in lines
    assert line == (
        "2 commands, 1 changed leaves, 3 leaves appeared, 3 leaves vanished, 0 text differences; no structural change"
    )
    assert status == 0
    # an exit code that differs is a changed leaf and sets the status
    after["verify y"] = _run(1, _report(1e-16))
    assert co.summary(before, after)[1].startswith("2 commands, 1 changed leaves, 3 leaves appeared")
    assert co.summary(before, after)[2] == 1
