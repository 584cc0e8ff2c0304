import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasakian import immersion as imm
from sasakian import report as rep
from sasakian.cli import MAX_ABS_C, MAX_SWEEP_POINTS, _parse_sweep, main

FAST_EXAMPLES = [
    "s5-surface",
    "cylinder-c1",
    "cylinder-s5",
    "legendre-circle",
    "legendre-helix:0.5",
    "minus4-1",
    "minus4-2",
    "minus4-3",
    "cylinder-minus4-1",
    "cylinder-minus4-2",
    "cylinder-minus4-3",
]


@pytest.fixture(scope="module")
def corollary_report():
    return rep.build_report("corollary-c1", per_axis=4)


def test_corollary_report_all_pass(corollary_report):
    assert corollary_report.passed
    names = [c.name for c in corollary_report.checks]
    for expected in (
        "unit_norm",
        "integral",
        "c_parallel",
        "s_symmetry",
        "normal_laplacian",
        "mean_curvature_value",
        "bitension",
        "trace_b_ah",
        "frenet_X1",
        "frenet_X2",
        "frenet_X3",
        "lattice",
        "laplacian_eigen_x1",
        "laplacian_eigen_x2",
    ):
        assert expected in names


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_registered_examples_pass(name):
    report = rep.build_report(name, per_axis=4)
    assert report.passed, report.to_text()


def test_unknown_example_raises():
    with pytest.raises(KeyError, match="unknown example"):
        rep.build_report("nope")


@pytest.mark.parametrize("name", ["corollary-c1", "cylinder-c1"])
def test_tol_overrides_every_tolerance(name):
    report = rep.build_report(name, per_axis=3, tol=1e-3)
    assert report.checks
    assert all(c.tolerance == 1e-3 for c in report.checks)


def test_report_evaluates_one_jet_of_accuracy_two_or_more(monkeypatch):
    accuracies = []
    original = imm.ParametricImmersion.jets

    def counting(self, pts, acc):
        accuracies.append(acc)
        return original(self, pts, acc)

    monkeypatch.setattr(imm.ParametricImmersion, "jets", counting)
    assert rep.build_report("corollary-c1", per_axis=3).passed
    assert sum(2 <= acc <= 4 for acc in accuracies) == 1


@pytest.mark.parametrize("name", ["corollary-c1", "s5-surface", "cylinder-c1", "cylinder-s5"])
def test_report_evaluates_no_jet_on_sampled_points(name, monkeypatch):
    calls = []
    original = imm.ParametricImmersion.jets

    def recording(self, pts, acc):
        calls.append((self, acc, np.atleast_2d(np.asarray(pts, dtype=float))))
        return original(self, pts, acc)

    monkeypatch.setattr(imm.ParametricImmersion, "jets", recording)
    assert rep.build_report(name, per_axis=3).passed
    ((F, _, sampled),) = [c for c in calls if c[1] == 4]
    rows = {tuple(p) for p in sampled}
    for G, acc, pts in calls:
        if G is F and acc != 4:
            assert not rows.issuperset(map(tuple, pts)), acc


def test_json_round_trip_is_byte_identical(corollary_report):
    text = corollary_report.to_json()
    reparsed = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert reparsed == text


def test_csv_header_and_rows(corollary_report):
    lines = corollary_report.to_csv().strip().splitlines()
    assert lines[0] == "check,residual,tolerance,pass"
    assert len(lines) == len(corollary_report.checks) + 1
    for line in lines[1:]:
        name, residual, tolerance, ok = line.split(",")
        assert ok in ("true", "false")
        assert float(residual) < float(tolerance) or ok == "false"


def test_symbolic_decimals(corollary_report):
    entry = corollary_report.computed["mean_curvature"]
    assert entry["symbolic"] == "2/3"
    assert len(entry["decimal"]) >= 17


def _symbolize_linear(value):
    """The linear scan over SYMBOLIC_FORMS, the oracle of rep.symbolize's bisection."""
    for v, s in rep.SYMBOLIC_FORMS:
        if abs(value - v) <= 1e-12 * max(1.0, abs(v)):
            return s
    return None


def test_symbolic_forms_lie_further_apart_than_their_match_tolerances():
    # the bisection tests only the two forms next to a value; that finds the form the
    # linear scan finds only while no value lies within tolerance of two forms
    values = sorted(v for v, _ in rep.SYMBOLIC_FORMS)
    for a, b in zip(values, values[1:]):
        assert b - a > 2e-12 * max(1.0, abs(a), abs(b)), (a, b)


def test_symbolize_matches_the_linear_scan():
    inputs = [0.0, -0.0, math.nan, math.inf, -math.inf]
    for v, s in rep.SYMBOLIC_FORMS:
        tol = 1e-12 * max(1.0, abs(v))
        for shift in (-0.5, 0.0, 0.5):
            assert rep.symbolize(v + shift * tol) == s
            assert rep.symbolize(np.float64(v + shift * tol)) == s
        for shift in (-2.0, 2.0):
            assert rep.symbolize(v + shift * tol) is None
        inputs += [v + shift * tol for shift in (-2.0, -0.5, 0.5, 2.0)]
    rng = random.Random(7)
    inputs += [rng.uniform(-10.0, 10.0) for _ in range(10_000)]
    for x in inputs:
        assert rep.symbolize(x) == _symbolize_linear(x), x


def test_report_computed_records_grid_and_tolerance(corollary_report):
    assert corollary_report.computed["grid_points_per_axis"] == 4
    assert corollary_report.computed["tolerance_override"] is None


def test_cli_verify_pass_exit_code(capsys):
    assert main(["verify", "legendre-circle", "--grid", "4"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out


def test_cli_verify_tolerance_floor_fails(capsys):
    assert main(["verify", "legendre-circle", "--grid", "4", "--tol", "1e-20"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_unknown_example_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "does-not-exist"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "minus4-7"],
        ["verify", "legendre-helix:abc"],
        ["verify", "legendre-helix:1.5"],
        ["verify", "cylinder-minus4-x"],
        ["verify", "corollary-c1", "--grid", "0"],
        ["verify", "minus4"],
        ["verify", "legendre-helix"],
        ["verify", "cylinder-minus4"],
        ["verify", "legendre-circle", "--tol", "nan"],
        ["verify", "legendre-circle", "--tol", "inf"],
        ["verify", "legendre-circle", "--tol=-inf"],
        ["verify", "legendre-circle", "--tol", "0"],
        ["verify", "legendre-circle", "--tol", "-1"],
    ],
)
def test_cli_bad_verify_input_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("sasakian: error: ")


@pytest.mark.parametrize("value", ["-1e-3", "-inf", "-1"])
def test_cli_negative_tol_names_the_fault(value, capsys):
    # a value that starts with "-" is still the value of --tol, not an option
    with pytest.raises(SystemExit) as exc:
        main(["verify", "corollary-c1", "--tol", value])
    assert exc.value.code == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith("sasakian: error: --tol must be finite and positive, got ")


def test_cli_option_after_tol_is_not_its_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "corollary-c1", "--tol", "--grid", "3"])
    assert exc.value.code == 2
    assert "argument --tol: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("kappa1", ["1e-9", "1e-7", "0.9999999999999"])
def test_cli_helix_near_the_ends_of_the_range_fails_its_frenet_checks(kappa1, capsys):
    # the Frenet extraction cannot settle the osculating order there: the
    # report still comes out, with the Frenet checks failed at residual inf
    assert main(["verify", f"legendre-helix:{kappa1}", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    payload = json.loads(captured.out)
    failed = {c["name"]: c["residual"] for c in payload["checks"] if not c["pass"]}
    assert failed == {"frenet_helix": math.inf, "phi_alignment_magnitude": math.inf}


@settings(max_examples=50, deadline=None)
@given(kappa1=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_helix_report_never_ends_in_a_traceback(kappa1):
    # wherever the Frenet extraction fails, the report still comes out
    name = f"legendre-helix:{kappa1!r}"
    assert isinstance(rep.build_report(name, 3), rep.VerificationReport)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(["verify", name, "--grid", "3"]) in (0, 1)
    assert "Traceback" not in err.getvalue()


def test_frenet_error_on_a_coordinate_curve_fails_its_checks(monkeypatch):
    def indeterminate(curve, s_grid):
        raise rep.FrenetError("osculating order is numerically indeterminate at step 1")

    monkeypatch.setattr(rep, "frenet", indeterminate)
    report = rep.build_report("corollary-c1", per_axis=3)
    frenet_checks = [c for c in report.checks if c.name.startswith("frenet_")]
    assert [c.name for c in frenet_checks] == [
        f"frenet_{label}{suffix}" for label in ("X1", "X2", "X3") for suffix in ("", "_constancy")
    ]
    assert all(c.residual == math.inf and not c.passed for c in frenet_checks)
    assert all("indeterminate" in c.extra["error"] for c in frenet_checks)


@pytest.mark.parametrize("name", ["cylinder-c1", "corollary-c1", "legendre-helix:0.5", "cylinder-minus4-2"])
def test_cli_grid_over_the_cap_exits_2_before_sampling(name, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("an over-cap grid was sampled")

    monkeypatch.setattr(imm.ParametricImmersion, "grid", refuse)
    monkeypatch.setattr(imm.ParametricImmersion, "jets", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["verify", name, "--grid", "100000"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("sasakian: error: grid 100000 samples")


@pytest.mark.parametrize(
    "name, grid",
    [("cylinder-c1", 9), ("corollary-c1", 15), ("cylinder-c1", 6), ("corollary-c1", 10), ("minus4-2", 7)]
    + [(name, 5) for name in ("cylinder-minus4-1", "cylinder-s5", "s5-surface", "legendre-circle")],
)
def test_grid_cap_admits_the_benchmark_and_documented_grids(name, grid, monkeypatch):
    family, _ = rep.parse_example(name)
    m, _ = rep._SUITES[family]
    assert grid**m <= rep.MAX_GRID_POINTS
    monkeypatch.setitem(rep._SUITES, family, (m, lambda report, per_axis, param: None))
    assert rep.build_report(name, per_axis=grid).computed["grid_points_per_axis"] == grid


def test_cli_json_format(capsys):
    assert main(["verify", "s5-surface", "--grid", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["subject"] == "s5-surface"
    assert all(c["pass"] for c in payload["checks"])


def test_cli_csv_format(capsys):
    assert main(["verify", "s5-surface", "--grid", "3", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("check,residual,tolerance,pass\n")


def test_cli_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["verify", "legendre-circle", "--format", "json", "--out", str(target)]) == 0
    capsys.readouterr()
    payload = json.loads(target.read_text())
    assert payload["subject"] == "legendre-circle"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "legendre-circle", "--grid", "3", "--format", "json"],
        ["classify", "--c", "1", "--format", "json"],
    ],
)
def test_cli_unwritable_out_exits_2(argv, tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(target)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines() == [f"sasakian: error: cannot write --out {target}: No such file or directory"]


def _refuse_constant(token):
    raise ValueError(f"{token} is not valid JSON")


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_cli_classify_json_is_strict_up_to_the_c_bound(sign, capsys):
    # every decade from the smallest subnormal to the bound itself
    top = round(math.log10(MAX_ABS_C))
    assert float(f"1e{top}") == MAX_ABS_C
    for exponent in range(-323, top + 1):
        c = sign * float(f"1e{exponent}")
        assert main(["classify", f"--c={c!r}", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
        assert payload["c"] == c


def test_cli_classify_c1(capsys):
    assert main(["classify", "--c", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["flat_solutions"]) == 1
    assert payload["case_ii"] == []
    assert payload["flat_solutions"][0]["lam"]["symbolic"] == "-1/sqrt(5)"


def test_cli_classify_nonexistence(capsys):
    assert main(["classify", "--c", "-0.5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["flat_solutions"] == [] and payload["case_ii"] == []


def test_cli_classify_minus4(capsys):
    assert main(["classify", "--mode", "minus4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["flat_solutions"]) == 3
    assert len(payload["case_ii"]) == 1


def test_cli_classify_minus4_rejects_explicit_c():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--mode", "minus4", "--c", "1"])
    assert exc.value.code == 2


def test_cli_classify_requires_c_or_sweep():
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--c", "1", "--c-sweep", "0:1:0.5"])
    assert exc.value.code == 2


def test_cli_classify_invalid_sweep():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--c-sweep", "1:0:-1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--c", "nan"],
        ["classify", "--c", "inf"],
        ["classify", "--c=-inf"],
        ["classify", "--c-sweep", "0:nan:0.1"],
        ["classify", "--c-sweep", "nan:1:0.1"],
        ["classify", "--c-sweep", "0:1:nan"],
        ["classify", "--c-sweep", "0:inf:1"],
        ["classify", "--c-sweep", "0:1:1e-7"],
        ["classify", "--c-sweep=-1e308:1e308:1"],
        ["classify", "--c", "1e101"],
        ["classify", "--c=-1e101"],
        ["classify", "--c-sweep", "0:2e100:1e100"],
        ["classify", "--c-sweep=-2e100:0:1e100"],
        # steps below the resolution of c: points that repeat at 12 decimals or
        # at the float spacing near 1e9, or a last point rounded past hi
        ["classify", "--c-sweep", "0:1e-12:1e-13"],
        ["classify", "--c-sweep", "1e9:1000000000.00001:1e-7"],
        ["classify", "--c-sweep", "0:1.6e-12:1.6e-12"],
    ],
)
def test_cli_bad_classify_input_exits_2(argv, capsys, monkeypatch):
    def refuse(**kwargs):
        raise AssertionError("a rejected input must not reach the classifier")

    monkeypatch.setattr(rep, "classification_report", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.strip().splitlines()[-1].startswith("sasakian: error: ")


def test_cli_classify_sweep_from_negative_c_needs_no_equals_sign(tmp_path, capsys):
    spaced, attached = tmp_path / "spaced.json", tmp_path / "attached.json"
    assert main(["classify", "--c-sweep", "-1:1:0.5", "--no-sweep", "--format", "json", "--out", str(spaced)]) == 0
    assert main(["classify", "--c-sweep=-1:1:0.5", "--no-sweep", "--format", "json", "--out", str(attached)]) == 0
    assert spaced.read_text() == attached.read_text()
    assert "Traceback" not in capsys.readouterr().err


def test_cli_classify_negative_exponent_c(capsys):
    assert main(["classify", "--c", "-1e-3", "--no-sweep", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["c"] == -1e-3
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--c", "-inf"], "sasakian: error: --c must be finite, got -inf"),
        (["classify", "--c", "--no-sweep"], "argument --c: expected one argument"),
    ],
)
def test_cli_classify_option_like_value_exits_2(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].endswith(message)


def test_sweep_point_cap_is_arithmetic():
    assert len(_parse_sweep("0:999:1")) == MAX_SWEEP_POINTS
    with pytest.raises(ValueError, match="1001 points"):
        _parse_sweep("0:1000:1")
    with pytest.raises(ValueError, match="at most"):
        _parse_sweep("0:1:1e-300")


def test_sweep_points_are_placed_by_index(capsys):
    # point i is lo + i * step; a running sum of the step drifts past hi + 1e-12 and loses hi
    assert main(["classify", "--c-sweep", "734.918:963.718:1.6", "--format", "json"]) == 0
    cs = [res["c"] for res in json.loads(capsys.readouterr().out)["sweep"]]
    assert len(cs) == 144
    assert cs[22] == 770.118
    assert cs[-1] == 963.718


@pytest.mark.parametrize(
    "spec, count, last",
    [
        ("1e9:1000000000.3:0.1", 4, 1000000000.3),
        ("-1e9:-999999999.7:0.1", 4, -999999999.7),
        # a slack of 1e-12 |c| would be 100 steps here; a thousandth of a step is the cap
        ("1e9:1000000000.0001:0.00001", 11, 1000000000.0001),
    ],
)
def test_sweep_keeps_its_endpoint_at_large_c(spec, count, last):
    # hi - lo rounds by about 1e-7 at |c| = 1e9, so a fixed slack of 1e-12 lost hi
    cs = _parse_sweep(spec)
    assert len(cs) == count
    assert cs[-1] == last


@pytest.mark.parametrize(
    "spec, count, last",
    [("0:1e-11:1e-12", 11, 1e-11), ("0:3e-12:1e-12", 4, 3e-12), ("0:0:1e-13", 1, 0.0)],
)
def test_sweep_below_the_slack_stops_at_hi(spec, count, last):
    # a slack of 1e-12 was ten steps past hi here; it is at most a thousandth of a step
    cs = _parse_sweep(spec)
    assert len(cs) == len(set(cs)) == count
    assert cs[-1] == last


def test_cli_classify_sweep_and_csv(capsys):
    assert main(["classify", "--c-sweep", "0.6:0.8:0.1", "--no-sweep", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("kind,case,c,lam,alpha,gamma,delta,kappa1,kappa2,radius,source\n")
    assert "case_ii" in out


def test_cli_parser_reuse_keeps_no_state_between_calls(capsys):
    args = ["verify", "corollary-c1", "--grid", "3", "--format", "json"]
    assert main(args + ["--tol", "1e-3"]) == 0
    assert json.loads(capsys.readouterr().out)["computed"]["tolerance_override"] == 1e-3
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["computed"]["tolerance_override"] is None
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--format", "json"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    assert main(["classify", "--c", "1", "--format", "json"]) == 0
    fresh = subprocess.run(
        [sys.executable, "-m", "sasakian.cli", "classify", "--c", "1", "--format", "json"],
        env={**os.environ, "PYTHONPATH": str(Path(rep.__file__).resolve().parent.parent)},
        capture_output=True,
        check=True,
    )
    assert capsys.readouterr().out.encode() == fresh.stdout


def test_cli_classify_json_round_trip(capsys):
    assert main(["classify", "--c", "1", "--format", "json"]) == 0
    text = capsys.readouterr().out
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text
