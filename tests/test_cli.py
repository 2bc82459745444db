"""Command line behavior: exit codes, determinism, document formats."""

import hashlib
import json
import sys
import time

import pytest
from test_resolution_exactness import X0, _common_factor_matrix

from hkcurves import cli
from hkcurves.acm_curve import MAX_FIBERS, ACMCurve, LinearMatrix, avoids_base_line, random_sigma_curve
from hkcurves.cli import (
    MAX_DOCUMENT_R,
    MAX_MAP_DEGREE,
    MAX_METRIC_R,
    MAX_PENCIL_R,
    build_parser,
    curve_to_document,
    document_to_curve,
    main,
)
from hkcurves.exact_algebra.linalg import ExactMatrix

from suites import mat_add

CUBIC_DOC = {
    "forms": [
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
    ]
}

# every form vanishes at the point where the last coefficient would act
BASE_POINT_DOC = {
    "forms": [
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "1", "0"],
    ]
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_kronecker_passes_and_reports(capsys):
    code, out = run(capsys, ["kronecker", "--r", "2", "--count", "3", "--seed", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["results"]) == 3
    assert all(e["stabilizer_dimension"] == 1 for e in doc["results"])


def test_stdout_is_byte_identical_across_runs(capsys):
    argv = ["kronecker", "--r", "1", "--count", "2", "--seed", "3"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_curve_document_round_trip():
    curve = random_sigma_curve(2, 0)
    doc = curve_to_document(curve, metadata={"note": "round trip"})
    again = document_to_curve(doc)
    assert tuple(again.coeffs) == tuple(curve.coeffs)
    assert doc["metadata"] == {"note": "round trip"}


def test_acm_verify_passes_on_certified_curve(tmp_path, capsys):
    path = write_doc(tmp_path, "curve.json", curve_to_document(random_sigma_curve(2, 1)))
    code, out = run(capsys, ["acm", "verify", path, "--fibers", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["failed_stage"] is None
    names = [s["stage"] for s in doc["stages"]]
    assert names == [
        "base_avoidance",
        "sigma_invariance",
        "resolution_certificate",
        "cohomology",
        "normal_sections",
        "fibers",
    ]


def test_acm_verify_fails_the_sigma_stage_of_a_certified_curve_that_is_not_invariant(tmp_path, capsys):
    # A3 of a sigma curve moved by one unit: still certified and clear of L0,
    # but its minors no longer span a sigma-stable space
    A1, A2, A3, A4 = random_sigma_curve(2, 1).coeffs
    bump = ExactMatrix.from_integer_form((((1, 0), (0, 0)), ((0, 0), (0, 0)), ((0, 0), (0, 0))), 1, 2)
    curve = ACMCurve(LinearMatrix(2, A1, A2, mat_add(A3, bump), A4))
    assert curve.certificate().ok and avoids_base_line(curve)
    path = write_doc(tmp_path, "not_invariant.json", curve_to_document(curve))
    code, out = run(capsys, ["acm", "verify", path, "--fibers", "2"])
    assert code == 1
    report = json.loads(out)
    stages = {s["stage"]: s for s in report["stages"]}
    assert stages["sigma_invariance"] == {"stage": "sigma_invariance", "ok": False}
    assert stages["base_avoidance"]["ok"] is True and stages["resolution_certificate"]["ok"] is True
    assert report["failed_stage"] == "sigma_invariance"
    assert report["passed"] is False


def test_acm_verify_slices_every_fiber_parameter(tmp_path, capsys):
    # --fibers at its bound draws all 2601 distinct parameters, each draw
    # looked up in a dict rather than scanned for in the list so far
    path = write_doc(tmp_path, "curve.json", curve_to_document(random_sigma_curve(1, 0)))
    start = time.perf_counter()
    code, out = run(capsys, ["acm", "verify", path, "--fibers", str(MAX_FIBERS)])
    assert time.perf_counter() - start < 2.0
    assert code == 0 and len(json.loads(out)["stages"][-1]["fibers"]) == MAX_FIBERS == 2601


def test_acm_verify_fails_on_degenerate_pencil(tmp_path, capsys):
    doc = {
        "r": 2,
        "A1": [["1", "0"], ["0", "0"], ["0", "0"]],
        "A2": [["0", "0"], ["0", "1"], ["1", "0"]],
        "A3": [["0", "0"], ["0", "0"], ["0", "0"]],
        "A4": [["0", "0"], ["0", "0"], ["0", "0"]],
    }
    path = write_doc(tmp_path, "bad_curve.json", doc)
    code, out = run(capsys, ["acm", "verify", path])
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["failed_stage"] is not None


def test_acm_verify_does_not_slice_a_curve_that_meets_the_base_line(tmp_path, capsys):
    # certified, but through L0, so not a curve of Z: the fibers stage fails empty
    from test_base_line import meets_base_line

    path = write_doc(tmp_path, "meets_l0.json", curve_to_document(meets_base_line(0)))
    code, out = run(capsys, ["acm", "verify", path])
    assert code == 1
    report = json.loads(out)
    stages = {s["stage"]: s for s in report["stages"]}
    assert stages["base_avoidance"]["ok"] is False
    assert stages["resolution_certificate"]["ok"] is True
    assert report["stages"][-1] == {"stage": "fibers", "ok": False, "fibers": []}
    assert report["failed_stage"] == "base_avoidance"
    assert report["passed"] is False


def test_acm_random_writes_loadable_documents(tmp_path, capsys):
    out_dir = tmp_path / "curves"
    code, out = run(
        capsys,
        ["acm", "random", "--r", "2", "--count", "2", "--seed", "0", "--out", str(out_dir)],
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["written"] == ["curve_r2_s0_000.json", "curve_r2_s0_001.json"]
    for name in summary["written"]:
        curve = document_to_curve(json.loads((out_dir / name).read_text()))
        assert curve.certificate().ok


def test_rational_explicit_map(tmp_path, capsys):
    path = write_doc(tmp_path, "cubic.json", CUBIC_DOC)
    code, out = run(capsys, ["rational", "--map", path])
    assert code == 0
    doc = json.loads(out)
    assert (doc["a"], doc["b"]) == (5, 5)
    assert doc["stable"] is True
    assert doc["riemann_roch"] is True


def test_rational_random_histogram(capsys):
    code, out = run(capsys, ["rational", "--d", "3", "--count", "5", "--seed", "2"])
    assert code == 0
    doc = json.loads(out)
    assert sum(doc["histogram"].values()) == 5
    for key in doc["histogram"]:
        a, b = (int(x) for x in key.split(","))
        assert a + b == 10


def test_metric_scan_writes_gram_csv(tmp_path, capsys):
    out_dir = tmp_path / "metric"
    argv = [
        "metric", "--r", "1", "--count", "2", "--seed", "4", "--out", str(out_dir),
    ]
    code, out = run(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["signatures"] == [[4, 0], [4, 0]]
    for index in range(2):
        csv = (out_dir / f"gram_point_{index:02d}.csv").read_text().strip().splitlines()
        assert len(csv) == 4
        assert all(len(row.split(",")) == 4 for row in csv)
    assert (out_dir / "metric_report.json").exists()


def test_metric_at_r6_accepts_its_slices(capsys):
    # an absolute slice residual rejected every slice of this chart (exit 4)
    code, out = run(capsys, ["metric", "--r", "6", "--count", "1", "--seed", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["signatures"] == [[36, 48]]


def test_cohomology_table_matches_frozen_row(capsys):
    code, out = run(capsys, ["cohomology", "table", "--r", "2", "--seed", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ellia_stable"] is True
    assert doc["rows"][0] == {"k": -1, "h0": 0, "h1": 0, "h2": 2, "h3": 0}


def test_cohomology_table_accepts_curve_file(tmp_path, capsys):
    path = write_doc(tmp_path, "curve.json", curve_to_document(random_sigma_curve(2, 2)))
    code, out = run(capsys, ["cohomology", "table", "--curve", path])
    assert code == 0
    assert json.loads(out)["input"] == path


def test_cohomology_table_reports_a_failed_certificate(tmp_path, capsys):
    # every maximal minor has the factor x0, so the certificate fails and
    # there is no table to read
    doc = curve_to_document(ACMCurve(_common_factor_matrix(2, (X0,), seed=2)))
    path = write_doc(tmp_path, "common_factor.json", doc)
    code = main(["cohomology", "table", "--curve", path])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    report = json.loads(captured.out)
    assert report["passed"] is False
    assert report["failed_stage"] == "resolution_certificate"
    (stage,) = report["stages"]
    assert stage["ok"] is False and stage["mismatches"]


def test_exit_2_on_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert run(capsys, ["acm", "verify", str(path)])[0] == 2


@pytest.mark.parametrize(
    "name, data",
    # nested deeper than the JSON decoder's stack; not UTF-8
    [("deep.json", b"[" * 200_000), ("latin.json", b"\xff\xfe{}")],
    ids=["deep", "undecodable"],
)
def test_exit_2_on_undecodable_document(name, data, tmp_path, capsys):
    path = tmp_path / name
    path.write_bytes(data)
    for argv in (["acm", "verify", str(path)], ["rational", "--map", str(path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "command",
    [["acm", "verify"], ["cohomology", "table", "--curve"], ["rational", "--map"]],
    ids=["acm-verify", "cohomology-table", "rational"],
)
def test_exit_2_on_oversized_integer(command, tmp_path, capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no limit on integer digits")
    path = tmp_path / "huge.json"
    path.write_text('{"r": ' + "1" * (limit + 1) + "}")
    assert main(command + [str(path)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and captured.out == ""


def test_exit_2_on_missing_file(capsys):
    assert run(capsys, ["acm", "verify", "/nonexistent/curve.json"])[0] == 2


@pytest.mark.parametrize("literal", ["1+i", "٣"])
def test_exit_2_on_bad_literal(literal, tmp_path, capsys):
    doc = curve_to_document(random_sigma_curve(1, 0))
    doc["A1"][0][0] = literal
    path = write_doc(tmp_path, "literal.json", doc)
    assert run(capsys, ["acm", "verify", path])[0] == 2


@pytest.mark.parametrize("literal", ["1/0", "1/0i", "2+1/0i"])
def test_exit_2_on_zero_denominator(literal, tmp_path, capsys):
    doc = curve_to_document(random_sigma_curve(1, 0))
    doc["A2"][1][0] = literal
    path = write_doc(tmp_path, "zero_den.json", doc)
    assert run(capsys, ["acm", "verify", path])[0] == 2
    assert run(capsys, ["cohomology", "table", "--curve", path])[0] == 2
    forms = [list(row) for row in CUBIC_DOC["forms"]]
    forms[3][3] = literal
    path = write_doc(tmp_path, "zero_den_map.json", {"forms": forms})
    assert run(capsys, ["rational", "--map", path])[0] == 2


def test_map_literal_error_names_its_reason(tmp_path, capsys):
    forms = [list(row) for row in CUBIC_DOC["forms"]]
    forms[2][1] = "1/0"
    path = write_doc(tmp_path, "zero_den_map.json", {"forms": forms})
    assert main(["rational", "--map", path]) == 2
    err = capsys.readouterr().err
    assert "bad literal '1/0' in forms[2]: zero denominator in GAUSS literal" in err


def test_exit_3_on_wrong_shape(tmp_path, capsys):
    doc = curve_to_document(random_sigma_curve(1, 0))
    doc["A1"] = [["1"]]
    path = write_doc(tmp_path, "shape.json", doc)
    assert run(capsys, ["acm", "verify", path])[0] == 3


def test_exit_3_on_non_object_document(tmp_path, capsys):
    path = write_doc(tmp_path, "list.json", [1, 2, 3])
    assert run(capsys, ["acm", "verify", path])[0] == 3


def test_exit_3_on_map_with_base_point(tmp_path, capsys):
    path = write_doc(tmp_path, "base.json", BASE_POINT_DOC)
    assert run(capsys, ["rational", "--map", path])[0] == 3


def test_exit_3_on_ragged_map_rows(tmp_path, capsys):
    doc = {"forms": [["1", "0"], ["0", "1"], ["1"], ["0", "1"]]}
    path = write_doc(tmp_path, "ragged.json", doc)
    assert run(capsys, ["rational", "--map", path])[0] == 3


def test_exit_3_on_boolean_r(tmp_path, capsys):
    doc = curve_to_document(random_sigma_curve(1, 0))
    doc["r"] = True
    path = write_doc(tmp_path, "bool_r.json", doc)
    assert run(capsys, ["acm", "verify", path])[0] == 3


def test_exit_3_on_r_above_document_ceiling(tmp_path, capsys, monkeypatch):
    # the ceiling is checked before any matrix literal is read
    doc = {"r": MAX_DOCUMENT_R + 1, "A1": "unread", "A2": [], "A3": None}
    monkeypatch.setattr("hkcurves.cli._literal_matrix", None)
    path = write_doc(tmp_path, "big_r.json", doc)
    assert run(capsys, ["acm", "verify", path])[0] == 3


def test_map_degree_ceiling_stops_before_any_rank(tmp_path, capsys, monkeypatch):
    # one degree past the ceiling: a map document exits 3 before any
    # literal is read, and --d exits 2 in the parser; nothing is ranked
    for name in ("normal_splitting_type", "random_rational_map", "_literal"):
        monkeypatch.setattr(f"hkcurves.cli.{name}", None)
    # the CLI validates a map through `RationalCurveMap.validation`
    monkeypatch.setattr("hkcurves.rational_curve.validate_map", None)
    monkeypatch.setattr("hkcurves.exact_algebra.modp.rank_mod", None)
    path = write_doc(tmp_path, "big_map.json", {"forms": [["1"] * (MAX_MAP_DEGREE + 2)] * 4})
    assert main(["rational", "--map", path]) == 3
    assert f"degree {MAX_MAP_DEGREE + 1} exceeds the ceiling" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["rational", "--d", str(MAX_MAP_DEGREE + 1)])
    assert exc.value.code == 2
    assert f"at most {MAX_MAP_DEGREE}" in capsys.readouterr().err


@pytest.mark.parametrize("command, ceiling", [("kronecker", MAX_PENCIL_R), ("metric", MAX_METRIC_R)])
def test_pencil_and_metric_ceilings_stop_before_any_draw(command, ceiling, capsys, monkeypatch):
    # the ceiling itself parses; one r past it exits 2 in the parser, and
    # nothing is drawn
    assert build_parser().parse_args([command, "--r", str(ceiling)]).r == ceiling
    for name in ("canonical_pair", "random_injective_pencil", "scan_chart", "extract_metric"):
        monkeypatch.setattr(f"hkcurves.cli.{name}", None)
    with pytest.raises(SystemExit) as exc:
        main([command, "--r", str(ceiling + 1), "--count", "1"])
    assert exc.value.code == 2
    assert f"at most {ceiling}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["kronecker", "--r", "0"],
        ["kronecker", "--r", "2", "--count", "0"],
        ["metric", "--r", "0"],
        ["metric", "--r", "1", "--count", "-1"],
        ["acm", "random", "--r", "0", "--out", "unused"],
        ["acm", "random", "--r", "2", "--count", "0", "--out", "unused"],
        ["acm", "verify", "unused.json", "--fibers", "0"],
        # random_fiber_parameters has 2601 distinct values to draw
        ["acm", "verify", "unused.json", "--fibers", "2602"],
        ["cohomology", "table", "--r", "0"],
        ["rational", "--d", "0"],
        ["rational", "--d", "3", "--count", "0"],
    ],
)
def test_exit_2_on_out_of_range_argument(argv, capsys, monkeypatch):
    # the parser rejects the value before any command starts work
    for name in ("cmd_kronecker", "cmd_metric", "cmd_acm_random", "cmd_acm_verify",
                 "cmd_cohomology_table", "cmd_rational"):
        monkeypatch.setattr(f"hkcurves.cli.{name}", None)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command",
    [
        ["kronecker", "--r", "2", "--count", "1"],
        ["acm", "verify", "unused.json"],
        ["acm", "random", "--r", "2"],
        ["rational", "--d", "3", "--count", "1"],
        ["metric", "--r", "2", "--count", "1"],
        ["cohomology", "table", "--r", "2"],
    ],
)
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_exit_2_when_out_is_a_file(command, under, tmp_path, capsys, monkeypatch):
    # --out must be a directory or a path that can become one: the parser
    # refuses an existing file, or a path below one, before any work, and
    # the file keeps its bytes
    for name in ("cmd_kronecker", "cmd_metric", "cmd_acm_random", "cmd_acm_verify",
                 "cmd_cohomology_table", "cmd_rational"):
        monkeypatch.setattr(f"hkcurves.cli.{name}", None)
    path = tmp_path / "notes.txt"
    path.write_bytes(b"kept\n")
    with pytest.raises(SystemExit) as exc:
        main(command + ["--out", str(path / "sub" if under else path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path} exists and is not a directory" in captured.err
    assert path.read_bytes() == b"kept\n"


@pytest.mark.parametrize("command", [["acm", "random"], ["cohomology", "table"]])
def test_exit_2_on_r_above_document_ceiling(command, tmp_path, capsys):
    # a curve above the ceiling would make documents `acm verify` refuses;
    # the parser stops it before any curve is drawn
    out = tmp_path / "out"
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(command + ["--r", str(MAX_DOCUMENT_R + 1), "--out", str(out)])
    assert exc.value.code == 2
    assert time.perf_counter() - start < 1.0
    assert not out.exists()
    assert "at most 7" in capsys.readouterr().err


def test_argparse_rejects_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_exit_4_emits_reproduction_bundle(tmp_path, capsys, monkeypatch):
    def boom(chart, **kwargs):
        raise ArithmeticError("synthetic extraction failure")

    monkeypatch.setattr("hkcurves.cli.extract_metric", boom)
    out_dir = tmp_path / "bundle"
    code, out = run(
        capsys,
        ["metric", "--r", "1", "--count", "1", "--seed", "0", "--out", str(out_dir)],
    )
    assert code == 4
    bundle = json.loads(out)
    assert bundle["command"] == "metric"
    assert bundle["error"] == "synthetic extraction failure"
    assert set(bundle["chart"]) == {"A1", "A2", "A3", "A4"}
    on_disk = json.loads((out_dir / "reproduction_bundle.json").read_text())
    assert on_disk == bundle


def _failing_first_draw(monkeypatch, name, exc):
    """Make the drawer `name` in the CLI raise `exc` for item 0 only."""
    real = getattr(cli, name)

    def draw(size, seed, *args, **kwargs):
        if seed == 0:
            raise exc
        return real(size, seed, *args, **kwargs)

    monkeypatch.setattr(cli, name, draw)


@pytest.mark.parametrize(
    "failure",
    [
        RuntimeError("no injective pencil after 64 draws (r=2, seed=0)"),
        ArithmeticError("rank 3 exceeds certified bound 2"),
    ],
    ids=["draw", "arith"],
)
def test_kronecker_draw_failure_is_an_item_error(failure, capsys, monkeypatch):
    _failing_first_draw(monkeypatch, "random_injective_pencil", failure)
    code, out = run(capsys, ["kronecker", "--r", "2", "--count", "2", "--seed", "0"])
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["results"][0] == {
        "index": 0,
        "identity": False,
        "stabilizer_dimension": None,
        "error": str(failure),
        "ok": False,
    }
    assert doc["results"][1]["ok"] is True


@pytest.mark.parametrize(
    "failure",
    [
        RuntimeError("no certified curve after 64 draws (r=2, seed=0)"),
        AssertionError("the flat chart does not give back the drawn curve"),
        ArithmeticError("Euler characteristic mismatch at twist 1"),
    ],
    ids=["draw", "check", "arith"],
)
def test_acm_random_draw_failure_is_an_item_error(failure, tmp_path, capsys, monkeypatch):
    _failing_first_draw(monkeypatch, "random_sigma_curve", failure)
    out_dir = tmp_path / "curves"
    code, out = run(
        capsys,
        ["acm", "random", "--r", "2", "--count", "2", "--seed", "0", "--out", str(out_dir)],
    )
    assert code == 1
    assert json.loads(out)["written"] == ["curve_r2_s0_001.json"]


@pytest.mark.parametrize(
    "failure",
    [
        RuntimeError("no valid map after 64 draws (d=3, seed=0)"),
        AssertionError("a failed exact check"),
    ],
    ids=["draw", "check"],
)
def test_rational_draw_failure_is_an_item_error(failure, capsys, monkeypatch):
    _failing_first_draw(monkeypatch, "random_rational_map", failure)
    code, out = run(capsys, ["rational", "--d", "3", "--count", "2", "--seed", "0"])
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["results"][0] == {"index": 0, "error": str(failure), "ok": False}
    assert doc["results"][1]["ok"] is True
    assert sum(doc["histogram"].values()) == 1



@pytest.mark.parametrize(
    "failure",
    [
        RuntimeError("no certified curve after 64 draws (r=1, seed=1)"),
        ValueError("not a flat chart"),
        AssertionError("the flat chart does not give back the drawn curve"),
        ArithmeticError("rank 3 exceeds certified bound 2"),
    ],
    ids=["draw", "value", "check", "arith"],
)
def test_metric_draw_failure_reports_its_index(failure, capsys, monkeypatch):
    real = cli.scan_chart

    def scan(r, seed, count, index, *args):
        if index == 1:
            raise failure
        return real(r, seed, count, index, *args)

    monkeypatch.setattr(cli, "scan_chart", scan)
    code, out = run(capsys, ["metric", "--r", "1", "--count", "2", "--seed", "0"])
    assert code == 1
    assert json.loads(out) == {
        "command": "metric",
        "r": 1,
        "count": 2,
        "seed": 0,
        "skip_sigma_gauge": False,
        "index": 1,
        "error": str(failure),
        "passed": False,
    }


@pytest.mark.parametrize(
    "failure",
    [
        RuntimeError("no certified curve after 64 draws (r=2, seed=0)"),
        ArithmeticError("Euler characteristic mismatch at twist 1"),
    ],
    ids=["draw", "arith"],
)
def test_cohomology_table_draw_failure_is_reported(failure, capsys, monkeypatch):
    _failing_first_draw(monkeypatch, "random_sigma_curve", failure)
    code, out = run(capsys, ["cohomology", "table", "--r", "2", "--seed", "0"])
    assert code == 1
    assert json.loads(out) == {
        "command": "cohomology table",
        "input": "random_sigma_curve(r=2, seed=0)",
        "r": 2,
        "error": str(failure),
        "passed": False,
    }

# sha256 of stdout, pinned so that changes to the exact and modular routes
# keep the reports byte for byte
TABLE_R3_SHA256 = "6f69f04ad4dd2529dd04dd4695adc66e2cadc3169b8b3fb974d0d724c18ed373"
VERIFY_R3_SHA256 = "c38fd98e7f6ea39b15409848869d8c86799d31bdd65a3fbd2b1e67521e62f709"


def test_cohomology_table_stdout_pinned(capsys):
    code, out = run(capsys, ["cohomology", "table", "--r", "3"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_R3_SHA256


def test_acm_verify_stdout_pinned(tmp_path, capsys, monkeypatch):
    # the report echoes the document path, so it is run by a fixed relative path
    monkeypatch.chdir(tmp_path)
    code, _ = run(capsys, ["acm", "random", "--r", "3", "--count", "1", "--seed", "0", "--out", "docs"])
    assert code == 0
    code, out = run(capsys, ["acm", "verify", "docs/curve_r3_s0_000.json", "--fibers", "2"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_R3_SHA256


def _degenerate_document(r):
    """The seed-0 r = 6 document cut to r, with column 0 of A2, A3 and A4
    zeroed: every maximal minor then has the factor x0."""
    doc = curve_to_document(random_sigma_curve(6, 0))
    cut = {"r": r}
    for name in ("A1", "A2", "A3", "A4"):
        rows = [row[:r] for row in doc[name][: r + 1]]
        cut[name] = rows if name == "A1" else [["0"] + row[1:] for row in rows]
    return cut


DEGENERATE_SHA256 = {
    3: "7af5e077d8dc206cd7b26c07fee7950f2dbc15930f5d0e4416804352ec1cda6f",
    4: "905b0da56cf337ad1482c5607f7fad83b78f520b231d39584c5043621be1cb13",
}


@pytest.mark.parametrize("r", [3, 4])
def test_acm_verify_degenerate_stdout_pinned(r, tmp_path, capsys, monkeypatch):
    # the failing report sweeps every level through 2r+2, and the levels that
    # fall short are ranked exactly with reversed columns: about 1 s at r = 4
    monkeypatch.chdir(tmp_path)
    write_doc(tmp_path, "degenerate.json", _degenerate_document(r))
    start = time.perf_counter()
    code, out = run(capsys, ["acm", "verify", "degenerate.json"])
    elapsed = time.perf_counter() - start
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == DEGENERATE_SHA256[r]
    assert elapsed < 30.0
