"""Command line toolkit: reductions, curve reports, splittings, metrics.

Every command takes one explicit --seed and derives per-item seeds as
seed * count + index, so reruns with the same arguments write the same
bytes to stdout.  Items run one after another in index order.  Timing
lines go to stderr only.  Exit codes: 0 all checks passed, 1 a
verification, a seeded draw or a normalization failed, 2 unreadable input
or an out-of-range argument, 3 readable input that is not a usable object,
4 numeric extraction failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .acm_curve import (
    MAX_FIBERS,
    ACMCurve,
    LinearMatrix,
    avoids_base_line,
    fiber_hilbert_function,
    random_fiber_parameters,
    random_sigma_curve,
    restrict_to_fiber,
    stratum_check,
)
from .cohomology import cohomology_table, ellia_stability_check, normal_sheaf_report
from .exact_algebra.linalg import ExactMatrix
from .exact_algebra.scalars import GaussianRational, format_gauss, parse_gauss
from .pencil import (
    apply_gauge,
    canonical_pair,
    kronecker_reduce,
    pair_stabilizer_dimension,
    random_injective_pencil,
)
from .rational_curve import (
    RationalCurveMap,
    normal_splitting_type,
    random_rational_map,
    riemann_roch_consistent,
    stability_check,
)
from .reality import is_sigma_invariant_ideal
from .twistor_metric import extract_metric, frames_report, scan_chart

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_NUMERIC = 4

# largest curve-document r that `acm verify` takes: a generic document
# verifies in 0.06-0.10 s at r = 7 on a 2-core Xeon VM (certificate 0.04-0.06 s),
# and one whose minors share a factor, swept through 2r+2 by exact elimination,
# fails in 0.93 s at r = 4, 6.0 s at r = 5 and 26 s at r = 6 (ROADMAP item 6)
MAX_DOCUMENT_R = 7

# largest map degree that `rational` takes, by --d or as a map document:
# `rational --d D --count 1 --seed 0` runs in 0.41-0.43 s (41 MB) at D = 80,
# 1.4-1.8 s (70 MB) at D = 160 and 2.5-2.6 s (91 MB) at D = 200 on a 2-core
# Xeon VM, two runs each, about x4 in time from 80 to 160
MAX_MAP_DEGREE = 200

# largest --r of `kronecker` and of `metric`, the last r that runs in under a
# minute: both spend their time in the Laplace pass over all 2^(r+1) row
# subsets, about x2 per step of r.  On a 2-core Xeon VM, `kronecker --r R
# --count 1 --seed 0` took 2.2 s (57 MB) at R = 16, 7.0 s (126 MB) at 18 and
# 15.4 s (199 MB) at 19 at commit 03abbfb, and `metric --r R --count 1 --seed
# 0` 6.5 s (134 MB) at R = 14 and 42.8 s (333 MB) at 16 at commit 76050d2
MAX_PENCIL_R = 19
MAX_METRIC_R = 16


class ParseFailure(Exception):
    """Unreadable input: bad JSON or a bad scalar literal."""


class InvalidObject(Exception):
    """Readable input that does not describe a usable object."""


class NumericFailure(Exception):
    """Extraction broke down; carries a reproduction bundle."""

    def __init__(self, message: str, bundle: Dict[str, Any]):
        super().__init__(message)
        self.bundle = bundle


# ---------------------------------------------------------------------------
# shared plumbing

# each cmd_* returns its report document and exit code; `main` times the
# call, prints the document and writes it under --out
Report = Tuple[Dict[str, Any], int]


# what a failed draw or normalization raises: the drawer's RuntimeError, a
# rejected matrix's ValueError, a failed exact check's AssertionError
_DRAW_FAILURES = (ValueError, AssertionError, RuntimeError)


def _failed_draw(command: str, exc: Exception, **fields: Any) -> Report:
    """The report of a command that stops at a failed draw: exit 1."""
    return {"command": command, **fields, "error": str(exc), "passed": False}, EXIT_FAIL


def _stderr(message: str) -> None:
    print(message, file=sys.stderr)


def _timing(label: str, t0: float) -> None:
    _stderr(f"[time] {label}: {time.perf_counter() - t0:.3f}s")


def _emit_json(doc: Dict[str, Any], out: Optional[Path], name: Optional[str]) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    sys.stdout.write(text)
    if out is not None and name is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text)


def _write_gram_csv(path: Path, gram: np.ndarray) -> None:
    lines = [",".join(f"{x:.17g}" for x in row) for row in gram]
    path.write_text("\n".join(lines) + "\n")


def _load_json(path: str) -> Any:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the decoder's stack
        raise ParseFailure(f"{path} is not JSON: {exc}") from exc


def _matrix_literals(m: ExactMatrix) -> List[List[str]]:
    return [[format_gauss(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def _literal(entry: Any, where: str) -> GaussianRational:
    """The value of the GAUSS literal `entry`, read from `where`."""
    if not isinstance(entry, str):
        raise InvalidObject(f"entries of {where} must be literal strings")
    try:
        return parse_gauss(entry)
    except ValueError as exc:
        raise ParseFailure(f"bad literal {entry!r} in {where}: {exc}") from exc


def _literal_matrix(value: Any, rows: int, cols: int, label: str) -> ExactMatrix:
    if not isinstance(value, list) or len(value) != rows:
        raise InvalidObject(f"{label} must be a {rows} x {cols} array of literals")
    parsed = []
    for row in value:
        if not isinstance(row, list) or len(row) != cols:
            raise InvalidObject(f"{label} must be a {rows} x {cols} array of literals")
        parsed.append([_literal(entry, label) for entry in row])
    return ExactMatrix(parsed)


def curve_to_document(
    curve: ACMCurve, metadata: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    m = curve.matrix
    doc: Dict[str, Any] = {"r": m.r}
    for name in ("A1", "A2", "A3", "A4"):
        doc[name] = _matrix_literals(getattr(m, name))
    if metadata is not None:
        doc["metadata"] = metadata
    return doc


def document_to_curve(doc: Any) -> ACMCurve:
    if not isinstance(doc, dict):
        raise InvalidObject("curve document must be a JSON object")
    r = doc.get("r")
    if type(r) is not int or r < 1:
        raise InvalidObject("curve document needs an integer field r >= 1")
    if r > MAX_DOCUMENT_R:
        raise InvalidObject(f"curve document r = {r} exceeds the ceiling {MAX_DOCUMENT_R}")
    mats = {}
    for name in ("A1", "A2", "A3", "A4"):
        if name not in doc:
            raise InvalidObject(f"curve document missing field {name}")
        mats[name] = _literal_matrix(doc[name], r + 1, r, name)
    try:
        matrix = LinearMatrix(r=r, **mats)
        return ACMCurve(matrix)
    except ValueError as exc:
        raise InvalidObject(str(exc)) from exc


def document_to_map(doc: Any) -> RationalCurveMap:
    if not isinstance(doc, dict) or "forms" not in doc:
        raise InvalidObject("map document must be an object with a forms field")
    forms = doc["forms"]
    if not isinstance(forms, list) or len(forms) != 4:
        raise InvalidObject("forms must list exactly four coefficient rows")
    lengths = {len(f) for f in forms if isinstance(f, list)}
    if len(lengths) != 1 or not all(isinstance(f, list) for f in forms):
        raise InvalidObject("forms rows must be lists of one common length")
    (length,) = lengths
    if length - 1 > MAX_MAP_DEGREE:
        raise InvalidObject(f"map document degree {length - 1} exceeds the ceiling {MAX_MAP_DEGREE}")
    parsed = [tuple(_literal(entry, f"forms[{idx}]") for entry in row) for idx, row in enumerate(forms)]
    try:
        return RationalCurveMap(tuple(parsed))
    except ValueError as exc:
        raise InvalidObject(str(exc)) from exc


# ---------------------------------------------------------------------------
# kronecker


def cmd_kronecker(args: argparse.Namespace) -> Report:
    S, T = canonical_pair(args.r)

    def work(index: int) -> Dict[str, Any]:
        entry: Dict[str, Any] = {"index": index}
        try:
            A1, A2 = random_injective_pencil(args.r, args.seed * args.count + index)
            red = kronecker_reduce(A1, A2)
            identity = apply_gauge(A1, A2, red.P, red.Q) == (S, T)
        except _DRAW_FAILURES as exc:
            entry["identity"] = False
            entry["stabilizer_dimension"] = None
            entry["error"] = str(exc)
            entry["ok"] = False
            return entry
        stab = pair_stabilizer_dimension(A1, A2)
        entry["identity"] = bool(identity)
        entry["stabilizer_dimension"] = stab
        entry["ok"] = bool(identity) and stab == 1
        return entry

    results = [work(index) for index in range(args.count)]
    passed = all(e["ok"] for e in results)
    doc = {
        "command": "kronecker",
        "r": args.r,
        "count": args.count,
        "seed": args.seed,
        "results": results,
        "passed": passed,
    }
    return doc, EXIT_PASS if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# acm verify


def _certificate_stage(curve: ACMCurve) -> Dict[str, Any]:
    cert = curve.certificate()
    return {
        "stage": "resolution_certificate",
        "ok": bool(cert.ok),
        "dimensions": list(cert.dimensions),
        "expected": list(cert.expected),
        "mismatches": [list(m) for m in cert.mismatches],
    }


def _table_rows(table) -> List[Dict[str, int]]:
    return [
        {"k": k, "h0": row[0], "h1": row[1], "h2": row[2], "h3": row[3]}
        for k, row in zip(range(table.kmin, table.kmax + 1), table.rows)
    ]


def _verify_stages(
    curve: ACMCurve, seed: int, num_fibers: int
) -> List[Dict[str, Any]]:
    stages: List[Dict[str, Any]] = []
    r = curve.matrix.r

    t0 = time.perf_counter()
    stages.append({"stage": "base_avoidance", "ok": avoids_base_line(curve)})
    stages.append(
        {"stage": "sigma_invariance", "ok": is_sigma_invariant_ideal(curve.ideal.generators, r)}
    )
    stages.append(_certificate_stage(curve))
    _timing("certificates", t0)
    if not stages[-1]["ok"]:
        return stages

    t0 = time.perf_counter()
    table = cohomology_table(curve, r - 3, r + 1)
    ellia = ellia_stability_check(curve)
    stages.append(
        {
            "stage": "cohomology",
            "ok": bool(ellia),
            "table": _table_rows(table),
            "ellia_stable": bool(ellia),
        }
    )
    _timing("cohomology", t0)

    t0 = time.perf_counter()
    normal = normal_sheaf_report(curve)
    stages.append(
        {
            "stage": "normal_sections",
            "ok": bool(normal.ok),
            "h0_N": normal.sections,
            "expected": normal.expected,
            "h0_N_minus_1": normal.sections_minus_1,
            "expected_minus_1": normal.expected_minus_1,
        }
    )
    _timing("normal sections", t0)

    t0 = time.perf_counter()
    fibers = []
    # a curve that meets L0 is not a curve of Z and has no slices
    fibers_ok = avoids_base_line(curve)
    for t in random_fiber_parameters(num_fibers, seed) if fibers_ok else ():
        scheme = restrict_to_fiber(curve, t)
        stratum = stratum_check(scheme)
        length_ok = scheme.length() == curve.degree
        fibers.append(
            {
                "t": format_gauss(t),
                "length": scheme.length(),
                "expected_length": curve.degree,
                "hilbert": list(fiber_hilbert_function(scheme)),
                "stratum": bool(stratum),
            }
        )
        fibers_ok = fibers_ok and length_ok and stratum
    stages.append({"stage": "fibers", "ok": fibers_ok, "fibers": fibers})
    _timing("fibers", t0)
    return stages


def cmd_acm_verify(args: argparse.Namespace) -> Report:
    curve = document_to_curve(_load_json(args.curve))
    stages = _verify_stages(curve, args.seed, args.fibers)
    failed = next((s["stage"] for s in stages if not s["ok"]), None)
    doc = {
        "command": "acm verify",
        "input": args.curve,
        "seed": args.seed,
        "r": curve.matrix.r,
        "degree": curve.degree,
        "genus": curve.genus,
        "stages": stages,
        "failed_stage": failed,
        "passed": failed is None,
    }
    return doc, EXIT_PASS if failed is None else EXIT_FAIL


# ---------------------------------------------------------------------------
# acm random


def cmd_acm_random(args: argparse.Namespace) -> Report:
    def work(index: int) -> Optional[ACMCurve]:
        try:
            return random_sigma_curve(args.r, args.seed * args.count + index)
        except (ValueError, RuntimeError):
            return None

    curves = [work(index) for index in range(args.count)]
    args.out.mkdir(parents=True, exist_ok=True)
    written = []
    for index, curve in enumerate(curves):
        if curve is None:
            _stderr(f"warning: no certified curve at index {index}; skipped")
            continue
        name = f"curve_r{args.r}_s{args.seed}_{index:03d}.json"
        doc = curve_to_document(curve, metadata={"seed": args.seed, "index": index})
        (args.out / name).write_text(json.dumps(doc, indent=2) + "\n")
        written.append(name)
    summary = {
        "command": "acm random",
        "r": args.r,
        "count": args.count,
        "seed": args.seed,
        "written": written,
    }
    return summary, EXIT_PASS if len(written) == args.count else EXIT_FAIL


# ---------------------------------------------------------------------------
# rational


def cmd_rational(args: argparse.Namespace) -> Report:
    if args.map is not None:
        rmap = document_to_map(_load_json(args.map))
        validation = rmap.validation
        doc: Dict[str, Any] = {
            "command": "rational",
            "input": args.map,
            "degree": rmap.degree,
            "validation": {
                "base_point_free": validation.base_point_free,
                "immersion": validation.immersion,
                "ok": validation.ok,
                "witness": None
                if validation.witness is None
                else [format_gauss(w) for w in validation.witness],
            },
        }
        if not validation.ok:
            doc["passed"] = False
            return doc, EXIT_INVALID
        splitting = normal_splitting_type(rmap)
        doc["a"] = splitting.a
        doc["b"] = splitting.b
        doc["stable"] = stability_check(splitting)
        doc["riemann_roch"] = riemann_roch_consistent(rmap, splitting)
        doc["passed"] = bool(doc["riemann_roch"])
        return doc, EXIT_PASS if doc["passed"] else EXIT_FAIL

    if args.d is None:
        raise InvalidObject("rational needs either --map FILE or --d")

    def work(index: int) -> Dict[str, Any]:
        entry: Dict[str, Any] = {"index": index}
        try:
            rmap = random_rational_map(args.d, args.seed * args.count + index)
            splitting = normal_splitting_type(rmap)
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            entry["error"] = str(exc)
            entry["ok"] = False
            return entry
        entry["a"] = splitting.a
        entry["b"] = splitting.b
        entry["stable"] = stability_check(splitting)
        entry["sum_ok"] = splitting.a + splitting.b == 4 * args.d - 2
        entry["ok"] = entry["sum_ok"]
        return entry

    results = [work(index) for index in range(args.count)]
    histogram: Dict[str, int] = {}
    for entry in results:
        if "a" in entry:
            key = f"{entry['a']},{entry['b']}"
            histogram[key] = histogram.get(key, 0) + 1
    passed = all(e["ok"] for e in results)
    stable_count = sum(1 for e in results if e.get("stable"))
    doc = {
        "command": "rational",
        "d": args.d,
        "count": args.count,
        "seed": args.seed,
        "results": results,
        "histogram": {k: histogram[k] for k in sorted(histogram)},
        "stable_fraction": stable_count / max(1, args.count),
        "passed": passed,
    }
    return doc, EXIT_PASS if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# metric


def cmd_metric(args: argparse.Namespace) -> Report:
    def extract(index: int, curve: ACMCurve):
        try:
            return extract_metric(curve)
        except (ArithmeticError, np.linalg.LinAlgError) as exc:
            bundle = {
                "command": "metric",
                "r": args.r,
                "count": args.count,
                "seed": args.seed,
                "index": index,
                "skip_sigma_gauge": args.skip_sigma_gauge,
                "chart": {
                    name: _matrix_literals(getattr(curve.matrix, name))
                    for name in ("A1", "A2", "A3", "A4")
                },
                "error": str(exc),
            }
            raise NumericFailure(str(exc), bundle) from exc

    frames = []
    for index in range(args.count):
        try:
            curve = scan_chart(args.r, args.seed, args.count, index, args.skip_sigma_gauge)
        except _DRAW_FAILURES as exc:
            return _failed_draw(
                "metric", exc, r=args.r, count=args.count, seed=args.seed,
                skip_sigma_gauge=args.skip_sigma_gauge, index=index,
            )
        frames.append(extract(index, curve))
    report = frames_report(args.r, frames, args.skip_sigma_gauge)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        for index, frame in enumerate(frames):
            _write_gram_csv(args.out / f"gram_point_{index:02d}.csv", frame.gram)
    doc = {
        "command": "metric",
        "r": args.r,
        "count": args.count,
        "seed": args.seed,
        "skip_sigma_gauge": args.skip_sigma_gauge,
        "signatures": [list(s) for s in report.signatures],
        "signature_constant": report.signature_constant,
        "max_relative_deviation": float(report.max_relative_deviation),
        "max_fit_residual": float(report.max_fit_residual),
        "max_quaternion_residual": float(report.max_quaternion_residual),
        "passed": report.passed,
    }
    return doc, EXIT_PASS if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# cohomology table


def cmd_cohomology_table(args: argparse.Namespace) -> Report:
    if args.curve is not None:
        curve = document_to_curve(_load_json(args.curve))
        source = args.curve
    else:
        if args.r is None:
            raise InvalidObject("cohomology table needs --curve FILE or --r")
        source = f"random_sigma_curve(r={args.r}, seed={args.seed})"
        try:
            curve = random_sigma_curve(args.r, args.seed)
        except _DRAW_FAILURES as exc:
            return _failed_draw("cohomology table", exc, input=source, r=args.r)
    r = curve.matrix.r
    cert = _certificate_stage(curve)
    if not cert["ok"]:
        # the table is read off the certified resolution
        doc = {
            "command": "cohomology table",
            "input": source,
            "r": r,
            "stages": [cert],
            "failed_stage": cert["stage"],
            "passed": False,
        }
        return doc, EXIT_FAIL
    table = cohomology_table(curve, r - 3, r + 1)
    ellia = ellia_stability_check(curve)
    doc = {
        "command": "cohomology table",
        "input": source,
        "r": r,
        "kmin": table.kmin,
        "kmax": table.kmax,
        "rows": _table_rows(table),
        "ellia_stable": bool(ellia),
        "passed": bool(ellia),
    }
    return doc, EXIT_PASS if ellia else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser


def positive_int(text: str) -> int:
    """Argument type for counts and sizes: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def at_most(ceiling: int) -> Callable[[str], int]:
    """Argument type for a count or size from 1 to `ceiling`."""

    def integer(text: str) -> int:
        value = positive_int(text)
        if value > ceiling:
            raise argparse.ArgumentTypeError(f"must be at most {ceiling}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hkcurves",
        description="Exact verification toolkit for determinantal space "
        "curves, their fibers, normal bundles, and metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_kron = sub.add_parser("kronecker", help="reduce random injective pencils")
    p_kron.add_argument("--r", type=at_most(MAX_PENCIL_R), required=True)
    p_kron.add_argument("--count", type=positive_int, default=10)
    p_kron.add_argument("--seed", type=int, default=0)
    p_kron.add_argument("--out", type=Path, default=None)
    p_kron.set_defaults(func=cmd_kronecker, report="kronecker_report.json", label="kronecker")

    p_acm = sub.add_parser("acm", help="determinantal curve commands")
    acm_sub = p_acm.add_subparsers(dest="acm_command", required=True)

    p_verify = acm_sub.add_parser("verify", help="full report on one curve file")
    p_verify.add_argument("curve", help="curve document (JSON)")
    # MAX_FIBERS: the distinct parameters `random_fiber_parameters` can draw
    p_verify.add_argument("--fibers", type=at_most(MAX_FIBERS), default=5)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", type=Path, default=None)
    p_verify.set_defaults(func=cmd_acm_verify, report="acm_verify_report.json", label="acm verify")

    p_random = acm_sub.add_parser("random", help="write certified curve documents")
    p_random.add_argument("--r", type=at_most(MAX_DOCUMENT_R), required=True)
    p_random.add_argument("--count", type=positive_int, default=1)
    p_random.add_argument("--seed", type=int, default=0)
    p_random.add_argument("--out", type=Path, required=True)
    # --out holds the curve documents, so the summary is not written there
    p_random.set_defaults(func=cmd_acm_random, report=None, label="acm random")

    p_rat = sub.add_parser("rational", help="splitting types of rational maps")
    p_rat.add_argument("--d", type=at_most(MAX_MAP_DEGREE), default=None)
    p_rat.add_argument("--count", type=positive_int, default=20)
    p_rat.add_argument("--seed", type=int, default=0)
    p_rat.add_argument("--map", default=None, help="explicit map document (JSON)")
    p_rat.add_argument("--out", type=Path, default=None)
    p_rat.set_defaults(func=cmd_rational, report="rational_report.json", label="rational")

    p_metric = sub.add_parser("metric", help="metric constancy scan")
    p_metric.add_argument("--r", type=at_most(MAX_METRIC_R), required=True)
    p_metric.add_argument("--count", type=positive_int, default=10)
    p_metric.add_argument("--seed", type=int, default=0)
    p_metric.add_argument("--skip-sigma-gauge", action="store_true")
    p_metric.add_argument("--out", type=Path, default=None)
    p_metric.set_defaults(func=cmd_metric, report="metric_report.json", label="metric")

    p_coh = sub.add_parser("cohomology", help="cohomology commands")
    coh_sub = p_coh.add_subparsers(dest="cohomology_command", required=True)
    p_table = coh_sub.add_parser("table", help="twisted ideal cohomology table")
    p_table.add_argument("--r", type=at_most(MAX_DOCUMENT_R), default=None)
    p_table.add_argument("--curve", default=None, help="curve document (JSON)")
    p_table.add_argument("--seed", type=int, default=0)
    p_table.add_argument("--out", type=Path, default=None)
    p_table.set_defaults(func=cmd_cohomology_table, report="cohomology_table.json", label="cohomology table")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        doc, code = args.func(args)
    except ParseFailure as exc:
        _stderr(f"parse error: {exc}")
        return EXIT_PARSE
    except InvalidObject as exc:
        _stderr(f"invalid input object: {exc}")
        return EXIT_INVALID
    except NumericFailure as exc:
        _stderr(f"numeric extraction failure: {exc}")
        _emit_json(exc.bundle, args.out, "reproduction_bundle.json")
        return EXIT_NUMERIC
    _emit_json(doc, args.out, args.report)
    _timing(args.label, t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
