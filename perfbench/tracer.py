"""Spans around calls into the library's public functions, from outside it.

``Tracer.install`` wraps each function in ``TRACED`` and puts the wrapper
wherever the original is looked up: on its class for methods, and under
every name in every ``hkcurves`` module that holds the original for
functions (modules import each other's functions by name, e.g.
``pencil.rank_mod`` or ``twistor_metric.fiber_points``).  Each call
records a span (name, start, end, parent); spans stay in memory and are
written out when the run ends.  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

# metric name -> (defining module, attribute path); the metric's first part
# names the layer
TRACED: Dict[str, Tuple[str, str]] = {
    "linalg.matmul": ("hkcurves.exact_algebra.linalg", "ExactMatrix.__matmul__"),
    "linalg.det": ("hkcurves.exact_algebra.linalg", "ExactMatrix.det"),
    "linalg.rank": ("hkcurves.exact_algebra.linalg", "ExactMatrix.rank"),
    "linalg.kernel_basis": ("hkcurves.exact_algebra.linalg", "ExactMatrix.kernel_basis"),
    "linalg.inverse": ("hkcurves.exact_algebra.linalg", "ExactMatrix.inverse"),
    "polys.HomogPoly_mul": ("hkcurves.exact_algebra.polys", "HomogPoly.__mul__"),
    "polys.uni_interpolate": ("hkcurves.exact_algebra.polys", "uni_interpolate"),
    "polys.uni_gcd": ("hkcurves.exact_algebra.polys", "uni_gcd"),
    "ideals.dimension": ("hkcurves.exact_algebra.ideals", "GradedIdeal.dimension"),
    "ideals.quotient_basis": ("hkcurves.exact_algebra.ideals", "GradedIdeal.quotient_basis"),
    "ideals.normal_form": ("hkcurves.exact_algebra.ideals", "GradedIdeal.normal_form"),
    "ideals.sparse_row_rank": ("hkcurves.exact_algebra.ideals", "sparse_row_rank"),
    "modp.rows_mod": ("hkcurves.exact_algebra.modp", "rows_mod"),
    "modp.rank_mod": ("hkcurves.exact_algebra.modp", "rank_mod"),
    "modp.sparse_rank_certificate": ("hkcurves.exact_algebra.modp", "sparse_rank_certificate"),
    "pencil.is_injective_pencil": ("hkcurves.pencil", "is_injective_pencil"),
    "pencil.kronecker_reduce": ("hkcurves.pencil", "kronecker_reduce"),
    "pencil.pair_stabilizer_dimension": ("hkcurves.pencil", "pair_stabilizer_dimension"),
    "reality.make_sigma_invariant_pencil": ("hkcurves.reality", "make_sigma_invariant_pencil"),
    "reality.is_sigma_invariant_ideal": ("hkcurves.reality", "is_sigma_invariant_ideal"),
    "acm_curve.ACMCurve": ("hkcurves.acm_curve.curve", "ACMCurve.__init__"),
    "acm_curve.certify_resolution": ("hkcurves.acm_curve.curve", "certify_resolution"),
    "acm_curve.restrict_to_fiber": ("hkcurves.acm_curve.fibers", "restrict_to_fiber"),
    "acm_curve.fiber_points": ("hkcurves.acm_curve.fibers", "fiber_points"),
    "cohomology.ideal_cohomology": ("hkcurves.cohomology", "ideal_cohomology"),
    "cohomology.normal_sections": ("hkcurves.cohomology", "normal_sections"),
    "twistor_metric.normalize_to_flat_chart": ("hkcurves.twistor_metric", "normalize_to_flat_chart"),
    "twistor_metric.extract_metric": ("hkcurves.twistor_metric", "extract_metric"),
    "twistor_metric.point_derivative": ("hkcurves.twistor_metric", "point_derivative"),
    "twistor_metric.fit_quadratic": ("hkcurves.twistor_metric", "fit_quadratic"),
    "twistor_metric.complex_structures": ("hkcurves.twistor_metric", "complex_structures"),
    "rational_curve.validate_map": ("hkcurves.rational_curve", "validate_map"),
    "rational_curve.conormal_sections": ("hkcurves.rational_curve", "conormal_sections"),
    "rational_curve.normal_twisted_sections": ("hkcurves.rational_curve", "normal_twisted_sections"),
    "rational_curve.normal_splitting_type": ("hkcurves.rational_curve", "normal_splitting_type"),
}

# traced for the draws-per-curve ratio only
_RATIO_ONLY = {"acm_curve.random_sigma_curve": ("hkcurves.acm_curve.curve", "random_sigma_curve")}

LAYERS = sorted({name.split(".")[0] for name in TRACED})


def per_layer_metric_specs() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    specs = [("scalars.GaussianRational.calls", "count", "lower")]
    for name in TRACED:
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower")]
    specs += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    specs += [
        ("modp.bad_primes", "count", "lower"),
        ("modp.certified_share", "ratio", "higher"),
        ("acm_curve.draws_per_curve", "draws/curve", "lower"),
        ("acm_curve.fiber_points.failed", "count", "lower"),
        ("cohomology.exact_fallbacks", "count", "lower"),
        ("twistor_metric.fibers_rejected", "count", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return specs


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self.failures: Counter = Counter()  # (name, exception class name)
        self.scalar_constructions = 0
        self.certificates_true = 0
        self.cohomology_exact_fallbacks = 0
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span(self, name: str, fn):
        spans, stack, failures = self.spans, self._stack, self.failures
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                failures[(name, type(exc).__name__)] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return functools.wraps(fn)(wrapper)

    def _replace_everywhere(self, orig, new) -> None:
        for module_name, module in sorted(sys.modules.items()):
            if module_name.startswith("hkcurves") and module is not None:
                for alias, value in list(vars(module).items()):
                    if value is orig:
                        self._set(module, alias, new)

    def install(self) -> None:
        for name, (module_name, path) in {**TRACED, **_RATIO_ONLY}.items():
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                wrapper = self._span(name, orig)
                # aliases such as ExactMatrix.__mul__ = __matmul__ too
                for alias, value in list(vars(cls).items()):
                    if value is orig:
                        self._set(cls, alias, wrapper)
            else:
                orig = getattr(owner, path)
                self._replace_everywhere(orig, self._span(name, orig))
        self._install_counters()

    def _install_counters(self) -> None:
        from hkcurves import cohomology
        from hkcurves.exact_algebra import modp, scalars

        cls = scalars.GaussianRational
        init = cls.__init__

        def counting_init(obj, re=0, im=0):
            self.scalar_constructions += 1
            init(obj, re, im)

        self._set(cls, "__init__", counting_init)

        certificate = modp.sparse_rank_certificate

        def counting_certificate(*args, **kwargs):
            ok = certificate(*args, **kwargs)
            self.certificates_true += bool(ok)
            return ok

        self._replace_everywhere(certificate, counting_certificate)

        # sparse_row_rank called from cohomology is the exact fallback of the
        # modular rank sandwich
        fallback = cohomology.sparse_row_rank

        def counting_fallback(*args, **kwargs):
            self.cohomology_exact_fallbacks += 1
            return fallback(*args, **kwargs)

        self._set(cohomology, "sparse_row_rank", counting_fallback)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def write(self, path: Path) -> None:
        """One JSON object per span: id, name, start and end (s), parent id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                rec = {"id": idx, "name": name, "start": start - self._t0, "end": end - self._t0, "parent": parent}
                fh.write(json.dumps(rec) + "\n")

    def metrics(self, time_scale: float) -> Tuple[Dict[str, float], Dict[str, str]]:
        """Per-layer metric values, and the bases of the ratios among them.

        Times are multiplied by ``time_scale`` (the calibration factor).
        """
        spans = self.spans
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            self_time[name.split(".")[0]] += end - start - child[idx]
            # a nested call of the same function is already inside its caller's span
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                inclusive[name] += end - start
        out: Dict[str, float] = {"scalars.GaussianRational.calls": self.scalar_constructions}
        for name in TRACED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = inclusive[name] * time_scale
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer] * time_scale
        bad = self.failures[("modp.rows_mod", "BadPrime")]
        certs = calls["modp.sparse_rank_certificate"]
        curves = calls["acm_curve.random_sigma_curve"]
        draws = calls["reality.make_sigma_invariant_pencil"]
        fiber_failed = sum(n for (name, _), n in self.failures.items() if name == "acm_curve.fiber_points")
        # extract_metric drops a fiber when its slice points or one of its
        # point derivatives fail
        derivative_failed = sum(
            n for (name, _), n in self.failures.items() if name == "twistor_metric.point_derivative"
        )
        out.update(
            {
                "modp.bad_primes": bad,
                "modp.certified_share": self.certificates_true / certs if certs else 0.0,
                "acm_curve.draws_per_curve": draws / curves if curves else 0.0,
                "acm_curve.fiber_points.failed": fiber_failed,
                "cohomology.exact_fallbacks": self.cohomology_exact_fallbacks,
                "twistor_metric.fibers_rejected": fiber_failed + derivative_failed,
            }
        )
        bases = {
            "modp.certified_share": f"{self.certificates_true}/{certs} certificates true",
            "acm_curve.draws_per_curve": f"{draws} draws / {curves} curves",
        }
        return out, bases
