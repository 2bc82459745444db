"""Rules that hold for every module under src/."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from test_resolution_exactness import X0, _common_factor_matrix
from test_tracer_pins import _load_tracer

from hkcurves.acm_curve import ACMCurve
from hkcurves.cli import curve_to_document
from hkcurves.exact_algebra.linalg import ExactMatrix
from hkcurves.exact_algebra.polys import HomogPoly

SRC = Path(__file__).resolve().parent.parent / "src"


def test_no_assert_statements():
    # python -O strips assert statements, so no check may live in one
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def _imports(path):
    """Dotted names of the modules `path` imports anywhere, relative ones resolved."""
    package = path.relative_to(SRC).with_suffix("").parts[:-1]
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if not node.level:
                yield node.module
                continue
            base = ".".join(package[: len(package) - node.level + 1])
            if node.module:
                yield f"{base}.{node.module}"
            else:
                yield from (f"{base}.{alias.name}" for alias in node.names)


def test_layering():
    # the exact core stands alone, and pencils and reality sit below the
    # curves that import them, so the Laplace kernel lives in exact_algebra;
    # inside the core, the dense matrices sit on top of the two kernels
    # they read (the sparse echelon and the Laplace pass), and only the
    # modular ranks and the Laplace kernel use numpy
    found = []
    for path in sorted((SRC / "hkcurves" / "exact_algebra").glob("*.py")):
        found += [
            f"{path.name} imports {name}"
            for name in _imports(path)
            if (name.startswith("hkcurves") and not name.startswith("hkcurves.exact_algebra"))
            or (name.split(".")[0] == "numpy" and path.name not in ("modp.py", "polys.py"))
        ]
    for name in ("scalars.py", "modp.py", "polys.py", "ideals.py"):
        path = SRC / "hkcurves" / "exact_algebra" / name
        found += [
            f"{name} imports {module}"
            for module in _imports(path)
            if module == "hkcurves.exact_algebra.linalg"
        ]
    for name in ("pencil.py", "reality.py"):
        path = SRC / "hkcurves" / name
        found += [
            f"{name} imports {module}"
            for module in _imports(path)
            if module.startswith("hkcurves.acm_curve")
        ]
    assert found == []


def _uses(name):
    """(file, is_call) for each use of `name` under src/ as a value, bare or
    as an attribute; an import or an `__all__` entry is no use."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if name in (getattr(node, "id", None), getattr(node, "attr", None)):
                yield path.relative_to(SRC).as_posix(), id(node) in called


def test_one_certified_rank_primitive():
    # every modular shortcut is a rank through `ideals.certified_rank`: it
    # alone calls `sparse_rank_certificate`, and no module but `modp` reads,
    # so none iterates, the primes
    callers = {path for path, call in _uses("sparse_rank_certificate") if call}
    assert callers == {"hkcurves/exact_algebra/ideals.py"}
    assert {path for path, _ in _uses("PRIMES")} == {"hkcurves/exact_algebra/modp.py"}


def _names(path):
    """Every name `path` uses, as a value or an attribute, or imports."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        yield from (getattr(node, key, None) for key in ("id", "attr"))
        if isinstance(node, ast.alias):
            yield node.name


def test_one_door_into_the_laplace_kernel():
    # every exact minor starts from `polys.signed_minor_table` (or, for a
    # determinant, `ExactMatrix.det`), so the kernel has one place to be
    # replaced; the pencils read that table as it is, not as forms
    named = {path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py") if "laplace" in set(_names(path))}
    assert named == {"hkcurves/exact_algebra/polys.py", "hkcurves/exact_algebra/linalg.py"}
    assert not {"HomogPoly", "signed_minors"} & set(_names(SRC / "hkcurves" / "pencil.py"))


def test_one_boundary_for_q_i_scalars():
    # `scalars` alone turns Q(i) values into Gaussian-integer pairs over one
    # denominator (`integer_pairs`) and back (`GaussianRational.over`): no
    # other module names Fraction or reads a numerator or denominator, and
    # a matrix is born with its integer form, not given it lazily
    found = sorted(
        f"{path.relative_to(SRC).as_posix()} uses {name}"
        for path in SRC.rglob("*.py")
        if path.name != "scalars.py"
        for name in {"Fraction", "numerator", "denominator"} & set(_names(path))
    )
    assert found == []
    assert "integer_form" in ExactMatrix.__slots__ and "_form" not in ExactMatrix.__slots__


def test_exact_objects_are_built_from_integer_numerators():
    # the library builds its matrices and forms from Gaussian-integer
    # numerators: only the literals of a CLI document and the traced
    # `kernel_basis` build a matrix from Q(i) entries, only `ExactMatrix`,
    # a map's rows and `scalars` itself clear Q(i) values to pairs, and a
    # form has one constructor, from its numerators, with no back door
    assert sorted(_call_sites("ExactMatrix")) == [
        ("hkcurves/cli.py", "_literal_matrix"),
        ("hkcurves/exact_algebra/linalg.py", "kernel_basis"),
    ]
    assert sorted(site for site in _call_sites("integer_pairs") if site[0] != "hkcurves/exact_algebra/scalars.py") == [
        ("hkcurves/exact_algebra/linalg.py", "__init__"),
        ("hkcurves/rational_curve.py", "_rows"),
    ]
    assert list(inspect.signature(HomogPoly).parameters) == ["num_vars", "degree", "terms", "den"]
    assert list(_call_sites("__new__")) == [("hkcurves/exact_algebra/linalg.py", "from_integer_form")]


def test_one_seeded_drawer():
    # every retry-until-accepted draw goes through `scalars.first_draw`, so
    # there is one bound, one rejection rule and one failure: no loop under
    # src/ runs unbounded, and only `scalars` loops over range(MAX_DRAWS)
    unbounded, bounded = [], set()
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.While) and isinstance(node.test, ast.Constant) and node.test.value is True:
                unbounded.append(f"{name}:{node.lineno}")
            elif isinstance(node, (ast.For, ast.comprehension)) and isinstance(node.iter, ast.Call):
                if getattr(node.iter.func, "id", None) == "range" and "MAX_DRAWS" in set(map(ast.unparse, node.iter.args)):
                    bounded.add(name)
    assert unbounded == []
    assert bounded == {"hkcurves/exact_algebra/scalars.py"}


def test_one_witness_for_a_common_zero():
    # a proven common zero of binary forms (a pencil's minors, a map's forms
    # or its Jacobian minors) is named by `polys.binary_common_zero` alone:
    # no other module takes an exact gcd or numeric roots
    gcd_callers = {path for path, call in _uses("uni_gcd") if call}
    root_namers = {path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py") if "roots" in set(_names(path))}
    assert gcd_callers == root_namers == {"hkcurves/exact_algebra/polys.py"}


def _call_sites(name):
    """(file, innermost enclosing function or None) of each call of `name`
    under src/, bare or as an attribute."""
    def visit(node, where, file):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            yield file, where
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where, file)

    for path in sorted(SRC.rglob("*.py")):
        yield from visit(ast.parse(path.read_text(), filename=str(path)), None, path.relative_to(SRC).as_posix())


def test_one_validation_per_map():
    # a map is validated once, by the cached `RationalCurveMap.validation`,
    # the only caller of `validate_map` under src/; every other reader
    # reads the property
    assert list(_call_sites("validate_map")) == [("hkcurves/rational_curve.py", "validation")]


def test_one_draw_failure_tuple():
    # every CLI command catches a failed draw by `_DRAW_FAILURES`, so the
    # drawers' RuntimeError is named in cli.py there and nowhere else
    tree = ast.parse((SRC / "hkcurves" / "cli.py").read_text())
    (tuple_,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_DRAW_FAILURES"
    ]

    def named(root):
        return [node for node in ast.walk(root) if getattr(node, "id", None) == "RuntimeError"]

    assert len(named(tree)) == len(named(tuple_)) == 1

    # and every drawer call sits in a try whose every handler is that tuple
    drawers = {"random_injective_pencil", "random_sigma_curve", "random_rational_map", "scan_chart"}
    guarded = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Try):
            if all(getattr(h.type, "id", None) == "_DRAW_FAILURES" for h in node.handlers):
                guarded.extend(id(call) for stmt in node.body for call in ast.walk(stmt))
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in drawers
    ]
    assert len(calls) == 5
    assert all(id(call) in guarded for call in calls)


def test_optimized_run_matches(tmp_path):
    # seeded slices under python -O must behave exactly as without them,
    # the resolution certificate and the cohomology table included, and so
    # must the failing sweep of a document whose minors share the factor x0
    env = dict(os.environ, PYTHONPATH=str(SRC))
    common = tmp_path / "common_factor.json"
    common.write_text(json.dumps(curve_to_document(ACMCurve(_common_factor_matrix(2, (X0,), seed=2)))))
    for command, code in (
        (["kronecker", "--r", "3", "--count", "2", "--seed", "0"], 0),
        (["metric", "--r", "2", "--count", "2", "--seed", "0"], 0),
        (["rational", "--d", "4", "--count", "3", "--seed", "0"], 0),
        (["cohomology", "table", "--r", "2"], 0),
        (["acm", "random", "--r", "2", "--count", "1", "--seed", "0", "--out", str(tmp_path)], 0),
        (["acm", "verify", str(tmp_path / "curve_r2_s0_000.json")], 0),
        (["acm", "verify", str(common)], 1),
        (["cohomology", "table", "--curve", str(common)], 1),
    ):
        runs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "hkcurves.cli", *command],
                env=env, capture_output=True, text=True, timeout=120,
            )
            for flags in (["-O"], [])
        ]
        assert [run.returncode for run in runs] == [code, code], command
        assert runs[0].stdout == runs[1].stdout, command


def test_package_roots_bind_only_modules():
    # `hkcurves` imports its submodules and binds no name of its own, no
    # package lists an `__all__`, and `import hkcurves`, the library load
    # that perfbench times as `setup_s`, loads every module but `cli`
    root = ast.parse((SRC / "hkcurves" / "__init__.py").read_text())
    doc, *imports = root.body
    assert isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant) and isinstance(doc.value.value, str)
    for node in imports:
        assert isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None, ast.unparse(node)
    assigned = [
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("__init__.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)
    ]
    assert assigned == []
    modules = {
        ".".join(path.relative_to(SRC).with_suffix("").parts[: -1 if path.name == "__init__.py" else None])
        for path in (SRC / "hkcurves").rglob("*.py")
    }
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, hkcurves; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'hkcurves'))"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert loaded == sorted(modules - {"hkcurves.cli"})


# The paper-facing API: names the library does not read itself, kept for callers.
API = {
    "flatness_scan": "the metric's constancy over random charts, acceptance criterion 6",
    "line_map": "the degree-1 map, the smallest rational curve the splitting tests read",
    "twisted_cubic_map": "the degree-3 map, whose normal bundle the acceptance criterion splits",
    "fiber_generators": "the slice ideal's generators, the fiber's exact description",
    "fiber_multiplication_matrices": "the slice's multiplication operators, whose eigenvalues are the fiber points",
    "sample_parameters": "the plane parameters a metric extraction samples, for callers choosing their own",
}


def _modules():
    """(path, dotted module name, parsed tree) of every module under src/hkcurves."""
    for path in sorted((SRC / "hkcurves").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts[: -1 if path.name == "__init__.py" else None]
        yield path, ".".join(parts), ast.parse(path.read_text(), filename=str(path))


def test_every_public_name_has_a_reader_in_the_library():
    # a public function, class or method that nothing under src/ reads
    # outside its own body serves only the tests: it belongs in tests/,
    # unless it is paper-facing API or the benchmark's tracer pins it
    trees, traced = list(_modules()), set(_load_tracer().TRACED.values())
    readers = {}
    for _, _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                readers.setdefault(getattr(node, "id", None) or node.attr, []).append(node)
    unread = []
    for _, module, tree in trees:
        for node in tree.body:
            members = [(node.name, node)] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []
            if isinstance(node, ast.ClassDef):
                members += [(f"{node.name}.{item.name}", item) for item in node.body if isinstance(item, ast.FunctionDef)]
            for path, member in members:
                if member.name.startswith("_") or (module, path) in traced or member.name in API:
                    continue
                own = {id(n) for n in ast.walk(member)}
                if all(id(n) in own for n in readers.get(member.name, [])):
                    unread.append(f"{module}.{path}")
    assert unread == []


def test_no_module_imports_a_name_it_never_reads():
    # `cohomology` keeps `sparse_row_rank`: perfbench/tracer.py patches that
    # name there to count the exact fallbacks
    unread = []
    for path, module, tree in _modules():
        if path.name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                unread += [
                    f"{module}.{alias.asname or alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name.split(".")[0]) not in read
                ]
    assert [name for name in unread if name != "hkcurves.cohomology.sparse_row_rank"] == []


def test_import_leaves_numpy_random_unloaded():
    # numpy.random adds about 5 MB of RSS to every command and to the
    # library load perfbench times; only the slice pass reads it, on first use
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, hkcurves; print('numpy' in sys.modules, 'numpy.random' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert loaded == ["True", "False"]
