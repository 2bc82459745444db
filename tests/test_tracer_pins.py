"""The benchmark tracer installs on the library's names and removes itself.

`perfbench/tracer.py` wraps the functions and methods it lists in `TRACED`
wherever the library looks them up, and patches a few counters.  A name it
pins that the library no longer defines breaks a traced benchmark run with
KeyError or AttributeError; this test finds that in the unit suite.  After
`uninstall`, every attribute it touched must be the original object again.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import hkcurves

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("hkcurves_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every hkcurves module and every class defined in one, by name."""
    for info in pkgutil.walk_packages(hkcurves.__path__, "hkcurves."):
        importlib.import_module(info.name)
    spaces = {}
    for name, module in sys.modules.items():
        if name.startswith("hkcurves") and module is not None:
            spaces[name] = module
            for attr, value in vars(module).items():
                if isinstance(value, type) and value.__module__ == name:
                    spaces[f"{name}.{attr}"] = value
    return spaces


def test_tracer_installs_on_every_pinned_name_and_restores_them():
    tracer_module = _load_tracer()
    spaces = _namespaces()
    before = {name: dict(vars(space)) for name, space in spaces.items()}
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        patched = {(id(owner), attr) for owner, attr, _ in tracer._undo}
        # each traced name was found and wrapped where it is defined
        for module_name, path in tracer_module.TRACED.values():
            owner = sys.modules[module_name]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            assert (id(owner), attr) in patched, path
    finally:
        tracer.uninstall()
    for name, space in spaces.items():
        after = vars(space)
        changed = [attr for attr, value in before[name].items() if after.get(attr) is not value]
        assert changed == [], name
