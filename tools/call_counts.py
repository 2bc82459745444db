"""Call counts of every function and method of hkcurves while a command runs.

    python tools/call_counts.py [--out FILE] -- COMMAND [ARG ...]

Runs COMMAND with a `sitecustomize` hook first on its PYTHONPATH.  In each
Python process of the run, the hook waits for `import hkcurves` to finish,
which loads every module but `cli`, and then wraps with a counter every
module-level function and every method of a module-level class that those
modules define: plain, static and class methods, properties and cached
properties, dunders included.  Each wrapper replaces the original on its
class, and under every name that holds it in any hkcurves module, so the
modules' `from ... import` names and `cli`, imported later, call the
wrappers.  A module-level alias of a method, such as `scalars.parse_gauss`
for `GaussianRational.parse`, is counted under its own name.  A child
process inherits the hook: it is added to the PYTHONPATH of every
environment a process hands to `subprocess`.

At exit each process writes its counts; the sums over all processes go to
FILE (default: stdout, after the command's own output), one line per
wrapped name, sorted by name:

    <calls>  <calls from src/>  <module>.<qualified name>

A call is "from src/" when the nearest calling frame outside this file, the
standard library and generated code (`<string>`) lies in the imported
hkcurves package, `cli` included.  Not counted: calls through a reference
taken before the hook ran (a default argument, a container) and calls of
nested functions.  The exit status is COMMAND's.  Counting slows a run
several times over.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import importlib.util
import json
import os
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

_OUT_ENV = "HKCURVES_CALL_COUNTS"
_HOOK_ENV = "HKCURVES_CALL_COUNTS_HOOK"
_STDLIB = sysconfig.get_paths()["stdlib"]
_SKIP = (__file__, "<")


def _with_hook(env, hook: str, out: str) -> dict:
    """`env` with the hook directory first on its PYTHONPATH and the counts directory set."""
    env = dict(env)
    paths = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([hook] + [p for p in paths if p != hook])
    env[_OUT_ENV], env[_HOOK_ENV] = out, hook
    return env


# -- in each process of the run -------------------------------------------------


def install() -> None:
    """Wrap hkcurves once `import hkcurves` finishes; write the counts at exit."""
    out, hook = os.environ.get(_OUT_ENV), os.environ.get(_HOOK_ENV)
    if not out:
        return
    popen_init = subprocess.Popen.__init__

    @functools.wraps(popen_init)
    def forward(self, *args, **kwargs):
        if kwargs.get("env") is not None:
            kwargs["env"] = _with_hook(kwargs["env"], hook, out)
        popen_init(self, *args, **kwargs)

    subprocess.Popen.__init__ = forward
    counts: dict = {}
    sys.meta_path.insert(0, _AfterImport(counts))
    atexit.register(_dump, out, counts)


class _AfterImport:
    """Meta path finder: lets the other finders load `hkcurves`, then wraps it."""

    def __init__(self, counts: dict) -> None:
        self.counts = counts

    def find_spec(self, name, path=None, target=None):
        if name != "hkcurves":
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(name)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def run(module):
            exec_module(module)
            _wrap_package(module, self.counts)

        spec.loader.exec_module = run
        return spec


def _wrap_package(package, counts: dict) -> None:
    root = os.path.dirname(package.__file__) + os.sep
    modules = {name: m for name, m in sys.modules.items() if name.split(".")[0] == "hkcurves" and m is not None}
    wrapped = {}  # id(original) -> wrapper, for module-level functions
    for name, module in modules.items():
        for attr, value in list(vars(module).items()):
            if getattr(value, "__module__", None) != name or name == "hkcurves.cli":
                continue
            if isinstance(value, type):
                _wrap_class(value, f"{name}.{attr}", counts, root)
            elif callable(value):
                wrapped[id(value)] = _counter(value, f"{name}.{attr}", counts, root)
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, attr, wrapped[id(value)])


def _wrap_class(cls: type, qualname: str, counts: dict, root: str) -> None:
    for attr, value in list(vars(cls).items()):
        name = f"{qualname}.{attr}"
        if isinstance(value, (staticmethod, classmethod)):
            new = type(value)(_counter(value.__func__, name, counts, root))
        elif isinstance(value, property):
            new = property(*(f and _counter(f, name, counts, root) for f in (value.fget, value.fset, value.fdel)), value.__doc__)
        elif isinstance(value, functools.cached_property):
            new = functools.cached_property(_counter(value.func, name, counts, root))
            new.__set_name__(cls, attr)
        elif callable(value) and not isinstance(value, type):
            new = _counter(value, name, counts, root)
        else:
            continue
        setattr(cls, attr, new)


def _counter(fn, name: str, counts: dict, root: str):
    tally = counts.setdefault(name, [0, 0])

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tally[0] += 1
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_filename.startswith(_SKIP + (_STDLIB,)):
            frame = frame.f_back
        if frame is not None and frame.f_code.co_filename.startswith(root):
            tally[1] += 1
        return fn(*args, **kwargs)

    for attr in ("cache_info", "cache_clear"):  # an lru_cache keeps its handles
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    return wrapper


def _dump(out: str, counts: dict) -> None:
    if counts:
        Path(out, f"{os.getpid()}.json").write_text(json.dumps(counts))


# -- the driver --------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the counts here, not to stdout")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- COMMAND [ARG ...]")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    with tempfile.TemporaryDirectory() as tmp:
        hook, out = Path(tmp, "hook"), Path(tmp, "counts")
        hook.mkdir()
        out.mkdir()
        (hook / "sitecustomize.py").write_text(
            "import importlib.util\n"
            f"spec = importlib.util.spec_from_file_location('hkcurves_call_counts', {str(Path(__file__).resolve())!r})\n"
            "module = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(module)\n"
            "module.install()\n"
        )
        code = subprocess.run(command, env=_with_hook(os.environ, str(hook), str(out))).returncode
        totals: dict = {}
        for path in out.glob("*.json"):
            for name, (calls, inside) in json.loads(path.read_text()).items():
                total = totals.setdefault(name, [0, 0])
                total[0] += calls
                total[1] += inside
    lines = "".join(f"{calls}  {inside}  {name}\n" for name, (calls, inside) in sorted(totals.items()))
    if args.out:
        args.out.write_text(lines)
    else:
        sys.stdout.write(lines)
    return code


if __name__ == "__main__":
    sys.exit(main())
