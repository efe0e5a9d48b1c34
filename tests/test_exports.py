"""Every name a module exports in ``__all__`` exists, so a stale entry
fails here instead of breaking ``from apspectra.<module> import *``; the
package root imports no submodule, the command line needs nothing but
the standard library and numpy, and an orbit command loads neither the
thread pool nor the traceback module it does not use, nor OpenSSL, and
no command builds dataclasses; an orbit command peaks close to its own
import; one function of the package, the exponential kernel, calls
``np.exp``; only folner reads the pieces of its window segments; and
every command runs on one thread: no module imports a thread pool or
reads a thread count, and every handler takes the config alone."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import apspectra
from apspectra import cli
from test_acceptance import DETERMINISM_CONFIGS


def test_every_exported_name_resolves():
    names = [m.name for m in pkgutil.iter_modules(apspectra.__path__)]
    assert {"folner", "points", "almost", "spectral", "diffraction",
            "config", "cli"} <= set(names)
    stale = []
    for name in names:
        module = importlib.import_module(f"apspectra.{name}")
        stale += [f"{name}.{export}" for export in getattr(module, "__all__", ())
                  if not hasattr(module, export)]
    assert not stale


def exp_owners(path: Path) -> list[str]:
    """The innermost function around each ``np.exp`` (or ``numpy.exp``)
    of a module, or ``<module>`` for one outside every function."""
    owners = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{path.stem}.{node.name}"
        elif isinstance(node, ast.Lambda):
            owner = f"{path.stem}.<lambda>"
        if (isinstance(node, ast.Attribute) and node.attr == "exp"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            owners.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)
    visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.<module>")
    return owners


def test_the_exponential_kernel_is_the_one_caller_of_exp():
    # every character, direct grid row and density phase comes from
    # folner.phases, so its phase reduction holds for all of them
    package = Path(apspectra.__file__).parent
    owners = [owner for path in sorted(package.glob("*.py"))
              for owner in exp_owners(path)]
    assert owners == ["folner.phases"]


# what a WindowSegments holds of its pieces and the methods that work a
# piece at a time: the piece format, which only folner reads
PIECE_FORMAT = {"pieces", "ends", "first", "last",
                "reduce", "lag_reduce", "combine", "totals"}


def piece_readers(code: str) -> list[str]:
    """Each ``name.attr`` of a module's code with ``attr`` in the piece
    format, where ``name`` is bound to a ``WindowSegments(...)`` call or
    is a parameter annotated ``WindowSegments``, and each such attribute
    of a ``WindowSegments(...)`` call itself."""
    tree = ast.parse(code)

    def is_segments(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "WindowSegments")
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and is_segments(node.value):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif (isinstance(node, ast.arg) and isinstance(node.annotation, ast.Name)
              and node.annotation.id == "WindowSegments"):
            names.add(node.arg)
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in PIECE_FORMAT
            and (is_segments(node.value) or (isinstance(node.value, ast.Name)
                                             and node.value.id in names))]


def test_only_folner_reads_the_piece_format():
    # every character, energy and lag average goes through
    # WindowSegments.sweep, the one loop over the pieces
    package = Path(apspectra.__file__).parent
    readers = [f"{path.stem}: {reader}" for path in sorted(package.glob("*.py"))
               if path.stem != "folner"
               for reader in piece_readers(path.read_text(encoding="utf-8"))]
    assert readers == []
    # each way of reaching a WindowSegments is seen; its sweep is not a read
    assert piece_readers(
        "segments = WindowSegments(w)\n"
        "segments.sweep(read).means, segments.pieces\n"
        "WindowSegments(w).totals(x)\n"
        "def f(s: WindowSegments, m):\n"
        "    return s.first, m.last\n") == [
            "segments.pieces", "WindowSegments(w).totals", "s.first"]


THREAD_MODULES = {"concurrent", "threading", "_thread", "multiprocessing"}


def thread_imports(code: str) -> list[str]:
    """Each module a code imports, at any depth, whose top package runs
    threads or processes."""
    found = []
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
    return [name for name in found if name.split(".")[0] in THREAD_MODULES]


def test_every_command_runs_on_one_thread():
    package = Path(apspectra.__file__).parent
    imports, readers = [], []
    for path in sorted(package.glob("*.py")):
        code = path.read_text(encoding="utf-8")
        imports += [f"{path.stem}: {name}" for name in thread_imports(code)]
        if "APSPECTRA_THREADS" in code:
            readers.append(path.stem)
    assert imports == []
    assert readers == []
    # each way of importing is seen, inside a function too
    assert thread_imports(
        "import os, threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "def f():\n"
        "    from concurrent import futures\n"
        "    import multiprocessing.pool as mp\n"
        "from . import threads\n") == [
            "threading", "concurrent.futures", "concurrent",
            "multiprocessing.pool"]
    # a handler takes the validated config and nothing else
    params = {name: list(inspect.signature(fn).parameters)
              for name, fn in cli._HANDLERS.items()}
    assert params == {name: ["cfg"] for name in cli._HANDLERS}


def test_imports_stay_lazy_and_need_only_numpy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import apspectra\n"
             "print(sorted(m for m in sys.modules if m.startswith('apspectra.')))\n"
             "import apspectra.cli\n"
             "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
             "print(sorted(new - set(sys.stdlib_module_names)))\n")
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n")[:2] == ["[]", "['apspectra', 'numpy']"]


SCAN_PROBE = """
import sys
import apspectra.cli
UNUSED = ("concurrent.futures", "traceback", "dataclasses", "_hashlib", "_ssl")
print(sorted(m for m in UNUSED if m in sys.modules))
try:
    apspectra.cli.main(["scan", "--config", sys.argv[1], "--out", sys.argv[2]])
except SystemExit as exc:
    print(exc.code)
print(sorted(m for m in UNUSED if m in sys.modules))
"""


def child_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return env


def test_serial_scan_skips_the_thread_pool_and_traceback(tmp_path):
    # a serial orbit command opens no thread pool, and only a crash
    # prints a traceback, so neither module is imported; records are not
    # dataclasses, whose per-class code generation would lengthen the
    # start; the config hash takes the builtin SHA-256, not OpenSSL's
    env = child_env()
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({
        "point": "periodic:AB", "range": [-4, 4], "bohr_horizon": 8,
        "schedule": {"kind": "intervals", "base": 10, "n_max": 3}}))
    res = subprocess.run([sys.executable, "-c", SCAN_PROBE, str(cfg),
                          str(tmp_path / "out")], capture_output=True,
                         text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert [lines[0]] + lines[-2:] == ["[]", "0", "[]"]
    assert (tmp_path / "out" / "scan.csv").exists()


FOOTPRINT_PROBE = """
import sys
import apspectra.cli
if len(sys.argv) > 1:
    try:
        apspectra.cli.main(sys.argv[1:])
    except SystemExit as exc:
        assert not exc.code, exc.code
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak from /proc")
def test_orbit_commands_peak_within_2_5_mib_of_the_import(tmp_path):
    # each scan and classify determinism config, in a fresh interpreter,
    # against one that only imports the command line; VmHWM, not
    # ru_maxrss, which a child takes over from its parent at exec
    def peak_kib(*args):
        res = subprocess.run([sys.executable, "-c", FOOTPRINT_PROBE, *args],
                             capture_output=True, text=True, env=child_env(),
                             timeout=120)
        assert res.returncode == 0, res.stderr
        return int(res.stdout.split()[-1])

    base = peak_kib()
    over = {}
    for i in (0, 3, 4, 9, 10):
        command, cfg = DETERMINISM_CONFIGS[i]
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(cfg))
        over[i] = peak_kib(command, "--config", str(path), "--out",
                           str(tmp_path / f"out{i}")) - base
    assert max(over.values()) <= 2.5 * 1024, over
