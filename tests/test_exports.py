"""Every name a module exports in ``__all__`` exists, so a stale entry
fails here instead of breaking ``from apspectra.<module> import *``; the
package root imports no submodule, the command line needs nothing but
the standard library and numpy, and an orbit command loads neither the
thread pool nor the traceback module it does not use, and no command
builds dataclasses."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import apspectra


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
try:
    apspectra.cli.main(["scan", "--config", sys.argv[1], "--out", sys.argv[2]])
except SystemExit as exc:
    print(exc.code)
print(sorted(m for m in ("concurrent.futures", "traceback", "dataclasses")
             if m in sys.modules))
"""


def test_serial_scan_skips_the_thread_pool_and_traceback(tmp_path):
    # a serial orbit command opens no thread pool, and only a crash
    # prints a traceback, so neither module is imported; records are not
    # dataclasses, whose per-class code generation would lengthen the start
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("APSPECTRA_THREADS", None)
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({
        "point": "periodic:AB", "range": [-4, 4], "bohr_horizon": 8,
        "schedule": {"kind": "intervals", "base": 10, "n_max": 3}}))
    res = subprocess.run([sys.executable, "-c", SCAN_PROBE, str(cfg),
                          str(tmp_path / "out")], capture_output=True,
                         text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-2:] == ["0", "[]"]
    assert (tmp_path / "out" / "scan.csv").exists()
