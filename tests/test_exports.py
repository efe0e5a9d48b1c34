"""Every name a module exports in ``__all__`` exists, so a stale entry
fails here instead of breaking ``from apspectra.<module> import *``."""

import importlib
import pkgutil

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
