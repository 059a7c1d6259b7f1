"""Every name a package or module exports in ``__all__`` exists.

A deletion that leaves its name behind in an ``__all__`` breaks only
``from ... import *`` and readers of the export list, so nothing else
would notice it.
"""

from __future__ import annotations

import importlib
import pkgutil

import scaffscreen


def test_every_exported_name_resolves():
    names = ["scaffscreen"] + [
        info.name for info in pkgutil.walk_packages(scaffscreen.__path__, "scaffscreen.")
    ]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())
        missing += [f"{name}:{attr}" for attr in exported if not hasattr(module, attr)]
    assert {"scaffscreen.chem", "scaffscreen.diffusion", "scaffscreen.pipeline"} <= set(names)
    assert not missing, f"exported names missing: {missing}"
