"""The benchmark's layer trace reaches into the program by name.

``screenbench/layertrace.py`` rebinds every ``(module, attribute)`` of its
``TARGETS`` and raises when one is missing, and its counters read some
positional arguments of the traced calls. A rename or deletion in the
program that breaks either should fail here before it breaks a traced
benchmark run. The module is loaded from its path and never installed.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "screenbench" / "layertrace.py"

# (module, attribute, position, parameter) read by the layer trace's counters;
# positions count ``self`` for methods, as the wrappers see it.
COUNTED_ARGUMENTS = (
    ("scaffscreen.fingerprints", "ecfp", 0, "mol"),
    ("scaffscreen.sampling", "cluster_scaffolds", 0, "fps"),
    ("scaffscreen.diffusion.denoisers", "MarginalDenoiser.denoise", 2, "nodes"),
    ("scaffscreen.diffusion.denoisers", "OneHotEchoDenoiser.denoise", 2, "nodes"),
    ("scaffscreen.diffusion.denoisers", "ExternalDenoiser.denoise", 2, "nodes"),
    ("scaffscreen.selftrain", "loss_and_grad", 3, "labels"),
    ("scaffscreen.rerank", "lambda_sweep", 1, "candidates"),
)


def _targets():
    spec = importlib.util.spec_from_file_location("layertrace_targets", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def _resolve(module_name: str, attribute: str):
    """The binding ``install()`` would wrap; "Class.method" reads the class dict."""
    module = importlib.import_module(module_name)
    owner_name, _, method = attribute.rpartition(".")
    if owner_name:
        return getattr(module, owner_name).__dict__[method]
    return getattr(module, attribute)


def test_every_traced_name_resolves():
    missing = []
    for _, module_name, attribute in _targets():
        try:
            _resolve(module_name, attribute)
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}:{attribute}")
    assert not missing, f"layer trace targets missing from the program: {missing}"


def test_counted_arguments_keep_their_positions():
    traced = {(module_name, attribute) for _, module_name, attribute in _targets()}
    for module_name, attribute, position, name in COUNTED_ARGUMENTS:
        assert (module_name, attribute) in traced
        parameters = list(inspect.signature(_resolve(module_name, attribute)).parameters)
        assert parameters[position] == name, f"{module_name}:{attribute} {parameters}"
