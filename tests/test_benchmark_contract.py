"""The benchmark reaches into the program by name and checks its outputs.

``screenbench/layertrace.py`` rebinds every ``(module, attribute)`` of its
``TARGETS`` and raises when one is missing, and its counters read some
positional arguments of the traced calls. A rename or deletion in the
program that breaks either should fail here before it breaks a traced
benchmark run. The module is loaded from its path and never installed.

``screenbench/checks.py`` recomputes the report's lambda sweep from the
cells' rerank.csv files; the mini run's report must equal that oracle.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

SCREENBENCH = Path(__file__).resolve().parents[1] / "screenbench"
LAYERTRACE = SCREENBENCH / "layertrace.py"

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


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look up their module while the class is built
    spec.loader.exec_module(module)
    return module


def _targets():
    return _load("layertrace_targets", LAYERTRACE).TARGETS


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


def test_the_report_sweep_is_the_benchmark_oracle(mini_run, monkeypatch):
    monkeypatch.syspath_prepend(str(SCREENBENCH))  # checks.py imports its sibling decks.py
    checks = _load("screenbench_checks", SCREENBENCH / "checks.py")
    expected = checks.expected_sweep(mini_run, checks.Evaluation.read(mini_run / "config.ini"))
    assert (mini_run / "report" / "lambda_sweep.csv").read_text(encoding="utf-8") == expected
