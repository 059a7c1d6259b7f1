"""The benchmark reaches into the program by name and checks its outputs.

``screenbench/layertrace.py`` rebinds every ``(module, attribute)`` of its
``TARGETS`` and raises when one is missing, and its counters read some
positional arguments of the traced calls. A rename or deletion in the
program that breaks either should fail here before it breaks a traced
benchmark run. The module is loaded from its path and never installed.
``screenbench/decks.py`` builds the workloads' assays from names it imports
from ``scaffscreen.chem``, so those must resolve too.

``screenbench/checks.py`` recomputes the report's lambda sweep from the
cells' rerank.csv files; the mini run's report must equal that oracle.

The trace's ``selftrain.sgd_rows`` sums ``len(labels)`` over the calls of
``selftrain.loss_and_grad``, so that count holds only while each call's
labels are the minibatches of the cells it steps, as checked here for one
cell and for a split's three cells in lockstep. The trace's pseudo-label
count unpacks ``self_train``'s ``(model, history)``.

The trace's ``diffusion.posterior_distributions.self_s`` times the calls
of ``diffusion.sampler.posterior_distributions``, so the reverse-diffusion
loop must compute its posterior rows through that module binding: one call
for the node rows and one for the pair rows per step.

Likewise the trace's chem figures count and time ``parse_smiles``,
``murcko_scaffold``, ``check_valence`` and ``to_smiles`` only where the
program calls them through a module binding that ``install()`` rebinds. The
mini deck's ingest, split, augment and report steps must each reach theirs
that way; a step that routes around them reads 0 in the trace.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import shutil
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from scaffscreen import selftrain
from scaffscreen.chem import parse_smiles
from scaffscreen.diffusion import (
    CosineSchedule,
    MarginalDenoiser,
    compute_marginals,
    generate_scaffold_extensions,
)
from scaffscreen.diffusion import sampler
from scaffscreen.pipeline.ingest import ingest
from scaffscreen.pipeline.runner import derive_seed, rebuild_report, write_augmentation
from scaffscreen.pipeline.splits import make_splits

from helpers.decks import make_benchmark_deck

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


def test_every_name_the_deck_builder_imports_resolves():
    tree = ast.parse((SCREENBENCH / "decks.py").read_text(encoding="utf-8"))
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "scaffscreen.chem"
        for alias in node.names
    ]
    chem = importlib.import_module("scaffscreen.chem")
    assert names, "screenbench/decks.py no longer imports from scaffscreen.chem"
    missing = [name for name in names if not hasattr(chem, name)]
    assert not missing, f"deck builder imports missing from scaffscreen.chem: {missing}"


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


def test_sgd_rows_count_one_loss_call_per_minibatch(monkeypatch):
    deck = make_benchmark_deck(seed=5, n_molecules=150)
    mols = [parse_smiles(smiles) for smiles in deck.smiles]
    labels = np.array(deck.labels, dtype=np.int64)

    def labeled(rows):
        return selftrain.LabeledSet(
            molecules=tuple(mols[i] for i in rows),
            labels=labels[list(rows)],
        )

    train, validation = labeled(range(100)), labeled(range(100, 150))
    pool = tuple(mols[i] for i in np.flatnonzero(labels == 1))
    config = selftrain.SelfTrainConfig(
        epochs=8, warmup_epochs=2, refresh_period=1, confidence_threshold=0.5,
        nbits=256, batch_size=16, seed=3,
    )
    calls = []
    original = selftrain.loss_and_grad

    def counting(weights, biases, batch, labels, l2_penalty):
        calls.append(len(labels))
        return original(weights, biases, batch, labels, l2_penalty)

    def epoch_rows(record):
        actives = int(train.labels.sum()) + record.n_pseudo
        inactives = train.size - int(train.labels.sum())
        return 2 * max(actives, inactives)  # the minority class is oversampled to 1:1

    monkeypatch.setattr(selftrain, "loss_and_grad", counting)
    model, history = selftrain.self_train(train, pool, validation, config)
    assert isinstance(model, selftrain.FingerprintClassifier)
    expected = []
    for record in history:
        rows = epoch_rows(record)
        expected += [min(config.batch_size, rows - start) for start in range(0, rows, 16)]
    assert sum(record.n_pseudo for record in history) > 0
    assert calls == expected

    calls.clear()
    configs = [dataclasses.replace(config, seed=seed) for seed in (3, 4, 5)]
    cells = selftrain.self_train_cells(train, pool, validation, configs)
    assert sum(calls) == sum(epoch_rows(r) for _, history in cells for r in history)
    # The inactives outnumber the actives in every cell, so the cells step together.
    assert len(calls) == len(expected)


def test_each_reverse_step_makes_two_posterior_calls(monkeypatch):
    marginals = compute_marginals([parse_smiles(s) for s in ("CCO", "c1ccccc1", "CCN(CC)CC")])
    scaffolds = [parse_smiles(s) for s in ("c1ccccc1", "C1CCCCC1", "c1ccccc1")]
    schedule = CosineSchedule(timesteps=7)
    calls = []
    original = sampler.posterior_distributions

    def counting(t, current, pred, prior, schedule):
        calls.append(t)
        return original(t, current, pred, prior, schedule)

    monkeypatch.setattr(sampler, "posterior_distributions", counting)
    entries, _ = generate_scaffold_extensions(
        scaffolds, [0, 1, 0], MarginalDenoiser(marginals), marginals, schedule, seed=5
    )
    assert len(entries) == 3
    assert calls == [t for t in range(7, 0, -1) for _ in range(2)]


CHEM_SPANS = ("chem.parse_smiles", "chem.murcko_scaffold", "chem.check_valence", "chem.to_smiles")


def _count_chem_calls(monkeypatch) -> Counter:
    """Rebind the traced chem functions as ``install()`` does, with counting wrappers."""
    importlib.import_module("scaffscreen.pipeline.cli")  # every module that copies a binding
    counts: Counter = Counter()
    for span, module_name, attribute in _targets():
        if span not in CHEM_SPANS:
            continue
        original = _resolve(module_name, attribute)

        def counting(*args, _span=span, _original=original, **kwargs):
            counts[_span] += 1
            return _original(*args, **kwargs)

        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("scaffscreen"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    monkeypatch.setattr(loaded, key, counting)
    return counts


@pytest.mark.filterwarnings("ignore:.*active fraction.*:UserWarning")
def test_the_pipeline_calls_chem_through_the_traced_bindings(
    mini_run, mini_config, tmp_path, monkeypatch
):
    counts = _count_chem_calls(monkeypatch)
    assert set(span for span, _, _ in _targets()) >= set(CHEM_SPANS)
    reached = {}

    def step(name, call):
        counts.clear()
        result = call()
        reached[name] = {span for span in CHEM_SPANS if counts[span] > 0}
        return result

    assay = step("ingest", lambda: ingest(mini_config.assay))
    plan = step("split", lambda: make_splits(assay, scheme="scaffold", seed=mini_config.seed))
    by_id = {r.record_id: r for r in assay.records}
    train = [by_id[i] for i in plan.splits[0].train_ids]
    seed = derive_seed(mini_config.seed, "augment", 0)
    step("augment", lambda: write_augmentation(tmp_path / "augment", train, mini_config, seed))
    run_copy = tmp_path / "run"
    shutil.copytree(mini_run, run_copy)
    step("report", lambda: rebuild_report(run_copy))

    assert reached == {
        "ingest": {"chem.parse_smiles"},
        "split": {"chem.murcko_scaffold", "chem.to_smiles"},
        "augment": {"chem.murcko_scaffold", "chem.check_valence", "chem.to_smiles"},
        "report": {"chem.parse_smiles", "chem.murcko_scaffold"},
    }
