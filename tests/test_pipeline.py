from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import shlex
import shutil
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from scaffscreen.chem import check_valence, murcko_scaffold, parse_smiles, to_smiles
from scaffscreen.chem import scaffold as scaffold_module
from scaffscreen.diffusion import ProtocolError
from scaffscreen.pipeline.cli import main
from scaffscreen.pipeline.config import (
    ConfigError,
    RunConfig,
    dump_config,
    load_config,
    resolve_overrides,
)
from scaffscreen.pipeline.ingest import Assay, AssayRecord, HeaderError, ingest
from scaffscreen.metrics import RankedList
from scaffscreen.pipeline import runner
from scaffscreen.pipeline.runner import (
    augment_split,
    derive_seed,
    rebuild_report,
    rerank_cell,
    run_experiment,
    write_scores_csv,
)
from scaffscreen.rerank import LambdaReport, write_sweep_csv
from scaffscreen.selftrain import DegenerateData
from scaffscreen.pipeline.splits import (
    SplitPlan,
    TooFewScaffolds,
    assert_no_scaffold_leakage,
    make_splits,
    scaffold_key,
)
from scaffscreen.pipeline.synthetic import (
    ACTIVE_CLUSTER_SIZES,
    ACTIVE_CORES,
    make_benchmark_deck,
    make_split_corpus,
    write_deck_csv,
)

# The synthetic decks used here run well above the usual sub-percent active
# fraction on purpose, so silence just that advisory for the module.
pytestmark = pytest.mark.filterwarnings("ignore:.*active fraction.*:UserWarning")


def _record(record_id: str, smiles: str, label: int) -> AssayRecord:
    return AssayRecord(record_id, smiles, label, parse_smiles(smiles))


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


# --- configuration --------------------------------------------------------


def test_default_config_round_trips_through_ini(tmp_path):
    path = _write(tmp_path / "defaults.ini", dump_config(RunConfig()))
    assert load_config(path) == RunConfig()


def test_dump_uses_the_short_enabled_key(tmp_path):
    text = dump_config(RunConfig(augment_enabled=False))
    assert "enabled = false" in text
    assert "augment_enabled" not in text
    path = _write(tmp_path / "off.ini", text)
    assert load_config(path).augment_enabled is False


def test_load_reads_values_from_every_section(tmp_path):
    path = _write(
        tmp_path / "run.ini",
        "[run]\n"
        "assay = deck.csv\n"
        "seed = 3\n"
        "scheme = scaffold\n"
        "eval_seeds = 2\n"
        "[augment]\n"
        "enabled = no\n"
        "sampling = uniform\n"
        "timesteps = 9\n"
        "library_fraction = 0.25\n"
        "[features]\n"
        "radius = 3\n"
        "nbits = 512\n"
        "[train]\n"
        "epochs = 27\n"
        "l2_penalty = 0.01\n"
        "[evaluate]\n"
        "top_k = 50\n"
        "lambda_grid = 0, 0.5, 1\n",
    )
    config = load_config(path)
    assert config.assay == "deck.csv"
    assert config.seed == 3
    assert config.scheme == "scaffold"
    assert config.eval_seeds == 2
    assert config.augment_enabled is False
    assert config.sampling == "uniform"
    assert config.timesteps == 9
    assert config.library_fraction == 0.25
    assert config.radius == 3
    assert config.nbits == 512
    assert config.epochs == 27
    assert config.l2_penalty == 0.01
    assert config.top_k == 50
    assert config.lambda_grid == (0.0, 0.5, 1.0)
    # Everything not named keeps its default.
    assert config.warmup_epochs == RunConfig().warmup_epochs


def test_unknown_section_is_rejected(tmp_path):
    path = _write(tmp_path / "bad.ini", "[nonsense]\nfoo = 1\n")
    with pytest.raises(ConfigError, match=r"unknown config section \[nonsense\]"):
        load_config(path)


def test_unknown_key_is_rejected(tmp_path):
    path = _write(tmp_path / "bad.ini", "[run]\nseeed = 3\n")
    with pytest.raises(ConfigError, match="unknown key 'seeed'"):
        load_config(path)


@pytest.mark.parametrize(
    "body, match",
    [
        ("[run]\nseed = many\n", "bad integer"),
        ("[augment]\nlibrary_fraction = lots\n", "bad float"),
        ("[augment]\nenabled = maybe\n", "bad boolean"),
        ("[evaluate]\nlambda_grid = 0;1\n", "bad lambda grid"),
    ],
)
def test_badly_typed_values_are_rejected(tmp_path, body, match):
    path = _write(tmp_path / "bad.ini", body)
    with pytest.raises(ConfigError, match=match):
        load_config(path)


def test_missing_config_file_is_an_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(tmp_path / "absent.ini")


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"scheme": "diagonal"}, "unknown split scheme"),
        ({"sampling": "weighted"}, "unknown sampling mode"),
        ({"denoiser": "oracle"}, "unknown denoiser"),
        ({"library_fraction": 0.0}, "library_fraction"),
        ({"library_fraction": 1.5}, "library_fraction"),
        ({"eval_seeds": 0}, "eval_seeds"),
        # Each value below would fail mid-run, after artifacts are written.
        ({"nbits": 1000}, "power of two"),
        ({"nbits": 4}, "power of two"),
        ({"top_k": 0}, "top_k"),
        ({"fpr_lo": 0.1, "fpr_hi": 0.01}, "fpr_lo < fpr_hi"),
        ({"fpr_lo": 0.05, "fpr_hi": 0.05}, "fpr_lo < fpr_hi"),
        ({"fpr_lo": 0.0}, "fpr_lo < fpr_hi"),
        ({"fpr_hi": 1.5}, "fpr_lo < fpr_hi"),
        ({"lambda_grid": (0.5, 1.5)}, "lambda"),
        ({"lambda_grid": (-0.25,)}, "lambda"),
        ({"lambda_grid": ()}, "lambda_grid"),
        ({"k_min": 1}, "k_min"),
        ({"k_min": 5, "k_max": 3}, "k_min"),
        ({"top_k": 1}, "top_k"),
        ({"candidate_cap": 0}, "candidate_cap"),
        ({"bedroc_alpha": 0.0}, "bedroc_alpha"),
        ({"radius": -1}, "radius"),
        ({"timesteps": 0}, "timesteps"),
        ({"batch_size": 0}, "batch_size"),
        ({"epochs": 6, "warmup_epochs": 7}, "warmup_epochs"),
        ({"confidence_threshold": 0.0}, "confidence threshold"),
        ({"epochs": 0}, "epochs must be positive"),
        ({"refresh_period": 0}, "refresh_period"),
        ({"learning_rate": -1.0}, "learning_rate"),
        ({"learning_rate": 0.0}, "learning_rate"),
        ({"learning_rate": float("nan")}, "learning_rate"),
        ({"learning_rate": float("inf")}, "learning_rate"),
        ({"l2_penalty": -1e-4}, "l2_penalty"),
        ({"l2_penalty": float("nan")}, "l2_penalty"),
        ({"l2_penalty": float("inf")}, "l2_penalty"),
        ({"lr_decay_power": -0.5}, "lr_decay_power"),
        ({"lr_decay_power": float("nan")}, "lr_decay_power"),
        ({"lr_decay_power": float("inf")}, "lr_decay_power"),
        ({"denoiser": "external:"}, "names no command"),
        ({"denoiser": "external:   "}, "names no command"),
        ({"denoiser": 'external:"python3 x'}, "No closing quotation"),
    ],
)
def test_semantic_validation_of_fields(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        RunConfig(**kwargs)


def test_each_cell_trains_under_the_run_settings():
    config = RunConfig(epochs=30, warmup_epochs=4, refresh_period=3, learning_rate=0.05, nbits=512)
    cell = config.train_config(seed=17)
    assert (cell.epochs, cell.warmup_epochs, cell.refresh_period) == (30, 4, 3)
    assert (cell.learning_rate, cell.nbits, cell.radius, cell.seed) == (0.05, 512, 2, 17)


def test_external_denoiser_spec_is_accepted():
    config = RunConfig(denoiser="external:python3 'my helper.py' --fast")
    assert config.external_command() == ["python3", "my helper.py", "--fast"]
    assert RunConfig(denoiser="echo").external_command() is None


def test_resolve_overrides_skips_none_and_applies_values():
    base = RunConfig(seed=3)
    resolved = resolve_overrides(base, seed=None, scheme="scaffold", assay=None)
    assert resolved.seed == 3
    assert resolved.scheme == "scaffold"
    # All-None means nothing to do; the original instance comes back.
    assert resolve_overrides(base, seed=None) is base


def test_resolve_overrides_revalidates():
    with pytest.raises(ConfigError, match="unknown split scheme"):
        resolve_overrides(RunConfig(), scheme="bogus")


# --- ingestion ------------------------------------------------------------


def test_ingest_reads_valid_rows_in_order(tmp_path):
    path = _write(
        tmp_path / "deck.csv",
        "id,smiles,label\na1,c1ccccc1,1\nd1,CCO,0\nd2,CCN,0\n",
    )
    assay = ingest(path)
    assert assay.name == "deck"
    assert assay.size == 3
    assert [r.record_id for r in assay.records] == ["a1", "d1", "d2"]
    assert [r.label for r in assay.records] == [1, 0, 0]
    assert assay.records[0].mol == parse_smiles("c1ccccc1")
    assert assay.n_actives == 1
    assert assay.active_fraction == pytest.approx(1.0 / 3.0)
    assert assay.quarantined == ()


def test_unparseable_smiles_is_quarantined_not_fatal(tmp_path):
    path = _write(
        tmp_path / "deck.csv",
        "id,smiles,label\na1,c1ccccc1,1\nbad,c1ccccc,0\nd1,CCO,0\n",
    )
    assay = ingest(path)
    assert assay.size == 2
    assert len(assay.quarantined) == 1
    row = assay.quarantined[0]
    assert row.record_id == "bad"
    assert row.smiles == "c1ccccc"
    assert row.reason


def test_non_ascii_digits_are_quarantined_not_fatal(tmp_path):
    path = _write(
        tmp_path / "deck.csv",
        "id,smiles,label\na1,c1ccccc1,1\nsup,C1CC\u00b2,0\nwide,C\uff11CC\uff11,0\nd1,CCO,0\n",
    )
    assay = ingest(path)
    assert [r.record_id for r in assay.records] == ["a1", "d1"]
    assert [(row.record_id, row.reason) for row in assay.quarantined] == [
        ("sup", "unexpected character '\u00b2' at offset 4"),
        ("wide", "unexpected character '\uff11' at offset 1"),
    ]


def test_bad_label_is_quarantined_with_reason(tmp_path):
    path = _write(
        tmp_path / "deck.csv",
        "id,smiles,label\na1,CCO,2\na2,CCN,active\nd1,CCC,0\n",
    )
    assay = ingest(path)
    assert assay.size == 1
    reasons = [row.reason for row in assay.quarantined]
    assert reasons == [
        "label must be 0 or 1, got '2'",
        "label must be 0 or 1, got 'active'",
    ]


def test_duplicate_id_is_a_hard_error(tmp_path):
    path = _write(
        tmp_path / "deck.csv",
        "id,smiles,label\na1,CCO,0\na1,CCN,0\n",
    )
    with pytest.raises(HeaderError, match="duplicate id 'a1'"):
        ingest(path)


@pytest.mark.parametrize(
    "text, match",
    [
        ("", "empty file"),
        ("identifier,smiles,label\na1,CCO,0\n", "expected header"),
        ("id,smiles,label\na1,CCO\n", "expected 3 columns, got 2"),
        ("id,smiles,label\na1,CCO,0,extra\n", "expected 3 columns, got 4"),
        ("id,smiles,label\nbad,c1ccccc,0\n", "no usable rows"),
    ],
)
def test_structural_problems_raise_header_errors(tmp_path, text, match):
    path = _write(tmp_path / "deck.csv", text)
    with pytest.raises(HeaderError, match=match):
        ingest(path)


def test_blank_rows_are_skipped(tmp_path):
    path = _write(
        tmp_path / "deck.csv",
        "id,smiles,label\n\na1,CCO,0\n,,\n  \nd1,CCN,0\n",
    )
    assay = ingest(path)
    assert [r.record_id for r in assay.records] == ["a1", "d1"]


def test_cells_are_stripped_of_whitespace(tmp_path):
    path = _write(tmp_path / "deck.csv", "id, smiles ,label\n a1 , CCO , 1 \n")
    assay = ingest(path)
    assert assay.records[0].record_id == "a1"
    assert assay.records[0].smiles == "CCO"
    assert assay.records[0].label == 1


def test_quarantine_sidecar_layout(tmp_path):
    path = _write(
        tmp_path / "deck.csv",
        "id,smiles,label\na1,CCO,1\nbad1,c1ccccc,0\nbad2,CCN,7\n",
    )
    sidecar = tmp_path / "quarantine.csv"
    assay = ingest(path, quarantine_path=sidecar)
    lines = sidecar.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "id,smiles,reason"
    assert len(lines) == 1 + len(assay.quarantined)
    assert lines[2] == 'bad2,CCN,"label must be 0 or 1, got \'7\'"'


def test_high_active_fraction_warns(tmp_path):
    path = _write(
        tmp_path / "deck.csv",
        "id,smiles,label\na1,CCO,1\na2,CCN,1\nd1,CCC,0\nd2,CO,0\nd3,CN,0\n",
    )
    with pytest.warns(UserWarning, match="active fraction"):
        ingest(path)


def test_one_percent_actives_does_not_warn(tmp_path):
    rows = ["id,smiles,label", "a0,Cc1ccccc1,1"]
    rows += [f"d{i:03d},CCO,0" for i in range(99)]
    path = _write(tmp_path / "deck.csv", "\n".join(rows) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assay = ingest(path)
    assert assay.active_fraction == pytest.approx(0.01)
    assert not [w for w in caught if "active fraction" in str(w.message)]


# --- split protocol -------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_assay(split_corpus_csv) -> Assay:
    return ingest(split_corpus_csv)


def test_random_splits_partition_every_time(corpus_assay):
    plan = make_splits(corpus_assay, scheme="random", seed=3)
    all_ids = {r.record_id for r in corpus_assay.records}
    assert len(plan.splits) == 5
    for split in plan.splits:
        train, valid, test = (
            set(split.train_ids),
            set(split.valid_ids),
            set(split.test_ids),
        )
        assert train | valid | test == all_ids
        assert not (train & valid or train & test or valid & test)
        assert len(test) == 100 and len(valid) == 100 and len(train) == 300


def test_each_record_is_tested_exactly_once_across_splits(corpus_assay):
    plan = make_splits(corpus_assay, scheme="random", seed=3)
    tested = Counter()
    for split in plan.splits:
        tested.update(split.test_ids)
    assert set(tested) == {r.record_id for r in corpus_assay.records}
    assert set(tested.values()) == {1}


def test_validation_fold_is_the_previous_test_fold(corpus_assay):
    plan = make_splits(corpus_assay, scheme="random", seed=3)
    for i, split in enumerate(plan.splits):
        previous = plan.splits[(i - 1) % 5]
        assert set(split.valid_ids) == set(previous.test_ids)


def test_random_splits_are_seed_deterministic(corpus_assay):
    assert make_splits(corpus_assay, seed=3) == make_splits(corpus_assay, seed=3)
    assert make_splits(corpus_assay, seed=3) != make_splits(corpus_assay, seed=4)


def test_scaffold_splits_scaffold_each_record_once(split_corpus_csv, monkeypatch):
    # A fresh parse, so no earlier test's molecules hold memo entries.
    assay = ingest(split_corpus_csv)
    calls = Counter()
    pruned = scaffold_module.scaffold_atom_indices

    def counting(mol):
        calls[id(mol)] += 1
        return pruned(mol)

    monkeypatch.setattr(scaffold_module, "scaffold_atom_indices", counting)
    make_splits(assay, scheme="scaffold", seed=3)
    assert 0 < sum(calls.values()) <= assay.size
    assert max(calls.values()) == 1


def test_scaffold_splits_have_no_scaffold_leakage(corpus_assay):
    plan = make_splits(corpus_assay, scheme="scaffold", seed=3)
    by_id = {r.record_id: r for r in corpus_assay.records}
    for split in plan.splits:
        assert_no_scaffold_leakage(corpus_assay, split)
        # Recompute the per-fold scaffold sets from scratch as well.
        fold_keys = []
        for ids in (split.train_ids, split.valid_ids, split.test_ids):
            keys = set()
            for rid in ids:
                scaffold = murcko_scaffold(by_id[rid].mol)
                keys.add("" if scaffold is None else to_smiles(scaffold))
            fold_keys.append(keys)
        assert not (fold_keys[0] & fold_keys[1])
        assert not (fold_keys[0] & fold_keys[2])
        assert not (fold_keys[1] & fold_keys[2])
        assert split.valid_ids and split.test_ids


_MINOR_CORES = (
    "c1ccccc1",
    "C1CCCCC1",
    "c1ccncc1",
    "C1CCCC1",
    "C1CCOC1",
    "C1CCNC1",
    "C1CCSC1",
    "c1ccoc1",
    "c1ccsc1",
    "C1CCNCC1",
)


@pytest.fixture(scope="module")
def dominant_bin_assay(tmp_path_factory) -> Assay:
    """100 records: one 15-member scaffold bin plus ten bins of 8 or 9."""
    rows = ["id,smiles,label"]
    for n in range(1, 16):
        rows.append(f"dom{n:02d},{'C' * n}c1ccc2ccccc2c1,0")
    counter = 0
    for index, core in enumerate(_MINOR_CORES):
        for n in range(1, (9 if index < 5 else 8) + 1):
            rows.append(f"min{counter:03d},{'C' * n}{core},0")
            counter += 1
    path = tmp_path_factory.mktemp("bins") / "bins.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assay = ingest(path)
    assert assay.size == 100
    return assay


def test_oversized_scaffold_bin_always_lands_in_train(dominant_bin_assay):
    dominant = {f"dom{n:02d}" for n in range(1, 16)}
    plan = make_splits(dominant_bin_assay, scheme="scaffold", seed=5)
    for split in plan.splits:
        assert dominant <= set(split.train_ids)
        assert split.valid_ids and split.test_ids
        assert_no_scaffold_leakage(dominant_bin_assay, split)


def test_scaffold_splits_differ_between_split_indices(dominant_bin_assay):
    # Each split draws its own shuffle seed, so the small bins move around.
    plan = make_splits(dominant_bin_assay, scheme="scaffold", seed=5)
    assert len({split.test_ids for split in plan.splits}) > 1


def test_single_scaffold_bin_cannot_be_split(tmp_path):
    rows = ["id,smiles,label"]
    rows += [f"r{n:02d},{'C' * n}c1ccccc1,0" for n in range(1, 21)]
    path = _write(tmp_path / "one_bin.csv", "\n".join(rows) + "\n")
    with pytest.raises(TooFewScaffolds, match="0 assignable"):
        make_splits(ingest(path), scheme="scaffold", seed=1)


def test_all_acyclic_records_share_one_unsplittable_bin(tmp_path):
    rows = ["id,smiles,label"]
    rows += [f"r{n:02d},{'C' * n},0" for n in range(1, 21)]
    path = _write(tmp_path / "acyclic.csv", "\n".join(rows) + "\n")
    with pytest.raises(TooFewScaffolds, match="0 assignable"):
        make_splits(ingest(path), scheme="scaffold", seed=1)


def test_one_assignable_bin_is_still_too_few(tmp_path):
    rows = ["id,smiles,label"]
    rows += [f"big{n:02d},{'C' * (n % 9 + 1)}c1ccccc1,0" for n in range(90)]
    rows += [f"sm{n:02d},{'C' * (n + 1)}c1ccncc1,0" for n in range(10)]
    path = _write(tmp_path / "two_bins.csv", "\n".join(rows) + "\n")
    with pytest.raises(TooFewScaffolds, match="1 assignable"):
        make_splits(ingest(path), scheme="scaffold", seed=1)


def test_make_splits_validation(corpus_assay):
    with pytest.raises(ValueError, match="exactly 5 splits"):
        make_splits(corpus_assay, n_splits=4)
    with pytest.raises(ValueError, match="unknown scheme"):
        make_splits(corpus_assay, scheme="leave_one_out")
    tiny = Assay(
        name="tiny",
        records=tuple(_record(f"r{i}", "CCO", 0) for i in range(6)),
        quarantined=(),
    )
    with pytest.raises(ValueError, match="too small"):
        make_splits(tiny, scheme="random")


def test_split_plan_json_round_trip(corpus_assay, tmp_path):
    plan = make_splits(corpus_assay, scheme="random", seed=9)
    path = tmp_path / "splits.json"
    plan.to_json(path)
    assert SplitPlan.from_json(path) == plan


def test_scaffold_key_is_empty_for_acyclic_molecules():
    assert scaffold_key(_record("x", "CCO", 0)) == ""
    toluene = scaffold_key(_record("y", "Cc1ccccc1", 0))
    benzene = scaffold_key(_record("z", "c1ccccc1", 0))
    assert toluene == benzene != ""


# --- synthetic decks ------------------------------------------------------


def test_benchmark_deck_profile(benchmark_deck):
    assert benchmark_deck.size == 2000
    assert benchmark_deck.n_actives == sum(ACTIVE_CLUSTER_SIZES) == 20
    assert len(set(benchmark_deck.ids)) == 2000
    assert set(benchmark_deck.labels) == {0, 1}
    active_cores = Counter(
        core
        for core, label in zip(benchmark_deck.cores, benchmark_deck.labels)
        if label == 1
    )
    assert active_cores == dict(zip(ACTIVE_CORES, ACTIVE_CLUSTER_SIZES))


def test_benchmark_deck_molecules_are_valid(benchmark_deck):
    for smiles in benchmark_deck.smiles:
        assert check_valence(parse_smiles(smiles)).valid


def test_benchmark_deck_has_acyclic_tail(benchmark_deck):
    n_acyclic = sum(1 for core in benchmark_deck.cores if core == "")
    assert n_acyclic == round((2000 - 20) * 0.15)
    index = benchmark_deck.cores.index("")
    assert murcko_scaffold(parse_smiles(benchmark_deck.smiles[index])) is None


def test_decks_are_seed_deterministic():
    assert make_benchmark_deck(seed=41, n_molecules=50) == make_benchmark_deck(
        seed=41, n_molecules=50
    )
    assert make_benchmark_deck(seed=41, n_molecules=50) != make_benchmark_deck(
        seed=42, n_molecules=50
    )


def test_deck_too_small_for_active_profile():
    with pytest.raises(ValueError, match="too small"):
        make_benchmark_deck(n_molecules=20)


def test_committed_corpus_matches_regeneration(split_corpus_csv, tmp_path):
    regenerated = tmp_path / "regenerated.csv"
    write_deck_csv(make_split_corpus(), regenerated)
    assert regenerated.read_bytes() == Path(split_corpus_csv).read_bytes()


def test_deck_csv_layout(tmp_path):
    deck = make_benchmark_deck(seed=3, n_molecules=30)
    path = tmp_path / "deck.csv"
    write_deck_csv(deck, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "id,smiles,label"
    assert len(lines) == 31
    assert ingest(path).size == 30


# --- stage seeds and augmentation ------------------------------------------


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(7, "augment", 0) == derive_seed(7, "augment", 0)
    # Pinned so a refactor cannot silently reshuffle every stage.
    assert derive_seed(7, "augment", 0) == 1550460009449778539
    seen = {
        derive_seed(7, "augment", 0),
        derive_seed(7, "augment", 1),
        derive_seed(7, "train", 0, 0),
        derive_seed(7, "train", 0, 1),
        derive_seed(7, "train", 1, 0),
        derive_seed(8, "augment", 0),
    }
    assert len(seen) == 6
    # A string part is folded through its digest, not through str(int).
    assert derive_seed(7, "0") != derive_seed(7, 0)


def test_augmentation_without_ring_actives_degrades_gracefully():
    records = [
        _record("a1", "CCO", 1),
        _record("a2", "CCN", 1),
        _record("d1", "c1ccccc1", 0),
    ]
    products = augment_split(records, RunConfig(timesteps=5), seed=3)
    assert products.pool == []
    assert products.model is None and products.library is None
    assert products.report is None
    assert products.excluded_acyclic == 2
    assert "no ring-bearing actives" in products.note


def test_augmentation_with_two_scaffolds_uses_one_cluster():
    records = [
        _record("a1", "Cc1ccccc1", 1),
        _record("a2", "CCc1ccncc1", 1),
        _record("d1", "CCO", 0),
        _record("d2", "CCC", 0),
    ]
    config = RunConfig(timesteps=5, library_fraction=0.5, nbits=256)
    products = augment_split(records, config, seed=3)
    assert products.model.k == 1
    assert products.model.degenerate
    assert len(products.library.entries) == 2
    assert all(e.cluster_id == 0 for e in products.library.entries)
    assert products.report.total == 2


def test_augmentation_falls_back_below_the_requested_k_range():
    records = [
        _record("a1", "Cc1ccccc1", 1),
        _record("a2", "CCc1ccncc1", 1),
        _record("a3", "CC1CCCCC1", 1),
        _record("d1", "CCO", 0),
    ]
    config = RunConfig(timesteps=5, library_fraction=0.5, nbits=256, k_min=4)
    products = augment_split(records, config, seed=3)
    assert products.model.k == 1


# --- experiment runner ----------------------------------------------------


def _tree(run_dir: Path) -> dict[str, bytes]:
    return {
        p.relative_to(run_dir).as_posix(): p.read_bytes()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file()
    }


def test_run_directory_holds_the_documented_tree(mini_run):
    expected = {"config.ini", "quarantine.csv", "splits.json", "manifest.json"}
    expected |= {
        f"report/{name}"
        for name in (
            "aggregate.csv",
            "pooled_metrics.json",
            "lambda_sweep.csv",
            "umap_input.csv",
            "notes.json",
        )
    }
    for i in range(5):
        expected |= {
            f"splits/split{i}/library.csv",
            f"splits/split{i}/generated.csv",
            f"splits/split{i}/generation_report.json",
        }
        expected |= {
            f"splits/split{i}/seed0/{name}"
            for name in (
                "model.json",
                "history.csv",
                "scores.csv",
                "metrics.json",
                "rerank.csv",
            )
        }
    assert set(_tree(mini_run)) == expected


def test_written_config_is_the_resolved_config(mini_run, mini_config):
    assert (mini_run / "config.ini").read_text(encoding="utf-8") == dump_config(
        mini_config
    )


def test_clean_deck_leaves_an_empty_quarantine(mini_run):
    assert (mini_run / "quarantine.csv").read_text() == "id,smiles,reason\n"


def test_manifest_hashes_every_file(mini_run):
    manifest = json.loads((mini_run / "manifest.json").read_text())
    tree = _tree(mini_run)
    del tree["manifest.json"]
    assert set(manifest["files"]) == set(tree)
    for rel, payload in tree.items():
        assert manifest["files"][rel] == hashlib.sha256(payload).hexdigest()
    config_bytes = (mini_run / "config.ini").read_bytes()
    assert manifest["config_sha256"] == hashlib.sha256(config_bytes).hexdigest()
    assert manifest["deck"] == {
        "n_records": 150,
        "n_actives": 20,
        "n_quarantined": 0,
    }
    assert manifest["seeds"]["root"] == 11
    assert set(manifest["seeds"]["augment"]) == {str(i) for i in range(5)}
    assert manifest["seeds"]["augment"]["0"] == derive_seed(11, "augment", 0)
    assert all(len(v) == 1 for v in manifest["seeds"]["train"].values())


def test_aggregate_table_has_cells_and_summary_rows(mini_run):
    lines = (mini_run / "report" / "aggregate.csv").read_text().splitlines()
    assert lines[0] == "split,seed,logauc,bedroc,ef10,dcg10,sd10"
    assert len(lines) == 1 + 5 + 2
    body = [line.split(",") for line in lines[1:6]]
    assert [row[0] for row in body] == [str(i) for i in range(5)]
    for row in body:
        for cell in row[2:]:
            assert cell and np.isfinite(float(cell))
    assert lines[6].startswith("mean,")
    assert lines[7].startswith("std,")


def test_pooled_metrics_cover_each_seed(mini_run):
    payload = json.loads((mini_run / "report" / "pooled_metrics.json").read_text())
    assert [entry["seed"] for entry in payload["per_seed"]] == [0]
    names = {"logauc", "bedroc", "ef10", "dcg10", "sd10"}
    assert names <= set(payload["per_seed"][0])
    assert names == set(payload["mean"]) == set(payload["std"])


def test_lambda_sweep_report_covers_the_grid(mini_run, mini_config):
    lines = (mini_run / "report" / "lambda_sweep.csv").read_text().splitlines()
    assert lines[0] == "lambda,ef10_before,ef10_after,sd10_before,sd10_after"
    grid = [line.split(",")[0] for line in lines[1:]]
    assert grid == [f"{lam:g}" for lam in mini_config.lambda_grid]


def test_umap_table_mixes_assay_and_generated_rows(mini_run, mini_config):
    lines = (mini_run / "report" / "umap_input.csv").read_text().splitlines()
    assert lines[0] == "id,origin,label,fp_hex"
    rows = [line.split(",") for line in lines[1:]]
    by_origin = Counter(row[1] for row in rows)
    assert by_origin["assay"] == 150
    n_valid = 0
    for i in range(5):
        report = json.loads(
            (mini_run / "splits" / f"split{i}" / "generation_report.json").read_text()
        )
        n_valid += report["n_valid"]
    assert by_origin["generated"] == n_valid
    for row in rows:
        assert len(row[3]) == mini_config.nbits // 4
        assert row[2] in {"0", "1", ""}


def test_generated_artifacts_are_internally_consistent(mini_run):
    for i in range(5):
        split_dir = mini_run / "splits" / f"split{i}"
        report = json.loads((split_dir / "generation_report.json").read_text())
        lines = (split_dir / "generated.csv").read_text().splitlines()
        assert lines[0] == "id,smiles,cluster_id,valid"
        body = [line.split(",") for line in lines[1:]]
        assert len(body) == report["total"]
        assert sum(int(row[3]) for row in body) == report["n_valid"]
        library_lines = (split_dir / "library.csv").read_text().splitlines()
        assert len(library_lines) - 1 == report["total"]
        assert sum(report["library_per_cluster"]) == report["total"]
        for row in body:
            parse_smiles(row[1])


def test_split_plan_artifact_matches_direct_construction(mini_run, mini_assay_csv):
    plan = SplitPlan.from_json(mini_run / "splits.json")
    assay = ingest(mini_assay_csv)
    assert plan == make_splits(assay, scheme="random", seed=11)


def test_identical_configs_give_byte_identical_runs(mini_config, mini_run, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        other = run_experiment(mini_config, tmp_path / "again")
    # Manifests hash every artifact, so equal manifests mean equal trees.
    assert (other / "manifest.json").read_bytes() == (
        mini_run / "manifest.json"
    ).read_bytes()


def test_rebuilding_the_report_changes_nothing(mini_run, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(mini_run, copy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rebuild_report(copy)
    assert _tree(copy) == _tree(mini_run)


def test_a_rebuild_walks_cells_in_numeric_order(mini_config, tmp_path):
    # Eleven seeds put seed10 between seed1 and seed2 in name order.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_dir = run_experiment(dataclasses.replace(mini_config, eval_seeds=11), tmp_path / "run")
        before = _tree(run_dir)
        rebuild_report(run_dir)
    assert _tree(run_dir) == before


def test_a_rebuild_averages_the_sweeps_the_run_averaged(mini_config, tmp_path, monkeypatch):
    """Two sweeps whose mean rounds one way unrounded and the other way from rerank.csv."""
    figures = iter([0.1234564, 0.1234568])

    def rerank_step(path, ranked, mols_by_id, config):
        value = next(figures, None)
        grid = config.lambda_grid if value is not None else ()
        sweep = [LambdaReport(lam, value, value, value, value) for lam in grid]
        write_sweep_csv(path, sweep, config.top_k)
        return (sweep, None) if sweep else (None, "rerank skipped")

    monkeypatch.setattr(runner, "rerank_cell", rerank_step)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_dir = run_experiment(mini_config, tmp_path / "run")
        manifest = (run_dir / "manifest.json").read_bytes()
        # The mean of the written 0.123456 and 0.123457, not of the unrounded pair.
        assert (run_dir / "report" / "lambda_sweep.csv").read_text().splitlines()[1:] == [
            f"{lam:g},0.123456,0.123456,0.123456,0.123456" for lam in mini_config.lambda_grid
        ]
        rebuild_report(run_dir)
    assert (run_dir / "manifest.json").read_bytes() == manifest


def test_a_rebuild_rejects_a_sweep_headed_for_another_depth(mini_run, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(mini_run, copy)
    rerank = copy / "splits" / "split2" / "seed0" / "rerank.csv"
    rerank.write_text(rerank.read_text().replace("ef10_", "ef100_"), encoding="utf-8")
    with pytest.raises(ValueError, match=r"split2/seed0/rerank\.csv: unexpected sweep header"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rebuild_report(copy)


@pytest.fixture(scope="module")
def skipping_run(mini_config, tmp_path_factory) -> Path:
    """The mini run at top_k = 20, where three of the five cells skip their rerank."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_experiment(
            dataclasses.replace(mini_config, top_k=20), tmp_path_factory.mktemp("skip") / "run"
        )


def test_a_rebuild_reproduces_a_deleted_report_and_manifest(skipping_run, tmp_path):
    notes = json.loads((skipping_run / "report" / "notes.json").read_text())["notes"]
    skips = [note for note in notes if note.endswith("candidates for k=20, rerank skipped")]
    assert len(skips) == 3
    for empty_report in (False, True):
        copy = tmp_path / f"copy{int(empty_report)}"
        shutil.copytree(skipping_run, copy)
        shutil.rmtree(copy / "report")
        (copy / "manifest.json").unlink()
        if empty_report:
            (copy / "report").mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rebuild_report(copy)
        assert _tree(copy) == _tree(skipping_run)


def test_cli_report_rebuilds_a_run_without_a_report(skipping_run, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(skipping_run, copy)
    shutil.rmtree(copy / "report")
    (copy / "manifest.json").unlink()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["report", "--run", str(copy)]) == 0
    assert _tree(copy) == _tree(skipping_run)


def test_the_report_notes_the_skip_rerank_cell_gives_a_cell_without_actives(
    mini_run, mini_config, tmp_path
):
    copy = tmp_path / "copy"
    shutil.copytree(mini_run, copy)
    cell = copy / "splits" / "split0" / "seed0"
    scored = runner.read_scores_csv(cell / "scores.csv")
    rows = [(r, smi, 1.0 + n, 0) for n, (r, smi, _, _) in enumerate(scored)]
    write_scores_csv(cell / "scores.csv", rows)
    ranked = RankedList.from_records((r, s, y) for r, _, s, y in rows)
    mols_by_id = {r: parse_smiles(smi) for r, smi, _, _ in rows}
    _, note = rerank_cell(cell / "rerank.csv", ranked, mols_by_id, mini_config)
    assert note == "enrichment needs at least one active in the baseline, rerank skipped"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rebuild_report(copy)
    notes = json.loads((copy / "report" / "notes.json").read_text())["notes"]
    assert f"split0/seed0: {note}" in notes


GOLDEN_FILES = Path(__file__).parent / "data" / "mini_run_files.json"


def _platform() -> str:
    return f"{platform.system()} {platform.machine()}, Python {platform.python_version()}"


def test_mini_run_artifacts_match_the_golden_manifest(mini_run):
    """Every artifact byte of the mini run is pinned by its sha256.

    ``config.ini`` is left out because its ``assay =`` line holds the
    temporary deck path. A change that moves a byte on purpose rewrites
    ``tests/data/mini_run_files.json`` (the manifest ``files`` map less
    ``config.ini``, with the numpy version and platform it came from).
    """
    golden = json.loads(GOLDEN_FILES.read_text(encoding="utf-8"))
    files = json.loads((mini_run / "manifest.json").read_text())["files"]
    del files["config.ini"]
    moved = sorted(
        name
        for name in set(files) | set(golden["files"])
        if files.get(name) != golden["files"].get(name)
    )
    assert not moved, (
        f"artifacts differ from the golden manifest: {', '.join(moved)}; "
        f"golden from numpy {golden['numpy']} on {golden['platform']}, "
        f"this run numpy {np.__version__} on {_platform()}"
    )


def test_a_fold_missing_a_class_fails_before_any_split_is_written(
    benchmark_deck_csv, tmp_path
):
    # Run seed 9 deals split 3 a validation fold without an active.
    run_dir = tmp_path / "run"
    with pytest.raises(DegenerateData, match="split3: the validation fold"):
        run_experiment(RunConfig(assay=str(benchmark_deck_csv), seed=9), run_dir)
    assert not (run_dir / "splits").exists()
    assert not (run_dir / "splits.json").exists()
    assert not (run_dir / "report").exists()


RERANK_SMILES = (
    "c1ccccc1",
    "Cc1ccccc1",
    "c1ccncc1",
    "C1CCCCC1",
    "c1ccc2ccccc2c1",
    "C1CCNCC1",
    "c1ccoc1",
    "c1ccsc1",
    "CCO",
    "CCN",
    "C1CC1",
    "C1CCC1",
)
RERANK_MOLS = {f"r{n:02d}": parse_smiles(smi) for n, smi in enumerate(RERANK_SMILES)}


def _ranked(scores, labels) -> RankedList:
    return RankedList.from_records(zip(RERANK_MOLS, scores, labels))


def test_rerank_fingerprints_only_the_kept_candidates(monkeypatch, tmp_path):
    fingerprinted = []
    original = runner.candidate_fingerprints

    def counting(mols, *args, **kwargs):
        fingerprinted.extend(mols)
        return original(mols, *args, **kwargs)

    monkeypatch.setattr(runner, "candidate_fingerprints", counting)
    config = RunConfig(top_k=5, candidate_cap=6, nbits=256, lambda_grid=(0.0, 1.0))
    labels = [n % 2 for n in range(12)]
    path = tmp_path / "rerank.csv"

    none = [-1.0 - n for n in range(12)]
    sweep, note = rerank_cell(path, _ranked(none, labels), RERANK_MOLS, config)
    assert (sweep, note) == (None, "no positive scores, rerank skipped")
    assert fingerprinted == []

    few = [3.0, 2.0, 1.0] + [-1.0] * 9
    sweep, note = rerank_cell(path, _ranked(few, labels), RERANK_MOLS, config)
    assert (sweep, note) == (None, "only 3 candidates for k=5, rerank skipped")
    assert fingerprinted == []

    many = [8.0 - n for n in range(12)]  # eight positive scores, capped at six
    sweep, note = rerank_cell(path, _ranked(many, labels), RERANK_MOLS, config)
    assert note is None
    assert [report.lam for report in sweep] == [0.0, 1.0]
    assert len(fingerprinted) == 6


# --- external denoiser runs -----------------------------------------------

ECHO_HELPER = Path(__file__).parent / "helpers" / "echo_denoiser.py"


def _external_spec(mode: str) -> str:
    # The mini deck's training folds have ten atom types.
    return "external:" + shlex.join([sys.executable, str(ECHO_HELPER), mode, "10"])


def _child_pids(path: Path) -> list[int]:
    return [int(line) for line in path.read_text(encoding="utf-8").split()]


def test_external_run_matches_echo_and_starts_one_child(mini_config, tmp_path, monkeypatch):
    pids = tmp_path / "pids.txt"
    monkeypatch.setenv("ECHO_DENOISER_PIDS", str(pids))
    echo = run_experiment(dataclasses.replace(mini_config, denoiser="echo"), tmp_path / "echo")
    external = run_experiment(
        dataclasses.replace(mini_config, denoiser=_external_spec("echo")), tmp_path / "external"
    )
    generated = sorted(p.relative_to(echo) for p in echo.glob("splits/split*/generated.csv"))
    assert len(generated) == 5
    for rel in generated:
        assert (external / rel).read_bytes() == (echo / rel).read_bytes()
    assert len(_child_pids(pids)) == 1


def test_external_run_protocol_error_stops_its_child(mini_config, tmp_path, monkeypatch):
    pids = tmp_path / "pids.txt"
    monkeypatch.setenv("ECHO_DENOISER_PIDS", str(pids))
    config = dataclasses.replace(mini_config, denoiser=_external_spec("garbage"))
    with pytest.raises(ProtocolError, match="invalid JSON"):
        run_experiment(config, tmp_path / "run")
    (pid,) = _child_pids(pids)
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


# --- command line ---------------------------------------------------------


@pytest.fixture(scope="module")
def cli_ini(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("cli") / "mini.ini"
    path.write_text(
        "[run]\n"
        "seed = 11\n"
        "eval_seeds = 1\n"
        "[augment]\n"
        "enabled = true\n"
        "timesteps = 5\n"
        "library_fraction = 0.05\n"
        "k_max = 4\n"
        "[features]\n"
        "nbits = 256\n"
        "[train]\n"
        "epochs = 6\n"
        "warmup_epochs = 2\n"
        "refresh_period = 2\n"
        "batch_size = 32\n"
        "[evaluate]\n"
        "top_k = 10\n"
        "candidate_cap = 50\n"
        "lambda_grid = 0,1\n",
        encoding="utf-8",
    )
    return path


def test_cli_ingest_prints_a_summary(mini_assay_csv, capsys):
    assert main(["ingest", "--assay", str(mini_assay_csv)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {
        "records": 150,
        "actives": 20,
        "active_fraction": 0.133333,
        "quarantined": 0,
    }


def test_cli_stage_chain_reproduces_the_orchestrated_cell(
    mini_assay_csv, cli_ini, mini_run, tmp_path, capsys
):
    base = ["--config", str(cli_ini), "--assay", str(mini_assay_csv)]
    splits = tmp_path / "splits.json"
    assert main(["split", *base, "--out", str(splits)]) == 0

    aug = tmp_path / "aug"
    assert (
        main(
            [
                "augment",
                *base,
                "--splits",
                str(splits),
                "--split-index",
                "0",
                "--out",
                str(aug),
            ]
        )
        == 0
    )
    assert {p.name for p in aug.iterdir()} == {
        "library.csv",
        "generated.csv",
        "generation_report.json",
    }

    cell = tmp_path / "cell"
    assert (
        main(
            [
                "train",
                *base,
                "--splits",
                str(splits),
                "--split-index",
                "0",
                "--eval-index",
                "0",
                "--generated",
                str(aug / "generated.csv"),
                "--out",
                str(cell),
            ]
        )
        == 0
    )

    scores = tmp_path / "scores.csv"
    assert (
        main(
            [
                "score",
                *base,
                "--model",
                str(cell / "model.json"),
                "--splits",
                str(splits),
                "--split-index",
                "0",
                "--fold",
                "test",
                "--out",
                str(scores),
            ]
        )
        == 0
    )

    metrics = tmp_path / "metrics.json"
    assert (
        main(["evaluate", "--config", str(cli_ini), "--scores", str(scores), "--out", str(metrics)])
        == 0
    )

    rerank = tmp_path / "rerank.csv"
    assert (
        main(
            [
                "rerank",
                "--config",
                str(cli_ini),
                "--scores",
                str(scores),
                "--lambda-sweep",
                "0,0.5,1",
                "--out",
                str(rerank),
            ]
        )
        == 0
    )
    capsys.readouterr()

    # Stage by stage equals the one-shot runner: same seeds, same artifacts.
    cell_dir = mini_run / "splits" / "split0" / "seed0"
    assert splits.read_bytes() == (mini_run / "splits.json").read_bytes()
    assert (aug / "generated.csv").read_bytes() == (
        mini_run / "splits" / "split0" / "generated.csv"
    ).read_bytes()
    assert (cell / "model.json").read_bytes() == (cell_dir / "model.json").read_bytes()
    assert scores.read_bytes() == (cell_dir / "scores.csv").read_bytes()
    assert metrics.read_bytes() == (cell_dir / "metrics.json").read_bytes()

    sweep_lines = rerank.read_text().splitlines()
    assert [line.split(",")[0] for line in sweep_lines[1:]] == ["0", "0.5", "1"]


def test_cli_run_without_augmentation_skips_generation(
    mini_assay_csv, cli_ini, tmp_path, capsys
):
    run_dir = tmp_path / "noaug"
    rc = main(
        [
            "run",
            "--config",
            str(cli_ini),
            "--assay",
            str(mini_assay_csv),
            "--no-augment",
            "--out",
            str(run_dir),
        ]
    )
    assert rc == 0
    assert "run complete" in capsys.readouterr().out
    for i in range(5):
        split_dir = run_dir / "splits" / f"split{i}"
        assert {p.name for p in split_dir.iterdir()} == {"seed0"}
    umap_lines = (run_dir / "report" / "umap_input.csv").read_text().splitlines()
    origins = {line.split(",")[1] for line in umap_lines[1:]}
    assert origins == {"assay"}
    config = load_config(run_dir / "config.ini")
    assert config.augment_enabled is False

    assert main(["report", "--run", str(run_dir)]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    for rel, digest in manifest["files"].items():
        payload = (run_dir / rel).read_bytes()
        assert hashlib.sha256(payload).hexdigest() == digest


def test_cli_reports_known_errors_on_stderr(tmp_path, capsys):
    rc = main(["ingest", "--assay", str(tmp_path / "missing.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")

    bad_ini = _write(tmp_path / "bad.ini", "[nonsense]\nfoo = 1\n")
    rc = main(
        ["split", "--config", str(bad_ini), "--assay", "x.csv", "--out", "s.json"]
    )
    assert rc == 2
    assert "unknown config section" in capsys.readouterr().err


def test_cli_reports_a_protocol_error(mini_assay_csv, cli_ini, tmp_path, capsys):
    base = ["--config", str(cli_ini), "--assay", str(mini_assay_csv)]
    splits = tmp_path / "splits.json"
    assert main(["split", *base, "--out", str(splits)]) == 0
    capsys.readouterr()
    rc = main(
        [
            "augment",
            *base,
            "--splits",
            str(splits),
            "--denoiser",
            _external_spec("garbage"),
            "--out",
            str(tmp_path / "aug"),
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: invalid JSON from denoiser")


def test_cli_run_rejects_an_empty_external_command(mini_assay_csv, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["run", "--assay", str(mini_assay_csv), "--denoiser", "external:", "--out", str(out)])
    assert rc == 2
    assert "names no command" in capsys.readouterr().err
    assert not out.exists()


def test_cli_too_few_scaffolds_is_a_clean_failure(tmp_path, capsys):
    rows = ["id,smiles,label"] + [f"r{n:02d},{'C' * n}c1ccccc1,0" for n in range(1, 21)]
    deck = _write(tmp_path / "one_bin.csv", "\n".join(rows) + "\n")
    rc = main(
        [
            "split",
            "--assay",
            str(deck),
            "--scheme",
            "scaffold",
            "--out",
            str(tmp_path / "s.json"),
        ]
    )
    assert rc == 2
    assert "assignable" in capsys.readouterr().err


def test_cli_rejects_no_augment_with_generated(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "train",
                "--splits",
                "s.json",
                "--out",
                "cell",
                "--no-augment",
                "--generated",
                "g.csv",
            ]
        )
    assert excinfo.value.code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_cli_rerank_matches_the_runner_on_a_cell_without_actives(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    rows = [
        (rid, smi, 1.0 + n, 0)
        for n, (rid, smi) in enumerate(zip(RERANK_MOLS, RERANK_SMILES))
    ]
    write_scores_csv(scores, rows)
    ini = _write(tmp_path / "k5.ini", "[evaluate]\ntop_k = 5\n")
    out = tmp_path / "rerank.csv"
    rc = main(["rerank", "--config", str(ini), "--scores", str(scores), "--out", str(out)])
    assert rc == 0
    err = capsys.readouterr().err

    ranked = _ranked([1.0 + n for n in range(12)], [0] * 12)
    runner_csv = tmp_path / "runner.csv"
    sweep, note = rerank_cell(runner_csv, ranked, RERANK_MOLS, RunConfig(top_k=5))
    assert sweep is None
    assert note == "enrichment needs at least one active in the baseline, rerank skipped"
    assert note in err
    write_sweep_csv(tmp_path / "empty.csv", [], k=5)
    assert out.read_bytes() == runner_csv.read_bytes()
    assert out.read_bytes() == (tmp_path / "empty.csv").read_bytes()


def test_lockstep_cells_equal_the_cli_train_stage_cell_by_cell(
    mini_config, mini_assay_csv, cli_ini, tmp_path, capsys
):
    # A run trains each split's evaluation seeds together; the CLI trains one cell alone.
    # A low threshold lets pseudo-labels in, so the cells' epochs can differ in length.
    config = dataclasses.replace(mini_config, eval_seeds=3, confidence_threshold=0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_dir = run_experiment(config, tmp_path / "run")
    ini = tmp_path / "cells.ini"
    ini.write_text(
        cli_ini.read_text().replace("[train]\n", "[train]\nconfidence_threshold = 0.3\n"),
        encoding="utf-8",
    )
    base = ["--config", str(ini), "--assay", str(mini_assay_csv)]
    pseudo_counts = set()
    for i in range(5):
        split_dir = run_dir / "splits" / f"split{i}"
        for j in range(3):
            cell = tmp_path / f"cell{i}{j}"
            args = [
                "train",
                *base,
                "--splits",
                str(run_dir / "splits.json"),
                "--split-index",
                str(i),
                "--eval-index",
                str(j),
                "--generated",
                str(split_dir / "generated.csv"),
                "--out",
                str(cell),
            ]
            assert main(args) == 0
            for name in ("model.json", "history.csv"):
                assert (cell / name).read_bytes() == (split_dir / f"seed{j}" / name).read_bytes()
            history = (cell / "history.csv").read_text().splitlines()[1:]
            pseudo_counts.update(int(line.rsplit(",", 1)[1]) for line in history)
    capsys.readouterr()
    assert len(pseudo_counts) > 1  # some cells trained on pseudo-labels
