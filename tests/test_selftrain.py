from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scaffscreen import selftrain
from scaffscreen.chem import parse_smiles
from scaffscreen.metrics import RankedList, bedroc
from scaffscreen.selftrain import (
    CHECKPOINT_VERSION,
    DegenerateData,
    FingerprintClassifier,
    LabeledSet,
    SelfTrainConfig,
    SparseBatch,
    load_checkpoint,
    loss_and_grad,
    predict,
    pseudo_label,
    save_checkpoint,
    self_train,
    write_history_csv,
    _validation_bedroc,
)

from helpers.reference_selftrain import dense_epoch, dense_rows

ACTIVE_SMILES = [
    "c1ccccc1",
    "Cc1ccccc1",
    "CCc1ccccc1",
    "c1ccncc1",
    "Cc1ccncc1",
    "Oc1ccccc1",
]
INACTIVE_SMILES = ["CCO", "CCC", "CCCC", "CCN", "CCOC", "CC(C)C"]


def _labeled(actives, inactives, origin="original") -> LabeledSet:
    smiles = list(actives) + list(inactives)
    labels = np.array([1] * len(actives) + [0] * len(inactives), dtype=np.int64)
    return LabeledSet(
        ids=tuple(f"x{i}" for i in range(len(smiles))),
        molecules=tuple(parse_smiles(s) for s in smiles),
        labels=labels,
        origin=origin,
    )


TRAIN = _labeled(ACTIVE_SMILES, INACTIVE_SMILES)
VALIDATION = _labeled(["CCc1ccncc1", "Clc1ccccc1"], ["CCCO", "CCCN"])


# --- loss and gradient --------------------------------------------------


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(0)
    eps = 1e-6
    for _ in range(10):
        m, d = 12, 8
        features = (rng.random((m, d)) < 0.3).astype(np.float64)
        labels = rng.integers(2, size=m).astype(np.int64)
        weights = rng.normal(size=d)
        bias = float(rng.normal())
        _, grad_w, grad_b = loss_and_grad(weights, bias, features, labels, 0.05)
        for k in range(d):
            bump = np.zeros(d)
            bump[k] = eps
            up = loss_and_grad(weights + bump, bias, features, labels, 0.05)[0]
            down = loss_and_grad(weights - bump, bias, features, labels, 0.05)[0]
            assert (up - down) / (2 * eps) == pytest.approx(grad_w[k], rel=1e-5, abs=1e-8)
        up = loss_and_grad(weights, bias + eps, features, labels, 0.05)[0]
        down = loss_and_grad(weights, bias - eps, features, labels, 0.05)[0]
        assert (up - down) / (2 * eps) == pytest.approx(grad_b, rel=1e-5, abs=1e-8)


def test_loss_closed_form_on_a_tiny_case():
    features = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    labels = np.array([1, 0, 1])
    weights = np.array([0.4, -0.3])
    bias = 0.1
    l2 = 0.2
    z = [0.5, 0.2, -0.2]
    expected = (
        sum(math.log1p(math.exp(zi)) - yi * zi for zi, yi in zip(z, labels)) / 3
        + 0.5 * l2 * (0.4**2 + 0.3**2)
    )
    loss, _, _ = loss_and_grad(weights, bias, features, labels, l2)
    assert loss == pytest.approx(expected, rel=1e-12)


def test_zero_model_loss_is_log_two():
    features = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels = np.array([1, 0])
    loss, _, _ = loss_and_grad(np.zeros(2), 0.0, features, labels, 0.0)
    assert loss == pytest.approx(math.log(2.0), rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    width=st.integers(8, 1024),
    n_rows=st.integers(1, 64),
    density=st.floats(0.0, 0.3),
    full_column=st.booleans(),
    zero_row=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(width=8, n_rows=1, density=0.5, full_column=True, zero_row=False, seed=0)
@example(width=1024, n_rows=1, density=0.0, full_column=False, zero_row=True, seed=1)
@example(width=1024, n_rows=128, density=0.02, full_column=True, zero_row=True, seed=2)
def test_sparse_and_dense_loss_and_grad_agree(
    width, n_rows, density, full_column, zero_row, seed
):
    rng = np.random.default_rng(seed)
    rows = (rng.random((n_rows, width)) < density).astype(np.uint8)
    if full_column:
        rows[:, rng.integers(width)] = 1
    if zero_row:  # wins over the full column in its own row
        rows[rng.integers(n_rows)] = 0
    labels = rng.integers(2, size=n_rows).astype(np.int64)
    weights = rng.normal(size=width)
    bias = float(rng.normal())
    sparse = loss_and_grad(weights, bias, SparseBatch(*np.nonzero(rows)), labels, 0.01)
    dense = loss_and_grad(weights, bias, rows.astype(np.float64), labels, 0.01)
    assert sparse[0] == pytest.approx(dense[0], rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(sparse[1], dense[1], rtol=1e-12, atol=1e-12)
    assert sparse[2] == pytest.approx(dense[2], rel=1e-12, abs=1e-12)


# --- basic training -----------------------------------------------------


def test_training_separates_an_easy_problem():
    config = SelfTrainConfig(
        epochs=30, warmup_epochs=30, nbits=256, learning_rate=0.5, seed=1
    )
    model, history = self_train(TRAIN, (), (), VALIDATION, config)
    logits = predict(model, TRAIN.molecules)
    actives = logits[TRAIN.labels == 1]
    inactives = logits[TRAIN.labels == 0]
    assert actives.min() > inactives.max()
    assert len(history) == 30
    assert history[-1].loss < history[0].loss


def test_self_train_lowers_the_loss_after_one_epoch():
    config = SelfTrainConfig(
        epochs=2, warmup_epochs=2, nbits=256, learning_rate=0.5, seed=0
    )
    model, history = self_train(TRAIN, (), (), VALIDATION, config)
    assert history[1].loss < history[0].loss
    assert model.weights.any()


def test_self_train_requires_both_training_classes():
    lopsided = _labeled(ACTIVE_SMILES, [])
    config = SelfTrainConfig(epochs=2, warmup_epochs=2, nbits=256)
    with pytest.raises(DegenerateData):
        self_train(lopsided, (), (), VALIDATION, config)


def test_self_train_requires_mixed_validation():
    config = SelfTrainConfig(epochs=2, warmup_epochs=0, nbits=256)
    with pytest.raises(DegenerateData):
        self_train(TRAIN, (), (), _labeled(["c1ccccc1"], []), config)


def test_predict_on_empty_input():
    model = FingerprintClassifier(nbits=128)
    assert predict(model, []).shape == (0,)


def test_classifier_weight_width_is_checked():
    with pytest.raises(ValueError):
        FingerprintClassifier(nbits=128, weights=np.zeros(64))


# --- pseudo-labeling ----------------------------------------------------


def test_confidence_gate_is_strict():
    # Zero weights leave the logit equal to the bias, so the confidence is
    # exactly sigmoid(bias) for every molecule.
    model = FingerprintClassifier(nbits=128, bias=0.0)
    pool = tuple(parse_smiles(s) for s in ACTIVE_SMILES)
    ids = tuple(f"g{i}" for i in range(len(pool)))
    at_threshold = pseudo_label(model, ids, pool, confidence_threshold=0.5)
    assert at_threshold.size == 0
    below = pseudo_label(model, ids, pool, confidence_threshold=0.4999)
    assert below.size == len(pool)
    assert below.origin == "pseudo"
    assert (below.labels == 1).all()
    assert below.ids == ids


def test_threshold_one_admits_nothing():
    model = FingerprintClassifier(nbits=128, bias=30.0)
    pool = tuple(parse_smiles(s) for s in ACTIVE_SMILES)
    ids = tuple(f"g{i}" for i in range(len(pool)))
    assert pseudo_label(model, ids, pool, confidence_threshold=1.0).size == 0


def test_lower_thresholds_admit_supersets():
    rng = np.random.default_rng(5)
    model = FingerprintClassifier(nbits=128, weights=rng.normal(size=128), bias=0.0)
    pool = tuple(parse_smiles(s) for s in ACTIVE_SMILES + INACTIVE_SMILES)
    ids = tuple(f"g{i}" for i in range(len(pool)))
    loose = set(pseudo_label(model, ids, pool, confidence_threshold=0.3).ids)
    tight = set(pseudo_label(model, ids, pool, confidence_threshold=0.7).ids)
    assert tight <= loose


def test_pseudo_label_validation():
    model = FingerprintClassifier(nbits=128)
    pool = (parse_smiles("CCO"),)
    with pytest.raises(ValueError):
        pseudo_label(model, ("a",), pool, confidence_threshold=0.0)
    with pytest.raises(ValueError):
        pseudo_label(model, ("a",), pool, confidence_threshold=1.2)
    with pytest.raises(ValueError):
        pseudo_label(model, ("a", "b"), pool, confidence_threshold=0.5)
    empty = pseudo_label(model, (), (), confidence_threshold=0.5)
    assert empty.size == 0
    assert empty.origin == "pseudo"


# --- self-training schedule ---------------------------------------------


def test_pool_refresh_obeys_warmup_and_cadence():
    pool = tuple(parse_smiles(s) for s in ACTIVE_SMILES * 3)
    ids = tuple(f"g{i}" for i in range(len(pool)))
    config = SelfTrainConfig(
        epochs=12,
        warmup_epochs=4,
        refresh_period=5,
        confidence_threshold=0.2,
        nbits=256,
        learning_rate=0.5,
        seed=2,
    )
    _, history = self_train(TRAIN, ids, pool, VALIDATION, config)
    refresh_epochs = {5, 10}
    for record in history:
        if record.epoch < config.warmup_epochs:
            assert record.n_pseudo == 0
        if record.epoch not in refresh_epochs and record.epoch > 0:
            assert record.n_pseudo == history[record.epoch - 1].n_pseudo
    # The easy pool is admitted once the gate opens.
    assert history[5].n_pseudo > 0


def test_threshold_one_equals_empty_pool_exactly():
    pool = tuple(parse_smiles(s) for s in ACTIVE_SMILES * 2)
    ids = tuple(f"g{i}" for i in range(len(pool)))
    config = SelfTrainConfig(
        epochs=10, warmup_epochs=2, confidence_threshold=1.0, nbits=256, seed=3
    )
    gated, gated_history = self_train(TRAIN, ids, pool, VALIDATION, config)
    plain, plain_history = self_train(TRAIN, (), (), VALIDATION, config)
    assert (gated.weights == plain.weights).all()
    assert gated.bias == plain.bias
    assert gated_history == plain_history
    assert all(record.n_pseudo == 0 for record in gated_history)


def test_self_training_is_deterministic():
    # Small batches make the shuffled batch composition part of the result,
    # so the seed has an observable effect to pin down.
    pool = tuple(parse_smiles(s) for s in ACTIVE_SMILES)
    ids = tuple(f"g{i}" for i in range(len(pool)))
    config = SelfTrainConfig(
        epochs=8, warmup_epochs=2, confidence_threshold=0.3, nbits=256,
        batch_size=4, seed=4,
    )
    first, first_history = self_train(TRAIN, ids, pool, VALIDATION, config)
    second, second_history = self_train(TRAIN, ids, pool, VALIDATION, config)
    assert (first.weights == second.weights).all()
    assert first.bias == second.bias
    assert first_history == second_history
    other, _ = self_train(
        TRAIN, ids, pool, VALIDATION, SelfTrainConfig(
            epochs=8, warmup_epochs=2, confidence_threshold=0.3, nbits=256,
            batch_size=4, seed=5,
        )
    )
    assert not (first.weights == other.weights).all()


def test_returned_model_attains_the_best_validation_score():
    config = SelfTrainConfig(epochs=15, warmup_epochs=15, nbits=256, seed=6)
    model, history = self_train(TRAIN, (), (), VALIDATION, config)
    logits = predict(model, VALIDATION.molecules)
    ranked = RankedList.from_records(
        (rid, float(z), int(y))
        for rid, z, y in zip(VALIDATION.ids, logits, VALIDATION.labels)
    )
    assert bedroc(ranked) == max(record.val_bedroc for record in history)


@pytest.mark.parametrize(
    "logits",
    [
        [0.0, -0.0, 0.0, -0.0, 0.0, -0.0],
        [1.5, -0.0, 1.5, 0.0, -2.0, 0.0],
        [0.25, 0.25, 0.25, 0.25, 0.25, 0.25],
        [-1.0, 3.0, -0.0, 3.0, 0.0, -1.0],
    ],
)
def test_validation_ranking_ties_like_ranked_list(logits):
    validation = _labeled(["c1ccccc1", "c1ccncc1", "Cc1ccccc1"], ["CCO", "CCN", "CCC"])
    logits = np.array(logits)
    by_records = RankedList.from_records(
        (rid, float(z), int(y)) for rid, z, y in zip(validation.ids, logits, validation.labels)
    )
    assert _validation_bedroc(validation, logits) == bedroc(by_records)


@pytest.fixture(scope="module")
def deck_cell(benchmark_deck):
    """Deck records 0-1199 to train, 1200-1599 to validate, and the 20 actives as a pool."""
    mols = [parse_smiles(s) for s in benchmark_deck.smiles]
    labels = np.array(benchmark_deck.labels, dtype=np.int64)

    def labeled(rows):
        return LabeledSet(
            ids=tuple(benchmark_deck.ids[i] for i in rows),
            molecules=tuple(mols[i] for i in rows),
            labels=labels[list(rows)],
        )

    pool = tuple(mols[i] for i in np.flatnonzero(labels == 1))
    pool_ids = tuple(f"g{i}" for i in range(len(pool)))
    return labeled(range(1200)), pool_ids, pool, labeled(range(1200, 1600))


DECK_CELL_CONFIG = SelfTrainConfig(
    epochs=30, warmup_epochs=5, refresh_period=1, confidence_threshold=0.5,
    nbits=1024, seed=1,
)


def test_pseudo_labeled_self_training_stays_within_a_memory_bound(deck_cell):
    # 1 200 training rows at 1 024 bits are 9.8 MB as float64; building the
    # rows as float64, or copying them for each pseudo-labeled epoch, goes
    # well past the bound.
    train, pool_ids, pool, validation = deck_cell
    assert len(pool) == 20
    tracemalloc.start()
    try:
        _, history = self_train(train, pool_ids, pool, validation, DECK_CELL_CONFIG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(record.n_pseudo for record in history) > 0
    assert peak < 16 * 2**20, peak


def test_sparse_epoch_matches_the_dense_reference_epoch(deck_cell, monkeypatch):
    train = deck_cell[0]
    rows = FingerprintClassifier(nbits=1024).featurize(train.molecules)
    indptr, cols = selftrain._on_bits(rows)
    assert np.array_equal(dense_rows(indptr, cols, 1024), rows)

    batches = []
    original = selftrain.loss_and_grad

    def recording(weights, bias, features, labels, l2_penalty):
        if isinstance(features, SparseBatch):
            dense = np.zeros((len(labels), len(weights)))
            dense[features.row, features.cols] = 1.0
        else:
            dense = features.copy()
        batches.append((dense, labels.copy()))
        return original(weights, bias, features, labels, l2_penalty)

    monkeypatch.setattr(selftrain, "loss_and_grad", recording)
    start = np.random.default_rng(3).normal(scale=0.05, size=1024)
    results = []
    for epoch in (selftrain._run_epoch_on_features, dense_epoch):
        model = FingerprintClassifier(nbits=1024, weights=start.copy(), bias=0.25)
        rng = np.random.default_rng(7)
        loss = epoch(model, indptr, cols, np.arange(train.size), train.labels, 0.1, 1e-4, 128, rng)
        results.append((model, loss, rng.bit_generator.state))
    (sparse, sparse_loss, sparse_state), (dense, dense_loss, dense_state) = results
    # Both epochs drew the same oversampling and shuffle, so they saw the same batches.
    assert sparse_state == dense_state
    half = len(batches) // 2
    assert half == -(-2 * int((train.labels == 0).sum()) // 128)
    for (a_rows, a_labels), (b_rows, b_labels) in zip(batches[:half], batches[half:]):
        assert np.array_equal(a_rows, b_rows)
        assert np.array_equal(a_labels, b_labels)
    assert np.abs(sparse.weights - dense.weights).max() <= 1e-12
    assert sparse.bias == pytest.approx(dense.bias, rel=0, abs=1e-12)
    assert sparse_loss == pytest.approx(dense_loss, rel=0, abs=1e-12)


def test_self_training_stays_within_rounding_of_the_dense_path(deck_cell, monkeypatch):
    train, pool_ids, pool, validation = deck_cell
    sparse, sparse_history = self_train(train, pool_ids, pool, validation, DECK_CELL_CONFIG)
    monkeypatch.setattr(selftrain, "_run_epoch_on_features", dense_epoch)
    dense, dense_history = self_train(train, pool_ids, pool, validation, DECK_CELL_CONFIG)
    assert np.abs(sparse.weights - dense.weights).max() <= 1e-12
    assert sparse.bias == pytest.approx(dense.bias, rel=0, abs=1e-12)
    assert [r.n_pseudo for r in sparse_history] == [r.n_pseudo for r in dense_history]
    assert sum(r.n_pseudo for r in sparse_history) > 0
    for ours, theirs in zip(sparse_history, dense_history):
        assert ours.loss == pytest.approx(theirs.loss, rel=0, abs=1e-12)
    best = [int(np.argmax([r.val_bedroc for r in h])) for h in (sparse_history, dense_history)]
    assert best[0] == best[1]


def test_learning_rate_decay_endpoints():
    config = SelfTrainConfig(epochs=10, warmup_epochs=0, learning_rate=0.2)
    rates = [config.learning_rate_at(e) for e in range(10)]
    assert rates[0] == 0.2
    assert all(a > b for a, b in zip(rates, rates[1:]))
    assert config.learning_rate_at(10) == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        SelfTrainConfig(epochs=0)
    with pytest.raises(ValueError):
        SelfTrainConfig(epochs=5, warmup_epochs=6)
    with pytest.raises(ValueError):
        SelfTrainConfig(refresh_period=0)
    with pytest.raises(ValueError):
        SelfTrainConfig(confidence_threshold=0.0)
    with pytest.raises(ValueError):
        SelfTrainConfig(confidence_threshold=1.5)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="learning_rate"):
            SelfTrainConfig(learning_rate=bad)
    for bad in (-1e-4, math.nan, math.inf):
        with pytest.raises(ValueError, match="l2_penalty"):
            SelfTrainConfig(l2_penalty=bad)
        with pytest.raises(ValueError, match="lr_decay_power"):
            SelfTrainConfig(lr_decay_power=bad)
    SelfTrainConfig(l2_penalty=0.0, lr_decay_power=0.0)


# --- labeled sets -------------------------------------------------------


def test_labeled_set_validation():
    mols = (parse_smiles("CCO"),)
    with pytest.raises(ValueError):
        LabeledSet(ids=("a", "b"), molecules=mols, labels=np.array([0]))
    with pytest.raises(ValueError):
        LabeledSet(ids=("a",), molecules=mols, labels=np.array([2]))
    with pytest.raises(ValueError):
        LabeledSet(ids=("a",), molecules=mols, labels=np.array([1]), origin="guessed")
    half = _labeled(["c1ccccc1"], ["CCO"])
    assert half.active_fraction == 0.5
    assert LabeledSet(ids=(), molecules=(), labels=np.zeros(0)).active_fraction == 0.0


# --- persistence --------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    model = FingerprintClassifier(
        radius=3, nbits=128, weights=rng.normal(size=128), bias=-0.75
    )
    path = tmp_path / "model.json"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.radius == 3
    assert loaded.nbits == 128
    assert loaded.bias == -0.75
    assert (loaded.weights == model.weights).all()


def test_checkpoint_version_gate(tmp_path):
    model = FingerprintClassifier(nbits=128)
    path = tmp_path / "model.json"
    save_checkpoint(path, model)
    text = path.read_text().replace(
        f'"version": {CHECKPOINT_VERSION}', f'"version": {CHECKPOINT_VERSION + 1}'
    )
    path.write_text(text)
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def test_history_csv_preserves_floats_exactly(tmp_path):
    config = SelfTrainConfig(epochs=3, warmup_epochs=3, nbits=256, seed=9)
    _, history = self_train(TRAIN, (), (), VALIDATION, config)
    path = tmp_path / "history.csv"
    write_history_csv(path, history)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,loss,val_bedroc,n_pseudo"
    assert len(lines) == 4
    for line, record in zip(lines[1:], history):
        epoch, loss, val_bedroc, n_pseudo = line.split(",")
        assert int(epoch) == record.epoch
        assert float(loss) == record.loss
        assert float(val_bedroc) == record.val_bedroc
        assert int(n_pseudo) == record.n_pseudo
