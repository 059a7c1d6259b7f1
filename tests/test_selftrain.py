from __future__ import annotations

import dataclasses
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
    self_train_cells,
    write_history_csv,
    _validation_bedrocs,
)

from helpers.reference_selftrain import (
    dense_epoch,
    dense_loss_and_grad,
    dense_rows,
    one_cell_loss_and_grad,
)

ACTIVE_SMILES = [
    "c1ccccc1",
    "Cc1ccccc1",
    "CCc1ccccc1",
    "c1ccncc1",
    "Cc1ccncc1",
    "Oc1ccccc1",
]
INACTIVE_SMILES = ["CCO", "CCC", "CCCC", "CCN", "CCOC", "CC(C)C"]


def _labeled(actives, inactives) -> LabeledSet:
    smiles = list(actives) + list(inactives)
    labels = np.array([1] * len(actives) + [0] * len(inactives), dtype=np.int64)
    return LabeledSet(
        molecules=tuple(parse_smiles(s) for s in smiles),
        labels=labels,
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
        _, grad_w, grad_b = one_cell_loss_and_grad(weights, bias, features, labels, 0.05)
        for k in range(d):
            bump = np.zeros(d)
            bump[k] = eps
            up = one_cell_loss_and_grad(weights + bump, bias, features, labels, 0.05)[0]
            down = one_cell_loss_and_grad(weights - bump, bias, features, labels, 0.05)[0]
            assert (up - down) / (2 * eps) == pytest.approx(grad_w[k], rel=1e-5, abs=1e-8)
        up = one_cell_loss_and_grad(weights, bias + eps, features, labels, 0.05)[0]
        down = one_cell_loss_and_grad(weights, bias - eps, features, labels, 0.05)[0]
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
    loss, _, _ = one_cell_loss_and_grad(weights, bias, features, labels, l2)
    assert loss == pytest.approx(expected, rel=1e-12)


def test_zero_model_loss_is_log_two():
    features = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels = np.array([1, 0])
    loss, _, _ = one_cell_loss_and_grad(np.zeros(2), 0.0, features, labels, 0.0)
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
    sparse = one_cell_loss_and_grad(weights, bias, rows, labels, 0.01)
    dense = dense_loss_and_grad(weights, bias, rows.astype(np.float64), labels, 0.01)
    assert sparse[0] == pytest.approx(dense[0], rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(sparse[1], dense[1], rtol=1e-12, atol=1e-12)
    assert sparse[2] == pytest.approx(dense[2], rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    n_cells=st.integers(1, 5),
    width=st.integers(8, 1024),
    n_rows=st.integers(1, 300),
    density=st.floats(0.0, 0.3),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_stacked_step_equals_each_cell_alone_bit_for_bit(
    n_cells, width, n_rows, density, seed
):
    rng = np.random.default_rng(seed)
    rows = (rng.random((n_cells, n_rows, width)) < density).astype(np.uint8)
    labels = rng.integers(2, size=(n_cells, n_rows)).astype(np.int64)
    weights = rng.normal(size=(n_cells, width))
    biases = rng.normal(size=n_cells)
    cell, row, col = np.nonzero(rows)
    batch = SparseBatch(cell * n_rows + row, cell * width + col)
    losses, grad_w, grad_b = loss_and_grad(weights, biases, batch, labels.ravel(), 1e-3)
    for c in range(n_cells):
        alone = one_cell_loss_and_grad(weights[c].copy(), biases[c], rows[c], labels[c], 1e-3)
        assert losses[c] == alone[0]
        assert np.array_equal(grad_w[c], alone[1])
        assert grad_b[c] == alone[2]


# --- basic training -----------------------------------------------------


def test_training_separates_an_easy_problem():
    config = SelfTrainConfig(
        epochs=30, warmup_epochs=30, nbits=256, learning_rate=0.5, seed=1
    )
    model, history = self_train(TRAIN, (), VALIDATION, config)
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
    model, history = self_train(TRAIN, (), VALIDATION, config)
    assert history[1].loss < history[0].loss
    assert model.weights.any()


def test_self_train_requires_both_training_classes():
    lopsided = _labeled(ACTIVE_SMILES, [])
    config = SelfTrainConfig(epochs=2, warmup_epochs=2, nbits=256)
    with pytest.raises(DegenerateData):
        self_train(lopsided, (), VALIDATION, config)


def test_self_train_requires_mixed_validation():
    config = SelfTrainConfig(epochs=2, warmup_epochs=0, nbits=256)
    with pytest.raises(DegenerateData):
        self_train(TRAIN, (), _labeled(["c1ccccc1"], []), config)


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
    logits = predict(model, [parse_smiles(s) for s in ACTIVE_SMILES])
    assert pseudo_label(logits, confidence_threshold=0.5).size == 0
    below = pseudo_label(logits, confidence_threshold=0.4999)
    assert below.tolist() == list(range(len(ACTIVE_SMILES)))


def test_threshold_one_admits_nothing():
    model = FingerprintClassifier(nbits=128, bias=30.0)
    logits = predict(model, [parse_smiles(s) for s in ACTIVE_SMILES])
    assert pseudo_label(logits, confidence_threshold=1.0).size == 0


def test_lower_thresholds_admit_supersets():
    rng = np.random.default_rng(5)
    model = FingerprintClassifier(nbits=128, weights=rng.normal(size=128), bias=0.0)
    logits = predict(model, [parse_smiles(s) for s in ACTIVE_SMILES + INACTIVE_SMILES])
    loose = set(pseudo_label(logits, confidence_threshold=0.3).tolist())
    tight = set(pseudo_label(logits, confidence_threshold=0.7).tolist())
    assert tight <= loose


def test_pseudo_label_validation():
    logits = np.zeros(1)
    with pytest.raises(ValueError):
        pseudo_label(logits, confidence_threshold=0.0)
    with pytest.raises(ValueError):
        pseudo_label(logits, confidence_threshold=1.2)
    assert pseudo_label(np.zeros(0), confidence_threshold=0.5).size == 0


# --- self-training schedule ---------------------------------------------


def test_pool_refresh_obeys_warmup_and_cadence():
    pool = tuple(parse_smiles(s) for s in ACTIVE_SMILES * 3)
    config = SelfTrainConfig(
        epochs=12,
        warmup_epochs=4,
        refresh_period=5,
        confidence_threshold=0.2,
        nbits=256,
        learning_rate=0.5,
        seed=2,
    )
    _, history = self_train(TRAIN, pool, VALIDATION, config)
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
    config = SelfTrainConfig(
        epochs=10, warmup_epochs=2, confidence_threshold=1.0, nbits=256, seed=3
    )
    gated, gated_history = self_train(TRAIN, pool, VALIDATION, config)
    plain, plain_history = self_train(TRAIN, (), VALIDATION, config)
    assert (gated.weights == plain.weights).all()
    assert gated.bias == plain.bias
    assert gated_history == plain_history
    assert all(record.n_pseudo == 0 for record in gated_history)


def test_self_training_is_deterministic():
    # Small batches make the shuffled batch composition part of the result,
    # so the seed has an observable effect to pin down.
    pool = tuple(parse_smiles(s) for s in ACTIVE_SMILES)
    config = SelfTrainConfig(
        epochs=8, warmup_epochs=2, confidence_threshold=0.3, nbits=256,
        batch_size=4, seed=4,
    )
    first, first_history = self_train(TRAIN, pool, VALIDATION, config)
    second, second_history = self_train(TRAIN, pool, VALIDATION, config)
    assert (first.weights == second.weights).all()
    assert first.bias == second.bias
    assert first_history == second_history
    other, _ = self_train(
        TRAIN, pool, VALIDATION, SelfTrainConfig(
            epochs=8, warmup_epochs=2, confidence_threshold=0.3, nbits=256,
            batch_size=4, seed=5,
        )
    )
    assert not (first.weights == other.weights).all()


def test_returned_model_attains_the_best_validation_score():
    config = SelfTrainConfig(epochs=15, warmup_epochs=15, nbits=256, seed=6)
    model, history = self_train(TRAIN, (), VALIDATION, config)
    logits = predict(model, VALIDATION.molecules)
    ranked = RankedList.from_records(
        (f"x{i}", float(z), int(y)) for i, (z, y) in enumerate(zip(logits, VALIDATION.labels))
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
        (f"x{i}", float(z), int(y)) for i, (z, y) in enumerate(zip(logits, validation.labels))
    )
    assert _validation_bedrocs(validation.labels, logits[None]) == [bedroc(by_records)]


@pytest.fixture(scope="module")
def deck_cell(benchmark_deck):
    """Deck records 0-1199 to train, 1200-1599 to validate, and the 20 actives as a pool."""
    mols = [parse_smiles(s) for s in benchmark_deck.smiles]
    labels = np.array(benchmark_deck.labels, dtype=np.int64)

    def labeled(rows):
        return LabeledSet(
            molecules=tuple(mols[i] for i in rows),
            labels=labels[list(rows)],
        )

    pool = tuple(mols[i] for i in np.flatnonzero(labels == 1))
    return labeled(range(1200)), pool, labeled(range(1200, 1600))


DECK_CELL_CONFIG = SelfTrainConfig(
    epochs=30, warmup_epochs=5, refresh_period=1, confidence_threshold=0.5,
    nbits=1024, seed=1,
)


def test_pseudo_labeled_self_training_stays_within_a_memory_bound(deck_cell):
    # 1 200 training rows at 1 024 bits are 9.8 MB as float64; building the
    # rows as float64, or copying them for each pseudo-labeled epoch, goes
    # well past the bound.
    train, pool, validation = deck_cell
    assert len(pool) == 20
    tracemalloc.start()
    try:
        _, history = self_train(train, pool, validation, DECK_CELL_CONFIG)
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

    # Two cells, each with its own oversampling and shuffle, as the engine draws them.
    orders = []
    for seed in (7, 8):
        rng = np.random.default_rng(seed)
        indices = selftrain._oversample_to_balance(train.labels, rng)
        rng.shuffle(indices)
        orders.append(indices)
    orders = np.stack(orders)
    labels = train.labels[orders]
    stacked_cols = np.concatenate([cols, cols + 1024])

    batches = []
    original = selftrain.loss_and_grad

    def recording(weights, biases, batch, labels, l2_penalty):
        dense = np.zeros((len(labels), weights.size))
        dense[batch.row, batch.cols] = 1.0
        batches.append((dense, labels.copy()))
        return original(weights, biases, batch, labels, l2_penalty)

    monkeypatch.setattr(selftrain, "loss_and_grad", recording)
    start = np.random.default_rng(3).normal(scale=0.05, size=(2, 1024))
    results = []
    for epoch in (selftrain._run_epoch, dense_epoch):
        weights, biases = start.copy(), np.array([0.25, -0.25])
        loss = epoch(weights, biases, indptr, stacked_cols, orders, labels, 0.1, 1e-4, 128)
        results.append((weights, biases, loss))
    # Each step of the lockstep epoch is both cells' next minibatch, cell by cell.
    assert len(batches) == -(-orders.shape[1] // 128)
    for k, (dense, step_labels) in enumerate(batches):
        batch = slice(128 * k, 128 * (k + 1))
        n = len(orders[0, batch])
        expected = np.zeros((2 * n, 2048))
        expected[:n, :1024] = rows[orders[0, batch]]
        expected[n:, 1024:] = rows[orders[1, batch]]
        assert np.array_equal(dense, expected)
        assert np.array_equal(step_labels, labels[:, batch].ravel())
    (sparse_w, sparse_b, sparse_loss), (dense_w, dense_b, dense_loss) = results
    assert np.abs(sparse_w - dense_w).max() <= 1e-12
    assert np.abs(sparse_b - dense_b).max() <= 1e-12
    assert np.abs(sparse_loss - dense_loss).max() <= 1e-12

    # And the lockstep epoch is each cell's own epoch, bit for bit.
    for c in range(2):
        weights, biases = start[c : c + 1].copy(), np.array([[0.25, -0.25][c]])
        loss = selftrain._run_epoch(
            weights, biases, indptr, cols, orders[c : c + 1], labels[c : c + 1], 0.1, 1e-4, 128
        )
        assert np.array_equal(weights[0], sparse_w[c])
        assert biases[0] == sparse_b[c]
        assert loss[0] == sparse_loss[c]


def test_self_training_stays_within_rounding_of_the_dense_path(deck_cell, monkeypatch):
    train, pool, validation = deck_cell
    sparse, sparse_history = self_train(train, pool, validation, DECK_CELL_CONFIG)
    monkeypatch.setattr(selftrain, "_run_epoch", dense_epoch)
    dense, dense_history = self_train(train, pool, validation, DECK_CELL_CONFIG)
    assert np.abs(sparse.weights - dense.weights).max() <= 1e-12
    assert sparse.bias == pytest.approx(dense.bias, rel=0, abs=1e-12)
    assert [r.n_pseudo for r in sparse_history] == [r.n_pseudo for r in dense_history]
    assert sum(r.n_pseudo for r in sparse_history) > 0
    for ours, theirs in zip(sparse_history, dense_history):
        assert ours.loss == pytest.approx(theirs.loss, rel=0, abs=1e-12)
    best = [int(np.argmax([r.val_bedroc for r in h])) for h in (sparse_history, dense_history)]
    assert best[0] == best[1]


LOCKSTEP_POOL = tuple(
    parse_smiles(s)
    for s in ACTIVE_SMILES
    + INACTIVE_SMILES
    + ["CCCc1ccccc1", "Nc1ccccc1", "CCCCO", "OCc1ccncc1", "CC(=O)O", "c1ccc2ccccc2c1"]
    + ["CCCCCC", "Clc1ccncc1"]
)
LOCKSTEP_CONFIGS = [
    SelfTrainConfig(
        epochs=12, warmup_epochs=2, refresh_period=2, confidence_threshold=0.8,
        nbits=256, batch_size=4, learning_rate=0.5, seed=seed,
    )
    for seed in (1, 2, 3)
]


def test_lockstep_cells_equal_separate_runs_when_epoch_lengths_differ():
    together = self_train_cells(TRAIN, LOCKSTEP_POOL, VALIDATION, LOCKSTEP_CONFIGS)
    # TRAIN is balanced, so once pseudo-actives join, a cell's epoch has
    # 2 * (6 + n_pseudo) rows: cells that admit different counts step apart.
    per_epoch = list(zip(*([r.n_pseudo for r in history] for _, history in together)))
    assert any(len(set(counts)) > 1 for counts in per_epoch)
    assert any(len(set(counts)) < len(counts) for counts in per_epoch if max(counts))
    for config, (model, history) in zip(LOCKSTEP_CONFIGS, together):
        alone, alone_history = self_train(TRAIN, LOCKSTEP_POOL, VALIDATION, config)
        assert np.array_equal(model.weights, alone.weights)
        assert model.bias == alone.bias
        assert history == alone_history


@pytest.mark.parametrize(
    "change",
    [
        {"epochs": 13},
        {"warmup_epochs": 3},
        {"refresh_period": 3},
        {"confidence_threshold": 0.7},
        {"learning_rate": 0.4},
        {"l2_penalty": 1e-3},
        {"batch_size": 8},
        {"lr_decay_power": 1.0},
        {"radius": 3},
        {"nbits": 128},
    ],
)
def test_lockstep_cells_may_differ_only_in_seed(change):
    other = dataclasses.replace(LOCKSTEP_CONFIGS[1], **change)
    with pytest.raises(ValueError, match="only in seed"):
        self_train_cells(TRAIN, (), VALIDATION, [LOCKSTEP_CONFIGS[0], other])


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
    with pytest.raises(ValueError, match="align"):
        LabeledSet(molecules=mols, labels=np.array([0, 1]))
    with pytest.raises(ValueError, match="binary"):
        LabeledSet(molecules=mols, labels=np.array([2]))
    assert LabeledSet(molecules=(), labels=np.zeros(0)).size == 0


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
    _, history = self_train(TRAIN, (), VALIDATION, config)
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
