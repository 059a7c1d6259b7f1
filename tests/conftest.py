from __future__ import annotations

import warnings
from pathlib import Path

import pytest

from scaffscreen.pipeline.config import RunConfig
from scaffscreen.pipeline.runner import run_experiment

from helpers.decks import SyntheticDeck, make_benchmark_deck, make_split_corpus, write_deck_csv

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def benchmark_deck() -> SyntheticDeck:
    return make_benchmark_deck()


@pytest.fixture(scope="session")
def benchmark_deck_csv(benchmark_deck, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("deck") / "benchmark_deck.csv"
    write_deck_csv(benchmark_deck, path)
    return path


@pytest.fixture(scope="session")
def split_corpus() -> SyntheticDeck:
    return make_split_corpus()


@pytest.fixture(scope="session")
def split_corpus_csv() -> Path:
    """The committed 500-record corpus; regeneration equality is its own test."""
    return DATA_DIR / "split_corpus_500.csv"


# The mini run: 150 deck records, five random splits of one cell each, top_k = 10.


@pytest.fixture(scope="session")
def mini_assay_csv(tmp_path_factory) -> Path:
    deck = make_benchmark_deck(seed=5, n_molecules=150)
    path = tmp_path_factory.mktemp("mini") / "mini_deck.csv"
    write_deck_csv(deck, path)
    return path


@pytest.fixture(scope="session")
def mini_config(mini_assay_csv) -> RunConfig:
    return RunConfig(
        assay=str(mini_assay_csv),
        seed=11,
        eval_seeds=1,
        timesteps=5,
        library_fraction=0.05,
        k_max=4,
        nbits=256,
        epochs=6,
        warmup_epochs=2,
        refresh_period=2,
        batch_size=32,
        top_k=10,
        candidate_cap=50,
        lambda_grid=(0.0, 1.0),
    )


@pytest.fixture(scope="session")
def mini_run(mini_config, tmp_path_factory) -> Path:
    run_dir = tmp_path_factory.mktemp("run") / "baseline"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_experiment(mini_config, run_dir)
    return run_dir
