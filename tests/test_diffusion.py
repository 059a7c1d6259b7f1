from __future__ import annotations

import gc
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scaffscreen.chem import Atom, parse_smiles, to_smiles
from scaffscreen.diffusion import (
    CosineSchedule,
    EDGE_NONE,
    ExternalDenoiser,
    GenerationReport,
    MarginalDenoiser,
    OneHotEchoDenoiser,
    ProtocolError,
    compute_marginals,
    decode_graph,
    encode_molecule,
    extend_scaffold,
    generate_scaffold_extensions,
    mixing_matrix,
    posterior_distributions,
)
from scaffscreen.diffusion import denoisers as denoisers_module
from scaffscreen.diffusion import sampler as sampler_module
from scaffscreen.diffusion.denoisers import _decode, _request_lines

from helpers.chain_stack import split_stack

HELPER = Path(__file__).parent / "helpers" / "echo_denoiser.py"


def _mols(*smiles):
    return [parse_smiles(s) for s in smiles]


# --- marginals ----------------------------------------------------------


def test_ethanol_marginals_by_hand():
    marginals = compute_marginals(_mols("CCO"))
    assert marginals.atom_types == (Atom("C"), Atom("O"))
    assert marginals.node_prior == pytest.approx([2 / 3, 1 / 3])
    # Three atom pairs: two single bonds, one non-bond.
    assert marginals.edge_prior == pytest.approx([1 / 3, 2 / 3, 0.0, 0.0, 0.0])
    assert marginals.sizes.tolist() == [3]
    assert marginals.size_probs == pytest.approx([1.0])


def test_benzene_marginals_by_hand():
    marginals = compute_marginals(_mols("c1ccccc1"))
    assert marginals.atom_types == (Atom("C", aromatic=True),)
    assert marginals.node_prior == pytest.approx([1.0])
    # Fifteen pairs, six of them aromatic bonds.
    assert marginals.edge_prior == pytest.approx([9 / 15, 0.0, 0.0, 0.0, 6 / 15])


def test_mixed_dataset_marginals_by_hand():
    marginals = compute_marginals(_mols("CCO", "c1ccccc1"))
    assert marginals.atom_types == (Atom("C"), Atom("C", aromatic=True), Atom("O"))
    assert marginals.node_prior == pytest.approx([2 / 9, 6 / 9, 1 / 9])
    assert marginals.edge_prior == pytest.approx([10 / 18, 2 / 18, 0.0, 0.0, 6 / 18])
    assert marginals.sizes.tolist() == [3, 6]
    assert marginals.size_probs == pytest.approx([0.5, 0.5])


def test_single_atom_dataset_puts_mass_on_no_edge():
    marginals = compute_marginals(_mols("C"))
    assert marginals.edge_prior == pytest.approx([1.0, 0.0, 0.0, 0.0, 0.0])
    assert marginals.sizes.tolist() == [1]


def test_marginals_reject_empty_dataset():
    with pytest.raises(ValueError):
        compute_marginals([])


def test_encode_decode_round_trip():
    marginals = compute_marginals(
        _mols("CCO", "c1ccccc1", "CC(=O)Oc1ccccc1C(=O)O", "[NH3+]CC([O-])=O")
    )
    for smiles in ("CCO", "c1ccccc1", "CC(=O)Oc1ccccc1C(=O)O", "[NH3+]CC([O-])=O"):
        mol = parse_smiles(smiles)
        nodes, pairs = encode_molecule(mol, marginals)
        assert pairs.shape == (mol.n_atoms * (mol.n_atoms - 1) // 2,)
        assert decode_graph(nodes, pairs, marginals.atom_types) == mol


def test_encoding_of_ethanol_is_explicit():
    marginals = compute_marginals(_mols("CCO"))
    nodes, pairs = encode_molecule(parse_smiles("CCO"), marginals)
    assert nodes.tolist() == [0, 0, 1]
    # Pairs (0, 1), (0, 2), (1, 2): two single bonds around the non-bond.
    assert pairs.tolist() == [1, 0, 1]


def test_pair_encoding_is_the_upper_triangle_of_the_bond_matrix():
    marginals = compute_marginals(_mols("CC(=O)Oc1ccccc1C(=O)O", "C#N"))
    for smiles in ("CC(=O)Oc1ccccc1C(=O)O", "C#N", "C"):
        mol = parse_smiles(smiles)
        n = mol.n_atoms
        dense = np.zeros((n, n), dtype=np.int64)
        for (i, j), order in mol.bonds.items():
            dense[i, j] = dense[j, i] = int(order)
        _, pairs = encode_molecule(mol, marginals)
        assert pairs.tolist() == dense[np.triu_indices(n, k=1)].tolist()


# --- schedule -----------------------------------------------------------


def test_retention_boundary_values():
    schedule = CosineSchedule(timesteps=50)
    assert schedule.alpha_bar(0) == 1.0
    assert schedule.alpha_bar(50) < 1e-4


def test_retention_decreases_strictly():
    schedule = CosineSchedule(timesteps=50)
    values = [schedule.alpha_bar(t) for t in range(51)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_step_ratio_is_consistent_and_bounded():
    schedule = CosineSchedule(timesteps=20)
    for t in range(1, 21):
        ratio = schedule.step_ratio(t)
        assert ratio == pytest.approx(schedule.alpha_bar(t) / schedule.alpha_bar(t - 1))
        assert 0.0 < ratio < 1.0


def test_schedule_argument_validation():
    schedule = CosineSchedule(timesteps=10)
    with pytest.raises(ValueError):
        schedule.alpha_bar(-1)
    with pytest.raises(ValueError):
        schedule.alpha_bar(11)
    with pytest.raises(ValueError):
        schedule.step_ratio(0)
    with pytest.raises(ValueError):
        CosineSchedule(timesteps=0)


def test_mixing_matrix_shape_and_rows():
    prior = np.array([0.5, 0.3, 0.2])
    m = mixing_matrix(0.4, prior)
    assert m.shape == (3, 3)
    assert m.sum(axis=1) == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
    assert (mixing_matrix(1.0, prior) == np.eye(3)).all()
    flat = mixing_matrix(0.0, prior)
    for row in flat:
        assert row == pytest.approx(prior, abs=1e-15)


def test_mixing_matrices_compose_multiplicatively():
    rng = np.random.default_rng(0)
    prior = rng.dirichlet(np.ones(5))
    a, b = 0.7, 0.4
    product = mixing_matrix(a, prior) @ mixing_matrix(b, prior)
    assert np.allclose(product, mixing_matrix(a * b, prior), atol=1e-12)


# --- posterior ----------------------------------------------------------


def _oracle_posterior(pred_rows, current, qstep, qbar_prev):
    """Bayes rule per clean category, normalized by an explicit sum."""
    n_positions, n_clean = pred_rows.shape
    n_cat = qstep.shape[0]
    out = np.zeros((n_positions, n_cat))
    for p in range(n_positions):
        k = int(current[p])
        for x in range(n_clean):
            joint = np.array([qstep[j, k] * qbar_prev[x, j] for j in range(n_cat)])
            out[p] += pred_rows[p, x] * joint / joint.sum()
    return out


def _assert_posterior_matches_bayes(marginals, schedule, seed):
    rng = np.random.default_rng(seed)
    n, a = 5, marginals.n_atom_types
    nodes = rng.integers(a, size=n)
    # Only categories with prior support are reachable by the forward
    # process, so random states must stay inside that support.
    reachable = np.flatnonzero(marginals.edge_prior > 0)
    iu, ju = np.triu_indices(n, k=1)
    pairs = rng.choice(reachable, size=(n, n))[iu, ju]
    node_pred = rng.dirichlet(np.ones(a), size=n)
    pair_pred = rng.dirichlet(np.ones(5), size=(n, n))[iu, ju]
    node_post = posterior_distributions(7, nodes, node_pred, marginals.node_prior, schedule)
    pair_post = posterior_distributions(7, pairs, pair_pred, marginals.edge_prior, schedule)

    qstep_x = mixing_matrix(schedule.step_ratio(7), marginals.node_prior)
    qprev_x = mixing_matrix(schedule.alpha_bar(6), marginals.node_prior)
    assert np.allclose(
        node_post, _oracle_posterior(node_pred, nodes, qstep_x, qprev_x), atol=1e-12
    )

    qstep_e = mixing_matrix(schedule.step_ratio(7), marginals.edge_prior)
    qprev_e = mixing_matrix(schedule.alpha_bar(6), marginals.edge_prior)
    assert np.allclose(
        pair_post, _oracle_posterior(pair_pred, pairs, qstep_e, qprev_e), atol=1e-12
    )


def test_posterior_matches_brute_force_bayes():
    marginals = compute_marginals(_mols("CCO", "c1ccncc1", "CC(=O)O"))
    _assert_posterior_matches_bayes(marginals, CosineSchedule(timesteps=20), seed=42)


def test_posterior_follows_new_priors_after_earlier_marginals_are_freed(monkeypatch):
    # Two datasets over the same atom types in other proportions, built and
    # freed in turn. Each posterior must follow its own priors (a table keyed
    # by object identity would serve one dataset the other's matrices once an
    # id is reused), and an equal dataset built anew must find its tables
    # already made (an identity key would build them again).
    calls = []

    def counting_mixing_matrix(retention, prior):
        calls.append(retention)
        return mixing_matrix(retention, prior)

    monkeypatch.setattr(sampler_module, "mixing_matrix", counting_mixing_matrix)
    schedule = CosineSchedule(timesteps=20)
    datasets = (("CCO", "c1ccncc1", "CC(=O)O"), ("OCO", "c1cnccn1", "OCC(O)O"))
    priors = []
    for attempt in range(8):
        if attempt == 2:
            calls.clear()
        marginals = compute_marginals(_mols(*datasets[attempt % 2]))
        priors.append(marginals.node_prior.copy())
        _assert_posterior_matches_bayes(marginals, schedule, seed=attempt)
        del marginals
        gc.collect()
    assert not np.allclose(priors[0], priors[1])
    assert calls == []


def test_posterior_rows_sum_to_one_without_rescaling():
    marginals = compute_marginals(_mols("CCO", "c1ccccc1", "CC(=O)O"))
    schedule = CosineSchedule(timesteps=20)
    rng = np.random.default_rng(3)
    n, a = 6, marginals.n_atom_types
    iu, ju = np.triu_indices(n, k=1)
    nodes = rng.integers(a, size=n)
    reachable = np.flatnonzero(marginals.edge_prior > 0)
    pairs = rng.choice(reachable, size=(n, n))[iu, ju]
    for t in (1, 5, 10, 20):
        node_pred = rng.dirichlet(np.ones(a), size=n)
        pair_pred = rng.dirichlet(np.ones(5), size=(n, n))[iu, ju]
        node_post = posterior_distributions(t, nodes, node_pred, marginals.node_prior, schedule)
        pair_post = posterior_distributions(t, pairs, pair_pred, marginals.edge_prior, schedule)
        assert np.allclose(node_post.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(pair_post.sum(axis=1), 1.0, atol=1e-9)


def test_posterior_requires_positive_t():
    marginals = compute_marginals(_mols("CCO"))
    schedule = CosineSchedule(timesteps=10)
    nodes = np.array([0, 1])
    node_pred, _ = MarginalDenoiser(marginals).denoise(0, nodes, np.zeros(1, dtype=np.int64), [2])
    for t in (0, 11):
        with pytest.raises(ValueError, match=r"t must lie in \[1, 10\]"):
            posterior_distributions(t, nodes, node_pred, marginals.node_prior, schedule)


class RecordingDenoiser:
    """Forwards to ``inner`` and keeps copies of what it was asked about.

    ``calls`` holds each call's (t, nodes, pairs, sizes) and ``seen`` each
    chain's (t, nodes, pairs) of every call, split from the stack.
    """

    def __init__(self, inner):
        self.inner = inner
        self.calls = []
        self.seen = []

    def denoise(self, t, nodes, pairs, sizes):
        self.calls.append((t, nodes.copy(), pairs.copy(), list(sizes)))
        for chain_nodes, chain_pairs in split_stack(nodes, pairs, sizes):
            self.seen.append((t, chain_nodes.copy(), chain_pairs.copy()))
        return self.inner.denoise(t, nodes, pairs, sizes)


def _record_posteriors(monkeypatch):
    """Route the engine's posterior through a recorder of (t, current, rows)."""
    calls = []

    def recording(t, current, pred, prior, schedule):
        rows = posterior_distributions(t, current, pred, prior, schedule)
        calls.append((t, current.copy(), rows))
        return rows

    monkeypatch.setattr(sampler_module, "posterior_distributions", recording)
    return calls


def test_posterior_step_keeps_anchor_and_decrements_t(monkeypatch):
    marginals = compute_marginals(_mols("CCO", "c1ccccc1", "CCN(CC)CC"))
    schedule = CosineSchedule(timesteps=10)
    scaffold = parse_smiles("c1ccccc1")
    anchor_nodes, anchor_pairs = encode_molecule(scaffold, marginals)
    denoiser = RecordingDenoiser(MarginalDenoiser(marginals))
    posteriors = _record_posteriors(monkeypatch)
    mol = extend_scaffold(scaffold, denoiser, marginals, schedule=schedule, seed=1)
    assert [t for t, _, _ in denoiser.seen] == list(range(10, 0, -1))
    (n,) = {len(nodes) for _, nodes, _ in denoiser.seen}
    assert n > 6
    iu, ju = np.triu_indices(n, k=1)
    for _, nodes, pairs in denoiser.seen:
        assert (nodes[:6] == anchor_nodes).all()
        assert (pairs[ju < 6] == anchor_pairs).all()
        assert len(pairs) == len(iu)
    # Each step computes the node rows, then the pair rows, from the graph it was asked about.
    assert [t for t, _, _ in posteriors] == [t for t in range(10, 0, -1) for _ in "np"]
    for (_, nodes, pairs), node_call, pair_call in zip(
        denoiser.seen, posteriors[::2], posteriors[1::2]
    ):
        assert (node_call[1] == nodes).all()
        assert node_call[2].shape == (n, marginals.n_atom_types)
        assert (pair_call[1] == pairs).all()
        assert pair_call[2].shape == (n * (n - 1) // 2, marginals.n_edge_types)
    assert mol.subgraph(range(6)) == scaffold


# --- denoisers ----------------------------------------------------------


def test_marginal_denoiser_predicts_priors_everywhere():
    marginals = compute_marginals(_mols("CCO", "c1ccccc1"))
    # Two chains of sizes 4 and 2: 6 nodes and 6 + 1 pairs.
    nodes = np.array([0, 1, 2, 1, 0, 0])
    pairs = np.zeros(7, dtype=np.int64)
    node_rows, pair_rows = MarginalDenoiser(marginals).denoise(5, nodes, pairs, [4, 2])
    assert node_rows.shape == (6, marginals.n_atom_types)
    assert pair_rows.shape == (7, marginals.n_edge_types)
    for row in node_rows:
        assert row == pytest.approx(marginals.node_prior)
    assert np.allclose(pair_rows, marginals.edge_prior)


def test_one_hot_echo_denoiser_is_certain_about_the_input():
    nodes = np.array([2, 0, 1])
    # Pairs (0, 1), (0, 2), (1, 2): one aromatic bond.
    pairs = np.array([4, 0, 0])
    node_rows, pair_rows = OneHotEchoDenoiser(3).denoise(1, nodes, pairs, [3])
    assert node_rows.shape == (3, 3)
    assert pair_rows.shape == (3, 5)
    assert (node_rows.argmax(axis=1) == nodes).all()
    assert (node_rows.max(axis=1) == 1.0).all()
    assert pair_rows[0].argmax() == 4
    assert pair_rows[2].argmax() == EDGE_NONE


class _WidthDenoiser(MarginalDenoiser):
    """Marginal rows, one column short for nodes or for pairs."""

    def __init__(self, marginals, short):
        super().__init__(marginals)
        self.short = short

    def denoise(self, t, nodes, pairs, sizes):
        node_rows, pair_rows = super().denoise(t, nodes, pairs, sizes)
        if self.short == "nodes":
            return node_rows[:, 1:], pair_rows
        return node_rows, pair_rows[:, 1:]


@pytest.mark.parametrize("short", ["nodes", "pairs"])
def test_engine_rejects_denoiser_rows_of_the_wrong_width(short):
    marginals = compute_marginals(_mols("CCO", "c1ccccc1"))
    with pytest.raises(ValueError, match="denoiser row shapes"):
        extend_scaffold(
            parse_smiles("c1ccccc1"),
            _WidthDenoiser(marginals, short),
            marginals,
            schedule=CosineSchedule(timesteps=3),
        )


def _cumsum_sample_rows(probs, u):
    """The row-``cumsum`` draw that ``sampler._sample_rows`` replaced."""
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    return (cdf < u[:, None]).sum(axis=1)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 40),
    width=st.integers(1, 12),
    scale=st.floats(1e-3, 1e3),
    zero_share=st.floats(0.0, 0.9),
    tie_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=0, width=5, scale=1.0, zero_share=0.0, tie_share=0.0, seed=0)
@example(n=6, width=1, scale=1.0, zero_share=0.0, tie_share=0.0, seed=0)
def test_category_major_draws_equal_the_row_cumsum_oracle(
    n, width, scale, zero_share, tie_share, seed
):
    # Zero-probability categories (whole zero rows too), rows that do not sum
    # to one, and uniforms exactly at a cdf step all occur.
    rng = np.random.default_rng(seed)
    probs = rng.random((n, width)) * scale
    probs[rng.random((n, width)) < zero_share] = 0.0
    u = rng.random(n)
    with np.errstate(invalid="ignore"):
        cdf = np.cumsum(probs, axis=1)
        cdf /= cdf[:, -1:]
        tie = rng.random(n) < tie_share
        u[tie] = cdf[tie, rng.integers(0, width, size=int(tie.sum()))]
        want = _cumsum_sample_rows(probs, u)
        got = sampler_module._sample_rows(probs, u)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


# --- external denoiser --------------------------------------------------


def _echo_command(mode: str, n_atom_types: int) -> list[str]:
    return [sys.executable, str(HELPER), mode, str(n_atom_types)]


def test_external_denoiser_round_trip_matches_in_process_echo():
    marginals = compute_marginals(_mols("CCO", "c1ccccc1"))
    # A stack of two chains, benzene then ethanol: one request each.
    (benzene_nodes, benzene_pairs), (ethanol_nodes, ethanol_pairs) = (
        encode_molecule(mol, marginals) for mol in _mols("c1ccccc1", "CCO")
    )
    nodes = np.concatenate([benzene_nodes, ethanol_nodes])
    pairs = np.concatenate([benzene_pairs, ethanol_pairs])
    a = marginals.n_atom_types
    with ExternalDenoiser(_echo_command("echo", a)) as external:
        got = external.denoise(3, nodes, pairs, [6, 3])
        again = external.denoise(2, nodes, pairs, [6, 3])
    want = OneHotEchoDenoiser(a).denoise(3, nodes, pairs, [6, 3])
    assert np.allclose(got[0], want[0])
    assert np.allclose(got[1], want[1])
    assert np.allclose(again[0], want[0])


def test_external_denoiser_rejects_non_json():
    nodes = np.array([0, 1])
    pairs = np.zeros(1, dtype=np.int64)
    with ExternalDenoiser(_echo_command("garbage", 2)) as external:
        with pytest.raises(ProtocolError, match="invalid JSON"):
            external.denoise(1, nodes, pairs, [2])


def test_external_denoiser_rejects_bad_probability_rows():
    nodes = np.array([0, 1])
    pairs = np.zeros(1, dtype=np.int64)
    with ExternalDenoiser(_echo_command("badrow", 2)) as external:
        with pytest.raises(ProtocolError, match="sum to 1"):
            external.denoise(1, nodes, pairs, [2])


def test_external_denoiser_rejects_negative_probabilities():
    # The child's first node row is [1.5, -0.5], which sums to one.
    nodes = np.array([0, 1])
    pairs = np.zeros(1, dtype=np.int64)
    with ExternalDenoiser(_echo_command("negative", 2)) as external:
        with pytest.raises(ProtocolError, match="negative or not finite"):
            external.denoise(1, nodes, pairs, [2])


# A clean reply for a one-node chain, stacked before the reply under test.
CLEAN_REPLY = json.dumps({"node_probs": [[1.0, 0.0]], "edge_probs": []})


@pytest.mark.parametrize(
    ("node_row", "edge_row"),
    [
        ([1.5, -0.5], [1.0, 0.0, 0.0, 0.0, 0.0]),
        ([1.0, 0.0], [1.2, -0.2, 0.0, 0.0, 0.0]),
        ([float("nan"), 1.0], [1.0, 0.0, 0.0, 0.0, 0.0]),
        ([1.0, 0.0], [float("inf"), 0.0, 0.0, 0.0, 0.0]),
    ],
)
def test_external_decode_rejects_negative_or_non_finite_entries(node_row, edge_row):
    payload = {"node_probs": [node_row, [0.0, 1.0]], "edge_probs": [[0, 1, edge_row]]}
    with pytest.raises(ProtocolError, match="negative or not finite"):
        _decode([CLEAN_REPLY, json.dumps(payload)], [1, 2])


@pytest.mark.parametrize(("offset", "accepted"), [(5e-6, True), (2e-5, False)])
def test_external_decode_keeps_the_row_sum_tolerance(offset, accepted):
    # np.allclose(sums, 1, atol=1e-9) passes sums within 1e-5 + 1e-9 of one.
    payload = {"node_probs": [[1.0 - offset, 2 * offset], [0.0, 1.0]], "edge_probs": []}
    lines = [CLEAN_REPLY, json.dumps(payload)]
    if accepted:
        _decode(lines, [1, 2])
    else:
        with pytest.raises(ProtocolError, match="sum to 1"):
            _decode(lines, [1, 2])


def test_external_decode_quotes_the_bad_reply_of_a_stack():
    good = json.dumps({"node_probs": [[1.0, 0.0], [0.0, 1.0]], "edge_probs": []})
    bad_node = json.dumps({"node_probs": [[0.7, 0.7], [0.0, 1.0]], "edge_probs": []})
    bad_edge = json.dumps(
        {"node_probs": [[1.0, 0.0], [0.0, 1.0]], "edge_probs": [[1, 0, [0.5, 0.0, 0.0, 0.0, 0.0]]]}
    )
    for bad in (bad_node, bad_edge):
        with pytest.raises(ProtocolError, match="sum to 1") as caught:
            _decode([good, bad, good], [2, 2, 2])
        assert str(caught.value).endswith(repr(bad))


def test_external_decode_rejects_replies_that_disagree_on_width():
    two_wide = json.dumps({"node_probs": [[1.0, 0.0]]})
    three_wide = json.dumps({"node_probs": [[1.0, 0.0, 0.0]]})
    with pytest.raises(ProtocolError, match="shape") as caught:
        _decode([two_wide, three_wide], [1, 1])
    assert str(caught.value).endswith(repr(three_wide))
    with pytest.raises(ProtocolError, match="node rows for 2 nodes"):
        _decode([two_wide, two_wide], [1, 2])


def test_external_denoiser_rejects_shape_mismatch():
    # The child answers with rows one category wider than the deck's, which
    # the engine's row-shape check rejects.
    marginals = compute_marginals(_mols("CCO", "c1ccccc1"))
    command = _echo_command("echo", marginals.n_atom_types + 1)
    with ExternalDenoiser(command) as external:
        with pytest.raises(ValueError, match="row shapes"):
            generate_scaffold_extensions(
                _mols("c1ccccc1"), [0], external, marginals, CosineSchedule(timesteps=2)
            )


@pytest.mark.parametrize(
    ("mode", "message"),
    [("pair", "triples"), ("wide", "shape"), ("outside", "out of bounds")],
)
def test_external_denoiser_rejects_malformed_edge_entries(mode, message):
    # The other edge entries are well formed, so the one bad entry is found
    # among them.
    marginals = compute_marginals(_mols("CCO", "c1ccccc1"))
    nodes, pairs = encode_molecule(parse_smiles("c1ccccc1"), marginals)
    a = marginals.n_atom_types
    with ExternalDenoiser(_echo_command(mode, a)) as external:
        with pytest.raises(ProtocolError, match=message):
            external.denoise(1, nodes, pairs, [6])


def test_external_decode_matches_a_loop_over_entries():
    # Entries may repeat a pair in either orientation; the last one wins in
    # both cells, as when each entry is written in turn. A diagonal entry
    # lands on no pair. A second chain's entries land in its own pairs.
    single, double, triple = ([float(k == c) for k in range(5)] for c in (1, 2, 3))
    stack = [
        (4, [[0, 1, single], [2, 0, triple], [1, 0, double], [3, 2, single], [0, 2, double],
             [1, 1, triple]]),
        (3, [[2, 1, double], [0, 0, single], [1, 2, triple]]),
    ]
    lines = [json.dumps({"node_probs": [[1.0]] * n, "edge_probs": e}) for n, e in stack]
    _, got = _decode(lines, [n for n, _ in stack])
    want = []
    for n, entries in stack:
        cells = np.zeros((n, n, 5))
        cells[:, :, EDGE_NONE] = 1.0
        for i, j, row in entries:
            cells[i, j] = row
            cells[j, i] = row
        want.append(cells[np.triu_indices(n, k=1)])
    assert np.array_equal(got, np.concatenate(want))


def test_external_request_matches_a_loop_over_pairs():
    def loop_request(t, nodes, edges):
        n = len(nodes)
        sparse = [
            [i, j, int(edges[i, j])]
            for i in range(n)
            for j in range(i + 1, n)
            if edges[i, j] != EDGE_NONE
        ]
        return json.dumps({"t": int(t), "nodes": [int(v) for v in nodes], "edges": sparse}) + "\n"

    rng = np.random.default_rng(8)
    for _ in range(20):
        # A stack mixes 1- and 2-node chains with larger ones, some without edges.
        sizes = rng.choice([1, 2, 3, 7, 15, 30], size=int(rng.integers(1, 6))).tolist()
        chains = []
        for n in sizes:
            density = rng.choice([0.0, 0.3, 1.0])
            upper = np.triu(rng.integers(1, 5, (n, n)) * (rng.random((n, n)) < density), 1)
            chains.append((rng.integers(0, 6, n), upper + upper.T))
        nodes = np.concatenate([chain_nodes for chain_nodes, _ in chains])
        pairs = np.concatenate([edges[np.triu_indices(len(edges), k=1)] for _, edges in chains])
        t = int(rng.integers(1, 50))
        want = [loop_request(t, chain_nodes, edges) for chain_nodes, edges in chains]
        assert _request_lines(t, nodes, pairs, sizes) == want


def test_external_denoiser_restarts_after_close():
    nodes = np.array([0])
    pairs = np.zeros(0, dtype=np.int64)
    external = ExternalDenoiser(_echo_command("echo", 2))
    first = external.denoise(1, nodes, pairs, [1])
    external.close()
    second = external.denoise(1, nodes, pairs, [1])
    external.close()
    external.close()  # idempotent
    assert np.allclose(first[0], second[0])


class _WaitsForExit:
    """Forwards to an ``ExternalDenoiser`` and waits, after each call, for its child to exit."""

    def __init__(self, external):
        self.external = external

    def denoise(self, t, nodes, pairs, sizes):
        rows = self.external.denoise(t, nodes, pairs, sizes)
        self.external._proc.wait(timeout=30)
        return rows


def test_external_denoiser_fails_when_its_child_exits_mid_run(tmp_path, monkeypatch):
    pids = tmp_path / "pids.txt"
    monkeypatch.setenv("ECHO_DENOISER_PIDS", str(pids))
    marginals = compute_marginals(_mols(*EXTENSION_DATASET))
    with ExternalDenoiser(_echo_command("once", marginals.n_atom_types)) as external:
        with pytest.raises(ProtocolError, match="exited with code 0"):
            extend_scaffold(
                parse_smiles("c1ccccc1"),
                _WaitsForExit(external),
                marginals,
                schedule=CosineSchedule(timesteps=2),
            )
    assert len(pids.read_text(encoding="utf-8").split()) == 1


def test_external_denoiser_close_kills_a_child_that_ignores_eof(monkeypatch):
    monkeypatch.setattr(denoisers_module, "CLOSE_TIMEOUT_S", 0.2)
    external = ExternalDenoiser(_echo_command("linger", 2))
    try:
        external.denoise(1, np.array([0]), np.zeros(0, dtype=np.int64), [1])
        proc = external._proc
        external.close()
        assert proc.poll() is not None
        assert external._proc is None
    finally:
        if external._proc is not None:
            external._proc.kill()
            external._proc.wait()


# --- scaffold extension -------------------------------------------------

EXTENSION_DATASET = (
    "CCO",
    "c1ccccc1",
    "C1CCCCC1",
    "c1ccncc1",
    "CC(=O)Oc1ccccc1C(=O)O",
    "CCN(CC)CC",
)


def test_extension_keeps_scaffold_anchored_at_every_step(monkeypatch):
    marginals = compute_marginals(_mols(*EXTENSION_DATASET))
    schedule = CosineSchedule(timesteps=10)
    scaffold = parse_smiles("c1ccccc1")
    anchor_nodes, anchor_pairs = encode_molecule(scaffold, marginals)
    denoiser = RecordingDenoiser(OneHotEchoDenoiser(marginals.n_atom_types))
    posteriors = _record_posteriors(monkeypatch)
    mol = extend_scaffold(scaffold, denoiser, marginals, schedule=schedule, seed=3)
    assert [t for t, _, _ in denoiser.seen] == list(range(10, 0, -1))
    for _, nodes, pairs in denoiser.seen:
        _, ju = np.triu_indices(len(nodes), k=1)
        assert (nodes[:6] == anchor_nodes).all()
        assert (pairs[ju < 6] == anchor_pairs).all()
    assert len(posteriors) == 2 * schedule.timesteps
    for _, _, rows in posteriors:
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)
    assert mol.n_atoms >= scaffold.n_atoms
    assert mol.subgraph(range(scaffold.n_atoms)) == scaffold


def test_extension_is_seed_deterministic():
    marginals = compute_marginals(_mols(*EXTENSION_DATASET))
    schedule = CosineSchedule(timesteps=8)
    scaffold = parse_smiles("c1ccncc1")
    denoiser = MarginalDenoiser(marginals)
    first = extend_scaffold(scaffold, denoiser, marginals, schedule=schedule, seed=11)
    second = extend_scaffold(scaffold, denoiser, marginals, schedule=schedule, seed=11)
    third = extend_scaffold(scaffold, denoiser, marginals, schedule=schedule, seed=12)
    assert first == second
    # A different seed is allowed to coincide on tiny graphs, but the
    # scaffold prefix must hold for both.
    assert third.subgraph(range(scaffold.n_atoms)) == scaffold


def test_extension_rejects_out_of_vocabulary_scaffolds():
    marginals = compute_marginals(_mols("CCO", "c1ccccc1"))
    with pytest.raises(KeyError):
        extend_scaffold(
            parse_smiles("c1ccsc1"),
            MarginalDenoiser(marginals),
            marginals,
            schedule=CosineSchedule(timesteps=5),
            seed=0,
        )


def test_size_fallback_when_histogram_cannot_exceed_scaffold():
    # The dataset only ever shows six-atom molecules, so a ten-atom scaffold
    # exhausts rejection sampling and lands on size + 5.
    marginals = compute_marginals(_mols("c1ccccc1"))
    scaffold = parse_smiles("c1ccc2ccccc2c1")
    denoiser = RecordingDenoiser(OneHotEchoDenoiser(marginals.n_atom_types))
    extend_scaffold(
        scaffold, denoiser, marginals, schedule=CosineSchedule(timesteps=5), seed=0
    )
    assert len(denoiser.seen) == 5
    assert {len(nodes) for _, nodes, _ in denoiser.seen} == {scaffold.n_atoms + 5}


def test_extensions_build_each_transition_matrix_once(monkeypatch):
    calls = []

    def counting_mixing_matrix(retention, prior):
        calls.append(retention)
        return mixing_matrix(retention, prior)

    monkeypatch.setattr(sampler_module, "mixing_matrix", counting_mixing_matrix)
    # A dataset no other test uses, so no earlier table serves its priors.
    marginals = compute_marginals(_mols(*EXTENSION_DATASET, "C1CC1"))
    scaffolds = [parse_smiles(s) for s in ("c1ccccc1", "c1ccncc1", "C1CCCCC1", "c1ccccc1")]
    entries, _ = generate_scaffold_extensions(
        scaffolds,
        [0, 1, 2, 0],
        MarginalDenoiser(marginals),
        marginals,
        schedule=CosineSchedule(timesteps=5),
        seed=3,
    )
    assert len(entries) == 4
    # Six matrices per step would be 4 chains x 5 steps x 6 = 120 calls.
    assert 0 < len(calls) <= 6 * 5


LOCKSTEP_DATASET = (*EXTENSION_DATASET, "c1ccc2ccccc2c1", "C1CC1CCCCCC")
LOCKSTEP_SCAFFOLDS = (
    "c1ccccc1",
    "C1CC1",
    "c1ccc2ccccc2c1",
    "c1ccncc1",
    "C1CCCCC1",
    "c1ccccc1",
    "C1CC1",
    "c1ccc2ccccc2c1",
    "c1ccncc1",
)
# Anthracene outgrows every molecule of LOCKSTEP_DATASET, so its size falls back.
FALLBACK_SCAFFOLD = "c1ccc2cc3ccccc3cc2c1"
GOLDEN_EXTENSIONS = Path(__file__).parent / "data" / "extensions_golden.json"


def _denoiser(kind, marginals):
    if kind == "marginal":
        return MarginalDenoiser(marginals)
    return OneHotEchoDenoiser(marginals.n_atom_types)


def _golden_smiles(denoiser, marginals):
    """SMILES of every entry of the golden mixed-size call under ``denoiser``."""
    scaffolds = _mols(*LOCKSTEP_SCAFFOLDS, FALLBACK_SCAFFOLD)
    entries, _ = generate_scaffold_extensions(
        scaffolds,
        list(range(len(scaffolds))),
        denoiser,
        marginals,
        schedule=CosineSchedule(timesteps=12),
        seed=21,
    )
    return [to_smiles(entry.molecule) for entry in entries]


def golden_extensions():
    """SMILES of every entry of one mixed-size call, per denoiser kind."""
    marginals = compute_marginals(_mols(*LOCKSTEP_DATASET))
    return {
        kind: _golden_smiles(_denoiser(kind, marginals), marginals)
        for kind in ("marginal", "echo")
    }


def test_extensions_match_the_golden_smiles():
    """Both denoisers' extensions, the size fallback among them, are pinned.

    ``tests/data/extensions_golden.json`` holds ``golden_extensions()``; a
    change that moves a generated molecule on purpose rewrites it.
    """
    golden = json.loads(GOLDEN_EXTENSIONS.read_text(encoding="utf-8"))
    got = golden_extensions()
    fallback = parse_smiles(FALLBACK_SCAFFOLD).n_atoms
    assert max(parse_smiles(s).n_atoms for s in LOCKSTEP_DATASET) < fallback
    assert got == golden


def test_external_echo_extensions_match_the_golden_smiles():
    # The child answers only the present pairs, so absent ones take the
    # protocol's default row; the size fallback's chain is among them.
    golden = json.loads(GOLDEN_EXTENSIONS.read_text(encoding="utf-8"))
    marginals = compute_marginals(_mols(*LOCKSTEP_DATASET))
    a = marginals.n_atom_types
    with ExternalDenoiser(_echo_command("echo", a)) as external:
        assert _golden_smiles(external, marginals) == golden["echo"]


def test_each_timestep_makes_one_denoiser_call_over_every_chain():
    marginals = compute_marginals(_mols(*LOCKSTEP_DATASET))
    scaffolds = _mols(*LOCKSTEP_SCAFFOLDS, FALLBACK_SCAFFOLD)
    schedule = CosineSchedule(timesteps=12)
    denoiser = RecordingDenoiser(MarginalDenoiser(marginals))
    generate_scaffold_extensions(
        scaffolds, list(range(len(scaffolds))), denoiser, marginals, schedule=schedule, seed=21
    )
    assert [t for t, _, _, _ in denoiser.calls] == list(range(12, 0, -1))
    (sizes,) = {tuple(sizes) for _, _, _, sizes in denoiser.calls}
    assert len(sizes) == len(scaffolds)
    assert len(set(sizes)) > 2
    for _, nodes, pairs, _ in denoiser.calls:
        assert len(nodes) == sum(sizes)
        assert len(pairs) == sum(n * (n - 1) // 2 for n in sizes)
        for scaffold, (chain_nodes, chain_pairs) in zip(
            scaffolds, split_stack(nodes, pairs, sizes)
        ):
            anchor_nodes, anchor_pairs = encode_molecule(scaffold, marginals)
            _, ju = np.triu_indices(len(chain_nodes), k=1)
            assert (chain_nodes[: scaffold.n_atoms] == anchor_nodes).all()
            assert (chain_pairs[ju < scaffold.n_atoms] == anchor_pairs).all()


@pytest.mark.parametrize("denoiser_kind", ["marginal", "echo"])
def test_lockstep_extensions_equal_one_chain_runs(denoiser_kind):
    # Chains of several sizes advance together; each must sample exactly the
    # molecule it samples alone from the same spawned generator.
    marginals = compute_marginals(_mols(*LOCKSTEP_DATASET))
    denoiser = _denoiser(denoiser_kind, marginals)
    schedule = CosineSchedule(timesteps=12)
    scaffolds = _mols(*LOCKSTEP_SCAFFOLDS)
    entries, _ = generate_scaffold_extensions(
        scaffolds, list(range(len(scaffolds))), denoiser, marginals, schedule=schedule, seed=21
    )
    children = np.random.SeedSequence(21).spawn(len(scaffolds))
    alone = [
        extend_scaffold(
            scaffold,
            denoiser,
            marginals,
            schedule=schedule,
            seed=np.random.default_rng(child),
        )
        for scaffold, child in zip(scaffolds, children)
    ]
    assert len({mol.n_atoms for mol in alone}) > 2
    assert [entry.molecule for entry in entries] == alone


@pytest.mark.parametrize("denoiser_kind", ["marginal", "echo"])
def test_blocked_uniforms_equal_one_draw_per_step(denoiser_kind, monkeypatch):
    # 23 steps: two full blocks of ten and a short one of three.
    marginals = compute_marginals(_mols(*LOCKSTEP_DATASET))
    scaffolds = _mols(*LOCKSTEP_SCAFFOLDS, FALLBACK_SCAFFOLD)

    def molecules():
        entries, _ = generate_scaffold_extensions(
            scaffolds,
            list(range(len(scaffolds))),
            _denoiser(denoiser_kind, marginals),
            marginals,
            schedule=CosineSchedule(timesteps=23),
            seed=5,
        )
        return [entry.molecule for entry in entries]

    blocked = molecules()
    monkeypatch.setattr(sampler_module, "UNIFORM_BLOCK_STEPS", 1)
    per_step = molecules()
    assert len({mol.n_atoms for mol in per_step}) > 2
    assert blocked == per_step


def test_generation_report_and_alignment():
    marginals = compute_marginals(_mols(*EXTENSION_DATASET))
    schedule = CosineSchedule(timesteps=6)
    scaffolds = [parse_smiles("c1ccccc1"), parse_smiles("c1ccncc1")]
    entries, report = generate_scaffold_extensions(
        scaffolds,
        [0, 1],
        OneHotEchoDenoiser(marginals.n_atom_types),
        marginals,
        schedule=schedule,
        seed=4,
    )
    assert report.total == 2
    assert 0 <= report.n_valid <= 2
    assert report.validity_rate == report.n_valid / 2
    for entry, scaffold, cluster in zip(entries, scaffolds, [0, 1]):
        assert entry.scaffold == scaffold
        assert entry.cluster_id == cluster
        assert entry.molecule.subgraph(range(scaffold.n_atoms)) == scaffold
    with pytest.raises(ValueError):
        generate_scaffold_extensions(
            scaffolds, [0], OneHotEchoDenoiser(marginals.n_atom_types), marginals
        )
    assert GenerationReport(total=0, n_valid=0).validity_rate == 0.0
