"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.
"""

import random
import time
from pathlib import Path

import numpy as np
import pytest

from sdprel.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from sdprel.cli import main as cli_main
from sdprel.corpus import class_stats, generate_candidates, load_corpus
from sdprel.depgraph import load_dependencies, shortest_path
from sdprel.errors import CorruptChecksum
from sdprel.features import code_string, encode_position
from sdprel.neural import RnnBaselineModel, BiLstmModel
from sdprel.pipeline import (
    FoldMetrics,
    TrainConfig,
    evaluate,
    predict,
    preprocess,
    train,
)

from helpers import (
    gradcheck,
    min_simple_path_length,
    random_connected_graph,
    synthetic_corpus,
    write_lines,
)
from test_depgraph import graph_from_edges


def report(n, text):
    print(f"\ncriterion {n}: PASS - {text}")


def test_criterion_1_gradient_correctness():
    """Analytic vs central-FD gradients for the BiLSTM model and the RNN
    baseline: 5 seeds x lengths {1,3,7}, input dimension 8, eps=1e-5,
    max relative error < 1e-4, under 60 s."""
    start = time.perf_counter()
    worst = 0.0
    checks = 0
    for seed in range(5):
        rng = np.random.Generator(np.random.PCG64(seed))
        models = [
            BiLstmModel.init(rng, input_dim=8, units=6, hidden_size=5),
            RnnBaselineModel.init(rng, input_dim=8, units=6, hidden_size=5),
        ]
        for length in (1, 3, 7):
            xs = rng.normal(size=(length, 8))
            label = (seed + length) % 2
            for model in models:
                err = gradcheck(model, xs, label, eps=1e-5)
                worst = max(worst, err)
                checks += 1
                assert err < 1e-4, (model.kind, seed, length, err)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(1, f"{checks} gradient checks, worst relative error {worst:.2e}, "
              f"{elapsed:.1f}s")


def test_criterion_2_sdp_oracle_equivalence():
    """BFS path length equals brute-force minimum over simple paths on 200
    random connected graphs of <= 10 nodes; paths valid and deterministic;
    under 10 s."""
    start = time.perf_counter()
    rng = random.Random(1234)
    for trial in range(200):
        n, edges = random_connected_graph(rng, max_nodes=10)
        g = graph_from_edges(n, edges)
        src, dst = rng.sample(range(n), 2)
        path = shortest_path(g, src, dst)
        adjacency = {i: list(g.adjacency[i]) for i in range(n)}
        assert path.length == min_simple_path_length(adjacency, src, dst)
        assert path.node_indices[0] == src and path.node_indices[-1] == dst
        assert len(set(path.node_indices)) == len(path.node_indices)
        for a, b in zip(path.node_indices, path.node_indices[1:]):
            assert b in g.adjacency[a]
        assert shortest_path(g, src, dst) == path
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"200 random graphs match brute force, {elapsed:.1f}s")


def test_criterion_3_distance_table_conformance():
    """encode_position reproduces every 10-bit thermometer column exactly
    and saturates to all ones past the window."""
    columns = {
        0: "0000000000",
        1: "0000000001",
        2: "0000000011",
        3: "0000000111",
        4: "0000001111",
        5: "0000011111",
        6: "0000111111",
        7: "0001111111",
        8: "0011111111",
        9: "0111111111",
        10: "1111111111",
    }
    for d, expected in columns.items():
        assert code_string(encode_position(d)) == expected, d
    for d in (11, 15, 100, -100):
        assert code_string(encode_position(d)) == "1111111111", d
    report(3, "all 11 distance columns exact, saturation at 11/15/100/-100")


def test_criterion_4_feature_encoding_conformance(table2_record, table2_deps):
    """Preprocessing the feature-encoding example sentence yields 7 SDP
    tokens, relative positions 0..6 and -6..0, and the exact binary codes."""
    result = preprocess([table2_record], table2_deps, TrainConfig())
    assert len(result.instances) == 1
    inst = result.instances[0]
    assert len(inst.tokens) == 7
    assert inst.tokens[0] == "PROT1" and inst.tokens[-1] == "PROT2"
    n = len(inst.tokens)
    for k in range(n):
        rel1, rel2 = k, k - (n - 1)
        assert np.array_equal(inst.pos1_codes[k], encode_position(rel1))
        assert np.array_equal(inst.pos2_codes[k], encode_position(rel2))
    assert [code_string(c) for c in inst.pos1_codes] == [
        "0000000000", "0000000001", "0000000011", "0000000111",
        "0000001111", "0000011111", "0000111111",
    ]
    assert [code_string(c) for c in inst.pos2_codes] == [
        "0000111111", "0000011111", "0000001111", "0000000111",
        "0000000011", "0000000001", "0000000000",
    ]
    report(4, "7 SDP tokens, positions 0..6 / -6..0, both code columns exact")


def test_criterion_5_synthetic_end_to_end(tmp_path):
    """60-instance synthetic corpus (seed 7, 40 train / 20 test): 100%
    training accuracy within 200 epochs and >= 90% test accuracy in under
    5 minutes."""
    start = time.perf_counter()
    corpus_lines, dep_lines, _ = synthetic_corpus(60, seed=7)
    sentences = load_corpus(write_lines(tmp_path / "corpus.tsv", corpus_lines))
    deps = load_dependencies(write_lines(tmp_path / "deps.tsv", dep_lines))
    config = TrainConfig(
        model="bilstm",
        lstm_units=16,
        mlp_hidden=10,
        dropout=0.3,
        epochs=200,
        batch=8,
        seed=7,
        embedding_dim=16,
    )
    result = preprocess(sentences, deps, config)
    assert len(result.instances) == 60 and not result.excluded
    train_insts, test_insts = result.instances[:40], result.instances[40:]
    tr = train(config, train_insts)
    vectorizer = tr.checkpoint.build_vectorizer()
    model = tr.checkpoint.build_model()
    train_acc = np.mean(
        [predict(tr.checkpoint, i, vectorizer, model)[0] == i.label for i in train_insts]
    )
    test_acc = np.mean(
        [predict(tr.checkpoint, i, vectorizer, model)[0] == i.label for i in test_insts]
    )
    elapsed = time.perf_counter() - start
    assert train_acc == 1.0
    assert test_acc >= 0.9
    assert elapsed < 300.0
    report(5, f"train accuracy 100%, test accuracy {100 * test_acc:.0f}%, "
              f"{elapsed:.0f}s")


def test_criterion_6_metric_arithmetic():
    """tp=41 fp=4 fn=9 tn=100 -> P=91.11, R=82.00, F1=86.32 within 0.01."""
    m = FoldMetrics(tp=41, fp=4, fn=9, tn=100)
    assert abs(m.precision - 91.11) <= 0.01
    assert abs(m.recall - 82.00) <= 0.01
    assert abs(m.f1 - 86.32) <= 0.01
    report(6, f"P={m.precision:.2f} R={m.recall:.2f} F1={m.f1:.2f}")


def _imbalanced_fixture(tmp_path):
    """19 sentences, 52 candidate pairs: 12 positives, 40 negatives (1:3.3),
    with two sentences lacking dependency data (6 excluded pairs)."""
    corpus_lines, dep_lines = [], []
    for i in range(14):
        sid = f"tri{i:02d}"
        tokens = f"Pa{i}|NN binds|VBZ Pb{i}|NN near|IN Pc{i}|NN .|."
        entities = "ea:0:0;eb:2:2;ec:4:4"
        interactions = "ea-eb" if i < 12 else ""
        corpus_lines.append(f"{sid}\t{tokens}\t{entities}\t{interactions}")
        if i not in (0, 13):  # two sentences get no parses at all
            for j in range(4):
                dep_lines.append(f"{sid}\t{j}\t{j + 1}\targ")
    for i in range(10):
        sid = f"duo{i:02d}"
        tokens = f"Qa{i}|NN observed|VBN Qb{i}|NN .|."
        corpus_lines.append(f"{sid}\t{tokens}\tea:0:0;eb:2:2\t")
        dep_lines.append(f"{sid}\t0\t1\targ")
        dep_lines.append(f"{sid}\t1\t2\targ")
    corpus = load_corpus(write_lines(tmp_path / "im_corpus.tsv", corpus_lines))
    deps = load_dependencies(write_lines(tmp_path / "im_deps.tsv", dep_lines))
    return corpus, deps


def test_criterion_7_candidate_accounting(tmp_path):
    """Class counts come out exactly as declared and every generated
    candidate is either evaluated or excluded, never both or neither."""
    corpus, deps = _imbalanced_fixture(tmp_path)
    pairs = [p for s in corpus for p in generate_candidates(s)]
    assert class_stats(pairs) == (12, 40, 3.3)

    config = TrainConfig(
        lstm_units=6, mlp_hidden=4, dropout=0.0, epochs=4, batch=8,
        embedding_dim=8, ae_epochs=120, seed=3,
    )
    result = preprocess(corpus, deps, config)
    assert result.generated == len(pairs) == 52
    assert len(result.excluded) == 6
    assert len(result.instances) + len(result.excluded) == result.generated
    stats = result.stats()
    assert stats["positives"] == 12 and stats["negatives"] == 40

    tr = train(config, result.instances)
    metrics = evaluate(tr.checkpoint, result.instances, excluded=result.excluded)
    assert metrics.total == result.generated
    report(7, "52 candidates: 12/40 as declared; evaluated(46) + excluded(6) "
              "= generated(52)")


@pytest.mark.usefixtures("no_fit_memo")
def test_criterion_8_cv_determinism(tmp_path):
    """Two cv CLI runs with the same corpus/config/seed produce
    byte-identical CSV reports."""
    corpus_lines, dep_lines, _ = synthetic_corpus(16, seed=4)
    write_lines(tmp_path / "corpus.tsv", corpus_lines)
    write_lines(tmp_path / "deps.tsv", dep_lines)
    (tmp_path / "config").write_text(
        "lstm_units=6\nmlp_hidden=4\ndropout=0.3\nepochs=6\nbatch=8\n"
        "embedding_dim=8\nae_epochs=120\nseed=11\nk_folds=2\n",
        encoding="utf-8",
    )
    args = [
        "cv",
        "--corpus", str(tmp_path / "corpus.tsv"),
        "--deps", str(tmp_path / "deps.tsv"),
        "--config", str(tmp_path / "config"),
        "--k", "2",
        "--seed", "29",
    ]
    assert cli_main(args + ["--report", str(tmp_path / "r1.csv")]) == 0
    assert cli_main(args + ["--report", str(tmp_path / "r2.csv")]) == 0
    first = Path(tmp_path / "r1.csv").read_bytes()
    second = Path(tmp_path / "r2.csv").read_bytes()
    assert first == second
    report(8, f"two cv runs byte-identical ({len(first)} bytes)")


def test_criterion_9_checkpoint_round_trip(tmp_path):
    """save -> load -> save byte equality on a trained synthetic model;
    corrupted files rejected with CorruptChecksum."""
    corpus_lines, dep_lines, _ = synthetic_corpus(10, seed=2)
    sentences = load_corpus(write_lines(tmp_path / "corpus.tsv", corpus_lines))
    deps = load_dependencies(write_lines(tmp_path / "deps.tsv", dep_lines))
    config = TrainConfig(
        lstm_units=6, mlp_hidden=4, dropout=0.0, epochs=4, batch=4,
        embedding_dim=8, ae_epochs=120, seed=5,
    )
    result = preprocess(sentences, deps, config)
    ck = train(config, result.instances).checkpoint

    path = tmp_path / "model.sdpl"
    save_checkpoint(ck, path)
    original = path.read_bytes()
    resaved = tmp_path / "model2.sdpl"
    save_checkpoint(load_checkpoint(path), resaved)
    assert resaved.read_bytes() == original

    truncated = tmp_path / "truncated.sdpl"
    truncated.write_bytes(original[: len(original) - 9])
    with pytest.raises(CorruptChecksum):
        load_checkpoint(truncated)

    flipped = bytearray(original)
    flipped[len(flipped) // 2] ^= 0xFF
    corrupt = tmp_path / "corrupt.sdpl"
    corrupt.write_bytes(bytes(flipped))
    with pytest.raises(CorruptChecksum):
        load_checkpoint(corrupt)
    report(9, f"byte-exact round trip ({len(original)} bytes); truncation and "
              "bit flips rejected")


def test_criterion_10_reproduction_disclosure():
    """The published-corpus scores need licensed/external inputs; the README
    must say so and document the accepted formats."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    for needle in (
        "AiMed",
        "BioInfer",
        "word2vec text format",
        "no numeric tolerance",
    ):
        assert needle in text, needle
    report(10, "README discloses external requirements for published-score "
               "reproduction")
