"""The batched forward and backward passes against the per-instance oracle.

Every model scores and trains on batches of packed sequences; these tests
check that a batch gives each sequence the probability it gets alone, that
the batch's loss and gradients are the per-instance ones summed, and that
`train` draws the dropout masks a per-instance loop over the same RNG draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sdprel.pipeline as pl
from sdprel.errors import DimensionMismatch, EmptySequence, NonFiniteInput
from sdprel.neural import (
    BiLstmModel,
    MlpBaselineModel,
    RnnBaselineModel,
    _pack,
    cross_entropy,
    dropout_mask,
)
from sdprel.pipeline import (
    SPECIAL_TOKENS,
    Vectorizer,
    build_model,
    predict,
    predict_all,
    pretrain_autoencoders,
    train,
)

from helpers import oracle_backward, oracle_forward
from test_pipeline import small_config, synth, synth_instances  # noqa: F401 (fixtures)

GRAD_TOLERANCE = 1e-10
ROW_TOLERANCE = 1e-12  # one row's probability, alone or anywhere in a batch


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def make_model(kind, seed=0, input_dim=5, depth=1, activation="sigmoid"):
    rng = rng_for(seed)
    if kind == "mlp":
        return MlpBaselineModel.init(rng, input_dim, pad_len=6, hidden_size=3, depth=depth,
                                     activation=activation)
    cls = BiLstmModel if kind == "bilstm" else RnnBaselineModel
    return cls.init(rng, input_dim, units=4, hidden_size=3, depth=depth, activation=activation)


def per_instance_masks(model, count, rate, rng):
    """One {"s", "m"} pair per instance, drawn instance by instance, s then m."""
    if rate == 0.0:
        return [None] * count
    s_dim, m_dim = model.head.hidden[0][0].shape[1], model.head.w_out.shape[1]
    out = []
    for _ in range(count):
        s = dropout_mask(s_dim, rate, rng)
        out.append({"s": s, "m": dropout_mask(m_dim, rate, rng)})
    return out


def stacked(masks):
    return None if masks[0] is None else {k: np.stack([m[k] for m in masks]) for k in "sm"}


def oracle_sums(model, seqs, labels, masks):
    """(probabilities, summed loss, summed gradients with "__inputs__" stacked)."""
    probs, loss, total, d_inputs = [], 0.0, {}, []
    for xs, label, mask in zip(seqs, labels, masks):
        cache = oracle_forward(model, xs, mask)
        probs.append(cache["probs"][1])
        loss += cross_entropy(cache["probs"][1], label)
        grads = oracle_backward(model, cache, label)
        d_inputs.append(grads.pop("__inputs__"))
        for name, g in grads.items():
            total[name] = total.get(name, 0.0) + g
    total["__inputs__"] = np.concatenate(d_inputs)
    return np.array(probs), loss, total


def assert_batch_matches_oracle(model, seqs, labels, masks):
    cache = model.forward_batch(np.concatenate(seqs), [len(x) for x in seqs], stacked(masks))
    grad, d_xs = model.backward_batch(cache, labels)
    grads = {**model.tensors(grad), "__inputs__": d_xs}
    probs, loss, want = oracle_sums(model, seqs, labels, masks)
    assert np.max(np.abs(cache["probs"][:, 1] - probs)) <= GRAD_TOLERANCE
    assert abs(np.sum(cross_entropy(cache["probs"][:, 1], labels)) - loss) <= GRAD_TOLERANCE
    assert set(grads) == set(want) == set(model.tensors()) | {"__inputs__"}
    for name, g in want.items():
        assert grads[name].shape == g.shape, name
        assert np.max(np.abs(grads[name] - g)) <= GRAD_TOLERANCE, name


KINDS = ["bilstm", "rnn", "mlp"]


class TestPacking:
    def test_running_sequences_are_a_prefix_of_each_step(self):
        lengths = np.array([3, 1, 5, 5, 2])
        pk = _pack(lengths)
        assert pk.steps == [5, 4, 3, 2, 2]
        start = 0
        for t, n in enumerate(pk.steps):
            block = pk.fwd[start : start + n]
            seq = np.searchsorted(pk.starts, block, side="right") - 1
            assert list(seq) == [2, 3, 0, 4, 1][:n]  # longest first, ties in batch order
            assert np.array_equal(block - pk.starts[seq], np.full(n, t))
            back = pk.bwd[start : start + n]
            assert np.array_equal(back, pk.starts[seq] + lengths[seq] - 1 - t)
            start += n
        assert np.array_equal(np.sort(pk.fwd), np.arange(16))
        assert np.array_equal(pk.fwd[pk.last], pk.starts + lengths - 1)
        assert np.array_equal(pk.fwd[pk.prev] + 1, pk.fwd[pk.steps[0]:])

    def test_bad_batches_are_rejected(self):
        model = make_model("bilstm")
        with pytest.raises(EmptySequence):
            model.forward_batch(np.zeros((3, 5)), [3, 0])
        with pytest.raises(EmptySequence):
            model.forward_batch(np.zeros((0, 5)), [])
        with pytest.raises(DimensionMismatch):
            model.forward_batch(np.zeros((3, 5)), [2, 2])
        with pytest.raises(DimensionMismatch):
            model.forward_batch(np.zeros((3, 4)), [3])
        xs = np.zeros((3, 5))
        xs[2, 1] = np.inf
        with pytest.raises(NonFiniteInput):
            model.forward_batch(xs, [1, 2])


class TestOracleEquivalence:
    @pytest.mark.parametrize("rate", [0.0, 0.4])
    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_equals_the_per_instance_sum(self, kind, rate):
        model = make_model(kind, seed=3)
        rng = rng_for(4)
        lengths = [3, 1, 5, 5, 2, 9, 1]  # ragged, with ties, one past the MLP's pad_len
        seqs = [rng.normal(size=(n, 5)) for n in lengths]
        labels = rng.integers(0, 2, size=len(lengths))
        masks = per_instance_masks(model, len(lengths), rate, rng_for(5))
        assert_batch_matches_oracle(model, seqs, labels, masks)

    @pytest.mark.parametrize("rate", [0.0, 0.4])
    @pytest.mark.parametrize("kind", KINDS)
    def test_parameter_gradients_without_the_input_gradient(self, kind, rate):
        model = make_model(kind, seed=10)
        rng = rng_for(11)
        lengths = [3, 1, 5, 5, 2, 9, 1]
        xs = rng.normal(size=(sum(lengths), 5))
        labels = rng.integers(0, 2, size=len(lengths))
        masks = stacked(per_instance_masks(model, len(lengths), rate, rng_for(12)))
        cache = model.forward_batch(xs, lengths, masks)
        full, d_xs = model.backward_batch(cache, labels)
        params, no_d_xs = model.backward_batch(cache, labels, input_grad=False)
        assert d_xs.shape == xs.shape and no_d_xs is None
        assert params.shape == full.shape == model.theta.shape
        assert np.array_equal(params, full)

    @pytest.mark.parametrize("kind", ["bilstm", "rnn", "mlp"])
    def test_gradient_into_a_given_buffer(self, kind):
        model = make_model(kind, seed=13)
        rng = rng_for(14)
        lengths = [4, 2, 7]
        xs = rng.normal(size=(sum(lengths), 5))
        labels = [1, 0, 1]
        cache = model.forward_batch(xs, lengths)
        want, want_d_xs = model.backward_batch(cache, labels)
        out = np.full_like(model.theta, np.nan)  # every element must be written
        for input_grad in (True, False):
            grad, d_xs = model.backward_batch(cache, labels, input_grad=input_grad, out=out)
            assert grad is out
            assert np.array_equal(out, want)
            assert d_xs is None if not input_grad else np.array_equal(d_xs, want_d_xs)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_deeper_heads(self, activation):
        model = make_model("bilstm", seed=6, depth=2, activation=activation)
        rng = rng_for(7)
        seqs = [rng.normal(size=(n, 5)) for n in (4, 2, 6)]
        masks = per_instance_masks(model, 3, 0.3, rng_for(8))
        assert_batch_matches_oracle(model, seqs, np.array([1, 0, 1]), masks)

    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_of_one_equals_the_oracle(self, kind):
        model = make_model(kind, seed=9)
        for n in (1, 2, 7):
            xs = rng_for(n).normal(size=(n, 5))
            got = model.forward(xs)["probs"]
            want = oracle_forward(model, xs)["probs"]
            assert np.max(np.abs(got - want)) <= ROW_TOLERANCE

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_rows_do_not_depend_on_their_place_in_the_batch(self, data):
        kind = data.draw(st.sampled_from(KINDS))
        size = data.draw(st.integers(1, 16))
        lengths = data.draw(st.lists(st.integers(1, 40), min_size=size, max_size=size))
        if data.draw(st.booleans()):
            lengths = [lengths[0]] * size
        constant = data.draw(st.booleans())  # each sequence one repeated row
        model = make_model(kind, seed=data.draw(st.integers(0, 2**16)))
        if kind == "bilstm" and data.draw(st.booleans()):
            for name, arr in model.tensors().items():
                if name.startswith(("fwd", "bwd")):
                    arr[...] = 0.0  # every state is 0: each pooled coordinate is a tie
        rng = rng_for(data.draw(st.integers(0, 2**16)))
        seqs = [np.repeat(rng.normal(size=(1, 5)), n, axis=0) if constant
                else rng.normal(size=(n, 5)) for n in lengths]
        labels = rng.integers(0, 2, size=size)
        masks = per_instance_masks(model, size, data.draw(st.sampled_from([0.0, 0.3])), rng)

        probs = model.forward_batch(np.concatenate(seqs), lengths, stacked(masks))["probs"]
        perm = rng.permutation(size)
        shuffled = model.forward_batch(np.concatenate([seqs[k] for k in perm]),
                                       [lengths[k] for k in perm],
                                       stacked([masks[k] for k in perm]))["probs"]
        assert np.max(np.abs(shuffled - probs[perm])) <= ROW_TOLERANCE
        for k in range(size):
            alone = model.forward_batch(seqs[k], [lengths[k]], stacked([masks[k]]))["probs"]
            assert np.max(np.abs(alone[0] - probs[k])) <= ROW_TOLERANCE
        assert_batch_matches_oracle(model, seqs, labels, masks)


def replay_first_epoch(config, instances, table):
    """The model, vectorizer, batches and per-instance masks a per-instance loop would use."""
    pos_ae, position_ae = pretrain_autoencoders(config, instances)
    vocab = sorted(set(SPECIAL_TOKENS).union(*(i.tokens for i in instances)))
    words = vocab if config.tune_embeddings else sorted(SPECIAL_TOKENS)
    overrides = {w: pl.lookup(table, w).copy() for w in words}
    vectorizer = Vectorizer(table, pos_ae, position_ae, overrides)
    rng = rng_for(config.seed)
    model = build_model(config, rng)
    order = np.arange(len(instances))
    rng.shuffle(order)
    batches = [order[s : s + config.batch] for s in range(0, len(order), config.batch)]
    masks = [per_instance_masks(model, len(b), config.dropout, rng) for b in batches]
    return model, vectorizer, words, batches, masks


class TestTrainingLoop:
    def test_masks_equal_a_per_instance_replay(self, synth_instances, monkeypatch):
        seen = []
        real_forward = BiLstmModel.forward_batch

        def record(self, xs, lengths, masks=None):
            seen.append({k: v.copy() for k, v in masks.items()})
            return real_forward(self, xs, lengths, masks)

        monkeypatch.setattr(BiLstmModel, "forward_batch", record)
        insts = synth_instances.instances[:19]
        cfg = small_config(epochs=1, batch=4, dropout=0.35)
        train(cfg, insts)
        table = pl.EmbeddingTable.empty(cfg.embedding_dim, oov_seed=cfg.seed)
        masks = replay_first_epoch(cfg, insts, table)[-1]
        assert [len(m["s"]) for m in seen] == [4, 4, 4, 4, 3]
        for got, want in zip(seen, masks, strict=True):
            for key in "sm":
                assert np.array_equal(got[key], np.stack([m[key] for m in want]))

    @pytest.mark.parametrize("kind", KINDS)
    def test_first_step_equals_the_per_instance_oracle(self, kind, synth_instances, monkeypatch):
        stepped = []
        monkeypatch.setattr(pl, "adam_step", lambda state, params, grads: stepped.append(
            {name: g.copy() for name, g in grads.items()}))
        insts = synth_instances.instances[:10]
        cfg = small_config(model=kind, epochs=1, batch=6, dropout=0.3, tune_embeddings=True)
        train(cfg, insts)
        table = pl.EmbeddingTable.empty(cfg.embedding_dim, oov_seed=cfg.seed)
        model, vectorizer, words, batches, masks = replay_first_epoch(cfg, insts, table)
        batch = [insts[k] for k in batches[0]]
        seqs = [vectorizer.vectorize(inst) for inst in batch]
        labels = [inst.label for inst in batch]
        _, _, want = oracle_sums(model, seqs, labels, masks[0])
        d_inputs = want.pop("__inputs__")
        want["emb"] = np.zeros((len(words), cfg.embedding_dim))
        rows = [words.index(tok) for inst in batch for tok in inst.tokens]
        np.add.at(want["emb"], rows, d_inputs[:, : cfg.embedding_dim])
        assert set(stepped[0]) == {"theta", "emb"}
        got = {**model.tensors(stepped[0]["theta"]), "emb": stepped[0]["emb"]}
        assert set(got) == set(want)
        for name, g in want.items():
            assert np.max(np.abs(got[name] - g / len(batch))) <= GRAD_TOLERANCE, name


class TestScoring:
    @pytest.mark.parametrize("kind", KINDS)
    def test_predict_all_equals_predict_for_any_batch_size(self, kind, synth_instances):
        insts = synth_instances.instances
        ck = train(small_config(model=kind, epochs=2), insts).checkpoint
        vec, model = ck.build_vectorizer(), ck.build_model()
        one = [predict(ck, inst, vec, model) for inst in insts]
        assert one == [predict_all(ck, [inst], vec, model)[0] for inst in insts]
        for size in (1, 3, len(insts)):
            ck.config = ck.config.replace(batch=size)
            got = predict_all(ck, insts, vec)
            assert [label for label, _ in got] == [label for label, _ in one]
            assert max(abs(p - q) for (_, p), (_, q) in zip(got, one)) <= ROW_TOLERANCE
