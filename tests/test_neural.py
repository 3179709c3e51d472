import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdprel import neural
from sdprel.errors import BadRate, DimensionMismatch, EmptySequence, NonFiniteInput
from sdprel.neural import (
    GATES,
    MODEL_KINDS,
    LstmParams,
    MlpBaselineModel,
    RnnBaselineModel,
    BiLstmModel,
    _activate,
    _lstm_step,
    bilstm_forward,
    glorot,
    cross_entropy,
    dropout_mask,
    lstm_cell,
    max_pool,
    mlp_head,
    sigmoid,
    softmax,
)
from sdprel.optim import AdamState, adam_step

from helpers import gradcheck, masked_sigmoid, model_loss


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def init_lstm_params(rng, units, input_dim):
    """A BiLSTM's forward direction, whose weights init draws first from rng."""
    return BiLstmModel.init(rng, input_dim, units=units).forward_lstm


def zero_lstm_params(units, input_dim):
    return LstmParams(
        w_x=np.zeros((len(GATES) * units, input_dim)),
        w_h=np.zeros((len(GATES) * units, units)),
        b=np.zeros(len(GATES) * units),
    )


def lstm_cell_reference(p, x, h_prev, c_prev):
    """Scalar-loop re-derivation of the gated update."""

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    units = p.units
    h = np.zeros(units)
    c = np.zeros(units)
    for j in range(units):
        pre = {}
        for g in GATES:
            acc = p.bias[g][j]
            for k in range(p.input_dim):
                acc += p.w_in[g][j, k] * x[k]
            for k in range(units):
                acc += p.w_rec[g][j, k] * h_prev[k]
            pre[g] = acc
        i, f, o = sig(pre["i"]), sig(pre["f"]), sig(pre["o"])
        u = math.tanh(pre["u"])
        c[j] = i * u + f * c_prev[j]
        h[j] = o * math.tanh(c[j])
    return h, c


class TestLstmCell:
    def test_zero_params_zero_state(self):
        p = zero_lstm_params(4, 3)
        x = np.array([1.0, -2.0, 0.5])
        h, c, gates = _lstm_step(p, x, np.zeros(4), np.zeros(4))
        for g in ("i", "f", "o"):
            assert np.allclose(gates[g], 0.5)
        assert np.allclose(gates["u"], 0.0)
        assert np.allclose(c, 0.0)
        assert np.allclose(h, 0.0)

    def test_forget_term_vanishes_with_zero_cell(self):
        p = init_lstm_params(rng_for(0), 5, 3)
        x = rng_for(1).normal(size=3)
        h, c, gates = _lstm_step(p, x, np.zeros(5), np.zeros(5))
        assert np.allclose(c, gates["i"] * gates["u"])

    def test_matches_scalar_reference(self):
        rng = rng_for(42)
        p = init_lstm_params(rng, 6, 4)
        for _ in range(5):
            x = rng.normal(size=4)
            h_prev = rng.normal(size=6)
            c_prev = rng.normal(size=6)
            h, c = lstm_cell(p, x, h_prev, c_prev)
            h_ref, c_ref = lstm_cell_reference(p, x, h_prev, c_prev)
            assert np.allclose(h, h_ref, atol=1e-12, rtol=0)
            assert np.allclose(c, c_ref, atol=1e-12, rtol=0)

    def test_dimension_mismatch(self):
        p = init_lstm_params(rng_for(0), 4, 3)
        with pytest.raises(DimensionMismatch):
            lstm_cell(p, np.zeros(5), np.zeros(4), np.zeros(4))

    def test_non_finite_input(self):
        p = init_lstm_params(rng_for(0), 4, 3)
        with pytest.raises(NonFiniteInput):
            lstm_cell(p, np.array([np.nan, 0.0, 0.0]), np.zeros(4), np.zeros(4))

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_gate_and_state_bounds(self, seed):
        rng = rng_for(seed)
        p = init_lstm_params(rng, 5, 4)
        x = rng.normal(scale=3.0, size=4)
        h_prev = rng.uniform(-1, 1, size=5)
        c_prev = rng.normal(size=5)
        h, c, gates = _lstm_step(p, x, h_prev, c_prev)
        for g in ("i", "f", "o"):
            assert np.all(gates[g] > 0) and np.all(gates[g] < 1)
        assert np.all(np.abs(h) <= 1.0)


class TestFusedLayout:
    def test_init_matches_per_gate_draws(self):
        p = init_lstm_params(rng_for(7), 5, 3)
        rng = rng_for(7)
        w_in = [glorot(rng, 5, 3) for _ in GATES]
        w_rec = [glorot(rng, 5, 5) for _ in GATES]
        for k, g in enumerate(GATES):
            assert np.array_equal(p.w_in[g], w_in[k])
            assert np.array_equal(p.w_rec[g], w_rec[k])
            assert np.array_equal(p.bias[g], np.full(5, 1.0 if g == "f" else 0.0))

    def test_gate_accessors_are_views(self):
        model = BiLstmModel.init(rng_for(8), input_dim=3, units=4, hidden_size=3)
        xs = rng_for(9).normal(size=(3, 3))
        before = bilstm_forward(model, xs)
        p = model.forward_lstm
        p.w_in["o"][1, 2] += 0.5
        p.w_rec["u"][0, 0] -= 0.5
        p.bias["i"][3] += 0.5
        assert p.w_x[2 * 4 + 1, 2] == p.w_in["o"][1, 2]
        assert p.w_h[3 * 4, 0] == p.w_rec["u"][0, 0]
        assert p.b[3] == p.bias["i"][3]
        after = bilstm_forward(model, xs)
        assert not np.allclose(np.stack(before)[:, :4], np.stack(after)[:, :4])
        assert np.array_equal(np.stack(before)[:, 4:], np.stack(after)[:, 4:])

    def test_sequence_matches_scalar_reference(self):
        model = BiLstmModel.init(rng_for(10), input_dim=4, units=3, hidden_size=3)
        xs = rng_for(11).normal(size=(5, 4))
        z = np.stack(bilstm_forward(model, xs))
        for p, order, cols in (
            (model.forward_lstm, range(5), slice(0, 3)),
            (model.backward_lstm, range(4, -1, -1), slice(3, 6)),
        ):
            h = c = np.zeros(3)
            for t in order:
                h, c = lstm_cell_reference(p, xs[t], h, c)
                assert np.allclose(z[t, cols], h, atol=1e-12, rtol=0)


class TestBilstm:
    def test_length_one(self):
        model = BiLstmModel.init(rng_for(3), input_dim=4, units=5, hidden_size=3)
        x = rng_for(4).normal(size=(1, 4))
        z = bilstm_forward(model, x)
        hf, cf = lstm_cell(model.forward_lstm, x[0], np.zeros(5), np.zeros(5))
        hb, cb = lstm_cell(model.backward_lstm, x[0], np.zeros(5), np.zeros(5))
        assert len(z) == 1
        assert np.allclose(z[0], np.concatenate([hf, hb]))

    def test_palindrome_symmetry_with_shared_params(self):
        model = BiLstmModel.init(rng_for(5), input_dim=3, units=4, hidden_size=3)
        model.backward_lstm = model.forward_lstm
        rng = rng_for(6)
        half = rng.normal(size=(3, 3))
        xs = np.concatenate([half, half[::-1]])
        z = bilstm_forward(model, xs)
        n = len(z)
        for k in range(n):
            assert np.allclose(z[k][:4], z[n - 1 - k][4:], atol=1e-12)

    def test_zero_params_zero_states(self):
        model = BiLstmModel.init(rng_for(0), input_dim=3, units=4, hidden_size=3)
        for arr in model.tensors().values():
            arr[...] = 0.0
        z = bilstm_forward(model, rng_for(1).normal(size=(4, 3)))
        assert all(np.allclose(zk, 0.0) for zk in z)

    def test_empty_sequence(self):
        model = BiLstmModel.init(rng_for(0), input_dim=3, units=4, hidden_size=3)
        with pytest.raises(EmptySequence):
            bilstm_forward(model, np.zeros((0, 3)))


class TestMaxPool:
    def test_single_state(self):
        s = np.array([[1.0, -2.0, 3.0]])
        assert np.array_equal(max_pool(s), s[0])

    def test_coordinate_wise(self):
        assert np.array_equal(max_pool([[1.0, -2.0], [0.0, 5.0]]), [1.0, 5.0])

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariant(self, seed):
        rng = rng_for(seed)
        states = rng.normal(size=(6, 4))
        perm = rng.permutation(6)
        assert np.array_equal(max_pool(states), max_pool(states[perm]))

    def test_empty(self):
        with pytest.raises(EmptySequence):
            max_pool([])


class TestMlpHead:
    def test_zero_logits_uniform(self):
        model = BiLstmModel.init(rng_for(0), input_dim=3, units=4, hidden_size=3)
        model.head.w_out[...] = 0.0
        _, logits, probs = mlp_head(model, np.zeros(8))
        assert np.array_equal(logits, [0.0, 0.0])
        assert np.allclose(probs, [0.5, 0.5])

    def test_softmax_shift_invariance(self):
        t = np.array([1.3, -0.4])
        for c in (-5.0, 0.1, 100.0):
            assert np.allclose(softmax(t), softmax(t + c), atol=1e-12)

    def test_probs_sum_to_one(self):
        model = BiLstmModel.init(rng_for(9), input_dim=3, units=4, hidden_size=3)
        for seed in range(5):
            s = rng_for(seed).normal(size=8)
            _, _, probs = mlp_head(model, s)
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_sigmoid_hidden_range(self):
        model = BiLstmModel.init(rng_for(2), input_dim=3, units=4, hidden_size=6)
        m, _, _ = mlp_head(model, rng_for(3).normal(size=8))
        assert np.all(m > 0) and np.all(m < 1)


class TestSigmoid:
    EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 1e308, -1e308]

    @pytest.mark.parametrize("seed", range(2))
    def test_equals_the_masked_formula_bit_for_bit(self, seed):
        x = np.concatenate([rng_for(seed).normal(0.0, 30.0, size=100_000), self.EDGES])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = sigmoid(x)
        want = masked_sigmoid(x)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestGateActivations:
    TINY = np.finfo(np.float64).smallest_subnormal
    EDGES = [0.0, -0.0, 710.0, -710.0, 745.0, -745.0, 1e308, -1e308,
             TINY, -TINY, 1e-310, -1e-310, np.finfo(np.float64).tiny, 40.0, -40.0]

    @pytest.mark.parametrize("seed", range(2))
    def test_one_tanh_gates(self, seed):
        units = 3
        x = np.concatenate([rng_for(seed).normal(0.0, 30.0, size=30_000), self.EDGES])
        acts = np.repeat(x[:, None], 4 * units, axis=1)
        c_prev = rng_for(seed + 7).normal(size=(x.size, units))
        h, c = np.empty((2, x.size, units))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _activate(acts, c_prev, h, c)
        gates, u = acts[:, : 3 * units], acts[:, 3 * units :]
        assert np.array_equal(gates, np.repeat((0.5 + 0.5 * np.tanh(0.5 * x))[:, None],
                                               3 * units, axis=1))
        # within one ulp of 1.0 of the two-exp sigmoid
        assert np.max(np.abs(gates - sigmoid(x)[:, None])) <= np.spacing(1.0)
        assert np.array_equal(u, np.repeat(np.tanh(x)[:, None], units, axis=1))
        i, f, o = np.split(gates, 3, axis=1)
        assert np.array_equal(c, i * u + f * c_prev)
        assert np.array_equal(h, o * np.tanh(c))


class TestCrossEntropy:
    def test_uniform_prediction(self):
        assert abs(cross_entropy(0.5, 0) - math.log(2)) < 1e-12
        assert abs(cross_entropy(0.5, 1) - math.log(2)) < 1e-12

    def test_confident_correct(self):
        assert cross_entropy(1 - 1e-12, 1) < 1e-9

    def test_hand_computed(self):
        assert abs(cross_entropy(0.9, 0) - 2.302585092994046) < 1e-9

    def test_clamped_extremes_finite(self):
        assert np.isfinite(cross_entropy(0.0, 1))
        assert np.isfinite(cross_entropy(1.0, 0))

    def test_non_negative(self):
        for a in (0.01, 0.3, 0.99):
            for label in (0, 1):
                assert cross_entropy(a, label) >= 0.0


def small_models(seed, input_dim=5):
    rng = rng_for(seed)
    return [
        BiLstmModel.init(rng, input_dim, units=4, hidden_size=3),
        RnnBaselineModel.init(rng, input_dim, units=4, hidden_size=3),
        MlpBaselineModel.init(rng, input_dim, pad_len=6, hidden_size=3),
    ]


class TestBackward:
    @pytest.mark.parametrize("length", [1, 3, 7])
    @pytest.mark.parametrize("kind", ["bilstm", "rnn", "mlp"])
    def test_gradcheck_all_models(self, kind, length):
        model = next(m for m in small_models(11) if m.kind == kind)
        xs = rng_for(length).normal(size=(length, 5))
        for label in (0, 1):
            assert gradcheck(model, xs, label) < 1e-4

    def test_gradcheck_depth_two_head(self):
        model = BiLstmModel.init(rng_for(13), 5, units=3, hidden_size=4, depth=2)
        xs = rng_for(14).normal(size=(3, 5))
        assert gradcheck(model, xs, 1) < 1e-4

    def test_gradcheck_relu_and_tanh_heads(self):
        for activation in ("relu", "tanh"):
            model = BiLstmModel.init(
                rng_for(15), 5, units=3, hidden_size=4, activation=activation
            )
            xs = rng_for(16).normal(size=(4, 5))
            assert gradcheck(model, xs, 0) < 1e-4

    def test_zero_out_matrix_kills_hidden_grad(self):
        model = BiLstmModel.init(rng_for(17), 5, units=4, hidden_size=3)
        model.head.w_out[...] = 0.0
        xs = rng_for(18).normal(size=(3, 5))
        grads = model.backward(model.forward(xs), 1)
        assert not grads["head.w0"].any()
        assert not grads["head.b0"].any()
        assert grads["head.w_out"].any()

    def test_pool_ties_route_to_lowest_index(self):
        # zero LSTM params: every position's state is 0, so every pooling
        # coordinate is tied and must resolve to position 0.  With the
        # gradient entering only at position 0, the forward-direction grads
        # cannot depend on later tokens (the cell-state carry only flows to
        # steps before the entry point in processing order).
        model = BiLstmModel.init(rng_for(19), 3, units=4, hidden_size=3)
        for name, arr in model.tensors().items():
            if name.startswith(("fwd", "bwd")):
                arr[...] = 0.0
        first = np.array([0.3, -0.7, 1.1])
        xs_a = np.stack([first, np.array([5.0, 5.0, 5.0])])
        xs_b = np.stack([first, np.array([-9.0, 2.0, 0.0])])
        cache_a = model.forward(xs_a)
        assert np.array_equal(cache_a["argmax"], np.zeros(8, dtype=int))
        ga = model.backward(cache_a, 1)
        gb = model.backward(model.forward(xs_b), 1)
        for name in ga:
            if name.startswith("fwd") or name.startswith("head"):
                assert np.array_equal(ga[name], gb[name]), name

    def test_input_gradients_match_fd(self):
        model = BiLstmModel.init(rng_for(21), 4, units=3, hidden_size=3)
        xs = rng_for(22).normal(size=(3, 4))
        grads = model.backward(model.forward(xs), 1)
        d_inputs = grads["__inputs__"]
        eps = 1e-5
        for t in range(3):
            for k in range(4):
                orig = xs[t, k]
                xs[t, k] = orig + eps
                lp = model_loss(model, xs, 1)
                xs[t, k] = orig - eps
                lm = model_loss(model, xs, 1)
                xs[t, k] = orig
                fd = (lp - lm) / (2 * eps)
                assert abs(fd - d_inputs[t, k]) < 1e-6

    def test_rnn_zero_params_hidden_half(self):
        model = RnnBaselineModel.init(rng_for(23), 4, units=5, hidden_size=3)
        model.w_in[...] = 0.0
        model.w_rec[...] = 0.0
        model.bias[...] = 0.0
        cache = model.forward(rng_for(24).normal(size=(3, 4)))
        assert np.allclose(cache["s"], 0.5)

    def test_rnn_length_one_no_recurrence(self):
        model = RnnBaselineModel.init(rng_for(25), 4, units=5, hidden_size=3)
        x = rng_for(26).normal(size=(1, 4))
        cache = model.forward(x)
        expected = 1.0 / (1.0 + np.exp(-(model.w_in @ x[0] + model.bias)))
        assert np.allclose(cache["s"], expected)

    def test_mlp_padding_and_dimension(self):
        model = MlpBaselineModel.init(rng_for(27), 4, pad_len=6, hidden_size=3)
        xs = np.ones((2, 4))
        flat = model.flatten(xs)
        assert flat.shape == (24,)
        assert flat[:8].sum() == 8.0
        assert not flat[8:].any()
        long = np.ones((9, 4))
        assert model.flatten(long).shape == (24,)

    def test_training_step_does_not_increase_loss(self):
        # tiny learning rate, no dropout: a first-order step must not hurt
        successes = 0
        for seed in range(100):
            rng = rng_for(seed)
            model = BiLstmModel.init(rng, 4, units=3, hidden_size=3)
            xs = rng.normal(size=(3, 4))
            label = int(rng.integers(0, 2))
            before = model_loss(model, xs, label)
            grads = model.backward(model.forward(xs), label)
            grads.pop("__inputs__")
            state = AdamState(lr=1e-4)
            adam_step(state, model.tensors(), grads)
            after = model_loss(model, xs, label)
            if after <= before + 1e-12:
                successes += 1
        assert successes >= 99


class TestDropout:
    def test_rate_zero_all_ones(self):
        mask = dropout_mask(50, 0.0, rng_for(0))
        assert np.array_equal(mask, np.ones(50))

    def test_zero_fraction_concentrates(self):
        mask = dropout_mask(10_000, 0.3, rng_for(1))
        frac = np.mean(mask == 0.0)
        assert 0.28 <= frac <= 0.32

    def test_inverted_scaling(self):
        mask = dropout_mask(1000, 0.3, rng_for(2))
        kept = mask[mask != 0.0]
        assert np.allclose(kept, 1.0 / 0.7)

    def test_bad_rate(self):
        with pytest.raises(BadRate):
            dropout_mask(10, 1.0, rng_for(0))
        with pytest.raises(BadRate):
            dropout_mask(10, -0.1, rng_for(0))

    def test_eval_mode_bypasses_masks(self):
        model = BiLstmModel.init(rng_for(3), 4, units=3, hidden_size=3)
        xs = rng_for(4).normal(size=(2, 4))
        a = model.forward(xs, masks=None)["probs"]
        b = model.forward(xs, masks=None)["probs"]
        assert np.array_equal(a, b)

    def test_masks_change_training_forward(self):
        model = BiLstmModel.init(rng_for(5), 4, units=3, hidden_size=3)
        xs = rng_for(6).normal(size=(2, 4))
        rng = rng_for(7)
        masks = {"s": dropout_mask(6, 0.5, rng), "m": dropout_mask(3, 0.5, rng)}
        with_mask = model.forward(xs, masks)["probs"]
        without = model.forward(xs, None)["probs"]
        assert not np.allclose(with_mask, without)

    def test_gradcheck_with_fixed_masks(self):
        # dropout is a fixed linear scaling once the mask is drawn, so the
        # analytic gradient must match FD on the masked loss as well
        model = BiLstmModel.init(rng_for(8), 4, units=3, hidden_size=3)
        xs = rng_for(9).normal(size=(3, 4))
        rng = rng_for(10)
        masks = {"s": dropout_mask(6, 0.4, rng), "m": dropout_mask(3, 0.4, rng)}

        grads = model.backward(model.forward(xs, masks), 1)
        grads.pop("__inputs__")
        eps = 1e-5
        worst = 0.0
        for name, arr in model.tensors().items():
            flat = arr.ravel()
            gflat = grads[name].ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                lp = cross_entropy(model.forward(xs, masks)["probs"][1], 1)
                flat[i] = orig - eps
                lm = cross_entropy(model.forward(xs, masks)["probs"][1], 1)
                flat[i] = orig
                fd = (lp - lm) / (2 * eps)
                denom = max(abs(fd), abs(gflat[i]), 1e-6)
                worst = max(worst, abs(fd - gflat[i]) / denom)
        assert worst < 1e-4


def model_of(kind, seed=0, depth=2):
    size = {"pad_len": 3} if kind == "mlp" else {"units": 4}
    return MODEL_KINDS[kind].init(rng_for(seed), 5, hidden_size=3, depth=depth, **size)


def glorot_oracle(kind, seed, depth=2):
    """name -> each tensor drawn on its own, as separate arrays: Glorot blocks in
    layout order, an LSTM's per gate, biases 0 but an LSTM's forget gate 1."""
    rng, out = rng_for(seed), {}
    if kind == "bilstm":
        for d in ("fwd", "bwd"):
            out[f"{d}.w_in"] = np.concatenate([glorot(rng, 4, 5) for _ in GATES])
            out[f"{d}.w_rec"] = np.concatenate([glorot(rng, 4, 4) for _ in GATES])
            out[f"{d}.b"] = np.repeat([0.0, 1.0, 0.0, 0.0], 4)
        fan_in = 8
    elif kind == "rnn":
        out.update({"rnn.w_in": glorot(rng, 4, 5), "rnn.w_rec": glorot(rng, 4, 4),
                    "rnn.b": np.zeros(4)})
        fan_in = 4
    else:
        fan_in = 15
    for idx in range(depth):
        out[f"head.w{idx}"], out[f"head.b{idx}"] = glorot(rng, 3, fan_in), np.zeros(3)
        fan_in = 3
    out["head.w_out"] = glorot(rng, 2, fan_in)
    return out


class TestParameterVector:
    @pytest.mark.parametrize("kind", ["bilstm", "rnn", "mlp"])
    def test_views_tile_theta_in_order(self, kind):
        model = model_of(kind)
        views = model.tensors()
        assert model.theta.dtype == np.float64 and model.theta.flags.c_contiguous
        assert sum(v.size for v in views.values()) == model.theta.size
        start = 0
        base = model.theta.__array_interface__["data"][0]
        for name, v in views.items():
            assert np.shares_memory(v, model.theta), name
            assert v.__array_interface__["data"][0] == base + 8 * start, name
            assert np.array_equal(v.ravel(), model.theta[start : start + v.size]), name
            start += v.size
        grad = np.zeros_like(model.theta)
        named = model.tensors(grad)
        assert list(named) == list(views)
        assert all(named[k].shape == views[k].shape for k in views)
        assert all(np.shares_memory(g, grad) for g in named.values())

    @pytest.mark.parametrize("kind", ["bilstm", "rnn", "mlp"])
    def test_attributes_are_views_of_theta(self, kind):
        model = model_of(kind)
        arrays = [model.head.w_out] + [a for pair in model.head.hidden for a in pair]
        if kind == "bilstm":
            arrays += [getattr(p, f) for p in (model.forward_lstm, model.backward_lstm)
                       for f in ("w_x", "w_h", "b")]
        elif kind == "rnn":
            arrays += [model.w_in, model.w_rec, model.bias]
        assert len(arrays) == len(model.tensors())
        assert all(np.shares_memory(a, model.theta) for a in arrays)
        model.theta[...] = 0.0
        assert not any(a.any() for a in arrays)

    @pytest.mark.parametrize("kind", ["bilstm", "rnn", "mlp"])
    def test_init_draws_the_glorot_blocks_in_order(self, kind):
        want = glorot_oracle(kind, seed=12)
        got = model_of(kind, seed=12).tensors()
        assert list(got) == list(want)
        for name, arr in want.items():
            assert np.array_equal(got[name], arr), name

    @pytest.mark.parametrize("kind", ["bilstm", "rnn", "mlp"])
    def test_a_model_without_init_is_zero(self, kind):
        size = {"pad_len": 3} if kind == "mlp" else {"units": 4}
        model = MODEL_KINDS[kind](5, hidden_size=3, **size)
        assert model.tensors().keys() == model_of(kind, depth=1).tensors().keys()
        assert not model.theta.any()

    @pytest.mark.parametrize("cls", list(MODEL_KINDS.values()))
    def test_every_pass_is_defined_on_a_public_class_of_the_module(self, cls):
        # the benchmark's tracer wraps the own functions of the public classes that
        # sdprel.neural binds, so a pass defined elsewhere would go untimed
        for method in ("forward", "backward", "forward_batch", "backward_batch"):
            owner = next(k for k in cls.__mro__ if method in vars(k))
            assert not owner.__name__.startswith("_"), (method, owner)
            assert owner.__module__ == "sdprel.neural", (method, owner)
            assert vars(neural).get(owner.__name__) is owner, (method, owner)
            assert inspect.isfunction(vars(owner)[method]), (method, owner)
