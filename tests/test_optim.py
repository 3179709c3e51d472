import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdprel.errors import ShapeMismatch
from sdprel.optim import BLOCK, AdadeltaState, AdamState, adadelta_step, adam_step

from helpers import scattered


def params_and_grads(seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    params = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4)}
    grads = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4)}
    return params, grads

OPTIMIZERS = [(AdamState, adam_step), (AdadeltaState, adadelta_step)]


class TestAdam:
    def test_zero_gradient_no_change(self):
        params, _ = params_and_grads()
        snapshot = copy.deepcopy(params)
        state = AdamState()
        adam_step(state, params, {k: np.zeros_like(v) for k, v in params.items()})
        for k in params:
            assert np.array_equal(params[k], snapshot[k])

    def test_first_step_is_sign_scaled(self):
        # with t=1, m_hat = g and v_hat = g^2, so the update collapses to
        # -lr * g / (|g| + eps), i.e. the sign pattern of g scaled by lr
        params, grads = params_and_grads(1)
        snapshot = copy.deepcopy(params)
        state = AdamState(lr=0.001)
        adam_step(state, params, grads)
        for k in params:
            update = params[k] - snapshot[k]
            assert np.allclose(update, -0.001 * np.sign(grads[k]), atol=1e-6)

    def test_deterministic(self):
        params_a, grads = params_and_grads(2)
        params_b = copy.deepcopy(params_a)
        state_a, state_b = AdamState(), AdamState()
        for _ in range(5):
            adam_step(state_a, params_a, grads)
            adam_step(state_b, params_b, grads)
        for k in params_a:
            assert np.array_equal(params_a[k], params_b[k])

    def test_shape_mismatch(self):
        params, grads = params_and_grads(3)
        grads["w"] = grads["w"][:2]
        with pytest.raises(ShapeMismatch):
            adam_step(AdamState(), params, grads)

    def test_key_mismatch(self):
        params, grads = params_and_grads(4)
        del grads["b"]
        with pytest.raises(ShapeMismatch):
            adam_step(AdamState(), params, grads)

    def test_step_counter(self):
        params, grads = params_and_grads(5)
        state = AdamState()
        for expected in range(1, 4):
            adam_step(state, params, grads)
            assert state.step == expected


class TestAdadelta:
    def test_zero_gradient_no_change(self):
        params, _ = params_and_grads(6)
        snapshot = copy.deepcopy(params)
        adadelta_step(
            AdadeltaState(), params, {k: np.zeros_like(v) for k, v in params.items()}
        )
        for k in params:
            assert np.array_equal(params[k], snapshot[k])

    def test_constant_gradient_step_size_stabilizes(self):
        params = {"x": np.array([0.0])}
        grads = {"x": np.array([0.5])}
        state = AdadeltaState()
        positions = [params["x"][0]]
        for _ in range(1500):
            adadelta_step(state, params, grads)
            positions.append(params["x"][0])
        steps = np.abs(np.diff(positions))
        tail = steps[-100:]
        assert np.all(steps > 0)
        # late steps hover around a steady magnitude
        assert tail.std() / tail.mean() < 0.01

    def test_descends_a_quadratic(self):
        params = {"x": np.array([4.0])}
        state = AdadeltaState()
        for _ in range(3000):
            adadelta_step(state, params, {"x": 2.0 * params["x"]})
        assert abs(params["x"][0]) < 1.0

    def test_deterministic(self):
        params_a, grads = params_and_grads(7)
        params_b = copy.deepcopy(params_a)
        state_a, state_b = AdadeltaState(), AdadeltaState()
        for _ in range(5):
            adadelta_step(state_a, params_a, grads)
            adadelta_step(state_b, params_b, grads)
        for k in params_a:
            assert np.array_equal(params_a[k], params_b[k])

    def test_shape_mismatch(self):
        params, grads = params_and_grads(8)
        grads["b"] = np.zeros(9)
        with pytest.raises(ShapeMismatch):
            adadelta_step(AdadeltaState(), params, grads)


def whole_array_adam(state, params, grads):
    """The textbook Adam formula (bias-corrected m_hat and v_hat) over each tensor at once."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


def whole_array_folded_adam(state, params, grads):
    """adam_step's folded formula over each tensor at once."""
    state.step += 1
    t = state.step
    root = math.sqrt(1.0 - state.beta2**t)
    step_size = state.lr * root / (1.0 - state.beta1**t)
    for name, p in params.items():
        g = grads[name]
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= m / (np.sqrt(v) + state.eps * root) * step_size


def whole_array_adadelta(state, params, grads):
    for name, p in params.items():
        g = grads[name]
        eg2 = state.avg_sq_grad.setdefault(name, np.zeros_like(p))
        ed2 = state.avg_sq_delta.setdefault(name, np.zeros_like(p))
        eg2 *= state.rho
        eg2 += (1.0 - state.rho) * g * g
        delta = -np.sqrt(ed2 + state.eps) / np.sqrt(eg2 + state.eps) * g
        ed2 *= state.rho
        ed2 += (1.0 - state.rho) * delta * delta
        p += delta


DENSE_REFERENCE = [(AdamState, adam_step, whole_array_folded_adam),
                   (AdadeltaState, adadelta_step, whole_array_adadelta)]


class TestBlocks:
    # three full blocks and a ragged tail, a 2-d tensor and a small one
    SHAPES = {"big": (3 * BLOCK + 17,), "matrix": (7, BLOCK // 3), "small": (5,)}

    @pytest.mark.parametrize("make_state, blocked, reference", DENSE_REFERENCE)
    def test_blocked_step_equals_whole_array_formula(self, make_state, blocked, reference):
        rng = np.random.Generator(np.random.PCG64(11))
        params = {name: rng.normal(size=shape) for name, shape in self.SHAPES.items()}
        expected = copy.deepcopy(params)
        state, ref_state = make_state(), make_state()
        for _ in range(4):
            grads = {name: rng.normal(size=p.shape) for name, p in params.items()}
            grads["big"][BLOCK : 2 * BLOCK] = 0.0  # a block with no gradient
            blocked(state, params, grads)
            reference(ref_state, expected, grads)
        for name in params:
            assert np.array_equal(params[name], expected[name])
        for slot, ref_slot in zip(vars(state).values(), vars(ref_state).values()):
            if isinstance(slot, dict):
                assert all(np.array_equal(slot[name], ref_slot[name]) for name in params)
            else:
                assert slot == ref_slot

    def test_folded_step_follows_the_textbook_formula(self):
        # the moments are the same numbers; the parameters differ by rounding only
        rng = np.random.Generator(np.random.PCG64(12))
        params = {name: rng.normal(size=shape) for name, shape in self.SHAPES.items()}
        expected = copy.deepcopy(params)
        state, ref_state = AdamState(), AdamState()
        for _ in range(25):
            grads = {name: rng.normal(size=p.shape) * 10.0 ** rng.uniform(-8, 3, size=p.shape)
                     for name, p in params.items()}
            grads["big"][BLOCK : 2 * BLOCK] = 0.0
            adam_step(state, params, grads)
            whole_array_adam(ref_state, expected, grads)
        for name in params:
            assert np.array_equal(state.m[name], ref_state.m[name])
            assert np.array_equal(state.v[name], ref_state.v[name])
            np.testing.assert_allclose(params[name], expected[name], rtol=1e-12, atol=0)

    def test_parameter_without_a_flat_view_is_refused(self):
        p = np.zeros((4, 6))[:, :3]  # an update through a flat copy would be lost
        with pytest.raises(ShapeMismatch, match="contiguous"):
            adam_step(AdamState(), {"p": p}, {"p": np.ones_like(p)})

    def test_shape_error_leaves_the_step_counter(self):
        params, grads = params_and_grads(9)
        grads["w"] = grads["w"][:1]
        state = AdamState()
        with pytest.raises(ShapeMismatch):
            adam_step(state, params, grads)
        assert state.step == 0

    @pytest.mark.parametrize("make_state, step", OPTIMIZERS)
    def test_only_the_first_step_creates_state_arrays(self, make_state, step, monkeypatch):
        params, grads = params_and_grads(4)
        state = make_state()
        step(state, params, grads)
        slots = [s for s in vars(state).values() if isinstance(s, dict)]
        first = [dict(s) for s in slots]
        created = []
        zeros_like = np.zeros_like

        def counting_zeros_like(a, *args, **kwargs):
            created.append(a.shape)
            return zeros_like(a, *args, **kwargs)

        monkeypatch.setattr(np, "zeros_like", counting_zeros_like)
        step(state, params, grads)
        assert created == []
        assert all(s[name] is f[name] for s, f in zip(slots, first) for name in params)


# a tensor of 0 to several blocks: 1-d of any length, or 2-d with rows that do not
# line up with the blocks
tensor_shapes = st.one_of(
    st.integers(0, 4 * BLOCK + 3).map(lambda n: (n,)),
    st.tuples(st.integers(0, 9), st.integers(0, BLOCK // 2 + 5)),
)


class TestBlockProperty:
    @given(shapes=st.lists(tensor_shapes, min_size=1, max_size=3),
           steps=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=25, deadline=None)
    @pytest.mark.parametrize("make_state, blocked, reference", DENSE_REFERENCE)
    def test_blocked_step_equals_whole_array_formula(self, make_state, blocked, reference,
                                                     shapes, steps, seed, data):
        rng = np.random.Generator(np.random.PCG64(seed))
        params = {f"t{k}": rng.normal(size=shape) for k, shape in enumerate(shapes)}
        expected = copy.deepcopy(params)
        state, ref_state = make_state(), make_state()
        for _ in range(steps):
            grads = {}
            for name, p in params.items():
                g = rng.normal(scale=10.0 ** rng.integers(-8, 4), size=p.shape)
                flat = g.reshape(-1)
                for block in data.draw(st.sets(st.integers(0, p.size // BLOCK))):
                    flat[block * BLOCK : (block + 1) * BLOCK] = 0.0  # blocks with no gradient
                grads[name] = g
            blocked(state, params, grads)
            reference(ref_state, expected, grads)
        for name in params:
            assert np.array_equal(params[name], expected[name])
        for slot, ref_slot in zip(vars(state).values(), vars(ref_state).values()):
            if isinstance(slot, dict):
                assert all(np.array_equal(slot[name], ref_slot[name]) for name in params)
            else:
                assert slot == ref_slot

    @pytest.mark.parametrize("make_state, step", OPTIMIZERS)
    def test_a_step_makes_no_per_block_temporaries(self, make_state, step):
        rng = np.random.Generator(np.random.PCG64(3))
        params = {"p": rng.normal(size=(10**4, 100))}
        listed = np.arange(0, 10**4, 200)
        for rows in (None, {"p": listed}):  # a dense step, then one of 50 listed rows
            grads = {"p": rng.normal(size=(10**4 if rows is None else len(listed), 100))}
            state = make_state()
            step(state, params, grads, rows)  # the first step makes the state arrays
            tracemalloc.start()
            try:
                step(state, params, grads, rows)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # at most two block-long scratch buffers, the gathered copies of the listed
            # rows of the parameter and its two state arrays, and small objects; one more
            # block-long array alive at any moment of the step would pass the bound
            gathered = 0 if rows is None else 3 * grads["p"].nbytes
            assert peak < 3 * BLOCK * 8 + gathered


def same_bits(a, b):
    """Equal arrays down to the sign of every zero, which np.array_equal ignores."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# signed zeros, subnormals and normal numbers: a first moment of either sign, and a
# second moment, a running sum of squares, that is never negative
SIGNED_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-3, -2.5)
UNSIGNED_VALUES = tuple(x for x in SIGNED_VALUES if not math.copysign(1.0, x) < 0)
STATE_VALUES = {"m": SIGNED_VALUES, "v": UNSIGNED_VALUES,
                "avg_sq_grad": UNSIGNED_VALUES, "avg_sq_delta": UNSIGNED_VALUES}


class TestRowSparseStep:
    @given(height=st.integers(0, 12), width=st.sampled_from([1, 5, BLOCK // 4 + 3]),
           beta1=st.sampled_from([0.9, 0.25]), steps=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=30, deadline=None)
    @pytest.mark.parametrize("make_state, step", OPTIMIZERS)
    def test_rows_step_equals_the_dense_step_on_the_scattered_gradient(
            self, make_state, step, height, width, beta1, steps, seed, data):
        # up to 12 rows of 4,099 values: a matrix of up to three blocks, which no row
        # boundary lines up with; a beta1 of 0.25 takes a -5e-324 first moment to -0.0
        rng = np.random.Generator(np.random.PCG64(seed))
        params = {"w": rng.choice(SIGNED_VALUES + (1.0, -0.5), size=(height, width)),
                  "b": rng.normal(size=3)}
        state = make_state(**({"beta1": beta1} if make_state is AdamState else {}))
        for slot, values in STATE_VALUES.items():
            if hasattr(state, slot):
                getattr(state, slot).update(
                    {name: rng.choice(values, size=p.shape) for name, p in params.items()})
        dense_params, dense_state = copy.deepcopy(params), copy.deepcopy(state)
        some_rows = st.sets(st.integers(0, height - 1)) if height else st.just(set())
        for _ in range(steps):
            listed = np.array(sorted(data.draw(st.one_of(
                st.just(set()), st.just(set(range(height))), some_rows))), dtype=np.intp)
            grads = {"w": rng.normal(scale=10.0 ** rng.integers(-8, 4), size=(len(listed), width)),
                     "b": rng.normal(size=3)}
            step(state, params, grads, {"w": listed})
            step(dense_state, dense_params, {**grads, "w": scattered(grads["w"], listed, height)})
        for name in params:
            assert same_bits(params[name], dense_params[name])
        for slot, dense_slot in zip(vars(state).values(), vars(dense_state).values()):
            if isinstance(slot, dict):
                assert all(same_bits(slot[name], dense_slot[name]) for name in params)
            else:
                assert slot == dense_slot

    # (rows, gradient row count, error): unsorted, repeated, out-of-range, miscounted
    # and malformed rows
    BAD_ROWS = [
        ([2, 1], 2, "sorted and unique"),
        ([1, 1], 2, "sorted and unique"),
        ([0, 3, 3], 3, "sorted and unique"),
        ([0, 5], 2, "outside 0..4"),
        ([-1, 2], 2, "outside 0..4"),
        ([1, 2], 3, "for 2 rows"),
        ([1, 2], 1, "for 2 rows"),
        (np.empty(0, np.intp), 1, "for 0 rows"),
        ([0.0, 1.0], 2, "1-d integer array"),
        ([[0, 1]], 2, "1-d integer array"),
        ([True, False], 2, "1-d integer array"),
    ]

    @pytest.mark.parametrize("listed, count, match", BAD_ROWS)
    @pytest.mark.parametrize("make_state, step", OPTIMIZERS)
    def test_bad_rows_are_refused_before_any_change(self, make_state, step, listed, count,
                                                    match):
        params = {"w": np.ones((5, 3)), "b": np.ones(2)}
        grads = {"w": np.ones((count, 3)), "b": np.ones(2)}
        state = make_state()
        with pytest.raises(ShapeMismatch, match=match):
            step(state, params, grads, {"w": np.array(listed)})
        assert np.array_equal(params["w"], np.ones((5, 3)))
        assert np.array_equal(params["b"], np.ones(2))
        assert vars(state) == vars(make_state())

    @pytest.mark.parametrize("make_state, step", OPTIMIZERS)
    def test_rows_of_no_parameter_or_of_a_scalar_are_refused(self, make_state, step):
        with pytest.raises(ShapeMismatch, match="rows given for no parameter"):
            step(make_state(), {"w": np.ones(3)}, {"w": np.ones(3)}, {"x": np.arange(1)})
        with pytest.raises(ShapeMismatch, match="1-d integer array"):
            step(make_state(), {"w": np.ones(())}, {"w": np.ones(())}, {"w": np.arange(0)})
        with pytest.raises(ShapeMismatch, match="1-d integer array"):
            step(make_state(), {"w": np.ones((2, 2))}, {"w": np.ones((1, 2))}, {"w": [1]})
