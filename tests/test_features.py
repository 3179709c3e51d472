import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdprel import features
from sdprel.errors import DimensionMismatch, ParseError
from sdprel.features import (
    POS_DIM,
    Autoencoder,
    coarse_pos,
    code_string,
    encode_dense,
    encode_pos_onehot,
    encode_position,
    load_pos_table,
    reconstruct,
    reconstruction_loss,
    train_autoencoder,
    train_autoencoders,
    _ae_loss_grad,
    _ae_views,
)

from helpers import central_differences, max_relative_error, reference_autoencoder


class TestCoarsePos:
    def test_penn_tags(self):
        assert coarse_pos("NN") == 0
        assert coarse_pos("NNS") == 0
        assert coarse_pos("VBZ") == 1
        assert coarse_pos("JJ") == 2
        assert coarse_pos("RB") == 3
        assert coarse_pos("IN") == 4
        assert coarse_pos("CC") == 5
        assert coarse_pos("DT") == 6

    def test_unknown_tag_is_other(self):
        assert coarse_pos("XYZ") == 7
        assert coarse_pos(",") == 7
        assert coarse_pos("") == 7

    def test_custom_table(self):
        assert coarse_pos("FOO", {"FOO": 3}) == 3
        assert coarse_pos("NN", {"FOO": 3}) == 7

    def test_table_file_round_trip(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("# comment\nAA\t2\nBB\t5\n", encoding="utf-8")
        assert load_pos_table(path) == {"AA": 2, "BB": 5}

    def test_table_file_errors(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("AA 2\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_pos_table(path)
        path.write_text("AA\t9\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_pos_table(path)

    def test_a_tag_set_twice_is_a_parse_error(self, tmp_path):
        path = tmp_path / "twice.tsv"
        path.write_text("NN\t0\nVB\t1\nNN\t3\n", encoding="utf-8")
        with pytest.raises(ParseError,
                           match="twice.tsv:3: tag 'NN' is set twice, on lines 1 and 3"):
            load_pos_table(path)


class TestPosOneHot:
    def test_noun_code(self):
        assert code_string(encode_pos_onehot(0)) == "10000000"

    def test_last_class(self):
        assert code_string(encode_pos_onehot(7)) == "00000001"

    def test_all_distinct_hamming_two(self):
        codes = [encode_pos_onehot(i) for i in range(POS_DIM)]
        for i in range(POS_DIM):
            assert codes[i].sum() == 1.0
            for j in range(i + 1, POS_DIM):
                assert int(np.sum(codes[i] != codes[j])) == 2

    def test_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            encode_pos_onehot(8)


class TestPositionCode:
    # every distance column of the 10-bit table
    TABLE3 = {
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

    def test_table3_columns_exact(self):
        for d, expected in self.TABLE3.items():
            assert code_string(encode_position(d)) == expected

    def test_beyond_window_saturates(self):
        for d in (11, 15, 100, -100):
            assert code_string(encode_position(d)) == "1111111111"

    def test_minus_six(self):
        assert code_string(encode_position(-6)) == "0000111111"

    @given(d=st.integers(min_value=-200, max_value=200))
    def test_sign_discarded(self, d):
        assert np.array_equal(encode_position(d), encode_position(-d))

    @given(d=st.integers(min_value=-200, max_value=200))
    def test_popcount(self, d):
        assert encode_position(d).sum() == min(abs(d), 10)

    def test_monotone_in_distance(self):
        pops = [encode_position(d).sum() for d in range(0, 30)]
        assert pops == sorted(pops)

    @given(d=st.integers(min_value=0, max_value=50), dim=st.integers(min_value=5, max_value=12))
    def test_window_dimension_knob(self, d, dim):
        code = encode_position(d, dim)
        assert code.shape == (dim,)
        assert code.sum() == min(d, dim)
        # thermometer form: ones are a suffix run
        m = int(code.sum())
        assert np.array_equal(code[dim - m :], np.ones(m))
        assert np.array_equal(code[: dim - m], np.zeros(dim - m))


@pytest.mark.usefixtures("no_fit_memo")
class TestAutoencoder:
    def test_onehots_round_trip_after_training(self):
        samples = np.eye(POS_DIM)
        ae = train_autoencoder(samples, POS_DIM, epochs=1500, seed=0)
        for row in samples:
            recovered = (reconstruct(ae, row) >= 0.5).astype(float)
            assert np.array_equal(recovered, row)

    def test_single_sample_memorized(self):
        samples = np.tile([1.0, 0.0, 1.0, 0.0], (1, 1))
        ae = train_autoencoder(samples, 4, epochs=1500, seed=1)
        assert ae.training_losses[-1] < 0.05
        assert ae.training_losses[-1] < ae.training_losses[0] / 10

    def test_thermometer_codes_improve(self):
        samples = np.stack([encode_position(d) for d in range(11)])
        ae = train_autoencoder(samples, 10, epochs=1500, seed=2)
        assert ae.training_losses[-1] < ae.training_losses[0]

    def test_loss_curve_finite_and_final_below_first(self):
        samples = np.eye(POS_DIM)
        ae = train_autoencoder(samples, POS_DIM, epochs=120, seed=3)
        assert np.all(np.isfinite(ae.training_losses))
        assert ae.training_losses[-1] <= ae.training_losses[0]

    def test_deterministic(self):
        samples = np.eye(POS_DIM)
        a = train_autoencoder(samples, POS_DIM, epochs=50, seed=4)
        b = train_autoencoder(samples, POS_DIM, epochs=50, seed=4)
        assert np.array_equal(a.encoder_w, b.encoder_w)
        assert np.array_equal(a.decoder_b, b.decoder_b)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            train_autoencoder(np.eye(4), 8, epochs=1, seed=0)
        with pytest.raises(DimensionMismatch):
            train_autoencoder(np.zeros((0, 8)), 8, epochs=1, seed=0)

    def test_reconstruction_loss_matches_curve(self):
        samples = np.eye(POS_DIM)
        ae = train_autoencoder(samples, POS_DIM, epochs=30, seed=5)
        # the curve records loss before each step, so the standalone loss of
        # the final model must be at or below the last recorded value
        assert reconstruction_loss(ae, samples) <= ae.training_losses[-1] + 1e-9


def random_codes(d, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return np.unique((rng.random((2 * d, d)) < 0.4).astype(np.float64), axis=0)


@pytest.mark.usefixtures("no_fit_memo")
class TestAutoencoderVector:
    @pytest.mark.parametrize("d, seed", [(5, 0), (8, 1), (10, 2), (12, 3), (8, 13)])
    def test_equals_the_four_array_reference(self, d, seed):
        samples = random_codes(d, seed)
        ae = train_autoencoder(samples, d, epochs=200, seed=seed)
        enc_w, enc_b, dec_w, dec_b, losses = reference_autoencoder(samples, d, 200, seed)
        assert np.array_equal(ae.encoder_w, enc_w)
        assert np.array_equal(ae.encoder_b, enc_b)
        assert np.array_equal(ae.decoder_w, dec_w)
        assert np.array_equal(ae.decoder_b, dec_b)
        assert list(ae.training_losses) == losses

    def test_fields_are_views_of_one_vector(self):
        ae = train_autoencoder(np.eye(5), 5, epochs=2, seed=0)
        theta = ae.encoder_w.base
        assert theta.shape == (2 * 5 * 5 + 2 * 5,)
        for arr in (ae.decoder_w, ae.encoder_b, ae.decoder_b):
            assert arr.base is theta

    @pytest.mark.parametrize("d, seed", [(4, 0), (8, 1)])
    def test_gradient_matches_finite_differences(self, d, seed):
        samples = random_codes(d, seed)
        rng = np.random.Generator(np.random.PCG64(seed + 50))
        theta = rng.uniform(-1.0, 1.0, size=2 * d * d + 2 * d)
        ae = Autoencoder(*_ae_views(theta, d))  # its fields follow theta
        _, grad = _ae_loss_grad(ae, samples)
        numeric = central_differences(lambda _: _ae_loss_grad(ae, samples)[0], theta)
        assert max_relative_error({"theta": grad}, {"theta": numeric}) < 1e-4


@pytest.mark.usefixtures("no_fit_memo")
class TestStackedAutoencoders:
    @pytest.mark.parametrize("d", [5, 8, 10, 12])
    @pytest.mark.parametrize("size", [1, 2, 10])
    def test_every_row_equals_its_lone_fit(self, d, size):
        samples = random_codes(d, d + size)
        seeds = [100 + 7 * k for k in range(size)]
        fits = train_autoencoders(samples, d, 80, seeds)
        assert len(fits) == size
        for seed, ae in zip(seeds, fits):
            enc_w, enc_b, dec_w, dec_b, losses = reference_autoencoder(samples, d, 80, seed)
            lone = train_autoencoder(samples, d, epochs=80, seed=seed)
            for got, ref, alone in ((ae.encoder_w, enc_w, lone.encoder_w),
                                    (ae.encoder_b, enc_b, lone.encoder_b),
                                    (ae.decoder_w, dec_w, lone.decoder_w),
                                    (ae.decoder_b, dec_b, lone.decoder_b)):
                assert np.array_equal(got, ref) and np.array_equal(got, alone)
            assert list(ae.training_losses) == losses
            assert ae.training_losses == lone.training_losses

    def test_rows_own_their_vectors(self):
        a, b = train_autoencoders(np.eye(5), 5, 3, [0, 1])
        assert a.encoder_w.base is not b.encoder_w.base
        assert a.encoder_w.base.shape == (2 * 5 * 5 + 2 * 5,)

    def test_equal_seeds_give_equal_rows(self):
        a, b = train_autoencoders(np.eye(6), 6, 20, [3, 3])
        assert np.array_equal(a.encoder_w.base, b.encoder_w.base)
        assert a.training_losses == b.training_losses

    @pytest.mark.parametrize("d, size", [(4, 3), (8, 2)])
    def test_stacked_gradient_matches_finite_differences(self, d, size):
        samples = random_codes(d, d)
        rng = np.random.Generator(np.random.PCG64(d + 60))
        theta = rng.uniform(-1.0, 1.0, size=(size, 2 * d * d + 2 * d))
        stack = Autoencoder(*_ae_views(theta, d))  # its fields follow theta
        loss, grad = _ae_loss_grad(stack, samples)
        assert loss.shape == (size,) and grad.shape == theta.shape
        for k in range(size):
            numeric = central_differences(lambda _: _ae_loss_grad(stack, samples)[0][k], theta[k])
            assert max_relative_error({"theta": grad[k]}, {"theta": numeric}) < 1e-4
            lone_loss, lone_grad = _ae_loss_grad(Autoencoder(*_ae_views(theta[k], d)), samples)
            assert loss[k] == lone_loss and np.array_equal(grad[k], lone_grad)

    def test_bad_arguments(self):
        with pytest.raises(DimensionMismatch):
            train_autoencoders(np.eye(4), 4, 1, [])
        with pytest.raises(DimensionMismatch):
            train_autoencoders(np.eye(4), 5, 1, [0, 1])


class TestEncodeDense:
    def test_open_interval(self):
        ae = train_autoencoder(np.eye(POS_DIM), POS_DIM, epochs=20, seed=0)
        for i in range(POS_DIM):
            dense = encode_dense(ae, encode_pos_onehot(i))
            assert np.all(dense > 0.0) and np.all(dense < 1.0)

    def test_zero_weights_give_half(self):
        ae = Autoencoder(
            encoder_w=np.zeros((4, 4)),
            encoder_b=np.zeros(4),
            decoder_w=np.zeros((4, 4)),
            decoder_b=np.zeros(4),
        )
        assert np.array_equal(encode_dense(ae, np.ones(4)), np.full(4, 0.5))

    def test_distinct_inputs_distinct_outputs(self):
        ae = train_autoencoder(np.eye(POS_DIM), POS_DIM, epochs=300, seed=6)
        dense = [encode_dense(ae, encode_pos_onehot(i)) for i in range(POS_DIM)]
        for i in range(POS_DIM):
            for j in range(i + 1, POS_DIM):
                assert np.linalg.norm(dense[i] - dense[j]) > 0.0

    def test_dimension_mismatch(self):
        ae = train_autoencoder(np.eye(4), 4, epochs=1, seed=0)
        with pytest.raises(DimensionMismatch):
            encode_dense(ae, np.zeros(5))


FIELDS = ("encoder_w", "encoder_b", "decoder_w", "decoder_b")


def assert_same_fits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert np.array_equal(a.training_losses, b.training_losses)


def fitted_seeds(monkeypatch):
    """The seeds that train_autoencoders really fits, one list per stacked run."""
    runs, fit = [], features._fit_stack
    monkeypatch.setattr(features, "_fit_stack",
                        lambda x, d, epochs, seeds: runs.append(list(seeds)) or fit(x, d, epochs, seeds))
    return runs


def lone_fits(samples, d, epochs, seeds):
    """Each seed's fit alone, made without the memo."""
    fits = []
    for seed in seeds:
        (row,), (curve,) = features._fit_stack(np.asarray(samples, np.float64), d, epochs, [seed])
        ae = Autoencoder(*_ae_views(row, d))
        ae.training_losses = tuple(curve.tolist())
        fits.append(ae)
    return fits


@st.composite
def fit_cases(draw):
    d = draw(st.integers(2, 6))
    codes = draw(st.lists(st.lists(st.booleans(), min_size=d, max_size=d),
                          min_size=1, max_size=6, unique_by=tuple))
    epochs = draw(st.integers(0, 30))
    seeds = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5))  # repeats are common
    kept = draw(st.lists(st.sampled_from(seeds), min_size=1, unique=True))
    return np.array(codes, dtype=np.float64), d, epochs, seeds, kept


class TestFitMemo:
    """train_autoencoders keeps each fit under its codes, width, epochs and
    seed; a kept fit is returned with the same bits instead of refitted."""

    @given(case=fit_cases())
    @settings(max_examples=40, deadline=None)
    def test_cold_warm_partial_and_lone_fits_agree(self, case):
        samples, d, epochs, seeds, kept = case
        lone = lone_fits(samples, d, epochs, seeds)
        for prefill in ([], kept):  # a cold memo, then one that holds some seeds
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(features, "_FITS", {})
                if prefill:
                    train_autoencoders(samples, d, epochs, prefill)
                runs = fitted_seeds(mp)
                first = train_autoencoders(samples, d, epochs, seeds)
                missing = [s for s in seeds if s not in prefill]
                assert runs == ([missing] if missing else [])
                warm = train_autoencoders(samples, d, epochs, seeds)
                assert len(runs) == bool(missing)  # the warm call fits nothing
                assert len(features._FITS) == len(set(seeds) | set(prefill))
            assert_same_fits(first, lone)
            assert_same_fits(warm, lone)
            bases = {id(ae.encoder_w.base) for ae in warm}
            assert len(bases) == len(seeds)  # repeated seeds own separate copies

    @pytest.mark.parametrize("d", [8, 12])
    def test_equals_the_reference_cold_and_warm(self, d):
        samples = random_codes(d, 21)
        for _ in range(2):
            (ae,) = train_autoencoders(samples, d, 40, [9])
            enc_w, enc_b, dec_w, dec_b, losses = reference_autoencoder(samples, d, 40, 9)
            for got, ref in zip((ae.encoder_w, ae.encoder_b, ae.decoder_w, ae.decoder_b),
                                (enc_w, enc_b, dec_w, dec_b)):
                assert np.array_equal(got, ref)
            assert list(ae.training_losses) == losses
        assert len(features._FITS) == 1

    @pytest.mark.parametrize("change", [
        dict(samples=np.eye(5)[:4]), dict(d=4, samples=np.eye(4)), dict(epochs=11), dict(seed=2)])
    def test_every_argument_is_in_the_key(self, monkeypatch, change):
        args = dict(samples=np.eye(5), d=5, epochs=10, seed=1)
        train_autoencoders(args["samples"], args["d"], args["epochs"], [args["seed"]])
        args.update(change)
        runs = fitted_seeds(monkeypatch)
        train_autoencoders(args["samples"], args["d"], args["epochs"], [args["seed"]])
        assert runs == [[args["seed"]]]
        assert len(features._FITS) == 2

    def test_a_changed_returned_fit_leaves_the_kept_one_alone(self):
        (want,) = lone_fits(np.eye(4), 4, 6, [0])
        for _ in range(2):  # a cold call's fit, then a warm call's
            (ae,) = train_autoencoders(np.eye(4), 4, 6, [0])
            ae.encoder_w.base[:] = 7.0
            ae.training_losses = ()
        assert_same_fits(train_autoencoders(np.eye(4), 4, 6, [0]), [want])

    def test_bad_arguments_raise_todays_errors_on_a_warm_memo(self):
        train_autoencoders(np.eye(4), 4, 3, [0, 1])
        with pytest.raises(DimensionMismatch):
            train_autoencoders(np.eye(4), 4, 3, [])
        with pytest.raises(DimensionMismatch):
            train_autoencoders(np.eye(4), 5, 3, [0])
        with pytest.raises(ValueError):
            train_autoencoders(np.eye(4), 4, 3, [0, -1])
        for seeds in ([0, 1.5], [1.0]):  # 1.0 == 1, but a float seed is an error
            with pytest.raises(TypeError):
                train_autoencoders(np.eye(4), 4, 3, seeds)
        assert len(features._FITS) == 2
