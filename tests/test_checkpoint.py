import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdprel.checkpoint import (
    FORMAT_VERSION,
    checkpoint_bytes,
    checkpoint_from_bytes,
    load_checkpoint,
    save_checkpoint,
)
from sdprel.corpus import load_corpus
from sdprel.depgraph import load_dependencies
from sdprel.embed import EmbeddingTable, load_embeddings
from sdprel.errors import (
    ConfigError,
    CorruptChecksum,
    DimensionMismatch,
    FormatError,
    InputError,
    VersionMismatch,
)
from sdprel.cli import main
from sdprel.pipeline import TrainConfig, instances_to_json, predict, preprocess, train

from helpers import (
    framed,
    split_blob,
    synthetic_corpus,
    v2_checkpoint_bytes,
    with_version,
    write_lines,
)


CONFIG = TrainConfig(
    lstm_units=6, mlp_hidden=4, dropout=0.0, epochs=4, batch=4,
    embedding_dim=8, ae_epochs=120, seed=5,
)


def synthetic_instances(tmp, n, seed):
    return synthetic_result(tmp, n, seed).instances


def synthetic_result(tmp, n, seed):
    corpus_lines, dep_lines, _ = synthetic_corpus(n, seed=seed)
    sentences = load_corpus(write_lines(tmp / "c.tsv", corpus_lines))
    deps = load_dependencies(write_lines(tmp / "d.tsv", dep_lines))
    return preprocess(sentences, deps, CONFIG)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
ARRAY_ENTRIES = st.lists(
    st.tuples(st.sampled_from(["param", "pos_ae", "position_ae", "tok", "words"]),
              st.sampled_from(["theta", "vectors", "encoder_w"]) | st.text(max_size=4),
              st.lists(st.integers(-1, 3), max_size=3) | JSON_VALUES).map(list),
    max_size=3,
)


@pytest.fixture(scope="module")
def train_instances(tmp_path_factory):
    return synthetic_instances(tmp_path_factory.mktemp("ckpt"), 10, seed=2)


@pytest.fixture(scope="module")
def trained_checkpoint(train_instances):
    return train(CONFIG, train_instances).checkpoint


class TestRoundTrip:
    def test_save_load_save_identical_bytes(self, trained_checkpoint, tmp_path):
        path = tmp_path / "model.sdpl"
        save_checkpoint(trained_checkpoint, path)
        first = path.read_bytes()
        loaded = load_checkpoint(path)
        assert checkpoint_bytes(loaded) == first

    def test_fields_survive(self, trained_checkpoint):
        loaded = checkpoint_from_bytes(checkpoint_bytes(trained_checkpoint))
        assert loaded.config == trained_checkpoint.config
        assert loaded.oov_seed == trained_checkpoint.oov_seed
        assert loaded.pos_table == trained_checkpoint.pos_table
        assert np.array_equal(loaded.theta, trained_checkpoint.theta)
        assert np.array_equal(
            loaded.pos_ae.encoder_w, trained_checkpoint.pos_ae.encoder_w
        )
        assert set(loaded.token_vectors) == set(trained_checkpoint.token_vectors)

    def test_loaded_model_predicts_identically(self, trained_checkpoint):
        from sdprel.pipeline import predict

        loaded = checkpoint_from_bytes(checkpoint_bytes(trained_checkpoint))
        # rebuild one instance path through both checkpoints
        corpus_lines, dep_lines, _ = synthetic_corpus(4, seed=9)
        import tempfile
        from pathlib import Path

        tmp = Path(tempfile.mkdtemp())
        sentences = load_corpus(write_lines(tmp / "c.tsv", corpus_lines))
        deps = load_dependencies(write_lines(tmp / "d.tsv", dep_lines))
        insts = preprocess(sentences, deps, trained_checkpoint.config).instances
        for inst in insts:
            assert predict(trained_checkpoint, inst) == predict(loaded, inst)

    def test_reloaded_checkpoint_uses_its_oov_seed(self, train_instances, tmp_path):
        table = EmbeddingTable.empty(CONFIG.embedding_dim, oov_seed=99)
        ck = train(CONFIG, train_instances, embeddings=table).checkpoint
        assert (ck.oov_seed, ck.config.seed) == (99, 5)
        loaded = checkpoint_from_bytes(checkpoint_bytes(ck))
        in_memory, reloaded = ck.build_vectorizer(table), loaded.build_vectorizer()
        for inst in synthetic_instances(tmp_path, 4, seed=9):
            assert predict(ck, inst, in_memory) == predict(loaded, inst, reloaded)

    def test_table_of_another_oov_seed_is_rejected(self, trained_checkpoint):
        table = EmbeddingTable.empty(CONFIG.embedding_dim, oov_seed=99)
        with pytest.raises(ConfigError, match="oov_seed 99.*oov_seed 5"):
            trained_checkpoint.build_vectorizer(table)


class TestVersionOne:
    def test_version_1_file_exits_2(self, trained_checkpoint, tmp_path, capsys):
        """Version 1 (one tensor per LSTM gate) is no longer read; the error names
        it and the versions that are."""
        blob = with_version(checkpoint_bytes(trained_checkpoint), 1)
        with pytest.raises(VersionMismatch, match="version 1, reader supports versions 2 and 3"):
            checkpoint_from_bytes(blob)
        (tmp_path / "model.sdpl").write_bytes(blob)
        result = synthetic_result(tmp_path, 4, seed=9)
        (tmp_path / "inst.json").write_text(instances_to_json(result, CONFIG), encoding="utf-8")
        rc = main(["predict", "--ck", str(tmp_path / "model.sdpl"),
                   "--instances", str(tmp_path / "inst.json")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "version 1, reader supports versions 2 and 3" in captured.err


class TestVersionTwo:
    """A version 2 file, as the former writer made it (``helpers.v2_checkpoint_bytes``),
    loads to the same checkpoint as the version 3 file of one trained model."""

    @pytest.mark.parametrize("kind, tune", [("bilstm", False), ("bilstm", True), ("rnn", True),
                                            ("mlp", False)])
    def test_v2_and_v3_files_load_and_predict_alike(self, kind, tune, train_instances,
                                                    tmp_path):
        ck = train(CONFIG.replace(model=kind, epochs=2, tune_embeddings=tune),
                   train_instances).checkpoint
        v2 = checkpoint_from_bytes(v2_checkpoint_bytes(ck))
        v3 = checkpoint_from_bytes(checkpoint_bytes(ck))
        assert split_blob(checkpoint_bytes(ck))[0]["words"] == sorted(ck.token_vectors)
        for loaded in (v2, v3):
            assert np.array_equal(loaded.theta, ck.theta)
            for ae in ("pos_ae", "position_ae"):
                for name in ("encoder_w", "encoder_b", "decoder_w", "decoder_b"):
                    assert np.array_equal(getattr(getattr(loaded, ae), name),
                                          getattr(getattr(ck, ae), name))
            assert loaded.token_vectors.keys() == ck.token_vectors.keys()
            for word, vec in ck.token_vectors.items():
                assert np.array_equal(loaded.token_vectors[word], vec)
        assert checkpoint_bytes(v2) == checkpoint_bytes(v3) == checkpoint_bytes(ck)
        for inst in synthetic_instances(tmp_path, 4, seed=9):
            assert predict(v2, inst) == predict(v3, inst) == predict(ck, inst)

    def test_tensor_of_another_shape_is_dimension_mismatch(self, trained_checkpoint):
        meta, payload = split_blob(v2_checkpoint_bytes(trained_checkpoint))
        entry = next(e for e in meta["arrays"] if e[:2] == ["param", "head.w_out"])
        entry[2] = entry[2][::-1]
        with pytest.raises(DimensionMismatch, match="head.w_out"):
            checkpoint_from_bytes(framed(meta, payload, version=2))


FIRST_TENSOR = {"bilstm": "fwd.w_in", "rnn": "rnn.w_in", "mlp": "head.w0"}


@pytest.fixture(scope="module")
def kind_checkpoints(train_instances):
    return {kind: train(CONFIG.replace(model=kind, epochs=1), train_instances).checkpoint
            for kind in FIRST_TENSOR}


def with_weight(ck, value, *names):
    """The checkpoint file of `ck` with the last entry of each named tensor set to
    `value`, written by the regular writer, so that its checksum is valid."""
    model = ck.build_model()
    for name in names:
        model.tensors()[name].flat[-1] = value
    return checkpoint_bytes(dataclasses.replace(ck, theta=model.theta))


class TestNonFiniteWeights:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", list(FIRST_TENSOR))
    def test_build_model_names_the_first_bad_tensor(self, kind_checkpoints, kind, value):
        ck = kind_checkpoints[kind]
        loaded = checkpoint_from_bytes(with_weight(ck, value, "head.w_out"))
        with pytest.raises(FormatError, match=r"checkpoint tensor head\.w_out is not finite"):
            loaded.build_model()
        first = FIRST_TENSOR[kind]
        loaded = checkpoint_from_bytes(with_weight(ck, value, "head.w_out", first))
        with pytest.raises(FormatError, match=rf"checkpoint tensor {first} is not finite"):
            loaded.build_model()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("command", [("predict",), ("evaluate", "--report", "csv")])
    @pytest.mark.parametrize("kind", list(FIRST_TENSOR))
    def test_predict_and_evaluate_exit_2_without_rows(self, kind_checkpoints, kind, command,
                                                      value, tmp_path, capsys):
        (tmp_path / "model.sdpl").write_bytes(
            with_weight(kind_checkpoints[kind], value, "head.w_out"))
        result = synthetic_result(tmp_path, 4, seed=9)
        (tmp_path / "inst.json").write_text(instances_to_json(result, CONFIG), encoding="utf-8")
        rc = main([command[0], "--ck", str(tmp_path / "model.sdpl"),
                   "--instances", str(tmp_path / "inst.json"), *command[1:]])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "head.w_out is not finite" in captured.err


class TestThetaLength:
    @pytest.mark.parametrize("kind", list(FIRST_TENSOR))
    def test_theta_of_another_length_exits_2(self, kind_checkpoints, kind, tmp_path, capsys):
        ck = kind_checkpoints[kind]
        size = ck.theta.size
        blob = checkpoint_bytes(dataclasses.replace(ck, theta=ck.theta[:-1]))
        with pytest.raises(DimensionMismatch,
                           match=rf"theta has shape \({size - 1},\), the config's {kind} "
                                 rf"needs \({size},\)"):
            checkpoint_from_bytes(blob).build_model()
        (tmp_path / "model.sdpl").write_bytes(blob)
        result = synthetic_result(tmp_path, 4, seed=9)
        (tmp_path / "inst.json").write_text(instances_to_json(result, CONFIG), encoding="utf-8")
        rc = main(["predict", "--ck", str(tmp_path / "model.sdpl"),
                   "--instances", str(tmp_path / "inst.json")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "theta has shape" in captured.err


class TestCorruption:
    def test_truncated_file(self, trained_checkpoint, tmp_path):
        path = tmp_path / "model.sdpl"
        save_checkpoint(trained_checkpoint, path)
        blob = path.read_bytes()
        with pytest.raises(CorruptChecksum):
            checkpoint_from_bytes(blob[: len(blob) // 2])

    def test_tiny_file(self):
        with pytest.raises(CorruptChecksum):
            checkpoint_from_bytes(b"SDPL")

    def test_flipped_byte(self, trained_checkpoint):
        blob = bytearray(checkpoint_bytes(trained_checkpoint))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(CorruptChecksum):
            checkpoint_from_bytes(bytes(blob))

    def test_bad_magic(self, trained_checkpoint):
        blob = bytearray(checkpoint_bytes(trained_checkpoint))
        blob[:4] = b"NOPE"
        with pytest.raises(FormatError):
            checkpoint_from_bytes(bytes(blob))

    def test_version_mismatch_names_both_versions(self, trained_checkpoint):
        blob = with_version(checkpoint_bytes(trained_checkpoint), FORMAT_VERSION + 1)
        with pytest.raises(VersionMismatch) as err:
            checkpoint_from_bytes(blob)
        message = str(err.value)
        assert str(FORMAT_VERSION) in message
        assert str(FORMAT_VERSION + 1) in message

    def test_unknown_model_kind_is_input_error(self, trained_checkpoint):
        ck = dataclasses.replace(
            trained_checkpoint, config=trained_checkpoint.config.replace(model="gru"))
        with pytest.raises(InputError):
            ck.build_model()


class TestMetadata:
    def test_framing_helpers_round_trip(self, trained_checkpoint):
        blob = checkpoint_bytes(trained_checkpoint)
        meta, payload = split_blob(blob)
        assert checkpoint_bytes(checkpoint_from_bytes(framed(meta, payload))) == blob

    @pytest.mark.parametrize(
        "key", ["arrays", "config", "model_kind", "model_meta", "pos_table", "oov_seed", "words"]
    )
    def test_missing_key_is_format_error(self, trained_checkpoint, key):
        version = 2 if key.startswith("model_") else FORMAT_VERSION  # keys of version 2 only
        write = v2_checkpoint_bytes if version == 2 else checkpoint_bytes
        meta, payload = split_blob(write(trained_checkpoint))
        del meta[key]
        with pytest.raises(FormatError, match=f"missing key '{key}'"):
            checkpoint_from_bytes(framed(meta, payload, version))

    def test_missing_oov_seed_makes_predict_exit_2(self, trained_checkpoint, tmp_path, capsys):
        meta, payload = split_blob(checkpoint_bytes(trained_checkpoint))
        del meta["oov_seed"]
        (tmp_path / "model.sdpl").write_bytes(framed(meta, payload))
        result = synthetic_result(tmp_path, 4, seed=9)
        (tmp_path / "inst.json").write_text(instances_to_json(result, CONFIG), encoding="utf-8")
        rc = main(["predict", "--ck", str(tmp_path / "model.sdpl"),
                   "--instances", str(tmp_path / "inst.json")])
        assert rc == 2
        assert "oov_seed" in capsys.readouterr().err

    def test_model_meta_must_follow_the_config(self, trained_checkpoint):
        meta, payload = split_blob(v2_checkpoint_bytes(trained_checkpoint))
        meta["model_meta"]["units"] += 1
        with pytest.raises(FormatError, match="model_meta .* does not match its config"):
            checkpoint_from_bytes(framed(meta, payload, version=2))

    def test_model_kind_must_follow_the_config(self, train_instances, tmp_path, capsys):
        """In a version 2 file, model_kind must be the stored config's model."""
        ck = train(CONFIG.replace(epochs=1), train_instances).checkpoint
        meta, payload = split_blob(v2_checkpoint_bytes(ck))
        meta["model_kind"] = "rnn"
        blob = framed(meta, payload, version=2)
        with pytest.raises(FormatError, match="model_kind 'rnn'.*'bilstm'"):
            checkpoint_from_bytes(blob)
        (tmp_path / "model.sdpl").write_bytes(blob)
        result = synthetic_result(tmp_path, 4, seed=9)
        (tmp_path / "inst.json").write_text(instances_to_json(result, CONFIG), encoding="utf-8")
        rc = main(["predict", "--ck", str(tmp_path / "model.sdpl"),
                   "--instances", str(tmp_path / "inst.json")])
        assert rc == 2
        assert "model_kind" in capsys.readouterr().err

    @pytest.mark.parametrize("input_dim", [40.0, True, 0, -3, "40", None])
    def test_input_dim_must_be_a_positive_int(self, trained_checkpoint, input_dim, tmp_path,
                                              capsys):
        """A version 2 file's input_dim must be the width that its config gives."""
        meta, payload = split_blob(v2_checkpoint_bytes(trained_checkpoint))
        meta["model_meta"]["input_dim"] = input_dim
        blob = framed(meta, payload, version=2)
        with pytest.raises(FormatError, match="input_dim"):
            checkpoint_from_bytes(blob)
        (tmp_path / "model.sdpl").write_bytes(blob)
        result = synthetic_result(tmp_path, 4, seed=9)
        (tmp_path / "inst.json").write_text(instances_to_json(result, CONFIG), encoding="utf-8")
        rc = main(["predict", "--ck", str(tmp_path / "model.sdpl"),
                   "--instances", str(tmp_path / "inst.json")])
        assert rc == 2
        assert "input_dim" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("oov_seed", 5.7), ("oov_seed", True), ("oov_seed", "5"), ("oov_seed", None),
        ("pos_table", {"NN": 2.9}), ("pos_table", {"NN": 99}), ("pos_table", {"NN": -1}),
        ("pos_table", {"NN": True}), ("pos_table", {"NN": "2"}), ("pos_table", [["NN", 2]]),
    ])
    def test_oov_seed_and_pos_classes_are_not_coerced(self, trained_checkpoint, key, value,
                                                      tmp_path, capsys):
        meta, payload = split_blob(checkpoint_bytes(trained_checkpoint))
        meta[key] = value
        blob = framed(meta, payload)
        with pytest.raises(FormatError, match=key):
            checkpoint_from_bytes(blob)
        (tmp_path / "model.sdpl").write_bytes(blob)
        result = synthetic_result(tmp_path, 4, seed=9)
        (tmp_path / "inst.json").write_text(instances_to_json(result, CONFIG), encoding="utf-8")
        rc = main(["predict", "--ck", str(tmp_path / "model.sdpl"),
                   "--instances", str(tmp_path / "inst.json")])
        assert rc == 2
        assert key in capsys.readouterr().err

    def test_negative_seed_in_the_stored_config_is_exit_2(self, trained_checkpoint, tmp_path,
                                                          capsys):
        meta, payload = split_blob(checkpoint_bytes(trained_checkpoint))
        meta["config"]["seed"] = -1
        blob = framed(meta, payload)
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            checkpoint_from_bytes(blob)
        (tmp_path / "model.sdpl").write_bytes(blob)
        result = synthetic_result(tmp_path, 4, seed=9)
        (tmp_path / "inst.json").write_text(instances_to_json(result, CONFIG), encoding="utf-8")
        for command in (("predict",), ("evaluate", "--report", "csv")):
            rc = main([command[0], "--ck", str(tmp_path / "model.sdpl"),
                       "--instances", str(tmp_path / "inst.json"), *command[1:]])
            assert rc == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "seed" in captured.err

    @pytest.mark.parametrize("key, value", [
        ("lstm_units", 3.0), ("mlp_hidden", 2.0), ("batch", 2.5), ("seed", 1.5),  # int
        ("epochs", True),
        ("dropout", "0.1"), ("learning_rate", None),  # float
        ("use_pos", "no"), ("tune_embeddings", 0),  # bool
        ("embedding_path", 5), ("model", ["bilstm"]),  # str
    ])
    def test_a_stored_config_value_of_another_type_is_exit_2(self, trained_checkpoint, tmp_path,
                                                             capsys, key, value):
        meta, payload = split_blob(checkpoint_bytes(trained_checkpoint))
        meta["config"][key] = value
        blob = framed(meta, payload)
        with pytest.raises(ConfigError, match=f"{key} expects"):
            checkpoint_from_bytes(blob)
        (tmp_path / "model.sdpl").write_bytes(blob)
        result = synthetic_result(tmp_path, 4, seed=9)
        (tmp_path / "inst.json").write_text(instances_to_json(result, CONFIG), encoding="utf-8")
        for command in (("predict",), ("evaluate", "--report", "csv")):
            rc = main([command[0], "--ck", str(tmp_path / "model.sdpl"),
                       "--instances", str(tmp_path / "inst.json"), *command[1:]])
            assert rc == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{key} expects" in captured.err

    def test_autoencoder_missing_in_memory_is_dimension_mismatch(self, trained_checkpoint):
        ck = dataclasses.replace(trained_checkpoint, pos_ae=None)
        with pytest.raises(DimensionMismatch, match="input dimension"):
            ck.build_vectorizer()

    def test_missing_autoencoder_is_format_error(self, trained_checkpoint):
        blob = checkpoint_bytes(dataclasses.replace(trained_checkpoint, pos_ae=None))
        with pytest.raises(FormatError, match="autoencoders"):
            checkpoint_from_bytes(blob)

    def test_inconsistent_autoencoder_shapes_are_format_error(self, trained_checkpoint):
        ae = trained_checkpoint.pos_ae
        bad = dataclasses.replace(ae, encoder_w=ae.encoder_w[:, :5])
        blob = checkpoint_bytes(dataclasses.replace(trained_checkpoint, pos_ae=bad))
        with pytest.raises(FormatError, match="pos_ae arrays"):
            checkpoint_from_bytes(blob)

    def test_token_vector_of_another_dimension_is_rejected(self, trained_checkpoint):
        vectors = {**trained_checkpoint.token_vectors, "PROT1": np.zeros(5)}
        ck = dataclasses.replace(trained_checkpoint, token_vectors=vectors)
        with pytest.raises(DimensionMismatch, match="token vectors are not 8-d"):
            checkpoint_bytes(ck)
        with pytest.raises(DimensionMismatch, match="token vectors are not 8-d"):
            ck.build_vectorizer()
        blob = v2_checkpoint_bytes(ck)
        with pytest.raises(DimensionMismatch, match="token vectors are not 8-d"):
            checkpoint_from_bytes(blob).build_vectorizer()

    @pytest.mark.parametrize("version", [2, FORMAT_VERSION])
    def test_an_array_listed_twice_is_format_error(self, trained_checkpoint, version):
        """A repeated (section, name) entry is rejected, not read over the first."""
        write = v2_checkpoint_bytes if version == 2 else checkpoint_bytes
        meta, payload = split_blob(write(trained_checkpoint))
        meta["arrays"].append(["pos_ae", "encoder_b", [8]])
        blob = framed(meta, payload + np.full(8, 7.0).tobytes(), version)
        with pytest.raises(FormatError, match="lists the array pos_ae/encoder_b twice"):
            checkpoint_from_bytes(blob)

    def test_a_word_listed_twice_in_a_v2_file_is_format_error(self, trained_checkpoint):
        meta, payload = split_blob(v2_checkpoint_bytes(trained_checkpoint))
        meta["arrays"].append(["tok", "PROT1", [8]])
        blob = framed(meta, payload + np.full(8, 7.0).tobytes(), version=2)
        with pytest.raises(FormatError, match="tok/PROT1 twice"):
            checkpoint_from_bytes(blob)

    @pytest.mark.parametrize("words", [
        ["PROT1", "PROT1", "PROTX"],  # repeated
        ["PROT2", "PROT1", "PROTX"],  # unsorted
        ["PROT1", 2, "PROTX"],  # not a string
        {"PROT1": 0, "PROT2": 1, "PROTX": 2},
        "PROT",
        None,
    ])
    def test_words_must_be_distinct_sorted_strings(self, trained_checkpoint, words):
        meta, payload = split_blob(checkpoint_bytes(trained_checkpoint))
        assert meta["words"] == ["PROT1", "PROT2", "PROTX"]
        meta["words"] = words
        with pytest.raises(FormatError, match="words must be distinct strings in sorted order"):
            checkpoint_from_bytes(framed(meta, payload))

    @pytest.mark.parametrize("words, shape", [
        (["PROT1", "PROT2"], [3, 8]),  # one word fewer than rows
        (["PROT1", "PROT2", "PROTX", "PROTY"], [3, 8]),  # one more
        (["PROT1", "PROT2", "PROTX"], [4, 6]),  # rows of another width, the same payload size
        (["PROT1", "PROT2", "PROTX"], [24]),
    ])
    def test_word_matrix_must_be_words_by_embedding_dim(self, trained_checkpoint, words, shape):
        meta, payload = split_blob(checkpoint_bytes(trained_checkpoint))
        entry = next(e for e in meta["arrays"] if e[:2] == ["words", "vectors"])
        assert entry[2] == [3, 8]
        meta["words"], entry[2] = words, shape
        with pytest.raises(FormatError, match=r"word vectors have shape .* need \(\d+, 8\)"):
            checkpoint_from_bytes(framed(meta, payload))

    @pytest.mark.parametrize("entry", [["param", "theta"], ["words", "vectors"]])
    def test_missing_v3_array_is_format_error(self, trained_checkpoint, entry):
        meta, payload = split_blob(checkpoint_bytes(trained_checkpoint))
        kept, offset = [], 0
        for sec, name, shape in meta["arrays"]:
            size = 8 * int(np.prod(shape))
            if [sec, name] != entry:
                kept.append(payload[offset : offset + size])
            offset += size
        meta["arrays"] = [e for e in meta["arrays"] if e[:2] != entry]
        with pytest.raises(FormatError, match="missing key"):
            checkpoint_from_bytes(framed(meta, b"".join(kept)))

    def test_unknown_array_is_format_error(self, trained_checkpoint):
        meta, payload = split_blob(checkpoint_bytes(trained_checkpoint))
        meta["arrays"].append(["tok", "PROT1", [8]])
        blob = framed(meta, payload + np.zeros(8).tobytes())
        with pytest.raises(FormatError, match=r"unknown arrays \[\('tok', 'PROT1'\)\]"):
            checkpoint_from_bytes(blob)

    @given(
        meta=st.fixed_dictionaries({}, optional={
            "arrays": ARRAY_ENTRIES | JSON_VALUES,
            "config": st.just(CONFIG.to_dict()) | JSON_VALUES,
            "model_kind": st.just("bilstm") | JSON_VALUES,
            "model_meta": JSON_VALUES,
            "pos_table": JSON_VALUES,
            "oov_seed": JSON_VALUES,
            "words": st.lists(st.sampled_from(["PROT1", "PROT2", "PROTX"]), max_size=3)
                     | JSON_VALUES,
            "embedding_digest": st.just("0" * 64) | JSON_VALUES,
        }) | JSON_VALUES,
        payload=st.binary(max_size=48),
        version=st.sampled_from([2, FORMAT_VERSION]),
    )
    @settings(max_examples=400, deadline=None)
    def test_random_metadata_raises_only_input_errors(self, meta, payload, version):
        try:
            checkpoint_from_bytes(framed(meta, payload, version))
        except InputError:
            pass


def write_vectors(path, shift=0.0):
    """An 8-d vectors file for three words; `shift` changes the values, not the dimension."""
    rows = [f"{word} " + " ".join(f"{(i + k) / 10 + shift}" for k in range(8))
            for i, word in enumerate(("GeneA0", "interacts", "with"))]
    path.write_text("3 8\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestEmbeddingDigest:
    """A checkpoint records the digest of its vectors file; scoring against a
    file with other bytes is a ConfigError, and a checkpoint without the key
    loads unchecked."""

    @pytest.fixture
    def vectors(self, tmp_path):
        return write_vectors(tmp_path / "vectors.txt")

    @pytest.fixture
    def checkpoint(self, train_instances, vectors):
        return train(CONFIG.replace(embedding_path=str(vectors)), train_instances).checkpoint

    def test_train_stores_the_files_digest(self, checkpoint, vectors):
        digest = load_embeddings(vectors).digest
        assert checkpoint.embedding_digest == digest
        blob = checkpoint_bytes(checkpoint)
        assert split_blob(blob)[0]["embedding_digest"] == digest
        loaded = checkpoint_from_bytes(blob)
        assert loaded.embedding_digest == digest
        assert checkpoint_bytes(loaded) == blob
        loaded.build_vectorizer()

    def test_changed_file_is_a_config_error(self, checkpoint, vectors):
        loaded = checkpoint_from_bytes(checkpoint_bytes(checkpoint))
        write_vectors(vectors, shift=0.5)
        with pytest.raises(ConfigError, match="has changed since training"):
            loaded.build_vectorizer()
        with pytest.raises(ConfigError, match="has changed since training"):
            loaded.build_vectorizer(load_embeddings(vectors, oov_seed=loaded.oov_seed))

    def test_checkpoint_without_the_key_loads_unchecked(self, checkpoint, vectors):
        meta, payload = split_blob(checkpoint_bytes(checkpoint))
        del meta["embedding_digest"]
        blob = framed(meta, payload)
        loaded = checkpoint_from_bytes(blob)
        assert loaded.embedding_digest is None
        assert checkpoint_bytes(loaded) == blob
        write_vectors(vectors, shift=0.5)
        loaded.build_vectorizer()

    def test_table_without_a_digest_is_unchecked(self, checkpoint):
        checkpoint.build_vectorizer(EmbeddingTable.empty(8, oov_seed=checkpoint.oov_seed))

    def test_no_vectors_file_writes_no_key(self, trained_checkpoint):
        assert trained_checkpoint.embedding_digest is None
        assert "embedding_digest" not in split_blob(checkpoint_bytes(trained_checkpoint))[0]

    @pytest.mark.parametrize("value", [None, 5, "abc", "A" * 64, "0" * 63, ["0" * 64]])
    def test_malformed_digest_is_format_error(self, checkpoint, value):
        meta, payload = split_blob(checkpoint_bytes(checkpoint))
        meta["embedding_digest"] = value
        with pytest.raises(FormatError, match="embedding_digest"):
            checkpoint_from_bytes(framed(meta, payload))
