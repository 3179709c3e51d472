import copy
import dataclasses
import json
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdprel import pipeline as pipeline_mod
from sdprel.checkpoint import checkpoint_bytes
from sdprel.corpus import (
    Entity,
    SentenceRecord,
    generalize,
    generate_candidates,
    load_corpus,
)
from sdprel.depgraph import (
    MAX_SDP_TOKENS,
    build_graph,
    load_dependencies,
    sdp_endpoints,
    sdp_tokens,
    shortest_path,
)
from sdprel.errors import (
    ConfigError,
    DimensionMismatch,
    EmptyTrainingSet,
    EntityNotInSentence,
    FormatError,
    InputError,
    MissingDependencyData,
    NonFiniteGradient,
    NonFiniteLoss,
    SdprelError,
)
from sdprel.embed import EmbeddingTable, assemble
from sdprel.features import (
    OTHER_CLASS,
    POS_DIM,
    Autoencoder,
    code_string,
    encode_dense,
    encode_pos_onehot,
    encode_position,
    load_pos_table,
)
from sdprel.optim import adam_step
from sdprel.pipeline import (
    EXCLUSION_REASONS,
    INSTANCES_FORMAT,
    ExcludedInstance,
    FoldMetrics,
    PreprocessResult,
    SdpInstance,
    TrainConfig,
    Vectorizer,
    baseline_mlp,
    baseline_rnn,
    cross_validate,
    evaluate,
    instances_from_json,
    instances_to_json,
    predict,
    preprocess,
    pretrain_autoencoders,
    train,
)

from helpers import (
    reference_cross_validate,
    reference_instances_from_json,
    reference_position_samples,
    reference_preprocess,
    reference_vectorize,
    scattered,
    synthetic_corpus,
    write_lines,
)


SMALL = dict(
    lstm_units=8,
    mlp_hidden=6,
    dropout=0.0,
    epochs=25,
    batch=8,
    embedding_dim=12,
    ae_epochs=300,
)


def small_config(**kw):
    merged = {**SMALL, **kw}
    return TrainConfig(**merged)


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("synth")
    corpus_lines, dep_lines, labels = synthetic_corpus(24, seed=3)
    sentences = load_corpus(write_lines(tmp / "corpus.tsv", corpus_lines))
    deps = load_dependencies(write_lines(tmp / "deps.tsv", dep_lines))
    return sentences, deps


@pytest.fixture(scope="module")
def synth_instances(synth):
    sentences, deps = synth
    return preprocess(sentences, deps, small_config(seed=3))


@pytest.fixture(scope="module")
def long_synth(synth, tmp_path_factory):
    """The synthetic corpus plus one 16-token path, so distances pass the window."""
    sentences, deps = synth
    chain = " ".join(f"w{i}|JJ" for i in range(14))
    line = f"chain\tp1|NN {chain} p2|VB\te1:0:0;e2:15:15\te1-e2"
    path = write_lines(tmp_path_factory.mktemp("long") / "c.tsv", [line])
    return sentences + load_corpus(path), {**deps, "chain": [(i, i + 1) for i in range(15)]}


class TestTrainConfig:
    def test_defaults_follow_tuning_table(self):
        cfg = TrainConfig()
        assert cfg.lstm_units == 64
        assert cfg.dropout == 0.3
        assert cfg.activation == "sigmoid"
        assert cfg.optimizer == "adam"
        assert cfg.epochs == 130
        assert cfg.mlp_hidden == 30
        assert cfg.k_folds == 10

    @pytest.mark.parametrize(
        "kw",
        [
            {"epochs": 0},
            {"dropout": 1.0},
            {"dropout": -0.1},
            {"position_window": 4},
            {"position_window": 13},
            {"optimizer": "sgd"},
            {"model": "transformer"},
            {"activation": "gelu"},
            {"mlp_depth": 0},
            {"k_folds": 1},
            {"learning_rate": 0.0},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"learning_rate": float("-inf")},
            {"seed": -1},
            {"lstm_units": 3.0},
            {"batch": 2.5},
            {"seed": 1.5},
            {"epochs": True},
            {"dropout": "0.1"},
            {"learning_rate": False},
            {"use_pos": "no"},
            {"tune_embeddings": 1},
            {"embedding_path": 5},
            {"batch": 0},
            {"lstm_units": 0},
            {"mlp_hidden": 0},
            {"mlp_pad_len": 0},
            {"embedding_dim": 0},
            {"ae_epochs": 0},
        ],
    )
    def test_validation_rejects(self, kw, tmp_path):
        """Every way of making a config rejects the value.  A config file holds
        text, so a string value is written quoted; `tune_embeddings=1` (a
        boolean in a file) and `embedding_path=5` (a path) have no faulty
        file form."""
        [(key, value)] = kw.items()
        path = tmp_path / "cfg"
        path.write_text(f"{key}={value!r}\n" if isinstance(value, str) else f"{key}={value}\n",
                        encoding="utf-8")
        makers = [lambda: TrainConfig(**kw), lambda: TrainConfig().replace(**kw),
                  lambda: TrainConfig.from_dict(kw)]
        if key not in ("tune_embeddings", "embedding_path"):
            makers.append(lambda: TrainConfig.from_file(path))
        for make in makers:
            with pytest.raises(ConfigError):
                make()

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(TrainConfig)])
    def test_a_config_cannot_change(self, name):
        cfg = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, getattr(cfg, name))
        assert cfg == TrainConfig()

    def test_there_is_no_separate_check(self):
        assert not hasattr(TrainConfig, "validate")

    def test_a_changed_copy_is_checked(self):
        cfg = TrainConfig().replace(epochs=3)
        assert cfg.epochs == 3 and TrainConfig().epochs == 130
        with pytest.raises(ConfigError, match="epochs"):
            cfg.replace(epochs=0)

    @pytest.mark.parametrize("value, want", [
        ("true", True), ("yes", True), ("1", True), ("TRUE", True),
        ("false", False), ("no", False), ("0", False), ("No", False),
    ])
    def test_file_booleans(self, tmp_path, value, want):
        path = tmp_path / "cfg"
        path.write_text(f"use_pos={value}\nscore_excluded={value}\n", encoding="utf-8")
        cfg = TrainConfig.from_file(path)
        assert cfg.use_pos is want and cfg.score_excluded is want

    @pytest.mark.parametrize("value", ["2", "on", "y", "", "truth"])
    def test_bad_file_boolean(self, tmp_path, value):
        path = tmp_path / "cfg"
        path.write_text(f"# flags\n\nuse_position={value}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"cfg:3: use_position expects a boolean, got {value!r}"):
            TrainConfig.from_file(path)

    def test_a_float_field_takes_an_int(self):
        assert TrainConfig.from_dict({"learning_rate": 1, "dropout": 0}).learning_rate == 1

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text(
            "# comment\nmodel=rnn\nepochs=12\ndropout=0.1\nuse_pos=false\nseed=5\n",
            encoding="utf-8",
        )
        cfg = TrainConfig.from_file(path)
        assert cfg.model == "rnn"
        assert cfg.epochs == 12
        assert cfg.dropout == 0.1
        assert cfg.use_pos is False
        assert cfg.seed == 5

    def test_from_file_unknown_key(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("no_such_key=1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown config key"):
            TrainConfig.from_file(path)

    def test_from_file_bad_value(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("epochs=ten\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            TrainConfig.from_file(path)

    def test_from_dict_unknown_key(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({"bogus": 1})

    def test_dict_round_trip(self):
        cfg = small_config(seed=9)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
INSTANCE_KEYS = st.sampled_from([
    "instance_id", "sentence_id", "prot1", "prot2", "label", "tokens",
    "pos_tags", "pos_classes", "pos1_codes", "pos2_codes",
])
EXCLUDED_KEYS = st.sampled_from(
    ["instance_id", "sentence_id", "prot1", "prot2", "label", "reason"]
)
ID_KEYS = ("instance_id", "sentence_id", "prot1", "prot2")


def tiny_document():
    """A valid version 5 instances document with one instance and one excluded pair."""
    return {
        "format": INSTANCES_FORMAT, "version": 5, "position_window": 10,
        "use_pos": True, "use_position": True, "pos_table": {"NN": 0, "VBZ": 1},
        "instances": {
            "instance_id": ["s1:e0-e1"], "sentence_id": ["s1"], "prot1": ["e0"],
            "prot2": ["e1"], "label": [1], "tokens": ["PROT1 binds PROT2"],
            "pos_tags": ["NN VBZ NN"],
        },
        "excluded": {
            "instance_id": ["s1:e0-e2"], "sentence_id": ["s1"], "prot1": ["e0"],
            "prot2": ["e2"], "label": [0], "reason": ["disconnected"],
        },
    }


def rows_of(columns):
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def leaf_paths(node, prefix=()):
    """Key paths of every scalar in a JSON document."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(value, (dict, list)):
            yield from leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


def replaced(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# Lines of three words, as many as tiny_document's path has, some of them empty
LINES = st.lists(st.sampled_from(["", "x", "NN", "PROT1"]), min_size=3, max_size=3).map(" ".join)


@st.composite
def near_valid_documents(draw):
    """tiny_document with at most one scalar replaced by another JSON value
    or a line of words."""
    doc = tiny_document()
    path = draw(st.sampled_from([None, *leaf_paths(doc)]))
    if path is None:
        return doc
    return replaced(doc, path, draw(st.integers(-2, 9) | JSON_VALUES | LINES))


def assert_well_typed(result):
    assert type(result.use_pos) is bool and type(result.use_position) is bool
    for entry in result.instances + result.excluded:
        assert all(type(getattr(entry, k)) is str for k in ID_KEYS)
        assert type(entry.label) is int and entry.label in (0, 1)
    for inst in result.instances:
        assert all(type(t) is str and t != "" for t in inst.tokens + inst.pos_tags)
        assert all(type(c) is int and 0 <= c <= 7 for c in inst.pos_classes)
        assert inst.pos_classes == tuple(result.pos_table.get(t, OTHER_CLASS) for t in inst.pos_tags)
    assert all(e.reason in ("disconnected", "path_too_long") for e in result.excluded)
    stats = result.stats()
    assert all(value >= 0 for value in stats.values())
    assert stats["positives"] + stats["negatives"] == stats["generated"]


class TestPreprocess:
    def test_table2_sentence(self, table2_record, table2_deps):
        result = preprocess([table2_record], table2_deps, small_config())
        assert len(result.instances) == 1
        inst = result.instances[0]
        assert inst.tokens == (
            "PROT1", "regulator", "between", "Interaction", "and", "repression", "PROT2",
        )
        assert [code_string(c) for c in inst.pos1_codes] == [
            "0000000000", "0000000001", "0000000011", "0000000111",
            "0000001111", "0000011111", "0000111111",
        ]
        assert [code_string(c) for c in inst.pos2_codes] == [
            "0000111111", "0000011111", "0000001111", "0000000111",
            "0000000011", "0000000001", "0000000000",
        ]
        assert inst.label == 1
        assert inst.pos_classes == (0, 0, 4, 0, 5, 0, 0)

    def test_edgeless_sentence_excluded(self, table2_record):
        result = preprocess([table2_record], {}, small_config())
        assert result.instances == []
        assert len(result.excluded) == 1
        assert result.excluded[0].reason == "disconnected"
        assert result.stats()["excluded_disconnected"] == 1

    def test_require_deps_raises(self, table2_record):
        with pytest.raises(MissingDependencyData):
            preprocess([table2_record], {}, small_config(), require_deps=True)

    def test_path_too_long_excluded(self, tmp_path):
        n = 44
        tokens = " ".join(
            [f"w{i}|NN" for i in range(n)]
        )
        line = f"long\tp1|NN {tokens} p2|NN\te1:0:0;e2:{n + 1}:{n + 1}\t"
        sentences = load_corpus(write_lines(tmp_path / "c.tsv", [line]))
        deps = {"long": [(i, i + 1) for i in range(n + 1)]}
        result = preprocess(sentences, deps, small_config())
        assert len(result.excluded) == 1
        assert result.excluded[0].reason == "path_too_long"

    def test_accounting(self, synth, synth_instances):
        sentences, _ = synth
        result = synth_instances
        assert result.generated == len(sentences)
        assert len(result.instances) + len(result.excluded) == result.generated
        ids = [i.instance_id for i in result.instances] + [
            e.instance_id for e in result.excluded
        ]
        assert len(set(ids)) == len(ids)

    def test_stats_ratio(self, synth_instances):
        stats = synth_instances.stats()
        assert stats["positives"] + stats["negatives"] == stats["generated"]

    def test_json_round_trip(self, synth_instances):
        cfg = small_config()
        text = instances_to_json(synth_instances, cfg)
        back = instances_from_json(text)
        assert len(back.instances) == len(synth_instances.instances)
        first, again = synth_instances.instances[0], back.instances[0]
        assert first.tokens == again.tokens
        assert np.array_equal(first.pos1_codes, again.pos1_codes)
        assert back.position_window == synth_instances.position_window
        assert instances_to_json(back, cfg) == text

    def test_json_rejects_other_documents(self):
        with pytest.raises(ConfigError):
            instances_from_json('{"format": "something-else"}')

    def test_json_round_trip_keeps_feature_flags(self, synth):
        sentences, deps = synth
        cfg = small_config(use_pos=False, position_window=7)
        back = instances_from_json(instances_to_json(preprocess(sentences, deps, cfg), cfg))
        assert (back.position_window, back.use_pos, back.use_position) == (7, False, True)

    def test_json_missing_key_is_named(self, synth_instances):
        doc = json.loads(instances_to_json(synth_instances, small_config()))
        del doc["instances"]["tokens"]
        with pytest.raises(FormatError, match="'tokens'"):
            instances_from_json(json.dumps(doc))

    def test_json_not_json(self):
        with pytest.raises(FormatError, match="malformed instances file"):
            instances_from_json("{ not json")

    @given(text=st.text(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_random_text_raises_only_input_errors(self, text):
        try:
            instances_from_json(text)
        except InputError:
            pass

    @given(doc=st.fixed_dictionaries(
        {"format": st.just(INSTANCES_FORMAT), "version": st.sampled_from([4, 5])},
        optional={
            "position_window": JSON_VALUES,
            "use_pos": JSON_VALUES,
            "use_position": JSON_VALUES,
            "pos_table": JSON_VALUES,
            "instances": st.dictionaries(INSTANCE_KEYS, JSON_VALUES) | JSON_VALUES,
            "excluded": st.dictionaries(EXCLUDED_KEYS, JSON_VALUES) | JSON_VALUES,
        },
    ))
    @settings(max_examples=200, deadline=None)
    def test_random_documents_raise_only_input_errors(self, doc):
        try:
            instances_from_json(json.dumps(doc))
        except InputError:
            pass

    @given(doc=st.fixed_dictionaries(
        {"format": st.just(INSTANCES_FORMAT), "version": st.sampled_from([4, 5])},
        optional={
            "position_window": st.integers(4, 13) | JSON_VALUES,
            "use_pos": st.booleans() | JSON_VALUES,
            "use_position": st.booleans() | JSON_VALUES,
            "pos_table": st.dictionaries(st.text(max_size=3), st.integers(-1, 8)) | JSON_VALUES,
            "instances": st.dictionaries(INSTANCE_KEYS, st.lists(JSON_VALUES, max_size=2))
            | JSON_VALUES,
            "excluded": st.dictionaries(EXCLUDED_KEYS, st.lists(JSON_VALUES, max_size=2))
            | JSON_VALUES,
        },
    ))
    @settings(max_examples=200, deadline=None)
    def test_random_column_documents_raise_only_input_errors(self, doc):
        try:
            result = instances_from_json(json.dumps(doc))
        except InputError:
            return
        assert_well_typed(result)

    @given(doc=near_valid_documents())
    @settings(max_examples=300, deadline=None)
    def test_accepted_documents_are_well_typed(self, doc):
        try:
            result = instances_from_json(json.dumps(doc))
        except InputError:
            return
        assert_well_typed(result)

    @pytest.mark.parametrize("path,value", [
        # (kind, column, row, ...) of tiny_document
        (("instances", "label", 0), 5),
        (("instances", "label", 0), True),
        (("instances", "label", 0), 1.0),
        (("excluded", "label", 0), "1"),
        (("excluded", "reason", 0), "too_far"),
        (("instances", "tokens", 0), 7),
        (("instances", "pos_tags", 0), None),
        (("instances", "pos_tags", 0), ["NN", "VBZ", "NN"]),
        (("instances", "label", 0), "0"),
        (("instances", "prot2", 0), 3),
        (("excluded", "sentence_id", 0), ["s1"]),
        (("instances", "label", 0), -1),
        (("instances", "label", 0), None),
        (("excluded", "label", 0), 2),
        (("excluded", "reason", 0), None),
        (("instances", "tokens", 0), ["PROT1", "binds", "PROT2"]),
        (("instances", "pos_tags", 0), "NN VBZ"),
        (("instances", "tokens", 0), "PROT1 binds  PROT2"),
        (("instances", "sentence_id", 0), 0),
        (("instances", "tokens", 0), ""),
        (("instances", "pos_tags", 0), "NN"),
        (("instances", "prot1", 0), None),
        (("excluded", "prot2", 0), False),
    ])
    def test_ill_typed_value_is_format_error_naming_the_instance(self, path, value):
        kind, _, row, *_ = path
        doc = replaced(tiny_document(), path, value)
        name = doc[kind]["instance_id"][row]
        with pytest.raises(FormatError, match=f"instance '{name}'"):
            instances_from_json(json.dumps(doc))

    @pytest.mark.parametrize("value", [1, "true", None])
    def test_feature_flags_must_be_booleans(self, value):
        for key in ("use_pos", "use_position"):
            with pytest.raises(FormatError, match="use_pos and use_position"):
                instances_from_json(json.dumps(replaced(tiny_document(), (key,), value)))

    def test_tiny_document_is_read(self):
        result = instances_from_json(json.dumps(tiny_document()))
        assert_well_typed(result)
        assert result.stats()["positives"] == result.stats()["negatives"] == 1

    def test_graph_built_once_per_sentence(self, tmp_path, monkeypatch):
        import sdprel.pipeline as pl

        lines = [
            "d1\tA|NN binds|VBZ B|NN and|CC C|NN near|IN D|NN .|.\t"
            "e1:0:0;e2:2:2;e3:4:4;e4:6:6\te1-e2",
            "d2\tE|NN alone|RB .|.\te1:0:0\t",
            "d3\tF|NN with|IN G|NN .|.\te1:0:0;e2:2:2\t",
        ]
        sentences = load_corpus(write_lines(tmp_path / "c.tsv", lines))
        deps = {
            "d1": [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)],
            "d3": [(0, 1), (1, 2)],
        }
        calls = []

        def counting_build_graph(s, edges):
            calls.append(s.id)
            return build_graph(s, edges)

        monkeypatch.setattr(pl, "build_graph", counting_build_graph)
        result = preprocess(sentences, deps, small_config())
        assert calls == ["d1", "d3"]

        # the same SDPs and exclusions as a graph built for every pair
        expected = {}
        for s in sentences:
            for pair in generate_candidates(s):
                gen = generalize(s, pair)
                try:
                    path = shortest_path(
                        build_graph(gen, deps.get(s.id, [])),
                        *sdp_endpoints(gen, pair.prot1, pair.prot2),
                    )
                except SdprelError as exc:
                    expected[f"{s.id}:{pair.prot1}-{pair.prot2}"] = type(exc).__name__
                    continue
                expected[f"{s.id}:{pair.prot1}-{pair.prot2}"] = tuple(
                    t for t, _ in sdp_tokens(path, gen)
                )
        got = {i.instance_id: i.tokens for i in result.instances}
        got.update({e.instance_id: "Disconnected" for e in result.excluded})
        assert got == expected
        assert len(result.excluded) == 3


def derived_codes(n, window):
    """Per-token thermometer codes, built one encode_position call at a time."""
    return (np.stack([encode_position(k, window) for k in range(n)]),
            np.stack([encode_position(n - 1 - k, window) for k in range(n)]))


# A word of the instances file: any non-empty text without a space
WORD = st.text(alphabet=st.characters(blacklist_characters=" "), min_size=1, max_size=5)
# Any text, spaces and line breaks included: ids are never split
ID_TEXT = st.text(max_size=6)


@st.composite
def instance_sets(draw):
    """Up to four instances of random words and up to three excluded pairs,
    each with a unique random id and random sentence and mention ids."""
    window = draw(st.integers(5, 12))
    table = load_pos_table()
    # a table tag or any other word (class OTHER_CLASS), so every class can be drawn
    tag_strategy = st.one_of(st.sampled_from(sorted(table)), WORD)
    ids = draw(st.lists(ID_TEXT, unique=True, max_size=7))
    split = draw(st.integers(0, min(4, len(ids))))
    instances = []
    for iid in ids[:split]:
        n = draw(st.integers(1, 30))
        pos1, pos2 = derived_codes(n, window)
        tags = tuple(draw(st.lists(tag_strategy, min_size=n, max_size=n)))
        instances.append(SdpInstance(
            instance_id=iid,
            sentence_id=draw(ID_TEXT),
            prot1=draw(ID_TEXT),
            prot2=draw(ID_TEXT),
            label=draw(st.integers(0, 1)),
            tokens=tuple(draw(st.lists(WORD, min_size=n, max_size=n))),
            pos_tags=tags,
            pos_classes=tuple(table.get(tag, OTHER_CLASS) for tag in tags),
            pos1_codes=pos1,
            pos2_codes=pos2,
        ))
    excluded = [ExcludedInstance(iid, draw(ID_TEXT), draw(ID_TEXT), draw(ID_TEXT),
                                 draw(st.integers(0, 1)), draw(st.sampled_from(EXCLUSION_REASONS)))
                for iid in ids[split:]]
    flags = draw(st.tuples(st.booleans(), st.booleans()))
    return PreprocessResult(instances, excluded, window, *flags, table)


def same_instances(a, b):
    assert (a.position_window, a.use_pos, a.use_position, a.pos_table) == (
        b.position_window, b.use_pos, b.use_position, b.pos_table)
    assert a.excluded == b.excluded
    assert len(a.instances) == len(b.instances)
    for x, y in zip(a.instances, b.instances):
        for f in dataclasses.fields(SdpInstance):
            assert np.array_equal(getattr(x, f.name), getattr(y, f.name)), f.name
        assert set(map(type, x.pos_classes)) <= {int} and set(map(type, y.pos_classes)) <= {int}
        assert y.pos1_codes.dtype == y.pos2_codes.dtype == np.float64


class TestInstancesFileV2:
    """The compact file: since version 2 the position codes are derived, not stored."""

    @given(result=instance_sets())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_derives_the_codes(self, result):
        """Instances of random space-free words, and excluded pairs, with
        random ids read back equal to those written, field by field."""
        config = TrainConfig(position_window=result.position_window,
                             use_pos=result.use_pos, use_position=result.use_position)
        text = instances_to_json(result, config)
        assert '"pos1_codes"' not in text and '"pos_classes"' not in text and "\n" not in text
        same_instances(instances_from_json(text), result)

    @pytest.mark.parametrize("version", [1, 2])
    def test_versions_one_and_two_are_rejected(self, synth_instances, version):
        doc = json.loads(instances_to_json(synth_instances, small_config()))
        doc["version"] = version
        with pytest.raises(ConfigError) as caught:
            instances_from_json(json.dumps(doc))
        assert str(caught.value) == (f"instances file version {version} is no longer read; "
                                     "run `sdprel preprocess` again to rebuild it")

    def test_version_one_code_matrices_are_not_read(self, synth_instances):
        """A version 1 file is rejected for its version before anything else in it,
        its code matrices included, is read."""
        doc = json.loads(instances_to_json(synth_instances, small_config()))
        doc.update(version=1, instances=[{"pos1_codes": "not a matrix"}])
        with pytest.raises(ConfigError, match="version 1 is no longer read"):
            instances_from_json(json.dumps(doc))

    @pytest.mark.parametrize("window", [0, 4, 13, 10**9, True, "10", 10.0, None])
    def test_position_window_out_of_range_is_format_error(self, synth_instances, window):
        doc = json.loads(instances_to_json(synth_instances, small_config()))
        doc["position_window"] = window
        with pytest.raises(FormatError, match="position_window"):
            instances_from_json(json.dumps(doc))

    @pytest.mark.parametrize("version", [6, 0, True, 5.0, "5", None])
    def test_unknown_version_is_rejected(self, synth_instances, version):
        doc = json.loads(instances_to_json(synth_instances, small_config()))
        doc["version"] = version
        with pytest.raises(ConfigError, match="reader supports version 5"):
            instances_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["tokens", "pos_tags"])
    def test_unequal_lengths_are_format_error(self, synth_instances, key):
        doc = json.loads(instances_to_json(synth_instances, small_config()))
        doc["instances"][key][0] = doc["instances"][key][0].rsplit(" ", 1)[0]
        with pytest.raises(FormatError, match="same word count"):
            instances_from_json(json.dumps(doc))


class TestRepeatedInstanceIds:
    """Each pair is read once: an id that repeats, within the instances, within
    the excluded pairs or across the two, is a FormatError naming it, whether
    it has one, two or three more copies."""

    @pytest.mark.parametrize("copies", [1, 2, 3])
    @pytest.mark.parametrize("where", ["instances", "excluded", "across"])
    def test_rejected(self, synth_instances, copies, where):
        result = dataclasses.replace(synth_instances, excluded=[
            ExcludedInstance(f"x:e0-e{k}", "x", "e0", f"e{k}", 0, "disconnected")
            for k in (1, 2)])
        repeated = "x:e0-e1" if where == "excluded" else synth_instances.instances[0].instance_id
        kind = "instances" if where == "instances" else "excluded"
        doc = json.loads(instances_to_json(result, small_config()))
        for column in doc[kind].values():
            column.extend(column[:1] * copies)
        doc[kind]["instance_id"][-copies:] = [repeated] * copies
        with pytest.raises(FormatError, match=f"instance id {repeated!r} appears more than once"):
            instances_from_json(json.dumps(doc))


WORDS = ("binds", "with", "the", "of", "kinase", "and", "to")
TAGS = ("NN", "VBZ", "IN", "DT", "CC", "XX")  # no PoS table names XX


@st.composite
def multi_mention_corpora(draw):
    """(sentences, deps) of 1-4 sentences with 1-7 mentions of 1-3 tokens each.

    Edges join generalized slots.  A sentence's graph is a random forest with
    a few extra edges, or a chain over more than MAX_SDP_TOKENS slots, or it
    has no dependency data at all."""
    rng = draw(st.randoms(use_true_random=False))
    sentences, deps = [], {}
    for j in range(draw(st.integers(1, 4))):
        sid = f"s{j}"
        mentions = draw(st.integers(1, 7))
        chain = draw(st.integers(0, 4)) == 0
        fillers = rng.randint(MAX_SDP_TOKENS, MAX_SDP_TOKENS + 8) if chain else rng.randint(0, 8)
        slots = [True] * mentions + [False] * fillers
        rng.shuffle(slots)
        ids = [f"e{k}" for k in range(mentions)]
        rng.shuffle(ids)
        tokens, tags, entities = [], [], []
        for is_mention in slots:
            start = len(tokens)
            for _ in range(rng.randint(1, 3) if is_mention else 1):
                tokens.append(rng.choice(WORDS))
                tags.append(rng.choice(TAGS))
            if is_mention:
                entities.append(Entity(ids[len(entities)], start, len(tokens) - 1))
        rng.shuffle(entities)
        interactions = frozenset(frozenset((a, b)) for i, a in enumerate(ids)
                                 for b in ids[i + 1:] if rng.random() < 0.3)
        sentences.append(SentenceRecord(sid, tuple(tokens), tuple(tags), tuple(entities),
                                        interactions))
        n = len(slots)
        if chain:
            deps[sid] = [(i, i + 1) if rng.random() < 0.5 else (i + 1, i)
                         for i in range(n - 1)]
        elif rng.random() < 0.85:
            edges = [(i, rng.randrange(i)) for i in range(1, n) if rng.random() < 0.8]
            for _ in range(rng.randint(0, 3) if n > 1 else 0):
                edges.append(tuple(rng.sample(range(n), 2)))
            deps[sid] = edges
    return sentences, deps


class TestPerSentencePreprocess:
    @given(corpus=multi_mention_corpora(), window=st.integers(5, 12),
           use_pos=st.booleans(),
           pos_table=st.sampled_from([None, {"NN": 3, "VBZ": 1, "XX": 6}]))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_per_pair_loop(self, corpus, window, use_pos, pos_table):
        sentences, deps = corpus
        config = TrainConfig(position_window=window, use_pos=use_pos)
        got = preprocess(sentences, deps, config, pos_table=pos_table)
        want = reference_preprocess(sentences, deps, config, pos_table=pos_table)
        same_instances(got, want)
        for a, b in zip(got.instances, want.instances):
            assert [type(c) for c in a.pos_classes] == [type(c) for c in b.pos_classes]
        same_instances(instances_from_json(instances_to_json(got, config)), want)

    def test_the_generator_reaches_every_outcome(self):
        """The property above sees both exclusion reasons and multi-token spans."""
        reasons, widths = set(), set()

        @given(corpus=multi_mention_corpora())
        @settings(max_examples=150, deadline=None, database=None, derandomize=True)
        def collect(corpus):
            sentences, deps = corpus
            result = preprocess(sentences, deps, TrainConfig())
            reasons.update(e.reason for e in result.excluded)
            reasons.add("evaluable" if result.instances else "none")
            widths.update(e.token_end - e.token_start + 1 for s in sentences
                          for e in s.entities)

        collect()
        assert {"disconnected", "path_too_long", "evaluable"} <= reasons
        assert widths == {1, 2, 3}

    def test_unknown_mention_raises(self):
        s = SentenceRecord("s", ("A", "binds", "B"), ("NN", "VBZ", "NN"),
                           (Entity("e1", 0, 1), Entity("e2", 1, 1)))
        with pytest.raises(EntityNotInSentence, match="e2"):
            preprocess([s], {"s": [(0, 1)]}, TrainConfig())

    def test_position_codes_are_shared_and_read_only(self, synth_instances):
        back = instances_from_json(instances_to_json(synth_instances, small_config()))
        for result in (synth_instances, back):
            by_length = {}
            for inst in result.instances:
                for codes in (inst.pos1_codes, inst.pos2_codes):
                    assert not codes.flags.writeable
                    with pytest.raises(ValueError, match="read-only"):
                        codes[0, 0] = 1.0
                first = by_length.setdefault(len(inst.tokens), inst)
                assert inst.pos1_codes is first.pos1_codes
                assert inst.pos2_codes is first.pos2_codes
            assert len(by_length) < len(result.instances)

    def test_replaced_codes_leave_the_shared_matrices(self, synth_instances):
        inst = synth_instances.instances[0]
        before = inst.pos1_codes.copy()
        own = dataclasses.replace(inst, pos1_codes=inst.pos1_codes.copy())
        own.pos1_codes[0, 0] = 1.0 - own.pos1_codes[0, 0]
        assert own.tokens == inst.tokens and own.pos2_codes is inst.pos2_codes
        assert np.array_equal(inst.pos1_codes, before)
        assert not np.array_equal(own.pos1_codes, before)


@st.composite
def preprocessed_corpora(draw):
    """preprocess over a dense multi-mention corpus, as the benchmark makes them:
    several mentions per sentence, both exclusion reasons, any PoS table."""
    sentences, deps = draw(multi_mention_corpora())
    config = TrainConfig(position_window=draw(st.integers(5, 12)), use_pos=draw(st.booleans()))
    pos_table = draw(st.sampled_from([None, {"NN": 3, "VBZ": 1, "XX": 6}]))
    return preprocess(sentences, deps, config, pos_table=pos_table)


def features_config(result):
    return TrainConfig(position_window=result.position_window, use_pos=result.use_pos,
                       use_position=result.use_position)


def outcome(read, text):
    """What a reader makes of a text: its result, or its error's type and message."""
    try:
        return read(text)
    except InputError as exc:
        return type(exc), str(exc)


class TestInstancesFileV3:
    @given(result=instance_sets() | preprocessed_corpora())
    @settings(max_examples=120, deadline=None)
    def test_round_trip_and_older_versions(self, result):
        """A version 5 file reads back to its result, each path's tokens and
        tags one string of words joined by single spaces, and the same document
        labelled with an older version is rejected before it is read."""
        config = features_config(result)
        text = instances_to_json(result, config)
        doc = json.loads(text)
        assert doc["version"] == 5 and "\n" not in text and "stats" not in doc
        assert set(doc["instances"]) == {"instance_id", "sentence_id", "prot1", "prot2", "label",
                                         "tokens", "pos_tags"}
        assert all(type(c) is list and len(c) == len(result.instances)
                   for c in doc["instances"].values())
        for key in ("tokens", "pos_tags"):
            assert doc["instances"][key] == [" ".join(getattr(i, key)) for i in result.instances]
        v5 = instances_from_json(text)
        same_instances(v5, result)
        same_instances(reference_instances_from_json(text), v5)
        for version in (1, 2, 3, 4):
            doc["version"] = version
            with pytest.raises(ConfigError, match=f"version {version} is no longer read"):
                instances_from_json(json.dumps(doc))

    @given(doc=near_valid_documents())
    @settings(max_examples=300, deadline=None)
    def test_reader_agrees_with_the_row_by_row_reader(self, doc):
        """A near-valid document reads as the reader of one row at a time reads
        it: the same instances, or the same error."""
        got = outcome(instances_from_json, json.dumps(doc))
        want = outcome(reference_instances_from_json, json.dumps(doc))
        if isinstance(want, tuple):
            assert got == want
        else:
            same_instances(got, want)

    def test_the_header_is_the_results(self, synth):
        """The file states the features its instances were made with; a config
        that disagrees on any of them is refused, not written."""
        sentences, deps = synth
        made = small_config(use_pos=False, position_window=7)
        result = preprocess(sentences, deps, made)
        doc = json.loads(instances_to_json(result, made))
        assert (doc["position_window"], doc["use_pos"], doc["use_position"]) == (7, False, True)
        for key, other in (("use_pos", small_config(position_window=7)),
                           ("position_window", small_config(use_pos=False)),
                           ("use_position", made.replace(use_position=False))):
            with pytest.raises(ConfigError, match=f"the result was made with {key}="):
                instances_to_json(result, other)

    def test_each_row_is_checked_once(self, synth_instances, monkeypatch):
        """Each instance row and each excluded row goes through its fault
        function once, in file order."""
        result = dataclasses.replace(synth_instances, excluded=[
            ExcludedInstance(f"x:e0-e{k}", "x", "e0", f"e{k}", 0, "disconnected")
            for k in (1, 2)])
        checked = {"_instance_fault": [], "_excluded_fault": []}
        for name, seen in checked.items():
            def counted(*row, fault=getattr(pipeline_mod, name), seen=seen):
                seen.append(row[0])
                return fault(*row)
            monkeypatch.setattr(pipeline_mod, name, counted)
        back = instances_from_json(instances_to_json(result, small_config()))
        assert checked["_instance_fault"] == [i.instance_id for i in result.instances]
        assert checked["_excluded_fault"] == [e.instance_id for e in result.excluded]
        same_instances(back, result)

    @pytest.mark.parametrize("kind, faults, first", [
        ("instances", {"tokens": "", "instance_id": 5},
         "tokens and pos_tags must be non-empty strings of the same word count"),
        ("instances", {"prot2": None, "label": 2},
         "instance_id, sentence_id, prot1, prot2 must be strings"),
        ("instances", {"label": 2, "pos_tags": "NN  NN"}, "label must be 0 or 1, got 2"),
        ("instances", {"tokens": "PROT1  PROT2"}, "tokens and pos_tags must not hold an empty word"),
        ("instances", {"tokens": "PROT1 x "}, "tokens and pos_tags must not hold an empty word"),
        ("instances", {"pos_tags": " NN NN"}, "tokens and pos_tags must not hold an empty word"),
        ("excluded", {"sentence_id": 1, "label": "0"},
         "instance_id, sentence_id, prot1, prot2 must be strings"),
        ("excluded", {"label": True, "reason": "far"}, "label must be 0 or 1, got True"),
    ], ids=["shape-before-ids", "ids-before-label", "label-before-words", "inner-empty-word",
            "last-word-empty", "first-tag-empty", "excluded-ids-before-label",
            "excluded-label-before-reason"])
    def test_a_row_names_its_first_fault(self, kind, faults, first):
        """A row that breaks two rules is reported by the one that comes first."""
        doc = tiny_document()
        for key, value in faults.items():
            doc[kind][key][0] = value
        text = json.dumps(doc)
        want = (FormatError, f"instance {doc[kind]['instance_id'][0]!r}: {first}")
        assert outcome(instances_from_json, text) == want
        assert outcome(reference_instances_from_json, text) == want

    def test_classes_must_follow_the_files_pos_table(self, synth_instances):
        """Each tag's class is the one the file's PoS table gives it, and
        OTHER_CLASS for a tag that the table lacks."""
        doc = json.loads(instances_to_json(synth_instances, small_config()))
        doc["pos_table"]["NN"] = 6
        first = doc["instances"]["pos_tags"][0].split(" ")
        doc["instances"]["pos_tags"][0] = " ".join(["NOT-A-TAG", *first[1:]])
        back = instances_from_json(json.dumps(doc))
        for inst, tags in zip(back.instances, doc["instances"]["pos_tags"]):
            assert inst.pos_classes == tuple(doc["pos_table"].get(t, OTHER_CLASS)
                                             for t in tags.split(" "))
        assert back.instances[0].pos_classes[0] == OTHER_CLASS
        assert any(6 in inst.pos_classes for inst in back.instances)

    @pytest.mark.parametrize("kind,key", [("instances", "label"), ("instances", "tokens"),
                                          ("excluded", "reason")])
    def test_unequal_columns_are_format_error(self, kind, key):
        doc = tiny_document()
        doc[kind][key].append(doc[kind][key][0])
        with pytest.raises(FormatError, match=f"the {kind} columns must be lists of equal length"):
            instances_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["tokens", "pos_tags"])
    def test_unequal_sequences_are_format_error(self, synth_instances, key):
        doc = json.loads(instances_to_json(synth_instances, small_config()))
        doc["instances"][key][1] = doc["instances"][key][1].rsplit(" ", 1)[0]
        name = doc["instances"]["instance_id"][1]
        with pytest.raises(FormatError, match=f"instance '{name}'.*same word count"):
            instances_from_json(json.dumps(doc))

    def test_empty_path_is_format_error(self):
        doc = tiny_document()
        for key in ("tokens", "pos_tags"):
            doc["instances"][key][0] = ""
        with pytest.raises(FormatError, match="instance 's1:e0-e1': .*non-empty strings"):
            instances_from_json(json.dumps(doc))

    @pytest.mark.parametrize("kind", ["instances", "excluded"])
    def test_rows_or_unknown_columns_are_format_errors(self, kind):
        doc = tiny_document()
        doc[kind]["pos1_codes"] = [[[0]]]
        with pytest.raises(FormatError, match=f"unknown {kind} columns \\['pos1_codes'\\]"):
            instances_from_json(json.dumps(doc))
        doc[kind] = rows_of(tiny_document()[kind])
        with pytest.raises(FormatError, match=f"{kind} must be an object of columns"):
            instances_from_json(json.dumps(doc))

    def test_excluded_entry_with_another_key_is_format_error(self):
        """A class column, which the reader derives, is an unknown column of the
        instances and of the excluded pairs alike."""
        for kind, classes in (("excluded", [[0]]), ("instances", ["0 1 0"])):
            doc = tiny_document()
            doc[kind]["pos_classes"] = classes
            with pytest.raises(FormatError, match=rf"unknown {kind} columns \['pos_classes'\]"):
                instances_from_json(json.dumps(doc))

    def test_preprocess_records_the_pos_table(self, synth):
        sentences, deps = synth
        assert preprocess(sentences, deps, small_config()).pos_table == load_pos_table()
        table = {"NN": 3, "VBZ": 3}
        result = preprocess(sentences, deps, small_config(), pos_table=table)
        table["NN"] = 0
        assert result.pos_table == {"NN": 3, "VBZ": 3}
        back = instances_from_json(instances_to_json(result, small_config()))
        assert back.pos_table == {"NN": 3, "VBZ": 3}
        assert {c for i in back.instances for c in i.pos_classes} <= {3, 7}

    @pytest.mark.parametrize("table", [{"NN": 8}, {"NN": -1}, {"NN": "0"}, {"NN": True},
                                       {"NN": 1.0}, {"NN": None}, ["NN", 0], "NN", None])
    def test_bad_pos_table_is_format_error(self, table):
        doc = tiny_document()
        doc["pos_table"] = table
        with pytest.raises(FormatError, match="pos_table must map tags to integers in 0..7"):
            instances_from_json(json.dumps(doc))

    def test_missing_pos_table_is_format_error(self):
        doc = tiny_document()
        del doc["pos_table"]
        with pytest.raises(FormatError, match="missing key 'pos_table'"):
            instances_from_json(json.dumps(doc))


class TestInstancesFileV5:
    """Version 5 holds each path's tokens and tags as one string of words
    joined by single spaces; the reader gives back the instances written
    (TestInstancesFileV2's round trip), with equal strings shared."""

    @given(result=instance_sets() | preprocessed_corpora())
    @settings(max_examples=80, deadline=None)
    def test_equal_strings_read_back_as_one_object(self, result):
        back = instances_from_json(instances_to_json(result, features_config(result)))
        strings = [s for i in back.instances for s in (i.sentence_id, i.prot1, i.prot2,
                                                       *i.tokens, *i.pos_tags)]
        strings += [s for e in back.excluded for s in (e.sentence_id, e.prot1, e.prot2, e.reason)]
        first = {}
        assert all(first.setdefault(s, s) is s for s in strings)

    @pytest.mark.parametrize("key", ["tokens", "pos_tags"])
    @pytest.mark.parametrize("words", [("a", ""), ("",), ("a b", "c"), ("a", " "), ("a", "b ")],
                             ids=["empty", "only-empty", "space", "only-space", "trailing-space"])
    def test_a_word_the_file_cannot_hold_is_refused(self, synth_instances, key, words):
        """A word that is empty or holds a space would not read back as written."""
        first, bad = synth_instances.instances[:3], synth_instances.instances[3]
        bad = dataclasses.replace(bad, **{key: words})
        result = dataclasses.replace(synth_instances, instances=[*first, bad])
        with pytest.raises(FormatError, match=(
                f"instance {bad.instance_id!r}: {key} must be one or more non-empty words "
                "without spaces")):
            instances_to_json(result, small_config())

    def test_a_path_without_words_is_refused(self, synth_instances):
        bad = dataclasses.replace(synth_instances.instances[0], tokens=(), pos_tags=())
        result = dataclasses.replace(synth_instances, instances=[bad])
        with pytest.raises(FormatError, match="tokens must be one or more non-empty words"):
            instances_to_json(result, small_config())


SAMPLES = {
    SdpInstance: SdpInstance("s1:e0-e1", "s1", "e0", "e1", 1, ("PROT1", "binds", "PROT2"),
                             ("NN", "VBZ", "NN"), (0, 1, 0), *derived_codes(3, 7)),
    ExcludedInstance: ExcludedInstance("s1:e0-e2", "s1", "e0", "e2", 0, "disconnected"),
}
COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "replace": dataclasses.replace,
}


class TestSlots:
    """Instances and excluded pairs keep their fields in slots, without a
    per-object dict, and still copy, pickle and replace to equal objects,
    the frozen excluded pairs included."""

    @pytest.mark.parametrize("how", COPIES)
    @pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
    def test_copies_equal_the_original(self, cls, how):
        original = SAMPLES[cls]
        again = COPIES[how](original)
        assert type(again) is cls and again is not original
        for f in dataclasses.fields(cls):
            assert np.array_equal(getattr(again, f.name), getattr(original, f.name)), f.name

    @pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
    def test_fields_live_in_slots(self, cls):
        assert "__slots__" in vars(cls) and not hasattr(SAMPLES[cls], "__dict__")

    def test_excluded_pairs_stay_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SAMPLES[ExcludedInstance].label = 1


class TestAutoencoderPretraining:
    @pytest.mark.usefixtures("no_fit_memo")
    def test_deterministic(self, synth_instances):
        cfg = small_config(seed=4)
        a_pos, a_position = pretrain_autoencoders(cfg, synth_instances.instances)
        b_pos, b_position = pretrain_autoencoders(cfg, synth_instances.instances)
        assert np.array_equal(a_pos.encoder_w, b_pos.encoder_w)
        assert np.array_equal(a_position.decoder_w, b_position.decoder_w)

    @given(classes=st.lists(st.lists(st.integers(0, POS_DIM - 1), min_size=1, max_size=8),
                            min_size=1, max_size=6))
    def test_pos_samples_are_the_unique_one_hots_of_every_token(self, classes):
        instances = [SimpleNamespace(pos_classes=tuple(c)) for c in classes]
        every_token = np.stack([encode_pos_onehot(c) for i in instances for c in i.pos_classes])
        got = pipeline_mod._pos_samples(instances)
        assert np.array_equal(got, np.unique(every_token, axis=0))

    @given(result=instance_sets() | preprocessed_corpora())
    @settings(max_examples=80, deadline=None)
    def test_position_samples_are_the_unique_rows_of_every_code(self, result):
        if not result.instances:
            return
        got = pipeline_mod._position_samples(result.instances, result.position_window)
        want = reference_position_samples(result.instances)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_position_samples_reject_codes_of_another_width(self, synth_instances):
        inst = synth_instances.instances[1]
        narrow = dataclasses.replace(inst, pos2_codes=inst.pos2_codes[:, :7])
        with pytest.raises(DimensionMismatch, match="position codes are 7 wide"):
            pipeline_mod._position_samples([synth_instances.instances[0], narrow], 10)

    def test_pos_samples_name_the_first_bad_class(self):
        instances = [SimpleNamespace(pos_classes=classes) for classes in [(3, POS_DIM + 1), (-1,)]]
        with pytest.raises(DimensionMismatch, match=f"class index {POS_DIM + 1} outside"):
            pipeline_mod._pos_samples(instances)

    def test_feature_flags_disable(self, synth_instances):
        cfg = small_config(use_pos=False, use_position=False)
        pos_ae, position_ae = pretrain_autoencoders(cfg, synth_instances.instances)
        assert pos_ae is None and position_ae is None

    def test_position_ae_dimension_follows_window(self, synth, table2_record):
        sentences, deps = synth
        cfg = small_config(position_window=6)
        result = preprocess(sentences, deps, cfg)
        _, position_ae = pretrain_autoencoders(cfg, result.instances)
        assert position_ae.dim == 6


@pytest.fixture(scope="module")
def long_instances(long_synth):
    cfg = small_config(position_window=6, ae_epochs=50)
    return cfg, preprocess(*long_synth, cfg).instances


def per_token_vectors(vec, inst):
    """The per-token path: three encode_dense calls and one assemble per token."""
    n, window = len(inst.tokens), vec.position_ae.dim if vec.use_position else 0
    rows = []
    for k, tok in enumerate(inst.tokens):
        pos = p1 = p2 = None
        if vec.use_pos:
            pos = encode_dense(vec.pos_ae, encode_pos_onehot(inst.pos_classes[k]))
        if vec.use_position:
            p1 = encode_dense(vec.position_ae, encode_position(k, window))
            p2 = encode_dense(vec.position_ae, encode_position(n - 1 - k, window))
        rows.append(assemble(vec.word_vector(tok), pos, p1, p2))
    return np.stack(rows)


class TestVectorizer:
    @pytest.mark.parametrize("use_pos", [True, False])
    @pytest.mark.parametrize("use_position", [True, False])
    def test_gather_equals_per_token_path(self, long_instances, use_pos, use_position):
        cfg, instances = long_instances
        cfg = cfg.replace(use_pos=use_pos, use_position=use_position)
        pos_ae, position_ae = pretrain_autoencoders(cfg, instances)
        table = EmbeddingTable.empty(cfg.embedding_dim, oov_seed=2)
        vec = Vectorizer(table, pos_ae, position_ae,
                         overrides={"PROT1": np.full(cfg.embedding_dim, 0.25)})
        for inst in instances:
            got = vec.vectorize(inst)
            assert got.shape == (len(inst.tokens), vec.token_dim)
            assert np.array_equal(got, per_token_vectors(vec, inst))

    def test_replaced_codes_of_another_width_are_rejected(self, long_instances):
        cfg, instances = long_instances
        pos_ae, position_ae = pretrain_autoencoders(cfg, instances)
        vec = Vectorizer(EmbeddingTable.empty(cfg.embedding_dim), pos_ae, position_ae)
        inst = instances[0]
        wider = dataclasses.replace(inst, pos1_codes=np.zeros((len(inst.tokens), 7)))
        assert wider.pos1_codes.shape[1] == 7 and wider.tokens == inst.tokens
        with pytest.raises(DimensionMismatch, match="7 wide"):
            vec.vectorize(wider)

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_pos_class_out_of_range_is_rejected(self, long_instances, bad):
        cfg, instances = long_instances
        pos_ae, position_ae = pretrain_autoencoders(cfg, instances)
        vec = Vectorizer(EmbeddingTable.empty(cfg.embedding_dim), pos_ae, position_ae)
        inst = instances[0]
        classes = (bad,) + inst.pos_classes[1:]
        with pytest.raises(DimensionMismatch, match="PoS classes"):
            vec.vectorize(dataclasses.replace(inst, pos_classes=classes))

    def test_non_finite_word_vector_is_rejected(self, long_instances):
        cfg, instances = long_instances
        pos_ae, position_ae = pretrain_autoencoders(cfg, instances)
        vec = Vectorizer(EmbeddingTable.empty(cfg.embedding_dim), pos_ae, position_ae,
                         overrides={"PROT2": np.full(cfg.embedding_dim, np.nan)})
        with pytest.raises(DimensionMismatch, match="non-finite"):
            vec.vectorize(instances[0])

    @pytest.mark.parametrize("fault", ["PoS classes", "7 wide", "non-finite"])
    def test_a_bad_instance_after_good_ones_is_rejected(self, long_instances, fault):
        cfg, instances = long_instances
        pos_ae, position_ae = pretrain_autoencoders(cfg, instances)
        vec = Vectorizer(EmbeddingTable.empty(cfg.embedding_dim), pos_ae, position_ae)
        good, inst = instances[1:4], instances[0]
        if fault == "PoS classes":
            inst = dataclasses.replace(inst, pos_classes=(POS_DIM,) + inst.pos_classes[1:])
        elif fault == "7 wide":
            inst = dataclasses.replace(inst, pos1_codes=np.zeros((len(inst.tokens), 7)))
        else:
            inst = dataclasses.replace(inst, tokens=inst.tokens[:-1] + ("nan-word",))
            vec.overrides["nan-word"] = np.full(cfg.embedding_dim, np.nan)
        vec.token_rows(good)
        with pytest.raises(DimensionMismatch, match=fault):
            vec.token_rows([*good, inst])

    def test_an_unused_non_finite_word_is_not_read(self, long_instances):
        cfg, instances = long_instances
        pos_ae, position_ae = pretrain_autoencoders(cfg, instances)
        vec = Vectorizer(EmbeddingTable.empty(cfg.embedding_dim), pos_ae, position_ae,
                         overrides={"PROTX": np.full(cfg.embedding_dim, np.nan)})
        inst = next(i for i in instances if "PROTX" not in i.tokens)
        assert "PROTX" in vec.token_rows([inst]).words
        assert np.array_equal(vec.vectorize(inst), reference_vectorize(vec, inst))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_token_rows_equal_the_per_instance_rows(self, data):
        vec = data.draw(st.sampled_from(ROW_VECTORIZERS))
        window = vec.position_ae.dim if vec.use_position else 10
        insts = data.draw(row_batches(window))
        rows = vec.token_rows(insts)
        want = [reference_vectorize(vec, inst) for inst in insts]
        assert rows.lengths.tolist() == [len(i.tokens) for i in insts]
        assert np.array_equal(rows.stacked(), np.concatenate(want))
        assert rows.words == sorted({"PROT1", "PROT2", "PROTX"}.union(*(i.tokens for i in insts)))
        for inst, one in zip(insts, want):
            assert np.array_equal(vec.vectorize(inst), one)


def random_autoencoder(rng, d):
    return Autoencoder(rng.normal(size=(d, d)), rng.normal(size=d),
                       rng.normal(size=(d, d)), rng.normal(size=d))


def row_vectorizers():
    """Vectorizers with each feature on and off, over 6-d words: 'kinase' and
    'Zeta' are stored, 'binds' is stored only lowercased, 'Tuned' and 'PROT1'
    are overridden, and every other word is out of the table."""
    rng = np.random.default_rng(5)
    table = EmbeddingTable(6, {w: rng.normal(size=6) for w in ("kinase", "Zeta", "binds")},
                           oov_seed=4)
    overrides = {w: rng.normal(size=6) for w in ("Tuned", "PROT1")}
    pos_ae, position_ae = random_autoencoder(rng, POS_DIM), random_autoencoder(rng, 7)
    return [Vectorizer(table, p, q, overrides)
            for p in (pos_ae, None) for q in (position_ae, None)]


ROW_VECTORIZERS = row_vectorizers()
ROW_WORDS = ("PROT1", "PROT2", "PROTX", "kinase", "Zeta", "zeta", "binds", "Binds", "BINDS",
             "Tuned", "tuned", "unseen")


@st.composite
def row_batches(draw, window):
    """1-5 instances of 1-14 tokens (past the window) over ROW_WORDS, with any
    PoS classes."""
    codes = pipeline_mod._PositionCodes(window)
    insts = []
    for j in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, 14))
        tokens = draw(st.lists(st.sampled_from(ROW_WORDS), min_size=n, max_size=n))
        classes = draw(st.lists(st.integers(0, POS_DIM - 1), min_size=n, max_size=n))
        insts.append(SdpInstance(f"s{j}:e0-e1", f"s{j}", "e0", "e1", j % 2, tuple(tokens),
                                 ("NN",) * n, tuple(classes), *codes[n]))
    return insts


class TestTrain:
    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            train(small_config(), [])

    def test_zero_epochs_rejected(self, synth_instances):
        with pytest.raises(ConfigError):
            train(small_config(epochs=0), synth_instances.instances)

    def test_embedding_table_of_another_dimension_rejected(self, synth_instances):
        cfg = small_config()
        table = EmbeddingTable.empty(cfg.embedding_dim + 1)
        with pytest.raises(DimensionMismatch, match=r"13-d vectors.*embedding_dim=12"):
            train(cfg, synth_instances.instances, embeddings=table)

    @pytest.mark.usefixtures("no_fit_memo")
    def test_deterministic_checkpoints(self, synth_instances):
        cfg = small_config(seed=21, epochs=8)
        a = train(cfg, synth_instances.instances)
        b = train(cfg, synth_instances.instances)
        assert checkpoint_bytes(a.checkpoint) == checkpoint_bytes(b.checkpoint)
        assert a.epoch_losses == b.epoch_losses

    @pytest.mark.usefixtures("no_fit_memo")
    def test_pre_fit_autoencoders_give_the_same_checkpoint(self, synth_instances):
        cfg = small_config(seed=22, epochs=4, dropout=0.2)
        fitted = pretrain_autoencoders(cfg, synth_instances.instances)
        a = train(cfg, synth_instances.instances)
        b = train(cfg, synth_instances.instances, autoencoders=fitted)
        assert checkpoint_bytes(a.checkpoint) == checkpoint_bytes(b.checkpoint)

    @pytest.mark.parametrize("flags, drop, named", [
        ({}, 0, "use_pos=True, but the PoS autoencoder is missing"),
        ({}, 1, "use_position=True, but the position autoencoder is missing"),
        ({"use_pos": False}, None, "use_pos=False, but the PoS autoencoder is given"),
        ({"use_position": False}, None,
         "use_position=False, but the position autoencoder is given"),
    ])
    def test_pre_fit_autoencoder_missing_or_unwanted(self, synth_instances, flags, drop, named):
        pair = list(pretrain_autoencoders(small_config(ae_epochs=5), synth_instances.instances))
        if drop is not None:
            pair[drop] = None
        with pytest.raises(ConfigError, match=named):
            train(small_config(epochs=1, **flags), synth_instances.instances,
                  autoencoders=tuple(pair))

    @pytest.mark.parametrize("which, d", [(0, 6), (0, 10), (1, 8), (1, 12)])
    def test_pre_fit_autoencoder_of_the_wrong_width(self, synth_instances, which, d):
        cfg = small_config(epochs=1, ae_epochs=5)
        pair = list(pretrain_autoencoders(cfg, synth_instances.instances))
        pair[which] = Autoencoder(np.zeros((d, d)), np.zeros(d), np.zeros((d, d)), np.zeros(d))
        with pytest.raises(DimensionMismatch, match=f"{('PoS', 'position')[which]} autoencoder is {d}-d"):
            train(cfg, synth_instances.instances, autoencoders=tuple(pair))

    def test_losses_recorded_per_epoch(self, synth_instances):
        cfg = small_config(epochs=8)
        tr = train(cfg, synth_instances.instances)
        assert len(tr.epoch_losses) == 8
        assert all(np.isfinite(x) for x in tr.epoch_losses)

    def test_smoothed_loss_non_increasing(self, synth_instances):
        cfg = small_config(epochs=60, seed=11)
        tr = train(cfg, synth_instances.instances)
        smooth = np.convolve(tr.epoch_losses, np.ones(5) / 5, mode="valid")
        assert np.all(np.diff(smooth) <= 1e-12)

    def test_non_finite_loss_raises(self, synth_instances, monkeypatch):
        import sdprel.pipeline as pl

        monkeypatch.setattr(pl, "cross_entropy", lambda *_: float("nan"))
        with pytest.raises(NonFiniteLoss):
            train(small_config(epochs=1), synth_instances.instances)

    def test_non_finite_loss_stops_before_the_optimizer_steps(
        self, synth_instances, monkeypatch
    ):
        import sdprel.pipeline as pl

        real_cross_entropy = pl.cross_entropy
        scored = []
        steps = []

        def nan_first(*args):
            scored.append(args)
            return float("nan") if len(scored) == 1 else real_cross_entropy(*args)

        monkeypatch.setattr(pl, "cross_entropy", nan_first)
        monkeypatch.setattr(pl, "adam_step", lambda *args: steps.append(args))
        with pytest.raises(NonFiniteLoss):
            train(small_config(epochs=1), synth_instances.instances)
        assert steps == []

    def test_non_finite_gradient_stops_before_the_optimizer_steps(
        self, synth_instances, monkeypatch
    ):
        import sdprel.pipeline as pl
        from sdprel.neural import BiLstmModel

        real_backward = BiLstmModel.backward_batch
        steps = []

        def nan_backward(self, cache, labels, **kw):
            grad, d_xs = real_backward(self, cache, labels, **kw)
            self.tensors(grad)["head.w_out"][0, 0] = float("nan")
            return grad, d_xs

        monkeypatch.setattr(BiLstmModel, "backward_batch", nan_backward)
        monkeypatch.setattr(pl, "adam_step", lambda *args: steps.append(args))
        with pytest.raises(NonFiniteGradient, match="head.w_out"):
            train(small_config(epochs=1), synth_instances.instances)
        assert steps == []

    def test_non_finite_word_gradient_is_named_emb(self, synth_instances, monkeypatch):
        import sdprel.pipeline as pl
        from sdprel.neural import BiLstmModel

        real_backward = BiLstmModel.backward_batch
        steps = []

        def nan_backward(self, cache, labels, **kw):
            grad, d_xs = real_backward(self, cache, labels, **kw)
            d_xs[0, 0] = float("inf")
            return grad, d_xs

        monkeypatch.setattr(BiLstmModel, "backward_batch", nan_backward)
        monkeypatch.setattr(pl, "adam_step", lambda *args: steps.append(args))
        with pytest.raises(NonFiniteGradient, match="non-finite gradient in emb$"):
            train(small_config(epochs=1, tune_embeddings=True), synth_instances.instances)
        assert steps == []

    @pytest.mark.parametrize("tune", [False, True])
    def test_input_gradient_only_when_tuning(self, synth_instances, monkeypatch, tune):
        from sdprel.neural import BiLstmModel

        real_backward = BiLstmModel.backward_batch
        formed = []

        def record_backward(self, cache, labels, **kw):
            grad, d_xs = real_backward(self, cache, labels, **kw)
            formed.append(d_xs is not None)
            return grad, d_xs

        monkeypatch.setattr(BiLstmModel, "backward_batch", record_backward)
        train(small_config(epochs=1, tune_embeddings=tune), synth_instances.instances)
        assert formed and set(formed) == {tune}

    def test_word_only_ablation_trains(self, synth_instances):
        cfg = small_config(use_pos=False, use_position=False, epochs=5)
        tr = train(cfg, synth_instances.instances)
        assert tr.checkpoint.config.input_dim == cfg.embedding_dim
        assert tr.checkpoint.build_vectorizer().token_dim == cfg.embedding_dim
        assert tr.checkpoint.pos_ae is None
        assert tr.checkpoint.position_ae is None

    def test_token_dimension_with_all_features(self, synth_instances):
        cfg = small_config(epochs=2)
        tr = train(cfg, synth_instances.instances)
        assert tr.checkpoint.config.input_dim == 12 + 8 + 10 + 10
        assert tr.checkpoint.build_vectorizer().token_dim == 12 + 8 + 10 + 10
        assert tr.checkpoint.build_model().input_dim == 12 + 8 + 10 + 10

    def test_special_token_vectors_persisted(self, synth_instances):
        tr = train(small_config(epochs=2), synth_instances.instances)
        assert set(tr.checkpoint.token_vectors) >= {"PROT1", "PROT2", "PROTX"}

    def test_tuned_embeddings_stored_and_changed(self, synth_instances):
        cfg = small_config(epochs=5, tune_embeddings=True)
        tr = train(cfg, synth_instances.instances)
        vocab = {t for i in synth_instances.instances for t in i.tokens}
        assert vocab <= set(tr.checkpoint.token_vectors)
        from sdprel.embed import oov_vector

        moved = [
            not np.allclose(
                tr.checkpoint.token_vectors[t], oov_vector(t, 12, cfg.seed)
            )
            for t in sorted(vocab)
        ]
        assert any(moved)

    def test_embedding_gradient_sums_every_occurrence(self, synth_instances, monkeypatch):
        import sdprel.pipeline as pl
        from sdprel.neural import BiLstmModel

        # "rep" repeats inside each instance and across instances
        insts = [
            dataclasses.replace(i, tokens=(i.tokens[0], "rep", "rep") + i.tokens[3:])
            for i in synth_instances.instances if len(i.tokens) >= 4
        ]
        built, batches, stepped = [], [], []  # batches: [xs, lengths, d_inputs]
        real_token_rows = Vectorizer.token_rows
        real_forward, real_backward = BiLstmModel.forward_batch, BiLstmModel.backward_batch

        def record_token_rows(self, instances):
            built.append((self, list(instances)))
            return real_token_rows(self, instances)

        def record_forward(self, xs, lengths, masks=None):
            batches.append([xs, lengths])
            return real_forward(self, xs, lengths, masks)

        def record_backward(self, cache, labels, **kw):
            grad, d_xs = real_backward(self, cache, labels, **kw)
            batches[-1].append(d_xs.copy())
            return grad, d_xs

        monkeypatch.setattr(Vectorizer, "token_rows", record_token_rows)
        monkeypatch.setattr(BiLstmModel, "forward_batch", record_forward)
        monkeypatch.setattr(BiLstmModel, "backward_batch", record_backward)
        monkeypatch.setattr(pl, "adam_step",
                            lambda state, params, grads, rows: stepped.append((grads, rows)))
        cfg = small_config(epochs=1, batch=len(insts), tune_embeddings=True)
        train(cfg, insts)

        words = sorted({"PROT1", "PROT2", "PROTX"} | {t for i in insts for t in i.tokens})
        expected = np.zeros((len(words), cfg.embedding_dim))
        [(xs, lengths, d)] = batches
        [(vectorizer, seen)] = built  # train builds every instance's rows once
        vectorized = [(inst, reference_vectorize(vectorizer, inst)) for inst in seen]
        start = 0
        for n in lengths:  # each block of the batch is one instance's vectorized rows
            inst = next(i for i, v in vectorized if np.array_equal(v, xs[start : start + n]))
            for k, tok in enumerate(inst.tokens):
                expected[words.index(tok)] += d[start + k, : cfg.embedding_dim]
            start += n
        expected *= 1.0 / len(insts)
        [(grads, grad_rows)] = stepped
        assert np.array_equal(grad_rows["emb"],
                              sorted({words.index(tok) for i in insts for tok in i.tokens}))
        assert np.array_equal(scattered(grads["emb"], grad_rows["emb"], len(words)), expected)
        assert np.any(expected[words.index("rep")])

    def test_word_gradient_of_every_step_equals_the_dense_sum(self, synth_instances,
                                                              monkeypatch):
        import sdprel.pipeline as pl
        from sdprel.neural import BiLstmModel

        # each instance has words of its own, so consecutive batches share only the
        # placeholders and a row left over from the step before would show
        insts = [dataclasses.replace(inst, tokens=(inst.tokens[0], f"own{k}a", f"own{k}b")
                                     + inst.tokens[3:])
                 for k, inst in enumerate(synth_instances.instances) if len(inst.tokens) >= 4]
        built, spans, batches, stepped = [], [], [], []  # batches: [lengths, d_inputs]
        real_token_rows, real_span_rows = Vectorizer.token_rows, pl._span_rows
        real_forward, real_backward = BiLstmModel.forward_batch, BiLstmModel.backward_batch

        def record_token_rows(self, instances):
            built.append(real_token_rows(self, instances))
            return built[-1]

        def record_span_rows(starts, lengths):
            spans.append(real_span_rows(starts, lengths))
            return spans[-1]

        def record_forward(self, xs, lengths, masks=None):
            batches.append([lengths])
            return real_forward(self, xs, lengths, masks)

        def record_backward(self, cache, labels, **kw):
            grad, d_xs = real_backward(self, cache, labels, **kw)
            batches[-1].append(d_xs.copy())
            return grad, d_xs

        def record_step(state, params, grads, grad_rows):
            stepped.append(({name: g.copy() for name, g in grads.items()}, dict(grad_rows)))
            adam_step(state, params, grads, grad_rows)

        monkeypatch.setattr(Vectorizer, "token_rows", record_token_rows)
        monkeypatch.setattr(pl, "_span_rows", record_span_rows)
        monkeypatch.setattr(BiLstmModel, "forward_batch", record_forward)
        monkeypatch.setattr(BiLstmModel, "backward_batch", record_backward)
        monkeypatch.setattr(pl, "adam_step", record_step)
        cfg = small_config(epochs=2, batch=3, tune_embeddings=True)
        train(cfg, insts)

        [rows] = built
        assert len(stepped) == len(spans) == len(batches) == 2 * -(-len(insts) // cfg.batch)
        previous: set[int] = set()
        for (grads, grad_rows), tokens, (lengths, d) in zip(stepped, spans, batches):
            expected = np.zeros((len(rows.words), cfg.embedding_dim))  # the dense fill
            np.add.at(expected, rows.word_ids[tokens], d[:, : cfg.embedding_dim])
            expected *= 1.0 / len(lengths)
            now = set(rows.word_ids[tokens].tolist())
            # the optimizer gets the rows of the batch's distinct words, never a V x D matrix
            assert np.array_equal(grad_rows["emb"], sorted(now))
            assert grads["emb"].shape == (len(now), cfg.embedding_dim)
            assert len(now) < len(rows.words)
            assert np.array_equal(scattered(grads["emb"], grad_rows["emb"], len(rows.words)),
                                  expected)
            assert previous - now or not previous  # rows of the step before, not of this one
            previous = now

    def test_untouched_tuned_word_moves_by_momentum(self, synth_instances, monkeypatch):
        import sdprel.pipeline as pl

        insts = list(synth_instances.instances[:6])
        insts[2] = dataclasses.replace(insts[2], tokens=("PROT1", "solitary") + insts[2].tokens[2:])
        words = sorted({"PROT1", "PROT2", "PROTX"} | {t for i in insts for t in i.tokens})
        row = words.index("solitary")
        steps = []  # (word in this batch, row before, row after)

        def record_step(state, params, grads, grad_rows):
            before = params["emb"][row].copy()
            adam_step(state, params, grads, grad_rows)
            steps.append((row in grad_rows["emb"], before, params["emb"][row].copy()))

        monkeypatch.setattr(pl, "adam_step", record_step)
        train(small_config(epochs=2, batch=1, tune_embeddings=True), insts)
        first = next(k for k, (present, _, _) in enumerate(steps) if present)
        moved = [not np.array_equal(before, after) for _, before, after in steps]
        assert not any(moved[:first])  # no momentum yet
        assert [present for present, _, _ in steps].count(True) == 2  # once per epoch
        assert all(moved[first:])  # every later step moves it, with or without the word

    def test_adadelta_optimizer_runs(self, synth_instances):
        cfg = small_config(epochs=4, optimizer="adadelta")
        tr = train(cfg, synth_instances.instances)
        assert len(tr.epoch_losses) == 4


@pytest.fixture(scope="module")
def trained(synth_instances):
    cfg = small_config(seed=7, epochs=200, dropout=0.0, batch=8)
    return cfg, train(cfg, synth_instances.instances)


class TestPredictEvaluate:
    def test_zero_model_predicts_half(self, synth_instances):
        cfg = small_config(epochs=1)
        tr = train(cfg, synth_instances.instances)
        tr.checkpoint.theta[...] = 0.0
        label, prob = predict(tr.checkpoint, synth_instances.instances[0])
        assert prob == 0.5
        assert label == 1  # >= 0.5 boundary counts as interacting

    def test_overfit_model_recovers_training_labels(self, trained, synth_instances):
        _, tr = trained
        vec = tr.checkpoint.build_vectorizer()
        model = tr.checkpoint.build_model()
        correct = sum(
            predict(tr.checkpoint, inst, vec, model)[0] == inst.label
            for inst in synth_instances.instances
        )
        assert correct == len(synth_instances.instances)

    def test_evaluate_perfect_metrics(self, trained, synth_instances):
        _, tr = trained
        metrics = evaluate(tr.checkpoint, synth_instances.instances)
        assert metrics.precision == 100.0
        assert metrics.recall == 100.0
        assert metrics.f1 == 100.0

    def test_vectorizer_drift_rejected(self, trained):
        _, tr = trained
        ck = dataclasses.replace(tr.checkpoint, config=tr.checkpoint.config.replace(embedding_dim=5))
        with pytest.raises(DimensionMismatch):
            ck.build_vectorizer()

    def test_excluded_scored_as_non_interacting(self, trained, synth_instances):
        _, tr = trained
        from sdprel.pipeline import ExcludedInstance

        excluded = [
            ExcludedInstance("x1", "s", "a", "b", 1, "disconnected"),
            ExcludedInstance("x2", "s", "a", "c", 0, "disconnected"),
        ]
        base = evaluate(tr.checkpoint, synth_instances.instances)
        with_excluded = evaluate(tr.checkpoint, synth_instances.instances, excluded)
        assert with_excluded.fn == base.fn + 1
        assert with_excluded.tn == base.tn + 1
        ck_quiet = dataclasses.replace(
            tr.checkpoint, config=tr.checkpoint.config.replace(score_excluded=False)
        )
        quiet = evaluate(ck_quiet, synth_instances.instances, excluded)
        assert quiet.total == base.total


class TestFoldMetrics:
    def test_formulas(self):
        m = FoldMetrics(tp=41, fp=4, fn=9, tn=100)
        assert abs(m.precision - 91.1111) < 1e-3
        assert abs(m.recall - 82.0) < 1e-9
        assert abs(m.f1 - 86.3158) < 1e-3

    def test_harmonic_mean_magnitude(self):
        # P=91.10, R=82.20 must give F1 in the mid-86s
        p, r = 91.10, 82.20
        f1 = 2 * p * r / (p + r)
        assert abs(f1 - 86.42) < 0.05

    def test_zero_conventions(self):
        assert FoldMetrics(0, 0, 0, 10).precision == 0.0
        assert FoldMetrics(0, 0, 0, 10).recall == 0.0
        assert FoldMetrics(0, 0, 0, 10).f1 == 0.0
        assert FoldMetrics(0, 0, 5, 5).f1 == 0.0

    def test_all_correct(self):
        m = FoldMetrics(tp=7, fp=0, fn=0, tn=13)
        assert (m.precision, m.recall, m.f1) == (100.0, 100.0, 100.0)

    def test_addition_pools_counts(self):
        a, b = FoldMetrics(1, 2, 3, 4), FoldMetrics(5, 6, 7, 8)
        assert a + b == FoldMetrics(6, 8, 10, 12)


@pytest.fixture(scope="module")
def split_corpus(long_synth):
    """long_synth with one pair excluded.  Only the 16-token chain has adjectives
    and distances past the window, so the fold that tests it has other codes."""
    sentences, deps = long_synth
    return sentences, {k: v for k, v in deps.items() if k != sentences[0].id}


class TestStackedFoldPretraining:
    @pytest.mark.usefixtures("no_fit_memo")
    def test_fold_autoencoders_equal_per_fold_pretraining(self, split_corpus, monkeypatch):
        cfg = small_config(k_folds=4, epochs=1, ae_epochs=60, seed=7)
        result = preprocess(*split_corpus, cfg)
        calls, stacks = [], []
        train_fn, fit_fn = pipeline_mod.train, pipeline_mod.train_autoencoders

        def recording_train(*args, **kwargs):
            tr = train_fn(*args, **kwargs)
            calls.append((args, tr.checkpoint))
            return tr

        def recording_fit(samples, d, epochs, seeds):
            stacks.append((d, sorted(seeds)))
            return fit_fn(samples, d, epochs, seeds)

        monkeypatch.setattr(pipeline_mod, "train", recording_train)
        monkeypatch.setattr(pipeline_mod, "train_autoencoders", recording_fit)
        cross_validate(cfg, result)
        monkeypatch.undo()

        assert len(calls) == 4
        by_codes = {POS_DIM: {}, cfg.position_window: {}}
        for fold, ((fold_cfg, train_insts), ck) in enumerate(calls):
            assert fold_cfg.seed == cfg.seed + fold
            want = pretrain_autoencoders(fold_cfg, train_insts)
            for got, ref in zip((ck.pos_ae, ck.position_ae), want):
                for name in ("encoder_w", "encoder_b", "decoder_w", "decoder_b"):
                    assert np.array_equal(getattr(got, name), getattr(ref, name))
                assert got.training_losses == ref.training_losses
            pos = {c for i in train_insts for c in i.pos_classes}
            codes = {code_string(row) for i in train_insts
                     for row in np.concatenate([i.pos1_codes, i.pos2_codes])}
            by_codes[POS_DIM].setdefault(frozenset(pos), []).append(fold_cfg.seed)
            by_codes[cfg.position_window].setdefault(frozenset(codes), []).append(fold_cfg.seed)
        # one stacked fit per distinct code set; the fold that tests the chain
        # lacks its adjectives and long distances, so each kind has two groups
        for d, groups in by_codes.items():
            assert sorted(seeds for dim, seeds in stacks if dim == d) == sorted(groups.values())
            assert sorted(map(len, groups.values())) == [1, 3]

    @pytest.mark.usefixtures("no_fit_memo")
    @pytest.mark.parametrize("use_pos", [True, False])
    @pytest.mark.parametrize("use_position", [True, False])
    def test_reports_equal_the_per_fold_loop(self, split_corpus, use_pos, use_position):
        cfg = small_config(k_folds=3, epochs=2, ae_epochs=60, seed=43, dropout=0.2,
                           use_pos=use_pos, use_position=use_position)
        result = preprocess(*split_corpus, cfg)
        assert result.excluded
        got, want = cross_validate(cfg, result), reference_cross_validate(cfg, result)
        assert got.to_csv() == want.to_csv()
        assert got.to_json() == want.to_json()

    def test_empty_training_part_is_rejected(self):
        with pytest.raises(EmptyTrainingSet):
            pretrain_autoencoders(small_config(), [])


class TestCrossValidate:
    def test_two_folds_accounting(self, synth_instances):
        cfg = small_config(k_folds=2, epochs=10, seed=17)
        report = cross_validate(cfg, synth_instances)
        assert len(report.per_fold) == 2
        assert report.micro.total == synth_instances.generated
        pooled = report.per_fold[0] + report.per_fold[1]
        assert pooled == report.micro

    def test_deterministic_reports(self, synth_instances):
        cfg = small_config(k_folds=2, epochs=6, seed=23)
        a = cross_validate(cfg, synth_instances)
        b = cross_validate(cfg, synth_instances)
        assert a.to_csv() == b.to_csv()
        assert a.to_json() == b.to_json()

    def test_excluded_instances_scored_once(self, synth, table2_record):
        sentences, deps = synth
        cfg = small_config(k_folds=2, epochs=6, seed=5)
        # drop the dependency data of one sentence: its pair becomes excluded
        pruned = {k: v for k, v in deps.items() if k != sentences[0].id}
        result = preprocess(sentences, pruned, cfg)
        assert len(result.excluded) == 1
        report = cross_validate(cfg, result)
        assert report.micro.total == result.generated

    def test_csv_shape(self, synth_instances):
        cfg = small_config(k_folds=2, epochs=4, seed=2)
        csv = cross_validate(cfg, synth_instances).to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "fold,tp,fp,fn,tn,precision,recall,f1"
        assert len(lines) == 1 + 2 + 2  # header, folds, micro, macro
        assert lines[-2].startswith("micro,")
        assert lines[-1].startswith("macro,")


class TestBaselines:
    def test_baseline_mlp(self, synth_instances):
        tr = baseline_mlp(small_config(epochs=5), synth_instances.instances)
        assert tr.checkpoint.config.model == "mlp"
        model = tr.checkpoint.build_model()
        token_dim = tr.checkpoint.config.input_dim
        assert model.head.hidden[0][0].shape[1] == 20 * token_dim

    def test_baseline_rnn(self, synth_instances):
        tr = baseline_rnn(small_config(epochs=5), synth_instances.instances)
        assert tr.checkpoint.config.model == "rnn"
        assert len(tr.epoch_losses) == 5

    def test_baseline_mlp_learns_synthetic(self, synth_instances):
        cfg = small_config(model="mlp", epochs=300, seed=31, dropout=0.1)
        tr = train(cfg, synth_instances.instances)
        vec = tr.checkpoint.build_vectorizer()
        model = tr.checkpoint.build_model()
        correct = sum(
            predict(tr.checkpoint, inst, vec, model)[0] == inst.label
            for inst in synth_instances.instances
        )
        assert correct >= 0.9 * len(synth_instances.instances)
