"""Every text reader ends malformed input in an InputError that the CLI turns
into exit code 2: random bytes, text that is not UTF-8, damaged gzip files,
one-character edits of valid lines, and a table of each loader's faults, one
row per message."""

import gzip
import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sdprel.cli import _read_instances, main
from sdprel.corpus import RESERVED_TOKENS, Entity, SentenceRecord, load_corpus
from sdprel.depgraph import load_dependencies
from sdprel.embed import load_embeddings
from sdprel.errors import (
    ConfigError,
    DimensionMismatch,
    DuplicateSentenceId,
    FormatError,
    InputError,
    ParseError,
)
from sdprel.features import load_pos_table
from sdprel.pipeline import TrainConfig, instances_to_json, preprocess

from helpers import (
    assert_exit_2_names,
    framed,
    one_byte_edit,
    reference_load_embeddings,
    split_blob,
    synthetic_corpus,
    write_lines,
)

NOT_UTF8 = b"\xff\xfe not UTF-8 \x80\n"

LOADERS = {
    "corpus": load_corpus,
    "dependencies": load_dependencies,
    "embeddings": load_embeddings,
    "pos_table": load_pos_table,
    "config": TrainConfig.from_file,
}

# Inputs that reach past the decoder: text over the characters the formats use.
FORMAT_TEXT = st.text(alphabet="ab PROT1|NN\t:;-0123456789e.x=#\n\r", max_size=300)
RANDOM_INPUT = st.one_of(
    st.binary(max_size=300),
    st.text(max_size=200).map(lambda t: t.encode("utf-8")),
    FORMAT_TEXT.map(lambda t: t.encode("utf-8")),
)


@pytest.fixture(scope="module")
def fuzz_dir():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp)


class TestRandomInput:
    @pytest.mark.parametrize("name", sorted(LOADERS))
    @given(data=RANDOM_INPUT)
    @settings(max_examples=150, deadline=None)
    def test_only_input_errors_escape(self, fuzz_dir, name, data):
        path = fuzz_dir / f"{name}.txt"
        path.write_bytes(data)
        try:
            LOADERS[name](path)
        except InputError:
            pass

    @given(data=RANDOM_INPUT, compress=st.booleans(), cut=st.integers(0, 400))
    @settings(max_examples=100, deadline=None)
    def test_gzip_embeddings_raise_only_input_errors(self, fuzz_dir, data, compress, cut):
        path = fuzz_dir / "vectors.txt.gz"
        path.write_bytes(gzip.compress(data)[:cut] if compress else data)
        try:
            load_embeddings(path)
        except InputError:
            pass

    @pytest.mark.parametrize("name", sorted(LOADERS))
    def test_non_utf8_names_the_path(self, tmp_path, name):
        path = tmp_path / f"{name}.txt"
        path.write_bytes(NOT_UTF8)
        with pytest.raises(FormatError, match=f"{name}.txt: not UTF-8"):
            LOADERS[name](path)

    def test_truncated_gzip_names_the_path(self, tmp_path):
        path = tmp_path / "vectors.txt.gz"
        path.write_bytes(gzip.compress(b"2 3\na 1 2 3\nb 4 5 6\n" * 50)[:-30])
        with pytest.raises(FormatError, match="vectors.txt.gz: damaged gzip"):
            load_embeddings(path)


TOKEN = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp"),
                           blacklist_characters="|;:"),
    min_size=1, max_size=6,
).filter(lambda t: t not in RESERVED_TOKENS)
IDENT = st.text(alphabet="abcXYZ019_.", min_size=1, max_size=5)


@st.composite
def sentence_records(draw, sentence_id):
    n = draw(st.integers(1, 10))
    tokens = draw(st.lists(TOKEN, min_size=n, max_size=n))
    tags = draw(st.lists(TOKEN, min_size=n, max_size=n))
    entities, start = [], 0
    while start < n:
        if draw(st.booleans()):
            end = draw(st.integers(start, min(n - 1, start + 2)))
            entities.append(Entity(f"e{len(entities)}", start, end))
            start = end + 1
        else:
            start += 1
    ids = [e.entity_id for e in entities]
    pairs = [(a, b) for k, a in enumerate(ids) for b in ids[k + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return SentenceRecord(sentence_id, tuple(tokens), tuple(tags), tuple(entities),
                          frozenset(frozenset(p) for p in chosen))


def corpus_line(rec: SentenceRecord) -> str:
    return "\t".join([
        rec.id,
        " ".join(f"{t}|{p}" for t, p in zip(rec.tokens, rec.pos_tags)),
        ";".join(f"{e.entity_id}:{e.token_start}:{e.token_end}" for e in rec.entities),
        ";".join("-".join(sorted(pair)) for pair in rec.interactions),
    ])


class TestCorpusRoundTrip:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_written_records_read_back_equal(self, fuzz_dir, data):
        ids = data.draw(st.lists(IDENT, min_size=1, max_size=5, unique=True))
        records = [data.draw(sentence_records(sid)) for sid in ids]
        path = fuzz_dir / "roundtrip.tsv"
        path.write_text("\n".join(corpus_line(r) for r in records) + "\n", encoding="utf-8")
        assert load_corpus(path) == records


class TestCliExitCodes:
    @pytest.fixture
    def workdir(self, tmp_path):
        corpus_lines, dep_lines, _ = synthetic_corpus(8, seed=5)
        write_lines(tmp_path / "corpus.tsv", corpus_lines)
        write_lines(tmp_path / "deps.tsv", dep_lines)
        (tmp_path / "config").write_text("epochs=1\nae_epochs=5\nembedding_dim=4\nk_folds=2\n",
                                         encoding="utf-8")
        (tmp_path / "bad").write_bytes(NOT_UTF8)
        return tmp_path

    def run_bad(self, capsys, *argv):
        rc = main([str(a) for a in argv])
        err = capsys.readouterr().err
        assert rc == 2
        return err

    @pytest.mark.parametrize("flag", ["--corpus", "--deps", "--pos-table"])
    def test_preprocess(self, workdir, capsys, flag):
        paths = {"--corpus": workdir / "corpus.tsv", "--deps": workdir / "deps.tsv",
                 "--out": workdir / "inst.json"}
        paths[flag] = workdir / "bad"
        argv = [a for key, value in paths.items() for a in (key, value)]
        assert "bad: not UTF-8" in self.run_bad(capsys, "preprocess", *argv)

    def test_cv_config(self, workdir, capsys):
        err = self.run_bad(capsys, "cv", "--corpus", workdir / "corpus.tsv", "--deps",
                           workdir / "deps.tsv", "--config", workdir / "bad",
                           "--report", workdir / "cv.csv")
        assert "bad: not UTF-8" in err

    def test_train_instances(self, workdir, capsys):
        err = self.run_bad(capsys, "train", "--instances", workdir / "bad", "--config",
                           workdir / "config", "--out", workdir / "m.sdpl")
        assert "bad: not UTF-8" in err

    @pytest.mark.parametrize("name, data", [
        ("vectors.txt", NOT_UTF8),
        ("vectors.txt.gz", gzip.compress(NOT_UTF8, mtime=0)),
        ("vectors.txt.gz", gzip.compress(b"2 4\na 1 2 3 4\n" * 40, mtime=0)[:-20]),
        ("vectors.txt.gz", b"not gzip at all"),
    ], ids=["plain", "gzip-not-utf8", "gzip-truncated", "not-gzip"])
    def test_cv_embeddings(self, workdir, capsys, name, data):
        (workdir / name).write_bytes(data)
        config = workdir / "config"
        config.write_text(config.read_text() + f"embedding_path={workdir / name}\n")
        err = self.run_bad(capsys, "cv", "--corpus", workdir / "corpus.tsv", "--deps",
                           workdir / "deps.tsv", "--config", config,
                           "--report", workdir / "cv.csv")
        assert name in err


# a model small enough that a checkpoint is mostly metadata
SMALL_MODEL = "embedding_dim=4\nlstm_units=3\nmlp_hidden=3\n"
VECTORS_4D = "5 4\n" + "".join(f"{word} {k} -0.{k}5 {k}e-3 1.{k}\n"
                               for k, word in enumerate(("was", "with", "and", "of", "to")))


def damaged(data: bytes):
    """`data` with one byte inserted, deleted or replaced, or cut short."""
    return st.one_of(one_byte_edit(data), st.integers(0, len(data)).map(lambda n: data[:n]))


def in_process(*argv) -> tuple[int, str, str]:
    """``sdprel`` in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main([str(arg) for arg in argv])
    return rc, out.getvalue(), err.getvalue()


def train(train_dir, instances, config) -> tuple[int, str, str]:
    return in_process("train", "--instances", instances, "--config", config,
                      "--out", train_dir / "model.sdpl")


@pytest.fixture(scope="module")
def train_dir():
    """An instances file of a small corpus, a config without word vectors, one
    for each of a plain and a gzip vectors file, and a small checkpoint."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus_lines, dep_lines, _ = synthetic_corpus(8, seed=5)
        write_lines(tmp / "corpus.tsv", corpus_lines)
        write_lines(tmp / "deps.tsv", dep_lines)
        (tmp / "random.config").write_text("epochs=1\nae_epochs=5\nembedding_dim=4\n",
                                           encoding="utf-8")
        for name in ("vectors.txt", "vectors.txt.gz"):
            (tmp / f"config-{name}").write_text(
                f"epochs=1\nae_epochs=5\nembedding_dim=4\nembedding_path={tmp / name}\n",
                encoding="utf-8")
        with redirect_stdout(io.StringIO()):
            assert main(["preprocess", "--corpus", str(tmp / "corpus.tsv"),
                         "--deps", str(tmp / "deps.tsv"), "--out", str(tmp / "inst.json")]) == 0
        (tmp / "small.config").write_text(SMALL_MODEL + "epochs=1\nae_epochs=5\n",
                                          encoding="utf-8")
        assert train(tmp, tmp / "inst.json", tmp / "small.config")[0] == 0
        (tmp / "model.sdpl").rename(tmp / "intact.sdpl")
        yield tmp


class TestVectorsFileThroughTrain:
    """``sdprel train``, in process, on a plain or gzip vectors file with one
    byte inserted, deleted or replaced, or cut short: it exits 0, 2 or 3,
    raises nothing, exits 2 when the file is malformed, and on exit 2 prints
    nothing to stdout and names the file on stderr, once."""

    @given(compress=st.booleans(), data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_exit_code_and_messages(self, train_dir, compress, data):
        name = "vectors.txt.gz" if compress else "vectors.txt"
        text = VECTORS_4D.encode()
        intact = gzip.compress(text, mtime=0) if compress else text
        path = train_dir / name
        path.write_bytes(data.draw(damaged(intact)))
        rc, out, err = train(train_dir, train_dir / "inst.json", train_dir / f"config-{name}")
        assert rc in (0, 2, 3)
        assert_exit_2_names(path, rc, out, err)
        try:
            reference_load_embeddings(path)
        except (FormatError, DimensionMismatch):
            assert rc == 2


class TestInstancesFileThroughTrain:
    """``sdprel train``, in process, on an instances file with one byte
    inserted, deleted or replaced, or cut short: it exits 0, 2 or 3, raises
    nothing, and on exit 2 prints nothing to stdout and names the file on
    stderr, once."""

    @given(data=st.data())
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_exit_code_and_messages(self, train_dir, data):
        path = train_dir / "damaged.json"
        path.write_bytes(data.draw(damaged((train_dir / "inst.json").read_bytes())))
        rc, out, err = train(train_dir, path, train_dir / "random.config")
        assert rc in (0, 2, 3)
        assert_exit_2_names(path, rc, out, err)


class TestEdgesFileThroughPreprocess:
    """``sdprel preprocess``, in process, on a dependency edges file with one
    byte inserted, deleted or replaced, or cut short: it exits 0 or 2, raises
    nothing, exits 2 when the file is malformed, and on exit 2 prints nothing
    to stdout and names the file on stderr, once.  An edge that does not fit
    its sentence is found only by preprocess, and it names the file too."""

    @given(data=st.data())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_exit_code_and_messages(self, train_dir, data):
        path = train_dir / "damaged.tsv"
        path.write_bytes(data.draw(damaged((train_dir / "deps.tsv").read_bytes())))
        rc, out, err = in_process("preprocess", "--corpus", train_dir / "corpus.tsv",
                                  "--deps", path, "--out", train_dir / "edges.json")
        assert rc in (0, 2)
        assert_exit_2_names(path, rc, out, err)
        try:
            load_dependencies(path)
        except InputError:
            assert rc == 2


class TestCorpusFileThroughPreprocess:
    """``sdprel preprocess``, in process, on a corpus file with one byte
    inserted, deleted or replaced, or cut short: it exits 0 or 2, raises
    nothing, and on exit 2 prints nothing to stdout and names on stderr,
    once, the file the error is about: the corpus when load_corpus rejects
    it, which exits 2, and else the edges file, which no longer fits it."""

    @given(data=st.data())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_exit_code_and_messages(self, train_dir, data):
        path, deps = train_dir / "damaged_corpus.tsv", train_dir / "deps.tsv"
        path.write_bytes(data.draw(damaged((train_dir / "corpus.tsv").read_bytes())))
        rc, out, err = in_process("preprocess", "--corpus", path, "--deps", deps,
                                  "--out", train_dir / "corpus.json")
        assert rc in (0, 2)
        try:
            load_corpus(path)
        except InputError:
            assert rc == 2
            assert_exit_2_names(path, rc, out, err)
        else:
            assert_exit_2_names(deps, rc, out, err)


class TestConfigFileThroughTrain:
    """``sdprel train``, in process, on a config file (without word vectors)
    with one byte inserted, deleted or replaced, or cut short: it exits 0, 2
    or 3, raises nothing, and on exit 2 prints nothing to stdout and names the
    config file on stderr, once; a value that breaks a rule of the config
    names it as a line error does."""

    TEXT = SMALL_MODEL + "epochs=1\nae_epochs=5\nposition_window=10\nuse_pos=true\n"

    @given(data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_exit_code_and_messages(self, train_dir, data):
        path = train_dir / "damaged.config"
        path.write_bytes(data.draw(damaged(self.TEXT.encode())))
        rc, out, err = train(train_dir, train_dir / "inst.json", path)
        assert rc in (0, 2, 3)
        assert_exit_2_names(path, rc, out, err)


def reframed(blob: bytes):
    """The checkpoint file with one byte of its metadata JSON inserted,
    deleted or replaced, or cut short, and its length and checksum fixed up."""
    meta, payload = split_blob(blob)
    text = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return damaged(text).map(lambda meta_bytes: framed(meta_bytes, payload))


class TestCheckpointThroughScoring:
    """``sdprel predict`` and ``evaluate``, in process, on a checkpoint with
    one byte inserted, deleted or replaced, or cut short, either in the raw
    file or in its metadata JSON with the file framed again: it exits 0, 2
    or 3, raises nothing, and on exit 2 prints nothing to stdout and names the
    checkpoint on stderr, once, also for a check made after it loads."""

    @given(command=st.sampled_from(["predict", "evaluate"]), meta=st.booleans(),
           data=st.data())
    @settings(max_examples=600, deadline=None, derandomize=True)
    def test_exit_code_and_messages(self, train_dir, command, meta, data):
        intact = (train_dir / "intact.sdpl").read_bytes()
        path = train_dir / "damaged.sdpl"
        path.write_bytes(data.draw(reframed(intact) if meta else damaged(intact)))
        rc, out, err = in_process(command, "--ck", path, "--instances", train_dir / "inst.json")
        assert rc in (0, 2, 3)
        assert_exit_2_names(path, rc, out, err)


# ---------------------------------------------------------------------------
# Each loader's faults, one row per message.  The faulty line follows a valid
# one, so a ParseError names line 2.

VALID_CORPUS_LINE = "s0\tA|NN binds|VBZ B|NN\te1:0:0;e2:2:2\te1-e2"
CORPUS_FAULTS = [
    ("s1\ta|NN\te1:0:0\t\tx", "expected 3 or 4 tab-separated fields, got 5"),
    ("s1", "expected 3 or 4 tab-separated fields, got 1"),
    ("\ta|NN b|NN\te1:0:0", "empty sentence id"),
    ("s1\ta|NN  b|NN\t", "empty token/pos chunk"),
    ("s1\tab\t", "token chunk 'ab' is not token|pos"),
    ("s1\ta|b|NN\t", "token chunk 'a|b|NN' is not token|pos"),
    ("s1\t|NN\t", "token chunk '|NN' has empty token or pos"),
    ("s1\ta|\t", "token chunk 'a|' has empty token or pos"),
    ("s1\ta:b|NN\t", "forbidden character ':' in 'a:b|NN'"),
    ("s1\ta|N;N\t", "forbidden character ';' in 'a|N;N'"),
    ("s1\ta|NN b|NN\te1:0", "entity chunk 'e1:0' is not id:start:end"),
    ("s1\ta|NN b|NN\te1:0:0:1", "entity chunk 'e1:0:0:1' is not id:start:end"),
    ("s1\ta|NN b|NN\t:0:0", "bad entity id ''"),
    ("s1\ta|NN b|NN\te-1:0:0", "bad entity id 'e-1'"),
    ("s1\ta|NN b|NN\te1:x:0", "non-integer span in 'e1:x:0'"),
    ("s1\ta|NN b|NN\te1:1:0", "entity 'e1' span start exceeds end"),
    ("s1\ta|NN b|NN\te1:0:0;e2:1:1\te1e2", "interaction chunk 'e1e2' is not idA-idB"),
    ("s1\ta|NN b|NN\te1:0:0;e2:1:1\te1-", "interaction chunk 'e1-' is not idA-idB"),
    ("s1\ta|NN b|NN\te1:0:0;e2:1:1\te1-e2-e1", "interaction chunk 'e1-e2-e1' is not idA-idB"),
    ("s1\ta|NN b|NN\te1:0:0;e2:1:1\te1-e1", "interaction 'e1-e1' joins an entity to itself"),
    ("s1\ta|NN b|NN\te1:0:0;e1:1:1", "duplicate entity id 'e1'"),
    ("s1\ta|NN b|NN\te1:0:2", "entity 'e1' span 0:2 outside 0:1"),
    ("s1\ta|NN b|NN\te1:0:1;e2:1:1", "entity 'e2' overlaps entity 'e1'"),
    ("s1\ta|NN b|NN\te1:0:0\te1-e3", "interaction references undeclared entity 'e3'"),
    ("s1\tPROT1|NN b|NN\t", "token 'PROT1' collides with a reserved placeholder"),
]

VALID_EDGE_LINE = "s0\t0\t1\targ"
EDGE_FAULTS = [
    ("s1\t0\t1", "expected 4 tab-separated fields, got 3"),
    ("s1\t0\t1\targ\tx", "expected 4 tab-separated fields, got 5"),
    ("\t0\t1\targ", "empty sentence id"),
    ("s1\tx\t1\targ", "non-integer token index in 's1\\tx\\t1\\targ'"),
    ("s1\t0\t1.5\targ", "non-integer token index in"),
]

VECTORS_FAULTS = [
    ("3\na 1 2 3\n", FormatError, ": header must be '<vocab_size> <dimension>'"),
    ("1 2 3\na 1 2\n", FormatError, ": header must be '<vocab_size> <dimension>'"),
    ("one 2\na 1 2\n", FormatError, ": non-integer header ['one', '2']"),
    ("1 0\na\n", FormatError, ": dimension must be positive, got 0"),
    ("1 -2\na 1 2\n", FormatError, ": dimension must be positive, got -2"),
    ("2 3\na 1 2 3\nb 1 2\n", DimensionMismatch, ":3: 2 values for declared dimension 3"),
    ("1 2\na 1 x\n", FormatError, ":2: non-numeric vector value"),
]


class TestFaultTables:
    @pytest.mark.parametrize("line, message", CORPUS_FAULTS)
    def test_corpus(self, tmp_path, line, message):
        path = write_lines(tmp_path / "corpus.tsv", [VALID_CORPUS_LINE, line])
        with pytest.raises(ParseError, match=re.escape(f"{path}:2: {message}")):
            load_corpus(path)

    @pytest.mark.parametrize("line, message", EDGE_FAULTS)
    def test_dependencies(self, tmp_path, line, message):
        path = write_lines(tmp_path / "deps.tsv", [VALID_EDGE_LINE, line])
        with pytest.raises(ParseError, match=re.escape(f"{path}:2: {message}")):
            load_dependencies(path)

    @pytest.mark.parametrize("text, error, message", VECTORS_FAULTS)
    def test_vectors(self, tmp_path, text, error, message):
        path = tmp_path / "vectors.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(error, match=re.escape(f"{path}{message}")):
            load_embeddings(path)

    def test_the_valid_lines_load(self, tmp_path):
        assert len(load_corpus(write_lines(tmp_path / "c.tsv", [VALID_CORPUS_LINE]))) == 1
        assert load_dependencies(write_lines(tmp_path / "d.tsv", [VALID_EDGE_LINE])) == {
            "s0": [(0, 1)]}


class TestLineErrorsNameTheFile:
    """A line error names its file before the line, so that the user can tell
    which of a command's line-oriented inputs is bad."""

    @pytest.mark.parametrize("name, load, lines, error, reason", [
        ("corpus.tsv", load_corpus, [VALID_CORPUS_LINE, "s1"], ParseError,
         "expected 3 or 4 tab-separated fields, got 1"),
        ("corpus.tsv", load_corpus, [VALID_CORPUS_LINE, VALID_CORPUS_LINE], DuplicateSentenceId,
         "sentence id 's0' already defined"),
        ("deps.tsv", load_dependencies, [VALID_EDGE_LINE, "s1\t0\t1"], ParseError,
         "expected 4 tab-separated fields, got 3"),
        ("pos.tsv", load_pos_table, ["NN\t3", "NN 3"], ParseError,
         "expected tag<TAB>class, got 'NN 3'"),
        ("config.txt", TrainConfig.from_file, ["epochs=3", "epochs"], ConfigError,
         "expected key=value, got 'epochs'"),
        ("vectors.txt", load_embeddings, ["1 2", "a 1"], DimensionMismatch,
         "1 values for declared dimension 2"),
    ], ids=["corpus", "duplicate-sentence", "dependencies", "pos_table", "config", "vectors"])
    def test_message(self, tmp_path, name, load, lines, error, reason):
        path = write_lines(tmp_path / name, lines)
        with pytest.raises(error) as info:
            load(path)
        assert str(info.value) == f"{path}:2: {reason}"
        assert (info.value.path, info.value.line_no, info.value.reason) == (path, 2, reason)


BOM = "\ufeff"
VECTORS_TEXT = "2 3\na 1 2 3\nb 4 5 6\n"
MODEL_CONFIG = TrainConfig(epochs=1, ae_epochs=5, embedding_dim=4)
BINDS = SentenceRecord("s0", ("A", "binds", "B"), ("NN", "VBZ", "NN"),
                       (Entity("e1", 0, 0), Entity("e2", 2, 2)),
                       frozenset({frozenset({"e1", "e2"})}))


def vectors_view(table):
    vectors = {word: vector.tolist() for word, vector in table.vocabulary.items()}
    return table.dimension, table.duplicate_count, vectors


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark is no part of the first line: each
    loader reads a file that starts with one as it reads the same file without."""

    # name: (file name, text, loader, a view of what it loads that == compares)
    CASES = {
        "corpus": ("corpus.tsv", "\n".join(synthetic_corpus(4, seed=5)[0]) + "\n",
                   load_corpus, list),
        "dependencies": ("deps.tsv", "\n".join(synthetic_corpus(4, seed=5)[1]) + "\n",
                         load_dependencies, dict),
        "pos_table": ("pos.tsv", "NN\t3\nVBZ\t1\n", load_pos_table, dict),
        "config": ("config.txt", "epochs=3\nseed=5\n", TrainConfig.from_file,
                   TrainConfig.to_dict),
        "vectors": ("vectors.txt", VECTORS_TEXT, load_embeddings, vectors_view),
        "vectors-gzip": ("vectors.txt.gz", VECTORS_TEXT, load_embeddings, vectors_view),
        "instances": ("inst.json",
                      instances_to_json(preprocess([BINDS], {"s0": [(1, 0), (1, 2)]},
                                                   MODEL_CONFIG), MODEL_CONFIG),
                      lambda path: _read_instances(path, MODEL_CONFIG, "config"),
                      lambda result: instances_to_json(result, MODEL_CONFIG)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_loads_as_without_it(self, tmp_path, case):
        name, text, load, view = self.CASES[case]
        loaded = []
        for prefix in ("", BOM):
            path = tmp_path / ("bom" if prefix else "plain") / name
            path.parent.mkdir()
            data = (prefix + text).encode("utf-8")
            path.write_bytes(gzip.compress(data, mtime=0) if name.endswith(".gz") else data)
            loaded.append(view(load(path)))
        assert loaded[0] == loaded[1]


# ---------------------------------------------------------------------------
# One-character edits of valid lines: an insertion, a deletion or a replacement


EDIT_CHARS = st.one_of(
    st.sampled_from("|\t;:- 0123456789eNPROT\n\r"),
    st.characters(blacklist_categories=("Cs",)),
)


@st.composite
def edited(draw, lines):
    line = draw(st.sampled_from(lines))
    at = draw(st.integers(0, len(line)))
    kind = draw(st.sampled_from(["insert", "delete", "replace"]))
    if kind == "insert":
        return line[:at] + draw(EDIT_CHARS) + line[at:]
    cut = min(at, len(line) - 1)
    return line[:cut] + (draw(EDIT_CHARS) if kind == "replace" else "") + line[cut + 1:]


CORPUS_LINES = [VALID_CORPUS_LINE, *synthetic_corpus(3, seed=2)[0],
                "s9\tX|NN and|CC Y|NN bind|VB Z|NN .|.\tx:0:0;y:2:2;z:4:4\tx-y;y-z"]
EDGE_LINES = [VALID_EDGE_LINE, *synthetic_corpus(2, seed=2)[1], "s9\t12\t3\tnmod:poss"]


class TestOneCharacterEdits:
    @given(line=edited(CORPUS_LINES))
    @settings(max_examples=300, deadline=None)
    def test_corpus_line(self, fuzz_dir, line):
        path = fuzz_dir / "edited_corpus.tsv"
        path.write_text(line + "\n", encoding="utf-8")
        try:
            load_corpus(path)
        except InputError:
            pass

    @given(line=edited(EDGE_LINES))
    @settings(max_examples=300, deadline=None)
    def test_edge_line(self, fuzz_dir, line):
        path = fuzz_dir / "edited_deps.tsv"
        path.write_text(line + "\n", encoding="utf-8")
        try:
            load_dependencies(path)
        except InputError:
            pass
