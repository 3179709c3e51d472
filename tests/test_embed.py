import gzip
import hashlib
import os
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sdprel import embed
from sdprel.embed import (
    CHUNK_LINES,
    OOV_SCALE,
    EmbeddingTable,
    assemble,
    load_embeddings,
    lookup,
    oov_vector,
)
from sdprel.errors import DimensionMismatch, FormatError, InputError

from helpers import reference_load_embeddings


def write_vectors(path, header, rows):
    lines = [header] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadEmbeddings:
    def test_basic_file(self, tmp_path):
        path = write_vectors(
            tmp_path / "emb.txt",
            "3 4",
            ["alpha 1 2 3 4", "beta 0.5 0.5 0.5 0.5", "gamma -1 -2 -3 -4"],
        )
        table = load_embeddings(path)
        assert table.dimension == 4
        assert len(table.vocabulary) == 3
        assert np.array_equal(table.vocabulary["alpha"], [1.0, 2.0, 3.0, 4.0])

    def test_row_dimension_mismatch(self, tmp_path):
        path = write_vectors(tmp_path / "emb.txt", "1 4", ["alpha 1 2 3"])
        with pytest.raises(DimensionMismatch):
            load_embeddings(path)

    def test_duplicate_keeps_first(self, tmp_path):
        path = write_vectors(
            tmp_path / "emb.txt", "2 2", ["w 1 1", "w 9 9"]
        )
        table = load_embeddings(path)
        assert np.array_equal(table.vocabulary["w"], [1.0, 1.0])
        assert table.duplicate_count == 1

    def test_bad_header(self, tmp_path):
        path = write_vectors(tmp_path / "emb.txt", "not a header", [])
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_non_numeric_value(self, tmp_path):
        path = write_vectors(tmp_path / "emb.txt", "1 2", ["w 1 x"])
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_gzip_variant(self, tmp_path):
        path = tmp_path / "emb.txt.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("1 3\nword 1 2 3\n")
        table = load_embeddings(path)
        assert np.array_equal(table.vocabulary["word"], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("row, error, reason", [
        ("w 1 x", FormatError, "non-numeric vector value"),
        ("w 1 2 3", DimensionMismatch, "3 values for declared dimension 2"),
    ])
    def test_error_on_the_first_line_of_the_second_chunk(self, tmp_path, row, error, reason):
        rows = [f"v{i} {i} -{i}" for i in range(CHUNK_LINES)] + [row, "z 0 0"]
        path = write_vectors(tmp_path / "emb.txt", f"{len(rows)} 2", rows)
        # the header is line 1, so the first chunk holds lines 2 .. CHUNK_LINES + 1
        with pytest.raises(error, match=f"emb.txt:{CHUNK_LINES + 2}: {reason}"):
            load_embeddings(path)

    def test_header_only_file_is_an_empty_table(self, tmp_path):
        path = write_vectors(tmp_path / "emb.txt", "0 5", [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = load_embeddings(path)
        assert table.dimension == 5
        assert table.vocabulary == {}
        assert table.duplicate_count == 0

    def test_vectors_are_read_only(self, tmp_path):
        path = write_vectors(tmp_path / "emb.txt", "2 2", ["a 1 2", "b 3 4"])
        vec = load_embeddings(path).vocabulary["b"]
        assert not vec.flags.writeable
        with pytest.raises(ValueError):
            vec[0] = 0.0

    def test_text_is_not_held_beyond_a_chunk(self, tmp_path):
        rng = np.random.default_rng(0)
        n, dim = 2000, 200
        rows = [f"w{i} " + " ".join(map(repr, rng.normal(size=dim).tolist())) for i in range(n)]
        path = write_vectors(tmp_path / "emb.txt", f"{n} {dim}", rows)
        vector_bytes = n * dim * 8
        tracemalloc.start()
        try:
            table = load_embeddings(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table.vocabulary) == n
        # the file's text is about 2.5x the vector bytes: reading it whole cannot pass
        assert path.stat().st_size > 2 * vector_bytes
        assert peak < 1.3 * vector_bytes + (1 << 18)


# Words: ASCII, non-ASCII, empty, and with tabs or form feeds; never a space
# or a line break.
WORD = st.one_of(
    st.sampled_from(["", "w", "W", "é", "a\tb", "x\x0cy", "٣"]),
    st.text(alphabet="abPROT1-\t\x0b\x0cé", max_size=4),
)
# Values every reader must parse to the same float64 as Python's float.
GOOD_VALUE = st.one_of(
    st.floats().map(repr),
    st.sampled_from([
        "0", "-0.0", "+1", ".5", "5.", "1e5", "-2.5E-3", "1e-400", "1e999", "-1e999",
        "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1_0", "1_000.5", "١٢", "٣.٥",
        "\t1", "2\t", "\x0c3", "4\x0b", "\xa05", "6\u2003",
    ]),
)
# Values that are not numbers: empty (a double space), text, bad syntax, and
# separators that numpy's C reader would take as whitespace.
BAD_VALUE = st.sampled_from(["", "x", "1e", "0x1", "1,5", "--1", "1\x1c", "\x1f2", "1\x002"])


@st.composite
def vector_files(draw):
    """(text, gzip?) of a word2vec file spanning up to four chunks, with blank
    and space-only lines, trailing spaces, duplicate words and, sometimes, a
    bad value, a wrong value count or a leading byte-order mark."""
    dim = draw(st.integers(1, 3))
    pool = draw(st.lists(WORD, min_size=1, max_size=6))
    n = draw(st.integers(0, 3 * CHUNK_LINES + 8))
    rows = []  # [word, values, trailing text], or a blank line as a string
    for i in range(n):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            rows.append(draw(st.sampled_from(["", " "])))
            continue
        # unique words mostly, words from a small pool for duplicates
        word = draw(st.sampled_from(pool)) if kind <= 2 else f"w{i}"
        values = draw(st.lists(GOOD_VALUE, min_size=dim, max_size=dim))
        rows.append([word, values, draw(st.sampled_from(["", "", " "]))])
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, max(n - 1, 0)))
        if n == 0 or isinstance(rows[at], str):
            continue
        values = rows[at][1]
        fault = draw(st.sampled_from(["value", "value", "more", "fewer"]))
        if fault == "value" and values:
            values[draw(st.integers(0, len(values) - 1))] = draw(BAD_VALUE)
        elif fault == "more":
            values.append("1")
        else:
            values[-1:] = []
    lines = [r if isinstance(r, str) else " ".join([r[0]] + r[1]) + r[2] for r in rows]
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join([f"{n} {dim}"] + lines) + draw(st.sampled_from(["", ending]))
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text, draw(st.booleans())


@pytest.fixture(scope="module")
def vector_dir():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp)


def write_case(vector_dir, case):
    text, compress = case
    path = vector_dir / ("emb.txt.gz" if compress else "emb.txt")
    data = text.encode("utf-8")
    path.write_bytes(gzip.compress(data, mtime=0) if compress else data)
    return path


def outcome(load, path):
    try:
        return load(path)
    except InputError as exc:
        return type(exc), str(exc)


class TestLoaderMatchesReference:
    @given(case=vector_files())
    @example(case=("2 2\na 1_0 ١٢\nb \t1 2\x0c\n", False))  # the C reader rejects, float accepts
    @example(case=("2 2\na 1 2\nb 1\x1c 2\n", False))  # the C reader accepts, float rejects
    @example(case=("3 2\na 1 x\nb 1 2 3\n", True))  # a bad value before a bad count
    @example(case=("2 1\nb 1\n  \n", False))  # an empty value the C reader skips
    @settings(max_examples=150, deadline=None)
    def test_same_table_or_same_error(self, vector_dir, case):
        path = write_case(vector_dir, case)
        want = outcome(reference_load_embeddings, path)
        got = outcome(load_embeddings, path)
        if isinstance(want, tuple):
            assert got == want
            return
        assert isinstance(got, EmbeddingTable)
        assert (got.dimension, got.duplicate_count) == (want.dimension, want.duplicate_count)
        assert list(got.vocabulary) == list(want.vocabulary)
        for word, vec in want.vocabulary.items():
            assert got.vocabulary[word].tobytes() == vec.tobytes(), word


def parse_forbidden(path, oov_seed):
    raise AssertionError(f"{path} was parsed, not taken from the memo")


def assert_same_table(got, want):
    assert isinstance(got, EmbeddingTable)
    assert (got.dimension, got.duplicate_count) == (want.dimension, want.duplicate_count)
    assert list(got.vocabulary) == list(want.vocabulary)
    for word, vec in want.vocabulary.items():
        assert np.array_equal(got.vocabulary[word], vec, equal_nan=True), word
        assert got.vocabulary[word].tobytes() == vec.tobytes(), word
        assert not got.vocabulary[word].flags.writeable, word


def blake2b(path):
    return hashlib.blake2b(Path(path).read_bytes(), digest_size=32).hexdigest()


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestCache:
    """The first load of a file parses it and keeps its table under the
    SHA-256 of the bytes parsed; a second load of the same bytes returns that
    table's rows without parsing."""

    @given(case=vector_files())
    @example(case=("0 3\n", False))  # no words
    @example(case=("2 1\n 5\n\t 6\n", False))  # an empty word and a tab word
    @example(case=("3 2\na 1 x\nb 1 2 3\n", True))  # rejected
    @settings(max_examples=150, deadline=None)
    def test_miss_hit_and_reference_agree(self, vector_dir, case):
        path = write_case(vector_dir, case)
        want = outcome(reference_load_embeddings, path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(embed, "_LAST", None)
            miss = outcome(load_embeddings, path)
            if isinstance(want, tuple):
                assert miss == want
                assert embed._LAST is None
                assert outcome(load_embeddings, path) == want
                assert embed._LAST is None
                return
            key, kept = embed._LAST
            assert kept.digest == miss.digest == blake2b(path)
            assert key == sha256(path)
            mp.setattr(embed, "_parse", parse_forbidden)
            hit = load_embeddings(path, oov_seed=3)
        assert_same_table(miss, want)
        assert_same_table(hit, want)
        assert (miss.oov_seed, hit.oov_seed) == (0, 3)
        assert miss.digest == hit.digest

    @pytest.fixture
    def vectors(self, tmp_path):
        rows = [f"w{i} {i} {-i / 3!r} {i * 1e-7!r}" for i in range(2 * CHUNK_LINES + 5)]
        return write_vectors(tmp_path / "emb.txt", f"{len(rows)} 3", rows + ["w1 0 0 0"])

    def parse_count(self, monkeypatch):
        calls = []
        parse = embed._parse
        monkeypatch.setattr(embed, "_parse", lambda *a: calls.append(a) or parse(*a))
        return calls

    def test_gzip_key_is_the_compressed_bytes(self, tmp_path):
        path = tmp_path / "emb.txt.gz"
        path.write_bytes(gzip.compress(b"1 2\nw 1 2\n", mtime=0))
        assert load_embeddings(path).digest == blake2b(path)
        assert embed._LAST[1].digest == blake2b(path)
        assert embed._LAST[0] == sha256(path)

    def test_changed_bytes_are_another_entry(self, vectors, monkeypatch):
        calls = self.parse_count(monkeypatch)
        first = load_embeddings(vectors)
        vectors.write_text(vectors.read_text().replace("w1 0 0 0", "w1 9 9 9"))
        second = load_embeddings(vectors)
        assert first.digest != second.digest
        assert len(calls) == 2
        assert_same_table(second, reference_load_embeddings(vectors))
        assert embed._LAST[1].digest == second.digest
        assert embed._LAST[0] == sha256(vectors)

    def test_the_memo_keeps_one_table(self, tmp_path, vectors, monkeypatch):
        """A hit shares the kept rows; another file's load replaces the table."""
        other = write_vectors(tmp_path / "other.txt", "1 3", ["w 1 2 3"])
        calls = self.parse_count(monkeypatch)
        miss, hit = load_embeddings(vectors), load_embeddings(vectors)
        assert all(hit.vocabulary[w] is row for w, row in miss.vocabulary.items())
        load_embeddings(other)
        assert embed._LAST[1].digest == blake2b(other)
        assert embed._LAST[0] == sha256(other)
        assert_same_table(load_embeddings(vectors), miss)
        assert len(calls) == 3

    def test_a_hit_uses_the_callers_oov_seed(self, vectors, monkeypatch):
        first = load_embeddings(vectors, oov_seed=1)
        monkeypatch.setattr(embed, "_parse", parse_forbidden)
        second = load_embeddings(vectors, oov_seed=2)
        assert (first.oov_seed, second.oov_seed) == (1, 2)
        assert np.array_equal(lookup(second, "unseen"), oov_vector("unseen", 3, 2))
        assert np.array_equal(lookup(first, "unseen"), oov_vector("unseen", 3, 1))

    def test_editing_a_returned_dict_does_not_reach_the_next_load(self, vectors, monkeypatch):
        for table in (load_embeddings(vectors), load_embeddings(vectors)):
            table.vocabulary["w0"] = np.zeros(3)
            del table.vocabulary["w1"]
            table.vocabulary["new"] = np.ones(3)
        monkeypatch.setattr(embed, "_parse", parse_forbidden)
        assert_same_table(load_embeddings(vectors), reference_load_embeddings(vectors))

    def test_tables_in_memory_have_no_digest(self):
        assert EmbeddingTable.empty(4).digest is None
        assert EmbeddingTable(dimension=1, vocabulary={"w": np.ones(1)}).digest is None

    def test_a_pipe_is_read_once_and_not_cached(self, tmp_path):
        fifo = tmp_path / "emb.fifo"
        os.mkfifo(fifo)
        tables = []
        reader = threading.Thread(target=lambda: tables.append(load_embeddings(fifo)), daemon=True)
        reader.start()
        with open(fifo, "w", encoding="utf-8") as fh:
            fh.write("1 2\nw 1 2\n")
        reader.join(timeout=30)
        assert not reader.is_alive() and len(tables) == 1
        assert list(tables[0].vocabulary) == ["w"] and tables[0].digest is None
        assert embed._LAST is None

    def opened(self, monkeypatch):
        """The files that ``embed`` opens, in order."""
        files = []

        def keeping_open(*args, **kwargs):
            files.append(open(*args, **kwargs))
            return files[-1]

        monkeypatch.setattr(embed, "open", keeping_open, raising=False)
        return files

    @pytest.mark.parametrize("name", ["copy.txt", "copy.txt.gz"])
    def test_reads_per_load(self, tmp_path, vectors, monkeypatch, name):
        """A load with nothing kept reads the file once, to parse it; a hit
        reads it once, for its SHA-256; a miss against another kept table
        reads it twice, for its SHA-256 and then to parse it."""
        path = tmp_path / name
        data = vectors.read_bytes()
        path.write_bytes(gzip.compress(data, mtime=0) if name.endswith(".gz") else data)
        opened = self.opened(monkeypatch)
        load_embeddings(path)
        assert [f.name for f in opened] == [str(path)]
        load_embeddings(path)
        assert [f.name for f in opened] == [str(path)] * 2
        other = write_vectors(tmp_path / "other.txt", "1 3", ["w 1 2 3"])
        load_embeddings(other)
        assert [f.name for f in opened] == [str(path)] * 2 + [str(other)] * 2
        assert embed._LAST[0] == sha256(other)

    def test_a_rejected_file_leaves_nothing_kept(self, tmp_path, vectors, monkeypatch):
        """The kept table is dropped before a parse, so it is not held through
        it, and a rejected file puts nothing in its place."""
        bad = write_vectors(tmp_path / "bad.txt", "2 3", ["a 1 2 3", "b 1 2"])
        load_embeddings(vectors)
        kept_while_parsed = []
        parse_chunk = embed._parse_chunk
        monkeypatch.setattr(embed, "_parse_chunk",
                            lambda *a: kept_while_parsed.append(embed._LAST) or parse_chunk(*a))
        opened = self.opened(monkeypatch)
        with pytest.raises(DimensionMismatch):
            load_embeddings(bad)
        assert [f.name for f in opened] == [str(bad)] * 2
        assert kept_while_parsed == [None]
        assert embed._LAST is None

    @pytest.mark.parametrize("where", ["tail", "head"])
    def test_an_edit_during_the_parse_is_what_the_digests_describe(self, tmp_path, monkeypatch,
                                                                   where):
        """A file rewritten after its first chunk is parsed, once past the
        bytes read so far and once inside them, gives the table, the digest and
        the key of exactly the bytes parsed: the head as read before the edit,
        the rest as edited."""
        rows = [f"w{i} {i} {-i / 3!r} {i * 1e-7!r}" for i in range(1000)]
        path = write_vectors(tmp_path / "emb.txt", f"{len(rows)} 3", rows)
        old = path.read_bytes()
        row, edit = (b"w0 0 ", b"w0 7 ") if where == "head" else (b"w999 999 ", b"w999 777 ")
        assert old.count(row) == 1
        new = old.replace(row, edit)
        files, read_before_edit = self.opened(monkeypatch), []
        parse_chunk = embed._parse_chunk

        def parse_chunk_then_edit(*args):
            if not read_before_edit:
                read_before_edit.append(files[-1].tell())
                path.write_bytes(new)
            parse_chunk(*args)

        monkeypatch.setattr(embed, "_parse_chunk", parse_chunk_then_edit)
        table = load_embeddings(path)
        monkeypatch.undo()
        (n,) = read_before_edit
        assert n < len(old)  # the file is larger than what was read before the edit
        assert (old.index(row) < n) == (where == "head")
        parsed = tmp_path / "parsed.txt"
        parsed.write_bytes(old[:n] + new[n:])
        assert_same_table(table, reference_load_embeddings(parsed))
        assert table.digest == blake2b(parsed)
        assert embed._LAST[0] == sha256(parsed)
        # a tail edit was read whole, so the kept table is the file's; a head
        # edit was not, so the next load parses the file again
        calls = self.parse_count(monkeypatch)
        assert_same_table(load_embeddings(path), reference_load_embeddings(path))
        assert len(calls) == (where == "head")
        assert embed._LAST[0] == sha256(path)


class TestLookup:
    def table(self):
        return EmbeddingTable(
            dimension=4,
            vocabulary={"protein": np.array([1.0, 2.0, 3.0, 4.0])},
            oov_seed=7,
        )

    def test_in_vocabulary(self):
        assert np.array_equal(lookup(self.table(), "protein"), [1.0, 2.0, 3.0, 4.0])

    def test_lowercase_fallback(self):
        assert np.array_equal(lookup(self.table(), "Protein"), [1.0, 2.0, 3.0, 4.0])

    def test_oov_deterministic(self):
        table = self.table()
        first = lookup(table, "UNSEEN-TOKEN")
        second = lookup(table, "UNSEEN-TOKEN")
        assert np.array_equal(first, second)

    def test_oov_depends_on_token_and_seed(self):
        table = self.table()
        assert not np.array_equal(lookup(table, "aaa"), lookup(table, "bbb"))
        other = EmbeddingTable(dimension=4, vocabulary={}, oov_seed=8)
        assert not np.array_equal(lookup(table, "aaa"), lookup(other, "aaa"))

    def test_oov_bounds_and_norm(self):
        vec = oov_vector("anything", 200, 3)
        assert np.all(np.abs(vec) <= OOV_SCALE)
        assert np.linalg.norm(vec) <= OOV_SCALE * np.sqrt(200)

    def test_empty_table(self):
        table = EmbeddingTable.empty(8, oov_seed=1)
        assert lookup(table, "word").shape == (8,)


class TestAssemble:
    def test_zero_inputs(self):
        out = assemble(np.zeros(200), np.zeros(8), np.zeros(10), np.zeros(10))
        assert out.shape == (228,)
        assert not out.any()

    def test_basis_vector_layout(self):
        word = np.zeros(200)
        word[0] = 1.0
        out = assemble(word, np.zeros(8), np.zeros(10), np.zeros(10))
        assert out[0] == 1.0
        assert out.sum() == 1.0

    def test_pos_segment_slice(self):
        pos = np.arange(8, dtype=float)
        out = assemble(np.zeros(200), pos, np.zeros(10), np.zeros(10))
        assert np.array_equal(out[200:208], pos)

    def test_none_segments_omitted(self):
        out = assemble(np.ones(16), None, None, None)
        assert out.shape == (16,)

    def test_injective_layout(self):
        a = assemble(np.ones(4), np.zeros(2), np.zeros(3), np.zeros(3))
        b = assemble(np.ones(4), np.zeros(2), np.zeros(3), np.ones(3))
        assert not np.array_equal(a, b)

    def test_non_finite_rejected(self):
        with pytest.raises(DimensionMismatch):
            assemble(np.array([np.nan]), None, None, None)

    def test_non_vector_rejected(self):
        with pytest.raises(DimensionMismatch):
            assemble(np.zeros((2, 2)), None, None, None)
