"""The corpus and dependency readers on files drawn from each format's allowed
alphabets: they return exactly the records written, equal values in a result
are one object, a one-byte edit either loads or fails with an InputError that
names the file, and the column-wise token-field check accepts exactly the
fields that the per-chunk checks accept."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sdprel.corpus import RESERVED_TOKENS, Entity, SentenceRecord, _token_fault, load_corpus
from sdprel.depgraph import load_dependencies
from sdprel.errors import FormatError, InputError, ParseError

from helpers import one_byte_edit

SETTINGS = settings(max_examples=100, derandomize=True, deadline=None)

# Tokens and tags: no "|", ";", ":", no whitespace, no line or control character.
TOKEN = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp"),
                           blacklist_characters="|;:\ufeff"),
    min_size=1, max_size=5,
).filter(lambda t: t not in RESERVED_TOKENS)
# Entity ids: no ":", ";", "-", "|" or whitespace.
IDENT = st.text(alphabet="abcXYZ019_.é", min_size=1, max_size=4)
# Relation labels: anything but a tab or a line break, possibly empty.
RELATION = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp"),
                           blacklist_characters="\ufeff"),
    max_size=8,
)


@st.composite
def corpora(draw):
    """Records over small pools of tokens, tags and entity ids, so that
    values repeat across sentences."""
    words = draw(st.lists(TOKEN, min_size=1, max_size=6, unique=True))
    tags = draw(st.lists(TOKEN, min_size=1, max_size=4, unique=True))
    id_pool = draw(st.lists(IDENT, min_size=1, max_size=4, unique=True))
    records = []
    for sid in draw(st.lists(IDENT, min_size=1, max_size=6, unique=True)):
        n = draw(st.integers(1, 8))
        ids = draw(st.lists(st.sampled_from(id_pool), max_size=n, unique=True))
        entities, start = [], 0
        for eid in ids:
            if start >= n:
                break
            start = draw(st.integers(start, n - 1))
            end = draw(st.integers(start, min(n - 1, start + 2)))
            entities.append(Entity(eid, start, end))
            start = end + 1
        named = [e.entity_id for e in entities]
        pairs = [frozenset((a, b)) for k, a in enumerate(named) for b in named[k + 1:]]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        records.append(SentenceRecord(
            sid,
            tuple(draw(st.lists(st.sampled_from(words), min_size=n, max_size=n))),
            tuple(draw(st.lists(st.sampled_from(tags), min_size=n, max_size=n))),
            tuple(entities),
            frozenset(chosen),
        ))
    return records


def corpus_text(records) -> str:
    return "".join("\t".join([
        rec.id,
        " ".join(f"{t}|{p}" for t, p in zip(rec.tokens, rec.pos_tags)),
        ";".join(f"{e.entity_id}:{e.token_start}:{e.token_end}" for e in rec.entities),
        ";".join("-".join(sorted(pair)) for pair in rec.interactions),
    ]) + "\n" for rec in records)


@st.composite
def edge_lines(draw):
    """(sentence id, head, dep, relation, line) over small pools, with the
    lines of different sentences interleaved and an index written in any
    spelling that ``int`` reads, so that equal edges can differ in text."""
    sentences = draw(st.lists(IDENT, min_size=1, max_size=4, unique=True))
    relations = draw(st.lists(RELATION, min_size=1, max_size=3, unique=True))
    index = st.one_of(st.integers(0, 4), st.integers(0, 1000))
    spelling = st.sampled_from(["{}", "0{}", "+{}", " {} "])
    lines = []
    for _ in range(draw(st.integers(1, 25))):
        sid, head = draw(st.sampled_from(sentences)), draw(index)
        dep = draw(index.filter(lambda d: d != head))
        rel = draw(st.sampled_from(relations))
        text = f"{sid}\t{draw(spelling).format(head)}\t{draw(spelling).format(dep)}\t{rel}\n"
        lines.append((sid, head, dep, rel, text))
    return lines


def edges_text(lines) -> str:
    return "".join(line[-1] for line in lines)


def assert_equal_values_are_one_object(values):
    first = {}
    for value in values:
        assert first.setdefault(value, value) is value, value


def corpus_values(records):
    for rec in records:
        yield from rec.tokens
        yield from rec.pos_tags
        for e in rec.entities:
            yield e.entity_id
        for pair in rec.interactions:
            yield from pair


@pytest.fixture(scope="module")
def work_dir():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp)


class TestValidFiles:
    @given(records=corpora())
    @SETTINGS
    def test_corpus_reads_back_shared(self, work_dir, records):
        path = work_dir / "corpus.tsv"
        path.write_text(corpus_text(records), encoding="utf-8")
        loaded = load_corpus(path)
        assert loaded == records
        assert_equal_values_are_one_object(corpus_values(loaded))

    @given(lines=edge_lines())
    @SETTINGS
    def test_edges_read_back_shared(self, work_dir, lines):
        path = work_dir / "deps.tsv"
        path.write_text(edges_text(lines), encoding="utf-8")
        expected = {}
        for sid, head, dep, _, _ in lines:
            expected.setdefault(sid, []).append((head, dep))
        loaded = load_dependencies(path)
        assert list(loaded.items()) == list(expected.items())
        assert_equal_values_are_one_object(edge for edges in loaded.values() for edge in edges)


def assert_loads_or_names_the_file(load, path):
    try:
        load(path)
    except ParseError as exc:
        assert str(exc).startswith(f"{path}:{exc.line_no}: "), exc
    except FormatError as exc:
        assert str(exc).startswith(f"{path}: not UTF-8 text"), exc
    except InputError as exc:
        pytest.fail(f"{type(exc).__name__} is not a line or encoding error: {exc}")


class TestOneByteEdits:
    @given(data=st.data())
    @SETTINGS
    def test_corpus(self, work_dir, data):
        text = corpus_text(data.draw(corpora())).encode("utf-8")
        path = work_dir / "edited_corpus.tsv"
        path.write_bytes(data.draw(one_byte_edit(text)))
        assert_loads_or_names_the_file(load_corpus, path)

    @given(data=st.data())
    @SETTINGS
    def test_edges(self, work_dir, data):
        text = edges_text(data.draw(edge_lines())).encode("utf-8")
        path = work_dir / "edited_deps.tsv"
        path.write_bytes(data.draw(one_byte_edit(text)))
        assert_loads_or_names_the_file(load_dependencies, path)


# Chunks of one to three parts joined by "|", so that a field often holds
# several well-formed chunks and one with no "|" or two; a part may be empty
# or hold a forbidden ";" or ":".
PART = st.one_of(st.sampled_from(["a", "b", "é"]), st.text(alphabet="ab;:", max_size=2))
TOKEN_FIELD = st.lists(st.lists(PART, min_size=1, max_size=3).map("|".join),
                       min_size=1, max_size=4).map(" ".join)


class TestQuickTokenCheck:
    """The corpus reader checks a token field column-wise and re-runs the
    per-chunk checks (``_token_fault``) only for a field that fails; a field
    that one accepts and the other rejects would load wrongly or escape as an
    AssertionError."""

    @given(field=TOKEN_FIELD)
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_accepts_what_the_per_chunk_checks_accept(self, work_dir, field):
        path = work_dir / "token_field.tsv"
        path.write_text(f"s0\t{field}\t\n", encoding="utf-8")
        try:
            per_chunk = _token_fault(1, field)
        except AssertionError:
            (rec,) = load_corpus(path)
            chunks = [chunk.split("|") for chunk in field.split(" ")]
            assert rec.tokens == tuple(tok for tok, _ in chunks)
            assert rec.pos_tags == tuple(pos for _, pos in chunks)
        else:
            with pytest.raises(ParseError) as exc:
                load_corpus(path)
            assert exc.value.reason == per_chunk.reason
