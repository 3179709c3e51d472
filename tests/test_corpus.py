import re

import pytest
from hypothesis import given, strategies as st

from sdprel.corpus import (
    CandidatePair,
    Entity,
    SentenceRecord,
    class_stats,
    collapse_entities,
    generalize,
    generate_candidates,
    load_corpus,
    split_folds,
)
from sdprel.errors import BadK, DuplicateSentenceId, EntityNotInSentence, ParseError

from conftest import TABLE1_LINE


def write(tmp_path, text, name="corpus.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def make_record(n_entities, interactions=()):
    tokens = []
    entities = []
    for i in range(n_entities):
        entities.append(Entity(f"e{i}", len(tokens), len(tokens)))
        tokens.append(f"Prot{i}")
        tokens.append("word")
    return SentenceRecord(
        id="s",
        tokens=tuple(tokens),
        pos_tags=tuple("NN" for _ in tokens),
        entities=tuple(entities),
        interactions=frozenset(frozenset(p) for p in interactions),
    )


class TestLoadCorpus:
    def test_table1_line(self, table1_record):
        rec = table1_record
        assert rec.id == "s1"
        assert len(rec.tokens) == 15
        assert len(rec.pos_tags) == 15
        assert len(rec.entities) == 3
        assert rec.interactions == frozenset({frozenset({"e1", "e2"})})

    def test_empty_file(self, tmp_path):
        assert load_corpus(write(tmp_path, "")) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "\n" + TABLE1_LINE + "\n\n")
        assert len(load_corpus(path)) == 1

    def test_interaction_with_undeclared_entity(self, tmp_path):
        bad = "s1\ta|NN b|NN\te1:0:0\te1-e9"
        with pytest.raises(ParseError, match="undeclared"):
            load_corpus(write(tmp_path, bad))

    def test_duplicate_sentence_id(self, tmp_path):
        line = "s1\ta|NN b|NN\te1:0:0;e2:1:1\t"
        with pytest.raises(DuplicateSentenceId):
            load_corpus(write(tmp_path, line + "\n" + line))

    def test_overlapping_entities_rejected(self, tmp_path):
        bad = "s1\ta|NN b|NN c|NN\te1:0:1;e2:1:2\t"
        with pytest.raises(ParseError, match="overlaps"):
            load_corpus(write(tmp_path, bad))

    def test_span_out_of_bounds(self, tmp_path):
        bad = "s1\ta|NN b|NN\te1:0:5\t"
        with pytest.raises(ParseError, match="outside"):
            load_corpus(write(tmp_path, bad))

    def test_reserved_token_rejected(self, tmp_path):
        bad = "s1\tPROT1|NN b|NN\te1:1:1\t"
        with pytest.raises(ParseError, match="reserved"):
            load_corpus(write(tmp_path, bad))

    def test_bad_chunk_reports_line_number(self, tmp_path):
        bad = TABLE1_LINE + "\n" + "s2\ta|b|c\te1:0:0\t"
        path = write(tmp_path, bad)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:2: "):
            load_corpus(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "nope.tsv")

    def test_interactions_field_optional(self, tmp_path):
        rec = load_corpus(write(tmp_path, "s1\ta|NN b|NN\te1:0:0;e2:1:1"))[0]
        assert rec.interactions == frozenset()


class TestGenerateCandidates:
    def test_table1_pairs(self, table1_record):
        pairs = generate_candidates(table1_record)
        assert len(pairs) == 3
        assert sum(p.label for p in pairs) == 1
        positive = next(p for p in pairs if p.label == 1)
        assert {positive.prot1, positive.prot2} == {"e1", "e2"}
        # canonical order: first mention in the sentence is prot1
        assert all(p.prot1 == "e1" for p in pairs[:2])

    def test_single_entity(self):
        assert generate_candidates(make_record(1)) == []

    def test_four_entities_one_interaction(self):
        pairs = generate_candidates(make_record(4, [("e0", "e3")]))
        assert len(pairs) == 6
        assert sum(p.label for p in pairs) == 1

    @given(n=st.integers(min_value=0, max_value=8))
    def test_pair_count_is_n_choose_2(self, n):
        pairs = generate_candidates(make_record(n))
        assert len(pairs) == n * (n - 1) // 2


class TestGeneralize:
    def test_table1_replacement(self, table1_record):
        pair = CandidatePair("s1", "e1", "e2", 1)
        gen = generalize(table1_record, pair)
        assert " ".join(gen.tokens) == (
            "PROT1 interacts with another Rho family member , PROT2 , "
            "but not with PROTX ."
        )
        assert gen.pos_tags[0] == "NN"
        assert gen.entity_by_id("e1").token_start == 0
        assert gen.entity_by_id("e2") == Entity("e2", 8, 8)

    def test_multi_token_span_collapses(self):
        rec = SentenceRecord(
            id="s",
            tokens=("The", "big", "kinase", "binds", "Rho", ".",),
            pos_tags=("DT", "JJ", "NN", "VBZ", "NN", "."),
            entities=(Entity("e1", 1, 2), Entity("e2", 4, 4)),
            interactions=frozenset(),
        )
        gen = generalize(rec, CandidatePair("s", "e1", "e2", 0))
        assert gen.tokens == ("The", "PROT1", "binds", "PROT2", ".")
        assert gen.entity_by_id("e1") == Entity("e1", 1, 1)
        assert gen.entity_by_id("e2") == Entity("e2", 3, 3)

    def test_single_token_spans_keep_length(self, table1_record):
        gen = generalize(table1_record, CandidatePair("s1", "e1", "e3", 0))
        assert len(gen.tokens) == len(table1_record.tokens)
        assert gen.tokens[8] == "PROTX"
        assert gen.tokens[13] == "PROT2"

    def test_idempotent(self, table1_record):
        pair = CandidatePair("s1", "e1", "e2", 1)
        once = generalize(table1_record, pair)
        twice = generalize(once, pair)
        assert once == twice

    def test_unknown_entity(self, table1_record):
        with pytest.raises(EntityNotInSentence):
            generalize(table1_record, CandidatePair("s1", "e1", "e99", 0))

    def test_entity_by_id_of_an_unknown_id(self, table1_record):
        assert table1_record.entity_by_id("e3") == Entity("e3", 13, 13)
        with pytest.raises(EntityNotInSentence, match="entity 'e9' not declared in sentence 's1'"):
            table1_record.entity_by_id("e9")

    def test_mention_inside_another_span_does_not_survive(self):
        rec = SentenceRecord("s", ("A", "B", "binds", "C"), ("NN",) * 4,
                             (Entity("e1", 0, 1), Entity("e2", 1, 1), Entity("e3", 3, 3)))
        collapsed = collapse_entities(rec)
        assert collapsed.record.tokens == ("PROTX", "binds", "PROTX")
        assert collapsed.nodes == {"e1": 0, "e3": 2}
        with pytest.raises(EntityNotInSentence, match="e2"):
            generalize(rec, CandidatePair("s", "e2", "e3", 0))


class TestSplitFolds:
    def test_ten_ids_ten_folds(self):
        ids = [f"i{i}" for i in range(10)]
        fa = split_folds(ids, 10, seed=1)
        assert sorted(fa.assignments.values()) == list(range(10))

    def test_4048_ids_fold_sizes(self):
        ids = [f"i{i}" for i in range(4048)]
        fa = split_folds(ids, 10, seed=3)
        sizes = sorted((len(fa.members(f)) for f in range(10)), reverse=True)
        assert sizes == [405] * 8 + [404] * 2

    def test_deterministic(self):
        ids = [f"i{i}" for i in range(37)]
        assert split_folds(ids, 5, seed=9) == split_folds(ids, 5, seed=9)

    def test_seed_changes_assignment(self):
        ids = [f"i{i}" for i in range(37)]
        assert split_folds(ids, 5, seed=1) != split_folds(ids, 5, seed=2)

    def test_bad_k(self):
        with pytest.raises(BadK):
            split_folds(["a", "b"], 3, seed=0)
        with pytest.raises(BadK):
            split_folds(["a", "b"], 1, seed=0)
        with pytest.raises(BadK):
            split_folds([], 2, seed=0)

    @given(n=st.integers(min_value=5, max_value=60), k=st.integers(min_value=2, max_value=5))
    def test_fold_sizes_differ_by_at_most_one(self, n, k):
        ids = [f"i{i}" for i in range(n)]
        fa = split_folds(ids, k, seed=0)
        sizes = [len(fa.members(f)) for f in range(k)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == n


class TestClassStats:
    def test_counts_and_ratio(self):
        pairs = [CandidatePair("s", "a", "b", 1)] * 3 + [
            CandidatePair("s", "a", "c", 0)
        ] * 10
        assert class_stats(pairs) == (3, 10, 3.3)

    def test_empty(self):
        assert class_stats([]) == (0, 0, 0.0)

    def test_benchmark_dataset_ratios(self):
        # the two benchmark corpora report 939:3109 (1:3.3) and
        # 1077:5951 (1:5.5); the ratio arithmetic must reproduce both
        def fake(n_pos, n_neg):
            return [CandidatePair("s", "a", "b", 1)] * n_pos + [
                CandidatePair("s", "a", "c", 0)
            ] * n_neg

        assert class_stats(fake(939, 3109)) == (939, 3109, 3.3)
        assert class_stats(fake(1077, 5951)) == (1077, 5951, 5.5)

    def test_partition(self, table1_record):
        pairs = generate_candidates(table1_record)
        pos, neg, _ = class_stats(pairs)
        assert pos + neg == len(pairs)
