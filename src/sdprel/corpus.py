"""Corpus ingestion, candidate-pair generation, entity generalization, folds.

Corpus file format (one sentence per line, UTF-8, tab-separated fields):

    id<TAB>token|pos token|pos ...<TAB>entityId:start:end;...<TAB>idA-idB;...

The interactions field may be empty or absent.  Token spans are 0-based and
end-inclusive.  Tokens and PoS tags may not contain ``|``, tab, ``;`` or
``:``; entity ids may not contain ``:``, ``;``, ``-`` or whitespace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from .errors import (
    BadK,
    DuplicateSentenceId,
    EntityNotInSentence,
    ParseError,
    reading_text,
)

PROT1 = "PROT1"
PROT2 = "PROT2"
PROTX = "PROTX"
RESERVED_TOKENS = frozenset({PROT1, PROT2, PROTX})

# Tag given to replacement tokens; generalized mentions behave like nouns.
GENERALIZED_POS = "NN"

INTERACTING = 1
NON_INTERACTING = 0

_FORBIDDEN_IN_TOKEN = ("|", "\t", ";", ":")
_FORBIDDEN_IN_ID = (":", ";", "-", "|", "\t", " ")


@dataclass(frozen=True)
class Entity:
    """A protein mention covering tokens [token_start, token_end] inclusive."""

    entity_id: str
    token_start: int
    token_end: int


@dataclass(frozen=True)
class SentenceRecord:
    id: str
    tokens: tuple[str, ...]
    pos_tags: tuple[str, ...]
    entities: tuple[Entity, ...]
    interactions: frozenset[frozenset[str]] = field(default_factory=frozenset)

    def entity_by_id(self, entity_id: str) -> Entity:
        for e in self.entities:
            if e.entity_id == entity_id:
                return e
        raise EntityNotInSentence(
            f"entity {entity_id!r} not declared in sentence {self.id!r}"
        )


@dataclass(frozen=True)
class CandidatePair:
    """One unordered protein pair; prot1 is the mention that appears first."""

    sentence_id: str
    prot1: str
    prot2: str
    label: int


@dataclass(frozen=True)
class FoldAssignment:
    k: int
    assignments: dict[str, int]

    def fold_of(self, instance_id: str) -> int:
        return self.assignments[instance_id]

    def members(self, fold: int) -> list[str]:
        return [i for i, f in self.assignments.items() if f == fold]


def _validate_record(line_no: int, rec: SentenceRecord) -> None:
    n = len(rec.tokens)
    seen_ids = set()
    covered: list[tuple[int, int, str]] = []
    for e in rec.entities:
        if e.entity_id in seen_ids:
            raise ParseError(line_no, f"duplicate entity id {e.entity_id!r}")
        seen_ids.add(e.entity_id)
        if not (0 <= e.token_start <= e.token_end < n):
            raise ParseError(
                line_no,
                f"entity {e.entity_id!r} span {e.token_start}:{e.token_end} "
                f"outside 0:{n - 1}",
            )
        for s, t, other in covered:
            if e.token_start <= t and s <= e.token_end:
                raise ParseError(
                    line_no,
                    f"entity {e.entity_id!r} overlaps entity {other!r}",
                )
        covered.append((e.token_start, e.token_end, e.entity_id))
    for pair in rec.interactions:
        if len(pair) != 2:
            raise ParseError(line_no, "interaction must join two distinct entities")
        for eid in pair:
            if eid not in seen_ids:
                raise ParseError(
                    line_no, f"interaction references undeclared entity {eid!r}"
                )
    for tok in rec.tokens:
        if tok in RESERVED_TOKENS:
            raise ParseError(
                line_no, f"token {tok!r} collides with a reserved placeholder"
            )


def _token_fault(line_no: int, token_field: str) -> ParseError:
    """The error of the first malformed chunk of a token field that the
    column-wise check in ``_parse_line`` rejected, found one chunk at a time
    so that the message and its order are the per-chunk checks' own."""
    for chunk in token_field.split(" "):
        if not chunk:
            return ParseError(line_no, "empty token/pos chunk")
        if chunk.count("|") != 1:
            return ParseError(line_no, f"token chunk {chunk!r} is not token|pos")
        tok, pos = chunk.split("|")
        if not tok or not pos:
            return ParseError(line_no, f"token chunk {chunk!r} has empty token or pos")
        for bad in _FORBIDDEN_IN_TOKEN:
            if bad in tok or bad in pos:
                return ParseError(line_no, f"forbidden character {bad!r} in {chunk!r}")
    raise AssertionError(f"token field {token_field!r} is well-formed")


def _parse_line(line_no: int, line: str, shared: dict[str, str]) -> SentenceRecord:
    """One corpus line as a record whose tokens, tags and entity ids are the
    values of ``shared``, which maps each value to its one object."""
    fields = line.split("\t")
    if len(fields) == 3:
        fields.append("")
    if len(fields) != 4:
        raise ParseError(line_no, f"expected 3 or 4 tab-separated fields, got {len(fields)}")
    sent_id, token_field, entity_field, interaction_field = fields
    if not sent_id:
        raise ParseError(line_no, "empty sentence id")

    # Column-wise: zip makes as many columns as the shortest chunk has parts,
    # so the unpacking needs every chunk to hold a "|", and a count of "|"
    # equal to the chunk count then leaves each chunk exactly one.
    chunks = [c.split("|") for c in token_field.split(" ")]
    try:
        tokens, pos_tags = zip(*chunks)
    except ValueError:
        raise _token_fault(line_no, token_field) from None
    if (token_field.count("|") != len(chunks) or "" in tokens or "" in pos_tags
            or ";" in token_field or ":" in token_field):
        raise _token_fault(line_no, token_field)
    share = shared.setdefault

    entities: list[Entity] = []
    if entity_field:
        for chunk in entity_field.split(";"):
            parts = chunk.split(":")
            if len(parts) != 3:
                raise ParseError(line_no, f"entity chunk {chunk!r} is not id:start:end")
            eid, start_s, end_s = parts
            if not eid or any(bad in eid for bad in _FORBIDDEN_IN_ID):
                raise ParseError(line_no, f"bad entity id {eid!r}")
            try:
                start, end = int(start_s), int(end_s)
            except ValueError:
                raise ParseError(line_no, f"non-integer span in {chunk!r}") from None
            if start > end:
                raise ParseError(line_no, f"entity {eid!r} span start exceeds end")
            entities.append(Entity(share(eid, eid), start, end))

    interactions: set[frozenset[str]] = set()
    if interaction_field:
        for chunk in interaction_field.split(";"):
            parts = chunk.split("-")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise ParseError(line_no, f"interaction chunk {chunk!r} is not idA-idB")
            if parts[0] == parts[1]:
                raise ParseError(line_no, f"interaction {chunk!r} joins an entity to itself")
            interactions.add(frozenset(map(share, parts, parts)))

    rec = SentenceRecord(
        id=sent_id,
        tokens=tuple(map(share, tokens, tokens)),
        pos_tags=tuple(map(share, pos_tags, pos_tags)),
        entities=tuple(entities),
        interactions=frozenset(interactions),
    )
    _validate_record(line_no, rec)
    return rec


def load_corpus(path) -> list[SentenceRecord]:
    """Read a line-delimited corpus file.

    Raises ParseError naming the file and the offending line number on any
    malformed line; blank lines are ignored.  Equal tokens, PoS tags and
    entity ids are one ``str`` object across the whole result, so its memory
    grows with the file's distinct values rather than with their
    occurrences; sharing is safe because a ``str`` is immutable.
    """
    records: list[SentenceRecord] = []
    seen: set[str] = set()
    shared: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh, reading_text(path):
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            rec = _parse_line(line_no, line, shared)
            if rec.id in seen:
                raise DuplicateSentenceId(line_no, f"sentence id {rec.id!r} already defined")
            seen.add(rec.id)
            records.append(rec)
    return records


def generate_candidates(s: SentenceRecord) -> list[CandidatePair]:
    """All C(n,2) unordered entity pairs, labeled from the interaction list.

    Pairs are ordered canonically: the entity whose span starts first becomes
    prot1, and the output enumerates pairs sorted by (prot1 span, prot2 span).
    """
    ordered = sorted(s.entities, key=lambda e: (e.token_start, e.entity_id))
    pairs: list[CandidatePair] = []
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            a, b = ordered[i], ordered[j]
            key = frozenset({a.entity_id, b.entity_id})
            label = INTERACTING if key in s.interactions else NON_INTERACTING
            pairs.append(CandidatePair(s.id, a.entity_id, b.entity_id, label))
    return pairs


@dataclass(frozen=True)
class CollapsedSentence:
    """A sentence with every entity span collapsed to one PROTX token.

    ``record`` holds the collapsed tokens, with placeholders tagged as nouns
    and every surviving entity re-indexed to its one token; ``nodes`` maps
    each of those entity ids to that token's index.
    """

    record: SentenceRecord
    nodes: dict[str, int]

    def node(self, entity_id: str) -> int:
        try:
            return self.nodes[entity_id]
        except KeyError:
            raise EntityNotInSentence(
                f"entity {entity_id!r} not declared in sentence {self.record.id!r}"
            ) from None


def collapse_entities(s: SentenceRecord) -> CollapsedSentence:
    """Collapse every entity span of the sentence to one PROTX token.

    The walk goes left to right; a span that starts inside an earlier span
    does not survive, and of two spans with one start the later one wins.
    """
    by_start = {e.token_start: e for e in s.entities}
    new_tokens: list[str] = []
    new_tags: list[str] = []
    new_entities: list[Entity] = []
    i = 0
    while i < len(s.tokens):
        entity = by_start.get(i)
        if entity is None:
            new_tokens.append(s.tokens[i])
            new_tags.append(s.pos_tags[i])
            i += 1
        else:
            idx = len(new_tokens)
            new_tokens.append(PROTX)
            new_tags.append(GENERALIZED_POS)
            new_entities.append(Entity(entity.entity_id, idx, idx))
            i = entity.token_end + 1
    record = replace(
        s,
        tokens=tuple(new_tokens),
        pos_tags=tuple(new_tags),
        entities=tuple(new_entities),
    )
    return CollapsedSentence(record, {e.entity_id: e.token_start for e in new_entities})


def generalize(s: SentenceRecord, pair: CandidatePair) -> SentenceRecord:
    """Collapse every entity span to a single placeholder token.

    The pair's mentions become PROT1 and PROT2, every other entity PROTX;
    placeholder tokens are tagged as nouns and all spans are re-indexed.
    Already-generalized records pass through unchanged.  A view of
    ``collapse_entities`` that renames the pair's two mentions by position; a
    mention that does not survive the collapse raises EntityNotInSentence.
    """
    collapsed = collapse_entities(s)
    src, dst = collapsed.node(pair.prot1), collapsed.node(pair.prot2)
    tokens = list(collapsed.record.tokens)
    tokens[dst] = PROT2
    tokens[src] = PROT1
    return replace(collapsed.record, tokens=tuple(tokens))


def split_folds(instance_ids: list[str], k: int, seed: int) -> FoldAssignment:
    """Seeded shuffle followed by round-robin fold assignment."""
    if k < 2:
        raise BadK(f"k must be at least 2, got {k}")
    if not instance_ids:
        raise BadK("cannot split an empty instance list")
    if k > len(instance_ids):
        raise BadK(f"k={k} exceeds instance count {len(instance_ids)}")
    if len(set(instance_ids)) != len(instance_ids):
        raise BadK("instance ids are not unique")
    shuffled = list(instance_ids)
    random.Random(seed).shuffle(shuffled)
    assignments = {iid: pos % k for pos, iid in enumerate(shuffled)}
    return FoldAssignment(k=k, assignments=assignments)


def class_stats(pairs: list) -> tuple[int, int, float]:
    """(positives, negatives, negatives-per-positive rounded to 1 decimal) of
    labelled pairs: candidate pairs, SDP instances or excluded pairs."""
    positives = sum(1 for p in pairs if p.label == INTERACTING)
    negatives = len(pairs) - positives
    ratio = round(negatives / positives, 1) if positives else 0.0
    return positives, negatives, ratio
