"""Undirected dependency graphs and shortest-path extraction.

Edges come from an external parser run on the *generalized* sentence (every
entity mention collapsed to a single placeholder token), one edge per line:

    sentence_id<TAB>head_index<TAB>dependent_index<TAB>relation

Indices are 0-based token positions.  Path finding ignores edge direction,
and the relation field must be present but is not kept.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .corpus import PROT1, PROT2, SentenceRecord
from .errors import (
    Disconnected,
    IndexOutOfRange,
    ParseError,
    PathTooLong,
    SelfLoop,
    reading_text,
)

# Paths longer than this many tokens are rejected; bounds the recurrent pass.
MAX_SDP_TOKENS = 40


@dataclass(frozen=True)
class DependencyGraph:
    sentence_id: str
    node_count: int
    # adjacency[i] is sorted ascending so traversal order is deterministic
    adjacency: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SdpPath:
    node_indices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.node_indices) - 1


def build_graph(s: SentenceRecord, edges) -> DependencyGraph:
    """Build an undirected adjacency view from ``(head, dep)`` pairs.

    Duplicate edges (in either orientation) collapse to one.
    """
    n = len(s.tokens)
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for head, dep in edges:
        if head == dep:
            raise SelfLoop(f"sentence {s.id!r}: self-loop at token {head}")
        if not (0 <= head < n and 0 <= dep < n):
            raise IndexOutOfRange(
                f"sentence {s.id!r}: edge ({head},{dep}) outside 0:{n - 1}"
            )
        neighbors[head].add(dep)
        neighbors[dep].add(head)
    adjacency = tuple(tuple(sorted(ns)) for ns in neighbors)
    return DependencyGraph(sentence_id=s.id, node_count=n, adjacency=adjacency)


def shortest_path(
    g: DependencyGraph, src: int, dst: int, max_tokens: int | None = MAX_SDP_TOKENS
) -> SdpPath:
    """BFS shortest path from src to dst.

    Neighbors are expanded in ascending index order, which makes the result
    the lexicographically smallest node sequence among all minimum-hop paths.
    Raises Disconnected when no path exists and PathTooLong when the path
    would exceed ``max_tokens`` tokens.  The one-target view of ``paths_from``.
    """
    (path,) = paths_from(g, src, (dst,), max_tokens)
    if isinstance(path, Exception):
        raise path
    return path


def paths_from(
    g: DependencyGraph, src: int, dsts, max_tokens: int | None = MAX_SDP_TOKENS
) -> list[SdpPath | Disconnected | PathTooLong]:
    """Shortest paths from src to each node of ``dsts``, from one BFS.

    The BFS stops once every target is reached.  A node's BFS parent never
    changes once it is set, so each path is the one a BFS for that target
    alone finds.  Entry i is the path to ``dsts[i]``, or the Disconnected or
    PathTooLong error that ``shortest_path`` raises for it.
    """
    n = g.node_count
    for dst in dsts:
        if not (0 <= src < n and 0 <= dst < n):
            raise IndexOutOfRange(f"endpoints ({src},{dst}) outside 0:{n - 1}")
        if src == dst:
            raise IndexOutOfRange("src and dst must be distinct tokens")

    parent = [-1] * n  # a node's BFS parent, -1 until reached
    parent[src] = src
    unreached = set(dsts)
    queue = deque([src])
    while queue and unreached:
        node = queue.popleft()
        for nb in g.adjacency[node]:
            if parent[nb] < 0:
                parent[nb] = node
                queue.append(nb)
                unreached.discard(nb)

    out: list[SdpPath | Disconnected | PathTooLong] = []
    for dst in dsts:
        if parent[dst] < 0:
            out.append(Disconnected(
                f"sentence {g.sentence_id!r}: no path between tokens {src} and {dst}"
            ))
            continue
        path = [dst]
        while path[-1] != src:
            path.append(parent[path[-1]])
        path.reverse()
        if max_tokens is not None and len(path) > max_tokens:
            out.append(PathTooLong(
                f"sentence {g.sentence_id!r}: path has {len(path)} tokens, cap is {max_tokens}"
            ))
        else:
            out.append(SdpPath(node_indices=tuple(path)))
    return out


def sdp_tokens(p: SdpPath, s: SentenceRecord) -> list[tuple[str, str]]:
    """Tokens along the path, in order, with their PoS tags."""
    return [(s.tokens[i], s.pos_tags[i]) for i in p.node_indices]


def sdp_endpoints(s: SentenceRecord, prot1_id: str, prot2_id: str) -> tuple[int, int]:
    """Token indices of the two target mentions in a generalized sentence.

    The first token of each (collapsed) span is the canonical node.
    """
    e1 = s.entity_by_id(prot1_id)
    e2 = s.entity_by_id(prot2_id)
    if s.tokens[e1.token_start] != PROT1 or s.tokens[e2.token_start] != PROT2:
        raise IndexOutOfRange(
            f"sentence {s.id!r} is not generalized for pair ({prot1_id}, {prot2_id})"
        )
    return e1.token_start, e2.token_start


def load_dependencies(path) -> dict[str, list[tuple[int, int]]]:
    """Read a dependency edge file into sentence_id -> ``(head, dep)`` list.

    Raises ParseError naming the file and the offending line number on any
    malformed line, a self-loop included; blank lines are ignored.  The
    relation field must be present but is not kept.  Equal edges are one
    shared tuple, so the result's memory grows with the file's distinct
    edges rather than with its lines.
    """
    edges: dict[str, list[tuple[int, int]]] = {}
    shared: dict[tuple[int, int], tuple[int, int]] = {}  # each edge -> its one object
    share = shared.setdefault
    with open(path, encoding="utf-8-sig") as fh, reading_text(path):
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ParseError(
                    line_no, f"expected 4 tab-separated fields, got {len(fields)}"
                )
            sent_id, head_s, dep_s, _ = fields
            if not sent_id:
                raise ParseError(line_no, "empty sentence id")
            try:
                head, dep = int(head_s), int(dep_s)
            except ValueError:
                raise ParseError(line_no, f"non-integer token index in {line!r}") from None
            if head == dep:
                raise ParseError(line_no, f"self-loop at token {head}")
            edge = (head, dep)
            edges.setdefault(sent_id, []).append(share(edge, edge))
    return edges
