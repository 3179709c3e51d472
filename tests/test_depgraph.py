import random

import pytest
from hypothesis import given, settings, strategies as st

from sdprel.corpus import CandidatePair, generalize
from sdprel.depgraph import (
    SdpPath,
    build_graph,
    load_dependencies,
    paths_from,
    sdp_endpoints,
    sdp_tokens,
    shortest_path,
)
from sdprel.errors import Disconnected, IndexOutOfRange, ParseError, PathTooLong, SelfLoop

from helpers import min_simple_path_length, random_connected_graph, reference_bfs_path
from test_corpus import make_record


# "Prot1 is shown to bind with cell surface of Prot2": predicate-argument
# edges whose SDP from token 0 to token 9 spells
# "Prot1 bind with surface of Prot2".
FIG2_TOKENS = ("Prot1", "is", "shown", "to", "bind", "with", "cell", "surface", "of", "Prot2")
FIG2_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (4, 5), (5, 7), (6, 7), (7, 8), (8, 9)]


def fig2_record():
    from sdprel.corpus import Entity, SentenceRecord

    return SentenceRecord(
        id="fig2",
        tokens=FIG2_TOKENS,
        pos_tags=("NN", "VBZ", "VBN", "TO", "VB", "IN", "NN", "NN", "IN", "NN"),
        entities=(Entity("p1", 0, 0), Entity("p2", 9, 9)),
        interactions=frozenset({frozenset({"p1", "p2"})}),
    )


def graph_from_edges(n, edges, sid="g"):
    from sdprel.corpus import SentenceRecord

    rec = SentenceRecord(
        id=sid,
        tokens=tuple(f"w{i}" for i in range(n)),
        pos_tags=tuple("NN" for _ in range(n)),
        entities=(),
        interactions=frozenset(),
    )
    return build_graph(rec, edges)


class TestBuildGraph:
    def test_figure2_graph(self):
        g = build_graph(fig2_record(), FIG2_EDGES)
        assert g.node_count == 10
        assert 4 in g.adjacency[0] and 0 in g.adjacency[4]

    def test_empty_edge_list(self):
        g = graph_from_edges(5, [])
        assert g.node_count == 5
        assert all(not ns for ns in g.adjacency)

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            graph_from_edges(5, [(3, 3)])

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            graph_from_edges(3, [(0, 7)])

    def test_duplicate_edges_collapse(self):
        g = graph_from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.adjacency == ((1,), (0,), ())


class TestShortestPath:
    def test_figure2_sdp(self):
        g = build_graph(fig2_record(), FIG2_EDGES)
        path = shortest_path(g, 0, 9)
        assert path.node_indices == (0, 4, 5, 7, 8, 9)
        words = [t for t, _ in sdp_tokens(path, fig2_record())]
        assert words == ["Prot1", "bind", "with", "surface", "of", "Prot2"]
        assert path.length == 5

    def test_direct_edge(self):
        g = graph_from_edges(2, [(0, 1)])
        assert shortest_path(g, 0, 1).node_indices == (0, 1)
        assert shortest_path(g, 0, 1).length == 1

    def test_disconnected(self):
        g = graph_from_edges(4, [(0, 1)])
        with pytest.raises(Disconnected):
            shortest_path(g, 0, 3)

    def test_lexicographic_tie_break(self):
        # two shortest paths 0-1-3 and 0-2-3; the smaller sequence wins
        g = graph_from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert shortest_path(g, 0, 3).node_indices == (0, 1, 3)

    def test_deterministic(self):
        rng = random.Random(5)
        n, edges = random_connected_graph(rng)
        g = graph_from_edges(n, edges)
        first = shortest_path(g, 0, n - 1)
        assert all(
            shortest_path(g, 0, n - 1) == first for _ in range(5)
        )

    def test_same_endpoints_rejected(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(IndexOutOfRange):
            shortest_path(g, 1, 1)

    def test_path_too_long(self):
        n = 45
        g = graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])
        with pytest.raises(PathTooLong):
            shortest_path(g, 0, n - 1)
        assert shortest_path(g, 0, n - 1, max_tokens=None).length == n - 1

    def test_bfs_matches_bruteforce_on_random_graphs(self):
        rng = random.Random(20)
        for _ in range(60):
            n, edges = random_connected_graph(rng)
            g = graph_from_edges(n, edges)
            src, dst = rng.sample(range(n), 2)
            adjacency = {i: list(g.adjacency[i]) for i in range(n)}
            expected = min_simple_path_length(adjacency, src, dst)
            path = shortest_path(g, src, dst)
            assert path.length == expected
            # validity: endpoints and adjacency of consecutive nodes
            assert path.node_indices[0] == src
            assert path.node_indices[-1] == dst
            for a, b in zip(path.node_indices, path.node_indices[1:]):
                assert b in g.adjacency[a]
            assert len(set(path.node_indices)) == len(path.node_indices)

    def test_symmetry(self):
        rng = random.Random(77)
        for _ in range(20):
            n, edges = random_connected_graph(rng)
            g = graph_from_edges(n, edges)
            src, dst = rng.sample(range(n), 2)
            assert (
                shortest_path(g, src, dst).length == shortest_path(g, dst, src).length
            )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = random.Random(seed)
        n, edges = random_connected_graph(rng)
        g = graph_from_edges(n, edges)
        a, b, c = rng.sample(range(n), 3)
        ab = shortest_path(g, a, b).length
        bc = shortest_path(g, b, c).length
        ac = shortest_path(g, a, c).length
        assert ac <= ab + bc


class TestPathsFrom:
    @given(seed=st.integers(min_value=0, max_value=10_000), cap=st.sampled_from([None, 3, 5]))
    @settings(max_examples=80, deadline=None)
    def test_equals_one_bfs_per_target(self, seed, cap):
        rng = random.Random(seed)
        n, edges = random_connected_graph(rng, max_nodes=14)
        edges = [e for e in edges if rng.random() < 0.8]  # often a forest of parts
        g = graph_from_edges(n, edges)
        src = rng.randrange(n)
        dsts = rng.sample([v for v in range(n) if v != src], rng.randint(1, n - 1))
        for dst, got in zip(dsts, paths_from(g, src, dsts, max_tokens=cap)):
            want = reference_bfs_path(g.adjacency, src, dst)
            if want is None:
                assert isinstance(got, Disconnected)
            elif cap is not None and len(want) > cap:
                assert isinstance(got, PathTooLong)
            else:
                assert got == SdpPath(want)
                assert shortest_path(g, src, dst, max_tokens=cap) == got

    def test_bad_target_is_refused(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        for dsts in ([1, 0], [2, 3], [-1]):
            with pytest.raises(IndexOutOfRange):
                paths_from(g, 0, dsts)


class TestSdpTokens:
    def test_length_one_path(self):
        rec = make_record(2)
        pair = CandidatePair("s", "e0", "e1", 0)
        gen = generalize(rec, pair)
        src, dst = sdp_endpoints(gen, "e0", "e1")
        g = build_graph(gen, [(src, dst)])
        path = shortest_path(g, src, dst)
        assert sdp_tokens(path, gen) == [("PROT1", "NN"), ("PROT2", "NN")]

    def test_table2_tokens(self, table2_record, table2_deps):
        pair = CandidatePair("t2", "e1", "e2", 1)
        gen = generalize(table2_record, pair)
        g = build_graph(gen, table2_deps["t2"])
        src, dst = sdp_endpoints(gen, "e1", "e2")
        path = shortest_path(g, src, dst)
        words = [t for t, _ in sdp_tokens(path, gen)]
        assert words == [
            "PROT1", "regulator", "between", "Interaction", "and", "repression", "PROT2",
        ]
        tags = [p for _, p in sdp_tokens(path, gen)]
        assert tags == ["NN", "NN", "IN", "NN", "CC", "NN", "NN"]


class TestLoadDependencies:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "deps.tsv"
        path.write_text("s1\t0\t1\tsubj\ns1\t1\t2\tobj\ns2\t0\t3\tmod\n", encoding="utf-8")
        deps = load_dependencies(path)
        assert deps == {
            "s1": [(0, 1), (1, 2)],
            "s2": [(0, 3)],
        }

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "deps.tsv"
        path.write_text("s1\t0\t1\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_dependencies(path)

    def test_non_integer_index(self, tmp_path):
        path = tmp_path / "deps.tsv"
        path.write_text("s1\tx\t1\tsubj\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_dependencies(path)
