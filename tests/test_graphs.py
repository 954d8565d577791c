import pytest
from hypothesis import given
from hypothesis import strategies as st

from comptile.errors import FormatError, ValidationError
from comptile.graphs import (MAX_VERTICES, Graph, MultipartiteSpec, VertexPartition,
                             complement_components, complete_graph,
                             complete_multipartite, components,
                             disjoint_union, empty_graph, format_graph, format_partition,
                             parse_graph, parse_partition)
from comptile.util import bits, mask_of

from .helpers import random_graph


def test_validation_rejects_asymmetry_and_loops():
    with pytest.raises(ValidationError):
        Graph(2, (0b10, 0b00))
    with pytest.raises(ValidationError):
        Graph(1, (0b1,))
    with pytest.raises(ValidationError):
        Graph.from_edges(2, [(0, 0)])


@given(st.integers(0, 12).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))), max_size=40))))
def test_from_edges_builds_what_the_checked_constructor_builds(case):
    # from_edges skips __init__'s checks; the graph must be the same value
    n, edges = case
    edges = [(u, v) for u, v in edges if u != v and n]
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    g, checked = Graph.from_edges(n, edges), Graph(n, rows)
    assert g == checked and hash(g) == hash(checked)
    assert (g.n, g.adj, g.m) == (checked.n, checked.adj, checked.m)
    assert type(g.adj) is tuple


@pytest.mark.parametrize("n, edges, message", [
    (2, [(0, 1), (1, 1)], "self-loop at vertex 1"),
    (3, [(0, 3)], r"edge \(0,3\) outside vertex range 0..2"),
    (3, [(-1, 2)], r"edge \(-1,2\) outside vertex range 0..2"),
    (0, [(0, 1)], r"edge \(0,1\) outside vertex range 0..-1"),
    (-1, [], "vertex count -1 outside"),
])
def test_from_edges_refuses_bad_edge_lists(n, edges, message):
    with pytest.raises(ValidationError, match=message):
        Graph.from_edges(n, edges)


def test_size_cap_enforced():
    with pytest.raises(ValidationError):
        Graph(MAX_VERTICES + 1, (0,) * (MAX_VERTICES + 1))


def test_size_cap_is_checked_before_the_constructors_allocate():
    for build in (lambda: Graph.from_edges(MAX_VERTICES + 1, []),
                  lambda: complete_multipartite(MultipartiteSpec((MAX_VERTICES, 1))),
                  lambda: empty_graph(MAX_VERTICES + 1)):
        with pytest.raises(ValidationError, match="vertex count"):
            build()
    # an oversized header is a fault in the file
    with pytest.raises(FormatError, match="vertex count"):
        parse_graph(f"{MAX_VERTICES + 1} 0\n")
    with pytest.raises(FormatError, match="vertex count"):
        parse_graph("-1 0\n")
    assert parse_graph(f"{MAX_VERTICES} 0\n").n == MAX_VERTICES


@pytest.mark.parametrize("sizes,n,m", [
    ((1, 1, 1), 3, 3),     # triangle
    ((2, 2), 4, 4),        # C_4 = K_{2,2}
    ((1, 1, 2), 4, 5),     # pairs across parts: 1 + 2 + 2
])
def test_complete_multipartite_examples(sizes, n, m):
    g, part = complete_multipartite(MultipartiteSpec(sizes))
    assert g.n == n and g.m == m
    assert part.k == len(sizes)
    for i, b in enumerate(part.blocks):
        assert len(b) == sizes[i]
        for u in b:
            for v in b:
                assert not g.has_edge(u, v)


def test_multipartite_is_connected_when_two_parts():
    for sizes in ((1, 1), (3, 2), (2, 2, 2), (1, 4)):
        g, _ = complete_multipartite(MultipartiteSpec(sizes))
        assert len(components(g)) == 1


def test_components_examples():
    assert components(complete_graph(3)) == [[0, 1, 2]]
    g2 = disjoint_union(complete_graph(2), complete_graph(3))
    assert [len(c) for c in components(g2)] == [2, 3]
    assert components(empty_graph(4)) == [[0], [1], [2], [3]]


@given(st.integers(0, 2**30), st.integers(2, 12))
def test_random_graphs_symmetric_loop_free(seed, n):
    g = random_graph(n, 0.5, seed)
    assert sum(g.degree(v) for v in range(n)) == 2 * g.m
    for u, v in g.edges():
        assert u < v and g.has_edge(v, u)
        assert u != v


def test_graph_text_roundtrip():
    g = random_graph(11, 0.4, 7)
    assert parse_graph(format_graph(g)) == g
    assert format_graph(parse_graph(format_graph(g))) == format_graph(g)


@pytest.mark.parametrize("bad", [
    "",                       # empty
    "2\n0 1",                 # malformed header
    "2 1\n1 0",               # u >= v
    "2 2\n0 1",               # edge count mismatch
    "2 1\n0 2",               # out of range
    "3 2\n0 1\n0 1",          # duplicate
])
def test_graph_parse_rejects(bad):
    with pytest.raises(FormatError):
        parse_graph(bad)


def test_partition_roundtrip_and_validation():
    p = VertexPartition(5, ((0, 2), (1,), (3, 4)))
    assert parse_partition(format_partition(p), 5) == p
    assert [p.block_of(v) for v in range(5)] == [0, 1, 0, 2, 2]
    with pytest.raises(ValidationError):
        VertexPartition(3, ((0, 1),))          # does not cover
    with pytest.raises(ValidationError):
        VertexPartition(3, ((0, 1), (1, 2)))   # overlap
    with pytest.raises(ValidationError):
        VertexPartition(2, ((0, 1), ()))       # empty block


def test_partition_block_repeating_a_vertex_is_refused():
    with pytest.raises(ValidationError, match="block repeats a vertex"):
        VertexPartition(4, ((0, 0, 1), (2, 3)))
    with pytest.raises(ValidationError, match="block repeats a vertex"):
        VertexPartition(2, ((1, 0, 1),))
    with pytest.raises(FormatError, match="block repeats a vertex"):
        parse_partition("0 0 1\n2 3\n", 4)


@pytest.mark.parametrize("seed", range(40))
def test_complement_components_match_the_explicit_complement(seed):
    # reference: components of the complement graph built edge by edge,
    # restricted to the pool
    g = random_graph(2 + seed % 9, (0.3, 0.6, 0.85)[seed % 3], seed)
    pool = mask_of(v for v in range(g.n) if (seed * 7 + v * 13) % 5)
    pos = list(bits(pool))
    comp = Graph(len(pos), [mask_of(j for j, u in enumerate(pos) if u != v
                                    and not g.adj[v] >> u & 1) for v in pos])
    want = [mask_of(pos[j] for j in c) for c in components(comp)]
    assert complement_components(g, pool) == want


def test_multipartite_spec_validation():
    with pytest.raises(ValidationError):
        MultipartiteSpec(())
    with pytest.raises(ValidationError):
        MultipartiteSpec((1, 0))
