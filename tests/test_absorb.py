import pytest

from comptile import absorb, solver
from comptile.absorb import (Connector, assemble_absorber, concatenate_connectors,
                             find_connector, merge_via_transferral,
                             reachability_estimate, robust_vectors,
                             verify_absorber, verify_absorbing_set, verify_connector)
from comptile.errors import ValidationError
from comptile.graphs import Graph, VertexPartition, complete_graph
from comptile.incompat import IncompatibilitySystem, random_bounded_system
from comptile.solver import Embedding

from .helpers import random_graph

K2 = complete_graph(2)
K3 = complete_graph(3)


def empty(g):
    return IncompatibilitySystem.empty(g)


def test_verify_connector_examples():
    g = Graph.from_edges(3, [(0, 2), (1, 2)])
    assert verify_connector(g, empty(g), K2, [2], 0, 1, 1).ok
    k4 = complete_graph(4)
    res = verify_connector(k4, empty(k4), K2, [1, 2], 0, 3, 1)
    assert not res.ok and "exceeds" in res.reason          # |S| = h*t
    # |S| + 1 not divisible by h: no factor possible
    res = verify_connector(k4, empty(k4), K3, [1, 2, 3], 0, 2, 2)
    assert not res.ok


def test_verify_absorber_examples():
    g = Graph.from_edges(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
    assert verify_absorber(g, empty(g), K2, [0, 1], [2, 3], 1).ok
    res = verify_absorber(g, empty(g), K2, [0, 1], [2, 3], 0)
    assert not res.ok and "h^2*t" in res.reason
    # A empty: S itself spans a copy, the empty factor covers G[A]
    assert verify_absorber(g, empty(g), K2, [0, 1], [], 1).ok
    res = verify_absorber(g, empty(g), K2, [0, 2], [2, 3], 1)
    assert not res.ok and "intersects" in res.reason


def test_verify_under_incompatibility():
    g = Graph.from_edges(5, [(0, 2), (1, 2), (0, 3), (1, 3), (2, 3)])
    k2 = K2
    # connector through 2 ruined by incompatibility at 2... but connectors
    # for K_2 are single-edge factors, so make the factor edge itself clash
    f = IncompatibilitySystem(g, [(2, 0, 3)])
    assert verify_connector(g, f, k2, [2], 0, 1, 1).ok     # factors use one edge only
    k3 = K3
    tri = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 3)])
    f = IncompatibilitySystem(tri, [(1, 0, 2)])            # kills triangle {0,1,2}
    res = verify_connector(tri, f, k3, [1, 2], 0, 3, 1)
    assert not res.ok
    f2 = IncompatibilitySystem(tri, [(1, 0, 3)])           # kills only a mixed pair
    assert verify_connector(tri, f2, k3, [1, 2], 0, 3, 1).ok


def test_find_connector_smallest_interior():
    k4 = complete_graph(4)
    res = find_connector(k4, empty(k4), K2, 0, 3, (), 1)
    assert res.status == solver.FOUND and res.connector.s == (1,)
    # forbidding everything leaves nothing to pick
    res = find_connector(k4, empty(k4), K2, 0, 3, (1, 2), 1)
    assert res.status == solver.NONE
    res = find_connector(k4, empty(k4), K2, 0, 3, (), 1, budget=0)
    assert res.status == solver.INDETERMINATE


@pytest.mark.parametrize("u, v, w_set, t", [
    (99, 1, (), 1), (0, 6, (), 1), (-1, 1, (), 1), (0, 1, (-1,), 1), (0, 1, (6,), 1),
    (0, 1, (), 0), (0, 1, (), -1),
], ids=["u-high", "v-high", "u-negative", "w-negative", "w-high", "t-zero", "t-negative"])
def test_find_connector_rejects_input_outside_the_graph(u, v, w_set, t):
    # none would claim a proven absence, so bad input must not reach the search
    k6 = complete_graph(6)
    with pytest.raises(ValidationError):
        find_connector(k6, empty(k6), K2, u, v, w_set, t)


def test_find_connector_respects_t_ladder():
    # path 0-1-2-3-4: no size-1 interior joins 0 and 4, but {1,2,3} does at t=2
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    res = find_connector(g, empty(g), K2, 0, 4, (), 1)
    assert res.status == solver.NONE
    res = find_connector(g, empty(g), K2, 0, 4, (), 2)
    assert res.status == solver.FOUND and res.connector.s == (1, 2, 3)
    check = verify_connector(g, empty(g), K2, res.connector.s, 0, 4, 2)
    assert check.ok
    # the copies are enumerated once per search, not once per packing node
    assert res.expansions == 11
    res = find_connector(g, empty(g), K2, 0, 4, (), 2, budget=20)
    assert res.status == solver.FOUND and res.connector.s == (1, 2, 3)


def test_reachability_ladder():
    k6 = complete_graph(6)
    assert reachability_estimate(k6, empty(k6), K2, 0, 1, 0, 1).verdict == absorb.PROVEN
    assert reachability_estimate(k6, empty(k6), K2, 0, 1, 2, 1).verdict == absorb.PROVEN
    k4 = complete_graph(4)
    rep = reachability_estimate(k4, empty(k4), K2, 0, 1, 2, 1)
    assert rep.verdict == absorb.REFUTED and rep.witness == (2, 3)
    big = complete_graph(24)
    rep = reachability_estimate(big, empty(big), K2, 0, 1, 8, 1,
                                samples=5, exhaustive_cap=10)
    assert rep.verdict == absorb.SUPPORTED and rep.checked == 5


def test_concatenation_and_size_law():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    c1 = Connector(0, 2, (1,), 1)
    c2 = Connector(2, 4, (3,), 1)
    chained = concatenate_connectors(g, empty(g), K2, c1, c2)
    assert chained.s == (1, 2, 3) and chained.t == 2
    assert len(chained.s) == len(c1.s) + len(c2.s) + 1 <= 2 * (c1.t + c2.t) - 1
    with pytest.raises(ValidationError, match="chain"):
        concatenate_connectors(g, empty(g), K2, c1, Connector(3, 4, (), 1))
    overlap = Connector(2, 4, (1,), 1)
    with pytest.raises(ValidationError, match="overlap"):
        concatenate_connectors(g, empty(g), K2, c1, overlap)


def test_concatenation_k3_gadget():
    # triangles u-a1-b1, m-a1-b1 and m-a2-b2, v-a2-b2
    edges = [(3, 4), (0, 3), (0, 4), (1, 3), (1, 4),
             (5, 6), (1, 5), (1, 6), (2, 5), (2, 6)]
    g = Graph.from_edges(7, edges)
    c1 = Connector(0, 1, (3, 4), 1)
    c2 = Connector(1, 2, (5, 6), 1)
    chained = concatenate_connectors(g, empty(g), K3, c1, c2)
    assert chained.s == (1, 3, 4, 5, 6) and chained.t == 2
    assert len(chained.s) == 3 * chained.t - 1


def test_assemble_absorber_h2_and_h3():
    g = Graph.from_edges(6, [(2, 3), (0, 4), (4, 2), (1, 5), (5, 3)])
    conns = [Connector(0, 2, (4,), 1), Connector(1, 3, (5,), 1)]
    ab = assemble_absorber(g, empty(g), K2, (0, 1), (2, 3), conns)
    assert ab.a_set == (2, 3, 4, 5) and len(ab.a_set) <= 4 * ab.t
    with pytest.raises(ValidationError, match="exactly"):
        assemble_absorber(g, empty(g), K2, (0, 1), (2, 3), conns[:1])

    edges = [(3, 4), (4, 5), (3, 5)]          # T triangle
    interiors = [(6, 7), (8, 9), (10, 11)]
    for i, interior in enumerate(interiors):
        a, b = interior
        edges += [(a, b), (i, a), (i, b), (3 + i, a), (3 + i, b)]
    g3 = Graph.from_edges(12, edges)
    conns = [Connector(i, 3 + i, interiors[i], 1) for i in range(3)]
    ab = assemble_absorber(g3, empty(g3), K3, (0, 1, 2), (3, 4, 5), conns)
    assert len(ab.a_set) == 9 <= 9 * ab.t


def test_merge_via_transferral_two_block_gadget():
    edges = [(1, 2), (3, 5), (0, 6), (6, 1), (4, 7), (7, 5), (2, 8), (8, 3)]
    g = Graph.from_edges(10, edges)
    p = VertexPartition(10, ((0, 1, 2, 3, 6, 8, 9), (4, 5, 7)))
    fam_p = {(2, 0): [Embedding.from_phi(K2, (1, 2))]}
    fam_q = {(1, 1): [Embedding.from_phi(K2, (3, 5))]}
    conn = merge_via_transferral(g, empty(g), K2, p, 0, 4, fam_p, fam_q, t=1)
    assert conn.t == 1 + 1 + 1 * 2 * 1                    # t + C + t*h*C with C = 1
    assert len(conn.s) <= 2 * conn.t - 1
    assert verify_connector(g, empty(g), K2, conn.s, 0, 4, conn.t).ok
    # trivial C = 0 degenerates to a direct connector
    k4 = complete_graph(4)
    p4 = VertexPartition(4, ((0, 2), (1, 3)))
    conn0 = merge_via_transferral(k4, empty(k4), K2, p4, 0, 1, {}, {}, t=1)
    assert conn0.t == 1 and len(conn0.s) <= 1
    with pytest.raises(ValidationError, match="unbalanced"):
        merge_via_transferral(k4, empty(k4), K2, p4, 0, 1, fam_p, {}, t=1)


def test_merge_rejects_overlapping_families():
    k4 = complete_graph(4)
    p4 = VertexPartition(4, ((0, 2), (1, 3)))
    fam = {(1, 1): [Embedding.from_phi(K2, (2, 3))]}
    with pytest.raises(ValidationError):
        merge_via_transferral(k4, empty(k4), K2, p4, 2, 1, fam, fam, t=1)


def test_robust_vectors_ladder():
    k4 = complete_graph(4)
    p = VertexPartition(4, ((0, 1), (2, 3)))
    rep = robust_vectors(k4, empty(k4), K2, p, 0)
    assert rep.w_size == 0
    assert rep.robust_vectors() == [(0, 2), (1, 1), (2, 0)]
    # a vector realized by one copy dies to a targeted deletion
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
    p2 = VertexPartition(4, ((0, 1), (2, 3)))
    rep = robust_vectors(g, empty(g), K2, p2, "1/4")
    assert rep.vectors[(1, 1)].robust is False
    assert rep.vectors[(1, 1)].witness is not None
    assert rep.vectors[(2, 0)].robust is False


def test_absorbing_set_verifier():
    # K_6 with A = {0,1}: any residual pair completes to an edge... only if
    # the residual pair is an edge to the right partner; exhaustive over R
    k6 = complete_graph(6)
    rep = verify_absorbing_set(k6, empty(k6), K2, [0, 1], "1/3")
    assert rep.verdict == absorb.PROVEN
    g = Graph.from_edges(4, [(0, 1)])
    rep = verify_absorbing_set(g, empty(g), K2, [0, 1], "1/2")
    assert rep.verdict == absorb.REFUTED and rep.witness == (2, 3)


THIRDS = VertexPartition(12, ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)))


def test_sampled_verdicts_are_pinned():
    # exhaustive_cap=10 forces the sampled regime; the values pin the
    # seeded draw order (one generator shared across robust vectors)
    g = random_graph(12, .45, 0)
    rep = robust_vectors(g, random_bounded_system(g, "1/6", 0), K2, THIRDS, "1/3",
                         samples=12, seed=7, exhaustive_cap=10)
    assert rep.w_size == 4 and len(rep.vectors) == 6
    assert rep.robust_vectors() == [(1, 0, 1)]
    assert rep.vectors[(1, 0, 1)].verdict == absorb.SUPPORTED
    assert rep.vectors[(0, 0, 2)].witness == (1, 5, 8, 11)
    assert rep.vectors[(2, 0, 0)].witness == (3, 5, 6, 10)
    assert rep.vectors[(2, 0, 0)].verdict == absorb.PROVEN
    h = random_graph(12, .5, 3)
    fh = random_bounded_system(h, "1/6", 5)
    res = verify_absorbing_set(h, fh, K2, [0, 1], "1/3", samples=20, seed=2,
                               exhaustive_cap=10)
    assert (res.verdict, res.checked, res.witness) == (absorb.REFUTED, 4, (5, 11))
    res = reachability_estimate(h, fh, K2, 0, 1, 4, 1, samples=20, seed=7,
                                exhaustive_cap=10)
    assert (res.verdict, res.checked, res.total, res.witness) == \
        (absorb.REFUTED, 8, None, (3, 4, 6, 8))


@pytest.mark.parametrize("quantifier", ["reachability", "absorbing_set", "robust"])
@pytest.mark.parametrize("samples", [0, -3])
def test_sampling_needs_a_sample(quantifier, samples):
    # zero draws cannot support a "for every" claim
    big = complete_graph(12)
    f = empty(big)
    with pytest.raises(ValidationError, match="samples"):
        if quantifier == "reachability":
            reachability_estimate(big, f, K2, 0, 1, 4, 1, samples=samples,
                                  exhaustive_cap=10)
        elif quantifier == "absorbing_set":
            verify_absorbing_set(big, f, K2, [0, 1], "1/3", samples=samples,
                                 exhaustive_cap=10)
        else:
            sparse = Graph.from_edges(12, [(0, 4)])
            robust_vectors(sparse, empty(sparse), K2, THIRDS, "1/3",
                           samples=samples, exhaustive_cap=10)
