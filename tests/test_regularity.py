import random
from fractions import Fraction

import pytest

from comptile.errors import SizeCapError, ValidationError
from comptile.graphs import Graph, MultipartiteSpec, complete_multipartite, cycle_graph
from comptile.incompat import IncompatibilitySystem, random_bounded_system
from comptile.regularity import (check_degree_fact, check_partition_shape,
                                 check_slicing, counting_experiment, density,
                                 is_eps_regular_exhaustive, reduced_graph)

from .helpers import random_graph, random_system


def bipartite_between(nx, ny, edges):
    return Graph.from_edges(nx + ny, [(u, nx + v) for u, v in edges])


def test_density_examples():
    g, part = complete_multipartite(MultipartiteSpec((3, 4)))
    x, y = list(part.blocks[0]), list(part.blocks[1])
    assert density(g, x, y) == 1
    assert density(Graph(7, (0,) * 7), x, y) == 0
    c4 = cycle_graph(4)
    assert density(c4, [0, 2], [1, 3]) == 1      # C_4 = K_{2,2} across its bipartition
    with pytest.raises(ValidationError):
        density(c4, [], [1])
    with pytest.raises(ValidationError):
        density(c4, [0, 1], [1, 2])


@pytest.mark.parametrize("x, y", [([0], [5]), ([0], [-1]), ([7], [1]), ([0], [1, 2])],
                         ids=["y-high", "y-negative", "x-high", "y-partly-outside"])
def test_pair_sides_must_lie_in_the_graph(x, y):
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValidationError):
        density(g, x, y)
    with pytest.raises(ValidationError):
        is_eps_regular_exhaustive(g, x, y, Fraction(1, 4))


def test_density_symmetric():
    rng = random.Random(12)
    for _ in range(30):
        g = random_graph(10, 0.5, rng.getrandbits(30))
        xs, ys = [0, 1, 2, 3], [4, 5, 6]
        assert density(g, xs, ys) == density(g, ys, xs)


def test_regular_examples():
    g, part = complete_multipartite(MultipartiteSpec((5, 5)))
    x, y = list(part.blocks[0]), list(part.blocks[1])
    assert is_eps_regular_exhaustive(g, x, y, Fraction(1, 5)).regular
    # perfect matching between sides of size 8 is very irregular
    m = bipartite_between(8, 8, [(i, i) for i in range(8)])
    rep = is_eps_regular_exhaustive(m, list(range(8)), list(range(8, 16)),
                                    Fraction(1, 4))
    assert not rep.regular and rep.witness is not None
    a, b = rep.witness
    da = density(m, a, b)
    assert abs(da - rep.density) >= rep.eps      # the witness really violates
    # eps = 1: only A = X, B = Y qualify, so regularity is vacuous
    assert is_eps_regular_exhaustive(m, list(range(8)), list(range(8, 16)),
                                     Fraction(1)).regular


def test_regular_d_min_gate():
    g = bipartite_between(4, 4, [(0, 0)])
    rep = is_eps_regular_exhaustive(g, [0, 1, 2, 3], [4, 5, 6, 7],
                                    Fraction(1, 2), d_min=Fraction(1, 2))
    assert not rep.regular and "below" in rep.reason


def test_regular_cap():
    g = random_graph(30, 0.5, 1)
    with pytest.raises(SizeCapError):
        is_eps_regular_exhaustive(g, list(range(15)), list(range(15, 30)),
                                  Fraction(1, 4))


def test_regularity_antitone_in_eps():
    rng = random.Random(13)
    for _ in range(100):
        g = random_graph(12, rng.uniform(0.2, 0.9), rng.getrandbits(30))
        xs, ys = list(range(6)), list(range(6, 12))
        e1 = Fraction(rng.randint(1, 3), 10)
        e2 = e1 + Fraction(rng.randint(1, 4), 10)
        if is_eps_regular_exhaustive(g, xs, ys, e1).regular:
            assert is_eps_regular_exhaustive(g, xs, ys, e2).regular


def test_reduced_graph_examples():
    g, part = complete_multipartite(MultipartiteSpec((3, 3, 3)))
    red = reduced_graph(g, [list(b) for b in part.blocks], Fraction(1, 3), Fraction(1, 2))
    assert red.edges == ((0, 1), (0, 2), (1, 2))
    assert red.graph().m == 3
    # one empty pair: that edge is absent
    g2 = Graph.from_edges(6, [(u, v) for u in (0, 1) for v in (2, 3)])
    red2 = reduced_graph(g2, [[0, 1], [2, 3], [4, 5]], Fraction(1, 2), Fraction(1, 2))
    assert (0, 1) in red2.edges and len(red2.edges) == 1


def test_reduced_graph_c5_blowup():
    c5 = cycle_graph(5)
    blocks = [list(range(3 * i, 3 * i + 3)) for i in range(5)]
    edges = []
    for u, v in c5.edges():
        for a in blocks[u]:
            for b in blocks[v]:
                edges.append((a, b))
    g = Graph.from_edges(15, edges)
    red = reduced_graph(g, blocks, Fraction(1, 3), Fraction(1, 2))
    assert set(red.edges) >= {tuple(sorted(e)) for e in c5.edges()}


def test_slicing_identity_and_gates():
    g, part = complete_multipartite(MultipartiteSpec((6, 6)))
    x, y = list(part.blocks[0]), list(part.blocks[1])
    rep = check_slicing(g, x, y, x, y, Fraction(1, 4), Fraction(1, 2))
    assert rep.applicable and rep.holds and rep.d_slice == rep.d_original
    rep = check_slicing(g, x, y, x[:3], y[:3], Fraction(1, 4), Fraction(1, 2))
    assert rep.applicable and rep.holds
    # premise failure: pair not regular -> not applicable
    m = bipartite_between(6, 6, [(i, i) for i in range(6)])
    rep = check_slicing(m, list(range(6)), list(range(6, 12)),
                        list(range(3)), list(range(6, 9)),
                        Fraction(1, 4), Fraction(1, 2))
    assert not rep.applicable
    # eta <= eps is a premise failure too
    rep = check_slicing(g, x, y, x, y, Fraction(1, 2), Fraction(1, 4))
    assert not rep.applicable


def test_degree_fact():
    g, part = complete_multipartite(MultipartiteSpec((5, 5)))
    x, y = list(part.blocks[0]), list(part.blocks[1])
    rep = check_degree_fact(g, x, y, y, Fraction(1, 5), Fraction(1, 2))
    assert rep.applicable and rep.holds and rep.violators == 0
    rep = check_degree_fact(g, x, y, y[:1], Fraction(1, 5), Fraction(1, 2))
    assert rep.applicable                         # |B| = 1 >= eps|Y| = 1
    rep = check_degree_fact(g, x, y, [], Fraction(1, 5), Fraction(1, 2))
    assert not rep.applicable
    rng = random.Random(14)
    for _ in range(25):
        g = random_graph(12, rng.uniform(0.5, 0.95), rng.getrandbits(30))
        xs, ys = list(range(6)), list(range(6, 12))
        eps = Fraction(1, 3)
        b = ys[:rng.randint(2, 6)]
        rep = check_degree_fact(g, xs, ys, b, eps, Fraction(1, 4))
        if rep.applicable:
            assert rep.holds                      # the fact, checked instance-wise


def test_counting_experiment():
    g, part = complete_multipartite(MultipartiteSpec((4, 4, 4)))
    blocks = [list(b) for b in part.blocks]
    spec = MultipartiteSpec((1, 1, 1))
    empty = IncompatibilitySystem.empty(g)
    rep = counting_experiment(g, empty, blocks, spec)
    assert rep.total == rep.compatible == 64 and rep.product == 64
    assert rep.c_observed == 1
    f = random_system(g, 10, 3)
    rep2 = counting_experiment(g, f, blocks, spec)
    assert rep2.total == 64 and rep2.compatible <= 64
    # compatible count is antitone in the system
    f_more = f.with_added([t for t in random_system(g, 20, 4).triples()])
    rep3 = counting_experiment(g, f_more, blocks, spec)
    assert rep3.compatible <= rep2.compatible


def test_counting_experiment_random_tripartite():
    rng = random.Random(15)
    n_i = 8
    edges = []
    for i in range(3):
        for j in range(i + 1, 3):
            for a in range(n_i):
                for b in range(n_i):
                    if rng.random() < 0.5:
                        edges.append((i * n_i + a, j * n_i + b))
    g = Graph.from_edges(3 * n_i, edges)
    f = random_bounded_system(g, Fraction(5, 100), 7)
    blocks = [list(range(i * n_i, (i + 1) * n_i)) for i in range(3)]
    rep = counting_experiment(g, f, blocks, MultipartiteSpec((1, 1, 1)))
    assert rep.c_observed > 0


def test_partition_shape_validator():
    ok = check_partition_shape(20, 2, [6, 6, 6], Fraction(3, 10))
    assert ok.ok
    bad = check_partition_shape(20, 8, [4, 4, 4], Fraction(1, 10))
    assert not bad.ok and any("V_0" in p for p in bad.problems)
    bad = check_partition_shape(20, 2, [6, 6, 5], Fraction(3, 10))
    assert not bad.ok
