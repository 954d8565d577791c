import hashlib
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from comptile.errors import BudgetExceeded, SizeCapError, ValidationError
from comptile.graphs import (Graph, MultipartiteSpec, complete_graph, complete_multipartite,
                             cycle_graph)
from comptile.incompat import IncompatibilitySystem, random_bounded_system
from comptile import regularity
from comptile.oracles import raw_is_eps_regular
from comptile.regularity import (counting_experiment, density, is_eps_regular_exhaustive,
                                 reduced_graph)
from comptile.util import canonical_json

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
    g = random_graph(42, 0.5, 1)
    with pytest.raises(SizeCapError):
        is_eps_regular_exhaustive(g, list(range(21)), list(range(21, 42)),
                                  Fraction(1, 4))


def test_scan_agrees_with_oracle():
    rng = random.Random(16)
    for _ in range(300):
        nx, ny = rng.randint(1, 6), rng.randint(1, 6)
        n = nx + ny + rng.randint(0, 2)
        verts = rng.sample(range(n), nx + ny)
        xs, ys = verts[:nx], verts[nx:]
        g = random_graph(n, rng.random(), rng.getrandbits(30))
        eps = rng.choice([Fraction(1, 10**6), Fraction(1), Fraction(3, 2),
                          Fraction(rng.randint(1, 9), 10)])
        d_xy = density(g, xs, ys)
        for d_min in (None, d_xy, d_xy + Fraction(1, 100)):   # the gate passes, then fails
            rep = is_eps_regular_exhaustive(g, xs, ys, eps, d_min=d_min)
            assert (rep.regular, rep.witness) == raw_is_eps_regular(g, xs, ys, eps, d_min)


@pytest.mark.parametrize("eps", [Fraction(10**20), Fraction(3, 2)], ids=["1e20", "3/2"])
def test_eps_above_one_admits_no_sub_pair(eps):
    # no A or B reaches eps times its side, so the scan has nothing to check;
    # eps.numerator must never enter the int64 arithmetic
    g = random_graph(28, 0.5, 6)
    rep = is_eps_regular_exhaustive(g, range(14), range(14, 28), eps)
    assert rep.regular and rep.reason == "exhaustive scan passed" and rep.eps == eps
    rep = is_eps_regular_exhaustive(g, range(14), range(14, 28), eps, d_min=Fraction(1))
    assert not rep.regular and "below" in rep.reason


@pytest.mark.parametrize("side, seed, eps, dens, witness", [
    (12, 6, Fraction(2, 5), Fraction(11, 24), ((2, 4, 7, 10, 11), (13, 14, 19, 21, 22))),
    (13, 9, Fraction(3, 8), Fraction(90, 169), ((1, 3, 9, 11, 12), (14, 18, 20, 24, 25))),
    (14, 6, Fraction(2, 5), Fraction(97, 196),
     ((0, 6, 10, 11, 12, 13), (19, 21, 23, 24, 26, 27))),
])
def test_scan_witness_is_pinned(side, seed, eps, dens, witness):
    # values recorded by enumerating every B for every A; each witness A lies
    # past the first block of 2^10 A-masks
    g = random_graph(2 * side, 0.5, seed)
    rep = is_eps_regular_exhaustive(g, range(side), range(side, 2 * side), eps)
    assert (rep.regular, rep.density, rep.witness) == (False, dens, witness)
    assert abs(density(g, *witness) - dens) >= eps


def test_full_scan_memory_stays_small():
    # the A are scanned in blocks of at most C(10, 5) = 252 degree rows;
    # the rows of all 2^14 A-masks at once would hold about 16 MB
    g = random_graph(28, 0.5, 14)
    tracemalloc.start()
    try:
        rep = is_eps_regular_exhaustive(g, range(14), range(14, 28), Fraction(1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.regular                  # no early exit: every 7-vertex A was visited
    assert peak < 4 * 2**20, peak


def test_scan_reports_are_pinned():
    # 240 reports on sides 12-14 (99 irregular, 93 regular, 48 below d_min),
    # recorded by the scan that enumerated every A and, for the first
    # failing A, every B; the oracle cannot reach these sizes
    lines = []
    for seed in range(30):
        side = 12 + seed % 3
        g = random_graph(2 * side, (0.3, 0.5, 0.7)[seed // 3 % 3], seed)
        for eps in (Fraction(1, 5), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)):
            for d_min in (None, Fraction(2, 5)):
                rep = is_eps_regular_exhaustive(g, range(side), range(side, 2 * side), eps,
                                                d_min=d_min)
                lines.append(canonical_json(rep.to_json_dict()))
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "188296be593c0798c203df74f5bfaf0e7838a518a3036dbf530f2649462547d2"


def test_regular_scan_compares_two_extremes_per_minimum_size_a(monkeypatch):
    # at eps = 1/2 on sides of 14, a_min = 7: a regular pair costs one low
    # and one high comparison for each of the C(14, 7) = 3,432 A of 7 vertices
    compared = []
    deviates = regularity._deviates

    def counting(e, *args):
        compared.append(e.size)
        return deviates(e, *args)

    monkeypatch.setattr(regularity, "_deviates", counting)
    g = random_graph(28, 0.5, 14)
    assert is_eps_regular_exhaustive(g, range(14), range(14, 28), Fraction(1, 2)).regular
    assert sum(compared) == 2 * math.comb(14, 7) == 6864


def test_side_20_scans_stay_small():
    # the witness step walks the B of b_min vertices in blocks; a table of
    # all 2^20 B-subsets peaked at about 42 MB
    g = random_graph(40, 0.5, 3)
    tracemalloc.start()
    try:
        rep = is_eps_regular_exhaustive(g, range(20), range(20, 40), Fraction(1, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rep.regular and abs(density(g, *rep.witness) - rep.density) >= rep.eps
    assert peak < 4 * 2**20, peak
    start = time.process_time()
    tracemalloc.start()
    try:
        rep = is_eps_regular_exhaustive(g, range(20), range(20, 40), Fraction(1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.regular and peak < 4 * 2**20, peak
    assert time.process_time() - start < 5   # 0.12 s on a 2-vCPU VM


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
    f_more = IncompatibilitySystem(g, f.triples() + random_system(g, 20, 4).triples())
    rep3 = counting_experiment(g, f_more, blocks, spec)
    assert rep3.compatible <= rep2.compatible


def test_counting_experiment_rejects_an_empty_part():
    # an empty part made the observed constant Fraction(0, 0)
    k4 = complete_graph(4)
    with pytest.raises(ValidationError, match="part 0 is empty"):
        counting_experiment(k4, IncompatibilitySystem.empty(k4), [[], [1]],
                            MultipartiteSpec((1, 1)))


def test_counting_experiment_budget_cut_raises_budget_exceeded():
    # a cut leaves the counts open: indeterminate, not an oversized input
    g = complete_graph(6)
    with pytest.raises(BudgetExceeded):
        counting_experiment(g, IncompatibilitySystem.empty(g), [[0, 1], [2, 3], [4, 5]],
                            MultipartiteSpec((1, 1, 1)), budget=3)


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

