import random
from fractions import Fraction

import pytest

from comptile import oracles
from comptile.graphs import (Graph, MultipartiteSpec, complete_graph,
                             complete_multipartite, cycle_graph, empty_graph,
                             path_graph)
from comptile.incompat import IncompatibilitySystem, random_bounded_system
from comptile.solver import (FOUND, INDETERMINATE, NONE, Embedding,
                             enumerate_compatible_copies, enumerate_transversal_copies,
                             find_compatible_factor, good_pair, greedy_almost_tiling,
                             max_compatible_tiling, verify_tiling)

from comptile.util import mask_of

from .helpers import random_graph, random_system


def test_copy_enumeration_examples():
    k2, k3, k4 = complete_graph(2), complete_graph(3), complete_graph(4)
    assert len(enumerate_compatible_copies(k2, k3).copies) == 3
    assert len(enumerate_compatible_copies(k3, k4).copies) == 4
    f = IncompatibilitySystem(k4, [(0, 1, 2)])
    copies = enumerate_compatible_copies(k3, k4, f).copies
    assert len(copies) == 3
    assert all(e.vertices != (0, 1, 2) for e in copies)


def test_enumeration_matches_raw_oracle():
    rng = random.Random(17)
    patterns = [complete_graph(2), path_graph(3), complete_graph(3),
                path_graph(4), cycle_graph(4), complete_graph(4)]
    for _ in range(40):
        host = random_graph(rng.randint(2, 8), rng.uniform(0.3, 0.9),
                            rng.getrandbits(30))
        f = random_system(host, rng.randint(0, 8), rng.getrandbits(30))
        pattern = rng.choice([p for p in patterns if p.n <= host.n])
        enum = enumerate_compatible_copies(pattern, host, f)
        assert not enum.truncated
        fast = {(e.vertices, e.edges) for e in enum.copies}
        assert fast == oracles.raw_compatible_copies(pattern, host, f)


def test_factor_examples():
    k2, k3 = complete_graph(2), complete_graph(3)
    res = find_compatible_factor(k2, cycle_graph(4))
    assert res.status == FOUND and len(res.tiling) == 2
    res = find_compatible_factor(k3, complete_graph(4))
    assert res.status == NONE and res.reason == "divisibility"
    res = find_compatible_factor(k3, complete_multipartite(MultipartiteSpec((3, 1, 2)))[0])
    assert res.status == NONE and res.reason == "exhausted"
    assert res.expansions > 0


def test_factor_agrees_with_oracle_under_systems():
    rng = random.Random(23)
    for _ in range(40):
        nh = rng.randint(1, 4)
        pattern = random_graph(nh, 0.8, rng.getrandbits(30))
        ng = nh * rng.randint(1, max(1, 8 // nh))
        host = random_graph(ng, rng.uniform(0.4, 0.95), rng.getrandbits(30))
        f = random_system(host, rng.randint(0, 6), rng.getrandbits(30))
        res = find_compatible_factor(pattern, host, f)
        assert res.status in (FOUND, NONE)
        assert (res.status == FOUND) == oracles.raw_factor_exists(pattern, host, f)
        if res.status == FOUND:
            assert verify_tiling(host, f, pattern, res.tiling, require_cover=True)


def _induced_by_hand(host, f, s):
    """g[S] and the triples inside it, relabelled without the library's help."""
    sub, old = host.induced(s)
    pos = {v: i for i, v in enumerate(old)}
    return sub, IncompatibilitySystem(sub, [(pos[v], pos[a], pos[b])
                                            for v, a, b in set(f.triples())
                                            if {v, a, b} <= pos.keys()])


def test_pool_factor_agrees_with_oracle_on_induced_subgraph():
    rng = random.Random(29)
    for _ in range(60):
        nh = rng.randint(1, 3)
        pattern = random_graph(nh, 0.9, rng.getrandbits(30))
        host = random_graph(rng.randint(2, 10), rng.uniform(0.4, 0.95), rng.getrandbits(30))
        f = random_system(host, rng.randint(0, 12), rng.getrandbits(30))
        s = sorted(v for v in range(host.n) if rng.random() < 0.6)
        sub, sub_f = _induced_by_hand(host, f, s)
        res = find_compatible_factor(pattern, host, f, pool=mask_of(s))
        assert res.status in (FOUND, NONE)
        assert (res.status == FOUND) == oracles.raw_factor_exists(pattern, sub, sub_f)
        if res.status == FOUND:
            assert sorted(v for e in res.tiling.embeddings for v in e.vertices) == s
            assert verify_tiling(host, f, pattern, res.tiling)


def test_cover_agrees_with_oracle_under_pools_and_budgets():
    # a budget either cuts the search off or changes nothing: same status,
    # reason, expansions and tiling as the unbounded search
    rng = random.Random(37)
    for _ in range(120):
        nh = rng.randint(1, 3)
        pattern = random_graph(nh, 0.9, rng.getrandbits(30))
        host = random_graph(nh * rng.randint(1, 12 // nh), rng.uniform(0.4, 1.0),
                            rng.getrandbits(30))
        f = random_system(host, rng.randint(0, 12), rng.getrandbits(30))
        s = list(range(host.n))
        if rng.random() < 0.5:
            s = [v for v in s if rng.random() < 0.7]
        sub, sub_f = _induced_by_hand(host, f, s)
        res = find_compatible_factor(pattern, host, f, pool=mask_of(s))
        assert (res.status == FOUND) == oracles.raw_factor_exists(pattern, sub, sub_f)
        budget = rng.randint(0, 2 * res.expansions)
        cut = find_compatible_factor(pattern, host, f, budget=budget, pool=mask_of(s))
        if res.expansions <= budget or res.reason == "divisibility":
            assert (cut.status, cut.reason, cut.expansions, cut.tiling) == \
                (res.status, res.reason, res.expansions, res.tiling)
        else:
            assert (cut.status, cut.reason) == (INDETERMINATE, "budget")
            assert cut.expansions > budget


def _ko_base(n):
    big, small = n // 3 + 1, -(-n // 3) - 1
    return complete_multipartite(MultipartiteSpec((big, small, n - big - small)))[0]


@pytest.mark.parametrize("pattern, host, budget, status, expansions", [
    (complete_graph(3), _ko_base(15), None, NONE, 4_789),
    (complete_graph(3), _ko_base(21), 50_000, INDETERMINATE, 50_001),
    (complete_graph(2), cycle_graph(800), None, FOUND, 2_000),
], ids=["ko-base-15", "ko-base-21-capped", "cycle-800"])
def test_cover_search_effort_is_pinned(pattern, host, budget, status, expansions):
    # the branching rule (fewest admissible rows, then lowest vertex, rows
    # by ascending index) fixes every expansion count
    kwargs = {} if budget is None else {"budget": budget}
    res = find_compatible_factor(pattern, host, **kwargs)
    assert (res.status, res.expansions) == (status, expansions)


def test_factor_search_runs_without_recursion_on_deep_instances():
    # a K_2 tiling of a 2100-vertex perfect matching places 1050 copies
    n = 2100
    k2 = complete_graph(2)
    matching = Graph.from_edges(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
    res = find_compatible_factor(k2, matching)
    assert res.status == FOUND and len(res.tiling) == n // 2
    assert res.expansions == 4_200


def test_max_tiling_runs_without_recursion_on_deep_instances():
    n = 2100
    k2 = complete_graph(2)
    matching = Graph.from_edges(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
    res = max_compatible_tiling(k2, matching)
    assert res.optimal and len(res.tiling) == n // 2


def test_p3_factor_of_c6_under_centered_system():
    c6 = cycle_graph(6)
    p3 = path_graph(3)
    f = IncompatibilitySystem(c6, [(0, 1, 5), (3, 2, 4)])
    res = find_compatible_factor(p3, c6, f)
    assert (res.status == FOUND) == oracles.raw_factor_exists(p3, c6, f)


def test_budget_yields_indeterminate():
    k3 = complete_graph(3)
    host = complete_graph(15)
    res = find_compatible_factor(k3, host, budget=50)
    assert res.status == INDETERMINATE and res.reason == "budget"


def test_monotone_in_system():
    rng = random.Random(31)
    k3 = complete_graph(3)
    for _ in range(500):
        host = random_graph(rng.randint(3, 7), 0.8, rng.getrandbits(30))
        f = random_system(host, rng.randint(0, 4), rng.getrandbits(30))
        before = len(enumerate_compatible_copies(k3, host, f).copies)
        cand = []
        for v in range(host.n):
            nbrs = host.neighbors(v)
            for i in range(len(nbrs)):
                for j in range(i + 1, len(nbrs)):
                    cand.append((v, nbrs[i], nbrs[j]))
        if not cand:
            continue
        extra = rng.choice(cand)
        after = len(enumerate_compatible_copies(
            k3, host, f.with_added([extra])).copies)
        assert after <= before


def test_transversal_examples():
    g, part = complete_multipartite(MultipartiteSpec((2, 2)))
    blocks = [list(b) for b in part.blocks]
    assert len(enumerate_transversal_copies(
        MultipartiteSpec((1, 1)), g, None, blocks).copies) == 4
    assert len(enumerate_transversal_copies(
        MultipartiteSpec((2, 1)), g, None, blocks).copies) == 2


def test_transversal_counts_match_oracle():
    rng = random.Random(37)
    for _ in range(25):
        g = random_graph(9, 0.6, rng.getrandbits(30))
        f = random_system(g, rng.randint(0, 6), rng.getrandbits(30))
        parts = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        sizes = tuple(rng.randint(1, 2) for _ in range(3))
        fast = enumerate_transversal_copies(MultipartiteSpec(sizes), g, f, parts)
        slow = oracles.raw_transversal_count(sizes, g, f, parts)
        assert len(fast.copies) == slow
        for emb in fast.copies:
            counts = [len(set(emb.vertices) & set(p)) for p in parts]
            assert tuple(counts) == sizes


def test_greedy_tiling_maximal_and_seeded():
    k2 = complete_graph(2)
    g = random_graph(12, 0.5, 99)
    f = random_system(g, 5, 99)
    t1 = greedy_almost_tiling(k2, g, f, seed=1)
    t2 = greedy_almost_tiling(k2, g, f, seed=1)
    assert [e.vertices for e in t1.embeddings] == [e.vertices for e in t2.embeddings]
    assert verify_tiling(g, f, k2, t1)
    # maximality: no compatible copy inside the uncovered set
    pool = 0
    for v in t1.uncovered(g):
        pool |= 1 << v
    left = enumerate_compatible_copies(k2, g, f, pool=pool)
    assert len(left.copies) == 0
    # empty host: nothing covered
    t0 = greedy_almost_tiling(k2, empty_graph(6), None, seed=0)
    assert len(t0) == 0 and len(t0.uncovered(empty_graph(6))) == 6


def test_max_tiling_examples():
    k2, k3, k4 = complete_graph(2), complete_graph(3), complete_graph(4)
    res = max_compatible_tiling(k3, k4)
    assert len(res.tiling) == 1 and res.optimal
    res = max_compatible_tiling(k2, k4)
    assert len(res.tiling) == 2 and res.optimal
    base = complete_multipartite(MultipartiteSpec((3, 1, 2)))[0]
    res = max_compatible_tiling(k3, base)
    assert len(res.tiling) == 1 and res.optimal


def test_max_tiling_never_below_greedy():
    rng = random.Random(41)
    k3 = complete_graph(3)
    for _ in range(15):
        g = random_graph(9, 0.7, rng.getrandbits(30))
        f = random_system(g, rng.randint(0, 5), rng.getrandbits(30))
        greedy = greedy_almost_tiling(k3, g, f, seed=0)
        best = max_compatible_tiling(k3, g, f)
        assert best.optimal and len(best.tiling) >= len(greedy)


def test_good_pair_semantics():
    k3 = complete_graph(3)
    k5 = complete_graph(5)
    emb = Embedding.from_phi(k3, (0, 1, 2))
    f0 = IncompatibilitySystem.empty(k5)
    assert good_pair(k5, f0, 3, emb)
    f1 = IncompatibilitySystem(k5, [(3, 0, 1)])       # {3-0, 3-1} clash at 3
    assert not good_pair(k5, f1, 3, emb)
    f2 = IncompatibilitySystem(k5, [(0, 3, 1)])       # new edge 3-0 vs copy edge 0-1 at 0
    assert not good_pair(k5, f2, 3, emb)
    host = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (3, 0), (3, 1)])  # 3-2 missing
    assert not good_pair(host, IncompatibilitySystem.empty(host), 3, emb)


def test_triangle_deficit_bound_on_complete_hosts():
    # deficit (all triangles - compatible ones) stays under mu * n^3
    rng = random.Random(43)
    k3 = complete_graph(3)
    for trial in range(100):
        n = rng.choice((15, 20, 25, 40)) if trial % 10 == 0 else rng.choice((15, 20))
        mu = Fraction(rng.choice((2, 5)), 100)
        host = complete_graph(n)
        f = random_bounded_system(host, mu, rng.getrandbits(30))
        total = n * (n - 1) * (n - 2) // 6
        compatible = len(enumerate_compatible_copies(k3, host, f).copies)
        assert total - compatible <= mu * n ** 3
