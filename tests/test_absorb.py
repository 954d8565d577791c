import math
import random
import signal
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comptile import absorb, solver
from comptile.absorb import (Connector, assemble_absorber, concatenate_connectors,
                             find_connector, merge_via_transferral,
                             reachability_estimate, robust_vectors,
                             verify_absorber, verify_absorbing_set, verify_connector)
from comptile.errors import ValidationError
from comptile.graphs import Graph, VertexPartition, complete_graph
from comptile.incompat import IncompatibilitySystem, random_bounded_system
from comptile.oracles import raw_compatible_copies
from comptile.solver import Embedding
from comptile.util import mask_of

from .helpers import random_graph

DEFAULT_CAP = absorb.DEFAULT_EXHAUSTIVE_CAP

K2 = complete_graph(2)
K3 = complete_graph(3)
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])


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
    k7 = complete_graph(7)
    res = verify_absorber(k7, empty(k7), K2, [0, 1], [2, 3, 4, 5, 6], 1)   # |A| = 5 > 4
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
    # 9 for the one enumeration of G - W plus 5 for the candidates' factor
    # searches, which take their copies from it
    assert res.expansions == 14
    res = find_connector(g, empty(g), K2, 0, 4, (), 2, budget=14)
    assert res.status == solver.FOUND and res.connector.s == (1, 2, 3)
    res = find_connector(g, empty(g), K2, 0, 4, (), 2, budget=13)
    assert res.status == solver.INDETERMINATE


@pytest.mark.parametrize("budget", [300, solver.DEFAULT_BUDGET])
@pytest.mark.parametrize("u, v", [(0, 1), (3, 7)])
def test_find_connector_charges_its_factor_searches(monkeypatch, u, v, budget):
    g = random_graph(14, .6, 18)
    f = random_bounded_system(g, "1/4", 18)
    # W is empty, so the one enumeration is of all of g
    enumeration = solver.enumerate_compatible_copies(K3, g, f)
    spent = []
    real = solver.find_compatible_factor

    def recorded(*args, **kwargs):
        res = real(*args, **kwargs)
        spent.append(res.expansions)
        return res

    monkeypatch.setattr(solver, "find_compatible_factor", recorded)

    def charged(budget):
        spent.clear()
        res = find_connector(g, f, K3, u, v, (), 2, budget=budget)
        assert res.expansions == enumeration.expansions + sum(spent)
        return res

    res = charged(budget)
    # the candidates' searches take their copies from the one enumeration, so
    # 300 decides both pairs (it decided neither when each search enumerated)
    assert res.status != solver.INDETERMINATE
    assert res.expansions == {(0, 1): 241, (3, 7): 220}[u, v] <= budget
    assert charged(res.expansions - 1).status == solver.INDETERMINATE


def test_connector_ladder_stops_at_the_largest_union():
    # no two disjoint edges of 0-1-2-3 miss 3, so the size ladder ends at
    # j = 2 whatever t is; it used to climb all the way to t
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])

    def too_slow(signum, frame):
        raise TimeoutError("the connector size ladder climbed towards t")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        res = find_connector(g, empty(g), K2, 0, 3, t=10**9, budget=100)
        rep = reachability_estimate(g, empty(g), K2, 0, 3, 0, 10**9, budget=100)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert res == find_connector(g, empty(g), K2, 0, 3, t=1, budget=100)
    assert (res.status, res.expansions) == (solver.NONE, 8)
    assert (rep.verdict, rep.witness) == (absorb.REFUTED, ())


def test_find_connector_enumerates_g_minus_w(monkeypatch):
    g = random_graph(14, .6, 18)
    f = random_bounded_system(g, "1/4", 18)
    u, v, w_set = 0, 1, (3, 5, 6)
    enumeration = solver.enumerate_compatible_copies(
        K3, g, f, pool=((1 << g.n) - 1) & ~mask_of(w_set))
    spent = []
    real = solver.find_compatible_factor

    def recorded(*args, **kwargs):
        res = real(*args, **kwargs)
        spent.append(res.expansions)
        return res

    monkeypatch.setattr(solver, "find_compatible_factor", recorded)
    res = find_connector(g, f, K3, u, v, w_set, 2)
    assert res.status == solver.FOUND and not set(res.connector.s) & set(w_set)
    # the one enumeration is of G - W, not of the host, plus the candidates' searches
    assert res.expansions == enumeration.expansions + sum(spent) == 102
    assert enumeration.expansions < solver.enumerate_compatible_copies(K3, g, f).expansions
    assert find_connector(g, f, K3, u, v, w_set, 2, budget=101).status == solver.INDETERMINATE


def test_reachability_ladder(monkeypatch):
    k6 = complete_graph(6)
    assert reachability_estimate(k6, empty(k6), K2, 0, 1, 0, 1).verdict == absorb.PROVEN
    assert reachability_estimate(k6, empty(k6), K2, 0, 1, 2, 1).verdict == absorb.PROVEN
    k4 = complete_graph(4)
    rep = reachability_estimate(k4, empty(k4), K2, 0, 1, 2, 1)
    assert rep.verdict == absorb.REFUTED and rep.witness == (2, 3)
    big = complete_graph(24)
    monkeypatch.setattr(absorb, "DEFAULT_EXHAUSTIVE_CAP", 10)
    rep = reachability_estimate(big, empty(big), K2, 0, 1, 8, 1, samples=5)
    assert rep.verdict == absorb.SUPPORTED and rep.checked == 5


@pytest.mark.parametrize("pattern, u, v, m, t", [
    (Graph(0, ()), 0, 1, 1, 1), (K2, 99, 1, 1, 1), (K2, 0, 6, 1, 1), (K2, -1, 1, 1, 1),
    (K2, 2, 2, 1, 1), (K2, 0, 1, 1, 0), (K2, 0, 1, 1, -1), (K2, 0, 1, -1, 1),
], ids=["empty-pattern", "u-high", "v-high", "u-negative", "u-equals-v", "t-zero",
        "t-negative", "m-negative"])
def test_reachability_rejects_bad_input_before_any_search(monkeypatch, pattern, u, v, m, t):
    # a verdict here would be vacuous or claim a proven absence
    def no_search(*args, **kwargs):
        raise AssertionError("searched before checking the input")

    monkeypatch.setattr(solver, "enumerate_compatible_copies", no_search)
    k6 = complete_graph(6)
    with pytest.raises(ValidationError):
        reachability_estimate(k6, empty(k6), pattern, u, v, m, t)


def _reach_by_find_connector(g, f, pattern, u, v, m, t, samples, seed, exhaustive_cap):
    """Reference: one full find_connector per W, the W in the quantifier's order."""
    others = [x for x in range(g.n) if x not in (u, v)]
    population = math.comb(len(others), m)
    exhaustive = population <= exhaustive_cap
    rng = random.Random(seed)
    ws = (combinations(others, m) if exhaustive else
          (tuple(sorted(rng.sample(others, m))) for _ in range(samples)))
    total = population if exhaustive else None
    checked = 0
    for w_set in ws:
        status = find_connector(g, f, pattern, u, v, w_set, t).status
        if status == solver.INDETERMINATE:
            return absorb.ReachReport(absorb.INDETERMINATE, checked, total)
        if status == solver.NONE:
            return absorb.ReachReport(absorb.REFUTED, checked, total, tuple(w_set))
        checked += 1
    return absorb.ReachReport(absorb.PROVEN if exhaustive else absorb.SUPPORTED,
                              checked, total)


def test_reachability_matches_a_find_connector_per_w(monkeypatch):
    rng = random.Random(9)
    verdicts = Counter()
    for i in range(70):
        n = rng.randint(5, 11)
        g = random_graph(n, rng.choice([.5, .7, .9]), rng.randrange(1 << 20))
        f = random_bounded_system(g, rng.choice(["0", "1/8", "1/4"]), rng.randrange(1 << 20))
        pattern, t = rng.choice([K2, K3]), rng.choice([1, 2])
        m, cap = rng.randint(0, min(3, n - 2)), rng.choice([DEFAULT_CAP, 3])
        u, v = rng.sample(range(n), 2)
        args = (g, f, pattern, u, v, m, t)
        monkeypatch.setattr(absorb, "DEFAULT_EXHAUSTIVE_CAP", cap)
        rep = reachability_estimate(*args, samples=5, seed=i)
        assert rep == _reach_by_find_connector(*args, 5, i, cap), (i, rep)
        verdicts[rep.verdict] += 1
    # both regimes, and REFUTED witnesses, are exercised
    assert min(verdicts[v] for v in (absorb.PROVEN, absorb.SUPPORTED, absorb.REFUTED)) >= 5


@given(seed=st.integers(0, 2**30))
def test_reachability_matches_the_definition_when_exhaustive(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 10)
    g = random_graph(n, rng.choice([.5, .7, .9]), rng.getrandbits(30))
    f = random_bounded_system(g, rng.choice(["0", "1/8", "1/4"]), rng.getrandbits(30))
    pattern, t = rng.choice([K2, K3, P3]), rng.choice([1, 2])
    u, v = rng.sample(range(n), 2)
    m = rng.randint(0, min(4, n - 2))
    assert math.comb(n - 2, m) <= DEFAULT_CAP
    want = _reach_by_find_connector(g, f, pattern, u, v, m, t, 1, 0, DEFAULT_CAP)
    assert reachability_estimate(g, f, pattern, u, v, m, t) == want


def test_reachability_verifies_each_candidate_once(monkeypatch):
    k8 = complete_graph(8)
    calls = []
    real = absorb._factor_gate

    def recorded(g, f, pattern, named_sets, *args):
        calls.append(tuple(tuple(sorted(vertices)) for _, vertices in named_sets))
        return real(g, f, pattern, named_sets, *args)

    monkeypatch.setattr(absorb, "_factor_gate", recorded)
    rep = reachability_estimate(k8, empty(k8), K2, 0, 1, 2, 1)
    assert (rep.verdict, rep.checked) == (absorb.PROVEN, 15)
    # 15 W, but only the interiors {2}, {3} and {4} are ever first to avoid
    # one; each goes to the gate once, as S u {u} and S u {v}
    assert sorted(calls) == [((0, 2), (1, 2)), ((0, 3), (1, 3)), ((0, 4), (1, 4))]


def test_reachability_budget_covers_the_whole_call():
    k8 = complete_graph(8)
    f = empty(k8)
    host = solver.enumerate_compatible_copies(K2, k8, f)
    assert host.expansions == 36
    budget = host.expansions - 1
    rep = reachability_estimate(k8, f, K2, 0, 1, 2, 1, budget=budget)
    assert (rep.verdict, rep.checked, rep.witness) == (absorb.INDETERMINATE, 0, None)
    # every W's own search decides at that budget: the regime where sharing is stricter
    assert all(find_connector(k8, f, K2, 0, 1, w_set, 1, budget=budget).status == solver.FOUND
               for w_set in combinations(range(2, 8), 2))
    # the enumeration and the three distinct candidates' checks share one budget,
    # each check's two searches spending 2 on the host's copies; `checked`
    # counts the W proven before the cut
    for extra, want in ((1, (absorb.INDETERMINATE, 0)), (2, (absorb.INDETERMINATE, 1)),
                        (5, (absorb.INDETERMINATE, 5)), (6, (absorb.PROVEN, 15))):
        rep = reachability_estimate(k8, f, K2, 0, 1, 2, 1, budget=host.expansions + extra)
        assert (rep.verdict, rep.checked) == want, extra


def test_factor_gate_budget_covers_one_enumeration_and_both_searches():
    k6 = complete_graph(6)
    f = empty(k6)
    union = solver.enumerate_compatible_copies(K3, k6, f, pool=mask_of([0, 1, 2, 3]))
    assert union.expansions == 14
    res = verify_connector(k6, f, K3, [2, 3], 0, 1, 1)
    assert (res.status, res.expansions) == (absorb.PROVEN, 16)  # 14 + 1 per search
    res = verify_connector(k6, f, K3, [2, 3], 0, 1, 1, budget=15)
    assert (res.status, res.reason) == (absorb.INDETERMINATE,
                                        "G[S u {v}] factor search hit budget")
    # G[S u {u}] alone decides at 8, its own enumeration included; the gate's
    # enumeration of S u {u, v} does not fit: sharing is stricter there
    alone = solver.find_compatible_factor(K3, k6, f, budget=8, pool=mask_of([0, 2, 3]))
    assert alone.status == solver.FOUND
    res = verify_connector(k6, f, K3, [2, 3], 0, 1, 1, budget=8)
    assert (res.status, res.reason, res.expansions) == (
        absorb.INDETERMINATE,
        "copy enumeration of the union of G[S u {u}], G[S u {v}] hit budget", 9)
    # an enumeration handed in is the caller's to charge: the budget covers the searches
    host = solver.enumerate_compatible_copies(K3, k6, f)
    sets = (("S u {u}", [2, 3, 0]), ("S u {v}", [2, 3, 1]))
    shared = absorb._factor_gate(k6, f, K3, sets, 2, host)
    full = verify_connector(k6, f, K3, [2, 3], 0, 1, 1)
    assert (shared.status, shared.reason, shared.tilings, full.expansions) == (
        full.status, full.reason, full.tilings, 16)
    assert (shared.status, shared.expansions) == (absorb.PROVEN, 2)
    assert absorb._factor_gate(k6, f, K3, sets, 1, host).status == absorb.INDETERMINATE
    too_small = solver.enumerate_compatible_copies(K3, k6, f, pool=mask_of([0, 2, 3]))
    with pytest.raises(ValidationError, match="misses vertices"):
        absorb._factor_gate(k6, f, K3, sets, solver.DEFAULT_BUDGET, too_small)


def test_a_decided_gate_spends_at_most_its_budget():
    # a set size h does not divide refutes before anything is enumerated
    k6 = complete_graph(6)
    res = verify_absorber(k6, empty(k6), K3, [0, 1, 2], [3, 4], 1, budget=0)
    assert (res.status, res.reason, res.expansions) == (
        absorb.REFUTED, "G[A] has no compatible factor", 0)
    rng = random.Random(23)
    seen = Counter()
    for _ in range(150):
        n = rng.randint(5, 9)
        g = random_graph(n, rng.choice([.5, .8, 1.]), rng.randrange(1 << 20))
        f = random_bounded_system(g, rng.choice(["0", "1/4"]), rng.randrange(1 << 20))
        pattern = rng.choice([K2, K3])
        h = pattern.n
        budget = rng.randint(0, 40)
        if rng.random() < .5:
            u, v, *s_set = rng.sample(range(n), rng.randint(2, min(n, 2 * h + 1)))
            res = verify_connector(g, f, pattern, s_set, u, v, 2, budget=budget)
        else:
            vs = rng.sample(range(n), rng.randint(h, n))
            res = verify_absorber(g, f, pattern, vs[:h], vs[h:], 2, budget=budget)
        if res.status != absorb.INDETERMINATE:
            assert res.expansions <= budget, res
        seen[res.status] += 1
    assert min(seen.values()) >= 10 and len(seen) == 3, seen


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


def test_merge_pairs_the_family_vertices_block_by_block(monkeypatch):
    k16 = complete_graph(16)
    p = VertexPartition(16, ((0, 1, 2, 3, 12, 13), (4, 5, 6, 7, 14), (8, 9, 10, 11, 15)))
    fam_p = {(1, 0, 1): [Embedding.from_phi(K2, (1, 8))],
             (0, 1, 1): [Embedding.from_phi(K2, (9, 14))]}
    fam_q = {(0, 1, 1): [Embedding.from_phi(K2, (6, 10)), Embedding.from_phi(K2, (7, 11))]}
    calls = []
    real = absorb.find_connector

    def recorded(g, f, pattern, a, b, *args, **kwargs):
        calls.append((a, b))
        return real(g, f, pattern, a, b, *args, **kwargs)

    monkeypatch.setattr(absorb, "find_connector", recorded)
    conn = merge_via_transferral(k16, empty(k16), K2, p, 0, 4, fam_p, fam_q, t=1)
    assert conn == Connector(0, 4, (1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14), 1 + 2 + 4)
    # x to x_1 (fam_p's least in x's block), y to y_1 (fam_q's least in y's),
    # then the rest of fam_p in order, each to fam_q's next in its block
    assert calls == [(0, 1), (4, 6), (8, 10), (9, 11), (14, 7)]


@pytest.mark.parametrize("n, x, y, match", [
    (8, 0, 1, "partition"), (6, 0, 9, "lie in the graph"), (6, -1, 0, "lie in the graph"),
], ids=["partition-of-8", "y-high", "x-negative"])
def test_merge_rejects_a_partition_or_endpoint_off_the_graph(n, x, y, match):
    # y = 9 used to escape as a bare IndexError from the partition lookup
    k6 = complete_graph(6)
    p = VertexPartition(n, (tuple(range(0, n, 2)), tuple(range(1, n, 2))))
    with pytest.raises(ValidationError, match=match):
        merge_via_transferral(k6, empty(k6), K2, p, x, y, {}, {}, t=1)


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


def test_robust_vectors_claim_no_refutation_from_a_truncated_enumeration():
    k9 = complete_graph(9)
    thirds = VertexPartition(9, ((0, 1, 2), (3, 4, 5), (6, 7, 8)))
    full = robust_vectors(k9, empty(k9), K3, thirds, "1/9")
    assert not full.enumeration_truncated
    assert full.vectors[(1, 1, 1)].robust and full.vectors[(1, 1, 1)].verdict == absorb.PROVEN
    cut = robust_vectors(k9, empty(k9), K3, thirds, "1/9", budget=20)
    assert cut.enumeration_truncated and (1, 1, 1) in cut.vectors
    # W = {0} hits every copy found before the cut, but not every copy
    for rep in cut.vectors.values():
        assert (rep.robust, rep.verdict, rep.witness) == (False, absorb.INDETERMINATE, None)


def _first_hitting_set_by_brute_force(masks, n, w):
    for w_set in combinations(range(n), w):
        w_mask = mask_of(w_set)
        if all(msk & w_mask for msk in masks):
            return w_set
    return None


@settings(max_examples=300)
@given(n=st.integers(0, 11), data=st.data())
def test_first_hitting_set_matches_brute_force(n, data):
    small = st.sets(st.integers(0, n - 1), max_size=4).map(mask_of) if n else st.just(0)
    masks = data.draw(st.lists(st.one_of(small, st.integers(0, (1 << n) - 1)), max_size=12))
    for w in range(n + 1):
        assert absorb._first_hitting_set(masks, n, w) == \
            _first_hitting_set_by_brute_force(masks, n, w), (masks, w)


def test_first_hitting_set_prunes_the_walk():
    # every 27-set of K_30 misses a triangle and every 28-set meets all of them;
    # branching on a missed triangle instead ran for over a minute on the first
    triangles = [mask_of(c) for c in combinations(range(30), 3)]
    assert len(triangles) == 4060
    start = time.process_time()
    assert absorb._first_hitting_set(triangles, 30, 27) is None
    assert absorb._first_hitting_set(triangles, 30, 28) == tuple(range(28))
    assert time.process_time() - start < 5


@given(seed=st.integers(0, 2**30))
def test_robust_vectors_match_a_walk_over_every_w(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 10)
    g = random_graph(n, rng.choice([.4, .7, 1.]), rng.getrandbits(30))
    f = random_bounded_system(g, rng.choice(["0", "1/4"]), rng.getrandbits(30))
    pattern = rng.choice([K2, K3, P3])
    order = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, 2)))
    p = VertexPartition(n, tuple(tuple(order[a:b]) for a, b in zip([0, *cuts], [*cuts, n])))
    beta = Fraction(rng.randint(0, n), n)
    rep = robust_vectors(g, f, pattern, p, beta)
    w = math.floor(beta * n)
    by_vector = {}
    for vertices, _ in raw_compatible_copies(pattern, g, f):
        vec = tuple(sum(x in blk for x in vertices) for blk in p.blocks)
        by_vector.setdefault(vec, []).append(mask_of(vertices))
    assert (rep.w_size, rep.enumeration_truncated) == (w, False)
    assert sorted(rep.vectors) == sorted(by_vector)
    for vec, masks in by_vector.items():
        killer = _first_hitting_set_by_brute_force(masks, n, w)
        got = rep.vectors[vec]
        assert (got.robust, got.verdict, got.witness) == (killer is None, absorb.PROVEN, killer)


@pytest.mark.parametrize("n", [3, 8])
def test_robust_vectors_reject_a_partition_of_another_ground_set(n):
    # with n = 3 this used to answer whenever no copy reached vertex 3 or above
    g = Graph.from_edges(6, [(0, 1), (1, 2)])
    p = VertexPartition(n, (tuple(range(n)),))
    with pytest.raises(ValidationError, match="partition"):
        robust_vectors(g, empty(g), K2, p, 0)


@pytest.mark.parametrize("beta", [2, "-1/3"])
def test_robust_vectors_reject_beta_outside_the_unit_interval(beta):
    # beta=2 asks for |W| = 12 > n and used to prove every vector robust vacuously
    k6 = complete_graph(6)
    p = VertexPartition(6, ((0, 1), (2, 3), (4, 5)))
    with pytest.raises(ValidationError, match="beta"):
        robust_vectors(k6, empty(k6), K2, p, beta)


@pytest.mark.parametrize("kind, s_set, a_set, u, v", [
    ("absorbing-set", (), (0, 99), 0, 1),
    ("absorbing-set", (), (-1, 0), 0, 1),
    ("absorber", (0, 1, 99, 100), (3, 4, 5), 0, 1),
    ("absorber", (0, 1, 2), (-3, 4, 5), 0, 1),
    ("connector", (99,), (), 50, 50),
    ("connector", (2,), (), 0, -1),
], ids=["absorbing-set-high", "absorbing-set-negative", "absorber-s-high",
        "absorber-a-negative", "connector-s-and-ends-high", "connector-v-negative"])
def test_verifiers_reject_vertices_outside_the_graph(kind, s_set, a_set, u, v):
    # a verdict here would be vacuous (proven) or claim a proven absence (refuted)
    k6 = complete_graph(6)
    with pytest.raises(ValidationError, match="lie in the graph"):
        if kind == "absorbing-set":
            verify_absorbing_set(k6, empty(k6), K3, a_set, 0)
        elif kind == "absorber":
            verify_absorber(k6, empty(k6), K3, s_set, a_set, 1)
        else:
            verify_connector(k6, empty(k6), K3, s_set, u, v, 1)


@pytest.mark.parametrize("kind, u, v, t, match", [
    ("absorber", 0, 1, 0, "t must be >= 1"), ("absorber", 0, 1, -1, "t must be >= 1"),
    ("connector", 0, 1, 0, "t must be >= 1"), ("connector", 0, 1, -1, "t must be >= 1"),
    ("connector", 0, 0, 1, "endpoints must differ"),
], ids=["absorber-t-zero", "absorber-t-negative", "connector-t-zero",
        "connector-t-negative", "connector-u-equals-v"])
def test_verifiers_reject_bad_parameters(kind, u, v, t, match):
    # a refutation here would claim a proven absence; find_connector rejects the same input
    k6 = complete_graph(6)
    with pytest.raises(ValidationError, match=match):
        if kind == "absorber":
            verify_absorber(k6, empty(k6), K2, [0, 1], [2, 3], t)
        else:
            verify_connector(k6, empty(k6), K2, [2], u, v, t)


def test_absorbing_set_without_admissible_residual_holds_vacuously(monkeypatch):
    # |A| = 1 and xi*n = 0: the only residual, R empty, leaves 1 vertex, which
    # h = 3 does not divide, so no R is admissible and nothing is enumerated
    def no_search(*args, **kwargs):
        raise AssertionError("enumerated with no residual to check")

    monkeypatch.setattr(solver, "enumerate_compatible_copies", no_search)
    k6 = complete_graph(6)
    rep = verify_absorbing_set(k6, empty(k6), K3, [0], 0)
    assert (rep.verdict, rep.checked, rep.witness) == (absorb.PROVEN, 0, None)


def test_absorbing_set_residuals_never_outgrow_the_outside():
    # xi*n = 60 exceeds the 28 vertices outside A; sampled sizes stop at 28
    k30 = complete_graph(30)
    rep = verify_absorbing_set(k30, empty(k30), K2, [0, 1], 2, samples=3)
    assert (rep.verdict, rep.checked) == (absorb.SUPPORTED, 3)


def test_absorbing_set_verifier():
    # K_6 with A = {0,1}: any residual pair completes to an edge... only if
    # the residual pair is an edge to the right partner; exhaustive over R
    k6 = complete_graph(6)
    rep = verify_absorbing_set(k6, empty(k6), K2, [0, 1], "1/3")
    assert rep.verdict == absorb.PROVEN
    with pytest.raises(ValidationError, match="xi"):     # no R would be checked
        verify_absorbing_set(k6, empty(k6), K2, [0, 1], "-1/2")
    g = Graph.from_edges(4, [(0, 1)])
    rep = verify_absorbing_set(g, empty(g), K2, [0, 1], "1/2")
    assert rep.verdict == absorb.REFUTED and rep.witness == (2, 3)


def test_absorbing_set_budget_covers_the_host_enumeration_and_each_search(monkeypatch):
    k6 = complete_graph(6)
    f = empty(k6)
    host = solver.enumerate_compatible_copies(K2, k6, f)
    assert host.expansions == 21
    residuals = [r for s in (0, 2) for r in combinations(range(2, 6), s)]
    alone = [solver.find_compatible_factor(K2, k6, f, pool=mask_of((0, 1, *r)))
             for r in residuals]
    assert all(res.status == solver.FOUND for res in alone)
    assert max(res.expansions for res in alone) == 12
    # every R's own search decides at 12, but the host enumeration does not fit
    rep = verify_absorbing_set(k6, f, K2, [0, 1], "1/3", budget=12)
    assert (rep.verdict, rep.checked) == (absorb.INDETERMINATE, 0)
    # each check is the enumeration plus its own search: 21 + 1 for R empty,
    # 21 + 2 for each pair
    rep = verify_absorbing_set(k6, f, K2, [0, 1], "1/3", budget=22)
    assert (rep.verdict, rep.checked) == (absorb.INDETERMINATE, 1)
    rep = verify_absorbing_set(k6, f, K2, [0, 1], "1/3", budget=23)
    assert (rep.verdict, rep.checked) == (absorb.PROVEN, 7)
    # with R empty only, A alone is enumerated: A's own search budget suffices
    rep = verify_absorbing_set(k6, f, K2, [0, 1], "0", budget=alone[0].expansions)
    assert (rep.verdict, rep.checked) == (absorb.PROVEN, 1)
    # a sampled check enumerates each sample's own A u R, so 12 decides it
    monkeypatch.setattr(absorb, "DEFAULT_EXHAUSTIVE_CAP", 1)
    rep = verify_absorbing_set(k6, f, K2, [0, 1], "1/3", samples=5, budget=12)
    assert (rep.verdict, rep.checked) == (absorb.SUPPORTED, 5)


THIRDS = VertexPartition(12, ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)))


def test_sampled_verdicts_are_pinned(monkeypatch):
    # a cap of 10 forces the sampled regime; the values pin the
    # seeded draw order (one generator shared across robust vectors)
    monkeypatch.setattr(absorb, "DEFAULT_EXHAUSTIVE_CAP", 10)
    g = random_graph(12, .45, 0)
    rep = robust_vectors(g, random_bounded_system(g, "1/6", 0), K2, THIRDS, "1/3",
                         samples=12, seed=7)
    assert rep.w_size == 4 and len(rep.vectors) == 6
    assert rep.robust_vectors() == [(1, 0, 1)]
    assert rep.vectors[(1, 0, 1)].verdict == absorb.SUPPORTED
    assert rep.vectors[(0, 0, 2)].witness == (1, 5, 8, 11)
    assert rep.vectors[(2, 0, 0)].witness == (3, 5, 6, 10)
    assert rep.vectors[(2, 0, 0)].verdict == absorb.PROVEN
    h = random_graph(12, .5, 3)
    fh = random_bounded_system(h, "1/6", 5)
    res = verify_absorbing_set(h, fh, K2, [0, 1], "1/3", samples=20, seed=2)
    assert (res.verdict, res.checked, res.witness) == (absorb.REFUTED, 4, (5, 11))
    res = reachability_estimate(h, fh, K2, 0, 1, 4, 1, samples=20, seed=7)
    assert (res.verdict, res.checked, res.total, res.witness) == \
        (absorb.REFUTED, 8, None, (3, 4, 6, 8))


@pytest.mark.parametrize("quantifier", ["reachability", "absorbing_set", "robust"])
@pytest.mark.parametrize("samples", [0, -3])
def test_sampling_needs_a_sample(monkeypatch, quantifier, samples):
    # zero draws cannot support a "for every" claim
    monkeypatch.setattr(absorb, "DEFAULT_EXHAUSTIVE_CAP", 10)
    big = complete_graph(12)
    f = empty(big)
    with pytest.raises(ValidationError, match="samples"):
        if quantifier == "reachability":
            reachability_estimate(big, f, K2, 0, 1, 4, 1, samples=samples)
        elif quantifier == "absorbing_set":
            verify_absorbing_set(big, f, K2, [0, 1], "1/3", samples=samples)
        else:
            sparse = Graph.from_edges(12, [(0, 4)])
            robust_vectors(sparse, empty(sparse), K2, THIRDS, "1/3", samples=samples)
