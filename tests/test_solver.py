import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from comptile import construct, lattice, oracles, solver
from comptile.errors import BudgetExceeded, ConsistencyError, ValidationError
from comptile.graphs import (Graph, MultipartiteSpec, complete_graph,
                             complete_multipartite, cycle_graph, disjoint_union,
                             empty_graph, path_graph)
from comptile.incompat import IncompatibilitySystem, random_bounded_system
from comptile.lattice import GeneratedLattice, refutes
from comptile.oracles import edge_key
from comptile.solver import (FOUND, INDETERMINATE, NONE, Embedding, Tiling,
                             enumerate_compatible_copies, enumerate_transversal_copies,
                             find_compatible_factor, greedy_almost_tiling,
                             max_compatible_tiling, verify_embedding, verify_tiling)

from comptile.util import bits, mask_of

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


def _keys(enum) -> list:
    return [(e.vertices, e.edges) for e in enum.copies]


# patterns with large automorphism groups for their size
_SYMMETRIC_PATTERNS = {
    "E1": empty_graph(1), "E2": empty_graph(2), "E3": empty_graph(3), "E4": empty_graph(4),
    "K13": complete_multipartite(MultipartiteSpec((1, 3)))[0], "P4": path_graph(4),
    "C5": cycle_graph(5), "K23": complete_multipartite(MultipartiteSpec((2, 3)))[0],
    "2K2": disjoint_union(complete_graph(2), complete_graph(2)),
    "P3+2K1": disjoint_union(path_graph(3), empty_graph(2)),
    # triangle 0-1-2 with the path 2-3-4: some candidates pass the degree
    # tests, yet no automorphism reaches them, and only the search says so
    "tadpole": Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]),
}


@pytest.mark.parametrize("name", sorted(_SYMMETRIC_PATTERNS))
def test_symmetric_patterns_yield_each_oracle_copy_once(name):
    # a set comparison alone would hide a copy found twice
    pattern = _SYMMETRIC_PATTERNS[name]
    rng = random.Random(sorted(_SYMMETRIC_PATTERNS).index(name))
    for _ in range(12):
        host = random_graph(rng.randint(pattern.n, 7), rng.uniform(0.3, 1.0),
                            rng.getrandbits(30))
        f = random_system(host, rng.randint(0, 8), rng.getrandbits(30))
        s = [v for v in range(host.n) if rng.random() < 0.8 or rng.random() < 0.5]
        enum = enumerate_compatible_copies(pattern, host, f, pool=mask_of(s))
        keys = _keys(enum)
        assert not enum.truncated
        assert len(keys) == len(set(keys)) and keys == sorted(keys)
        assert set(keys) == {key for key in oracles.raw_compatible_copies(pattern, host, f)
                             if set(key[0]) <= set(s)}


def test_copies_in_a_complete_host_are_maps_up_to_automorphism():
    # K_n holds n!/((n-h)! |Aut(H)|) copies of an h-vertex H
    host = complete_graph(8)
    for pattern in _SYMMETRIC_PATTERNS.values():
        edges = set(pattern.edges())
        aut = sum(all(edge_key(s[u], s[v]) in edges for u, v in edges)
                  for s in permutations(range(pattern.n)))
        copies = enumerate_compatible_copies(pattern, host).copies
        assert len(copies) * aut == math.perm(host.n, pattern.n)


@pytest.mark.parametrize("pattern, n, mu, copies, expansions", [
    (complete_graph(3), 12, None, 220, 298),
    (complete_graph(4), 10, Fraction(1, 10), 47, 322),
    (complete_graph(5), 9, None, 126, 381),
    (complete_graph(3), 30, Fraction(1, 20), 3_662, 4_525),
    (cycle_graph(4), 8, None, 210, 302),
], ids=["K3-K12", "K4-K10", "K5-K9", "K3-K30", "C4-K8"])
def test_enumeration_effort_is_pinned(pattern, n, mu, copies, expansions):
    # a clique's symmetry rule is one ascending chain over the plan; C_4
    # took 2,080 expansions when duplicates were found and discarded
    host = complete_graph(n)
    f = None if mu is None else random_bounded_system(host, mu, 7)
    enum = enumerate_compatible_copies(pattern, host, f)
    assert (len(enum.copies), enum.expansions) == (copies, expansions)


def test_budget_bounds_the_symmetry_rule_whatever_the_cache_holds():
    # C_6's rule costs 51 units to derive: they count against the budget
    # but not in expansions, and a cached rule keeps its cost.  The
    # transversal lines pin a search cut by its own fourth expansion.
    pattern, host = cycle_graph(6), complete_graph(8)
    spec = MultipartiteSpec((2, 3))
    parts = [[0, 1, 2], [3, 4, 5, 6]]
    for cold in (True, False):
        if cold:
            solver._plans.clear()
        cut = enumerate_compatible_copies(pattern, host, budget=50)
        assert (cut.copies, cut.truncated, cut.expansions) == ([], True, 51)
        full = enumerate_compatible_copies(pattern, host, budget=2_654)
        assert (len(full.copies), full.truncated) == (1_680, False)
        cut = enumerate_transversal_copies(spec, host, None, parts, budget=3)
        assert (cut.copies, cut.truncated, cut.expansions) == ([], True, 4)
        full = enumerate_transversal_copies(spec, host, None, parts, budget=1_000)
        assert (len(full.copies), full.truncated) == (12, False)


@pytest.mark.parametrize("seed", [3, 8, 21])
def test_every_budget_cuts_the_enumeration_where_the_full_run_spends_it(seed):
    # the embedder counts its expansions in a local: every cut must still
    # fall on the expansion that exceeds the budget, whatever the budget.
    # A one-vertex pattern's first step is also its last; a transversal
    # enumeration derives no rule and draws each step from its own part.
    rng = random.Random(seed)
    host = random_graph(9, 0.7, rng.getrandbits(30))
    f = random_system(host, rng.randint(2, 10), rng.getrandbits(30))
    pool = mask_of(v for v in range(host.n) if rng.random() < 0.8)
    searches = [(pattern, lambda budget, pattern=pattern, within=within:
                 enumerate_compatible_copies(pattern, host, f, budget=budget, pool=within))
                for pattern, within in ((complete_graph(3), None), (path_graph(3), None),
                                        (cycle_graph(4), None), (complete_graph(3), pool),
                                        (empty_graph(1), None), (empty_graph(1), pool))]
    for sizes, parts in (((1, 1, 1), [[0, 3, 6], [1, 4, 7], [2, 5, 8]]),
                         ((1, 2), [[0, 1, 2, 3], [4, 5, 6, 7, 8]])):
        searches.append((None, lambda budget, spec=MultipartiteSpec(sizes), parts=parts:
                         enumerate_transversal_copies(spec, host, f, parts, budget=budget)))
    for pattern, search in searches:
        full = search(solver.DEFAULT_BUDGET)
        assert not full.truncated and full.expansions
        rule_cost = 0 if pattern is None else solver._plans[pattern][2]
        for budget in range(full.expansions + 2):
            cut = search(budget)
            assert cut.truncated == (max(full.expansions, rule_cost) > budget), budget
            if cut.truncated:
                assert cut.expansions == budget + 1
                kept = set(cut.copies)
                assert kept <= set(full.copies)
                assert cut.copies == [e for e in full.copies if e in kept]
            else:
                assert (cut.copies, cut.expansions) == (full.copies, full.expansions)


# P4 and K(2,3) are found in an order that their sorted edges change on
# shared vertex sets; for the others the embedder's order already agrees
_ORDER_PATTERNS = {"K3": MultipartiteSpec((1, 1, 1)), "K4": MultipartiteSpec((1, 1, 1, 1)),
                   "P3": MultipartiteSpec((1, 2)), "C4": MultipartiteSpec((2, 2)),
                   "K112": MultipartiteSpec((1, 1, 2)), "K23": MultipartiteSpec((2, 3)),
                   "P4": None}


def _canonical_order_holds(enum, pattern, host, f):
    """The rows built from images and masks are the copies in the order
    sorted vertices, then sorted edges, each with its own mask."""
    keys = _keys(enum)
    assert keys == sorted(keys) and len(keys) == len(set(keys))
    assert enum.masks == [mask_of(e.vertices) for e in enum.copies]
    assert all(verify_embedding(host, f, pattern, e) for e in enum.copies)


@pytest.mark.parametrize("name", sorted(_ORDER_PATTERNS))
def test_copy_order_is_sorted_vertices_then_edges(name):
    # copies travel as images and masks and are ordered by bit-reversed
    # masks; the order must stay the one of the sorted (vertices, edges) keys
    spec = _ORDER_PATTERNS[name]
    pattern = path_graph(4) if spec is None else complete_multipartite(spec)[0]
    rng = random.Random(sorted(_ORDER_PATTERNS).index(name) + 71)
    for _ in range(12):
        host = random_graph(rng.randint(pattern.n + 1, 10), rng.uniform(0.5, 1.0),
                            rng.getrandbits(30))
        f = random_system(host, rng.randint(0, 10), rng.getrandbits(30))
        raw = oracles.raw_compatible_copies(pattern, host, f)
        pool = mask_of(v for v in range(host.n) if rng.random() < 0.8)
        full = enumerate_compatible_copies(pattern, host, f)
        inside = enumerate_compatible_copies(pattern, host, f, pool=pool)
        for enum, want in ((full, raw), (inside, {k for k in raw if not mask_of(k[0]) & ~pool})):
            assert not enum.truncated
            assert len(enum.masks) == len(want) and set(_keys(enum)) == want
            _canonical_order_holds(enum, pattern, host, f)
        enumerations = [(full, lambda b: enumerate_compatible_copies(pattern, host, f, b))]
        if spec is not None:
            verts = list(range(host.n))
            rng.shuffle(verts)
            cuts = sorted(rng.sample(range(1, host.n), spec.r - 1))
            parts = [verts[a:b] for a, b in zip([0] + cuts, cuts + [host.n])]
            across = enumerate_transversal_copies(spec, host, f, parts)
            assert not across.truncated
            assert len(across.masks) == oracles.raw_transversal_count(spec.sizes, host, f,
                                                                      parts)
            _canonical_order_holds(across, pattern, host, f)
            enumerations.append((across, lambda b: enumerate_transversal_copies(
                spec, host, f, parts, b)))
        for enum, again in enumerations:
            for budget in (rng.randrange(enum.expansions + 1) for _ in range(3)):
                cut = again(budget)
                kept = set(cut.copies)
                assert cut.copies == [e for e in enum.copies if e in kept]
                _canonical_order_holds(cut, pattern, host, f)


_TIE_PATTERNS = {"C4": cycle_graph(4), "P3": path_graph(3),
                 "K112": complete_multipartite(MultipartiteSpec((1, 1, 2)))[0],
                 "01-02": Graph.from_edges(4, [(0, 1), (0, 2)])}


@pytest.mark.parametrize("name, proven", [("C4", True), ("P3", True), ("K112", True),
                                          ("01-02", False)])
def test_tie_order_is_proven_where_the_embedder_keeps_it(name, proven):
    plan, below = solver._search_plan(_TIE_PATTERNS[name], solver.DEFAULT_BUDGET)
    assert solver._ties_in_order(plan, below) is proven


def test_an_unproven_tie_order_is_still_sorted(monkeypatch):
    # on K_5 the embedder finds the copies of {01, 02} + a vertex on one
    # vertex set out of edge order: skipping the sort would show
    pattern, host = _TIE_PATTERNS["01-02"], complete_graph(5)
    enum = enumerate_compatible_copies(pattern, host)
    _canonical_order_holds(enum, pattern, host, IncompatibilitySystem.empty(host))
    monkeypatch.setattr(solver, "_ties_in_order", lambda plan, below: True)
    unsorted = enumerate_compatible_copies(pattern, host)
    assert sorted(unsorted.images) == sorted(enum.images) and unsorted.images != enum.images


def _is_canonical(enum) -> bool:
    keys = [(e.vertices, e.edges) for e in enum.copies]
    return keys == sorted(keys)


@given(st.integers(2, 5).flatmap(lambda k: st.tuples(
           st.just(k), st.lists(st.sampled_from(list(combinations(range(k), 2))),
                                min_size=1, unique=True))),
       st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda s: 2 <= sum(s) <= 5),
       st.integers(2, 10), st.sampled_from((0.5, 0.8, 1.0)), st.integers(0, 1 << 30))
@example((4, [(0, 1), (1, 2), (2, 3), (0, 3)]), [1, 1, 2], 9, 1.0, 5)   # C4: proven
@example((4, [(0, 1), (0, 2)]), [2, 2], 9, 1.0, 6)                      # unproven
@settings(max_examples=40)
def test_copies_come_out_in_canonical_order_with_or_without_the_tie_sort(
        pattern_edges, sizes, n, p, seed):
    # proven plans skip the tie sort, others run it; whole-pool, pool,
    # transversal and budget-cut enumerations all list the copies sorted by
    # (sorted vertices, sorted edges)
    rng = random.Random(seed)
    pattern = Graph.from_edges(*pattern_edges)
    host = random_graph(n, p, rng.getrandbits(30))
    f = random_system(host, rng.randint(0, 8), rng.getrandbits(30))
    pool = mask_of(v for v in range(n) if rng.random() < 0.8)
    spec = MultipartiteSpec(sizes)
    verts = list(range(n))
    rng.shuffle(verts)
    cuts = sorted(rng.sample(range(1, n), min(spec.r - 1, n - 1)))
    parts = [verts[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    parts += [[]] * (spec.r - len(parts))
    runs = [lambda b: enumerate_compatible_copies(pattern, host, f, b),
            lambda b: enumerate_compatible_copies(pattern, host, f, b, pool),
            lambda b: enumerate_transversal_copies(spec, host, f, parts, b)]
    for run in runs:
        enum = run(solver.DEFAULT_BUDGET)
        assert not enum.truncated and _is_canonical(enum)
        cut = run(rng.randrange(enum.expansions + 1))
        assert _is_canonical(cut) and set(cut.images) <= set(enum.images)


def test_repeated_transversal_calls_prove_the_tie_order_once(monkeypatch):
    # each call builds a new plan and passes its rule as a list: the proof
    # is keyed by value, so only the first call enumerates K_4 (on K_4 the
    # two one-vertex parts may swap, so the proof fails and the sort runs)
    built = []
    monkeypatch.setattr(solver, "complete_graph", lambda k: built.append(k) or complete_graph(k))
    monkeypatch.setattr(solver, "_tie_proofs", {})
    spec, host = MultipartiteSpec((1, 1, 2)), complete_graph(9)
    for shift in range(4):
        verts = [(v + shift) % 9 for v in range(9)]
        enum = enumerate_transversal_copies(spec, host, None, [verts[:1], verts[1:2], verts[2:]])
        assert len(enum.images) == 21 and _is_canonical(enum)
    assert built == [4] and list(solver._tie_proofs.values()) == [False]


def _tiling_record():
    """What the factor decision and the maximum tiling answer on 150
    seeded instances, plain and multipartite hosts, pools and shared
    enumerations included."""
    rng = random.Random(67)
    patterns = [complete_graph(2), complete_graph(3), path_graph(3), cycle_graph(4),
                complete_multipartite(MultipartiteSpec((1, 1, 2)))[0]]
    out = []
    for _ in range(150):
        pattern = rng.choice(patterns)
        if rng.random() < 0.5:
            host = random_graph(rng.randint(pattern.n, 12), rng.uniform(0.4, 1.0),
                                rng.getrandbits(30))
        else:
            sizes = tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 4)))
            host = complete_multipartite(MultipartiteSpec(sizes))[0]
        f = random_system(host, rng.randint(0, 10), rng.getrandbits(30))
        pool = [v for v in range(host.n) if rng.random() < 0.9]
        pool = mask_of(pool[:len(pool) - len(pool) % pattern.n])
        res = find_compatible_factor(pattern, host, f, budget=rng.choice([40, 400, 4000]),
                                     pool=pool)
        shared = enumerate_compatible_copies(pattern, host, f, budget=rng.choice([30, 3000]))
        inside = find_compatible_factor(pattern, host, f, pool=pool, copies=shared)
        best = max_compatible_tiling(pattern, host, f, budget=rng.choice([60, 600, 6000]))
        out.append((res.status, res.reason, res.expansions, res.copies_considered,
                    res.tiling and res.tiling.embeddings, res.parts, res.certificate,
                    best.tiling.embeddings, best.optimal, best.expansions,
                    inside.status, inside.expansions, inside.tiling and inside.tiling.embeddings))
    return out


def test_factor_and_max_tilings_are_pinned():
    # recorded while the packing search still took Embedding rows: reading
    # masks and building Embeddings only for the chosen rows changes nothing.
    # Re-pinned when the lattice test moved to the cover search's first dead
    # end: only the factor expansions of "lattice" answers moved
    out = _tiling_record()
    statuses = {(o[0], o[1]) for o in out}
    assert statuses == {(FOUND, ""), (NONE, "exhausted"), (NONE, "lattice"),
                        (INDETERMINATE, "budget")}
    assert hashlib.sha256(repr(out).encode()).hexdigest() == \
        "a41cd0997bd4f10926e5b2c3f4aba6a924abd8b3a2bc85408bbd1a16ce3721c8"


def test_enumerated_copies_are_well_formed_named_tuples():
    rng = random.Random(41)
    patterns = [complete_graph(2), complete_graph(3), complete_graph(4), path_graph(3),
                cycle_graph(4)]
    for _ in range(30):
        host = random_graph(rng.randint(4, 9), rng.uniform(0.4, 0.9), rng.getrandbits(30))
        f = random_system(host, rng.randint(0, 8), rng.getrandbits(30))
        pattern = rng.choice(patterns + [random_graph(rng.randint(2, 4), 0.7,
                                                      rng.getrandbits(30))])
        for emb in enumerate_compatible_copies(pattern, host, f).copies:
            assert type(emb) is Embedding
            assert emb == Embedding.from_phi(pattern, emb.phi)
            assert verify_embedding(host, f, pattern, emb)
            assert emb.mask == mask_of(emb.vertices)
            phi, vertices, edges = emb
            assert emb == (phi, vertices, edges)
            for field in Embedding._fields:
                with pytest.raises(AttributeError):
                    setattr(emb, field, ())


@pytest.mark.parametrize("budget", [7, 8])
def test_transversal_search_is_cut_only_by_its_own_expansions(budget):
    # no cross edge: the search places part 0 in ascending order (7
    # expansions) and finds no neighbour for part 1, a complete proof
    spec, host = MultipartiteSpec((3, 3, 3)), empty_graph(9)
    parts = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    enum = enumerate_transversal_copies(spec, host, None, parts, budget=budget)
    assert (enum.copies, enum.truncated, enum.expansions) == ([], False, 7)


def test_factor_examples():
    k2, k3 = complete_graph(2), complete_graph(3)
    res = find_compatible_factor(k2, cycle_graph(4))
    assert res.status == FOUND and len(res.tiling) == 2
    res = find_compatible_factor(k3, complete_graph(4))
    assert res.status == NONE and res.reason == "divisibility"
    res = find_compatible_factor(k3, complete_multipartite(MultipartiteSpec((3, 1, 2)))[0])
    assert res.status == NONE and res.reason == "lattice"
    assert res.expansions > 0
    # every triangle of K(2,2,2) has index vector (1,1,1), so the lattice
    # holds the part sizes; with the four through vertex 0 made
    # incompatible there, only the search proves that no factor exists
    host = complete_multipartite(MultipartiteSpec((2, 2, 2)))[0]
    f = IncompatibilitySystem(host, [(0, a, b) for a in (2, 3) for b in (4, 5)])
    res = find_compatible_factor(k3, host, f)
    assert (res.status, res.reason, res.expansions) == (NONE, "exhausted", 26)
    assert not oracles.raw_factor_exists(k3, host, f)


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
            assert verify_tiling(host, f, pattern, res.tiling)
            assert res.tiling.covered_count() == host.n


def _induced_by_hand(host, f, s):
    """g[S] and the triples inside it, relabelled without the library's help."""
    pos = {v: i for i, v in enumerate(sorted(set(s)))}
    sub = Graph.from_edges(len(pos), [(pos[u], pos[v]) for u, v in host.edges()
                                      if u in pos and v in pos])
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


def _sparse_host(seed):
    host = random_graph(40, 0.2, seed)
    return host, random_bounded_system(host, Fraction(1, 20), seed)


def _cover_search(pattern, g, f=None, budget=solver.DEFAULT_BUDGET):
    """The exact-cover search of ``find_compatible_factor`` on the rows it
    enumerates, without the lattice test at its first dead end."""
    enum = enumerate_compatible_copies(pattern, g, f, budget=budget)
    work = solver._Work(budget, enum.expansions)
    chosen, exhausted = solver._pack(enum.pool, enum, enum.live(enum.pool), work, pattern.n, 0)
    status = FOUND if chosen is not None else NONE if exhausted else INDETERMINATE
    return solver.FactorResult(status, expansions=work.spent)


@pytest.mark.parametrize("search, pattern, host, budget, outcome, expansions", [
    (_cover_search, complete_graph(3), (_ko_base(15), None), None, NONE, 4_789),
    (_cover_search, complete_graph(3), (_ko_base(21), None), 50_000, INDETERMINATE, 50_001),
    (find_compatible_factor, complete_graph(2), (cycle_graph(800), None), None, FOUND, 2_000),
    (max_compatible_tiling, complete_graph(3), _sparse_host(3), None, (9, True), 342),
    (max_compatible_tiling, complete_graph(3), _sparse_host(4), None, (8, True), 1_366),
    (max_compatible_tiling, complete_graph(3), _sparse_host(4), 1_000, (8, False), 1_001),
    # the lattice test refutes both ko bases at the search's first dead end
    (find_compatible_factor, complete_graph(3), (_ko_base(15), None), None, NONE, 213),
    (find_compatible_factor, complete_graph(3), (_ko_base(21), None), 50_000, NONE, 509),
], ids=["ko-base-15", "ko-base-21-capped", "cycle-800", "max-g40-3", "max-g40-4",
        "max-g40-4-capped", "ko-base-15-lattice", "ko-base-21-capped-lattice"])
def test_cover_search_effort_is_pinned(search, pattern, host, budget, outcome, expansions):
    # the branching rule (fewest admissible rows, then lowest vertex, rows
    # by ascending index, then leaving the vertex uncovered) fixes every
    # expansion count; the factor rows are the packing search with no slack
    kwargs = {} if budget is None else {"budget": budget}
    res = search(pattern, *host, **kwargs)
    got = (len(res.tiling), res.optimal) if search is max_compatible_tiling else res.status
    assert (got, res.expansions) == (outcome, expansions)


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


def test_negative_budget_is_refused_before_any_search():
    k3, host = complete_graph(3), complete_graph(6)
    with pytest.raises(ValidationError, match="budget must be >= 0"):
        enumerate_compatible_copies(k3, host, budget=-1)
    with pytest.raises(ValidationError, match="budget must be >= 0"):
        enumerate_transversal_copies(MultipartiteSpec((1, 1, 1)), host, None,
                                     [[0, 1], [2, 3], [4, 5]], budget=-1)
    with pytest.raises(ValidationError, match="budget must be >= 0"):
        find_compatible_factor(k3, host, budget=-5)     # the factor search enumerates first
    assert enumerate_compatible_copies(k3, host, budget=0).truncated


def test_budget_yields_indeterminate():
    k3 = complete_graph(3)
    host = complete_graph(15)
    res = find_compatible_factor(k3, host, budget=50)
    assert res.status == INDETERMINATE and res.reason == "budget"


def _complement_parts_by_hand(host, s):
    """The components of the complement of host[s] by lowest vertex, the
    singletons merged into one last part."""
    left, parts, singles = set(s), [], []
    while left:
        comp, todo = set(), [min(left)]
        while todo:
            v = todo.pop()
            if v not in comp:
                comp.add(v)
                todo += [u for u in left if u != v and not host.has_edge(u, v)]
        left -= comp
        if len(comp) > 1:
            parts.append(sorted(comp))
        else:
            singles += comp
    return parts + ([sorted(singles)] if singles else [])


def test_lattice_answers_agree_with_membership_and_oracle():
    # on hosts whose complement splits, "lattice" is answered exactly when
    # the part sizes lie outside the lattice of the copies' index vectors
    # and every vertex lies in a copy (else the search stops at its root),
    # with a certificate that re-checks, and only where no factor exists
    rng = random.Random(47)
    refuted = members = 0
    for _ in range(400):
        nh = rng.randint(2, 3)
        pattern = random_graph(nh, 0.9, rng.getrandbits(30))
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        host = complete_multipartite(MultipartiteSpec(tuple(sizes)))[0]
        if rng.random() < 0.5:   # a few edges inside the parts
            extra = [(u, v) for u in range(host.n) for v in range(u + 1, host.n)
                     if not host.has_edge(u, v) and rng.random() < 0.2]
            host = Graph.from_edges(host.n, host.edges() + extra)
        f = random_system(host, rng.randint(0, 4), rng.getrandbits(30))
        s = [v for v in range(host.n) if rng.random() < 0.9]
        res = find_compatible_factor(pattern, host, f, pool=mask_of(s))
        if res.reason == "divisibility":
            continue
        parts = _complement_parts_by_hand(host, s)
        sub, sub_f = _induced_by_hand(host, f, s)
        old = sorted(s)
        copies = oracles.raw_compatible_copies(pattern, sub, sub_f)
        vectors = [tuple(sum(old[v] in p for v in verts) for p in parts)
                   for verts, _ in copies]
        member = len(parts) < 2 or GeneratedLattice(vectors, len(parts)).membership(
            [len(p) for p in parts])[0]
        coverable = {v for verts, _ in copies for v in verts} == set(range(sub.n))
        assert (res.reason == "lattice") == (not member and coverable)
        if member or not coverable:
            members += member and len(parts) >= 2
            continue
        refuted += 1
        assert res.status == NONE and res.tiling is None
        assert not oracles.raw_factor_exists(pattern, sub, sub_f)
        assert res.parts == tuple(map(tuple, parts))
        assert refutes(res.certificate, vectors, [len(p) for p in parts])
    assert refuted >= 20 and members >= 20, (refuted, members)


@pytest.mark.parametrize("n", [6, 9, 12])
def test_truncated_enumeration_never_refutes_by_lattice(n):
    # the partial rows of a cut enumeration would refute these bases too;
    # once the enumeration completes, a budget that cuts the cover search
    # before its first dead end still gets the test, run after the cut
    k3, host = complete_graph(3), _ko_base(n)
    full = find_compatible_factor(k3, host)
    assert (full.status, full.reason) == (NONE, "lattice")
    enum = enumerate_compatible_copies(k3, host)
    assert full.expansions > enum.expansions
    for budget in range(enum.expansions):
        cut = find_compatible_factor(k3, host, budget=budget)
        assert (cut.status, cut.reason) == (INDETERMINATE, "budget"), budget
    for budget in range(enum.expansions, full.expansions + 1):
        cut = find_compatible_factor(k3, host, budget=budget)
        assert (cut.status, cut.reason, cut.expansions) == (NONE, "lattice", budget), budget
        assert _lattice_rechecks(cut, enum, (1 << n) - 1)


def test_lattice_test_runs_only_at_the_first_dead_end(monkeypatch):
    # a cover proves the sizes lie in the lattice, so a search whose first
    # descent covers the pool never runs the test, and a refuted one runs it once
    calls = []
    real = solver._lattice_refutation

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "_lattice_refutation", counted)

    def decide(*args, **kwargs):
        calls.clear()
        res = find_compatible_factor(*args, **kwargs)
        return res.status, res.reason, len(calls)

    k3 = complete_graph(3)
    assert decide(k3, complete_graph(9)) == (FOUND, "", 0)
    # one residual R of an absorbing set A = {0..5}, through the enumeration
    # A and its residuals share
    host = random_graph(15, 0.9, 5)
    f = random_system(host, 4, 5)
    shared = enumerate_compatible_copies(k3, host, f)
    assert decide(k3, host, f, pool=mask_of([0, 1, 2, 3, 4, 5, 7, 9, 12]),
                  copies=shared) == (FOUND, "", 0)
    base = _ko_base(12)
    assert decide(k3, base) == (NONE, "lattice", 1)
    cut = enumerate_compatible_copies(k3, base, budget=30)
    assert cut.truncated
    assert decide(k3, base, copies=cut) == (INDETERMINATE, "budget", 0)


def test_a_forged_lattice_certificate_is_refused(monkeypatch):
    k3 = complete_graph(3)
    res = find_compatible_factor(k3, _ko_base(6))
    assert res.parts == ((0, 1, 2), (4, 5), (3,))
    assert res.certificate == (Fraction(1, 2), Fraction(-1, 2), 0)
    # (1/3, 0, 0) makes (1,1,1) fractional, so it separates nothing
    monkeypatch.setattr(lattice, "_dual", lambda *a: (Fraction(1, 3), 0, 0))
    with pytest.raises(ConsistencyError, match="non-membership certificate"):
        find_compatible_factor(k3, _ko_base(6))


def test_a_factor_failing_re_verification_is_a_consistency_error(monkeypatch):
    monkeypatch.setattr(solver, "verify_tiling", lambda *a: False)
    with pytest.raises(ConsistencyError, match="factor failed re-verification"):
        find_compatible_factor(complete_graph(3), complete_graph(6))


def test_a_maximum_tiling_failing_re_verification_is_a_consistency_error(monkeypatch):
    monkeypatch.setattr(solver, "verify_tiling", lambda *a: False)
    with pytest.raises(ConsistencyError, match="maximum tiling failed re-verification"):
        max_compatible_tiling(complete_graph(3), complete_graph(6))


def test_a_greedy_tiling_failing_re_verification_is_a_consistency_error(monkeypatch):
    monkeypatch.setattr(solver, "verify_tiling", lambda *a: False)
    with pytest.raises(ConsistencyError, match="greedy tiling failed re-verification"):
        greedy_almost_tiling(complete_graph(3), complete_graph(6))


def _planted_host(rng):
    """A random host, a third of the time with an independent set planted
    (every triangle then puts at most one vertex in it), a third of the
    time complete multipartite, where the lattice test refutes."""
    kind = rng.randrange(3)
    if kind == 2:
        sizes = tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 4)))
        return complete_multipartite(MultipartiteSpec(sizes))[0]
    host = random_graph(rng.randint(3, 11), rng.uniform(0.5, 1.0), rng.getrandbits(30))
    if kind == 1:
        planted = set(rng.sample(range(host.n), rng.randint(2, host.n // 2 + 1)))
        host = Graph.from_edges(host.n, [(u, v) for u, v in host.edges()
                                         if not {u, v} <= planted])
    return host


def test_copies_give_the_answer_of_enumerating_the_pool():
    # the host copies inside a pool, in canonical order, are the rows
    # enumerating the pool gives: every field but expansions is the same,
    # and expansions drop by exactly that enumeration
    rng = random.Random(53)
    seen = set()
    for _ in range(300):
        host = _planted_host(rng)
        pattern = rng.choice([complete_graph(2), complete_graph(3), path_graph(3)])
        f = random_system(host, rng.randint(0, 8), rng.getrandbits(30))
        outer = mask_of(v for v in range(host.n) if rng.random() < 0.85)
        enum = enumerate_compatible_copies(pattern, host, f, pool=outer)
        assert enum.pool == outer and not enum.truncated
        assert enum.masks == [mask_of(e.vertices) for e in enum.copies]
        for _ in range(4):
            pool = mask_of(v for v in range(host.n) if outer >> v & 1 and rng.random() < 0.8)
            alone = find_compatible_factor(pattern, host, f, pool=pool)
            shared = find_compatible_factor(pattern, host, f, pool=pool, copies=enum)
            assert ((shared.status, shared.tiling, shared.reason, shared.copies_considered,
                     shared.parts, shared.certificate)
                    == (alone.status, alone.tiling, alone.reason, alone.copies_considered,
                        alone.parts, alone.certificate))
            if alone.reason not in ("divisibility", ""):
                search = alone.expansions - enumerate_compatible_copies(
                    pattern, host, f, pool=pool).expansions
                assert shared.expansions == search
            if alone.reason != "divisibility" and host.n <= 9:
                s = list(bits(pool))
                sub, sub_f = _induced_by_hand(host, f, s)
                assert (shared.status == FOUND) == oracles.raw_factor_exists(pattern, sub, sub_f)
            seen.add(alone.reason or alone.status)
    assert seen == {FOUND, "divisibility", "lattice", "exhausted"}, seen


def test_truncated_copies_never_prove_absence():
    # a cut host enumeration lists only some of a pool's copies: it can still
    # find a factor among them, but refutes nothing but divisibility
    rng = random.Random(59)
    k3 = complete_graph(3)
    found = 0
    for host in (_ko_base(9), _ko_base(12), complete_graph(9), random_graph(12, .8, 5)):
        f = random_system(host, 6, 7)
        full = enumerate_compatible_copies(k3, host, f)
        pools = [mask_of(rng.sample(range(host.n), rng.choice([6, 7, 9])))
                 for _ in range(6)] + [(1 << host.n) - 1]
        for budget in range(0, full.expansions, 3):
            cut = enumerate_compatible_copies(k3, host, f, budget=budget)
            assert cut.truncated
            for pool in pools:
                res = find_compatible_factor(k3, host, f, pool=pool, copies=cut)
                if res.status == NONE:
                    assert res.reason == "divisibility"
                elif res.status == FOUND:
                    found += 1
                    assert verify_tiling(host, f, k3, res.tiling)
                    assert res.tiling.covered() == pool
    assert found > 0


def test_copies_that_miss_a_pool_vertex_are_refused():
    k3, host = complete_graph(3), complete_graph(9)
    enum = enumerate_compatible_copies(k3, host, pool=0b011111111)
    assert find_compatible_factor(k3, host, pool=0b000111111, copies=enum).status == FOUND
    with pytest.raises(ValidationError, match="misses vertices"):
        find_compatible_factor(k3, host, pool=0b100000011, copies=enum)
    with pytest.raises(ValidationError, match="misses vertices"):
        find_compatible_factor(k3, host, copies=enum)
    # a transversal enumeration lists only copies across its parts: no pool
    across = enumerate_transversal_copies(MultipartiteSpec((1, 1, 1)), host, None,
                                          [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    assert across.pool == 0
    with pytest.raises(ValidationError, match="misses vertices"):
        find_compatible_factor(across.pattern, host, pool=0b001001001, copies=across)


def test_copies_made_for_other_objects_are_refused():
    # rows of another pattern, graph or system could refute wrongly, so the
    # copies must come from the very objects the search is asked about
    k3, host = complete_graph(3), complete_graph(9)
    f = random_system(host, 6, 3)
    enum = enumerate_compatible_copies(k3, host, f)
    assert find_compatible_factor(k3, host, f, copies=enum).status == FOUND
    for other in ((complete_graph(3), host, f), (path_graph(3), host, f),
                  (k3, complete_graph(9), f), (k3, host, None),
                  (k3, host, random_system(host, 6, 3))):
        with pytest.raises(ValidationError, match="another pattern, graph or system"):
            find_compatible_factor(*other, copies=enum)
    across = enumerate_transversal_copies(MultipartiteSpec((1, 1, 1)), host, None,
                                          [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    with pytest.raises(ValidationError, match="another pattern, graph or system"):
        find_compatible_factor(k3, host, pool=0, copies=across)


def test_pool_searches_in_one_large_enumeration_are_pinned():
    # 96 pools of 6, 18 and 57 vertices inside one K_3 enumeration of a
    # 60-vertex host, far past any oracle; recorded before pool searches
    # read the enumeration's row index through a live mask, and re-pinned
    # when the lattice answer's expansions came to count the search's first
    # descent
    k3, host = complete_graph(3), random_graph(60, 0.8, 36)
    f = random_bounded_system(host, Fraction(1, 10), 36)
    enum = enumerate_compatible_copies(k3, host, f)
    assert (len(enum.images), enum.truncated) == (10_897, False)
    rng = random.Random(36)
    out = []
    for size, budget in [(6, 20)] * 48 + [(18, 7)] * 36 + [(57, 20)] * 12:
        pool = mask_of(rng.sample(range(host.n), size))
        res = find_compatible_factor(k3, host, f, budget=budget, pool=pool, copies=enum)
        out.append((res.status, res.reason, res.expansions, res.copies_considered))
    assert Counter(o[:2] for o in out) == {
        (FOUND, ""): 66, (NONE, "exhausted"): 25, (NONE, "lattice"): 1,
        (INDETERMINATE, "budget"): 4}
    assert hashlib.sha256(repr(out).encode()).hexdigest() == \
        "9fdb776dba4c02ffce7e00e5842cb314822555a9e9541555d39650089d15ef64"


def _relabelled(host, f, perm):
    """host and f with vertex v renamed perm[v], without the library's help."""
    moved = Graph.from_edges(host.n, [(perm[u], perm[v]) for u, v in host.edges()])
    return moved, IncompatibilitySystem(moved, [(perm[v], perm[a], perm[b])
                                                for v, a, b in f.triples()])


def _lattice_rechecks(res, enum, pool):
    # the certificate over the index vectors of the enumeration's copies
    # inside the pool, gathered without ``live``
    vectors = [tuple(len(set(e.vertices) & set(p)) for p in res.parts)
               for e in enum.copies if not e.mask & ~pool]
    return refutes(res.certificate, vectors, [len(p) for p in res.parts])


@settings(max_examples=40)
@given(n=st.integers(3, 40), multipartite=st.booleans(),
       pattern=st.sampled_from([complete_graph(2), complete_graph(3), path_graph(3)]),
       seed=st.integers(0, 2**30), data=st.data())
def test_pool_searches_survive_relabelling(n, multipartite, pattern, seed, data):
    # renaming the host's vertices, with its system, keeps what a pool
    # search through a shared enumeration decides; expansions, and so a
    # budget cut, depend on the labels, and so does the certificate's y
    rng = random.Random(seed)
    if multipartite:
        cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(1, 3))))
        sizes = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
        host = complete_multipartite(MultipartiteSpec(sizes))[0]
    else:
        host = random_graph(n, rng.uniform(0.5, 1.0), rng.getrandbits(30))
    f = random_system(host, rng.randint(0, 3 * n), rng.getrandbits(30))
    perm = data.draw(st.permutations(range(n)))
    moved, moved_f = _relabelled(host, f, perm)
    enum = enumerate_compatible_copies(pattern, host, f)
    moved_enum = enumerate_compatible_copies(pattern, moved, moved_f)
    assert len(moved_enum.images) == len(enum.images)
    for _ in range(3):
        s = [v for v, keep in enumerate(data.draw(st.lists(st.booleans(), min_size=n,
                                                           max_size=n))) if keep]
        pool = mask_of(s[:len(s) - len(s) % pattern.n])
        res = find_compatible_factor(pattern, host, f, budget=5_000, pool=pool, copies=enum)
        moved_pool = mask_of(perm[v] for v in bits(pool))
        moved_res = find_compatible_factor(pattern, moved, moved_f, budget=5_000,
                                           pool=moved_pool, copies=moved_enum)
        assert moved_res.copies_considered == res.copies_considered
        if INDETERMINATE not in (res.status, moved_res.status):
            assert (moved_res.status, moved_res.reason) == (res.status, res.reason)
        if res.reason == "lattice":
            assert _lattice_rechecks(res, enum, pool)
        if moved_res.reason == "lattice":
            assert _lattice_rechecks(moved_res, moved_enum, moved_pool)


@settings(max_examples=40)
@given(n=st.integers(6, 40), multipartite=st.booleans(),
       pattern=st.sampled_from([complete_graph(2), complete_graph(3), path_graph(3)]),
       seed=st.integers(0, 2**30), data=st.data())
def test_pool_searches_are_monotone_in_system_and_host(n, multipartite, pattern, seed, data):
    # an added incompatible pair or a deleted host edge only removes copies:
    # no factor appears and no copy is added.  An added pair keeps the graph,
    # so the parts, and its rows span a sublattice that the old certificate
    # still separates; a deleted edge can merge parts, so it claims nothing there
    rng = random.Random(seed)
    if multipartite:
        cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(1, 3))))
        sizes = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
        host = complete_multipartite(MultipartiteSpec(sizes))[0]
    else:
        host = random_graph(n, rng.uniform(0.5, 1.0), rng.getrandbits(30))
    f = random_system(host, rng.randint(0, 3 * n), rng.getrandbits(30))
    pairs = [(v, a, b) for v in range(n) for a, b in combinations(host.neighbors(v), 2)]
    edges = host.edges()
    if not pairs:
        return
    v, a, b = data.draw(st.sampled_from(pairs))
    x, y = data.draw(st.sampled_from(edges))
    tighter = IncompatibilitySystem(host, f.triples() + [(v, a, b)])
    thinner = Graph.from_edges(n, [e for e in edges if e != (x, y)])
    thinner_f = IncompatibilitySystem(thinner, [t for t in f.triples()
                                                if {x, y} not in ({t[0], t[1]}, {t[0], t[2]})])
    enum = enumerate_compatible_copies(pattern, host, f)
    tighter_enum = enumerate_compatible_copies(pattern, host, tighter)
    thinner_enum = enumerate_compatible_copies(pattern, thinner, thinner_f)
    for _ in range(3):
        s = [u for u, keep in enumerate(data.draw(st.lists(st.booleans(), min_size=n,
                                                           max_size=n))) if keep]
        pool = mask_of(s[:len(s) - len(s) % pattern.n])
        res, tight, thin = (
            find_compatible_factor(pattern, g, sub_f, budget=5_000, pool=pool, copies=sub_enum)
            for g, sub_f, sub_enum in ((host, f, enum), (host, tighter, tighter_enum),
                                       (thinner, thinner_f, thinner_enum)))
        for less in (tight, thin):
            assert less.copies_considered <= res.copies_considered
            if res.status == NONE:
                assert less.status != FOUND
        if res.reason != "lattice":
            continue
        covered = 0
        for m in tighter_enum.masks:
            if not m & ~pool:
                covered |= m
        # a vertex left in no row stops the search at its root
        assert tight.reason == ("lattice" if covered == pool else "exhausted")
        assert _lattice_rechecks(res, tighter_enum, pool)
        if tight.reason == "lattice":
            assert tight.parts == res.parts
            assert _lattice_rechecks(tight, tighter_enum, pool)


def _seeded_part(pattern, rng):
    """A host of 3-30 vertices, mostly of a size |pattern| divides, and a system."""
    n = rng.randint(3, 30)
    if rng.random() < 0.75:
        n = max(3, n - n % pattern.n)
    host = random_graph(n, rng.uniform(0.5, 1.0), rng.getrandbits(30))
    return host, random_system(host, rng.randint(0, 2 * n), rng.getrandbits(30))


@settings(max_examples=40)
@given(pattern=st.sampled_from([complete_graph(2), complete_graph(3), path_graph(3)]),
       seed=st.integers(0, 2**30))
def test_factors_and_copies_add_over_a_disjoint_union(pattern, seed):
    # a connected pattern's copy lies inside one part, so G + G' has a
    # factor iff both parts do, and its copies are the two parts' copies
    rng = random.Random(seed)
    (g, f), (h, f_h) = _seeded_part(pattern, rng), _seeded_part(pattern, rng)
    union = disjoint_union(g, h)
    union_f = IncompatibilitySystem(union, f.triples() + [(v + g.n, a + g.n, b + g.n)
                                                          for v, a, b in f_h.triples()])
    hosts = ((g, f), (h, f_h), (union, union_f))
    counts = [len(enumerate_compatible_copies(pattern, *host).images) for host in hosts]
    assert counts[2] == counts[0] + counts[1]
    statuses = [find_compatible_factor(pattern, *host, budget=5_000).status for host in hosts]
    if INDETERMINATE not in statuses:
        assert (statuses[2] == FOUND) == (statuses[0] == statuses[1] == FOUND)


def test_live_masks_the_copies_of_a_pool_in_canonical_order():
    # the live rows of a pool are the oracle's copies of the induced
    # subgraph, mapped back to host ids, at ascending indices; a cut
    # enumeration keeps those of its copies that lie inside the pool
    rng = random.Random(61)
    for _ in range(200):
        host = random_graph(rng.randint(1, 9), rng.uniform(0.3, 1.0), rng.getrandbits(30))
        pattern = rng.choice([complete_graph(1), complete_graph(2), complete_graph(3),
                              path_graph(3), cycle_graph(4)])
        f = random_system(host, rng.randint(0, 6), rng.getrandbits(30))
        enum = enumerate_compatible_copies(pattern, host, f)
        cut = enumerate_compatible_copies(pattern, host, f,
                                          budget=rng.randrange(enum.expansions + 1))
        for _ in range(5):
            pool = rng.getrandbits(host.n)
            s = list(bits(pool))
            sub, sub_f = _induced_by_hand(host, f, s)
            want = {(tuple(s[x] for x in vertices), tuple((s[x], s[y]) for x, y in edges))
                    for vertices, edges in oracles.raw_compatible_copies(pattern, sub, sub_f)}
            live = list(bits(enum.live(pool)))
            assert {(enum.copies[i].vertices, enum.copies[i].edges) for i in live} == want
            assert len(live) == len(want)
            # bits() ascends, so the rows come in the order enumerating the pool gives
            assert [enum.copies[i] for i in live] == \
                enumerate_compatible_copies(pattern, host, f, pool=pool).copies
            assert [cut.copies[i] for i in bits(cut.live(pool))] == \
                [e for e in cut.copies if not e.mask & ~pool]
        assert enum.live(enum.pool) == (1 << len(enum.images)) - 1


def test_k112_construction_keeps_its_factor_and_stays_undecided_on_budget():
    spec = construct.ConstructionSpec(MultipartiteSpec((1, 1, 2)), 24, Fraction(1, 6),
                                      base=construct.KOMLOS)
    inst = construct.augment_and_incompat(spec)
    assert inst.base.factor_status == "factor_exists"
    res = find_compatible_factor(spec.pattern(), inst.graph, inst.system, budget=8_000)
    assert (res.status, res.reason) == (INDETERMINATE, "budget")


def test_verify_embedding_derives_the_image_from_phi():
    p3, path = path_graph(3), path_graph(6)
    f = IncompatibilitySystem(path, [(1, 0, 2)])     # 01 and 12 clash at 1
    assert not verify_embedding(path, f, p3, Embedding((0, 1, 2), (0, 1, 2), ()))
    assert not verify_embedding(path, f, p3, Embedding.from_phi(p3, (0, 1, 2)))
    assert verify_embedding(path, f, p3, Embedding.from_phi(p3, (1, 2, 3)))
    k2, k6 = complete_graph(2), complete_graph(6)
    empty = IncompatibilitySystem.empty(k6)
    assert not verify_embedding(k6, empty, k2, Embedding((1, 2), (0, 5), ()))
    assert verify_embedding(k6, empty, k2, Embedding.from_phi(k2, (1, 2)))
    assert not verify_embedding(k6, empty, k2, Embedding((1, 2, 3), (1, 2), ((1, 2),)))


@given(seed=st.integers(0, 2**30), field=st.sampled_from(["phi", "vertices", "edges"]),
       pick=st.integers(0, 2**30), value=st.integers(0, 8))
def test_verify_embedding_refuses_a_copy_with_one_stored_field_changed(seed, field, pick,
                                                                       value):
    rng = random.Random(seed)
    pattern = random_graph(rng.randint(2, 4), 0.8, rng.getrandbits(30))
    host = random_graph(9, 0.7, rng.getrandbits(30))
    f = random_system(host, rng.randint(0, 6), rng.getrandbits(30))
    copies = enumerate_compatible_copies(pattern, host, f).copies
    if not copies:
        return
    emb = copies[pick % len(copies)]
    assert verify_embedding(host, f, pattern, emb)
    stored = list(getattr(emb, field))
    i = pick % len(stored) if stored else 0
    if field == "edges":      # drop an image edge, or add a non-image pair
        other = edge_key(value, (value + 1 + pick % 8) % 9)
        stored = stored[:i] + stored[i + 1:] if other in stored else sorted(stored + [other])
    else:                     # move one image vertex to another host vertex
        stored[i] = value if value != stored[i] else (value + 1) % 9
        if field == "vertices":
            stored.sort()
    forged = emb._replace(**{field: tuple(stored)})
    assert not verify_embedding(host, f, pattern, forged)


def _is_compatible_tiling(g, f, pattern, embeddings) -> bool:
    """The definition, written out: each copy's fields derived from an
    injective phi into g, every image edge a host edge, every two image
    edges compatible (no two meet at a v, as va and vb, with (v, a, b) in
    ``f.triples()``, a < b), and no two copies sharing a vertex."""
    triples = set(f.triples())
    for emb in embeddings:
        phi = emb.phi
        if len(phi) != pattern.n or len(set(phi)) != pattern.n:
            return False
        if any(not 0 <= v < g.n for v in phi) or emb.vertices != tuple(sorted(phi)):
            return False
        image = sorted(edge_key(phi[a], phi[b]) for a, b in pattern.edges())
        if emb.edges != tuple(image) or not all(g.has_edge(*e) for e in image):
            return False
        for e1, e2 in combinations(image, 2):
            for v in set(e1) & set(e2):
                if (v, *sorted(set(e1 + e2) - {v})) in triples:
                    return False
    return all(not set(a.phi) & set(b.phi) for a, b in combinations(embeddings, 2))


_FORGERIES = ("moved", "out-of-range", "repeated", "wrong-length", "overlap", "non-edge",
              "dropped-edge", "added-edge", "clash")


def _forge(rng, g, f, pattern, tiling, copies, kind):
    """(embeddings, system) with one copy of ``tiling`` forged by ``kind``
    so that it is no compatible tiling, or None when this tiling leaves
    no room for ``kind``."""
    i = rng.randrange(len(tiling))
    emb = tiling[i]
    phi = list(emb.phi)
    j = rng.randrange(len(phi))
    forged = None
    if kind == "moved":           # phi changed, the stored fields kept
        phi[j] = rng.choice([v for v in range(g.n) if v != phi[j]])
        forged = emb._replace(phi=tuple(phi))
    elif kind == "out-of-range":  # the fields derived from phi, as a copy's are
        phi[j] = rng.choice([-1, g.n, g.n + 3])
        forged = Embedding.from_phi(pattern, tuple(phi))
    elif kind == "repeated":      # two pattern vertices on one host vertex, apart if any are
        pairs = list(permutations(range(len(phi)), 2))
        apart = [(a, b) for a, b in pairs if not pattern.has_edge(a, b)]
        if pairs:
            a, b = rng.choice(apart or pairs)
            phi[a] = phi[b]
            forged = Embedding.from_phi(pattern, tuple(phi))
    elif kind == "wrong-length":  # one image too few or too many, vertices kept sorted
        phi = phi[:-1] if rng.random() < 0.5 else phi + [rng.randrange(g.n)]
        forged = Embedding(tuple(phi), tuple(sorted(phi)), emb.edges)
    elif kind == "overlap":       # another copy meeting the tiling, or a repeat
        used = mask_of(v for e in tiling for v in e.vertices)
        return tiling + [rng.choice([c for c in copies if c.mask & used])], f
    elif kind == "non-edge":
        moves = [(j, v) for j in range(len(phi)) for v in range(g.n) if v not in phi
                 and any(not g.has_edge(*[v if x == j else phi[x] for x in (a, b)])
                         for a, b in pattern.edges() if j in (a, b))]
        if moves:
            j, v = rng.choice(moves)
            phi[j] = v
            forged = Embedding.from_phi(pattern, tuple(phi))
    elif kind == "dropped-edge":
        if emb.edges:
            edges = list(emb.edges)
            del edges[rng.randrange(len(edges))]
            forged = emb._replace(edges=tuple(edges))
    elif kind == "added-edge":
        extra = [e for e in combinations(range(g.n), 2) if e not in emb.edges]
        if extra:
            forged = emb._replace(edges=tuple(sorted(emb.edges + (rng.choice(extra),))))
    else:                         # a clash at an image vertex of degree two or more
        centres = [u for u in range(pattern.n) if pattern.degree(u) > 1]
        if centres:
            u = rng.choice(centres)
            a, b = rng.sample(pattern.neighbors(u), 2)
            clash = (emb.phi[u], emb.phi[a], emb.phi[b])
            return tiling, IncompatibilitySystem(g, f.triples() + [clash])
    if forged is None:
        return None
    return tiling[:i] + [forged] + tiling[i + 1:], f


@settings(max_examples=200)
@given(seed=st.integers(0, 2**30),
       forge=st.one_of(st.none(), st.sampled_from(_FORGERIES)))
def test_verify_tiling_matches_the_definition(seed, forge):
    rng = random.Random(seed)
    pattern = random_graph(rng.randint(1, 4), 0.7, rng.getrandbits(30))
    host = random_graph(rng.randint(4, 10), 0.7, rng.getrandbits(30))
    f = random_system(host, rng.randint(0, 12), rng.getrandbits(30))
    copies = enumerate_compatible_copies(pattern, host, f).copies
    tiling, used = [], 0
    for emb in rng.sample(copies, len(copies)):
        if not emb.mask & used and rng.random() < 0.7:
            tiling.append(emb)
            used |= emb.mask
    if forge is not None and tiling:
        tiling, f = (_forge(rng, host, f, pattern, tiling, copies, forge)
                     or _forge(rng, host, f, pattern, tiling, copies, "moved"))
    expected = _is_compatible_tiling(host, f, pattern, tiling)
    assert expected == (forge is None or not tiling)
    assert verify_tiling(host, f, pattern, Tiling(tuple(tiling))) == expected
    for emb in tiling:
        assert verify_embedding(host, f, pattern, emb) == _is_compatible_tiling(
            host, f, pattern, [emb])


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
            k3, host, IncompatibilitySystem(host, f.triples() + [extra])).copies)
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


def test_transversal_copies_are_found_once_and_match_oracle():
    rng = random.Random(47)
    parts = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]
    for _ in range(20):
        g = random_graph(12, 0.85, rng.getrandbits(30))
        f = random_system(g, rng.randint(0, 10), rng.getrandbits(30))
        sizes = tuple(rng.randint(1, 3) for _ in range(3))
        keys = _keys(enumerate_transversal_copies(MultipartiteSpec(sizes), g, f, parts))
        assert len(keys) == len(set(keys)) and keys == sorted(keys)
        assert len(keys) == oracles.raw_transversal_count(sizes, g, f, parts)


def test_transversal_effort_is_pinned():
    # the class-preserving symmetry rule is one ascending chain per part
    g, part = complete_multipartite(MultipartiteSpec((4, 4, 4)))
    blocks = [list(b) for b in part.blocks]
    sized = [MultipartiteSpec(sizes) for sizes in ((1, 1, 1), (1, 2, 2), (2, 3, 1))]
    got = [(len(e.copies), e.expansions)
           for f in (None, random_bounded_system(g, Fraction(1, 12), 6))
           for e in (enumerate_transversal_copies(spec, g, f, blocks) for spec in sized)]
    assert got == [(64, 84), (144, 284), (96, 190), (41, 84), (3, 157), (0, 87)]


def _host_with_isolated_vertices(rng) -> Graph:
    # about one vertex in five has no edge at all: no copy can cover it
    n = rng.randint(1, 10)
    lonely = {v for v in range(n) if rng.random() < 0.2}
    p = rng.uniform(0.3, 0.9)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if u not in lonely and v not in lonely and rng.random() < p])


_MAX_TILING_PATTERNS = [complete_graph(2), path_graph(3), complete_graph(3), cycle_graph(4),
                        empty_graph(2), complete_graph(4),
                        disjoint_union(complete_graph(2), complete_graph(2))]


def test_max_tiling_matches_raw_oracle():
    # isolated vertices and dead rows make the search skip vertices it
    # cannot cover; patterns of 2-4 vertices make the parity cut bite.  A
    # budget either cuts the search off, leaving the best tiling found so
    # far, or changes nothing: same tiling and expansions as the unbounded
    # search.  Deriving the pattern's symmetry rule counts against the
    # budget but not in expansions, so covering the search needs both.
    rng = random.Random(53)
    for _ in range(150):
        host = _host_with_isolated_vertices(rng)
        f = random_system(host, rng.randint(0, 10), rng.getrandbits(30))
        pattern = rng.choice(_MAX_TILING_PATTERNS)
        res = max_compatible_tiling(pattern, host, f)
        assert res.optimal and verify_tiling(host, f, pattern, res.tiling)
        assert len(res.tiling) == oracles.raw_max_tiling(pattern, host, f)
        rule_cost = solver._plans[pattern][2] if pattern.n <= host.n else 0
        budget = rng.randint(0, 2 * res.expansions)
        cut = max_compatible_tiling(pattern, host, f, budget=budget)
        if max(res.expansions, rule_cost) <= budget:
            assert (cut.tiling, cut.optimal, cut.expansions) == \
                (res.tiling, True, res.expansions)
        else:
            assert not cut.optimal and cut.expansions > budget
            assert verify_tiling(host, f, pattern, cut.tiling)
            assert len(cut.tiling) <= len(res.tiling)


def test_greedy_tiling_maximal_and_seeded():
    k2 = complete_graph(2)
    g = random_graph(12, 0.5, 99)
    f = random_system(g, 5, 99)
    t1 = greedy_almost_tiling(k2, g, f, seed=1)
    t2 = greedy_almost_tiling(k2, g, f, seed=1)
    assert [e.vertices for e in t1.embeddings] == [e.vertices for e in t2.embeddings]
    assert verify_tiling(g, f, k2, t1)
    # maximality: no compatible copy inside the uncovered set
    pool = ((1 << g.n) - 1) & ~t1.covered()
    left = enumerate_compatible_copies(k2, g, f, pool=pool)
    assert len(left.copies) == 0
    # empty host: nothing covered
    t0 = greedy_almost_tiling(k2, empty_graph(6), None, seed=0)
    assert len(t0) == 0 and (((1 << 6) - 1) & ~t0.covered()).bit_count() == 6


def _greedy_host(name):
    g = random_graph(14, 0.6, 5) if name == "random" else random_graph(16, 0.7, 9)
    f = random_system(g, 12, 5) if name == "random" else \
        random_bounded_system(g, Fraction(1, 4), 4)
    return g, f


# greedy tries candidates by rank, not by id: the tilings pin that order
# under systems whose clashes refuse candidates
@pytest.mark.parametrize("pattern, host, seed, phis", [
    (complete_graph(3), "random", 3, [(11, 12, 6), (10, 4, 1), (13, 0, 7)]),
    (complete_graph(3), "random", 11, [(10, 5, 1), (0, 12, 7), (9, 4, 3), (6, 11, 8)]),
    (path_graph(3), "random", 3, [(12, 11, 6), (4, 10, 1), (0, 13, 7), (5, 8, 9)]),
    (path_graph(3), "random", 11, [(5, 10, 1), (12, 0, 13), (4, 9, 6), (3, 2, 7)]),
    (complete_graph(3), "bounded", 0, [(10, 14, 3), (5, 1, 2), (9, 11, 0), (13, 7, 12)]),
    (complete_graph(3), "bounded", 1, [(2, 14, 8), (10, 7, 13), (0, 6, 3), (5, 15, 4)]),
    (complete_graph(3), "bounded", 2, [(12, 7, 13), (11, 0, 9), (6, 3, 2), (8, 4, 10)]),
    (cycle_graph(4), "bounded", 0, [(10, 14, 0, 11), (5, 1, 13, 2), (9, 7, 8, 4)]),
    (cycle_graph(4), "bounded", 1, [(2, 0, 10, 6), (14, 3, 5, 8), (7, 15, 1, 13)]),
    (cycle_graph(4), "bounded", 2, [(12, 11, 13, 7), (6, 0, 3, 8), (4, 2, 5, 1)]),
], ids=["K3-seed3", "K3-seed11", "P3-seed3", "P3-seed11", "K3-bounded-seed0",
        "K3-bounded-seed1", "K3-bounded-seed2", "C4-bounded-seed0", "C4-bounded-seed1",
        "C4-bounded-seed2"])
def test_greedy_tiling_is_pinned(pattern, host, seed, phis):
    g, f = _greedy_host(host)
    tiling = greedy_almost_tiling(pattern, g, f, seed=seed)
    assert [e.phi for e in tiling.embeddings] == phis


def test_greedy_budget_cut_raises_with_the_copies_taken_so_far():
    # C_9 is odd, so K_{14,14} has no copy, and the search for one is long
    c9 = cycle_graph(9)
    k1414 = complete_multipartite(MultipartiteSpec((14, 14)))[0]
    with pytest.raises(BudgetExceeded) as cut:
        greedy_almost_tiling(c9, k1414, budget=1_000)
    assert len(cut.value.partial) == 0
    # a cut keeps a prefix of the tiling an ample budget gives, and it verifies
    g, f = _greedy_host("bounded")
    k3 = complete_graph(3)
    full = greedy_almost_tiling(k3, g, f, seed=1)
    prefixes = set()
    for budget in (0, 5, 20, 40, 80, 160, 320):
        try:
            tiling = greedy_almost_tiling(k3, g, f, seed=1, budget=budget)
        except BudgetExceeded as exc:
            tiling = exc.partial
        else:
            assert tiling == full
        assert tiling.embeddings == full.embeddings[:len(tiling)]
        assert verify_tiling(g, f, k3, tiling)
        prefixes.add(len(tiling))
    assert len(prefixes) > 2
    with pytest.raises(ValidationError, match="budget must be >= 0"):
        greedy_almost_tiling(k3, g, f, budget=-1)


def test_entry_points_reject_a_system_bound_to_another_graph():
    k3, k4 = complete_graph(3), complete_graph(4)
    k6 = complete_graph(6)
    full = IncompatibilitySystem(k6, [(v, a, b) for v in range(6) for a in range(6)
                                      for b in range(a + 1, 6) if v not in (a, b)])
    calls = [lambda: greedy_almost_tiling(k3, k4, full),
             lambda: enumerate_transversal_copies(MultipartiteSpec((1, 1, 1)), k4, full,
                                                  [[0], [1], [2, 3]]),
             lambda: enumerate_compatible_copies(k3, k4, full),
             lambda: find_compatible_factor(k3, k4, full),
             lambda: max_compatible_tiling(k3, k4, full)]
    for call in calls:
        with pytest.raises(ValidationError, match="bound to a different graph"):
            call()


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
