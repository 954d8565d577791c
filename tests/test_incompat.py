import hashlib
import random
import tracemalloc
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from comptile.errors import FormatError, ValidationError
from comptile.graphs import Graph, complete_graph, cycle_graph, disjoint_union, path_graph
from comptile import incompat, oracles
from comptile.incompat import (IncompatibilitySystem, count_bad_pairs_at, format_system,
                               parse_system, random_bounded_system, system_blocks,
                               system_to_json)
from comptile.oracles import raw_bounded_system
from comptile.solver import Embedding, enumerate_compatible_copies, verify_embedding

from .helpers import assert_canonical, random_graph, random_system


def test_pair_validation():
    k3 = complete_graph(3)
    with pytest.raises(ValidationError):
        IncompatibilitySystem(k3, [(0, 1, 1)])      # same edge twice
    with pytest.raises(ValidationError):
        IncompatibilitySystem(k3, [(0, 1, 3)])      # vertex out of range
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValidationError):
        IncompatibilitySystem(g, [(0, 1, 2)])       # (0,2) not an edge


def _first_fault(graph, triples):
    """Reference: the message of the first bad triple, each checked for a
    repeated edge, then for a (range, edge) and b (range, edge)."""
    for v, a, b in triples:
        if a == b:
            return f"pair at {v} names the same edge twice"
        for x in (a, b):
            if not (0 <= x < graph.n) or not (0 <= v < graph.n):
                return f"triple ({v},{a},{b}) outside vertex range"
            if not graph.has_edge(v, x):
                return f"({v},{x}) is not an edge of the bound graph"
    return None


def test_triple_checks_report_the_first_fault():
    rng = random.Random(5)
    faults = set()
    for i in range(300):
        g = random_graph(rng.randint(1, 6), 0.6, i)
        triples = [tuple(rng.randint(-1, g.n) for _ in range(3))
                   for _ in range(rng.randint(0, 4))]
        want = _first_fault(g, triples)
        if want is None:
            assert IncompatibilitySystem(g, triples).graph is g
            continue
        with pytest.raises(ValidationError) as exc:
            IncompatibilitySystem(g, triples)
        assert str(exc.value) == want
        faults.add(want.split()[-1])
    assert faults == {"twice", "range", "graph"}


def test_triples_follow_the_plain_definition():
    # the rows' partner masks are walked inline in sorted row order; the
    # list must be the given pairs as sorted (v, a, b) with a < b, once each
    rng = random.Random(29)
    for _ in range(60):
        g = random_graph(rng.randint(1, 40), rng.uniform(0.1, 1.0), rng.getrandbits(30))
        cand = [(v, a, b) for v in range(g.n) for a in g.neighbors(v) for b in g.neighbors(v)
                if a != b]
        given = rng.sample(cand, min(len(cand), rng.randint(0, 600)))
        f = IncompatibilitySystem(g, given)
        assert f.triples() == sorted({(v, min(a, b), max(a, b)) for v, a, b in given})


def test_compatibility_semantics_on_copies():
    # F = {(0, 1, 2)}: {01, 02} lies in F_0, so no copy may hold both edges
    k4 = complete_graph(4)
    f = IncompatibilitySystem(k4, [(0, 1, 2)])
    k3, p3 = complete_graph(3), path_graph(3)     # p3: centre 1, ends 0 and 2
    assert {e.vertices for e in enumerate_compatible_copies(k3, k4, f).copies} == \
        {(0, 1, 3), (0, 2, 3), (1, 2, 3)}
    for phi in ((1, 0, 2), (2, 0, 1)):            # centred at 0, ends 1 and 2
        assert not verify_embedding(k4, f, p3, Embedding.from_phi(p3, phi))
    for phi in ((1, 2, 0), (0, 2, 1)):            # centred at 2: the pair lives at 0
        assert verify_embedding(k4, f, p3, Embedding.from_phi(p3, phi))
    empty = IncompatibilitySystem.empty(k4)
    matching = disjoint_union(complete_graph(2), complete_graph(2))
    for pattern in (k3, p3, matching):
        for system in (f, empty):
            raw = oracles.raw_compatible_copies(pattern, k4, system)
            enumerated = {(e.vertices, e.edges)
                          for e in enumerate_compatible_copies(pattern, k4, system).copies}
            assert enumerated == raw
            for phi in permutations(range(4), pattern.n):
                for image in (phi, phi[::-1]):
                    emb = Embedding.from_phi(pattern, image)
                    assert verify_embedding(k4, system, pattern, emb) == \
                        ((emb.vertices, emb.edges) in raw)
    assert len(oracles.raw_compatible_copies(matching, k4, f)) == 3  # disjoint edges


def test_bound_report_examples():
    k4 = complete_graph(4)
    assert IncompatibilitySystem.empty(k4).delta == 0
    assert IncompatibilitySystem(k4, [(0, 1, 2)]).delta == 1
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    full = IncompatibilitySystem(star, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    assert full.delta == 2


def test_random_bounded_system_contract():
    c6 = cycle_graph(6)
    assert random_bounded_system(c6, 0, 1).total_pairs == 0
    a = random_bounded_system(c6, Fraction(1, 6), 42)
    b = random_bounded_system(c6, Fraction(1, 6), 42)
    assert format_system(a) == format_system(b)          # byte-identical from seed
    k8 = complete_graph(8)
    assert random_bounded_system(k8, Fraction(1, 4), 42).triples() \
        != random_bounded_system(k8, Fraction(1, 4), 43).triples()
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(4, 16)
        g = random_graph(n, 0.8, rng.getrandbits(30))
        mu = Fraction(rng.randint(0, 3), 10)
        f = random_bounded_system(g, mu, rng.getrandbits(30))
        delta = f.delta
        assert delta <= int(mu * n)                      # capped generator
        assert delta <= 2 * int(mu * n)                  # the documented worst case
        assert delta <= max(max(g.degree(v) for v in range(n)) - 1, 0)


def _star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def _rows(f: IncompatibilitySystem) -> list:
    return [(v, list(row.items())) for v, row in f.inc.items()]


def test_random_bounded_system_replays_the_literal_shuffles():
    rng = random.Random(18)
    seeds = (lambda: rng.getrandbits(30), lambda: (1 << 32) + rng.getrandbits(40),
             lambda: -1 - rng.getrandbits(40))
    cases = [(complete_graph(n), Fraction(rng.randint(1, 6), 40), seeds[n % 3]())
             for n in (2, 3, 8, 16, 24, 32, 40, 48)]
    # the star's 299-candidate rows draw more than 8 bits at a time
    cases += [(_star(300), Fraction(1, 100), 7), (_star(300), Fraction(1, 2), -5)]
    for i in range(300):
        g = random_graph(rng.randint(0, 20), rng.choice((0.1, 0.3, 0.6, 0.9)), rng.getrandbits(30))
        cases.append((g, Fraction(rng.randint(0, 12), 20), seeds[i % 3]()))
    covered = set()
    for g, mu, seed in cases:
        fast, raw = random_bounded_system(g, mu, seed), raw_bounded_system(g, mu, seed)
        assert fast.triples() == raw.triples(), (g.n, mu, seed)
        # equal rows, inserted in the same order: iteration over inc is unchanged too
        assert _rows(fast) == _rows(raw), (g.n, mu, seed)
        degrees = {g.degree(v) for v in range(g.n)}
        q = int(mu * g.n)
        covered |= degrees & {0, 1, 2}
        covered |= {tag for tag, hit in (("mu=0", mu == 0), ("seed>=2^32", seed >= 1 << 32),
                                         ("seed<0", seed < 0), ("K48", g.m == 48 * 47 // 2),
                                         ("q>=degree", g.m and q >= max(degrees)),
                                         ("row>255", max(degrees, default=0) > 256)) if hit}
    assert covered == {0, 1, 2, "mu=0", "seed>=2^32", "seed<0", "K48", "q>=degree", "row>255"}


def test_triple_constructor_stores_canonical_rows():
    # triples in any order, with a and b either way round, give sorted rows
    rng = random.Random(3)
    g = random_graph(12, 0.7, 8)
    want = random_system(g, 60, 2).triples()
    shuffled = [(v, b, a) if rng.random() < 0.5 else (v, a, b) for v, a, b in want]
    rng.shuffle(shuffled)
    f = IncompatibilitySystem(g, shuffled)
    assert f.triples() == want
    assert_canonical(f)


@given(st.integers(0, 40), st.sampled_from((0.1, 0.3, 0.6, 0.9)), st.integers(0, 1 << 30),
       st.integers(0, 20), st.integers(-(1 << 40), 1 << 40))
def test_random_bounded_system_stores_the_rows_its_triples_give(n, p, graph_seed, mu, seed):
    # the sampler writes its rows straight in, unchecked: they must be what
    # the checking constructor folds from the same triples, in the same order
    assert_canonical(random_bounded_system(random_graph(n, p, graph_seed), Fraction(mu, 20), seed))


def test_random_bounded_system_tops_up_inside_shuffles():
    # long rows and thousands of short shuffles back to back, against the literal shuffles
    rng = random.Random(5)
    cases = [(complete_graph(n), Fraction(1, rng.randint(3, 40)), rng.getrandbits(40))
             for n in (20, 40, 60)]
    cases += [(_star(300), Fraction(1, 100), 3), (_star(300), Fraction(1, 3), 4)]
    # thousands of one- to three-draw shuffles, from the 4- and 5-cliques
    cliques = Graph.from_edges(300, [(b + u, b + v) for b in range(0, 300, 5)
                                     for u in range(4 + b % 2) for v in range(u + 1, 4 + b % 2)])
    cases += [(cliques, Fraction(k, 300), seed) for k in (1, 4) for seed in range(6)]
    for g, mu, seed in cases:
        assert _rows(random_bounded_system(g, mu, seed)) == _rows(raw_bounded_system(g, mu, seed))


class _RecordedRandom(random.Random):
    """random.Random that logs every getrandbits(k) call as (k, value)."""
    log = None

    def getrandbits(self, k):
        value = super().getrandbits(k)
        self.log.append((k, value))
        return value


@pytest.mark.parametrize("mu", [Fraction(1, 12), Fraction(0), Fraction(1)],
                         ids=["q=1", "mu=0", "q>=degree"])
def test_random_bounded_system_draws_what_the_literal_shuffles_draw(monkeypatch, mu):
    # at q = 1 on K_12 an edge picked by an earlier one is full at its turn and
    # draws without moving (60 of the 132 edges at seed 29); at mu = 0 nothing
    # draws, and at q >= 11 no edge fills
    monkeypatch.setattr(random, "Random", _RecordedRandom)
    k12 = complete_graph(12)
    logs = []
    for build in (random_bounded_system, raw_bounded_system):
        monkeypatch.setattr(_RecordedRandom, "log", [])
        build(k12, mu, 29)
        logs.append(_RecordedRandom.log)
    assert logs[0] == logs[1]
    # the raw shuffles draw at least once per slot: 12 vertices x 11 edges x 9 slots
    assert len(logs[0]) >= 12 * 11 * 9 if mu else logs[0] == []


def test_random_bounded_system_refuses_a_float_mu():
    k10 = complete_graph(10)
    assert random_bounded_system(k10, "3/10", 1).delta == 3
    # Fraction(0.3) is a little below 3/10, so 0.3 would floor to q = 2
    with pytest.raises(ValidationError, match=r"mu 0\.3 is a float.*\"3/10\""):
        random_bounded_system(k10, 0.3, 1)


# sha256 of format_system, recorded from earlier generators; a changed
# oracle cannot hide a drift of the stream
PINNED_STREAM = [
    (complete_graph(30), Fraction(1, 20), 171,
     "a12c05c384c401703a9e34cb7949f0f73140b956c90663055604cf192e550a09"),
    (random_graph(40, 0.8, 5), Fraction(1, 10), 2**40 + 3,
     "92a0427da43a1e878edf239f2ccb53cd044195ac5159ce9fc1c3953c853349f9"),
    (complete_graph(60), Fraction(1, 50), -12345,
     "79b59ad2e50bedf6eeaec982f5e64da183fa27b0b9461f2ea798325f17a5e83f"),
    (random_graph(16, 0.5, 3), Fraction(3, 10), 0,
     "82e85b648dcb384503f90bf1f38c4cb29e0b467a8bb5b2e188217d290f364d79"),
    (_star(300), Fraction(1, 100), 7,
     "643ad7292ded743a41030f6ab794e1e6923a59518443273a4c00d7a874e0e480"),
]


@pytest.mark.parametrize("case", range(len(PINNED_STREAM)))
def test_random_bounded_system_stream_is_pinned(case):
    g, mu, seed, digest = PINNED_STREAM[case]
    text = format_system(random_bounded_system(g, mu, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_random_bounded_system_draws_in_bounded_chunks():
    k60, mu = complete_graph(60), Fraction(1, 50)
    random_bounded_system(k60, mu, 0)    # one-time allocations stay outside the trace
    tracemalloc.start()
    try:
        random_bounded_system(k60, mu, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the inline draws peak at about 246 KiB, as the literal shuffles do; drawing
    # all of the system's words at once would take ~2 MB
    assert peak < 512 << 10


def test_count_bad_pairs_examples():
    k4 = complete_graph(4)
    assert count_bad_pairs_at(IncompatibilitySystem.empty(k4), 0) == 0
    f = IncompatibilitySystem(k4, [(0, 1, 2)])
    assert count_bad_pairs_at(f, 0) >= 1
    # {(1,3), (1,2)} in F_1 blocks exactly the neighbor pair {1, 2} of vertex 3
    f2 = IncompatibilitySystem(k4, [(1, 3, 2)])
    assert count_bad_pairs_at(f2, 3) == 1
    # a pair with no edge at 3 blocks nothing at 3
    f3 = IncompatibilitySystem(k4, [(1, 0, 2)])
    assert count_bad_pairs_at(f3, 3) == 0


def test_count_bad_pairs_matches_brute_force():
    rng = random.Random(5)
    for _ in range(80):
        g = random_graph(rng.randint(2, 11), rng.uniform(0.3, 1.0), rng.getrandbits(30))
        f = random_system(g, rng.randint(0, 40), rng.getrandbits(30))
        pairs = set(f.triples())

        def bad(v, a, b):  # {va, vb} in F_v, by the triple list
            return (v, min(a, b), max(a, b)) in pairs

        for v in range(g.n):
            nbrs = [u for u in range(g.n) if g.has_edge(v, u)]
            expected = sum(1 for i, v1 in enumerate(nbrs) for v2 in nbrs[i + 1:]
                           if bad(v, v1, v2)
                           or (g.has_edge(v1, v2) and (bad(v1, v, v2) or bad(v2, v, v1))))
            assert count_bad_pairs_at(f, v) == expected


def test_file_roundtrip_and_json():
    g = complete_graph(5)
    f = random_system(g, 6, 4)
    text = format_system(f)
    again = parse_system(text, g)
    assert again.triples() == f.triples()
    blob = system_to_json(f)
    import json
    again2 = parse_system(json.dumps(blob), g)
    assert again2.triples() == f.triples()
    with pytest.raises(FormatError):
        parse_system("0 1\n", g)
    with pytest.raises(FormatError):
        parse_system('{"pairs": [[0, 1]]}', g)


@pytest.mark.parametrize("lines", [1, 2, 5, incompat.BLOCK_LINES])
def test_system_blocks_join_to_the_line_format(monkeypatch, lines):
    monkeypatch.setattr(incompat, "BLOCK_LINES", lines)
    g = complete_graph(6)
    f = random_system(g, 11, 3)
    triples = f.triples()
    blocks = list(system_blocks(triples))
    assert len(blocks) == -(-len(triples) // lines)
    assert "".join(blocks) == format_system(f) == \
        "".join(f"{v} {a} {b}\n" for v, a, b in triples)
    assert system_to_json(f)["pairs"] == triples
    assert format_system(IncompatibilitySystem.empty(g)) == ""


def test_comment_lines_ignored():
    g = complete_graph(3)
    f = parse_system("# header\n0 1 2\n", g)
    assert f.triples() == [(0, 1, 2)]


@pytest.mark.parametrize("entry", ["2.7", '"2"', "true", "2.0", "null"])
def test_json_pairs_hold_integers_only(entry):
    # a float, a string, a bool or null is no vertex id, even where it names
    # an integer; the line format refuses such tokens too
    text = '{"pairs": [[0, 1, %s]]}' % entry
    with pytest.raises(FormatError, match=r"JSON pair \[0, 1, "):
        parse_system(text, complete_graph(4))


def test_json_pair_that_overflows_int_is_a_format_error():
    # JSON reads 1e999 as float infinity, which is not an integer
    with pytest.raises(FormatError, match=r"JSON pair \[inf, 1, 2\]"):
        parse_system('{"pairs": [[1e999, 1, 2]]}', complete_graph(3))
