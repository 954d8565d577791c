import random
import tracemalloc
from fractions import Fraction
from itertools import permutations

import pytest

from comptile import construct, solver
from comptile.coloring import chi_star
from comptile.construct import (KOMLOS, KUHN_OSTHUS, ConstructionSpec,
                                augment_and_incompat, detect_multipartite,
                                komlos_base, kuhn_osthus_base,
                                verify_index_vector_claim)
from comptile.errors import SizeCapError, ValidationError
from comptile.graphs import (Graph, MultipartiteSpec, complete_graph,
                             complete_multipartite, cycle_graph, disjoint_union,
                             empty_graph, path_graph)
from comptile.incompat import IncompatibilitySystem
from comptile.lattice import GeneratedLattice, index_vector
from comptile.oracles import raw_factor_exists
from comptile.util import mask_of

from .helpers import assert_canonical

K3 = complete_graph(3)
K111 = MultipartiteSpec((1, 1, 1))


@pytest.mark.parametrize("n,sizes,delta", [
    (6, (3, 1, 2), 3),
    (9, (4, 2, 3), 5),
    (12, (5, 3, 4), 7),
])
def test_ko_base_k3(n, sizes, delta):
    base = kuhn_osthus_base(K3, n)
    assert base.sizes == sizes
    assert base.min_degree == delta == -(-2 * n // 3) - 1
    assert base.factor_status == "confirmed_absent"


def test_ko_base_k4():
    assert kuhn_osthus_base(complete_graph(4), 8).sizes == (3, 1, 2, 2)


def test_ko_base_preconditions_named():
    with pytest.raises(ValidationError, match="chi"):
        kuhn_osthus_base(complete_graph(2), 6)
    with pytest.raises(ValidationError, match="hcf"):
        kuhn_osthus_base(cycle_graph(5), 10)      # hcf(C_5) = 1
    with pytest.raises(ValidationError, match="divisible"):
        kuhn_osthus_base(K3, 7)


def test_komlos_base_examples():
    base = komlos_base(K3, 6)
    assert base.sizes == (3, 2, 1) and base.min_degree == 3
    assert base.factor_status == "confirmed_absent"
    base = komlos_base(complete_graph(2), 4)
    assert base.sizes == (3, 1) and base.min_degree == 1
    assert base.factor_status == "confirmed_absent"   # no perfect matching
    k112 = complete_multipartite(MultipartiteSpec((1, 1, 2)))[0]
    base = komlos_base(k112, 8)
    assert base.sizes[0] == 4                          # ceil(8 / (8/3)) + 1
    # the even split admits a factor here; the report must say so honestly
    assert base.factor_status == "factor_exists"
    assert base.min_degree == 4


def _kr(*sizes):
    return complete_multipartite(MultipartiteSpec(sizes))[0]


# patterns with one colouring profile and patterns with several, e.g.
# P3+K1 splits (2,2) or (1,3), K3+2K1 splits (1,1,3) or (1,2,2)
_PROFILE_PATTERNS = [path_graph(4), cycle_graph(5), cycle_graph(6),
                     disjoint_union(complete_graph(2), complete_graph(2)),
                     disjoint_union(complete_graph(2), empty_graph(1)), _kr(1, 2), _kr(1, 1, 2),
                     disjoint_union(path_graph(3), empty_graph(1)),
                     disjoint_union(complete_graph(3), empty_graph(2)),
                     disjoint_union(cycle_graph(5), empty_graph(1)),
                     disjoint_union(complete_graph(2), empty_graph(2))]


def test_factor_rule_matches_the_solver_and_the_oracle():
    rng = random.Random(13)
    assert any(len(chi_star(h).profiles) > 1 for h in _PROFILE_PATTERNS)
    checked_by_oracle = 0
    for _ in range(120):
        pattern = rng.choice(_PROFILE_PATTERNS)
        r = chi_star(pattern).chi
        n = pattern.n * rng.randint(1, 12 // pattern.n)
        if n < r:
            continue
        cuts = sorted(rng.sample(range(1, n), r - 1))
        sizes = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
        host = _kr(*sizes)
        want = solver.find_compatible_factor(pattern, host).status == solver.FOUND
        assert construct._factor_exists(pattern, sizes) == want, (pattern, sizes)
        if n <= 10:
            assert raw_factor_exists(pattern, host) == want, (pattern, sizes)
            checked_by_oracle += 1
    assert checked_by_oracle >= 40


def _in_lattice(pattern, sizes):
    vectors = {v for prof in chi_star(pattern).profiles
               for v in permutations(prof)}
    return GeneratedLattice(sorted(vectors)).membership(sizes)[0]


@pytest.mark.parametrize("pattern, n, build, status, lattice_member", [
    (complete_graph(2), 600, komlos_base, "confirmed_absent", False),
    (_kr(1, 1, 3), 300, kuhn_osthus_base, "confirmed_absent", False),
    (_kr(1, 1, 1, 1, 3), 210, kuhn_osthus_base, "confirmed_absent", False),
    (_kr(1, 2, 2), 120, komlos_base, "confirmed_absent", True),    # the search decides
    (_kr(1, 1, 2), 24, komlos_base, "factor_exists", True),
    # the per-part bound on the remainders keeps these to a few nodes
    (_kr(1, 2, 2), 600, komlos_base, "confirmed_absent", True),
    (_kr(1, 2, 2), 1200, komlos_base, "confirmed_absent", True),
    (_kr(1, 2, 2, 2), 630, komlos_base, "confirmed_absent", True),
])
def test_base_factor_status_is_decided(pattern, n, build, status, lattice_member):
    base = build(pattern, n)
    assert base.factor_status == status
    assert _in_lattice(pattern, base.sizes) == lattice_member


def test_komlos_window_reported_not_enforced():
    base = komlos_base(K3, 6)
    assert base.parts_in_window == (True, True, False)
    assert base.window_low == Fraction(2) and base.window_high == 3


def test_full_instance_arithmetic_infeasible_at_small_n():
    # mu*n = 2 would need 2-regular bipartite graphs inside odd/small parts
    for base in (KOMLOS, KUHN_OSTHUS):
        spec = ConstructionSpec(K111, 12, Fraction(1, 6), base=base)
        with pytest.raises(ValidationError, match="too small"):
            augment_and_incompat(spec)
    spec = ConstructionSpec(K111, 6, Fraction(1, 6))
    with pytest.raises(ValidationError):
        augment_and_incompat(spec)


def test_spec_validation():
    with pytest.raises(ValidationError, match="interval"):
        ConstructionSpec(K111, 12, Fraction(0))
    with pytest.raises(ValidationError, match="interval"):
        ConstructionSpec(K111, 12, Fraction(1, 3))
    with pytest.raises(ValidationError, match="divisible"):
        ConstructionSpec(K111, 10, Fraction(1, 6))
    with pytest.raises(ValidationError, match="chi"):
        ConstructionSpec(MultipartiteSpec((1, 1)), 8, Fraction(1, 10), base=KUHN_OSTHUS)
    with pytest.raises(ValidationError, match="hcf"):
        # K_3(1,1,2) has hcf = 1, so the ko base refuses it
        ConstructionSpec(MultipartiteSpec((1, 1, 2)), 16, Fraction(1, 10),
                         base=KUHN_OSTHUS)


@pytest.fixture(scope="module")
def inst24():
    spec = ConstructionSpec(K111, 24, Fraction(1, 6), base=KOMLOS)
    return augment_and_incompat(spec)


def test_full_instance_certificates(inst24):
    certs = inst24.certificates
    assert certs.all_hold()
    assert certs.min_degree == 18 and certs.min_degree_bound == 18
    assert certs.internal_min_bound == 3 and certs.internal_max_bound == 4
    for lo, hi in certs.part_internal_degrees:
        assert 3 <= lo <= hi <= 4
    assert all(certs.parts_bipartite)
    assert certs.f_delta == 4 == certs.f_delta_bound


def test_full_instance_system_matches_quoted_rule(inst24):
    g, part, f = inst24.graph, inst24.partition, inst24.system
    base = inst24.base.graph
    expected = set()
    for v in range(g.n):
        vb = part.block_of(v)
        for pj, block in enumerate(part.blocks):
            if pj == vb:
                continue
            for u in block:
                for w in block:
                    if u < w and g.has_edge(u, w) and not base.has_edge(u, w):
                        expected.add((v, u, w))
    assert set(f.triples()) == expected


def test_round_trip_identity(inst24):
    # masking each row by its own block removes the augmentation exactly
    blocks = inst24.partition
    rows = [inst24.graph.adj[v] & ~mask_of(blocks.blocks[blocks.block_of(v)])
            for v in range(inst24.graph.n)]
    assert Graph(inst24.graph.n, rows) == inst24.base.graph


def test_index_vector_claim_true_and_f_empty_false(inst24):
    rep = verify_index_vector_claim(inst24)
    assert rep.status == "true" and rep.copies_checked > 0
    stripped = type(inst24)(inst24.spec, inst24.graph, inst24.partition,
                            IncompatibilitySystem.empty(inst24.graph),
                            inst24.base, inst24.certificates)
    rep2 = verify_index_vector_claim(stripped)
    assert rep2.status == "false"
    vec = index_vector(rep2.witness.vertices, inst24.partition)
    assert sorted(vec) != [1, 1, 1]


def test_index_vector_claim_needs_three_parts():
    # mu*n = 4 leaves room for the circulant on odd parts (degrees {3, 4})
    spec = ConstructionSpec(MultipartiteSpec((1, 1)), 16, Fraction(1, 4))
    inst = augment_and_incompat(spec)
    assert inst.certificates.all_hold()
    with pytest.raises(ValidationError, match="r >= 3"):
        verify_index_vector_claim(inst)


@pytest.mark.parametrize("sizes, n, mu, base", [
    ((1, 1), 16, Fraction(1, 4), KOMLOS), ((1, 1, 1), 24, Fraction(1, 6), KUHN_OSTHUS),
    ((1, 1, 2), 28, Fraction(1, 6), KOMLOS),
])
def test_triple_cap_counts_the_triples_built(monkeypatch, sizes, n, mu, base):
    # the cap is checked against the exact size of the system it would build
    spec = ConstructionSpec(MultipartiteSpec(sizes), n, mu, base=base)
    triples = augment_and_incompat(spec).system.total_pairs
    monkeypatch.setattr(construct, "TRIPLE_CAP", triples - 1)
    with pytest.raises(SizeCapError, match=f"would hold {triples} triples"):
        augment_and_incompat(spec)


def test_transversal_copies_stay_compatible(inst24):
    # cross-check with the transversal enumerator on the construction parts
    enum = solver.enumerate_transversal_copies(
        K111, inst24.graph, inst24.system, [list(b) for b in inst24.partition.blocks])
    free = solver.enumerate_transversal_copies(
        K111, inst24.graph, None, [list(b) for b in inst24.partition.blocks])
    assert len(enum.copies) == len(free.copies) > 0


def test_transversal_vector_is_robust_on_instance(inst24):
    from comptile.absorb import robust_vectors
    rep = robust_vectors(inst24.graph, inst24.system, inst24.spec.pattern(),
                         inst24.partition, Fraction(1, 24))
    vec_report = rep.vectors[(1, 1, 1)]
    assert vec_report.robust and vec_report.verdict == "proven"
    assert vec_report.disjoint_copies >= 2        # beats w = floor(n/24) = 1
    # transversal vectors are the only compatible ones on this instance
    assert rep.robust_vectors() == [(1, 1, 1)]
    assert set(rep.vectors) == {(1, 1, 1)}


def test_detect_multipartite():
    g, _ = complete_multipartite(MultipartiteSpec((2, 3, 1)))
    assert detect_multipartite(g).sizes == (2, 3, 1)
    with pytest.raises(ValidationError, match="edge inside a part"):
        detect_multipartite(path_graph(4))
    with pytest.raises(ValidationError, match="edge inside a part"):
        detect_multipartite(cycle_graph(5))


def test_detect_multipartite_checks_parts_against_the_definition(monkeypatch):
    # each vertex must see exactly the vertices outside its part, however
    # the parts were found: a walk that split a part leaves a cross edge missing
    g, _ = complete_multipartite(MultipartiteSpec((2, 2)))
    monkeypatch.setattr(construct, "complement_components",
                        lambda g, pool: [0b0001, 0b0010, 0b1100])
    with pytest.raises(ValidationError, match="missing cross edge"):
        detect_multipartite(g)


def test_induced_triples_are_streamed_into_the_system():
    # n = 60 holds 7,434 triples: a list of them before the system would
    # push the build's peak past 0.5 MB; streamed, it peaks near 0.15 MB
    spec = ConstructionSpec(K111, 60, Fraction(1, 6))
    augment_and_incompat(spec)    # one-time allocations stay outside the trace
    tracemalloc.start()
    try:
        inst = augment_and_incompat(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.system.total_pairs == 7434
    assert peak < 300 << 10


@pytest.mark.parametrize("sizes, n, base", [
    ((1, 1, 1), n, base) for n in range(24, 61, 6) for base in (KOMLOS, KUHN_OSTHUS)
] + [((1, 1, 2), 24, KOMLOS)])
def test_induced_system_rows_are_the_ones_its_definition_gives(sizes, n, base):
    # the rows are written straight in, unchecked: they must be what the
    # checking constructor builds from the definition's triples, each
    # in-part edge xy incompatible at every v outside the part
    inst = augment_and_incompat(ConstructionSpec(MultipartiteSpec(sizes), n, Fraction(1, 6), base))
    g, blocks = inst.graph, inst.partition.blocks
    defined = IncompatibilitySystem(g, [(v, x, y) for block in blocks for x in block
                                        for y in g.neighbors(x) if x < y and y in block
                                        for v in range(n) if v not in block])
    assert_canonical(inst.system)
    assert [(v, list(row.items())) for v, row in inst.system.inc.items()] \
        == [(v, list(row.items())) for v, row in defined.inc.items()]
