import random
from fractions import Fraction

import pytest

from comptile import coloring, oracles, solver
from comptile.coloring import INFINITY, _colorings, bottle_graph, chi_star
from comptile.errors import SizeCapError
from comptile.graphs import (MultipartiteSpec, complete_graph, complete_multipartite,
                             cycle_graph, disjoint_union, path_graph)

from .helpers import random_graph


def test_chromatic_number_examples():
    assert chi_star(complete_graph(3)).chi == 3
    assert chi_star(cycle_graph(5)).chi == 3
    assert chi_star(disjoint_union(complete_graph(2), complete_graph(2))).chi == 2


def test_profile_examples():
    assert chi_star(path_graph(3)).profiles == {(1, 2)}
    assert chi_star(complete_graph(3)).profiles == {(1, 1, 1)}
    assert chi_star(cycle_graph(4)).profiles == {(2, 2)}


def test_chi_star_walks_each_k_once(monkeypatch):
    # C_5: the clique bound is 2, which has no coloring; k = 3 is walked
    # once, to the end, and gives both chi and the profiles
    walked = []

    def recording(g, k):
        walked.append(k)
        return _colorings(g, k)

    monkeypatch.setattr(coloring, "_colorings", recording)
    assert chi_star.__wrapped__(cycle_graph(5)).profiles == {(1, 2, 2)}
    assert walked == [2, 3]
    walked.clear()
    assert chi_star.__wrapped__(complete_graph(4)).profiles == {(1, 1, 1, 1)}
    assert walked == [4]


def test_sigma_and_d_set_examples():
    assert chi_star(complete_graph(3)).sigma == 1
    assert chi_star(cycle_graph(4)).sigma == 2
    k112 = complete_multipartite(MultipartiteSpec((1, 1, 2)))[0]
    assert chi_star(k112).sigma == 1
    assert chi_star(complete_graph(3)).d_set == {0}
    assert chi_star(path_graph(3)).d_set == {1}
    assert chi_star(k112).d_set == {0, 1}


def _hcf(g):
    prof = chi_star(g)
    return prof.hcf_chi, prof.hcf_c, prof.hcf_is_one


def test_hcf_examples():
    assert _hcf(complete_graph(3)) == (INFINITY, 3, False)
    assert _hcf(path_graph(3)) == (1, 3, False)
    hc, cc, one = _hcf(disjoint_union(complete_graph(2), path_graph(3)))
    assert cc == 1 and one == (hc <= 2)


def test_chi_star_spot_values():
    assert chi_star(complete_graph(3)).chi_star == 3
    k2 = chi_star(complete_graph(2))
    assert k2.chi_cr == 2 and not k2.hcf_is_one and k2.chi_star == 2
    k112 = chi_star(complete_multipartite(MultipartiteSpec((1, 1, 2)))[0])
    assert k112.chi_cr == Fraction(8, 3) and k112.hcf_is_one
    assert k112.chi_star == Fraction(8, 3)


def test_profiles_match_raw_oracle_on_corpus(corpus):
    for name, g in corpus.items():
        prof = chi_star(g)
        raw = oracles.raw_chromatic_profile(g)
        assert prof.chi == raw["chi"], name
        assert prof.sigma == raw["sigma"], name
        assert prof.d_set == raw["d_set"], name
        assert prof.hcf_chi == raw["hcf_chi"], name
        assert prof.hcf_c == raw["hcf_c"], name
        assert prof.hcf_is_one == raw["hcf_is_one"], name
        assert prof.chi_cr == raw["chi_cr"], name
        assert prof.chi_star == raw["chi_star"], name


def test_profiles_match_raw_oracle_on_random_graphs():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 7)
        g = random_graph(n, rng.uniform(0.2, 0.9), rng.getrandbits(30))
        prof = chi_star(g)
        raw = oracles.raw_chromatic_profile(g)
        assert (prof.chi, prof.sigma, prof.d_set) == (raw["chi"], raw["sigma"], raw["d_set"])
        assert prof.chi_cr == raw["chi_cr"] and prof.chi_star == raw["chi_star"]


def test_profiles_match_raw_oracle_around_chi():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 7)
        g = random_graph(n, rng.uniform(0.2, 0.8), rng.getrandbits(30))
        prof = chi_star(g)
        assert prof.chi == oracles.raw_chromatic_number(g)
        assert prof.profiles == oracles.raw_coloring_profiles(g, prof.chi)


def test_chromatic_number_runs_without_recursion_on_long_cycles():
    assert next(_colorings(cycle_graph(2100), 2), None) is not None
    assert next(_colorings(cycle_graph(2101), 2), None) is None
    assert next(_colorings(cycle_graph(2101), 3), None) is not None


def test_rational_bound_chi_minus_one_lt_cr_le_chi(corpus):
    for g in corpus.values():
        prof = chi_star(g)
        assert prof.chi - 1 < prof.chi_cr <= prof.chi
        assert prof.chi_star in (prof.chi_cr, Fraction(prof.chi))


def test_bottle_graph_shapes_and_chi_cr(corpus):
    for name, g in corpus.items():
        b, part = bottle_graph(g)
        prof = chi_star(g)
        sizes = tuple(len(blk) for blk in part.blocks)
        assert sizes[0] == (prof.chi - 1) * prof.sigma, name
        assert all(s == g.n - prof.sigma for s in sizes[1:]), name
        assert chi_star(b).chi_cr == prof.chi_cr, name


def test_bottle_graph_contains_pattern_factor(corpus):
    # r-1 disjoint copies of the pattern tile its bottle graph
    for name in ("K_2", "K_3", "K_3(1,1,2)"):
        g = corpus[name]
        b, _ = bottle_graph(g)
        res = solver.find_compatible_factor(g, b)
        assert res.status == solver.FOUND
        assert len(res.tiling) == chi_star(g).chi - 1


def test_multipartite_d_set_is_part_size_gap_set():
    rng = random.Random(11)
    for _ in range(50):
        r = rng.randint(1, 4)
        sizes = []
        while sum(sizes) + (r - len(sizes)) > 9 or len(sizes) < r:
            sizes = [rng.randint(1, 4) for _ in range(r)]
        g, _ = complete_multipartite(MultipartiteSpec(tuple(sizes)))
        ordered = sorted(sizes)
        want = {ordered[i + 1] - ordered[i] for i in range(len(ordered) - 1)}
        assert chi_star(g).d_set == frozenset(want)


def test_coloring_cap():
    big = complete_graph(13)
    with pytest.raises(SizeCapError):
        chi_star(big)
