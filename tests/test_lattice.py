import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from comptile.errors import ValidationError
from comptile.graphs import VertexPartition
from comptile.lattice import (GeneratedLattice, _hnf_with_transform, find_transferral,
                              index_vector, obstruction, refutes, unit_vector)
from comptile.oracles import bounded_combination_membership

from .helpers import combination


def test_index_vector_examples():
    p = VertexPartition(6, ((0, 1, 2), (3, 4), (5,)))
    assert index_vector([], p) == (0, 0, 0)
    assert index_vector([0, 1, 2], p) == (3, 0, 0)
    assert index_vector([0, 3, 5], p) == (1, 1, 1)
    with pytest.raises(ValidationError):
        index_vector([0, 0], p)
    with pytest.raises(ValidationError):
        index_vector([9], p)


@given(st.lists(st.integers(0, 9), unique=True), st.lists(st.integers(0, 9), unique=True))
def test_index_vector_additive_on_disjoint_sets(a, b):
    p = VertexPartition(10, ((0, 1, 2, 3), (4, 5, 6), (7, 8, 9)))
    b = [x for x in b if x not in set(a)]
    va, vb = index_vector(a, p), index_vector(b, p)
    vu = index_vector(sorted(set(a) | set(b)), p)
    assert tuple(x + y for x, y in zip(va, vb)) == vu
    assert sum(vu) == len(set(a) | set(b))


def test_membership_examples():
    lat = GeneratedLattice([(1, 2), (2, 1)])
    member, coeffs = lat.membership((1, -1))
    assert member
    assert coeffs == (-1, 1)
    assert not GeneratedLattice([(2, 0)]).membership((1, 0))[0]
    member, coeffs = GeneratedLattice([(2, 0)]).membership((2, 0))
    assert member and coeffs == (1,)


def test_membership_empty_and_degenerate():
    lat = GeneratedLattice([], dim=3)
    assert lat.membership((0, 0, 0)) == (True, ())
    assert not lat.membership((1, 0, 0))[0]
    with pytest.raises(ValidationError):
        GeneratedLattice([], dim=None)
    with pytest.raises(ValidationError, match="generator 1 has width 3, expected 2"):
        GeneratedLattice([(1, 2), (1, 2, 3)])
    with pytest.raises(ValidationError, match="generator 0 has width 2, expected 3"):
        GeneratedLattice([(1, 2)], dim=3)
    with pytest.raises(ValidationError, match="dimension must be >= 0"):
        GeneratedLattice([], dim=-2)
    with pytest.raises(ValidationError):
        GeneratedLattice([(1, 2)]).membership((1, 2, 3))


def test_certificates_are_pinned():
    # recorded with the dense m x m transform; the sparse rows must give the same
    lat = GeneratedLattice([(0, -1, 2), (1, 2, -1), (-2, 0, -3), (-1, 0, -1), (2, 3, 0),
                            (2, 3, 1)], 3)
    assert lat.membership((4, 5, 1)) == (True, (4, 6, 0, 0, 0, -1))
    lat = GeneratedLattice([(-1, -2, -1), (-2, -3, 1), (3, -2, -3), (1, 2, 3), (-1, 2, 0),
                            (3, 3, -3)], 3)
    assert lat.membership((16, 3, -12)) == (True, (809, -265, 0, 354, 59, 0))
    robust = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 1, 1), (1, 2, 0), (2, 1, 0)]
    assert find_transferral(GeneratedLattice(robust)) == (0, 1, (-1, 0, 1, 0, 0, 0))


def test_repeated_generators_are_reduced_once_with_zero_coefficients():
    # the HNF runs over the distinct generators in first-occurrence order;
    # answers are those of the list without repeats, and coefficients stay
    # over the full list, 0 on every repeat
    rng = random.Random(23)
    repeats = 0
    for _ in range(300):
        dim = rng.randint(1, 4)
        base = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(1, 4))]
        gens = [rng.choice(base) for _ in range(rng.randint(1, 10))]
        distinct = list(dict.fromkeys(gens))
        first = [gens.index(g) for g in distinct]
        repeats += len(gens) - len(distinct)
        lat, plain = GeneratedLattice(gens, dim), GeneratedLattice(distinct, dim)
        assert lat.generators == gens
        combo = combination([rng.randint(-2, 2) for _ in gens], gens, dim)
        for target in (combo, [rng.randint(-5, 5) for _ in range(dim)]):
            member, cert = lat.membership(target)
            plain_member, plain_cert = plain.membership(target)
            assert member == plain_member
            if member:
                assert len(cert) == len(gens)
                assert combination(cert, gens, dim) == target
                assert all(a == 0 for i, a in enumerate(cert) if i not in first)
                assert tuple(cert[i] for i in first) == plain_cert
            else:
                assert cert == plain_cert and refutes(cert, gens, target)
    assert repeats > 300


def test_sparse_transform_rows_reproduce_the_hnf():
    rng = random.Random(10)
    for _ in range(300):
        dim = rng.randint(1, 5)
        gens = [tuple(rng.randint(-4, 4) for _ in range(dim))
                for _ in range(rng.randint(0, 12))]
        hnf, transform, pivots = _hnf_with_transform(gens, dim)
        assert len(transform) == len(gens)
        for r, row in enumerate(transform):
            assert all(row.values())                 # no stored zeros
            dense = [row.get(s, 0) for s in range(len(gens))]
            assert combination(dense, gens, dim) == hnf[r]
        for row, col in pivots:
            assert hnf[row][col] > 0
            assert all(0 <= hnf[r][col] < hnf[row][col] for r in range(row))


def test_many_generators_need_no_dense_transform():
    # one transform row per generator: a dense m x m transform would take
    # tens of MB here (75 MB at m = 3000), the sparse rows about 1 MB
    rng = random.Random(3)
    gens = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(2000)]
    target = (7, -5, 11)
    tracemalloc.start()
    try:
        lat = GeneratedLattice(gens, 3)
        member, coeffs = lat.membership(target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert member and combination(coeffs, gens, 3) == list(target)


def test_membership_invariant_under_generator_shuffling():
    rng = random.Random(4)
    for _ in range(50):
        dim = rng.randint(1, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(1, 5))]
        lat = GeneratedLattice(gens, dim)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        coeffs = [rng.randint(-2, 2) for _ in gens]
        extra = tuple(sum(a * g[c] for a, g in zip(coeffs, gens))
                      for c in range(dim))
        augmented = GeneratedLattice(shuffled + [extra], dim)
        for _ in range(5):
            target = tuple(rng.randint(-5, 5) for _ in range(dim))
            assert lat.membership(target)[0] == \
                GeneratedLattice(shuffled, dim).membership(target)[0] == \
                augmented.membership(target)[0]


def test_membership_agrees_with_bounded_brute_force():
    # in-domain targets: combinations with |coeff| <= 2, where the |coeff| <= 4
    # search is complete; negatives agree automatically (the oracle is sound)
    rng = random.Random(6)
    for _ in range(200):
        dim = rng.randint(1, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(1, 5))]
        lat = GeneratedLattice(gens, dim)
        picks = [rng.randint(-2, 2) for _ in gens]
        combo = tuple(sum(a * g[c] for a, g in zip(picks, gens))
                      for c in range(dim))
        fast, coeffs = lat.membership(combo)
        slow, _ = bounded_combination_membership(gens, combo, bound=4)
        assert fast and slow
        rebuilt = tuple(sum(a * g[c] for a, g in zip(coeffs, gens))
                        for c in range(dim))
        assert rebuilt == combo
        probe = tuple(rng.randint(-4, 4) for _ in range(dim))
        fast, _ = lat.membership(probe)
        slow, _ = bounded_combination_membership(gens, probe, bound=4)
        if slow:
            assert fast      # oracle soundness: a found combo proves membership
        if not fast:
            assert not slow


def test_non_membership_certificate_examples():
    member, y = GeneratedLattice([(1, 1, 1)]).membership((9, 8, 7))
    assert not member and y == (Fraction(1, 2), Fraction(-1, 2), 0)
    assert GeneratedLattice([(2, 0)]).membership((1, 0)) == (False, (Fraction(1, 2), 0))
    assert GeneratedLattice([(1, 2), (2, 1)]).membership((1, 0)) == \
        (False, (Fraction(-2, 3), Fraction(1, 3)))
    assert GeneratedLattice([], dim=2).membership((0, 3)) == (False, (0, Fraction(1, 6)))
    # forged: y.(1,1,1) not an integer; y.x an integer; the wrong width
    for forged in ((Fraction(1, 2), 0, 0), (1, -1, 0), (Fraction(1, 2), Fraction(-1, 2))):
        assert not refutes(forged, [(1, 1, 1)], (9, 8, 7))


def test_non_membership_certificates_separate():
    rng = random.Random(12)
    refuted = 0
    for _ in range(400):
        dim = rng.randint(1, 4)
        gens = [tuple(rng.randint(-4, 4) for _ in range(dim))
                for _ in range(rng.randint(0, 5))]
        target = tuple(rng.randint(-6, 6) for _ in range(dim))
        member, cert = GeneratedLattice(gens, dim).membership(target)
        if member:
            continue
        refuted += 1
        assert refutes(cert, gens, target)
        # y plus an integer vector separates as well; y with y.x moved to an
        # integer does not
        shifted = tuple(a + rng.randint(-2, 2) for a in cert)
        assert refutes(shifted, gens, target)
        frac = sum(a * b for a, b in zip(cert, target)) % 1
        c = next(i for i, b in enumerate(target) if b)
        moved = tuple(a - frac / target[c] if i == c else a for i, a in enumerate(cert))
        assert not refutes(moved, gens, target)
    assert refuted >= 100, refuted


def test_obstruction_reads_two_parts_by_gcd_only_where_sound():
    # (a, h - a) vectors: (1, 2) and (0, 3) span every (x, y) with 3 | x + y
    assert obstruction([(1, 2), (0, 3), (1, 2)], (7, 11)) is None
    assert obstruction([(1, 2), (3, 0)], (2, 4)) is None
    # gcd of the differences is 2: (1, 3) + (3, 1) reach (4, 4), not (5, 3)
    assert obstruction([(1, 3), (3, 1)], (4, 4)) is None
    assert refutes(obstruction([(1, 3), (3, 1)], (5, 3)), [(1, 3), (3, 1)], (5, 3))
    # h = 2 does not divide the size sum 3, so the HNF decides
    assert obstruction([(1, 1)], (1, 2)) == (Fraction(-1, 2), Fraction(1, 2))
    assert not GeneratedLattice([(1, 1)]).membership((1, 2))[0]
    # vectors of different orders are not (a, h - a) either: (1, 2) - (0, 2)
    # = (1, 0) and (0, 2) span no (1, 1), whatever the gcd of the a's says
    assert refutes(obstruction([(0, 2), (1, 2)], (1, 1)), [(0, 2), (1, 2)], (1, 1))
    assert obstruction([], (0, 0)) is None
    assert obstruction([], (1, 0)) == (Fraction(1, 2), 0)


def test_obstruction_agrees_with_membership():
    # random vectors of one order h, repeats included; targets in the
    # lattice, next to it, and in a box, with sums h divides and does not
    rng = random.Random(23)
    seen = set()
    for _ in range(600):
        dim, h = rng.randint(1, 4), rng.randint(1, 5)
        vectors = []
        for _ in range(rng.randint(1, 5)):
            cuts = sorted(rng.randint(0, h) for _ in range(dim - 1))
            vectors.append(tuple(b - a for a, b in zip([0] + cuts, cuts + [h])))
        vectors += rng.choices(vectors, k=rng.randint(0, 3))
        combo = combination([rng.randint(-2, 3) for _ in vectors], vectors, dim)
        shifted = list(combo)
        shifted[rng.randrange(dim)] += rng.choice((-1, 1))
        moved = list(combo)
        moved[0] += 1
        moved[-1] -= 1
        for target in (combo, shifted, moved,
                       [rng.randint(0, 3 * h) for _ in range(dim)]):
            member = GeneratedLattice(vectors, dim).membership(target)[0]
            y = obstruction(vectors, target)
            assert (y is None) == member, (vectors, target)
            if y is not None:
                assert refutes(y, vectors, target)
            seen.add((dim == 2, member, sum(target) % h == 0))
    # a member's sum is h times its coefficient sum, so h always divides it
    assert seen == {(two, member, member or divides) for two in (False, True)
                    for member in (False, True) for divides in (False, True)}, seen


def test_transferral_examples():
    assert find_transferral(GeneratedLattice([(1, -1, 0)]))[:2] == (0, 1)
    assert find_transferral(GeneratedLattice([(2, -2, 0)])) is None
    assert find_transferral(GeneratedLattice([], dim=3)) is None
    hit = find_transferral(GeneratedLattice([(0, 1, -1)]))
    assert hit[:2] == (1, 2)


def test_transferral_scan_matches_per_pair_membership():
    rng = random.Random(8)
    for _ in range(100):
        dim = rng.randint(2, 4)
        gens = [tuple(rng.randint(-2, 2) for _ in range(dim))
                for _ in range(rng.randint(1, 4))]
        lat = GeneratedLattice(gens, dim)
        scan = None
        for i in range(dim):
            for j in range(dim):
                if i != j:
                    diff = tuple(a - b for a, b in
                                 zip(unit_vector(i, dim), unit_vector(j, dim)))
                    if lat.membership(diff)[0]:
                        scan = (i, j)
                        break
            if scan:
                break
        hit = find_transferral(lat)
        assert (None if hit is None else hit[:2]) == scan
        if hit is not None:
            i, j, coeffs = hit
            diff = tuple(a - b for a, b in
                         zip(unit_vector(i, dim), unit_vector(j, dim)))
            rebuilt = tuple(sum(a * g[c] for a, g in zip(coeffs, gens))
                            for c in range(dim))
            assert rebuilt == diff
