"""Independent brute-force reference implementations.

These are deliberately dumb: raw assignment enumeration with no pruning
and no shared code with the operations they check.  The acceptance
battery and the test suite compare the fast paths against these; keep
them simple enough to be obviously correct.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, permutations, product

from .coloring import INFINITY
from .errors import ValidationError
from .graphs import Graph
from .incompat import IncompatibilitySystem
from .util import bits


def raw_coloring_profiles(g: Graph, k: int) -> frozenset:
    """Sorted class-size multisets over ALL k^n raw assignments that are
    proper and use all k colors.  No symmetry pruning of any kind.
    """
    profiles = set()
    edges = g.edges()
    for assignment in product(range(k), repeat=g.n):
        if any(assignment[u] == assignment[v] for u, v in edges):
            continue
        if len(set(assignment)) != k:
            continue
        sizes = [0] * k
        for c in assignment:
            sizes[c] += 1
        profiles.add(tuple(sorted(sizes)))
    return frozenset(profiles)


def raw_chromatic_number(g: Graph) -> int:
    for k in range(1, g.n + 1):
        edges = g.edges()
        for assignment in product(range(k), repeat=g.n):
            if all(assignment[u] != assignment[v] for u, v in edges):
                return k
    raise AssertionError("every graph is n-colorable")


def raw_component_orders(g: Graph) -> list:
    """Orders of the connected components: every edge gives both ends the
    smaller of their labels until no edge changes one."""
    label = list(range(g.n))
    changed = True
    while changed:
        changed = False
        for u, v in g.edges():
            if label[u] != label[v]:
                label[u] = label[v] = min(label[u], label[v])
                changed = True
    return [label.count(x) for x in set(label)]


def raw_chromatic_profile(g: Graph) -> dict:
    """Profile dict computed from scratch: raw chi, raw enumeration, exact
    rationals.  Mirrors the documented invariant definitions directly.
    """
    chi = raw_chromatic_number(g)
    profs = raw_coloring_profiles(g, chi)
    sig = min(p[0] for p in profs)
    gaps = set()
    for p in profs:
        gaps.update(p[i + 1] - p[i] for i in range(len(p) - 1))
    nonzero = [x for x in gaps if x]
    hcf_chi = math.gcd(*nonzero) if nonzero else INFINITY
    hcf_c = math.gcd(*raw_component_orders(g))
    if chi > 2:
        one = hcf_chi == 1
    elif chi == 2:
        one = hcf_c == 1 and hcf_chi <= 2
    else:
        one = False
    chi_cr = Fraction(chi) if g.n == sig else Fraction((chi - 1) * g.n, g.n - sig)
    return {
        "chi": chi, "sigma": sig, "d_set": frozenset(gaps),
        "hcf_chi": hcf_chi, "hcf_c": hcf_c, "hcf_is_one": one,
        "chi_cr": chi_cr, "chi_star": chi_cr if one else Fraction(chi),
    }


def edge_key(u: int, v: int) -> tuple:
    return (u, v) if u < v else (v, u)


def _image_compatible(triples: set, image_edges) -> bool:
    """No two image edges meet at a vertex v, as va and vb, with
    (v, min(a, b), max(a, b)) in ``triples`` (a set of ``f.triples()``)."""
    for e1, e2 in combinations(sorted(set(image_edges)), 2):
        for v in set(e1) & set(e2):   # distinct edges share at most one vertex
            a, b = sorted(x for x in e1 + e2 if x != v)
            if (v, a, b) in triples:
                return False
    return True


def raw_compatible_copies(pattern: Graph, g: Graph,
                          f: IncompatibilitySystem = None) -> set:
    """All compatible copies as (vertices, edges) keys, by filtering every
    injective map of the pattern into the host.
    """
    if f is None:
        f = IncompatibilitySystem.empty(g)
    triples = set(f.triples())
    pat_edges = pattern.edges()
    out = set()
    for phi in permutations(range(g.n), pattern.n):
        if any(not g.has_edge(phi[u], phi[v]) for u, v in pat_edges):
            continue
        image = tuple(sorted(edge_key(phi[u], phi[v]) for u, v in pat_edges))
        if not _image_compatible(triples, image):
            continue
        out.add((tuple(sorted(phi)), image))
    return out


def raw_factor_exists(pattern: Graph, g: Graph,
                      f: IncompatibilitySystem = None) -> bool:
    """Brute-force compatible-factor decision over the raw copy list."""
    if g.n % max(pattern.n, 1) != 0:
        return False
    copies = sorted(raw_compatible_copies(pattern, g, f))
    masks = []
    for verts, _ in copies:
        m = 0
        for v in verts:
            m |= 1 << v
        masks.append(m)
    full = (1 << g.n) - 1

    def rec(covered: int, start: int) -> bool:
        if covered == full:
            return True
        low = (~covered & full)
        low = (low & -low).bit_length() - 1
        for i in range(len(masks)):
            if masks[i] & covered:
                continue
            if not masks[i] >> low & 1:
                continue
            if rec(covered | masks[i], 0):
                return True
        return False

    return rec(0, 0)


def raw_max_tiling(pattern: Graph, g: Graph,
                   f: IncompatibilitySystem = None) -> int:
    """Most vertex-disjoint compatible copies, by visiting every set of
    pairwise disjoint vertex sets of raw copies.  Meant for hosts of at
    most about 10 vertices.
    """
    sets = sorted({verts for verts, _ in raw_compatible_copies(pattern, g, f)})
    best = 0

    def rec(start: int, used: frozenset, size: int):
        nonlocal best
        best = max(best, size)
        for i in range(start, len(sets)):
            if used.isdisjoint(sets[i]):
                rec(i + 1, used.union(sets[i]), size + 1)

    rec(0, frozenset(), 0)
    return best


def bounded_combination_membership(generators, target, bound: int = 4):
    """Is target a sum of generators with every |coefficient| <= bound?

    Enumerates the full coefficient grid with numpy, which the first call
    imports; returns (found, coefficients or None).  This under-approximates
    lattice membership: a miss only proves no SMALL certificate exists.
    """
    import numpy as np

    gens = np.asarray(list(generators), dtype=np.int64)
    tgt = np.asarray(list(target), dtype=np.int64)
    if gens.size == 0:
        return (not tgt.any()), ()
    m = gens.shape[0]
    rng = np.arange(-bound, bound + 1, dtype=np.int64)
    grids = np.meshgrid(*([rng] * m), indexing="ij")
    coeffs = np.stack([gg.ravel() for gg in grids], axis=1)
    sums = coeffs @ gens
    hits = np.nonzero((sums == tgt).all(axis=1))[0]
    if hits.size == 0:
        return False, None
    return True, tuple(int(c) for c in coeffs[hits[0]])


def raw_transversal_count(spec_sizes, g: Graph, f: IncompatibilitySystem,
                          parts) -> int:
    """Transversal copy count by brute combination choice per part."""
    if f is None:
        f = IncompatibilitySystem.empty(g)
    triples = set(f.triples())
    parts = [sorted(set(u)) for u in parts]
    count = 0

    def rec(idx: int, chosen: list):
        nonlocal count
        if idx == len(parts):
            edges = []
            for i in range(len(chosen)):
                for j in range(i + 1, len(chosen)):
                    for a in chosen[i]:
                        for b in chosen[j]:
                            if not g.has_edge(a, b):
                                return
                            edges.append(edge_key(a, b))
            if _image_compatible(triples, edges):
                count += 1
            return
        for combo in combinations(parts[idx], spec_sizes[idx]):
            rec(idx + 1, chosen + [list(combo)])

    rec(0, [])
    return count


def raw_is_eps_regular(g: Graph, xs, ys, eps, d_min=None):
    """(regular, first witness) straight from the definition: every A and B
    above the eps size thresholds, in ascending subset-mask order over the
    sorted sides, compared with Fraction densities.  A pair below d_min is
    (False, None).
    """
    xs, ys = sorted(set(xs)), sorted(set(ys))
    eps = Fraction(eps)

    def dens(a, b):
        return Fraction(sum(g.has_edge(u, v) for u in a for v in b), len(a) * len(b))

    d = dens(xs, ys)
    if d_min is not None and d < Fraction(d_min):
        return False, None
    for a_mask in range(1, 1 << len(xs)):
        a = [xs[i] for i in range(len(xs)) if a_mask >> i & 1]
        if len(a) < eps * len(xs):
            continue
        for b_mask in range(1, 1 << len(ys)):
            b = [ys[i] for i in range(len(ys)) if b_mask >> i & 1]
            if len(b) >= eps * len(ys) and abs(dens(a, b) - d) >= eps:
                return False, (tuple(a), tuple(b))
    return True, None


def raw_bounded_system(g: Graph, mu, seed: int) -> IncompatibilitySystem:
    """``incompat.random_bounded_system`` with one literal ``rng.shuffle``
    per (v, e): the stream it must reproduce, seed for seed.
    """
    mu = Fraction(mu)
    n = g.n
    if mu < 0:
        raise ValidationError("mu must be non-negative")
    q = math.floor(mu * n)
    rng = random.Random(seed)
    triples = []
    if q > 0:
        for v in range(n):
            nbrs = list(bits(g.adj[v]))
            row = {}  # a -> partners of va at v so far
            for a in nbrs:
                cands = [b for b in nbrs if b != a]
                rng.shuffle(cands)
                for b in cands:
                    if row.get(a, 0).bit_count() >= q:
                        break
                    if row.get(b, 0).bit_count() >= q or row.get(a, 0) >> b & 1:
                        continue
                    row[a] = row.get(a, 0) | 1 << b
                    row[b] = row.get(b, 0) | 1 << a
            triples.extend((v, a, b) for a, m in row.items() for b in bits(m) if a < b)
    return IncompatibilitySystem(g, triples)
