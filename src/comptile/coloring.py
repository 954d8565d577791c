"""Exact chromatic invariants behind the chi*/chi_cr dichotomy.

Everything here is decided by exhaustive proper-coloring enumeration and
exact rational arithmetic.  The invariants of a pattern graph H:

    chi       chromatic number
    sigma     minimum size of the smallest color class over all proper
              chi-colorings
    chi_cr    critical chromatic number (chi-1)|H| / (|H|-sigma)
    D(H)      union over proper chi-colorings of the consecutive gaps
              h_{i+1}-h_i of the sorted color-class sizes
    hcf_chi   gcd of D(H) ignoring zeros; INFINITY when D(H) is {0}
    hcf_c     gcd of the component orders
    hcf=1     chi>2: hcf_chi == 1
              chi=2: hcf_c == 1 and hcf_chi <= 2 (INFINITY fails "<= 2")
    chi*      chi_cr if hcf=1 else chi

A proper chi-coloring necessarily uses all chi colors (otherwise chi would
be smaller).

Enumeration prunes color permutations by only introducing a new color when
all smaller color indices already appear (canonical set partitions); class
size multisets are invariant under color permutation, so no profile is
lost.  The size cap keeps |C(H)| from exploding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import SizeCapError, ValidationError
from .graphs import Graph, MultipartiteSpec, complete_multipartite, components
from .util import FrozenRecord, bits, format_fraction

INFINITY = float("inf")

COLORING_CAP = 12

# chi_star is meant for small patterns, which are few; the bound keeps a
# long-lived process that profiles many graphs from holding all of them
CHI_STAR_CACHE_SIZE = 256


class ChromaticProfile(FrozenRecord):
    # hcf_chi: a positive int, or INFINITY when D(H) == {0}
    # profiles: the sorted class sizes of every proper chi-coloring
    __slots__ = _fields = ("chi", "sigma", "d_set", "hcf_chi", "hcf_c", "hcf_is_one",
                           "chi_cr", "chi_star", "profiles")

    def __init__(self, chi: int, sigma: int, d_set: frozenset, hcf_chi: object, hcf_c: int,
                 hcf_is_one: bool, chi_cr: Fraction, chi_star: Fraction, profiles: frozenset):
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "d_set", d_set)
        object.__setattr__(self, "hcf_chi", hcf_chi)
        object.__setattr__(self, "hcf_c", hcf_c)
        object.__setattr__(self, "hcf_is_one", hcf_is_one)
        object.__setattr__(self, "chi_cr", chi_cr)
        object.__setattr__(self, "chi_star", chi_star)
        object.__setattr__(self, "profiles", profiles)

    def to_json_dict(self) -> dict:
        return {
            "chi": self.chi,
            "sigma": self.sigma,
            "d_set": sorted(self.d_set),
            "hcf_chi": "inf" if self.hcf_chi == INFINITY else int(self.hcf_chi),
            "hcf_c": self.hcf_c,
            "hcf_is_one": self.hcf_is_one,
            "chi_cr": format_fraction(self.chi_cr),
            "chi_star": format_fraction(self.chi_star),
        }


def _greedy_clique(g: Graph) -> int:
    """Size of a greedily grown clique; cheap lower bound for chi."""
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    best = 0
    for start in order[: min(g.n, 8)]:
        clique_mask = 1 << start
        size = 1
        cand = g.adj[start]
        while cand:
            v = (cand & -cand).bit_length() - 1
            clique_mask |= 1 << v
            size += 1
            cand &= g.adj[v]
        best = max(best, size)
    return best


def _colorings(g: Graph, k: int):
    """Yield the class sizes of every proper coloring of g using all k colors.

    Canonical-color backtracking over an explicit stack: a vertex may open
    color c only when colors 0..c-1 are open, so each partition into k
    color classes is met once.  Vertices go by descending degree, and a
    branch stops once the vertices left cannot open the missing colors.
    """
    n = g.n
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    earlier = [[pos[u] for u in bits(g.adj[v]) if pos[u] < i]
               for i, v in enumerate(order)]
    colors = [0] * n          # colors[i]: color of order[i]
    opened = [0] * (n + 1)    # opened[i]: colors used by order[:i]
    todo = [None] * n         # untried colors per step
    i = 0
    while i >= 0:
        if i == n:
            if opened[n] == k:
                yield [colors.count(c) for c in range(k)]
            i -= 1
            continue
        if todo[i] is None:
            forbidden = 0
            for j in earlier[i]:
                forbidden |= 1 << colors[j]
            # the vertices left must still be able to open the missing colors
            top = min(k, opened[i] + 1) if opened[i] + n - i >= k else 0
            todo[i] = iter([c for c in range(top) if not forbidden >> c & 1])
        c = next(todo[i], None)
        if c is None:
            todo[i] = None
            i -= 1
            continue
        colors[i] = c
        opened[i + 1] = max(opened[i], c + 1)
        i += 1


@lru_cache(maxsize=CHI_STAR_CACHE_SIZE)
def chi_star(g: Graph) -> ChromaticProfile:
    """Fully populated chromatic profile of g, all rationals exact.

    A graph over the coloring cap is refused before any search starts.
    Each k from the greedy clique bound up is walked to the end once; the
    first k with a proper coloring is chi, and its walk gives the profiles.
    """
    if g.n > COLORING_CAP:
        raise SizeCapError(
            f"coloring enumeration capped at {COLORING_CAP} vertices "
            f"(graph has {g.n})")
    if g.n == 0:
        raise ValidationError("chromatic number of the empty graph is undefined")
    # a lone vertex is a clique, so k starts at 1 or more; k = n always succeeds
    for chi in range(_greedy_clique(g), g.n + 1):
        profs = frozenset(tuple(sorted(sizes)) for sizes in _colorings(g, chi))
        if profs:
            break
    sig = min(p[0] for p in profs)
    gaps = set()
    for p in profs:
        gaps.update(p[i + 1] - p[i] for i in range(len(p) - 1))
    dset = frozenset(gaps)
    hcf_chi = math.gcd(*dset) or INFINITY   # gcd ignores zeros; D(H) = {0} gives 0
    hcf_c = math.gcd(*(len(c) for c in components(g)))
    if chi > 2:
        one = hcf_chi == 1
    elif chi == 2:
        one = hcf_c == 1 and hcf_chi <= 2
    else:
        one = False
    if g.n == sig:
        # chi == 1 (edgeless): the defining formula divides by zero; use
        # the convention chi_cr = chi, which keeps chi-1 < chi_cr <= chi.
        cr = Fraction(chi)
    else:
        cr = Fraction((chi - 1) * g.n, g.n - sig)
    star = cr if one else Fraction(chi)
    return ChromaticProfile(chi, sig, dset, hcf_chi, hcf_c, one, cr, star, profs)


def bottle_graph(h: Graph) -> tuple:
    """Complete r-partite graph with parts ((r-1)sigma, h-sigma, ..., h-sigma).

    r = chi(h).  The bottle graph B keeps the critical chromatic number of
    h and contains an h-factor made of r-1 copies of h; both facts are
    exercised by the test suite rather than assumed here.
    """
    if h.n == 0:
        raise ValidationError("bottle graph of the empty graph is undefined")
    prof = chi_star(h)
    r, sig = prof.chi, prof.sigma
    if r < 2:
        raise ValidationError("bottle graph needs chi >= 2")
    sizes = ((r - 1) * sig,) + (h.n - sig,) * (r - 1)
    return complete_multipartite(MultipartiteSpec(sizes))
