"""Desk-scale density and regularity utilities.

Regularity of a pair (X, Y) quantifies over ALL sub-pairs (A, B) with
|A| >= eps|X|, |B| >= eps|Y|, so it can only be certified exhaustively;
nothing here ever labels a pair "regular" from a sample.  Deciding it is
co-NP-complete (Alon, Duke, Lefmann, Rodl and Yuster, "The algorithmic
aspects of the regularity lemma", 1994), so sides are hard-capped at 20
vertices.

Two averaging facts confine the scan to the smallest admissible
sub-pairs, of a_min and b_min vertices (the least sizes above the eps
thresholds):

1. For fixed A, e(A, B) is the sum of deg_A(y) over y in B.  The mean of
   the b smallest degrees into A never falls as b grows, and the mean of
   the b largest never rises, so over every admissible B the density
   d(A, B) is least on the b_min smallest degrees and greatest on the
   b_min largest.  As |d - d(X, Y)| >= eps holds below one threshold and
   above another, some B fails iff one of those two extremes fails.
2. d(A, B) is the mean of d(A', B) over the a_min-subsets A' of A (each
   vertex of A lies in equally many), so if (A, B) fails, so does some
   (A', B) with |A'| = a_min; likewise for B and its b_min-subsets.

The scan therefore visits only the C(|X|, a_min) sets A of exactly a_min
vertices and compares two degree sums for each.  The witness is
unchanged from a scan of every A and every B: the first failing pair in
ascending subset-mask order, A-mask first.  A failing A contains a
failing a_min-subset, whose mask is no larger, so the first failing A
has exactly a_min vertices, and the first failing B for it has b_min.

All threshold comparisons are exact rational cross-multiplications in
int64; no floats touch a decision.  With the eps denominator capped at
10^6 every compared product is at most |X|^2 |Y|^2 10^6, about 1.6e11 at
side 20, far inside int64 (see ``_deviates``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import solver
from .errors import BudgetExceeded, ConsistencyError, SizeCapError, ValidationError
from .graphs import Graph, MultipartiteSpec
from .incompat import IncompatibilitySystem
from .util import bits, format_fraction, mask_of, rational

SIDE_CAP = 20


def _sides(g: Graph, x_side, y_side) -> tuple:
    """X and Y as sorted vertex lists, each vertex checked to lie in g."""
    xs, ys = sorted(set(x_side)), sorted(set(y_side))
    if any(not 0 <= v < g.n for v in xs + ys):
        raise ValidationError("pair sides name vertices outside the graph")
    return xs, ys


def density(g: Graph, x_side, y_side) -> Fraction:
    """e(X, Y) / (|X| |Y|), exact."""
    xs, ys = _sides(g, x_side, y_side)
    if not xs or not ys:
        raise ValidationError("density needs two non-empty sides")
    if set(xs) & set(ys):
        raise ValidationError("density sides must be disjoint")
    y_mask = mask_of(ys)
    e = sum((g.adj[v] & y_mask).bit_count() for v in xs)
    return Fraction(e, len(xs) * len(ys))


@dataclass(frozen=True)
class RegularityReport:
    regular: bool
    density: Fraction
    eps: Fraction
    d_min: object                  # Fraction or None
    witness: object = None         # (A, B) tuple of tuples on failure
    reason: str = ""

    def to_json_dict(self) -> dict:
        out = {"regular": self.regular,
               "density": format_fraction(self.density),
               "eps": format_fraction(self.eps),
               "reason": self.reason}
        if self.d_min is not None:
            out["d_min"] = format_fraction(self.d_min)
        if self.witness is not None:
            out["witness"] = [list(self.witness[0]), list(self.witness[1])]
        return out


# the low bits of a subset mask index the rows of one vectorized block
_BLOCK_BITS = 10


def _subset_sums(items) -> np.ndarray:
    """sums[mask] = sum of items[i] over set bits of mask, via doubling.

    Items are numbers or equal-length rows (then sums has one row per mask).
    """
    items = np.asarray(items, dtype=np.int64)
    table = np.zeros((1,) + items.shape[1:], dtype=np.int64)
    for item in items:
        table = np.concatenate([table, table + item])
    return table


@lru_cache(maxsize=_BLOCK_BITS + 1)
def _masks_by_size(n_bits: int) -> tuple:
    """by_size[s] = the masks of n_bits bits with s bits set, ascending.

    Cached, so every scan shares the arrays; they are made read-only.
    """
    size = _subset_sums([1] * n_bits)
    by_size = tuple(np.flatnonzero(size == s) for s in range(n_bits + 1))
    for masks in by_size:
        masks.flags.writeable = False
    return by_size


def _subsets_of_size(items, s: int):
    """Yield (base, low, sums) over the s-subsets of range(len(items)).

    One block per pattern of the bits above the low ``_BLOCK_BITS``, in
    ascending order, so the masks base | low[i] ascend over the whole
    walk, and no block holds more than C(10, 5) = 252 sums.  sums[i] is
    the sum of items over the set bits of base | low[i].
    """
    lo_bits = min(len(items), _BLOCK_BITS)
    lo_sums, hi_sums = _subset_sums(items[:lo_bits]), _subset_sums(items[lo_bits:])
    by_size = _masks_by_size(lo_bits)
    for hi in range(len(hi_sums)):
        lo = s - hi.bit_count()
        if 0 <= lo <= lo_bits:
            yield hi << lo_bits, by_size[lo], lo_sums[by_size[lo]] + hi_sums[hi]


def _deviates(e, ab, d: Fraction, eps: Fraction) -> np.ndarray:
    """|e / ab - d| >= eps elementwise, by exact integer cross-multiplication.

    With 0 <= e <= ab <= |X| |Y|, d.denominator <= |X| |Y| (d is a pair
    density), eps <= 1 and eps.denominator <= 10^6, both sides are at most
    (|X| |Y|)^2 10^6, 1.6e11 at side 20: exact in int64.
    """
    return (np.abs(e * d.denominator - d.numerator * ab) * eps.denominator
            >= eps.numerator * ab * d.denominator)


def is_eps_regular_exhaustive(g: Graph, x_side, y_side, eps,
                              d_min=None) -> RegularityReport:
    """Exhaustive regularity test with a witness sub-pair on failure.

    Checks |d(A, B) - d(X, Y)| < eps for every A, B above the eps size
    thresholds; with d_min given, also requires d(X, Y) >= d_min.  The
    witness is the first failing pair in ascending subset-mask order.

    By the two averaging facts of the module docstring, only the A of
    exactly a_min vertices are scanned, in ascending mask order, one
    block per pattern of high bits: each block's degree rows deg_A(y) are
    sorted, and the sums of their b_min smallest and b_min largest
    entries are compared with the thresholds.  The first failing A is the
    witness A; the b_min-subsets of Y are then walked, in ascending mask
    order and in the same blocks, for the first failing B.  ``eps``,
    ``d_min`` are Fractions, ints or strings such as "1/5"; a float is
    refused.
    """
    xs, ys = _sides(g, x_side, y_side)
    eps = rational(eps, "eps")
    if not 0 < eps:
        raise ValidationError("eps must be positive")
    if eps.denominator > 10**6:
        # keeps every product in the vectorized int64 comparison exact
        raise ValidationError("eps denominator capped at 10^6")
    if len(xs) > SIDE_CAP or len(ys) > SIDE_CAP:
        raise SizeCapError(
            f"exhaustive regularity is capped at side size {SIDE_CAP}; "
            f"got {len(xs)} and {len(ys)}")
    d_xy = density(g, xs, ys)
    if d_min is not None:
        d_min = rational(d_min, "d_min")
        if d_xy < d_min:
            return RegularityReport(False, d_xy, eps, d_min,
                                    reason=f"density {d_xy} below d = {d_min}")
    passed = RegularityReport(True, d_xy, eps, d_min, reason="exhaustive scan passed")
    nx, ny = len(xs), len(ys)
    # least admissible sizes: |A| >= eps|X|  <=>  |A| >= ceil(eps.num * |X| / eps.den)
    a_min = max(1, -(-eps.numerator * nx // eps.denominator))
    b_min = max(1, -(-eps.numerator * ny // eps.denominator))
    if a_min > nx or b_min > ny:
        return passed      # eps > 1: nothing to check, and eps.num may not fit int64
    ab = a_min * b_min
    adj = np.array([[g.adj[x] >> y & 1 for y in ys] for x in xs], dtype=np.int64)
    for base, low, deg in _subsets_of_size(adj, a_min):
        deg.sort(axis=1)
        bad = (_deviates(deg[:, :b_min].sum(axis=1), ab, d_xy, eps)
               | _deviates(deg[:, -b_min:].sum(axis=1), ab, d_xy, eps))
        if bad.any():
            a_mask = base | int(low[np.argmax(bad)])
            break
    else:
        return passed
    a_host = mask_of(xs[i] for i in bits(a_mask))
    deg_a = [(g.adj[y] & a_host).bit_count() for y in ys]
    for base, low, e in _subsets_of_size(deg_a, b_min):
        bad = _deviates(e, ab, d_xy, eps)
        if bad.any():
            b_mask = base | int(low[np.argmax(bad)])
            break
    else:
        raise ConsistencyError("degree-sum scan flagged an A with no failing B")
    witness = (tuple(xs[i] for i in bits(a_mask)), tuple(ys[i] for i in bits(b_mask)))
    return RegularityReport(False, d_xy, eps, d_min, witness,
                            reason="sub-pair density deviates by >= eps")


@dataclass(frozen=True)
class ReducedGraph:
    k: int
    eps: Fraction
    d: Fraction
    edges: tuple               # sorted (i, j) cluster pairs that verified regular


def reduced_graph(g: Graph, blocks, eps, d) -> ReducedGraph:
    """One vertex per cluster; an edge exactly where the pair verified
    (eps, d)-regular by the exhaustive test (regularity is never assumed).
    """
    eps, d = rational(eps, "eps"), rational(d, "d")
    blocks = [sorted(set(b)) for b in blocks]
    for i, b in enumerate(blocks):
        if len(b) > SIDE_CAP:
            raise SizeCapError(f"cluster {i} exceeds the side cap {SIDE_CAP}")
    edges = []
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if is_eps_regular_exhaustive(g, blocks[i], blocks[j], eps, d_min=d).regular:
                edges.append((i, j))
    return ReducedGraph(len(blocks), eps, d, tuple(edges))


@dataclass(frozen=True)
class CountingReport:
    total: int
    compatible: int
    c_observed: Fraction
    product: int

    def to_json_dict(self) -> dict:
        return {"total": self.total, "compatible": self.compatible,
                "c_observed": format_fraction(self.c_observed),
                "product": self.product}


def counting_experiment(g: Graph, f: IncompatibilitySystem,
                        parts, spec: MultipartiteSpec,
                        budget: int = solver.DEFAULT_BUDGET) -> CountingReport:
    """Exact transversal counts with and without the system.

    c_observed = compatible / prod |U_i|^{h_i} is the empirical constant
    of the counting bound; total is the F-free count over the same parts.
    An empty part is a usage error: it would make that constant 0/0.
    Either count running out of ``budget`` raises BudgetExceeded.
    """
    parts = [sorted(set(u)) for u in parts]
    for i, u in enumerate(parts):
        if not u:
            raise ValidationError(f"part {i} is empty")
    free = solver.enumerate_transversal_copies(spec, g, None, parts, budget=budget)
    cons = solver.enumerate_transversal_copies(spec, g, f, parts, budget=budget)
    if free.truncated or cons.truncated:
        raise BudgetExceeded("transversal enumeration exceeded its budget")
    product = 1
    for u, h_i in zip(parts, spec.sizes):
        product *= len(u) ** h_i
    return CountingReport(len(free.masks), len(cons.masks),
                          Fraction(len(cons.masks), product), product)

