"""Desk-scale density and regularity utilities.

Regularity of a pair (X, Y) quantifies over ALL sub-pairs (A, B) with
|A| >= eps|X|, |B| >= eps|Y|, so it can only be certified exhaustively;
nothing here ever labels a pair "regular" from a sample.  Deciding it is
co-NP-complete (Alon, Duke, Lefmann, Rodl and Yuster, "The algorithmic
aspects of the regularity lemma", 1994), so the scan visits every A, and
sides are hard-capped at 14 vertices (2^14 subsets each).

The scan need not visit every B.  For fixed A and |B| = b,
e(A, B) = sum of deg_A(y) over y in B, so over all B of size b it runs
exactly from the sum of the b smallest degrees into A to the sum of the
b largest, both attained.  The deviation |e / (|A| b) - d(X, Y)| is
convex in e, so some B of size b fails iff one of those two extremes
fails.  The scan therefore sorts one degree row per A, vectorized over
blocks of A-subsets, and compares both extremes for every admissible b.

All threshold comparisons are exact rational cross-multiplications in
int64; no floats touch a decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import solver
from .errors import BudgetExceeded, ConsistencyError, SizeCapError, ValidationError
from .graphs import Graph, MultipartiteSpec
from .incompat import IncompatibilitySystem
from .util import bits, format_fraction, mask_of

SIDE_CAP = 14


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


# the low bits of an A-mask index the rows of one vectorized block
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


def _deviates(e, ab, d: Fraction, eps: Fraction) -> np.ndarray:
    """|e / ab - d| >= eps elementwise, by exact integer cross-multiplication."""
    return (np.abs(e * d.denominator - d.numerator * ab) * eps.denominator
            >= eps.numerator * ab * d.denominator)


def is_eps_regular_exhaustive(g: Graph, x_side, y_side, eps,
                              d_min=None) -> RegularityReport:
    """Exhaustive regularity test with a witness sub-pair on failure.

    Checks |d(A, B) - d(X, Y)| < eps for every A, B above the eps size
    thresholds; with d_min given, also requires d(X, Y) >= d_min.  The
    witness is the first failing pair in ascending subset-mask order.

    Per block of 2^10 A-masks the degree rows deg_A(y) are the sum of a
    low-bit table and one high-bit row; sorted and summed cumulatively
    they give, for every admissible b, the least and greatest e(A, B)
    over |B| = b, and a B of size b fails iff one of the two does (see
    the module docstring).  Only the first failing A has its 2^|Y|
    B-subsets enumerated, to find the first failing B-mask.
    """
    xs, ys = _sides(g, x_side, y_side)
    eps = Fraction(eps)
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
        d_min = Fraction(d_min)
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
    b = np.arange(b_min, ny + 1)
    adj = np.array([[g.adj[x] >> y & 1 for y in ys] for x in xs], dtype=np.int64)
    lo_bits = min(nx, _BLOCK_BITS)
    lo_deg, hi_deg = _subset_sums(adj[:lo_bits]), _subset_sums(adj[lo_bits:])
    lo_size, hi_size = _subset_sums([1] * lo_bits), _subset_sums([1] * (nx - lo_bits))
    zero = np.zeros((len(lo_deg), 1), dtype=np.int64)
    for hi in range(len(hi_deg)):
        a = lo_size + hi_size[hi]
        # least[:, k] = sum of the k smallest degrees into A, for k = 0..|Y|
        least = np.cumsum(np.hstack([zero, np.sort(lo_deg + hi_deg[hi], axis=1)]), axis=1)
        ab = a[:, None] * b
        bad = (_deviates(least[:, b], ab, d_xy, eps)
               | _deviates(least[:, -1:] - least[:, ny - b], ab, d_xy, eps))
        bad = bad.any(axis=1) & (a >= a_min)
        if bad.any():
            a_mask = hi << lo_bits | int(np.argmax(bad))
            break
    else:
        return passed
    a_host = mask_of(xs[i] for i in bits(a_mask))
    e_ab = _subset_sums([(g.adj[y] & a_host).bit_count() for y in ys])
    b_size = _subset_sums([1] * ny)
    bad = (b_size >= b_min) & _deviates(e_ab, a_mask.bit_count() * b_size, d_xy, eps)
    if not bad.any():
        raise ConsistencyError("degree-sum scan flagged an A with no failing B")
    b_mask = int(np.argmax(bad))
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
    eps, d = Fraction(eps), Fraction(d)
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

