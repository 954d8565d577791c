"""Desk-scale density and regularity utilities.

Regularity of a pair (X, Y) quantifies over ALL sub-pairs (A, B) with
|A| >= eps|X|, |B| >= eps|Y|, so it can only be certified exhaustively;
nothing here ever labels a pair "regular" from a sample.  Sides are
hard-capped at 14 vertices (2^14 subsets each); within the cap the scan
runs as a subset-sum table per A-subset, vectorized over all B-subsets.

All threshold comparisons are exact rational cross-multiplications; no
floats touch a decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import solver
from .errors import SizeCapError, ValidationError
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


def _subset_sums(degs: list) -> np.ndarray:
    """sums[mask] = sum of degs[i] over set bits of mask, via doubling."""
    table = np.zeros(1, dtype=np.int64)
    for dd in degs:
        table = np.concatenate([table, table + dd])
    return table


def is_eps_regular_exhaustive(g: Graph, x_side, y_side, eps,
                              d_min=None) -> RegularityReport:
    """Exhaustive regularity test with a witness sub-pair on failure.

    Checks |d(A, B) - d(X, Y)| < eps for every A, B above the eps size
    thresholds; with d_min given, also requires d(X, Y) >= d_min.  The
    witness is the first failing pair in ascending subset-mask order.
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
    nx, ny = len(xs), len(ys)
    pop_y = _subset_sums([1] * ny)
    # integer thresholds: |B| >= eps*|Y|  <=>  |B| * eps.den >= eps.num * |Y|
    b_ok = pop_y * eps.denominator >= eps.numerator * ny
    p0, q0 = d_xy.numerator, d_xy.denominator
    pe, qe = eps.numerator, eps.denominator
    b_sizes = pop_y
    for a_mask in range(1, 1 << nx):
        a_size = a_mask.bit_count()
        if a_size * eps.denominator < eps.numerator * nx:
            continue
        a_host = mask_of(xs[i] for i in bits(a_mask))
        degs = [(g.adj[y] & a_host).bit_count() for y in ys]
        e_ab = _subset_sums(degs)
        # |e/(a*b) - p0/q0| < pe/qe  <=>  |e*q0 - p0*a*b| * qe < pe * a*b * q0
        lhs = np.abs(e_ab * q0 - p0 * a_size * b_sizes) * qe
        rhs = pe * a_size * b_sizes * q0
        bad = b_ok & (lhs >= rhs)
        bad[0] = False
        if bad.any():
            b_mask = int(np.nonzero(bad)[0][0])
            wit_a = tuple(xs[i] for i in bits(a_mask))
            wit_b = tuple(ys[i] for i in bits(b_mask))
            return RegularityReport(False, d_xy, eps, d_min, (wit_a, wit_b),
                                    reason="sub-pair density deviates by >= eps")
    return RegularityReport(True, d_xy, eps, d_min, reason="exhaustive scan passed")


@dataclass(frozen=True)
class ReducedGraph:
    k: int
    eps: Fraction
    d: Fraction
    edges: tuple               # sorted (i, j) cluster pairs that verified regular
    reports: dict              # (i, j) -> RegularityReport

    def graph(self) -> Graph:
        return Graph.from_edges(self.k, self.edges)


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
    reports = {}
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            rep = is_eps_regular_exhaustive(g, blocks[i], blocks[j], eps, d_min=d)
            reports[(i, j)] = rep
            if rep.regular:
                edges.append((i, j))
    return ReducedGraph(len(blocks), eps, d, tuple(edges), reports)


@dataclass(frozen=True)
class SlicingReport:
    applicable: bool
    holds: object = None          # bool when applicable
    eps_prime: object = None
    d_original: object = None
    d_slice: object = None
    detail: str = ""


def check_slicing(g: Graph, x_side, y_side, x_sub, y_sub, eps, eta) -> SlicingReport:
    """Instance check of the slicing behavior of regular pairs.

    Premises: (X, Y) is eps-regular, eta > eps, X' and Y' are within-side
    subsets of relative size >= eta.  Conclusion checked: (X', Y') is
    eps'-regular with eps' = max(eps/eta, 2*eps), and |d' - d| < eps.
    A failed premise yields NOT-APPLICABLE rather than a verdict.
    """
    eps, eta = Fraction(eps), Fraction(eta)
    xs, ys = sorted(set(x_side)), sorted(set(y_side))
    xsub, ysub = sorted(set(x_sub)), sorted(set(y_sub))
    if not set(xsub) <= set(xs) or not set(ysub) <= set(ys):
        raise ValidationError("slices must be subsets of their sides")
    if eta <= eps:
        return SlicingReport(False, detail=f"premise eta > eps fails ({eta} <= {eps})")
    if len(xsub) * eta.denominator < eta.numerator * len(xs) \
            or len(ysub) * eta.denominator < eta.numerator * len(ys):
        return SlicingReport(False, detail="premise |X'| >= eta|X| fails")
    base = is_eps_regular_exhaustive(g, xs, ys, eps)
    if not base.regular:
        return SlicingReport(False, detail="premise: (X, Y) is not eps-regular")
    eps_prime = max(eps / eta, 2 * eps)
    d0 = base.density
    d1 = density(g, xsub, ysub)
    if eps_prime >= 1:
        slice_ok = True  # every pair is vacuously eps'-regular for eps' >= 1
    else:
        slice_ok = is_eps_regular_exhaustive(g, xsub, ysub, eps_prime).regular
    dens_ok = abs(d1 - d0) < eps
    return SlicingReport(True, slice_ok and dens_ok, eps_prime, d0, d1,
                         detail="" if slice_ok and dens_ok else
                         ("slice not eps'-regular" if not slice_ok else
                          "slice density drifted by >= eps"))


@dataclass(frozen=True)
class DegreeFactReport:
    applicable: bool
    holds: object = None
    violators: object = None
    allowed: object = None        # eps * |X| as a Fraction
    detail: str = ""


def check_degree_fact(g: Graph, x_side, y_side, b_sub, eps, d) -> DegreeFactReport:
    """All but eps|X| vertices of X have degree >= (d - eps)|B| into B,
    provided (X, Y) is (eps, d)-regular and |B| >= eps|Y|.
    """
    eps, d = Fraction(eps), Fraction(d)
    xs, ys = sorted(set(x_side)), sorted(set(y_side))
    bs = sorted(set(b_sub))
    if not set(bs) <= set(ys):
        raise ValidationError("B must be a subset of Y")
    if len(bs) * eps.denominator < eps.numerator * len(ys):
        return DegreeFactReport(False, detail="premise |B| >= eps|Y| fails")
    base = is_eps_regular_exhaustive(g, xs, ys, eps, d_min=d)
    if not base.regular:
        return DegreeFactReport(False, detail="premise: pair is not (eps, d)-regular")
    b_mask = mask_of(bs)
    need = (d - eps) * len(bs)
    violators = sum(1 for v in xs if (g.adj[v] & b_mask).bit_count() < need)
    allowed = eps * len(xs)
    return DegreeFactReport(True, Fraction(violators) <= allowed, violators, allowed)


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
    """
    parts = [sorted(set(u)) for u in parts]
    free = solver.enumerate_transversal_copies(spec, g, None, parts, budget=budget)
    cons = solver.enumerate_transversal_copies(spec, g, f, parts, budget=budget)
    if free.truncated or cons.truncated:
        raise SizeCapError("transversal enumeration exceeded its budget")
    product = 1
    for u, h_i in zip(parts, spec.sizes):
        product *= len(u) ** h_i
    return CountingReport(len(free.copies), len(cons.copies),
                          Fraction(len(cons.copies), product), product)


@dataclass(frozen=True)
class ShapeReport:
    ok: bool
    problems: tuple


def check_partition_shape(n: int, exceptional_size: int, cluster_sizes, eps) -> ShapeReport:
    """Shape validator for a regularity-style partition: |V_0| <= eps*n and
    all clusters equal-sized with |V_i| <= ceil(eps*n).

    Validation only; nothing in this package generates such partitions.
    """
    eps = Fraction(eps)
    sizes = list(cluster_sizes)
    problems = []
    if exceptional_size * eps.denominator > eps.numerator * n:
        problems.append(f"|V_0| = {exceptional_size} exceeds eps*n = {eps * n}")
    if sizes and len(set(sizes)) != 1:
        problems.append(f"cluster sizes differ: {sorted(set(sizes))}")
    ceil_eps_n = -((-eps.numerator * n) // eps.denominator)
    for i, s in enumerate(sizes):
        if s > ceil_eps_n:
            problems.append(f"cluster {i} size {s} exceeds ceil(eps*n) = {ceil_eps_n}")
            break
    if exceptional_size + sum(sizes) != n:
        problems.append("sizes do not add up to n")
    return ShapeReport(not problems, tuple(problems))
