"""Finite absorption primitives: absorbers, connectors, reachability,
robust index vectors, and the assembly procedures that combine them.

For an h-vertex pattern H inside (G, F):

    absorber for an h-set S:  A disjoint from S, |A| <= h^2*t, with
        compatible H-factors in both G[A] and G[A u S]
    connector for u, v:       S disjoint from {u, v}, |S| <= h*t - 1, with
        compatible H-factors in both G[S u {u}] and G[S u {v}]
    (m, t)-reachable:         for every m-set W there is a connector
        avoiding W; closed = every pair reachable
    robust vector:            an index vector realized by a compatible
        copy no matter which floor(beta*n)-set W is deleted

Quantifiers over W (and over the absorbing-set residuals R) range over
exponentially many sets; verdicts therefore carry their strength
explicitly: PROVEN only when the space was exhausted (or a disjointness
certificate applies), SUPPORTED(k/k) when sampled, REFUTED with a
witness, INDETERMINATE when a budget ran out.  Sampling never upgrades
itself to proof, and it takes at least one sample.

Every Absorber/Connector returned by an assembly operation has already
re-passed its own verifier; a verification failure inside an assembly is
a ConsistencyError, because the defining factor tilings of the pieces
glue into factor tilings of the whole by construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import solver
from .errors import ConsistencyError, ValidationError
from .graphs import Graph, VertexPartition
from .incompat import IncompatibilitySystem
from .lattice import index_vector
from .util import bits, frac_floor, mask_of

PROVEN = "proven"
SUPPORTED = "supported"
REFUTED = "refuted"
INDETERMINATE = "indeterminate"

DEFAULT_EXHAUSTIVE_CAP = 20_000


@dataclass(frozen=True)
class Connector:
    u: int
    v: int
    s: tuple   # sorted, disjoint from {u, v}
    t: int


@dataclass(frozen=True)
class Absorber:
    s_set: tuple
    a_set: tuple
    t: int


@dataclass
class VerifyResult:
    ok: bool
    status: str                 # proven / refuted / indeterminate
    reason: str = ""
    tilings: tuple = ()         # witness tilings in host ids when ok

    def __bool__(self):
        return self.ok


def _factor_on(g: Graph, f: IncompatibilitySystem, pattern: Graph,
               vertices, budget: int):
    """Compatible-factor decision on G[vertices], host-id tiling."""
    if any(not 0 <= v < g.n for v in vertices):
        raise ValidationError("vertex set leaves the graph")
    res = solver.find_compatible_factor(pattern, g, f, budget=budget,
                                        pool=mask_of(vertices))
    if res.status == solver.FOUND:
        return solver.FOUND, tuple(emb.vertices for emb in res.tiling.embeddings)
    return res.status, None


def _factor_gate(g: Graph, f: IncompatibilitySystem, pattern: Graph,
                 named_sets, budget: int) -> VerifyResult:
    """PROVEN when every G[vertices] of ``named_sets`` has a compatible factor.

    ``named_sets`` lists (name, vertices); the first set without a factor
    (REFUTED) or whose search hit the budget (INDETERMINATE) is named in
    the reason.
    """
    tilings = []
    for name, vertices in named_sets:
        status, tiling = _factor_on(g, f, pattern, vertices, budget)
        if status == solver.INDETERMINATE:
            return VerifyResult(False, INDETERMINATE,
                                f"G[{name}] factor search hit budget")
        if status == solver.NONE:
            return VerifyResult(False, REFUTED, f"G[{name}] has no compatible factor")
        tilings.append(tiling)
    return VerifyResult(True, PROVEN, tilings=tuple(tilings))


def verify_absorber(g: Graph, f: IncompatibilitySystem, pattern: Graph,
                    s_set, a_set, t: int,
                    budget: int = solver.DEFAULT_BUDGET) -> VerifyResult:
    """Size bound |A| <= h^2*t plus the two factor conditions, solver-checked."""
    s_set, a_set = sorted(set(s_set)), sorted(set(a_set))
    h = pattern.n
    if set(s_set) & set(a_set):
        return VerifyResult(False, REFUTED, "A intersects S")
    if len(s_set) != h:
        return VerifyResult(False, REFUTED, f"|S| = {len(s_set)} != h = {h}")
    if len(a_set) > h * h * t:
        return VerifyResult(False, REFUTED,
                            f"|A| = {len(a_set)} exceeds h^2*t = {h * h * t}")
    return _factor_gate(g, f, pattern, (("A", a_set), ("A u S", s_set + a_set)),
                        budget)


def verify_connector(g: Graph, f: IncompatibilitySystem, pattern: Graph,
                     s_set, u: int, v: int, t: int,
                     budget: int = solver.DEFAULT_BUDGET) -> VerifyResult:
    """Size bound |S| <= h*t - 1 plus factors of G[S u {u}] and G[S u {v}]."""
    s_set = sorted(set(s_set))
    h = pattern.n
    if u in s_set or v in s_set:
        return VerifyResult(False, REFUTED, "S must avoid its endpoints")
    if u == v:
        return VerifyResult(False, REFUTED, "endpoints must differ")
    if len(s_set) > h * t - 1:
        return VerifyResult(False, REFUTED,
                            f"|S| = {len(s_set)} exceeds h*t - 1 = {h * t - 1}")
    return _factor_gate(g, f, pattern,
                        (("S u {u}", s_set + [u]), ("S u {v}", s_set + [v])), budget)


def _reverified(check: VerifyResult, during: str, what: str):
    """Raise unless an assembled piece re-passed its verifier.

    A budget cut is the caller's to fix (ValidationError); a refutation
    means the gluing argument failed (ConsistencyError).
    """
    if check.status == INDETERMINATE:
        raise ValidationError(f"verification budget exhausted while {during}")
    if not check.ok:
        raise ConsistencyError(f"{what} failed verification: {check.reason}")


@dataclass
class ConnectorSearch:
    status: str                # found / none / indeterminate
    connector: object = None
    expansions: int = 0


def find_connector(g: Graph, f: IncompatibilitySystem, pattern: Graph,
                   u: int, v: int, w_set=(), t: int = 1,
                   budget: int = solver.DEFAULT_BUDGET) -> ConnectorSearch:
    """Smallest connector for u, v avoiding W, by increasing size.

    Admissible sizes are s = j*h - 1 for j = 1..t.  Candidate sets S are
    exactly the unions of j vertex-disjoint compatible copies through u
    minus u itself (any valid S tiles S u {u} that way), found in
    deterministic order; each candidate is accepted once G[S u {v}]
    factors as well.  The copies are enumerated once: the first copy of
    a union is one through u, each later one a copy disjoint from the
    union so far, both in canonical order.
    """
    h = pattern.n
    if any(not 0 <= x < g.n for x in (u, v, *w_set)):
        raise ValidationError("connector endpoints and W must lie in the graph")
    if t < 1:
        raise ValidationError(f"connector size parameter t must be >= 1, got {t}")
    if u == v:
        raise ValidationError("endpoints must differ")
    w_mask = mask_of(w_set)
    if w_mask >> u & 1 or w_mask >> v & 1:
        raise ValidationError("W must avoid the endpoints")
    pool = ((1 << g.n) - 1) & ~w_mask & ~(1 << v)
    enum = solver.enumerate_compatible_copies(pattern, g, f, budget=budget, pool=pool)
    expansions = enum.expansions
    if enum.truncated:
        return ConnectorSearch(solver.INDETERMINATE, None, expansions)
    masks = [emb.mask for emb in enum.copies]
    through_u = [msk for msk in masks if msk >> u & 1]

    for j in range(1, t + 1):
        seen = set()
        # explicit stack: todo[d] holds the untried candidates for copy d,
        # unions[d] the union of copies 0..d-1
        todo, unions = [iter(through_u)], [0]
        while todo:
            msk = next(todo[-1], None)
            if msk is None:
                todo.pop()
                unions.pop()
                continue
            if msk & unions[-1]:
                continue
            used = unions[-1] | msk
            if len(todo) < j:
                todo.append(iter(masks))
                unions.append(used)
                continue
            s_set = tuple(sorted(bits(used & ~(1 << u))))
            if s_set in seen:
                continue
            seen.add(s_set)
            check = verify_connector(g, f, pattern, s_set, u, v, t,
                                     budget=budget - expansions
                                     if budget > expansions else 0)
            expansions += h  # count candidate checks against the budget
            if check.status == INDETERMINATE:
                return ConnectorSearch(solver.INDETERMINATE, None, expansions)
            if check.ok:
                return ConnectorSearch(solver.FOUND, Connector(u, v, s_set, t), expansions)
    return ConnectorSearch(solver.NONE, None, expansions)


def _for_every(exhaustive: bool, every, draw, samples: int, holds) -> tuple:
    """Quantify 'holds(W) for every W': (verdict, checked, witness).

    Exhaustive runs over the iterable ``every`` and can PROVE; otherwise
    ``samples`` calls of ``draw`` can at best SUPPORT.  ``holds`` answers
    True, False (W is the REFUTED witness) or None (undecided: the whole
    verdict is INDETERMINATE).  ``checked`` counts the W that held.
    """
    if exhaustive:
        ws = every
    elif samples < 1:
        raise ValidationError(f"sampling needs samples >= 1, got {samples}")
    else:
        ws = (draw() for _ in range(samples))
    checked = 0
    for w_set in ws:
        answer = holds(w_set)
        if answer is None:
            return INDETERMINATE, checked, None
        if not answer:
            return REFUTED, checked, tuple(w_set)
        checked += 1
    return (PROVEN if exhaustive else SUPPORTED), checked, None


@dataclass
class ReachReport:
    verdict: str               # proven / supported / refuted / indeterminate
    checked: int
    total: object = None       # population size when exhaustive
    witness: tuple = None      # failing W on refuted


def reachability_estimate(g: Graph, f: IncompatibilitySystem, pattern: Graph,
                          u: int, v: int, m: int, t: int,
                          samples: int = 100, seed: int = 0,
                          exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP,
                          budget: int = solver.DEFAULT_BUDGET) -> ReachReport:
    """Quantify 'for every m-set W there is a connector avoiding W'.

    Exhaustive (PROVEN/REFUTED) when C(n-2, m) fits the cap; otherwise
    `samples` seeded draws give SUPPORTED(k/k) at best.  A REFUTED verdict
    requires the inner connector search to have exhausted its space, so
    the witness is genuine; inner budget blowups surface as INDETERMINATE.
    """
    others = [x for x in range(g.n) if x not in (u, v)]
    if m > len(others):
        raise ValidationError(f"m = {m} exceeds the {len(others)} non-endpoint vertices")
    population = math.comb(len(others), m)
    exhaustive = population <= exhaustive_cap
    rng = random.Random(seed)

    def has_connector(w_set):
        status = find_connector(g, f, pattern, u, v, w_set, t, budget).status
        return None if status == solver.INDETERMINATE else status == solver.FOUND

    verdict, checked, witness = _for_every(
        exhaustive, combinations(others, m),
        lambda: tuple(sorted(rng.sample(others, m))), samples, has_connector)
    return ReachReport(verdict, checked, population if exhaustive else None, witness)


def concatenate_connectors(g: Graph, f: IncompatibilitySystem, pattern: Graph,
                           c1: Connector, c2: Connector,
                           budget: int = solver.DEFAULT_BUDGET) -> Connector:
    """Chain connectors (u, w) and (w, v) into one for (u, v).

    S = S_1 u S_2 u {w} with t' = t_1 + t_2: the factor of G[S u {u}]
    glues the S_1 u {u} tiling with the S_2 u {w} tiling, and
    symmetrically for v, so re-verification can only fail on bad inputs.
    """
    if c1.v != c2.u:
        raise ValidationError(f"connectors do not chain: {c1.v} != {c2.u}")
    mid = c1.v
    u, v = c1.u, c2.v
    if u == v:
        raise ValidationError("chained endpoints coincide")
    s1, s2 = set(c1.s), set(c2.s)
    if s1 & s2:
        raise ValidationError("connector interiors overlap")
    if mid in s1 or mid in s2 or u in s2 or v in s1:
        raise ValidationError("connector interiors touch an endpoint")
    h = pattern.n
    s_set = tuple(sorted(s1 | s2 | {mid}))
    t_new = c1.t + c2.t
    if len(s_set) > h * t_new - 1:
        raise ValidationError(
            f"size law violated: |S| = {len(s_set)} > h*(t1+t2)-1 = {h * t_new - 1}")
    _reverified(verify_connector(g, f, pattern, s_set, u, v, t_new, budget=budget),
                "chaining", "chained connector")
    return Connector(u, v, s_set, t_new)


def assemble_absorber(g: Graph, f: IncompatibilitySystem, pattern: Graph,
                      s_set, t_copy, connectors,
                      budget: int = solver.DEFAULT_BUDGET) -> Absorber:
    """A = union of connector interiors plus T, for the target set S.

    T spans a compatible copy; connectors[i] joins s_set[i] to t_copy[i].
    G[A] tiles as the S_i u {t_i} factors; G[A u S] tiles as the copy on
    T plus the S_i u {s_i} factors.  |A| <= h*(h*t-1) + h = h^2*t with
    t = max connector capacity.
    """
    h = pattern.n
    s_set, t_copy = tuple(s_set), tuple(t_copy)
    if len(s_set) != h or len(t_copy) != h:
        raise ValidationError(f"need |S| = |T| = h = {h}")
    if len(connectors) != h:
        raise ValidationError(f"need exactly h = {h} connectors, got {len(connectors)}")
    pieces = [set(t_copy)]
    for i, c in enumerate(connectors):
        if (c.u, c.v) not in ((s_set[i], t_copy[i]), (t_copy[i], s_set[i])):
            raise ValidationError(
                f"connector {i} joins {(c.u, c.v)}, expected ({s_set[i]}, {t_copy[i]})")
        pieces.append(set(c.s))
    pieces.append(set(s_set))
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            if pieces[i] & pieces[j]:
                raise ValidationError("absorber pieces are not pairwise disjoint")
    status, _ = _factor_on(g, f, pattern, t_copy, budget)
    if status != solver.FOUND:
        raise ValidationError("T does not span a compatible copy")
    t_cap = max(c.t for c in connectors)
    a_set = tuple(sorted(set(t_copy) | {x for c in connectors for x in c.s}))
    if len(a_set) > h * h * t_cap:
        raise ValidationError(
            f"size law violated: |A| = {len(a_set)} > h^2*t = {h * h * t_cap}")
    _reverified(verify_absorber(g, f, pattern, s_set, a_set, t_cap, budget=budget),
                "assembling", "assembled absorber")
    return Absorber(tuple(sorted(s_set)), a_set, t_cap)


@dataclass
class VectorReport:
    vector: tuple
    robust: bool
    verdict: str            # proven / supported / refuted-style witness
    witness: tuple = None
    disjoint_copies: int = 0


@dataclass
class RobustReport:
    w_size: int
    vectors: dict           # vector -> VectorReport
    enumeration_truncated: bool

    def robust_vectors(self) -> list:
        return sorted(v for v, rep in self.vectors.items() if rep.robust)


def robust_vectors(g: Graph, f: IncompatibilitySystem, pattern: Graph,
                   p: VertexPartition, beta, samples: int = 100, seed: int = 0,
                   exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP,
                   budget: int = solver.DEFAULT_BUDGET) -> RobustReport:
    """Which index vectors survive every deletion of floor(beta*n) vertices?

    Candidate vectors are those realized by some compatible copy.  A
    vector with more than floor(beta*n) pairwise disjoint realizing
    copies is PROVEN robust outright (no W can hit them all).  Otherwise
    the W-space is exhausted when it fits the cap, else sampled; the
    verdict label records which.  Testing |W| = floor(beta*n) exactly
    covers all smaller W too (supersets only make deletion harder).
    """
    beta = Fraction(beta)
    w = frac_floor(beta * g.n)
    enum = solver.enumerate_compatible_copies(pattern, g, f, budget=budget)
    by_vector = {}
    for emb in enum.copies:
        by_vector.setdefault(index_vector(emb.vertices, p), []).append(emb.mask)

    rng = random.Random(seed)
    population = math.comb(g.n, w)
    reports = {}
    for vec in sorted(by_vector):
        masks = by_vector[vec]
        taken = 0
        used = 0
        for msk in masks:  # greedy disjoint packing certificate
            if not msk & used:
                used |= msk
                taken += 1
                if taken > w:
                    break
        if taken > w:
            reports[vec] = VectorReport(vec, True, PROVEN, disjoint_copies=taken)
            continue

        def survives(w_set):
            w_mask = mask_of(w_set)
            return not all(msk & w_mask for msk in masks)

        verdict, _, killer = _for_every(
            population <= exhaustive_cap, combinations(range(g.n), w),
            lambda: tuple(sorted(rng.sample(range(g.n), w))), samples, survives)
        if killer is None:
            reports[vec] = VectorReport(vec, True, verdict)
        else:
            reports[vec] = VectorReport(vec, False, PROVEN, witness=killer)
    return RobustReport(w, reports, enum.truncated)


@dataclass
class AbsorbingSetReport:
    verdict: str            # proven / supported / refuted / indeterminate
    checked: int
    witness: tuple = None   # failing residual R


def verify_absorbing_set(g: Graph, f: IncompatibilitySystem, pattern: Graph,
                         a_set, xi, samples: int = 100, seed: int = 0,
                         exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP,
                         budget: int = solver.DEFAULT_BUDGET) -> AbsorbingSetReport:
    """Check the absorbing-set property of A by definition.

    Every residual R outside A with |R| <= xi*n and |A u R| divisible by
    h must leave G[A u R] with a compatible factor.  Exhaustive over all
    admissible R when the count fits the cap, else sampled per size.
    """
    a_set = sorted(set(a_set))
    xi = Fraction(xi)
    h = pattern.n
    outside = [v for v in range(g.n) if v not in set(a_set)]
    r_cap = frac_floor(xi * g.n)
    sizes = [s for s in range(0, r_cap + 1) if (len(a_set) + s) % h == 0]
    population = sum(math.comb(len(outside), s) for s in sizes)
    rng = random.Random(seed)

    def draw():
        s = sizes[rng.randrange(len(sizes))]
        return tuple(sorted(rng.sample(outside, s)))

    def absorbed(r_set):
        status, _ = _factor_on(g, f, pattern, a_set + list(r_set), budget)
        return None if status == solver.INDETERMINATE else status == solver.FOUND

    verdict, checked, witness = _for_every(
        population <= exhaustive_cap,
        (r_set for s in sizes for r_set in combinations(outside, s)),
        draw, samples, absorbed)
    return AbsorbingSetReport(verdict, checked, witness)


def merge_via_transferral(g: Graph, f: IncompatibilitySystem, pattern: Graph,
                          p: VertexPartition, x: int, y: int,
                          fam_p: dict, fam_q: dict, t: int,
                          budget: int = solver.DEFAULT_BUDGET) -> Connector:
    """Connector for x, y built from copy families realizing a transferral.

    fam_p / fam_q map index vectors to lists of pairwise disjoint
    compatible copies (multiplicities p_vec / q_vec from a coefficient
    split of u_i - u_j, where x sits in block i and y in block j).  The
    copy vertices pair up block-by-block: x_1 from fam_p in block i, y_1
    from fam_q in block j, the rest within common blocks.  Respecting
    that pairing, connectors S_0 (x, x_1), S_1 (y, y_1) and S_l (x_l,
    y_l) are found by find_connector with the already-used vertex set as
    the forbidden W, and their union with the family vertices is the
    connector, with t' = t + C + t*h*C.

    Diagnostics name the failing piece; a verification failure after all
    pieces were found is a ConsistencyError.
    """
    h = pattern.n
    i_blk, j_blk = p.block_of(x), p.block_of(y)
    if i_blk == j_blk:
        raise ValidationError("x and y must lie in distinct blocks")
    c_mass_p = sum(len(v) for v in fam_p.values())
    c_mass_q = sum(len(v) for v in fam_q.values())
    if c_mass_p != c_mass_q:
        raise ValidationError(
            f"families are unbalanced: {c_mass_p} vs {c_mass_q} copies")
    c_mass = c_mass_p

    def connect(a, b, forbidden):
        res = find_connector(g, f, pattern, a, b, w_set=sorted(forbidden), t=t,
                             budget=budget)
        return res.connector if res.status == solver.FOUND else None

    if c_mass == 0:
        # no transferral mass: the merge degenerates to a direct connector
        conn = connect(x, y, set())
        if conn is None:
            raise ValidationError(f"no direct connector found for ({x}, {y})")
        _reverified(verify_connector(g, f, pattern, conn.s, x, y, t, budget=budget),
                    "merging", "direct connector")
        return Connector(x, y, tuple(sorted(conn.s)), t)

    used = {x, y}
    for fam, name in ((fam_p, "p"), (fam_q, "q")):
        for vec, copies in fam.items():
            for emb in copies:
                if not solver.verify_embedding(g, f, pattern, emb):
                    raise ValidationError(f"family {name}: invalid copy {emb.vertices}")
                if index_vector(emb.vertices, p) != tuple(vec):
                    raise ValidationError(
                        f"family {name}: copy {emb.vertices} has the wrong index vector")
                if used & set(emb.vertices):
                    raise ValidationError(
                        f"family {name}: copy {emb.vertices} overlaps earlier pieces")
                used |= set(emb.vertices)

    vp = sorted(v for copies in fam_p.values() for emb in copies for v in emb.vertices)
    vq = sorted(v for copies in fam_q.values() for emb in copies for v in emb.vertices)
    # index balance: i(V(fam_q)) + u_i == i(V(fam_p)) + u_j
    lhs = list(index_vector(vq, p))
    lhs[i_blk] += 1
    rhs = list(index_vector(vp, p))
    rhs[j_blk] += 1
    if lhs != rhs:
        raise ValidationError("index balance fails: families do not realize a transferral")

    def pop_min(pool: list, blk: int) -> int:
        for idx, vert in enumerate(pool):
            if p.block_of(vert) == blk:
                return pool.pop(idx)
        raise ValidationError(f"no family vertex left in block {blk}")

    vp_pool, vq_pool = list(vp), list(vq)
    pairs = [(pop_min(vp_pool, i_blk), pop_min(vq_pool, j_blk))]
    by_block = {}
    for vert in vq_pool:
        by_block.setdefault(p.block_of(vert), []).append(vert)
    for x_l in vp_pool:
        blk = p.block_of(x_l)
        if not by_block.get(blk):
            raise ValidationError(f"pairing failed in block {blk}")
        pairs.append((x_l, by_block[blk].pop(0)))

    connectors = []
    endpoint_pairs = [(x, pairs[0][0]), (y, pairs[0][1])] + pairs[1:]
    for a, b in endpoint_pairs:
        forbidden = set(used) - {a, b}
        conn = connect(a, b, forbidden)
        if conn is None:
            raise ValidationError(f"no connector found for ({a}, {b}) avoiding the build")
        if set(conn.s) & forbidden or set(conn.s) & {a, b}:
            raise ValidationError(f"connector for ({a}, {b}) reuses forbidden vertices")
        connectors.append(conn)
        used |= set(conn.s)

    s_hat = sorted((set(vp) | set(vq) | {v for c in connectors for v in c.s}))
    t_new = t + c_mass + t * h * c_mass
    if len(s_hat) > h * t_new - 1:
        raise ValidationError(
            f"size law violated: |S| = {len(s_hat)} > h*t' - 1 = {h * t_new - 1}")
    _reverified(verify_connector(g, f, pattern, s_hat, x, y, t_new, budget=budget),
                "merging", "merged connector")
    return Connector(x, y, tuple(s_hat), t_new)
