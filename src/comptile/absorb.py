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

``find_connector`` and ``reachability_estimate`` share one connector
search; its candidates meet the size and endpoint laws by construction
and go straight to the factor gate that ``verify_connector`` runs.

Every Absorber/Connector returned by an assembly operation has already
re-passed its own verifier; a verification failure inside an assembly is
a ConsistencyError, because the defining factor tilings of the pieces
glue into factor tilings of the whole by construction.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

from . import solver
from .errors import ConsistencyError, ValidationError
from .graphs import Graph, VertexPartition
from .incompat import IncompatibilitySystem
from .lattice import index_vector, mask_index_vector
from .util import FrozenRecord, Record, bits, mask_of, rational

PROVEN = "proven"
SUPPORTED = "supported"
REFUTED = "refuted"
INDETERMINATE = "indeterminate"

# the quantifier checks run over every set when there are at most this many,
# else over seeded samples
DEFAULT_EXHAUSTIVE_CAP = 20_000


class Connector(FrozenRecord):
    # s: sorted, disjoint from {u, v}
    __slots__ = _fields = ("u", "v", "s", "t")

    def __init__(self, u: int, v: int, s: tuple, t: int):
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)


class Absorber(FrozenRecord):
    __slots__ = _fields = ("s_set", "a_set", "t")

    def __init__(self, s_set: tuple, a_set: tuple, t: int):
        object.__setattr__(self, "s_set", s_set)
        object.__setattr__(self, "a_set", a_set)
        object.__setattr__(self, "t", t)


class VerifyResult(Record):
    # status: proven / refuted / indeterminate
    # tilings: the witness tilings in host ids when ok
    # expansions: spent by the factor searches
    __slots__ = _fields = ("status", "reason", "tilings", "expansions")

    def __init__(self, status: str, reason: str = "", tilings: tuple = (),
                 expansions: int = 0):
        self.status = status
        self.reason = reason
        self.tilings = tilings
        self.expansions = expansions

    @property
    def ok(self) -> bool:
        return self.status == PROVEN


def _check_inputs(g: Graph, pattern: Graph, vertices):
    """Usage errors rejected before any verdict: an empty pattern, or a
    vertex outside the graph (it would make a verdict vacuous or wrong)."""
    if pattern.n == 0:
        raise ValidationError("empty pattern")
    if any(not 0 <= x < g.n for x in vertices):
        raise ValidationError("vertices must lie in the graph")


def _factor_gate(g: Graph, f: IncompatibilitySystem, pattern: Graph,
                 named_sets, budget: int, copies=None) -> VerifyResult:
    """PROVEN when every G[vertices] of ``named_sets`` has a compatible factor.

    ``named_sets`` lists (name, vertices); the first set without a factor
    (REFUTED) or whose search hit the budget (INDETERMINATE) is named in
    the reason.  A set whose size h does not divide refutes the gate
    before anything is enumerated, at no expansions.  Otherwise the union
    of the sets is enumerated once, and each search reads that
    enumeration's rows through the mask of those inside its set
    (``CopyEnumeration.live``); an enumeration cut by the budget makes the
    gate INDETERMINATE at once.  ``budget`` covers the
    enumeration and the searches, so a gate that ends PROVEN or REFUTED
    spent at most ``budget`` expansions.  ``copies``, a complete
    enumeration over a superset of the union, replaces the gate's own;
    ``budget`` and ``expansions`` then cover the searches alone.
    """
    for name, vertices in named_sets:
        if len(vertices) % pattern.n:
            return VerifyResult(REFUTED, f"G[{name}] has no compatible factor")
    spent = 0
    if copies is None:
        union = 0
        for _, vertices in named_sets:
            union |= mask_of(vertices)
        copies = solver.enumerate_compatible_copies(pattern, g, f, budget=budget, pool=union)
        spent = copies.expansions
        if copies.truncated:
            return VerifyResult(INDETERMINATE,
                                "copy enumeration of the union of "
                                + ", ".join(f"G[{name}]" for name, _ in named_sets)
                                + " hit budget", expansions=spent)
    tilings = []
    for name, vertices in named_sets:
        res = solver.find_compatible_factor(pattern, g, f, budget=budget - spent,
                                            pool=mask_of(vertices), copies=copies)
        spent += res.expansions
        if res.status == solver.INDETERMINATE:
            return VerifyResult(INDETERMINATE,
                                f"G[{name}] factor search hit budget", expansions=spent)
        if res.status == solver.NONE:
            return VerifyResult(REFUTED, f"G[{name}] has no compatible factor",
                                expansions=spent)
        tilings.append(tuple(emb.vertices for emb in res.tiling.embeddings))
    return VerifyResult(PROVEN, tilings=tuple(tilings), expansions=spent)


def verify_absorber(g: Graph, f: IncompatibilitySystem, pattern: Graph,
                    s_set, a_set, t: int,
                    budget: int = solver.DEFAULT_BUDGET) -> VerifyResult:
    """Size bound |A| <= h^2*t plus the two factor conditions, solver-checked.

    t < 1 is a usage error, as for a connector: no A fits |A| <= h^2*t
    then, so a refutation would claim an absence no search established.
    """
    s_set, a_set = sorted(set(s_set)), sorted(set(a_set))
    _check_inputs(g, pattern, s_set + a_set)
    if t < 1:
        raise ValidationError(f"absorber size parameter t must be >= 1, got {t}")
    h = pattern.n
    if set(s_set) & set(a_set):
        return VerifyResult(REFUTED, "A intersects S")
    if len(s_set) != h:
        return VerifyResult(REFUTED, f"|S| = {len(s_set)} != h = {h}")
    if len(a_set) > h * h * t:
        return VerifyResult(REFUTED,
                            f"|A| = {len(a_set)} exceeds h^2*t = {h * h * t}")
    return _factor_gate(g, f, pattern, (("A", a_set), ("A u S", s_set + a_set)),
                        budget)


def verify_connector(g: Graph, f: IncompatibilitySystem, pattern: Graph,
                     s_set, u: int, v: int, t: int,
                     budget: int = solver.DEFAULT_BUDGET) -> VerifyResult:
    """Size bound |S| <= h*t - 1 plus factors of G[S u {u}] and G[S u {v}].

    Both factor searches take their copies from one enumeration of
    G[S u {u, v}]; ``budget`` covers what ``_factor_gate`` says.  t < 1
    and u == v are usage errors, as for ``find_connector``.
    """
    s_set = sorted(set(s_set))
    _check_connector_inputs(g, pattern, u, v, t, s_set)
    h = pattern.n
    if u in s_set or v in s_set:
        return VerifyResult(REFUTED, "S must avoid its endpoints")
    if len(s_set) > h * t - 1:
        return VerifyResult(REFUTED,
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


class ConnectorSearch(Record):
    # status: found / none / indeterminate
    __slots__ = _fields = ("status", "connector", "expansions")

    def __init__(self, status: str, connector: object = None, expansions: int = 0):
        self.status = status
        self.connector = connector
        self.expansions = expansions


def _check_connector_inputs(g: Graph, pattern: Graph, u: int, v: int, t: int, others=()):
    """Usage errors of a connector search or check, rejected before it
    starts; ``others`` are further vertices that must lie in the graph."""
    _check_inputs(g, pattern, (u, v, *others))
    if t < 1:
        raise ValidationError(f"connector size parameter t must be >= 1, got {t}")
    if u == v:
        raise ValidationError("endpoints must differ")


def find_connector(g: Graph, f: IncompatibilitySystem, pattern: Graph,
                   u: int, v: int, w_set=(), t: int = 1,
                   budget: int = solver.DEFAULT_BUDGET) -> ConnectorSearch:
    """Smallest connector for u, v avoiding W, by increasing size.

    Admissible sizes are s = j*h - 1 for j = 1..t.  Candidate sets S are
    exactly the unions of j vertex-disjoint compatible copies through u
    minus u itself (any valid S tiles S u {u} that way), found in
    deterministic order; each candidate is accepted once G[S u {v}]
    factors as well.  The size ladder stops at j = t, or at the first j
    with no union of j such copies, since every union of j + 1 copies
    holds one of j; so a huge t costs no more than the largest union.
    G - W is enumerated once, and ``_connector_search`` builds the
    candidates from its copies and decides every candidate's two factor
    searches on them.

    ``expansions`` counts the enumeration plus every candidate's factor
    searches, which share what the enumeration left of ``budget``; a
    search that ends FOUND or NONE spent at most ``budget``.
    """
    _check_connector_inputs(g, pattern, u, v, t, w_set)
    w_mask = mask_of(w_set)
    if w_mask >> u & 1 or w_mask >> v & 1:
        raise ValidationError("W must avoid the endpoints")
    pool = ((1 << g.n) - 1) & ~w_mask
    return _connector_search(g, f, pattern, u, v, t, budget, pool)(0)


def _connector_search(g: Graph, f: IncompatibilitySystem, pattern: Graph,
                      u: int, v: int, t: int, budget: int, pool=None):
    """Enumerate G[pool] (the host when ``pool`` is None) now, and return
    ``search(avoid)``: the smallest connector for u, v inside the pool
    that avoids W, whose vertex mask is ``avoid``, as a ConnectorSearch.

    The candidates are built from the copies that miss v: the first copy
    of a union one through u, each later one a copy disjoint from the
    union so far, both in canonical order.  A copy that meets W is
    skipped, so the loop runs as it would over the copies of G[pool] - W.
    A candidate S, the union minus u, meets |S| <= h*t - 1 and avoids u
    and v by construction, so it goes straight to ``_factor_gate`` on the
    one enumeration.

    The calls to ``search`` share one table of verdicts, so each S is
    checked at most once, and one count of expansions: the enumeration
    plus every check, each check getting ``budget`` less that count.  A
    check cut by the budget is not stored.
    """
    enum = solver.enumerate_compatible_copies(pattern, g, f, budget=budget, pool=pool)
    masks = [msk for msk in enum.masks if not msk >> v & 1]
    through_u = [msk for msk in masks if msk >> u & 1]
    verdicts = {}
    spent = enum.expansions

    def search(avoid: int) -> ConnectorSearch:
        nonlocal spent
        if enum.truncated:
            return ConnectorSearch(solver.INDETERMINATE, None, spent)
        for j in range(1, t + 1):
            # explicit stack: todo[d] holds the untried candidates for copy d,
            # unions[d] W plus the union of copies 0..d-1
            todo, unions = [iter(through_u)], [avoid]
            full = False    # some union of j disjoint copies exists
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
                full = True
                s_mask = (used ^ avoid) & ~(1 << u)
                if s_mask not in verdicts:
                    s_set = list(bits(s_mask))
                    check = _factor_gate(g, f, pattern,
                                         (("S u {u}", s_set + [u]), ("S u {v}", s_set + [v])),
                                         budget - spent, enum)
                    spent += check.expansions
                    if check.status == INDETERMINATE:
                        return ConnectorSearch(solver.INDETERMINATE, None, spent)
                    verdicts[s_mask] = check.ok
                if verdicts[s_mask]:
                    return ConnectorSearch(solver.FOUND,
                                           Connector(u, v, tuple(bits(s_mask)), t), spent)
            if not full:
                break   # every union of j + 1 copies holds one of j
        return ConnectorSearch(solver.NONE, None, spent)

    return search


def _for_every(exhaustive: bool, every, draw, samples: int, holds) -> tuple:
    """Quantify 'holds(W) for every W': (verdict, checked, witness), the
    W one at a time; reachability and absorbing sets use it, and robust
    vectors when they sample.

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


class ReachReport(Record):
    # verdict: proven / supported / refuted / indeterminate
    # total: the population size when exhaustive; witness: the failing W
    # when refuted
    __slots__ = _fields = ("verdict", "checked", "total", "witness")

    def __init__(self, verdict: str, checked: int, total: object = None,
                 witness: tuple = None):
        self.verdict = verdict
        self.checked = checked
        self.total = total
        self.witness = witness


def reachability_estimate(g: Graph, f: IncompatibilitySystem, pattern: Graph,
                          u: int, v: int, m: int, t: int,
                          samples: int = 100, seed: int = 0,
                          budget: int = solver.DEFAULT_BUDGET) -> ReachReport:
    """Quantify 'for every m-set W there is a connector avoiding W'.

    Exhaustive (PROVEN/REFUTED) when C(n-2, m) fits the cap; otherwise
    `samples` seeded draws give SUPPORTED(k/k) at best.  A REFUTED verdict
    requires the inner connector search to have exhausted its space, so
    the witness is genuine; inner budget blowups surface as INDETERMINATE.

    The host is enumerated once per call, before the first W, so a
    sampled call with ``samples`` < 1 enumerates before it raises, as
    ``robust_vectors`` does; one ``_connector_search`` over it answers
    every W.  The copies of G - W are exactly the host copies that miss W,
    so each W gets the answer its own ``find_connector`` would.  The W
    share one table of verdicts, so each candidate S is checked at most
    once per call, and ``budget`` bounds the whole call: the enumeration
    plus those checks.  So a budget under which every W's own
    ``find_connector`` decides can leave the call INDETERMINATE.
    """
    _check_connector_inputs(g, pattern, u, v, t)
    if m < 0:
        raise ValidationError(f"m must be >= 0, got {m}")
    others = [x for x in range(g.n) if x not in (u, v)]
    if m > len(others):
        raise ValidationError(f"m = {m} exceeds the {len(others)} non-endpoint vertices")
    population = math.comb(len(others), m)
    exhaustive = population <= DEFAULT_EXHAUSTIVE_CAP
    rng = random.Random(seed)
    search = _connector_search(g, f, pattern, u, v, t, budget)

    def has_connector(w_set):
        status = search(mask_of(w_set)).status
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
    _check_inputs(g, pattern, s_set + t_copy)
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
    if solver.find_compatible_factor(pattern, g, f, budget=budget,
                                     pool=mask_of(t_copy)).status != solver.FOUND:
        raise ValidationError("T does not span a compatible copy")
    t_cap = max(c.t for c in connectors)
    a_set = tuple(sorted(set(t_copy) | {x for c in connectors for x in c.s}))
    if len(a_set) > h * h * t_cap:
        raise ValidationError(
            f"size law violated: |A| = {len(a_set)} > h^2*t = {h * h * t_cap}")
    _reverified(verify_absorber(g, f, pattern, s_set, a_set, t_cap, budget=budget),
                "assembling", "assembled absorber")
    return Absorber(tuple(sorted(s_set)), a_set, t_cap)


def _first_hitting_set(masks, n: int, w: int):
    """The first W of ``combinations(range(n), w)`` that meets every mask
    of ``masks``, or None.

    Walks the prefix tree of ``combinations`` in its order, on an explicit
    stack (w may be close to n).  At a prefix C with next vertex x and r
    slots left it keeps the masks C misses, and skips the child C + (x,)
    only when no completion can meet all of them: a mask missed by C + (x,)
    has no vertex above x (then no later x helps either), or the masks it
    misses, cut to the vertices above x, hold more than r - 1 pairwise
    disjoint ones (greedily packed), each needing a vertex of its own.  So
    it reaches the same first W and visits no node the plain walk does
    not.  Once nothing is missed, the first completion, C + (x, x+1, ...),
    is the answer.
    """
    if w == 0:
        return None if masks else ()
    prefixes, missed, todo = [()], [list(masks)], [iter(range(n - w + 1))]
    while todo:
        x = next(todo[-1], None)
        if x is None:
            prefixes.pop()
            missed.pop()
            todo.pop()
            continue
        prefix = prefixes[-1]
        left = w - len(prefix) - 1        # slots after x
        rest, used, disjoint = [], 0, 0
        for msk in missed[-1]:
            if msk >> x & 1:
                continue
            above = msk >> x + 1
            if not above:                 # no vertex from x on: the prefix is dead
                todo[-1] = iter(())
                break
            if not above & used:
                used |= above
                disjoint += 1
                if disjoint > left:
                    break
            rest.append(msk)
        else:
            if not rest:
                return prefix + tuple(range(x, x + left + 1))
            prefixes.append(prefix + (x,))
            missed.append(rest)
            todo.append(iter(range(x + 1, n - left + 1)))
    return None


class VectorReport(Record):
    # verdict: proven / supported / indeterminate (truncated enumeration)
    __slots__ = _fields = ("vector", "robust", "verdict", "witness", "disjoint_copies")

    def __init__(self, vector: tuple, robust: bool, verdict: str, witness: tuple = None,
                 disjoint_copies: int = 0):
        self.vector = vector
        self.robust = robust
        self.verdict = verdict
        self.witness = witness
        self.disjoint_copies = disjoint_copies


class RobustReport(Record):
    # vectors: vector -> VectorReport
    __slots__ = _fields = ("w_size", "vectors", "enumeration_truncated")

    def __init__(self, w_size: int, vectors: dict, enumeration_truncated: bool):
        self.w_size = w_size
        self.vectors = vectors
        self.enumeration_truncated = enumeration_truncated

    def robust_vectors(self) -> list:
        return sorted(v for v, rep in self.vectors.items() if rep.robust)


def robust_vectors(g: Graph, f: IncompatibilitySystem, pattern: Graph,
                   p: VertexPartition, beta, samples: int = 100, seed: int = 0,
                   budget: int = solver.DEFAULT_BUDGET) -> RobustReport:
    """Which index vectors survive every deletion of floor(beta*n) vertices?

    Candidate vectors are those realized by some compatible copy.  A
    vector with more than floor(beta*n) pairwise disjoint realizing
    copies is PROVEN robust outright (no W can hit them all).  Otherwise,
    when the W-space fits the cap, ``_first_hitting_set`` walks it in
    ``combinations`` order, pruning the prefixes that no completion can
    extend to a W meeting every copy, and finds the first such W (or
    proves there is none); past the cap W is sampled.  The verdict label
    records which.  A W that hits every copy found proves the vector not
    robust only when the enumeration was complete; after a truncated one
    the vector is INDETERMINATE, without a witness.
    Testing |W| = floor(beta*n) exactly covers all smaller W too
    (supersets only make deletion harder).
    """
    beta = rational(beta, "beta")
    if not 0 <= beta <= 1:   # |W| > n would leave no W to check: a vacuous proof
        raise ValidationError(f"beta must lie in [0, 1], got {beta}")
    if p.n != g.n:
        raise ValidationError(f"the partition covers {p.n} vertices, the graph has {g.n}")
    w = math.floor(beta * g.n)
    enum = solver.enumerate_compatible_copies(pattern, g, f, budget=budget)
    by_vector = {}
    for msk in enum.masks:
        by_vector.setdefault(mask_index_vector(msk, p), []).append(msk)

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

        if population <= DEFAULT_EXHAUSTIVE_CAP:
            killer = _first_hitting_set(masks, g.n, w)
            verdict = PROVEN
        else:
            def survives(w_set):
                w_mask = mask_of(w_set)
                return not all(msk & w_mask for msk in masks)

            verdict, _, killer = _for_every(
                False, None, lambda: tuple(sorted(rng.sample(range(g.n), w))),
                samples, survives)
        if killer is None:
            reports[vec] = VectorReport(vec, True, verdict)
        elif enum.truncated:    # a copy the enumeration did not reach may miss the killer
            reports[vec] = VectorReport(vec, False, INDETERMINATE)
        else:
            reports[vec] = VectorReport(vec, False, PROVEN, witness=killer)
    return RobustReport(w, reports, enum.truncated)


class AbsorbingSetReport(Record):
    # verdict: proven / supported / refuted / indeterminate
    # witness: a failing residual R
    __slots__ = _fields = ("verdict", "checked", "witness")

    def __init__(self, verdict: str, checked: int, witness: tuple = None):
        self.verdict = verdict
        self.checked = checked
        self.witness = witness


def verify_absorbing_set(g: Graph, f: IncompatibilitySystem, pattern: Graph,
                         a_set, xi, samples: int = 100, seed: int = 0,
                         budget: int = solver.DEFAULT_BUDGET) -> AbsorbingSetReport:
    """Check the absorbing-set property of A by definition.

    Every residual R outside A with |R| <= xi*n and |A u R| divisible by
    h must leave G[A u R] with a compatible factor.  Exhaustive over all
    admissible R when the count fits the cap, else sampled per size.

    The exhaustive check enumerates A and the vertices its R can use
    (the host, when some R is non-empty) once, at the first R.  Each R's
    search reads that enumeration's rows through the mask of the copies
    inside A u R (``CopyEnumeration.live``, over a row index built once),
    with ``budget`` less the enumeration, so each check spends at most
    ``budget``; a budget under which every R's own search decides can then
    end INDETERMINATE, as does a cut enumeration.  A sampled check enumerates each sample's
    A u R, since a hundred small samples can cover far less than the host.
    """
    inside = set(a_set)
    a_set = sorted(inside)
    _check_inputs(g, pattern, a_set)
    xi = rational(xi, "xi")
    if xi < 0:
        raise ValidationError(f"xi must be >= 0, got {xi}")
    h = pattern.n
    outside = [v for v in range(g.n) if v not in inside]
    r_cap = min(math.floor(xi * g.n), len(outside))   # R lies outside A
    sizes = [s for s in range(0, r_cap + 1) if (len(a_set) + s) % h == 0]
    population = sum(math.comb(len(outside), s) for s in sizes)
    rng = random.Random(seed)

    def draw():
        s = sizes[rng.randrange(len(sizes))]
        return tuple(sorted(rng.sample(outside, s)))

    exhaustive = population <= DEFAULT_EXHAUSTIVE_CAP
    shared = None

    def absorbed(r_set):
        nonlocal shared
        left = budget
        if exhaustive:
            if shared is None:
                pool = mask_of(a_set) | (mask_of(outside) if sizes[-1] else 0)
                shared = solver.enumerate_compatible_copies(pattern, g, f, budget=budget,
                                                            pool=pool)
            if shared.truncated:
                return None
            left -= shared.expansions
        status = solver.find_compatible_factor(pattern, g, f, budget=left,
                                               pool=mask_of(a_set + list(r_set)),
                                               copies=shared).status
        return None if status == solver.INDETERMINATE else status == solver.FOUND

    verdict, checked, witness = _for_every(
        exhaustive,
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
    copy vertices pair up block-by-block: x_1 the least of fam_p in block
    i, y_1 the least of fam_q in block j, the rest in order within common
    blocks.  Respecting
    that pairing, connectors S_0 (x, x_1), S_1 (y, y_1) and S_l (x_l,
    y_l) are found by find_connector with the already-used vertex set as
    the forbidden W, and their union with the family vertices is the
    connector, with t' = t + C + t*h*C.

    Diagnostics name the failing piece; a verification failure after all
    pieces were found is a ConsistencyError.
    """
    _check_inputs(g, pattern, (x, y))
    if p.n != g.n:
        raise ValidationError(f"the partition covers {p.n} vertices, the graph has {g.n}")
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
        return conn

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

    # the balance leaves vp a vertex in block i, vq one in block j, and
    # equally many of the rest in every block; vp and vq are sorted, so a
    # stable sort by block lines the rest up by (block, vertex)
    x_1 = min(vert for vert in vp if p.block_of(vert) == i_blk)
    y_1 = min(vert for vert in vq if p.block_of(vert) == j_blk)
    rest = zip(sorted((vert for vert in vp if vert != x_1), key=p.block_of),
               sorted((vert for vert in vq if vert != y_1), key=p.block_of))

    connectors = []
    for a, b in [(x, x_1), (y, y_1)] + sorted(rest):
        forbidden = set(used) - {a, b}
        conn = connect(a, b, forbidden)
        if conn is None:
            raise ValidationError(f"no connector found for ({a}, {b}) avoiding the build")
        connectors.append(conn)
        used |= set(conn.s)

    s_hat = sorted((set(vp) | set(vq) | {v for c in connectors for v in c.s}))
    # |S_hat| <= 2hC + (hC + 1)(ht - 1) = h*t' - 1, so the law holds by construction
    t_new = t + c_mass + t * h * c_mass
    _reverified(verify_connector(g, f, pattern, s_hat, x, y, t_new, budget=budget),
                "merging", "merged connector")
    return Connector(x, y, tuple(s_hat), t_new)
