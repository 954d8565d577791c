"""Exact enumeration of compatible copies, factor decision, tilings.

Copies are counted as subgraphs: two embeddings with the same image
vertex set and the same image edge set are one copy, matching how the
counting arguments treat them.  Enumeration is backtracking over an
adjacency-pruned, compatibility-pruned search tree; the factor decision
is exact-cover search (rows = compatible copies, columns = vertices)
branching on the uncovered vertex with the fewest admissible copies.

Results are tri-state where search can be cut off: FOUND / NONE /
INDETERMINATE.  NONE always means the search space was exhausted; budget
exhaustion is never silently reported as absence.

A tiling is a set of vertex-disjoint copies, each individually
compatible.  Edges of distinct copies never share a vertex, so the union
of compatible copies is automatically a compatible subgraph; no
cross-copy check is needed or performed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import BudgetExceeded, ValidationError
from .graphs import Graph, MultipartiteSpec, complete_multipartite
from .incompat import IncompatibilitySystem, edge_key
from .util import bits, mask_of

FOUND = "found"
NONE = "none"
INDETERMINATE = "indeterminate"

DEFAULT_BUDGET = 5_000_000


@dataclass(frozen=True)
class Embedding:
    """Injective pattern-to-host map with its image subgraph."""

    phi: tuple            # phi[i] = host vertex of pattern vertex i
    vertices: tuple       # sorted image vertices
    edges: tuple          # sorted image edges (u, v) with u < v

    @classmethod
    def from_phi(cls, pattern: Graph, phi) -> "Embedding":
        return _Plan(pattern, list(range(pattern.n))).copy(phi)

    @property
    def key(self) -> tuple:
        return (self.vertices, self.edges)

    @property
    def mask(self) -> int:
        return mask_of(self.vertices)


@dataclass(frozen=True)
class Tiling:
    """Vertex-disjoint copies; covered() is the union of their images."""

    embeddings: tuple

    def covered(self) -> int:
        m = 0
        for e in self.embeddings:
            m |= e.mask
        return m

    def covered_count(self) -> int:
        return self.covered().bit_count()

    def uncovered(self, g: Graph) -> list:
        return list(bits(((1 << g.n) - 1) & ~self.covered()))

    def __len__(self):
        return len(self.embeddings)


@dataclass
class CopyEnumeration:
    copies: list
    truncated: bool
    expansions: int

    def __iter__(self):
        return iter(self.copies)

    def __len__(self):
        return len(self.copies)


@dataclass
class FactorResult:
    status: str                      # found / none / indeterminate
    tiling: object = None            # Tiling when found
    reason: str = ""                 # divisibility / exhausted / budget
    expansions: int = 0
    copies_considered: int = 0


@dataclass
class MaxTilingResult:
    tiling: Tiling
    optimal: bool
    expansions: int


def _pattern_order(h: Graph) -> list:
    """Static assignment order: BFS per component from a max-degree root.

    Keeps every prefix as connected as the pattern allows, so candidate
    sets stay small (each new vertex is adjacency-constrained by at least
    one already-placed neighbor whenever the component permits).
    """
    order = []
    placed = 0
    while len(order) < h.n:
        remaining = [v for v in range(h.n) if not placed >> v & 1]
        root = max(remaining, key=lambda v: (h.degree(v), -v))
        queue = [root]
        placed |= 1 << root
        while queue:
            v = queue.pop(0)
            order.append(v)
            nxt = [u for u in h.neighbors(v) if not placed >> u & 1]
            nxt.sort(key=lambda u: (-h.degree(u), u))
            for u in nxt:
                placed |= 1 << u
                queue.append(u)
    return order


def _is_complete(h: Graph) -> bool:
    return h.m == h.n * (h.n - 1) // 2


class _Plan:
    """A pattern placed one vertex per step in ``order``.

    ``preds[i]`` lists the earlier steps whose pattern vertices are
    adjacent to step i's; every pattern edge appears once as (i, p) in
    ``edges``, so copies are built without re-reading the pattern.
    """

    def __init__(self, pattern: Graph, order: list):
        pos = [0] * pattern.n
        for i, v in enumerate(order):
            pos[v] = i
        self.pos = pos
        self.preds = [[pos[u] for u in pattern.neighbors(v) if pos[u] < i]
                      for i, v in enumerate(order)]
        self.edges = [(i, p) for i, ps in enumerate(self.preds) for p in ps]

    def copy(self, img) -> Embedding:
        """The copy whose step i sits on host vertex img[i]."""
        phi = tuple(img[i] for i in self.pos)
        edges = sorted(edge_key(img[i], img[p]) for i, p in self.edges)
        return Embedding(phi, tuple(sorted(phi)), tuple(edges))


class _Work:
    """Expansions spent against a budget; ``spend`` raises BudgetExceeded past it."""

    __slots__ = ("spent", "budget")

    def __init__(self, budget, spent: int = 0):
        self.budget = budget
        self.spent = spent

    def spend(self):
        self.spent += 1
        if self.spent > self.budget:
            raise BudgetExceeded()


def _embed(g: Graph, f: IncompatibilitySystem, plan: _Plan, allowed: list,
           ascending: list, work: _Work, rank: list = None):
    """Yield the host image of every compatible placement of ``plan``.

    Step i puts its pattern vertex on an unused host vertex of
    ``allowed[i]`` adjacent to the images of ``plan.preds[i]`` and, when
    ``ascending[i]``, above the previous step's image.  Candidates are
    tried by ascending id, or by ascending ``rank[v]``; each one tried
    spends one unit of ``work`` before its compatibility test.  The
    yielded list is reused; copy it before resuming.

    A candidate c is refused when a new edge c-x is incompatible at x
    with an image edge x-y (c in inc[x][y]), or two new edges c-x, c-y
    are incompatible at c (y in inc[c][x]).  Two edges can only clash at
    a shared vertex, so this covers every new pair.
    """
    k = len(plan.preds)
    adj, inc, preds = g.adj, f.inc, plan.preds
    img = [0] * k
    near = [0] * k       # image neighbours of img[i]
    new_near = [0] * k   # images of preds[i]: step i's neighbours once placed
    blocked = [0] * k    # candidates refused by an image edge at a predecessor
    todo = [None] * k    # untried candidates per step

    def open_step(i: int, used: int):
        cands = allowed[i] & ~used
        nn = block = 0
        for p in preds[i]:
            x = img[p]
            cands &= adj[x]
            nn |= 1 << x
            row = inc.get(x)
            if row and near[p]:
                for y in bits(near[p]):
                    block |= row.get(y, 0)
        if ascending[i]:
            cands &= -1 << (img[i - 1] + 1)
        new_near[i], blocked[i] = nn, block
        todo[i] = bits(cands) if rank is None else \
            iter(sorted(bits(cands), key=rank.__getitem__))

    i = used = 0
    open_step(0, 0)
    while i >= 0:
        c = next(todo[i], None)
        if c is None:
            i -= 1
            if i >= 0:
                used &= ~(1 << img[i])
                for p in preds[i]:
                    near[p] &= ~(1 << img[i])
            continue
        work.spend()
        if blocked[i] >> c & 1:
            continue
        nn = new_near[i]
        row = inc.get(c)
        if row and nn & (nn - 1) and any(row.get(x, 0) & nn for x in bits(nn)):
            continue
        img[i] = c
        if i + 1 == k:
            yield img
            continue
        used |= 1 << c
        near[i] = nn
        for p in preds[i]:
            near[p] |= 1 << c
        i += 1
        open_step(i, used)


def enumerate_compatible_copies(pattern: Graph, g: Graph,
                                f: IncompatibilitySystem = None,
                                budget: int = DEFAULT_BUDGET,
                                pool: int = None) -> CopyEnumeration:
    """Every compatible copy of ``pattern`` in ``g``, one per image subgraph.

    ``pool`` restricts image vertices to a bitmask.  Copies come back in
    canonical order (sorted image vertices, then sorted image edges).  A
    blown budget yields truncated=True; the copies found so far are still
    valid.
    """
    if f is None:
        f = IncompatibilitySystem.empty(g)
    if f.graph is not g and f.graph != g:
        raise ValidationError("incompatibility system is bound to a different graph")
    if pattern.n == 0:
        raise ValidationError("empty pattern")
    pool = _full_pool(g, pool)
    plan = _Plan(pattern, _pattern_order(pattern))
    # complete patterns: ascending images kill the automorphisms
    clique = _is_complete(pattern)
    ascending = [clique and i > 0 for i in range(pattern.n)]
    work = _Work(budget)
    seen = set()
    out = []
    truncated = False
    try:
        for img in _embed(g, f, plan, [pool] * pattern.n, ascending, work):
            emb = plan.copy(img)
            if clique:
                out.append(emb)
            elif emb.key not in seen:
                seen.add(emb.key)
                out.append(emb)
    except BudgetExceeded:
        truncated = True
    out.sort(key=lambda e: e.key)
    return CopyEnumeration(out, truncated, work.spent)


def enumerate_transversal_copies(spec: MultipartiteSpec, g: Graph,
                                 f: IncompatibilitySystem = None,
                                 parts: list = None,
                                 budget: int = DEFAULT_BUDGET) -> CopyEnumeration:
    """Compatible copies of K_r(h_1..h_r) inside the r-partite restriction
    of g to ``parts``, with exactly h_i image vertices in parts[i].

    Only cross-part edges exist in the restriction, which forces the
    pattern classes to align with the parts (a class split over two parts
    would leave another class with nowhere adjacent to sit), so choosing
    an ascending h_i-subset per part enumerates every copy exactly once.
    """
    if f is None:
        f = IncompatibilitySystem.empty(g)
    if parts is None or len(parts) != spec.r:
        raise ValidationError("need one vertex set per pattern part")
    parts = [sorted(set(p)) for p in parts]
    masks = [mask_of(p) for p in parts]
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if masks[i] & masks[j]:
                raise ValidationError("parts must be pairwise disjoint")
    for i, (p, h_i) in enumerate(zip(parts, spec.sizes)):
        if len(p) < h_i:
            return CopyEnumeration([], False, 0)

    # pattern vertices are numbered part by part; place them in that order
    pattern, _ = complete_multipartite(spec)
    plan = _Plan(pattern, list(range(pattern.n)))
    allowed = [m for m, h_i in zip(masks, spec.sizes) for _ in range(h_i)]
    ascending = [j > 0 for h_i in spec.sizes for j in range(h_i)]
    work = _Work(budget)
    out = []
    truncated = False
    try:
        for img in _embed(g, f, plan, allowed, ascending, work):
            out.append(plan.copy(img))
    except BudgetExceeded:
        truncated = True
    out.sort(key=lambda e: e.key)
    return CopyEnumeration(out, truncated, work.spent)


def verify_embedding(g: Graph, f: IncompatibilitySystem, pattern: Graph,
                     emb: Embedding) -> bool:
    """Injective, adjacency-preserving, image compatible."""
    if len(set(emb.phi)) != pattern.n:
        return False
    if any(not 0 <= v < g.n for v in emb.phi):
        return False
    for u, v in pattern.edges():
        if not g.has_edge(emb.phi[u], emb.phi[v]):
            return False
    ok, _ = f.is_compatible_subgraph(emb.edges)
    return ok


def verify_tiling(g: Graph, f: IncompatibilitySystem, pattern: Graph,
                  tiling: Tiling, require_cover: bool = False) -> bool:
    used = 0
    for emb in tiling.embeddings:
        if not verify_embedding(g, f, pattern, emb):
            return False
        if used & emb.mask:
            return False
        used |= emb.mask
    if require_cover and used != (1 << g.n) - 1:
        return False
    return True


def _full_pool(g: Graph, pool) -> int:
    """``pool`` as a vertex mask; all of g when None."""
    full = (1 << g.n) - 1
    if pool is None:
        return full
    if pool & ~full:
        raise ValidationError("pool names vertices outside the graph")
    return pool


def _rows_by_vertex(rows: list, pool: int) -> tuple:
    """Row masks, and for each pool vertex the indices of the rows through it."""
    row_masks = [e.mask for e in rows]
    by_vertex = {v: [] for v in bits(pool)}
    for idx, mask in enumerate(row_masks):
        for v in bits(mask):
            by_vertex[v].append(idx)
    return row_masks, by_vertex


def _exact_cover(full: int, row_masks: list, by_vertex: dict, work: _Work):
    """Row indices tiling ``full`` exactly, or None when none exists.

    Depth-first with an explicit stack; each node branches on its
    uncovered vertex with the fewest admissible rows (the lowest such
    vertex on ties), and each branch taken spends one unit of ``work``.
    """
    spent, budget = work.spent, work.budget
    chosen = []
    stack = []    # (covered, untried rows) per open node
    covered = 0   # the node to open
    while True:
        best = None
        for v in bits(full & ~covered):
            opts = [r for r in by_vertex[v] if not row_masks[r] & covered]
            if best is None or len(opts) < len(best):
                best = opts
                if not opts:
                    break
        stack.append((covered, iter(best)))
        while True:  # the next branch of the deepest open node
            covered, untried = stack[-1]
            r = next(untried, None)
            if r is not None:
                break
            stack.pop()
            if not stack:
                work.spent = spent
                return None
            chosen.pop()
        spent += 1
        if spent > budget:
            work.spent = spent
            raise BudgetExceeded()
        chosen.append(r)
        covered |= row_masks[r]
        if covered == full:
            work.spent = spent
            return chosen


def find_compatible_factor(pattern: Graph, g: Graph,
                           f: IncompatibilitySystem = None,
                           budget: int = DEFAULT_BUDGET,
                           pool: int = None) -> FactorResult:
    """Exact compatible-factor decision via exact-cover search.

    ``pool`` (a vertex bitmask, all of g by default) asks for a factor of
    the induced subgraph g[pool] under f restricted to it; the tiling
    keeps host vertex ids.  NONE carries reason "divisibility" (|pool|
    not divisible by |H|) or "exhausted" (complete search).
    INDETERMINATE only ever means the budget ran out, either during copy
    enumeration or during the cover search.
    """
    if f is None:
        f = IncompatibilitySystem.empty(g)
    if pattern.n == 0:
        raise ValidationError("empty pattern")
    full = _full_pool(g, pool)
    if full.bit_count() % pattern.n != 0:
        return FactorResult(NONE, reason="divisibility")
    if full == 0:
        return FactorResult(FOUND, tiling=Tiling(()))

    enum = enumerate_compatible_copies(pattern, g, f, budget=budget, pool=full)
    rows = enum.copies
    row_masks, by_vertex = _rows_by_vertex(rows, full)
    work = _Work(budget, enum.expansions)
    try:
        chosen = _exact_cover(full, row_masks, by_vertex, work)
    except BudgetExceeded:
        return FactorResult(INDETERMINATE, reason="budget",
                            expansions=work.spent, copies_considered=len(rows))
    if chosen is not None:
        tiling = Tiling(tuple(rows[r] for r in chosen))
        if not verify_tiling(g, f, pattern, tiling) or tiling.covered() != full:
            raise AssertionError("internal: factor failed re-verification")
        return FactorResult(FOUND, tiling=tiling,
                            expansions=work.spent, copies_considered=len(rows))
    if enum.truncated:
        # absence over a truncated row set proves nothing
        return FactorResult(INDETERMINATE, reason="budget",
                            expansions=work.spent, copies_considered=len(rows))
    return FactorResult(NONE, reason="exhausted",
                        expansions=work.spent, copies_considered=len(rows))


def greedy_almost_tiling(pattern: Graph, g: Graph,
                         f: IncompatibilitySystem = None,
                         seed: int = 0) -> Tiling:
    """Maximal-by-inclusion tiling: repeatedly take the first compatible
    copy found through the next anchor in a seed-shuffled vertex order.

    Host candidates are tried in that order too, and the anchor is tried
    at every pattern position since the pattern's orbit structure is
    unknown.  An anchor with no copy inside the current uncovered set can
    never be covered later (the uncovered set only shrinks), so it is
    marked dead; when every vertex is covered or dead the tiling is
    maximal.
    """
    if f is None:
        f = IncompatibilitySystem.empty(g)
    rng = random.Random(seed)
    priority = list(range(g.n))
    rng.shuffle(priority)
    rank = [0] * g.n
    for i, v in enumerate(priority):
        rank[v] = i
    plan = _Plan(pattern, _pattern_order(pattern))
    ascending = [False] * pattern.n
    work = _Work(math.inf)
    pool = (1 << g.n) - 1
    embs = []
    for anchor in priority:
        if not pool >> anchor & 1:
            continue
        img = None
        for step in range(pattern.n):
            allowed = [pool & ~(1 << anchor)] * pattern.n
            allowed[step] = 1 << anchor
            img = next(_embed(g, f, plan, allowed, ascending, work, rank), None)
            if img is not None:
                break
        if img is None:
            pool &= ~(1 << anchor)  # dead: no copy through it can appear later
            continue
        emb = plan.copy(img)
        embs.append(emb)
        pool &= ~emb.mask
    return Tiling(tuple(embs))


def max_compatible_tiling(pattern: Graph, g: Graph,
                          f: IncompatibilitySystem = None,
                          budget: int = DEFAULT_BUDGET) -> MaxTilingResult:
    """Maximum-cardinality compatible tiling by branch and bound.

    Branches on the smallest undecided vertex: either some copy covers it
    or it stays uncovered.  The bound current + floor(free/h) prunes; the
    optimality flag is True only when the search completed in budget.
    The search keeps an explicit stack, one node per decided vertex.
    """
    if f is None:
        f = IncompatibilitySystem.empty(g)
    enum = enumerate_compatible_copies(pattern, g, f, budget=budget)
    rows = enum.copies
    row_masks, by_vertex = _rows_by_vertex(rows, (1 << g.n) - 1)
    n, h = g.n, pattern.n
    spent = enum.expansions
    complete = not enum.truncated
    best, best_len = None, 0
    # An open node is (v, covered, skipped, copies so far, their rows as a
    # (row, parent chain) chain, untried rows through v).  Its last branch,
    # "v stays uncovered", replaces the node instead of stacking on it.
    stack = []
    v, covered, skipped, count, chain = 0, 0, 0, 0, None  # the node to open
    while True:
        taken = covered | skipped
        if count + (n - taken.bit_count()) // h > best_len:
            while v < n and taken >> v & 1:
                v += 1
            if v == n:
                best, best_len = chain, count
            else:
                stack.append((v, covered, skipped, count, chain, iter(by_vertex[v])))
        if not stack:
            break
        v, covered, skipped, count, chain, untried = stack[-1]
        taken = covered | skipped
        for r in untried:
            if not row_masks[r] & taken:
                break
        else:
            stack.pop()
            skipped |= 1 << v
            v += 1
            continue
        spent += 1
        if spent > budget:
            complete = False
            break
        covered |= row_masks[r]
        count += 1
        chain = (r, chain)
        v += 1
    picked = []
    while best is not None:
        r, best = best
        picked.append(rows[r])
    return MaxTilingResult(Tiling(tuple(reversed(picked))), complete, spent)


def good_pair(g: Graph, f: IncompatibilitySystem, v: int, emb: Embedding) -> bool:
    """Can ``v`` extend the copy: adjacent to the whole image, its edges
    mutually compatible at v, and each new edge compatible with every
    image edge at the shared endpoint.

    The last clause goes beyond the bare good-pair definition; it is the
    closure needed for the extension to yield a compatible larger copy.
    """
    if v in emb.vertices:
        raise ValidationError("v must lie outside the image")
    ok, _ = f.is_compatible_subgraph(emb.edges)
    if not ok:
        return False
    for u in emb.vertices:
        if not g.has_edge(v, u):
            return False
    new_edges = [edge_key(v, u) for u in emb.vertices]
    for i, e in enumerate(new_edges):
        for e2 in new_edges[i + 1:]:
            if not f.are_compatible(e, e2):
                return False
    at = {}
    for e in emb.edges:
        at.setdefault(e[0], []).append(e)
        at.setdefault(e[1], []).append(e)
    for u in emb.vertices:
        ve = edge_key(v, u)
        for old in at.get(u, ()):
            if not f.are_compatible(ve, old):
                return False
    return True
