"""Exact enumeration of compatible copies, factor decision, tilings.

Copies are counted as subgraphs: two embeddings with the same image
vertex set and the same image edge set are one copy, matching how the
counting arguments treat them.  Enumeration is backtracking over an
adjacency-pruned, compatibility-pruned search tree that finds each copy
once: symmetry-breaking conditions (Grochow-Kellis, RECOMB 2007) admit
exactly one of the |Aut(H)| embeddings of every copy.  One packing search
(rows = compatible copies, columns = vertices) answers both exact
questions: the factor decision asks it to leave no vertex uncovered, the
maximum tiling lets it leave any number and keeps the largest packing
found.  It branches on the uncovered vertex with the fewest admissible
copies and keeps those counts incrementally (Knuth's Algorithm X, in
bitmask form): a bitmask of live rows per node, per-count buckets of
vertices, and a trail of changed counts for backtracking, so a node costs
work in the rows and vertices its choice touches rather than in the whole
instance.

Results are tri-state where search can be cut off: FOUND / NONE /
INDETERMINATE.  NONE comes with a proof: an exhausted search, or a lattice
certificate.  The second rests on index vectors: over any partition of
the vertices, the copies of a factor have index vectors summing to the
part-size vector, so a part-size vector outside the lattice their
vectors generate rules every factor out (the lattice obstruction of
Keevash and Mycroft, Mem. AMS 2015, and Han, Trans. AMS 2017).  Budget
exhaustion is never silently reported as absence.

A tiling is a set of vertex-disjoint copies, each individually
compatible.  Edges of distinct copies never share a vertex, so the union
of compatible copies is automatically a compatible subgraph; no
cross-copy check is needed or performed.
"""

from __future__ import annotations

import random
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple

from .errors import BudgetExceeded, ConsistencyError, ValidationError
from .graphs import Graph, MultipartiteSpec, complement_components, complete_multipartite
from .incompat import IncompatibilitySystem
from .lattice import obstruction
from .util import FrozenRecord, Record, bits, mask_of

FOUND = "found"
NONE = "none"
INDETERMINATE = "indeterminate"

DEFAULT_BUDGET = 5_000_000

# search plans are cached per pattern: patterns are few and small, and
# deriving a plan's symmetry conditions costs more than a tiny search
PLAN_CACHE_SIZE = 256

_BIT = (1).__lshift__     # vertex -> its bit; the images of a copy are distinct


class Embedding(NamedTuple):
    """Injective pattern-to-host map with its image subgraph.

    A named tuple, so the fields are immutable and a copy costs one tuple
    to build.  Unlike a Record, an Embedding compares equal to the plain
    tuple (phi, vertices, edges) and unpacks like one.
    """

    phi: tuple            # phi[i] = host vertex of pattern vertex i
    vertices: tuple       # sorted image vertices
    edges: tuple          # sorted image edges (u, v) with u < v

    @classmethod
    def from_phi(cls, pattern: Graph, phi) -> "Embedding":
        return _Plan(pattern, list(range(pattern.n))).copy(phi)

    @property
    def mask(self) -> int:
        return mask_of(self.vertices)


class Tiling(FrozenRecord):
    """Vertex-disjoint copies; covered() is the union of their images."""

    __slots__ = _fields = ("embeddings",)

    def __init__(self, embeddings: tuple):
        object.__setattr__(self, "embeddings", embeddings)

    def covered(self) -> int:
        m = 0
        for e in self.embeddings:
            m |= e.mask
        return m

    def covered_count(self) -> int:
        return self.covered().bit_count()

    def __len__(self):
        return len(self.embeddings)


class CopyEnumeration(Record):
    """Copies in canonical order: sorted image vertices, then sorted image
    edges.  ``pool`` is the vertex mask enumerated: when not truncated,
    every compatible copy inside it is listed.  A transversal enumeration
    lists only copies across its parts, and its pool is 0.  ``pattern``,
    ``graph`` and ``system`` are the objects the enumeration was asked
    for (``system`` None for the empty one).

    A copy travels as its image, the host vertex of each plan step
    (``images``), its vertex mask (``masks``) and its index, its bit in
    the masks of live rows that restrict a search to a vertex subset
    (``live``); the factor decision, the maximum tiling and the lattice
    test read only those.  ``copies``, the Embeddings, is built at its
    first read, and ``embedding(i)`` builds one copy, e.g. a row of a
    tiling.  ``masks``, ``copies`` and the row index are plain lazily
    filled slots, not ``functools.cached_property``: on Python 3.11 its
    first read takes a lock, 1.6 us, over 1% of a tiny factor decision.
    Equality reads the images, ``truncated``, ``expansions`` and ``pool``;
    ``repr`` shows the last three.
    """

    __slots__ = ("images", "truncated", "expansions", "pool", "pattern", "graph", "system",
                 "_plan", "_masks", "_copies", "_index")
    _fields = ("images", "truncated", "expansions", "pool")
    _unshown = ("images",)

    def __init__(self, images: list, truncated: bool, expansions: int, pool: int,
                 pattern: Graph, graph: Graph, system: IncompatibilitySystem, _plan: "_Plan"):
        self.images = images
        self.truncated = truncated
        self.expansions = expansions
        self.pool = pool
        self.pattern = pattern
        self.graph = graph
        self.system = system
        self._plan = _plan
        self._masks = None
        self._copies = None
        self._index = None

    @property
    def masks(self) -> list:
        """Each copy's vertex mask, in canonical order."""
        if self._masks is None:
            self._masks = [sum(map(_BIT, img)) for img in self.images]
        return self._masks

    @property
    def copies(self) -> list:
        """Every copy as an Embedding, in canonical order."""
        if self._copies is None:
            # an enumeration that never searched has no plan, and no images
            self._copies = [self._plan.copy(img) for img in self.images]
        return self._copies

    def embedding(self, i: int) -> "Embedding":
        """The i-th copy as an Embedding."""
        return self._plan.copy(self.images[i])

    def index(self) -> tuple:
        """(rows_at, reach), built at the first call: ``rows_at[v]`` is the
        bitmask of the indices of the copies through vertex v, ``reach[v]``
        the union of their vertex masks."""
        if self._index is None:
            rows_at = [0] * self.graph.n
            reach = [0] * self.graph.n
            for i, (img, mask) in enumerate(zip(self.images, self.masks)):
                bit = 1 << i
                for v in img:
                    rows_at[v] |= bit
                    reach[v] |= mask
            self._index = rows_at, reach
        return self._index

    def live(self, pool: int) -> int:
        """The bitmask of the indices of the copies inside ``pool``, a
        subset of this pool: all but those through a vertex it drops.
        The whole pool builds no index."""
        every = (1 << len(self.images)) - 1
        if pool == self.pool:
            return every
        rows_at = self.index()[0]
        dead = 0
        for v in bits(self.pool & ~pool):
            dead |= rows_at[v]
        return every & ~dead


class FactorResult(Record):
    # status: found / none / indeterminate; tiling: a Tiling when found
    # reason: divisibility / lattice / exhausted when none, budget when
    # indeterminate
    # expansions: the enumeration's (unless the copies were passed in) plus
    # the cover search's branches; for lattice, those up to its first dead
    # end, at most the budget
    # parts, certificate (lattice): the partition (sorted vertex tuples) and
    # the rational y with y.v an integer for every copy's index vector v
    # over it, y.sizes not
    __slots__ = _fields = ("status", "tiling", "reason", "expansions", "copies_considered",
                           "parts", "certificate")

    def __init__(self, status: str, tiling: object = None, reason: str = "",
                 expansions: int = 0, copies_considered: int = 0, parts: tuple = (),
                 certificate: tuple = None):
        self.status = status
        self.tiling = tiling
        self.reason = reason
        self.expansions = expansions
        self.copies_considered = copies_considered
        self.parts = parts
        self.certificate = certificate


class MaxTilingResult(Record):
    __slots__ = _fields = ("tiling", "optimal", "expansions")

    def __init__(self, tiling: Tiling, optimal: bool, expansions: int):
        self.tiling = tiling
        self.optimal = optimal
        self.expansions = expansions


def _pattern_order(h: Graph) -> list:
    """Static assignment order: BFS per component from a max-degree root.

    Keeps every prefix as connected as the pattern allows, so candidate
    sets stay small (each new vertex is adjacency-constrained by at least
    one already-placed neighbor whenever the component permits).
    """
    order = []    # doubles as the BFS queue: order[head:] is still to visit
    placed = 0
    for root in sorted(range(h.n), key=lambda v: (-h.degree(v), v)):
        if placed >> root & 1:
            continue
        placed |= 1 << root
        order.append(root)
        head = len(order) - 1
        while head < len(order):
            v = order[head]
            head += 1
            nxt = [u for u in h.neighbors(v) if not placed >> u & 1]
            nxt.sort(key=lambda u: (-h.degree(u), u))
            for u in nxt:
                placed |= 1 << u
                order.append(u)
    return order


class _Plan:
    """A pattern placed one vertex per step in ``order``.

    ``preds[i]`` lists the earlier steps whose pattern vertices are
    adjacent to step i's; every pattern edge appears once as (i, p) in
    ``edges``, so copies are built without re-reading the pattern.
    """

    def __init__(self, pattern: Graph, order: list):
        k = pattern.n
        pos = [0] * k
        for i, v in enumerate(order):
            pos[v] = i
        self.pos = pos
        self.preds = [[pos[u] for u in pattern.neighbors(v) if pos[u] < i]
                      for i, v in enumerate(order)]
        self.edges = [(i, p) for i, ps in enumerate(self.preds) for p in ps]
        # phi is img reordered, or img itself in plan order (tuple() of a
        # tuple is that tuple); itemgetter of one index would return the item
        self._phi = tuple if pos == list(range(k)) else itemgetter(*pos)
        self.clique = len(self.edges) == k * (k - 1) // 2

    def copy(self, img) -> Embedding:
        """The copy whose step i sits on host vertex img[i]."""
        phi = self._phi(img)
        vertices = tuple(sorted(phi))
        if vertices == phi:  # one tuple serves both fields, and is kept once
            vertices = phi
        # every pair of a clique's image is an edge, in sorted order already
        edges = tuple(combinations(vertices, 2)) if self.clique else self.image_edges(img)
        # tuple.__new__ skips the named tuple's Python-level __new__
        return tuple.__new__(Embedding, (phi, vertices, edges))

    def image_edges(self, img) -> tuple:
        """The sorted image edges of the copy whose step i sits on img[i]."""
        return tuple(sorted([(img[i], img[p]) if img[i] < img[p] else (img[p], img[i])
                             for i, p in self.edges]))


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
           below: list, work: _Work, rank: list = None):
    """Yield the host image of every compatible placement of ``plan``.

    Step i puts its pattern vertex on an unused host vertex of
    ``allowed[i]`` adjacent to the images of ``plan.preds[i]`` and above
    the images of the earlier steps ``below[i]``.  Candidates are
    tried by ascending id, or by ascending ``rank[v]``; each one tried
    spends one unit of ``work`` before its compatibility test.  The count
    runs in a local and is written back to ``work`` at every yield, at
    exhaustion and at the cut, so a caller that drops the generator after
    a yield has seen all the work spent; a caller that resumes it must
    not spend from ``work`` in between.  The yielded list is reused; copy
    it before resuming.

    A candidate c is refused when a new edge c-x is incompatible at x
    with an image edge x-y (c in inc[x][y]), or two new edges c-x, c-y
    are incompatible at c (y in inc[c][x]).  Two edges can only clash at
    a shared vertex, so this covers every new pair.

    A step's untried candidates are an int mask whose lowest bit is popped
    off inline (``low = m & -m``), as are the predecessor neighbourhoods
    the refusals are read from: a ``bits`` generator per mask costs more
    than the search it drives.  Ranked, they are a list sorted by
    descending rank and popped from its end.  One loop tries the
    candidates of the step at hand, with that step's state in locals: it
    descends past a candidate that passes, saving the state, and restores
    the state of the step before when the candidates run out.  The last
    step's candidates all run in that loop, one yield each, with no trip
    through the step stack per candidate.
    """
    k = len(plan.preds)
    last = k - 1
    adj, inc, preds = g.adj, f.inc, plan.preds
    ranked = rank is not None
    img = [0] * k
    near = [0] * k      # image neighbours of img[i]
    saved = [None] * k  # per placed step: its untried candidates, nn, block, xs

    spent, budget = work.spent, work.budget
    i = used = 0
    while True:
        cands = allowed[i] & ~used  # open step i
        nn = block = 0  # the images of preds[i], and the candidates an image edge refuses
        for p in preds[i]:
            x = img[p]
            cands &= adj[x]
            nn |= 1 << x
            row = inc.get(x)
            if row:
                m = near[p]
                while m:
                    low = m & -m
                    block |= row.get(low.bit_length() - 1, 0)
                    m ^= low
        for j in below[i]:
            cands &= -1 << (img[j] + 1)
        if ranked:
            cands = sorted(bits(cands), key=rank.__getitem__, reverse=True)
        # a clash at c pairs two image neighbours x, y of c; the rows are
        # symmetric, so testing every x but the last meets each pair
        xs = [img[p] for p in preds[i][:-1]]
        while True:  # step i's candidates, and on backtracking an earlier step's
            while cands:
                if ranked:
                    c = cands.pop()
                    low = 1 << c
                else:
                    low = cands & -cands
                    cands ^= low
                    c = low.bit_length() - 1
                spent += 1
                if spent > budget:
                    work.spent = spent
                    raise BudgetExceeded()
                if block & low:
                    continue
                if xs:
                    row = inc.get(c)
                    if row:
                        clash = 0
                        for x in xs:
                            clash = row.get(x, 0) & nn
                            if clash:
                                break
                        if clash:
                            continue
                img[i] = c
                if i == last:
                    work.spent = spent
                    yield img
                    continue
                saved[i] = cands, nn, block, xs
                used |= low
                near[i] = nn
                for p in preds[i]:
                    near[p] |= low
                i += 1
                break  # open the next step
            else:  # step i is spent: back to the one before it
                if not i:
                    work.spent = spent
                    return
                i -= 1
                bit = 1 << img[i]
                used &= ~bit
                for p in preds[i]:
                    near[p] &= ~bit
                cands, nn, block, xs = saved[i]
                continue
            break


def _symmetry_conditions(pattern: Graph, plan: _Plan, order: list, work: _Work) -> tuple:
    """Per step, the earlier steps whose images must lie below its image.

    Walking the steps in plan order, step i's vertex v gets the condition
    img(v) < img(w) for every other w in its orbit under the automorphisms
    that fix the vertices of steps 0..i-1.  Each such w belongs to a later
    step, since the earlier ones are fixed, and a vertex whose orbit is
    trivial adds no condition: this is Grochow and Kellis's rule with
    vertices fixed in plan order.  Of the automorphic images phi o sigma of
    one embedding, exactly one meets every condition (their
    stabiliser-chain argument), so each copy is found once.

    "w is in v's orbit" is settled first by two cheap tests: w needs v's
    degree and v's neighbours among the fixed vertices, and a w with v's
    neighbours (apart from v and w) is reached by swapping the two.  What
    is left is one search for an automorphism, an embedding of the pattern
    into itself with steps 0..i-1 pinned and v sent to w, so the group is
    never enumerated.  Each w tested spends one unit of ``work``, as does
    each candidate of those searches.  Only the transitive reduction of
    the conditions is kept: a clique's rule is one ascending chain.
    """
    k = pattern.n
    adj = pattern.adj
    f = IncompatibilitySystem.empty(pattern)
    unconditioned = [()] * k
    full = (1 << k) - 1
    allowed = [full] * k
    lower = [0] * k    # lower[b]: bitmask of the steps a with img(a) < img(b)
    fixed = 0
    for i, v in enumerate(order):
        near, deg = adj[v] & fixed, adj[v].bit_count()
        for w in bits(full & ~fixed & ~(1 << v)):
            work.spend()
            if adj[w] & fixed != near or adj[w].bit_count() != deg:
                continue
            if adj[v] & ~(1 << w) != adj[w] & ~(1 << v):
                allowed[i] = 1 << w
                if next(_embed(pattern, f, plan, allowed, unconditioned, work), None) is None:
                    continue
            lower[plan.pos[w]] |= 1 << i
        allowed[i] = 1 << v
        fixed |= 1 << v
    reach = [0] * k    # every step transitively below b
    below = []
    for b in range(k):
        implied = 0
        for a in bits(lower[b]):
            reach[b] |= 1 << a | reach[a]
            implied |= reach[a]
        below.append(tuple(bits(lower[b] & ~implied)))
    return tuple(below)


# pattern -> (plan, below, the work deriving below cost), oldest first
_plans = {}


def _search_plan(pattern: Graph, budget):
    """(plan, below) for enumerating ``pattern`` in ``_pattern_order``,
    each copy once, or None when deriving ``below`` costs more than
    ``budget``.

    Plans are cached with their cost, so the answer for a given budget
    does not depend on which calls came before; a derivation the budget
    cuts short is not cached.
    """
    entry = _plans.get(pattern)
    if entry is None:
        order = _pattern_order(pattern)
        plan = _Plan(pattern, order)
        work = _Work(budget)
        try:
            below = _symmetry_conditions(pattern, plan, order, work)
        except BudgetExceeded:
            return None
        if len(_plans) >= PLAN_CACHE_SIZE:
            del _plans[next(iter(_plans))]
        entry = _plans[pattern] = (plan, below, work.spent)
    plan, below, cost = entry
    return None if cost > budget else (plan, below)


def _system_on(g: Graph, f: IncompatibilitySystem, pattern: Graph) -> IncompatibilitySystem:
    """``f``, or the empty system on g when None, for a non-empty ``pattern``."""
    if f is None:
        f = IncompatibilitySystem.empty(g)
    elif f.graph is not g and f.graph != g:
        raise ValidationError("incompatibility system is bound to a different graph")
    if pattern.n == 0:
        raise ValidationError("empty pattern")
    return f


def _copies(g: Graph, f: IncompatibilitySystem, plan: _Plan, below, allowed: list,
            budget: int, pool: int, asked: tuple) -> CopyEnumeration:
    """The copies ``_embed`` finds for ``plan`` under ``below``, in
    canonical order; truncated when the budget runs out.  ``asked`` is
    the (pattern, graph, system) the caller was given.

    Each copy is kept as its image tuple; no Embedding is built.  When
    every step's image must lie above the previous step's
    (the rule of a clique or an edgeless pattern) and all steps draw from
    one pool, each image ascends and the embedder, trying candidates by
    ascending id, yields the images in lexicographic order: canonical
    order already.  Otherwise the order comes from the images: for vertex
    sets of one size, the lexicographic order of the sorted vertex tuples
    is the descending order of the bit-reversed masks (vertex v as bit
    n-1-v), since the lowest vertex where two sets differ decides both.
    Copies on one vertex set, which only a non-clique pattern has, keep
    the tie order of their sorted edges, compared as sorted integer codes
    x*n + y (x < y), which order as the edge tuples do and build none.
    """
    work = _Work(budget)
    images = []
    truncated = False
    try:
        # the embedder reuses its list, and map copies each image before resuming it
        images.extend(map(tuple, _embed(g, f, plan, allowed, below, work)))
    except BudgetExceeded:
        truncated = True
    if len(images) > 1 and (any(b != (i - 1,) for i, b in enumerate(below) if i)
                            or allowed.count(allowed[0]) < len(allowed)):
        reversed_bit = (1 << g.n >> 1).__rshift__
        keys = [sum(map(reversed_bit, img)) for img in images]
        order = sorted(range(len(images)), key=keys.__getitem__, reverse=True)
        images = [images[i] for i in order]
        if not plan.clique:
            keys = [keys[i] for i in order]
            n, edges = g.n, plan.edges

            def edge_codes(img):
                # edge (x, y), x < y, as x*n + y: sorted codes order as sorted edge tuples
                return sorted([img[i] * n + img[p] if img[i] < img[p] else img[p] * n + img[i]
                               for i, p in edges])

            start = 0
            for end in range(1, len(images) + 1):
                if end == len(images) or keys[end] != keys[start]:
                    if end - start > 1:
                        images[start:end] = sorted(images[start:end], key=edge_codes)
                    start = end
    return CopyEnumeration(images, truncated, work.spent, pool, *asked, plan)


def enumerate_compatible_copies(pattern: Graph, g: Graph,
                                f: IncompatibilitySystem = None,
                                budget: int = DEFAULT_BUDGET,
                                pool: int = None) -> CopyEnumeration:
    """Every compatible copy of ``pattern`` in ``g``, one per image subgraph.

    The search finds each copy once (see ``_symmetry_conditions``).
    ``pool`` restricts image vertices to a bitmask.  Copies come back in
    canonical order (sorted image vertices, then sorted image edges).  A
    blown budget yields truncated=True; the copies found so far are still
    valid.  The budget also bounds deriving the pattern's symmetry
    conditions, which is not counted in ``expansions``: when that alone
    costs more than ``budget`` no search starts, and the result is
    truncated with budget + 1 expansions, as any search cut by its budget.
    """
    if budget < 0:
        raise ValidationError(f"budget must be >= 0, got {budget}")
    asked = (pattern, g, f)
    f = _system_on(g, f, pattern)
    pool = _full_pool(g, pool)
    if pattern.n > pool.bit_count():
        return CopyEnumeration([], False, 0, pool, *asked, None)
    found = _search_plan(pattern, budget)
    if found is None:
        return CopyEnumeration([], True, budget + 1, pool, *asked, None)
    return _copies(g, f, *found, [pool] * pattern.n, budget, pool, asked)


def enumerate_transversal_copies(spec: MultipartiteSpec, g: Graph,
                                 f: IncompatibilitySystem = None,
                                 parts: list = None,
                                 budget: int = DEFAULT_BUDGET) -> CopyEnumeration:
    """Compatible copies of K_r(h_1..h_r) inside the r-partite restriction
    of g to ``parts``, with exactly h_i image vertices in parts[i].

    Only cross-part edges exist in the restriction, which forces the
    pattern classes to align with the parts (a class split over two parts
    would leave another class with nowhere adjacent to sit).  The pattern
    is placed part by part, and every part's images ascend, so each copy
    is found once; no rule is derived, and the budget bounds the search
    alone.
    """
    if budget < 0:
        raise ValidationError(f"budget must be >= 0, got {budget}")
    pattern, _ = complete_multipartite(spec)
    asked = (pattern, g, f)
    f = _system_on(g, f, pattern)
    if parts is None or len(parts) != spec.r:
        raise ValidationError("need one vertex set per pattern part")
    parts = [sorted(set(p)) for p in parts]
    if any(p and (p[0] < 0 or p[-1] >= g.n) for p in parts):
        raise ValidationError("parts name vertices outside the graph")
    masks = [mask_of(p) for p in parts]
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if masks[i] & masks[j]:
                raise ValidationError("parts must be pairwise disjoint")
    if any(len(p) < h_i for p, h_i in zip(parts, spec.sizes)):
        return CopyEnumeration([], False, 0, 0, *asked, None)

    allowed = [m for m, h_i in zip(masks, spec.sizes) for _ in range(h_i)]
    # the parts are disjoint and non-empty, so a step opens its part exactly
    # when its mask differs from the previous step's
    below = [(i - 1,) if i and allowed[i] == allowed[i - 1] else ()
             for i in range(pattern.n)]
    return _copies(g, f, _Plan(pattern, list(range(pattern.n))), below, allowed, budget, 0, asked)


def _verify_copies(g: Graph, f: IncompatibilitySystem, pattern: Graph, embeddings) -> bool:
    """True when ``embeddings`` are vertex-disjoint compatible copies of
    ``pattern`` in g under f, each image derived from its ``phi``.

    The pattern's edges and neighbour lists are read off its masks once,
    popping bits inline as ``_embed`` does.  Each copy is then checked in
    this order: k = |V(pattern)| images; stored ``vertices`` equal to the
    sorted images; every image a vertex of g; k distinct images (the
    popcount of the summed bits is k: a repeated bit carries and loses
    one) off the copies before; every image of a pattern edge a host
    edge; stored ``edges`` equal to the sorted image edges; no two image
    edges at one image vertex incompatible there.  The images are
    distinct, so the image edges at phi[u] are the images of u's pattern
    edges: each image neighbour y of phi[u] is tested against the ones
    before it (the rows are symmetric), and only for a u with two
    neighbours or more.  Nothing is built per copy but its image edge
    list.
    """
    k, n = pattern.n, g.n
    adj, inc = g.adj, f.inc
    pattern_edges, centres = [], []   # the edges (u, w), u < w; (u, its neighbours)
    for u, m in enumerate(pattern.adj):
        ws = []
        while m:
            low = m & -m
            w = low.bit_length() - 1
            ws.append(w)
            if w > u:
                pattern_edges.append((u, w))
            m ^= low
        if len(ws) > 1:
            centres.append((u, ws))
    used = 0
    for phi, vertices, edges in embeddings:
        if len(phi) != k or vertices != tuple(sorted(phi)):
            return False
        if vertices and (vertices[0] < 0 or vertices[-1] >= n):
            return False
        mask = sum(map(_BIT, phi))
        if mask.bit_count() != k or mask & used:
            return False
        used |= mask
        image = []
        for a, b in pattern_edges:
            x, y = phi[a], phi[b]
            if not adj[x] >> y & 1:
                return False
            image.append((x, y) if x < y else (y, x))
        image.sort()
        if edges != tuple(image):
            return False
        for u, ws in centres:
            row = inc.get(phi[u])
            if row:
                seen = 0
                for w in ws:
                    y = phi[w]
                    if row.get(y, 0) & seen:
                        return False
                    seen |= 1 << y
    return True


def verify_embedding(g: Graph, f: IncompatibilitySystem, pattern: Graph,
                     emb: Embedding) -> bool:
    """Injective, adjacency-preserving, image compatible; the image is
    derived from ``phi`` and the pattern, and an ``emb`` whose stored
    ``vertices`` or ``edges`` differ from it is refused."""
    return _verify_copies(g, f, pattern, (emb,))


def verify_tiling(g: Graph, f: IncompatibilitySystem, pattern: Graph,
                  tiling: Tiling) -> bool:
    """Every copy passes ``verify_embedding``, and no two share a vertex."""
    return _verify_copies(g, f, pattern, tiling.embeddings)


def _verified(g: Graph, f: IncompatibilitySystem, pattern: Graph, embeddings,
              what: str) -> Tiling:
    """The Tiling of ``embeddings``; ConsistencyError when ``verify_tiling``
    refuses it."""
    tiling = Tiling(tuple(embeddings))
    if not verify_tiling(g, f, pattern, tiling):
        raise ConsistencyError(f"{what} failed re-verification")
    return tiling


def _full_pool(g: Graph, pool) -> int:
    """``pool`` as a vertex mask; all of g when None."""
    full = (1 << g.n) - 1
    if pool is None:
        return full
    if pool & ~full:
        raise ValidationError("pool names vertices outside the graph")
    return pool


def _pack(full: int, enum: CopyEnumeration, alive: int, work: _Work, h: int,
          slack: int, stop=None) -> tuple:
    """(indices of disjoint copies of ``enum`` among the rows ``alive`` (a
    bitmask of copy indices, all inside the vertex mask ``full``) that
    leave the fewest of ``full`` uncovered, exhausted).  The packing is None
    unless one leaves at most ``slack`` vertices uncovered; with slack 0
    this is exact cover.  Every row has ``h`` vertices; ``slack`` is at
    least |full| or differs from it by a multiple of h.  ``exhausted`` is
    False when ``work``'s budget or ``stop`` cut the search short, and the
    packing is then the best found so far.

    ``stop``, for a slack-0 search, is called once, at its first dead end
    (the first branch that leaves a vertex with no admissible row), and
    ends the search when it returns true.  A search whose first descent is
    a cover never calls it.

    Depth-first with an explicit stack; each node branches on its
    uncovered vertex v with the fewest admissible rows (the lowest such
    vertex on ties), trying those rows by ascending index and then, while
    slack remains, the skip branch "v stays uncovered"; each branch taken
    spends one unit of ``work``.  A vertex whose last admissible row dies
    is a forced skip: it stays uncovered without a branch.  ``skipped``
    counts both kinds, and each uses one unit of slack.  Each packing
    found becomes the incumbent, and slack shrinks to h below what it
    leaves uncovered, so only larger packings are sought from then on;
    the root's empty packing is the first incumbent when |full| fits in
    the slack.  The search ends when no slack is left, so an exact cover
    returns as soon as it is found.  Rows cover multiples of h, so a
    node leaves at least skipped + popcount(uncovered) % h vertices
    uncovered, and the parity cut drops it when that exceeds the slack.
    Slack and popcount(uncovered) + skipped differ from |full| by
    multiples of h, so that cut is simply skipped > slack.

    The rows are read in place, by global index, through the index of
    ``enum`` (``CopyEnumeration.index``), so they are tried in canonical
    order.  Each open node keeps ``alive``, the bitmask of the rows
    disjoint from everything covered or skipped so far (the caller's at
    the root).  Each uncovered vertex v keeps its admissible count
    ``count[v] = popcount(rows_at[v] & alive)`` and sits in
    ``buckets[count[v]]``, so the branch vertex is the lowest uncovered
    bit of the first bucket that has one.  A branch does ``alive &=
    ~(rows_at[u] | ...)`` over the vertices u it takes and recounts only
    the uncovered vertices in their ``reach``, the only ones a killed row
    passes through.  That ``reach`` is the whole enumeration's: a vertex
    it adds shares no row alive at the root with u, so its recount finds
    its count unchanged, and the counts stay exact.  Each changed count
    goes on a flat trail of (vertex, old count), which backtracking pops
    back to the node's mark.  A covered or skipped vertex keeps its last
    count and bucket untouched until backtracking uncovers it, which is
    why bucket reads mask by ``uncovered``.
    """
    rows, row_masks = enum.images, enum.masks
    rows_at, reach = enum.index()
    spent, budget = work.spent, work.budget
    size = full.bit_count()
    best = None
    if size <= slack:
        best, slack = [], size - h
    count = [0] * len(rows_at)
    buckets = []      # buckets[c]: uncovered vertices with c admissible rows
    uncovered, skipped = full, 0  # the node to open
    for v in bits(full):
        c = (rows_at[v] & alive).bit_count()
        if not c:
            uncovered ^= 1 << v
            skipped += 1
            continue
        count[v] = c
        if c >= len(buckets):
            buckets.extend([0] * (c + 1 - len(buckets)))
        buckets[c] |= 1 << v
    if not uncovered or skipped > slack:
        return best, True
    trail = []
    chosen = []       # rows taken on the path, None for a skip branch
    stack = []        # (alive, uncovered, skipped, trail mark, v or -1)
    untried = []      # per open node, the mask of its untried rows
    while True:
        for b in buckets:
            b &= uncovered
            if b:
                break
        v = (b & -b).bit_length() - 1
        stack.append((alive, uncovered, skipped, len(trail), v))
        untried.append(rows_at[v] & alive)
        while True:  # the next branch of the deepest open node
            alive, uncovered, skipped, mark, v = stack[-1]
            while len(trail) > mark:
                w, old = trail.pop()
                bit = 1 << w
                buckets[count[w]] ^= bit
                buckets[old] |= bit
                count[w] = old
            # a node that an incumbent found below it has cut takes no more branches
            rows_left = untried[-1] if skipped <= slack else 0
            if not rows_left:
                if v < 0 or skipped >= slack:
                    stack.pop()
                    untried.pop()
                    if not stack:
                        work.spent = spent
                        return best, True
                    chosen.pop()
                    continue
                stack[-1] = (alive, uncovered, skipped, mark, -1)
                r = None
                skipped += 1  # the skip branch
                uncovered ^= 1 << v
                kill, touched = rows_at[v], reach[v]
            else:
                low = rows_left & -rows_left
                untried[-1] = rows_left ^ low
                r = low.bit_length() - 1
                uncovered ^= row_masks[r]
                kill = touched = 0
                for u in rows[r]:
                    kill |= rows_at[u]
                    touched |= reach[u]
            spent += 1
            if spent > budget:
                work.spent = spent
                return best, False
            chosen.append(r)
            alive &= ~kill
            recount = touched & uncovered
            while recount:
                bit = recount & -recount
                recount ^= bit
                w = bit.bit_length() - 1
                c = (rows_at[w] & alive).bit_count()
                if not c:  # a forced skip
                    skipped += 1
                    if skipped > slack:
                        if stop is not None:  # the first dead end
                            if stop():
                                work.spent = spent
                                return best, False
                            stop = None
                        break
                    uncovered ^= bit
                    continue
                old = count[w]
                if c != old:
                    buckets[old] ^= bit
                    buckets[c] |= bit
                    trail.append((w, old))
                    count[w] = c
            else:
                if uncovered:
                    break  # open the child
            if not uncovered:  # a packing leaving ``skipped`` vertices uncovered
                best = [r for r in chosen if r is not None]
                slack = skipped - h
                if slack < 0:
                    work.spent = spent
                    return best, True
            chosen.pop()


def _lattice_refutation(g: Graph, full: int, copies: CopyEnumeration, alive: int):
    """(parts, y) when ``lattice.obstruction`` finds the part sizes of the
    pool ``full`` outside the lattice of the index vectors of the copies
    of ``copies`` whose indices are the bits of ``alive``, else None.

    The parts are the components of the complement of g[full], with the
    singletons (vertices adjacent to the rest of the pool) merged into one
    last part: on a complete multipartite host they are its parts, and the
    obstruction is sound over any partition.
    With fewer than two parts every copy's vector is a multiple of the
    sizes, and there is nothing to test, so the live masks are gathered
    only past that check (the enumeration's own list when ``full`` is its
    pool).  The factor search runs the test only once its cover search
    has passed its root, so every vertex of ``full`` lies in a live row.
    """
    comps = complement_components(g, full)
    singles = sum(c for c in comps if not c & (c - 1))  # disjoint masks: the sum is the union
    parts = [c for c in comps if c & (c - 1)] + ([singles] if singles else [])
    if len(parts) < 2:
        return None
    row_masks = copies.masks
    if full != copies.pool:
        row_masks = [row_masks[i] for i in bits(alive)]
    columns = [[(m & p).bit_count() for m in row_masks] for p in parts]
    y = obstruction(zip(*columns), [p.bit_count() for p in parts])
    return None if y is None else (tuple(tuple(bits(p)) for p in parts), y)


def find_compatible_factor(pattern: Graph, g: Graph,
                           f: IncompatibilitySystem = None,
                           budget: int = DEFAULT_BUDGET,
                           pool: int = None,
                           copies: CopyEnumeration = None) -> FactorResult:
    """Exact compatible-factor decision: exact-cover search, with a lattice
    test at its first dead end.

    ``pool`` (a vertex bitmask, all of g by default) asks for a factor of
    the induced subgraph g[pool] under f restricted to it; the tiling
    keeps host vertex ids.  NONE carries reason "divisibility" (|pool|
    not divisible by |H|), "lattice" (the copy enumeration completed and
    ``_lattice_refutation`` found a certificate, carried in ``parts`` and
    ``certificate``) or "exhausted" (complete search).
    INDETERMINATE only ever means the budget ran out, either during copy
    enumeration or during the cover search.

    A cover proves the part sizes lie in the lattice, so the test waits
    for the cover search's first dead end, and a refutation ends the
    search there; a search that the budget cuts before any dead end runs
    the test afterwards.  So the answer is the one that testing first
    would give, at any budget, and only ``expansions`` of a "lattice"
    answer counts the branches searched before it (never more than
    ``budget``).  A vertex in no row ends the search at its root, before
    any test: the answer is "exhausted".

    ``copies``, an enumeration of this ``pattern``, ``g`` and ``f`` (the
    same objects) over a superset of ``pool``, is used instead of
    enumerating the pool: the copies of g[pool] are exactly the host
    copies inside it, ``CopyEnumeration.live`` masks the others out, and
    the search reads the survivors in canonical order, as it would read
    the rows enumerating the pool gives, so every field of the result but
    ``expansions`` is the same.  ``budget`` and ``expansions`` then cover
    the search alone; the enumeration is the caller's to charge.  A
    truncated ``copies`` can still give FOUND, never NONE but by
    divisibility.  A ``copies`` made for other objects, or whose pool
    misses a vertex of this one, is refused.
    """
    if budget < 0:
        raise ValidationError(f"budget must be >= 0, got {budget}")
    if copies is not None and (copies.pattern is not pattern or copies.graph is not g
                               or copies.system is not f):
        raise ValidationError("copies were enumerated for another pattern, graph or system")
    f = _system_on(g, f, pattern)
    full = _full_pool(g, pool)
    if copies is not None and full & ~copies.pool:
        raise ValidationError("copies were enumerated over a pool that misses "
                              "vertices of this one")
    if full.bit_count() % pattern.n != 0:
        return FactorResult(NONE, reason="divisibility")
    if full == 0:
        return FactorResult(FOUND, tiling=Tiling(()))

    if copies is None:
        copies = enumerate_compatible_copies(pattern, g, f, budget=budget, pool=full)
        spent = copies.expansions
    else:
        spent = 0
    alive = copies.live(full)
    considered = alive.bit_count()
    tested = []       # the lattice test's answer, once it has run

    def refuted() -> bool:
        tested.append(_lattice_refutation(g, full, copies, alive))
        return tested[0] is not None

    work = _Work(budget, spent)
    # a partial row set refutes nothing
    stop = None if copies.truncated else refuted
    chosen, exhausted = _pack(full, copies, alive, work, pattern.n, 0, stop)
    if stop is not None and not exhausted and not tested:  # a budget cut before any dead end
        refuted()
    if tested and tested[0] is not None:
        # the branch a budget cut stopped at was not taken
        return FactorResult(NONE, reason="lattice", expansions=min(work.spent, budget),
                            copies_considered=considered, parts=tested[0][0],
                            certificate=tested[0][1])
    if chosen is not None:
        covered = 0
        for r in chosen:
            covered |= copies.masks[r]
        if covered != full:
            raise ConsistencyError("factor failed re-verification")
        tiling = _verified(g, f, pattern, map(copies.embedding, chosen), "factor")
        return FactorResult(FOUND, tiling=tiling,
                            expansions=work.spent, copies_considered=considered)
    if not exhausted or copies.truncated:
        # absence over a truncated row set proves nothing
        return FactorResult(INDETERMINATE, reason="budget",
                            expansions=work.spent, copies_considered=considered)
    return FactorResult(NONE, reason="exhausted",
                        expansions=work.spent, copies_considered=considered)


def greedy_almost_tiling(pattern: Graph, g: Graph,
                         f: IncompatibilitySystem = None,
                         seed: int = 0,
                         budget: int = DEFAULT_BUDGET) -> Tiling:
    """Maximal-by-inclusion tiling: repeatedly take the first compatible
    copy found through the next anchor in a seed-shuffled vertex order.

    Host candidates are tried in that order too, and the anchor is tried
    at every pattern position since the pattern's orbit structure is
    unknown.  An anchor with no copy inside the current uncovered set can
    never be covered later (the uncovered set only shrinks), so it is
    marked dead; when every vertex is covered or dead the tiling is
    maximal.  ``budget`` bounds the candidates tried over the whole run;
    past it BudgetExceeded is raised, carrying in ``partial`` the tiling
    taken so far, which need not be maximal.  Either tiling is
    re-verified first.
    """
    if budget < 0:
        raise ValidationError(f"budget must be >= 0, got {budget}")
    f = _system_on(g, f, pattern)
    rng = random.Random(seed)
    priority = list(range(g.n))
    rng.shuffle(priority)
    rank = [0] * g.n
    for i, v in enumerate(priority):
        rank[v] = i
    plan = _Plan(pattern, _pattern_order(pattern))
    unconditioned = [()] * pattern.n
    work = _Work(budget)
    pool = (1 << g.n) - 1
    embs = []
    try:
        for anchor in priority:
            if not pool >> anchor & 1:
                continue
            img = None
            for step in range(pattern.n):
                allowed = [pool & ~(1 << anchor)] * pattern.n
                allowed[step] = 1 << anchor
                img = next(_embed(g, f, plan, allowed, unconditioned, work, rank), None)
                if img is not None:
                    break
            if img is None:
                pool &= ~(1 << anchor)  # dead: no copy through it can appear later
                continue
            emb = plan.copy(img)
            embs.append(emb)
            pool &= ~emb.mask
    except BudgetExceeded as cut:
        cut.partial = _verified(g, f, pattern, embs, "greedy tiling")
        raise
    return _verified(g, f, pattern, embs, "greedy tiling")


def max_compatible_tiling(pattern: Graph, g: Graph,
                          f: IncompatibilitySystem = None,
                          budget: int = DEFAULT_BUDGET) -> MaxTilingResult:
    """Maximum-cardinality compatible tiling: the packing search of the
    factor decision, allowed to leave any number of vertices uncovered.

    The optimality flag is True only when enumeration and search both
    completed in budget; a budget cut returns the largest tiling found
    so far.  The tiling is re-verified before it is returned.
    """
    f = _system_on(g, f, pattern)
    enum = enumerate_compatible_copies(pattern, g, f, budget=budget)
    work = _Work(budget, enum.expansions)
    chosen, exhausted = _pack(enum.pool, enum, enum.live(enum.pool), work, pattern.n, g.n)
    tiling = _verified(g, f, pattern, map(enum.embedding, chosen), "maximum tiling")
    return MaxTilingResult(tiling, exhausted and not enum.truncated, work.spent)
