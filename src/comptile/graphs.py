"""Bitset-backed simple graphs, vertex partitions, and standard constructors.

Vertices are dense 0-based integers.  Adjacency is one Python integer
bitmask per vertex, so the set algebra the enumeration kernels live on
(neighborhood intersections, coverage masks) is a couple of machine ops
per word.  Graphs and partitions are immutable after construction and
safe to share between concurrent readers; every function here is pure.

Text formats (ASCII, LF-terminated; blank and '#' lines are skipped):

    graph:      first line "n m", then m lines "u v" with 0 <= u < v < n
    partition:  one line per block, space-separated vertex ids
"""

from __future__ import annotations

from .errors import FormatError, ValidationError
from .util import FrozenRecord, bits, int_rows, mask_of

# Desk-scale contract: refuse graphs beyond this order at construction.
MAX_VERTICES = 1 << 16


def _check_order(n: int):
    """Refuse a vertex count beyond the cap before anything is sized by it."""
    if n < 0 or n > MAX_VERTICES:
        raise ValidationError(f"vertex count {n} outside [0, {MAX_VERTICES}]")


class Graph(FrozenRecord):
    """Immutable undirected simple graph on vertices 0..n-1; equal graphs
    have the same order and adjacency rows."""

    __slots__ = ("n", "adj", "_m")
    _fields = ("n", "adj")

    def __init__(self, n: int, adj):
        _check_order(n)
        adj = tuple(adj)
        if len(adj) != n:
            raise ValidationError(f"expected {n} adjacency rows, got {len(adj)}")
        full = (1 << n) - 1
        m2 = 0
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValidationError(f"row {v} mentions vertices >= {n}")
            if row >> v & 1:
                raise ValidationError(f"self-loop at vertex {v}")
            m2 += row.bit_count()
        for v, row in enumerate(adj):
            for u in bits(row):
                if not adj[u] >> v & 1:
                    raise ValidationError(f"asymmetric adjacency between {u} and {v}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "_m", m2 // 2)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        _check_order(n)
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        # symmetric, loop-free and in range as built: __init__'s checks would repeat these
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", tuple(rows))
        object.__setattr__(g, "_m", sum(map(int.bit_count, rows)) // 2)
        return g

    @property
    def m(self) -> int:
        return self._m

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list:
        return list(bits(self.adj[v]))

    def edges(self) -> list:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(row):
                out.append((u, v))
        return out

    def min_degree(self) -> int:
        return min((self.degree(v) for v in range(self.n)), default=0)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class MultipartiteSpec(FrozenRecord):
    """Part sizes h_1..h_r of a complete multipartite pattern."""

    __slots__ = _fields = ("sizes",)

    def __init__(self, sizes: tuple):
        sizes = tuple(int(s) for s in sizes)
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) < 1:
            raise ValidationError("need at least one part")
        if any(s < 1 for s in sizes):
            raise ValidationError(f"part sizes must be >= 1, got {sizes}")

    @property
    def r(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)


class VertexPartition(FrozenRecord):
    """Ordered partition of {0..n-1} into non-empty disjoint blocks."""

    __slots__ = ("n", "blocks", "_block_of", "block_masks")
    _fields = ("n", "blocks")

    def __init__(self, n: int, blocks: tuple):
        object.__setattr__(self, "n", n)
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        object.__setattr__(self, "blocks", blocks)
        seen = 0
        masks = []
        for b in blocks:
            if not b:
                raise ValidationError("empty block")
            if b[0] < 0 or b[-1] >= self.n:
                raise ValidationError("block names a vertex outside 0..n-1")
            bm = mask_of(b)
            if bm.bit_count() != len(b):
                raise ValidationError("block repeats a vertex")
            if bm & seen:
                raise ValidationError("blocks are not disjoint")
            seen |= bm
            masks.append(bm)
        if seen != (1 << self.n) - 1:
            raise ValidationError("blocks do not cover the ground set 0..n-1")
        lookup = [0] * self.n
        for i, b in enumerate(blocks):
            for v in b:
                lookup[v] = i
        object.__setattr__(self, "_block_of", tuple(lookup))
        # block_masks[i]: the vertex mask of block i
        object.__setattr__(self, "block_masks", tuple(masks))

    def block_of(self, v: int) -> int:
        return self._block_of[v]

    @property
    def k(self) -> int:
        return len(self.blocks)


def complete_multipartite(spec: MultipartiteSpec) -> tuple:
    """K_r(h_1,...,h_r): uv is an edge iff u and v lie in different parts.

    Returns the graph together with its defining partition (parts are
    consecutive ranges in the given order).
    """
    n = spec.total
    _check_order(n)
    blocks = []
    start = 0
    for s in spec.sizes:
        blocks.append(tuple(range(start, start + s)))
        start += s
    part = VertexPartition(n, tuple(blocks))
    full = (1 << n) - 1
    masks = part.block_masks
    rows = [0] * n
    for b, bm in zip(part.blocks, masks):
        other = full & ~bm
        for v in b:
            rows[v] = other
    return Graph(n, rows), part


def complete_graph(k: int) -> Graph:
    return complete_multipartite(MultipartiteSpec((1,) * k))[0] if k else Graph(0, ())


def empty_graph(n: int) -> Graph:
    _check_order(n)
    return Graph(n, (0,) * n)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValidationError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(g.n + h.n, rows)


def components(g: Graph) -> list:
    """Connected components as sorted vertex lists, ordered by minimum vertex."""
    unseen = (1 << g.n) - 1
    out = []
    while unseen:
        start = (unseen & -unseen).bit_length() - 1
        comp = 1 << start
        frontier = comp
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= g.adj[v]
            frontier = grow & ~comp
            comp |= grow
        out.append(list(bits(comp)))
        unseen &= ~comp
    return out


def complement_components(g: Graph, pool: int) -> list:
    """The vertex masks of the components of the complement of g[pool],
    ordered by lowest vertex.  No complement graph is built: a component
    grows by every pool vertex missing an edge to a vertex it holds."""
    adj = g.adj
    out = []
    left = pool
    while left:
        comp = todo = left & -left
        while todo and comp != left:
            low = todo & -todo
            todo ^= low
            new = left & ~adj[low.bit_length() - 1] & ~comp
            comp |= new
            todo |= new
        left &= ~comp
        out.append(comp)
    return out


# ---------------------------------------------------------------------------
# text formats


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    rows = int_rows(text, "graph", 2)
    if not rows:
        raise FormatError("empty graph file")
    (n, m), edges = rows[0], rows[1:]
    try:
        _check_order(n)
    except ValidationError as exc:
        raise FormatError(str(exc)) from exc
    if len(edges) != m:
        raise FormatError(f"header promises {m} edges, file has {len(edges)}")
    for u, v in edges:
        if not 0 <= u < v < n:
            raise FormatError(f"edge line '{u} {v}' violates 0 <= u < v < n")
    if len(set(edges)) != len(edges):
        raise FormatError("duplicate edge lines")
    return Graph.from_edges(n, edges)


def format_partition(p: VertexPartition) -> str:
    return "\n".join(" ".join(str(v) for v in b) for b in p.blocks) + "\n"


def parse_partition(text: str, n: int) -> VertexPartition:
    try:
        return VertexPartition(n, int_rows(text, "partition"))
    except ValidationError as exc:
        raise FormatError(str(exc)) from exc
