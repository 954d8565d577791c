"""Bitset-backed simple graphs, vertex partitions, and standard constructors.

Vertices are dense 0-based integers.  Adjacency is one Python integer
bitmask per vertex, so the set algebra the enumeration kernels live on
(neighborhood intersections, coverage masks) is a couple of machine ops
per word.  Graphs and partitions are immutable after construction and
safe to share between concurrent readers; every function here is pure.

Text formats (ASCII, LF-terminated):

    graph:      first line "n m", then m lines "u v" with 0 <= u < v < n
    partition:  one line per block, space-separated vertex ids
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormatError, ValidationError
from .util import bits, mask_of

# Desk-scale contract: refuse graphs beyond this order at construction.
MAX_VERTICES = 1 << 16


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "adj", "_m")

    def __init__(self, n: int, adj):
        if n < 0 or n > MAX_VERTICES:
            raise ValidationError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
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

    def __setattr__(self, *_):
        raise AttributeError("Graph is immutable")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

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

    def max_degree(self) -> int:
        return max((self.degree(v) for v in range(self.n)), default=0)

    def induced(self, vertices) -> tuple:
        """Induced subgraph on ``vertices``; returns (graph, old_ids).

        ``old_ids[i]`` is the original id of new vertex i; ``vertices`` may
        arrive in any order and is sorted first, so the relabeling is
        canonical.
        """
        old = sorted(set(vertices))
        pos = {v: i for i, v in enumerate(old)}
        rows = [0] * len(old)
        for i, v in enumerate(old):
            for u in bits(self.adj[v]):
                j = pos.get(u)
                if j is not None:
                    rows[i] |= 1 << j
        return Graph(len(old), rows), tuple(old)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class MultipartiteSpec:
    """Part sizes h_1..h_r of a complete multipartite pattern."""

    sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
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


@dataclass(frozen=True)
class VertexPartition:
    """Ordered partition of {0..n-1} into non-empty disjoint blocks."""

    n: int
    blocks: tuple

    def __post_init__(self):
        blocks = tuple(tuple(sorted(b)) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        seen = 0
        for b in blocks:
            if not b:
                raise ValidationError("empty block")
            if b[0] < 0 or b[-1] >= self.n:
                raise ValidationError("block names a vertex outside 0..n-1")
            bm = mask_of(b)
            if bm & seen:
                raise ValidationError("blocks are not disjoint")
            seen |= bm
        if seen != (1 << self.n) - 1:
            raise ValidationError("blocks do not cover the ground set 0..n-1")
        lookup = [0] * self.n
        for i, b in enumerate(blocks):
            for v in b:
                lookup[v] = i
        object.__setattr__(self, "_block_of", tuple(lookup))

    def block_of(self, v: int) -> int:
        return self._block_of[v]

    @property
    def k(self) -> int:
        return len(self.blocks)

    def block_masks(self) -> list:
        return [mask_of(b) for b in self.blocks]


def complete_multipartite(spec: MultipartiteSpec) -> tuple:
    """K_r(h_1,...,h_r): uv is an edge iff u and v lie in different parts.

    Returns the graph together with its defining partition (parts are
    consecutive ranges in the given order).
    """
    n = spec.total
    blocks = []
    start = 0
    for s in spec.sizes:
        blocks.append(tuple(range(start, start + s)))
        start += s
    part = VertexPartition(n, tuple(blocks))
    full = (1 << n) - 1
    masks = part.block_masks()
    rows = [0] * n
    for b, bm in zip(part.blocks, masks):
        other = full & ~bm
        for v in b:
            rows[v] = other
    return Graph(n, rows), part


def complete_graph(k: int) -> Graph:
    return complete_multipartite(MultipartiteSpec((1,) * k))[0] if k else Graph(0, ())


def empty_graph(n: int) -> Graph:
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


def common_neighborhood(g: Graph, vs) -> list:
    """Vertices adjacent to every vertex of ``vs`` (vs must be non-empty)."""
    vs = list(vs)
    if not vs:
        raise ValidationError("common_neighborhood needs a non-empty vertex set")
    inter = (1 << g.n) - 1
    for v in vs:
        inter &= g.adj[v]
    return list(bits(inter))


# ---------------------------------------------------------------------------
# text formats


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"non-integer header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise FormatError(f"header promises {m} edges, file has {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"non-integer edge line {ln!r}") from exc
        if not (0 <= u < v < n):
            raise FormatError(f"edge line {ln!r} violates 0 <= u < v < n")
        edges.append((u, v))
    if len(set(edges)) != len(edges):
        raise FormatError("duplicate edge lines")
    return Graph.from_edges(n, edges)


def format_partition(p: VertexPartition) -> str:
    return "\n".join(" ".join(str(v) for v in b) for b in p.blocks) + "\n"


def parse_partition(text: str, n: int) -> VertexPartition:
    blocks = []
    for ln in (raw.strip() for raw in text.splitlines()):
        if not ln or ln.startswith("#"):
            continue
        try:
            blocks.append(tuple(int(tok) for tok in ln.split()))
        except ValueError as exc:
            raise FormatError(f"bad partition line {ln!r}") from exc
    try:
        return VertexPartition(n, tuple(blocks))
    except ValidationError as exc:
        raise FormatError(str(exc)) from exc
