"""Incompatibility systems: storage, the Delta-bound, queries, generation.

A system F over a graph G assigns to each vertex v a family F_v of
unordered pairs {e, e'} of edges whose intersection is exactly {v}.  Two
edges are incompatible when some F_v contains them; a subgraph is
compatible when no pair of its edges is incompatible.  Edges that share
no vertex are always compatible, so a pair {e, e'} can only ever live in
F_v for the single shared vertex v.

The Delta-bound of a system is the maximum, over vertices v and edges e
at v, of the number of other edges at v declared incompatible with e
(``IncompatibilitySystem.delta``).

File format: one line per pair, "v a b" meaning {va, vb} in F_v, ids
0-based; blank and '#' lines are skipped.  JSON mirror: {"pairs": [[v, a, b],
...]}; ``parse_system`` reads both.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from .errors import FormatError, ValidationError
from .graphs import Graph
from .util import bits, int_rows


def edge_key(u: int, v: int) -> tuple:
    return (u, v) if u < v else (v, u)


class IncompatibilitySystem:
    """Immutable per-vertex family of incompatible incident-edge pairs.

    ``inc[v][a]`` is the bitmask of the neighbours b of v with {va, vb} in
    F_v; a vertex or neighbour without partners has no entry, and the rows
    are symmetric (b is in ``inc[v][a]`` iff a is in ``inc[v][b]``).  The
    rows are read-only.
    """

    __slots__ = ("graph", "inc")

    def __init__(self, graph: Graph, triples):
        """Build from (v, a, b) triples meaning {va, vb} in F_v."""
        adj, n = graph.adj, graph.n
        inc = {}
        for v, a, b in triples:
            if a == b:
                raise ValidationError(f"pair at {v} names the same edge twice")
            if not (0 <= v < n and 0 <= a < n and 0 <= b < n
                    and adj[v] >> a & adj[v] >> b & 1):
                for x in (a, b):  # name the first fault: range, then edge, a before b
                    if not (0 <= x < n and 0 <= v < n):
                        raise ValidationError(f"triple ({v},{a},{b}) outside vertex range")
                    if not adj[v] >> x & 1:
                        raise ValidationError(f"({v},{x}) is not an edge of the bound graph")
            row = inc.setdefault(v, {})
            row[a] = row.get(a, 0) | 1 << b
            row[b] = row.get(b, 0) | 1 << a
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "inc", inc)

    def __setattr__(self, *_):
        raise AttributeError("IncompatibilitySystem is immutable")

    @classmethod
    def empty(cls, graph: Graph) -> "IncompatibilitySystem":
        return cls(graph, ())

    def triples(self) -> list:
        """Canonical (v, a, b) list with a < b, sorted.

        The rows are read in sorted order and each partner mask is walked
        inline from its lowest bit, so the list comes out sorted; a
        ``bits`` generator per row, and a sort, cost more than the walk.
        """
        out = []
        append = out.append
        inc = self.inc
        for v in sorted(inc):
            row = inc[v]
            for a in sorted(row):
                partners = row[a] >> a + 1    # the partners b > a, bit b - a - 1
                while partners:
                    low = partners & -partners
                    append((v, a, a + low.bit_length()))
                    partners ^= low
        return out

    @property
    def total_pairs(self) -> int:
        return sum(m.bit_count() for row in self.inc.values() for m in row.values()) // 2

    def _check_edge(self, e: tuple):
        if not (0 <= e[0] < self.graph.n and 0 <= e[1] < self.graph.n) \
                or not self.graph.has_edge(*e):
            raise ValidationError(f"{e} is not an edge of the bound graph")

    def are_compatible(self, e: tuple, f: tuple) -> bool:
        """False iff e and f share a vertex v and {e, f} lies in F_v."""
        e = edge_key(*e)
        f = edge_key(*f)
        self._check_edge(e)
        self._check_edge(f)
        if e == f:
            return True
        shared = set(e) & set(f)
        if not shared:
            return True
        v = shared.pop()
        a = e[0] + e[1] - v
        b = f[0] + f[1] - v
        return not self.inc.get(v, {}).get(a, 0) >> b & 1

    def is_compatible_subgraph(self, edges) -> tuple:
        """(ok, witness): witness is the first incompatible pair, else None.

        Only pairs sharing a vertex are inspected; disjoint pairs are
        compatible by definition.  Vertices are scanned in ascending order,
        and at each vertex its edges in ascending order of the other end.
        """
        inc = self.inc
        near = {}  # v -> mask of the subgraph's neighbours of v
        for e in sorted({edge_key(*e) for e in edges}):
            self._check_edge(e)
            u, v = e
            near[u] = near.get(u, 0) | 1 << v
            near[v] = near.get(v, 0) | 1 << u
        for v in sorted(near.keys() & inc.keys()):
            row, nv = inc[v], near[v]
            for a in bits(nv):
                hit = row.get(a, 0) & nv & (-1 << (a + 1))
                if hit:
                    return False, (edge_key(v, a), edge_key(v, next(bits(hit))))
        return True, None

    @property
    def delta(self) -> int:
        """The Delta-bound: the most partners any edge has at one end."""
        return max((m.bit_count() for row in self.inc.values()
                    for m in row.values()), default=0)


def count_bad_pairs_at(f: IncompatibilitySystem, v: int) -> int:
    """Pairs {v1, v2} of neighbors of v that obstruct a triangle at v.

    A pair counts when (1) vv1 and vv2 are incompatible at v, or (2)
    v1v2 is an edge and vv1 is incompatible with v1v2 at v1, or the same
    with the roles of v1 and v2 swapped.  The union of the three events
    is what blocks {v, v1, v2} from being a compatible triangle through
    an incompatibility involving v's edges.  The masks are walked inline,
    as in ``triples``.
    """
    inc = f.inc
    near = f.graph.adj[v]
    bad = dict(inc.get(v, {}))  # v1 -> v2 with {v1, v2} bad; kept symmetric
    rest = near
    while rest:
        bit1 = rest & -rest
        rest ^= bit1
        v1 = bit1.bit_length() - 1
        row = inc.get(v1)
        cross = row.get(v, 0) & near if row else 0  # event (2) at v1
        if cross:
            bad[v1] = bad.get(v1, 0) | cross
            while cross:
                bit2 = cross & -cross
                cross ^= bit2
                v2 = bit2.bit_length() - 1
                bad[v2] = bad.get(v2, 0) | bit1
    return sum(m.bit_count() for m in bad.values()) // 2


def random_bounded_system(g: Graph, mu, seed: int) -> IncompatibilitySystem:
    """Seeded random system that is genuinely floor(mu*n)-bounded.

    Every (v, e) attempts to pick floor(mu*n) incompatible partners
    without replacement among the other edges at v; a pair is inserted
    only while both of its edges still have fewer than floor(mu*n)
    partners at v, so the cap holds for the total count (own picks plus
    pairs contributed by sibling edges).  The achieved bound is whatever
    ``delta`` measures.

    Stream contract: the system is the one built when a single
    ``random.Random(seed)`` shuffles the list of the other neighbours of a
    (ascending) for every vertex v and every neighbour a of v, both in
    ascending order, and each (v, a) takes its partners from the front of
    its shuffled list.  ``oracles.raw_bounded_system`` is that generator
    written out with literal ``rng.shuffle`` calls.  Here the shuffles'
    draws are replayed from words drawn in bulk (``_ShuffleDraws``), so
    each seed gives the same system, byte for byte, for any seed
    ``random.Random`` accepts.
    """
    mu = Fraction(mu)
    n = g.n
    if mu < 0:
        raise ValidationError("mu must be non-negative")
    q = math.floor(mu * n)
    triples = []
    append = triples.append
    if q > 0:
        draws = _ShuffleDraws(random.Random(seed))
        for v in range(n):
            nbrs = list(bits(g.adj[v]))
            row = {}  # a -> partners of va at v so far
            for a in nbrs:
                if row.get(a, 0).bit_count() >= q:
                    draws.skip(len(nbrs) - 1)  # va is full: its shuffle only advances the stream
                    continue
                cands = nbrs.copy()
                cands.remove(a)
                draws.shuffle(cands)
                for b in cands:
                    if row.get(a, 0).bit_count() >= q:
                        break
                    if row.get(b, 0).bit_count() >= q or row.get(a, 0) >> b & 1:
                        continue
                    row[a] = row.get(a, 0) | 1 << b
                    row[b] = row.get(b, 0) | 1 << a
            for a, m in row.items():
                partners = m >> a + 1    # the partners b > a, bit b - a - 1, as in triples()
                while partners:
                    low = partners & -partners
                    append((v, a, a + low.bit_length()))
                    partners ^= low
    return IncompatibilitySystem(g, triples)


# ``random.Random.shuffle(x)`` draws j = _randbelow(i + 1) for i = len(x)-1
# down to 1, and ``_randbelow(m)`` takes one 32-bit Mersenne Twister word w
# per try: r = w >> (32 - k) with k = m.bit_length(), retried while r >= m.
# ``getrandbits(32*K)`` returns the next K words, least significant first.
# For m <= 255 a try depends only on w's top byte t: it is refused iff
# t >= m << (8 - k), and else gives j = t >> (8 - k).
# Words drawn per top-up: an 8 KiB buffer, not the whole system's.  At least
# 255, so that one top-up holds a word for each draw of a shuffle.
_WORDS = 2048
# (i, first refused top byte, shift) of the draw j = _randbelow(i + 1), for
# i = 254 down to 1: the draws of a shuffle of top + 1 items are _DRAWS[254 - top:]
_DRAWS = [(i, (i + 1) << (8 - (i + 1).bit_length()), 8 - (i + 1).bit_length())
          for i in range(254, 0, -1)]
_REFUSED = bytes(refused for _, refused, _ in _DRAWS)


class _ShuffleDraws:
    """``rng.shuffle``'s draws, replayed from words drawn in bulk.

    After ``shuffle(x)`` or ``skip(len(x))`` the stream stands where
    ``rng.shuffle(x)`` would leave it, and ``shuffle`` permutes x as
    ``rng.shuffle`` would.  ``rng`` itself runs ahead by the buffered
    words, so it must not be drawn from directly meanwhile.
    """

    __slots__ = ("rng", "words", "tops", "pos")

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.words = b""  # buffered words, 4 little-endian bytes each
        self.tops = b""   # their top bytes
        self.pos = 0      # index of the next unused word

    def _top_up(self, pos: int) -> bytes:
        """Drop the words before ``pos``, append fresh ones; the next unused
        word is then at 0."""
        raw = self.rng.getrandbits(32 * _WORDS).to_bytes(4 * _WORDS, "little")
        self.words = self.words[4 * pos:] + raw
        self.tops = self.tops[pos:] + raw[3::4]
        self.pos = 0
        return self.tops

    def _below(self, m: int) -> int:
        """``_randbelow(m)`` from whole words, for m > 255."""
        k = m.bit_length()
        while True:
            if self.pos == len(self.tops):
                self._top_up(self.pos)
            p = self.pos
            self.pos = p + 1
            r = int.from_bytes(self.words[4 * p:4 * p + 4], "little") >> (32 - k)
            if r < m:
                return r

    def _reserve(self, p: int, top: int):
        """(buffer, p, guard): from p on the buffer holds a word for each of
        ``top`` draws, and still does after refused tries while p <= guard."""
        tops = self.tops
        if len(tops) - p < top:
            tops, p = self._top_up(p), 0
        return tops, p, len(tops) - top

    def shuffle(self, x: list):
        top = len(x) - 1
        while top > 254:  # draws of m > 255 need more than the top byte
            j = self._below(top + 1)
            x[top], x[j] = x[j], x[top]
            top -= 1
        tops, p, guard = self._reserve(self.pos, top)
        for i, refused, shift in _DRAWS[254 - top:]:
            t = tops[p]
            p += 1
            while t >= refused:
                if p > guard:
                    tops, p, guard = self._reserve(p, top)
                t = tops[p]
                p += 1
            j = t >> shift
            x[i], x[j] = x[j], x[i]
        self.pos = p

    def skip(self, length: int):
        for m in range(length, 255, -1):
            self._below(m)
        top = min(length, 255) - 1
        tops, p, guard = self._reserve(self.pos, top)
        for refused in _REFUSED[254 - top:]:
            t = tops[p]
            p += 1
            while t >= refused:
                if p > guard:
                    tops, p, guard = self._reserve(p, top)
                t = tops[p]
                p += 1
        self.pos = p


# ---------------------------------------------------------------------------
# file formats


# lines per block of system_blocks: at 785,174 triples, writing blocks is as
# fast as joining every line, and holds 0.6 MB of text at once instead of 59 MB
BLOCK_LINES = 8192


def system_blocks(triples: list):
    """The line format of ``triples`` (``f.triples()``), one ``v a b`` line
    per triple, yielded ``BLOCK_LINES`` lines at a time: a writer holds
    one block of text at a time, not every line of a large system."""
    for i in range(0, len(triples), BLOCK_LINES):
        yield "".join([f"{v} {a} {b}\n" for v, a, b in triples[i:i + BLOCK_LINES]])


def format_system(f: IncompatibilitySystem) -> str:
    return "".join(system_blocks(f.triples()))


def parse_system(text: str, graph: Graph) -> IncompatibilitySystem:
    """Read the line format, or the JSON mirror when the first non-blank
    character is '{'."""
    if text.lstrip().startswith("{"):
        try:
            pairs = json.loads(text)["pairs"]
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad incompatibility JSON: {exc}") from exc
        except KeyError:
            raise FormatError("incompatibility JSON must be an object with a 'pairs' key") from None
        triples = row = pairs  # row: what to quote if pairs is not iterable
        try:
            for row in pairs:  # three JSON integers; a bool is not one
                if len(row) != 3 or any(type(x) is not int for x in row):
                    raise ValueError
        except (TypeError, ValueError) as exc:
            raise FormatError(f"bad incompatibility JSON pair {row!r}") from exc
    else:
        triples = int_rows(text, "incompatibility", 3)
    try:
        return IncompatibilitySystem(graph, triples)
    except ValidationError as exc:
        raise FormatError(str(exc)) from exc


def system_to_json(f: IncompatibilitySystem) -> dict:
    return {"pairs": f.triples()}  # canonical JSON writes each tuple as an array
