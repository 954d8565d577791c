"""Incompatibility systems: storage, the Delta-bound, generation.

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
    written out with literal ``rng.shuffle`` calls, the reference.  Here
    the shuffle is inlined: for i from len - 1 down to 1 it draws j as
    ``Random._randbelow(i + 1)`` does, ``getrandbits(k)`` with
    k = (i + 1).bit_length(), retried while j > i, and swaps items i and
    j.  An edge that is already full at its turn draws its shuffle's
    values, rejections included, but moves no item, since it takes no
    partner; the stream is unchanged.  So each seed gives the same
    system, byte for byte, for any seed ``random.Random`` accepts.

    ``mu`` is a Fraction, an int or a string such as ``"3/10"``.  A float
    is refused: it would be read at its binary value, and
    ``floor(Fraction(0.3) * 10)`` is 2, not 3.
    """
    if isinstance(mu, float):
        raise ValidationError(f"mu {mu!r} is a float and would be read at its binary value; "
                              "give a Fraction, an int or a string such as \"3/10\"")
    mu = Fraction(mu)
    n = g.n
    if mu < 0:
        raise ValidationError("mu must be non-negative")
    q = math.floor(mu * n)
    triples = []
    append = triples.append
    if q > 0:
        getrandbits = random.Random(seed).getrandbits
        count = [0] * n  # partners of va at the current v, by a; zeroed after each v
        for v in range(n):
            nbrs = list(bits(g.adj[v]))
            # rng.shuffle of a list of len(nbrs) - 1 items: (i, k) for i from len - 1 down to 1
            slots = [(i, (i + 1).bit_length()) for i in range(len(nbrs) - 2, 0, -1)]
            row = {}  # a -> partners of va at v so far
            for pos, a in enumerate(nbrs):
                if count[a] >= q:  # va is full: draw its shuffle, move nothing
                    for i, k in slots:
                        while getrandbits(k) > i:
                            pass
                    continue
                cands = nbrs.copy()
                del cands[pos]
                for i, k in slots:
                    j = getrandbits(k)
                    while j > i:
                        j = getrandbits(k)
                    cands[i], cands[j] = cands[j], cands[i]
                mask, c = row.get(a, 0), count[a]
                for b in cands:
                    if count[b] < q and not mask >> b & 1:
                        mask |= 1 << b
                        row[a] = mask  # row[a] before row[b]: inc keeps this order
                        row[b] = row.get(b, 0) | 1 << a
                        count[b] += 1
                        c += 1
                        if c == q:
                            break
                count[a] = c
            for a, m in row.items():
                count[a] = 0
                partners = m >> a + 1    # the partners b > a, bit b - a - 1, as in triples()
                while partners:
                    low = partners & -partners
                    append((v, a, a + low.bit_length()))
                    partners ^= low
    return IncompatibilitySystem(g, triples)


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
