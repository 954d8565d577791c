"""Lower-bound instance generators: unbalanced multipartite bases, the
in-part bipartite augmentation, and the induced incompatibility system.

The full instance starts from a complete r-partite base graph chosen to
admit no pattern factor, adds inside every part a near-regular bipartite
circulant (minimum degree >= mu*n/2 + 1, maximum degree <= mu*n, hence
triangle-free parts), and declares vu, vw incompatible at v whenever v
lies outside a part containing the edge uw.  With that system every
compatible complete-multipartite copy is forced to be transversal, so a
compatible factor of the augmented graph would induce a factor of the
base.

Construction claims are verified, not asserted: whether the base has a
pattern factor is decided exactly from the pattern's colour-class sizes
(see ``_factor_exists``), and every emitted certificate inequality is
checked numerically before the instance is returned.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations

from . import solver
from .coloring import chi_star
from .errors import SizeCapError, ValidationError
from .graphs import (Graph, MultipartiteSpec, VertexPartition, complement_components,
                     complete_multipartite)
from .incompat import IncompatibilitySystem
from .lattice import mask_index_vector, obstruction
from .util import FrozenRecord, bits, format_fraction, rational

KOMLOS = "komlos"
KUHN_OSTHUS = "ko"

CONFIRMED_ABSENT = "confirmed_absent"
FACTOR_EXISTS = "factor_exists"


class BaseInstance(FrozenRecord):
    # window_low: the observed lower bound (chi_cr+1-r)/r * n
    # window_high: ceil(n/chi_cr) + 1
    # parts_in_window: a per-part boolean report, not a gate
    # factor_status: confirmed_absent / factor_exists
    __slots__ = _fields = ("graph", "partition", "sizes", "min_degree", "window_low",
                           "window_high", "parts_in_window", "factor_status")

    def __init__(self, graph: Graph, partition: VertexPartition, sizes: tuple,
                 min_degree: int, window_low: Fraction, window_high: int,
                 parts_in_window: tuple, factor_status: str):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "min_degree", min_degree)
        object.__setattr__(self, "window_low", window_low)
        object.__setattr__(self, "window_high", window_high)
        object.__setattr__(self, "parts_in_window", parts_in_window)
        object.__setattr__(self, "factor_status", factor_status)

    def to_json_dict(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "min_degree": self.min_degree,
            "window_low": format_fraction(self.window_low),
            "window_high": self.window_high,
            "parts_in_window": list(self.parts_in_window),
            "factor_status": self.factor_status,
        }


# The induced system holds Theta(mu n^3) triples; past this many, building
# it takes seconds and hundreds of MB, so construct refuses before the base.
TRIPLE_CAP = 1_000_000


def _factor_exists(pattern: Graph, sizes) -> bool:
    """Does K(sizes) have a ``pattern``-factor?  Needs len(sizes) = chi(pattern).

    With chi parts each copy puts the classes of a proper chi-colouring
    into distinct parts, and the vertices of a part are interchangeable, so
    a factor exists iff ``sizes`` is a sum of permuted colouring profiles.
    Sizes that ``obstruction`` refutes over those vectors have none;
    otherwise a depth-first search over sorted remainders (the vector set
    is closed under permutation) subtracts vectors in ascending order,
    which puts the largest class on the largest part.  It drops a
    remainder with a part outside [k*low, k*high], where k copies are left
    and low, high are the smallest and largest class sizes: each copy puts
    one class into every part.
    """
    vectors = sorted({v for prof in chi_star(pattern).profiles for v in permutations(prof)})
    if obstruction(vectors, sizes) is not None:
        return False
    h, low, high = pattern.n, min(map(min, vectors)), max(map(max, vectors))
    stack = [tuple(sorted(sizes))]
    seen = set(stack)
    while stack:
        rest = stack.pop()
        k = sum(rest) // h    # copies left
        if not k * low <= rest[0] <= rest[-1] <= k * high:
            continue
        if not any(rest):
            return True
        for vec in reversed(vectors):     # the stack pops the first vector first
            nxt = tuple(sorted(a - b for a, b in zip(rest, vec)))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def _build_base(pattern: Graph, sized: tuple) -> BaseInstance:
    """The base K(sizes) of ``sized`` = (part sizes, window low, window
    high, min degree), with the min degree its formula gives checked on
    the built graph."""
    sizes, window_low, window_high, want = sized
    g, part = complete_multipartite(MultipartiteSpec(sizes))
    delta = g.min_degree()
    if delta != want:
        raise ValidationError(f"degree check failed: delta = {delta}, formula gives {want}")
    in_window = tuple(window_low <= s <= window_high for s in sizes)
    status = FACTOR_EXISTS if _factor_exists(pattern, sizes) else CONFIRMED_ABSENT
    return BaseInstance(g, part, sizes, delta, window_low, window_high, in_window, status)


def komlos_base(pattern: Graph, n: int) -> BaseInstance:
    """Complete r-partite graph of order n, min degree floor((1-1/chi_cr)n) - 1.

    The part sizes are one admissible choice: the largest part gets
    ceil(n/chi_cr) + 1 (the maximal degree deficit), the remainder is
    split as evenly as possible.  Whether every part lands inside the
    observed window [(chi_cr+1-r)/r * n, ceil(n/chi_cr)+1] is reported
    per part; balanced patterns miss the lower end by one at every n, so
    the window is a diagnostic rather than a gate.  Whether the base has
    a factor is decided (``factor_status``), never assumed; at small n
    the even split can admit a factor for some patterns.
    """
    return _build_base(pattern, _komlos_sizes(pattern, chi_star(pattern), n))


def _komlos_sizes(pattern: Graph, prof, n: int) -> tuple:
    """(part sizes, window low, window high, min degree) of ``komlos_base``."""
    r = prof.chi
    if r < 2:
        raise ValidationError("base construction needs chi >= 2")
    if n % pattern.n != 0:
        raise ValidationError(f"n = {n} is not divisible by |H| = {pattern.n}")
    cr = prof.chi_cr
    big = math.ceil(Fraction(n) / cr) + 1
    rest = n - big
    if rest < r - 1:
        raise ValidationError(
            f"n = {n} too small: largest part {big} leaves {rest} vertices "
            f"for {r - 1} non-empty parts")
    base, extra = divmod(rest, r - 1)
    sizes = [big] + [base + (1 if i < extra else 0) for i in range(r - 1)]
    return tuple(sizes), (cr + 1 - r) / r * n, big, math.floor((1 - 1 / cr) * n) - 1


def kuhn_osthus_base(pattern: Graph, n: int) -> BaseInstance:
    """Complete r-partite graph with |V_1| = floor(n/r)+1, |V_2| = ceil(n/r)-1,
    the rest balanced in [floor(n/r), ceil(n/r)]; delta = ceil((1-1/r)n) - 1.

    Preconditions: chi(H) = r >= 3, hcf(H) != 1, n divisible by |H|.
    """
    return _build_base(pattern, _ko_sizes(pattern, chi_star(pattern), n))


def _ko_sizes(pattern: Graph, prof, n: int) -> tuple:
    """(part sizes, window low, window high, min degree) of ``kuhn_osthus_base``."""
    r = prof.chi
    if r < 3:
        raise ValidationError(f"precondition chi(H) >= 3 failed (chi = {r})")
    if prof.hcf_is_one:
        raise ValidationError("precondition hcf(H) != 1 failed (hcf(H) = 1)")
    if n % pattern.n != 0:
        raise ValidationError(f"precondition n divisible by |H| failed ({n} % {pattern.n})")
    lo, hi = n // r, -(-n // r)
    sizes = [lo + 1, hi - 1]
    # the r - 2 tail parts share n - lo - hi, so each gets lo or hi
    base, extra = divmod(n - sum(sizes), r - 2)
    for i in range(r - 2):
        sizes.append(base + (1 if i < extra else 0))
    return tuple(sizes), Fraction(lo), hi, math.ceil(Fraction((r - 1) * n, r)) - 1


_BASE_SIZES = {KOMLOS: _komlos_sizes, KUHN_OSTHUS: _ko_sizes}


class ConstructionSpec(FrozenRecord):
    """Parameters of a full lower-bound instance for K_r(h_1..h_r)."""

    # base_sizes: the base's (part sizes, window low, window high, min
    # degree), derived once; neither compared nor shown
    __slots__ = ("pattern_spec", "n", "mu", "base", "base_sizes")
    _fields = ("pattern_spec", "n", "mu", "base")

    def __init__(self, pattern_spec: MultipartiteSpec, n: int, mu: Fraction,
                 base: str = KOMLOS):
        object.__setattr__(self, "pattern_spec", pattern_spec)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mu", rational(mu, "mu"))
        object.__setattr__(self, "base", base)
        sizes_of = _BASE_SIZES.get(self.base)
        if sizes_of is None:
            raise ValidationError(f"unknown base {self.base!r}")
        pattern = self.pattern()
        prof = chi_star(pattern)
        # the base's own preconditions (chi, hcf, n divisible by |H|)
        object.__setattr__(self, "base_sizes", sizes_of(pattern, prof, self.n))
        r = prof.chi
        upper = (prof.chi_cr + 1 - r) / r
        if not 0 < self.mu < upper:
            raise ValidationError(
                f"mu = {self.mu} outside the open interval (0, {upper})")

    def pattern(self) -> Graph:
        return complete_multipartite(self.pattern_spec)[0]


class Certificates(FrozenRecord):
    # part_internal_degrees: (min, max) per part
    # internal_min_bound: mu*n/2 + 1; internal_max_bound: mu*n
    # f_delta_bound: floor(mu*n)
    __slots__ = _fields = ("min_degree", "min_degree_bound", "part_internal_degrees",
                           "internal_min_bound", "internal_max_bound", "parts_bipartite",
                           "f_delta", "f_delta_bound")

    def __init__(self, min_degree: int, min_degree_bound: Fraction,
                 part_internal_degrees: tuple, internal_min_bound: Fraction,
                 internal_max_bound: Fraction, parts_bipartite: tuple, f_delta: int,
                 f_delta_bound: int):
        object.__setattr__(self, "min_degree", min_degree)
        object.__setattr__(self, "min_degree_bound", min_degree_bound)
        object.__setattr__(self, "part_internal_degrees", part_internal_degrees)
        object.__setattr__(self, "internal_min_bound", internal_min_bound)
        object.__setattr__(self, "internal_max_bound", internal_max_bound)
        object.__setattr__(self, "parts_bipartite", parts_bipartite)
        object.__setattr__(self, "f_delta", f_delta)
        object.__setattr__(self, "f_delta_bound", f_delta_bound)

    def all_hold(self) -> bool:
        return (self.min_degree >= self.min_degree_bound
                and all(lo >= self.internal_min_bound and hi <= self.internal_max_bound
                        for lo, hi in self.part_internal_degrees)
                and all(self.parts_bipartite)
                and self.f_delta <= self.f_delta_bound)

    def to_json_dict(self) -> dict:
        return {
            "min_degree": self.min_degree,
            "min_degree_bound": format_fraction(self.min_degree_bound),
            "part_internal_degrees": [list(t) for t in self.part_internal_degrees],
            "internal_min_bound": format_fraction(self.internal_min_bound),
            "internal_max_bound": format_fraction(self.internal_max_bound),
            "parts_bipartite": list(self.parts_bipartite),
            "f_delta": self.f_delta,
            "f_delta_bound": self.f_delta_bound,
            "all_hold": self.all_hold(),
        }


class ExtremalInstance(FrozenRecord):
    __slots__ = _fields = ("spec", "graph", "partition", "system", "base", "certificates")

    def __init__(self, spec: ConstructionSpec, graph: Graph, partition: VertexPartition,
                 system: IncompatibilitySystem, base: BaseInstance, certificates: Certificates):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "certificates", certificates)


def _bipartite_circulant(block: tuple, d: int) -> list:
    """Spanning bipartite graph on the block: one half of size ceil(s/2),
    each of its vertices joined to d cyclically consecutive vertices of
    the other half.  Degrees land in {d, d+1}; the block needs at least
    2d vertices.
    """
    half = (len(block) + 1) // 2
    xs, ys = block[:half], block[half:]
    return [(x, ys[(i + j) % len(ys)]) for i, x in enumerate(xs) for j in range(d)]


def _is_bipartite(g: Graph, block) -> bool:
    """Two-colorability of the internal graph on ``block`` (independent check)."""
    color = {}
    for start in block:
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in g.neighbors(v):
                if u not in block:
                    continue
                if u not in color:
                    color[u] = color[v] ^ 1
                    queue.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def augment_and_incompat(spec: ConstructionSpec) -> ExtremalInstance:
    """Build the full instance and check every certificate inequality.

    Raises ValidationError with a part-naming diagnostic when the
    requested mu cannot be realized (part too small, or the circulant's
    degree cap mu*n is violated on an odd part), and SizeCapError, before
    anything is built, when the induced system would hold more than
    ``TRIPLE_CAP`` triples.
    """
    pattern = spec.pattern()
    n, mu = spec.n, spec.mu
    d = math.ceil(mu * n / 2) + 1
    # part j's circulant has ceil(s_j/2)*d edges, each incompatible at
    # every vertex outside the part
    triples = sum(-(-s // 2) * d * (n - s) for s in spec.base_sizes[0])
    if triples > TRIPLE_CAP:
        raise SizeCapError(f"the induced system would hold {triples} triples; "
                           f"construct is capped at {TRIPLE_CAP}")
    base = _build_base(pattern, spec.base_sizes)
    blocks = base.partition.blocks

    rows = list(base.graph.adj)
    for pi, block in enumerate(blocks):
        if len(block) < 2 * d:
            raise ValidationError(
                f"part {pi} (size {len(block)}) too small for mu = {mu}: "
                f"needs size >= 2*(ceil(mu*n/2)+1) = {2 * d}")
        for u, v in _bipartite_circulant(block, d):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    graph = Graph(n, rows)

    max_bound = mu * n
    part_windows = []
    for pi, (block, mask) in enumerate(zip(blocks, base.partition.block_masks)):
        degs = [(graph.adj[w] & mask).bit_count() for w in block]
        lo, hi = min(degs), max(degs)
        if hi > max_bound:
            raise ValidationError(
                f"part {pi}: circulant max degree {hi} exceeds mu*n = {max_bound} "
                f"(odd part sizes push one side to d+1)")
        part_windows.append((lo, hi))

    # xy is incompatible with vx and vy at every v outside xy's part: v's row maps each
    # x outside v's part to its circulant neighbours, one read-only row per part
    part, masks = base.partition, base.partition.block_masks
    inner = [graph.adj[x] & masks[part.block_of(x)] for x in range(n)]
    part_rows = [{x: m for x, m in enumerate(inner) if m and not mask >> x & 1}
                 for mask in masks]
    system = IncompatibilitySystem._of_rows(graph, {
        v: part_rows[part.block_of(v)] for v in range(n) if part_rows[part.block_of(v)]})

    certs = Certificates(
        min_degree=graph.min_degree(),
        min_degree_bound=(1 - 1 / chi_star(pattern).chi_star + mu / 2) * n,
        part_internal_degrees=tuple(part_windows),
        internal_min_bound=mu * n / 2 + 1,
        internal_max_bound=max_bound,
        parts_bipartite=tuple(_is_bipartite(graph, set(b)) for b in blocks),
        f_delta=system.delta,
        f_delta_bound=math.floor(mu * n),
    )
    if not certs.all_hold():
        raise ValidationError(f"certificate inequalities failed: {certs.to_json_dict()}")
    return ExtremalInstance(spec, graph, base.partition, system, base, certs)


class ClaimReport(FrozenRecord):
    # status: true / false / indeterminate
    # witness: the violating Embedding when status == "false"
    __slots__ = _fields = ("status", "copies_checked", "witness")

    def __init__(self, status: str, copies_checked: int, witness: object = None):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "copies_checked", copies_checked)
        object.__setattr__(self, "witness", witness)


def verify_index_vector_claim(inst: ExtremalInstance,
                              budget: int = solver.DEFAULT_BUDGET) -> ClaimReport:
    """Is every compatible copy of the pattern transversal?

    Enumerates all compatible copies in the full augmented graph and
    checks each copy's index vector against the construction partition:
    it must be a permutation of (h_1..h_r).  Needs r >= 3 (with two parts
    an in-part edge need not close a triangle, so the forcing argument
    has no teeth).
    """
    hs = inst.spec.pattern_spec
    if hs.r < 3:
        raise ValidationError("index-vector claim needs r >= 3")
    pattern = inst.spec.pattern()
    enum = solver.enumerate_compatible_copies(pattern, inst.graph, inst.system,
                                              budget=budget)
    want = tuple(sorted(hs.sizes))
    for i, mask in enumerate(enum.masks):
        if tuple(sorted(mask_index_vector(mask, inst.partition))) != want:
            return ClaimReport("false", len(enum.masks), enum.embedding(i))
    if enum.truncated:
        return ClaimReport("indeterminate", len(enum.masks))
    return ClaimReport("true", len(enum.masks))


def detect_multipartite(g: Graph) -> MultipartiteSpec:
    """Recognize a complete multipartite graph; returns its part sizes
    (parts ordered by minimum vertex) or raises ValidationError.

    The complement of K_r(h_1..h_r) is a disjoint union of cliques, so
    the candidate parts are the complement's components; each vertex is
    then checked against the definition, adjacent to exactly the vertices
    outside its part.
    """
    full = (1 << g.n) - 1
    parts = complement_components(g, full)
    for part in parts:
        others = full & ~part
        for v in bits(part):
            if g.adj[v] != others:
                fault = "edge inside a part" if g.adj[v] & part else "missing cross edge"
                raise ValidationError(f"not complete multipartite: {fault}")
    return MultipartiteSpec(tuple(p.bit_count() for p in parts))
