"""Index vectors and integer lattices generated by them.

The lattice generated by a list of integer k-vectors is decided through a
row-style Hermite normal form computed over Python's arbitrary-precision
integers, with the unimodular row transform tracked so that a positive
membership answer comes with integer coefficients over the ORIGINAL
generators.  A negative answer comes with a dual certificate instead: a
rational vector y with y.g an integer for every generator g and y.x not,
which no lattice member can satisfy.  Both certificates are re-multiplied
before being returned.

The lattices of the construction have one generator per compatible copy,
thousands of them in a handful of dimensions, and few of them distinct: at
m = 2730 (K_3 at n = 42) the copies give 1 to 3 distinct index vectors.
So the HNF runs over the distinct generators, in the order of their first
occurrence, and the transform maps each back to its first index: the
coefficients stay over the full list, 0 on every repeated generator, and
a list without repeats is reduced as it stands.  The
transform is stored as one sparse row per distinct generator, a
``{generator index: coefficient}`` dict that starts as ``{i: 1}``, so a row
operation costs the size of the row it subtracts instead of the number of
generators.

An index vector counts a vertex set per block with one popcount per
block, against block masks that ``VertexPartition`` builds once.

``obstruction`` is the factor test that the solver and the construction
share: Keevash and Mycroft's divisibility barrier (Mem. AMS 2015; Han,
Trans. AMS 2017).  Over any partition of a pool, a factor's copies have
index vectors summing to the part sizes, so sizes outside the lattice of
the copies' vectors rule every factor out.  With two parts, and every
vector summing to one h > 0 that divides the size sum t * h, each vector
is (a, h - a) and the coefficients of a combination reaching the sizes
sum to t, so the sizes are a member exactly when s0 - t * a0 is a
multiple of the gcd of the differences a - a0.  That case skips the HNF,
which costs more than a tiny cover search (15-35 us on 2-vectors; without
it the median search-exact tiny query was 14% slower, a third of those
queries having two parts).  A refutation still builds the lattice for y.

A transferral is a difference u_i - u_j of unit vectors lying in the
lattice; the scan over ordered pairs is deterministic and the degenerate
pair i == j is rejected.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import gcd, lcm
from operator import index

from .errors import ConsistencyError, ValidationError
from .graphs import VertexPartition


def index_vector(s, p: VertexPartition) -> tuple:
    """i-th coordinate = |S intersect V_i|.  S must lie in the ground set."""
    n = p.n
    mask = size = 0
    for v in s:
        if not 0 <= v < n:
            raise ValidationError("vertex outside the partition's ground set")
        mask |= 1 << v
        size += 1
    if mask.bit_count() != size:
        raise ValidationError("index_vector expects a set (duplicate vertex)")
    return mask_index_vector(mask, p)


def mask_index_vector(mask: int, p: VertexPartition) -> tuple:
    """The index vector of the vertex set ``mask``, one popcount per block;
    unchecked: ``mask`` must lie in the ground set."""
    return tuple([(mask & b).bit_count() for b in p.block_masks])


def _sub_row(target: dict, q: int, source: dict) -> None:
    """target -= q * source on sparse rows, dropping entries that reach 0."""
    for s, a in source.items():
        v = target.get(s, 0) - q * a
        if v:
            target[s] = v
        else:
            del target[s]


def _hnf_with_transform(rows: list, dim: int) -> tuple:
    """Row HNF of the matrix with the given rows.

    Returns (hnf_rows, transform, pivots) with transform @ rows == hnf_rows
    over the integers and pivots a list of (row_index, column) pairs for
    the non-zero rows.  Pivots are positive; entries above a pivot are
    reduced into [0, pivot).  transform[r] is row r as a sparse
    {generator index: non-zero coefficient} dict.
    """
    m = len(rows)
    h = [list(r) for r in rows]
    u = [{i: 1} for i in range(m)]
    row = 0
    pivots = []
    for col in range(dim):
        # gcd-reduce all entries below `row` in this column into one row
        while True:
            nz = [r for r in range(row, m) if h[r][col] != 0]
            if not nz:
                break
            r0 = min(nz, key=lambda r: (abs(h[r][col]), r))
            if r0 != row:
                h[row], h[r0] = h[r0], h[row]
                u[row], u[r0] = u[r0], u[row]
            done = True
            for r in range(row + 1, m):
                if h[r][col]:
                    q = h[r][col] // h[row][col]
                    for c in range(dim):
                        h[r][c] -= q * h[row][c]
                    _sub_row(u[r], q, u[row])
                    if h[r][col]:
                        done = False
            if done:
                break
        if row < m and h[row][col] != 0:
            if h[row][col] < 0:
                h[row] = [-x for x in h[row]]
                u[row] = {s: -a for s, a in u[row].items()}
            for r in range(row):
                q = h[r][col] // h[row][col]
                if q:
                    for c in range(dim):
                        h[r][c] -= q * h[row][c]
                    _sub_row(u[r], q, u[row])
            pivots.append((row, col))
            row += 1
            if row == m:
                break
    return h, u, pivots


def _integers(vector, what: str) -> tuple:
    """The entries of ``vector`` as ints; an entry that is not an integer
    (1.5, "2", Fraction(1, 2)) raises ValidationError naming ``what``,
    where ``int`` would have truncated it."""
    try:
        return tuple(map(index, vector))
    except TypeError:
        raise ValidationError(f"{what} has an entry that is not an integer") from None


class GeneratedLattice:
    """Integer span of a generator list, with HNF basis cached.

    The HNF is taken over the distinct generators, in the order of their
    first occurrence; ``generators`` keeps the full list, and membership
    coefficients are over it, 0 on every repeated generator.
    """

    def __init__(self, generators, dim: int = None):
        first = {}    # distinct generator -> index of its first occurrence
        gens = []     # a repeated generator is the tuple of its first occurrence
        for pos, g in enumerate(generators):
            g = _integers(g, f"generator {pos}")
            i = first.setdefault(g, len(gens))
            gens.append(gens[i] if i < len(gens) else g)
        if dim is None:
            if not gens:
                raise ValidationError("dimension required for an empty generator list")
            dim = len(gens[0])
        if dim < 0:
            raise ValidationError(f"lattice dimension must be >= 0, got {dim}")
        for g, i in first.items():  # first-occurrence order: the first misfit comes first
            if len(g) != dim:
                raise ValidationError(
                    f"generators have mixed dimensions: generator {i} has width "
                    f"{len(g)}, expected {dim}")
        self.generators = gens
        self.dim = dim
        self._distinct = list(first)
        self._first = list(first.values())
        self._hnf, self._transform, self._pivots = _hnf_with_transform(self._distinct, dim)

    def membership(self, x) -> tuple:
        """(True, coefficients over the original generators) or (False, y),
        y a rational vector with y.g an integer for every generator g and
        y.x not; either certificate is checked before it is returned."""
        x = list(_integers(x, "target"))
        if len(x) != self.dim:
            raise ValidationError(f"vector has dimension {len(x)}, lattice has {self.dim}")
        quotients, y = _reduce(self._hnf, self._pivots, x)
        if quotients is None:
            if not refutes(y, self._distinct, x):
                raise ConsistencyError("non-membership certificate failed to separate the target")
            return False, y
        coeffs = [0] * len(self.generators)
        first = self._first
        for (row, _), q in zip(self._pivots, quotients):
            if q:
                for s, a in self._transform[row].items():
                    coeffs[first[s]] += q * a
        # certificate check: the returned coefficients must reproduce x
        rebuilt = [0] * self.dim
        for a, gen in zip(coeffs, self.generators):
            if a:
                for c in range(self.dim):
                    rebuilt[c] += a * gen[c]
        if rebuilt != x:
            raise ConsistencyError("membership certificate failed to reproduce the target")
        return True, tuple(coeffs)


def _dual(h: list, pivots: list, dim: int, col: int, den: int) -> tuple:
    """The rational dim-vector y with y[col] = 1/den, y.h[row] = 0 for each (row, c)
    in ``pivots`` (all with c < col), and y zero off col and those c.

    Back-substitution from the last of those pivots to the first: each
    fixes y at its pivot column, which no later pivot row reaches.  The
    arithmetic stays in integers, y = z / d, and d grows only by what a
    pivot does not divide.
    """
    z = [0] * dim
    z[col] = 1
    d = den
    for row, c in reversed(pivots):
        piv = h[row][c]
        s = sum(a * b for a, b in zip(z, h[row]))
        grow = piv // gcd(s, piv)
        if grow > 1:
            z = [grow * a for a in z]
            d *= grow
            s *= grow
        z[c] = -s // piv
    return tuple(Fraction(a, d) for a in z)


def _reduce(h: list, pivots: list, x: list) -> tuple:
    """x reduced by the HNF rows in pivot order.

    (quotients, None) when x = sum of quotients[j] * h[pivots[j][0]], else
    (None, y) with y.h[row] an integer for every row and y.x not.  Either
    a pivot fails to divide what is left in its column (y gives that pivot
    row 1/pivot of a unit and every earlier row 0, so y.x is the left-over
    over the pivot), or something is left off the pivot columns, x lies
    outside the rational span, and y is orthogonal to every row with y.x
    = 1/2.
    """
    residual = list(x)
    quotients = []
    for j, (row, col) in enumerate(pivots):
        piv = h[row][col]
        q, rem = divmod(residual[col], piv)
        if rem:
            return None, _dual(h, pivots[:j], len(x), col, piv)
        if q:
            residual = [a - q * b for a, b in zip(residual, h[row])]
        quotients.append(q)
    for col, a in enumerate(residual):
        if a:
            return None, _dual(h, [p for p in pivots if p[1] < col], len(x), col, 2 * a)
    return quotients, None


def refutes(y, generators, x) -> bool:
    """True when y.g is an integer for every generator g and y.x is not:
    then x lies outside the lattice the generators span.  The entries of
    y are ints or Fractions."""
    if any(len(v) != len(y) for v in (x, *generators)):
        return False
    d = lcm(*(a.denominator for a in y))
    z = [a.numerator * (d // a.denominator) for a in y]
    return (all(sum(a * b for a, b in zip(z, g)) % d == 0 for g in generators)
            and sum(a * b for a, b in zip(z, x)) % d != 0)


def obstruction(vectors, sizes):
    """None when ``sizes`` lies in the lattice the index ``vectors`` (tuples,
    repeats allowed) generate, else the dual certificate y that
    ``membership`` gives, and checks, over the sorted distinct vectors."""
    gens = sorted(set(vectors))
    h = sum(gens[0]) if gens else 0
    if (len(sizes) == 2 and h > 0 and not sum(sizes) % h
            and set(map(len, gens)) == {2} and set(map(sum, gens)) == {h}):
        a0 = gens[0][0]
        rest = sizes[0] - sum(sizes) // h * a0
        d = gcd(*[v[0] - a0 for v in gens])
        if not (rest % d if d else rest):
            return None
    member, y = GeneratedLattice(gens, len(sizes)).membership(sizes)
    return None if member else y


def unit_vector(i: int, k: int) -> tuple:
    if not 0 <= i < k:
        raise ValidationError(f"unit vector index {i} outside 0..{k - 1}")
    return tuple(1 if j == i else 0 for j in range(k))


def find_transferral(lattice: GeneratedLattice) -> tuple:
    """First ordered pair (i, j), i != j, with u_i - u_j in the lattice.

    Returns (i, j, coefficients) or None.  Indices are 0-based; the scan
    order is lexicographic over ordered pairs.
    """
    k = lattice.dim
    for i, j in permutations(range(k), 2):
        target = tuple((1 if c == i else 0) - (1 if c == j else 0) for c in range(k))
        member, coeffs = lattice.membership(target)
        if member:
            return i, j, coeffs
    return None

