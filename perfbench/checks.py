"""Reference checks run on a pass's answers, outside the timed region.

Each check returns a list of problems (empty when the answer holds up).
The reference counters here are written from the definitions, apart from
the library's search code: they read the system only through
``IncompatibilitySystem.triples()``.  On small inputs the answers are also
compared with ``comptile.oracles``.  Found tilings are checked for
validity, never for equality, so a different valid tiling passes.
"""

from __future__ import annotations

import json
import os
from itertools import combinations, permutations
from types import SimpleNamespace


def triple_set(f) -> set:
    return set(f.triples())


def _incompatible(triples, v, a, b) -> bool:
    return (v, min(a, b), max(a, b)) in triples


def _adjacent(g, u, v) -> bool:
    return bool(g.adj[u] >> v & 1)


def ref_clique_count(k, g, triples) -> int:
    count = 0
    for vs in combinations(range(g.n), k):
        if not all(_adjacent(g, a, b) for a, b in combinations(vs, 2)):
            continue
        if all(not _incompatible(triples, v, a, b)
               for v in vs for a, b in combinations([x for x in vs if x != v], 2)):
            count += 1
    return count


def ref_c4_count(g, triples) -> int:
    count = 0
    for a, b, c, d in combinations(range(g.n), 4):
        for cyc in ((a, b, c, d), (a, b, d, c), (a, c, b, d)):
            if not all(_adjacent(g, cyc[i], cyc[(i + 1) % 4]) for i in range(4)):
                continue
            if all(not _incompatible(triples, cyc[i], cyc[i - 1], cyc[(i + 1) % 4])
                   for i in range(4)):
                count += 1
    return count


def ref_bad_pairs(g, triples, v) -> int:
    nbrs = [u for u in range(g.n) if _adjacent(g, v, u)]
    count = 0
    for v1, v2 in combinations(nbrs, 2):
        if _incompatible(triples, v, v1, v2) or (
                _adjacent(g, v1, v2) and (_incompatible(triples, v1, v, v2)
                                          or _incompatible(triples, v2, v, v1))):
            count += 1
    return count


def tiling_problems(pattern, g, triples, embeddings, cover: bool) -> list:
    """Vertex-disjoint, adjacency-preserving, compatible copies (covering g)."""
    used = set()
    for emb in embeddings:
        phi = tuple(emb.phi)
        if len(phi) != pattern.n or len(set(phi)) != pattern.n:
            return [f"copy {phi} is not injective"]
        if used & set(phi):
            return [f"copy {phi} overlaps another copy"]
        used |= set(phi)
        at = {}
        for u, w in pattern.edges():
            x, y = phi[u], phi[w]
            if not _adjacent(g, x, y):
                return [f"copy {phi} maps a pattern edge to a non-edge"]
            at.setdefault(x, []).append(y)
            at.setdefault(y, []).append(x)
        for x, others in at.items():
            if any(_incompatible(triples, x, a, b) for a, b in combinations(others, 2)):
                return [f"copy {phi} is not compatible at {x}"]
    if cover and used != set(range(g.n)):
        return ["tiling does not cover the host"]
    return []


def check_enumeration(lib, case, res) -> list:
    f, enum, worst = res
    host, pattern = case["host"], case["pattern"]
    triples = triple_set(f)
    problems = []
    if not enum.truncated:
        if pattern.m == pattern.n * (pattern.n - 1) // 2:
            want = ref_clique_count(pattern.n, host, triples)
        else:
            want = ref_c4_count(host, triples)
        if len(enum.copies) != want:
            problems.append(f"{len(enum.copies)} copies, reference counts {want}")
    ref_worst = max(ref_bad_pairs(host, triples, v) for v in range(host.n))
    if worst != ref_worst:
        problems.append(f"worst bad pairs {worst}, reference {ref_worst}")
    if host.n <= 16 and not enum.truncated:
        raw = lib.oracles.raw_compatible_copies(pattern, host, f)
        if {(e.vertices, e.edges) for e in enum.copies} != raw:
            problems.append("copies differ from oracles.raw_compatible_copies")
    return problems


def _system(lib, case):
    f = case["system"]
    return f if f is not None else lib.incompat.IncompatibilitySystem.empty(case["host"])


def check_factor(lib, case, res) -> list:
    f = _system(lib, case)
    problems = []
    if res.status == "found":
        problems += tiling_problems(case["pattern"], case["host"], triple_set(f),
                                    res.tiling.embeddings, cover=True)
    if case.get("oracle"):
        raw = lib.oracles.raw_compatible_copies(case["pattern"], case["host"], f)
        if res.reason != "divisibility" and res.copies_considered != len(raw):
            problems.append(f"{res.copies_considered} copies, oracle has {len(raw)}")
        has = lib.oracles.raw_factor_exists(case["pattern"], case["host"], f)
        if res.status in ("found", "none") and (res.status == "found") != has:
            problems.append(f"status {res.status}, oracle factor_exists={has}")
    return problems


def check_max_tiling(lib, case, res) -> list:
    return tiling_problems(case["pattern"], case["host"], triple_set(case["system"]),
                           res.tiling.embeddings, cover=False)


def check_greedy(lib, case, res) -> list:
    return tiling_problems(case["pattern"], case["host"], triple_set(case["system"]),
                           res.embeddings, cover=False)


class RefGraph:
    """A graph read from the library's text format by the checks' own parser."""

    def __init__(self, n, edges):
        self.n = n
        self._edges = sorted(edges)
        self.adj = [0] * n
        for u, v in self._edges:
            self.adj[u] |= 1 << v
            self.adj[v] |= 1 << u

    def edges(self):
        return self._edges


def _rows(path) -> list:
    """Integer rows of a text file, skipping blank and comment lines."""
    with open(path, encoding="ascii") as fh:
        return [tuple(int(tok) for tok in line.split()) for line in fh
                if line.strip() and not line.lstrip().startswith("#")]


def read_graph(path) -> RefGraph:
    rows = _rows(path)
    return RefGraph(rows[0][0], rows[1:])


def read_instance(out_dir):
    """(host, incompatible triples, partition blocks) as construct wrote them."""
    host = read_graph(os.path.join(out_dir, "graph.txt"))
    triples = {(v, min(a, b), max(a, b))
               for v, a, b in _rows(os.path.join(out_dir, "incompat.txt"))}
    return host, triples, _rows(os.path.join(out_dir, "partition.txt"))


def k3_reference(host, triples, blocks):
    """(compatible triangles, whether all are transversal, whether a K_3-factor
    is ruled out).  When every compatible triangle meets each of the three
    blocks once, a K_3-factor needs equal block sizes."""
    block = {v: i for i, b in enumerate(blocks) for v in b}
    tris = [vs for vs in combinations(range(host.n), 3)
            if all(_adjacent(host, a, b) for a, b in combinations(vs, 2))
            and not any(_incompatible(triples, v, *[x for x in vs if x != v]) for v in vs)]
    transversal = all(len({block[v] for v in vs}) == 3 for vs in tris)
    ruled_out = len(blocks) == 3 and transversal and len({len(b) for b in blocks}) > 1
    return len(tris), transversal, ruled_out


def copy_on(pattern, g, triples, vertices):
    """A map of ``pattern`` onto ``vertices`` that is a compatible copy, or None."""
    for phi in permutations(vertices):
        if not tiling_problems(pattern, g, triples, [SimpleNamespace(phi=phi)], cover=False):
            return phi
    return None


def check_construct(lib, spec, res) -> list:
    """The base the construction starts from is complete multipartite with the
    reported sizes; for K_3 on three parts it has a factor exactly when the
    sizes are equal."""
    code, out, err = res
    if code != 0:
        return [f"construct exited {code}: {err.strip()}"]
    missing = [name for name in ("graph.txt", "partition.txt", "incompat.txt",
                                 "certificates.json")
               if not os.path.exists(os.path.join(spec["out"], name))]
    if missing:
        return [f"construct did not write {missing}"]
    rep = json.loads(out)["construct"]
    base = rep["base_report"]
    problems = []
    if not rep["certificates"]["all_hold"]:
        problems.append("construct reports certificates that do not hold")
    _, _, blocks = read_instance(spec["out"])
    if sorted(len(b) for b in blocks) != sorted(base["sizes"]):
        problems.append(f"partition sizes differ from the base sizes {base['sizes']}")
    if spec["pattern"] == "K3" and len(base["sizes"]) == 3:
        has = len(set(base["sizes"])) == 1
        if (base["factor_status"] == "factor_exists" and not has) or (
                base["factor_status"] == "confirmed_absent" and has):
            problems.append(f"base factor status {base['factor_status']}, "
                            f"but the base sizes are {base['sizes']}")
    return problems


def check_solve(lib, spec, res) -> list:
    code, out, err = res
    if code not in (0, 1, 2):
        return [f"solve exited {code}: {err.strip()}"]
    rep = json.loads(out)
    if rep["status"] != "found":
        return []
    host, triples, blocks = read_instance(spec["out"])
    if spec["pattern"] == "K3" and k3_reference(host, triples, blocks)[2]:
        return ["solve found a factor, but every compatible triangle is transversal "
                "and the part sizes differ"]
    pattern = read_graph(spec["pattern_path"])
    copies = []
    for vertices in rep["tiling"]:
        phi = copy_on(pattern, host, triples, vertices)
        if phi is None:
            return [f"found copy {vertices} is not a compatible copy of the pattern"]
        copies.append(SimpleNamespace(phi=phi))
    return tiling_problems(pattern, host, triples, copies, cover=True)


def check_lattice(lib, spec, res) -> list:
    """For K_3 the reference triangle count must match the generators, and
    with only transversal copies (index vector (1,...,1)) the part sizes lie
    in the lattice exactly when they are all equal."""
    transversal, generators, member = res
    if generators == 0:
        return ["no compatible copies to generate the lattice"]
    if spec["pattern"] != "K3":
        return []
    count, ref_transversal, ruled_out = k3_reference(*read_instance(spec["out"]))
    problems = []
    if (generators, transversal) != (count, ref_transversal):
        problems.append(f"{generators} generators (transversal {transversal}), reference "
                        f"{count} compatible triangles (transversal {ref_transversal})")
    if ref_transversal and member == ruled_out:
        problems.append(f"lattice membership {member}, but the part sizes "
                        f"{'differ' if ruled_out else 'are equal'}")
    return problems


def check_gadget(gad, res) -> list:
    chained, absorber = res
    h = gad["h"]
    _, _, s1, s2 = gad["conn"]
    problems = []
    if tuple(chained.s) != tuple(sorted(set(s1) | set(s2) | {1})):
        problems.append("chained connector interior is not S1 u S2 u {mid}")
    if len(chained.s) > h * chained.t - 1:
        problems.append("chained connector breaks the size law")
    if len(absorber.a_set) > h * h * absorber.t:
        problems.append("absorber breaks the size law")
    return problems


def check_counting(lib, counting, sizes, rep) -> list:
    g, f, parts = counting
    problems = []
    free = lib.oracles.raw_transversal_count(sizes, g, None, parts)
    cons = lib.oracles.raw_transversal_count(sizes, g, f, parts)
    if (rep.total, rep.compatible) != (free, cons):
        problems.append(f"counts {rep.total}/{rep.compatible}, oracle {free}/{cons}")
    return problems
