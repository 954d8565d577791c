"""Shared test helpers: seeded random graphs and systems, integer combinations."""

import random

from comptile.graphs import Graph
from comptile.incompat import IncompatibilitySystem


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_system(g: Graph, pairs: int, seed: int) -> IncompatibilitySystem:
    """Uniformly drawn incident-pair triples, deduplicated by the system."""
    rng = random.Random(seed)
    cand = []
    for v in range(g.n):
        nbrs = g.neighbors(v)
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                cand.append((v, nbrs[i], nbrs[j]))
    rng.shuffle(cand)
    return IncompatibilitySystem(g, cand[:pairs])


def assert_canonical(f: IncompatibilitySystem):
    """``f`` holds the rows the checking constructor folds from its triples,
    in the same order at both levels: vertices, and each row's keys,
    ascending."""
    assert list(f.inc) == sorted(f.inc)
    assert all(list(row) == sorted(row) for row in f.inc.values())
    rebuilt = IncompatibilitySystem(f.graph, f.triples())
    assert [(v, list(row.items())) for v, row in f.inc.items()] \
        == [(v, list(row.items())) for v, row in rebuilt.inc.items()]


def combination(coeffs, gens, dim: int) -> list:
    """sum_i coeffs[i] * gens[i] as a list of `dim` integers."""
    return [sum(a * g[c] for a, g in zip(coeffs, gens)) for c in range(dim)]
