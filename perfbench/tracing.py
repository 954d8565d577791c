"""Span recorder for the traced run, and the per-layer metrics built from it.

``Tracer.install`` wraps the public functions and methods of every layer
module with a recorder and patches every place they are bound: the
defining module, every other ``comptile`` module that imported the name
(``cli.chi_star``, ``absorb.index_vector``, ...), and the class attribute
for methods.  A span records name, start, end, parent span and query id;
spans stay in memory and are written out by ``write``.  A layer's self time
is its spans' duration minus the part their child spans cover.

Span times are process CPU time, like the end-to-end metrics.

Constant-time accessors are not wrapped: a span would cost more than the
call.  The compatibility checks and ``index_vector`` run up to millions of
times per pass, so they are recorded as one aggregate per (name, parent
span, query) with a call count and total time instead of one span per call.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from fractions import Fraction
from itertools import count

PACKAGE = "comptile"
LAYERS = ("graphs", "incompat", "coloring", "solver", "construct", "lattice",
          "absorb", "regularity", "cli")

UNWRAPPED = {
    "incompat.edge_key", "graphs.Graph.has_edge", "graphs.Graph.degree",
    "graphs.Graph.neighbors", "graphs.Graph.edges", "graphs.VertexPartition.block_of",
    "incompat.IncompatibilitySystem.pairs_at",
    "incompat.IncompatibilitySystem.partner_count", "solver.Embedding.from_phi",
}
AGGREGATED = {
    "incompat.IncompatibilitySystem.are_compatible",
    "incompat.IncompatibilitySystem.is_compatible_subgraph",
    "lattice.index_vector",
}
CLOCK = time.process_time

# constructors whose spans the per-layer metrics need
TRACED_INITS = {"incompat.IncompatibilitySystem", "lattice.GeneratedLattice"}


def _enum_work(args, kwargs, res):
    return {"expansions": res.expansions, "copies": len(res.copies),
            "truncated": res.truncated}


def _scan_work(args, kwargs, res):
    """Sub-pairs (A, B) the definition quantifies over, computed from side sizes."""
    nx, ny = len(set(args[1])), len(set(args[2]))
    eps = Fraction(args[3] if len(args) > 3 else kwargs["eps"])

    def admissible(k):
        return sum(math.comb(k, s) for s in range(1, k + 1)
                   if s * eps.denominator >= eps.numerator * k)

    return {"subpairs": admissible(nx) * admissible(ny)}


HOOKS = {
    "solver.enumerate_compatible_copies": _enum_work,
    "solver.enumerate_transversal_copies": _enum_work,
    "solver.find_compatible_factor":
        lambda a, k, r: {"expansions": r.expansions, "status": r.status},
    "solver.max_compatible_tiling":
        lambda a, k, r: {"expansions": r.expansions, "optimal": r.optimal},
    "incompat.IncompatibilitySystem.__init__": lambda a, k, r: {"triples": a[0].total_pairs},
    "lattice.GeneratedLattice.__init__": lambda a, k, r: {"generators": len(a[0].generators)},
    "construct.komlos_base": lambda a, k, r: {"status": r.factor_status},
    "construct.kuhn_osthus_base": lambda a, k, r: {"status": r.factor_status},
    "regularity.is_eps_regular_exhaustive": _scan_work,
}


class Tracer:
    def __init__(self):
        self.spans = []        # [id, name, start, end, parent, query, self, work]
        self.aggregates = {}   # (name, parent, query) -> [calls, total, first start, last end]
        self.query = None
        self._root = [0, "", 0.0, 0.0]
        self._stack = [self._root]
        self._ids = count(1)
        self._patches = []     # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, CLOCK
        hook = HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            frame = [next(ids), name, 0.0, 0.0]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                parent[3] += t1 - t0
                record = [frame[0], name, t0, t1, parent[0], tracer.query,
                          t1 - t0 - frame[3], None]
                spans.append(record)
            if hook is not None:
                record[7] = hook(args, kwargs, result)
            return result

        return traced

    def _aggregate_wrapper(self, name, fn):
        stack, aggregates, clock = self._stack, self.aggregates, CLOCK
        tracer = self

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                parent = stack[-1]
                parent[3] += t1 - t0
                key = (name, parent[0], tracer.query)
                rec = aggregates.get(key)
                if rec is None:
                    aggregates[key] = [1, t1 - t0, t0, t1]
                else:
                    rec[0] += 1
                    rec[1] += t1 - t0
                    rec[3] = t1

        return traced

    def _wrap(self, name, fn):
        if name in AGGREGATED:
            return self._aggregate_wrapper(name, fn)
        return self._span_wrapper(name, fn)

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        functions = {}   # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if isinstance(obj, type):
                    self._install_class(layer, obj)
                elif callable(obj) and name not in UNWRAPPED:
                    functions[id(obj)] = (obj, self._wrap(name, obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = functions.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def _install_class(self, layer, cls):
        prefix = f"{layer}.{cls.__qualname__}"
        for attr, obj in list(vars(cls).items()):
            name = f"{prefix}.{attr}"
            if name in UNWRAPPED:
                continue
            if attr == "__init__" and prefix in TRACED_INITS:
                self._patch(cls, attr, self._wrap(name, obj))
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(name, obj))
            elif isinstance(obj, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, obj.__func__)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def write(self, path: str, origin: float):
        with open(path, "w", encoding="ascii") as fh:
            for sid, name, t0, t1, parent, query, self_s, work in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0 - origin,
                                     "end": t1 - origin, "parent": parent, "query": query,
                                     "self": self_s, "work": work}) + "\n")
            for (name, parent, query), (calls, total, t0, t1) in self.aggregates.items():
                fh.write(json.dumps({"aggregate": name, "parent": parent, "query": query,
                                     "calls": calls, "total": total,
                                     "start": t0 - origin, "end": t1 - origin}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

# name -> (unit, better); the order is the order they are printed in
PER_LAYER = {
    "incompat.build_ms": ("ms", "lower"),
    "incompat.triples": ("count", "lower"),
    "incompat.compat_checks": ("count", "lower"),
    "incompat.compat_ms": ("ms", "lower"),
    "incompat.bad_pairs_ms": ("ms", "lower"),
    "incompat.induced_ms": ("ms", "lower"),
    "graphs.induced_ms": ("ms", "lower"),
    "graphs.induced_calls": ("count", "lower"),
    "graphs.io_ms": ("ms", "lower"),
    "solver.enum_ms": ("ms", "lower"),
    "solver.enum_expansions": ("count", "lower"),
    "solver.enum_copies": ("count", "lower"),
    "solver.enum_yield": ("ratio", "higher"),
    "solver.cover_ms": ("ms", "lower"),
    "solver.cover_expansions": ("count", "lower"),
    "solver.cover_rate": ("1/s", "higher"),
    "solver.bnb_ms": ("ms", "lower"),
    "solver.bnb_expansions": ("count", "lower"),
    "solver.greedy_ms": ("ms", "lower"),
    "solver.transversal_ms": ("ms", "lower"),
    "solver.transversal_expansions": ("count", "lower"),
    "solver.undecided": ("count", "lower"),
    "construct.augment_ms": ("ms", "lower"),
    "construct.base_ms": ("ms", "lower"),
    "construct.probe_expansions": ("count", "lower"),
    "construct.unverified": ("count", "lower"),
    "coloring.chi_star_ms": ("ms", "lower"),
    "coloring.chi_star_calls": ("count", "lower"),
    "lattice.hnf_ms": ("ms", "lower"),
    "lattice.generators": ("count", "lower"),
    "lattice.membership_ms": ("ms", "lower"),
    "lattice.index_vector_ms": ("ms", "lower"),
    "absorb.connector_ms": ("ms", "lower"),
    "absorb.connector_searches": ("count", "lower"),
    "absorb.verify_ms": ("ms", "lower"),
    "absorb.verify_calls": ("count", "lower"),
    "absorb.factor_checks": ("count", "lower"),
    "regularity.scan_ms": ("ms", "lower"),
    "regularity.scans": ("count", "lower"),
    "regularity.subpairs": ("count", "lower"),
    "regularity.counting_ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

BUILD = {"incompat.IncompatibilitySystem.__init__", "incompat.random_bounded_system",
         "incompat.parse_system", "incompat.parse_system_any", "incompat.system_from_json",
         "incompat.IncompatibilitySystem.induced", "incompat.IncompatibilitySystem.with_added",
         "incompat.IncompatibilitySystem.empty"}
COMPAT = {"incompat.IncompatibilitySystem.are_compatible",
          "incompat.IncompatibilitySystem.is_compatible_subgraph"}
GRAPH_IO = {"graphs.format_graph", "graphs.parse_graph", "graphs.format_partition",
            "graphs.parse_partition"}
BASES = {"construct.komlos_base", "construct.kuhn_osthus_base"}
VERIFY = {"absorb.verify_absorber", "absorb.verify_connector", "absorb.verify_absorbing_set"}
ENUM = "solver.enumerate_compatible_copies"
FACTOR = "solver.find_compatible_factor"
MAX = "solver.max_compatible_tiling"


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics per traced pass (totals divided by ``passes``)."""
    spans = {s[0]: s for s in tracer.spans}
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s[1], []).append(s)

    def named(names):
        return [s for n in names for s in by_name.get(n, ())]

    def inclusive_ms(names, outermost=False):
        total = 0.0
        for s in named(names):
            if outermost and _has_ancestor(spans, s, names):
                continue
            total += s[3] - s[2]
        return 1000 * total

    def self_ms(names):
        return 1000 * sum(s[6] for s in named(names))

    def work(names, key):
        return sum((s[7] or {}).get(key, 0) for s in named(names))

    def child_work(parent_names, child, key):
        """Work of ``child`` spans under a completed (non-raising) parent span."""
        return sum((s[7] or {}).get(key, 0) for s in by_name.get(child, ())
                   if s[4] in spans and spans[s[4]][1] in parent_names
                   and spans[s[4]][7] is not None)

    def agg(names):
        calls = total = 0
        for (name, _, _), rec in tracer.aggregates.items():
            if name in names:
                calls += rec[0]
                total += rec[1]
        return calls, 1000 * total

    compat_calls, compat_ms = agg(COMPAT)
    _, index_ms = agg({"lattice.index_vector"})
    enum_exp = work([ENUM], "expansions")
    enum_copies = work([ENUM], "copies")
    cover_exp = work([FACTOR], "expansions") - child_work({FACTOR}, ENUM, "expansions")
    cover_ms = self_ms([FACTOR])
    layer_names = {n for n in by_name if n.split(".", 1)[0] in LAYERS}
    undecided = (sum(1 for s in by_name.get(FACTOR, ()) if (s[7] or {}).get("status")
                     == "indeterminate")
                 + sum(1 for s in by_name.get(MAX, ()) if not (s[7] or {}).get("optimal", True))
                 + sum(1 for s in by_name.get(ENUM, ()) if (s[7] or {}).get("truncated")
                       and not (s[4] in spans and spans[s[4]][1].startswith("solver."))))
    absorb_names = {n for n in layer_names if n.startswith("absorb.")}
    values = {
        "incompat.build_ms": inclusive_ms(BUILD, outermost=True),
        "incompat.triples": work(["incompat.IncompatibilitySystem.__init__"], "triples"),
        "incompat.compat_checks": compat_calls,
        "incompat.compat_ms": compat_ms,
        "incompat.bad_pairs_ms": inclusive_ms(["incompat.count_bad_pairs_at"]),
        "incompat.induced_ms": inclusive_ms(["incompat.IncompatibilitySystem.induced"]),
        "graphs.induced_ms": inclusive_ms(["graphs.Graph.induced"]),
        "graphs.induced_calls": len(by_name.get("graphs.Graph.induced", ())),
        "graphs.io_ms": inclusive_ms(GRAPH_IO),
        "solver.enum_ms": self_ms([ENUM]),
        "solver.enum_expansions": enum_exp,
        "solver.enum_copies": enum_copies,
        "solver.cover_ms": cover_ms,
        "solver.cover_expansions": cover_exp,
        "solver.bnb_ms": self_ms([MAX]),
        "solver.bnb_expansions": work([MAX], "expansions") - child_work({MAX}, ENUM,
                                                                         "expansions"),
        "solver.greedy_ms": inclusive_ms(["solver.greedy_almost_tiling"]),
        "solver.transversal_ms": self_ms(["solver.enumerate_transversal_copies"]),
        "solver.transversal_expansions": work(["solver.enumerate_transversal_copies"],
                                              "expansions"),
        "solver.undecided": undecided,
        "construct.augment_ms": self_ms(["construct.augment_and_incompat"]),
        "construct.base_ms": inclusive_ms(BASES),
        "construct.probe_expansions": child_work(BASES, FACTOR, "expansions"),
        "construct.unverified": sum(1 for s in named(BASES)
                                    if (s[7] or {}).get("status") == "unverified"),
        "coloring.chi_star_ms": inclusive_ms(["coloring.chi_star"]),
        "coloring.chi_star_calls": len(by_name.get("coloring.chi_star", ())),
        "lattice.hnf_ms": inclusive_ms(["lattice.GeneratedLattice.__init__"]),
        "lattice.generators": work(["lattice.GeneratedLattice.__init__"], "generators"),
        "lattice.membership_ms": inclusive_ms(["lattice.GeneratedLattice.membership"]),
        "lattice.index_vector_ms": index_ms,
        "absorb.connector_ms": inclusive_ms(["absorb.find_connector"], outermost=True),
        "absorb.connector_searches": len(by_name.get("absorb.find_connector", ())),
        "absorb.verify_ms": inclusive_ms(VERIFY, outermost=True),
        "absorb.verify_calls": len(named(VERIFY)),
        "absorb.factor_checks": sum(1 for s in by_name.get(FACTOR, ())
                                    if s[4] in spans and spans[s[4]][1] in absorb_names),
        "regularity.scan_ms": inclusive_ms(["regularity.is_eps_regular_exhaustive"]),
        "regularity.scans": len(by_name.get("regularity.is_eps_regular_exhaustive", ())),
        "regularity.subpairs": work(["regularity.is_eps_regular_exhaustive"], "subpairs"),
        "regularity.counting_ms": inclusive_ms(["regularity.counting_experiment"]),
        "cli.self_ms": self_ms({n for n in layer_names if n.startswith("cli.")}),
    }
    out = {name: value / passes for name, value in values.items()}
    out["solver.enum_yield"] = enum_copies / enum_exp if enum_exp else 0.0
    # rate over the factor searches that returned (a raising one reports no expansions)
    completed_ms = 1000 * sum(s[6] for s in by_name.get(FACTOR, ()) if s[7] is not None)
    out["solver.cover_rate"] = cover_exp / (completed_ms / 1000) if completed_ms else 0.0
    return out


def _has_ancestor(spans, span, names) -> bool:
    parent = spans.get(span[4])
    while parent is not None:
        if parent[1] in names:
            return True
        parent = spans.get(parent[4])
    return False
