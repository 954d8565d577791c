"""Acceptance battery: one callable per criterion, fixed seeds throughout.

Each criterion returns a CriterionResult with a deterministic details
dict (sorted keys, no timings), so the emitted matrix is byte-identical
across runs.  Wall-clock limits are recorded as booleans, not raw
durations.

A3 and A4 are implemented exactly as stated.  At (n=12, mu=1/6, K_3) the
required augmentation cannot exist: mu*n = 2 forces every part's
internal graph to be 2-regular bipartite (even parts of size >= 4), the
degree certificate forces parts (4,4,4), and that base has a compatible
transversal factor.  The criteria therefore report their honest failure
diagnostics instead of a doctored pass; the same machinery is exercised
green at n=24 in the unit tests.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import absorb, construct, oracles, solver
from .coloring import chi_star
from .errors import ComptileError
from .graphs import (Graph, MultipartiteSpec, VertexPartition, complete_graph,
                     complete_multipartite, cycle_graph, disjoint_union, path_graph)
from .incompat import IncompatibilitySystem, count_bad_pairs_at, random_bounded_system
from .lattice import GeneratedLattice, find_transferral, mask_index_vector, refutes, unit_vector
from .util import Record, canonical_json, format_fraction


class CriterionResult(Record):
    __slots__ = _fields = ("cid", "passed", "details", "duration")

    def __init__(self, cid: str, passed: bool, details: dict = None, duration: float = 0.0):
        self.cid = cid
        self.passed = passed
        self.details = {} if details is None else details
        self.duration = duration


def corpus() -> dict:
    return {
        "K_2": complete_graph(2),
        "K_3": complete_graph(3),
        "K_4": complete_graph(4),
        "P_3": path_graph(3),
        "P_4": path_graph(4),
        "C_4": cycle_graph(4),
        "C_5": cycle_graph(5),
        "K_3(1,1,2)": complete_multipartite(MultipartiteSpec((1, 1, 2)))[0],
        "K_2+K_3": disjoint_union(complete_graph(2), complete_graph(3)),
        "2K_2": disjoint_union(complete_graph(2), complete_graph(2)),
    }


def _frac(x) -> str:
    return format_fraction(Fraction(x))


def criterion_a1(seed: int = 0) -> CriterionResult:
    """Dichotomy battery vs the raw-enumeration oracle, exact equality."""
    t0 = time.perf_counter()
    mismatches = []
    values = {}
    for name, g in sorted(corpus().items()):
        prof = chi_star(g)
        raw = oracles.raw_chromatic_profile(g)
        same = (prof.chi == raw["chi"] and prof.sigma == raw["sigma"]
                and prof.d_set == raw["d_set"] and prof.hcf_chi == raw["hcf_chi"]
                and prof.hcf_c == raw["hcf_c"] and prof.hcf_is_one == raw["hcf_is_one"]
                and prof.chi_cr == raw["chi_cr"] and prof.chi_star == raw["chi_star"])
        if not same:
            mismatches.append(name)
        values[name] = {"chi_cr": _frac(prof.chi_cr), "chi_star": _frac(prof.chi_star)}
    spots = (values["K_3(1,1,2)"]["chi_cr"] == "8/3"
             and values["K_3(1,1,2)"]["chi_star"] == "8/3"
             and values["K_3"]["chi_star"] == "3/1"
             and values["P_3"]["chi_star"] == "2/1")
    dur = time.perf_counter() - t0
    return CriterionResult("A1", not mismatches and spots,
                           {"mismatches": mismatches, "spot_values_ok": spots,
                            "values": values, "runtime_ok": dur < 5.0}, dur)


def _lattice_certificate_holds(pattern: Graph, g: Graph, res) -> bool:
    """A "lattice" NONE re-checked from the copies up: y.v is an integer
    for the index vector v of every compatible copy over the reported
    parts, and y.(part sizes) is not."""
    part = VertexPartition(g.n, res.parts)
    vectors = [mask_index_vector(m, part)
               for m in solver.enumerate_compatible_copies(pattern, g).masks]
    return refutes(res.certificate, vectors, [len(b) for b in part.blocks])


def criterion_a2(seed: int = 0) -> CriterionResult:
    """ko base for K_3 at n in {6, 9, 12}: exact sizes, exact delta, NONE
    proven by a lattice certificate that re-checks."""
    t0 = time.perf_counter()
    k3 = complete_graph(3)
    rows = {}
    ok = True
    for n in (6, 9, 12):
        t_n = time.perf_counter()
        base = construct.kuhn_osthus_base(k3, n)
        want_sizes = (n // 3 + 1, -(-n // 3) - 1, n - (n // 3 + 1) - (-(-n // 3) - 1))
        want_delta = -(-2 * n // 3) - 1
        res = solver.find_compatible_factor(k3, base.graph)
        row_ok = (base.sizes == want_sizes and base.min_degree == want_delta
                  and res.status == solver.NONE and res.reason == "lattice"
                  and _lattice_certificate_holds(k3, base.graph, res))
        rows[str(n)] = {"sizes": list(base.sizes), "delta": base.min_degree,
                        "status": res.status, "reason": res.reason,
                        "expansions": res.expansions,
                        "runtime_ok": time.perf_counter() - t_n < 30.0,
                        "ok": row_ok}
        ok = ok and row_ok and rows[str(n)]["runtime_ok"]
    return CriterionResult("A2", ok, rows, time.perf_counter() - t0)


def _build_a3_instance():
    """The full (K_3, n=12, mu=1/6) instance, trying both bases."""
    errors = {}
    for base in (construct.KOMLOS, construct.KUHN_OSTHUS):
        try:
            spec = construct.ConstructionSpec(MultipartiteSpec((1, 1, 1)), 12,
                                              Fraction(1, 6), base=base)
            return construct.augment_and_incompat(spec), errors
        except ComptileError as exc:
            errors[base] = str(exc)
    return None, errors


def criterion_a3(seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
    inst, errors = _build_a3_instance()
    if inst is None:
        return CriterionResult(
            "A3", False,
            {"built": False, "build_errors": errors,
             "analysis": "mu*n = 2 forces 2-regular bipartite parts (even, >= 4); "
                         "the degree certificate then forces parts (4,4,4), whose "
                         "transversal factor is always compatible"},
            time.perf_counter() - t0)
    certs = inst.certificates
    res = solver.find_compatible_factor(inst.spec.pattern(), inst.graph, inst.system)
    ok = (certs.all_hold() and certs.f_delta <= 2 and res.status == solver.NONE)
    dur = time.perf_counter() - t0
    return CriterionResult("A3", ok and dur < 60.0,
                           {"built": True, "certificates": certs.to_json_dict(),
                            "factor_status": res.status, "runtime_ok": dur < 60.0},
                           dur)


def criterion_a4(seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
    inst, errors = _build_a3_instance()
    if inst is None:
        return CriterionResult(
            "A4", False,
            {"blocked_by": "A3", "build_errors": errors},
            time.perf_counter() - t0)
    rep = construct.verify_index_vector_claim(inst)
    dur = time.perf_counter() - t0
    return CriterionResult("A4", rep.status == "true" and dur < 10.0,
                           {"status": rep.status, "copies_checked": rep.copies_checked,
                            "runtime_ok": dur < 10.0}, dur)


def criterion_a5(seed: int = 0) -> CriterionResult:
    """Triangle deficit <= mu*n^3 and bad-pair counts <= 2*mu*n^2 on K_n."""
    t0 = time.perf_counter()
    k3 = complete_graph(3)
    cells = {}
    ok = True
    for n in (20, 30, 40):
        host = complete_graph(n)
        total = len(solver.enumerate_compatible_copies(k3, host).masks)
        for mu in (Fraction(2, 100), Fraction(5, 100)):
            worst_deficit = 0
            worst_pairs = 0
            for s in range(20):
                f = random_bounded_system(host, mu, seed * 1000 + s)
                compatible = len(solver.enumerate_compatible_copies(k3, host, f).masks)
                worst_deficit = max(worst_deficit, total - compatible)
                for v in range(n):
                    worst_pairs = max(worst_pairs, count_bad_pairs_at(f, v))
            deficit_ok = worst_deficit <= mu * n ** 3
            pairs_ok = worst_pairs <= 2 * mu * n * n
            cells[f"n={n},mu={_frac(mu)}"] = {
                "worst_deficit": worst_deficit, "deficit_bound": _frac(mu * n ** 3),
                "worst_bad_pairs": worst_pairs, "pairs_bound": _frac(2 * mu * n * n),
                "ok": deficit_ok and pairs_ok}
            ok = ok and deficit_ok and pairs_ok
    return CriterionResult("A5", ok, cells, time.perf_counter() - t0)


def criterion_a6(seed: int = 0) -> CriterionResult:
    """Lattice membership vs bounded brute force; transferral scan vs per-pair.

    The |coeff| <= 4 brute force is complete for targets drawn as |coeff|
    <= 2 combinations (its witness exists within the bound) and sound
    everywhere (a found combo proves membership).  Random box targets can
    be "deep" members whose every representation needs larger
    coefficients; there the referee is plain integer arithmetic on the
    fast path's certificate (re-multiplied here, not inside the lattice
    code).  A mismatch is any case one side is shown wrong: oracle finds
    a combo the fast path denies, fast path accepts an in-domain target
    the oracle cannot find, or a certificate fails to re-multiply.
    """
    t0 = time.perf_counter()
    rng = random.Random(seed + 6)
    mismatches = []
    deep_members = 0
    transferral_mismatches = []
    for case in range(200):
        dim = rng.randint(1, 4)
        m = rng.randint(1, 5)
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(m)]
        lat = GeneratedLattice(gens, dim=dim)
        combo = [0] * dim
        for g_vec in gens:
            a = rng.randint(-2, 2)
            for c in range(dim):
                combo[c] += a * g_vec[c]
        pert = list(combo)
        pert[rng.randrange(dim)] += rng.choice((-1, 1))
        targets = [(tuple(combo), True),
                   (tuple(rng.randint(-6, 6) for _ in range(dim)), False),
                   (tuple(pert), False)]
        for tgt, in_domain in targets:
            fast, coeffs = lat.membership(tgt)
            slow, _ = oracles.bounded_combination_membership(gens, tgt, bound=4)
            bad = None
            if fast:
                rebuilt = tuple(sum(a * g_vec[c] for a, g_vec in zip(coeffs, gens))
                                for c in range(dim))
                if rebuilt != tgt:
                    bad = "certificate does not re-multiply"
            if slow and not fast:
                bad = "oracle found a combination the fast path denies"
            if fast and not slow:
                if in_domain:
                    bad = "oracle missed an in-domain member"
                elif bad is None:
                    deep_members += 1  # certified member beyond the oracle bound
            if bad:
                mismatches.append({"case": case, "generators": [list(g) for g in gens],
                                   "target": list(tgt), "fast": fast, "slow": slow,
                                   "why": bad})
        # independent pair scan against the library's transferral search
        scan_hit = None
        for i in range(dim):
            if scan_hit:
                break
            for j in range(dim):
                if i == j:
                    continue
                diff = tuple(a - b for a, b in zip(unit_vector(i, dim),
                                                   unit_vector(j, dim)))
                if lat.membership(diff)[0]:
                    scan_hit = (i, j)
                    break
        lib_hit = find_transferral(lat)
        lib_pair = None if lib_hit is None else (lib_hit[0], lib_hit[1])
        if lib_pair != scan_hit:
            transferral_mismatches.append({"case": case, "lib": lib_pair,
                                           "scan": scan_hit})
    ok = not mismatches and not transferral_mismatches
    return CriterionResult("A6", ok,
                           {"membership_mismatches": mismatches,
                            "transferral_mismatches": transferral_mismatches,
                            "deep_members": deep_members,
                            "cases": 200},
                           time.perf_counter() - t0)


def _dense_random_graph(n: int, min_degree: int, seed: int) -> Graph:
    """K_n with random edges deleted while both endpoints stay above the floor."""
    rng = random.Random(seed)
    rows = list(complete_graph(n).adj)
    deg = [n - 1] * n
    for _ in range(3 * n * n):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or not rows[u] >> v & 1:
            continue
        if deg[u] > min_degree and deg[v] > min_degree:
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
            deg[u] -= 1
            deg[v] -= 1
    return Graph(n, rows)


def criterion_a7(seed: int = 0) -> CriterionResult:
    """Greedy almost-cover on dense 60-vertex hosts: <= 0.1n uncovered, 9/10 seeds."""
    t0 = time.perf_counter()
    n = 60
    floor_degree = 52  # ceil((1 - 1/3 + 0.2) * 60)
    k3 = complete_graph(3)
    mu = Fraction(2, 100)
    successes = 0
    runs = {}
    for s in range(10):
        g = _dense_random_graph(n, floor_degree, seed * 100 + s)
        f = random_bounded_system(g, mu, seed * 100 + s)
        tiling = solver.greedy_almost_tiling(k3, g, f, seed=seed * 100 + s)
        uncovered = n - tiling.covered_count()
        runs[str(s)] = {"min_degree": g.min_degree(), "uncovered": uncovered}
        if uncovered <= n // 10:
            successes += 1
    dur = time.perf_counter() - t0
    ok = successes >= 9 and dur < 60.0
    return CriterionResult("A7", ok,
                           {"successes": successes, "runs": runs,
                            "runtime_ok": dur < 60.0}, dur)


def _connector_gadget(h: int, decoys: int, seed: int):
    """Host with two chained connectors for (u, mid), (mid, v), plus decoys.

    Layout: u=0, mid=1, v=2; S1 = 3..3+h-2, S2 = next h-1 vertices.  For
    h=2 the interiors are single midpoints of paths; for h=3 each interior
    is a pair forming triangles with both endpoints.  Decoy vertices carry
    random edges among themselves only, plus decoy-only incompatibilities.
    """
    rng = random.Random(seed)
    s1 = tuple(range(3, 3 + (h - 1)))
    s2 = tuple(range(3 + (h - 1), 3 + 2 * (h - 1)))
    core = 3 + 2 * (h - 1)
    n = core + decoys
    edges = set()
    for interior, (a, b) in ((s1, (0, 1)), (s2, (1, 2))):
        for w in interior:
            edges.add((min(a, w), max(a, w)))
            edges.add((min(b, w), max(b, w)))
        if h == 3:
            edges.add(tuple(sorted(interior)))
    decoy_edges = []
    for i in range(core, n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                edges.add((i, j))
                decoy_edges.append((i, j))
    g = Graph.from_edges(n, sorted(edges))
    triples = []
    for _ in range(min(3, len(decoy_edges))):
        e1, e2 = rng.sample(decoy_edges, 2) if len(decoy_edges) >= 2 else (None, None)
        if e1 and e2:
            shared = set(e1) & set(e2)
            if len(shared) == 1:
                v = shared.pop()
                a = e1[0] if e1[1] == v else e1[1]
                b = e2[0] if e2[1] == v else e2[1]
                triples.append((v, a, b))
    f = IncompatibilitySystem(g, triples)
    return g, f, s1, s2


def _absorber_gadget(h: int, decoys: int, seed: int):
    """Host with an absorber assembly for S = first h vertices.

    S = 0..h-1, T = h..2h-1 spans a copy, connector i joins S[i] to T[i]
    through an interior of size h-1.
    """
    rng = random.Random(seed)
    s_set = tuple(range(h))
    t_copy = tuple(range(h, 2 * h))
    interiors = []
    nxt = 2 * h
    edges = set()
    if h >= 2:
        for i in range(h - 1):
            edges.add((t_copy[i], t_copy[i + 1]))
        if h == 3:
            edges.add((t_copy[0], t_copy[2]))
    for i in range(h):
        interior = tuple(range(nxt, nxt + h - 1))
        nxt += h - 1
        interiors.append(interior)
        for w in interior:
            edges.add(tuple(sorted((s_set[i], w))))
            edges.add(tuple(sorted((t_copy[i], w))))
        if h == 3:
            edges.add(tuple(sorted(interior)))
    core = nxt
    n = core + decoys
    for i in range(core, n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                edges.add((i, j))
    g = Graph.from_edges(n, sorted(edges))
    f = IncompatibilitySystem.empty(g)
    return g, f, s_set, t_copy, interiors


def criterion_a8(seed: int = 0) -> CriterionResult:
    """50 gadgets: chained connectors and assembled absorbers re-verify."""
    t0 = time.perf_counter()
    failures = []
    for i in range(50):
        h = 2 if i % 2 == 0 else 3
        pattern = complete_graph(h)
        t1 = 1 + (i % 3 == 2)
        t2 = 1 + (i % 5 == 4)
        decoys = i % 4
        try:
            g, f, s1, s2 = _connector_gadget(h, decoys, seed * 100 + i)
            c1 = absorb.Connector(0, 1, s1, t1)
            c2 = absorb.Connector(1, 2, s2, t2)
            chained = absorb.concatenate_connectors(g, f, pattern, c1, c2)
            re_check = absorb.verify_connector(g, f, pattern, chained.s,
                                               chained.u, chained.v, chained.t)
            if not re_check.ok:
                failures.append({"gadget": i, "stage": "connector-reverify"})
            if len(chained.s) > h * (t1 + t2) - 1:
                failures.append({"gadget": i, "stage": "connector-size-law"})

            ga, fa, s_set, t_copy, interiors = _absorber_gadget(h, decoys,
                                                                seed * 100 + i)
            conns = [absorb.Connector(s_set[j], t_copy[j], interiors[j], t1)
                     for j in range(h)]
            ab = absorb.assemble_absorber(ga, fa, pattern, s_set, t_copy, conns)
            re_check = absorb.verify_absorber(ga, fa, pattern, ab.s_set, ab.a_set, ab.t)
            if not re_check.ok:
                failures.append({"gadget": i, "stage": "absorber-reverify"})
            if len(ab.a_set) > h * h * ab.t:
                failures.append({"gadget": i, "stage": "absorber-size-law"})
        except ComptileError as exc:
            failures.append({"gadget": i, "stage": "exception", "detail": str(exc)})
    return CriterionResult("A8", not failures,
                           {"gadgets": 50, "failures": failures},
                           time.perf_counter() - t0)


def _random_pair(rng: random.Random):
    nh = rng.randint(1, 4)
    pattern = Graph.from_edges(
        nh, [(u, v) for u in range(nh) for v in range(u + 1, nh)
             if rng.random() < 0.7])
    ng = rng.randint(max(nh, 2), 8)
    host = Graph.from_edges(
        ng, [(u, v) for u in range(ng) for v in range(u + 1, ng)
             if rng.random() < rng.choice((0.4, 0.6, 0.8))])
    cand = []
    for v in range(ng):
        nbrs = host.neighbors(v)
        for ai in range(len(nbrs)):
            for bi in range(ai + 1, len(nbrs)):
                cand.append((v, nbrs[ai], nbrs[bi]))
    rng.shuffle(cand)
    f = IncompatibilitySystem(host, cand[: rng.randint(0, min(6, len(cand)))])
    return pattern, host, f


def criterion_a9(seed: int = 0) -> CriterionResult:
    """Solver vs raw filtered enumeration on 300 random pairs plus corpus hosts."""
    t0 = time.perf_counter()
    rng = random.Random(seed + 9)
    mismatches = []
    cases = []
    for _ in range(300):
        cases.append(_random_pair(rng))
    small_patterns = [complete_graph(2), complete_graph(3), path_graph(3)]
    for host in corpus().values():
        f = IncompatibilitySystem.empty(host)
        for pattern in small_patterns:
            if pattern.n <= host.n:
                cases.append((pattern, host, f))
    for idx, (pattern, host, f) in enumerate(cases):
        enum = solver.enumerate_compatible_copies(pattern, host, f)
        fast_keys = {(e.vertices, e.edges) for e in enum.copies}
        raw_keys = oracles.raw_compatible_copies(pattern, host, f)
        if fast_keys != raw_keys:
            mismatches.append({"case": idx, "kind": "copies",
                               "fast": len(fast_keys), "raw": len(raw_keys)})
            continue
        res = solver.find_compatible_factor(pattern, host, f)
        raw_has = oracles.raw_factor_exists(pattern, host, f)
        fast_has = res.status == solver.FOUND
        if res.status == solver.INDETERMINATE or fast_has != raw_has:
            mismatches.append({"case": idx, "kind": "factor",
                               "fast": res.status, "raw": raw_has})
    return CriterionResult("A9", not mismatches,
                           {"cases": len(cases), "mismatches": mismatches},
                           time.perf_counter() - t0)


_CRITERIA = {
    "A1": criterion_a1, "A2": criterion_a2, "A3": criterion_a3,
    "A4": criterion_a4, "A5": criterion_a5, "A6": criterion_a6,
    "A7": criterion_a7, "A8": criterion_a8, "A9": criterion_a9,
}


def criterion_a10(seed: int = 0, first_pass=None) -> CriterionResult:
    """Byte-identical A1-A9 matrices from this process and from a child
    interpreter under another hash seed, on the same source tree.

    A regression tripwire for any nondeterminism leaking into reports
    (set or dict order that follows string hashes, ambient randomness,
    timing in payloads).
    """
    t0 = time.perf_counter()
    if first_pass is None:
        first_pass = [_CRITERIA[c](seed) for c in sorted(_CRITERIA)]
    # a hash seed other than this interpreter's, which is random unless
    # PYTHONHASHSEED fixes it
    own = os.environ.get("PYTHONHASHSEED", "random")
    hash_seed = str((int(own) + 1) % 2 ** 32) if own.isdigit() else "1"
    path = [str(Path(__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    child = subprocess.run(
        [sys.executable, "-m", "comptile.cli", "acceptance", "--seed", str(seed),
         "--only", ",".join(sorted(_CRITERIA))],
        capture_output=True, text=True, env=env)
    b1 = matrix_json(first_pass)
    b2 = child.stdout
    return CriterionResult("A10", b1 == b2,
                           {"bytes_equal": b1 == b2},
                           time.perf_counter() - t0)


# every criterion id, in the order the full battery runs them
CRITERION_IDS = (*sorted(_CRITERIA), "A10")


def run_battery(selectors=None, seed: int = 0, verbose: bool = False) -> list:
    """Run the selected criteria (all by default) and return their results.
    An unknown id is refused before any criterion runs."""
    wanted = CRITERION_IDS if selectors is None else selectors
    for cid in wanted:
        if cid not in CRITERION_IDS:
            raise ComptileError(f"unknown criterion {cid!r}")
    results = []
    for cid in wanted:
        if cid == "A10":
            prior = [r for r in results if r.cid in _CRITERIA]
            res = criterion_a10(
                seed, first_pass=prior if len(prior) == len(_CRITERIA) else None)
        else:
            res = _CRITERIA[cid](seed)
        results.append(res)
        if verbose:
            state = "PASS" if res.passed else "FAIL"
            sys.stderr.write(f"{res.cid} {state} ({res.duration:.2f}s)\n")
    return results


def matrix_json(results: list) -> str:
    """Deterministic pass/fail matrix; durations intentionally excluded."""
    return canonical_json({r.cid: {"passed": r.passed, "details": r.details}
                           for r in results})
