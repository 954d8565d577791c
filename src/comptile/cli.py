"""Command-line entry point.

Subcommands: invariants, construct, solve, lattice, absorb, regcount,
acceptance.  Shared flags: --seed, --budget.  Reports echo the
seed and budget (reproducibility header) and are emitted as canonical
JSON, so identical inputs give byte-identical output.

Exit codes: 0 success / factor found, 1 proven absence (or acceptance
failures), 2 budget-indeterminate, 64 usage, 65 parse, 66 IO, 70
internal error (an unexpected exception; never reported as an answer).
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback
from fractions import Fraction
from pathlib import Path

from . import absorb, construct, regularity, solver
from .coloring import chi_star
from .construct import detect_multipartite
from .errors import BudgetExceeded, ComptileError, ConsistencyError, FormatError
from .graphs import (Graph, MultipartiteSpec, format_graph, format_partition,
                     parse_graph, parse_partition)
from .incompat import (IncompatibilitySystem, parse_system, random_bounded_system,
                       system_blocks, system_to_json)
from .lattice import GeneratedLattice, find_transferral
from .util import canonical_json, format_fraction, int_rows, mask_of

EXIT_OK = 0
EXIT_NONE = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_IO = 66
EXIT_SOFTWARE = 70

SCHEMA_VERSION = 1

# solver statuses and absorb verdicts; "indeterminate" is spelt the same in both
_EXIT_BY_STATUS = {
    solver.FOUND: EXIT_OK, absorb.PROVEN: EXIT_OK, absorb.SUPPORTED: EXIT_OK,
    solver.NONE: EXIT_NONE, absorb.REFUTED: EXIT_NONE,
    solver.INDETERMINATE: EXIT_INDETERMINATE,
}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not ASCII text (byte {exc.start})") from exc


def _load_graph(path: str) -> Graph:
    return parse_graph(_read(path))


def _load_vertex_sets(path: str, graph: Graph) -> list:
    """The rows of a count or sweep --parts file: sets of the graph's
    vertices, pairwise disjoint, not necessarily covering it."""
    sets = int_rows(_read(path), "vertex-set")
    seen = 0
    for row in sets:
        line = " ".join(map(str, row))
        if not all(0 <= x < graph.n for x in row):
            raise FormatError(f"vertex set {line!r} names a vertex outside 0..{graph.n - 1}")
        msk = mask_of(row)
        if msk & seen:
            raise FormatError(f"vertex set {line!r} shares a vertex with an earlier set")
        seen |= msk
    return sets


def _load_system(path, graph: Graph) -> IncompatibilitySystem:
    if path is None:
        return IncompatibilitySystem.empty(graph)
    return parse_system(_read(path), graph)


def _report(args, payload: dict) -> str:
    body = {"schema_version": SCHEMA_VERSION, "seed": args.seed,
            "budget": args.budget}
    body.update(payload)
    return canonical_json(body)


def _emit(args, payload: dict):
    sys.stdout.write(_report(args, payload))


def _flag_tokens(text: str, flag: str) -> list:
    """Comma- or space-separated tokens of a command-line flag; a comma
    needs a token on both sides."""
    fields = text.split(",")
    if len(fields) > 1 and not all(map(str.strip, fields)):
        raise _UsageError(f"--{flag}: empty field between commas: {text!r}")
    return " ".join(fields).split()


def _parse_ints(text: str, flag: str) -> list:
    ints = []
    for tok in _flag_tokens(text, flag):
        try:
            ints.append(int(tok))
        except ValueError:
            raise _UsageError(f"--{flag}: not an integer: {tok!r}") from None
    return ints


def _parse_fraction(text: str, flag: str) -> Fraction:
    """A rational flag, e.g. 1/6 or 0.25; one that does not parse is a usage
    error, as an integer flag's is."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"--{flag}: not a rational number: {text!r}") from None


def _cmd_invariants(args) -> int:
    g = _load_graph(args.graph)
    prof = chi_star(g)
    _emit(args, {"invariants": prof.to_json_dict(), "n": g.n, "m": g.m})
    return EXIT_OK


def _cmd_construct(args) -> int:
    pattern_graph = _load_graph(args.pattern)
    spec_sizes = detect_multipartite(pattern_graph)
    spec = construct.ConstructionSpec(spec_sizes, args.n, _parse_fraction(args.mu, "mu"),
                                      base=args.base)
    inst = construct.augment_and_incompat(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "graph.txt").write_text(format_graph(inst.graph), encoding="ascii")
    (out / "partition.txt").write_text(format_partition(inst.partition), encoding="ascii")
    system = system_to_json(inst.system)   # its sorted triples also make incompat.txt
    with (out / "incompat.txt").open("w", encoding="ascii") as fh:
        fh.writelines(system_blocks(system["pairs"]))
    report = {
        "construct": {
            "pattern_sizes": list(spec_sizes.sizes),
            "n": args.n,
            "mu": format_fraction(spec.mu),
            "base": args.base,
            "base_report": inst.base.to_json_dict(),
            "certificates": inst.certificates.to_json_dict(),
            "system": system,
        }
    }
    text = _report(args, report)
    (out / "certificates.json").write_text(text, encoding="ascii")
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_solve(args) -> int:
    pattern = _load_graph(args.pattern)
    g = _load_graph(args.graph)
    f = _load_system(args.incompat, g)
    if args.mode == "factor":
        res = solver.find_compatible_factor(pattern, g, f, budget=args.budget)
        payload = {"mode": "factor", "status": res.status, "reason": res.reason,
                   "expansions": res.expansions,
                   "copies_considered": res.copies_considered}
        if res.tiling is not None:
            payload["tiling"] = [list(e.vertices) for e in res.tiling.embeddings]
        if res.reason == "lattice":
            payload["certificate"] = {"parts": [list(p) for p in res.parts],
                                      "y": [format_fraction(a) for a in res.certificate]}
        _emit(args, payload)
        return _EXIT_BY_STATUS[res.status]
    if args.mode == "count":
        enum = solver.enumerate_compatible_copies(pattern, g, f, budget=args.budget)
        _emit(args, {"mode": "count", "count": len(enum.masks),
                     "truncated": enum.truncated, "expansions": enum.expansions})
        return EXIT_INDETERMINATE if enum.truncated else EXIT_OK
    if args.mode == "greedy":
        payload = {"mode": "greedy"}
        try:
            tiling = solver.greedy_almost_tiling(pattern, g, f, seed=args.seed,
                                                 budget=args.budget)
        except BudgetExceeded as cut:  # the copies taken so far, not maximal
            tiling = cut.partial
            payload.update(status=solver.INDETERMINATE, reason="budget")
        payload.update(copies=len(tiling), covered=tiling.covered_count(),
                       uncovered=g.n - tiling.covered_count(),
                       tiling=[list(e.vertices) for e in tiling.embeddings])
        _emit(args, payload)
        return EXIT_INDETERMINATE if "status" in payload else EXIT_OK
    res = solver.max_compatible_tiling(pattern, g, f, budget=args.budget)
    _emit(args, {"mode": "max", "copies": len(res.tiling), "optimal": res.optimal,
                 "expansions": res.expansions,
                 "tiling": [list(e.vertices) for e in res.tiling.embeddings]})
    return EXIT_OK if res.optimal else EXIT_INDETERMINATE


def _cmd_lattice(args) -> int:
    text = _read(args.generators)
    vecs = int_rows(text, "vector", sep=",")
    if vecs:
        # the first vector's width is the file's; the first line off it is quoted
        vecs = int_rows(text, "vector", len(vecs[0]), sep=",")
    elif args.dim is None:
        raise FormatError("empty generator file needs --dim")
    lat = GeneratedLattice(vecs, dim=args.dim)
    if args.transferral:
        hit = find_transferral(lat)
        payload = {"transferral": None if hit is None else
                   {"i": hit[0], "j": hit[1], "coefficients": list(hit[2])}}
        _emit(args, payload)
        return EXIT_OK
    if args.target is None:
        raise _UsageError("lattice needs --target or --transferral")
    target = tuple(_parse_ints(args.target, "target"))
    member, coeffs = lat.membership(target)
    _emit(args, {"member": member,
                 "coefficients": list(coeffs) if member else None,
                 "target": list(target)})
    return EXIT_OK


def _cmd_absorb(args) -> int:
    g = _load_graph(args.graph)
    pattern = _load_graph(args.pattern)
    f = _load_system(args.incompat, g)
    if args.action == "verify":
        if args.kind == "absorber":
            res = absorb.verify_absorber(g, f, pattern, _parse_ints(args.s, "s"),
                                         _parse_ints(args.a, "a"), args.t,
                                         budget=args.budget)
        elif args.kind == "connector":
            res = absorb.verify_connector(g, f, pattern, _parse_ints(args.s, "s"),
                                          args.u, args.v, args.t, budget=args.budget)
        else:
            rep = absorb.verify_absorbing_set(g, f, pattern, _parse_ints(args.a, "a"),
                                              _parse_fraction(args.xi, "xi"),
                                              samples=args.samples, seed=args.seed,
                                              budget=args.budget)
            _emit(args, {"verify": args.kind, "verdict": rep.verdict,
                         "checked": rep.checked,
                         "witness": None if rep.witness is None else list(rep.witness)})
            return _EXIT_BY_STATUS[rep.verdict]
        _emit(args, {"verify": args.kind, "ok": res.ok, "status": res.status,
                     "reason": res.reason,
                     "tilings": [[list(copy) for copy in t] for t in res.tilings]})
        return _EXIT_BY_STATUS[res.status]
    res = absorb.find_connector(g, f, pattern, args.u, args.v,
                                _parse_ints(args.w, "w"), args.t, budget=args.budget)
    payload = {"find": "connector", "status": res.status,
               "expansions": res.expansions}
    if res.connector is not None:
        payload["s"] = list(res.connector.s)
        payload["t"] = res.connector.t
    _emit(args, payload)
    return _EXIT_BY_STATUS[res.status]


def _cmd_regcount(args) -> int:
    g = _load_graph(args.graph)
    if args.action == "density":
        d = regularity.density(g, _parse_ints(args.x, "x"), _parse_ints(args.y, "y"))
        _emit(args, {"density": format_fraction(d)})
        return EXIT_OK
    if args.action == "regular":
        rep = regularity.is_eps_regular_exhaustive(
            g, _parse_ints(args.x, "x"), _parse_ints(args.y, "y"), _parse_fraction(args.eps, "eps"),
            d_min=None if args.d is None else _parse_fraction(args.d, "d"))
        _emit(args, {"regular": rep.to_json_dict()})
        return EXIT_OK if rep.regular else EXIT_NONE
    if args.parts is None:
        raise _UsageError(f"regcount {args.action} needs --parts")
    if args.action == "reduced":
        if args.d is None:
            raise _UsageError("regcount reduced needs --d")
        part = parse_partition(_read(args.parts), g.n)
        red = regularity.reduced_graph(g, [list(b) for b in part.blocks],
                                       _parse_fraction(args.eps, "eps"),
                                       _parse_fraction(args.d, "d"))
        _emit(args, {"reduced": {"k": red.k, "edges": [list(e) for e in red.edges]}})
        return EXIT_OK
    blocks = _load_vertex_sets(args.parts, g)
    if args.action == "count":
        f = _load_system(args.incompat, g)
        spec = MultipartiteSpec(tuple(_parse_ints(args.sizes, "sizes")))
        rep = regularity.counting_experiment(g, f, blocks, spec, budget=args.budget)
        _emit(args, {"count": rep.to_json_dict()})
        return EXIT_OK
    # sweep: c_observed across mu values, CSV on stdout or to --csv
    spec = MultipartiteSpec(tuple(_parse_ints(args.sizes, "sizes")))
    mus = [_parse_fraction(tok, "mus") for tok in _flag_tokens(args.mus, "mus")]
    if not mus:
        raise _UsageError("--mus needs at least one value")
    rows = ["mu,total,compatible,c_observed"]
    for mu in mus:
        f = random_bounded_system(g, mu, args.seed)
        rep = regularity.counting_experiment(g, f, blocks, spec, budget=args.budget)
        rows.append(f"{format_fraction(mu)},{rep.total},{rep.compatible},"
                    f"{format_fraction(rep.c_observed)}")
    csv_text = "\n".join(rows) + "\n"
    if args.csv:
        Path(args.csv).write_text(csv_text, encoding="ascii")
        _emit(args, {"sweep": {"rows": len(rows) - 1, "csv": args.csv}})
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def _cmd_acceptance(args) -> int:
    from . import acceptance   # pulls in subprocess, 5-6 ms; only acceptance pays

    selectors = None
    if args.only is not None:  # every selector is checked before any criterion runs
        selectors = [s.strip().upper() for s in args.only.split(",")]
        for cid in selectors:
            if cid not in acceptance.CRITERION_IDS:
                raise _UsageError(f"--only: empty criterion id in {args.only!r}" if not cid
                                  else f"--only: unknown criterion {cid!r}")
    matrix = acceptance.run_battery(selectors=selectors, seed=args.seed, verbose=True)
    text = acceptance.matrix_json(matrix)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "matrix.json").write_text(text, encoding="ascii")
    sys.stdout.write(text)
    return EXIT_OK if all(r.passed for r in matrix) else EXIT_NONE


@functools.cache
def build_parser() -> _ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = _ArgumentParser(prog="comptile", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int, default=solver.DEFAULT_BUDGET)

    p = sub.add_parser("invariants", help="chromatic dichotomy profile of a graph")
    p.add_argument("graph")
    shared(p)

    p = sub.add_parser("construct", help="build a full lower-bound instance")
    p.add_argument("--pattern", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--base", choices=[construct.KOMLOS, construct.KUHN_OSTHUS],
                   default=construct.KOMLOS)
    p.add_argument("--out", required=True)
    shared(p)

    p = sub.add_parser("solve", help="compatible factor / tiling solver")
    p.add_argument("--pattern", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--incompat")
    p.add_argument("--mode", choices=["factor", "max", "greedy", "count"],
                   default="factor")
    shared(p)

    p = sub.add_parser("lattice", help="lattice membership and transferrals")
    p.add_argument("--generators", required=True)
    p.add_argument("--target")
    p.add_argument("--transferral", action="store_true")
    p.add_argument("--dim", type=int)
    shared(p)

    p = sub.add_parser("absorb", help="absorber/connector verification and search")
    p.add_argument("action", choices=["verify", "find"])
    p.add_argument("--kind", choices=["absorber", "connector", "absorbing-set"],
                   default="connector")
    p.add_argument("--graph", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--incompat")
    p.add_argument("--s", default="", help="connector interior / absorber target set")
    p.add_argument("--a", default="", help="absorber set / absorbing set")
    p.add_argument("--u", type=int, default=0)
    p.add_argument("--v", type=int, default=1)
    p.add_argument("--w", default="", help="forbidden vertex set for find")
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--xi", default="0", help="absorbing-set residual fraction")
    p.add_argument("--samples", type=int, default=100)
    shared(p)

    p = sub.add_parser("regcount", help="density/regularity/counting utilities")
    p.add_argument("action", choices=["density", "regular", "reduced", "count", "sweep"])
    p.add_argument("--graph", required=True)
    p.add_argument("--x", default="")
    p.add_argument("--y", default="")
    p.add_argument("--eps", default="1/4")
    p.add_argument("--d")
    p.add_argument("--parts")
    p.add_argument("--sizes", default="")
    p.add_argument("--incompat")
    p.add_argument("--mus", default="1/100")
    p.add_argument("--csv")
    shared(p)

    p = sub.add_parser("acceptance", help="run the acceptance battery")
    p.add_argument("--only", help="comma-separated criterion ids, e.g. A1,A5")
    p.add_argument("--out", help="directory for matrix.json")
    shared(p)

    return parser


_COMMANDS = {
    "invariants": _cmd_invariants,
    "construct": _cmd_construct,
    "solve": _cmd_solve,
    "lattice": _cmd_lattice,
    "absorb": _cmd_absorb,
    "regcount": _cmd_regcount,
    "acceptance": _cmd_acceptance,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.budget < 0:
            raise _UsageError(f"--budget must be >= 0, got {args.budget}")
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(canonical_json({"error": "usage", "detail": str(exc)}))
        return EXIT_USAGE
    except FormatError as exc:
        sys.stderr.write(canonical_json({"error": "parse", "detail": str(exc)}))
        return EXIT_PARSE
    except OSError as exc:
        sys.stderr.write(canonical_json({"error": "io", "detail": str(exc)}))
        return EXIT_IO
    except ComptileError as exc:
        sys.stderr.write(canonical_json(
            {"error": type(exc).__name__, "detail": str(exc)}))
        # a failed postcondition is a bug; a budget cut leaves the answer open
        if isinstance(exc, ConsistencyError):
            return EXIT_SOFTWARE
        return EXIT_INDETERMINATE if isinstance(exc, BudgetExceeded) else EXIT_USAGE
    except Exception as exc:  # last resort: a bug must not pass for an answer
        where = traceback.extract_tb(exc.__traceback__)[-1]
        sys.stderr.write(canonical_json(
            {"error": "internal", "detail": f"{type(exc).__name__}: {exc}",
             "where": f"{Path(where.filename).name}:{where.lineno} in {where.name}"}))
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
