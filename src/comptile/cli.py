"""Command-line entry point.

Subcommands: invariants, construct, solve, lattice, absorb, regcount,
acceptance.  Shared flags: --seed, --budget, --json.  Reports echo the
seed and budget (reproducibility header) and are emitted as canonical
JSON, so identical inputs give byte-identical output.

Exit codes: 0 success / factor found, 1 proven absence (or acceptance
failures), 2 budget-indeterminate, 64 usage, 65 parse, 66 IO, 70
internal error (an unexpected exception; never reported as an answer).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from . import absorb, acceptance, construct, regularity, solver
from .coloring import chi_star
from .construct import detect_multipartite
from .errors import ComptileError, FormatError
from .graphs import (Graph, MultipartiteSpec, format_graph, format_partition,
                     parse_graph, parse_partition)
from .incompat import (IncompatibilitySystem, format_system, parse_system_any,
                       random_bounded_system, system_to_json)
from .lattice import GeneratedLattice, find_transferral
from .util import canonical_json, format_fraction, parse_fraction

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


def _load_system(path, graph: Graph) -> IncompatibilitySystem:
    if path is None:
        return IncompatibilitySystem.empty(graph)
    return parse_system_any(_read(path), graph)


def _report(args, payload: dict) -> str:
    body = {"schema_version": SCHEMA_VERSION, "seed": args.seed,
            "budget": args.budget}
    body.update(payload)
    return canonical_json(body)


def _emit(args, payload: dict):
    sys.stdout.write(_report(args, payload))


def _parse_ints(text: str, flag: str) -> list:
    """Comma- or space-separated integers of a command-line flag."""
    ints = []
    for tok in text.replace(",", " ").split():
        try:
            ints.append(int(tok))
        except ValueError:
            raise _UsageError(f"--{flag}: not an integer: {tok!r}") from None
    return ints


def _cmd_invariants(args) -> int:
    g = _load_graph(args.graph)
    prof = chi_star(g)
    _emit(args, {"invariants": prof.to_json_dict(), "n": g.n, "m": g.m})
    return EXIT_OK


def _cmd_construct(args) -> int:
    pattern_graph = _load_graph(args.pattern)
    spec_sizes = detect_multipartite(pattern_graph)
    spec = construct.ConstructionSpec(spec_sizes, args.n, parse_fraction(args.mu),
                                      base=args.base, seed=args.seed)
    inst = construct.augment_and_incompat(spec, budget=args.budget)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "graph.txt").write_text(format_graph(inst.graph), encoding="ascii")
    (out / "partition.txt").write_text(format_partition(inst.partition), encoding="ascii")
    (out / "incompat.txt").write_text(format_system(inst.system), encoding="ascii")
    report = {
        "construct": {
            "pattern_sizes": list(spec_sizes.sizes),
            "n": args.n,
            "mu": format_fraction(spec.mu),
            "base": args.base,
            "base_report": inst.base.to_json_dict(),
            "certificates": inst.certificates.to_json_dict(),
            "system": system_to_json(inst.system),
        }
    }
    (out / "certificates.json").write_text(_report(args, report), encoding="ascii")
    _emit(args, report)
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
        _emit(args, payload)
        return _EXIT_BY_STATUS[res.status]
    if args.mode == "count":
        enum = solver.enumerate_compatible_copies(pattern, g, f, budget=args.budget)
        _emit(args, {"mode": "count", "count": len(enum.copies),
                     "truncated": enum.truncated, "expansions": enum.expansions})
        return EXIT_INDETERMINATE if enum.truncated else EXIT_OK
    if args.mode == "greedy":
        tiling = solver.greedy_almost_tiling(pattern, g, f, seed=args.seed)
        _emit(args, {"mode": "greedy", "copies": len(tiling),
                     "covered": tiling.covered_count(),
                     "uncovered": g.n - tiling.covered_count(),
                     "tiling": [list(e.vertices) for e in tiling.embeddings]})
        return EXIT_OK
    res = solver.max_compatible_tiling(pattern, g, f, budget=args.budget)
    _emit(args, {"mode": "max", "copies": len(res.tiling), "optimal": res.optimal,
                 "expansions": res.expansions,
                 "tiling": [list(e.vertices) for e in res.tiling.embeddings]})
    return EXIT_OK if res.optimal else EXIT_INDETERMINATE


def _parse_vertex_sets(text: str) -> list:
    """Loose block list for regcount parts: one set per line, no cover demand."""
    blocks = []
    for ln in (raw.strip() for raw in text.splitlines()):
        if not ln or ln.startswith("#"):
            continue
        try:
            blocks.append([int(tok) for tok in ln.split()])
        except ValueError as exc:
            raise FormatError(f"bad vertex-set line {ln!r}") from exc
    return blocks


def _parse_vectors(text: str) -> list:
    vecs = []
    for ln in (raw.strip() for raw in text.splitlines()):
        if not ln or ln.startswith("#"):
            continue
        try:
            vecs.append(tuple(int(tok) for tok in ln.replace(",", " ").split()))
        except ValueError as exc:
            raise FormatError(f"bad vector line {ln!r}") from exc
    return vecs


def _cmd_lattice(args) -> int:
    vecs = _parse_vectors(_read(args.generators))
    if not vecs and args.dim is None:
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
                 "coefficients": None if coeffs is None else list(coeffs),
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
                                              parse_fraction(args.xi),
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
            g, _parse_ints(args.x, "x"), _parse_ints(args.y, "y"), parse_fraction(args.eps),
            d_min=None if args.d is None else parse_fraction(args.d))
        _emit(args, {"regular": rep.to_json_dict()})
        return EXIT_OK if rep.regular else EXIT_NONE
    if args.action == "reduced":
        if args.d is None:
            raise _UsageError("regcount reduced needs --d")
        part = parse_partition(_read(args.parts), g.n)
        red = regularity.reduced_graph(g, [list(b) for b in part.blocks],
                                       parse_fraction(args.eps), parse_fraction(args.d))
        _emit(args, {"reduced": {"k": red.k, "edges": [list(e) for e in red.edges]}})
        return EXIT_OK
    if args.action == "count":
        blocks = _parse_vertex_sets(_read(args.parts))
        f = _load_system(args.incompat, g)
        spec = MultipartiteSpec(tuple(_parse_ints(args.sizes, "sizes")))
        rep = regularity.counting_experiment(g, f, blocks[:spec.r],
                                             spec, budget=args.budget)
        _emit(args, {"count": rep.to_json_dict()})
        return EXIT_OK
    # sweep: c_observed across mu values, CSV on stdout or to --csv
    blocks = _parse_vertex_sets(_read(args.parts))
    spec = MultipartiteSpec(tuple(_parse_ints(args.sizes, "sizes")))
    rows = ["mu,total,compatible,c_observed"]
    for mu_text in args.mus.split(","):
        mu = parse_fraction(mu_text)
        f = random_bounded_system(g, mu, args.seed)
        rep = regularity.counting_experiment(g, f, blocks[:spec.r],
                                             spec, budget=args.budget)
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
    selectors = None if not args.only else [s.strip().upper() for s in args.only.split(",")]
    matrix = acceptance.run_battery(selectors=selectors, seed=args.seed, verbose=True)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "matrix.json").write_text(
            acceptance.matrix_json(matrix), encoding="ascii")
    sys.stdout.write(acceptance.matrix_json(matrix))
    return EXIT_OK if all(r.passed for r in matrix) else EXIT_NONE


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="comptile", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int, default=solver.DEFAULT_BUDGET)
        p.add_argument("--json", action="store_true",
                       help="reports are always JSON; accepted for compatibility")

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
        return EXIT_USAGE
    except Exception as exc:  # last resort: a bug must not pass for an answer
        where = traceback.extract_tb(exc.__traceback__)[-1]
        sys.stderr.write(canonical_json(
            {"error": "internal", "detail": f"{type(exc).__name__}: {exc}",
             "where": f"{Path(where.filename).name}:{where.lineno} in {where.name}"}))
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
