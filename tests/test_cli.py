import hashlib
import json
import resource
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import comptile
from comptile import cli, coloring
from comptile.absorb import verify_connector
from comptile.errors import ComptileError, SizeCapError, ValidationError
from comptile.graphs import Graph, complete_graph, complete_multipartite, cycle_graph
from comptile.graphs import (MultipartiteSpec, empty_graph, format_graph, parse_graph,
                             parse_partition)
from comptile.incompat import IncompatibilitySystem, format_system, parse_system
from comptile.oracles import (raw_chromatic_number, raw_compatible_copies, raw_factor_exists,
                              raw_is_eps_regular)
from comptile.solver import Embedding, Tiling, verify_embedding, verify_tiling
from comptile.util import format_fraction, mask_of

from .helpers import combination, random_system


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, g in (("k2", complete_graph(2)), ("k3", complete_graph(3)),
                    ("c4", cycle_graph(4)), ("k6", complete_graph(6)),
                    ("empty", empty_graph(0)),
                    ("k111", complete_multipartite(MultipartiteSpec((1, 1, 1)))[0])):
        p = tmp_path / f"{name}.graph"
        p.write_text(format_graph(g), encoding="ascii")
        paths[name] = str(p)
    gens = tmp_path / "gens.txt"
    gens.write_text("1,2\n2,1\n", encoding="ascii")
    paths["gens"] = str(gens)
    paths["tmp"] = tmp_path
    return paths


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_invariants_json(files, capsys):
    code, out, _ = run_cli(["invariants", files["k3"]], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["invariants"]["chi_star"] == "3/1"
    assert payload["invariants"]["hcf_chi"] == "inf"
    assert payload["schema_version"] == 1 and "seed" in payload and "budget" in payload


def test_solve_exit_codes(files, capsys):
    code, out, _ = run_cli(["solve", "--pattern", files["k2"],
                            "--graph", files["c4"]], capsys)
    assert code == 0 and json.loads(out)["status"] == "found"
    # ko base at n=6 has no triangle factor: proven none -> exit 1
    from comptile.construct import kuhn_osthus_base
    base = kuhn_osthus_base(complete_graph(3), 6)
    p = files["tmp"] / "ko6.graph"
    p.write_text(format_graph(base.graph), encoding="ascii")
    code, out, _ = run_cli(["solve", "--pattern", files["k111"],
                            "--graph", str(p)], capsys)
    assert code == 1 and json.loads(out)["reason"] == "lattice"
    code, out, _ = run_cli(["solve", "--pattern", files["k3"],
                            "--graph", files["k6"], "--budget", "3"], capsys)
    assert code == 2


def test_solve_prints_the_lattice_certificate(files, capsys):
    from comptile.construct import kuhn_osthus_base
    p = files["tmp"] / "ko6.graph"
    p.write_text(format_graph(kuhn_osthus_base(complete_graph(3), 6).graph), encoding="ascii")
    code, out, _ = run_cli(["solve", "--pattern", files["k3"], "--graph", str(p)], capsys)
    body = json.loads(out)
    assert (code, body["status"], body["reason"]) == (1, "none", "lattice")
    assert body["certificate"] == {"parts": [[0, 1, 2], [4, 5], [3]],
                                   "y": ["1/2", "-1/2", "0/1"]}
    # the other answers carry no certificate
    for graph in ("c4", "k6"):
        code, out, _ = run_cli(["solve", "--pattern", files["k2"], "--graph", files[graph],
                                "--budget", "3"], capsys)
        assert code in (0, 2) and "certificate" not in json.loads(out)


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_unexpected_exception_is_internal_error(files, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.solver, "find_compatible_factor", broken)
    code, out, err = run_cli(["solve", "--pattern", files["k2"],
                              "--graph", files["c4"]], capsys)
    assert code == 70 and out == ""
    assert "Traceback" not in err and err.count("\n") == 1
    report = json.loads(err)
    assert report["error"] == "internal" and report["detail"] == "RuntimeError: boom"
    assert report["where"].startswith("test_cli.py:")


def test_failed_postcondition_is_internal_error(files, capsys, monkeypatch):
    # the n = 6 Kuhn-Osthus base K(3, 1, 2), refuted by its lattice; a y that
    # separates nothing fails the certificate's re-check
    base = complete_multipartite(MultipartiteSpec((3, 1, 2)))[0]
    path = files["tmp"] / "ko6.graph"
    path.write_text(format_graph(base), encoding="ascii")
    monkeypatch.setattr(comptile.lattice, "_dual", lambda *a: (Fraction(1, 3), 0, 0))
    code, out, err = run_cli(["solve", "--pattern", files["k3"], "--graph", str(path)],
                             capsys)
    assert code == 70 and out == ""
    report = json.loads(err)
    assert report["error"] == "ConsistencyError"
    assert "non-membership certificate" in report["detail"]


def test_solve_modes(files, capsys):
    code, out, _ = run_cli(["solve", "--pattern", files["k3"], "--graph",
                            files["k6"], "--mode", "count"], capsys)
    assert code == 0 and json.loads(out)["count"] == 20
    code, out, _ = run_cli(["solve", "--pattern", files["k3"], "--graph",
                            files["k6"], "--mode", "greedy", "--seed", "5"], capsys)
    assert code == 0 and json.loads(out)["uncovered"] == 0
    code, out, _ = run_cli(["solve", "--pattern", files["k3"], "--graph",
                            files["k6"], "--mode", "max"], capsys)
    body = json.loads(out)
    assert code == 0 and body["copies"] == 2 and body["optimal"]


def test_solve_greedy_honours_the_budget(files, capsys):
    # C_9 is odd, so K_{14,14} has no copy, and the search for one is long
    c9, k1414 = files["tmp"] / "c9.graph", files["tmp"] / "k1414.graph"
    c9.write_text(format_graph(cycle_graph(9)), encoding="ascii")
    k1414.write_text(format_graph(complete_multipartite(MultipartiteSpec((14, 14)))[0]),
                     encoding="ascii")
    code, out, _ = run_cli(["solve", "--pattern", str(c9), "--graph", str(k1414),
                            "--mode", "greedy", "--budget", "1000"], capsys)
    body = json.loads(out)
    assert code == 2 and (body["status"], body["reason"]) == ("indeterminate", "budget")
    assert (body["copies"], body["uncovered"], body["tiling"]) == (0, 28, [])
    # a cut after some copies were taken reports them
    code, out, _ = run_cli(["solve", "--pattern", files["k2"], "--graph", files["k6"],
                            "--mode", "greedy", "--budget", "2"], capsys)
    body = json.loads(out)
    assert code == 2 and body["status"] == "indeterminate"
    assert body["copies"] == len(body["tiling"]) == 1 and body["covered"] == 2
    code, out, _ = run_cli(["solve", "--pattern", files["k2"], "--graph", files["k6"],
                            "--mode", "greedy"], capsys)
    assert code == 0 and "status" not in json.loads(out)


def test_lattice_cli(files, capsys):
    code, out, _ = run_cli(["lattice", "--generators", files["gens"],
                            "--target", "1,-1"], capsys)
    assert code == 0
    body = json.loads(out)
    assert body["member"] and body["coefficients"] == [-1, 1]
    code, out, _ = run_cli(["lattice", "--generators", files["gens"],
                            "--transferral"], capsys)
    assert json.loads(out)["transferral"]["i"] == 0
    for dim, detail in (("-2", "lattice dimension must be >= 0, got -2"),
                        ("3", "generators have mixed dimensions: generator 0 has width 2, "
                              "expected 3")):
        code, out, err = run_cli(["lattice", "--generators", files["gens"],
                                  "--dim", dim, "--target", "1"], capsys)
        assert code == 64 and out == "" and json.loads(err)["detail"] == detail


def test_generator_file_of_mixed_widths_is_a_parse_error(files, capsys):
    path = files["tmp"] / "mixed.txt"
    path.write_text("1,2\n# 1\n\n2,1\n1,2,3\n1\n", encoding="ascii")
    for extra in ([], ["--dim", "2"], ["--dim", "3"]):
        code, out, err = run_cli(["lattice", "--generators", str(path), "--target", "1,2",
                                  *extra], capsys)
        assert code == 65 and out == ""
        assert json.loads(err) == {"error": "parse", "detail": "bad vector line '1,2,3'"}


def _written_vectors(text):
    vecs = []
    for ln in text.splitlines():
        ln = ln.strip()
        if ln and not ln.startswith("#"):
            vecs.append(tuple(int(tok) for tok in ln.replace(",", " ").split()))
    return vecs


@st.composite
def _lattice_argv(draw, path):
    """Generator-file text and `lattice` flags: one shared width, some noise."""
    width = draw(st.integers(0, 3))
    vec = st.lists(st.integers(-9, 9), min_size=width, max_size=width)
    sep = st.sampled_from([",", ", ", " ", "\t"])
    gens = draw(st.lists(vec, max_size=6))
    lines = [draw(sep).join(map(str, g)) for g in gens]
    junk = st.text(alphabet="0123456789+-, \tabz#\u00e9", max_size=10)
    noise = st.one_of(st.sampled_from(["", "   ", "# comment", "#1,2"]), junk,
                      st.lists(st.integers(-99, 99), max_size=4).map(
                          lambda v: ",".join(map(str, v))))        # another width
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(noise))
    argv = ["lattice", "--generators", str(path)]
    if draw(st.booleans()):
        argv.append("--transferral")
    coeffs = st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens))
    # combinations of the generators are members whenever the file is accepted
    members = coeffs.map(lambda a: ",".join(map(str, combination(a, gens, width))))
    target = draw(st.one_of(st.none(), members, members, vec.map(
        lambda v: ",".join(map(str, v))), junk))
    if target is not None:
        argv.append(f"--target={target}")
    dim = draw(st.one_of(st.none(), st.none(), st.integers(-2, 4)))
    if dim is not None:
        argv += ["--dim", str(dim)]
    return "\n".join(lines), argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_lattice_cli_fuzz(tmp_path, capsys, data):
    path = tmp_path / "fuzz_gens.txt"
    text, argv = data.draw(_lattice_argv(path))
    path.write_bytes(text.encode("utf-8"))
    code, out, err = run_cli(argv, capsys)
    assert code in {0, 1, 2, 64, 65, 66}, err
    assert "Traceback" not in err
    if code != 0:
        assert out == "" and "error" in json.loads(err)
        return
    gens = _written_vectors(text)
    body = json.loads(out)
    if "transferral" in body:
        hit = body["transferral"]
        if hit is not None:
            k = len(gens[0])
            diff = [(c == hit["i"]) - (c == hit["j"]) for c in range(k)]
            assert combination(hit["coefficients"], gens, k) == diff
    elif body["member"]:
        assert combination(body["coefficients"], gens, len(body["target"])) == body["target"]


@st.composite
def _graphs(draw, low, high):
    """A graph of low..high vertices with an arbitrary edge set."""
    n = draw(st.integers(low, high))
    pairs = list(combinations(range(n), 2))
    return Graph.from_edges(n, draw(st.lists(st.sampled_from(pairs), unique=True))
                            if pairs else [])


@st.composite
def _instance(draw, tmp_path):
    """A host of 1-6 vertices with a system, a pattern of 0-3 vertices, written
    to files; returns the three objects and their paths."""
    g = draw(_graphs(1, 6))
    f = random_system(g, draw(st.integers(0, 4)), draw(st.integers(0, 99)))
    pattern = draw(st.sampled_from([complete_graph(1), complete_graph(2), complete_graph(3),
                                    Graph.from_edges(3, [(0, 1), (1, 2)]), empty_graph(0)]))
    paths = []
    for name, text in (("host.graph", format_graph(g)), ("pattern.graph", format_graph(pattern)),
                       ("host.incompat", format_system(f))):
        paths.append(tmp_path / name)
        paths[-1].write_text(text, encoding="ascii")
    return g, f, pattern, [str(p) for p in paths]


def _csv(ints) -> str:
    return ",".join(map(str, ints))


def _tiling_of(g, f, pattern, copies) -> Tiling:
    """Reported copies (vertex lists) as a Tiling, each placed by some
    bijection from the pattern that verify_embedding accepts."""
    embs = []
    for verts in copies:
        assert len(verts) == pattern.n, verts
        placed = (Embedding.from_phi(pattern, phi) for phi in permutations(verts))
        emb = next((e for e in placed if verify_embedding(g, f, pattern, e)), None)
        assert emb is not None, f"no compatible copy of the pattern on {verts}"
        embs.append(emb)
    return Tiling(tuple(embs))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(g=_graphs(0, 9), pattern=_graphs(0, 4),
       system=st.tuples(st.integers(0, 4), st.integers(0, 99)),
       # one line in four that may name a non-edge or a vertex outside g
       extra=st.one_of(st.none(), st.none(), st.none(),
                       st.tuples(*[st.integers(-1, 10)] * 3)),
       mode=st.sampled_from(["factor", "max", "greedy", "count"]),
       budget=st.sampled_from([0, 1, 50, None]))
@example(g=complete_graph(6), pattern=empty_graph(0), system=(0, 0), extra=None,
         mode="greedy", budget=None)
def test_solve_cli_fuzz(tmp_path, capsys, g, pattern, system, extra, mode, budget):
    triples = random_system(g, *system).triples() + ([extra] if extra else [])
    paths = {}
    for name, text in (("host", format_graph(g)), ("pattern", format_graph(pattern)),
                       ("incompat", "".join(f"{v} {a} {b}\n" for v, a, b in triples))):
        paths[name] = tmp_path / f"solve.{name}"
        paths[name].write_text(text, encoding="ascii")
    argv = ["solve", "--mode", mode, "--graph", str(paths["host"]),
            "--pattern", str(paths["pattern"]), "--incompat", str(paths["incompat"])]
    if budget is not None:
        argv.append(f"--budget={budget}")
    code, out, err = run_cli(argv, capsys)
    assert code in {0, 1, 2, 64, 65, 66}, err
    assert "Traceback" not in err
    try:
        f = IncompatibilitySystem(g, triples)
    except ValidationError:
        f = None
    if f is None:
        assert code == 65           # the system file is read before any search
    elif pattern.n == 0:
        assert code == 64
    if code >= 64:
        assert out == "" and "error" in json.loads(err)
        return
    body = json.loads(out)
    if mode == "count":
        if not body["truncated"]:
            assert body["count"] == len(raw_compatible_copies(pattern, g, f))
    elif mode == "factor":
        if body["status"] == "found":
            tiling = _tiling_of(g, f, pattern, body["tiling"])
            assert verify_tiling(g, f, pattern, tiling) and tiling.covered_count() == g.n
        if code != 2:
            assert (code == 0) == raw_factor_exists(pattern, g, f)
    else:
        tiling = _tiling_of(g, f, pattern, body["tiling"])
        assert verify_tiling(g, f, pattern, tiling) and len(tiling) == body["copies"]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_absorb_verify_cli_fuzz(tmp_path, capsys, data):
    g, f, pattern, (graph, pat, inc) = data.draw(_instance(tmp_path))
    vertex = st.integers(-2, g.n + 1)
    s, a = data.draw(st.lists(vertex, max_size=4)), data.draw(st.lists(vertex, max_size=4))
    u, v, t = data.draw(vertex), data.draw(vertex), data.draw(st.integers(-1, 2))
    kind = data.draw(st.sampled_from(["absorber", "connector", "absorbing-set"]))
    xi = data.draw(st.sampled_from(["0", "1/3", "1", "3", "-1/2"]))
    budget = data.draw(st.sampled_from([0, 5, 50, 100_000]))
    code, out, err = run_cli(["absorb", "verify", "--kind", kind, "--graph", graph,
                              "--pattern", pat, "--incompat", inc, f"--s={_csv(s)}",
                              f"--a={_csv(a)}", f"--u={u}", f"--v={v}", f"--t={t}",
                              f"--xi={xi}", f"--budget={budget}"], capsys)
    assert code in {0, 1, 2, 64, 65, 66}, err
    assert "Traceback" not in err
    named = {"absorber": s + a, "connector": s + [u, v], "absorbing-set": a}[kind]
    if (pattern.n == 0 or not all(0 <= x < g.n for x in named)
            or (kind == "absorbing-set" and xi.startswith("-"))
            or (kind != "absorbing-set" and t < 1) or (kind == "connector" and u == v)):
        assert code == 64   # a verdict would be vacuous or claim a proven absence
    if code >= 64:
        assert out == "" and "error" in json.loads(err)
        return
    body = json.loads(out)
    if kind != "absorbing-set" and body["ok"]:
        covers = ([set(a), set(a) | set(s)] if kind == "absorber"
                  else [set(s) | {u}, set(s) | {v}])
        for copies, cover in zip(body["tilings"], covers, strict=True):
            tiling = _tiling_of(g, f, pattern, copies)
            assert verify_tiling(g, f, pattern, tiling) and tiling.covered() == mask_of(cover)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_absorb_find_cli_fuzz(tmp_path, capsys, data):
    g, f, pattern, (graph, pat, inc) = data.draw(_instance(tmp_path))
    vertex = st.integers(-2, g.n + 1)
    u, v, t = data.draw(vertex), data.draw(vertex), data.draw(st.integers(-1, 3))
    w = data.draw(st.lists(vertex, max_size=3))
    budget = data.draw(st.sampled_from([0, 5, 50, 100_000]))
    code, out, err = run_cli(["absorb", "find", "--graph", graph, "--pattern", pat,
                              "--incompat", inc, f"--u={u}", f"--v={v}", f"--t={t}",
                              f"--w={_csv(w)}", f"--budget={budget}"], capsys)
    assert code in {0, 1, 2, 64, 65, 66}, err
    assert "Traceback" not in err
    if not (all(0 <= x < g.n for x in [u, v, *w]) and t >= 1):
        assert code == 64   # exit 1 would claim a proven absence
    if code >= 64:
        assert out == "" and "error" in json.loads(err)
        return
    body = json.loads(out)
    if code == 0:
        assert not set(body["s"]) & set(w)
        assert verify_connector(g, f, pattern, body["s"], u, v, t).ok
    elif code == 1:
        free = [x for x in range(g.n) if x not in (u, v, *w)]
        assert not any(verify_connector(g, f, pattern, s, u, v, t).ok
                       for k in range(pattern.n * t) for s in combinations(free, k))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_regcount_cli_fuzz(tmp_path, capsys, data):
    g, _, _, (graph, _, inc) = data.draw(_instance(tmp_path))
    side = st.lists(st.integers(-2, g.n + 1), max_size=4)
    x, y = data.draw(side), data.draw(side)
    parts = tmp_path / "parts.txt"
    parts.write_text("".join(" ".join(map(str, b)) + "\n"
                             for b in data.draw(st.lists(side, max_size=3))), encoding="ascii")
    action = data.draw(st.sampled_from(["density", "regular", "reduced", "count", "sweep"]))
    eps = data.draw(st.sampled_from(["1/4", "1/2", "1", "0", "-1/3", "x", "3/2",
                                     "100000000000000000000", "1/1000000", "1/1000001"]))
    argv = ["regcount", action, "--graph", graph, f"--x={_csv(x)}", f"--y={_csv(y)}",
            f"--eps={eps}", "--incompat", inc, "--mus=1/10,1/4",
            f"--sizes={_csv(data.draw(st.lists(st.integers(-1, 2), max_size=3)))}",
            f"--budget={data.draw(st.sampled_from([0, 50, 100_000]))}"]
    with_parts = data.draw(st.booleans())
    if with_parts:
        argv += ["--parts", str(parts)]
    d = data.draw(st.sampled_from([None, "0", "1/2", "2"]))
    if d is not None:
        argv.append(f"--d={d}")
    code, out, err = run_cli(argv, capsys)
    assert code in {0, 1, 2, 64, 65, 66}, err
    assert "Traceback" not in err
    if action in ("reduced", "count", "sweep") and not with_parts:
        assert code == 64
    if action in ("density", "regular") and not all(0 <= v < g.n for v in x + y):
        assert code == 64           # so is an --eps that does not parse
    if action == "regular" and eps == "1/1000001":
        assert code == 64           # eps denominator above the int64-exactness cap
    if code >= 64:
        assert out == "" and "error" in json.loads(err)
    elif action == "density":
        xs, ys = set(x), set(y)
        edges = sum(g.has_edge(a, b) for a in xs for b in ys)
        assert json.loads(out)["density"] == format_fraction(Fraction(edges, len(xs) * len(ys)))
    elif action == "regular":
        regular, witness = raw_is_eps_regular(g, x, y, Fraction(eps),
                                              None if d is None else Fraction(d))
        rep = json.loads(out)["regular"]
        assert (code, rep["regular"]) == (0 if regular else 1, regular)
        assert rep.get("witness") == (None if witness is None else list(map(list, witness)))


def _is_complete_multipartite(g) -> bool:
    """Non-adjacency is an equivalence relation: the complement is a union of cliques."""
    apart = [[u != v and not g.has_edge(u, v) for v in range(g.n)] for u in range(g.n)]
    return g.n > 0 and all(apart[u][w] for u, v, w in permutations(range(g.n), 3)
                           if apart[u][v] and apart[v][w])


# every complete multipartite pattern of 1-4 vertices, by part sizes
_MULTIPARTITE_SIZES = [(1,), (2,), (3,), (4,), (1, 1), (1, 2), (1, 3), (2, 2),
                       (1, 1, 1), (1, 1, 2), (1, 1, 1, 1)]
# (part sizes, n, mu) that the komlos base builds; nearly all other draws are refused
_BUILDABLE = [((1, 1), 18, "1/6"), ((2, 2), 24, "1/4"), ((1, 1, 1), 27, "1/5"),
              ((1, 1, 2), 28, "1/6"), ((1, 1, 1, 1), 28, "1/7")]


@st.composite
def _construct_case(draw):
    """(pattern, n, mu) for `construct`; one draw in three is a buildable case."""
    if draw(st.integers(0, 2)) == 0:
        sizes, n, mu = draw(st.sampled_from(_BUILDABLE))
        return complete_multipartite(MultipartiteSpec(sizes))[0], n, mu
    pattern = draw(st.one_of(st.sampled_from(_MULTIPARTITE_SIZES).map(
        lambda sizes: complete_multipartite(MultipartiteSpec(sizes))[0]), _graphs(0, 4)))
    mu = draw(st.sampled_from(["0", "-1/6", "1/3", "1/2", "1", "1/6", "1/8", "1/24"]))
    return pattern, draw(st.integers(-3, 30)), mu


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(case=_construct_case(), base=st.sampled_from(["komlos", "ko"]),
       budget=st.sampled_from([-1, 0, 50, 8000]))
def test_construct_cli_fuzz(tmp_path, capsys, case, base, budget):
    pattern, n, mu = case
    pat = tmp_path / "construct.pattern"
    pat.write_text(format_graph(pattern), encoding="ascii")
    out_dir = tmp_path / "inst"
    shutil.rmtree(out_dir, ignore_errors=True)
    code, out, err = run_cli(["construct", "--pattern", str(pat), f"--n={n}", f"--mu={mu}",
                              "--base", base, "--out", str(out_dir),
                              f"--budget={budget}"], capsys)
    assert code in {0, 1, 2, 64, 65, 66}, err
    assert "Traceback" not in err
    if not _is_complete_multipartite(pattern) or Fraction(mu) <= 0 or n <= 0:
        assert code == 64
    if code >= 64:
        assert out == "" and "error" in json.loads(err)
        return
    assert code == 0
    # the written instance parses back and its certificates hold
    assert (out_dir / "certificates.json").read_text(encoding="ascii") == out
    rep = json.loads(out)["construct"]
    assert rep["certificates"]["all_hold"]
    assert rep["base_report"]["factor_status"] in {"confirmed_absent", "factor_exists"}
    g = parse_graph((out_dir / "graph.txt").read_text(encoding="ascii"))
    part = parse_partition((out_dir / "partition.txt").read_text(encoding="ascii"), g.n)
    f = parse_system((out_dir / "incompat.txt").read_text(encoding="ascii"), g)
    assert g.n == n and n % pattern.n == 0
    assert part.n == n and f.delta <= Fraction(mu) * n


def _raw_chi_is_cheap(g, chi: int) -> bool:
    # raw_chromatic_number tries all k^n assignments for k = 1..chi
    return sum(k ** g.n for k in range(1, chi + 1)) <= 100_000


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(g=_graphs(0, 9), mangle=st.sampled_from([None, None, None, "count", "vertex"]))
def test_invariants_cli_fuzz(tmp_path, capsys, g, mangle):
    text = format_graph(g)
    if mangle == "count":       # the header promises one edge more than the file has
        text = f"{g.n} {g.m + 1}" + text[text.index("\n"):]
    elif mangle == "vertex":    # an edge line leaves the graph
        text = f"{g.n} {g.m + 1}" + text[text.index("\n"):] + f"0 {g.n}\n"
    path = tmp_path / "invariants.graph"
    path.write_text(text, encoding="ascii")
    code, out, err = run_cli(["invariants", str(path)], capsys)
    assert code in {0, 1, 2, 64, 65, 66}, err
    assert "Traceback" not in err
    if mangle:
        assert code == 65
    elif g.n == 0:
        assert code == 64       # chi of the empty graph is undefined
    if code >= 64:
        assert out == "" and "error" in json.loads(err)
        return
    assert code == 0
    body = json.loads(out)
    assert (body["n"], body["m"]) == (g.n, g.m)
    chi = body["invariants"]["chi"]
    assert 1 <= chi <= g.n
    if _raw_chi_is_cheap(g, chi):
        assert chi == raw_chromatic_number(g)


def test_cli_import_leaves_numpy_out():
    # only regcount and acceptance need numpy; they import it when they run
    src_dir = Path(comptile.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, comptile.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(src_dir)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("argv, flag, token", [
    (["lattice", "--generators", "{gens}", "--target", "1,a"], "target", "a"),
    (["absorb", "verify", "--kind", "absorber", "--graph", "{k6}", "--pattern", "{k2}",
      "--s", "0,x1", "--a", "2,3"], "s", "x1"),
    (["absorb", "verify", "--kind", "absorbing-set", "--graph", "{k6}", "--pattern", "{k2}",
      "--a", "0;1", "--xi", "1/3"], "a", "0;1"),
    (["absorb", "find", "--graph", "{k6}", "--pattern", "{k2}", "--u", "0", "--v", "3",
      "--w", "2.5"], "w", "2.5"),
    (["regcount", "density", "--graph", "{c4}", "--x", "0 two", "--y", "1,3"], "x", "two"),
    (["regcount", "density", "--graph", "{c4}", "--x", "0,2", "--y", "1e3"], "y", "1e3"),
    (["regcount", "count", "--graph", "{k6}", "--parts", "{parts}", "--sizes", "1,1,one"],
     "sizes", "one"),
], ids=["lattice-target", "absorber-s", "absorbing-set-a", "find-w", "density-x",
        "density-y", "count-sizes"])
def test_malformed_integer_flags_are_usage_errors(files, capsys, argv, flag, token):
    parts = files["tmp"] / "parts.txt"
    parts.write_text("0 1\n2 3\n4 5\n", encoding="ascii")
    code, out, err = run_cli([a.format(parts=parts, **files) for a in argv], capsys)
    assert code == 64 and out == ""
    report = json.loads(err)
    assert report == {"error": "usage", "detail": f"--{flag}: not an integer: {token!r}"}


@pytest.mark.parametrize("line", ["1,,2", "1,2,", ",1,2", "1, ,2"],
                         ids=["inner", "trailing", "leading", "blank"])
def test_an_empty_generator_field_is_a_parse_error(files, capsys, line):
    path = files["tmp"] / "holes.txt"
    path.write_text(f"2,1\n{line}\n", encoding="ascii")
    code, out, err = run_cli(["lattice", "--generators", str(path), "--target", "3,3"],
                             capsys)
    assert code == 65 and out == ""
    assert json.loads(err) == {"error": "parse", "detail": f"bad vector line {line!r}"}


@pytest.mark.parametrize("argv, flag, text", [
    (["lattice", "--generators", "{gens}", "--target", "4,,6"], "target", "4,,6"),
    (["lattice", "--generators", "{gens}", "--target", "4,6,"], "target", "4,6,"),
    (["regcount", "count", "--graph", "{k6}", "--parts", "{parts}", "--sizes", "1,,1"],
     "sizes", "1,,1"),
    (["regcount", "count", "--graph", "{k6}", "--parts", "{parts}", "--sizes", ",1,1"],
     "sizes", ",1,1"),
], ids=["target-inner", "target-trailing", "sizes-inner", "sizes-leading"])
def test_an_empty_flag_field_is_a_usage_error(files, capsys, argv, flag, text):
    parts = files["tmp"] / "parts.txt"
    parts.write_text("0 1\n2 3\n4 5\n", encoding="ascii")
    code, out, err = run_cli([a.format(parts=parts, **files) for a in argv], capsys)
    assert code == 64 and out == ""
    assert json.loads(err) == {"error": "usage",
                               "detail": f"--{flag}: empty field between commas: {text!r}"}


def test_spaces_around_commas_stay_valid(files, capsys):
    path = files["tmp"] / "spaced.txt"
    path.write_text(" 1, 2\n2 ,1 \n", encoding="ascii")
    code, out, _ = run_cli(["lattice", "--generators", str(path), "--target", " 1, -1 "],
                           capsys)
    assert code == 0 and json.loads(out)["coefficients"] == [-1, 1]
    parts = files["tmp"] / "parts.txt"
    parts.write_text("0 1\n2 3\n", encoding="ascii")
    code, out, _ = run_cli(["regcount", "count", "--graph", files["k6"], "--parts", str(parts),
                            "--sizes", "1, 1"], capsys)
    assert code == 0 and json.loads(out)["count"]["total"] == 4


@pytest.mark.parametrize("argv", [
    ["solve", "--mode", "greedy", "--graph", "{k6}"],
    ["absorb", "verify", "--kind", "absorbing-set", "--graph", "{k6}", "--a", "0,1",
     "--xi", "1/3"],
], ids=["solve-greedy", "absorb-verify-absorbing-set"])
def test_empty_pattern_is_a_usage_error(files, capsys, argv):
    code, out, err = run_cli([a.format(**files) for a in argv]
                             + ["--pattern", files["empty"]], capsys)
    assert code == 64 and out == ""
    assert json.loads(err) == {"error": "ValidationError", "detail": "empty pattern"}


def test_absorb_cli(files, capsys):
    code, out, _ = run_cli(["absorb", "find", "--graph", files["k6"],
                            "--pattern", files["k2"], "--u", "0", "--v", "3"],
                           capsys)
    assert code == 0 and json.loads(out)["s"] == [1]
    code, out, _ = run_cli(["absorb", "verify", "--kind", "connector",
                            "--graph", files["k6"], "--pattern", files["k2"],
                            "--s", "2", "--u", "0", "--v", "3"], capsys)
    assert code == 0 and json.loads(out)["ok"]
    code, out, _ = run_cli(["absorb", "verify", "--kind", "absorber",
                            "--graph", files["k6"], "--pattern", files["k2"],
                            "--s", "0,1", "--a", "2,3", "--t", "1"], capsys)
    assert code == 0 and json.loads(out)["ok"]
    code, out, _ = run_cli(["absorb", "verify", "--kind", "absorbing-set",
                            "--graph", files["k6"], "--pattern", files["k2"],
                            "--a", "0,1", "--xi", "1/3"], capsys)
    assert code == 0 and json.loads(out)["verdict"] == "proven"
    # refuted: S = {1, 2} is too large a connector interior for K_2 at t = 1
    code, out, _ = run_cli(["absorb", "verify", "--kind", "connector",
                            "--graph", files["k6"], "--pattern", files["k2"],
                            "--s", "1,2", "--u", "0", "--v", "3"], capsys)
    assert code == 1 and json.loads(out)["status"] == "refuted"
    code, out, _ = run_cli(["absorb", "find", "--graph", files["k6"],
                            "--pattern", files["k2"], "--u", "0", "--v", "3",
                            "--budget", "0"], capsys)
    assert code == 2 and json.loads(out)["status"] == "indeterminate"


@pytest.mark.parametrize("argv", [
    ["solve", "--mode", "factor", "--graph", "{k6}", "--pattern", "{k2}", "--budget", "-5"],
    ["solve", "--mode", "count", "--graph", "{k6}", "--pattern", "{k2}", "--budget", "-5"],
    ["solve", "--mode", "max", "--graph", "{k6}", "--pattern", "{k2}", "--budget", "-5"],
    ["absorb", "find", "--graph", "{k6}", "--pattern", "{k2}", "--u", "0", "--v", "3",
     "--budget", "-3"],
], ids=["factor", "count", "max", "absorb-find"])
def test_negative_budget_is_a_usage_error(files, capsys, argv):
    # it used to run and report the negative budget plus one as work done
    code, out, err = run_cli([a.format(**files) for a in argv], capsys)
    assert code == 64 and out == ""
    assert json.loads(err) == {"error": "usage",
                               "detail": f"--budget must be >= 0, got {argv[-1]}"}


def test_non_integer_json_system_is_a_parse_error(files, capsys):
    inc = files["tmp"] / "k3.json"
    inc.write_text('{"pairs": [[0, 1, 2.7]]}', encoding="ascii")
    code, out, err = run_cli(["solve", "--graph", files["k3"], "--pattern", files["k2"],
                              "--incompat", str(inc)], capsys)
    assert code == 65 and out == ""
    assert json.loads(err) == {"error": "parse",
                               "detail": "bad incompatibility JSON pair [0, 1, 2.7]"}


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_absorbing_set_sampling_without_samples_is_usage_error(files, capsys, samples):
    k30 = files["tmp"] / "k30.graph"
    k30.write_text(format_graph(complete_graph(30)), encoding="ascii")
    code, out, err = run_cli(["absorb", "verify", "--kind", "absorbing-set",
                              "--graph", str(k30), "--pattern", files["k2"],
                              "--a", "0,1", "--xi", "1/2", "--samples", samples], capsys)
    assert code == 64 and out == ""
    assert "samples" in json.loads(err)["detail"]


def test_invariants_on_a_long_cycle_stop_at_the_size_cap(files, capsys):
    # the coloring cap refuses the cycle before chi or any profile is searched
    c2100 = files["tmp"] / "c2100.graph"
    c2100.write_text(format_graph(cycle_graph(2100)), encoding="ascii")
    code, out, err = run_cli(["invariants", str(c2100)], capsys)
    assert code == 64 and out == ""
    assert json.loads(err)["error"] == "SizeCapError"


def test_invariants_refuse_an_oversized_graph_before_any_search(files, capsys, monkeypatch):
    def no_search(g, k):
        raise AssertionError("a coloring search started")

    monkeypatch.setattr(coloring, "_colorings", no_search)
    c13 = cycle_graph(13)
    with pytest.raises(SizeCapError):
        coloring.chi_star(c13)
    path = files["tmp"] / "c13.graph"
    path.write_text(format_graph(c13), encoding="ascii")
    code, out, err = run_cli(["invariants", str(path)], capsys)
    assert code == 64 and out == ""
    assert json.loads(err)["error"] == "SizeCapError"


@pytest.mark.parametrize("rows, detail", [
    ("0 1\n2 3\n4 9\n", "vertex set '4 9' names a vertex outside 0..5"),
    ("0 1\n-1 3\n4 5\n", "vertex set '-1 3' names a vertex outside 0..5"),
    ("0 1\n1 3\n4 5\n", "vertex set '1 3' shares a vertex with an earlier set"),
], ids=["outside", "negative", "overlapping"])
def test_bad_vertex_sets_are_a_parse_error_in_every_regcount_action(files, capsys, rows,
                                                                     detail):
    parts = files["tmp"] / "parts.txt"
    parts.write_text(rows, encoding="ascii")
    common = ["--graph", files["k6"], "--parts", str(parts), "--sizes", "1,1,1"]
    for argv in (["regcount", "count", *common],
                 ["regcount", "sweep", *common, "--mus", "1/10"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 65 and out == "", argv
        assert json.loads(err) == {"error": "parse", "detail": detail}, argv
    code, out, err = run_cli(["regcount", "reduced", *common, "--d", "1/2"], capsys)
    assert code == 65 and out == "" and json.loads(err)["error"] == "parse"


def test_regcount_budget_cut_is_indeterminate(files, capsys):
    # exit 2, as solve reports a cut on the same host
    parts = files["tmp"] / "parts.txt"
    parts.write_text("0 1\n2 3\n4 5\n", encoding="ascii")
    common = ["--graph", files["k6"], "--parts", str(parts), "--sizes", "1,1,1", "--budget", "3"]
    for argv in (["regcount", "count", *common],
                 ["regcount", "sweep", *common, "--mus", "1/10"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "BudgetExceeded"
    code, _, _ = run_cli(["solve", "--pattern", files["k3"], "--graph", files["k6"],
                          "--mode", "count", "--budget", "3"], capsys)
    assert code == 2


@pytest.mark.parametrize("edges, d, code", [
    ([(a, b) for a in range(3) for b in range(3, 6)], "1/2", 0),   # K_{3,3}: regular
    ([(0, 3), (0, 4), (0, 5)], None, 1),                           # a star: irregular
    ([(0, 3), (0, 4), (0, 5)], "1/2", 1),                          # density 1/3 < d
], ids=["regular", "irregular", "below-d"])
def test_regcount_regular_report_matches_the_oracle(files, capsys, edges, d, code):
    g = Graph.from_edges(6, edges)
    path = files["tmp"] / "pair.graph"
    path.write_text(format_graph(g), encoding="ascii")
    argv = ["regcount", "regular", "--graph", str(path), "--x", "0,1,2", "--y", "3,4,5",
            "--eps", "1/4"] + ([] if d is None else ["--d", d])
    got, out, _ = run_cli(argv, capsys)
    rep = json.loads(out)["regular"]
    regular, witness = raw_is_eps_regular(g, [0, 1, 2], [3, 4, 5], Fraction(1, 4),
                                          None if d is None else Fraction(d))
    assert got == code and rep["regular"] == regular == (code == 0)
    assert rep.get("witness") == (None if witness is None else list(map(list, witness)))
    assert rep["density"] == format_fraction(Fraction(len(edges), 9))
    assert rep["eps"] == "1/4" and rep.get("d_min") == (None if d is None else d)
    assert (witness is not None) == (code == 1 and d is None)


@pytest.mark.parametrize("side, code", [(20, 0), (21, 64)])
def test_regcount_regular_side_cap_is_20(files, capsys, side, code):
    k = Graph.from_edges(2 * side, [(a, side + b) for a in range(side) for b in range(side)])
    path = files["tmp"] / "kss.graph"
    path.write_text(format_graph(k), encoding="ascii")
    got, out, err = run_cli(["regcount", "regular", "--graph", str(path),
                             "--x", ",".join(map(str, range(side))),
                             "--y", ",".join(map(str, range(side, 2 * side))),
                             "--eps", "1/10"], capsys)
    assert got == code
    if code:
        assert out == "" and json.loads(err)["error"] == "SizeCapError"
    else:
        assert json.loads(out)["regular"]["regular"] is True


def test_regcount_cli(files, capsys):
    code, out, _ = run_cli(["regcount", "density", "--graph", files["c4"],
                            "--x", "0,2", "--y", "1,3"], capsys)
    assert code == 0 and json.loads(out)["density"] == "1/1"
    parts = files["tmp"] / "parts.txt"
    parts.write_text("0 1\n2 3\n4 5\n", encoding="ascii")
    code, out, _ = run_cli(["regcount", "count", "--graph", files["k6"],
                            "--parts", str(parts), "--sizes", "1,1,1"], capsys)
    assert code == 0 and json.loads(out)["count"]["total"] == 8
    # parts need not cover the whole vertex set
    partial = files["tmp"] / "partial.txt"
    partial.write_text("0 1\n2\n", encoding="ascii")
    code, out, _ = run_cli(["regcount", "count", "--graph", files["k6"],
                            "--parts", str(partial), "--sizes", "1,1"], capsys)
    assert code == 0 and json.loads(out)["count"]["total"] == 2
    csv_path = files["tmp"] / "sweep.csv"
    code, out, _ = run_cli(["regcount", "sweep", "--graph", files["k6"],
                            "--parts", str(parts), "--sizes", "1,1,1",
                            "--mus", "0,1/6", "--csv", str(csv_path)], capsys)
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "mu,total,compatible,c_observed" and len(lines) == 3


@pytest.mark.parametrize("action", ["count", "sweep"])
def test_regcount_refuses_more_vertex_sets_than_parts(files, capsys, action):
    # a fourth set is refused as a missing one is, not dropped
    parts = files["tmp"] / "four_sets.txt"
    parts.write_text("0\n1\n2\n3\n", encoding="ascii")
    code, out, err = run_cli(["regcount", action, "--graph", files["k6"], "--parts", str(parts),
                              "--sizes", "1,1,1", "--mus", "1/6"], capsys)
    assert code == 64 and out == ""
    assert json.loads(err) == {"error": "ValidationError",
                               "detail": "need one vertex set per pattern part"}


def test_regcount_sweep_csv_is_pinned(files, capsys):
    # the CSV printed before the system generator replayed its shuffles in bulk
    k12 = files["tmp"] / "k12.graph"
    k12.write_text(format_graph(complete_graph(12)), encoding="ascii")
    parts = files["tmp"] / "parts12.txt"
    parts.write_text("0 1 2 3\n4 5 6 7\n8 9 10 11\n", encoding="ascii")
    code, out, _ = run_cli(["regcount", "sweep", "--graph", str(k12), "--parts", str(parts),
                            "--sizes", "1,1,1", "--mus", "1/12,1/6,1/4,1/3",
                            "--seed", str(2**33 + 1)], capsys)
    assert code == 0
    assert out == ("mu,total,compatible,c_observed\n1/12,64,48,3/4\n1/6,64,40,5/8\n"
                   "1/4,64,22,11/32\n1/3,64,11,11/64\n")


@pytest.mark.parametrize("action", ["reduced", "count", "sweep"])
def test_regcount_without_parts_is_a_usage_error(files, capsys, action):
    code, out, err = run_cli(["regcount", action, "--graph", files["k6"],
                              "--sizes", "1,1", "--d", "1/2"], capsys)
    assert code == 64 and out == ""
    assert json.loads(err) == {"error": "usage", "detail": f"regcount {action} needs --parts"}


@pytest.mark.parametrize("argv, flag, text", [
    (["construct", "--pattern", "{k111}", "--n", "12", "--mu", "1/", "--out", "{tmp}/x"],
     "mu", "1/"),
    (["absorb", "verify", "--kind", "absorbing-set", "--graph", "{k6}", "--pattern", "{k2}",
      "--a", "0,1", "--xi", "abc"], "xi", "abc"),
    (["regcount", "regular", "--graph", "{k6}", "--x", "0", "--y", "1", "--eps", "abc"],
     "eps", "abc"),
    (["regcount", "regular", "--graph", "{k6}", "--x", "0", "--y", "1", "--d", "1/0"],
     "d", "1/0"),
    (["regcount", "reduced", "--graph", "{k6}", "--parts", "{parts}", "--d", ""], "d", ""),
    (["regcount", "sweep", "--graph", "{k6}", "--parts", "{parts}", "--sizes", "1,1",
      "--mus", "1/100,abc"], "mus", "abc"),
], ids=["construct-mu", "absorb-xi", "regular-eps", "regular-d", "reduced-d", "sweep-mus"])
def test_a_malformed_rational_flag_is_a_usage_error(files, capsys, argv, flag, text):
    parts = files["tmp"] / "parts.txt"
    parts.write_text("0 1 2\n3 4 5\n", encoding="ascii")
    code, out, err = run_cli([a.format(parts=parts, **files) for a in argv], capsys)
    assert code == 64 and out == ""
    assert json.loads(err) == {"error": "usage",
                               "detail": f"--{flag}: not a rational number: {text!r}"}


@pytest.mark.parametrize("mus, detail", [
    ("1/100,,1/50", "--mus: empty field between commas: '1/100,,1/50'"),
    ("1/100,", "--mus: empty field between commas: '1/100,'"),
    ("1/100,abc", "--mus: not a rational number: 'abc'"),
    ("", "--mus needs at least one value"),
])
def test_sweep_parses_every_mu_before_computing_a_row(files, capsys, monkeypatch, mus, detail):
    from comptile import regularity
    rows = []
    monkeypatch.setattr(regularity, "counting_experiment", lambda *a, **k: rows.append(a))
    parts = files["tmp"] / "parts.txt"
    parts.write_text("0 1 2\n3 4 5\n", encoding="ascii")
    csv_path = files["tmp"] / "sweep.csv"
    code, out, err = run_cli(["regcount", "sweep", "--graph", files["k6"], "--parts", str(parts),
                              "--sizes", "1,1", "--mus", mus, "--csv", str(csv_path)], capsys)
    assert (code, out, rows, csv_path.exists()) == (64, "", [], False)
    assert json.loads(err) == {"error": "usage", "detail": detail}


@pytest.mark.parametrize("only, detail", [
    ("A1,,A8", "--only: empty criterion id in 'A1,,A8'"),
    ("A1,", "--only: empty criterion id in 'A1,'"),
    ("", "--only: empty criterion id in ''"),
    ("  ", "--only: empty criterion id in '  '"),
    ("A1,Z9", "--only: unknown criterion 'Z9'"),
])
def test_acceptance_refuses_a_bad_selector_before_running_any(capsys, monkeypatch, only, detail):
    from comptile import acceptance
    ran = []
    for cid in acceptance._CRITERIA:
        monkeypatch.setitem(acceptance._CRITERIA, cid, lambda seed, cid=cid: ran.append(cid))
    code, out, err = run_cli(["acceptance", "--only", only], capsys)
    assert (code, out, ran) == (64, "", [])
    assert json.loads(err) == {"error": "usage", "detail": detail}
    with pytest.raises(ComptileError, match="unknown criterion 'Z9'"):
        acceptance.run_battery(["A1", "Z9"])
    assert ran == []


# A child's address-space cap: room for the interpreter and numpy with one
# BLAS thread, far below what the oversized inputs below would allocate.
_CHILD_ADDRESS_SPACE = 512 << 20


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_CHILD_ADDRESS_SPACE, _CHILD_ADDRESS_SPACE))


@pytest.mark.parametrize("argv, code, detail", [
    (["invariants", "{huge}"], 65, "outside [0, 65536]"),
    (["solve", "--pattern", "{k2}", "--graph", "{huge}"], 65, "outside [0, 65536]"),
    (["regcount", "count", "--graph", "{k2}", "--parts", "{parts}",
      "--sizes", "100000000,1"], 64, "outside [0, 65536]"),
    # 18,735,587 triples, refused before the base is built
    (["construct", "--pattern", "{k2}", "--n", "2400", "--mu", "1/100", "--out", "{out}"], 64,
     "capped at 1000000"),
], ids=["graph-header", "solve-host-header", "pattern-sizes", "construct-triples"])
def test_oversized_inputs_are_refused_before_allocating(files, argv, code, detail):
    # the cap applies to the child only; an allocation sized by the input
    # would end in MemoryError (exit 70) under it
    tmp = files["tmp"]
    (tmp / "huge.graph").write_text("1000000000 0\n", encoding="ascii")
    (tmp / "parts.txt").write_text("0\n1\n", encoding="ascii")
    paths = dict(files, huge=str(tmp / "huge.graph"), parts=str(tmp / "parts.txt"),
                 out=str(tmp / "construct-out"))
    src_dir = Path(comptile.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "comptile.cli", *(a.format(**paths) for a in argv)],
        capture_output=True, text=True, timeout=120, preexec_fn=_cap_address_space,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(src_dir),
             "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == "" and detail in json.loads(proc.stderr)["detail"]


@pytest.mark.parametrize("pattern, host, mode, code, fields", [
    ("c4000", "k3", "count", 0, {"count": 0, "truncated": False, "expansions": 0}),
    ("c4000", "e6000", "count", 2, {"count": 0, "truncated": True, "expansions": 101}),
    ("e6000", "e6000", "count", 2, {"count": 0, "truncated": True, "expansions": 101}),
    ("c4000", "e6000", "max", 2, {"copies": 0, "optimal": False}),
])
def test_budget_bounds_the_work_on_a_large_pattern(files, pattern, host, mode, code, fields):
    # deriving the symmetry rule of these patterns takes tens of millions
    # of steps (C_4000's orbit searches, E_6000's 18M vertex pairs) and a
    # run that bounds it by --budget 100 takes about 0.1 s
    tmp = files["tmp"]
    graphs = {"c4000": cycle_graph(4000), "e6000": empty_graph(6000)}
    for name in graphs:
        (tmp / f"{name}.graph").write_text(format_graph(graphs[name]), encoding="ascii")
    paths = dict(files, **{name: str(tmp / f"{name}.graph") for name in graphs})
    src_dir = Path(comptile.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "comptile.cli", "solve", "--pattern", paths[pattern],
         "--graph", paths[host], "--mode", mode, "--budget", "100"],
        capture_output=True, text=True, timeout=10,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(src_dir)})
    assert proc.returncode == code, proc.stderr
    out = json.loads(proc.stdout)
    assert {key: out[key] for key in fields} == fields


# (argv with FILE for the input, the file, the file with blank and comment
# lines, the file with a non-integer token, how the error quotes that token)
_LINE_GRAMMAR_CASES = {
    "graph": (["invariants", "FILE"], "3 3\n0 1\n0 2\n1 2\n",
              "# K3\n3 3\n\n0 1\n  # edges\n0 2\n1 2\n\n", "3 3\n0 1\n0 x\n1 2\n",
              "'0 x'"),
    "partition": (["regcount", "reduced", "--graph", "k6", "--parts", "FILE", "--d", "1/2"],
                  "0 1\n2 3\n4 5\n", "#parts\n0 1\n\n2 3\n\t\n4 5\n",
                  "0 1\n2 3x\n4 5\n", "'2 3x'"),
    "system": (["solve", "--pattern", "k3", "--graph", "k6", "--incompat", "FILE",
                "--mode", "count"], "0 1 2\n3 4 5\n", "\n# F_0\n0 1 2\n # F_3\n3 4 5\n",
               "0 1 2\n3 4 -\n", "'3 4 -'"),
    # JSON has no comment lines; blank lines are JSON whitespace
    "system-json": (["solve", "--pattern", "k3", "--graph", "k6", "--incompat", "FILE",
                     "--mode", "count"], '{"pairs": [[0, 1, 2], [3, 4, 5]]}',
                    '\n{"pairs": [[0, 1, 2],\n\n[3, 4, 5]]}\n\n',
                    '{"pairs": [[0, 1, 2], [3, 4, "x"]]}', "[3, 4, 'x']"),
    "vertex-sets": (["regcount", "count", "--graph", "k6", "--parts", "FILE", "--sizes", "1,1"],
                    "0 1\n2 3\n", "0 1\n# second part\n\n2 3\n", "0 1\n2 3.0\n",
                    "'2 3.0'"),
    "generators": (["lattice", "--generators", "FILE", "--target", "1,-1"], "1,2\n2,1\n",
                   "1,2\n\n#1,1\n2,1\n", "1,2\n2,one\n", "'2,one'"),
}


@pytest.mark.parametrize("case", sorted(_LINE_GRAMMAR_CASES))
def test_line_grammar_is_shared_by_every_input(files, capsys, case):
    argv, plain, noisy, bad, quoted = _LINE_GRAMMAR_CASES[case]
    path = files["tmp"] / f"{case}.txt"
    argv = [str(path) if a == "FILE" else files.get(a, a) for a in argv]
    outs = []
    for text in (plain, noisy):
        path.write_text(text, encoding="ascii")
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    path.write_text(bad, encoding="ascii")
    code, out, err = run_cli(argv, capsys)
    report = json.loads(err)
    assert code == 65 and out == "" and report["error"] == "parse"
    assert quoted in report["detail"]


def test_error_exit_codes(files, capsys, tmp_path):
    code, _, err = run_cli(["invariants", str(tmp_path / "missing.graph")], capsys)
    assert code == 66 and json.loads(err)["error"] == "io"
    bad = tmp_path / "bad.graph"
    bad.write_text("not a graph\n", encoding="ascii")
    code, _, err = run_cli(["invariants", str(bad)], capsys)
    assert code == 65 and json.loads(err)["error"] == "parse"
    bad.write_bytes("2 1\n0 1 \u00e9\n".encode("utf-8"))
    code, _, err = run_cli(["invariants", str(bad)], capsys)
    assert code == 65 and "not ASCII" in json.loads(err)["detail"]
    code, _, err = run_cli(["solve", "--pattern", files["k2"]], capsys)
    assert code == 64
    # domain-invalid construction: structured error, usage-style exit
    code, _, err = run_cli(["construct", "--pattern", files["k111"], "--n", "12",
                            "--mu", "1/6", "--out", str(tmp_path / "x")], capsys)
    assert code == 64 and "too small" in json.loads(err)["detail"]
    code, _, err = run_cli(["acceptance", "--only", "Z9"], capsys)
    assert code == 64 and "unknown criterion" in json.loads(err)["detail"]


def test_construct_cli_writes_artifacts(files, capsys, tmp_path):
    out_dir = tmp_path / "inst"
    code, out, _ = run_cli(["construct", "--pattern", files["k111"], "--n", "24",
                            "--mu", "1/6", "--out", str(out_dir)], capsys)
    assert code == 0
    for fname in ("graph.txt", "partition.txt", "incompat.txt", "certificates.json"):
        assert (out_dir / fname).exists()
    cert = json.loads((out_dir / "certificates.json").read_text())
    assert cert["construct"]["certificates"]["all_hold"]
    # the emitted files reload into a consistent instance
    from comptile.graphs import parse_graph, parse_partition
    from comptile.incompat import parse_system
    g = parse_graph((out_dir / "graph.txt").read_text())
    part = parse_partition((out_dir / "partition.txt").read_text(), g.n)
    f = parse_system((out_dir / "incompat.txt").read_text(), g)
    assert part.k == 3 and f.delta == 4


# sha256 of stdout (certificates.json holds the same bytes), incompat.txt,
# graph.txt and partition.txt as recorded at commit e530d34: how the
# pipeline derives the instance must not change a byte of what it writes
_CONSTRUCT_DIGESTS = {
    ("k111", 24, "komlos"): (
        "044759ea62fec7095342a5cba55d8fe5606c5fd8b27dbc64701971497072239e",
        "5026b2e4527bfd4a27da30eaf4cde707494068d613a531610aba43a31ce0bf0b",
        "9e98411127c4ab9d9f8539107bd30865d747cfc7bc024fb9d2dba36746f59c76",
        "7ae521bf6a37db2e7331794055a6c0d3f4d62d7c0f45c5f97f272955f5db4daa"),
    ("k111", 24, "ko"): (
        "b2d8cefd5917f2f38101e4acb321e26216874fca06044cff720573a9fc38867f",
        "631bb7bd364fa518ed7164081749b8df182dd8d76ddf8ac7012ede9ec8bde261",
        "584ea05febb9c46f428cf91796e240751d3b3a990f0ed4160075394e64266dd9",
        "c303d95029a7cfa821902b29d63557265ea87e952e4ed5ad8bdd683012a5070f"),
    ("k111", 120, "komlos"): (
        "169ed914da64cae6b013bd2a2dc037ae55abc9ba95b4fbe1a7a1bd3edf2602a4",
        "1ac75d8df7187ae1c20ecc78962017e27e1ff8a44c30c7bdb8253789b4f7f8ac",
        "1dc7fd0de61db7bdac96e0c49fd044ab5a17447994954c343e7ba6d595d426e4",
        "82917c94e238a8dd61726f8acc48ccf4f798a9735dbd95fec42a37ad667aeb11"),
    ("k112", 24, "komlos"): (
        "64157217084e006e2c01f914115c0858dbbdd83f1351f7420cf8a55bf5846056",
        "769560cdfd204bbcdda3d460e0d92d489ccb687d82bef5a81905db530e195790",
        "a67b0d509aa88b207675e3120782752633d09699cc53eb03e59d0c607edda0b7",
        "ecdbe1ae55d37260849e88e172c3fc6f82f0f72f6927fd87ffd0a0ed43450120"),
}


@pytest.mark.parametrize("pattern, n, base", sorted(_CONSTRUCT_DIGESTS))
def test_construct_outputs_are_pinned(files, capsys, tmp_path, pattern, n, base):
    k112 = tmp_path / "k112.graph"
    k112.write_text(format_graph(complete_multipartite(MultipartiteSpec((1, 1, 2)))[0]),
                    encoding="ascii")
    out_dir = tmp_path / "inst"
    code, out, _ = run_cli(["construct", "--pattern", str(k112) if pattern == "k112"
                            else files[pattern], "--n", str(n), "--mu", "1/6",
                            "--base", base, "--out", str(out_dir)], capsys)
    assert code == 0
    assert (out_dir / "certificates.json").read_text(encoding="ascii") == out
    got = [out.encode("ascii")] + [(out_dir / name).read_bytes()
                                   for name in ("incompat.txt", "graph.txt", "partition.txt")]
    assert tuple(hashlib.sha256(b).hexdigest() for b in got) == _CONSTRUCT_DIGESTS[
        (pattern, n, base)]


def test_construct_sorts_the_triples_once(files, capsys, tmp_path, monkeypatch):
    # incompat.txt and certificates.json share one sorted list
    calls = []
    real = IncompatibilitySystem.triples

    def counted(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(IncompatibilitySystem, "triples", counted)
    code, _, _ = run_cli(["construct", "--pattern", files["k111"], "--n", "24", "--mu", "1/6",
                          "--out", str(tmp_path / "inst")], capsys)
    assert code == 0 and len(calls) == 1


def test_subprocess_determinism_across_hash_seeds(files, tmp_path):
    # The child runs the package this process imported (src/ under
    # PYTHONPATH=src or an editable install); the explicit minimal env keeps
    # an inherited PYTHONHASHSEED out.
    src_dir = Path(comptile.__file__).resolve().parents[1]
    artifacts = ("graph.txt", "partition.txt", "incompat.txt", "certificates.json")
    runs = []
    for hash_seed in ("1", "271828"):
        out_dir = tmp_path / f"d{hash_seed}"
        proc = subprocess.run(
            [sys.executable, "-m", "comptile.cli", "construct",
             "--pattern", files["k111"], "--n", "24", "--mu", "1/6",
             "--out", str(out_dir)],
            capture_output=True, text=True, cwd=tmp_path,
            env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin",
                 "PYTHONPATH": str(src_dir)})
        assert proc.returncode == 0, proc.stderr
        runs.append({"stdout": proc.stdout,
                     **{name: (out_dir / name).read_bytes() for name in artifacts}})
    for key in ("stdout", *artifacts):
        assert runs[0][key] == runs[1][key], key
