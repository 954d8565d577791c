import json
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import comptile
from comptile import cli
from comptile.absorb import verify_connector
from comptile.graphs import Graph, complete_graph, complete_multipartite, cycle_graph
from comptile.graphs import MultipartiteSpec, format_graph
from comptile.incompat import format_system
from comptile.util import format_fraction

from .helpers import combination, random_system


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, g in (("k2", complete_graph(2)), ("k3", complete_graph(3)),
                    ("c4", cycle_graph(4)), ("k6", complete_graph(6)),
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
    assert code == 1 and json.loads(out)["reason"] == "exhausted"
    code, out, _ = run_cli(["solve", "--pattern", files["k3"],
                            "--graph", files["k6"], "--budget", "3"], capsys)
    assert code == 2


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
def _instance(draw, tmp_path):
    """A host of 1-6 vertices with a system, a pattern of 1-3 vertices, written
    to files; returns the three objects and their paths."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph.from_edges(n, draw(st.lists(st.sampled_from(pairs), unique=True))
                         if pairs else [])
    f = random_system(g, draw(st.integers(0, 4)), draw(st.integers(0, 99)))
    pattern = draw(st.sampled_from([complete_graph(1), complete_graph(2), complete_graph(3),
                                    Graph.from_edges(3, [(0, 1), (1, 2)])]))
    paths = []
    for name, text in (("host.graph", format_graph(g)), ("pattern.graph", format_graph(pattern)),
                       ("host.incompat", format_system(f))):
        paths.append(tmp_path / name)
        paths[-1].write_text(text, encoding="ascii")
    return g, f, pattern, [str(p) for p in paths]


def _csv(ints) -> str:
    return ",".join(map(str, ints))


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
    argv = ["regcount", action, "--graph", graph, f"--x={_csv(x)}", f"--y={_csv(y)}",
            f"--eps={data.draw(st.sampled_from(['1/4', '1/2', '1', '0', '-1/3', 'x']))}",
            "--parts", str(parts), "--incompat", inc, "--mus=1/10,1/4",
            f"--sizes={_csv(data.draw(st.lists(st.integers(-1, 2), max_size=3)))}",
            f"--budget={data.draw(st.sampled_from([0, 50, 100_000]))}"]
    d = data.draw(st.sampled_from([None, "0", "1/2", "2"]))
    if d is not None:
        argv.append(f"--d={d}")
    code, out, err = run_cli(argv, capsys)
    assert code in {0, 1, 2, 64, 65, 66}, err
    assert "Traceback" not in err
    if action in ("density", "regular") and not all(0 <= v < g.n for v in x + y):
        assert code in {64, 65}     # 65 when --eps fails to parse first
    if code >= 64:
        assert out == "" and "error" in json.loads(err)
    elif action == "density":
        xs, ys = set(x), set(y)
        edges = sum(g.has_edge(a, b) for a in xs for b in ys)
        assert json.loads(out)["density"] == format_fraction(Fraction(edges, len(xs) * len(ys)))


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
    # chi needs no recursion; the profile enumeration then hits its cap
    c2100 = files["tmp"] / "c2100.graph"
    c2100.write_text(format_graph(cycle_graph(2100)), encoding="ascii")
    code, out, err = run_cli(["invariants", str(c2100)], capsys)
    assert code == 64 and out == ""
    assert json.loads(err)["error"] == "SizeCapError"


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
    from comptile.incompat import parse_system_any
    g = parse_graph((out_dir / "graph.txt").read_text())
    part = parse_partition((out_dir / "partition.txt").read_text(), g.n)
    f = parse_system_any((out_dir / "incompat.txt").read_text(), g)
    assert part.k == 3 and f.bound_report().delta == 4


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
