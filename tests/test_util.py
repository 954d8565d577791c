import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import comptile
from comptile import absorb, acceptance, coloring, construct, graphs, regularity, solver
from comptile.construct import ConstructionSpec
from comptile.errors import ValidationError
from comptile.graphs import MultipartiteSpec, VertexPartition, complete_graph
from comptile.incompat import IncompatibilitySystem, random_bounded_system
from comptile.util import FrozenRecord, Record, rational

K3, K6 = complete_graph(3), complete_graph(6)
THIRDS = VertexPartition(6, ((0, 1), (2, 3), (4, 5)))


def test_rational_reads_exactly():
    assert rational("3/10", "mu") == rational(Fraction(3, 10), "mu") == Fraction(3, 10)
    assert rational(2, "xi") == 2


@pytest.mark.parametrize("name, call", [
    ("mu", lambda x: random_bounded_system(K6, x, 1)),
    ("mu", lambda x: ConstructionSpec(MultipartiteSpec((1, 1, 1)), 30, x)),
    ("beta", lambda x: absorb.robust_vectors(K6, IncompatibilitySystem.empty(K6), K3,
                                             THIRDS, x)),
    ("xi", lambda x: absorb.verify_absorbing_set(K6, IncompatibilitySystem.empty(K6), K3,
                                                 [0, 1, 2], x)),
    ("eps", lambda x: regularity.is_eps_regular_exhaustive(K6, [0, 1, 2], [3, 4, 5], x)),
    ("d_min", lambda x: regularity.is_eps_regular_exhaustive(K6, [0, 1, 2], [3, 4, 5],
                                                             "1/2", d_min=x)),
    ("eps", lambda x: regularity.reduced_graph(K6, [[0, 1, 2], [3, 4, 5]], x, "1/2")),
    ("d", lambda x: regularity.reduced_graph(K6, [[0, 1, 2], [3, 4, 5]], "1/2", x)),
], ids=["incompat-mu", "construct-mu", "absorb-beta", "absorb-xi", "regularity-eps",
        "regularity-d_min", "reduced-eps", "reduced-d"])
def test_public_rationals_refuse_a_float(name, call):
    # a float is read at its binary value: beta = 0.3 on 10 vertices checked
    # |W| = 2, and mu = 0.1 became 3602879701896397/36028797018963968
    call("1/10")                        # the exact spelling is accepted
    with pytest.raises(ValidationError, match=rf"^{name} 0\.1 is a float.*\"3/10\""):
        call(0.1)


REQUIRED = object()    # marks a field without a default

# Every record, the 24 result records and Graph: (class, frozen, ((field,
# value, default), ...), the repr of class(*values)).  The values differ
# from the defaults, so a record built by position differs from one built
# with the defaults.
RECORDS = [
    (graphs.Graph, True, (("n", 2, REQUIRED), ("adj", (2, 1), REQUIRED)), "Graph(n=2, m=1)"),
    (graphs.MultipartiteSpec, True, (("sizes", (1, 2), REQUIRED),),
     "MultipartiteSpec(sizes=(1, 2))"),
    (graphs.VertexPartition, True, (("n", 3, REQUIRED), ("blocks", ((0, 2), (1,)), REQUIRED)),
     "VertexPartition(n=3, blocks=((0, 2), (1,)))"),
    (coloring.ChromaticProfile, True,
     (("chi", 2, REQUIRED), ("sigma", 1, REQUIRED), ("d_set", frozenset({1}), REQUIRED),
      ("hcf_chi", 1, REQUIRED), ("hcf_c", 1, REQUIRED), ("hcf_is_one", True, REQUIRED),
      ("chi_cr", Fraction(3, 2), REQUIRED), ("chi_star", Fraction(2), REQUIRED),
      ("profiles", frozenset({(1, 2)}), REQUIRED)),
     "ChromaticProfile(chi=2, sigma=1, d_set=frozenset({1}), hcf_chi=1, hcf_c=1, "
     "hcf_is_one=True, chi_cr=Fraction(3, 2), chi_star=Fraction(2, 1), "
     "profiles=frozenset({(1, 2)}))"),
    (solver.Tiling, True, (("embeddings", ("e",), REQUIRED),), "Tiling(embeddings=('e',))"),
    (solver.CopyEnumeration, False,
     (("images", [(0, 1)], REQUIRED), ("truncated", False, REQUIRED),
      ("expansions", 3, REQUIRED), ("pool", 7, REQUIRED), ("pattern", "h", REQUIRED),
      ("graph", "g", REQUIRED), ("system", "f", REQUIRED), ("_plan", "p", REQUIRED)),
     "CopyEnumeration(truncated=False, expansions=3, pool=7)"),
    (solver.FactorResult, False,
     (("status", "none", REQUIRED), ("tiling", "t", None), ("reason", "lattice", ""),
      ("expansions", 4, 0), ("copies_considered", 5, 0), ("parts", ((0,),), ()),
      ("certificate", (Fraction(1, 2),), None)),
     "FactorResult(status='none', tiling='t', reason='lattice', expansions=4, "
     "copies_considered=5, parts=((0,),), certificate=(Fraction(1, 2),))"),
    (solver.MaxTilingResult, False,
     (("tiling", "t", REQUIRED), ("optimal", True, REQUIRED), ("expansions", 2, REQUIRED)),
     "MaxTilingResult(tiling='t', optimal=True, expansions=2)"),
    (construct.BaseInstance, True,
     (("graph", "g", REQUIRED), ("partition", "p", REQUIRED), ("sizes", (2, 2), REQUIRED),
      ("min_degree", 2, REQUIRED), ("window_low", Fraction(1, 2), REQUIRED),
      ("window_high", 3, REQUIRED), ("parts_in_window", (True,), REQUIRED),
      ("factor_status", "factor_exists", REQUIRED)),
     "BaseInstance(graph='g', partition='p', sizes=(2, 2), min_degree=2, "
     "window_low=Fraction(1, 2), window_high=3, parts_in_window=(True,), "
     "factor_status='factor_exists')"),
    (construct.ConstructionSpec, True,
     (("pattern_spec", MultipartiteSpec((1, 1, 1)), REQUIRED), ("n", 12, REQUIRED),
      ("mu", Fraction(1, 6), REQUIRED), ("base", construct.KUHN_OSTHUS, construct.KOMLOS)),
     "ConstructionSpec(pattern_spec=MultipartiteSpec(sizes=(1, 1, 1)), n=12, "
     "mu=Fraction(1, 6), base='ko')"),
    (construct.Certificates, True,
     (("min_degree", 9, REQUIRED), ("min_degree_bound", Fraction(8), REQUIRED),
      ("part_internal_degrees", ((2, 2),), REQUIRED),
      ("internal_min_bound", Fraction(2), REQUIRED),
      ("internal_max_bound", Fraction(2), REQUIRED), ("parts_bipartite", (True,), REQUIRED),
      ("f_delta", 1, REQUIRED), ("f_delta_bound", 2, REQUIRED)),
     "Certificates(min_degree=9, min_degree_bound=Fraction(8, 1), "
     "part_internal_degrees=((2, 2),), internal_min_bound=Fraction(2, 1), "
     "internal_max_bound=Fraction(2, 1), parts_bipartite=(True,), f_delta=1, "
     "f_delta_bound=2)"),
    (construct.ExtremalInstance, True,
     (("spec", "s", REQUIRED), ("graph", "g", REQUIRED), ("partition", "p", REQUIRED),
      ("system", "f", REQUIRED), ("base", "b", REQUIRED), ("certificates", "c", REQUIRED)),
     "ExtremalInstance(spec='s', graph='g', partition='p', system='f', base='b', "
     "certificates='c')"),
    (construct.ClaimReport, True,
     (("status", "false", REQUIRED), ("copies_checked", 3, REQUIRED), ("witness", "e", None)),
     "ClaimReport(status='false', copies_checked=3, witness='e')"),
    (absorb.Connector, True,
     (("u", 0, REQUIRED), ("v", 1, REQUIRED), ("s", (2, 3), REQUIRED), ("t", 1, REQUIRED)),
     "Connector(u=0, v=1, s=(2, 3), t=1)"),
    (absorb.Absorber, True,
     (("s_set", (0,), REQUIRED), ("a_set", (1, 2), REQUIRED), ("t", 1, REQUIRED)),
     "Absorber(s_set=(0,), a_set=(1, 2), t=1)"),
    (absorb.VerifyResult, False,
     (("status", "refuted", REQUIRED), ("reason", "r", ""), ("tilings", ("t",), ()),
      ("expansions", 6, 0)),
     "VerifyResult(status='refuted', reason='r', tilings=('t',), expansions=6)"),
    (absorb.ConnectorSearch, False,
     (("status", "found", REQUIRED), ("connector", "c", None), ("expansions", 6, 0)),
     "ConnectorSearch(status='found', connector='c', expansions=6)"),
    (absorb.ReachReport, False,
     (("verdict", "refuted", REQUIRED), ("checked", 2, REQUIRED), ("total", 10, None),
      ("witness", (4,), None)),
     "ReachReport(verdict='refuted', checked=2, total=10, witness=(4,))"),
    (absorb.VectorReport, False,
     (("vector", (1, 2), REQUIRED), ("robust", False, REQUIRED),
      ("verdict", "proven", REQUIRED), ("witness", (3,), None), ("disjoint_copies", 2, 0)),
     "VectorReport(vector=(1, 2), robust=False, verdict='proven', witness=(3,), "
     "disjoint_copies=2)"),
    (absorb.RobustReport, False,
     (("w_size", 1, REQUIRED), ("vectors", {(1, 2): "r"}, REQUIRED),
      ("enumeration_truncated", False, REQUIRED)),
     "RobustReport(w_size=1, vectors={(1, 2): 'r'}, enumeration_truncated=False)"),
    (absorb.AbsorbingSetReport, False,
     (("verdict", "refuted", REQUIRED), ("checked", 2, REQUIRED), ("witness", (5,), None)),
     "AbsorbingSetReport(verdict='refuted', checked=2, witness=(5,))"),
    (regularity.RegularityReport, True,
     (("regular", False, REQUIRED), ("density", Fraction(2, 3), REQUIRED),
      ("eps", Fraction(1, 3), REQUIRED), ("d_min", None, REQUIRED),
      ("witness", ((0,), (1,)), None), ("reason", "r", "")),
     "RegularityReport(regular=False, density=Fraction(2, 3), eps=Fraction(1, 3), "
     "d_min=None, witness=((0,), (1,)), reason='r')"),
    (regularity.ReducedGraph, True,
     (("k", 2, REQUIRED), ("eps", Fraction(1, 3), REQUIRED), ("d", Fraction(1, 2), REQUIRED),
      ("edges", ((0, 1),), REQUIRED)),
     "ReducedGraph(k=2, eps=Fraction(1, 3), d=Fraction(1, 2), edges=((0, 1),))"),
    (regularity.CountingReport, True,
     (("total", 8, REQUIRED), ("compatible", 6, REQUIRED),
      ("c_observed", Fraction(3, 4), REQUIRED), ("product", 8, REQUIRED)),
     "CountingReport(total=8, compatible=6, c_observed=Fraction(3, 4), product=8)"),
    (acceptance.CriterionResult, False,
     (("cid", "A1", REQUIRED), ("passed", True, REQUIRED), ("details", {"k": 1}, {}),
      ("duration", 0.5, 0.0)),
     "CriterionResult(cid='A1', passed=True, details={'k': 1}, duration=0.5)"),
]


def test_every_record_is_pinned():
    found = set()
    for info in pkgutil.iter_modules(comptile.__path__):
        mod = importlib.import_module("comptile." + info.name)
        found |= {obj for obj in vars(mod).values() if isinstance(obj, type)
                  and issubclass(obj, Record) and obj.__module__ == mod.__name__}
    assert found - {Record, FrozenRecord} == {cls for cls, *_ in RECORDS}


@pytest.mark.parametrize("cls, frozen, fields, text", RECORDS,
                         ids=[cls.__name__ for cls, *_ in RECORDS])
def test_record_semantics(cls, frozen, fields, text):
    names = [name for name, _, _ in fields]
    values = [value for _, value, _ in fields]
    rec = cls(*values)
    assert [getattr(rec, name) for name in names] == values
    required = {name: value for name, value, default in fields if default is REQUIRED}
    plain = cls(**required)
    assert [getattr(plain, name) for name, _, default in fields if default is not REQUIRED] \
        == [default for _, _, default in fields if default is not REQUIRED]
    # a mutable default is fresh for each record
    assert all(getattr(cls(**required), name) is not getattr(plain, name)
               for name, _, default in fields if isinstance(default, dict))
    # equal by value within the class, never across classes with equal fields
    assert rec == cls(*values) and not rec != cls(*values)
    assert (rec == plain) == all(default is REQUIRED for _, _, default in fields)
    twin = type(cls.__name__, (cls,), {"__slots__": ()})(*values)
    assert rec != twin and twin != rec
    assert repr(rec) == text
    assert pickle.loads(pickle.dumps(rec)) == rec == copy.copy(rec) == copy.deepcopy(rec)
    if frozen:
        assert hash(rec) == hash(cls(*values))
        for name in names:
            with pytest.raises(AttributeError):
                setattr(rec, name, values[0])
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert [getattr(rec, name) for name in names] == values
    else:
        with pytest.raises(TypeError):
            hash(rec)
        setattr(rec, names[0], "changed")
        assert rec != cls(*values)
