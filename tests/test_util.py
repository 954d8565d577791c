from fractions import Fraction

import pytest

from comptile import absorb, regularity
from comptile.construct import ConstructionSpec
from comptile.errors import ValidationError
from comptile.graphs import MultipartiteSpec, VertexPartition, complete_graph
from comptile.incompat import IncompatibilitySystem, random_bounded_system
from comptile.util import rational

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
