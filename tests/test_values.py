"""Value semantics of the immutable types and fresh state of the mutable ones."""

import copy
import pickle

import pytest

from zigzaghh import preproj
from zigzaghh.ainfty import StasheffReport
from zigzaghh.exactla import GF, QQ, FieldSpec
from zigzaghh.ginzburg import hh2_dim
from zigzaghh.pathalg import all_cycles
from zigzaghh.quiver import Graph, Quiver, catalog, double, orient_bipartite
from zigzaghh.reports import HHReport
from zigzaghh.zigzag import (HochschildCochain, build_zigzag, cochain_basis, hochschild_dim,
                             is_coboundary)

VALUES = [
    (lambda: Graph(3, ((2, 1), (2, 3)), "A3"), "name", "B3"),
    (lambda: Quiver(3, ((2, 1), (2, 3)), "A3"), "arrows", ()),
    (lambda: FieldSpec(5), "characteristic", 7),
    (lambda: HHReport(2, 4, "trace", 1, ("a1 a1*",)), "dimension", 2),
]


@pytest.mark.parametrize("make, field, other", VALUES)
def test_equal_fields_give_equal_objects_and_hashes(make, field, other):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert not a != b


@pytest.mark.parametrize("make, field, other", VALUES)
def test_fields_refuse_assignment(make, field, other):
    a = make()
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, other)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert getattr(a, field) == before


@pytest.mark.parametrize("make, field, other", VALUES)
def test_copies_and_pickles_are_equal(make, field, other):
    a = make()
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("make, field, other", VALUES)
def test_the_hash_is_computed_once_and_kept(make, field, other):
    # not in __init__: a value that is never hashed never pays for it
    a = make()
    with pytest.raises(AttributeError):
        a._hash
    assert hash(a) == a._hash == hash(a._values()) == hash(make())
    assert hash(a) == a._hash


@pytest.mark.parametrize("make, field, other", VALUES)
def test_copies_and_pickles_keep_equality_and_hash(make, field, other):
    a = make()
    h = hash(a)
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and hash(b) == h and b._hash == h


def test_repr_names_the_fields_only():
    # the kept hash is not a field: repr reads as before, hashed or not
    want = ["Graph(vertex_count=3, edges=((1, 2), (2, 3)), name='A3')",
            "Quiver(vertex_count=3, arrows=((2, 1), (2, 3)), name='A3')",
            "FieldSpec(characteristic=5)",
            "HHReport(p=2, q=4, method='trace', dimension=1, representatives=('a1 a1*',))"]
    for (make, _, _), text in zip(VALUES, want):
        a = make()
        assert repr(a) == text
        hash(a)
        assert repr(a) == text


def test_a_graph_never_equals_a_quiver_with_the_same_fields():
    g = Graph(2, ((1, 2),))
    q = Quiver(2, ((1, 2),))
    assert (g.vertex_count, g.edges, g.name) == (q.vertex_count, q.arrows, q.name)
    assert g != q and q != g
    assert HHReport(2, 2, "trace", 1) != (2, 2, "trace", 1, None)


def test_fields_and_defaults_are_kept():
    g = Graph(3, [(2, 1), (3, 2)])
    assert (g.vertex_count, g.edges, g.name) == (3, ((1, 2), (2, 3)), None)
    assert Graph(3, ((2, 1), (2, 3))) != Graph(3, ((2, 1), (2, 3)), "A3")
    assert Quiver(vertex_count=2, arrows=((1, 2),)).name is None
    assert FieldSpec().characteristic == 0 and FieldSpec() == FieldSpec(0)
    assert HHReport(2, 2, "zigzag", 0).representatives is None
    assert repr(FieldSpec(3)) == "FieldSpec(characteristic=3)"
    assert repr(Graph(2, ((2, 1),), "A2")) == "Graph(vertex_count=2, edges=((1, 2),), name='A2')"


def test_validation_is_kept():
    with pytest.raises(ValueError, match="characteristic must be 0 or a prime, got 4"):
        FieldSpec(4)
    with pytest.raises(ValueError, match="negative dimension"):
        HHReport(2, 2, "trace", -1)
    with pytest.raises(ValueError, match="multiple edge"):
        Graph(2, ((1, 2), (2, 1)))
    with pytest.raises(ValueError, match="not connected"):
        Graph(3, ((1, 2),))
    with pytest.raises(ValueError, match=r"arrow \(1,3\) out of range"):
        Quiver(2, ((1, 3),))


def test_equal_quivers_share_one_double():
    a = Quiver(3, ((1, 2), (3, 2)), "A3")
    b = Quiver(3, ((1, 2), (3, 2)), "A3")
    assert a is not b
    assert double(a) is double(b)
    assert preproj._table(double(a), "preprojective", QQ) is \
        preproj._table(double(b), "preprojective", FieldSpec(0))


def test_a_double_carries_no_state():
    # the tables read on a double are memoized by module functions, not on it:
    # computing with it leaves its attributes as built
    q = orient_bipartite(catalog("D~", 4))
    qd = double(q)
    built = copy.deepcopy(vars(qd))
    preproj.trace_piece(q, 6, QQ, want_witnesses=True)
    hh2_dim(q, 4, GF(3))
    preproj.lambda_piece(q, 5, GF(2))
    all_cycles(qd, 6)
    assert vars(qd) == built


def test_stasheff_reports_do_not_share_their_lists():
    a, b = StasheffReport(3), StasheffReport(3)
    a.violations.append("v")
    a.conditional_arities.append(4)
    assert b.violations == [] and b.conditional_arities == []
    assert StasheffReport(3, conditional_arities=[4, 5]).conditional_arities == [4, 5]


def test_zigzag_algebras_keep_no_state_across_calls():
    # an algebra holds no cache: computing on it leaves its attributes as built
    alg = build_zigzag(catalog("D~", 4), QQ)
    built = copy.deepcopy(vars(alg))
    hochschild_dim(alg, 2, 2, want_witnesses=True)
    (w, z), *_ = cochain_basis(alg, 2, 2)
    is_coboundary(HochschildCochain(alg, 2, 2, {w: {z: 1}}))
    assert vars(alg) == built
