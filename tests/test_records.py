"""The public result records: immutable values.

Seven are NamedTuples (unpackable, equal to the plain tuple of their
fields); GradedGenerator and DegreeBasis are slotted classes read in hot
loops.
"""

import copy
import pickle

import pytest

from dgla import (
    DGLAMorphism,
    FilteredEndo,
    GradedGenerator,
    QuasiFreeDGLA,
    are_homotopic_rel,
    build_minimal_model,
    derivation_basis,
    is_minimal,
    validate,
    verify_model,
)
from dgla.homotopy import der_space


FIELD = {
    "GradedGenerator": "name",
    "DegreeBasis": "monomials",
    "ValidationReport": "violations",
    "Stage": "A",
    "MinimalityReport": "witnesses",
    "ModelReport": "checks",
    "DerSpace": "pairs",
    "DerComplexData": "boundary_in",
    "Verdict": "equivalent",
}
SLOTTED = ("GradedGenerator", "DegreeBasis")


@pytest.fixture(scope="module")
def records():
    base = QuasiFreeDGLA([GradedGenerator("x", 1)], {})
    target = QuasiFreeDGLA([GradedGenerator("x", 1), GradedGenerator("y", 1)], {})
    f = DGLAMorphism(base, target, {"x": target.atom("x")})
    model = build_minimal_model(f, 3)
    identity = FilteredEndo.identity(model)
    return {
        "GradedGenerator": model.dgla.generators[0],
        "DegreeBasis": model.dgla.algebra.degree_basis(2),
        "ValidationReport": validate(model.dgla),
        "Stage": model.stages[-1],
        "MinimalityReport": is_minimal(model),
        "ModelReport": verify_model(model, 3, against=f),
        "DerSpace": der_space(model, 0),
        "DerComplexData": derivation_basis(model, 0, 3),
        "Verdict": are_homotopic_rel(identity, identity, 3),
    }


def test_every_record_is_built(records):
    assert sorted(type(r).__name__ for r in records.values()) == sorted(FIELD)


@pytest.mark.parametrize("name", sorted(FIELD))
def test_record_refuses_assignment(records, name):
    record, field = records[name], FIELD[name]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", sorted(set(FIELD) - set(SLOTTED)))
def test_named_tuple_record_is_the_tuple_of_its_fields(records, name):
    record = records[name]
    values = tuple(getattr(record, field) for field in record._fields)
    assert FIELD[name] in record._fields
    assert record == values
    assert tuple(record) == values
    assert type(record)(*values) == record


def test_graded_generator_is_a_value():
    x = GradedGenerator("x", 1)
    assert x == GradedGenerator(name="x", degree=1)
    assert hash(x) == hash(GradedGenerator("x", 1))
    assert len({x, GradedGenerator("x", 1), GradedGenerator("x", 2)}) == 2
    assert x != GradedGenerator("y", 1)
    assert x != GradedGenerator("x", 2)
    assert x != ("x", 1)
    assert repr(x) == "GradedGenerator(name='x', degree=1)"
    assert copy.copy(x) == x
    assert pickle.loads(pickle.dumps(x)) == x


def test_degree_basis_dim_counts_its_monomials(records):
    basis = records["DegreeBasis"]
    assert basis.dim == len(basis.monomials) == len(basis.vectors) == 3  # [x,x], [x,a], [a,a]


def test_degree_basis_pickles_by_value(records):
    basis = records["DegreeBasis"]
    again = pickle.loads(pickle.dumps(basis))
    assert (again.degree, again.monomials, again.vectors) == (
        basis.degree, basis.monomials, basis.vectors
    )
    assert again.blocks.keys() == basis.blocks.keys()


def _immutable_values():
    from dgla.freelie import LiePoly
    from dgla.linalg import Matrix, Subspace

    return {
        "Matrix": (Matrix([[1, 2], [3, 4]]), "rows"),
        "Subspace": (Subspace(2, [(1, 0)]), "dim"),
        "LiePoly": (LiePoly.gen("x") + LiePoly.gen("y"), "terms"),
    }


@pytest.mark.parametrize("name", ["Matrix", "Subspace", "LiePoly"])
@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_immutable_value_is_copied_and_pickled_by_value(name, duplicate):
    value, field = _immutable_values()[name]
    again = duplicate(value)
    assert type(again) is type(value)
    assert again == value
    with pytest.raises(AttributeError):
        setattr(again, field, None)
