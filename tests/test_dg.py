import random
from fractions import Fraction

import pytest

from dgla.dg import (
    DGLAMorphism,
    Element,
    FiniteDimDGLA,
    QuasiFreeDGLA,
    induced_map_on_homology,
    validate,
)
from dgla.errors import NotAChainMap
from dgla.exprs import parse_expr
from dgla.freelie import GradedGenerator, LiePoly, bracket
from dgla.linalg import Matrix, Subspace, membership, quotient_data
from helpers import rand_quasifree


def make(gens, diff):
    generators = [GradedGenerator(n, d) for n, d in gens]
    differential = {
        name: LiePoly.from_terms(parse_expr(text)) for name, text in diff.items()
    }
    return QuasiFreeDGLA(generators, differential)


def test_zero_differential_matrices():
    a = make([("x", 1), ("y", 2)], {})
    for k in (1, 2, 3):
        assert a.d_matrix(k).is_zero()


def test_cone_differential_matrix():
    a = make([("x", 1), ("y", 2)], {"y": "x"})
    m = a.d_matrix(2)
    # degree-2 basis is (y, [x,x]); d sends y -> x and kills [x,x]
    assert a.algebra.degree_basis(2).monomials == ("y", ("x", "x"))
    assert m == Matrix([[1, 0]])


def test_leibniz_extension_degree_three():
    a = make([("x", 1), ("y", 3)], {"y": "[x,x]"})
    m = a.d_matrix(3)
    basis = a.algebra.degree_basis(3)
    assert basis.monomials == ("y",)
    assert m == Matrix([[1]])


def test_d_squared_zero_matrices():
    a = make([("x", 1), ("y", 2), ("z", 3)], {"y": "x", "z": "[x,x]"})
    assert validate(a).ok
    for k in (2, 3, 4):
        assert a.d_matrix(k - 1).mul(a.d_matrix(k)).is_zero()


def test_homology_sphere():
    a = make([("a", 1)], {})
    assert [a.homology(k).dim for k in (1, 2, 3)] == [1, 1, 0]


def test_homology_acyclic_cone():
    a = make([("x", 1), ("y", 2)], {"y": "x"})
    assert [a.homology(k).dim for k in (1, 2, 3)] == [0, 0, 0]


def test_homology_reps_are_cycles():
    a = make([("x", 1), ("y", 2), ("z", 2)], {"z": "x"})
    for k in (1, 2, 3):
        h = a.homology(k)
        d = a.d_matrix(k)
        for rep in h.reps:
            assert all(c == 0 for c in d.apply(rep))
        for rep in h.reps:
            cls = h.class_coords(rep)
            assert h.rep_of(cls) == rep


def test_induced_identity_matrix():
    a = make([("x", 1), ("y", 2)], {})
    ident = DGLAMorphism.identity(a)
    for k in (1, 2, 3):
        h = induced_map_on_homology(ident, k)
        assert h == Matrix.identity(a.homology(k).dim)


def test_induced_inclusion_column():
    src = make([("x", 1)], {})
    tgt = make([("x", 1), ("y", 1)], {})
    f = DGLAMorphism(src, tgt, {"x": tgt.atom("x")})
    h1 = induced_map_on_homology(f, 1)
    assert h1.shape == (2, 1)
    assert h1.column(0) == tgt.homology(1).class_coords(tgt.atom("x").coords)


def test_induced_rejects_non_chain_map():
    src = make([("x", 1), ("y", 2)], {"y": "x"})
    tgt = make([("u", 1), ("v", 2)], {})
    f = DGLAMorphism(src, tgt, {"x": tgt.atom("u"), "y": tgt.atom("v")})
    with pytest.raises(NotAChainMap):
        induced_map_on_homology(f, 1)


def test_induced_respects_composition():
    rng = random.Random(31)
    a = make([("x", 1), ("y", 2)], {"y": "x"})
    b = make([("u", 1), ("v", 2), ("w", 2)], {"v": "u"})
    f = DGLAMorphism(a, b, {"x": b.atom("u"), "y": b.atom("v")})
    g = DGLAMorphism.identity(b)
    gf = g.compose(f)
    for k in (1, 2):
        lhs = induced_map_on_homology(gf, k)
        rhs = induced_map_on_homology(g, k).mul(induced_map_on_homology(f, k))
        assert lhs == rhs


def test_validate_flags_degree_preserving_differential():
    a = make([("x", 1), ("y", 1)], {"y": "x"})
    report = validate(a)
    assert not report.ok
    assert "not degree -1" in report.first
    assert "'y'" in report.first


def test_validate_flags_degree_zero_generator():
    a = QuasiFreeDGLA([GradedGenerator("x", 0)], {})
    report = validate(a)
    assert not report.ok
    assert "not simply connected" in report.first


def test_validate_flags_d_squared():
    a = make([("x", 1), ("y", 2), ("z", 3)], {"y": "x", "z": "y"})
    report = validate(a)
    assert not report.ok
    assert "d^2" in report.first


def test_validate_accepts_good_cone():
    a = make([("x", 1), ("y", 2)], {"y": "x"})
    assert validate(a).ok


def test_chain_map_checker_on_morphisms():
    src = make([("x", 1), ("y", 2)], {"y": "x"})
    tgt = make([("u", 1), ("v", 2)], {"v": "u"})
    good = DGLAMorphism(src, tgt, {"x": tgt.atom("u"), "y": tgt.atom("v")})
    assert good.is_chain_map()
    bad = DGLAMorphism(src, tgt, {"x": tgt.atom("u"), "y": tgt.zero(2)})
    assert bad.chain_defects() == ["y"]


# -- finite-dimensional algebras ----------------------------------------------


def abelian_complex():
    # one cell in degree 1, a disk pair in degrees 2,3: d(e_3_0) = e_2_0
    return FiniteDimDGLA(
        {1: 1, 2: 1, 3: 1},
        {},
        {3: Matrix([[1]])},
    )


def test_findim_validate_and_homology():
    g = abelian_complex()
    assert validate(g).ok
    assert [g.homology(k).dim for k in (1, 2, 3)] == [1, 0, 0]


def test_findim_truncated_free_algebra():
    # degrees 1 and 2 of the free algebra on one odd generator: [e,e] = e'
    g = FiniteDimDGLA({1: 1, 2: 1}, {(1, 1, 0, 0): (Fraction(1),)}, {})
    assert validate(g).ok
    e = g.atom("e_1_0")
    assert g.bracket(e, e).coords == (Fraction(1),)


def test_findim_antisymmetry_violation():
    # even-degree self-bracket must vanish
    g = FiniteDimDGLA({2: 1, 4: 1}, {(2, 2, 0, 0): (Fraction(1),)}, {})
    report = validate(g)
    assert not report.ok
    assert "even degree" in report.first


def test_findim_leibniz_violation():
    # d(e_3_0) = e_2_0 with a bracket [e_1_0, e_2_0] = e_3_0 and d(e_1_0)=0:
    # d[e1,e2] = 0 but [de1,e2] + (-1)[e1,de2] = -[e1, e2'] ... build a clash
    g = FiniteDimDGLA(
        {1: 1, 2: 1, 3: 1},
        {(1, 2, 0, 0): (Fraction(1),)},
        {3: Matrix([[1]])},
    )
    report = validate(g)
    assert not report.ok
    assert "Leibniz" in report.first


def test_findim_morphism_target():
    src = make([("x", 1)], {})
    g = FiniteDimDGLA({1: 1, 2: 1}, {(1, 1, 0, 0): (Fraction(1),)}, {})
    f = DGLAMorphism(src, g, {"x": g.atom("e_1_0")})
    assert f.is_chain_map()
    # f([x,x]) = [e,e] = e_2_0
    el = f.eval_poly(bracket(LiePoly.gen("x"), LiePoly.gen("x")), 2)
    assert el == Element(2, (Fraction(1),))
    h2 = induced_map_on_homology(f, 2)
    assert h2 == Matrix([[1]])


def test_induced_map_shape_with_zero_homology_source():
    src = make([("x", 1), ("y", 2)], {"y": "x"})  # acyclic
    tgt = make([("u", 1)], {})
    f = DGLAMorphism(src, tgt, {"x": tgt.zero(1), "y": tgt.zero(2)})
    h1 = induced_map_on_homology(f, 1)
    assert h1.shape == (tgt.homology(1).dim, 0)


def test_findim_max_degree_validate_still_reports():
    g = FiniteDimDGLA({1: 1, 2: 1}, {}, {}, max_degree=2)
    assert validate(g).ok


def test_chain_map_matrix_identity():
    src = make([("x", 1), ("y", 2), ("z", 3)], {"y": "x", "z": "[x,x]"})
    tgt = make([("u", 1), ("v", 2), ("w", 3)], {"v": "u", "w": "[u,u]"})
    f = DGLAMorphism(
        src, tgt, {"x": tgt.atom("u"), "y": tgt.atom("v"), "z": tgt.atom("w")}
    )
    assert f.is_chain_map()
    for k in (2, 3, 4):
        lhs = f.matrix(k - 1).mul(src.d_matrix(k))
        rhs = tgt.d_matrix(k).mul(f.matrix(k))
        assert lhs == rhs


def _reps_by_old_formula(h):
    """Coset reps lifted as sum_i qr[i] * cycles.basis[i], from public data."""
    in_cycle_coords = [membership(b, h.cycles) for b in h.boundaries.basis]
    _, qreps = quotient_data(h.cycles.dim, Subspace(h.cycles.dim, in_cycle_coords))
    return tuple(
        tuple(
            sum((qr[i] * h.cycles.basis[i][j] for i in range(h.cycles.dim)), Fraction(0))
            for j in range(h.cycles.ambient_dim)
        )
        for qr in qreps
    )


def _assert_reps_match_old_formula(algebra, degrees):
    for k in degrees:
        h = algebra.homology(k)
        assert h.reps == _reps_by_old_formula(h), k
        for i, rep in enumerate(h.reps):
            unit = tuple(Fraction(int(j == i)) for j in range(h.dim))
            assert h.class_coords(rep) == unit, (k, i)


@pytest.mark.parametrize("seed", range(8))
def test_homology_reps_match_old_formula_quasifree(seed):
    algebra = rand_quasifree(random.Random(seed), max_gens=4)
    _assert_reps_match_old_formula(algebra, range(1, 5))


def test_homology_reps_match_old_formula_findim():
    # d_2 has rank 1 with a dense row, d_3 lands in its kernel: the cycle
    # basis of degree 2 is not made of unit vectors
    g = FiniteDimDGLA(
        {1: 2, 2: 3, 3: 1},
        {},
        {
            2: Matrix([[1, 2, -1], [2, 4, -2]]),
            3: Matrix([[1], [-1], [-1]]),
        },
    )
    assert validate(g).ok
    assert [g.homology(k).dim for k in (1, 2, 3)] == [1, 1, 0]
    _assert_reps_match_old_formula(g, (1, 2, 3))


def _symbolic_d(a, tree) -> LiePoly:
    """d on a bracket tree by the Leibniz rule, expanded as a Lie polynomial."""
    if isinstance(tree, str):
        return a.differential.get(tree, LiePoly.zero())
    left, right = tree
    sign = -1 if a.algebra.tree_degree(left) % 2 else 1
    return bracket(_symbolic_d(a, left), LiePoly([(Fraction(1), right)])) + sign * bracket(
        LiePoly([(Fraction(1), left)]), _symbolic_d(a, right)
    )


def _symbolic_d_matrix(a, k) -> Matrix:
    cols = [
        a.algebra.normalize(_symbolic_d(a, tree), k - 1)[1]
        for tree in a.algebra.degree_basis(k).monomials
    ]
    return Matrix.from_columns(cols, a.dim(k - 1))


def _reference_algebras():
    algebras = [make([("x", 1), ("y", 1), ("z", 1), ("w", 3)], {"w": "[x,y]"})]
    rng = random.Random(4)
    while len(algebras) < 7:
        a = rand_quasifree(rng, max_gens=4)
        if a.differential:
            algebras.append(a)
    return algebras


@pytest.mark.parametrize("index", range(7))
def test_d_matrix_matches_symbolic_leibniz(index):
    a = _reference_algebras()[index]
    for k in range(1, 6):
        assert a.d_matrix(k) == _symbolic_d_matrix(a, k), k
