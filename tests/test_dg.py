import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgla import dg
from dgla.dg import (
    DGLAMorphism,
    Element,
    FiniteDimDGLA,
    QuasiFreeDGLA,
    ValidationReport,
    induced_map_on_homology,
    validate,
)
from dgla.errors import DglaError, NotAChainMap
from dgla.exprs import parse_expr
from dgla.freelie import GradedGenerator, LiePoly, bracket
from dgla.formats import dgla_from_doc, dgla_to_doc
from dgla.homotopy import der_boundary_matrix
from dgla.linalg import Matrix, Subspace, membership, vec_is_zero
from dgla.minimal import RelativeModel, Stage, is_minimal
from helpers import (
    DenseHomology,
    fraction_bracket,
    fraction_bracket_table,
    quotient_data,
    rand_conjugated_findim,
    rand_conjugated_findim_data,
    rand_cycle,
    rand_quasifree,
    reference_kernel_basis,
    tree_degree,
)


def make(gens, diff):
    generators = [GradedGenerator(n, d) for n, d in gens]
    differential = {
        name: LiePoly(parse_expr(text)) for name, text in diff.items()
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
        h = DenseHomology(a.homology(k))
        d = a.d_matrix(k)
        for rep in h.reps:
            assert all(c == 0 for c in d.apply(rep))
        for rep in h.reps:
            cls = h.class_coords(rep)
            assert h.rep_of(cls) == rep


def test_homology_dim_leaves_the_quotient_unbuilt():
    quasifree = make([("x", 1), ("y", 2), ("z", 2)], {"z": "x"})
    findim = rand_conjugated_findim(random.Random(3))
    for a in (quasifree, findim):
        for k in (1, 2, 3):
            h = a.homology(k)
            assert h.dim >= 0
            assert "_quotient" not in vars(h), k
            assert h.reps.shape == (a.dim(k), h.dim)
            assert "_quotient" in vars(h), k


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
    assert h1.column(0) == DenseHomology(tgt.homology(1)).class_coords(tgt.atom("x").coords)


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
        dense = DenseHomology(h)
        assert h.cycles == reference_kernel_basis(algebra.d_matrix(k)), k
        assert h.cycles.pivots == reference_kernel_basis(algebra.d_matrix(k)).pivots, k
        assert h.boundaries == Subspace(algebra.dim(k), algebra.d_matrix(k + 1).columns()), k
        assert dense.reps == _reps_by_old_formula(h), k
        for i, rep in enumerate(dense.reps):
            unit = tuple(Fraction(int(j == i)) for j in range(h.dim))
            assert dense.class_coords(rep) == unit, (k, i)
            assert dense.rep_of(unit) == rep, (k, i)
        # a class given by mixed coordinates, and the boundaries added to it
        coords = tuple(Fraction(2 * i - 1, i + 2) for i in range(h.dim))
        cycle = dense.rep_of(coords)
        assert cycle == tuple(
            sum((c * rep[j] for c, rep in zip(coords, dense.reps)), Fraction(0))
            for j in range(h.cycles.ambient_dim)
        )
        for b in h.boundaries.basis:
            cycle = tuple(x + Fraction(1, 3) * y for x, y in zip(cycle, b))
        assert dense.class_coords(cycle) == coords, k


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


def test_homology_refuses_a_boundary_that_is_not_a_cycle():
    # d c = b and d b = a, so d(d c) = a != 0: the boundary b of degree 2 is
    # not a cycle.  The constructor does not validate, so homology sees it.
    g = make([("a", 1), ("b", 2), ("c", 3)], {"b": "a", "c": "b"})
    assert not validate(g).ok
    with pytest.raises(ArithmeticError, match=r"^boundary is not a cycle: d\*d != 0\?$"):
        g.homology(2)
    # below the defect homology still works
    assert g.homology(1).dim == 0


def _assert_boundaries_span_d_columns(a, top=5):
    # the top degree first, so its ascending fill builds the lower degrees
    for k in range(top, 0, -1):
        got = a.boundaries(k)
        ref = Subspace._spanned(a.dim(k), a.d_matrix(k + 1)._columns)
        assert (got._rows, got.pivots) == (ref._rows, ref.pivots), k


@pytest.mark.parametrize("index", range(8))
def test_boundaries_match_the_span_of_d_columns(index):
    a = _reference_algebras()[index]
    for b in (a, _scaled(a, Fraction(2, 3))):
        _assert_boundaries_span_d_columns(b)


def test_boundaries_match_the_span_of_d_columns_without_d_squared_zero():
    # the Leibniz rule holds for any derivation, so the span is still d(L)
    g = make([("a", 1), ("b", 2), ("c", 3)], {"b": "a", "c": "b"})
    _assert_boundaries_span_d_columns(g)


def test_boundaries_of_a_findim_algebra_are_the_span_of_d_columns():
    g = rand_conjugated_findim(random.Random(3))
    _assert_boundaries_span_d_columns(g, top=max(g.dims) - 1)


@st.composite
def _mixed_quasifree(draw):
    """x of degree 1 with dx = 0, y of degree 2 with dy = c*x, and up to
    three more generators of degree 1-4 (at most one of degree 1, which
    keeps degree 6 small), each with d = 0 or a random cycle of the earlier
    ones: odd and even degrees, dx = 0 and dx != 0 side by side."""
    rng = draw(st.randoms(use_true_random=False))
    c = draw(st.sampled_from((1, -1, 2, Fraction(-1, 3))))
    gens = [GradedGenerator("x", 1), GradedGenerator("y", 2)]
    diffs = {"y": LiePoly([(Fraction(c), "x")])}
    extra = draw(
        st.lists(st.tuples(st.integers(1, 4), st.booleans()), max_size=3).filter(
            lambda e: sum(d == 1 for d, _ in e) <= 1
        )
    )
    for i, (degree, closed) in enumerate(extra):
        if not closed:
            partial = QuasiFreeDGLA(gens, diffs)
            cycle = rand_cycle(rng, partial, degree - 1)
            if cycle.degree >= 1 and not cycle.is_zero():
                diffs[f"t{i}"] = partial.poly(cycle)
        gens.append(GradedGenerator(f"t{i}", degree))
    return QuasiFreeDGLA(gens, diffs)


@settings(max_examples=30, deadline=None)
@given(a=_mixed_quasifree())
def test_boundaries_match_the_span_of_d_columns_random(a):
    assert validate(a).ok
    _assert_boundaries_span_d_columns(a)


def test_homology_ladder_builds_nothing_above_its_top_degree():
    a, ref = _reference_algebras()[0], _reference_algebras()[0]
    for top in (4, 5):
        dims = [a.homology(k).dim for k in range(1, top + 1)]
        assert max(a.algebra._basis) == top
        assert max(a._d) == top
        assert max(a._boundaries) == top
    # the same dimensions through the columns of d in degree k + 1
    assert dims == [
        reference_kernel_basis(ref.d_matrix(k)).dim - ref.d_matrix(k + 1).rank()
        for k in range(1, 6)
    ]


def test_empty_degree_ladder_to_one_thousand():
    a = make([("x", 1)], {})
    assert [a.homology(k).dim for k in range(1, 1001)] == [1, 1] + [0] * 998
    assert max(a.algebra._basis) == 1000
    # a fresh algebra asked for the top degree first fills the lower ones
    # in a loop, far below the recursion limit
    b = make([("x", 1)], {})
    assert b.boundaries(1000).dim == 0
    assert sorted(b._boundaries) == list(range(1, 1001))
    assert b.boundaries(1).dim == 0


def _symbolic_d(a, tree) -> LiePoly:
    """d on a bracket tree by the Leibniz rule, expanded as a Lie polynomial."""
    if isinstance(tree, str):
        return a.differential.get(tree, LiePoly.zero())
    left, right = tree
    sign = -1 if tree_degree(a.algebra, left) % 2 else 1
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
    # mixed denominators: d is held over the scale lcm(2, 3) = 6
    algebras.append(
        make([("x", 1), ("y", 1), ("z", 1), ("w", 3)], {"w": "1/2*[x,y] + 1/3*[x,z]"})
    )
    return algebras


def _scaled(a, c):
    """The algebra with its whole differential times c; d^2 = 0 is kept."""
    return QuasiFreeDGLA(a.generators, {name: c * p for name, p in a.differential.items()})


@pytest.mark.parametrize("index", range(8))
def test_d_matrix_matches_symbolic_leibniz(index):
    a = _reference_algebras()[index]
    # the scaled copy has non-unit denominators, so d_images has scale != 1
    for b in (a, _scaled(a, Fraction(2, 3))):
        for k in range(1, 6):
            assert b.d_matrix(k) == _symbolic_d_matrix(b, k), k


def test_d_images_are_integers_over_one_scale():
    a = _reference_algebras()[-1]
    scale, images = a.d_images()
    assert scale == 6
    assert all(type(x) is int for vec in images.values() for x in vec.values())
    w = a.algebra.index_of("w")
    _, expected = a.algebra.embed(a.differential["w"])
    assert {word: Fraction(x, scale) for word, x in images[w].items()} == expected
    # d(w) in the canonical basis keeps its denominators
    assert a.algebra.basis_coords(2, images[w], scale) == a.element(
        a.differential["w"]
    ).coords
    assert validate(a).ok
    assert validate(_scaled(a, Fraction(2, 3))).ok
    # d^2 != 0 is caught under a non-unit scale too
    bad = make([("x", 1), ("u", 3), ("v", 4)], {"u": "1/2*[x,x]", "v": "1/3*u"})
    assert validate(bad).violations == ("d^2 is nonzero on generator 'v'",)


def test_bracket_cells_hold_both_orientations_over_one_scale():
    # [e_1_0,e_2_0] = 1/2 e_3_0 and [e_1_0,e_1_0] = 2/3 e_2_0: scale 6, the
    # mirror [e_2_0,e_1_0] = -1/2 e_3_0, and a zero entry keeps its key
    g = FiniteDimDGLA(
        {1: 1, 2: 1, 3: 1, 4: 1},
        {(1, 2, 0, 0): (Fraction(1, 2),), (1, 1, 0, 0): (Fraction(2, 3),), (1, 3, 0, 0): (0,)},
    )
    assert g.bracket_cells() == (
        6,
        {
            (1, 1, 0, 0): [(0, 4)],
            (1, 2, 0, 0): [(0, 3)],
            (2, 1, 0, 0): [(0, -3)],
            (1, 3, 0, 0): [],
            (3, 1, 0, 0): [],
        },
    )


_COORD = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_findim_bracket_matches_fraction_reference(seed, data):
    # dense conjugated tables with denominators, brackets of elements whose
    # coordinates have their own denominators; the algebra read back from
    # its document holds the same table
    rng = random.Random(seed)
    free_degrees = rng.choice([(1, 1), (1, 2), (1, 1, 2)])
    complex_dims = rng.choice([{}, {2: 1, 3: 1}])
    dims, brackets, d_mats = rand_conjugated_findim_data(rng, free_degrees, 4, complex_dims)
    table, conflicts = fraction_bracket_table(brackets)
    assert conflicts == []
    g = FiniteDimDGLA(dims, brackets, d_mats)
    read = dgla_from_doc(dgla_to_doc(g))
    p, q = (data.draw(st.sampled_from(sorted(dims))) for _ in range(2))
    x, y = (
        Element(k, tuple(data.draw(st.lists(_COORD, min_size=dims[k], max_size=dims[k]))))
        for k in (p, q)
    )
    expected = fraction_bracket(g, table, x, y)
    for algebra in (g, read):
        got = algebra.bracket(x, y)
        assert got == expected
        assert all(type(c) is Fraction for c in got.coords)


def _asymmetric_table():
    # [e_1_1,e_1_0] disagrees with [e_1_0,e_1_1] (odd degrees: equal), a zero
    # [e_1_0,e_2_0] with a nonzero [e_2_0,e_1_0], and both degree-2 vectors
    # have a nonzero self-bracket
    dims = {1: 2, 2: 2, 3: 1, 4: 1}
    brackets = {
        (2, 2, 1, 1): (Fraction(1),),
        (1, 1, 1, 0): (Fraction(0), Fraction(1)),
        (2, 1, 0, 0): (Fraction(1, 2),),
        (1, 1, 0, 1): (Fraction(1), Fraction(0)),
        (2, 2, 0, 0): (Fraction(-2),),
        (1, 2, 0, 0): (Fraction(0),),
    }
    return dims, brackets


_ASYMMETRIES = (
    "bracket [e_1_1,e_1_0] given twice with inconsistent values",
    "bracket [e_1_0,e_1_1] given twice with inconsistent values",
    "bracket [e_2_0,e_1_0] given twice with inconsistent values",
    "bracket [e_1_0,e_2_0] given twice with inconsistent values",
    "[e_2_0,e_2_0] is nonzero in even degree",
    "[e_2_1,e_2_1] is nonzero in even degree",
)


def test_conflict_and_even_degree_messages_keep_their_order():
    dims, brackets = _asymmetric_table()
    got, expected = _both_outcomes(dims, brackets, {})
    assert got == expected
    assert got[: len(_ASYMMETRIES)] == _ASYMMETRIES
    # the same entries read from a document, listed in another order
    doc = {
        "kind": "findim_dgla",
        "dims": {str(k): n for k, n in dims.items()},
        "brackets": [
            {
                "left": _name(p, i),
                "right": _name(q, j),
                "value": " + ".join(f"{c}*{_name(p + q, t)}" for t, c in enumerate(vec)),
            }
            for (p, q, i, j), vec in reversed(brackets.items())
        ],
    }
    assert validate(dgla_from_doc(doc)).violations == got


def test_findim_jacobi_violation_message():
    # [e1,e1] = e2 and [e1,e2] = e3: the Jacobiator on (e1,e1,e1) is 3*e3
    g = FiniteDimDGLA({1: 1, 2: 1, 3: 1}, {(1, 1, 0, 0): (1,), (1, 2, 0, 0): (1,)}, {})
    assert validate(g).violations == ("graded Jacobi fails on (e_1_0, e_1_0, e_1_0)",)


def _name(k, i):
    return f"e_{k}_{i}"


def _reference_validate_findim(a, brackets):
    """The axiom check over Fractions, one `fraction_bracket` per term, on
    the algebra `a` built from the rational structure constants
    `brackets`."""
    violations = []
    for k in sorted(a.dims):
        if k < 1:
            violations.append(f"degree {k} piece declared: not simply connected")
        if a.dims[k] < 0:
            violations.append(f"negative dimension in degree {k}")
    if violations:
        return ValidationReport(tuple(violations))
    for (p, q, i, j), vec in sorted(brackets.items()):
        if not (0 <= i < a.dims.get(p, 0) and 0 <= j < a.dims.get(q, 0)):
            violations.append(
                f"bracket entry references missing basis vector ({_name(p, i)}, {_name(q, j)})"
            )
        elif len(vec) != a.dims.get(p + q, 0):
            violations.append(
                f"bracket of {_name(p, i)} and {_name(q, j)} has "
                f"{len(vec)} coordinates, expected {a.dims.get(p + q, 0)}"
            )
    if violations:
        return ValidationReport(tuple(violations))
    table, conflicts = fraction_bracket_table(brackets)
    violations.extend(conflicts)
    bracket = partial(fraction_bracket, a, table)
    degrees = sorted(a.dims)
    for p in degrees:
        if p % 2 == 0:
            for i in range(a.dims[p]):
                cell = table.get((p, p, i, i))
                if cell and not vec_is_zero(cell):
                    violations.append(f"[{_name(p, i)},{_name(p, i)}] is nonzero in even degree")
    maxdeg = max(degrees, default=0)
    for p in degrees:
        for q in degrees:
            for r in degrees:
                if p + q + r > maxdeg:
                    continue
                for i in range(a.dims[p]):
                    ei = a.atom(_name(p, i))
                    for j in range(a.dims[q]):
                        ej = a.atom(_name(q, j))
                        eij = bracket(ei, ej)
                        for l in range(a.dims[r]):
                            el = a.atom(_name(r, l))
                            lhs = bracket(ei, bracket(ej, el)).coords
                            sign = Fraction(-1 if (p * q) % 2 else 1)
                            rhs1 = bracket(eij, el).coords
                            rhs2 = bracket(ej, bracket(ei, el)).coords
                            total = tuple(x - y - sign * z for x, y, z in zip(lhs, rhs1, rhs2))
                            if not vec_is_zero(total):
                                violations.append(
                                    "graded Jacobi fails on "
                                    f"({_name(p, i)}, {_name(q, j)}, {_name(r, l)})"
                                )
    if violations:
        return ValidationReport(tuple(violations))
    for k in sorted(a.d_mats):
        m = a.d_mats[k]
        if m.shape != (a.dims.get(k - 1, 0), a.dims.get(k, 0)):
            violations.append(
                f"differential matrix at degree {k} has shape {m.shape}, "
                f"expected ({a.dims.get(k - 1, 0)}, {a.dims.get(k, 0)})"
            )
    if violations:
        return ValidationReport(tuple(violations))
    for k in degrees:
        if a.max_degree is not None and k + 1 > a.max_degree:
            continue
        if not a.d_matrix(k).mul(a.d_matrix(k + 1)).is_zero():
            violations.append(f"d^2 is nonzero from degree {k + 1}")
    for p in degrees:
        for q in degrees:
            if p + q - 1 < 1:
                continue
            if a.max_degree is not None and p + q > a.max_degree:
                continue
            for i in range(a.dims[p]):
                ei = a.atom(_name(p, i))
                dei = Element(p - 1, a.d_matrix(p).apply(ei.coords))
                for j in range(a.dims[q]):
                    ej = a.atom(_name(q, j))
                    dej = Element(q - 1, a.d_matrix(q).apply(ej.coords))
                    lhs = a.d_matrix(p + q).apply(bracket(ei, ej).coords)
                    sign = Fraction(-1 if p % 2 else 1)
                    rhs = [Fraction(0)] * a.dims.get(p + q - 1, 0)
                    if p - 1 >= 1:
                        for t, c in enumerate(bracket(dei, ej).coords):
                            rhs[t] += c
                    if q - 1 >= 1:
                        for t, c in enumerate(bracket(ei, dej).coords):
                            rhs[t] += sign * c
                    if tuple(lhs) != tuple(rhs):
                        violations.append(
                            f"graded Leibniz fails on ({_name(p, i)}, {_name(q, j)})"
                        )
    return ValidationReport(tuple(violations))


def _outcome(check, *args):
    try:
        return check(*args).violations
    except DglaError as e:
        return (type(e).__name__, str(e))


def _both_outcomes(dims, brackets, d_mats, max_degree=None):
    """The outcomes of `validate` and of the Fraction reference on the
    algebra with these data."""
    g = FiniteDimDGLA(dims, brackets, d_mats, max_degree)
    return _outcome(validate, g), _outcome(_reference_validate_findim, g, brackets)


# Each perturbation maps the data (dims, brackets, d_mats, max_degree) of
# a valid algebra to new data.


def _nudge_bracket(rng, dims, raw, d_mats, max_degree):
    raw = dict(raw)
    key = rng.choice(sorted(raw))
    vec = list(raw[key])
    vec[rng.randrange(len(vec))] += Fraction(1, 2)
    raw[key] = tuple(vec)
    return dims, raw, d_mats, max_degree


def _drop_bracket(rng, dims, raw, d_mats, max_degree):
    raw = dict(raw)
    del raw[rng.choice(sorted(raw))]
    return dims, raw, d_mats, max_degree


def _mirror_conflict(rng, dims, raw, d_mats, max_degree):
    raw = dict(raw)
    p, q, i, j = rng.choice(sorted(k for k in raw if k[0] != k[1] or k[2] != k[3]))
    raw[(q, p, j, i)] = tuple(c + 1 for c in raw[(p, q, i, j)])
    return dims, raw, d_mats, max_degree


def _even_self_bracket(rng, dims, raw, d_mats, max_degree):
    p = rng.choice([k for k in sorted(dims) if k % 2 == 0 and 2 * k in dims])
    raw = dict(raw)
    i = rng.randrange(dims[p])
    raw[(p, p, i, i)] = tuple(Fraction(rng.randrange(1, 4), 3) for _ in range(dims[2 * p]))
    return dims, raw, d_mats, max_degree


def _nudge_d(rng, dims, raw, d_mats, max_degree):
    d_mats = dict(d_mats)
    k = rng.choice(sorted(k for k, m in d_mats.items() if m.rows and m.cols))
    rows = [list(row) for row in d_mats[k].data]
    rows[rng.randrange(len(rows))][rng.randrange(len(rows[0]))] += Fraction(1, 3)
    d_mats[k] = Matrix(rows)
    return dims, raw, d_mats, max_degree


def _low_max_degree(rng, dims, raw, d_mats, max_degree):
    return dims, raw, d_mats, rng.randrange(1, max(dims))


_PERTURBATIONS = {
    "valid": lambda rng, *data: data,
    "bracket-nudged": _nudge_bracket,
    "bracket-dropped": _drop_bracket,
    "mirror-conflict": _mirror_conflict,
    "even-self-bracket": _even_self_bracket,
    "d-nudged": _nudge_d,
    "low-max-degree": _low_max_degree,
}

_CONJUGATED_SHAPES = [
    ((1, 1), 4, {2: 1, 3: 2, 4: 1}),
    ((1, 2), 4, {1: 1, 3: 1}),
    ((1, 1), 5, {3: 1}),
    ((1, 2), 5, {2: 1, 4: 1}),
    ((1, 2, 2), 4, {2: 1, 3: 1}),
]


@pytest.mark.parametrize("kind", sorted(_PERTURBATIONS))
@pytest.mark.parametrize("shape", range(len(_CONJUGATED_SHAPES)))
def test_findim_validate_matches_fraction_reference(shape, kind):
    free_degrees, top, complex_dims = _CONJUGATED_SHAPES[shape]
    rng = random.Random(100 * shape + sorted(_PERTURBATIONS).index(kind))
    data = rand_conjugated_findim_data(rng, free_degrees, top, complex_dims)
    got, expected = _both_outcomes(*_PERTURBATIONS[kind](rng, *data, None))
    assert got == expected
    if kind == "valid":
        assert expected == ()
    elif kind != "low-max-degree":
        assert expected, "the perturbation should break an axiom"


@pytest.mark.parametrize(
    "dims, max_degree, first_above",
    [
        ({2: 1, 6: 1}, 1, 2),
        ({1: 1, 3: 1}, 2, 3),
        ({1: 1, 5: 1}, 4, None),
        ({1: 2, 2: 1, 3: 1}, 3, None),
    ],
)
def test_findim_small_max_degree_matches_reference(dims, max_degree, first_above):
    # the first degree above maxDegree that the axioms reach is the one named
    expected = ()
    if first_above is not None:
        expected = (
            "TargetNotFiniteType",
            f"degree {first_above} exceeds the declared maximum degree {max_degree}",
        )
    assert _both_outcomes(dims, {}, {}, max_degree) == (expected, expected)


def test_untouched_pairs_allocate_no_defect(monkeypatch):
    # no structure constant or column of d touches the 60000 pairs
    # (e_1_i, e_3_j), so the accumulator allocates no defect list for them
    add_terms = dg._add_terms
    calls = []

    def counting(*args):
        total = add_terms(*args)
        calls.append(total is not None)
        return total

    monkeypatch.setattr(dg, "_add_terms", counting)
    assert validate(FiniteDimDGLA({1: 2, 3: 30000})).ok
    assert len(calls) >= 3 * 2 * 30000
    assert not any(calls)


def test_jacobi_verdicts_of_permuted_triples_match_reference():
    # [e_2_0,e_3_0] = e_5_0 and [e_1_0,e_5_0] = e_6_0: the Jacobiator fails
    # on the six orders of (e_1_0, e_2_0, e_3_0) and nowhere else
    dims = {k: 1 for k in range(1, 7)}
    got, expected = _both_outcomes(
        dims, {(2, 3, 0, 0): (Fraction(1),), (1, 5, 0, 0): (Fraction(1),)}, {}
    )
    assert got == expected
    assert expected == tuple(
        f"graded Jacobi fails on ({_name(p, 0)}, {_name(q, 0)}, {_name(r, 0)})"
        for p, q, r in [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    )


def test_leibniz_verdicts_of_swapped_pairs_match_reference():
    # [e_1_0,e_3_0] = e_4_0 and d(e_4_0) = e_3_0: Leibniz fails on both
    # orders of (e_1_0, e_3_0), and of (e_1_0, e_4_0), a pair of degrees
    # whose bracket the algebra truncates
    dims = {1: 1, 2: 1, 3: 1, 4: 1}
    got, expected = _both_outcomes(dims, {(1, 3, 0, 0): (Fraction(1),)}, {4: Matrix([[1]])})
    assert got == expected
    assert expected == tuple(
        f"graded Leibniz fails on ({_name(p, 0)}, {_name(q, 0)})"
        for p, q in [(1, 3), (1, 4), (3, 1), (4, 1)]
    )


@pytest.mark.parametrize("max_degree", [None, 5])
def test_integer_d_squared_matches_reference(max_degree):
    # d_2 d_3 = 1/2 and d_3 d_4 = (1/6, -1/3) are nonzero; d_4 d_5 cancels
    # over the denominators 2 and 3: 1/3 * 1 - 2/3 * 1/2 = 0
    dims = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1}
    d_mats = {
        2: Matrix([[1]]),
        3: Matrix([[Fraction(1, 2)]]),
        4: Matrix([[Fraction(1, 3), Fraction(-2, 3)]]),
        5: Matrix([[1], [Fraction(1, 2)]]),
    }
    violations, expected = _both_outcomes(dims, {}, d_mats, max_degree)
    assert [v for v in violations if v.startswith("d^2")] == [
        "d^2 is nonzero from degree 3",
        "d^2 is nonzero from degree 4",
    ]
    assert violations == expected


def test_leibniz_skips_empty_degrees_without_hiding_a_violation():
    # [e_1_0,e_3_0] = e_4_0 and d(e_4_0) = e_3_0: Leibniz fails on both
    # orders of (e_1_0, e_3_0) and (e_1_0, e_4_0); the pairs of degrees
    # (3,3), (3,4), (4,3) and (4,4) land in the empty degrees 5, 6 and 7
    dims = {1: 1, 3: 2, 4: 1}
    got, expected = _both_outcomes(
        dims, {(1, 3, 0, 0): (Fraction(1),)}, {4: Matrix([[1], [0]])}
    )
    assert got == expected
    assert expected == tuple(
        f"graded Leibniz fails on ({_name(p, i)}, {_name(q, j)})"
        for (p, i), (q, j) in [((1, 0), (3, 0)), ((1, 0), (4, 0)), ((3, 0), (1, 0)), ((4, 0), (1, 0))]
    )


def test_bracket_free_piece_with_empty_leibniz_degrees_is_accepted():
    # no bracket lands in degree 5, so the degree-3 pairs are never walked
    small = dgla_from_doc({"kind": "findim_dgla", "dims": {"1": 2, "3": 30}})
    assert _reference_validate_findim(small, {}).violations == ()
    assert validate(small).ok
    big = dgla_from_doc({"kind": "findim_dgla", "dims": {"1": 2, "3": 3000}})
    assert validate(big).ok


def _minimality_model():
    # dv = 1/2 w + 2/3 u + 1/5 [x,x]: d is held over the scale 30
    a = make([("x", 1), ("w", 2), ("u", 2), ("v", 3)], {"v": "1/2*w + 2/3*u + 1/5*[x,x]"})
    stages = (Stage((), ()), Stage(("w", "u"), ("v",)))
    return RelativeModel(a, ("x",), stages, DGLAMorphism.identity(a))


def test_minimality_witness_keeps_its_denominators():
    model = _minimality_model()
    assert model.dgla.d_images()[0] == 30
    report = is_minimal(model)
    assert report.witnesses == (
        ("v", LiePoly([(Fraction(1, 2), "w"), (Fraction(2, 3), "u")])),
    )


def _der_boundary_reference(model, r):
    """[d, -]: Der_r -> Der_{r-1} column by column from the Fraction images:
    [d, theta](g) = d(theta g) - (-1)^r theta(d g), theta: w -> e_j."""
    dgla, algebra = model.dgla, model.dgla.algebra
    images = {}
    for name, p in dgla.differential.items():
        _, vec = algebra.embed(p)
        if vec:
            images[algebra.index_of(name)] = vec
    sign = -1 if r % 2 else 1
    blocks, rows = [], 0
    for g in model.fiber_generators:
        k = g.degree + r - 1
        if dgla.dim(k):
            blocks.append((g, rows, k))
            rows += dgla.dim(k)
    cols = []
    for w in model.fiber_generators:
        k = w.degree + r
        if dgla.dim(k) == 0:
            continue
        for e_j in algebra.degree_basis(k).vectors:
            theta = {algebra.index_of(w.name): e_j}
            col = [Fraction(0)] * rows
            for g, start, k_g in blocks:
                value = algebra.apply_derivation(r, theta, images.get(algebra.index_of(g.name), {}))
                value = {word: -sign * x for word, x in value.items()}
                if g.name == w.name:
                    for word, x in algebra.apply_derivation(-1, images, e_j).items():
                        value[word] = value.get(word, 0) + x
                for i, c in enumerate(algebra.basis_coords(k_g, value)):
                    col[start + i] = c
            cols.append(col)
    return Matrix.from_columns(cols, rows)


def test_der_boundary_matrix_matches_fraction_images():
    # base x, y; fiber u (stage 1) and w with dw = 1/2[x,y] + 1/3[x,u] + 1/5[u,u]
    a = make(
        [("x", 1), ("y", 1), ("u", 1), ("w", 3)],
        {"w": "1/2*[x,y] + 1/3*[x,u] + 1/5*[u,u]"},
    )
    stages = (Stage(("u",), ()), Stage((), ("w",)))
    model = RelativeModel(a, ("x", "y"), stages, DGLAMorphism.identity(a))
    assert a.d_images()[0] == 30
    for r in range(-1, 3):
        got = der_boundary_matrix(model, r)
        assert got == _der_boundary_reference(model, r), r
    assert not der_boundary_matrix(model, 0).is_zero()


@pytest.mark.parametrize("name", ["[x,y]", "2"])
def test_validate_reports_a_generator_name_that_is_no_identifier(name):
    g = QuasiFreeDGLA([GradedGenerator(n, 1) for n in ("x", "y", name)], {})
    assert validate(g).violations == (f"generator name {name!r} is not an identifier",)
