import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    rand_coeff,
    rand_minimal_model,
    reference_elimination,
    reference_kernel_basis,
    reference_rref,
)
from dgla.dg import induced_map_on_homology
from dgla.homotopy import der_boundary_matrix, der_space
from dgla.linalg import (
    Matrix,
    _clear_denominators,
    _Echelon,
    Subspace,
    invert,
    kernel_basis,
    membership,
    solve_pivot,
    sparse_vector,
    unit_vector,
    vec_is_zero,
)


def test_rref_rank_one():
    reduced, pivots = Matrix([[2, 4], [1, 2]]).rref()
    assert reduced == Matrix([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_identity():
    reduced, pivots = Matrix.identity(3).rref()
    assert reduced == Matrix.identity(3)
    assert pivots == (0, 1, 2)


def test_rref_permutation():
    reduced, pivots = Matrix([[0, 1], [1, 0]]).rref()
    assert reduced == Matrix.identity(2)
    assert pivots == (0, 1)


def test_rref_idempotent_random():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = Matrix(
            [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(cols)] for _ in range(rows)]
        )
        reduced, pivots = m.rref()
        again, pivots2 = reduced.rref()
        assert again == reduced
        assert pivots2 == pivots


def test_clear_denominators_returns_int_entries_as_they_are():
    ints = {(0, 1): 2, (1, 0): -3}
    out, den = _clear_denominators(ints)
    assert out is ints and den == 1
    # a Fraction with denominator 1 still comes back as an int
    out, den = _clear_denominators({0: Fraction(3), 2: 5})
    assert out == {0: 3, 2: 5} and den == 1
    assert all(type(x) is int for x in out.values())
    out, den = _clear_denominators({0: Fraction(1, 2), 1: Fraction(-2, 3), 4: 1})
    assert out == {0: 3, 1: -4, 4: 6} and den == 6
    assert all(type(x) is int for x in out.values())
    # the echelon copies what it reduces, so sharing the input is safe
    echelon = _Echelon()
    assert echelon.insert(ints)
    v, _, _ = echelon.reduce(ints)
    assert not v and ints == {(0, 1): 2, (1, 0): -3}


def test_kernel_of_zero_matrix_is_everything():
    sub = kernel_basis(Matrix.zero(2, 3))
    assert sub.dim == 3
    assert sub.basis == (unit_vector(3, 0), unit_vector(3, 1), unit_vector(3, 2))


def test_kernel_of_identity_is_zero():
    assert kernel_basis(Matrix.identity(3)).dim == 0


def test_kernel_single_equation_canonical():
    sub = kernel_basis(Matrix([[1, 1]]))
    assert sub.basis == ((Fraction(1), Fraction(-1)),)


def test_kernel_annihilates_random():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 6)
        m = Matrix([[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)])
        sub = kernel_basis(m)
        assert sub.dim == cols - m.rank()
        for v in sub.basis:
            assert vec_is_zero(m.apply(v))


def test_membership_zero_vector():
    sub = Subspace(3, [[1, 0, 2]])
    assert membership((0, 0, 0), sub) == (Fraction(0),)


def test_membership_negative():
    assert membership((0, 1), Subspace(2, [[1, 0]])) is None


def test_membership_scalar_multiple():
    coords = membership((2, -2), Subspace(2, [[1, -1]]))
    assert coords == (Fraction(2),)


def test_solve_pivot_consistent_and_canonical():
    m = Matrix([[1, 1, 0], [0, 0, 1]])
    x, pivots = solve_pivot(m, (3, 5))
    assert x == (Fraction(3), Fraction(0), Fraction(5))
    assert pivots == (0, 2)
    assert m.apply(x) == (Fraction(3), Fraction(5))


def test_solve_pivot_inconsistent():
    # the right-hand side's own pivot is not one of m's
    assert solve_pivot(Matrix([[1], [1]]), (1, 2)) == (None, (0,))
    assert solve_pivot(Matrix.zero(2, 3), (0, 1)) == (None, ())


def test_invert_round_trip():
    m = Matrix([[2, 1], [1, 1]])
    assert m.mul(invert(m)) == Matrix.identity(2)


def test_invert_singular_raises():
    with pytest.raises(ValueError):
        invert(Matrix([[1, 2], [2, 4]]))


def test_exactness_no_rounding():
    m = Matrix([["1/3", "1/7"], ["2/5", "1/11"]])
    reduced, _ = m.rref()
    assert reduced == Matrix.identity(2)
    assert invert(m).mul(m) == Matrix.identity(2)


def test_apply_zero_vector_gives_fraction_zeros():
    m = Matrix([["1/2", 3], [-1, "2/3"]])
    out = m.apply((Fraction(0), Fraction(0)))
    assert out == (Fraction(0), Fraction(0))
    assert all(type(c) is Fraction for c in out)


def test_apply_one_nonzero_entry_picks_a_scaled_column():
    m = Matrix([["1/2", 3, 0], [-1, "2/3", 5]])
    assert m.apply((0, Fraction(3), 0)) == (Fraction(9), Fraction(2))


def test_apply_empty_shapes():
    assert Matrix.zero(0, 3).apply((Fraction(1), Fraction(0), Fraction(2))) == ()
    assert Matrix.zero(3, 0).apply(()) == (Fraction(0),) * 3


def test_apply_rejects_wrong_length():
    with pytest.raises(ValueError):
        Matrix.identity(2).apply((Fraction(1),))
    with pytest.raises(ValueError):
        Matrix.zero(3, 0).apply((Fraction(0),))


_small_rational = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def _matrix_and_sparse_vector(draw):
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 6))
    data = [[draw(_small_rational) for _ in range(cols)] for _ in range(rows)]
    vec = tuple(
        draw(st.one_of(st.just(Fraction(0)), _small_rational)) for _ in range(cols)
    )
    return data, cols, vec


@given(_matrix_and_sparse_vector())
@settings(max_examples=100, deadline=None)
def test_apply_matches_dense_sum(case):
    data, cols, v = case
    m = Matrix(data, cols=cols)
    dense = tuple(
        sum((data[i][k] * v[k] for k in range(cols)), Fraction(0))
        for i in range(len(data))
    )
    out = m.apply(v)
    assert out == dense
    assert all(type(c) is Fraction for c in out)
    assert m.data == tuple(map(tuple, data))
    assert [m.row(i) for i in range(m.rows)] == [tuple(row) for row in data]
    assert m.columns() == [tuple(row[j] for row in data) for j in range(cols)]
    assert m._columns == tuple(
        {i: row[j] for i, row in enumerate(data) if row[j]} for j in range(cols)
    )
    trusted = Matrix._of_columns(m._columns, m.rows)
    assert trusted.data == m.data and trusted == m and hash(trusted) == hash(m)


@st.composite
def _sparse_matrix_pair(draw):
    rows, inner, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.one_of(st.just(Fraction(0)), _small_rational)
    left = [[draw(entry) for _ in range(inner)] for _ in range(rows)]
    right = [[draw(entry) for _ in range(cols)] for _ in range(inner)]
    return left, right, inner, cols


@given(_sparse_matrix_pair())
@settings(max_examples=100, deadline=None)
def test_mul_matches_dense_triple_sum(case):
    left, right, inner, cols = case
    dense = tuple(
        tuple(
            sum((row[k] * right[k][j] for k in range(inner)), Fraction(0))
            for j in range(cols)
        )
        for row in left
    )
    out = Matrix(left, cols=inner).mul(Matrix(right, cols=cols))
    assert out.shape == (len(left), cols)
    assert out.data == dense
    assert all(type(c) is Fraction for row in out.data for c in row)
    assert all(c for col in out._columns for c in col.values())


def test_mul_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        Matrix.identity(2).mul(Matrix.zero(3, 1))


@pytest.mark.parametrize("seed", range(5))
def test_back_substitution_keeps_rows_tagged_combinations(seed):
    rng = random.Random(seed)
    vecs = []
    for _ in range(6):
        vec = {j: rng.randint(-4, 4) for j in rng.sample(range(8), 4)}
        vecs.append({j: x for j, x in vec.items() if x} or {0: 1})
    echelon = _Echelon()
    for t, vec in enumerate(vecs):
        echelon.insert(vec, t)
    echelon.back_substitute()
    pivots = [pivot for pivot, _, _ in echelon.rows]
    assert pivots == sorted(pivots)
    for pivot, row, rho in echelon.rows:
        combination = {}
        for t, c in rho.items():
            for j, x in vecs[t].items():
                combination[j] = combination.get(j, 0) + c * x
        assert {j: x for j, x in combination.items() if x} == row
        assert row[pivot] > 0 and min(row) == pivot
        assert not any(p in row for p in pivots if p != pivot)


# -- the integer kernel against the Fraction reference and sympy --------------

_entry = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
)


@st.composite
def _rational_matrix(draw):
    """Repeated, scaled and zero rows among fresh ones, which are either
    mostly zero in shapes 0-7 x 0-7 or, in wide shapes 0-4 x 8-40, hold at
    most 3 nonzero entries each."""
    wide = draw(st.booleans())
    if wide:
        rows, cols = draw(st.integers(0, 4)), draw(st.integers(8, 40))
    else:
        rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    sparsity = draw(st.integers(0, 4))
    data = []
    for i in range(rows):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "copy", "scaled"]))
        if kind in ("copy", "scaled") and data:
            source = data[draw(st.integers(0, len(data) - 1))]
            c = draw(_entry) if kind == "scaled" else Fraction(1)
            data.append([c * e for e in source])
        elif kind == "zero":
            data.append([Fraction(0)] * cols)
        elif wide:
            row = [Fraction(0)] * cols
            for j in draw(st.lists(st.integers(0, cols - 1), max_size=3, unique=True)):
                row[j] = draw(_entry)
            data.append(row)
        else:
            data.append(
                [
                    draw(_entry) if draw(st.integers(0, sparsity)) == 0 else Fraction(0)
                    for _ in range(cols)
                ]
            )
    return data, cols


def _linalg_results(data, cols, x, rhs, kernel_of=kernel_basis):
    """What every elimination-backed function of linalg gives on one matrix."""
    m = Matrix(data, cols=cols)
    out = {"rref": m.rref()}
    kernel = kernel_of(m)
    out["kernel"] = (kernel.basis, kernel.pivots)
    span = Subspace(cols, data)
    out["span"] = (span.basis, span.pivots)
    out["solve consistent"] = solve_pivot(m, m.apply(x))
    out["solve"] = solve_pivot(m, rhs)
    if m.rows == m.cols:
        try:
            out["invert"] = invert(m)
        except ValueError:
            out["invert"] = "singular"
    return out


def _rational_entries(results):
    """Every rational entry of the results: matrices, bases and solutions."""
    reduced, _ = results["rref"]
    yield from (e for row in reduced.data for e in row)
    for key in ("kernel", "span"):
        yield from (e for vec in results[key][0] for e in vec)
    for key in ("solve consistent", "solve"):
        yield from results[key][0] or ()
    if isinstance(results.get("invert"), Matrix):
        yield from (e for row in results["invert"].data for e in row)


@given(_rational_matrix(), st.data())
@settings(max_examples=200, deadline=None)
def test_integer_kernel_matches_fraction_reference(case, data):
    rows, cols = case
    x = tuple(data.draw(st.lists(_entry, min_size=cols, max_size=cols)))
    rhs = tuple(data.draw(st.lists(_entry, min_size=len(rows), max_size=len(rows))))
    # kernel_basis reads the kernel off one reversed-key elimination, so its
    # reference is the two-step kernel on top of the reference elimination
    with reference_elimination():
        expected = _linalg_results(rows, cols, x, rhs, reference_kernel_basis)
    got = _linalg_results(rows, cols, x, rhs)
    assert got == expected
    assert got["solve consistent"][0] is not None
    # an int here would turn a later 1 / e into a float
    assert all(type(e) is Fraction for e in _rational_entries(got))


@given(_rational_matrix())
@example(([], 0))
@example(([], 5))
@example(([[Fraction(0)]] * 3, 1))
@example(([[], [], []], 0))
@example(([[Fraction(1, 2), Fraction(-3)]] * 4 + [[Fraction(0)] * 2], 2))
@settings(max_examples=200, deadline=None)
def test_rank_counts_the_pivots_of_the_reference_rref(case):
    # Matrix.rank inserts rows into one echelon and stops there, so it does
    # not reach the elimination reference_elimination replaces; its check
    # is this count, and solve_pivot's pivots are m's own
    rows, cols = case
    m = Matrix(rows, cols=cols)
    _, pivots = reference_rref(m)
    assert m.rank() == len(pivots)
    assert solve_pivot(m, (Fraction(1),) * len(rows))[1] == pivots


def _assert_rref(basis, pivots, n):
    """basis is in reduced row echelon form with these pivot columns."""
    assert list(pivots) == sorted(set(pivots)) and len(pivots) == len(basis)
    for vec, p in zip(basis, pivots):
        assert len(vec) == n
        assert all(e == 0 for e in vec[:p]) and vec[p] == 1
        assert all(other[p] == 0 for other in basis if other is not vec)


@given(_rational_matrix())
@settings(max_examples=200, deadline=None)
def test_kernel_basis_is_the_rref_of_the_null_space(case):
    rows, cols = case
    m = Matrix(rows, cols=cols)
    kernel = kernel_basis(m)
    _assert_rref(kernel.basis, kernel.pivots, cols)
    assert all(type(e) is Fraction for vec in kernel.basis for e in vec)
    for vec in kernel.basis:
        assert vec_is_zero(m.apply(vec))
    assert kernel.dim == cols - m.rank()
    assert kernel == Subspace(cols, kernel.basis)


@given(_rational_matrix(), st.data())
@settings(max_examples=150, deadline=None)
def test_subspaces_hold_the_reference_rref_as_sparse_rows(case, data):
    rows, cols = case
    m = Matrix(rows, cols=cols)
    reduced, pivots = reference_rref(m)
    with reference_elimination():
        reference_kernel = reference_kernel_basis(m)
    expected = [
        (tuple(reduced.data[: len(pivots)]), pivots),
        (reference_kernel.basis, reference_kernel.pivots),
    ]
    span = Subspace(cols, rows)
    spanned = Subspace._spanned(cols, [sparse_vector(row) for row in rows])
    kernel = kernel_basis(m)
    for sub, (basis, pivots) in zip((span, spanned, kernel), expected[:1] + expected):
        assert sub.pivots == pivots and sub.dim == len(basis)
        assert sub._rows == tuple(sparse_vector(vec) for vec in basis)
        assert all(type(x) is Fraction and x for row in sub._rows for x in row.values())
        assert sub.basis == basis
        assert all(type(x) is Fraction for vec in sub.basis for x in vec)
        again = Subspace(cols, basis)
        assert sub == again and hash(sub) == hash(again)
    assert span == spanned and hash(span) == hash(spanned)
    assert (span == kernel) == (span.basis == kernel.basis)
    v = tuple(data.draw(st.lists(_entry, min_size=cols, max_size=cols)))
    for sub in (span, kernel):
        # the basis is in RREF, so the coefficient of row i is v at pivot i
        coeffs = tuple(v[p] for p in sub.pivots)
        residual = tuple(
            v[j] - sum((c * vec[j] for c, vec in zip(coeffs, sub.basis)), Fraction(0))
            for j in range(cols)
        )
        assert sub.reduce(v) == (residual, coeffs)
        assert sub.contains(v) == vec_is_zero(residual)
        inside = tuple(a - b for a, b in zip(v, residual))
        assert sub.contains(inside) and membership(inside, sub) == coeffs


def test_rref_rank_and_nullity_agree_with_sympy():
    sympy = pytest.importorskip("sympy")

    @given(_rational_matrix())
    @settings(max_examples=150, deadline=None)
    def check(case):
        rows, cols = case
        m = Matrix(rows, cols=cols)
        reduced, pivots = m.rref()
        theirs = sympy.Matrix(
            len(rows),
            cols,
            [sympy.Rational(e.numerator, e.denominator) for row in rows for e in row],
        )
        their_reduced, their_pivots = theirs.rref()
        assert pivots == tuple(their_pivots)
        assert len(pivots) == theirs.rank()
        assert reduced.data == tuple(
            tuple(Fraction(int(e.p), int(e.q)) for e in their_reduced.row(i))
            for i in range(len(rows))
        )
        assert len(kernel_basis(m).basis) == len(theirs.nullspace())

    check()


def test_trusted_constructors_agree_with_the_public_ones():
    cols = [
        (Fraction(1), Fraction(0), Fraction(-1, 2)),
        (Fraction(2), Fraction(0), Fraction(-1)),
        (Fraction(0), Fraction(3), Fraction(0)),
    ]
    sparse = [sparse_vector(col) for col in cols]
    assert sparse[2] == {1: Fraction(3)}
    trusted = Matrix._of_columns(sparse, 3)
    assert trusted == Matrix.from_columns(cols, 3)
    assert hash(trusted) == hash(Matrix.from_columns(cols, 3))
    for rows in (0, 2):
        assert Matrix._of_columns([], rows) == Matrix.from_columns([], rows)
        assert Matrix._of_columns([], rows).shape == (rows, 0)
    assert Matrix._of_columns([{}, {}], 0) == Matrix.from_columns([(), ()], 0)
    for n in (1, 3):
        trusted, public = Subspace._spanned(3, sparse[:n]), Subspace(3, cols[:n])
        assert trusted == public and trusted.pivots == public.pivots
    assert Subspace._spanned(3, []) == Subspace(3, [])


def _assert_canonical(m: Matrix):
    """Sparse columns of nonzero Fractions, equal to the public constructor's
    matrix on the dense rows."""
    for col in m._columns:
        assert all(type(c) is Fraction and c for c in col.values())
        assert all(0 <= i < m.rows for i in col)
    public = Matrix(m.data, cols=m.cols)
    assert m == public and hash(m) == hash(public)


@given(st.integers(0, 10**6))
@settings(max_examples=12, deadline=None)
def test_every_matrix_the_package_builds_stores_only_nonzero_fractions(seed):
    rng = random.Random(seed)
    model, f = rand_minimal_model(rng, 3)
    space = der_space(model, 0)
    theta = space.unpack(tuple(rand_coeff(rng) for _ in range(space.dim)))
    built = [model.dgla.d_matrix(k) for k in range(1, 5)]
    built += [der_boundary_matrix(model, r) for r in (0, 1)]
    built += [theta.matrix(k) for k in range(1, 4)]
    built += [g.matrix(k) for g in (f, model.q) for k in range(1, 4)]
    built += [induced_map_on_homology(g, k) for g in (f, model.q) for k in range(1, 4)]
    for m in built:
        _assert_canonical(m)


def test_public_constructors_still_coerce_and_check():
    m = Matrix.from_columns([(1, "1/2")], 2)
    assert m.data == ((Fraction(1),), (Fraction(1, 2),))
    assert all(type(e) is Fraction for row in m.data for e in row)
    sub = Subspace(2, [[2, "1"]])
    assert sub.basis == ((Fraction(1), Fraction(1, 2)),)
    with pytest.raises(ValueError, match="ambient dimension"):
        Subspace(2, [[1, 2, 3]])
    with pytest.raises(TypeError):
        Subspace(1, [[0.5]])
    with pytest.raises(TypeError):
        Matrix.from_columns([(0.5,)], 1)


def test_spans_inverses_and_solutions_run_through_the_patched_rref():
    # test_integer_kernel_matches_fraction_reference cross-checks these
    # functions only if they reach the elimination it replaces
    data = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    runs = {
        "Subspace": lambda m: Subspace(2, data),
        "_spanned": lambda m: Subspace._spanned(2, m._columns),
        "kernel_basis": kernel_basis,
        "invert": invert,
        "solve_pivot": lambda m: solve_pivot(m, (Fraction(1), Fraction(0))),
    }
    for name, run in runs.items():
        with reference_elimination() as calls:
            run(Matrix(data))
        assert len(calls) == 1, name
