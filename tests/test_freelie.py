import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgla.dg import Element, QuasiFreeDGLA, validate
from dgla.errors import FormatError, MixedDegrees, NotSimplyConnected, ParseError, UnknownGenerator
from dgla.exprs import _Scanner, is_identifier, parse_expr
from dgla.freelie import FreeGLA, GradedGenerator, LiePoly, bracket, tensor_bracket
from helpers import (
    _Echelon,
    as_fractions,
    rand_quasifree,
    reference_coords,
    reference_pbw_dims,
    reference_solver,
)


def L(*degrees):
    return FreeGLA(
        [GradedGenerator(f"g{i}", d) for i, d in enumerate(degrees)]
    )


def rand_poly(rng, alg, degree, max_terms=3):
    """Random homogeneous polynomial as combinations of basis monomials."""
    basis = alg.degree_basis(degree)
    if basis.dim == 0:
        return LiePoly.zero()
    terms = []
    for _ in range(rng.randrange(1, max_terms + 1)):
        tree = basis.monomials[rng.randrange(basis.dim)]
        terms.append((Fraction(rng.randrange(-3, 4)), tree))
    return LiePoly(terms)


def test_embed_single_generator():
    alg = L(1)
    degree, vec = alg.embed(LiePoly.gen("g0"))
    assert degree == 1
    assert vec == {(0,): Fraction(1)}


def test_embed_square_even_degree_vanishes():
    alg = L(2)
    x = LiePoly.gen("g0")
    _, vec = alg.embed(bracket(x, x))
    assert vec == {}


def test_embed_square_odd_degree_doubles():
    alg = L(1)
    x = LiePoly.gen("g0")
    degree, vec = alg.embed(bracket(x, x))
    assert degree == 2
    assert vec == {(0, 0): Fraction(2)}


def test_embed_unknown_generator():
    with pytest.raises(UnknownGenerator):
        L(1).embed(LiePoly.gen("nope"))


def test_embed_mixed_degrees():
    alg = L(1, 2)
    with pytest.raises(MixedDegrees):
        alg.embed(LiePoly.gen("g0") + LiePoly.gen("g1"))


def test_basis_coords_rejects_a_vector_of_another_degree():
    alg = L(1, 2)
    _, vec = alg.embed(bracket(LiePoly.gen("g0"), LiePoly.gen("g1")))
    assert alg.basis_coords(3, vec) == (Fraction(1),)
    for k in (2, 0):
        with pytest.raises(MixedDegrees, match=f"expected degree {k}, found 3"):
            alg.basis_coords(k, vec)
    assert alg.basis_coords(0, {}) == ()


def test_degree_zero_generator_rejected():
    with pytest.raises(NotSimplyConnected):
        L(0)


@pytest.mark.parametrize(
    "pairs, error",
    [
        ([("x", 0)], NotSimplyConnected),
        ([("x", 0), ("x", 1)], FormatError),
        ([("x", 1), ("2", 1)], FormatError),
        ([("x", 1), ("y", -1), ("z", 0)], NotSimplyConnected),
    ],
)
def test_free_algebra_raises_the_first_generator_violation_validate_lists(pairs, error):
    gens = [GradedGenerator(n, d) for n, d in pairs]
    with pytest.raises(error) as exc:
        FreeGLA(gens)
    assert str(exc.value) == validate(QuasiFreeDGLA(gens, {})).first


def test_one_odd_generator_dimensions():
    alg = L(1)
    assert [alg.dim(k) for k in (1, 2, 3, 4)] == [1, 1, 0, 0]
    assert alg.degree_basis(2).monomials == (("g0", "g0"),)


def test_one_even_generator_dimensions():
    alg = L(2)
    assert [alg.dim(k) for k in (2, 4, 6)] == [1, 0, 0]
    assert [alg.dim_oracle(k) for k in (2, 4, 6)] == [1, 0, 0]


def test_two_odd_generators_degree_two():
    alg = L(1, 1)
    assert alg.dim(2) == 3
    assert alg.dim_oracle(2) == 3


def test_degree_above_reach_is_zero():
    alg = L(2)
    assert alg.dim(5) == 0
    assert alg.dim_oracle(5) == 0


def test_empty_degrees_enumerate_no_words(monkeypatch):
    alg = L(1)
    assert alg.dim(2) == 1

    def no_words(self, k):
        raise AssertionError(f"words enumerated in the empty degree {k}")

    monkeypatch.setattr(FreeGLA, "_iter_words", no_words)
    assert [alg.degree_basis(k).dim for k in range(3, 40)] == [0] * 37


def test_homology_ladder_over_empty_degrees_is_fast(capsys, tmp_path):
    # one degree-1 generator with d = 0: every degree above 2 is empty
    from dgla.cli import main

    doc = tmp_path / "one.json"
    doc.write_text(
        '{"kind": "dgla", "generators": [{"name": "x", "degree": 1}], "differential": {}}',
        encoding="utf-8",
    )
    start = time.perf_counter()
    assert main(["homology", str(doc), "--max-degree", "300"]) == 0
    assert time.perf_counter() - start < 20
    assert '"1": 1' in capsys.readouterr().out


def test_normalize_of_basis_monomial_is_unit():
    alg = L(1, 1, 2)
    for k in (1, 2, 3, 4):
        basis = alg.degree_basis(k)
        for i, tree in enumerate(basis.monomials):
            _, coords = alg.normalize(LiePoly([(Fraction(1), tree)]), k)
            assert coords[i] == 1
            assert all(c == 0 for j, c in enumerate(coords) if j != i)


def test_normalize_scalar_example():
    alg = L(1)
    x = LiePoly.gen("g0")
    _, coords = alg.normalize(3 * bracket(x, x), 2)
    assert coords == (Fraction(3),)


def test_antisymmetry_identity():
    alg = L(1, 2)
    x, y = LiePoly.gen("g0"), LiePoly.gen("g1")
    sign = Fraction((-1) ** (1 * 2))
    _, vec = alg.embed(bracket(x, y) + sign * bracket(y, x))
    assert vec == {}


def test_jacobi_identity_fixed():
    alg = L(1, 1, 2)
    x, y, z = (LiePoly.gen(f"g{i}") for i in range(3))
    jac = (
        bracket(x, bracket(y, z))
        - bracket(bracket(x, y), z)
        - Fraction((-1) ** (1 * 1)) * bracket(y, bracket(x, z))
    )
    _, vec = alg.embed(jac)
    assert vec == {}


def test_antisymmetry_and_jacobi_random():
    rng = random.Random(23)
    algebras = [L(1), L(1, 1), L(1, 2), L(2, 3), L(1, 1, 2)]
    for _ in range(60):
        alg = algebras[rng.randrange(len(algebras))]
        degrees = [g.degree for g in alg.generators]
        da = rng.randrange(1, 4)
        db = rng.randrange(1, 4)
        dc = rng.randrange(1, 4)
        a = rand_poly(rng, alg, da)
        b = rand_poly(rng, alg, db)
        c = rand_poly(rng, alg, dc)
        anti = bracket(a, b) + Fraction((-1) ** (da * db)) * bracket(b, a)
        _, vec = alg.embed(anti)
        assert vec == {}
        jac = (
            bracket(a, bracket(b, c))
            - bracket(bracket(a, b), c)
            - Fraction((-1) ** (da * db)) * bracket(b, bracket(a, c))
        )
        _, vec = alg.embed(jac)
        assert vec == {}


def test_bilinearity_of_normalize():
    rng = random.Random(29)
    alg = L(1, 1)
    for _ in range(20):
        d = rng.randrange(1, 3)
        a = rand_poly(rng, alg, d)
        b = rand_poly(rng, alg, d)
        c = rand_poly(rng, alg, rng.randrange(1, 3))
        if c.is_zero():
            continue
        dc = alg.embed(c)[0]
        lhs = alg.normalize(bracket(a + b, c), d + dc)[1]
        r1 = alg.normalize(bracket(a, c), d + dc)[1]
        r2 = alg.normalize(bracket(b, c), d + dc)[1]
        assert lhs == tuple(u + v for u, v in zip(r1, r2))


def test_basis_matches_oracle_small_grid():
    for degrees in [(1,), (2,), (1, 1), (1, 2), (2, 2), (1, 1, 1)]:
        alg = L(*degrees)
        for k in range(1, 6):
            assert alg.dim(k) == alg.dim_oracle(k), (degrees, k)


def test_bracket_agrees_with_polys():
    a = QuasiFreeDGLA(L(1, 2).generators, {})
    x, y = LiePoly.gen("g0"), LiePoly.gen("g1")
    assert a.bracket(a.element(x, 1), a.element(y, 2)) == a.element(bracket(x, y), 3)


def test_poly_of_coords_round_trip():
    alg = L(1, 1)
    for k in (1, 2, 3):
        basis = alg.degree_basis(k)
        for i in range(basis.dim):
            coords = tuple(
                Fraction(1) if j == i else Fraction(0) for j in range(basis.dim)
            )
            poly = alg.poly_of_coords(k, coords)
            _, back = alg.normalize(poly, k)
            assert back == coords


def test_words_enumeration_order():
    alg = L(1, 2)
    assert tuple(alg._iter_words(2)) == ((1,), (0, 0))
    assert tuple(alg._iter_words(3)) == ((0, 1), (1, 0), (0, 0, 0))


def _poly_mul(a, b, cap):
    out = [0] * cap
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if i + j >= cap:
                break
            if cb:
                out[i + j] += ca * cb
    return out


def _poly_pow(base, exponent, cap):
    result = [1] + [0] * (cap - 1)
    for _ in range(exponent):
        result = _poly_mul(result, base, cap)
    return result


def _geometric_inverse(series, cap):
    # 1 / series, series[0] must be 1
    assert series[0] == 1
    inv = [1] + [0] * (cap - 1)
    for n in range(1, cap):
        acc = 0
        for k in range(1, n + 1):
            if k < len(series):
                acc += series[k] * inv[n - k]
        inv[n] = -acc
    return inv


def test_dimensions_satisfy_enveloping_series_identity():
    """Third route to the dimensions: the tensor algebra's Hilbert series.

    The word counts of the tensor algebra must factor as a product of
    exterior factors (1 + t^k)^{dim_k} for odd k and symmetric factors
    (1 - t^k)^{-dim_k} for even k over the computed degree dimensions.
    """
    import random as _random

    rng = _random.Random(97)
    cap = 7  # compare series coefficients up to degree 6
    for _ in range(8):
        count = rng.randrange(1, 4)
        degrees = [rng.randrange(1, 4) for _ in range(count)]
        alg = L(*degrees)
        dims = {k: alg.dim(k) for k in range(1, cap)}
        # left side: product of the per-degree factors, truncated
        series = [1] + [0] * (cap - 1)
        for k in range(1, cap):
            if dims[k] == 0:
                continue
            if k % 2 == 1:
                factor = [0] * cap
                factor[0] = 1
                factor[k] = 1
                series = _poly_mul(series, _poly_pow(factor, dims[k], cap), cap)
            else:
                base = [0] * cap
                base[0] = 1
                base[k] = -1
                inv = _geometric_inverse(base, cap)
                series = _poly_mul(series, _poly_pow(inv, dims[k], cap), cap)
        # right side: generating function of words, 1/(1 - sum t^{|g|})
        denom = [0] * cap
        denom[0] = 1
        for d in degrees:
            if d < cap:
                denom[d] -= 1
        words = _geometric_inverse(denom, cap)
        assert series == words, (degrees, dims, series, words)


def _exhaustive_basis(alg, k):
    """Basis of degree k from every left-normed word, with no early stop.

    Words run by length, then lexicographically; a word's embedding joins
    the basis when it is independent of the ones before it.
    """
    degrees = [g.degree for g in alg.generators]
    names = [g.name for g in alg.generators]
    echelon = _Echelon()
    monos, vecs = [], []
    for length in range(1, k + 1):
        for word in itertools.product(range(len(names)), repeat=length):
            if sum(degrees[i] for i in word) != k:
                continue
            tree = names[word[0]]
            for i in word[1:]:
                tree = (tree, names[i])
            _, vec = alg.embed_tree(tree)
            if vec and echelon.insert(as_fractions(vec)):
                monos.append(tree)
                vecs.append(vec)
    return tuple(monos), tuple(vecs)


def _assert_basis_is_exhaustive(degrees, top):
    alg, ref = L(*degrees), L(*degrees)
    for k in range(1, top + 1):
        monos, vecs = _exhaustive_basis(ref, k)
        basis = alg.degree_basis(k)
        assert basis.monomials == monos, (degrees, k)
        assert basis.vectors == vecs, (degrees, k)
        assert alg.pbw_dim(k) == alg.dim_oracle(k) == len(monos), (degrees, k)


@pytest.mark.parametrize(
    "degrees, top",
    [((1, 1, 1), 7), ((1, 3), 8), ((2, 2), 8), ((1, 2, 3), 7), ((2,), 8), ((3, 3), 9), ((), 4)],
)
def test_early_stop_keeps_the_exhaustive_basis(degrees, top):
    _assert_basis_is_exhaustive(degrees, top)


@settings(max_examples=25, deadline=None)
@given(degrees=st.lists(st.integers(1, 4), max_size=3), top=st.integers(1, 5))
def test_early_stop_keeps_the_exhaustive_basis_random(degrees, top):
    _assert_basis_is_exhaustive(tuple(degrees), top)


# -- the graded Witt dimension of each content block ---------------------------


def _contents(alg, k):
    return sorted({tuple(sorted(w)) for w in alg._iter_words(k)})


def _exhaustive_content_ranks(alg, k):
    """Rank of each content in the basis of every left-normed word."""
    ranks = {}
    for vec in _exhaustive_basis(alg, k)[1]:
        content = tuple(sorted(next(iter(vec))))
        ranks[content] = ranks.get(content, 0) + 1
    return ranks


@pytest.mark.parametrize(
    "degrees, top",
    [
        ((1,), 6),  # one odd letter: only [y,y] survives beyond y
        ((2,), 6),  # one even letter: [x,x] = 0
        ((1, 1), 6),  # content (0,0,1,1) has gcd 2
        ((2, 2), 8),
        ((1, 2), 7),  # mixed parities, gcd 2 at (0,0,1,1)
        ((1, 1, 2), 6),
        ((2, 1, 3), 7),
        ((3, 3, 1), 8),
        ((), 4),
    ],
)
def test_content_dim_is_the_rank_of_the_exhaustive_block(degrees, top):
    alg = L(*degrees)
    for k in range(1, top + 1):
        ranks = _exhaustive_content_ranks(alg, k)
        dims = {c: alg.content_dim(c) for c in _contents(alg, k)}
        assert dims == {c: ranks.get(c, 0) for c in dims}, (degrees, k)
        assert sum(dims.values()) == alg.pbw_dim(k) == alg.dim_oracle(k), (degrees, k)


def test_content_dim_of_squares_and_a_gcd_content():
    assert L(1).content_dim((0, 0)) == 1  # [y,y] != 0 for odd y
    assert L(2).content_dim((0, 0)) == 0  # [x,x] = 0 for even x
    assert L(1).content_dim((0, 0, 0)) == 0  # [y,[y,y]] = 0 by Jacobi
    # gcd 2: (6 - 2)/4 for two even or two odd letters, (6 + 2)/4 for mixed
    assert L(2, 2).content_dim((0, 0, 1, 1)) == 1
    assert L(1, 1).content_dim((0, 0, 1, 1)) == 1
    assert L(1, 2).content_dim((0, 0, 1, 1)) == 2
    # only multiplicities and parities matter
    assert L(3, 5).content_dim((0, 1, 1)) == L(1, 1).content_dim((0, 0, 1))


@settings(max_examples=25, deadline=None)
@given(degrees=st.lists(st.integers(1, 4), max_size=4), k=st.integers(1, 6))
def test_content_dims_add_up_to_the_pbw_dimension(degrees, k):
    alg = L(*degrees)
    assert sum(alg.content_dim(c) for c in _contents(alg, k)) == alg.pbw_dim(k) == alg.dim_oracle(k)


def test_an_understated_content_dim_raises_instead_of_shrinking_the_basis(monkeypatch):
    alg = L(1, 1, 2)
    true_dim = alg.content_dim
    short = (0, 1, 2)
    assert true_dim(short) > 0
    monkeypatch.setattr(alg, "content_dim", lambda c: true_dim(c) - (c == short))
    with pytest.raises(ArithmeticError, match="internal basis bug"):
        alg.degree_basis(4)


def test_pbw_dim_of_even_and_empty_generators():
    # all-even generators leave every odd l_n = 0, the empty set every l_n
    assert [L(2).pbw_dim(k) for k in range(1, 7)] == [0, 1, 0, 0, 0, 0]
    assert [L(2, 4).pbw_dim(k) for k in range(1, 7)] == [0, 1, 0, 1, 0, 1]
    assert [L().pbw_dim(k) for k in range(0, 4)] == [0, 0, 0, 0]
    assert L(1).pbw_dim(0) == L(1).pbw_dim(-3) == 0


@given(st.lists(st.integers(1, 5), max_size=4), st.integers(1, 14))
@settings(max_examples=150, deadline=None)
def test_pbw_recurrence_matches_the_product_convolution(degrees, top):
    alg = L(*degrees)
    assert [alg.pbw_dim(k) for k in range(1, top + 1)] == reference_pbw_dims(degrees, top)


def test_pbw_dim_of_one_generator_in_closed_form():
    # x odd: x and [x,x] only; x even: x only.  Degree 1000 is asked for
    # without the lower degrees, and the recurrence reads only its divisors.
    assert [L(1).pbw_dim(k) for k in range(1, 41)] == [1, 1] + [0] * 38
    assert [L(3).pbw_dim(k) for k in range(1, 13)] == [0, 0, 1, 0, 0, 1] + [0] * 6
    assert [L(2).pbw_dim(k) for k in range(1, 41)] == [0, 1] + [0] * 38
    assert L(1).pbw_dim(1000) == L(2).pbw_dim(1000) == 0
    assert len(L(1)._pbw) < 20


def test_pbw_recurrence_refuses_a_fractional_dimension():
    alg = L(1)
    alg._pbw[1] = 2  # 2 l_2 = T_1 + l_1 = 3 is odd
    with pytest.raises(ArithmeticError, match="PBW recurrence"):
        alg.pbw_dim(2)


def test_degree_basis_refuses_a_short_span(monkeypatch):
    alg = L(1, 1)
    monkeypatch.setattr(alg, "pbw_dim", lambda k: 4)
    with pytest.raises(ArithmeticError, match="internal basis bug"):
        alg.degree_basis(2)


# -- the integer content-block solver against the reference echelon -----------


def _rand_rational(rng):
    return Fraction(rng.randrange(-6, 7), rng.choice((1, 1, 2, 3, 4, 6)))


def _rand_combination(rng, alg, k):
    """A random rational combination of degree-k basis vectors, as coordinates
    and in tensor form (it mixes contents and has non-unit denominators)."""
    coords = tuple(
        _rand_rational(rng) if rng.random() < 0.6 else Fraction(0)
        for _ in range(alg.dim(k))
    )
    return coords, alg.tensor_of(k, coords)


def _assert_solver_matches_reference(alg, k, vec, expected=None):
    basis = alg.degree_basis(k)
    ref = reference_coords(reference_solver(basis.vectors), basis.dim, vec)
    got = alg.basis_coords(k, vec)
    assert got == ref, (k, vec)
    assert all(type(c) is Fraction for c in got)
    if expected is not None:
        assert got == expected
    assert alg.tensor_of(k, got) == {w: a for w, a in vec.items() if a}


def test_basis_coords_match_the_reference_on_combinations_and_brackets():
    rng = random.Random(41)
    for degrees, top in [((1, 1, 1), 5), ((1, 2), 6), ((1, 1, 2), 5), ((2, 3), 8)]:
        alg = L(*degrees)
        qf = QuasiFreeDGLA(alg.generators, {})
        for k in range(1, top + 1):
            for _ in range(4):
                coords, vec = _rand_combination(rng, alg, k)
                _assert_solver_matches_reference(alg, k, vec, coords)
            for p in range(1, k):
                cp, vp = _rand_combination(rng, alg, p)
                cq, vq = _rand_combination(rng, alg, k - p)
                vec = tensor_bracket(p, vp, k - p, vq)
                _assert_solver_matches_reference(alg, k, vec)
                got = qf.bracket(Element(p, cp), Element(k - p, cq))
                assert got == Element(k, alg.basis_coords(k, vec))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_quasifree_bracket_matches_the_tensor_route_and_the_dense_view(seed):
    rng = random.Random(seed)
    a = rand_quasifree(rng, max_gens=3, max_degree=3)
    alg = a.algebra
    for p in range(1, 5):
        for q in range(1, 6 - p):
            # the tensor route reads no structure constants
            cp, vp = _rand_combination(rng, alg, p)
            cq, vq = _rand_combination(rng, alg, q)
            expected = alg.basis_coords(p + q, tensor_bracket(p, vp, q, vq))
            assert a.bracket(Element(p, cp), Element(q, cq)) == Element(p + q, expected)
            # the memo holds the integer cells, and the table is their view
            scale, cells = alg.bracket_cells(p, q)
            assert alg._brackets[(p, q)] == (scale, cells)
            table = alg.bracket_table(p, q)
            n = alg.dim(p + q)
            for i in range(alg.dim(p)):
                for j in range(alg.dim(q)):
                    cell = cells.get((p, q, i, j), [])
                    assert all(type(v) is int and v for _, v in cell)
                    assert [t for t, _ in cell] == sorted({t for t, _ in cell})
                    dense = [Fraction(0)] * n
                    for t, v in cell:
                        dense[t] += Fraction(v) / scale
                    assert table[i][j] == tuple(dense)


def test_basis_coords_of_a_probe_with_many_contents_and_denominators():
    # every coordinate nonzero, with denominators 5, 7, 9 and 11
    alg = L(1, 1, 1)
    basis = alg.degree_basis(4)
    coords = tuple(Fraction(7 * i + 1, 5 + 2 * (i % 4)) for i in range(basis.dim))
    vec = alg.tensor_of(4, coords)
    assert len({tuple(sorted(w)) for w in vec}) > 3
    _assert_solver_matches_reference(alg, 4, vec, coords)


def test_d_matrix_matches_the_reference_solver():
    rng = random.Random(7)
    for _ in range(4):
        algebra = rand_quasifree(rng, max_gens=4, max_degree=3)
        gla = algebra.algebra
        scale, images = algebra.d_images()
        for k in range(2, 6):
            source = gla.degree_basis(k)
            target = gla.degree_basis(k - 1)
            solver = reference_solver(target.vectors)
            expected = []
            for vec in source.vectors:
                image = gla.apply_derivation(-1, images, vec)
                image = {w: Fraction(a, scale) for w, a in image.items()}
                expected.append(reference_coords(solver, target.dim, image))
            d = algebra.d_matrix(k)
            assert [d.column(j) for j in range(d.cols)] == expected, k


def test_a_non_lie_tensor_vector_escapes_the_span():
    alg = L(1, 1)
    # a single word of a content that has Lie elements: [g0,g1] = 01 + 10
    with pytest.raises(ArithmeticError, match="escaped the bracket span"):
        alg.basis_coords(2, {(0, 1): Fraction(1)})
    # a half-Lie vector: the Lie part of content (0,0) plus a stray word
    with pytest.raises(ArithmeticError, match="escaped the bracket span"):
        alg.basis_coords(2, {(0, 0): 2, (0, 1): Fraction(1, 3)})
    # a content with no Lie element at all: g0 g0 for an even generator
    with pytest.raises(ArithmeticError, match="escaped the bracket span"):
        L(2).basis_coords(4, {(0, 0): 1})


def test_basis_coords_keeps_letter_multiplicities_apart():
    # contents (0,0,1) and (0,1,1) share their set of letters
    alg = L(1, 1)
    x, y = LiePoly.gen("g0"), LiePoly.gen("g1")
    _, xxy = alg.embed(bracket(bracket(x, y), x))
    _, xyy = alg.embed(bracket(bracket(x, y), y))
    vec = {w: 3 * a for w, a in xxy.items()}
    for w, a in xyy.items():
        vec[w] = vec.get(w, 0) - Fraction(a, 2)
    _assert_solver_matches_reference(alg, 3, vec)


@settings(max_examples=30, deadline=None)
@given(
    degrees=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_basis_coords_match_the_reference_random(degrees, k, seed):
    alg = L(*degrees)
    rng = random.Random(seed)
    coords, vec = _rand_combination(rng, alg, k)
    _assert_solver_matches_reference(alg, k, vec, coords)
    if k > 1:
        p = rng.randrange(1, k)
        _, vp = _rand_combination(rng, alg, p)
        _, vq = _rand_combination(rng, alg, k - p)
        _assert_solver_matches_reference(alg, k, tensor_bracket(p, vp, k - p, vq))


@pytest.mark.parametrize("degrees, k", [((1, 1), 5), ((1, 1, 2), 5), ((2, 1, 1), 6)])
def test_each_content_block_holds_only_its_own_words(degrees, k):
    alg = L(*degrees)
    basis = alg.degree_basis(k)
    contents = {tuple(sorted(w)) for vec in basis.vectors for w in vec}
    assert set(basis.blocks) == contents
    for content, block in basis.blocks.items():
        for _, row, _ in block.rows:
            assert {tuple(sorted(w)) for w in row} == {content}
    assert sum(block.rank for block in basis.blocks.values()) == basis.dim


# -- sub-algebras as index sets of the ambient basis ---------------------------


@settings(max_examples=40, deadline=None)
@given(
    degrees=st.lists(st.integers(1, 4), max_size=4),
    keep=st.lists(st.booleans(), min_size=4, max_size=4),
    k=st.integers(1, 6),
)
@example(degrees=[1, 2, 1, 3], keep=[True, False, True, False], k=5)
@example(degrees=[2, 1, 1], keep=[False, True, True, False], k=6)
@example(degrees=[1, 2], keep=[False, False, False, False], k=3)
def test_sub_basis_is_the_basis_of_the_free_sub_algebra(degrees, keep, k):
    """The deleted construction, a FreeGLA on the subset, is the reference."""
    alg = L(*degrees)
    subset = [g for g, kept in zip(alg.generators, keep) if kept]
    reference = FreeGLA(subset).degree_basis(k).monomials
    monomials = alg.degree_basis(k).monomials
    assert tuple(monomials[i] for i in alg.sub_basis(k, [g.name for g in subset])) == reference


def test_sub_basis_below_degree_one_and_on_unknown_names():
    alg = L(1, 2)
    assert alg.sub_basis(0, ["g0"]) == ()
    assert alg.sub_basis(3, alg.names()) == tuple(range(alg.dim(3)))
    with pytest.raises(UnknownGenerator):
        alg.sub_basis(2, ["nope"])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), k=st.integers(1, 6))
def test_letters_and_sub_basis_read_the_same_sub_algebras(seed, k):
    """letters, the reading on tensor form, holds an element in the free
    sub-algebra on some names exactly when sub_basis, the reading on
    coordinates, does."""
    rng = random.Random(seed)
    alg = rand_quasifree(rng).algebra
    names = {name for name in alg.names() if rng.random() < 0.5}
    inside = set(alg.sub_basis(k, names))
    # half the draws stay inside the sub-algebra, so both answers occur
    support = inside if rng.random() < 0.5 else range(alg.dim(k))
    coords = [Fraction(0)] * alg.dim(k)
    for i in support:
        coords[i] = Fraction(rng.randrange(-2, 3))
    vanish_off = not any(c for i, c in enumerate(coords) if i not in inside)
    assert (alg.letters(alg.tensor_of(k, coords)) <= names) == vanish_off


@pytest.mark.parametrize("name", ["[x,y]", "2", "", "w-1", " x", "x y"])
def test_a_generator_name_that_is_no_identifier_is_refused(name):
    # the text of a monomial in such a name could read as another tree
    with pytest.raises(FormatError, match=r"^generator name .* is not an identifier$"):
        FreeGLA([GradedGenerator("x", 1), GradedGenerator(name, 2)])


@settings(max_examples=300, deadline=None)
@given(text=st.text() | st.from_regex(r"[^\W\d]\w*", fullmatch=True))
@example(text="x²")
@example(text="_１")
@example(text="１x")
@example(text="ǅ")
def test_is_identifier_is_what_the_scanner_reads_as_one_name(text):
    try:
        scanned = _Scanner(text).ident()
    except ParseError:
        scanned = None
    rule = (text[:1].isalpha() or text[:1] == "_") and all(
        c.isalnum() or c == "_" for c in text
    )
    assert is_identifier(text) == (scanned == text) == rule
    # so exactly an identifier reads back as the one generator it names
    try:
        read = parse_expr(text)
    except ParseError:
        read = None
    assert is_identifier(text) == (read == [(Fraction(1), text)])
