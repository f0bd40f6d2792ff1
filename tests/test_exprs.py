import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgla.dg import DGLAMorphism, Element
from dgla.errors import DglaError, ParseError
from dgla.exprs import eval_tree, format_terms, format_tree, parse_expr, tree_word_length
from dgla.freelie import FreeGLA, GradedGenerator

from helpers import (
    rand_coeff,
    rand_conjugated_findim,
    rand_quasifree,
    reference_embed_tree,
    reference_findim_eval_tree,
    reference_morphism_eval_tree,
)


def test_single_identifier():
    assert parse_expr("x") == [(Fraction(1), "x")]


def test_zero_literal():
    assert parse_expr("0") == []
    assert parse_expr(" 0 ") == []


def test_nonzero_constant_rejected():
    with pytest.raises(ParseError):
        parse_expr("3")


def test_rational_coefficient():
    assert parse_expr("3/2*x") == [(Fraction(3, 2), "x")]
    assert parse_expr("-1*x") == [(Fraction(-1), "x")]


def test_bracket_and_nesting():
    assert parse_expr("[x,y]") == [(Fraction(1), ("x", "y"))]
    assert parse_expr("[[x,y],z]") == [(Fraction(1), (("x", "y"), "z"))]


def test_sums_and_cancellation():
    assert parse_expr("x + y - x") == [(Fraction(1), "y")]
    assert parse_expr("[x,y] - [x,y]") == []


def test_bilinear_expansion_inside_brackets():
    terms = parse_expr("[x + 2*y, z]")
    assert sorted(terms, key=lambda t: format_tree(t[1])) == [
        (Fraction(1), ("x", "z")),
        (Fraction(2), ("y", "z")),
    ]


def test_whitespace_insignificant():
    assert parse_expr("[ x , [ y , z ] ]") == parse_expr("[x,[y,z]]")


def test_error_position():
    with pytest.raises(ParseError) as exc:
        parse_expr("[x,")
    assert exc.value.line == 1
    assert exc.value.col == 4


def test_denominator_must_be_positive():
    with pytest.raises(ParseError):
        parse_expr("1/0*x")


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_expr("x )")


def test_format_round_trip():
    samples = ["x", "[x,y]", "3/2*[x,[y,z]] - w", "-1*[x,y] + 2*z", "0"]
    for text in samples:
        terms = parse_expr(text)
        printed = format_terms(terms)
        assert parse_expr(printed) == terms


def test_format_canonical_shapes():
    assert format_terms([]) == "0"
    assert format_terms([(Fraction(1), ("x", "y"))]) == "[x,y]"
    assert format_terms([(Fraction(-1), "x")]) == "-1*x"
    assert format_terms([(Fraction(1), "x"), (Fraction(-3, 2), "y")]) == "x - 3/2*y"


# -- the one tree walker, through its three callers -----------------------------


def test_eval_tree_memoizes_brackets_only():
    calls = []

    def leaf(name):
        calls.append(name)
        return name

    def bracket(a, b):
        calls.append("[]")
        return f"({a} {b})"

    memo = {}
    tree = (("x", "y"), ("x", "y"))
    assert eval_tree(tree, leaf, bracket, memo) == "((x y) (x y))"
    assert calls == ["x", "y", "[]", "[]"]
    assert memo == {("x", "y"): "(x y)", tree: "((x y) (x y))"}
    assert eval_tree("x", leaf, bracket, memo) == "x"


def _rand_trees(rng, leaves, count, max_letters=6):
    """Random trees over `leaves` built from a growing pool, so that later
    trees share subtrees with earlier ones."""
    pool = list(leaves)
    trees = []
    while len(trees) < count:
        tree = rng.choice(pool)
        for _ in range(rng.randrange(1, 4)):
            other = rng.choice(pool)
            tree = (tree, other) if rng.random() < 0.5 else (other, tree)
        if tree_word_length(tree) <= max_letters:
            pool.append(tree)
            trees.append(tree)
    return trees


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DglaError as e:
        return type(e), str(e)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_embed_tree_matches_the_direct_recursion(seed):
    rng = random.Random(seed)
    degrees = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 4))]
    alg = FreeGLA([GradedGenerator(f"g{i}", d) for i, d in enumerate(degrees)])
    for tree in _rand_trees(rng, alg.names(), 8):
        assert alg.embed_tree(tree) == reference_embed_tree(alg, tree)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_morphism_eval_tree_matches_the_direct_recursion(seed):
    rng = random.Random(seed)
    source = rand_quasifree(rng, max_gens=3, max_degree=2, prefix="s")
    if rng.random() < 0.5:
        target = rand_conjugated_findim(rng, top=rng.randrange(2, 5))
    else:
        target = rand_quasifree(rng, max_gens=2, max_degree=2)
    # a Lie map needs no chain condition: random images of the right degrees
    images = {
        g.name: Element(g.degree, tuple(rand_coeff(rng) for _ in range(target.dim(g.degree))))
        for g in source.generators
    }
    f = DGLAMorphism(source, target, images)
    names = [g.name for g in source.generators]
    for tree in _rand_trees(rng, names, 8, max_letters=4):
        assert _outcome(f.eval_tree, tree) == _outcome(reference_morphism_eval_tree, f, tree)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_findim_eval_terms_matches_the_direct_recursion(seed):
    rng = random.Random(seed)
    a = rand_conjugated_findim(rng, top=rng.randrange(2, 5), max_degree=rng.choice([None, 4]))
    atoms = [f"e_{k}_{i}" for k, n in sorted(a.dims.items()) for i in range(n)]
    trees = _rand_trees(rng, atoms, 8, max_letters=4)
    values = {}
    for tree in trees:
        expected = _outcome(reference_findim_eval_tree, a, tree)
        assert _outcome(a.eval_terms, [(Fraction(1), tree)]) == expected
        if not isinstance(expected[0], type):
            values[tree] = expected
    # a sum of terms of one degree, sharing subtrees
    if values:
        degree = next(iter(values.values())).degree
        terms = [
            (Fraction(rng.randrange(-3, 4), 2), tree)
            for tree, value in values.items()
            if value.degree == degree
        ]
        total = [Fraction(0)] * a.dim(degree)
        for c, tree in terms:
            total = [x + c * y for x, y in zip(total, values[tree].coords)]
        assert a.eval_terms(terms, degree).coords == tuple(total)
