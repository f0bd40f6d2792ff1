import contextlib
import functools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgla.dg import DGLAMorphism, Element, FiniteDimDGLA, QuasiFreeDGLA, validate
from dgla.errors import (
    FormatError,
    MixedDegrees,
    ParseError,
    TargetNotFiniteType,
    UnknownGenerator,
)
from dgla.exprs import format_terms, format_tree, format_written_terms, parse_expr
from dgla.formats import (
    _atom_table,
    _eval_field,
    _linear_value,
    _parse_field_expr,
    _rational,
    _read_canonical,
    canonical_json,
    dgla_from_doc,
    dgla_to_doc,
    endo_from_doc,
    endo_to_doc,
    load_document,
    model_from_doc,
    model_to_doc,
    morphism_from_doc,
)
from dgla.minimal import build_minimal_model
from helpers import rand_conjugated_findim, rand_findim, rand_minimal_model, rand_quasifree


SPHERE = {
    "kind": "dgla",
    "generators": [{"name": "x", "degree": 1}],
    "differential": {},
}

CONE = {
    "kind": "dgla",
    "generators": [{"name": "x", "degree": 1}, {"name": "y", "degree": 2}],
    "differential": {"y": "x"},
}

FINDIM = {
    "kind": "findim_dgla",
    "dims": {"1": 1, "2": 1},
    "brackets": [{"left": "e_1_0", "right": "e_1_0", "value": "e_2_0"}],
    "differential": {},
}


def test_quasifree_round_trip():
    algebra = dgla_from_doc(CONE)
    assert isinstance(algebra, QuasiFreeDGLA)
    assert validate(algebra).ok
    doc = dgla_to_doc(algebra)
    again = dgla_to_doc(dgla_from_doc(doc))
    assert canonical_json(doc) == canonical_json(again)


def test_findim_round_trip():
    algebra = dgla_from_doc(FINDIM)
    assert isinstance(algebra, FiniteDimDGLA)
    assert validate(algebra).ok
    doc = dgla_to_doc(algebra)
    again = dgla_to_doc(dgla_from_doc(doc))
    assert canonical_json(doc) == canonical_json(again)


def test_differential_prints_normalized():
    doc = {
        "kind": "dgla",
        "generators": [{"name": "x", "degree": 1}, {"name": "y", "degree": 3}],
        "differential": {"y": "[x,x] + 0*x + [x,x]"},
    }
    algebra = dgla_from_doc(doc)
    out = dgla_to_doc(algebra)
    assert out["differential"]["y"] == "2*[x,x]"


def test_unknown_kind_rejected():
    with pytest.raises(FormatError):
        dgla_from_doc({"kind": "mystery"})


def test_model_target_must_be_an_object():
    doc = model_to_doc(build_minimal_model(morphism_from_doc(
        {"source": SPHERE, "target": CONE, "images": {"x": "x"}}
    ), 2))
    doc["structureMap"]["target"] = "cone.json"
    with pytest.raises(FormatError) as exc:
        model_from_doc(doc, context="m.json")
    assert str(exc.value).startswith("m.json: structureMap.target: expected")


def test_model_with_an_invalid_algebra_is_refused():
    # d(w) = y and d(y) = x, so d(d(w)) = x
    doc = {
        "kind": "relative_model",
        "generators": [
            {"name": "x", "degree": 1}, {"name": "y", "degree": 2}, {"name": "w", "degree": 3}
        ],
        "differential": {"w": "y", "y": "x"},
        "base": ["x", "y", "w"],
        "stages": [],
        "structureMap": {"target": SPHERE, "images": {}},
    }
    with pytest.raises(FormatError) as exc:
        model_from_doc(doc, context="m.json")
    assert str(exc.value) == "m.json: d^2 is nonzero on generator 'w'"


def _model_in_low_target(target_dims, images):
    return {
        "kind": "relative_model",
        "generators": [{"name": "x", "degree": 1}, {"name": "v", "degree": 3}],
        "differential": {},
        "base": ["x", "v"],
        "stages": [],
        "structureMap": {
            "target": {"kind": "findim_dgla", "dims": target_dims, "maxDegree": 2},
            "images": images,
        },
    }


@pytest.mark.parametrize(
    "target_dims, images, where",
    [
        # validating the target reaches degree 3 = 1 + 1 + 1
        ({"1": 1, "3": 1}, {"x": "e_1_0"}, ("m.json", "structureMap.target", "maxDegree")),
        # the zero image of v, which the document leaves out
        ({"1": 1}, {"x": "e_1_0"}, ("m.json", "structureMap.target", "maxDegree")),
        # a written image has its own place
        ({"1": 1}, {"x": "e_1_0", "v": "0"}, ("m.json", "structureMap", "images[v]")),
    ],
    ids=["validation", "left-out", "written"],
)
def test_model_target_above_max_degree_is_located(target_dims, images, where):
    with pytest.raises(TargetNotFiniteType) as exc:
        model_from_doc(_model_in_low_target(target_dims, images), context="m.json")
    assert exc.value.where == where
    assert str(exc.value).endswith(": degree 3 exceeds the declared maximum degree 2")


def test_expression_error_carries_position():
    doc = dict(CONE, differential={"y": "x +"})
    with pytest.raises(ParseError) as exc:
        dgla_from_doc(doc)
    assert "differential[y]" in str(exc.value)


@pytest.mark.parametrize(
    "changes, field",
    [
        ({"differential": {"2": [[1.5]]}}, "differential[2]: expected a rational number"),
        ({"differential": {"2": [[True]]}}, "differential[2]: expected a rational number"),
        ({"differential": {"2": [[1], []]}}, "differential[2] has rows of different lengths"),
        ({"differential": {"2": [[1, 0]]}}, "differential[2] has shape (1, 2)"),
        ({"differential": {"2": [1]}}, "differential[2] must be an array of rows"),
        ({"dims": {"1": True, "2": 1}}, "bad dimension for degree 1"),
        ({"maxDegree": True}, "maxDegree must be an integer"),
        ({"brackets": {}}, "brackets must be an array"),
    ],
    ids=["float", "bool", "ragged", "columns", "row-not-array", "bool-dim", "bool-max", "brackets"],
)
def test_findim_bad_fields_are_format_errors(changes, field):
    with pytest.raises(FormatError) as exc:
        dgla_from_doc(dict(FINDIM, **changes), "t.json")
    assert str(exc.value).startswith(f"t.json: {field}")


def test_load_document_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{ not json", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_document(p)
    assert exc.value.line == 1


def test_morphism_reads_inline_algebras():
    doc = {
        "kind": "dgla_morphism",
        "source": SPHERE,
        "target": CONE,
        "images": {"x": "x"},
    }
    f = morphism_from_doc(doc)
    assert f.is_chain_map()
    assert f.image("x") == f.target.atom("x")


def test_morphism_source_by_path(tmp_path):
    (tmp_path / "sphere.json").write_text(canonical_json(SPHERE), encoding="utf-8")
    (tmp_path / "cone.json").write_text(canonical_json(CONE), encoding="utf-8")
    doc = {
        "kind": "dgla_morphism",
        "source": "sphere.json",
        "target": "cone.json",
        "images": {"x": "x"},
    }
    f = morphism_from_doc(doc, base_dir=tmp_path)
    assert {g.name for g in f.source.generators} == {"x"}


def test_morphism_embedded_source_mismatch():
    supplied = dgla_from_doc(CONE)
    doc = {"kind": "dgla_morphism", "source": SPHERE, "target": CONE, "images": {}}
    with pytest.raises(FormatError):
        morphism_from_doc(doc, source=supplied)


def test_missing_morphism_images_default_to_zero():
    doc = {"kind": "dgla_morphism", "source": SPHERE, "target": CONE, "images": {}}
    f = morphism_from_doc(doc)
    assert f.images["x"].is_zero()


def test_model_round_trip_via_builder():
    base = dgla_from_doc(SPHERE)
    target = dgla_from_doc(
        {
            "kind": "dgla",
            "generators": [{"name": "x", "degree": 1}, {"name": "y", "degree": 1}],
            "differential": {},
        }
    )
    f = DGLAMorphism(base, target, {"x": target.atom("x")})
    model = build_minimal_model(f, 3)
    doc = model_to_doc(model)
    reloaded = model_from_doc(json.loads(canonical_json(doc)))
    assert canonical_json(model_to_doc(reloaded)) == canonical_json(doc)
    assert reloaded.base_names == ("x",)
    assert reloaded.stages[0].A == ("a_1_0",)


def test_model_layout_enforced():
    doc = {
        "kind": "relative_model",
        "generators": [
            {"name": "w", "degree": 2},
            {"name": "x", "degree": 1},
        ],
        "differential": {},
        "base": ["x"],
        "stages": [{"A": [], "B": []}, {"A": ["w"], "B": []}],
        "structureMap": {"target": SPHERE, "images": {"x": "x", "w": "0"}},
    }
    with pytest.raises(FormatError):
        model_from_doc(doc)


def test_endo_round_trip():
    doc = {
        "kind": "relative_model",
        "generators": [
            {"name": "x", "degree": 1},
            {"name": "w", "degree": 2},
        ],
        "differential": {},
        "base": ["x"],
        "stages": [{"A": [], "B": []}, {"A": ["w"], "B": []}],
        "structureMap": {
            "target": {
                "kind": "dgla",
                "generators": [
                    {"name": "x", "degree": 1},
                    {"name": "w", "degree": 2},
                ],
                "differential": {},
            },
            "images": {"x": "x", "w": "w"},
        },
    }
    model = model_from_doc(doc)
    endo = endo_from_doc(
        {"kind": "endo", "images": {"w": "w + [x,x]"}}, model
    )
    out = endo_to_doc(endo)
    assert out["images"]["w"] == "w + [x,x]"
    again = endo_to_doc(endo_from_doc(out, model))
    assert canonical_json(out) == canonical_json(again)


def test_endo_unknown_generator_rejected():
    model = model_from_doc(
        {
            "kind": "relative_model",
            "generators": [{"name": "x", "degree": 1}],
            "differential": {},
            "base": ["x"],
            "stages": [],
            "structureMap": {"target": SPHERE, "images": {"x": "x"}},
        }
    )
    with pytest.raises(FormatError):
        endo_from_doc({"kind": "endo", "images": {"nope": "x"}}, model)


def test_canonical_json_is_stable():
    doc = {"b": 1, "a": {"z": [1, 2], "y": "s"}}
    assert canonical_json(doc) == canonical_json(json.loads(canonical_json(doc)))
    assert canonical_json(doc).endswith("\n")


def test_cancelling_differential_round_trips_byte_stable():
    # [x,x] with |x| even normalizes to zero; the dump must omit it so that
    # dump(load(dump(a))) is byte-identical
    doc = {
        "kind": "dgla",
        "generators": [{"name": "x", "degree": 2}, {"name": "y", "degree": 3}],
        "differential": {"y": "[x,x]"},
    }
    algebra = dgla_from_doc(doc)
    first = canonical_json(dgla_to_doc(algebra))
    second = canonical_json(dgla_to_doc(dgla_from_doc(json.loads(first))))
    assert first == second
    assert '"y"' not in first.split('"differential"')[1].split("}")[0]


def _reference_rational(value, context):
    """`_rational` through Fraction(str) only, without the int path."""
    if (isinstance(value, int) and not isinstance(value, bool)) or isinstance(value, str):
        try:
            return Fraction(value.strip() if isinstance(value, str) else value)
        except (ValueError, ZeroDivisionError):
            pass
    raise FormatError(f"{context}: expected a rational number, got {json.dumps(value)}")


@pytest.mark.parametrize(
    "value",
    [3, -7, 0, "579/524", "-3/6", "007", "-0", "0/5", "1.5", " 3 ", "+3", "３", "3/-4",
     "1/0", "1" * 5000, "2/" + "3" * 5000, "", "-", "x", True, None, 2.5, ["1"]],
)
def test_rational_reads_as_the_fraction_parser(value):
    outcomes = []
    for read in (_rational, _reference_rational):
        try:
            got = read(value, "ctx")
            assert type(got) is Fraction
            outcomes.append(got)
        except FormatError as e:
            outcomes.append(str(e))
    assert outcomes[0] == outcomes[1]


def _reference_linear_value(text, degree, dim, context):
    """`_linear_value` through the general parser only, without a fast path."""
    if not isinstance(text, str):
        raise FormatError(f"{context}: expected a bracket-expression string")
    try:
        terms = parse_expr(text)
    except ParseError as e:
        raise ParseError(f"{context}: {e}") from None
    coords = [Fraction(0)] * dim
    for coeff, tree in terms:
        if not isinstance(tree, str):
            raise FormatError(f"{context}: structure-constant values must be linear")
        parts = tree.split("_")
        try:
            if len(parts) != 3 or parts[0] != "e":
                raise ValueError
            k, i = int(parts[1]), int(parts[2])
            if f"e_{k}_{i}" != tree:  # only the spelling dgla writes
                raise ValueError
        except ValueError:
            raise FormatError(
                f"{context}: expected a basis vector name e_<deg>_<i>, got {tree!r}"
            ) from None
        if k != degree or not 0 <= i < dim:
            raise FormatError(
                f"{context}: {tree} does not live in degree {degree} (dimension {dim})"
            )
        coords[i] += coeff
    return tuple(coords)


def _linear_outcome(fn, text, degree, dim):
    try:
        coords = fn(text, degree, dim, "ctx")
    except (FormatError, ParseError) as e:
        return type(e).__name__, str(e)
    assert all(type(c) is Fraction for c in coords)
    return coords


def _integer_linear_value(text, degree, dim, context):
    """`_linear_value` as a dense Fraction tuple, once its (nums, den) form
    is checked: int numerators, all nonzero, at indices below dim, over a
    positive int denominator."""
    nums, den = _linear_value(text, degree, dim, context)
    assert type(den) is int and den > 0
    assert all(type(v) is int and v and 0 <= t < dim for t, v in nums.items())
    return tuple(Fraction(nums.get(t, 0), den) for t in range(dim))


# Each piece is mostly one that the fast path accepts, so that one odd
# piece among canonical ones is common.
_NUMBER = st.lists(
    st.sampled_from(["1", "2", "3", "12"] * 4 + ["0", "007", "１", "٣", "²", "9" * 4300]),
    min_size=1,
    max_size=2,
).map("".join)
_INDEX = st.sampled_from(["0", "1", "2"] * 4 + ["3", "01", "-1", "１"])
_DEGREE = st.sampled_from(["2"] * 12 + ["3", "02", "２"])
_ATOM = st.builds(lambda k, i: f"e_{k}_{i}", _DEGREE, _INDEX)
_COEFF = st.just("") | st.builds(
    lambda sign, num, den: f"{sign}{num}{den}*",
    st.sampled_from(["", "", "", "-", "+"]),
    _NUMBER,
    st.just("") | _NUMBER.map("/".__add__),
)
_TERM = st.builds(str.__add__, _COEFF, _ATOM)
_SEPARATOR = st.sampled_from([" + ", " - "] * 4 + ["+", " -", "- ", "  + ", " + -", "\n- "])


@st.composite
def _odd_linear_text(draw):
    terms = draw(st.lists(_TERM, min_size=1, max_size=4))
    text = terms[0]
    for term in terms[1:]:
        text += draw(_SEPARATOR) + term
    return draw(st.sampled_from(["", "", "", "", " ", "+"])) + text + draw(
        st.sampled_from(["", "", "", "", " ", "\n"])
    )


_CANONICAL_TEXT = st.lists(
    st.tuples(
        st.fractions(max_denominator=12).filter(lambda c: abs(c) < 100),
        st.integers(0, 3),
    ),
    max_size=4,
).map(lambda terms: format_terms([(c, f"e_2_{i}") for c, i in terms]))

_LINEAR_TEXT = _CANONICAL_TEXT | _odd_linear_text() | st.sampled_from(
    [None, 2, 1.5, ["e_2_0"], "0", "-e_2_0", "1/0*e_2_0", "e_2_0 - e_2_0", "e_5_0 - e_5_0"]
    + ["[e_1_0,e_1_1]", "e_2_0 + 2*[e_1_0,e_1_1]", "x", "e_2", "f_2_0"]
)


@settings(max_examples=400, deadline=None)
@given(
    text=_LINEAR_TEXT,
    degree=st.sampled_from([2] * 4 + [3]),
    dim=st.sampled_from([3] * 4 + [0, 1, 2]),
)
@example(text="-1*e_2_0 + 3/4*e_2_1 - e_2_1 + 0*e_2_0", degree=2, dim=2)
@example(text=f"{'1' * 5000}*e_2_0", degree=2, dim=1)
@example(text="2/00*e_2_0", degree=2, dim=1)
def test_linear_value_matches_the_general_parser(text, degree, dim):
    expected = _linear_outcome(_reference_linear_value, text, degree, dim)
    assert _linear_outcome(_integer_linear_value, text, degree, dim) == expected


def _respelled(value: str, general: bool) -> str:
    """The same structure constant in another spelling.  With `general`,
    the terms go unspaced, which only the general parser reads; without
    it, each term is split in two halves written out of lowest terms, which
    the canonical grammar still matches."""
    terms = parse_expr(value)
    if general:
        return format_terms(terms).replace(" ", "")
    pieces = []
    for coeff, atom in terms:
        half = coeff / 2
        sign = "-" if half < 0 else "+"
        text = f"{3 * abs(half.numerator)}/{3 * half.denominator}*{atom}"
        pieces += [(sign, text)] * 2
    first_sign, first = pieces[0]
    head = ("-" if first_sign == "-" else "") + first
    return head + "".join(f" {sign} {text}" for sign, text in pieces[1:])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("general", [False, True], ids=["canonical-grammar", "general-parser"])
def test_respelled_structure_constants_give_the_same_algebra(seed, general):
    algebra = rand_conjugated_findim(random.Random(seed), (1, 1, 2), 4, {2: 1, 3: 1})
    doc = dgla_to_doc(algebra)
    respelled = dict(doc, brackets=[dict(e, value=_respelled(e["value"], general)) for e in doc["brackets"]])
    fast = []
    for entry in respelled["brackets"]:
        k = sum(int(entry[side].split("_")[1]) for side in ("left", "right"))
        table = _atom_table(k, algebra.dims[k])
        fast.append(_read_canonical(entry["value"], lambda monos: table) is not None)
    # unspaced values of one term are still canonical
    assert not all(fast) if general else all(fast)
    read = dgla_from_doc(respelled)
    assert validate(read).ok
    assert canonical_json(dgla_to_doc(read)) == canonical_json(doc)
    for p in algebra.dims:
        for q in algebra.dims:
            for i in range(algebra.dims[p]):
                for j in range(algebra.dims[q]):
                    x, y = algebra.atom(f"e_{p}_{i}"), algebra.atom(f"e_{q}_{j}")
                    assert read.bracket(x, y) == algebra.bracket(x, y)


def _reference_eval_field(algebra, text, degree, context):
    """`_eval_field` through the general parser only, without the reader."""
    terms = _parse_field_expr(text, context)
    try:
        return algebra.eval_terms(terms, expected_degree=degree)
    except (MixedDegrees, UnknownGenerator, TargetNotFiniteType) as e:
        raise type(e)(f"{context}: {e}") from None


@functools.cache
def _reader_algebras() -> tuple:
    """Documents of quasi-free algebras with odd and even generators, some
    the dgla of a minimal model; and of finite-dimensional algebras, one
    with a piece above its maximum degree."""
    docs = [dgla_to_doc(rand_quasifree(random.Random(s), max_gens=4)) for s in range(4)]
    docs += [dgla_to_doc(rand_minimal_model(random.Random(s), 3)[0].dgla) for s in range(3)]
    docs += [
        dgla_to_doc(rand_conjugated_findim(random.Random(s), (1, 1, 2), 4, {2: 1}, top))
        for s, top in ((0, None), (1, 3))
    ]
    docs.append(dgla_to_doc(rand_findim(random.Random(5))))
    return tuple(docs)


def _monomial_texts(algebra, k: int) -> list[str]:
    if isinstance(algebra, QuasiFreeDGLA):
        return [format_tree(m) for m in algebra.algebra.degree_basis(k).monomials]
    return [f"e_{k}_{i}" for i in range(algebra.dims.get(k, 0))]


def _other_trees(algebra):
    """Trees of any degree, most of them no basis monomial: [y,x],
    right-normed [x,[y,z]], [x,x] in even degree, unknown names."""
    if isinstance(algebra, QuasiFreeDGLA):
        leaves = [g.name for g in algebra.generators]
    else:
        leaves = [f"e_{k}_{i}" for k, n in algebra.dims.items() for i in range(n)]
    leaf = st.sampled_from(leaves + ["u", "e_9_9", "e_1_01", "zz"])
    return st.recursive(
        leaf, lambda t: st.builds("[{},{}]".format, t, t), max_leaves=3
    )


_FIELD_COORD = st.sampled_from([0] * 6 + [1, -1, 2, Fraction(3, 2), Fraction(-5, 7)])
_ODD_COEFF = st.sampled_from(
    ["1", "-1", "2", "3/2", "0", "-0", "2/4", "1" * 5000, "１", "2/３", "1/0", "007"]
)
_SPACINGS = [("+", " + "), ("-", " - "), ("  + ", " + "), ("\n- ", " - "), (" +-", " + ")]


@st.composite
def _element_field(draw):
    """(document, text, degree): an element of a drawn algebra, written by
    `element_expr`, and then perhaps respelled, extended or broken."""
    doc = draw(st.sampled_from(_reader_algebras()))
    algebra = dgla_from_doc(doc)
    degree = draw(st.integers(1, 4))
    monos = _monomial_texts(algebra, degree)
    coords = draw(st.lists(_FIELD_COORD, min_size=len(monos), max_size=len(monos)))
    text = algebra.element_expr(Element(degree, tuple(Fraction(c) for c in coords)))
    pairs = [(str(Fraction(c)), m) for c, m in zip(coords, monos) if c]
    trees = _other_trees(algebra)
    if degree > 1:
        trees |= st.sampled_from(_monomial_texts(algebra, degree - 1) or ["u"])
    if monos:
        trees |= st.sampled_from(monos)
    for step in draw(st.lists(st.integers(0, 7), max_size=3)):
        if step == 0:  # reordered terms
            pairs = draw(st.permutations(pairs))
        elif step == 1 and pairs:  # one term split in two
            i = draw(st.integers(0, len(pairs) - 1))
            c, m = pairs[i]
            part = draw(_FIELD_COORD)
            with contextlib.suppress(ValueError, ZeroDivisionError):
                pairs[i:i + 1] = [(str(Fraction(part)), m), (str(Fraction(c) - part), m)]
        elif step == 2:  # a term and its negative, or a zero term
            m = draw(trees)
            c = draw(st.sampled_from(["1", "2/3", "0"]))
            pairs += [(c, m), ("-" + c, m)] if c != "0" else [("0", m)]
        elif step == 3:  # one more term, with any coefficient
            pairs.insert(draw(st.integers(0, len(pairs))), (draw(_ODD_COEFF), draw(trees)))
        if step <= 3:
            text = format_written_terms((c.replace("--", ""), m) for c, m in pairs)
        elif step == 4:  # spacing
            new, old = draw(st.sampled_from(_SPACINGS))
            text = text.replace(old, new, 1) if old in text else f" {text}\n"
        elif step == 5:  # a leading -m
            text = "-" + text[3:] if text.startswith("-1*") else f"-{draw(trees)} + {text}"
        elif step == 6:  # a full-width digit
            text = text.replace(draw(st.sampled_from("0123")), "０", 1)
        else:  # read at another degree
            degree = draw(st.sampled_from([degree - 1, degree + 1]))
    return doc, text, degree


def _field_outcome(read, doc, text, degree):
    """The element or error that `read` gives on a fresh copy of the
    algebra, and the degrees whose free-Lie basis it built."""
    algebra = dgla_from_doc(doc)
    try:
        el = read(algebra, text, degree, "ctx")
        assert all(type(c) is Fraction for c in el.coords)
    except Exception as e:
        el = (type(e).__name__, str(e))
    built = set(algebra.algebra._basis) if isinstance(algebra, QuasiFreeDGLA) else set()
    return el, built


@settings(max_examples=500, deadline=None)
@given(case=_element_field())
@example(case=(_reader_algebras()[0], "2 - 2", 1))
@example(case=(_reader_algebras()[0], "[x - [x", 1))
def test_canonical_reader_matches_the_general_parser(case):
    doc, text, degree = case
    expected, parser_built = _field_outcome(_reference_eval_field, doc, text, degree)
    outcome, reader_built = _field_outcome(_eval_field, doc, text, degree)
    assert outcome == expected
    # the reader builds no basis of a degree other than the one it reads
    assert reader_built - parser_built <= {degree}
