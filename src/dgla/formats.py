"""Canonical file formats: JSON documents with bracket-expression payloads.

One serialization, bit-exact: `canonical_json` fixes key order, indentation
and a trailing newline, all rationals are strings in lowest terms, and every
Lie element prints through its normalized coordinates, so dump(load(dump(x)))
equals dump(x) byte for byte.

Document kinds:

* ``dgla``            quasi-free algebra: generators + differential exprs
* ``findim_dgla``     dims per degree, bracket structure constants, d matrices
* ``dgla_morphism``   source/target (inline doc or path) + generator images;
                      an embedded source or target is validated; read
                      only, since no command writes a morphism
* ``relative_model``  dgla fields + base, stages, structureMap
* ``endo``            generator images over a separately supplied model

Every element field (an image of a morphism, an endo or a structure map)
and every structure constant in the canonical form `format_terms` writes,
"0" or "c*m + c*m - m" with ASCII digits, is read by one reader: a regex
checks the form, and a per-degree table from monomial text to basis index
(`FreeGLA.monomial_index`, or the atom names e_k_i of a finite-dimensional
algebra) gives int numerators over one denominator, with no tree built and
no Fraction parsed.  Any other text goes through the general bracket
parser, which raises every error.  Differentials keep the parser, because
they are read before their algebra is validated.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .dg import (
    DGLAMorphism, Element, FiniteDimDGLA, QuasiFreeDGLA, _atom_name, _read_atom_name, require_valid
)
from .errors import (
    FormatError,
    MixedDegrees,
    NotFiltered,
    ParseError,
    TargetNotFiniteType,
    UnknownGenerator,
)
from .exprs import format_written_terms, parse_expr
from .freelie import GradedGenerator, LiePoly
from .invert import FilteredEndo
from .linalg import Matrix, _clear_denominators, dense_vector, frac
from .minimal import RelativeModel, Stage


def canonical_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_document(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        error = ParseError(f"not UTF-8 text ({e.reason} at byte {e.start})")
    except json.JSONDecodeError as e:
        error = ParseError(e.msg, e.lineno, e.colno)
    except RecursionError:
        error = ParseError("JSON nested too deeply")
    else:
        if isinstance(doc, dict):
            return doc
        error = FormatError("expected a JSON object at top level")
    raise error.within(str(path))


def _parse_field_expr(text, *where: str):
    if not isinstance(text, str):
        raise FormatError("expected a bracket-expression string").within(*where)
    try:
        return parse_expr(text)
    except ParseError as e:
        raise e.within(*where) from None
    except RecursionError:
        raise ParseError("expression nested too deeply").within(*where) from None


def _is_int(value) -> bool:
    """A JSON integer; JSON booleans load as Python ints and are refused."""
    return isinstance(value, int) and not isinstance(value, bool)


def _degree_key(key: str, *where: str) -> int:
    """A degree key in its one canonical spelling, as `str(k)` writes it, so
    that no two keys of a mapping name the same degree."""
    try:
        k = int(key)
    except ValueError:
        k = None
    if k is None or str(k) != key:
        raise FormatError(f"bad degree key {key!r}").within(*where)
    return k


_RATIO = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _rational(value, *where: str) -> Fraction:
    """A JSON integer or a rational string such as "3/2".  Integers and
    canonical "a" or "a/b" strings are read by `int`, not by the regex of
    Fraction(str)."""
    if _is_int(value):
        return Fraction(value)
    if isinstance(value, str):
        try:
            if _RATIO.fullmatch(value):
                num, _, den = value.partition("/")
                return Fraction(int(num), int(den)) if den else Fraction(int(num))
            return frac(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise FormatError(f"expected a rational number, got {json.dumps(value)}").within(*where)


def _eval_field(algebra, text, degree: int, *where: str):
    """One expression field as an element of `algebra` in degree `degree`:
    canonical text by `_read_canonical`, any other by the general parser."""
    if isinstance(algebra, QuasiFreeDGLA):
        index = lambda monos: algebra.algebra.monomial_index(degree, monos)
    else:
        index = lambda monos: _atom_table(degree, algebra.dims.get(degree, 0))
    try:
        value = _read_canonical(text, index)
        if value is None:
            terms = _parse_field_expr(text, *where)
            return algebra.eval_terms(terms, expected_degree=degree)
        nums, den = value
        coords = {i: Fraction(v, den) for i, v in nums.items()}
        return Element(degree, dense_vector(coords, algebra.dim(degree)))
    except (MixedDegrees, UnknownGenerator, TargetNotFiniteType) as e:
        raise e.within(*where) from None


# The canonical text of an element, as `format_terms` writes it: "0", or
# "c*m + c*m - m ...", m the text of a monomial and c an INT or INT/POSINT
# in ASCII digits, "-" only in the first coefficient.
_COEFF = r"[0-9]+(?:/[0-9]+)?\*"
_MONO = r"[\w\[\],]+"
_CANONICAL = re.compile(rf"(?:-?{_COEFF})?{_MONO}(?: [+-] (?:{_COEFF})?{_MONO})*")
_CANONICAL_TERM = re.compile(rf"(?:^| ([+-]) )(?:(-?[0-9]+)(?:/([0-9]+))?\*)?({_MONO})")


def _read_canonical(text, index):
    """(nums, den) of an element in canonical text, or None.

    The coordinates are nums[i] / den, with den the lcm of the written
    denominators and nums the nonzero int numerators by basis index; terms
    of one monomial add up.  `index(monos)` gives the table from monomial
    text to basis index for the written monomials, or None.  None leaves
    the text to the general parser: it is not in the canonical form, has a
    zero denominator or an integer that `int` refuses, or a monomial that
    has no table or is not in it, even one whose coefficients cancel.
    """
    if text == "0":
        return {}, 1
    if not isinstance(text, str) or not _CANONICAL.fullmatch(text):
        return None
    try:
        terms = [
            (mono, -int(num or 1) if op == "-" else int(num or 1), int(den or 1))
            for op, num, den, mono in _CANONICAL_TERM.findall(text)
        ]
    except ValueError:
        return None
    # lcm is 0 when a denominator is
    scale = math.lcm(*(den for _, _, den in terms))
    if not scale:
        return None
    table = index([mono for mono, _, _ in terms])
    if table is None:
        return None
    nums: dict[int, int] = {}
    for mono, num, den in terms:
        i = table.get(mono)
        if i is None:
            return None
        nums[i] = nums.get(i, 0) + num * (scale // den)
    return {i: v for i, v in nums.items() if v}, scale


@lru_cache(maxsize=32)
def _atom_table(k: int, dim: int) -> dict[str, int]:
    """The table of the atoms e_k_i, i < dim, of a finite-dimensional algebra."""
    return {_atom_name(k, i): i for i in range(dim)}


# -- dg Lie algebras ---------------------------------------------------------


def dgla_from_doc(doc: dict, *where: str):
    """The algebra of a dgla or findim_dgla document; its errors are put
    at `where`, the file and the field it was read from."""
    if not isinstance(doc, dict):
        raise FormatError("expected a dgla or findim_dgla object").within(*where)
    kind = doc.get("kind")
    if kind == "dgla":
        return _quasifree_from_doc(doc, *where)
    if kind == "findim_dgla":
        return _findim_from_doc(doc, *where)
    raise FormatError(f"unknown document kind {kind!r}").within(*where)


def _quasifree_from_doc(doc: dict, *where: str) -> QuasiFreeDGLA:
    raw_gens = doc.get("generators")
    if not isinstance(raw_gens, list):
        raise FormatError("missing generator list").within(*where)
    gens = []
    for i, entry in enumerate(raw_gens):
        if not isinstance(entry, dict) or "name" not in entry or "degree" not in entry:
            raise FormatError("generator entries need name and degree").within(*where)
        name, degree = entry["name"], entry["degree"]
        if not isinstance(name, str):
            raise FormatError(f"expected a string, got {json.dumps(name)}").within(
                *where, f"generators[{i}].name"
            )
        if not _is_int(degree):
            raise FormatError(f"expected an integer, got {json.dumps(degree)}").within(
                *where, f"generators[{i}].degree"
            )
        gens.append(GradedGenerator(name, degree))
    differential = {}
    raw_diff = doc.get("differential", {})
    if not isinstance(raw_diff, dict):
        raise FormatError("differential must be a mapping").within(*where)
    for name in sorted(raw_diff):
        terms = _parse_field_expr(raw_diff[name], *where, f"differential[{name}]")
        differential[name] = LiePoly(terms)
    return QuasiFreeDGLA(gens, differential)


def _findim_from_doc(doc: dict, *where: str) -> FiniteDimDGLA:
    raw_dims = doc.get("dims")
    if not isinstance(raw_dims, dict):
        raise FormatError("missing dims mapping").within(*where)
    dims = {}
    for key, value in raw_dims.items():
        k = _degree_key(key, *where, "dims")
        if not _is_int(value) or value < 0:
            raise FormatError(f"bad dimension for degree {key}").within(*where)
        if value:
            dims[k] = value
    brackets = {}
    raw_brackets = doc.get("brackets", [])
    if not isinstance(raw_brackets, list):
        raise FormatError("brackets must be an array").within(*where)
    for n, entry in enumerate(raw_brackets):
        at = f"brackets[{n}]"
        if not isinstance(entry, dict) or not {"left", "right", "value"} <= set(entry):
            raise FormatError("bracket entries need left/right/value").within(*where, at)
        p, i = _atom_indices(entry["left"], *where, f"{at}.left")
        q, j = _atom_indices(entry["right"], *where, f"{at}.right")
        value = _linear_value(entry["value"], p + q, dims.get(p + q, 0), *where, f"{at}.value")
        key = (p, q, i, j)
        if key in brackets:
            raise FormatError(
                f"duplicate bracket entry for ({entry['left']}, {entry['right']})"
            ).within(*where, at)
        brackets[key] = value
    d_mats = {}
    raw_d = doc.get("differential", {})
    if not isinstance(raw_d, dict):
        raise FormatError("differential must be a mapping").within(*where)
    degrees = {key: _degree_key(key, *where, "differential") for key in raw_d}
    for key in sorted(raw_d, key=degrees.__getitem__):
        k = degrees[key]
        field = f"differential[{key}]"
        rows = raw_d[key]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise FormatError(f"{field} must be an array of rows").within(*where)
        expected = (dims.get(k - 1, 0), dims.get(k, 0))
        entries = [[_rational(e, *where, field) for e in row] for row in rows]
        if any(len(row) != len(entries[0]) for row in entries):
            raise FormatError(f"{field} has rows of different lengths").within(*where)
        shape = (len(entries), len(entries[0])) if entries else expected
        if shape != expected:
            raise FormatError(f"{field} has shape {shape}, expected {expected}").within(*where)
        columns = [
            {r: row[j] for r, row in enumerate(entries) if row[j]} for j in range(shape[1])
        ]
        d_mats[k] = Matrix._of_columns(columns, shape[0])
    max_degree = doc.get("maxDegree")
    if max_degree is not None and not _is_int(max_degree):
        raise FormatError("maxDegree must be an integer").within(*where)
    return FiniteDimDGLA.of_integer_brackets(dims, brackets, d_mats, max_degree)


def _atom_indices(name, *where: str) -> tuple[int, int]:
    indices = _read_atom_name(name)
    if indices is None:
        raise FormatError(
            f"expected a basis vector name e_<deg>_<i>, got {name!r}"
        ).within(*where)
    return indices


def _linear_value(text, degree: int, dim: int, *where: str):
    """A structure constant in degree `degree` as (nums, den): its
    coordinates are nums[t] / den, nums the nonzero int numerators.

    Values in the canonical form take `_read_canonical`; everything else,
    and every error, goes through the general bracket parser.
    """
    value = _read_canonical(text, lambda monos: _atom_table(degree, dim))
    if value is not None:
        return value
    terms = _parse_field_expr(text, *where)
    coords: dict[int, Fraction] = {}
    for coeff, tree in terms:
        if not isinstance(tree, str):
            raise FormatError("structure-constant values must be linear").within(*where)
        k, i = _atom_indices(tree, *where)
        if k != degree or not 0 <= i < dim:
            raise FormatError(
                f"{tree} does not live in degree {degree} (dimension {dim})"
            ).within(*where)
        coords[i] = coords.get(i, 0) + coeff
    return _clear_denominators({i: c for i, c in coords.items() if c})


def _ratio_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, without building the Fraction."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def dgla_to_doc(algebra) -> dict:
    if isinstance(algebra, QuasiFreeDGLA):
        diff = {}
        for name in sorted(algebra.differential):
            poly = algebra.differential[name]
            el = algebra.element(poly)
            if el.is_zero():
                continue  # keep dump(load(dump(x))) byte-stable
            diff[name] = algebra.element_expr(el)
        return {
            "kind": "dgla",
            "generators": [
                {"name": g.name, "degree": g.degree} for g in algebra.generators
            ],
            "differential": diff,
        }
    if isinstance(algebra, FiniteDimDGLA):
        entries = []
        scale, cells = algebra.bracket_cells()
        for (p, q, i, j) in sorted(cells):
            if p > q or (p == q and i > j):
                continue
            cell = cells[(p, q, i, j)]
            if not cell:
                continue
            value = format_written_terms(
                (_ratio_text(v, scale), _atom_name(p + q, t)) for t, v in cell
            )
            entries.append(
                {"left": _atom_name(p, i), "right": _atom_name(q, j), "value": value}
            )
        diff = {}
        for k in sorted(algebra.d_mats):
            mat = algebra.d_mats[k]
            if mat.is_zero():
                continue
            diff[str(k)] = [[str(e) for e in row] for row in mat.data]
        doc = {
            "kind": "findim_dgla",
            "dims": {str(k): n for k, n in sorted(algebra.dims.items())},
            "brackets": entries,
            "differential": diff,
        }
        if algebra.max_degree is not None:
            doc["maxDegree"] = algebra.max_degree
        return doc
    raise TypeError(f"not a dg Lie algebra: {type(algebra).__name__}")


# -- morphisms ----------------------------------------------------------------


def _resolve_algebra(ref, base_dir: Path | None, *where: str):
    """The validated algebra of a source or target field: a path or a document."""
    if isinstance(ref, str):
        path = Path(ref)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        try:
            ref = load_document(path)
        except (OSError, ValueError) as e:
            # ValueError: a path with a NUL character cannot be opened
            raise FormatError(str(e)).within(*where) from None
        except (FormatError, ParseError) as e:
            raise e.within(*where) from None
        where = (str(path),)
    elif not isinstance(ref, dict):
        raise FormatError("expected a path or an inline document").within(*where)
    algebra = dgla_from_doc(ref, *where)
    try:
        require_valid(algebra, *where)
    except TargetNotFiniteType as e:
        raise e.within(*where, "maxDegree") from None
    return algebra


def _images_from_doc(raw_images, source, target, *where: str) -> dict[str, Element]:
    """The images a document gives to generators of source, in target."""
    if not isinstance(raw_images, dict):
        raise FormatError("images must be a mapping").within(*where)
    images = {}
    names = {g.name: g.degree for g in source.generators}
    for name in sorted(raw_images):
        if name not in names:
            raise FormatError(f"image for unknown generator {name!r}").within(*where)
        images[name] = _eval_field(
            target, raw_images[name], names[name], *where, f"images[{name}]"
        )
    return images


def morphism_images_from_doc(raw_images: dict, source, target, *where: str) -> dict[str, Element]:
    """The images of a morphism document; a generator it leaves out goes to 0."""
    images = _images_from_doc(raw_images, source, target, *where)
    for g in source.generators:
        if g.name not in images:
            images[g.name] = target.zero(g.degree)
    return images


def morphism_from_doc(
    doc: dict,
    base_dir: Path | None = None,
    source=None,
    target=None,
    context: str = "morphism",
) -> DGLAMorphism:
    if doc.get("kind") not in (None, "dgla_morphism"):
        raise FormatError("expected a dgla_morphism document").within(context)
    given = {"source": source, "target": target}
    for end, supplied in given.items():
        if end in doc:
            embedded = _resolve_algebra(doc[end], base_dir, context, end)
            if supplied is None:
                given[end] = embedded
            elif canonical_json(dgla_to_doc(embedded)) != canonical_json(dgla_to_doc(supplied)):
                message = f"embedded {end} disagrees with the supplied one"
                raise FormatError(message).within(context)
        elif supplied is None:
            raise FormatError(f"no {end} given").within(context)
    source, target = given.values()
    images = morphism_images_from_doc(doc.get("images", {}), source, target, context)
    return DGLAMorphism(source, target, images)


# -- relative models -----------------------------------------------------------


def model_to_doc(model: RelativeModel) -> dict:
    algebra_doc = dgla_to_doc(model.dgla)
    return {
        "kind": "relative_model",
        "generators": algebra_doc["generators"],
        "differential": algebra_doc["differential"],
        "base": list(model.base_names),
        "stages": [{"A": list(s.A), "B": list(s.B)} for s in model.stages],
        "structureMap": {
            "target": dgla_to_doc(model.target),
            "images": {
                g.name: model.target.element_expr(model.q.images[g.name])
                for g in model.dgla.generators
            },
        },
    }


def model_from_doc(doc: dict, context: str = "model") -> RelativeModel:
    """The model of a relative_model document, with both algebras validated."""
    if doc.get("kind") != "relative_model":
        raise FormatError("expected a relative_model document").within(context)
    dgla = _quasifree_from_doc(doc, context)
    base = doc.get("base")
    if not isinstance(base, list) or not all(isinstance(n, str) for n in base):
        raise FormatError("base must be a list of generator names").within(context)
    raw_stages = doc.get("stages")
    if not isinstance(raw_stages, list):
        raise FormatError("missing stages list").within(context)
    stages = []
    for i, entry in enumerate(raw_stages):
        if not isinstance(entry, dict):
            raise FormatError("stage entries must be objects").within(context)
        parts = []
        for part in ("A", "B"):
            raw = entry.get(part, [])
            if not isinstance(raw, list) or not all(isinstance(n, str) for n in raw):
                raise FormatError("must be a list of generator names").within(
                    context, f"stages[{i}].{part}"
                )
            parts.append(tuple(raw))
        stages.append(Stage(*parts))
    smap = doc.get("structureMap")
    if not isinstance(smap, dict) or "target" not in smap:
        raise FormatError("missing structureMap with target").within(context)
    target = dgla_from_doc(smap["target"], context, "structureMap.target")
    raw_images = smap.get("images", {})
    try:
        # the images are evaluated in the target, which builds its algebra,
        # so a bad target is refused first
        require_valid(target, context, "structureMap.target")
        images = morphism_images_from_doc(raw_images, dgla, target, context, "structureMap")
    except TargetNotFiniteType as e:
        # from validating the target, or the zero image of a generator left
        # out; one from a written image has its place already
        if not e.where:
            e.within(context, "structureMap.target", "maxDegree")
        raise
    q = DGLAMorphism(dgla, target, images)
    try:
        model = RelativeModel(dgla, tuple(base), tuple(stages), q)
    except FormatError as e:
        raise e.within(context, "base/stages") from None
    # checked last, so a fault in the base or stages is named first
    require_valid(dgla, context)
    return model


# -- endomorphisms --------------------------------------------------------------


def endo_from_doc(doc: dict, model: RelativeModel, context: str = "endo") -> FilteredEndo:
    if doc.get("kind") != "endo":
        raise FormatError("expected an endo document").within(context)
    # a generator the document leaves out is fixed, by FilteredEndo
    images = _images_from_doc(doc.get("images", {}), model.dgla, model.dgla, context)
    try:
        return FilteredEndo(model, images)
    except NotFiltered as e:
        raise e.within(context, "images") from None


def endo_to_doc(endo: FilteredEndo) -> dict:
    return {
        "kind": "endo",
        "images": {
            g.name: endo.model.dgla.element_expr(endo.image(g.name))
            for g in endo.model.dgla.generators
        },
    }
