"""Differentials, morphisms and homology on top of the free-algebra layer.

Two kinds of dg Lie algebras are first class:

* quasi-free ones, where the differential is given on generators and
  extended by the graded Leibniz rule  d[a,b] = [da,b] + (-1)^{|a|}[a,db],
  applied as the degree -1 derivation of the tensor algebra with the same
  generator values (`FreeGLA.apply_derivation`);
* finite-dimensional ones, given by per-degree dimensions, bracket structure
  constants and differential matrices.

Both expose the same element model: an Element is (degree, coordinate
vector) in the canonical basis of that degree, and both know how to bracket
coordinates, so morphisms defined on generators of a quasi-free source can
be evaluated into either kind of target.  Both evaluations, and the
expression fields of a finite-dimensional algebra, run through the one tree
walker `exprs.eval_tree`.

Everything is computed over Q; a degree bound is always explicit in the
callers, never stored here.  Homology data is memoized single-assignment per
(algebra, degree).  It builds the cycles, the boundaries and the d^2 guard
at once, and `dim` reads only those; the quotient, which holds the
representatives sparse, is built on first read.

The boundaries B_k = d(L_{k+1}) are held as the RREF of a spanning set,
which is unique, so any spanning set gives the same rows.  A finite-
dimensional algebra spans them by the columns of d.  A quasi-free one never
builds degree k+1: left-normed brackets span a free Lie algebra (Reutenauer,
Free Lie Algebras, 1993), so L_{k+1} is spanned by its generators and by
the brackets [a, x] with x a generator and a a basis vector of degree
p = k+1-|x|.  Their images are the d(x) with |x| = k+1, the d[a, x] when
dx != 0, and, when dx = 0, d[a, x] = [da, x], which as a runs over the basis
spans [B_{p-1}, x]: the brackets of x with the RREF rows of the memoized
B_{p-1}.  Each row is cleared to primitive integers first, which keeps its
span and keeps the brackets in int arithmetic.  The Leibniz rule holds for
any derivation, so none of this assumes d^2 = 0, and the d^2 guard of
`HomologyData` still sees a boundary that is not a cycle.

Both kinds hold their structure constants as integer cells over one
common denominator D: a finite-dimensional algebra once, from the reader on
(`FiniteDimDGLA.bracket_cells`), a quasi-free one per pair of degrees
(`FreeGLA.bracket_cells`).  One loop, `_bracket_of_cells`, brackets in
both: it multiplies ints and divides once per output coordinate.  The d^2,
graded Jacobi and Leibniz checks of a finite-dimensional algebra run on
Python ints too.  Those checks also put the columns of d over one common
denominator E, once per validation.  d^2 is quadratic in d, the Jacobiator is
quadratic in the structure constants and Leibniz is bilinear in (brackets,
d), so the scaled identities are E^2, D^2 and D*E times the rational ones
and vanish exactly when they do.

Every term of those identities is c times a vector looked up by m, over
the (m, c) of one sparse vector: [e_i,[e_j,e_l]] sums c [e_i,e_m] over the
(m, c) of [e_j,e_l].  One accumulator, `_add_terms`, adds each term, read
from views built once per validation: the brackets [e_p_i,e_q_j] keyed by
(p, q, i) and by (p, q, j), and the columns of d by degree.  It allocates
a defect's list of ints at its first contribution, so a tuple of basis
vectors that nothing touches allocates and scans nothing.

Most of those checks are skipped by symmetry.  The table is antisymmetric,
[y,x] = -(-1)^{|x||y|}[x,y] on every pair of basis vectors, exactly when
no conflicting pair of entries and no nonzero [x,x] in even degree was
recorded; only then is the symmetry used.  In that case the checked
Jacobiator
    J(x,y,z) = [x,[y,z]] - [[x,y],z] - (-1)^{|x||y|}[y,[x,z]]
is (-1)^{|x||z|} times the cyclic graded Jacobiator, which is graded
antisymmetric under every permutation of its arguments; and the Leibniz
defect L(x,y) = d[x,y] - [dx,y] - (-1)^{|x|}[x,dy] satisfies
L(y,x) = -(-1)^{|x||y|} L(x,y).  So each vanishes on a tuple of basis
vectors exactly when it vanishes on the sorted tuple, with (degree, index)
pairs in lexicographic order.  The checks evaluate sorted tuples only.
When one of them fails, the check runs again on every ordered tuple, so
the report lists each failing tuple in loop order, as without the
symmetry; a valid algebra never pays for that second run.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, partial
from typing import NamedTuple, Sequence

from .errors import (
    FormatError,
    MixedDegrees,
    NotAChainMap,
    TargetNotFiniteType,
    UnknownGenerator,
)
from .exprs import Terms, eval_tree, format_terms
from .freelie import FreeGLA, GradedGenerator, LiePoly, TVec, generator_violations, tensor_bracket
from .freelie import _below, _least_degree
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    _ZERO,
    _clear_denominators,
    _integer_cells,
    add_scaled,
    kernel_basis,
    sparse_vector,
    unit_vector,
    vec_is_zero,
    zero_vector,
)


class Element(NamedTuple):
    """A homogeneous element: coordinates in the canonical degree basis."""

    degree: int
    coords: Vector

    def is_zero(self) -> bool:
        return vec_is_zero(self.coords)


class HomologyData:
    """Cycles, boundaries and canonical representatives in one degree.

    Representatives are genuine cycles: the quotient is taken in cycle-basis
    coordinates, where its canonical complement is spanned by the
    coordinates c that carry no pivot of B in Z.  So the representatives
    are the cycle-basis rows c, the sparse columns of `reps`, and a class
    has the coordinates c of a cycle reduced modulo B in Z.
    """

    def __init__(self, algebra, k: int):
        self.degree = k
        d_k = algebra.d_matrix(k)
        self.cycles = kernel_basis(d_k)
        self.boundaries = algebra.boundaries(k)
        for b in self.boundaries._rows:
            if d_k._combine(b.items()):
                raise ArithmeticError("boundary is not a cycle: d*d != 0?")

    @property
    def dim(self) -> int:
        return self.cycles.dim - self.boundaries.dim

    @cached_property
    def _quotient(self) -> tuple[Subspace, tuple[int, ...], Matrix]:
        """(B in Z, the free coordinates, the representatives).  d kills each
        boundary, so its cycle coordinates are its entries at the pivots."""
        z = self.cycles
        rows = [{i: b[p] for i, p in enumerate(z.pivots) if p in b} for b in self.boundaries._rows]
        b_in_z = Subspace._spanned(z.dim, rows)
        free = tuple(sorted(set(range(z.dim)).difference(b_in_z.pivots)))
        return b_in_z, free, Matrix._of_columns([z._rows[c] for c in free], z.ambient_dim)

    @property
    def reps(self) -> Matrix:
        return self._quotient[2]

    def class_coords(self, v: dict) -> dict:
        """Homology class of a sparse cycle, sparse, in the `reps` basis."""
        b_in_z, free, _ = self._quotient
        residual, coords = self.cycles._reduce(v)
        if residual:
            raise ValueError("vector is not a cycle")
        residual, _ = b_in_z._reduce(coords)
        return {i: residual[c] for i, c in enumerate(free) if c in residual}


class _DGLA:
    """Zero elements, boundaries and homology, memoized single-assignment
    per degree, for both kinds of dg Lie algebra, plus the slot of
    `validate`'s memo; subclasses define `dim`, `d_matrix` and
    `boundary_span`."""

    def __init__(self):
        self._homology: dict[int, HomologyData] = {}
        self._boundaries: dict[int, Subspace] = {}
        self._validation: ValidationReport | None = None

    def zero(self, k: int) -> Element:
        return Element(k, zero_vector(self.dim(k)))

    def boundaries(self, k: int) -> Subspace:
        """The image of d in degree k, held by its unique RREF basis.

        `boundary_span(k)` may read the boundaries of lower degrees, so the
        missing ones are filled first, in one ascending loop, not by
        recursion.
        """
        hit = self._boundaries.get(k)
        if hit is not None:
            return hit
        for j in range(1, k):
            if j not in self._boundaries:
                self._boundaries[j] = Subspace._spanned(self.dim(j), self.boundary_span(j))
        return self._boundaries.setdefault(
            k, Subspace._spanned(self.dim(k), self.boundary_span(k))
        )

    def homology(self, k: int) -> HomologyData:
        hit = self._homology.get(k)
        if hit is not None:
            return hit
        return self._homology.setdefault(k, HomologyData(self, k))


class QuasiFreeDGLA(_DGLA):
    """A free graded Lie algebra with a generator-specified differential.

    The constructor stores data without heavy checks so that `validate` can
    report problems (wrong degrees, d^2 != 0) instead of crashing; basis and
    matrix computations assume a validated object.
    """

    kind = "quasi-free"

    def __init__(self, generators: Sequence[GradedGenerator], differential: dict[str, LiePoly]):
        super().__init__()
        self.generators = tuple(generators)
        self.differential = {
            name: p for name, p in differential.items() if not p.is_zero()
        }
        self._algebra: FreeGLA | None = None
        self._d_images: tuple[int, dict[int, TVec]] | None = None
        self._d: dict[int, Matrix] = {}

    @property
    def algebra(self) -> FreeGLA:
        if self._algebra is None:
            self._algebra = FreeGLA(self.generators)
        return self._algebra

    def extend(self, generators: Sequence[GradedGenerator], differential: dict) -> "QuasiFreeDGLA":
        """This algebra with `generators` appended, d on them given by
        `differential`, over `FreeGLA.extend`.  It starts from this one's d on
        L_k for k < m, the least new degree, as d there reads only generators
        of degree <= k, and from B_k = d(L_{k+1}) and H_k for k < m - 1."""
        out = QuasiFreeDGLA(self.generators + tuple(generators), {**self.differential, **differential})
        out._algebra = self.algebra.extend(generators)
        m = _least_degree(generators)
        out._d = _below(self._d, m)
        out._boundaries = _below(self._boundaries, m - 1)
        out._homology = _below(self._homology, m - 1)
        return out

    def dim(self, k: int) -> int:
        return self.algebra.dim(k)

    def d_images(self) -> tuple[int, dict[int, TVec]]:
        """d on the generators in integer tensor form: (scale, images).

        images[i] is scale * d(x_i) with int values, keyed by generator
        index; scale is the lcm of all denominators, so d(x_i) is
        images[i] / scale.  Generators whose differential vanishes in the
        free Lie algebra have no entry.
        """
        if self._d_images is None:
            algebra = self.algebra
            vecs = {}
            for name, p in self.differential.items():
                _, vec = algebra.embed(p)
                if vec:
                    vecs[algebra.index_of(name)] = vec
            scale, cells = _integer_cells(vecs)
            self._d_images = (scale, {i: dict(pairs) for i, pairs in cells.items()})
        return self._d_images

    def d_matrix(self, k: int) -> Matrix:
        """Matrix of d: degree k -> degree k-1 in the canonical bases."""
        hit = self._d.get(k)
        if hit is not None:
            return hit
        algebra = self.algebra
        scale, images = self.d_images()
        cols = []
        if k >= 1:
            for vec in algebra.degree_basis(k).vectors:
                image = algebra.apply_derivation(-1, images, vec)
                cols.append(algebra.sparse_coords(k - 1, image, scale))
        return self._d.setdefault(k, Matrix._of_columns(cols, self.dim(k - 1)))

    def boundary_span(self, k: int) -> Sequence[dict]:
        """Sparse degree-k coordinates of a spanning set of d(L_{k+1}),
        built from bases of degree <= k only (see the module docstring)."""
        if self.dim(k) == 0:
            return []
        algebra = self.algebra
        # the images are scale * d; a scaled spanning set spans the same
        _, images = self.d_images()
        span = []
        for i, g in enumerate(self.generators):
            x, dx = {(i,): 1}, images.get(i)
            p = k + 1 - g.degree
            if p < 1:
                if p == 0 and dx:
                    span.append(algebra.sparse_coords(k, dx))
            elif dx:
                # d[a, x] for every basis vector a of degree p
                for a in algebra.degree_basis(p).vectors:
                    ax = tensor_bracket(p, a, g.degree, x)
                    image = algebra.apply_derivation(-1, images, ax)
                    span.append(algebra.sparse_coords(k, image))
            elif p > 1:
                # d[a, x] = [da, x]: the brackets [b, x] with b in B_{p-1}
                vectors = algebra.degree_basis(p - 1).vectors
                for row in self.boundaries(p - 1)._rows:
                    b: TVec = {}
                    for j, c in _clear_denominators(row)[0].items():
                        add_scaled(b, c, vectors[j])
                    bx = tensor_bracket(p - 1, b, g.degree, x)
                    span.append(algebra.sparse_coords(k, bx))
        return span

    def bracket(self, a: Element, b: Element) -> Element:
        cells = self.algebra.bracket_cells(a.degree, b.degree)
        return _bracket_of_cells(a, b, self.dim(a.degree + b.degree), *cells)

    def atom(self, name: str) -> Element:
        d, i = self.algebra.atom(name)
        return Element(d, unit_vector(self.dim(d), i))

    def element(self, p: LiePoly, degree: int | None = None) -> Element:
        d, coords = self.algebra.normalize(p, degree)
        if d is None:
            raise ValueError("zero polynomial needs an explicit degree")
        return Element(d, coords)

    def poly(self, el: Element) -> LiePoly:
        return self.algebra.poly_of_coords(el.degree, el.coords)

    def element_expr(self, el: Element) -> str:
        return format_terms(list(self.poly(el).terms))

    def eval_terms(self, terms: Terms, expected_degree: int | None = None) -> Element:
        return self.element(LiePoly(terms), expected_degree)

    def max_generator_degree(self) -> int:
        return max((g.degree for g in self.generators), default=0)


def _atom_name(k: int, i: int) -> str:
    return f"e_{k}_{i}"


def _read_atom_name(name) -> tuple[int, int] | None:
    """(k, i) of a basis vector name, or None.  A name is read only in the
    spelling `_atom_name` writes, so no two names are one basis vector."""
    if not isinstance(name, str) or name.count("_") != 2:
        return None
    _, k, i = name.split("_")
    try:
        k, i = int(k), int(i)
    except ValueError:
        return None
    return (k, i) if _atom_name(k, i) == name else None


def _sum_terms(terms, value, zero, degree: int | None, what: str) -> Element:
    """Sum of coeff * value(tree) over (coeff, tree) terms of one degree;
    zero(degree) when there are none.  `what` names the sum in errors."""
    result: Element | None = None
    for coeff, tree in terms:
        el = value(tree)
        if result is not None and result.degree != el.degree:
            raise MixedDegrees(
                f"terms of degree {result.degree} and {el.degree} in one {what}"
            )
        scaled = tuple(coeff * c for c in el.coords)
        if result is not None:
            scaled = tuple(a + b for a, b in zip(result.coords, scaled))
        result = Element(el.degree, scaled)
    if result is not None:
        return result
    if degree is None:
        raise ValueError(f"zero {what} needs an explicit degree")
    return zero(degree)


def _bracket_of_cells(a: Element, b: Element, n: int, scale: int, cells: dict) -> Element:
    """[a, b] in int arithmetic, from structure constants (scale, cells) in
    the form of `FiniteDimDGLA.bracket_cells`, n being dim L_{|a|+|b|}: the
    coordinates of a and b over their own denominators, one division per
    output coordinate."""
    xs, den_a = _clear_denominators(sparse_vector(a.coords))
    ys, den_b = _clear_denominators(sparse_vector(b.coords))
    p, q = a.degree, b.degree
    total = [0] * n
    for i, x in xs.items():
        for j, y in ys.items():
            cell = cells.get((p, q, i, j))
            if cell:
                c = x * y
                for t, v in cell:
                    total[t] += c * v
    den = scale * den_a * den_b
    return Element(p + q, tuple(Fraction(v, den) if v else _ZERO for v in total))


class FiniteDimDGLA(_DGLA):
    """Graded Lie algebra given by dimensions, structure constants and d.

    Basis vectors are addressed as e_<degree>_<index>.  Structure constants
    may be given in either orientation; the missing one is filled in via
    graded antisymmetry.  Degrees absent from `dims` are zero-dimensional;
    when `max_degree` is set, asking for anything above it raises
    TargetNotFiniteType instead of silently answering zero.

    `brackets` maps (p, q, i, j) to the coordinates of [e_p_i, e_q_j], a
    tuple of rationals; `of_integer_brackets` takes them as integers over
    a denominator instead.  Either way they are held once, as the integer
    table of `bracket_cells`.
    """

    kind = "finite-dimensional"

    def __init__(
        self,
        dims: dict[int, int],
        brackets: dict[tuple[int, int, int, int], Vector] | None = None,
        d_mats: dict[int, Matrix] | None = None,
        max_degree: int | None = None,
    ):
        super().__init__()
        self.dims = {int(k): int(n) for k, n in dims.items() if int(n) != 0}
        self.d_mats = {}
        for k, m in (d_mats or {}).items():
            k = int(k)
            if not isinstance(m, Matrix):
                m = (
                    Matrix(m, cols=self.dims.get(k, 0))
                    if m
                    else Matrix.zero(self.dims.get(k - 1, 0), self.dims.get(k, 0))
                )
            self.d_mats[k] = m
        self.max_degree = max_degree
        brackets = brackets or {}
        self._hold_brackets(
            {key: _clear_denominators(sparse_vector(vec)) for key, vec in brackets.items()},
            {key: len(vec) for key, vec in brackets.items()},
        )

    @classmethod
    def of_integer_brackets(
        cls,
        dims: dict[int, int],
        brackets: dict[tuple[int, int, int, int], tuple[dict[int, int], int]],
        d_mats: dict[int, Matrix] | None = None,
        max_degree: int | None = None,
    ) -> "FiniteDimDGLA":
        """The algebra whose bracket [e_p_i, e_q_j] has the coordinates
        nums[t] / den, for brackets[(p, q, i, j)] = (nums, den) with nums
        the nonzero int numerators by index t < dims[p + q]."""
        algebra = cls(dims, None, d_mats, max_degree)
        lengths = {key: algebra.dims.get(key[0] + key[1], 0) for key in brackets}
        algebra._hold_brackets(brackets, lengths)
        return algebra

    def _hold_brackets(self, entries: dict, lengths: dict) -> None:
        """Put the given (nums, den) entries over one scale, the lcm of their
        denominators, and mirror each by graded antisymmetry.  A key whose
        two orientations disagree keeps the value it got first and is
        recorded as a conflict; `lengths` keeps the number of coordinates
        each entry was given with, for `validate`."""
        scale = math.lcm(*(den for _, den in entries.values()))
        cells: dict[tuple[int, int, int, int], list[tuple[int, int]]] = {}
        conflicts: list[str] = []
        for key in sorted(entries):
            p, q, i, j = key
            nums, den = entries[key]
            m = scale // den
            cell = sorted((t, v * m) for t, v in nums.items())
            # [e_j,e_i] = -(-1)^{pq} [e_i,e_j]
            mirrored = cell if (p * q) % 2 else [(t, -v) for t, v in cell]
            pairs = [(key, cell)]
            if (q, p, j, i) != key:
                pairs.append(((q, p, j, i), mirrored))
            for at, val in pairs:
                held = cells.setdefault(at, val)
                if held is not val and held != val:
                    conflicts.append(
                        f"bracket [{_atom_name(at[0], at[2])},{_atom_name(at[1], at[3])}] "
                        "given twice with inconsistent values"
                    )
        self._cells = (scale, cells)
        self._conflicts = conflicts
        self._lengths = lengths

    def bracket_cells(self) -> tuple[int, dict[tuple[int, int, int, int], list[tuple[int, int]]]]:
        """The structure constants in integer form: (scale, cells).

        cells[(p, q, i, j)] lists the nonzero (t, numerator) pairs of
        [e_p_i, e_q_j] sorted by t, both orientations included; its
        coordinate t is numerator / scale.  A bracket given as zero has an
        empty list, one never given has no key.
        """
        return self._cells

    def dim(self, k: int) -> int:
        if k < 1:
            return 0
        if self.max_degree is not None and k > self.max_degree:
            raise TargetNotFiniteType(
                f"degree {k} exceeds the declared maximum degree {self.max_degree}"
            )
        return self.dims.get(k, 0)

    def d_matrix(self, k: int) -> Matrix:
        if k in self.d_mats:
            return self.d_mats[k]
        return Matrix.zero(self.dim(k - 1), self.dim(k))

    def boundary_span(self, k: int) -> Sequence[dict]:
        """The columns of d_matrix(k + 1), which span its image."""
        return self.d_matrix(k + 1)._columns

    def bracket(self, a: Element, b: Element) -> Element:
        return _bracket_of_cells(a, b, self.dim(a.degree + b.degree), *self._cells)

    def atom(self, name: str) -> Element:
        indices = _read_atom_name(name)
        if indices is not None and 0 <= indices[1] < self.dims.get(indices[0], 0):
            k, i = indices
            return Element(k, unit_vector(self.dim(k), i))
        raise UnknownGenerator(f"unknown basis vector {name!r}")

    def eval_terms(self, terms: Terms, expected_degree: int | None = None) -> Element:
        value = partial(eval_tree, leaf=self.atom, bracket=self.bracket, memo={})
        result = _sum_terms(terms, value, self.zero, expected_degree, "expression")
        if expected_degree is not None and result.degree != expected_degree:
            raise MixedDegrees(
                f"expected degree {expected_degree}, found {result.degree}"
            )
        return result

    def element_expr(self, el: Element) -> str:
        terms = [
            (c, _atom_name(el.degree, i)) for i, c in enumerate(el.coords) if c != 0
        ]
        return format_terms(terms)


class DGLAMorphism:
    """A dg Lie algebra map out of a quasi-free source, given on generators.

    Bracket compatibility holds by construction; commuting with the
    differentials is a property checked by `chain_defects`.
    """

    def __init__(self, source: QuasiFreeDGLA, target, images: dict[str, Element]):
        if not isinstance(source, QuasiFreeDGLA):
            raise FormatError("morphism source must be quasi-free")
        self.source = source
        self.target = target
        self.images: dict[str, Element] = {}
        for g in source.generators:
            if g.name not in images:
                raise FormatError(f"missing image for generator {g.name!r}")
            el = images[g.name]
            if el.degree != g.degree:
                raise FormatError(
                    f"image of {g.name!r} has degree {el.degree}, expected {g.degree}"
                )
            self.images[g.name] = el
        self._matrices: dict[int, Matrix] = {}
        self._tree_cache: dict = {}
        self._chain_checked: bool | None = None

    @classmethod
    def identity(cls, algebra: QuasiFreeDGLA) -> "DGLAMorphism":
        return cls(algebra, algebra, {g.name: algebra.atom(g.name) for g in algebra.generators})

    def image(self, name: str) -> Element:
        return self.images[name]

    def eval_tree(self, tree) -> Element:
        return eval_tree(tree, self.images.__getitem__, self.target.bracket, self._tree_cache)

    def eval_poly(self, p: LiePoly, degree: int | None = None) -> Element:
        return _sum_terms(p.terms, self.eval_tree, self.target.zero, degree, "polynomial")

    def matrix(self, k: int) -> Matrix:
        hit = self._matrices.get(k)
        if hit is not None:
            return hit
        rows = self.target.dim(k)
        cols = []
        if k >= 1:
            for tree in self.source.algebra.degree_basis(k).monomials:
                cols.append(sparse_vector(self.eval_tree(tree).coords))
        return self._matrices.setdefault(k, Matrix._of_columns(cols, rows))

    def apply(self, el: Element) -> Element:
        return Element(el.degree, self.matrix(el.degree).apply(el.coords))

    def chain_defects(self) -> list[str]:
        """Generators on which d(f(x)) != f(d(x)); empty iff chain map.

        d(x) is read through `d_images`, so a given differential that
        vanishes in the free Lie algebra, such as [x,x] with x even, is zero
        whatever degree its terms have.
        """
        _, d_images = self.source.d_images()
        defects = []
        for i, g in enumerate(self.source.generators):
            lhs = self.target.d_matrix(g.degree).apply(self.images[g.name].coords)
            if i not in d_images:
                if not vec_is_zero(lhs):
                    defects.append(g.name)
                continue
            dsrc = self.source.differential[g.name]
            if lhs != self.eval_poly(dsrc, g.degree - 1).coords:
                defects.append(g.name)
        return defects

    def is_chain_map(self) -> bool:
        if self._chain_checked is None:
            self._chain_checked = not self.chain_defects()
        return self._chain_checked

    def compose(self, inner: "DGLAMorphism") -> "DGLAMorphism":
        """self o inner (apply inner first)."""
        if inner.target is not self.source:
            raise FormatError("composition requires matching middle algebra")
        images = {
            g.name: self.apply(inner.images[g.name]) for g in inner.source.generators
        }
        return DGLAMorphism(inner.source, self.target, images)


def induced_map_on_homology(f: DGLAMorphism, k: int) -> Matrix:
    """Matrix of H_k(f) in the canonical representative bases.

    Shape is (dim H_k(target), dim H_k(source)); well-definedness is
    guaranteed by the chain-map check (f maps cycles to cycles and
    boundaries to boundaries).
    """
    if not f.is_chain_map():
        raise NotAChainMap(
            "morphism does not commute with the differentials on "
            + ", ".join(f.chain_defects())
        )
    hs = f.source.homology(k)
    ht = f.target.homology(k)
    fk = f.matrix(k)
    cols = [ht.class_coords(fk._combine(rep.items())) for rep in hs.reps._columns]
    return Matrix._of_columns(cols, ht.dim)


class ValidationReport(NamedTuple):
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def first(self) -> str | None:
        return self.violations[0] if self.violations else None


def validate(a) -> ValidationReport:
    """Check the dg Lie algebra axioms; violations are reported, not thrown,
    save TargetNotFiniteType: a finite-dimensional algebra raises it when a
    degree its Jacobi check reads is above maxDegree, and the callers put
    that field on it.  Memoized single-assignment, so each path checks once.
    """
    if isinstance(a, QuasiFreeDGLA):
        check = _validate_quasifree
    elif isinstance(a, FiniteDimDGLA):
        check = _validate_findim
    else:
        raise TypeError(f"not a dg Lie algebra: {type(a).__name__}")
    if a._validation is None:
        a._validation = check(a)
    return a._validation


def require_valid(a, *where: str) -> None:
    """Refuse an algebra that `validate` finds fault with: a FormatError
    with the first violation, at `where`, the file and field it was read
    from."""
    report = validate(a)
    if not report.ok:
        raise FormatError(report.first).within(*where)


def _validate_quasifree(a: QuasiFreeDGLA) -> ValidationReport:
    violations = [message for _, message in generator_violations(a.generators)]
    if violations:
        return ValidationReport(tuple(violations))
    seen = {g.name for g in a.generators}
    for name in sorted(a.differential):
        if name not in seen:
            violations.append(f"differential given for unknown generator {name!r}")
    if violations:
        return ValidationReport(tuple(violations))
    for g in a.generators:
        image = a.differential.get(g.name)
        if image is None:
            continue
        unknown = sorted(n for n in image.support() if n not in seen)
        if unknown:
            violations.append(
                f"differential of {g.name!r} uses unknown generator {unknown[0]!r}"
            )
            continue
        try:
            d, vec = a.algebra.embed(image)
        except MixedDegrees:
            violations.append(f"differential of {g.name!r} is not homogeneous")
            continue
        if vec and d != g.degree - 1:
            violations.append(
                f"differential of {g.name!r} is not degree -1 "
                f"(image has degree {d}, expected {g.degree - 1})"
            )
    if violations:
        return ValidationReport(tuple(violations))
    # d^2 on the scaled images is scale^2 times d^2: zero exactly when it is
    _, images = a.d_images()
    for i, g in enumerate(a.generators):
        if a.algebra.apply_derivation(-1, images, images.get(i, {})):
            violations.append(f"d^2 is nonzero on generator {g.name!r}")
    return ValidationReport(tuple(violations))


def _validate_findim(a: FiniteDimDGLA) -> ValidationReport:
    violations: list[str] = []
    for k in sorted(a.dims):
        if k < 1:
            violations.append(f"degree {k} piece declared: not simply connected")
        if a.dims[k] < 0:
            violations.append(f"negative dimension in degree {k}")
    if violations:
        return ValidationReport(tuple(violations))
    for (p, q, i, j), length in sorted(a._lengths.items()):
        if not (0 <= i < a.dims.get(p, 0) and 0 <= j < a.dims.get(q, 0)):
            violations.append(
                f"bracket entry references missing basis vector "
                f"({_atom_name(p, i)}, {_atom_name(q, j)})"
            )
        elif length != a.dims.get(p + q, 0):
            violations.append(
                f"bracket of {_atom_name(p, i)} and {_atom_name(q, j)} has "
                f"{length} coordinates, expected {a.dims.get(p + q, 0)}"
            )
    if violations:
        return ValidationReport(tuple(violations))
    violations.extend(a._conflicts)
    # The integer structure constants (times D, see the module docstring).
    # Each bracket is read from its own key, never from its mirror, since an
    # even-degree violation leaves the table not antisymmetric.
    _, brk = a.bracket_cells()
    degrees = sorted(a.dims)
    for p in degrees:
        if p % 2 == 0:
            for i in range(a.dims[p]):
                if brk.get((p, p, i, i)):
                    violations.append(
                        f"[{_atom_name(p, i)},{_atom_name(p, i)}] is nonzero "
                        "in even degree"
                    )
    # the two bracket views of the module docstring
    left: dict = {}
    right: dict = {}
    for (p, q, i, j), cell in brk.items():
        left.setdefault((p, q, i), {})[j] = cell
        right.setdefault((p, q, j), {})[i] = cell
    # With an antisymmetric table the sorted triples decide (see the module
    # docstring); only when one fails do all triples run, to report each.
    symmetric = not violations
    jacobi = _jacobi_violations(a, left, right, degrees, sorted_only=symmetric)
    if symmetric and jacobi:
        jacobi = _jacobi_violations(a, left, right, degrees, sorted_only=False)
    violations.extend(jacobi)
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
    # integer columns of d (times E, see the module docstring) by degree,
    # dcols[k] = {c: d(e_k_c)}
    cols = {(k, c): col for k, m in a.d_mats.items() for c, col in enumerate(m._columns)}
    dcols: dict = {}
    for (k, c), col in _integer_cells(cols)[1].items():
        dcols.setdefault(k, {})[c] = col
    for k in degrees:
        if a.max_degree is not None and k + 1 > a.max_degree:
            continue
        for col in dcols.get(k + 1, {}).values():
            # d(d e_c), E^2 times
            total = _add_terms(None, a.dims.get(k - 1, 0), col, dcols.get(k, {}), 1)
            if total is not None and any(total):
                violations.append(f"d^2 is nonzero from degree {k + 1}")
                break
    # Reaching here, no conflict or even-degree self-bracket was recorded:
    # the table is antisymmetric, so the sorted pairs decide.
    leibniz = _leibniz_violations(a, left, right, dcols, degrees, sorted_only=True)
    if leibniz:
        leibniz = _leibniz_violations(a, left, right, dcols, degrees, sorted_only=False)
    violations.extend(leibniz)
    return ValidationReport(tuple(violations))


def _add_terms(total: list[int] | None, n: int, coeffs, cells: dict, sign: int):
    """total + sign * sum of c * cells[m] over the (m, c) of `coeffs`, each
    cell a sparse int vector of length n; `total` is None until the first
    contribution (see the module docstring)."""
    for m, c in coeffs:
        cell = cells.get(m)
        if cell:
            if total is None:
                total = [0] * n
            c *= sign
            for t, v in cell:
                total[t] += c * v
    return total


def _jacobi_violations(a: FiniteDimDGLA, left, right, degrees, sorted_only: bool) -> list[str]:
    """Graded Jacobi violations of a finite-dimensional table, in loop order,
    on every ordered triple of basis vectors or, with `sorted_only`, on the
    sorted ones.  `left` and `right` are the views of the integer
    structure constants that `_validate_findim` builds."""
    violations: list[str] = []
    maxdeg = max(degrees, default=0)
    for p in degrees:
        for q in degrees:
            for r in degrees:
                s = p + q + r
                if s > maxdeg:
                    continue
                # above maxDegree, name the first degree the brackets reach:
                # e_i, e_j, [e_i,e_j], e_l, [e_j,e_l], then the Jacobiator
                for k in (p, q, p + q, r, q + r, s):
                    a.dim(k)
                n = a.dims.get(s, 0)
                if not n or (sorted_only and not p <= q <= r):
                    continue
                sign = -1 if (p * q) % 2 else 1
                for i in range(a.dims[p]):
                    # [e_i,-] on degrees q+r, q and r; [e_j,-] on r and p+r
                    i_qr = left.get((p, q + r, i), {})
                    i_q = left.get((p, q, i), {})
                    i_r = left.get((p, r, i), {})
                    for j in range(a.dims[q]):
                        if sorted_only and p == q and j < i:
                            continue
                        j_r = left.get((q, r, j), {})
                        j_pr = left.get((q, p + r, j), {})
                        eij = i_q.get(j, ())
                        lmin = j if sorted_only and q == r else 0
                        for l in range(lmin, a.dims[r]):
                            # [e_i,[e_j,e_l]] - [[e_i,e_j],e_l] - (-1)^{pq} [e_j,[e_i,e_l]]
                            total = _add_terms(None, n, j_r.get(l, ()), i_qr, 1)
                            total = _add_terms(total, n, eij, right.get((p + q, r, l), {}), -1)
                            total = _add_terms(total, n, i_r.get(l, ()), j_pr, -sign)
                            if total is not None and any(total):
                                triple = ((p, i), (q, j), (r, l))
                                violations.append(_fails_on("Jacobi", triple))
    return violations


def _leibniz_violations(
    a: FiniteDimDGLA, left, right, dcols, degrees, sorted_only: bool
) -> list[str]:
    """Leibniz violations, in loop order, on every ordered pair of basis
    vectors or, with `sorted_only`, on the sorted ones.  `left`, `right`
    and `dcols` are the views that `_validate_findim` builds.  As in
    `_jacobi_violations`, a pair of degrees whose defect degree p+q-1 is
    empty cannot fail and is skipped."""
    violations: list[str] = []
    for p in degrees:
        for q in degrees:
            if p + q - 1 < 1:
                continue
            if a.max_degree is not None and p + q > a.max_degree:
                continue
            if sorted_only and p > q:
                continue
            n = a.dims.get(p + q - 1, 0)
            if not n:
                continue
            sign = -1 if p % 2 else 1
            d_pq = dcols.get(p + q, {})
            d_p = dcols.get(p, {}) if p > 1 else {}
            d_q = dcols.get(q, {}) if q > 1 else {}
            for i in range(a.dims[p]):
                # [e_i,-] on degrees q and q-1
                i_q = left.get((p, q, i), {})
                i_dq = left.get((p, q - 1, i), {})
                dei = d_p.get(i, ())
                for j in range(i if sorted_only and p == q else 0, a.dims[q]):
                    # d[e_i,e_j] - [de_i,e_j] - (-1)^p [e_i,de_j]
                    total = _add_terms(None, n, i_q.get(j, ()), d_pq, 1)
                    total = _add_terms(total, n, dei, right.get((p - 1, q, j), {}), -1)
                    total = _add_terms(total, n, d_q.get(j, ()), i_dq, -sign)
                    if total is not None and any(total):
                        violations.append(_fails_on("Leibniz", ((p, i), (q, j))))
    return violations


def _fails_on(law: str, vectors) -> str:
    """The violation of `law` on basis vectors given as (degree, index)."""
    names = ", ".join(_atom_name(k, i) for k, i in vectors)
    return f"graded {law} fails on ({names})"
