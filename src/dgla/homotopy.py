"""The algebraic group side: relative derivations, exp/log, equivalence.

Derivations vanishing on the base are stored by their fiber generator
images and extended by the graded derivation rule, applied as the
tensor-algebra derivation with the same generator values
(`FreeGLA.apply_derivation`), as is d itself.  Degree-zero cycles of
the complex (with differential the graded commutator with d) form the Lie
algebra of the relative automorphism group; the degree-zero boundaries
exponentiate onto the subgroup of automorphisms homotopic to the identity
rel base.  Neither subspace is built: their dimensions are ranks of the
boundary matrices, and the equivalence decision runs on one solve:

    f ~ g  iff  u = f o g^{-1} is unipotent-relative and log(u) is a boundary.

"Unipotent-relative" here demands that u fix the base exactly and that
(u - id) kill the linear fiber part of every fiber generator.  Linear *base*
terms are allowed: boundaries [d,G] produce them whenever some fiber
differential has a linear base part, and such operators are still nilpotent
in each degree (each application either raises word length or trades a
fiber letter for base letters, and base letters are annihilated).  The
strictly word-length-raising case is the one the exponential is usually
stated for; the relaxation keeps exp defined on all boundaries.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .dg import Element
from .errors import (
    DegreeBoundExceeded,
    FormatError,
    NotMinimal,
    NotRelativeAutomorphism,
    NotUnipotentRelative,
    NotWordLengthRaising,
)
from .freelie import LiePoly
from .invert import FilteredEndo, invert_relative_quasi_iso, is_relative_automorphism
from .linalg import (
    Matrix,
    Vector,
    add_scaled,
    dense_vector,
    solve_pivot,
    vec_is_zero,
    vec_sub,
)
from .minimal import RelativeModel, is_minimal


class RelDerivation:
    """A degree-homogeneous derivation of L(V + W) vanishing on L(V).

    Stored by fiber generator images (coordinates in the canonical basis of
    degree |w| + r); the extension to the whole algebra follows the graded
    rule  delta[a,b] = [delta a, b] + (-1)^{r |a|} [a, delta b].
    """

    def __init__(self, model: RelativeModel, degree: int, images: dict[str, Element]):
        self.model = model
        self.degree = degree
        fiber = set(model.fiber_names)
        self.images: dict[str, Element] = {}
        for name, el in images.items():
            if name not in fiber:
                raise FormatError(
                    f"derivation image for {name!r}, which is not a fiber generator"
                )
            expected = model.degree_of(name) + degree
            if el.degree != expected:
                raise FormatError(
                    f"derivation image of {name!r} has degree {el.degree}, "
                    f"expected {expected}"
                )
            if not el.is_zero():
                self.images[name] = el
        algebra = model.dgla.algebra
        self._letters = {
            algebra.index_of(name): algebra.tensor_of(el.degree, el.coords)
            for name, el in self.images.items()
        }
        self._matrices: dict[int, Matrix] = {}

    @classmethod
    def zero(cls, model: RelativeModel, degree: int = 0) -> "RelDerivation":
        return cls(model, degree, {})

    def image(self, name: str) -> Element:
        hit = self.images.get(name)
        if hit is not None:
            return hit
        return self.model.dgla.zero(self.model.degree_of(name) + self.degree)

    def is_zero(self) -> bool:
        return not self.images

    def _value(self, out_deg: int, vec) -> dict[int, Fraction]:
        algebra = self.model.dgla.algebra
        return algebra.sparse_coords(out_deg, algebra.apply_derivation(self.degree, self._letters, vec))

    def value_poly(self, p: LiePoly, source_degree: int) -> Element:
        out_deg = source_degree + self.degree
        _, vec = self.model.dgla.algebra.embed(p)
        return Element(out_deg, dense_vector(self._value(out_deg, vec), self.model.dgla.dim(out_deg)))

    def matrix(self, k: int) -> Matrix:
        """The extension of the derivation as a map M_k -> M_{k+degree}."""
        hit = self._matrices.get(k)
        if hit is not None:
            return hit
        out_deg = k + self.degree
        cols = []
        if k >= 1:
            for vec in self.model.dgla.algebra.degree_basis(k).vectors:
                cols.append(self._value(out_deg, vec))
        return self._matrices.setdefault(k, Matrix._of_columns(cols, self.model.dgla.dim(out_deg)))

    def linear_fiber_defects(self) -> list[str]:
        """Fiber generators whose image has a nonzero linear fiber part."""
        return [
            g.name
            for g in self.model.fiber_generators
            if g.name in self.images and self.model.linear_fiber_part(self.images[g.name])
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RelDerivation)
            and self.model is other.model
            and self.degree == other.degree
            and self.images == other.images
        )


class DerSpace(NamedTuple):
    """Coordinate chart on Der_r: one slot per (fiber generator, basis index)."""

    model: RelativeModel
    degree: int
    pairs: tuple[tuple[str, int], ...]

    @property
    def dim(self) -> int:
        return len(self.pairs)

    def pack(self, derivation: RelDerivation) -> Vector:
        if derivation.degree != self.degree:
            raise ValueError("derivation degree does not match the chart")
        out = []
        for name, j in self.pairs:
            out.append(derivation.image(name).coords[j])
        return tuple(out)

    def unpack(self, vec) -> RelDerivation:
        parts: dict[str, dict[int, Fraction]] = {}
        for (name, j), c in zip(self.pairs, vec):
            if c:
                parts.setdefault(name, {})[j] = Fraction(c)
        images = {}
        for name, part in parts.items():
            deg = self.model.degree_of(name) + self.degree
            images[name] = Element(deg, dense_vector(part, self.model.dgla.dim(deg)))
        return RelDerivation(self.model, self.degree, images)


def der_space(model: RelativeModel, r: int) -> DerSpace:
    pairs = []
    for g in model.fiber_generators:
        for j in range(model.dgla.dim(g.degree + r)):
            pairs.append((g.name, j))
    return DerSpace(model, r, tuple(pairs))


def der_boundary_matrix(model: RelativeModel, r: int) -> Matrix:
    """Matrix of [d, -]: Der_r -> Der_{r-1} in the canonical charts.

    Built by linearity, [d, theta](g) = d(theta g) - (-1)^r theta(d g).
    Column (w, j) is the derivation theta sending w to the basis vector e_j
    of degree |w| + r.  In w's own block it holds column j of
    d_matrix(|w| + r); every block g adds the derivation sending w to
    -(-1)^r e_j, applied to d g.  That term is zero when no word of d g
    contains the letter w, and is then not computed.  d g is read in its
    integer form, scale * d g (`d_images`), so that term is divided by the
    scale before the d-matrix column is added.  Each block starts at the
    row offset of g's slots in the Der_{r-1} chart.
    """
    dgla = model.dgla
    algebra = dgla.algebra
    scale, d_images = dgla.d_images()
    sign = -1 if r % 2 else 1
    blocks = []
    rows = 0
    for g in model.fiber_generators:
        k = g.degree + r - 1
        if dgla.dim(k):
            d_g = d_images.get(algebra.index_of(g.name), {})
            blocks.append((g, rows, k, d_g, algebra.letters(d_g)))
            rows += dgla.dim(k)
    cols = []
    for w in model.fiber_generators:
        k = w.degree + r
        if dgla.dim(k) == 0:
            continue
        d_cols = dgla.d_matrix(k)._columns
        letter = algebra.index_of(w.name)
        for j, e_j in enumerate(algebra.degree_basis(k).vectors):
            theta = {letter: {word: -sign * a for word, a in e_j.items()}}
            col = {}
            for g, start, k_g, d_g, letters in blocks:
                value = {}
                if w.name in letters:
                    image = algebra.apply_derivation(r, theta, d_g)
                    value = algebra.sparse_coords(k_g, image, scale)
                if g.name == w.name:
                    if value:
                        add_scaled(value, 1, d_cols[j])
                    else:
                        value = d_cols[j]
                for i, x in value.items():
                    col[start + i] = x
            cols.append(col)
    return Matrix._of_columns(cols, rows)


class DerComplexData(NamedTuple):
    """One degree of the relative derivation complex, with its neighbours."""

    degree: int
    space: DerSpace
    boundary_out: Matrix
    boundary_in: Matrix

    @property
    def dim(self) -> int:
        return self.space.dim

    def dims(self, boundaries: int | None = None) -> dict[str, int]:
        """Dimensions of Der_r, Z_r, B_r and H_r, keyed der<r>, z<r>, b<r>, h<r>:
        z_r = dim Der_r - rank(boundary_out), and b_r = rank(boundary_in)
        unless a caller that already eliminated boundary_in passes it."""
        r = self.degree
        z = self.dim - self.boundary_out.rank()
        b = self.boundary_in.rank() if boundaries is None else boundaries
        return {f"der{r}": self.dim, f"z{r}": z, f"b{r}": b, f"h{r}": z - b}


def derivation_basis(model: RelativeModel, r: int, bound: int) -> DerComplexData:
    """The canonical chart on Der_r with the boundary matrices out of it and
    into it; `DerComplexData.dims` reads Z_r and B_r from their ranks."""
    top = max((g.degree for g in model.fiber_generators), default=0)
    if top + r > bound:
        raise DegreeBoundExceeded(
            f"derivations of degree {r} need bases up to degree {top + r}, "
            f"beyond the bound {bound}"
        )
    return DerComplexData(
        r, der_space(model, r), der_boundary_matrix(model, r), der_boundary_matrix(model, r + 1)
    )


def _require_degree_zero(delta: RelDerivation):
    if delta.degree != 0:
        raise FormatError("expected a degree-0 derivation")


def _generator_degree_within(model: RelativeModel, bound: int) -> int:
    m = model.max_generator_degree()
    if m > bound:
        raise DegreeBoundExceeded("bound is smaller than the maximal generator degree")
    return m


def exp_derivation(delta: RelDerivation, bound: int) -> FilteredEndo:
    """exp(delta) as an endomorphism, for nilpotent degree-0 derivations.

    Requires images with no linear fiber part (so every application of delta
    raises word length or trades fiber letters for base letters); the sum
    then terminates degreewise and the result fixes the base pointwise.
    """
    _require_degree_zero(delta)
    model = delta.model
    _generator_degree_within(model, bound)
    bad = delta.linear_fiber_defects()
    if bad:
        raise NotWordLengthRaising(
            "derivation image has a linear fiber part on " + ", ".join(bad)
        )
    images: dict[str, Element] = {}
    for g in model.fiber_generators:
        k = g.degree
        atom = model.dgla.atom(g.name).coords
        series = _nilpotent_series(
            atom, atom, delta.matrix(k).apply, lambda p: Fraction(1, factorial(p)), k,
            "exponential series failed to terminate; the derivation "
            "is not nilpotent (internal check)",
        )
        images[g.name] = Element(k, series)
    return FilteredEndo(model, images)


def _nilpotent_series(start: Vector, x: Vector, step, coeff, k: int, failure: str) -> Vector:
    """start + sum over p >= 1 of coeff(p) * step^p(x), for a step that is
    nilpotent on x in degree k.

    The sum stops at the first zero power; more than 2k + 2 nonzero powers
    raise ArithmeticError(failure).  Terms are added in order of p.
    """
    acc = list(start)
    term = x
    p = 0
    while True:
        term = step(term)
        p += 1
        if vec_is_zero(term):
            return tuple(acc)
        if p > 2 * k + 2:
            raise ArithmeticError(failure)
        c = coeff(p)
        for i, t in enumerate(term):
            if t:
                acc[i] += c * t


def log_unipotent(u: FilteredEndo, bound: int) -> RelDerivation:
    """log(u) for unipotent-relative u; exact inverse of exp_derivation.

    u must fix every base generator exactly and have (u - id) without linear
    fiber part on every fiber generator.
    """
    model = u.model
    _generator_degree_within(model, bound)
    dgla = model.dgla
    for name in model.base_names:
        if u.image(name) != dgla.atom(name):
            raise NotUnipotentRelative(
                f"endomorphism moves the base generator {name!r}"
            )
    moved = _moved_linearly(u)
    if moved:
        raise NotUnipotentRelative(f"(u - id) has a linear fiber part on {moved[0]!r}")
    return _log_series(u)


def _moved_linearly(u: FilteredEndo) -> list[str]:
    """Fiber generators on which u - id has a nonzero linear fiber part."""
    return [
        g.name
        for g in u.model.fiber_generators
        if u.model.linear_fiber_part(u.image(g.name)) != {g.name: 1}
    ]


def _log_series(u: FilteredEndo) -> RelDerivation:
    """log(u) = sum_p (-1)^(p+1) (u - id)^p / p on each fiber generator, for
    a u that passes the checks of `log_unipotent`."""
    dgla = u.model.dgla
    images: dict[str, Element] = {}
    for g in u.model.fiber_generators:
        k = g.degree
        umat = u.matrix(k)
        series = _nilpotent_series(
            dgla.zero(k).coords, dgla.atom(g.name).coords,
            lambda v: vec_sub(umat.apply(v), v), lambda p: Fraction((-1) ** (p + 1), p), k,
            "logarithm series failed to terminate (internal check)",
        )
        images[g.name] = Element(k, series)
    return RelDerivation(u.model, 0, images)


class Verdict(NamedTuple):
    equivalent: bool
    witness: RelDerivation | None
    reason: str
    dims: dict
    truncation_degree: int


def are_homotopic_rel(f: FilteredEndo, g: FilteredEndo, bound: int) -> Verdict:
    """Decide whether two relative automorphisms are homotopic rel base.

    Computes u = f o g^{-1}; if u is not unipotent-relative it cannot lie in
    the exponential of the boundary derivations and the maps are not
    equivalent.  Otherwise log(u) is tested for membership in B_0 by one
    elimination of [boundary_in | log(u)], which also gives dim B_0; a
    positive answer comes with a degree-1 derivation witness G satisfying
    [d, G] = log(u) exactly.
    """
    if f.model is not g.model:
        raise FormatError("endomorphisms live on different models")
    model = f.model
    if not is_minimal(model).is_minimal:
        raise NotMinimal("the ambient model is not minimal")
    for position, (name, endo) in enumerate((("first", f), ("second", g))):
        if not is_relative_automorphism(endo):
            raise NotRelativeAutomorphism(
                f"the {name} endomorphism is not a relative automorphism", position
            )
    data0 = derivation_basis(model, 0, bound)
    m = _generator_degree_within(model, bound)
    u = f.compose(invert_relative_quasi_iso(g, bound))

    moved = _moved_linearly(u)
    if moved:
        return Verdict(
            False,
            None,
            f"f o g^-1 has a non-identity linear part on {moved[0]!r}, "
            "so it lies outside the exponential of the boundary derivations",
            data0.dims(),
            m,
        )
    # u fixes the base, has no linear fiber part and m <= bound, so every
    # check of log_unipotent has passed
    theta = _log_series(u)
    theta_vec = data0.space.pack(theta)
    if not vec_is_zero(data0.boundary_out.apply(theta_vec)):
        raise ArithmeticError(
            "log of a chain automorphism is not a cycle; internal bug"
        )
    x, pivots = solve_pivot(data0.boundary_in, theta_vec)
    dims = data0.dims(len(pivots))
    if x is None:
        return Verdict(
            False,
            None,
            "log(f o g^-1) commutes with d but is not a boundary derivation",
            dims,
            m,
        )
    witness = der_space(model, 1).unpack(x)
    if data0.boundary_in.apply(x) != theta_vec:
        raise ArithmeticError("witness reconstruction failed; internal bug")
    return Verdict(True, witness, "", dims, m)


def pi0_report(model: RelativeModel, bound: int) -> dict:
    """Dimension data of the algebraic group presentation.

    Reports the truncation degree m (the maximal generator degree), the
    dimension of the truncated stage the group acts on, the derivation
    complex dimensions, and how many scalar equations each of the four
    defining algebraic conditions contributes for a matrix in that stage.
    """
    m = model.max_generator_degree()
    if m > bound:
        raise DegreeBoundExceeded(
            f"model has generators of degree {m}, beyond the bound {bound}"
        )
    dgla = model.dgla
    dims_by_degree = {k: dgla.dim(k) for k in range(1, m + 1)}
    sigma = sum(dims_by_degree.values())
    base_dim = sum(
        len(dgla.algebra.sub_basis(k, model.base_names)) for k in range(1, m + 1)
    )
    data0 = derivation_basis(model, 0, bound)
    bracket_eqs = 0
    for p in range(1, m):
        for q in range(1, m - p + 1):
            bracket_eqs += dims_by_degree[p] * dims_by_degree[q] * dims_by_degree[p + q]
    return {
        "truncationDegree": m,
        "sigmaDimension": sigma,
        "derivations": data0.dims(),
        "conditions": {
            "degreePreserving": sigma * sigma
            - sum(d * d for d in dims_by_degree.values()),
            "commutesWithDifferential": sigma * sigma,
            "bracketCompatible": bracket_eqs,
            "fixesBase": base_dim * sigma,
        },
    }
