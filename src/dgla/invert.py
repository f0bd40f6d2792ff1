"""Inverting quasi-isomorphisms of minimal relative models.

An endomorphism of L(V + W) that is given on generators automatically
preserves every L(V + W_{<=k}) as long as base generators map into the base
subalgebra; that containment is the one structural requirement of
FilteredEndo.  When such an endomorphism f is a quasi-isomorphism up to the
bound and restricts to an automorphism of the base, it has an exact inverse
g.  The base block is inverted by plain linear algebra; each fiber
generator w of degree t goes to f_t^{-1} w, f_t being f's matrix in degree
t.  No choice is involved: f o g = id on the generators of degree <= t
makes f onto L_t, which brackets of those generators span, so the square
matrix f_t is a bijection and g(w) is the one solution of f_t x = w.  The
same argument makes the inversion the quasi-isomorphism test (see
`invert_relative_quasi_iso`), so no homology is built for it.

The base L(V) is not built as an algebra of its own.  It is read by indices
from the ambient basis (`FreeGLA.sub_basis`): the base block of f is f's
matrix at the base indices.  A base image lies in L(V) when the letters of
its words (`FreeGLA.letters`) are base names.
"""

from __future__ import annotations

from .dg import DGLAMorphism, Element
from .errors import (
    BaseNotAutomorphism,
    DegreeBoundTooSmall,
    FormatError,
    NotAChainMap,
    NotFiltered,
    NotMinimal,
    NotQuasiIso,
)
from .linalg import Matrix, dense_vector, invert
from .minimal import RelativeModel, is_minimal


class FilteredEndo(DGLAMorphism):
    """An endomorphism of a relative model's algebra, given on generators.

    A DGLAMorphism from model.dgla to itself.  Missing generators default
    to the identity.  Base generators must map
    into the base subalgebra; fiber images are only constrained to be
    degree-homogeneous of the right degree.  Chain-map and automorphism
    properties are checked by the operations that need them, not here.
    """

    def __init__(self, model: RelativeModel, images: dict[str, Element]):
        dgla = model.dgla
        known = {g.name for g in dgla.generators}
        for name in images:
            if name not in known:
                raise FormatError(f"endomorphism image for unknown generator {name!r}")
        full = {g.name: images.get(g.name, dgla.atom(g.name)) for g in dgla.generators}
        super().__init__(dgla, dgla, full)
        self.model = model
        base = set(model.base_names)
        for name in model.base_names:
            image = dgla.algebra.tensor_of(full[name].degree, full[name].coords)
            if not dgla.algebra.letters(image) <= base:
                raise NotFiltered(
                    f"image of base generator {name!r} leaves the base subalgebra"
                )

    @classmethod
    def identity(cls, model: RelativeModel) -> "FilteredEndo":
        return cls(model, {})

    def compose(self, inner: "FilteredEndo") -> "FilteredEndo":
        """self o inner: apply inner first."""
        if inner.model is not self.model:
            raise FormatError("endomorphisms live on different models")
        images = {name: self.apply(el) for name, el in inner.images.items()}
        return FilteredEndo(self.model, images)


def is_relative_automorphism(f: FilteredEndo) -> bool:
    """Fixes the base pointwise, chain map, invertible on the generators.

    f fixes the base, so its linear part on the generators of degree t is
    block-triangular with the identity on the base: invertible iff the
    block of linear fiber parts of f(w), w the fiber generators of degree t,
    is.  On the word-length filtration of L_k, f's associated graded is the
    free Lie functor applied to that linear part.  L_k is finite-dimensional
    with a finite filtration, so f_k is bijective for every k <= the maximal
    generator degree iff every block is invertible.
    """
    model = f.model
    for name in model.base_names:
        if f.image(name) != model.dgla.atom(name):
            return False
    if not f.is_chain_map():
        return False
    for t in {g.degree for g in model.fiber_generators}:
        index = {name: p for p, (name, _) in enumerate(model.fiber_atom_indices(t))}
        parts = [model.linear_fiber_part(f.image(name)) for name in index]
        block = [{index[w]: c for w, c in part.items()} for part in parts]
        if Matrix._of_columns(block, len(block)).rank() != len(block):
            return False
    return True


def _base_inverse_images(f: FilteredEndo) -> dict[str, Element]:
    """Invert the restriction of f to the base subalgebra, per degree: the
    block of f's matrix at the base indices of the degree's basis."""
    dgla = f.model.dgla
    images: dict[str, Element] = {}
    for m in sorted({g.degree for g in f.model.base_generators}):
        inside = dgla.algebra.sub_basis(m, f.model.base_names)
        position = {j: p for p, j in enumerate(inside)}
        f_m = f.matrix(m)._columns
        columns = [f_m[i] for i in inside]
        if any(j not in position for col in columns for j in col):
            raise ArithmeticError(
                "image of a base monomial leaves the base subalgebra; internal bug"
            )
        block = [{position[j]: c for j, c in col.items()} for col in columns]
        try:
            inv = invert(Matrix._of_columns(block, len(inside)))
        except ValueError:
            raise BaseNotAutomorphism(
                f"restriction of the endomorphism to the base is singular "
                f"in degree {m}"
            ) from None
        for g in f.model.base_generators:
            if g.degree == m:
                col = inv._columns[position[dgla.algebra.atom(g.name)[1]]]
                coords = {inside[i]: c for i, c in col.items()}
                images[g.name] = Element(m, dense_vector(coords, dgla.dim(m)))
    return images


def invert_relative_quasi_iso(f: FilteredEndo, bound: int) -> FilteredEndo:
    """Exact inverse g of f on all generators of degree <= bound.

    Preconditions: the ambient model is minimal and f is a chain map.  The
    base block of f is inverted on its own, and a fiber generator w of
    degree t <= bound goes to f_t^{-1} w, f_t being f's degree-t matrix.
    The returned g satisfies f o g = id and g o f = id exactly on those
    generators, and is itself a chain map.

    The inversion is the quasi-isomorphism test; no homology is built.  A
    singular base block is refused as BaseNotAutomorphism and a singular
    f_t as NotQuasiIso.  When every block inverts, f o g = id on the
    generators of degree <= bound, so f maps each L_i (i <= bound) onto
    itself, L_i being spanned by brackets of generators of degree <= i.
    L_i is finite-dimensional, so f_i is bijective.  A chain map bijective
    on L_i is bijective on Z_i, and on B_i too, since f(B_i) = d f(L_{i+1})
    lies in B_i and f is injective there.  So H_i(f) is an isomorphism.
    """
    if bound < 1:
        raise DegreeBoundTooSmall("the degree bound must be at least 1")
    minimality = is_minimal(f.model)
    if not minimality.is_minimal:
        raise NotMinimal(
            "inversion requires a minimal model; offending generators: "
            + ", ".join(name for name, _ in minimality.witnesses)
        )
    if not f.is_chain_map():
        raise NotAChainMap(
            "endomorphism does not commute with d on " + ", ".join(f.chain_defects())
        )
    model = f.model
    dgla = model.dgla
    images = _base_inverse_images(f)
    for t in sorted({g.degree for g in model.fiber_generators if g.degree <= bound}):
        try:
            inv = invert(f.matrix(t))
        except ValueError:
            raise NotQuasiIso(
                f"the endomorphism is singular in degree {t}, so it is not "
                f"a quasi-isomorphism there"
            ) from None
        for name, idx in model.fiber_atom_indices(t):
            images[name] = Element(t, inv.column(idx))

    result = FilteredEndo(model, images)

    for g in dgla.generators:
        if g.degree <= bound and f.apply(result.image(g.name)) != dgla.atom(g.name):
            raise ArithmeticError(
                f"postcondition failed: f o g != id on {g.name}; internal bug"
            )
    for name in result.chain_defects():
        if model.degree_of(name) <= bound:
            raise ArithmeticError(
                f"postcondition failed: inverse is not a chain map on {name}"
            )
    return result
