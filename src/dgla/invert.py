"""Inverting quasi-isomorphisms of minimal relative models.

An endomorphism of L(V + W) that is given on generators automatically
preserves every L(V + W_{<=k}) as long as base generators map into the base
subalgebra; that containment is the one structural requirement of
FilteredEndo.  When such an endomorphism is a quasi-isomorphism up to the
bound and restricts to an automorphism of the base, it has an exact inverse,
built stage by stage: the base block is inverted by plain linear algebra,
and each fiber degree is handled through the quotient complex of the image
of the already-inverted part, with all section choices pinned to the rref
pivot rule.

Neither the base L(V) nor a stage M<k> = L(V + W_{<=k}) is built as an
algebra of its own.  Each is read by indices from the ambient basis
(`FreeGLA.sub_basis`): the base block of f is f's matrix at the base
indices, and a correction term in M<k> has its stage coordinates at the
stage indices and none elsewhere.
"""

from __future__ import annotations

from .dg import DGLAMorphism, Element, induced_map_on_homology
from .errors import (
    BaseNotAutomorphism,
    DegreeBoundTooSmall,
    FormatError,
    NotAChainMap,
    NotFiltered,
    NotMinimal,
    NotQuasiIso,
    NotSurjective,
)
from .linalg import (
    Matrix,
    Subspace,
    invert,
    kernel_basis,
    quotient_data,
    section_of_surjection,
    vec_sub,
)
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
        for name in model.base_names:
            base = dgla.algebra.sub_basis(full[name].degree, model.base_names)
            if _nonzero_outside(full[name].coords, base):
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
    """Fixes the base pointwise, chain map, invertible in each degree.

    Degreewise invertibility is checked up to the maximal generator degree,
    which suffices: it forces the linear part on generators to be invertible
    and the whole endomorphism is then an automorphism.
    """
    dgla = f.model.dgla
    for name in f.model.base_names:
        if f.image(name) != dgla.atom(name):
            return False
    if not f.is_chain_map():
        return False
    for k in range(1, f.model.max_generator_degree() + 1):
        m = f.matrix(k)
        if m.rank() != dgla.dim(k):
            return False
    return True


def _nonzero_outside(coords, inside: tuple[int, ...]) -> bool:
    """Whether coords are nonzero at some index outside `inside`."""
    keep = set(inside)
    return any(c for i, c in enumerate(coords) if i not in keep)


def _base_inverse_images(f: FilteredEndo) -> dict[str, Element]:
    """Invert the restriction of f to the base subalgebra, per degree: the
    block of f's matrix at the base indices of the degree's basis."""
    dgla = f.model.dgla
    images: dict[str, Element] = {}
    for m in sorted({g.degree for g in f.model.base_generators}):
        inside = dgla.algebra.sub_basis(m, f.model.base_names)
        monomials = dgla.algebra.degree_basis(m).monomials
        vals = [f.eval_tree(monomials[i]).coords for i in inside]
        if any(_nonzero_outside(v, inside) for v in vals):
            raise ArithmeticError(
                "image of a base monomial leaves the base subalgebra; internal bug"
            )
        block = [tuple(v[j] for j in inside) for v in vals]
        try:
            inv = invert(Matrix._of_columns(block, len(inside)))
        except ValueError:
            raise BaseNotAutomorphism(
                f"restriction of the endomorphism to the base is singular "
                f"in degree {m}"
            ) from None
        for g in f.model.base_generators:
            if g.degree == m:
                col = inv.column(inside.index(dgla.algebra.atom(g.name)[1]))
                coords = list(dgla.zero(m).coords)
                for j, c in zip(inside, col):
                    coords[j] = c
                images[g.name] = Element(m, tuple(coords))
    return images


def invert_relative_quasi_iso(f: FilteredEndo, bound: int) -> FilteredEndo:
    """Exact inverse g of f on all generators of degree <= bound.

    Preconditions: the ambient model is minimal, f is a chain map and a
    quasi-isomorphism in degrees <= bound, and f restricts to an
    automorphism of the base.  The returned g satisfies f o g = id and
    g o f = id exactly on those generators, and is itself a chain map.
    """
    if bound < 1:
        raise DegreeBoundTooSmall("the degree bound must be at least 1")
    model = f.model
    dgla = model.dgla
    minimality = is_minimal(model)
    if not minimality.is_minimal:
        raise NotMinimal(
            "inversion requires a minimal model; offending generators: "
            + ", ".join(name for name, _ in minimality.witnesses)
        )
    if not f.is_chain_map():
        raise NotAChainMap(
            "endomorphism does not commute with d on " + ", ".join(f.chain_defects())
        )
    for i in range(1, bound + 1):
        hi = induced_map_on_homology(f, i)
        if hi.rank() != hi.rows:
            raise NotQuasiIso(f"H_{i} of the endomorphism is singular")

    images = _base_inverse_images(f)

    for t in sorted({g.degree for g in model.fiber_generators if g.degree <= bound}):
        k = t - 1
        sub_names = model.generators_up_to(k)
        g_cur = FilteredEndo(model, images)

        def sub_data(m: int):
            inside = dgla.algebra.sub_basis(m, sub_names)
            monomials = dgla.algebra.degree_basis(m).monomials if m >= 1 else ()
            g_vals = [g_cur.eval_tree(monomials[i]).coords for i in inside]
            return inside, g_vals, Subspace._spanned(dgla.dim(m), g_vals)

        inside_t, g_vals_t, s_t = sub_data(t)
        _, _, s_k = sub_data(k)

        _, reps_t = quotient_data(dgla.dim(t), s_t)
        proj_k, _ = quotient_data(dgla.dim(k), s_k)
        lift_t = Matrix._of_columns(reps_t, dgla.dim(t))
        zbar = kernel_basis(proj_k.mul(dgla.d_matrix(t)).mul(lift_t))

        wgens = [g for g in model.fiber_generators if g.degree == t]
        atom_idx = {g.name: dgla.algebra.atom(g.name)[1] for g in wgens}
        f_t = f.matrix(t)
        lifts = lift_t.mul(Matrix._of_columns(zbar.basis, lift_t.cols))
        f_lifts = f_t.mul(lifts)
        onto = Matrix._of_rows(
            tuple(f_lifts.data[atom_idx[g.name]] for g in wgens), lifts.cols
        )
        try:
            section = section_of_surjection(onto)
        except NotSurjective:
            raise NotQuasiIso(
                f"cycles of the quotient complex do not cover the fiber "
                f"generators in degree {t}; the endomorphism is not a "
                f"quasi-isomorphism there"
            ) from None

        g_matrix = Matrix._of_columns(g_vals_t, dgla.dim(t))

        for col, g in enumerate(wgens):
            xi = lifts.apply(section.column(col))
            target = list(f_t.apply(xi))
            target[atom_idx[g.name]] -= 1
            if any(target[i] for i in atom_idx.values()):
                raise ArithmeticError(
                    "correction term has a fiber-linear part; internal section bug"
                )
            if _nonzero_outside(target, inside_t):
                raise ArithmeticError(
                    "correction term escaped the filtration stage; internal bug"
                )
            g_corr = g_matrix.apply(tuple(target[j] for j in inside_t))
            images[g.name] = Element(t, vec_sub(xi, g_corr))

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
