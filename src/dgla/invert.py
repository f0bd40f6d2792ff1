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
"""

from __future__ import annotations

from fractions import Fraction

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
from .freelie import LiePoly
from .linalg import (
    Matrix,
    Subspace,
    invert,
    kernel_basis,
    quotient_data,
    section_of_surjection,
    solve_pivot,
    unit_vector,
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
        base = set(model.base_names)
        algebra = dgla.algebra
        for name in model.base_names:
            vec = algebra.tensor_of(full[name].degree, full[name].coords)
            if any(algebra.generators[i].name not in base for w in vec for i in w):
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


def _base_inverse_images(f: FilteredEndo) -> dict[str, Element]:
    """Invert the restriction of f to the base subalgebra, per degree."""
    model = f.model
    base_alg = model.sub_algebra(model.base_names)
    images: dict[str, Element] = {}
    degrees = sorted({g.degree for g in model.base_generators})
    for m in degrees:
        basis = base_alg.degree_basis(m)
        cols = []
        for tree in basis.monomials:
            val = f.eval_tree(tree)
            poly = model.dgla.poly(val)
            _, coords = base_alg.normalize(poly, m)
            cols.append(coords)
        fm = Matrix._of_columns(cols, basis.dim)
        try:
            inv = invert(fm)
        except ValueError:
            raise BaseNotAutomorphism(
                f"restriction of the endomorphism to the base is singular "
                f"in degree {m}"
            ) from None
        for g in model.base_generators:
            if g.degree != m:
                continue
            _, idx = base_alg.atom(g.name)
            coords = inv.apply(unit_vector(basis.dim, idx))
            poly = base_alg.poly_of_coords(m, coords)
            images[g.name] = model.dgla.element(poly, m)
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

    fiber_degrees = sorted(
        {g.degree for g in model.fiber_generators if g.degree <= bound}
    )
    for t in fiber_degrees:
        k = t - 1
        sub_names = model.generators_up_to(k)
        sub = model.sub_algebra(sub_names)
        g_cur = FilteredEndo(model, images)

        def sub_data(m: int):
            if m < 1:
                return [], [], Subspace(0)
            trees = sub.degree_basis(m).monomials
            g_vals = [g_cur.eval_tree(tree).coords for tree in trees]
            return list(trees), g_vals, Subspace._spanned(dgla.dim(m), g_vals)

        trees_t, g_vals_t, s_t = sub_data(t)
        _, _, s_k = sub_data(k)

        proj_t, reps_t = quotient_data(dgla.dim(t), s_t)
        proj_k, _ = quotient_data(dgla.dim(k) if k >= 1 else 0, s_k)
        lift_t = Matrix._of_columns(reps_t, dgla.dim(t))
        d_t = dgla.d_matrix(t)
        dbar = proj_k.mul(d_t).mul(lift_t)
        zbar = kernel_basis(dbar)

        wgens = [g for g in model.fiber_generators if g.degree == t]
        atom_idx = {g.name: dgla.algebra.atom(g.name)[1] for g in wgens}
        f_t = f.matrix(t)
        lifts = [lift_t.apply(z) for z in zbar.basis]
        f_lifts = [f_t.apply(v) for v in lifts]
        onto = Matrix._of_rows(
            tuple(tuple(fl[atom_idx[g.name]] for fl in f_lifts) for g in wgens),
            len(lifts),
        )
        try:
            section = section_of_surjection(onto)
        except NotSurjective:
            raise NotQuasiIso(
                f"cycles of the quotient complex do not cover the fiber "
                f"generators in degree {t}; the endomorphism is not a "
                f"quasi-isomorphism there"
            ) from None

        sub_matrix = Matrix._of_columns(
            [dgla.element(LiePoly([(Fraction(1), tree)]), t).coords for tree in trees_t],
            dgla.dim(t),
        )
        g_matrix = Matrix._of_columns(g_vals_t, dgla.dim(t))

        for col, g in enumerate(wgens):
            combo = section.column(col)
            xi = [Fraction(0)] * dgla.dim(t)
            for c, lift in zip(combo, lifts):
                if c != 0:
                    for j, a in enumerate(lift):
                        xi[j] += c * a
            fxi = f_t.apply(xi)
            target = list(fxi)
            target[atom_idx[g.name]] -= 1
            for other in wgens:
                if target[atom_idx[other.name]] != 0:
                    raise ArithmeticError(
                        "correction term has a fiber-linear part; internal "
                        "section bug"
                    )
            coords = solve_pivot(sub_matrix, tuple(target))
            if coords is None:
                raise ArithmeticError(
                    "correction term escaped the filtration stage; internal bug"
                )
            g_corr = g_matrix.apply(coords)
            images[g.name] = Element(t, vec_sub(tuple(xi), g_corr))

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
