"""Relative models with base: minimality, the staged construction, verification.

A relative model is a free dg Lie algebra on base generators V plus staged
fiber generators W, together with a structure map q to a target dg Lie
algebra.  Stage n contributes A-generators in degree n (killed by d) that
make H_n(q) surjective and B-generators in degree n+1 whose differentials
kill the kernel of H_n(q).  All the "choose a section" steps of the
construction are pinned to the rref pivot rule, so rebuilding from the same
input reproduces the same model byte for byte.

One deliberate deviation from the construction as usually stated: the
structure map must commute with the differentials, so a B-generator b with
d(b) = z cannot always be sent to zero; q(b) is the canonical preimage of
q(z) under the target differential (which exists exactly because [z] dies in
the target).  When q(z) = 0 this reduces to q(b) = 0.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .dg import DGLAMorphism, Element, QuasiFreeDGLA, induced_map_on_homology, require_valid, validate
from .errors import DegreeBoundTooSmall, FormatError, NotAChainMap
from .freelie import GradedGenerator, LiePoly
from .linalg import Matrix, Subspace, dense_vector, kernel_basis, solve_pivot

_STAGE_NAME = re.compile(r"^[ab]_\d+_\d+$")


class Stage(NamedTuple):
    A: tuple[str, ...]
    B: tuple[str, ...]


class MinimalityReport(NamedTuple):
    witnesses: tuple[tuple[str, LiePoly], ...]

    @property
    def is_minimal(self) -> bool:
        return not self.witnesses


class ModelReport(NamedTuple):
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failed(self) -> tuple[tuple[str, bool, str], ...]:
        return tuple(c for c in self.checks if not c[1])


class RelativeModel:
    """L(V + W) with marked base V, staged fiber W, and structure map q."""

    def __init__(
        self,
        dgla: QuasiFreeDGLA,
        base_names: tuple[str, ...],
        stages: tuple[Stage, ...],
        q: DGLAMorphism,
    ):
        self.dgla = dgla
        self.base_names = tuple(base_names)
        self.stages = tuple(stages)
        self.q = q
        if q.source is not dgla:
            raise FormatError("structure map must be defined on the model algebra")
        expected = list(self.base_names)
        for stage in self.stages:
            expected.extend(stage.A)
            expected.extend(stage.B)
        actual = [g.name for g in dgla.generators]
        if actual != expected:
            raise FormatError(
                "generator order must list the base, then each stage's "
                "A-generators followed by its B-generators"
            )
        self._by_name = {g.name: g for g in dgla.generators}
        self._minimality: MinimalityReport | None = None
        self.base_generators = tuple(self._by_name[n] for n in self.base_names)
        base = set(self.base_names)
        self.fiber_names = tuple(g.name for g in dgla.generators if g.name not in base)
        self.fiber_generators = tuple(self._by_name[n] for n in self.fiber_names)

    @property
    def target(self):
        return self.q.target

    def degree_of(self, name: str) -> int:
        return self._by_name[name].degree

    def max_generator_degree(self) -> int:
        return self.dgla.max_generator_degree()

    def fiber_atom_indices(self, k: int) -> tuple[tuple[str, int], ...]:
        """(fiber generator, its basis index) pairs in the degree-k basis."""
        return tuple(
            (g.name, self.dgla.algebra.atom(g.name)[1])
            for g in self.fiber_generators
            if g.degree == k
        )

    def linear_fiber_part(self, el: Element) -> dict[str, Fraction]:
        """The nonzero coefficients of el at the fiber generators, by name."""
        pairs = self.fiber_atom_indices(el.degree)
        return {name: el.coords[idx] for name, idx in pairs if el.coords[idx]}


def is_minimal(model: RelativeModel) -> MinimalityReport:
    """Project each fiber differential onto the linear span of the fiber.

    Linear base terms are fine (the projection kills them); a witness is a
    fiber generator whose differential has a nonzero linear fiber part.  The
    differentials are read through `d_images`, which drops those that vanish
    in the free Lie algebra.  The report is memoized single-assignment on
    the model, so a command that checks minimality on several paths computes
    it once.
    """
    if model._minimality is not None:
        return model._minimality
    algebra = model.dgla.algebra
    scale, d_images = model.dgla.d_images()
    witnesses = []
    for g in model.fiber_generators:
        vec = d_images.get(algebra.index_of(g.name))
        if vec is None or g.degree - 1 < 1:
            continue
        coords = algebra.basis_coords(g.degree - 1, vec, scale)
        part = model.linear_fiber_part(Element(g.degree - 1, coords))
        if part:
            witnesses.append((g.name, LiePoly([(c, name) for name, c in part.items()])))
    model._minimality = MinimalityReport(tuple(witnesses))
    return model._minimality


def build_minimal_model(f: DGLAMorphism, bound: int) -> RelativeModel:
    """Construct the minimal relative model of f: L(V) -> g, staged to `bound`.

    After stage k the structure map is an H_i-isomorphism for i <= k; the
    result is minimal and extends f.  All sections are pivot-rule canonical,
    so the output is deterministic.
    """
    if bound < 1:
        raise DegreeBoundTooSmall("the degree bound must be at least 1")
    source, target = f.source, f.target
    require_valid(source)
    require_valid(target)
    if not f.is_chain_map():
        raise NotAChainMap(
            "input map does not commute with the differentials on "
            + ", ".join(f.chain_defects())
        )
    for g in source.generators:
        if _STAGE_NAME.match(g.name):
            raise FormatError(
                f"base generator name {g.name!r} collides with the reserved "
                "stage naming scheme a_<stage>_<index> / b_<stage>_<index>"
            )

    gens = list(source.generators)
    diffs = dict(source.differential)
    qimages = dict(f.images)
    base_names = tuple(g.name for g in source.generators)
    stages: list[Stage] = []

    # One algebra and structure map per generator set: a stage that adds no
    # generator keeps both, with their memoized bases, d-matrices and homology.
    current = QuasiFreeDGLA(gens, diffs)
    q = DGLAMorphism(current, target, qimages)
    for k in range(1, bound + 1):
        h_model = current.homology(k)
        h_target = target.homology(k)
        hq = induced_map_on_homology(q, k)

        # The cokernel of H_k(q) is spanned by the classes at the non-pivot
        # coordinates of its image; each is represented by that rep.
        image = set(Subspace._spanned(h_target.dim, hq._columns).pivots)
        coker_reps = [rep for c, rep in enumerate(h_target.reps._columns) if c not in image]
        a_names = []
        for i, rep in enumerate(coker_reps):
            name = f"a_{k}_{i}"
            a_names.append(name)
            gens.append(GradedGenerator(name, k))
            qimages[name] = Element(k, dense_vector(rep, target.dim(k)))

        kernel = kernel_basis(hq)
        b_names = []
        for j, kappa in enumerate(kernel._rows):
            name = f"b_{k}_{j}"
            b_names.append(name)
            gens.append(GradedGenerator(name, k + 1))
            cycle = Element(k, dense_vector(h_model.reps._combine(kappa.items()), current.dim(k)))
            diffs[name] = current.poly(cycle)
            eta, _ = solve_pivot(target.d_matrix(k + 1), q.apply(cycle).coords)
            if eta is None:
                raise ArithmeticError(
                    "structure-map value of a kernel cycle is not a boundary; "
                    "this indicates an internal homology bug"
                )
            qimages[name] = Element(k + 1, eta)
        stages.append(Stage(tuple(a_names), tuple(b_names)))
        if a_names or b_names:
            current = QuasiFreeDGLA(gens, diffs)
            q = DGLAMorphism(current, target, qimages)

    return RelativeModel(current, base_names, tuple(stages), q)


def verify_model(
    model: RelativeModel, bound: int, against: DGLAMorphism | None = None
) -> ModelReport:
    """Re-check every posted property of a relative model, independently.

    Covers: well-formedness of both algebras, the staged degree layout, the
    KS chain condition (each stage's differentials land in cycles of the
    earlier stages), the three staged-construction constraints checked below
    as condition-d (A-generators are killed by d), condition-e (B-generator
    differentials avoid the previous stage's B-generators and the whole
    current stage) and condition-f (d is injective on each stage's B-span),
    minimality, the structure map being a chain map, agreement with the
    original map on the base (when given), and H_i(q) being an isomorphism
    for i <= bound.

    Every check of the generators d uses reads `d_images`, so a given
    differential that vanishes in L uses no generator.
    """
    checks: list[tuple[str, bool, str]] = []

    report = validate(model.dgla)
    checks.append(("algebra-valid", report.ok, report.first or ""))
    treport = validate(model.target)
    checks.append(("target-valid", treport.ok, treport.first or ""))
    if not report.ok or not treport.ok:
        return ModelReport(tuple(checks))

    layout_bad = []
    for n, stage in enumerate(model.stages, start=1):
        for name in stage.A:
            if model.degree_of(name) != n:
                layout_bad.append(f"{name} should have degree {n}")
        for name in stage.B:
            if model.degree_of(name) != n + 1:
                layout_bad.append(f"{name} should have degree {n + 1}")
    checks.append(("stage-degrees", not layout_bad, "; ".join(layout_bad)))

    # d_images holds scale * d, which has the letters and the ranks of d
    algebra = model.dgla.algebra
    _, d_images = model.dgla.d_images()
    uses = {
        name: algebra.letters(d_images.get(algebra.index_of(name), {}))
        for name in algebra.names()
    }

    base = set(model.base_names)
    bad = [v for v in model.base_names if not uses[v] <= base]
    checks.append(
        ("base-subalgebra", not bad, f"d leaves the base on {', '.join(bad)}" if bad else "")
    )

    ks_bad = []
    allowed = set(base)
    for stage in model.stages:
        ks_bad.extend(name for name in stage.A + stage.B if not uses[name] <= allowed)
        allowed.update(stage.A + stage.B)
    checks.append(
        (
            "ks-chain",
            not ks_bad,
            f"differential uses later-stage generators on {', '.join(ks_bad)}"
            if ks_bad
            else "",
        )
    )

    da_bad = [name for stage in model.stages for name in stage.A if uses[name]]
    checks.append(
        ("condition-d", not da_bad, f"d nonzero on {', '.join(da_bad)}" if da_bad else "")
    )

    e_bad = []
    for n, stage in enumerate(model.stages, start=1):
        veto = set(stage.A) | set(stage.B)
        if n >= 2:
            veto |= set(model.stages[n - 2].B)
        e_bad.extend(name for name in stage.B if uses[name] & veto)
    checks.append(
        (
            "condition-e",
            not e_bad,
            f"forbidden generators in d of {', '.join(e_bad)}" if e_bad else "",
        )
    )

    f_bad = []
    for n, stage in enumerate(model.stages, start=1):
        if not stage.B:
            continue
        cols = [
            algebra.sparse_coords(n, d_images.get(algebra.index_of(name), {}))
            for name in stage.B
        ]
        if Matrix._of_columns(cols, model.dgla.dim(n)).rank() != len(stage.B):
            f_bad.append(str(n))
    checks.append(
        (
            "condition-f",
            not f_bad,
            f"d not injective on the B-span of stage {', '.join(f_bad)}"
            if f_bad
            else "",
        )
    )

    minreport = is_minimal(model)
    checks.append(
        (
            "minimal",
            minreport.is_minimal,
            ""
            if minreport.is_minimal
            else "linear fiber part in d of "
            + ", ".join(name for name, _ in minreport.witnesses),
        )
    )

    qchain = model.q.is_chain_map()
    checks.append(
        (
            "structure-map-chain",
            qchain,
            "" if qchain else "q fails to commute with d on "
            + ", ".join(model.q.chain_defects()),
        )
    )

    if against is not None:
        mismatches = []
        src_gens = {g.name: g.degree for g in against.source.generators}
        if {n: model.degree_of(n) for n in model.base_names} != src_gens:
            mismatches.append("base generators differ from the map's source")
        else:
            for name in model.base_names:
                d_model = model.dgla.differential.get(name, LiePoly.zero())
                d_src = against.source.differential.get(name, LiePoly.zero())
                _, a = model.dgla.algebra.embed(d_model)
                _, b = model.dgla.algebra.embed(d_src)
                if a != b:
                    mismatches.append(f"base differential differs on {name}")
                if model.q.images[name] != against.images[name]:
                    mismatches.append(f"q({name}) != f({name})")
        checks.append(("restricts-to-f", not mismatches, "; ".join(mismatches)))

    iso_bad = []
    if qchain:
        for i in range(1, bound + 1):
            hq = induced_map_on_homology(model.q, i)
            if hq.rows != hq.cols:
                iso_bad.append(f"H_{i}(q) is {hq.rows}x{hq.cols}")
            elif hq.rank() != hq.rows:
                iso_bad.append(f"H_{i}(q) is singular")
    else:
        iso_bad.append("structure map is not a chain map")
    checks.append(("quasi-iso", not iso_bad, "; ".join(iso_bad)))

    return ModelReport(tuple(checks))
