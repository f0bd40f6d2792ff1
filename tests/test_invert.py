import random
from collections import Counter
from fractions import Fraction

import pytest

from dgla.dg import DGLAMorphism, Element, QuasiFreeDGLA
from dgla.errors import (
    BaseNotAutomorphism,
    DglaError,
    NotFiltered,
    NotMinimal,
    NotQuasiIso,
)
from dgla.exprs import parse_expr
from dgla.freelie import GradedGenerator, LiePoly, bracket
from dgla.invert import (
    FilteredEndo,
    invert_relative_quasi_iso,
    is_relative_automorphism,
)
from dgla.linalg import solve_pivot
from dgla.minimal import RelativeModel, Stage, is_minimal, verify_model

from helpers import (
    rand_coeff,
    rand_minimal_model,
    rand_relative_automorphism,
    reference_homology_check,
    reference_is_relative_automorphism,
    reference_staged_inverse,
)


def make_model(gens, diff, base, stages):
    dgla = QuasiFreeDGLA(
        [GradedGenerator(n, d) for n, d in gens],
        {n: LiePoly(parse_expr(t)) for n, t in diff.items()},
    )
    q = DGLAMorphism.identity(dgla)
    return RelativeModel(dgla, base, stages, q)


@pytest.fixture()
def flat_model():
    return make_model(
        [("x", 1), ("xp", 1), ("w", 2)],
        {},
        ("x", "xp"),
        (Stage((), ()), Stage(("w",), ())),
    )


def test_identity_inverts_to_identity(flat_model):
    g = invert_relative_quasi_iso(FilteredEndo.identity(flat_model), 3)
    for gen in flat_model.dgla.generators:
        assert g.image(gen.name) == flat_model.dgla.atom(gen.name)


def test_scaling_inverts_to_reciprocal(flat_model):
    alg = flat_model.dgla
    f = FilteredEndo(
        flat_model,
        {"w": Element(2, tuple(2 * c for c in alg.atom("w").coords))},
    )
    g = invert_relative_quasi_iso(f, 3)
    assert alg.element_expr(g.image("w")) == "1/2*w"


def test_unipotent_shift_inverts_exactly(flat_model):
    alg = flat_model.dgla
    shift = alg.element(
        LiePoly.gen("w") + bracket(LiePoly.gen("x"), LiePoly.gen("xp")), 2
    )
    f = FilteredEndo(flat_model, {"w": shift})
    assert is_relative_automorphism(f)
    g = invert_relative_quasi_iso(f, 3)
    assert alg.element_expr(g.image("w")) == "w - [x,xp]"
    # f o g and g o f are both the identity on generators
    for endo in (f.compose(g), g.compose(f)):
        for gen in alg.generators:
            assert endo.image(gen.name) == alg.atom(gen.name)


def test_base_automorphism_inverted(flat_model):
    alg = flat_model.dgla
    f = FilteredEndo(
        flat_model,
        {"x": alg.element(LiePoly.gen("x") + LiePoly.gen("xp"), 1)},
    )
    g = invert_relative_quasi_iso(f, 3)
    assert alg.element_expr(g.image("x")) == "x - xp"


def test_base_image_with_fiber_support_rejected():
    model = make_model(
        [("x", 1), ("u", 1), ("w", 1)],
        {},
        ("x", "u"),
        (Stage(("w",), ()),),
    )
    with pytest.raises(NotFiltered):
        FilteredEndo(model, {"x": model.dgla.atom("w")})
    # base-to-base images are fine
    FilteredEndo(model, {"x": model.dgla.atom("u")})


def test_base_image_with_a_mixed_bracket_rejected():
    # x has degree 2, so [u,w] is a degree-2 basis vector with a fiber letter
    model = make_model(
        [("x", 2), ("u", 1), ("w", 1)],
        {},
        ("x", "u"),
        (Stage(("w",), ()),),
    )
    alg = model.dgla
    x, u, w = LiePoly.gen("x"), LiePoly.gen("u"), LiePoly.gen("w")
    with pytest.raises(NotFiltered, match="'x' leaves the base subalgebra"):
        FilteredEndo(model, {"x": alg.element(x + bracket(u, w), 2)})
    FilteredEndo(model, {"x": alg.element(x + bracket(u, u), 2)})


def test_degree_two_base_block_inverted():
    # base x (1) and y (2): the degree-2 base block acts on y and [x,x]
    model = make_model(
        [("x", 1), ("y", 2), ("w", 3)],
        {},
        ("x", "y"),
        (Stage((), ()), Stage((), ()), Stage(("w",), ())),
    )
    alg = model.dgla
    x, y, w = LiePoly.gen("x"), LiePoly.gen("y"), LiePoly.gen("w")
    f = FilteredEndo(
        model,
        {
            "y": alg.element(2 * y + bracket(x, x), 2),
            "w": alg.element(w + bracket(x, y), 3),
        },
    )
    g = invert_relative_quasi_iso(f, 3)
    assert alg.element_expr(g.image("y")) == "1/2*y - 1/2*[x,x]"
    for endo in (f.compose(g), g.compose(f)):
        for gen in alg.generators:
            assert endo.image(gen.name) == alg.atom(gen.name)


def test_singular_base_rejected(flat_model):
    alg = flat_model.dgla
    f = FilteredEndo(
        flat_model,
        {"x": alg.atom("xp"), "xp": alg.atom("xp")},
    )
    with pytest.raises((BaseNotAutomorphism, NotQuasiIso)):
        invert_relative_quasi_iso(f, 3)


def test_non_quasi_iso_rejected(flat_model):
    f = FilteredEndo(flat_model, {"w": flat_model.dgla.zero(2)})
    with pytest.raises(NotQuasiIso):
        invert_relative_quasi_iso(f, 3)


def test_non_minimal_model_rejected():
    model = make_model(
        [("x", 1), ("w", 2), ("v", 3)],
        {"v": "w"},
        ("x",),
        (Stage((), ()), Stage(("w",), ("v",))),
    )
    with pytest.raises(NotMinimal):
        invert_relative_quasi_iso(FilteredEndo.identity(model), 3)


def test_is_relative_automorphism_cases(flat_model):
    alg = flat_model.dgla
    assert is_relative_automorphism(FilteredEndo.identity(flat_model))
    doubles_base = FilteredEndo(
        flat_model, {"x": Element(1, tuple(2 * c for c in alg.atom("x").coords))}
    )
    assert not is_relative_automorphism(doubles_base)
    shift = alg.element(
        LiePoly.gen("w") + bracket(LiePoly.gen("x"), LiePoly.gen("xp")), 2
    )
    assert is_relative_automorphism(FilteredEndo(flat_model, {"w": shift}))
    kills_fiber = FilteredEndo(flat_model, {"w": alg.zero(2)})
    assert not is_relative_automorphism(kills_fiber)


def test_inverse_on_model_with_nonzero_differential():
    model = make_model(
        [("x", 1), ("w", 2), ("v", 3)],
        {"v": "[x,x]"},
        ("x",),
        (Stage((), ()), Stage(("w",), ("v",))),
    )
    alg = model.dgla
    shift = alg.element(
        LiePoly.gen("w") + bracket(LiePoly.gen("x"), LiePoly.gen("x")), 2
    )
    f = FilteredEndo(model, {"w": shift})
    assert is_relative_automorphism(f)
    g = invert_relative_quasi_iso(f, 3)
    assert alg.element_expr(g.image("w")) == "w - [x,x]"
    for endo in (f.compose(g), g.compose(f)):
        for gen in alg.generators:
            assert endo.image(gen.name) == alg.atom(gen.name)


def test_random_automorphisms_invert_both_ways():
    rng = random.Random(202)
    done = 0
    while done < 5:
        model, _ = rand_minimal_model(rng, 3)
        if not model.fiber_names:
            continue
        bound = model.max_generator_degree()
        f = rand_relative_automorphism(rng, model, bound)
        g = invert_relative_quasi_iso(f, bound)
        alg = model.dgla
        for gen in alg.generators:
            assert f.apply(g.image(gen.name)) == alg.atom(gen.name)
            assert g.apply(f.image(gen.name)) == alg.atom(gen.name)
        done += 1


def test_double_inversion_returns_original():
    rng = random.Random(303)
    model, _ = rand_minimal_model(rng, 3)
    while not model.fiber_names:
        model, _ = rand_minimal_model(rng, 3)
    bound = model.max_generator_degree()
    f = rand_relative_automorphism(rng, model, bound)
    g = invert_relative_quasi_iso(f, bound)
    h = invert_relative_quasi_iso(g, bound)
    for gen in model.dgla.generators:
        assert h.image(gen.name) == f.image(gen.name)


def test_structure_map_after_a_relative_automorphism_is_still_a_model():
    # q o f is again a relative quasi-isomorphism that agrees with q on the base
    rng = random.Random(404)
    done = 0
    while done < 3:
        model, original = rand_minimal_model(rng, 3)
        if not model.fiber_names:
            continue
        bound = model.max_generator_degree()
        f = rand_relative_automorphism(rng, model, bound)
        twisted = RelativeModel(model.dgla, model.base_names, model.stages, model.q.compose(f))
        report = verify_model(twisted, 3, against=original)
        assert report.ok, (done, report.failed())
        # control: killing the fiber is no quasi-isomorphism, and it shows
        kill = FilteredEndo(model, {n: model.dgla.zero(model.degree_of(n)) for n in model.fiber_names})
        killed = RelativeModel(model.dgla, model.base_names, model.stages, model.q.compose(kill))
        assert not verify_model(killed, 3, against=original).ok
        done += 1


def _rand_base_automorphism(rng, model):
    """A random automorphism of the base, extended to a chain automorphism
    whose linear fiber part is the identity, or None when d forbids it.

    d = 0 on the base allows c*v plus brackets for each base generator v; an
    acyclic pair v0 = d v1 is scaled as a whole.  Each fiber generator w
    then goes to w + y with d y = f(dw) - dw, in increasing degree."""
    alg = model.dgla
    c = rng.choice([Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3)])
    images = {}
    for name in model.base_names:
        k = model.degree_of(name)
        coords = [c * a for a in alg.atom(name).coords]
        if not any(n in alg.differential for n in model.base_names):
            atoms = {alg.algebra.atom(n)[1] for n in model.base_names}
            for i in alg.algebra.sub_basis(k, model.base_names):
                if i not in atoms:
                    coords[i] += rand_coeff(rng)
        images[name] = Element(k, tuple(coords))
    for gen in sorted(model.fiber_generators, key=lambda g: g.degree):
        t = gen.degree
        atom = alg.atom(gen.name).coords
        dw = alg.d_matrix(t).apply(atom)
        fdw = FilteredEndo(model, images).apply(Element(t - 1, dw)).coords if t > 1 else ()
        y, _ = solve_pivot(alg.d_matrix(t), tuple(a - b for a, b in zip(fdw, dw)))
        if y is None:
            return None
        images[gen.name] = Element(t, tuple(a + b for a, b in zip(atom, y)))
    f = FilteredEndo(model, images)
    return f if f.is_chain_map() else None


def test_inverse_matches_the_staged_reference():
    rng = random.Random(505)
    done = moved_base = 0
    while done < 16:
        model, _ = rand_minimal_model(rng, 3)
        if not model.fiber_names:
            continue
        top = model.max_generator_degree()
        f = rand_relative_automorphism(rng, model, top)
        if rng.random() < 0.7:
            base = _rand_base_automorphism(rng, model)
            if base is not None:
                f = f.compose(base)
                moved_base += any(
                    f.image(n) != model.dgla.atom(n) for n in model.base_names
                )
        bound = max(1, top - rng.randrange(2))
        g = invert_relative_quasi_iso(f, bound)
        reference = reference_staged_inverse(f, bound)
        for gen in model.dgla.generators:
            assert g.image(gen.name) == reference.image(gen.name), (done, gen.name)
        done += 1
    assert moved_base >= 6


def test_singular_fiber_degree_is_no_quasi_iso(flat_model):
    # the fiber-killing endo is a chain map, and f_2 itself refuses it
    kills_fiber = FilteredEndo(flat_model, {"w": flat_model.dgla.zero(2)})
    with pytest.raises(NotQuasiIso, match="singular in degree 2"):
        invert_relative_quasi_iso(kills_fiber, 3)


def _singular_variants(rng, f):
    """f with one image broken: a fiber generator sent to 0, a base
    generator sent to 0, and a nonzero fiber atom of a fiber image scaled
    by 0."""
    model, alg = f.model, f.model.dgla
    w = rng.choice(model.fiber_names)
    variants = [{w: alg.zero(model.degree_of(w))}]
    if model.base_names:
        v = rng.choice(model.base_names)
        variants.append({v: alg.zero(model.degree_of(v))})
    image = f.image(w)
    atoms = [idx for _, idx in model.fiber_atom_indices(image.degree) if image.coords[idx]]
    if atoms:
        coords = list(image.coords)
        coords[rng.choice(atoms)] = 0
        variants.append({w: Element(image.degree, tuple(coords))})
    return [FilteredEndo(model, {**f.images, **change}) for change in variants]


def _refusal(run):
    """None when run() returns, else the exit code of the DglaError it raised."""
    try:
        run()
    except DglaError as e:
        return e.exit_code
    return None


def test_inversion_refuses_exactly_what_the_homology_test_refused():
    # the old rule: the H_i test on a chain map, then the same inversion
    rng = random.Random(606)
    seen = Counter()
    while seen["models"] < 30:
        model, _ = rand_minimal_model(rng, 3)
        if not model.fiber_names:
            continue
        assert is_minimal(model).is_minimal
        seen["models"] += 1
        top = model.max_generator_degree()
        f = rand_relative_automorphism(rng, model, top)
        bound = max(1, top - rng.randrange(2))
        for endo in [f, *_singular_variants(rng, f)]:
            new = _refusal(lambda: invert_relative_quasi_iso(endo, bound))
            by_homology = endo.is_chain_map() and _refusal(
                lambda: reference_homology_check(endo, bound)
            )
            old = by_homology or new
            assert new in (None, 2) and old in (None, 2)
            assert new == old, (seen["models"], new, old)
            seen["homology refused"] += bool(by_homology)
            if new is None:
                seen["accepted"] += 1
                g = invert_relative_quasi_iso(endo, bound)
                reference = reference_staged_inverse(endo, bound)
                for gen in model.dgla.generators:
                    assert g.image(gen.name) == reference.image(gen.name), gen.name
    assert seen["accepted"] >= 30 and seen["homology refused"] >= 15, seen


def _automorphism_variants(f):
    """f with one fiber image w changed, for every fiber generator w: its
    linear fiber part removed, the image doubled, the image replaced by a
    same-degree peer's, and (tagged "base") a base generator of w's degree
    without differential added to it."""
    model, alg = f.model, f.model.dgla
    _, d_images = alg.d_images()
    out = []
    for w in model.fiber_generators:
        image = f.image(w.name)
        coords = list(image.coords)
        for _, idx in model.fiber_atom_indices(w.degree):
            coords[idx] = 0
        doubled = tuple(2 * c for c in image.coords)
        changes = [Element(w.degree, tuple(coords)), Element(w.degree, doubled)]
        peers = [p for p in model.fiber_generators if p.degree == w.degree and p != w]
        changes += [f.image(p.name) for p in peers]
        out += [("fiber", FilteredEndo(model, {**f.images, w.name: el})) for el in changes]
        for v in model.base_generators:
            if v.degree == w.degree and alg.algebra.index_of(v.name) not in d_images:
                plus = tuple(a + b for a, b in zip(image.coords, alg.atom(v.name).coords))
                out.append(("base", FilteredEndo(model, {**f.images, w.name: Element(w.degree, plus)})))
    return out


def test_generator_rule_accepts_exactly_what_the_rank_rule_accepted():
    rng = random.Random(2002)
    seen = Counter()
    while seen["models"] < 60:
        model, _ = rand_minimal_model(rng, 3)
        if not model.fiber_names:
            continue
        seen["models"] += 1
        f = rand_relative_automorphism(rng, model, model.max_generator_degree())
        for kind, endo in [("fiber", f), *_automorphism_variants(f)]:
            new = is_relative_automorphism(endo)
            assert new == reference_is_relative_automorphism(endo), (seen["models"], kind)
            seen[f"{kind} accepted" if new else f"{kind} refused"] += 1
            seen["singular chain maps"] += endo.is_chain_map() and not new
            if kind == "base":
                # the linear base part leaves the fiber block as it was
                assert new == endo.is_chain_map()
    assert seen["fiber accepted"] >= 60 and seen["singular chain maps"] >= 40, seen
    assert seen["base accepted"] >= 5, seen


def test_relative_automorphism_test_builds_no_matrix_of_l_k(monkeypatch):
    # fresh endos, accepted and refused, so no matrix is cached beforehand
    rng = random.Random(19)
    endos = []
    while len(endos) < 10:
        model, _ = rand_minimal_model(rng, 3)
        if model.fiber_names:
            f = rand_relative_automorphism(rng, model, model.max_generator_degree())
            w = model.fiber_generators[0]
            endos.append(FilteredEndo(model, dict(f.images)))
            endos.append(FilteredEndo(model, {**f.images, w.name: model.dgla.zero(w.degree)}))
    calls = Counter()
    matrix = DGLAMorphism.matrix

    def counted(self, k):
        calls[k] += 1
        return matrix(self, k)

    monkeypatch.setattr(DGLAMorphism, "matrix", counted)
    verdicts = [is_relative_automorphism(endo) for endo in endos]
    assert not calls
    assert verdicts.count(True) >= 5 and False in verdicts
