import random
from fractions import Fraction

import pytest

from dgla.dg import DGLAMorphism, Element, FiniteDimDGLA, QuasiFreeDGLA
from dgla.errors import (
    DegreeBoundExceeded,
    NotRelativeAutomorphism,
    NotUnipotentRelative,
    NotWordLengthRaising,
)
from dgla.exprs import parse_expr
from dgla.freelie import GradedGenerator, LiePoly, bracket
from dgla.homotopy import (
    RelDerivation,
    are_homotopic_rel,
    der_boundary_matrix,
    der_space,
    derivation_basis,
    exp_derivation,
    log_unipotent,
    pi0_report,
)
from dgla.invert import FilteredEndo, invert_relative_quasi_iso
from dgla import homotopy, minimal
from dgla.minimal import RelativeModel, Stage, build_minimal_model

from helpers import (
    der_subspaces,
    rand_minimal_model,
    rand_relative_automorphism,
    sample_exp_candidate,
    tree_degree,
)


def make_model(gens, diff, base, stages):
    dgla = QuasiFreeDGLA(
        [GradedGenerator(n, d) for n, d in gens],
        {n: LiePoly(parse_expr(t)) for n, t in diff.items()},
    )
    return RelativeModel(dgla, base, stages, DGLAMorphism.identity(dgla))


@pytest.fixture()
def flat_model():
    # base x (deg 1, d=0), fiber w (deg 2, d=0)
    return make_model(
        [("x", 1), ("w", 2)], {}, ("x",), (Stage((), ()), Stage(("w",), ()))
    )


@pytest.fixture()
def cycle_model():
    # base x; fibers w (deg 2, d=0) and v (deg 3, dv=[x,x]): B_0 is nontrivial
    return make_model(
        [("x", 1), ("w", 2), ("v", 3)],
        {"v": "[x,x]"},
        ("x",),
        (Stage((), ()), Stage(("w",), ("v",))),
    )


def test_der_basis_dims_flat(flat_model):
    data = derivation_basis(flat_model, 0, 3)
    assert data.dim == 2  # w can go to w or [x,x]
    z0, b0 = der_subspaces(data)
    assert (z0.dim, b0.dim) == (2, 0)
    assert data.dims() == {"der0": 2, "z0": 2, "b0": 0, "h0": 2}


def test_der_basis_negative_degree(flat_model):
    assert derivation_basis(flat_model, -2, 3).dim == 0


def test_der_basis_no_fibers():
    model = make_model([("x", 1)], {}, ("x",), ())
    for r in (-1, 0, 1):
        assert derivation_basis(model, r, 3).dim == 0


def test_boundary_matrix_squares_to_zero(cycle_model):
    out0 = der_boundary_matrix(cycle_model, 0)
    in0 = der_boundary_matrix(cycle_model, 1)
    assert out0.mul(in0).is_zero()


def test_cycles_and_boundaries_with_differential(cycle_model):
    data = derivation_basis(cycle_model, 0, 3)
    z0, b0 = der_subspaces(data)
    assert b0.dim == 1
    assert z0.dim == 3
    assert data.dims() == {"der0": data.dim, "z0": 3, "b0": 1, "h0": 2}
    # every boundary is a cycle
    for vec in b0.basis:
        assert z0.contains(vec)


def test_exp_zero_is_identity(flat_model):
    u = exp_derivation(RelDerivation.zero(flat_model), 3)
    for g in flat_model.dgla.generators:
        assert u.image(g.name) == flat_model.dgla.atom(g.name)


def test_exp_of_square_zero_derivation(flat_model):
    alg = flat_model.dgla
    delta = RelDerivation(
        flat_model,
        0,
        {"w": alg.element(bracket(LiePoly.gen("x"), LiePoly.gen("x")), 2)},
    )
    u = exp_derivation(delta, 3)
    assert alg.element_expr(u.image("w")) == "w + [x,x]"
    # delta^2(w) = 0, so the series stops after the linear term
    assert delta.matrix(2).apply(delta.image("w").coords) == (Fraction(0),) * alg.dim(2)


def test_exp_rejects_linear_fiber_part(flat_model):
    delta = RelDerivation(flat_model, 0, {"w": flat_model.dgla.atom("w")})
    with pytest.raises(NotWordLengthRaising):
        exp_derivation(delta, 3)


def test_exp_inverse_law(flat_model):
    alg = flat_model.dgla
    delta = RelDerivation(
        flat_model,
        0,
        {"w": alg.element(3 * bracket(LiePoly.gen("x"), LiePoly.gen("x")), 2)},
    )
    minus = RelDerivation(
        flat_model, 0, {"w": Element(2, tuple(-c for c in delta.image("w").coords))}
    )
    u = exp_derivation(delta, 3).compose(exp_derivation(minus, 3))
    for g in alg.generators:
        assert u.image(g.name) == alg.atom(g.name)


def test_exp_double_is_exp_of_twice(flat_model):
    alg = flat_model.dgla
    delta = RelDerivation(
        flat_model,
        0,
        {"w": alg.element(bracket(LiePoly.gen("x"), LiePoly.gen("x")), 2)},
    )
    twice = RelDerivation(
        flat_model, 0, {"w": Element(2, tuple(2 * c for c in delta.image("w").coords))}
    )
    lhs = exp_derivation(delta, 3).compose(exp_derivation(delta, 3))
    rhs = exp_derivation(twice, 3)
    for g in alg.generators:
        assert lhs.image(g.name) == rhs.image(g.name)


def test_log_identity_is_zero(flat_model):
    theta = log_unipotent(FilteredEndo.identity(flat_model), 3)
    assert theta.is_zero()


def test_log_of_shift(flat_model):
    alg = flat_model.dgla
    u = FilteredEndo(
        flat_model,
        {"w": alg.element(
            LiePoly.gen("w") + bracket(LiePoly.gen("x"), LiePoly.gen("x")), 2
        )},
    )
    theta = log_unipotent(u, 3)
    assert alg.element_expr(theta.image("w")) == "[x,x]"


def test_exp_and_log_sum_their_series_past_the_square(flat_model):
    # delta^3(u) = [y,[x,[x,y]]] != 0, so the coefficients 1/p! and
    # (-1)^(p+1)/p are read at p = 3, where 1/p! and 1/p differ
    model = make_model(
        [("x", 1), ("y", 1), ("w", 2), ("v", 3), ("u", 4)],
        {},
        ("x", "y"),
        (Stage((), ()), Stage(("w",), ()), Stage(("v",), ()), Stage(("u",), ())),
    )
    alg = model.dgla

    def el(text, degree):
        return alg.element(LiePoly(parse_expr(text)), degree)

    delta = RelDerivation(
        model, 0, {"w": el("[x,y]", 2), "v": el("[x,w]", 3), "u": el("[y,v]", 4)}
    )
    step = delta.matrix(4).apply
    assert any(step(step(step(alg.atom("u").coords))))
    u = exp_derivation(delta, 4)
    assert u.image("w") == el("w + [x,y]", 2)
    assert u.image("v") == el("v + [x,w] + 1/2*[x,[x,y]]", 3)
    assert u.image("u") == el("u + [y,v] + 1/2*[y,[x,w]] + 1/6*[y,[x,[x,y]]]", 4)
    assert log_unipotent(u, 4) == delta


def test_log_rejects_base_motion(flat_model):
    alg = flat_model.dgla
    u = FilteredEndo(
        flat_model, {"x": Element(1, tuple(2 * c for c in alg.atom("x").coords))}
    )
    with pytest.raises(NotUnipotentRelative):
        log_unipotent(u, 3)


def test_log_rejects_fiber_scaling(flat_model):
    alg = flat_model.dgla
    u = FilteredEndo(
        flat_model, {"w": Element(2, tuple(2 * c for c in alg.atom("w").coords))}
    )
    with pytest.raises(NotUnipotentRelative):
        log_unipotent(u, 3)


def test_exp_log_round_trip_random():
    rng = random.Random(404)
    done = 0
    while done < 12:
        model, _ = rand_minimal_model(rng, 3)
        if not model.fiber_names:
            continue
        bound = model.max_generator_degree()
        delta = sample_exp_candidate(rng, model, bound)
        if delta is None:
            continue
        u = exp_derivation(delta, bound)
        assert log_unipotent(u, bound) == delta
        done += 1


def test_log_exp_round_trip_on_unipotents(cycle_model):
    alg = cycle_model.dgla
    u = FilteredEndo(
        cycle_model,
        {
            "w": alg.element(
                LiePoly.gen("w") - 2 * bracket(LiePoly.gen("x"), LiePoly.gen("x")), 2
            ),
            "v": alg.element(
                LiePoly.gen("v") + bracket(LiePoly.gen("x"), LiePoly.gen("w")), 3
            ),
        },
    )
    theta = log_unipotent(u, 3)
    back = exp_derivation(theta, 3)
    for g in alg.generators:
        assert back.image(g.name) == u.image(g.name)


def test_homotopic_to_itself(cycle_model):
    f = FilteredEndo.identity(cycle_model)
    verdict = are_homotopic_rel(f, f, 3)
    assert verdict.equivalent
    assert verdict.witness is not None and verdict.witness.is_zero()


def test_boundary_twist_is_equivalent(cycle_model):
    # G(w) = v gives [d,G](w) = [x,x]; exp of it is w -> w + [x,x]
    alg = cycle_model.dgla
    space1 = der_space(cycle_model, 1)
    g_der = RelDerivation(cycle_model, 1, {"w": alg.atom("v")})
    boundary = der_boundary_matrix(cycle_model, 1).apply(space1.pack(g_der))
    delta = der_space(cycle_model, 0).unpack(boundary)
    assert alg.element_expr(delta.image("w")) == "[x,x]"
    f = FilteredEndo.identity(cycle_model)
    twisted = f.compose(exp_derivation(delta, 3))
    verdict = are_homotopic_rel(f, twisted, 3)
    assert verdict.equivalent
    witness = verdict.witness
    # the witness satisfies [d, witness] = log(f o twisted^{-1}) exactly
    theta_vec = der_boundary_matrix(cycle_model, 1).apply(space1.pack(witness))
    u = f.compose(invert_relative_quasi_iso(twisted, 3))
    logu = log_unipotent(u, 3)
    assert der_space(cycle_model, 0).pack(logu) == theta_vec


def test_equivalence_checks_minimality_once(cycle_model, monkeypatch):
    # are_homotopic_rel and the inversion it runs read one memoized report
    reports = []
    report = minimal.MinimalityReport

    def counted(witnesses):
        reports.append(witnesses)
        return report(witnesses)

    monkeypatch.setattr(minimal, "MinimalityReport", counted)
    f = FilteredEndo.identity(cycle_model)
    assert are_homotopic_rel(f, f, 3).equivalent
    assert len(reports) == 1


def _verdict_path(verdict):
    if verdict.equivalent:
        return "witness"
    return "linear part" if "linear part" in verdict.reason else "not a boundary"


@pytest.mark.parametrize(
    "name, image, path",
    [
        ("w", "w + [x,x]", "witness"),
        ("v", "v + [x,w]", "not a boundary"),
        ("w", "2*w", "linear part"),
    ],
)
def test_equivalent_eliminates_boundary_in_once(cycle_model, monkeypatch, name, image, path):
    # the solve of [boundary_in | log(u)] gives b0 as well, and the
    # linear-part verdict ranks boundary_in for its dims alone
    from dgla import linalg

    into = der_boundary_matrix(cycle_model, 1)
    into_rows = linalg._transpose(into._columns, into.rows)
    calls = []
    echelon = linalg._echelon

    def recorded(rows):
        rows = list(rows)
        calls.append([{k: x for k, x in row.items() if k < into.cols} for row in rows])
        return echelon(rows)

    monkeypatch.setattr(linalg, "_echelon", recorded)
    alg = cycle_model.dgla
    endo = FilteredEndo(
        cycle_model, {name: alg.element(LiePoly(parse_expr(image)), cycle_model.degree_of(name))}
    )
    verdict = are_homotopic_rel(endo, FilteredEndo.identity(cycle_model), 3)
    assert _verdict_path(verdict) == path
    assert verdict.dims == {"der0": into.rows, "z0": 3, "b0": 1, "h0": 2}
    assert calls.count(into_rows) == 1


def test_scaling_is_not_equivalent(cycle_model):
    alg = cycle_model.dgla
    f = FilteredEndo.identity(cycle_model)
    scale = FilteredEndo(
        cycle_model, {"w": Element(2, tuple(2 * c for c in alg.atom("w").coords))}
    )
    verdict = are_homotopic_rel(f, f.compose(scale), 3)
    assert not verdict.equivalent
    assert "linear part" in verdict.reason


def test_cycle_but_not_boundary_is_not_equivalent(flat_model):
    alg = flat_model.dgla
    delta = RelDerivation(
        flat_model,
        0,
        {"w": alg.element(bracket(LiePoly.gen("x"), LiePoly.gen("x")), 2)},
    )
    verdict = are_homotopic_rel(
        exp_derivation(delta, 3), FilteredEndo.identity(flat_model), 3
    )
    assert not verdict.equivalent
    assert "not a boundary" in verdict.reason


def test_non_automorphism_rejected(flat_model):
    bad = FilteredEndo(flat_model, {"w": flat_model.dgla.zero(2)})
    with pytest.raises(NotRelativeAutomorphism):
        are_homotopic_rel(bad, FilteredEndo.identity(flat_model), 3)


def test_equivalence_symmetry_and_transitivity():
    rng = random.Random(77)
    done = 0
    while done < 3:
        model, _ = rand_minimal_model(rng, 3)
        if not model.fiber_names:
            continue
        bound = model.max_generator_degree()
        f = rand_relative_automorphism(rng, model, bound)
        g = rand_relative_automorphism(rng, model, bound)
        v_fg = are_homotopic_rel(f, g, bound)
        v_gf = are_homotopic_rel(g, f, bound)
        assert v_fg.equivalent == v_gf.equivalent
        assert are_homotopic_rel(f, f, bound).equivalent
        done += 1


def test_equivalent_takes_the_log_without_log_unipotent(cycle_model, monkeypatch):
    """u = f o g^-1 is checked once; the public log's checks do not rerun."""

    def refuse(*args):
        raise AssertionError("log_unipotent called on the equivalent path")

    monkeypatch.setattr(homotopy, "log_unipotent", refuse)
    f = FilteredEndo.identity(cycle_model)
    verdict = are_homotopic_rel(f, f, 3)
    assert verdict.equivalent and verdict.witness is not None


def test_equivalent_refuses_a_bound_below_a_base_generator():
    # the fiber generator w fits under the bound 3, the base generator y not
    model = make_model(
        [("x", 1), ("y", 4), ("w", 2)],
        {},
        ("x", "y"),
        (Stage((), ()), Stage(("w",), ())),
    )
    f = FilteredEndo.identity(model)
    with pytest.raises(DegreeBoundExceeded, match="maximal generator degree"):
        are_homotopic_rel(f, f, 3)
    assert are_homotopic_rel(f, f, 4).equivalent


@pytest.mark.parametrize("scale", [1, 2], ids=["id", "w-to-2w"])
def test_equivalent_refuses_a_low_bound_before_any_verdict(scale):
    # L(x, y | w) with x, y of degree 1, 4 in the base: whether f o g^-1
    # moves w or not, the bound 2 below |y| is refused, never a verdict
    model = make_model(
        [("x", 1), ("y", 4), ("w", 2)],
        {},
        ("x", "y"),
        (Stage((), ()), Stage(("w",), ())),
    )
    w = model.dgla.atom("w")
    f = FilteredEndo(model, {"w": Element(2, tuple(scale * c for c in w.coords))})
    g = FilteredEndo.identity(model)
    with pytest.raises(DegreeBoundExceeded, match="maximal generator degree"):
        are_homotopic_rel(f, g, 2)
    assert are_homotopic_rel(f, g, 4).equivalent == (scale == 1)


def test_pi0_report_counts_a_base_with_brackets():
    # up to degree 3 the stage is x; y, [x,x]; w, [x,y] and the base is all
    # of it but w, so fixesBase counts 4 base vectors against 5
    model = make_model(
        [("x", 1), ("y", 2), ("w", 3)],
        {},
        ("x", "y"),
        (Stage((), ()), Stage((), ()), Stage(("w",), ())),
    )
    report = pi0_report(model, 3)
    assert report["sigmaDimension"] == 5
    assert report["conditions"]["fixesBase"] == 4 * 5


def test_pi0_report_no_fibers():
    model = make_model([("x", 1)], {}, ("x",), ())
    report = pi0_report(model, 3)
    assert report["derivations"] == {"der0": 0, "z0": 0, "b0": 0, "h0": 0}
    assert report["truncationDegree"] == 1


def test_pi0_report_flat(flat_model):
    report = pi0_report(flat_model, 3)
    assert report["truncationDegree"] == 2
    assert report["derivations"] == {"der0": 2, "z0": 2, "b0": 0, "h0": 2}
    d = report["derivations"]
    assert d["h0"] == d["z0"] - d["b0"]
    assert report["sigmaDimension"] == 3


def test_pi0_dims_identity(cycle_model):
    report = pi0_report(cycle_model, 3)
    d = report["derivations"]
    assert d["h0"] == d["z0"] - d["b0"]


def test_boundaries_exponentiate_to_equivalences():
    rng = random.Random(909)
    done = 0
    while done < 4:
        model, _ = rand_minimal_model(rng, 3)
        if not model.fiber_names:
            continue
        bound = model.max_generator_degree()
        space1 = der_space(model, 1)
        if space1.dim == 0:
            continue
        vec = tuple(Fraction(rng.randrange(-2, 3)) for _ in range(space1.dim))
        g_der = space1.unpack(vec)
        boundary_vec = der_boundary_matrix(model, 1).apply(vec)
        delta = der_space(model, 0).unpack(boundary_vec)
        u = exp_derivation(delta, bound)
        verdict = are_homotopic_rel(u, FilteredEndo.identity(model), bound)
        assert verdict.equivalent
        done += 1


def test_dims_are_the_subspace_dims_and_every_verdict_prints_pi0s():
    # Z_r and B_r are read as ranks, never built: the test builds them.  The
    # linear-part verdict ranks boundary_in, the solve path reads b0 off its
    # own elimination; both must print the dims pi0 prints
    rng = random.Random(3131)
    seen = set()
    models = 0
    while models < 6 or len(seen) < 3:
        model, _ = rand_minimal_model(rng, 3)
        if not model.fiber_names:
            continue
        models += 1
        assert models <= 40, seen
        bound = model.max_generator_degree()
        for r in (0, 1):
            data = derivation_basis(model, r, bound + r)
            z, b = der_subspaces(data)
            assert data.dims() == {
                f"der{r}": data.dim, f"z{r}": z.dim, f"b{r}": b.dim, f"h{r}": z.dim - b.dim
            }
            if r == 0:
                b0 = b
        expected = pi0_report(model, bound)["derivations"]
        identity = FilteredEndo.identity(model)
        cases = [(rand_relative_automorphism(rng, model, bound), None)]
        delta = sample_exp_candidate(rng, model, bound)
        if delta is not None:
            in_b0 = b0.contains(der_space(model, 0).pack(delta))
            cases.append((exp_derivation(delta, bound), "witness" if in_b0 else "not a boundary"))
        space1 = der_space(model, 1)
        if space1.dim:
            vec = tuple(Fraction(rng.randrange(-2, 3)) for _ in range(space1.dim))
            boundary = der_space(model, 0).unpack(der_boundary_matrix(model, 1).apply(vec))
            cases.append((exp_derivation(boundary, bound), "witness"))
        for u, path in cases:
            verdict = are_homotopic_rel(u, identity, bound)
            assert path is None or _verdict_path(verdict) == path
            assert verdict.dims == expected
            seen.add(_verdict_path(verdict))


def test_cycles_and_boundaries_with_base_linear_differential():
    # base x (deg 1, d=0), fiber w (deg 2) with d(w) = x.  By hand: the
    # derivation w -> w is not a cycle (its commutator with d moves w to x),
    # w -> [x,x] is, and the degree-1 derivation w -> [x,w] bounds it.
    model = make_model(
        [("x", 1), ("w", 2)],
        {"w": "x"},
        ("x",),
        (Stage((), ("w",)),),
    )
    data = derivation_basis(model, 0, 3)
    assert data.dim == 2
    z0, b0 = der_subspaces(data)
    assert (z0.dim, b0.dim) == (1, 1)
    assert data.dims() == {"der0": 2, "z0": 1, "b0": 1, "h0": 0}
    g_der = RelDerivation(model, 1, {"w": model.dgla.element(
        bracket(LiePoly.gen("x"), LiePoly.gen("w")), 3
    )})
    boundary = der_boundary_matrix(model, 1).apply(der_space(model, 1).pack(g_der))
    delta = der_space(model, 0).unpack(boundary)
    assert model.dgla.element_expr(delta.image("w")) == "-1*[x,x]"


def test_log_output_is_chain_derivation(cycle_model):
    alg = cycle_model.dgla
    u = FilteredEndo(
        cycle_model,
        {"w": alg.element(
            LiePoly.gen("w") + 3 * bracket(LiePoly.gen("x"), LiePoly.gen("x")), 2
        )},
    )
    theta = log_unipotent(u, 3)
    for g in cycle_model.fiber_generators:
        lhs = alg.d_matrix(g.degree).apply(theta.image(g.name).coords)
        d_poly = alg.differential.get(g.name, LiePoly.zero())
        rhs = theta.value_poly(d_poly, g.degree - 1).coords
        assert tuple(lhs) == tuple(rhs)


def test_equivalence_transitive_on_twists(cycle_model):
    rng = random.Random(555)
    space1 = der_space(cycle_model, 1)
    f = FilteredEndo.identity(cycle_model)

    def twist(endo):
        vec = tuple(Fraction(rng.randrange(-2, 3)) for _ in range(space1.dim))
        boundary = der_boundary_matrix(cycle_model, 1).apply(vec)
        delta = der_space(cycle_model, 0).unpack(boundary)
        return endo.compose(exp_derivation(delta, 3))

    g = twist(f)
    h = twist(g)
    assert are_homotopic_rel(f, g, 3).equivalent
    assert are_homotopic_rel(g, h, 3).equivalent
    assert are_homotopic_rel(f, h, 3).equivalent
    # and a non-equivalent pair stays non-equivalent through an equivalence
    alg = cycle_model.dgla
    scale = FilteredEndo(
        cycle_model, {"w": Element(2, tuple(2 * c for c in alg.atom("w").coords))}
    )
    assert not are_homotopic_rel(f, f.compose(scale), 3).equivalent
    assert not are_homotopic_rel(g, f.compose(scale), 3).equivalent


def test_log_of_inverse_is_negated(cycle_model):
    alg = cycle_model.dgla
    u = FilteredEndo(
        cycle_model,
        {
            "w": alg.element(
                LiePoly.gen("w") + bracket(LiePoly.gen("x"), LiePoly.gen("x")), 2
            ),
            "v": alg.element(
                LiePoly.gen("v") - 2 * bracket(LiePoly.gen("x"), LiePoly.gen("w")), 3
            ),
        },
    )
    u_inv = invert_relative_quasi_iso(u, 3)
    theta = log_unipotent(u, 3)
    theta_inv = log_unipotent(u_inv, 3)
    space = der_space(cycle_model, 0)
    assert space.pack(theta_inv) == tuple(-c for c in space.pack(theta))


def _abelian_model():
    # x -> a degree-1 element of the abelian {1:2, 3:3}, bound 3
    base = QuasiFreeDGLA([GradedGenerator("x", 1)], {})
    target = FiniteDimDGLA({1: 2, 3: 3})
    image = Element(1, (Fraction(2), Fraction(-1)))
    return build_minimal_model(DGLAMorphism(base, target, {"x": image}), 3)


@pytest.fixture(scope="module")
def seeded_models():
    rng = random.Random(2024)
    models = [_abelian_model()]
    while len(models) < 4:
        model, _ = rand_minimal_model(rng, 3)
        if model.fiber_names:
            models.append(model)
    return models


def _symbolic_value(theta, tree):
    """theta on a bracket tree, expanded as a Lie polynomial (no coordinates)."""
    if isinstance(tree, str):
        el = theta.images.get(tree)
        return theta.model.dgla.poly(el) if el is not None else LiePoly.zero()
    left, right = tree
    sign = -1 if (theta.degree * tree_degree(theta.model.dgla.algebra, left)) % 2 else 1
    return bracket(_symbolic_value(theta, left), LiePoly([(Fraction(1), right)])) + sign * bracket(
        LiePoly([(Fraction(1), left)]), _symbolic_value(theta, right)
    )


def _random_non_unit(rng, space):
    while True:
        vec = tuple(Fraction(rng.randrange(-2, 3)) for _ in range(space.dim))
        if sum(1 for c in vec if c) >= 2:
            return vec


@pytest.mark.parametrize("model_index", range(4))
@pytest.mark.parametrize("r", [0, 1])
def test_der_boundary_matrix_matches_commutator_oracle(seeded_models, model_index, r):
    model = seeded_models[model_index]
    dgla = model.dgla
    src, dst = der_space(model, r), der_space(model, r - 1)
    if src.dim < 2:
        pytest.skip("Der_r has no non-unit derivation")
    boundary = der_boundary_matrix(model, r)
    rng = random.Random(7 * model_index + r)
    sign = -1 if r % 2 else 1
    for _ in range(3):
        theta = src.unpack(_random_non_unit(rng, src))
        images = {}
        for g in model.fiber_generators:
            out_deg = g.degree + r - 1
            if out_deg < 1:
                continue
            d_theta = dgla.d_matrix(g.degree + r).apply(theta.image(g.name).coords)
            d_g = dgla.differential.get(g.name, LiePoly.zero())
            theta_d = theta.value_poly(d_g, g.degree - 1)
            symbolic = LiePoly.zero()
            for coeff, tree in d_g.terms:
                symbolic = symbolic + coeff * _symbolic_value(theta, tree)
            assert theta_d == dgla.element(symbolic, out_deg)
            images[g.name] = Element(
                out_deg, tuple(a - sign * b for a, b in zip(d_theta, theta_d.coords))
            )
        expected = dst.pack(RelDerivation(model, r - 1, images))
        assert boundary.apply(src.pack(theta)) == expected


@pytest.mark.parametrize("model_index", range(4))
@pytest.mark.parametrize("r", [0, 1])
def test_der_boundary_squares_to_zero(seeded_models, model_index, r):
    model = seeded_models[model_index]
    assert der_boundary_matrix(model, r).mul(der_boundary_matrix(model, r + 1)).is_zero()


@pytest.fixture(scope="module")
def mixed_parity_model():
    # base x (odd), y (even); fiber w (even), v (odd); d = 0 is enough here,
    # since only the derivation rule is under test
    return make_model(
        [("x", 1), ("y", 2), ("w", 2), ("v", 3)],
        {},
        ("x", "y"),
        (Stage((), ()), Stage(("w",), ("v",))),
    )


@pytest.mark.parametrize("r", [-1, 0, 1, 2])
def test_apply_derivation_matches_symbolic_rule(mixed_parity_model, r):
    model = mixed_parity_model
    dgla, algebra = model.dgla, model.dgla.algebra
    rng = random.Random(100 + r)
    images = {}
    for g in model.fiber_generators:
        out_deg = g.degree + r
        if out_deg >= 1:
            coords = tuple(Fraction(rng.randrange(-2, 3)) for _ in range(dgla.dim(out_deg)))
            images[g.name] = Element(out_deg, coords)
    theta = RelDerivation(model, r, images)
    assert not theta.is_zero()
    letters = {
        algebra.index_of(name): algebra.tensor_of(el.degree, el.coords)
        for name, el in theta.images.items()
    }
    for k in range(1, 7):
        basis = algebra.degree_basis(k)
        for j, (tree, vec) in enumerate(zip(basis.monomials, basis.vectors)):
            got = algebra.basis_coords(k + r, algebra.apply_derivation(r, letters, vec))
            _, want = algebra.normalize(_symbolic_value(theta, tree), k + r)
            assert got == want, (k, tree)
            assert theta.matrix(k).column(j) == want, (k, tree)


def test_linear_fiber_part_reads_only_fiber_atoms():
    # base x, u of degree 1, 2 and fibers w, w2, v of degree 2, 2, 3
    model = make_model(
        [("x", 1), ("u", 2), ("w", 2), ("w2", 2), ("v", 3)],
        {},
        ("x", "u"),
        (Stage((), ()), Stage(("w", "w2"), ("v",))),
    )
    alg = model.dgla
    el = alg.element(LiePoly(parse_expr("2*w - 1/3*w2 + u + [x,x]")), 2)
    assert model.linear_fiber_part(el) == {"w": 2, "w2": Fraction(-1, 3)}
    assert model.linear_fiber_part(alg.atom("v")) == {"v": 1}
    assert model.linear_fiber_part(alg.element(LiePoly(parse_expr("[x,w]")), 3)) == {}
    assert model.linear_fiber_part(alg.atom("u")) == {}


def test_linear_fiber_readers_keep_their_texts(cycle_model):
    # the minimality witness, the derivation defects and the verdict reason
    # read the linear fiber part, in generator order
    alg = cycle_model.dgla
    non_minimal = make_model(
        [("x", 1), ("w", 2), ("u", 2), ("v", 3)],
        {"v": "2*u + w + [x,x]"},
        ("x",),
        (Stage((), ()), Stage(("w", "u"), ("v",))),
    )
    assert minimal.is_minimal(non_minimal).witnesses == (
        ("v", LiePoly([(1, "w"), (2, "u")])),
    )
    delta = RelDerivation(
        cycle_model,
        0,
        {"w": alg.atom("w"), "v": alg.element(LiePoly(parse_expr("v + [x,w]")), 3)},
    )
    assert delta.linear_fiber_defects() == ["w", "v"]
    with pytest.raises(
        NotWordLengthRaising, match=r"^derivation image has a linear fiber part on w, v$"
    ):
        exp_derivation(delta, 3)
    scale = FilteredEndo(cycle_model, {"w": Element(2, tuple(2 * c for c in alg.atom("w").coords))})
    verdict = are_homotopic_rel(FilteredEndo.identity(cycle_model), scale, 3)
    assert verdict.reason == (
        "f o g^-1 has a non-identity linear part on 'w', so it lies outside "
        "the exponential of the boundary derivations"
    )
