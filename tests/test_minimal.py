import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgla import minimal
from dgla.dg import DGLAMorphism, Element, FiniteDimDGLA, QuasiFreeDGLA
from dgla.errors import DegreeBoundTooSmall, FormatError, NotSimplyConnected
from dgla.exprs import parse_expr
from dgla.freelie import GradedGenerator, LiePoly
from dgla.minimal import (
    RelativeModel,
    Stage,
    build_minimal_model,
    is_minimal,
    verify_model,
)

from dgla.formats import canonical_json, model_to_doc
from helpers import rand_minimal_model, rand_model_input, reference_build_minimal_model


def make(gens, diff):
    return QuasiFreeDGLA(
        [GradedGenerator(n, d) for n, d in gens],
        {n: LiePoly(parse_expr(t)) for n, t in diff.items()},
    )


def hand_model(gens, diff, base, stages, q_images=None):
    dgla = make(gens, diff)
    if q_images is None:
        q_images = {g.name: dgla.atom(g.name) for g in dgla.generators}
    q = DGLAMorphism(dgla, dgla, q_images)
    return RelativeModel(dgla, base, stages, q)


def test_minimal_when_fiber_differentials_are_decomposable():
    m = hand_model(
        [("x", 1), ("w", 2), ("v", 3)],
        {"v": "[x,x]"},
        ("x",),
        (Stage((), ()), Stage(("w",), ("v",))),
    )
    assert is_minimal(m).is_minimal


def test_minimal_allows_linear_base_part():
    m = hand_model(
        [("x", 1), ("u", 2), ("v", 3)],
        {"v": "u"},
        ("x", "u"),
        (Stage((), ()), Stage((), ("v",))),
    )
    assert is_minimal(m).is_minimal


def test_not_minimal_linear_fiber_part():
    m = hand_model(
        [("x", 1), ("w", 2), ("v", 3)],
        {"v": "w"},
        ("x",),
        (Stage((), ()), Stage(("w",), ("v",))),
    )
    report = is_minimal(m)
    assert not report.is_minimal
    assert report.witnesses[0][0] == "v"
    assert report.witnesses[0][1] == LiePoly.gen("w")


def test_identity_map_gives_empty_stages():
    base = make([("x", 1), ("y", 2)], {"y": "x"})
    f = DGLAMorphism.identity(base)
    model = build_minimal_model(f, 4)
    assert all(s.A == () and s.B == () for s in model.stages)
    assert [g.name for g in model.dgla.generators] == ["x", "y"]
    assert verify_model(model, 4, against=f).ok


def test_wedge_example():
    src = make([("x", 1)], {})
    tgt = make([("x", 1), ("y", 1)], {})
    f = DGLAMorphism(src, tgt, {"x": tgt.atom("x")})
    model = build_minimal_model(f, 3)
    assert model.stages[0].A == ("a_1_0",)
    assert model.stages[0].B == ()
    assert all(s.A == () and s.B == () for s in model.stages[1:])
    assert model.target.element_expr(model.q.images["a_1_0"]) == "y"
    report = verify_model(model, 3, against=f)
    assert report.ok, report.failed()


def test_cone_on_sphere():
    src = make([("x", 1)], {})
    zero = FiniteDimDGLA({}, {}, {})
    f = DGLAMorphism(src, zero, {"x": zero.zero(1)})
    model = build_minimal_model(f, 3)
    assert model.stages[0].B == ("b_1_0",)
    assert model.dgla.differential["b_1_0"] == LiePoly.gen("x")
    assert model.degree_of("b_1_0") == 2
    report = verify_model(model, 3, against=f)
    assert report.ok, report.failed()


def test_structure_map_hits_boundary_preimages():
    # target has H_1 = 0 via a disk; the B-generator must map to the disk
    # filler, not to zero, to keep q a chain map
    src = make([("x", 1)], {})
    tgt = FiniteDimDGLA({1: 1, 2: 1}, {}, {2: [[1]]})
    f = DGLAMorphism(src, tgt, {"x": tgt.atom("e_1_0")})
    model = build_minimal_model(f, 2)
    assert model.stages[0].B == ("b_1_0",)
    assert model.q.images["b_1_0"] == Element(2, (Fraction(1),))
    assert model.q.is_chain_map()
    assert verify_model(model, 2, against=f).ok


def test_bound_too_small():
    base = make([("x", 1)], {})
    with pytest.raises(DegreeBoundTooSmall):
        build_minimal_model(DGLAMorphism.identity(base), 0)


def test_not_simply_connected_rejected():
    bad = QuasiFreeDGLA([GradedGenerator("x", 0)], {})
    with pytest.raises(NotSimplyConnected):
        build_minimal_model(DGLAMorphism.identity(bad), 2)


def test_invalid_source_is_refused_as_every_reader_refuses_it():
    # the images are given, so no free Lie algebra is built before the check
    bad = QuasiFreeDGLA([GradedGenerator("x", 0)], {})
    f = DGLAMorphism(bad, bad, {"x": Element(0, ())})
    with pytest.raises(FormatError, match="^generator 'x' has degree 0: not simply connected$"):
        build_minimal_model(f, 2)


def test_verify_flags_zero_b_differential():
    # hand-built model violating condition (f): a B-generator with d = 0
    m = hand_model(
        [("x", 1), ("b", 2)],
        {},
        ("x",),
        (Stage((), ("b",)),),
    )
    report = verify_model(m, 1)
    failed = {name for name, ok, _ in report.checks if not ok}
    assert "condition-f" in failed


def test_verify_flags_missing_surjectivity():
    # deleting the A-generator from the wedge model breaks H_1(q) onto
    src = make([("x", 1)], {})
    tgt = make([("x", 1), ("y", 1)], {})
    broken = RelativeModel(
        src,
        ("x",),
        (),
        DGLAMorphism(src, tgt, {"x": tgt.atom("x")}),
    )
    report = verify_model(broken, 1)
    failed = {name for name, ok, _ in report.checks if not ok}
    assert "quasi-iso" in failed


def test_verify_flags_condition_e_violation():
    # stage-2 B-generator whose differential uses a same-stage A-generator;
    # a pure (e) violation with all other conditions intact cannot exist (the
    # staged structure forces (e)), so this also trips ks-chain/minimality
    m = hand_model(
        [("x", 1), ("w", 2), ("v", 3)],
        {"v": "w"},
        ("x",),
        (Stage((), ()), Stage(("w",), ("v",))),
    )
    report = verify_model(m, 2)
    failed = {name for name, ok, _ in report.checks if not ok}
    assert "condition-e" in failed
    assert "ks-chain" in failed
    assert "minimal" in failed


def test_verify_flags_condition_e_inside_a_bracket():
    # d of the stage-2 B-generator b uses the same-stage A-generator a only
    # inside the bracket [x,a]; with the layout intact a bracket on a vetoed
    # letter is too high in degree, so a sits in degree 1 instead of 2
    m = hand_model(
        [("x", 1), ("a", 1), ("b", 3)],
        {"b": "[x,a]"},
        ("x",),
        (Stage((), ()), Stage(("a",), ("b",))),
    )
    checks = {name: (ok, msg) for name, ok, msg in verify_model(m, 1).checks}
    assert checks["condition-e"] == (False, "forbidden generators in d of b")
    assert not checks["stage-degrees"][0]
    assert checks["minimal"][0]


def test_verify_reads_a_vanishing_base_differential_as_using_no_generator():
    # |x| = 2 and |a_1_0| = 1, so [x,[a_1_0,x]] = -[x,[x,a_1_0]] and d(v) = 0
    # in L although its written terms name the fiber generator a_1_0
    m = hand_model(
        [("x", 2), ("v", 4), ("a_1_0", 1)],
        {"v": "[x,[x,a_1_0]] + [x,[a_1_0,x]]"},
        ("x", "v"),
        (Stage(("a_1_0",), ()),),
    )
    checks = {name: (ok, msg) for name, ok, msg in verify_model(m, 1).checks}
    assert checks["base-subalgebra"] == (True, "")


def test_verify_reads_a_vanishing_stage_differential_as_using_no_later_generator():
    # |x| = |a_2_0| = 2, so [a_2_0,x] = -[x,a_2_0] and d(b_1_0) = 0 in L,
    # though its written terms name the later-stage a_2_0
    m = hand_model(
        [("x", 2), ("b_1_0", 2), ("a_2_0", 2)],
        {"b_1_0": "[x,a_2_0] + [a_2_0,x]"},
        ("x",),
        (Stage((), ("b_1_0",)), Stage(("a_2_0",), ())),
    )
    checks = {name: (ok, msg) for name, ok, msg in verify_model(m, 1).checks}
    assert checks["ks-chain"] == (True, "")


def test_verify_flags_stage_degree_layout():
    m = hand_model(
        [("x", 1), ("w", 3)],
        {},
        ("x",),
        (Stage(("w",), ()),),  # stage 1 A-generator must have degree 1
    )
    report = verify_model(m, 1)
    failed = {name for name, ok, _ in report.checks if not ok}
    assert "stage-degrees" in failed


def test_random_inputs_satisfy_contract():
    rng = random.Random(101)
    for trial in range(6):
        bound = rng.randrange(3, 5)
        model, f = rand_minimal_model(rng, bound)
        report = verify_model(model, bound, against=f)
        assert report.ok, (trial, report.failed())


def test_determinism_same_seed_same_model():
    from dgla.formats import canonical_json, model_to_doc

    docs = []
    for _ in range(2):
        rng = random.Random(555)
        model, _ = rand_minimal_model(rng, 3)
        docs.append(canonical_json(model_to_doc(model)))
    assert docs[0] == docs[1]


def test_target_not_finite_type_surfaces():
    from dgla.errors import TargetNotFiniteType

    src = make([("x", 1)], {})
    capped = FiniteDimDGLA({1: 1}, {}, {}, max_degree=2)
    f = DGLAMorphism(src, capped, {"x": capped.atom("e_1_0")})
    # bound 1 needs target data in degree 2 only: fine
    build_minimal_model(f, 1)
    # bound 2 needs degree-3 data, beyond the declared maximum
    with pytest.raises(TargetNotFiniteType):
        build_minimal_model(f, 2)


def test_wedge_of_different_cells():
    # inclusion of one degree-1 generator into L(x, y) with |y| = 2: the
    # cokernel appears in degree 2 and nothing else is needed
    src = make([("x", 1)], {})
    tgt = make([("x", 1), ("y", 2)], {})
    f = DGLAMorphism(src, tgt, {"x": tgt.atom("x")})
    model = build_minimal_model(f, 3)
    assert model.stages[0] == Stage((), ())
    assert model.stages[1] == Stage(("a_2_0",), ())
    assert model.stages[2] == Stage((), ())
    assert model.target.element_expr(model.q.images["a_2_0"]) == "y"
    assert verify_model(model, 3, against=f).ok


def test_multistage_kernels_against_abelian_target():
    # map L(x) -> abelian(e_1, e_2), x -> e_1.  Brackets die in the target,
    # so [x,x] spans a kernel killed at stage 2, which creates a new cycle
    # [x, a_2_0] killed at stage 3.  Derived by hand:
    #   stage 2: A = (a_2_0) with q(a) = e_2_0, B = (b_2_0) with d(b) = [x,x]
    #   stage 3: B = (b_3_0) with d(b_3_0) = [x, a_2_0]
    src = make([("x", 1)], {})
    tgt = FiniteDimDGLA({1: 1, 2: 1}, {}, {})
    f = DGLAMorphism(src, tgt, {"x": tgt.atom("e_1_0")})
    model = build_minimal_model(f, 3)
    assert model.stages[0] == Stage((), ())
    assert model.stages[1] == Stage(("a_2_0",), ("b_2_0",))
    assert model.stages[2] == Stage((), ("b_3_0",))
    alg = model.dgla
    assert alg.element_expr(alg.element(alg.differential["b_2_0"], 2)) == "[x,x]"
    assert alg.element_expr(alg.element(alg.differential["b_3_0"], 3)) == "[x,a_2_0]"
    assert model.target.element_expr(model.q.images["a_2_0"]) == "e_2_0"
    assert model.q.images["b_2_0"].is_zero()
    report = verify_model(model, 3, against=f)
    assert report.ok, report.failed()


def test_reserved_generator_names_rejected():
    from dgla.errors import FormatError

    base = make([("a_1_0", 1)], {})
    with pytest.raises(FormatError):
        build_minimal_model(DGLAMorphism.identity(base), 2)


def test_differential_vanishing_in_the_free_algebra_is_zero():
    # d(a) = d(y) = [x,x] with x even is 0 in L, though its terms have degree 4
    m = hand_model(
        [("x", 2), ("a", 2), ("y", 3)],
        {"a": "[x,x]", "y": "[x,x]"},
        ("x",),
        (Stage((), ()), Stage(("a",), ("y",))),
    )
    assert is_minimal(m).is_minimal
    report = verify_model(m, 3)
    # d kills the A-generator a, as condition d asks, and vanishes on the
    # B-span of stage 2, which is the one failure
    assert {name for name, ok, _ in report.checks if not ok} == {"condition-f"}
    assert m.q.chain_defects() == []


def _empty_stages(model):
    return [not (stage.A or stage.B) for stage in model.stages]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), bound=st.integers(1, 4))
@example(seed=0, bound=3)  # the final stage adds nothing
@example(seed=7, bound=2)  # an empty stage before one that adds generators
def test_one_algebra_per_generator_set_gives_the_rebuilt_model(seed, bound):
    model = build_minimal_model(rand_model_input(random.Random(seed)), bound)
    reference = reference_build_minimal_model(rand_model_input(random.Random(seed)), bound)
    assert canonical_json(model_to_doc(model)) == canonical_json(model_to_doc(reference))


@pytest.mark.parametrize(
    "seed, bound, empty",
    [(0, 3, [False, False, True]), (7, 2, [True, False]), (4, 4, [False, True, True, True])],
)
def test_the_examples_have_empty_stages(seed, bound, empty):
    model = build_minimal_model(rand_model_input(random.Random(seed)), bound)
    assert _empty_stages(model) == empty


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("bound", [1, 3])
def test_an_algebra_is_built_before_stage_one_and_after_each_stage_that_adds_generators(
    seed, bound, monkeypatch
):
    built = []

    class Counting(QuasiFreeDGLA):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(minimal, "QuasiFreeDGLA", Counting)
    model = build_minimal_model(rand_model_input(random.Random(seed)), bound)
    assert len(built) == 1 + _empty_stages(model).count(False)
    assert model.dgla is built[-1]
    assert model.q.source is model.dgla
