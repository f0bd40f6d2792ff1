"""Acceptance criteria, one test per criterion, one pass/fail line each.

Everything here is exact rational arithmetic: every comparison is ==, no
tolerances anywhere.  Randomized criteria use fixed seeds so reruns are
reproducible.
"""

import functools
import random
import time
from fractions import Fraction


from dgla.dg import DGLAMorphism, Element, QuasiFreeDGLA
from dgla.exprs import parse_expr
from dgla.freelie import FreeGLA, GradedGenerator, LiePoly, bracket
from dgla.homotopy import (
    RelDerivation,
    are_homotopic_rel,
    der_boundary_matrix,
    der_space,
    exp_derivation,
    log_unipotent,
)
from dgla.invert import FilteredEndo, invert_relative_quasi_iso, is_relative_automorphism
from dgla.minimal import RelativeModel, Stage, build_minimal_model, verify_model
from dgla.cli import main as cli_main
from dgla.formats import canonical_json

from helpers import (
    rand_minimal_model,
    rand_relative_automorphism,
)


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:>2} {label}: FAIL")
                raise
            print(f"criterion {number:>2} {label}: PASS")

        return wrapper

    return decorate


def make_algebra(gens, diff):
    return QuasiFreeDGLA(
        [GradedGenerator(n, d) for n, d in gens],
        {n: LiePoly(parse_expr(t)) for n, t in diff.items()},
    )


@criterion(1, "free-algebra basis matches independent oracle")
def test_basis_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(1001)
    profiles = 0
    while profiles < 20:
        count = rng.randrange(1, 4)
        degrees = tuple(rng.randrange(1, 4) for _ in range(count))
        alg = FreeGLA([GradedGenerator(f"g{i}", d) for i, d in enumerate(degrees)])
        for k in range(1, 7):
            assert alg.dim(k) == alg.dim_oracle(k), (degrees, k)
        profiles += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


@criterion(2, "graded antisymmetry and Jacobi vanish under normalize")
def test_graded_identities():
    rng = random.Random(1002)
    pool = [
        make_algebra([("x", 1)], {}),
        make_algebra([("x", 1), ("y", 1)], {}),
        make_algebra([("x", 1), ("y", 2)], {}),
        make_algebra([("x", 2), ("y", 2)], {}),
        make_algebra([("x", 1), ("y", 1), ("z", 2)], {}),
        make_algebra([("x", 2), ("y", 3)], {}),
    ]

    def rand_poly(alg, degree):
        basis = alg.algebra.degree_basis(degree)
        if basis.dim == 0:
            return LiePoly.zero()
        return LiePoly(
            [
                (Fraction(rng.randrange(-3, 4)), basis.monomials[rng.randrange(basis.dim)])
                for _ in range(rng.randrange(1, 3))
            ]
        )

    checked = 0
    while checked < 200:
        alg = pool[rng.randrange(len(pool))]
        da, db, dc = (rng.randrange(1, 3) for _ in range(3))
        a, b, c = rand_poly(alg, da), rand_poly(alg, db), rand_poly(alg, dc)
        anti = bracket(a, b) + Fraction((-1) ** (da * db)) * bracket(b, a)
        _, coords = alg.algebra.normalize(anti, da + db)
        assert all(v == 0 for v in coords)
        jac = (
            bracket(a, bracket(b, c))
            - bracket(bracket(a, b), c)
            - Fraction((-1) ** (da * db)) * bracket(b, bracket(a, c))
        )
        _, coords = alg.algebra.normalize(jac, da + db + dc)
        assert all(v == 0 for v in coords)
        checked += 1


@criterion(3, "homology of the one-cell model and the acyclic cone")
def test_reference_homology():
    sphere = make_algebra([("a", 1)], {})
    assert [sphere.homology(k).dim for k in (1, 2, 3)] == [1, 1, 0]
    cone = make_algebra([("x", 1), ("y", 2)], {"y": "x"})
    assert [cone.homology(k).dim for k in (1, 2, 3)] == [0, 0, 0]


@criterion(4, "staged construction satisfies the full model contract")
def test_minimal_model_contract():
    start = time.monotonic()
    rng = random.Random(1004)
    built = 0
    while built < 10:
        bound = rng.randrange(3, 6)
        model, f = rand_minimal_model(rng, bound)
        report = verify_model(model, bound, against=f)
        assert report.ok, report.failed()
        built += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s"


@criterion(5, "wedge inclusion gets one degree-1 generator and nothing else")
def test_wedge_example():
    src = make_algebra([("x", 1)], {})
    tgt = make_algebra([("x", 1), ("y", 1)], {})
    f = DGLAMorphism(src, tgt, {"x": tgt.atom("x")})
    model = build_minimal_model(f, 3)
    assert model.stages[0].A == ("a_1_0",)
    assert all(not s.B for s in model.stages)
    assert all(not s.A for s in model.stages[1:])
    from dgla.dg import induced_map_on_homology

    for i in (1, 2, 3):
        h = induced_map_on_homology(model.q, i)
        assert h.rows == h.cols == h.rank()


@criterion(6, "inverses compose to the identity in both orders")
def test_inversion_contract():
    rng = random.Random(1006)
    done = 0
    while done < 10:
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


@criterion(7, "equivalence decision: boundary twists yes, scalings no")
def test_equivalence_soundness():
    rng = random.Random(1007)
    checked = 0
    scale_checked = False
    while checked < 10:
        model, _ = rand_minimal_model(rng, 3)
        if not model.fiber_names:
            continue
        bound = model.max_generator_degree()
        space1 = der_space(model, 1)
        if space1.dim == 0:
            continue
        f = rand_relative_automorphism(rng, model, bound)
        vec = tuple(Fraction(rng.randrange(-2, 3)) for _ in range(space1.dim))
        boundary_vec = der_boundary_matrix(model, 1).apply(vec)
        delta = der_space(model, 0).unpack(boundary_vec)
        g = f.compose(exp_derivation(delta, bound))
        verdict = are_homotopic_rel(f, g, bound)
        assert verdict.equivalent, verdict.reason
        # the witness is exact: [d, witness] = log(f o g^{-1})
        witness_vec = space1.pack(verdict.witness)
        theta = log_unipotent(f.compose(invert_relative_quasi_iso(g, bound)), bound)
        assert der_boundary_matrix(model, 1).apply(witness_vec) == der_space(
            model, 0
        ).pack(theta)
        checked += 1

        for gname in model.fiber_names:
            degree = model.degree_of(gname)
            doubled = FilteredEndo(
                model,
                {gname: Element(
                    degree,
                    tuple(2 * c for c in model.dgla.atom(gname).coords),
                )},
            )
            if not is_relative_automorphism(doubled):
                continue  # scaling this generator is not a chain map here
            v2 = are_homotopic_rel(f, f.compose(doubled), bound)
            assert not v2.equivalent
            scale_checked = True
    assert scale_checked, "no model offered a chain-compatible scaling"


@criterion(8, "exp and log are exact mutual inverses on nilpotents")
def test_exp_log_round_trip():
    rng = random.Random(1008)
    models = []
    seed_algebra = make_algebra([("x", 1), ("w", 2), ("v", 3)], {"v": "[x,x]"})
    seed_model = RelativeModel(
        seed_algebra,
        ("x",),
        (Stage((), ()), Stage(("w",), ("v",))),
        DGLAMorphism.identity(seed_algebra),
    )
    models.append(seed_model)
    while len(models) < 4:
        model, _ = rand_minimal_model(rng, 3)
        if model.fiber_names:
            models.append(model)

    def sample_word_length_raising(model):
        images = {}
        alg = model.dgla
        for g in model.fiber_generators:
            coords = [Fraction(0)] * alg.dim(g.degree)
            monos = alg.algebra.degree_basis(g.degree).monomials
            for i, tree in enumerate(monos):
                if isinstance(tree, str):
                    continue  # keep every word-length-1 coordinate zero
                coords[i] = Fraction(rng.randrange(-2, 3))
            images[g.name] = Element(g.degree, tuple(coords))
        return RelDerivation(model, 0, images)

    done = 0
    while done < 50:
        model = models[rng.randrange(len(models))]
        bound = model.max_generator_degree()
        delta = sample_word_length_raising(model)
        u = exp_derivation(delta, bound)
        assert log_unipotent(u, bound) == delta
        again = exp_derivation(log_unipotent(u, bound), bound)
        for g in model.dgla.generators:
            assert again.image(g.name) == u.image(g.name)
        done += 1


@criterion(9, "CLI subcommands are byte-identical across runs")
def test_cli_determinism(tmp_path, capsys):
    def write(name, doc):
        p = tmp_path / name
        p.write_text(canonical_json(doc), encoding="utf-8")
        return str(p)

    sphere = write(
        "sphere.json",
        {"kind": "dgla", "generators": [{"name": "a", "degree": 1}], "differential": {}},
    )
    wedge = write(
        "wedge.json",
        {
            "kind": "dgla",
            "generators": [{"name": "a", "degree": 1}, {"name": "b", "degree": 1}],
            "differential": {},
        },
    )
    incl = write("incl.json", {"kind": "dgla_morphism", "images": {"a": "a"}})
    model = write(
        "model.json",
        {
            "kind": "relative_model",
            "generators": [
                {"name": "x", "degree": 1},
                {"name": "w", "degree": 2},
                {"name": "v", "degree": 3},
            ],
            "differential": {"v": "[x,x]"},
            "base": ["x"],
            "stages": [{"A": [], "B": []}, {"A": ["w"], "B": ["v"]}],
            "structureMap": {
                "target": {
                    "kind": "dgla",
                    "generators": [
                        {"name": "x", "degree": 1},
                        {"name": "w", "degree": 2},
                    ],
                    "differential": {},
                },
                "images": {"x": "x", "w": "w", "v": "0"},
            },
        },
    )
    ident = write("id.json", {"kind": "endo", "images": {}})
    shift = write("shift.json", {"kind": "endo", "images": {"w": "w + [x,x]"}})

    def run_all():
        transcripts = []
        for argv in (
            ["validate", sphere],
            ["homology", sphere, "--max-degree", "4"],
            ["invert", model, shift, "--max-degree", "3"],
            ["equivalent", model, ident, shift, "--max-degree", "3"],
            ["pi0", model, "--max-degree", "3"],
        ):
            code = cli_main(argv)
            captured = capsys.readouterr()
            transcripts.append((argv[0], code, captured.out, captured.err))
        out_path = tmp_path / "out_model.json"
        code = cli_main(
            [
                "minimal-model",
                sphere,
                wedge,
                incl,
                "--max-degree",
                "3",
                "--out",
                str(out_path),
            ]
        )
        capsys.readouterr()
        transcripts.append(
            ("minimal-model", code, out_path.read_text(encoding="utf-8"), "")
        )
        return transcripts

    assert run_all() == run_all()


@criterion(10, "validation gates reject the documented failure modes")
def test_validation_gates(tmp_path, capsys):
    cases = {
        "d_squared.json": (
            {
                "kind": "dgla",
                "generators": [
                    {"name": "x", "degree": 1},
                    {"name": "y", "degree": 2},
                    {"name": "z", "degree": 3},
                ],
                "differential": {"y": "x", "z": "y"},
            },
            "d^2",
        ),
        "degree_zero.json": (
            {
                "kind": "dgla",
                "generators": [{"name": "x", "degree": 0}],
                "differential": {},
            },
            "not simply connected",
        ),
        "degree_preserving.json": (
            {
                "kind": "dgla",
                "generators": [
                    {"name": "x", "degree": 1},
                    {"name": "y", "degree": 1},
                ],
                "differential": {"y": "x"},
            },
            "not degree -1",
        ),
    }
    for name, (doc, needle) in cases.items():
        p = tmp_path / name
        p.write_text(canonical_json(doc), encoding="utf-8")
        code = cli_main(["validate", str(p)])
        captured = capsys.readouterr()
        assert code == 2, name
        assert needle in captured.out, name
