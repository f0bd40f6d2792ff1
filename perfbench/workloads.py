"""Seeded inputs, command lists and independent output checks.

Each workload is a fixed list of `dgla` command lines over input files that
are generated from the workload seed.  The seed only changes coefficients
(map images, random cycles, changes of basis, derivations); the shapes
(generator degrees, dimensions, degree bounds) are fixed per size, so the
work a command does is nearly the same for every seed and run times can be
compared across seeds.

`generate` writes the inputs plus a `manifest.json` that lists the commands
with their expected exit codes and the checks that apply to their outputs.
`check` re-derives the expected answers independently (PBW dimension series,
sympy ranks, verdicts known by construction, inversion identities,
`verify_model`) and returns the indices of the commands that failed.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from dgla.dg import DGLAMorphism, Element, FiniteDimDGLA, QuasiFreeDGLA
from dgla.exprs import format_terms
from dgla.formats import (
    dgla_from_doc,
    dgla_to_doc,
    endo_from_doc,
    endo_to_doc,
    model_from_doc,
    model_to_doc,
    morphism_from_doc,
)
from dgla.freelie import FreeGLA, GradedGenerator, LiePoly
from dgla.homotopy import RelDerivation, exp_derivation
from dgla.invert import FilteredEndo, is_relative_automorphism
from dgla.linalg import Matrix, invert, kernel_basis
from dgla.minimal import build_minimal_model, verify_model

WORKLOADS = ("model-building", "relative-automorphisms", "finite-dim-targets")

# Shapes per size.  "smoke" runs every command kind and every check in a few
# seconds; "full" is what the benchmark measures.
SIZES = {
    "model-building": {
        # (instance, homology ladder, minimal-model ladder)
        "full": {
            "Lxyz": ((3, 4, 5), ()),
            "Lxyzw": ((3, 4, 5), ()),
            "qf0": ((3, 4, 5), (2, 3, 4)),
            "qf1": ((3, 4, 5), (2, 3, 4)),
            "ab12": ((), (3, 4, 5, 6)),
        },
        "smoke": {
            "Lxyz": ((2, 3), ()),
            "Lxyzw": ((2, 3), ()),
            "qf0": ((2, 3), (2, 3)),
            "qf1": ((2,), (2,)),
            "ab12": ((), (2, 3)),
        },
    },
    "relative-automorphisms": {
        # instance -> (abelian target dims, model bound)
        "full": {
            "ra0": ({1: 2, 3: 3}, 3),
            "ra1": ({1: 2, 3: 2}, 3),
            "ra2": ({1: 1, 2: 2, 3: 1}, 3),
        },
        "smoke": {"ra0": ({1: 1, 2: 1, 3: 1}, 3), "ra1": ({1: 2, 3: 1}, 3)},
    },
    "finite-dim-targets": {
        # instance -> (free generator degrees, truncation degree, complex dims)
        "full": {
            "fd0": ((1, 1), 4, {1: 2, 2: 3, 3: 3, 4: 2}),
            "fd1": ((1, 1, 1), 3, {1: 1, 2: 2, 3: 1}),
        },
        "smoke": {
            "fd0": ((1, 1), 3, {1: 1, 2: 2, 3: 1}),
            "fd1": ((1,), 3, {1: 1, 2: 1, 3: 1}),
        },
    },
}

MINIMAL_MODEL_BOUND_FINDIM = 3


def _write(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _coeff(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        c = Fraction(rng.randrange(-3, 4))
        if c or not nonzero:
            return c


# -- PBW dimension series ------------------------------------------------------


def pbw_dims(degrees, top: int) -> list[int]:
    """dim L(V)_n for n = 1..top, from 1/(1-V(t)) = prod over n of
    (1+t^n)^{l_n} (n odd) and (1-t^n)^{-l_n} (n even)."""
    tensor = [1] + [0] * top  # 1/(1 - V(t))
    for n in range(1, top + 1):
        tensor[n] = sum(tensor[n - d] for d in degrees if d <= n)
    dims = [0] * (top + 1)
    product = [1] + [0] * top
    for n in range(1, top + 1):
        dims[n] = tensor[n] - product[n]
        factor = [0] * (top + 1)
        for j in range(0, top // n + 1):
            if n % 2:
                factor[n * j] = _binomial(dims[n], j)
            else:
                factor[n * j] = _binomial(dims[n] + j - 1, j)
        product = [
            sum(product[i] * factor[k - i] for i in range(k + 1)) for k in range(top + 1)
        ]
    return dims[1:]


def _binomial(n: int, k: int) -> int:
    if k < 0 or n < k:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


# -- document helpers ---------------------------------------------------------


def _base_doc() -> dict:
    return {"kind": "dgla", "generators": [{"name": "x", "degree": 1}], "differential": {}}


def _random_cycle(rng, algebra, degree: int):
    """Nonzero integer combination of the canonical cycle basis in `degree`."""
    cycles = kernel_basis(algebra.d_matrix(degree))
    if cycles.dim == 0:
        raise ValueError(f"no cycles in degree {degree}")
    while True:
        coords = [Fraction(0)] * algebra.dim(degree)
        for vec in cycles.basis:
            c = _coeff(rng)
            for j, a in enumerate(vec):
                coords[j] += c * a
        if any(coords):
            return Element(degree, tuple(coords))


def _random_quasifree(rng, spec):
    """Quasi-free algebra grown generator by generator; a generator marked
    "cycle" gets a random nonzero cycle of the algebra built so far as its
    differential, so d^2 = 0 holds by construction."""
    gens, diffs = [], {}
    for name, degree, kind in spec:
        if kind == "cycle":
            partial = QuasiFreeDGLA(gens, diffs)
            diffs[name] = partial.poly(_random_cycle(rng, partial, degree - 1))
        gens.append(GradedGenerator(name, degree))
    return QuasiFreeDGLA(gens, diffs)


def _random_degree_one_image(rng, names) -> str:
    while True:
        terms = [(_coeff(rng), n) for n in names]
        if any(c for c, _ in terms):
            return format_terms([(c, n) for c, n in terms if c])


# -- model-building -----------------------------------------------------------

_QF_SPECS = {
    # three degree-1 generators and one degree-3 generator whose d is a
    # random degree-2 cycle (every degree-2 element is one)
    "qf0": (("x", 1, "free"), ("y", 1, "free"), ("z", 1, "free"), ("w", 3, "cycle")),
    # two degree-1 generators, a degree-2 one, and two cycle-killing ones
    "qf1": (
        ("x", 1, "free"),
        ("y", 1, "free"),
        ("u", 2, "free"),
        ("w", 3, "cycle"),
        ("v", 4, "cycle"),
    ),
}


def _model_building(rng, shapes, out: Path) -> list[dict]:
    commands = []
    for name, (hom_ladder, mm_ladder) in shapes.items():
        if name == "Lxyz":
            doc = {
                "kind": "dgla",
                "generators": [{"name": n, "degree": 1} for n in "xyz"],
                "differential": {},
            }
            pbw_degrees = [1, 1, 1]
        elif name == "Lxyzw":
            doc = {
                "kind": "dgla",
                "generators": [{"name": n, "degree": 1} for n in "xyz"]
                + [{"name": "w", "degree": 3}],
                "differential": {"w": "[x,y]"},
            }
            pbw_degrees = None
        elif name in _QF_SPECS:
            doc = dgla_to_doc(_random_quasifree(rng, _QF_SPECS[name]))
            pbw_degrees = None
        elif name == "ab12":
            doc = {"kind": "findim_dgla", "dims": {"1": 2}, "brackets": [], "differential": {}}
            pbw_degrees = None
        else:
            raise ValueError(f"unknown instance {name}")
        _write(out / f"{name}.json", doc)
        for n in hom_ladder:
            commands.append(
                {
                    "argv": ["homology", f"{name}.json", "--max-degree", str(n)],
                    "exit": 0,
                    "check": {"kind": "homology-pbw", "degrees": pbw_degrees}
                    if pbw_degrees
                    else {"kind": "homology-ladder", "file": f"{name}.json"},
                }
            )
        if mm_ladder:
            if doc["kind"] == "findim_dgla":
                image = _random_degree_one_image(rng, ["e_1_0", "e_1_1"])
            else:
                degree_one = [g["name"] for g in doc["generators"] if g["degree"] == 1]
                image = _random_degree_one_image(rng, degree_one)
            _write(out / "base.json", _base_doc())
            _write(out / f"{name}-map.json", {"kind": "dgla_morphism", "images": {"x": image}})
            for n in mm_ladder:
                model = f"{name}-model-{n}.json"
                commands.append(
                    {
                        "argv": [
                            "minimal-model",
                            "base.json",
                            f"{name}.json",
                            f"{name}-map.json",
                            "--max-degree",
                            str(n),
                            "--out",
                            model,
                        ],
                        "exit": 0,
                        "out": model,
                        "check": {
                            "kind": "verify-model",
                            "base": "base.json",
                            "target": f"{name}.json",
                            "map": f"{name}-map.json",
                            "bound": n,
                        },
                    }
                )
    return commands


# -- relative-automorphisms ---------------------------------------------------


def _boundary_exp(rng, model, bound):
    """exp([d, G]) for a sparse random degree-1 derivation G.

    [d, G](w) = d(G w) + G(d w).  In a minimal model neither term has a
    linear fiber part, so the exponential is defined."""
    dgla = model.dgla
    images = {}
    for g in model.fiber_generators:
        dim = dgla.dim(g.degree + 1)
        coords = [Fraction(0)] * dim
        for _ in range(2):
            coords[rng.randrange(dim)] += _coeff(rng)
        images[g.name] = Element(g.degree + 1, tuple(coords))
    big_g = RelDerivation(model, 1, images)
    theta = {}
    for g in model.fiber_generators:
        k = g.degree
        d_g = dgla.d_matrix(k + 1).apply(big_g.image(g.name).coords)
        if k - 1 >= 1:
            d_poly = dgla.differential.get(g.name, LiePoly.zero())
            g_d = big_g.value_poly(d_poly, k - 1).coords
            d_g = tuple(a + b for a, b in zip(d_g, g_d))
        theta[g.name] = Element(k, tuple(d_g))
    return exp_derivation(RelDerivation(model, 0, theta), bound)


def _top_generator_map(model, name, scale, shift=None):
    """Endomorphism a -> scale*a + shift on one top-stage A-generator."""
    atom = model.dgla.atom(name).coords
    coords = [scale * a for a in atom]
    if shift is not None:
        coords = [a + b for a, b in zip(coords, shift)]
    return FilteredEndo(model, {name: Element(model.degree_of(name), tuple(coords))})


def _relative_automorphisms(rng, shapes, out: Path) -> list[dict]:
    commands = []
    for name, (dims, bound) in shapes.items():
        target = FiniteDimDGLA(dims)
        image = Element(1, tuple(_coeff(rng, nonzero=True) for _ in range(dims[1])))
        base = QuasiFreeDGLA([GradedGenerator("x", 1)], {})
        model = build_minimal_model(DGLAMorphism(base, target, {"x": image}), bound)
        top = model.max_generator_degree()
        free_top = model.stages[-1].A
        if not free_top:
            raise ValueError(f"{name}: the last stage has no A-generator to scale")
        a_top = free_top[rng.randrange(len(free_top))]
        shift = list(_random_cycle(rng, model.dgla, model.degree_of(a_top)).coords)
        shift[model.dgla.algebra.atom(a_top)[1]] = Fraction(0)
        twist = _top_generator_map(model, a_top, Fraction(rng.choice((2, -1, 3, -2))), shift)
        f = _boundary_exp(rng, model, top).compose(twist)
        f_eq = f.compose(_boundary_exp(rng, model, top))
        f_neq = f.compose(_top_generator_map(model, free_top[0], Fraction(2)))
        for endo in (f, f_eq, f_neq):
            if not is_relative_automorphism(endo):
                raise ValueError(f"{name}: generated endomorphism is not an automorphism")
        _write(out / f"{name}-model.json", model_to_doc(model))
        for tag, endo in (("f", f), ("feq", f_eq), ("fneq", f_neq)):
            _write(out / f"{name}-{tag}.json", endo_to_doc(endo))
        m, e = f"{name}-model.json", f"{name}-"
        deg = str(top)
        commands += [
            {
                "argv": ["invert", m, e + "f.json", "--max-degree", deg],
                "exit": 0,
                "check": {"kind": "inverse", "model": m, "endo": e + "f.json"},
            },
            {
                "argv": ["equivalent", m, e + "f.json", e + "feq.json", "--max-degree", deg],
                "exit": 0,
                "check": {"kind": "verdict", "verdict": "equivalent"},
            },
            {
                "argv": ["equivalent", m, e + "f.json", e + "fneq.json", "--max-degree", deg],
                "exit": 3,
                "check": {"kind": "verdict", "verdict": "notEquivalent"},
            },
            {
                "argv": ["pi0", m, "--max-degree", deg],
                "exit": 0,
                "check": {"kind": "pi0", "model": m},
            },
        ]
    return commands


# -- finite-dim-targets -------------------------------------------------------


def _random_invertible(rng, n: int):
    while True:
        m = Matrix([[Fraction(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(n)], cols=n)
        try:
            return m, invert(m)
        except ValueError:
            continue


def _finite_dim_doc(rng, free_degrees, top: int, complex_dims: dict) -> dict:
    """Truncated free graded Lie algebra (d = 0) plus an abelian chain complex
    with a random differential, conjugated by a random change of basis in
    each degree.  A direct sum of dg Lie algebras is one, and conjugation is
    an isomorphism, so the result is valid by construction."""
    free = FreeGLA([GradedGenerator(f"g{i}", d) for i, d in enumerate(free_degrees)])
    fdim = {k: free.dim(k) for k in range(1, top + 1)}
    dims = {k: fdim[k] + complex_dims.get(k, 0) for k in range(1, top + 1)}
    # brackets of the direct sum: free part only, complex part abelian
    table = {}
    for p in range(1, top + 1):
        for q in range(1, top + 1 - p):
            bt = free.bracket_table(p, q)
            for i in range(fdim[p]):
                for j in range(fdim[q]):
                    vec = list(bt[i][j]) + [Fraction(0)] * complex_dims.get(p + q, 0)
                    table[(p, q, i, j)] = vec
    # differential of the complex part: disjoint disks e -> e' between
    # adjacent degrees, about half of each degree's cells paired downwards
    d_std = {}
    unpaired = {k: list(range(complex_dims.get(k, 0))) for k in range(1, top + 1)}
    for k in range(top, 1, -1):
        body = [[Fraction(0)] * dims[k] for _ in range(dims[k - 1])]
        pairs = min(len(unpaired[k]), len(unpaired[k - 1]), (complex_dims.get(k, 0) + 1) // 2)
        for _ in range(pairs):
            col, row = unpaired[k].pop(), unpaired[k - 1].pop(0)
            body[fdim[k - 1] + row][fdim[k] + col] = Fraction(1)
        d_std[k] = Matrix(body, cols=dims[k])
    change = {k: _random_invertible(rng, dims[k]) for k in range(1, top + 1)}
    brackets = []
    for p in range(1, top + 1):
        for q in range(p, top + 1 - p):
            g_pq, _ = change[p + q]
            inv_p, inv_q = change[p][1], change[q][1]
            for i in range(dims[p]):
                for j in range(dims[q]):
                    if p == q and j < i:
                        continue
                    acc = [Fraction(0)] * dims[p + q]
                    for a in range(dims[p]):
                        ca = inv_p.data[a][i]
                        if not ca:
                            continue
                        for b in range(dims[q]):
                            cb = inv_q.data[b][j]
                            vec = table.get((p, q, a, b))
                            if not cb or vec is None:
                                continue
                            for t, v in enumerate(vec):
                                if v:
                                    acc[t] += ca * cb * v
                    value = g_pq.apply(acc)
                    terms = [(c, f"e_{p + q}_{t}") for t, c in enumerate(value) if c]
                    if terms:
                        brackets.append(
                            {"left": f"e_{p}_{i}", "right": f"e_{q}_{j}", "value": format_terms(terms)}
                        )
    differential = {}
    for k, m in d_std.items():
        conj = change[k - 1][0].mul(m).mul(change[k][1])
        differential[str(k)] = [[str(e) for e in row] for row in conj.data]
    return {
        "kind": "findim_dgla",
        "dims": {str(k): n for k, n in dims.items()},
        "brackets": brackets,
        "differential": differential,
    }


def _finite_dim_targets(rng, shapes, out: Path) -> list[dict]:
    commands = []
    _write(out / "base.json", _base_doc())
    for name, (free_degrees, top, complex_dims) in shapes.items():
        doc = _finite_dim_doc(rng, free_degrees, top, complex_dims)
        _write(out / f"{name}.json", doc)
        n1 = doc["dims"]["1"]
        image = _random_degree_one_image(rng, [f"e_1_{i}" for i in range(n1)])
        _write(out / f"{name}-map.json", {"kind": "dgla_morphism", "images": {"x": image}})
        bound = MINIMAL_MODEL_BOUND_FINDIM
        model = f"{name}-model.json"
        commands += [
            {
                "argv": ["validate", f"{name}.json"],
                "exit": 0,
                "check": {"kind": "valid"},
            },
            {
                "argv": ["homology", f"{name}.json", "--max-degree", str(top)],
                "exit": 0,
                "check": {"kind": "homology-sympy", "file": f"{name}.json"},
            },
            {
                "argv": [
                    "minimal-model",
                    "base.json",
                    f"{name}.json",
                    f"{name}-map.json",
                    "--max-degree",
                    str(bound),
                    "--out",
                    model,
                ],
                "exit": 0,
                "out": model,
                "check": {
                    "kind": "verify-model",
                    "base": "base.json",
                    "target": f"{name}.json",
                    "map": f"{name}-map.json",
                    "bound": bound,
                },
            },
        ]
    return commands


_GENERATORS = {
    "model-building": _model_building,
    "relative-automorphisms": _relative_automorphisms,
    "finite-dim-targets": _finite_dim_targets,
}


def generate(workload: str, seed: int, size: str, out: Path) -> None:
    """Write the inputs of one workload and its manifest into `out`."""
    rng = random.Random(f"{workload}/{seed}")
    out.mkdir(parents=True, exist_ok=True)
    commands = _GENERATORS[workload](rng, SIZES[workload][size], out)
    _write(out / "manifest.json", {"workload": workload, "seed": seed, "size": size, "commands": commands})


# -- independent checks -------------------------------------------------------


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _sympy_rank(rows) -> int:
    import sympy

    if not rows or not rows[0]:
        return 0
    return sympy.Matrix([[sympy.Rational(str(e)) for e in row] for row in rows]).rank()


def _quasifree_homology_dims(doc: dict, top: int) -> dict[str, int]:
    """dim H_k = dim L_k - rank d_k - rank d_(k+1), with dim L_k from the
    independent bottom-up oracle and ranks from sympy."""
    algebra = dgla_from_doc(doc)
    ranks = {k: _sympy_rank([list(r) for r in algebra.d_matrix(k).data]) for k in range(2, top + 2)}
    return {
        str(k): algebra.algebra.dim_oracle(k) - ranks.get(k, 0) - ranks[k + 1]
        for k in range(1, top + 1)
    }


def _findim_homology_dims(doc: dict, top: int) -> dict[str, int]:
    dims = {int(k): n for k, n in doc["dims"].items()}
    ranks = {int(k): _sympy_rank(rows) for k, rows in doc["differential"].items()}
    return {
        str(k): dims.get(k, 0) - ranks.get(k, 0) - ranks.get(k + 1, 0) for k in range(1, top + 1)
    }


def _pi0_expected(model) -> dict:
    """The pi0 dimension data from the PBW series of the model's generators."""
    m = model.max_generator_degree()
    dims = pbw_dims([g.degree for g in model.dgla.generators], m)
    base_dims = pbw_dims([g.degree for g in model.base_generators], m)
    sigma = sum(dims)
    bracket = sum(
        dims[p - 1] * dims[q - 1] * dims[p + q - 1]
        for p in range(1, m)
        for q in range(1, m - p + 1)
    )
    return {
        "truncationDegree": m,
        "sigmaDimension": sigma,
        "der0": sum(dims[g.degree - 1] for g in model.fiber_generators),
        "conditions": {
            "degreePreserving": sigma * sigma - sum(d * d for d in dims),
            "commutesWithDifferential": sigma * sigma,
            "bracketCompatible": bracket,
            "fixesBase": sum(base_dims) * sigma,
        },
    }


def _check_one(directory: Path, command: dict, stdout: str, verdict_dims: dict) -> bool:
    spec = command["check"]
    kind = spec["kind"]
    if kind == "valid":
        return stdout == "ok: valid finite-dimensional dg Lie algebra\n"
    if kind in ("homology-pbw", "homology-ladder", "homology-sympy"):
        top = int(command["argv"][-1])
        dims = json.loads(stdout)["dims"]
        if kind == "homology-pbw":
            expected = {str(k): n for k, n in enumerate(pbw_dims(spec["degrees"], top), 1)}
        elif kind == "homology-ladder":
            expected = _quasifree_homology_dims(_load(directory / spec["file"]), top)
        else:
            expected = _findim_homology_dims(_load(directory / spec["file"]), top)
        return dims == expected
    if kind == "verify-model":
        base = dgla_from_doc(_load(directory / spec["base"]))
        target = dgla_from_doc(_load(directory / spec["target"]))
        f = morphism_from_doc(_load(directory / spec["map"]), source=base, target=target)
        model = model_from_doc(_load(directory / command["out"]))
        return verify_model(model, spec["bound"], against=f).ok
    if kind == "verdict":
        doc = json.loads(stdout)
        verdict_dims.setdefault(command["argv"][1], []).append(doc["dims"])
        return doc["verdict"] == spec["verdict"] and (doc["witness"] is not None) == (
            spec["verdict"] == "equivalent"
        )
    if kind == "inverse":
        model = model_from_doc(_load(directory / spec["model"]))
        f = endo_from_doc(_load(directory / spec["endo"]), model)
        g = endo_from_doc(json.loads(stdout)["inverse"], model)
        fg, gf = f.compose(g), g.compose(f)
        return all(
            fg.image(gen.name) == model.dgla.atom(gen.name) == gf.image(gen.name)
            for gen in model.dgla.generators
        )
    if kind == "pi0":
        model = model_from_doc(_load(directory / spec["model"]))
        report = json.loads(stdout)
        expected = _pi0_expected(model)
        der = report["derivations"]
        consistent = all(
            der == {key: dims[key] for key in der} for dims in verdict_dims.get(spec["model"], [])
        )
        return (
            consistent
            and der["der0"] == expected.pop("der0")
            and der["h0"] == der["z0"] - der["b0"]
            and all(report[key] == value for key, value in expected.items())
        )
    raise ValueError(f"unknown check {kind!r}")


def check(directory: Path, commands: list[dict], stdouts: list[str]) -> list[int]:
    """Indices of the commands whose output fails its check.

    Verdict checks run before the pi0 check of the same model, because pi0's
    derivation dimensions are compared with the ones the verdicts report."""
    failed = []
    verdict_dims: dict[str, list[dict]] = {}
    for i, (command, stdout) in enumerate(zip(commands, stdouts)):
        try:
            ok = _check_one(directory, command, stdout, verdict_dims)
        except Exception as e:  # an unreadable output is a failed check
            print(f"check {command['argv']}: {type(e).__name__}: {e}", file=sys.stderr)
            ok = False
        if not ok:
            failed.append(i)
    return failed
