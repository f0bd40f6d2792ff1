import contextlib
import io
import json
import random
import signal
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgla.cli import main
from dgla.formats import canonical_json


def write(tmp_path: Path, name: str, doc) -> str:
    p = tmp_path / name
    p.write_text(canonical_json(doc), encoding="utf-8")
    return str(p)


@pytest.fixture()
def files(tmp_path):
    paths = {}
    paths["sphere"] = write(
        tmp_path,
        "sphere.json",
        {
            "kind": "dgla",
            "generators": [{"name": "a", "degree": 1}],
            "differential": {},
        },
    )
    paths["wedge"] = write(
        tmp_path,
        "wedge.json",
        {
            "kind": "dgla",
            "generators": [{"name": "a", "degree": 1}, {"name": "b", "degree": 1}],
            "differential": {},
        },
    )
    paths["incl"] = write(
        tmp_path, "incl.json", {"kind": "dgla_morphism", "images": {"a": "a"}}
    )
    paths["model"] = write(
        tmp_path,
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
    paths["endo_id"] = write(tmp_path, "id.json", {"kind": "endo", "images": {}})
    paths["endo_shift"] = write(
        tmp_path, "shift.json", {"kind": "endo", "images": {"w": "w + [x,x]"}}
    )
    paths["endo_scale"] = write(
        tmp_path, "scale.json", {"kind": "endo", "images": {"w": "2*w"}}
    )
    paths["tmp"] = tmp_path
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(files, capsys):
    code, out, _ = run(capsys, "validate", files["sphere"])
    assert code == 0
    assert "ok" in out


def test_validate_rejects_bad_differential(files, capsys, tmp_path):
    bad = write(
        tmp_path,
        "bad.json",
        {
            "kind": "dgla",
            "generators": [{"name": "x", "degree": 1}, {"name": "y", "degree": 1}],
            "differential": {"y": "x"},
        },
    )
    code, out, _ = run(capsys, "validate", bad)
    assert code == 2
    assert "y" in out and "degree -1" in out


def test_validate_rejects_degree_zero(files, capsys, tmp_path):
    bad = write(
        tmp_path,
        "bad0.json",
        {
            "kind": "dgla",
            "generators": [{"name": "x", "degree": 0}],
            "differential": {},
        },
    )
    code, out, _ = run(capsys, "validate", bad)
    assert code == 2
    assert "not simply connected" in out


def test_validate_rejects_d_squared(files, capsys, tmp_path):
    bad = write(
        tmp_path,
        "badd2.json",
        {
            "kind": "dgla",
            "generators": [
                {"name": "x", "degree": 1},
                {"name": "y", "degree": 2},
                {"name": "z", "degree": 3},
            ],
            "differential": {"y": "x", "z": "y"},
        },
    )
    code, out, _ = run(capsys, "validate", bad)
    assert code == 2
    assert "d^2" in out


def test_parse_error_exit_code(files, capsys, tmp_path):
    bad = tmp_path / "syntax.json"
    bad.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "line" in err


def test_bad_expression_exit_code(files, capsys, tmp_path):
    bad = write(
        tmp_path,
        "badexpr.json",
        {
            "kind": "dgla",
            "generators": [{"name": "x", "degree": 1}, {"name": "y", "degree": 2}],
            "differential": {"y": "[x,"},
        },
    )
    code, _, err = run(capsys, "validate", bad)
    assert code == 1
    assert "col" in err


def test_homology_document(files, capsys):
    code, out, _ = run(capsys, "homology", files["sphere"], "--max-degree", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == {"1": 1, "2": 1, "3": 0}


def test_homology_table(files, capsys):
    code, out, _ = run(
        capsys, "homology", files["sphere"], "--max-degree", "3", "--format", "table"
    )
    assert code == 0
    assert out.splitlines()[0].strip() == "degree  dim H"


def test_minimal_model_and_round_trip(files, capsys, tmp_path):
    out_path = tmp_path / "model_out.json"
    code, _, _ = run(
        capsys,
        "minimal-model",
        files["sphere"],
        files["wedge"],
        files["incl"],
        "--max-degree",
        "3",
        "--out",
        str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["stages"][0]["A"] == ["a_1_0"]
    # the emitted model passes the independent verifier
    from dgla.formats import model_from_doc
    from dgla.minimal import verify_model

    model = model_from_doc(doc)
    assert verify_model(model, 3).ok


def test_minimal_model_rejects_non_simply_connected(files, capsys, tmp_path):
    bad = write(
        tmp_path,
        "badbase.json",
        {
            "kind": "dgla",
            "generators": [{"name": "x", "degree": 0}],
            "differential": {},
        },
    )
    code, _, err = run(
        capsys,
        "minimal-model",
        bad,
        files["wedge"],
        files["incl"],
        "--max-degree",
        "2",
        "--out",
        str(tmp_path / "nope.json"),
    )
    assert code == 2
    assert "not simply connected" in err


def test_invert_document(files, capsys):
    code, out, _ = run(
        capsys, "invert", files["model"], files["endo_shift"], "--max-degree", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["inverse"]["images"]["w"] == "w - [x,x]"
    assert doc["verification"]["inverseIsChainMap"] is True


def test_equivalent_positive(files, capsys):
    code, out, _ = run(
        capsys,
        "equivalent",
        files["model"],
        files["endo_id"],
        files["endo_shift"],
        "--max-degree",
        "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "equivalent"
    assert doc["witness"] == {"w": "-1*v"}


def test_equivalent_negative_exit_three(files, capsys):
    code, out, _ = run(
        capsys,
        "equivalent",
        files["model"],
        files["endo_id"],
        files["endo_scale"],
        "--max-degree",
        "3",
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["verdict"] == "notEquivalent"


def test_pi0_document(files, capsys):
    code, out, _ = run(capsys, "pi0", files["model"], "--max-degree", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["derivations"]["h0"] == doc["derivations"]["z0"] - doc["derivations"]["b0"]


def test_pi0_back_substitutes_nothing(files, capsys, tmp_path, monkeypatch):
    # pi0 reads Z_0 and B_0 as ranks of the boundary matrices; no
    # elimination on its path builds a reduced row echelon form
    from dgla import linalg
    from dgla.formats import model_to_doc
    from helpers import rand_minimal_model

    runs = [(files["model"], "3")]
    for seed in range(3):
        model, _ = rand_minimal_model(random.Random(seed), 3)
        path = write(tmp_path, f"seed{seed}.json", model_to_doc(model))
        runs.append((path, str(model.max_generator_degree())))
    expected = [run(capsys, "pi0", path, "--max-degree", bound) for path, bound in runs]

    def refuse(self):
        raise AssertionError("pi0 back-substituted an echelon")

    monkeypatch.setattr(linalg._Echelon, "back_substitute", refuse)
    for (path, bound), before in zip(runs, expected):
        assert run(capsys, "pi0", path, "--max-degree", bound) == before
        assert before[0] == 0, before


def test_all_commands_are_deterministic(files, capsys, tmp_path):
    runs = []
    for _ in range(2):
        blobs = []
        for argv in (
            ["validate", files["sphere"]],
            ["homology", files["sphere"], "--max-degree", "4"],
            ["invert", files["model"], files["endo_shift"], "--max-degree", "3"],
            [
                "equivalent",
                files["model"],
                files["endo_id"],
                files["endo_shift"],
                "--max-degree",
                "3",
            ],
            ["pi0", files["model"], "--max-degree", "3"],
        ):
            code, out, err = run(capsys, *argv)
            blobs.append((argv[0], code, out, err))
        out_path = tmp_path / "det_model.json"
        run(
            capsys,
            "minimal-model",
            files["sphere"],
            files["wedge"],
            files["incl"],
            "--max-degree",
            "3",
            "--out",
            str(out_path),
        )
        blobs.append(("minimal-model", 0, out_path.read_text(encoding="utf-8"), ""))
        runs.append(blobs)
    assert runs[0] == runs[1]


def test_homology_of_finite_dimensional_file(files, capsys, tmp_path):
    disk = write(
        tmp_path,
        "disk.json",
        {
            "kind": "findim_dgla",
            "dims": {"1": 1, "2": 1},
            "brackets": [],
            "differential": {"2": [["1"]]},
        },
    )
    code, out, _ = run(capsys, "homology", disk, "--max-degree", "3")
    assert code == 0
    assert json.loads(out)["dims"] == {"1": 0, "2": 0, "3": 0}


def test_equivalent_rejects_non_automorphism(files, capsys, tmp_path):
    squish = write(tmp_path, "squish.json", {"kind": "endo", "images": {"w": "0"}})
    code, _, err = run(
        capsys,
        "equivalent",
        files["model"],
        files["endo_id"],
        squish,
        "--max-degree",
        "3",
    )
    assert code == 2
    assert "not a relative automorphism" in err


def test_style_respects_env(monkeypatch):
    import io

    from dgla import cli

    class Tty(io.StringIO):
        def isatty(self):
            return True

    monkeypatch.setattr(cli.sys, "stdout", Tty())
    monkeypatch.setenv("DGLA_COLOR", "0")
    assert cli._style("hello", "32") == "hello"
    monkeypatch.delenv("DGLA_COLOR")
    assert cli._style("hello", "32") == "\x1b[32mhello\x1b[0m"


def test_minimal_model_validates_each_algebra_once(files, capsys, tmp_path, monkeypatch):
    from dgla import dg

    target = write(
        tmp_path,
        "disk.json",
        {
            "kind": "findim_dgla",
            "dims": {"1": 2, "2": 1},
            "brackets": [],
            "differential": {"2": [["1"], ["0"]]},
        },
    )
    passes: dict[int, int] = {}

    def counting(check):
        def wrapped(algebra):
            passes[id(algebra)] = passes.get(id(algebra), 0) + 1
            return check(algebra)

        return wrapped

    monkeypatch.setattr(dg, "_validate_findim", counting(dg._validate_findim))
    monkeypatch.setattr(dg, "_validate_quasifree", counting(dg._validate_quasifree))
    code, _, _ = run(
        capsys,
        "minimal-model",
        files["sphere"],
        target,
        write(tmp_path, "map.json", {"kind": "dgla_morphism", "images": {"a": "e_1_1"}}),
        "--max-degree",
        "2",
        "--out",
        str(tmp_path / "model_out.json"),
    )
    assert code == 0
    assert sorted(passes.values()) == [1, 1]


def _assert_one_line_error(code, err, prefix):
    assert code in (1, 2)
    assert err.startswith(f"error: {prefix}")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "doc, field",
    [
        (
            {"kind": "findim_dgla", "dims": {"1": 1}, "differential": {"x": []}},
            "differential: bad degree key 'x'",
        ),
        (
            {"kind": "findim_dgla", "dims": {"1": 1, "2": 1}, "differential": {"2": [["1/0"]]}},
            'differential[2]: expected a rational number, got "1/0"',
        ),
        (
            {"kind": "dgla", "generators": [{"name": "x", "degree": True}]},
            "generators[0].degree: expected an integer, got true",
        ),
    ],
    ids=["differential-key", "zero-denominator", "bool-degree"],
)
def test_bad_algebra_fields_exit_with_one_line(capsys, tmp_path, doc, field):
    path = write(tmp_path, "bad.json", doc)
    code, out, err = run(capsys, "validate", path)
    _assert_one_line_error(code, err, f"{path}: {field}")
    assert out == ""


def test_wrong_degree_endo_image_names_file_and_field(files, capsys, tmp_path):
    endo = write(tmp_path, "bad_endo.json", {"kind": "endo", "images": {"w": "v"}})
    code, _, err = run(capsys, "invert", files["model"], endo, "--max-degree", "3")
    _assert_one_line_error(code, err, f"{endo}: images[w]: expected degree 2, found 3")


def test_base_image_leaving_the_base_names_endo_file(files, capsys, tmp_path):
    model = str(tmp_path / "wedge_model.json")
    code, _, _ = run(
        capsys,
        "minimal-model",
        files["sphere"],
        files["wedge"],
        files["incl"],
        "--max-degree",
        "3",
        "--out",
        model,
    )
    assert code == 0
    endo = write(tmp_path, "leaves.json", {"kind": "endo", "images": {"a": "a + a_1_0"}})
    code, out, err = run(capsys, "invert", model, endo, "--max-degree", "3")
    assert code == 2
    _assert_one_line_error(
        code, err, f"{endo}: images: image of base generator 'a' leaves the base subalgebra"
    )
    assert out == ""


@pytest.mark.parametrize(
    "images, message",
    [
        (lambda g: [g], "images must be a mapping"),
        (lambda g: {"nope": g}, "image for unknown generator 'nope'"),
        (lambda g: {g: f"[{g},{g}]"}, "images[{g}]: expected degree 1, found 2"),
    ],
    ids=["not-a-mapping", "unknown-generator", "wrong-degree"],
)
@pytest.mark.parametrize("kind", ["dgla_morphism", "endo"])
def test_morphism_and_endo_images_give_the_same_errors(files, capsys, tmp_path, kind, images, message):
    # a (degree 1) generates the morphism's source, x (degree 1) the model
    g = "a" if kind == "dgla_morphism" else "x"
    path = write(tmp_path, "images.json", {"kind": kind, "images": images(g)})
    if kind == "endo":
        argv = ["invert", files["model"], path, "--max-degree", "3"]
    else:
        out = str(tmp_path / "nope.json")
        argv = ["minimal-model", files["sphere"], files["wedge"], path, "--max-degree", "2", "--out", out]
    code, out, err = run(capsys, *argv)
    _assert_one_line_error(code, err, f"{path}: {message.format(g=g)}")
    assert out == ""


def test_wrong_degree_map_image_names_file_and_field(files, capsys, tmp_path):
    bad_map = write(tmp_path, "bad_map.json", {"kind": "dgla_morphism", "images": {"a": "[a,b]"}})
    code, _, err = run(
        capsys,
        "minimal-model",
        files["sphere"],
        files["wedge"],
        bad_map,
        "--max-degree",
        "2",
        "--out",
        str(tmp_path / "nope.json"),
    )
    _assert_one_line_error(code, err, f"{bad_map}: images[a]: expected degree 1, found 2")


def _model_with(files, **changes):
    doc = json.loads(Path(files["model"]).read_text(encoding="utf-8"))
    doc.update(changes)
    return doc


@pytest.mark.parametrize(
    "stages, field",
    [
        ([{"A": [], "B": []}, {"A": "w", "B": ["v"]}], "stages[1].A"),
        ([{"A": [], "B": []}, {"A": ["w"], "B": [3]}], "stages[1].B"),
        ([{"A": {}, "B": []}, {"A": ["w"], "B": ["v"]}], "stages[0].A"),
    ],
    ids=["string-A", "number-in-B", "object-A"],
)
def test_stage_parts_must_be_lists_of_names(files, capsys, tmp_path, stages, field):
    path = write(tmp_path, "bad_stages.json", _model_with(files, stages=stages))
    code, out, err = run(capsys, "pi0", path, "--max-degree", "3")
    assert code == 2
    _assert_one_line_error(code, err, f"{path}: {field}: must be a list of generator names")
    assert out == ""


def test_generator_order_error_names_file(files, capsys, tmp_path):
    path = write(tmp_path, "bad_order.json", _model_with(files, base=["q"]))
    code, out, err = run(capsys, "pi0", path, "--max-degree", "3")
    assert code == 2
    _assert_one_line_error(code, err, f"{path}: base/stages: generator order must list the base")
    assert out == ""


_LOW_MAX_DEGREE = {
    "kind": "findim_dgla",
    "dims": {"1": 1, "2": 1},
    "brackets": [],
    "differential": {"2": [["1"]]},
    "maxDegree": 2,
}
_ABOVE_MAX_DEGREE = "maxDegree: degree 3 exceeds the declared maximum degree 2"


def test_homology_above_max_degree_names_file_and_field(capsys, tmp_path):
    path = write(tmp_path, "low.json", _LOW_MAX_DEGREE)
    code, out, err = run(capsys, "homology", path, "--max-degree", "2")
    assert code == 2
    _assert_one_line_error(code, err, f"{path}: {_ABOVE_MAX_DEGREE}")
    assert out == ""


def test_minimal_model_above_max_degree_names_file_and_field(files, capsys, tmp_path):
    target = write(tmp_path, "low.json", _LOW_MAX_DEGREE)
    f = write(tmp_path, "map.json", {"kind": "dgla_morphism", "images": {"a": "e_1_0"}})
    out_path = tmp_path / "model_out.json"
    code, out, err = run(
        capsys,
        "minimal-model",
        files["sphere"],
        target,
        f,
        "--max-degree",
        "2",
        "--out",
        str(out_path),
    )
    assert code == 2
    _assert_one_line_error(code, err, f"{target}: {_ABOVE_MAX_DEGREE}")
    assert out == "" and not out_path.exists()


@pytest.mark.parametrize(
    "images, blamed",
    [
        # the zero image of y, which the map leaves out, is built in the target
        ({"x": "e_1_0"}, "target"),
        # an image the map gives keeps its own file and field, once
        ({"x": "e_1_0", "y": "0"}, "map"),
    ],
)
def test_minimal_model_image_above_max_degree_names_one_file(capsys, tmp_path, images, blamed):
    paths = {
        "base": write(tmp_path, "base.json", _FUZZ_MAP_BASE),
        "target": write(tmp_path, "low.json", _LOW_MAX_DEGREE),
        "map": write(tmp_path, "map.json", {"kind": "dgla_morphism", "images": images}),
    }
    out_path = tmp_path / "model_out.json"
    code, out, err = run(
        capsys, "minimal-model", *paths.values(), "--max-degree", "3", "--out", str(out_path)
    )
    field = "maxDegree" if blamed == "target" else "images[y]"
    assert code == 2
    assert err == (
        f"error: {paths[blamed]}: {field}: degree 3 exceeds the declared maximum degree 2\n"
    )
    assert out == "" and not out_path.exists()


def test_minimal_model_base_name_clash_names_the_base_file(files, capsys, tmp_path):
    base = write(
        tmp_path,
        "base.json",
        {"kind": "dgla", "generators": [{"name": "a_1_0", "degree": 1}], "differential": {}},
    )
    f = write(tmp_path, "map.json", {"kind": "dgla_morphism", "images": {"a_1_0": "a"}})
    out_path = tmp_path / "model_out.json"
    code, out, err = run(
        capsys, "minimal-model", base, files["sphere"], f, "--max-degree", "2", "--out", str(out_path)
    )
    assert code == 2
    _assert_one_line_error(code, err, f"{base}: base generator name 'a_1_0' collides with ")
    assert out == "" and not out_path.exists()


@pytest.mark.parametrize("name", ["[x,y]", "2"])
def test_validate_lists_a_generator_name_that_is_no_identifier(capsys, tmp_path, name):
    # such a name would print monomials that read back as other elements
    doc = {
        "kind": "dgla",
        "generators": [{"name": n, "degree": 1} for n in ("x", "y", name)],
        "differential": {},
    }
    path = write(tmp_path, "odd.json", doc)
    code, out, err = run(capsys, "validate", path)
    assert code == 2 and err == ""
    assert out == f"violation: generator name {name!r} is not an identifier\n"
    code, out, err = run(capsys, "homology", path, "--max-degree", "2")
    assert out == ""
    _assert_one_line_error(code, err, f"{path}: generator name {name!r} is not an identifier")


def _model_with_low_target(files):
    # the target declares maxDegree 2 but has a degree-3 cell, and the
    # degree-3 generator v has no explicit image, so its zero image is the
    # first thing to reach above the bound
    doc = _model_with(files)
    doc["structureMap"] = {
        "target": {
            "kind": "findim_dgla",
            "dims": {"1": 1, "3": 1},
            "brackets": [],
            "maxDegree": 2,
        },
        "images": {"x": "e_1_0", "w": "0"},
    }
    return doc


@pytest.mark.parametrize(
    "command, endos", [("invert", 1), ("equivalent", 2), ("pi0", 0)]
)
def test_model_target_above_max_degree_names_file_and_field(files, capsys, tmp_path, command, endos):
    path = write(tmp_path, "low_model.json", _model_with_low_target(files))
    argv = [command, path] + [files["endo_id"]] * endos + ["--max-degree", "2"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    _assert_one_line_error(
        code,
        err,
        f"{path}: structureMap.target: maxDegree: degree 3 exceeds the declared maximum degree 2",
    )
    assert out == ""


def test_pi0_below_model_degree_names_file_and_flag(files, capsys):
    code, out, err = run(capsys, "pi0", files["model"], "--max-degree", "2")
    assert code == 2
    _assert_one_line_error(
        code,
        err,
        f"{files['model']}: --max-degree: model has generators of degree 3, "
        "beyond the bound 2",
    )
    assert out == ""


def test_equivalent_below_model_degree_names_file_and_flag(files, capsys):
    code, out, err = run(
        capsys,
        "equivalent",
        files["model"],
        files["endo_id"],
        files["endo_shift"],
        "--max-degree",
        "2",
    )
    assert code == 2
    _assert_one_line_error(
        code,
        err,
        f"{files['model']}: --max-degree: bound is smaller than the maximal generator degree",
    )
    assert out == ""


def _xyw_model(tmp_path) -> str:
    """L(x, y | w): base x, y of degree 1, 4 and fiber w of degree 2, d = 0."""
    gens = [{"name": "x", "degree": 1}, {"name": "y", "degree": 4}, {"name": "w", "degree": 2}]
    return write(
        tmp_path,
        "xyw.json",
        {
            "kind": "relative_model",
            "generators": gens,
            "differential": {},
            "base": ["x", "y"],
            "stages": [{"A": [], "B": []}, {"A": ["w"], "B": []}],
            "structureMap": {
                "target": {"kind": "dgla", "generators": gens, "differential": {}},
                "images": {"x": "x", "y": "y", "w": "w"},
            },
        },
    )


@pytest.mark.parametrize("endo, verdict", [("endo_id", 0), ("endo_scale", 3)])
def test_equivalent_below_a_base_generator_is_refused_before_any_verdict(
    files, capsys, tmp_path, endo, verdict
):
    # w fits under the bound 2, y does not: exit 2 whether or not w moves
    model = _xyw_model(tmp_path)
    argv = ["equivalent", model, files[endo], files["endo_id"], "--max-degree"]
    code, out, err = run(capsys, *argv, "2")
    _assert_one_line_error(
        code, err, f"{model}: --max-degree: bound is smaller than the maximal generator degree"
    )
    assert code == 2 and out == ""
    assert run(capsys, *argv, "4")[0] == verdict


def test_equivalent_refuses_the_bound_before_building_the_derivation_complex(
    files, capsys, tmp_path, monkeypatch
):
    # Der_0 of the xyw model fits under the bound 2, y does not: the
    # refusal comes before any boundary matrix is built
    from dgla import homotopy

    def refuse(model, r):
        raise AssertionError("equivalent built a derivation complex")

    monkeypatch.setattr(homotopy, "der_boundary_matrix", refuse)
    model = _xyw_model(tmp_path)
    argv = ["equivalent", model, files["endo_id"], files["endo_id"], "--max-degree", "2"]
    code, out, err = run(capsys, *argv)
    _assert_one_line_error(
        code, err, f"{model}: --max-degree: bound is smaller than the maximal generator degree"
    )
    assert code == 2 and out == ""


def _non_minimal_model(tmp_path) -> str:
    """Base x; fibers w, v of degree 2, 3 with dv = w, so not minimal."""
    return write(
        tmp_path,
        "non_minimal.json",
        {
            "kind": "relative_model",
            "generators": [
                {"name": "x", "degree": 1},
                {"name": "w", "degree": 2},
                {"name": "v", "degree": 3},
            ],
            "differential": {"v": "w"},
            "base": ["x"],
            "stages": [{"A": [], "B": []}, {"A": ["w"], "B": ["v"]}],
            "structureMap": {
                "target": {"kind": "dgla", "generators": [{"name": "x", "degree": 1}]},
                "images": {"x": "x", "w": "0", "v": "0"},
            },
        },
    )


@pytest.mark.parametrize(
    "model, images, blamed, message",
    [
        ("model", {"w": "0"}, "endo", "the endomorphism is singular in degree 2"),
        ("model", {"v": "0"}, "endo", "endomorphism does not commute with d on v"),
        ("xyw", {"x": "0"}, "endo", "restriction of the endomorphism to the base is singular"),
        ("non_minimal", {}, "model", "inversion requires a minimal model; offending generators: v"),
    ],
    ids=["not-quasi-iso", "not-a-chain-map", "base-not-automorphism", "not-minimal"],
)
def test_invert_refusals_name_their_file(files, capsys, tmp_path, model, images, blamed, message):
    model = {
        "model": files["model"],
        "xyw": _xyw_model(tmp_path),
        "non_minimal": _non_minimal_model(tmp_path),
    }[model]
    endo = write(tmp_path, "refused.json", {"kind": "endo", "images": images})
    code, out, err = run(capsys, "invert", model, endo, "--max-degree", "4")
    _assert_one_line_error(code, err, f"{endo if blamed == 'endo' else model}: {message}")
    assert code == 2 and out == ""


@contextlib.contextmanager
def _time_limit(seconds: int):
    """Fail the test, instead of hanging it, once `seconds` have passed."""

    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _xyw_model_doc(w_degree: int, target: dict, w_image: str) -> dict:
    """L(x, y | w) over the base x, y of degree 1, with d = 0."""
    return {
        "kind": "relative_model",
        "generators": [
            {"name": "x", "degree": 1},
            {"name": "y", "degree": 1},
            {"name": "w", "degree": w_degree},
        ],
        "differential": {},
        "base": ["x", "y"],
        "stages": [{"A": [], "B": []}, {"A": ["w"], "B": []}],
        "structureMap": {"target": target, "images": {"x": "x", "y": "y", "w": w_image}},
    }


@pytest.mark.parametrize("image, found", [("x", 1), ("[x,y]", 2)])
def test_image_of_the_wrong_degree_builds_no_basis_of_its_degree(capsys, tmp_path, image, found):
    # the degree-1000 basis of L(x, y, w) is far too large to build, so the
    # image is refused from the degrees of its letters alone
    doc = _xyw_model_doc(1000, {"kind": "findim_dgla", "dims": {"1": 2}}, "0")
    doc["structureMap"]["images"].update(x="e_1_0", y="e_1_1")
    model = write(tmp_path, "model.json", doc)
    endo = write(tmp_path, "wrong.json", {"kind": "endo", "images": {"w": image}})
    with _time_limit(5):
        code, out, err = run(capsys, "invert", model, endo, "--max-degree", "1000")
    _assert_one_line_error(code, err, f"{endo}: images[w]: expected degree 1000, found {found}")
    assert code == 2 and out == ""


def test_respelled_endo_gives_the_same_inverse(capsys, tmp_path):
    target = {
        "kind": "dgla",
        "generators": [
            {"name": "x", "degree": 1},
            {"name": "y", "degree": 1},
            {"name": "w", "degree": 3},
        ],
        "differential": {},
    }
    model = write(tmp_path, "model.json", _xyw_model_doc(3, target, "w"))
    outputs = set()
    # the canonical text, then reordered and repeated terms, which the
    # canonical grammar still matches, then odd spacing and non-basis trees
    # (right-normed, and two that cancel), which only the general parser reads
    for text in [
        "w + 3*[[x,y],y]",
        "3*[[x,y],y] + w",
        "[[x,y],y] + w + 2*[[x,y],y]",
        "w +[ x , [x,y]] - 3*[y,[x,y]]+[[x,y],x]",
    ]:
        endo = write(tmp_path, "endo.json", {"kind": "endo", "images": {"w": text}})
        code, out, _ = run(capsys, "invert", model, endo, "--max-degree", "3")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    assert json.loads(outputs.pop())["inverse"]["images"]["w"] == "w - 3*[[x,y],y]"


@pytest.mark.parametrize(
    "model, endos, blamed, message",
    [
        ("model", ("squish", "endo_id"), "squish", "the first endomorphism is not a relative automorphism"),
        ("model", ("endo_id", "squish"), "squish", "the second endomorphism is not a relative automorphism"),
        ("non_minimal", ("endo_id", "endo_id"), "non_minimal", "the ambient model is not minimal"),
    ],
    ids=["first", "second", "not-minimal"],
)
def test_equivalent_refusals_name_their_file(files, capsys, tmp_path, model, endos, blamed, message):
    paths = {
        "model": files["model"],
        "non_minimal": _non_minimal_model(tmp_path),
        "endo_id": files["endo_id"],
        "squish": write(tmp_path, "squish.json", {"kind": "endo", "images": {"w": "0"}}),
    }
    argv = ["equivalent", paths[model], *(paths[e] for e in endos), "--max-degree", "3"]
    code, out, err = run(capsys, *argv)
    _assert_one_line_error(code, err, f"{paths[blamed]}: {message}")
    assert code == 2 and out == ""


@pytest.mark.parametrize("field", ["source", "target"])
@pytest.mark.parametrize(
    "ref, message",
    [
        ("nope.json", "No such file or directory"),
        ("sub", "Is a directory"),
        ("a\x00b", "embedded null byte"),
    ],
    ids=["missing", "directory", "nul"],
)
def test_unreadable_map_reference_names_map_file_and_field(files, capsys, tmp_path, field, ref, message):
    (tmp_path / "sub").mkdir()
    path = write(tmp_path, "map.json", {"kind": "dgla_morphism", field: ref, "images": {"a": "a"}})
    argv = ["minimal-model", files["sphere"], files["wedge"], path, "--max-degree", "2"]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out.json"))
    _assert_one_line_error(code, err, f"{path}: {field}: ")
    assert code == 2 and out == "" and message in err


def test_json_syntax_error_puts_the_path_first(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{\n", encoding="utf-8")
    code, out, err = run(capsys, "validate", str(broken))
    _assert_one_line_error(code, err, f"{broken}: line 2, col 1: Expecting property name")
    assert code == 1 and out == ""


@pytest.mark.parametrize("field", ["source", "target"])
def test_broken_map_reference_names_map_file_and_field(files, capsys, tmp_path, field):
    (tmp_path / "broken.json").write_text("{\n", encoding="utf-8")
    path = write(tmp_path, "refmap.json", {"kind": "dgla_morphism", field: "broken.json"})
    argv = ["minimal-model", files["sphere"], files["wedge"], path, "--max-degree", "2"]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out.json"))
    broken = tmp_path / "broken.json"
    _assert_one_line_error(
        code, err, f"{path}: {field}: {broken}: line 2, col 1: Expecting property name"
    )
    assert code == 1 and out == ""


def test_minimal_model_refusal_of_a_non_chain_map_names_the_map_file(files, capsys, tmp_path):
    # dz = 0 in the base, but z goes to y with dy = a in the target
    base = write(tmp_path, "base.json", {
        "kind": "dgla", "generators": [{"name": "z", "degree": 2}], "differential": {}
    })
    target = write(tmp_path, "target.json", {
        "kind": "dgla",
        "generators": [{"name": "a", "degree": 1}, {"name": "y", "degree": 2}],
        "differential": {"y": "a"},
    })
    path = write(tmp_path, "map.json", {"kind": "dgla_morphism", "images": {"z": "y"}})
    argv = ["minimal-model", base, target, path, "--max-degree", "2"]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out.json"))
    _assert_one_line_error(
        code, err, f"{path}: images: input map does not commute with the differentials on z"
    )
    assert code == 2 and out == ""


def test_validate_of_a_large_bracket_free_piece_is_fast(capsys, tmp_path):
    # nothing touches the pairs (e_1_i, e_3_j), so no defect is scanned for
    # them; scanning one list of 30000 zeros per pair took over 10 s
    path = write(tmp_path, "big.json", {"kind": "findim_dgla", "dims": {"1": 2, "3": 30000}})
    start = time.perf_counter()
    code, out, _ = run(capsys, "validate", path)
    elapsed = time.perf_counter() - start
    assert code == 0 and out.startswith("ok")
    assert elapsed < 5, elapsed


def test_model_image_above_max_degree_keeps_its_own_field(files, capsys, tmp_path):
    # without the degree-3 cell the target validates, so the explicit image
    # of v is the first thing to reach above the bound
    doc = _model_with_low_target(files)
    doc["structureMap"]["target"]["dims"] = {"1": 1}
    doc["structureMap"]["images"]["v"] = "0"
    path = write(tmp_path, "low_model.json", doc)
    code, out, err = run(capsys, "pi0", path, "--max-degree", "2")
    _assert_one_line_error(
        code,
        err,
        f"{path}: structureMap: images[v]: degree 3 exceeds the declared maximum degree 2",
    )
    assert code == 2 and out == ""


def test_validate_above_max_degree_names_file_and_field(capsys, tmp_path):
    # the degree-2 basis vector is the first thing the axioms reach above 1
    doc = {"kind": "findim_dgla", "dims": {"2": 1, "6": 1}, "maxDegree": 1}
    path = write(tmp_path, "low.json", doc)
    code, out, err = run(capsys, "validate", path)
    assert code == 2
    _assert_one_line_error(
        code, err, f"{path}: maxDegree: degree 2 exceeds the declared maximum degree 1"
    )
    assert out == ""


def _fuzz_tree(names):
    return st.recursive(
        st.sampled_from(names),
        lambda inner: st.tuples(inner, inner).map(lambda t: f"[{t[0]},{t[1]}]"),
        max_leaves=3,
    )


@st.composite
def _fuzz_dgla_doc(draw):
    """A small quasi-free dgla document, often invalid on purpose.

    Names may repeat, degrees may be 0, negative or boolean, and
    differentials may name unknown generators ("q"), mix degrees, cancel
    or divide by zero; valid values are drawn more often so that the later
    checks (homogeneity, degree, d^2) and homology are reached too.
    """
    degree = st.sampled_from([1, 2, 3] * 3 + [0, -1, True, False])
    gens = draw(
        st.lists(
            st.fixed_dictionaries({"name": st.sampled_from("abc"), "degree": degree}),
            max_size=3,
        )
    )
    names = [g["name"] for g in gens] + ["q"]
    coeff = st.sampled_from(["", "", "2*", "-1*", "1/2*", "0*", "1/0*"])
    term = st.tuples(coeff, _fuzz_tree(names)).map("".join)
    expr = st.lists(term, min_size=1, max_size=3).map(" + ".join)
    cancelling = _fuzz_tree(names).map(lambda t: f"{t} - {t}")
    differential = draw(
        st.dictionaries(st.sampled_from(names), st.one_of(expr, cancelling), max_size=3)
    )
    return {"kind": "dgla", "generators": gens, "differential": differential}


def _run_quiet(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _assert_refusal_names_a_file(code, err, argv):
    """Every refusal names its file: each stderr line of an exit-1 or
    exit-2 run starts with "error: ", a file given on the command line
    (all of them end in .json here) and ": "."""
    if code in (1, 2):
        prefixes = tuple(f"error: {a}: " for a in argv if a.endswith(".json"))
        for line in err.splitlines():
            assert not line or line.startswith(prefixes), (argv, line)


@settings(max_examples=60, deadline=None)
@given(doc=_fuzz_dgla_doc())
@example(
    doc={
        "kind": "dgla",
        "generators": [{"name": n, "degree": k} for n, k in (("a", 1), ("b", 2), ("c", 3))],
        "differential": {"b": "a", "c": "b + [a,a]"},
    }
)  # d^2 c = a, a violation that random documents rarely reach
def test_fuzzed_dgla_documents_never_crash(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "fuzz.json")
        Path(path).write_text(canonical_json(doc), encoding="utf-8")
        for argv in (("validate", path), ("homology", path, "--max-degree", "3")):
            code, _, err = _run_quiet(*argv)
            assert code in (0, 1, 2, 3), (argv, code)
            assert len(err.splitlines()) <= 1, err
            assert "Traceback" not in err
            _assert_refusal_names_a_file(code, err, argv)


@st.composite
def _fuzz_findim_doc(draw):
    """A small findim_dgla document, often invalid on purpose.

    Basis names may point past a degree's dimension or into degree 0,
    bracket values may name vectors of the wrong degree (a value of the
    wrong length), entries may be fractions, "1/0" or not numbers at all,
    matrices may have the wrong shape, and maxDegree may be small or absent.
    Names inside the declared dimensions are drawn more often, so that the
    axiom checks and homology are reached too.
    """
    dims = draw(st.dictionaries(st.sampled_from("012345"), st.integers(0, 2), max_size=4))
    declared = [(int(k), i) for k, n in sorted(dims.items()) for i in range(n)]
    wild = st.tuples(st.integers(0, 5), st.integers(0, 2))
    basis = st.sampled_from(declared * 3) | wild if declared else wild

    def name(pair):
        return f"e_{pair[0]}_{pair[1]}"

    coeff = st.sampled_from(["", "", "2*", "-1*", "1/2*", "-3/2*", "0*"] * 3 + ["1/0*"])

    @st.composite
    def bracket(draw):
        (p, i), (q, j) = draw(basis), draw(basis)
        in_degree = [(k, t) for k, t in declared if k == p + q]
        target = st.sampled_from(in_degree * 6) | wild if in_degree else wild
        term = st.tuples(coeff, target).map(lambda ct: ct[0] + name(ct[1]))
        terms = st.lists(term, min_size=1, max_size=3)
        value = draw(terms.map(" + ".join) if in_degree else st.just("0") | terms.map(" + ".join))
        return {"left": name((p, i)), "right": name((q, j)), "value": value}

    entry = st.sampled_from([0, 0, 1, -1, 2, "1/2", "-3/4"] * 3 + ["1/0", "x", 1.5, True])

    @st.composite
    def matrix(draw):
        k = draw(st.integers(1, 5))
        rows, cols = dims.get(str(k - 1), 0), dims.get(str(k), 0)
        if draw(st.booleans()):
            rows, cols = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        return str(k), [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    doc = {
        "kind": "findim_dgla",
        "dims": dims,
        "brackets": draw(st.lists(bracket(), max_size=3)),
        "differential": dict(draw(st.lists(matrix(), max_size=3))),
    }
    max_degree = draw(st.sampled_from([None, None, 0, 1, 2, 3, 5]))
    if max_degree is not None:
        doc["maxDegree"] = max_degree
    return doc


@settings(max_examples=80, deadline=None)
@given(doc=_fuzz_findim_doc())
@example(doc=_LOW_MAX_DEGREE)
@example(
    doc={
        "kind": "findim_dgla",
        "dims": {"1": 1, "2": 1, "3": 1},
        "brackets": [
            {"left": "e_1_0", "right": "e_1_0", "value": "e_2_0"},
            {"left": "e_1_0", "right": "e_2_0", "value": "1/2*e_3_0"},
        ],
        "differential": {},
    }
)  # a Jacobi violation, which random documents rarely reach
def test_fuzzed_findim_documents_never_crash(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "fuzz.json")
        Path(path).write_text(canonical_json(doc), encoding="utf-8")
        for argv in (("validate", path), ("homology", path, "--max-degree", "3")):
            code, _, err = _run_quiet(*argv)
            assert code in (0, 1, 2, 3), (argv, code)
            assert len(err.splitlines()) <= 1, err
            assert "Traceback" not in err
            _assert_refusal_names_a_file(code, err, argv)


_FUZZ_MODELS = (
    # base x; fibers w, v of degree 2, 3 with dv = [x,x]
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
                "generators": [{"name": "x", "degree": 1}, {"name": "w", "degree": 2}],
                "differential": {},
            },
            "images": {"x": "x", "w": "w", "v": "0"},
        },
    },
    # base x, y of degree 1, 2, so the degree-2 base block acts on y and
    # [x,x]; fiber w of degree 3 with dw = [x,x]
    {
        "kind": "relative_model",
        "generators": [
            {"name": "x", "degree": 1},
            {"name": "y", "degree": 2},
            {"name": "w", "degree": 3},
        ],
        "differential": {"w": "[x,x]"},
        "base": ["x", "y"],
        "stages": [{"A": [], "B": []}, {"A": [], "B": []}, {"A": ["w"], "B": []}],
        "structureMap": {
            "target": {
                "kind": "dgla",
                "generators": [{"name": "x", "degree": 1}, {"name": "y", "degree": 2}],
                "differential": {},
            },
            "images": {"x": "x", "y": "y", "w": "0"},
        },
    },
)
_FUZZ_NAMES = ["x", "y", "w", "v", "q"]
# images by degree in either model: invertible, singular ("0", a bracket in
# place of a generator) or not chain maps
_FUZZ_IMAGES = {
    1: ["x", "-1*x", "2*x", "0"],
    2: ["w", "2*w", "w + [x,x]", "y", "-1*y + [x,x]", "y + w", "[x,x]", "0"],
    3: ["v", "v + [x,w]", "w", "2*w", "w + [x,y]", "[x,y]", "[x,w]", "0"],
}
# images of any degree, an unknown name, non-expressions and syntax errors
_FUZZ_WILD = st.sampled_from(
    sum(_FUZZ_IMAGES.values(), []) + ["q", "w - w", "1/0*x", "[x,", True, 3]
)
_FUZZ_JUNK = st.sampled_from([None, 0, True, "x", [], {}, ["x"], {"x": "x"}])


def _fuzz_images(degrees):
    """Image dicts: mostly generators of the model with images of their own
    degree, sometimes any name with any image."""
    fitting = st.sampled_from(sorted(degrees)).flatmap(
        lambda name: st.tuples(st.just(name), st.sampled_from(_FUZZ_IMAGES[degrees[name]]))
    )
    wild = st.tuples(st.sampled_from(_FUZZ_NAMES), _FUZZ_WILD)
    return st.lists(fitting | fitting | wild, max_size=3).map(dict)


@st.composite
def _fuzz_mutated(draw, doc, fields):
    """doc with up to two fields dropped, replaced by junk or by a draw from
    `fields` (a strategy per field, drawn more often than junk), or joined
    by an unknown field."""
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(fields) + ["extra"]))
        action = draw(st.sampled_from(["drop", "junk", "field", "field"]))
        if action == "drop":
            doc.pop(key, None)
        elif action == "junk" or key == "extra":
            doc[key] = draw(_FUZZ_JUNK)
        else:
            doc[key] = draw(fields[key])
    return doc


@st.composite
def _fuzz_invocation(draw):
    """A relative_model document, two endo documents and a bound <= 3, often
    invalid on purpose.

    The model is one of `_FUZZ_MODELS` with up to two fields dropped,
    replaced or added: generators of other degrees, differentials and
    structure-map images of the wrong degree, a base or stages naming other
    generators, a target that is not a dgla.  The endos map generators of
    that model, mostly to images of the right degree, some singular; their
    fields are mutated the same way.
    """
    model = json.loads(json.dumps(draw(st.sampled_from(_FUZZ_MODELS))))
    degrees = {g["name"]: g["degree"] for g in model["generators"]}
    degree = st.sampled_from([1, 2, 3, 3, 0, 5])
    names = st.sampled_from(_FUZZ_NAMES)
    fields = {
        "kind": st.sampled_from(["relative_model", "endo", "dgla"]),
        "generators": st.lists(
            st.fixed_dictionaries({"name": names, "degree": degree}), max_size=3
        ),
        "differential": _fuzz_images(degrees),
        "base": st.lists(names, max_size=3),
        "stages": st.lists(
            st.fixed_dictionaries({"A": st.lists(names, max_size=2), "B": st.just([])}),
            max_size=3,
        ),
        "structureMap": st.fixed_dictionaries(
            {
                "target": st.sampled_from([m["structureMap"]["target"] for m in _FUZZ_MODELS])
                | _FUZZ_JUNK,
                "images": _fuzz_images(degrees),
            }
        ),
    }
    endo_fields = {
        "kind": st.sampled_from(["endo", "relative_model"]),
        "images": _fuzz_images(degrees),
    }
    endos = [
        draw(_fuzz_mutated({"kind": "endo", "images": draw(_fuzz_images(degrees))}, endo_fields))
        for _ in range(2)
    ]
    return draw(_fuzz_mutated(model, fields)), endos, draw(st.integers(1, 3))


@settings(max_examples=100, deadline=None)
@given(case=_fuzz_invocation())
@example(
    case=(_FUZZ_MODELS[1], [{"kind": "endo", "images": {"y": "[x,x]"}}, {"kind": "endo"}], 3)
)  # a chain map whose degree-2 base block is singular
def test_fuzzed_model_and_endo_documents_never_crash(case):
    model, endos, bound = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = write(tmp, "model.json", model)
        first, second = (write(tmp, f"endo{i}.json", e) for i, e in enumerate(endos))
        for argv in (("invert", path, first), ("equivalent", path, first, second), ("pi0", path)):
            code, _, err = _run_quiet(*argv, "--max-degree", str(bound))
            assert code in (0, 1, 2, 3), (argv, code)
            assert len(err.splitlines()) <= 1, err
            assert "Traceback" not in err
            _assert_refusal_names_a_file(code, err, argv)


_FUZZ_MAP_BASE = {
    "kind": "dgla",
    "generators": [{"name": "x", "degree": 1}, {"name": "y", "degree": 3}],
    "differential": {"y": "[x,x]"},
}
_FUZZ_MAP_TARGETS = (
    {
        "kind": "dgla",
        "generators": [
            {"name": "a", "degree": 1},
            {"name": "b", "degree": 2},
            {"name": "c", "degree": 3},
        ],
        "differential": {"c": "[a,a]"},
    },
    {
        "kind": "findim_dgla",
        "dims": {"1": 1, "2": 1},
        "brackets": [{"left": "e_1_0", "right": "e_1_0", "value": "e_2_0"}],
    },
    # the zero image of a y that the map leaves out lies above maxDegree
    {
        "kind": "findim_dgla",
        "dims": {"1": 1, "2": 1},
        "brackets": [{"left": "e_1_0", "right": "e_1_0", "value": "e_2_0"}],
        "maxDegree": 2,
    },
)
# images of x and y in either target: chain maps, non-chain maps (y to 0 or
# 2*c against dy = [x,x]), images of the wrong degree, unknown names and
# non-expressions
_FUZZ_MAP_IMAGES = st.sampled_from(
    ["a", "2*a", "0", "e_1_0", "c", "c + [a,b]", "2*c", "[a,b]", "b", "[a,a]", "e_2_0"] * 2
    + ["q", "a + b", "[a,", "1/0*a", True, 3, None]
)
# source and target references: the files given on the command line, a
# missing path, directories, a file that is no JSON, a NUL byte, and inline
# documents, good, different or bad
_FUZZ_MAP_REFS = st.sampled_from(
    ["base.json", "target.json", "missing.json", "sub", "", "broken.json", "a\x00b"]
    + [_FUZZ_MAP_BASE, *_FUZZ_MAP_TARGETS, {"kind": "dgla"}, {"kind": "nope"}, {}]
) | _FUZZ_JUNK


@st.composite
def _fuzz_map_invocation(draw):
    """A dgla_morphism document, its target and a bound <= 3, often invalid
    on purpose.

    The map sends the base L(x, y | dy = [x,x]) to a quasi-free or a
    finite-dimensional target.  Its images are mostly of the right degree,
    some not chain maps; up to two fields are dropped, replaced or added,
    among them source and target references that cannot be read.
    """
    images = st.dictionaries(st.sampled_from(["x", "y"] * 3 + ["q"]), _FUZZ_MAP_IMAGES, max_size=3)
    fields = {
        "kind": st.sampled_from(["dgla_morphism", "endo", "dgla"]),
        "source": _FUZZ_MAP_REFS,
        "target": _FUZZ_MAP_REFS,
        "images": images | _FUZZ_JUNK,
    }
    doc = draw(_fuzz_mutated({"kind": "dgla_morphism", "images": draw(images)}, fields))
    return doc, draw(st.sampled_from(_FUZZ_MAP_TARGETS)), draw(st.integers(1, 3))


@settings(max_examples=100, deadline=None)
@given(case=_fuzz_map_invocation())
@example(case=({"kind": "dgla_morphism", "source": "a\x00b"}, _FUZZ_MAP_TARGETS[0], 2))
@example(
    case=({"kind": "dgla_morphism", "images": {"x": "a", "y": "c"}}, _FUZZ_MAP_TARGETS[0], 3)
)  # a chain map, so a model is built
def test_fuzzed_morphism_documents_never_crash(case):
    doc, target, bound = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "sub").mkdir()
        (tmp / "broken.json").write_text("{", encoding="utf-8")
        base_path = write(tmp, "base.json", _FUZZ_MAP_BASE)
        target_path = write(tmp, "target.json", target)
        argv = ["minimal-model", base_path, target_path, write(tmp, "map.json", doc)]
        code, _, err = _run_quiet(
            *argv, "--max-degree", str(bound), "--out", str(tmp / "out.json")
        )
        assert code in (0, 1, 2, 3), code
        assert len(err.splitlines()) <= 1, err
        assert "Traceback" not in err
        _assert_refusal_names_a_file(code, err, argv)


def test_parser_is_built_once_per_process(files, capsys):
    from dgla import cli

    cli._parser.cache_clear()
    assert run(capsys, "validate", files["sphere"])[0] == 0
    assert run(capsys, "validate", files["wedge"])[0] == 0
    assert cli._parser.cache_info().misses == 1


def test_reused_parser_repeats_help_and_usage_errors():
    def outcome(*argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
        return exc.value.code, out.getvalue(), err.getvalue()

    helped = outcome("--help")
    assert helped[0] == 0 and helped[1].startswith("usage: dgla")
    assert outcome("--help") == helped
    refused = outcome("homology", "x.json", "--max-degree", "0")
    assert refused[0] == 2 and "the degree bound must be at least 1" in refused[2]
    assert outcome("homology", "x.json", "--max-degree", "0") == refused


_HUGE = "1" * 5000


@pytest.mark.parametrize(
    "doc, field, message",
    [
        (
            {
                "kind": "findim_dgla",
                "dims": {"1": 1, "2": 1},
                "brackets": [{"left": "e_1_0", "right": "e_1_0", "value": "²*e_2_0"}],
            },
            "brackets[0].value",
            "line 1, col 1: integer with a digit that is not decimal",
        ),
        (
            {
                "kind": "findim_dgla",
                "dims": {"1": 1, "2": 1},
                "brackets": [
                    {"left": "e_1_0", "right": "e_1_0", "value": f"e_2_0 - {_HUGE}*e_2_0"}
                ],
            },
            "brackets[0].value",
            "line 1, col 9: integer of 5000 digits is too long",
        ),
        (
            {
                "kind": "dgla",
                "generators": [{"name": "x", "degree": 1}, {"name": "y", "degree": 3}],
                "differential": {"y": "²*[x,x]"},
            },
            "differential[y]",
            "line 1, col 1: integer with a digit that is not decimal",
        ),
    ],
    ids=["superscript-coefficient", "5000-digit-coefficient", "superscript-differential"],
)
def test_odd_integers_are_parse_errors(capsys, tmp_path, doc, field, message):
    path = write(tmp_path, "odd.json", doc)
    code, out, err = run(capsys, "validate", path)
    assert (code, out, err) == (1, "", f"error: {path}: {field}: {message}\n")


def test_full_width_digits_stay_accepted(capsys, tmp_path):
    doc = {
        "kind": "findim_dgla",
        "dims": {"1": 1, "2": 1},
        "brackets": [{"left": "e_1_0", "right": "e_1_0", "value": "２*e_2_0"}],
    }
    code, out, _ = run(capsys, "validate", write(tmp_path, "wide.json", doc))
    assert (code, out) == (0, "ok: valid finite-dimensional dg Lie algebra\n")


def test_minimal_model_of_a_differential_vanishing_in_the_free_algebra(capsys, tmp_path):
    # d(y) = [x,x] with x even is 0 in L: the identity is a chain map
    doc = {
        "kind": "dgla",
        "generators": [{"name": "x", "degree": 2}, {"name": "y", "degree": 3}],
        "differential": {"y": "[x,x]"},
    }
    algebra = write(tmp_path, "b.json", doc)
    identity = write(tmp_path, "m.json", {"kind": "dgla_morphism", "images": {"x": "x", "y": "y"}})
    out_path = tmp_path / "model_out.json"
    code, _, err = run(
        capsys, "minimal-model", algebra, algebra, identity,
        "--max-degree", "3", "--out", str(out_path),
    )
    assert (code, err) == (0, "")
    from dgla.formats import model_from_doc
    from dgla.minimal import verify_model

    model = model_from_doc(json.loads(out_path.read_text(encoding="utf-8")))
    assert verify_model(model, 3).ok


@pytest.mark.parametrize("case", ["directory-input", "non-utf8-input", "directory-out"])
def test_unreadable_files_exit_with_one_line(files, capsys, tmp_path, case):
    if case == "directory-input":
        path = str(tmp_path)
        argv, expected = ("validate", path), 2
    elif case == "non-utf8-input":
        path = str(tmp_path / "latin1.json")
        text = '{"kind": "dgla", "generators": [{"name": "é", "degree": 1}]}'
        Path(path).write_bytes(text.encode("latin-1"))
        argv, expected = ("validate", path), 1
    else:
        path = str(tmp_path / "out_dir")
        Path(path).mkdir()
        argv = (
            "minimal-model", files["sphere"], files["wedge"], files["incl"],
            "--max-degree", "2", "--out", path,
        )
        expected = 2
    code, out, err = run(capsys, *argv)
    assert code == expected
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["01", "+2", " 2", "2_0", "١"])
@pytest.mark.parametrize("field", ["dims", "differential"])
def test_non_canonical_degree_keys_are_refused(capsys, tmp_path, field, key):
    # each key spells a degree already given; read as that degree, it would
    # silently overwrite the other entry
    doc = {
        "kind": "findim_dgla",
        "dims": {"1": 2, "2": 1},
        "differential": {"2": [["1"], ["0"]]},
    }
    doc[field][key] = 1 if field == "dims" else [["0"], ["0"]]
    path = write(tmp_path, "keys.json", doc)
    code, out, err = run(capsys, "homology", path, "--max-degree", "2")
    assert (code, out) == (2, "")
    assert err == f"error: {path}: {field}: bad degree key {key!r}\n"


_ATOM_SPELLINGS = ["e_1_01", "e_1_+1", "e_1_ 1", "e_1_\u0661", "e_01_1"]


def _atom_doc(**entry):
    bracket = {"left": "e_1_0", "right": "e_1_1", "value": "e_2_0"}
    return {"kind": "findim_dgla", "dims": {"1": 2, "2": 1}, "brackets": [{**bracket, **entry}]}


@pytest.mark.parametrize(
    "field, name",
    [(field, name) for field in ("left", "right") for name in _ATOM_SPELLINGS]
    + [("value", name) for name in ("e_2_00", "e_02_0", "e_2_\u0660")],
)
def test_non_canonical_atom_names_are_refused_in_brackets(capsys, tmp_path, field, name):
    # each name spells a basis vector to int(); read as it, it would be
    # written back in another spelling
    path = write(tmp_path, "atoms.json", _atom_doc(**{field: name}))
    code, out, err = run(capsys, "validate", path)
    assert (code, out) == (2, "")
    assert err == (
        f"error: {path}: brackets[0].{field}: "
        f"expected a basis vector name e_<deg>_<i>, got {name!r}\n"
    )


@pytest.mark.parametrize(
    "name, code, message",
    [
        ("e_1_01", 2, "unknown basis vector 'e_1_01'"),
        ("e_1_+1", 1, "line 1, col 7: nonzero constant term: elements have no degree-0 part"),
        ("e_1_ 1", 1, "line 1, col 6: unexpected trailing input"),
        ("e_1_\u0661", 2, "unknown basis vector 'e_1_\u0661'"),
        ("e_01_1", 2, "unknown basis vector 'e_01_1'"),
    ],
)
def test_non_canonical_atom_names_are_refused_in_images(files, capsys, tmp_path, name, code, message):
    # an expression leaf is an unknown basis vector; "e_1_+1" and "e_1_ 1"
    # are not one leaf, and the parser refuses them
    target = write(tmp_path, "target.json", _atom_doc())
    path = write(tmp_path, "map.json", {"kind": "dgla_morphism", "images": {"a": name}})
    argv = ["minimal-model", files["sphere"], target, path, "--max-degree", "2"]
    got, out, err = run(capsys, *argv, "--out", str(tmp_path / "out.json"))
    assert (got, out) == (code, "")
    assert err == f"error: {path}: images[a]: {message}\n"


def test_model_image_in_an_undeclared_degree_of_the_target_names_the_field(
    files, capsys, tmp_path
):
    # e_0_0 exists in the target's dims but degree 0 is no degree of an
    # element; the target is validated before its images are read, so its
    # degree-0 piece is what the error names
    doc = json.loads(Path(files["model"]).read_text(encoding="utf-8"))
    doc["structureMap"] = {
        "target": {"kind": "findim_dgla", "dims": {"0": 1, "1": 1}},
        "images": {"x": "e_0_0"},
    }
    path = write(tmp_path, "degree_zero.json", doc)
    code, _, err = run(capsys, "pi0", path, "--max-degree", "3")
    _assert_one_line_error(
        code, err, f"{path}: structureMap.target: degree 0 piece declared: not simply connected"
    )


@pytest.mark.parametrize("degree", [1, 0])
def test_model_target_with_a_duplicate_generator_exits_with_one_line(capsys, tmp_path, degree):
    # a generator left out of the images is sent to the target's zero, which
    # builds the target's algebra, so the target is validated first
    doc = {
        "kind": "relative_model",
        "generators": [{"name": "x", "degree": degree}],
        "differential": {},
        "base": ["x"],
        "stages": [],
        "structureMap": {
            "target": {
                "kind": "dgla",
                "generators": [{"name": "y", "degree": 1}, {"name": "y", "degree": 1}],
            },
            "images": {},
        },
    }
    path = write(tmp_path, "dup.json", doc)
    code, out, err = run(capsys, "pi0", path, "--max-degree", "1")
    assert (code, out) == (2, "")
    _assert_one_line_error(
        code, err, f"{path}: structureMap.target: duplicate generator name 'y'"
    )


@pytest.mark.parametrize(
    "generators, images, violation",
    [
        ([("y", 1), ("y", 1)], {"x": "y"}, "duplicate generator name 'y'"),
        ([("y", 1), ("y", 1)], {}, "duplicate generator name 'y'"),
        ([("y", 0)], {}, "generator 'y' has degree 0: not simply connected"),
    ],
    ids=["duplicate-name", "duplicate-name-empty-images", "degree-zero"],
)
def test_bad_model_target_names_file_and_field(capsys, tmp_path, generators, images, violation):
    doc = {
        "kind": "relative_model",
        "generators": [{"name": "x", "degree": 1}],
        "differential": {},
        "base": ["x"],
        "stages": [],
        "structureMap": {
            "target": {
                "kind": "dgla",
                "generators": [{"name": n, "degree": d} for n, d in generators],
            },
            "images": images,
        },
    }
    path = write(tmp_path, "m.json", doc)
    code, out, err = run(capsys, "pi0", path, "--max-degree", "1")
    assert (code, out) == (2, "")
    _assert_one_line_error(code, err, f"{path}: structureMap.target: {violation}")
    assert err.count("m.json") == 1


def test_deeply_nested_json_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000, encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    _assert_one_line_error(code, err, f"{path}: JSON nested too deeply")


def test_deeply_nested_expression_is_a_parse_error(capsys, tmp_path):
    depth = 5000
    expr = "[" * depth + "x,x]" + ",x]" * (depth - 1)
    doc = {
        "kind": "dgla",
        "generators": [{"name": "x", "degree": 1}, {"name": "w", "degree": 3}],
        "differential": {"w": expr},
    }
    path = write(tmp_path, "deep_expr.json", doc)
    code, out, err = run(capsys, "validate", path)
    assert (code, out) == (1, "")
    _assert_one_line_error(code, err, f"{path}: differential[w]: expression nested too deeply")


def _located(argv, blamed, message, code=2):
    """A refusal, with exit code `code`, that names its file, and field or
    flag, today.

    `argv` gives the fixture's files by key and other documents inline; a
    callable in it is called with (files, tmp_path) first.  An inline
    document is written to doc<i>.json, i its place in argv.  `blamed` is
    the key or place of the file the line starts with, and `{tmp}` in
    `message` stands for the test's directory.
    """

    def case(files, tmp_path):
        paths, args = dict(files), []
        for i, arg in enumerate(argv):
            if callable(arg):
                arg = arg(files, tmp_path)
            if isinstance(arg, dict):
                arg = write(tmp_path, f"doc{i}.json", arg)
            paths[i] = str(paths.get(arg, arg))
            args.append(paths[i])
        return args, f"{paths[blamed]}: {message.format(tmp=tmp_path)}", code

    return case


def _out(files, tmp_path):
    return str(tmp_path / "out.json")


def _map(images):
    return {"kind": "dgla_morphism", "images": images}


def _endo(images):
    return {"kind": "endo", "images": images}


def _gens(*pairs):
    return {"kind": "dgla", "generators": [{"name": n, "degree": k} for n, k in pairs]}


def _with_broken_json(doc):
    def build(files, tmp_path):
        (tmp_path / "broken.json").write_text("{\n", encoding="utf-8")
        return doc

    return build


def _latin1_file(files, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"kind": "dgla", "generators": [{"name": "é"}]}'.encode("latin-1"))
    return path


_ABOVE = "degree 3 exceeds the declared maximum degree 2"
_LOCATED_REFUSALS = {
    # the _naming_file sites of the CLI
    "validate-maxDegree": _located(
        ["validate", {"kind": "findim_dgla", "dims": {"2": 1, "6": 1}, "maxDegree": 1}],
        1,
        "maxDegree: degree 2 exceeds the declared maximum degree 1",
    ),
    "homology-maxDegree": _located(
        ["homology", {"kind": "findim_dgla", "dims": {"2": 1, "6": 1}, "maxDegree": 1},
         "--max-degree", "2"],
        1,
        "maxDegree: degree 2 exceeds the declared maximum degree 1",
    ),
    "homology-ladder-maxDegree": _located(
        ["homology", {"kind": "findim_dgla", "dims": {"1": 1}, "maxDegree": 2},
         "--max-degree", "3"],
        1,
        f"maxDegree: {_ABOVE}",
    ),
    "model-target-maxDegree": _located(
        ["pi0", lambda files, _: _model_with_low_target(files), "--max-degree", "2"],
        1,
        f"structureMap.target: maxDegree: {_ABOVE}",
    ),
    "map-target-maxDegree": _located(
        ["minimal-model", "sphere", _LOW_MAX_DEGREE, _map({"a": "e_1_0"}), "--max-degree", "2",
         "--out", _out],
        2,
        f"maxDegree: {_ABOVE}",
    ),
    "left-out-generator-target-maxDegree": _located(
        ["minimal-model", _FUZZ_MAP_BASE, _LOW_MAX_DEGREE, _map({"x": "e_1_0"}), "--max-degree",
         "3", "--out", _out],
        2,
        f"maxDegree: {_ABOVE}",
    ),
    "non-chain-map": _located(
        ["minimal-model", {**_gens(("z", 2)), "differential": {}},
         {**_gens(("a", 1), ("y", 2)), "differential": {"y": "a"}}, _map({"z": "y"}),
         "--max-degree", "2", "--out", _out],
        3,
        "images: input map does not commute with the differentials on z",
    ),
    "stage-name-clash": _located(
        ["minimal-model", _gens(("a_1_0", 1)), _gens(("a", 1)), _map({"a_1_0": "a"}),
         "--max-degree", "2", "--out", _out],
        1,
        "base generator name 'a_1_0' collides with the reserved stage naming scheme "
        "a_<stage>_<index> / b_<stage>_<index>",
    ),
    "not-minimal": _located(
        ["invert", lambda _, tmp_path: _non_minimal_model(tmp_path), _endo({}),
         "--max-degree", "4"],
        1,
        "inversion requires a minimal model; offending generators: v",
    ),
    "not-quasi-iso": _located(
        ["invert", "model", _endo({"w": "0"}), "--max-degree", "4"],
        2,
        "the endomorphism is singular in degree 2, so it is not a quasi-isomorphism there",
    ),
    "base-not-automorphism": _located(
        ["invert", lambda _, tmp_path: _xyw_model(tmp_path), _endo({"x": "0"}), "--max-degree",
         "4"],
        2,
        "restriction of the endomorphism to the base is singular in degree 1",
    ),
    "not-a-chain-map": _located(
        ["invert", "model", _endo({"v": "0"}), "--max-degree", "4"],
        2,
        "endomorphism does not commute with d on v",
    ),
    "equivalent-max-degree": _located(
        ["equivalent", "model", "endo_id", "endo_shift", "--max-degree", "2"],
        "model",
        "--max-degree: bound is smaller than the maximal generator degree",
    ),
    "pi0-max-degree": _located(
        ["pi0", "model", "--max-degree", "2"],
        "model",
        "--max-degree: model has generators of degree 3, beyond the bound 2",
    ),
    # the CLI's own refusals
    "homology-violation": _located(
        ["homology", {**_gens(("[x,y]", 1)), "differential": {}}, "--max-degree", "2"],
        1,
        "generator name '[x,y]' is not an identifier",
    ),
    "source-not-quasi-free": _located(
        ["minimal-model", {"kind": "findim_dgla", "dims": {"1": 1}}, "sphere", _map({}),
         "--max-degree", "2", "--out", _out],
        1,
        "the source of the map must be quasi-free",
    ),
    "equivalent-first-endo": _located(
        ["equivalent", "model", _endo({"w": "0"}), "endo_id", "--max-degree", "3"],
        2,
        "the first endomorphism is not a relative automorphism",
    ),
    "equivalent-second-endo": _located(
        ["equivalent", "model", "endo_id", _endo({"w": "0"}), "--max-degree", "3"],
        3,
        "the second endomorphism is not a relative automorphism",
    ),
    "equivalent-not-minimal": _located(
        ["equivalent", lambda _, tmp_path: _non_minimal_model(tmp_path), "endo_id", "endo_id",
         "--max-degree", "3"],
        1,
        "the ambient model is not minimal",
    ),
    # the readers of documents
    "not-utf8": _located(
        ["validate", _latin1_file],
        1,
        "not UTF-8 text (invalid continuation byte at byte 42)",
        code=1,
    ),
    "json-syntax-in-reference": _located(
        ["minimal-model", "sphere", "wedge",
         _with_broken_json(_map({}) | {"source": "broken.json"}), "--max-degree", "2",
         "--out", _out],
        3,
        "source: {tmp}/broken.json: line 2, col 1: Expecting property name enclosed in double "
        "quotes",
        code=1,
    ),
    "unreadable-reference": _located(
        ["minimal-model", "sphere", "wedge", _map({}) | {"target": "nope.json"}, "--max-degree",
         "2", "--out", _out],
        3,
        "target: [Errno 2] No such file or directory: '{tmp}/nope.json'",
    ),
    "parse-error-in-image": _located(
        ["invert", "model", _endo({"w": "[x,"}), "--max-degree", "3"],
        2,
        "images[w]: line 1, col 4: expected identifier",
        code=1,
    ),
    "parse-error-in-differential": _located(
        ["validate", {**_gens(("x", 1), ("y", 2)), "differential": {"y": "x +"}}],
        1,
        "differential[y]: line 1, col 4: expected identifier",
        code=1,
    ),
    "wrong-degree-image": _located(
        ["invert", "model", _endo({"w": "v"}), "--max-degree", "3"],
        2,
        "images[w]: expected degree 2, found 3",
    ),
    "unknown-generator-in-image": _located(
        ["invert", "model", _endo({"w": "[x,q]"}), "--max-degree", "3"],
        2,
        "images[w]: unknown generator 'q'",
    ),
    "image-above-maxDegree": _located(
        ["pi0",
         lambda files, _: _model_with_low_target(files)
         | {"structureMap": {"target": {"kind": "findim_dgla", "dims": {"1": 1}, "maxDegree": 2},
                             "images": {"x": "e_1_0", "w": "0", "v": "0"}}},
         "--max-degree", "2"],
        1,
        f"structureMap: images[v]: {_ABOVE}",
    ),
    "model-target-violation": _located(
        ["pi0",
         {"kind": "relative_model", "generators": [{"name": "x", "degree": 1}], "base": ["x"],
          "stages": [], "structureMap": {"target": _gens(("y", 0))}},
         "--max-degree", "1"],
        1,
        "structureMap.target: generator 'y' has degree 0: not simply connected",
    ),
    "not-filtered": _located(
        # in L(x, y | w), the image of the base generator y holds the fiber w
        ["invert", lambda _, tmp_path: _xyw_model(tmp_path), _endo({"y": "y + [x,[x,w]]"}),
         "--max-degree", "4"],
        2,
        "images: image of base generator 'y' leaves the base subalgebra",
    ),
    "base-stages": _located(
        ["pi0", lambda files, _: _model_with(files, base=["q"]), "--max-degree", "3"],
        1,
        "base/stages: generator order must list the base, then each stage's A-generators "
        "followed by its B-generators",
    ),
}


@pytest.mark.parametrize("case", sorted(_LOCATED_REFUSALS))
def test_located_refusals_keep_their_whole_line(files, capsys, tmp_path, case):
    argv, line, code = _LOCATED_REFUSALS[case](files, tmp_path)
    assert run(capsys, *argv) == (code, "", f"error: {line}\n")


# invalid algebras, each with the refusal of its first violation
_INVALID_ALGEBRAS = {
    "degree-zero": (_gens(("x", 0)), "generator 'x' has degree 0: not simply connected"),
    "duplicate-name": (_gens(("x", 1), ("x", 1)), "duplicate generator name 'x'"),
    "unknown-generator": (
        {**_gens(("x", 1), ("w", 2)), "differential": {"w": "z"}},
        "differential of 'w' uses unknown generator 'z'",
    ),
    "not-homogeneous": (
        {**_gens(("x", 1), ("y", 1), ("w", 3)), "differential": {"w": "x + [x,y]"}},
        "differential of 'w' is not homogeneous",
    ),
    "d-squared": (
        {**_gens(("x", 1), ("y", 2), ("w", 3)), "differential": {"w": "y", "y": "x"}},
        "d^2 is nonzero on generator 'w'",
    ),
    "above-maxDegree": (
        {"kind": "findim_dgla", "dims": {"2": 1, "6": 1}, "maxDegree": 1},
        "maxDegree: degree 2 exceeds the declared maximum degree 1",
    ),
}


def _minimal_model(files, tmp_path, base=None, target=None, map_doc=None):
    """minimal-model of the inclusion of the sphere into the wedge, with the
    base or target file or the map document given instead."""
    map_path = files["incl"] if map_doc is None else write(tmp_path, "map.json", map_doc)
    return ["minimal-model", base or files["sphere"], target or files["wedge"], map_path,
            "--max-degree", "2", "--out", str(tmp_path / "out.json")]


def _reading_map_end(end):
    def argv(files, tmp_path, doc, bad):
        args = _minimal_model(files, tmp_path, map_doc={**_map({"a": "a"}), end: doc})
        return args, f"{args[3]}: {end}"

    return argv


def _reading_model(own):
    def argv(files, tmp_path, doc, bad):
        if own:
            model = {**doc, "kind": "relative_model", "stages": [],
                     "base": [g["name"] for g in doc["generators"]],
                     "structureMap": {"target": _gens(("a", 1)), "images": {}}}
        else:
            model = json.loads(Path(files["model"]).read_text(encoding="utf-8"))
            model["structureMap"] = {"target": doc, "images": {}}
        path = write(tmp_path, "m.json", model)
        return ["pi0", path, "--max-degree", "3"], path if own else f"{path}: structureMap.target"

    return argv


# every path that reads an algebra: (files, tmp_path, the algebra's document,
# that document as a file) -> (argv, the place the refusal names)
_ALGEBRA_READERS = {
    "validate": lambda files, tmp_path, doc, bad: (["validate", bad], bad),
    "homology": lambda files, tmp_path, doc, bad: (["homology", bad, "--max-degree", "2"], bad),
    "minimal-model-base": lambda files, tmp_path, doc, bad: (
        _minimal_model(files, tmp_path, base=bad), bad
    ),
    "minimal-model-target": lambda files, tmp_path, doc, bad: (
        _minimal_model(files, tmp_path, target=bad), bad
    ),
    "map-source": _reading_map_end("source"),
    "map-target": _reading_map_end("target"),
    # a referenced file is named itself, as its parse errors are
    "map-source-path": lambda files, tmp_path, doc, bad: (
        _minimal_model(files, tmp_path, map_doc={**_map({"a": "a"}), "source": bad}), bad
    ),
    "model-target": _reading_model(own=False),
    "model-algebra": _reading_model(own=True),
}


@pytest.mark.parametrize(
    "reader, fault",
    [
        (reader, fault)
        for reader in _ALGEBRA_READERS
        for fault in _INVALID_ALGEBRAS
        # validate lists the axiom violations it finds instead (see the
        # tests above), so it refuses only the bound; a model's own algebra
        # is quasi-free, so it has no bound
        if (fault == "above-maxDegree" and reader != "model-algebra")
        or (fault != "above-maxDegree" and reader != "validate")
    ],
)
def test_every_path_that_reads_an_algebra_refuses_an_invalid_one(
    files, capsys, tmp_path, reader, fault
):
    doc, message = _INVALID_ALGEBRAS[fault]
    argv, place = _ALGEBRA_READERS[reader](files, tmp_path, doc, write(tmp_path, "bad.json", doc))
    assert run(capsys, *argv) == (2, "", f"error: {place}: {message}\n")


@pytest.mark.parametrize(
    "argv, line",
    [
        (["validate", "{tmp}/missing.json"], "{tmp}/missing.json: No such file or directory"),
        (["validate", "{tmp}/somedir"], "{tmp}/somedir: Is a directory"),
        (
            ["minimal-model", "{sphere}", "{wedge}", "{incl}", "--max-degree", "2",
             "--out", "{tmp}/nodir/out.json"],
            "{tmp}/nodir/out.json: No such file or directory",
        ),
    ],
    ids=["missing-input", "directory-input", "unwritable-out"],
)
def test_os_errors_put_the_file_first(files, capsys, tmp_path, argv, line):
    (tmp_path / "somedir").mkdir()
    argv = [a.format(**files) for a in argv]
    assert run(capsys, *argv) == (2, "", f"error: {line.format(tmp=tmp_path)}\n")
