"""End-to-end scenarios across the whole pipeline, driven through files."""

import json
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from dgla.cli import main
from dgla.dg import QuasiFreeDGLA
from dgla.formats import canonical_json, model_from_doc
from dgla.freelie import GradedGenerator, LiePoly
from dgla.exprs import parse_expr
from dgla.minimal import verify_model


def write(tmp_path: Path, name: str, doc) -> str:
    p = tmp_path / name
    p.write_text(canonical_json(doc), encoding="utf-8")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_identity_map_round_trip_through_cli(tmp_path, capsys):
    cone = write(
        tmp_path,
        "cone.json",
        {
            "kind": "dgla",
            "generators": [{"name": "x", "degree": 1}, {"name": "y", "degree": 2}],
            "differential": {"y": "x"},
        },
    )
    ident = write(
        tmp_path,
        "ident.json",
        {"kind": "dgla_morphism", "images": {"x": "x", "y": "y"}},
    )
    out = tmp_path / "model.json"
    code, _, _ = run(
        capsys, "minimal-model", cone, cone, ident, "--max-degree", "4", "--out", str(out)
    )
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert [g["name"] for g in doc["generators"]] == ["x", "y"]
    assert all(s["A"] == [] and s["B"] == [] for s in doc["stages"])


def test_disk_target_pipeline(tmp_path, capsys):
    """Cone construction against a contractible finite-dimensional target.

    The produced model attaches one degree-2 generator b_1_0 with d(b)=x
    whose structure-map value is the disk filler; the model file then feeds
    the inversion and equivalence commands.
    """
    base = write(
        tmp_path,
        "base.json",
        {"kind": "dgla", "generators": [{"name": "x", "degree": 1}], "differential": {}},
    )
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
    mapfile = write(
        tmp_path,
        "map.json",
        {"kind": "dgla_morphism", "images": {"x": "e_1_0"}},
    )
    out = tmp_path / "model.json"
    code, _, _ = run(
        capsys, "minimal-model", base, disk, mapfile, "--max-degree", "3",
        "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["stages"][0]["B"] == ["b_1_0"]
    assert doc["differential"]["b_1_0"] == "x"
    # the attached generator maps to the disk filler, keeping q a chain map
    assert doc["structureMap"]["images"]["b_1_0"] == "e_2_0"

    model = model_from_doc(doc)
    assert verify_model(model, 3).ok

    shift = write(
        tmp_path,
        "shift.json",
        {"kind": "endo", "images": {"b_1_0": "b_1_0 + [x,x]"}},
    )
    code, out_text, _ = run(capsys, "invert", str(out), shift, "--max-degree", "3")
    assert code == 0
    inv = json.loads(out_text)
    assert inv["inverse"]["images"]["b_1_0"] == "b_1_0 - [x,x]"

    ident = write(tmp_path, "id.json", {"kind": "endo", "images": {}})
    code, out_text, _ = run(
        capsys, "equivalent", str(out), ident, shift, "--max-degree", "3"
    )
    assert code == 0
    verdict = json.loads(out_text)
    assert verdict["verdict"] == "equivalent"
    # by hand: u = g^{-1} sends b to b - [x,x]; the witness G(b) = [x,b]
    # satisfies [d,G](b) = d[x,b] = -[x,x] = log(u)(b)
    assert verdict["witness"] == {"b_1_0": "[x,b_1_0]"}


def test_caches_are_consistent_under_concurrency():
    def build():
        return QuasiFreeDGLA(
            [
                GradedGenerator("x", 1),
                GradedGenerator("y", 1),
                GradedGenerator("z", 3),
            ],
            {"z": LiePoly(parse_expr("[x,y]"))},
        )

    sequential = build()
    expected = [sequential.homology(k).dim for k in range(1, 5)]

    shared = build()

    def probe(k):
        return shared.homology(k).dim

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(probe, [1, 2, 3, 4] * 6))
    assert results == expected * 6


def test_pipeline_headroom():
    # a mid-size run must stay comfortably inside the acceptance budgets
    start = time.monotonic()
    src = QuasiFreeDGLA([GradedGenerator("x", 1)], {})
    tgt = QuasiFreeDGLA(
        [GradedGenerator("x", 1), GradedGenerator("y", 1), GradedGenerator("z", 1)],
        {},
    )
    from dgla.dg import DGLAMorphism
    from dgla.minimal import build_minimal_model

    f = DGLAMorphism(src, tgt, {"x": tgt.atom("x")})
    model = build_minimal_model(f, 4)
    assert verify_model(model, 4, against=f).ok
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"pipeline took {elapsed:.1f}s"
