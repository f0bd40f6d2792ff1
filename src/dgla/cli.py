"""Command-line surface: parse inputs, run pipelines, emit canonical output.

Exit codes: 0 success (or "equivalent"), 1 parse error (a file that is not
UTF-8 among them), 2 invalid input, a file that cannot be read or written, or
a violated precondition, 3 negative verdict.  All outputs are deterministic;
ANSI styling only appears on a terminal and can be disabled with
DGLA_COLOR=0.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from pathlib import Path

from .dg import QuasiFreeDGLA, require_valid, validate
from .errors import (
    BaseNotAutomorphism,
    DegreeBoundExceeded,
    DglaError,
    FormatError,
    NotAChainMap,
    NotMinimal,
    NotQuasiIso,
    NotRelativeAutomorphism,
    TargetNotFiniteType,
)
from .formats import (
    canonical_json,
    dgla_from_doc,
    endo_from_doc,
    endo_to_doc,
    load_document,
    model_from_doc,
    model_to_doc,
    morphism_from_doc,
)
from .homotopy import are_homotopic_rel, pi0_report
from .invert import invert_relative_quasi_iso
from .minimal import build_minimal_model


def _style(text: str, code: str) -> str:
    if os.environ.get("DGLA_COLOR", "1") != "0" and sys.stdout.isatty():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _emit(text: str):
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


@contextlib.contextmanager
def _naming_file(errors, *where: str):
    """Put an error of these types that has no place yet at `where`: the
    file, then the field or flag at fault when one is given (a maxDegree
    field or the --max-degree flag).  An error that has its place, such as
    one from an image expression, passes unchanged."""
    try:
        yield
    except errors as e:
        if not e.where:
            e.within(*where)
        raise


def _load_validated_algebra(path: str):
    algebra = dgla_from_doc(load_document(path), path)
    with _naming_file(TargetNotFiniteType, path, "maxDegree"):
        require_valid(algebra, path)
    return algebra


def cmd_validate(args) -> int:
    algebra = dgla_from_doc(load_document(args.file), args.file)
    with _naming_file(TargetNotFiniteType, args.file, "maxDegree"):
        report = validate(algebra)
    if report.ok:
        _emit(_style("ok", "32") + f": valid {algebra.kind} dg Lie algebra")
        return 0
    for violation in report.violations:
        _emit(_style("violation", "31") + f": {violation}")
    return 2


def cmd_homology(args) -> int:
    algebra = _load_validated_algebra(args.file)
    with _naming_file(TargetNotFiniteType, args.file, "maxDegree"):
        dims = {str(k): algebra.homology(k).dim for k in range(1, args.max_degree + 1)}
    if args.format == "table":
        _emit(_style("degree  dim H", "1"))
        for k in range(1, args.max_degree + 1):
            _emit(f"{k:>6}  {dims[str(k)]}")
    else:
        _emit(
            canonical_json(
                {"kind": "homology_table", "maxDegree": args.max_degree, "dims": dims}
            )
        )
    return 0


def cmd_minimal_model(args) -> int:
    base = _load_validated_algebra(args.base)
    if not isinstance(base, QuasiFreeDGLA):
        raise FormatError("the source of the map must be quasi-free").within(args.base)
    target = _load_validated_algebra(args.target)
    doc = load_document(args.map)
    # the zero image of a generator the map leaves out is built in the
    # target, so above its maxDegree it is the target's fault; a base name
    # that clashes with the stage names is the base's
    with _naming_file(TargetNotFiniteType, args.target, "maxDegree"):
        f = morphism_from_doc(
            doc,
            base_dir=Path(args.map).parent,
            source=base,
            target=target,
            context=args.map,
        )
    with _naming_file(TargetNotFiniteType, args.target, "maxDegree"), _naming_file(
        NotAChainMap, args.map, "images"
    ), _naming_file(FormatError, args.base):
        model = build_minimal_model(f, args.max_degree)
    Path(args.out).write_text(canonical_json(model_to_doc(model)), encoding="utf-8")
    return 0


def cmd_invert(args) -> int:
    model = model_from_doc(load_document(args.model), context=args.model)
    endo = endo_from_doc(load_document(args.endo), model, context=args.endo)
    with _naming_file(NotMinimal, args.model), _naming_file(
        (NotQuasiIso, BaseNotAutomorphism, NotAChainMap), args.endo
    ):
        inverse = invert_relative_quasi_iso(endo, args.max_degree)
    checked = [
        g.name
        for g in model.dgla.generators
        if g.degree <= args.max_degree
    ]
    _emit(
        canonical_json(
            {
                "kind": "inversion",
                "boundDegree": args.max_degree,
                "inverse": endo_to_doc(inverse),
                "verification": {
                    "compositeIsIdentityOn": checked,
                    "inverseIsChainMap": True,
                },
            }
        )
    )
    return 0


def cmd_equivalent(args) -> int:
    model = model_from_doc(load_document(args.model), context=args.model)
    f = endo_from_doc(load_document(args.endo1), model, context=args.endo1)
    g = endo_from_doc(load_document(args.endo2), model, context=args.endo2)
    with _naming_file(NotMinimal, args.model), _naming_file(
        DegreeBoundExceeded, args.model, "--max-degree"
    ):
        try:
            verdict = are_homotopic_rel(f, g, args.max_degree)
        except NotRelativeAutomorphism as e:
            raise e.within((args.endo1, args.endo2)[e.position])
    witness = None
    if verdict.witness is not None:
        witness = {
            name: model.dgla.element_expr(verdict.witness.image(name))
            for name in sorted(verdict.witness.images)
        }
    doc = {
        "kind": "equivalence_verdict",
        "verdict": "equivalent" if verdict.equivalent else "notEquivalent",
        "reason": verdict.reason,
        "witness": witness,
        "dims": verdict.dims,
        "truncationDegree": verdict.truncation_degree,
    }
    if args.format == "table":
        tag = "equivalent" if verdict.equivalent else "notEquivalent"
        _emit(_style(tag, "32" if verdict.equivalent else "31"))
        if verdict.reason:
            _emit(f"reason: {verdict.reason}")
    else:
        _emit(canonical_json(doc))
    return 0 if verdict.equivalent else 3


def cmd_pi0(args) -> int:
    model = model_from_doc(load_document(args.model), context=args.model)
    with _naming_file(DegreeBoundExceeded, args.model, "--max-degree"):
        report = pi0_report(model, args.max_degree)
    if args.format == "table":
        _emit(_style("pi0 report", "1"))
        _emit(f"truncation degree  {report['truncationDegree']}")
        _emit(f"stage dimension    {report['sigmaDimension']}")
        for key in ("der0", "z0", "b0", "h0"):
            _emit(f"dim {key:<5}          {report['derivations'][key]}")
        for key, count in sorted(report["conditions"].items()):
            _emit(f"equations {key:<24} {count}")
    else:
        _emit(canonical_json({"kind": "pi0_report", **report}))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it."""
    parser = argparse.ArgumentParser(
        prog="dgla",
        description=(
            "Minimal relative dg Lie algebra models: construction, inversion "
            "and homotopy equivalence of relative automorphisms, over exact "
            "rationals."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the dg Lie algebra axioms of a file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("the degree bound must be at least 1")
        return value

    def add_common(p, fmt=False):
        p.add_argument(
            "--max-degree",
            type=positive_int,
            required=True,
            help="degree bound; every guarantee is relative to it",
        )
        if fmt:
            p.add_argument(
                "--format",
                choices=("canonical-text", "table"),
                default="canonical-text",
            )

    p = sub.add_parser("homology", help="homology dimensions up to a bound")
    p.add_argument("file")
    add_common(p, fmt=True)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser(
        "minimal-model", help="build the minimal relative model of a map"
    )
    p.add_argument("base")
    p.add_argument("target")
    p.add_argument("map")
    add_common(p)
    p.add_argument("--out", required=True, help="output path for the model document")
    p.set_defaults(func=cmd_minimal_model)

    p = sub.add_parser("invert", help="invert a relative quasi-isomorphism")
    p.add_argument("model")
    p.add_argument("endo")
    add_common(p)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser(
        "equivalent", help="decide homotopy rel base of two relative automorphisms"
    )
    p.add_argument("model")
    p.add_argument("endo1")
    p.add_argument("endo2")
    add_common(p, fmt=True)
    p.set_defaults(func=cmd_equivalent)

    p = sub.add_parser("pi0", help="algebraic-group data of the automorphism group")
    p.add_argument("model")
    add_common(p, fmt=True)
    p.set_defaults(func=cmd_pi0)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DglaError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        # the file first, as for every other refusal
        message = e if e.filename is None else f"{e.filename}: {e.strerror}"
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
