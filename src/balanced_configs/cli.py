"""Command-line interface.

Subcommands: generate, verify, classify, symmetry, lemmas, render.  Machine
reports are JSON on stdout with a stable shape {tool_version, params,
verdict, details}; a short human-readable summary goes to stderr.  Exit
codes: 0 success or positive verdict, 1 negative verdict (balance failure,
Unknown class, refuted group-balance), 2 a typed refusal of the input or the
flags (see _REFUSALS) or an argparse usage error, 3 a numeric or internal
failure (any other exception).
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import sys

from . import __version__
from .classify import UNKNOWN, classify, is_group_balanced, rotation_symmetries_about
from .configs import PatchConfig, PeriodicConfig
from .docio import document_from, parse_config, serialize, to_runtime
from .errors import (
    AmbiguousClassError,
    InsufficientPatchError,
    InvalidPointError,
    NoPairsError,
    ParameterDomainError,
    RenderError,
    ValidationError,
)
from .generators import (
    RotationTilingFlags,
    RotationTilingParams,
    SubsetFlags,
    TriangleGroupFlags,
    TriangleGroupParams,
    gen_hexagonal,
    gen_hyp_rotation_tiling,
    gen_hyp_triangle_group,
    gen_lattice,
    gen_line,
    gen_sphere,
    gen_triangular,
)
from .inequalities import SWEEP_MIN_SAMPLES, check_angle_bound_60_90, run_catalog
from .render import RenderStyle, render_svg
from .verify import VerifyParams, verify_hyperbolic, verify_plane, verify_sphere
from .geometry import DEFAULT_TOL, Tolerance

# the set names of SubsetFlags; every other flag class is named by its fields
_SUBSET_NAMES = {"vertices": "vertices", "midpoints": "edge_midpoints", "centers": "face_centers"}


def _parse_sets(raw, flags_cls, names=None):
    """The flags_cls object that the comma-separated set names in raw select;
    names maps each accepted name to its field, by default the field names."""
    names = names or {f: f for f in flags_cls.__dataclass_fields__}
    chosen = {}
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if token not in names:
            raise ValidationError(
                f"unknown set {token!r}; expected one of {', '.join(sorted(names))}",
                field="--sets",
            )
        chosen[names[token]] = True
    if not chosen:
        raise ValidationError("at least one set must be selected", field="--sets")
    return flags_cls(**chosen)


def _parse_pair_list(raw, flag, count):
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != count:
        raise ValidationError(f"{flag} must have {count} comma-separated values", field=flag)
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ValidationError(f"{flag} values must be numbers, got {raw!r}", field=flag) from None


def _parse_basis(raw):
    rows = raw.split(";")
    if len(rows) != 2:
        raise ValidationError("--basis must be 'ax,ay;bx,by'", field="--basis")
    return [_parse_pair_list(r, "--basis", 2) for r in rows]


def _built_from(flag, build, *args):
    """build(*args), with the InvalidPointError of a lattice or point set the
    flag's value puts out of range refused as a usage error of that flag."""
    try:
        return build(*args)
    except InvalidPointError as exc:
        raise ValidationError(f"{flag}: {exc}", field=flag) from exc


# characters per write: a text stream encodes each write whole, so slices
# keep the encoded copy at one slice rather than a second copy of the text
_WRITE_SLICE = 1 << 20


def _write_text(path, text):
    if path in (None, "-"):
        _write_slices(sys.stdout, text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            _write_slices(fh, text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}", field="--output")


def _write_slices(fh, text):
    for s in range(0, len(text), _WRITE_SLICE):
        fh.write(text[s : s + _WRITE_SLICE])


def _read_config(path):
    """The runtime configuration of the document at path (- for stdin)."""
    if path == "-":
        return to_runtime(parse_config(sys.stdin.read()))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return to_runtime(parse_config(fh.read()))
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}", field="input")


def _read_planar(path, command):
    """The configuration of the document at path, refused unless planar."""
    config = _read_config(path)
    if config.space != "plane":
        raise ValidationError(f"{command} requires a euclidean2 document", field="space")
    return config


def _emit_report(args, verdict, details):
    report = {
        "tool_version": __version__,
        "params": {
            "max_radius": getattr(args, "max_radius", None),
            "residual_tol": getattr(args, "residual_tol", None),
            "class_tol": getattr(args, "class_tol", None),
        },
        "verdict": verdict,
        "details": details,
    }
    print(json.dumps(report, indent=2))


def _tolerance(args):
    # classify and symmetry have no --residual-tol; they never read it
    residual_tol = getattr(args, "residual_tol", DEFAULT_TOL.residual_tol)
    return Tolerance(class_tol=args.class_tol, residual_tol=residual_tol, dedup_tol=1e-9)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_generate(args):
    family = args.family
    meta = {"family": family, "tool_version": __version__}
    if family == "triangular":
        config = _built_from("--side", gen_triangular, args.side)
    elif family == "lattice":
        flags = _parse_sets(args.sets, SubsetFlags, _SUBSET_NAMES)
        v1, v2 = _parse_basis(args.basis)
        config = _built_from("--basis", gen_lattice, v1, v2, flags)
    elif family == "hexagonal":
        flags = _parse_sets(args.sets, SubsetFlags, _SUBSET_NAMES)
        config = _built_from("--side", gen_hexagonal, args.side, flags)
    elif family == "line":
        config = _built_from("--spacing", gen_line, args.count, args.spacing)
    elif family == "sphere":
        flags = _parse_sets(args.sets, SubsetFlags, _SUBSET_NAMES)
        config = gen_sphere(args.kind, flags)
        meta["kind"] = args.kind
    elif family == "triangle-group":
        flags = _parse_sets(args.sets, TriangleGroupFlags)
        pqr = _parse_pair_list(args.pqr, "--pqr", 3)
        if not all(x.is_integer() for x in pqr):
            raise ValidationError(f"--pqr must be three integers, got {args.pqr!r}", field="--pqr")
        p, q, r = (int(x) for x in pqr)
        config = gen_hyp_triangle_group(TriangleGroupParams(p, q, r, args.depth), flags)
        meta["pqr"] = args.pqr
        meta["depth"] = str(args.depth)
    elif family == "rotation-tiling":
        flags = _parse_sets(args.sets, RotationTilingFlags)
        a, b, g = (math.radians(x) for x in _parse_pair_list(args.angles, "--angles", 3))
        config = gen_hyp_rotation_tiling(
            RotationTilingParams(a, b, g, args.order, args.depth), flags
        )
        meta["angles"] = args.angles
        meta["depth"] = str(args.depth)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown family {family!r}")
    _write_text(args.output, serialize(document_from(config, metadata=meta)))
    print(f"generated {family} configuration", file=sys.stderr)
    return 0


def _cmd_verify(args):
    config = _read_config(args.input)
    params = VerifyParams(max_radius=args.max_radius, tol=_tolerance(args))
    if config.space == "sphere":
        modes = (
            ("scalar_multiple", "tangent_projection")
            if args.mode == "both"
            else (args.mode,)
        )
        reports = {m: verify_sphere(config, params, mode=m) for m in modes}
        passed = all(r.passed for r in reports.values())
        details = {m: r.summary() for m, r in reports.items()}
        worst = max(r.worst_residual for r in reports.values())
    else:
        if config.space == "disk":
            if not isinstance(config, PatchConfig):  # a finite disk set certifies no radius
                config = PatchConfig(config.points, 0.0, labels=config.labels)
            # a patch can only certify balance within its own radius; clamp
            # the cutoff to what the patch supports and disclose it
            available = float(config.patch_radius - config.center_dists().min())
            if 0.0 < available < params.max_radius:
                params = VerifyParams(max_radius=available, tol=params.tol)
            report = verify_hyperbolic(config, params)
            if params.max_radius < args.max_radius:
                report.notes.append(
                    f"cutoff clamped to certified radius {params.max_radius:.6g} "
                    f"(requested {args.max_radius:g})"
                )
        else:
            report = verify_plane(config, params)
        passed = report.passed
        details = report.summary()
        worst = report.worst_residual
    verdict = "pass" if passed else "fail"
    _emit_report(args, verdict, details)
    print(
        f"balance {verdict}: worst residual {worst:.3e} "
        f"(cutoff {args.max_radius}, tol {args.residual_tol})",
        file=sys.stderr,
    )
    return 0 if passed else 1


def _cmd_classify(args):
    result = classify(_read_planar(args.input, "classify"), tol=_tolerance(args))
    details = {
        "tag": result.tag,
        "canonical_params": {k: v for k, v in result.canonical_params.items()},
    }
    _emit_report(args, result.tag, details)
    print(f"classified as {result.tag}", file=sys.stderr)
    return 0 if result.tag != UNKNOWN else 1


def _cmd_symmetry(args):
    config = _read_planar(args.input, "symmetry")
    tol = _tolerance(args)
    result = is_group_balanced(config, tol=tol)
    witnesses = [
        None if w is None else {"center": list(w.center), "angle": w.angle}
        for w in result.witnesses
    ]
    extra = {}
    if isinstance(config, PeriodicConfig) and result.verdict:
        first = config.cartesian_motif()[0]
        extra["rotations_about_first_point"] = rotation_symmetries_about(
            config, first, tol=tol
        )
    details = {"group_balanced": result.verdict, "witnesses": witnesses, **extra}
    _emit_report(args, "pass" if result.verdict else "fail", details)
    print(
        "group-balanced" if result.verdict else "not group-balanced (no witness found)",
        file=sys.stderr,
    )
    return 0 if result.verdict else 1


def _cmd_lemmas(args):
    if args.samples < SWEEP_MIN_SAMPLES:
        raise ValidationError(f"--samples must be at least {SWEEP_MIN_SAMPLES}", field="--samples")
    results = run_catalog(match_tol=args.match_tol)
    sweep_ok = check_angle_bound_60_90(args.samples)
    all_ok = sweep_ok and all(r.passed for r in results)
    details = {
        "entries": [dataclasses.asdict(r) for r in results],
        "angle_bound_sweep": {"samples": args.samples, "passed": sweep_ok},
    }
    _emit_report(args, "pass" if all_ok else "fail", details)
    for r in results:
        mark = "ok" if r.passed else "FAIL"
        print(f"  {r.id:<4} {r.computed:+.5f} (expected {r.expected:+.2f}) {mark}", file=sys.stderr)
    print(
        f"angle-bound sweep over {args.samples} samples: {'ok' if sweep_ok else 'FAIL'}",
        file=sys.stderr,
    )
    return 0 if all_ok else 1


def _cmd_render(args):
    config = _read_config(args.input)
    window = None
    if args.window:
        x0, x1, y0, y1 = _parse_pair_list(args.window, "--window", 4)
        window = ((x0, x1), (y0, y1))
    style = RenderStyle(window=window, size=args.size, show_boundary=not args.no_boundary)
    _write_text(args.output, render_svg(config, style))
    print("rendered", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_class_tol(sub):
    sub.add_argument("--class-tol", type=float, default=1e-6,
                     help="distance class separation tolerance (default 1e-6)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="balanced-configs",
        description="Construct, verify, classify, and render balanced point configurations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a configuration document")
    gen.add_argument(
        "--family",
        required=True,
        choices=[
            "triangular", "lattice", "hexagonal", "line",
            "sphere", "triangle-group", "rotation-tiling",
        ],
    )
    gen.add_argument("--side", type=float, default=1.0, help="side length (default 1)")
    gen.add_argument("--basis", default="1,0;0,1", help="lattice basis 'ax,ay;bx,by'")
    gen.add_argument("--sets", default="vertices",
                     help="comma-separated point sets to include")
    gen.add_argument("--count", type=int, default=15, help="line point count (default 15)")
    gen.add_argument("--spacing", type=float, default=1.0, help="line spacing (default 1)")
    gen.add_argument("--kind", default="icosahedron",
                     help="spherical tiling kind (Platonic name or ngon(n))")
    gen.add_argument("--pqr", default="2,3,7", help="triangle group signature 'p,q,r'")
    gen.add_argument("--angles", default="40,40,40",
                     help="rotation tiling angles in degrees 'a,b,g'")
    gen.add_argument("--order", type=int, default=3,
                     help="rotation tiling repeats per vertex (default 3)")
    gen.add_argument("--depth", type=int, default=4, help="hyperbolic growth depth")
    gen.add_argument("-o", "--output", default="-", help="output path (default stdout)")
    gen.set_defaults(func=_cmd_generate)

    ver = sub.add_parser("verify", help="check balancedness of a document")
    ver.add_argument("input", help="configuration document path, or - for stdin")
    ver.add_argument("--mode", default="both",
                     choices=["scalar_multiple", "tangent_projection", "both"],
                     help="spherical residual mode (default both)")
    ver.add_argument("--max-radius", type=float, default=6.0,
                     help="verification cutoff (default 6)")
    ver.add_argument("--residual-tol", type=float, default=1e-9,
                     help="balance residual tolerance (default 1e-9)")
    _add_class_tol(ver)
    ver.set_defaults(func=_cmd_verify)

    cls = sub.add_parser("classify", help="identify the configuration type")
    cls.add_argument("input")
    _add_class_tol(cls)
    cls.set_defaults(func=_cmd_classify)

    sym = sub.add_parser("symmetry", help="check group-balancedness")
    sym.add_argument("input")
    _add_class_tol(sym)
    sym.set_defaults(func=_cmd_symmetry)

    lem = sub.add_parser("lemmas", help="run the numeric inequality catalog")
    lem.add_argument("--samples", type=int, default=256,
                     help="angle-bound sweep sample count (default 256)")
    lem.add_argument("--match-tol", type=float, default=0.005,
                     help="tolerance against printed reference values (default 0.005)")
    lem.set_defaults(func=_cmd_lemmas)

    ren = sub.add_parser("render", help="render a document as SVG")
    ren.add_argument("input")
    ren.add_argument("--window", default=None, help="'xmin,xmax,ymin,ymax' in geometry units")
    ren.add_argument("--size", type=int, default=480, help="longest SVG side in pixels")
    ren.add_argument("--no-boundary", action="store_true", help="omit the unit circle")
    ren.add_argument("-o", "--output", default="-", help="output path (default stdout)")
    ren.set_defaults(func=_cmd_render)
    return parser


# typed refusals of the input or the flags, which exit 2; every other
# exception is a numeric or internal failure and exits 3
_REFUSALS = (
    ValidationError,
    ParameterDomainError,
    InsufficientPatchError,
    NoPairsError,
    RenderError,
)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _REFUSALS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AmbiguousClassError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # internal numeric or logic failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def console_main():
    # Move the import-time heap, numpy's objects above all, out of the
    # collector's reach: a tiling build allocates enough to trigger many
    # collections, and each would otherwise rescan that heap.  This stays out
    # of main, which tests and other callers run inside their own processes.
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
