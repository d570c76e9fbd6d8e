"""Command-line interface.

Exit codes: 0 on success, 1 on a validation or threshold failure, 2 on usage
or file-parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .beltrami import field_from_json, field_to_json
from .errors import ParseError, QcflowError
from .flow import FlowOptions
from .mesh import load_obj, load_objs, save_obj
from .metric import Geometry
from .pipeline import (
    PresetKind,
    TargetPreset,
    cmd_check,
    cmd_compare,
    cmd_compose,
    cmd_estimate_mu,
    cmd_flatten,
    cmd_qcmap,
    csv_text,
)

_PRESETS = {p.value: p for p in PresetKind}
_GEOMETRIES = {g.value: g for g in Geometry}


def _parse_corners(text):
    try:
        ids = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("corners must be four integers i,j,k,l")
    if len(ids) != 4:
        raise argparse.ArgumentTypeError("corners must be four integers i,j,k,l")
    return ids


@functools.cache
def _build_parser():
    """The argument parser, built once per process: building it costs more
    than parsing a command line."""
    top = argparse.ArgumentParser(
        prog="qcflow",
        description="Conformal and quasi-conformal mesh parameterization by "
                    "discrete Yamabe flow.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_flow_args(p):
        p.add_argument("--geometry", choices=sorted(_GEOMETRIES),
                       default="euclidean")
        p.add_argument("--preset", choices=sorted(_PRESETS), required=True)
        p.add_argument("--corners", type=_parse_corners, default=None,
                       help="four boundary vertex ids for the rectangle preset")
        p.add_argument("--eps", type=float, default=1e-8,
                       help="curvature tolerance (radians); above 1e-6 the "
                       "layout can fail on a vertex left curved")
        p.add_argument("--max-iterations", type=int, default=50)
        p.add_argument("--no-surgery", action="store_true",
                       help="disable edge-swap surgery")
        p.add_argument("--out", required=True, help="output OBJ with uv")
        p.add_argument("--report", default=None, help="output report JSON")

    p = sub.add_parser("flatten", help="conformal parameterization")
    p.add_argument("--input", required=True)
    add_flow_args(p)

    p = sub.add_parser("qcmap", help="quasi-conformal map from a mu field")
    p.add_argument("--input", required=True)
    p.add_argument("--mu", required=True, help="mu JSON file")
    add_flow_args(p)

    p = sub.add_parser("estimate-mu", help="Beltrami coefficient of a map")
    p.add_argument("--src", required=True, help="source parameterized OBJ")
    p.add_argument("--dst", required=True, help="target parameterized OBJ")
    p.add_argument("--out", required=True, help="output mu JSON")
    p.add_argument("--hist", default=None, help="output histogram CSV")

    p = sub.add_parser("compose-mu", help="coefficient of a composed map")
    p.add_argument("--mu-f", required=True)
    p.add_argument("--mu-g", required=True)
    p.add_argument("--f-src", required=True, help="source parameterized OBJ of f")
    p.add_argument("--f-dst", required=True, help="image parameterized OBJ of f")
    p.add_argument("--out", required=True)

    p = sub.add_parser("compare", help="normalized L1 distance of two maps")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--mesh", required=True, help="reference surface OBJ")
    p.add_argument("--threshold", type=float, default=None)

    p = sub.add_parser("check", help="mesh validity report")
    p.add_argument("--input", required=True)
    return top


def _preset(args):
    kind = _PRESETS[args.preset]
    if kind == PresetKind.RECTANGLE and args.corners is None:
        raise QcflowError("rectangle preset requires --corners i,j,k,l")
    return TargetPreset(kind, args.corners or ())


def _run(args):
    if args.command in ("flatten", "qcmap"):
        mesh = load_obj(args.input)
        run = cmd_flatten
        if args.command == "qcmap":
            with open(args.mu, "r", encoding="utf-8") as fh:
                mu = field_from_json(fh.read(), n_vertices=mesh.n_vertices)
            run = functools.partial(cmd_qcmap, mu=mu)
        result = run(mesh, geometry=_GEOMETRIES[args.geometry],
                     preset=_preset(args), options=args.flow)
        save_obj(result.mesh, args.out, uv=result.param)
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                json.dump(result.report, fh, indent=2, sort_keys=True)
                fh.write("\n")
        if result.module is not None:
            print(f"module {result.module:.9g}")
        return 0

    if args.command == "estimate-mu":
        src, dst = load_objs(args.src, args.dst)
        est, rows = cmd_estimate_mu(src, dst)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(field_to_json(est.vertex_mu) + "\n")
        if args.hist:
            with open(args.hist, "w", encoding="utf-8") as fh:
                fh.write(csv_text(rows))
        print(f"max |mu| {est.vertex_mu.max_modulus:.9g}")
        return 0

    if args.command == "compose-mu":
        f_src, f_dst = load_objs(args.f_src, args.f_dst)
        with open(args.mu_f, "r", encoding="utf-8") as fh:
            mu_f = field_from_json(fh.read(), n_vertices=f_src.n_vertices)
        with open(args.mu_g, "r", encoding="utf-8") as fh:
            mu_g = field_from_json(fh.read(), n_vertices=f_src.n_vertices)
        composed = cmd_compose(mu_f, mu_g, f_src, f_dst)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(field_to_json(composed) + "\n")
        return 0

    if args.command == "compare":
        a, b, ref = load_objs(args.a, args.b, args.mesh)
        dist, worst, ok = cmd_compare(a, b, ref, threshold=args.threshold)
        print(f"distance {dist:.9g}")
        print(f"max_deviation {worst:.9g}")
        return 0 if ok else 1

    if args.command == "check":
        mesh = load_obj(args.input)
        doc = cmd_check(mesh)
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in ("flatten", "qcmap"):
        try:
            args.flow = FlowOptions(eps=args.eps,
                                    max_iterations=args.max_iterations,
                                    surgery=not args.no_surgery)
        except ValueError as exc:  # an out-of-range --eps or --max-iterations
            parser.error(str(exc))
    try:
        return _run(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QcflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
