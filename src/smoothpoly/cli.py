"""Command line front end.

Exit codes: 0 on success, 2 for configuration errors (bad dimension,
budget, seed name, flag combination, or an output path that cannot be
written), 3 when an internal invariant trips, with a reproducer dump on
stderr.
"""

import argparse
import sys
import traceback

from . import pipeline
from .pipeline import ConfigError, RunConfig
from .seeds import UnknownSeed


def _build_parser():
    p = argparse.ArgumentParser(
        prog="smoothpoly",
        description="classify smooth lattice polytopes with few lattice "
                    "points, via blow-ups of the minimal fans")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser(
        "classify",
        help="enumerate all smooth polytopes up to lattice isomorphism")
    c.add_argument("--dim", type=int, required=True,
                   help="ambient dimension, 2 or 3")
    c.add_argument("--max-points", type=int, required=True, metavar="N",
                   help="largest admitted number of lattice points")
    c.add_argument("--format", choices=("json", "text"), default="text",
                   help="output format (default text)")
    c.add_argument("--out", metavar="PATH",
                   help="write the report to PATH instead of stdout")
    c.add_argument("--trace-tree", metavar="PATH",
                   help="write one line per visited search node to PATH, "
                        "replacing any earlier contents")
    c.add_argument("--allow-unvalidated", action="store_true",
                   help="proceed with a warning outside the validated "
                        "envelope (dimension 3 beyond %d points)"
                        % pipeline.VALIDATED_3D_MAX_POINTS)

    t = sub.add_parser(
        "count-tree",
        help="size of a seed's pruned blow-up tree")
    t.add_argument("--seed", required=True, metavar="NAME",
                   help="seed fan name, e.g. F_p or '(3^2 4^3)prime'")
    t.add_argument("--max-cones", type=int, required=True, metavar="K",
                   help="largest number of maximal cones")
    t.add_argument("--unpruned", action="store_true",
                   help="diagnostic: count without the ordering rule, so "
                        "repeated fans are counted once per path")

    s = sub.add_parser(
        "stats",
        help="per-vertex-count minima over all smooth polygons in budget")
    s.add_argument("--max-points", type=int, required=True, metavar="N")

    sub.add_parser("seeds",
                   help="list the seed fans and the eliminated minimal fans")
    return p


def _cmd_classify(args):
    cfg = RunConfig(dimension=args.dim, max_points=args.max_points,
                    trace_tree=args.trace_tree,
                    allow_unvalidated=args.allow_unvalidated)
    for warning in cfg.validate():
        print(warning, file=sys.stderr)
    out = pipeline.open_output(args.out) if args.out else None
    try:
        result = pipeline.run_classify(cfg)
        text = pipeline.render_json(result) if args.format == "json" \
            else pipeline.render_text(result)
        (out or sys.stdout).write(text)
    finally:
        if out is not None:
            out.close()
    return 0


def _cmd_count_tree(args):
    print(pipeline.run_count_tree(args.seed, args.max_cones,
                                  unpruned=args.unpruned))
    return 0


def _cmd_stats(args):
    sys.stdout.write(pipeline.render_stats(
        pipeline.run_stats(args.max_points)))
    return 0


def _cmd_seeds(args):
    sys.stdout.write(pipeline.render_seeds(pipeline.list_seeds()))
    return 0


_HANDLERS = {
    "classify": _cmd_classify,
    "count-tree": _cmd_count_tree,
    "stats": _cmd_stats,
    "seeds": _cmd_seeds,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, UnknownSeed) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    except AssertionError:
        shown = list(argv) if argv is not None else sys.argv[1:]
        print("internal invariant violated; reproduce with arguments %r"
              % (shown,), file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
