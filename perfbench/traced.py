"""Run the smoothpoly command line with a span around each layer's calls.

    python3 perfbench/traced.py TRACE_JSON smoothpoly-arguments...

Wraps public functions at the module attributes through which callers
reach them (smoothpoly.pipeline.enumerate_rhs, smoothpoly.search.blow_up,
...), runs smoothpoly.cli.main, and writes per-layer calls, total and self
time, and counts to TRACE_JSON when the run ends.  Generators are timed
around each next().  Self time is a span's duration minus its child spans.
Nothing under src/ changes; stdout is the command's own output.
"""

import json
import sys
from collections import Counter
from time import perf_counter

from smoothpoly import cli, fans, iso_dedup, pipeline, rhs, search


class Tracer:
    """Aggregated spans and counts, kept in memory until the run ends."""

    def __init__(self):
        self.stack = [[0.0]]          # per open span: time of its children
        self.spans = {}               # layer -> [calls, total_s, self_s]
        self.counts = Counter()
        self.fan_keys = set()
        self.dimension = None
        self.polygon_pass_s = 0.0

    def _close(self, layer, frame, t0):
        dt = perf_counter() - t0
        self.stack.pop()
        self.stack[-1][0] += dt
        agg = self.spans.setdefault(layer, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dt
        agg[2] += dt - frame[0]

    def call(self, layer, fn, count=None):
        """fn timed as a span of layer; then count(tracer, args, result)."""
        def traced(*args, **kwargs):
            frame = [0.0]
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(layer, frame, t0)
            if count is not None:
                count(self, args, out)
            return out
        return traced

    def generator(self, layer, fn, counter=None):
        """Generator function fn, each next() timed as a span of layer."""
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = [0.0]
                self.stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(layer, frame, t0)
                if counter is not None:
                    self.counts[counter] += 1
                yield item
        return traced

    def counted(self, counter, fn):
        """fn with a call count only: no span, for very hot calls."""
        counts = self.counts

        def traced(*args):
            counts[counter] += 1
            return fn(*args)
        return traced


def _criterion(tr, args, out):
    tr.counts["search.criterion_pass"] += bool(out.passes)


def _key(tr, args, out):
    tr.counts["fans.keyed"] += 1
    tr.fan_keys.add(out)


def _enumerate(tr, args, out):
    tr.counts["rhs.fans"] += 1
    tr.counts["rhs.levels"] += len(out)


def _mask(tr, args, out):
    tr.counts["rhs.mask_points"] += len(out)
    tr.counts["rhs.mask_kept"] += int(out.sum())


def _wall_sum(tr, args, out):
    tr.counts["rhs.mask_points"] += 1
    tr.counts["rhs.mask_kept"] += bool(out)


def _realize(tr, args, out):
    status = out[1]
    tr.counts["rhs.realized" if status == "ok"
              else "rhs.rejected_" + status] += 1


def _dedup(tr, args, out):
    tr.counts["iso_dedup.records_in"] += len(args[0])
    tr.counts["iso_dedup.records_out"] += len(out)


def install(tr):
    """Replace the layer entry points with traced wrappers."""
    def wrap(module, name, make):
        setattr(module, name, make(getattr(module, name)))

    for module, name in ((pipeline, "walk_tree"),
                         (pipeline, "enumerate_blowups")):
        wrap(module, name,
             lambda f: tr.generator("search.walk", f, "search.nodes"))
    # the walk's own child expansion: no node count, walk_tree yields those
    wrap(search, "enumerate_blowups",
         lambda f: tr.generator("search.walk", f))
    wrap(pipeline, "make_root", lambda f: tr.call(
        "search.walk", f,
        lambda t, a, o: t.counts.update(("search.nodes",))))
    wrap(pipeline, "degree_profile",
         lambda f: tr.call("search.criterion", f))
    wrap(pipeline, "polygon_criterion",
         lambda f: tr.call("search.criterion", f, _criterion))
    wrap(search, "blow_up", lambda f: tr.call(
        "fans.blow_up", f,
        lambda t, a, o: t.counts.update(("fans.blow_ups",))))
    wrap(pipeline, "fan_canonical_key",
         lambda f: tr.call("fans.key", f, _key))
    for module in (fans, iso_dedup):
        wrap(module, "inverse_unimodular",
             lambda f: tr.counted("exact_linalg.inverse_calls", f))
    wrap(pipeline, "enumerate_rhs",
         lambda f: tr.call("rhs.enumerate", f, _enumerate))
    wrap(pipeline, "wall_sum_mask", lambda f: tr.call("rhs.mask", f, _mask))
    wrap(pipeline, "passes_wall_sum",
         lambda f: tr.call("rhs.mask", f, _wall_sum))
    wrap(pipeline, "realize_and_filter",
         lambda f: tr.call("rhs.realize", f, _realize))
    for module, name in ((pipeline, "facets_of"), (pipeline, "lattice_points"),
                         (rhs, "count_lattice_points"), (rhs, "is_smooth")):
        wrap(module, name, lambda f: tr.call(
            "polytopes", f,
            lambda t, a, o: t.counts.update(("polytopes.calls",))))
    for module in (pipeline, iso_dedup):
        wrap(module, "canonical_form", lambda f: tr.call(
            "iso_dedup.canonical", f,
            lambda t, a, o: t.counts.update(("iso_dedup.canonical_calls",))))
    wrap(pipeline, "dedup", lambda f: tr.call("iso_dedup.dedup", f, _dedup))
    for name in ("render_json", "render_text"):
        wrap(pipeline, name, lambda f: tr.call("pipeline.render", f))

    def note_dimension(f):
        def traced(cfg):
            tr.dimension = cfg.dimension
            return f(cfg)
        return traced
    wrap(pipeline, "run_classify", note_dimension)

    # the polygon classification a 3D run repeats first: inclusive time, not
    # a span, so its rhs and walk children keep their own self times
    def polygon_pass(f):
        def traced(*args):
            t0 = perf_counter()
            try:
                return f(*args)
            finally:
                if tr.dimension == 3:
                    tr.polygon_pass_s += perf_counter() - t0
        return traced
    wrap(pipeline, "_classify_2d", polygon_pass)


def main(argv):
    out_path, args = argv[0], argv[1:]
    tr = Tracer()
    install(tr)
    t0 = perf_counter()
    try:
        rc = cli.main(args)
    finally:
        main_s = perf_counter() - t0
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({
                "main_s": main_s,
                "self_s": main_s - tr.stack[0][0],
                "polygon_pass_s": tr.polygon_pass_s,
                "spans": {k: {"calls": c, "total_s": tot, "self_s": own}
                          for k, (c, tot, own) in sorted(tr.spans.items())},
                "counts": dict(sorted(tr.counts.items())),
                "fan_classes": len(tr.fan_keys),
            }, fh, indent=1)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
