"""Benchmark of the smoothpoly command line on the paper's two results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every operation is one `smoothpoly`
child process, started from this single driving process, one at a time.
With --trace 0 it prints the end-to-end metrics (wall_s, cpu_s,
peak_rss_mib, setup_s); with --trace 1 it runs the workload once untraced
and once under perfbench/traced.py and prints the per-layer metrics.  The
outputs of every operation are checked after the timed region (see
checks.py), the checks are shown to catch mutated outputs, and the results
go to perfbench/out/.  The last line of stdout is one JSON object.

The program reads no random input.  The seed picks PYTHONHASHSEED for
every child, so each run sees another string-hash order and the
byte-identity check covers it.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = {
    "polygons-n12": ["classify", "--dim", "2", "--max-points", "12",
                     "--format", "json"],
    "solids-n12": ["classify", "--dim", "3", "--max-points", "12",
                   "--format", "json"],
    "tree-3d": ["count-tree", "--seed", "3^4", "--max-cones", "14"],
}
GOLDEN = {"polygons-n12": "tests/data/golden_polygons_max12.json",
          "solids-n12": "tests/data/golden_polytopes3d_max12.json"}
# closed-form check of the unpruned walk: 3161 nodes, well under a second
# (at 12 cones it is 78161 nodes and about 5 s, too long to pay every run)
UNPRUNED_MAX_CONES = 10
UNPRUNED_ARGS = ["count-tree", "--seed", "3^4", "--unpruned",
                 "--max-cones", str(UNPRUNED_MAX_CONES)]
SETUP_PROBES = 9          # fresh interpreter start-ups per run; median kept
DEADLINE_S = 170          # the whole run, checks included

SPAN_METRICS = {          # per-layer metric -> traced layer (self time)
    "search.walk_s": "search.walk",
    "search.criterion_s": "search.criterion",
    "fans.blow_up_s": "fans.blow_up",
    "fans.key_s": "fans.key",
    "rhs.enumerate_s": "rhs.enumerate",
    "rhs.mask_s": "rhs.mask",
    "rhs.realize_s": "rhs.realize",
    "polytopes.s": "polytopes",
    "iso_dedup.canonical_s": "iso_dedup.canonical",
    "iso_dedup.dedup_s": "iso_dedup.dedup",
    "pipeline.render_s": "pipeline.render",
}
COUNT_METRICS = (
    "search.nodes", "search.criterion_pass", "fans.blow_ups", "fans.keyed",
    "exact_linalg.inverse_calls", "rhs.fans", "rhs.levels",
    "rhs.mask_points", "rhs.mask_kept", "rhs.realized",
    "rhs.rejected_mismatch", "rhs.rejected_too_many_points",
    "polytopes.calls", "iso_dedup.canonical_calls", "iso_dedup.records_in",
    "iso_dedup.records_out",
)


class Timeout(Exception):
    pass


class Child:
    """Starts smoothpoly children one at a time and measures each."""

    def __init__(self, root, workdir, seed, deadline):
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        self.rng = random.Random(seed)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        # start-ups read warm .pyc caches, as an installed package does,
        # whatever the caller's environment says
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.serial = 0

    def run(self, argv):
        """(exit code, stdout text, wall_s, cpu_s, peak RSS MiB)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Timeout("run deadline passed before %r" % (argv,))
        self.serial += 1
        out_path = os.path.join(self.workdir, "child%d.out" % self.serial)
        env = dict(self.env, PYTHONHASHSEED=str(self.rng.randrange(2 ** 32)))
        killed = threading.Event()
        with open(out_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, stdout=out,
                                    env=env, cwd=self.root)

        def kill():
            killed.set()
            proc.kill()
        timer = threading.Timer(remaining, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if killed.is_set():
            raise Timeout("killed %r at the run deadline" % (argv,))
        with open(out_path) as fh:
            text = fh.read()
        return (proc.returncode, text, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


class Checker:
    """Checks one workload's outputs against references kept apart."""

    def __init__(self, root, workload):
        self.workload = workload
        self.ref = _load_json(os.path.join(HERE, "reference.json"))[workload]
        if workload in GOLDEN:
            self.golden = _load_json(os.path.join(root, GOLDEN[workload]))
            self.dim = 2 if workload == "polygons-n12" else 3
            self.histogram = (checks.PAPER_POLYGON_HISTOGRAM if self.dim == 2
                              else checks.histogram(self.golden, 3))
        self.seen = {}

    def output(self, text):
        """Errors in one operation's stdout (cached per distinct text)."""
        if text not in self.seen:
            try:
                if self.workload == "tree-3d":
                    errors = checks.check_count(text, self.ref["count"])
                else:
                    errors = checks.check_report(
                        text, self.ref["sha256"], self.golden, self.dim, 12,
                        self.histogram)
            except (KeyError, TypeError, ValueError) as exc:
                errors = ["malformed output: %r" % (exc,)]
            self.seen[text] = errors
        return self.seen[text]

    def mutations(self, text):
        """{mutation: errors}; every mutated output must show errors."""
        if self.workload == "tree-3d":
            count = self.ref["count"]
            unpruned = checks.unpruned_tree_size(4, UNPRUNED_MAX_CONES)
            return {
                "tree-count-plus-one":
                    checks.check_count(str(count + 1), count),
                "tree-count-minus-one":
                    checks.check_count(str(count - 1), count),
                "unpruned-count-plus-one":
                    checks.check_count(str(unpruned + 1), unpruned),
            }
        report = json.loads(text)
        return {name: checks.check_records(m, self.golden, self.dim, 12,
                                           self.histogram)
                for name, m in checks.record_mutations(report).items()}


def _measure(args, child, checker, log):
    """Operations and checks of one run: (ops, errors, metrics, detail)."""
    wl_args = WORKLOADS[args.workload]
    child.run(["-c", "import smoothpoly.cli"])     # warm-up, writes .pyc
    ops, errors, texts = [], [], []
    detail = {}

    def operation(argv, label):
        rc, text, wall, cpu, rss = child.run(argv)
        op = {"label": label, "exit": rc, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mib": rss}
        ops.append(op)
        if rc == 0:
            texts.append(text)
            errs = checker.output(text)
            errors.extend("%s: %s" % (label, e) for e in errs)
            op["errors"] = len(errs)
        log("  %-9s exit %d  wall %.3f s  cpu %.3f s  rss %.1f MiB"
            % (label, rc, wall, cpu, rss))
        return op

    metrics = {}
    if args.trace == 0:
        probes = []
        for _ in range(SETUP_PROBES):
            rc, _, wall, _, _ = child.run(["-c", "import smoothpoly.cli"])
            if rc != 0:
                raise RuntimeError("import smoothpoly.cli exited %d" % rc)
            probes.append(wall)
        detail["setup_probes_s"] = probes
        measured = 0.0
        while not ops or measured < args.seconds:
            op = operation(["-m", "smoothpoly.cli"] + wl_args, "run")
            measured += op["wall_s"]
        good = [op for op in ops if op["exit"] == 0]
        if good:
            metrics = {
                "wall_s": (statistics.median(o["wall_s"] for o in good), "s"),
                "cpu_s": (statistics.median(o["cpu_s"] for o in good), "s"),
                "peak_rss_mib": (max(o["peak_rss_mib"] for o in good), "MiB"),
                "setup_s": (statistics.median(probes), "s"),
            }
    else:
        trace_path = os.path.join(child.workdir, "trace.json")
        plain = operation(["-m", "smoothpoly.cli"] + wl_args, "untraced")
        traced = operation([os.path.join(HERE, "traced.py"), trace_path]
                           + wl_args, "traced")
        if plain["exit"] == 0 and traced["exit"] == 0:
            trace = _load_json(trace_path)
            detail["trace"] = trace
            metrics = _layer_metrics(trace, traced["wall_s"] - plain["wall_s"])
    if texts:
        caught = {}
        for name, errs in checker.mutations(texts[0]).items():
            caught[name] = bool(errs)
            log("  mutation %-24s %s" % (name, "caught: " + errs[0] if errs
                                           else "NOT CAUGHT"))
            if not errs:
                errors.append("mutation %s was not caught" % name)
        detail["mutations_caught"] = caught
    if args.workload == "tree-3d":
        expected = checks.unpruned_tree_size(4, UNPRUNED_MAX_CONES)
        rc, text, wall, _, _ = child.run(["-m", "smoothpoly.cli"]
                                         + UNPRUNED_ARGS)
        errs = (["unpruned count exited %d" % rc] if rc
                else checks.check_count(text, expected))
        errors.extend("unpruned: %s" % e for e in errs)
        log("  unpruned tree at %d cones: closed form %d, %s (%.1f s)"
            % (UNPRUNED_MAX_CONES, expected, errs[0] if errs else "ok",
               wall))
    detail["operations"] = ops
    detail["errors"] = errors
    return ops, errors, metrics, detail


def _layer_metrics(trace, overhead):
    spans = trace["spans"]
    counts = trace["counts"]
    metrics = {name: (spans.get(layer, {}).get("self_s", 0.0), "s")
               for name, layer in SPAN_METRICS.items()}
    metrics.update((name, (counts.get(name, 0), "count"))
                   for name in COUNT_METRICS)
    metrics["fans.classes"] = (trace["fan_classes"], "count")
    metrics["pipeline.polygon_pass_s"] = (trace["polygon_pass_s"], "s")
    metrics["pipeline.self_s"] = (trace["self_s"], "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    root = os.getcwd()
    needed = [os.path.join("src", "smoothpoly", "cli.py")]
    needed += [GOLDEN[args.workload]] if args.workload in GOLDEN else []
    missing = [f for f in needed if not os.path.isfile(os.path.join(root, f))]
    if missing:
        print("error: run from the root of a smoothpoly checkout; missing %s"
              % ", ".join(missing), file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=outdir)
    try:
        checker = Checker(root, args.workload)
        child = Child(root, workdir, args.seed, deadline)
        print("workload %s, seed %d, %d s, trace %d"
              % (args.workload, args.seed, args.seconds, args.trace))
        ops, errors, metrics, detail = _measure(
            args, child, checker, lambda line: print(line, flush=True))
    except Timeout as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for op in ops if op["exit"] != 0)
    if not metrics:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    for e in errors:
        print("  CHECK FAILED %s" % e)
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in metrics.items()},
    }
    print("attempted %d, failed %d, checks %s"
          % (len(ops), failed, "passed" if not errors else "FAILED"))
    for name, (v, u) in metrics.items():
        shown = v if u == "count" else "%.6f" % v
        print("  %-32s %14s %s" % (name, shown, u))
    path = os.path.join(outdir, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump({"args": vars(args), "result": result, "detail": detail},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
