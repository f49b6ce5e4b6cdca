"""Command line behavior: outputs, files, exit codes."""

import ast
import hashlib
import importlib
import json
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import smoothpoly
from conftest import package_env
from smoothpoly import cli, pipeline

REPO = Path(__file__).resolve().parent.parent
PYPROJECT = REPO / "pyproject.toml"
TRACED = REPO / "perfbench" / "traced.py"
DEMOS = REPO / "demos"


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text_stdout(capsys):
    code, out, err = run_cli(["classify", "--dim", "2", "--max-points", "5"],
                             capsys)
    assert code == 0
    assert "dimension 2, max points 5: 3 polytopes" in out
    assert err == ""


def test_classify_json_matches_library(capsys, tmp_path):
    code, out, _ = run_cli(["classify", "--dim", "2", "--max-points", "6",
                            "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["records"]) == 6
    assert payload["histogram"] == {"3": 2, "4": 4}

    target = tmp_path / "out.json"
    code, out, _ = run_cli(["classify", "--dim", "2", "--max-points", "6",
                            "--format", "json", "--out", str(target)],
                           capsys)
    assert code == 0 and out == ""
    assert json.loads(target.read_text()) == payload


def test_classify_trace_file(capsys, tmp_path):
    trace = tmp_path / "trace.tsv"
    code, _, _ = run_cli(["classify", "--dim", "2", "--max-points", "5",
                          "--trace-tree", str(trace)], capsys)
    assert code == 0
    assert trace.read_text().count("\n") > 0


def test_classify_trace_file_is_replaced(capsys, tmp_path):
    trace = tmp_path / "trace.tsv"
    argv = ["classify", "--dim", "2", "--max-points", "5",
            "--trace-tree", str(trace)]
    assert run_cli(argv, capsys)[0] == 0
    first = trace.read_text()
    assert run_cli(argv, capsys)[0] == 0
    assert trace.read_text() == first
    trace.write_text("stale line\n" * 1000)
    assert run_cli(argv, capsys)[0] == 0
    assert trace.read_text() == first


@pytest.mark.parametrize("flag", ["--out", "--trace-tree"])
def test_classify_unwritable_path_exits_2_before_classifying(
        capsys, monkeypatch, tmp_path, flag):
    def no_run(*args):
        raise AssertionError("classification ran")

    # a classification reached would trip this and exit 3
    monkeypatch.setattr(pipeline, "_classify_2d", no_run)
    path = tmp_path / "missing" / "report"
    code, out, err = run_cli(["classify", "--dim", "2", "--max-points",
                              "12", flag, str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: cannot write %s: No such file or directory\n" % (
        path,)


def test_classify_rejects_bad_config(capsys):
    code, _, err = run_cli(["classify", "--dim", "4", "--max-points", "9"],
                           capsys)
    assert code == 2 and "dimension" in err
    code, _, err = run_cli(["classify", "--dim", "2", "--max-points", "2"],
                           capsys)
    assert code == 2 and "max_points" in err
    code, _, err = run_cli(["classify", "--dim", "3", "--max-points", "13"],
                           capsys)
    assert code == 2 and "envelope" in err


def test_argparse_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "--dim", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "--dim", "2", "--max-points", "9",
                  "--format", "xml"])
    assert exc.value.code == 2


def test_count_tree_command(capsys):
    code, out, _ = run_cli(["count-tree", "--seed", "F_p",
                            "--max-cones", "6"], capsys)
    assert code == 0 and out.strip() == "41"
    code, out, _ = run_cli(["count-tree", "--seed", "F_p",
                            "--max-cones", "6", "--unpruned"], capsys)
    assert code == 0 and out.strip() == "76"
    code, out, _ = run_cli(["count-tree", "--seed", "F_a",
                            "--max-cones", "6"], capsys)
    assert code == 0 and out.strip() == "19"


def test_count_tree_unknown_seed(capsys):
    code, _, err = run_cli(["count-tree", "--seed", "F_q",
                            "--max-cones", "6"], capsys)
    assert code == 2
    assert "unknown seed" in err


def test_stats_command(capsys):
    code, out, _ = run_cli(["stats", "--max-points", "6"], capsys)
    assert code == 0
    assert out.splitlines()[1].split() == ["l", "3", "4", ">6", ">6",
                                           ">6", ">6"]
    code, out, _ = run_cli(["stats", "--max-points", "12"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f8c5aa25424d41998aff68a9cfb31a755aa1e6ae3de239b513d8202dfa756204")


def test_seeds_command(capsys):
    code, out, _ = run_cli(["seeds"], capsys)
    assert code == 0
    assert "F_p" in out and "4^6" in out
    assert "eliminated minimal fans" in out
    # the whole listing: every seed's rays, cones and parameter text
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "84fc62e6baadc572a012bb176088174a92b61bddc1ed646aa2e21cbfa97f322e")


def test_invariant_failure_exits_3(capsys, monkeypatch):
    def boom(*args, **kwargs):
        assert False, "synthetic failure"

    monkeypatch.setattr(pipeline, "run_count_tree", boom)
    code, _, err = run_cli(["count-tree", "--seed", "F_p",
                            "--max-cones", "6"], capsys)
    assert code == 3
    assert "reproduce" in err and "synthetic failure" in err


def test_invariant_failure_exits_3_under_optimize():
    """python -O drops assert statements, not the explicit invariant checks."""
    script = (
        "import sys\n"
        "from smoothpoly import cli, rhs\n"
        "assert False, 'asserts are on'\n"
        "rhs.determinant = lambda rows: 2\n"
        "sys.exit(cli.main(['classify', '--dim', '2', '--max-points', '6']))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=package_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "InvariantError" in proc.stderr and "not smooth" in proc.stderr


def test_optimized_report_digest():
    """The N = 12 polygon report under python -O is byte-identical."""
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "smoothpoly.cli", "classify", "--dim",
         "2", "--max-points", "12", "--format", "json"],
        env=package_env(), capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "a9efaa6dccc6318130e6a288fdae6d3fa68666ae5e85a18c28c8c9f38d2f09d8")


def test_console_script_installed():
    """The declared `smoothpoly` entry point works as an installed script.

    Runs the target named in pyproject.toml the way an installer's
    console-script wrapper does, so no install is needed."""
    env = package_env()
    out = subprocess.run(
        [sys.executable, "-m", "smoothpoly.cli", "count-tree",
         "--seed", "F_p", "--max-cones", "6"],
        capture_output=True, text=True, env=env)
    assert out.returncode == 0 and out.stdout.strip() == "41"

    try:
        import tomllib
    except ImportError:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["smoothpoly"]
    assert callable(pkgutil.resolve_name(target))
    module, attr = target.split(":")
    wrapper = "import sys; from %s import %s; sys.exit(%s())" % (
        module, attr, attr)
    script = subprocess.run(
        [sys.executable, "-c", wrapper, "count-tree", "--seed", "F_a",
         "--max-cones", "6"],
        capture_output=True, text=True, env=env)
    assert script.returncode == 0 and script.stdout.strip() == "19"


@pytest.mark.skipif(shutil.which("smoothpoly") is None,
                    reason="smoothpoly console script not installed")
def test_console_script_on_path():
    script = subprocess.run(
        ["smoothpoly", "count-tree", "--seed", "F_a", "--max-cones", "6"],
        capture_output=True, text=True)
    assert script.returncode == 0 and script.stdout.strip() == "19"


def test_traced_benchmark_finds_every_layer(tmp_path):
    """perfbench/traced.py wraps the layer entry points by module attribute.

    A renamed or removed entry point makes its start-up fail, so this runs
    it once on a small tree."""
    trace = tmp_path / "trace.json"
    out = subprocess.run(
        [sys.executable, str(TRACED), str(trace), "count-tree",
         "--seed", "F_a", "--max-cones", "6"],
        capture_output=True, text=True, env=package_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "19"


def _traced_wraps():
    """(module, name) pairs that perfbench/traced.py wraps, read from its
    source: every wrap(module, "name", ...) call, with the module and name
    of a call inside a for loop over a tuple taken from each item."""
    def visit(node, env, out):
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            target = node.target
            names = [t.id for t in (target.elts if isinstance(
                target, ast.Tuple) else [target])]
            for item in node.iter.elts:
                values = item.elts if isinstance(item, ast.Tuple) else [item]
                bound = {**env, **dict(zip(names, values))}
                for stmt in node.body:
                    visit(stmt, bound, out)
            return
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "wrap"):
            module, name = [env.get(a.id, a) if isinstance(a, ast.Name)
                            else a for a in node.args[:2]]
            out.add((module.id, name.value))
        for child in ast.iter_child_nodes(node):
            visit(child, env, out)

    out = set()
    visit(ast.parse(TRACED.read_text()), {}, out)
    return out


def test_exports_and_traced_imports_stay_true():
    """Every name in a module's __all__ resolves, and every import kept
    only for perfbench/traced.py names an attribute that traced.py wraps
    on that module."""
    wraps = _traced_wraps()
    assert ("search", "blow_up") in wraps and len(wraps) > 20
    exported = marked = 0
    for info in pkgutil.iter_modules(smoothpoly.__path__):
        module = importlib.import_module("smoothpoly." + info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)
            exported += 1
        lines = Path(module.__file__).read_text().splitlines()
        for i, text in enumerate(lines):
            if "kept for perfbench/traced.py" not in text:
                continue
            # the comment ends the import line or stands on the line above
            code = text.split("#")[0].strip() or lines[i + 1].strip()
            assert re.fullmatch(r"\w+( as \w+)?,?", code), (info.name, code)
            bound = code.rstrip(",").split()[-1]
            assert (info.name, bound) in wraps, (info.name, bound)
            marked += 1
    assert exported > 80 and marked == 7


def test_modules_import_no_private_names():
    """No module of the package imports an underscore-prefixed name from
    another module of the package: what one module needs of another is
    public."""
    package_imports = 0
    for info in pkgutil.iter_modules(smoothpoly.__path__):
        path = Path(smoothpoly.__path__[0]) / (info.name + ".py")
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or not (
                    node.level or node.module.startswith("smoothpoly")):
                continue
            package_imports += 1
            private = [a.name for a in node.names if a.name.startswith("_")]
            assert not private, (info.name, node.module, private)
    assert package_imports > 15


def test_import_leaves_numpy_unloaded(tmp_path):
    """The program needs no numpy: start-up leaves it unloaded, and a 3D
    N = 12 run with numpy unimportable gives the reference report and the
    pinned --trace-tree file."""
    probe = "import sys, smoothpoly.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe],
                         capture_output=True, text=True, env=package_env())
    assert out.returncode == 0 and out.stdout.strip() == "False"

    trace = tmp_path / "trace.txt"
    blocked = ("import sys; sys.modules['numpy'] = None\n"
               "from smoothpoly import cli\n"
               "sys.exit(cli.main(sys.argv[1:]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", blocked, "classify", "--dim", "3",
         "--max-points", "12", "--format", "json", "--trace-tree",
         str(trace)],
        env=package_env(), capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(REPO / "perfbench" / "reference.json") as fh:
        want = json.load(fh)["solids-n12"]["sha256"]
    assert hashlib.sha256(proc.stdout).hexdigest() == want
    text = trace.read_bytes()
    assert text.count(b"\n") == 31698
    assert hashlib.sha256(text).hexdigest() == (
        "f38a9666feac8396ab45abd115d77e60381c126ece86ab1540e97f728b54e9e4")


def test_program_runs_without_fractions():
    """The program solves in integers only: start-up leaves fractions
    unloaded, and with fractions unimportable both N = 12 reports, the
    stats and seeds listings and the 3^4 tree count are unchanged."""
    probe = "import sys, smoothpoly.cli; print('fractions' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe],
                         capture_output=True, text=True, env=package_env())
    assert out.returncode == 0 and out.stdout.strip() == "False"

    with open(REPO / "perfbench" / "reference.json") as fh:
        reference = json.load(fh)
    blocked = ("import sys; sys.modules['fractions'] = None\n"
               "from smoothpoly import cli\n"
               "sys.exit(cli.main(sys.argv[1:]))\n")
    digests = {
        ("classify", "--dim", "2", "--max-points", "12", "--format", "json"):
            reference["polygons-n12"]["sha256"],
        ("classify", "--dim", "3", "--max-points", "12", "--format", "json"):
            reference["solids-n12"]["sha256"],
        ("stats", "--max-points", "12"):
            "f8c5aa25424d41998aff68a9cfb31a755aa1e6ae3de239b513d8202dfa756204",
        ("seeds",):
            "84fc62e6baadc572a012bb176088174a92b61bddc1ed646aa2e21cbfa97f322e",
    }
    for argv, want in digests.items():
        proc = subprocess.run([sys.executable, "-c", blocked, *argv],
                              env=package_env(), capture_output=True,
                              timeout=300)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert hashlib.sha256(proc.stdout).hexdigest() == want, argv
    proc = subprocess.run(
        [sys.executable, "-c", blocked, "count-tree", "--seed", "3^4",
         "--max-cones", "14"],
        env=package_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == reference["tree-3d"]["count"]


# the cube fan of realize_a_fan.py has twelve walls, one per edge of a box
DEMO_WALL_LINES = {"realize_a_fan.py": 12}


@pytest.mark.parametrize("demo,line", [
    ("classify_and_inspect.py",
     "dimension 2, up to 12 lattice points: 41 polytopes"),
    ("realize_a_fan.py", "4 candidate right-hand sides"),
    # reads child.fan.rays, which the walk builds on first read
    ("walk_the_blowup_tree.py", "  new ray (1, 1) = sum of cone (0, 1)"),
])
def test_demo_runs(demo, line):
    out = subprocess.run([sys.executable, str(DEMOS / demo)],
                         capture_output=True, text=True, env=package_env(),
                         timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert line in lines
    # every wall line reads the edge length from the wall table's form and
    # from the realized polytope, and the two must agree
    wall_lines = [s for s in lines if s.startswith("  wall ")]
    assert len(wall_lines) == DEMO_WALL_LINES.get(demo, 0)
    for s in wall_lines:
        m = re.fullmatch(r"  wall \([\d, ]+\): form says (\d+), "
                         r"geometry says (\d+)", s)
        assert m and m.group(1) == m.group(2), s
