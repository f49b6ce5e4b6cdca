"""Command line behavior: outputs, files, exit codes."""

import hashlib
import json
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import smoothpoly
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


def test_seeds_command(capsys):
    code, out, _ = run_cli(["seeds"], capsys)
    assert code == 0
    assert "F_p" in out and "4^6" in out
    assert "eliminated minimal fans" in out


def test_invariant_failure_exits_3(capsys, monkeypatch):
    def boom(*args, **kwargs):
        assert False, "synthetic failure"

    monkeypatch.setattr(pipeline, "run_count_tree", boom)
    code, _, err = run_cli(["count-tree", "--seed", "F_p",
                            "--max-cones", "6"], capsys)
    assert code == 3
    assert "reproduce" in err and "synthetic failure" in err


def _package_env():
    """Environment whose PYTHONPATH puts this test's copy of smoothpoly first."""
    env = dict(os.environ)
    root = str(Path(smoothpoly.__file__).parent.parent)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + os.pathsep + rest if rest else root
    return env


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
                          env=_package_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "InvariantError" in proc.stderr and "not smooth" in proc.stderr


def test_optimized_report_digest():
    """The N = 12 polygon report under python -O is byte-identical."""
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "smoothpoly.cli", "classify", "--dim",
         "2", "--max-points", "12", "--format", "json"],
        env=_package_env(), capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "a9efaa6dccc6318130e6a288fdae6d3fa68666ae5e85a18c28c8c9f38d2f09d8")


def test_console_script_installed():
    """The declared `smoothpoly` entry point works as an installed script.

    Runs the target named in pyproject.toml the way an installer's
    console-script wrapper does, so no install is needed."""
    env = _package_env()
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
        capture_output=True, text=True, env=_package_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "19"


def test_import_leaves_numpy_unloaded():
    """Only the 3D parameter-box mask needs numpy, so start-up skips it."""
    probe = "import sys, smoothpoly.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe],
                         capture_output=True, text=True, env=_package_env())
    assert out.returncode == 0 and out.stdout.strip() == "False"


@pytest.mark.parametrize("demo,line", [
    ("classify_and_inspect.py",
     "dimension 2, up to 12 lattice points: 41 polytopes"),
    ("realize_a_fan.py", "4 candidate right-hand sides"),
    # reads child.fan.rays, which the walk builds on first read
    ("walk_the_blowup_tree.py", "  new ray (1, 1) = sum of cone (0, 1)"),
])
def test_demo_runs(demo, line):
    out = subprocess.run([sys.executable, str(DEMOS / demo)],
                         capture_output=True, text=True, env=_package_env(),
                         timeout=300)
    assert out.returncode == 0, out.stderr
    assert line in out.stdout.splitlines()
