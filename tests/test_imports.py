"""Only ``mc`` imports numpy, no run imports a process pool (a multi-worker run
starts plain threads), no command loads dataclasses, inspect or typing, and
only JSON output loads json."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chshprob

# Runs cli.main in a fresh interpreter and prints one JSON line: the exit
# code, the captured stdout, whether numpy got imported and the names in
# sys.modules after main returned, taken before the child's own json import.
# With "block" as its first argument it first sets sys.modules["numpy"] to
# None, so any import of numpy raises ImportError.
CHILD = """
import contextlib, io, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from chshprob.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[2:])
modules = sorted(sys.modules)
import json
print(json.dumps({
    "code": code,
    "stdout": out.getvalue(),
    "numpy": sys.modules.get("numpy") is not None,
    "modules": modules,
}))
"""

NON_MC_COMMANDS = [
    ["--help"],
    ["toy"],
    ["toy", "--json"],
    ["exact", "2", "2", "2", "2"],
    ["approx", "25", "25", "25", "25"],
    ["sweep"],
    ["sweep", "--intervals", "--format", "json"],
]


def run_child(mode, argv, *, site=True):
    env = dict(os.environ, COLUMNS="80")
    src = str(Path(chshprob.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *([] if site else ["-S"]), "-c", CHILD, mode, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    report["stderr"] = result.stderr
    return report


@pytest.mark.parametrize("argv", NON_MC_COMMANDS, ids=" ".join)
def test_non_mc_commands_run_without_numpy_or_the_pool(argv):
    blocked = run_child("block", argv)
    assert blocked["code"] == 0
    assert blocked["stdout"]
    assert "concurrent.futures" not in blocked["modules"]
    assert blocked["stdout"] == run_child("open", argv)["stdout"]


@pytest.mark.parametrize("argv", NON_MC_COMMANDS, ids=" ".join)
def test_non_mc_commands_skip_dataclasses_and_typing_and_load_json_only_for_json(argv):
    # -S keeps site-packages .pth files from importing modules of their own
    report = run_child("open", argv, site=False)
    assert report["code"] == 0
    modules = set(report["modules"])
    assert not modules & {"dataclasses", "inspect", "typing"}
    assert ("json" in modules) == any("json" in arg for arg in argv)


def test_single_worker_mc_does_not_import_the_pool():
    report = run_child("open", ["mc", "2", "2", "2", "2", "--trials", "1000"])
    assert report["code"] == 0
    assert report["numpy"]
    assert "concurrent.futures" not in report["modules"]
    assert "dataclasses" not in report["modules"]


def test_two_worker_mc_forks_without_the_pool_modules():
    # 32-word rows make 16384-trial batches, so 40000 trials are three batches
    argv = ["mc", "1", "1", "1000", "1000", "--trials", "40000"]
    report = run_child("open", [*argv, "--workers", "2"])
    assert report["code"] == 0
    assert not {"concurrent.futures", "multiprocessing"} & set(report["modules"])
    assert report["stdout"] == run_child("open", [*argv, "--workers", "1"])["stdout"]


def test_mc_without_numpy_exits_1_with_one_error_line():
    report = run_child("block", ["mc", "1", "1", "1", "1", "--trials", "10"])
    assert report["code"] == 1
    assert report["stdout"] == ""
    lines = report["stderr"].splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: mc needs numpy >= 2.0")
    assert "Traceback" not in report["stderr"]
