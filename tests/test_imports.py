"""Only an ``mc`` run of rows longer than ``montecarlo.SHORT_ROW_ROUNDS``
imports numpy, and without numpy >= 2.0 it exits 1 with one error line; a
run of short rows of any size draws in pure Python, no run imports a
process pool (a multi-worker run starts plain threads), no command loads
dataclasses, inspect, typing or ``chshprob.walks``, only the commands that
build an exact value load fractions, only CSV output loads csv and only
JSON output loads json."""

import csv
import io
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
# None, so any import of numpy raises ImportError; with "old" it deletes
# numpy.bitwise_count, as numpy < 2.0 lacks it.
CHILD = """
import contextlib, io, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
if sys.argv[1] == "old":
    import numpy
    del numpy.bitwise_count
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

# long one-word rows, in one batch, which import numpy
NUMPY_ROWS = ["mc", "1", "1", "1", "61", "--trials", "32769"]


def child_env(**overrides):
    """This environment with the package's source first on PYTHONPATH."""
    env = dict(os.environ, **overrides)
    src = str(Path(chshprob.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_child(mode, argv, *, site=True):
    result = subprocess.run(
        [sys.executable, *([] if site else ["-S"]), "-c", CHILD, mode, *argv],
        capture_output=True,
        text=True,
        env=child_env(COLUMNS="80"),
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
    assert "chshprob.walks" not in blocked["modules"]
    assert blocked["stdout"] == run_child("open", argv)["stdout"]


@pytest.mark.parametrize("argv", NON_MC_COMMANDS, ids=" ".join)
def test_non_mc_commands_skip_dataclasses_and_typing_and_load_json_only_for_json(argv):
    # -S keeps site-packages .pth files from importing modules of their own
    report = run_child("open", argv, site=False)
    assert report["code"] == 0
    modules = set(report["modules"])
    assert not modules & {"dataclasses", "inspect", "typing", "chshprob.walks"}
    json_output = any("json" in arg for arg in argv)
    assert ("json" in modules) == json_output
    csv_output = argv[0] in {"exact", "approx", "sweep"} and not json_output
    assert ("csv" in modules) == csv_output
    exact_values = argv[0] in {"toy", "exact"} or "--intervals" in argv
    assert ("fractions" in modules) == exact_values


def test_single_worker_mc_does_not_import_the_pool():
    report = run_child("open", NUMPY_ROWS)
    assert report["code"] == 0
    assert report["numpy"]
    assert "concurrent.futures" not in report["modules"]
    assert "dataclasses" not in report["modules"]
    assert "chshprob.walks" not in report["modules"]
    assert not {"fractions", "decimal"} & set(report["modules"])


def test_two_worker_mc_starts_a_thread_and_loads_no_pool_module():
    """A two-worker run starts a thread for its second share and never
    forks, so it loads neither concurrent.futures nor multiprocessing."""
    # 32-word rows make 16384-trial batches, so 40000 trials are three batches
    argv = ["mc", "1", "1", "1000", "1000", "--trials", "40000"]
    report = run_child("open", [*argv, "--workers", "2"])
    assert report["code"] == 0
    assert not {"concurrent.futures", "multiprocessing"} & set(report["modules"])
    assert report["stdout"] == run_child("open", [*argv, "--workers", "1"])["stdout"]


def assert_needs_numpy(report):
    assert report["code"] == 1
    assert report["stdout"] == ""
    lines = report["stderr"].splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: mc needs numpy >= 2.0")
    assert "Traceback" not in report["stderr"]


def test_mc_without_numpy_exits_1_with_one_error_line():
    assert_needs_numpy(run_child("block", NUMPY_ROWS))
    # the shortest long row, in one trial: one word, yet numpy draws it
    assert_needs_numpy(run_child("block", ["mc", "4", "4", "4", "5", "--trials", "1"]))


def test_mc_on_numpy_without_bitwise_count_exits_1_with_one_error_line():
    report = run_child("old", NUMPY_ROWS)
    assert_needs_numpy(report)
    assert "has no bitwise_count" in report["stderr"]


def test_small_mc_runs_without_numpy():
    # 10000 short rows are counted bit-sliced in pure Python
    argv = ["mc", "2", "2", "2", "2", "--trials", "10000", "--seed", "42"]
    blocked = run_child("block", argv)
    assert blocked["code"] == 0
    assert not blocked["numpy"]
    assert not [name for name in blocked["modules"] if name.startswith("numpy.")]
    (row,) = csv.DictReader(io.StringIO(blocked["stdout"]))
    assert row["hits"] == "755"


def test_short_row_mc_of_any_size_runs_without_numpy():
    # 4e6 trials are 62 batches, and short rows still need no numpy
    blocked = run_child("block", ["mc", "2", "2", "2", "2", "--trials", "4000000"])
    assert blocked["code"] == 0
    assert not blocked["numpy"]
    assert blocked["stdout"].startswith("method,")


# Runs ``python -m chshprob`` through runpy and prints, from an atexit hook
# that runs after entry() has exited, the number of native threads left.
THREAD_PROBE = """
import atexit, os, runpy, sys
atexit.register(lambda: print("tasks", len(os.listdir("/proc/self/task")), file=sys.stderr))
sys.argv[0] = "chshprob"
runpy.run_module("chshprob", run_name="__main__", alter_sys=True)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="counts threads in /proc/self/task")
@pytest.mark.parametrize("preset, tasks", [(None, 1), ("2", 2)], ids=["unset", "preset-2"])
def test_mc_process_runs_on_one_native_thread(preset, tasks):
    # numpy loads OpenBLAS, which starts a thread per CPU during the import
    # unless OPENBLAS_NUM_THREADS says otherwise; entry() caps it at one,
    # and a count the caller set wins
    if tasks > 1 and len(os.sched_getaffinity(0)) < tasks:
        pytest.skip(f"OpenBLAS starts at most one thread per CPU; {tasks} needed")
    env = child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    result = subprocess.run(
        [sys.executable, "-c", THREAD_PROBE, *NUMPY_ROWS],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("method,")
    assert result.stderr.splitlines() == [f"tasks {tasks}"]
