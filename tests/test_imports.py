"""No command imports numpy, an ``mc`` run of long rows included, and each
prints the same bytes with numpy blocked; no run imports a process pool,
no command loads dataclasses, inspect, typing or ``chshprob.walks``, only
the commands that build an exact value load fractions, only CSV output
loads csv and only JSON output loads json."""

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

# short rows in one batch and in 62, rows of 64 rounds in one batch, and
# rows of 2002 rounds at two workers, which stream 2 drew with numpy
MC_COMMANDS = [
    ["mc", "2", "2", "2", "2", "--trials", "10000"],
    ["mc", "2", "2", "2", "2", "--trials", "4000000"],
    ["mc", "1", "1", "1", "61", "--trials", "32769"],
    ["mc", "1", "1", "1000", "1000", "--trials", "1000", "--nonstrict", "--workers", "2"],
]


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


@pytest.mark.parametrize("argv", MC_COMMANDS, ids=" ".join)
def test_mc_runs_without_numpy_or_the_pool(argv):
    blocked = run_child("block", argv)
    assert blocked["code"] == 0
    assert not [name for name in blocked["modules"] if name.startswith("numpy.")]
    assert not {"concurrent.futures", "multiprocessing"} & set(blocked["modules"])
    report = run_child("open", argv)
    assert not report["numpy"]
    assert report["stdout"] == blocked["stdout"]
    assert report["stdout"].startswith("method,")


def test_single_worker_mc_does_not_import_the_pool():
    report = run_child("open", MC_COMMANDS[2])
    assert report["code"] == 0
    assert not report["numpy"]
    assert "concurrent.futures" not in report["modules"]
    assert "dataclasses" not in report["modules"]
    assert "chshprob.walks" not in report["modules"]
    assert not {"fractions", "decimal"} & set(report["modules"])


def test_small_mc_runs_without_numpy():
    # 10000 short rows are counted bit-sliced in pure Python
    argv = ["mc", "2", "2", "2", "2", "--trials", "10000", "--seed", "42"]
    blocked = run_child("block", argv)
    assert blocked["code"] == 0
    assert not blocked["numpy"]
    assert not [name for name in blocked["modules"] if name.startswith("numpy.")]
    (row,) = csv.DictReader(io.StringIO(blocked["stdout"]))
    assert row["hits"] == "763"
