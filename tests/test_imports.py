"""Each command runs once in a fresh interpreter with site-packages on, so
numpy is importable wherever it is installed, and must import neither
numpy, a process pool nor ``chshprob.walks``; only the commands that print
an exact value load ``chshprob.exact``, and an ``mc`` run loads no
dataclasses, fractions or decimal either.  Under ``-S`` no command loads
dataclasses, inspect or typing, only ``toy`` loads fractions or decimal,
only CSV output loads csv, only JSON output loads json and again only the
commands that print an exact value load ``chshprob.exact``; ``--help``
shows what importing the CLI loads."""

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
# code, the captured stdout and the names in sys.modules after main
# returned, taken before the child's own json import.
CHILD = """
import contextlib, io, sys
from chshprob.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
modules = sorted(sys.modules)
import json
print(json.dumps({"code": code, "stdout": out.getvalue(), "modules": modules}))
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
# rows of 2002 rounds in two batches at two workers, a run that forks
SMALL_MC = ["mc", "2", "2", "2", "2", "--trials", "10000", "--seed", "42"]
MC_COMMANDS = [
    SMALL_MC,
    ["mc", "2", "2", "2", "2", "--trials", "4000000"],
    ["mc", "1", "1", "1", "61", "--trials", "32769"],
    ["mc", "1", "1", "1000", "1000", "--trials", "100000", "--workers", "2"],
]


def child_env(**overrides):
    """This environment with the package's source first on PYTHONPATH."""
    env = dict(os.environ, **overrides)
    src = str(Path(chshprob.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_child(argv, *, site=True, prelude="", path=()):
    """Runs prelude, then CHILD, with path ahead of the package's source."""
    env = child_env(COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join([*map(str, path), env["PYTHONPATH"]])
    result = subprocess.run(
        [sys.executable, *([] if site else ["-S"]), "-c", prelude + CHILD, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def prints_an_exact_value(argv):
    """Whether the command prints an exact value, the exact route's job."""
    return argv[0] in {"toy", "exact"} or "--intervals" in argv


def numpy_or_the_pool(modules):
    """The names in modules that no command may import."""
    banned = {"concurrent.futures", "multiprocessing", "chshprob.walks"}
    return {name for name in modules if name in banned or name.split(".")[0] == "numpy"}


@pytest.mark.parametrize("argv", NON_MC_COMMANDS + MC_COMMANDS, ids=" ".join)
def test_command_imports_neither_numpy_nor_the_pool(argv):
    report = run_child(argv)
    assert report["code"] == 0
    assert report["stdout"]
    modules = set(report["modules"])
    assert not numpy_or_the_pool(modules)
    assert ("chshprob.exact" in modules) == prints_an_exact_value(argv)
    if argv[0] == "mc":
        assert not modules & {"dataclasses", "fractions", "decimal"}
        assert report["stdout"].startswith("method,")
    if argv == SMALL_MC:
        # 10000 short rows of stream 4
        (row,) = csv.DictReader(io.StringIO(report["stdout"]))
        assert row["hits"] == "763"


@pytest.mark.parametrize("argv", NON_MC_COMMANDS, ids=" ".join)
def test_non_mc_commands_skip_dataclasses_and_typing_and_load_json_only_for_json(argv):
    # -S keeps site-packages .pth files from importing modules of their own
    report = run_child(argv, site=False)
    assert report["code"] == 0
    modules = set(report["modules"])
    assert not modules & {"dataclasses", "inspect", "typing", "chshprob.walks"}
    assert ("chshprob.exact" in modules) == prints_an_exact_value(argv)
    json_output = any("json" in arg for arg in argv)
    assert ("json" in modules) == json_output
    csv_output = argv[0] in {"exact", "approx", "sweep"} and not json_output
    assert ("csv" in modules) == csv_output
    # exact and sweep --intervals print k / 2**N without a Fraction; toy
    # prints its correlation and probabilities as Fractions
    assert ("fractions" in modules) == ("decimal" in modules) == (argv[0] == "toy")


def test_the_check_sees_an_optional_numpy_import(tmp_path):
    # with a numpy that imports, as where numpy is installed, a sweep that
    # tries it first must fail the check above; a check that reads
    # sys.modules too early, or in the wrong process, would pass it
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy" / "__init__.py").write_text("")
    prelude = (
        "import chshprob.cli as cli\n"
        "sweep = cli.cmd_sweep\n"
        "def cmd_sweep(args):\n"
        "    try:\n"
        "        import numpy\n"
        "    except ImportError:\n"
        "        pass\n"
        "    return sweep(args)\n"
        "cli.cmd_sweep = cmd_sweep\n"
    )
    report = run_child(["sweep"], prelude=prelude, path=[tmp_path])
    assert report["code"] == 0
    assert numpy_or_the_pool(report["modules"]) == {"numpy"}
    assert report["stdout"] == run_child(["sweep"])["stdout"]
