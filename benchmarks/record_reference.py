"""Record the reference outputs the checks compare against.

Runs the package from ``src/`` in-process and writes ``reference.json``:
the exact probability of every (config, threshold) the benchmark uses, as a
fraction string, and the rows of every sweep command of cli-small. Run it
only on a commit whose outputs are known good:

    python3 benchmarks/record_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import checks
import workloads
from run import ROOT

# Configs the traced run and the MC checks need beyond the workload commands.
EXTRA_EXACT = (
    ((25, 25, 25, 25), workloads.STRICT),
    ((1, 1, 1, 1), workloads.NON_STRICT),
)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from chshprob import cli, model

    keys = {(c.rounds, c.threshold) for c in workloads.all_commands() if c.kind in ("exact", "mc")}
    keys.update(EXTRA_EXACT)
    exact = {}
    for rounds, threshold in sorted(keys):
        value = model.exact_violation_probability(model.ExperimentConfig(rounds=rounds), threshold).value
        exact[checks.exact_key(rounds, threshold)] = str(value)

    sweeps = {}
    for command in workloads.all_commands():
        if command.kind != "sweep":
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(command.argv))
        if code != 0:
            raise SystemExit(f"{command.argv} exited {code}")
        sweeps.setdefault(checks.sweep_key(command.argv), checks.parse_rows(out.getvalue(), command.argv))

    reference = {
        "recorded_from": f"chshprob {__import__('chshprob').__version__}",
        "exact": exact,
        "sweep": sweeps,
    }
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(exact)} exact values and {len(sweeps)} sweeps to {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
