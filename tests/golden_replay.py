"""Replay every golden call through a ``circuflow`` command and compare the results.

    python tests/golden_replay.py circuflow             # the installed script
    python tests/golden_replay.py python -m circuflow   # any interpreter that imports it

``CALLS`` is the one table of golden calls: ``tests/test_golden.py`` runs each
row in process through ``cli.main``, and this script runs each row as a
subprocess of the given command, so CI checks the installed script on every
golden file.  Each call runs in its own temporary directory, which is where
``--svg`` charts go, with ``CIRCUFLOW_TOLERANCE`` dropped from its
environment.  Nothing is added to the import path: the command finds
``circuflow`` where it would anyway.  Relative ``PYTHONPATH`` entries are
made absolute, so they name what they named where the replay started.

Prints one line per mismatch, naming the row, and exits 1 if there was any.
Only the standard library is used.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path, PurePosixPath
from typing import NamedTuple

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"

#: What a row compares, named by its golden file's suffix: its stdout against
#: ``<name>.txt``, the chart it writes with ``--svg`` against ``<name>.svg``, or
#: its stdout against nothing.
STDOUT, SVG, EMPTY = ".txt", ".svg", ""
CHART = "chart.svg"


class Call(NamedTuple):
    """One golden call: ``argv`` holds strings and repo-relative ``PurePosixPath``s."""

    name: str
    argv: list
    exit_code: int = 0
    compared: str = STDOUT

    @property
    def label(self) -> str:
        """The golden file's name, which names the row: "metrics_round0" has a .txt and a .svg."""
        return self.name + self.compared


ACCOUNT = PurePosixPath("data/global_2020.account")
ECONOMY = PurePosixPath("data/global_2020.economy")
FORMATS = ("plain", "markdown", "machine")

# ``tests/golden/<name>.txt`` holds the stdout of one call below, captured with
# ``python -m circuflow`` at commit f0f6f00 (before the value layer stored plain
# floats).
CALLS = [Call("validate", ["validate", ACCOUNT])]
CALLS += [Call(f"metrics_{fmt}", ["metrics", ACCOUNT, "--format", fmt]) for fmt in FORMATS]
CALLS.append(Call("metrics_round0", ["metrics", ACCOUNT, "--round", "0"]))
CALLS += [
    Call(f"valuemap_{fmt}", ["valuemap", ACCOUNT, ECONOMY, "--format", fmt]) for fmt in FORMATS
]
for _name in ("full_recovery", "waste_diversion"):
    _argv = ["scenario", ACCOUNT, ECONOMY, PurePosixPath(f"scenarios/{_name}.scenario"), "--format"]
    CALLS += [Call(f"scenario_{_name}_{fmt}", [*_argv, fmt]) for fmt in FORMATS]
    # the human scenario tables at other precisions, captured at 8fcce08
    CALLS += [
        Call(f"scenario_{_name}_{fmt}_round{places}", [*_argv, fmt, "--round", places])
        for fmt in ("plain", "markdown")
        for places in ("0", "3")
    ]

# ``tests/golden/<name>.svg`` is the chart that ``--svg`` writes for one call
# below: "metrics" and "valuemap" captured at commit 79e4f0a, the rest at
# ecfec1e, and "valuemap_depletion" once a skipped segment stopped moving the
# next one left (8e2c2c9 drew its legacy segment over the dissipative one), then
# again once the drawn widths were scaled to end at the bar's right edge.
# The economy without a reverse_flow sector pins a skipped segment besides
# waste; the depletion economy pins a negative stock share, also skipped.
for _name, _argv in (("metrics", [ACCOUNT]), ("valuemap", [ACCOUNT, ECONOMY])):
    CALLS += [
        Call(f"{_name}{suffix}", [_name, *_argv, *options], compared=SVG)
        for suffix, options in (
            ("", []),
            ("_round0", ["--round", "0"]),
            ("_round3", ["--round", "3"]),
            ("_no_footnotes", ["--no-footnotes"]),
        )
    ]
for _name in ("no_reverse_flow", "depletion"):
    _economy = PurePosixPath(f"tests/data/{_name}.economy")
    CALLS.append(Call(f"valuemap_{_name}", ["valuemap", ACCOUNT, _economy], compared=SVG))

# An unwritable chart path exits 4 and prints no report, and so does an empty one.
CALLS += [
    Call("svg_in_missing_directory", ["metrics", ACCOUNT, "--svg", "missing/chart.svg"], 4, EMPTY),
    Call("svg_empty_path", ["metrics", ACCOUNT, "--svg", ""], 4, EMPTY),
]
# A divert that would leave recycled input over the recoverable pool exits 3 with no report.
_DIVERT = PurePosixPath("tests/data/divert_after_recovery.scenario")
CALLS.append(Call("divert_after_recovery", ["scenario", ACCOUNT, ECONOMY, _DIVERT], 3, EMPTY))


def arguments(call: Call) -> list[str]:
    """``call``'s command line, repo paths made absolute and a chart written to ``CHART``."""
    argv = [str(REPO_ROOT / arg) if isinstance(arg, PurePosixPath) else arg for arg in call.argv]
    return argv + ["--svg", CHART] if call.compared == SVG else argv


def written_chart(workdir: Path) -> bytes | None:
    """The chart a call wrote to ``CHART`` in ``workdir``, or None."""
    chart = workdir / CHART
    return chart.read_bytes() if chart.is_file() else None


def compare(
    call: Call, exit_code: int, stdout: bytes, stderr: bytes, chart: bytes | None
) -> list[str]:
    """One line per way a call's results differ from its row; none when they agree."""
    found = []
    if exit_code != call.exit_code:
        last = (stderr.decode(errors="replace").strip().splitlines() or ["no stderr"])[-1]
        found.append(f"{call.label}: exit code {exit_code}, expected {call.exit_code} ({last})")
    if call.compared == EMPTY:
        if stdout:
            found.append(f"{call.label}: stdout is not empty")
        return found
    what, actual = ("chart", chart) if call.compared == SVG else ("stdout", stdout)
    expected = (GOLDEN_DIR / call.label).read_bytes()
    if actual is None:
        found.append(f"{call.label}: no chart written")
    elif actual != expected:
        shorter = min(len(actual), len(expected))
        at = next((i for i, (a, b) in enumerate(zip(actual, expected)) if a != b), shorter)
        found.append(f"{call.label}: {what} differs from the golden file at byte {at}")
    return found


def replay(command: list[str]) -> list[str]:
    """Every mismatch of every row, run as a subprocess of ``command``."""
    env = dict(os.environ)
    env.pop("CIRCUFLOW_TOLERANCE", None)
    if env.get("PYTHONPATH"):
        entries = env["PYTHONPATH"].split(os.pathsep)
        env["PYTHONPATH"] = os.pathsep.join(os.path.abspath(entry) for entry in entries)
    executable = shutil.which(command[0])
    if executable is None:
        return [f"{command[0]}: command not found"]
    command = [os.path.abspath(executable), *command[1:]]
    found = []
    for call in CALLS:
        with tempfile.TemporaryDirectory() as workdir:
            done = subprocess.run(
                [*command, *arguments(call)], cwd=workdir, env=env, capture_output=True
            )
            chart = written_chart(Path(workdir))
        found += compare(call, done.returncode, done.stdout, done.stderr, chart)
    return found


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tests/golden_replay.py COMMAND [ARG...]", file=sys.stderr)
        return 1
    found = replay(argv)
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
