"""Byte-for-byte CLI output on the shipped data.

``golden_replay.CALLS`` is the one table of golden calls, with the commits
each golden file was captured at.  Each row runs here in process through
``cli.main``, and ``tests/golden_replay.py`` replays the same rows through
any ``circuflow`` command, the installed script in CI.  A diff here is a
change in what users see and must be deliberate.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import circuflow
from circuflow.cli import main
from golden_replay import CALLS, EMPTY, GOLDEN_DIR, REPO_ROOT, STDOUT, SVG
from golden_replay import arguments, compare, written_chart


def test_every_golden_file_has_a_call():
    golden = {path.name for path in GOLDEN_DIR.iterdir()}
    assert golden == {call.label for call in CALLS if call.compared != EMPTY}
    assert len({call.label for call in CALLS}) == len(CALLS) == 35


@pytest.mark.parametrize("call", CALLS, ids=lambda call: call.label)
def test_call_matches_its_row(call, monkeypatch, tmp_path, capsysbinary):
    monkeypatch.delenv("CIRCUFLOW_TOLERANCE", raising=False)
    monkeypatch.chdir(tmp_path)
    exit_code = main(arguments(call))
    out, err = capsysbinary.readouterr()
    assert compare(call, exit_code, out, err, written_chart(tmp_path)) == []


def _flipped(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :]


def test_compare_names_the_row_of_each_mismatch():
    text, svg, empty = (next(c for c in CALLS if c.compared == k) for k in (STDOUT, SVG, EMPTY))
    stdout, chart = (GOLDEN_DIR / text.label).read_bytes(), (GOLDEN_DIR / svg.label).read_bytes()
    assert compare(text, 0, stdout, b"", None) == []
    assert compare(text, 0, _flipped(stdout, 7), b"", None) == [
        f"{text.label}: stdout differs from the golden file at byte 7"
    ]
    assert compare(text, 0, stdout[:-1], b"", None) == [
        f"{text.label}: stdout differs from the golden file at byte {len(stdout) - 1}"
    ]
    assert compare(svg, 0, b"", b"", chart) == []
    assert compare(svg, 0, b"", b"", _flipped(chart, 100)) == [
        f"{svg.label}: chart differs from the golden file at byte 100"
    ]
    assert compare(svg, 0, b"", b"", None) == [f"{svg.label}: no chart written"]
    assert compare(empty, 4, b"", b"error: cannot write\n", None) == []
    assert compare(empty, 0, b"report\n", b"", None) == [
        f"{empty.label}: exit code 0, expected 4 (no stderr)",
        f"{empty.label}: stdout is not empty",
    ]
    assert compare(text, 3, stdout, b"Traceback\nKeyError: 'x'\n", None) == [
        f"{text.label}: exit code 3, expected 0 (KeyError: 'x')"
    ]


def test_the_replay_passes_through_python_m_circuflow():
    """The script CI runs: every row as a subprocess, a tolerance override dropped."""
    env = dict(os.environ, CIRCUFLOW_TOLERANCE="0.001")  # would fail the shipped account
    env["PYTHONPATH"] = str(Path(circuflow.__file__).resolve().parent.parent)
    replay = [sys.executable, str(REPO_ROOT / "tests" / "golden_replay.py")]
    done = subprocess.run(
        [*replay, sys.executable, "-m", "circuflow"], env=env, capture_output=True, text=True
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    usage = subprocess.run(replay, capture_output=True, text=True)
    assert usage.returncode == 1 and usage.stderr.startswith("usage:")
