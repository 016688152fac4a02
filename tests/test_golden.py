"""Byte-for-byte CLI output on the shipped data.

Each ``tests/golden/<name>.txt`` holds the stdout of one call below,
captured with ``python -m circuflow`` at commit f0f6f00 (before the value
layer stored plain floats); every call exits 0.  A diff here is a change
in what users see and must be deliberate.
"""

from pathlib import Path

import pytest

from circuflow.cli import main
from support import ACCOUNT_PATH, ECONOMY_PATH, FULL_RECOVERY_PATH, WASTE_DIVERSION_PATH

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FORMATS = ("plain", "markdown", "machine")

ACCOUNT, ECONOMY = str(ACCOUNT_PATH), str(ECONOMY_PATH)
CALLS = {"validate": ["validate", ACCOUNT]}
CALLS.update({f"metrics_{fmt}": ["metrics", ACCOUNT, "--format", fmt] for fmt in FORMATS})
CALLS["metrics_round0"] = ["metrics", ACCOUNT, "--round", "0"]
CALLS.update({f"valuemap_{fmt}": ["valuemap", ACCOUNT, ECONOMY, "--format", fmt] for fmt in FORMATS})
for _name, _path in (("full_recovery", FULL_RECOVERY_PATH), ("waste_diversion", WASTE_DIVERSION_PATH)):
    CALLS.update(
        {
            f"scenario_{_name}_{fmt}": ["scenario", ACCOUNT, ECONOMY, str(_path), "--format", fmt]
            for fmt in FORMATS
        }
    )


# ``tests/golden/<name>.svg`` is the chart that ``--svg`` writes for one call
# below, captured at commit 79e4f0a.
SVG_CALLS = {"metrics": ["metrics", ACCOUNT], "valuemap": ["valuemap", ACCOUNT, ECONOMY]}


def test_every_golden_file_has_a_call():
    assert {path.stem for path in GOLDEN_DIR.glob("*.txt")} == set(CALLS)
    assert {path.stem for path in GOLDEN_DIR.glob("*.svg")} == set(SVG_CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_output_is_byte_identical(name, monkeypatch, capsysbinary):
    monkeypatch.delenv("CIRCUFLOW_TOLERANCE", raising=False)
    assert main(CALLS[name]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN_DIR / f"{name}.txt").read_bytes()


@pytest.mark.parametrize("name", sorted(SVG_CALLS))
def test_svg_is_byte_identical(name, monkeypatch, tmp_path):
    monkeypatch.delenv("CIRCUFLOW_TOLERANCE", raising=False)
    chart = tmp_path / "chart.svg"
    assert main(SVG_CALLS[name] + ["--svg", str(chart)]) == 0
    assert chart.read_bytes() == (GOLDEN_DIR / f"{name}.svg").read_bytes()
