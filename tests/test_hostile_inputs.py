"""Seeded hostile-input fuzzing of the CLI, run in process.

Each call mutates one shipped document (a line deleted, duplicated,
swapped, joined or renamed, a value replaced by a hostile one, a BOM, CRLF
endings, a truncation, bytes that are not UTF-8, a number scaled) or sets a hostile
CIRCUFLOW_TOLERANCE, then runs ``cli.main``.  Whatever the input, the call
must exit 0, 2, 3 or 4, explain a nonzero exit on stderr, and never let an
exception escape.  A second stream, seeded apart so the first is unchanged,
breaks the command line itself; each such call must exit 4.
"""

import contextlib
import io
import random
import re

import pytest

from circuflow import cli
from support import ACCOUNT_PATH, ECONOMY_PATH, FULL_RECOVERY_PATH, WASTE_DIVERSION_PATH

CALLS = 300
MALFORMED_CALLS = 60

SHIPPED = {
    "account": ACCOUNT_PATH.read_text(encoding="utf-8"),
    "economy": ECONOMY_PATH.read_text(encoding="utf-8"),
    "scenario": FULL_RECOVERY_PATH.read_text(encoding="utf-8"),
    "diversion": WASTE_DIVERSION_PATH.read_text(encoding="utf-8"),
}

HOSTILE_VALUES = (
    "", " ", "#", ",", "=", "nan", "inf", "-inf", "-1", "-0", "0", "1", "2", "1e308", "-1e308",
    "1.7976931348623157e308", "1e400", "5e-324", "0x10", "1_000", "١٢", "True", "on",
    "off", "maybe", "9" * 400, "a, b", "1, 2, 3", "waste, 1.0, reverse_flow, x", "Mt", "kt",
    "set_recovery_rate, 1.0", "scale_reverse_flow_value, on", "été", "\ufeff1",
)

HOSTILE_TOLERANCES = (
    "", "nan", "inf", "-0", "0", "1", "1.5", "-0.1", "1e-400", "0.02", " 0.05 ", "x", "1e308",
    "١",
)


NUMBER_AT_END = re.compile(r"([^#]*[=,] *)([0-9.]+)\n?")


def _mutate(rng: random.Random, text: str) -> bytes:
    """One random mutation of ``text``; a kind that does not fit the drawn line changes nothing."""
    lines = text.splitlines(keepends=True)
    kind = rng.randrange(14)
    at = rng.randrange(len(lines))
    if kind == 0:
        del lines[at]
    elif kind == 1:
        lines.insert(at, lines[at])
    elif kind == 2:
        other = rng.randrange(len(lines))
        lines[at], lines[other] = lines[other], lines[at]
    elif kind == 3 and at + 1 < len(lines):
        lines[at] = lines[at].rstrip("\n") + " " + lines.pop(at + 1)
    elif kind == 4 and "=" in lines[at]:
        key = rng.choice(("nope", "Year", "step ", "sector", "name"))
        lines[at] = key + lines[at][lines[at].index("=") :]
    elif kind in (5, 6) and "=" in lines[at]:
        key = lines[at][: lines[at].index("=")]
        lines[at] = f"{key}= {rng.choice(HOSTILE_VALUES)}\n"
    elif kind == 7:
        return ("\ufeff" + "".join(lines).replace("\n", "\r\n")).encode("utf-8")
    elif kind == 8:
        joined = "".join(lines)
        return joined[: rng.randrange(len(joined) + 1)].encode("utf-8")
    elif kind == 9:
        return "".join(lines).encode("utf-8") + bytes(rng.randrange(256) for _ in range(3))
    elif kind >= 10:
        # scale a number that ends a line: a mass, money, rate or step fraction
        numbers = [i for i, line in enumerate(lines) if NUMBER_AT_END.fullmatch(line)]
        at = rng.choice(numbers)
        head, number = NUMBER_AT_END.fullmatch(lines[at]).groups()
        factor = rng.choice((0.0, 0.1, 0.5, 2.0, 10.0, 1e6))
        lines[at] = f"{head}{float(number) * factor!r}\n"
    return "".join(lines).encode("utf-8")


def _argv(rng: random.Random, paths: dict) -> list[str]:
    command = rng.choice(("validate", "metrics", "valuemap", "scenario", "scenario"))
    argv = [command, paths["account"]]
    if command in ("valuemap", "scenario"):
        argv.append(paths["economy"])
    if command == "scenario":
        argv.append(paths[rng.choice(("scenario", "diversion"))])
    if command != "validate":
        argv += ["--format", rng.choice(("plain", "markdown", "machine"))]
        argv += ["--round", str(rng.choice((0, 1, 3, 17)))]
    return argv


def test_hostile_inputs_exit_with_a_documented_code_and_a_message(tmp_path, monkeypatch):
    rng = random.Random(2027)
    codes = set()
    for call in range(CALLS):
        paths = {}
        target = rng.choice(tuple(SHIPPED))
        for kind, text in SHIPPED.items():
            path = tmp_path / f"{call}.{kind}"
            path.write_bytes(_mutate(rng, text) if kind == target else text.encode("utf-8"))
            paths[kind] = str(path)
        tolerance = rng.choice(HOSTILE_TOLERANCES) if rng.random() < 0.3 else None
        if tolerance is None:
            monkeypatch.delenv(cli.TOLERANCE_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(cli.TOLERANCE_ENV_VAR, tolerance)
        argv = _argv(rng, paths)
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # any escape is the failure under test
            pytest.fail(f"{argv} (tolerance {tolerance!r}) raised {exc!r}")
        err = stderr.getvalue()
        assert code in (0, 2, 3, 4), (argv, tolerance, code, err)
        if code:
            assert err.strip(), (argv, tolerance, code)
        assert "Traceback" not in err, (argv, tolerance, err)
        codes.add(code)
    assert codes == {0, 2, 3, 4}


def _malformed_argv(rng: random.Random, kind: int) -> list[str]:
    """A well-formed command line broken one way; ``kind`` picks the way."""
    paths = {
        "account": str(ACCOUNT_PATH),
        "economy": str(ECONOMY_PATH),
        "scenario": str(FULL_RECOVERY_PATH),
        "diversion": str(WASTE_DIVERSION_PATH),
    }
    argv = _argv(rng, paths)
    positionals = {"validate": 1, "metrics": 1, "valuemap": 2, "scenario": 3}[argv[0]]
    if kind == 0:
        argv[0] = rng.choice(("", "Validate", "metricz", "valuemaps", "scenarios", "--frobnicate"))
    elif kind == 1:
        del argv[rng.randrange(1, 1 + positionals)]
    elif kind == 2:
        argv += ["--format", rng.choice(("xml", "PLAIN", "", "json", "svg"))]
    elif kind == 3:
        argv += ["--round", rng.choice(("abc", "1.5", "", "1e3", "0x10", "nan", "one"))]
    elif kind == 4:
        argv.append(rng.choice(("--format", "--round", "--svg")))
    elif kind == 5:
        argv.append(rng.choice(("--frobnicate", "--rounds", "--svgs", "-x", "--format=")))
    else:
        argv.insert(1 + positionals, str(ACCOUNT_PATH))
    return argv


def test_malformed_command_lines_exit_4_with_a_usage_error():
    rng = random.Random(2028)
    kinds = set()
    for _ in range(MALFORMED_CALLS):
        kind = rng.randrange(7)
        argv = _malformed_argv(rng, kind)
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # any escape is the failure under test
            pytest.fail(f"{argv} raised {exc!r}")
        err = stderr.getvalue()
        assert code == 4, (argv, code, err)
        assert "error: " in err and "Traceback" not in err, (argv, err)
        assert stdout.getvalue() == "", argv
        kinds.add(kind)
    assert kinds == set(range(7))
