"""Import-cost guards: what each entry point loads, checked by module name.

The checks run in fresh interpreters because this test process has
already imported every module.  They assert on ``sys.modules`` only, never
on timings, so they are deterministic.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import circuflow
from support import ACCOUNT_PATH, ECONOMY_PATH, FULL_RECOVERY_PATH

SRC = str(Path(circuflow.__file__).resolve().parent.parent)

HEAVY_STDLIB = ("xml", "urllib", "http", "email")

# The record code generator and what it loads: records are plain classes.
CODEGEN_STDLIB = {"dataclasses", "inspect", "ast", "dis", "tokenize"}

# Exact decimal and rational arithmetic: ``fractions`` imports ``decimal``.
DECIMAL_STDLIB = {"decimal", "_decimal", "_pydecimal", "fractions"}


def _modules_after(code: str) -> tuple[set[str], set[str]]:
    """``sys.modules`` of a fresh interpreter before and after running ``code``."""
    script = (
        "import json, sys\n"
        "before = sorted(sys.modules)\n"
        f"{code}\n"
        "print(json.dumps([before, sorted(sys.modules)]))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout.splitlines()[-1])
    return set(before), set(after)


def _loaded_after(code: str) -> set[str]:
    """Names of the modules a fresh interpreter gains by running ``code``."""
    before, after = _modules_after(code)
    return after - before


def test_cli_import_loads_no_heavy_stdlib():
    loaded = _loaded_after("import circuflow.cli")
    assert "circuflow.cli" in loaded
    heavy = sorted(name for name in loaded if name.split(".", 1)[0] in HEAVY_STDLIB)
    assert heavy == []


def test_cli_import_loads_no_render_code():
    assert "circuflow.render" not in _loaded_after("import circuflow.cli")


def test_validate_loads_no_render_metric_valuemap_or_scenario_code():
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from circuflow import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['validate', {str(ACCOUNT_PATH)!r}]) == 0"
    )
    assert "circuflow.accounts" in loaded
    assert not loaded & {
        "circuflow.render",
        "circuflow.metrics",
        "circuflow.scenarios",
        "circuflow.valuemap",
    }


@pytest.mark.parametrize(
    "argv",
    [["metrics", str(ACCOUNT_PATH)], ["valuemap", str(ACCOUNT_PATH), str(ECONOMY_PATH)]],
    ids=["metrics", "valuemap"],
)
def test_metrics_and_valuemap_load_render_and_no_scenario_code(argv):
    # render reads the tables of both metrics and valuemap, so each loads both
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from circuflow import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0"
    )
    assert {"circuflow.render", "circuflow.metrics", "circuflow.valuemap"} <= loaded
    assert "circuflow.scenarios" not in loaded


def test_the_validation_report_loads_no_render_metric_valuemap_or_scenario_code():
    loaded = _loaded_after(
        "from circuflow.accounts import render_validation, validate\n"
        "from circuflow.documents import parse_account\n"
        f"with open({str(ACCOUNT_PATH)!r}, encoding='utf-8') as handle:\n"
        "    account = parse_account(handle.read())\n"
        "assert render_validation(validate(account)).startswith('validation: ')"
    )
    assert "circuflow.accounts" in loaded
    assert not loaded & {
        "circuflow.render",
        "circuflow.metrics",
        "circuflow.scenarios",
        "circuflow.valuemap",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", str(ACCOUNT_PATH)],
        ["metrics", str(ACCOUNT_PATH)],
        ["valuemap", str(ACCOUNT_PATH), str(ECONOMY_PATH), "--svg", "{svg}"],
        ["scenario", str(ACCOUNT_PATH), str(ECONOMY_PATH), str(FULL_RECOVERY_PATH)],
    ],
    ids=lambda argv: argv[0],
)
def test_subcommands_load_no_code_generator(argv, tmp_path):
    argv = [arg.format(svg=tmp_path / "chart.svg") for arg in argv]
    _, loaded = _modules_after(
        "import contextlib, io\n"
        "from circuflow import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0"
    )
    assert sorted(loaded & CODEGEN_STDLIB) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", str(ACCOUNT_PATH)],
        ["metrics", str(ACCOUNT_PATH)],
        ["valuemap", str(ACCOUNT_PATH), str(ECONOMY_PATH), "--svg", "{svg}"],
        ["scenario", str(ACCOUNT_PATH), str(ECONOMY_PATH), str(FULL_RECOVERY_PATH)],
    ],
    ids=lambda argv: argv[0],
)
def test_subcommands_load_no_decimal_arithmetic(argv, tmp_path):
    # rounding reads repr digits; ``fractions`` would bring ``decimal`` back in
    argv = [arg.format(svg=tmp_path / "chart.svg") for arg in argv]
    _, loaded = _modules_after(
        "import contextlib, io\n"
        "from circuflow import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0"
    )
    assert sorted(loaded & DECIMAL_STDLIB) == []


def test_record_modules_load_no_code_generator():
    _, loaded = _modules_after("import circuflow.scenarios, circuflow.render")
    assert "circuflow.record" in loaded
    assert sorted(loaded & CODEGEN_STDLIB) == []


def test_package_import_loads_no_submodule():
    loaded = _loaded_after("import circuflow")
    assert sorted(name for name in loaded if name.startswith("circuflow")) == ["circuflow"]


def test_every_export_resolves_to_its_submodule_object():
    import importlib

    for name in circuflow.__all__:
        module = importlib.import_module(f"circuflow.{circuflow._EXPORTS[name]}")
        assert getattr(circuflow, name) is getattr(module, name), name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from circuflow import *", namespace)
    assert set(circuflow.__all__) <= set(namespace)
    assert namespace["validate"] is circuflow.validate


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        circuflow.no_such_name
    assert not hasattr(circuflow, "no_such_name")


def test_dir_lists_every_export():
    assert set(circuflow.__all__) <= set(dir(circuflow))
