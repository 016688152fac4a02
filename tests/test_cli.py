"""End-to-end CLI tests: exit codes, output, env overrides."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from circuflow.cli import main
from support import (
    ACCOUNT_PATH,
    ECONOMY_PATH,
    FULL_RECOVERY_PATH,
    REPO_ROOT,
    WASTE_DIVERSION_PATH,
)

ACCOUNT = str(ACCOUNT_PATH)
ECONOMY = str(ECONOMY_PATH)
FULL_RECOVERY = str(FULL_RECOVERY_PATH)
WASTE_DIVERSION = str(WASTE_DIVERSION_PATH)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("CIRCUFLOW_TOLERANCE", raising=False)


class TestValidateCommand:
    def test_reference_passes_with_warning(self, capsys):
        assert main(["validate", ACCOUNT]) == 0
        out = capsys.readouterr().out
        assert "pass-with-warning" in out
        assert "3.0 Gt" in out and "2.9%" in out

    def test_negative_mass_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.account"
        bad.write_text(ACCOUNT_PATH.read_text().replace("waste_output = 25", "waste_output = -25"))
        assert main(["validate", str(bad)]) == 4
        err = capsys.readouterr().err
        assert "waste_output" in err

    def test_missing_field_names_it(self, tmp_path, capsys):
        text = "\n".join(
            line
            for line in ACCOUNT_PATH.read_text().splitlines()
            if not line.startswith("energetic_input")
        )
        bad = tmp_path / "bad.account"
        bad.write_text(text)
        assert main(["validate", str(bad)]) == 4
        assert "energetic_input" in capsys.readouterr().err

    def test_unreadable_path(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "missing.account")]) == 4
        assert "error:" in capsys.readouterr().err

    def test_category_violation_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.account"
        bad.write_text(ACCOUNT_PATH.read_text().replace("total_input = 104", "total_input = 100"))
        assert main(["validate", str(bad)]) == 2
        assert "fail" in capsys.readouterr().out

    def test_env_tolerance_override_fails_reference(self, monkeypatch, capsys):
        monkeypatch.setenv("CIRCUFLOW_TOLERANCE", "0.02")
        assert main(["validate", ACCOUNT]) == 2
        assert "exceeds" in capsys.readouterr().out

    def test_env_negative_zero_tolerance_prints_unsigned(self, monkeypatch, capsys):
        monkeypatch.setenv("CIRCUFLOW_TOLERANCE", "-0.0")
        assert main(["validate", ACCOUNT]) == 2
        out = capsys.readouterr().out
        assert "exceeds the 0% tolerance" in out and "-0%" not in out

    def test_env_override_does_not_beat_explicit_tolerance(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CIRCUFLOW_TOLERANCE", "0.02")
        explicit = tmp_path / "explicit.account"
        explicit.write_text(ACCOUNT_PATH.read_text() + "balance_tolerance = 0.05\n")
        assert main(["validate", str(explicit)]) == 0

    def test_bad_env_value(self, monkeypatch, capsys):
        monkeypatch.setenv("CIRCUFLOW_TOLERANCE", "lots")
        assert main(["validate", ACCOUNT]) == 4
        assert "CIRCUFLOW_TOLERANCE" in capsys.readouterr().err

    def test_unreadable_file_is_reported_before_a_bad_env_value(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("CIRCUFLOW_TOLERANCE", "lots")
        assert main(["validate", str(tmp_path / "missing.account")]) == 4
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert "CIRCUFLOW_TOLERANCE" not in err

    def test_utf8_bom_is_accepted(self, tmp_path, capsys):
        assert main(["validate", ACCOUNT]) == 0
        expected = capsys.readouterr().out
        bom = tmp_path / "bom.account"
        bom.write_bytes(b"\xef\xbb\xbf" + ACCOUNT_PATH.read_bytes())
        assert main(["validate", str(bom)]) == 0
        assert capsys.readouterr().out == expected

    def test_zero_total_account_fails_without_crashing(self, tmp_path, capsys):
        empty = tmp_path / "zero.account"
        empty.write_text(
            "year = 2020\ntotal_input = 0\nenergetic_input = 0\nstructural_input = 0\n"
            "recycled_input = 0\nemissions_output = 0\nwaste_output = 0\n"
            "net_stock_additions = 0\n"
        )
        assert main(["validate", str(empty)]) == 2
        out = capsys.readouterr().out
        assert "undefined share" in out


class TestHostileMagnitudes:
    """Extreme inputs exit with a named error code, never a traceback."""

    @staticmethod
    def _account(tmp_path, **fields):
        values = dict(
            total_input=104, energetic_input=40, structural_input=64, recycled_input=9,
            emissions_output=45, waste_output=25, net_stock_additions=31,
        )
        values.update(fields)
        path = tmp_path / "hostile.account"
        path.write_text("year = 2020\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
        return str(path)

    @pytest.mark.parametrize("places", ["26", "40"])
    def test_many_decimal_places(self, places, capsys):
        assert main(["metrics", ACCOUNT, "--round", places]) == 0
        assert "14.06250000000000000000000000" in capsys.readouterr().out

    def test_masses_beyond_the_default_decimal_precision(self, tmp_path, capsys):
        path = self._account(
            tmp_path, total_input=1.04e29, energetic_input=4e28, structural_input=6.4e28,
            recycled_input=9e27, emissions_output=4.5e28, waste_output=2.5e28,
            net_stock_additions=3.1e28,
        )
        assert main(["metrics", path]) == 0
        assert "27.3%" in capsys.readouterr().out

    def test_residual_share_beyond_float_range_in_percent(self, tmp_path, capsys):
        # the share is -1e308, finite, but -1e310 once expressed in percent
        path = self._account(
            tmp_path, total_input=1e-308, energetic_input=0, structural_input=1e-308,
            recycled_input=0, emissions_output=1.0, waste_output=0, net_stock_additions=0,
        )
        assert main(["validate", path]) == 2
        out = capsys.readouterr().out
        # a finite share prints its repr's digits, shifted two places: never inf
        assert f"(-1{'0' * 310}.0% of total input)" in out
        assert f"(-1{'0' * 310}.00% of total input) exceeds" in out
        assert "inf" not in out

    def test_overflowing_output_sum_is_a_parse_error(self, tmp_path, capsys):
        path = self._account(
            tmp_path, total_input=1.7e308, energetic_input=0, structural_input=1.7e308,
            recycled_input=0, emissions_output=1e308, waste_output=1e308, net_stock_additions=0,
        )
        assert main(["validate", path]) == 4
        assert "emissions + waste + net_stock_additions" in capsys.readouterr().err

    def test_overflowing_sector_sum_is_a_parse_error(self, tmp_path, capsys):
        economy = tmp_path / "ovf.economy"
        economy.write_text(
            "year = 2020\ngdp = 1.7e308\ngfcf_rate = 0.26\ncfc_rate = 0.13\n"
            "sector = a, 1e308, reverse_flow\nsector = b, 1e308, reverse_flow\n"
        )
        assert main(["valuemap", ACCOUNT, str(economy)]) == 4
        assert "sector value sum overflows to infinity" in capsys.readouterr().err

    def test_overflowing_attributed_sum_is_a_computation_error(self, tmp_path, capsys):
        economy = tmp_path / "ovf.economy"
        economy.write_text(
            "year = 2020\ngdp = 1.7e308\ngfcf_rate = 1\ncfc_rate = 0\n"
            "sector = a, 1e308, reverse_flow\n"
        )
        assert main(["valuemap", ACCOUNT, str(economy)]) == 3
        err = capsys.readouterr().err
        assert "attributed value sum overflows to infinity" in err
        assert "exceed GDP" not in err

    def test_overflowing_reverse_flow_scaling_is_a_computation_error(self, tmp_path, capsys):
        account = self._account(tmp_path, recycled_input=1e-308)
        scenario = tmp_path / "blowup.scenario"
        scenario.write_text(
            "name = blowup\nstep = set_recovery_rate, 0.7\nstep = scale_reverse_flow_value, on\n"
        )
        assert main(["scenario", account, ECONOMY, str(scenario)]) == 3
        assert "step 1: monetary value must be finite" in capsys.readouterr().err

    def test_overflowing_output_sum_after_a_step_is_a_computation_error(self, tmp_path, capsys):
        account = self._account(
            tmp_path, total_input=1.5e308, energetic_input=0.5e308, structural_input=1.0e308,
            recycled_input=0.0, emissions_output=0.9e308, waste_output=0.1e308,
            net_stock_additions=0.5e308,
        )
        scenario = tmp_path / "rebook.scenario"
        scenario.write_text("name = rebook\nstep = replace_energetic_with_stock, 1.0\n")
        assert main(["scenario", account, ECONOMY, str(scenario)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: scenario 'rebook', step 0: mass sum emissions + waste + "
            "net_stock_additions overflows to infinity"
        ]


class TestMetricsCommand:
    def test_markdown_table(self, capsys):
        assert main(["metrics", ACCOUNT, "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        for expected in ("8.7%", "14.1%", "27.3%", "61.5%"):
            assert expected in out

    def test_rounding_zero(self, capsys):
        assert main(["metrics", ACCOUNT, "--round", "0"]) == 0
        out = capsys.readouterr().out
        for expected in ("9%", "14%", "27%", "62%"):
            assert expected in out

    def test_a_tie_rounds_the_digits_machine_format_prints(self, tmp_path, capsys):
        # 23 / 40 is 0.575, but 0.575 * 100.0 is 57.49999999999999
        account = tmp_path / "tie.account"
        account.write_text(
            "year = 2020\ntotal_input = 40\nenergetic_input = 0\nstructural_input = 40\n"
            "recycled_input = 23\nemissions_output = 0\nwaste_output = 40\n"
            "net_stock_additions = 0\n"
        )
        assert main(["metrics", str(account), "--format", "machine"]) == 0
        assert "apparent = 0.575\n" in capsys.readouterr().out
        assert main(["metrics", str(account), "--round", "0"]) == 0
        out = capsys.readouterr().out
        assert "apparent              58%" in out
        assert "57%" not in out

    def test_machine_output_is_bit_exact_across_runs(self, capsys):
        assert main(["metrics", ACCOUNT, "--format", "machine"]) == 0
        first = capsys.readouterr().out
        assert main(["metrics", ACCOUNT, "--format", "machine"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "apparent = 0.08653846153846154" in first

    def test_svg_written_and_well_formed(self, tmp_path, capsys):
        svg_path = tmp_path / "waterfall.svg"
        assert main(["metrics", ACCOUNT, "--svg", str(svg_path)]) == 0
        capsys.readouterr()
        root = ET.fromstring(svg_path.read_text())
        assert root.tag.endswith("svg")

    def test_unwritable_svg_path(self, tmp_path, capsys):
        assert main(["metrics", ACCOUNT, "--svg", str(tmp_path)]) == 4
        assert "cannot write" in capsys.readouterr().err

    def test_invalid_account_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.account"
        bad.write_text(ACCOUNT_PATH.read_text().replace("total_input = 104", "total_input = 100"))
        assert main(["metrics", str(bad)]) == 2

    def test_negative_rounding_rejected(self, capsys):
        assert main(["metrics", ACCOUNT, "--round", "-1"]) == 4
        assert "rounding" in capsys.readouterr().err

    def test_no_footnotes_flag(self, capsys):
        assert main(["metrics", ACCOUNT, "--no-footnotes"]) == 0
        assert "note:" not in capsys.readouterr().out


class TestValuemapCommand:
    def test_reference_pair(self, capsys):
        assert main(["valuemap", ACCOUNT, ECONOMY]) == 0
        out = capsys.readouterr().out
        assert "68.2%" in out
        assert "$11.2T" in out

    def test_no_sector_economy_leaves_87_percent_residual(self, tmp_path, capsys):
        economy = tmp_path / "bare.economy"
        economy.write_text("year = 2020\ngdp = 86\ngfcf_rate = 0.26\ncfc_rate = 0.13\n")
        assert main(["valuemap", ACCOUNT, str(economy)]) == 0
        assert "87.0%" in capsys.readouterr().out

    def test_zero_gdp_is_a_computation_error(self, tmp_path, capsys):
        economy = tmp_path / "zero.economy"
        economy.write_text("year = 2020\ngdp = 0\ngfcf_rate = 0.26\ncfc_rate = 0.13\n")
        assert main(["valuemap", ACCOUNT, str(economy)]) == 3
        assert "undefined" in capsys.readouterr().err

    def test_over_attribution_reports_excess(self, tmp_path, capsys):
        economy = tmp_path / "over.economy"
        economy.write_text(
            "year = 2020\ngdp = 10\ngfcf_rate = 0.26\ncfc_rate = 0.13\n"
            "sector = huge, 50, dissipative_flow\n"
        )
        assert main(["valuemap", ACCOUNT, str(economy)]) == 3
        assert "exceed" in capsys.readouterr().err

    def test_missing_cfc_rate_warns(self, tmp_path, capsys):
        economy = tmp_path / "nocfc.economy"
        economy.write_text("year = 2020\ngdp = 86\ngfcf_rate = 0.26\n")
        assert main(["valuemap", ACCOUNT, str(economy)]) == 0
        assert "cfc_rate" in capsys.readouterr().err

    def test_depletion_warning_printed_once(self, tmp_path, capsys):
        economy = tmp_path / "depleting.economy"
        economy.write_text("year = 2020\ngdp = 86\ngfcf_rate = 0.10\ncfc_rate = 0.13\n")
        assert main(["valuemap", ACCOUNT, str(economy)]) == 0
        err = capsys.readouterr().err
        assert err.count("negative") == 1

    def test_year_mismatch_warns(self, tmp_path, capsys):
        economy = tmp_path / "late.economy"
        economy.write_text("year = 2021\ngdp = 86\ngfcf_rate = 0.26\ncfc_rate = 0.13\n")
        assert main(["valuemap", ACCOUNT, str(economy)]) == 0
        assert "differs" in capsys.readouterr().err

    def test_svg_written(self, tmp_path, capsys):
        svg_path = tmp_path / "bar.svg"
        assert main(["valuemap", ACCOUNT, ECONOMY, "--svg", str(svg_path)]) == 0
        capsys.readouterr()
        ET.fromstring(svg_path.read_text())


class TestScenarioCommand:
    def test_full_recovery_comparison(self, capsys):
        assert main(["scenario", ACCOUNT, ECONOMY, FULL_RECOVERY]) == 0
        out = capsys.readouterr().out
        assert "27.3%" in out and "100.0%" in out
        assert "1.4%" in out and "5.1%" in out

    def test_waste_diversion_scenario_runs(self, capsys):
        assert main(["scenario", ACCOUNT, ECONOMY, WASTE_DIVERSION]) == 0
        out = capsys.readouterr().out
        assert "waste_diversion" in out

    def test_a_note_on_a_seventh_digit_tie_rounds_half_away(self, tmp_path, capsys):
        account = tmp_path / "tie.account"
        account.write_text(
            "year = 2020\ntotal_input = 1234629\nenergetic_input = 1234565\n"
            "structural_input = 64\nrecycled_input = 9\nemissions_output = 1234570\n"
            "waste_output = 25\nnet_stock_additions = 31\n"
        )
        scenario = tmp_path / "tie.scenario"
        scenario.write_text("name = tie\nstep = replace_energetic_with_stock, 1.0\n")
        assert main(["scenario", str(account), ECONOMY, str(scenario)]) == 0
        out = capsys.readouterr().out
        assert "  - 1.23457e+06 Gt of energetic input rebooked" in out
        assert "scenario rebooked -1.23457e+06 Gt across" in out

    def test_empty_scenario_has_zero_deltas(self, tmp_path, capsys):
        empty = tmp_path / "empty.scenario"
        empty.write_text("name = empty\n")
        assert main(["scenario", ACCOUNT, ECONOMY, str(empty)]) == 0
        out = capsys.readouterr().out
        assert "+0.0 pp" in out
        assert "+23.1 pp" not in out

    def test_out_of_range_fraction_rejected_at_parse(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text("name = bad\nstep = set_recovery_rate, 1.5\n")
        assert main(["scenario", ACCOUNT, ECONOMY, str(bad)]) == 4
        assert "[0, 1]" in capsys.readouterr().err

    def test_step_failure_names_scenario_and_index(self, tmp_path, capsys):
        account = tmp_path / "lowwaste.account"
        account.write_text(
            ACCOUNT_PATH.read_text()
            .replace("waste_output = 25", "waste_output = 5")
            .replace("emissions_output = 45", "emissions_output = 65")
        )
        assert main(["scenario", str(account), ECONOMY, FULL_RECOVERY]) == 3
        err = capsys.readouterr().err
        assert "full_recovery" in err and "step 0" in err

    def test_a_divert_that_shrinks_the_pool_below_recycled_names_its_step(self, capsys):
        scenario = str(REPO_ROOT / "tests" / "data" / "divert_after_recovery.scenario")
        assert main(["scenario", ACCOUNT, ECONOMY, scenario]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: scenario 'divert_after_recovery', step 1: diverting 0.5 Gt would shrink the "
            "annually recoverable pool to 32.5 Gt, below recycled_input (33 Gt)\n"
        )

    def test_year_mismatch_warns(self, tmp_path, capsys):
        economy = tmp_path / "early.economy"
        economy.write_text(ECONOMY_PATH.read_text().replace("year = 2020", "year = 2019"))
        assert main(["scenario", ACCOUNT, str(economy), FULL_RECOVERY]) == 0
        assert (
            "warning: account year 2020 differs from economy year 2019\n"
            in capsys.readouterr().err
        )

    def test_machine_format(self, capsys):
        assert main(["scenario", ACCOUNT, ECONOMY, FULL_RECOVERY, "--format", "machine"]) == 0
        out = capsys.readouterr().out
        assert "after_real_rate = 1.0" in out
        assert "baseline_waste_gdp_share = 0.0" in out and "after_waste_gdp_share = 0.0" in out


class TestFaultOrder:
    """Which fault a report subcommand names when its inputs hold several."""

    DIVERT_ALL = "name = divert\nstep = divert_waste_to_stock, 1.0\n"

    @staticmethod
    def _write(tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def _overrecycled(self, tmp_path, recycled):
        # the divert step alone fails too: it would push stock additions past structural input
        return self._write(
            tmp_path,
            "overrecycled.account",
            "year = 2020\ntotal_input = 104\nenergetic_input = 40\nstructural_input = 64\n"
            f"recycled_input = {recycled}\nemissions_output = 15\nwaste_output = 55\n"
            "net_stock_additions = 31\n",
        )

    def _failing_account(self, tmp_path):
        text = ACCOUNT_PATH.read_text().replace("total_input = 104", "total_input = 100")
        return self._write(tmp_path, "failing.account", text)

    def test_a_baseline_metric_error_outranks_a_step_error(self, tmp_path, capsys):
        account = self._overrecycled(tmp_path, 40)
        scenario = self._write(tmp_path, "divert.scenario", self.DIVERT_ALL)
        assert main(["scenario", account, ECONOMY, scenario]) == 3
        assert capsys.readouterr().err == (
            "error: real_rate = 1.21212 is outside [0, 1]: recycled_input (40 Gt) exceeds "
            "the annually recoverable pool (33 Gt)\n"
        )

    def test_a_baseline_attribution_error_outranks_a_step_error(self, tmp_path, capsys):
        account = self._overrecycled(tmp_path, 9)
        economy = self._write(
            tmp_path,
            "huge.economy",
            "year = 2020\ngdp = 10\ngfcf_rate = 0.26\ncfc_rate = 0.13\n"
            "sector = huge, 50, dissipative_flow\n",
        )
        scenario = self._write(tmp_path, "divert.scenario", self.DIVERT_ALL)
        assert main(["scenario", account, economy, scenario]) == 3
        err = capsys.readouterr().err
        assert "attributed values exceed GDP by 41.3 trillion" in err and "step 0" not in err

    def test_a_failing_account_outranks_a_bad_rounding(self, tmp_path, capsys):
        assert main(["metrics", self._failing_account(tmp_path), "--round", "401"]) == 2
        assert "account fails validation" in capsys.readouterr().err

    def test_an_unreadable_economy_outranks_a_failing_account(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.economy")
        assert main(["valuemap", self._failing_account(tmp_path), missing]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {missing!r}") and "validation" not in err

    def test_a_failing_account_prints_no_year_warning(self, tmp_path, capsys):
        text = ECONOMY_PATH.read_text().replace("year = 2020", "year = 2019")
        economy = self._write(tmp_path, "early.economy", text)
        assert main(["valuemap", self._failing_account(tmp_path), economy]) == 2
        err = capsys.readouterr().err
        assert "account fails validation" in err and "warning:" not in err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["metrics", ACCOUNT, "--round", "abc"],
            ["metrics", ACCOUNT, "--format", "xml"],
            ["valuemap", ACCOUNT],
            ["frobnicate", ACCOUNT],
        ],
        ids=["round_abc", "format_xml", "missing_positional", "unknown_subcommand"],
    )
    def test_malformed_command_line_exits_4_with_usage(self, argv, capsys):
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("usage: circuflow") and "error: " in err

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: circuflow")


@pytest.mark.parametrize(
    "argv",
    [
        ["metrics", ACCOUNT],
        ["valuemap", ACCOUNT, ECONOMY],
        ["scenario", ACCOUNT, ECONOMY, FULL_RECOVERY],
        ["scenario", ACCOUNT, ECONOMY, WASTE_DIVERSION],
    ],
    ids=["metrics", "valuemap", "scenario_full_recovery", "scenario_waste_diversion"],
)
def test_machine_keys_are_unique(argv, capsys):
    assert main(argv + ["--format", "machine"]) == 0
    keys = [line.split(" = ", 1)[0] for line in capsys.readouterr().out.splitlines()]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize(
    "argv", [["metrics", ACCOUNT], ["valuemap", ACCOUNT, ECONOMY]], ids=["metrics", "valuemap"]
)
def test_a_failed_chart_write_prints_no_report(argv, tmp_path, capsys):
    # the report reaches stdout only once its chart is written
    chart = tmp_path / "missing" / "chart.svg"
    assert main([*argv, "--svg", str(chart)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot write {str(chart)!r}: No such file or directory\n"


@pytest.mark.parametrize(
    "argv", [["metrics", ACCOUNT], ["valuemap", ACCOUNT, ECONOMY]], ids=["metrics", "valuemap"]
)
def test_an_empty_chart_path_is_unwritable(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--svg", ""]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: cannot write '': No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def _console_script_target() -> tuple[str, str]:
    """The ``(module, function)`` that ``[project.scripts]`` installs as ``circuflow``.

    Read line by line: ``tomllib`` is not in Python 3.10.
    """
    section = None
    for line in (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            key, target = (part.strip() for part in line.split("=", 1))
            if key == "circuflow":
                module, function = target.strip("\"'").split(":")
                return module, function
    raise AssertionError("pyproject.toml installs no circuflow script")


def test_the_console_script_target_runs_validate():
    # what the installed ``circuflow`` script runs, in a fresh interpreter
    module, function = _console_script_target()
    code = f"import sys; sys.argv[0] = 'circuflow'; from {module} import {function}; {function}()"
    proc = subprocess.run(
        [sys.executable, "-c", code, "validate", ACCOUNT],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "validation: pass-with-warning"
