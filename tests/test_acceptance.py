"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion NN] PASS ...` line once its assertions
hold; run `pytest tests/test_acceptance.py -v -s` to see them.  All
reference inputs load from the shipped dataset files, so this module is
the desk-scale reproduction of the analysis end to end.
"""

import math
import random
import time

import pytest

from circuflow import (
    Scenario,
    SetRecoveryRate,
    ValidationStatus,
    apparent_circularity,
    apply_scenario,
    attribute_value,
    dissipative_adjusted_circularity,
    metric_suite,
    nfcf_rate,
    potential_ceiling,
    real_circularity,
    stock_addition_value,
    validate,
    waste_share,
)
from circuflow.accounts import round_half_away
from circuflow.cli import main as cli_main
from circuflow.documents import parse_account, parse_economy, parse_scenario
from circuflow.render import format_money
from support import (
    ACCOUNT_PATH,
    ECONOMY_PATH,
    FULL_RECOVERY_PATH,
    random_economy,
    random_valid_account,
    scale_account,
    scale_economy,
)

PP = 5e-4  # +-0.05 percentage points, as a fraction


@pytest.fixture(scope="module")
def account():
    return parse_account(ACCOUNT_PATH.read_text())


@pytest.fixture(scope="module")
def economy():
    return parse_economy(ECONOMY_PATH.read_text())


def _ok(number: int, text: str) -> None:
    print(f"[criterion {number:>2}] PASS  {text}")


def test_criterion_01_apparent_circularity(account):
    value = apparent_circularity(account)
    assert value == pytest.approx(0.0865, abs=PP)
    loops = 1000
    start = time.perf_counter()
    for _ in range(loops):
        apparent_circularity(account)
    per_call = (time.perf_counter() - start) / loops
    assert per_call < 1e-3
    _ok(1, f"apparent circularity {value:.2%} (target 8.65% +-0.05pp), {per_call * 1e6:.1f} us/call")


def test_criterion_02_dissipative_adjusted(account):
    value = dissipative_adjusted_circularity(account)
    assert value == pytest.approx(0.1406, abs=PP)
    _ok(2, f"dissipative-adjusted {value:.2%} (target 14.06% +-0.05pp)")


def test_criterion_03_real_circularity(account):
    value = real_circularity(account)
    assert value == pytest.approx(0.2727, abs=PP)
    _ok(3, f"real circularity {value:.2%} (target 27.27% +-0.05pp)")


def test_criterion_04_potential_ceiling(account):
    value = potential_ceiling(account)
    assert value == pytest.approx(0.6154, abs=PP)
    _ok(4, f"potential ceiling {value:.2%} (target 61.54% +-0.05pp)")


def test_criterion_05_nfcf_rate(economy):
    assert economy.gfcf_rate == 0.26 and economy.cfc_rate == 0.13
    assert nfcf_rate(economy) == 0.13  # exact
    _ok(5, "NFCF rate 26% - 13% = 13%, exact")


def test_criterion_06_stock_addition_value(economy):
    value = float(stock_addition_value(economy))
    assert value == pytest.approx(11.18, abs=0.01)
    assert format_money(value, 0) == "$11T"
    _ok(6, f"stock-addition value ${value:.2f}T (target $11.18T +-$0.01T), prints $11T at round 0")


def test_criterion_07_reverse_and_combined_shares(economy):
    reverse = economy.sector_total("reverse_flow") / float(economy.gdp)
    combined = (
        economy.sector_total("reverse_flow") + economy.sector_total("dissipative_flow")
    ) / float(economy.gdp)
    assert reverse == pytest.approx(0.0140, abs=PP)
    assert combined == pytest.approx(0.1884, abs=PP)
    _ok(7, f"reverse-flow share {reverse:.2%} (1.40%), combined {combined:.2%} (18.84%)")


def test_criterion_08_legacy_stock_residual(economy):
    attribution = attribute_value(economy)
    legacy = float(attribution.legacy_stock_value)
    assert legacy == pytest.approx(58.62, abs=0.01)
    assert attribution.legacy_stock_share == pytest.approx(0.6816, abs=PP)
    total = sum(attribution.values_by_category().values())
    assert abs(total - float(economy.gdp)) <= 1e-9
    _ok(8, f"legacy residual ${legacy:.2f}T / {attribution.legacy_stock_share:.2%}; five-way sum == GDP within 1e-9")


def test_criterion_09_full_recovery_scenario(account, economy):
    scenario = parse_scenario(FULL_RECOVERY_PATH.read_text())
    result = apply_scenario(account, economy, scenario)
    assert result.report.real_rate == pytest.approx(1.0, abs=PP)
    assert result.attribution.reverse_flow_share == pytest.approx(0.0512, abs=PP)
    assert result.attribution.reverse_flow_share < 0.06
    _ok(
        9,
        f"full recovery: real {result.report.real_rate:.1%}, reverse-flow share "
        f"{result.attribution.reverse_flow_share:.2%} < 6%",
    )


def test_criterion_10_waste_share(account):
    value = waste_share(account)
    assert value == pytest.approx(0.2404, abs=PP)
    assert value > 0.23
    _ok(10, f"waste share {value:.2%} (target 24.04% +-0.05pp), above 23%")


def test_criterion_11_balance_residual_and_tolerance(account, monkeypatch, capsys):
    outcome = validate(account)
    assert outcome.status is ValidationStatus.PASS_WITH_WARNING
    assert outcome.residual == pytest.approx(3.0, abs=1e-9)
    assert round_half_away(outcome.residual_share * 100.0, 2) == 2.88
    strict = validate(account.replace(balance_tolerance=0.02))
    assert strict.status is ValidationStatus.FAIL
    # same behaviour through the CLI's env override
    monkeypatch.setenv("CIRCUFLOW_TOLERANCE", "0.02")
    assert cli_main(["validate", str(ACCOUNT_PATH)]) == 2
    monkeypatch.delenv("CIRCUFLOW_TOLERANCE")
    capsys.readouterr()
    _ok(11, "residual 3 Gt (2.88%): passes at 5% tolerance, fails at 2% (library and CLI)")


def test_criterion_12_property_suite():
    start = time.perf_counter()
    n = 1000

    rng = random.Random(1201)
    for _ in range(n):  # monotone metric chain vs fresh quotients
        account = random_valid_account(rng)
        total = float(account.total_input)
        energetic = float(account.energetic_input)
        stock = float(account.net_stock_additions)
        recycled = float(account.recycled_input)
        oracle = (
            recycled / total,
            recycled / (total - energetic),
            recycled / (total - energetic - stock),
        )
        report = metric_suite(account)
        assert report.apparent == pytest.approx(oracle[0], rel=1e-12)
        assert report.dissipative_adjusted == pytest.approx(oracle[1], rel=1e-12)
        assert report.real_rate == pytest.approx(oracle[2], rel=1e-12)
        assert oracle[0] <= oracle[1] <= oracle[2]

    rng = random.Random(1202)
    for _ in range(n):  # mass and currency scale invariance
        account = random_valid_account(rng)
        economy = random_economy(rng)
        factor = rng.uniform(1e-3, 1e3)
        scaled_report = metric_suite(scale_account(account, factor))
        for key, rate in metric_suite(account).rates().items():
            assert scaled_report.rates()[key] == pytest.approx(rate, rel=1e-12)
        base_shares = attribute_value(economy).shares_by_category()
        scaled_shares = attribute_value(scale_economy(economy, factor)).shares_by_category()
        for key, share in base_shares.items():
            assert scaled_shares[key] == pytest.approx(share, rel=1e-9, abs=1e-12)

    rng = random.Random(1203)
    empty = Scenario("empty", ())
    for _ in range(n):  # empty-scenario identity
        account = random_valid_account(rng)
        economy = random_economy(rng)
        result = apply_scenario(account, economy, empty)
        assert result.account == account and result.economy == economy

    rng = random.Random(1204)
    once_s = Scenario("once", (SetRecoveryRate(1.0),))
    twice_s = Scenario("twice", (SetRecoveryRate(1.0), SetRecoveryRate(1.0)))
    for _ in range(n):  # saturation idempotence
        account = random_valid_account(rng)
        economy = random_economy(rng)
        assert (
            apply_scenario(account, economy, once_s).account
            == apply_scenario(account, economy, twice_s).account
        )

    rng = random.Random(1205)
    for _ in range(n):  # attribution sums to GDP (independent summation)
        economy = random_economy(rng)
        attribution = attribute_value(economy)
        total = math.fsum(attribution.values_by_category().values())
        assert abs(total - float(economy.gdp)) <= 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _ok(12, f"5 properties x {n} randomized inputs, zero violations, {elapsed:.2f}s < 10s")
