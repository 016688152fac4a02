"""Unit tests for the scenario engine.

Order-sensitivity cases are pinned against step-by-step hand computation
(each step's arithmetic worked out from raw fields in the comments).
"""

import pytest

from circuflow import (
    DivertWasteToStock,
    ReplaceEnergeticWithStock,
    ScaleReverseFlowValue,
    Scenario,
    ScenarioError,
    SetRecoveryRate,
    apply_scenario,
    scenarios,
)
from circuflow.record import float_dust
from support import reference_account


class TestTransformationRecords:
    @pytest.mark.parametrize("cls", [SetRecoveryRate, DivertWasteToStock, ReplaceEnergeticWithStock])
    def test_fraction_must_be_in_unit_interval(self, cls):
        with pytest.raises(ValueError, match="fraction"):
            cls(fraction=1.5)

    def test_scenario_name_required(self):
        with pytest.raises(ValueError, match="name"):
            Scenario(name="", steps=())

    @pytest.mark.parametrize("name", ["x # y", " pad ", "a\u2028b", "two\nlines", "tab\t"])
    def test_names_a_document_would_change_are_rejected(self, name):
        with pytest.raises(ValueError, match="name"):
            Scenario(name=name, steps=())

    @pytest.mark.parametrize("name", ["sweep 12", "batch case 7", "a, b = c"])
    def test_ordinary_names_accepted(self, name):
        assert Scenario(name=name).name == name

    @pytest.mark.parametrize("step", ["set_recovery_rate", 1.0, ("set_recovery_rate", 1.0)])
    def test_steps_must_be_transformations(self, step):
        with pytest.raises(ValueError, match="scenario step must be one of"):
            Scenario("x", (SetRecoveryRate(1.0), step))

    @pytest.mark.parametrize("enabled", ["no", 1, None])
    def test_scaling_flag_must_be_a_bool(self, enabled):
        with pytest.raises(ValueError, match="enabled must be a bool"):
            ScaleReverseFlowValue(enabled=enabled)


class TestFullRecovery:
    def test_reference_pair(self, account, economy):
        scenario = Scenario(
            "full_recovery", (SetRecoveryRate(1.0), ScaleReverseFlowValue(enabled=True))
        )
        result = apply_scenario(account, economy, scenario)
        # recycled becomes the whole 33 Gt pool; the 24 Gt increase drains the waste bin
        assert float(result.account.recycled_input) == pytest.approx(33.0, abs=1e-9)
        assert float(result.account.waste_output) == pytest.approx(1.0, abs=1e-9)
        assert result.report.real_rate == pytest.approx(1.0, abs=1e-12)
        # reverse-flow value scales by 33/9: 1.2 -> 4.4, share (33/9) * 1.2 / 86
        assert result.attribution.reverse_flow_share == pytest.approx(0.0512, abs=5e-5)
        assert result.attribution.reverse_flow_share < 0.06

    def test_empty_scenario_is_identity(self, account, economy):
        result = apply_scenario(account, economy, Scenario("empty", ()))
        assert result.account == account
        assert result.economy == economy
        assert result.notes == ()

    def test_baseline_rate_round_trips(self, account, economy):
        # setting the recovery rate to its current value (9/33) changes nothing
        result = apply_scenario(account, economy, Scenario("noop", (SetRecoveryRate(9.0 / 33.0),)))
        for field in (
            "total_input",
            "energetic_input",
            "structural_input",
            "recycled_input",
            "emissions_output",
            "waste_output",
            "net_stock_additions",
        ):
            assert float(getattr(result.account, field)) == pytest.approx(
                float(getattr(account, field)), abs=1e-9
            )


class TestOrderSensitivity:
    def test_divert_then_recover(self, account, economy):
        # divert 0.2: waste 25 -> 20, stock 31 -> 36
        # recover 0.5: pool = 64 - 36 = 28, recycled 9 -> 14, waste 20 -> 15
        scenario = Scenario("a", (DivertWasteToStock(0.2), SetRecoveryRate(0.5)))
        result = apply_scenario(account, economy, scenario)
        assert float(result.account.net_stock_additions) == pytest.approx(36.0, abs=1e-9)
        assert float(result.account.recycled_input) == pytest.approx(14.0, abs=1e-9)
        assert float(result.account.waste_output) == pytest.approx(15.0, abs=1e-9)
        assert result.report.real_rate == pytest.approx(14.0 / 28.0, rel=1e-12)

    def test_recover_then_divert(self, account, economy):
        # recover 0.5: pool = 33, recycled 9 -> 16.5, waste 25 -> 17.5
        # divert 0.2: waste 17.5 -> 14, stock 31 -> 34.5
        scenario = Scenario("b", (SetRecoveryRate(0.5), DivertWasteToStock(0.2)))
        result = apply_scenario(account, economy, scenario)
        assert float(result.account.recycled_input) == pytest.approx(16.5, abs=1e-9)
        assert float(result.account.waste_output) == pytest.approx(14.0, abs=1e-9)
        assert float(result.account.net_stock_additions) == pytest.approx(34.5, abs=1e-9)
        assert result.report.real_rate == pytest.approx(16.5 / 29.5, rel=1e-12)

    def test_orders_differ(self, account, economy):
        first = apply_scenario(
            account, economy, Scenario("a", (DivertWasteToStock(0.2), SetRecoveryRate(0.5)))
        )
        second = apply_scenario(
            account, economy, Scenario("b", (SetRecoveryRate(0.5), DivertWasteToStock(0.2)))
        )
        assert first.account != second.account


class TestReplaceEnergeticWithStock:
    def test_moves_mass_into_both_bins(self, account, economy):
        # move 25% of 40 Gt: energetic 40 -> 30, structural 64 -> 74, stock 31 -> 41
        scenario = Scenario("renewables", (ReplaceEnergeticWithStock(0.25),))
        result = apply_scenario(account, economy, scenario)
        assert float(result.account.energetic_input) == pytest.approx(30.0, abs=1e-9)
        assert float(result.account.structural_input) == pytest.approx(74.0, abs=1e-9)
        assert float(result.account.net_stock_additions) == pytest.approx(41.0, abs=1e-9)
        # emissions stay untouched, and the result says so
        assert float(result.account.emissions_output) == 45.0
        assert any("emissions_output left unchanged" in note for note in result.notes)

    def test_total_input_never_changes(self, account, economy):
        scenario = Scenario("renewables", (ReplaceEnergeticWithStock(1.0),))
        result = apply_scenario(account, economy, scenario)
        assert float(result.account.total_input) == 104.0


class TestStepErrors:
    def test_recovery_increase_beyond_waste_aborts_with_index(self, economy):
        # pool is still 33 but only 5 Gt of waste can fund the 24 Gt increase
        account_low_waste = reference_account(waste_output=5.0, emissions_output=65.0)
        with pytest.raises(ScenarioError) as info:
            apply_scenario(
                account_low_waste, economy, Scenario("x", (SetRecoveryRate(1.0),))
            )
        assert info.value.step_index == 0
        assert "waste bin" in str(info.value)

    def test_divert_beyond_structural_aborts(self, economy):
        account = reference_account(net_stock_additions=60.0, waste_output=25.0, emissions_output=16.0)
        with pytest.raises(ScenarioError) as info:
            apply_scenario(account, economy, Scenario("x", (DivertWasteToStock(1.0),)))
        assert info.value.step_index == 0

    def test_scaling_requires_baseline_reverse_flow(self, economy):
        account = reference_account(recycled_input=0.0)
        with pytest.raises(ScenarioError, match="nonzero baseline reverse flow"):
            apply_scenario(account, economy, Scenario("x", (ScaleReverseFlowValue(True),)))

    def test_disabled_scaling_is_a_no_op_without_reverse_flow(self, economy):
        account = reference_account(recycled_input=0.0)
        result = apply_scenario(account, economy, Scenario("x", (ScaleReverseFlowValue(False),)))
        assert result.account == account
        assert result.economy == economy

    def test_step_result_no_record_accepts_names_the_step(self, economy):
        # 0.7 of the 33 Gt pool over a 1e-308 baseline scales sector value to inf
        account = reference_account(recycled_input=1e-308)
        scenario = Scenario("x", (SetRecoveryRate(0.7), ScaleReverseFlowValue(True)))
        with pytest.raises(ScenarioError, match="monetary value must be finite") as info:
            apply_scenario(account, economy, scenario)
        assert info.value.step_index == 1

    def test_invalid_baseline_aborts(self, economy):
        account = reference_account(total_input=100.0)  # category sum broken
        with pytest.raises(ScenarioError, match="baseline"):
            apply_scenario(account, economy, Scenario("x", ()))


class TestSaturationIdempotence:
    def test_twice_equals_once(self, account, economy):
        once = apply_scenario(account, economy, Scenario("s", (SetRecoveryRate(1.0),)))
        twice = apply_scenario(
            account, economy, Scenario("s", (SetRecoveryRate(1.0), SetRecoveryRate(1.0)))
        )
        assert once.account == twice.account


class TestScaleSemantics:
    def test_off_restores_original_values(self, account, economy):
        scenario = Scenario(
            "s",
            (
                SetRecoveryRate(1.0),
                ScaleReverseFlowValue(enabled=True),
                ScaleReverseFlowValue(enabled=False),
            ),
        )
        result = apply_scenario(account, economy, scenario)
        assert result.economy == economy

    def test_scaling_is_not_compounded(self, account, economy):
        once = apply_scenario(
            account, economy, Scenario("s", (SetRecoveryRate(1.0), ScaleReverseFlowValue(True)))
        )
        twice = apply_scenario(
            account,
            economy,
            Scenario(
                "s",
                (SetRecoveryRate(1.0), ScaleReverseFlowValue(True), ScaleReverseFlowValue(True)),
            ),
        )
        assert once.economy == twice.economy


def _leak_from_divert(monkeypatch, leak: float) -> None:
    """Make every divert step take ``leak`` Gt more out of the waste bin than it declares."""
    divert = scenarios._MOVES[DivertWasteToStock]

    def leaking_divert(current, fraction):
        amount, source, sink, values = divert(current, fraction)
        values["waste_output"] -= leak
        return amount, source, sink, values

    monkeypatch.setitem(scenarios._MOVES, DivertWasteToStock, leaking_divert)


class TestConservationPerStep:
    def test_a_leaking_move_is_named_by_its_step(self, account, economy, monkeypatch):
        _leak_from_divert(monkeypatch, 1.0)
        scenario = Scenario(
            "leak", (SetRecoveryRate(0.5), DivertWasteToStock(0.2), SetRecoveryRate(0.5))
        )
        with pytest.raises(ScenarioError, match="mass not conserved") as info:
            apply_scenario(account, economy, scenario)
        assert info.value.step_index == 1
        assert "step 1" in str(info.value)

    @pytest.mark.parametrize("dusts, forgiven", [(0.5, True), (2.0, False)], ids=["half", "twice"])
    def test_a_leak_is_judged_against_float_dust(
        self, account, economy, monkeypatch, dusts, forgiven
    ):
        _leak_from_divert(monkeypatch, dusts * float_dust(account.total_input))
        scenario = Scenario("dust", (DivertWasteToStock(0.2),))
        if forgiven:
            apply_scenario(account, economy, scenario)
        else:
            with pytest.raises(ScenarioError, match="mass not conserved") as info:
                apply_scenario(account, economy, scenario)
            assert info.value.step_index == 0
