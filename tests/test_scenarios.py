"""Unit tests for the scenario engine.

Order-sensitivity cases are pinned against step-by-step hand computation
(each step's arithmetic worked out from raw fields in the comments).
"""

import pytest

from circuflow import (
    DivertWasteToStock,
    EconomicAccount,
    MaterialFlowAccount,
    ReplaceEnergeticWithStock,
    ScaleReverseFlowValue,
    Scenario,
    ScenarioError,
    SectorValue,
    SetRecoveryRate,
    ValidationStatus,
    apply_scenario,
    real_circularity,
    scenarios,
    validate,
)
from circuflow.record import float_dust
from support import reference_account, reference_economy


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


def _skew_move(monkeypatch, cls, skew: dict, declared: float = 0.0) -> None:
    """Make every ``cls`` move add ``skew`` to the bins after it and ``declared`` to its amount."""
    move, sign = scenarios._MOVES[cls]

    def skewed_move(bins, step):
        amount = move(bins, step)
        for name, change in skew.items():
            setattr(bins, name, getattr(bins, name) + change)
        return amount + declared

    monkeypatch.setitem(scenarios._MOVES, cls, (skewed_move, sign))


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

    def test_divert_after_full_recovery_names_its_step(self, economy):
        # recovery makes recycled_input the whole 33 Gt pool and leaves 1 Gt of waste;
        # diverting half of it shrinks the pool to 32.5 Gt
        scenario = Scenario("repro", (SetRecoveryRate(1.0), DivertWasteToStock(0.5)))
        with pytest.raises(ScenarioError) as info:
            apply_scenario(reference_account(), economy, scenario)
        assert info.value.step_index == 1
        assert str(info.value) == (
            "scenario 'repro', step 1: diverting 0.5 Gt would shrink the annually recoverable "
            "pool to 32.5 Gt, below recycled_input (33 Gt)"
        )
        # a divert within float dust of the pool leaves a real rate that reports as 1
        dust_fraction = 0.5 * float_dust(104.0)  # of the 1 Gt of waste
        scenario = Scenario("dust", (SetRecoveryRate(1.0), DivertWasteToStock(dust_fraction)))
        assert apply_scenario(reference_account(), economy, scenario).report.real_rate == 1.0

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

    @pytest.mark.parametrize(
        "account, economy, first_step, message",
        [
            (
                # 16.5 / 9 of two 0.6e308 sectors: each value fits, their sum does not
                MaterialFlowAccount(2020, 104, 40, 64, 9, 30, 39, 31),
                reference_economy(
                    sectors=(
                        SectorValue("a", 0.6e308, "reverse_flow"),
                        SectorValue("b", 0.6e308, "reverse_flow"),
                    )
                ),
                SetRecoveryRate(0.5),
                "sector value sum overflows to infinity",
            ),
            (
                # 23.1 Gt over a 1e-308 Gt baseline scales the sector value to inf
                reference_account(recycled_input=1e-308),
                reference_economy(),
                SetRecoveryRate(0.7),
                "monetary value must be finite, got inf",
            ),
        ],
        ids=["sector_sum", "sector_value"],
    )
    def test_scaling_errors_name_their_step_though_later_steps_undo_it(
        self, account, economy, first_step, message
    ):
        # Recovery back to zero and scaling off would leave a valid economy to build.
        steps = (
            first_step,
            ScaleReverseFlowValue(True),
            SetRecoveryRate(0.0),
            ScaleReverseFlowValue(False),
        )
        with pytest.raises(ScenarioError) as info:
            apply_scenario(account, economy, Scenario("x", steps))
        assert info.value.step_index == 1
        assert str(info.value).endswith(message)

    def test_invalid_baseline_aborts(self, economy):
        account = reference_account(total_input=100.0)  # category sum broken
        with pytest.raises(ScenarioError, match="baseline"):
            apply_scenario(account, economy, Scenario("x", ()))

    def test_output_sum_overflow_is_caught_by_the_record_rebuild(self, economy):
        # rebooking all 0.5e308 Gt of energetic input lifts stock additions to 1e308,
        # so the three output bins sum past the largest float
        account = MaterialFlowAccount(
            2020, 1.5e308, 0.5e308, 1.0e308, 0.0, 0.9e308, 0.1e308, 0.5e308
        )
        assert validate(account).status is ValidationStatus.PASS
        with pytest.raises(ScenarioError) as info:
            apply_scenario(account, economy, Scenario("x", (ReplaceEnergeticWithStock(1.0),)))
        assert info.value.step_index == 0
        assert str(info.value).endswith(
            "mass sum emissions + waste + net_stock_additions overflows to infinity"
        )

    @pytest.mark.parametrize(
        "account, step, recycled",
        [
            # structural sits 5e-8 above total - energetic: the pool is 104 - 40 - 31
            (
                MaterialFlowAccount(2020, 104, 40, 64 + 5e-8, 9, 45, 25, 31),
                SetRecoveryRate(1.0),
                33.0,
            ),
            # structural sits 5e-8 below total - energetic, so the pool of 64 exceeds it
            (
                MaterialFlowAccount(2020, 104, 40, 64 - 5e-8, 0, 40, 64, 0.0),
                SetRecoveryRate(1.0),
                64.0,
            ),
            # a gap just under float dust, which the rebook's rounding would push over
            (
                MaterialFlowAccount(
                    2020,
                    296.43685292580875,
                    47.61014733243108,
                    248.82670529694082,
                    0.0,
                    249.0742599395342,
                    24.88267052969408,
                    22.479922456580493,
                ),
                ReplaceEnergeticWithStock(0.7446149536820029),
                0.0,
            ),
        ],
        ids=["pool_below_structural", "pool_above_structural", "gap_just_under_dust"],
    )
    def test_a_dust_level_baseline_gap_is_judged_net(self, economy, account, step, recycled):
        assert validate(account).ok
        result = apply_scenario(account, economy, Scenario("x", (step,)))
        assert result.account.recycled_input == recycled
        if type(step) is SetRecoveryRate:
            assert real_circularity(result.account) == 1.0

    def test_a_negative_pool_fails_the_recovery_step(self, economy):
        # stock additions fill structural input, which sits 5e-8 above total - energetic
        account = MaterialFlowAccount(2020, 104, 40, 64 + 5e-8, 0, 40, 0, 64 + 5e-8)
        assert validate(account).ok
        with pytest.raises(ScenarioError, match="recycled_input must be non-negative") as info:
            apply_scenario(account, economy, Scenario("x", (SetRecoveryRate(1.0),)))
        assert info.value.step_index == 0

    def test_a_step_error_names_the_bin_where_a_record_says_mass(self, economy):
        account = MaterialFlowAccount(2020, 104, 40, 64 + 5e-8, 0, 40, 0, 64 + 5e-8)
        with pytest.raises(ScenarioError) as info:
            apply_scenario(account, economy, Scenario("x", (SetRecoveryRate(1.0),)))
        assert str(info.value) == (
            "scenario 'x', step 0: recycled_input must be non-negative, got -4.999999703159119e-08"
        )
        with pytest.raises(ValueError, match=r"^mass must be non-negative, got -4\.99"):
            account.replace(recycled_input=-4.999999703159119e-08)

    @pytest.mark.parametrize(
        "skew, declared, account, step, message",
        [
            (
                {"structural_input": -2e-7},
                0.0,
                reference_account(),
                ReplaceEnergeticWithStock(0.5),
                "energetic_input + structural_input moved -2e-07 Gt off total_input",
            ),
            (
                {"recycled_input": 2e-7, "waste_output": -2e-7},
                2e-7,
                reference_account(net_stock_additions=0.0, waste_output=56.0),
                SetRecoveryRate(1.0),
                "recycled_input exceeds structural_input by 2e-07 Gt",
            ),
        ],
        ids=["category_sum", "recycled_within_structural"],
    )
    def test_final_recheck_judges_what_the_steps_changed(
        self, economy, monkeypatch, skew, declared, account, step, message
    ):
        # 2e-7 Gt is about twice float dust (1.04e-7 Gt); each skewed move conserves the residual.
        _skew_move(monkeypatch, type(step), skew, declared)
        with pytest.raises(ScenarioError) as info:
            apply_scenario(account, economy, Scenario("x", (step,)))
        assert info.value.step_index is None
        assert str(info.value).endswith(f"transformed account is inconsistent: {message}")


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

    def test_off_returns_the_baseline_economy_itself(self, account, economy):
        scenario = Scenario(
            "s", (SetRecoveryRate(1.0), ScaleReverseFlowValue(True), ScaleReverseFlowValue(False))
        )
        assert apply_scenario(account, economy, scenario).economy is economy

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


def _count_inits(monkeypatch, cls, built: dict) -> None:
    """Count in ``built[cls]`` every ``cls`` record constructed from now on."""
    init = cls.__init__

    def counting_init(self, *args, **kwargs):
        built[cls] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting_init)


class TestRecordsBuiltOnce:
    def test_a_long_chain_builds_one_account_and_one_economy(self, account, economy, monkeypatch):
        built = {MaterialFlowAccount: 0, EconomicAccount: 0}
        for cls in built:
            _count_inits(monkeypatch, cls, built)
        steps = (
            SetRecoveryRate(0.5),
            ScaleReverseFlowValue(True),
            DivertWasteToStock(0.01),
            ReplaceEnergeticWithStock(0.01),
        ) * 16
        result = apply_scenario(account, economy, Scenario("long", steps))
        assert result.economy != economy
        assert built == {MaterialFlowAccount: 1, EconomicAccount: 1}


class TestValidateOnlyOnFailure:
    """``apply_scenario`` reads the verdicts itself; ``validate`` only explains a failure."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counting_validate(account):
            calls.append(account)
            return validate(account)

        monkeypatch.setattr(scenarios, "validate", counting_validate)
        return calls

    def test_a_valid_baseline_and_a_consistent_result_call_it_zero_times(
        self, account, economy, calls
    ):
        steps = (SetRecoveryRate(1.0), ScaleReverseFlowValue(True), ReplaceEnergeticWithStock(0.5))
        apply_scenario(account, economy, Scenario("ok", steps))
        assert calls == []

    def test_a_failing_baseline_calls_it_once(self, economy, calls):
        account = reference_account(balance_tolerance=0.02)
        with pytest.raises(ScenarioError, match="baseline account fails validation"):
            apply_scenario(account, economy, Scenario("x", (SetRecoveryRate(1.0),)))
        assert calls == [account]

    def test_a_failing_final_recheck_calls_it_zero_times(
        self, account, economy, monkeypatch, calls
    ):
        # The re-check judges what the steps changed, which validate does not report.
        _skew_move(monkeypatch, ReplaceEnergeticWithStock, {"structural_input": -1.0})
        scenario = Scenario("x", (ReplaceEnergeticWithStock(0.5),))
        with pytest.raises(ScenarioError, match="transformed account is inconsistent"):
            apply_scenario(account, economy, scenario)
        assert calls == []


class TestNotes:
    def test_notes_follow_step_order_with_the_rebooked_mass_last(self, account, economy):
        # A zero-mass rebook and a disabled scale step write no note.
        steps = (
            ReplaceEnergeticWithStock(0.0),
            ScaleReverseFlowValue(True),
            ReplaceEnergeticWithStock(0.25),  # 10 Gt: residual -10
            ScaleReverseFlowValue(False),
            SetRecoveryRate(1.0),  # 33 - 9 = 24 Gt out of waste: residual +24
            ScaleReverseFlowValue(True),  # 33 / 9
        )
        result = apply_scenario(account, economy, Scenario("notes", steps))
        scaled = (
            "reverse-flow sector values scaled x{}, assuming value moves proportionally "
            "with the reverse flow (explicit assumption)"
        )
        assert result.notes == (
            scaled.format("1"),
            "10 Gt of energetic input rebooked as stock-building structural input; "
            "emissions_output left unchanged (emission modeling out of scope)",
            scaled.format("3.66667"),
            "scenario rebooked +14 Gt across the input/output boundary; balance judged "
            "net of that move (underlying residual 3 Gt, within tolerance)",
        )

    def test_a_seventh_digit_tie_rounds_half_away_from_zero(self, economy):
        # 1234565 Gt rebooked: %g on the binary value gave "1.23456e+06"
        account = reference_account(
            total_input=1234629.0, energetic_input=1234565.0, emissions_output=1234570.0
        )
        scenario = Scenario("tie", (ReplaceEnergeticWithStock(1.0),))
        notes = apply_scenario(account, economy, scenario).notes
        assert notes[0].startswith("1.23457e+06 Gt of energetic input rebooked")
        assert notes[1].startswith("scenario rebooked -1.23457e+06 Gt across")


class TestConservationPerStep:
    def test_a_leaking_move_is_named_by_its_step(self, account, economy, monkeypatch):
        # every divert takes 1 Gt more out of the waste bin than it declares
        _skew_move(monkeypatch, DivertWasteToStock, {"waste_output": -1.0})
        scenario = Scenario(
            "leak", (SetRecoveryRate(0.5), DivertWasteToStock(0.2), SetRecoveryRate(0.5))
        )
        with pytest.raises(ScenarioError, match="mass not conserved") as info:
            apply_scenario(account, economy, scenario)
        assert info.value.step_index == 1
        assert "step 1" in str(info.value)

    def test_a_leaking_scaling_step_is_named_by_its_step(self, account, economy, monkeypatch):
        # the scaling moves no mass, so 1 Gt gone from the waste bin after it is a leak
        _skew_move(monkeypatch, ScaleReverseFlowValue, {"waste_output": -1.0})
        scenario = Scenario("leak", (SetRecoveryRate(0.5), ScaleReverseFlowValue(True)))
        with pytest.raises(ScenarioError, match="mass not conserved") as info:
            apply_scenario(account, economy, scenario)
        assert info.value.step_index == 1
        assert "step 1" in str(info.value)

    @pytest.mark.parametrize("dusts, forgiven", [(0.5, True), (2.0, False)], ids=["half", "twice"])
    def test_a_leak_is_judged_against_float_dust(
        self, account, economy, monkeypatch, dusts, forgiven
    ):
        leak = dusts * float_dust(account.total_input)
        _skew_move(monkeypatch, DivertWasteToStock, {"waste_output": -leak})
        scenario = Scenario("dust", (DivertWasteToStock(0.2),))
        if forgiven:
            apply_scenario(account, economy, scenario)
        else:
            with pytest.raises(ScenarioError, match="mass not conserved") as info:
                apply_scenario(account, economy, scenario)
            assert info.value.step_index == 0
