"""Unit tests for the flow account record, validation and basic operations."""

import re

import pytest

from circuflow import (
    AccountInvariantError,
    MaterialFlowAccount,
    UndefinedDenominatorError,
    ValidationStatus,
    annually_recoverable_input,
    validate,
    waste_share,
)
from circuflow.accounts import MASS_FIELDS
from circuflow.record import float_dust
from support import reference_account


class TestConstruction:
    def test_fields_coerced_to_mass(self, account):
        assert account.total_input == 104.0
        assert account.balance_tolerance == 0.05
        from_ints = MaterialFlowAccount(
            year=2020,
            total_input=104,
            energetic_input=40,
            structural_input=64,
            recycled_input=9,
            emissions_output=45,
            waste_output=25,
            net_stock_additions=31,
            balance_tolerance=0,
        )
        for name in MASS_FIELDS + ("balance_tolerance",):
            assert type(getattr(from_ints, name)) is float, name

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            reference_account(waste_output=-1.0)

    def test_year_must_be_int(self):
        with pytest.raises(ValueError, match="year"):
            reference_account(year=2020.5)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError, match="balance_tolerance"):
            reference_account(balance_tolerance=-0.1)

    @pytest.mark.parametrize(
        "fields,sum_name",
        [
            (
                dict(total_input=1.7e308, energetic_input=1e308, structural_input=1e308),
                "energetic + structural",
            ),
            (
                dict(total_input=1.7e308, structural_input=1.7e308 - 40.0,
                     emissions_output=1e308, waste_output=1e308),
                "emissions + waste + net_stock_additions",
            ),
        ],
    )
    def test_overflowing_sums_rejected(self, fields, sum_name):
        with pytest.raises(ValueError, match=re.escape(sum_name)):
            reference_account(**fields)

    def test_immutable(self, account):
        with pytest.raises(AttributeError):
            account.total_input = 1.0


class TestValidate:
    def test_reference_account_passes_with_warning(self, account):
        outcome = validate(account)
        assert outcome.status is ValidationStatus.PASS_WITH_WARNING
        assert outcome.ok
        # 104 - (45 + 25 + 31) = 3 Gt, 2.88% of input, inside the 5% default
        assert outcome.residual == pytest.approx(3.0, abs=1e-12)
        assert outcome.residual_share == pytest.approx(3.0 / 104.0, rel=1e-12)
        assert outcome.violations == ()

    def test_exact_balance_passes_clean(self):
        account = reference_account(emissions_output=48.0)  # 48 + 25 + 31 = 104
        outcome = validate(account)
        assert outcome.status is ValidationStatus.PASS
        assert outcome.residual == 0.0

    def test_category_sum_violation_fails(self):
        account = reference_account(total_input=100.0)  # 40 + 64 != 100
        outcome = validate(account)
        assert outcome.status is ValidationStatus.FAIL
        assert any(v.invariant == "category_sum" for v in outcome.violations)
        dust = float_dust(104.0)
        for gap, forgiven in ((dust / 2, True), (2 * dust, False)):
            outcome = validate(reference_account(structural_input=64.0 + gap))
            assert any(v.invariant == "category_sum" for v in outcome.violations) is not forgiven

    def test_recycled_above_structural_fails(self):
        outcome = validate(reference_account(recycled_input=65.0))
        assert not outcome.ok
        assert any(v.invariant == "recycled_within_structural" for v in outcome.violations)

    def test_stock_additions_above_structural_fails(self):
        outcome = validate(reference_account(net_stock_additions=65.0))
        assert not outcome.ok

    def test_zero_total_input_fails(self):
        account = MaterialFlowAccount(
            year=2020,
            total_input=0.0,
            energetic_input=0.0,
            structural_input=0.0,
            recycled_input=0.0,
            emissions_output=0.0,
            waste_output=0.0,
            net_stock_additions=0.0,
        )
        outcome = validate(account)
        assert not outcome.ok
        assert any(v.invariant == "positive_total_input" for v in outcome.violations)

    def test_residual_beyond_tolerance_fails(self):
        outcome = validate(reference_account(balance_tolerance=0.02))
        assert outcome.status is ValidationStatus.FAIL
        assert any(v.invariant == "mass_balance" for v in outcome.violations)

    @pytest.mark.parametrize(
        "tolerance,text",
        [
            (0.015, "exceeds the 1.5% tolerance"),
            (0.035, "within the 3.5% tolerance"),
            (0.05, "within the 5% tolerance"),
            (0.1, "within the 10% tolerance"),
        ],
    )
    def test_tolerance_printed_with_its_own_digits(self, tolerance, text):
        # the residual is 2.88% of total input; the tolerance is printed, not rounded
        outcome = validate(reference_account(balance_tolerance=tolerance))
        assert text in outcome.checks[-1].message

    def test_residual_share_rounds_half_away_from_zero(self):
        # residual 0.125 Gt is 0.125% of 100 Gt: a tie at two places
        account = reference_account(
            total_input=100.0, energetic_input=40.0, structural_input=60.0,
            recycled_input=9.0, emissions_output=45.0, waste_output=25.0,
            net_stock_additions=29.875,
        )
        message = validate(account).checks[-1].message
        assert "0.125 Gt (0.13% of total input)" in message

    def test_idempotent_and_pure(self, account):
        first = validate(account)
        second = validate(account)
        assert first == second

    def test_every_invariant_reported(self, account):
        outcome = validate(account)
        assert {c.invariant for c in outcome.checks} == {
            "positive_total_input",
            "category_sum",
            "recycled_within_structural",
            "stock_additions_within_structural",
            "mass_balance",
        }


class TestAnnuallyRecoverableInput:
    def test_reference(self, account):
        assert annually_recoverable_input(account) == pytest.approx(33.0, abs=1e-12)

    def test_no_stock_lock_in(self):
        assert annually_recoverable_input(reference_account(net_stock_additions=0.0)) == 64.0

    def test_everything_locked_in_stocks(self):
        assert annually_recoverable_input(reference_account(net_stock_additions=64.0)) == 0.0

    def test_negative_pool_is_an_error(self):
        with pytest.raises(AccountInvariantError):
            annually_recoverable_input(reference_account(net_stock_additions=70.0))


class TestWasteShare:
    def test_reference(self, account):
        # independent hand computation: 25 / 104
        assert waste_share(account) == pytest.approx(0.2403846153846154, rel=1e-12)

    def test_zero_waste(self):
        assert waste_share(reference_account(waste_output=0.0)) == 0.0

    def test_everything_wasted(self):
        account = MaterialFlowAccount(
            year=2020,
            total_input=104.0,
            energetic_input=40.0,
            structural_input=64.0,
            recycled_input=0.0,
            emissions_output=0.0,
            waste_output=104.0,
            net_stock_additions=0.0,
        )
        assert waste_share(account) == 1.0

    def test_zero_total_is_undefined(self):
        account = reference_account(
            total_input=0.0,
            energetic_input=0.0,
            structural_input=0.0,
            recycled_input=0.0,
        )
        with pytest.raises(UndefinedDenominatorError):
            waste_share(account)
