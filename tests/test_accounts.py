"""Unit tests for the flow account record, validation and basic operations."""

import random
import re

import pytest

from circuflow import (
    MaterialFlowAccount,
    UndefinedDenominatorError,
    ValidationStatus,
    real_circularity,
    validate,
    waste_share,
)
from circuflow import metrics
from circuflow.accounts import _EXACT_BALANCE_REL, MASS_FIELDS, _judge
from circuflow.record import float_dust
from support import random_valid_account, reference_account


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

    def test_negative_zero_tolerance_prints_unsigned(self):
        outcome = validate(reference_account(balance_tolerance=-0.0))
        assert outcome.checks[-1].message.endswith("exceeds the 0% tolerance")

    def test_residual_share_rounds_half_away_from_zero(self):
        # residual 0.125 Gt is 0.125% of 100 Gt: a tie at two places
        account = reference_account(
            total_input=100.0, energetic_input=40.0, structural_input=60.0,
            recycled_input=9.0, emissions_output=45.0, waste_output=25.0,
            net_stock_additions=29.875,
        )
        message = validate(account).checks[-1].message
        assert "0.125 Gt (0.13% of total input)" in message

    def test_numbers_in_messages_round_half_away_at_six_digits(self):
        # 1234565 is a tie at the seventh digit; %g on the binary value gave 1.23456e+06
        outcome = validate(reference_account(recycled_input=1234565.0))
        assert [v.message for v in outcome.violations] == [
            "recycled_input (1.23457e+06 Gt) exceeds structural_input (64 Gt)"
        ]

    def test_passing_checks_are_shared_records(self, account):
        first, second = validate(account).checks, validate(reference_account(year=2021)).checks
        assert all(a is b for a, b in zip(first[:4], second[:4]))
        assert first[4] == second[4] and first[4] is not second[4]  # an inexact balance
        exact = validate(reference_account(emissions_output=48.0)).checks[4]
        assert exact is validate(reference_account(emissions_output=48.0)).checks[4]
        assert exact.message == "outputs sum exactly to total_input"

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


def _agrees_with_validate(account):
    """Assert that ``validate`` reports ``_judge``'s verdicts check by check, with its status."""
    _, residual, exactly_balanced, verdicts = _judge(account)
    outcome = validate(account)
    assert [(c.invariant, c.passed) for c in outcome.checks] == list(verdicts.items())
    assert outcome.residual == residual
    if not all(verdicts.values()):
        assert outcome.status is ValidationStatus.FAIL
    elif exactly_balanced:
        assert outcome.status is ValidationStatus.PASS
    else:
        assert outcome.status is ValidationStatus.PASS_WITH_WARNING
    return verdicts


def _masses(total, emissions=None, structural_extra=0.0, tolerance=0.05):
    """A 40/60 account with outputs 50/20/30% of ``total`` unless ``emissions`` is given."""
    return MaterialFlowAccount(
        2020,
        total,
        0.4 * total,
        0.6 * total + structural_extra,
        0.0,
        0.5 * total if emissions is None else emissions,
        0.2 * total,
        0.3 * total,
        tolerance,
    )


class TestJudgeAgreesWithValidate:
    def test_generated_accounts(self):
        rng = random.Random(131)
        seen = set()
        for _ in range(1000):
            account = random_valid_account(rng)
            field = rng.choice(MASS_FIELDS + ("balance_tolerance", None))
            if field == "balance_tolerance":
                account = account.replace(balance_tolerance=rng.choice((0.0, -0.0, 0.01, 1.0)))
            elif field is not None:
                value = getattr(account, field) * rng.choice((0.0, 0.5, 1.0 + 1e-9, 1.05, 2.0))
                account = account.replace(**{field: value})
            seen.add(tuple(_agrees_with_validate(account).values()))
        assert len(seen) >= 8, seen  # passing and failing verdicts in several mixes

    # float_dust(1e9) == 1.0 and 0.05 * 1e9 == 5e7 exactly; 1e-12 * 1e12 == 1.0
    @pytest.mark.parametrize(
        "at,past,code",
        [
            # category gap at float dust
            (
                _masses(1e9, structural_extra=1.0),
                _masses(1e9, structural_extra=1.0 + 2**-23),
                "category_sum",
            ),
            # residual at +-balance_tolerance x total
            (_masses(1e9, emissions=4.5e8), _masses(1e9, emissions=4.5e8 - 1.0), "mass_balance"),
            (_masses(1e9, emissions=5.5e8), _masses(1e9, emissions=5.5e8 + 1.0), "mass_balance"),
            # residual at the exact-balance bound, with no tolerance
            (
                _masses(1e12, emissions=5e11 - 1.0, tolerance=0.0),
                _masses(1e12, emissions=5e11 - 2.0, tolerance=0.0),
                "mass_balance",
            ),
        ],
    )
    def test_a_bound_passes_and_a_step_past_it_fails(self, at, past, code):
        total = at.total_input
        gap, residual, _, _ = _judge(at)
        bounds = (
            abs(gap) - float_dust(total),
            abs(residual) - at.balance_tolerance * total,
            abs(residual) - _EXACT_BALANCE_REL * max(total, 1.0),
        )
        assert 0.0 in bounds
        assert _agrees_with_validate(at)[code] is True
        assert _agrees_with_validate(past)[code] is False

    @pytest.mark.parametrize("emissions", [0.0, 1.0])
    def test_zero_total_input(self, emissions):
        verdicts = _agrees_with_validate(_masses(0.0, emissions=emissions, tolerance=1.0))
        assert verdicts["positive_total_input"] is False
        assert verdicts["mass_balance"] is (emissions == 0.0)


def annually_recoverable_input(account):
    """The ``DENOMINATORS`` row that the real rate and ``set_recovery_rate`` both read."""
    return metrics._masses(account)["denominator_annually_recoverable"]


class TestAnnuallyRecoverableInput:
    def test_reference(self, account):
        assert annually_recoverable_input(account) == 33.0

    def test_no_stock_lock_in(self):
        assert annually_recoverable_input(reference_account(net_stock_additions=0.0)) == 64.0

    def test_everything_locked_in_stocks(self):
        assert annually_recoverable_input(reference_account(net_stock_additions=64.0)) == 0.0

    def test_negative_pool_is_an_error(self):
        # 104 - 40 - 70 < 0: the real rate names the row's formula
        with pytest.raises(
            UndefinedDenominatorError, match="total_input - energetic_input - net_stock_additions"
        ):
            real_circularity(reference_account(net_stock_additions=70.0))


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
