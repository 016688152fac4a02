"""Unit tests for the circularity metric family."""

import pytest

from circuflow import (
    CircularityReport,
    MaterialFlowAccount,
    MetricDomainError,
    UndefinedDenominatorError,
    apparent_circularity,
    dissipative_adjusted_circularity,
    metric_suite,
    potential_ceiling,
    real_circularity,
)
from circuflow.metrics import DENOMINATORS, RATES
from circuflow.record import float_dust
from support import reference_account


class TestApparentCircularity:
    def test_reference(self, account):
        assert apparent_circularity(account) == pytest.approx(9.0 / 104.0, rel=1e-12)

    def test_zero_recycled(self):
        assert apparent_circularity(reference_account(recycled_input=0.0)) == 0.0

    def test_global_secondary_share_case(self):
        # 7.2 Gt of 100 Gt total: the often-quoted global secondary share
        account = MaterialFlowAccount(
            year=2020,
            total_input=100.0,
            energetic_input=40.0,
            structural_input=60.0,
            recycled_input=7.2,
            emissions_output=45.0,
            waste_output=33.0,
            net_stock_additions=20.0,
        )
        assert apparent_circularity(account) == pytest.approx(0.072, rel=1e-12)

    def test_zero_total_is_undefined(self):
        account = reference_account(
            total_input=0.0, energetic_input=0.0, structural_input=0.0, recycled_input=0.0
        )
        with pytest.raises(UndefinedDenominatorError, match="apparent"):
            apparent_circularity(account)


class TestDissipativeAdjusted:
    def test_reference(self, account):
        assert dissipative_adjusted_circularity(account) == pytest.approx(9.0 / 64.0, rel=1e-12)

    def test_no_energetic_input_equals_apparent(self):
        account = reference_account(energetic_input=0.0, structural_input=104.0)
        assert dissipative_adjusted_circularity(account) == apparent_circularity(account)

    def test_fully_dissipative_is_undefined(self):
        account = reference_account(
            energetic_input=104.0,
            structural_input=0.0,
            recycled_input=0.0,
            net_stock_additions=0.0,
        )
        with pytest.raises(UndefinedDenominatorError, match="dissipative_adjusted"):
            dissipative_adjusted_circularity(account)


class TestRealCircularity:
    def test_reference(self, account):
        assert real_circularity(account) == pytest.approx(9.0 / 33.0, rel=1e-12)

    def test_no_adjustments_equals_apparent(self):
        account = reference_account(
            energetic_input=0.0, structural_input=104.0, net_stock_additions=0.0
        )
        assert real_circularity(account) == apparent_circularity(account)

    def test_full_recovery_of_recoverable_flow(self):
        # contrived: structural - stock additions = 9 = recycled
        account = reference_account(net_stock_additions=55.0, waste_output=4.0, emissions_output=45.0)
        assert real_circularity(account) == 1.0

    def test_everything_locked_is_undefined(self):
        account = reference_account(net_stock_additions=64.0, recycled_input=0.0)
        with pytest.raises(UndefinedDenominatorError, match="real"):
            real_circularity(account)


class TestPotentialCeiling:
    def test_reference(self, account):
        assert potential_ceiling(account) == pytest.approx(64.0 / 104.0, rel=1e-12)

    def test_no_energetic_input(self):
        account = reference_account(energetic_input=0.0, structural_input=104.0)
        assert potential_ceiling(account) == 1.0

    def test_fully_dissipative(self):
        account = reference_account(
            energetic_input=104.0,
            structural_input=0.0,
            recycled_input=0.0,
            net_stock_additions=0.0,
        )
        assert potential_ceiling(account) == 0.0


class TestMetricSuite:
    def test_reference_report(self, account):
        report = metric_suite(account)
        assert report.apparent == pytest.approx(0.0865, abs=5e-5)
        assert report.dissipative_adjusted == pytest.approx(0.1406, abs=5e-5)
        assert report.real_rate == pytest.approx(0.2727, abs=5e-5)
        assert report.potential_ceiling == pytest.approx(0.615, abs=5e-4)
        assert report.denominator_total == 104.0
        assert report.denominator_recoverable == 64.0
        assert report.denominator_annually_recoverable == pytest.approx(33.0, abs=1e-12)

    def test_degenerate_adjustments_collapse_the_family(self):
        account = reference_account(
            energetic_input=0.0, structural_input=104.0, net_stock_additions=0.0
        )
        report = metric_suite(account)
        assert report.apparent == report.dissipative_adjusted == report.real_rate
        assert report.potential_ceiling == 1.0

    def test_denominator_error_names_the_metric(self):
        account = reference_account(net_stock_additions=64.0, recycled_input=0.0)
        with pytest.raises(UndefinedDenominatorError, match="real_circularity"):
            metric_suite(account)

    @pytest.mark.parametrize(
        "fields,context",
        [
            (dict(total_input=0.0, energetic_input=0.0, structural_input=0.0), "apparent_circularity"),
            (dict(energetic_input=104.0, structural_input=0.0), "dissipative_adjusted_circularity"),
        ],
    )
    def test_first_undefined_denominator_is_reported(self, fields, context):
        zero_flows = dict(recycled_input=0.0, net_stock_additions=0.0)
        with pytest.raises(UndefinedDenominatorError) as info:
            metric_suite(reference_account(**zero_flows, **fields))
        assert info.value.context == context

    def test_undefined_denominator_outranks_a_domain_error(self):
        # apparent = 20 / 10 is out of range, but the dissipative-adjusted
        # denominator is zero: every quotient is taken before any domain check
        account = MaterialFlowAccount(
            year=2020,
            total_input=10,
            energetic_input=10,
            structural_input=0,
            recycled_input=20,
            emissions_output=10,
            waste_output=0,
            net_stock_additions=0,
        )
        with pytest.raises(UndefinedDenominatorError) as info:
            metric_suite(account)
        assert info.value.context == "dissipative_adjusted_circularity"

    def test_report_fields_are_floats(self):
        account = reference_account(
            total_input=104, energetic_input=40, structural_input=64, recycled_input=9,
            net_stock_additions=31,
        )
        report = metric_suite(account)
        for name in type(report).__slots__:
            assert type(getattr(report, name)) is float, name

    def test_recycled_beyond_pool_is_a_domain_error(self):
        # recycled (20) exceeds the annually recoverable pool (64 - 55 = 9)
        account = reference_account(
            recycled_input=20.0, net_stock_additions=55.0, waste_output=4.0
        )
        with pytest.raises(MetricDomainError, match="real_rate"):
            metric_suite(account)

    def test_category_drift_noise_snaps_to_one(self):
        # structural carries drift inside the category-identity allowance, so
        # saturating the pool overshoots 1 by float noise, not by substance
        account = reference_account(structural_input=64 + 5e-8, recycled_input=33 + 5e-8)
        report = metric_suite(account)
        assert report.real_rate == 1.0
        # the pool is 33 Gt: an overshoot of float_dust(total) / 33 is forgiven
        dust = float_dust(104.0)
        assert metric_suite(reference_account(recycled_input=33 + dust / 2)).real_rate == 1.0
        with pytest.raises(MetricDomainError, match="real_rate"):
            metric_suite(reference_account(recycled_input=33 + 2 * dust))


class TestFormulaTables:
    def test_rate_then_denominator_keys_are_the_report_fields(self):
        keys = tuple(row[0] for row in RATES) + tuple(row[0] for row in DENOMINATORS)
        assert keys == CircularityReport.__slots__
        # metric_suite builds the report positionally, in this order
        assert [getattr(CircularityReport(*range(7)), key) for key in keys] == list(range(7))

    def test_rates_divide_by_a_denominator(self):
        denominators = {row[0] for row in DENOMINATORS}
        for _, _, _, numerator, denominator in RATES:
            assert denominator in denominators
            assert numerator in denominators or numerator in MaterialFlowAccount.__slots__

    @pytest.mark.parametrize(
        "function,fields,denominator",
        [
            (
                apparent_circularity,
                dict(total_input=0.0, energetic_input=0.0, structural_input=0.0),
                "total_input",
            ),
            (
                dissipative_adjusted_circularity,
                dict(energetic_input=104.0, structural_input=0.0),
                "total_input - energetic_input",
            ),
            (
                real_circularity,
                dict(net_stock_additions=64.0),
                "total_input - energetic_input - net_stock_additions",
            ),
            (
                potential_ceiling,
                dict(total_input=0.0, energetic_input=0.0, structural_input=0.0),
                "total_input",
            ),
        ],
    )
    def test_each_function_names_its_own_denominator(self, function, fields, denominator):
        account = reference_account(recycled_input=0.0, **fields)
        with pytest.raises(UndefinedDenominatorError) as info:
            function(account)
        assert info.value.denominator == denominator
        assert info.value.context == function.__name__
        assert str(info.value) == (
            f"{function.__name__}: denominator {denominator!r} is zero, result undefined"
        )
