"""Unit tests for GDP value attribution."""

import pytest

from circuflow import (
    CircuflowError,
    EconomicAccount,
    OverAttributionError,
    SectorValue,
    StockDepletionWarning,
    UndefinedDenominatorError,
    ValueAttribution,
    attribute_value,
    nfcf_rate,
    stock_addition_value,
)
from circuflow.accounts import MASS_FIELDS
from circuflow.record import float_dust
from circuflow.valuemap import CATEGORIES
from support import reference_economy


class TestRecords:
    def test_sector_value_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            SectorValue("x", -1.0, "reverse_flow")

    def test_sector_value_rejects_unknown_category(self):
        with pytest.raises(ValueError, match="category"):
            SectorValue("x", 1.0, "sideways_flow")

    def test_rates_must_be_fractions(self):
        with pytest.raises(ValueError, match="gfcf_rate"):
            reference_economy(gfcf_rate=1.2)

    def test_sector_name_must_be_non_empty(self):
        with pytest.raises(ValueError, match="name"):
            SectorValue("", 1.0, "reverse_flow")

    def test_year_must_be_int(self):
        with pytest.raises(ValueError, match="year"):
            reference_economy(year=2020.5)

    @pytest.mark.parametrize("name", ["a,b", "x # y", " pad", "a\u2028b", "a\r\nb", 7])
    def test_sector_names_a_document_would_change_are_rejected(self, name):
        with pytest.raises(ValueError, match="name"):
            SectorValue(name, 1.0, "reverse_flow")

    def test_numeric_fields_are_floats(self):
        # built from ints, with the reverse-flow category left empty
        economy = EconomicAccount(
            year=2020,
            gdp=86,
            gfcf_rate=0,
            cfc_rate=0,
            sectors=(SectorValue("waste management 3", 15, "dissipative_flow"),),
            services_share=1,
        )
        attribution = attribute_value(economy)
        records = (economy.sectors[0], economy, attribution)
        derived = ("waste_value", *(f"{c}_share" for c in attribution.shares_by_category()))
        for record in records:
            names = type(record).__slots__ + (derived if record is attribution else ())
            for name in names:
                value = getattr(record, name)
                if name not in ("name", "category", "year", "sectors"):
                    assert type(value) is float, (type(record).__name__, name)

    def test_overflowing_sector_sum_rejected(self):
        sectors = (
            SectorValue("a", 1e308, "reverse_flow"),
            SectorValue("b", 1e308, "dissipative_flow"),
        )
        with pytest.raises(ValueError, match="sector value sum overflows to infinity"):
            reference_economy(gdp=1.7e308, sectors=sectors)

    def test_sectors_must_be_sector_values(self):
        with pytest.raises(ValueError, match="sectors must hold SectorValue records"):
            EconomicAccount(2020, 86, 0.26, sectors=[("x", 1.0, "reverse_flow")])

    def test_services_share_is_stored_context(self, economy):
        assert economy.services_share == 0.65


class TestNfcfRate:
    def test_reference(self, economy):
        # 26% - 13% = 13%, exact
        assert nfcf_rate(economy) == 0.13

    def test_zero_when_rates_equal(self):
        assert nfcf_rate(reference_economy(gfcf_rate=0.13, cfc_rate=0.13)) == 0.0

    def test_negative_rate_warns_of_depletion(self):
        economy = reference_economy(gfcf_rate=0.10, cfc_rate=0.13)
        with pytest.warns(StockDepletionWarning):
            rate = nfcf_rate(economy)
        assert rate == pytest.approx(-0.03, abs=1e-12)

    def test_the_depletion_warning_rounds_half_away_at_four_places(self):
        # -0.00015 is a tie at four places; the binary value lies just inside it
        economy = reference_economy(gfcf_rate=0.0, cfc_rate=0.00015)
        with pytest.warns(StockDepletionWarning, match=r"negative \(-0\.0002 of GDP\)"):
            nfcf_rate(economy)


class TestStockAdditionValue:
    def test_reference(self, economy):
        assert stock_addition_value(economy) == pytest.approx(11.18, abs=1e-9)

    def test_zero_gdp(self):
        assert stock_addition_value(reference_economy(gdp=0.0)) == 0.0

    def test_hand_multiplication(self):
        assert stock_addition_value(reference_economy(gdp=100.0)) == pytest.approx(13.0, abs=1e-9)


class TestAttributeValue:
    def test_reference_partition(self, economy):
        attribution = attribute_value(economy)
        assert float(attribution.reverse_flow_value) == pytest.approx(1.2, abs=1e-12)
        assert float(attribution.dissipative_flow_value) == pytest.approx(15.0, abs=1e-12)
        assert float(attribution.stock_addition_value) == pytest.approx(11.18, abs=1e-9)
        assert float(attribution.waste_value) == 0.0
        assert float(attribution.legacy_stock_value) == pytest.approx(58.62, abs=1e-9)
        assert attribution.reverse_flow_share == pytest.approx(0.0140, abs=5e-5)
        assert attribution.dissipative_flow_share == pytest.approx(0.1744, abs=5e-5)
        assert attribution.stock_addition_share == pytest.approx(0.1300, abs=5e-5)
        assert attribution.waste_share == 0.0
        assert attribution.legacy_stock_share == pytest.approx(0.6816, abs=5e-5)

    def test_stores_gdp_and_the_values_that_vary(self):
        assert ValueAttribution.__slots__ == (
            "gdp",
            "reverse_flow_value",
            "dissipative_flow_value",
            "stock_addition_value",
            "legacy_stock_value",
        )

    def test_shares_follow_a_replaced_value(self, economy):
        attribution = attribute_value(economy).replace(reverse_flow_value=43.0)
        assert attribution.reverse_flow_share == 0.5
        assert attribution.shares_by_category()["reverse_flow"] == 0.5

    def test_sums_to_gdp(self, economy):
        attribution = attribute_value(economy)
        assert sum(attribution.values_by_category().values()) == pytest.approx(86.0, abs=1e-9)
        assert sum(attribution.shares_by_category().values()) == pytest.approx(1.0, abs=1e-12)

    def test_everything_residual(self):
        economy = reference_economy(sectors=(), gfcf_rate=0.13, cfc_rate=0.13)
        attribution = attribute_value(economy)
        assert attribution.legacy_stock_share == 1.0

    def test_no_residual(self):
        economy = reference_economy(
            sectors=(SectorValue("everything", 86.0, "dissipative_flow"),),
            gfcf_rate=0.13,
            cfc_rate=0.13,
        )
        attribution = attribute_value(economy)
        assert float(attribution.legacy_stock_value) == 0.0
        dust = float_dust(economy.gdp)
        for gap, forgiven in ((dust / 2, True), (2 * dust, False)):
            edge = economy.replace(
                sectors=(SectorValue("everything", 86.0 + gap, "dissipative_flow"),)
            )
            if forgiven:
                assert attribute_value(edge).legacy_stock_value == 0.0
            else:
                with pytest.raises(OverAttributionError):
                    attribute_value(edge)

    def test_over_attribution_reports_excess(self):
        economy = reference_economy(
            sectors=(SectorValue("too_big", 90.0, "dissipative_flow"),)
        )
        with pytest.raises(OverAttributionError) as info:
            attribute_value(economy)
        assert info.value.excess == pytest.approx(90.0 + 11.18 - 86.0, abs=1e-9)

    def test_zero_gdp_is_undefined(self):
        with pytest.raises(UndefinedDenominatorError, match="gdp"):
            attribute_value(reference_economy(gdp=0.0, sectors=()))

    def test_overflowing_attributed_sum_is_named(self):
        # sectors alone fit; adding the stock-addition value (all of GDP) overflows
        economy = reference_economy(
            gdp=1.7e308, gfcf_rate=1.0, cfc_rate=0.0,
            sectors=(SectorValue("a", 1e308, "reverse_flow"),),
        )
        with pytest.raises(CircuflowError, match="attributed value sum overflows") as info:
            attribute_value(economy)
        assert not isinstance(info.value, OverAttributionError)


class TestCategoryTable:
    def test_categories_are_the_attribution_keys_in_order(self, economy):
        keys = [row[0] for row in CATEGORIES]
        attribution = attribute_value(economy)
        assert list(attribution.values_by_category()) == keys
        assert list(attribution.shares_by_category()) == keys

    def test_mass_fields_are_account_masses(self):
        masses = [field for _, _, field in CATEGORIES if field is not None]
        assert masses and set(masses) <= set(MASS_FIELDS)


class TestReverseFlowShare:
    def test_reference(self, economy):
        assert attribute_value(economy).reverse_flow_share == pytest.approx(0.01395, abs=5e-5)

    def test_zero_reverse_value(self):
        economy = reference_economy(
            sectors=(SectorValue("energy", 15.0, "dissipative_flow"),)
        )
        assert attribute_value(economy).reverse_flow_share == 0.0

    def test_combined_flow_share(self, economy):
        combined = (
            economy.sector_total("reverse_flow") + economy.sector_total("dissipative_flow")
        ) / float(economy.gdp)
        assert combined == pytest.approx(0.1884, abs=5e-5)

    def test_zero_gdp_is_undefined(self):
        with pytest.raises(UndefinedDenominatorError, match="attribute_value"):
            attribute_value(reference_economy(gdp=0.0))
