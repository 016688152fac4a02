"""Mass and money values: unit conversion on load, checks at record construction."""

import math

import pytest

from circuflow import DocumentError, SectorValue, StockDepletionWarning, stock_addition_value
from circuflow.accounts import GT_PER_UNIT, MASS_FIELDS
from circuflow.documents import parse_account
from support import reference_account, reference_economy


def _account_text(value: float, unit: str) -> str:
    lines = ["year = 2020", f"unit = {unit}"] + [f"{name} = {value!r}" for name in MASS_FIELDS]
    return "\n".join(lines) + "\n"


class TestMassQuantity:
    def test_is_a_float(self):
        account = reference_account(total_input=104, recycled_input=9)
        assert type(account.recycled_input) is float
        assert account.recycled_input / account.total_input == 9.0 / 104.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="mass must be non-negative"):
            reference_account(recycled_input=-1.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="mass must be finite"):
            reference_account(waste_output=bad)

    @pytest.mark.parametrize(
        "value,unit,expected_gt",
        [
            (1.0, "Gt", 1.0),
            (1000.0, "Mt", 1.0),
            (1_000_000.0, "kt", 1.0),
            (1e9, "t", 1.0),
            (25.0, "Gt", 25.0),
            (64_000.0, "Mt", 64.0),
        ],
    )
    def test_unit_conversion(self, value, unit, expected_gt):
        account = parse_account(_account_text(value, unit))
        for name in MASS_FIELDS:
            mass = getattr(account, name)
            assert mass == pytest.approx(expected_gt, rel=1e-12)
            assert mass == value * GT_PER_UNIT[unit]  # one multiplication, no other rounding

    def test_unknown_unit(self):
        with pytest.raises(DocumentError, match="unknown mass unit") as info:
            parse_account(_account_text(1.0, "lb"))
        assert info.value.field == "unit"


class TestMonetaryQuantity:
    def test_allows_signed_values(self):
        depleting = reference_economy(gfcf_rate=0.10, cfc_rate=0.13)
        with pytest.warns(StockDepletionWarning):
            value = stock_addition_value(depleting)
        assert type(value) is float
        assert value == pytest.approx(-2.58, rel=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="monetary value must be finite"):
            SectorValue("x", math.nan, "reverse_flow")
        with pytest.raises(ValueError, match="monetary value must be finite"):
            reference_economy(gdp=math.inf)
