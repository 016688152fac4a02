"""Attribution of annual GDP across resource-flow categories.

GDP is partitioned five ways: value created by the reverse flow (recycling
and recovery sectors), by dissipative flows (energy, agri-food, chemicals),
by net additions to stock (net fixed capital formation), by waste (fixed at
zero, unmanaged waste adds nothing), and a residual.  The residual is
never an input: whatever the year's resource inputs cannot explain is
booked to the use and management of the pre-existing stock base (the
"legacy stocks").  ``CATEGORIES`` lists the five once, in report order,
with the label and the account mass the reports show next to each.
"""

from __future__ import annotations

import math
import warnings
from typing import TYPE_CHECKING

from .accounts import _fixed, _significant
from .errors import (
    CircuflowError,
    OverAttributionError,
    StockDepletionWarning,
    UndefinedDenominatorError,
)
from .record import (
    Record,
    check_choice,
    check_fraction,
    check_money,
    check_name,
    check_year,
    float_dust,
    set_field,
)

if TYPE_CHECKING:
    from collections.abc import Iterable

CATEGORY_REVERSE_FLOW = "reverse_flow"
CATEGORY_DISSIPATIVE_FLOW = "dissipative_flow"
SECTOR_CATEGORIES = (CATEGORY_REVERSE_FLOW, CATEGORY_DISSIPATIVE_FLOW)
#: (category, label, account mass field shown next to it), in report order.  The
#: value is ``ValueAttribution.<category>_value``; legacy stocks have no mass.
CATEGORIES = (
    (CATEGORY_REVERSE_FLOW, "reverse flows", "recycled_input"),
    (CATEGORY_DISSIPATIVE_FLOW, "dissipative flows", "energetic_input"),
    ("stock_addition", "stock additions", "net_stock_additions"),
    ("waste", "waste", "waste_output"),
    ("legacy_stock", "legacy stocks", None),
)
_VALUE_FIELDS = tuple((category, f"{category}_value") for category, _, _ in CATEGORIES)

#: Consumption-of-fixed-capital rate assumed when a dataset does not carry one.
DEFAULT_CFC_RATE = 0.13


def _check_sector_sum(values: Iterable[float]) -> None:
    """Reject sector values, in sector order, whose sum overflows to infinity.

    ``attribute_value`` adds the sector values; a sum that overflows would
    surface as an infinite over-attribution instead of a named error.
    """
    if not math.isfinite(sum(values)):
        raise ValueError("sector value sum overflows to infinity")


class SectorValue(Record):
    """Annual value a sector adds, tagged with the flow category it rides on."""

    __slots__ = ("name", "value", "category")

    def __init__(self, name: str, value: float, category: str) -> None:
        set_field(self, "name", check_name(name, "sector", forbidden="#,"))
        set_field(self, "value", check_money(value, "sector value"))
        set_field(self, "category", check_choice(category, SECTOR_CATEGORIES, "sector category"))


class EconomicAccount(Record):
    """One year's monetary aggregates, in trillion currency units.

    ``services_share`` is context only (displayed, never computed with).
    """

    __slots__ = ("year", "gdp", "gfcf_rate", "cfc_rate", "sectors", "services_share")

    def __init__(
        self,
        year: int,
        gdp: float,
        gfcf_rate: float,
        cfc_rate: float = DEFAULT_CFC_RATE,
        sectors: tuple[SectorValue, ...] = (),
        services_share: float | None = None,
    ) -> None:
        set_field(self, "year", check_year(year))
        set_field(self, "gdp", check_money(gdp, "gdp"))
        set_field(self, "gfcf_rate", check_fraction(gfcf_rate, "gfcf_rate"))
        set_field(self, "cfc_rate", check_fraction(cfc_rate, "cfc_rate"))
        sectors = tuple(sectors)
        for sector in sectors:
            if not isinstance(sector, SectorValue):
                raise ValueError(f"sectors must hold SectorValue records, got {sector!r}")
        _check_sector_sum(s.value for s in sectors)
        set_field(self, "sectors", sectors)
        if services_share is not None:
            services_share = check_fraction(services_share, "services_share")
        set_field(self, "services_share", services_share)

    def sector_total(self, category: str) -> float:
        # Start from 0.0: an empty category must still total a float.
        return sum((s.value for s in self.sectors if s.category == category), 0.0)


def _gdp_share(category: str) -> property:
    """A read-only ``ValueAttribution`` property: the category's value over GDP."""
    field = f"{category}_value"
    return property(
        lambda self: getattr(self, field) / self.gdp,
        doc=f"The {category} value as a fraction of GDP (read-only, derived).",
    )


class ValueAttribution(Record):
    """Five-way partition of GDP; values in trillions, shares as fractions.

    Stored (``__slots__``): ``gdp`` and the four values that vary.  Derived
    (read-only properties): ``waste_value``, identically zero, and the five
    ``*_share`` names, each its value over ``gdp``: the same quotient
    ``shares_by_category`` gives for its category.  The five
    values sum to gdp by construction (legacy is the residual).  Every value
    is finite; ``gdp`` is positive, and only ``stock_addition_value`` may be
    negative (net stock depletion).
    """

    __slots__ = (
        "gdp",
        "reverse_flow_value",
        "dissipative_flow_value",
        "stock_addition_value",
        "legacy_stock_value",
    )

    def __init__(
        self,
        gdp: float,
        reverse_flow_value: float,
        dissipative_flow_value: float,
        stock_addition_value: float,
        legacy_stock_value: float,
    ) -> None:
        gdp = check_money(gdp, "gdp", signed=True)
        if gdp <= 0:
            raise ValueError(f"gdp must be positive; every GDP share divides by it, got {gdp!r}")
        set_field(self, "gdp", gdp)
        set_field(self, "reverse_flow_value", check_money(reverse_flow_value, "reverse_flow_value"))
        dissipative = check_money(dissipative_flow_value, "dissipative_flow_value")
        set_field(self, "dissipative_flow_value", dissipative)
        stock = check_money(stock_addition_value, "stock_addition_value", signed=True)
        set_field(self, "stock_addition_value", stock)
        set_field(self, "legacy_stock_value", check_money(legacy_stock_value, "legacy_stock_value"))

    waste_value = property(lambda self: 0.0, doc="Unmanaged waste adds no value by definition.")

    reverse_flow_share = _gdp_share("reverse_flow")
    dissipative_flow_share = _gdp_share("dissipative_flow")
    stock_addition_share = _gdp_share("stock_addition")
    waste_share = _gdp_share("waste")
    legacy_stock_share = _gdp_share("legacy_stock")

    def values_by_category(self) -> dict[str, float]:
        return {category: getattr(self, field) for category, field in _VALUE_FIELDS}

    def shares_by_category(self) -> dict[str, float]:
        gdp = self.gdp
        return {category: value / gdp for category, value in self.values_by_category().items()}


def nfcf_rate(economy: EconomicAccount) -> float:
    """Net fixed capital formation as a GDP share: gross formation minus consumption.

    Negative results (net stock depletion) are legal and flagged with a
    StockDepletionWarning.
    """
    rate = economy.gfcf_rate - economy.cfc_rate
    if rate < 0:
        warnings.warn(
            f"net fixed capital formation is negative ({_fixed(rate, 4)} of GDP): "
            "fixed stocks are being depleted",
            StockDepletionWarning,
            stacklevel=2,
        )
    return rate


def stock_addition_value(economy: EconomicAccount) -> float:
    """GDP value created by this year's net additions to stock (NFCF x GDP)."""
    return nfcf_rate(economy) * economy.gdp


def attribute_value(economy: EconomicAccount) -> ValueAttribution:
    """Partition GDP across flow categories and derive the legacy-stock residual.

    Raises:
        CircuflowError: If the non-residual categories sum to more than a
            float can hold.
        OverAttributionError: If the non-residual categories exceed GDP.
        UndefinedDenominatorError: If GDP is zero (shares undefined).
    """
    gdp = economy.gdp
    if gdp <= 0:
        raise UndefinedDenominatorError("gdp", "attribute_value")
    reverse = economy.sector_total(CATEGORY_REVERSE_FLOW)
    dissipative = economy.sector_total(CATEGORY_DISSIPATIVE_FLOW)
    stock = stock_addition_value(economy)
    attributed = reverse + dissipative + stock
    if not math.isfinite(attributed):
        raise CircuflowError(
            "attributed value sum overflows to infinity (reverse flow "
            f"{_significant(reverse)} + dissipative flow {_significant(dissipative)} + "
            f"stock additions {_significant(stock)} trillion)"
        )
    excess = attributed - gdp
    if excess > float_dust(gdp):
        raise OverAttributionError(excess)
    legacy = gdp - attributed
    if legacy < 0:
        legacy = 0.0  # float dust from the exact-sum edge case
    return ValueAttribution(gdp, reverse, dissipative, stock, legacy)
