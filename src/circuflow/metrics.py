"""The four-member circularity metric family.

All four are quotients over one account, differing only in how much of the
input is admitted to the denominator:

    apparent              recycled / total
    dissipative-adjusted  recycled / (total - energetic)
    real                  recycled / (total - energetic - net stock additions)
    potential ceiling     (total - energetic) / total

Metrics return exact quotients; rounding to presentation percentages is the
rendering layer's job.  Zero denominators raise named errors instead of
collapsing to 0 or 1: a fully dissipative economy has no defined
circularity, which is worth saying out loud.
"""

from __future__ import annotations

from .accounts import MaterialFlowAccount
from .errors import MetricDomainError, UndefinedDenominatorError
from .record import Record, set_field


class CircularityReport(Record):
    """The metric family plus the three mass denominators it used (Gt)."""

    __slots__ = (
        "apparent",
        "dissipative_adjusted",
        "real_rate",
        "potential_ceiling",
        "denominator_total",
        "denominator_recoverable",
        "denominator_annually_recoverable",
    )

    def __init__(
        self,
        apparent: float,
        dissipative_adjusted: float,
        real_rate: float,
        potential_ceiling: float,
        denominator_total: float,
        denominator_recoverable: float,
        denominator_annually_recoverable: float,
    ) -> None:
        set_field(self, "apparent", apparent)
        set_field(self, "dissipative_adjusted", dissipative_adjusted)
        set_field(self, "real_rate", real_rate)
        set_field(self, "potential_ceiling", potential_ceiling)
        set_field(self, "denominator_total", denominator_total)
        set_field(self, "denominator_recoverable", denominator_recoverable)
        set_field(self, "denominator_annually_recoverable", denominator_annually_recoverable)

    def rates(self) -> dict[str, float]:
        return {
            "apparent": self.apparent,
            "dissipative_adjusted": self.dissipative_adjusted,
            "real_rate": self.real_rate,
            "potential_ceiling": self.potential_ceiling,
        }


def _denominators(account: MaterialFlowAccount) -> tuple[float, float, float]:
    """Total, recoverable (total - energetic) and annually recoverable input.

    The annually recoverable input further excludes this year's net stock
    additions.  Every metric divides by one of these three masses.
    """
    total = account.total_input
    recoverable = total - account.energetic_input
    return total, recoverable, recoverable - account.net_stock_additions


def apparent_circularity(account: MaterialFlowAccount) -> float:
    """Recycled share of all resource input (the headline circularity rate)."""
    total, _, _ = _denominators(account)
    if total <= 0:
        raise UndefinedDenominatorError("total_input", "apparent_circularity")
    return account.recycled_input / total


def dissipative_adjusted_circularity(account: MaterialFlowAccount) -> float:
    """Recycled share of the non-dissipative input (total minus energetic)."""
    _, recoverable, _ = _denominators(account)
    if recoverable <= 0:
        raise UndefinedDenominatorError(
            "total_input - energetic_input", "dissipative_adjusted_circularity"
        )
    return account.recycled_input / recoverable


def real_circularity(account: MaterialFlowAccount) -> float:
    """Recycled share of the annually recoverable input.

    Denominator excludes both the dissipative share and this year's net
    stock additions.  The raw quotient is returned; it exceeds 1 when the
    reverse flow is larger than the annually recoverable pool (a state
    ``metric_suite`` refuses to report).
    """
    _, _, annually_recoverable = _denominators(account)
    if annually_recoverable <= 0:
        raise UndefinedDenominatorError(
            "total_input - energetic_input - net_stock_additions", "real_circularity"
        )
    return account.recycled_input / annually_recoverable


def potential_ceiling(account: MaterialFlowAccount) -> float:
    """Maximum apparent circularity attainable with zero losses.

    The dissipative share of input can never come back as original
    material, so the ceiling is the non-energetic share of total input.
    """
    total, recoverable, _ = _denominators(account)
    if total <= 0:
        raise UndefinedDenominatorError("total_input", "potential_ceiling")
    return recoverable / total


# The category identity (structural vs total - energetic) is exact only up
# to this relative drift; rates overshooting 1 by no more than the drift,
# amplified by total / denominator, are float noise and snap to 1.
_IDENTITY_REL = 1e-9


def metric_suite(account: MaterialFlowAccount) -> CircularityReport:
    """Assemble the four metrics and the denominators they divide by.

    The caller is expected to have validated the account.  Denominator
    errors from individual metrics propagate (each names its metric);
    a rate outside [0, 1] raises MetricDomainError.
    """
    total, recoverable, annually_recoverable = _denominators(account)
    rates = {
        "apparent": (apparent_circularity(account), total),
        "dissipative_adjusted": (dissipative_adjusted_circularity(account), recoverable),
        "real_rate": (real_circularity(account), annually_recoverable),
        "potential_ceiling": (potential_ceiling(account), total),
    }
    snapped = {}
    for name, (rate, denominator) in rates.items():
        noise = _IDENTITY_REL * max(total, 1.0) / denominator
        if 1.0 < rate <= 1.0 + noise:
            rate = 1.0
        elif not 0.0 <= rate <= 1.0:
            detail = ""
            if name == "real_rate" and rate > 1.0:
                detail = (
                    f": recycled_input ({account.recycled_input:.6g} Gt) exceeds the "
                    f"annually recoverable pool ({annually_recoverable:.6g} Gt)"
                )
            raise MetricDomainError(f"{name} = {rate:.6g} is outside [0, 1]{detail}")
        snapped[name] = rate
    report = CircularityReport(
        apparent=snapped["apparent"],
        dissipative_adjusted=snapped["dissipative_adjusted"],
        real_rate=snapped["real_rate"],
        potential_ceiling=snapped["potential_ceiling"],
        denominator_total=total,
        denominator_recoverable=recoverable,
        denominator_annually_recoverable=annually_recoverable,
    )
    # Same numerator over shrinking positive denominators: the chain is arithmetic.
    assert report.apparent <= report.dissipative_adjusted <= report.real_rate
    return report
