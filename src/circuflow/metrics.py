"""The four-member circularity metric family.

All four are quotients over one account, differing only in how much of the
input is admitted to the denominator:

    apparent              recycled / total
    dissipative-adjusted  recycled / (total - energetic)
    real                  recycled / (total - energetic - net stock additions)
    potential ceiling     (total - energetic) / total

``DENOMINATORS`` and ``RATES`` state each formula, label and error context
once; the functions here, the renderers and the scenario recovery and divert
steps read them.
Metrics return exact quotients; rounding to presentation percentages is
the rendering layer's job.  Zero denominators raise named errors instead
of collapsing to 0 or 1: a fully dissipative economy has no defined
circularity, which is worth saying out loud.
"""

from __future__ import annotations

from .accounts import MaterialFlowAccount, _significant
from .errors import MetricDomainError, UndefinedDenominatorError
from .record import Record, float_dust

#: (report field, label, account fields: the first minus the rest), in report order.
DENOMINATORS = (
    ("denominator_total", "total input", ("total_input",)),
    ("denominator_recoverable", "non-dissipative", ("total_input", "energetic_input")),
    (
        "denominator_annually_recoverable",
        "annually recoverable",
        ("total_input", "energetic_input", "net_stock_additions"),
    ),
)

#: (rate key, label, error context, numerator field, denominator field), in report order.
RATES = (
    ("apparent", "apparent", "apparent_circularity", "recycled_input", "denominator_total"),
    (
        "dissipative_adjusted",
        "dissipative-adjusted",
        "dissipative_adjusted_circularity",
        "recycled_input",
        "denominator_recoverable",
    ),
    ("real_rate", "real", "real_circularity", "recycled_input", "denominator_annually_recoverable"),
    (
        "potential_ceiling",
        "potential ceiling",
        "potential_ceiling",
        "denominator_recoverable",
        "denominator_total",
    ),
)
_RATE_ROWS = {row[0]: row for row in RATES}
_DENOMINATOR_FIELDS = {key: fields for key, _, fields in DENOMINATORS}
_DENOMINATOR_TEXT = {key: " - ".join(fields) for key, fields in _DENOMINATOR_FIELDS.items()}


def _mass(account: MaterialFlowAccount, fields: tuple[str, ...]) -> float:
    """One ``DENOMINATORS`` row's mass of ``account``: its first field minus the rest."""
    mass = getattr(account, fields[0])
    for name in fields[1:]:
        mass -= getattr(account, name)
    return mass


def _masses(account: MaterialFlowAccount) -> dict[str, float]:
    """Every ``DENOMINATORS`` mass of ``account``, by report field."""
    return {key: _mass(account, fields) for key, fields in _DENOMINATOR_FIELDS.items()}


class CircularityReport(Record):
    """The metric family plus the three mass denominators it used (Gt).

    Its fields are ``float``: the ``RATES`` keys, then the ``DENOMINATORS`` keys.
    """

    __slots__ = tuple(row[0] for row in RATES + DENOMINATORS)

    def rates(self) -> dict[str, float]:
        return {key: getattr(self, key) for key in _RATE_ROWS}


def _rate(account: MaterialFlowAccount, masses: dict[str, float], row: tuple) -> float:
    """One ``RATES`` row's quotient; only its own denominator is checked, never the numerator."""
    _, _, context, numerator, denominator = row
    if masses[denominator] <= 0:
        raise UndefinedDenominatorError(_DENOMINATOR_TEXT[denominator], context)
    top = masses[numerator] if numerator in masses else getattr(account, numerator)
    return top / masses[denominator]


def apparent_circularity(account: MaterialFlowAccount) -> float:
    """Recycled share of all resource input (the headline circularity rate)."""
    return _rate(account, _masses(account), _RATE_ROWS["apparent"])


def dissipative_adjusted_circularity(account: MaterialFlowAccount) -> float:
    """Recycled share of the non-dissipative input (total minus energetic)."""
    return _rate(account, _masses(account), _RATE_ROWS["dissipative_adjusted"])


def real_circularity(account: MaterialFlowAccount) -> float:
    """Recycled share of the annually recoverable input.

    Denominator excludes both the dissipative share and this year's net
    stock additions.  The raw quotient is returned; it exceeds 1 when the
    reverse flow is larger than the annually recoverable pool (a state
    ``metric_suite`` refuses to report).
    """
    return _rate(account, _masses(account), _RATE_ROWS["real_rate"])


def potential_ceiling(account: MaterialFlowAccount) -> float:
    """Maximum apparent circularity attainable with zero losses.

    The dissipative share of input can never come back as original
    material, so the ceiling is the non-energetic share of total input.
    """
    return _rate(account, _masses(account), _RATE_ROWS["potential_ceiling"])


def metric_suite(account: MaterialFlowAccount) -> CircularityReport:
    """Assemble the four metrics and the denominators they divide by.

    The caller is expected to have validated the account.  Denominator
    errors from individual metrics propagate (each names its metric);
    a rate outside [0, 1] raises MetricDomainError.
    """
    masses = _masses(account)
    # Every quotient first: an undefined denominator outranks a domain error.
    rates = [(row, _rate(account, masses, row)) for row in RATES]
    snapped = []
    for (key, _, _, _, denominator), rate in rates:
        if 1.0 < rate <= 1.0 + float_dust(masses["denominator_total"]) / masses[denominator]:
            rate = 1.0
        elif not 0.0 <= rate <= 1.0:
            detail = ""
            if key == "real_rate" and rate > 1.0:
                detail = (
                    f": recycled_input ({_significant(account.recycled_input)} Gt) exceeds "
                    f"the annually recoverable pool ({_significant(masses[denominator])} Gt)"
                )
            raise MetricDomainError(f"{key} = {_significant(rate)} is outside [0, 1]{detail}")
        snapped.append(rate)
    report = CircularityReport(*snapped, *masses.values())
    # Same numerator over shrinking positive denominators: the chain is arithmetic.
    assert report.apparent <= report.dissipative_adjusted <= report.real_rate
    return report
