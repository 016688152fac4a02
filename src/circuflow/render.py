"""Report rendering: plain tables, markdown, machine key-value lines, SVG.

Numbers are rounded half-away-from-zero at the configured precision, by
the helpers ``accounts`` also uses for its own messages; upstream every
other number is an exact quotient.  Machine format emits shortest-round-trip
floats, so identical inputs give byte-identical output.  SVG charts come
only from ``svg_metrics`` and ``svg_valuemap`` (SVG is not a ``RenderSpec``
format) and are emitted from small string templates on purpose: the tool
stays dependency-free.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .accounts import (
    MASS_BALANCE,
    ValidationOutcome,
    ValidationStatus,
    format_percent,
    round_half_away,
)
from .record import Record, set_field

if TYPE_CHECKING:
    from .accounts import MaterialFlowAccount
    from .metrics import CircularityReport
    from .valuemap import ValueAttribution

FORMAT_PLAIN = "plain"
FORMAT_MARKDOWN = "markdown"
FORMAT_MACHINE = "machine"
FORMATS = (FORMAT_PLAIN, FORMAT_MARKDOWN, FORMAT_MACHINE)

_METRIC_LABELS = (
    ("apparent", "apparent"),
    ("dissipative_adjusted", "dissipative-adjusted"),
    ("real_rate", "real"),
    ("potential_ceiling", "potential ceiling"),
)
_CATEGORY_LABELS = (
    ("reverse_flow", "reverse flows"),
    ("dissipative_flow", "dissipative flows"),
    ("stock_addition", "stock additions"),
    ("waste", "waste"),
    ("legacy_stock", "legacy stocks"),
)
_SEGMENT_COLORS = ("#2a9d8f", "#e9c46a", "#f4a261", "#9d9d9d", "#264653")


class RenderSpec(Record):
    """How to render a report.

    ``rounding`` is the number of decimal places for percentages (and, for
    table consistency, masses and money).  Rounding is half-away-from-zero:
    half-way values round up in magnitude, so e.g. 61.5% prints as 62% at
    zero places, never 61%.
    """

    __slots__ = ("format", "rounding", "include_provenance_footnotes")

    def __init__(
        self,
        format: str = FORMAT_PLAIN,
        rounding: int = 1,
        include_provenance_footnotes: bool = True,
    ) -> None:
        if format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, got {format!r}")
        if not isinstance(rounding, int) or rounding < 0:
            raise ValueError(f"rounding must be a non-negative integer, got {rounding!r}")
        set_field(self, "format", format)
        set_field(self, "rounding", rounding)
        set_field(self, "include_provenance_footnotes", include_provenance_footnotes)


def format_percent_delta(delta_fraction: float, places: int) -> str:
    return f"{round_half_away(delta_fraction * 100.0, places):+.{places}f} pp"


def format_mass(gigatonnes: float, places: int) -> str:
    return f"{round_half_away(gigatonnes, places):.{places}f} Gt"


def format_money(trillions: float, places: int) -> str:
    rounded = round_half_away(trillions, places)
    sign = "-" if rounded < 0 else ""
    return f"{sign}${abs(rounded):.{places}f}T"


def _plain_table(headers: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _markdown_table(headers: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _machine_lines(pairs: list[tuple[str, object]]) -> str:
    return "\n".join(f"{key} = {value!r}" for key, value in pairs) + "\n"


def render_validation(outcome: ValidationOutcome, spec: RenderSpec | None = None) -> str:
    """Human-readable validation report: status, residual, every check."""
    spec = spec or RenderSpec()
    lines = [f"validation: {outcome.status.value}"]
    share = (
        format_percent(outcome.residual_share, spec.rounding)
        if math.isfinite(outcome.residual_share)
        else "undefined share"
    )
    lines.append(
        f"residual: {format_mass(outcome.residual, spec.rounding)} ({share} of total input)"
    )
    lines.append("checks:")
    for check in outcome.checks:
        if not check.passed:
            marker = "FAIL"
        elif (
            check.invariant == MASS_BALANCE
            and outcome.status is ValidationStatus.PASS_WITH_WARNING
        ):
            marker = "warn"
        else:
            marker = "pass"
        lines.append(f"  [{marker}] {check.message}")
    return "\n".join(lines) + "\n"


def _metric_rows(report: CircularityReport, places: int) -> list[tuple[str, str, str]]:
    denominators = {
        "apparent": report.denominator_total,
        "dissipative_adjusted": report.denominator_recoverable,
        "real_rate": report.denominator_annually_recoverable,
        "potential_ceiling": report.denominator_total,
    }
    rates = report.rates()
    return [
        (label, format_percent(rates[key], places), format_mass(denominators[key], places))
        for key, label in _METRIC_LABELS
    ]


def render_metrics(report: CircularityReport, spec: RenderSpec | None = None) -> str:
    """Render the metric family in the requested format."""
    spec = spec or RenderSpec()
    if spec.format == FORMAT_MACHINE:
        return _machine_lines(
            [(key, rate) for key, rate in report.rates().items()]
            + [
                ("denominator_total", report.denominator_total),
                ("denominator_recoverable", report.denominator_recoverable),
                (
                    "denominator_annually_recoverable",
                    report.denominator_annually_recoverable,
                ),
            ]
        )
    rows = _metric_rows(report, spec.rounding)
    headers = ("metric", "rate", "denominator")
    table = (
        _markdown_table(headers, rows)
        if spec.format == FORMAT_MARKDOWN
        else _plain_table(headers, rows)
    )
    out = ["circularity metrics", "", table]
    if spec.include_provenance_footnotes:
        out += [
            "",
            f"note: rates are exact quotients rounded half-away-from-zero to "
            f"{spec.rounding} decimal place(s); half-way values round up in "
            "magnitude (61.5% prints as 62% at zero places, not 61%).",
        ]
    return "\n".join(out) + "\n"


#: Mass bins shown next to each value category when an account is supplied.
_CATEGORY_MASS_FIELDS = {
    "reverse_flow": "recycled_input",
    "dissipative_flow": "energetic_input",
    "stock_addition": "net_stock_additions",
    "waste": "waste_output",
}


def render_valuemap(
    attribution: ValueAttribution,
    spec: RenderSpec | None = None,
    *,
    account: MaterialFlowAccount | None = None,
    services_share: float | None = None,
) -> str:
    """Render the five-way GDP attribution; mass column shown when an account is given."""
    spec = spec or RenderSpec()
    if spec.format == FORMAT_MACHINE:
        pairs: list[tuple[str, object]] = [("gdp", attribution.gdp)]
        pairs += [
            (f"{key}_value", value) for key, value in attribution.values_by_category().items()
        ]
        pairs += [
            (f"{key}_share", share) for key, share in attribution.shares_by_category().items()
        ]
        if services_share is not None:
            pairs.append(("services_share", services_share))
        return _machine_lines(pairs)

    places = spec.rounding
    values = attribution.values_by_category()
    shares = attribution.shares_by_category()
    rows = []
    for key, label in _CATEGORY_LABELS:
        if account is not None:
            mass_field = _CATEGORY_MASS_FIELDS.get(key)
            mass = (
                format_mass(getattr(account, mass_field), places)
                if mass_field
                else "-"
            )
            rows.append(
                (label, mass, format_money(values[key], places), format_percent(shares[key], places))
            )
        else:
            rows.append((label, format_money(values[key], places), format_percent(shares[key], places)))
    headers = (
        ("category", "mass", "value", "share of GDP")
        if account is not None
        else ("category", "value", "share of GDP")
    )
    table = (
        _markdown_table(headers, rows)
        if spec.format == FORMAT_MARKDOWN
        else _plain_table(headers, rows)
    )
    out = [f"GDP value attribution ({format_money(attribution.gdp, places)} GDP)", "", table]
    if services_share is not None:
        out += ["", f"services share of GDP (context only): {format_percent(services_share, places)}"]
    if spec.include_provenance_footnotes:
        out += [
            "",
            "note: the whole waste-management sector value is booked to reverse "
            "flows; the part directly created by recovered-material flows is "
            "likely lower, so the reverse-flow share is an upper estimate.",
        ]
    return "\n".join(out) + "\n"


def _gdp_share_key(side: str, category: str) -> str:
    # "<side>_waste_share" already names the waste share of input.
    if category == "waste":
        return f"{side}_waste_gdp_share"
    return f"{side}_{category}_share"


def render_scenario_comparison(
    scenario_name: str,
    baseline_report: CircularityReport,
    baseline_attribution: ValueAttribution,
    baseline_waste_share: float,
    result_report: CircularityReport,
    result_attribution: ValueAttribution,
    result_waste_share: float,
    notes: tuple[str, ...] = (),
    spec: RenderSpec | None = None,
) -> str:
    """Side-by-side baseline vs transformed metrics and attribution, with deltas."""
    spec = spec or RenderSpec()
    places = spec.rounding

    metric_pairs: list[tuple[str, float, float]] = [
        (label, baseline_report.rates()[key], result_report.rates()[key])
        for key, label in _METRIC_LABELS
    ]
    metric_pairs.append(("waste share of input", baseline_waste_share, result_waste_share))

    share_pairs = [
        (f"{label} share of GDP", before, after)
        for (key, label), before, after in zip(
            _CATEGORY_LABELS,
            baseline_attribution.shares_by_category().values(),
            result_attribution.shares_by_category().values(),
        )
    ]

    if spec.format == FORMAT_MACHINE:
        pairs: list[tuple[str, object]] = []
        for key, _ in _METRIC_LABELS:
            pairs.append((f"baseline_{key}", baseline_report.rates()[key]))
            pairs.append((f"after_{key}", result_report.rates()[key]))
        pairs.append(("baseline_waste_share", baseline_waste_share))
        pairs.append(("after_waste_share", result_waste_share))
        for key, before in baseline_attribution.shares_by_category().items():
            pairs.append((_gdp_share_key("baseline", key), before))
        for key, after in result_attribution.shares_by_category().items():
            pairs.append((_gdp_share_key("after", key), after))
        for key, before in baseline_attribution.values_by_category().items():
            pairs.append((f"baseline_{key}_value", before))
        for key, after in result_attribution.values_by_category().items():
            pairs.append((f"after_{key}_value", after))
        return _machine_lines(pairs)

    def percent_rows(pairs_: list[tuple[str, float, float]]) -> list[tuple[str, ...]]:
        return [
            (
                label,
                format_percent(before, places),
                format_percent(after, places),
                format_percent_delta(after - before, places),
            )
            for label, before, after in pairs_
        ]

    def money_delta(delta: float) -> str:
        text = format_money(delta, places)
        return text if text.startswith("-") else "+" + text

    value_rows = [
        (
            label,
            format_money(before, places),
            format_money(after, places),
            money_delta(after - before),
        )
        for (key, label), before, after in zip(
            _CATEGORY_LABELS,
            baseline_attribution.values_by_category().values(),
            result_attribution.values_by_category().values(),
        )
    ]

    headers = ("quantity", "baseline", "after", "delta")
    make_table = _markdown_table if spec.format == FORMAT_MARKDOWN else _plain_table
    out = [
        f"scenario: {scenario_name}",
        "",
        make_table(headers, percent_rows(metric_pairs + share_pairs)),
        "",
        make_table(("value", "baseline", "after", "delta"), value_rows),
    ]
    if notes:
        out += [""] + ["notes:"] + [f"  - {note}" for note in notes]
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG text content."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg_document(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">'
    )
    return "\n".join([head] + body + ["</svg>"]) + "\n"


def svg_metrics(report: CircularityReport, spec: RenderSpec | None = None) -> str:
    """Waterfall of the shrinking denominators, annotated with the rates.

    One labeled text element per reported quantity (three denominators,
    three rates, the ceiling).
    """
    spec = spec or RenderSpec()
    places = spec.rounding
    width, height = 640, 400
    plot_left, plot_top, plot_bottom = 60, 70, 360
    bar_width, gap = 140, 50
    scale = (plot_bottom - plot_top) / max(report.denominator_total, 1e-300)

    bars = (
        ("total", "total input", report.denominator_total, "apparent", report.apparent),
        (
            "recoverable",
            "non-dissipative",
            report.denominator_recoverable,
            "dissipative-adjusted",
            report.dissipative_adjusted,
        ),
        (
            "annually-recoverable",
            "annually recoverable",
            report.denominator_annually_recoverable,
            "real",
            report.real_rate,
        ),
    )
    body = [
        f'<text id="title" x="{plot_left}" y="30" font-size="18">'
        "Circularity: shrinking denominators, rising rate</text>"
    ]
    for index, (slug, label, denominator, rate_name, rate) in enumerate(bars):
        x = plot_left + index * (bar_width + gap)
        bar_height = denominator * scale
        y = plot_bottom - bar_height
        color = _SEGMENT_COLORS[index % len(_SEGMENT_COLORS)]
        body.append(
            f'<rect id="bar-{slug}" x="{x:.1f}" y="{y:.1f}" width="{bar_width}" '
            f'height="{bar_height:.1f}" fill="{color}"/>'
        )
        body.append(
            f'<text id="denominator-{slug}" x="{x + bar_width / 2:.1f}" y="{plot_bottom + 20}" '
            f'font-size="13" text-anchor="middle">{_escape(label)}: '
            f"{format_mass(denominator, places)}</text>"
        )
        body.append(
            f'<text id="rate-{rate_name}" x="{x + bar_width / 2:.1f}" y="{y - 8:.1f}" '
            f'font-size="14" text-anchor="middle">{_escape(rate_name)} '
            f"{format_percent(rate, places)}</text>"
        )
    body.append(
        f'<text id="rate-potential-ceiling" x="{width - 20}" y="30" font-size="13" '
        f'text-anchor="end">ceiling {format_percent(report.potential_ceiling, places)}</text>'
    )
    return _svg_document(width, height, body)


def svg_valuemap(attribution: ValueAttribution, spec: RenderSpec | None = None) -> str:
    """Stacked horizontal bar of GDP shares with a five-entry legend."""
    spec = spec or RenderSpec()
    places = spec.rounding
    width, height = 640, 260
    bar_left, bar_top, bar_width, bar_height = 20, 60, 600, 48
    shares = attribution.shares_by_category()
    values = attribution.values_by_category()

    body = [
        f'<text id="title" x="{bar_left}" y="30" font-size="18">'
        "GDP value by resource-flow category</text>"
    ]
    x = bar_left
    for index, (key, label) in enumerate(_CATEGORY_LABELS):
        segment = shares[key] * bar_width
        if segment > 0:
            body.append(
                f'<rect id="segment-{key}" x="{x:.2f}" y="{bar_top}" width="{segment:.2f}" '
                f'height="{bar_height}" fill="{_SEGMENT_COLORS[index % len(_SEGMENT_COLORS)]}"/>'
            )
        x += segment
    for index, (key, label) in enumerate(_CATEGORY_LABELS):
        y = bar_top + bar_height + 28 + index * 20
        body.append(
            f'<rect x="{bar_left}" y="{y - 11}" width="12" height="12" '
            f'fill="{_SEGMENT_COLORS[index % len(_SEGMENT_COLORS)]}"/>'
        )
        body.append(
            f'<text id="share-{key}" x="{bar_left + 18}" y="{y}" font-size="13">'
            f"{_escape(label)}: {format_percent(shares[key], places)} "
            f"({format_money(values[key], places)})</text>"
        )
    if spec.include_provenance_footnotes:
        body.append(
            f'<text id="footnote" x="{bar_left}" y="{height - 8}" font-size="11" fill="#555">'
            "waste-management value booked wholly to reverse flows; direct share likely lower"
            "</text>"
        )
    return _svg_document(width, height, body)
