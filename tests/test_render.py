"""Unit tests for rounding, formatting and report rendering."""

import contextlib
import math
import xml.etree.ElementTree as ET
from decimal import ROUND_HALF_UP, Decimal

import pytest

from circuflow import attribute_value, metric_suite, validate
from circuflow.accounts import MAX_PLACES, format_percent, render_validation, round_half_away
from circuflow.errors import StockDepletionWarning
from circuflow.render import (
    RenderSpec,
    format_money,
    render_metrics,
    render_valuemap,
    svg_metrics,
    svg_valuemap,
)
from support import reference_account, reference_economy


def _element_ids(svg_text: str) -> set[str]:
    root = ET.fromstring(svg_text)  # raises on malformed XML
    return {el.get("id") for el in root.iter() if el.get("id")}


class TestRounding:
    @pytest.mark.parametrize(
        "value,places,expected",
        [
            (61.5, 0, 62.0),  # ties away from zero, never truncation
            (0.5, 0, 1.0),
            (-0.5, 0, -1.0),
            (8.653846, 1, 8.7),
            (14.0625, 1, 14.1),
            (27.2727, 1, 27.3),
            (2.8846, 1, 2.9),
            (0.125, 2, 0.13),
        ],
    )
    def test_half_away_from_zero(self, value, places, expected):
        assert round_half_away(value, places) == expected

    def test_matches_decimal_oracle_on_many_values(self):
        # independent oracle: decimal quantization of the repr
        for i in range(-500, 500):
            value = i / 7.0
            for places in (0, 1, 2):
                oracle = float(
                    Decimal(repr(value)).quantize(
                        Decimal(1).scaleb(-places), rounding=ROUND_HALF_UP
                    )
                )
                assert round_half_away(value, places) == oracle

    @pytest.mark.parametrize("value", [104.0, 9.0 / 104.0 * 100.0, 1.7e308])
    def test_more_digits_than_the_default_decimal_context(self, value):
        # 28 significant digits is decimal's default; quantize used to raise past it
        assert round_half_away(value, 40) == value
        assert round_half_away(-value, 26) == -value

    @pytest.mark.parametrize("places", [-5, -1, 401, 5_000_000])
    def test_places_outside_0_to_400_raise_one_named_error(self, places):
        # these used to raise decimal.InvalidOperation, a decimal-context
        # ValueError, or (at -1 and 401) round silently
        message = rf"^places must be from 0 to 400, got {places}$"
        with pytest.raises(ValueError, match=message):
            round_half_away(1234.5, places)
        with pytest.raises(ValueError, match=message):
            round_half_away(math.inf, places)

    def test_places_bound_is_the_render_spec_bound(self):
        assert round_half_away(1234.5, MAX_PLACES) == 1234.5
        assert RenderSpec(rounding=MAX_PLACES).rounding == MAX_PLACES == 400

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinities_pass_through(self, value):
        assert round_half_away(value, 1) == value
        assert math.isnan(round_half_away(math.nan, 1))

    def test_format_percent(self):
        assert format_percent(9.0 / 104.0, 1) == "8.7%"
        assert format_percent(9.0 / 104.0, 0) == "9%"
        assert format_percent(64.0 / 104.0, 0) == "62%"

    def test_format_money(self):
        assert format_money(11.18, 2) == "$11.18T"
        assert format_money(11.18, 0) == "$11T"
        assert format_money(-2.5, 1) == "-$2.5T"


class TestRenderSpec:
    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            RenderSpec(format="pdf")

    def test_rejects_negative_rounding(self):
        with pytest.raises(ValueError, match="rounding"):
            RenderSpec(rounding=-1)

    def test_rounding_is_bounded_at_400_places(self):
        assert RenderSpec(rounding=400).rounding == 400
        with pytest.raises(ValueError, match=r"^rounding must be at most 400, got 401$"):
            RenderSpec(rounding=401)

    @pytest.mark.parametrize("rounding", [True, False])
    def test_rejects_bool_rounding(self, rounding):
        # bool is an int subclass; True used to print one decimal place
        with pytest.raises(ValueError, match="rounding must be a non-negative integer"):
            RenderSpec(rounding=rounding)

    @pytest.mark.parametrize("flag", ["no", "", 0, 1, None])
    def test_rejects_footnote_flag_that_is_not_a_bool(self, flag):
        # "no" is truthy: stored as given, it used to print the footnotes
        with pytest.raises(ValueError, match="include_provenance_footnotes must be a bool"):
            RenderSpec(include_provenance_footnotes=flag)


class TestRenderMetrics:
    def test_markdown_contains_reference_percentages(self, account):
        text = render_metrics(metric_suite(account), RenderSpec(format="markdown"))
        for expected in ("8.7%", "14.1%", "27.3%", "61.5%", "104.0 Gt", "33.0 Gt"):
            assert expected in text

    def test_rounding_zero_matches_headline_figures(self, account):
        text = render_metrics(metric_suite(account), RenderSpec(rounding=0))
        for expected in ("9%", "14%", "27%", "62%"):
            assert expected in text

    def test_machine_text_is_unrounded_and_deterministic(self, account):
        spec = RenderSpec(format="machine")
        first = render_metrics(metric_suite(account), spec)
        second = render_metrics(metric_suite(account), spec)
        assert first == second
        assert "apparent = 0.08653846153846154" in first

    def test_footnote_can_be_dropped(self, account):
        text = render_metrics(
            metric_suite(account), RenderSpec(include_provenance_footnotes=False)
        )
        assert "note:" not in text


class TestRenderValidation:
    def test_reference_report_mentions_residual(self, account):
        text = render_validation(validate(account))
        assert "pass-with-warning" in text
        assert "3.0 Gt" in text
        assert "2.9%" in text
        assert text.count("[pass]") == 4
        assert text.count("[warn]") == 1

    def test_failing_account_lists_violations(self, account):
        text = render_validation(validate(reference_account(total_input=100.0)))
        assert "fail" in text
        assert "[FAIL]" in text


class TestRenderValuemap:
    def test_plain_table_shows_shares_and_masses(self, account, economy):
        text = render_valuemap(
            attribute_value(economy),
            RenderSpec(),
            account=account,
            services_share=economy.services_share,
        )
        for expected in ("1.4%", "17.4%", "13.0%", "0.0%", "68.2%", "9.0 Gt", "65.0%"):
            assert expected in text
        assert "booked to reverse flows" in text

    def test_machine_contains_exact_residual(self, economy):
        text = render_valuemap(attribute_value(economy), RenderSpec(format="machine"))
        assert "legacy_stock_value = 58.620000000000005" in text

    def test_svg_is_not_a_render_format(self):
        # SVG comes only from svg_metrics / svg_valuemap.
        with pytest.raises(ValueError, match="format must be one of"):
            RenderSpec(format="svg")


class TestRenderScenarioComparison:
    def test_markdown_has_delta_columns(self, account, economy):
        from circuflow import Scenario, SetRecoveryRate, apply_scenario, waste_share
        from circuflow.render import render_scenario_comparison

        result = apply_scenario(account, economy, Scenario("s", (SetRecoveryRate(1.0),)))
        text = render_scenario_comparison(
            "s",
            metric_suite(account),
            attribute_value(economy),
            waste_share(account),
            result.report,
            result.attribution,
            waste_share(result.account),
            notes=result.notes,
            spec=RenderSpec(format="markdown"),
        )
        assert "| quantity | baseline | after | delta |" in text
        assert "+72.7 pp" in text
        assert "notes:" in text


class TestSvg:
    def test_metrics_chart_is_well_formed_with_labeled_quantities(self, account):
        svg = svg_metrics(metric_suite(account))
        ids = _element_ids(svg)
        assert {
            "denominator-total",
            "denominator-recoverable",
            "denominator-annually-recoverable",
            "rate-apparent",
            "rate-dissipative-adjusted",
            "rate-real",
            "rate-potential-ceiling",
        } <= ids
        for expected in ("104.0 Gt", "64.0 Gt", "33.0 Gt", "8.7%", "14.1%", "27.3%", "61.5%"):
            assert expected in svg

    def test_valuemap_chart_labels_every_category(self, economy):
        svg = svg_valuemap(attribute_value(economy))
        ids = _element_ids(svg)
        assert {
            "share-reverse_flow",
            "share-dissipative_flow",
            "share-stock_addition",
            "share-waste",
            "share-legacy_stock",
            "footnote",
        } <= ids
        for expected in ("1.4%", "17.4%", "13.0%", "68.2%"):
            assert expected in svg

    @pytest.mark.parametrize("gfcf_rate", [0.26, 0.13, 0.10, 0.0])
    def test_valuemap_segments_do_not_overlap(self, gfcf_rate):
        # Below cfc_rate = 0.13 the stock share is negative and its segment is not drawn.
        with pytest.warns(StockDepletionWarning) if gfcf_rate < 0.13 else contextlib.nullcontext():
            attribution = attribute_value(reference_economy(gfcf_rate=gfcf_rate))
        segments = [
            (float(rect.get("x")), float(rect.get("width")))
            for rect in ET.fromstring(svg_valuemap(attribution)).iter()
            if rect.get("id", "").startswith("segment-")
        ]
        assert len(segments) == 3 + (gfcf_rate > 0.13)
        for (x, width), (next_x, _) in zip(segments, segments[1:]):
            assert next_x >= x + width - 0.01  # each edge is printed to two places

    @pytest.mark.parametrize("gfcf_rate", [0.26, 0.13, 0.10, 0.0])
    def test_valuemap_bar_ends_at_its_right_edge(self, gfcf_rate):
        # The bar spans 600 px from x = 20, also when a negative stock share is left out.
        with pytest.warns(StockDepletionWarning) if gfcf_rate < 0.13 else contextlib.nullcontext():
            attribution = attribute_value(reference_economy(gfcf_rate=gfcf_rate))
        last = [
            rect
            for rect in ET.fromstring(svg_valuemap(attribution)).iter()
            if rect.get("id", "").startswith("segment-")
        ][-1]
        assert 619.99 <= float(last.get("x")) + float(last.get("width")) <= 620.01
