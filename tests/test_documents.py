"""Unit tests for the flat key-value document layer."""

import contextlib
import re
import warnings

import pytest

from circuflow import (
    DEFAULT_BALANCE_TOLERANCE,
    DEFAULT_CFC_RATE,
    DivertWasteToStock,
    DocumentError,
    EconomicAccount,
    MaterialFlowAccount,
    ProvenanceWarning,
    ScaleReverseFlowValue,
    Scenario,
    SetRecoveryRate,
)
from circuflow.accounts import CANONICAL_MASS_UNIT, MASS_FIELDS
from circuflow.documents import (
    ACCOUNT_SCHEMA,
    ECONOMY_SCHEMA,
    SCENARIO_SCHEMA,
    parse_account,
    parse_economy,
    parse_scenario,
    render_account,
    render_economy,
    render_scenario,
)
from support import (
    ACCOUNT_PATH,
    ECONOMY_PATH,
    FULL_RECOVERY_PATH,
    REPO_ROOT,
    WASTE_DIVERSION_PATH,
    reference_account,
    reference_economy,
)

ACCOUNT_TEXT = ACCOUNT_PATH.read_text()
ECONOMY_TEXT = ECONOMY_PATH.read_text()


class TestParseAccount:
    def test_reference_file(self):
        account = parse_account(ACCOUNT_TEXT)
        assert account == reference_account()

    def test_unit_conversion_on_load(self):
        text = ACCOUNT_TEXT.replace("unit = Gt", "unit = Mt")
        account = parse_account(text)
        assert float(account.total_input) == pytest.approx(0.104, rel=1e-12)

    def test_unit_defaults_to_gigatonnes(self):
        text = "\n".join(
            line for line in ACCOUNT_TEXT.splitlines() if not line.startswith("unit")
        )
        assert parse_account(text) == reference_account()

    def test_unknown_key_rejected(self):
        with pytest.raises(DocumentError, match="unknown key"):
            parse_account(ACCOUNT_TEXT + "\nimports = 12\n")

    def test_missing_field_is_named(self):
        text = "\n".join(
            line for line in ACCOUNT_TEXT.splitlines() if not line.startswith("waste_output")
        )
        with pytest.raises(DocumentError, match="waste_output"):
            parse_account(text)

    def test_negative_mass_names_field_and_line(self):
        text = ACCOUNT_TEXT.replace("recycled_input = 9", "recycled_input = -9")
        with pytest.raises(DocumentError, match="recycled_input") as info:
            parse_account(text)
        assert info.value.line is not None

    def test_duplicate_key_rejected(self):
        with pytest.raises(DocumentError, match="duplicate"):
            parse_account(ACCOUNT_TEXT + "\nyear = 2021\n")

    def test_not_a_number(self):
        with pytest.raises(DocumentError, match="total_input must be a number, got 'many'"):
            parse_account(ACCOUNT_TEXT.replace("total_input = 104", "total_input = many"))

    def test_garbage_line(self):
        with pytest.raises(DocumentError, match="key = value"):
            parse_account("just some words\n")

    def test_missing_value_names_key(self):
        with pytest.raises(DocumentError, match="year"):
            parse_account("year =\n")

    def test_missing_key_rejected(self):
        with pytest.raises(DocumentError, match="missing key"):
            parse_account("= 104\n")

    def test_explicit_tolerance_beats_default(self):
        text = ACCOUNT_TEXT + "\nbalance_tolerance = 0.02\n"
        account = parse_account(text, default_tolerance=0.5)
        assert account.balance_tolerance == 0.02

    def test_default_tolerance_applies_when_absent(self):
        account = parse_account(ACCOUNT_TEXT, default_tolerance=0.02)
        assert account.balance_tolerance == 0.02

    @pytest.mark.parametrize(
        "tolerance, message",
        [
            (2.0, "a fraction in [0, 1], got 2.0"),
            (True, "a real number, got True"),
            (float("nan"), "a fraction in [0, 1], got nan"),
            (-0.1, "a fraction in [0, 1], got -0.1"),
        ],
        ids=["above_one", "bool", "nan", "negative"],
    )
    def test_a_bad_default_tolerance_names_the_argument(self, tolerance, message):
        # the argument is judged before the text: the sound document is not blamed
        with pytest.raises(ValueError) as info:
            parse_account(ACCOUNT_TEXT, default_tolerance=tolerance)
        assert str(info.value) == f"default_tolerance must be {message}"


class TestParseEconomy:
    def test_reference_file(self):
        economy = parse_economy(ECONOMY_TEXT)
        assert economy == reference_economy()

    def test_missing_cfc_defaults_with_warning(self):
        text = "\n".join(
            line for line in ECONOMY_TEXT.splitlines() if not line.startswith("cfc_rate")
        )
        with pytest.warns(ProvenanceWarning, match="cfc_rate"):
            economy = parse_economy(text)
        assert economy.cfc_rate == 0.13

    @pytest.mark.parametrize(
        "sectors",
        ["a, -1, reverse_flow", "a, 1e308, reverse_flow\nsector = b, 1e308, dissipative_flow"],
        ids=["bad entry", "overflowing sum"],
    )
    def test_a_rejected_document_gets_no_cfc_warning(self, sectors):
        text = f"year = 2020\ngdp = 1.7e308\ngfcf_rate = 0.26\nsector = {sectors}\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error", ProvenanceWarning)
            with pytest.raises(DocumentError, match="sector"):
                parse_economy(text)

    def test_bad_sector_shape(self):
        with pytest.raises(DocumentError, match="sector"):
            parse_economy(ECONOMY_TEXT + "\nsector = only_a_name\n")

    def test_bad_sector_category(self):
        with pytest.raises(DocumentError, match="category"):
            parse_economy(ECONOMY_TEXT + "\nsector = x, 1.0, sideways_flow\n")

    def test_rate_out_of_range(self):
        with pytest.raises(DocumentError, match="gfcf_rate"):
            parse_economy(ECONOMY_TEXT.replace("gfcf_rate = 0.26", "gfcf_rate = 1.26"))

    def test_non_finite_gdp_rejected(self):
        with pytest.raises(DocumentError, match="gdp"):
            parse_economy(ECONOMY_TEXT.replace("gdp = 86", "gdp = inf"))


class TestParseScenario:
    def test_shipped_full_recovery(self):
        scenario = parse_scenario(FULL_RECOVERY_PATH.read_text())
        assert scenario == Scenario(
            "full_recovery", (SetRecoveryRate(1.0), ScaleReverseFlowValue(True))
        )

    def test_shipped_waste_diversion(self):
        scenario = parse_scenario(WASTE_DIVERSION_PATH.read_text())
        assert scenario == Scenario("waste_diversion", (DivertWasteToStock(0.5),))

    def test_fraction_out_of_range_rejected_at_parse(self):
        with pytest.raises(DocumentError, match=r"\[0, 1\]"):
            parse_scenario("name = x\nstep = set_recovery_rate, 1.5\n")

    def test_unknown_op(self):
        with pytest.raises(DocumentError, match="unknown op"):
            parse_scenario("name = x\nstep = melt_everything, 0.5\n")

    def test_flag_must_be_on_or_off(self):
        with pytest.raises(DocumentError, match="on"):
            parse_scenario("name = x\nstep = scale_reverse_flow_value, maybe\n")

    def test_name_required(self):
        with pytest.raises(DocumentError, match="name"):
            parse_scenario("step = set_recovery_rate, 0.5\n")


class TestByteOrderMark:
    @pytest.mark.parametrize(
        "parse,path",
        [
            (parse_account, ACCOUNT_PATH),
            (parse_economy, ECONOMY_PATH),
            (parse_scenario, FULL_RECOVERY_PATH),
        ],
    )
    def test_one_leading_bom_is_ignored(self, parse, path):
        text = path.read_text()
        assert parse("\ufeff" + text) == parse(text)


class TestConstructorErrors:
    def test_overflowing_sum_is_a_document_error(self):
        text = (
            ACCOUNT_TEXT.replace("total_input = 104", "total_input = 1.7e308")
            .replace("energetic_input = 40", "energetic_input = 1e308")
            .replace("structural_input = 64", "structural_input = 1e308")
        )
        with pytest.raises(DocumentError, match="energetic"):
            parse_account(text)

    def test_overflowing_sector_sum_is_a_document_error(self):
        text = ECONOMY_TEXT.replace("gdp = 86", "gdp = 1.7e308") + (
            "sector = a, 1e308, reverse_flow\nsector = b, 1e308, dissipative_flow\n"
        )
        with pytest.raises(DocumentError, match="sector value sum overflows"):
            parse_economy(text)


class TestRoundTrip:
    def test_account(self, account):
        assert parse_account(render_account(account)) == account

    def test_account_with_awkward_floats(self):
        account = reference_account(
            total_input=104.123456789,
            structural_input=64.123456789,
            recycled_input=9.000000001,
        )
        assert parse_account(render_account(account)) == account

    def test_economy(self, economy):
        assert parse_economy(render_economy(economy)) == economy

    def test_economy_without_optional_fields(self):
        economy = reference_economy(services_share=None, sectors=())
        assert parse_economy(render_economy(economy)) == economy

    def test_scenario(self):
        scenario = Scenario(
            "mixed",
            (
                SetRecoveryRate(1.0 / 3.0),
                DivertWasteToStock(0.25),
                ScaleReverseFlowValue(False),
            ),
        )
        assert parse_scenario(render_scenario(scenario)) == scenario


def _docs_table_columns():
    """The key, type and required cells of each table in docs/file-formats.md."""
    tables = []
    rows = None
    for line in (REPO_ROOT / "docs" / "file-formats.md").read_text(encoding="utf-8").splitlines():
        if not line.startswith("|"):
            rows = None
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if rows is None:  # the header row opens a table
            rows = []
            tables.append(rows)
        elif set(cells[0]) - set("-: "):  # skip the |---| rule
            rows.append((cells[0].strip("`"), cells[1], cells[2]))
    return tables


def test_docs_tables_match_the_schemas():
    assert _docs_table_columns() == [
        [(key, kind, "yes" if required else "no") for key, (kind, required, _) in schema.items()]
        for schema in (ACCOUNT_SCHEMA, ECONOMY_SCHEMA, SCENARIO_SCHEMA)
    ]


def test_docs_notes_state_the_defaults_the_code_uses():
    notes = {}
    for line in (REPO_ROOT / "docs" / "file-formats.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            notes.setdefault(cells[0].strip("`"), []).append(cells[3])

    def stated(key, pattern):
        (note,) = notes[key]  # each key below has one row across the tables
        (figure,) = re.findall(pattern, note)
        return figure

    assert stated("unit", r"\(default `(\w+)`\)") == CANONICAL_MASS_UNIT
    assert float(stated("balance_tolerance", r"\(default ([0-9.]+);")) == DEFAULT_BALANCE_TOLERANCE
    assert float(stated("cfc_rate", r"defaults to ([0-9.]+) ")) == DEFAULT_CFC_RATE


@pytest.mark.parametrize(
    "record,key,field",
    [
        (reference_account(balance_tolerance=0.1), "balance_tolerance", "balance_tolerance"),
        (reference_economy(cfc_rate=0.2), "cfc_rate", "cfc_rate"),
        (reference_economy(), "services_share", "services_share"),
        (reference_economy(), "sector", "sectors"),
        (parse_scenario(FULL_RECOVERY_PATH.read_text()), "step", "steps"),
    ],
    ids=["balance_tolerance", "cfc_rate", "services_share", "sector", "step"],
)
def test_an_omitted_optional_key_takes_the_constructor_default(record, key, field):
    render, parse, options = {
        MaterialFlowAccount: (render_account, parse_account, {"default_tolerance": None}),
        EconomicAccount: (render_economy, parse_economy, {}),
        Scenario: (render_scenario, parse_scenario, {}),
    }[type(record)]
    lines = render(record).splitlines()
    kept = [line for line in lines if not line.startswith(f"{key} = ")]
    assert len(kept) < len(lines)
    expected = type(record)(
        **{name: getattr(record, name) for name in type(record).__slots__ if name != field}
    )
    assert expected != record
    warns = pytest.warns(ProvenanceWarning) if key == "cfc_rate" else contextlib.nullcontext()
    with warns:
        assert parse("\n".join(kept) + "\n", **options) == expected


def test_several_faults_report_the_first_in_the_documented_order():
    """docs/file-formats.md: grammar, keys, missing keys, values, then across values."""

    def fault(parse, lines):
        with pytest.raises(DocumentError) as info:
            parse("\n".join(lines) + "\n")
        return info.value.line, info.value.field, str(info.value)

    overflowing = [f"{name} = 1e308" for name in MASS_FIELDS]
    lines = ["balance_tolerance = 2", "year = 20x0", "bogus = 1", "year = 2021", "just words"]
    assert fault(parse_account, lines)[0] == 5
    assert fault(parse_account, lines[:4])[:2] == (3, "bogus")
    assert fault(parse_account, lines[:2] + lines[3:4])[:2] == (3, "year")
    assert fault(parse_account, lines[:2])[:2] == (None, "total_input")
    assert fault(parse_account, lines[:2] + overflowing)[:2] == (2, "year")
    assert fault(parse_account, lines[:1] + overflowing + ["year = 2020"])[:2] == (
        1,
        "balance_tolerance",
    )
    line, field, message = fault(parse_account, overflowing + ["year = 2020"])
    assert (line, field) == (None, None) and "overflows to infinity" in message

    economy = [
        "sector = x, -1, reverse_flow",
        "year = 2020",
        "gdp = -86",
        "gfcf_rate = 0.26",
        "cfc_rate = 0.13",
    ]
    assert fault(parse_economy, economy)[:2] == (3, "gdp")
    assert fault(parse_economy, economy[:2] + ["gdp = 86"] + economy[3:])[:2] == (1, "sector")

    # A bad entry is a value fault of the last row, so every later-ranked
    # fault wins over it, wherever its line.  The order needs the repeated
    # row to be the last row of each table.
    for schema in (ACCOUNT_SCHEMA, ECONOMY_SCHEMA, SCENARIO_SCHEMA):
        assert "repeated" not in [kind for kind, _, _ in schema.values()][:-1]
    year, gdp, gfcf, cfc = "year = 2020", "gdp = 86", "gfcf_rate = 0.26", "cfc_rate = 0.13"
    bad_sector = "sector = x, -1, reverse_flow"
    assert fault(parse_economy, [bad_sector, year, gdp, gfcf, cfc, "bogus = 1"])[:2] == (
        6,
        "bogus",
    )
    line, field, message = fault(parse_economy, [bad_sector, year, gdp, gfcf, cfc, "gdp = 87"])
    assert (line, field) == (6, "gdp") and "first seen on line 3" in message
    line, field, message = fault(parse_economy, [bad_sector, year, gdp, gfcf, cfc, "just words"])
    assert (line, field) == (6, None) and "expected 'key = value'" in message
    assert fault(parse_economy, [bad_sector, year, gdp, cfc])[:2] == (None, "gfcf_rate")
    assert fault(parse_economy, [bad_sector, year, gdp, "gfcf_rate = 1.5", cfc])[:2] == (
        4,
        "gfcf_rate",
    )
    line, field, message = fault(parse_economy, [year, gdp, "sector = y", gfcf, bad_sector, cfc])
    assert (line, field) == (3, "sector") and "expected 'sector = name, value" in message
    line, field, message = fault(
        parse_economy, [year, bad_sector, gdp, "sector = y, 1, sideways_flow", gfcf, cfc]
    )
    assert (line, field) == (2, "sector") and "non-negative" in message

    # A scenario's one scalar, name, reads any text, so it has no bad value.
    bad_step = "step = set_recovery_rate, 1.5"
    assert fault(parse_scenario, [bad_step, "name = x", "bogus = 1"])[:2] == (3, "bogus")
    line, field, message = fault(parse_scenario, [bad_step, "name = x", "name = y"])
    assert (line, field) == (3, "name") and "first seen on line 2" in message
    line, field, message = fault(parse_scenario, [bad_step, "name = x", "just words"])
    assert (line, field) == (3, None) and "expected 'key = value'" in message
    assert fault(parse_scenario, [bad_step])[:2] == (None, "name")
    line, field, message = fault(
        parse_scenario, ["name = x", "step = melt, 1", bad_step, "step = a, b, c"]
    )
    assert (line, field) == (2, "step") and "unknown op 'melt'" in message
    line, field, message = fault(parse_scenario, ["step = a, b, c", bad_step, "name = x"])
    assert (line, field) == (1, "step") and "expected 'step = op, parameter'" in message


LINE_BREAKS = ("\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _padded(lines, pad):
    """``lines`` with ``pad`` on both sides of each key and value."""
    padded = []
    for line in lines:
        key, equals, value = line.partition("=")
        if equals and not line.startswith("#"):
            line = f"{pad}{key.strip()}{pad}={pad}{value.strip()}{pad}"
        padded.append(line)
    return padded


@pytest.mark.parametrize("newline", LINE_BREAKS, ids=repr)
@pytest.mark.parametrize(
    "parse,path",
    [(parse_economy, ECONOMY_PATH), (parse_scenario, FULL_RECOVERY_PATH)],
    ids=["economy", "scenario"],
)
class TestLineBreaksAndWhitespace:
    """Every ``str.splitlines`` break ends a line; whitespace around keys and values is dropped."""

    def test_each_break_reads_like_a_newline(self, parse, path, newline):
        lines = path.read_text().splitlines()
        expected = parse("\n".join(lines) + "\n")
        for bom in ("", "\ufeff"):
            for pad in ("", "\x1f", "\u3000", " \x1f\u3000\t"):
                assert parse(bom + newline.join(_padded(lines, pad)) + newline) == expected

    def test_a_fault_names_its_line(self, parse, path, newline):
        lines = path.read_text().splitlines()
        faults = {
            "just words": "expected 'key = value'",
            "year # = 2020": "expected 'key = value'",
            "\u3000bogus\x1f= 1": "unknown key",
        }
        for bom in ("", "\ufeff"):
            for number in (1, 2, len(lines)):
                for bad, message in faults.items():
                    faulty = lines[: number - 1] + [bad] + lines[number:]
                    with pytest.raises(DocumentError) as info:
                        parse(bom + newline.join(faulty))
                    assert info.value.line == number and message in str(info.value)
