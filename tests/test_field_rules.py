"""One message per field rule, wherever a value enters.

A value that breaks a rule is fed to every site that judges it: a record
field, a document key, a scenario step and the CLI's environment.  Text
that does not read as a number or an integer is judged by the same rule in
a document and in ``CIRCUFLOW_TOLERANCE``.  Each
message is the site's prefix (none for a record, ``line N, field 'k': ``
for a document, ``error: `` for the CLI), then the field name, then the
rule's one wording.
"""

from functools import partial

import pytest

from circuflow import (
    DivertWasteToStock,
    DocumentError,
    ReplaceEnergeticWithStock,
    SectorValue,
    SetRecoveryRate,
    attribute_value,
    cli,
)
from circuflow.documents import parse_account, parse_economy, parse_scenario
from support import (
    ACCOUNT_PATH,
    ECONOMY_PATH,
    FULL_RECOVERY_PATH,
    reference_account,
    reference_economy,
)

ACCOUNT_TEXT = ACCOUNT_PATH.read_text(encoding="utf-8")
ECONOMY_TEXT = ECONOMY_PATH.read_text(encoding="utf-8")
SCENARIO_TEXT = FULL_RECOVERY_PATH.read_text(encoding="utf-8")
ECONOMY_FRACTIONS = ("gfcf_rate", "cfc_rate", "services_share")
FRACTION_STEPS = (SetRecoveryRate, DivertWasteToStock, ReplaceEnergeticWithStock)

FRACTION_RULE = "must be a fraction in [0, 1], got 1.5"


def _record(build, *args, **kwargs) -> tuple[str, str]:
    """The message of a record that rejects its arguments, and its (empty) prefix."""
    with pytest.raises(ValueError) as info:
        build(*args, **kwargs)
    return str(info.value), ""


def _document(parse, text: str, key: str, value: str) -> tuple[str, str]:
    """Set the first ``key`` line of ``text`` to ``value`` (or append one) and parse it."""
    lines = text.splitlines()
    at = next((i for i, line in enumerate(lines) if line.startswith(f"{key} =")), len(lines))
    lines[at:at + 1] = [f"{key} = {value}"]
    with pytest.raises(DocumentError) as info:
        parse("\n".join(lines) + "\n")
    assert (info.value.line, info.value.field) == (at + 1, key)
    return str(info.value), f"line {at + 1}, field {key!r}: "


FRACTION_SITES = [
    pytest.param(
        partial(_record, reference_account, balance_tolerance=1.5),
        "balance_tolerance",
        id="record-balance_tolerance",
    ),
    *(
        pytest.param(partial(_record, reference_economy, **{key: 1.5}), key, id=f"record-{key}")
        for key in ECONOMY_FRACTIONS
    ),
    *(
        pytest.param(partial(_record, cls, 1.5), "fraction", id=f"record-{cls.__name__}")
        for cls in FRACTION_STEPS
    ),
    pytest.param(
        partial(_document, parse_account, ACCOUNT_TEXT, "balance_tolerance", "1.5"),
        "balance_tolerance",
        id="document-balance_tolerance",
    ),
    *(
        pytest.param(
            partial(_document, parse_economy, ECONOMY_TEXT, key, "1.5"), key, id=f"document-{key}"
        )
        for key in ECONOMY_FRACTIONS
    ),
    pytest.param(
        partial(_document, parse_scenario, SCENARIO_TEXT, "step", "divert_waste_to_stock, 1.5"),
        "fraction",
        id="document-step",
    ),
]


@pytest.mark.parametrize("site, name", FRACTION_SITES)
def test_a_fraction_out_of_range_reads_the_same_at_every_site(site, name):
    message, prefix = site()
    assert message == f"{prefix}{name} {FRACTION_RULE}"


def test_a_tolerance_from_the_environment_reads_the_same(monkeypatch, capsys):
    monkeypatch.setenv(cli.TOLERANCE_ENV_VAR, "1.5")
    assert cli.main(["validate", str(ACCOUNT_PATH)]) == cli.EXIT_IO
    assert capsys.readouterr().err == f"error: {cli.TOLERANCE_ENV_VAR} {FRACTION_RULE}\n"


MONEY_SITES = [
    pytest.param(lambda bad: _record(reference_economy, gdp=float(bad)), "gdp", id="record-gdp"),
    pytest.param(
        lambda bad: _record(SectorValue, "x", float(bad), "reverse_flow"),
        "sector value",
        id="record-sector",
    ),
    pytest.param(
        lambda bad: _record(
            attribute_value(reference_economy()).replace, reverse_flow_value=float(bad)
        ),
        "reverse_flow_value",
        id="record-attribution",
    ),
    pytest.param(
        lambda bad: _document(parse_economy, ECONOMY_TEXT, "gdp", bad), "gdp", id="document-gdp"
    ),
    pytest.param(
        lambda bad: _document(parse_economy, ECONOMY_TEXT, "sector", f"x, {bad}, reverse_flow"),
        "sector value",
        id="document-sector",
    ),
]


@pytest.mark.parametrize("site, name", MONEY_SITES)
@pytest.mark.parametrize(
    "bad, rule",
    [
        ("-1", "{name} must be non-negative, got -1.0"),
        ("inf", "monetary value must be finite, got inf"),
        ("nan", "monetary value must be finite, got nan"),
    ],
    ids=["negative", "inf", "nan"],
)
def test_money_out_of_range_reads_the_same_at_every_site(site, name, bad, rule):
    message, prefix = site(bad)
    assert message == prefix + rule.format(name=name)


NUMBER_RULE = "must be a number, got 'x'"

NUMBER_SITES = [
    pytest.param(
        partial(_document, parse_account, ACCOUNT_TEXT, "total_input", "x"),
        "total_input",
        id="document-mass",
    ),
    pytest.param(
        partial(_document, parse_account, ACCOUNT_TEXT, "balance_tolerance", "x"),
        "balance_tolerance",
        id="document-fraction",
    ),
    pytest.param(
        partial(_document, parse_economy, ECONOMY_TEXT, "gdp", "x"), "gdp", id="document-money"
    ),
    pytest.param(
        partial(_document, parse_economy, ECONOMY_TEXT, "sector", "x, x, reverse_flow"),
        "sector value",
        id="document-sector",
    ),
    pytest.param(
        partial(_document, parse_scenario, SCENARIO_TEXT, "step", "divert_waste_to_stock, x"),
        "fraction",
        id="document-step",
    ),
]


@pytest.mark.parametrize("site, name", NUMBER_SITES)
def test_unreadable_number_text_reads_the_same_at_every_site(site, name):
    message, prefix = site()
    assert message == f"{prefix}{name} {NUMBER_RULE}"


def test_unreadable_tolerance_from_the_environment_reads_the_same(monkeypatch, capsys):
    monkeypatch.setenv(cli.TOLERANCE_ENV_VAR, "x")
    assert cli.main(["validate", str(ACCOUNT_PATH)]) == cli.EXIT_IO
    assert capsys.readouterr().err == f"error: {cli.TOLERANCE_ENV_VAR} {NUMBER_RULE}\n"


@pytest.mark.parametrize(
    "parse, text",
    [(parse_account, ACCOUNT_TEXT), (parse_economy, ECONOMY_TEXT)],
    ids=["account", "economy"],
)
def test_a_year_that_is_not_an_integer_reads_the_same_in_a_document_and_a_record(parse, text):
    message, prefix = _document(parse, text, "year", "2020.0")
    assert message == f"{prefix}year must be an integer, got '2020.0'"
    assert _record(reference_account, year=2020.0) == ("year must be an integer, got 2020.0", "")
