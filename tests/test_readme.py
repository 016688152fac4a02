"""README's figures, recomputed: its Library block runs, and each number it quotes holds.

The numbers are read from README's text, so a figure edited there, or a
change that moves the value, fails here.
"""

import re

from circuflow import attribute_value
from circuflow.accounts import format_percent
from circuflow.documents import parse_economy
from circuflow.metrics import RATES
from support import ECONOMY_PATH, REPO_ROOT

README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
ECONOMY = parse_economy(ECONOMY_PATH.read_text(encoding="utf-8"))


def _quoted(pattern: str) -> str:
    """The one figure that ``pattern``'s group matches in README."""
    (figure,) = re.findall(pattern, README)
    return figure


def _library_block() -> dict:
    (code,) = re.findall(r"^## Library\n\n```python\n(.*?)^```$", README, re.M | re.S)
    namespace: dict = {}
    exec(code, namespace)
    return namespace


def test_the_metric_table_is_the_library_block_at_one_place():
    report = _library_block()["report"]
    table = dict(re.findall(r"^\| ([a-z -]+?) +\|[^|\n]+\| ([0-9.]+%) +\|$", README, re.M))
    labels = {label: key for key, label, *_ in RATES}
    assert set(table) == set(labels)
    rates = report.rates()
    for label, figure in table.items():
        assert format_percent(rates[labels[label]], 1) == figure, label
    assert table == {
        "apparent": "8.7%",
        "dissipative-adjusted": "14.1%",
        "real": "27.3%",
        "potential ceiling": "61.5%",
    }


def test_the_legacy_stock_share_and_its_cfc_rate_sensitivity():
    shipped = attribute_value(ECONOMY).legacy_stock_share
    assert format_percent(shipped, 1) == _quoted(r"give a ([0-9.]+%) legacy-stock share") == "68.2%"
    assert format_percent(shipped, 0) == f"{_quoted(r'roughly ([0-9]+)% of GDP')}%"
    higher = attribute_value(ECONOMY.replace(cfc_rate=0.14)).legacy_stock_share
    assert format_percent(higher, 1) == _quoted(r"`cfc_rate = 0\.14` would give ([0-9.]+%)")
    assert format_percent(higher, 1) == "69.2%"
    assert abs((higher - shipped) - 0.01) < 1e-12  # +1 pp per +0.01 of cfc_rate


def test_the_reverse_flow_share_of_gdp():
    share = attribute_value(ECONOMY).reverse_flow_share
    assert format_percent(share, 1) == _quoted(r"~([0-9.]+%) of GDP") == "1.4%"
