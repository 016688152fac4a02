"""The benchmark's own checks: deterministic generators, oracles that catch errors.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import generators  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from circuflow import documents, metrics, render, scenarios, valuemap  # noqa: E402


def _modules():
    from circuflow import accounts

    return {
        "documents": documents,
        "accounts": accounts,
        "metrics": metrics,
        "valuemap": valuemap,
        "scenarios": scenarios,
        "render": render,
    }


def _batch(seed, n):
    rng = random.Random(seed)
    return [generators.batch_case(rng, i) for i in range(n)]


def _texts(cases):
    return [(c["account"], c["economy"], c["scenario"]) for c in cases]


def test_batch_generator_is_deterministic_per_seed():
    assert _texts(_batch(7, 300)) == _texts(_batch(7, 300))
    assert _texts(_batch(7, 300)) != _texts(_batch(8, 300))


def test_sweep_and_cli_generators_are_deterministic_per_seed():
    fields, _ = workloads.reference_pair()

    def sweep(seed):
        rng = random.Random(seed)
        return [generators.sweep_case(rng, fields, i)["text"] for i in range(100)]

    def pairs(seed):
        rng = random.Random(seed)
        return [generators.cli_pair(rng)[0] for _ in range(7)]

    assert sweep(3) == sweep(3) and sweep(3) != sweep(4)
    assert pairs(3) == pairs(3) and pairs(3) != pairs(4)


def test_batch_inputs_vary_and_about_five_percent_fail():
    cases = _batch(11, 4000)
    share = sum(c["expect"] is not None for c in cases) / len(cases)
    assert 0.03 <= share <= 0.07
    assert len({c["account"] for c in cases}) == len(cases)
    kinds = {c["expect"]["stage"] for c in cases if c["expect"]}
    assert kinds == {"parse_account", "parse_economy", "parse_scenario", "validate", "apply_scenario"}
    assert any("unit = t\n" in c["account"] for c in cases)
    assert any("#" in c["account"] for c in cases)
    assert {len(c["econ"]["sectors"]) for c in cases} == set(range(6))


@pytest.mark.filterwarnings("ignore::UserWarning")  # generated economies may omit cfc_rate
@pytest.mark.parametrize("workload", ["batch_pipeline", "whatif_sweep"])
def test_in_process_workloads_pass_their_oracles(workload):
    w = workloads.WORKLOADS[workload](5)
    w.setup(_modules())
    null = tracer.NullTracer()
    problems = [w.op(i, null)[1] for i in range(300)]
    assert [p for p in problems if p] == []
    assert sum(w.expected_errors.values()) > 0


def test_sweep_final_bins_match_the_simulation():
    fields, econ = workloads.reference_pair()
    account = documents.parse_account((ROOT / workloads.ACCOUNT).read_text())
    economy = documents.parse_economy((ROOT / workloads.ECONOMY).read_text())
    rng = random.Random(2)
    for i in range(200):
        case = generators.sweep_case(rng, fields, i)
        scenario = documents.parse_scenario(case["text"])
        if case["break_at"] is not None:
            with pytest.raises(scenarios.ScenarioError) as info:
                scenarios.apply_scenario(account, economy, scenario)
            assert info.value.step_index == case["break_at"]
            continue
        result = scenarios.apply_scenario(account, economy, scenario)
        for name in oracles.MASS_FIELDS:
            assert oracles.close(float(getattr(result.account, name)), case["final"][name], 104.0)


# --- each oracle flags a deliberately perturbed output -----------------------


def _valid_batch_output():
    case = next(c for c in _batch(21, 50) if c["expect"] is None)
    account = documents.parse_account(case["account"])
    economy = documents.parse_economy(case["economy"])
    scenario = documents.parse_scenario(case["scenario"])
    result = scenarios.apply_scenario(account, economy, scenario)
    from circuflow.accounts import waste_share

    text = render.render_scenario_comparison(
        scenario.name,
        metrics.metric_suite(account),
        valuemap.attribute_value(economy),
        waste_share(account),
        result.report,
        result.attribution,
        waste_share(result.account),
        spec=render.RenderSpec(format="machine"),
    )
    fields, final, econ = case["fields"], case["final"], case["econ"]
    base = {"rates": oracles.rates(fields), "waste_share": oracles.waste_share(fields)}
    after = {"rates": oracles.rates(final), "waste_share": oracles.waste_share(final)}
    pairs = oracles.scenario_pairs(
        base, oracles.attribution(econ), after, oracles.attribution(econ, final["reverse_factor"])
    )
    return text, pairs, econ


def _perturb_value(text, key):
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(key + " = "):
            value = float(line.split(" = ")[1])
            lines[i] = f"{key} = {value * (1 + 1e-6) + 1e-9!r}"
    return "\n".join(lines) + "\n"


def test_machine_oracle_flags_a_perturbed_value():
    text, pairs, econ = _valid_batch_output()
    assert oracles.check_machine(text, pairs) is None
    assert oracles.check_value_sum(text, "after_", econ["gdp"]) is None
    for key in ("after_real_rate", "baseline_apparent", "after_legacy_stock_value"):
        assert oracles.check_machine(_perturb_value(text, key), pairs) is not None
    dropped = "\n".join(l for l in text.splitlines() if not l.startswith("after_apparent")) + "\n"
    assert oracles.check_machine(dropped, pairs) is not None
    assert oracles.check_value_sum(_perturb_value(text, "after_reverse_flow_value"), "after_", econ["gdp"])


def test_table_and_svg_oracles_flag_perturbed_output():
    fields, econ = workloads.reference_pair()
    report = metrics.metric_suite(documents.parse_account((ROOT / workloads.ACCOUNT).read_text()))
    attribution = valuemap.attribute_value(documents.parse_economy((ROOT / workloads.ECONOMY).read_text()))
    r, a = oracles.rates(fields), oracles.attribution(econ)
    spec = render.RenderSpec(format="markdown", rounding=0)
    table = render.render_metrics(report, spec)
    assert oracles.check_rows(table, "markdown", oracles.metric_rows(r, 0)) is None
    assert "| 62% |" in table
    assert oracles.check_rows(table.replace("62%", "61%"), "markdown", oracles.metric_rows(r, 0))

    svg = render.svg_metrics(report, spec)
    assert oracles.check_svg_metrics(svg, r, 0) is None
    assert oracles.check_svg_metrics(svg.replace("real 27%", "real 28%"), r, 0)
    assert oracles.check_svg_metrics(svg.replace("</svg>", ""), r, 0)  # not XML
    svg = render.svg_valuemap(attribution, spec)
    assert oracles.check_svg_valuemap(svg, a, 0) is None
    assert oracles.check_svg_valuemap(svg.replace("legacy stocks: 68%", "legacy stocks: 67%"), a, 0)


def test_error_oracle_flags_wrong_or_missing_errors():
    err = scenarios.ScenarioError("s", 3, "boom")
    assert oracles.check_error(err, {"error": "ScenarioError", "step": 3}) is None
    assert oracles.check_error(err, {"error": "ScenarioError", "step": 2})
    assert oracles.check_error(None, {"error": "ScenarioError", "step": 3})
    doc = documents.DocumentError("bad", line=2, field="gdp")
    assert oracles.check_error(doc, {"error": "DocumentError", "field": "gdp"}) is None
    assert oracles.check_error(doc, {"error": "DocumentError", "field": "sector"})
    assert oracles.check_error(doc, {"error": "ScenarioError", "step": 0})


def test_cli_oracle_flags_wrong_exit_codes_and_values():
    w = workloads.CliOneshot(1)
    shipped = (workloads.ACCOUNT, workloads.ECONOMY, *workloads.reference_pair(), True)
    first = "validation: fail\nresidual: 3.0 Gt\n"
    assert w.check("validate_tol", shipped, 2, first, "") is None
    assert w.check("validate_tol", shipped, 0, first, "")
    machine = "apparent = 0.08653846153846154\ndissipative_adjusted = 0.140625\n" \
        "real_rate = 0.2727272727272727\npotential_ceiling = 0.6153846153846154\n" \
        "denominator_total = 104.0\ndenominator_recoverable = 64.0\ndenominator_annually_recoverable = 33.0\n"
    assert w.check("metrics_machine", shipped, 0, machine, "") is None
    assert w.check("metrics_machine", shipped, 0, machine.replace("0.140625", "0.1406"), "")


def test_validation_oracle_matches_the_published_reference():
    fields, _ = workloads.reference_pair()
    assert oracles.validation_codes(fields, 0.05) == ("pass-with-warning", frozenset())
    assert oracles.validation_codes(fields, 0.02) == ("fail", frozenset({"mass_balance"}))
    assert [oracles.fmt_pct(oracles.rates(fields)[k], 1) for k in oracles.RATE_KEYS] == [
        "8.7%", "14.1%", "27.3%", "61.5%"
    ]


def test_measure_makes_min_ops_and_traces_each_mix_call_half_the_time():
    import run

    class Fake:
        def __init__(self):
            self.seen = []

        def op(self, index, tr):
            self.seen.append((index % len(workloads.CLI_MIX), tr.enabled))
            return 0.001, None

    fake = Fake()
    untraced, traced, failures, probes = run._measure(fake, 0.0, 0, recorder=tracer.Tracer())
    assert len(untraced) + len(traced) == run.MIN_OPS
    assert not failures and probes == []
    for position in range(len(workloads.CLI_MIX)):
        flags = [t for p, t in fake.seen if p == position]
        assert flags.count(True) == flags.count(False) > 0


def test_p50_averages_the_medians_of_slices():
    import run

    assert run._p50([2.0] * run.MIN_OPS) == 2.0
    # A slow quarter of the run moves the sliced median a quarter of the way.
    assert run._p50([1.0] * 150 + [3.0] * 50) == pytest.approx(1.5)
