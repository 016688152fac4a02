"""The three workloads: cli_oneshot, batch_pipeline and whatif_sweep.

Each is a closed loop with one client: ``op`` generates its input (not
timed), makes its calls into the program (timed, the op's latency), then
checks every output against the oracles (not timed).  ``op`` returns
``(seconds, problem)`` with ``problem`` None when the output was right,
including an expected error raised as named.

Why these three: a CLI call is almost all interpreter start-up and
imports, so ``cli_oneshot`` is the only workload where start-up shows;
``batch_pipeline`` pays start-up once and is heavy on parsing,
validation, metrics and attribution over inputs that never repeat;
``whatif_sweep`` reuses one parsed pair and is heavy on long scenarios
and the human-readable and SVG renderers.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

import generators
import oracles

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
ACCOUNT = "data/global_2020.account"
ECONOMY = "data/global_2020.economy"
FULL_RECOVERY = "scenarios/full_recovery.scenario"
WASTE_DIVERSION = "scenarios/waste_diversion.scenario"


def child_env(**extra: str) -> dict:
    """The CLI's environment: the source tree on the path, no installed copy."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "CIRCUFLOW_TOLERANCE")}
    env["PYTHONPATH"] = "src"
    env.update(extra)
    return env


def read_document(path: Path) -> list[tuple[str, str]]:
    """``key = value`` pairs of a document, read without the program's parser."""
    pairs = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            pairs.append((key.strip(), value.strip()))
    return pairs


def reference_pair() -> tuple[dict, dict]:
    """The shipped account (Gt) and economy as oracle inputs."""
    account = dict(read_document(ROOT / ACCOUNT))
    if account.get("unit", "Gt") != "Gt":
        raise RuntimeError("the reference account is expected in Gt")
    fields = {name: float(account[name]) for name in oracles.MASS_FIELDS}
    econ = {"gdp": 0.0, "gfcf_rate": 0.0, "cfc_rate": generators.DEFAULT_CFC_RATE, "sectors": []}
    for key, value in read_document(ROOT / ECONOMY):
        if key == "sector":
            name, amount, category = (part.strip() for part in value.split(","))
            econ["sectors"].append((name, float(amount), category))
        elif key in ("gdp", "gfcf_rate", "cfc_rate"):
            econ[key] = float(value)
    return fields, econ


def _failure(exc: BaseException) -> str:
    return f"unexpected {type(exc).__name__}: {exc}"


class Workload:
    """Shared counters and the in-process op loop.

    In-process workloads implement ``setup``, ``generate``, ``run`` and
    ``check``; ``CliOneshot`` replaces ``op`` with one subprocess per op.
    """

    #: Modules the workload imports, timed by the set-up probe.
    modules = "circuflow.documents,circuflow.accounts,circuflow.metrics,circuflow.valuemap,circuflow.scenarios,circuflow.render"

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.reset_counters()

    def reset_counters(self) -> None:
        self.expected_errors = dict.fromkeys(
            ("documents", "accounts", "metrics", "valuemap", "scenarios", "render", "cli"), 0
        )
        self.bytes_out = 0
        self.steps = 0  # scenario steps applied by successful ops
        self.child_rss_kb: list[int] = []
        self.modules_loaded: list[int] = []

    def setup(self, m) -> None:
        """Prepare inputs; ``m`` maps module names to the imported program modules."""

    def op(self, index: int, tracer) -> tuple[float, str | None]:
        """Generate, run (timed) and check one in-process op."""
        case = tracer.call("bench.generate", self.generate, index)
        out: dict = {}
        start = perf_counter()
        try:
            self.run(case, out, tracer)
            exc = None
        except Exception as error:  # every failure is checked against the oracle
            exc = error
        elapsed = perf_counter() - start
        return elapsed, tracer.call("bench.check", self.check, case, out, exc)


class BatchPipeline(Workload):
    """Distinct seeded triples through the whole pipeline, machine output."""

    def setup(self, m) -> None:
        self.m = m
        self.spec = m["render"].RenderSpec(format="machine")

    def generate(self, index):
        return generators.batch_case(self.rng, index)

    def run(self, case, out, tr) -> None:
        m = self.m
        out["stage"] = "parse_account"
        account = tr.call("documents.parse_account", m["documents"].parse_account, case["account"])
        out["stage"] = "parse_economy"
        economy = tr.call("documents.parse_economy", m["documents"].parse_economy, case["economy"])
        out["stage"] = "parse_scenario"
        scenario = tr.call("documents.parse_scenario", m["documents"].parse_scenario, case["scenario"])
        out["stage"] = "validate"
        out["outcome"] = outcome = tr.call("accounts.validate", m["accounts"].validate, account)
        if not outcome.ok:
            return
        out["stage"] = "metric_suite"
        report = tr.call("metrics.metric_suite", m["metrics"].metric_suite, account)
        out["stage"] = "attribute_value"
        attribution = tr.call("valuemap.attribute_value", m["valuemap"].attribute_value, economy)
        out["stage"] = "apply_scenario"
        result = tr.call("scenarios.apply_scenario", m["scenarios"].apply_scenario, account, economy, scenario)
        out["steps"] = len(scenario.steps)
        tr.note_steps(out["steps"])
        out["stage"] = "render"
        before = tr.call("accounts.waste_share", m["accounts"].waste_share, account)
        after = tr.call("accounts.waste_share", m["accounts"].waste_share, result.account)
        out["text"] = tr.call(
            "render.machine",
            m["render"].render_scenario_comparison,
            scenario.name,
            report,
            attribution,
            before,
            result.report,
            result.attribution,
            after,
            notes=result.notes,
            spec=self.spec,
        )

    def check(self, case, out, exc) -> str | None:
        expect = case["expect"]
        if expect is not None and expect["error"] != "validation":
            if out.get("stage") != expect["stage"]:
                return f"expected {expect['error']} from {expect['stage']}, stopped at {out.get('stage')}: {exc}"
            problem = oracles.check_error(exc, expect)
            if problem is None:
                self.expected_errors["scenarios" if expect["stage"] == "apply_scenario" else "documents"] += 1
            return problem
        if exc is not None:
            return f"{out.get('stage')}: {_failure(exc)}"
        outcome = out["outcome"]
        if expect is not None:
            codes = frozenset(v.invariant for v in outcome.violations)
            if outcome.ok or codes != expect["codes"]:
                return f"validation gave {outcome.status.value} {sorted(codes)}, expected fail {sorted(expect['codes'])}"
            self.expected_errors["accounts"] += 1
            return None
        if outcome.status.value != case["status"]:
            return f"validation gave {outcome.status.value}, expected {case['status']}"
        if out["steps"] != len(case["steps"]):
            return f"scenario parsed to {out['steps']} steps, {len(case['steps'])} written"
        self.steps += out["steps"]
        text = out["text"]
        self.bytes_out += len(text)
        fields, final, econ = case["fields"], case["final"], case["econ"]
        base = {"rates": oracles.rates(fields), "waste_share": oracles.waste_share(fields)}
        after = {"rates": oracles.rates(final), "waste_share": oracles.waste_share(final)}
        after_attr = oracles.attribution(econ, final["reverse_factor"])
        return oracles.check_machine(
            text, oracles.scenario_pairs(base, oracles.attribution(econ), after, after_attr)
        ) or oracles.check_value_sum(text, "after_", econ["gdp"])


class WhatifSweep(Workload):
    """Long seeded scenarios over the reference pair, human and SVG output."""

    def setup(self, m) -> None:
        self.m = m
        self.fields, self.econ = reference_pair()
        documents = m["documents"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            self.account = documents.parse_account((ROOT / ACCOUNT).read_text(encoding="utf-8"))
            self.economy = documents.parse_economy((ROOT / ECONOMY).read_text(encoding="utf-8"))
        self.report = m["metrics"].metric_suite(self.account)
        self.attribution = m["valuemap"].attribute_value(self.economy)
        self.waste_share = m["accounts"].waste_share(self.account)
        self.specs = {
            (fmt, places): m["render"].RenderSpec(format=fmt, rounding=places)
            for fmt in ("plain", "markdown")
            for places in range(4)
        }
        self.base = {"rates": oracles.rates(self.fields), "waste_share": oracles.waste_share(self.fields)}
        self.base_attr = oracles.attribution(self.econ)

    def generate(self, index):
        return generators.sweep_case(self.rng, self.fields, index)

    def run(self, case, out, tr) -> None:
        m = self.m
        documents, render = m["documents"], m["render"]
        scenario = tr.call("documents.parse_scenario", documents.parse_scenario, case["text"])
        out["rendered"] = tr.call("documents.render_scenario", documents.render_scenario, scenario)
        out["scenario"] = again = tr.call("documents.parse_scenario", documents.parse_scenario, out["rendered"])
        out["same"] = again == scenario
        out["result"] = result = tr.call(
            "scenarios.apply_scenario", m["scenarios"].apply_scenario, self.account, self.economy, again
        )
        tr.note_steps(len(again.steps))
        spec = self.specs[case["format"], case["places"]]
        after = tr.call("accounts.waste_share", m["accounts"].waste_share, result.account)
        out["report"] = tr.call(
            f"render.{case['format']}",
            render.render_scenario_comparison,
            again.name,
            self.report,
            self.attribution,
            self.waste_share,
            result.report,
            result.attribution,
            after,
            notes=result.notes,
            spec=spec,
        )
        out["svg_metrics"] = tr.call("render.svg", render.svg_metrics, result.report, spec)
        out["svg_valuemap"] = tr.call("render.svg", render.svg_valuemap, result.attribution, spec)

    def check(self, case, out, exc) -> str | None:
        if out.get("rendered") is not None and out["rendered"] != case["text"]:
            return "render_scenario(parse_scenario(text)) differs from the canonical text"
        if "same" in out and not out["same"]:
            return "parse_scenario(render_scenario(s)) != s"
        if case["break_at"] is not None:
            if "scenario" not in out:
                return f"scenario round trip failed: {exc}"
            problem = oracles.check_error(exc, {"error": "ScenarioError", "step": case["break_at"]})
            if problem is None:
                self.expected_errors["scenarios"] += 1
            return problem
        if exc is not None:
            return _failure(exc)
        result, final = out["result"], case["final"]
        total = final["total_input"]
        for name in oracles.MASS_FIELDS:
            if not oracles.close(float(getattr(result.account, name)), final[name], total):
                return f"final {name} = {float(getattr(result.account, name))!r}, simulation gives {final[name]!r}"
        values = result.attribution.values_by_category()
        if not oracles.close(sum(values.values()), self.econ["gdp"], self.econ["gdp"]):
            return f"attribution sums to {sum(values.values())!r}, not GDP {self.econ['gdp']!r}"
        self.steps += len(case["steps"])
        self.bytes_out += len(out["report"]) + len(out["svg_metrics"]) + len(out["svg_valuemap"])
        after = {"rates": oracles.rates(final), "waste_share": oracles.waste_share(final)}
        after_attr = oracles.attribution(self.econ, final["reverse_factor"])
        places = case["places"]
        rows = oracles.comparison_rows(self.base, self.base_attr, after, after_attr, places)
        return (
            oracles.check_rows(out["report"], case["format"], rows)
            or oracles.check_svg_metrics(out["svg_metrics"], after["rates"], places)
            or oracles.check_svg_valuemap(out["svg_valuemap"], after_attr, places)
        )


# One fixed mix of ten CLI calls: (label, argv after the subcommand's inputs, extra env).
CLI_MIX = (
    "validate",
    "validate_tol",
    "metrics_plain",
    "metrics_markdown",
    "metrics_machine",
    "metrics_svg",
    "valuemap_machine",
    "valuemap_svg",
    "scenario_full_recovery",
    "scenario_waste_diversion",
)
CLI_PAIRS = 8  # the shipped pair plus seven generated ones

# Published values for the shipped data (README / PAPER.md).
PUBLISHED = {"apparent": "8.7%", "dissipative_adjusted": "14.1%", "real_rate": "27.3%", "potential_ceiling": "61.5%"}


class CliOneshot(Workload):
    """One ``python -m circuflow ...`` subprocess per op, a fixed mix of calls."""

    modules = "circuflow.cli"

    def setup(self, m) -> None:
        work = OUT / "cli"
        work.mkdir(parents=True, exist_ok=True)
        self.svg_path = work / "chart.svg"
        self.stderr_path = work / "stderr.txt"
        fields, econ = reference_pair()
        self.pairs = [(ACCOUNT, ECONOMY, fields, econ, True)]
        for k in range(1, CLI_PAIRS):
            account_text, fields, economy_text, econ = generators.cli_pair(self.rng)
            account_path, economy_path = work / f"pair{k}.account", work / f"pair{k}.economy"
            account_path.write_text(account_text, encoding="utf-8")
            economy_path.write_text(economy_text, encoding="utf-8")
            self.pairs.append(
                (str(account_path.relative_to(ROOT)), str(economy_path.relative_to(ROOT)), fields, econ, False)
            )
        # The order of the mix is drawn from the seed, so runs with other
        # seeds interleave the calls differently.
        self.order = list(range(len(CLI_MIX)))
        self.rng.shuffle(self.order)
        self.env = child_env()
        self.env_tol = child_env(CIRCUFLOW_TOLERANCE="0.02")

    def command(self, index: int) -> tuple[str, list[str], tuple]:
        label = CLI_MIX[self.order[index % len(CLI_MIX)]]
        pair = self.pairs[(index // len(CLI_MIX)) % len(self.pairs)]
        account, economy = pair[0], pair[1]
        svg = str(self.svg_path.relative_to(ROOT))
        args = {
            "validate": ["validate", account],
            "validate_tol": ["validate", account],
            "metrics_plain": ["metrics", account],
            "metrics_markdown": ["metrics", account, "--format", "markdown", "--round", "0"],
            "metrics_machine": ["metrics", account, "--format", "machine"],
            "metrics_svg": ["metrics", account, "--svg", svg],
            "valuemap_machine": ["valuemap", account, economy, "--format", "machine"],
            "valuemap_svg": ["valuemap", account, economy, "--svg", svg],
            "scenario_full_recovery": ["scenario", account, economy, FULL_RECOVERY, "--format", "machine"],
            "scenario_waste_diversion": ["scenario", account, economy, WASTE_DIVERSION, "--format", "machine"],
        }[label]
        return label, args, pair

    def op(self, index, tracer):
        label, args, pair = self.command(index)
        if self.svg_path.exists():
            self.svg_path.unlink()
        if tracer.enabled:
            argv = [sys.executable, "bench/child.py", "cli", *args]
        else:
            argv = [sys.executable, "-m", "circuflow", *args]
        env = self.env_tol if label == "validate_tol" else self.env
        with open(self.stderr_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
            with proc.stdout:
                stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            end = perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb.append(usage.ru_maxrss)
        stderr = self.stderr_path.read_text(encoding="utf-8", errors="replace")
        if tracer.enabled:
            self._record_child(tracer, start, end, stderr)
        problem = tracer.call("bench.check", self.check, label, pair, proc.returncode, stdout.decode(), stderr)
        return end - start, problem

    def _record_child(self, tracer, start, end, stderr) -> None:
        process = tracer.add("interpreter.process", start, end)
        for line in stderr.splitlines():
            if line.startswith("@@bench "):
                t0, t1, t2, loaded = line.split()[1:]
                tracer.add("cli.import", float(t0), float(t1), process)
                tracer.add("cli.main", float(t1), float(t2), process)
                self.modules_loaded.append(int(loaded))

    def check(self, label, pair, code, stdout, stderr) -> str | None:
        _, _, fields, econ, shipped = pair
        want = 2 if label == "validate_tol" else 0
        if code != want:
            return f"{label}: exit {code}, expected {want}; stderr: {stderr.strip()[-300:]}"
        if label.startswith("validate"):
            status = "fail" if want else oracles.validation_codes(fields, generators.DEFAULT_TOLERANCE)[0]
            if not stdout.startswith(f"validation: {status}\n"):
                return f"{label}: first line {stdout.splitlines()[:1]}, expected validation: {status}"
            if want:
                self.expected_errors["cli"] += 1
            return None
        r = oracles.rates(fields)
        a = oracles.attribution(econ)
        if label == "metrics_plain":
            return oracles.check_rows(stdout, "plain", oracles.metric_rows(r, 1))
        if label == "metrics_markdown":
            problem = oracles.check_rows(stdout, "markdown", oracles.metric_rows(r, 0))
            if problem is None and shipped and "| potential ceiling | 62% |" not in stdout:
                problem = "the shipped 61.5% ceiling does not print as 62% at --round 0"
            return problem
        if label in ("metrics_svg", "valuemap_svg"):
            try:
                svg = self.svg_path.read_text(encoding="utf-8")
            except OSError as exc:
                return f"{label}: no SVG written ({exc})"
            if label == "metrics_svg":
                return oracles.check_svg_metrics(svg, r, 1)
            return oracles.check_svg_valuemap(svg, a, 1)
        if label == "metrics_machine":
            problem = oracles.check_machine(stdout, oracles.metric_pairs(r))
            if problem is None and shipped:
                printed = oracles.parse_machine(stdout)
                for key, text in PUBLISHED.items():
                    if oracles.fmt_pct(printed[key][0], 1) != text:
                        return f"shipped {key} prints {printed[key][0]!r}, published {text}"
            return problem
        if label == "valuemap_machine":
            problem = oracles.check_machine(stdout, oracles.attribution_pairs(a)) or oracles.check_value_sum(
                stdout, "", econ["gdp"]
            )
            if problem is None and shipped:
                printed = oracles.parse_machine(stdout)
                if oracles.fmt_pct(printed["reverse_flow_share"][0], 1) != "1.4%":
                    return "shipped reverse-flow GDP share is not 1.4%"
                if not 0.675 <= printed["legacy_stock_share"][0] <= 0.685:
                    return "shipped legacy-stock GDP share is not about 68%"
            return problem
        steps = (
            [("set_recovery_rate", 1.0), ("scale_reverse_flow_value", "on")]
            if label == "scenario_full_recovery"
            else [("divert_waste_to_stock", 0.5)]
        )
        final = oracles.simulate(fields, steps)
        base = {"rates": r, "waste_share": oracles.waste_share(fields)}
        after = {"rates": oracles.rates(final), "waste_share": oracles.waste_share(final)}
        problem = oracles.check_machine(
            stdout, oracles.scenario_pairs(base, a, after, oracles.attribution(econ, final["reverse_factor"]))
        )
        if problem is None and shipped and label == "scenario_full_recovery":
            if oracles.parse_machine(stdout)["after_real_rate"][0] != 1.0:
                return "full recovery does not reach a real rate of exactly 100%"
        return problem


WORKLOADS = {"cli_oneshot": CliOneshot, "batch_pipeline": BatchPipeline, "whatif_sweep": WhatifSweep}
