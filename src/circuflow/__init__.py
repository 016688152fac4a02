"""circuflow: material flow accounts, circularity metrics, GDP value attribution.

A small, dependency-free library plus a CLI.  It models one year's
economy-wide mass flows, computes the circularity metric family (apparent,
dissipative-adjusted, real, potential ceiling), partitions GDP across
flow categories with a legacy-stock residual, and evaluates declarative
what-if scenarios against the pair.
"""

import importlib

__version__ = "0.1.0"

# Public name -> submodule defining it.  Names resolve on first access
# (PEP 562), so ``import circuflow`` alone loads no submodule and the CLI
# pays only for the modules its subcommand runs.
_EXPORTS = {
    "DEFAULT_BALANCE_TOLERANCE": "accounts",
    "CheckResult": "accounts",
    "MaterialFlowAccount": "accounts",
    "ValidationOutcome": "accounts",
    "ValidationStatus": "accounts",
    "validate": "accounts",
    "waste_share": "accounts",
    "CircuflowError": "errors",
    "DocumentError": "errors",
    "MetricDomainError": "errors",
    "OverAttributionError": "errors",
    "ProvenanceWarning": "errors",
    "ScenarioError": "errors",
    "StockDepletionWarning": "errors",
    "UndefinedDenominatorError": "errors",
    "CircularityReport": "metrics",
    "apparent_circularity": "metrics",
    "dissipative_adjusted_circularity": "metrics",
    "metric_suite": "metrics",
    "potential_ceiling": "metrics",
    "real_circularity": "metrics",
    "DivertWasteToStock": "scenarios",
    "ReplaceEnergeticWithStock": "scenarios",
    "ScaleReverseFlowValue": "scenarios",
    "Scenario": "scenarios",
    "ScenarioResult": "scenarios",
    "SetRecoveryRate": "scenarios",
    "apply_scenario": "scenarios",
    "CATEGORY_DISSIPATIVE_FLOW": "valuemap",
    "CATEGORY_REVERSE_FLOW": "valuemap",
    "DEFAULT_CFC_RATE": "valuemap",
    "EconomicAccount": "valuemap",
    "SectorValue": "valuemap",
    "ValueAttribution": "valuemap",
    "attribute_value": "valuemap",
    "nfcf_rate": "valuemap",
    "stock_addition_value": "valuemap",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
