"""``repro.analysis`` — the AST-based invariant linter.

The serving stack's contracts (lock discipline, wire determinism, the
error-code tables, executor lifecycle) are enforced mechanically here;
``python -m repro.cli lint`` is the entry point and ``docs/analysis.md``
the rule catalogue.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.analysis.baseline": (
        "BASELINE_VERSION", "DEFAULT_BASELINE_NAME", "BaselineEntry", "apply_baseline",
        "entry_for", "read_baseline", "write_baseline",
    ),
    "repro.analysis.findings": (
        "REPORT_SCHEMA_VERSION", "Finding", "finding_from_dict", "report_to_dict",
    ),
    "repro.analysis.framework": (
        "SYNTAX_ERROR_RULE", "AnalysisContext", "AnalysisReport", "Analyzer", "ModuleSource",
        "Rule", "build_rules", "parse_suppressions", "path_matches", "register_rule",
        "registered_rule_ids",
    ),
})

__all__ = [
    "BASELINE_VERSION",
    "DEFAULT_BASELINE_NAME",
    "REPORT_SCHEMA_VERSION",
    "SYNTAX_ERROR_RULE",
    "AnalysisContext",
    "AnalysisReport",
    "Analyzer",
    "BaselineEntry",
    "Finding",
    "ModuleSource",
    "Rule",
    "apply_baseline",
    "build_rules",
    "entry_for",
    "finding_from_dict",
    "parse_suppressions",
    "path_matches",
    "read_baseline",
    "register_rule",
    "registered_rule_ids",
    "report_to_dict",
    "write_baseline",
]
