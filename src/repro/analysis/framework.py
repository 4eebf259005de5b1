"""The analysis framework: parse once, run a registry of AST rules.

The serving stack's load-bearing invariants (ROADMAP: lock discipline,
wire determinism, the error-code contract, executor lifecycle) existed
only as prose and probabilistic property tests; this framework checks
them mechanically on every lint run.  It is deliberately stdlib-only:
:mod:`ast` for structure, :mod:`tokenize` for suppression comments.

Pieces:

* :class:`ModuleSource` — one parsed file: text, AST, and the
  ``# repro: ignore[rule-id]`` suppressions found in its comments.
* :class:`AnalysisContext` — every module of the run, keyed by its
  scan-root-relative POSIX path, so cross-file rules (the error-contract
  rule reads ``repro/errors.py`` while checking ``repro/api/protocol.py``)
  see the whole tree.
* :class:`Rule` — one invariant.  Subclasses declare ``rule_id`` /
  ``description`` and implement :meth:`Rule.check`; registration is one
  :func:`register_rule` decorator, which is the seam future PRs extend
  (a race-prone-attribute rule for process pools, a format-version rule
  for binary snapshots).
* :class:`Analyzer` — collects ``.py`` files, builds the context, runs
  the selected rules, and filters suppressed findings.

Suppression syntax: a comment ``# repro: ignore[rule-a]`` (or
``ignore[rule-a, rule-b]``) on the flagged line — or on the line directly
above it, for lines too dense to carry a comment — silences those rules
for that line only.  Suppressions are per-line and per-rule on purpose:
a file-wide or rule-free escape hatch would rot into a blanket waiver.
"""

from __future__ import annotations

import abc
import ast
import io
import os
import re
import tokenize
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.analysis.findings import Finding
from repro.errors import AnalysisError

#: matches one suppression comment; group 1 is the comma-separated rule list.
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore\[([^\]]*)\]")

#: rule id shape enforced at registration (kebab-case, like the ids users type).
_RULE_ID_RE = re.compile(r"^[a-z][a-z0-9]*(-[a-z0-9]+)*$")

#: the pseudo-rule reported when a file cannot be parsed at all.
SYNTAX_ERROR_RULE = "syntax-error"


def parse_suppressions(text: str) -> dict[int, frozenset[str]]:
    """Line → rule ids silenced on that line.

    Comments are invisible to :mod:`ast`, so suppressions are read from
    the token stream.  A malformed rule list (empty brackets) raises
    :class:`AnalysisError` — a suppression that silences nothing is
    always a typo, and silently ignoring it would hide the very class of
    drift this subsystem exists to catch.
    """
    suppressions: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            for match in _SUPPRESS_RE.finditer(token.string):
                rule_ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
                if not rule_ids:
                    raise AnalysisError(
                        f"suppression comment on line {token.start[0]} names no "
                        "rule: use '# repro: ignore[rule-id]'"
                    )
                suppressions.setdefault(token.start[0], set()).update(rule_ids)
    except tokenize.TokenError:
        # A tokenize failure accompanies a syntax error; the parse step
        # reports that — there is nothing further to suppress.
        pass
    return {line: frozenset(rules) for line, rules in suppressions.items()}


@dataclass
class ModuleSource:
    """One analysed file: location, source text, AST, suppressions."""

    path: str  #: absolute filesystem path
    rel_path: str  #: POSIX path relative to the scan root (finding identity)
    text: str
    tree: ast.Module
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        """True when ``rule_id`` is silenced on ``line`` (or the line above)."""
        for candidate in (line, line - 1):
            if rule_id in self.suppressions.get(candidate, ()):
                return True
        return False


class AnalysisContext:
    """All modules of one run, addressable by relative-path suffix."""

    def __init__(self, modules: Sequence[ModuleSource]):
        self.modules: dict[str, ModuleSource] = {m.rel_path: m for m in modules}

    def find_module(self, suffix: str) -> ModuleSource | None:
        """The module whose relative path ends with ``suffix`` (POSIX).

        How cross-file rules locate their counterpart regardless of the
        scan root (``src/`` and ``src/repro`` both work): an exact match
        wins, otherwise the unique suffix match.
        """
        if suffix in self.modules:
            return self.modules[suffix]
        for rel_path, module in self.modules.items():
            if rel_path.endswith("/" + suffix) or rel_path == suffix:
                return module
        return None


def path_matches(rel_path: str, suffixes: Iterable[str]) -> bool:
    """True when ``rel_path`` ends with any of the POSIX ``suffixes``.

    ``"repro/api/protocol.py"`` matches scans rooted at ``src/``,
    ``src/repro`` fixtures, and tmp-dir mirrors alike.  A suffix ending in
    ``/`` matches every file under that directory.
    """
    for suffix in suffixes:
        if suffix.endswith("/"):
            if ("/" + rel_path).find("/" + suffix) != -1:
                return True
        elif rel_path == suffix or rel_path.endswith("/" + suffix):
            return True
    return False


class Rule(abc.ABC):
    """One mechanically-checkable invariant.

    Subclasses set :attr:`rule_id` (kebab-case, what users type in
    ``--rule`` and suppressions) and :attr:`description` (one line, shown
    by ``lint --list-rules``), then implement :meth:`check`.
    """

    rule_id: str = ""
    description: str = ""

    @abc.abstractmethod
    def check(self, module: ModuleSource, context: AnalysisContext) -> Iterator[Finding]:
        """Yield findings for one module (called once per analysed file)."""

    def finding(self, module: ModuleSource, node: ast.AST, message: str) -> Finding:
        """A finding anchored at ``node``'s location in ``module``."""
        return Finding(
            path=module.rel_path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            message=message,
        )


#: rule id → rule class; populated by :func:`register_rule`.
RULE_REGISTRY: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (import-time wiring)."""
    if not cls.rule_id or not _RULE_ID_RE.match(cls.rule_id):
        raise AnalysisError(
            f"rule {cls.__name__} must declare a kebab-case rule_id, got {cls.rule_id!r}"
        )
    if cls.rule_id == SYNTAX_ERROR_RULE:
        raise AnalysisError(f"rule id {SYNTAX_ERROR_RULE!r} is reserved for parse failures")
    existing = RULE_REGISTRY.get(cls.rule_id)
    if existing is not None and existing is not cls:
        raise AnalysisError(
            f"duplicate rule id {cls.rule_id!r}: {existing.__name__} and {cls.__name__}"
        )
    RULE_REGISTRY[cls.rule_id] = cls
    return cls


def registered_rule_ids() -> list[str]:
    """Every registered rule id, sorted (ensures the built-ins are loaded)."""
    import repro.analysis.rules  # noqa: F401 - registration side effect

    return sorted(RULE_REGISTRY)


def build_rules(rule_ids: Sequence[str] | None = None) -> list[Rule]:
    """Instantiate the selected rules (default: every registered rule)."""
    available = registered_rule_ids()
    if rule_ids is None:
        selected = available
    else:
        unknown = sorted(set(rule_ids) - set(available))
        if unknown:
            raise AnalysisError(
                f"unknown rule id(s): {', '.join(unknown)}; "
                f"available: {', '.join(available)}"
            )
        selected = sorted(set(rule_ids))
    return [RULE_REGISTRY[rule_id]() for rule_id in selected]


def _collect_files(paths: Sequence[str]) -> list[tuple[str, str]]:
    """(absolute path, scan-root-relative POSIX path) for every ``.py`` file.

    A directory argument is walked recursively (its own path is the scan
    root); a file argument uses its parent directory as the root.  Hidden
    directories and ``__pycache__`` are skipped.
    """
    collected: list[tuple[str, str]] = []
    seen: set[str] = set()
    for raw in paths:
        root = os.path.abspath(raw)
        if os.path.isfile(root):
            rel = os.path.basename(root)
            if root not in seen:
                seen.add(root)
                collected.append((root, rel))
            continue
        if not os.path.isdir(root):
            raise AnalysisError(f"no such file or directory: {raw}")
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(
                d for d in dirnames if not d.startswith(".") and d != "__pycache__"
            )
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                absolute = os.path.join(dirpath, filename)
                if absolute in seen:
                    continue
                seen.add(absolute)
                rel = os.path.relpath(absolute, root).replace(os.sep, "/")
                collected.append((absolute, rel))
    return collected


@dataclass
class AnalysisReport:
    """Everything one run produced, before baseline filtering."""

    findings: list[Finding]
    files_analyzed: int
    rules_run: list[str]


class Analyzer:
    """Run a set of rules over a file tree and collect findings."""

    def __init__(self, rules: Sequence[Rule] | None = None):
        self.rules = list(rules) if rules is not None else build_rules()

    def load_module(self, absolute: str, rel_path: str) -> ModuleSource | Finding:
        """Parse one file; a syntax error becomes a finding, not a crash."""
        with open(absolute, "r", encoding="utf-8") as handle:
            text = handle.read()
        try:
            tree = ast.parse(text, filename=absolute)
        except SyntaxError as exc:
            return Finding(
                path=rel_path,
                line=exc.lineno or 1,
                column=(exc.offset or 0) + 1,
                rule_id=SYNTAX_ERROR_RULE,
                message=f"file does not parse: {exc.msg}",
            )
        return ModuleSource(
            path=absolute,
            rel_path=rel_path,
            text=text,
            tree=tree,
            suppressions=parse_suppressions(text),
        )

    def analyze_paths(self, paths: Sequence[str]) -> AnalysisReport:
        """Analyse every ``.py`` file under ``paths`` with every rule."""
        files = _collect_files(paths)
        modules: list[ModuleSource] = []
        findings: list[Finding] = []
        for absolute, rel_path in files:
            loaded = self.load_module(absolute, rel_path)
            if isinstance(loaded, Finding):
                findings.append(loaded)
            else:
                modules.append(loaded)
        context = AnalysisContext(modules)
        for module in modules:
            for rule in self.rules:
                for finding in rule.check(module, context):
                    if not module.is_suppressed(finding.line, finding.rule_id):
                        findings.append(finding)
        return AnalysisReport(
            findings=sorted(findings),
            files_analyzed=len(files),
            rules_run=[rule.rule_id for rule in self.rules],
        )
