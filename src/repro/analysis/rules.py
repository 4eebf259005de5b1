"""The project-specific invariant rules.

Each rule mechanises one documented contract of the serving stack (see
``docs/analysis.md`` for the catalogue and ROADMAP for the prose the
rules are grounded in):

==========================  =============================================
``lock-discipline``         container state of a lock-bearing class is
                            only mutated inside ``with self.<lock>:``
``wire-determinism``        no volatile value sources in the modules that
                            build default wire bodies
``error-contract``          ``ERROR_CODES`` / ``HTTP_STATUS_BY_CODE`` /
                            ``_CODE_BY_EXCEPTION`` stay mutually
                            exhaustive and name real exception classes
``no-silent-swallow``       no bare/broad ``except`` on serving paths
                            (a pure re-raise is fine)
``executor-lifecycle``      ``Executor`` subclasses respect the
                            open/close contract; pools only live behind
                            the executor seam
``no-print-in-library``     ``print()`` stays in the CLI and tooling
``no-unbounded-retry``      every transport retry loop carries an attempt
                            bound and a backoff between attempts
``format-version``          modules that write snapshot/journal/manifest
                            bytes keep their magics in module-level
                            ``*MAGIC*`` constants tied to a named
                            ``*_FORMAT_VERSION``
``seeded-rng``              ``repro.eval`` modules draw randomness only
                            from an injected ``random.Random(seed)``;
                            bare ``random.*`` module calls are findings
==========================  =============================================

Every rule is suppressible per line with ``# repro: ignore[rule-id]``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.findings import Finding
from repro.analysis.framework import (
    AnalysisContext,
    ModuleSource,
    Rule,
    path_matches,
    register_rule,
)

#: method names that mutate a dict/list/set in place.
_MUTATING_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "update", "setdefault", "add", "discard", "sort", "reverse",
        "move_to_end",
    }
)


def _is_self_attr(node: ast.AST, attr: str | None = None) -> bool:
    """True for ``self.<attr>`` (any attribute when ``attr`` is None)."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (attr is None or node.attr == attr)
    )


def _call_name(node: ast.Call) -> str:
    """Dotted name of a call target (``time.time``, ``print``, ``x.pop``)."""
    parts: list[str] = []
    target = node.func
    while isinstance(target, ast.Attribute):
        parts.append(target.attr)
        target = target.value
    if isinstance(target, ast.Name):
        parts.append(target.id)
    return ".".join(reversed(parts))


# ---------------------------------------------------------------------- #
# lock-discipline
# ---------------------------------------------------------------------- #
@register_rule
class LockDisciplineRule(Rule):
    """Writes to lock-guarded container attributes must hold the lock.

    A class that creates ``self.<...>lock = threading.Lock()`` (or
    ``RLock``) in ``__init__`` is a lock-bearing class; every mutable
    container it also creates in ``__init__`` (``{}``, ``[]``, ``set()``,
    ``OrderedDict()``…) is treated as guarded state.  Outside
    ``__init__``, any mutation of a guarded attribute — reassignment,
    ``self.attr[...] = ...``, ``del``, or an in-place mutator call like
    ``.pop()``/``.update()`` — must sit lexically inside a
    ``with self.<some lock>:`` block.  This is the ``Corpus._entries``
    discipline (atomic entry swaps under ``_serving_lock``) that the
    concurrency tests only probabilistically cover.
    """

    rule_id = "lock-discipline"
    description = (
        "mutations of lock-guarded container attributes must happen inside "
        "a 'with self.<lock>:' block"
    )

    #: container constructors treated as guarded mutable state.
    _CONTAINER_CALLS = frozenset(
        {"dict", "list", "set", "OrderedDict", "defaultdict", "deque", "Counter"}
    )

    def check(self, module: ModuleSource, context: AnalysisContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(self, module: ModuleSource, cls: ast.ClassDef) -> Iterator[Finding]:
        lock_attrs, guarded = self._init_state(cls)
        if not lock_attrs or not guarded:
            return
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__":
                # The object is not shared before __init__ returns.
                continue
            yield from self._check_function(module, item, guarded)

    def _init_state(self, cls: ast.ClassDef) -> tuple[set[str], set[str]]:
        """(lock attributes, guarded container attributes) from ``__init__``."""
        lock_attrs: set[str] = set()
        guarded: set[str] = set()
        init = next(
            (
                item
                for item in cls.body
                if isinstance(item, ast.FunctionDef) and item.name == "__init__"
            ),
            None,
        )
        if init is None:
            return lock_attrs, guarded
        for node in ast.walk(init):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            for target in targets:
                if not _is_self_attr(target):
                    continue
                attr = target.attr  # type: ignore[union-attr]
                if self._is_lock_value(value):
                    lock_attrs.add(attr)
                elif self._is_container_value(value):
                    guarded.add(attr)
        return lock_attrs, guarded

    @staticmethod
    def _is_lock_value(value: ast.expr | None) -> bool:
        return (
            isinstance(value, ast.Call)
            and _call_name(value).rsplit(".", 1)[-1] in ("Lock", "RLock")
        )

    def _is_container_value(self, value: ast.expr | None) -> bool:
        if isinstance(value, (ast.Dict, ast.List, ast.Set)):
            return True
        return (
            isinstance(value, ast.Call)
            and not value.args
            and not value.keywords
            and _call_name(value).rsplit(".", 1)[-1] in self._CONTAINER_CALLS
        )

    def _check_function(
        self, module: ModuleSource, func: ast.AST, guarded: set[str]
    ) -> Iterator[Finding]:
        yield from self._walk(module, getattr(func, "body", []), guarded, locked=False)

    def _walk(
        self, module: ModuleSource, body: list[ast.stmt], guarded: set[str], locked: bool
    ) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner_locked = locked or any(
                    self._is_lock_context(item.context_expr) for item in stmt.items
                )
                yield from self._walk(module, stmt.body, guarded, inner_locked)
                continue
            if not locked:
                attr = self._mutated_attr(stmt)
                if attr is not None and attr in guarded:
                    yield self.finding(
                        module,
                        stmt,
                        f"write to lock-guarded attribute 'self.{attr}' outside a "
                        "'with self.<lock>:' block",
                    )
            # Nested statement bodies (if/for/try/...) keep the current
            # locked state; nested function definitions are walked too —
            # a closure mutating guarded state inherits the obligation.
            for child_body in self._child_bodies(stmt):
                yield from self._walk(module, child_body, guarded, locked)

    @staticmethod
    def _child_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
        bodies = []
        for field_name in ("body", "orelse", "finalbody"):
            value = getattr(stmt, field_name, None)
            if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                bodies.append(value)
        for handler in getattr(stmt, "handlers", []):
            bodies.append(handler.body)
        return bodies

    @staticmethod
    def _is_lock_context(expr: ast.expr) -> bool:
        """``with self.<x>lock:`` / ``with <anything>._lock:`` style guards."""
        return isinstance(expr, ast.Attribute) and expr.attr.lower().endswith("lock")

    @staticmethod
    def _mutated_attr(stmt: ast.stmt) -> str | None:
        """The guarded-candidate attribute a statement writes, if any."""
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = stmt.targets
        for target in targets:
            # self.attr = ... / self.attr += ... / del self.attr
            if _is_self_attr(target):
                return target.attr  # type: ignore[union-attr]
            # self.attr[k] = ... / del self.attr[k]
            if isinstance(target, ast.Subscript) and _is_self_attr(target.value):
                return target.value.attr  # type: ignore[union-attr]
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            func = stmt.value.func
            # self.attr.pop(...) and friends
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS
                and _is_self_attr(func.value)
            ):
                return func.value.attr  # type: ignore[union-attr]
        return None


# ---------------------------------------------------------------------- #
# wire-determinism
# ---------------------------------------------------------------------- #
@register_rule
class WireDeterminismRule(Rule):
    """No volatile value sources in the modules building default wire bodies.

    The protocol contract (ROADMAP, PR 2/5): the default — meta-free —
    serialisation of every response is byte-for-byte deterministic; the
    opt-in ``meta`` block is the only sanctioned home for volatile data.
    So the protocol/service/router/partition modules must not call
    wall-clock time (``time.time``), calendar time (``datetime.now``),
    ``random``, ``id()`` or the salted builtin ``hash()`` — the PR-4
    partitioning bug (salted ``hash()`` instead of SHA-1) is exactly this
    class of drift.  ``time.perf_counter``/``monotonic`` stay allowed:
    they feed the timing fields the protocol only emits inside ``meta``.
    """

    rule_id = "wire-determinism"
    description = (
        "no time.time/datetime.now/random/id()/builtin hash() in the "
        "wire-building modules (volatile data belongs in the meta block)"
    )

    #: the modules whose output reaches default wire bodies.
    PATHS = (
        "repro/api/protocol.py",
        "repro/api/service.py",
        "repro/api/backend.py",
        "repro/api/http.py",
        "repro/cluster/router.py",
        "repro/cluster/shard.py",
        "repro/cluster/partition.py",
    )

    #: dotted call names that produce volatile values.
    _BANNED_DOTTED = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.ctime",
            "time.strftime",
            "time.localtime",
            "time.gmtime",
            "datetime.now",
            "datetime.utcnow",
            "datetime.today",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "date.today",
            "datetime.date.today",
        }
    )

    def check(self, module: ModuleSource, context: AnalysisContext) -> Iterator[Finding]:
        if not path_matches(module.rel_path, self.PATHS):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if not name:
                continue
            if name in self._BANNED_DOTTED:
                yield self.finding(
                    module,
                    node,
                    f"volatile call {name}() in a wire-building module; "
                    "volatile data may only travel in the opt-in meta block",
                )
            elif name.split(".", 1)[0] == "random":
                yield self.finding(
                    module,
                    node,
                    f"random source {name}() in a wire-building module breaks "
                    "byte-deterministic default wire bodies",
                )
            elif name in ("id", "hash"):
                yield self.finding(
                    module,
                    node,
                    f"builtin {name}() is process-dependent"
                    + (
                        " (salted per interpreter — the PR-4 partitioning bug); "
                        "use hashlib for stable hashing"
                        if name == "hash"
                        else "; its value cannot appear in deterministic wire bodies"
                    ),
                )


# ---------------------------------------------------------------------- #
# telemetry-discipline
# ---------------------------------------------------------------------- #
@register_rule
class TelemetryDisciplineRule(Rule):
    """Serving code reads clocks through the :mod:`repro.obs.clock` seam.

    Three clocks, three jobs — ``perf_counter`` for intervals,
    ``monotonic`` for scheduling, ``wall_clock`` for timestamps — and one
    sanctioned home: scattered direct ``time.*`` reads are exactly how
    span timings, histogram observations and log timestamps drift apart.
    ``time.sleep`` stays allowed (pacing is not measurement), and the
    :mod:`repro.obs.clock` module itself is the one place the underlying
    ``time`` calls live.
    """

    rule_id = "telemetry-discipline"
    description = (
        "no direct time.time/perf_counter/monotonic reads in serving "
        "modules; go through the repro.obs.clock seam"
    )

    #: the serving-stack modules whose clock reads feed telemetry.
    PATHS = (
        "repro/api/gateway.py",
        "repro/api/client.py",
        "repro/api/executors.py",
        "repro/api/http.py",
        "repro/api/service.py",
        "repro/cluster/router.py",
        "repro/cluster/remote.py",
        "repro/cluster/health.py",
        "repro/cluster/replication.py",
        "repro/utils/timing.py",
    )

    #: direct clock reads that must go through repro.obs.clock.
    _BANNED_DOTTED = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.monotonic",
            "time.monotonic_ns",
        }
    )

    _SEAM_BY_CALL = {
        "time.time": "wall_clock",
        "time.time_ns": "wall_clock",
        "time.perf_counter": "perf_counter",
        "time.perf_counter_ns": "perf_counter",
        "time.monotonic": "monotonic",
        "time.monotonic_ns": "monotonic",
    }

    def check(self, module: ModuleSource, context: AnalysisContext) -> Iterator[Finding]:
        if not path_matches(module.rel_path, self.PATHS):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name in self._BANNED_DOTTED:
                yield self.finding(
                    module,
                    node,
                    f"direct clock read {name}() in a serving module; use "
                    f"repro.obs.clock.{self._SEAM_BY_CALL[name]}() so every "
                    "span, histogram and log row reads the same clock",
                )


# ---------------------------------------------------------------------- #
# error-contract
# ---------------------------------------------------------------------- #
@register_rule
class ErrorContractRule(Rule):
    """The error-code tables of the protocol module stay exhaustive.

    Checked on ``repro/api/protocol.py`` (cross-referencing
    ``repro/errors.py`` when it is part of the scan):

    * every code in ``_CODE_BY_EXCEPTION`` is declared in ``ERROR_CODES``;
    * ``ERROR_CODES`` and ``HTTP_STATUS_BY_CODE`` cover exactly the same
      codes (a code without an HTTP status would fall back to 500 and
      silently lose its documented wire semantics);
    * the ``"internal"`` fallback code exists in both tables — it is what
      every unlisted exception class maps to;
    * every exception class named in ``_CODE_BY_EXCEPTION`` is defined in
      ``repro/errors.py``.

    The runtime twin of this rule walks the live modules with
    :mod:`inspect` (``tests/api/test_error_contract.py``), so the
    contract holds even when the linter is skipped.
    """

    rule_id = "error-contract"
    description = (
        "ERROR_CODES, HTTP_STATUS_BY_CODE and _CODE_BY_EXCEPTION must stay "
        "mutually exhaustive and name real exception classes"
    )

    PROTOCOL_PATH = "repro/api/protocol.py"
    ERRORS_PATH = "repro/errors.py"

    def check(self, module: ModuleSource, context: AnalysisContext) -> Iterator[Finding]:
        if not path_matches(module.rel_path, (self.PROTOCOL_PATH,)):
            return
        tables = self._module_tables(module.tree)
        error_codes = tables.get("ERROR_CODES")
        status_by_code = tables.get("HTTP_STATUS_BY_CODE")
        code_by_exception = tables.get("_CODE_BY_EXCEPTION")
        for name, value in (
            ("ERROR_CODES", error_codes),
            ("HTTP_STATUS_BY_CODE", status_by_code),
            ("_CODE_BY_EXCEPTION", code_by_exception),
        ):
            if value is None:
                yield self.finding(
                    module,
                    module.tree,
                    f"protocol module defines no literal {name} table; the "
                    "error contract cannot be checked",
                )
        if error_codes is None or status_by_code is None or code_by_exception is None:
            return
        codes, codes_node = error_codes
        statuses, statuses_node = status_by_code
        mapping, mapping_node = code_by_exception

        if "internal" not in codes:
            yield self.finding(
                module, codes_node,
                "ERROR_CODES is missing the 'internal' fallback code every "
                "unlisted exception maps to",
            )
        for code in sorted(set(codes) - set(statuses)):
            yield self.finding(
                module, statuses_node,
                f"error code {code!r} has no HTTP_STATUS_BY_CODE entry; wire "
                "frontends would silently answer 500 for it",
            )
        for code in sorted(set(statuses) - set(codes)):
            yield self.finding(
                module, statuses_node,
                f"HTTP_STATUS_BY_CODE maps undeclared code {code!r}; add it to "
                "ERROR_CODES or drop the entry",
            )
        for exc_name, code, node in mapping:
            if code not in codes:
                yield self.finding(
                    module, node,
                    f"_CODE_BY_EXCEPTION maps {exc_name} to undeclared code "
                    f"{code!r}",
                )
        errors_module = context.find_module(self.ERRORS_PATH)
        if errors_module is not None:
            defined = {
                stmt.name
                for stmt in ast.walk(errors_module.tree)
                if isinstance(stmt, ast.ClassDef)
            }
            for exc_name, _code, node in mapping:
                if exc_name not in defined:
                    yield self.finding(
                        module, node,
                        f"_CODE_BY_EXCEPTION names {exc_name}, which is not "
                        f"defined in {self.ERRORS_PATH}",
                    )

    def _module_tables(self, tree: ast.Module) -> dict[str, object]:
        """The three literal tables, parsed from module-level assignments."""
        tables: dict[str, object] = {}
        for stmt in tree.body:
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if target.id == "ERROR_CODES":
                codes = self._string_elements(stmt.value)
                if codes is not None:
                    tables["ERROR_CODES"] = (codes, stmt)
            elif target.id == "HTTP_STATUS_BY_CODE":
                if isinstance(stmt.value, ast.Dict):
                    keys = [
                        key.value
                        for key in stmt.value.keys
                        if isinstance(key, ast.Constant) and isinstance(key.value, str)
                    ]
                    tables["HTTP_STATUS_BY_CODE"] = (keys, stmt)
            elif target.id == "_CODE_BY_EXCEPTION":
                entries = self._exception_entries(stmt.value)
                if entries is not None:
                    tables["_CODE_BY_EXCEPTION"] = (entries, stmt)
        return tables

    @staticmethod
    def _string_elements(value: ast.expr) -> list[str] | None:
        if not isinstance(value, (ast.Tuple, ast.List)):
            return None
        return [
            element.value
            for element in value.elts
            if isinstance(element, ast.Constant) and isinstance(element.value, str)
        ]

    @staticmethod
    def _exception_entries(value: ast.expr) -> list[tuple[str, str, ast.expr]] | None:
        if not isinstance(value, (ast.Tuple, ast.List)):
            return None
        entries: list[tuple[str, str, ast.expr]] = []
        for element in value.elts:
            if not isinstance(element, (ast.Tuple, ast.List)) or len(element.elts) != 2:
                continue
            exc_node, code_node = element.elts
            if isinstance(exc_node, ast.Name) and isinstance(code_node, ast.Constant):
                entries.append((exc_node.id, str(code_node.value), element))
        return entries


# ---------------------------------------------------------------------- #
# no-silent-swallow
# ---------------------------------------------------------------------- #
@register_rule
class NoSilentSwallowRule(Rule):
    """No bare or broad ``except`` on serving paths.

    A handler catching ``Exception``/``BaseException`` (or bare) in the
    serving modules hides programming errors from the error contract.
    A handler whose entire body is a bare ``raise`` is exempt (it narrows
    nothing and hides nothing).  Boundary sites that genuinely must catch
    everything — mirroring into a Future, answering 500 at the HTTP edge —
    carry an explicit ``# repro: ignore[no-silent-swallow]`` with a
    justifying comment, so every such site is deliberate and auditable.
    """

    rule_id = "no-silent-swallow"
    description = (
        "no bare/broad 'except' on serving paths; justified boundary sites "
        "carry an explicit suppression"
    )

    #: the serving-path modules the contract covers.
    PATHS = (
        "repro/api/",
        "repro/cluster/",
        "repro/index/",
        "repro/corpus.py",
        "repro/system.py",
    )

    _BROAD = ("Exception", "BaseException")

    def check(self, module: ModuleSource, context: AnalysisContext) -> Iterator[Finding]:
        if not path_matches(module.rel_path, self.PATHS):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._broad_catch(node.type)
            if broad is None:
                continue
            if self._is_pure_reraise(node):
                continue
            caught = "bare 'except:'" if broad == "" else f"'except {broad}'"
            yield self.finding(
                module,
                node,
                f"{caught} on a serving path; catch the narrowest exception "
                "set (or justify with '# repro: ignore[no-silent-swallow]')",
            )

    def _broad_catch(self, type_node: ast.expr | None) -> str | None:
        """The broad exception name caught, '' for bare, None when narrow."""
        if type_node is None:
            return ""
        names = [type_node] if not isinstance(type_node, ast.Tuple) else type_node.elts
        for name in names:
            if isinstance(name, ast.Name) and name.id in self._BROAD:
                return name.id
        return None

    @staticmethod
    def _is_pure_reraise(handler: ast.ExceptHandler) -> bool:
        return (
            len(handler.body) == 1
            and isinstance(handler.body[0], ast.Raise)
            and handler.body[0].exc is None
        )


# ---------------------------------------------------------------------- #
# executor-lifecycle
# ---------------------------------------------------------------------- #
@register_rule
class ExecutorLifecycleRule(Rule):
    """Executor subclasses respect the documented lifecycle contract.

    ``repro.api.executors`` pins the contract: ``close()`` is idempotent,
    submitting through a closed executor raises, re-entry re-opens.  The
    mechanical consequences a subclass must honour:

    * an overridden ``map``/``submit`` must gate on ``self._require_open()``
      (or delegate to ``super()``, which gates) — otherwise a closed
      executor would silently resurrect worker resources;
    * an overridden ``close`` must set ``self._closed = True`` or call
      ``super().close()`` — otherwise ``closed`` lies;
    * ``concurrent.futures`` pools are only constructed inside the
      executors module — everything else routes work through the
      ``Executor`` seam, which is what lets process-pool and remote
      variants plug in without touching callers.
    """

    rule_id = "executor-lifecycle"
    description = (
        "Executor subclasses must gate map/submit on _require_open, keep "
        "close() honest, and pools must stay behind the executor seam"
    )

    EXECUTORS_PATH = "repro/api/executors.py"

    _EXECUTOR_BASES = frozenset({"Executor", "ConcurrentExecutor"})
    _POOLS = frozenset({"ThreadPoolExecutor", "ProcessPoolExecutor"})

    def check(self, module: ModuleSource, context: AnalysisContext) -> Iterator[Finding]:
        in_executors_module = path_matches(module.rel_path, (self.EXECUTORS_PATH,))
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and self._is_executor_subclass(node):
                yield from self._check_subclass(module, node)
            elif (
                not in_executors_module
                and isinstance(node, ast.Call)
                and _call_name(node).rsplit(".", 1)[-1] in self._POOLS
            ):
                yield self.finding(
                    module,
                    node,
                    f"{_call_name(node)} constructed outside the executors "
                    "module; route pooled work through the Executor seam "
                    "(submit/map) so lifecycle and shutdown stay uniform",
                )

    def _is_executor_subclass(self, cls: ast.ClassDef) -> bool:
        for base in cls.bases:
            name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
            if name in self._EXECUTOR_BASES:
                return True
        return False

    def _check_subclass(self, module: ModuleSource, cls: ast.ClassDef) -> Iterator[Finding]:
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in ("map", "submit"):
                if not self._calls_any(item, ("_require_open", item.name)):
                    yield self.finding(
                        module,
                        item,
                        f"{cls.name}.{item.name} neither calls "
                        "self._require_open() nor delegates to super(); a "
                        "closed executor would silently accept work",
                    )
            elif item.name == "close":
                if not self._closes_honestly(item):
                    yield self.finding(
                        module,
                        item,
                        f"{cls.name}.close neither sets self._closed = True "
                        "nor calls super().close(); 'closed' would lie and "
                        "close() would not be idempotent",
                    )

    @staticmethod
    def _calls_any(func: ast.AST, names: tuple[str, ...]) -> bool:
        """True when the body calls ``self.<name>()`` or ``super().<name>()``."""
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            target = node.func
            if not isinstance(target, ast.Attribute) or target.attr not in names:
                continue
            owner = target.value
            if isinstance(owner, ast.Name) and owner.id == "self":
                return True
            if isinstance(owner, ast.Call) and _call_name(owner) == "super":
                return True
        return False

    def _closes_honestly(self, func: ast.AST) -> bool:
        if self._calls_any(func, ("close",)):
            return True
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if _is_self_attr(target, "_closed"):
                        return True
        return False


# ---------------------------------------------------------------------- #
# no-print-in-library
# ---------------------------------------------------------------------- #
@register_rule
class NoPrintInLibraryRule(Rule):
    """``print()`` belongs to the CLI, examples and benchmarks — not the
    library.  Library output travels through return values (the
    ``format_*``/``render_*`` seams) or the response protocol, so serving
    processes never write stray lines to stdout.
    """

    rule_id = "no-print-in-library"
    description = "no print() outside repro/cli.py (library output uses return values)"

    #: paths where printing is the job.
    EXEMPT = (
        "repro/cli.py",
        "examples/",
        "benchmarks/",
        "tests/",
    )

    def check(self, module: ModuleSource, context: AnalysisContext) -> Iterator[Finding]:
        if path_matches(module.rel_path, self.EXEMPT):
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    module,
                    node,
                    "print() in library code; return the text (or use the "
                    "logging seam) so serving processes keep stdout clean",
                )


# ---------------------------------------------------------------------- #
# no-unbounded-retry
# ---------------------------------------------------------------------- #
@register_rule
class NoUnboundedRetryRule(Rule):
    """Every transport retry loop carries an attempt bound and a backoff.

    A retry loop is a ``for``/``while`` whose body catches a
    transport-class exception (``OSError`` and kin, the stdlib HTTP
    client's ``HTTPException``, ``socket.error``/``timeout``, or a
    constant named like ``_TRANSPORT_ERRORS``) in a handler that can run
    another iteration — it ``continue``\\ s, or simply falls through
    instead of ending in an unconditional ``raise``/``return``/``break``.
    An unbounded retry against a dead dependency is a tight connect-storm
    hammering a struggling server (and a spinning client); a retry loop
    needs a bounded attempt count and a backoff between attempts.  Two
    findings, anchored at the transport ``except``:

    * ``while True:`` retry loops have no attempt bound;
    * a retry loop with no sleep/wait/backoff call between attempts
      hammers instead of backing off.

    Loops that *look* like retries but aren't — failover over distinct
    endpoints, health-probe sweeps, delta fan-outs — carry a justified
    ``# repro: ignore[no-unbounded-retry]`` at the ``except``, so every
    such site is deliberate and auditable.  Broad ``except Exception``
    handlers are not treated as transport catches; those are
    ``no-silent-swallow``'s territory.
    """

    rule_id = "no-unbounded-retry"
    description = (
        "transport retry loops must bound their attempts and back off "
        "between them"
    )

    #: exception names (last dotted segment) treated as transport-class.
    _TRANSPORT_NAMES = frozenset(
        {
            "OSError", "IOError", "ConnectionError", "ConnectionResetError",
            "ConnectionRefusedError", "ConnectionAbortedError",
            "BrokenPipeError", "TimeoutError", "HTTPException", "SSLError",
            "URLError", "gaierror", "herror",
        }
    )

    #: dotted names treated as transport-class in full.
    _TRANSPORT_DOTTED = frozenset({"socket.error", "socket.timeout"})

    #: call-name fragments that count as backing off between attempts.
    _BACKOFF_FRAGMENTS = ("sleep", "wait", "backoff")

    def check(self, module: ModuleSource, context: AnalysisContext) -> Iterator[Finding]:
        for loop in ast.walk(module.tree):
            if not isinstance(loop, (ast.For, ast.While, ast.AsyncFor)):
                continue
            handlers = self._own_handlers(loop)
            if not handlers:
                continue
            has_backoff = self._has_backoff(loop)
            unbounded = self._is_unbounded(loop)
            for handler in handlers:
                if not self._catches_transport(handler.type):
                    continue
                if not self._retry_capable(handler):
                    continue
                if unbounded:
                    yield self.finding(
                        module,
                        handler,
                        "unbounded transport retry: 'while True:' re-attempts "
                        "forever; bound the attempts (for attempt in "
                        "range(n)) and back off between them",
                    )
                elif not has_backoff:
                    yield self.finding(
                        module,
                        handler,
                        "transport retry loop with no backoff between "
                        "attempts; sleep with an increasing delay or "
                        "justify the site",
                    )

    def _own_handlers(self, loop: ast.AST) -> list[ast.ExceptHandler]:
        """Except handlers belonging to this loop's own iteration.

        Handlers inside a nested loop retry *that* loop; handlers inside a
        nested function don't retry anything by themselves.  Both are
        excluded (the nested loop is visited on its own).
        """
        nested: set[int] = set()
        for child in ast.walk(loop):
            if child is loop:
                continue
            if isinstance(
                child,
                (ast.For, ast.While, ast.AsyncFor, ast.FunctionDef,
                 ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                nested.update(id(sub) for sub in ast.walk(child))
        return [
            node
            for node in ast.walk(loop)
            if isinstance(node, ast.ExceptHandler) and id(node) not in nested
        ]

    def _catches_transport(self, type_node: ast.expr | None) -> bool:
        if type_node is None:
            return False  # bare except: no-silent-swallow's territory
        names = [type_node] if not isinstance(type_node, ast.Tuple) else list(type_node.elts)
        for name in names:
            if isinstance(name, ast.Attribute):
                dotted_parts: list[str] = []
                target: ast.expr = name
                while isinstance(target, ast.Attribute):
                    dotted_parts.append(target.attr)
                    target = target.value
                if isinstance(target, ast.Name):
                    dotted_parts.append(target.id)
                dotted = ".".join(reversed(dotted_parts))
                if dotted in self._TRANSPORT_DOTTED or (
                    dotted_parts and dotted_parts[0] in self._TRANSPORT_NAMES
                ):
                    return True
            elif isinstance(name, ast.Name):
                if name.id in self._TRANSPORT_NAMES or "TRANSPORT" in name.id.upper():
                    return True
        return False

    @staticmethod
    def _retry_capable(handler: ast.ExceptHandler) -> bool:
        """True when the handler can let the loop run another iteration."""
        if any(isinstance(node, ast.Continue) for node in ast.walk(handler)):
            return True
        last = handler.body[-1]
        return not isinstance(last, (ast.Raise, ast.Return, ast.Break))

    def _has_backoff(self, loop: ast.AST) -> bool:
        for node in ast.walk(loop):
            if not isinstance(node, ast.Call):
                continue
            last_segment = _call_name(node).rsplit(".", 1)[-1].lower()
            if any(fragment in last_segment for fragment in self._BACKOFF_FRAGMENTS):
                return True
        return False

    @staticmethod
    def _is_unbounded(loop: ast.AST) -> bool:
        return (
            isinstance(loop, ast.While)
            and isinstance(loop.test, ast.Constant)
            and bool(loop.test.value)
        )


@register_rule
class FormatVersionRule(Rule):
    """On-disk format magics live in named constants next to their version.

    The persistence modules (binary snapshots, corpus manifest and
    journal, cluster manifest) each declare a ``*_FORMAT_VERSION`` integer
    and derive their magic header from it — ``write_corpus_manifest``
    writing ``"#extract-corpus v1"`` inline would silently fork the format
    the moment the constant moved to 2.  Two findings:

    * a magic-looking literal (``#extract-…`` text header or an
      ``EXIDX…`` binary sentinel) anywhere except a module-level
      assignment to a ``*MAGIC*`` name, and
    * a module that declares magics but never names a
      ``*_FORMAT_VERSION`` constant at all.
    """

    rule_id = "format-version"
    description = (
        "snapshot/journal/manifest magics live in module-level *MAGIC* "
        "constants alongside a named *_FORMAT_VERSION"
    )

    #: the modules that put format bytes on disk.
    PATHS = (
        "repro/index/storage.py",
        "repro/index/binfmt.py",
        "repro/cluster/partition.py",
    )

    _TEXT_MAGIC_PREFIX = "#extract-"
    _BINARY_MAGIC_FRAGMENT = b"EXIDX"

    def check(self, module: ModuleSource, context: AnalysisContext) -> Iterator[Finding]:
        if not path_matches(module.rel_path, self.PATHS):
            return
        allowed, magic_homes = self._magic_assignments(module.tree)
        for node in ast.walk(module.tree):
            if id(node) in allowed or not self._is_magic_literal(node):
                continue
            yield self.finding(
                module,
                node,
                "inline format magic; assign it to a module-level *MAGIC* "
                "constant derived from a *_FORMAT_VERSION",
            )
        if magic_homes and not self._names_format_version(module.tree):
            yield self.finding(
                module,
                magic_homes[0],
                "module declares format magics but never names a "
                "*_FORMAT_VERSION constant",
            )

    def _magic_assignments(
        self, tree: ast.Module
    ) -> tuple[set[int], list[ast.stmt]]:
        """ids of literal nodes inside module-level ``*MAGIC*`` assignments."""
        allowed: set[int] = set()
        homes: list[ast.stmt] = []
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            else:
                continue
            if not any(
                isinstance(target, ast.Name) and "MAGIC" in target.id
                for target in targets
            ):
                continue
            homes.append(stmt)
            allowed.update(id(node) for node in ast.walk(stmt))
        return allowed, homes

    def _is_magic_literal(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Constant):
            return False
        value = node.value
        if isinstance(value, str):
            return value.startswith(self._TEXT_MAGIC_PREFIX)
        if isinstance(value, bytes):
            return self._BINARY_MAGIC_FRAGMENT in value
        return False

    @staticmethod
    def _names_format_version(tree: ast.Module) -> bool:
        return any(
            isinstance(node, ast.Name) and node.id.endswith("_FORMAT_VERSION")
            for node in ast.walk(tree)
        )


# ---------------------------------------------------------------------- #
# seeded-rng
# ---------------------------------------------------------------------- #
@register_rule
class SeededRngRule(Rule):
    """Evaluation code draws randomness from an injected seeded generator.

    The evaluation contract (PR 10): every experiment and load run is
    replayable from its seed — ``loadgen --seed 7`` twice must produce
    identical request sequences.  That only holds when all randomness in
    :mod:`repro.eval` flows through one injected ``random.Random(seed)``
    instance (``DatasetRandom`` in practice); a single module-level
    ``random.choice()`` draws from the interpreter-global generator and
    silently couples a run to import order and to every other consumer of
    that generator.  Constructing a seeded generator is the sanctioned
    injection point, so ``random.Random(seed)`` stays allowed; drawing
    from the ``random`` module — or building a seedless/entropy-backed
    generator — is the finding.
    """

    rule_id = "seeded-rng"
    description = (
        "repro.eval modules draw randomness only from an injected "
        "random.Random(seed); bare random.* module calls break seeded "
        "replayability"
    )

    #: every module under the evaluation package.
    PATHS = ("repro/eval/",)

    #: generator constructors — allowed only when given an explicit seed.
    _CONSTRUCTORS = frozenset({"random.Random"})

    def check(self, module: ModuleSource, context: AnalysisContext) -> Iterator[Finding]:
        if not path_matches(module.rel_path, self.PATHS):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if not name or name.split(".", 1)[0] != "random":
                continue
            if name in self._CONSTRUCTORS:
                if node.args or node.keywords:
                    continue
                yield self.finding(
                    module,
                    node,
                    "random.Random() without a seed is as unreplayable as "
                    "the module-level generator; pass the run's seed",
                )
            else:
                yield self.finding(
                    module,
                    node,
                    f"module-level {name}() in repro.eval; draw from the "
                    "injected random.Random(seed) generator instead",
                )
