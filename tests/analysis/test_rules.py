"""Per-rule fixture tests: each rule fires on a positive snippet, stays
quiet on a negative one, and honours ``# repro: ignore[rule-id]``."""

from __future__ import annotations

import pytest


# ---------------------------------------------------------------------- #
# lock-discipline
# ---------------------------------------------------------------------- #
_LOCKED_CLASS_HEADER = """\
import threading

class Corpus:
    def __init__(self):
        self._serving_lock = threading.Lock()
        self._entries = {}
"""


class TestLockDiscipline:
    RULE = "lock-discipline"

    def test_unlocked_write_fires(self, lint_tree):
        source = _LOCKED_CLASS_HEADER + """\

    def register(self, name, entry):
        self._entries[name] = entry
"""
        findings = lint_tree({"repro/corpus.py": source}, self.RULE)
        assert [f.rule_id for f in findings] == [self.RULE]
        assert "_entries" in findings[0].message

    def test_locked_write_is_clean(self, lint_tree):
        source = _LOCKED_CLASS_HEADER + """\

    def register(self, name, entry):
        with self._serving_lock:
            self._entries[name] = entry
"""
        assert lint_tree({"repro/corpus.py": source}, self.RULE) == []

    def test_mutating_method_call_fires(self, lint_tree):
        source = _LOCKED_CLASS_HEADER + """\

    def clear(self):
        self._entries.clear()
"""
        findings = lint_tree({"repro/corpus.py": source}, self.RULE)
        assert [f.rule_id for f in findings] == [self.RULE]

    def test_delete_outside_lock_fires(self, lint_tree):
        source = _LOCKED_CLASS_HEADER + """\

    def remove(self, name):
        del self._entries[name]
"""
        assert len(lint_tree({"repro/corpus.py": source}, self.RULE)) == 1

    def test_reassignment_outside_lock_fires(self, lint_tree):
        source = _LOCKED_CLASS_HEADER + """\

    def reset(self):
        self._entries = {}
"""
        assert len(lint_tree({"repro/corpus.py": source}, self.RULE)) == 1

    def test_read_is_not_flagged(self, lint_tree):
        source = _LOCKED_CLASS_HEADER + """\

    def get(self, name):
        return self._entries.get(name)

    def names(self):
        return sorted(self._entries)
"""
        assert lint_tree({"repro/corpus.py": source}, self.RULE) == []

    def test_init_writes_exempt(self, lint_tree):
        assert lint_tree({"repro/corpus.py": _LOCKED_CLASS_HEADER}, self.RULE) == []

    def test_class_without_lock_is_ignored(self, lint_tree):
        source = """\
class Plain:
    def __init__(self):
        self._entries = {}

    def register(self, name, entry):
        self._entries[name] = entry
"""
        assert lint_tree({"repro/corpus.py": source}, self.RULE) == []

    def test_nested_lock_scope_applies(self, lint_tree):
        source = _LOCKED_CLASS_HEADER + """\

    def swap(self, name, entry):
        with self._serving_lock:
            if name in self._entries:
                self._entries[name] = entry
"""
        assert lint_tree({"repro/corpus.py": source}, self.RULE) == []

    def test_suppression(self, lint_tree):
        source = _LOCKED_CLASS_HEADER + """\

    def register(self, name, entry):
        self._entries[name] = entry  # repro: ignore[lock-discipline]
"""
        assert lint_tree({"repro/corpus.py": source}, self.RULE) == []


# ---------------------------------------------------------------------- #
# wire-determinism
# ---------------------------------------------------------------------- #
class TestWireDeterminism:
    RULE = "wire-determinism"

    def test_time_time_fires_in_wire_module(self, lint_tree):
        source = "import time\n\ndef stamp():\n    return time.time()\n"
        findings = lint_tree({"repro/api/protocol.py": source}, self.RULE)
        assert [f.rule_id for f in findings] == [self.RULE]
        assert "time.time" in findings[0].message

    def test_builtin_hash_fires(self, lint_tree):
        source = "def shard_of(name, shards):\n    return hash(name) % shards\n"
        findings = lint_tree({"repro/cluster/partition.py": source}, self.RULE)
        assert len(findings) == 1
        assert "hash()" in findings[0].message

    def test_random_fires(self, lint_tree):
        source = "import random\n\ndef pick():\n    return random.choice([1, 2])\n"
        assert len(lint_tree({"repro/api/service.py": source}, self.RULE)) == 1

    def test_id_fires(self, lint_tree):
        source = "def tag(obj):\n    return id(obj)\n"
        assert len(lint_tree({"repro/api/http.py": source}, self.RULE)) == 1

    def test_datetime_now_fires(self, lint_tree):
        source = "import datetime\n\ndef when():\n    return datetime.datetime.now()\n"
        assert len(lint_tree({"repro/api/protocol.py": source}, self.RULE)) == 1

    def test_perf_counter_is_sanctioned(self, lint_tree):
        source = "import time\n\ndef elapsed(t0):\n    return time.perf_counter() - t0\n"
        assert lint_tree({"repro/api/service.py": source}, self.RULE) == []

    def test_hashlib_is_clean(self, lint_tree):
        source = (
            "import hashlib\n\n"
            "def shard_of(name, shards):\n"
            "    digest = hashlib.sha1(name.encode()).digest()\n"
            "    return digest[0] % shards\n"
        )
        assert lint_tree({"repro/cluster/partition.py": source}, self.RULE) == []

    def test_non_wire_module_is_out_of_scope(self, lint_tree):
        source = "import time\n\ndef stamp():\n    return time.time()\n"
        assert lint_tree({"repro/eval/timing.py": source}, self.RULE) == []

    def test_suppression(self, lint_tree):
        source = (
            "import time\n\n"
            "def stamp():\n"
            "    return time.time()  # repro: ignore[wire-determinism]\n"
        )
        assert lint_tree({"repro/api/protocol.py": source}, self.RULE) == []


# ---------------------------------------------------------------------- #
# telemetry-discipline
# ---------------------------------------------------------------------- #
class TestTelemetryDiscipline:
    RULE = "telemetry-discipline"

    def test_perf_counter_fires_in_serving_module(self, lint_tree):
        source = "import time\n\ndef elapsed(t0):\n    return time.perf_counter() - t0\n"
        findings = lint_tree({"repro/api/gateway.py": source}, self.RULE)
        assert [f.rule_id for f in findings] == [self.RULE]
        assert "repro.obs.clock.perf_counter" in findings[0].message

    def test_monotonic_fires(self, lint_tree):
        source = "import time\n\ndef deadline(t):\n    return time.monotonic() + t\n"
        findings = lint_tree({"repro/cluster/remote.py": source}, self.RULE)
        assert len(findings) == 1
        assert "monotonic" in findings[0].message

    def test_wall_clock_fires(self, lint_tree):
        source = "import time\n\ndef stamp():\n    return time.time()\n"
        findings = lint_tree({"repro/utils/timing.py": source}, self.RULE)
        assert len(findings) == 1
        assert "wall_clock" in findings[0].message

    def test_obs_clock_seam_is_clean(self, lint_tree):
        source = (
            "from repro.obs.clock import perf_counter\n\n"
            "def elapsed(t0):\n"
            "    return perf_counter() - t0\n"
        )
        assert lint_tree({"repro/api/gateway.py": source}, self.RULE) == []

    def test_time_sleep_is_allowed(self, lint_tree):
        source = "import time\n\ndef pace():\n    time.sleep(0.02)\n"
        assert lint_tree({"repro/cluster/remote.py": source}, self.RULE) == []

    def test_non_serving_module_is_out_of_scope(self, lint_tree):
        source = "import time\n\ndef elapsed(t0):\n    return time.perf_counter() - t0\n"
        assert lint_tree({"repro/eval/harness.py": source}, self.RULE) == []

    def test_suppression(self, lint_tree):
        source = (
            "import time\n\n"
            "def elapsed(t0):\n"
            "    return time.perf_counter() - t0  # repro: ignore[telemetry-discipline]\n"
        )
        assert lint_tree({"repro/api/gateway.py": source}, self.RULE) == []


# ---------------------------------------------------------------------- #
# error-contract
# ---------------------------------------------------------------------- #
_ERRORS_MODULE = """\
class ExtractError(Exception):
    pass

class PagingError(ExtractError):
    pass

class OverloadedError(ExtractError):
    pass
"""


def _protocol_module(codes, statuses, mapping):
    lines = ["ERROR_CODES = (" + ", ".join(repr(c) for c in codes) + ",)"]
    lines.append(
        "HTTP_STATUS_BY_CODE = {"
        + ", ".join(f"{code!r}: {status}" for code, status in statuses)
        + "}"
    )
    lines.append(
        "_CODE_BY_EXCEPTION = ("
        + ", ".join(f"({name}, {code!r})" for name, code in mapping)
        + ("," if mapping else "")
        + ")"
    )
    return _ERRORS_MODULE + "\n" + "\n".join(lines) + "\n"


class TestErrorContract:
    RULE = "error-contract"

    def _files(self, codes, statuses, mapping):
        return {
            "repro/errors.py": _ERRORS_MODULE,
            "repro/api/protocol.py": _protocol_module(codes, statuses, mapping),
        }

    def test_consistent_tables_are_clean(self, lint_tree):
        files = self._files(
            codes=("invalid_page", "overloaded", "internal"),
            statuses=[("invalid_page", 400), ("overloaded", 503), ("internal", 500)],
            mapping=[("PagingError", "invalid_page"), ("OverloadedError", "overloaded")],
        )
        assert lint_tree(files, self.RULE) == []

    def test_code_without_http_status_fires(self, lint_tree):
        files = self._files(
            codes=("invalid_page", "internal"),
            statuses=[("internal", 500)],
            mapping=[("PagingError", "invalid_page")],
        )
        findings = lint_tree(files, self.RULE)
        assert len(findings) == 1
        assert "invalid_page" in findings[0].message
        assert "HTTP_STATUS_BY_CODE" in findings[0].message

    def test_status_for_undeclared_code_fires(self, lint_tree):
        files = self._files(
            codes=("internal",),
            statuses=[("internal", 500), ("ghost_code", 418)],
            mapping=[],
        )
        findings = lint_tree(files, self.RULE)
        assert len(findings) == 1
        assert "ghost_code" in findings[0].message

    def test_mapping_to_undeclared_code_fires(self, lint_tree):
        files = self._files(
            codes=("internal",),
            statuses=[("internal", 500)],
            mapping=[("PagingError", "invalid_page")],
        )
        findings = lint_tree(files, self.RULE)
        assert any("undeclared code 'invalid_page'" in f.message for f in findings)

    def test_missing_internal_fallback_fires(self, lint_tree):
        files = self._files(
            codes=("invalid_page",),
            statuses=[("invalid_page", 400)],
            mapping=[("PagingError", "invalid_page")],
        )
        findings = lint_tree(files, self.RULE)
        assert any("'internal' fallback" in f.message for f in findings)

    def test_unknown_exception_class_fires(self, lint_tree):
        files = self._files(
            codes=("internal",),
            statuses=[("internal", 500)],
            mapping=[("GhostError", "internal")],
        )
        findings = lint_tree(files, self.RULE)
        assert any("GhostError" in f.message for f in findings)

    def test_real_protocol_module_is_clean(self, lint_tree):
        import repro.api.protocol as protocol_mod
        import repro.errors as errors_mod

        files = {
            "repro/errors.py": open(errors_mod.__file__, encoding="utf-8").read(),
            "repro/api/protocol.py": open(
                protocol_mod.__file__, encoding="utf-8"
            ).read(),
        }
        assert lint_tree(files, self.RULE) == []

    def test_suppression(self, lint_tree):
        protocol = _protocol_module(
            codes=("invalid_page",),
            statuses=[("invalid_page", 400)],
            mapping=[],
        )
        # The missing-'internal' finding anchors at the ERROR_CODES line.
        protocol = protocol.replace(
            "ERROR_CODES = ",
            "# repro: ignore[error-contract]\nERROR_CODES = ",
        )
        files = {"repro/errors.py": _ERRORS_MODULE, "repro/api/protocol.py": protocol}
        assert lint_tree(files, self.RULE) == []


# ---------------------------------------------------------------------- #
# no-silent-swallow
# ---------------------------------------------------------------------- #
class TestNoSilentSwallow:
    RULE = "no-silent-swallow"

    def test_broad_except_pass_fires(self, lint_tree):
        source = """\
def handle(request):
    try:
        return request()
    except Exception:
        pass
"""
        findings = lint_tree({"repro/api/gateway.py": source}, self.RULE)
        assert [f.rule_id for f in findings] == [self.RULE]

    def test_bare_except_fires(self, lint_tree):
        source = """\
def handle(request):
    try:
        return request()
    except:
        return None
"""
        findings = lint_tree({"repro/corpus.py": source}, self.RULE)
        assert len(findings) == 1
        assert "bare" in findings[0].message

    def test_base_exception_in_tuple_fires(self, lint_tree):
        source = """\
def handle(request):
    try:
        return request()
    except (ValueError, BaseException) as exc:
        return exc
"""
        assert len(lint_tree({"repro/cluster/router.py": source}, self.RULE)) == 1

    def test_narrow_except_is_clean(self, lint_tree):
        source = """\
from repro.errors import ExtractError

def handle(request):
    try:
        return request()
    except (ValueError, ExtractError):
        return None
"""
        assert lint_tree({"repro/api/gateway.py": source}, self.RULE) == []

    def test_pure_reraise_is_clean(self, lint_tree):
        source = """\
def handle(request):
    try:
        return request()
    except Exception:
        raise
"""
        assert lint_tree({"repro/api/gateway.py": source}, self.RULE) == []

    def test_non_serving_path_is_out_of_scope(self, lint_tree):
        source = """\
def best_effort(fn):
    try:
        return fn()
    except Exception:
        return None
"""
        assert lint_tree({"repro/eval/harness.py": source}, self.RULE) == []

    def test_suppression(self, lint_tree):
        source = """\
def handle(request):
    try:
        return request()
    # justified: the boundary answers 500 for any crash
    # repro: ignore[no-silent-swallow]
    except Exception:
        return None
"""
        assert lint_tree({"repro/api/http.py": source}, self.RULE) == []


# ---------------------------------------------------------------------- #
# executor-lifecycle
# ---------------------------------------------------------------------- #
class TestExecutorLifecycle:
    RULE = "executor-lifecycle"

    def test_submit_without_require_open_fires(self, lint_tree):
        source = """\
from repro.api.executors import ConcurrentExecutor

class EagerExecutor(ConcurrentExecutor):
    def submit(self, fn, *args):
        return fn(*args)
"""
        findings = lint_tree({"repro/cluster/router.py": source}, self.RULE)
        assert len(findings) == 1
        assert "_require_open" in findings[0].message

    def test_submit_with_require_open_is_clean(self, lint_tree):
        source = """\
from repro.api.executors import ConcurrentExecutor

class GatedExecutor(ConcurrentExecutor):
    def submit(self, fn, *args):
        self._require_open()
        return fn(*args)
"""
        assert lint_tree({"repro/cluster/router.py": source}, self.RULE) == []

    def test_submit_delegating_to_super_is_clean(self, lint_tree):
        source = """\
from repro.api.executors import ConcurrentExecutor

class LoggingExecutor(ConcurrentExecutor):
    def submit(self, fn, *args):
        return super().submit(fn, *args)
"""
        assert lint_tree({"repro/cluster/router.py": source}, self.RULE) == []

    def test_close_without_closed_flag_fires(self, lint_tree):
        source = """\
from repro.api.executors import Executor

class LeakyExecutor(Executor):
    def close(self):
        self._pool = None
"""
        findings = lint_tree({"repro/api/pool.py": source}, self.RULE)
        assert len(findings) == 1
        assert "close" in findings[0].message

    def test_close_setting_flag_is_clean(self, lint_tree):
        source = """\
from repro.api.executors import Executor

class HonestExecutor(Executor):
    def close(self):
        self._closed = True
"""
        assert lint_tree({"repro/api/pool.py": source}, self.RULE) == []

    def test_close_calling_super_is_clean(self, lint_tree):
        source = """\
from repro.api.executors import ConcurrentExecutor

class ChainedExecutor(ConcurrentExecutor):
    def close(self):
        super().close()
"""
        assert lint_tree({"repro/api/pool.py": source}, self.RULE) == []

    def test_pool_outside_executors_module_fires(self, lint_tree):
        source = """\
from concurrent.futures import ThreadPoolExecutor

def fan_out(tasks):
    with ThreadPoolExecutor(max_workers=4) as pool:
        return list(pool.map(lambda t: t(), tasks))
"""
        findings = lint_tree({"repro/cluster/router.py": source}, self.RULE)
        assert len(findings) == 1
        assert "Executor seam" in findings[0].message

    def test_pool_inside_executors_module_is_clean(self, lint_tree):
        source = """\
from concurrent.futures import ThreadPoolExecutor

def make_pool(workers):
    return ThreadPoolExecutor(max_workers=workers)
"""
        assert lint_tree({"repro/api/executors.py": source}, self.RULE) == []

    def test_unrelated_class_is_ignored(self, lint_tree):
        source = """\
class Service:
    def submit(self, fn):
        return fn()

    def close(self):
        pass
"""
        assert lint_tree({"repro/api/service.py": source}, self.RULE) == []

    def test_suppression(self, lint_tree):
        source = """\
from repro.api.executors import ConcurrentExecutor

class EagerExecutor(ConcurrentExecutor):
    # repro: ignore[executor-lifecycle]
    def submit(self, fn, *args):
        return fn(*args)
"""
        assert lint_tree({"repro/cluster/router.py": source}, self.RULE) == []


# ---------------------------------------------------------------------- #
# no-print-in-library
# ---------------------------------------------------------------------- #
class TestNoPrintInLibrary:
    RULE = "no-print-in-library"

    def test_library_print_fires(self, lint_tree):
        source = "def render(tree):\n    print(tree)\n"
        findings = lint_tree({"repro/xmltree/serialize.py": source}, self.RULE)
        assert [f.rule_id for f in findings] == [self.RULE]

    def test_cli_module_exempt(self, lint_tree):
        source = "def main():\n    print('hello')\n"
        assert lint_tree({"repro/cli.py": source}, self.RULE) == []

    def test_tests_and_examples_exempt(self, lint_tree):
        source = "def show():\n    print('x')\n"
        findings = lint_tree(
            {"examples/demo.py": source, "tests/test_demo.py": source}, self.RULE
        )
        assert findings == []

    def test_method_named_print_is_clean(self, lint_tree):
        source = "def render(report):\n    report.print()\n"
        assert lint_tree({"repro/eval/report.py": source}, self.RULE) == []

    def test_suppression(self, lint_tree):
        source = (
            "def render(tree):\n"
            "    print(tree)  # repro: ignore[no-print-in-library]\n"
        )
        assert lint_tree({"repro/xmltree/serialize.py": source}, self.RULE) == []


# ---------------------------------------------------------------------- #
# no-unbounded-retry
# ---------------------------------------------------------------------- #
class TestNoUnboundedRetry:
    RULE = "no-unbounded-retry"

    def test_while_true_retry_fires(self, lint_tree):
        source = """\
def fetch(client):
    while True:
        try:
            return client.get()
        except OSError:
            continue
"""
        findings = lint_tree({"repro/api/client.py": source}, self.RULE)
        assert [f.rule_id for f in findings] == [self.RULE]
        assert "no attempt bound" in findings[0].message or "forever" in findings[0].message

    def test_bounded_retry_without_backoff_fires(self, lint_tree):
        source = """\
def fetch(client):
    for attempt in range(5):
        try:
            return client.get()
        except ConnectionError:
            pass
"""
        findings = lint_tree({"repro/api/client.py": source}, self.RULE)
        assert [f.rule_id for f in findings] == [self.RULE]
        assert "backoff" in findings[0].message

    def test_bounded_retry_with_backoff_is_clean(self, lint_tree):
        source = """\
import time

def fetch(client):
    for attempt in range(5):
        try:
            return client.get()
        except OSError:
            if attempt == 4:
                raise
            time.sleep(0.05 * 2 ** attempt)
"""
        assert lint_tree({"repro/api/client.py": source}, self.RULE) == []

    def test_terminal_handler_is_not_a_retry(self, lint_tree):
        source = """\
def serve(reader):
    while True:
        try:
            reader.read()
        except ConnectionError:
            break
"""
        assert lint_tree({"repro/api/http.py": source}, self.RULE) == []

    def test_non_transport_exception_is_out_of_scope(self, lint_tree):
        source = """\
def parse_all(items):
    while True:
        try:
            return [int(item) for item in items.pop()]
        except ValueError:
            continue
"""
        assert lint_tree({"repro/corpus.py": source}, self.RULE) == []

    def test_dotted_transport_name_fires(self, lint_tree):
        source = """\
import http.client

def fetch(client):
    while True:
        try:
            return client.get()
        except http.client.HTTPException:
            continue
"""
        findings = lint_tree({"repro/api/client.py": source}, self.RULE)
        assert [f.rule_id for f in findings] == [self.RULE]

    def test_transport_constant_name_fires(self, lint_tree):
        source = """\
_TRANSPORT_ERRORS = (OSError,)

def fetch(client):
    while True:
        try:
            return client.get()
        except _TRANSPORT_ERRORS:
            continue
"""
        findings = lint_tree({"repro/cluster/remote.py": source}, self.RULE)
        assert [f.rule_id for f in findings] == [self.RULE]

    def test_handler_in_nested_loop_belongs_to_inner(self, lint_tree):
        # The inner for is bounded and backs off -> clean, even though the
        # outer loop is while True (the handler retries the inner loop).
        source = """\
import time

def drain(client):
    while True:
        for attempt in range(3):
            try:
                client.poll()
            except OSError:
                time.sleep(0.1)
        client.commit()
"""
        assert lint_tree({"repro/api/client.py": source}, self.RULE) == []

    def test_broad_except_is_not_transport(self, lint_tree):
        # except Exception is no-silent-swallow's territory, not a retry.
        source = """\
def serve(handler):
    while True:
        try:
            handler.step()
        except Exception:
            handler.log_failure()
"""
        assert lint_tree({"repro/api/http.py": source}, self.RULE) == []

    def test_suppression(self, lint_tree):
        source = """\
def probe(endpoints):
    for endpoint in endpoints:
        try:
            endpoint.health()
        # repro: ignore[no-unbounded-retry]
        except OSError:
            endpoint.mark_down()
"""
        assert lint_tree({"repro/cluster/health.py": source}, self.RULE) == []


# ---------------------------------------------------------------------- #
# format-version
# ---------------------------------------------------------------------- #
class TestFormatVersion:
    RULE = "format-version"

    def test_inline_text_magic_fires(self, lint_tree):
        source = '''\
TEXT_FORMAT_VERSION = 3

def save(handle):
    handle.write("#extract-index v3\\n")
'''
        findings = lint_tree({"repro/index/storage.py": source}, self.RULE)
        assert [f.rule_id for f in findings] == [self.RULE]
        assert "inline format magic" in findings[0].message

    def test_inline_binary_magic_fires(self, lint_tree):
        source = '''\
BINARY_FORMAT_VERSION = 4

def save(handle):
    handle.write(b"EXIDXBIN")
'''
        findings = lint_tree({"repro/index/binfmt.py": source}, self.RULE)
        assert [f.rule_id for f in findings] == [self.RULE]

    def test_magic_constant_with_version_is_clean(self, lint_tree):
        source = '''\
TEXT_FORMAT_VERSION = 3
_MAGIC = f"#extract-index v{TEXT_FORMAT_VERSION}"

def save(handle):
    handle.write(_MAGIC + "\\n")
'''
        assert lint_tree({"repro/index/storage.py": source}, self.RULE) == []

    def test_magic_without_format_version_fires(self, lint_tree):
        source = '''\
_HEADER_MAGIC = b"EXIDXBIN"

def save(handle):
    handle.write(_HEADER_MAGIC)
'''
        findings = lint_tree({"repro/index/binfmt.py": source}, self.RULE)
        assert [f.rule_id for f in findings] == [self.RULE]
        assert "_FORMAT_VERSION" in findings[0].message

    def test_legacy_magic_tuple_is_clean(self, lint_tree):
        source = '''\
CLUSTER_MANIFEST_FORMAT_VERSION = 1
_MAGIC = f"#extract-cluster v{CLUSTER_MANIFEST_FORMAT_VERSION}"
_KNOWN_MAGICS = (_MAGIC, "#extract-cluster v0")
'''
        assert lint_tree({"repro/cluster/partition.py": source}, self.RULE) == []

    def test_module_outside_paths_is_ignored(self, lint_tree):
        source = '''\
def save(handle):
    handle.write("#extract-index v3\\n")
'''
        assert lint_tree({"repro/search/engine.py": source}, self.RULE) == []

    def test_suppression(self, lint_tree):
        source = '''\
TEXT_FORMAT_VERSION = 3

def save(handle):
    handle.write("#extract-index v3\\n")  # repro: ignore[format-version]
'''
        assert lint_tree({"repro/index/storage.py": source}, self.RULE) == []


# ---------------------------------------------------------------------- #
# seeded-rng
# ---------------------------------------------------------------------- #
class TestSeededRng:
    RULE = "seeded-rng"

    def test_module_level_draw_fires(self, lint_tree):
        source = "import random\n\ndef pick(pool):\n    return random.choice(pool)\n"
        findings = lint_tree({"repro/eval/loadgen.py": source}, self.RULE)
        assert [f.rule_id for f in findings] == [self.RULE]
        assert "random.choice" in findings[0].message

    def test_bare_imported_draw_fires(self, lint_tree):
        source = "from random import random\n\ndef draw():\n    return random()\n"
        assert len(lint_tree({"repro/eval/workload.py": source}, self.RULE)) == 1

    def test_system_random_fires(self, lint_tree):
        source = "import random\n\ndef rng():\n    return random.SystemRandom()\n"
        assert len(lint_tree({"repro/eval/loadgen.py": source}, self.RULE)) == 1

    def test_seedless_random_fires(self, lint_tree):
        source = "import random\n\ndef rng():\n    return random.Random()\n"
        findings = lint_tree({"repro/eval/loadgen.py": source}, self.RULE)
        assert len(findings) == 1
        assert "seed" in findings[0].message

    def test_seeded_constructor_is_sanctioned(self, lint_tree):
        source = (
            "import random\n\n"
            "def rng(seed):\n"
            "    return random.Random(seed)\n"
        )
        assert lint_tree({"repro/eval/loadgen.py": source}, self.RULE) == []

    def test_injected_instance_draws_are_clean(self, lint_tree):
        source = (
            "import random\n\n"
            "def plan(seed, pool):\n"
            "    rng = random.Random(seed)\n"
            "    return [rng.choice(pool), rng.random(), rng.expovariate(1.0)]\n"
        )
        assert lint_tree({"repro/eval/loadgen.py": source}, self.RULE) == []

    def test_non_eval_module_is_out_of_scope(self, lint_tree):
        source = "import random\n\ndef pick(pool):\n    return random.choice(pool)\n"
        assert lint_tree({"repro/datasets/base.py": source}, self.RULE) == []

    def test_suppression(self, lint_tree):
        source = (
            "import random\n\n"
            "def jitter():\n"
            "    return random.random()  # repro: ignore[seeded-rng]\n"
        )
        assert lint_tree({"repro/eval/loadgen.py": source}, self.RULE) == []


# ---------------------------------------------------------------------- #
# gc-policy
# ---------------------------------------------------------------------- #
class TestGcPolicy:
    RULE = "gc-policy"

    ENTRY_BLOCK = (
        "import gc\n\n"
        "YOUNG_GC_THRESHOLD = 50_000\n\n"
        "def main():\n"
        "    return 0\n\n"
        'if __name__ == "__main__":\n'
        "    gc.set_threshold(YOUNG_GC_THRESHOLD)\n"
        "    raise SystemExit(main())\n"
    )

    def test_the_cli_entry_block_is_the_sanctioned_place(self, lint_tree):
        assert lint_tree({"repro/cli.py": self.ENTRY_BLOCK}, self.RULE) == []

    @pytest.mark.parametrize(
        "call",
        ["set_threshold(1000)", "freeze()", "unfreeze()", "disable()", "enable()", "set_debug(0)"],
    )
    def test_every_setter_fires_in_library_code(self, lint_tree, call):
        source = f"import gc\n\ndef serve():\n    gc.{call}\n"
        findings = lint_tree({"repro/api/http.py": source}, self.RULE)
        assert [f.rule_id for f in findings] == [self.RULE]
        assert f"gc.{call.split('(')[0]}()" in findings[0].message

    def test_the_cli_outside_its_entry_block_fires(self, lint_tree):
        source = self.ENTRY_BLOCK.replace("    return 0\n", "    gc.freeze()\n    return 0\n")
        findings = lint_tree({"repro/cli.py": source}, self.RULE)
        assert [(f.rule_id, f.line) for f in findings] == [(self.RULE, 6)]

    def test_a_main_block_elsewhere_is_not_sanctioned(self, lint_tree):
        findings = lint_tree({"repro/api/http.py": self.ENTRY_BLOCK}, self.RULE)
        assert len(findings) == 1

    def test_aliases_are_resolved(self, lint_tree):
        source = (
            "import gc as collector\n"
            "from gc import disable as off, collect\n\n"
            "def serve():\n"
            "    collector.set_threshold(10)\n"
            "    off()\n"
            "    collect()\n"
        )
        findings = lint_tree({"repro/corpus.py": source}, self.RULE)
        assert [f.line for f in findings] == [5, 6]

    def test_reading_the_collector_is_clean(self, lint_tree):
        source = (
            "import gc\n\n"
            "def stats():\n"
            "    gc.collect()\n"
            "    return gc.get_threshold(), gc.isenabled(), gc.get_count()\n"
        )
        assert lint_tree({"repro/api/service.py": source}, self.RULE) == []

    def test_a_method_of_another_object_is_clean(self, lint_tree):
        source = "def stop(server):\n    server.disable()\n    server.enable()\n"
        assert lint_tree({"repro/api/http.py": source}, self.RULE) == []

    @pytest.mark.parametrize("path", ["tests/test_heap_acyclic.py", "benchmarks/e2e/run.py"])
    def test_tests_and_benchmarks_are_exempt(self, lint_tree, path):
        source = (
            "import gc\n\n"
            "def measure():\n"
            "    gc.disable()\n"
            "    gc.set_debug(gc.DEBUG_SAVEALL)\n"
        )
        assert lint_tree({path: source}, self.RULE) == []

    def test_suppression(self, lint_tree):
        source = "import gc\n\ndef serve():\n    gc.freeze()  # repro: ignore[gc-policy]\n"
        assert lint_tree({"repro/api/http.py": source}, self.RULE) == []


# ---------------------------------------------------------------------- #
# lazy-exports
# ---------------------------------------------------------------------- #
class TestLazyExports:
    RULE = "lazy-exports"

    LAZY_PACKAGE = (
        '"""A package."""\n\n'
        "from typing import TYPE_CHECKING\n\n"
        "from repro import _lazy_exports\n\n"
        "if TYPE_CHECKING:\n"
        "    from repro.api.service import SnippetService\n\n"
        '__getattr__, __dir__ = _lazy_exports(globals(), {"repro.api.service": ("SnippetService",)})\n'
        '__all__ = ["SnippetService"]\n'
    )

    def test_a_lazy_package_is_clean(self, lint_tree):
        files = {"repro/__init__.py": "def _lazy_exports(namespace, exports):\n    pass\n",
                 "repro/api/__init__.py": self.LAZY_PACKAGE}
        assert lint_tree(files, self.RULE) == []

    @pytest.mark.parametrize(
        "statement",
        [
            "from repro.api.service import SnippetService",
            "import repro.api.service",
            "import json, repro.eval.experiments as experiments",
            "from . import service",
            "from .service import SnippetService",
            "from repro import corpus",
        ],
    )
    def test_an_eager_import_fires(self, lint_tree, statement):
        files = {"repro/corpus.py": "", "repro/api/__init__.py": f"{statement}\n"}
        findings = lint_tree(files, self.RULE)
        assert [(f.rule_id, f.path, f.line) for f in findings] == [
            (self.RULE, "repro/api/__init__.py", 1)
        ]

    def test_import_time_blocks_count(self, lint_tree):
        source = (
            "from typing import TYPE_CHECKING\n\n"
            "if TYPE_CHECKING:\n"
            "    pass\n"
            "else:\n"
            "    from repro.eval import loadgen\n"
            "try:\n"
            "    import repro.cluster.remote\n"
            "except ImportError:\n"
            "    from repro.cluster import router\n"
            "class Exports:\n"
            "    from repro.snippet.render import render_snippet_text\n"
        )
        findings = lint_tree({"repro/eval/__init__.py": source}, self.RULE)
        assert [f.line for f in findings] == [6, 8, 10, 12]

    def test_an_import_inside_a_function_is_clean(self, lint_tree):
        source = "def experiments():\n    from repro.eval import experiments\n    return experiments\n"
        assert lint_tree({"repro/eval/__init__.py": source}, self.RULE) == []

    def test_modules_and_other_packages_are_out_of_scope(self, lint_tree):
        source = "from repro.api.service import SnippetService\nimport repro.corpus\n"
        files = {"repro/cli.py": source, "tests/__init__.py": source, "benchmarks/e2e/__init__.py": source}
        assert lint_tree(files, self.RULE) == []

    def test_stdlib_and_root_names_are_clean(self, lint_tree):
        source = "import importlib\nimport repro\nfrom repro import _lazy_exports\n"
        assert lint_tree({"repro/xmltree/__init__.py": source}, self.RULE) == []

    def test_suppression(self, lint_tree):
        source = "from repro.utils.text import tokenize  # repro: ignore[lazy-exports]\n"
        assert lint_tree({"repro/utils/__init__.py": source}, self.RULE) == []
