"""The runtime twin of the static ``error-contract`` rule: walk
``repro.errors`` with :mod:`inspect` and assert the protocol's error-code
tables cover it.  The static rule checks the source; this checks the live
modules, so the contract holds even when the linter is skipped.

Also here: the one bound the protocol itself enforces — a batch may expand
to at most ``MAX_BATCH_FANOUT`` (query, document) pairs — answers the same
``bad_request`` bytes from every backend."""

from __future__ import annotations

import inspect
import json

import pytest

import repro.errors as errors_module
from repro.api import BatchRequest, SnippetService
from repro.api.protocol import (
    ERROR_CODES,
    HTTP_STATUS_BY_CODE,
    MAX_BATCH_FANOUT,
    _CODE_BY_EXCEPTION,
    code_for_exception,
    http_status_for_code,
)
from repro.cluster import ClusterService
from repro.errors import ExtractError, ProtocolError
from tests.cluster.conftest import build_corpus, in_thread_remote


def _error_classes() -> list[type[ExtractError]]:
    """Every concrete ExtractError subclass defined in repro.errors."""
    classes = [
        cls
        for _name, cls in inspect.getmembers(errors_module, inspect.isclass)
        if issubclass(cls, ExtractError) and cls.__module__ == errors_module.__name__
    ]
    assert len(classes) >= 15  # the hierarchy, not an accidental empty walk
    return classes


class TestCodeTables:
    def test_every_code_has_an_http_status(self):
        assert set(ERROR_CODES) == set(HTTP_STATUS_BY_CODE)

    def test_statuses_are_plausible_http_codes(self):
        for code, status in HTTP_STATUS_BY_CODE.items():
            assert 400 <= status <= 599, (code, status)

    def test_internal_fallback_exists(self):
        assert "internal" in ERROR_CODES
        assert http_status_for_code("internal") == 500

    def test_unknown_code_falls_back_to_500(self):
        assert http_status_for_code("no-such-code") == 500
        assert http_status_for_code(None) == 500

    def test_mapping_targets_are_declared_codes(self):
        for exc_class, code in _CODE_BY_EXCEPTION:
            assert code in ERROR_CODES, (exc_class.__name__, code)

    def test_mapping_classes_live_in_repro_errors(self):
        for exc_class, _code in _CODE_BY_EXCEPTION:
            assert exc_class.__module__ == errors_module.__name__
            assert issubclass(exc_class, ExtractError)


class TestExceptionCoverage:
    @pytest.mark.parametrize(
        "exc_class", _error_classes(), ids=lambda cls: cls.__name__
    )
    def test_every_errors_class_maps_to_a_declared_code(self, exc_class):
        code = code_for_exception(exc_class("boom"))
        assert code in ERROR_CODES
        assert http_status_for_code(code) in range(400, 600)

    def test_specific_wire_semantics_preserved(self):
        from repro.errors import (
            DeadlineError,
            OverloadedError,
            PagingError,
            ProtocolError,
            UnknownDocumentError,
        )

        expectations = {
            UnknownDocumentError: ("unknown_document", 404),
            OverloadedError: ("overloaded", 503),
            DeadlineError: ("deadline_exceeded", 504),
            PagingError: ("invalid_page", 400),
            ProtocolError: ("bad_request", 400),
        }
        for exc_class, (code, status) in expectations.items():
            assert code_for_exception(exc_class("x")) == code
            assert http_status_for_code(code) == status

    def test_foreign_exception_maps_to_internal(self):
        assert code_for_exception(RuntimeError("boom")) == "internal"


class TestBatchFanoutBound:
    DOCUMENTS = ("stores", "retail", "movies", "bibliography")

    def too_many(self, documents) -> BatchRequest:
        per_document = MAX_BATCH_FANOUT // len(self.DOCUMENTS) + 1
        return BatchRequest(queries=("store texas",) * per_document, documents=documents)

    def test_the_bound_is_a_product_and_inclusive(self):
        queries = ("store",) * (MAX_BATCH_FANOUT // 4)
        BatchRequest(queries=queries, documents=("a", "b", "c", "d")).validate()
        with pytest.raises(ProtocolError, match=str(MAX_BATCH_FANOUT)):
            BatchRequest(queries=queries + ("store",), documents=("a", "b", "c", "d")).validate()
        # unknown documents are not looked up before the size is refused
        with pytest.raises(ProtocolError):
            BatchRequest(queries=("store",), documents=("ghost",) * (MAX_BATCH_FANOUT + 1)).validate()
        # nothing the repository itself sends comes anywhere near it
        assert MAX_BATCH_FANOUT >= 100 * 4 * 4

    @pytest.mark.parametrize("explicit", [True, False], ids=["named documents", "all documents"])
    def test_every_backend_answers_the_same_bad_request(self, explicit):
        batch = self.too_many(self.DOCUMENTS if explicit else None)
        text = json.dumps(batch.to_dict())
        with SnippetService(build_corpus()) as single:
            reference = single.execute_batch(batch)
            assert reference.code == "bad_request"
            assert http_status_for_code(reference.code) == 400
            assert str(MAX_BATCH_FANOUT) in reference.message
            expected = single.handle_json(text)
            assert json.loads(expected) == reference.to_dict()

        def build() -> ClusterService:
            return ClusterService.from_corpus(build_corpus(), shards=2)

        with build() as cluster:
            assert cluster.execute_batch(batch).to_dict() == reference.to_dict()
            assert cluster.handle_json(text) == expected
        with in_thread_remote(build) as remote:
            assert remote.execute_batch(batch).to_dict() == reference.to_dict()
            assert remote.handle_json(text) == expected
