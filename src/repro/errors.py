"""Exception hierarchy for the eXtract reproduction.

Every error raised intentionally by the library derives from
:class:`ExtractError`, so callers can catch library failures with a single
``except`` clause while still letting programming errors (``TypeError``,
``KeyError`` on internal dicts, ...) propagate unchanged.
"""

from __future__ import annotations


class ExtractError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class XMLParseError(ExtractError):
    """Raised when an XML document cannot be parsed into a tree."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class DTDParseError(ExtractError):
    """Raised when a DTD declaration cannot be parsed."""


class DeweyError(ExtractError):
    """Raised for malformed Dewey labels or invalid Dewey operations."""


class SchemaError(ExtractError):
    """Raised when a schema summary is inconsistent with the document."""


class IndexError_(ExtractError):
    """Raised for index construction or lookup failures.

    Named with a trailing underscore to avoid shadowing the builtin
    ``IndexError`` while keeping the intent obvious.
    """


class IndexNotBuiltError(IndexError_):
    """Raised when an index is queried before :meth:`build` was called."""


class StorageError(ExtractError):
    """Raised when persisting or loading an index from disk fails."""


class QueryError(ExtractError):
    """Raised for malformed keyword queries (e.g. empty after stop-wording)."""


class SearchError(ExtractError):
    """Raised when query evaluation fails."""


class SnippetError(ExtractError):
    """Raised when snippet generation fails."""


class InvalidSizeBoundError(SnippetError):
    """Raised when a snippet size bound is not a positive integer."""

    def __init__(self, bound: object):
        super().__init__(
            f"snippet size bound must be a positive integer number of edges, got {bound!r}"
        )
        self.bound = bound


class PagingError(ExtractError):
    """Raised for invalid pagination arithmetic (non-positive page numbers
    or page sizes).  Before this guard existed, ``page <= 0`` silently
    produced a negative slice start and returned items from the *end* of
    the sequence."""


class ProtocolError(ExtractError):
    """Raised when a service request/response payload violates the typed
    protocol of :mod:`repro.api` (unknown kind, wrong schema version,
    unknown or ill-typed fields, malformed page tokens)."""


class UnknownDocumentError(ExtractError):
    """Raised when a request names a document that is not registered in the
    serving corpus (or anywhere in a cluster).  Distinguished from the base
    class so wire frontends can map it to a ``unknown_document`` error code
    (HTTP 404) instead of a generic failure."""


class DocumentNameError(ExtractError):
    """Raised when a document is registered under an empty name or one
    holding a line break: ``corpus.manifest`` and ``corpus.journal`` keep
    one name per line.  Wire frontends map it to ``bad_request``."""


class OverloadedError(ExtractError):
    """Raised (or wrapped into an ``overloaded`` error response, HTTP 503)
    by the gateway's admission control when the bounded
    in-flight request budget is exhausted — shedding load explicitly
    instead of queueing without bound."""


class DeadlineError(ExtractError):
    """Raised (or wrapped into a ``deadline_exceeded`` error response,
    HTTP 504) by the gateway's deadline when a request misses
    its per-request completion deadline."""


class ClusterError(ExtractError):
    """Raised for sharded-cluster misconfiguration (:mod:`repro.cluster`):
    invalid shard counts, out-of-range or missing partition assignments,
    or a cluster manifest that disagrees with the shard directories."""


class DatasetError(ExtractError):
    """Raised when a synthetic dataset generator receives invalid parameters."""


class EvaluationError(ExtractError):
    """Raised when an experiment or metric cannot be computed."""


class AnalysisError(ExtractError):
    """Raised by the static-analysis subsystem (:mod:`repro.analysis`) for
    usage errors: unknown rule ids, malformed suppression comments,
    unreadable or version-mismatched baseline files, bad scan paths.
    Rule *findings* are not errors — they are data (reported, exit code
    1); this class covers the cases where the linter itself cannot run
    as asked (exit code 2)."""
