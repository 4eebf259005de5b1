"""Shared pagination arithmetic for the serving surfaces.

One definition of "page" for every paginated sequence (result sets,
snippet batches, payload lists): 1-based pages, ``page_size=None`` means
everything on one page, and pages past the end are empty rather than an
error — mirroring web-service paging.

Non-positive pages and page sizes are rejected with
:class:`~repro.errors.PagingError`: ``(page - 1) * page_size`` goes
negative for ``page <= 0``, and Python's negative-index slicing would then
silently serve items from the *end* of the sequence as if they were a
valid page.  The typed protocol already refuses such requests
(:meth:`repro.api.protocol.SearchRequest.validate`); validating here too
protects every internal caller that bypasses request validation.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TypeVar

from repro.errors import PagingError

_Item = TypeVar("_Item")


def _require_positive_int(value: int, name: str) -> None:
    # bool is an int subclass; True would silently mean page 1.
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise PagingError(f"{name} must be a positive integer, got {value!r}")


def page_bounds(count: int, page: int, page_size: int | None) -> tuple[int, int]:
    """The ``[start, stop)`` positions of one page of a ``count``-item
    sequence, clipped to it (see module docstring for the conventions).

    >>> page_bounds(3, page=2, page_size=2)
    (2, 3)
    >>> page_bounds(3, page=5, page_size=2)
    (3, 3)
    """
    _require_positive_int(page, "page")
    if page_size is None:
        return (0, count) if page == 1 else (count, count)
    _require_positive_int(page_size, "page_size")
    start = min((page - 1) * page_size, count)
    return start, min(start + page_size, count)


def page_slice(items: Sequence[_Item], page: int, page_size: int | None) -> list[_Item]:
    """The items of one page (see module docstring for the conventions).

    >>> page_slice(["a", "b", "c"], page=2, page_size=2)
    ['c']
    >>> page_slice(["a", "b", "c"], page=0, page_size=2)
    Traceback (most recent call last):
        ...
    repro.errors.PagingError: page must be a positive integer, got 0
    """
    start, stop = page_bounds(len(items), page, page_size)
    return list(items[start:stop])
