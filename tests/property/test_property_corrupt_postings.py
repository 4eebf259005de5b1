"""A damaged POSTINGS section fails the load, never a later lookup.

Any one u32 of the section — the term count, a directory entry's term id,
posting count or blob offset, or an id inside a blob — is overwritten and
the checksum recomputed, so only the reader's own checks stand between the
damage and a served index.  The corpus load then either raises a
:class:`~repro.errors.StorageError` with nothing registered, or registers
the document with an index that answers a lookup of every term it lists.
"""

from __future__ import annotations

import struct
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.corpus import Corpus
from repro.datasets import figure5_document
from repro.errors import StorageError
from repro.index import binfmt
from tests.index.test_binfmt import RegistrationCounter


def postings_span(data: bytes) -> tuple[int, int]:
    """Offset and length of the POSTINGS section of a snapshot."""
    for slot in range(len(binfmt._REQUIRED_SECTIONS)):
        section_id, offset, length = binfmt._TABLE_ENTRY.unpack_from(
            data, binfmt._HEADER.size + binfmt._TABLE_ENTRY.size * slot
        )
        if section_id == binfmt._SEC_POSTINGS:
            return offset, length
    raise AssertionError("no POSTINGS section")


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A one-document corpus directory, its snapshot path and bytes."""
    directory = tmp_path_factory.mktemp("corpus")
    corpus = Corpus()
    corpus.add_tree("doc", figure5_document())
    (subdir,) = corpus.save_dir(directory)
    path = directory / subdir / binfmt.BINARY_FILE
    return directory, path, path.read_bytes()


@given(slot=st.integers(min_value=0), value=st.one_of(
    st.integers(min_value=0, max_value=64), st.integers(min_value=0, max_value=2**32 - 1)
))
def test_one_overwritten_u32_fails_the_load_or_loads_a_whole_index(saved, slot, value):
    directory, path, original = saved
    offset, length = postings_span(original)
    data = bytearray(original)
    struct.pack_into("<I", data, offset + 4 * (slot % (length // 4)), value)
    body = len(data) - binfmt._TRAILER.size
    struct.pack_into("<I", data, body, zlib.crc32(bytes(data[:body])))
    path.write_bytes(bytes(data))

    RegistrationCounter.registered = []
    try:
        corpus = RegistrationCounter.load_dir(directory)
    except StorageError:
        assert RegistrationCounter.registered == []
        return
    assert RegistrationCounter.registered == ["doc"]
    index = corpus.system("doc").index
    for term in index.inverted.vocabulary:
        index.keyword_matches(term)
