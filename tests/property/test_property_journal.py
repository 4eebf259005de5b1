"""One reader of a corpus journal: the load and the bookkeeping agree.

``Corpus.load_dir`` replays a journal and ``directory_documents`` only
maps it, through the same resolver.  Hypothesis writes journals over a
small saved corpus: valid records and hostile ones (unknown, duplicate or
live target subdirectories, names already live, a truncated update).
For every journal, either both raise :class:`StorageError`, or the loaded
corpus holds exactly the names the bookkeeping maps, and each loaded
document's tree is the one its mapped subdirectory holds.  The example
count is the active profile's: the default in the tier-1 run,
``--hypothesis-profile=fuzz`` in CI.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import Corpus
from repro.errors import StorageError
from repro.index.storage import (
    JOURNAL_FILE,
    JournalRecord,
    append_journal_record,
    directory_documents,
    save_index,
)
from repro.xmltree.builder import tree_from_dict

#: snapshot subdirectory → the name of the tree it holds; ``a`` and ``b``
#: are in the manifest, ``c`` and ``d`` back no document until a record
#: adds or swaps them in
TREES = {subdir: f"tree-{subdir}" for subdir in "abcd"}
SUBDIRS = tuple(TREES)
NAMES = ("a", "b", "c", "x")
VALUES = ("texas", "houston", "")


def store_tree(name: str):
    """One document shape for every snapshot, so one label names a text
    node in each of them."""
    return tree_from_dict(
        "retailer", {"store": [{"city": "Austin"}, {"city": "Dallas"}]}, name=name
    )


def first_text_label() -> str:
    tree = store_tree("x")  # held: a node reads its label through its ancestors
    return str(next(node for node in tree.iter_nodes() if node.has_text_value).dewey)


LABEL = first_text_label()


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    directory = tmp_path_factory.mktemp("journal-base")
    corpus = Corpus()
    for subdir in "ab":
        corpus.add_tree(subdir, store_tree(TREES[subdir]))
    assert corpus.save_dir(directory) == ["a", "b"]
    for subdir in "cd":
        save_index(Corpus().add_tree(subdir, store_tree(TREES[subdir])).system.index,
                   directory / subdir)
    return directory


def update(subdir: str, texts: list[str]) -> JournalRecord:
    return JournalRecord(
        kind="update", subdir=subdir, edits=tuple((LABEL, text) for text in texts)
    )


#: any record over the pools: often hostile
any_record = st.one_of(
    st.builds(
        lambda subdir, name: JournalRecord(kind="add", subdir=subdir, name=name),
        st.sampled_from(SUBDIRS), st.sampled_from(NAMES),
    ),
    st.builds(
        lambda subdir: JournalRecord(kind="remove", subdir=subdir),
        st.sampled_from(SUBDIRS + ("ghost",)),
    ),
    st.builds(
        lambda subdir, snapshot: JournalRecord(kind="replace", subdir=subdir, snapshot=snapshot),
        st.sampled_from(SUBDIRS + ("ghost",)), st.sampled_from(SUBDIRS),
    ),
    st.builds(
        update,
        st.sampled_from(SUBDIRS + ("ghost",)),
        st.lists(st.sampled_from(VALUES), max_size=1),
    ),
)


@st.composite
def journals(draw) -> list[JournalRecord]:
    """Records a writer could have appended, with arbitrary ones mixed in.

    ``live`` follows the directory while every record so far was valid, so
    a valid record can be drawn against it; after the first arbitrary one
    the rest are arbitrary too.
    """
    live: dict[str, str] | None = {"a": "a", "b": "b"}
    journal = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        free = [subdir for subdir in SUBDIRS if live is not None and subdir not in live]
        kinds = []
        if live:
            kinds += ["update", "remove"] + (["replace"] if free else [])
        if free and set(NAMES) - set(live.values()):
            kinds.append("add")
        if live is None or not kinds or draw(st.integers(min_value=0, max_value=4)) == 0:
            journal.append(draw(any_record))
            live = None
            continue
        kind = draw(st.sampled_from(kinds))
        if kind == "add":
            subdir = draw(st.sampled_from(free))
            name = draw(st.sampled_from(sorted(set(NAMES) - set(live.values()))))
            journal.append(JournalRecord(kind="add", subdir=subdir, name=name))
            live[subdir] = name
            continue
        subdir = draw(st.sampled_from(sorted(live)))
        if kind == "update":
            journal.append(update(subdir, draw(st.lists(st.sampled_from(VALUES), max_size=1))))
        elif kind == "remove":
            journal.append(JournalRecord(kind="remove", subdir=subdir))
            del live[subdir]
        else:
            snapshot = draw(st.sampled_from(free))
            journal.append(JournalRecord(kind="replace", subdir=subdir, snapshot=snapshot))
            live[snapshot] = live.pop(subdir)
    return journal


def outcome(call):
    try:
        return call()
    except StorageError:
        return None


@settings(deadline=None)
@given(journal=journals(), truncate=st.booleans())
def test_load_and_bookkeeping_read_one_journal(base, journal, truncate):
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch) / "corpus"
        shutil.copytree(base, directory)
        for record in journal:
            append_journal_record(directory, record)
        if truncate and journal[-1].kind == "update" and journal[-1].edits:
            path = directory / JOURNAL_FILE
            path.write_text(
                "".join(path.read_text(encoding="utf-8").splitlines(keepends=True)[:-1]),
                encoding="utf-8",
            )

        loaded = outcome(lambda: Corpus.load_dir(directory))
        documents = outcome(lambda: directory_documents(directory))
        assert (loaded is None) == (documents is None), (loaded, documents)
        if loaded is None:
            return
        assert loaded.names() == sorted(documents.values())
        for subdir, name in documents.items():
            assert loaded.system(name).index.tree.name == TREES[subdir], (subdir, name)
