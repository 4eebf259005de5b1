"""Every ``examples/*.py`` script runs to completion.

The examples are the documentation of the one query surface
(``ExtractSystem.run_query`` / ``SnippetService``); running them keeps a
renamed or removed entry point from silently rotting them.
"""

from __future__ import annotations

import runpy
import sys
import tempfile
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_are_discovered():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_runs_to_completion(path, tmp_path, monkeypatch, capsys):
    # Two examples write export_output/ and store_search_results.html into
    # the cwd, one snapshots into a mkdtemp(): keep all of it in tmp_path.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(sys, "argv", [str(path)])
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as finished:
        assert not finished.code
    assert capsys.readouterr().out.strip()
