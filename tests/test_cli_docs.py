"""Every documented command line parses.

Collects each ``python -m repro.cli …`` line — backslash continuations
joined, inline code cut at its closing backtick, ``#`` comments dropped —
from ``docs/*.md``, ``examples/*.py``, the CLI module docstring and the
verify skill notes, and runs it through :func:`repro.cli.build_parser`.  A
renamed or deleted option, or a required one left out, fails here before a
reader copies the example.
"""

from __future__ import annotations

import glob
import os
import shlex

import pytest

import repro.cli
from repro.cli import build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INVOCATION = "python -m repro.cli"


def documented_commands(label: str, text: str):
    """``(id, argv)`` for every CLI invocation in ``text``."""
    lines = text.splitlines()
    for number, line in enumerate(lines, start=1):
        start = line.find(INVOCATION)
        if start < 0:
            continue
        command = line[start + len(INVOCATION):]
        following = number  # index of the next line
        while command.rstrip().endswith("\\"):
            continuation = lines[following].strip().lstrip("#")
            command = command.rstrip().rstrip("\\") + " " + continuation
            following += 1
        command = command.split("`", 1)[0]
        yield f"{label}:{number}", shlex.split(command, comments=True)


def _sources():
    for pattern in ("docs/*.md", "examples/*.py", ".claude/skills/verify/SKILL.md"):
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            with open(path, "r", encoding="utf-8") as handle:
                yield os.path.relpath(path, ROOT), handle.read()
    yield "repro.cli docstring", repro.cli.__doc__


COMMANDS = [
    pytest.param(argv, id=identifier)
    for label, text in _sources()
    for identifier, argv in documented_commands(label, text)
]


def test_every_source_documents_some_command():
    labels = {param.id.rsplit(":", 1)[0] for param in COMMANDS}
    assert {"docs/cluster.md", "docs/loadgen.md", "repro.cli docstring"} <= labels


@pytest.mark.parametrize("argv", COMMANDS)
def test_documented_command_parses(argv):
    build_parser().parse_args(argv)


def test_the_module_docstring_lists_every_command():
    for name, *_ in repro.cli._COMMANDS:
        assert f"``{name}``" in repro.cli.__doc__, name
