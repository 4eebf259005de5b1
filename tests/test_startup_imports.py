"""A process imports the ``repro`` modules its command uses, and no others.

Every package ``__init__`` re-exports lazily (``repro._lazy_exports``, a
PEP 562 ``__getattr__``) and ``repro.cli`` imports each command's modules
inside that command, so a ``serve`` process loads the serving stack alone:
no experiment harness (``repro.eval``), dataset generator
(``repro.datasets``) or linter (``repro.analysis``), and — unless it is a
shard of a cluster — no ``repro.cluster`` module.  Before the packages
exported lazily, ``import repro.cli`` alone loaded 92 ``repro`` modules,
those four packages among them.

Each case runs ``repro.cli.main`` in a fresh interpreter: a serving
command as far as its port file and one search over the wire, a saving
command to completion; then the child reports ``sys.modules``.  A module
list, not a timing: what a process imports is exact.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main

#: the child: run the command, report the ``repro`` modules it holds
CHILD = r"""
import http.client, io, json, os, sys, threading, time

import repro.cli

argv, port_file, document = json.loads(sys.argv[1])
if port_file:
    server = threading.Thread(target=repro.cli.main, args=(argv, io.StringIO()), daemon=True)
    server.start()
    deadline = time.monotonic() + 60
    while not os.path.exists(port_file):
        if not server.is_alive() or time.monotonic() > deadline:
            raise SystemExit("the server never wrote its port file")
        time.sleep(0.01)
    with open(port_file, encoding="utf-8") as handle:
        port = int(handle.read())
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    body = {"kind": "search", "schema_version": 1, "query": "store", "document": document}
    connection.request("POST", "/v1/search", json.dumps(body))
    answer = connection.getresponse()
    assert answer.status == 200, answer.read()
    answer.read()
elif repro.cli.main(argv, io.StringIO()) != 0:
    raise SystemExit("the command failed")
print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro"))))
sys.stdout.flush()
os._exit(0)
"""

#: no command loads these: the paper's experiment harness, its dataset
#: generators and the invariant linter
NEVER = ("repro.eval", "repro.datasets", "repro.analysis")

STORES = (
    "<stores>"
    "<store><name>Levis</name><city>Houston</city><state>Texas</state></store>"
    "<store><name>Gap</name><city>Austin</city><state>Texas</state></store>"
    "<store><name>Zara</name><city>Boston</city><state>Massachusetts</state></store>"
    "</stores>"
)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A one-document XML file, a corpus and a 2-shard cluster saved from it."""
    root = tmp_path_factory.mktemp("startup")
    xml = root / "stores.xml"
    xml.write_text(STORES, encoding="utf-8")
    corpus, cluster = root / "corpus", root / "cluster"
    sink = io.StringIO()
    assert main(["corpus-save", "--file", str(xml), "--output", str(corpus)], sink) == 0
    assert main([
        "cluster-init", "--file", str(xml), "--shards", "2", "--output", str(cluster),
    ], sink) == 0
    return root


def loaded_modules(argv: list[str], port_file: str = "", document: str = "") -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after ``argv``."""
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (source_root, env.get("PYTHONPATH"))))
    completed = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([argv, port_file, document])],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.splitlines()[-1])


def serving(tmp_path, *argv: str) -> list[str]:
    port_file = str(tmp_path / "port")
    return loaded_modules(
        ["serve", *argv, "--port", "0", "--port-file", port_file], port_file, "stores"
    )


def offending(modules: list[str], prefixes: tuple[str, ...]) -> list[str]:
    return [name for name in modules if name.startswith(prefixes)]


class TestACommandLoadsWhatItServes:
    def test_serve_a_saved_corpus(self, saved, tmp_path):
        modules = serving(tmp_path, "--corpus-dir", str(saved / "corpus"))
        assert "repro.api.http" in modules and "repro.snippet.generator" in modules
        assert offending(modules, NEVER + ("repro.cluster",)) == []

    def test_serve_one_shard_of_a_cluster(self, saved, tmp_path):
        modules = serving(tmp_path, "--cluster-dir", str(saved / "cluster"), "--shard-of", "0")
        assert "repro.cluster.remote" in modules
        assert offending(modules, NEVER) == []

    def test_save_a_corpus_from_a_file(self, saved, tmp_path):
        modules = loaded_modules([
            "corpus-save", "--file", str(saved / "stores.xml"), "--output", str(tmp_path / "corpus"),
        ])
        assert "repro.index.binfmt" in modules
        assert offending(modules, NEVER + ("repro.cluster",)) == []


def packages() -> list[str]:
    """``repro`` and every package under it."""
    root = os.path.dirname(repro.__file__)
    found = []
    for directory, _subdirectories, files in os.walk(root):
        if "__init__.py" in files:
            relative = os.path.relpath(directory, os.path.dirname(root))
            found.append(relative.replace(os.sep, "."))
    return sorted(found)


@pytest.mark.parametrize("package", packages())
def test_import_star_binds_every_export(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))  # bound yet or not
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert sorted(set(module.__all__) - namespace.keys()) == []
    # bound once, as a plain global: patchers that rebind names in
    # ``sys.modules`` find it there
    assert all(name in vars(module) for name in module.__all__)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_export'"):
        module.no_such_export
