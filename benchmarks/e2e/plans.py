"""Seeded inputs of the end-to-end benchmark: corpora, query pools, plans.

Everything the server ever receives is built here: the XML files the CLI
snapshots, and the JSON payloads the client posts.  ``--seed`` is the
only randomness of a run — equal seeds give byte-equal plans, including
the evolving update bodies of ``mixed_rw`` (each plan prints a SHA-256
signature so two runs can prove it).

What the seed moves, and what it deliberately does not:

* **Fixed:** the documents (generator seeds are part of the corpus
  definition), each document's query pool (``WorkloadGenerator`` at
  :data:`POOL_SEED`, 14 two-keyword + 10 three-keyword queries) and the
  request *multiset* of every workload (the Zipf expectation as exact
  counts, the batch compositions, one write per read interval).  Cold
  page-1 cost spans three decades across queries — a freshly drawn pool
  of 120 moved the cold p50 by 30 % between seeds — and a sampled Zipf
  stream moved ``cluster_read`` and ``mixed_rw`` throughput by 17 %.
  Set-up work is identical on every seed.
* **Seeded:** the order of the requests (the cold sessions and their
  document interleaving; the warm rounds; the reads inside each write
  interval of ``mixed_rw``) and the position and new value of every
  update.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from typing import Any

from repro.api.protocol import SCHEMA_VERSION
from repro.datasets import (
    AuctionConfig,
    BibliographyConfig,
    MoviesConfig,
    RetailConfig,
    generate_auction_document,
    generate_bibliography_document,
    generate_movies_document,
    generate_retail_document,
)
from repro.datasets.base import US_CITIES
from repro.eval.workload import WorkloadGenerator
from repro.index.builder import IndexBuilder
from repro.search.query import KeywordQuery
from repro.xmltree.serialize import to_xml_string

SIZE_BOUND = 14
PAGE_SIZE = 10
ZIPF_SKEW = 1.1
#: the fixed seed of every document's query pool (see the module docstring)
POOL_SEED = 7
TWO_KEYWORD_QUERIES = 14
THREE_KEYWORD_QUERIES = 10
BATCH_QUERIES = 4
BATCH_DOCUMENTS = 4

WORKLOADS = ("cold_browse", "warm_read", "mixed_rw", "cluster_read")


# ---------------------------------------------------------------------- #
# corpora
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class DocSpec:
    """One generated document: a built-in generator and its parameters."""

    name: str
    kind: str
    params: tuple[tuple[str, int], ...]

    def build(self):
        kwargs = dict(self.params)
        if self.kind == "retail":
            return generate_retail_document(RetailConfig(**kwargs), name=self.name)
        if self.kind == "movies":
            return generate_movies_document(MoviesConfig(**kwargs), name=self.name)
        if self.kind == "auctions":
            return generate_auction_document(AuctionConfig(**kwargs), name=self.name)
        if self.kind == "bibliography":
            return generate_bibliography_document(BibliographyConfig(**kwargs), name=self.name)
        raise ValueError(f"unknown document kind {self.kind!r}")


def _retail(name: str, retailers: int, stores: int, clothes: int, seed: int) -> DocSpec:
    return DocSpec(
        name,
        "retail",
        (
            ("retailers", retailers),
            ("stores_per_retailer", stores),
            ("clothes_per_store", clothes),
            ("seed", seed),
        ),
    )


def _movies(name: str, movies: int, seed: int) -> DocSpec:
    return DocSpec(name, "movies", (("movies", movies), ("seed", seed)))


#: corpus name → scale → document specs.  ``full`` is what BENCHMARK.json
#: measures; ``smoke`` is the same shapes at a size the tier-1 test can
#: set up in a second.
CORPORA: dict[str, dict[str, tuple[DocSpec, ...]]] = {
    # Five document shapes of 8k–10k nodes: large enough that a cold
    # query is ≥ 95 % search + snippet work, small enough that three
    # set-ups and 120 cold sessions fit one 35-second run.
    "large": {
        "full": (
            _retail("retail-wide", 20, 10, 10, 11),
            _retail("retail-deep", 40, 5, 10, 12),
            _movies("movies", 340, 23),
            DocSpec("auctions", "auctions", (("scale", 35), ("seed", 31))),
            DocSpec(
                "bibliography",
                "bibliography",
                (("conferences", 30), ("papers_per_conference", 26), ("seed", 47)),
            ),
        ),
        "smoke": (
            _retail("retail-wide", 3, 3, 3, 11),
            _movies("movies", 8, 23),
        ),
    },
    "small": {
        "full": tuple(
            [_retail(f"retail-{i}", 4, 8, 8, 100 + i) for i in range(8)]
            + [_movies(f"movies-{i}", 60, 200 + i) for i in range(4)]
        ),
        "smoke": (
            _retail("retail-0", 2, 3, 3, 100),
            _retail("retail-1", 2, 3, 3, 101),
            _movies("movies-0", 8, 200),
        ),
    },
    "medium": {
        "full": tuple(_retail(f"retail-{i}", 6, 10, 12, 100 + i) for i in range(6)),
        "smoke": (
            _retail("retail-0", 2, 3, 3, 100),
            _retail("retail-1", 2, 3, 3, 101),
        ),
    },
}

CORPUS_OF_WORKLOAD = {
    "cold_browse": "large",
    "warm_read": "small",
    "mixed_rw": "medium",
    "cluster_read": "small",
}


@dataclass
class Document:
    """A generated document: its XML text, node count and query pool."""

    name: str
    xml: str
    nodes: int
    pool: list[str]


def build_corpus(corpus: str, scale: str) -> list[Document]:
    """Generate the corpus's documents and their fixed query pools."""
    documents = []
    for spec in CORPORA[corpus][scale]:
        tree = spec.build()
        documents.append(
            Document(spec.name, to_xml_string(tree), tree.size_nodes, _query_pool(tree))
        )
    return documents


def _query_pool(tree) -> list[str]:
    """The document's query pool, 2- and 3-keyword queries interleaved so
    any prefix keeps the 14:10 ratio; queries that normalise to the same
    keyword tuple share a result-cache key, so only the first is kept."""
    generator = WorkloadGenerator(IndexBuilder().build(tree), seed=POOL_SEED)
    two = generator.generate(TWO_KEYWORD_QUERIES, keywords_per_query=2).texts()
    three = generator.generate(THREE_KEYWORD_QUERIES, keywords_per_query=3).texts()
    merged = sorted(
        ((rank + 0.5) / len(queries), raw)
        for queries in (two, three)
        for rank, raw in enumerate(queries)
    )
    pool: list[str] = []
    seen: set[tuple[str, ...]] = set()
    for _, raw in merged:
        keywords = KeywordQuery.parse(raw).keywords
        if keywords not in seen:
            seen.add(keywords)
            pool.append(raw)
    return pool


# ---------------------------------------------------------------------- #
# payloads
# ---------------------------------------------------------------------- #
def search_payload(query: str, document: str, page_size: int = PAGE_SIZE) -> dict[str, Any]:
    return {
        "kind": "search",
        "schema_version": SCHEMA_VERSION,
        "query": query,
        "document": document,
        "size_bound": SIZE_BOUND,
        "page": 1,
        "page_size": page_size,
    }


def batch_payload(queries: list[str], documents: list[str]) -> dict[str, Any]:
    return {
        "kind": "batch",
        "schema_version": SCHEMA_VERSION,
        "queries": queries,
        "documents": documents,
        "size_bound": SIZE_BOUND,
    }


def update_payload(document: str, xml: str) -> dict[str, Any]:
    return {
        "kind": "update",
        "schema_version": SCHEMA_VERSION,
        "document": document,
        "xml": xml,
    }


_CITY = re.compile(r"<city>([^<]*)</city>")


def edit_one_city(xml: str, rng: random.Random) -> str:
    """``xml`` with exactly one seeded ``<city>`` value replaced by a
    different city — a text-only edit the incremental layer applies as a
    posting delta (a text-identical body would be a no-op)."""
    matches = list(_CITY.finditer(xml))
    if not matches:
        raise ValueError("document has no <city> element to edit")
    match = matches[rng.randrange(len(matches))]
    choices = [city for city in US_CITIES if city != match.group(1)]
    replacement = choices[rng.randrange(len(choices))]
    return f"{xml[: match.start(1)]}{replacement}{xml[match.end(1) :]}"


# ---------------------------------------------------------------------- #
# plans
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Step:
    """One planned client action.

    ``kind`` is ``search`` / ``batch`` / ``update`` (one request) or
    ``session`` (``payload`` is page 1; the client follows ``next_page``
    to the end).
    """

    kind: str
    payload: dict[str, Any]


@dataclass
class Plan:
    """A workload's full client script for one seed and run length.

    ``warmup`` runs untimed before ``main``; ``main`` is the timed phase
    (replayed in rounds where ``rounds`` is true); the two probes run
    after it and give every workload a session and an update latency
    (``update_probe`` last — it invalidates caches).
    """

    workload: str
    documents: list[Document]
    main: list[Step]
    warmup: list[Step] = field(default_factory=list)
    session_probe: list[Step] = field(default_factory=list)
    update_probe: list[Step] = field(default_factory=list)
    rounds: bool = False

    def signature(self) -> str:
        """SHA-256 over every payload in firing order (update bodies
        included): equal signatures ⇔ byte-equal request streams."""
        canonical = json.dumps(
            [
                [phase, step.kind, step.payload]
                for phase, steps in (
                    ("warmup", self.warmup),
                    ("main", self.main),
                    ("session_probe", self.session_probe),
                    ("update_probe", self.update_probe),
                )
                for step in steps
            ],
            sort_keys=True,
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _zipf_shares(size: int, skew: float = ZIPF_SKEW) -> list[float]:
    """P(rank r) ∝ 1 / (r + 1)^skew over ``size`` ranks."""
    weights = [1.0 / (rank + 1) ** skew for rank in range(size)]
    total = sum(weights)
    return [weight / total for weight in weights]


def _apportion(shares: list[float], count: int) -> list[int]:
    """``count`` split by ``shares`` in whole numbers (largest remainder):
    the expected counts of a Zipf stream, exactly, with no sampling noise."""
    exact = [share * count for share in shares]
    whole = [int(value) for value in exact]
    by_remainder = sorted(range(len(shares)), key=lambda i: (whole[i] - exact[i], i))
    for index in by_remainder[: count - sum(whole)]:
        whole[index] += 1
    return whole


def _zipf_searches(documents: list[Document], count: int, page_size: int) -> list[Step]:
    """``count`` searches whose (document, query) frequencies are the
    Zipf(1.1) × Zipf(1.1) expectation over the fixed rank orders — the
    same multiset on every seed; the caller's seed orders it."""
    steps: list[Step] = []
    per_document = _apportion(_zipf_shares(len(documents)), count)
    for document, requests in zip(documents, per_document):
        per_query = _apportion(_zipf_shares(len(document.pool)), requests)
        for query, repeats in zip(document.pool, per_query):
            steps.extend(
                Step("search", search_payload(query, document.name, page_size))
                for _ in range(repeats)
            )
    return steps


def _zipf_batches(documents: list[Document], count: int) -> list[Step]:
    """``count`` batches of 4 queries × 4 documents: a quarter as many
    compositions, Zipf-drawn once from a fixed stream (part of the
    workload definition, like the query pools), each sent four times."""
    rng = random.Random("batch compositions")
    document_shares = _zipf_shares(len(documents))
    steps = []
    for _ in range(max(1, count // 4)):
        chosen: list[Document] = []
        while len(chosen) < min(BATCH_DOCUMENTS, len(documents)):
            document = rng.choices(documents, document_shares)[0]
            if document not in chosen:
                chosen.append(document)
        pool = chosen[0].pool
        queries = rng.choices(pool, _zipf_shares(len(pool)), k=BATCH_QUERIES)
        steps.append(Step("batch", batch_payload(queries, [doc.name for doc in chosen])))
    return [steps[index % len(steps)] for index in range(count)]


def _sessions(documents: list[Document], per_document: int, page_size: int) -> list[Step]:
    """A browse session for each of the first ``per_document`` queries of
    every pool (about a third of the pool queries have more than one page)."""
    return [
        Step("session", search_payload(query, doc.name, page_size))
        for doc in documents
        for query in doc.pool[:per_document]
    ]


def _updates(documents: list[Document], rng: random.Random, count: int) -> list[Step]:
    """``count`` one-value updates, the documents that have a ``<city>``
    taking turns; each body edits the document's *current* XML (what the
    server holds once the earlier updates of the plan have been applied)."""
    editable = [doc for doc in documents if _CITY.search(doc.xml)]
    current = {doc.name: doc.xml for doc in editable}
    steps = []
    for index in range(count):
        doc = editable[index % len(editable)]
        current[doc.name] = edit_one_city(current[doc.name], rng)
        steps.append(Step("update", update_payload(doc.name, current[doc.name])))
    return steps


def warmup_of(workload: str, main: list[Step]) -> list[Step]:
    """What must run, untimed, before ``main`` for its caches to be warm."""
    if workload == "warm_read":
        return list(main)
    if workload == "cluster_read":
        # Round-robin replica rotation: consecutive reads of one shard
        # alternate endpoints, so each distinct request issued twice in a
        # row warms both replicas' caches.
        return [step for step in distinct(main) for _ in range(2)]
    return []


def distinct(steps: list[Step]) -> list[Step]:
    seen: set[str] = set()
    unique = []
    for step in steps:
        key = json.dumps(step.payload, sort_keys=True)
        if key not in seen:
            seen.add(key)
            unique.append(step)
    return unique


@dataclass(frozen=True)
class Sizing:
    """Request counts per second of ``--seconds``, and fixed probe sizes.

    Plans are fixed work sized *from* ``--seconds`` (a faster program
    finishes sooner; the request multiset never depends on its speed),
    except the warm rounds, which replay until the time is up.
    """

    cold_sessions_per_document_second: float
    warm_round_requests: int
    mixed_requests_per_second: float
    cluster_round_requests: int
    session_probe_per_document: int
    update_probe: int
    page_size: int


SIZING = {
    "full": Sizing(2.0, 1000, 100.0, 240, 8, 12, PAGE_SIZE),
    # page_size 3: the tiny smoke documents still yield multi-page sessions
    "smoke": Sizing(4.0, 60, 40.0, 30, 6, 2, 3),
}


def build_plan(workload: str, seed: int, seconds: float, scale: str = "full") -> Plan:
    """The deterministic client script of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    sizing = SIZING[scale]
    documents = build_corpus(CORPUS_OF_WORKLOAD[workload], scale)
    rng = random.Random(f"{workload}:{seed}")
    plan = Plan(workload, documents, main=[])

    if workload == "cold_browse":
        per_document = max(1, round(sizing.cold_sessions_per_document_second * seconds))
        sessions = _sessions(documents, per_document, sizing.page_size)
        rng.shuffle(sessions)
        plan.main = sessions
        plan.update_probe = _updates(documents, rng, sizing.update_probe)
        return plan

    probe = _sessions(documents, sizing.session_probe_per_document, sizing.page_size)
    if workload == "warm_read":
        plan.main = _zipf_searches(documents, sizing.warm_round_requests, sizing.page_size)
        rng.shuffle(plan.main)
        plan.rounds = True
    elif workload == "cluster_read":
        batches = sizing.cluster_round_requests // 5
        plan.main = _zipf_searches(
            documents, sizing.cluster_round_requests - batches, sizing.page_size
        ) + _zipf_batches(documents, batches)
        rng.shuffle(plan.main)
        plan.rounds = True
    else:  # mixed_rw
        total = max(1, round(sizing.mixed_requests_per_second * seconds))
        updates = max(1, total // 20)
        reads = _zipf_searches(documents, total - updates, sizing.page_size)
        # One update after every interval of reads, documents in turn.  The
        # reads are dealt evenly over the intervals (every interval holds
        # the same share of each hot query), so how often a write lands
        # between two reads of one query — what decides a cold recompute —
        # barely depends on the seed.  The seed picks which <city> changes
        # to what, and the order of the reads inside each interval.
        for index, update in enumerate(_updates(documents, rng, updates)):
            interval = reads[index::updates]
            rng.shuffle(interval)
            plan.main.extend(interval)
            plan.main.append(update)
        plan.session_probe = probe
        return plan

    plan.warmup = warmup_of(workload, plan.main)
    plan.session_probe = probe
    plan.update_probe = _updates(documents, rng, sizing.update_probe)
    return plan
