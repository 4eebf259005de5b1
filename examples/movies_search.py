#!/usr/bin/env python3
"""The "movies" demo scenario: keyword search with snippets over a film database.

Run with::

    python examples/movies_search.py

Shows eXtract on the second dataset mentioned in §4 ("movies and stores"):
entity/attribute classification of the movie schema, several keyword
queries of different shapes (genre + year, actor name, studio) and the
effect of the snippet size bound on what the user gets to see.
"""

from __future__ import annotations

from repro import ExtractSystem
from repro.datasets.movies import MoviesConfig, generate_movies_document
from repro.snippet.render import render_snippet_text

QUERIES = (
    "movie drama",
    "movie drama 2005",
    "actor movie",
    "Blue Lantern Pictures",
)


def main() -> None:
    document = generate_movies_document(MoviesConfig(movies=40, seed=23), name="cinema")
    system = ExtractSystem.from_tree(document)

    print("=== schema analysis ===")
    analyzer = system.analyzer
    print("entity types:", sorted(analyzer.entity_tags()))
    for entity in analyzer.entity_types.values():
        key_name = entity.key.attribute_tag if entity.key else "(no key)"
        print(
            f"  {entity.tag:<8s} instances={entity.instance_count:<4d} "
            f"attributes={entity.attribute_tags} key={key_name}"
        )
    print()

    for query in QUERIES:
        outcome = system.run_query(query, size_bound=8, limit=3)
        print(f'=== query "{query}" — {len(outcome.results)} results shown ===')
        for generated in outcome.snippets:
            print(render_snippet_text(generated))
        print()

    # Size-bound sweep on one query: the snippet gracefully grows.
    print("=== effect of the snippet size bound (query 'movie drama') ===")
    results = system.engine.search("movie drama")
    top = results[0]
    for bound in (4, 8, 12, 20):
        generated = system.generator.generate(top, size_bound=bound)
        print(
            f"  bound={bound:<3d} edges used={generated.snippet.size_edges:<3d} "
            f"IList items covered={generated.covered_items}/{len(generated.ilist.coverable_items())}"
        )


if __name__ == "__main__":
    main()
