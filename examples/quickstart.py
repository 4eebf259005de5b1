#!/usr/bin/env python3
"""Quickstart: index an XML document, search it and print result snippets.

Run with::

    python examples/quickstart.py

The example builds a small store catalogue from XML text (exactly what a
user of the library would do with their own file), issues the Figure 5
query "store texas" with a snippet size bound of 6 edges and prints the
snippets next to the statistics of the document.
"""

from __future__ import annotations

from repro import ExtractSystem

CATALOGUE_XML = """<?xml version="1.0"?>
<!DOCTYPE stores [
  <!ELEMENT stores (store*)>
  <!ELEMENT store (name, state, city, merchandises)>
  <!ELEMENT merchandises (clothes*)>
  <!ELEMENT clothes (category, fitting, situation)>
]>
<stores>
  <store>
    <name>Levis</name>
    <state>Texas</state>
    <city>Houston</city>
    <merchandises>
      <clothes><category>jeans</category><fitting>man</fitting><situation>casual</situation></clothes>
      <clothes><category>jeans</category><fitting>man</fitting><situation>casual</situation></clothes>
      <clothes><category>jeans</category><fitting>woman</fitting><situation>casual</situation></clothes>
      <clothes><category>shirts</category><fitting>man</fitting><situation>formal</situation></clothes>
    </merchandises>
  </store>
  <store>
    <name>ESprit</name>
    <state>Texas</state>
    <city>Austin</city>
    <merchandises>
      <clothes><category>outwear</category><fitting>woman</fitting><situation>casual</situation></clothes>
      <clothes><category>outwear</category><fitting>woman</fitting><situation>formal</situation></clothes>
      <clothes><category>skirt</category><fitting>woman</fitting><situation>casual</situation></clothes>
    </merchandises>
  </store>
  <store>
    <name>Harbor Cloth</name>
    <state>Oregon</state>
    <city>Portland</city>
    <merchandises>
      <clothes><category>sweaters</category><fitting>man</fitting><situation>casual</situation></clothes>
    </merchandises>
  </store>
</stores>
"""


def main() -> None:
    # 1. Build the system: parse, analyze (entities / attributes /
    #    connection nodes), index.
    system = ExtractSystem.from_xml(CATALOGUE_XML, name="catalogue")

    print("=== document statistics ===")
    print(system.document_stats().format_summary())
    print()
    print("entity types found:", sorted(system.analyzer.entity_tags()))
    print()

    # 2. Search and generate snippets within a 6-edge bound (Figure 5 setup).
    outcome = system.run_query("store texas", size_bound=6)

    print("=== result snippets ===")
    print(outcome.render_text(show_ilist=True))
    print()

    # 3. The per-result IList shows why each snippet looks the way it does.
    first = outcome.snippets[0]
    print("IList of the top result:", ", ".join(first.ilist.texts()))
    print(
        f"snippet uses {first.snippet.size_edges} of {first.size_bound} allowed edges "
        f"and covers {first.covered_items} IList items"
    )


if __name__ == "__main__":
    main()
