"""Dewey (prefix) labels for XML nodes.

A Dewey label encodes the path from the document root to a node as a tuple
of child ordinals: the root is ``()``, its third child is ``(2,)``, that
child's first child is ``(2, 0)`` and so on.  Dewey labels give us, in
O(depth) time and without touching the tree:

* document order (lexicographic comparison),
* ancestor/descendant tests (prefix tests),
* the lowest common ancestor of two nodes (longest common prefix),

which is what makes a label a self-describing name for a node on the
wire and in the update journal.  (The keyword
indexes, the SLCA / ELCA search path and snippet generation answer the
same questions on ``pre`` ids and the tree's flat
:class:`~repro.xmltree.tree.TreeShape` tables instead — integer bisects
and parent hops, no tuple slicing.)  The textual form uses dot-separated
ordinals (``"0.2.1"``); the root's textual form is ``"r"``.
"""

from __future__ import annotations

from functools import total_ordering
from collections.abc import Iterable, Iterator

from repro.errors import DeweyError

_ROOT_TEXT = "r"


@total_ordering
class Dewey:
    """An immutable Dewey label.

    Instances behave like small value objects: hashable, totally ordered in
    document order, and cheap to derive children/parents from.

    >>> a = Dewey((0, 2))
    >>> b = a.child(1)
    >>> str(b)
    '0.2.1'
    >>> a.is_ancestor_of(b)
    True
    >>> Dewey.common_ancestor(b, Dewey((0, 3)))
    Dewey('0')
    """

    __slots__ = ("_components",)

    def __init__(self, components: Iterable[int] = ()):
        parts = tuple(int(part) for part in components)
        for part in parts:
            if part < 0:
                raise DeweyError(f"Dewey components must be non-negative, got {parts!r}")
        self._components = parts

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def _trusted(cls, components: tuple[int, ...]) -> "Dewey":
        """A label over ``components`` without re-validating them.

        Internal: only for a tuple derived from an already-valid label (a
        slice of its components, or its components plus a non-negative
        ordinal).  Everything arriving from outside goes through
        ``Dewey(...)`` or :meth:`parse`.
        """
        label = cls.__new__(cls)
        label._components = components
        return label

    @classmethod
    def root(cls) -> "Dewey":
        """The label of the document root (one shared immutable instance)."""
        return _ROOT

    @classmethod
    def parse(cls, text: str) -> "Dewey":
        """Parse the dot-separated textual form produced by ``str()``.

        >>> Dewey.parse("0.2.1").components
        (0, 2, 1)
        >>> Dewey.parse("r") == Dewey.root()
        True
        """
        text = text.strip()
        if text in ("", _ROOT_TEXT):
            return cls(())
        try:
            return cls(int(piece) for piece in text.split("."))
        except ValueError as exc:
            raise DeweyError(f"malformed Dewey label text {text!r}") from exc

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def components(self) -> tuple[int, ...]:
        """The ordinal components as a tuple (empty for the root)."""
        return self._components

    @property
    def depth(self) -> int:
        """Depth of the node: the root has depth 0."""
        return len(self._components)

    @property
    def is_root(self) -> bool:
        return not self._components

    @property
    def ordinal(self) -> int:
        """The position of this node among its siblings (0-based)."""
        if self.is_root:
            raise DeweyError("the root has no sibling ordinal")
        return self._components[-1]

    # ------------------------------------------------------------------ #
    # navigation
    # ------------------------------------------------------------------ #
    def child(self, ordinal: int) -> "Dewey":
        """Label of the ``ordinal``-th child of this node."""
        if ordinal < 0:
            raise DeweyError(f"child ordinal must be non-negative, got {ordinal}")
        return Dewey._trusted(self._components + (int(ordinal),))

    def parent(self) -> "Dewey":
        """Label of the parent node."""
        if self.is_root:
            raise DeweyError("the root has no parent")
        return Dewey._trusted(self._components[:-1])

    def ancestors(self, include_self: bool = False) -> Iterator["Dewey"]:
        """Yield ancestor labels from the root down to the parent.

        With ``include_self=True`` the node's own label is yielded last.
        """
        limit = len(self._components) + (1 if include_self else 0)
        for length in range(limit):
            yield Dewey._trusted(self._components[:length])

    def prefix(self, length: int) -> "Dewey":
        """The ancestor label of the given depth (``length`` components)."""
        if length < 0 or length > len(self._components):
            raise DeweyError(
                f"prefix length {length} out of range for label of depth {self.depth}"
            )
        return Dewey._trusted(self._components[:length])

    # ------------------------------------------------------------------ #
    # relationships
    # ------------------------------------------------------------------ #
    def is_ancestor_of(self, other: "Dewey") -> bool:
        """Strict ancestor test (a node is not its own ancestor)."""
        return (
            len(self._components) < len(other._components)
            and other._components[: len(self._components)] == self._components
        )

    def is_ancestor_or_self(self, other: "Dewey") -> bool:
        """Ancestor-or-self test (prefix test)."""
        return other._components[: len(self._components)] == self._components

    @staticmethod
    def common_ancestor(first: "Dewey", second: "Dewey") -> "Dewey":
        """Lowest common ancestor of two labels (longest common prefix)."""
        limit = min(len(first._components), len(second._components))
        length = 0
        while length < limit and first._components[length] == second._components[length]:
            length += 1
        return Dewey(first._components[:length])

    # ------------------------------------------------------------------ #
    # dunder protocol
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dewey):
            return NotImplemented
        return self._components == other._components

    def __lt__(self, other: "Dewey") -> bool:
        if not isinstance(other, Dewey):
            return NotImplemented
        # Lexicographic comparison of component tuples is exactly document
        # (pre-order) order, with ancestors sorting before descendants.
        return self._components < other._components

    def __hash__(self) -> int:
        return hash(self._components)

    def __len__(self) -> int:
        return len(self._components)

    def __iter__(self) -> Iterator[int]:
        return iter(self._components)

    def __getitem__(self, index: int) -> int:
        return self._components[index]

    def __str__(self) -> str:
        if self.is_root:
            return _ROOT_TEXT
        return ".".join(str(part) for part in self._components)

    def __repr__(self) -> str:
        return f"Dewey('{self}')"


_ROOT = Dewey()
