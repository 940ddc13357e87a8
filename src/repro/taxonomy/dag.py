"""Taxonomy structure: the IS_A DAG of a Network source.

GO, Enzyme and InterPro import intra-source Is-a relationships; this module
turns them into a queryable DAG with the operations that Subsumed
derivation (paper Section 3) and the Section 5.2 statistical rollups need:
ancestors, descendants, roots, leaves, depth and a topological order.

Terms may have several parents (GO is a DAG, not a tree).  Cycles are
rejected at construction time — an Is-a cycle is always a data error.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Iterable, Iterator

from repro.gam.errors import GamIntegrityError


class Taxonomy:
    """An immutable IS_A DAG over term accessions.

    Parameters
    ----------
    child_parent_pairs:
        ``(child, parent)`` pairs, exactly as stored by the Is-a mapping.
    """

    def __init__(self, child_parent_pairs: Iterable[tuple[str, str]]) -> None:
        self._parents: dict[str, set[str]] = defaultdict(set)
        self._children: dict[str, set[str]] = defaultdict(set)
        terms: set[str] = set()
        for child, parent in child_parent_pairs:
            if child == parent:
                raise GamIntegrityError(f"term {child!r} is its own parent")
            self._parents[child].add(parent)
            self._children[parent].add(child)
            terms.add(child)
            terms.add(parent)
        self._terms = terms
        self._order = self._topological_order()
        self._depths: dict[str, int] | None = None
        self._ancestor_sets: dict[str, frozenset[str]] | None = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_mapping(cls, mapping: "object") -> "Taxonomy":
        """Build from an Is-a :class:`~repro.operators.mapping.Mapping`
        whose associations are oriented child → parent."""
        return cls((acc1, acc2) for acc1, acc2, __ in mapping.rows)

    def _topological_order(self) -> list[str]:
        """Terms ordered parents-before-children; raises on cycles."""
        remaining_parents = {
            term: len(self._parents.get(term, ())) for term in self._terms
        }
        queue = deque(sorted(t for t, n in remaining_parents.items() if n == 0))
        order: list[str] = []
        while queue:
            term = queue.popleft()
            order.append(term)
            for child in sorted(self._children.get(term, ())):
                remaining_parents[child] -= 1
                if remaining_parents[child] == 0:
                    queue.append(child)
        if len(order) != len(self._terms):
            unresolved = sorted(t for t, n in remaining_parents.items() if n > 0)
            raise GamIntegrityError(
                f"IS_A structure contains a cycle involving {unresolved[:5]}"
            )
        return order

    # -- basic queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: str) -> bool:
        return term in self._terms

    def __iter__(self) -> Iterator[str]:
        return iter(self._order)

    @property
    def terms(self) -> set[str]:
        """All term accessions."""
        return set(self._terms)

    def parents(self, term: str) -> set[str]:
        """Direct parents of a term."""
        self._require(term)
        return set(self._parents.get(term, ()))

    def children(self, term: str) -> set[str]:
        """Direct children of a term."""
        self._require(term)
        return set(self._children.get(term, ()))

    def roots(self) -> set[str]:
        """Terms without parents."""
        return {term for term in self._terms if not self._parents.get(term)}

    def leaves(self) -> set[str]:
        """Terms without children."""
        return {term for term in self._terms if not self._children.get(term)}

    def _require(self, term: str) -> None:
        if term not in self._terms:
            raise KeyError(f"term not in taxonomy: {term!r}")

    # -- closures ----------------------------------------------------------------

    def ancestors(self, term: str, include_self: bool = False) -> set[str]:
        """All terms reachable upward from ``term``.

        Served from the memoized transitive closure: the first call
        computes every term's ancestor set in one iterative pass along the
        topological order (parents before children), so rollups that ask
        for ancestors once per association — e.g.
        :func:`repro.derived.subsumed.rollup_mapping` over a large GO
        annotation mapping — no longer re-walk the DAG per association,
        and deep IS_A chains carry no recursion-depth risk.
        """
        self._require(term)
        closure = self._ancestor_closure()[term]
        if include_self:
            return set(closure) | {term}
        return set(closure)

    def _ancestor_closure(self) -> dict[str, frozenset[str]]:
        """Every term's full ancestor set, computed once, iteratively."""
        if self._ancestor_sets is None:
            sets: dict[str, frozenset[str]] = {}
            for term in self._order:
                parents = self._parents.get(term, ())
                mine: set[str] = set()
                for parent in parents:
                    mine.add(parent)
                    mine.update(sets[parent])
                sets[term] = frozenset(mine)
            self._ancestor_sets = sets
        return self._ancestor_sets

    def descendants(self, term: str, include_self: bool = False) -> set[str]:
        """All terms reachable downward from ``term`` (the *subsumed*
        terms of paper Section 3)."""
        self._require(term)
        return self._reach(term, self._children, include_self)

    @staticmethod
    def _reach(
        start: str, edges: dict[str, set[str]], include_self: bool
    ) -> set[str]:
        found: set[str] = {start} if include_self else set()
        queue = deque(edges.get(start, ()))
        while queue:
            term = queue.popleft()
            if term in found:
                continue
            found.add(term)
            queue.extend(edges.get(term, ()))
        return found

    def subsumed_pairs(self) -> Iterator[tuple[str, str]]:
        """All ``(ancestor, descendant)`` pairs — the transitive closure.

        This is exactly the association set of a Subsumed relationship.
        Computed bottom-up along the topological order so each term's
        descendant set is built once.
        """
        descendants: dict[str, set[str]] = {}
        for term in reversed(self._order):
            mine: set[str] = set()
            for child in self._children.get(term, ()):
                mine.add(child)
                mine.update(descendants[child])
            descendants[term] = mine
        for term in self._order:
            for descendant in sorted(descendants[term]):
                yield (term, descendant)

    # -- metrics -----------------------------------------------------------------

    def depth(self, term: str) -> int:
        """Length of the longest path from a root to ``term``."""
        self._require(term)
        if self._depths is None:
            depths: dict[str, int] = {}
            for node in self._order:
                parent_depths = [depths[p] for p in self._parents.get(node, ())]
                depths[node] = 1 + max(parent_depths) if parent_depths else 0
            self._depths = depths
        return self._depths[term]

    def max_depth(self) -> int:
        """Depth of the deepest term (0 for a taxonomy of isolated roots)."""
        if not self._terms:
            return 0
        return max(self.depth(term) for term in self._terms)

    def level(self, depth: int) -> set[str]:
        """All terms at exactly the given depth."""
        return {term for term in self._terms if self.depth(term) == depth}
