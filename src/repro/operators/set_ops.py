"""Set algebra over mappings with the same endpoints.

The paper's query model combines mappings with AND/OR/NOT inside
``GenerateView``; the same logic is useful directly on mappings, e.g. to
merge a curated Fact mapping with a computed Similarity mapping between the
same two sources, or to subtract known-bad associations before composing.
"""

from __future__ import annotations

from repro.gam.enums import RelType
from repro.operators.mapping import Mapping


def _require_same_endpoints(left: Mapping, right: Mapping) -> None:
    if (left.source, left.target) != (right.source, right.target):
        raise ValueError(
            f"mappings connect different sources:"
            f" {left.source}↔{left.target} vs {right.source}↔{right.target}"
        )


def union(left: Mapping, right: Mapping) -> Mapping:
    """All associations of either mapping; evidence is the maximum."""
    _require_same_endpoints(left, right)
    best: dict[tuple[str, str], float] = {}
    for mapping in (left, right):
        for acc1, acc2, evidence in mapping.rows:
            key = (acc1, acc2)
            if key not in best or evidence > best[key]:
                best[key] = evidence
    return Mapping.build(
        left.source,
        left.target,
        ((a, b, e) for (a, b), e in best.items()),
        rel_type=_combined_type(left, right),
    )


def intersection(left: Mapping, right: Mapping) -> Mapping:
    """Associations present in both mappings; evidence is the minimum.

    Useful as a consensus filter: an association confirmed by two
    independent mappings is more trustworthy than either alone.
    """
    _require_same_endpoints(left, right)
    right_evidence = {(acc1, acc2): evidence for acc1, acc2, evidence in right.rows}
    pairs = []
    for acc1, acc2, evidence in left.rows:
        key = (acc1, acc2)
        if key in right_evidence:
            pairs.append((acc1, acc2, min(evidence, right_evidence[key])))
    return Mapping.build(
        left.source, left.target, pairs, rel_type=_combined_type(left, right)
    )


def difference(left: Mapping, right: Mapping) -> Mapping:
    """Associations of ``left`` that are not in ``right`` (NOT)."""
    _require_same_endpoints(left, right)
    exclude = right.pair_set()
    pairs = [row for row in left.rows if (row[0], row[1]) not in exclude]
    return Mapping.build(left.source, left.target, pairs, rel_type=left.rel_type)


def _combined_type(left: Mapping, right: Mapping) -> RelType | None:
    if left.rel_type == right.rel_type:
        return left.rel_type
    return RelType.COMPOSED
