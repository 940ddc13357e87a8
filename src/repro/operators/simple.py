"""The simple GAM operations of paper Table 2.

=================  =========================================================
Operation          Definition (Table 2)
=================  =========================================================
``Map(S, T)``      Identify associations between S and T
``Domain(map)``    SELECT DISTINCT S FROM map
``Range(map)``     SELECT DISTINCT T FROM map
``RestrictDomain`` SELECT * FROM map WHERE S in s
``RestrictRange``  SELECT * FROM map WHERE T in t
=================  =========================================================

``Map`` is the only one that touches the database; the others are thin,
readable wrappers over :class:`~repro.operators.mapping.Mapping` so that
analysis code can be written in the paper's vocabulary.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.gam.records import Source
from repro.gam.repository import GamRepository
from repro.operators.mapping import Mapping


def map_(
    repository: GamRepository,
    source: "str | Source",
    target: "str | Source",
) -> Mapping:
    """``Map(S, T)``: load the stored mapping between S and T.

    Associations are oriented source → target regardless of the stored
    direction.  Raises :class:`~repro.gam.errors.UnknownMappingError` when
    no mapping exists — callers that can derive one fall back to
    :func:`repro.operators.compose.compose`.
    """
    src = repository.get_source(source)
    tgt = repository.get_source(target)
    rel, rows = repository.fetch_mapping_rows(src, tgt)
    return Mapping(src.name, tgt.name, tuple(rows), rel.type)


def domain(mapping: Mapping) -> set[str]:
    """``Domain(map)``: the distinct source objects involved."""
    return mapping.domain()


def range_(mapping: Mapping) -> set[str]:
    """``Range(map)``: the distinct target objects involved."""
    return mapping.range()


def restrict_domain(mapping: Mapping, objects: Iterable[str]) -> Mapping:
    """``RestrictDomain(map, s)``: the sub-mapping covering given source
    objects."""
    return mapping.restrict_domain(objects)


def restrict_range(mapping: Mapping, objects: Iterable[str]) -> Mapping:
    """``RestrictRange(map, t)``: the sub-mapping covering given target
    objects."""
    return mapping.restrict_range(objects)
