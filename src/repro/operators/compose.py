"""The ``Compose`` operation: derive new mappings by transitivity.

Paper Section 4.2: *"if a locus l in LocusLink is annotated with some GO
terms, so are the Unigene entries associated with locus l"*.  Compose takes
a mapping path — two or more mappings connecting two sources — and joins
them pairwise on the shared intermediate source, producing a direct mapping
between the path's endpoints.

Evidence handling extends the paper's future-work note on mappings with
reduced evidence: when associations are chained, their evidence values are
combined by a configurable combiner (``product`` by default, which treats
evidences as independent plausibilities; ``min`` implements a weakest-link
policy).  When several intermediate objects connect the same endpoint pair,
the strongest chain wins.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Sequence

from repro.gam.enums import RelType
from repro.gam.errors import UnknownMappingError
from repro.gam.records import Source
from repro.gam.repository import GamRepository
from repro.obs import get_tracer
from repro.operators.mapping import Mapping
from repro.operators.simple import map_
from repro.reliability.deadline import check_deadline

#: Combines the evidences of two chained associations into one.
EvidenceCombiner = Callable[[float, float], float]

#: How many join iterations run between deadline checks: frequent enough
#: that a pathological Compose aborts promptly, rare enough to be free.
_DEADLINE_STRIDE = 2048


def product_evidence(left: float, right: float) -> float:
    """Independent-plausibility combiner (default)."""
    return left * right


def min_evidence(left: float, right: float) -> float:
    """Weakest-link combiner."""
    return min(left, right)


def compose_pair(
    first: Mapping,
    second: Mapping,
    combiner: EvidenceCombiner = product_evidence,
) -> Mapping:
    """Join two mappings sharing an intermediate source.

    ``first``: S1 ↔ S2 and ``second``: S2 ↔ S3 produce S1 ↔ S3.  The join
    is on target accessions of ``first`` and source accessions of
    ``second`` (the relational join of the paper).  Raises ``ValueError``
    when the mappings do not share the intermediate source.
    """
    if first.target != second.source:
        raise ValueError(
            f"cannot compose {first.source}↔{first.target} with"
            f" {second.source}↔{second.target}: intermediate sources differ"
        )
    check_deadline()
    by_intermediate: dict[str, list[tuple[str, str, float]]] = defaultdict(list)
    for row in second.rows:
        by_intermediate[row[0]].append(row)
    best: dict[tuple[str, str], float] = {}
    for index, (acc1, acc2, left_evidence) in enumerate(first.rows):
        if index % _DEADLINE_STRIDE == 0:
            check_deadline()
        for __, acc3, right_evidence in by_intermediate.get(acc2, ()):
            key = (acc1, acc3)
            evidence = combiner(left_evidence, right_evidence)
            if key not in best or evidence > best[key]:
                best[key] = evidence
    return Mapping.build(
        first.source,
        second.target,
        ((acc1, acc2, evidence) for (acc1, acc2), evidence in best.items()),
        rel_type=RelType.COMPOSED,
    )


def compose_mappings(
    mappings: Sequence[Mapping],
    combiner: EvidenceCombiner = product_evidence,
) -> Mapping:
    """Fold :func:`compose_pair` over a mapping path of length >= 1."""
    if not mappings:
        raise ValueError("compose needs at least one mapping")
    result = mappings[0]
    for mapping in mappings[1:]:
        result = compose_pair(result, mapping, combiner)
    return result


#: Named combiners the SQL engine can push down (see ``compose_sql``).
_SQL_COMBINERS: dict = {}


def _sql_combiner_name(combiner: EvidenceCombiner) -> str | None:
    """The pushdown label of a combiner, or None for ad-hoc callables."""
    if not _SQL_COMBINERS:
        _SQL_COMBINERS[product_evidence] = "product"
        _SQL_COMBINERS[min_evidence] = "min"
    return _SQL_COMBINERS.get(combiner)


def compose(
    repository: GamRepository,
    path: Sequence["str | Source"],
    combiner: EvidenceCombiner = product_evidence,
    engine: str = "auto",
) -> Mapping:
    """``Compose`` along a path of source names.

    ``path`` lists the sources of the mapping path in order, e.g.
    ``["Unigene", "LocusLink", "GO"]`` derives Unigene ↔ GO from
    Unigene ↔ LocusLink and LocusLink ↔ GO.  Every consecutive pair must
    have a stored mapping; otherwise :class:`UnknownMappingError` is
    raised (path *discovery* is the path finder's job, not Compose's).

    A two-source path *is* its stored mapping: it is returned directly via
    ``Map`` without running the composition fold at all.

    ``engine`` selects the execution strategy for longer paths:

    * ``"auto"`` (default) — push the whole chain join down into SQL when
      the combiner is one of the named policies (``product_evidence``,
      ``min_evidence``); otherwise join in Python;
    * ``"sql"`` — force the pushdown (raises ``ValueError`` for ad-hoc
      combiners the database cannot express);
    * ``"memory"`` — force the Python dict-join (the seed behaviour).

    Both strategies produce identical mappings; see
    :func:`repro.operators.sql_engine.compose_sql` for why the single
    grouped aggregation agrees with the pairwise fold.
    """
    if len(path) < 2:
        raise ValueError("a mapping path needs at least two sources")
    if engine not in ("auto", "sql", "memory"):
        raise ValueError(f"unknown compose engine {engine!r}")
    names = [step.name if isinstance(step, Source) else str(step) for step in path]
    if len(names) == 2:
        # A single leg is the stored mapping itself, not a derived one —
        # return it straight from Map instead of folding and discarding.
        return map_(repository, names[0], names[1])
    sql_combiner = _sql_combiner_name(combiner)
    if engine == "sql" and sql_combiner is None:
        raise ValueError(
            "compose engine 'sql' requires a named combiner"
            " (product_evidence or min_evidence)"
        )
    if sql_combiner is not None and engine in ("auto", "sql"):
        from repro.operators.sql_engine import compose_sql

        return compose_sql(repository, names, sql_combiner)
    with get_tracer().span(
        "operator.compose",
        path=" -> ".join(names),
        hops=len(names) - 1,
        engine="memory",
    ) as span:
        legs = []
        for step_source, step_target in zip(names, names[1:]):
            legs.append(map_(repository, step_source, step_target))
        composed = compose_mappings(legs, combiner)
        span.tag(associations=len(composed))
    return composed


def materialization_rows(mapping: Mapping) -> list[tuple[str, str, float]]:
    """The mapping's associations as repository ``add_associations`` rows.

    Used when a composed mapping of general interest is materialized in the
    central database (paper Section 1, derived relationships).
    """
    return list(mapping.rows)
