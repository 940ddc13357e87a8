"""Tests for the Mapping value object and its Table 2 operations."""

import dataclasses
import gc

import pytest

from repro.gam.enums import RelType
from repro.gam.records import Association
from repro.operators.mapping import Mapping


@pytest.fixture()
def mapping():
    """The paper's Table 2 example: {s1<->t1, s2<->t2}."""
    return Mapping.build("S", "T", [("s1", "t1"), ("s2", "t2")])


class TestBuild:
    def test_build_deduplicates_pairs(self):
        mapping = Mapping.build("S", "T", [("s1", "t1"), ("s1", "t1")])
        assert len(mapping) == 1

    def test_build_keeps_highest_evidence(self):
        mapping = Mapping.build(
            "S", "T", [("s1", "t1", 0.4), ("s1", "t1", 0.9)]
        )
        assert mapping.associations[0].evidence == pytest.approx(0.9)

    def test_build_sorts_associations(self):
        mapping = Mapping.build("S", "T", [("s2", "t2"), ("s1", "t1")])
        assert [a.source_accession for a in mapping] == ["s1", "s2"]

    def test_default_evidence_is_one(self, mapping):
        assert all(a.evidence == 1.0 for a in mapping)


class TestTable2Operations:
    def test_domain_matches_paper_example(self, mapping):
        assert mapping.domain() == {"s1", "s2"}

    def test_range_matches_paper_example(self, mapping):
        assert mapping.range() == {"t1", "t2"}

    def test_restrict_domain_matches_paper_example(self, mapping):
        restricted = mapping.restrict_domain({"s1"})
        assert restricted.pair_set() == {("s1", "t1")}

    def test_restrict_range_matches_paper_example(self, mapping):
        restricted = mapping.restrict_range({"t2"})
        assert restricted.pair_set() == {("s2", "t2")}

    def test_restrict_domain_keeps_endpoints(self, mapping):
        restricted = mapping.restrict_domain({"s1"})
        assert restricted.source == "S"
        assert restricted.target == "T"

    def test_restrict_to_nothing_is_empty(self, mapping):
        assert mapping.restrict_domain(set()).is_empty()


class TestContainerProtocol:
    def test_len(self, mapping):
        assert len(mapping) == 2

    def test_iteration_yields_associations(self, mapping):
        assert all(isinstance(a, Association) for a in mapping)

    def test_contains_pair(self, mapping):
        assert ("s1", "t1") in mapping
        assert ("s1", "t2") not in mapping

    def test_contains_association(self, mapping):
        assert Association("s1", "t1") in mapping


class TestDerivedViews:
    def test_invert_swaps_orientation(self, mapping):
        inverted = mapping.invert()
        assert inverted.source == "T"
        assert inverted.target == "S"
        assert inverted.pair_set() == {("t1", "s1"), ("t2", "s2")}

    def test_invert_twice_is_identity(self, mapping):
        assert mapping.invert().invert().pair_set() == mapping.pair_set()

    def test_targets_of(self):
        mapping = Mapping.build("S", "T", [("s1", "t2"), ("s1", "t1")])
        assert mapping.targets_of("s1") == ["t1", "t2"]
        assert mapping.targets_of("missing") == []

    def test_as_dict_groups_by_source(self):
        mapping = Mapping.build("S", "T", [("s1", "t1"), ("s1", "t2")])
        grouped = mapping.as_dict()
        assert set(grouped) == {"s1"}
        assert len(grouped["s1"]) == 2

    def test_filter_evidence(self):
        mapping = Mapping.build(
            "S", "T", [("s1", "t1", 0.9), ("s2", "t2", 0.3)]
        )
        assert mapping.filter_evidence(0.5).pair_set() == {("s1", "t1")}

    def test_min_evidence(self):
        mapping = Mapping.build(
            "S", "T", [("s1", "t1", 0.9), ("s2", "t2", 0.3)]
        )
        assert mapping.min_evidence() == pytest.approx(0.3)

    def test_min_evidence_of_empty_mapping(self):
        assert Mapping.build("S", "T", []).min_evidence() == 1.0

    def test_describe_mentions_sizes(self, mapping):
        text = mapping.describe()
        assert "2 associations" in text
        assert "S" in text and "T" in text

    def test_rel_type_preserved_through_restrict(self):
        mapping = Mapping.build(
            "S", "T", [("s1", "t1")], rel_type=RelType.COMPOSED
        )
        assert mapping.restrict_domain({"s1"}).rel_type is RelType.COMPOSED


def _walk(value):
    """Every object inside a plain-data structure (tuples, lists, sets,
    dicts), the root included."""
    stack = [value]
    while stack:
        item = stack.pop()
        yield item
        if isinstance(item, dict):
            stack.extend(item)
            stack.extend(item.values())
        elif isinstance(item, (tuple, list, set, frozenset)):
            stack.extend(item)


def _is_leaf_tuple(item) -> bool:
    return type(item) is tuple and all(type(v) in (str, float) for v in item)


def assert_out_of_gc(mapping: Mapping) -> None:
    """Neither the rows nor any memoized access structure keeps a tracked
    object per row in the garbage collector.

    One full collection untracks every row and every memoized pair (exact
    tuples of strings and floats).  A freshly built container of rows is
    visited before its rows within that collection, so it is untracked
    by the next one — the first to find all its items untracked.
    """
    assert len(mapping) > 0
    fields = {field.name for field in dataclasses.fields(mapping)}
    memos = [value for name, value in vars(mapping).items() if name not in fields]
    gc.collect()
    assert all(type(row) is tuple for row in mapping.rows)
    assert not any(gc.is_tracked(row) for row in mapping.rows)
    leaves = [item for item in _walk(memos) if _is_leaf_tuple(item)]
    assert not any(gc.is_tracked(item) for item in leaves)
    gc.collect()
    assert not gc.is_tracked(mapping.rows)
    # Only the memo containers themselves (e.g. the pair set) may stay
    # tracked: a constant per mapping, whatever its size.
    tracked = sum(gc.is_tracked(item) for memo in memos for item in _walk(memo))
    assert tracked <= len(memos)


class TestGarbageCollectorFootprint:
    def test_built_mapping_rows_are_untracked(self):
        pairs = [(f"s{i}", f"t{i}", 0.5) for i in range(50)]
        assert_out_of_gc(Mapping.build("S", "T", pairs))

    @pytest.mark.parametrize(
        "source, target", [("LocusLink", "GO"), ("GO", "LocusLink")]
    )
    def test_map_in_both_directions(self, paper_genmapper, source, target):
        assert_out_of_gc(paper_genmapper.map(source, target))

    def test_compose(self, paper_genmapper):
        composed = paper_genmapper.compose(["Unigene", "LocusLink", "GO"])
        assert_out_of_gc(composed)

    def test_compose_in_memory(self, paper_genmapper):
        composed = paper_genmapper.compose(
            ["Unigene", "LocusLink", "GO"], engine="memory"
        )
        assert_out_of_gc(composed)

    def test_restrict_domain(self, paper_genmapper):
        mapping = paper_genmapper.map("LocusLink", "GO")
        assert_out_of_gc(mapping.restrict_domain(mapping.domain()))

    def test_memoized_access_structures_stay_untracked(self, paper_genmapper):
        mapping = paper_genmapper.map("GO", "LocusLink")
        mapping.pair_set()
        for accession in mapping.domain():
            mapping.targets_of(accession)
        assert ("GO:0009116", "353") in mapping
        assert_out_of_gc(mapping)

    def test_iteration_still_yields_associations(self, paper_genmapper):
        mapping = paper_genmapper.map("LocusLink", "GO")
        associations = mapping.associations
        assert all(isinstance(a, Association) for a in associations)
        assert [
            (a.source_accession, a.target_accession, a.evidence) for a in associations
        ] == list(mapping.rows)
        assert tuple(mapping) == associations
