"""The bulk-ingest fast path: indexed datasets, counted writes, pushdown
derivation and manifest import (see ``docs/performance.md``).

Locks the contracts the acceleration layer must keep: dataset indexes
agree with naive scans and invalidate on mutation, insert counts come
from the write cursor (concurrency-safe), the bulk accession cache stays
coherent across targets, both derivation engines store identical
associations, and a manifest import validates its files before importing.
"""

from __future__ import annotations

import shutil
import threading

import pytest

from repro.core.genmapper import GenMapper
from repro.datagen.emit import write_universe
from repro.datagen.universe import UniverseConfig, generate_universe
from repro.derived.composed import derive_composed
from repro.derived.subsumed import derive_subsumed
from repro.eav.model import (
    CONTAINS_TARGET,
    IS_A_TARGET,
    NAME_TARGET,
    EavRow,
)
from repro.eav.store import EavDataset, EavRowsView
from repro.gam.database import GamDatabase
from repro.gam.enums import RelType
from repro.gam.errors import (
    GamIntegrityError,
    ImportError_,
    UnknownMappingError,
)
from repro.gam.repository import GamRepository
from repro.importer.importer import GamImporter
from repro.importer.pipeline import read_manifest


def _sample_dataset() -> EavDataset:
    return EavDataset(
        "S",
        [
            EavRow("a", NAME_TARGET, "a", text="gene a"),
            EavRow("a", "GO", "GO:1", evidence=0.5),
            EavRow("b", "GO", "GO:1"),
            EavRow("b", "GO", "GO:2"),
            EavRow("b", "OMIM", "1234"),
            EavRow("S.part", CONTAINS_TARGET, "a"),
            EavRow("S.part", CONTAINS_TARGET, "b"),
        ],
    )


class TestDatasetIndexes:
    def test_indexes_agree_with_naive_scans(self):
        dataset = _sample_dataset()
        for target in dataset.targets():
            naive = [row for row in dataset if row.target == target]
            assert list(dataset.rows_for_target(target)) == naive
        for entity in dataset.entities():
            naive = [row for row in dataset if row.entity == entity]
            assert list(dataset.rows_for_entity(entity)) == naive

    def test_orderings_are_first_seen(self):
        dataset = _sample_dataset()
        assert dataset.entities() == ["a", "b", "S.part"]
        assert dataset.targets() == [NAME_TARGET, "GO", "OMIM", CONTAINS_TARGET]
        assert dataset.annotation_targets() == ["GO", "OMIM"]

    def test_missing_keys_return_empty(self):
        dataset = _sample_dataset()
        assert dataset.rows_for_target("nope") == ()
        assert dataset.rows_for_entity("nope") == ()

    def test_partition_entities(self):
        dataset = _sample_dataset()
        assert dataset.partition_entities() == {"S.part"}

    def test_entity_with_contains_and_annotation_is_not_partition(self):
        dataset = _sample_dataset()
        dataset.append(EavRow("S.part", "GO", "GO:3"))
        assert dataset.partition_entities() == frozenset()

    def test_has_reduced_evidence(self):
        dataset = _sample_dataset()
        assert dataset.has_reduced_evidence("GO")
        assert not dataset.has_reduced_evidence("OMIM")

    def test_append_invalidates_indexes(self):
        dataset = _sample_dataset()
        assert len(dataset.rows_for_target("GO")) == 3
        dataset.append(EavRow("c", "GO", "GO:9"))
        assert len(dataset.rows_for_target("GO")) == 4
        assert "c" in dataset.entities()

    def test_extend_invalidates_indexes(self):
        dataset = _sample_dataset()
        assert not dataset.has_reduced_evidence("OMIM")
        dataset.extend([EavRow("d", "OMIM", "99", evidence=0.1)])
        assert dataset.has_reduced_evidence("OMIM")

    def test_target_counts(self):
        dataset = _sample_dataset()
        assert dataset.target_counts()["GO"] == 3
        assert dataset.target_counts()[CONTAINS_TARGET] == 2


class TestRowsView:
    def test_view_is_not_a_copy(self):
        dataset = _sample_dataset()
        assert dataset.rows is dataset.rows  # stable object, no per-access copy

    def test_view_is_live(self):
        dataset = _sample_dataset()
        view = dataset.rows
        before = len(view)
        dataset.append(EavRow("z", "GO", "GO:8"))
        assert len(view) == before + 1
        assert view[-1].entity == "z"

    def test_view_supports_sequence_protocol(self):
        dataset = _sample_dataset()
        view = dataset.rows
        assert isinstance(view, EavRowsView)
        assert view[0].entity == "a"
        assert [row.entity for row in view[:2]] == ["a", "a"]
        assert view == list(view)
        assert list(reversed(view))[0] == view[-1]
        assert view.count(view[0]) == 1
        assert view.index(view[1]) == 1

    def test_view_rejects_mutation(self):
        view = _sample_dataset().rows
        with pytest.raises(TypeError):
            view[0] = None
        with pytest.raises(AttributeError):
            view.append(EavRow("x", "GO", "GO:1"))


class TestCountedWrites:
    def test_executemany_counted_counts_only_inserts(self):
        with GamDatabase() as db:
            repo = GamRepository(db)
            repo.add_source("A")
            sql = (
                "INSERT OR IGNORE INTO object (source_id, accession)"
                " VALUES (?, ?)"
            )
            assert db.executemany_counted(sql, [(1, "x"), (1, "y")]) == 2
            assert db.executemany_counted(sql, [(1, "x"), (1, "z")]) == 1
            assert db.executemany_counted(sql, [(1, "x"), (1, "y")]) == 0

    def test_executemany_counted_streams_generators_in_chunks(self):
        with GamDatabase() as db:
            repo = GamRepository(db)
            repo.add_source("A")
            rows = ((1, f"acc{i}") for i in range(25))
            count = db.executemany_counted(
                "INSERT OR IGNORE INTO object (source_id, accession)"
                " VALUES (?, ?)",
                rows,
                chunk_size=4,
            )
            assert count == 25
            assert repo.count_objects("A") == 25

    def test_executemany_counted_rolls_back_on_error(self):
        with GamDatabase() as db:
            repo = GamRepository(db)
            repo.add_source("A")

            def bad_rows():
                yield (1, "ok")
                raise RuntimeError("boom")

            with pytest.raises(RuntimeError):
                db.executemany_counted(
                    "INSERT OR IGNORE INTO object (source_id, accession)"
                    " VALUES (?, ?)",
                    bad_rows(),
                    chunk_size=1,
                )
            assert repo.count_objects("A") == 0

    def test_strict_error_rolls_back_partial_association_chunks(self):
        with GamDatabase() as db:
            repo = GamRepository(db)
            repo.add_source("A")
            repo.add_objects("A", [("a1",), ("a2",)])
            rel = repo.ensure_source_rel("A", "A", RelType.FACT)
            rows = [("a1", "a2"), ("a2", "a1"), ("a1", "ghost")]
            with pytest.raises(GamIntegrityError, match="ghost"):
                repo.add_associations(rel, rows)
            assert repo.count_associations(rel) == 0

    def test_add_objects_upsert_semantics_preserved(self):
        # The split insert/update passes must behave exactly like the old
        # single upsert, including within-batch duplicate sequences.
        with GamDatabase() as db:
            repo = GamRepository(db)
            repo.add_source("A")
            inserted = repo.add_objects(
                "A", [("x", "first"), ("x", None, 5.0), ("x", "second")]
            )
            assert inserted == 1
            obj = repo.get_object("A", "x")
            assert obj.text == "second"
            assert obj.number == 5.0
            # Re-offering with nulls keeps stored values; with new text
            # overwrites.
            assert repo.add_objects("A", [("x",)]) == 0
            assert repo.get_object("A", "x").text == "second"
            assert repo.add_objects("A", [("x", "third")]) == 0
            assert repo.get_object("A", "x").text == "third"


class TestBulkImportCache:
    def test_cache_updates_incrementally(self):
        with GamDatabase() as db:
            repo = GamRepository(db)
            repo.add_source("A")
            with repo.bulk_import():
                repo.add_objects("A", [("a1",), ("a2",)])
                # The cached map must already contain the fresh inserts.
                assert set(repo.accessions_of("A")) == {"a1", "a2"}
                rel = repo.ensure_source_rel("A", "A", RelType.FACT)
                assert repo.add_associations(rel, [("a1", "a2")]) == 1

    def test_nested_scopes_share_the_outer_cache(self):
        with GamDatabase() as db:
            repo = GamRepository(db)
            repo.add_source("A")
            with repo.bulk_import():
                repo.add_objects("A", [("a1",)])
                with repo.bulk_import():
                    assert repo.accessions_of("A") == {"a1"}
                # The inner exit must not tear the outer scope down.
                assert repo._bulk_ids() is not None
            assert repo._bulk_ids() is None

    def test_cache_is_dropped_outside_the_scope(self):
        with GamDatabase() as db:
            repo = GamRepository(db)
            repo.add_source("A")
            with repo.bulk_import():
                repo.add_objects("A", [("a1",)])
            # Outside the scope, lookups hit the database again.
            db.execute(
                "INSERT INTO object (source_id, accession) VALUES (1, 'a2')"
            )
            assert repo.accessions_of("A") == {"a1", "a2"}


class TestConcurrentImportCounts:
    def test_two_threads_importing_distinct_sources_count_exactly(self):
        """Regression: COUNT(*)-delta accounting let a pool-sibling writer
        skew another import's reported insert counts."""
        with GamDatabase() as db:
            def dataset_for(name: str) -> EavDataset:
                rows = [
                    EavRow(f"{name}-e{i}", "GO", f"GO:{i % 7}")
                    for i in range(200)
                ]
                return EavDataset(name, rows)

            importer = GamImporter(GamRepository(db))
            reports = {}
            errors = []

            def run(name: str) -> None:
                try:
                    reports[name] = importer.import_dataset(dataset_for(name))
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(name,))
                for name in ("SrcA", "SrcB")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            for name in ("SrcA", "SrcB"):
                assert reports[name].new_objects == 200
                assert reports[name].new_associations["GO"] == 200
            # GO target objects are shared: exactly 7 exist, and the two
            # reports' inserted counts add up to exactly that.
            repo = GamRepository(db)
            assert repo.count_objects("GO") == 7
            assert (
                reports["SrcA"].new_target_objects["GO"]
                + reports["SrcB"].new_target_objects["GO"]
                == 7
            )


class TestReimportSemantics:
    def _dataset(self) -> EavDataset:
        return EavDataset(
            "S",
            [
                EavRow("a", NAME_TARGET, "a", text="gene a"),
                EavRow("a", "GO", "GO:1"),
                EavRow("a", "GO", "GO:1"),  # in-batch duplicate
                EavRow("b", "GO", "GO:2"),
                EavRow("b", IS_A_TARGET, "a"),
                EavRow("S.part", CONTAINS_TARGET, "a"),
                EavRow("S.part", CONTAINS_TARGET, "ghost"),
            ],
        )

    def test_second_import_inserts_nothing(self):
        with GamDatabase() as db:
            importer = GamImporter(GamRepository(db))
            first = importer.import_dataset(self._dataset())
            assert first.new_objects == 2
            assert first.new_associations["GO"] == 2  # duplicate row deduped
            assert first.new_associations[IS_A_TARGET] == 1
            assert first.new_associations["S.part"] == 1
            assert first.skipped_rows == 1  # the ghost member
            second = importer.import_dataset(self._dataset())
            assert second.new_objects == 0
            assert second.total_associations == 0
            assert second.new_target_objects["GO"] == 0
            # Skip accounting reflects offered rows, not stored state.
            assert second.skipped_rows == 1

    def test_partition_entity_never_becomes_an_object(self):
        with GamDatabase() as db:
            repo = GamRepository(db)
            importer = GamImporter(repo)
            importer.import_dataset(self._dataset())
            assert repo.accessions_of("S") == {"a", "b"}
            assert repo.find_object("S", "S.part") is None
            # The partition itself exists as a source holding every
            # offered member (only the ghost's membership is skipped).
            assert repo.accessions_of("S.part") == {"a", "ghost"}

    def test_strict_false_skips_unknown_accessions(self):
        with GamDatabase() as db:
            repo = GamRepository(db)
            repo.add_source("A")
            repo.add_objects("A", [("a1",), ("a2",)])
            rel = repo.ensure_source_rel("A", "A", RelType.FACT)
            inserted = repo.add_associations(
                rel,
                [("a1", "a2"), ("a1", "ghost"), ("ghost", "a2"), ("a2", "a1")],
                strict=False,
            )
            assert inserted == 2
            assert repo.count_associations(rel) == 2


class TestDerivationPushdown:
    def test_composed_engines_store_identical_associations(self, paper_genmapper):
        repo = paper_genmapper.repository
        path = ["Unigene", "LocusLink", "GO"]
        sql_mapping = derive_composed(repo, path, engine="sql")
        sql_rel = repo.find_source_rels("Unigene", "GO", RelType.COMPOSED)[0]
        sql_stored = set(repo.associations_of(sql_rel))
        # Wipe and re-derive through the Python path.
        repo.db.execute(
            "DELETE FROM object_rel WHERE src_rel_id = ?", (sql_rel.src_rel_id,)
        )
        memory_mapping = derive_composed(repo, path, engine="memory")
        memory_stored = set(repo.associations_of(sql_rel))
        assert sql_stored == memory_stored
        assert sql_mapping.pair_set() == memory_mapping.pair_set()

    def test_composed_sql_materialization_idempotent(self, paper_genmapper):
        repo = paper_genmapper.repository
        path = ["Unigene", "LocusLink", "GO"]
        derive_composed(repo, path, engine="sql")
        rel = repo.find_source_rels("Unigene", "GO", RelType.COMPOSED)[0]
        count = repo.count_associations(rel)
        derive_composed(repo, path, engine="sql")
        assert repo.count_associations(rel) == count

    def test_composed_engine_validation(self, paper_genmapper):
        repo = paper_genmapper.repository
        with pytest.raises(ValueError, match="unknown derive engine"):
            derive_composed(repo, ["Unigene", "LocusLink", "GO"], engine="turbo")
        with pytest.raises(ValueError, match="named combiner"):
            derive_composed(
                repo,
                ["Unigene", "LocusLink", "GO"],
                combiner=lambda a, b: a * b,
                engine="sql",
            )

    def test_subsumed_engines_store_identical_associations(self, paper_genmapper):
        repo = paper_genmapper.repository
        rel, inserted = derive_subsumed(repo, "GO", engine="sql")
        sql_stored = set(repo.associations_of(rel))
        assert inserted == len(sql_stored) == 3
        repo.db.execute(
            "DELETE FROM object_rel WHERE src_rel_id = ?", (rel.src_rel_id,)
        )
        __, memory_inserted = derive_subsumed(repo, "GO", engine="memory")
        assert memory_inserted == 3
        assert set(repo.associations_of(rel)) == sql_stored

    def test_subsumed_sql_requires_is_a_structure(self, paper_genmapper):
        with pytest.raises(UnknownMappingError):
            derive_subsumed(
                paper_genmapper.repository, "LocusLink", engine="sql"
            )

    def test_subsumed_sql_rejects_cycles(self):
        with GamDatabase() as db:
            repo = GamRepository(db)
            importer = GamImporter(repo)
            importer.import_dataset(
                EavDataset(
                    "Cyc",
                    [
                        EavRow("a", IS_A_TARGET, "b"),
                        EavRow("b", IS_A_TARGET, "a"),
                    ],
                )
            )
            with pytest.raises(GamIntegrityError, match="cycle"):
                derive_subsumed(repo, "Cyc", engine="sql")
            # The failed derivation must leave nothing behind.
            rel = repo.find_source_rels("Cyc", "Cyc", RelType.SUBSUMED)
            assert not rel or repo.count_associations(rel[0]) == 0


@pytest.fixture(scope="module")
def universe_dir(tmp_path_factory):
    universe = generate_universe(UniverseConfig(seed=5, n_genes=40, n_go_terms=30))
    directory = tmp_path_factory.mktemp("fastpath_universe")
    write_universe(universe, directory)
    return directory


class TestParallelDirectoryImport:
    def test_parallel_missing_file_fails_before_importing(
        self, universe_dir, tmp_path
    ):
        """Manifest files are validated up front: a missing file late in
        the manifest fails the run before any earlier source is imported."""
        first = read_manifest(universe_dir / "manifest.tsv")[0]
        shutil.copy(universe_dir / first.file, tmp_path / first.file)
        (tmp_path / "manifest.tsv").write_text(
            "# file\tsource\trelease\n"
            f"{first.file}\t{first.source}\t\n"
            "missing.txt\tLocusLink\t\n",
            encoding="utf-8",
        )
        with GenMapper() as gm:
            with pytest.raises(ImportError_, match="missing file"):
                gm.integrate_directory(tmp_path)
            assert gm.sources() == []
