"""Tests for GamDatabase connection management."""

import sqlite3

import pytest

from repro.gam.database import GamDatabase
from repro.gam.errors import GamSchemaError


class TestGamDatabase:
    def test_in_memory_database_gets_schema(self):
        with GamDatabase() as db:
            assert db.counts() == {
                "source": 0,
                "object": 0,
                "source_rel": 0,
                "object_rel": 0,
            }

    def test_file_database_persists(self, tmp_path):
        path = tmp_path / "gam.db"
        with GamDatabase(path) as db:
            db.execute(
                "INSERT INTO source (name, content, structure)"
                " VALUES ('GO', 'Other', 'Network')"
            )
            db.commit()
        with GamDatabase(path, create=False) as db:
            assert db.counts()["source"] == 1

    def test_create_false_requires_existing_schema(self, tmp_path):
        path = tmp_path / "empty.db"
        path.touch()
        with pytest.raises(GamSchemaError):
            GamDatabase(path, create=False)

    @pytest.mark.parametrize("create", [True, False])
    def test_legacy_sharded_file_is_rejected_untouched(self, tmp_path, create):
        """A coordinator file of the removed sharded engine holds only
        ``source`` and ``meta``; opening it must fail loudly instead of
        adding empty GAM tables that make its data look gone."""
        path = tmp_path / "legacy.db"
        with GamDatabase(path):
            pass
        raw = sqlite3.connect(path)
        raw.executescript(
            "DROP TABLE object_rel; DROP TABLE source_rel; DROP TABLE object;"
            " INSERT INTO meta (key, value) VALUES ('layout', 'sharded');"
        )
        raw.close()
        before = path.read_bytes()

        with pytest.raises(GamSchemaError, match="sharded") as excinfo:
            GamDatabase(path, create=create)
        assert str(path) in str(excinfo.value)

        assert path.read_bytes() == before
        raw = sqlite3.connect(path)
        tables = {
            row[0]
            for row in raw.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        raw.close()
        assert tables == {"meta", "source"}

    def test_transaction_commits_on_success(self):
        with GamDatabase() as db:
            with db.transaction():
                db.execute(
                    "INSERT INTO source (name, content, structure)"
                    " VALUES ('A', 'Gene', 'Flat')"
                )
            assert db.counts()["source"] == 1

    def test_transaction_rolls_back_on_error(self):
        with GamDatabase() as db:
            with pytest.raises(RuntimeError):
                with db.transaction():
                    db.execute(
                        "INSERT INTO source (name, content, structure)"
                        " VALUES ('A', 'Gene', 'Flat')"
                    )
                    raise RuntimeError("boom")
            assert db.counts()["source"] == 0

    def test_rows_are_name_addressable(self):
        with GamDatabase() as db:
            db.execute(
                "INSERT INTO source (name, content, structure)"
                " VALUES ('A', 'Gene', 'Flat')"
            )
            row = db.execute("SELECT * FROM source").fetchone()
            assert row["name"] == "A"
            assert row["content"] == "Gene"

    def test_executemany_inserts_all_rows(self):
        with GamDatabase() as db:
            db.executemany(
                "INSERT INTO source (name, content, structure) VALUES (?, ?, ?)",
                [("A", "Gene", "Flat"), ("B", "Other", "Network")],
            )
            assert db.counts()["source"] == 2

    def test_counts_track_every_table(self):
        with GamDatabase() as db:
            db.execute(
                "INSERT INTO source (name, content, structure)"
                " VALUES ('A', 'Gene', 'Flat')"
            )
            db.execute("INSERT INTO object (source_id, accession) VALUES (1, 'x')")
            db.execute(
                "INSERT INTO source_rel (source1_id, source2_id, type)"
                " VALUES (1, 1, 'Is-a')"
            )
            counts = db.counts()
            assert counts["source"] == 1
            assert counts["object"] == 1
            assert counts["source_rel"] == 1
            assert counts["object_rel"] == 0
