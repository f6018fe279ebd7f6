"""Unit tests for the mini relational store."""

import pytest

from repro.errors import StorageError
from repro.storage import Database, ForeignKey, TableSchema


@pytest.fixture
def database():
    db = Database()
    db.create_table(TableSchema("author", ("id", "name")))
    db.create_table(
        TableSchema(
            "paper",
            ("id", "title", "author_id"),
            foreign_keys=(ForeignKey("author_id", "author"),),
        )
    )
    return db


class TestSchemas:
    def test_primary_key_must_be_column(self):
        with pytest.raises(StorageError):
            TableSchema("t", ("a", "b"), primary_key="nope")

    def test_fk_column_must_exist(self):
        with pytest.raises(StorageError):
            TableSchema("t", ("id",), foreign_keys=(ForeignKey("nope", "other"),))

    def test_fk_referenced_table_must_exist(self):
        db = Database()
        with pytest.raises(StorageError):
            db.create_table(
                TableSchema("t", ("id", "x"), foreign_keys=(ForeignKey("x", "missing"),))
            )

    def test_self_referencing_fk_allowed(self):
        db = Database()
        db.create_table(
            TableSchema(
                "paper",
                ("id", "cites_id"),
                foreign_keys=(ForeignKey("cites_id", "paper"),),
            )
        )
        db.insert("paper", {"id": 1, "cites_id": None})
        db.insert("paper", {"id": 2, "cites_id": 1})

    def test_duplicate_table_rejected(self, database):
        with pytest.raises(StorageError):
            database.create_table(TableSchema("author", ("id",)))


class TestRows:
    def test_insert_and_get(self, database):
        database.insert("author", {"id": 1, "name": "R. Agrawal"})
        assert database.table("author").get(1)["name"] == "R. Agrawal"

    def test_unknown_column_rejected(self, database):
        with pytest.raises(StorageError, match=r"'author': unknown columns \['oops'\]"):
            database.insert("author", {"id": 1, "oops": "x"})
        assert len(database.table("author")) == 0

    def test_missing_primary_key_rejected(self, database):
        with pytest.raises(StorageError, match="'author': missing primary key 'id'"):
            database.insert("author", {"name": "x"})

    def test_duplicate_key_rejected(self, database):
        database.insert("author", {"id": 1, "name": "a"})
        with pytest.raises(StorageError, match="'author': duplicate key 1"):
            database.insert("author", {"id": 1, "name": "b"})
        assert database.table("author").get(1)["name"] == "a"

    def test_fk_integrity_enforced(self, database):
        with pytest.raises(
            StorageError,
            match="'paper': foreign key 'author_id'=99 has no matching row in 'author'",
        ):
            database.insert("paper", {"id": 1, "title": "t", "author_id": 99})
        assert len(database.table("paper")) == 0

    def test_dangling_self_referencing_fk_rejected(self):
        db = Database()
        db.create_table(
            TableSchema(
                "paper", ("id", "cites_id"), foreign_keys=(ForeignKey("cites_id", "paper"),)
            )
        )
        db.insert("paper", {"id": 1, "cites_id": None})
        # A row may not reference itself: it is not in the table until inserted.
        for row in ({"id": 2, "cites_id": 2}, {"id": 3, "cites_id": 7}):
            with pytest.raises(
                StorageError, match="foreign key 'cites_id'=.* has no matching row in 'paper'"
            ):
                db.insert("paper", row)
        assert [r["id"] for r in db.table("paper").rows()] == [1]

    def test_null_fk_allowed(self, database):
        database.insert("paper", {"id": 1, "title": "t", "author_id": None})
        database.insert("paper", {"id": 2, "title": "t"})  # an absent FK column is null
        assert len(database.table("paper")) == 2

    def test_stored_rows_are_the_rows_in_order(self, database):
        for i in (3, 1, 2):
            database.insert("author", {"id": i, "name": str(i)})
        table = database.table("author")
        assert list(table.stored_rows()) == list(table.rows())
        assert [r["id"] for r in table.stored_rows()] == [3, 1, 2]

    def test_rows_are_copies(self, database):
        database.insert("author", {"id": 1, "name": "a"})
        row = database.table("author").get(1)
        row["name"] = "mutated"
        assert database.table("author").get(1)["name"] == "a"

    def test_rows_iteration_order(self, database):
        for i in (3, 1, 2):
            database.insert("author", {"id": i, "name": str(i)})
        assert [r["id"] for r in database.table("author").rows()] == [3, 1, 2]

    def test_unknown_table(self, database):
        with pytest.raises(StorageError):
            database.table("nope")
        with pytest.raises(StorageError):
            database.table("author").get(42)

    def test_len_and_contains(self, database):
        database.insert("author", {"id": 1, "name": "a"})
        assert len(database.table("author")) == 1
        assert "author" in database
        assert "nope" not in database
