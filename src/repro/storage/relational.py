"""A miniature in-memory relational store.

The paper's authors "shredded the downloaded DBLP file into the relational
schema of Figure 2" before building the data graph.  This module provides the
substrate for that step: typed tables with primary and foreign keys, enough
referential integrity to catch generator bugs, and nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

from repro.errors import StorageError


@dataclass(frozen=True)
class ForeignKey:
    """A column referencing another table's primary key."""

    column: str
    references: str  # table name


@dataclass(frozen=True)
class TableSchema:
    """Schema of one table: column names, primary key, foreign keys."""

    name: str
    columns: tuple[str, ...]
    primary_key: str = "id"
    foreign_keys: tuple[ForeignKey, ...] = ()

    def __post_init__(self) -> None:
        if self.primary_key not in self.columns:
            raise StorageError(
                f"table {self.name!r}: primary key {self.primary_key!r} not a column"
            )
        for fk in self.foreign_keys:
            if fk.column not in self.columns:
                raise StorageError(
                    f"table {self.name!r}: foreign key column {fk.column!r} not a column"
                )


class Table:
    """Rows of one table, keyed by primary key, in insertion order."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._columns = frozenset(schema.columns)
        self._rows: dict[Any, dict[str, Any]] = {}

    def insert(self, row: dict[str, Any]) -> Any:
        if not self._columns.issuperset(row):
            unknown = set(row) - self._columns
            raise StorageError(f"table {self.schema.name!r}: unknown columns {sorted(unknown)}")
        if self.schema.primary_key not in row:
            raise StorageError(
                f"table {self.schema.name!r}: missing primary key {self.schema.primary_key!r}"
            )
        key = row[self.schema.primary_key]
        if key in self._rows:
            raise StorageError(f"table {self.schema.name!r}: duplicate key {key!r}")
        self._rows[key] = dict(row)
        return key

    def get(self, key: Any) -> dict[str, Any]:
        try:
            return dict(self._rows[key])
        except KeyError:
            raise StorageError(f"table {self.schema.name!r}: no row with key {key!r}") from None

    def has(self, key: Any) -> bool:
        return key in self._rows

    def rows(self) -> Iterator[dict[str, Any]]:
        for row in self._rows.values():
            yield dict(row)

    def stored_rows(self) -> Iterable[Mapping[str, Any]]:
        """The rows themselves, uncopied, in insertion order: read, never edit."""
        return self._rows.values()

    def __len__(self) -> int:
        return len(self._rows)


@dataclass
class Database:
    """A set of tables with foreign-key checking on insert."""

    tables: dict[str, Table] = field(default_factory=dict)

    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self.tables:
            raise StorageError(f"table {schema.name!r} already exists")
        for fk in schema.foreign_keys:
            if fk.references not in self.tables and fk.references != schema.name:
                raise StorageError(
                    f"table {schema.name!r}: foreign key references unknown table "
                    f"{fk.references!r}"
                )
        table = Table(schema)
        self.tables[schema.name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise StorageError(f"no table named {name!r}") from None

    def insert(self, table_name: str, row: dict[str, Any]) -> Any:
        table = self.table(table_name)
        for fk in table.schema.foreign_keys:
            value = row.get(fk.column)
            # create_table checked that the referenced table exists.
            if value is not None and not self.tables[fk.references].has(value):
                raise StorageError(
                    f"table {table_name!r}: foreign key {fk.column!r}={value!r} has no "
                    f"matching row in {fk.references!r}"
                )
        return table.insert(row)

    def __contains__(self, name: str) -> bool:
        return name in self.tables
