"""Scenarios: a schema + instance + foreign-key structure, with provenance.

Everything the validation campaigns know about a *real* database is packed
into a :class:`Scenario`: the :class:`~repro.core.schema.Schema` and
:class:`~repro.core.schema.Database` the engine and semantics consume, the
foreign-key edges the FK-biased query generator walks
(:mod:`repro.ingest.generator`), the per-column type map (``int`` /
``text`` — the repository's value domain), and a statistical profile
(row counts, NULL rates, distinct counts) that the synthesizer
(:mod:`repro.ingest.synth`) mirrors when scaling a scenario up.

Fingerprints are the metamorphic-testing contract: a table fingerprint is
the SHA-256 of the canonicalized (columns, row-multiset) pair, so it is
independent of row order and of which importer produced the table —
importing a database, exporting it and re-importing it must yield
bit-identical fingerprints (covered by ``tests/ingest/test_metamorphic.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..core.schema import Database, Schema
from ..core.table import Table
from ..core.values import Null

__all__ = [
    "ForeignKey",
    "Scenario",
    "ColumnType",
    "TYPE_INT",
    "TYPE_TEXT",
    "table_fingerprint",
    "infer_column_types",
]

#: The two column types of the repository's value domain (Section 2 models
#: values as ints and strings; the paper notes the type is immaterial).
TYPE_INT = "int"
TYPE_TEXT = "text"
ColumnType = str


@dataclass(frozen=True)
class ForeignKey:
    """One FK edge: ``table(columns) -> ref_table(ref_columns)``.

    Composite keys keep their column pairing: ``columns[i]`` references
    ``ref_columns[i]``.
    """

    table: str
    columns: Tuple[str, ...]
    ref_table: str
    ref_columns: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.columns or len(self.columns) != len(self.ref_columns):
            raise ValueError(
                f"foreign key {self.table}{self.columns} -> "
                f"{self.ref_table}{self.ref_columns} must pair columns 1:1"
            )

    def to_json(self) -> Dict[str, object]:
        return {
            "table": self.table,
            "columns": list(self.columns),
            "ref_table": self.ref_table,
            "ref_columns": list(self.ref_columns),
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "ForeignKey":
        return cls(
            table=str(payload["table"]),
            columns=tuple(payload["columns"]),
            ref_table=str(payload["ref_table"]),
            ref_columns=tuple(payload["ref_columns"]),
        )


def _canonical_value(value) -> str:
    if isinstance(value, Null):
        return "N"
    if isinstance(value, str):
        return "s" + value
    return "i" + str(value)


def table_fingerprint(table: Table) -> str:
    """SHA-256 of the canonical (columns, sorted row-multiset) form.

    Row order and importer provenance are irrelevant; values, columns and
    multiplicities are not.
    """
    digest = hashlib.sha256()
    digest.update("\x1f".join(str(c) for c in table.columns).encode())
    lines = [
        "\x1f".join(_canonical_value(v) for v in record) + f"\x1e{count}"
        for record, count in table.bag.counts().items()
    ]
    for line in sorted(lines):
        digest.update(b"\x1d")
        digest.update(line.encode())
    return digest.hexdigest()


def infer_column_types(db: Database) -> Dict[str, Dict[str, ColumnType]]:
    """Per-column types observed from the instance (``int`` wins ties on
    empty columns: the validation schema is conceptually integer-typed)."""
    types: Dict[str, Dict[str, ColumnType]] = {}
    for name in db.schema.table_names:
        table = db.table(name)
        observed: Dict[str, ColumnType] = {}
        for i, column in enumerate(table.columns):
            kind = TYPE_INT
            for record in table.bag.distinct():
                value = record[i]
                if isinstance(value, str):
                    kind = TYPE_TEXT
                    break
            observed[str(column)] = kind
        types[name] = observed
    return types


@dataclass(frozen=True)
class Scenario:
    """An ingested (or synthesized) database with its FK structure."""

    schema: Schema
    database: Database
    fks: Tuple[ForeignKey, ...] = ()
    #: table -> column -> "int" | "text"
    types: Mapping[str, Mapping[str, ColumnType]] = field(default_factory=dict)
    source: str = "in-memory"
    #: Importer remarks: dropped columns/tables, sampling, affinity notes.
    notes: Tuple[str, ...] = ()
    #: ``value_pool`` answers per ``(table, column, limit)``: pure functions
    #: of the immutable scenario, computed lazily, excluded from eq/hash.
    _pools: Dict[Tuple[str, str, int], Tuple[object, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        table_names = set(self.schema.table_names)
        for fk in self.fks:
            if fk.table not in table_names or fk.ref_table not in table_names:
                raise ValueError(f"foreign key references unknown table: {fk}")
            for col, ref in zip(fk.columns, fk.ref_columns):
                if col not in self.schema.attributes(fk.table):
                    raise ValueError(f"foreign key column {fk.table}.{col} unknown")
                if ref not in self.schema.attributes(fk.ref_table):
                    raise ValueError(
                        f"foreign key target {fk.ref_table}.{ref} unknown"
                    )
        if not self.types:
            object.__setattr__(self, "types", infer_column_types(self.database))

    # -- sizes -----------------------------------------------------------------

    @property
    def total_rows(self) -> int:
        return sum(len(self.database.table(t)) for t in self.schema.table_names)

    def column_type(self, table: str, column: str) -> ColumnType:
        return self.types.get(table, {}).get(column, TYPE_INT)

    # -- fingerprints ----------------------------------------------------------

    def table_fingerprints(self) -> Dict[str, str]:
        return {
            name: table_fingerprint(self.database.table(name))
            for name in self.schema.table_names
        }

    def fingerprint(self) -> str:
        """One digest over every table plus the FK structure.

        Table-name order is canonical (sorted), so two scenarios with the
        same tables/rows/FKs fingerprint identically regardless of
        declaration order.
        """
        digest = hashlib.sha256()
        prints = self.table_fingerprints()
        for name in sorted(prints):
            digest.update(f"{name}={prints[name]}\n".encode())
        for fk in sorted(self.fks, key=repr):
            digest.update(repr(fk.to_json()).encode())
        return digest.hexdigest()

    # -- profile ---------------------------------------------------------------

    def profile(self) -> Dict[str, object]:
        """Row counts, per-column NULL rates and distinct counts."""
        tables: Dict[str, object] = {}
        for name in self.schema.table_names:
            table = self.database.table(name)
            rows = len(table)
            columns = {}
            for i, column in enumerate(table.columns):
                nulls = 0
                distinct = set()
                for record, count in table.bag.counts().items():
                    value = record[i]
                    if isinstance(value, Null):
                        nulls += count
                    else:
                        distinct.add(value)
                columns[str(column)] = {
                    "type": self.column_type(name, str(column)),
                    "null_rate": round(nulls / rows, 4) if rows else 0.0,
                    "distinct": len(distinct),
                }
            tables[name] = {"rows": rows, "columns": columns}
        return {
            "source": self.source,
            "total_rows": self.total_rows,
            "tables": tables,
            "foreign_keys": [fk.to_json() for fk in self.fks],
            "notes": list(self.notes),
        }

    # -- value pools (for the FK-biased generator and synthesizer) -------------

    def value_pool(
        self, table: str, column: str, limit: int = 32
    ) -> Tuple[object, ...]:
        """Up to ``limit`` distinct non-NULL values of a column, in a
        deterministic (sorted-by-canonical-form) order."""
        key = (table, column, limit)
        pool = self._pools.get(key)
        if pool is None:
            t = self.database.table(table)
            pool = ()
            if column in t.columns:
                index = t.columns.index(column)
                values = {
                    record[index]
                    for record in t.bag.distinct()
                    if not isinstance(record[index], Null)
                }
                pool = tuple(sorted(values, key=_canonical_value)[:limit])
            self._pools[key] = pool
        return pool

    def with_database(self, database: Database, source: Optional[str] = None,
                      notes: Sequence[str] = ()) -> "Scenario":
        """The same schema/FK structure over different contents."""
        return Scenario(
            schema=self.schema,
            database=database,
            fks=self.fks,
            types=self.types,
            source=source if source is not None else self.source,
            notes=tuple(notes) or self.notes,
        )
