"""Bags (multisets) of records and the bag operations of Section 3.

SQL tables are bags: the same record may occur several times, and the paper's
semantics is stated in terms of the multiplicity function ``#(r̄, T)``.  This
module implements:

* :class:`Bag` — an immutable multiset of records with deterministic
  iteration: a bag built from records is those records, kept as a list
  and iterated in insertion order, and counts its multiplicities only when
  something asks for them (the algebra, ``==``, ``hash``,
  :meth:`Bag.multiplicity`, :meth:`Bag.counts`); a bag built from a
  multiplicity map iterates grouped by record;
* the bag operations the paper defines:

  - union:        ``#(t̄, T1 ∪ T2) = #(t̄, T1) + #(t̄, T2)``
  - intersection: ``#(t̄, T1 ∩ T2) = min(#(t̄, T1), #(t̄, T2))``
  - difference:   ``#(t̄, T1 − T2) = max(#(t̄, T1) − #(t̄, T2), 0)``
  - product:      ``#((t̄1 t̄2), T1 × T2) = #(t̄1, T1) · #(t̄2, T2)``
  - duplicate elimination ε: ``#(t̄, ε(T)) = min(#(t̄, T), 1)``

Records are compared with Python equality, which on values coincides with the
paper's syntactic equality — in particular NULL matches NULL, exactly as SQL's
set operations require (see Example 1's query Q3).
"""

from __future__ import annotations

from collections import _count_elements
from itertools import chain, repeat
from types import MappingProxyType
from typing import Collection, Dict, Iterable, Iterator, List, Mapping, Optional

from .values import Record

__all__ = ["Bag", "record_arity"]

_TUPLE = {tuple}


def record_arity(records: Collection[Record], arity: Optional[int] = None) -> Optional[int]:
    """The common length of ``records``, checked in C-speed passes: every
    record a tuple, all of one length, and that length ``arity`` when one
    is given.  None for no records.  The one record-shape check of bags
    and of the engine's result rows."""
    if not records:
        return None
    if set(map(type, records)) != _TUPLE:
        for record in records:
            if not isinstance(record, tuple):
                raise TypeError(f"bag records must be tuples, got {type(record).__name__}")
    lengths = set(map(len, records))
    if len(lengths) > 1:
        first, *rest = map(len, records)
        other = next(length for length in rest if length != first)
        raise ValueError(f"records of mixed arity in bag: {first} and {other}")
    (length,) = lengths
    if arity is not None and length != arity:
        raise ValueError(f"records of arity {length}, expected arity {arity}")
    return length


class Bag:
    """An immutable bag (multiset) of equal-length records.

    A bag built from records keeps them as a list and iterates them in
    insertion order, duplicates where they were inserted.  A bag built by
    :meth:`from_counts` (and every result of the bag algebra) iterates each
    record once per occurrence, grouped by record in the map's order.  The
    order depends only on how the bag was built, never on what was asked
    of it before.  :meth:`counts` exposes the multiplicity map, which a
    record-built bag counts on first need and then keeps.  The empty bag
    has no intrinsic arity; a non-empty bag enforces that all its records
    have the same length.
    """

    __slots__ = ("_rows", "_counts", "_arity", "_size", "_hash")

    def __init__(self, records: Iterable[Record] = ()):
        rows = list(records)
        self._arity = record_arity(rows)
        self._rows: Optional[List[Record]] = rows
        self._counts: Optional[Dict[Record, int]] = None
        self._size = len(rows)
        self._hash = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_counts(cls, counts: Mapping[Record, int]) -> "Bag":
        """Build a bag from a multiplicity map, skipping zero multiplicities."""
        clean = dict(counts)
        if clean and min(clean.values()) <= 0:
            for record, count in clean.items():
                if count < 0:
                    raise ValueError(f"negative multiplicity {count} for {record!r}")
            clean = {record: count for record, count in clean.items() if count}
        bag = cls.__new__(cls)
        bag._arity = record_arity(clean)
        bag._rows = None
        bag._counts = clean
        bag._size = sum(clean.values())
        bag._hash = None
        return bag

    @classmethod
    def _adopt(cls, rows: List[Record]) -> "Bag":
        """A bag of the records in ``rows``, keeping that list itself: the
        caller hands over a list nothing else will change, and saves the
        copy :class:`Bag` makes of what it is given."""
        bag = cls.__new__(cls)
        bag._arity = record_arity(rows)
        bag._rows = rows
        bag._counts = None
        bag._size = len(rows)
        bag._hash = None
        return bag

    @classmethod
    def empty(cls) -> "Bag":
        return _EMPTY

    # -- inspection -----------------------------------------------------------

    def _tally(self) -> Dict[Record, int]:
        """The multiplicity map, counted from the records on first need.
        Threads that race here each count an equal map; either is kept."""
        counts = self._counts
        if counts is None:
            counts = {}
            _count_elements(counts, self._rows)
            self._counts = counts
        return counts

    def multiplicity(self, record: Record) -> int:
        """The paper's ``#(r̄, T)``: 0 if ``record`` does not occur."""
        return self._tally().get(record, 0)

    def counts(self) -> Mapping[Record, int]:
        """A read-only *view* of the multiplicity map (no copy).

        Hot in :meth:`repro.semantics.evaluator.SqlSemantics._from_where`,
        which walks the map of every FROM product; the proxy makes the call
        O(1) while still preventing callers from mutating the bag.
        """
        return MappingProxyType(self._tally())

    @property
    def arity(self) -> int | None:
        """Record length, or None for the empty bag."""
        return self._arity

    def __len__(self) -> int:
        """Total number of occurrences (with multiplicity)."""
        return self._size

    def distinct_size(self) -> int:
        """Number of distinct records."""
        return len(self._tally())

    def __iter__(self) -> Iterator[Record]:
        if self._rows is not None:
            return iter(self._rows)
        counts = self._counts
        return chain.from_iterable(map(repeat, counts, counts.values()))

    def distinct(self) -> Iterator[Record]:
        """Iterate each distinct record once."""
        return iter(self._tally())

    def __contains__(self, record: Record) -> bool:
        return record in self._tally()

    def is_empty(self) -> bool:
        return not self._size

    # -- bag algebra (Section 3) ------------------------------------------------

    def _check_compatible(self, other: "Bag") -> None:
        if (
            self._arity is not None
            and other._arity is not None
            and self._arity != other._arity
        ):
            raise ValueError(
                f"bag operation on incompatible arities: {self._arity} vs {other._arity}"
            )

    def union(self, other: "Bag") -> "Bag":
        """Bag union (UNION ALL): multiplicities add up."""
        self._check_compatible(other)
        counts = dict(self._tally())
        for record, count in other._tally().items():
            counts[record] = counts.get(record, 0) + count
        return Bag.from_counts(counts)

    def intersection(self, other: "Bag") -> "Bag":
        """Bag intersection (INTERSECT ALL): pointwise minimum."""
        self._check_compatible(other)
        counts: Dict[Record, int] = {}
        theirs = other._tally()
        for record, count in self._tally().items():
            other_count = theirs.get(record, 0)
            if other_count:
                counts[record] = min(count, other_count)
        return Bag.from_counts(counts)

    def difference(self, other: "Bag") -> "Bag":
        """Bag difference (EXCEPT ALL): truncated subtraction."""
        self._check_compatible(other)
        counts: Dict[Record, int] = {}
        theirs = other._tally()
        for record, count in self._tally().items():
            remaining = count - theirs.get(record, 0)
            if remaining > 0:
                counts[record] = remaining
        return Bag.from_counts(counts)

    def product(self, other: "Bag") -> "Bag":
        """Cartesian product: concatenates records, multiplies multiplicities."""
        counts: Dict[Record, int] = {}
        theirs = other._tally()
        for left, left_count in self._tally().items():
            for right, right_count in theirs.items():
                counts[left + right] = left_count * right_count
        return Bag.from_counts(counts)

    def distinct_bag(self) -> "Bag":
        """Duplicate elimination ε: every multiplicity becomes 1."""
        return Bag.from_counts(dict.fromkeys(self._tally(), 1))

    # -- convenience aliases matching the paper's notation -----------------------

    __add__ = union

    def __and__(self, other: "Bag") -> "Bag":
        return self.intersection(other)

    def __sub__(self, other: "Bag") -> "Bag":
        return self.difference(other)

    def __mul__(self, other: "Bag") -> "Bag":
        return self.product(other)

    # -- plumbing ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bag):
            return NotImplemented
        return self._size == other._size and self._tally() == other._tally()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._tally().items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{record!r}: {count}" for record, count in sorted(
                self._tally().items(), key=lambda item: repr(item[0])
            )
        )
        return f"Bag({{{inner}}})"


_EMPTY = Bag()
