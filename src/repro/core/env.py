"""Environments η and the scoping operators of Section 3.

An environment is a partial map from full names (elements of N²) to values.
It supplies the bindings for *parameters*: full names referenced by a
subquery but bound by an enclosing scope.  The paper defines four operations,
all implemented here on an immutable :class:`Environment`:

* ``η_{Ā,r̄}``    (:meth:`Environment.from_bindings`) — binds each
  *non-repeated* full name of Ā to the corresponding value of r̄; a repeated
  full name is explicitly *undefined* (looking it up raises
  :class:`~repro.core.errors.AmbiguousReferenceError`, the situation of
  Example 2);
* ``η ⇑ Ā``       (:meth:`Environment.unbind`) — removes the bindings of Ā;
* ``η ; η′``      (:meth:`Environment.override`) — η overridden by η′;
* ``η ⊕r̄ Ā``     (:meth:`Environment.update`) — the composite
  ``(η ⇑ Ā); η_{Ā,r̄}`` used when entering the scope of a FROM clause.

A fifth, ``η ↾ Ā`` (:meth:`Environment.restrict`, and
:meth:`Environment.binding_key` for its hashable form), is the restriction
the ``param`` lemma of Section 5 speaks of: a query's value depends on η
only through η ↾ param(Q).

Ambiguity is represented with a sentinel so that a name that was *shadowed by
a repeated name* is distinguishable from a name that was never bound: the
former is an ambiguous reference, the latter would not have compiled.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

from .errors import AmbiguousReferenceError, UnboundReferenceError
from .values import FullName, Record, Value

__all__ = ["Environment", "ScopeBinder", "EMPTY_ENV"]


class _Ambiguous:
    """Sentinel marking a full name that occurs more than once in a scope."""

    _instance: "_Ambiguous | None" = None

    def __new__(cls) -> "_Ambiguous":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<ambiguous>"


_AMBIGUOUS = _Ambiguous()

#: The binding state of a name η is not defined on, in a binding key.
_UNBOUND = object()


class Environment:
    """An immutable partial map N² → C ∪ {NULL}."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Mapping[FullName, Union[Value, _Ambiguous]] = {}):
        self._bindings: Dict[FullName, Union[Value, _Ambiguous]] = dict(bindings)

    # -- construction -----------------------------------------------------------

    @classmethod
    def empty(cls) -> "Environment":
        return EMPTY_ENV

    @classmethod
    def from_bindings(
        cls, full_names: Sequence[FullName], record: Record
    ) -> "Environment":
        """The paper's ``η_{Ā,r̄}``.

        Maps each non-repeated element of ``full_names`` to the corresponding
        value of ``record``; repeated full names are marked ambiguous.
        """
        if len(full_names) != len(record):
            raise ValueError(
                f"binding {len(full_names)} names to a record of arity {len(record)}"
            )
        seen: Dict[FullName, int] = {}
        for name in full_names:
            seen[name] = seen.get(name, 0) + 1
        bindings: Dict[FullName, Union[Value, _Ambiguous]] = {}
        for name, value in zip(full_names, record):
            bindings[name] = _AMBIGUOUS if seen[name] > 1 else value
        return cls(bindings)

    # -- the paper's operators ----------------------------------------------------

    def unbind(self, full_names: Iterable[FullName]) -> "Environment":
        """``η ⇑ Ā``: undefined on every element of Ā, otherwise identical."""
        removed = set(full_names)
        if not removed:
            return self
        return Environment(
            {name: v for name, v in self._bindings.items() if name not in removed}
        )

    def override(self, other: "Environment") -> "Environment":
        """``η ; η′``: η′ wins wherever it is defined."""
        if not other._bindings:
            return self
        merged = dict(self._bindings)
        merged.update(other._bindings)
        return Environment(merged)

    def update(self, record: Record, full_names: Sequence[FullName]) -> "Environment":
        """``η ⊕r̄ Ā = (η ⇑ Ā); η_{Ā,r̄}`` — entering a FROM scope."""
        return self.unbind(full_names).override(
            Environment.from_bindings(full_names, record)
        )

    def restrict(self, full_names: Iterable[FullName]) -> "Environment":
        """``η ↾ Ā``: η on the names of Ā, ambiguity marks included."""
        bindings = self._bindings
        return Environment(
            {name: bindings[name] for name in full_names if name in bindings}
        )

    def binding_key(self, full_names: Sequence[FullName]) -> Tuple[tuple, tuple]:
        """``η ↾ Ā`` as a hashable key, for a fixed order of Ā.

        Holds the *binding state* of each name — its value, the ambiguity
        mark, or "unbound" — because a lookup distinguishes all three, and
        the states' types beside them: ``True == 1 == 1.0`` as dict keys,
        yet they are different values (a type-clash message prints them).
        """
        get = self._bindings.get
        states = tuple([get(name, _UNBOUND) for name in full_names])
        return states, tuple(map(type, states))

    def binder(self, full_names: Sequence[FullName]) -> "ScopeBinder":
        """A precompiled form of ``η ⊕r̄ Ā`` for a fixed η and Ā.

        ``env.binder(names).bind(record)`` produces exactly the environment
        ``env.update(record, names)`` would, but the unbinding of Ā and the
        ambiguity analysis are done once instead of once per record — the
        update is the hottest operation of the evaluator, called for every
        row of every FROM product.
        """
        return ScopeBinder(self, full_names)

    # -- lookup ----------------------------------------------------------------------

    def lookup(self, full_name: FullName) -> Value:
        """The value bound to ``full_name``.

        Raises :class:`AmbiguousReferenceError` if the name is repeated in its
        scope, and :class:`UnboundReferenceError` if it is not bound at all.
        """
        try:
            value = self._bindings[full_name]
        except KeyError:
            raise UnboundReferenceError(
                f"reference {full_name} is not bound by any enclosing scope"
            ) from None
        if isinstance(value, _Ambiguous):
            raise AmbiguousReferenceError(
                f"reference {full_name} is ambiguous: the full name is repeated "
                f"in the scope that binds it"
            )
        return value

    def defined_on(self, full_name: FullName) -> bool:
        """Whether η is defined on ``full_name`` (ambiguous counts as not)."""
        value = self._bindings.get(full_name, _AMBIGUOUS)
        return not isinstance(value, _Ambiguous)

    def bound_names(self) -> Tuple[FullName, ...]:
        """The full names on which η is defined (excluding ambiguous marks)."""
        return tuple(
            name
            for name, value in self._bindings.items()
            if not isinstance(value, _Ambiguous)
        )

    # -- plumbing -----------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Environment):
            return NotImplemented
        return self._bindings == other._bindings

    def __hash__(self) -> int:
        return hash(frozenset(self._bindings.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value!r}" for name, value in self._bindings.items())
        return f"Environment({{{inner}}})"


class ScopeBinder:
    """Precompiled ``η ⊕r̄ Ā`` for fixed η and Ā (see
    :meth:`Environment.binder`): per record, one dict copy and one zip."""

    __slots__ = ("_base", "_marks", "_arity")

    def __init__(self, env: Environment, full_names: Sequence[FullName]):
        seen: Dict[FullName, int] = {}
        for name in full_names:
            seen[name] = seen.get(name, 0) + 1
        self._marks = tuple((name, seen[name] > 1) for name in full_names)
        self._arity = len(self._marks)
        self._base = env.unbind(full_names)._bindings

    def bind(self, record: Record) -> Environment:
        """The environment ``η ⊕r̄ Ā`` for one record r̄."""
        if len(record) != self._arity:
            raise ValueError(
                f"binding {self._arity} names to a record of arity {len(record)}"
            )
        bindings = dict(self._base)
        for (name, ambiguous), value in zip(self._marks, record):
            bindings[name] = _AMBIGUOUS if ambiguous else value
        bound = Environment.__new__(Environment)
        bound._bindings = bindings
        return bound


EMPTY_ENV = Environment()
