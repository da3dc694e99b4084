"""Property-based tests (hypothesis): the bag algebra of Section 3.

Every property here is a direct consequence of the defining multiplicity
equations, checked on arbitrary bags of small records (including NULLs —
record equality is syntactic)."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bag import Bag
from repro.core.values import NULL

values = st.one_of(st.integers(min_value=0, max_value=3), st.just(NULL))
records = st.tuples(values, values)
bags = st.lists(records, max_size=12).map(Bag)
record_samples = records


@given(bags, bags, record_samples)
def test_union_multiplicity_equation(a, b, r):
    assert a.union(b).multiplicity(r) == a.multiplicity(r) + b.multiplicity(r)


@given(bags, bags, record_samples)
def test_intersection_multiplicity_equation(a, b, r):
    assert a.intersection(b).multiplicity(r) == min(
        a.multiplicity(r), b.multiplicity(r)
    )


@given(bags, bags, record_samples)
def test_difference_multiplicity_equation(a, b, r):
    assert a.difference(b).multiplicity(r) == max(
        a.multiplicity(r) - b.multiplicity(r), 0
    )


@given(bags, record_samples)
def test_dedup_multiplicity_equation(a, r):
    assert a.distinct_bag().multiplicity(r) == min(a.multiplicity(r), 1)


@given(bags, bags, record_samples, record_samples)
def test_product_multiplicity_equation(a, b, r, s):
    assert a.product(b).multiplicity(r + s) == a.multiplicity(r) * b.multiplicity(s)


@given(bags, bags)
def test_union_commutes(a, b):
    assert a.union(b) == b.union(a)


@given(bags, bags)
def test_intersection_commutes(a, b):
    assert a.intersection(b) == b.intersection(a)


@given(bags, bags, bags)
def test_union_associates(a, b, c):
    assert a.union(b).union(c) == a.union(b.union(c))


@given(bags, bags)
def test_intersection_via_double_difference(a, b):
    assert a.intersection(b) == a.difference(a.difference(b))


@given(bags)
def test_difference_with_self_empty(a):
    assert a.difference(a).is_empty()


@given(bags, bags)
def test_difference_then_add_back_bounds(a, b):
    """(a − b) ∪ (a ∩ b) = a for bags."""
    assert a.difference(b).union(a.intersection(b)) == a


@given(bags)
def test_dedup_idempotent(a):
    assert a.distinct_bag().distinct_bag() == a.distinct_bag()


@given(bags, bags)
def test_dedup_distributes_over_union_as_set_union(a, b):
    """ε(a ∪ b) = ε(ε(a) ∪ ε(b))."""
    assert a.union(b).distinct_bag() == a.distinct_bag().union(
        b.distinct_bag()
    ).distinct_bag()


@given(bags)
def test_length_is_sum_of_multiplicities(a):
    assert len(a) == sum(a.counts().values())


@given(bags)
def test_iteration_matches_counts(a):
    seen = {}
    for record in a:
        seen[record] = seen.get(record, 0) + 1
    assert seen == dict(a.counts())


@given(bags, bags)
@settings(max_examples=50)
def test_except_set_flavor_equals_epsilon_of_all_iff_right_dedup(a, b):
    """ε(a) − b = ε(a) − ε(b) (a set minus a bag ignores right multiplicities
    beyond one — the Figure 7 EXCEPT subtlety)."""
    left = a.distinct_bag().difference(b)
    right = a.distinct_bag().difference(b.distinct_bag())
    assert left == right


# -- representation battery ---------------------------------------------------
#
# A bag built from records keeps them as a list and counts them on first
# need; a bag built from counts keeps the map.  Both are the same bag.

record_lists = st.lists(records, max_size=16)


def algebra(a, b):
    """Every bag-algebra operation on ``(a, b)``, as comparable values."""
    return (
        a.union(b),
        a.intersection(b),
        a.difference(b),
        b.difference(a),
        a.product(b),
        a.distinct_bag(),
    )


def observations(bag, probes):
    return (
        hash(bag),
        len(bag),
        bag.distinct_size(),
        [bag.multiplicity(r) for r in probes],
        [r in bag for r in probes],
        repr(bag),
        bag.arity,
        bag.is_empty(),
    )


@given(record_lists, record_lists)
def test_record_and_count_built_bags_are_one_bag(rows, other):
    built, counted = Bag(rows), Bag.from_counts(Counter(rows))
    other_built, other_counted = Bag(other), Bag.from_counts(Counter(other))
    probes = rows + other + [(NULL, NULL)]
    assert built == counted and counted == built
    assert observations(built, probes) == observations(counted, probes)
    assert dict(built.counts()) == dict(counted.counts()) == dict(Counter(rows))
    assert sorted(built.distinct(), key=repr) == sorted(counted.distinct(), key=repr)
    for left, right in ((built, other_built), (counted, other_counted), (built, other_counted)):
        assert algebra(left, right) == algebra(counted, other_counted)
    assert (built == other_built) == (Counter(rows) == Counter(other))


@given(record_lists, record_lists)
def test_record_built_bag_iterates_its_record_list(rows, other):
    """Insertion order, duplicates where they were inserted, before and
    after anything counts the bag."""
    bag = Bag(iter(rows))
    assert list(bag) == rows
    bag.counts(), bag.multiplicity((0, 0)), hash(bag), bag == Bag(other)
    bag.union(Bag(other)), repr(bag), bag.distinct_size()
    assert list(bag) == rows
    counted = Bag.from_counts(Counter(rows))
    grouped = [r for r, n in Counter(rows).items() for _ in range(n)]
    assert list(counted) == grouped


@given(record_lists)
def test_both_constructors_keep_their_errors(rows):
    good = rows or [(0, 0)]
    with pytest.raises(TypeError, match="must be tuples, got list"):
        Bag([*good, [1, 2]])
    with pytest.raises(TypeError, match="must be tuples, got str"):
        Bag.from_counts({**Counter(good), "ab": 1})
    with pytest.raises(ValueError, match="mixed arity in bag: 2 and 1"):
        Bag([*good, (1,)])
    with pytest.raises(ValueError, match="mixed arity in bag: 2 and 1"):
        Bag.from_counts({**Counter(good), (1,): 1})
    with pytest.raises(ValueError, match="negative multiplicity -1"):
        Bag.from_counts({**Counter(good), (3, 3): -1})
