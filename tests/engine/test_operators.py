"""Physical operators of the reference engine."""

from repro.engine.compile import _expr_fn
from repro.engine.expressions import _OP_HELPERS, ColumnRef, LiteralExpr, and3, not3, or3
from repro.engine.operators import (
    CrossJoin,
    DistinctOp,
    FilterOp,
    ProjectOp,
    SetOpNode,
    StaticScan,
)

from ..executor import run_rows


def scan(*rows):
    return StaticScan(list(rows))


def test_static_scan():
    assert run_rows(scan((1,), (2,))) == [(1,), (2,)]


def test_cross_join_concatenates():
    node = CrossJoin([scan((1,), (2,)), scan(("a",), ("b",))])
    assert sorted(run_rows(node)) == [(1, "a"), (1, "b"), (2, "a"), (2, "b")]


def test_cross_join_empty_child_short_circuits():
    node = CrossJoin([scan((1,)), scan()])
    assert run_rows(node) == []


def test_cross_join_single_child():
    node = CrossJoin([scan((1,))])
    assert run_rows(node) == [(1,)]


def test_filter_keeps_only_true():
    """None (unknown) is discarded exactly like False."""
    node = FilterOp(
        scan((1,), (None,), (3,)),
        lambda row, outers: None if row[0] is None else row[0] > 1,
    )
    assert run_rows(node) == [(3,)]


def test_project_evaluates_expressions():
    node = ProjectOp(scan((1, 2)), [ColumnRef(0, 1), LiteralExpr(9)])
    assert run_rows(node) == [(2, 9)]


def test_distinct_keeps_first_seen_order():
    node = DistinctOp(scan((2,), (1,), (2,), (1,)))
    assert run_rows(node) == [(2,), (1,)]


def test_distinct_treats_none_as_value():
    node = DistinctOp(scan((None,), (None,)))
    assert run_rows(node) == [(None,)]


class TestSetOps:
    left = scan((1,), (1,), (2,))
    right = scan((1,), (3,))

    def rows(self, op, all_flag, left=None, right=None):
        node = SetOpNode(op, all_flag, left or self.left, right or self.right)
        return sorted(run_rows(node), key=repr)

    def test_union_all(self):
        assert self.rows("UNION", True) == [(1,), (1,), (1,), (2,), (3,)]

    def test_union_distinct(self):
        assert self.rows("UNION", False) == [(1,), (2,), (3,)]

    def test_intersect_all(self):
        assert self.rows("INTERSECT", True) == [(1,)]

    def test_intersect_distinct(self):
        assert self.rows("INTERSECT", False) == [(1,)]

    def test_except_all(self):
        assert self.rows("EXCEPT", True) == [(1,), (2,)]

    def test_except_distinct_dedups_left_only(self):
        # ε(left) − right, right NOT deduped.
        left = scan((1,), (1,), (2,))
        right = scan((2,), (2,))
        node = SetOpNode("EXCEPT", False, left, right)
        assert sorted(run_rows(node)) == [(1,)]

    def test_nulls_match_in_set_ops(self):
        left = scan((None,), (1,))
        right = scan((None,),)
        node = SetOpNode("EXCEPT", False, left, right)
        assert run_rows(node) == [(1,)]


def compare(op, a, b):
    return _OP_HELPERS[op](a, b)


class TestThreeValuedHelpers:
    def test_and3(self):
        assert and3(True, True) is True
        assert and3(True, None) is None
        assert and3(False, None) is False
        assert and3(None, None) is None

    def test_or3(self):
        assert or3(False, False) is False
        assert or3(False, None) is None
        assert or3(True, None) is True

    def test_not3(self):
        assert not3(True) is False
        assert not3(False) is True
        assert not3(None) is None

    def test_compare_null_propagation(self):
        assert compare("=", None, 1) is None
        assert compare("<", 1, None) is None
        assert compare("=", 2, 2) is True
        assert compare("<>", 2, 2) is False

    def test_compare_cross_type_equality(self):
        assert compare("=", 1, "1") is False
        assert compare("<>", 1, "1") is True

    def test_like(self):
        assert compare("LIKE", "hello", "h%") is True
        assert compare("LIKE", "hello", "x%") is False


def test_column_ref_depths():
    ref0 = _expr_fn(ColumnRef(0, 1))
    ref1 = _expr_fn(ColumnRef(1, 0))
    ref2 = _expr_fn(ColumnRef(2, 0))
    outers = ((10,), (20,))
    assert ref0((5, 6), outers) == 6
    assert ref1((5, 6), outers) == 20  # innermost outer row
    assert ref2((5, 6), outers) == 10
