"""Tests for index-tuple combinatorics and the fast eigenvalue path."""

import itertools
import random
from fractions import Fraction as F

import pytest

from casimir_eigen.ratpoly import MPoly, alpha
from casimir_eigen.tuplegraph import (
    IndexTuple,
    SignConvention,
    _rank_map,
    elementary_eigenvalue,
    enumerate_cycles,
    enumerate_proper_cycles,
    min_pair,
    pattern_product,
    proper_cycle_factors,
    relative_order,
)
from pathcheck import enumerate_paths
from references import parameter, power

WORKED = IndexTuple.parse("1,9,2,5,5,9,6,8,4,5", n=10)


def brute_force_paths(t, v, w):
    """Independent oracle: filter all 2^m subsets by the chain condition."""
    closed = t.closed()
    out = []
    for k in range(t.m + 1):
        for subset in itertools.combinations(range(1, t.m + 1), k):
            if not subset:
                if v == w:
                    out.append(())
                continue
            if closed[subset[0] - 1] != v or closed[subset[-1]] != w:
                continue
            if all(closed[a] == closed[b - 1] for a, b in zip(subset, subset[1:])):
                out.append(subset)
    return sorted(out)


class TestIndexTuple:
    def test_parse_defaults_rank_to_max(self):
        assert WORKED.entries == (1, 9, 2, 5, 5, 9, 6, 8, 4, 5)
        assert IndexTuple.parse("1,9,2,5,5,9,6,8,4,5").n == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            IndexTuple((0, 1), 2)
        with pytest.raises(ValueError):
            IndexTuple((3,), 2)
        with pytest.raises(ValueError):
            IndexTuple((), 2)
        with pytest.raises(ValueError):
            IndexTuple.parse("1,x,3")

    def test_closed(self):
        assert IndexTuple((1, 2), 2).closed() == (1, 2, 1)


class TestRelativeOrder:
    def test_worked_tuple(self):
        ro = relative_order(WORKED)
        assert len(ro.values) == 7
        # distinct values sorted: 1,2,4,5,6,8,9 so value 5 has rank 4
        assert ro.values == (1, 2, 4, 5, 6, 8, 9)
        for pos, value in enumerate(WORKED.entries, start=1):
            assert ro.rho[pos - 1] == sorted(set(WORKED.entries)).index(value) + 1
        assert ro.rho[3] == 4  # position 4 carries value 5

    def test_all_equal(self):
        ro = relative_order(IndexTuple((3, 3, 3), 3))
        assert ro == ((1, 1, 1), (3,))

    def test_two_distinct(self):
        ro = relative_order(IndexTuple((7, 2), 7))
        assert (ro.rho, ro.values) == ((2, 1), (2, 7))

    def test_invariants(self):
        rng = random.Random(5)
        for _ in range(50):
            m = rng.randint(1, 8)
            entries = tuple(rng.randint(1, 6) for _ in range(m))
            ro = relative_order(IndexTuple(entries, 6))
            assert ro.values == tuple(sorted(set(entries)))
            assert set(ro.rho) == set(range(1, len(ro.values) + 1))
            for pos in range(1, m + 1):
                assert ro.values[ro.rho[pos - 1] - 1] == entries[pos - 1]


class TestMinPair:
    def test_second_minimum(self):
        assert min_pair((9, 2, 5, 5, 9)) == (2, 5)

    def test_singleton_value_set(self):
        assert min_pair((5, 5)) == (5, None)

    def test_full_worked_cycle(self):
        assert min_pair((1, 9, 2, 5, 5, 9, 6, 8, 4, 5, 1)) == (1, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            min_pair(())


class TestCycles:
    def test_worked_tuple_table(self):
        records = enumerate_cycles(WORKED)
        table = [(r.start_pos, r.end_pos, r.proper, r.v1, r.v2) for r in records]
        assert table == [
            (1, 11, True, 1, 2),
            (2, 6, False, 2, 5),
            (4, 5, True, 5, None),
            (5, 10, False, 4, 5),
        ]
        proper = enumerate_proper_cycles(WORKED)
        assert [(c.v1, c.v2) for c in proper] == [(1, 2), (5, None)]

    def test_repeated_base_is_not_proper(self):
        t = IndexTuple((1, 1), 1)
        proper = enumerate_proper_cycles(t)
        assert [(c.start_pos, c.end_pos) for c in proper] == [(1, 2), (2, 3)]
        # the full sub-list (1,1,1) spans non-consecutive occurrences and
        # is a cycle but not proper; it never shows up
        assert all(c.end_pos - c.start_pos == 1 for c in proper)

    def test_single_repeat(self):
        (cycle,) = enumerate_proper_cycles(IndexTuple((1, 2), 2))
        assert (cycle.start_pos, cycle.end_pos, cycle.v1, cycle.v2) == (1, 3, 1, 2)

    def test_proper_cycle_invariants(self):
        rng = random.Random(13)
        for _ in range(100):
            m = rng.randint(1, 9)
            entries = tuple(rng.randint(1, 5) for _ in range(m))
            t = IndexTuple(entries, 5)
            closed = t.closed()
            for c in enumerate_proper_cycles(t):
                assert c.v1 == c.base == closed[c.start_pos - 1] == closed[c.end_pos - 1]
                interior = closed[c.start_pos : c.end_pos - 1]
                assert all(x > c.base for x in interior)
                values = set(closed[c.start_pos - 1 : c.end_pos])
                assert (c.v2 is None) == (len(values) == 1)


class TestParameter:
    def test_values(self):
        assert parameter(2, 5, False) == alpha(2, 5)
        assert parameter(2, 5, True) == alpha(2, 5) + 1
        assert parameter(5, 5, True) == alpha(5, 5) - 2

    def test_shared_across_calls(self):
        # the plain parameter is cached where it is made, so pattern_product and the oracle share one value
        assert alpha(3, 7) is alpha(3, 7)
        assert alpha(3, 7) is not alpha(3, 6)

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("shifted", [False, True])
    def test_rank_map_sends_rank_k_to_the_parameter(self, n, shifted):
        values = tuple(range(1, n + 1, 2))  # every other value, so ranks and values differ
        targets, shifts, q = _rank_map(values, n, shifted)
        assert q == (2 if shifted and n % 2 == 0 else 1)
        images = [MPoly.variable(n, t) + F(s, q) for t, s in zip(targets, shifts)]
        assert images == [parameter(v, n, shifted) for v in values]


class TestElementaryEigenvalue:
    def test_worked_example(self):
        n = 10
        expected = (-alpha(1, n) + alpha(2, n)) * (-alpha(5, n) + 1)
        for sign in SignConvention:  # m is even: conventions agree
            assert elementary_eigenvalue(WORKED, sign=sign) == expected

    def test_zero_branch(self):
        assert elementary_eigenvalue(IndexTuple((2, 1), 2)) == MPoly(2)
        assert elementary_eigenvalue(IndexTuple((2, 1), 2), shifted=True) == MPoly(2)

    def test_loop_shifted(self):
        t = IndexTuple((1, 1), 2)
        expected = power(alpha(1, 2) + F(3, 2) - 1, 2)
        assert elementary_eigenvalue(t, shifted=True) == expected

    def test_single_entry_sign(self):
        t = IndexTuple((1,), 2)
        assert elementary_eigenvalue(t, sign=SignConvention.LITERAL) == -alpha(1, 2)
        assert elementary_eigenvalue(t, sign=SignConvention.ALTERNATING) == alpha(1, 2)

    def test_zero_law(self):
        # zero exactly when some entry is below i1, in both conventions
        for entries in itertools.product(range(1, 4), repeat=3):
            t = IndexTuple(entries, 3)
            should_vanish = any(i < entries[0] for i in entries)
            for sign in SignConvention:
                value = elementary_eigenvalue(t, sign=sign)
                assert (value == MPoly(3)) == should_vanish

    def test_degree_bounded_by_cycle_count(self):
        rng = random.Random(29)
        for _ in range(50):
            m = rng.randint(1, 8)
            entries = tuple(rng.randint(1, 5) for _ in range(m))
            t = IndexTuple(entries, 5)
            value = elementary_eigenvalue(t)
            cycles = len(enumerate_proper_cycles(t))
            assert value.total_degree() <= cycles <= m

    def test_relative_order_covariance(self):
        # order-isomorphic tuples give the same eigenvalue up to renaming
        pairs = [
            ((1, 3, 2), (2, 9, 5)),
            ((1, 2, 2, 4), (3, 5, 5, 8)),
            ((2, 2), (7, 7)),
        ]
        for base, image in pairs:
            n = max(image)
            iso = dict(zip(sorted(set(base)), sorted(set(image))))
            t_base = IndexTuple(base, n)
            t_image = IndexTuple(image, n)
            renamed = MPoly(
                n,
                {
                    _rename_exponent(e, iso, n): c
                    for e, c in elementary_eigenvalue(t_base).terms.items()
                },
            )
            assert renamed == elementary_eigenvalue(t_image)


def direct_eigenvalue(t, shifted, sign):
    """The proper-cycle product multiplied out in the n parameters of the tuple itself.

    This is the fast path without the per-pattern product and its ring
    maps: zero when some entry is below i1, otherwise the signed product
    of ``proper_cycle_factors`` over the plain or rho-shifted parameters.
    """
    n = t.n
    if any(i < t.entries[0] for i in t.entries):
        return MPoly(n)
    product = MPoly.one(n)
    for factor in proper_cycle_factors(t, lambda v: parameter(v, n, shifted)):
        product = product * factor
    return sign.factor(t.m) * product


class TestFastPathReference:
    """elementary_eigenvalue reads one product per pattern through two ring maps; check it tuple by tuple."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_small_tuple(self, m, n):
        for entries in itertools.product(range(1, n + 1), repeat=m):
            t = IndexTuple(entries, n)
            for shifted in (False, True):
                for sign in SignConvention:
                    assert elementary_eigenvalue(t, shifted, sign) == direct_eigenvalue(t, shifted, sign), (
                        entries,
                        shifted,
                        sign,
                    )

    def test_worked_example(self):
        for shifted in (False, True):
            for sign in SignConvention:
                assert elementary_eigenvalue(WORKED, shifted, sign) == direct_eigenvalue(WORKED, shifted, sign)

    def test_pattern_product_is_the_pattern_tuple_unsigned(self):
        for rho in [(1,), (1, 1), (1, 2, 1, 3), (1, 3, 2, 3, 4, 2)]:
            t = IndexTuple(rho, max(rho))
            assert pattern_product(rho) == direct_eigenvalue(t, False, SignConvention.LITERAL)


def _rename_exponent(exps, iso, n):
    out = [0] * n
    for idx, e in enumerate(exps, start=1):
        if e:
            out[iso.get(idx, idx) - 1] = e
    return tuple(out)


class TestPaths:
    def test_single_edge(self):
        assert enumerate_paths(IndexTuple((1, 2), 2), 1, 2) == [(1,)]

    def test_empty_path_and_two_cycle(self):
        assert enumerate_paths(IndexTuple((1, 2), 2), 1, 1) == [(), (1, 2)]

    def test_worked_tuple_contains_loop_then_edge(self):
        assert (4, 5) in enumerate_paths(WORKED, 5, 9)

    def test_matches_brute_force(self):
        rng = random.Random(41)
        for _ in range(40):
            m = rng.randint(1, 6)
            entries = tuple(rng.randint(1, 4) for _ in range(m))
            t = IndexTuple(entries, 4)
            for v in range(1, 5):
                for w in range(1, 5):
                    assert enumerate_paths(t, v, w) == brute_force_paths(t, v, w)
