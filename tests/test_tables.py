"""Tests for the symbolic per-case eigenvalue tables."""

import itertools
from fractions import Fraction as F

import pytest

from casimir_eigen import tables
from casimir_eigen.ratpoly import MPoly, PowerSumPoly, alpha, to_power_sum
from casimir_eigen.tables import (
    FactoredValue,
    eigenvalue_table,
    shifted_symbol,
    symbolic_shifted_eigenvalue,
)
from casimir_eigen.tuplegraph import IndexTuple, elementary_eigenvalue
from references import classify, evaluate_factored, evaluate_row, matches, oracle_at


class TestLinForm:
    """Table factors: degree-1 MPolys over a_i1..a_im, (n+1)/2, i1..im."""

    def test_shifted_parameter_render(self):
        assert FactoredValue.from_factors([shifted_symbol(2, 1)]).render() == "a_i1 + (n+1)/2 - i1"

    def test_difference_cancels_shift(self):
        diff = shifted_symbol(2, 1) - shifted_symbol(2, 2)
        assert FactoredValue.from_factors([diff]).render() == "a_i1 - a_i2 - i1 + i2"

    def test_evaluate(self):
        form = FactoredValue.from_factors([shifted_symbol(2, 1)])
        assert evaluate_factored(form, (3, 1), 4) == alpha(3, 4) + F(5, 2) - 3

    def test_leading_sign(self):
        b1 = shifted_symbol(2, 1)
        assert FactoredValue.from_factors([b1]) == FactoredValue(sign=1, factors=((b1, 1),))
        assert FactoredValue.from_factors([-b1]) == FactoredValue(sign=-1, factors=((b1, 1),))
        assert FactoredValue.from_factors([-b1, -b1], sign=-1).sign == -1


class TestRows:
    def test_zero_rows(self):
        assert classify(2, (2, 1)).computed is None
        assert classify(3, (3, 1, 2)).computed is None
        assert classify(3, (2, 3, 1)).computed is None

    def test_case_labels(self):
        assert [row.label for row in eigenvalue_table(2)] == ["i1 > i2", "i1 = i2", "i1 < i2"]
        assert len(eigenvalue_table(3)) == 8

    def test_only_small_orders(self):
        with pytest.raises(ValueError):
            eigenvalue_table(4)

    def test_loop_row_renders_as_square(self):
        row = classify(2, (1, 1))
        assert row.computed.render() == "(a_i1 + (n+1)/2 - i1)^2"

    def test_ascending_row_renders_plain(self):
        row = classify(2, (1, 2))
        assert row.computed.render() == "-a_i1 + a_i2 + i1 - i2"

    def test_triple_loop_renders_as_cube(self):
        row = classify(3, (2, 2, 2))
        assert row.computed.render() == "(a_i1 + (n+1)/2 - i1)^3"

    def test_every_row_matches_fast_path(self):
        for m in (2, 3):
            for entries in itertools.product(range(1, 5), repeat=m):
                for n in (4, 6):
                    row = classify(m, entries)
                    expected = elementary_eigenvalue(IndexTuple(entries, n), shifted=True)
                    assert evaluate_row(row, entries, n) == expected, (m, entries, n)

    def test_mutating_a_returned_table_leaves_classify_alone(self):
        rows = eigenvalue_table(3)
        first = classify(3, (1, 2, 3))
        rows.clear()
        assert classify(3, (1, 2, 3)) == first
        assert len(eigenvalue_table(3)) == 8

    def test_classify_agrees_with_a_fresh_table(self):
        for m in (2, 3):
            fresh = tables.eigenvalue_table(m)  # a table of its own, not the one classify reads
            for n in range(1, 5):
                for entries in itertools.product(range(1, n + 1), repeat=m):
                    row = classify(m, entries)
                    expected = next(r for r in fresh if matches(r, entries))
                    assert row.label == expected.label
                    assert (row.computed, row.variant) == (expected.computed, expected.variant)

    def test_classification_is_exhaustive_and_first_match(self):
        for entries in itertools.product(range(1, 4), repeat=3):
            row = classify(3, entries)
            assert matches(row, entries)


class TestDiscrepantRow:
    def row(self):
        return next(r for r in eigenvalue_table(3) if r.discrepancy)

    def test_only_one_discrepancy(self):
        assert sum(1 for r in eigenvalue_table(3) if r.discrepancy) == 1
        assert self.row().label == "i1 < i2 = i3"

    def test_variant_differs_from_computed(self):
        row = self.row()
        assert evaluate_factored(row.variant, (1, 2, 2), 3) != evaluate_factored(row.computed, (1, 2, 2), 3)

    def test_variant_is_the_circulated_form(self):
        # printed form: b1 - b2 + b1*(b2 - b1) with b_j the shifted parameters
        row = self.row()
        for entries in [(1, 2, 2), (1, 3, 3), (2, 4, 4)]:
            for n in (4, 5):
                b1 = alpha(entries[0], n) + F(n + 1, 2) - entries[0]
                b2 = alpha(entries[1], n) + F(n + 1, 2) - entries[1]
                expanded = (b1 - b2) + b1 * (b2 - b1)
                assert evaluate_factored(row.variant, entries, n) == expanded

    def test_computed_matches_oracle(self):
        row = self.row()
        for entries in [(1, 2, 2), (2, 3, 3)]:
            t = IndexTuple(entries, 3)
            assert evaluate_factored(row.computed, entries, 3) == oracle_at(t, shifted=True)

    def test_computed_rows_sum_to_casimir_value(self):
        # summing the computed rows over {1,2,3}^3 at n=3 gives p3 - (3/2) p2 + 3;
        # with the printed variant in its place the sum is not even symmetric
        from casimir_eigen.ratpoly import NotSymmetricError

        n = 3
        computed_sum = MPoly(n)
        variant_sum = MPoly(n)
        for entries in itertools.product(range(1, 4), repeat=3):
            row = classify(3, entries)
            computed_sum = computed_sum + evaluate_row(row, entries, n)
            value = row.variant if row.discrepancy else row.computed
            if value is None:
                continue
            variant_sum = variant_sum + evaluate_factored(value, entries, n)
        expected = PowerSumPoly({(3,): 1, (2,): F(-3, 2), (): 3})
        assert to_power_sum(computed_sum) == expected
        with pytest.raises(NotSymmetricError):
            to_power_sum(variant_sum)


class TestSymbolicGeneration:
    @pytest.mark.parametrize("pattern", [(1, 3, 2), (1, 2, 1, 3), (1, 1, 3, 2), (1, 3, 1, 2)])
    def test_first_positions_other_than_ranks_match_oracle(self, pattern):
        # a rank's symbols are those of its first position, which here is not the rank itself
        value = symbolic_shifted_eigenvalue(pattern)
        for values, n in [((1, 2, 3), 3), ((2, 4, 5), 6), ((1, 3, 6), 7)]:
            entries = tuple(values[r - 1] for r in pattern)
            assert evaluate_factored(value, entries, n) == oracle_at(IndexTuple(entries, n), shifted=True)

    def test_rejects_non_minimal_representative(self):
        with pytest.raises(ValueError):
            symbolic_shifted_eigenvalue((2, 3))

    def test_power_grouping(self):
        value = symbolic_shifted_eigenvalue((1, 1))
        assert value.sign == 1
        ((form, mult),) = value.factors
        assert mult == 2
