"""Tests for Casimir summation, closed forms, and fast-vs-oracle verification."""

import itertools
import random
from fractions import Fraction as F

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test below is then not collected
    st = None

from casimir_eigen import casimir, jetoracle
from casimir_eigen.casimir import (
    CasimirRequest,
    Exhaustive,
    RandomSample,
    _select_tuples,
    casimir_eigenvalue,
    casimir_eigenvalue_patterned,
    closed_form,
    verify_tuples,
)
from casimir_eigen.jetoracle import oracle_eigenvalue
from casimir_eigen.ratpoly import ClosedForm, MPoly, PowerSumPoly, alpha, to_power_sum
from casimir_eigen.tuplegraph import IndexTuple, SignConvention, elementary_eigenvalue

# The expected closed forms, frozen as exact coefficient data:
#   m=1: 0
#   m=2: p2 - (n^3 - n)/12
#   m=3: p3 - (n/2) p2 + (n^4 - n^2)/24
#   m=4: p4 - n p3 + (1/2) p2 - (n^5 - n)/80
CLOSED_FORMS = {
    1: ClosedForm({}),
    2: ClosedForm({(2,): (F(1),), (): (0, F(1, 12), 0, F(-1, 12))}),
    3: ClosedForm({(3,): (F(1),), (2,): (0, F(-1, 2)), (): (0, 0, F(-1, 24), 0, F(1, 24))}),
    4: ClosedForm(
        {
            (4,): (F(1),),
            (3,): (0, F(-1),),
            (2,): (F(1, 2),),
            (): (0, F(1, 80), 0, 0, 0, F(-1, 80)),
        }
    ),
}

# m=5, beyond the orders the paper tabulates.  Recorded when the patterned sum
# still substituted every value choice, so it does not lean on the relabelling.
CLOSED_FORM_5_TEXT = (
    "p5 - 3*n/2*p4 + 1/2*p2^2 + (3*n^2 + 5)/6*p3 + (n^3 - 4*n)/6*p2 + (n^6 + 10*n^4 - 11*n^2)/720"
)
CLOSED_FORM_6_TEXT = (
    "p6 - 2*n*p5 + p3*p2 + (5*n^2 + 5)/4*p4 - n*p2^2 - (n^3 + 19*n)/12*p3"
    " - (7*n^4 - 22*n^2 - 9)/48*p2 + (5*n^7 - 49*n^5 + 35*n^3 + 9*n)/4032"
)
CLOSED_FORM_7_TEXT = (
    "p7 - 5*n/2*p6 + p4*p2 + 1/2*p3^2 + (9*n^2 + 7)/4*p5 - 5*n/2*p3*p2 - (17*n^3 + 73*n)/24*p4"
    " + (9*n^2 + 4)/8*p2^2 - (5*n^4 - 80*n^2 - 21)/48*p3 + (39*n^5 - 80*n^3 - 199*n)/480*p2"
    " - (16*n^8 - 91*n^6 + 14*n^4 + 61*n^2)/13440"
)
CLOSED_FORM_5 = ClosedForm(
    {
        (5,): (F(1),),
        (4,): (0, F(-3, 2)),
        (2, 2): (F(1, 2),),
        (3,): (F(5, 6), 0, F(1, 2)),
        (2,): (0, F(-2, 3), 0, F(1, 6)),
        (): (0, 0, F(-11, 720), 0, F(1, 72), 0, F(1, 720)),
    }
)


class TestCasimirSum:
    def test_order_one_vanishes(self):
        for n in range(1, 9):
            request = CasimirRequest(m=1, n=n)
            assert to_power_sum(casimir_eigenvalue(request), n) == PowerSumPoly.zero()

    def test_order_two_rank_three(self):
        value = to_power_sum(casimir_eigenvalue(CasimirRequest(m=2, n=3)), 3)
        assert value == PowerSumPoly({(2,): 1, (): -2})

    def test_order_three_rank_three(self):
        value = to_power_sum(casimir_eigenvalue(CasimirRequest(m=3, n=3)), 3)
        assert value == PowerSumPoly({(3,): 1, (2,): F(-3, 2), (): 3})

    def test_order_two_rank_two(self):
        value = to_power_sum(casimir_eigenvalue(CasimirRequest(m=2, n=2)), 2)
        assert value == PowerSumPoly({(2,): 1, (): F(-1, 2)})
        # and in the monomial basis: a1^2 + a2^2 - 1/2
        raw = casimir_eigenvalue(CasimirRequest(m=2, n=2))
        assert raw == alpha(1, 2) ** 2 + alpha(2, 2) ** 2 - F(1, 2)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            CasimirRequest(m=0, n=3)
        with pytest.raises(ValueError):
            CasimirRequest(m=2, n=0)
        assert CasimirRequest(m=5, n=3).outside_standard_range

    def test_permutation_symmetry_at_zero_sum_points(self):
        rng = random.Random(101)
        for m, n in [(2, 3), (3, 3), (3, 4), (4, 4)]:
            value = casimir_eigenvalue(CasimirRequest(m=m, n=n))
            for _ in range(25):
                point = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n - 1)]
                point.append(-sum(point, F(0)))
                reference = value.eval_at(point)
                for _ in range(5):
                    perm = list(point)
                    rng.shuffle(perm)
                    assert value.eval_at(perm) == reference


class TestPatterned:
    def test_matches_naive(self):
        # m <= 4 at every n <= 5, then (5,5) and (5,3), which lies outside m <= n
        for m, n in [(m, n) for m in range(1, 5) for n in range(1, 6)] + [(5, 5), (5, 3)]:
            request = CasimirRequest(m=m, n=n)
            assert casimir_eigenvalue_patterned(request) == casimir_eigenvalue(request), (m, n)
        # raw parameters under the alternating sign, at odd m where the sign matters
        for m, n in [(3, 4), (5, 4)]:
            request = CasimirRequest(m=m, n=n, shifted=False, sign=SignConvention.ALTERNATING)
            assert casimir_eigenvalue_patterned(request) == casimir_eigenvalue(request), (m, n)

    def test_matches_naive_unshifted_and_literal(self):
        for m, n in [(2, 3), (3, 4)]:
            request = CasimirRequest(m=m, n=n, shifted=False, sign=SignConvention.LITERAL)
            assert casimir_eigenvalue_patterned(request) == casimir_eigenvalue(request)

    @pytest.mark.parametrize("shifted", [True, False])
    @pytest.mark.parametrize("sign", list(SignConvention))
    def test_matches_naive_order_five_rank_six(self, shifted, sign):
        request = CasimirRequest(m=5, n=6, shifted=shifted, sign=sign)
        assert casimir_eigenvalue_patterned(request) == casimir_eigenvalue(request)

    if st is not None:

        @settings(max_examples=80, deadline=None)
        @given(
            m=st.integers(1, 4),
            n=st.integers(1, 5),
            shifted=st.booleans(),
            sign=st.sampled_from(list(SignConvention)),
        )
        def test_matches_naive_property(self, m, n, shifted, sign):
            request = CasimirRequest(m=m, n=n, shifted=shifted, sign=sign)
            assert casimir_eigenvalue_patterned(request) == casimir_eigenvalue(request)

    def test_both_signs_share_one_pattern_sum(self):
        # the sign is applied per request, so at odd m the literal and the
        # alternating request read one cached sum and come out as negatives
        casimir._pattern_sums.cache_clear()
        literal, alternating = (
            casimir_eigenvalue_patterned(CasimirRequest(m=3, n=4, sign=sign))
            for sign in (SignConvention.LITERAL, SignConvention.ALTERNATING)
        )
        assert casimir._pattern_sums.cache_info().currsize == 1
        assert literal == -alternating != 0

    def test_descending_pairs_are_skipped_as_one_pattern(self):
        # the (2,1) rank pattern covers all n(n-1)/2 descending pairs at once;
        # the resulting sum still matches, so nothing is lost by skipping them
        request = CasimirRequest(m=2, n=4)
        assert casimir_eigenvalue_patterned(request) == casimir_eigenvalue(request)


class TestClosedForm:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_expected(self, m):
        assert closed_form(m) == CLOSED_FORMS[m]

    def test_samples_reproduced(self):
        for m in (2, 3):
            form = closed_form(m)
            for n in range(m, 2 * m + 3):
                direct = to_power_sum(casimir_eigenvalue_patterned(CasimirRequest(m=m, n=n)), n)
                assert form.at(n) == direct

    def test_order_five(self):
        form = closed_form(5)
        assert form == CLOSED_FORM_5
        assert str(form) == CLOSED_FORM_5_TEXT
        assert form.at(5) == to_power_sum(casimir_eigenvalue(CasimirRequest(5, 5)), 5)

    def test_order_six(self):
        assert str(closed_form(6)) == CLOSED_FORM_6_TEXT

    @pytest.mark.slow
    def test_order_seven(self):
        assert str(closed_form(7)) == CLOSED_FORM_7_TEXT

    def test_rendering(self):
        assert str(closed_form(2)) == "p2 - (n^3 - n)/12"
        assert str(closed_form(3)) == "p3 - n/2*p2 + (n^4 - n^2)/24"
        assert str(closed_form(4)) == "p4 - n*p3 + 1/2*p2 - (n^5 - n)/80"


class TestVerify:
    def test_loop_after_edge_tuple(self):
        report = verify_tuples(3, 2, Exhaustive())
        record = next(r for r in report.records if r.entries == (1, 2, 2))
        expected = (alpha(1, 2) - alpha(2, 2)) * (1 - alpha(2, 2))
        assert record.oracle_raw == expected
        assert record.match_alternating and not record.match_literal

    def test_worked_tuple_even_order(self):
        t = IndexTuple.parse("1,9,2,5,5,9,6,8,4,5", n=10)
        from casimir_eigen.jetoracle import oracle_eigenvalue

        fast = elementary_eigenvalue(t)
        assert fast == oracle_eigenvalue(t)
        assert elementary_eigenvalue(t, sign=SignConvention.LITERAL) == fast  # even m

    def test_descending_pair_trivially_matches(self):
        report = verify_tuples(2, 2, Exhaustive())
        record = next(r for r in report.records if r.entries == (2, 1))
        assert record.is_zero and record.match_literal and record.match_alternating

    def test_exhaustive_consistency_small(self):
        # a single consistent convention across every nonzero tuple,
        # for every (m, n) with m <= 3, n <= 4
        for m in range(1, 4):
            for n in range(1, 5):
                report = verify_tuples(m, n, Exhaustive())
                assert report.total == n**m
                assert not report.mismatches
                expected = "both" if m % 2 == 0 else "alternating"
                if all(r.is_zero for r in report.records):
                    continue  # nothing nonzero to separate the conventions
                assert report.consistent_convention() == expected, (m, n)

    def test_random_selection_is_seeded_and_sorted(self):
        first = verify_tuples(3, 3, RandomSample(10, 99))
        second = verify_tuples(3, 3, RandomSample(10, 99))
        assert [r.entries for r in first.records] == [r.entries for r in second.records]
        entries = [r.entries for r in first.records]
        assert entries == sorted(entries)
        assert len(set(entries)) == 10

    def test_random_selection_draws_as_from_the_full_population(self):
        tuples, _ = _select_tuples(6, 7, RandomSample(100, 5))
        population = list(itertools.product(range(1, 8), repeat=6))
        assert list(tuples) == sorted(random.Random(5).sample(population, 100))

    @pytest.mark.parametrize(
        "m, n, selection",
        [(4, 5, Exhaustive()), (3, 4, Exhaustive()), (6, 7, RandomSample(120, 23))],
    )
    def test_pattern_oracle_relabelling_is_exact(self, m, n, selection):
        for record in verify_tuples(m, n, selection).records:
            t = IndexTuple(record.entries, n)
            assert record.oracle_raw.nvars == record.oracle_shifted.nvars == n
            assert record.oracle_raw == oracle_eigenvalue(t), record.entries
            assert record.oracle_shifted == oracle_eigenvalue(t, shifted=True), record.entries

    def test_oracle_runs_once_per_rank_pattern(self, monkeypatch):
        calls, norm_calls = [], []
        oracle, gram_schmidt_norms = jetoracle.oracle_eigenvalue, jetoracle.gram_schmidt_norms

        def counting(t, shifted=False):
            calls.append(t.entries)
            return oracle(t, shifted)

        def counting_norms(matrix):
            norm_calls.append(matrix.size)
            return gram_schmidt_norms(matrix)

        monkeypatch.setattr(jetoracle, "oracle_eigenvalue", counting)
        monkeypatch.setattr(jetoracle, "gram_schmidt_norms", counting_norms)
        report = verify_tuples(4, 5, Exhaustive())
        assert report.total == 625
        # surjections of 4 positions onto 1..ell for ell = 1..4: 1 + 14 + 36 + 24
        assert len(calls) == len(set(calls)) == 75
        # the 37 patterns of order 4 whose factor list ends in an AN tail need no Gram norms
        assert len(norm_calls) == 75 - 37
        assert not report.mismatches

    def test_broken_fast_path_is_reported(self, monkeypatch):
        sound = verify_tuples(3, 3, Exhaustive())
        monkeypatch.setattr(casimir, "elementary_eigenvalue", lambda t, shifted, sign, order=None: MPoly.zero(t.n))
        broken = verify_tuples(3, 3, Exhaustive())
        # zero verdicts come from the oracle alone; every nonzero tuple now fails
        assert broken.zero == sound.zero > 0
        assert broken.mismatches == [r.entries for r in sound.records if not r.is_zero]
        assert broken.consistent_convention() is None

    def test_random_count_covering_everything(self):
        report = verify_tuples(2, 2, RandomSample(100, 1))
        assert report.total == 4

    def test_random_needs_valid_count(self):
        with pytest.raises(ValueError):
            RandomSample(0, 7)

    def test_summary_counts_match_records(self):
        report = verify_tuples(2, 3, Exhaustive())
        assert report.total == len(report.records)
        assert report.zero == sum(1 for r in report.records if r.is_zero)
        assert report.match_alternating == sum(1 for r in report.records if r.match_alternating)
