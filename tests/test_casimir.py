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
    _equals_signed,
    _select_tuples,
    casimir_eigenvalue_patterned,
    closed_form,
    verify_tuples,
)
from casimir_eigen.ratpoly import ClosedForm, MPoly, PowerSumPoly, alpha, to_power_sum
from casimir_eigen.tuplegraph import IndexTuple, SignConvention, elementary_eigenvalue, relative_order, specialise
from references import casimir_eigenvalue, closed_form_at, eval_at, expand, oracle_at

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
            assert to_power_sum(casimir_eigenvalue(request)) == PowerSumPoly()

    def test_order_two_rank_three(self):
        value = to_power_sum(casimir_eigenvalue(CasimirRequest(m=2, n=3)))
        assert value == PowerSumPoly({(2,): 1, (): -2})

    def test_order_three_rank_three(self):
        value = to_power_sum(casimir_eigenvalue(CasimirRequest(m=3, n=3)))
        assert value == PowerSumPoly({(3,): 1, (2,): F(-3, 2), (): 3})

    def test_order_two_rank_two(self):
        value = to_power_sum(casimir_eigenvalue(CasimirRequest(m=2, n=2)))
        assert value == PowerSumPoly({(2,): 1, (): F(-1, 2)})
        # and in the monomial basis: a1^2 + a2^2 - 1/2
        raw = casimir_eigenvalue(CasimirRequest(m=2, n=2))
        assert raw == alpha(1, 2) * alpha(1, 2) + alpha(2, 2) * alpha(2, 2) - F(1, 2)

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
                reference = eval_at(value, point)
                for _ in range(5):
                    perm = list(point)
                    rng.shuffle(perm)
                    assert eval_at(value, perm) == reference


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
                direct = to_power_sum(casimir_eigenvalue_patterned(CasimirRequest(m=m, n=n)))
                assert closed_form_at(form, n) == direct

    def test_order_five(self):
        form = closed_form(5)
        assert form == CLOSED_FORM_5
        assert str(form) == CLOSED_FORM_5_TEXT
        assert closed_form_at(form, 5) == to_power_sum(casimir_eigenvalue(CasimirRequest(5, 5)))

    def test_order_six(self):
        assert str(closed_form(6)) == CLOSED_FORM_6_TEXT

    @pytest.mark.slow
    def test_order_seven(self):
        assert str(closed_form(7)) == CLOSED_FORM_7_TEXT

    @staticmethod
    def order_two_at(n, a):
        """The order-2 eigenvalue at the parameters a, from the closed form and from the sum at rank n."""
        return eval_at(expand(closed_form_at(closed_form(2), n), n), a), eval_at(casimir_eigenvalue_patterned(CasimirRequest(2, n)), a)

    def test_order_two_at_rank_two_is_minus_twice_s_one_minus_s(self):
        # a = (nu, -nu) and s = 1/2 + nu: the value is -2 * lambda with lambda = s(1 - s)
        nu = F(1, 3)
        s = F(1, 2) + nu
        assert self.order_two_at(2, (nu, -nu)) == (-2 * s * (1 - s),) * 2 == (F(-5, 18),) * 2

    def test_order_two_at_rank_three_and_zero_parameters_is_minus_two(self):
        # lambda = (n^3 - n)/24 - p2/2 is 1 at n = 3 and a = 0
        assert self.order_two_at(3, (0, 0, 0)) == (-2, -2)

    def test_rendering(self):
        assert str(closed_form(2)) == "p2 - (n^3 - n)/12"
        assert str(closed_form(3)) == "p3 - n/2*p2 + (n^4 - n^2)/24"
        assert str(closed_form(4)) == "p4 - n*p3 + 1/2*p2 - (n^5 - n)/80"


def test_signed_comparison_matches_the_product():
    rng = random.Random(41)

    def poly(nvars):
        exps = [tuple(rng.randint(0, 2) for _ in range(nvars)) for _ in range(3)]
        return MPoly(nvars, {e: F(rng.randint(-6, 6), rng.randint(1, 4)) for e in exps})

    for _ in range(300):
        nvars = rng.randint(1, 3)
        p = poly(nvars)
        for q in (p, -p, 2 * p, poly(nvars), -p + MPoly.one(nvars), MPoly(nvars), -poly(nvars + 1)):
            for flip in (1, -1):
                assert _equals_signed(p, q, flip) == (flip * p == q), (p, q, flip)


def verify_one(monkeypatch, entries, n):
    """verify_tuples with the selection narrowed to the single tuple ``entries``."""
    monkeypatch.setattr(casimir, "_select_tuples", lambda m, n, selection: ([entries], "one tuple"))
    return verify_tuples(len(entries), n, Exhaustive())


def verify_walk(monkeypatch, m, n, selection):
    """verify_tuples(m, n, selection) and the tuples it walked, in order."""
    walked = []

    def recording(t):
        walked.append(t.entries)
        return relative_order(t)

    monkeypatch.setattr(casimir, "relative_order", recording)
    return verify_tuples(m, n, selection), walked


def oracle_nonzero(m, n):
    """The tuples of {1..n}^m whose oracle value is nonzero in some mode, in grid order."""
    return tuple(
        entries
        for entries in itertools.product(range(1, n + 1), repeat=m)
        if any(oracle_at(IndexTuple(entries, n), shifted) for shifted in (False, True))
    )


def reference_report(m, n):
    """The exhaustive report, tallied here from the oracle and both signed fast paths, called directly."""
    zero = literal = alternating = 0
    literal_everywhere = alternating_everywhere = True
    mismatches = []
    modes = (False, True)
    grid = list(itertools.product(range(1, n + 1), repeat=m))
    for entries in grid:
        t = IndexTuple(entries, n)
        oracle = [oracle_at(t, shifted) for shifted in modes]
        lit = [elementary_eigenvalue(t, shifted, SignConvention.LITERAL) for shifted in modes] == oracle
        alt = [elementary_eigenvalue(t, shifted, SignConvention.ALTERNATING) for shifted in modes] == oracle
        literal += lit
        alternating += alt
        if any(oracle):
            literal_everywhere = literal_everywhere and lit
            alternating_everywhere = alternating_everywhere and alt
        else:
            zero += 1
        if not alt:
            mismatches.append(entries)
    if literal_everywhere and alternating_everywhere:
        convention = "both"
    else:
        convention = "alternating" if alternating_everywhere else "literal" if literal_everywhere else None
    return (m, n, "exhaustive", len(grid), zero, literal, alternating, convention, tuple(mismatches))


class TestVerify:
    def test_loop_after_edge_tuple(self, monkeypatch):
        t = IndexTuple((1, 2, 2), 2)
        expected = (alpha(1, 2) - alpha(2, 2)) * (1 - alpha(2, 2))
        assert oracle_at(t) == elementary_eigenvalue(t) == expected
        report = verify_one(monkeypatch, t.entries, t.n)
        # one tuple, nonzero, matching under the alternating convention only
        assert report == (3, 2, "one tuple", 1, 0, 0, 1, "alternating", ())

    def test_worked_tuple_even_order(self):
        t = IndexTuple.parse("1,9,2,5,5,9,6,8,4,5", n=10)
        fast = elementary_eigenvalue(t)
        assert fast == oracle_at(t)
        assert elementary_eigenvalue(t, sign=SignConvention.LITERAL) == fast  # even m

    def test_descending_pair_trivially_matches(self, monkeypatch):
        report = verify_one(monkeypatch, (2, 1), 2)
        # one tuple, zero, matching under both conventions
        assert report == (2, 2, "one tuple", 1, 1, 1, 1, "both", ())

    def test_zero_patterns_take_no_ring_map(self, monkeypatch):
        # the oracle's side specialises each nonzero tuple once per mode, and no zero one
        calls = []

        def counting(*args):
            calls.append(args)
            return specialise(*args)

        counting.cache_clear = specialise.cache_clear
        monkeypatch.setattr(casimir, "specialise", counting)
        report = verify_tuples(3, 3, Exhaustive())
        assert (report.total, report.zero, report.mismatches) == (27, 13, ())
        assert len(calls) == 2 * (27 - 13)

    def test_exhaustive_consistency_small(self):
        # a single consistent convention across every nonzero tuple,
        # for every (m, n) with m <= 3, n <= 4
        for m in range(1, 4):
            for n in range(1, 5):
                report = verify_tuples(m, n, Exhaustive())
                assert report.total == n**m
                assert not report.mismatches
                expected = "both" if m % 2 == 0 else "alternating"
                if report.zero == report.total:
                    continue  # nothing nonzero to separate the conventions
                assert report.convention == expected, (m, n)

    def test_random_selection_is_seeded_and_sorted(self, monkeypatch):
        first, entries = verify_walk(monkeypatch, 3, 3, RandomSample(10, 99))
        second, again = verify_walk(monkeypatch, 3, 3, RandomSample(10, 99))
        assert first == second and entries == again
        assert entries == sorted(entries)
        assert len(set(entries)) == first.total == 10

    def test_random_selection_draws_as_from_the_full_population(self):
        tuples, _ = _select_tuples(6, 7, RandomSample(100, 5))
        population = list(itertools.product(range(1, 8), repeat=6))
        assert list(tuples) == sorted(random.Random(5).sample(population, 100))

    @pytest.mark.parametrize(
        "m, n, selection",
        [(4, 5, Exhaustive()), (3, 4, Exhaustive()), (6, 7, RandomSample(120, 23))],
    )
    def test_pattern_oracle_relabelling_is_exact(self, m, n, selection, monkeypatch):
        # with the oracle itself, run on each tuple, as the fast path, every tuple matches
        # exactly when the relabelled pattern oracle is the tuple's oracle in both modes
        def oracle_as_fast_path(t, shifted, sign, order=None):
            return oracle_at(t, shifted)

        monkeypatch.setattr(casimir, "elementary_eigenvalue", oracle_as_fast_path)
        report = verify_tuples(m, n, selection)
        assert report.mismatches == () and report.match_alternating == report.total > 0

    def test_oracle_runs_once_per_rank_pattern(self, monkeypatch):
        calls, norm_calls = [], []
        oracle, gram_schmidt_norms = jetoracle.oracle_eigenvalue, jetoracle.gram_schmidt_norms

        def counting(rho):
            calls.append(rho)
            return oracle(rho)

        def counting_norms(matrix):
            norm_calls.append(matrix.size)
            return gram_schmidt_norms(matrix)

        monkeypatch.setattr(jetoracle, "oracle_eigenvalue", counting)
        monkeypatch.setattr(jetoracle, "gram_schmidt_norms", counting_norms)
        report = verify_tuples(4, 5, Exhaustive())
        assert report.total == 625
        # surjections of 4 positions onto 1..ell for ell = 1..4: 1 + 14 + 36 + 24
        assert len(calls) == len(set(calls)) == 75
        # the 49 zero patterns of order 4 each have a factor that moves into N and need no
        # Gram norms, so only the 26 nonzero ones, those starting at rank 1, take them
        assert len(norm_calls) == 26
        assert not report.mismatches

    def test_broken_fast_path_is_reported(self, monkeypatch):
        sound = verify_tuples(3, 3, Exhaustive())
        monkeypatch.setattr(casimir, "elementary_eigenvalue", lambda t, shifted, sign, order=None: MPoly(t.n))
        broken = verify_tuples(3, 3, Exhaustive())
        # zero verdicts come from the oracle alone; every nonzero tuple now fails
        assert broken.zero == sound.zero > 0
        assert broken.mismatches == oracle_nonzero(3, 3)
        assert broken.convention is None

    @pytest.mark.parametrize("m, n", [(3, 3), (4, 3)])
    def test_fast_path_wrong_only_when_shifted_is_reported(self, m, n, monkeypatch):
        sound = verify_tuples(m, n, Exhaustive())

        def shifted_wrong(t, shifted, sign, order=None):
            value = elementary_eigenvalue(t, shifted, sign, order)
            return 2 * value if shifted else value

        monkeypatch.setattr(casimir, "elementary_eigenvalue", shifted_wrong)
        broken = verify_tuples(m, n, Exhaustive())
        nonzero = oracle_nonzero(m, n)
        assert broken.zero == sound.zero == n**m - len(nonzero) and nonzero
        assert broken.mismatches == nonzero
        # a zero tuple matches under both conventions, a nonzero one under neither
        assert broken.match_literal == broken.match_alternating == sound.zero
        assert broken.convention is None

    def test_fast_path_specialisations_are_memo_hits(self):
        report = verify_tuples(4, 5, Exhaustive())
        nonzero = sum(1 for e in itertools.product(range(1, 6), repeat=4) if min(e) == e[0])
        assert nonzero == report.total - report.zero
        # the oracle's two specialisations of a tuple come first; the fast path's equal ones hit
        assert specialise.cache_info().hits >= 2 * nonzero

    def test_random_count_covering_everything(self):
        report = verify_tuples(2, 2, RandomSample(100, 1))
        assert report.total == 4

    def test_random_needs_valid_count(self):
        with pytest.raises(ValueError):
            RandomSample(0, 7)

    def test_summary_counts_match_records(self):
        for m, n in [(2, 3), (3, 3)]:
            assert verify_tuples(m, n, Exhaustive()) == reference_report(m, n), (m, n)
