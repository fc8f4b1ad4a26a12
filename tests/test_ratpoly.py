"""Unit and property tests for exact polynomial arithmetic and reductions."""

import itertools
import random
from fractions import Fraction as F

import pytest
from fractionsolve import fraction_solve

from casimir_eigen.casimir import CasimirRequest, casimir_eigenvalue_patterned
from casimir_eigen.ratpoly import (
    ClosedForm,
    InterpolationInconsistentError,
    MPoly,
    NotSymmetricError,
    PowerSumPoly,
    _partitions,
    _reduced_coeff,
    _solve_linear,
    alpha,
    eliminate_last_var,
    format_coeff_in_n,
    format_mpoly,
    interpolate_in_n,
    power_sum,
    to_power_sum,
)
from casimir_eigen.tuplegraph import SignConvention


def random_mpoly(rng, nvars, max_deg=3, max_terms=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[exps] = F(rng.randint(-9, 9), rng.randint(1, 9))
    return MPoly(nvars, terms)


def symmetrise(p):
    n = p.nvars
    out = MPoly.zero(n)
    for perm in itertools.permutations(range(n)):
        out = out + MPoly(n, {tuple(exps[i] for i in perm): c for exps, c in p.terms.items()})
    return out


def dense_to_power_sum(p, n):
    """Reference reduction: one row per monomial of every eliminated image."""
    if not p.terms:
        return PowerSumPoly.zero()
    degree = p.total_degree()
    basis = _partitions(degree, min_part=2)
    target = eliminate_last_var(p)
    images = []
    for lam in basis:
        image = MPoly.one(n)
        for k in lam:
            image = image * power_sum(k, n)
        images.append(eliminate_last_var(image))
    monomials = set(target.terms).union(*(img.terms for img in images))
    rows = [[img.terms.get(mono, F(0)) for img in images] for mono in monomials]
    rhs = [target.terms.get(mono, F(0)) for mono in monomials]
    solution = fraction_solve(rows, rhs)
    if solution is None:
        raise NotSymmetricError("polynomial is not symmetric modulo p1 = 0")
    return PowerSumPoly({lam: c for lam, c in zip(basis, solution) if c})


def outcome(reduce, p, n):
    try:
        return reduce(p, n)
    except NotSymmetricError:
        return NotSymmetricError


class TestArithmetic:
    def test_difference_of_squares(self):
        a1, a2 = alpha(1, 2), alpha(2, 2)
        assert (a1 + a2) * (a1 - a2) == a1**2 - a2**2

    def test_product_from_cycle_factors(self):
        # (-a1 + a2) * (-a5 + 1) expands to a1*a5 - a2*a5 - a1 + a2
        n = 5
        product = (-alpha(1, n) + alpha(2, n)) * (-alpha(5, n) + 1)
        expected = (
            alpha(1, n) * alpha(5, n)
            - alpha(2, n) * alpha(5, n)
            - alpha(1, n)
            + alpha(2, n)
        )
        assert product == expected
        assert str(product) == "a1*a5 - a2*a5 - a1 + a2"

    def test_mul_by_zero_annihilates(self):
        rng = random.Random(11)
        p = random_mpoly(rng, 3)
        assert p * MPoly.zero(3) == MPoly.zero(3)

    def test_nvars_mismatch_rejected(self):
        with pytest.raises(ValueError):
            alpha(1, 2) + alpha(1, 3)

    def test_ring_laws_on_random_triples(self):
        rng = random.Random(7)
        for _ in range(60):
            a = random_mpoly(rng, 3)
            b = random_mpoly(rng, 3)
            c = random_mpoly(rng, 3)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_pow_matches_repeated_mul(self):
        rng = random.Random(3)
        p = random_mpoly(rng, 2, max_deg=2, max_terms=3)
        assert p**0 == MPoly.one(2)
        assert p**3 == p * p * p


class TestEval:
    def test_exact_point(self):
        p = alpha(1, 2) ** 2 + alpha(2, 2) ** 2 - F(1, 2)
        assert p.eval_at([F(1, 2), F(-1, 2)]) == 0

    def test_constant(self):
        p = MPoly.const(4, F(7, 3))
        assert p.eval_at([1, 2, 3, 4]) == F(7, 3)

    def test_vanishing_factor(self):
        p = (-alpha(1, 5) + alpha(2, 5)) * (-alpha(5, 5) + 1)
        rng = random.Random(19)
        for _ in range(10):
            x = F(rng.randint(-5, 5), rng.randint(1, 5))
            a5 = F(rng.randint(-5, 5), rng.randint(1, 5))
            assert p.eval_at([x, x, 0, 0, a5]) == 0

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            alpha(1, 3).eval_at([1, 2])


class TestPowerSumReduction:
    def test_pairwise_products(self):
        # sum_{i<j} a_i a_j == -(1/2) p2 once p1 = 0 is imposed
        for n in (3, 4, 5):
            s = MPoly.zero(n)
            for i, j in itertools.combinations(range(1, n + 1), 2):
                s = s + alpha(i, n) * alpha(j, n)
            assert to_power_sum(s, n) == PowerSumPoly({(2,): F(-1, 2)})

    def test_p2_is_p2(self):
        assert to_power_sum(power_sum(2, 4), 4) == PowerSumPoly({(2,): 1})

    def test_p1_reduces_to_zero(self):
        assert to_power_sum(power_sum(1, 5), 5) == PowerSumPoly.zero()

    def test_asymmetric_input_rejected(self):
        with pytest.raises(NotSymmetricError):
            to_power_sum(alpha(1, 3), 3)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            to_power_sum(power_sum(2, 3), 4)

    def test_every_partition_recovered(self):
        # n >= weight makes the form unique, so each p_lambda must come back as itself,
        # including those with distinct parts such as p3*p2
        n = 5
        q = PowerSumPoly({lam: k + 1 for k, lam in enumerate([(5,), (4,), (3, 2), (3,), (2, 2), (2,), ()])})
        assert to_power_sum(q.expand(n), n) == q

    def test_round_trip_lands_in_p1_ideal(self):
        # expand(to_power_sum(p)) - p must vanish under a_n := -(a1+...+a_{n-1})
        rng = random.Random(23)
        for n in (3, 4):
            for _ in range(10):
                # Symmetrize so a representation exists.
                sym = symmetrise(random_mpoly(rng, n, max_deg=2, max_terms=3))
                q = to_power_sum(sym, n)
                diff = q.expand(n) - sym
                assert eliminate_last_var(diff) == MPoly.zero(n - 1)


class TestPartitionRows:
    """to_power_sum solves one row per partition; the dense solver is the reference."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_casimir_sums_match_the_dense_solver(self, m):
        for n, sign, shifted in itertools.product(range(1, 8), SignConvention, (True, False)):
            p = casimir_eigenvalue_patterned(CasimirRequest(m=m, n=n, shifted=shifted, sign=sign))
            assert outcome(to_power_sum, p, n) == outcome(dense_to_power_sum, p, n), (n, sign, shifted)

    def test_random_polynomials_match_the_dense_solver(self):
        rng = random.Random(31)
        outcomes = set()
        for i in range(150):
            n = rng.randint(1, 4)
            p = random_mpoly(rng, n, max_deg=2)
            if i % 3:
                p = symmetrise(p)
            if i % 3 == 2:  # symmetric only modulo p1
                p = p + power_sum(1, n) * random_mpoly(rng, n, max_deg=2, max_terms=3)
            expected = outcome(dense_to_power_sum, p, n)
            assert outcome(to_power_sum, p, n) == expected, (n, p)
            outcomes.add((i % 3, expected is NotSymmetricError))
        # left unsymmetrised, some reduce and some fail; symmetrised, all reduce
        assert outcomes == {(0, False), (0, True), (1, False), (2, False)}

    @pytest.mark.parametrize(
        "n, exponents",
        [
            (3, [(1, 2, 0)]),
            (4, [(0, 0, 2, 0)]),  # invariant under (1 2) only
            (4, [(1, 2, 0, 0), (0, 1, 2, 0), (2, 0, 1, 0)]),  # invariant under (1 2 3) only
        ],
    )
    def test_asymmetric_terms_off_the_partition_rows_rejected(self, n, exponents):
        # no exponent is a partition, so the partition rows alone stay consistent
        with pytest.raises(NotSymmetricError):
            to_power_sum(power_sum(2, n) + MPoly(n, dict.fromkeys(exponents, 1)), n)

    def test_column_entries_match_the_eliminated_power_sums(self):
        for nvars in range(1, 5):
            for mu in _partitions(6):
                image = MPoly.one(nvars + 1)
                for k in mu:
                    image = image * power_sum(k, nvars + 1)
                image = eliminate_last_var(image)
                for lam in _partitions(6, max_len=nvars):
                    padded = lam + (0,) * (nvars - len(lam))
                    assert _reduced_coeff(mu, lam) == image.terms.get(padded, 0), (nvars, mu, lam)

    def test_partition_generator(self):
        assert _partitions(4, min_part=2) == [(4,), (2, 2), (3,), (2,), ()]
        assert len(_partitions(4)) == 12
        assert _partitions(3, max_len=1) == [(3,), (2,), (1,), ()]
        assert _partitions(3, max_len=0) == [()]


class TestSolveLinear:
    """The integer solver against the Fraction elimination in ``fractionsolve``."""

    def test_random_systems_match_the_fraction_elimination(self):
        rng = random.Random(23)
        seen = set()
        for _ in range(400):
            n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 6)
            rank = rng.randint(0, min(n_rows, n_cols))
            basis = [[F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n_cols)] for _ in range(rank)]
            rows = []
            for _ in range(n_rows):  # a random combination of the basis, the zero row when all weights are 0
                weights = [rng.choice([0, 0, 1, -2, F(1, 3)]) for _ in basis]
                rows.append([sum((w * b[j] for w, b in zip(weights, basis)), F(0)) for j in range(n_cols)])
            if rng.random() < 0.6:  # consistent: the image of a random vector
                x = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n_cols)]
                rhs = [sum((a * b for a, b in zip(row, x)), F(0)) for row in rows]
            else:
                rhs = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n_rows)]
            expected = fraction_solve(rows, rhs)
            assert _solve_linear(rows, rhs) == expected, (rows, rhs)
            if expected is None:
                seen.add("inconsistent")
            else:
                assert all(sum((a * b for a, b in zip(row, expected)), F(0)) == c for row, c in zip(rows, rhs))
                seen.add("full rank" if rank == n_cols else "rank-deficient")
            if not any(map(any, rows)):
                seen.add("all-zero matrix")
            elif not all(map(any, rows)):
                seen.add("zero rows")
        assert seen == {"full rank", "rank-deficient", "inconsistent", "all-zero matrix", "zero rows"}

    def test_free_coefficients_are_zero(self):
        # x + y = 2 with y free, and a zero row: the pivot is x, so y = 0
        assert _solve_linear([[1, 1], [0, 0]], [F(2), F(0)]) == [F(2), F(0)]
        assert _solve_linear([[0, F(1, 2)], [0, 1]], [F(1), F(2)]) == [F(0), F(2)]

    def test_degenerate_shapes(self):
        assert _solve_linear([], []) == []
        assert _solve_linear([[0, 0]], [F(0)]) == [F(0), F(0)]
        assert _solve_linear([[0, 0]], [F(1, 3)]) is None
        assert _solve_linear([[2, 4], [1, 2]], [F(2), F(3, 2)]) is None


class TestInterpolation:
    def test_cubic_constant_term(self):
        # samples of -(n^3 - n)/12 alongside a constant p2 coefficient
        samples = [
            (2, PowerSumPoly({(2,): 1, (): F(-1, 2)})),
            (3, PowerSumPoly({(2,): 1, (): -2})),
            (4, PowerSumPoly({(2,): 1, (): -5})),
            (5, PowerSumPoly({(2,): 1, (): -10})),
            (6, PowerSumPoly({(2,): 1, (): F(-35, 2)})),
        ]
        cf = interpolate_in_n(samples, 3)
        assert cf == ClosedForm({(2,): (F(1),), (): (0, F(1, 12), 0, F(-1, 12))})
        for n, q in samples:
            assert cf.at(n) == q
        assert str(cf) == "p2 - (n^3 - n)/12"

    def test_constant_samples(self):
        samples = [(n, PowerSumPoly({(): F(5, 7)})) for n in range(2, 7)]
        cf = interpolate_in_n(samples, 3)
        assert cf == ClosedForm({(): (F(5, 7),)})

    def test_underdetermined_rejected(self):
        samples = [(2, PowerSumPoly({(): 1})), (3, PowerSumPoly({(): 2}))]
        with pytest.raises(ValueError):
            interpolate_in_n(samples, 3)

    def test_residual_mismatch_detected(self):
        # n^4 cannot fit a cubic: the 6th sample betrays the first five.
        samples = [(n, PowerSumPoly({(): F(n**4)})) for n in range(1, 7)]
        with pytest.raises(InterpolationInconsistentError):
            interpolate_in_n(samples, 3)

    def test_duplicate_ranks_rejected(self):
        samples = [(2, PowerSumPoly({(): 1}))] * 4
        with pytest.raises(ValueError):
            interpolate_in_n(samples, 3)

    def test_random_closed_forms_recovered_and_perturbations_rejected(self):
        rng = random.Random(8)
        partitions = [(), (2,), (3,), (2, 2), (4, 2), (3, 3, 2)]

        def random_coeff_in_n(degree_bound):
            return [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, degree_bound + 1))]

        for degree_bound in range(7):
            for extra in range(4):
                for _ in range(3):
                    support = rng.sample(partitions, rng.randint(1, len(partitions)))
                    expected = ClosedForm({lam: random_coeff_in_n(degree_bound) for lam in support})
                    ranks = sorted(rng.sample(range(2, 40), degree_bound + 1 + extra))
                    samples = [(n, expected.at(n)) for n in ranks]
                    assert interpolate_in_n(samples, degree_bound) == expected
                    if not extra:
                        continue  # d + 1 samples fit any values
                    for pos in (0, len(samples) // 2, len(samples) - 1):
                        n, q = samples[pos]
                        lam = rng.choice(partitions)
                        bump = F(rng.choice([-1, 1]), rng.randint(1, 5))
                        bumped = PowerSumPoly({**q.coeffs, lam: q.coeffs.get(lam, 0) + bump})
                        with pytest.raises(InterpolationInconsistentError):
                            interpolate_in_n(samples[:pos] + [(n, bumped)] + samples[pos + 1 :], degree_bound)


class TestFormatting:
    def test_zero(self):
        assert str(MPoly.zero(3)) == "0"
        assert str(PowerSumPoly.zero()) == "0"
        assert str(ClosedForm()) == "0"

    def test_mpoly_canonical_order(self):
        p = alpha(1, 2) ** 2 + alpha(2, 2) ** 2 - F(1, 2)
        assert str(p) == "a1^2 + a2^2 - 1/2"

    def test_custom_names(self):
        p = alpha(1, 2) * alpha(2, 2) * 3
        assert format_mpoly(p, names=["x", "y"]) == "3*x*y"

    def test_coeff_in_n(self):
        assert format_coeff_in_n([F(0), F(1, 2)]) == "n/2"
        assert format_coeff_in_n([F(0), F(-1, 24), 0, 0, F(1, 24)]) == "(n^4 - n)/24"
        assert format_coeff_in_n([F(3, 2)]) == "3/2"

    @pytest.mark.parametrize(
        "coeffs, text",
        [
            ({(7,): [3, 0, 5]}, "(5*n^2 + 3)*p7"),
            ({(7,): [-3, 0, -5], (): [1]}, "-(5*n^2 + 3)*p7 + 1"),
            ({(7,): [3, 1]}, "(n + 3)*p7"),
            ({(7, 2): [1, 3]}, "(3*n + 1)*p7*p2"),
            ({(7,): [0, 3]}, "3*n*p7"),
        ],
    )
    def test_closed_form_groups_integer_coefficients(self, coeffs, text):
        # A coefficient in n with several terms and no denominator is
        # parenthesised before it multiplies a power-sum monomial.
        assert str(ClosedForm(coeffs)) == text

    def test_power_sum_poly_str(self):
        q = PowerSumPoly({(3,): 1, (2,): F(-3, 2), (): 3})
        assert str(q) == "p3 - 3/2*p2 + 3"


class TestCombinationKeys:
    def test_keys_naming_one_partition_are_summed(self):
        assert PowerSumPoly({(2, 3): 1, (3, 2): 2}) == PowerSumPoly({(3, 2): 3})
        assert ClosedForm({(2, 3): [1], (3, 2): [2]}) == ClosedForm({(3, 2): [3]})
        assert str(ClosedForm({(2, 3): [1], (3, 2): [2]})) == str(PowerSumPoly({(2, 3): 1, (3, 2): 2})) == "3*p3*p2"

    def test_summed_keys_that_cancel_are_dropped(self):
        assert not PowerSumPoly({(2, 3): 1, (3, 2): -1})
        assert not ClosedForm({(2, 3): [1, 2], (3, 2): [-1, -2]})
        assert ClosedForm({(2, 3): [1, 2], (3, 2): [0, -2]}).coeffs == {(3, 2): (F(1),)}
