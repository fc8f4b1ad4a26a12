"""Unit and property tests for exact polynomial arithmetic and reductions."""

import itertools
import random
from fractions import Fraction as F

import pytest
from fractionsolve import fraction_solve, matrix_rank
from references import closed_form_at, eval_at, expand, power, power_sum

from casimir_eigen import ratpoly
from casimir_eigen.casimir import casimir_eigenvalue_patterned
from casimir_eigen.ratpoly import (
    ClosedForm,
    InterpolationInconsistentError,
    MPoly,
    NotSymmetricError,
    PowerSumPoly,
    _partitions,
    _power_sum_columns,
    _solve_linear,
    alpha,
    eliminate_last_var,
    format_coeff_in_n,
    format_mpoly,
    interpolate_in_n,
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
    out = MPoly(n)
    for perm in itertools.permutations(range(n)):
        out = out + MPoly(n, {tuple(exps[i] for i in perm): c for exps, c in p.terms.items()})
    return out


def dense_to_power_sum(p):
    """Reference reduction: one row per monomial of every eliminated image, over p_2..p_n."""
    n = p.nvars
    if not p.terms:
        return PowerSumPoly()
    degree = p.total_degree()
    basis = [lam for lam in _partitions(degree, min_part=2) if all(k <= n for k in lam)]
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


def outcome(reduce, p):
    try:
        return reduce(p)
    except NotSymmetricError:
        return NotSymmetricError


class TestArithmetic:
    def test_difference_of_squares(self):
        a1, a2 = alpha(1, 2), alpha(2, 2)
        assert (a1 + a2) * (a1 - a2) == a1 * a1 - a2 * a2

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
        assert p * MPoly(3) == MPoly(3)

    def test_nvars_mismatch_rejected(self):
        with pytest.raises(ValueError):
            alpha(1, 2) + alpha(1, 3)

    def test_polynomials_in_different_rings_are_unequal(self):
        assert MPoly(2) != MPoly(3)
        assert MPoly(2) not in [MPoly(3)]
        assert MPoly.const(2, 5) != MPoly.const(3, 5)
        assert alpha(1, 2) != alpha(1, 3)

    def test_equal_numerators_over_other_denominators_are_unequal(self):
        p = alpha(1, 2) + alpha(2, 2)
        assert p * F(1, 2) != p and p * F(1, 2) != p * F(1, 3)
        assert (p * F(1, 2)).nums == p.nums

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
        assert power(p, 0) == MPoly.one(2)
        assert power(p, 3) == p * p * p
        assert power(p, 6) == p * p * p * p * p * p


class TestHash:
    def test_equal_polynomials_hash_equal(self):
        rng = random.Random(29)
        a1, a2 = alpha(1, 2), alpha(2, 2)
        assert hash((a1 + a2) * (a1 - a2)) == hash(a1 * a1 - a2 * a2)
        for _ in range(40):
            p, q = random_mpoly(rng, 3), random_mpoly(rng, 3)
            assert (p + q) * (p - q) == p * p - q * q
            assert hash((p + q) * (p - q)) == hash(p * p - q * q)
            copy = MPoly(3, p.terms)
            assert copy is not p and hash(copy) == hash(p)

    @pytest.mark.parametrize("c", [0, 1, -7, F(3, 4), F(-5, 2), F(6, 3)])
    def test_constant_hashes_like_its_value(self, c):
        for nvars in (0, 1, 3):
            p = MPoly.const(nvars, c)
            assert p == c and hash(p) == hash(c)

    def test_polynomials_work_as_dict_keys(self):
        x = alpha(1, 2)
        table = {x + 1: "x+1", MPoly.const(2, F(1, 2)): "half", MPoly(2): "zero"}
        assert table[alpha(1, 2) + MPoly.one(2)] == "x+1"
        assert table[MPoly(2, {(0, 0): F(2, 4)})] == "half"
        assert table[x - x] == "zero"
        assert x not in table and alpha(1, 3) + 1 not in table
        assert len({x * 2, 2 * x, x + x}) == 1


class TestConstructor:
    @pytest.mark.parametrize(
        "nvars, terms",
        [
            (1, {(1,): 0.1}),  # a float coefficient would be kept as its binary fraction
            (1, {(1,): "1/2"}),
            (2, {(1.5, 0): 1}),
            (1, {(2.0,): 1}),  # integral, but a float would break packed exponents
            (1, {(-1,): 1}),
        ],
    )
    def test_inexact_or_negative_input_rejected(self, nvars, terms):
        with pytest.raises(ValueError):
            MPoly(nvars, terms)


class TestEval:
    def test_exact_point(self):
        p = alpha(1, 2) * alpha(1, 2) + alpha(2, 2) * alpha(2, 2) - F(1, 2)
        assert eval_at(p, [F(1, 2), F(-1, 2)]) == 0

    def test_constant(self):
        p = MPoly.const(4, F(7, 3))
        assert eval_at(p, [1, 2, 3, 4]) == F(7, 3)

    def test_vanishing_factor(self):
        p = (-alpha(1, 5) + alpha(2, 5)) * (-alpha(5, 5) + 1)
        rng = random.Random(19)
        for _ in range(10):
            x = F(rng.randint(-5, 5), rng.randint(1, 5))
            a5 = F(rng.randint(-5, 5), rng.randint(1, 5))
            assert eval_at(p, [x, x, 0, 0, a5]) == 0

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            eval_at(alpha(1, 3), [1, 2])


class TestPowerSumReduction:
    def test_pairwise_products(self):
        # sum_{i<j} a_i a_j == -(1/2) p2 once p1 = 0 is imposed
        for n in (3, 4, 5):
            s = MPoly(n)
            for i, j in itertools.combinations(range(1, n + 1), 2):
                s = s + alpha(i, n) * alpha(j, n)
            assert to_power_sum(s) == PowerSumPoly({(2,): F(-1, 2)})

    def test_p2_is_p2(self):
        assert to_power_sum(power_sum(2, 4)) == PowerSumPoly({(2,): 1})

    def test_p1_reduces_to_zero(self):
        assert to_power_sum(power_sum(1, 5)) == PowerSumPoly()

    def test_asymmetric_input_rejected(self):
        with pytest.raises(NotSymmetricError):
            to_power_sum(alpha(1, 3))

    def test_every_partition_recovered(self):
        # the form in p2..pn is unique, so each p_lambda with parts <= n must come back as itself,
        # including those with distinct parts such as p3*p2
        n = 5
        q = PowerSumPoly({lam: k + 1 for k, lam in enumerate([(5,), (4,), (3, 2), (3,), (2, 2), (2,), ()])})
        assert to_power_sum(expand(q, n)) == q

    def test_round_trip_lands_in_p1_ideal(self):
        # expand(to_power_sum(p)) - p must vanish under a_n := -(a1+...+a_{n-1})
        rng = random.Random(23)
        for n in (3, 4):
            for _ in range(10):
                # Symmetrize so a representation exists.
                sym = symmetrise(random_mpoly(rng, n, max_deg=2, max_terms=3))
                q = to_power_sum(sym)
                diff = expand(q, n) - sym
                assert eliminate_last_var(diff) == MPoly(n - 1)

    @pytest.mark.parametrize("sign", SignConvention)
    def test_casimir_sums_below_the_order_have_one_form(self, sign):
        # p2..pn are free generators on the hyperplane, so the form stays in them when n < m
        for m in range(1, 7):
            for n in range(1, m):
                p = casimir_eigenvalue_patterned(m, n, sign=sign)
                q = to_power_sum(p)
                assert all(k <= n for lam in q.coeffs for k in lam), (m, n, q)
                assert eliminate_last_var(expand(q, n) - p) == MPoly(n - 1), (m, n)


class TestPartitionRows:
    """to_power_sum solves one row per partition; the dense solver is the reference."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_casimir_sums_match_the_dense_solver(self, m):
        for n, sign, shifted in itertools.product(range(1, 8), SignConvention, (True, False)):
            p = casimir_eigenvalue_patterned(m, n, shifted, sign)
            assert outcome(to_power_sum, p) == outcome(dense_to_power_sum, p), (n, sign, shifted)

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
            expected = outcome(dense_to_power_sum, p)
            assert outcome(to_power_sum, p) == expected, (n, p)
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
            to_power_sum(power_sum(2, n) + MPoly(n, dict.fromkeys(exponents, 1)))

    def test_column_entries_match_the_eliminated_power_sums(self):
        """The cached columns at each rank match images built in N + 1 variables for each N."""
        for degree in range(7):
            images = {}
            for nvars in range(1, degree + 2):
                for mu in _partitions(degree, min_part=2):
                    image = MPoly.one(nvars + 1)
                    for k in mu:
                        image = image * power_sum(k, nvars + 1)
                    images[nvars, mu] = eliminate_last_var(image)
            for rank in range(degree + 1):
                mus, lams, rows = _power_sum_columns(degree, rank)
                # the basis: the partitions with parts in 2..rank + 1
                basis = [mu for mu in _partitions(degree, min_part=2) if all(k <= rank + 1 for k in mu)]
                assert list(mus) == basis
                assert list(lams) == _partitions(degree, max_len=rank)
                assert [len(row) for row in rows] == [len(mus)] * len(lams)
                for j, mu in enumerate(mus):
                    column = dict(zip(lams, (row[j] for row in rows)))
                    for nvars in range(1, degree + 2):
                        for lam in _partitions(degree, max_len=min(nvars, rank)):
                            padded = lam + (0,) * (nvars - len(lam))
                            assert column[lam] == images[nvars, mu].terms.get(padded, 0), (degree, rank, nvars, mu, lam)

    def test_columns_are_built_at_the_rank_not_the_degree(self, monkeypatch):
        """A degree-10 target at n = 2 expands each p2^k, its only basis elements, in two variables."""
        seen = []

        def recording(p):
            seen.append(p.nvars)
            return eliminate_last_var(p)

        _power_sum_columns.cache_clear()
        monkeypatch.setattr(ratpoly, "eliminate_last_var", recording)
        try:
            # a1^10 + a2^10 = 2 * a1^10 = (2 * a1^2)^5 / 16 on a1 + a2 = 0
            assert to_power_sum(power_sum(10, 2)) == PowerSumPoly({(2, 2, 2, 2, 2): F(1, 16)})
        finally:
            _power_sum_columns.cache_clear()
        # the target, then p2^0 .. p2^5
        assert len(seen) == 1 + 6 and set(seen) == {2}

    @pytest.mark.parametrize("n", range(1, 6))
    def test_zero_polynomial_solves_its_degree_zero_system(self, n):
        assert to_power_sum(MPoly(n)) == PowerSumPoly()

    def test_partition_generator(self):
        assert _partitions(4, min_part=2) == [(4,), (2, 2), (3,), (2,), ()]
        assert len(_partitions(4)) == 12
        assert _partitions(3, max_len=1) == [(3,), (2,), (1,), ()]
        assert _partitions(3, max_len=0) == [()]
        assert _partitions(6, min_part=2, max_part=3) == [(3, 3), (2, 2, 2), (3, 2), (2, 2), (3,), (2,), ()]
        assert _partitions(900, min_part=2, max_part=1) == [()]
        for weight, top in itertools.product(range(8), range(1, 9)):
            bounded = [lam for lam in _partitions(weight, min_part=2) if all(k <= top for k in lam)]
            assert _partitions(weight, min_part=2, max_part=top) == bounded


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
            if matrix_rank(rows) < n_cols:  # some column has no pivot
                with pytest.raises(RuntimeError, match="no pivot"):
                    _solve_linear(rows, rhs)
                seen.add("rank-deficient" if any(map(any, rows)) else "all-zero matrix")
                continue
            expected = fraction_solve(rows, rhs)
            assert _solve_linear(rows, rhs) == expected, (rows, rhs)
            if expected is None:
                seen.add("inconsistent")
            else:
                assert all(sum((a * b for a, b in zip(row, expected)), F(0)) == c for row, c in zip(rows, rhs))
                seen.add("full rank")
            if not all(map(any, rows)):
                seen.add("zero rows")
        assert seen == {"full rank", "rank-deficient", "inconsistent", "all-zero matrix", "zero rows"}

    def test_rank_deficient_systems_raise(self):
        # x + y = 2 and a zero row; y alone in both rows: a column has no pivot, whatever the right-hand side
        for rows, rhs in [([[1, 1], [0, 0]], [F(2), F(0)]), ([[0, F(1, 2)], [0, 1]], [F(1), F(2)])]:
            with pytest.raises(RuntimeError, match="no pivot"):
                _solve_linear(rows, rhs)

    def test_degenerate_shapes(self):
        assert _solve_linear([], []) == []
        for rows, rhs in [([[0, 0]], [F(0)]), ([[0, 0]], [F(1, 3)]), ([[2, 4], [1, 2]], [F(2), F(3, 2)])]:
            with pytest.raises(RuntimeError, match="no pivot"):
                _solve_linear(rows, rhs)
        assert _solve_linear([[0], [3], [0]], [F(0), F(1), F(0)]) == [F(1, 3)]
        assert _solve_linear([[1], [2]], [F(1), F(3)]) is None


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
            assert closed_form_at(cf, n) == q
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
                    samples = [(n, closed_form_at(expected, n)) for n in ranks]
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
        assert str(MPoly(3)) == "0"
        assert str(PowerSumPoly()) == "0"
        assert str(ClosedForm()) == "0"

    def test_mpoly_canonical_order(self):
        p = alpha(1, 2) * alpha(1, 2) + alpha(2, 2) * alpha(2, 2) - F(1, 2)
        assert str(p) == "a1^2 + a2^2 - 1/2"

    def test_custom_names(self):
        p = alpha(1, 2) * alpha(2, 2) * 3
        assert format_mpoly(p, ["x", "y"].__getitem__) == "3*x*y"

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
