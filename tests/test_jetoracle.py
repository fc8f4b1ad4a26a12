"""Tests for the jet kernels and the Iwasawa/Gram-Schmidt oracle.

``Jet`` here is the reference truncated algebra from ``references``; the
package's kernels, ``jetoracle.Jet``, are checked against it, and the
oracle's pivots are compared through their ``.coeffs``.
"""

import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction as F

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property tests below are then not collected
    st = None

from casimir_eigen import jetoracle
from casimir_eigen.jetoracle import (
    JetMatrix,
    _add_product,
    build_inverse_matrix,
    eigenvalue_from_norms,
    gram_schmidt_norms,
    oracle_eigenvalue,
)
from casimir_eigen.ratpoly import MPoly, alpha
from casimir_eigen.tuplegraph import IndexTuple, relative_order
from pathcheck import path_coefficient_check
from references import Jet, from_numerators, full_product_top, matrix_entries, oracle_at


def random_jet(rng, m, unit=False, max_terms=4):
    count = rng.randint(0, min(max_terms, 1 << m))
    coeffs = {mask: rng.randint(-4, 4) for mask in rng.sample(range(1 << m), count)}
    if unit:
        coeffs[0] = 1
    return Jet(m, coeffs)


def kernel(x):
    """The package's jet with the coefficients of the reference jet x."""
    return jetoracle.Jet(x.m, x.coeffs)


def kernel_power(x, beta):
    """The package's power of x, read back as a reference jet of polynomials over its denominator."""
    den, numerators = kernel(x).power(beta)
    return from_numerators(x.m, beta.nvars, den, numerators)


def product_coefficient_brute(jets, subset):
    """Lemma-style oracle: sum over ordered set partitions of the subset."""
    if len(jets) == 1:
        return jets[0].coefficient(subset)
    total = 0
    rest = jets[1:]
    elements = list(subset)
    for k in range(len(elements) + 1):
        for head in itertools.combinations(elements, k):
            tail = tuple(e for e in elements if e not in head)
            total += jets[0].coefficient(head) * product_coefficient_brute(rest, tail)
    return total


class TestJetArithmetic:
    def test_disjoint_supports(self):
        product = (1 + Jet.t(2, 1)) * (1 + Jet.t(2, 2))
        assert product == Jet(2, {0: 1, 1: 1, 2: 1, 3: 1})

    def test_square_vanishes(self):
        assert Jet.t(2, 1) * Jet.t(2, 1) == Jet.zero(2)

    def test_single_splitting(self):
        product = (1 + 2 * Jet.t(3, 1) * Jet.t(3, 3)) * (1 + Jet.t(3, 2))
        assert product.coefficient((1, 2, 3)) == 2

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            Jet.t(2, 1) * Jet.t(3, 1)

    def test_float_coefficient_rejected(self):
        with pytest.raises(ValueError):
            Jet(2, {0: 0.5})

    @pytest.mark.parametrize("coefficient", [1.5j, Decimal("0.5"), "x"])
    def test_coefficient_other_than_int_fraction_or_mpoly_rejected(self, coefficient):
        with pytest.raises(ValueError, match="not an int, Fraction or MPoly"):
            Jet(1, {0: coefficient, 1: 1})

    @pytest.mark.parametrize(
        "operation",
        [
            lambda: Jet.one(2) + 0.5,
            lambda: 0.5 + Jet.one(2),
            lambda: Jet.t(2, 1) * 0.5,
            lambda: 0.5 * Jet.t(2, 1),
            lambda: Jet.one(2) - 0.5,
            lambda: 0.5 - Jet.one(2),
        ],
    )
    def test_float_scalar_rejected(self, operation):
        with pytest.raises(TypeError):
            operation()

    @pytest.mark.parametrize("name", ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"])
    def test_operators_decline_a_float(self, name):
        assert getattr(Jet.t(2, 1), name)(0.5) is NotImplemented

    def test_exact_scalars_accepted(self):
        x = alpha(1, 2)
        assert Jet.one(2) + F(1, 2) == Jet(2, {0: F(3, 2)})
        assert 3 - Jet.t(2, 1) == Jet(2, {0: 3, 1: -1})
        assert Jet.t(2, 1) * x - x == Jet(2, {0: -x, 1: x})

    def test_ring_laws(self):
        rng = random.Random(17)
        for _ in range(120):
            m = rng.randint(1, 4)
            a, b, c = (random_jet(rng, m) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_product_coefficients_match_partition_sum(self):
        rng = random.Random(31)
        for _ in range(40):
            m = rng.randint(1, 4)
            jets = [random_jet(rng, m) for _ in range(rng.randint(2, 3))]
            product = jets[0]
            for j in jets[1:]:
                product = product * j
            for size in range(m + 1):
                for subset in itertools.combinations(range(1, m + 1), size):
                    assert product.coefficient(subset) == product_coefficient_brute(jets, subset)


def assert_valid_jet(r):
    """A result is what the reference's checked constructor would build, with canonical polynomials."""
    assert all(0 <= mask < 1 << r.m for mask in r.coeffs)
    assert all(r.coeffs.values()), "a zero coefficient is stored"
    assert r.coeffs == Jet(r.m, r.coeffs).coeffs
    for c in r.coeffs.values():
        if isinstance(c, MPoly):
            assert c.den >= 1 and math.gcd(c.den, *c.nums.values()) == 1 and all(c.nums.values())


def naive_product(out, a, b, sign):
    """sign * a * b added to out, one subset split of each target mask at a time."""
    m = max([0, *a, *b, *out]).bit_length()
    expected = {}
    for mask in range(1 << m):
        total = out.get(mask, 0)
        sub = mask
        while True:  # every sub-mask of mask, paired with its complement in mask
            total += sign * a.get(sub, 0) * b.get(mask ^ sub, 0)
            if not sub:
                break
            sub = (sub - 1) & mask
        if total:
            expected[mask] = total
    return expected


if st is not None:
    PROPERTY = settings(max_examples=80, deadline=None)

    def jets(m, unit=False):
        coeffs = st.dictionaries(st.integers(0, (1 << m) - 1), st.integers(-4, 4), max_size=5)
        if unit:
            coeffs = coeffs.map(lambda c: {**c, 0: 1})
        return coeffs.map(lambda c: Jet(m, c))

    scalars = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    jet_pairs = st.integers(1, 4).flatmap(lambda m: st.tuples(jets(m), jets(m)))

    class TestTrustedResults:
        @PROPERTY
        @given(jet_pairs, scalars)
        def test_ring_operations(self, pair, c):
            a, b = pair
            for r in (a + b, a - b, a * b, -a, a - a, a + c, c + a, a - c, c - a, a * c, c * a, a**2):
                assert_valid_jet(r)
            product = kernel(a) * kernel(b)
            assert_valid_jet(product)
            assert product.coeffs == (a * b).coeffs

        @PROPERTY
        @given(
            st.integers(1, 4).flatmap(lambda m: jets(m, unit=True)),
            st.sampled_from([1, -1, 2, F(-1, 3)]),
        )
        def test_inverse_and_power(self, a, c0):
            unit = a * c0
            assert_valid_jet(unit.inv())
            assert_valid_jet(kernel(a).inv())
            for beta in (alpha(1, 2) - alpha(2, 2), MPoly.const(2, 0)):
                den, numerators = kernel(a).power(beta)
                assert type(den) is int and den >= 1 and numerators[0] == {(0, 0): den}
                assert all(0 <= mask < 1 << a.m for mask in numerators)
                assert all(type(c) is int for nums in numerators.values() for c in nums.values())
                assert_valid_jet(kernel_power(a, beta))

        @PROPERTY
        @given(
            st.integers(1, 4).flatmap(lambda m: st.tuples(jets(m), jets(m), jets(m))),
            st.sampled_from([1, -1, 3]),
        )
        def test_add_product_is_the_subset_split_sum(self, triple, sign):
            out, a, b = (j.coeffs for j in triple)
            result = _add_product(dict(out), a, b, sign)
            assert {mask: c for mask, c in result.items() if c} == naive_product(out, a, b, sign)


class TestJetInverse:
    def test_simple(self):
        for x, inverse in [
            (1 + Jet.t(2, 1), 1 - Jet.t(2, 1)),
            (Jet.one(3), Jet.one(3)),
            (1 - 2 * Jet.t(2, 2), 1 + 2 * Jet.t(2, 2)),
        ]:
            assert x.inv() == inverse
            assert kernel(x).inv().coeffs == inverse.coeffs

    def test_inverse_property(self):
        rng = random.Random(37)
        for _ in range(60):
            m = rng.randint(1, 4)
            a = random_jet(rng, m, unit=True)
            assert a * a.inv() == Jet.one(m)
            assert a * Jet(m, kernel(a).inv().coeffs) == Jet.one(m)

    def test_zero_constant_rejected(self):
        with pytest.raises(ValueError, match="constant term is zero"):
            Jet.t(2, 1).inv()
        with pytest.raises(RuntimeError, match="constant term 1"):
            kernel(Jet.t(2, 1)).inv()

    @pytest.mark.parametrize("c0", [1, -1])
    def test_unit_constant_keeps_integers(self, c0):
        # the kernel takes constant term 1; x with c0 = -1 is inverted as -(-x)^-1
        x = Jet(3, {0: c0, 0b001: 2, 0b110: -3, 0b111: 5})
        inverse = kernel(x * c0).inv()
        assert all(type(c) is int for c in inverse.coeffs.values())
        assert x * Jet(3, inverse.coeffs) * c0 == Jet.one(3)
        assert Jet(3, inverse.coeffs) * c0 == x.inv()

    def test_nonunit_constant_gives_exact_fractions(self):
        x = Jet(2, {0: 2, 0b01: 1, 0b11: 3})
        inverse = x.inv()
        assert inverse == Jet(2, {0: F(1, 2), 0b01: F(-1, 4), 0b11: F(-3, 4)})
        assert x * inverse == Jet.one(2)

    @pytest.mark.parametrize(
        "coeffs, expected",
        [
            (
                {0: 3, 0b001: 2, 0b110: -1, 0b011: 4, 0b111: 5},
                {0: F(1, 3), 0b001: F(-2, 9), 0b011: F(-4, 9), 0b110: F(1, 9), 0b111: F(-19, 27)},
            ),
            (
                {0: F(-2, 3), 0b001: 1, 0b010: F(1, 2), 0b100: -3, 0b101: 2},
                {0: F(-3, 2), 0b001: F(-9, 4), 0b010: F(-9, 8), 0b011: F(-27, 8), 0b100: F(27, 4),
                 0b101: F(63, 4), 0b110: F(81, 8), 0b111: F(621, 16)},
            ),
            (
                {0: -5, 0b0001: 1, 0b0011: 2, 0b0101: -1, 0b1010: 3, 0b1100: 7},
                {0: F(-1, 5), 0b0001: F(-1, 25), 0b0011: F(-2, 25), 0b0101: F(1, 25), 0b1010: F(-3, 25),
                 0b1011: F(-6, 125), 0b1100: F(-7, 25), 0b1101: F(-14, 125), 0b1111: F(-22, 125)},
            ),
        ],
    )
    def test_nonunit_constant_pinned(self, coeffs, expected):
        # values recorded from the jet-product geometric series
        m = max(coeffs).bit_length()
        inverse = Jet(m, coeffs).inv()
        assert inverse.coeffs == expected
        assert all(type(c) is F for c in inverse.coeffs.values())


class TestJetPower:
    def test_first_order(self):
        beta = alpha(1, 1)
        x = 1 + Jet.t(1, 1)
        assert x.power(beta) == kernel_power(x, beta) == Jet(1, {0: 1, 1: beta})

    def test_second_order_binomial(self):
        beta = alpha(1, 1)
        x = 1 + Jet.t(2, 1) + Jet.t(2, 2)
        expected = Jet(2, {0: 1, 1: beta, 2: beta, 3: beta * (beta - 1)})
        assert x.power(beta) == kernel_power(x, beta) == expected

    def test_integer_exponent_cross_check(self):
        rng = random.Random(41)
        for _ in range(40):
            m = rng.randint(1, 4)
            a = random_jet(rng, m, unit=True)
            for k in range(4):
                via_power = kernel_power(a, MPoly.const(1, k))
                assert via_power == a.power(MPoly.const(1, k))
                direct = a**k
                # promote int coefficients for comparison
                assert {s: MPoly.const(1, 0) + c for s, c in via_power.coeffs.items()} == {
                    s: MPoly.const(1, 0) + c for s, c in direct.coeffs.items()
                }

    def test_exponent_additivity(self):
        rng = random.Random(43)
        beta1, beta2 = alpha(1, 2), alpha(2, 2)
        for _ in range(30):
            m = rng.randint(1, 4)
            a = random_jet(rng, m, unit=True)
            assert a.power(beta1 + beta2) == a.power(beta1) * a.power(beta2)
            assert kernel_power(a, beta1 + beta2) == kernel_power(a, beta1) * kernel_power(a, beta2)

    def test_nonunit_constant_rejected(self):
        with pytest.raises(ValueError):
            (2 + Jet.t(1, 1)).power(alpha(1, 1))
        with pytest.raises(RuntimeError, match="constant term 1"):
            kernel(2 + Jet.t(1, 1)).power(alpha(1, 1))

    def test_rational_coefficients_rejected(self):
        with pytest.raises(ValueError):
            (1 + F(1, 2) * Jet.t(1, 1)).power(alpha(1, 1))


class TestKernelsAgainstReference:
    """The package's product, inverse and power on seeded unit jets, against the reference algebra."""

    @staticmethod
    def unit_jets(seed, count=60):
        rng = random.Random(seed)
        for _ in range(count):
            m = rng.randint(1, 5)
            yield rng, random_jet(rng, m, unit=True, max_terms=1 << m)

    def test_product(self):
        for rng, a in self.unit_jets(61):
            b = random_jet(rng, a.m, unit=True, max_terms=1 << a.m)
            assert (kernel(a) * kernel(b)).coeffs == (a * b).coeffs

    def test_inverse(self):
        for _, a in self.unit_jets(67):
            inverse = kernel(a).inv()
            assert all(type(c) is int for c in inverse.coeffs.values())
            assert inverse.coeffs == a.inv().coeffs

    def test_power(self):
        x1, x2 = alpha(1, 2), alpha(2, 2)
        for rng, a in self.unit_jets(71, count=40):
            k = rng.randint(1, 4)
            for beta in (x1 - x2, x1 * F(-1, 2), MPoly.const(2, 0), MPoly.const(2, k)):
                assert kernel_power(a, beta) == a.power(beta), beta
            assert kernel_power(a, MPoly.const(2, k)) == a**k


class TestInverseMatrix:
    def test_two_cycle(self):
        entries = matrix_entries(build_inverse_matrix((1, 2)))
        t1, t2 = Jet.t(2, 1), Jet.t(2, 2)
        assert entries[0][0] == 1 + t1 * t2
        assert entries[0][1] == -t1
        assert entries[1][0] == -t2
        assert entries[1][1] == Jet.one(2)

    def test_single_loop(self):
        matrix = build_inverse_matrix((1,))
        assert matrix.size == 1
        assert matrix_entries(matrix)[0][0] == 1 - Jet.t(1, 1)

    def test_off_diagonal_sign(self):
        matrix = build_inverse_matrix((1, 2))
        assert matrix_entries(matrix)[0][1].coefficient((1,)) == -1

    def test_constant_part_is_identity(self):
        rng = random.Random(47)
        for _ in range(30):
            m = rng.randint(1, 5)
            entries = tuple(rng.randint(1, 4) for _ in range(m))
            matrix = build_inverse_matrix(relative_order(IndexTuple(entries, 4)).rho)
            rows = matrix_entries(matrix)
            for r in range(matrix.size):
                for c in range(matrix.size):
                    assert rows[r][c].constant_term == (1 if r == c else 0)


class TestGramSchmidt:
    def test_identity_matrix(self):
        eye = JetMatrix(size=3, m=2, factors=())
        assert matrix_entries(eye) == tuple(
            tuple(Jet.one(2) if r == c else Jet.zero(2) for c in range(3)) for r in range(3)
        )
        assert [norm.coeffs for norm in gram_schmidt_norms(eye)] == [Jet.one(2).coeffs] * 3

    def test_two_cycle_norms(self):
        norms = gram_schmidt_norms(build_inverse_matrix((1, 2)))
        t1t2 = Jet.t(2, 1) * Jet.t(2, 2)
        assert [norm.coeffs for norm in norms] == [(1 + 2 * t1t2).coeffs, (1 - 2 * t1t2).coeffs]

    def test_single_loop_norm(self):
        norms = gram_schmidt_norms(build_inverse_matrix((1,)))
        assert [norm.coeffs for norm in norms] == [(1 - 2 * Jet.t(1, 1)).coeffs]

    def test_norms_stay_integral(self):
        norms = gram_schmidt_norms(build_inverse_matrix((1, 3, 2, 3, 1, 2)))
        assert len(norms) == 3
        assert all(type(c) is int for norm in norms for c in norm.coeffs.values())
        assert any(len(norm.coeffs) > 1 for norm in norms[1:])

    def test_orthogonality_against_brute_force(self):
        # The Gram matrix of the orthogonalized columns must be diagonal;
        # verify via an independent projector-free computation.
        rng = random.Random(53)
        for _ in range(20):
            m = rng.randint(1, 4)
            entries = tuple(rng.randint(1, 3) for _ in range(m))
            matrix = build_inverse_matrix(relative_order(IndexTuple(entries, 3)).rho)
            norms = gram_schmidt_norms(matrix)
            # recompute basis directly and check pairwise inner products vanish
            entries = matrix_entries(matrix)
            basis = []
            for v in range(1, matrix.size + 1):
                col = [row[v - 1] for row in entries]
                for prev in basis:
                    num = _inner(col, prev)
                    col = [c - num * _inner(prev, prev).inv() * p for c, p in zip(col, prev)]
                basis.append(col)
            for i in range(len(basis)):
                for j in range(i):
                    assert _inner(basis[i], basis[j]) == Jet.zero(m)
                assert _inner(basis[i], basis[i]).coeffs == norms[i].coeffs


def _inner(x, y):
    total = Jet.zero(x[0].m)
    for a, b in zip(x, y):
        total = total + a * b
    return total


class TestOracleEigenvalue:
    def test_single_loop(self):
        assert oracle_eigenvalue((1,)) == alpha(1, 1)

    def test_two_cycle(self):
        assert oracle_eigenvalue((1, 2)) == -alpha(1, 2) + alpha(2, 2)

    def test_descending_pair_vanishes(self):
        assert oracle_eigenvalue((2, 1)) == MPoly(2)

    def test_loop_after_edge(self):
        expected = (alpha(1, 2) - alpha(2, 2)) * (1 - alpha(2, 2))
        assert oracle_eigenvalue((1, 2, 2)) == expected

    def test_rank_padding_is_irrelevant(self):
        # unshifted values ignore the ambient rank beyond the entries used, evaluated at the tuple
        # directly and through the pattern polynomial
        rng = random.Random(59)
        for _ in range(15):
            m = rng.randint(1, 4)
            entries = tuple(rng.randint(1, 3) for _ in range(m))
            small, padded = IndexTuple(entries, 3), IndexTuple(entries, 6)
            order = relative_order(small)
            norms = gram_schmidt_norms(build_inverse_matrix(order.rho))
            direct = [full_product_top(norms, order, t, False) for t in (small, padded)]
            embedded = MPoly(6, {e + (0, 0, 0): c for e, c in direct[0].terms.items()})
            assert embedded == direct[1] == oracle_at(padded)
            assert direct[0] == oracle_at(small)

    def test_norm_reuse_matches_direct(self):
        t = IndexTuple((1, 2, 2), 3)
        order = relative_order(t)
        norms = gram_schmidt_norms(build_inverse_matrix(order.rho))
        assert eigenvalue_from_norms(norms) == oracle_eigenvalue(order.rho)
        assert full_product_top(norms, order, t, False) == oracle_at(t)
        assert full_product_top(norms, order, t, True) == oracle_at(t, shifted=True)


class TestPathCoefficients:
    def test_two_cycle_entries(self):
        report = path_coefficient_check(IndexTuple((1, 2), 2))
        assert report.ok
        entries = matrix_entries(build_inverse_matrix((1, 2)))
        assert entries[0][0].coefficient((1, 2)) == 1  # (-1)^2 on the 2-cycle
        assert entries[0][1].coefficient((2,)) == 0  # edge 2 starts at vertex 2
        assert entries[0][0].coefficient(()) == 1  # empty path convention

    def test_small_tuples(self):
        for m in range(1, 4):
            for entries in itertools.product(range(1, 4), repeat=m):
                report = path_coefficient_check(IndexTuple(entries, 3))
                assert report.ok, (entries, report.violations[:3])


# Oracle values at orders 7 and 8, above the exhaustive checks' range:
# (entries, n, shifted, str(eigenvalue)).
ORACLE_GOLDEN = [
    ((1, 1, 2, 2, 1, 3, 3), 3, False, 'a1^3*a2*a3 - a1^2*a2^2*a3 - a1^2*a2*a3^2 + a1*a2^2*a3^2 - a1^3*a2 - a1^3*a3 + a1^2*a2^2 + 2*a1^2*a2*a3 + a1^2*a3^2 - a1*a2^2*a3 - a1*a2*a3^2 + a1^3 - a1^2*a2 - a1^2*a3 + a1*a2*a3'),
    ((1, 2, 1, 1, 2, 2, 2), 2, False, 'a1^3*a2^2 - 2*a1^2*a2^3 + a1*a2^4 - 2*a1^3*a2 + 4*a1^2*a2^2 - 2*a1*a2^3 + a1^3 - 2*a1^2*a2 + a1*a2^2'),
    ((1, 2, 5, 1, 4, 3, 4), 5, False, '-a1^2 + a1*a2 + a1*a3 - a2*a3'),
    ((1, 2, 4, 3, 2, 3, 3, 4), 4, False, '-a1*a2*a3 + a1*a3^2 + a2^2*a3 - a2*a3^2 + a1*a2 - a2^2 - a1 + a2'),
    ((1, 2, 2, 1, 1, 1, 2, 2), 2, False, 'a1^4*a2^2 - 2*a1^3*a2^3 + a1^2*a2^4 - 2*a1^4*a2 + 4*a1^3*a2^2 - 2*a1^2*a2^3 + a1^4 - 2*a1^3*a2 + a1^2*a2^2'),
    ((1, 3, 2, 4, 3, 5, 5, 2), 5, False, '-a1*a2*a5 + a1*a3*a5 + a2^2*a5 - a2*a3*a5 + a1*a2 - a1*a3 + a1*a5 - a2^2 + a2*a3 - a2*a5 - a1 + a2'),
    ((1, 4, 1, 3, 3, 2, 1, 1), 4, False, '-a1^4*a3 + a1^3*a2*a3 + a1^3*a3*a4 - a1^2*a2*a3*a4 + a1^4 - a1^3*a2 - a1^3*a4 + a1^2*a2*a4'),
    ((1, 1, 2, 2, 1, 3, 3), 9, True, 'a1^3*a2*a3 - a1^2*a2^2*a3 - a1^2*a2*a3^2 + a1*a2^2*a3^2 + a1^3*a2 + 2*a1^3*a3 - a1^2*a2^2 + 4*a1^2*a2*a3 - 2*a1^2*a3^2 - 5*a1*a2^2*a3 - 3*a1*a2*a3^2 + 4*a2^2*a3^2 + 2*a1^3 + 5*a1^2*a2 + 12*a1^2*a3 - 6*a1*a2^2 - a1*a2*a3 - 10*a1*a3^2 - 4*a2^2*a3 + 4*a2*a3^2 + 14*a1^2 + 2*a1*a2 + 18*a1*a3 - 8*a2^2 - 4*a2*a3 - 8*a3^2 + 28*a1 - 8*a2 + 8*a3 + 16'),
    ((1, 2, 2, 1, 1, 1, 2, 2), 9, True, 'a1^4*a2^2 - 2*a1^3*a2^3 + a1^2*a2^4 + 4*a1^4*a2 + 2*a1^3*a2^2 - 14*a1^2*a2^3 + 8*a1*a2^4 + 4*a1^4 + 32*a1^3*a2 - 35*a1^2*a2^2 - 16*a1*a2^3 + 16*a2^4 + 40*a1^3 + 60*a1^2*a2 - 120*a1*a2^2 + 32*a2^3 + 132*a1^2 - 32*a1*a2 - 48*a2^2 + 160*a1 - 64*a2 + 64'),
]


@pytest.mark.parametrize(
    "entries, n, shifted, expected",
    ORACLE_GOLDEN,
    ids=["".join(map(str, e)) + ("-shifted" if s else "") for e, _, s, _ in ORACLE_GOLDEN],
)
def test_oracle_golden_orders_seven_and_eight(entries, n, shifted, expected):
    assert str(oracle_at(IndexTuple(entries, n), shifted=shifted)) == expected
