"""Tests for the two changes of variables, MPoly.translate and eliminate_last_var, and for their reference.

translate sends x_i to x_(targets[i]) + shifts[i]/q, and
eliminate_last_var sends a_N to -(a_1 + ... + a_(N-1)).  Their reference
is references.substitute, the ring map to arbitrary images expanded over
Fractions; ring_expansion below is the same map built from MPoly ring
operations, and checks the reference on images translate never sees.
The property tests need hypothesis; without it they are not collected,
and the fixed cases still run.
"""

import math
from fractions import Fraction as F

import pytest

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
except ImportError:  # the property tests below are then not collected
    st = None

from casimir_eigen.casimir import casimir_eigenvalue_patterned
from casimir_eigen.jetoracle import oracle_eigenvalue
from casimir_eigen.ratpoly import MPoly, eliminate_last_var
from casimir_eigen.tuplegraph import IndexTuple, relative_order, specialise
from references import eval_at, parameter, power, substitute


def test_zero_maps_to_the_zero_of_the_images_ring():
    image = MPoly(2).translate(3, (1, 0), (0, 1), 2)
    assert image == MPoly(3) and image.nvars == 3


def test_constant_without_variables_is_unchanged():
    c = MPoly.const(0, F(3, 4))
    assert c.translate(0, (), (), 1) == c
    assert c.translate(2, (), (), 1) == MPoly.const(2, F(3, 4))


def assert_valid_mpoly(r):
    """A ring-operation result is canonical and is what the checked constructor would build."""
    assert type(r.den) is int and r.den >= 1
    for exps, num in r.nums.items():
        assert type(exps) is tuple and len(exps) == r.nvars and all(type(e) is int and e >= 0 for e in exps)
        assert type(num) is int and num, f"numerator {num!r} at {exps}"
    assert math.gcd(r.den, *r.nums.values()) == 1, f"{r.nums} over {r.den} is not in lowest terms"
    rebuilt = MPoly(r.nvars, r.terms)
    assert (rebuilt.den, rebuilt.nums) == (r.den, r.nums)


def x(nvars, index):
    return MPoly.variable(nvars, index)


def eliminated_by_reference(p):
    head = [MPoly.variable(p.nvars - 1, i) for i in range(p.nvars - 1)]
    return substitute(p, head + [-sum(head, MPoly(p.nvars - 1))])


@pytest.mark.parametrize(
    "p",
    [
        MPoly(1, {(3,): F(2, 3), (1,): F(-1), (0,): F(5, 4)}),  # N = 1: a_1 maps to the empty sum, leaving p(0)
        MPoly(1, {(2,): F(-1, 2)}),  # N = 1 without a constant term: zero in no variables
        MPoly(2, {(2, 3): F(1, 2), (0, 1): F(-3, 7), (1, 0): F(2)}),
        MPoly(3, {(1, 2, 4): F(5, 6), (0, 0, 3): F(-1, 10), (2, 1, 0): F(3, 4)}),
        MPoly(1),
        MPoly(3),
        MPoly.const(1, 4),
        MPoly.const(2, F(-7, 3)),
        MPoly(3, {(0, 0, 255): F(1), (3, 0, 250): F(1, 2)}),  # degree 255, the largest one packed per byte
        MPoly(1, {(900,): F(1), (0,): F(-2)}),  # N = 1 packs no exponent, so no degree bound applies
    ],
)
def test_elimination_edge_cases_match_the_fraction_expansion(p):
    result = eliminate_last_var(p)
    assert result == eliminated_by_reference(p) and result.nvars == p.nvars - 1
    assert_valid_mpoly(result)


def test_elimination_refuses_degree_above_255():
    with pytest.raises(ValueError, match="degree 256 is above 255"):
        eliminate_last_var(MPoly(3, {(0, 0, 256): F(2, 3), (1, 1, 0): F(1)}))


def test_elimination_of_one_variable_is_the_constant_term():
    assert eliminate_last_var(MPoly(1, {(3,): F(2, 3), (0,): F(5, 4)})) == MPoly.const(0, F(5, 4))


def test_rho_shift_of_a_casimir_sum():
    """The shifted sum is the plain one at the rho-shifted parameters, at even and odd n."""
    for m, n in [*((m, n) for m in range(1, 5) for n in (4, 5)), (5, 8)]:
        total = casimir_eigenvalue_patterned(m, n, shifted=False)
        images = [parameter(v, n, True) for v in range(1, n + 1)]
        assert casimir_eigenvalue_patterned(m, n) == substitute(total, images), (m, n)


def test_elimination_of_a_shifted_casimir_sum():
    total = casimir_eigenvalue_patterned(4, 10)
    assert eliminate_last_var(total) == eliminated_by_reference(total)


@pytest.mark.parametrize("entries", [(1, 4, 2, 5, 3, 6, 2, 7), (1, 3, 2, 4, 1, 2, 5, 3), (1, 1, 2, 1, 3, 2, 1, 4)])
@pytest.mark.parametrize("shifted", [False, True])
def test_pattern_oracle_at_parameters(entries, shifted):
    order = relative_order(IndexTuple(entries, 9))
    oracle = oracle_eigenvalue(order.rho)
    values = tuple(2 * v + 1 for v in order.values)
    images = [parameter(v, 16, shifted) for v in values]
    assert specialise(oracle, values, 16, shifted) == substitute(oracle, images)


def test_specialise_memo_is_keyed_by_value():
    specialise.cache_clear()
    first = (x(2, 0) - x(2, 1)) * (x(2, 1) + 1)
    second = MPoly(2, first.terms)
    assert second is not first and second == first
    image = specialise(first, (2, 4), 5, True)
    assert specialise(second, (2, 4), 5, True) is image  # a hit on an equal value
    assert specialise.cache_info().hits == 1
    other = first + x(2, 0)
    assert specialise(other, (2, 4), 5, True) != image  # another polynomial, one rank map
    assert specialise(first, (2, 4), 5, False) != image  # one polynomial, another map
    assert specialise(first, (1, 4), 5, True) != image


if st is not None:
    SETTINGS = settings(max_examples=60, deadline=None)

    coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=6)

    def mpolys(nvars: int, max_deg: int = 3, max_terms: int = 4):
        exponents = st.tuples(*[st.integers(0, max_deg)] * nvars)
        return st.dictionaries(exponents, coefficients, max_size=max_terms).map(lambda t: MPoly(nvars, t))

    @st.composite
    def translations(draw, source: int):
        """(nvars, targets, shifts, q): distinct targets in any order, any shift 0, so renames are drawn too."""
        nvars = draw(st.integers(source, source + 2))
        targets = tuple(draw(st.permutations(range(nvars)))[:source])
        shifts = tuple(draw(st.lists(st.one_of(st.just(0), st.integers(-9, 9)), min_size=source, max_size=source)))
        return nvars, targets, shifts, draw(st.integers(1, 6))

    def images_of(nvars, targets, shifts, q):
        """The images x_(targets[i]) + shifts[i]/q that a translation stands for."""
        return [MPoly.variable(nvars, t) + F(s, q) for t, s in zip(targets, shifts)]

    @st.composite
    def homomorphism_cases(draw):
        """(p, q, translation, point): p and q in N variables, the point in the target ring."""
        source = draw(st.integers(1, 3))
        p, q = draw(mpolys(source)), draw(mpolys(source))
        translation = draw(translations(source))
        point = draw(st.lists(coefficients, min_size=translation[0], max_size=translation[0]))
        return p, q, translation, point

    @SETTINGS
    @given(homomorphism_cases())
    def test_preserves_sums_and_products(case):
        p, q, translation, _ = case
        assert (p + q).translate(*translation) == p.translate(*translation) + q.translate(*translation)
        assert (p * q).translate(*translation) == p.translate(*translation) * q.translate(*translation)

    @SETTINGS
    @given(homomorphism_cases())
    def test_commutes_with_evaluation(case):
        p, _, translation, point = case
        images = images_of(*translation)
        assert eval_at(p.translate(*translation), point) == eval_at(p, [eval_at(g, point) for g in images])

    @SETTINGS
    @given(st.integers(1, 4).flatmap(mpolys), st.integers(1, 3))
    def test_identity_images_return_the_polynomial(p, q):
        assert p.translate(p.nvars, range(p.nvars), (0,) * p.nvars, q) == p

    @SETTINGS
    @given(
        st.integers(1, 4).flatmap(lambda n: st.tuples(mpolys(n), st.lists(coefficients, min_size=n - 1, max_size=n - 1)))
    )
    def test_eliminate_last_var_restricts_to_the_hyperplane(case):
        p, head = case
        assert eval_at(eliminate_last_var(p), head) == eval_at(p, head + [-sum(head, F(0))])

    scalars = st.one_of(st.integers(-3, 3), coefficients)

    @SETTINGS
    @given(homomorphism_cases(), scalars)
    def test_ring_results_are_valid(case, c):
        p, q, translation, _ = case
        scalar_results = (p + c, c + p, p - c, c - p, p * c, c * p)
        for r in (p + q, p - q, p - p, p * q, -p, p * p, p.translate(*translation), *scalar_results):
            assert_valid_mpoly(r)

    @SETTINGS
    @given(st.integers(0, 3).flatmap(mpolys), scalars)
    def test_scalar_operands_match_the_constant_polynomial(p, c):
        const = MPoly.const(p.nvars, c)
        for x in (0, 1, c):
            assert (p + x).terms == (p + MPoly.const(p.nvars, x)).terms
            assert (p * x).terms == (p * MPoly.const(p.nvars, x)).terms
        assert (c - p).terms == (const - p).terms
        assert (p - c).terms == (p - const).terms

    # -- the integer kernel against the plain Fraction expansion --------------

    @st.composite
    def kernel_cases(draw):
        """(p, translation): p zero, constant or general, with any translation of its variables."""
        source = draw(st.integers(1, 3))
        zero, constant = st.just(MPoly(source)), coefficients.map(lambda c: MPoly.const(source, c))
        p = draw(st.one_of(zero, constant, mpolys(source, max_deg=4, max_terms=5)))
        return p, draw(translations(source))

    @settings(max_examples=200, deadline=None)
    @given(kernel_cases())
    @example((MPoly(2), (2, (1, 0), (0, 1), 3)))
    @example((MPoly.const(2, F(5, 6)), (3, (2, 0), (4, -1), 3)))
    @example((MPoly(2, {(2, 0): F(1, 2), (0, 1): F(3, 4)}), (2, (1, 0), (0, 5), 6)))
    def test_matches_the_fraction_expansion(case):
        p, translation = case
        result = p.translate(*translation)
        assert result == substitute(p, images_of(*translation))
        assert_valid_mpoly(result)

    def ring_expansion(p, images):
        """The textbook image: sum of c * prod(images[i]^e_i), built from MPoly ring operations."""
        expected = MPoly(images[0].nvars)
        for exps, coeff in p.terms.items():
            term = MPoly.const(images[0].nvars, coeff)
            for img, e in zip(images, exps):
                term = term * power(img, e)
            expected = expected + term
        return expected

    @st.composite
    def monomial_image_cases(draw):
        """(p, images): every image one monomial, with coefficients other than 1 and repeated targets."""
        source = draw(st.integers(1, 4))
        target = draw(st.integers(1, 3))
        p = draw(mpolys(source, max_deg=3, max_terms=5))
        exponents = st.tuples(*[st.integers(0, 2)] * target)
        nonzero = coefficients.filter(bool)
        images = [MPoly(target, {draw(exponents): draw(nonzero)}) for _ in range(source)]
        if source > 1 and draw(st.booleans()):
            images[-1] = images[0]
        return p, images

    @settings(max_examples=200, deadline=None)
    @given(monomial_image_cases())
    @example((MPoly(2, {(1, 0): F(1), (0, 1): F(-1)}), [MPoly.variable(1, 0), MPoly.variable(1, 0)]))
    @example((MPoly(2, {(2, 1): F(3, 2), (0, 3): F(1)}), [MPoly(2, {(1, 1): F(-2, 3)}), MPoly(2, {(0, 2): F(5)})]))
    def test_monomial_images_match_ring_products(case):
        """The reference on images that are no translation, as the table tests feed it."""
        p, images = case
        assert substitute(p, images) == ring_expansion(p, images)

    # -- translations x_t + s/q onto distinct targets --------------------------

    @st.composite
    def translation_cases(draw):
        """(p, translation) with p nonzero, so that translate does not take the zero shortcut."""
        source = draw(st.integers(1, 4))
        p = draw(mpolys(source, max_deg=4, max_terms=6).filter(bool))
        return p, draw(translations(source))

    P2 = MPoly(2, {(3, 1): F(2, 3), (1, 2): F(-5), (0, 0): F(7, 4), (2, 0): F(1)})

    @settings(max_examples=200, deadline=None)
    @given(translation_cases())
    @example((P2, (2, (0, 1), (3, -2), 1)))  # integer shifts
    @example((P2, (2, (0, 1), (3, -1), 2)))  # half-integer shifts, as in a rho-shift at even n
    @example((P2, (3, (2, 0), (4, 15), 12)))  # mixed denominators, targets out of order
    @example((P2, (2, (1, 0), (0, 1), 2)))  # one zero shift, the targets swapped
    @example((P2, (2, (0, 1), (0, 0), 1)))  # the identity
    @example((P2, (2, (1, 0), (0, 0), 1)))  # a rename that swaps the targets
    @example((P2, (5, (4, 1), (0, 0), 1)))  # a rename into a larger ring, targets out of order
    @example((MPoly(3, {(1, 2, 0): F(1, 6), (0, 0, 3): F(-2, 3)}), (4, (2, 0, 3), (0, 0, 0), 1)))  # a rename over den 6
    def test_translations_match_ring_products(case):
        p, translation = case
        result = p.translate(*translation)
        assert p and result == ring_expansion(p, images_of(*translation))
        assert_valid_mpoly(result)

    @st.composite
    def mixed_image_cases(draw):
        """(p, images): single-monomial images next to multi-term ones, as in eliminate_last_var."""
        source = draw(st.integers(2, 4))
        target = draw(st.integers(1, 3))
        exponents = st.tuples(*[st.integers(0, 2)] * target)
        monomial = st.builds(lambda e, c: MPoly(target, {e: c}), exponents, coefficients.filter(bool))
        multi = st.dictionaries(exponents, coefficients.filter(bool), min_size=2, max_size=3).map(
            lambda terms: MPoly(target, terms)
        )
        images = [draw(st.one_of(monomial, multi)) for _ in range(source - 1)] + [draw(multi)]
        return draw(mpolys(source, max_deg=3, max_terms=5)), draw(st.permutations(images))

    @settings(max_examples=100, deadline=None)
    @given(mixed_image_cases())
    @example((P2, [x(1, 0), -x(1, 0) + F(1, 2)]))
    @example((MPoly(3, {(1, 1, 2): F(3), (2, 0, 1): F(-1, 2)}), [x(2, 0), x(2, 1), -(x(2, 0) + x(2, 1))]))
    def test_mixed_images_match_ring_products(case):
        """The reference on multi-term images, as in the elimination tests."""
        p, images = case
        assert substitute(p, images) == ring_expansion(p, images)

    @SETTINGS
    @given(st.integers(1, 4).flatmap(lambda n: mpolys(n, max_deg=4, max_terms=6)))
    def test_elimination_matches_the_fraction_expansion(p):
        assert eliminate_last_var(p) == eliminated_by_reference(p)

    # -- specialise: the pattern-to-tuple map of both verify routes ------------

    @st.composite
    def specialise_cases(draw):
        """(poly, values, n, shifted): a polynomial in ell rank variables, ell distinct values in 1..n."""
        ell = draw(st.integers(1, 4))
        n = draw(st.integers(ell, ell + 4))
        values = tuple(sorted(draw(st.lists(st.integers(1, n), min_size=ell, max_size=ell, unique=True))))
        poly = draw(st.one_of(st.just(MPoly(ell)), coefficients.map(lambda c: MPoly.const(ell, c)), mpolys(ell)))
        return poly, values, n, draw(st.booleans())

    @settings(max_examples=200, deadline=None)
    @given(specialise_cases())
    @example((MPoly(2), (1, 3), 4, True))
    @example((MPoly.const(1, F(-5, 3)), (2,), 2, True))
    @example((P2, (1, 2), 2, True))  # a half-integer rho-shift
    @example((P2, (2, 5), 5, True))  # an integer rho-shift, one of them zero
    @example((P2, (3, 4), 6, False))
    def test_specialise_is_substitute_at_the_parameters(case):
        poly, values, n, shifted = case
        result = specialise(poly, values, n, shifted)
        assert result == substitute(poly, [parameter(v, n, shifted) for v in values])
        assert result.nvars == n
        assert_valid_mpoly(result)
