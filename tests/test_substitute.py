"""Property tests for MPoly.substitute, the ring homomorphism behind every change of variables."""

import math
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from casimir_eigen.casimir import CasimirRequest, casimir_eigenvalue_patterned  # noqa: E402
from casimir_eigen.jetoracle import oracle_eigenvalue  # noqa: E402
from casimir_eigen.ratpoly import MPoly, _translation, eliminate_last_var  # noqa: E402
from casimir_eigen.tuplegraph import IndexTuple, parameter, relative_order, specialise  # noqa: E402
from references import eval_at  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None)

coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def mpolys(nvars: int, max_deg: int = 3, max_terms: int = 4):
    exponents = st.tuples(*[st.integers(0, max_deg)] * nvars)
    return st.dictionaries(exponents, coefficients, max_size=max_terms).map(lambda t: MPoly(nvars, t))


@st.composite
def homomorphism_cases(draw):
    """(p, q, images, point): p and q in N variables, images and point in the target ring."""
    source = draw(st.integers(1, 3))
    target = draw(st.integers(1, 3))
    p, q = draw(mpolys(source)), draw(mpolys(source))
    images = [draw(mpolys(target, max_deg=2, max_terms=3)) for _ in range(source)]
    point = draw(st.lists(coefficients, min_size=target, max_size=target))
    return p, q, images, point


@SETTINGS
@given(homomorphism_cases())
def test_preserves_sums_and_products(case):
    p, q, images, _ = case
    assert (p + q).substitute(images) == p.substitute(images) + q.substitute(images)
    assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)


@SETTINGS
@given(homomorphism_cases())
def test_commutes_with_evaluation(case):
    p, _, images, point = case
    assert eval_at(p.substitute(images), point) == eval_at(p, [eval_at(g, point) for g in images])


@SETTINGS
@given(st.integers(1, 4).flatmap(mpolys))
def test_identity_images_return_the_polynomial(p):
    assert p.substitute([MPoly.variable(p.nvars, i) for i in range(p.nvars)]) == p


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(mpolys(n), st.lists(coefficients, min_size=n - 1, max_size=n - 1))))
def test_eliminate_last_var_restricts_to_the_hyperplane(case):
    p, head = case
    assert eval_at(eliminate_last_var(p), head) == eval_at(p, head + [-sum(head, F(0))])


def test_image_count_must_match():
    with pytest.raises(ValueError):
        MPoly.variable(2, 0).substitute([MPoly.one(1)])


def test_images_must_share_a_ring():
    with pytest.raises(ValueError):
        MPoly.variable(2, 0).substitute([MPoly.one(1), MPoly.one(2)])


def test_zero_maps_to_the_zero_of_the_images_ring():
    images = [MPoly.variable(3, 1), MPoly.variable(3, 0) + MPoly.const(3, F(1, 2))]
    image = MPoly.zero(2).substitute(images)
    assert image == MPoly.zero(3) and image.nvars == 3
    with pytest.raises(ValueError):
        MPoly.zero(2).substitute(images[:1])


def test_constant_without_variables_is_unchanged():
    c = MPoly.const(0, F(3, 4))
    assert c.substitute([]) == c


def assert_valid_mpoly(r):
    """A ring-operation result is canonical and is what the checked constructor would build."""
    assert type(r.den) is int and r.den >= 1
    for exps, num in r.nums.items():
        assert type(exps) is tuple and len(exps) == r.nvars and all(type(e) is int and e >= 0 for e in exps)
        assert type(num) is int and num, f"numerator {num!r} at {exps}"
    assert math.gcd(r.den, *r.nums.values()) == 1, f"{r.nums} over {r.den} is not in lowest terms"
    rebuilt = MPoly(r.nvars, r.terms)
    assert (rebuilt.den, rebuilt.nums) == (r.den, r.nums)


scalars = st.one_of(st.integers(-3, 3), coefficients)


@SETTINGS
@given(homomorphism_cases(), scalars)
def test_ring_results_are_valid(case, c):
    p, q, images, _ = case
    scalar_results = (p + c, c + p, p - c, c - p, p * c, c * p)
    for r in (p + q, p - q, p - p, p * q, -p, p**2, p.substitute(images), *scalar_results):
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


# -- the integer kernel against the plain Fraction expansion ------------------


def _product(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            out[exps] = out.get(exps, 0) + ca * cb
    return out


def reference_substitute(p, images):
    """The homomorphism expanded over Fractions, term by term with cached image powers."""
    nvars = images[0].nvars
    powers = [[{(0,) * nvars: F(1)}] for _ in images]
    out = {}
    for exps, coeff in p.terms.items():
        term = {(0,) * nvars: coeff}
        for img, pows, e in zip(images, powers, exps):
            if e:
                while len(pows) <= e:
                    pows.append(_product(pows[-1], img.terms))
                term = _product(term, pows[e])
        for key, c in term.items():
            out[key] = out.get(key, 0) + c
    return MPoly(nvars, out)


def images_over(target: int):
    """Zero, constant or general images, each over its own denominator."""
    general = st.tuples(
        st.dictionaries(st.tuples(*[st.integers(0, 2)] * target), st.integers(-9, 9), max_size=3),
        st.integers(1, 12),
    ).map(lambda gd: MPoly(target, {e: F(c, gd[1]) for e, c in gd[0].items()}))
    constant = st.fractions(min_value=-9, max_value=9, max_denominator=12).map(lambda c: MPoly.const(target, c))
    return st.one_of(st.just(MPoly.zero(target)), constant, general)


@st.composite
def kernel_cases(draw):
    source = draw(st.integers(1, 3))
    target = draw(st.integers(1, 3))
    p = draw(mpolys(source, max_deg=4, max_terms=5))
    return p, [draw(images_over(target)) for _ in range(source)]


@settings(max_examples=200, deadline=None)
@given(kernel_cases())
@example((MPoly.zero(2), [MPoly.zero(1), MPoly.const(1, F(1, 3))]))
@example((MPoly(2, {(2, 0): F(1, 2), (0, 1): F(3, 4)}), [MPoly.zero(1), MPoly.const(1, F(5, 6))]))
def test_matches_the_fraction_expansion(case):
    p, images = case
    result = p.substitute(images)
    assert result == reference_substitute(p, images)
    assert_valid_mpoly(result)


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


def ring_expansion(p, images):
    """The textbook image: sum of c * prod(images[i]^e_i), built from MPoly ring operations."""
    expected = MPoly.zero(images[0].nvars)
    for exps, coeff in p.terms.items():
        term = MPoly.const(images[0].nvars, coeff)
        for img, e in zip(images, exps):
            term = term * img**e
        expected = expected + term
    return expected


def assert_ring_expansion(p, images):
    result = p.substitute(images)
    assert result == ring_expansion(p, images)
    assert_valid_mpoly(result)


@settings(max_examples=200, deadline=None)
@given(monomial_image_cases())
@example((MPoly(2, {(1, 0): F(1), (0, 1): F(-1)}), [MPoly.variable(1, 0), MPoly.variable(1, 0)]))
@example((MPoly(2, {(2, 1): F(3, 2), (0, 3): F(1)}), [MPoly(2, {(1, 1): F(-2, 3)}), MPoly(2, {(0, 2): F(5)})]))
def test_monomial_images_match_ring_products(case):
    assert_ring_expansion(*case)


# -- translations x_t + c onto distinct targets, and what falls back ----------

shifts = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.integers(-9, 9).map(lambda k: F(k, 2)),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@st.composite
def translation_cases(draw):
    """(p, images): image i is x_(targets[i]) + c_i, targets distinct and in any order.

    Any shift may be 0, so plain renames are drawn too.  p is nonzero, so
    that substitute does not take the zero shortcut.
    """
    source = draw(st.integers(1, 4))
    target = draw(st.integers(source, 5))
    p = draw(mpolys(source, max_deg=4, max_terms=6).filter(bool))
    targets = draw(st.permutations(range(target)))[:source]
    return p, [MPoly.variable(target, t) + draw(shifts) for t in targets]


def x(nvars, index):
    return MPoly.variable(nvars, index)


P2 = MPoly(2, {(3, 1): F(2, 3), (1, 2): F(-5), (0, 0): F(7, 4), (2, 0): F(1)})


@settings(max_examples=200, deadline=None)
@given(translation_cases())
@example((P2, [x(2, 0) + 3, x(2, 1) - 2]))  # integer shifts
@example((P2, [x(2, 0) + F(3, 2), x(2, 1) - F(1, 2)]))  # half-integer shifts, as in a rho-shift at even n
@example((P2, [x(3, 2) + F(1, 3), x(3, 0) + F(5, 4)]))  # mixed denominators, targets out of order
@example((P2, [x(2, 1), x(2, 0) + F(1, 2)]))  # one zero shift, the targets swapped
@example((P2, [x(2, 0), x(2, 1)]))  # the identity
@example((P2, [x(2, 1), x(2, 0)]))  # a rename that swaps the targets
@example((P2, [x(5, 4), x(5, 1)]))  # a rename into a larger ring, targets out of order
@example((MPoly(3, {(1, 2, 0): F(1, 6), (0, 0, 3): F(-2, 3)}), [x(4, 2), x(4, 0), x(4, 3)]))  # a rename over den 6
def test_translations_match_ring_products(case):
    p, images = case
    assert p and _translation(images) is not None
    assert_ring_expansion(p, images)


def _break_repeated_target(images, draw):
    t = max(images[0].terms, key=sum).index(1)
    return images + [MPoly.variable(images[0].nvars, t) + draw(shifts)]


def _break_coefficient(images, draw):
    c = draw(coefficients.filter(lambda c: c not in (0, 1)))
    return images[:-1] + [c * images[-1]]


def _break_square(images, draw):
    return images[:-1] + [images[-1] * images[-1]]


def _break_two_variables(images, draw):
    nvars = images[0].nvars
    return images[:-1] + [images[-1] + MPoly.variable(nvars, draw(st.integers(0, nvars - 1)))]


def _break_constant(images, draw):
    return images[:-1] + [MPoly.const(images[0].nvars, draw(coefficients))]


@st.composite
def fallback_cases(draw):
    """(p, images): translations with one image broken so that the general path must run."""
    _, images = draw(translation_cases())
    breaks = [_break_repeated_target, _break_coefficient, _break_square, _break_two_variables, _break_constant]
    images = draw(st.sampled_from(breaks))(images, draw)
    return draw(mpolys(len(images), max_deg=3, max_terms=5)), images


@settings(max_examples=200, deadline=None)
@given(fallback_cases())
@example((P2, [x(2, 0) + 1, x(2, 0) - 1]))  # repeated target
@example((P2, [x(2, 0) + 1, 2 * x(2, 1) + 1]))  # coefficient other than 1
@example((P2, [x(2, 0) + 1, x(2, 1) ** 2 + 1]))  # a square
@example((P2, [x(2, 0) + 1, x(2, 0) + x(2, 1) + F(1, 2)]))  # two variables
@example((P2, [x(2, 0) + 1, MPoly.const(2, F(-3, 2))]))  # a constant
def test_fallback_images_match_ring_products(case):
    p, images = case
    assert _translation(images) is None
    assert_ring_expansion(p, images)


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
    assert_ring_expansion(*case)


def eliminated_by_reference(p):
    head = [MPoly.variable(p.nvars - 1, i) for i in range(p.nvars - 1)]
    return reference_substitute(p, head + [-sum(head, MPoly.zero(p.nvars - 1))])


@pytest.mark.parametrize(
    "p",
    [
        MPoly(1, {(3,): F(2, 3), (1,): F(-1), (0,): F(5, 4)}),  # N = 1: a_1 maps to the empty sum, leaving p(0)
        MPoly(1, {(2,): F(-1, 2)}),  # N = 1 without a constant term: zero in no variables
        MPoly(2, {(2, 3): F(1, 2), (0, 1): F(-3, 7), (1, 0): F(2)}),
        MPoly(3, {(1, 2, 4): F(5, 6), (0, 0, 3): F(-1, 10), (2, 1, 0): F(3, 4)}),
        MPoly.zero(1),
        MPoly.zero(3),
        MPoly.const(1, 4),
        MPoly.const(2, F(-7, 3)),
        MPoly(3, {(0, 0, 255): F(1), (3, 0, 250): F(1, 2)}),  # degree 255, the largest one packed per byte
        MPoly(3, {(0, 0, 256): F(2, 3), (1, 1, 0): F(1)}),  # degree 256 takes substitute
    ],
)
def test_elimination_edge_cases_match_the_fraction_expansion(p):
    result = eliminate_last_var(p)
    assert result == eliminated_by_reference(p) and result.nvars == p.nvars - 1
    assert_valid_mpoly(result)


def test_elimination_of_one_variable_is_the_constant_term():
    assert eliminate_last_var(MPoly(1, {(3,): F(2, 3), (0,): F(5, 4)})) == MPoly.const(0, F(5, 4))


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: mpolys(n, max_deg=4, max_terms=6)))
def test_elimination_matches_the_fraction_expansion(p):
    assert eliminate_last_var(p) == eliminated_by_reference(p)


def test_rho_shift_of_a_casimir_sum():
    total = casimir_eigenvalue_patterned(CasimirRequest(m=5, n=8, shifted=False))
    images = [parameter(v, 8, True) for v in range(1, 9)]
    assert total.substitute(images) == reference_substitute(total, images)


def test_elimination_of_a_shifted_casimir_sum():
    total = casimir_eigenvalue_patterned(CasimirRequest(m=4, n=10))
    assert eliminate_last_var(total) == eliminated_by_reference(total)


@pytest.mark.parametrize("entries", [(1, 4, 2, 5, 3, 6, 2, 7), (1, 3, 2, 4, 1, 2, 5, 3), (1, 1, 2, 1, 3, 2, 1, 4)])
@pytest.mark.parametrize("shifted", [False, True])
def test_pattern_oracle_at_parameters(entries, shifted):
    order = relative_order(IndexTuple(entries, 9))
    oracle = oracle_eigenvalue(IndexTuple(order.rho, order.ell))
    values = [2 * v + 1 for v in order.values]
    images = [parameter(v, 16, shifted) for v in values]
    assert oracle.substitute(images) == reference_substitute(oracle, images)


# -- specialise: the pattern-to-tuple map of both verify routes ----------------


@st.composite
def specialise_cases(draw):
    """(poly, values, n, shifted): a polynomial in ell rank variables, ell distinct values in 1..n."""
    ell = draw(st.integers(1, 4))
    n = draw(st.integers(ell, ell + 4))
    values = tuple(sorted(draw(st.lists(st.integers(1, n), min_size=ell, max_size=ell, unique=True))))
    poly = draw(st.one_of(st.just(MPoly.zero(ell)), coefficients.map(lambda c: MPoly.const(ell, c)), mpolys(ell)))
    return poly, values, n, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(specialise_cases())
@example((MPoly.zero(2), (1, 3), 4, True))
@example((MPoly.const(1, F(-5, 3)), (2,), 2, True))
@example((P2, (1, 2), 2, True))  # a half-integer rho-shift
@example((P2, (2, 5), 5, True))  # an integer rho-shift, one of them zero
@example((P2, (3, 4), 6, False))
def test_specialise_is_substitute_at_the_parameters(case):
    poly, values, n, shifted = case
    result = specialise(poly, values, n, shifted)
    assert result == poly.substitute([parameter(v, n, shifted) for v in values])
    assert result.nvars == n
    assert_valid_mpoly(result)


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
