"""Property tests for MPoly.substitute, the ring homomorphism behind every change of variables."""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from casimir_eigen.ratpoly import MPoly, eliminate_last_var  # noqa: E402

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
    assert p.substitute(images).eval_at(point) == p.eval_at([g.eval_at(point) for g in images])


@SETTINGS
@given(st.integers(1, 4).flatmap(mpolys))
def test_identity_images_return_the_polynomial(p):
    assert p.substitute([MPoly.variable(p.nvars, i) for i in range(p.nvars)]) == p


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(mpolys(n), st.lists(coefficients, min_size=n - 1, max_size=n - 1))))
def test_eliminate_last_var_restricts_to_the_hyperplane(case):
    p, head = case
    assert eliminate_last_var(p).eval_at(head) == p.eval_at(head + [-sum(head, F(0))])


def test_image_count_must_match():
    with pytest.raises(ValueError):
        MPoly.variable(2, 0).substitute([MPoly.one(1)])


def test_images_must_share_a_ring():
    with pytest.raises(ValueError):
        MPoly.variable(2, 0).substitute([MPoly.one(1), MPoly.one(2)])


def test_constant_without_variables_is_unchanged():
    c = MPoly.const(0, F(3, 4))
    assert c.substitute([]) == c


def assert_valid_mpoly(r):
    """A ring-operation result is what the checked constructor would build."""
    for exps, coeff in r.terms.items():
        assert len(exps) == r.nvars and all(type(e) is int and e >= 0 for e in exps)
        assert type(coeff) is F and coeff, f"coefficient {coeff!r} at {exps}"
    assert r.terms == MPoly(r.nvars, r.terms).terms


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
