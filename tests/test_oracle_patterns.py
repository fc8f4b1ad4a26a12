"""The jet oracle on every relative-order pattern of small orders.

Both routes read a tuple only through its relative order, so a check over
all patterns of order m covers every tuple of that order.  The reference
implementations below are the plain textbook forms of two oracle stages:
the Gram matrix as inner products of the matrix columns and classical
Gram-Schmidt on jets.  They run on the reference jet algebra in
``references``, which also holds the full product of the norm powers at
a tuple's own parameters, the matrix multiplied out from its factors and
the support walk that moves a factor into N, against which
``_factor_in_n``'s lemma is checked.  The oracle returns a polynomial in
the rank variables; a tuple's value is that polynomial under the
reference ring map ``substitute``.  The oracle's pivots are compared
through their ``.coeffs``.
"""

import functools

import pytest

from casimir_eigen import jetoracle
from casimir_eigen.jetoracle import (
    _factor_in_n,
    _gram_matrix,
    build_inverse_matrix,
    eigenvalue_from_norms,
    gram_schmidt_norms,
    oracle_eigenvalue,
)
from casimir_eigen.tuplegraph import IndexTuple, elementary_eigenvalue, relative_order
from references import (
    Jet,
    factor_in_n,
    full_product_top,
    matrix_entries,
    moves_into_n,
    parameter,
    substitute,
)


def patterns(m):
    """Every relative order of an m-tuple: the tuples over 1..ell using each rank, lexicographic per ell.

    A prefix is extended by a rank only while the ranks it leaves unused
    still fit in the positions after it, so no tuple is built and dropped.
    """

    def grow(prefix, unused, ell):
        if len(prefix) == m:
            yield prefix
            return
        room = m - len(prefix) - 1
        for v in range(1, ell + 1):
            rest = unused - {v}
            if len(rest) <= room:
                yield from grow(prefix + (v,), rest, ell)

    for ell in range(1, m + 1):
        yield from grow((), frozenset(range(1, ell + 1)), ell)


SMALL = [rho for m in range(1, 6) for rho in patterns(m)]


def pattern_tuple(rho):
    return IndexTuple(rho, max(rho))


def inner(x, y):
    total = Jet.zero(x[0].m)
    for a, b in zip(x, y):
        total = total + a * b
    return total


def classical_gram_schmidt_norms(matrix):
    """Orthogonalize the columns one after another and return <b_v, b_v>."""
    entries = matrix_entries(matrix)
    basis, norms = [], []
    for v in range(matrix.size):
        column = [row[v] for row in entries]
        reduced = list(column)
        for prev, norm in zip(basis, norms):
            proj = inner(column, prev) * norm.inv()
            reduced = [r - proj * p for r, p in zip(reduced, prev)]
        basis.append(reduced)
        norms.append(inner(reduced, reduced))
    return norms


def pivot_support(norms):
    """The union of the pivots' masks: the t_j that reach some Gram norm."""
    support = 0
    for norm in norms:
        for mask in norm.coeffs:
            support |= mask
    return support


def test_small_orders_have_633_patterns():
    assert len(SMALL) == len(set(SMALL)) == 1 + 3 + 13 + 75 + 541


@functools.lru_cache(maxsize=None)
def at_pattern_tuple(poly, shifted):
    """A pattern polynomial at the plain or rho-shifted parameters of its pattern tuple, whose values are 1..ell.

    Many patterns share one oracle polynomial (390 distinct ones among
    the 9,366 nonzero patterns of order 7), so the images are memoised on
    the polynomial's value.
    """
    ell = poly.nvars
    return substitute(poly, [parameter(v, ell, shifted) for v in range(1, ell + 1)])


def assert_oracle_is_the_fast_path(rhos):
    for rho in rhos:
        t = pattern_tuple(rho)
        oracle = oracle_eigenvalue(rho)
        for shifted in (False, True):
            assert at_pattern_tuple(oracle, shifted) == elementary_eigenvalue(t, shifted), (rho, shifted)


def test_oracle_equals_fast_path_on_every_pattern_up_to_order_five():
    assert_oracle_is_the_fast_path(SMALL)


@pytest.mark.slow
@pytest.mark.parametrize("m, count", [(6, 4683), (7, 47293)])
def test_oracle_equals_fast_path_on_every_pattern_of_order(m, count):
    rhos = list(patterns(m))
    assert len(rhos) == count
    assert_oracle_is_the_fast_path(rhos)


def test_rank_two_updates_give_the_gram_matrix_of_the_entries():
    for rho in SMALL:
        matrix = build_inverse_matrix(rho)
        entries = matrix_entries(matrix)
        columns = [[row[c] for row in entries] for c in range(matrix.size)]
        gram = _gram_matrix(matrix)
        for r, x in enumerate(columns):
            for c, y in enumerate(columns):
                assert Jet(matrix.m, gram[r][c]) == inner(x, y), (rho, r, c)


def test_every_zero_pattern_leaves_a_variable_out_of_every_pivot():
    # zero as the textbook full product says, which never looks at the support
    zero_patterns = dict.fromkeys(range(1, 6), 0)
    for rho in SMALL:
        t = pattern_tuple(rho)
        norms = gram_schmidt_norms(build_inverse_matrix(rho))
        if full_product_top(norms, relative_order(t), t, False):
            continue
        zero_patterns[t.m] += 1
        assert pivot_support(norms) != (1 << t.m) - 1, rho
    assert list(zero_patterns.values()) == [0, 1, 7, 49, 391]


@pytest.mark.parametrize("m, zero", [(6, 3601), pytest.param(7, 37927, marks=pytest.mark.slow)])
def test_support_proof_settles_every_zero_pattern_of_order(m, zero):
    # the full route, without the factor moved into N: the pivots cover
    # every t_j exactly on the nonzero patterns, and the fast path is zero
    # exactly when some entry is below the first, i.e. when rho does not
    # start at 1
    full = (1 << m) - 1
    missed = 0
    for rho in patterns(m):
        norms = gram_schmidt_norms(build_inverse_matrix(rho))
        if pivot_support(norms) != full:
            missed += 1
        else:
            assert eigenvalue_from_norms(norms), rho
    assert missed == zero == sum(rho[0] != 1 for rho in patterns(m))


def tail_rule(matrix):
    """The AN-tail case of the proof: the last non-loop factor has a < b, so it and the loops after it lie in AN."""
    for a, b in reversed(matrix.factors):
        if a != b:
            return a < b
    return False


def test_factor_in_n_is_sound_up_to_order_five():
    # a(g n) = a(g): the t_j of the factor moved into N reaches no Gram norm
    proved = dict.fromkeys(range(1, 6), 0)
    for rho in SMALL:
        t = pattern_tuple(rho)
        matrix = build_inverse_matrix(rho)
        j = _factor_in_n(matrix)
        if j is None:
            continue
        proved[t.m] += 1
        assert matrix.factors[j][0] != matrix.factors[j][1], rho
        norms = gram_schmidt_norms(matrix)
        assert not pivot_support(norms) & (1 << j), rho
        order = relative_order(t)
        for shifted in (False, True):
            assert not full_product_top(norms, order, t, shifted), (rho, shifted)
    assert list(proved.values()) == [0, 1, 7, 49, 391]


@pytest.mark.parametrize(
    "m, count, zero",
    [
        (1, 1, 0),
        (2, 3, 1),
        (3, 13, 7),
        (4, 75, 49),
        (5, 541, 391),
        (6, 4683, 3601),
        (7, 47293, 37927),
        pytest.param(8, 545835, 451249, marks=pytest.mark.slow),
    ],
)
def test_factor_in_n_fires_exactly_on_the_zero_patterns_of_order(m, count, zero):
    # the lemma: when rho_1 > 1, the last k with rho_k < rho_1 names a factor that moves into N, and it is
    # the last one the support walk moves; when rho_1 = 1 no factor moves, and the fast path is nonzero
    seen = fired = 0
    for rho in patterns(m):
        matrix = build_inverse_matrix(rho)
        k = _factor_in_n(matrix)
        if rho[0] == 1:
            assert k is None, rho
        else:
            assert k == max(i for i, v in enumerate(rho) if v < rho[0]), rho
            assert moves_into_n(matrix.factors, k), rho
        assert k == factor_in_n(matrix.factors), rho
        assert k is not None or not tail_rule(matrix), rho
        seen += 1
        fired += k is not None
    assert (seen, fired) == (count, zero)


def coeffs(norms):
    return [norm.coeffs for norm in norms]


def assert_norms_are_classical_gram_schmidt(rhos):
    for rho in rhos:
        matrix = build_inverse_matrix(rho)
        assert coeffs(gram_schmidt_norms(matrix)) == coeffs(classical_gram_schmidt_norms(matrix)), rho


def test_norms_equal_classical_gram_schmidt_on_every_pattern():
    assert_norms_are_classical_gram_schmidt(SMALL)


@pytest.mark.slow
def test_norms_equal_classical_gram_schmidt_on_every_pattern_of_order_six():
    rhos = list(patterns(6))
    assert len(rhos) == 4683
    assert_norms_are_classical_gram_schmidt(rhos)


@pytest.mark.parametrize("m", range(1, 8))
def test_one_rank_pivot_is_the_determinant(m):
    # ell = 1: every factor is a loop, M = prod (1 - t_j) and d_0 = det G = prod (1 - 2 t_j)
    matrix = build_inverse_matrix((1,) * m)
    assert all(a == b == 0 for a, b in matrix.factors)
    expected = Jet(m, {mask: (-2) ** bin(mask).count("1") for mask in range(1 << m)})
    assert coeffs(gram_schmidt_norms(matrix)) == coeffs(classical_gram_schmidt_norms(matrix)) == [expected.coeffs]


@pytest.mark.parametrize("rho", [(1, 3, 2, 4, 2, 3), (3, 1, 4, 2, 5, 1, 2)])
def test_pivots_of_a_pattern_without_loops_have_product_one(rho):
    # no loop factor: det M = 1, so the product of the pivots is det G = 1
    matrix = build_inverse_matrix(rho)
    assert all(a != b for a, b in matrix.factors)
    norms = gram_schmidt_norms(matrix)
    assert coeffs(norms) == coeffs(classical_gram_schmidt_norms(matrix))
    product = Jet.one(matrix.m)
    for norm in norms:
        product = product * Jet(matrix.m, norm.coeffs)
    assert product == 1


def test_eigenvalue_is_the_top_of_the_full_product_on_every_pattern():
    for rho in SMALL:
        t = pattern_tuple(rho)
        norms = gram_schmidt_norms(build_inverse_matrix(rho))
        order = relative_order(t)
        value = eigenvalue_from_norms(norms)
        for shifted in (False, True):
            images = [parameter(v, t.n, shifted) for v in order.values]
            assert substitute(value, images) == full_product_top(norms, order, t, shifted), rho


def test_each_nonunit_pivot_forms_its_nu_powers_once(monkeypatch):
    # Jet.inv in the Gram phase and Jet.power in the power stage share the powers of nu = pivot - 1
    calls = []
    form = jetoracle._nu_powers
    monkeypatch.setattr(jetoracle, "_nu_powers", lambda nu: calls.append(nu) or form(nu))
    inverted_and_raised = 0
    for rho in SMALL:
        nonunit = [norm.coeffs != {0: 1} for norm in gram_schmidt_norms(build_inverse_matrix(rho))]
        calls.clear()
        oracle_eigenvalue(rho)
        expected = sum(nonunit) if rho[0] == 1 else 0
        assert len(calls) == expected, rho
        inverted_and_raised += sum(nonunit[:-1]) if rho[0] == 1 else 0
    assert inverted_and_raised > 0


@pytest.mark.parametrize("entries", [(1, 4, 2, 5, 3, 6, 2, 7), (1, 3, 2, 4, 1, 2, 5, 3), (1, 1, 2, 1, 3, 2, 1, 4)])
@pytest.mark.parametrize("shifted", [False, True])
def test_oracle_reads_a_tuple_only_through_its_pattern(entries, shifted):
    # the direct evaluation at a tuple of rank 16 with the values 2v + 1, beyond its ell ranks,
    # is the pattern polynomial under the reference ring map to those values' parameters
    t = IndexTuple(tuple(2 * v + 1 for v in entries), 16)
    order = relative_order(t)
    norms = gram_schmidt_norms(build_inverse_matrix(order.rho))
    images = [parameter(v, t.n, shifted) for v in order.values]
    assert full_product_top(norms, order, t, shifted) == substitute(oracle_eigenvalue(order.rho), images)
