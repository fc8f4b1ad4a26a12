"""Ground-truth eigenvalues via exact Iwasawa/Gram-Schmidt computation.

Everything runs in the multilinear truncated algebra Q[a][t1..tm] with
t_j^2 = 0 (a "jet").  In that quotient the mixed partial d^m/dt1..dtm at 0
is literally the coefficient of t1*...*tm, so the analytic recipe

    build the inverse factor matrix -> orthogonalize its columns ->
    read off the diagonal Gram norms -> raise them to -x/2 ->
    extract the top coefficient

becomes exact polynomial arithmetic.  The truncation is sound because
each t_j occurs in exactly one matrix factor and only the full monomial
is extracted at the end: every discarded term carries some t_j^2.

No zero pattern reaches the Gram matrix, at any order.  Whenever the
first rank rho_1 is above 1, one factor can be moved past the later ones
into the unipotent N of the Iwasawa decomposition g = kan, where
a(gn) = a(g), so its t_k reaches no Gram norm and the eigenvalue is zero;
``_factor_in_n`` names that factor, and its docstring holds the lemma and
the proof.  These are exactly the zero patterns of the fast path, an
entry below i1, so the oracle proves that rule independently, read off
the factor list alone, and every pattern that reaches the Gram matrix
starts at rank 1.

Orthogonalizing the columns is never spelled out: the Gram norms are the
pivots d_v of the LDL^T factorization of the Gram matrix G = M^T M, which
are the norms Gram-Schmidt would give.  G never goes through M: it starts
at I and takes one rank-two update per factor, each a mask shift.  A
pivot equal to 1 is not inverted.  The last pivot takes no LDL^T row:
det G = det(M)^2 is the product of (1 - t_j)^2 = 1 - 2 t_j over the loop
factors, so the last pivot is that product times the inverses of the
other pivots, which the LDL^T has formed already.

Jet coefficients are ints.  The Gram phase never leaves the integers:
the matrix entries are +-1 path counts, and every pivot has constant
term 1, so inverting it is an integer geometric series.  Polynomials in
the rank variables only enter through the exponents -x/2 of the final
power stage.  ``Jet.power`` writes each coefficient of norm^beta as
an integer combination of the binomials C(beta, k), whose numerators
share one denominator, and returns those integer numerators with it,
with no MPoly per mask.  The product of the powers runs on the
numerators, its last factor only forms the top coefficient, and the
product of the denominators becomes the result's own, so the power stage
builds one MPoly and no Fraction.

The oracle takes a rank pattern rho, whose entries are exactly 1..ell,
and returns its eigenvalue as a polynomial in the ell rank variables x_v,
pivot v raised to -x_v/2.  Every step is a ring operation, so this is
the eigenvalue of every tuple with the pattern under the ring map from
rank k to the plain or rho-shifted parameter of its k-th smallest value.
verify_tuples applies it with tuplegraph.specialise, whose _rank_map is
the package's one rho-shift at a concrete rank; the oracle itself shares
only ``ratpoly`` with the fast path.

``Jet`` keeps the three operations the oracle runs: the product, the
inverse and the power of a pivot.  Jet multiplication goes through one
kernel, ``_add_product``, which accumulates sign * a * b into a single
dict and skips overlapping masks.  ``Jet.__mul__``, the pivot updates and
the powers of nu = norm - 1 all accumulate through it, and each result
is wrapped once by the unchecked ``Jet`` constructor: products of valid
jets cannot produce an invalid mask.  A matrix factor multiplies by a
single t_j, which only shifts masks in G.  ``eigenvalue_from_norms``
multiplies the powers in its own loop over disjoint mask pairs instead.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .ratpoly import Exponent, MPoly, _mul_terms, alpha


class Jet:
    """Element of Z[t1..tm] / (t1^2, ..., tm^2): a pivot of the oracle's LDL^T.

    Coefficients are keyed by bitmask over the m deformation variables
    (bit j-1 set means t_j divides the monomial); zero coefficients are
    never stored.  The constructor checks nothing and only drops zeros: it
    relies on every mask being below 2^m, which holds because the oracle's
    jets come from mask shifts of the factor list and ``_add_product`` only
    forms unions of disjoint masks.  The class has only what the oracle
    runs; the reference algebra, with its checks and every ring operation,
    is in the tests.  The powers of nu = self - 1, which both ``inv`` and
    ``power`` sum, are formed on the first call of either and kept: the
    oracle inverts a pivot in the Gram phase and raises the same pivot in
    the power stage.
    """

    __slots__ = ("m", "coeffs", "_powers")

    def __init__(self, m: int, coeffs: dict[int, int]):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", {mask: c for mask, c in coeffs.items() if c})
        object.__setattr__(self, "_powers", None)

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    def __mul__(self, other: Jet) -> Jet:
        return Jet(self.m, _add_product({}, self.coeffs, other.coeffs))

    def _powers_of_nu(self) -> list[dict[int, int]]:
        """nu, nu^2, ... for nu = self - 1, formed once per jet; the constant term must be 1, as every pivot's is."""
        if self._powers is None:
            if self.coeffs.get(0) != 1:
                raise RuntimeError("inv() and power() need constant term 1")
            object.__setattr__(self, "_powers", _nu_powers({mask: c for mask, c in self.coeffs.items() if mask}))
        return self._powers

    def inv(self) -> Jet:
        """1 / (1 + nu) as the terminating geometric series 1 - nu + nu^2 - ...

        The powers of nu, at most m of them, are summed with alternating
        signs and wrapped once; the result stays integral.
        """
        out = {0: 1}
        for k, power in enumerate(self._powers_of_nu(), start=1):
            for mask, c in power.items():
                if k % 2:
                    c = -c
                out[mask] = out[mask] + c if mask in out else c
        return Jet(self.m, out)

    def power(self, beta: MPoly) -> tuple[int, dict[int, dict[Exponent, int]]]:
        """(1 + nu)^beta = sum_k C(beta, k) nu^k as (den, numerators).

        The coefficient of the mask S is the polynomial numerators[S] / den
        in beta's ring, with integer numerators: the binomials
        C(beta, k) come from ``_binomials`` over one common denominator
        den, so each mask's numerator is the integer combination
        sum_k nu^k[S] * den * C(beta, k).  The constant mask is den itself.
        Numerators that cancel stay as zeros.
        """
        den, binomials = _binomials(beta, self.m)
        out = {0: {(0,) * beta.nvars: den}}
        for power, binomial in zip(self._powers_of_nu(), binomials):
            for mask, c in power.items():
                acc = out.setdefault(mask, {})
                for e, b in binomial.items():
                    acc[e] = acc[e] + c * b if e in acc else c * b
        return den, out


def _add_product(
    out: dict[int, object], a: dict[int, object], b: dict[int, object], sign: int = 1
) -> dict[int, object]:
    """Accumulate sign * a * b into ``out`` and return it; a, b are coefficient dicts.

    The one loop over mask pairs.  A pair with overlapping masks carries
    some t_j^2 and dies in the truncation, so it is skipped.  Entries that
    cancel stay in ``out`` as zeros until the ``Jet`` constructor drops them.
    """
    for s1, c1 in a.items():
        if sign != 1:
            c1 = sign * c1
        for s2, c2 in b.items():
            if s1 & s2:
                continue
            mask = s1 | s2
            prod = c1 * c2
            out[mask] = out[mask] + prod if mask in out else prod
    return out


def _nu_powers(nu: dict[int, object]) -> list[dict[int, object]]:
    """nu, nu^2, ... up to the last nonzero power, for a coefficient dict without a constant.

    Each power raises the smallest mask size by one, so there are at most m.
    """
    powers = []
    while nu:
        powers.append(nu)
        nu = {mask: c for mask, c in _add_product({}, nu, powers[0]).items() if c}
    return powers


@functools.lru_cache(maxsize=None)
def _binomials(beta: MPoly, top: int) -> tuple[int, tuple[dict[Exponent, int], ...]]:
    """C(beta, k) for k = 1..top as integer term dicts over one common denominator.

    Keyed on beta's value, so equal polynomials are one cache entry.  With
    beta = B/d, its numerators over its denominator, C(beta, k) is the
    falling product (B)(B - d)...(B - (k-1)d) over d^k k!, so every
    numerator is an integer product scaled up to the denominator
    d^top top!.  Cached: the values are never mutated, and verify asks for
    the same few exponents -x/2 on every pattern of an order.
    """
    d = beta.den
    const = (0,) * beta.nvars
    falling = {const: 1}
    numerators = []
    for k in range(1, top + 1):
        factor = dict(beta.nums)
        factor[const] = factor.get(const, 0) - (k - 1) * d
        falling = _mul_terms(falling, factor)
        scale = d ** (top - k) * (math.factorial(top) // math.factorial(k))
        numerators.append({e: c * scale for e, c in falling.items() if c})
    return d**top * math.factorial(top), tuple(numerators)


class JetMatrix(NamedTuple):
    """The inverse factor matrix prod_j (I - t_j * E_{a_j, b_j}), kept as its factors.

    ``factors`` holds the m rank pairs (a_j, b_j) = (rho_j, rho_{j+1}),
    0-based, in the order they multiply; no factors is the identity.  Its
    constant part is the identity by construction.
    """

    size: int
    m: int
    factors: tuple[tuple[int, int], ...]


def build_inverse_matrix(rho: tuple[int, ...]) -> JetMatrix:
    """Product of the inverse factors of the rank pattern rho, whose entries are exactly 1..ell.

    The factor for j = 1..m is I - t_j * E_{rho(j), rho(j+1)}, with
    rho(m+1) = rho(1); the result keeps these rank pairs and never
    multiplies them out.  A loop edge's exact factor has t_j/(1+t_j) in
    place of t_j, but those agree once t_j^2 = 0, so a single factor shape
    covers both.
    """
    ranks = [r - 1 for r in rho]
    return JetMatrix(size=max(rho), m=len(rho), factors=tuple(zip(ranks, ranks[1:] + ranks[:1])))


def _factor_in_n(matrix: JetMatrix) -> int | None:
    """The index of a factor that moves into N, which makes the eigenvalue 0; None if rho_1 = 1.

    Write M = M1 F_k M2, with F_k = I - t_k E_{a,b} a factor with a != b
    and M2 the factors after it.  Then F_k M2 = M2 (I - t_k u w^T) with
    u = M2^-1 e_a and w^T = e_b^T M2.  Walking the later factors (a_i, b_i)
    from {a} and {b}, u gains a_i when it holds b_i, and w gains b_i when
    it holds a_i.  When every rank of u is below every rank of w, u w^T is
    strictly upper triangular and the moved factor is in N.  By the
    Iwasawa decomposition g = kan, a(gn) = a(g) for every unipotent
    upper-triangular n, so the Gram matrices of M and M1 M2 have the same
    leading principal minors: t_k, which occurs in no other factor,
    reaches no Gram norm, and the eigenvalue is zero.

    Lemma: if r = rho_1 > 1 and k is the last position with rho_k < r,
    factor k moves into N.  Factor k is (rho_k, rho_{k+1}), with
    rho_{m+1} = rho_1, so rho_{k+1} >= r > rho_k and it is not a loop.
    Every later factor has both ranks >= r.  So no b_i is in u, which stays
    {rho_k}, and w starts at rho_{k+1} and gains only b_i's, so its lowest
    rank is >= r.  Hence every pattern whose first rank is not 1 is zero,
    at every order.  The index returned is k - 1, 0-based like the ranks.
    """
    first = matrix.factors[0][0]
    if first == 0:
        return None
    return max(k for k, (a, _) in enumerate(matrix.factors) if a < first)


_UNIT = {0: 1}  # coefficients of the jet 1


def _gram_matrix(matrix: JetMatrix) -> list[list[dict[int, object]]]:
    """G = M^T M as coefficient dicts, built from the factors without forming M.

    G starts at I, and each F_j = I - t_j E_{a,b} turns it into
    F_j^T G F_j, a rank-two update.  No entry has bit j before step j and
    t_j^2 = 0, so G_ib = G_bi gains -t_j G_ia for every i != b and G_bb
    gains -2 t_j G_ab (G_aa (1 - 2 t_j) when a = b), each a mask shift into
    new keys.  Entries (r, c) and (c, r) are one dict, so an update writes
    both.
    """
    ell = matrix.size
    gram: list[list[dict[int, object]]] = [[{0: 1} if r == c else {} for c in range(ell)] for r in range(ell)]
    for r in range(ell):
        for c in range(r):
            gram[r][c] = gram[c][r]
    for j, (a, b) in enumerate(matrix.factors):
        bit = 1 << j
        # column a is read in full before column b changes, as a may equal b
        shifts = [(i, [(mask | bit, -c) for mask, c in g.items()]) for i, g in enumerate(gram[a]) if g and i != b]
        gram[b][b].update([(mask | bit, -2 * c) for mask, c in gram[a][b].items()])
        for i, shift in shifts:
            gram[b][i].update(shift)
    return gram


def gram_schmidt_norms(matrix: JetMatrix) -> list[Jet]:
    """Gram norms <b_v, b_v> of the orthogonalized columns, in order.

    These are the pivots d_v of the LDL^T factorization of the Gram
    matrix G = M^T M, the same jets classical Gram-Schmidt gives: both are
    ratios of consecutive leading principal minors of G.  G comes from
    the matrix factors by rank-two updates (``_gram_matrix``); then, with
    W = L D built row by row for v < ell - 1,

        W_vk = G_vk - sum_{j<k} W_vj L_kj,   L_vk = W_vk / d_k,
        d_v  = G_vv - sum_{k<v} W_vk L_vk.

    Division only ever happens by pivots, whose constant terms are 1 for
    inverse-factor matrices, so every intermediate stays exactly
    representable.  A pivot equal to 1 is not inverted and L_vk = W_vk.
    The last pivot takes no row: det G = det(M)^2, and det M is the
    product of 1 - t_j over the loop factors, so

        d_{ell-1} = prod_{loops} (1 - 2 t_j) * prod_{v < ell-1} d_v^-1,

    from the inverses the rows have formed.  All ell pivots are returned.
    """
    ell, m = matrix.size, matrix.m
    gram = _gram_matrix(matrix)
    norms: list[Jet] = []
    inverses: list[Jet | None] = []  # None for a unit pivot
    lower: list[list[dict[int, object]]] = []  # lower[v][k] = L_vk
    for v in range(ell - 1):
        w_row: list[dict[int, object]] = []
        l_row: list[dict[int, object]] = []
        for k in range(v):
            w = _minus_products(gram[v][k], zip(w_row, lower[k]))
            w_row.append(w)
            inverse = inverses[k]
            l_row.append((Jet(m, w) * inverse).coeffs if w and inverse is not None else w)
        norms.append(Jet(m, _minus_products(gram[v][v], zip(w_row, l_row))))
        lower.append(l_row)
        inverses.append(None if norms[-1].coeffs == _UNIT else norms[-1].inv())
    last = dict(_UNIT)  # det G = prod (1 - 2 t_j) over the loops, then divided by each earlier pivot
    for j, (a, b) in enumerate(matrix.factors):
        if a == b:
            last.update([(mask | (1 << j), -2 * c) for mask, c in last.items()])
    for inverse in inverses:
        if inverse is not None:
            last = _add_product({}, last, inverse.coeffs)
    norms.append(Jet(m, last))
    return norms


def _minus_products(g: dict[int, object], pairs: Iterable[tuple[dict, dict]]) -> dict[int, object]:
    """g - sum x*y over the pairs, without zeros; g itself when no pair has two nonzero operands."""
    out = None
    for x, y in pairs:
        if x and y:
            out = _add_product(dict(g) if out is None else out, x, y, -1)
    return g if out is None else {mask: c for mask, c in out.items() if c}


def eigenvalue_from_norms(norms: Sequence[Jet]) -> MPoly:
    """Extract the top coefficient of prod_v norm_v^(-x_v / 2), in the ell = len(norms) rank variables x_v.

    Zero patterns never get here from ``oracle_eigenvalue``; on one, the
    t_k of the factor ``_factor_in_n`` names divides no pivot's monomial,
    so the top coefficient comes out zero with no special case.  A pivot
    equal to 1 contributes the factor 1.
    Every other factor comes from ``Jet.power`` as integer numerators over
    one denominator; the product runs on the numerators, and the
    denominators multiply up separately until the result takes them as its
    own.  The last of these factors F only meets the running product P in
    the top coefficient sum_S P[S] * F[full - S], so no other mask of the
    full product is formed.
    """
    ell = len(norms)
    full = (1 << norms[0].m) - 1
    factors = [(rank, norm) for rank, norm in enumerate(norms, start=1) if norm.coeffs != _UNIT]
    den = 1
    product: dict[int, dict[Exponent, int]] = {0: {(0,) * ell: 1}}
    top: dict[Exponent, int] = {}
    for rank, norm in factors:
        beta = alpha(rank, ell) * Fraction(-1, 2)
        factor_den, factor = norm.power(beta)
        den *= factor_den
        if rank == factors[-1][0]:
            for mask, p in product.items():
                f = factor.get(full ^ mask)
                if f is not None:
                    _mul_terms(p, f, top)
            break
        grown: dict[int, dict[Exponent, int]] = {}
        for s1, p in product.items():
            for s2, f in factor.items():
                if not s1 & s2:
                    _mul_terms(p, f, grown.setdefault(s1 | s2, {}))
        product = grown
    return MPoly._trusted(ell, den, top)


def oracle_eigenvalue(rho: tuple[int, ...]) -> MPoly:
    """Independent eigenvalue of the rank pattern rho, a polynomial in its ell rank variables.

    This never looks at proper cycles: it follows the Iwasawa route
    (inverse factor matrix, Gram norms as LDL^T pivots, -x/2 powers,
    mixed partial) in exact arithmetic.  A pattern whose first rank is not
    1 has a factor that moves into N, so it is zero before any Gram or
    LDL^T work (``_factor_in_n``), at every order: these are the patterns
    the fast path's rule, an entry below i1, calls zero.
    """
    matrix = build_inverse_matrix(rho)
    if _factor_in_n(matrix) is not None:
        return MPoly._trusted(matrix.size, 1, {})
    return eigenvalue_from_norms(gram_schmidt_norms(matrix))
