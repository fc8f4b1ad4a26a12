"""Casimir-operator eigenvalues: pattern-compressed sums, closed forms.

The order-m Casimir operator is the sum of all elementary operators over
tuples in {1..n}^m, so its eigenvalue is the corresponding sum of
proper-cycle products.  Because an elementary eigenvalue depends only on
the relative ordering of its tuple, the sum is grouped by
order-isomorphism class: the products of all patterns with ell distinct
values (tuplegraph.pattern_product, which elementary_eigenvalue reads
too) are summed once into one integer polynomial in ell rank variables,
shared by every rank n in the process, and every choice of ell actual
values only renames those variables, which moves exponents and multiplies
nothing.  The rho-shift is one MPoly.translate through the rank map of
the values 1..n (tuplegraph._rank_map), applied once to the whole sum in
integers.  The naive
sum over every tuple, which evaluates far more formulas to the same exact
polynomial, is the tests' reference (tests/references.py).

This module also hosts the cross-validation driver that compares the
fast proper-cycle path against the jet oracle tuple by tuple, under both
sign conventions and in both the plain and rho-shifted modes.  Both
routes work the same way: one polynomial per relative-order pattern (the
oracle's here, the proper-cycle product memoised in tuplegraph), and two
ring maps per tuple through tuplegraph.specialise, whose value-keyed memo
lets the routes share a specialisation when their polynomials agree; a
zero oracle polynomial takes no ring map.
verify_tuples imports the oracle when it starts, so the other
subcommands never load it.

Requests, selections and reports are typing.NamedTuple records; the ones
that validate their fields (CasimirRequest, RandomSample) do it in the
__new__ of a subclass of the bare record.
"""

from __future__ import annotations

import functools
import itertools
import random
import sys
from typing import Iterable, NamedTuple

from .ratpoly import ClosedForm, MPoly, interpolate_in_n, to_power_sum
from .tuplegraph import (
    IndexTuple,
    SignConvention,
    _check_rank,
    _memo_pattern_product,
    _rank_map,
    elementary_eigenvalue,
    pattern_product,
    relative_order,
    specialise,
)

# Terms of an integer polynomial: (exponent tuple, nonzero int coefficient) pairs.
IntTerms = tuple[tuple[tuple[int, ...], int], ...]

# The error lines' reason for a length no tuple or list can have.
ABOVE_MACHINE_SIZE = f"above the machine-size bound 2^{sys.maxsize.bit_length()} - 1"


def _check_order(m: int) -> None:
    if m < 1:
        raise ValueError("order m must be >= 1")
    if m > sys.maxsize:
        raise ValueError(f"order m = {m} is {ABOVE_MACHINE_SIZE}")


class _CasimirRequestFields(NamedTuple):
    m: int
    n: int
    shifted: bool = True
    sign: SignConvention = SignConvention.ALTERNATING


class CasimirRequest(_CasimirRequestFields):
    """What to compute: order m, rank n, shift and sign options."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> CasimirRequest:
        self = super().__new__(cls, *args, **kwargs)
        _check_order(self.m)
        _check_rank(self.n)
        return self

    @property
    def outside_standard_range(self) -> bool:
        """True when m > n; permitted experimentally but labeled in output."""
        return self.m > self.n


def _rank_patterns(m: int, max_ell: int) -> list[tuple[int, ...]]:
    """The nonzero rank tuples: surjections onto {1..ell}, ell <= max_ell, with first entry 1.

    Grown from (1,) in lexicographic order, placing a value only while the
    positions left can still take every value not yet used.
    """
    patterns: list[tuple[int, ...]] = []

    def grow(prefix: tuple[int, ...], unused: frozenset[int], ell: int) -> None:
        if len(prefix) == m:
            patterns.append(prefix)
            return
        room = m - len(prefix) - 1
        for v in range(1, ell + 1):
            rest = unused - {v}
            if len(rest) <= room:
                grow(prefix + (v,), rest, ell)

    for ell in range(1, min(m, max_ell) + 1):
        grow((1,), frozenset(range(2, ell + 1)), ell)
    return patterns


@functools.lru_cache(maxsize=None)
def _pattern_sums(m: int, max_ell: int) -> tuple[tuple[int, IntTerms], ...]:
    """(ell, P_ell) for ell = 1..max_ell: the sum of every nonzero rank pattern's product.

    P_ell is given by the (exponents, coefficient) terms of one polynomial
    in the ell rank variables, taken as printed: each request applies its
    sign convention when it relabels the terms, so both conventions share
    one entry.  Each pattern's product comes from pattern_product and is
    added in at once; none is kept.  Every proper-cycle factor is +-x plus
    0 or 1, so the coefficients are integers.  Cached per process: the
    sample ranks of closed_form share one computation.
    """
    acc: list[dict[tuple[int, ...], int]] = [{} for _ in range(max_ell + 1)]
    for pattern in _rank_patterns(m, max_ell):
        terms = acc[max(pattern)]
        product = pattern_product(pattern)
        assert product.den == 1, "proper-cycle factors have integer coefficients"
        for exps, coeff in product.nums.items():
            terms[exps] = terms.get(exps, 0) + coeff
    return tuple((ell, tuple((e, c) for e, c in acc[ell].items() if c)) for ell in range(1, max_ell + 1))


def casimir_eigenvalue_patterned(req: CasimirRequest) -> MPoly:
    """Sum of elementary eigenvalues over all of {1..n}^m, grouped by relative-order pattern.

    The nonzero patterns with ell distinct values sum to one integer
    polynomial P_ell in ell rank variables (see _pattern_sums).  Each
    choice of ell values v_1 < ... < v_ell from 1..n contributes P_ell
    with rank k renamed to x_{v_k}, which only moves exponents: the sum is
    Gessel's monomial quasisymmetric sum.  It is taken in the parameters
    x_v, signed by the request's convention, and the x_v are then replaced
    once by their rho-shifts when req.shifted: one translate through the
    rank map of the values 1..n, not specialise, whose memo would hash and
    keep the whole sum.  Zero patterns (some rank below the first) are
    never generated.
    """
    n, m = req.n, req.m
    sign = req.sign.factor(m)
    acc: dict[tuple[int, ...], int] = {}
    for ell, terms in _pattern_sums(m, min(m, n)):
        padded = [(exps + (0,), sign * c) for exps, c in terms]
        for values in itertools.combinations(range(n), ell):
            # position v takes the exponent of rank k when v = values[k], else the pad 0
            slots = [ell] * n
            for k, v in enumerate(values):
                slots[v] = k
            for exps, c in padded:
                key = tuple(map(exps.__getitem__, slots))
                acc[key] = acc.get(key, 0) + c
    total = MPoly._trusted(n, 1, acc)
    if req.shifted:
        total = total.translate(n, *_rank_map(tuple(range(1, n + 1)), n, True))
    return total


def closed_form(m: int) -> ClosedForm:
    """Eigenvalue of the order-m Casimir operator with rank n left symbolic.

    Computes the shifted sum exactly for n = m .. 2m+2, reduces each to
    the power-sum basis, and fits every partition coefficient as a
    polynomial in n of degree at most m+1 through all m+3 samples.  The
    result reproduces each sampled rank exactly (interpolate_in_n solves
    and checks every rank with the exact solver behind to_power_sum).
    """
    _check_order(m)
    samples = []
    for n in range(m, 2 * m + 3):
        request = CasimirRequest(m=m, n=n)
        samples.append((n, to_power_sum(casimir_eigenvalue_patterned(request))))
    return interpolate_in_n(samples, degree_bound=m + 1)


# -- fast path vs oracle -----------------------------------------------------


class Exhaustive(NamedTuple):
    """Verify every tuple in {1..n}^m."""


class _RandomSampleFields(NamedTuple):
    count: int
    seed: int


class RandomSample(_RandomSampleFields):
    """Verify a seeded random sample of distinct tuples."""

    __slots__ = ()

    def __new__(cls, count: int, seed: int) -> RandomSample:
        if count < 1:
            raise ValueError("sample count must be >= 1")
        return super().__new__(cls, count, seed)


Selection = Exhaustive | RandomSample


class VerifyReport(NamedTuple):
    """Tally of fast-vs-oracle comparisons for one (m, n) selection.

    zero counts the tuples whose oracle value is zero in both modes.
    convention is the one matching every nonzero tuple: "both" when
    literal and alternating agree everywhere (always the case for even m),
    otherwise the single surviving convention, otherwise None.  mismatches
    lists the tuples the alternating convention gets wrong, in selection
    order: a non-empty tuple is a failed verification.
    """

    m: int
    n: int
    selection: str
    total: int
    zero: int
    match_literal: int
    match_alternating: int
    convention: str | None
    mismatches: tuple[tuple[int, ...], ...]


def _select_tuples(m: int, n: int, selection: Selection) -> tuple[Iterable[tuple[int, ...]], str]:
    """The tuples to verify, in sorted order, and a label for the report.

    A full grid, which a random count >= n^m also selects, is an
    ``itertools.product``; a sample of at most 200,000 draws indices from
    ``range`` (random.sample reads only its length and items, so the draw
    is the one a list of all tuples would give) and decodes each index.
    verify_tuples keeps only its counts and the mismatching tuples, so
    memory does not grow with the grid: 21 MB peak RSS at m = 4, n = 12
    and 23 MB at n = 20 (Python 3.11, x86-64 Linux).
    """
    total = n**m
    grid = itertools.product(range(1, n + 1), repeat=m)
    if isinstance(selection, Exhaustive):
        return grid, "exhaustive"
    label = f"random(count={selection.count}, seed={selection.seed})"
    if selection.count >= total:
        return grid, label
    rng = random.Random(selection.seed)
    if total <= 200_000:
        return sorted(_tuple_at(j, m, n) for j in rng.sample(range(total), selection.count)), label
    chosen: set[tuple[int, ...]] = set()
    while len(chosen) < selection.count:
        chosen.add(tuple(rng.randint(1, n) for _ in range(m)))
    return sorted(chosen), label


def _tuple_at(index: int, m: int, n: int) -> tuple[int, ...]:
    """Entry ``index`` of product(range(1, n + 1), repeat=m): its m base-n digits plus 1."""
    digits = []
    for _ in range(m):
        index, digit = divmod(index, n)
        digits.append(digit + 1)
    return tuple(reversed(digits))


def _equals_signed(p: MPoly, q: MPoly, flip: int) -> bool:
    """Whether flip * p == q for flip = +-1, without forming flip * p: the sign keeps den canonical."""
    if p.nvars != q.nvars or p.den != q.den or len(p.nums) != len(q.nums):
        return False
    return all(q.nums.get(e) == flip * c for e, c in p.nums.items())


def verify_tuples(m: int, n: int, selection: Selection) -> VerifyReport:
    """Compare the proper-cycle product against the jet oracle, tuple by tuple.

    Each tuple is checked in both the plain and the rho-shifted mode, so
    a convention only counts as matching when it reproduces the oracle in
    both.  The oracle reads a tuple only through its relative order, so it
    runs once per distinct pattern rho in this call, on rho itself: that
    gives the eigenvalue as a polynomial in the ell rank variables.  Each
    tuple's two oracle values are this polynomial with rank k replaced by
    the plain or the rho-shifted parameter of its k-th smallest value
    (tuplegraph.specialise), which is exact because the oracle's power
    stage uses ring operations only.  A zero pattern
    polynomial is not specialised: both values are the zero in the n
    parameters, since every ring map sends zero to zero.  The fast path is
    called on every tuple in both modes and specialises its own signed
    per-pattern product through the same function (see
    elementary_eigenvalue), so the two routes share only the translation
    kernel, which the tests check against ring products.

    specialise memoises on the polynomial's value, so when the routes
    agree the fast path's two specialisations of a tuple are memo hits
    and a tuple costs one rename and one rho-shift.  That is exact: a hit
    returns the image of an equal polynomial under the same ring map.
    The oracle's pattern polynomial still comes from the oracle alone,
    and each tuple's fast value is still elementary_eigenvalue's own
    return value, compared with the oracle's specialisation; a fast path
    that is wrong in either mode misses the memo and is reported as
    before.  The per-pattern tables and the memo live for one call: the
    oracle's table is local, and the fast path's memos are cleared when
    the call starts.  The literal verdict compares the alternating value
    with the oracle's up to the sign (-1)^m in place.

    The verdicts are tallied as the tuples are walked and only the
    mismatching tuples are kept, so no tuple's polynomials outlive its
    step and memory does not grow with the selection.
    """
    from .jetoracle import oracle_eigenvalue  # imported here so that only verify loads the oracle

    _check_order(m)
    _check_rank(n)
    tuples, label = _select_tuples(m, n, selection)
    _memo_pattern_product.cache_clear()
    specialise.cache_clear()
    flip = SignConvention.LITERAL.factor(m) * SignConvention.ALTERNATING.factor(m)  # literal / alternating
    pattern_oracles: dict[tuple[int, ...], MPoly] = {}
    zero_poly = MPoly._trusted(n, 1, {})
    total = zero = match_literal = match_alternating = 0
    literal_everywhere = alternating_everywhere = True  # over the nonzero tuples
    mismatches = []
    for entries in tuples:
        t = IndexTuple(entries, n)
        order = relative_order(t)
        pattern_oracle = pattern_oracles.get(order.rho)
        if pattern_oracle is None:
            pattern_oracle = pattern_oracles[order.rho] = oracle_eigenvalue(order.rho)
        if pattern_oracle:
            oracle_raw = specialise(pattern_oracle, order.values, n, False)
            oracle_shifted = specialise(pattern_oracle, order.values, n, True)
        else:  # every ring map sends zero to zero
            oracle_raw = oracle_shifted = zero_poly
        fast_raw = elementary_eigenvalue(t, shifted=False, sign=SignConvention.ALTERNATING, order=order)
        fast_shifted = elementary_eigenvalue(t, shifted=True, sign=SignConvention.ALTERNATING, order=order)
        literal = _equals_signed(fast_raw, oracle_raw, flip) and _equals_signed(fast_shifted, oracle_shifted, flip)
        alternating = fast_raw == oracle_raw and fast_shifted == oracle_shifted
        total += 1
        match_literal += literal
        match_alternating += alternating
        if oracle_raw or oracle_shifted:
            literal_everywhere &= literal
            alternating_everywhere &= alternating
        else:
            zero += 1
        if not alternating:
            mismatches.append(entries)
    convention = {(True, True): "both", (False, True): "alternating", (True, False): "literal"}.get(
        (literal_everywhere, alternating_everywhere)
    )
    return VerifyReport(m, n, label, total, zero, match_literal, match_alternating, convention, tuple(mismatches))
