"""Casimir-operator eigenvalues: full sums, pattern compression, closed forms.

The order-m Casimir operator is the sum of all elementary operators over
tuples in {1..n}^m, so its eigenvalue is the corresponding sum of
proper-cycle products.  Because an elementary eigenvalue depends only on
the relative ordering of its tuple, the sum can be grouped by
order-isomorphism class: the products of all patterns with ell distinct
values (tuplegraph.pattern_product, which elementary_eigenvalue reads
too) are summed once into one integer polynomial in ell rank variables,
shared by every rank n in the process, and every choice of ell actual
values only renames those variables, which moves exponents and multiplies
nothing.  The rho-shift is one substitution (MPoly.substitute, which runs
a translation in integers), applied once to the whole sum.  Both routes
produce identical exact polynomials; the patterned one just evaluates
far fewer formulas.

This module also hosts the cross-validation driver that compares the
fast proper-cycle path against the jet oracle tuple by tuple, under both
sign conventions and in both the plain and rho-shifted modes.  Both
routes work the same way: one polynomial per relative-order pattern (the
oracle's here, the proper-cycle product memoised in tuplegraph), and two
ring maps per tuple.  verify_tuples imports the oracle when it starts, so
the other subcommands never load it.

Requests, selections and reports are typing.NamedTuple records; the ones
that validate their fields (CasimirRequest, RandomSample) do it in the
__new__ of a subclass of the bare record.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from typing import Iterable, NamedTuple

from .ratpoly import ClosedForm, MPoly, interpolate_in_n, to_power_sum
from .tuplegraph import (
    IndexTuple,
    SignConvention,
    _check_rank,
    _memo_pattern_product,
    elementary_eigenvalue,
    parameter,
    pattern_product,
    relative_order,
)

# Terms of an integer polynomial: (exponent tuple, nonzero int coefficient) pairs.
IntTerms = tuple[tuple[tuple[int, ...], int], ...]


def _check_order(m: int) -> None:
    if m < 1:
        raise ValueError("order m must be >= 1")


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


def casimir_eigenvalue(req: CasimirRequest) -> MPoly:
    """Sum of elementary eigenvalues over all of {1..n}^m (the naive route)."""
    acc: dict[tuple[int, ...], Fraction] = {}
    for entries in itertools.product(range(1, req.n + 1), repeat=req.m):
        if min(entries) < entries[0]:
            continue  # zero branch
        value = elementary_eigenvalue(IndexTuple(entries, req.n), shifted=req.shifted, sign=req.sign)
        for exps, coeff in value.terms.items():
            acc[exps] = acc.get(exps, Fraction(0)) + coeff
    return MPoly(req.n, acc)


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
        for exps, coeff in pattern_product(pattern).terms.items():
            assert coeff.denominator == 1, "proper-cycle factors have integer coefficients"
            terms[exps] = terms.get(exps, 0) + coeff.numerator
    return tuple((ell, tuple((e, c) for e, c in acc[ell].items() if c)) for ell in range(1, max_ell + 1))


def casimir_eigenvalue_patterned(req: CasimirRequest) -> MPoly:
    """Same sum as casimir_eigenvalue, grouped by relative-order pattern.

    The nonzero patterns with ell distinct values sum to one integer
    polynomial P_ell in ell rank variables (see _pattern_sums).  Each
    choice of ell values v_1 < ... < v_ell from 1..n contributes P_ell
    with rank k renamed to x_{v_k}, which only moves exponents: the sum is
    Gessel's monomial quasisymmetric sum.  It is taken in the parameters
    x_v, signed by the request's convention, and the x_v are then replaced
    once by their rho-shifts when req.shifted.  Zero patterns (some rank
    below the first) are never generated.
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
    total = MPoly(n, acc)
    if req.shifted:
        total = total.substitute([parameter(v, n, True) for v in range(1, n + 1)])
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
        samples.append((n, to_power_sum(casimir_eigenvalue_patterned(request), n)))
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


class TupleComparison(NamedTuple):
    """One tuple's fast values against the oracle, in both modes."""

    entries: tuple[int, ...]
    oracle_raw: MPoly
    oracle_shifted: MPoly
    fast_raw: MPoly  # alternating convention
    fast_shifted: MPoly
    match_literal: bool
    match_alternating: bool

    @property
    def is_zero(self) -> bool:
        return not self.oracle_raw and not self.oracle_shifted


class VerifyReport(NamedTuple):
    """Tally of fast-vs-oracle comparisons for one (m, n) selection."""

    m: int
    n: int
    selection: str
    records: tuple[TupleComparison, ...]

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def zero(self) -> int:
        return sum(1 for r in self.records if r.is_zero)

    @property
    def match_literal(self) -> int:
        return sum(1 for r in self.records if r.match_literal)

    @property
    def match_alternating(self) -> int:
        return sum(1 for r in self.records if r.match_alternating)

    @property
    def mismatches(self) -> list[tuple[int, ...]]:
        """Tuples the alternating convention gets wrong: a non-empty list is a failed verification."""
        return [r.entries for r in self.records if not r.match_alternating]

    def consistent_convention(self) -> str | None:
        """The convention matching every nonzero tuple, if there is one.

        Returns "both" when literal and alternating agree everywhere
        (always the case for even m), otherwise the single surviving
        convention, otherwise None.
        """
        nonzero = [r for r in self.records if not r.is_zero]
        literal = all(r.match_literal for r in nonzero)
        alternating = all(r.match_alternating for r in nonzero)
        if literal and alternating:
            return "both"
        if alternating:
            return "alternating"
        if literal:
            return "literal"
        return None


def _select_tuples(m: int, n: int, selection: Selection) -> tuple[Iterable[tuple[int, ...]], str]:
    """The tuples to verify, in sorted order, and a label for the report.

    No branch builds the n^m population: full grids are streamed, and a
    sample of at most 200,000 draws indices from ``range`` (random.sample
    reads only its length and items, so the draw is the one a list of all
    tuples would give) and decodes each index into its tuple.
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


def verify_tuples(m: int, n: int, selection: Selection) -> VerifyReport:
    """Compare the proper-cycle product against the jet oracle, tuple by tuple.

    Each tuple is checked in both the plain and the rho-shifted mode, so
    a convention only counts as matching when it reproduces the oracle in
    both.  The oracle reads a tuple only through its relative order, so it
    runs once per distinct pattern rho in this call, on the pattern tuple
    itself: that gives the eigenvalue as a polynomial in the ell rank
    variables.  Each tuple's two oracle values are this polynomial with
    rank k replaced by the plain or the rho-shifted parameter of its k-th
    smallest value, which is exact because the oracle's power stage uses
    ring operations only.  The fast path is called on every tuple in both
    modes and specialises its own per-pattern product the same way (see
    elementary_eigenvalue), so the two routes share only
    MPoly.substitute, which the tests check against ring products.  Both
    per-pattern tables live for one call: the oracle's is local, and the
    fast path's memo is cleared when the call starts.
    """
    from .jetoracle import oracle_eigenvalue  # imported here so that only verify loads the oracle

    _check_order(m)
    _check_rank(n)
    tuples, label = _select_tuples(m, n, selection)
    _memo_pattern_product.cache_clear()
    flip = SignConvention.LITERAL.factor(m) * SignConvention.ALTERNATING.factor(m)  # literal / alternating
    pattern_oracles: dict[tuple[int, ...], MPoly] = {}
    records = []
    for entries in tuples:
        t = IndexTuple(entries, n)
        order = relative_order(t)
        pattern_oracle = pattern_oracles.get(order.rho)
        if pattern_oracle is None:
            pattern_oracle = pattern_oracles[order.rho] = oracle_eigenvalue(IndexTuple(order.rho, order.ell))
        oracle_raw = pattern_oracle.substitute([parameter(v, n, False) for v in order.values])
        oracle_shifted = pattern_oracle.substitute([parameter(v, n, True) for v in order.values])
        fast_raw = elementary_eigenvalue(t, shifted=False, sign=SignConvention.ALTERNATING, order=order)
        fast_shifted = elementary_eigenvalue(t, shifted=True, sign=SignConvention.ALTERNATING, order=order)
        records.append(
            TupleComparison(
                entries=entries,
                oracle_raw=oracle_raw,
                oracle_shifted=oracle_shifted,
                fast_raw=fast_raw,
                fast_shifted=fast_shifted,
                match_literal=(flip * fast_raw == oracle_raw and flip * fast_shifted == oracle_shifted),
                match_alternating=(fast_raw == oracle_raw and fast_shifted == oracle_shifted),
            )
        )
    return VerifyReport(m=m, n=n, selection=label, records=tuple(records))
