"""Index-tuple combinatorics: proper cycles and fast eigenvalues.

An elementary differential operator of order m is selected by a tuple
(i1,...,im) with entries in 1..n.  Everything here works on the closed
tuple I = (i1,...,im,i1).

The fast eigenvalue path is a product of one linear factor per proper
cycle of I (a contiguous sub-list with equal endpoints strictly smaller
than all interior entries).  The cycles, and so the product, depend on
the tuple only through its relative order rho: pattern_product forms it
once per pattern in the ell rank variables, and every tuple of that
pattern is one MPoly.translate away.  Its rank map, _rank_map, sends
rank k to the parameter a_v of the k-th smallest value v, or to its
rho-shift a_v + (n+1)/2 - v, the package's one rho-shift at a concrete
rank (specialise, which the oracle's pattern polynomials go through
too).  Its sign convention is deliberately configurable: the product as
usually printed disagrees with direct computation by (-1)^m, and the
jet oracle arbitrates (see jetoracle).
"""

from __future__ import annotations

import enum
import functools
from typing import Callable, NamedTuple, Sequence

from .ratpoly import MPoly, alpha


class SignConvention(enum.Enum):
    """How to sign the proper-cycle product.

    LITERAL takes the product as printed; ALTERNATING multiplies by
    (-1)^m, which is what direct differentiation gives.  The two agree
    for even m.
    """

    LITERAL = "literal"
    ALTERNATING = "alternating"

    def factor(self, m: int) -> int:
        """The sign, +1 or -1, that this convention puts on the order-m product."""
        return -1 if self is SignConvention.ALTERNATING and m % 2 else 1


def _check_rank(n: int) -> None:
    if n < 1:
        raise ValueError("rank n must be >= 1")


class _IndexTupleFields(NamedTuple):
    entries: tuple[int, ...]
    n: int


class IndexTuple(_IndexTupleFields):
    """The tuple (i1,...,im) with ambient rank n; entries are 1-based."""

    __slots__ = ()

    def __new__(cls, entries: Sequence[int], n: int) -> IndexTuple:
        entries = tuple(entries)
        if len(entries) < 1:
            raise ValueError("index tuple needs at least one entry")
        _check_rank(n)
        for i in entries:
            if not 1 <= i <= n:
                raise ValueError(f"entry {i} outside 1..{n}")
        return super().__new__(cls, entries, n)

    @property
    def m(self) -> int:
        return len(self.entries)

    def closed(self) -> tuple[int, ...]:
        """The closed tuple I = (i1,...,im,i1)."""
        return self.entries + (self.entries[0],)

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> IndexTuple:
        """Parse comma-separated entries, e.g. ``"1,9,2,5,5,9,6,8,4,5"``.

        Without an explicit rank, n defaults to the largest entry.
        """
        try:
            entries = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"cannot parse index tuple from {text!r}") from None
        return cls(entries, max(entries) if n is None else n)


class RelOrder(NamedTuple):
    """Relative ordering of the tuple's entries.

    rho[j-1] is the rank of entry j among the ell = len(values) distinct
    values (1-based), and values[v-1] the actual value of rank v.
    """

    rho: tuple[int, ...]
    values: tuple[int, ...]


def relative_order(t: IndexTuple) -> RelOrder:
    distinct = sorted(set(t.entries))
    rank = {v: r for r, v in enumerate(distinct, start=1)}
    return RelOrder(rho=tuple(rank[i] for i in t.entries), values=tuple(distinct))


def min_pair(values: Sequence[int]) -> tuple[int, int | None]:
    """First and second minimum of the value set; v2 is None for singletons."""
    if not values:
        raise ValueError("min_pair needs a non-empty sequence")
    distinct = set(values)
    v1 = min(distinct)
    rest = distinct - {v1}
    return v1, (min(rest) if rest else None)


class CycleRecord(NamedTuple):
    """A cycle of I between consecutive occurrences of its base value.

    Positions are 1-based indices into the closed tuple, with
    start_pos < end_pos and I[start_pos] = I[end_pos] = base.
    """

    start_pos: int
    end_pos: int
    base: int
    proper: bool
    v1: int
    v2: int | None
    sublist: tuple[int, ...]


def enumerate_cycles(t: IndexTuple) -> list[CycleRecord]:
    """All cycles between consecutive occurrences of a value, by start position.

    Non-consecutive occurrence pairs are never proper (the base value
    reappears in the interior), so this diagnostic listing is exactly the
    cycle table one writes down when working a tuple by hand.
    """
    closed = t.closed()
    positions: dict[int, list[int]] = {}
    for pos, value in enumerate(closed, start=1):
        positions.setdefault(value, []).append(pos)
    records = []
    for value, plist in positions.items():
        for p, q in zip(plist, plist[1:]):
            sub = closed[p - 1 : q]
            v1, v2 = min_pair(sub)
            records.append(
                CycleRecord(
                    start_pos=p,
                    end_pos=q,
                    base=value,
                    proper=all(x > value for x in sub[1:-1]),
                    v1=v1,
                    v2=v2,
                    sublist=sub,
                )
            )
    records.sort(key=lambda r: (r.start_pos, r.end_pos))
    return records


def enumerate_proper_cycles(t: IndexTuple) -> list[CycleRecord]:
    """The proper cycles of I = (i1,...,im,i1), in order of start position; base = v1 in each."""
    return [r for r in enumerate_cycles(t) if r.proper]


def proper_cycle_factors(t: IndexTuple, x: Callable[[int], MPoly]) -> list[MPoly]:
    """One linear factor per proper cycle of I, in order of start position.

    The factor is -x(v1) + x(v2), plus 1 when the cycle's base exceeds
    i1; a cycle without a second minimum contributes x(v2) = 0.  ``x``
    maps a value of the tuple to its parameter in whatever ring the
    caller works in.
    """
    i1 = t.entries[0]
    factors = []
    for cyc in enumerate_proper_cycles(t):
        factor = -x(cyc.v1)
        if cyc.v2 is not None:
            factor = factor + x(cyc.v2)
        if cyc.base > i1:
            factor = factor + 1
        factors.append(factor)
    return factors


def pattern_product(rho: tuple[int, ...]) -> MPoly:
    """The proper-cycle product of the rank pattern rho, in its ell rank variables.

    rho is a relative order: its entries are exactly 1..ell.  The product
    of its proper-cycle factors, with rank k read as the variable x_k and
    no sign applied.  Every factor is +-x plus 0 or 1, so the coefficients
    are integers.
    """
    ell = max(rho)
    factors = proper_cycle_factors(IndexTuple(rho, ell), lambda k: alpha(k, ell))
    product = factors[0] if factors else MPoly.one(ell)
    for factor in factors[1:]:
        product = product * factor
    return product


@functools.lru_cache(maxsize=None)
def _memo_pattern_product(rho: tuple[int, ...], sign: int) -> MPoly:
    """sign * pattern_product(rho) for sign = +-1, once per nonzero pattern and sign seen.

    verify_tuples keeps one oracle polynomial per pattern and clears this
    memo per call, so a process holds one request's patterns.
    """
    product = pattern_product(rho)
    return -product if sign < 0 else product


def _rank_map(values: tuple[int, ...], n: int, shifted: bool) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The MPoly.translate triple (targets, shifts, q) of rank k -> a_v or its rho-shift, v = values[k-1].

    Rank k goes to the parameter a_v, which is variable v - 1, shifted by
    (n+1)/2 - v in the shifted mode: over q = 2 when n is even, over
    q = 1 when n is odd, and by 0 in the plain mode.
    """
    targets = tuple(v - 1 for v in values)
    if not shifted:
        return targets, (0,) * len(values), 1
    q = 2 - n % 2
    return targets, tuple(q * (n + 1) // 2 - q * v for v in values), q


@functools.lru_cache(maxsize=4096)
def specialise(poly: MPoly, values: tuple[int, ...], n: int, shifted: bool) -> MPoly:
    """The pattern polynomial ``poly`` with rank k sent to a_v or its rho-shift, v = values[k-1].

    ``poly`` lives in the ell = len(values) rank variables of a relative
    order and ``values`` are the tuple's distinct values, ascending; the
    result is in the n parameters.  It is ``poly.translate`` through the
    rank map: a rename in the plain mode, a translation in the shifted
    one.  The result is memoised on the polynomial's value and on
    (values, n, shifted), so two equal polynomials, from either route of
    verify_tuples or from two patterns, are specialised once.  A memo hit
    is exact: it is the image of an equal polynomial under the same ring
    map.  The memo is bounded; verify_tuples clears it when it starts.
    """
    return poly.translate(n, *_rank_map(values, n, shifted))


def elementary_eigenvalue(
    t: IndexTuple,
    shifted: bool = False,
    sign: SignConvention = SignConvention.ALTERNATING,
    order: RelOrder | None = None,
) -> MPoly:
    """Eigenvalue of the elementary operator for the tuple, as a polynomial.

    Zero whenever some entry is smaller than i1.  Otherwise the product
    of the proper-cycle factors, with x the plain parameter or its
    rho-shift, signed by ``sign.factor(m)``.  The product depends on the
    tuple only through its relative order: it is pattern_product(rho),
    memoised per rho and sign, and then specialised to the tuple (rank k
    goes to the parameter of the k-th smallest value; see specialise).
    ``order`` is the tuple's relative order, when the caller has it
    already.
    """
    n = t.n
    if any(i < t.entries[0] for i in t.entries):
        return MPoly._trusted(n, 1, {})
    if order is None:
        order = relative_order(t)
    return specialise(_memo_pattern_product(order.rho, sign.factor(t.m)), order.values, n, shifted)
