"""Symbolic per-case eigenvalue tables for small-order elementary operators.

For orders 2 and 3 every tuple (i1,...,im) falls into one of a handful of
relative-order cases, and the shifted eigenvalue of each case is a short
product of linear factors.  A factor is a degree-1 MPoly over the 2m+1
symbols a_i1..a_im, (n+1)/2, i1..im, built by the same proper-cycle rule
as the fast path (tuplegraph.proper_cycle_factors).  This module
generates those rows from representative tuples, renders them with
format_mpoly, and instantiates any row at concrete indices and rank by
substitution, for exact checking.

One order-3 case ("i1 < i2 = i3") circulates in print with a different
closed form than the one exact computation gives; that row carries both
values and a discrepancy marker, and neither is silently adopted.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .ratpoly import MPoly, alpha, format_mpoly
from .tuplegraph import IndexTuple, proper_cycle_factors, relative_order


def _symbol_names(m: int) -> list[str]:
    return [f"a_i{j}" for j in range(1, m + 1)] + ["(n+1)/2"] + [f"i{j}" for j in range(1, m + 1)]


def shifted_symbol(m: int, j: int) -> MPoly:
    """The shifted parameter at position j, a_ij + (n+1)/2 - ij, over the 2m+1 symbols."""
    a_ij, half, ij = (MPoly.variable(2 * m + 1, k) for k in (j - 1, m, m + j))
    return a_ij + half - ij


def _coefficient_vector(form: MPoly) -> tuple[Fraction, ...]:
    """Coefficients of the symbols in generator order, then the constant."""
    d = form.nvars
    units = [tuple(int(i == k) for i in range(d)) for k in range(d)]
    return tuple(form.terms.get(e, Fraction(0)) for e in units + [(0,) * d])


def _render_factor(form: MPoly) -> str:
    return format_mpoly(form, names=_symbol_names(form.nvars // 2))


class FactoredValue(NamedTuple):
    """sign * product of normalized linear factors with multiplicities."""

    sign: int
    factors: tuple[tuple[MPoly, int], ...]

    @classmethod
    def from_factors(cls, factors: Sequence[MPoly], sign: int = 1) -> FactoredValue:
        """Group equal factors, each normalized so that its first term is positive."""
        normalized = []
        for f in factors:
            if f.sorted_terms()[0][1] < 0:
                f = -f
                sign = -sign
            normalized.append(f)
        normalized.sort(key=_coefficient_vector)
        grouped: list[tuple[MPoly, int]] = []
        for f in normalized:
            if grouped and grouped[-1][0] == f:
                grouped[-1] = (f, grouped[-1][1] + 1)
            else:
                grouped.append((f, 1))
        return cls(sign=sign, factors=tuple(grouped))

    def evaluate(self, entries: Sequence[int], n: int) -> MPoly:
        """Instantiate at concrete 1-based indices and rank: a_ij, (n+1)/2, ij by value."""
        images = (
            [alpha(i, n) for i in entries]
            + [MPoly.const(n, Fraction(n + 1, 2))]
            + [MPoly.const(n, i) for i in entries]
        )
        out = MPoly.const(n, self.sign)
        for form, mult in self.factors:
            out = out * form.substitute(images) ** mult
        return out

    def render(self) -> str:
        if not self.factors:
            return str(self.sign)
        if len(self.factors) == 1 and self.factors[0][1] == 1:
            form = self.factors[0][0]
            return _render_factor(form if self.sign > 0 else -form)
        body = "*".join(
            f"({_render_factor(form)})" + (f"^{mult}" if mult > 1 else "")
            for form, mult in self.factors
        )
        return body if self.sign > 0 else f"-{body}"


def symbolic_shifted_eigenvalue(representative: tuple[int, ...]) -> FactoredValue:
    """Factored shifted eigenvalue of a relative-order case, from its minimal tuple.

    The representative must use values 1..ell (ranks); each proper cycle
    of its closed tuple contributes one factor, with cycle values mapped
    back to position symbols through the first position of each rank.
    """
    m = len(representative)
    t = IndexTuple(representative, max(representative))
    order = relative_order(t)
    if order.values != tuple(range(1, order.ell + 1)):
        raise ValueError("representative must use the values 1..ell")
    factors = proper_cycle_factors(t, lambda v: shifted_symbol(m, order.sigma[v - 1]))
    sign = -1 if m % 2 else 1  # alternating convention
    return FactoredValue.from_factors(factors, sign=sign)


class TableRow(NamedTuple):
    """One relative-order case: label, predicate, and its symbolic value.

    ``computed`` is None for the zero cases.  ``variant`` holds a second,
    historically printed closed form when it disagrees with the computed
    one; rows with a variant must never be summarized by either value
    alone.
    """

    label: str
    matches: Callable[[tuple[int, ...]], bool]
    computed: FactoredValue | None
    variant: FactoredValue | None = None

    def evaluate(self, entries: Sequence[int], n: int) -> MPoly:
        if self.computed is None:
            return MPoly.zero(n)
        return self.computed.evaluate(entries, n)

    @property
    def discrepancy(self) -> bool:
        return self.variant is not None


def _printed_order3_variant() -> FactoredValue:
    # The circulated form for "i1 < i2 = i3": (b1 - b2) * (1 - b1) in the
    # shifted parameters, versus the computed (b1 - b2) * (1 - b2).
    b1, b2 = shifted_symbol(3, 1), shifted_symbol(3, 2)
    return FactoredValue.from_factors([b1 - b2, 1 - b1])


def order2_rows() -> list[TableRow]:
    return [
        TableRow("i1 > i2", lambda e: e[0] > e[1], None),
        TableRow("i1 = i2", lambda e: e[0] == e[1], symbolic_shifted_eigenvalue((1, 1))),
        TableRow("i1 < i2", lambda e: e[0] < e[1], symbolic_shifted_eigenvalue((1, 2))),
    ]


def order3_rows() -> list[TableRow]:
    return [
        TableRow("i1 > i2", lambda e: e[0] > e[1], None),
        TableRow("i1 > i3", lambda e: e[0] > e[2], None),
        TableRow(
            "i1 < i2 < i3",
            lambda e: e[0] < e[1] < e[2],
            symbolic_shifted_eigenvalue((1, 2, 3)),
        ),
        TableRow(
            "i1 < i3 < i2",
            lambda e: e[0] < e[2] < e[1],
            symbolic_shifted_eigenvalue((1, 3, 2)),
        ),
        TableRow(
            "i1 = i2 < i3",
            lambda e: e[0] == e[1] < e[2],
            symbolic_shifted_eigenvalue((1, 1, 2)),
        ),
        TableRow(
            "i1 = i3 < i2",
            lambda e: e[0] == e[2] < e[1],
            symbolic_shifted_eigenvalue((1, 2, 1)),
        ),
        TableRow(
            "i1 < i2 = i3",
            lambda e: e[0] < e[1] == e[2],
            symbolic_shifted_eigenvalue((1, 2, 2)),
            variant=_printed_order3_variant(),
        ),
        TableRow(
            "i1 = i2 = i3",
            lambda e: e[0] == e[1] == e[2],
            symbolic_shifted_eigenvalue((1, 1, 1)),
        ),
    ]


def eigenvalue_table(m: int) -> list[TableRow]:
    if m == 2:
        return order2_rows()
    if m == 3:
        return order3_rows()
    raise ValueError("symbolic tables exist for m = 2 and m = 3 only")


def classify(m: int, entries: tuple[int, ...]) -> TableRow:
    """First matching row for a concrete tuple (rows are checked in order)."""
    if len(entries) != m:
        raise ValueError(f"tuple {entries} has length != {m}")
    for row in eigenvalue_table(m):
        if row.matches(entries):
            return row
    raise AssertionError(f"no case covers {entries}")  # the cases are exhaustive
