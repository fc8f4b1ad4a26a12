"""Symbolic per-case eigenvalue tables for small-order elementary operators.

For orders 2 and 3 every tuple (i1,...,im) falls into one of a handful of
relative-order cases: a zero case i1 > ij or a rank pattern (as
tuplegraph.relative_order gives it), which yields the row's label and its
shifted eigenvalue, a short product of linear factors.  Each factor is a
degree-1 MPoly over the 2m+1 symbols a_i1..a_im, (n+1)/2, i1..im, built by
the fast path's proper-cycle rule.  Rows render with format_mpoly
(tests/references.py looks rows up and instantiates them, for exact
checking); eigenvalue_table builds them anew, as a process asks once.

One order-3 case ("i1 < i2 = i3") circulates in print with a different
closed form than the one exact computation gives; that row carries both
values and a discrepancy marker, and neither is silently adopted.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .ratpoly import MPoly, format_mpoly
from .tuplegraph import IndexTuple, SignConvention, proper_cycle_factors


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
    return format_mpoly(form, _symbol_names(form.nvars // 2).__getitem__)


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
    of its closed tuple contributes one factor, with each cycle value v
    mapped back to the symbol of the first position carrying it.
    """
    m = len(representative)
    t = IndexTuple(representative, max(representative))
    if set(representative) != set(range(1, t.n + 1)):
        raise ValueError("representative must use the values 1..ell")
    factors = proper_cycle_factors(t, lambda v: shifted_symbol(m, representative.index(v) + 1))
    return FactoredValue.from_factors(factors, sign=SignConvention.ALTERNATING.factor(m))


class TableRow(NamedTuple):
    """One relative-order case: its label and its symbolic value.

    ``computed`` is None for the zero cases.  ``variant`` holds a second,
    historically printed closed form when it disagrees with the computed
    one; rows with a variant must never be summarized by either value
    alone.
    """

    label: str
    computed: FactoredValue | None
    variant: FactoredValue | None = None

    @property
    def discrepancy(self) -> bool:
        return self.variant is not None


# The nonzero rank patterns of each order, in the order the tables print them.
_PATTERNS = {
    2: [(1, 1), (1, 2)],
    3: [(1, 2, 3), (1, 3, 2), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 1, 1)],
}


def _printed_order3_variant() -> FactoredValue:
    # The circulated form for "i1 < i2 = i3" (pattern (1, 2, 2)): (b1 - b2) * (1 - b1)
    # in the shifted parameters, versus the computed (b1 - b2) * (1 - b2).
    b1, b2 = shifted_symbol(3, 1), shifted_symbol(3, 2)
    return FactoredValue.from_factors([b1 - b2, 1 - b1])


def _pattern_label(pattern: tuple[int, ...]) -> str:
    """The positions of each rank, lowest rank first, e.g. (1, 2, 1) -> ``i1 = i3 < i2``."""
    positions = [[f"i{j}" for j, r in enumerate(pattern, start=1) if r == v] for v in range(1, max(pattern) + 1)]
    return " < ".join(" = ".join(names) for names in positions)


def _pattern_row(pattern: tuple[int, ...]) -> TableRow:
    return TableRow(
        _pattern_label(pattern),
        symbolic_shifted_eigenvalue(pattern),
        variant=_printed_order3_variant() if pattern == (1, 2, 2) else None,
    )


def eigenvalue_table(m: int) -> list[TableRow]:
    """The zero rows i1 > ij for j = 2..m, then one row per nonzero rank pattern, built on every call."""
    if m not in _PATTERNS:
        raise ValueError("symbolic tables exist for m = 2 and m = 3 only")
    zero_rows = [TableRow(f"i1 > i{j + 1}", None) for j in range(1, m)]
    return zero_rows + [_pattern_row(pattern) for pattern in _PATTERNS[m]]
