"""Reference computations the tests compare the package against.

No subcommand runs these, so they live here rather than in the package:
the naive Casimir sum over every tuple, exact evaluation at a point, the
general ring map (substitute), explicit power sums and their products,
the per-case tables looked up and instantiated at concrete indices, and
the support walk that moves a jet-oracle factor into N.
Each is the direct definition, written without the shortcuts the package
takes.
"""

import itertools
from fractions import Fraction
from typing import Sequence

from casimir_eigen import tables
from casimir_eigen.casimir import CasimirRequest
from casimir_eigen.ratpoly import MPoly, PowerSumPoly, alpha
from casimir_eigen.tables import FactoredValue, TableRow
from casimir_eigen.tuplegraph import IndexTuple, elementary_eigenvalue, relative_order


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


def eval_at(p: MPoly, point: Sequence[Fraction | int]) -> Fraction:
    """Exact evaluation at a rational point (one value per variable)."""
    values = [Fraction(v) for v in point]
    if len(values) != p.nvars:
        raise ValueError(f"point has {len(values)} coordinates, expected {p.nvars}")
    total = Fraction(0)
    for exps, coeff in p.nums.items():
        term = coeff
        for e, v in zip(exps, values):
            if e:
                term *= v**e
        total += term
    return total / p.den


def _product(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            out[exps] = out.get(exps, 0) + ca * cb
    return out


def substitute(p: MPoly, images: Sequence[MPoly]) -> MPoly:
    """The ring map sending variable i to images[i]: sum of c * prod(images[i]^e_i).

    Expanded over Fractions, term by term with cached image powers, for
    any images in one ring; MPoly.translate is tested against it.
    """
    nvars = images[0].nvars
    powers = [[{(0,) * nvars: Fraction(1)}] for _ in images]
    out: dict = {}
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


def power_sum(k: int, nvars: int) -> MPoly:
    """p_k = a1^k + ... + aN^k as an explicit polynomial."""
    if k < 1:
        raise ValueError("power sums need k >= 1")
    out = MPoly.zero(nvars)
    for i in range(nvars):
        out = out + MPoly.variable(nvars, i) ** k
    return out


def expand(q: PowerSumPoly, nvars: int) -> MPoly:
    """Write a power-sum combination out as an explicit polynomial in a1..aN."""
    out = MPoly.zero(nvars)
    for lam, coeff in q.coeffs.items():
        term = MPoly.const(nvars, coeff)
        for k in lam:
            term = term * power_sum(k, nvars)
        out = out + term
    return out


def moves_into_n(factors: Sequence[tuple[int, int]], j: int) -> bool:
    """Whether factor j = (a, b) of an inverse factor matrix moves into N past the factors after it.

    Moving I - t_j E_{a,b} past M2 leaves I - t_j u w^T with u = M2^-1 e_a
    and w^T = e_b^T M2.  Their supports are rank bitmasks: starting from
    {a} and {b}, the factor (a_i, b_i) adds a_i to u when u holds b_i, and
    b_i to w when w holds a_i (loops add nothing).  The factor is in N when
    the highest rank of u is below the lowest of w.  Both masks only grow,
    so a failed comparison ends the walk.
    """
    a, b = factors[j]
    if a == b:
        return False
    u, w = 1 << a, 1 << b
    for a_i, b_i in factors[j + 1 :]:
        if u >> b_i & 1:
            u |= 1 << a_i
        if w >> a_i & 1:
            w |= 1 << b_i
        if u >= w & -w:
            return False
    return u < w & -w


def factor_in_n(factors: Sequence[tuple[int, int]]) -> int | None:
    """The last factor that moves into N by the support walk, or None if none does."""
    return next((j for j in reversed(range(len(factors))) if moves_into_n(factors, j)), None)


def _position(entries: Sequence[int], name: str) -> int:
    """The entry a label names, e.g. ``i3`` -> entries[2]."""
    return entries[int(name[1:]) - 1]


def matches(row: TableRow, entries: Sequence[int]) -> bool:
    """Whether the case a row's label states holds for ``entries``.

    A zero row reads ``i1 > ij``.  A pattern row lists the positions of
    each value, lowest first, as in ``i1 = i3 < i2``: the positions in one
    group hold one value and the groups strictly increase.
    """
    if " > " in row.label:
        left, right = row.label.split(" > ")
        return _position(entries, left) > _position(entries, right)
    groups = [{_position(entries, name) for name in group.split(" = ")} for group in row.label.split(" < ")]
    if any(len(values) != 1 for values in groups):
        return False
    values = [min(group) for group in groups]
    return all(a < b for a, b in zip(values, values[1:]))


def classify(m: int, entries: tuple[int, ...]) -> TableRow:
    """The row of a concrete tuple: ``i1 > ij`` for the first j with i1 > ij, else its rank pattern's row."""
    if len(entries) != m:
        raise ValueError(f"tuple {entries} has length != {m}")
    j = next((j for j in range(1, m) if entries[0] > entries[j]), None)
    if j is not None:
        label = f"i1 > i{j + 1}"
    else:
        label = tables._pattern_label(relative_order(IndexTuple(entries, max(entries))).rho)
    return next(row for row in tables.eigenvalue_table(m) if row.label == label)


def evaluate_factored(value: FactoredValue, entries: Sequence[int], n: int) -> MPoly:
    """Instantiate at concrete 1-based indices and rank: a_ij, (n+1)/2, ij by value."""
    images = (
        [alpha(i, n) for i in entries]
        + [MPoly.const(n, Fraction(n + 1, 2))]
        + [MPoly.const(n, i) for i in entries]
    )
    out = MPoly.const(n, value.sign)
    for form, mult in value.factors:
        out = out * substitute(form, images) ** mult
    return out


def evaluate_row(row: TableRow, entries: Sequence[int], n: int) -> MPoly:
    """A row's computed value at concrete indices and rank; the zero rows give 0."""
    if row.computed is None:
        return MPoly.zero(n)
    return evaluate_factored(row.computed, entries, n)
