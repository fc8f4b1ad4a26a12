"""Reference computations the tests compare the package against.

No subcommand runs these, so they live here rather than in the package:
the naive Casimir sum over every tuple, exact evaluation at a point, the
general ring map (substitute), the rho-shift of a parameter and the
oracle's value at a tuple through them, the oracle's top coefficient
evaluated directly at a tuple, powers of a polynomial, explicit power
sums and their products, a closed form at a concrete rank, the per-case
tables looked up and instantiated at concrete indices, the support walk
that moves a jet-oracle factor into N, and the truncated
(jet) algebra with every ring operation, against which the oracle's
product, inverse and power kernels and its factor list are checked.
Each is the direct definition, written without the shortcuts the package
takes.
"""

import itertools
from fractions import Fraction
from typing import Sequence

from casimir_eigen import tables
from casimir_eigen.casimir import CasimirRequest
from casimir_eigen.jetoracle import JetMatrix, oracle_eigenvalue
from casimir_eigen.ratpoly import ClosedForm, MPoly, PowerSumPoly, alpha
from casimir_eigen.tables import FactoredValue, TableRow
from casimir_eigen.tuplegraph import IndexTuple, RelOrder, elementary_eigenvalue, relative_order


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


def parameter(value: int, n: int, shifted: bool) -> MPoly:
    """The Langlands parameter a_value, or its rho-shift a_value + (n+1)/2 - value."""
    x = alpha(value, n)
    return x + Fraction(n + 1, 2) - value if shifted else x


def oracle_at(t: IndexTuple, shifted: bool = False) -> MPoly:
    """The oracle's eigenvalue of a tuple, plain or rho-shifted.

    The oracle's polynomial of the tuple's rank pattern, with rank k sent
    to the parameter of the k-th smallest value by substitute.
    """
    order = relative_order(t)
    return substitute(oracle_eigenvalue(order.rho), [parameter(v, t.n, shifted) for v in order.values])


def power(p: MPoly, k: int) -> MPoly:
    """p^k for k >= 0 by repeated squaring; the package itself never raises a polynomial to a power."""
    if k < 0:
        raise ValueError("negative power of a polynomial")
    result = MPoly.one(p.nvars)
    while k:
        if k & 1:
            result = result * p
        k >>= 1
        if k:
            p = p * p
    return result


def power_sum(k: int, nvars: int) -> MPoly:
    """p_k = a1^k + ... + aN^k as an explicit polynomial, one monomial a_i^k per variable."""
    if k < 1:
        raise ValueError("power sums need k >= 1")
    return MPoly(nvars, {tuple(k if j == i else 0 for j in range(nvars)): 1 for i in range(nvars)})


def closed_form_at(form: ClosedForm, n: int) -> PowerSumPoly:
    """A closed form at a concrete rank n: each coefficient tuple (c0, c1, ...) summed as c0 + c1*n + ..."""
    return PowerSumPoly({lam: sum(c * n**k for k, c in enumerate(cs)) for lam, cs in form.coeffs.items()})


def expand(q: PowerSumPoly, nvars: int) -> MPoly:
    """Write a power-sum combination out as an explicit polynomial in a1..aN."""
    out = MPoly(nvars)
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
        out = out * power(substitute(form, images), mult)
    return out


def evaluate_row(row: TableRow, entries: Sequence[int], n: int) -> MPoly:
    """A row's computed value at concrete indices and rank; the zero rows give 0."""
    if row.computed is None:
        return MPoly(n)
    return evaluate_factored(row.computed, entries, n)


_SCALARS = (int, Fraction, MPoly)  # what jet arithmetic takes besides jets


class Jet:
    """Element of Q[a][t1..tm] / (t1^2, ..., tm^2), written from the definition.

    Coefficients are keyed by bitmask over the m deformation variables
    (bit j-1 set means t_j divides the monomial); zero coefficients are
    never stored.  Coefficient values may be int, Fraction or MPoly.  The
    constructor checks every mask and coefficient, every result goes
    through it, and the operators return NotImplemented for any other
    scalar, so no float, complex or Decimal gets in.

    The coefficient of t_S in a product is the subset-split sum
    sum_{A <= S} a_A * b_{S - A}; the inverse is the geometric series in
    nu = self / c0 - 1 over Fractions, for any nonzero rational constant
    c0; the
    power is the binomial series sum_k C(beta, k) nu^k, with the binomials
    formed as polynomials.  The series stop because nu^(m+1) = 0.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: dict | None = None):
        if m < 0:
            raise ValueError("jet needs m >= 0 variables")
        clean = {}
        full = (1 << m) - 1
        for mask, c in (coeffs or {}).items():
            if mask & ~full:
                raise ValueError(f"mask {mask:b} uses variables beyond t{m}")
            if not isinstance(c, _SCALARS):
                raise ValueError(f"coefficient {c!r} is not an int, Fraction or MPoly: jets are exact")
            if c:
                clean[mask] = c
        self.m = m
        self.coeffs = clean

    @classmethod
    def zero(cls, m: int) -> "Jet":
        return cls(m, {})

    @classmethod
    def one(cls, m: int) -> "Jet":
        return cls(m, {0: 1})

    @classmethod
    def t(cls, m: int, j: int) -> "Jet":
        """The deformation variable t_j, 1-based."""
        if not 1 <= j <= m:
            raise ValueError(f"t index {j} outside 1..{m}")
        return cls(m, {1 << (j - 1): 1})

    def coefficient(self, subset) -> object:
        """Coefficient of prod(t_j for j in subset); 0 if absent."""
        mask = 0
        for j in subset:
            if not 1 <= j <= self.m:
                raise ValueError(f"subset index {j} outside 1..{self.m}")
            if mask & 1 << (j - 1):
                raise ValueError(f"duplicate index {j} in subset")
            mask |= 1 << (j - 1)
        return self.coeffs.get(mask, 0)

    @property
    def constant_term(self):
        return self.coeffs.get(0, 0)

    def full_coefficient(self):
        """Coefficient of t1*...*tm: the mixed partial at the origin."""
        return self.coeffs.get((1 << self.m) - 1, 0)

    def _check(self, other: "Jet") -> None:
        if self.m != other.m:
            raise ValueError(f"jet variable count mismatch: {self.m} vs {other.m}")

    def __add__(self, other) -> "Jet":
        if isinstance(other, _SCALARS):
            other = Jet(self.m, {0: other})
        elif not isinstance(other, Jet):
            return NotImplemented
        self._check(other)
        out = dict(self.coeffs)
        for mask, c in other.coeffs.items():
            out[mask] = out.get(mask, 0) + c
        return Jet(self.m, out)

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return Jet(self.m, {mask: -c for mask, c in self.coeffs.items()})

    def __sub__(self, other) -> "Jet":
        if isinstance(other, (Jet, *_SCALARS)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other) -> "Jet":
        if isinstance(other, _SCALARS):
            return -self + other
        return NotImplemented

    def __mul__(self, other) -> "Jet":
        if isinstance(other, _SCALARS):
            return Jet(self.m, {mask: c * other for mask, c in self.coeffs.items()})
        if not isinstance(other, Jet):
            return NotImplemented
        self._check(other)
        out = {}
        for target in {s1 | s2 for s1 in self.coeffs for s2 in other.coeffs}:  # no other mask splits
            for sub, c in self.coeffs.items():
                if not sub & ~target and target ^ sub in other.coeffs:
                    out[target] = out.get(target, 0) + c * other.coeffs[target ^ sub]
        return Jet(self.m, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Jet":
        if k < 0:
            raise ValueError("use inv() for negative powers")
        result = Jet.one(self.m)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, _SCALARS):
            other = Jet(self.m, {0: other})
        if not isinstance(other, Jet):
            return NotImplemented
        return self.m == other.m and self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def inv(self) -> "Jet":
        """c0^-1 * sum_k (-nu)^k with nu = self / c0 - 1, over Fractions."""
        c0 = self.constant_term
        if not c0:
            raise ValueError("constant term is zero")
        scale = Fraction(1) / c0
        nu = self * scale - 1
        total = term = Jet.one(self.m)
        for _ in range(self.m):
            term = term * -nu
            total = total + term
        return total * scale

    def power(self, beta: MPoly) -> "Jet":
        """sum_k C(beta, k) nu^k with nu = self - 1, for constant term 1 and integer coefficients."""
        if self.constant_term != 1:
            raise ValueError("power() needs constant term 1")
        if not all(isinstance(c, int) for c in self.coeffs.values()):
            raise ValueError("power() needs integer coefficients")
        nu = self - 1
        total = term = Jet.one(self.m)
        binomial = MPoly.const(beta.nvars, 1)
        for k in range(1, self.m + 1):
            term = term * nu
            binomial = binomial * (beta - (k - 1)) * Fraction(1, k)
            total = total + term * binomial
        return total

    def __repr__(self) -> str:
        return f"Jet({self.m}, {self.coeffs!r})"


def from_numerators(m: int, nvars: int, den: int, numerators: dict) -> Jet:
    """The jet of polynomials numerators[S] / den, the form the package's ``Jet.power`` returns."""
    return Jet(m, {mask: MPoly(nvars, {e: Fraction(c, den) for e, c in nums.items()}) for mask, nums in numerators.items()})


def matrix_entries(matrix: JetMatrix) -> tuple[tuple[Jet, ...], ...]:
    """The inverse factor matrix as rows of jets: prod_j (I - t_j E_{a_j, b_j}), multiplied out."""
    size, m = matrix.size, matrix.m
    identity = [[Jet.one(m) if r == c else Jet.zero(m) for c in range(size)] for r in range(size)]
    product = identity
    for j, (a, b) in enumerate(matrix.factors, start=1):
        factor = [list(row) for row in identity]
        factor[a][b] = factor[a][b] - Jet.t(m, j)
        product = [
            [sum((row[k] * factor[k][c] for k in range(size) if row[k] and factor[k][c]), Jet.zero(m)) for c in range(size)]
            for row in product
        ]
    return tuple(tuple(row) for row in product)


def full_product_top(norms: Sequence, order: RelOrder, t: IndexTuple, shifted: bool) -> MPoly:
    """The full-mask coefficient of the whole product of norm_v^(-x/2), at the tuple's own parameters.

    x is the plain or rho-shifted parameter of rank v's value, so this
    evaluates at the tuple directly, with no pattern polynomial and no
    ring map; the pivots ``norms`` are read through their ``.coeffs``.
    """
    product = Jet.one(t.m)
    for rank, norm in enumerate(norms, start=1):
        beta = parameter(order.values[rank - 1], t.n, shifted) * Fraction(-1, 2)
        product = product * Jet(t.m, norm.coeffs).power(beta)
    top = product.full_coefficient()
    return top if isinstance(top, MPoly) else MPoly.const(t.n, top)
