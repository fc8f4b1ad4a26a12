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

Coefficients are duck-typed.  The matrix/Gram phase runs on plain ints:
the matrix entries are +-1 path counts, and every Gram norm has constant
term 1, so inverting it never leaves the integers.  Polynomials in the
Langlands parameters only enter through the exponents -x/2 of the final
power stage, which uses ring operations alone.  The oracle therefore
depends on a tuple only through its relative order rho: the eigenvalue
of the pattern tuple rho, taken in its rank variables, becomes the
eigenvalue of every tuple with that pattern under the substitution
rank k -> parameter of the k-th smallest value (see verify_tuples).

All jet multiplication goes through one kernel, ``_add_product``, which
accumulates sign * a * b into a single dict and skips overlapping masks.
``Jet.__mul__``, the Gram inner products, the Gram-Schmidt projection
update and the matrix factor update all accumulate through it, and each
builds its result once, with the unchecked ``Jet._trusted``: ring
operations on valid jets cannot produce an invalid mask.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .ratpoly import MPoly
from .tuplegraph import IndexTuple, RelOrder, enumerate_paths, parameter, relative_order


class NotInvertibleError(ValueError):
    """Jet has no inverse: its constant term is zero."""


class Jet:
    """Element of Q[a][t1..tm] / (t1^2, ..., tm^2).

    Coefficients are keyed by bitmask over the m deformation variables
    (bit j-1 set means t_j divides the monomial); zero coefficients are
    never stored.  Coefficient values may be int, Fraction, or MPoly:
    multiplication of two terms with overlapping masks vanishes, which is
    the whole point of the truncation.

    The public constructor checks every mask.  Ring operations build their
    results through ``_trusted``, which only drops zeros: it relies on every
    mask being below 2^m, which holds because sums keep the masks of their
    operands and ``_add_product`` only forms unions of disjoint ones.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: dict[int, object] | None = None):
        if m < 0:
            raise ValueError("jet needs m >= 0 variables")
        clean: dict[int, object] = {}
        full = (1 << m) - 1
        for mask, c in (coeffs or {}).items():
            if mask & ~full:
                raise ValueError(f"mask {mask:b} uses variables beyond t{m}")
            if c:
                clean[mask] = c
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def _trusted(cls, m: int, coeffs: dict[int, object]) -> Jet:
        """Wrap ``coeffs`` without checks, dropping zeros; see the class docstring."""
        jet = object.__new__(cls)
        object.__setattr__(jet, "m", m)
        object.__setattr__(jet, "coeffs", {mask: c for mask, c in coeffs.items() if c})
        return jet

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    @classmethod
    def zero(cls, m: int) -> Jet:
        return cls(m, {})

    @classmethod
    def one(cls, m: int) -> Jet:
        return cls(m, {0: 1})

    @classmethod
    def t(cls, m: int, j: int) -> Jet:
        """The deformation variable t_j, 1-based."""
        if not 1 <= j <= m:
            raise ValueError(f"t index {j} outside 1..{m}")
        return cls(m, {1 << (j - 1): 1})

    @staticmethod
    def _mask(m: int, subset: Iterable[int]) -> int:
        mask = 0
        for j in subset:
            if not 1 <= j <= m:
                raise ValueError(f"subset index {j} outside 1..{m}")
            bit = 1 << (j - 1)
            if mask & bit:
                raise ValueError(f"duplicate index {j} in subset")
            mask |= bit
        return mask

    def coefficient(self, subset: Iterable[int]):
        """Coefficient of prod(t_j for j in subset); 0 if absent."""
        return self.coeffs.get(Jet._mask(self.m, subset), 0)

    @property
    def constant_term(self):
        return self.coeffs.get(0, 0)

    def full_coefficient(self):
        """Coefficient of t1*...*tm: the mixed partial at the origin."""
        return self.coeffs.get((1 << self.m) - 1, 0)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: Jet) -> None:
        if self.m != other.m:
            raise ValueError(f"jet variable count mismatch: {self.m} vs {other.m}")

    def __add__(self, other) -> Jet:
        out = dict(self.coeffs)
        if isinstance(other, Jet):
            self._check(other)
            for mask, c in other.coeffs.items():
                out[mask] = out[mask] + c if mask in out else c
        else:
            out[0] = out[0] + other if 0 in out else other
        return Jet._trusted(self.m, out)

    __radd__ = __add__

    def __neg__(self) -> Jet:
        return Jet._trusted(self.m, {mask: -c for mask, c in self.coeffs.items()})

    def __sub__(self, other) -> Jet:
        return self + (-other if isinstance(other, Jet) else -1 * other)

    def __rsub__(self, other) -> Jet:
        return (-self) + other

    def __mul__(self, other) -> Jet:
        if isinstance(other, Jet):
            self._check(other)
            return Jet._trusted(self.m, _add_product({}, self.coeffs, other.coeffs))
        return Jet._trusted(self.m, {mask: c * other for mask, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Jet:
        if k < 0:
            raise ValueError("use inv() for negative powers")
        result = Jet.one(self.m)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, Jet):
            return self.m == other.m and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, MPoly)):
            return self == Jet(self.m, {0: other})
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- the two series that make Gram-Schmidt exact -------------------------

    def inv(self) -> Jet:
        """Exact inverse via the terminating geometric series.

        Writes self = c0 * (1 + nu) with c0 rational and nu nilpotent; the
        series for (1 + nu)^-1 stops after at most m terms.  A unit
        constant term c0 = +-1 is its own inverse, so an integer jet stays
        integral.
        """
        c0 = self.constant_term
        if not c0:
            raise NotInvertibleError("constant term is zero")
        c0_inv = int(c0) if c0 in (1, -1) else Fraction(1) / Fraction(c0)
        nu = (self * c0_inv) - 1
        result = Jet.one(self.m)
        term = Jet.one(self.m)
        for k in range(1, self.m + 1):
            term = term * nu  # nu^k
            if not term:
                break
            result = result - term if k % 2 else result + term
        return result * c0_inv

    def power(self, beta: MPoly) -> Jet:
        """(1 + nu)^beta as the terminating binomial series.

        The coefficient of nu^k is the falling factorial
        beta*(beta-1)*...*(beta-k+1) divided by k!, a polynomial in the
        Langlands parameters.  Requires constant term exactly 1.
        """
        if self.constant_term != 1:
            raise ValueError("power() needs constant term 1")
        nu = self - 1
        result: Jet = Jet.one(self.m)
        term = Jet.one(self.m)
        coeff = MPoly.one(beta.nvars)
        for k in range(1, self.m + 1):
            term = term * nu
            if not term:
                break
            coeff = coeff * (beta - (k - 1)) * Fraction(1, k)
            result = result + term * coeff
        return result

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        def mono(mask):
            return "*".join(f"t{j}" for j in range(1, self.m + 1) if mask & (1 << (j - 1)))
        pieces = []
        for mask in sorted(self.coeffs, key=lambda s: (bin(s).count("1"), s)):
            c = self.coeffs[mask]
            body = str(c)
            if isinstance(c, MPoly) and len(c.terms) > 1:
                body = f"({body})"
            name = mono(mask)
            pieces.append(f"{body}*{name}" if name and body != "1" else (name or body))
        return " + ".join(pieces)

    __repr__ = __str__


def _add_product(
    out: dict[int, object], a: dict[int, object], b: dict[int, object], sign: int = 1
) -> dict[int, object]:
    """Accumulate sign * a * b into ``out`` and return it; a, b are coefficient dicts.

    The one loop over mask pairs.  A pair with overlapping masks carries
    some t_j^2 and dies in the truncation, so it is skipped.  Entries that
    cancel stay in ``out`` as zeros until ``Jet._trusted`` drops them.
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


def _minus_product(r: Jet, a: Jet, b: Jet) -> Jet:
    """r - a * b, accumulated into one dict."""
    return Jet._trusted(r.m, _add_product(dict(r.coeffs), a.coeffs, b.coeffs, -1))


class JetMatrix(NamedTuple):
    """Square matrix of jets; constant part is the identity by construction."""

    size: int
    entries: tuple[tuple[Jet, ...], ...]

    def column(self, c: int) -> list[Jet]:
        """Column c, 1-based."""
        return [self.entries[r][c - 1] for r in range(self.size)]


def build_inverse_matrix(t: IndexTuple) -> JetMatrix:
    """Product of the inverse factors over the compressed index ranks.

    Multiplies, for j = 1..m in order, the factor I - t_j * E_{rho(j), rho(j+1)}
    (with rho(m+1) = rho(1)).  A loop edge's exact factor has t_j/(1+t_j)
    in place of t_j, but those agree once t_j^2 = 0, so a single update
    rule covers both.
    """
    ro = relative_order(t)
    ell, m = ro.ell, t.m
    rho = ro.rho + (ro.rho[0],)
    cols: list[list[Jet]] = [
        [Jet.one(m) if r == c else Jet.zero(m) for r in range(ell)] for c in range(ell)
    ]
    for j in range(1, m + 1):
        a, b = rho[j - 1], rho[j]
        tj = Jet.t(m, j)
        # right-multiplying by (I - t_j E_{a,b}) replaces col_b by col_b - t_j col_a
        cols[b - 1] = [_minus_product(cb, tj, ca) for cb, ca in zip(cols[b - 1], cols[a - 1])]
    rows = tuple(tuple(cols[c][r] for c in range(ell)) for r in range(ell))
    return JetMatrix(size=ell, entries=rows)


def _inner(x: Sequence[Jet], y: Sequence[Jet]) -> Jet:
    total: dict[int, object] = {}
    for a, b in zip(x, y):
        _add_product(total, a.coeffs, b.coeffs)
    return Jet._trusted(x[0].m, total)


def gram_schmidt_norms(matrix: JetMatrix) -> list[Jet]:
    """Gram norms <b_v, b_v> of the orthogonalized columns, in order.

    Classical Gram-Schmidt over the jet ring: division only ever happens
    by Gram norms, whose constant terms are 1 for inverse-factor
    matrices, so every intermediate stays exactly representable.
    """
    ell = matrix.size
    basis: list[list[Jet]] = []
    norms: list[Jet] = []
    inv_norms: list[Jet] = []
    for v in range(1, ell + 1):
        column = matrix.column(v)
        reduced = list(column)
        for k in range(len(basis)):
            proj = _inner(column, basis[k]) * inv_norms[k]
            reduced = [_minus_product(rc, proj, bc) for rc, bc in zip(reduced, basis[k])]
        basis.append(reduced)
        norm = _inner(reduced, reduced)
        norms.append(norm)
        inv_norms.append(norm.inv())
    return norms


def eigenvalue_from_norms(
    norms: Sequence[Jet], order: RelOrder, t: IndexTuple, shifted: bool = False
) -> MPoly:
    """Extract the top coefficient of prod_v norm_v^(-x_{i_sigma(v)} / 2)."""
    n = t.n
    product = Jet.one(t.m)
    for rank, norm in enumerate(norms, start=1):
        beta = parameter(order.values[rank - 1], n, shifted) * Fraction(-1, 2)
        product = product * norm.power(beta)
    top = product.full_coefficient()
    return top if isinstance(top, MPoly) else MPoly.const(n, top)


def oracle_eigenvalue(t: IndexTuple, shifted: bool = False) -> MPoly:
    """Independent eigenvalue of the elementary operator for the tuple.

    This never looks at proper cycles: it follows the Iwasawa route
    (inverse factor matrix, Gram-Schmidt, diagonal norms, -x/2 powers,
    mixed partial) in exact arithmetic.
    """
    norms = gram_schmidt_norms(build_inverse_matrix(t))
    return eigenvalue_from_norms(norms, relative_order(t), t, shifted)


class PathCheckReport(NamedTuple):
    """Comparison of every jet coefficient of the matrix against path counts."""

    entries: tuple[int, ...]
    checked: int
    violations: tuple[tuple[int, int, tuple[int, ...], int, object], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def path_coefficient_check(t: IndexTuple) -> PathCheckReport:
    """Verify entry (v,w) has coefficient (-1)^|S| exactly on paths v -> w.

    Every subset coefficient of every entry of the inverse factor matrix
    is compared against the independent path enumeration on the tuple's
    multigraph; violations are reported, not raised.
    """
    matrix = build_inverse_matrix(t)
    ro = relative_order(t)
    m = t.m
    checked = 0
    violations = []
    subsets = [tuple(j for j in range(1, m + 1) if mask & (1 << (j - 1))) for mask in range(1 << m)]
    for v in range(1, matrix.size + 1):
        for w in range(1, matrix.size + 1):
            paths = set(enumerate_paths(t, ro.values[v - 1], ro.values[w - 1]))
            entry = matrix.entries[v - 1][w - 1]
            for subset in subsets:
                expected = (-1) ** len(subset) if subset in paths else 0
                actual = entry.coefficient(subset)
                checked += 1
                if actual != expected:
                    violations.append((ro.values[v - 1], ro.values[w - 1], subset, expected, actual))
    return PathCheckReport(entries=t.entries, checked=checked, violations=tuple(violations))
