"""Exact sparse multivariate polynomials over the rationals.

A polynomial in N variables a1..aN is stored as integer numerators over
one common denominator: a positive int ``den`` and a dict ``nums`` from
exponent tuples (one int per variable) to nonzero ints, in lowest terms,
with the zero polynomial den 1 and no terms.  Ring operations, the
reductions below and two changes of variables, ``MPoly.translate`` (every
rho-shift and ``specialise`` rename) and ``eliminate_last_var`` (every
reduction modulo p1), work on that pair directly; ``MPoly.terms`` gives
the Fraction coefficients for formatting.
All arithmetic is exact: there is no floating point anywhere in this
package.

On top of the raw polynomials this module provides the two symmetric-side
reductions everything else is expressed in:

  * ``to_power_sum``: rewrite a polynomial that is symmetric modulo the
    relation a1 + ... + aN = 0 as the one rational combination of power
    sums p_k = sum(a_i^k) with parts 2 <= k <= N.  After a_N is
    eliminated, every power-sum product is invariant under permuting the
    remaining variables, so the polynomial must be too (checked exactly
    on two generators of the symmetric group), and then it suffices to match
    coefficients at the monomials a^lam with lam a partition: one linear
    equation per partition instead of one per monomial.  The power-sum
    products are eliminated like the target, once per degree and rank
    min(degree, N), and cached as the system the solver takes: the
    partitions and, per partition, the products' coefficients there,
  * ``interpolate_in_n``: an exact fit of per-partition coefficients as
    univariate polynomials in the rank symbol n, through every sample.

``_solve_linear``, a fraction-free Gauss-Jordan solve of a system with
full column rank, is behind both reductions.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

Exponent = tuple[int, ...]
Partition = tuple[int, ...]


class NotSymmetricError(ValueError):
    """Input polynomial has no power-sum representation modulo p1 = 0."""


class InterpolationInconsistentError(ValueError):
    """A sample is not reproduced by the interpolated closed form."""


def _term_order_key(exps: Exponent) -> tuple:
    # Graded lexicographic, descending: higher total degree first, then
    # lexicographically larger exponent vector first.  Also orders partitions.
    return (-sum(exps), tuple(-e for e in exps))


def _mul_terms(
    a: Mapping[Exponent, Fraction], b: Mapping[Exponent, Fraction], out: dict[Exponent, Fraction] | None = None
) -> dict[Exponent, Fraction]:
    """Product of two term dicts over any coefficient type, added into ``out`` if given.

    Cancelled coefficients may be left as zeros.
    """
    if out is None:
        out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exps = tuple(map(operator.add, ea, eb))
            out[exps] = out.get(exps, 0) + ca * cb
    return out


# One request's rho-shifts need a few hundred keys at most (top <= m, q <= 2, |p| <= n + 1 over
# the ranks n it uses); the bound only caps a caller that translates by many other constants.
@functools.lru_cache(maxsize=1024)
def _shift_weights(top: int, p: int, q: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Entry E lists (f, C(E,f) * q^f * p^(E-f)) for f = 0..E: (q*x + p)^E, zero weights left out."""
    return tuple(
        tuple((f, math.comb(e, f) * q**f * p ** (e - f)) for f in range(e + 1) if p or f == e) for e in range(top + 1)
    )


class MPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Stored as integer numerators over one common denominator: ``den`` is
    a positive int and ``nums`` maps exponent tuples to nonzero ints, so
    the coefficient at e is nums[e] / den.  The pair is canonical,
    gcd(den, *nums) == 1 and zero is den 1 with no terms, so equal
    polynomials have equal fields.  ``terms`` gives the coefficients as
    Fractions, for formatting and JSON.

    Immutable by convention: no method mutates ``nums`` after
    construction, so values can be shared freely across threads.

    The public constructor takes only non-negative int exponents and int
    or Fraction coefficients, so no float gets in, and converts every
    coefficient to Fraction before clearing the denominators.  Ring
    operations build their results through ``_trusted``, which only drops
    zeros and divides out the gcd: it relies on every key being a tuple of
    ``nvars`` non-negative ints and every value an int, which sums,
    products and translations of valid polynomials (and of int or
    Fraction scalars) preserve.
    """

    __slots__ = ("nvars", "den", "nums")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Fraction | int] | None = None):
        if nvars < 0:
            raise ValueError(f"nvars must be >= 0, got {nvars}")
        clean: dict[Exponent, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} has length != nvars={nvars}")
            if not all(isinstance(e, int) and e >= 0 for e in exps):
                raise ValueError(f"exponents must be non-negative ints, got {exps}")
            if not isinstance(coeff, (int, Fraction)):
                raise ValueError(f"coefficient {coeff!r} is neither int nor Fraction")
            c = Fraction(coeff)
            if c:
                clean[tuple(exps)] = c
        den = math.lcm(*(c.denominator for c in clean.values()))
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", {e: c.numerator * (den // c.denominator) for e, c in clean.items()})

    @classmethod
    def _trusted(cls, nvars: int, den: int, nums: dict[Exponent, int]) -> MPoly:
        """Wrap nums / den without checks, dropping zeros and the common gcd; see the class docstring."""
        nums = {e: c for e, c in nums.items() if c}
        g = math.gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {e: c // g for e, c in nums.items()}
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "den", den)
        object.__setattr__(poly, "nums", nums)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """The coefficients as Fractions, in a new dict on every read."""
        return {e: Fraction(c, self.den) for e, c in self.nums.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, nvars: int, value: Fraction | int) -> MPoly:
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars: int) -> MPoly:
        return cls.const(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, index: int) -> MPoly:
        """The single variable with 0-based ``index``."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1})

    # -- ring operations ---------------------------------------------------

    def _check_ring(self, other: MPoly) -> None:
        if other.nvars != self.nvars:
            raise ValueError(f"nvars mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other) -> MPoly:
        if isinstance(other, MPoly):
            self._check_ring(other)
            other_den, other_nums = other.den, other.nums
        elif isinstance(other, (int, Fraction)):
            other_den, other_nums = other.denominator, {(0,) * self.nvars: other.numerator}
        else:
            return NotImplemented
        den = math.lcm(self.den, other_den)
        scale = den // self.den
        out = {e: c * scale for e, c in self.nums.items()} if scale != 1 else dict(self.nums)
        scale = den // other_den
        for exps, coeff in other_nums.items():
            if scale != 1:
                coeff *= scale
            out[exps] = out[exps] + coeff if exps in out else coeff
        return MPoly._trusted(self.nvars, den, out)

    __radd__ = __add__

    def __neg__(self) -> MPoly:
        return MPoly._trusted(self.nvars, self.den, {e: -c for e, c in self.nums.items()})

    def __sub__(self, other) -> MPoly:
        if isinstance(other, (MPoly, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other) -> MPoly:
        return (-self) + other

    def __mul__(self, other) -> MPoly:
        if isinstance(other, (int, Fraction)):
            num = other.numerator
            return MPoly._trusted(self.nvars, self.den * other.denominator, {e: c * num for e, c in self.nums.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check_ring(other)
        return MPoly._trusted(self.nvars, self.den * other.den, _mul_terms(self.nums, other.nums))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        """Equality of values; polynomials in different rings are never equal."""
        if self is other:
            return True
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.nvars, other)
        elif not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        """Consistent with ``__eq__``: a constant hashes like the int or Fraction it equals."""
        nums = self.nums
        if not nums:
            return hash(0)
        if len(nums) == 1 and not any(next(iter(nums))):
            return hash(Fraction(next(iter(nums.values())), self.den))
        return hash((self.nvars, self.den, frozenset(nums.items())))

    def __bool__(self) -> bool:
        return bool(self.nums)

    def translate(self, nvars: int, targets: Sequence[int], shifts: Sequence[int], q: int) -> MPoly:
        """The image under x_i -> x_(targets[i]) + shifts[i]/q, in ``nvars`` variables.

        Every map the package makes with it sends rank k to a parameter
        a_v, maybe rho-shifted by (n+1)/2 - v (see tuplegraph._rank_map).
        There is one target and one int shift per variable of ``self``;
        the targets must be distinct and q positive.
        The zero polynomial maps to zero.  The integer numerators are
        renamed into the target ring and then shifted one variable at a
        time.  x^E becomes sum_f C(E,f) * q^f * p^(E-f) * x^f / q^E for a
        shift p/q, so scaling the numerator of a term of degree |e| by
        q^(deg - |e|) keeps every step in integers over one final
        denominator den * q^deg.
        """
        if not self.nums:
            return MPoly._trusted(nvars, 1, {})
        slots = [len(targets)] * nvars  # target variable -> source index, or the pad 0 past the end
        for i, t in enumerate(targets):
            slots[t] = i
        terms = {tuple(map((exps + (0,)).__getitem__, slots)): c for exps, c in self.nums.items()}
        if not any(shifts):  # a rename, whatever q is
            return MPoly._trusted(nvars, self.den, terms)
        deg = max(map(sum, terms))
        terms = {e: c * q ** (deg - sum(e)) for e, c in terms.items()}
        for t, p in zip(targets, shifts):
            top = max(e[t] for e in terms)
            if not top or (not p and q == 1):
                continue
            weights = _shift_weights(top, p, q)
            out: dict[Exponent, int] = {}
            for exps, coeff in terms.items():
                e = exps[t]
                if not e:
                    out[exps] = out.get(exps, 0) + coeff
                    continue
                head, tail = exps[:t], exps[t + 1 :]
                for f, w in weights[e]:
                    key = head + (f,) + tail
                    out[key] = out.get(key, 0) + coeff * w
            terms = out
        return MPoly._trusted(nvars, self.den * q**deg, terms)

    # -- queries -----------------------------------------------------------

    def total_degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        return max((sum(e) for e in self.nums), default=0)

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in canonical order (graded lexicographic, descending)."""
        return sorted(self.terms.items(), key=lambda item: _term_order_key(item[0]))

    def __str__(self) -> str:
        return format_mpoly(self)

    def __repr__(self) -> str:
        return f"MPoly({self.nvars}, {self!s})"


@functools.lru_cache(maxsize=None)
def alpha(index: int, nvars: int) -> MPoly:
    """The Langlands-parameter variable a_index, 1-based; cached, as MPoly is immutable."""
    return MPoly.variable(nvars, index - 1)


def format_rat(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _format_monomial(exps: Exponent, name: Callable[[int], str]) -> str:
    return "*".join(name(i) if e == 1 else f"{name(i)}^{e}" for i, e in enumerate(exps) if e)


def _join_signed(terms: Iterable[tuple[bool, str]]) -> str:
    """Join (positive, body) pairs as ``x + y - z``; no terms at all is ``0``."""
    pieces: list[str] = []
    for positive, body in terms:
        if not pieces:
            pieces.append(body if positive else f"-{body}")
        else:
            pieces.append(f"+ {body}" if positive else f"- {body}")
    return " ".join(pieces) if pieces else "0"


def _signed_term(coeff: Fraction, mono: str) -> tuple[bool, str]:
    """Sign and body of coeff*mono, dropping a unit coefficient."""
    mag = format_rat(abs(coeff))
    if not mono:
        return coeff > 0, mag
    return coeff > 0, mono if abs(coeff) == 1 else f"{mag}*{mono}"


def format_mpoly(p: MPoly, name: Callable[[int], str] = lambda i: f"a{i + 1}") -> str:
    """Canonical human-readable form, e.g. ``a1*a5 - a2*a5 - a1 + a2``.

    ``name`` maps a 0-based variable index to its printed name, ``a{i+1}``
    by default.  It is asked only for the variables a printed monomial
    uses, so a polynomial with few terms in many variables makes no name
    for the rest.
    """
    return _join_signed(_signed_term(c, _format_monomial(e, name)) for e, c in p.sorted_terms())


def eliminate_last_var(p: MPoly) -> MPoly:
    """Substitute aN := -(a1 + ... + a_{N-1}), returning an (N-1)-variable polynomial.

    Two polynomials agree on the hyperplane sum(a_i) = 0 exactly when their
    images under this substitution are equal, so this is the canonical form
    for arithmetic modulo the ideal generated by p1.

    By the multinomial theorem a_N^k is (-1)^k * sum(k!/prod(v_i!) * a^v)
    over the vectors v of N - 1 entries summing to k; their table is built
    once per call, a variable at a time, as multinomial(t; f, v) =
    C(t, f) * multinomial(t - f; v).  A term c * a^h * a_N^k adds
    c * (-1)^k times each weight at h + v, on the integer numerators over
    the polynomial's own denominator.  An exponent vector packs into one
    int, a byte per variable, so h + v is one integer sum; that limits the
    total degree to 255 when N > 1, and a higher degree raises ValueError.
    No request with N > 1 that finishes comes near it: the patterned sum at
    order 256 would enumerate Fubini(256) patterns.  With N = 1 nothing is
    packed and the image is the constant p(0), at any degree.
    """
    if p.nvars == 0:
        return p
    m = p.nvars - 1
    if m and (degree := p.total_degree()) > 255:
        raise ValueError(f"total degree {degree} is above 255, the most a byte per exponent holds")
    top = max((exps[m] for exps in p.nums), default=0)
    table = [[(0, 1)]] + [[] for _ in range(top)]  # entry t lists (packed v, weight) with sum(v) = t
    for j in range(m):
        table = [
            [(v + (f << 8 * j), w * math.comb(t, f)) for f in range(t + 1) for v, w in table[t - f]]
            for t in range(top + 1)
        ]
    out: dict[int, int] = {}
    for exps, c in p.nums.items():
        head = int.from_bytes(bytes(exps[:m]), "little")
        scale = -c if exps[m] % 2 else c
        for v, w in table[exps[m]]:
            key = head + v
            out[key] = out.get(key, 0) + scale * w
    return MPoly._trusted(m, p.den, {tuple(e.to_bytes(m, "little")): c for e, c in out.items()})


# -- power-sum basis -------------------------------------------------------


class _PartitionCombination:
    """Shared body of PowerSumPoly and ClosedForm: coefficients keyed by partitions.

    Keys are integer partitions in non-increasing order with all parts
    k >= 2; the empty partition () is the constant term.  Keys naming one
    partition are summed by the subclass's ``_sum``, and zero sums dropped.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[Iterable[int], Fraction | int | Sequence[Fraction]] | None = None):
        grouped: dict[Partition, list] = {}
        for parts, coeff in (coeffs or {}).items():
            lam = tuple(sorted(parts, reverse=True))
            if any(k < 2 for k in lam):
                raise ValueError(f"partition {lam} has a part < 2")
            grouped.setdefault(lam, []).append(coeff)
        clean = {lam: total for lam, values in grouped.items() if (total := self._sum(values))}
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def sorted_items(self) -> list[tuple[Partition, object]]:
        return sorted(self.coeffs.items(), key=lambda kv: _term_order_key(kv[0]))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self!s})"


class PowerSumPoly(_PartitionCombination):
    """Rational combination of power-sum products p_k with all parts k >= 2.

    This is the output basis for symmetric eigenvalues once p1 = 0 has
    been imposed: to_power_sum returns it.  The zero value is PowerSumPoly().
    """

    __slots__ = ()

    @staticmethod
    def _sum(values: list[Fraction | int]) -> Fraction:
        return sum(map(Fraction, values), Fraction(0))

    def __str__(self) -> str:
        return _join_signed(_signed_term(c, format_partition(lam)) for lam, c in self.sorted_items())


def format_partition(lam: Partition) -> str:
    """Render p_lambda, e.g. (3, 2, 2) -> ``p3*p2^2`` and () -> ``""``."""
    pieces = []
    for k in sorted(set(lam), reverse=True):
        mult = lam.count(k)
        pieces.append(f"p{k}" if mult == 1 else f"p{k}^{mult}")
    return "*".join(pieces)


def _partitions(
    max_weight: int, min_part: int = 1, max_len: int | None = None, max_part: int | None = None
) -> list[Partition]:
    """Partitions with parts in min_part..max_part, weight <= max_weight and at most max_len parts, plus ()."""
    out: list[Partition] = [()]

    def grow(remaining: int, top: int, acc: tuple[int, ...]) -> None:
        if len(acc) == max_len:
            return
        for k in range(min(remaining, top), min_part - 1, -1):
            out.append(acc + (k,))
            grow(remaining - k, k, acc + (k,))

    grow(max_weight, max_weight if max_part is None else max_part, ())
    return sorted(out, key=_term_order_key)


@functools.lru_cache(maxsize=None)
def _power_sum_columns(
    degree: int, rank: int
) -> tuple[tuple[Partition, ...], tuple[Partition, ...], tuple[tuple[int, ...], ...]]:
    """The system to_power_sum solves at (degree, rank), as (mus, lams, rows).

    rows[i][j] is the coefficient of eliminate_last_var(p_mu) at a^lam,
    for lam = lams[i] and mu = mus[j].  The mus are the partitions of
    weight <= degree with parts in 2..rank + 1, and the lams those with at
    most rank parts, both in _term_order_key order; p_mu is built in
    rank + 1 variables.  At rank min(degree, n - 1) the mus are those with
    parts in 2..n, and on the hyperplane sum(a_i) = 0 in n variables
    p_2..p_n are free generators of the symmetric functions, so the system
    has one solution.  The image has the same coefficient at a^lam in any
    N > len(lam) variables: setting a_j = 0 for a j < N commutes with the
    elimination and leaves each p_k in one variable fewer.  So the system
    for rank min(degree, n - 1) serves rank n, and its lams are the
    partitions to_power_sum reads the target at.  It is built on the first
    call for that pair and shared as tuples, and a small rank keeps a high
    degree cheap.
    """
    nvars = rank + 1
    power_sum = {
        k: MPoly(nvars, {(0,) * i + (k,) + (0,) * (rank - i): 1 for i in range(nvars)})
        for k in range(2, min(degree, nvars) + 1)
    }
    lams = tuple(_partitions(degree, max_len=rank))
    mus = tuple(_partitions(degree, min_part=2, max_part=nvars))
    columns = []
    for mu in mus:
        product = functools.reduce(operator.mul, [power_sum[k] for k in mu], MPoly.one(nvars))
        columns.append(_partition_coeffs(eliminate_last_var(product), lams))
    return mus, lams, tuple(zip(*columns))


def _partition_coeffs(p: MPoly, partitions: Iterable[Partition]) -> list[int]:
    """The numerators of ``p`` at a^lam, one per lam in ``partitions``; none has more than p.nvars parts."""
    return [p.nums.get(lam + (0,) * (p.nvars - len(lam)), 0) for lam in partitions]


def _is_symmetric(p: MPoly) -> bool:
    """Whether ``p`` is invariant under every permutation of its variables.

    The transposition (1 2) and the cycle (1 2 ... N) generate S_N, so two
    exponent permutations decide it exactly, on the integer numerators.
    """
    if p.nvars < 2:
        return True
    nums = p.nums
    get = nums.get
    # A permutation sending every key to a key with the same coefficient is a bijection of the keys.
    return all(get((e[1], e[0], *e[2:])) == c and get((*e[1:], e[0])) == c for e, c in nums.items())


def _solve_linear(rows: list[list[Fraction | int]], rhs: list[Fraction | int]) -> list[Fraction] | None:
    """Exact Gauss-Jordan elimination in integers; the solution, or None if inconsistent.

    Every caller's system has full column rank: p_2..p_n are free on the
    hyperplane in ``to_power_sum``, and ``interpolate_in_n`` fits a
    Vandermonde matrix at distinct ranks.  So column c's pivot is row c,
    the first nonzero entry at or below it, and a column with none is an
    internal error (RuntimeError, not a ValueError: no input can cause
    it).  Each equation is scaled by the lcm of its denominators, and
    clearing column c of row i takes p * row_i - a_ic * row_c for the
    pivot p = a_cc; every row is divided by its gcd, so it stays a nonzero
    multiple of the row a Fraction elimination would hold.  The solution
    is checked against every equation in integers, over the lcm of its
    denominators, so None is a proof.
    """
    system = []
    for row, b in zip(rows, rhs):
        row = [*row, b]
        d = math.lcm(*(x.denominator for x in row))
        row = [x.numerator * (d // x.denominator) for x in row]
        g = math.gcd(*row)
        system.append([x // g for x in row] if g > 1 else row)
    n_rows, n_cols = len(system), len(rows[0]) if rows else 0
    a = list(system)
    for c in range(n_cols):
        pivot = next((i for i in range(c, n_rows) if a[i][c]), None)
        if pivot is None:
            raise RuntimeError(f"column {c} has no pivot: the system is rank-deficient")
        a[c], a[pivot] = a[pivot], a[c]
        top, p = a[c], a[c][c]
        for i, row in enumerate(a):
            f = row[c]
            if f and i != c:
                row = [p * x - f * y for x, y in zip(row, top)]
                g = math.gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
    if any(row[n_cols] for row in a[n_cols:]):
        return None
    solution = [Fraction(a[c][n_cols], a[c][c]) for c in range(n_cols)]
    den = math.lcm(*(s.denominator for s in solution))
    scaled = [(c, s.numerator * (den // s.denominator)) for c, s in enumerate(solution) if s]
    if any(sum(row[c] * s for c, s in scaled) != row[n_cols] * den for row in system):
        return None
    return solution


def to_power_sum(p: MPoly) -> PowerSumPoly:
    """Rewrite ``p`` over power sums p_2..p_n, n = p.nvars, assuming p1 = 0.

    The result agrees with ``p`` as a function on the hyperplane
    sum(a_i) = 0; a representation exists iff ``p`` is symmetric modulo
    that relation, and it is unique, since p_2..p_n are free generators
    there.

    Modulo p1 means after ``eliminate_last_var``, in N = n - 1 variables.
    Every image of a p_mu there is invariant under permuting a_1..a_N, so
    a target that is not invariant has no representation, and for one that
    is, a combination equals it exactly when the two agree at every
    monomial a^lam with lam a partition.  So the system has one row per
    partition of weight <= deg with at most N parts, not one per monomial,
    and column mu reads the image of p_mu there as the right-hand side
    reads the target.  ``_power_sum_columns`` caches that system per degree
    and rank min(degree, N); a partition of weight <= deg has at most deg
    parts, so its rows are these.  The zero polynomial needs no special
    case: its degree-0 system has the one row () and the solution 0.

    Raises:
        NotSymmetricError: no representation exists.
    """
    target = eliminate_last_var(p)
    if not _is_symmetric(target):
        raise NotSymmetricError("polynomial is not symmetric modulo p1 = 0")
    degree = p.total_degree()
    mus, lams, rows = _power_sum_columns(degree, min(degree, target.nvars))
    # solved on the numerators: dividing the right-hand side by den divides the solution by it
    solution = _solve_linear(rows, _partition_coeffs(target, lams))
    if solution is None:
        raise NotSymmetricError("polynomial is not symmetric modulo p1 = 0")
    return PowerSumPoly({mu: c / target.den for mu, c in zip(mus, solution) if c})


# -- closed forms in the rank n ---------------------------------------------


def _trim(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def format_coeff_in_n(coeffs: Sequence[Fraction]) -> str:
    """Pretty form of a univariate polynomial in n, e.g. ``(n^3 - n)/12``."""
    trimmed = _trim(coeffs)
    if not trimmed:
        return "0"
    if len(trimmed) == 1:
        return format_rat(trimmed[0])
    den = math.lcm(*(c.denominator for c in trimmed))
    numer = [c * den for c in trimmed]
    head = _join_signed(
        _signed_term(c, "n" if k == 1 else f"n^{k}" if k > 1 else "")
        for k, c in reversed(list(enumerate(numer)))
        if c
    )
    if den == 1:
        return head
    return f"({head})/{den}" if len([c for c in numer if c]) > 1 else f"{head}/{den}"


class ClosedForm(_PartitionCombination):
    """Power-sum combination whose coefficients are polynomials in the rank n.

    Coefficient polynomials are stored as tuples of Fractions in ascending
    powers of n with trailing zeros trimmed; only the tests evaluate it at a rank.
    """

    __slots__ = ()

    @staticmethod
    def _sum(values: list[Sequence[Fraction]]) -> tuple[Fraction, ...]:
        by_power = itertools.zip_longest(*values, fillvalue=0)  # the coefficients of n^0, n^1, ...
        return _trim([sum(map(Fraction, cs), Fraction(0)) for cs in by_power])

    def __str__(self) -> str:
        return _join_signed(self._signed_item(lam, cs) for lam, cs in self.sorted_items())

    @staticmethod
    def _signed_item(lam: Partition, cs: tuple[Fraction, ...]) -> tuple[bool, str]:
        positive = cs[-1] > 0  # sign of the leading coefficient in n
        body = format_coeff_in_n(cs if positive else [-c for c in cs])
        mono = format_partition(lam)
        if mono:
            if sum(1 for c in cs if c) > 1 and all(c.denominator == 1 for c in cs):
                body = f"({body})"  # several terms with no denominator to group them
            body = mono if body == "1" else f"{body}*{mono}"
        return positive, body


def interpolate_in_n(
    samples: Sequence[tuple[int, PowerSumPoly]], degree_bound: int
) -> ClosedForm:
    """Fit each partition coefficient as a polynomial in n of degree <= degree_bound.

    Each fit solves the Vandermonde system of all samples with
    ``_solve_linear``, which checks its solution against every row.  With
    distinct ranks and at least degree_bound + 1 of them the columns are
    independent, so the fit is the unique interpolant through every sample.

    Raises:
        ValueError: fewer than degree_bound + 1 distinct sample ranks.
        InterpolationInconsistentError: a sample is not reproduced.
    """
    ns = [n for n, _ in samples]
    if len(set(ns)) != len(ns):
        raise ValueError("sample ranks must be distinct")
    if len(samples) < degree_bound + 1:
        raise ValueError(
            f"need at least {degree_bound + 1} samples for degree bound {degree_bound}, got {len(samples)}"
        )
    support = sorted({lam for _, q in samples for lam in q.coeffs}, key=_term_order_key)
    rows = [[n**k for k in range(degree_bound + 1)] for n in ns]
    out: dict[Partition, list[Fraction]] = {}
    for lam in support:
        coeffs = _solve_linear(rows, [q.coeffs.get(lam, Fraction(0)) for _, q in samples])
        if coeffs is None:
            raise InterpolationInconsistentError(
                f"coefficient of {format_partition(lam) or '1'} does not fit a "
                f"degree-{degree_bound} polynomial in n"
            )
        out[lam] = coeffs
    return ClosedForm(out)
