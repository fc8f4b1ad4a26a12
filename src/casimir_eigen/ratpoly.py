"""Exact sparse multivariate polynomials over the rationals.

A polynomial in N variables a1..aN is stored as a dictionary mapping
exponent tuples (one int per variable) to nonzero Fraction coefficients;
the zero polynomial is the empty dict.  All arithmetic is exact: there is
no floating point anywhere in this package.

On top of the raw polynomials this module provides the two symmetric-side
reductions everything else is expressed in:

  * ``to_power_sum``: rewrite a polynomial that is symmetric modulo the
    relation a1 + ... + aN = 0 as a rational combination of power sums
    p_k = sum(a_i^k) with parts k >= 2.  After a_N is eliminated, every
    power-sum product is invariant under permuting the remaining
    variables, so the polynomial must be too (checked exactly on two
    generators of the symmetric group), and then it suffices to match
    coefficients at the monomials a^lam with lam a partition: one linear
    equation per partition instead of one per monomial.  The coefficients
    of the eliminated power sums there are counted combinatorially and
    memoised,
  * ``interpolate_in_n``: an exact fit of per-partition coefficients as
    univariate polynomials in the rank symbol n, through every sample.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

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


def _translation(images: Sequence[MPoly]) -> tuple[list[int], list[Fraction]] | None:
    """(targets, shifts) when image i is x_(targets[i]) + shifts[i] on distinct targets, else None."""
    targets: list[int] = []
    shifts: list[Fraction] = []
    for img in images:
        target, shift = None, Fraction(0)
        for e, c in img.terms.items():
            degree = sum(e)
            if not degree:
                shift = c
            elif degree == 1 and target is None and c == 1:
                target = e.index(1)
            else:
                return None
        if target is None:
            return None
        targets.append(target)
        shifts.append(shift)
    return (targets, shifts) if len(set(targets)) == len(targets) else None


def _monomial(terms: Mapping[Exponent, Fraction | int]) -> tuple[list[tuple[int, int]], Fraction | int] | None:
    """A one-term image as (its variables with their exponents, its coefficient), else None."""
    if len(terms) != 1:
        return None
    ((f, g),) = terms.items()
    return [(k, fk) for k, fk in enumerate(f) if fk], g


def _move_exponents(
    exps: Exponent, monomials: list, coeff: Fraction | int, nvars: int
) -> tuple[Exponent, Fraction | int]:
    """Exponents and coefficient of coeff * prod(m_i^e_i) over the images with a monomial m_i."""
    target = [0] * nvars
    for monomial, e in zip(monomials, exps):
        if e and monomial is not None:
            support, g = monomial
            if g != 1:
                coeff *= g**e
            for k, fk in support:
                target[k] += fk * e
    return tuple(target), coeff


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

    Immutable by convention: no method mutates ``terms`` after
    construction, so values can be shared freely across threads.

    The public constructor checks every exponent tuple and converts every
    coefficient to Fraction.  Ring operations build their results through
    ``_trusted``, which only drops zeros: it relies on every key being a
    tuple of ``nvars`` non-negative ints and every value a Fraction, which
    sums, products and substitutions of valid polynomials (and of int or
    Fraction scalars) preserve.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Fraction | int] | None = None):
        if nvars < 0:
            raise ValueError(f"nvars must be >= 0, got {nvars}")
        clean: dict[Exponent, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} has length != nvars={nvars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = Fraction(coeff)
            if c:
                clean[tuple(exps)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[Exponent, Fraction]) -> MPoly:
        """Wrap ``terms`` without checks, dropping zeros; see the class docstring."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "terms", {e: c for e, c in terms.items() if c})
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> MPoly:
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, value: Fraction | int) -> MPoly:
        return cls(nvars, {(0,) * nvars: Fraction(value)})

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
        return cls(nvars, {tuple(exps): Fraction(1)})

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> MPoly | None:
        if isinstance(other, MPoly):
            if other.nvars != self.nvars:
                raise ValueError(f"nvars mismatch: {self.nvars} vs {other.nvars}")
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.const(self.nvars, other)
        return None

    def __add__(self, other) -> MPoly:
        if isinstance(other, (int, Fraction)):
            terms = {(0,) * self.nvars: Fraction(other)}
        else:
            rhs = self._coerce(other)
            if rhs is None:
                return NotImplemented
            terms = rhs.terms
        out = dict(self.terms)
        for exps, coeff in terms.items():
            out[exps] = out[exps] + coeff if exps in out else coeff
        return MPoly._trusted(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> MPoly:
        return MPoly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> MPoly:
        if isinstance(other, (MPoly, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other) -> MPoly:
        return (-self) + other

    def __mul__(self, other) -> MPoly:
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            return MPoly._trusted(self.nvars, {e: c * other for e, c in self.terms.items()})
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return MPoly._trusted(self.nvars, _mul_terms(self.terms, rhs.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> MPoly:
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other) if isinstance(other, (MPoly, int, Fraction)) else None
        if rhs is None:
            return NotImplemented
        return self.terms == rhs.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def substitute(self, images: Sequence[MPoly]) -> MPoly:
        """The ring homomorphism sending variable i to ``images[i]``.

        All images must lie in one ring, which is the ring of the result.
        A polynomial without variables has nothing to send and is returned
        as it is; the zero polynomial maps to the zero of the images' ring
        without any image being prepared.  The images' shape picks one of
        three expansions, each exact; D below clears the denominators of
        ``self``.

        * every image a single monomial g_i*x^f_i: each term maps to one
          monomial, c * prod(g_i^e_i) times x^(sum e_i*f_i), with no
          products of term dicts at all;
        * every image a translation x_(t_i) + c_i onto distinct variables
          (c_i may be 0), as in every rho-shift: the terms are renamed into
          the target ring and then shifted one variable at a time.  With
          c_i = p_i/q over one common q, x^E becomes
          sum_f C(E,f) * q^f * p_i^(E-f) * x^f / q^E, so scaling the
          integer numerators of a term of degree |e| by q^(deg - |e|)
          keeps every step in integers over one final divisor D * q^deg;
        * anything else runs in integers over one common denominator.
          Write image i as G_i / d_i with G_i integral and let top_i be
          the largest exponent of variable i.  Each term c*x^e is scaled by
          D * prod(d_i^(top_i - e_i)), so the scaled term times the cached
          integer powers G_i^e_i is integral, and it is the term's image
          times D * prod(d_i^top_i), the one divisor applied at the end.
          Single-monomial images only add to the exponents; term dicts are
          multiplied only by powers of the other images.
        """
        if len(images) != self.nvars:
            raise ValueError(f"need {self.nvars} images, got {len(images)}")
        if not images:
            return self
        nvars = images[0].nvars
        if any(img.nvars != nvars for img in images):
            raise ValueError("images must all have the same nvars")
        if not self.terms:
            return MPoly._trusted(nvars, {})
        if all(len(img.terms) == 1 for img in images):
            return self._substitute_monomials(images)
        translation = _translation(images)
        if translation is not None:
            return self._substitute_translation(nvars, *translation)
        dens = [math.lcm(*(c.denominator for c in img.terms.values())) for img in images]
        gens = [{e: c.numerator * (d // c.denominator) for e, c in img.terms.items()} for img, d in zip(images, dens)]
        monomials = [_monomial(gen) for gen in gens]  # such an image only adds to the exponents
        tops = [max(col) for col in zip(*self.terms)]
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        unit = {(0,) * nvars: 1}
        powers: list[list[dict[Exponent, int]]] = [[unit] for _ in images]
        out: dict[Exponent, int] = {}
        for exps, coeff in self.terms.items():
            scale = coeff.numerator * (den // coeff.denominator)
            for d, top, e in zip(dens, tops, exps):
                scale *= d ** (top - e)
            base, scale = _move_exponents(exps, monomials, scale, nvars)
            factors = []
            for gen, pows, e, monomial in zip(gens, powers, exps, monomials):
                if e and monomial is None:
                    while len(pows) <= e:
                        pows.append(_mul_terms(pows[-1], gen))
                    factors.append(pows[e])
            term = {base: scale}
            for factor in factors[:-1]:
                term = _mul_terms(term, factor)
            _mul_terms(term, factors[-1] if factors else unit, out)  # the last product adds into out
        den *= math.prod(d**top for d, top in zip(dens, tops))
        return MPoly._trusted(nvars, {e: Fraction(c, den) for e, c in out.items()})

    def _substitute_translation(self, nvars: int, targets: list[int], shifts: list[Fraction]) -> MPoly:
        """``substitute`` for images x_(targets[i]) + shifts[i] on distinct targets; see there."""
        q = math.lcm(*(c.denominator for c in shifts))
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        deg = max(map(sum, self.terms))
        slots = [len(targets)] * nvars  # target variable -> source index, or the pad 0 past the end
        for i, t in enumerate(targets):
            slots[t] = i
        terms: dict[Exponent, int] = {
            tuple(map((exps + (0,)).__getitem__, slots)): c.numerator * (den // c.denominator) * q ** (deg - sum(exps))
            for exps, c in self.terms.items()
        }
        for t, shift, top in zip(targets, shifts, (max(col) for col in zip(*self.terms))):
            p = shift.numerator * (q // shift.denominator)
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
        den *= q**deg
        return MPoly._trusted(nvars, {e: Fraction(c, den) for e, c in terms.items()})

    def _substitute_monomials(self, images: Sequence[MPoly]) -> MPoly:
        """``substitute`` for images that are all single monomials; see there."""
        nvars = images[0].nvars
        monomials = [_monomial(img.terms) for img in images]
        out: dict[Exponent, Fraction] = {}
        for exps, coeff in self.terms.items():
            key, coeff = _move_exponents(exps, monomials, coeff, nvars)
            out[key] = out[key] + coeff if key in out else coeff
        return MPoly._trusted(nvars, out)

    # -- queries -----------------------------------------------------------

    def total_degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        return max((sum(e) for e in self.terms), default=0)

    def eval_at(self, point: Sequence[Fraction | int]) -> Fraction:
        """Exact evaluation at a rational point (one value per variable)."""
        values = [Fraction(v) for v in point]
        if len(values) != self.nvars:
            raise ValueError(f"point has {len(values)} coordinates, expected {self.nvars}")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for e, v in zip(exps, values):
                if e:
                    term *= v**e
            total += term
        return total

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in canonical order (graded lexicographic, descending)."""
        return sorted(self.terms.items(), key=lambda item: _term_order_key(item[0]))

    def __str__(self) -> str:
        return format_mpoly(self)

    def __repr__(self) -> str:
        return f"MPoly({self.nvars}, {self!s})"


def alpha(index: int, nvars: int) -> MPoly:
    """The Langlands-parameter variable a_index, 1-based."""
    return MPoly.variable(nvars, index - 1)


def power_sum(k: int, nvars: int) -> MPoly:
    """p_k = a1^k + ... + aN^k as an explicit polynomial."""
    if k < 1:
        raise ValueError("power sums need k >= 1")
    out = MPoly.zero(nvars)
    for i in range(nvars):
        out = out + MPoly.variable(nvars, i) ** k
    return out


def format_rat(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _format_monomial(exps: Exponent, names: Sequence[str]) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


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


def format_mpoly(p: MPoly, names: Sequence[str] | None = None) -> str:
    """Canonical human-readable form, e.g. ``a1*a5 - a2*a5 - a1 + a2``."""
    if names is None:
        names = [f"a{i + 1}" for i in range(p.nvars)]
    return _join_signed(_signed_term(c, _format_monomial(e, names)) for e, c in p.sorted_terms())


def eliminate_last_var(p: MPoly) -> MPoly:
    """Substitute aN := -(a1 + ... + a_{N-1}), returning an (N-1)-variable polynomial.

    Two polynomials agree on the hyperplane sum(a_i) = 0 exactly when their
    images under this substitution are equal, so this is the canonical form
    for arithmetic modulo the ideal generated by p1.
    """
    if p.nvars == 0:
        return p
    m = p.nvars - 1
    head = [MPoly.variable(m, i) for i in range(m)]
    return p.substitute(head + [-sum(head, MPoly.zero(m))])


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
    been imposed.
    """

    __slots__ = ()

    @staticmethod
    def _sum(values: list[Fraction | int]) -> Fraction:
        return sum(map(Fraction, values), Fraction(0))

    @classmethod
    def zero(cls) -> PowerSumPoly:
        return cls({})

    def expand(self, nvars: int) -> MPoly:
        """Write the combination out as an explicit polynomial in a1..aN."""
        out = MPoly.zero(nvars)
        for lam, coeff in self.coeffs.items():
            term = MPoly.const(nvars, coeff)
            for k in lam:
                term = term * power_sum(k, nvars)
            out = out + term
        return out

    def __str__(self) -> str:
        return _join_signed(_signed_term(c, format_partition(lam)) for lam, c in self.sorted_items())


def format_partition(lam: Partition) -> str:
    """Render p_lambda, e.g. (3, 2, 2) -> ``p3*p2^2`` and () -> ``""``."""
    pieces = []
    for k in sorted(set(lam), reverse=True):
        mult = lam.count(k)
        pieces.append(f"p{k}" if mult == 1 else f"p{k}^{mult}")
    return "*".join(pieces)


def _partitions(max_weight: int, min_part: int = 1, max_len: int | None = None) -> list[Partition]:
    """Partitions with parts >= min_part, weight <= max_weight and at most max_len parts, plus ()."""
    out: list[Partition] = [()]

    def grow(remaining: int, max_part: int, acc: tuple[int, ...]) -> None:
        if len(acc) == max_len:
            return
        for k in range(min(remaining, max_part), min_part - 1, -1):
            out.append(acc + (k,))
            grow(remaining - k, k, acc + (k,))

    grow(max_weight, max_weight, ())
    return sorted(out, key=_term_order_key)


def _bounded_vectors(total: int, bounds: Sequence[int]) -> Iterable[tuple[int, ...]]:
    """Vectors v with 0 <= v[i] <= bounds[i] whose entries sum to total."""
    if not bounds:
        if total == 0:
            yield ()
        return
    for first in range(min(total, bounds[0]) + 1):
        for rest in _bounded_vectors(total - first, bounds[1:]):
            yield (first, *rest)


@functools.lru_cache(maxsize=None)
def _reduced_coeff(mu: Partition, lam: Partition) -> int:
    """Coefficient of a^lam in eliminate_last_var(p_mu), in any N >= len(lam) variables.

    p_k becomes sum_j a_j^k + (-(a_1 + ... + a_N))^k, so the last part k of
    mu either sits on one position of lam or is spread over positions as a
    vector v with weight (-1)^k multinomial(k; v).  The other parts of mu
    must make up lam - v, whose coefficient depends only on its sorted
    parts because every image is invariant under permuting a_1..a_N.
    """
    if sum(mu) != sum(lam):
        return 0
    if not mu:
        return 1
    k = mu[-1]
    total = 0
    for v in _bounded_vectors(k, lam):
        weight = (-1) ** k * math.factorial(k)
        for x in v:
            weight //= math.factorial(x)
        if k in v:
            weight += 1
        rest = tuple(sorted((x - y for x, y in zip(lam, v) if x != y), reverse=True))
        total += weight * _reduced_coeff(mu[:-1], rest)
    return total


def _is_symmetric(p: MPoly) -> bool:
    """Whether ``p`` is invariant under every permutation of its variables.

    The transposition (1 2) and the cycle (1 2 ... N) generate S_N, so two
    exponent permutations decide it exactly.  The coefficients are compared
    as integer numerators over one common denominator.
    """
    if p.nvars < 2:
        return True
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    numerators = {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}
    swapped = {(e[1], e[0], *e[2:]): c for e, c in numerators.items()}
    rotated = {(*e[1:], e[0]): c for e, c in numerators.items()}
    return swapped == numerators == rotated


def _solve_linear(rows: list[list[Fraction | int]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Exact Gaussian elimination; returns one solution or None if inconsistent.

    Underdetermined systems get free variables set to zero.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    a = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(n_rows):
            if i != r and a[i][c]:
                factor = a[i][c]
                a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
        pivot_of_col[c] = r
        r += 1
        if r == n_rows:
            break
    for i in range(r, n_rows):
        if a[i][n_cols]:
            return None
    solution = [Fraction(0)] * n_cols
    for c, pr in pivot_of_col.items():
        solution[c] = a[pr][n_cols]
    # Verify (cheap, and guards the free-variable case).
    for row, b in zip(rows, rhs):
        if sum((x * s for x, s in zip(row, solution)), Fraction(0)) != b:
            return None
    return solution


def to_power_sum(p: MPoly, n: int) -> PowerSumPoly:
    """Rewrite ``p`` over power sums p_2..p_deg, assuming p1 = 0.

    The result agrees with ``p`` as a function on the hyperplane
    sum(a_i) = 0; a representation exists iff ``p`` is symmetric modulo
    that relation, and it is unique whenever n >= deg(p).

    Modulo p1 means after ``eliminate_last_var``, in N = n - 1 variables.
    Every image of a p_mu there is invariant under permuting a_1..a_N, so
    a target that is not invariant has no representation, and for one that
    is, a combination equals it exactly when the two agree at every
    monomial a^lam with lam a partition.  So the system has one row per
    partition of weight <= deg with at most N parts, not one per monomial.
    Its columns have the null space of the full system, and
    ``_solve_linear`` picks pivot columns from the null space alone, so
    when n < deg the free coefficients are set to 0 exactly as they would
    be over every monomial.

    Raises:
        NotSymmetricError: no representation exists.
    """
    if p.nvars != n:
        raise ValueError(f"polynomial has nvars={p.nvars}, expected {n}")
    if not p.terms:
        return PowerSumPoly.zero()
    target = eliminate_last_var(p)
    if not _is_symmetric(target):
        raise NotSymmetricError("polynomial is not symmetric modulo p1 = 0")
    degree = p.total_degree()
    basis = _partitions(degree, min_part=2)
    rows_at = _partitions(degree, max_len=target.nvars)
    rows = [[_reduced_coeff(mu, lam) for mu in basis] for lam in rows_at]
    rhs = [target.terms.get(lam + (0,) * (target.nvars - len(lam)), Fraction(0)) for lam in rows_at]
    solution = _solve_linear(rows, rhs)
    if solution is None:
        raise NotSymmetricError("polynomial is not symmetric modulo p1 = 0")
    return PowerSumPoly({lam: c for lam, c in zip(basis, solution) if c})


# -- closed forms in the rank n ---------------------------------------------


def _trim(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _poly_in_n_eval(coeffs: Sequence[Fraction], n: int) -> Fraction:
    total = Fraction(0)
    for k, c in enumerate(coeffs):
        total += c * n**k
    return total


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
    powers of n with trailing zeros trimmed.
    """

    __slots__ = ()

    @staticmethod
    def _sum(values: list[Sequence[Fraction]]) -> tuple[Fraction, ...]:
        by_power = itertools.zip_longest(*values, fillvalue=0)  # the coefficients of n^0, n^1, ...
        return _trim([sum(map(Fraction, cs), Fraction(0)) for cs in by_power])

    def at(self, n: int) -> PowerSumPoly:
        """Evaluate every coefficient at a concrete rank n."""
        return PowerSumPoly({lam: _poly_in_n_eval(cs, n) for lam, cs in self.coeffs.items()})

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
