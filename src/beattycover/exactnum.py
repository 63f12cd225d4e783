"""Certified exact arithmetic over rationals, quadratic irrationals and
Q-linear combinations of named irrational basis values.

Every value handled by this package is one of three carriers:

* ``fractions.Fraction``  -- exact rationals,
* ``QuadraticIrrational`` -- (a + b*sqrt(d)) / r in a canonical form,
* ``LinearExpr``          -- constant + sum of coeff * basis-value.

Floors, fractional parts, signs, comparisons and integrality tests are
computed exactly for the first two carriers (integer square-root
bracketing, never floating point).  Linear expressions are resolved
exactly whenever they collapse into a single quadratic field, and
otherwise by rational interval refinement up to a configurable bit
budget.  Refinement that hits the budget raises ``PrecisionExhausted``
instead of guessing; a wrong floor would silently corrupt every
multiset count built on top of it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

DEFAULT_MAX_BITS = 4096

_MIN_BITS = 64


class PrecisionExhausted(Exception):
    """Interval refinement hit the bit budget without deciding the query."""


class AmbiguousBasis(Exception):
    """Integrality is undecidable because the basis never declared
    affine independence and the expression does not collapse."""


def _squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, d) with n = s*s*d and d squarefree."""
    s, d = 1, 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return s, d * m


def _floor_sqrt_mul(b: int, d: int) -> int:
    """floor(b * sqrt(d)) for squarefree d >= 2 (b*sqrt(d) is irrational
    unless b == 0, so the negative branch never sits on an integer)."""
    if b == 0:
        return 0
    if b > 0:
        return math.isqrt(b * b * d)
    return -math.isqrt(b * b * d) - 1


def floor_scaled_quadratic(a: int, b: int, d: int, r: int) -> int:
    """floor((a + b*sqrt(d)) / r) with r > 0, exactly, in pure integers."""
    return (a + _floor_sqrt_mul(b, d)) // r


def ceil_scaled_quadratic(a: int, b: int, d: int, r: int) -> int:
    """ceil((a + b*sqrt(d)) / r) with r > 0, exactly."""
    if b == 0:
        return -((-a) // r)
    return floor_scaled_quadratic(a, b, d, r) + 1


@dataclass(frozen=True)
class QuadraticIrrational:
    """(a + b*sqrt(d)) / r with d squarefree, b != 0, r > 0, gcd(a,b,r) = 1.

    Construction canonicalises: square factors of d move into b, the sign
    of r moves into a and b, and the common gcd is divided out.  A perfect
    square radicand (which would make the value rational) is rejected
    rather than silently coerced; rationals belong in ``Fraction``.
    """

    a: int
    b: int
    d: int
    r: int

    def __post_init__(self) -> None:
        a, b, d, r = self.a, self.b, self.d, self.r
        for name, v in (("a", a), ("b", b), ("d", d), ("r", r)):
            if not isinstance(v, int):
                raise TypeError(f"field {name} must be int, got {type(v).__name__}")
        if r == 0:
            raise ValueError("denominator r must be nonzero")
        if d <= 0:
            raise ValueError("radicand d must be a positive integer")
        s, d0 = _squarefree_split(d)
        if d0 == 1:
            raise ValueError(f"radicand {d} is a perfect square; the value is rational")
        b, d = b * s, d0
        if b == 0:
            raise ValueError("b must be nonzero; rational values use Fraction")
        if r < 0:
            a, b, r = -a, -b, -r
        g = math.gcd(math.gcd(abs(a), abs(b)), r)
        if g > 1:
            a, b, r = a // g, b // g, r // g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "r", r)

    # -- numeric views ------------------------------------------------

    def __float__(self) -> float:
        return (self.a + self.b * math.sqrt(self.d)) / self.r

    def sign(self) -> int:
        a, b, d = self.a, self.b, self.d
        if b > 0:
            if a >= 0:
                return 1
            return 1 if b * b * d > a * a else -1
        if a <= 0:
            return -1
        return 1 if a * a > b * b * d else -1

    def floor(self) -> int:
        return floor_scaled_quadratic(self.a, self.b, self.d, self.r)

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        scale = 1 << bits
        s = math.isqrt(self.d * scale * scale)
        lo_s, hi_s = Fraction(s, scale), Fraction(s + 1, scale)
        if self.b >= 0:
            lo = (self.a + self.b * lo_s) / self.r
            hi = (self.a + self.b * hi_s) / self.r
        else:
            lo = (self.a + self.b * hi_s) / self.r
            hi = (self.a + self.b * lo_s) / self.r
        return lo, hi

    # -- operators (delegate to the module-level exact arithmetic) ----

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return QuadraticIrrational(-self.a, -self.b, self.d, self.r)

    def __lt__(self, other):
        return compare(self, other) < 0

    def __le__(self, other):
        return compare(self, other) <= 0

    def __gt__(self, other):
        return compare(self, other) > 0

    def __ge__(self, other):
        return compare(self, other) >= 0

    def __repr__(self) -> str:
        return f"({self.a}{self.b:+d}*sqrt({self.d}))/{self.r}"


_DECIMAL_RE = re.compile(r"^([+-]?)(\d+)(?:\.(\d+))?(?:\.\.\.|…)?$")


@dataclass(frozen=True)
class DecimalAnchor:
    """A basis irrational known only through a decimal approximation.

    The string is taken to be accurate to one unit in the last place, so
    the anchored value lies in [literal - ulp, literal + ulp].  Anchors
    cannot be refined beyond that interval; queries that need more raise
    ``PrecisionExhausted``.
    """

    decimal: str

    def __post_init__(self) -> None:
        if self._parse() is None:
            raise ValueError(f"malformed anchor decimal {self.decimal!r}")

    def _parse(self) -> Optional[tuple[Fraction, Fraction]]:
        m = _DECIMAL_RE.match(self.decimal.strip())
        if m is None:
            return None
        sign, whole, frac = m.groups()
        frac = frac or ""
        val = Fraction(int(whole + frac) if whole + frac else 0, 10 ** len(frac))
        if sign == "-":
            val = -val
        return val, Fraction(1, 10 ** len(frac))

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        val, ulp = self._parse()
        return val - ulp, val + ulp

    def __float__(self) -> float:
        return float(self._parse()[0])


BasisValue = Union[QuadraticIrrational, DecimalAnchor]


def _auto_independent(values: tuple[BasisValue, ...]) -> Optional[bool]:
    """Derive affine independence over Q where it is decidable.

    Quadratic irrationals over pairwise distinct squarefree radicands are
    affinely independent together with 1; two values sharing a radicand
    are always dependent.  Anchors leave the question open.
    """
    ds = [v.d for v in values if isinstance(v, QuadraticIrrational)]
    if len(ds) != len(set(ds)):
        return False
    if len(ds) == len(values):
        return True
    return None


@dataclass(frozen=True)
class Basis:
    """Named irrational basis values, optionally declared independent.

    ``independent`` is tri-state: True (declared or derived), False
    (known dependent) or None (undecided, e.g. anchored values)."""

    entries: tuple[tuple[str, BasisValue], ...]
    independent: Optional[bool] = None

    def __post_init__(self) -> None:
        entries = tuple(sorted(self.entries))
        labels = [lab for lab, _ in entries]
        if len(labels) != len(set(labels)):
            raise ValueError("duplicate basis labels")
        derived = _auto_independent(tuple(v for _, v in entries))
        indep = self.independent
        if indep is None:
            indep = derived
        elif indep is True and derived is False:
            raise ValueError("basis values sharing a radicand cannot be independent")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "independent", indep)

    @classmethod
    def make(cls, values: dict, independent: Optional[bool] = None) -> "Basis":
        return cls(tuple(values.items()), independent)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.entries)

    def value(self, label: str) -> BasisValue:
        for lab, v in self.entries:
            if lab == label:
                return v
        raise KeyError(label)

    def merged(self, other: "Basis") -> "Basis":
        vals = dict(self.entries)
        for lab, v in other.entries:
            if lab in vals and vals[lab] != v:
                raise ValueError(f"basis label {lab!r} bound to two different values")
            vals[lab] = v
        if self.entries == other.entries:
            return Basis(self.entries, self.independent)
        return Basis.make(vals)


@dataclass(frozen=True)
class LinearExpr:
    """constant + sum(coeff * basis value), coefficients rational.

    An expression with no terms is exactly its constant.  Construction
    drops zero coefficients and sorts terms, so field equality is a
    canonical-form equality (value equality across different bases must
    go through ``compare``)."""

    constant: Fraction
    terms: tuple[tuple[str, Fraction], ...]
    basis: Basis

    def __post_init__(self) -> None:
        const = _to_fraction(self.constant)
        terms = []
        for lab, coeff in self.terms:
            coeff = _to_fraction(coeff)
            if lab not in self.basis.labels:
                raise ValueError(f"term label {lab!r} missing from basis")
            if coeff != 0:
                terms.append((lab, coeff))
        terms.sort()
        object.__setattr__(self, "constant", const)
        object.__setattr__(self, "terms", tuple(terms))

    def coefficient(self, label: str) -> Fraction:
        for lab, c in self.terms:
            if lab == label:
                return c
        return Fraction(0)

    def __float__(self) -> float:
        return float(self.constant) + sum(
            float(c) * float(self.basis.value(lab)) for lab, c in self.terms
        )

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return LinearExpr(-self.constant, tuple((l, -c) for l, c in self.terms), self.basis)

    def __repr__(self) -> str:
        parts = [str(self.constant)] + [f"{c}*{l}" for l, c in self.terms]
        return " + ".join(parts)


CertifiedReal = Union[Fraction, QuadraticIrrational, LinearExpr]
RealLike = Union[int, Fraction, QuadraticIrrational, LinearExpr]


class IntegerCheck(NamedTuple):
    value: bool
    exact: bool


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def as_real(x: RealLike) -> CertifiedReal:
    """Coerce an int to Fraction; pass certified carriers through.

    Floats are rejected deliberately: they would smuggle rounding error
    into a pipeline whose whole point is exactness."""
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (Fraction, QuadraticIrrational, LinearExpr)):
        return x
    raise TypeError(f"not a certified real: {type(x).__name__}")


def sqrt(n: int) -> QuadraticIrrational:
    """Exact sqrt(n) for a non-square positive integer."""
    return QuadraticIrrational(0, 1, n, 1)


def _qi(a: int, b: int, d: int, r: int) -> CertifiedReal:
    """Quadratic constructor that collapses to Fraction when b == 0."""
    if b == 0:
        return Fraction(a, r)
    return QuadraticIrrational(a, b, d, r)


def _sqrt_label(d: int) -> str:
    return f"sqrt{d}"


def _qi_as_linear(q: QuadraticIrrational) -> LinearExpr:
    lab = _sqrt_label(q.d)
    basis = Basis.make({lab: sqrt(q.d)})
    return LinearExpr(Fraction(q.a, q.r), ((lab, Fraction(q.b, q.r)),), basis)


def _linear(constant: Fraction, terms, basis: Basis) -> CertifiedReal:
    expr = LinearExpr(constant, tuple(terms), basis)
    if not expr.terms:
        return expr.constant
    return expr


def collapse(x: CertifiedReal) -> Optional[CertifiedReal]:
    """Collapse a LinearExpr into a single exact carrier when possible.

    Succeeds when every term's basis value lies in one quadratic field
    (then the combination is again rational or quadratic).  Returns None
    when anchors or several radicands keep the expression symbolic."""
    if not isinstance(x, LinearExpr):
        return x
    if not x.terms:
        return x.constant
    vals = [x.basis.value(lab) for lab, _ in x.terms]
    if not all(isinstance(v, QuadraticIrrational) for v in vals):
        return None
    ds = {v.d for v in vals}
    if len(ds) > 1:
        return None
    d = ds.pop()
    num_a, num_b, den = x.constant.numerator, 0, x.constant.denominator
    for (lab, coeff), v in zip(x.terms, vals):
        # accumulate coeff * (va + vb*sqrt(d)) / vr over a common denominator
        cn, cd = coeff.numerator, coeff.denominator
        term_den = cd * v.r
        num_a = num_a * term_den + cn * v.a * den
        num_b = num_b * term_den + cn * v.b * den
        den *= term_den
    return _qi(num_a, num_b, d, den)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def add(x: RealLike, y: RealLike) -> CertifiedReal:
    x, y = as_real(x), as_real(y)
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x + y
    if isinstance(x, Fraction):
        x, y = y, x
    # x is QI or LinearExpr
    if isinstance(x, QuadraticIrrational):
        if isinstance(y, Fraction):
            return _qi(x.a * y.denominator + y.numerator * x.r,
                       x.b * y.denominator, x.d, x.r * y.denominator)
        if isinstance(y, QuadraticIrrational):
            if x.d == y.d:
                return _qi(x.a * y.r + y.a * x.r, x.b * y.r + y.b * x.r,
                           x.d, x.r * y.r)
            return add(_qi_as_linear(x), _qi_as_linear(y))
        return add(_qi_as_linear(x), y)
    # x is LinearExpr
    if isinstance(y, Fraction):
        return _linear(x.constant + y, x.terms, x.basis)
    if isinstance(y, QuadraticIrrational):
        y = _qi_as_linear(y)
    basis = x.basis.merged(y.basis)
    coeffs = dict(x.terms)
    for lab, c in y.terms:
        coeffs[lab] = coeffs.get(lab, Fraction(0)) + c
    return _linear(x.constant + y.constant, coeffs.items(), basis)


def neg(x: RealLike) -> CertifiedReal:
    x = as_real(x)
    return -x


def sub(x: RealLike, y: RealLike) -> CertifiedReal:
    return add(x, neg(y))


def mul(x: RealLike, y: RealLike) -> CertifiedReal:
    x, y = as_real(x), as_real(y)
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x * y
    if isinstance(x, Fraction):
        x, y = y, x
    if isinstance(y, Fraction):
        if y == 0:
            return Fraction(0)
        if isinstance(x, QuadraticIrrational):
            return _qi(x.a * y.numerator, x.b * y.numerator, x.d,
                       x.r * y.denominator)
        return _linear(x.constant * y, ((l, c * y) for l, c in x.terms), x.basis)
    if isinstance(x, QuadraticIrrational) and isinstance(y, QuadraticIrrational):
        if x.d == y.d:
            return _qi(x.a * y.a + x.b * y.b * x.d,
                       x.a * y.b + x.b * y.a, x.d, x.r * y.r)
        # sqrt(d1)*sqrt(d2) = s*sqrt(d3) with d1*d2 = s*s*d3
        s, d3 = _squarefree_split(x.d * y.d)
        r = x.r * y.r
        parts: dict[str, Fraction] = {}
        basis_vals: dict[str, BasisValue] = {}
        for lab, coeff, dd in ((_sqrt_label(x.d), Fraction(x.b * y.a, r), x.d),
                               (_sqrt_label(y.d), Fraction(x.a * y.b, r), y.d),
                               (_sqrt_label(d3), Fraction(x.b * y.b * s, r), d3)):
            parts[lab] = parts.get(lab, Fraction(0)) + coeff
            basis_vals[lab] = sqrt(dd)
        const = Fraction(x.a * y.a, r)
        basis = Basis.make({l: basis_vals[l] for l, c in parts.items() if c != 0})
        return _linear(const, ((l, c) for l, c in parts.items() if c != 0), basis)
    # mixed LinearExpr products: a side that collapses is multiplied as
    # its exact value; otherwise both sides must be rational combinations
    # of square roots, and the product is expanded term by term
    for val, other in ((x, y), (y, x)):
        if isinstance(val, LinearExpr):
            c = collapse(val)
            if c is not None and not isinstance(c, LinearExpr):
                return mul(c, other)
    xs, ys = _quadratic_summands(x), _quadratic_summands(y)
    if xs is None or ys is None:
        raise ArithmeticError("product of two irrational expressions leaves the "
                              "representable class")
    total: CertifiedReal = Fraction(0)
    for u in xs:
        for v in ys:
            total = add(total, mul(u, v))
    return total


def _quadratic_summands(x: CertifiedReal) -> Optional[list[CertifiedReal]]:
    """x as a list of rational and quadratic summands, or None when x
    involves an anchored basis value."""
    if isinstance(x, QuadraticIrrational):
        return [x]
    vals = [x.basis.value(lab) for lab, _ in x.terms]
    if not all(isinstance(v, QuadraticIrrational) for v in vals):
        return None
    return [x.constant] + [mul(c, v) for (_, c), v in zip(x.terms, vals)]


def _qi_invert(q: QuadraticIrrational) -> CertifiedReal:
    den = q.a * q.a - q.b * q.b * q.d  # nonzero: sqrt(d) is irrational
    return _qi(q.r * q.a, -q.r * q.b, q.d, den)


def div(x: RealLike, y: RealLike) -> CertifiedReal:
    x, y = as_real(x), as_real(y)
    if isinstance(y, Fraction):
        if y == 0:
            raise ZeroDivisionError("division by exact zero")
        return mul(x, 1 / y)
    if isinstance(y, QuadraticIrrational):
        return mul(x, _qi_invert(y))
    c = collapse(y)
    if c is None or isinstance(c, LinearExpr):
        raise ArithmeticError("cannot invert a linear expression that does not "
                              "collapse to a single quadratic field")
    return div(x, c)


# ---------------------------------------------------------------------------
# certified queries
# ---------------------------------------------------------------------------


def enclosure(x: RealLike, bits: int) -> tuple[Fraction, Fraction]:
    """Rational interval containing x, tightened to roughly 2^-bits for
    refinable carriers (anchors are stuck at their stated precision)."""
    x = as_real(x)
    if isinstance(x, Fraction):
        return x, x
    if isinstance(x, QuadraticIrrational):
        return x.enclosure(bits)
    lo = hi = x.constant
    for lab, coeff in x.terms:
        vlo, vhi = x.basis.value(lab).enclosure(bits)
        if coeff >= 0:
            lo, hi = lo + coeff * vlo, hi + coeff * vhi
        else:
            lo, hi = lo + coeff * vhi, hi + coeff * vlo
    return lo, hi


def _refine(x: LinearExpr, decided, max_bits: int):
    """Run ``decided(lo, hi)`` over successively tighter enclosures.

    ``decided`` returns None to keep refining.  Raises PrecisionExhausted
    when the budget runs out or the interval stops shrinking."""
    bits = _MIN_BITS
    prev = None
    while True:
        lo, hi = enclosure(x, bits)
        res = decided(lo, hi)
        if res is not None:
            return res
        if prev == (lo, hi):
            break  # anchors pinned the width; more bits will not help
        prev = (lo, hi)
        bits *= 2
        if bits > max_bits:
            break
    raise PrecisionExhausted(
        f"interval [{float(lo):.6g}, {float(hi):.6g}] undecided at {max_bits} bits")


def floor_certified(x: RealLike, max_bits: Optional[int] = None) -> int:
    """Exact floor.  Rational and quadratic carriers never fail; linear
    expressions fall back to interval refinement after trying to collapse."""
    x = as_real(x)
    if isinstance(x, Fraction):
        return x.numerator // x.denominator
    if isinstance(x, QuadraticIrrational):
        return x.floor()
    c = collapse(x)
    if c is not None:
        return floor_certified(c)
    max_bits = DEFAULT_MAX_BITS if max_bits is None else max_bits

    def decided(lo: Fraction, hi: Fraction):
        flo = lo.numerator // lo.denominator
        fhi = hi.numerator // hi.denominator
        return flo if flo == fhi else None

    return _refine(x, decided, max_bits)


def ceil_certified(x: RealLike, max_bits: Optional[int] = None) -> int:
    return -floor_certified(neg(x), max_bits)


def frac_certified(x: RealLike, max_bits: Optional[int] = None) -> CertifiedReal:
    """x - floor(x), in the same carrier family as x; always in [0, 1)."""
    x = as_real(x)
    f = floor_certified(x, max_bits)
    return sub(x, f)


def sign(x: RealLike, max_bits: Optional[int] = None) -> int:
    x = as_real(x)
    if isinstance(x, Fraction):
        return (x > 0) - (x < 0)
    if isinstance(x, QuadraticIrrational):
        return x.sign()
    c = collapse(x)
    if c is not None:
        return sign(c)
    max_bits = DEFAULT_MAX_BITS if max_bits is None else max_bits

    def decided(lo: Fraction, hi: Fraction):
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        return None

    return _refine(x, decided, max_bits)


def compare(x: RealLike, y: RealLike, max_bits: Optional[int] = None) -> int:
    """Exact three-way comparison: -1, 0 or +1.

    EQ is only ever reported when the difference provably collapses to
    zero; ties that cannot be separated at the bit budget raise."""
    return sign(sub(x, y), max_bits)


def is_integer(x: RealLike) -> IntegerCheck:
    """Integrality with an exactness certificate.

    Rationals and quadratic irrationals are decided outright (a canonical
    quadratic irrational is never an integer).  A linear expression is
    decided by collapse, or exactly refuted when its basis is declared
    affinely independent; otherwise the basis is ambiguous."""
    x = as_real(x)
    if isinstance(x, Fraction):
        return IntegerCheck(x.denominator == 1, True)
    if isinstance(x, QuadraticIrrational):
        return IntegerCheck(False, True)
    if not x.terms:
        return IntegerCheck(x.constant.denominator == 1, True)
    c = collapse(x)
    if c is not None:
        return is_integer(c)
    if x.basis.independent is True:
        return IntegerCheck(False, True)
    raise AmbiguousBasis(
        "cannot decide integrality: declare the basis independent or collapse "
        "the expression to exact values")


def certified_irrational(x: RealLike) -> Optional[bool]:
    """True/False when irrationality is provable, None when unknown."""
    x = as_real(x)
    if isinstance(x, Fraction):
        return False
    if isinstance(x, QuadraticIrrational):
        return True
    c = collapse(x)
    if c is not None:
        return certified_irrational(c)
    if x.basis.independent is True:
        return True
    return None


def decimal_str(x: RealLike, digits: int = 50, max_bits: Optional[int] = None) -> str:
    """Decimal expansion truncated (toward zero) to ``digits`` places."""
    x = as_real(x)
    s = sign(x, max_bits)
    if s == 0:
        return "0." + "0" * digits
    mag = x if s > 0 else neg(x)
    scale = 10 ** digits
    n = floor_certified(mul(mag, Fraction(scale)), max_bits)
    whole, rem = divmod(n, scale)
    return f"{'-' if s < 0 else ''}{whole}.{rem:0{digits}d}"


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def _require_keys(obj: dict, keys: set[str], what: str) -> None:
    got = set(obj)
    if got != keys:
        extra = got - keys
        missing = keys - got
        detail = []
        if extra:
            detail.append(f"unknown fields {sorted(extra)}")
        if missing:
            detail.append(f"missing fields {sorted(missing)}")
        raise ValueError(f"bad {what} object: " + ", ".join(detail))


_INT_RE = re.compile(r"[+-]?\d+")


def _int_str(s) -> int:
    if isinstance(s, str) and _INT_RE.fullmatch(s):
        return int(s)
    raise ValueError(f"expected a decimal integer string, got {s!r}")


def strict_int(value, what: str) -> int:
    """An integer field read from JSON: an int or a decimal integer
    string.  Floats, bools and other strings are rejected rather than
    truncated: 2.5, true and "2.0" are input errors, not 2, 1 and 2."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _INT_RE.fullmatch(value):
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def real_to_json(x: RealLike) -> dict:
    x = as_real(x)
    if isinstance(x, Fraction):
        return {"kind": "rational", "num": str(x.numerator), "den": str(x.denominator)}
    if isinstance(x, QuadraticIrrational):
        return {"kind": "quadratic", "a": str(x.a), "b": str(x.b),
                "d": str(x.d), "r": str(x.r)}
    basis_defs = {}
    for lab, v in x.basis.entries:
        if isinstance(v, QuadraticIrrational):
            basis_defs[lab] = real_to_json(v)
        else:
            basis_defs[lab] = {"kind": "anchor", "decimal": v.decimal}
    return {
        "kind": "linear",
        "constant": real_to_json(x.constant),
        "terms": [{"basis": lab, "coeff": real_to_json(c)} for lab, c in x.terms],
        "basis_defs": basis_defs,
    }


def real_from_json(obj) -> CertifiedReal:
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "rational":
        _require_keys(obj, {"kind", "num", "den"}, "rational")
        den = _int_str(obj["den"])
        if den <= 0:
            raise ValueError("rational denominator must be positive")
        return Fraction(_int_str(obj["num"]), den)
    if kind == "quadratic":
        _require_keys(obj, {"kind", "a", "b", "d", "r"}, "quadratic")
        return QuadraticIrrational(_int_str(obj["a"]), _int_str(obj["b"]),
                                   _int_str(obj["d"]), _int_str(obj["r"]))
    if kind == "linear":
        _require_keys(obj, {"kind", "constant", "terms", "basis_defs"}, "linear")
        const = real_from_json(obj["constant"])
        if not isinstance(const, Fraction):
            raise ValueError("linear constant must be rational")
        vals: dict[str, BasisValue] = {}
        for lab, vobj in obj["basis_defs"].items():
            if isinstance(vobj, dict) and vobj.get("kind") == "anchor":
                _require_keys(vobj, {"kind", "decimal"}, "anchor")
                vals[lab] = DecimalAnchor(vobj["decimal"])
            else:
                v = real_from_json(vobj)
                if not isinstance(v, QuadraticIrrational):
                    raise ValueError("basis values must be quadratic or anchors")
                vals[lab] = v
        basis = Basis.make(vals)
        terms = []
        for t in obj["terms"]:
            _require_keys(t, {"basis", "coeff"}, "linear term")
            c = real_from_json(t["coeff"])
            if not isinstance(c, Fraction):
                raise ValueError("term coefficients must be rational")
            terms.append((t["basis"], c))
        return _linear(const, terms, basis)
    raise ValueError(f"unknown real kind {kind!r}")
