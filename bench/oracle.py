"""Integer-only correctness oracle for the benchmark.

Shares no code with the program under test.  Values are sums
``c_1 + sum c_d * sqrt(d)`` with rational coefficients over squarefree
radicands (a ``Surd``); floors come from ``math.isqrt`` brackets that are
widened until they decide, so no floating point is involved.

A ``verify`` answer is recomputed in the primal direction: every
``floor(n*alpha + beta)`` that lands in the window is enumerated forward
from ``n``, which is independent of the dual ``theta``/``gamma`` count
and the fractional-sum identity that the scanner uses.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

MAX_BITS = 1 << 14


class OracleError(Exception):
    """An input the oracle cannot evaluate (a benchmark defect, not a
    program failure)."""


def squarefree_split(n: int) -> tuple[int, int]:
    """(s, d) with n = s*s*d and d squarefree; radicands here are small."""
    s, d, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            d *= p
        p += 1
    return s, d * n


class Surd:
    """c_1 + sum_d c_d * sqrt(d); ``terms`` maps radicand -> Fraction,
    key 1 is the rational part, zero coefficients are dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {d: Fraction(c) for d, c in (terms or {}).items() if c}

    @classmethod
    def rational(cls, x) -> "Surd":
        return cls({1: Fraction(x)})

    @classmethod
    def quadratic(cls, a: int, b: int, d: int, r: int) -> "Surd":
        """(a + b*sqrt(d)) / r for any d >= 1."""
        s, d0 = squarefree_split(d)
        if d0 == 1:
            return cls({1: Fraction(a + b * s, r)})
        return cls({1: Fraction(a, r), d0: Fraction(b * s, r)})

    def __eq__(self, other) -> bool:
        return isinstance(other, Surd) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __repr__(self) -> str:
        return f"Surd({self.terms})"

    @property
    def is_rational(self) -> bool:
        return set(self.terms) <= {1}

    @property
    def radicands(self) -> tuple[int, ...]:
        return tuple(sorted(d for d in self.terms if d != 1))

    def __add__(self, other) -> "Surd":
        other = _surd(other)
        out = dict(self.terms)
        for d, c in other.terms.items():
            out[d] = out.get(d, 0) + c
        return Surd(out)

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return Surd({d: -c for d, c in self.terms.items()})

    def __sub__(self, other) -> "Surd":
        return self + (-_surd(other))

    def __rsub__(self, other) -> "Surd":
        return _surd(other) - self

    def __mul__(self, other) -> "Surd":
        other = _surd(other)
        out: dict[int, Fraction] = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                s, d = squarefree_split(d1 * d2)
                out[d] = out.get(d, 0) + c1 * c2 * s
        return Surd(out)

    __rmul__ = __mul__

    def inverse(self) -> "Surd":
        """1/x for x rational or in one quadratic field."""
        rads = self.radicands
        if len(rads) > 1:
            raise OracleError("inverse of a value spanning several radicands")
        a = self.terms.get(1, Fraction(0))
        if not rads:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return Surd.rational(1 / a)
        d = rads[0]
        b = self.terms[d]
        norm = a * a - b * b * d  # nonzero: sqrt(d) is irrational
        return Surd({1: a / norm, d: -b / norm})

    def __truediv__(self, other) -> "Surd":
        return self * _surd(other).inverse()

    def scaled_ints(self) -> tuple[int, dict[int, int]]:
        """(D, {d: A_d}) with self = sum A_d*sqrt(d) / D, integers."""
        den = 1
        for c in self.terms.values():
            den = den * c.denominator // math.gcd(den, c.denominator)
        return den, {d: int(c * den) for d, c in self.terms.items()}


def _surd(x) -> Surd:
    return x if isinstance(x, Surd) else Surd.rational(x)


def floor_b_sqrt(b: int, d: int) -> int:
    """floor(b*sqrt(d)) for squarefree d > 1."""
    if b >= 0:
        return math.isqrt(b * b * d)
    return -math.isqrt(b * b * d) - 1


def floor_ints(den: int, ints: dict[int, int]) -> int:
    """floor(sum ints[d]*sqrt(d) / den), den > 0, radicands squarefree."""
    a0 = ints.get(1, 0)
    rads = [(d, b) for d, b in ints.items() if d != 1 and b]
    if not rads:
        return a0 // den
    if len(rads) == 1:
        d, b = rads[0]
        return (a0 + floor_b_sqrt(b, d)) // den
    # several independent radicands: the sum is irrational, so brackets
    # of width len(rads) * 2^-bits eventually fall inside one unit cell
    bits = 64
    while bits <= MAX_BITS:
        lo = a0 << bits
        for d, b in rads:
            lo += floor_b_sqrt(b << bits, d)
        hi = lo + len(rads)  # value * 2^bits lies strictly inside (lo, hi)
        mod = den << bits
        f = lo // mod
        if (f + 1) * mod >= hi:
            return f
        bits *= 2
    raise OracleError("floor undecided within the oracle's bit budget")


def floor(x: Surd) -> int:
    den, ints = x.scaled_ints()
    return floor_ints(den, ints)


def ceil(x: Surd) -> int:
    return -floor(-x)


def frac(x: Surd) -> Surd:
    return x - floor(x)


def decimal50(x: Surd) -> str:
    """Decimal expansion of x >= 0 truncated to 50 places."""
    scale = 10 ** 50
    whole, rem = divmod(floor(x * scale), scale)
    return f"{whole}.{rem:050d}"


# ---------------------------------------------------------------------------
# JSON inputs
# ---------------------------------------------------------------------------


def real_from_json(obj) -> Surd:
    kind = obj["kind"]
    if kind == "rational":
        return Surd.rational(Fraction(int(obj["num"]), int(obj["den"])))
    if kind == "quadratic":
        return Surd.quadratic(int(obj["a"]), int(obj["b"]), int(obj["d"]),
                              int(obj["r"]))
    if kind == "linear":
        total = real_from_json(obj["constant"])
        for t in obj["terms"]:
            base = obj["basis_defs"][t["basis"]]
            if base.get("kind") == "anchor":
                raise OracleError("anchored basis values are not supported")
            total = total + real_from_json(t["coeff"]) * real_from_json(base)
        return total
    raise OracleError(f"unknown real kind {kind!r}")


@dataclass(frozen=True)
class Family:
    m: int
    seqs: tuple[tuple[Surd, Surd], ...]  # (alpha, beta)

    @classmethod
    def from_json(cls, obj) -> "Family":
        seqs = []
        for s in obj["sequences"]:
            beta = real_from_json(s["beta"]) if "beta" in s else Surd.rational(0)
            seqs.append((real_from_json(s["alpha"]), beta))
        return cls(int(obj["m"]), tuple(seqs))

    @property
    def reciprocal_sum(self) -> Surd:
        total = Surd.rational(0)
        for alpha, _ in self.seqs:
            total = total + alpha.inverse()
        return total


# ---------------------------------------------------------------------------
# verify: primal enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowTruth:
    lo: int
    hi: int
    m: int
    counts: tuple[int, ...]  # r(N) for N = lo..hi
    lattice_hit: bool  # some n*alpha + beta is an integer inside the window

    @property
    def histogram(self) -> dict[str, int]:
        return {str(k): v for k, v in sorted(Counter(self.counts).items())}

    @property
    def violations(self) -> list[int]:
        return [self.lo + i for i, c in enumerate(self.counts) if c != self.m]


def window_truth(fam: Family, lo: int, hi: int) -> WindowTruth:
    """Count, for each N in [lo, hi], the n >= 1 with floor(n*alpha+beta) = N."""
    counts = [0] * (hi - lo + 1)
    lattice = False
    for alpha, beta in fam.seqs:
        inv = alpha.inverse()
        # floor(v(n)) >= lo  <=>  n >= (lo - beta)/alpha, and
        # floor(v(n)) <= hi  <=>  n <  (hi + 1 - beta)/alpha
        n_first = max(1, ceil((lo - beta) * inv))
        n_last = ceil((hi + 1 - beta) * inv) - 1
        if n_last < n_first:
            continue
        den_a, ia = alpha.scaled_ints()
        den_b, ib = beta.scaled_ints()
        den = den_a * den_b // math.gcd(den_a, den_b)
        ia = {d: v * (den // den_a) for d, v in ia.items()}
        ib = {d: v * (den // den_b) for d, v in ib.items()}
        rads = sorted((set(ia) | set(ib)) - {1})
        a1, b1 = ia.get(1, 0), ib.get(1, 0)
        if len(rads) == 1:
            d = rads[0]
            ad, bd = ia.get(d, 0), ib.get(d, 0)
            for n in range(n_first, n_last + 1):
                b = ad * n + bd
                if b:
                    fl = (a1 * n + b1 + floor_b_sqrt(b, d)) // den
                else:
                    num = a1 * n + b1
                    fl = num // den
                    lattice = lattice or num % den == 0
                counts[fl - lo] += 1
        else:
            for n in range(n_first, n_last + 1):
                ints = {d: ia.get(d, 0) * n + ib.get(d, 0) for d in rads}
                ints[1] = a1 * n + b1
                if not any(ints[d] for d in rads):
                    lattice = lattice or ints[1] % den == 0
                counts[floor_ints(den, ints) - lo] += 1
    return WindowTruth(lo, hi, fam.m, tuple(counts), lattice)


def identity_holds(fam: Family, truth: WindowTruth) -> bool:
    """Whether r(N) = m + eps(N) - eps(N+1) must hold on the whole window:
    reciprocal moduli sum to m, no lattice boundary hit, and no sequence
    is clipped by n >= 1 (lo*theta_i + gamma_i > 0 for every i)."""
    if truth.lattice_hit or fam.reciprocal_sum != Surd.rational(fam.m):
        return False
    for alpha, beta in fam.seqs:
        inv = alpha.inverse()
        if ceil(truth.lo * inv - beta * inv) < 1:
            return False
    return True


def star_discrepancy(theta: Surd, n_max: int) -> str:
    """Star discrepancy of {n*theta}, n <= n_max, keyed by the exact
    integers floor(2^64 * {n*theta}) (within 2^-64 of the true value)."""
    scale = 1 << 64
    den, ints = theta.scaled_ints()
    keys = sorted(floor_ints(den, {d: v * n * scale for d, v in ints.items()})
                  - floor_ints(den, {d: v * n for d, v in ints.items()}) * scale
                  for n in range(1, n_max + 1))
    best = 0
    for i, k in enumerate(keys, start=1):
        best = max(best, i * scale - k * n_max, k * n_max - (i - 1) * scale)
    return decimal50(Surd.rational(Fraction(best, n_max * scale)))


def epsilon_str(fam: Family, N: int) -> str:
    """sum_i {N*theta_i + gamma_i} to 50 digits, theta = 1/alpha,
    gamma = -beta/alpha."""
    total = Surd.rational(0)
    for alpha, beta in fam.seqs:
        inv = alpha.inverse()
        total = total + frac(N * inv - beta * inv)
    return decimal50(total)


# ---------------------------------------------------------------------------
# checkers: each returns a list of problems, empty when the output is right
# ---------------------------------------------------------------------------


def expected_verify_code(truth: WindowTruth) -> int:
    return 1 if truth.violations else 0


def check_verify_json(truth: WindowTruth, identity_expected: bool,
                      code: int, stdout: str) -> list[str]:
    want = expected_verify_code(truth)
    if code != want:
        return [f"exit {code}, oracle expects {want}"]
    try:
        payload = json.loads(stdout)
    except ValueError as e:
        return [f"stdout is not JSON: {e}"]
    problems = []
    if payload.get("window") != [truth.lo, truth.hi]:
        problems.append(f"window {payload.get('window')}")
    if payload.get("m") != truth.m:
        problems.append(f"m {payload.get('m')}")
    if payload.get("r_histogram") != truth.histogram:
        problems.append(f"r_histogram {payload.get('r_histogram')} != "
                        f"{truth.histogram}")
    if payload.get("violations") != truth.violations:
        problems.append("violations differ from the oracle's")
    if identity_expected and payload.get("identity_failures") != []:
        problems.append("identity_failures on a family with none expected")
    return problems


def check_verify_csv(fam: Family, truth: WindowTruth, code: int, stdout: str,
                     eps_sample: list[int]) -> list[str]:
    want = expected_verify_code(truth)
    if code != want:
        return [f"exit {code}, oracle expects {want}"]
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != ["N", "r", "epsilon"]:
        return ["missing CSV header"]
    body = rows[1:]
    if len(body) != len(truth.counts):
        return [f"{len(body)} CSV rows for a window of {len(truth.counts)}"]
    for i, row in enumerate(body):
        if row[0] != str(truth.lo + i) or row[1] != str(truth.counts[i]):
            return [f"CSV row {row[:2]} != oracle ({truth.lo + i}, "
                    f"{truth.counts[i]})"]
    for N in eps_sample:
        got = body[N - truth.lo][2]
        want_eps = epsilon_str(fam, N)
        if got != want_eps:
            return [f"epsilon({N}) = {got}, oracle {want_eps}"]
    return []


def expect_code(code: int, want: int) -> list[str]:
    return [] if code == want else [f"exit {code}, expected {want}"]
