"""Beatty sequences as multisets, representation counts and window scans.

A sequence S(alpha, beta) = {floor(n*alpha + beta) : n >= 1} with
modulus alpha > 0 is scanned through its dual parameters theta = 1/alpha
and gamma = -beta/alpha: the number of hits on an integer N is the count
of integers n in [N*theta + gamma, (N+1)*theta + gamma), clipped to
n >= 1.  That count is exact for every N, including the finitely many
indices where n*alpha + beta lands on an integer, because both interval
endpoints are resolved by certified ceilings rather than the open-
interval floor difference.

The window scanner cross-checks each count against the fractional-sum
identity r(N) = m + eps(N) - eps(N+1), where eps(N) is the sum of
fractional parts {N*theta_i + gamma_i}.  One scalar scan loop serves
every count; per sequence it runs on pure integers (one integer square
root per floor) when theta and gamma lie in one quadratic field, and on
certified refinement when anchors or several fields are involved.

Families whose every theta is a quadratic irrational, with gamma
rational or in theta's field, take the word path instead: each
sequence's floor differences form a mechanical (Sturmian) word, built
as bytes from its continued-fraction structure with exact integer
floors only, and the scalar loop rescans just the few N where a count
can differ from the floor difference.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import NamedTuple, Optional

from .exactnum import (
    CertifiedReal,
    DecimalAnchor,
    LinearExpr,
    PrecisionExhausted,
    QuadraticIrrational,
    RealLike,
    add,
    as_real,
    ceil_certified,
    collapse,
    div,
    floor_certified,
    floor_scaled_quadratic,
    frac_certified,
    mul,
    neg,
    real_from_json,
    real_to_json,
    sign,
    strict_int,
    sub,
)


@dataclass(frozen=True)
class BeattySequence:
    """S(alpha, beta) with certified alpha > 0."""

    alpha: CertifiedReal
    beta: CertifiedReal = Fraction(0)

    def __post_init__(self) -> None:
        alpha = as_real(self.alpha)
        beta = as_real(self.beta)
        if sign(alpha) <= 0:
            raise ValueError("modulus alpha must be positive")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def homogeneous(self) -> bool:
        b = self.beta
        return isinstance(b, Fraction) and b == 0

    def to_json(self) -> dict:
        return {"alpha": real_to_json(self.alpha), "beta": real_to_json(self.beta)}

    @classmethod
    def from_json(cls, obj) -> "BeattySequence":
        if not isinstance(obj, dict) or set(obj) - {"alpha", "beta"}:
            raise ValueError("sequence objects carry exactly alpha and beta")
        if "alpha" not in obj:
            raise ValueError("sequence needs a modulus alpha")
        beta = real_from_json(obj["beta"]) if "beta" in obj else Fraction(0)
        return cls(real_from_json(obj["alpha"]), beta)


@dataclass(frozen=True)
class DualParameters:
    """theta = 1/alpha, gamma = -beta/alpha."""

    theta: CertifiedReal
    gamma: CertifiedReal


def dualize_sequence(seq: BeattySequence) -> DualParameters:
    theta = div(1, seq.alpha)
    beta = seq.beta
    if isinstance(beta, Fraction) and beta == 0:
        gamma: CertifiedReal = Fraction(0)
    else:
        gamma = neg(div(beta, seq.alpha))
    return DualParameters(theta, gamma)


@dataclass(frozen=True)
class CoverFamily:
    """A finite family of Beatty sequences with a target multiplicity m."""

    sequences: tuple[BeattySequence, ...]
    m: int

    def __post_init__(self) -> None:
        seqs = tuple(self.sequences)
        if not seqs:
            raise ValueError("a family needs at least one sequence")
        if self.m < 1:
            raise ValueError("target multiplicity m must be a positive integer")
        object.__setattr__(self, "sequences", seqs)

    @property
    def k(self) -> int:
        return len(self.sequences)

    def density_defect(self) -> CertifiedReal:
        total: CertifiedReal = Fraction(0)
        for s in self.sequences:
            total = add(total, div(1, s.alpha))
        return sub(total, self.m)

    def to_json(self) -> dict:
        return {"m": self.m, "sequences": [s.to_json() for s in self.sequences]}

    @classmethod
    def from_json(cls, obj) -> "CoverFamily":
        if not isinstance(obj, dict) or set(obj) != {"m", "sequences"}:
            raise ValueError("family objects carry exactly m and sequences")
        return cls(tuple(BeattySequence.from_json(s) for s in obj["sequences"]),
                   strict_int(obj["m"], "m"))


def dualize(family: CoverFamily) -> list[DualParameters]:
    return [dualize_sequence(s) for s in family.sequences]


# ---------------------------------------------------------------------------
# per-sequence evaluators
# ---------------------------------------------------------------------------


def _decompose_simple(x: CertifiedReal):
    """(a, b, d, r) integers with x = (a + b*sqrt(d))/r, or None."""
    x = collapse(x) if isinstance(x, LinearExpr) else x
    if isinstance(x, Fraction):
        return x.numerator, 0, 0, x.denominator
    if isinstance(x, QuadraticIrrational):
        return x.a, x.b, x.d, x.r
    return None


class _FastEval:
    """Integer-only evaluator of N*theta + gamma = (A(N) + B(N)*sqrt(d))/R."""

    __slots__ = ("At", "Bt", "Ag", "Bg", "d", "R")

    def __init__(self, st, sg):
        at, bt, dt, rt = st
        ag, bg, dg, rg = sg
        self.d = dt if bt else dg
        self.R = rt * rg
        self.At, self.Bt = at * rg, bt * rg
        self.Ag, self.Bg = ag * rt, bg * rt

    def floor(self, n: int) -> int:
        return floor_scaled_quadratic(self.At * n + self.Ag, self.Bt * n + self.Bg,
                                      self.d, self.R)

    def floor_ceil(self, n: int) -> tuple[int, int]:
        a = self.At * n + self.Ag
        b = self.Bt * n + self.Bg
        if b:
            fl = floor_scaled_quadratic(a, b, self.d, self.R)
            return fl, fl + 1
        return a // self.R, -((-a) // self.R)


class _GenericEval:
    """Certified evaluator for anchored or mixed-field dual parameters."""

    __slots__ = ("theta", "gamma", "max_bits")

    def __init__(self, theta, gamma, max_bits=None):
        self.theta = theta
        self.gamma = gamma
        self.max_bits = max_bits

    def floor(self, n: int) -> int:
        return floor_certified(add(mul(n, self.theta), self.gamma), self.max_bits)

    def floor_ceil(self, n: int) -> tuple[int, int]:
        value = add(mul(n, self.theta), self.gamma)
        return (floor_certified(value, self.max_bits),
                ceil_certified(value, self.max_bits))


def _make_eval(dual: DualParameters, max_bits=None):
    """The integer evaluator when theta and gamma are rational or quadratic
    in one common field, the certified one otherwise."""
    st = _decompose_simple(dual.theta)
    sg = _decompose_simple(dual.gamma)
    if st is not None and sg is not None and (not st[1] or not sg[1]
                                              or st[2] == sg[2]):
        return _FastEval(st, sg)
    return _GenericEval(dual.theta, dual.gamma, max_bits)


def _scan(duals, lo: int, hi: int, max_bits=None):
    """Yield (r(N), F(N), F(N+1)) for N = lo..hi, where r(N) counts the
    hits of the sequences with dual parameters ``duals`` on N (indices
    n >= 1) and F(N) = sum_i floor(N*theta_i + gamma_i).

    The hits on N are the integers n >= 1 of [N*theta + gamma,
    (N+1)*theta + gamma), counted from certified ceilings so lattice
    boundary hits stay exact: with C(N) = sum_i max(ceil(N*theta_i +
    gamma_i), 1), nondecreasing because every theta_i > 0, r(N) is
    C(N+1) - C(N)."""
    floor_ceils = [_make_eval(d, max_bits).floor_ceil for d in duals]
    f_now = c_now = 0
    for floor_ceil in floor_ceils:
        fl, c = floor_ceil(lo)
        f_now += fl
        c_now += c if c > 1 else 1
    for N in range(lo, hi + 1):
        f_next = c_next = 0
        try:
            for floor_ceil in floor_ceils:
                fl, c = floor_ceil(N + 1)
                f_next += fl
                c_next += c if c > 1 else 1
        except PrecisionExhausted as e:
            raise PrecisionExhausted(f"at N = {N}: {e}") from e
        yield c_next - c_now, f_now, f_next
        f_now, c_now = f_next, c_next


def _r_at(duals, N: int, max_bits=None) -> int:
    (r, _, _), = _scan(duals, N, N, max_bits)
    return r


def r_single(seq: BeattySequence, N: int, max_bits=None) -> int:
    """Multiplicity of N in S(alpha, beta); exact for every N >= 1."""
    return _r_at([dualize_sequence(seq)], N, max_bits)


def r_total(family: CoverFamily, N: int, max_bits=None) -> int:
    return _r_at(dualize(family), N, max_bits)


def epsilon(family: CoverFamily, N: int, max_bits=None) -> CertifiedReal:
    """Exact sum of fractional parts {N*theta_i + gamma_i}."""
    total: CertifiedReal = Fraction(0)
    for d in dualize(family):
        total = add(total, frac_certified(add(mul(N, d.theta), d.gamma), max_bits))
    return total


# ---------------------------------------------------------------------------
# the word path
# ---------------------------------------------------------------------------

_BLOCK = 1 << 20  # N per word block: about 1 MB of bytes per sequence

# Quadratic numbers (a + b*sqrt(d))/r travel as integer triples (a, b, r)
# with r > 0; d is fixed per sequence and passed alongside.  Triples, not
# QuadraticIrrational: its constructor factors d by trial division on
# every operation, and the recursion may step through a rational value.


def _qnorm(a: int, b: int, r: int) -> tuple[int, int, int]:
    if r < 0:
        a, b, r = -a, -b, -r
    g = math.gcd(a, b, r)
    return (a // g, b // g, r // g) if g > 1 else (a, b, r)


def _qmul(x, y, d: int) -> tuple[int, int, int]:
    return _qnorm(x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0],
                  x[2] * y[2])


def _qinv(x, d: int) -> tuple[int, int, int]:
    a, b, r = x
    return _qnorm(r * a, -r * b, a * a - b * b * d)  # nonzero: sqrt(d) irrational


def _qfloor(x, d: int) -> int:
    return floor_scaled_quadratic(x[0], x[1], d, x[2])


def _qfrac(x, d: int) -> tuple[int, int, int]:
    return x[0] - _qfloor(x, d) * x[2], x[1], x[2]


_MARKS = bytes.maketrans(b"\x00\x01", b"\x02\x03")


def _sturmian(t, s, d: int, L: int) -> bytes:
    """floor((j+1)*t + s) - floor(j*t + s) for j = 0..L-1, as bytes of 0
    and 1, for irrational 0 < t < 1 and 0 <= s < 1 in Q(sqrt(d)).

    With K = floor(L*t + s) ones in all, the first sits at
    ceil((1 - s)/t) - 1, and the gaps between consecutive ones are
    reverse(W(1/t, (s - K)/t, K - 1)) for W this same word.  A gap is
    a or a + 1 with a = floor(1/t), so the shorter word over {1/t} spells
    the gaps as 0^(a-1) 1 and 0^a 1; every floor is an exact integer one."""
    ta, tb, tr = t
    sa, sb, sr = s
    K = floor_scaled_quadratic(L * ta * sr + sa * tr, L * tb * sr + sb * tr,
                               d, tr * sr)
    if K == 0:
        return bytes(L)
    inv = _qinv(t, d)
    first = -_qfloor(_qmul((sa - sr, sb, sr), inv, d), d) - 1
    if K == 1:
        return bytes(first) + b"\x01" + bytes(L - 1 - first)
    a = _qfloor(inv, d)
    gaps = _sturmian((inv[0] - a * inv[2], inv[1], inv[2]),
                     _qfrac(_qmul((sa - K * sr, sb, sr), inv, d), d), d, K - 1)
    body = (gaps[::-1].translate(_MARKS)
            .replace(b"\x02", bytes(a - 1) + b"\x01")
            .replace(b"\x03", bytes(a) + b"\x01"))
    tail = L - 1 - first - len(body)
    if tail < 0:
        raise RuntimeError("Sturmian word overran its length")
    return b"".join((bytes(first), b"\x01", body, bytes(tail)))


class _WordSeq:
    """One sequence on the word path: x(N) = N*theta + gamma through its
    integer evaluator, with theta split into whole and fractional parts."""

    __slots__ = ("ev", "d", "whole", "frac", "shift")

    def __init__(self, ev: _FastEval):
        self.ev = ev
        d = self.d = ev.d
        theta = _qnorm(ev.At, ev.Bt, ev.R)
        self.whole = _qfloor(theta, d)
        self.frac = (theta[0] - self.whole * theta[2], theta[1], theta[2])
        self.shift = bytes((v + self.whole) & 0xFF for v in range(256))

    def irregular(self) -> tuple[int, Optional[int]]:
        """The last N with x(N) <= 0, and the one N (if any) with x(N) an
        integer, which exists at most once because theta is irrational."""
        ev, d = self.ev, self.d
        clip = _qfloor(_qmul((-ev.Ag, -ev.Bg, 1), _qinv((ev.At, ev.Bt, 1), d), d), d)
        hit = None
        if ev.Bg % ev.Bt == 0:
            n0 = -ev.Bg // ev.Bt
            if (ev.At * n0 + ev.Ag) % ev.R == 0:
                hit = n0
        return clip, hit

    def word(self, start: int, L: int, fl: int) -> bytes:
        """D(N) = floor(x(N+1)) - floor(x(N)) for N = start..start+L-1,
        given fl = floor(x(start))."""
        ev = self.ev
        s = _qnorm(ev.At * start + ev.Ag - fl * ev.R, ev.Bt * start + ev.Bg, ev.R)
        w = _sturmian(self.frac, s, self.d, L)
        return w.translate(self.shift) if self.whole else w


def _anchored(x: CertifiedReal) -> bool:
    return isinstance(x, LinearExpr) and any(
        isinstance(x.basis.value(lab), DecimalAnchor) for lab, _ in x.terms)


def _word_plan(duals) -> tuple[Optional[list[_WordSeq]], Optional[str]]:
    """(word sequences, None) when the word path serves every sequence,
    otherwise (None, the reason the scalar core runs instead)."""
    seqs = []
    for dual in duals:
        st = _decompose_simple(dual.theta)
        sg = _decompose_simple(dual.gamma)
        if st is None or sg is None:
            if _anchored(dual.theta) or _anchored(dual.gamma):
                return None, "anchored"
            return None, "mixed-field"
        if not st[1]:
            return None, "rational theta"
        if sg[1] and sg[2] != st[2]:
            return None, "mixed-field"
        seqs.append(_WordSeq(_FastEval(st, sg)))
    if sum(s.whole + 1 for s in seqs) > 0xFF:
        return None, "counts above 255"
    return seqs, None


class _Block(NamedTuple):
    start: int
    counts: bytes  # r(N) for N = start, start + 1, ...
    hist: dict[int, int]  # value -> occurrences in counts
    f_start: int  # F(start)
    fixes: dict[int, int]  # rescanned N -> F(N+1) - F(N)

    def steps(self) -> bytes:
        """F(N+1) - F(N) for every N of the block."""
        if not self.fixes:
            return self.counts
        out = bytearray(self.counts)
        for N, df in self.fixes.items():
            out[N - self.start] = df
        return out


def _word_blocks(seqs, duals, lo: int, hi: int, max_bits=None, block=_BLOCK):
    """Yield r(N) over [lo, hi] in ``block``-sized bytes.

    With x_i(N) = N*theta_i + gamma_i and C_i(N) = max(ceil(x_i(N)), 1),
    r_i(N) = C_i(N+1) - C_i(N).  Where x_i(N) > 0 is not an integer,
    C_i(N) = floor(x_i(N)) + 1; so r_i(N) = D_i(N), the floor difference,
    unless N or N + 1 is irregular: x_i <= 0 there (N at most the clip
    end) or x_i an integer (N beside the lattice hit).  The bytes are the
    sum of the words D_i; the irregular N are rescanned by the scalar
    core and patched in.  Each block's total is checked against the
    exact floors F at its two ends."""
    irregular = [s.irregular() for s in seqs]
    clip_end = max(c for c, _ in irregular)
    hits = sorted({n for c, h in irregular if h is not None
                   for n in (h - 1, h) if n > clip_end})
    top = sum(s.whole + 1 for s in seqs)  # r_i and D_i are at most ceil(theta_i)
    floors = [s.ev.floor_ceil(lo)[0] for s in seqs]
    for start in range(lo, hi + 1, block):
        end = min(start + block - 1, hi)
        L = end - start + 1
        words = [s.word(start, L, fl) for s, fl in zip(seqs, floors)]
        counts = words[0] if len(words) == 1 else sum(
            int.from_bytes(w, "little") for w in words).to_bytes(L, "little")
        runs = [(start, min(clip_end, end))] if clip_end >= start else []
        runs += [(n, n) for n in hits if start <= n <= end]
        fixes = {}
        if runs:
            counts = bytearray(counts)
            for a, b in runs:
                for N, (r, f_now, f_next) in enumerate(_scan(duals, a, b, max_bits), a):
                    counts[N - start] = r
                    fixes[N] = f_next - f_now
        next_floors = [s.ev.floor_ceil(end + 1)[0] for s in seqs]
        hist = {}
        left = L
        for v in range(top + 1):
            c = counts.count(v) if left else 0
            if c:
                hist[v] = c
                left -= c
        total = sum(v * c for v, c in hist.items()) + sum(
            df - counts[N - start] for N, df in fixes.items())
        if total != sum(next_floors) - sum(floors):
            raise RuntimeError(f"word path disagrees with exact floors on "
                               f"[{start}, {end}]")
        yield _Block(start, counts, hist, sum(floors), fixes)
        floors = next_floors


def _r_blocks(duals, lo: int, hi: int, max_bits=None):
    """r(N) for N = lo..hi as consecutive (counts, histogram) blocks:
    bytes from the word path when it serves ``duals``, lists from the
    scalar core otherwise."""
    seqs, _ = _word_plan(duals)
    if seqs is not None:
        for b in _word_blocks(seqs, duals, lo, hi, max_bits):
            yield b.counts, b.hist
        return
    rs = (r for r, _, _ in _scan(duals, lo, hi, max_bits))
    while chunk := list(islice(rs, _BLOCK)):
        yield chunk, Counter(chunk)


# ---------------------------------------------------------------------------
# window verification
# ---------------------------------------------------------------------------


class _WindowMap(Mapping):
    """Read-only N -> value view of a sequence indexed from N = lo."""

    __slots__ = ("lo", "seq")

    def __init__(self, lo: int, seq: Sequence):
        self.lo = lo
        self.seq = seq

    def __getitem__(self, N):
        i = N - self.lo
        if 0 <= i < len(self.seq):
            return self.seq[i]
        raise KeyError(N)

    def __iter__(self):
        return iter(range(self.lo, self.lo + len(self.seq)))

    def __len__(self) -> int:
        return len(self.seq)


@dataclass
class RepresentationProfile:
    """Scan results over an integer window.

    ``counts`` holds r(N) at index N - window[0] (bytes on the word path,
    a list on the scalar one) and ``epsilons`` holds eps(N) the same way
    when they were kept; ``values`` and ``epsilon_values`` view them as
    read-only N -> value mappings.  ``violations`` lists every N with
    r(N) != m.  ``identity_failures`` lists every N where r(N) = m +
    eps(N) - eps(N+1) fails exactly; that can only happen at lattice
    boundary hits or when the reciprocal sum is not m, so acceptance
    scans expect it empty."""

    window: tuple[int, int]
    m: int
    counts: Sequence[int]
    epsilons: Sequence[CertifiedReal]
    violations: list[int]
    identity_failures: list[int]
    r_histogram: dict[int, int]

    @property
    def values(self) -> Mapping[int, int]:
        return _WindowMap(self.window[0], self.counts)

    @property
    def epsilon_values(self) -> Mapping[int, CertifiedReal]:
        return _WindowMap(self.window[0], self.epsilons)

    def first_violation(self) -> Optional[int]:
        return self.violations[0] if self.violations else None

    def to_json(self) -> dict:
        return {
            "window": [self.window[0], self.window[1]],
            "m": self.m,
            "violations": list(self.violations),
            "identity_failures": list(self.identity_failures),
            "r_histogram": {str(k): v for k, v in self.r_histogram.items()},
        }


def _identity_sums(duals, m: int):
    """(m - sum theta if it is an integer else None, sum theta, sum gamma).

    Since {x} = x - floor(x), eps(N) - eps(N+1) = F(N+1) - F(N) - sum theta,
    so the identity r(N) = m + eps(N) - eps(N+1) is the integer test
    r(N) - (F(N+1) - F(N)) == m - sum theta; when m - sum theta is not an
    integer it fails at every N."""
    theta_sum: CertifiedReal = Fraction(0)
    gamma_sum: CertifiedReal = Fraction(0)
    for d in duals:
        theta_sum = add(theta_sum, d.theta)
        gamma_sum = add(gamma_sum, d.gamma)
    k = sub(m, theta_sum)
    k_int = k.numerator if isinstance(k, Fraction) and k.denominator == 1 else None
    return k_int, theta_sum, gamma_sum


def _epsilons(theta_sum, gamma_sum, lo: int, f_lo: int, steps):
    """eps(N) for N = lo, lo + 1, ... from F(lo) and the floor steps
    F(N+1) - F(N): eps(N+1) = eps(N) + sum theta - (F(N+1) - F(N)).  On a
    cover every step is 0, so one shared object serves every N."""
    eps = sub(add(mul(lo, theta_sum), gamma_sum), f_lo)
    cache: dict[int, CertifiedReal] = {}
    for df in steps:
        yield eps
        step = cache.get(df)
        if step is None:
            step = cache[df] = sub(theta_sum, df)
        if step != 0:
            eps = add(eps, step)


def _scan_chunk(args):
    """Counts, eps (or []), violations and identity failures over [lo, hi]
    from the scalar core."""
    family, lo, hi, keep_epsilon, max_bits = args
    duals = dualize(family)
    m = family.m
    k_int, theta_sum, gamma_sum = _identity_sums(duals, m)
    counts: list[int] = []
    steps: list[int] = []
    violations: list[int] = []
    identity_failures: list[int] = []
    f_lo = None
    for N, (r, f_now, f_next) in enumerate(_scan(duals, lo, hi, max_bits), lo):
        if f_lo is None:
            f_lo = f_now
        counts.append(r)
        if r != m:
            violations.append(N)
        df = f_next - f_now
        if r - df != k_int:
            identity_failures.append(N)
        if keep_epsilon:
            steps.append(df)
    eps = list(_epsilons(theta_sum, gamma_sum, lo, f_lo, steps)) if keep_epsilon else []
    return counts, eps, violations, identity_failures


def _word_profile(family: CoverFamily, duals, seqs, lo: int, hi: int,
                  keep_epsilon: bool, max_bits=None,
                  block=_BLOCK) -> RepresentationProfile:
    """The profile of [lo, hi] from the word path.

    Off the rescanned N of each block, r(N) = F(N+1) - F(N) exactly (see
    _word_blocks), so the identity test r(N) - (F(N+1) - F(N)) == m -
    sum theta reads 0 == m - sum theta there: it fails at none of those N
    when sum theta = m and at all of them otherwise.  The rescanned N are
    tested one by one on the scalar core's floors."""
    m = family.m
    k_int, theta_sum, gamma_sum = _identity_sums(duals, m)
    counts = bytearray(hi - lo + 1)
    hist: Counter = Counter()
    violations: list[int] = []
    identity_failures: list[int] = []
    steps: list[bytes] = []
    f_lo = None
    off_m = re.compile(b"[^" + re.escape(bytes([m])) + b"]" if m <= 0xFF else b".",
                       re.S)
    for b in _word_blocks(seqs, duals, lo, hi, max_bits, block):
        L = len(b.counts)
        counts[b.start - lo:b.start - lo + L] = b.counts
        hist.update(b.hist)
        if b.hist.get(m) != L:
            violations.extend(b.start + x.start() for x in off_m.finditer(b.counts))
        if k_int == 0:
            identity_failures.extend(N for N, df in sorted(b.fixes.items())
                                     if b.counts[N - b.start] != df)
        else:
            identity_failures.extend(
                N for N in range(b.start, b.start + L)
                if N not in b.fixes or b.counts[N - b.start] - b.fixes[N] != k_int)
        if keep_epsilon:
            if f_lo is None:
                f_lo = b.f_start
            steps.append(b.steps())
    eps = list(_epsilons(theta_sum, gamma_sum, lo, f_lo,
                         (df for s in steps for df in s))) if keep_epsilon else []
    return RepresentationProfile((lo, hi), m, counts, eps, violations,
                                 identity_failures, dict(sorted(hist.items())))


def verify_window(family: CoverFamily, n_lo: int, n_hi: int, *,
                  jobs: int = 1, keep_epsilon: bool = True,
                  max_bits: Optional[int] = None) -> RepresentationProfile:
    """Scan r(N) over [n_lo, n_hi], reporting every N with r(N) != m and
    cross-checking the fractional-sum identity at each N.

    A family the word path serves is scanned in this process whatever
    ``jobs`` is.  Otherwise the window may be partitioned across
    processes; chunk results merge in window order, so the profile is
    independent of ``jobs``."""
    if n_lo < 1 or n_hi < n_lo:
        raise ValueError("window must satisfy 1 <= n_lo <= n_hi")
    duals = dualize(family)
    seqs, _ = _word_plan(duals)
    if seqs is not None:
        return _word_profile(family, duals, seqs, n_lo, n_hi, keep_epsilon,
                             max_bits)
    if jobs <= 1 or (n_hi - n_lo) < 4 * jobs:
        results = [_scan_chunk((family, n_lo, n_hi, keep_epsilon, max_bits))]
    else:
        bounds = []
        step = (n_hi - n_lo + 1 + jobs - 1) // jobs
        start = n_lo
        while start <= n_hi:
            end = min(start + step - 1, n_hi)
            bounds.append((family, start, end, keep_epsilon, max_bits))
            start = end + 1
        # imported here: only the scalar fallback uses a pool, and the
        # import costs about 20 ms of every start-up
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_scan_chunk, bounds))
    counts: list[int] = []
    eps: list[CertifiedReal] = []
    violations: list[int] = []
    failures: list[int] = []
    for c, e, v, f in results:
        counts += c
        eps += e
        violations += v
        failures += f
    return RepresentationProfile((n_lo, n_hi), family.m, counts, eps, violations,
                                 failures, dict(sorted(Counter(counts).items())))


# ---------------------------------------------------------------------------
# equidistribution diagnostic
# ---------------------------------------------------------------------------


def discrepancy_diagnostic(theta: RealLike, N: int,
                           max_bits: Optional[int] = None) -> Fraction:
    """Star discrepancy estimate of the points {n*theta}, n = 1..N.

    Rational theta is handled with exact fractions.  Irrational theta is
    keyed by floor(2^64 * {n*theta}), an exactly computed integer, which
    bounds the reported value within 2^-64 of the true discrepancy; no
    sampling or floating point is involved."""
    if N < 1:
        raise ValueError("N must be positive")
    theta = as_real(theta)
    if isinstance(theta, Fraction):
        pts = sorted(Fraction((n * theta.numerator) % theta.denominator,
                              theta.denominator) for n in range(1, N + 1))
        best = Fraction(0)
        for i, x in enumerate(pts, start=1):
            best = max(best, Fraction(i, N) - x, x - Fraction(i - 1, N))
        return best
    scale = 1 << 64
    # floor(2^64*{n*theta}) = floor(2^64*n*theta) - 2^64*floor(n*theta), and
    # floor(n*theta) = floor(floor(2^64*n*theta) / 2^64): one floor per n
    ev_scaled = _make_eval(DualParameters(mul(theta, scale), Fraction(0)), max_bits)
    keys = [ev_scaled.floor(n) % scale for n in range(1, N + 1)]
    keys.sort()
    # maximise i/N - k/scale and k/scale - (i-1)/N over integers
    best_num = 0  # numerator over N*scale
    for i, k in enumerate(keys, start=1):
        best_num = max(best_num, i * scale - k * N, k * N - (i - 1) * scale)
    return Fraction(best_num, N * scale)
