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
fractional parts {N*theta_i + gamma_i}.  One scan loop serves every
count; per sequence it runs on pure integers (one integer square root
per floor) when theta and gamma lie in one quadratic field, and on
certified refinement when anchors or several fields are involved.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .exactnum import (
    CertifiedReal,
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
                   int(obj["m"]))


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
# window verification
# ---------------------------------------------------------------------------


@dataclass
class RepresentationProfile:
    """Scan results over an integer window.

    ``violations`` lists every N with r(N) != m.  ``identity_failures``
    lists every N where r(N) = m + eps(N) - eps(N+1) fails exactly; that
    can only happen at lattice boundary hits or when the reciprocal sum
    is not m, so acceptance scans expect it empty."""

    window: tuple[int, int]
    m: int
    values: dict[int, int] = field(default_factory=dict)
    epsilon_values: dict[int, CertifiedReal] = field(default_factory=dict)
    violations: list[int] = field(default_factory=list)
    identity_failures: list[int] = field(default_factory=list)

    @property
    def r_histogram(self) -> dict[int, int]:
        return dict(sorted(Counter(self.values.values()).items()))

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


def _scan_chunk(args):
    """Counts, violations, identity failures and (optionally) eps over
    [lo, hi].

    Since {x} = x - floor(x), eps(N) - eps(N+1) = F(N+1) - F(N) - sum theta,
    so the identity r(N) = m + eps(N) - eps(N+1) is the integer test
    r(N) - (F(N+1) - F(N)) == m - sum theta; when m - sum theta is not an
    integer it fails at every N."""
    family, lo, hi, keep_epsilon, max_bits = args
    duals = dualize(family)
    m = family.m
    theta_sum: CertifiedReal = Fraction(0)
    gamma_sum: CertifiedReal = Fraction(0)
    for d in duals:
        theta_sum = add(theta_sum, d.theta)
        gamma_sum = add(gamma_sum, d.gamma)
    k = sub(m, theta_sum)
    k_int = k.numerator if isinstance(k, Fraction) and k.denominator == 1 else None
    values: dict[int, int] = {}
    eps_values: dict[int, CertifiedReal] = {}
    violations: list[int] = []
    identity_failures: list[int] = []
    eps: Optional[CertifiedReal] = None
    steps: dict[int, CertifiedReal] = {}  # F(N+1) - F(N) -> eps(N+1) - eps(N)
    for N, (r, f_now, f_next) in enumerate(_scan(duals, lo, hi, max_bits), lo):
        values[N] = r
        if r != m:
            violations.append(N)
        df = f_next - f_now
        if r - df != k_int:
            identity_failures.append(N)
        if keep_epsilon:
            if eps is None:
                eps = sub(add(mul(N, theta_sum), gamma_sum), f_now)
            eps_values[N] = eps
            step = steps.get(df)
            if step is None:
                step = steps[df] = sub(theta_sum, df)
            if step != 0:
                eps = add(eps, step)
    return values, eps_values, violations, identity_failures


def verify_window(family: CoverFamily, n_lo: int, n_hi: int, *,
                  jobs: int = 1, keep_epsilon: bool = True,
                  max_bits: Optional[int] = None) -> RepresentationProfile:
    """Scan r(N) over [n_lo, n_hi], reporting every N with r(N) != m and
    cross-checking the fractional-sum identity at each N.

    The window may be partitioned across processes; chunk results merge
    in window order, so the profile is independent of ``jobs``."""
    if n_lo < 1 or n_hi < n_lo:
        raise ValueError("window must satisfy 1 <= n_lo <= n_hi")
    profile = RepresentationProfile((n_lo, n_hi), family.m)
    if jobs <= 1 or (n_hi - n_lo) < 4 * jobs:
        chunks = [(family, n_lo, n_hi, keep_epsilon, max_bits)]
        results = [_scan_chunk(chunks[0])]
    else:
        bounds = []
        step = (n_hi - n_lo + 1 + jobs - 1) // jobs
        start = n_lo
        while start <= n_hi:
            end = min(start + step - 1, n_hi)
            bounds.append((family, start, end, keep_epsilon, max_bits))
            start = end + 1
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_scan_chunk, bounds))
    for values, eps_values, violations, identity_failures in results:
        profile.values.update(values)
        profile.epsilon_values.update(eps_values)
        profile.violations.extend(violations)
        profile.identity_failures.extend(identity_failures)
    profile.violations.sort()
    profile.identity_failures.sort()
    return profile


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
    # floor(2^64*n*theta) - 2^64*floor(n*theta) = floor(2^64*{n*theta})
    ev = _make_eval(DualParameters(theta, Fraction(0)), max_bits)
    ev_scaled = _make_eval(DualParameters(mul(theta, scale), Fraction(0)), max_bits)
    keys = [ev_scaled.floor_ceil(n)[0] - scale * ev.floor_ceil(n)[0]
            for n in range(1, N + 1)]
    keys.sort()
    # maximise i/N - k/scale and k/scale - (i-1)/N over integers
    best_num = 0  # numerator over N*scale
    for i, k in enumerate(keys, start=1):
        best_num = max(best_num, i * scale - k * N, k * N - (i - 1) * scale)
    return Fraction(best_num, N * scale)
