"""Fractional-multiplicity analysis of a Beatty pair whose reciprocal
moduli sum to p/q.

With theta_1 irrational, theta_2 = p/q - theta_1 and both positive, the
count r(N) of hits on N takes at most three values, the partial sums
R(qN - 1) obey a closed form, and each value of r is attained on a set
with an explicit asymptotic density.  The case split is governed by
p0 = p mod q and the grid cell p1 with p1/q < {theta_1} < (p1+1)/q:

* q = 1: r is the constant p;
* q = 2: r alternates between floor(p/2) and ceil(p/2);
* q > 2, p1 < p0:  r in {floor(p/q), ceil(p/q), ceil(p/q) + 1};
* q > 2, p1 >= p0: r in {floor(p/q) - 1, floor(p/q), ceil(p/q)}.

Everything here is exact: case labels and the closed forms use certified
comparisons, densities are exact carriers, and the million-point scans
run on the word path of ``beatty`` (the scalar integer core when theta_1
is anchored).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, islice
from typing import Optional

from .beatty import BeattySequence, CoverFamily, DualParameters, _r_blocks
from .exactnum import (
    CertifiedReal,
    RealLike,
    add,
    as_real,
    certified_irrational,
    compare,
    decimal_str,
    div,
    floor_certified,
    frac_certified,
    mul,
    real_to_json,
    sign,
    sub,
)


class CaseMismatch(Exception):
    """Density formulas exist only for the three-value cases (q > 2)."""


@dataclass(frozen=True)
class FractionalPair:
    """Two positive irrationals with theta_1 + theta_2 = p/q, gcd(p,q)=1."""

    p: int
    q: int
    theta1: CertifiedReal
    theta2: CertifiedReal
    p0: int
    p1: int

    @classmethod
    def create(cls, p: int, q: int, theta1: RealLike,
               max_bits: Optional[int] = None) -> "FractionalPair":
        if p < 1 or q < 1 or math.gcd(p, q) != 1:
            raise ValueError("p and q must be coprime positive integers")
        theta1 = as_real(theta1)
        if certified_irrational(theta1) is not True:
            raise ValueError("theta1 must be certifiably irrational")
        if sign(theta1, max_bits) <= 0:
            raise ValueError("theta1 must be positive")
        theta2 = sub(Fraction(p, q), theta1)
        if sign(theta2, max_bits) <= 0:
            raise ValueError("theta1 must stay below p/q so theta2 > 0")
        p0 = p % q
        # p1/q < {theta1} < (p1+1)/q; irrationality rules out ties, so the
        # certified floor of q*{theta1} lands strictly inside a cell
        p1 = floor_certified(mul(q, frac_certified(theta1, max_bits)), max_bits)
        return cls(p, q, theta1, theta2, p0, p1)

    def family(self) -> CoverFamily:
        """The pair as Beatty sequences (m is nominal: counts are what
        the fractional analysis is about)."""
        return CoverFamily((BeattySequence(div(1, self.theta1)),
                            BeattySequence(div(1, self.theta2))),
                           max(1, self.p // self.q))

    def duals(self) -> tuple[DualParameters, DualParameters]:
        return (DualParameters(self.theta1, Fraction(0)),
                DualParameters(self.theta2, Fraction(0)))


def classify(pair: FractionalPair) -> tuple[str, tuple[int, ...]]:
    """Case label and a set containing every value r attains (for 5/3
    in case C.ii the bottom value has density 0 and never occurs)."""
    p, q = pair.p, pair.q
    base = p // q
    if q == 1:
        return "A", (p,)
    if q == 2:
        return "B", (base, base + 1)  # floor and ceil of an odd p over 2
    if pair.p1 < pair.p0:
        return "Ci", (base, base + 1, base + 2)
    return "Cii", (base - 1, base, base + 1)


def epsilon_cN(pair: FractionalPair, N: int,
               max_bits: Optional[int] = None) -> tuple[int, Fraction]:
    """(c_N, eps(N)) with c_N = N*p mod q: the fractional sum is c_N/q
    when {N*theta1} < c_N/q and 1 + c_N/q otherwise (never equal, since
    theta1 is irrational)."""
    if N < 1:
        raise ValueError("N must be positive")
    c = (N * pair.p) % pair.q
    fr = frac_certified(mul(N, pair.theta1), max_bits)
    if compare(fr, Fraction(c, pair.q), max_bits) < 0:
        return c, Fraction(c, pair.q)
    return c, 1 + Fraction(c, pair.q)


@dataclass(frozen=True)
class RFormulaReport:
    n_max: int
    branch: str  # "low" when p1 < p0 else "high"
    mismatches: tuple[tuple[int, int, int], ...]  # (N, brute force, closed form)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def r_formula_value(pair: FractionalPair, N: int) -> int:
    """Closed form for R(qN - 1) = sum of r(M), M = 1..qN-1."""
    p, q = pair.p, pair.q
    correction = -(-p // q) if pair.p1 < pair.p0 else p // q
    return p * N - correction


def R_formula_check(pair: FractionalPair, n_max: int) -> RFormulaReport:
    """Brute-force partial sums of r against the closed form.

    The running sums add the hit counts r(M), M = 1..qN-1, of the two
    dual sequences, an independent route from the fractional-part
    shortcut used elsewhere in this module."""
    q = pair.q
    mismatches = []
    first = 1 if q > 1 else 2  # R(qN - 1) is an empty sum below that
    counts = chain.from_iterable(c for c, _ in _r_blocks(pair.duals(), 1,
                                                         q * n_max - 1))
    running_sums = islice(accumulate(counts), q * first - 2, None, q)
    for N, running in zip(range(first, n_max + 1), running_sums):
        formula = r_formula_value(pair, N)
        if running != formula:
            mismatches.append((N, running, formula))
    branch = "low" if pair.p1 < pair.p0 else "high"
    return RFormulaReport(n_max, branch, tuple(mismatches))


def _max_certified(a: CertifiedReal, b: CertifiedReal) -> CertifiedReal:
    return a if compare(a, b) >= 0 else b


def _min_certified(a: CertifiedReal, b: CertifiedReal) -> CertifiedReal:
    return a if compare(a, b) <= 0 else b


def extreme_value_density(pair: FractionalPair) -> CertifiedReal:
    """Exact density of the extreme count (top value when p1 < p0, bottom
    value when p1 >= p0), summed residue class by residue class.

    The count hits its extreme exactly when the fractional sum jumps
    between its two branches in the right direction while the residue
    c_N = N*p mod q steps with (p1 < p0) or without (p1 >= p0) wrapping.
    Per residue class c the admissible set of {N*theta1} is an interval
    cut out by the branch conditions at N and N+1; its length is summed
    over c and divided by q (equidistribution of ({N*theta1}, c_N))."""
    q, p0 = pair.q, pair.p0
    if q <= 2:
        raise CaseMismatch("density formulas require q > 2")
    w = frac_certified(pair.theta1)
    zero = Fraction(0)
    total: CertifiedReal = zero
    if pair.p1 < pair.p0:
        # jump down across the wrap: c_N >= q - p0, sum falls from the
        # high branch at N to the low branch at N+1
        for c in range(q - p0, q):
            upper = _min_certified(Fraction(1), sub(Fraction(c + p0, q), w))
            lower = _max_certified(Fraction(c, q), sub(1, w))
            length = sub(upper, lower)
            if sign(length) > 0:
                total = add(total, length)
    else:
        # jump up without wrapping: c_N + p0 <= q - 1, sum climbs from
        # the low branch at N to the high branch at N+1
        for c in range(1, q - p0):
            upper = _min_certified(Fraction(c, q), sub(1, w))
            lower = _max_certified(zero, sub(Fraction(c + p0, q), w))
            length = sub(upper, lower)
            if sign(length) > 0:
                total = add(total, length)
    return div(total, q)


def formula_densities(pair: FractionalPair) -> tuple[CertifiedReal, ...]:
    """Exact asymptotic densities of the three attainable values, ordered
    to match classify(pair)[1].

    Only the q > 2 cases carry density formulas.  The extreme value's
    density comes from the per-residue sum; the other two follow from
    the total density 1 and the mean count p/q."""
    _, values = classify(pair)
    p0, q = pair.p0, pair.q
    d2 = extreme_value_density(pair)
    if pair.p1 < pair.p0:
        d1 = sub(Fraction(p0, q), mul(2, d2))
        d0 = add(sub(1, Fraction(p0, q)), d2)
        ordered = (d0, d1, d2)  # values are (floor, ceil, ceil+1)
    else:
        d1 = sub(sub(1, Fraction(p0, q)), mul(2, d2))
        d0 = add(Fraction(p0, q), d2)
        ordered = (d2, d1, d0)  # values are (floor-1, floor, ceil)
    for dens in ordered:
        if sign(dens) < 0 or compare(dens, 1) > 0:
            raise AssertionError("density outside [0, 1]")
    total = add(add(ordered[0], ordered[1]), ordered[2])
    if compare(total, 1) != 0:
        raise AssertionError("densities do not sum to 1")
    return ordered


@dataclass(frozen=True)
class EmpiricalReport:
    n_max: int
    counts: dict[int, int]
    frequencies: dict[int, Fraction]
    outside_values: tuple[int, ...]
    max_deviation: Optional[Fraction]  # vs formula densities, q > 2 only

    @property
    def contained(self) -> bool:
        return not self.outside_values


def empirical_densities(pair: FractionalPair, n_max: int) -> EmpiricalReport:
    """Scan r(N) for N <= n_max, count the frequency of each value and,
    for the three-value cases, measure the largest deviation from the
    exact density formulas (reported as an upper bound on a 10^-12 grid,
    ample next to any sensible tolerance).  Callers compare the reported
    deviation against their own tolerance."""
    if n_max < pair.q:
        raise ValueError("n_max must be at least q")
    _, values = classify(pair)
    counts: dict[int, int] = {}
    for _, hist in _r_blocks(pair.duals(), 1, n_max):
        for r, c in hist.items():
            counts[r] = counts.get(r, 0) + c
    outside = tuple(sorted(v for v in counts if v not in values))
    freqs = {v: Fraction(counts.get(v, 0), n_max) for v in values}
    max_dev: Optional[Fraction] = None
    if pair.q > 2:
        scale = 10 ** 12
        max_dev = Fraction(0)
        for v, dens in zip(values, formula_densities(pair)):
            diff = sub(freqs[v], dens)
            lo = floor_certified(mul(diff, Fraction(scale)))
            mag = Fraction(max(abs(lo), abs(lo + 1)), scale)
            max_dev = max(max_dev, mag)
    return EmpiricalReport(n_max, dict(sorted(counts.items())),
                           {v: freqs[v] for v in sorted(freqs)},
                           outside, max_dev)


@dataclass(frozen=True)
class FractionalProfile:
    pair: FractionalPair
    case_label: str
    value_set: tuple[int, ...]
    r_report: Optional[RFormulaReport]
    empirical: Optional[EmpiricalReport]
    densities: Optional[tuple[CertifiedReal, ...]]

    def to_json(self) -> dict:
        out = {
            "p": self.pair.p, "q": self.pair.q,
            "theta1": real_to_json(self.pair.theta1),
            "p0": self.pair.p0, "p1": self.pair.p1,
            "case": self.case_label,
            "value_set": list(self.value_set),
        }
        if self.densities is not None:
            labels = ("d0", "d1", "d2") if self.case_label == "Ci" else ("delta2", "delta1", "delta0")
            out["formula_densities"] = {
                lab: decimal_str(dens, 50)
                for lab, dens in zip(labels, self.densities)}
        if self.empirical is not None:
            out["empirical"] = {
                "n_max": self.empirical.n_max,
                "frequencies": {str(v): decimal_str(f, 50)
                                for v, f in self.empirical.frequencies.items()},
                "outside_values": list(self.empirical.outside_values),
                "max_deviation": (decimal_str(self.empirical.max_deviation, 50)
                                  if self.empirical.max_deviation is not None else None),
            }
        if self.r_report is not None:
            out["R_check"] = {"max_N": self.r_report.n_max,
                              "mismatches": len(self.r_report.mismatches)}
        return out


def build_profile(pair: FractionalPair, r_check_max: int = 0,
                  empirical_max: int = 0) -> FractionalProfile:
    label, values = classify(pair)
    r_rep = R_formula_check(pair, r_check_max) if r_check_max else None
    emp = empirical_densities(pair, empirical_max) if empirical_max else None
    dens = formula_densities(pair) if pair.q > 2 else None
    return FractionalProfile(pair, label, values, r_rep, emp, dens)
