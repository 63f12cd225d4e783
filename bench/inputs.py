"""Seeded input generator.

Covers are built from the classical complementarity conditions
(Fraenkel, "The bracket function and complementary sets of integers",
Canad. J. Math. 21, 1969): reciprocal moduli theta_i = 1/alpha_i summing
to m, and dual offsets gamma_i = -beta_i/alpha_i summing to an integer.
The answers are therefore known without running the program, and the
oracle re-derives them by an independent route.

``generate(seed)`` returns every input of every workload; each carries a
record of why it is there (k, homogeneous or offset, coefficient bits of
theta, window, expected path).  The shipped ``data/`` inputs stay in as
fixed members so that runs remain comparable with the ROADMAP baseline.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

from oracle import Surd, floor, real_from_json

RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23)

SHIPPED = ("golden_pair", "sqrt2_pair_m2", "six_sequence_family",
           "offset_pair_integral", "offset_pair_defect",
           "graham_two_cover_spec", "theta_minus_sqrt2_over_10",
           "sqrt2_minus_1", "inv_sqrt2", "ap_multiset_16", "ap_multiset_2366",
           "system_16", "system_2366", "system_3x3", "system_2x4x4")

FAR_START = 10 ** 12


def real_json(x: Surd) -> dict:
    """Wire form of a rational or single-field value; several radicands
    become a linear expression over sqrt bases."""
    rads = x.radicands
    c = x.terms.get(1, Fraction(0))
    if not rads:
        return {"kind": "rational", "num": str(c.numerator),
                "den": str(c.denominator)}
    if len(rads) == 1:
        den, ints = x.scaled_ints()
        a, b = ints.get(1, 0), ints[rads[0]]
        g = math.gcd(math.gcd(a, b), den)
        return {"kind": "quadratic", "a": str(a // g), "b": str(b // g),
                "d": str(rads[0]), "r": str(den // g)}
    return {"kind": "linear", "constant": real_json(Surd.rational(c)),
            "terms": [{"basis": f"sqrt{d}",
                       "coeff": real_json(Surd.rational(x.terms[d]))}
                      for d in rads],
            "basis_defs": {f"sqrt{d}": real_json(Surd.quadratic(0, 1, d, 1))
                           for d in rads}}


def family_json(m: int, seqs) -> dict:
    return {"m": m, "sequences": [{"alpha": real_json(a), "beta": real_json(b)}
                                  for a, b in seqs]}


def _bits(x: Surd) -> int:
    den, ints = x.scaled_ints()
    return max([den.bit_length()] + [abs(v).bit_length() for v in ints.values()])


def _theta_in(rng: random.Random, lo: Fraction, hi: Fraction, bits: int) -> Surd:
    """An irrational (a + b*sqrt(d))/r strictly inside (lo, hi), with b and
    r of about ``bits`` bits and a placed uniformly in the admissible range."""
    while True:
        d = rng.choice(RADICANDS)
        b = rng.randrange(1 << (bits - 1), 1 << bits) * rng.choice((1, -1))
        r = rng.randrange(1 << (bits - 1), 1 << bits)
        # lo*r < a + b*sqrt(d) < hi*r
        s = Surd.quadratic(0, b, d, 1)
        a_min = floor(lo * r - s) + 1
        a_max = -floor(s - hi * r) - 1
        if a_max >= a_min:
            return Surd.quadratic(rng.randint(a_min, a_max), b, d, r)


def _small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(5, 13))


def homogeneous_pair(rng, m: int, bits: int):
    """theta_1 + theta_2 = m, both irrational and positive."""
    t1 = _theta_in(rng, Fraction(0), Fraction(m), bits)
    t2 = m - t1
    return [(t1.inverse(), Surd.rational(0)), (t2.inverse(), Surd.rational(0))], t1


def offset_pair(rng, m: int, bits: int, shift: Fraction = Fraction(0)):
    """theta_1 + theta_2 = m and gamma_1 + gamma_2 = J + shift, gamma_1 in
    the field of theta_1 with an irrational part of the same sign as
    theta_1's, so no n*alpha + beta is an integer for n >= 1."""
    t1 = _theta_in(rng, Fraction(0), Fraction(m), bits)
    t2 = m - t1
    d = t1.radicands[0]
    e = t1.terms[d]
    g1 = Surd({1: _small_rational(rng), d: e.numerator // abs(e.numerator)
               * Fraction(rng.randint(1, 7), rng.randint(2, 9))})
    g2 = rng.randint(0, 2) + shift - g1
    seqs = []
    for t, g in ((t1, g1), (t2, g2)):
        alpha = t.inverse()
        seqs.append((alpha, -(g * alpha)))
    return seqs, t1


SIX_COEFFS = ((1, 1), (1, 6), (0, -2), (0, -3), (0, -1), (0, -1))
SIX_GAMMAS = (Fraction(0), Fraction(0), Fraction(0), Fraction(0),
              Fraction(1, 6), Fraction(5, 6))


def example48_family(theta: Surd):
    """The six-sequence 2-cover on theta in (-1/6, 0): reciprocal moduli
    (1+t, 1+6t, -2t, -3t, -t, -t), dual offsets (0, 0, 0, 0, 1/6, 5/6)."""
    seqs = []
    for (c, k), g in zip(SIX_COEFFS, SIX_GAMMAS):
        alpha = (c + k * theta).inverse()
        seqs.append((alpha, -(g * alpha)))
    return seqs


def graham_family(spec: dict):
    """Union over blocks of S(alpha*a, alpha*offset + beta)."""
    seqs, m = [], 0
    for blk in spec["blocks"]:
        m += blk["pair_sum"] * blk["cover_multiplicity"]
        for side in ("1", "2"):
            alpha = real_from_json(blk["alpha" + side])
            beta = real_from_json(blk["beta" + side])
            for t in blk["cover" + side]:
                seqs.append((alpha * t["a"], alpha * t["offset"] + beta))
    return m, seqs


def two_basis_offset(rng) -> Surd:
    """c0 + c1*sqrt(d1) + c2*sqrt(d2) strictly inside (0, 1)."""
    d1, d2 = rng.sample(RADICANDS[:8], 2)
    x = Surd({d1: _small_rational(rng), d2: _small_rational(rng)})
    return x - floor(x)


def generate(seed: int, data_dir: Path) -> dict:
    """Every input for ``seed``: name -> {"json": object, "record": dict}."""
    rng = random.Random(seed)
    out: dict[str, dict] = {}

    def add(name, obj, **record):
        out[name] = {"json": obj, "record": record}

    for name in SHIPPED:
        with open(data_dir / f"{name}.json", encoding="utf-8") as fh:
            add(name, json.load(fh), source="data/ (fixed member)")

    for name, m, bits in (("homog_m1_small", 1, 4), ("homog_m2_w20", 2, 20),
                          ("homog_m3_w40", 3, 40)):
        seqs, t1 = homogeneous_pair(rng, m, bits)
        add(name, family_json(m, seqs), k=2, kind="homogeneous", m=m,
            theta_bits=_bits(t1), path="fast",
            why=f"k=2 pair, theta_1 + theta_2 = {m}, {bits}-bit theta")
    for name, m, bits, shift in (("offset_m1", 1, 6, 0), ("offset_m2_w20", 2, 20, 0),
                                 ("offset_m1_defect", 1, 6, Fraction(1, 3))):
        seqs, t1 = offset_pair(rng, m, bits, shift)
        add(name, family_json(m, seqs), k=2, kind="offset", m=m,
            theta_bits=_bits(t1), path="fast",
            why=("quadratic offsets, gamma_1 + gamma_2 not an integer"
                 if shift else "quadratic offsets, gamma_1 + gamma_2 an integer"))

    theta48 = _theta_in(rng, Fraction(-1, 6), Fraction(0), 8)
    add("theta48", real_json(theta48), kind="theta", theta_bits=_bits(theta48),
        why="seeded build-example48 parameter in (-1/6, 0)")
    add("k6_seeded", family_json(2, example48_family(theta48)), k=6,
        kind="offset", m=2, theta_bits=_bits(theta48), path="fast",
        why="six-sequence 2-cover built from the seeded theta")

    beta = two_basis_offset(rng)
    alpha = Surd.rational(2)
    add("generic_two_basis", family_json(1, [(alpha, beta), (alpha, beta + 1)]),
        k=2, kind="offset", m=1, path="generic",
        why="rational alpha, offset over two sqrt bases: interval refinement")

    seqs, t1 = homogeneous_pair(rng, 1, 4)
    while t1.radicands != (5,):
        seqs, t1 = homogeneous_pair(rng, 1, 4)
    beta = Surd({1: _small_rational(rng), 2: _small_rational(rng),
                 5: -_small_rational(rng)})
    seqs[0] = (seqs[0][0], beta - floor(beta))
    add("mixed_field", family_json(1, seqs), k=2, kind="offset", m=1,
        path="generic",
        why="alpha in Q(sqrt5), beta over sqrt2 and sqrt5: ROADMAP 4 "
            "representation gap")

    q = rng.choice((3, 4, 5, 7))
    p = rng.choice([p for p in range(q + 1, 3 * q) if math.gcd(p, q) == 1])
    third = Fraction(p, 3 * q)
    theta1 = _theta_in(rng, third, 2 * third, 3)
    add("frac_theta1", real_json(theta1), kind="fractional", p=p, q=q,
        theta_bits=_bits(theta1),
        why=f"fractional pair theta_1 + theta_2 = {p}/{q}")
    return out
