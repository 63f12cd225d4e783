"""Theorem-level certifiers and constructors for cover families.

A certifier decides membership from exact arithmetic alone and returns a
machine-checkable certificate; it never extrapolates beyond the
hypotheses of the criterion it applies, reporting INCONCLUSIVE instead.

Criteria implemented:

* a homogeneous family with irrational moduli covers every large integer
  exactly m times iff the reciprocals of the moduli pair off into
  integer sums (and it is irreducible iff it has exactly two members);
* an inhomogeneous pair with reciprocal sum m is an eventual exact
  m-cover iff the dual offsets gamma_1 + gamma_2 land in Z;
* block constructions that lift exact progression covers through a
  Beatty pair, and the six-sequence family that escapes every such
  block form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .apsystems import APTerm, DensityViolation, residue_table
from .beatty import BeattySequence, CoverFamily, dualize_sequence
from .exactnum import (
    CertifiedReal,
    RealLike,
    add,
    as_real,
    certified_irrational,
    compare,
    decimal_str,
    div,
    frac_certified,
    is_integer,
    mul,
    neg,
    real_from_json,
    real_to_json,
    sign,
    strict_int,
    sub,
)

CERTIFIED_EEC = "CERTIFIED_EEC"
CERTIFIED_NOT_EEC = "CERTIFIED_NOT_EEC"
INCONCLUSIVE = "INCONCLUSIVE"


class NotIrrational(Exception):
    """A modulus required to be certifiably irrational is not."""


class NotHomogeneousFamily(Exception):
    """A homogeneous-only certifier received a nonzero offset."""


class BuildSpecViolation(Exception):
    """A block construction input broke one of its validity conditions."""

    def __init__(self, condition: str, detail: str):
        super().__init__(f"{condition}: {detail}")
        self.condition = condition


class RangeViolation(Exception):
    """Parameter outside the validity interval of a construction."""


class DegeneratePoint(Exception):
    """A sample makes one of the fractional-part arguments an integer."""


@dataclass(frozen=True)
class Certificate:
    verdict: str
    rule: str
    evidence: dict = field(default_factory=dict)
    notes: str = ""

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "theorem": self.rule}
        out.update(self.evidence)
        out["notes"] = self.notes
        return out


def density_check(family: CoverFamily):
    """Reciprocal-sum defect sum(1/alpha_i) - m and whether it is exactly 0."""
    defect = family.density_defect()
    return defect, sign(defect) == 0


def _require_irrational(alphas: Sequence[CertifiedReal]) -> None:
    for i, a in enumerate(alphas, start=1):
        if certified_irrational(a) is None:
            raise NotIrrational(
                f"modulus {i} cannot be certified irrational (anchored value?)")


def _perfect_matching(k: int, edges: set[tuple[int, int]]):
    """Backtracking perfect matching on <= k vertices, smallest index first."""

    def go(free: frozenset):
        if not free:
            return ()
        i = min(free)
        for j in sorted(free - {i}):
            if (i, j) in edges:
                rest = go(free - {i, j})
                if rest is not None:
                    return ((i, j),) + rest
        return None

    return go(frozenset(range(k)))


def certify_homogeneous(family: CoverFamily) -> Certificate:
    """Decide a homogeneous family by pairing reciprocal moduli.

    Mixed rational/irrational moduli fall outside the pairing criterion
    and come back INCONCLUSIVE with a pointer at window verification."""
    alphas = [s.alpha for s in family.sequences]
    for i, s in enumerate(family.sequences, start=1):
        if not (isinstance(s.beta, Fraction) and s.beta == 0):
            raise NotHomogeneousFamily(f"sequence {i} has a nonzero offset")

    rationality = [certified_irrational(a) for a in alphas]
    if any(r is False for r in rationality):
        note = ("family mixes rational and irrational moduli; the pairing "
                "criterion does not apply, use window verification"
                if any(r is not False for r in rationality) else
                "all moduli are rational; the pairing criterion only covers "
                "irrational moduli")
        return Certificate(INCONCLUSIVE, "mixed-moduli", notes=note)
    _require_irrational(alphas)

    defect, density_ok = density_check(family)
    if not density_ok:
        return Certificate(
            CERTIFIED_NOT_EEC, "density",
            {"density_defect": decimal_str(defect, 30)},
            "the reciprocal moduli do not sum to m, a necessary condition")

    k = family.k
    thetas = [div(1, a) for a in alphas]
    if k % 2:
        return Certificate(
            CERTIFIED_NOT_EEC, "homogeneous-pairing",
            {"k": k},
            "an odd number of irrational moduli can never pair off")

    edge_sums: dict[tuple[int, int], int] = {}
    for i in range(k):
        for j in range(i + 1, k):
            s = add(thetas[i], thetas[j])
            chk = is_integer(s)
            if chk.value:
                edge_sums[(i, j)] = int(s)
    edges = set(edge_sums)
    matching = _perfect_matching(k, edges)
    if matching is None:
        return Certificate(
            CERTIFIED_NOT_EEC, "homogeneous-pairing",
            {"integral_pairs": sorted([i + 1, j + 1] for i, j in edges)},
            "no perfect pairing of reciprocal moduli into integer sums exists")

    pairing = sorted((i + 1, j + 1) for i, j in matching)
    return Certificate(
        CERTIFIED_EEC, "homogeneous-pairing",
        {"pairing": [list(p) for p in pairing],
         "pair_sums": [edge_sums[(i - 1, j - 1)] for i, j in pairing],
         "irreducible": k == 2},
        "reciprocal moduli pair off into integer sums; irreducible iff k = 2")


def certify_pair_inhomogeneous(s1: BeattySequence, s2: BeattySequence,
                               m: int) -> Certificate:
    """Decide an inhomogeneous pair by the integrality of gamma_1 + gamma_2."""
    _require_irrational([s1.alpha, s2.alpha])
    if certified_irrational(s1.alpha) is False or certified_irrational(s2.alpha) is False:
        raise NotIrrational("both moduli must be irrational")
    total = add(div(1, s1.alpha), div(1, s2.alpha))
    if compare(total, Fraction(m)) != 0:
        raise DensityViolation(
            f"reciprocal moduli sum to {decimal_str(total, 12)}, not m = {m}")
    g1 = dualize_sequence(s1).gamma
    g2 = dualize_sequence(s2).gamma
    gamma_sum = add(g1, g2)
    chk = is_integer(gamma_sum)
    evidence = {"gamma_sum": real_to_json(gamma_sum)}
    if chk.value:
        return Certificate(CERTIFIED_EEC, "inhomogeneous-pair", evidence,
                           "dual offsets sum to an integer")
    return Certificate(CERTIFIED_NOT_EEC, "inhomogeneous-pair", evidence,
                       "dual offsets do not sum to an integer; the count "
                       "oscillates for arbitrarily large N")


# ---------------------------------------------------------------------------
# block construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrahamBlock:
    """One block: a Beatty pair whose reciprocals sum to ``pair_sum``,
    lifted through two exact ``cover_multiplicity``-covers by progressions."""

    alpha1: CertifiedReal
    beta1: CertifiedReal
    alpha2: CertifiedReal
    beta2: CertifiedReal
    pair_sum: int
    cover_multiplicity: int
    cover1: tuple[APTerm, ...]
    cover2: tuple[APTerm, ...]


@dataclass(frozen=True)
class GrahamSpec:
    blocks: tuple[GrahamBlock, ...]

    @property
    def m(self) -> int:
        return sum(b.pair_sum * b.cover_multiplicity for b in self.blocks)

    def to_json(self) -> dict:
        return {"blocks": [
            {"alpha1": real_to_json(b.alpha1), "beta1": real_to_json(b.beta1),
             "alpha2": real_to_json(b.alpha2), "beta2": real_to_json(b.beta2),
             "pair_sum": b.pair_sum,
             "cover_multiplicity": b.cover_multiplicity,
             "cover1": [{"a": t.modulus, "offset": t.offset} for t in b.cover1],
             "cover2": [{"a": t.modulus, "offset": t.offset} for t in b.cover2]}
            for b in self.blocks]}

    @classmethod
    def from_json(cls, obj) -> "GrahamSpec":
        if not isinstance(obj, dict) or set(obj) != {"blocks"}:
            raise ValueError("block spec carries exactly the field 'blocks'")
        blocks = []
        keys = {"alpha1", "beta1", "alpha2", "beta2", "pair_sum",
                "cover_multiplicity", "cover1", "cover2"}
        for b in obj["blocks"]:
            if set(b) != keys:
                raise ValueError(f"block fields must be exactly {sorted(keys)}")
            blocks.append(GrahamBlock(
                real_from_json(b["alpha1"]), real_from_json(b["beta1"]),
                real_from_json(b["alpha2"]), real_from_json(b["beta2"]),
                strict_int(b["pair_sum"], "pair_sum"),
                strict_int(b["cover_multiplicity"], "cover_multiplicity"),
                tuple(APTerm(t["a"], t["offset"]) for t in b["cover1"]),
                tuple(APTerm(t["a"], t["offset"]) for t in b["cover2"])))
        return cls(tuple(blocks))


def build_graham(spec: GrahamSpec) -> CoverFamily:
    """Assemble the family union over blocks of S(alpha*a, alpha*phi + beta),
    after validating each block: integer reciprocal pair sum, two exact
    progression covers of the right multiplicity, and integral offset sum."""
    sequences: list[BeattySequence] = []
    for bi, blk in enumerate(spec.blocks, start=1):
        theta_sum = add(div(1, blk.alpha1), div(1, blk.alpha2))
        if compare(theta_sum, Fraction(blk.pair_sum)) != 0:
            raise BuildSpecViolation(
                "pair-sum", f"block {bi}: reciprocals sum to "
                f"{decimal_str(theta_sum, 12)}, declared {blk.pair_sum}")
        for side, cover in (("first", blk.cover1), ("second", blk.cover2)):
            counts = residue_table(cover).counts
            if set(counts) != {blk.cover_multiplicity}:
                raise BuildSpecViolation(
                    "exact-cover",
                    f"block {bi}: {side} progression family is not an exact "
                    f"{blk.cover_multiplicity}-cover (counts {sorted(set(counts))})")
        offset_sum = add(div(blk.beta1, blk.alpha1), div(blk.beta2, blk.alpha2))
        if not is_integer(offset_sum).value:
            raise BuildSpecViolation(
                "offset-integrality",
                f"block {bi}: beta1/alpha1 + beta2/alpha2 = "
                f"{decimal_str(offset_sum, 12)} is not an integer")
        for alpha, beta, cover in ((blk.alpha1, blk.beta1, blk.cover1),
                                   (blk.alpha2, blk.beta2, blk.cover2)):
            for t in cover:
                sequences.append(BeattySequence(
                    mul(alpha, t.modulus), add(mul(alpha, t.offset), beta)))
    return CoverFamily(tuple(sequences), spec.m)


# reciprocal moduli (1 + t, 1 + 6t, -2t, -3t, -t, -t) and dual offsets
_SIX_COEFFS = ((1, 1), (1, 6), (0, -2), (0, -3), (0, -1), (0, -1))
_SIX_GAMMAS = (Fraction(0), Fraction(0), Fraction(0), Fraction(0),
               Fraction(1, 6), Fraction(5, 6))


def build_example_48(theta: RealLike) -> CoverFamily:
    """The six-sequence cover of multiplicity 2 driven by one irrational
    theta in (-1/6, 0): reciprocal moduli (1+t, 1+6t, -2t, -3t, -t, -t)
    with dual offsets (0, 0, 0, 0, 1/6, 5/6).

    This family is an irreducible eventual exact 2-cover that admits no
    block-construction form."""
    theta = as_real(theta)
    if certified_irrational(theta) is not True:
        raise RangeViolation("theta must be certifiably irrational")
    if not (compare(theta, Fraction(-1, 6)) > 0 and compare(theta, 0) < 0):
        raise RangeViolation("theta must lie strictly between -1/6 and 0")
    seqs = []
    for (const, coeff), gamma in zip(_SIX_COEFFS, _SIX_GAMMAS):
        theta_prime = add(Fraction(const), mul(coeff, theta))
        alpha = div(1, theta_prime)
        beta = neg(mul(gamma, alpha)) if gamma else Fraction(0)
        seqs.append(BeattySequence(alpha, beta))
    return CoverFamily(tuple(seqs), 2)


def f_value(x: RealLike):
    """Exact {x} + {6x} + {-2x} + {-3x} + {-x + 1/6} + {-x + 5/6}."""
    x = as_real(x)
    args = (x, mul(6, x), mul(-2, x), mul(-3, x),
            add(neg(x), Fraction(1, 6)), add(neg(x), Fraction(5, 6)))
    total: CertifiedReal = Fraction(0)
    for a in args:
        total = add(total, frac_certified(a))
    return total, args


@dataclass(frozen=True)
class IdentityReport:
    samples: int
    expected: Fraction
    max_abs_deviation: CertifiedReal
    constant_value: Optional[CertifiedReal]  # common value of all samples, if any

    @property
    def all_match(self) -> bool:
        return sign(self.max_abs_deviation) == 0


def f_identity_check(x_samples: Sequence[RealLike],
                     expected: RealLike = 2) -> IdentityReport:
    """Evaluate the six-term fractional sum at each sample and report the
    largest exact deviation from ``expected``, along with the common
    value of the sum when the samples agree on one.

    On every non-degenerate point of (0, 1) the sum is the constant 3:
    writing each term through its floor and walking the six subintervals
    cut by 1/6, 1/3, 1/2, 2/3 and 5/6, the floor contributions cancel
    exactly.  Samples that turn any of the six arguments into an integer
    sit on a jump of the sum and are rejected as degenerate."""
    samples = [as_real(x) for x in x_samples]
    expected = as_real(expected)
    max_dev: CertifiedReal = Fraction(0)
    constant: Optional[CertifiedReal] = None
    constant_ok = True
    for idx, x in enumerate(samples):
        value, args = f_value(x)
        for a in args:
            if is_integer(a).value:
                raise DegeneratePoint(
                    f"sample {idx}: argument {decimal_str(a, 12)} is an integer")
        if not (compare(x, 0) > 0 and compare(x, 1) < 0):
            raise ValueError(f"sample {idx} outside (0, 1)")
        if constant is None:
            constant = value
        elif constant_ok and compare(value, constant) != 0:
            constant_ok = False
        dev = sub(value, expected)
        if sign(dev) < 0:
            dev = neg(dev)
        if compare(dev, max_dev) > 0:
            max_dev = dev
    return IdentityReport(len(samples), expected, max_dev,
                          constant if (constant_ok and samples) else None)
