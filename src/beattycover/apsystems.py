"""Multisets of arithmetic progressions and systems of parameters.

An integer-modulus progression S(a, b) is treated as the residue class
b mod a with multiplicity; a multiset union of progressions is therefore
fully described by its residue count table over the lcm of the moduli.
A system of parameters (a_i, b_i, phi_i) generates, for every integer t,
the multiset union of S(a_i, phi_i + t*b_i); two systems are
complementary when those unions agree for every t.  Since each offset is
periodic in t with period dividing the joint lcm L, checking t in [0, L)
decides complementarity for all of Z.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .exactnum import (
    Basis,
    LinearExpr,
    QuadraticIrrational,
    RealLike,
    as_real,
    collapse,
    strict_int,
)


class BasisMismatch(Exception):
    """Input values do not all live over one declared basis."""


class DensityViolation(Exception):
    """Column sums of the expansion are incompatible with an integer cover."""


class NoIrrationalDependence(Exception):
    """Every coefficient on the leading basis irrational vanishes."""


class NotHomogeneous(Exception):
    """A homogeneous-only procedure received offsets."""


class SearchBudgetExceeded(Exception):
    """Decomposition search aborted: too many progressions."""


@dataclass(frozen=True)
class APTerm:
    """One progression S(a, offset) with integer modulus a >= 1."""

    modulus: int
    offset: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be a positive integer")

    @property
    def residue(self) -> int:
        return self.offset % self.modulus


class APWitness(NamedTuple):
    residue: int
    lhs_count: int
    rhs_count: int


class ComplementarityWitness(NamedTuple):
    t: int
    residue: int
    lhs_count: int
    rhs_count: int


class ExactnessWitness(NamedTuple):
    t: int
    residue: int
    count: int
    other_residue: int
    other_count: int


@dataclass(frozen=True)
class ResidueCountTable:
    """counts[r] = how many progressions hit residue r, over period length."""

    length: int
    counts: tuple[int, ...]

    def nonzero_counts(self) -> set[int]:
        return {c for c in self.counts if c}


def _lcm_all(values) -> int:
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out


def residue_table(terms: Sequence[APTerm], length: Optional[int] = None) -> ResidueCountTable:
    """Count table of a progression multiset over lcm of its moduli
    (or over an explicitly supplied common period)."""
    if not terms:
        raise ValueError("empty progression list")
    L = length if length is not None else _lcm_all(t.modulus for t in terms)
    counts = [0] * L
    for t in terms:
        for x in range(t.offset % t.modulus, L, t.modulus):
            counts[x] += 1
    return ResidueCountTable(L, tuple(counts))


def multiset_equal(lhs: Sequence[APTerm], rhs: Sequence[APTerm]):
    """Multiset equality of two progression unions over Z.

    Returns (True, None) or (False, witness) where the witness is the
    smallest residue at which the counts differ."""
    L = _lcm_all(itertools.chain((t.modulus for t in lhs),
                                 (t.modulus for t in rhs)))
    tl = residue_table(lhs, L)
    tr = residue_table(rhs, L)
    if tl.counts == tr.counts:
        return True, None
    for r, (cl, cr) in enumerate(zip(tl.counts, tr.counts)):
        if cl != cr:
            return False, APWitness(r, cl, cr)
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class ParameterSystem:
    """Size-mu tuples (a, b, phi); tuples are unordered, so comparisons go
    through the canonical key (a, b mod a, phi mod a) sorted."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    phi: tuple[int, ...]

    def __post_init__(self) -> None:
        a = tuple(strict_int(v, "a entry") for v in self.a)
        b = tuple(strict_int(v, "b entry") for v in self.b)
        phi = tuple(strict_int(v, "phi entry") for v in self.phi)
        if not a:
            raise ValueError("a system needs at least one progression")
        if not (len(a) == len(b) == len(phi)):
            raise ValueError("tuples a, b, phi must share one length")
        if any(m < 1 for m in a):
            raise ValueError("moduli must be positive integers")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "phi", phi)

    @classmethod
    def homogeneous(cls, a: Sequence[int], b: Sequence[int]) -> "ParameterSystem":
        return cls(tuple(a), tuple(b), (0,) * len(tuple(a)))

    @property
    def size(self) -> int:
        return len(self.a)

    @property
    def is_homogeneous(self) -> bool:
        return all(p % m == 0 for p, m in zip(self.phi, self.a))

    def canonical_key(self) -> tuple:
        return tuple(sorted((m, bb % m, pp % m)
                            for m, bb, pp in zip(self.a, self.b, self.phi)))

    def terms_at(self, t: int) -> list[APTerm]:
        return [APTerm(m, p + t * bb) for m, bb, p in zip(self.a, self.b, self.phi)]

    def subsystem(self, indices: Sequence[int]) -> "ParameterSystem":
        idx = tuple(indices)
        return ParameterSystem(tuple(self.a[i] for i in idx),
                               tuple(self.b[i] for i in idx),
                               tuple(self.phi[i] for i in idx))

    def density(self) -> Fraction:
        return sum(Fraction(1, m) for m in self.a)

    def to_json(self) -> dict:
        return {"a": list(self.a), "b": list(self.b), "phi": list(self.phi)}

    @classmethod
    def from_json(cls, obj) -> "ParameterSystem":
        if not isinstance(obj, dict):
            raise ValueError("system must be an object")
        known = {"a", "b", "phi"}
        extra = set(obj) - known
        if extra:
            raise ValueError(f"unknown system fields {sorted(extra)}")
        if "a" not in obj:
            raise ValueError("system needs field 'a'")
        a = obj["a"]
        if not isinstance(a, list):
            raise ValueError("system field 'a' must be a list")
        b = obj.get("b", [0] * len(a))
        phi = obj.get("phi", [0] * len(a))
        if not isinstance(b, list) or not isinstance(phi, list):
            raise ValueError("system fields 'b' and 'phi' must be lists")
        return cls(tuple(a), tuple(b), tuple(phi))


def joint_period(s1: ParameterSystem, s2: ParameterSystem) -> int:
    return _lcm_all(itertools.chain(s1.a, s2.a))


def complementary(s1: ParameterSystem, s2: ParameterSystem):
    """Multiset equality of the two generated unions for every t in Z,
    decided over t in [0, L).  Returns (True, None) or (False, witness)
    with the smallest failing t and residue."""
    L = joint_period(s1, s2)
    for t in range(L):
        eq, w = multiset_equal(s1.terms_at(t), s2.terms_at(t))
        if not eq:
            return False, ComplementarityWitness(t, w.residue, w.lhs_count, w.rhs_count)
    return True, None


def is_exact_system(s: ParameterSystem):
    """A system is exact when, for each t, every integer its union hits is
    hit the same number of times."""
    L = _lcm_all(s.a)
    for t in range(L):
        table = residue_table(s.terms_at(t), L)
        seen: dict[int, int] = {}
        for r, c in enumerate(table.counts):
            if c:
                for r0, c0 in seen.items():
                    if c0 != c:
                        return False, ExactnessWitness(t, r0, c0, r, c)
                if not seen:
                    seen[r] = c
    return True, None


@dataclass(frozen=True)
class MatchingResult:
    matched: bool
    pairs: Optional[tuple[tuple[int, int], ...]]  # 1-based (lhs index, rhs index)
    witness: Optional[ComplementarityWitness]


def _match_singletons(s1: ParameterSystem, s2: ParameterSystem
                      ) -> Optional[list[tuple[int, int]]]:
    """Sorted 0-based pairs (i, j) matching every progression of s1 to one
    of s2 with equal (a, b mod a, phi mod a), or None when no such
    bijection exists.  Matched progressions agree at every shift t."""
    if s1.size != s2.size:
        return None

    def key(s, i):
        return s.a[i], s.b[i] % s.a[i], s.phi[i] % s.a[i]

    lhs = sorted(range(s1.size), key=lambda i: key(s1, i))
    rhs = sorted(range(s2.size), key=lambda j: key(s2, j))
    if any(key(s1, i) != key(s2, j) for i, j in zip(lhs, rhs)):
        return None
    return sorted(zip(lhs, rhs))


def decompose_homogeneous(s1: ParameterSystem, s2: ParameterSystem) -> MatchingResult:
    """For complementary homogeneous systems, produce the bijection with
    equal moduli and congruent t-coefficients; otherwise return the
    failing (t, residue) witness.

    The matching is attempted first: matched singletons generate
    identical progressions at every t, so a match certifies
    complementarity outright.  A complementary homogeneous pair always
    admits the matching (checked exhaustively at small scale in the
    tests), so when the matching fails a witness scan must find a
    failing t; not finding one is an internal consistency error."""
    if not (s1.is_homogeneous and s2.is_homogeneous):
        raise NotHomogeneous("both systems must have phi = 0 (mod a)")
    pairs = _match_singletons(s1, s2)
    if pairs is not None:
        return MatchingResult(True, tuple((i + 1, j + 1) for i, j in pairs), None)
    ok, wit = complementary(s1, s2)
    if ok:
        raise AssertionError(
            "complementary homogeneous systems failed to match pairwise")
    return MatchingResult(False, None, wit)


@dataclass(frozen=True)
class Decomposition:
    mode: str
    found: bool
    parts: Optional[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]
    verdict: str  # DECOMPOSED or IRREDUCIBLE / INEXACT / NOT_COMPLETELY_REDUCIBLE


_VERDICT_NONE = {"reducible": "IRREDUCIBLE",
                 "exact": "INEXACT",
                 "complete": "NOT_COMPLETELY_REDUCIBLE"}


def _subsets_by_density(s: ParameterSystem):
    """All nonempty index subsets keyed by their density sum."""
    out: dict[Fraction, list[tuple[int, ...]]] = {}
    for size in range(1, s.size + 1):
        for idx in itertools.combinations(range(s.size), size):
            dens = sum(Fraction(1, s.a[i]) for i in idx)
            out.setdefault(dens, []).append(idx)
    return out


def decompose_search(s1: ParameterSystem, s2: ParameterSystem, mode: str,
                     budget: int = 16) -> Decomposition:
    """Exhaustive decomposition search over a complementary pair.

    mode 'reducible':  any split into two complementary sub-pairs.
    mode 'exact':      a partition into complementary sub-pairs whose
                       subsystems are all exact (one part is allowed).
    mode 'complete':   all-singleton partition into equal progressions.
    """
    if mode not in _VERDICT_NONE:
        raise ValueError(f"unknown mode {mode!r}")
    ok, wit = complementary(s1, s2)
    if not ok:
        raise ValueError(f"systems are not complementary (fails at t={wit.t})")
    if s1.size + s2.size > budget:
        raise SearchBudgetExceeded(
            f"{s1.size} + {s2.size} progressions exceed the budget of {budget}")

    one = tuple(range(s1.size))
    two = tuple(range(s2.size))

    def as_parts(parts):
        return tuple((tuple(i + 1 for i in J), tuple(j + 1 for j in K))
                     for J, K in parts)

    if mode == "complete":
        pairs = _match_singletons(s1, s2)
        if pairs is None:
            return Decomposition(mode, False, None, _VERDICT_NONE[mode])
        return Decomposition(mode, True, as_parts(((i,), (j,)) for i, j in pairs),
                             "DECOMPOSED")

    rhs_by_density = _subsets_by_density(s2)

    def pair_ok(J, K) -> bool:
        sub1, sub2 = s1.subsystem(J), s2.subsystem(K)
        if not complementary(sub1, sub2)[0]:
            return False
        if mode == "exact":
            return is_exact_system(sub1)[0] and is_exact_system(sub2)[0]
        return True

    if mode == "reducible":
        # a 2-way split suffices: complements of a complementary sub-pair
        # are again complementary (residue tables subtract)
        for size in range(1, s1.size):
            for J in itertools.combinations(range(s1.size), size):
                dens = sum(Fraction(1, s1.a[i]) for i in J)
                for K in rhs_by_density.get(dens, ()):
                    if len(K) == s2.size:
                        continue
                    if pair_ok(J, K):
                        Jc = tuple(i for i in one if i not in J)
                        Kc = tuple(j for j in two if j not in K)
                        return Decomposition(mode, True,
                                             as_parts([(J, K), (Jc, Kc)]),
                                             "DECOMPOSED")
        return Decomposition(mode, False, None, _VERDICT_NONE[mode])

    # mode == "exact": recursive partition, smallest remaining lhs index pivots
    memo: dict[tuple[frozenset, frozenset], Optional[tuple]] = {}

    def search(rem1: frozenset, rem2: frozenset):
        if not rem1 and not rem2:
            return ()
        if not rem1 or not rem2:
            return None
        state = (rem1, rem2)
        if state in memo:
            return memo[state]
        pivot = min(rem1)
        rest1 = sorted(rem1 - {pivot})
        result = None
        for size in range(0, len(rest1) + 1):
            for extra in itertools.combinations(rest1, size):
                J = (pivot,) + extra
                dens = sum(Fraction(1, s1.a[i]) for i in J)
                for K in rhs_by_density.get(dens, ()):
                    if not set(K) <= rem2:
                        continue
                    if pair_ok(J, K):
                        tail = search(rem1 - set(J), rem2 - set(K))
                        if tail is not None:
                            result = ((J, K),) + tail
                            break
                if result:
                    break
            if result:
                break
        memo[state] = result
        return result

    parts = search(frozenset(one), frozenset(two))
    if parts is None:
        return Decomposition(mode, False, None, _VERDICT_NONE[mode])
    return Decomposition(mode, True, as_parts(sorted(parts)), "DECOMPOSED")


# ---------------------------------------------------------------------------
# rational expansions over a shared irrational basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalExpansion:
    """Coefficients expressing each reciprocal modulus as
    q0[i] + sum_j q[j][i] * basis_j, together with the cover multiplicity
    m implied by the constant column sum."""

    basis_labels: tuple[str, ...]
    q0: tuple[Fraction, ...]
    q: tuple[tuple[Fraction, ...], ...]  # rows j = 1..d
    m: int

    @property
    def d(self) -> int:
        return len(self.basis_labels)

    @property
    def k(self) -> int:
        return len(self.q0)


def expand_over_basis(thetas: Sequence[RealLike],
                      m: Optional[int] = None,
                      basis=None) -> RationalExpansion:
    """Extract the rational coordinates of each theta over a shared basis.

    Linear-expression inputs supply (and must agree on) the basis;
    quadratic inputs are rewritten over the unique basis entry sharing
    their radicand; rationals contribute constants only.  When no input
    is a linear expression, the basis defaults to the first irrational
    theta itself (labelled ``theta1``).

    Column sums are validated: the constant column must total the
    declared (or inferred) integer multiplicity m and every basis column
    must total zero, which is exactly the density condition for a cover.
    """
    vals = [as_real(t) for t in thetas]
    if not vals:
        raise ValueError("no values to expand")

    merged = basis
    for v in vals:
        if isinstance(v, LinearExpr):
            merged = v.basis if merged is None else merged.merged(v.basis)
    if merged is None:
        first_irr = next((v for v in vals if isinstance(v, QuadraticIrrational)), None)
        if first_irr is None:
            raise BasisMismatch("all values are rational; no basis to expand over")
        merged = Basis.make({"theta1": first_irr})

    labels = merged.labels
    by_d: dict[int, str] = {}
    for lab in labels:
        v = merged.value(lab)
        if isinstance(v, QuadraticIrrational):
            if v.d in by_d:
                by_d[v.d] = ""  # ambiguous: two entries share the field
            else:
                by_d[v.d] = lab

    q0: list[Fraction] = []
    rows: dict[str, list[Fraction]] = {lab: [] for lab in labels}

    for v in vals:
        if isinstance(v, Fraction):
            q0.append(v)
            for lab in labels:
                rows[lab].append(Fraction(0))
            continue
        if isinstance(v, QuadraticIrrational):
            lab = by_d.get(v.d)
            if not lab:
                raise BasisMismatch(
                    f"no unique basis entry covers the field sqrt({v.d})")
            base = merged.value(lab)
            # v = x + y*base with y = (b/r)/(B/R), x = a/r - y*A/R
            y = Fraction(v.b, v.r) / Fraction(base.b, base.r)
            x = Fraction(v.a, v.r) - y * Fraction(base.a, base.r)
            q0.append(x)
            for l2 in labels:
                rows[l2].append(y if l2 == lab else Fraction(0))
            continue
        # LinearExpr over (a subset of) the merged basis
        q0.append(v.constant)
        for lab in labels:
            rows[lab].append(v.coefficient(lab))

    s0 = sum(q0)
    if m is None:
        if s0.denominator != 1 or s0 <= 0:
            raise DensityViolation(
                f"constant column sums to {s0}, not a positive integer")
        m = int(s0)
    elif s0 != m:
        raise DensityViolation(f"constant column sums to {s0}, expected m = {m}")
    for lab in labels:
        sj = sum(rows[lab])
        if sj != 0:
            raise DensityViolation(f"column for {lab!r} sums to {sj}, expected 0")

    return RationalExpansion(labels, tuple(q0),
                             tuple(tuple(rows[lab]) for lab in labels), m)


@dataclass(frozen=True)
class SystemDerivation:
    """The progression pair derived from an expansion plus rational offsets,
    reduced by the common factor of all entries.

    Indices are 1-based positions in the input family; entries whose
    leading coefficient vanishes take part in neither side."""

    L0: int
    L: int
    H: int
    U: tuple[int, ...]
    V: tuple[int, ...]
    G: tuple[int, ...]
    positive_indices: tuple[int, ...]
    negative_indices: tuple[int, ...]
    system: ParameterSystem
    complement: ParameterSystem
    common_factor: int
    complementary_check: Optional[bool]
    complementary_witness: Optional[ComplementarityWitness]


def derive_systems(expansion: RationalExpansion,
                   gammas: Sequence[RealLike],
                   check: bool = True) -> SystemDerivation:
    """Turn an expansion and rational dual offsets into the derived pair of
    parameter systems, splitting indices by the sign of the leading
    coefficient.

    Fractional parts normalise both the constants and the offsets, the
    moduli on the negative side flip sign to stay positive, and the whole
    pair is divided by the gcd of all entries; offsets are therefore only
    canonical modulo their moduli.  When the basis is a single irrational
    the construction is faithful, so the derived pair is checked for
    complementarity (recorded, not raised)."""
    k = expansion.k
    gs: list[Fraction] = []
    for g in gammas:
        g = as_real(g)
        if isinstance(g, LinearExpr):
            g = collapse(g) or g
        if not isinstance(g, Fraction):
            raise TypeError("offsets must be rational; reduce irrational "
                            "offsets before deriving systems")
        gs.append(g)
    if len(gs) != k:
        raise ValueError("one offset per sequence required")

    q1 = expansion.q[0]
    active = [i for i in range(k) if q1[i] != 0]
    if not active:
        raise NoIrrationalDependence(
            "no sequence depends on the leading basis irrational")

    frac0 = [x - (x.numerator // x.denominator) for x in expansion.q0]
    L0 = _lcm_all(frac0[i].denominator for i in active)
    L = _lcm_all(abs(q1[i].numerator) for i in active)
    U = {i: int(frac0[i] * L0) for i in active}
    V = {i: int(Fraction(L) / q1[i]) for i in active}
    H = _lcm_all(g.denominator for g in gs)
    G = {i: int((gs[i] - (gs[i].numerator // gs[i].denominator)) * H)
         for i in range(k)}

    pos = [i for i in active if q1[i] > 0]
    negs = [i for i in active if q1[i] < 0]

    a = [L0 * V[i] * H for i in pos]
    b = [-U[i] * V[i] * H for i in pos]
    phi = [-L0 * V[i] * G[i] for i in pos]
    c = [-L0 * V[j] * H for j in negs]
    dd = [-U[j] * V[j] * H for j in negs]
    psi = [-L0 * V[j] * G[j] for j in negs]

    g_all = 0
    for v in itertools.chain(a, b, phi, c, dd, psi):
        g_all = math.gcd(g_all, v)
    g_all = max(g_all, 1)

    s_pos = ParameterSystem(tuple(v // g_all for v in a),
                            tuple(v // g_all for v in b),
                            tuple(v // g_all for v in phi))
    s_neg = ParameterSystem(tuple(v // g_all for v in c),
                            tuple(v // g_all for v in dd),
                            tuple(v // g_all for v in psi))

    comp_ok = comp_wit = None
    if check and expansion.d == 1:
        comp_ok, comp_wit = complementary(s_pos, s_neg)

    return SystemDerivation(
        L0=L0, L=L, H=H,
        U=tuple(U.get(i, 0) for i in range(k)),
        V=tuple(V.get(i, 0) for i in range(k)),
        G=tuple(G[i] for i in range(k)),
        positive_indices=tuple(i + 1 for i in pos),
        negative_indices=tuple(j + 1 for j in negs),
        system=s_pos, complement=s_neg,
        common_factor=g_all,
        complementary_check=comp_ok,
        complementary_witness=comp_wit,
    )


def systems_equivalent(s1: ParameterSystem, s2: ParameterSystem) -> bool:
    """Same multiset of progressions up to reducing offsets mod moduli."""
    return s1.canonical_key() == s2.canonical_key()
