"""The word path of the window scan against the scalar isqrt core.

The word path builds each sequence's floor differences as a Sturmian
word and rescans only the N where a count can differ from them; the
scalar core ``_scan`` stays the oracle.  The property test draws the
shapes where the two could part: theta > 1, theta < 1/200, 40-bit
coefficients, rational and quadratic offsets, a lattice hit planted in
the window, a clip prefix crossing its start, windows near 10^12, block
boundaries inside the window, the six-sequence family and a duplicated
sequence."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beattycover import beatty, exactnum
from beattycover.beatty import (
    BeattySequence,
    CoverFamily,
    _scan,
    _scan_chunk,
    _word_blocks,
    _word_plan,
    _word_profile,
    dualize,
    verify_window,
)
from beattycover.exactnum import (
    Basis,
    DecimalAnchor,
    LinearExpr,
    PrecisionExhausted,
    QuadraticIrrational,
    add,
    div,
    floor_certified,
    mul,
    neg,
    sub,
)
from conftest import PHI, SQRT2, SQRT3

RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13)


@st.composite
def quadratic_in(draw, lo: Fraction, hi: Fraction, bits: int, d=None):
    """(a + b*sqrt(d))/r strictly inside (lo, hi), b and r of ``bits`` bits."""
    d = d if d is not None else draw(st.sampled_from(RADICANDS))
    b = draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) * draw(st.sampled_from((1, -1)))
    r = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    s = QuadraticIrrational(0, b, d, 1)
    a_min = floor_certified(sub(lo * r, s)) + 1
    a_max = -floor_certified(sub(s, hi * r)) - 1
    if a_max < a_min:  # no integer a fits: scale r until (lo*r, hi*r) spans 2
        r *= math.ceil(2 / (hi - lo))
        a_min = floor_certified(sub(lo * r, s)) + 1
        a_max = -floor_certified(sub(s, hi * r)) - 1
    return QuadraticIrrational(draw(st.integers(a_min, a_max)), b, d, r)


THETA_RANGES = {
    "unit": (Fraction(0), Fraction(1)),
    "above-one": (Fraction(1), Fraction(6)),
    "below-1/200": (Fraction(1, 5000), Fraction(1, 200)),
}


@st.composite
def windows(draw):
    base = draw(st.sampled_from((1, 1000, 10 ** 12)))
    lo = base + draw(st.integers(0, 500))
    return lo, lo + draw(st.integers(0, 300))


@st.composite
def word_case(draw):
    """(family, window, block size) for the word path."""
    lo, hi = draw(windows())
    shape = draw(st.sampled_from(("random", "pair", "six", "duplicated-phi")))
    if shape == "duplicated-phi":
        duals = [(div(1, PHI), Fraction(0))] * 2
        m = 1
    elif shape == "six":
        t = draw(quadratic_in(Fraction(-1, 6), Fraction(0), 8))
        thetas = [add(1, t), add(1, mul(6, t)), mul(-2, t), mul(-3, t), neg(t), neg(t)]
        gammas = [Fraction(0)] * 4 + [Fraction(1, 6), Fraction(5, 6)]
        duals = list(zip(thetas, gammas))
        m = 2
    else:
        k = 2 if shape == "pair" else draw(st.integers(1, 4))
        duals = []
        for _ in range(k):
            rng = draw(st.sampled_from(sorted(THETA_RANGES)))
            bits = draw(st.sampled_from((3, 8, 40)))
            theta = draw(quadratic_in(*THETA_RANGES[rng], bits))
            duals.append((theta, draw(offsets(theta, lo, hi))))
        m = draw(st.integers(1, 4))
        if shape == "pair":
            # a complementary pair: theta_2 = m - theta_1, gamma sum J + shift
            m = max(1, math.ceil(float(duals[0][0])))
            theta2 = sub(m, duals[0][0])
            shift = draw(st.sampled_from((Fraction(0), Fraction(1, 3))))
            duals[1] = (theta2, sub(draw(st.integers(-1, 2)) + shift, duals[0][1]))
    family = CoverFamily(tuple(BeattySequence(div(1, t), neg(div(g, t)))
                               for t, g in duals), m)
    return family, (lo, hi), draw(st.sampled_from((1, 7, 64, 1 << 20)))


@st.composite
def offsets(draw, theta, lo: int, hi: int):
    kind = draw(st.sampled_from(("zero", "rational", "quadratic", "lattice", "clip")))
    if kind == "zero":
        return Fraction(0)
    if kind == "rational":
        return draw(st.sampled_from((Fraction(1, 6), Fraction(5, 6), Fraction(-7, 3))))
    if kind == "quadratic":
        return draw(quadratic_in(Fraction(-2), Fraction(2), 4, theta.d))
    if kind == "lattice":
        # N0*theta + gamma = k0 for an N0 at or beside the window
        n0 = draw(st.integers(lo - 1, hi + 1))
        return sub(draw(st.integers(-3, 40)), mul(n0, theta))
    # N*theta + gamma <= 0 exactly for N <= clip
    clip = draw(st.integers(max(1, lo - 2), hi))
    return neg(mul(Fraction(2 * clip + 1, 2), theta))


def reference_floors(duals, lo, hi):
    return [(f_now, f_next) for _, f_now, f_next in _scan(duals, lo, hi)]


@settings(max_examples=500, deadline=None)
@given(word_case())
def test_word_path_matches_scalar_core(case):
    family, (lo, hi), block = case
    duals = dualize(family)
    seqs, reason = _word_plan(duals)
    assert reason is None
    prof = _word_profile(family, duals, seqs, lo, hi, True, block=block)
    ref_counts, ref_eps, ref_violations, ref_failures = _scan_chunk(
        (family, lo, hi, True, None))
    assert list(prof.counts) == ref_counts
    assert prof.violations == ref_violations
    assert prof.identity_failures == ref_failures
    assert prof.r_histogram == dict(sorted(Counter(ref_counts).items()))
    assert prof.epsilons == ref_eps
    # F(N) and F(N+1) rebuilt from the word blocks
    floors = []
    for b in _word_blocks(seqs, duals, lo, hi, block=block):
        f = b.f_start
        for df in b.steps():
            floors.append((f, f + df))
            f += df
    assert floors == reference_floors(duals, lo, hi)


# ---------------------------------------------------------------------------
# fallbacks: the scalar core serves the whole window
# ---------------------------------------------------------------------------


def anchored_offset(decimal: str):
    """sqrt2 minus an anchored decimal: a beta no single field can hold."""
    return LinearExpr(Fraction(0), (("s", Fraction(1)), ("t", Fraction(-1))),
                      Basis.make({"s": SQRT2, "t": DecimalAnchor(decimal)}))


# sqrt2 to 40 decimals, written with 80: beta lies within 1e-40 of 0, so
# floors at even n need more than 128 bits but well under 4096
SQRT2_40 = str(math.isqrt(2 * 10 ** 80))[:41]
ANCHOR = SQRT2_40[0] + "." + SQRT2_40[1:] + "0" * 40


@pytest.fixture
def scan_calls(monkeypatch):
    """The (lo, hi) of every call into the scalar core."""
    calls = []

    def spy(duals, lo, hi, max_bits=None):
        calls.append((lo, hi))
        return _scan(duals, lo, hi, max_bits)

    monkeypatch.setattr(beatty, "_scan", spy)
    return calls


@pytest.mark.parametrize("family, reason", [
    (CoverFamily((BeattySequence(Fraction(2), anchored_offset(ANCHOR)),
                  BeattySequence(Fraction(2), Fraction(1))), 1), "anchored"),
    (CoverFamily((BeattySequence(SQRT2, SQRT3),), 1), "mixed-field"),
    (CoverFamily((BeattySequence(PHI), BeattySequence(Fraction(1))), 2),
     "rational theta"),
    (CoverFamily((BeattySequence(div(1, add(300, SQRT2))),), 301),
     "counts above 255"),
], ids=["anchored", "mixed-field", "rational-theta", "counts-above-255"])
def test_fallback_runs_the_scalar_core(family, reason, scan_calls):
    assert _word_plan(dualize(family)) == (None, reason)
    prof = verify_window(family, 1, 40)
    assert scan_calls == [(1, 40)]
    assert len(prof.counts) == 40


def test_word_path_rescans_only_irregular_n(scan_calls):
    # lattice hit at N = 5 (3*sqrt2 + 5 - 3*sqrt2 = 5): N = 4, 5 rescanned
    family = CoverFamily((BeattySequence(SQRT2, sub(5, mul(3, SQRT2))),
                          BeattySequence(add(2, SQRT2))), 1)
    verify_window(family, 1, 1000, jobs=2)
    assert scan_calls == [(4, 4), (5, 5)]


# ---------------------------------------------------------------------------
# precision is an argument, not a global
# ---------------------------------------------------------------------------


def test_max_bits_reaches_pool_workers():
    family = CoverFamily((BeattySequence(Fraction(2), anchored_offset(ANCHOR)),), 1)
    assert exactnum.DEFAULT_MAX_BITS == 4096
    with pytest.raises(PrecisionExhausted):
        verify_window(family, 1, 20, jobs=2, max_bits=64)
    prof = verify_window(family, 1, 20, jobs=2)
    assert prof.counts == verify_window(family, 1, 20).counts
