"""Beatty sequences: dual parameters, representation counts against a
brute-force enumeration oracle, window verification and the
equidistribution diagnostic."""

import math
import random
from fractions import Fraction

import pytest

from beattycover.beatty import (
    BeattySequence,
    CoverFamily,
    DualParameters,
    _FastEval,
    _GenericEval,
    _make_eval,
    discrepancy_diagnostic,
    dualize_sequence,
    epsilon,
    r_single,
    r_total,
    verify_window,
)
from beattycover.exactnum import (
    Basis,
    DecimalAnchor,
    LinearExpr,
    QuadraticIrrational,
    add,
    ceil_certified,
    compare,
    div,
    mul,
    real_from_json,
    sub,
)
from conftest import (
    INV_SQRT2,
    PHI,
    PHI_SQ,
    SQRT2,
    SQRT2_MINUS_1,
    SQRT3,
    anchored_sqrt2_minus_1,
)


def golden_family():
    return CoverFamily((BeattySequence(PHI), BeattySequence(PHI_SQ)), 1)


def sqrt2_m2_family():
    # alpha2 with 1/alpha2 = 2 - 1/sqrt(2), so the reciprocal sum is 2
    theta2 = sub(2, INV_SQRT2)
    alpha2 = div(1, theta2)
    return CoverFamily((BeattySequence(SQRT2), BeattySequence(alpha2)), 2)


def enumerate_hits(seq: BeattySequence, N: int) -> int:
    """Oracle: walk every candidate index n in [1, ceil((N+1-beta)/alpha)+2]
    and count exact floor hits."""
    bound = ceil_certified(div(sub(N + 1, seq.beta), seq.alpha)) + 2
    count = 0
    for n in range(1, bound + 1):
        value = add(mul(n, seq.alpha), seq.beta)
        if compare(value, N) >= 0 and compare(value, N + 1) < 0:
            count += 1
    return count


# ---------------------------------------------------------------------------
# dualization
# ---------------------------------------------------------------------------

def test_dualize_golden():
    d = dualize_sequence(BeattySequence(PHI))
    assert compare(d.theta, sub(PHI, 1)) == 0  # 1/phi = phi - 1
    assert d.gamma == 0


def test_dualize_rational():
    d = dualize_sequence(BeattySequence(Fraction(2), Fraction(1)))
    assert d.theta == Fraction(1, 2)
    assert d.gamma == Fraction(-1, 2)


def test_dualize_scaled_block_row():
    # S(2a/(a-1), a/(a-1)) with a = sqrt(2): theta = (a-1)/(2a), gamma = -1/2
    alpha_p = div(SQRT2, sub(SQRT2, 1))           # a/(a-1) = 2 + sqrt(2)
    seq = BeattySequence(mul(2, alpha_p), alpha_p)
    d = dualize_sequence(seq)
    expected_theta = div(sub(SQRT2, 1), mul(2, SQRT2))
    assert compare(d.theta, expected_theta) == 0
    assert d.gamma == Fraction(-1, 2)


def test_positive_modulus_enforced():
    with pytest.raises(ValueError):
        BeattySequence(Fraction(0))
    with pytest.raises(ValueError):
        BeattySequence(QuadraticIrrational(-1, -1, 2, 1))


# ---------------------------------------------------------------------------
# representation counts
# ---------------------------------------------------------------------------

def test_r_single_golden_small():
    assert r_single(BeattySequence(PHI), 1) == 1      # floor(phi) = 1
    assert r_single(BeattySequence(PHI_SQ), 1) == 0   # floor(phi^2) = 2


def test_r_single_large_matches_enumeration():
    seq = BeattySequence(SQRT2)
    n = 10 ** 4
    assert r_single(seq, n) == enumerate_hits(seq, n)


def test_r_total_examples():
    assert r_total(golden_family(), 7) == 1
    assert r_total(sqrt2_m2_family(), 100) == 2
    assert r_total(CoverFamily((BeattySequence(Fraction(1)),), 1), 5) == 1


def test_r_single_oracle_corpus():
    # twenty quadratic-irrational sequences, r(N) vs direct enumeration
    rng = random.Random(42)
    seqs = []
    while len(seqs) < 20:
        a = rng.randint(-3, 6)
        b = rng.randint(1, 4)
        d = rng.choice([2, 3, 5, 6, 7, 10])
        r = rng.randint(1, 4)
        alpha = QuadraticIrrational(a, b, d, r)
        if compare(alpha, Fraction(1, 3)) < 0 or compare(alpha, 12) > 0:
            continue
        beta = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        seqs.append(BeattySequence(alpha, beta))
    for seq in seqs:
        for N in list(range(1, 60)) + [997]:
            assert r_single(seq, N) == enumerate_hits(seq, N), (seq, N)


def test_multiset_counting_below_one():
    # alpha < 1 hits the same integer repeatedly
    seq = BeattySequence(INV_SQRT2)  # about 0.707
    total = sum(r_single(seq, N) for N in range(1, 50))
    direct = sum(1 for n in range(1, 200)
                 if 1 <= math.floor(n / math.sqrt(2)) < 50)
    assert total == direct
    assert any(r_single(seq, N) == 2 for N in range(1, 50))


# ---------------------------------------------------------------------------
# epsilon
# ---------------------------------------------------------------------------

def test_epsilon_golden_pair_constant_one():
    fam = golden_family()
    for N in (1, 2, 17, 1000):
        assert epsilon(fam, N) == Fraction(1)


def test_epsilon_in_range():
    fam = sqrt2_m2_family()
    for N in range(1, 40):
        e = epsilon(fam, N)
        assert compare(e, 0) >= 0
        assert compare(e, fam.k) < 0


# ---------------------------------------------------------------------------
# window verification
# ---------------------------------------------------------------------------

def test_verify_window_golden_clean():
    prof = verify_window(golden_family(), 1, 1000)
    assert prof.violations == []
    assert prof.identity_failures == []
    assert prof.r_histogram == {1: 1000}


def test_verify_window_duplicated_sequence_violates_everywhere():
    fam = CoverFamily((BeattySequence(PHI), BeattySequence(PHI)), 1)
    prof = verify_window(fam, 1, 100)
    assert len(prof.violations) == 100
    assert set(prof.values.values()) <= {0, 2}


def test_verify_window_offset_mismatch_finds_violation():
    # gamma1 + gamma2 = -1/3 not an integer, so violations must occur
    fam = CoverFamily((BeattySequence(PHI, div(PHI, 3)), BeattySequence(PHI_SQ)), 1)
    prof = verify_window(fam, 1, 10 ** 4, keep_epsilon=False)
    assert prof.violations, "offset-defect pair must violate somewhere"


def test_verify_window_identity_against_generic_epsilon():
    fam = sqrt2_m2_family()
    prof = verify_window(fam, 1, 200)
    assert prof.identity_failures == []
    for N in (1, 7, 63, 200):
        assert compare(prof.epsilon_values[N], epsilon(fam, N)) == 0
        diff = sub(epsilon(fam, N), epsilon(fam, N + 1))
        assert compare(diff, Fraction(prof.values[N] - fam.m)) == 0


def test_verify_window_rational_progression():
    fam = CoverFamily((BeattySequence(Fraction(1)),), 1)
    prof = verify_window(fam, 1, 50)
    assert prof.violations == []
    assert prof.identity_failures == []


def test_verify_window_parallel_merge_deterministic():
    fam = golden_family()
    p1 = verify_window(fam, 1, 400, jobs=1)
    p2 = verify_window(fam, 1, 400, jobs=3)
    assert p1.values == p2.values
    assert p1.violations == p2.violations
    assert p1.to_json() == p2.to_json()


def test_verify_window_bad_bounds():
    with pytest.raises(ValueError):
        verify_window(golden_family(), 0, 10)
    with pytest.raises(ValueError):
        verify_window(golden_family(), 5, 4)


def test_verify_window_mixed_field_generic_path():
    # beta in a different quadratic field than alpha forces the generic
    # certified evaluator; counts must match direct enumeration
    seq = BeattySequence(SQRT2, SQRT3)
    fam = CoverFamily((seq,), 1)
    prof = verify_window(fam, 1, 40, keep_epsilon=False)
    for N in range(1, 41):
        assert prof.values[N] == enumerate_hits(seq, N)


def mixed_field_family():
    # alpha in Q(sqrt5), beta over sqrt2 and sqrt5: dualizing needs the
    # product of two square-root combinations
    beta = add(Fraction(1, 3), add(mul(Fraction(1, 2), SQRT2),
                                   mul(Fraction(-1, 5), QuadraticIrrational(0, 1, 5, 1))))
    return CoverFamily((BeattySequence(PHI, beta), BeattySequence(PHI_SQ)), 1)


def test_verify_window_mixed_field_beta_counts():
    fam = mixed_field_family()
    prof = verify_window(fam, 1, 60)
    for N in range(1, 61):
        assert prof.values[N] == sum(enumerate_hits(s, N) for s in fam.sequences)
        assert compare(prof.epsilon_values[N], epsilon(fam, N)) == 0
    assert prof.violations


def lattice_hit_family():
    # 3*sqrt2 + (5 - 3*sqrt2) = 5: a lattice boundary hit at N = 5
    return CoverFamily((BeattySequence(SQRT2, sub(5, mul(3, SQRT2))),
                        BeattySequence(add(2, SQRT2))), 1)


def generic_two_basis_family():
    # rational alpha with an offset over sqrt2 and sqrt3
    beta = add(SQRT2, SQRT3)
    return CoverFamily((BeattySequence(Fraction(2), beta),
                        BeattySequence(Fraction(2), sub(1, beta))), 1)


@pytest.mark.parametrize("make_family", [
    lattice_hit_family,
    lambda: CoverFamily((BeattySequence(PHI), BeattySequence(PHI)), 1),
    lambda: CoverFamily((BeattySequence(SQRT2), BeattySequence(SQRT3, Fraction(1, 2))), 1),
    generic_two_basis_family,
], ids=["lattice-hit", "duplicated-phi", "two-fields", "generic-two-basis"])
def test_identity_failures_match_epsilon_reference(make_family):
    fam = make_family()
    prof = verify_window(fam, 1, 60)
    reference = [N for N in range(1, 61)
                 if compare(sub(epsilon(fam, N), epsilon(fam, N + 1)),
                            prof.values[N] - fam.m) != 0]
    assert prof.identity_failures
    assert prof.identity_failures == reference


def test_make_eval_chooses_by_field_test():
    anchored = LinearExpr(Fraction(0), (("t", Fraction(1)),),
                          Basis.make({"t": DecimalAnchor("0.123456")}))
    one_field = LinearExpr(Fraction(1), (("s", Fraction(1)),),
                           Basis.make({"s": SQRT2}))  # collapses to 1 + sqrt2
    cases = [
        (Fraction(1, 2), Fraction(-1, 3), _FastEval),
        (INV_SQRT2, Fraction(1, 2), _FastEval),
        (INV_SQRT2, SQRT2_MINUS_1, _FastEval),
        (INV_SQRT2, one_field, _FastEval),
        (Fraction(1, 2), SQRT3, _FastEval),
        (INV_SQRT2, SQRT3, _GenericEval),
        (Fraction(1, 2), add(SQRT2, SQRT3), _GenericEval),
        (INV_SQRT2, anchored, _GenericEval),
    ]
    for theta, gamma, kind in cases:
        ev = _make_eval(DualParameters(theta, gamma))
        assert type(ev) is kind, (theta, gamma)
        if kind is _FastEval:
            reference = _GenericEval(theta, gamma)
            for n in range(-5, 40):
                assert ev.floor_ceil(n) == reference.floor_ceil(n), (theta, gamma, n)


def test_fast_path_errors_propagate(monkeypatch):
    def broken(self, n):
        raise TypeError("broken integer evaluator")

    monkeypatch.setattr(_FastEval, "floor_ceil", broken)
    with pytest.raises(TypeError, match="broken integer evaluator"):
        verify_window(golden_family(), 1, 50)


def test_dualize_rejects_anchored_modulus():
    # an anchored modulus has no exactly representable reciprocal; the
    # dual transform is only exact for rational and quadratic data
    obj = {"kind": "linear",
           "constant": {"kind": "rational", "num": "1", "den": "1"},
           "terms": [{"basis": "t",
                      "coeff": {"kind": "rational", "num": "1", "den": "1"}}],
           "basis_defs": {"t": {"kind": "anchor",
                                "decimal": "0.6180339887498948"}}}
    alpha = real_from_json(obj)
    with pytest.raises(ArithmeticError):
        dualize_sequence(BeattySequence(alpha))


# ---------------------------------------------------------------------------
# telescoping multiset check
# ---------------------------------------------------------------------------

def test_hit_totals_telescope():
    seqs = [BeattySequence(SQRT2), BeattySequence(INV_SQRT2, Fraction(1, 3)),
            BeattySequence(PHI_SQ, Fraction(-1, 2))]
    X = 300
    for seq in seqs:
        total = sum(r_single(seq, N) for N in range(1, X + 1))
        bound = ceil_certified(div(sub(X + 1, seq.beta), seq.alpha)) + 2
        direct = 0
        for n in range(1, bound + 1):
            v = add(mul(n, seq.alpha), seq.beta)
            if compare(v, 1) >= 0 and compare(v, X + 1) < 0:
                direct += 1
        assert total == direct


# ---------------------------------------------------------------------------
# discrepancy diagnostic
# ---------------------------------------------------------------------------

def test_discrepancy_rational_theta_large():
    d = discrepancy_diagnostic(Fraction(1, 2), 100)
    assert d == Fraction(1, 2)


def test_discrepancy_quadratic_small():
    d = discrepancy_diagnostic(SQRT2_MINUS_1, 10 ** 4)
    assert d < Fraction(1, 100)
    d = discrepancy_diagnostic(sub(PHI, 1), 10 ** 3)
    assert d < Fraction(1, 50)


def test_discrepancy_anchored_matches_quadratic():
    theta = anchored_sqrt2_minus_1(80)
    assert discrepancy_diagnostic(theta, 1000) == \
        discrepancy_diagnostic(SQRT2_MINUS_1, 1000)


def test_discrepancy_bounds():
    for theta in (Fraction(1, 3), SQRT2_MINUS_1):
        d = discrepancy_diagnostic(theta, 50)
        assert Fraction(0) <= d <= Fraction(1)
