"""Fractional pairs: case classification, the closed form for partial
sums, exact density formulas and empirical frequencies."""

from fractions import Fraction

import pytest

from beattycover.beatty import epsilon
from beattycover.exactnum import (
    QuadraticIrrational,
    add,
    compare,
    frac_certified,
    mul,
    sub,
)
from beattycover.fractional import (
    CaseMismatch,
    FractionalPair,
    R_formula_check,
    build_profile,
    classify,
    empirical_densities,
    epsilon_cN,
    formula_densities,
    r_formula_value,
)
from conftest import INV_SQRT2, SQRT2_MINUS_1, anchored_sqrt2_minus_1


def pair_ci():
    # {theta1} = sqrt(2) - 1 = 0.4142... sits in (1/3, 2/3): p1 = 1 < p0 = 2
    return FractionalPair.create(5, 3, SQRT2_MINUS_1)


def pair_cii():
    # {theta1} = 0.7071... sits in (2/3, 1): p1 = 2 >= p0 = 2
    return FractionalPair.create(5, 3, INV_SQRT2)


# ---------------------------------------------------------------------------
# construction and classification
# ---------------------------------------------------------------------------

def test_create_validates():
    with pytest.raises(ValueError):
        FractionalPair.create(4, 2, SQRT2_MINUS_1)   # not coprime
    with pytest.raises(ValueError):
        FractionalPair.create(5, 3, Fraction(1, 2))  # rational theta1
    with pytest.raises(ValueError):
        FractionalPair.create(1, 3, INV_SQRT2)       # theta2 would be negative


def test_classify_case_a():
    pair = FractionalPair.create(2, 1, INV_SQRT2)
    label, values = classify(pair)
    assert label == "A" and values == (2,)


def test_classify_case_b():
    pair = FractionalPair.create(3, 2, INV_SQRT2)
    label, values = classify(pair)
    assert label == "B" and values == (1, 2)


def test_classify_case_ci():
    pair = pair_ci()
    assert (pair.p0, pair.p1) == (2, 1)
    label, values = classify(pair)
    assert label == "Ci" and values == (1, 2, 3)


def test_classify_case_cii():
    pair = pair_cii()
    assert (pair.p0, pair.p1) == (2, 2)
    label, values = classify(pair)
    assert label == "Cii" and values == (0, 1, 2)


# ---------------------------------------------------------------------------
# eps and c_N
# ---------------------------------------------------------------------------

def test_epsilon_cn_multiples_of_q():
    pair = pair_ci()
    for N in (3, 6, 9, 300):
        c, e = epsilon_cN(pair, N)
        assert c == 0 and e == Fraction(1)


def test_epsilon_cn_at_one():
    # eps(1) = p0/q when p1 < p0, and 1 + p0/q when p1 >= p0
    _, e = epsilon_cN(pair_ci(), 1)
    assert e == Fraction(2, 3)
    _, e = epsilon_cN(pair_cii(), 1)
    assert e == 1 + Fraction(2, 3)


def test_epsilon_cn_matches_generic_path():
    for pair in (pair_ci(), pair_cii()):
        fam = pair.family()
        for N in range(1, 400):
            _, shortcut = epsilon_cN(pair, N)
            generic = epsilon(fam, N)
            assert compare(shortcut, generic) == 0, (pair.p1, N)


# ---------------------------------------------------------------------------
# the closed form for R(qN - 1)
# ---------------------------------------------------------------------------

def test_r_formula_branches():
    assert r_formula_value(pair_ci(), 7) == 5 * 7 - 2   # ceil(5/3) = 2
    assert r_formula_value(pair_cii(), 7) == 5 * 7 - 1  # floor(5/3) = 1


def test_R_formula_check_small():
    for pair, shift in ((pair_ci(), 2), (pair_cii(), 1)):
        rep = R_formula_check(pair, 300)
        assert rep.ok, rep.mismatches[:3]


def test_R_formula_case_a_consistency():
    # q = 1: R(N - 1) = p*N - p means R(M) = p*M
    pair = FractionalPair.create(2, 1, INV_SQRT2)
    rep = R_formula_check(pair, 200)
    assert rep.ok


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_formula_densities_ci_exact_value():
    d0, d1, d2 = formula_densities(pair_ci())
    # the per-residue sum reproduces the closed form
    # (1/q) * [(p0^2 + p1^2 - (p0 - p1)) / (2q) - p1 * {theta1}],
    # here (1/3) * (5/3 - sqrt(2)) = (5 - 3*sqrt(2))/9
    assert compare(d2, QuadraticIrrational(5, -3, 2, 9)) == 0
    assert compare(add(add(d0, d1), d2), Fraction(1)) == 0


def test_formula_densities_ci_matches_closed_form_when_unclamped():
    # the quadratic closed form
    # (1/q) * [(p0^2 + p1^2 - (p0 - p1)) / (2q) - p1 * {theta1}]
    # agrees with the per-residue sum whenever no admissible interval is
    # clipped by {N*theta1} < 1, i.e. when {theta1} >= (p0 - 1)/q
    instances = [
        FractionalPair.create(5, 3, SQRT2_MINUS_1),
        FractionalPair.create(7, 5, QuadraticIrrational(-2, 2, 2, 4)),  # {t}=0.207
        FractionalPair.create(9, 7, QuadraticIrrational(0, 1, 2, 6)),  # 0.2357
    ]
    for pair in instances:
        assert pair.p1 < pair.p0
        p0, p1, q = pair.p0, pair.p1, pair.q
        w = frac_certified(pair.theta1)
        assert compare(w, Fraction(p0 - 1, q)) > 0, "instance must be unclamped"
        closed = mul(Fraction(1, q),
                     sub(Fraction(p0 * p0 + p1 * p1 - (p0 - p1), 2 * q),
                         mul(p1, w)))
        _, _, d2 = formula_densities(pair)
        assert compare(d2, closed) == 0, (pair.p, pair.q, pair.p0, pair.p1)


def test_formula_densities_ci_clamped_instance():
    # p/q = 7/4, {theta1} = 0.414... < (p0 - 1)/q = 1/2: the residue
    # c = 3 interval is clipped at 1, so the top density is exactly 1/8
    # (the unclipped quadratic form would claim (2 - sqrt(2))/4; a scan
    # settles it: 400k points give 0.12501)
    pair = FractionalPair.create(7, 4, SQRT2_MINUS_1)
    assert (pair.p0, pair.p1) == (3, 1)
    _, _, d2 = formula_densities(pair)
    assert compare(d2, Fraction(1, 8)) == 0
    rep = empirical_densities(pair, 100_000)
    assert rep.contained
    assert rep.max_deviation < Fraction(1, 100)


def test_formula_densities_cii_bottom_value_vanishes_for_5_3():
    # for p/q = 5/3 the fractional sum can climb by at most 4/3 in one
    # step, so r(N) = 0 is impossible: the bottom density is exactly 0
    # and the top two are p0/q and 1 - p0/q
    dlow, d1, d0 = formula_densities(pair_cii())
    assert compare(dlow, Fraction(0)) == 0
    assert compare(d1, Fraction(1, 3)) == 0
    assert compare(d0, Fraction(2, 3)) == 0


def test_formula_densities_cii_positive_instance():
    # p/q = 7/5 with {theta1} in (3/5, 4/5): the bottom value 0 occurs
    # with density exactly 2/25, independent of theta1 inside the cell
    theta1 = QuadraticIrrational(4, 5, 2, 15)  # 4/15 + sqrt(2)/3 = 0.7380...
    pair = FractionalPair.create(7, 5, theta1)
    assert (pair.p0, pair.p1) == (2, 3)
    assert classify(pair)[0] == "Cii"
    dlow, d1, d0 = formula_densities(pair)
    assert compare(dlow, Fraction(2, 25)) == 0
    rep = empirical_densities(pair, 200_000)
    assert rep.contained
    assert rep.max_deviation < Fraction(1, 100)
    assert rep.counts.get(0, 0) > 0  # the bottom value really occurs


def test_formula_densities_case_mismatch():
    with pytest.raises(CaseMismatch):
        formula_densities(FractionalPair.create(3, 2, INV_SQRT2))


def test_empirical_densities_converge():
    n_max = 200_000
    for pair in (pair_ci(), pair_cii()):
        rep = empirical_densities(pair, n_max)
        assert rep.contained
        assert rep.max_deviation < Fraction(1, 100)


def test_empirical_densities_case_b_frequencies():
    pair = FractionalPair.create(3, 2, INV_SQRT2)
    rep = empirical_densities(pair, 10_000)
    assert set(rep.counts) <= {1, 2}
    assert sum(rep.frequencies.values()) == 1


def test_case_a_constant_count_large_window():
    # q = 1: the count is the constant p at every single N
    pair = FractionalPair.create(2, 1, INV_SQRT2)
    rep = empirical_densities(pair, 100_000)
    assert rep.counts == {2: 100_000}


def test_value_containment_moderate_window():
    for pair in (pair_ci(), pair_cii()):
        _, values = classify(pair)
        rep = empirical_densities(pair, 50_000)
        assert rep.contained
        assert set(rep.counts) <= set(values)


# ---------------------------------------------------------------------------
# profile assembly
# ---------------------------------------------------------------------------

def test_profile_json_shape():
    prof = build_profile(pair_ci(), r_check_max=50, empirical_max=5000)
    obj = prof.to_json()
    assert obj["case"] == "Ci"
    assert obj["value_set"] == [1, 2, 3]
    assert obj["R_check"]["mismatches"] == 0
    assert set(obj["formula_densities"]) == {"d0", "d1", "d2"}
    assert obj["empirical"]["outside_values"] == []


def test_r_formula_check_accepts_anchored_theta1():
    # theta1 known only through 80 decimals: no exact reciprocal modulus,
    # so the partial sums must come from the dual parameters directly
    anchored = FractionalPair.create(5, 3, anchored_sqrt2_minus_1(80))
    report = R_formula_check(anchored, 40)
    assert report.ok
    assert report == R_formula_check(pair_ci(), 40)
    assert empirical_densities(anchored, 300).counts == \
        empirical_densities(pair_ci(), 300).counts
