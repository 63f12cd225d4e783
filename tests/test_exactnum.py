"""Exact arithmetic core: floors, fractional parts, comparisons,
integrality, canonicalisation and the JSON wire format."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beattycover.exactnum import (
    AmbiguousBasis,
    Basis,
    DecimalAnchor,
    LinearExpr,
    PrecisionExhausted,
    QuadraticIrrational,
    add,
    as_real,
    ceil_certified,
    certified_irrational,
    compare,
    decimal_str,
    div,
    floor_certified,
    frac_certified,
    is_integer,
    mul,
    neg,
    real_from_json,
    real_to_json,
    sign,
    sqrt,
    sub,
)
from conftest import INV_SQRT2, PHI, PHI_SQ, SQRT2, SQRT2_MINUS_1, SQRT3


# ---------------------------------------------------------------------------
# construction / canonical form
# ---------------------------------------------------------------------------

def test_canonicalisation_extracts_square_factors():
    q = QuadraticIrrational(0, 1, 8, 2)   # sqrt(8)/2 = sqrt(2)
    assert (q.a, q.b, q.d, q.r) == (0, 1, 2, 1)


def test_canonicalisation_normalises_sign_and_gcd():
    q = QuadraticIrrational(-4, 2, 3, -6)
    assert q.r > 0
    assert math.gcd(math.gcd(abs(q.a), abs(q.b)), q.r) == 1
    assert (q.a, q.b, q.d, q.r) == (2, -1, 3, 3)


def test_perfect_square_radicand_rejected():
    with pytest.raises(ValueError):
        QuadraticIrrational(1, 1, 9, 2)
    with pytest.raises(ValueError):
        sqrt(16)


def test_zero_b_rejected():
    with pytest.raises(ValueError):
        QuadraticIrrational(3, 0, 2, 1)


@given(st.integers(-50, 50), st.integers(-50, 50).filter(lambda b: b != 0),
       st.integers(2, 60), st.integers(-20, 20).filter(lambda r: r != 0))
def test_canonicalisation_idempotent(a, b, d, r):
    try:
        q1 = QuadraticIrrational(a, b, d, r)
    except ValueError:
        return  # perfect square d
    q2 = QuadraticIrrational(q1.a, q1.b, q1.d, q1.r)
    assert (q1.a, q1.b, q1.d, q1.r) == (q2.a, q2.b, q2.d, q2.r)


# ---------------------------------------------------------------------------
# floors and fractional parts
# ---------------------------------------------------------------------------

def test_floor_examples():
    assert floor_certified(QuadraticIrrational(0, 10, 2, 1)) == 14   # 10*sqrt(2)
    assert floor_certified(mul(5, PHI)) == 8                         # 5*phi = 8.09...
    assert floor_certified(Fraction(7, 2)) == 3
    assert floor_certified(Fraction(-7, 2)) == -4
    assert floor_certified(neg(QuadraticIrrational(0, 10, 2, 1))) == -15


def test_frac_examples():
    # {phi} = phi - 1 = 1/phi
    f = frac_certified(PHI)
    assert compare(f, QuadraticIrrational(-1, 1, 5, 2)) == 0
    assert frac_certified(Fraction(7, 2)) == Fraction(1, 2)
    # anchored value already in [0, 1) passes through unchanged
    anchor = DecimalAnchor("0.41421356237309504880")
    basis = Basis.make({"theta1": anchor})
    x = LinearExpr(Fraction(0), (("theta1", Fraction(1)),), basis)
    f = frac_certified(x)
    assert isinstance(f, LinearExpr)
    assert f.constant == 0 and f.terms == x.terms


def test_floor_plus_frac_identity_quadratic():
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randint(-40, 40)
        b = rng.choice([v for v in range(-12, 13) if v])
        d = rng.choice([2, 3, 5, 6, 7, 10, 11, 13])
        r = rng.choice([v for v in range(-8, 9) if v])
        x = QuadraticIrrational(a, b, d, r)
        f = floor_certified(x)
        rem = frac_certified(x)
        assert compare(add(f, rem), x) == 0
        assert sign(rem) >= 0
        assert compare(rem, 1) < 0


def test_floor_matches_high_precision_oracle():
    # 10^4 random quadratic irrationals, skipping any whose distance to
    # the nearest integer is below 2^-200; compare against a 300-bit
    # mpmath floor.
    rng = random.Random(20260808)
    tiny = Fraction(1, 2 ** 200)
    checked = 0
    with mpmath.workprec(300):
        while checked < 10_000:
            a = rng.randint(-10 ** 6, 10 ** 6)
            b = rng.choice([v for v in range(-1000, 1001) if v])
            d = rng.choice([2, 3, 5, 6, 7, 10, 13, 21, 29, 173])
            r = rng.randint(1, 1000)
            x = QuadraticIrrational(a, b, d, r)
            f = floor_certified(x)
            near = min((sub(x, f), sub(add(f, 1), x)), key=lambda z: float(z))
            if compare(near, tiny) <= 0:
                continue
            oracle = int(mpmath.floor((a + b * mpmath.sqrt(d)) / r))
            assert f == oracle, (a, b, d, r)
            checked += 1


def test_floor_linear_expr_interval_refinement():
    # sqrt(2) + sqrt(3) = 3.146..., kept symbolic across two fields
    x = add(SQRT2, SQRT3)
    assert isinstance(x, LinearExpr)
    assert floor_certified(x) == 3
    assert ceil_certified(x) == 4


def test_floor_linear_expr_collapse_path():
    # 2*phi - sqrt(5) = 1 exactly; interval refinement alone could never
    # pin the floor of a value sitting on an integer
    x = sub(mul(2, PHI), sqrt(5))
    assert floor_certified(x) == 1
    assert frac_certified(x) == 0


def test_precision_exhausted_on_anchor_straddling_integer():
    basis = Basis.make({"t": DecimalAnchor("1.0000000000")})
    x = LinearExpr(Fraction(0), (("t", Fraction(1)),), basis)
    with pytest.raises(PrecisionExhausted):
        floor_certified(x)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def test_compare_examples():
    assert compare(SQRT2, Fraction(3, 2)) < 0
    assert compare(div(1, PHI), sub(PHI, 1)) == 0
    # {10*(sqrt(2)-1)} vs 2/3: sqrt(2) = 1.41421356237309504880...
    # so 10*(sqrt(2)-1) = 4.1421..., fractional part 0.1421... < 2/3
    x = frac_certified(mul(10, SQRT2_MINUS_1))
    assert compare(x, Fraction(2, 3)) < 0


def test_compare_across_fields():
    assert compare(SQRT2, SQRT3) < 0
    # sqrt(2) + sqrt(3) = 3.14626... sits just above 22/7 = 3.14285...
    assert compare(add(SQRT2, SQRT3), Fraction(22, 7)) > 0
    assert compare(add(SQRT2, SQRT3), Fraction(63, 20)) < 0


def test_compare_total_order_consistent_with_float():
    rng = random.Random(11)
    vals = []
    for _ in range(40):
        a = rng.randint(-30, 30)
        b = rng.choice([v for v in range(-9, 10) if v])
        d = rng.choice([2, 3, 5, 7])
        r = rng.randint(1, 9)
        vals.append(QuadraticIrrational(a, b, d, r))
        vals.append(Fraction(rng.randint(-200, 200), rng.randint(1, 40)))
    for x in vals:
        for y in vals:
            c = compare(x, y)
            assert c == -compare(y, x)
            if c != 0:
                assert (float(x) < float(y)) == (c < 0) or abs(float(x) - float(y)) < 1e-9
    # transitivity on a sorted chain
    svals = sorted(vals, key=lambda v: (float(v),))
    for u, v in zip(svals, svals[1:]):
        assert compare(u, v) <= 0


def test_compare_ties_at_exhausted_precision_raise():
    a1 = DecimalAnchor("0.5000000000")
    a2 = DecimalAnchor("0.5000000001")
    x = LinearExpr(Fraction(0), (("s", Fraction(1)),), Basis.make({"s": a1}))
    y = LinearExpr(Fraction(0), (("t", Fraction(1)),), Basis.make({"t": a2}))
    with pytest.raises(PrecisionExhausted):
        compare(x, y)


# ---------------------------------------------------------------------------
# integrality
# ---------------------------------------------------------------------------

def test_is_integer_beatty_pair_identity():
    total = add(div(1, PHI), div(1, PHI_SQ))
    assert total == Fraction(1)
    assert is_integer(total) == (True, True)


def test_is_integer_simple_cases():
    assert is_integer(SQRT2) == (False, True)
    assert is_integer(Fraction(6, 3)) == (True, True)
    assert is_integer(Fraction(2, 3)) == (False, True)


def test_is_integer_linear_terms_cancel():
    basis = Basis.make({"theta1": SQRT2_MINUS_1})
    x = LinearExpr(Fraction(2), (("theta1", Fraction(1)),), basis)
    y = LinearExpr(Fraction(0), (("theta1", Fraction(-1)),), basis)
    assert is_integer(add(x, y)) == (True, True)


def test_is_integer_independent_basis_refutes():
    x = add(div(SQRT2, 2), div(SQRT3, 3))
    assert isinstance(x, LinearExpr)
    assert x.basis.independent is True
    assert is_integer(x) == (False, True)


def test_is_integer_ambiguous_anchor_raises():
    basis = Basis.make({"t": DecimalAnchor("0.3333333333")})
    x = LinearExpr(Fraction(0), (("t", Fraction(3)),), basis)
    with pytest.raises(AmbiguousBasis):
        is_integer(x)


def test_declared_independence_enables_refutation():
    basis = Basis.make({"t": DecimalAnchor("0.3333333333")}, independent=True)
    x = LinearExpr(Fraction(1), (("t", Fraction(3)),), basis)
    assert is_integer(x) == (False, True)


def test_shared_radicand_cannot_be_declared_independent():
    with pytest.raises(ValueError):
        Basis.make({"u": SQRT2, "v": SQRT2_MINUS_1}, independent=True)


# ---------------------------------------------------------------------------
# arithmetic behaviour
# ---------------------------------------------------------------------------

def test_arithmetic_collapses_to_rational():
    assert mul(SQRT2, SQRT2) == Fraction(2)
    assert add(SQRT2, neg(SQRT2)) == Fraction(0)
    assert mul(PHI, PHI) == PHI_SQ  # phi^2 stays quadratic


def test_mixed_field_products():
    x = mul(SQRT2, SQRT3)
    assert compare(x, sqrt(6)) == 0


def test_products_of_square_root_combinations_expand():
    x = add(SQRT2, sqrt(5))  # over two radicands: stays a LinearExpr
    y = add(Fraction(1, 3), add(SQRT3, sqrt(5)))
    expected = add(Fraction(5), add(add(mul(Fraction(1, 3), SQRT2), sqrt(6)),
                                    add(add(sqrt(10), mul(Fraction(1, 3), sqrt(5))),
                                        sqrt(15))))
    assert compare(mul(x, y), expected) == 0
    # (sqrt2 + sqrt5) * phi = (5 + sqrt2 + sqrt5 + sqrt10) / 2
    expected = div(add(Fraction(5), add(add(SQRT2, sqrt(5)), sqrt(10))), 2)
    assert compare(mul(x, PHI), expected) == 0
    assert compare(mul(PHI, x), expected) == 0
    anchored = LinearExpr(Fraction(0), (("t", Fraction(1)),),
                          Basis.make({"t": DecimalAnchor("0.123456")}))
    with pytest.raises(ArithmeticError):
        mul(x, anchored)


def test_division():
    assert compare(div(1, SQRT2), INV_SQRT2) == 0
    assert div(Fraction(3, 2), Fraction(3, 4)) == Fraction(2)
    with pytest.raises(ZeroDivisionError):
        div(SQRT2, Fraction(0))


def test_operator_sugar():
    assert (SQRT2 * SQRT2) == Fraction(2)
    assert (PHI - 1) < PHI
    assert (1 + SQRT2) > SQRT2
    assert float(PHI / PHI_SQ) == pytest.approx(1 / 1.618033988749895)


@given(st.integers(-20, 20), st.integers(-20, 20),
       st.integers(-6, 6).filter(lambda v: v != 0),
       st.integers(-6, 6).filter(lambda v: v != 0))
@settings(max_examples=200)
def test_field_arithmetic_against_float(p, q, b1, b2):
    x = QuadraticIrrational(p, b1, 2, 3)
    y = QuadraticIrrational(q, b2, 2, 5)
    for op, fop in ((add, float.__add__), (sub, float.__sub__), (mul, float.__mul__)):
        z = op(x, y)
        assert float(z) == pytest.approx(fop(float(x), float(y)), abs=1e-9)


# ---------------------------------------------------------------------------
# decimal rendering
# ---------------------------------------------------------------------------

def test_decimal_str():
    assert decimal_str(Fraction(1, 2), 4) == "0.5000"
    assert decimal_str(neg(Fraction(1, 2)), 4) == "-0.5000"
    s = decimal_str(SQRT2, 20)
    assert s == "1.41421356237309504880"


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

def test_json_round_trip_rational():
    obj = real_to_json(Fraction(-3, 2))
    assert obj == {"kind": "rational", "num": "-3", "den": "2"}
    assert real_from_json(obj) == Fraction(-3, 2)


def test_json_round_trip_quadratic():
    obj = real_to_json(PHI)
    assert obj == {"kind": "quadratic", "a": "1", "b": "1", "d": "5", "r": "2"}
    assert real_from_json(obj) == PHI


def test_json_round_trip_linear_with_anchor():
    obj = {
        "kind": "linear",
        "constant": {"kind": "rational", "num": "0", "den": "1"},
        "terms": [{"basis": "theta1",
                   "coeff": {"kind": "rational", "num": "1", "den": "1"}}],
        "basis_defs": {"theta1": {"kind": "anchor",
                                  "decimal": "0.4142135623…"}},
    }
    x = real_from_json(obj)
    assert isinstance(x, LinearExpr)
    assert floor_certified(mul(10, x)) == 4
    back = real_to_json(x)
    assert back["basis_defs"]["theta1"]["kind"] == "anchor"


def test_json_unknown_fields_rejected():
    with pytest.raises(ValueError):
        real_from_json({"kind": "rational", "num": "1", "den": "2", "x": "3"})
    with pytest.raises(ValueError):
        real_from_json({"kind": "quadratic", "a": "1", "b": "1", "d": "5"})
    with pytest.raises(ValueError):
        real_from_json({"kind": "rational", "num": "1.5", "den": "2"})


def test_floats_rejected():
    with pytest.raises(TypeError):
        as_real(1.5)
    with pytest.raises(TypeError):
        add(SQRT2, 0.5)


def test_certified_irrational():
    assert certified_irrational(SQRT2) is True
    assert certified_irrational(Fraction(3)) is False
    assert certified_irrational(add(SQRT2, SQRT3)) is True
    anchored = LinearExpr(Fraction(0), (("t", Fraction(1)),),
                          Basis.make({"t": DecimalAnchor("0.123456")}))
    assert certified_irrational(anchored) is None
