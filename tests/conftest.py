import math
from fractions import Fraction

import pytest

from beattycover.exactnum import (
    Basis,
    DecimalAnchor,
    LinearExpr,
    QuadraticIrrational,
    sqrt,
)

# golden ratio and friends, used all over the suite
PHI = QuadraticIrrational(1, 1, 5, 2)          # (1 + sqrt(5)) / 2
PHI_SQ = QuadraticIrrational(3, 1, 5, 2)       # phi^2 = (3 + sqrt(5)) / 2
SQRT2 = sqrt(2)
SQRT3 = sqrt(3)
SQRT2_MINUS_1 = QuadraticIrrational(-1, 1, 2, 1)
INV_SQRT2 = QuadraticIrrational(0, 1, 2, 2)    # 1/sqrt(2) = sqrt(2)/2


def anchored_sqrt2_minus_1(digits: int = 80) -> LinearExpr:
    """sqrt(2) - 1 known only through its first ``digits`` decimals, over a
    basis declared independent (so the value is certifiably irrational)."""
    scaled = math.isqrt(2 * 10 ** (2 * digits)) - 10 ** digits
    anchor = DecimalAnchor(f"0.{scaled:0{digits}d}")
    return LinearExpr(Fraction(0), (("t", Fraction(1)),),
                      Basis.make({"t": anchor}, independent=True))


@pytest.fixture
def phi():
    return PHI


@pytest.fixture
def phi_sq():
    return PHI_SQ
