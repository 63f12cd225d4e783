"""Self-tests of the benchmark's generator and oracle (no timings)."""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import inputs
import oracle
from oracle import Family, Surd

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
sys.path.insert(0, str(ROOT / "src"))

SEEDED = ("homog_m1_small", "homog_m2_w20", "homog_m3_w40", "offset_m1",
          "offset_m2_w20", "offset_m1_defect", "k6_seeded", "generic_two_basis",
          "mixed_field")


def shipped(name: str) -> Family:
    return Family.from_json(json.loads((DATA / f"{name}.json").read_text()))


def test_same_seed_same_inputs():
    a = json.dumps(inputs.generate(7, DATA), sort_keys=True)
    assert a == json.dumps(inputs.generate(7, DATA), sort_keys=True)
    assert a != json.dumps(inputs.generate(8, DATA), sort_keys=True)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_families_meet_the_complementarity_conditions(seed):
    bundle = inputs.generate(seed, DATA)
    for name in SEEDED:
        fam = Family.from_json(bundle[name]["json"])
        assert fam.reciprocal_sum == Surd.rational(fam.m), name
        if name.startswith("offset"):
            gamma_sum = sum((-(b / a) for a, b in fam.seqs), Surd.rational(0))
            integral = gamma_sum.is_rational and \
                gamma_sum.terms.get(1, Fraction(0)).denominator == 1
            assert integral == (name != "offset_m1_defect"), name


@pytest.mark.parametrize("name, lo, hi, clean", [
    ("golden_pair", 1, 2000, True),
    ("sqrt2_pair_m2", 1, 2000, True),
    ("offset_pair_integral", 1, 2000, True),
    ("six_sequence_family", 1, 1000, True),
    ("offset_pair_defect", 1, 500, False),
])
def test_oracle_agrees_with_shipped_verdicts(name, lo, hi, clean):
    truth = oracle.window_truth(shipped(name), lo, hi)
    assert (truth.violations == []) == clean
    if clean:
        assert truth.histogram == {str(truth.m): hi - lo + 1}


def test_oracle_floors_over_two_bases():
    s2, s3 = Surd.quadratic(0, 1, 2, 1), Surd.quadratic(0, 1, 3, 1)
    assert oracle.floor(s2 + s3) == 3
    assert oracle.floor(s2 - s3 + 1) == 0
    assert oracle.floor(-s2) == -2
    assert oracle.floor(s2 * s3 * 100) == 244  # 100*sqrt(6) = 244.94...
    assert oracle.decimal50(Surd.rational(Fraction(1, 3))) == "0." + "3" * 50


def test_checker_flags_a_corrupted_histogram():
    fam = shipped("golden_pair")
    truth = oracle.window_truth(fam, 1, 300)
    payload = {"window": [1, 300], "m": 1, "violations": [],
               "identity_failures": [], "r_histogram": {"1": 300}}
    assert oracle.check_verify_json(truth, True, 0, json.dumps(payload)) == []
    payload["r_histogram"] = {"0": 1, "1": 298, "2": 1}
    assert oracle.check_verify_json(truth, True, 0, json.dumps(payload))
    assert oracle.check_verify_json(truth, True, 1, json.dumps(payload))


def test_checker_flags_a_corrupted_csv_epsilon():
    fam = shipped("offset_pair_defect")  # epsilon varies with N here
    truth = oracle.window_truth(fam, 1, 20)
    rows = ["N,r,epsilon"] + [f"{n},{truth.counts[n - 1]},"
                              f"{oracle.epsilon_str(fam, n)}" for n in range(1, 21)]
    text = "\n".join(rows) + "\n"
    assert oracle.check_verify_csv(fam, truth, 1, text, [3, 17]) == []
    good = oracle.epsilon_str(fam, 17)
    bad = text.replace(good, good[:-1] + str((int(good[-1]) + 1) % 10))
    assert oracle.check_verify_csv(fam, truth, 1, bad, [3, 17])


def test_oracle_matches_the_program_on_small_windows():
    from beattycover import beatty
    bundle = inputs.generate(5, DATA)
    for name in SEEDED[:-1]:
        obj = bundle[name]["json"]
        lo, hi = (3, 60) if name == "generic_two_basis" else (1, 400)
        truth = oracle.window_truth(Family.from_json(obj), lo, hi)
        prof = beatty.verify_window(beatty.CoverFamily.from_json(obj), lo, hi,
                                    keep_epsilon=False).to_json()
        assert prof["r_histogram"] == truth.histogram, name
        assert prof["violations"] == truth.violations, name
    from beattycover.exactnum import decimal_str
    k6 = bundle["k6_seeded"]["json"]
    fam = beatty.CoverFamily.from_json(k6)
    for n in range(1, 11):
        assert decimal_str(beatty.epsilon(fam, n), 50) == \
            oracle.epsilon_str(Family.from_json(k6), n)
