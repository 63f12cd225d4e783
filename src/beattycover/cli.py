"""Batch command line interface.

Every operation of the library is reachable as a subcommand working on
JSON inputs; results go to stdout (or --out) as JSON with sorted keys,
so identical inputs produce byte-identical output at any parallelism.

Exit codes: 0 verified or certified true, 1 counterexample or negative
verdict (witness on stdout), 2 inconclusive, 3 input error (usage errors
included), 4 precision exhausted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import apsystems, beatty, certify, exactnum, fractional
from .exactnum import PrecisionExhausted, decimal_str, real_from_json

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_PRECISION = 4


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 3 with a JSON error on stderr,
    not argparse's exit 2, which means "inconclusive" here."""

    def error(self, message):
        print(json.dumps({"error": f"{self.prog}: {message}"}), file=sys.stderr)
        sys.exit(EXIT_INPUT)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError(
            f"{path}: malformed JSON at line {e.lineno} column {e.colno}: {e.msg}"
        ) from e


def _load_family(path: str) -> beatty.CoverFamily:
    try:
        return beatty.CoverFamily.from_json(_load_json(path))
    except ValueError as e:
        raise InputError(f"{path}: {e}") from e


def _load_system(path: str) -> apsystems.ParameterSystem:
    try:
        return apsystems.ParameterSystem.from_json(_load_json(path))
    except ValueError as e:
        raise InputError(f"{path}: {e}") from e


def _load_terms(path: str) -> list[apsystems.APTerm]:
    obj = _load_json(path)
    if not isinstance(obj, dict) or set(obj) != {"terms"}:
        raise InputError(f"{path}: progression lists carry exactly 'terms'")
    try:
        return [apsystems.APTerm(t["a"], t["offset"]) for t in obj["terms"]]
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"{path}: bad progression entry: {e}") from e


def _load_real(path: str):
    try:
        return real_from_json(_load_json(path))
    except ValueError as e:
        raise InputError(f"{path}: {e}") from e


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"bad rational {text!r}: {e}") from e


# ---------------------------------------------------------------------------
# subcommand handlers: return (exit_code, payload, csv_rows | None)
# ---------------------------------------------------------------------------


def _witness_json(w) -> dict:
    return {k: int(v) for k, v in w._asdict().items()}


def cmd_verify(args):
    if args.jobs < 1:
        raise InputError("jobs must be at least 1")
    family = _load_family(args.family)
    lo, hi = args.window
    profile = beatty.verify_window(family, lo, hi, jobs=args.jobs,
                                   keep_epsilon=args.format == "csv",
                                   max_bits=args.precision)
    payload = profile.to_json()
    rows = None
    if args.format == "csv":
        rows = [("N", "r", "epsilon")]
        rows += [(n, r, decimal_str(e, 50)) for n, r, e in
                 zip(range(lo, hi + 1), profile.counts, profile.epsilons)]
    code = EXIT_OK if not profile.violations else EXIT_COUNTEREXAMPLE
    return code, payload, rows


_VERDICT_EXIT = {certify.CERTIFIED_EEC: EXIT_OK,
                 certify.CERTIFIED_NOT_EEC: EXIT_COUNTEREXAMPLE,
                 certify.INCONCLUSIVE: EXIT_INCONCLUSIVE}


def cmd_certify_homogeneous(args):
    family = _load_family(args.family)
    cert = certify.certify_homogeneous(family)
    return _VERDICT_EXIT[cert.verdict], cert.to_json(), None


def cmd_certify_pair(args):
    family = _load_family(args.family)
    if family.k != 2:
        raise InputError("certify-pair expects a family of exactly 2 sequences")
    cert = certify.certify_pair_inhomogeneous(family.sequences[0],
                                              family.sequences[1], family.m)
    return _VERDICT_EXIT[cert.verdict], cert.to_json(), None


def cmd_ap_equal(args):
    lhs = _load_terms(args.lhs)
    rhs = _load_terms(args.rhs)
    equal, witness = apsystems.multiset_equal(lhs, rhs)
    payload = {"equal": equal}
    if witness is not None:
        payload["witness"] = _witness_json(witness)
    return (EXIT_OK if equal else EXIT_COUNTEREXAMPLE), payload, None


def cmd_complementary(args):
    s1 = _load_system(args.system)
    s2 = _load_system(args.system2)
    ok, witness = apsystems.complementary(s1, s2)
    payload = {"complementary": ok,
               "period": apsystems.joint_period(s1, s2)}
    if witness is not None:
        payload["witness"] = _witness_json(witness)
    return (EXIT_OK if ok else EXIT_COUNTEREXAMPLE), payload, None


def cmd_exactness(args):
    s = _load_system(args.system)
    ok, witness = apsystems.is_exact_system(s)
    payload = {"exact": ok}
    if witness is not None:
        payload["witness"] = _witness_json(witness)
    return (EXIT_OK if ok else EXIT_COUNTEREXAMPLE), payload, None


def cmd_decompose(args):
    s1 = _load_system(args.system)
    s2 = _load_system(args.system2)
    try:
        res = apsystems.decompose_search(s1, s2, args.mode, budget=args.budget)
    except ValueError as e:
        raise InputError(str(e)) from e
    payload = {"mode": res.mode, "verdict": res.verdict}
    if res.parts is not None:
        payload["parts"] = [{"lhs": list(J), "rhs": list(K)} for J, K in res.parts]
    return (EXIT_OK if res.found else EXIT_COUNTEREXAMPLE), payload, None


def cmd_derive_systems(args):
    family = _load_family(args.family)
    duals = beatty.dualize(family)
    gammas = []
    for i, d in enumerate(duals, start=1):
        g = exactnum.collapse(d.gamma) if not isinstance(d.gamma, Fraction) else d.gamma
        if not isinstance(g, Fraction):
            raise InputError(f"sequence {i}: dual offset is irrational; "
                             "system derivation needs rational offsets")
        gammas.append(g)
    try:
        expansion = apsystems.expand_over_basis([d.theta for d in duals],
                                                m=family.m)
        derivation = apsystems.derive_systems(expansion, gammas)
    except (apsystems.BasisMismatch, apsystems.DensityViolation,
            apsystems.NoIrrationalDependence) as e:
        raise InputError(str(e)) from e
    payload = {
        "L0": derivation.L0, "L": derivation.L, "H": derivation.H,
        "U": list(derivation.U), "V": list(derivation.V), "G": list(derivation.G),
        "positive_indices": list(derivation.positive_indices),
        "negative_indices": list(derivation.negative_indices),
        "common_factor": derivation.common_factor,
        "system": derivation.system.to_json(),
        "complement": derivation.complement.to_json(),
        "complementary_check": derivation.complementary_check,
    }
    if derivation.complementary_witness is not None:
        payload["witness"] = _witness_json(derivation.complementary_witness)
    if derivation.complementary_check is False:
        return EXIT_COUNTEREXAMPLE, payload, None
    return EXIT_OK, payload, None


def cmd_build_graham(args):
    try:
        spec = certify.GrahamSpec.from_json(_load_json(args.spec))
    except ValueError as e:
        raise InputError(f"{args.spec}: {e}") from e
    try:
        family = certify.build_graham(spec)
    except certify.BuildSpecViolation as e:
        raise InputError(str(e)) from e
    return EXIT_OK, family.to_json(), None


def cmd_build_example48(args):
    theta = _load_real(args.theta)
    try:
        family = certify.build_example_48(theta)
    except certify.RangeViolation as e:
        raise InputError(str(e)) from e
    # family JSON only, so the output feeds straight back into verify;
    # the construction is the block-form escape by design (see README)
    return EXIT_OK, family.to_json(), None


def _pair_from_args(args) -> fractional.FractionalPair:
    theta1 = _load_real(args.theta1)
    try:
        return fractional.FractionalPair.create(args.p, args.q, theta1)
    except ValueError as e:
        raise InputError(str(e)) from e


def cmd_fractional_classify(args):
    pair = _pair_from_args(args)
    prof = fractional.build_profile(pair)
    return EXIT_OK, prof.to_json(), None


def cmd_fractional_densities(args):
    pair = _pair_from_args(args)
    prof = fractional.build_profile(pair, empirical_max=args.max_n)
    payload = prof.to_json()
    rows = None
    if args.format == "csv":
        rows = [("value", "count", "frequency")]
        for v, c in prof.empirical.counts.items():
            rows.append((v, c, decimal_str(Fraction(c, args.max_n), 50)))
    code = EXIT_OK
    if prof.empirical.outside_values:
        code = EXIT_COUNTEREXAMPLE
    dev = prof.empirical.max_deviation
    if dev is not None:
        payload["tolerance"] = str(args.tolerance)
        if dev > args.tolerance:
            code = EXIT_COUNTEREXAMPLE
    return code, payload, rows


def cmd_fractional_check_R(args):
    pair = _pair_from_args(args)
    report = fractional.R_formula_check(pair, args.max_n)
    payload = {"max_N": report.n_max, "branch": report.branch,
               "mismatches": [list(m) for m in report.mismatches]}
    return (EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE), payload, None


def cmd_discrepancy(args):
    theta = _load_real(args.theta)
    value = beatty.discrepancy_diagnostic(theta, args.max_n)
    payload = {"N": args.max_n, "star_discrepancy": decimal_str(value, 50)}
    rows = [("N", "star_discrepancy"), (args.max_n, decimal_str(value, 50))] \
        if args.format == "csv" else None
    return EXIT_OK, payload, rows


def cmd_f_identity(args):
    if args.samples:
        samples = [real_from_json(s) for s in _load_json(args.samples)]
    else:
        theta = _load_real(args.theta)
        samples = [exactnum.frac_certified(exactnum.mul(n, theta))
                   for n in range(1, args.count + 1)]
    expected = _fraction_arg(args.expected)
    try:
        report = certify.f_identity_check(samples, expected)
    except certify.DegeneratePoint as e:
        raise InputError(str(e)) from e
    payload = {
        "samples": report.samples,
        "expected": str(report.expected),
        "max_abs_deviation": decimal_str(report.max_abs_deviation, 50),
        "constant_value": (decimal_str(report.constant_value, 50)
                           if report.constant_value is not None else None),
    }
    return (EXIT_OK if report.all_match else EXIT_COUNTEREXAMPLE), payload, None


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="beattycover",
        description="exact verification, certification and decomposition of "
                    "eventual exact m-covers by Beatty sequences")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int,
                        default=int(os.environ.get("BEATTY_PRECISION_BITS",
                                                   exactnum.DEFAULT_MAX_BITS)),
                        help="interval refinement budget in bits (default 4096)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", help="write output to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("verify", help="scan r(N) over a window")
    p.add_argument("--family", required=True)
    p.add_argument("--window", nargs=2, type=int, required=True,
                   metavar=("LO", "HI"))
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the window scan")
    p.set_defaults(handler=cmd_verify)

    p = add_parser("certify-homogeneous",
                       help="pairing certificate for a homogeneous family")
    p.add_argument("--family", required=True)
    p.set_defaults(handler=cmd_certify_homogeneous)

    p = add_parser("certify-pair",
                       help="offset-sum certificate for a two-sequence family")
    p.add_argument("--family", "--pair", dest="family", required=True)
    p.set_defaults(handler=cmd_certify_pair)

    p = add_parser("ap-equal", help="multiset equality of progression lists")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(handler=cmd_ap_equal)

    p = add_parser("complementary",
                       help="multiset equality of two systems for every shift t")
    p.add_argument("--system", required=True)
    p.add_argument("--system2", required=True)
    p.set_defaults(handler=cmd_complementary)

    p = add_parser("exactness", help="is the system's union an exact cover "
                                         "of its support for every t")
    p.add_argument("--system", required=True)
    p.set_defaults(handler=cmd_exactness)

    p = add_parser("decompose", help="search decompositions of a "
                                         "complementary pair")
    p.add_argument("--system", required=True)
    p.add_argument("--system2", required=True)
    p.add_argument("--mode", choices=("reducible", "exact", "complete"),
                   default="reducible")
    p.add_argument("--budget", type=int, default=16)
    p.set_defaults(handler=cmd_decompose)

    p = add_parser("derive-systems",
                       help="derive the progression pair of a family over "
                            "one basis irrational")
    p.add_argument("--family", required=True)
    p.set_defaults(handler=cmd_derive_systems)

    p = add_parser("build-graham", help="assemble a family from Beatty "
                                            "pairs and exact covers")
    p.add_argument("--spec", required=True)
    p.set_defaults(handler=cmd_build_graham)

    p = add_parser("build-example48",
                       help="the six-sequence multiplicity-2 family driven by "
                            "one irrational in (-1/6, 0)")
    p.add_argument("--theta", required=True)
    p.set_defaults(handler=cmd_build_example48)

    p = add_parser("fractional-classify",
                       help="case label and value set of a p/q pair")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--theta1", required=True)
    p.set_defaults(handler=cmd_fractional_classify)

    p = add_parser("fractional-densities",
                       help="exact and empirical value densities of a p/q pair")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--theta1", required=True)
    p.add_argument("--max-N", dest="max_n", type=int, default=10 ** 6)
    p.add_argument("--tolerance", type=_fraction_arg, default=Fraction(5, 1000))
    p.set_defaults(handler=cmd_fractional_densities)

    p = add_parser("fractional-check-R",
                       help="closed form for partial sums vs brute force")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--theta1", required=True)
    p.add_argument("--max-N", dest="max_n", type=int, default=1000)
    p.set_defaults(handler=cmd_fractional_check_R)

    p = add_parser("discrepancy",
                       help="star discrepancy of the orbit {n*theta}")
    p.add_argument("--theta", required=True)
    p.add_argument("--max-N", dest="max_n", type=int, required=True)
    p.set_defaults(handler=cmd_discrepancy)

    p = add_parser("f-identity",
                       help="exact check of the six-term fractional sum")
    p.add_argument("--samples", help="JSON file: list of certified reals")
    p.add_argument("--theta", help="sample at {n*theta}, n = 1..count")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--expected", default="3",
                   help="expected constant (default 3, the exact value)")
    p.set_defaults(handler=cmd_f_identity)

    return parser


def _emit(payload, rows, args) -> str:
    if args.format == "csv" and rows is not None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(rows)
        return buf.getvalue()
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.precision < 64:
        print(json.dumps({"error": "precision must be at least 64 bits"}),
              file=sys.stderr)
        return EXIT_INPUT
    exactnum.DEFAULT_MAX_BITS = args.precision
    if args.command == "f-identity" and not (bool(args.samples) ^ bool(args.theta)):
        print(json.dumps({"error": "f-identity needs exactly one of "
                                   "--samples or --theta"}), file=sys.stderr)
        return EXIT_INPUT
    try:
        code, payload, rows = args.handler(args)
    except InputError as e:
        print(json.dumps({"error": str(e)}, sort_keys=True), file=sys.stderr)
        return EXIT_INPUT
    except PrecisionExhausted as e:
        print(json.dumps({"error": f"precision exhausted: {e}"}, sort_keys=True),
              file=sys.stderr)
        return EXIT_PRECISION
    except (certify.NotHomogeneousFamily, certify.NotIrrational,
            apsystems.DensityViolation, apsystems.NotHomogeneous,
            apsystems.SearchBudgetExceeded, ArithmeticError, ValueError) as e:
        print(json.dumps({"error": str(e)}, sort_keys=True), file=sys.stderr)
        return EXIT_INPUT
    text = _emit(payload, rows, args)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
