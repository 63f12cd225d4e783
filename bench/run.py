#!/usr/bin/env python3
"""Benchmark of the beattycover command line program.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {scan-json,scan-table,paper-suite}
                         --seed N --seconds S --trace {0,1}

With ``--trace 0`` the real CLI (``python -m beattycover.cli``) runs as
child processes, one at a time from this one process (a closed loop with
a single client).  Each child's CPU time and peak RSS come from
``os.wait4``.  The workload's invocation list is one pass; passes repeat
until ``--seconds`` of passes have run (at least three) and the wall-clock
metrics are medians over passes.  Every output is checked by the
integer oracle in ``oracle.py`` outside the timed region.

With ``--trace 1`` nothing is spawned for the workload itself: ``replay.py``
replays the same pass in process with spans around the calls into each
module, and times the layer microbenchmarks.

The last line of stdout is the result object; the line before it is a
report with provenance, per-input records and sample counts.  See
``bench/NOTES.md`` for the metric definitions and what each workload is
for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import inputs
import oracle
from oracle import Family, Surd

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("scan-json", "scan-table", "paper-suite")
MIN_PASSES = 3
SETUP_PER_PASS = 3
CALL_TIMEOUT_S = 30
PASS_BUDGET_S = 100  # keeps a run far below 180 s even if the program slows
EPS_SAMPLE = 8

# (family, window size) per scan shape; k=6 scans cost about twice a
# pair per N.  scan-table windows are smaller because CSV rows dominate.
SCAN_SHAPES = (("golden_pair", 2), ("sqrt2_pair_m2", 2),
               ("six_sequence_family", 1), ("homog_m1_small", 2),
               ("homog_m2_w20", 2), ("homog_m3_w40", 2), ("offset_m1", 2),
               ("offset_m2_w20", 2), ("k6_seeded", 1), ("far", 2))
SCAN_UNIT = {"scan-json": 40_000, "scan-table": 16_000}
OFFSET_START = 1000  # past the prefix where n >= 1 clips offset pairs


@dataclass
class Call:
    label: str
    argv: list[str]
    check: Callable[[int, str], list[str]]
    window: Optional[tuple[int, int]] = None  # verify runs only
    family: Optional[str] = None  # bundle name of the verified family
    extra: tuple = ()  # verify flags after the window
    accept_inconclusive: bool = False


@dataclass
class Outcome:
    wall: float
    cpu: float
    rss_kb: int
    code: int
    stdout: str
    stderr: str = ""
    problems: list[str] = field(default_factory=list)
    wrong: bool = False  # a verdict was printed and the oracle refutes it


@dataclass
class Context:
    seed: int
    work: Path
    bundle: dict
    launcher: Launcher
    truths: dict = field(default_factory=dict)
    checked: dict = field(default_factory=dict)

    def path(self, name: str) -> str:
        return str(self.work / f"{name}.json")

    def family(self, name: str) -> Family:
        return Family.from_json(self.bundle[name]["json"])

    def truth(self, name: str, lo: int, hi: int) -> oracle.WindowTruth:
        key = (name, lo, hi)
        if key not in self.truths:
            self.truths[key] = oracle.window_truth(self.family(name), lo, hi)
        return self.truths[key]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("BEATTY_PRECISION_BITS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """Client of ``launch.py``, which spawns each CLI child so that the
    child's peak RSS is not inflated by this process's own peak."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launch.py")],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     env=child_env(), cwd=ROOT)

    def spawn(self, argv: list[str], out_path: Path):
        """Run one CLI invocation; (wall, cpu, peak rss KB, exit code, stderr)."""
        err_path = out_path.with_suffix(".err")
        req = {"argv": [sys.executable, "-m", "beattycover.cli", *argv],
               "stdout": str(out_path), "stderr": str(err_path),
               "timeout": CALL_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        rep = json.loads(line)
        return (rep["wall"], rep["cpu"], rep["rss_kb"],
                os.waitstatus_to_exitcode(rep["status"]),
                err_path.read_text(encoding="utf-8", errors="replace"))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def execute(ctx: Context, call: Call) -> Outcome:
    """Spawn one call; ``settle`` judges it later, outside the timing."""
    out_path = ctx.work / "out" / f"{call.label}.txt"
    wall, cpu, rss, code, stderr = ctx.launcher.spawn(call.argv, out_path)
    return Outcome(wall, cpu, rss, code, output(call, out_path.read_text(
        encoding="utf-8")), stderr)


def output(call: Call, stdout: str) -> str:
    """What a call printed, or wrote to its ``--out`` file if it has one."""
    if "--out" not in call.argv:
        return stdout
    path = Path(call.argv[call.argv.index("--out") + 1])
    return path.read_text(encoding="utf-8") if path.exists() else ""


def settle(ctx: Context, call: Call, oc: Outcome) -> Outcome:
    oc.problems, oc.wrong = judge(ctx, call, oc.code, oc.stdout, oc.stderr)
    return oc


def judge(ctx: Context, call: Call, code: int, stdout: str,
          stderr: str) -> tuple[list[str], bool]:
    """Problems with one outcome; identical outputs are judged once."""
    if code < 0:
        return [f"killed by signal {-code} (timeout {CALL_TIMEOUT_S} s)"], False
    if "Traceback (most recent call last)" in stderr:
        return ["traceback on stderr"], False
    if call.accept_inconclusive and code == 2:
        return [], False
    key = (call.label, code, hashlib.sha256(stdout.encode()).hexdigest())
    if key not in ctx.checked:
        try:
            problems = call.check(code, stdout)
        except (ValueError, KeyError, TypeError, IndexError) as e:
            problems = [f"unreadable output: {e!r}"]
        if problems and code not in (0, 1) and stderr.strip():
            problems.append(stderr.strip()[-300:])
        ctx.checked[key] = (problems, bool(problems) and code in (0, 1))
    return ctx.checked[key]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def verify_call(ctx: Context, label: str, name: str, lo: int, hi: int,
                extra=(), family_path: Optional[str] = None) -> Call:
    fam = ctx.family(name)
    csv_out = "csv" in extra
    argv = ["verify", "--family", family_path or ctx.path(name),
            "--window", str(lo), str(hi), *extra]
    rng = random.Random(f"{ctx.seed}:{label}")
    sample = sorted(rng.sample(range(lo, hi + 1), min(EPS_SAMPLE, hi - lo + 1)))

    def check(code, stdout):
        truth = ctx.truth(name, lo, hi)
        if csv_out:
            return oracle.check_verify_csv(fam, truth, code, stdout, sample)
        return oracle.check_verify_json(truth, oracle.identity_holds(fam, truth),
                                        code, stdout)

    return Call(label, argv, check, window=(lo, hi), family=name,
                extra=tuple(extra))


def scan_calls(ctx: Context, workload: str) -> list[Call]:
    extra = ("--format", "csv", "--jobs", "2") if workload == "scan-table" else ()
    unit = SCAN_UNIT[workload]
    far_lo = inputs.FAR_START + random.Random(ctx.seed).randrange(10 ** 9)
    calls = []
    for name, units in SCAN_SHAPES:
        size = unit * units
        if name == "far":
            calls.append(verify_call(ctx, "far", "homog_m1_small", far_lo,
                                     far_lo + size - 1, extra))
            continue
        lo = OFFSET_START if name.startswith("offset") else 1
        calls.append(verify_call(ctx, name, name, lo, lo + size - 1, extra))
    return calls


def exit_only(want: int):
    return lambda code, stdout: oracle.expect_code(code, want)


def built_family_check(m: int, seqs):
    want = Family(m, tuple(seqs))

    def check(code, stdout):
        if code != 0:
            return [f"exit {code}, expected 0"]
        got = Family.from_json(json.loads(stdout))
        return [] if got == want else ["built family differs from the "
                                       "generator's construction"]
    return check


def paper_calls(ctx: Context) -> list[Call]:
    p, t = ctx.path, ctx.bundle
    calls = [
        verify_call(ctx, "v_golden", "golden_pair", 1, 100_000),
        verify_call(ctx, "v_sqrt2", "sqrt2_pair_m2", 1, 2000),
        verify_call(ctx, "v_offset_integral", "offset_pair_integral", 1, 2000),
        verify_call(ctx, "v_offset_defect", "offset_pair_defect", 1, 2000),
        verify_call(ctx, "v_generic", "generic_two_basis", 3, 302),
    ]
    mixed = verify_call(ctx, "v_mixed_field", "mixed_field", 1, 300)
    mixed.accept_inconclusive = True  # ROADMAP 4 allows either fix
    calls.append(mixed)

    for name in ("sqrt2_pair_m2", "homog_m1_small", "homog_m2_w20", "homog_m3_w40"):
        m = t[name]["json"]["m"]

        def check(code, stdout, m=m):
            if code != 0:
                return [f"exit {code}, expected 0"]
            got = json.loads(stdout)
            if (got["verdict"], got["pairing"], got["pair_sums"]) != \
                    ("CERTIFIED_EEC", [[1, 2]], [m]):
                return [f"certificate {got}"]
            return []
        calls.append(Call(f"ch_{name}", ["certify-homogeneous", "--family",
                                         p(name)], check))

    for name in ("offset_pair_integral", "offset_pair_defect", "offset_m1",
                 "offset_m2_w20", "offset_m1_defect"):
        fam = ctx.family(name)
        gamma_sum = sum((-(b / a) for a, b in fam.seqs), Surd.rational(0))
        integral = gamma_sum.is_rational and \
            gamma_sum.terms.get(1, Fraction(0)).denominator == 1

        def check(code, stdout, gamma_sum=gamma_sum, integral=integral):
            want = 0 if integral else 1
            if code != want:
                return [f"exit {code}, expected {want}"]
            got = oracle.real_from_json(json.loads(stdout)["gamma_sum"])
            return [] if got == gamma_sum else [f"gamma_sum {got}"]
        calls.append(Call(f"cp_{name}", ["certify-pair", "--family", p(name)],
                          check))

    calls += [
        Call("ap_equal", ["ap-equal", "--lhs", p("ap_multiset_16"),
                          "--rhs", p("ap_multiset_2366")], exit_only(0)),
        Call("complementary", ["complementary", "--system", p("system_3x3"),
                               "--system2", p("system_2x4x4")], exit_only(0)),
        Call("exactness", ["exactness", "--system", p("system_16")],
             exit_only(1)),
        Call("decompose_3x3", ["decompose", "--system", p("system_3x3"),
                               "--system2", p("system_2x4x4"),
                               "--mode", "reducible"], exit_only(1)),
        Call("decompose_16", ["decompose", "--system", p("system_16"),
                              "--system2", p("system_2366"),
                              "--mode", "reducible"], exit_only(1)),
    ]

    for name in ("six_sequence_family", "k6_seeded"):
        def check(code, stdout):
            if code != 0:
                return [f"exit {code}, expected 0"]
            return [] if json.loads(stdout)["complementary_check"] is True \
                else ["complementary_check is not true"]
        calls.append(Call(f"derive_{name}", ["derive-systems", "--family",
                                             p(name)], check))

    for theta_name, out_name in (("theta_minus_sqrt2_over_10", "built48_shipped"),
                                 ("theta48", "built48")):
        out_file = ctx.work / f"{out_name}.json"
        theta = oracle.real_from_json(t[theta_name]["json"])
        ctx.bundle[out_name] = {"json": inputs.family_json(
            2, inputs.example48_family(theta)), "record": {}}
        calls.append(Call(f"build_{out_name}", [
            "build-example48", "--theta", p(theta_name), "--out", str(out_file)],
            built_family_check(2, inputs.example48_family(theta))))
    graham_file = ctx.work / "built_graham.json"
    m, seqs = inputs.graham_family(t["graham_two_cover_spec"]["json"])
    ctx.bundle["built_graham"] = {"json": inputs.family_json(m, seqs),
                                  "record": {}}
    calls.append(Call("build_graham", ["build-graham", "--spec",
                                       p("graham_two_cover_spec"), "--out",
                                       str(graham_file)],
                      built_family_check(m, seqs)))
    calls.append(verify_call(ctx, "v_built48", "built48", 1, 2000,
                             family_path=str(ctx.work / "built48.json")))
    calls.append(verify_call(ctx, "v_built_graham", "built_graham", 11, 2000,
                             family_path=str(graham_file)))

    rec = t["frac_theta1"]["record"]
    pairs = (("5", "3", "sqrt2_minus_1"), ("5", "3", "inv_sqrt2"),
             (str(rec["p"]), str(rec["q"]), "frac_theta1"))
    for pp, qq, theta_name in pairs:
        args = ["--p", pp, "--q", qq, "--theta1", p(theta_name)]
        theta1 = oracle.real_from_json(t[theta_name]["json"])
        tag = f"{pp}_{qq}_{theta_name}"
        calls.append(Call(f"fclass_{tag}", ["fractional-classify", *args],
                          classify_check(int(pp), int(qq), theta1)))
        calls.append(Call(f"fcheckR_{tag}", ["fractional-check-R", *args,
                                             "--max-N", "200"], check_r))
        if theta_name != "inv_sqrt2":
            calls.append(Call(f"fdens_{tag}", [
                "fractional-densities", *args, "--max-N", "20000",
                "--tolerance", "0.02"],
                densities_check(int(pp), int(qq), theta1, 20_000)))

    for theta_name, count in (("sqrt2_minus_1", "1000"), ("frac_theta1", "300")):
        theta = oracle.real_from_json(t[theta_name]["json"])
        calls.append(Call(f"discrepancy_{theta_name}", [
            "discrepancy", "--theta", p(theta_name), "--max-N", "2000"],
            discrepancy_check(theta, 2000)))
        calls.append(Call(f"fidentity_{theta_name}", [
            "f-identity", "--theta", p(theta_name), "--count", count,
            "--expected", "3"], f_identity_check))
    return calls


def classify_check(p: int, q: int, theta1: Surd):
    p0, p1 = p % q, oracle.floor(q * oracle.frac(theta1))
    base = p // q
    if q == 1:
        case, values = "A", [p]
    elif q == 2:
        case, values = "B", [base, base + 1]
    elif p1 < p0:
        case, values = "Ci", [base, base + 1, base + 2]
    else:
        case, values = "Cii", [base - 1, base, base + 1]

    def check(code, stdout):
        if code != 0:
            return [f"exit {code}, expected 0"]
        got = json.loads(stdout)
        want = {"p0": p0, "p1": p1, "case": case, "value_set": values}
        seen = {k: got.get(k) for k in want}
        return [] if seen == want else [f"classification {seen} != {want}"]
    return check


def check_r(code, stdout):
    if code != 0:
        return [f"exit {code}, expected 0"]
    return [] if json.loads(stdout)["mismatches"] == [] else ["R mismatches"]


def densities_check(p: int, q: int, theta1: Surd, n_max: int):
    fam = Family(1, ((theta1.inverse(), Surd.rational(0)),
                     ((Fraction(p, q) - theta1).inverse(), Surd.rational(0))))
    cache = {}

    def check(code, stdout):
        got = json.loads(stdout)
        if "hist" not in cache:
            cache["hist"] = oracle.window_truth(fam, 1, n_max).histogram
        hist = cache["hist"]
        emp = got["empirical"]
        values = got["value_set"]
        problems = []
        for v in values:
            want = oracle.decimal50(Surd.rational(Fraction(hist.get(str(v), 0),
                                                           n_max)))
            if emp["frequencies"].get(str(v)) != want:
                problems.append(f"frequency of {v}: {emp['frequencies'].get(str(v))}")
        outside = sorted(int(v) for v in hist if int(v) not in values)
        if emp["outside_values"] != outside:
            problems.append(f"outside_values {emp['outside_values']} != {outside}")
        dev = emp["max_deviation"]
        over = dev is not None and Fraction(dev) > Fraction(got["tolerance"])
        want_code = 1 if (outside or over) else 0
        if code != want_code:
            problems.append(f"exit {code}, expected {want_code}")
        return problems
    return check


def discrepancy_check(theta: Surd, n: int):
    def check(code, stdout):
        if code != 0:
            return [f"exit {code}, expected 0"]
        got = json.loads(stdout)
        want = oracle.star_discrepancy(theta, n)
        return [] if (got["N"], got["star_discrepancy"]) == (n, want) else \
            [f"star discrepancy {got['star_discrepancy']} != {want}"]
    return check


def f_identity_check(code, stdout):
    if code != 0:
        return [f"exit {code}, expected 0"]
    got = json.loads(stdout)
    zero, three = "0." + "0" * 50, "3." + "0" * 50
    if (got["max_abs_deviation"], got["constant_value"]) != (zero, three):
        return [f"six-term sum {got['constant_value']}"]
    return []


def workload_calls(ctx: Context, workload: str) -> list[Call]:
    if workload == "paper-suite":
        return paper_calls(ctx)
    return scan_calls(ctx, workload)


def one_integer(ctx: Context, call: Call, label: str) -> Call:
    """The same verify command over the first integer of its window."""
    lo = call.window[0]
    path = call.argv[call.argv.index("--family") + 1]
    return verify_call(ctx, label, call.family, lo, lo, call.extra, path)


def jobs_identity_calls(ctx: Context, calls: list[Call]) -> list[tuple[Call, Call]]:
    """JSON at --jobs 1 and --jobs 2 on a seeded sample of the scan inputs;
    the CLI promises byte-identical stdout at any job count."""
    rng = random.Random(f"{ctx.seed}:jobs")
    pairs = []
    for call in rng.sample(calls, 3):
        lo = call.window[0]
        pairs.append((verify_call(ctx, f"j1_{call.label}", call.family, lo,
                                  lo + 3999),
                      verify_call(ctx, f"j2_{call.label}", call.family, lo,
                                  lo + 3999, ("--jobs", "2"))))
    return pairs


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def tail_pct(calls_per_pass: int) -> int:
    """Highest whole percentile with at least ten samples beyond it in the
    smallest run (MIN_PASSES passes), so the choice never depends on how
    many passes fitted into the time."""
    return max(50, int(100 * (1 - 10 / (calls_per_pass * MIN_PASSES))))


def measure(ctx: Context, workload: str, seconds: float, report: dict) -> dict:
    calls = workload_calls(ctx, workload)
    outcomes: list[Outcome] = []

    def run(call: Call) -> Outcome:
        oc = settle(ctx, call, execute(ctx, call))
        outcomes.append(oc)
        return oc

    first_verify = next(c for c in calls if c.window)
    biggest = max((c for c in calls if c.window),
                  key=lambda c: c.window[1] - c.window[0])
    # warm the bytecode cache; users pay compilation once, not per run
    run(one_integer(ctx, first_verify, "warmup"))
    setup: list[Outcome] = []
    base_rss = statistics.median(
        run(one_integer(ctx, biggest, "rss_base")).rss_kb for _ in range(3))

    passes = []
    measured = 0.0
    while not passes or (measured + measured / len(passes) <= PASS_BUDGET_S and (
            len(passes) < MIN_PASSES or measured + measured / len(passes) <= seconds)):
        # set-up samples are spread over the run, so that one slow moment
        # of a shared machine cannot set their median
        setup += [run(one_integer(ctx, first_verify, "setup"))
                  for _ in range(SETUP_PER_PASS)]
        t0 = time.perf_counter()
        results = [(c, execute(ctx, c)) for c in calls]
        wall = time.perf_counter() - t0
        for c, oc in results:
            settle(ctx, c, oc).stdout = ""
        outcomes.extend(oc for _, oc in results)
        measured += wall
        passes.append((wall, results))

    if workload == "scan-table":
        for one, two in jobs_identity_calls(ctx, calls):
            a, b = run(one), run(two)
            if a.stdout != b.stdout and not b.problems:
                b.problems.append("--jobs 2 JSON differs from --jobs 1")
                b.wrong = True

    def per_pass(fn):
        return statistics.median(fn(results) for _, results in passes)

    def scan_nps(results):
        ok = [(c, o) for c, o in results if c.window and not o.problems]
        return sum(c.window[1] - c.window[0] + 1 for c, _ in ok) / \
            sum(o.wall for _, o in ok)

    def rss_per_n(results):
        o = next(o for c, o in results if c is biggest)
        return (o.rss_kb - base_rss) * 1024 / (biggest.window[1] - biggest.window[0] + 1)

    walls = [o.wall for _, results in passes for _, o in results]
    pct = tail_pct(len(calls))
    metrics = {
        "scan_Nps": (per_pass(scan_nps), "N/s"),
        "wall_s": (statistics.median(w for w, _ in passes), "s"),
        "cpu_s": (per_pass(lambda rs: sum(o.cpu for _, o in rs)), "s"),
        "peak_rss_mb": (per_pass(lambda rs: max(o.rss_kb for _, o in rs)) / 1024,
                        "MB"),
        "rss_bytes_per_N": (per_pass(rss_per_n), "B/N"),
        "cmd_p50_s": (statistics.median(walls), "s"),
        "cmd_tail_s": (statistics.quantiles(walls, n=100,
                                            method="inclusive")[pct - 1], "s"),
        "setup_s": (statistics.median(o.wall for o in setup), "s"),
    }
    report.update(
        passes=len(passes), pass_walls=[w for w, _ in passes],
        calls_per_pass=len(calls), cmd_samples=len(walls),
        cmd_tail_pct=pct, setup_samples=len(setup),
        rss_base_kb=base_rss, rss_window=list(biggest.window),
        per_call={c.label: {"wall_s": [o.wall for _, rs in passes
                                       for cc, o in rs if cc is c],
            "exit": next(o.code for cc, o in passes[0][1] if cc is c),
            "window": list(c.window) if c.window else None}
            for c in calls})
    return finish(outcomes, metrics, report)


def finish(outcomes: list[Outcome], metrics: dict, report: dict) -> dict:
    failed = [o for o in outcomes if o.problems]
    report["failures"] = sorted({p for o in failed for p in o.problems[:2]})[:20]
    report["ops_failed_frac"] = len(failed) / len(outcomes)
    return {"correct": not any(o.wrong for o in outcomes),
            "attempted": len(outcomes), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


# ---------------------------------------------------------------------------
# provenance and entry point
# ---------------------------------------------------------------------------


def provenance(seed: int, workload: str, trace: int) -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {"workload": workload, "seed": seed, "trace": trace,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "commit": commit,
            "src_sha256": digest.hexdigest(), "src_lines": lines}


def write_inputs(ctx: Context) -> None:
    (ctx.work / "out").mkdir(parents=True, exist_ok=True)
    for name, item in ctx.bundle.items():
        with open(ctx.path(name), "w", encoding="utf-8") as fh:
            json.dump(item["json"], fh, indent=2, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "beattycover" / "cli.py").is_file() or \
            not (ROOT / "data").is_dir():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2

    # started first, while this process is still small (see launch.py)
    launcher = Launcher()
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    ctx = Context(args.seed, work, inputs.generate(args.seed, ROOT / "data"),
                  launcher)
    report = {"provenance": provenance(args.seed, args.workload, args.trace),
              "inputs": {k: v["record"] for k, v in ctx.bundle.items()
                         if "why" in v["record"]}}
    try:
        write_inputs(ctx)
        if args.trace:
            import replay
            result = replay.measure(ctx, args.workload, args.seconds, report)
        else:
            result = measure(ctx, args.workload, args.seconds, report)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
