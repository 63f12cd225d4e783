"""Traced in-process replay and layer microbenchmarks (``--trace 1``).

Spans are recorded only here, around calls into the program's public
functions; the program itself is not instrumented.  A span is
(name, start, end, parent); spans stay in memory and a layer's self time
is its duration minus the time its child spans cover.

The replay runs one pass of the workload in this process, with scan
windows divided by ``REPLAY_SCALE`` so that it fits beside the
microbenchmarks; each invocation runs once untraced and once traced, and
the ratio of the two sums is the tracing overhead.  ``verify`` is replayed
layer by layer (parse, dualize, scan, emit) the way ``cli.cmd_verify``
runs it; every other command goes through ``cli.main`` in one span.
Outputs are checked by the same oracle as the CLI runs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import pickle
import statistics
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import run
from run import SRC, Call, Context, Outcome

REPLAY_SCALE = 10
MICRO_SHARE = 0.55  # of --seconds, split evenly over the microbenchmarks

sys.path.insert(0, str(SRC))
from beattycover import apsystems, beatty, certify, cli, exactnum, fractional  # noqa: E402


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            name, start, _, parent = self.spans[idx]
            self.spans[idx] = (name, start, time.perf_counter(), parent)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out


# ---------------------------------------------------------------------------
# replay of one pass
# ---------------------------------------------------------------------------


def replay_verify(call: Call, tr: Tracer) -> tuple[int, str]:
    lo, hi = call.window
    csv_out = "csv" in call.extra
    jobs = int(call.extra[call.extra.index("--jobs") + 1]) \
        if "--jobs" in call.extra else 1
    path = call.argv[call.argv.index("--family") + 1]
    with tr.span("cli.parse"):
        with open(path, encoding="utf-8") as fh:
            family = beatty.CoverFamily.from_json(json.load(fh))
    with tr.span("beatty.dualize"):
        beatty.dualize(family)
    with tr.span("beatty.scan"):
        profile = beatty.verify_window(family, lo, hi, jobs=jobs,
                                       keep_epsilon=csv_out)
    with tr.span("cli.emit"):
        if csv_out:
            rows = [("N", "r", "epsilon")]
            rows += [(n, profile.values[n],
                      exactnum.decimal_str(profile.epsilon_values[n], 50))
                     for n in range(lo, hi + 1)]
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(rows)
            text = buf.getvalue()
        else:
            text = json.dumps(profile.to_json(), sort_keys=True, indent=2) + "\n"
    return (1 if profile.violations else 0), text


def replay_command(call: Call, tr: Tracer) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with tr.span("cli.command"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.main(call.argv)
    return code, out.getvalue()


def replay_call(ctx: Context, call: Call, tr: Tracer):
    """Replay one invocation; (outcome, bytes emitted, N verified)."""
    t0 = time.perf_counter()
    emitted = n_verified = 0
    with tr.span("cli.invocation"):
        try:
            if call.argv[0] == "verify":
                code, text = replay_verify(call, tr)
                emitted = len(text.encode())
                n_verified = call.window[1] - call.window[0] + 1
            else:
                code, text = replay_command(call, tr)
        except exactnum.PrecisionExhausted:
            code, text = cli.EXIT_PRECISION, ""
        except (ArithmeticError, ValueError):
            code, text = cli.EXIT_INPUT, ""
    wall = time.perf_counter() - t0
    problems, wrong = run.judge(ctx, call, code, run.output(call, text), "")
    return Outcome(wall, 0.0, 0, code, "", "", problems, wrong), emitted, n_verified


def replay_calls(ctx: Context, workload: str) -> list[Call]:
    calls = run.workload_calls(ctx, workload)
    if workload == "paper-suite":
        return calls
    scaled = []
    for c in calls:
        lo, hi = c.window
        hi = lo + (hi - lo + 1) // REPLAY_SCALE - 1
        path = c.argv[c.argv.index("--family") + 1]
        scaled.append(run.verify_call(ctx, c.label, c.family, lo, hi, c.extra, path))
    return scaled


# ---------------------------------------------------------------------------
# microbenchmarks
# ---------------------------------------------------------------------------


def per_call(fn, budget: float, inner: int = 1) -> float:
    """Median seconds per call of fn over repeats filling ``budget``
    (at least three); ``inner`` calls are timed together."""
    samples = []
    end = time.perf_counter() + budget
    while len(samples) < 3 or time.perf_counter() < end:
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - t0) / inner)
    return statistics.median(samples)


def load(ctx: Context, name: str):
    return ctx.bundle[name]["json"]


def family(ctx: Context, name: str) -> beatty.CoverFamily:
    return beatty.CoverFamily.from_json(load(ctx, name))


def cycle(values):
    """A callable that walks ``values`` round-robin, one per call."""
    return itertools.cycle(values).__next__


def import_seconds(repeats: int = 3) -> float:
    code = ("import time; t = time.perf_counter(); import beattycover.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=run.child_env(), cwd=run.ROOT,
                              check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def microbenchmarks(ctx: Context, workload: str, calls: list[Call],
                    budget: float) -> dict:
    verifies = [c for c in calls if c.window]
    first_json = load(ctx, verifies[0].family)
    first = beatty.CoverFamily.from_json(first_json)
    golden = family(ctx, "golden_pair")
    # floor_scaled_quadratic at the workload's widest coefficients and N
    wide, n_top = (golden, 20_000) if workload == "paper-suite" \
        else (family(ctx, "homog_m3_w40"), verifies[0].window[1])
    th = beatty.dualize(wide)[0].theta
    ns = cycle(range(n_top - 999, n_top + 1))
    gen = beatty.dualize(family(ctx, "generic_two_basis"))[0]
    two_basis = cycle([exactnum.add(exactnum.mul(n, gen.theta), gen.gamma)
                       for n in range(3, 53)])
    rec = ctx.bundle["frac_theta1"]["record"]
    theta1 = exactnum.real_from_json(load(ctx, "frac_theta1"))
    pair = fractional.FractionalPair.create(rec["p"], rec["q"], theta1)
    comparisons = cycle([(exactnum.frac_certified(exactnum.mul(n, theta1)),
                          Fraction(n * pair.p % pair.q, pair.q))
                         for n in range(1, 51)])
    epsilons = cycle([beatty.epsilon(golden, n) for n in range(1000, 1050)])
    reals = cycle([r for s in first_json["sequences"] for r in s.values()])
    ms = cycle(range(1, 1001))
    hom = family(ctx, "homog_m2_w20")
    off = family(ctx, "offset_m1")
    theta48 = exactnum.real_from_json(load(ctx, "theta48"))
    spec = certify.GrahamSpec.from_json(load(ctx, "graham_two_cover_spec"))
    samples = [exactnum.frac_certified(exactnum.mul(n, theta1))
               for n in range(1, 101)]
    ap16, ap2366 = terms(ctx, "ap_multiset_16"), terms(ctx, "ap_multiset_2366")
    s33, s244 = system(ctx, "system_3x3"), system(ctx, "system_2x4x4")
    s16, s2366 = system(ctx, "system_16"), system(ctx, "system_2366")
    six = beatty.dualize(family(ctx, "six_sequence_family"))
    expansion = apsystems.expand_over_basis([d.theta for d in six], m=2)
    gammas = [d.gamma if isinstance(d.gamma, Fraction)
              else exactnum.collapse(d.gamma) for d in six]

    def fsq():
        n = ns()
        return exactnum.floor_scaled_quadratic(th.a * n, th.b * n, th.d, th.r)

    # (metric, unit scale, unit, callable, calls timed together)
    timed = [
        ("exactnum.floor_scaled_quadratic.ns", 1e9, "ns", fsq, 1000),
        ("exactnum.floor_certified.us", 1e6, "us",
         lambda: exactnum.floor_certified(two_basis()), 1),
        ("exactnum.compare.us", 1e6, "us",
         lambda: exactnum.compare(*comparisons()), 10),
        ("exactnum.decimal_str.us", 1e6, "us",
         lambda: exactnum.decimal_str(epsilons(), 50), 10),
        ("exactnum.real_from_json.us", 1e6, "us",
         lambda: exactnum.real_from_json(reals()), 10),
        ("beatty.dualize.us", 1e6, "us", lambda: beatty.dualize(first), 10),
        ("beatty.r_total.us", 1e6, "us", lambda: beatty.r_total(golden, ms()), 10),
        ("fractional.R_formula_check.ms", 1e3, "ms",
         lambda: fractional.R_formula_check(pair, 50), 1),
        ("beatty.discrepancy_diagnostic.ms", 1e3, "ms",
         lambda: beatty.discrepancy_diagnostic(theta1, 2000), 1),
        ("fractional.build_profile.ms", 1e3, "ms",
         lambda: fractional.build_profile(pair), 1),
        ("certify.certify_homogeneous.ms", 1e3, "ms",
         lambda: certify.certify_homogeneous(hom), 1),
        ("certify.certify_pair_inhomogeneous.ms", 1e3, "ms",
         lambda: certify.certify_pair_inhomogeneous(*off.sequences, off.m), 1),
        ("certify.build_example_48.ms", 1e3, "ms",
         lambda: certify.build_example_48(theta48), 1),
        ("certify.build_graham.ms", 1e3, "ms", lambda: certify.build_graham(spec), 1),
        ("certify.f_identity_check.ms", 1e3, "ms",
         lambda: certify.f_identity_check(samples, 3), 1),
        ("apsystems.multiset_equal.ms", 1e3, "ms",
         lambda: apsystems.multiset_equal(ap16, ap2366), 1),
        ("apsystems.complementary.ms", 1e3, "ms",
         lambda: apsystems.complementary(s33, s244), 1),
        ("apsystems.is_exact_system.ms", 1e3, "ms",
         lambda: apsystems.is_exact_system(s16), 1),
        ("apsystems.decompose_search.ms", 1e3, "ms",
         lambda: apsystems.decompose_search(s16, s2366, "reducible", budget=16), 1),
        ("apsystems.derive_systems.ms", 1e3, "ms",
         lambda: apsystems.derive_systems(expansion, gammas), 1),
    ]
    far_lo = next(c.window[0] for c in run.scan_calls(ctx, "scan-json")
                  if c.label == "far")
    # (metric, family, window start, window size, keep epsilon)
    scans = [
        ("beatty.verify_window.Nps.k2-homog", "homog_m1_small", 1, 20_000, False),
        ("beatty.verify_window.Nps.k2-offset", "offset_m1", run.OFFSET_START,
         20_000, False),
        ("beatty.verify_window.Nps.k6", "k6_seeded", 1, 10_000, False),
        ("beatty.verify_window.Nps.far", "homog_m1_small", far_lo, 20_000, False),
        ("beatty.verify_window.Nps.generic", "generic_two_basis", 3, 200, False),
        ("beatty.verify_window.eps_Nps.k2-homog", "homog_m1_small", 1, 10_000, True),
        ("beatty.verify_window.eps_Nps.k6", "k6_seeded", 1, 5_000, True),
    ]
    slice_s = budget / (len(timed) + len(scans) + 4)
    m: dict[str, tuple[float, str]] = {}
    for name, scale, unit, fn, inner in timed:
        m[name] = (per_call(fn, slice_s, inner) * scale, unit)
    for name, fam_name, lo, size, keep in scans:
        fam = family(ctx, fam_name)
        sec = per_call(lambda: beatty.verify_window(fam, lo, lo + size - 1,
                                                    keep_epsilon=keep), slice_s)
        m[name] = (size / sec, "N/s")
    m["fractional.empirical_densities.Nps"] = (20_000 / per_call(
        lambda: fractional.empirical_densities(pair, 20_000), slice_s), "N/s")

    # the CSV path on an offset pair, whose epsilon changes with N (for a
    # homogeneous complementary pair it is the constant 1)
    lo, size = run.OFFSET_START, 40_000
    hi = lo + size - 1
    t1, t2 = (per_call(lambda: beatty.verify_window(
        off, lo, hi, jobs=jobs, keep_epsilon=True), slice_s) for jobs in (1, 2))
    m["beatty.verify_window.jobs2_speedup"] = (t1 / t2, "x")

    # what one chunk pickles back through the pool: the per-N dicts and lists
    prof = beatty.verify_window(off, lo, hi, keep_epsilon=True)
    chunk = (prof.values, prof.epsilon_values, prof.violations,
             prof.identity_failures)
    m["beatty.profile.pickle_bytes_per_N"] = (len(pickle.dumps(chunk)) / size, "B/N")
    del prof, chunk

    tracemalloc.start()
    try:
        beatty.verify_window(off, lo, hi, keep_epsilon=workload == "scan-table")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m["beatty.profile.heap_bytes_per_N"] = (peak / size, "B/N")
    m["cli.import_s"] = (import_seconds(), "s")
    return m


def terms(ctx: Context, name: str) -> list:
    return [apsystems.APTerm(t["a"], t["offset"]) for t in load(ctx, name)["terms"]]


def system(ctx: Context, name: str):
    return apsystems.ParameterSystem.from_json(load(ctx, name))


def measure(ctx: Context, workload: str, seconds: float, report: dict) -> dict:
    loaded = sys.modules["beattycover"].__file__
    if not loaded.startswith(str(SRC)):
        raise RuntimeError(f"beattycover imported from {loaded}, not {SRC}")
    calls = replay_calls(ctx, workload)
    untraced = Tracer(False)
    # one untimed replay warms caches; then each invocation runs untraced
    # and traced back to back, in alternating order, so that drift of a
    # shared machine falls on both sides alike
    outcomes = [replay_call(ctx, c, untraced)[0] for c in calls]
    tracer = Tracer(True)
    walls = {True: 0.0, False: 0.0}
    emitted = n_verified = 0
    for i, call in enumerate(calls):
        for traced in ((False, True) if i % 2 else (True, False)):
            oc, nbytes, n = replay_call(ctx, call, tracer if traced else untraced)
            outcomes.append(oc)
            walls[traced] += oc.wall
            if traced:
                emitted += nbytes
                n_verified += n
    self_s = tracer.self_times()
    metrics = microbenchmarks(ctx, workload, calls, seconds * MICRO_SHARE)
    metrics.update({
        "cli.parse.self_s": (self_s.get("cli.parse", 0.0), "s"),
        "beatty.dualize.self_s": (self_s.get("beatty.dualize", 0.0), "s"),
        "beatty.scan.self_s": (self_s.get("beatty.scan", 0.0), "s"),
        "cli.emit.self_s": (self_s.get("cli.emit", 0.0), "s"),
        "cli.emit.bytes_per_N": (emitted / n_verified, "count"),
        "trace.overhead_frac": (walls[True] / walls[False] - 1, "frac"),
    })
    report.update(replay_scale=REPLAY_SCALE if workload != "paper-suite" else 1,
                  replay_walls={"untraced": walls[False], "traced": walls[True]},
                  span_self_s=self_s, spans=len(tracer.spans))
    return run.finish(outcomes, metrics, report)
