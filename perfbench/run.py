"""qtoric request benchmark.

    python3 perfbench/run.py --workload fans-rational --seed 1 \
        --seconds 25 --trace 0

Builds the workload's request deck (at least 100 distinct requests) from
the seed, writes its input files under perfbench/_work, and sends the
requests to ``qtoric.cli.main`` in this process, one after another (a closed
loop with one client), starting again at the top of the deck until the time
is up and every request has run MIN_PASSES times (see serve).  Every answer
is checked against the answer its input was built to have, after the timed
loop.  The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}; "attempted" counts the distinct requests of the deck
and "failed" those that gave a wrong answer, so both follow from the seed.

The machine this runs on is shared, and its speed drifts by tens of
percent over seconds.  So a fixed reference computation is timed between
slices of requests, each request's wall and CPU time is divided by the
slowdown the reference saw around it, and each distinct request's time is
the median over its repeats.  Latency percentiles are Harrell-Davis
estimates over those per-request times (one sample per distinct request);
throughput is one client's rate at them.

--trace 0 reports the end-to-end metrics.  --trace 1 instead serves the
first TRACE_ROUNDS rounds of the deck twice, untraced and then with every
layer traced (see layertrace.py), writes the spans and the per-layer table to
perfbench/_out and reports the per-layer metrics.

The package is imported from src/ of the checkout this file sits in; the
run fails without printing a result when it is not there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2          # every request is timed this often, unless
CAP_FACTOR = 1.5        # the run has lasted this many times --seconds
SLICE_SECONDS = 0.1     # request time between two reference timings
REFERENCE_STEPS = 300
# The reference computation's time on an idle core of the machine the
# bounds were set on (2-core x86-64 VM, CPython 3.11).  Times are scaled to
# that machine speed; the constant only sets the scale, not the spread.
REFERENCE_NOMINAL_S = 0.002
SETUP_REPEATS = 9       # fresh interpreters per run; the median is reported
WARMUP_REQUESTS = 10
TRACE_ROUNDS = {"fans-rational": 4, "fans-parametric": 4, "moduli": 30}

# Set-up in a fresh interpreter: import and parse every input, then time
# the reference computation in the same process to scale the result.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qtoric, qtoric.cli
from qtoric.io import load_fan_file
for path in sys.argv[3:]:
    with open(path, encoding="utf-8") as fh:
        load_fan_file(fh.read())
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from run import reference_seconds
ref = sorted(reference_seconds()[0] for _ in range(5))[2]
print(setup, ref)
"""

# Per-layer metrics and their units; plan.json maps them to the end-to-end
# metrics they should move.
LAYER_METRICS = (
    ("scalars.self_s", "s"), ("scalars.arith_calls", "count"),
    ("scalars.poly_gcd_calls", "count"), ("scalars.sign_at_calls", "count"),
    ("scalars.sign_at_s", "s"),
    ("linalg.self_s", "s"), ("linalg.mat_inverse_calls", "count"),
    ("linalg.solve_right_calls", "count"), ("linalg.rank_calls", "count"),
    ("linalg.det_calls", "count"),
    ("lp.self_s", "s"), ("lp.solve_lp_calls", "count"),
    ("lp.indeterminate", "count"),
    ("atlas.self_s", "s"), ("atlas.chart_matrix_calls", "count"),
    ("atlas.gluing_exponents_calls", "count"),
    ("atlas.charts_per_cone", "ratio"),
    ("morphism.self_s", "s"), ("morphism.cone_coefficients_calls", "count"),
    ("lattice_fan.self_s", "s"), ("lattice_fan.gamma_contains_calls", "count"),
    ("calibration.self_s", "s"), ("gale_lvmb.self_s", "s"),
    ("moduli.self_s", "s"), ("moduli.cf_walk_calls", "count"),
    ("moduli.cf_walk_s", "s"),
    ("io.self_s", "s"), ("io.load_calls", "count"), ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def import_program():
    if not os.path.isfile(os.path.join(SRC, "qtoric", "cli.py")):
        sys.exit(f"run.py: no qtoric sources under {SRC}")
    sys.path.insert(0, SRC)
    import qtoric.cli
    if not os.path.abspath(qtoric.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"run.py: imported qtoric from {qtoric.cli.__file__}")
    return qtoric.cli


def write_inputs(deck, workdir):
    os.makedirs(workdir)
    for name in deck.files:
        with open(os.path.join(workdir, name), "wb") as fh:
            fh.write(deck.file_bytes(name))
    return [[os.path.join(workdir, a) if a in deck.files else a
             for a in req.argv] for req in deck.requests]


def send(cli, argv):
    """One request: (exit code or exception text, stdout, seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as e:
        code = f"SystemExit({e.code})"
    except Exception as e:           # a crash is a failed request, not a stop
        code = f"{type(e).__name__}: {e}"
    return code, buf.getvalue(), time.perf_counter() - t0


def reference_seconds():
    """Wall and CPU time of one run of a fixed pure-Python computation
    shaped like the program's own work (Fraction arithmetic, tuples,
    dicts)."""
    t0, c0 = time.perf_counter(), time.process_time()
    table, acc = {}, 0
    for i in range(REFERENCE_STEPS):
        a = Fraction(i % 13 - 6, i % 7 + 1)
        b = Fraction(i % 5 + 1, i % 11 + 1)
        v = (a * b + a) / (b - a) if b != a else a
        table[(i % 31, i % 7)] = v
        acc += v.numerator % 97
    return time.perf_counter() - t0, time.process_time() - c0


def machine_speed_sample():
    """Reference wall and CPU time right now, each the best of three
    back-to-back runs, so a single interrupt does not count as a slow
    machine."""
    runs = [reference_seconds() for _ in range(3)]
    return min(w for w, _ in runs), min(c for _, c in runs)


def serve(cli, argvs, seconds, passes, tracer=None):
    """Closed loop over the deck for `seconds` and at least `passes` times
    over it; on a slow machine, once over it and no longer than CAP_FACTOR
    * `seconds`.  Returns per deck index the median normalised wall and CPU
    seconds over its repeats and a Counter of (exit code, stdout), plus the
    number of requests sent.

    The requests are grouped into slices of about SLICE_SECONDS; the
    reference computation is timed between slices, and each request's
    wall (CPU) time is divided by the machine's slowdown over its slice:
    the mean of the two reference wall (CPU) times around it over
    REFERENCE_NOMINAL_S."""
    n = len(argvs)
    walls = [[] for _ in range(n)]
    cpus = [[] for _ in range(n)]
    outcomes = [Counter() for _ in range(n)]
    start = time.perf_counter()
    deadline, cap = start + seconds, start + CAP_FACTOR * seconds
    ref_before = machine_speed_sample()
    pending, pending_s = [], 0.0
    i = 0
    while True:
        now = time.perf_counter()
        if (now >= deadline and i >= passes * n) or (now >= cap and i >= n):
            break
        k = i % n
        if tracer is not None:
            tracer.req = i
        # each request starts from a collected heap, so collections inside
        # it depend on its own garbage only
        gc.collect()
        cpu0 = time.process_time()
        code, out, wall = send(cli, argvs[k])
        pending.append((k, wall, time.process_time() - cpu0))
        pending_s += wall
        outcomes[k][(code, out)] += 1
        i += 1
        if pending_s >= SLICE_SECONDS or i % n == 0:
            ref_after = machine_speed_sample()
            wall_slow, cpu_slow = (
                (before + after) / (2 * REFERENCE_NOMINAL_S)
                for before, after in zip(ref_before, ref_after))
            for idx, w, c in pending:
                walls[idx].append(w / wall_slow)
                cpus[idx].append(c / cpu_slow)
            ref_before, pending, pending_s = ref_after, [], 0.0
    return ([statistics.median(x) for x in walls],
            [statistics.median(x) for x in cpus], outcomes, i)


def judge(deck, outcomes):
    """(failed, unexpected, failures by kind and defect) of the outcomes,
    counted per distinct request: a request fails when any of its repeats
    gave a wrong answer, and is unexpected when any wrong answer lacks the
    signature of its known defect.  So the counts depend on the deck alone,
    not on how many times the time allowed it to be sent."""
    failed = unexpected = 0
    kinds = Counter()
    for idx, seen in enumerate(outcomes):
        req = deck.requests[idx]
        wrong = known = 0
        for code, out in seen:
            if isinstance(code, int):
                bad = oracle.check(req.expect, code, out)
            else:
                bad = f"raised {code}"
            if bad is None:
                continue
            wrong += 1
            if isinstance(code, int) and oracle.known_defect(req.defect,
                                                             code, out):
                known += 1
            else:
                print(f"request {idx} {req.kind}: {bad[:300]}",
                      file=sys.stderr)
        if not wrong:
            continue
        failed += 1
        if known == wrong:
            kinds[f"{req.kind} [{req.defect}]"] += 1
        else:
            unexpected += 1
            kinds[f"{req.kind} [unexpected]"] += 1
    return failed, unexpected, kinds


def measure_setup(workdir, deck):
    paths = [os.path.join(workdir, name) for name in sorted(deck.files)
             if "lvmb" in deck.files[name] or "rays" in deck.files[name]]
    times = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run([sys.executable, "-c", SETUP_CHILD, SRC, HERE,
                              *paths], capture_output=True, text=True,
                             timeout=120, check=True)
        setup, ref = map(float, res.stdout.split())
        times.append(setup * REFERENCE_NOMINAL_S / ref)
    return statistics.median(times)


def harrell_davis(values, q):
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) mass of each rank's
    interval.  Unlike a single order statistic it does not jump across a
    gap between two clusters of request times."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)

    # log Beta density at 8 midpoints of each rank's interval; shifted by
    # the largest value before exp so that large n cannot underflow
    logs = [[(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
             for x in ((i + (k + 0.5) / 8) / n for k in range(8))]
            for i in range(n)]
    top = max(max(row) for row in logs)
    weights = [sum(math.exp(v - top) for v in row) for row in logs]
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, xs)) / total


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(cli, deck, argvs, workdir, seconds):
    setup_s = measure_setup(workdir, deck)
    for argv in argvs[:WARMUP_REQUESTS]:
        send(cli, argv)
    wall, cpu, outcomes, sent = serve(cli, argvs, seconds, MIN_PASSES)
    failed, unexpected, kinds = judge(deck, outcomes)
    distinct = len(deck.requests)
    ms = sorted(x * 1000 for x in wall)
    metrics = {
        "throughput_rps": metric(1000 / statistics.fmean(ms), "1/s"),
        "latency_p50_ms": metric(harrell_davis(ms, 0.5), "ms"),
        "latency_p90_ms": metric(harrell_davis(ms, 0.9), "ms"),
        "cpu_ms_per_request": metric(statistics.fmean(cpu) * 1000, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "correct_ratio": metric((distinct - failed) / distinct, "ratio"),
    }
    print(f"{deck.workload} seed {deck.seed}: {sent} requests sent, "
          f"{distinct} distinct (the latency samples), "
          f"{failed} failed (failed_ratio {failed / distinct:.4f})")
    for kind, count in sorted(kinds.items()):
        print(f"  failed {kind}: {count}")
    return {"correct": unexpected == 0, "attempted": distinct,
            "failed": failed, "metrics": metrics}


def layer_metrics(cli, deck, argvs, count):
    """Serve the first `count` requests once untraced and once traced.
    Returns the per-layer metric values, the tracer and the outcomes."""
    from layertrace import Tracer
    subset = argvs[:count]
    for argv in subset[:WARMUP_REQUESTS]:
        send(cli, argv)
    _, plain_cpu, _, _ = serve(cli, subset, 0, 1)
    tracer = Tracer()
    tracer.install()
    try:
        _, traced_cpu, outcomes, _ = serve(cli, subset, 0, 1, tracer)
    finally:
        tracer.uninstall()

    totals = tracer.totals()
    calls = {name: c for name, (c, _, _) in totals.items()}
    incl_s = {name: i / 1e9 for name, (_, i, _) in totals.items()}
    layer_s = tracer.layer_self_seconds()
    out = {f"{layer}.self_s": s for layer, s in layer_s.items()}
    out["scalars.arith_calls"] = sum(c for name, c in calls.items()
                                     if name.startswith("scalars.Scalar."))
    for metric_name, fn in (("scalars.poly_gcd_calls", "scalars.poly_gcd"),
                            ("scalars.sign_at_calls", "scalars.sign_at"),
                            ("linalg.mat_inverse_calls", "linalg.mat_inverse"),
                            ("linalg.solve_right_calls", "linalg.solve_right"),
                            ("linalg.rank_calls", "linalg.rank"),
                            ("linalg.det_calls", "linalg.det"),
                            ("lp.solve_lp_calls", "lp.solve_lp"),
                            ("atlas.chart_matrix_calls", "atlas.chart_matrix"),
                            ("atlas.gluing_exponents_calls",
                             "atlas.gluing_exponents"),
                            ("morphism.cone_coefficients_calls",
                             "morphism.cone_coefficients"),
                            ("lattice_fan.gamma_contains_calls",
                             "lattice_fan.gamma_contains"),
                            ("moduli.cf_walk_calls",
                             "moduli.continued_fraction_walk")):
        out[metric_name] = calls[fn]
    out["scalars.sign_at_s"] = incl_s["scalars.sign_at"]
    out["moduli.cf_walk_s"] = incl_s["moduli.continued_fraction_walk"]
    out["lp.indeterminate"] = tracer.indeterminate.get("lp", 0)
    out["io.load_calls"] = calls["io.load_fan_file"] + \
        calls["io.load_morphism_file"]
    out["atlas.charts_per_cone"] = charts_per_cone(deck, tracer, count)
    out["trace.overhead_ratio"] = sum(traced_cpu) / sum(plain_cpu)
    return out, tracer, outcomes


def per_layer(cli, deck, argvs, seed):
    count = sum(1 for r in deck.requests
                if r.round < TRACE_ROUNDS[deck.workload])
    out, tracer, outcomes = layer_metrics(cli, deck, argvs, count)
    failed, unexpected, kinds = judge(deck, outcomes)
    totals = tracer.totals()
    layer_s = tracer.layer_self_seconds()

    os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
    stem = os.path.join(HERE, "_out", f"{deck.workload}-seed{seed}")
    tracer.write_spans(stem + ".spans.jsonl")
    table = {"workload": deck.workload, "seed": seed, "requests": count,
             "functions": {name: {"calls": c, "inclusive_s": i / 1e9,
                                  "self_s": s / 1e9}
                           for name, (c, i, s) in totals.items() if c},
             "metrics": out}
    with open(stem + ".layers.json", "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)

    print(f"{deck.workload} seed {seed}: traced {count} requests, "
          f"{len(tracer.spans)} spans kept, {failed} failed")
    for layer, s in sorted(layer_s.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:12s} self {s:8.3f} s")
    units = dict(LAYER_METRICS)
    return {"correct": unexpected == 0, "attempted": count, "failed": failed,
            "metrics": {k: metric(out[k], units[k]) for k, _ in LAYER_METRICS}}


def charts_per_cone(deck, tracer, count):
    """chart_matrix calls in atlas requests per maximal cone charted."""
    atlas = {i for i in range(count)
             if deck.requests[i].expect.get("check") == "atlas"}
    nid = tracer.names.index("atlas.chart_matrix")
    calls = sum(1 for s in tracer.spans if s[1] == nid and s[5] in atlas)
    cones = sum(deck.requests[i].expect["charts"] for i in atlas)
    return calls / cones if cones else 0.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_program()
    deck = workloads.build_deck(args.workload, args.seed)
    workdir = os.path.join(HERE, "_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        argvs = write_inputs(deck, workdir)
        if args.trace:
            result = per_layer(cli, deck, argvs, args.seed)
        else:
            result = end_to_end(cli, deck, argvs, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
