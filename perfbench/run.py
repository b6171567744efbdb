"""Benchmark of repident: one workload per run, every metric on the last line.

    python3 perfbench/run.py --workload conjugation-averages --seed 1 \
        --seconds 20 --trace 0

Run from the root of a repident checkout. The program is imported from
``src/`` of that checkout. A run does its set-up five times and reports the
median as ``setup_s``, then runs the workload's operation list twice, then
checks every output outside the timed phase. ``--seconds`` is the nominal
run length only: the number of rounds never depends on elapsed time, so a
faster program does the same work in less time rather than more work. Times are rescaled to a reference machine
speed measured next to them (see machine.py). With ``--trace 1`` it instead
runs one untraced and one traced pass of set-up plus one round, and reports
the per-layer metrics of the traced pass, in wall-clock time. The last line of standard output is the result as JSON; a
fuller record of the run goes to ``results/`` next to this file. See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import machine

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"  # one JSON record per run, ignored by git
SETUP_REPEATS = 5
# The first round pays the lazy per-representation work (characters, Adams
# partitions, the automorphism cache), the second runs warm. The count is
# fixed so that every run measures the same verdicts whatever their speed.
ROUNDS = 2
SETUP_KERNELS = 5  # kernel passes timed at the start and end of each set-up


def _import_program():
    src = HERE.parent / "src"
    if not (src / "repident" / "__init__.py").is_file():
        raise SystemExit(f"repident sources not found under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _one_line(text: str) -> str:
    return " | ".join(line.strip() for line in text.strip().splitlines())


def _strip_timing(out):
    """Output as comparable data: verdict JSON without its timing."""
    if hasattr(out, "to_json"):
        data = out.to_json()
        data.pop("timing_ms", None)
        return data
    return out


class Outcome:
    """Verdict times and outputs of the timed phase."""

    def __init__(self):
        self.raw: list[float] = []  # wall seconds per verdict
        self.times: list[float] = []  # the same at the reference machine speed
        self.outputs: list[list[object]] = []  # per round, per op
        self.errors: list[str] = []


def timed_rounds(ops, rounds: int):
    """Exactly `rounds` whole rounds of ops. The machine kernel runs between
    verdicts.

    Returns (outcome, wall seconds of the timed phase).
    """
    outcome = Outcome()
    clock = time.perf_counter
    start = clock()
    kernel = machine.kernel_s()
    for _ in range(rounds):
        outputs = []
        for op in ops:
            t0 = clock()
            try:
                out = op.run()
            except Exception:  # a raising operation is a failed one
                out = None
                outcome.errors.append(f"{op.name}: {_one_line(traceback.format_exc(limit=3))}")
            dt = clock() - t0
            after = machine.kernel_s()
            outcome.raw.append(dt)
            outcome.times.append(machine.rescale(dt, kernel, after))
            kernel = after
            outputs.append(out)
        outcome.outputs.append(outputs)
    return outcome, clock() - start


def evaluate(ops, outcome: Outcome) -> tuple[int, list[str], list[str]]:
    """(failed operations, their failures, problems) over every round.

    An operation fails when it raised or returned a wrong status. Outputs of
    operations that did not fail are checked: the first round in full, later
    rounds for equality with the first (the same seeds give the same output).
    """
    failed = 0
    failures: list[str] = list(outcome.errors)
    problems: list[str] = []
    first = outcome.outputs[0]
    for r, outputs in enumerate(outcome.outputs):
        for op, out, base in zip(ops, outputs, first):
            if out is None:
                failed += 1
                continue
            status = "compare" if isinstance(out, dict) else out.status
            if status != op.expect:
                failed += 1
                failures.append(f"{op.name}: returned {status}, expected {op.expect}")
                continue
            if r == 0:
                try:
                    problems += [f"{op.name}: {p}" for p in op.check(out)]
                except Exception:
                    problems.append(
                        f"{op.name}: check raised {_one_line(traceback.format_exc(limit=3))}")
            elif base is not None and _strip_timing(out) != _strip_timing(base):
                problems.append(f"{op.name}: round {r + 1} output differs from round 1")
    return failed, failures, problems


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n values above it."""
    return math.floor(100 * (n - 10) / n)


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def build(workload):
    """Clear program caches, then time one set-up.

    The machine kernel runs before the set-up, after every catalog
    representation it builds, and at its end; each stretch between two
    kernel passes is rescaled by the passes at its ends.

    Returns (ctx, wall seconds, seconds at the reference machine speed).
    """
    import workloads
    from repident import catalog

    workloads.clear_program_caches()
    gc.collect()
    clock = time.perf_counter
    wall = scaled = 0.0
    mark = [clock(), machine.kernel_s(SETUP_KERNELS)]

    def close_stretch(repeats: int = 1):
        nonlocal wall, scaled
        dt = clock() - mark[0]
        kernel = machine.kernel_s(repeats)
        wall += dt
        scaled += machine.rescale(dt, mark[1], kernel)
        mark[:] = [clock(), kernel]

    build_rep = catalog.CatalogEntry.rep

    def rep(entry, name):
        out = build_rep(entry, name)
        close_stretch()
        return out

    catalog.CatalogEntry.rep = rep
    try:
        ctx = workload.setup()
    finally:
        catalog.CatalogEntry.rep = build_rep
    close_stretch(SETUP_KERNELS)
    return ctx, wall, scaled


def select_ops(workload, ctx, quick: bool):
    ops = workload.ops(ctx)
    return [op for op in ops if op.quick] if quick else ops


def run_untraced(workload, quick: bool):
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        ctx = None  # let the previous set-up go before building the next
        ctx, wall, scaled = build(workload)
        raw_setups.append(wall)
        setups.append(scaled)
    ops = select_ops(workload, ctx, quick)
    gc.collect()
    outcome, wall = timed_rounds(ops, ROUNDS)
    # read before the output checks, which build matrices of their own
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, failures, problems = evaluate(ops, outcome)
    n = len(outcome.times)
    pct = max(50, tail_percentile(n))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verdicts_per_s": (n / sum(outcome.times), "1/s"),
        "verdict_s.p50": (statistics.median(outcome.times), "s"),
        "verdict_s.tail": (nearest_rank(outcome.times, pct), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    info = (f"{len(outcome.outputs)} rounds of {len(ops)} verdicts = {n} verdicts in "
            f"{wall:.2f} s; tail = p{pct}; wall clock: set-up "
            f"{statistics.median(raw_setups):.3f} s, {n / sum(outcome.raw):.4f} verdicts/s, "
            f"p50 {statistics.median(outcome.raw):.4f} s, tail "
            f"{nearest_rank(outcome.raw, pct):.4f} s")
    record = {"setups_s": setups, "raw_setups_s": raw_setups, "timed_s": wall,
              "tail_percentile": pct,
              "verdict_s": {op.name: outcome.times[i::len(ops)] for i, op in enumerate(ops)},
              "raw_verdict_s": {op.name: outcome.raw[i::len(ops)] for i, op in enumerate(ops)}}
    return metrics, n, failed, failures, problems, info, record


def run_traced(workload, quick: bool):
    from tracer import Tracer, metric_names, metric_unit

    ctx, setup_u, _ = build(workload)
    ops = select_ops(workload, ctx, quick)
    plain, round_u = timed_rounds(ops, 1)
    ctx = ops = None

    tracer = Tracer()
    tracer.install()
    try:
        ctx, setup_t, _ = build(workload)
        setup_counts = tracer.snapshot()
        tracer.reset()
        traced_ops = select_ops(workload, ctx, quick)
        traced, round_t = timed_rounds(traced_ops, 1)
        round_counts = tracer.snapshot()
    finally:
        tracer.uninstall()

    failed, failures, problems = evaluate(traced_ops, plain)
    for op, a, b in zip(traced_ops, plain.outputs[0], traced.outputs[0]):
        if a is not None and (b is None or _strip_timing(a) != _strip_timing(b)):
            problems.append(f"{op.name}: traced output differs from untraced output")
    failed += sum(1 for out in traced.outputs[0] if out is None)
    failures += traced.errors
    # set-up layers from the traced set-up, every other layer from the round
    from_setup = ("catalog.", "idfactory.", "replab.rep_new")
    metrics = {}
    for name in metric_names():
        source = setup_counts if name.startswith(from_setup) else round_counts
        metrics[name] = (source.get(name, 0), metric_unit(name))
    overhead = (setup_t + round_t) / (setup_u + round_u)
    metrics["trace.overhead"] = (overhead, "ratio")
    info = (f"untraced set-up {setup_u:.2f} s + round {round_u:.2f} s; traced set-up "
            f"{setup_t:.2f} s + round {round_t:.2f} s; overhead x{overhead:.2f}")
    record = {"setup": setup_counts, "round": round_counts,
              "untraced_s": [setup_u, round_u], "traced_s": [setup_t, round_t]}
    return metrics, 2 * len(traced_ops), failed, failures, problems, info, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal run length; every run makes exactly two rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="cut-down operation list (used by selftest.py)")
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, quick=args.quick)
    if args.trace:
        metrics, attempted, failed, failures, problems, info, record = run_traced(
            workload, args.quick)
    else:
        metrics, attempted, failed, failures, problems, info, record = run_untraced(
            workload, args.quick)
    print(f"# {args.workload} seed={args.seed}: {info}")
    for f in failures:
        print(f"# FAILED {f}")
    for p in problems:
        print(f"# PROBLEM {p}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record.update(result, failures=failures, problems=problems)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
