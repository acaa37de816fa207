"""End-to-end and per-layer benchmark of the WCET analyzer.

Usage (from the repository root)::

    python3 wcetbench/run.py --workload callchain_cold --seed 7 --seconds 30 --trace 0
    python3 wcetbench/run.py --workload all --seconds 30     # every workload, both modes

One run sets its workload up several times (reporting the median as
``setup_s``), then runs balanced rounds of units of work until
``--seconds`` is spent, then checks every result against the benchmark's
own oracle.  Between units it times a fixed host-speed probe
(:func:`reference_loop`); the gated time metrics divide each unit by the
probes around it.  ``--trace 0`` measures with nothing installed and
reports the end-to-end metrics; ``--trace 1`` wraps each layer's public entry points
(see ``tracing.py``), prints the per-layer self-time table, writes a Chrome
trace under ``.bench_out/`` and reports the per-layer metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload in both
modes as child processes and prints one combined table, including the
tracing overhead (traced minus untraced ``analysis_s.p50``).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
EXPECTED = BENCH / "expected.json"
DEFAULT_SEED = 2005
#: set-up is repeated at least this many times and until this many seconds
#: are spent (at most ``SETUP_MAX_REPEATS`` times); ``setup_s`` is the median
SETUP_REPEATS, SETUP_SECONDS, SETUP_MAX_REPEATS = 3, 1.0, 50
#: seconds of timed work per host-speed probe (each probe takes ~10 ms)
REFERENCE_EVERY = 0.25
#: a controller round (3 units) can take 12-18 s on a slow host; two rounds
#: keep every run at the same sample count
MIN_ROUNDS = 2


def reference_loop() -> float:
    """Seconds one fixed pure-Python loop takes now (a host-speed probe).

    The loop is independent of the analyzer, so no change to the analyzer
    can move it; it is timed between units of work, outside their timing.
    """
    started = time.perf_counter()
    table = dict.fromkeys(range(1024), 0)
    total = 0
    for index in range(60_000):
        table[index & 1023] = index
        total += table[(index * 7) & 1023]
    return time.perf_counter() - started


def tail_of(samples: list[float]):
    """The highest percentile with at least ten samples beyond it, or None."""
    ordered = sorted(samples)
    rank = len(ordered) - 10
    if rank < 1:
        return None
    return round(100.0 * rank / len(ordered)), ordered[rank - 1]


def geomean(values: list[float]) -> float:
    return math.exp(sum(map(math.log, values)) / len(values)) if values else 0.0


def measure(workload, seed: int, seconds: float, recorder=None) -> dict:
    """Set up, run the timed rounds, verify; return everything measured."""
    setup_times, state = [], None
    while len(setup_times) < SETUP_REPEATS or (
        sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
    ):
        if state is not None:
            state.close()
        started = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - started)

    if recorder is not None:
        from tracing import install
        install(recorder)
    rng = random.Random(f"{workload.name}/{seed}")
    times, outcomes, ref_times, rounds = [], [], [], 0
    probes = [reference_loop()]
    loop_started = time.perf_counter()
    try:
        # whole rounds only, so every run weighs each input equally; at
        # least MIN_ROUNDS, then another round starts while it would end at
        # most half a round late
        while True:
            for item in workload.round(state, rng):
                if recorder is not None:
                    recorder.begin_unit()
                try:
                    elapsed, outcome = workload.run_unit(state, item, recorder)
                except Exception as error:  # a unit that raises counts as failed
                    print(f"unit failed: {type(error).__name__}: {error}", file=sys.stderr)
                    elapsed, outcome = 0.0, None
                times.append(elapsed)
                outcomes.append(outcome)
                # the unit in host-speed units: its time over the median of
                # the probes just before and just after it, about one probe
                # per REFERENCE_EVERY seconds of timed work
                after = [
                    reference_loop()
                    for _ in range(max(1, round(elapsed / REFERENCE_EVERY)))
                ]
                ref_times.append(elapsed / statistics.median(probes + after))
                probes = after
            rounds += 1
            spent = time.perf_counter() - loop_started
            if rounds >= MIN_ROUNDS and spent + spent / rounds / 2 > seconds:
                break
    finally:
        if recorder is not None:
            recorder.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        verdict = workload.verify(state, outcomes)
        overhead = getattr(workload, "service_overhead", None)
        overheads = [
            overhead(t, o) for t, o in zip(times, outcomes) if overhead and o is not None
        ]
    finally:
        state.close()
    return {
        "times": times,
        "setup_times": setup_times,
        "peak_rss_mb": peak_rss_mb,
        "verdict": verdict,
        "overheads": overheads,
        "rounds": rounds,
        "ref_times": ref_times,
    }


def check_pins(name: str, seed: int, verdict, pin: bool) -> None:
    """Compare (or, with *pin*, record) the default seed's bounds and maxima."""
    if seed != DEFAULT_SEED:
        return
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    current = {
        key: {"bound": bound, "oracle_max": oracle, "oracle": label}
        for key, (bound, oracle, label) in sorted(verdict.ratios.items())
        if "@" not in key
    }
    if pin:
        expected[name] = current
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    elif name in expected and expected[name] != current:
        verdict.fail(None, f"bounds or oracle maxima differ from {EXPECTED.name}")


def end_to_end(result: dict) -> tuple[dict, dict, list[str]]:
    """``BENCHMARK.json``'s end-to-end metrics, the wall-clock ones, notes."""
    times, ref_times, verdict = result["times"], result["ref_times"], result["verdict"]
    ratios = [bound / oracle for bound, oracle, _ in verdict.ratios.values()]
    metrics = {
        "analysis_ref.p50": (statistics.median(ref_times), "ref"),
        "functions_per_ref": (verdict.analysed / sum(ref_times), "1/ref"),
        "setup_s": (statistics.median(result["setup_times"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "bound_overestimation": (geomean(ratios), "ratio"),
    }
    wall = {
        "analysis_s.p50": (statistics.median(times), "s"),
        "functions_per_s": (verdict.analysed / (sum(times) or 1.0), "1/s"),
    }
    tail = tail_of(times)
    if tail is not None:
        wall[f"analysis_s.tail p{tail[0]}"] = (tail[1], "s")
    attempted = len(times) + verdict.extra_failures
    failed = sum(verdict.failed) + verdict.extra_failures
    labels = {label for _, _, label in verdict.ratios.values()}
    notes = [
        f"units {len(times)} in {result['rounds']} round(s), {sum(times):.2f} s timed"
        + ("" if tail else "; analysis_s.tail needs at least 11 units"),
        f"failed_share {failed / attempted:.3f} ({failed}/{attempted})",
        f"oracle {'/'.join(sorted(labels))} over {len(ratios)} function report(s)",
    ]
    return metrics, wall, notes


def per_layer(result: dict, recorder) -> tuple[dict, list[str]]:
    """Per-unit layer metrics from the traced run, plus the self-time table."""
    n = max(1, len(result["times"]))
    layers = recorder.layer_self_seconds()
    c = recorder.counters

    def self_s(*names):
        return sum(layers.get(name, 0.0) for name in names) / n

    def ratio(hits, total):
        return (c[hits] / c[total] if c[total] else 0.0), f"({c[hits]}/{c[total]})"

    overheads = result["overheads"]
    distinct = ratio("hw.distinct_runs", "hw.runs")
    covered = ratio("testgen.genetic_covered", "testgen.genetic_searches")
    cache_hits = ratio("project.cache_hits", "project.cache_gets")
    store_hits = ratio("mc.store_hits", "mc.store_loads")
    covered_s = sum(v for k, v in layers.items() if k != "bench")
    timed = sum(result["times"])
    metrics = {
        "hw.run_s": (self_s("hw"), "s"),
        "hw.runs": (c["hw.runs"] / n, "count"),
        "hw.distinct_ratio": (distinct[0], "ratio"),
        "testgen.self_s": (self_s("testgen", "testgen.genetic"), "s"),
        "testgen.genetic_s": (self_s("testgen.genetic"), "s"),
        "testgen.genetic_searches": (c["testgen.genetic_searches"] / n, "count"),
        "testgen.genetic_covered_ratio": (covered[0], "ratio"),
        "mc.self_s": (self_s("mc"), "s"),
        "mc.queries": (c["mc.queries"] / n, "count"),
        "mc.solver_runs": (c["mc.solver_runs"] / n, "count"),
        "mc.static_prunes": (c["mc.static_prunes"] / n, "count"),
        "sa.self_s": (self_s("sa"), "s"),
        "partition.self_s": (self_s("partition"), "s"),
        "partition.segments": (c["partition.segments"] / n, "count"),
        "measurement.self_s": (self_s("measurement"), "s"),
        "wcet.schema_s": (self_s("wcet.schema"), "s"),
        "wcet.exhaustive_s": (self_s("wcet.exhaustive"), "s"),
        "pipeline.self_s": (self_s("pipeline"), "s"),
        "minic.parse_s": (self_s("minic"), "s"),
        "callgraph.build_s": (self_s("callgraph"), "s"),
        "project.scheduler_self_s": (self_s("project.scheduler"), "s"),
        "project.cache_get_s": (self_s("project.cache_get"), "s"),
        "project.cache_put_s": (self_s("project.cache_put"), "s"),
        "project.cache_hit_ratio": (cache_hits[0], "ratio"),
        "project.reanalysed_functions": (c["project.reanalysed_functions"] / n, "count"),
        "mc.store_get_s": (self_s("mc.store_get"), "s"),
        "mc.store_put_s": (self_s("mc.store_put"), "s"),
        "mc.store_hit_ratio": (store_hits[0], "ratio"),
        "service.overhead_s": (statistics.mean(overheads) if overheads else 0.0, "s"),
        "trace.layer_coverage": (covered_s / timed if timed else 0.0, "ratio"),
        "traced.analysis_s.p50": (statistics.median(result["times"]), "s"),
        "traced.analysis_ref.p50": (statistics.median(result["ref_times"]), "ref"),
    }
    bases = {
        "hw.distinct_ratio": distinct[1],
        "testgen.genetic_covered_ratio": covered[1],
        "project.cache_hit_ratio": cache_hits[1],
        "mc.store_hit_ratio": store_hits[1],
        "trace.layer_coverage": f"({covered_s:.3f} s/{timed:.3f} s)",
    }
    lines = [f"{'layer (self time per unit)':32s} {'seconds':>10s} {'share':>7s}"]
    for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
        share = seconds / timed if timed else 0.0
        lines.append(f"{layer:32s} {seconds / n:10.4f} {100 * share:6.1f}%")
    lines.append("")
    for name, (value, unit) in metrics.items():
        base = bases.get(name, "")
        lines.append(f"{name:32s} {value:12.6g} {unit:6s} {base}")
    return metrics, lines


def run_one(args) -> int:
    from workloads import WORKLOADS
    from tracing import Recorder

    workload = WORKLOADS[args.workload](OUT / "work")
    recorder = Recorder() if args.trace else None
    result = measure(workload, args.seed, args.seconds, recorder)
    verdict = result["verdict"]
    check_pins(workload.name, args.seed, verdict, args.pin)
    e2e, wall, notes = end_to_end(result)
    print(f"== {workload.name} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in {**e2e, **wall}.items():
        print(f"{name:32s} {value:12.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    metrics = e2e
    if recorder is not None:
        metrics, lines = per_layer(result, recorder)
        print("\n".join(lines))
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"{workload.name}-seed{args.seed}.trace.json"
        recorder.write_chrome_trace(trace_path)
        print(f"  chrome trace: {trace_path.relative_to(ROOT)}")
    failed = sum(verdict.failed) + verdict.extra_failures
    attempted = len(verdict.failed) + verdict.extra_failures
    for reason in verdict.reasons:
        print(f"  FAILED: {reason}")
    print(f"correctness: {'ok' if failed == 0 else 'VIOLATED'}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own child process."""
    from workloads import WORKLOADS

    summary, correct = [], True
    for name in WORKLOADS:
        p50 = {}
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__)), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            child = subprocess.run(command, capture_output=True, text=True, check=False)
            sys.stdout.write(child.stdout)
            sys.stderr.write(child.stderr)
            if child.returncode != 0 or not child.stdout.strip():
                return child.returncode or 1
            correct = correct and json.loads(child.stdout.splitlines()[-1])["correct"]
            p50[trace] = float(
                re.search(r"^analysis_s\.p50\s+(\S+)", child.stdout, re.M).group(1)
            )
        untraced, traced = p50[0], p50[1]
        summary.append(
            f"{name:16s} analysis_s.p50 {untraced:.4f} s, traced {traced:.4f} s, "
            f"tracing overhead {traced - untraced:+.4f} s "
            f"({100 * (traced - untraced) / untraced:+.1f}%)"
        )
    print("== summary")
    print("\n".join(summary))
    print(f"correctness: {'ok' if correct else 'VIOLATED'}")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin", action="store_true",
        help=f"record the default seed's bounds and oracle maxima in {EXPECTED.name}",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no analyzer sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)}, all)")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
