"""qsym benchmark: time certified verdicts end to end, or per layer.

    python3 perfbench/run.py --workload corpus --seed 7 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seconds 12

A run sets up the workload (a fresh import of qsym from ``src/`` plus
building the inputs), feeds the gate its self-check, then repeats passes
over the workload's ops until ``--seconds`` have gone by and at least
MIN_PASSES passes are done, judging every output (see gate.py).  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
instead alternates traced and untraced passes of per-layer probe calls and
reports each layer's self time, the exact counts and the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  ``--workload all`` runs each workload in its own process and
prints a table.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from gate import Gate, load_answers, self_check
from spans import Tracer, span_cost, write_spans
from workloads import WORKLOADS, Case, load_qsym, probe_pass

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
MIN_PASSES = 5
SETUPS_PER_PASS = 3
DEFAULT_SEED = 0x5EED

END_TO_END = {
    "wall_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_p99_ms": "ms",
    "decided_share": "ratio",
    "ok_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYERS = (
    "graphs.build", "graphs.complement", "graphs.quadrangle", "graphs.forest",
    "graphs.distance", "automorphisms.enum", "automorphisms.pair",
    "automorphisms.twins", "reduction.zero_pattern", "reduction.blocks",
    "reduction.strip", "classify.classify", "classify.verify",
    "census.enumerate", "cli.analyze",
)


# The host's speed drifts by up to a third, for seconds or minutes at a
# time, and CPU time drifts with it.  So a run also times a burst of a
# fixed pure-Python loop, independent of qsym, before every pass, and keeps
# its fastest burst; every reported time is scaled by CAL_REF_S over that
# burst.  CAL_REF_S is about the fastest burst on the 2-vCPU Xeon VM the
# benchmark was tuned on, so times read as seconds on that host at its
# fastest, and a run on a slowed host reads the same.
CAL_REF_S = 0.0105
CAL_LOOPS = 100
_CAL_NBR = tuple((v * 0x9E3779B1 >> 7) & ((1 << 24) - 1) & ~(1 << v) for v in range(24))


def _calibration_loop() -> int:
    common = 0
    for u in range(24):
        mu = _CAL_NBR[u]
        for v in range(u + 1, 24):
            common += (mu & _CAL_NBR[v]).bit_count() >= 2
    seen = {tuple(sorted(bin(m).count("1") for m in _CAL_NBR[:k])) for k in range(24)}
    return common + len(seen)


class Calibration:
    """The fastest calibration burst of one run."""

    def __init__(self):
        self.best = float("inf")

    def sample(self) -> None:
        start = perf_counter()
        for _ in range(CAL_LOOPS):
            _calibration_loop()
        self.best = min(self.best, perf_counter() - start)

    @property
    def factor(self) -> float:
        return CAL_REF_S / self.best


def median(values):
    return statistics.median(values)


def p99(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def set_up(workload, raw):
    """One timed set-up: a fresh import of qsym plus the workload's inputs
    (the benchmark's own input generation, ``raw``, is not timed).  Later
    set-ups put the first import back, so the ops keep running on it."""
    first = {m: mod for m, mod in sys.modules.items() if m == "qsym" or m.startswith("qsym.")}
    gc.collect()
    start = perf_counter()
    lib = load_qsym()
    cases = workload.cases(lib, raw)
    elapsed = perf_counter() - start
    if first:
        sys.modules.update(first)
    return elapsed, lib, cases


def end_to_end(workload, raw, lib, cases, gate, seconds: float, failures: list):
    """Passes over the op list until ``seconds`` have gone by.

    The host's speed drifts by a third between phases lasting seconds, so
    each op is timed once per pass and scored by its fastest pass: the
    time it takes when the machine is not slowed.  wall_s is the sum of
    those times over the op list, and the percentiles are over ops.  Runs
    at least MIN_PASSES passes.  Between passes the set-up is timed again,
    so its median samples the whole run rather than one phase."""
    ops = cases if workload.per_case else [Case(workload.name, None, "")]
    times = [[] for _ in ops]
    setups = []
    attempted = failed = n_decided = asked = 0
    cal = Calibration()
    start = perf_counter()
    while True:
        cal.sample()
        gc.collect()
        outs = []
        for case, samples in zip(ops, times):
            t0 = perf_counter()
            try:
                out = workload.op(lib, case)
            except Exception as exc:  # a raising op is a failed op
                out = exc
                failures.append(traceback.format_exc())
            samples.append(perf_counter() - t0)
            outs.append(out)
        for case, out in zip(ops, outs):
            d, a, problem = gate.check(case, out)
            attempted += 1
            n_decided += d
            asked += a
            if problem:
                failed += 1
                failures.append(f"{case.key}: {problem}")
        setups += [set_up(workload, raw)[0] for _ in range(SETUPS_PER_PASS)]
        if len(times[0]) >= MIN_PASSES and perf_counter() - start >= seconds:
            break
    cal.sample()
    best = [min(samples) * cal.factor for samples in times]
    metrics = {
        "wall_s": sum(best),
        "verdict_p50_ms": median(best) * 1e3,
        "verdict_p99_ms": p99(best) * 1e3,
        "decided_share": n_decided / asked,
        "ok_share": (attempted - failed) / attempted,
        "setup_s": median(setups) * cal.factor,
    }
    return attempted, failed, metrics


def traced(workload, lib, cases, gate, seed: int, seconds: float, failures: list):
    """Traced and untraced probe passes in ABBA order until ``seconds``
    have gone by, at least one ABBA cycle.  Like the end-to-end ops, each
    layer and each op is scored by its fastest pass.

    ``trace.wall_delta_ms`` is the op list's traced time less its untraced
    time.  Host noise swamps it (seconds either way on a 20 s pass), so
    ``trace.overhead_ms`` is measured directly: spans per pass times the
    cost of recording one span."""
    key = workload.name if workload.name != "corpus" else f"corpus/{seed}"
    expected_counts = gate.answers["counts"].get(key)
    op_times = {True: [], False: []}
    layer_ms = defaultdict(list)
    span_passes = []
    attempted = failed = 0
    cal = Calibration()
    start = perf_counter()
    k = 0
    while k < 4 or perf_counter() - start < seconds:
        cal.sample()
        tracer = Tracer(enabled=k % 4 in (0, 3))
        gc.collect()
        counts, results, times = probe_pass(lib, cases, tracer, workload.probe_complements)
        op_times[tracer.enabled].append(times)
        if tracer.enabled:
            for name, sec in tracer.self_times().items():
                layer_ms[name].append(sec * 1e3)
            span_passes.append(tracer.spans)
        if expected_counts is None:
            expected_counts = counts
        if counts != expected_counts:
            failures.append(f"exact counts drifted: {counts} != {expected_counts}")
        for case in cases[:len(results)]:
            attempted += 1
            problem = gate.check_probe(case, *results[case.key])
            if problem:
                failed += 1
                failures.append(f"{case.key}: {problem}")
        k += 1
    cal.sample()
    write_spans(OUT_DIR / f"spans-{workload.name}-{seed}.jsonl", span_passes)

    def op_list_s(passes):
        return sum(min(samples) for samples in zip(*passes))

    metrics = {f"{name}_ms": min(layer_ms[name]) * cal.factor for name in LAYERS}
    metrics.update(expected_counts)
    metrics["trace.spans"] = len(span_passes[0])
    metrics["trace.overhead_ms"] = metrics["trace.spans"] * span_cost() * 1e3 * cal.factor
    metrics["trace.wall_delta_ms"] = (
        (op_list_s(op_times[True]) - op_list_s(op_times[False])) * 1e3 * cal.factor
    )
    return attempted, failed, metrics


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return "ms" if name.endswith("_ms") else "count"


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    raw = workload.raw(seed)
    _, lib, cases = set_up(workload, raw)
    answers = load_answers()
    failures = self_check(lib, answers)
    gate = Gate(lib, answers, name)
    if trace:
        attempted, failed, metrics = traced(
            workload, lib, cases, gate, seed, seconds, failures
        )
    else:
        attempted, failed, metrics = end_to_end(
            workload, raw, lib, cases, gate, seconds, failures
        )
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for line in failures[:20]:
        print(f"FAIL {line}")
    for metric, value in metrics.items():
        print(f"{name:10s} {metric:34s} {value:14.6g} {unit_of(metric)}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is its own)."""
    rows = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}")
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(rows.values()))["metrics"])
    print(f"{'metric':34s} {'unit':6s}" + "".join(f"{w:>14s}" for w in rows))
    for metric in names:
        cells = "".join(f"{r['metrics'][metric]['value']:14.6g}" for r in rows.values())
        print(f"{metric:34s} {unit_of(metric):6s}{cells}")
    shares = "".join(f"{r['failed'] / r['attempted']:14.6g}" for r in rows.values())
    print(f"{'failed_share':34s} {'ratio':6s}{shares}")
    print(f"{'correct':34s} {'':6s}" + "".join(f"{str(r['correct']):>14s}" for r in rows.values()))
    print(json.dumps(rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["symmetric", "sparse", "corpus", "census", "all"])
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qsym" / "__init__.py").is_file():
        print(f"perfbench: no qsym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # numpy is qsym's one dependency; importing it first makes every timed
    # set-up pay the same (qsym's own import plus the inputs).
    import numpy  # noqa: F401

    if args.workload == "all":
        return run_all(args)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
