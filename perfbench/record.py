"""Record the answers the benchmark's gate compares against.

    python3 perfbench/record.py

Writes ``answers.json`` next to this file from the qsym under ``src/``:
the three verdicts of every symmetric, sparse and corpus-pool graph in the
gate's normalized form, the census rows, and the traced run's exact counts
for the fixed workloads and for two corpus seeds.  Re-record only when a
change to qsym is meant to change an answer, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from gate import ANSWERS_PATH, census_rows, report_answers
from spans import Tracer
from workloads import (
    CENSUS_N,
    POOL_SEED,
    WORKLOADS,
    corpus_pool,
    load_qsym,
    probe_pass,
    verify_report,
)

COUNT_SEEDS = (POOL_SEED, 1)


def answers_of(lib, g) -> list[str]:
    report = lib.q.classify_with_complement(g)
    if not all(verify_report(lib, g, report).values()):
        raise SystemExit(f"a certificate for {g!r} does not verify")
    return list(report_answers(report).values())


def dumps(out: dict) -> str:
    """JSON with one answer per line, so a re-recording diffs by graph."""
    sections = []
    for key, value in out.items():
        if isinstance(value, list):
            items = [json.dumps(v) for v in value]
            body = "[\n" + ",\n".join(items) + "\n]"
        else:
            items = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in value.items()]
            body = "{\n" + ",\n".join(items) + "\n}"
        sections.append(f"{json.dumps(key)}: {body}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    lib = load_qsym()
    out: dict = {}
    for name in ("symmetric", "sparse"):
        cases = WORKLOADS[name].cases(lib, None)
        out[name] = {c.key: answers_of(lib, c.graph) for c in cases}
    out["corpus"] = [answers_of(lib, lib.q.build(n, e)) for n, e in corpus_pool()]
    result = lib.census.check_forest_dichotomy(CENSUS_N)
    out["census"] = {"rows": census_rows(result)}
    counts = {}
    for name, w in WORKLOADS.items():
        for seed in COUNT_SEEDS if name == "corpus" else (None,):
            cases = w.cases(lib, w.raw(seed))
            key = name if seed is None else f"{name}/{seed}"
            counts[key], _, _ = probe_pass(lib, cases, Tracer(False), w.probe_complements)
    out["counts"] = counts
    ANSWERS_PATH.write_text(dumps(out))
    print(f"wrote {ANSWERS_PATH} ({ANSWERS_PATH.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
