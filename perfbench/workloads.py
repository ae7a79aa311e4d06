"""The four benchmark workloads: their inputs, the end-to-end op each one
times, and the per-layer probe pass of the traced run.

Everything that touches qsym receives ``lib``, the modules of one
import, because set-up is timed by importing qsym afresh several times in
one process; holding on to names from an earlier import would mix classes
from two imports.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

#: The corpus is drawn from a fixed pool whose answers are recorded in
#: answers.json; ``--seed`` chooses which pool graphs form the corpus and
#: in what order, so every seed is covered by recorded answers.
POOL_SEED = 0x5EED
POOL_SIZE = 4000
CORPUS_SIZE = 2000

SPARSE_NAMES = (
    "c4", "c16", "c32", "c48", "c64", "p48", "p64", "t0",
    "c4pn20", "c4pn30", "star20", "k3_12", "sc", "fig7",
)

CENSUS_N = 9

#: The traced run probes at most this many cases (the corpus's first 500),
#: which keeps a traced pass under a minute.
PROBE_CASES = 500

#: The traced run lists Aut(h) only when its twin classes alone do not
#: force more elements than this.  star20 and k3_12 (20! and 12!3!
#: elements) are decided by the twin and K_{m,n} shortcuts; no op lists
#: their groups, and a probe that tried would spend its time on a budget.
LISTABLE = 10**7

_PETERSEN_EDGES = (
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
)


@dataclass(frozen=True)
class Case:
    """One input graph: ``key`` indexes the recorded answers and ``spec``
    is the graph in the ``qsym analyze --edges`` syntax."""

    key: str
    graph: object
    spec: str


def load_qsym() -> SimpleNamespace:
    """Import qsym from scratch, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "qsym" or m.startswith("qsym.")]:
        del sys.modules[name]
    return SimpleNamespace(
        q=importlib.import_module("qsym"),
        aut=importlib.import_module("qsym.automorphisms"),
        census=importlib.import_module("qsym.census"),
        cli=importlib.import_module("qsym.cli"),
    )


# ---------------------------------------------------------------------------
# inputs


class SplitMix64:
    """splitmix64, the generator qsym's census corpus is defined by; kept
    here so the benchmark makes its inputs without calling the program."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def unit(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        return self.next_u64() % n


def corpus_pool() -> list[tuple[int, list[tuple[int, int]]]]:
    """The pool as (n, edges), in the draw order of
    ``qsym.census.random_graph``: order 3..8, a density, then one draw per
    vertex pair."""
    rng = SplitMix64(POOL_SEED)
    pool = []
    for _ in range(POOL_SIZE):
        n = 3 + rng.below(6)
        density = rng.unit()
        pool.append(
            (n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.unit() < density])
        )
    return pool


def corpus_indices(seed: int) -> list[int]:
    """``CORPUS_SIZE`` distinct pool indices, a seeded partial shuffle."""
    rng = SplitMix64(seed)
    idx = list(range(POOL_SIZE))
    for i in range(CORPUS_SIZE):
        j = i + rng.below(POOL_SIZE - i)
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:CORPUS_SIZE]


def edge_spec(n: int, edges) -> str:
    return ";".join([str(n)] + [f"{u} {v}" for u, v in edges])


def neighbour_masks(spec: str) -> list[int]:
    """Bit ``v`` of entry ``u`` is set when ``u ~ v``, from an edge spec."""
    head, *rest = spec.split(";")
    nbr = [0] * int(head)
    for e in rest:
        u, v = map(int, e.split())
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


def twin_bound(spec: str) -> int:
    """Product of |class|! over the twin classes (N(u) - v = N(v) - u), a
    lower bound on |Aut|; the same for a graph and its complement."""
    nbr = neighbour_masks(spec)
    seen = 0
    bound = 1
    for u in range(len(nbr)):
        if seen >> u & 1:
            continue
        size = 0
        for v in range(u, len(nbr)):
            if v == u or (nbr[u] & ~(1 << v)) == (nbr[v] & ~(1 << u)):
                seen |= 1 << v
                size += 1
                bound *= size
    return bound


def _case(key: str, g) -> Case:
    return Case(key, g, edge_spec(g.n, g.edges()))


def _symmetric_cases(lib, raw) -> list[Case]:
    q = lib.q
    k2 = q.complete(2)
    q3 = q.cartesian(q.cartesian(k2, k2), k2)
    q4 = q.cartesian(q3, k2)
    products = {
        "Q3": q3,
        "Q4": q4,
        "Q5": q.cartesian(q4, k2),
        "K4xK4": q.cartesian(q.complete(4), q.complete(4)),
        "K33xC4": q.cartesian(q.complete_bipartite(3, 3), q.cycle(4)),
    }
    cases = [_case(key, g) for key, g in products.items()]
    cases.append(_case("K33xC4-adj", q.Graph(products["K33xC4"].adj)))
    cases.append(_case("petersen", q.build(10, _PETERSEN_EDGES)))
    cases.append(_case("prism7", q.gallery("prism7")))
    return cases


def _sparse_cases(lib, raw) -> list[Case]:
    return [_case(name, lib.q.gallery(name)) for name in SPARSE_NAMES]


def _corpus_cases(lib, raw) -> list[Case]:
    pool, indices = raw
    return [
        Case(str(i), lib.q.build(*pool[i]), edge_spec(*pool[i])) for i in indices
    ]


def _census_cases(lib, raw) -> list[Case]:
    return [
        _case(f"n{n}#{i}", f)
        for n in range(1, CENSUS_N + 1)
        for i, f in enumerate(lib.census.enumerate_forests(n))
    ]


# ---------------------------------------------------------------------------
# end-to-end ops


def run_cli(lib, spec: str) -> tuple[int, str]:
    """``qsym analyze --edges spec`` through ``cli.main``, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = lib.cli.main(["analyze", "--edges", spec])
    return rc, buf.getvalue()


def _certify(lib, case: Case):
    return lib.q.classify_with_complement(case.graph)


def verify_report(lib, g, report) -> dict[str, bool]:
    """verify_certificate on each decided verdict; ``bic_complement`` is
    checked against the complement."""
    q = lib.q
    gc = q.complement(g)
    pairs = (("bic", report.bic, g), ("ban", report.ban, g),
             ("bic_complement", report.bic_complement, gc))
    return {
        t: q.verify_certificate(h, v) for t, v, h in pairs if v.certificate is not None
    }


def _certify_and_verify(lib, case: Case):
    report = lib.q.classify_with_complement(case.graph)
    return report, verify_report(lib, case.graph, report)


def _analyze(lib, case: Case):
    return run_cli(lib, case.spec)


def _census(lib, case: Case):
    return lib.census.check_forest_dichotomy(CENSUS_N)


@dataclass(frozen=True)
class Workload:
    name: str
    raw: Callable[[int], object]
    cases: Callable[[SimpleNamespace, object], list[Case]]
    op: Callable[[SimpleNamespace, Case], object]
    #: whether the traced run also probes each graph's complement (census
    #: never complements its forests)
    probe_complements: bool = True
    #: whether the end-to-end op runs once per case (False: once per pass)
    per_case: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "symmetric",
            raw=lambda seed: None,
            cases=_symmetric_cases,
            op=_certify,
        ),
        Workload(
            "sparse",
            raw=lambda seed: None,
            cases=_sparse_cases,
            op=_analyze,
        ),
        Workload(
            "corpus",
            raw=lambda seed: (corpus_pool(), corpus_indices(seed)),
            cases=_corpus_cases,
            op=_certify_and_verify,
        ),
        Workload(
            "census",
            raw=lambda seed: None,
            cases=_census_cases,
            op=_census,
            probe_complements=False,
            per_case=False,
        ),
    )
}


# ---------------------------------------------------------------------------
# the traced run's per-layer probes


def probe_pass(lib, cases: list[Case], tracer, probe_complements: bool):
    """Call each layer's public functions on the first PROBE_CASES cases
    (and, where the workload's op complements, on their complements), one
    ``op`` span per case with one child span per layer call.

    Returns the pass's exact counts; per case key, the CLI's exit code and
    report plus the graphs whose classify() certificates verify_certificate
    rejected; and the seconds each op took.
    """
    q, aut = lib.q, lib.aut
    span = tracer.span
    counts = dict.fromkeys(
        ("automorphisms.group_order", "automorphisms.distinct_supports",
         "reduction.forced_cells", "classify.rule_evals", "cli.report_bytes",
         "census.forests"),
        0,
    )
    results = {}
    op_times = []
    for op, case in enumerate(cases[:PROBE_CASES]):
        start = perf_counter()
        with span("op", op):
            g = case.graph
            with span("graphs.complement", op):
                gc = q.complement(g)
            rejected = []
            listable = twin_bound(case.spec) <= LISTABLE
            for h in (g, gc) if probe_complements else (g,):
                with span("graphs.build", op):
                    q.Graph(h.adj)
                with span("graphs.quadrangle", op):
                    q.contains_quadrangle(h)
                with span("graphs.forest", op):
                    q.is_forest(h)
                with span("graphs.distance", op):
                    q.distance_matrix(h)
                with span("automorphisms.twins", op):
                    aut.twin_transpositions(h)
                if listable:
                    with span("automorphisms.enum", op):
                        auts = q.automorphisms(h)
                    with span("automorphisms.pair", op):
                        q.find_disjoint_pair(h, auts=auts)
                        q.find_edge_free_disjoint_pair(h, auts=auts)
                    counts["automorphisms.group_order"] += auts.order
                    counts["automorphisms.distinct_supports"] += len(
                        {p.support_mask() for p in auts.nontrivial()}
                    )
                with span("reduction.zero_pattern", op):
                    pattern = q.zero_pattern(h)
                with span("reduction.blocks", op):
                    q.blocks(pattern)
                with span("reduction.strip", op):
                    q.strip_high_degree_fixpoint(h)
                counts["reduction.forced_cells"] += pattern.forced_count
                with span("classify.classify", op):
                    report = q.classify(h)
                counts["classify.rule_evals"] += len(report.trace)
                with span("classify.verify", op):
                    ok = [
                        q.verify_certificate(h, v)
                        for v in (report.bic, report.ban)
                        if v.certificate is not None
                    ]
                if not all(ok):
                    rejected.append(f"{h!r}")
            with span("cli.analyze", op):
                rc, text = run_cli(lib, case.spec)
            counts["cli.report_bytes"] += report_bytes(text)
            results[case.key] = (rc, text, rejected)
        op_times.append(perf_counter() - start)
    op = len(results)
    start = perf_counter()
    with span("op", op):
        with span("census.enumerate", op):
            counts["census.forests"] = sum(
                1
                for n in range(1, CENSUS_N + 1)
                for _ in lib.census.enumerate_forests(n)
            )
    op_times.append(perf_counter() - start)
    return counts, results, op_times


def report_bytes(text: str) -> int:
    """Size of an analyze report, not counting the digits of its
    ``elapsed_ms`` value, which vary from run to run."""
    try:
        elapsed = json.loads(text)["elapsed_ms"]
    except (ValueError, KeyError):
        return len(text)
    return len(text) - len(json.dumps(elapsed))
