"""Report bytes, pinned per graph.

For each graph below, ``classify_with_complement(g).payload()`` without
``elapsed_ms`` is dumped as JSON with sorted keys and hashed with sha256.
The digests must equal those recorded in ``tests/data/report_digests.json``,
so a change that should leave reports alone can show that it changed no
byte of any of them.  The graphs are the first 300 draws of the 0x5EED
pool, the 308 forests with n <= 9, the sparse gallery and the cycles C5 to
C12, whose groups are transitive.

Those graphs carry no provenance and run at the default budget, so a
second set pins the reports of graphs at an explicit node budget, through
both ``classify`` and ``classify_with_complement``, in
``tests/data/budget_report_digests.json``: the certificate producers,
product and corona provenance, Q4 at three budgets, an edgeless graph
and the first 100 pool draws at budgets 0, 3, 20 and 100.  Together they
show every rule firing and every reason a rule gives for not firing.  The
same file pins the symmetric graphs at the default budget, whose large
groups make the longest pair scans: Q5 and Q6, K4□K4, K3,3□C4 rebuilt
from its adjacency, the Petersen graph and prism7.

A change that means to alter reports re-records both files, and says
which reports changed and why.  Before it overwrites a file, the command
prints how many of its keys changed and their names:

    PYTHONPATH=src python -m tests.test_report_digests
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from qsym import (
    Graph,
    cartesian,
    classify,
    classify_with_complement,
    complete,
    complete_bipartite,
    corona,
    cycle,
    edgeless,
    gallery,
    path,
    star,
)
from qsym.automorphisms import Permutation
from qsym.census import SplitMix64, enumerate_forests, random_graph

from .conftest import SPARSE_GALLERY, hypercube
from .test_classify import _PRODUCER_CASES, _petersen

DIGESTS = Path(__file__).with_name("data") / "report_digests.json"
BUDGET_DIGESTS = Path(__file__).with_name("data") / "budget_report_digests.json"


def _pool(count: int):
    rng = SplitMix64(0x5EED)
    return [random_graph(rng) for _ in range(count)]


def pinned_graphs():
    """(key, graph) for every graph whose report is pinned."""
    for index, g in enumerate(_pool(300)):
        yield f"pool/{index}", g
    for n in range(1, 10):
        for index, forest in enumerate(enumerate_forests(n)):
            yield f"forest/{n}/{index}", forest
    for name in SPARSE_GALLERY:
        yield f"gallery/{name}", gallery(name)
    for n in range(5, 13):
        yield f"cycle/{n}", cycle(n)


def budget_cases():
    """(key, graph, node_budget) for every report pinned at a budget."""
    for index, (g, budget) in enumerate(_PRODUCER_CASES):
        yield f"producer/{index}@{budget}", g, budget
    yield "k3_3xc4@None", cartesian(complete_bipartite(3, 3), cycle(4)), None
    yield "corona(p1,c5)@100", corona(path(1), cycle(5)), 100
    yield "corona(p1,petersen)@50", corona(path(1), _petersen()), 50
    for budget in (50, 500, 5000):
        yield f"q4@{budget}", hypercube(4), budget
    yield "edgeless10@None", edgeless(10), None
    yield "star4@None", star(4), None
    pool = _pool(100)
    for budget in (0, 3, 20, 100):
        for index, g in enumerate(pool):
            yield f"pool/{index}@{budget}", g, budget
    yield "q5@None", hypercube(5), None
    yield "q6@None", hypercube(6), None
    yield "k4xk4@None", cartesian(complete(4), complete(4)), None
    k33c4 = cartesian(complete_bipartite(3, 3), cycle(4))
    yield "k3_3xc4-adj@None", Graph(k33c4.adj), None
    yield "petersen@None", _petersen(), None
    yield "prism7@None", gallery("prism7"), None


def _digest(report) -> str:
    payload = report.payload()
    del payload["elapsed_ms"]
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def current_digests() -> dict[str, str]:
    return {key: _digest(classify_with_complement(g)) for key, g in pinned_graphs()}


def budget_reports():
    """(key, report) for every pinned budget case, both entry points."""
    for key, g, budget in budget_cases():
        for fn in (classify, classify_with_complement):
            yield f"{fn.__name__}/{key}", fn(g, node_budget=budget)


def current_budget_digests() -> dict[str, str]:
    return {key: _digest(report) for key, report in budget_reports()}


def _assert_digests_match(want: dict[str, str], got: dict[str, str]) -> None:
    assert list(got) == list(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, f"{len(changed)} reports changed, first: {changed[:10]}"


def test_report_bytes_match_the_recorded_digests():
    _assert_digests_match(json.loads(DIGESTS.read_text()), current_digests())


def test_budgeted_report_bytes_match_the_recorded_digests():
    _assert_digests_match(
        json.loads(BUDGET_DIGESTS.read_text()), current_budget_digests()
    )


def test_pair_lines_are_written_when_the_trace_is_read(monkeypatch):
    # classify_with_complement writes no cycle notation: a fired pair
    # rule keeps its certificate, and the trace, read afterwards, gives
    # the pinned bytes
    cycles, calls = Permutation.cycles, []

    def counting(self, names=None):
        calls.append(self)
        return cycles(self, names)

    monkeypatch.setattr(Permutation, "cycles", counting)
    want = json.loads(DIGESTS.read_text())
    keyed = [(key, g) for key, g in pinned_graphs() if key.startswith("pool/")]
    reports = [classify_with_complement(g) for _, g in keyed]
    assert not calls
    deferred = [e for rep in reports for e in rep.events if not isinstance(e, str)]
    assert len(deferred) > 400
    for (key, _), report in zip(keyed, reports):
        assert len(report.trace) == len(report.events)
        assert _digest(report) == want[key]
    assert len(calls) >= 2 * len(deferred)


#: Every line a rule logs, with its numbers and cycles left open, and
#: every note the budget paths add.  The coarse-to-fine transfers are left
#: out: no graph reaches them, as the fine pipeline runs every coarse rule
#: but the pair rule, so ``test_classify`` drives them by hand.  So is
#: R-KMN's "no side of four vertices", which R-QFC always pre-empts.
_OUTCOMES = (
    r"bic R-SMALL: fired \(order \d\)",
    r"bic R-SMALL: order \d+ is above three",
    r"bic R-QFC: fired \(complement is quadrangle-free\)",
    r"bic R-QFC: complement contains a quadrangle",
    r"bic R-KMN: fired \(complete bipartite, side of \d+\)",
    r"bic R-KMN: not complete bipartite",
    r"bic R-BIC-1: fired \(\(.+\) and \(.+\)\)",
    r"bic R-BIC-1: no edge-free disjoint pair",
    r"bic R-BIC-1: skipped \(budget exhausted\)",
    r"bic R-PROD: fired \(factor \d+ of cartesian product\)",
    r"bic R-PROD: no factor certified non-commutative",
    r"bic R-CORONA: fired \(attachment has a non-trivial symmetry\)",
    r"bic R-CORONA: premises not met",
    r"bic R-FOREST: fired \(forest without an edge-free disjoint pair\)",
    r"bic R-STRIP: fired \(stripped \d+ vertices to a commutative core\)",
    r"bic R-STRIP: nothing to strip",
    r"bic R-STRIP: stripped core is Unknown",
    r"bic R-STRIP: stripped core is NonCommutative",
    r"bic R-BLOCKS: fired \(block sizes \[[\d, ]+\]\)",
    r"bic R-BLOCKS: blocks too coarse \(sizes \[[\d, ]+\]\)",
    r"ban R-SMALL: fired \(order \d\)",
    r"ban R-SMALL: order \d+ is above three",
    r"ban R-BAN-1: fired \(\(.+\) and \(.+\)\)",
    r"ban R-BAN-1: no disjoint pair",
    r"ban R-BAN-1: skipped \(budget exhausted\)",
    r"ban R-FOREST: fired \(forest without a disjoint pair\)",
    r"ban R-BLOCKS: fired \(block sizes \[[\d, ]+\]\)",
    r"ban R-BLOCKS: blocks too coarse \(sizes \[[\d, ]+\]\)",
    r"ban R-CHAIN: non-commutative via the fine algebra",
    r"ban R-QF: commutative via the fine algebra",
    r"note: automorphism enumeration abandoned after \d+ search nodes; "
    r"some rules were skipped",
    r"note: attachment symmetry search abandoned \(budget\)",
    r"note: no quantum symmetry: both fine algebras are commutative",
)


def test_budget_cases_show_every_rule_outcome():
    lines = set()
    for _, report in budget_reports():
        lines.update(line.removeprefix("complement ") for line in report.trace)
        lines.update(f"note: {note}" for note in report.notes)
    missing = [
        pattern
        for pattern in _OUTCOMES
        if not any(re.fullmatch(pattern, line) for line in lines)
    ]
    assert not missing, missing
    unexpected = [
        line
        for line in lines
        if not any(re.fullmatch(pattern, line) for pattern in _OUTCOMES)
    ]
    assert not unexpected, unexpected


def _rerecord(path: Path, digests: dict[str, str]) -> None:
    """Overwrite ``path`` with ``digests``, first printing how many keys
    changed, were added or were dropped, and their names."""
    old = json.loads(path.read_text()) if path.exists() else {}
    changed = [key for key in digests if old.get(key) != digests[key]]
    changed += [key for key in old if key not in digests]
    print(f"{path.name}: {len(changed)} changed keys")
    for key in changed:
        print(f"  {key}")
    path.write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    _rerecord(DIGESTS, current_digests())
    _rerecord(BUDGET_DIGESTS, current_budget_digests())
