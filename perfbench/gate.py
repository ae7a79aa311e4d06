"""The correctness gate: what counts as a failed op.

An op fails when it raises, when a decided certificate is rejected by
``verify_certificate``, when its verdicts break a consistency law, or when
a decided verdict contradicts the answer recorded in ``answers.json``: a
different status, or different witness image arrays on a pair
certificate (the README promises the smallest-support-then-lexicographic
witness).  An ``Unknown`` that becomes decided is not a failure.

Verdicts are compared in a normalized text form, ``"<status> <kind>
<sigma images>|<tau images>"``, made the same way from a ``Report`` and
from the JSON document ``qsym analyze`` prints.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from workloads import neighbour_masks, verify_report

TARGETS = ("bic", "ban", "bic_complement")
PAIR_KINDS = ("disjoint-pair", "edge-free-pair")
UNKNOWN = "Unknown"

ANSWERS_PATH = Path(__file__).with_name("answers.json")

#: Facts that do not come from qsym's output.  C4's split verdict and
#: witness pair are stated in the README; the K_{m,n} rule makes K_{3,12}
#: fine-noncommutative (a side of at least four).
KNOWN = {
    "c4": {
        "bic": "Commutative",
        "ban": "NonCommutative disjoint-pair 2,1,0,3|0,3,2,1",
    },
    "k3_12": {"bic": "NonCommutative"},
}
#: Unlabelled trees (OEIS A000055) and forests (OEIS A005195) on 1..9
#: vertices, and the forests on 9 vertices with a disjoint pair.
TREES = (1, 1, 1, 2, 3, 6, 11, 23, 47)
FORESTS = (1, 2, 3, 6, 10, 20, 37, 76, 153)
DISJOINT_AT_9 = 118


def load_answers() -> dict:
    return json.loads(ANSWERS_PATH.read_text())


def normalize(payload: dict) -> str:
    """One verdict payload as normalized text."""
    cert = payload.get("certificate")
    if cert is None:
        return payload["status"]
    text = f"{payload['status']} {cert['kind']}"
    if cert["kind"] in PAIR_KINDS:
        text += " " + "|".join(
            ",".join(map(str, cert[w]["images"])) for w in ("sigma", "tau")
        )
    return text


def report_answers(report) -> dict[str, str]:
    verdicts = (report.bic, report.ban, report.bic_complement)
    return {t: normalize(v.payload()) for t, v in zip(TARGETS, verdicts)}


def document_answers(doc: dict) -> dict[str, str]:
    return {t: normalize(doc["verdicts"][t]) for t in TARGETS}


def quadrangle_free(spec: str) -> bool:
    """No two distinct vertices share two neighbours; computed here, not
    by qsym."""
    nbr = neighbour_masks(spec)
    return all(
        (nbr[u] & nbr[v]).bit_count() < 2
        for u in range(len(nbr))
        for v in range(u + 1, len(nbr))
    )


def judge(actual: dict, recorded: dict | None, verified: dict, qf: bool) -> str | None:
    """The first way the verdicts fail the gate, or None."""
    for t in TARGETS:
        a = actual[t].split(" ")
        if a[0] == UNKNOWN:
            continue
        if not verified.get(t, False):
            return f"{t}: verify_certificate rejects {actual[t]}"
        if recorded is None:
            continue
        r = recorded[t].split(" ")
        if r[0] == UNKNOWN:
            continue
        if a[0] != r[0]:
            return f"{t}: {a[0]}, recorded {r[0]}"
        if a[1] in PAIR_KINDS and r[1] in PAIR_KINDS and a[2] != r[2]:
            return f"{t}: witness {a[2]}, recorded {r[2]}"
    bic = actual["bic"].split(" ")[0]
    ban = actual["ban"].split(" ")[0]
    if bic == "NonCommutative" and ban == "Commutative":
        return "fine NonCommutative with coarse Commutative"
    if qf and UNKNOWN not in (bic, ban) and bic != ban:
        return f"split verdicts on a quadrangle-free graph ({bic}, {ban})"
    return None


def decided(actual: dict) -> int:
    return sum(not a.startswith(UNKNOWN) for a in actual.values())


def census_rows(result) -> list[list[int]]:
    """n, trees, forests, with a disjoint pair, with an edge-free pair."""
    return [[r.n, r.trees, r.forests, r.with_disjoint_pair, r.with_edge_free_pair]
            for r in result.rows]


def census_problem(result, recorded_rows) -> str | None:
    if not result.ok:
        return f"census violations: {result.violations[:3]}"
    rows = census_rows(result)
    if [r[1] for r in rows] != list(TREES) or [r[2] for r in rows] != list(FORESTS):
        return "tree or forest counts differ from OEIS A000055 / A005195"
    if rows[-1][3] != DISJOINT_AT_9:
        return f"{rows[-1][3]} forests on 9 vertices with a disjoint pair, not 118"
    if rows != recorded_rows:
        return "census rows differ from the recorded rows"
    return None


class Gate:
    """Judges one workload's outputs: its end-to-end ops and the CLI
    reports of its traced run."""

    def __init__(self, lib, answers: dict, workload: str):
        self.lib = lib
        self.answers = answers
        self.workload = workload
        self._qf: dict[str, bool] = {}
        self._reference: dict[str, tuple[dict, dict]] = {}

    def recorded(self, key: str) -> dict | None:
        if self.workload == "corpus":
            row = self.answers["corpus"][int(key)]
        elif self.workload == "census":
            return None
        else:
            row = self.answers[self.workload][key]
        return dict(zip(TARGETS, row))

    def qf(self, case) -> bool:
        if case.key not in self._qf:
            self._qf[case.key] = quadrangle_free(case.spec)
        return self._qf[case.key]

    def reference(self, case) -> tuple[dict, dict]:
        """The library's answers and verify results for a case, computed
        once; a CLI report must agree with them."""
        if case.key not in self._reference:
            report = self.lib.q.classify_with_complement(case.graph)
            self._reference[case.key] = (
                report_answers(report),
                verify_report(self.lib, case.graph, report),
            )
        return self._reference[case.key]

    def check(self, case, out) -> tuple[int, int, str | None]:
        """(decided verdicts, verdicts asked, problem or None) for one op."""
        if isinstance(out, Exception):
            return 0, 3, f"raised {type(out).__name__}: {out}"
        if self.workload == "census":
            forests = sum(r.forests for r in out.rows)
            return forests, sum(FORESTS), census_problem(
                out, self.answers["census"]["rows"]
            )
        if self.workload == "sparse":
            rc, text = out
            if rc != 0:
                return 0, 3, f"qsym analyze exited {rc}"
            actual = document_answers(json.loads(text))
            expected, verified = self.reference(case)
            if actual != expected:
                return decided(actual), 3, "CLI report differs from the library's"
        elif self.workload == "corpus":
            report, verified = out
            actual = report_answers(report)
        else:
            actual = report_answers(out)
            verified = verify_report(self.lib, case.graph, out)
        problem = judge(actual, self.recorded(case.key), verified, self.qf(case))
        return decided(actual), 3, problem

    def check_probe(self, case, rc: int, text: str, rejected: list) -> str | None:
        """The problem with one traced-run case, or None: the CLI report
        must pass the gate and classify() certificates must verify."""
        if rc != 0:
            return f"qsym analyze exited {rc}"
        if rejected:
            return f"verify_certificate rejects classify() on {rejected}"
        actual = document_answers(json.loads(text))
        verified = dict.fromkeys(TARGETS, True)
        return judge(actual, self.recorded(case.key), verified, self.qf(case))


def self_check(lib, answers: dict) -> list[str]:
    """Show the gate can fail.  C4's genuine verdicts must pass; two bad
    ones must fail: C4's coarse disjoint-pair certificate attached to a
    fine verdict (which verify_certificate accepts at this commit, so only
    the recorded answer catches it), and a witness with two images
    swapped.  Returns problems; an empty list means the check held."""
    q = lib.q
    c4 = q.cycle(4)
    report = q.classify_with_complement(c4)
    cert = report.ban.certificate
    images = list(cert.sigma.images)
    images[0], images[1] = images[1], images[0]
    trials = {
        "genuine": report,
        "forged-fine": dataclasses.replace(
            report, bic=q.Verdict("bic", q.Status.NONCOMMUTATIVE, cert)
        ),
        "swapped-images": dataclasses.replace(
            report,
            ban=q.Verdict(
                "ban",
                q.Status.NONCOMMUTATIVE,
                dataclasses.replace(cert, sigma=q.Permutation(tuple(images))),
            ),
        ),
    }
    recorded = dict(zip(TARGETS, answers["sparse"]["c4"]))
    qf = quadrangle_free("4;0 1;1 2;2 3;3 0")
    failed = sorted(
        label
        for label, r in trials.items()
        if judge(report_answers(r), recorded, verify_report(lib, c4, r), qf)
    )
    problems = []
    if failed != ["forged-fine", "swapped-images"]:
        problems.append(f"self-check: gate failed {failed}, expected the two injected")
    k3_12 = report_answers(q.classify_with_complement(q.gallery("k3_12")))
    current = {"c4": report_answers(report), "k3_12": k3_12}
    for key, known in KNOWN.items():
        rec = dict(zip(TARGETS, answers["sparse"][key]))
        for t, text in known.items():
            for source, table in (("current", current[key]), ("recorded", rec)):
                if not table[t].startswith(text):
                    problems.append(f"{key} {t} {source} {table[t]!r}, known {text!r}")
    return problems
